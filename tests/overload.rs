//! Overload-robustness conformance: golden invariance with the
//! subsystem disabled (or armed-but-inert) and chaos properties with it
//! enabled.
//!
//! The contract has two halves. First, everything in the overload
//! subsystem is opt-in: a config that never sets a policy — or sets
//! policies that never trigger — must reproduce the pre-overload
//! campaign TSV byte for byte at any `FECDN_THREADS`. Second, with
//! arbitrary fault plans and arbitrary policy combinations the world
//! must never panic, never leak an in-flight slot, and always conserve
//! the outcome accounting identity
//! `ok + degraded + retried + timed_out + shed == scheduled`.
//!
//! Two fault-path goldens pin the non-Ok trajectories the other
//! goldens never reach: `campaign_faults_seed4242.tsv` (client retries,
//! graceful degradation, BE failover) and
//! `campaign_overload_seed4242.tsv` (overload policies, load shedding,
//! hedge wins).

mod common;

use cdnsim::{
    BreakerPolicy, CompletedQuery, LoadModel, QueryOutcome, QuerySpec, RetryBudget, RetryPolicy,
    ServiceConfig,
};
use common::{burst_design, execute_raw, representative_campaign, representative_campaign_with};
use emulator::{Campaign, Collected, Design, Scenario, StreamReport};
use nettopo::{BurstLossParams, FaultPlan};
use proptest::prelude::*;
use simcore::time::{SimDuration, SimTime};

/// Arms every overload policy, tuned to be inert: a watermark no burst
/// reaches, a hedge delay longer than any fetch, a breaker that can't
/// trip without failures, and a retry budget that is never drawn from
/// (no retry policy is configured).
fn armed_but_inert(cfg: ServiceConfig) -> ServiceConfig {
    cfg.with_admission_control(1_000_000)
        .with_retry_budget(RetryBudget::default())
        .with_hedged_fetches(SimDuration::from_secs(3_600))
        .with_circuit_breaker(BreakerPolicy::default())
}

#[test]
fn inert_overload_policies_leave_campaign_tsv_byte_identical() {
    // Same seed, same designs; the only difference is the armed-but-
    // inert overload policy block. The TSVs must match byte for byte —
    // this is the golden-invariance guarantee with policies attached.
    let plain = representative_campaign(4242).execute().to_tsv();
    let guarded = representative_campaign_with(4242, armed_but_inert)
        .execute()
        .to_tsv();
    assert_eq!(plain, guarded);

    // And thread count must not matter on the guarded side either.
    let serial = representative_campaign_with(4242, armed_but_inert)
        .execute_with_threads(1)
        .to_tsv();
    let parallel = representative_campaign_with(4242, armed_but_inert)
        .execute_with_threads(4)
        .to_tsv();
    assert_eq!(serial, parallel);
    assert_eq!(serial, plain);
}

#[test]
fn disabled_overload_matches_committed_golden() {
    // The default config never constructs any overload state, so the
    // committed golden from before the subsystem existed must still
    // reproduce exactly — and so must the armed-but-inert variant. (The
    // same golden is pinned by the determinism suite; asserting it here
    // makes an invariance failure point at the overload subsystem
    // directly.)
    let plain = representative_campaign(42).execute_with_threads(4).to_tsv();
    common::compare_golden(&plain, "campaign_seed42.tsv", "overload subsystem disabled");
    let guarded = representative_campaign_with(42, armed_but_inert)
        .execute_with_threads(4)
        .to_tsv();
    common::compare_golden(
        &guarded,
        "campaign_seed42.tsv",
        "overload policies armed but inert",
    );
}

/// `n` clients fire one query each at t = 1 ms via their default FE.
fn simultaneous_burst(n: usize) -> Design {
    Design::custom(move |sim| {
        sim.with(|w, net| {
            for client in 0..n {
                w.schedule_query(
                    net,
                    SimDuration::from_millis(1),
                    QuerySpec {
                        client,
                        keyword: client as u64,
                        fixed_fe: None,
                        instant_followup: false,
                    },
                );
            }
        });
    })
}

/// One run per fault path, keeping only the runs named in `labels`: FE
/// outage with client retries, all BEs dark behind a fetch deadline
/// (degradation), client 0's BE dark (failover), every overload policy
/// at once, admission control with no retries (final sheds), and
/// hedging against a slow BE outage (hedge wins). Per-run seeds derive
/// from the campaign seed and the label, so a run's rows do not depend
/// on which other runs share its campaign.
fn fault_paths_campaign(seed: u64, labels: &[&str]) -> Campaign {
    let scenario = Scenario::with_size(seed, 10, 60);
    let base = ServiceConfig::google_like(seed);
    let (n_fes, busy_be) = scenario
        .build_sim(base.clone())
        .with(|w, _| (w.fe_count(), w.be_of_fe(w.default_fe(0))));
    let n_bes = base.be_sites.len();

    let mut fe_plan = FaultPlan::default();
    for fe in 0..n_fes {
        fe_plan = fe_plan.fe_outage(fe, SimTime::ZERO, SimTime::from_millis(5_000));
    }
    let retried = base
        .clone()
        .with_faults(fe_plan)
        .with_client_retry(RetryPolicy {
            deadline: SimDuration::from_millis(2_000),
            max_retries: 3,
            base_backoff: SimDuration::from_millis(500),
            jitter: 0.3,
        });

    let mut be_plan = FaultPlan::default();
    for be in 0..n_bes {
        be_plan = be_plan.be_outage(be, SimTime::ZERO, SimTime::from_millis(60_000));
    }
    let degraded = base
        .clone()
        .with_faults(be_plan)
        .with_fe_fetch_deadline(SimDuration::from_millis(1_000));

    let failover = base
        .clone()
        .with_faults(FaultPlan::default().be_outage(
            busy_be,
            SimTime::ZERO,
            SimTime::from_millis(30_000),
        ))
        .with_fe_fetch_deadline(SimDuration::from_millis(800));

    let sink = base
        .clone()
        .with_load_model(LoadModel {
            fe_capacity: 2,
            be_capacity: 4,
            max_slowdown: 10.0,
        })
        .with_admission_control(2)
        .with_retry_budget(RetryBudget {
            max_tokens: 2.0,
            refill_per_sec: 0.5,
        })
        .with_hedged_fetches(SimDuration::from_millis(60))
        .with_circuit_breaker(BreakerPolicy {
            failure_threshold: 2,
            cooldown: SimDuration::from_millis(700),
        })
        .with_fe_fetch_deadline(SimDuration::from_millis(900))
        .with_client_retry(RetryPolicy {
            deadline: SimDuration::from_millis(2_500),
            max_retries: 2,
            base_backoff: SimDuration::from_millis(150),
            jitter: 0.3,
        });

    // Admission control with no client retries: a shed attempt is final.
    let shed = base
        .with_load_model(LoadModel {
            fe_capacity: 2,
            be_capacity: 4,
            max_slowdown: 10.0,
        })
        .with_admission_control(1);

    let hedged = ServiceConfig::bing_like(seed)
        .with_hedged_fetches(SimDuration::from_millis(40))
        .with_faults(FaultPlan::default().be_outage(
            0,
            SimTime::from_millis(20),
            SimTime::from_millis(4_000),
        ))
        .with_fe_fetch_deadline(SimDuration::from_millis(1_500));

    let mut c = Campaign::new(scenario);
    for (label, cfg, design) in [
        ("faults-retried", retried, simultaneous_burst(3)),
        ("faults-degraded", degraded, simultaneous_burst(3)),
        ("faults-failover", failover, simultaneous_burst(3)),
        ("overload-sink", sink, burst_design(9)),
        ("overload-shed", shed, burst_design(9)),
        ("hedge-wins", hedged, simultaneous_burst(6)),
    ] {
        if !labels.contains(&label) {
            continue;
        }
        c.push(label, cfg, design).metrics = Some(true);
    }
    c
}

/// FNV-1a over a query's packet trace, so the golden pins every packet
/// without committing the trace itself.
fn trace_digest(cq: &CompletedQuery) -> u64 {
    format!("{:?}", cq.trace)
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The campaign TSV followed by one line per completed query with its
/// outcome, ground-truth stamps and trace digest — the TSV alone keeps
/// only queries whose timeline could be analysed.
fn fault_paths_document(report: &StreamReport<Collected>) -> String {
    let mut out = report.to_tsv();
    out.push_str("#raw\tlabel\tqid\tclient\tfe\tbe\toutcome\tt_start\tt_done\tfetch_start\tfetch_done\tpkts\ttrace_fnv\n");
    for r in &report.runs {
        for cq in &r.output.raw {
            out.push_str(&format!(
                "#raw\t{}\t{}\t{}\t{:?}\t{}\t{:?}\t{:?}\t{:?}\t{:?}\t{:?}\t{}\t{:016x}\n",
                r.label,
                cq.qid,
                cq.client,
                cq.fe,
                cq.be,
                cq.outcome,
                cq.t_start,
                cq.t_done,
                cq.fetch_start,
                cq.fetch_done,
                cq.trace.len(),
                trace_digest(cq),
            ));
        }
    }
    out
}

/// Runs the named fault paths at 1 and 4 workers, checks both against
/// the committed golden `golden`, and returns both reports.
fn fault_paths_match_golden(labels: &[&str], golden: &str) -> Vec<StreamReport<Collected>> {
    let c = fault_paths_campaign(4242, labels);
    [1, 4]
        .map(|threads| {
            let report = execute_raw(&c, threads);
            common::compare_golden(
                &fault_paths_document(&report),
                golden,
                &format!("fault paths at {threads} threads"),
            );
            report
        })
        .into()
}

fn fault_counter(report: &StreamReport<Collected>, label: &str, name: &str) -> u64 {
    report
        .get(label)
        .unwrap()
        .metrics
        .counter(name)
        .unwrap_or(0)
}

/// Client retries, graceful degradation and BE failover: serial and
/// 4-way runs agree with each other and with the committed golden.
#[test]
fn faults_retries_and_failover_agree() {
    let labels = ["faults-retried", "faults-degraded", "faults-failover"];
    for report in fault_paths_match_golden(&labels, "campaign_faults_seed4242.tsv") {
        // The golden must keep exercising every fault path, or it
        // silently degenerates into an Ok-only trace.
        let tally = |label: &str| report.get(label).unwrap().tally;
        assert!(tally("faults-retried").retried > 0);
        assert!(tally("faults-degraded").degraded > 0);
        if !cfg!(feature = "telemetry-off") {
            assert!(fault_counter(&report, "faults-failover", "cdnsim.be_failovers") > 0);
        }
    }
}

/// Every overload policy at once, final load shedding and hedge wins:
/// serial and 4-way runs agree with each other and with the committed
/// golden.
#[test]
fn overload_policies_agree() {
    let labels = ["overload-sink", "overload-shed", "hedge-wins"];
    for report in fault_paths_match_golden(&labels, "campaign_overload_seed4242.tsv") {
        assert!(report.get("overload-shed").unwrap().tally.shed > 0);
        if !cfg!(feature = "telemetry-off") {
            assert!(fault_counter(&report, "hedge-wins", "cdnsim.hedge_wins") > 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Chaos: random fault plans against random overload-policy
    /// combinations. The campaign must complete without panicking, the
    /// accounting identity must close, and serial and 4-way execution
    /// must agree byte-for-byte.
    #[test]
    fn chaos_faults_and_policies_conserve_accounting(
        seed in 0u64..10_000,
        n_queries in 4usize..10,
        fault_bits in 0u32..32,     // 5 fault kinds, one bit each
        with_model in 0u32..2,
        watermark in 0u32..4,       // 0 = no admission control
        with_retry in 0u32..2,
        budget_sel in 0u32..4,      // 0 = no budget, else max_tokens = sel - 1
        hedge_ms in 0u64..400,      // 0 = no hedging
        breaker_threshold in 0u32..4, // 0 = no breaker
        deadline_ms in 300u64..2_000,
    ) {
        let mut plan = FaultPlan::default();
        if fault_bits & 1 != 0 {
            plan = plan.fe_outage(0, SimTime::from_millis(50), SimTime::from_millis(900));
        }
        if fault_bits & 2 != 0 {
            plan = plan.fe_brownout(1, SimTime::ZERO, SimTime::from_millis(2_000), 8.0);
        }
        if fault_bits & 4 != 0 {
            plan = plan.be_outage(0, SimTime::from_millis(20), SimTime::from_millis(1_500));
        }
        if fault_bits & 8 != 0 {
            plan = plan.fe_capacity_dip(0, SimTime::ZERO, SimTime::from_millis(3_000), 0.25);
        }
        if fault_bits & 16 != 0 {
            plan = plan.client_burst_loss(
                0,
                0,
                SimTime::ZERO,
                SimTime::from_millis(5_000),
                BurstLossParams::moderate(),
            );
        }

        let mut cfg = ServiceConfig::google_like(seed)
            .with_faults(plan)
            .with_fe_fetch_deadline(SimDuration::from_millis(deadline_ms));
        if with_model != 0 {
            cfg = cfg.with_load_model(cdnsim::LoadModel {
                fe_capacity: 2,
                be_capacity: 4,
                max_slowdown: 10.0,
            });
        }
        if watermark > 0 {
            cfg = cfg.with_admission_control(watermark);
        }
        // A client deadline is always armed — a blackholed peer
        // retransmits forever, so an unbounded client would keep the
        // event queue alive indefinitely. The chaos axis is whether
        // retries are allowed, not whether clients ever give up.
        cfg = cfg.with_client_retry(RetryPolicy {
            deadline: SimDuration::from_millis(deadline_ms * 2),
            max_retries: if with_retry != 0 { 2 } else { 0 },
            base_backoff: SimDuration::from_millis(150),
            jitter: 0.3,
        });
        if budget_sel > 0 {
            cfg = cfg.with_retry_budget(RetryBudget {
                max_tokens: (budget_sel - 1) as f64,
                refill_per_sec: 0.5,
            });
        }
        if hedge_ms > 0 {
            cfg = cfg.with_hedged_fetches(SimDuration::from_millis(hedge_ms));
        }
        if breaker_threshold > 0 {
            cfg = cfg.with_circuit_breaker(BreakerPolicy {
                failure_threshold: breaker_threshold,
                cooldown: SimDuration::from_millis(700),
            });
        }

        // 10 vantages so every chaos client index (n_queries < 10) is valid.
        let mut c = Campaign::new(Scenario::with_size(seed, 10, 60));
        c.push("chaos", cfg, burst_design(n_queries));

        let serial = execute_raw(&c, 1);
        let parallel = execute_raw(&c, 4);
        prop_assert_eq!(serial.to_tsv(), parallel.to_tsv());

        let run = serial.get("chaos").unwrap();
        let t = run.tally;
        prop_assert_eq!(
            t.ok + t.degraded + t.retried + t.timed_out + t.shed,
            n_queries,
            "accounting leak: {:?}",
            t
        );
        prop_assert_eq!(t.total(), n_queries);
        prop_assert_eq!(run.output.raw.len(), n_queries);
        // Outcome rows and tally buckets must agree exactly.
        let shed = run
            .output
            .raw
            .iter()
            .filter(|cq| matches!(cq.outcome, QueryOutcome::Shed { .. }))
            .count();
        prop_assert_eq!(shed, t.shed);
        // Shed is impossible without admission control.
        if watermark == 0 {
            prop_assert_eq!(t.shed, 0);
        }
    }
}
