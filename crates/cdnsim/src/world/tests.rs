use super::*;
use crate::service::{BreakerPolicy, LoadModel, RetryBudget, RetryPolicy};
use nettopo::vantage::{planetlab_like, VantageConfig};
use nettopo::{BurstLossParams, FaultPlan};
use proptest::prelude::*;
use tcpsim::Sim;

fn small_world(cfg: ServiceConfig) -> Sim<ServiceWorld> {
    let vantages = planetlab_like(
        cfg.seed,
        &VantageConfig {
            count: 20,
            ..VantageConfig::default()
        },
    );
    let corpus = KeywordCorpus::generate(cfg.seed, 200, 0.5);
    let world = ServiceWorld::new(cfg, vantages, corpus);
    let mut sim = Sim::new(7, world);
    // The FE/BE view: several tests assert server-side observations.
    sim.net().trace_mut().set_capture(Capture::All);
    sim
}

fn run_one_query(cfg: ServiceConfig) -> CompletedQuery {
    let mut sim = small_world(cfg);
    sim.with(|w, net| {
        w.schedule_query(
            net,
            SimDuration::from_millis(1),
            QuerySpec {
                client: 0,
                keyword: 3,
                fixed_fe: None,
                instant_followup: false,
            },
        );
    });
    sim.run();
    let mut done = sim.with(|w, _| w.drain_completed());
    assert_eq!(done.len(), 1);
    done.pop().unwrap()
}

#[test]
fn google_like_query_completes_with_ground_truth() {
    let cq = run_one_query(ServiceConfig::google_like(1));
    assert!(cq.fe.is_some());
    assert!(cq.proc_ms > 1.0, "proc {}", cq.proc_ms);
    assert!(cq.fe_overhead_ms > 0.0);
    assert!(cq.true_fetch_ms().unwrap() > cq.proc_ms);
    assert!(cq.overall_ms() > 0.0);
    assert!(!cq.trace.is_empty());
    assert_eq!(cq.plan.static_content, 1);
}

#[test]
fn bing_like_query_completes() {
    let cq = run_one_query(ServiceConfig::bing_like(1));
    assert!(cq.proc_ms > 10.0);
    assert_eq!(cq.plan.static_content, 2);
    // Store-and-forward: fetch includes the response transfer.
    let fetch = cq.true_fetch_ms().unwrap();
    assert!(fetch >= cq.proc_ms + cq.rtt_fe_be_ms);
}

#[test]
fn client_receives_exactly_the_planned_bytes() {
    let cq = run_one_query(ServiceConfig::google_like(2));
    // Client-side received data bytes from the trace.
    let client_node = ServiceWorld::client_node(0);
    let mut stat = 0u64;
    let mut dynamic = 0u64;
    for ev in &cq.trace {
        if ev.node == client_node && ev.dir == tcpsim::PktDir::Rx {
            for m in &ev.meta {
                match m.marker {
                    Marker::Static => stat += m.len as u64,
                    Marker::Dynamic => dynamic += m.len as u64,
                    _ => {}
                }
            }
        }
    }
    assert_eq!(stat, cq.plan.static_bytes);
    assert_eq!(dynamic, cq.plan.dynamic_bytes);
}

#[test]
fn pool_reuses_connections_across_queries() {
    let mut sim = small_world(ServiceConfig::google_like(3));
    let fe = sim.with(|w, _| w.default_fe(0));
    for i in 0..3 {
        sim.with(|w, net| {
            w.schedule_query(
                net,
                SimDuration::from_millis(1 + i * 2_000),
                QuerySpec {
                    client: 0,
                    keyword: i,
                    fixed_fe: Some(fe),
                    instant_followup: false,
                },
            );
        });
    }
    sim.run();
    let done = sim.with(|w, _| w.drain_completed());
    assert_eq!(done.len(), 3);
    // Sequential queries through one FE must reuse the pooled conn:
    // the BE leg of queries 2 and 3 must carry no SYN.
    for cq in &done[1..] {
        let fe_node = ServiceWorld::fe_node(cq.fe.unwrap());
        let syn_on_be_leg = cq.trace.iter().any(|e| {
            e.node == fe_node && e.kind == tcpsim::PktKind::Syn && e.dir == tcpsim::PktDir::Tx
        });
        assert!(!syn_on_be_leg, "query {} reopened the BE conn", cq.qid);
    }
}

#[test]
fn prewarm_grows_the_pool() {
    let mut sim = small_world(ServiceConfig::google_like(4));
    let fe = sim.with(|w, _| w.default_fe(0));
    let be = sim.with(|w, _| w.be_of_fe(fe));
    sim.with(|w, net| w.prewarm(net, fe, be, 2));
    sim.run();
    let pooled = sim.with(|w, _| w.free_pool.get(&(fe, be)).map(|v| v.len()).unwrap_or(0));
    assert_eq!(pooled, 2);
    // A subsequent query uses a warm conn (no SYN on the BE leg).
    sim.with(|w, net| {
        w.schedule_query(
            net,
            SimDuration::from_millis(1),
            QuerySpec {
                client: 0,
                keyword: 1,
                fixed_fe: Some(fe),
                instant_followup: false,
            },
        );
    });
    sim.run();
    let done = sim.with(|w, _| w.drain_completed());
    let cq = &done[0];
    let fe_node = ServiceWorld::fe_node(fe);
    assert!(!cq.trace.iter().any(|e| e.node == fe_node
        && e.kind == tcpsim::PktKind::Syn
        && e.dir == tcpsim::PktDir::Tx));
}

#[test]
fn no_split_tcp_goes_straight_to_the_be() {
    let cq = run_one_query(ServiceConfig::google_like(5).without_split_tcp());
    assert!(cq.fe.is_none());
    assert!(cq.fetch_start.is_none());
    assert!(cq.proc_ms > 0.0);
    // The client's peer is a BE node.
    let be_node = ServiceWorld::be_node(cq.be);
    assert!(cq.trace.iter().any(|e| e.node == be_node));
}

#[test]
fn static_cache_off_delays_static_delivery() {
    // With the cache on, static bytes reach the client well before
    // dynamic ones at small RTT; with it off they arrive only after
    // the fetch — compare first-static-arrival times.
    let first_static_ms = |cfg: ServiceConfig| -> f64 {
        let mut sim = small_world(cfg);
        sim.with(|w, net| {
            w.schedule_query(
                net,
                SimDuration::from_millis(1),
                QuerySpec {
                    client: 0,
                    keyword: 3,
                    fixed_fe: None,
                    instant_followup: false,
                },
            );
        });
        sim.run();
        let done = sim.with(|w, _| w.drain_completed());
        let cq = &done[0];
        let client_node = ServiceWorld::client_node(0);
        let t0 = cq.t_start;
        cq.trace
            .iter()
            .find(|e| {
                e.node == client_node
                    && e.dir == tcpsim::PktDir::Rx
                    && e.meta.iter().any(|m| m.marker == Marker::Static)
            })
            .map(|e| e.t.saturating_since(t0).as_millis_f64())
            .unwrap()
    };
    let with_cache = first_static_ms(ServiceConfig::bing_like(6));
    let without = first_static_ms(ServiceConfig::bing_like(6).without_static_cache());
    assert!(
        without > with_cache + 50.0,
        "cache on: {with_cache}ms, off: {without}ms"
    );
}

#[test]
fn fe_result_cache_skips_the_fetch_on_repeat() {
    let mut sim = small_world(ServiceConfig::google_like(8).with_fe_result_cache());
    let fe = sim.with(|w, _| w.default_fe(0));
    for i in 0..2 {
        sim.with(|w, net| {
            w.schedule_query(
                net,
                SimDuration::from_millis(1 + i * 3_000),
                QuerySpec {
                    client: 0,
                    keyword: 5, // same keyword twice
                    fixed_fe: Some(fe),
                    instant_followup: false,
                },
            );
        });
    }
    sim.run();
    let done = sim.with(|w, _| w.drain_completed());
    assert_eq!(done.len(), 2);
    assert!(done[0].true_fetch_ms().is_some(), "first query fetches");
    assert!(
        done[1].true_fetch_ms().is_none(),
        "second query must hit the FE cache"
    );
    assert_eq!(done[1].proc_ms, 0.0);
}

#[test]
fn dataset_b_fixed_fe_overrides_dns() {
    let mut sim = small_world(ServiceConfig::google_like(9));
    let far_fe = sim.with(|w, _| {
        // Pick an FE that is NOT client 0's default.
        let def = w.default_fe(0);
        (0..w.fe_count()).find(|&f| f != def).unwrap()
    });
    sim.with(|w, net| {
        w.schedule_query(
            net,
            SimDuration::from_millis(1),
            QuerySpec {
                client: 0,
                keyword: 1,
                fixed_fe: Some(far_fe),
                instant_followup: false,
            },
        );
    });
    sim.run();
    let done = sim.with(|w, _| w.drain_completed());
    assert_eq!(done[0].fe, Some(far_fe));
}

#[test]
fn clean_query_outcome_is_ok() {
    let cq = run_one_query(ServiceConfig::google_like(1));
    assert_eq!(cq.outcome, QueryOutcome::Ok);
}

#[test]
fn empty_fault_plan_is_byte_identical() {
    // Attaching an empty FaultPlan (and installing it) must not
    // perturb a single packet relative to the plain configuration.
    let run = |with_plan: bool| -> CompletedQuery {
        let mut cfg = ServiceConfig::google_like(11);
        if with_plan {
            cfg = cfg.with_faults(nettopo::FaultPlan::default());
        }
        let mut sim = small_world(cfg);
        if with_plan {
            sim.with(|w, net| w.install_faults(net));
        }
        sim.with(|w, net| {
            w.schedule_query(
                net,
                SimDuration::from_millis(1),
                QuerySpec {
                    client: 0,
                    keyword: 3,
                    fixed_fe: None,
                    instant_followup: false,
                },
            );
        });
        sim.run();
        sim.with(|w, _| w.drain_completed()).pop().unwrap()
    };
    let plain = run(false);
    let faulted = run(true);
    assert_eq!(plain.t_done, faulted.t_done);
    assert_eq!(plain.trace.len(), faulted.trace.len());
    for (a, b) in plain.trace.iter().zip(faulted.trace.iter()) {
        assert_eq!(a, b);
    }
    assert_eq!(faulted.outcome, QueryOutcome::Ok);
}

#[test]
fn degraded_when_every_be_site_is_down() {
    let mut plan = nettopo::FaultPlan::default();
    for be in 0..64 {
        plan = plan.be_outage(be, SimTime::ZERO, SimTime::from_millis(60_000));
    }
    let cfg = ServiceConfig::google_like(12)
        .with_faults(plan)
        .with_fe_fetch_deadline(SimDuration::from_millis(1_000));
    let mut sim = small_world(cfg);
    sim.with(|w, net| {
        w.install_faults(net);
        w.schedule_query(
            net,
            SimDuration::from_millis(1),
            QuerySpec {
                client: 0,
                keyword: 3,
                fixed_fe: None,
                instant_followup: false,
            },
        );
    });
    sim.run();
    let done = sim.with(|w, _| w.drain_completed());
    assert_eq!(done.len(), 1);
    let cq = &done[0];
    assert_eq!(cq.outcome, QueryOutcome::Degraded);
    // The degraded response carries the error stub, not real results.
    assert_eq!(cq.plan.dynamic_bytes, DEGRADED_STUB_BYTES);
    assert_eq!(cq.plan.dynamic_content, DEGRADED_CONTENT_ID);
    // The client actually received error-marked bytes.
    let client_node = ServiceWorld::client_node(0);
    let err_bytes: u64 = cq
        .trace
        .iter()
        .filter(|e| e.node == client_node && e.dir == tcpsim::PktDir::Rx)
        .flat_map(|e| e.meta.iter())
        .filter(|m| m.marker == Marker::Error)
        .map(|m| m.len as u64)
        .sum();
    assert_eq!(err_bytes, DEGRADED_STUB_BYTES);
    assert_eq!(sim.with(|w, _| w.in_flight()), 0);
}

#[test]
fn be_outage_steers_fetch_to_live_site() {
    // Learn the primary BE, then knock it out for the whole run: the
    // FE must route the fetch to another live site and still answer.
    let mut probe = small_world(ServiceConfig::google_like(13));
    let (fe, primary_be) = probe.with(|w, _| {
        let fe = w.default_fe(0);
        (fe, w.be_of_fe(fe))
    });
    let plan = nettopo::FaultPlan::default().be_outage(
        primary_be,
        SimTime::ZERO,
        SimTime::from_millis(60_000),
    );
    let cfg = ServiceConfig::google_like(13)
        .with_faults(plan)
        .with_fe_fetch_deadline(SimDuration::from_millis(1_000));
    let mut sim = small_world(cfg);
    sim.with(|w, net| {
        w.install_faults(net);
        w.schedule_query(
            net,
            SimDuration::from_millis(1),
            QuerySpec {
                client: 0,
                keyword: 3,
                fixed_fe: Some(fe),
                instant_followup: false,
            },
        );
    });
    sim.run();
    let done = sim.with(|w, _| w.drain_completed());
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].outcome, QueryOutcome::Ok);
    assert_ne!(done[0].be, primary_be, "fetch must avoid the dead site");
}

#[test]
fn fe_outage_retries_until_recovery() {
    // All FEs dark for the first 5 s; the client's deadline/backoff
    // loop must carry the query past the outage and then succeed.
    let mut plan = nettopo::FaultPlan::default();
    for fe in 0..512 {
        plan = plan.fe_outage(fe, SimTime::ZERO, SimTime::from_millis(5_000));
    }
    let cfg = ServiceConfig::google_like(14)
        .with_faults(plan)
        .with_client_retry(crate::service::RetryPolicy {
            deadline: SimDuration::from_millis(2_000),
            max_retries: 3,
            base_backoff: SimDuration::from_millis(500),
            jitter: 0.3,
        });
    let mut sim = small_world(cfg);
    sim.with(|w, net| {
        w.install_faults(net);
        w.schedule_query(
            net,
            SimDuration::from_millis(1),
            QuerySpec {
                client: 0,
                keyword: 3,
                fixed_fe: None,
                instant_followup: false,
            },
        );
    });
    sim.run();
    let done = sim.with(|w, _| w.drain_completed());
    assert_eq!(done.len(), 1);
    match done[0].outcome {
        QueryOutcome::Retried(n) => assert!(n >= 1, "retry count {n}"),
        other => panic!("expected Retried, got {other:?}"),
    }
    assert!(
        done[0].t_done >= SimTime::from_millis(5_000),
        "success only after the outage lifts"
    );
    assert_eq!(sim.with(|w, _| w.in_flight()), 0);
}

#[test]
fn fe_outage_outlasting_retry_budget_times_out() {
    let mut plan = nettopo::FaultPlan::default();
    for fe in 0..512 {
        plan = plan.fe_outage(fe, SimTime::ZERO, SimTime::from_millis(60_000));
    }
    let cfg = ServiceConfig::google_like(15)
        .with_faults(plan)
        .with_client_retry(crate::service::RetryPolicy {
            deadline: SimDuration::from_millis(1_000),
            max_retries: 1,
            base_backoff: SimDuration::from_millis(200),
            jitter: 0.3,
        });
    let mut sim = small_world(cfg);
    sim.with(|w, net| {
        w.install_faults(net);
        w.schedule_query(
            net,
            SimDuration::from_millis(1),
            QuerySpec {
                client: 0,
                keyword: 3,
                fixed_fe: None,
                instant_followup: false,
            },
        );
    });
    sim.run();
    let done = sim.with(|w, _| w.drain_completed());
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].outcome, QueryOutcome::TimedOut { attempts: 2 });
    assert_eq!(sim.with(|w, _| w.in_flight()), 0);
}

#[test]
fn conn_drop_forces_cold_reconnect() {
    // A persistent-connection drop empties the FE's pool; the next
    // query must open a fresh (cold) BE connection — visible as a SYN
    // on the FE's BE leg.
    let run = |drop_conns: bool| -> CompletedQuery {
        let mut probe = small_world(ServiceConfig::google_like(16));
        let (fe, be) = probe.with(|w, _| {
            let fe = w.default_fe(0);
            (fe, w.be_of_fe(fe))
        });
        let mut cfg = ServiceConfig::google_like(16);
        if drop_conns {
            cfg = cfg.with_faults(nettopo::FaultPlan::default().conn_drop(
                fe,
                be,
                SimTime::from_millis(500),
            ));
        }
        let mut sim = small_world(cfg);
        sim.with(|w, net| {
            w.install_faults(net);
            w.prewarm(net, fe, be, 1);
        });
        sim.run(); // warm the pool
        sim.with(|w, net| {
            w.schedule_query(
                net,
                SimDuration::from_millis(1_000),
                QuerySpec {
                    client: 0,
                    keyword: 3,
                    fixed_fe: Some(fe),
                    instant_followup: false,
                },
            );
        });
        sim.run();
        sim.with(|w, _| w.drain_completed()).pop().unwrap()
    };
    let syn_on_be_leg = |cq: &CompletedQuery| {
        let fe_node = ServiceWorld::fe_node(cq.fe.unwrap());
        cq.trace.iter().any(|e| {
            e.node == fe_node && e.kind == tcpsim::PktKind::Syn && e.dir == tcpsim::PktDir::Tx
        })
    };
    let warm = run(false);
    let cold = run(true);
    assert!(!syn_on_be_leg(&warm), "control run must reuse the pool");
    assert!(syn_on_be_leg(&cold), "dropped pool must force a cold SYN");
    // Cold handshake + slow start make the fetch strictly slower.
    assert!(cold.true_fetch_ms().unwrap() > warm.true_fetch_ms().unwrap());
}

#[test]
fn many_concurrent_clients_all_complete() {
    let mut sim = small_world(ServiceConfig::bing_like(10));
    for c in 0..20 {
        sim.with(|w, net| {
            w.schedule_query(
                net,
                SimDuration::from_millis(1 + (c as u64 * 13) % 500),
                QuerySpec {
                    client: c,
                    keyword: c as u64,
                    fixed_fe: None,
                    instant_followup: false,
                },
            );
        });
    }
    sim.run();
    let done = sim.with(|w, _| w.drain_completed());
    assert_eq!(done.len(), 20);
    assert_eq!(sim.with(|w, _| w.in_flight()), 0);
}

/// Schedules `n` clients at t = 1 ms, all pinned to client 0's
/// default FE, and runs to completion.
fn run_burst(cfg: ServiceConfig, n: usize) -> (Vec<CompletedQuery>, Sim<ServiceWorld>) {
    let mut sim = small_world(cfg);
    let fe = sim.with(|w, _| w.default_fe(0));
    for c in 0..n {
        sim.with(|w, net| {
            w.schedule_query(
                net,
                SimDuration::from_millis(1),
                QuerySpec {
                    client: c,
                    keyword: c as u64,
                    fixed_fe: Some(fe),
                    instant_followup: false,
                },
            );
        });
    }
    sim.run();
    let done = sim.with(|w, _| w.drain_completed());
    (done, sim)
}

#[test]
fn admission_watermark_sheds_excess_load() {
    // Watermark 1 on a burst of 8 simultaneous queries at one FE:
    // whoever arrives while another query is in flight is answered
    // with the shed stub immediately (no retry policy configured).
    let cfg = ServiceConfig::google_like(21).with_admission_control(1);
    let (done, mut sim) = run_burst(cfg, 8);
    assert_eq!(done.len(), 8);
    let shed: Vec<_> = done
        .iter()
        .filter(|cq| matches!(cq.outcome, QueryOutcome::Shed { .. }))
        .collect();
    assert!(!shed.is_empty(), "burst of 8 over watermark 1 must shed");
    for cq in &shed {
        assert_eq!(cq.outcome, QueryOutcome::Shed { attempts: 1 });
        assert_eq!(cq.plan.dynamic_bytes, SHED_STUB_BYTES);
        assert!(!cq.outcome.served());
    }
    assert!(done.iter().any(|cq| cq.outcome == QueryOutcome::Ok));
    let shed_metric = sim.with(|w, _| w.metrics().counter("cdnsim.shed_queries"));
    assert_eq!(shed_metric, Some(shed.len() as u64));
    // Every slot was released.
    assert_eq!(sim.with(|w, _| w.in_flight()), 0);
    let fe = sim.with(|w, _| w.default_fe(0));
    assert_eq!(sim.with(|w, _| w.fe_inflight(fe)), 0);
}

#[test]
fn shed_queries_retry_under_policy_and_stop_on_empty_budget() {
    // With a retry policy, shed queries come back after backoff and
    // eventually land under the watermark.
    let retry = crate::service::RetryPolicy {
        deadline: SimDuration::from_millis(30_000),
        max_retries: 5,
        base_backoff: SimDuration::from_millis(300),
        jitter: 0.3,
    };
    let cfg = ServiceConfig::google_like(22)
        .with_admission_control(1)
        .with_client_retry(retry.clone());
    let (done, _) = run_burst(cfg, 6);
    assert_eq!(done.len(), 6);
    assert!(
        done.iter().all(|cq| cq.outcome.served()),
        "retries must drain the shed burst: {:?}",
        done.iter().map(|cq| cq.outcome).collect::<Vec<_>>()
    );
    assert!(done
        .iter()
        .any(|cq| matches!(cq.outcome, QueryOutcome::Retried(_))));

    // Same burst with a zero retry budget: the shed replies are
    // terminal even though the retry policy would allow 5 attempts.
    let cfg = ServiceConfig::google_like(22)
        .with_admission_control(1)
        .with_client_retry(retry)
        .with_retry_budget(crate::service::RetryBudget {
            max_tokens: 0.0,
            refill_per_sec: 0.0,
        });
    let (done, mut sim) = run_burst(cfg, 6);
    assert_eq!(done.len(), 6);
    for cq in &done {
        assert!(
            matches!(
                cq.outcome,
                QueryOutcome::Ok | QueryOutcome::Shed { attempts: 1 }
            ),
            "zero budget forbids retries: {:?}",
            cq.outcome
        );
    }
    let exhausted = sim.with(|w, _| w.metrics().counter("cdnsim.retry_budget_exhausted"));
    assert!(exhausted.unwrap_or(0) > 0);
}

#[test]
fn retry_budget_caps_deadline_retries() {
    // The fe_outage_outlasting_retry_budget_times_out scenario, but
    // the budget (1 token, no refill) runs out before the retry
    // policy (3 retries) does: exactly 2 attempts are made.
    let mut plan = nettopo::FaultPlan::default();
    for fe in 0..512 {
        plan = plan.fe_outage(fe, SimTime::ZERO, SimTime::from_millis(120_000));
    }
    let cfg = ServiceConfig::google_like(23)
        .with_faults(plan)
        .with_client_retry(crate::service::RetryPolicy {
            deadline: SimDuration::from_millis(1_000),
            max_retries: 3,
            base_backoff: SimDuration::from_millis(200),
            jitter: 0.3,
        })
        .with_retry_budget(crate::service::RetryBudget {
            max_tokens: 1.0,
            refill_per_sec: 0.0,
        });
    let mut sim = small_world(cfg);
    sim.with(|w, net| {
        w.install_faults(net);
        w.schedule_query(
            net,
            SimDuration::from_millis(1),
            QuerySpec {
                client: 0,
                keyword: 3,
                fixed_fe: None,
                instant_followup: false,
            },
        );
    });
    sim.run();
    let done = sim.with(|w, _| w.drain_completed());
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].outcome, QueryOutcome::TimedOut { attempts: 2 });
    assert_eq!(
        sim.with(|w, _| w.metrics().counter("cdnsim.retry_budget_exhausted")),
        Some(1)
    );
}

#[test]
fn hedged_fetch_wins_when_primary_be_stalls() {
    // The default BE goes dark at 2 ms — after the query (started at
    // 1 ms) was routed to it, so routing cannot steer away. The
    // primary fetch stalls forever; the hedge fires 5 ms in and
    // serves from the next-nearest live site. First response wins.
    let mut probe = small_world(ServiceConfig::google_like(24));
    let fe = probe.with(|w, _| w.default_fe(0));
    let be = probe.with(|w, _| w.be_of_fe(fe));
    let cfg = ServiceConfig::google_like(24)
        .with_faults(nettopo::FaultPlan::default().be_outage(
            be,
            SimTime::from_millis(2),
            SimTime::from_millis(60_000),
        ))
        .with_hedged_fetches(SimDuration::from_millis(5));
    let mut sim = small_world(cfg);
    sim.with(|w, net| {
        w.install_faults(net);
        w.schedule_query(
            net,
            SimDuration::from_millis(1),
            QuerySpec {
                client: 0,
                keyword: 3,
                fixed_fe: Some(fe),
                instant_followup: false,
            },
        );
    });
    sim.run();
    let done = sim.with(|w, _| w.drain_completed());
    assert_eq!(done.len(), 1);
    let cq = &done[0];
    assert_eq!(cq.outcome, QueryOutcome::Ok);
    assert_ne!(cq.be, be, "the hedge BE must have served the response");
    assert!(cq.proc_ms > 0.0);
    assert_eq!(
        sim.with(|w, _| w.metrics().counter("cdnsim.hedge_wins")),
        Some(1)
    );
    assert_eq!(sim.with(|w, _| w.in_flight()), 0);
    let n_bes = sim.with(|w, _| w.cfg.be_sites.len());
    for b in 0..n_bes {
        assert_eq!(sim.with(|w, _| w.be_inflight(b)), 0, "BE {b} slot leaked");
    }
}

#[test]
fn primary_wins_while_hedge_is_outstanding() {
    // No fault and a 1 ms hedge delay: the hedge leg to the
    // next-nearest site is launched while the primary is still out,
    // and the nearer primary BE answers first. The primary serves,
    // the losing hedge is cancelled, and every slot drains.
    let mut probe = small_world(ServiceConfig::google_like(24));
    let fe = probe.with(|w, _| w.default_fe(0));
    let be = probe.with(|w, _| w.be_of_fe(fe));
    let cfg = ServiceConfig::google_like(24).with_hedged_fetches(SimDuration::from_millis(1));
    let mut sim = small_world(cfg);
    sim.with(|w, net| {
        w.schedule_query(
            net,
            SimDuration::from_millis(1),
            QuerySpec {
                client: 0,
                keyword: 3,
                fixed_fe: Some(fe),
                instant_followup: false,
            },
        );
    });
    sim.run();
    let done = sim.with(|w, _| w.drain_completed());
    assert_eq!(done.len(), 1);
    let cq = &done[0];
    assert_eq!(cq.outcome, QueryOutcome::Ok);
    assert_eq!(cq.be, be, "the primary BE must have served the response");
    assert_eq!(cq.rtt_fe_be_ms, sim.app().fe_be_rtt_ms(fe, be));
    assert!(cq.proc_ms > 0.0);
    let counter = |sim: &Sim<ServiceWorld>, name| sim.app().metrics().counter(name);
    assert_eq!(counter(&sim, "cdnsim.hedges_launched"), Some(1));
    assert_eq!(counter(&sim, "cdnsim.hedge_wins"), None);
    assert_slots_drained(&sim);
}

/// Asserts a run left nothing behind: no query in flight, every FE and
/// BE in-flight slot released, and no client or fetch connection still
/// mapped to a query.
fn assert_slots_drained(sim: &Sim<ServiceWorld>) {
    let w = sim.app();
    assert_eq!(w.in_flight(), 0);
    for fe in 0..w.fe_count() {
        assert_eq!(w.fe_inflight(fe), 0, "FE {fe} slot leaked");
    }
    for be in 0..w.cfg.be_sites.len() {
        assert_eq!(w.be_inflight(be), 0, "BE {be} slot leaked");
    }
    let live: Vec<Leg> = w
        .conn_info
        .values()
        .map(|i| i.leg)
        .filter(|leg| !matches!(leg, Leg::Warmup { .. }))
        .collect();
    assert!(live.is_empty(), "query connections left mapped: {live:?}");
}

#[test]
fn breaker_opens_then_fast_fails_later_fetches() {
    // Every BE dark, 500 ms fetch deadline, breaker trips after one
    // failure with a long cooldown. Query 1 pays the deadline and
    // degrades; query 2 (1 s later) fast-fails straight to the
    // degraded response without ever starting a fetch.
    let mut plan = nettopo::FaultPlan::default();
    for be in 0..64 {
        plan = plan.be_outage(be, SimTime::ZERO, SimTime::from_millis(60_000));
    }
    let cfg = ServiceConfig::google_like(25)
        .with_faults(plan)
        .with_fe_fetch_deadline(SimDuration::from_millis(500))
        .with_circuit_breaker(crate::service::BreakerPolicy {
            failure_threshold: 1,
            cooldown: SimDuration::from_millis(30_000),
        });
    let mut sim = small_world(cfg);
    let fe = sim.with(|w, _| w.default_fe(0));
    sim.with(|w, net| {
        w.install_faults(net);
        for (client, at) in [(0usize, 1u64), (1, 1_000)] {
            w.schedule_query(
                net,
                SimDuration::from_millis(at),
                QuerySpec {
                    client,
                    keyword: client as u64,
                    fixed_fe: Some(fe),
                    instant_followup: false,
                },
            );
        }
    });
    sim.run();
    let mut done = sim.with(|w, _| w.drain_completed());
    done.sort_by_key(|cq| cq.client);
    assert_eq!(done.len(), 2);
    assert!(done.iter().all(|cq| cq.outcome == QueryOutcome::Degraded));
    assert!(done[0].fetch_start.is_some(), "query 1 attempted a fetch");
    assert!(done[1].fetch_start.is_none(), "query 2 must fast-fail");
    assert_eq!(
        sim.with(|w, _| w.metrics().counter("cdnsim.breaker_opens")),
        Some(1)
    );
    assert_eq!(
        sim.with(|w, _| w.metrics().counter("cdnsim.breaker_fastfails")),
        Some(1)
    );
}

#[test]
fn load_model_stretches_fe_overhead_under_concurrency() {
    let model = crate::service::LoadModel {
        fe_capacity: 2,
        be_capacity: 64,
        max_slowdown: 20.0,
    };
    // Alone, the load model is inert: a lone query sees slowdown 1.
    let plain = run_one_query(ServiceConfig::google_like(26));
    let modeled = run_one_query(ServiceConfig::google_like(26).with_load_model(model));
    assert_eq!(plain.fe_overhead_ms, modeled.fe_overhead_ms);
    assert_eq!(plain.t_done, modeled.t_done);

    // Under a concurrent burst the modeled FE queues: its worst
    // per-query overhead must exceed the load-oblivious one.
    let (base, _) = run_burst(ServiceConfig::google_like(26), 8);
    let (loaded, _) = run_burst(ServiceConfig::google_like(26).with_load_model(model), 8);
    let worst = |v: &[CompletedQuery]| {
        v.iter()
            .map(|cq| cq.fe_overhead_ms)
            .fold(0.0f64, |a, b| a.max(b))
    };
    assert!(
        worst(&loaded) > worst(&base) * 1.5,
        "loaded {} vs base {}",
        worst(&loaded),
        worst(&base)
    );
}

#[test]
fn inert_overload_policies_do_not_change_a_run() {
    // Policies that never trigger (huge watermark, hedge delay
    // longer than the run, closed breaker, untouched budget) must
    // leave the packet trace and timings byte-identical.
    let plain = run_one_query(ServiceConfig::google_like(27));
    let guarded = run_one_query(
        ServiceConfig::google_like(27)
            .with_admission_control(10_000)
            .with_retry_budget(crate::service::RetryBudget::default())
            .with_hedged_fetches(SimDuration::from_millis(3_600_000))
            .with_circuit_breaker(crate::service::BreakerPolicy::default()),
    );
    assert_eq!(plain.outcome, guarded.outcome);
    assert_eq!(plain.t_done, guarded.t_done);
    assert_eq!(plain.proc_ms, guarded.proc_ms);
    assert_eq!(plain.fe_overhead_ms, guarded.fe_overhead_ms);
    assert_eq!(plain.trace.len(), guarded.trace.len());
    for (a, b) in plain.trace.iter().zip(guarded.trace.iter()) {
        assert_eq!(a.t, b.t);
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.len, b.len);
    }
}

#[test]
fn action_table_stays_at_peak_pending_timers() {
    // Forty queries, each started when the previous one completes, with
    // a client deadline that outlives several of them: fired action
    // slots are recycled, so the table never grows past the peak number
    // of app timers pending at once.
    const N: usize = 40;
    let cfg = ServiceConfig::google_like(1).with_client_retry(crate::service::RetryPolicy {
        deadline: SimDuration::from_secs(1),
        ..crate::service::RetryPolicy::default()
    });
    let mut sim = small_world(cfg);
    let start = |sim: &mut Sim<ServiceWorld>| {
        sim.with(|w, net| {
            w.schedule_query(
                net,
                SimDuration::from_millis(1),
                QuerySpec {
                    client: 0,
                    keyword: 3,
                    fixed_fe: None,
                    instant_followup: false,
                },
            )
        })
    };
    let pending = |sim: &Sim<ServiceWorld>| sim.app().actions.iter().flatten().count();
    start(&mut sim);
    let (mut started, mut done, mut peak) = (1, 0, pending(&sim));
    while let Some(t) = sim.net().next_event_time() {
        sim.run_until(t);
        peak = peak.max(pending(&sim));
        done += sim.with(|w, _| w.drain_completed()).len();
        if done == started && started < N {
            start(&mut sim);
            started += 1;
            peak = peak.max(pending(&sim));
        }
    }
    assert_eq!(done, N);
    let slots = sim.app().actions.len();
    assert!(
        slots <= peak,
        "{slots} action slots for {peak} pending timers"
    );
    assert!(peak < N / 2, "deadlines of {peak} queries overlapped");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Chaos at the world level: random fault plans (including an
    /// outage of the serving FE's own BE, so fetches fail over) against
    /// random overload policies. Every FE/BE in-flight slot a query
    /// takes is released exactly once — a second release trips
    /// `drop_leg`'s debug assertion — and the world drains completely.
    #[test]
    fn chaos_releases_every_slot_exactly_once(
        seed in 0u64..10_000,
        n_queries in 2usize..10,
        stagger_ms in 0u64..60,
        fault_bits in 0u32..64,     // 6 fault kinds, one bit each
        with_model in 0u32..2,
        watermark in 0u32..4,       // 0 = no admission control
        with_retry in 0u32..2,
        budget_sel in 0u32..4,      // 0 = no budget, else max_tokens = sel - 1
        hedge_ms in 0u64..300,      // 0 = no hedging
        breaker_threshold in 0u32..4, // 0 = no breaker
        fetch_deadline_ms in 0u64..1_500, // below 200 = no fetch deadline
    ) {
        let mut probe = small_world(ServiceConfig::google_like(seed));
        let fe = probe.with(|w, _| w.default_fe(0));
        let be = probe.with(|w, _| w.be_of_fe(fe));
        let ms = SimTime::from_millis;
        let mut plan = FaultPlan::default();
        if fault_bits & 1 != 0 {
            plan = plan.fe_outage(fe, ms(50), ms(900));
        }
        if fault_bits & 2 != 0 {
            plan = plan.fe_brownout(fe, SimTime::ZERO, ms(2_000), 8.0);
        }
        if fault_bits & 4 != 0 {
            plan = plan.be_outage(be, ms(20), ms(1_500));
        }
        if fault_bits & 8 != 0 {
            plan = plan.fe_capacity_dip(fe, SimTime::ZERO, ms(3_000), 0.25);
        }
        if fault_bits & 16 != 0 {
            plan = plan.conn_drop(fe, be, ms(30));
        }
        if fault_bits & 32 != 0 {
            plan = plan.fe_be_burst_loss(fe, be, SimTime::ZERO, ms(5_000), BurstLossParams::moderate());
        }
        let mut cfg = ServiceConfig::google_like(seed).with_faults(plan);
        if fetch_deadline_ms >= 200 {
            cfg = cfg.with_fe_fetch_deadline(SimDuration::from_millis(fetch_deadline_ms));
        }
        if with_model != 0 {
            cfg = cfg.with_load_model(LoadModel {
                fe_capacity: 2,
                be_capacity: 4,
                max_slowdown: 10.0,
            });
        }
        if watermark > 0 {
            cfg = cfg.with_admission_control(watermark);
        }
        // A client deadline is always armed: a blackholed peer
        // retransmits forever, so an unbounded client would never let
        // the world quiesce.
        cfg = cfg.with_client_retry(RetryPolicy {
            deadline: SimDuration::from_millis(3_000),
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
        let mut sim = small_world(cfg);
        sim.with(|w, net| {
            w.install_faults(net);
            w.prewarm(net, fe, be, 2);
            for c in 0..n_queries {
                w.schedule_query(
                    net,
                    SimDuration::from_millis(1 + stagger_ms * c as u64),
                    QuerySpec {
                        client: c,
                        keyword: c as u64,
                        fixed_fe: Some(fe),
                        instant_followup: false,
                    },
                );
            }
        });
        sim.run();
        let done = sim.with(|w, _| w.drain_completed());
        prop_assert_eq!(done.len(), n_queries);
        assert_slots_drained(&sim);
    }
}
