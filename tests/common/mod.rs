//! Helpers shared by the integration suites: the representative
//! campaign, raw-retaining execution, an overloading burst design, and
//! the golden-file comparison protocol.

#![allow(dead_code)] // each test binary uses its own subset

use cdnsim::{QuerySpec, ServiceConfig};
use emulator::dataset_a::{DatasetA, KeywordPolicy};
use emulator::dataset_b::DatasetB;
use emulator::{Campaign, CollectSink, Collected, Design, RunDescriptor, Scenario, StreamReport};
use simcore::time::SimDuration;
use std::path::PathBuf;

/// A small campaign touching every design family: both stock dataset
/// designs, both service archetypes and a custom closure design.
pub fn representative_campaign(seed: u64) -> Campaign {
    representative_campaign_with(seed, |cfg| cfg)
}

/// [`representative_campaign`] with an explicit per-run telemetry
/// override, so conformance tests are independent of the ambient
/// `FECDN_METRICS` value.
pub fn representative_campaign_with_metrics(seed: u64, metrics: Option<bool>) -> Campaign {
    let mut c = representative_campaign(seed);
    for d in c.descriptors_mut() {
        d.metrics = metrics;
    }
    c
}

/// [`representative_campaign`] with `cfg` applied to every run's
/// service configuration — the invariance suites attach subsystems
/// that must not change the committed golden.
pub fn representative_campaign_with(
    seed: u64,
    cfg: impl Fn(ServiceConfig) -> ServiceConfig,
) -> Campaign {
    let mut c = Campaign::new(Scenario::small(seed));
    c.push(
        "a/bing",
        cfg(ServiceConfig::bing_like(seed)),
        Design::DatasetA(DatasetA {
            repeats: 2,
            spacing: SimDuration::from_secs(8),
            keywords: KeywordPolicy::Fixed(0),
        }),
    );
    c.push(
        "a/google",
        cfg(ServiceConfig::google_like(seed)),
        Design::DatasetA(DatasetA {
            repeats: 2,
            spacing: SimDuration::from_secs(8),
            keywords: KeywordPolicy::RoundRobin(5),
        }),
    );
    c.push(
        "b/fixed-fe",
        cfg(ServiceConfig::google_like(seed)),
        Design::DatasetB(DatasetB::against(0).with_repeats(3)),
    );
    c.push(
        "custom/close-pair",
        cfg(ServiceConfig::bing_like(seed)),
        Design::custom(|sim| {
            sim.with(|w, net| {
                let fe = w.default_fe(0);
                let be = w.be_of_fe(fe);
                w.prewarm(net, fe, be, 2);
                for r in 0..4u64 {
                    w.schedule_query(
                        net,
                        SimDuration::from_millis(1_000 + r * 7_000),
                        QuerySpec {
                            client: 0,
                            keyword: r,
                            fixed_fe: Some(fe),
                            instant_followup: false,
                        },
                    );
                }
            });
        }),
    );
    c
}

/// Executes `c` on `threads` workers with every run retaining its raw
/// completions (packet traces included) next to its processed queries.
pub fn execute_raw(c: &Campaign, threads: usize) -> StreamReport<Collected> {
    c.execute_stream_with_threads(&|_: &RunDescriptor| CollectSink::with_raw(true), threads)
}

/// One scheduled burst: `n` clients fire at t = 1 ms, half pinned to
/// client 0's default FE so admission control and the load model see
/// real contention.
pub fn burst_design(n: usize) -> Design {
    Design::custom(move |sim| {
        sim.with(|w, net| {
            let fe = w.default_fe(0);
            for client in 0..n {
                w.schedule_query(
                    net,
                    SimDuration::from_millis(1 + (client as u64 % 3) * 40),
                    QuerySpec {
                        client,
                        keyword: client as u64,
                        fixed_fe: if client % 2 == 0 { Some(fe) } else { None },
                        instant_followup: false,
                    },
                );
            }
        });
    })
}

/// Path of a committed golden file.
pub fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `got` against the committed golden `name`, honoring
/// `UPDATE_GOLDEN` and pointing at the first divergent line on
/// mismatch (a full assert_eq! dump of two multi-KB TSVs is
/// unreadable). `context` names the configuration under test so a
/// failure says which variant diverged.
pub fn compare_golden(got: &str, name: &str, context: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, got).unwrap();
        eprintln!("rewrote {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run scripts/update_golden.sh",
            path.display()
        )
    });
    if got != want {
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(
                g,
                w,
                "golden {} diverges at line {} under {} (intentional change? run scripts/update_golden.sh)",
                name,
                i + 1,
                context,
            );
        }
        panic!(
            "golden {name} length changed under {context}: {} vs {} lines; run scripts/update_golden.sh if intentional",
            got.lines().count(),
            want.lines().count()
        );
    }
}
