//! The benchmark's own tests: the traced loop must be the campaign
//! runner, call for call, and the input generators must stay inside the
//! scenario they target.

use super::*;
use crate::digest::Fnv;
use emulator::SessionFeeder;
use simcore::rng::Rng;
use workloads::{churn_workload, crowd, ALL};

fn events(regs: impl Iterator<Item = MetricsRegistry>) -> f64 {
    gauge_sum(&regs.collect::<Vec<_>>(), "tcpsim.events_processed")
}

#[test]
fn traced_loop_reproduces_the_campaign_runner() {
    for w in ALL {
        let built = w.build(3, Size::Small);
        let (_, report) = untraced(&built.campaign, w.threads());
        let want = CampaignDigest::of_report(&report);
        let got = traced::run(&built.campaign);
        assert_eq!(got.digest, want, "{}: digest or tallies differ", w.name());
        assert_eq!(want.completed, built.scheduled, "{}", w.name());
        assert!(want.processed > 0, "{}", w.name());
        let want_events = events(report.runs.iter().map(|r| r.metrics.clone()));
        assert!(want_events > 0.0);
        assert_eq!(
            events(got.registries.iter().cloned()),
            want_events,
            "{}: tcpsim.events differ",
            w.name()
        );
    }
}

#[test]
fn flash_remap_merges_identically_at_one_and_two_workers() {
    let built = Workload::FlashRemap.build(5, Size::Small);
    let (_, one) = untraced(&built.campaign, 1);
    let (_, two) = untraced(&built.campaign, 2);
    assert_eq!(
        CampaignDigest::of_report(&one),
        CampaignDigest::of_report(&two)
    );
}

#[test]
fn self_times_partition_the_traced_wall() {
    let built = Workload::ChurnSessions.build(4, Size::Small);
    let t = traced::run(&built.campaign);
    let total: f64 = t.log.self_seconds().iter().sum();
    assert!((total - t.wall_s).abs() < 1e-6, "{total} vs {}", t.wall_s);
    // Every span closes inside its parent, and there is one extraction
    // span per completed query.
    let spans = t.log.spans();
    for s in spans {
        assert!(s.end_ns >= s.start_ns);
        if let Some(p) = spans.get(s.parent as usize) {
            assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
        }
    }
    let extracts = spans
        .iter()
        .filter(|s| s.call == traced::Call::Extract)
        .count();
    assert_eq!(extracts, t.digest.completed);
}

#[test]
fn digest_covers_every_query_parameter() {
    let mut a = Fnv::new();
    let mut b = Fnv::new();
    a.u64(1.0f64.to_bits());
    b.u64(1.000_000_000_000_000_2f64.to_bits());
    assert_ne!(a.finish(), b.finish());
    // Order matters: the digest pins completion order.
    let (mut x, mut y) = (Fnv::new(), Fnv::new());
    x.u64(1);
    x.u64(2);
    y.u64(2);
    y.u64(1);
    assert_ne!(x.finish(), y.finish());
}

#[test]
fn crowd_generator_stays_inside_the_scenario() {
    for seed in 0..300u64 {
        let mut rng = Rng::from_seed_and_name(seed, "bench_e2e/test");
        let clients = 1 + rng.next_below(300) as usize;
        let corpus = 1 + rng.next_below(50_000) as usize;
        let hot: Vec<Vec<usize>> = (0..rng.next_below(5))
            .map(|_| {
                (0..1 + rng.next_below(8))
                    .map(|_| rng.next_below(clients as u64) as usize)
                    .collect()
            })
            .collect();
        let n = 1 + rng.next_below(400) as usize;
        let qs = crowd(seed, n, 1 + rng.next_below(50_000), &hot, clients, corpus);
        assert_eq!(qs.len(), n);
        for q in &qs {
            assert!(q.client < clients, "seed {seed}: client {}", q.client);
            assert!(
                (q.keyword as usize) < corpus,
                "seed {seed}: kw {}",
                q.keyword
            );
        }
        assert!(qs.windows(2).all(|p| p[0].at < p[1].at));
    }
}

#[test]
fn session_generator_stays_inside_the_scenario() {
    for seed in 0..200u64 {
        let mut rng = Rng::from_seed_and_name(seed, "bench_e2e/test");
        let clients = 1 + rng.next_below(300) as usize;
        let catalog = 1 + rng.next_below(40_000) as usize;
        let mut f = SessionFeeder::new(churn_workload(300), seed, clients, catalog);
        let mut queries = 0;
        while let Some(plan) = f.next_session() {
            assert!(plan.client < clients, "seed {seed}: client {}", plan.client);
            assert!(
                plan.keywords.iter().all(|&k| (k as usize) < catalog),
                "seed {seed}: keyword beyond a {catalog}-keyword catalog"
            );
            queries += plan.keywords.len();
        }
        assert_eq!(queries as u64, churn_workload(300).total_queries());
    }
}

#[test]
fn built_workloads_schedule_inside_their_scenario() {
    // Building and running every small workload on several seeds drives
    // the in-world generators (fixed-FE pick, hot-region pick) through
    // `ServiceWorld::schedule_query`, which indexes the corpus and the
    // vantage list directly; full accounting means none was dropped.
    for seed in [1u64, 2, 42, 1_000_003] {
        for w in ALL {
            let built = w.build(seed, Size::Small);
            let (_, report) = untraced(&built.campaign, 1);
            let d = CampaignDigest::of_report(&report);
            assert_eq!(d.completed, built.scheduled, "{} seed {seed}", w.name());
        }
    }
}

#[test]
fn sample_statistics() {
    assert_eq!(least(&[3.0, 1.5, 2.0]), 1.5);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn workload_names_round_trip() {
    for w in ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    assert_eq!(Workload::parse("fig5"), None);
}
