//! Campaign determinism: the sharded runner must be a pure
//! reordering of the serial runner.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Thread invariance** — a campaign's merged output is
//!    byte-identical whether it runs on one worker or many. Each run
//!    descriptor owns a whole simulated world and a seed derived only
//!    from `(campaign seed, label)`, so scheduling order can never leak
//!    into results.
//! 2. **Golden traces** — the exact TSV of a small representative
//!    campaign is committed under `tests/golden/`. Any change to the
//!    simulator core, the world construction, the seed derivation or
//!    the TSV formatting shows up as a diff here, reviewable in the PR
//!    that caused it. Refresh intentionally with
//!    `scripts/update_golden.sh`.

mod common;

use common::{compare_golden, execute_raw, representative_campaign};
use emulator::{FoldSink, ProcessedQuery, RunDescriptor, TsvRows};
use stats::{QuantileAcc, Welford};

#[test]
fn campaign_output_is_thread_invariant() {
    let c = representative_campaign(42);
    let serial = execute_raw(&c, 1);
    let sharded = execute_raw(&c, 4);
    assert_eq!(serial.threads, 1);
    assert_eq!(sharded.threads, 4.min(c.len()).max(1));
    assert_eq!(
        serial.to_tsv(),
        sharded.to_tsv(),
        "merged TSV must be byte-identical at 1 and 4 workers"
    );
    // Raw captures merge identically too (same traces, same order).
    let a = &serial.output("custom/close-pair").raw;
    let b = &sharded.output("custom/close-pair").raw;
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.trace.len(), y.trace.len());
        assert_eq!(x.client, y.client);
    }
}

#[test]
fn streaming_sink_is_thread_invariant_and_matches_collect_path() {
    let c = representative_campaign(42);
    let rows = |d: &RunDescriptor| TsvRows::new(&d.label);
    let stream1 = c.execute_stream_with_threads(&rows, 1);
    let stream4 = c.execute_stream_with_threads(&rows, 4);

    // The streamed TSV is byte-identical at any worker count AND to the
    // collect-then-format path (which the golden traces pin).
    let collected = c.execute_with_threads(4).to_tsv();
    assert_eq!(
        stream1.to_tsv(),
        collected,
        "streamed TSV at 1 worker must match the collect path"
    );
    assert_eq!(
        stream4.to_tsv(),
        collected,
        "streamed TSV at 4 workers must match the collect path"
    );

    // Reducer state is bit-identical across thread counts too: each run
    // folds single-threaded in its own shard, so online accumulators
    // see the same values in the same order regardless of scheduling.
    let reducers = |_: &RunDescriptor| {
        FoldSink::new(
            (Welford::new(), QuantileAcc::exact()),
            |s: &mut (Welford, QuantileAcc), q: &ProcessedQuery| {
                s.0.push(q.params.overall_ms);
                s.1.push(q.params.overall_ms);
            },
        )
    };
    let r1 = c.execute_stream_with_threads(&reducers, 1);
    let r4 = c.execute_stream_with_threads(&reducers, 4);
    assert_eq!(r1.runs.len(), r4.runs.len());
    for (a, b) in r1.runs.iter().zip(r4.runs.iter()) {
        assert_eq!(a.label, b.label, "merge must preserve descriptor order");
        let ((wa, qa), (wb, qb)) = (&a.output, &b.output);
        assert_eq!(wa.count(), wb.count());
        assert_eq!(
            wa.mean().map(f64::to_bits),
            wb.mean().map(f64::to_bits),
            "run {}: Welford mean must be bit-identical",
            a.label
        );
        assert_eq!(
            wa.variance().map(f64::to_bits),
            wb.variance().map(f64::to_bits),
            "run {}: Welford variance must be bit-identical",
            a.label
        );
        let (va, vb) = (qa.values().unwrap(), qb.values().unwrap());
        assert_eq!(va.len(), vb.len());
        assert!(
            va.iter()
                .zip(vb.iter())
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "run {}: exact quantile sample must be bit-identical",
            a.label
        );
    }
}

#[test]
fn campaign_output_is_oversubscription_invariant() {
    // More workers than runs: excess threads must be clamped away, not
    // spin on an empty queue or change the merge.
    let c = representative_campaign(7);
    assert_eq!(
        c.execute_with_threads(2).to_tsv(),
        c.execute_with_threads(64).to_tsv()
    );
}

fn check_golden(seed: u64, name: &str) {
    let got = representative_campaign(seed)
        .execute_with_threads(4)
        .to_tsv();
    compare_golden(&got, name, "telemetry default");
}

#[test]
fn golden_trace_seed42_matches() {
    check_golden(42, "campaign_seed42.tsv");
}

#[test]
fn golden_trace_seed7_matches() {
    check_golden(7, "campaign_seed7.tsv");
}
