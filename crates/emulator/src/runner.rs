//! Simulation driving and per-query processing.

use crate::sessions::SessionFeeder;
use crate::sink::{observe_outcome, QuerySink};
use capture::{Classifier, Timeline, TimelineError};
use cdnsim::{CompletedQuery, QueryOutcome, ServiceWorld};
use inference::{QueryParams, SessionTally};
use searchbe::keywords::KeywordClass;
use simcore::span;
use simcore::telemetry::MetricsRegistry;
use simcore::time::SimTime;
use tcpsim::Sim;

/// One fully processed query: measurement-side parameters plus simulator
/// ground truth, with the raw packet trace already discarded.
#[derive(Clone, Debug)]
pub struct ProcessedQuery {
    /// Query id.
    pub qid: u64,
    /// Issuing client.
    pub client: usize,
    /// Serving FE (`None` without split TCP).
    pub fe: Option<usize>,
    /// Serving BE.
    pub be: usize,
    /// Keyword id.
    pub keyword: u64,
    /// Keyword class.
    pub class: KeywordClass,
    /// When the query started (ms of virtual time).
    pub t_start_ms: f64,
    /// The measured parameters (from the client-side timeline).
    pub params: QueryParams,
    /// Nominal client↔server RTT from the path model, ms (the
    /// measurement-side estimate lives in `params.rtt_ms`).
    pub rtt_nominal_ms: f64,
    /// Nominal FE↔BE RTT, ms.
    pub rtt_fe_be_ms: f64,
    /// FE↔BE distance, miles.
    pub dist_fe_be_miles: f64,
    /// Ground truth: BE processing time, ms.
    pub proc_ms: f64,
    /// Ground truth: FE request overhead, ms.
    pub fe_overhead_ms: f64,
    /// Ground truth: fetch interval, ms (None on FE cache hits or
    /// without split TCP).
    pub true_fetch_ms: Option<f64>,
    /// How the query ended (clean, degraded, retried, timed out).
    pub outcome: QueryOutcome,
}

/// Converts a completed query into a processed record by extracting its
/// client-side timeline with `classifier`. Fails with the extraction
/// error for sessions the classifier cannot decompose — callers decide
/// whether to skip-and-count or propagate.
pub fn process(
    cq: &CompletedQuery,
    classifier: &Classifier,
) -> Result<ProcessedQuery, TimelineError> {
    if !cq.traced {
        return Err(TimelineError::TracingDisabled);
    }
    let client_node = ServiceWorld::client_node(cq.client);
    let tl = Timeline::extract(&cq.trace, client_node, classifier)?;
    Ok(ProcessedQuery {
        qid: cq.qid,
        client: cq.client,
        fe: cq.fe,
        be: cq.be,
        keyword: cq.keyword,
        class: cq.class,
        t_start_ms: cq.t_start.as_millis_f64(),
        params: QueryParams::from_timeline(&tl),
        rtt_nominal_ms: cq.rtt_client_fe_ms,
        rtt_fe_be_ms: cq.rtt_fe_be_ms,
        dist_fe_be_miles: cq.dist_fe_be_miles,
        proc_ms: cq.proc_ms,
        fe_overhead_ms: cq.fe_overhead_ms,
        true_fetch_ms: cq.true_fetch_ms(),
        outcome: cq.outcome,
    })
}

/// Runs the simulation to quiescence, draining and processing completed
/// queries in time chunks (bounded memory regardless of campaign
/// length). Returns the processed queries in completion order, plus the
/// raw completions for callers that need traces (those are only the ones
/// from the final chunk — pass `keep_raw = true` to retain all).
pub fn run_collect(sim: &mut Sim<ServiceWorld>, classifier: &Classifier) -> Vec<ProcessedQuery> {
    run_collect_with(sim, classifier, |_| {})
}

/// [`run_collect`] that also returns the robustness tally: outcome
/// counts plus how many sessions were skipped because their timeline
/// could not be extracted. Fault-injection harnesses report this next to
/// their inference results so excluded data is visible, not silent.
pub fn run_collect_tally(
    sim: &mut Sim<ServiceWorld>,
    classifier: &Classifier,
) -> (Vec<ProcessedQuery>, SessionTally) {
    let run = run_stream(
        sim,
        classifier,
        crate::sink::FoldSink::new(Vec::new(), |v: &mut Vec<ProcessedQuery>, pq| {
            v.push(pq.clone())
        }),
    );
    (run.output, run.tally)
}

/// [`run_collect`] with a callback that sees every raw completion before
/// its trace is dropped — used by harnesses that also need packet-level
/// views (Fig. 4) or alternative classifiers.
pub fn run_collect_with(
    sim: &mut Sim<ServiceWorld>,
    classifier: &Classifier,
    on_raw: impl FnMut(&CompletedQuery),
) -> Vec<ProcessedQuery> {
    struct Legacy<F> {
        out: Vec<ProcessedQuery>,
        on_raw: F,
    }
    impl<F: FnMut(&CompletedQuery)> QuerySink for Legacy<F> {
        type Output = Vec<ProcessedQuery>;
        fn wants_raw(&self) -> bool {
            true
        }
        fn on_query(&mut self, pq: &ProcessedQuery) {
            self.out.push(pq.clone());
        }
        fn on_raw(&mut self, cq: CompletedQuery) {
            (self.on_raw)(&cq);
        }
        fn finish(self) -> Vec<ProcessedQuery> {
            self.out
        }
    }
    run_stream(
        sim,
        classifier,
        Legacy {
            out: Vec::new(),
            on_raw,
        },
    )
    .output
}

/// What [`run_stream`] produces next to the sink's own output.
#[derive(Clone, Debug)]
pub struct StreamRun<R> {
    /// The sink's reduction.
    pub output: R,
    /// Outcome and skip accounting for the run.
    pub tally: SessionTally,
    /// Largest [`QuerySink::retained_bytes`] observed across drain
    /// chunks — the memory the sink actually held onto at its peak.
    pub peak_retained_bytes: usize,
    /// High-water mark of the simulator's pending-event count — the
    /// session-slab memory proxy: with a [`SessionFeeder`] this tracks
    /// O(live sessions), not O(total queries).
    pub peak_pending_events: usize,
    /// The run's telemetry: the transport (`tcpsim.*`) and service
    /// (`cdnsim.*`) registries harvested at quiescence, merged with the
    /// runner's own classification counters (`capture.*`) and gauges
    /// (`emulator.*`).
    pub metrics: MetricsRegistry,
}

/// The streaming counterpart of [`run_collect`]: drives the simulation
/// to quiescence in time chunks and folds every completion into `sink`
/// the moment it drains — no `Vec<ProcessedQuery>` buffer, no trace
/// clone. Raw completions are moved into the sink only when it
/// [`wants_raw`](QuerySink::wants_raw); otherwise each trace is dropped
/// as soon as its timeline is extracted.
pub fn run_stream<S: QuerySink>(
    sim: &mut Sim<ServiceWorld>,
    classifier: &Classifier,
    sink: S,
) -> StreamRun<S::Output> {
    run_stream_fed(sim, classifier, sink, None)
}

/// Per-run accounting shared by the borrowed driver
/// ([`run_stream_fed`]) and the owning [`WorldStepper`]: both advance a
/// world through identical chunk iterations, so their outputs are
/// byte-identical by construction.
struct StepState {
    tally: SessionTally,
    processed: usize,
    peak: usize,
    peak_pending: usize,
    metrics: MetricsRegistry,
}

impl StepState {
    fn new(enabled: bool) -> StepState {
        StepState {
            tally: SessionTally::default(),
            processed: 0,
            peak: 0,
            peak_pending: 0,
            metrics: MetricsRegistry::with_enabled(enabled),
        }
    }
}

/// Advances one world by exactly one drain chunk: pick the deadline,
/// feed the chunk's sessions, run the simulator, fold completions into
/// the sink. Returns `true` once the world has quiesced (no pending
/// events and an exhausted feeder).
fn step_chunk<S: QuerySink>(
    sim: &mut Sim<ServiceWorld>,
    classifier: &Classifier,
    sink: &mut S,
    mut feeder: Option<&mut SessionFeeder>,
    st: &mut StepState,
) -> bool {
    let chunk = simcore::time::SimDuration::from_secs(60);
    let now = sim.net().now();
    // Chunked stepping with a skip: `run_until` leaves `now` at
    // the last processed event, so if the earliest pending
    // event lies beyond the chunk (a hedge timer, fault window,
    // or a session arriving after a lull), fixed-size chunks
    // would never reach it and this loop would spin forever.
    let mut deadline = now + chunk;
    let mut next_signal = sim.net().next_event_time();
    if let Some(f) = feeder.as_deref_mut() {
        next_signal = match (next_signal, f.next_start()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }
    if let Some(t) = next_signal {
        if t > deadline {
            deadline = t;
        }
    }
    // Materialise this chunk's sessions before driving it. The
    // feeder's draw order depends only on session order, never
    // on chunk boundaries, so the schedule is byte-identical at
    // any thread count or chunk size.
    if let Some(f) = feeder.as_deref_mut() {
        f.feed(sim, deadline);
        st.peak_pending = st.peak_pending.max(sim.net().pending_events());
    }
    sim.run_until(deadline);
    let done = sim.with(|w, _| w.drain_completed());
    for cq in done {
        observe_outcome(&mut st.tally, cq.outcome);
        let pq = match process(&cq, classifier) {
            Ok(pq) => {
                st.metrics.inc("capture.timeline_ok");
                Some(pq)
            }
            Err(e) => {
                st.metrics.inc(e.metric_name());
                None
            }
        };
        if sink.wants_raw() {
            sink.on_raw(cq);
        }
        if let Some(pq) = pq {
            sink.on_query(&pq);
            st.processed += 1;
        }
    }
    st.peak = st.peak.max(sink.retained_bytes());
    sim.net().pending_events() == 0 && feeder.as_deref().is_none_or(|f| f.exhausted())
}

/// Harvests the component registries at quiescence and assembles the
/// run's result. Shared quiescence tail of both drivers.
fn finish_stream<S: QuerySink>(
    sim: &mut Sim<ServiceWorld>,
    sink: S,
    fed: bool,
    mut st: StepState,
) -> StreamRun<S::Output> {
    st.tally.skipped = st.tally.total() - st.processed;
    // Sink memory is a deterministic gauge: buffer growth depends only
    // on the simulated completion stream.
    st.metrics
        .set_gauge("emulator.sink_retained_bytes", st.peak as f64);
    if fed {
        // Only meaningful (and only emitted) in fed mode, so unfed
        // metrics documents are unchanged.
        st.metrics
            .set_gauge("emulator.pending_events_hiwater", st.peak_pending as f64);
    }
    let net_metrics = sim.net().take_metrics();
    st.metrics.merge(&net_metrics);
    let world_metrics = sim.with(|w, _| w.take_metrics());
    st.metrics.merge(&world_metrics);
    StreamRun {
        output: sink.finish(),
        tally: st.tally,
        peak_retained_bytes: st.peak,
        peak_pending_events: st.peak_pending,
        metrics: st.metrics,
    }
}

/// [`run_stream`] with an optional [`SessionFeeder`]: sessions are
/// materialised one time chunk ahead of the simulation clock, so the
/// event queue holds only live sessions — the footprint of a
/// 10^6-session campaign is that of its busiest chunk, not of the whole
/// schedule. Without a feeder this is exactly [`run_stream`].
pub fn run_stream_fed<S: QuerySink>(
    sim: &mut Sim<ServiceWorld>,
    classifier: &Classifier,
    mut sink: S,
    mut feeder: Option<&mut SessionFeeder>,
) -> StreamRun<S::Output> {
    let fed = feeder.is_some();
    // The runner's own registry inherits the gate of the simulator it
    // drives, so a per-run override set on the Net covers the whole
    // metrics document.
    let mut st = StepState::new(sim.net().metrics().is_enabled());
    span!(
        st.metrics,
        "runner.drive_wall_ms",
        loop {
            if step_chunk(sim, classifier, &mut sink, feeder.as_deref_mut(), &mut st) {
                break;
            }
        }
    );
    finish_stream(sim, sink, fed, st)
}

/// An owning, resumable world execution: the same chunk loop as
/// [`run_stream_fed`], but surfaced one [`WorldStepper::step`] at a
/// time so a worker can interleave K independent worlds in short
/// virtual-time slices (cache-warm multi-world batching — see
/// [`crate::Campaign::execute_stream_batched_with_threads`]).
///
/// Every step is exactly one [`run_stream_fed`] chunk iteration, so a
/// batched run's sink output, tally and deterministic metrics are
/// byte-identical to the serial driver's; only wall-clock rows (which
/// are never byte-compared) can differ.
pub struct WorldStepper<S: QuerySink> {
    sim: Sim<ServiceWorld>,
    classifier: Classifier,
    sink: Option<S>,
    feeder: Option<SessionFeeder>,
    fed: bool,
    st: StepState,
    wall_ms: f64,
    done: bool,
}

impl<S: QuerySink> WorldStepper<S> {
    /// Wraps a freshly built (and scheduled) world. Pass the feeder for
    /// session-slab designs; everything else pre-schedules into `sim`.
    pub fn new(
        sim: Sim<ServiceWorld>,
        classifier: Classifier,
        sink: S,
        feeder: Option<SessionFeeder>,
    ) -> WorldStepper<S> {
        let mut sim = sim;
        let enabled = sim.net().metrics().is_enabled();
        WorldStepper {
            sim,
            classifier,
            sink: Some(sink),
            fed: feeder.is_some(),
            feeder,
            st: StepState::new(enabled),
            wall_ms: 0.0,
            done: false,
        }
    }

    /// True once the world has quiesced; further steps are no-ops.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Advances the world by one drain chunk. Returns `true` once the
    /// world has quiesced.
    pub fn step(&mut self) -> bool {
        if self.done {
            return true;
        }
        let t0 = std::time::Instant::now();
        let sink = self.sink.as_mut().expect("stepper already finished");
        self.done = step_chunk(
            &mut self.sim,
            &self.classifier,
            sink,
            self.feeder.as_mut(),
            &mut self.st,
        );
        self.wall_ms += t0.elapsed().as_secs_f64() * 1e3;
        self.done
    }

    /// Runs any remaining chunks, then harvests the run. The drive-time
    /// span covers the summed wall time of every step, mirroring the
    /// single span [`run_stream_fed`] records.
    pub fn finish(mut self) -> StreamRun<S::Output> {
        while !self.done {
            self.step();
        }
        self.st
            .metrics
            .observe_wall_ms("runner.drive_wall_ms", self.wall_ms);
        let sink = self.sink.take().expect("stepper already finished");
        finish_stream(&mut self.sim, sink, self.fed, self.st)
    }
}

/// Like [`run_collect`] but only runs until `deadline`, for
/// warm-up phases.
pub fn run_until(sim: &mut Sim<ServiceWorld>, deadline: SimTime) {
    sim.run_until(deadline);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::Scenario;
    use cdnsim::QuerySpec;
    use simcore::time::SimDuration;

    #[test]
    fn processed_queries_carry_consistent_params() {
        let s = Scenario::small(5);
        let mut sim = s.google_sim();
        for c in 0..5 {
            sim.with(|w, net| {
                w.schedule_query(
                    net,
                    SimDuration::from_millis(1 + c as u64 * 500),
                    QuerySpec {
                        client: c,
                        keyword: c as u64,
                        fixed_fe: None,
                        instant_followup: false,
                    },
                );
            });
        }
        let out = run_collect(&mut sim, &Classifier::ByMarker);
        assert_eq!(out.len(), 5);
        for pq in &out {
            assert!(pq.params.is_consistent(0.5), "{:?}", pq.params);
            // The handshake RTT estimate should track the nominal path
            // RTT (jitter allows small deviation).
            assert!(
                (pq.params.rtt_ms - pq.rtt_nominal_ms).abs() < 8.0,
                "est {} vs nominal {}",
                pq.params.rtt_ms,
                pq.rtt_nominal_ms
            );
            // The fetch bracket must contain the true fetch time.
            let bounds = inference::FetchBounds::from_params(&pq.params);
            let truth = pq.true_fetch_ms.unwrap();
            assert!(
                bounds.contains(truth, 12.0),
                "bracket [{}, {}] vs truth {}",
                bounds.lower_ms,
                bounds.upper_ms,
                truth
            );
        }
    }

    #[test]
    fn raw_callback_sees_traces() {
        let s = Scenario::small(6);
        let mut sim = s.bing_sim();
        sim.with(|w, net| {
            w.schedule_query(
                net,
                SimDuration::from_millis(1),
                QuerySpec {
                    client: 0,
                    keyword: 1,
                    fixed_fe: None,
                    instant_followup: false,
                },
            );
        });
        let mut raw_count = 0;
        let out = run_collect_with(&mut sim, &Classifier::ByMarker, |cq| {
            raw_count += 1;
            assert!(!cq.trace.is_empty());
        });
        assert_eq!(raw_count, 1);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn tally_counts_degraded_sessions_as_skipped() {
        // Every BE site dark for the whole run: all queries degrade, and
        // their stub responses carry no dynamic content, so timeline
        // extraction must skip them — visibly, in the tally.
        let s = Scenario::small(8);
        let mut plan = nettopo::FaultPlan::default();
        for be in 0..64 {
            plan = plan.be_outage(be, SimTime::ZERO, SimTime::from_millis(600_000));
        }
        let cfg = cdnsim::ServiceConfig::google_like(8)
            .with_faults(plan)
            .with_fe_fetch_deadline(SimDuration::from_millis(800));
        let mut sim = s.build_sim(cfg);
        for c in 0..4 {
            sim.with(|w, net| {
                w.schedule_query(
                    net,
                    SimDuration::from_millis(1 + c as u64 * 300),
                    QuerySpec {
                        client: c,
                        keyword: c as u64,
                        fixed_fe: None,
                        instant_followup: false,
                    },
                );
            });
        }
        let (out, tally) = run_collect_tally(&mut sim, &Classifier::ByMarker);
        assert_eq!(tally.degraded, 4);
        assert_eq!(tally.total(), 4);
        assert_eq!(tally.skipped, 4, "degraded stubs must not be inferable");
        assert!(out.is_empty());
        assert_eq!(tally.usable_fraction(), 0.0);
    }

    #[test]
    fn untraced_queries_yield_a_typed_error_not_an_empty_timeline() {
        // Tracing off is a harness misconfiguration, not a session with
        // no packets: processing must fail with the dedicated variant
        // (and the tally must count the query as skipped), never succeed
        // against a vacuously empty trace.
        let s = Scenario::small(4);
        let mut sim = s.google_sim();
        sim.net().trace_mut().set_capture(tcpsim::Capture::Off);
        sim.with(|w, net| {
            w.schedule_query(
                net,
                SimDuration::from_millis(1),
                QuerySpec {
                    client: 0,
                    keyword: 1,
                    fixed_fe: None,
                    instant_followup: false,
                },
            );
        });
        let mut raw = Vec::new();
        let (out, tally) = {
            let mut tally = inference::SessionTally::default();
            let out = run_collect_with(&mut sim, &Classifier::ByMarker, |cq| {
                tally.ok += 1;
                raw.push(cq.clone());
            });
            tally.skipped = tally.total() - out.len();
            (out, tally)
        };
        assert!(out.is_empty());
        assert_eq!(tally.skipped, 1);
        assert_eq!(raw.len(), 1);
        assert!(!raw[0].traced);
        assert!(raw[0].trace.is_empty());
        assert_eq!(
            process(&raw[0], &Classifier::ByMarker).unwrap_err(),
            TimelineError::TracingDisabled
        );
    }

    #[test]
    fn tally_is_clean_without_faults() {
        let s = Scenario::small(9);
        let mut sim = s.google_sim();
        for c in 0..3 {
            sim.with(|w, net| {
                w.schedule_query(
                    net,
                    SimDuration::from_millis(1 + c as u64 * 400),
                    QuerySpec {
                        client: c,
                        keyword: c as u64,
                        fixed_fe: None,
                        instant_followup: false,
                    },
                );
            });
        }
        let (out, tally) = run_collect_tally(&mut sim, &Classifier::ByMarker);
        assert_eq!(out.len(), 3);
        assert_eq!(tally.ok, 3);
        assert_eq!(tally.skipped, 0);
        assert_eq!(tally.usable_fraction(), 1.0);
        assert!(out.iter().all(|pq| pq.outcome == QueryOutcome::Ok));
    }

    #[test]
    fn long_campaign_runs_in_bounded_memory() {
        // 3 clients × 20 repeats across 200 virtual seconds; the runner
        // must drain between chunks (we can't observe memory directly,
        // but we verify all queries complete across many chunks).
        let s = Scenario::small(7);
        let mut sim = s.google_sim();
        for c in 0..3 {
            for r in 0..20u64 {
                sim.with(|w, net| {
                    w.schedule_query(
                        net,
                        SimDuration::from_millis(1 + r * 10_000 + c as u64 * 100),
                        QuerySpec {
                            client: c,
                            keyword: r,
                            fixed_fe: None,
                            instant_followup: false,
                        },
                    );
                });
            }
        }
        let out = run_collect(&mut sim, &Classifier::ByMarker);
        assert_eq!(out.len(), 60);
    }
}
