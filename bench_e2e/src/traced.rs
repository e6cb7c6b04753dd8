//! The traced run: the benchmark drives every world itself, through the
//! same public calls `Campaign::execute_stream_with_threads` makes, and
//! records a span around each call into a layer.
//!
//! Spans stay in memory until the run ends. Each names its layer call,
//! its start and end (ns since the run's epoch), its parent span, the
//! run it belongs to and a key: the chunk index for chunk-level calls,
//! the query id for per-query calls. A span's self time is its duration
//! minus its children's (children never overlap: the traced loop is serial),
//! so the self times of all spans sum to the root span, the traced wall.

use crate::digest::{CampaignDigest, DigestSink, RunDigest};
use capture::{Timeline, TimelineError};
use cdnsim::ServiceWorld;
use emulator::sink::observe_outcome;
use emulator::{Campaign, Design, MetricsRegistry, ProcessedQuery, QuerySink, SessionFeeder};
use inference::{QueryParams, SessionTally};
use simcore::time::SimDuration;
use std::io::Write;
use std::time::Instant;

/// A span's name: one layer call, or one of the traced loop's own levels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// The whole traced campaign (root).
    Campaign,
    /// One run descriptor, build to harvest.
    Run,
    /// One drain chunk of a run.
    Chunk,
    /// `Scenario::spec(..).build()`.
    Build,
    /// `Design::schedule`.
    Schedule,
    /// `SessionFeeder::feed`.
    Feed,
    /// `Sim::run_until`.
    RunUntil,
    /// `ServiceWorld::drain_completed`.
    Drain,
    /// `capture::Timeline::extract`.
    Extract,
    /// `inference::QueryParams::from_timeline`.
    Params,
    /// Dropping a completion and its packet trace.
    TraceDrop,
    /// `QuerySink::on_query`.
    Sink,
    /// `take_metrics` on both layers, `QuerySink::finish`, registry merge.
    Harvest,
}

impl Call {
    /// Every call, in declaration order.
    pub const ALL: [Call; 13] = [
        Call::Campaign,
        Call::Run,
        Call::Chunk,
        Call::Build,
        Call::Schedule,
        Call::Feed,
        Call::RunUntil,
        Call::Drain,
        Call::Extract,
        Call::Params,
        Call::TraceDrop,
        Call::Sink,
        Call::Harvest,
    ];

    /// The span name as written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Call::Campaign => "emulator.campaign",
            Call::Run => "emulator.run",
            Call::Chunk => "emulator.chunk",
            Call::Build => "cdnsim.build",
            Call::Schedule => "emulator.schedule",
            Call::Feed => "emulator.feed",
            Call::RunUntil => "tcpsim.run_until",
            Call::Drain => "cdnsim.drain",
            Call::Extract => "capture.extract",
            Call::Params => "inference.params",
            Call::TraceDrop => "tcpsim.trace_drop",
            Call::Sink => "emulator.sink",
            Call::Harvest => "emulator.harvest",
        }
    }

    /// The traced loop's own levels: their self time is what no layer call
    /// covers (loop bookkeeping, tallying, span recording).
    pub fn is_loop_level(self) -> bool {
        matches!(self, Call::Campaign | Call::Run | Call::Chunk)
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The call it times.
    pub call: Call,
    /// Index of the parent span, or `u32::MAX` for the root.
    pub parent: u32,
    /// Index of the run (descriptor order).
    pub run: u32,
    /// Chunk index or query id.
    pub key: u64,
    /// Start, ns since the log's epoch.
    pub start_ns: u64,
    /// End, ns since the log's epoch.
    pub end_ns: u64,
}

/// In-memory span storage.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, call: Call, parent: u32, run: u32, key: u64) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            call,
            parent,
            run,
            key,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, id: u32) {
        let end = self.now();
        self.spans[id as usize].end_ns = end;
    }

    fn time<R>(&mut self, call: Call, parent: u32, run: u32, key: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(call, parent, run, key);
        let r = f();
        self.close(id);
        r
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per call, seconds, indexed by `Call as usize` (the
    /// order of [`Call::ALL`]).
    pub fn self_seconds(&self) -> [f64; Call::ALL.len()] {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = [0.0; Call::ALL.len()];
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            out[s.call as usize] += (s.end_ns - s.start_ns - c) as f64 * 1e-9;
        }
        out
    }

    /// Writes the spans as TSV: `id parent name run key start_ns end_ns`.
    pub fn write_tsv(&self, labels: &[String], w: &mut impl Write) -> std::io::Result<()> {
        writeln!(w, "id\tparent\tname\trun\tkey\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.call.name(),
                labels[s.run as usize],
                s.key,
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Everything the traced run produces.
pub struct TracedRun {
    /// The campaign digest (must equal the untraced one).
    pub digest: CampaignDigest,
    /// Each run's telemetry registry, descriptor order.
    pub registries: Vec<MetricsRegistry>,
    /// Per-run high-water mark of pending events (fed runs only).
    pub pending_hiwater: usize,
    /// Largest sink-retained byte count sampled.
    pub sink_retained_bytes: usize,
    /// Root span duration, seconds.
    pub wall_s: f64,
    /// The spans.
    pub log: SpanLog,
    /// Run labels, descriptor order (span `run` indexes these).
    pub labels: Vec<String>,
}

/// Drives `campaign` serially through the layer calls, timing each.
pub fn run(campaign: &Campaign) -> TracedRun {
    let mut log = SpanLog::new();
    let root = log.open(Call::Campaign, NO_PARENT, 0, 0);
    let mut digests = Vec::new();
    let mut tallies = Vec::new();
    let mut registries = Vec::new();
    let mut pending_hiwater = 0;
    let mut sink_retained_bytes = 0;
    for (i, d) in campaign.descriptors().iter().enumerate() {
        let run_idx = i as u32;
        let run_span = log.open(Call::Run, root, run_idx, 0);
        let mut sim = log.time(Call::Build, run_span, run_idx, 0, || {
            campaign.scenario().spec(d.cfg.clone(), d.seed).build()
        });
        if let Some(on) = d.metrics {
            sim.net().metrics_mut().set_enabled(on);
            sim.with(|w, _| w.metrics_mut().set_enabled(on));
        }
        let mut feeder = match &d.design {
            Design::Sessions(w) => {
                let (n_clients, catalog) =
                    sim.with(|world, _| (world.clients().len(), world.corpus().len()));
                Some(SessionFeeder::new(w.clone(), d.seed, n_clients, catalog))
            }
            design => {
                log.time(Call::Schedule, run_span, run_idx, 0, || {
                    design.schedule(&mut sim)
                });
                None
            }
        };
        let mut sink = DigestSink::new(&d.label);
        let mut tally = SessionTally::default();
        let mut metrics = MetricsRegistry::with_enabled(sim.net().metrics().is_enabled());
        let mut processed = 0usize;
        let mut peak_retained = 0usize;
        let mut peak_pending = 0usize;
        let chunk_len = SimDuration::from_secs(60);
        let mut chunk = 0u64;
        loop {
            let chunk_span = log.open(Call::Chunk, run_span, run_idx, chunk);
            // The runner's deadline rule: one chunk ahead, or straight to
            // the next pending event or session when that lies beyond.
            let mut deadline = sim.net().now() + chunk_len;
            let mut next_signal = sim.net().next_event_time();
            if let Some(f) = feeder.as_ref() {
                next_signal = match (next_signal, f.next_start()) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            }
            if let Some(t) = next_signal {
                deadline = deadline.max(t);
            }
            if let Some(f) = feeder.as_mut() {
                log.time(Call::Feed, chunk_span, run_idx, chunk, || {
                    f.feed(&mut sim, deadline)
                });
                peak_pending = peak_pending.max(sim.net().pending_events());
            }
            log.time(Call::RunUntil, chunk_span, run_idx, chunk, || {
                sim.run_until(deadline)
            });
            let done = log.time(Call::Drain, chunk_span, run_idx, chunk, || {
                sim.with(|w, _| w.drain_completed())
            });
            for cq in done {
                observe_outcome(&mut tally, cq.outcome);
                let qid = cq.qid;
                let extracted = if cq.traced {
                    let node = ServiceWorld::client_node(cq.client);
                    log.time(Call::Extract, chunk_span, run_idx, qid, || {
                        Timeline::extract(&cq.trace, node, &d.classifier)
                    })
                } else {
                    Err(TimelineError::TracingDisabled)
                };
                let pq = match extracted {
                    Ok(tl) => {
                        metrics.inc("capture.timeline_ok");
                        let params = log.time(Call::Params, chunk_span, run_idx, qid, || {
                            QueryParams::from_timeline(&tl)
                        });
                        Some(ProcessedQuery {
                            qid: cq.qid,
                            client: cq.client,
                            fe: cq.fe,
                            be: cq.be,
                            keyword: cq.keyword,
                            class: cq.class,
                            t_start_ms: cq.t_start.as_millis_f64(),
                            params,
                            rtt_nominal_ms: cq.rtt_client_fe_ms,
                            rtt_fe_be_ms: cq.rtt_fe_be_ms,
                            dist_fe_be_miles: cq.dist_fe_be_miles,
                            proc_ms: cq.proc_ms,
                            fe_overhead_ms: cq.fe_overhead_ms,
                            true_fetch_ms: cq.true_fetch_ms(),
                            outcome: cq.outcome,
                        })
                    }
                    Err(e) => {
                        metrics.inc(e.metric_name());
                        None
                    }
                };
                log.time(Call::TraceDrop, chunk_span, run_idx, qid, || drop(cq));
                if let Some(pq) = pq {
                    log.time(Call::Sink, chunk_span, run_idx, qid, || sink.on_query(&pq));
                    processed += 1;
                }
            }
            peak_retained = peak_retained.max(sink.retained_bytes());
            let quiesced =
                sim.net().pending_events() == 0 && feeder.as_ref().is_none_or(|f| f.exhausted());
            log.close(chunk_span);
            chunk += 1;
            if quiesced {
                break;
            }
        }
        let fed = feeder.is_some();
        let (digest, metrics) = log.time(Call::Harvest, run_span, run_idx, 0, || {
            tally.skipped = tally.total() - processed;
            metrics.set_gauge("emulator.sink_retained_bytes", peak_retained as f64);
            if fed {
                metrics.set_gauge("emulator.pending_events_hiwater", peak_pending as f64);
            }
            let net_metrics = sim.net().take_metrics();
            metrics.merge(&net_metrics);
            let world_metrics = sim.with(|w, _| w.take_metrics());
            metrics.merge(&world_metrics);
            (sink.finish(), metrics)
        });
        log.close(run_span);
        pending_hiwater = pending_hiwater.max(peak_pending);
        sink_retained_bytes = sink_retained_bytes.max(peak_retained);
        digests.push(digest);
        tallies.push(tally);
        registries.push(metrics);
    }
    log.close(root);
    let labels: Vec<String> = campaign
        .descriptors()
        .iter()
        .map(|d| d.label.clone())
        .collect();
    let digest = CampaignDigest::fold(
        labels
            .iter()
            .zip(digests.iter().zip(&tallies))
            .map(|(l, (d, t))| (l.as_str(), d as &RunDigest, t)),
    );
    let root_span = log.spans()[root as usize];
    TracedRun {
        digest,
        registries,
        pending_hiwater,
        sink_retained_bytes,
        wall_s: (root_span.end_ns - root_span.start_ns) as f64 * 1e-9,
        log,
        labels,
    }
}
