//! `bench_e2e` — end-to-end and per-layer host time of paper-scale
//! campaigns.
//!
//! ```text
//! bench_e2e --workload <fig5-paper|churn-sessions|flash-remap>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the workload's campaign runs through the public
//! `Campaign::execute_stream_with_threads`, repeatedly for `--seconds`,
//! and the last stdout line is a JSON object with the end-to-end
//! metrics (host times in reference seconds, medians over the repeats;
//! see [`HostClock`]). With `--trace 1` untraced campaigns alternate with
//! campaigns through the benchmark's own traced loop ([`traced`]);
//! the spans of the fastest traced campaign go to
//! `.bench_out/<workload>.spans.tsv` and its per-layer metrics are
//! reported.
//!
//! Both modes apply the correctness gate (see README.md): a failed gate
//! prints `"correct": false` and exits 1.

mod digest;
mod traced;
mod workloads;

use digest::{CampaignDigest, DigestSink, RunDigest};
use emulator::{Campaign, MetricsRegistry, RunDescriptor, StreamReport};
use std::io::Write;
use std::time::Instant;
use workloads::{Built, Size, Workload};

/// The seed whose digests are recorded in `digests.tsv`.
const DEFAULT_SEED: u64 = 42;
/// Set-up builds timed before each measured campaign, so set-up
/// samples spread over the whole run like the campaign samples.
const SETUPS_PER_SAMPLE: usize = 3;
/// The reference kernel's time that host times are scaled to: what it
/// took in the fast state of the 2-vCPU Intel Xeon (2.0 GHz) VM the
/// benchmark was built on.
const REF_KERNEL_S: f64 = 0.052;
/// Recorded digests: `workload <TAB> seed <TAB> hex digest` lines.
const RECORDED: &str = include_str!("../digests.tsv");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("bench_e2e: {msg}");
    eprintln!(
        "usage: bench_e2e --workload <fig5-paper|churn-sessions|flash-remap> \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => {
                seed = value
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad seed {value:?}")))
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage(&format!("bad seconds {value:?}")))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(&format!("bad trace {value:?}")),
                }
            }
            _ => usage(&format!("unknown flag {flag:?}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds,
        trace,
    }
}

fn least(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A fixed host-speed probe made of the benchmark's own code: heap,
/// ordered-map and random-access work over a few MiB, like the
/// simulator's event queue and tables. Returns its wall time, seconds.
/// No change to the simulator can alter its work, so its time tracks
/// only the host.
fn reference_kernel() -> f64 {
    use std::cmp::Reverse;
    use std::collections::{BTreeMap, BinaryHeap};
    let t0 = Instant::now();
    let mut heap = BinaryHeap::with_capacity(1 << 15);
    let mut map = BTreeMap::new();
    let mut table = vec![0u64; 1 << 19];
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    for i in 0..200_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse(x % 1_000_003));
        if heap.len() > 20_000 {
            acc = acc.wrapping_add(heap.pop().map_or(0, |r| r.0));
        }
        *map.entry(x % 50_021).or_insert(0u64) += i;
        let slot = (x >> 20) as usize & (table.len() - 1);
        table[slot] = table[slot].wrapping_add(acc);
    }
    std::hint::black_box((acc, map.len(), table[7]));
    t0.elapsed().as_secs_f64()
}

/// One untraced campaign: the public entry point, the benchmark's
/// digest sink, wall time measured around the call.
fn untraced(campaign: &Campaign, threads: usize) -> (f64, StreamReport<RunDigest>) {
    let t0 = Instant::now();
    let report = campaign
        .execute_stream_with_threads(&|d: &RunDescriptor| DigestSink::new(&d.label), threads);
    (t0.elapsed().as_secs_f64(), report)
}

/// Peak resident set of this process, MiB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The correctness gate's failures, accumulated across a run.
#[derive(Default)]
struct Gate {
    failures: Vec<String>,
}

impl Gate {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("[FAIL] {msg}");
            self.failures.push(msg);
        }
    }

    /// Checks one campaign digest against the workload's accounting.
    fn accounting(&mut self, d: &CampaignDigest, scheduled: usize) {
        self.check(d.completed == scheduled, || {
            format!(
                "scheduled {scheduled} queries but the tally holds {}",
                d.completed
            )
        });
        self.check(d.processed > 0, || "no processed queries".to_string());
        self.check(d.non_finite == 0, || {
            format!("{} queries with non-finite parameters", d.non_finite)
        });
    }

    fn same(&mut self, what: &str, a: &CampaignDigest, b: &CampaignDigest) {
        self.check(a == b, || {
            format!("{what}: digest {} vs {} differ", a.hex(), b.hex())
        });
    }

    /// At the default seed, the digest must equal the recorded one.
    fn recorded(&mut self, workload: Workload, seed: u64, d: &CampaignDigest) {
        if seed != DEFAULT_SEED {
            return;
        }
        let recorded = RECORDED.lines().find_map(|l| {
            let mut f = l.split('\t');
            (f.next() == Some(workload.name()) && f.next() == Some(&seed.to_string()))
                .then(|| f.next().unwrap_or("").to_string())
        });
        self.check(recorded.as_deref() == Some(d.hex().as_str()), || {
            format!(
                "seed {seed}: digest {} differs from the recorded {}",
                d.hex(),
                recorded.as_deref().unwrap_or("(none)")
            )
        });
    }
}

/// `(name, value, unit)` rows, printed in order.
type Metrics = Vec<(String, f64, &'static str)>;

fn print_result(gate: &mut Gate, attempted: usize, failed: usize, metrics: &Metrics) {
    for (name, value, _) in metrics {
        gate.check(value.is_finite(), || format!("{name} is not finite"));
    }
    for (name, value, unit) in metrics {
        eprintln!("  {name:<34} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        gate.failures.is_empty(),
        body.join(", ")
    );
}

fn counter_sum(regs: &[MetricsRegistry], name: &str) -> f64 {
    regs.iter()
        .map(|r| r.counter(name).unwrap_or(0))
        .sum::<u64>() as f64
}

fn gauge_sum(regs: &[MetricsRegistry], name: &str) -> f64 {
    regs.iter().filter_map(|r| r.gauge(name)).map(|g| g.0).sum()
}

fn gauge_max(regs: &[MetricsRegistry], name: &str) -> f64 {
    regs.iter()
        .filter_map(|r| r.gauge(name))
        .map(|g| g.1)
        .fold(0.0, f64::max)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-variant timeline-extraction error counter.
fn capture_error_names() -> Vec<&'static str> {
    use capture::{SessionError, TimelineError};
    [
        TimelineError::Session(SessionError::NoClientSyn),
        TimelineError::Session(SessionError::NoHandshake),
        TimelineError::NoRequest,
        TimelineError::Truncated,
        TimelineError::NoStatic,
        TimelineError::NoDynamic,
        TimelineError::ErrorStubOnly,
        TimelineError::RetransmissionHeavy,
        TimelineError::TracingDisabled,
    ]
    .iter()
    .map(|e| e.metric_name())
    .collect()
}

/// One measured sample: set-up builds and one campaign, raw seconds.
struct Sample {
    built: Built,
    setups: Vec<f64>,
    wall: f64,
    report: StreamReport<RunDigest>,
    digest: CampaignDigest,
}

fn sample(args: &Args, threads: usize) -> Sample {
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS_PER_SAMPLE {
        let t0 = Instant::now();
        built = Some(args.workload.build(args.seed, Size::Bench));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let built = built.expect("at least one set-up per sample");
    let (wall, report) = untraced(&built.campaign, threads);
    let digest = CampaignDigest::of_report(&report);
    Sample {
        built,
        setups,
        wall,
        report,
        digest,
    }
}

/// Host times in reference seconds: each sample's raw times divided by
/// the mean of the reference-kernel times measured just before and just
/// after it, times [`REF_KERNEL_S`]. Host slow-downs that last longer
/// than a sample stretch both alike and cancel.
struct HostClock {
    last_ref: f64,
    refs: Vec<f64>,
    raw_walls: Vec<f64>,
    walls: Vec<f64>,
    setups: Vec<f64>,
}

impl HostClock {
    fn new() -> HostClock {
        let last_ref = reference_kernel();
        HostClock {
            last_ref,
            refs: vec![last_ref],
            raw_walls: Vec::new(),
            walls: Vec::new(),
            setups: Vec::new(),
        }
    }

    fn record(&mut self, s: &Sample) {
        let after = reference_kernel();
        let scale = REF_KERNEL_S / ((self.last_ref + after) / 2.0);
        self.raw_walls.push(s.wall);
        self.walls.push(s.wall * scale);
        self.setups.extend(s.setups.iter().map(|x| x * scale));
        self.refs.push(after);
        self.last_ref = after;
    }
}

/// Gates every sample: the first against the accounting and the
/// recorded digest, later ones against the first.
fn check_sample(args: &Args, gate: &mut Gate, first: &mut Option<CampaignDigest>, s: &Sample) {
    match first {
        None => {
            gate.accounting(&s.digest, s.built.scheduled);
            gate.recorded(args.workload, args.seed, &s.digest);
            *first = Some(s.digest.clone());
        }
        Some(f) => gate.same("repeat of the same campaign", f, &s.digest),
    }
}

/// Runs the campaign once more on one worker and gates the digest.
fn check_one_worker(gate: &mut Gate, threads: usize, s: &Sample) -> f64 {
    let (wall, serial) = untraced(&s.built.campaign, 1);
    gate.same(
        &format!("{threads} workers vs 1 worker"),
        &s.digest,
        &CampaignDigest::of_report(&serial),
    );
    wall
}

fn run_end_to_end(args: &Args, gate: &mut Gate) -> (usize, usize, Metrics) {
    let w = args.workload;
    let threads = w.threads();
    let t0 = Instant::now();
    let mut clock = HostClock::new();
    let mut first = None;
    let mut failed = 0;
    let last = loop {
        let iter_t0 = Instant::now();
        let s = sample(args, threads);
        check_sample(args, gate, &mut first, &s);
        failed += s.built.scheduled.abs_diff(s.digest.completed);
        clock.record(&s);
        let iter_s = iter_t0.elapsed().as_secs_f64();
        if t0.elapsed().as_secs_f64() + iter_s > args.seconds {
            break s;
        }
    };
    let rss = peak_rss_mb();
    gate.check(rss.is_some(), || "peak RSS unreadable".to_string());
    if threads > 1 {
        check_one_worker(gate, threads, &last);
    }
    let d = &last.digest;
    let wall_s = median(&clock.walls);
    let metrics = vec![
        ("wall_s".to_string(), wall_s, "s"),
        (
            "queries_per_s".to_string(),
            d.processed as f64 / wall_s,
            "1/s",
        ),
        ("setup_s".to_string(), median(&clock.setups), "s"),
        ("peak_rss_mb".to_string(), rss.unwrap_or(0.0), "MiB"),
        (
            "query_ok_frac".to_string(),
            d.served as f64 / last.built.scheduled as f64,
            "ratio",
        ),
    ];
    eprintln!("  reference kernel (s): {:.4?}", clock.refs);
    eprintln!("  raw wall samples (s): {:.3?}", clock.raw_walls);
    eprintln!("  wall samples (reference s): {:.3?}", clock.walls);
    eprintln!(
        "{}: {} campaign(s), digest {}, {} scheduled, {} processed, {} served; raw wall median {:.3} s",
        w.name(),
        clock.walls.len(),
        d.hex(),
        last.built.scheduled,
        d.processed,
        d.served,
        median(&clock.raw_walls)
    );
    (last.built.scheduled * clock.walls.len(), failed, metrics)
}

fn run_traced(args: &Args, gate: &mut Gate) -> (usize, usize, Metrics) {
    let w = args.workload;
    let threads = w.threads();
    let t0 = Instant::now();
    let mut first = None;
    let mut serial_walls = Vec::new();
    let mut campaigns = 0;
    let mut failed = 0;
    // Untraced and traced campaigns alternate; the traced one with the
    // least wall time is reported, as host noise only ever adds time.
    let mut best: Option<(Sample, traced::TracedRun)> = None;
    loop {
        let iter_t0 = Instant::now();
        let s = sample(args, threads);
        check_sample(args, gate, &mut first, &s);
        failed += s.built.scheduled.abs_diff(s.digest.completed);
        campaigns += 1;
        // The traced loop is serial, so its overhead is taken against
        // a serial untraced run; the pool figures come from the pool.
        serial_walls.push(if threads > 1 {
            campaigns += 1;
            check_one_worker(gate, threads, &s)
        } else {
            s.wall
        });
        let t = traced::run(&s.built.campaign);
        campaigns += 1;
        gate.same("untraced vs traced", &s.digest, &t.digest);
        let untraced_regs: Vec<MetricsRegistry> =
            s.report.runs.iter().map(|r| r.metrics.clone()).collect();
        gate.check(
            gauge_sum(&t.registries, "tcpsim.events_processed")
                == gauge_sum(&untraced_regs, "tcpsim.events_processed"),
            || "untraced vs traced: tcpsim.events differ".to_string(),
        );
        if best.as_ref().is_none_or(|(_, b)| t.wall_s < b.wall_s) {
            best = Some((s, t));
        }
        let iter_s = iter_t0.elapsed().as_secs_f64();
        if t0.elapsed().as_secs_f64() + iter_s > args.seconds {
            break;
        }
    }
    let (s, t) = best.expect("at least one traced campaign");
    let report = &s.report;
    let d = &s.digest;
    let serial_wall = least(&serial_walls);
    for r in &report.runs {
        eprintln!("  run {:<22} {:?}", r.label, r.tally);
    }
    let regs = &t.registries;
    let events = gauge_sum(regs, "tcpsim.events_processed");

    use traced::Call;
    let self_s = t.log.self_seconds();
    let layer = |call: Call| self_s[call as usize];
    let unattributed: f64 = Call::ALL
        .iter()
        .filter(|c| c.is_loop_level())
        .map(|&c| layer(c))
        .sum();
    let attributed: f64 = self_s.iter().sum();
    gate.check(
        (attributed - t.wall_s).abs() <= 1e-6 * t.wall_s.max(1.0),
        || {
            format!(
                "self times sum to {attributed} s, traced wall is {} s",
                t.wall_s
            )
        },
    );

    let trace_pkts = gauge_sum(regs, "tcpsim.trace_recorded_pkts");
    let completed = t.digest.completed as f64;
    let ok = counter_sum(regs, "capture.timeline_ok");
    let err_names = capture_error_names();
    let err: f64 = err_names.iter().map(|n| counter_sum(regs, n)).sum();
    let hits = counter_sum(regs, "cdnsim.fe_result_cache_hits");
    let misses = counter_sum(regs, "cdnsim.fe_result_cache_misses");
    let run_wall_max_s = report
        .runs
        .iter()
        .map(|r| r.stats.wall_ms * 1e-3)
        .fold(0.0, f64::max);

    let mut m: Metrics = vec![
        ("tcpsim.run_until_s".into(), layer(Call::RunUntil), "s"),
        ("tcpsim.events".into(), events, "count"),
        (
            "tcpsim.ns_per_event".into(),
            ratio(layer(Call::RunUntil) * 1e9, events),
            "ns/event",
        ),
        ("tcpsim.trace_pkts".into(), trace_pkts, "count"),
        (
            "tcpsim.retransmit_segs".into(),
            counter_sum(regs, "tcpsim.retransmit_segs"),
            "count",
        ),
        (
            "simcore.wheel_cascade_moves".into(),
            gauge_sum(regs, "tcpsim.wheel_cascade_moves"),
            "count",
        ),
        (
            "simcore.slab_high_water_slots".into(),
            gauge_max(regs, "tcpsim.slab_high_water_slots"),
            "count",
        ),
        ("tcpsim.trace_drop_s".into(), layer(Call::TraceDrop), "s"),
        (
            "tcpsim.trace_pkts_per_query".into(),
            ratio(trace_pkts, completed),
            "pkts/query",
        ),
        ("cdnsim.build_s".into(), layer(Call::Build), "s"),
        ("cdnsim.drain_s".into(), layer(Call::Drain), "s"),
        (
            "cdnsim.result_cache_hit_ratio".into(),
            ratio(hits, hits + misses),
            "ratio",
        ),
        (
            "cdnsim.result_cache_evictions".into(),
            counter_sum(regs, "cdnsim.fe_result_cache_evictions"),
            "count",
        ),
        (
            "cdnsim.static_cache_hits".into(),
            counter_sum(regs, "cdnsim.fe_static_cache_hits"),
            "count",
        ),
        (
            "cdnsim.remap_events".into(),
            counter_sum(regs, "cdnsim.remap_events"),
            "count",
        ),
        (
            "cdnsim.shed_queries".into(),
            counter_sum(regs, "cdnsim.shed_queries"),
            "count",
        ),
        (
            "cdnsim.retry_budget_exhausted".into(),
            counter_sum(regs, "cdnsim.retry_budget_exhausted"),
            "count",
        ),
        (
            "cdnsim.fe_inflight_hiwater".into(),
            gauge_max(regs, "cdnsim.fe_inflight_hiwater"),
            "count",
        ),
        ("capture.extract_s".into(), layer(Call::Extract), "s"),
        (
            "capture.extract_us_per_query".into(),
            ratio(layer(Call::Extract) * 1e6, ok + err),
            "us/query",
        ),
        ("capture.timeline_ok".into(), ok, "count"),
        ("capture.timeline_err".into(), err, "count"),
    ];
    for name in err_names {
        m.push((name.to_string(), counter_sum(regs, name), "count"));
    }
    m.extend([
        ("capture.ok_ratio".into(), ratio(ok, ok + err), "ratio"),
        ("inference.params_s".into(), layer(Call::Params), "s"),
        ("emulator.schedule_s".into(), layer(Call::Schedule), "s"),
        ("emulator.feed_s".into(), layer(Call::Feed), "s"),
        ("emulator.sink_s".into(), layer(Call::Sink), "s"),
        ("emulator.harvest_s".into(), layer(Call::Harvest), "s"),
        (
            "emulator.pending_events_hiwater".into(),
            t.pending_hiwater as f64,
            "count",
        ),
        (
            "emulator.sink_retained_bytes".into(),
            t.sink_retained_bytes as f64,
            "bytes",
        ),
        ("emulator.pool_speedup".into(), report.speedup(), "x"),
        ("emulator.run_wall_max_s".into(), run_wall_max_s, "s"),
        ("emulator.unattributed_s".into(), unattributed, "s"),
        (
            "bench.trace_overhead".into(),
            ratio(t.wall_s, serial_wall),
            "x",
        ),
        ("bench.traced_wall_s".into(), t.wall_s, "s"),
        ("bench.untraced_wall_s".into(), serial_wall, "s"),
    ]);

    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("{}.spans.tsv", w.name()));
    let written = std::fs::create_dir_all(dir).and_then(|_| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        t.log.write_tsv(&t.labels, &mut out)?;
        out.flush()
    });
    gate.check(written.is_ok(), || {
        format!("writing {}: {:?}", path.display(), written.err())
    });
    eprintln!(
        "{}: traced {:.3} s ({} spans -> {}), untraced {:.3} s, digest {}",
        w.name(),
        t.wall_s,
        t.log.spans().len(),
        path.display(),
        serial_wall,
        d.hex()
    );
    (s.built.scheduled * campaigns, failed, m)
}

fn main() {
    let args = parse_args();
    let mut gate = Gate::default();
    let (attempted, failed, metrics) = if args.trace {
        run_traced(&args, &mut gate)
    } else {
        run_end_to_end(&args, &mut gate)
    };
    print_result(&mut gate, attempted, failed, &metrics);
    if !gate.failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests;
