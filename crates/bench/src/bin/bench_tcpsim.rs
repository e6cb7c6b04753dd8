//! Canonical simulator-throughput benchmark: events/sec of the `tcpsim`
//! packet hot path, with tracing on and off.
//!
//! Every experiment binary in this workspace is a consumer of the
//! per-segment discrete-event core; this benchmark pins its throughput
//! so perf regressions show up as a number, not as mysteriously slow
//! campaigns. Two workloads:
//!
//! * `bulk` — a handful of long transfers (many-chunk responses, light
//!   loss): the window-growth / ACK-clock steady state, dominated by
//!   data-segment construction (`meta_for_range`) and trace recording.
//! * `mixed` — thousands of short staggered sessions with loss: the
//!   handshake / teardown / retransmission paths and per-session trace
//!   extraction, the shape campaign runners actually produce.
//!
//! Each (workload × tracing) cell is run `repeats` times and the best
//! wall-clock is kept (minimum is the right estimator for a
//! deterministic computation on a noisy machine). Results go to stdout
//! as a human summary and to `BENCH_tcpsim.json` in the working
//! directory; `scripts/ci.sh` runs the `--smoke` mode and compares
//! against the committed `BENCH_tcpsim.baseline.json`.
//!
//! Usage: `bench_tcpsim [--smoke] [--out PATH]`

use simcore::time::SimDuration;
use simcore::{EventQueue, HeapQueue};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;
use tcpsim::sock::{SimTcpStream, SockApp};
use tcpsim::{
    App, Capture, ConnId, DeliveredSpan, End, Marker, Net, NodeId, PathParams, PktDir, Sim,
    TcpOptions,
};

/// Per-connection bookkeeping of the benchmark application.
struct ConnState {
    req_got: u64,
    resp_got: u64,
    resp_len: u64,
}

/// A client/server app: every connection carries one request and one
/// chunked response (alternating Static/Dynamic spans, so segments
/// regularly straddle chunk boundaries and carry 2 meta spans — the
/// common case the inline span representation is sized for).
struct BenchApp {
    request: u64,
    response: u64,
    chunks: u32,
    /// Extract each session's trace as soon as it completes, as the
    /// measurement harness does (bounds memory; exercises `take_session`).
    drain: bool,
    conns: HashMap<ConnId, ConnState>,
    finished: usize,
    drained_events: u64,
}

impl BenchApp {
    fn new(request: u64, response: u64, chunks: u32, drain: bool) -> BenchApp {
        BenchApp {
            request,
            response,
            chunks,
            drain,
            conns: HashMap::new(),
            finished: 0,
            drained_events: 0,
        }
    }
}

impl App for BenchApp {
    fn on_established(&mut self, net: &mut Net, conn: ConnId, end: End) {
        if end == End::A {
            let req = self.request;
            self.conns.insert(
                conn,
                ConnState {
                    req_got: 0,
                    resp_got: 0,
                    resp_len: 0,
                },
            );
            net.send(conn, End::A, req, Marker::Request, conn.0 as u64);
        }
    }

    fn on_data(&mut self, net: &mut Net, conn: ConnId, end: End, spans: &[DeliveredSpan]) {
        let bytes: u64 = spans.iter().map(|s| s.len as u64).sum();
        let st = match self.conns.get_mut(&conn) {
            Some(s) => s,
            None => return,
        };
        match end {
            End::B => {
                st.req_got += bytes;
                if st.req_got == self.request {
                    // Respond in alternating static/dynamic chunks.
                    let n = self.chunks.max(1) as u64;
                    let base = self.response / n;
                    let mut sent = 0u64;
                    for i in 0..n {
                        let len = if i == n - 1 {
                            self.response - sent
                        } else {
                            base
                        };
                        sent += len;
                        let (marker, content) = if i % 2 == 0 {
                            (Marker::Static, 1)
                        } else {
                            (Marker::Dynamic, 1000 + conn.0 as u64 * n + i)
                        };
                        st.resp_len += len;
                        net.send(conn, End::B, len, marker, content);
                    }
                    net.close(conn, End::B);
                }
            }
            End::A => {
                st.resp_got += bytes;
                if st.resp_got == self.response {
                    net.close(conn, End::A);
                }
            }
        }
    }

    fn on_fin(&mut self, net: &mut Net, conn: ConnId, end: End) {
        if end == End::A {
            self.finished += 1;
            self.conns.remove(&conn);
            if self.drain {
                let session = net.session_of(conn);
                let events = net.trace_mut().take_session(session);
                self.drained_events += events.len() as u64;
                // Touch the payload labelling so the compiler cannot
                // discard the recorded spans.
                self.drained_events += events
                    .iter()
                    .filter(|e| e.dir == PktDir::Rx && e.meta.iter().any(|m| m.len == 0))
                    .count() as u64;
            }
        }
    }
}

/// One measured cell.
struct Cell {
    events: u64,
    recorded: u64,
    wall_s: f64,
    finished: usize,
}

impl Cell {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s
    }
    fn recorded_per_sec(&self) -> f64 {
        self.recorded as f64 / self.wall_s
    }
}

#[derive(Clone, Copy)]
struct Workload {
    name: &'static str,
    sessions: u32,
    response: u64,
    chunks: u32,
    rtt_ms: f64,
    loss: f64,
}

fn run_workload(w: &Workload, tracing: bool, telemetry: bool) -> Cell {
    let app = BenchApp::new(400, w.response, w.chunks, tracing);
    let mut sim = Sim::new(42, app);
    // Both ends of every connection: the cell prices the full record
    // path, not a vantage subset of it.
    let capture = if tracing { Capture::All } else { Capture::Off };
    sim.net().trace_mut().set_capture(capture);
    // Explicit per-cell telemetry gate: cells must not depend on the
    // ambient FECDN_METRICS value.
    sim.net().metrics_mut().set_enabled(telemetry);
    for s in 0..w.sessions {
        let path = PathParams::lossy(w.rtt_ms, w.loss);
        sim.net().open(
            NodeId(2 * s),
            NodeId(2 * s + 1),
            path,
            TcpOptions::default(),
            TcpOptions::default(),
            s as u64,
        );
    }
    let t0 = Instant::now();
    sim.run();
    let wall_s = t0.elapsed().as_secs_f64().max(1e-9);
    let events = sim.net().events_processed();
    let recorded = sim.net().trace().recorded();
    let app = sim.into_app();
    assert_eq!(
        app.finished, w.sessions as usize,
        "{}: every session must complete",
        w.name
    );
    Cell {
        events,
        recorded,
        wall_s,
        finished: app.finished,
    }
}

/// The same workload as [`run_workload`] (tracing and telemetry off),
/// driven through the `tcpsim::sock` facade: one async task per
/// session plays both connection ends over `SimTcpStream`s instead of
/// raw `App` callbacks. Each task issues exactly the network calls the
/// callback app does, at the same virtual instants, so both arms
/// process identical event trajectories — the cell isolates the
/// executor/waker/command-queue overhead of the facade itself.
fn run_workload_facade(w: &Workload) -> Cell {
    let mut sim = Sim::new(42, SockApp::new());
    sim.net().trace_mut().set_capture(Capture::Off);
    sim.net().metrics_mut().set_enabled(false);
    let rt = sim.with(|app, _| app.host.rt());
    let finished = Rc::new(RefCell::new(0usize));
    let request = 400u64;
    let response = w.response;
    let chunks = w.chunks.max(1) as u64;
    let (rtt_ms, loss) = (w.rtt_ms, w.loss);
    for s in 0..w.sessions {
        let rt = rt.clone();
        let done = Rc::clone(&finished);
        sim.with(move |app, net| {
            app.spawn_now(net, async move {
                let mut a = SimTcpStream::connect(
                    &rt,
                    NodeId(2 * s),
                    NodeId(2 * s + 1),
                    PathParams::lossy(rtt_ms, loss),
                    TcpOptions::default(),
                    TcpOptions::default(),
                    s as u64,
                )
                .await;
                let conn = a.conn();
                a.write(request, Marker::Request, conn.0 as u64);
                // The same task serves the B end once the request is in:
                // alternating static/dynamic chunks, then FIN — the
                // mirror of BenchApp::on_data(End::B).
                let mut b = SimTcpStream::attach(&rt, conn, End::B);
                b.wait_marker_total(Marker::Request, request).await;
                let base = response / chunks;
                let (mut sent, mut stat, mut dynb) = (0u64, 0u64, 0u64);
                for i in 0..chunks {
                    let len = if i == chunks - 1 {
                        response - sent
                    } else {
                        base
                    };
                    sent += len;
                    if i % 2 == 0 {
                        stat += len;
                        b.write(len, Marker::Static, 1);
                    } else {
                        dynb += len;
                        b.write(len, Marker::Dynamic, 1000 + conn.0 as u64 * chunks + i);
                    }
                }
                b.shutdown();
                // Per-marker totals are absolute, so awaiting both in
                // sequence resolves exactly when the last response byte
                // lands — the instant the callback app closes End::A.
                a.wait_marker_total(Marker::Static, stat).await;
                a.wait_marker_total(Marker::Dynamic, dynb).await;
                a.shutdown();
                a.fin().await;
                rt.forget_conn(conn);
                *done.borrow_mut() += 1;
            });
        });
    }
    let t0 = Instant::now();
    sim.run();
    let wall_s = t0.elapsed().as_secs_f64().max(1e-9);
    let events = sim.net().events_processed();
    let done = *finished.borrow();
    assert_eq!(
        done, w.sessions as usize,
        "{}: every facade session must complete",
        w.name
    );
    Cell {
        events,
        recorded: 0,
        wall_s,
        finished: done,
    }
}

/// Paired facade-vs-direct overhead on one workload: interleaved runs
/// with alternating order, overhead estimated as the median of
/// per-pair wall-clock ratios (the same estimator as
/// [`telemetry_overhead`]). Panics if the facade arm's event
/// trajectory diverges from the callback arm's — equal event counts
/// are what make the wall-clock ratio a pure per-event overhead.
/// Returns `(eps_direct, eps_facade, overhead_ratio)`.
fn facade_overhead(w: &Workload, pairs: u32) -> (f64, f64, f64) {
    let mut ratios = Vec::new();
    let mut best_direct = f64::INFINITY;
    let mut best_facade = f64::INFINITY;
    let mut events = 0u64;
    for i in 0..pairs {
        let (d, f) = if i % 2 == 0 {
            let d = run_workload(w, false, false);
            let f = run_workload_facade(w);
            (d, f)
        } else {
            let f = run_workload_facade(w);
            let d = run_workload(w, false, false);
            (d, f)
        };
        assert_eq!(
            d.events, f.events,
            "{}: the facade must not change the event trajectory",
            w.name
        );
        events = d.events;
        ratios.push(f.wall_s / d.wall_s);
        best_direct = best_direct.min(d.wall_s);
        best_facade = best_facade.min(f.wall_s);
    }
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    (
        events as f64 / best_direct,
        events as f64 / best_facade,
        median,
    )
}

/// Builds one fleet world (tracing and telemetry off — this cell
/// measures raw scheduler throughput).
fn build_fleet_world(w: &Workload, seed: u64) -> Sim<BenchApp> {
    let app = BenchApp::new(400, w.response, w.chunks, false);
    let mut sim = Sim::new(seed, app);
    sim.net().trace_mut().set_capture(Capture::Off);
    sim.net().metrics_mut().set_enabled(false);
    for s in 0..w.sessions {
        let path = PathParams::lossy(w.rtt_ms, w.loss);
        sim.net().open(
            NodeId(2 * s),
            NodeId(2 * s + 1),
            path,
            TcpOptions::default(),
            TcpOptions::default(),
            s as u64,
        );
    }
    sim
}

/// The fleet-scale cell: `worlds` independent simulators run to
/// quiescence either back-to-back (`batched = false`) or interleaved in
/// short virtual-time slices on one thread (`batched = true`) — the
/// multi-world batching model the campaign runner uses
/// (`FECDN_WORLD_BATCH`). Each world's trajectory is identical either
/// way; the cell measures the locality effect of K warm event queues.
fn run_fleet(w: &Workload, worlds: u32, batched: bool) -> Cell {
    let mut sims: Vec<Sim<BenchApp>> = (0..worlds)
        .map(|k| build_fleet_world(w, 42 + k as u64))
        .collect();
    let slice = SimDuration::from_millis(250);
    let t0 = Instant::now();
    if batched {
        loop {
            let mut live = false;
            for sim in &mut sims {
                if sim.net().pending_events() == 0 {
                    continue;
                }
                // Slice deadline with a skip past lulls, as the
                // campaign runner's chunk loop does.
                let mut deadline = sim.net().now() + slice;
                if let Some(t) = sim.net().next_event_time() {
                    if t > deadline {
                        deadline = t;
                    }
                }
                sim.run_until(deadline);
                live |= sim.net().pending_events() > 0;
            }
            if !live {
                break;
            }
        }
    } else {
        for sim in &mut sims {
            sim.run();
        }
    }
    let wall_s = t0.elapsed().as_secs_f64().max(1e-9);
    let mut events = 0u64;
    let mut finished = 0usize;
    for sim in sims {
        let mut sim = sim;
        events += sim.net().events_processed();
        let app = sim.into_app();
        assert_eq!(
            app.finished, w.sessions as usize,
            "fleet: every session in every world must complete"
        );
        finished += app.finished;
    }
    Cell {
        events,
        recorded: 0,
        wall_s,
        finished,
    }
}

fn best_of(w: &Workload, tracing: bool, telemetry: bool, repeats: u32) -> Cell {
    let mut best: Option<Cell> = None;
    for _ in 0..repeats {
        let c = run_workload(w, tracing, telemetry);
        if best.as_ref().is_none_or(|b| c.wall_s < b.wall_s) {
            best = Some(c);
        }
    }
    best.unwrap()
}

/// Paired telemetry-overhead measurement on one workload: interleaved
/// off/on runs with alternating order (so machine drift and warm-up hit
/// both arms alike), overhead estimated as the *median of per-pair
/// wall-clock ratios* — the estimator PR3 established for close-rate
/// comparisons on a shared noisy host, where min-of-N of each arm
/// separately still swings by ±15%. Returns `(eps_off, eps_on,
/// overhead_pct)`; panics if telemetry changed the simulated trajectory
/// — the registry is observe-only by contract.
fn telemetry_overhead(w: &Workload, tracing: bool, pairs: u32) -> (f64, f64, f64) {
    let mut ratios = Vec::new();
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    let mut events = 0u64;
    for i in 0..pairs {
        // Alternate which arm runs first within the pair.
        let (off, on) = if i % 2 == 0 {
            let off = run_workload(w, tracing, false);
            let on = run_workload(w, tracing, true);
            (off, on)
        } else {
            let on = run_workload(w, tracing, true);
            let off = run_workload(w, tracing, false);
            (off, on)
        };
        assert_eq!(
            off.events, on.events,
            "{}: telemetry must not change the event trajectory",
            w.name
        );
        events = off.events;
        ratios.push(on.wall_s / off.wall_s);
        best_off = best_off.min(off.wall_s);
        best_on = best_on.min(on.wall_s);
    }
    ratios.sort_by(f64::total_cmp);
    let median_ratio = ratios[ratios.len() / 2];
    let overhead_pct = 100.0 * (median_ratio - 1.0);
    (
        events as f64 / best_off,
        events as f64 / best_on,
        overhead_pct,
    )
}

/// Drives one scheduler engine through a fixed schedule/pop trajectory:
/// a warm-up fill to a realistic working set, then a steady state of
/// interleaved schedules and pops at RTT-scale offsets, then a full
/// drain. Both engines expose the same inherent API but share no trait,
/// hence the macro.
macro_rules! sched_drive {
    ($q:expr, $fill:expr, $steady:expr) => {{
        let q = $q;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut id = 0u64;
        let mut acc = 0u64;
        for _ in 0..$fill {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.schedule_in(SimDuration::from_nanos(x % 400_000_000), id);
            id += 1;
        }
        for _ in 0..$steady {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.schedule_in(SimDuration::from_nanos(x % 400_000_000), id);
            id += 1;
            if let Some((t, e)) = q.pop() {
                acc ^= e ^ t.as_nanos();
            }
        }
        while let Some((t, e)) = q.pop() {
            acc ^= e ^ t.as_nanos();
        }
        acc
    }};
}

/// Paired wheel-vs-heap scheduler microbenchmark: the same pseudo-random
/// schedule/pop trajectory through the timing-wheel `EventQueue` and the
/// `HeapQueue` reference, alternating order within each pair, speedup
/// taken as the median of per-pair wall-clock ratios. Being paired and
/// in-process, this is far less noisy than comparing two separately-run
/// benchmark invocations — it is the number the CI tripwire guards.
fn wheel_speedup_vs_heap(pairs: u32, fill: u64, steady: u64) -> f64 {
    let mut ratios = Vec::new();
    for i in 0..pairs {
        let time_wheel = || {
            let t = Instant::now();
            let acc = sched_drive!(&mut EventQueue::new(), fill, steady);
            (t.elapsed().as_secs_f64().max(1e-9), acc)
        };
        let time_heap = || {
            let t = Instant::now();
            let acc = sched_drive!(&mut HeapQueue::new(), fill, steady);
            (t.elapsed().as_secs_f64().max(1e-9), acc)
        };
        let ((ww, wa), (hw, ha)) = if i % 2 == 0 {
            (time_wheel(), time_heap())
        } else {
            let h = time_heap();
            (time_wheel(), h)
        };
        assert_eq!(wa, ha, "engines must pop identical streams");
        ratios.push(hw / ww);
    }
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_tcpsim.json".to_string());
    let (scale, repeats) = if smoke { (1u64, 2u32) } else { (4u64, 3u32) };

    let workloads = [
        Workload {
            name: "bulk",
            sessions: 8,
            response: 2_000_000 * scale,
            chunks: 64,
            rtt_ms: 40.0,
            loss: 0.002,
        },
        Workload {
            name: "mixed",
            sessions: (500 * scale) as u32,
            response: 30_000,
            chunks: 12,
            rtt_ms: 80.0,
            loss: 0.01,
        },
    ];

    let mut rows = Vec::new();
    let mut tot = [(0u64, 0u64, 0f64), (0u64, 0u64, 0f64)]; // [off, on] = (events, recorded, wall)
    for w in &workloads {
        for (ti, tracing) in [false, true].into_iter().enumerate() {
            let c = best_of(w, tracing, true, repeats);
            eprintln!(
                "{:>5} tracing={:<5} events {:>9}  recorded {:>9}  wall {:>8.1} ms  {:>10.0} events/s  {:>10.0} rec pkts/s  ({} sessions)",
                w.name,
                tracing,
                c.events,
                c.recorded,
                c.wall_s * 1e3,
                c.events_per_sec(),
                c.recorded_per_sec(),
                c.finished,
            );
            tot[ti].0 += c.events;
            tot[ti].1 += c.recorded;
            tot[ti].2 += c.wall_s;
            rows.push(format!(
                concat!(
                    "    {{\"workload\": \"{}\", \"tracing\": {}, \"events\": {}, ",
                    "\"recorded_pkts\": {}, \"wall_ms\": {:.3}, \"events_per_sec\": {:.0}, ",
                    "\"recorded_pkts_per_sec\": {:.0}}}"
                ),
                w.name,
                tracing,
                c.events,
                c.recorded,
                c.wall_s * 1e3,
                c.events_per_sec(),
                c.recorded_per_sec(),
            ));
        }
    }

    let eps_off = tot[0].0 as f64 / tot[0].2;
    let eps_on = tot[1].0 as f64 / tot[1].2;
    let rps_on = tot[1].1 as f64 / tot[1].2;
    eprintln!(
        "total tracing=off {:.0} events/s | tracing=on {:.0} events/s, {:.0} recorded pkts/s",
        eps_off, eps_on, rps_on
    );

    // Telemetry overhead on the retransmission-heavy workload (the one
    // that actually exercises the counters), tracing on — the <5%
    // overhead budget ci.sh enforces. More pairs than the throughput
    // cells have repeats: the overhead is a *difference* of two close
    // rates, so the estimator needs more draws to shake off shared-host
    // scheduling noise.
    // Cells ~4× the throughput workload (long enough to amortize
    // per-run setup, short enough that the two arms of a pair run close
    // together in time and share the host's drift), and many pairs: the
    // median of ~15 paired ratios is what actually converges on this
    // class of shared machine.
    let tel_workload = Workload {
        name: "mixed-telemetry",
        sessions: workloads[1].sessions * 4,
        ..workloads[1]
    };
    let (tel_eps_off, tel_eps_on, raw_overhead_pct) =
        telemetry_overhead(&tel_workload, true, repeats.max(21));
    // The true overhead cannot be negative (the telemetry arm strictly
    // does more work); a negative estimate is residual machine noise, so
    // the *reported* value is clamped at zero. The raw estimate still
    // goes to stderr for eyeballing estimator health.
    let overhead_pct = raw_overhead_pct.max(0.0);
    eprintln!(
        "telemetry mixed/tracing=on: off {:.0} events/s | on {:.0} events/s | overhead {:+.2}% (raw {:+.2}%)",
        tel_eps_off, tel_eps_on, overhead_pct, raw_overhead_pct
    );

    // Fleet-scale cell: K independent mixed worlds, run back-to-back vs
    // interleaved in short virtual-time slices (the campaign runner's
    // FECDN_WORLD_BATCH model). Both arms must process exactly the same
    // events — batching is a pure reordering across worlds.
    let fleet_w = Workload {
        name: "fleet",
        sessions: (workloads[1].sessions / 4).max(1),
        ..workloads[1]
    };
    let fleet_worlds = 8u32;
    let mut best_seq: Option<Cell> = None;
    let mut best_bat: Option<Cell> = None;
    for _ in 0..repeats {
        let seq = run_fleet(&fleet_w, fleet_worlds, false);
        let bat = run_fleet(&fleet_w, fleet_worlds, true);
        assert_eq!(
            seq.events, bat.events,
            "batched stepping must not change any world's trajectory"
        );
        if best_seq.as_ref().is_none_or(|b| seq.wall_s < b.wall_s) {
            best_seq = Some(seq);
        }
        if best_bat.as_ref().is_none_or(|b| bat.wall_s < b.wall_s) {
            best_bat = Some(bat);
        }
    }
    let (fleet_seq, fleet_bat) = (best_seq.unwrap(), best_bat.unwrap());
    for (arm, c) in [("fleet-seq", &fleet_seq), ("fleet-batched", &fleet_bat)] {
        eprintln!(
            "{:>13}: {} worlds x {} sessions  events {:>9}  wall {:>8.1} ms  {:>10.0} events/s",
            arm,
            fleet_worlds,
            fleet_w.sessions,
            c.events,
            c.wall_s * 1e3,
            c.events_per_sec(),
        );
        rows.push(format!(
            concat!(
                "    {{\"workload\": \"{}\", \"tracing\": false, \"events\": {}, ",
                "\"recorded_pkts\": 0, \"wall_ms\": {:.3}, \"events_per_sec\": {:.0}, ",
                "\"recorded_pkts_per_sec\": 0}}"
            ),
            arm,
            c.events,
            c.wall_s * 1e3,
            c.events_per_sec(),
        ));
    }

    // Socket-facade cell: the async-task arm replays the callback
    // arm's exact event trajectory, so the paired wall-clock ratio is
    // the per-event price of the executor + command queue. ci.sh
    // enforces the <= 1.15x budget on the smoke reading. Workload
    // shape: handshakes + loss like `mixed`, but transfer lengths like
    // the FE/BE responses facade consumers actually move — a session's
    // handful of awaits amortized over a real response, not a toy one.
    let facade_w = Workload {
        name: "facade",
        sessions: (200 * scale) as u32,
        response: 150_000,
        chunks: 24,
        rtt_ms: 80.0,
        loss: 0.01,
    };
    let (eps_direct, eps_facade, facade_ratio) = facade_overhead(&facade_w, repeats.max(15));
    eprintln!(
        "socket facade vs direct Net (paired, median): {:.3}x (direct {:.0} events/s, facade {:.0} events/s)",
        facade_ratio, eps_direct, eps_facade
    );

    // Paired scheduler microbenchmark: the committed baseline is always
    // regenerated on the wheel itself, so an end-to-end ratio against it
    // cannot keep guarding the wheel-vs-heap win. This cell races both
    // engines in-process on the same trajectory every run.
    let sched_speedup = wheel_speedup_vs_heap(repeats.max(9), 200_000, 600_000);
    eprintln!("scheduler wheel vs heap (paired, median): {sched_speedup:.2}x");

    let json = format!(
        "{{\n  \"bench\": \"bench_tcpsim\",\n  \"mode\": \"{}\",\n  \"repeats\": {},\n  \
         \"events_per_sec_tracing_off\": {:.0},\n  \"events_per_sec_tracing_on\": {:.0},\n  \
         \"recorded_pkts_per_sec\": {:.0},\n  \
         \"events_per_sec_telemetry_off\": {:.0},\n  \"events_per_sec_telemetry_on\": {:.0},\n  \
         \"telemetry_overhead_pct\": {:.3},\n  \
         \"events_per_sec_fleet_seq\": {:.0},\n  \"events_per_sec_batched\": {:.0},\n  \
         \"events_per_sec_direct_net\": {:.0},\n  \"events_per_sec_sock_facade\": {:.0},\n  \
         \"facade_overhead_ratio\": {:.3},\n  \
         \"wheel_speedup_vs_heap\": {:.3},\n  \"cells\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        repeats,
        eps_off,
        eps_on,
        rps_on,
        tel_eps_off,
        tel_eps_on,
        overhead_pct,
        fleet_seq.events_per_sec(),
        fleet_bat.events_per_sec(),
        eps_direct,
        eps_facade,
        facade_ratio,
        sched_speedup,
        rows.join(",\n"),
    );
    std::fs::write(&out_path, json).expect("write BENCH_tcpsim.json");
    println!("wrote {out_path}");
}
