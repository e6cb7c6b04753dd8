//! The network: connections, links, the event loop, and the application
//! interface.
//!
//! [`Sim`] couples a [`Net`] (all TCP/link state) with a user [`App`] (the
//! protocol-above-TCP state machine — in this workspace, clients,
//! front-end proxies and back-end data centers). Events are processed one
//! at a time; each may queue application callbacks, which are delivered
//! with `&mut Net` so handlers can immediately send data, open
//! connections, close, or arm timers.

use crate::endpoint::{AckPolicy, AckReaction, Endpoint, TcpState};
use crate::opts::TcpOptions;
use crate::segment::{Marker, MetaSpan, PktKind, Segment, SpanVec};
use crate::trace::{PktDir, TraceLog};
use simcore::dist::{Dist, Sampler};
use simcore::queue::{EventQueue, LazyTimer, TimerPop};
use simcore::rng::Rng;
use simcore::telemetry::MetricsRegistry;
use simcore::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Identifier of a simulated host (assigned by the application).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifier of a connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u32);

/// Which side of a connection; `A` is the initiator (client side).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum End {
    /// The initiator.
    A,
    /// The acceptor.
    B,
}

impl End {
    /// Array index for this end.
    pub fn idx(self) -> usize {
        match self {
            End::A => 0,
            End::B => 1,
        }
    }

    /// The opposite end.
    pub fn other(self) -> End {
        match self {
            End::A => End::B,
            End::B => End::A,
        }
    }
}

/// A span of bytes delivered in order to the application (re-export of
/// [`MetaSpan`] under the name the `App` trait uses).
pub type DeliveredSpan = MetaSpan;

/// Path parameters between the two endpoints of a connection.
#[derive(Clone, Debug)]
pub struct PathParams {
    /// Fixed one-way delay in ms (propagation + base).
    pub base_owd_ms: f64,
    /// Per-packet one-way jitter in ms (non-negative distribution).
    pub jitter_ms: Dist,
    /// Per-packet, per-direction loss probability.
    pub loss: f64,
    /// Bottleneck bandwidth, Mbit/s.
    pub bw_mbps: f64,
}

impl PathParams {
    /// An ideal loss-free path with the given RTT and ample bandwidth —
    /// the workhorse of unit tests.
    pub fn ideal(rtt_ms: f64) -> PathParams {
        PathParams {
            base_owd_ms: rtt_ms / 2.0,
            jitter_ms: Dist::Constant(0.0),
            loss: 0.0,
            bw_mbps: 10_000.0,
        }
    }

    /// Same as [`PathParams::ideal`] but with a loss rate.
    pub fn lossy(rtt_ms: f64, loss: f64) -> PathParams {
        PathParams {
            loss,
            ..PathParams::ideal(rtt_ms)
        }
    }

    /// One-way serialization delay of a packet of `bytes`.
    pub fn serialization(&self, bytes: u32) -> SimDuration {
        SimDuration::from_millis_f64((bytes as f64 * 8.0) / (self.bw_mbps * 1000.0))
    }
}

/// What part of the topology a [`LinkFault`] applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTarget {
    /// Every packet to or from this node (a host/site outage).
    Node(NodeId),
    /// Packets on connections between these two nodes, either direction
    /// (a single path episode).
    Link(NodeId, NodeId),
}

impl FaultTarget {
    fn matches(&self, nodes: [NodeId; 2]) -> bool {
        match *self {
            FaultTarget::Node(n) => nodes[0] == n || nodes[1] == n,
            FaultTarget::Link(a, b) => {
                (nodes[0] == a && nodes[1] == b) || (nodes[0] == b && nodes[1] == a)
            }
        }
    }
}

/// The drop behaviour of a [`LinkFault`] while its window is active.
#[derive(Clone, Copy, Debug)]
pub enum LinkFaultKind {
    /// Drop every matching packet (outage).
    Blackhole,
    /// Drop each matching packet independently with this probability,
    /// on top of the path's own loss.
    ExtraLoss {
        /// Additional per-packet drop probability.
        loss: f64,
    },
    /// A Gilbert–Elliott two-state chain advanced once per matching
    /// packet: in the good state packets pass; entering the bad state
    /// (probability `p_enter` per packet) drops packets with
    /// probability `bad_loss` until the chain exits (probability
    /// `p_exit` per packet) — loss arrives in bursts, the pattern that
    /// defeats fast retransmit and forces RTO recovery.
    Burst {
        /// Per-packet probability of entering the bad state.
        p_enter: f64,
        /// Per-packet probability of leaving the bad state.
        p_exit: f64,
        /// Drop probability while in the bad state.
        bad_loss: f64,
    },
}

/// A scheduled fault on part of the topology: within `[start, end)`,
/// matching packets are subject to `kind`. All randomness is drawn from
/// the network's dedicated fault stream (`"tcpsim/fault"`), so a net
/// with no faults installed — or whose fault windows never activate —
/// produces byte-identical trajectories to one built before this
/// machinery existed.
#[derive(Clone, Debug)]
pub struct LinkFault {
    /// What the fault applies to.
    pub target: FaultTarget,
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
    /// Drop behaviour inside the window.
    pub kind: LinkFaultKind,
    /// Gilbert–Elliott chain state (burst faults only).
    bad: bool,
}

impl LinkFault {
    /// A total outage of one node over a window.
    pub fn node_outage(node: NodeId, start: SimTime, end: SimTime) -> LinkFault {
        LinkFault {
            target: FaultTarget::Node(node),
            start,
            end,
            kind: LinkFaultKind::Blackhole,
            bad: false,
        }
    }

    /// A total outage of one path over a window.
    pub fn link_outage(a: NodeId, b: NodeId, start: SimTime, end: SimTime) -> LinkFault {
        LinkFault {
            target: FaultTarget::Link(a, b),
            start,
            end,
            kind: LinkFaultKind::Blackhole,
            bad: false,
        }
    }

    /// Extra Bernoulli loss on one path over a window.
    pub fn extra_loss(a: NodeId, b: NodeId, start: SimTime, end: SimTime, loss: f64) -> LinkFault {
        LinkFault {
            target: FaultTarget::Link(a, b),
            start,
            end,
            kind: LinkFaultKind::ExtraLoss { loss },
            bad: false,
        }
    }

    /// A Gilbert–Elliott burst-loss episode on one path over a window.
    pub fn burst_loss(
        a: NodeId,
        b: NodeId,
        start: SimTime,
        end: SimTime,
        p_enter: f64,
        p_exit: f64,
        bad_loss: f64,
    ) -> LinkFault {
        LinkFault {
            target: FaultTarget::Link(a, b),
            start,
            end,
            kind: LinkFaultKind::Burst {
                p_enter,
                p_exit,
                bad_loss,
            },
            bad: false,
        }
    }
}

/// The application protocol driven by the simulator.
///
/// All callbacks receive `&mut Net` and may call [`Net::open`],
/// [`Net::send`], [`Net::close`], [`Net::set_timer`] freely.
pub trait App {
    /// The connection completed its handshake at `end`.
    fn on_established(&mut self, net: &mut Net, conn: ConnId, end: End);
    /// In-order data arrived at `end`.
    fn on_data(&mut self, net: &mut Net, conn: ConnId, end: End, spans: &[DeliveredSpan]);
    /// The peer's FIN was consumed at `end` (stream fully received).
    fn on_fin(&mut self, net: &mut Net, conn: ConnId, end: End) {
        let _ = (net, conn, end);
    }
    /// An application timer armed with [`Net::set_timer`] fired.
    fn on_timer(&mut self, net: &mut Net, token: u64) {
        let _ = (net, token);
    }
}

/// An endpoint's two protocol timers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TimerKind {
    Rto,
    DelAck,
}

enum Ev {
    Deliver {
        conn: ConnId,
        to: End,
        seg: Segment,
    },
    /// A [`LazyTimer`] event, queued under seq `seq`.
    Timer {
        conn: ConnId,
        end: End,
        kind: TimerKind,
        seq: u64,
    },
    AppTimer {
        token: u64,
    },
}

enum Cb {
    Established {
        conn: ConnId,
        end: End,
    },
    Data {
        conn: ConnId,
        end: End,
        spans: SpanVec,
    },
    Fin {
        conn: ConnId,
        end: End,
    },
    Timer {
        token: u64,
    },
}

struct Conn {
    nodes: [NodeId; 2],
    session: u64,
    path: PathParams,
    rng: Rng,
    busy_until: [SimTime; 2],
    // Highest arrival time scheduled per direction: a single path is a
    // FIFO queue, so jitter may stretch gaps but never reorder packets.
    last_arrival: [SimTime; 2],
    ep: [Endpoint; 2],
    syn_time: SimTime,
    handshake_retx: bool,
    fin_cb_fired: [bool; 2],
    aborted: bool,
}

/// All network state: connections, event queue, traces.
pub struct Net {
    q: EventQueue<Ev>,
    conns: Vec<Conn>,
    trace: TraceLog,
    cbs: VecDeque<Cb>,
    app_rng: Rng,
    // Fault-injection state: scheduled link/node faults and the dedicated
    // RNG stream they draw from. No fault ⇒ no draw ⇒ every other stream
    // is untouched.
    faults: Vec<LinkFault>,
    fault_rng: Rng,
    seed: u64,
    max_events: u64,
    // Observe-only telemetry: records retransmit/cwnd-reset counts and
    // handshake RTTs but draws no randomness and schedules nothing, so
    // it cannot perturb the simulated trajectory.
    metrics: MetricsRegistry,
}

impl Net {
    fn new(seed: u64) -> Net {
        Net {
            q: EventQueue::new(),
            conns: Vec::new(),
            trace: TraceLog::new(),
            cbs: VecDeque::new(),
            app_rng: Rng::from_seed_and_name(seed, "tcpsim/app"),
            faults: Vec::new(),
            fault_rng: Rng::from_seed_and_name(seed, "tcpsim/fault"),
            seed,
            max_events: 2_000_000_000,
            metrics: MetricsRegistry::from_env(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.q.now()
    }

    /// A generator for application-level randomness (its own stream).
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.app_rng
    }

    /// The packet trace store.
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Mutable access to the packet trace store (set the capture point,
    /// take sessions).
    pub fn trace_mut(&mut self) -> &mut TraceLog {
        &mut self.trace
    }

    /// The transport-layer telemetry registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable access to the telemetry registry (toggle the runtime
    /// gate, record app-level metrics into the same document).
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Harvests the telemetry registry, stamping the end-of-run gauges
    /// (event-queue slab high-water mark, events processed, trace
    /// records) first. Leaves an empty registry with the same gate.
    pub fn take_metrics(&mut self) -> MetricsRegistry {
        if self.metrics.is_enabled() {
            self.metrics
                .set_gauge("tcpsim.slab_high_water_slots", self.q.slab_slots() as f64);
            self.metrics
                .set_gauge("tcpsim.events_processed", self.q.events_processed() as f64);
            self.metrics
                .set_gauge("tcpsim.trace_recorded_pkts", self.trace.recorded() as f64);
            // Timing-wheel scheduler health: cascade traffic, overflow
            // promotions, and the bucket-occupancy high-water mark.
            self.metrics
                .set_gauge("tcpsim.wheel_cascade_moves", self.q.cascade_moves() as f64);
            self.metrics.set_gauge(
                "tcpsim.wheel_overflow_promotions",
                self.q.overflow_promotions() as f64,
            );
            self.metrics.set_gauge(
                "tcpsim.wheel_max_drain_batch",
                self.q.max_drain_batch() as f64,
            );
            // Horizon demotions signal a pathological schedule pattern
            // (far-future commit then near traffic); emit only when one
            // fired so a clean run's metrics.tsv stays clean.
            if self.q.horizon_demotions() > 0 {
                self.metrics.set_gauge(
                    "tcpsim.wheel_horizon_demotions",
                    self.q.horizon_demotions() as f64,
                );
            }
            // Release-mode past-schedule clamps are a latent logic bug;
            // only emit the counter when one actually fired so a clean
            // run's metrics.tsv stays clean.
            if self.q.sched_past_clamps() > 0 {
                self.metrics
                    .add("tcpsim.sched_past_clamps", self.q.sched_past_clamps());
            }
        }
        self.metrics.take()
    }

    /// Caps the number of processed events (runaway guard).
    pub fn set_max_events(&mut self, max: u64) {
        self.max_events = max;
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.q.events_processed()
    }

    /// Number of events still waiting in the queue (0 ⇔ the simulation
    /// has quiesced).
    pub fn pending_events(&self) -> usize {
        self.q.len()
    }

    /// Virtual time of the earliest pending event, if any. Drivers that
    /// step the simulation in fixed-size time chunks need this to skip
    /// ahead when the next event lies beyond the current chunk —
    /// otherwise a lone far-future timer (a hedge or fault window that
    /// outlived its query) would stall the chunk loop forever.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.q.peek_time()
    }

    /// Opens a connection from node `a` to node `b` over `path`; the SYN
    /// leaves immediately. `session` tags all trace events of this
    /// connection (the query id in the measurement harness).
    pub fn open(
        &mut self,
        a: NodeId,
        b: NodeId,
        path: PathParams,
        opts_a: TcpOptions,
        opts_b: TcpOptions,
        session: u64,
    ) -> ConnId {
        let cid = ConnId(self.conns.len() as u32);
        let rng = Rng::from_seed_and_name(self.seed, &format!("tcpsim/conn/{}/{}", cid.0, session));
        let mut conn = Conn {
            nodes: [a, b],
            session,
            path,
            rng,
            busy_until: [SimTime::ZERO; 2],
            last_arrival: [SimTime::ZERO; 2],
            ep: [Endpoint::new(opts_a), Endpoint::new(opts_b)],
            syn_time: self.now(),
            handshake_retx: false,
            fin_cb_fired: [false, false],
            aborted: false,
        };
        conn.ep[0].state = TcpState::SynSent;
        conn.ep[0].syn_sent_count = 1;
        self.conns.push(conn);
        let syn = self.make_ctl(cid, End::A, PktKind::Syn);
        self.transmit(cid, End::A, syn);
        self.arm_rto(cid, End::A);
        cid
    }

    /// Appends `len` application bytes tagged `(marker, content)` to the
    /// `end` side's send stream and transmits as the window allows.
    pub fn send(&mut self, conn: ConnId, end: End, len: u64, marker: Marker, content: u64) {
        self.conns[conn.0 as usize].ep[end.idx()].push_chunk(len, marker, content);
        self.pump(conn, end);
    }

    /// Requests an orderly close from `end` (FIN after all queued data).
    pub fn close(&mut self, conn: ConnId, end: End) {
        self.conns[conn.0 as usize].ep[end.idx()].fin_pending = true;
        self.pump(conn, end);
    }

    /// Arms an application timer; `token` is returned in
    /// [`App::on_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.q.schedule_in(delay, Ev::AppTimer { token });
    }

    /// TCP state of one side.
    pub fn state(&self, conn: ConnId, end: End) -> TcpState {
        self.conns[conn.0 as usize].ep[end.idx()].state
    }

    /// Congestion window (bytes) of one side — exposed for tests and the
    /// split-TCP ablation instrumentation.
    pub fn cwnd(&self, conn: ConnId, end: End) -> f64 {
        self.conns[conn.0 as usize].ep[end.idx()].cwnd
    }

    /// Smoothed RTT estimate of one side, in ms.
    pub fn srtt_ms(&self, conn: ConnId, end: End) -> Option<f64> {
        self.conns[conn.0 as usize].ep[end.idx()].srtt_ms
    }

    /// Bytes delivered in order to the application at `end`.
    pub fn delivered_bytes(&self, conn: ConnId, end: End) -> u64 {
        self.conns[conn.0 as usize].ep[end.idx()].rcv_nxt
    }

    /// Loss-recovery counters of one side.
    pub fn conn_stats(&self, conn: ConnId, end: End) -> crate::endpoint::ConnStats {
        self.conns[conn.0 as usize].ep[end.idx()].stats
    }

    /// The session tag a connection was opened with.
    pub fn session_of(&self, conn: ConnId) -> u64 {
        self.conns[conn.0 as usize].session
    }

    /// Re-tags a connection's future trace events with a new session id.
    /// Persistent (pooled) connections carry many queries over their
    /// lifetime; the split-TCP proxy re-tags at every checkout so each
    /// query's packets land in its own trace bucket.
    pub fn set_session(&mut self, conn: ConnId, session: u64) {
        self.conns[conn.0 as usize].session = session;
    }

    /// Installs a scheduled fault. Faults are consulted on every packet
    /// transmission while their window is active; an empty fault list
    /// costs nothing and draws no randomness.
    pub fn add_link_fault(&mut self, fault: LinkFault) {
        self.faults.push(fault);
    }

    /// Tears a connection down immediately and silently: both endpoints
    /// stop sending, pending retransmission/delayed-ACK timers are
    /// disarmed, in-flight packets are discarded on arrival, and **no**
    /// `on_fin` callback fires. This models a crashed peer or a proxy
    /// discarding a connection it has declared dead — the abstraction
    /// failure recovery needs: a reconnect after `abort` starts from a
    /// cold congestion window.
    pub fn abort(&mut self, conn: ConnId) {
        let c = &mut self.conns[conn.0 as usize];
        c.aborted = true;
        for i in 0..2 {
            c.ep[i].rto_timer.disarm();
            c.ep[i].delack_timer.disarm();
            c.fin_cb_fired[i] = true;
        }
    }

    /// True when [`Net::abort`] was called on this connection.
    pub fn is_aborted(&self, conn: ConnId) -> bool {
        self.conns[conn.0 as usize].aborted
    }

    // ---- internals ----

    fn make_ctl(&mut self, cid: ConnId, from: End, kind: PktKind) -> Segment {
        let c = &self.conns[cid.0 as usize];
        let ep = &c.ep[from.idx()];
        Segment {
            kind,
            seq: ep.snd_nxt,
            len: 0,
            ack: ep.rcv_nxt,
            push: false,
            wnd: ep.opts.rwnd,
            meta: SpanVec::new(),
        }
    }

    fn transmit(&mut self, cid: ConnId, from: End, seg: Segment) {
        let now = self.now();
        let c = &mut self.conns[cid.0 as usize];
        if c.aborted {
            return;
        }
        let node = c.nodes[from.idx()];
        self.trace
            .record(now, node, cid, c.session, PktDir::Tx, &seg);
        c.ep[from.idx()].last_send = now;
        // Serialization at the bottleneck (per direction).
        let ser = c.path.serialization(seg.wire_bytes());
        let dep_start = if c.busy_until[from.idx()] > now {
            c.busy_until[from.idx()]
        } else {
            now
        };
        let dep_end = dep_start + ser;
        c.busy_until[from.idx()] = dep_end;
        // Scheduled faults first (they model the outside world failing,
        // not this path's own loss process). Checked without any RNG
        // draw unless a probabilistic fault window is active, so an
        // empty fault list leaves all trajectories untouched.
        let mut fault_drop = false;
        for f in self.faults.iter_mut() {
            if now < f.start || now >= f.end || !f.target.matches(c.nodes) {
                continue;
            }
            match f.kind {
                LinkFaultKind::Blackhole => fault_drop = true,
                LinkFaultKind::ExtraLoss { loss } => {
                    if self.fault_rng.chance(loss) {
                        fault_drop = true;
                    }
                }
                LinkFaultKind::Burst {
                    p_enter,
                    p_exit,
                    bad_loss,
                } => {
                    if f.bad {
                        if self.fault_rng.chance(p_exit) {
                            f.bad = false;
                        }
                    } else if self.fault_rng.chance(p_enter) {
                        f.bad = true;
                    }
                    if f.bad && self.fault_rng.chance(bad_loss) {
                        fault_drop = true;
                    }
                }
            }
        }
        if fault_drop {
            self.trace
                .record(now, node, cid, c.session, PktDir::Drop, &seg);
            return;
        }
        // Loss coin (after consuming the wire).
        if c.rng.chance(c.path.loss) {
            self.trace
                .record(now, node, cid, c.session, PktDir::Drop, &seg);
            return;
        }
        let jitter = c.path.jitter_ms.sample(&mut c.rng).max(0.0);
        let mut arrival = dep_end + SimDuration::from_millis_f64(c.path.base_owd_ms + jitter);
        // FIFO per direction: never deliver before an earlier packet.
        let floor = c.last_arrival[from.idx()] + SimDuration::from_nanos(1);
        if arrival < floor {
            arrival = floor;
        }
        c.last_arrival[from.idx()] = arrival;
        self.q.schedule_at(
            arrival,
            Ev::Deliver {
                conn: cid,
                to: from.other(),
                seg,
            },
        );
    }

    fn timer_mut(&mut self, cid: ConnId, end: End, kind: TimerKind) -> &mut LazyTimer {
        let ep = &mut self.conns[cid.0 as usize].ep[end.idx()];
        match kind {
            TimerKind::Rto => &mut ep.rto_timer,
            TimerKind::DelAck => &mut ep.delack_timer,
        }
    }

    /// (Re-)arms one endpoint timer `delay` from now. The deadline takes
    /// a fresh queue seq either way; an event is queued only when the
    /// timer has none queued at or before the deadline (see
    /// [`LazyTimer`]).
    fn arm_timer(&mut self, cid: ConnId, end: End, kind: TimerKind, delay: SimDuration) {
        let at = self.now() + delay;
        let seq = self.q.reserve_seq();
        if self.timer_mut(cid, end, kind).arm(at, seq) {
            self.queue_timer(cid, end, kind, at, seq);
        }
    }

    fn queue_timer(&mut self, conn: ConnId, end: End, kind: TimerKind, at: SimTime, seq: u64) {
        let ev = Ev::Timer {
            conn,
            end,
            kind,
            seq,
        };
        self.q.schedule_keyed(at, seq, ev);
    }

    /// A timer event popped: fire the handler, carry a moved deadline
    /// forward, or drop a stale event.
    fn handle_timer(&mut self, cid: ConnId, end: End, kind: TimerKind, seq: u64) {
        match self.timer_mut(cid, end, kind).on_pop(seq) {
            TimerPop::Fire => match kind {
                TimerKind::Rto => self.handle_rto(cid, end),
                TimerKind::DelAck => self.handle_delack(cid, end),
            },
            TimerPop::Requeue(at, seq) => self.queue_timer(cid, end, kind, at, seq),
            TimerPop::Stale => {}
        }
    }

    fn arm_rto(&mut self, cid: ConnId, end: End) {
        let rto = self.conns[cid.0 as usize].ep[end.idx()].rto;
        self.arm_timer(cid, end, TimerKind::Rto, rto);
    }

    fn cancel_rto(&mut self, cid: ConnId, end: End) {
        self.conns[cid.0 as usize].ep[end.idx()].rto_timer.disarm();
    }

    /// Sends fresh data as the window allows; returns true if anything
    /// payload-bearing (or FIN) left.
    fn pump(&mut self, cid: ConnId, end: End) -> bool {
        let now = self.now();
        let mut sent_any = false;
        loop {
            let c = &mut self.conns[cid.0 as usize];
            let ep = &mut c.ep[end.idx()];
            if ep.state != TcpState::Established {
                break;
            }
            ep.maybe_idle_reset(now);
            let usable = ep.usable_window();
            if ep.snd_nxt < ep.stream_len {
                let remaining = ep.stream_len - ep.snd_nxt;
                let len = (ep.opts.mss as u64).min(remaining) as u32;
                if (len as u64) > usable {
                    break;
                }
                // Nagle: hold a sub-MSS tail while older data is in
                // flight (it will ride out on the next ACK).
                if ep.opts.nagle && (len as u64) < ep.opts.mss as u64 && ep.in_flight() > 0 {
                    break;
                }
                let seq = ep.snd_nxt;
                let meta = ep.meta_for_range(seq, len);
                let push = ep.range_ends_chunk(seq, len);
                if ep.rtt_probe.is_none() {
                    ep.rtt_probe = Some((seq + len as u64, now));
                }
                ep.snd_nxt += len as u64;
                let seg = Segment {
                    kind: PktKind::Data,
                    seq,
                    len,
                    ack: ep.rcv_nxt,
                    push,
                    wnd: ep.opts.rwnd,
                    meta,
                };
                // A data segment carries the ACK: cancel any pending
                // delayed ACK.
                ep.delack_timer.disarm();
                let need_arm = !ep.rto_timer.is_armed();
                self.transmit(cid, end, seg);
                if need_arm {
                    self.arm_rto(cid, end);
                }
                sent_any = true;
            } else if ep.fin_pending && !ep.fin_sent && usable > 0 {
                ep.fin_sent = true;
                ep.snd_nxt += 1;
                let seg = Segment {
                    kind: PktKind::Fin,
                    seq: ep.stream_len,
                    len: 0,
                    ack: ep.rcv_nxt,
                    push: true,
                    wnd: ep.opts.rwnd,
                    meta: SpanVec::new(),
                };
                ep.delack_timer.disarm();
                let need_arm = !ep.rto_timer.is_armed();
                self.transmit(cid, end, seg);
                if need_arm {
                    self.arm_rto(cid, end);
                }
                sent_any = true;
            } else {
                break;
            }
        }
        sent_any
    }

    fn retransmit_una(&mut self, cid: ConnId, end: End) {
        let c = &mut self.conns[cid.0 as usize];
        let ep = &mut c.ep[end.idx()];
        if ep.in_flight() == 0 {
            return;
        }
        let seq = ep.snd_una;
        let seg = if seq >= ep.stream_len {
            // The unacked byte is the FIN.
            Segment {
                kind: PktKind::Fin,
                seq: ep.stream_len,
                len: 0,
                ack: ep.rcv_nxt,
                push: true,
                wnd: ep.opts.rwnd,
                meta: SpanVec::new(),
            }
        } else {
            let len = (ep.opts.mss as u64)
                .min(ep.stream_len - seq)
                .min(ep.snd_nxt - seq) as u32;
            let meta = ep.meta_for_range(seq, len);
            let push = ep.range_ends_chunk(seq, len);
            Segment {
                kind: PktKind::Data,
                seq,
                len,
                ack: ep.rcv_nxt,
                push,
                wnd: ep.opts.rwnd,
                meta,
            }
        };
        ep.rtt_probe = None; // Karn: no sample across retransmission
        ep.stats.retransmitted_segs += 1;
        self.metrics.inc("tcpsim.retransmit_segs");
        self.transmit(cid, end, seg);
        self.arm_rto(cid, end);
    }

    fn send_ack_now(&mut self, cid: ConnId, end: End) {
        self.conns[cid.0 as usize].ep[end.idx()]
            .delack_timer
            .disarm();
        let ack = self.make_ctl(cid, end, PktKind::Ack);
        self.transmit(cid, end, ack);
    }

    fn arm_delack(&mut self, cid: ConnId, end: End) {
        let ep = &self.conns[cid.0 as usize].ep[end.idx()];
        if ep.delack_timer.is_armed() {
            return;
        }
        let dt = ep.opts.delack_timeout;
        self.arm_timer(cid, end, TimerKind::DelAck, dt);
    }

    fn establish(&mut self, cid: ConnId, end: End) {
        let c = &mut self.conns[cid.0 as usize];
        let ep = &mut c.ep[end.idx()];
        if ep.state == TcpState::Established {
            return;
        }
        ep.state = TcpState::Established;
        self.cancel_rto(cid, end);
        // Handshake RTT sample (Karn: only if never retransmitted).
        let c = &mut self.conns[cid.0 as usize];
        if end == End::A && !c.handshake_retx {
            let sample = self.q.now().saturating_since(c.syn_time);
            c.ep[end.idx()].rtt_sample(sample);
            self.metrics.observe_virt("tcpsim.handshake_rtt_ms", sample);
        }
        self.cbs.push_back(Cb::Established { conn: cid, end });
    }

    fn handle_deliver(&mut self, cid: ConnId, to: End, seg: Segment) {
        let now = self.now();
        {
            let c = &self.conns[cid.0 as usize];
            if c.aborted {
                // Packets in flight when the connection was torn down
                // arrive at a dead socket: discarded, unrecorded.
                return;
            }
            let node = c.nodes[to.idx()];
            self.trace
                .record(now, node, cid, c.session, PktDir::Rx, &seg);
        }
        match seg.kind {
            PktKind::Syn => {
                let state = self.conns[cid.0 as usize].ep[to.idx()].state;
                match state {
                    TcpState::Closed => {
                        self.conns[cid.0 as usize].ep[to.idx()].state = TcpState::SynRcvd;
                        let sa = self.make_ctl(cid, to, PktKind::SynAck);
                        self.transmit(cid, to, sa);
                        self.arm_rto(cid, to);
                    }
                    TcpState::SynRcvd => {
                        // Duplicate SYN: resend SYN-ACK.
                        let sa = self.make_ctl(cid, to, PktKind::SynAck);
                        self.transmit(cid, to, sa);
                    }
                    _ => {}
                }
            }
            PktKind::SynAck => {
                let state = self.conns[cid.0 as usize].ep[to.idx()].state;
                if state == TcpState::SynSent {
                    self.establish(cid, to);
                    let ack = self.make_ctl(cid, to, PktKind::Ack);
                    self.transmit(cid, to, ack);
                    // Data queued before the handshake completed can
                    // leave now.
                    self.pump(cid, to);
                } else if state == TcpState::Established {
                    // Our handshake ACK was lost; re-ack.
                    let ack = self.make_ctl(cid, to, PktKind::Ack);
                    self.transmit(cid, to, ack);
                }
            }
            PktKind::Ack | PktKind::Data | PktKind::Fin => {
                if self.conns[cid.0 as usize].ep[to.idx()].state == TcpState::SynRcvd {
                    self.establish(cid, to);
                    self.pump(cid, to);
                }
                // --- sender-side: process the cumulative ACK ---
                let reaction = {
                    let ep = &mut self.conns[cid.0 as usize].ep[to.idx()];
                    ep.on_ack(seg.ack, seg.wnd, now, seg.has_payload())
                };
                match reaction {
                    AckReaction::FastRetransmit | AckReaction::PartialRetransmit => {
                        if reaction == AckReaction::FastRetransmit {
                            self.metrics.inc("tcpsim.fast_retransmits");
                        }
                        self.retransmit_una(cid, to);
                    }
                    _ => {}
                }
                {
                    let ep = &self.conns[cid.0 as usize].ep[to.idx()];
                    let flight = ep.in_flight();
                    let advanced = matches!(
                        reaction,
                        AckReaction::Advance | AckReaction::PartialRetransmit
                    );
                    if flight == 0 {
                        if ep.rto_timer.is_armed() {
                            self.cancel_rto(cid, to);
                        }
                    } else if advanced {
                        self.arm_rto(cid, to);
                    }
                }
                self.pump(cid, to);
                // --- receiver-side: payload / FIN ---
                if seg.kind == PktKind::Data || seg.kind == PktKind::Fin {
                    let fin = seg.kind == PktKind::Fin;
                    let (spans, policy) = {
                        let ep = &mut self.conns[cid.0 as usize].ep[to.idx()];
                        ep.accept(seg.seq, seg.len, seg.push, fin, seg.meta)
                    };
                    if !spans.is_empty() {
                        self.cbs.push_back(Cb::Data {
                            conn: cid,
                            end: to,
                            spans,
                        });
                    }
                    {
                        let c = &mut self.conns[cid.0 as usize];
                        if c.ep[to.idx()].peer_fin_rcvd && !c.fin_cb_fired[to.idx()] {
                            c.fin_cb_fired[to.idx()] = true;
                            self.cbs.push_back(Cb::Fin { conn: cid, end: to });
                        }
                    }
                    match policy {
                        AckPolicy::Immediate => self.send_ack_now(cid, to),
                        AckPolicy::Delayed => self.arm_delack(cid, to),
                    }
                }
                // --- lifecycle: both sides done? ---
                let c = &mut self.conns[cid.0 as usize];
                for i in 0..2 {
                    let done = c.ep[i].fin_sent && c.ep[i].all_acked() && c.ep[i].peer_fin_rcvd;
                    if done {
                        c.ep[i].state = TcpState::Done;
                    }
                }
            }
        }
    }

    /// The retransmission timer fired at its live deadline.
    fn handle_rto(&mut self, cid: ConnId, end: End) {
        let c = &self.conns[cid.0 as usize];
        if c.aborted {
            return;
        }
        let state = c.ep[end.idx()].state;
        match state {
            TcpState::SynSent => {
                {
                    let c = &mut self.conns[cid.0 as usize];
                    c.handshake_retx = true;
                    let ep = &mut c.ep[end.idx()];
                    ep.rto = ep.rto.saturating_mul(2).min(ep.opts.max_rto);
                    ep.syn_sent_count += 1;
                }
                let syn = self.make_ctl(cid, end, PktKind::Syn);
                self.transmit(cid, end, syn);
                self.arm_rto(cid, end);
            }
            TcpState::SynRcvd => {
                {
                    let c = &mut self.conns[cid.0 as usize];
                    c.handshake_retx = true;
                    let ep = &mut c.ep[end.idx()];
                    ep.rto = ep.rto.saturating_mul(2).min(ep.opts.max_rto);
                }
                let sa = self.make_ctl(cid, end, PktKind::SynAck);
                self.transmit(cid, end, sa);
                self.arm_rto(cid, end);
            }
            TcpState::Established | TcpState::Done => {
                let flight = self.conns[cid.0 as usize].ep[end.idx()].in_flight();
                if flight == 0 {
                    self.cancel_rto(cid, end);
                    return;
                }
                self.conns[cid.0 as usize].ep[end.idx()].on_rto_fire();
                // RTO fire collapses the congestion window back to
                // slow-start — the paper's "cold cwnd" penalty.
                self.metrics.inc("tcpsim.cwnd_resets");
                self.retransmit_una(cid, end);
            }
            TcpState::Closed => {}
        }
    }

    /// The delayed-ACK timer fired at its live deadline.
    fn handle_delack(&mut self, cid: ConnId, end: End) {
        if !self.conns[cid.0 as usize].aborted {
            self.send_ack_now(cid, end);
        }
    }
}

/// The simulator: a [`Net`] plus the user's [`App`].
pub struct Sim<A: App> {
    net: Net,
    app: A,
}

impl<A: App> Sim<A> {
    /// Creates a simulator with the given experiment seed.
    pub fn new(seed: u64, app: A) -> Sim<A> {
        Sim {
            net: Net::new(seed),
            app,
        }
    }

    /// The network handle (open connections, set timers, read traces).
    pub fn net(&mut self) -> &mut Net {
        &mut self.net
    }

    /// Read-only application access.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Mutable application access.
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }

    /// Consumes the simulator, returning the application.
    pub fn into_app(self) -> A {
        self.app
    }

    /// Grants simultaneous mutable access to the application and the
    /// network — needed when scenario code wants to schedule work through
    /// app state (e.g. `world.schedule_query(net, ...)`).
    pub fn with<R>(&mut self, f: impl FnOnce(&mut A, &mut Net) -> R) -> R {
        f(&mut self.app, &mut self.net)
    }

    fn drain_callbacks(&mut self) {
        while let Some(cb) = self.net.cbs.pop_front() {
            match cb {
                Cb::Established { conn, end } => self.app.on_established(&mut self.net, conn, end),
                Cb::Data { conn, end, spans } => self.app.on_data(&mut self.net, conn, end, &spans),
                Cb::Fin { conn, end } => self.app.on_fin(&mut self.net, conn, end),
                Cb::Timer { token } => self.app.on_timer(&mut self.net, token),
            }
        }
    }

    /// Runs until the event queue is empty. Panics if the event budget is
    /// exceeded (runaway-simulation guard).
    pub fn run(&mut self) {
        self.run_until(SimTime::MAX);
    }

    /// Runs until the queue is empty or the next event is later than
    /// `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            match self.net.q.peek_time() {
                Some(t) if t <= deadline => {}
                _ => break,
            }
            assert!(
                self.net.q.events_processed() < self.net.max_events,
                "event budget exceeded: simulation did not quiesce"
            );
            let (_, ev) = self.net.q.pop().unwrap();
            match ev {
                Ev::Deliver { conn, to, seg } => self.net.handle_deliver(conn, to, seg),
                Ev::Timer {
                    conn,
                    end,
                    kind,
                    seq,
                } => self.net.handle_timer(conn, end, kind, seq),
                Ev::AppTimer { token } => self.net.cbs.push_back(Cb::Timer { token }),
            }
            self.drain_callbacks();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A simple client/server app: A sends a request; B replies with a
    /// fixed-size response and closes. Used to exercise the whole stack.
    struct Echoish {
        request: u64,
        response: u64,
        established_at: Vec<(End, SimTime)>,
        data_events: Vec<(End, SimTime, u64)>,
        fins: Vec<(End, SimTime)>,
        request_done_at: Option<SimTime>,
        response_done_at: Option<SimTime>,
        got: u64,
        req_got: u64,
        timer_fired: Vec<u64>,
    }

    impl Echoish {
        fn new(request: u64, response: u64) -> Echoish {
            Echoish {
                request,
                response,
                established_at: Vec::new(),
                data_events: Vec::new(),
                fins: Vec::new(),
                request_done_at: None,
                response_done_at: None,
                got: 0,
                req_got: 0,
                timer_fired: Vec::new(),
            }
        }
    }

    impl App for Echoish {
        fn on_established(&mut self, net: &mut Net, conn: ConnId, end: End) {
            self.established_at.push((end, net.now()));
            if end == End::A {
                net.send(conn, End::A, self.request, Marker::Request, 1);
            }
        }

        fn on_data(&mut self, net: &mut Net, conn: ConnId, end: End, spans: &[DeliveredSpan]) {
            let bytes: u64 = spans.iter().map(|s| s.len as u64).sum();
            self.data_events.push((end, net.now(), bytes));
            match end {
                End::B => {
                    self.req_got += bytes;
                    if self.req_got == self.request {
                        self.request_done_at = Some(net.now());
                        net.send(conn, End::B, self.response, Marker::Static, 2);
                        net.close(conn, End::B);
                    }
                }
                End::A => {
                    self.got += bytes;
                    if self.got == self.response {
                        self.response_done_at = Some(net.now());
                        net.close(conn, End::A);
                    }
                }
            }
        }

        fn on_fin(&mut self, net: &mut Net, _conn: ConnId, end: End) {
            self.fins.push((end, net.now()));
        }

        fn on_timer(&mut self, _net: &mut Net, token: u64) {
            self.timer_fired.push(token);
        }
    }

    fn run_transfer(rtt_ms: f64, request: u64, response: u64, loss: f64) -> Echoish {
        let mut sim = Sim::new(42, Echoish::new(request, response));
        let path = PathParams::lossy(rtt_ms, loss);
        sim.net().open(
            NodeId(1),
            NodeId(2),
            path,
            TcpOptions::default(),
            TcpOptions::default(),
            1,
        );
        sim.run();
        sim.into_app()
    }

    #[test]
    fn handshake_takes_one_rtt() {
        let app = run_transfer(100.0, 400, 1000, 0.0);
        // A establishes after one RTT (SYN + SYN-ACK).
        let (_, t_a) = app
            .established_at
            .iter()
            .find(|(e, _)| *e == End::A)
            .unwrap();
        let ms = t_a.as_millis_f64();
        assert!((ms - 100.0).abs() < 2.0, "established at {ms}ms");
    }

    #[test]
    fn request_arrives_half_rtt_after_established() {
        let app = run_transfer(100.0, 400, 1000, 0.0);
        let req_at = app.request_done_at.unwrap().as_millis_f64();
        // SYN(50) SYNACK(100) GET leaves ~100, arrives ~150.
        assert!((req_at - 150.0).abs() < 3.0, "request done at {req_at}ms");
    }

    #[test]
    fn response_completes_and_fin_handshake_closes_both() {
        let app = run_transfer(80.0, 400, 30_000, 0.0);
        assert_eq!(app.got, 30_000);
        assert!(app.response_done_at.is_some());
        assert_eq!(app.fins.len(), 2, "both sides saw a FIN");
    }

    #[test]
    fn transfer_is_deterministic() {
        let a = run_transfer(60.0, 400, 20_000, 0.0);
        let b = run_transfer(60.0, 400, 20_000, 0.0);
        assert_eq!(a.response_done_at.unwrap(), b.response_done_at.unwrap());
        assert_eq!(a.data_events.len(), b.data_events.len());
    }

    #[test]
    fn multi_window_response_paced_by_rtt() {
        // 30 KB at IW4, MSS 1460: rounds of ~4,6,9,... segments — at
        // least 3 RTT-spaced delivery rounds.
        let rtt = 100.0;
        let app = run_transfer(rtt, 400, 30_000, 0.0);
        let resp_done = app.response_done_at.unwrap().as_millis_f64();
        let req_done = app.request_done_at.unwrap().as_millis_f64();
        let delivery = resp_done - req_done;
        assert!(
            delivery > 2.0 * rtt,
            "30KB should need >2 window rounds, took {delivery}ms"
        );
        assert!(
            delivery < 6.0 * rtt,
            "delivery suspiciously slow: {delivery}ms"
        );
    }

    #[test]
    fn bigger_initial_window_speeds_up_delivery() {
        let run_with_iw = |iw: u32| {
            let mut sim = Sim::new(42, Echoish::new(400, 30_000));
            sim.net().open(
                NodeId(1),
                NodeId(2),
                PathParams::ideal(100.0),
                TcpOptions::default(),
                TcpOptions::default().with_initial_window(iw),
                1,
            );
            sim.run();
            sim.into_app().response_done_at.unwrap()
        };
        let t_iw4 = run_with_iw(4);
        let t_iw10 = run_with_iw(10);
        assert!(t_iw10 < t_iw4, "IW10 {t_iw10:?} should beat IW4 {t_iw4:?}");
    }

    #[test]
    fn loss_free_run_has_no_drops_and_lossy_run_recovers() {
        let clean = run_transfer(40.0, 400, 50_000, 0.0);
        assert_eq!(clean.got, 50_000);
        // 5% loss: the transfer still completes, just slower.
        let lossy = run_transfer(40.0, 400, 50_000, 0.05);
        assert_eq!(lossy.got, 50_000, "all bytes must arrive despite loss");
        assert!(
            lossy.response_done_at.unwrap() > clean.response_done_at.unwrap(),
            "loss must cost time"
        );
    }

    #[test]
    fn heavy_loss_still_completes() {
        let app = run_transfer(30.0, 400, 20_000, 0.15);
        assert_eq!(app.got, 20_000);
    }

    #[test]
    fn syn_loss_retries_after_initial_rto() {
        // Deterministically lose the first packet: loss = 1 would lose
        // everything, so instead use a path with 30% loss and a seed
        // known to drop the SYN... too brittle. Instead verify the RTO
        // path directly: a 3s-long run with 50% loss must still
        // establish eventually.
        let mut sim = Sim::new(7, Echoish::new(400, 1000));
        sim.net().open(
            NodeId(1),
            NodeId(2),
            PathParams::lossy(20.0, 0.5),
            TcpOptions::default(),
            TcpOptions::default(),
            1,
        );
        sim.run_until(SimTime::from_secs(120));
        let app = sim.into_app();
        assert!(
            app.established_at.iter().any(|(e, _)| *e == End::A),
            "connection must establish under 50% loss given retries"
        );
    }

    #[test]
    fn app_timers_fire_in_order() {
        struct TimerApp {
            fired: Vec<(u64, SimTime)>,
        }
        impl App for TimerApp {
            fn on_established(&mut self, _: &mut Net, _: ConnId, _: End) {}
            fn on_data(&mut self, _: &mut Net, _: ConnId, _: End, _: &[DeliveredSpan]) {}
            fn on_timer(&mut self, net: &mut Net, token: u64) {
                self.fired.push((token, net.now()));
                if token == 1 {
                    net.set_timer(SimDuration::from_millis(5), 3);
                }
            }
        }
        let mut sim = Sim::new(1, TimerApp { fired: Vec::new() });
        sim.net().set_timer(SimDuration::from_millis(10), 1);
        sim.net().set_timer(SimDuration::from_millis(20), 2);
        sim.run();
        let app = sim.into_app();
        assert_eq!(
            app.fired.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![1, 3, 2]
        );
        assert_eq!(app.fired[0].1, SimTime::from_millis(10));
        assert_eq!(app.fired[1].1, SimTime::from_millis(15));
    }

    #[test]
    fn srtt_converges_to_path_rtt() {
        let mut sim = Sim::new(42, Echoish::new(400, 100_000));
        let cid = sim.net().open(
            NodeId(1),
            NodeId(2),
            PathParams::ideal(80.0),
            TcpOptions::default(),
            TcpOptions::default(),
            1,
        );
        sim.run();
        let srtt = sim.net().srtt_ms(cid, End::B).unwrap();
        assert!((srtt - 80.0).abs() < 8.0, "B srtt {srtt}");
    }

    #[test]
    fn cwnd_grows_during_bulk_transfer() {
        let mut sim = Sim::new(42, Echoish::new(400, 200_000));
        let cid = sim.net().open(
            NodeId(1),
            NodeId(2),
            PathParams::ideal(50.0),
            TcpOptions::default(),
            TcpOptions::default(),
            1,
        );
        sim.run();
        let cwnd = sim.net().cwnd(cid, End::B);
        assert!(
            cwnd > 10.0 * 1460.0,
            "200KB clean transfer should grow cwnd well past IW, got {cwnd}"
        );
    }

    #[test]
    fn trace_captures_handshake_and_data() {
        let mut sim = Sim::new(42, Echoish::new(400, 5000));
        sim.net()
            .trace_mut()
            .set_capture(crate::trace::Capture::All);
        sim.net().open(
            NodeId(1),
            NodeId(2),
            PathParams::ideal(50.0),
            TcpOptions::default(),
            TcpOptions::default(),
            77,
        );
        sim.run();
        let events = sim.net().trace_mut().take_session(77);
        assert!(!events.is_empty());
        // Client (node 1) must have sent a SYN and received a SYN-ACK.
        assert!(events
            .iter()
            .any(|e| e.node == NodeId(1) && e.dir == PktDir::Tx && e.kind == PktKind::Syn));
        assert!(events
            .iter()
            .any(|e| e.node == NodeId(1) && e.dir == PktDir::Rx && e.kind == PktKind::SynAck));
        // Data flowed to the client with Static markers.
        assert!(events.iter().any(|e| e.node == NodeId(1)
            && e.dir == PktDir::Rx
            && e.kind == PktKind::Data
            && e.meta.iter().any(|m| m.marker == Marker::Static)));
        // Timestamps are non-decreasing.
        for w in events.windows(2) {
            assert!(w[0].t <= w[1].t);
        }
    }

    #[test]
    fn serialization_delay_is_visible_on_slow_links() {
        // 1 Mbps: a 1500-byte packet takes 12ms to serialize; 10 KB
        // response (7 segments) costs ≥ 84ms of pure serialization.
        let mut sim = Sim::new(42, Echoish::new(400, 10_000));
        let path = PathParams {
            base_owd_ms: 1.0,
            jitter_ms: Dist::Constant(0.0),
            loss: 0.0,
            bw_mbps: 1.0,
        };
        sim.net().open(
            NodeId(1),
            NodeId(2),
            path,
            TcpOptions::default(),
            TcpOptions::default(),
            1,
        );
        sim.run();
        let app = sim.into_app();
        let done = app.response_done_at.unwrap().as_millis_f64();
        assert!(done > 84.0, "completion {done}ms too fast for 1 Mbps");
    }

    #[test]
    fn nagle_plus_delayed_ack_costs_rtt_plus_delack() {
        // 5,000-byte response = 3 full segments + a 620-byte tail. With
        // TCP_NODELAY (default) all four leave in the initial window.
        // With Nagle, the tail waits for all in-flight data to be
        // acknowledged — and the receiver delays the ACK of the odd
        // third segment, so the tail pays RTT + the delayed-ACK timeout:
        // the infamous Nagle × delayed-ACK interaction, emerging from
        // the mechanics rather than being scripted.
        let run = |nagle: bool| {
            let opts_b = if nagle {
                TcpOptions::default().with_nagle()
            } else {
                TcpOptions::default()
            };
            let mut sim = Sim::new(21, Echoish::new(400, 5_000));
            sim.net().open(
                NodeId(1),
                NodeId(2),
                PathParams::ideal(100.0),
                TcpOptions::default(),
                opts_b,
                1,
            );
            sim.run();
            sim.into_app().response_done_at.unwrap()
        };
        let nodelay = run(false);
        let nagle = run(true);
        let extra = nagle.saturating_since(nodelay).as_millis_f64();
        // RTT (100 ms) + delayed-ACK timeout (40 ms).
        assert!(
            (extra - 140.0).abs() < 10.0,
            "Nagle × delack should cost RTT + 40ms, cost {extra}ms"
        );
    }

    #[test]
    fn cubic_backs_off_less_and_finishes_lossy_bulk_sooner() {
        use crate::opts::CongAlgo;
        let run = |cong: CongAlgo| {
            let mut sim = Sim::new(11, Echoish::new(400, 2_000_000));
            sim.net().open(
                NodeId(1),
                NodeId(2),
                PathParams::lossy(80.0, 0.004),
                TcpOptions::default(),
                TcpOptions::default().with_cong(cong),
                1,
            );
            sim.run();
            let app = sim.into_app();
            assert_eq!(app.got, 2_000_000);
            app.response_done_at.unwrap()
        };
        let reno = run(CongAlgo::Reno);
        let cubic = run(CongAlgo::Cubic);
        // Same seed, same loss pattern: CUBIC's gentler back-off (β=0.7)
        // and faster re-growth should not be slower, and typically wins
        // on a long lossy transfer.
        assert!(
            cubic <= reno,
            "cubic {cubic:?} should finish no later than reno {reno:?}"
        );
    }

    #[test]
    fn conn_stats_count_recovery_events() {
        let mut sim = Sim::new(5, Echoish::new(400, 300_000));
        let cid = sim.net().open(
            NodeId(1),
            NodeId(2),
            PathParams::lossy(40.0, 0.03),
            TcpOptions::default(),
            TcpOptions::default(),
            1,
        );
        sim.run();
        let stats = sim.net().conn_stats(cid, End::B);
        assert!(
            stats.retransmitted_segs > 0,
            "3% loss on a 300KB transfer must retransmit"
        );
        assert!(stats.fast_retransmits + stats.timeouts > 0);
        // Clean path: zero recovery events.
        let mut clean = Sim::new(5, Echoish::new(400, 300_000));
        let c2 = clean.net().open(
            NodeId(1),
            NodeId(2),
            PathParams::ideal(40.0),
            TcpOptions::default(),
            TcpOptions::default(),
            1,
        );
        clean.run();
        assert_eq!(
            clean.net().conn_stats(c2, End::B),
            crate::endpoint::ConnStats::default()
        );
    }

    /// Runs the [`Echoish`] transfer on an ideal 100 ms path with the
    /// given scripted fault windows installed, returning the app and the
    /// server-side connection stats.
    fn run_faulty(response: u64, faults: Vec<LinkFault>) -> (Echoish, crate::endpoint::ConnStats) {
        let mut sim = Sim::new(42, Echoish::new(400, response));
        for f in faults {
            sim.net().add_link_fault(f);
        }
        let cid = sim.net().open(
            NodeId(1),
            NodeId(2),
            PathParams::ideal(100.0),
            TcpOptions::default(),
            TcpOptions::default(),
            1,
        );
        sim.run();
        let stats = sim.net().conn_stats(cid, End::B);
        (sim.into_app(), stats)
    }

    #[test]
    fn scripted_burst_loss_triggers_fast_retransmit_not_rto() {
        // Round 2 of the 60 KB response leaves the server at ~250 ms (ACKs
        // of the IW4 round arrive back at one RTT + handshake). A
        // degenerate Gilbert–Elliott episode with p_enter = p_exit =
        // bad_loss = 1 over [240 ms, 260 ms) deterministically drops every
        // *other* packet transmitted in the window, so the surviving
        // segments arrive out of order, generate three duplicate ACKs and
        // trigger fast retransmit — the RTO never fires.
        let burst = LinkFault::burst_loss(
            NodeId(1),
            NodeId(2),
            SimTime::from_millis(240),
            SimTime::from_millis(260),
            1.0,
            1.0,
            1.0,
        );
        let (clean, clean_stats) = run_faulty(60_000, vec![]);
        let (app, stats) = run_faulty(60_000, vec![burst.clone()]);
        assert_eq!(clean_stats, crate::endpoint::ConnStats::default());
        assert_eq!(app.got, 60_000, "all bytes must arrive despite the burst");
        assert_eq!(stats.fast_retransmits, 1);
        assert_eq!(stats.timeouts, 0, "dup-ACK recovery must beat the RTO");
        assert!(
            stats.retransmitted_segs >= 3,
            "alternating drops lose >=3 segs"
        );
        assert!(
            app.response_done_at.unwrap() > clean.response_done_at.unwrap(),
            "recovery must cost time"
        );
        // The scripted episode is deterministic: an identical run produces
        // an identical trajectory.
        let (again, again_stats) = run_faulty(60_000, vec![burst]);
        assert_eq!(app.response_done_at, again.response_done_at);
        assert_eq!(stats, again_stats);
    }

    #[test]
    fn scripted_blackhole_forces_rto_with_exponential_backoff() {
        // The lone request segment leaves the client at 100 ms (one RTT of
        // handshake). A blackhole starting at 95 ms swallows it; with no
        // other data in flight the only recovery is the retransmission
        // timer: initial RTO 300 ms (srtt 100 + 4·rttvar 50), then Karn
        // backoff doubles it, so retransmissions leave at 400 ms, 1000 ms,
        // 2200 ms, ... Each scripted window length therefore pins an exact
        // timeout count.
        let run = |end_ms: u64| {
            let mut sim = Sim::new(42, Echoish::new(400, 5_000));
            sim.net().add_link_fault(LinkFault::link_outage(
                NodeId(1),
                NodeId(2),
                SimTime::from_millis(95),
                SimTime::from_millis(end_ms),
            ));
            let cid = sim.net().open(
                NodeId(1),
                NodeId(2),
                PathParams::ideal(100.0),
                TcpOptions::default(),
                TcpOptions::default(),
                1,
            );
            sim.run();
            let stats = sim.net().conn_stats(cid, End::A);
            let app = sim.into_app();
            assert_eq!(app.got, 5_000, "transfer must complete after the outage");
            assert_eq!(stats.fast_retransmits, 0, "a silent flight cannot dup-ACK");
            (stats.timeouts, app.request_done_at.unwrap())
        };
        // Window ends before the first RTO fire: one timeout, request
        // arrives at 400 + 50 ms.
        let (n1, t1) = run(110);
        assert_eq!(n1, 1);
        // Window swallows the first retransmission too: the second fire
        // waits a doubled RTO.
        let (n2, t2) = run(500);
        assert_eq!(n2, 2);
        // And a third, doubled again.
        let (n3, t3) = run(1100);
        assert_eq!(n3, 3);
        let gap1 = t2.saturating_since(t1).as_millis_f64();
        let gap2 = t3.saturating_since(t2).as_millis_f64();
        assert!((gap1 - 600.0).abs() < 1.0, "first backoff gap {gap1}ms");
        assert!((gap2 - 1200.0).abs() < 1.0, "second backoff gap {gap2}ms");
    }

    #[test]
    fn non_matching_fault_windows_are_inert() {
        // Faults scoped to other links/nodes — or to a window after the
        // transfer ends — must leave the trajectory byte-identical: the
        // fault layer draws from its own named RNG stream only for
        // packets actually inside a matching window.
        let (clean, clean_stats) = run_faulty(60_000, vec![]);
        let (faulted, faulted_stats) = run_faulty(
            60_000,
            vec![
                LinkFault::link_outage(
                    NodeId(7),
                    NodeId(8),
                    SimTime::ZERO,
                    SimTime::from_secs(3600),
                ),
                LinkFault::node_outage(NodeId(9), SimTime::ZERO, SimTime::from_secs(3600)),
                LinkFault::burst_loss(
                    NodeId(1),
                    NodeId(2),
                    SimTime::from_secs(1800),
                    SimTime::from_secs(1900),
                    0.5,
                    0.5,
                    1.0,
                ),
            ],
        );
        assert_eq!(clean.response_done_at, faulted.response_done_at);
        assert_eq!(clean.data_events, faulted.data_events);
        assert_eq!(clean_stats, faulted_stats);
    }

    #[test]
    fn aborted_connection_goes_silent_and_quiesces() {
        // Abort mid-transfer: no further callbacks (in particular no
        // on_fin), timers are disarmed, and the event queue drains
        // without the transfer completing.
        let mut sim = Sim::new(42, Echoish::new(400, 60_000));
        let cid = sim.net().open(
            NodeId(1),
            NodeId(2),
            PathParams::ideal(100.0),
            TcpOptions::default(),
            TcpOptions::default(),
            1,
        );
        sim.run_until(SimTime::from_millis(220));
        sim.net().abort(cid);
        assert!(sim.net().is_aborted(cid));
        sim.run();
        let app = sim.into_app();
        assert!(app.got < 60_000, "aborted transfer must not complete");
        assert!(app.response_done_at.is_none());
        assert!(app.fins.is_empty(), "abort must not surface FIN callbacks");
    }

    #[test]
    fn node_outage_blackholes_both_directions() {
        // An outage of the server node during the whole response window
        // stalls the transfer until the node recovers.
        let (clean, _) = run_faulty(5_000, vec![]);
        let (app, stats) = run_faulty(
            5_000,
            vec![LinkFault::node_outage(
                NodeId(2),
                SimTime::from_millis(140),
                SimTime::from_millis(600),
            )],
        );
        assert_eq!(app.got, 5_000);
        assert!(stats.timeouts >= 1, "outage must force at least one RTO");
        assert!(
            app.response_done_at.unwrap() > clean.response_done_at.unwrap(),
            "outage must delay completion"
        );
    }

    #[test]
    fn two_connections_are_independent() {
        struct TwoConn {
            done: Vec<(ConnId, SimTime)>,
        }
        impl App for TwoConn {
            fn on_established(&mut self, net: &mut Net, conn: ConnId, end: End) {
                if end == End::A {
                    net.send(conn, End::A, 400, Marker::Request, 1);
                }
            }
            fn on_data(&mut self, net: &mut Net, conn: ConnId, end: End, _s: &[DeliveredSpan]) {
                if end == End::B {
                    net.send(conn, End::B, 1000, Marker::Static, 2);
                } else {
                    self.done.push((conn, net.now()));
                }
            }
        }
        let mut sim = Sim::new(42, TwoConn { done: Vec::new() });
        let c1 = sim.net().open(
            NodeId(1),
            NodeId(2),
            PathParams::ideal(20.0),
            TcpOptions::default(),
            TcpOptions::default(),
            1,
        );
        let c2 = sim.net().open(
            NodeId(3),
            NodeId(4),
            PathParams::ideal(200.0),
            TcpOptions::default(),
            TcpOptions::default(),
            2,
        );
        sim.run();
        let app = sim.into_app();
        assert_eq!(app.done.len(), 2);
        let t1 = app.done.iter().find(|(c, _)| *c == c1).unwrap().1;
        let t2 = app.done.iter().find(|(c, _)| *c == c2).unwrap().1;
        assert!(t1 < t2, "short-RTT conn must finish first");
    }

    #[test]
    fn blackholed_syn_retransmits_at_one_three_and_seven_seconds() {
        // Every SYN into the outage is lost; the handshake timer starts
        // at the 1 s initial RTO and doubles per timeout, so the
        // retransmissions leave at exactly 1 s, 3 s and 7 s, and the
        // 15 s one gets through once the outage ends.
        let mut sim = Sim::new(42, Echoish::new(400, 1_000));
        sim.net()
            .trace_mut()
            .set_capture(crate::trace::Capture::All);
        sim.net().add_link_fault(LinkFault::link_outage(
            NodeId(1),
            NodeId(2),
            SimTime::ZERO,
            SimTime::from_millis(7_500),
        ));
        sim.net().open(
            NodeId(1),
            NodeId(2),
            PathParams::ideal(50.0),
            TcpOptions::default(),
            TcpOptions::default(),
            1,
        );
        sim.run();
        let syns: Vec<SimTime> = sim
            .net()
            .trace_mut()
            .take_session(1)
            .iter()
            .filter(|e| e.node == NodeId(1) && e.dir == PktDir::Tx && e.kind == PktKind::Syn)
            .map(|e| e.t)
            .collect();
        let secs = |s: u64| SimTime::from_secs(s);
        assert_eq!(syns, vec![secs(0), secs(1), secs(3), secs(7), secs(15)]);
        assert_eq!(
            sim.into_app().got,
            1_000,
            "the handshake completes after the outage"
        );
    }

    /// Opens a connection whose client sends `bytes` once established
    /// and whose server only receives, capturing every packet.
    fn run_upload(bytes: u64, opts_a: TcpOptions, rtt_ms: f64) -> Sim<impl App> {
        struct Upload(u64);
        impl App for Upload {
            fn on_established(&mut self, net: &mut Net, conn: ConnId, end: End) {
                if end == End::A {
                    net.send(conn, End::A, self.0, Marker::Request, 1);
                }
            }
            fn on_data(&mut self, _: &mut Net, _: ConnId, _: End, _: &[DeliveredSpan]) {}
        }
        let mut sim = Sim::new(42, Upload(bytes));
        sim.net()
            .trace_mut()
            .set_capture(crate::trace::Capture::All);
        sim.net().open(
            NodeId(1),
            NodeId(2),
            PathParams::ideal(rtt_ms),
            opts_a,
            TcpOptions::default(),
            1,
        );
        sim.run();
        sim
    }

    #[test]
    fn lone_data_segment_is_acked_one_delack_timeout_later() {
        // A one-segment initial window sends the first of two segments
        // alone and without PSH: the receiver holds its ACK for exactly
        // the delayed-ACK timeout.
        let mut sim = run_upload(2 * 1460, TcpOptions::default().with_initial_window(1), 80.0);
        let events = sim.net().trace_mut().take_session(1);
        let at_server = |dir: PktDir| {
            events
                .iter()
                .filter(move |e| e.node == NodeId(2) && e.dir == dir)
        };
        let seg = at_server(PktDir::Rx)
            .find(|e| e.kind == PktKind::Data)
            .expect("the first segment arrives");
        assert_eq!((seg.seq, seg.push), (0, false));
        let ack = at_server(PktDir::Tx)
            .find(|e| e.kind == PktKind::Ack && e.ack > 0)
            .expect("the segment is acknowledged");
        assert_eq!(ack.ack, 1460);
        assert_eq!(
            ack.t.saturating_since(seg.t),
            TcpOptions::default().delack_timeout
        );
    }

    #[test]
    fn bulk_transfer_timer_pops_scale_with_round_trips_not_acks() {
        // Each ACK of a bulk transfer re-arms the sender's retransmission
        // timer and every other segment arms the receiver's delayed-ACK
        // timer. Those re-arms must not each cost a queue pop: every pop
        // that is not a packet delivery is a timer event, and a lazy
        // timer pops at most once per timeout period.
        let rtt_ms = 50.0;
        let mut sim = run_upload(1_000_000, TcpOptions::default(), rtt_ms);
        let pops = sim.net().events_processed();
        let events = sim.net().trace_mut().take_session(1);
        let deliveries = events.iter().filter(|e| e.dir == PktDir::Rx).count() as u64;
        let acks = events
            .iter()
            .filter(|e| e.node == NodeId(2) && e.dir == PktDir::Tx && e.kind == PktKind::Ack)
            .count() as u64;
        let duration_ms = events.last().unwrap().t.as_millis_f64();
        let round_trips = (duration_ms / rtt_ms).ceil() as u64;
        let timer_pops = pops - deliveries;
        assert!(acks > 300, "a 1 MB transfer is acknowledged {acks} times");
        assert!(
            timer_pops <= 4 * round_trips,
            "{timer_pops} timer pops over {round_trips} round trips ({acks} ACKs)"
        );
    }
}
