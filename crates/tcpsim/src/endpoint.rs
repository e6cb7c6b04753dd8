//! The per-endpoint TCP state machine.
//!
//! [`Endpoint`] holds sender and receiver state and implements the
//! protocol *decisions* (congestion control, RTT estimation, receive-side
//! reassembly, ACK policy) as pure state transitions returning action
//! values. Packet construction, link modelling and timers live in
//! [`crate::net`] — this split keeps the algorithms unit-testable without
//! an event loop.

use crate::cubic::CubicState;
use crate::opts::{CongAlgo, TcpOptions};
use crate::segment::{Marker, MetaSpan, SpanVec};
use simcore::time::{SimDuration, SimTime};
use simcore::LazyTimer;
use std::collections::BTreeMap;

/// Loss-recovery counters of one endpoint — exposed for the loss
/// experiments and for assertions that clean paths stay clean.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Fast retransmits entered (3 duplicate ACKs).
    pub fast_retransmits: u64,
    /// Retransmission timeouts fired with data outstanding.
    pub timeouts: u64,
    /// Total segments retransmitted (either way).
    pub retransmitted_segs: u64,
}

/// Connection state (simplified lifecycle; no TIME_WAIT — the simulator
/// never reuses ports).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpState {
    /// Not yet opened (acceptor before SYN arrives).
    Closed,
    /// Initiator sent SYN, awaiting SYN-ACK.
    SynSent,
    /// Acceptor sent SYN-ACK, awaiting ACK.
    SynRcvd,
    /// Data transfer.
    Established,
    /// Both FINs exchanged and acknowledged.
    Done,
}

/// One application chunk appended to the send stream.
#[derive(Clone, Debug)]
pub struct Chunk {
    /// Stream offset one past the chunk's last byte.
    pub end_off: u64,
    /// Content class.
    pub marker: Marker,
    /// Content identity.
    pub content: u64,
}

/// An out-of-order segment parked in the receive buffer.
#[derive(Clone, Debug)]
pub struct OooSeg {
    /// Payload length.
    pub len: u32,
    /// PSH flag.
    pub push: bool,
    /// Content spans.
    pub meta: SpanVec,
    /// True if this parked entry is the peer's FIN.
    pub fin: bool,
}

/// What the receiver wants done after accepting a segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckPolicy {
    /// Send an ACK immediately (second segment, PSH, out-of-order,
    /// duplicate, or delayed ACKs disabled).
    Immediate,
    /// Arm (or leave armed) the delayed-ACK timer.
    Delayed,
}

/// Sender-side reaction to an incoming acknowledgement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckReaction {
    /// Nothing special; try to pump more data.
    Advance,
    /// Third duplicate ACK: enter fast retransmit, resend `snd_una`.
    FastRetransmit,
    /// Partial ACK during recovery (NewReno): resend the next hole.
    PartialRetransmit,
    /// Duplicate ACK during recovery: window inflated, pump.
    RecoveryInflate,
    /// Ignored (old ACK or no outstanding data).
    Ignored,
}

/// The TCP endpoint.
#[derive(Clone, Debug)]
pub struct Endpoint {
    /// Configuration.
    pub opts: TcpOptions,
    /// Lifecycle state.
    pub state: TcpState,

    // ---- send side ----
    /// Application chunks (cumulative offsets) — the send stream map.
    /// Chunks wholly below the ACKed frontier are pruned; the first
    /// entry starts at [`Endpoint::chunks_base`], not necessarily 0.
    pub chunks: Vec<Chunk>,
    /// Stream offset where `chunks[0]` starts (the end of the last
    /// pruned chunk). Invariant: `chunks_base <= snd_una`, so every
    /// range the sender can still (re)transmit is covered.
    pub chunks_base: u64,
    /// Cursor into `chunks`: the index where the previous
    /// [`Endpoint::meta_for_range`] lookup ended. Sends are sequential,
    /// so the next lookup almost always resumes here (O(1)) instead of
    /// rescanning the chunk map; out-of-order offsets (retransmissions)
    /// fall back to a binary search.
    pub chunk_cursor: usize,
    /// Total bytes appended to the send stream.
    pub stream_len: u64,
    /// Oldest unacknowledged sequence number.
    pub snd_una: u64,
    /// Next sequence number to send.
    pub snd_nxt: u64,
    /// Congestion window in bytes (fractional for CA accumulation).
    pub cwnd: f64,
    /// Slow-start threshold in bytes.
    pub ssthresh: f64,
    /// Peer's advertised receive window.
    pub peer_rwnd: u64,
    /// Consecutive duplicate-ACK count.
    pub dup_acks: u32,
    /// NewReno recovery point (snd_nxt at loss detection).
    pub recover: u64,
    /// True while in fast recovery.
    pub in_recovery: bool,
    /// Smoothed RTT in ms (None before the first sample).
    pub srtt_ms: Option<f64>,
    /// RTT variance in ms.
    pub rttvar_ms: f64,
    /// Current retransmission timeout.
    pub rto: SimDuration,
    /// The retransmission timer (armed while an RTO is outstanding).
    pub rto_timer: LazyTimer,
    /// In-flight RTT probe: `(seq_end, sent_at)`; cleared on any
    /// retransmission (Karn's algorithm).
    pub rtt_probe: Option<(u64, SimTime)>,
    /// Time of last segment transmission (for slow-start-after-idle).
    pub last_send: SimTime,
    /// FIN requested by the application.
    pub fin_pending: bool,
    /// FIN transmitted.
    pub fin_sent: bool,
    /// Number of handshake (re)transmissions so far.
    pub syn_sent_count: u32,

    // ---- receive side ----
    /// Next byte expected in order.
    pub rcv_nxt: u64,
    /// Out-of-order reassembly buffer keyed by sequence number.
    pub ooo: BTreeMap<u64, OooSeg>,
    /// The delayed-ACK timer (armed while a delayed ACK is pending).
    pub delack_timer: LazyTimer,
    /// Peer's FIN sequence (once seen).
    pub peer_fin_seq: Option<u64>,
    /// The peer FIN has been consumed (rcv_nxt advanced past it).
    pub peer_fin_rcvd: bool,
    /// CUBIC growth state (unused under Reno).
    pub cubic: CubicState,
    /// Loss-recovery counters.
    pub stats: ConnStats,
}

impl Endpoint {
    /// Creates a fresh endpoint in `Closed` state.
    pub fn new(opts: TcpOptions) -> Endpoint {
        let cwnd = opts.initial_cwnd();
        let rto = opts.initial_rto;
        Endpoint {
            opts,
            state: TcpState::Closed,
            chunks: Vec::new(),
            chunks_base: 0,
            chunk_cursor: 0,
            stream_len: 0,
            snd_una: 0,
            snd_nxt: 0,
            cwnd,
            ssthresh: f64::INFINITY,
            peer_rwnd: u64::MAX,
            dup_acks: 0,
            recover: 0,
            in_recovery: false,
            srtt_ms: None,
            rttvar_ms: 0.0,
            rto,
            rto_timer: LazyTimer::default(),
            rtt_probe: None,
            last_send: SimTime::ZERO,
            fin_pending: false,
            fin_sent: false,
            syn_sent_count: 0,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            delack_timer: LazyTimer::default(),
            peer_fin_seq: None,
            peer_fin_rcvd: false,
            cubic: CubicState::default(),
            stats: ConnStats::default(),
        }
    }

    /// Bytes currently in flight.
    pub fn in_flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// The effective send window: min(cwnd, peer receive window).
    pub fn send_window(&self) -> u64 {
        (self.cwnd.max(0.0) as u64).min(self.peer_rwnd)
    }

    /// Bytes of fresh window available right now.
    pub fn usable_window(&self) -> u64 {
        self.send_window().saturating_sub(self.in_flight())
    }

    /// Appends an application chunk to the send stream.
    pub fn push_chunk(&mut self, len: u64, marker: Marker, content: u64) {
        assert!(len > 0, "push_chunk: empty chunk");
        assert!(!self.fin_pending, "push_chunk after close");
        self.stream_len += len;
        self.chunks.push(Chunk {
            end_off: self.stream_len,
            marker,
            content,
        });
    }

    /// Stream offset where chunk `i` starts.
    fn chunk_start(&self, i: usize) -> u64 {
        if i == 0 {
            self.chunks_base
        } else {
            self.chunks[i - 1].end_off
        }
    }

    /// The meta spans covering stream range `[from, from+len)`, rebuilt
    /// from the chunk map (also used for retransmissions).
    ///
    /// Resumes from the cursor left by the previous lookup: sequential
    /// sends are O(spans) instead of O(chunks), and any out-of-order
    /// `from` (fast retransmit, RTO resend) repositions by binary
    /// search. Requires `from >= chunks_base` — guaranteed inside the
    /// simulator because only ranges at or above `snd_una` are ever
    /// (re)transmitted and pruning stops at the ACKed frontier.
    pub fn meta_for_range(&mut self, from: u64, len: u32) -> SpanVec {
        debug_assert!(
            from >= self.chunks_base,
            "meta_for_range below the pruned frontier: {from} < {}",
            self.chunks_base
        );
        let to = from + len as u64;
        let mut out = SpanVec::new();
        let n = self.chunks.len();
        // Reposition: the cursor chunk, its successor (a sequential send
        // that just crossed a chunk boundary), or binary search.
        let mut i = self.chunk_cursor;
        let contains =
            |i: usize| i < n && self.chunk_start(i) <= from && from < self.chunks[i].end_off;
        if !contains(i) {
            if contains(i + 1) {
                i += 1;
            } else {
                i = self.chunks.partition_point(|c| c.end_off <= from);
            }
        }
        let mut c_start = self.chunk_start(i.min(n));
        while i < n {
            let c = &self.chunks[i];
            let c_end = c.end_off;
            if c_start >= to {
                break;
            }
            let s = from.max(c_start);
            let e = to.min(c_end);
            out.push(MetaSpan {
                offset: s,
                len: (e - s) as u32,
                marker: c.marker,
                content: c.content,
            });
            c_start = c_end;
            i += 1;
        }
        self.chunk_cursor = i.saturating_sub(1);
        out
    }

    /// True if `[from, from+len)` ends exactly at an application chunk
    /// boundary — those segments carry PSH.
    pub fn range_ends_chunk(&self, from: u64, len: u32) -> bool {
        let to = from + len as u64;
        if to == from {
            return false;
        }
        // Chunk ends are strictly increasing: binary-search for `to`.
        let i = self.chunks.partition_point(|c| c.end_off < to);
        i < self.chunks.len() && self.chunks[i].end_off == to
    }

    /// Drops chunks wholly below the ACKed frontier (`snd_una`): their
    /// bytes can never be retransmitted, so the chunk map stays short on
    /// long-lived connections that stream many application chunks.
    fn prune_acked_chunks(&mut self) {
        let una = self.snd_una;
        let k = self.chunks.partition_point(|c| c.end_off <= una);
        if k > 0 {
            self.chunks_base = self.chunks[k - 1].end_off;
            self.chunks.drain(..k);
            self.chunk_cursor = self.chunk_cursor.saturating_sub(k);
        }
    }

    /// Applies slow-start-after-idle (RFC 2861) if enabled: called before
    /// sending after an idle period.
    pub fn maybe_idle_reset(&mut self, now: SimTime) {
        if self.opts.idle_reset
            && self.in_flight() == 0
            && self.last_send != SimTime::ZERO
            && now.saturating_since(self.last_send) > self.rto
        {
            self.cwnd = self.cwnd.min(self.opts.initial_cwnd());
        }
    }

    /// Records an RTT sample and recomputes the RTO (RFC 6298).
    pub fn rtt_sample(&mut self, sample: SimDuration) {
        let r = sample.as_millis_f64();
        match self.srtt_ms {
            None => {
                self.srtt_ms = Some(r);
                self.rttvar_ms = r / 2.0;
            }
            Some(srtt) => {
                let err = (srtt - r).abs();
                self.rttvar_ms = 0.75 * self.rttvar_ms + 0.25 * err;
                self.srtt_ms = Some(0.875 * srtt + 0.125 * r);
            }
        }
        let rto_ms = self.srtt_ms.unwrap() + (4.0 * self.rttvar_ms).max(1.0);
        self.rto = SimDuration::from_millis_f64(rto_ms)
            .max(self.opts.min_rto)
            .min(self.opts.max_rto);
    }

    /// Processes the acknowledgement field of an incoming packet
    /// (sender-side reaction). `has_payload` suppresses the dup-ACK count
    /// for data-bearing packets, per RFC 5681.
    pub fn on_ack(&mut self, ack: u64, wnd: u64, now: SimTime, has_payload: bool) -> AckReaction {
        self.peer_rwnd = wnd;
        if ack > self.snd_nxt {
            // Acking data we never sent — corrupted event; ignore.
            return AckReaction::Ignored;
        }
        if ack > self.snd_una {
            let acked = ack - self.snd_una;
            self.snd_una = ack;
            self.prune_acked_chunks();
            if let Some((probe_end, sent_at)) = self.rtt_probe {
                if ack >= probe_end {
                    let sample = now.saturating_since(sent_at);
                    self.rtt_sample(sample);
                    self.rtt_probe = None;
                }
            }
            self.dup_acks = 0;
            if self.in_recovery {
                if ack >= self.recover {
                    // Full ACK: leave recovery, deflate to ssthresh.
                    self.in_recovery = false;
                    self.cwnd = self.ssthresh.max(self.opts.mss as f64);
                    return AckReaction::Advance;
                } else {
                    // Partial ACK: retransmit the next hole, deflate by
                    // the amount acked (NewReno).
                    self.cwnd =
                        (self.cwnd - acked as f64 + self.opts.mss as f64).max(self.opts.mss as f64);
                    return AckReaction::PartialRetransmit;
                }
            }
            // Normal cwnd growth.
            if self.cwnd < self.ssthresh {
                // Slow start with ABC (RFC 3465).
                let limit = (self.opts.abc_limit_segs * self.opts.mss) as f64;
                self.cwnd += (acked as f64).min(limit);
            } else {
                let mss = self.opts.mss as f64;
                match self.opts.cong {
                    CongAlgo::Reno => {
                        // Congestion avoidance: +mss per RTT, per-ACK.
                        self.cwnd += (mss * mss / self.cwnd).max(1.0);
                    }
                    CongAlgo::Cubic => {
                        let cwnd_segs = self.cwnd / mss;
                        let srtt_s = self.srtt_ms.unwrap_or(100.0) / 1.0e3;
                        let target = self.cubic.target(now, cwnd_segs, srtt_s);
                        let inc = CubicState::per_ack_increment(target, cwnd_segs);
                        self.cwnd += inc * mss;
                    }
                }
            }
            AckReaction::Advance
        } else if ack == self.snd_una && self.in_flight() > 0 && !has_payload {
            self.dup_acks += 1;
            if self.in_recovery {
                self.cwnd += self.opts.mss as f64;
                return AckReaction::RecoveryInflate;
            }
            if self.dup_acks == 3 {
                let mss = self.opts.mss as f64;
                let beta = self.loss_beta();
                self.cubic.on_loss(self.cwnd / mss);
                self.ssthresh = (self.in_flight() as f64 * beta).max(2.0 * mss);
                self.cwnd = self.ssthresh + 3.0 * mss;
                self.in_recovery = true;
                self.recover = self.snd_nxt;
                self.rtt_probe = None; // Karn
                self.stats.fast_retransmits += 1;
                return AckReaction::FastRetransmit;
            }
            AckReaction::Ignored
        } else {
            AckReaction::Ignored
        }
    }

    /// The multiplicative-decrease factor of the configured algorithm.
    fn loss_beta(&self) -> f64 {
        match self.opts.cong {
            CongAlgo::Reno => 0.5,
            CongAlgo::Cubic => crate::cubic::CUBIC_BETA,
        }
    }

    /// Congestion response to a retransmission timeout.
    pub fn on_rto_fire(&mut self) {
        let mss = self.opts.mss as f64;
        self.cubic.on_loss(self.cwnd / mss);
        self.ssthresh = (self.in_flight() as f64 * self.loss_beta()).max(2.0 * mss);
        self.cwnd = mss;
        self.dup_acks = 0;
        self.in_recovery = false;
        self.rtt_probe = None; // Karn
        self.rto = self.rto.saturating_mul(2).min(self.opts.max_rto);
        self.stats.timeouts += 1;
    }

    /// Receiver-side acceptance of a payload segment (or FIN). Returns
    /// the spans newly delivered in order and the ACK policy.
    pub fn accept(
        &mut self,
        seq: u64,
        len: u32,
        push: bool,
        fin: bool,
        meta: SpanVec,
    ) -> (SpanVec, AckPolicy) {
        let mut delivered = SpanVec::new();
        if fin {
            self.peer_fin_seq = Some(seq);
        }
        let seg_end = seq + if fin { 1 } else { len as u64 };
        if seg_end <= self.rcv_nxt {
            // Complete duplicate: immediate ACK so the sender resyncs.
            return (delivered, AckPolicy::Immediate);
        }
        if seq > self.rcv_nxt {
            // Out of order: park and duplicate-ACK immediately.
            self.ooo.insert(
                seq,
                OooSeg {
                    len,
                    push,
                    meta,
                    fin,
                },
            );
            return (delivered, AckPolicy::Immediate);
        }
        // In order (possibly overlapping an already-received prefix).
        let fresh_from = self.rcv_nxt;
        if fin {
            self.rcv_nxt = seq + 1;
            self.peer_fin_rcvd = true;
        } else {
            self.rcv_nxt = seq + len as u64;
            for span in meta {
                let span_end = span.offset + span.len as u64;
                if span_end > fresh_from {
                    let s = span.offset.max(fresh_from);
                    delivered.push(MetaSpan {
                        offset: s,
                        len: (span_end - s) as u32,
                        marker: span.marker,
                        content: span.content,
                    });
                }
            }
        }
        let mut saw_push = push;
        let filled_gap = !self.ooo.is_empty();
        // Drain contiguous out-of-order segments.
        while let Some((&s, _)) = self.ooo.iter().next() {
            if s > self.rcv_nxt {
                break;
            }
            let seg = self.ooo.remove(&s).unwrap();
            let end = s + if seg.fin { 1 } else { seg.len as u64 };
            if end <= self.rcv_nxt {
                continue; // stale duplicate parked earlier
            }
            let fresh = self.rcv_nxt;
            self.rcv_nxt = end;
            if seg.fin {
                self.peer_fin_rcvd = true;
            } else {
                for span in seg.meta {
                    let span_end = span.offset + span.len as u64;
                    if span_end > fresh {
                        let st = span.offset.max(fresh);
                        delivered.push(MetaSpan {
                            offset: st,
                            len: (span_end - st) as u32,
                            marker: span.marker,
                            content: span.content,
                        });
                    }
                }
            }
            saw_push |= seg.push;
        }
        // ACK policy: immediate on PSH, FIN, a filled gap, disabled
        // delack, or when this is the second unacknowledged segment.
        let policy = if !self.opts.delayed_ack
            || saw_push
            || fin
            || self.peer_fin_rcvd
            || filled_gap
            || !self.ooo.is_empty()
            || self.delack_timer.is_armed()
        {
            AckPolicy::Immediate
        } else {
            AckPolicy::Delayed
        };
        (delivered, policy)
    }

    /// True once every byte (and the FIN, if requested) is acknowledged.
    pub fn all_acked(&self) -> bool {
        let target = self.stream_len + if self.fin_sent { 1 } else { 0 };
        self.snd_una >= target && (!self.fin_pending || self.fin_sent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep() -> Endpoint {
        let mut e = Endpoint::new(TcpOptions::default());
        e.state = TcpState::Established;
        e
    }

    #[test]
    fn initial_window_and_flight() {
        let e = ep();
        assert_eq!(e.in_flight(), 0);
        assert_eq!(e.send_window(), 5840);
        assert_eq!(e.usable_window(), 5840);
    }

    #[test]
    fn chunk_map_and_meta_rebuild() {
        let mut e = ep();
        e.push_chunk(400, Marker::Request, 1);
        e.push_chunk(8000, Marker::Static, 2);
        assert_eq!(e.stream_len, 8400);
        // A segment spanning the request/static boundary.
        let meta = e.meta_for_range(0, 1460);
        assert_eq!(meta.len(), 2);
        assert_eq!(meta[0].len, 400);
        assert_eq!(meta[0].marker, Marker::Request);
        assert_eq!(meta[1].offset, 400);
        assert_eq!(meta[1].len, 1060);
        assert_eq!(meta[1].marker, Marker::Static);
        // Entirely inside the static chunk.
        let meta2 = e.meta_for_range(2000, 1000);
        assert_eq!(meta2.len(), 1);
        assert_eq!(meta2[0].content, 2);
    }

    #[test]
    fn push_detection_at_chunk_boundary() {
        let mut e = ep();
        e.push_chunk(400, Marker::Request, 1);
        e.push_chunk(1000, Marker::Static, 2);
        assert!(e.range_ends_chunk(0, 400));
        assert!(!e.range_ends_chunk(0, 300));
        assert!(e.range_ends_chunk(400, 1000));
        assert!(e.range_ends_chunk(0, 1400)); // spans both, ends at chunk end
    }

    #[test]
    fn slow_start_doubles_with_abc() {
        let mut e = ep();
        e.push_chunk(100_000, Marker::Static, 1);
        e.snd_nxt = 5840; // one IW in flight
        let t = SimTime::from_millis(100);
        // ACK for 2 segments (delayed ack) grows cwnd by 2*mss.
        let before = e.cwnd;
        e.on_ack(2920, u64::MAX, t, false);
        assert_eq!(e.cwnd, before + 2.0 * 1460.0);
    }

    #[test]
    fn congestion_avoidance_is_linear() {
        let mut e = ep();
        e.push_chunk(1_000_000, Marker::Static, 1);
        e.ssthresh = 2920.0;
        e.cwnd = 14600.0; // above ssthresh
        e.snd_nxt = 14600;
        let before = e.cwnd;
        e.on_ack(1460, u64::MAX, SimTime::from_millis(1), false);
        let growth = e.cwnd - before;
        assert!((growth - 1460.0 * 1460.0 / 14600.0).abs() < 1.0);
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit() {
        let mut e = ep();
        e.push_chunk(100_000, Marker::Static, 1);
        e.snd_nxt = 14600;
        e.snd_una = 0;
        e.cwnd = 14600.0;
        let t = SimTime::from_millis(5);
        assert_eq!(e.on_ack(0, u64::MAX, t, false), AckReaction::Ignored);
        assert_eq!(e.on_ack(0, u64::MAX, t, false), AckReaction::Ignored);
        assert_eq!(e.on_ack(0, u64::MAX, t, false), AckReaction::FastRetransmit);
        assert!(e.in_recovery);
        assert_eq!(e.recover, 14600);
        assert_eq!(e.ssthresh, 7300.0);
        assert_eq!(e.cwnd, 7300.0 + 3.0 * 1460.0);
        // Additional dupack inflates.
        assert_eq!(
            e.on_ack(0, u64::MAX, t, false),
            AckReaction::RecoveryInflate
        );
    }

    #[test]
    fn data_bearing_packets_do_not_count_as_dupacks() {
        let mut e = ep();
        e.push_chunk(100_000, Marker::Static, 1);
        e.snd_nxt = 14600;
        let t = SimTime::from_millis(5);
        for _ in 0..5 {
            assert_eq!(e.on_ack(0, u64::MAX, t, true), AckReaction::Ignored);
        }
        assert!(!e.in_recovery);
        assert_eq!(e.dup_acks, 0);
    }

    #[test]
    fn partial_and_full_acks_in_recovery() {
        let mut e = ep();
        e.push_chunk(100_000, Marker::Static, 1);
        e.snd_nxt = 14600;
        e.cwnd = 14600.0;
        let t = SimTime::from_millis(5);
        for _ in 0..3 {
            e.on_ack(0, u64::MAX, t, false);
        }
        assert!(e.in_recovery);
        // Partial ACK (below recover=14600).
        assert_eq!(
            e.on_ack(2920, u64::MAX, t, false),
            AckReaction::PartialRetransmit
        );
        assert!(e.in_recovery);
        // Full ACK.
        assert_eq!(e.on_ack(14600, u64::MAX, t, false), AckReaction::Advance);
        assert!(!e.in_recovery);
        assert_eq!(e.cwnd, e.ssthresh);
    }

    #[test]
    fn rto_fire_collapses_window_and_backs_off() {
        let mut e = ep();
        e.push_chunk(100_000, Marker::Static, 1);
        e.snd_nxt = 14600;
        e.cwnd = 14600.0;
        let rto_before = e.rto;
        e.on_rto_fire();
        assert_eq!(e.cwnd, 1460.0);
        assert_eq!(e.ssthresh, 7300.0);
        assert_eq!(e.rto, rto_before.saturating_mul(2));
    }

    #[test]
    fn rtt_estimator_follows_rfc6298() {
        let mut e = ep();
        e.rtt_sample(SimDuration::from_millis(100));
        assert_eq!(e.srtt_ms, Some(100.0));
        assert_eq!(e.rttvar_ms, 50.0);
        // rto = srtt + 4*var = 300ms
        assert_eq!(e.rto, SimDuration::from_millis(300));
        e.rtt_sample(SimDuration::from_millis(100));
        // var decays toward 0, srtt stays at 100.
        assert_eq!(e.srtt_ms, Some(100.0));
        assert!(e.rttvar_ms < 50.0);
    }

    #[test]
    fn rto_respects_min_floor() {
        let mut e = ep();
        for _ in 0..20 {
            e.rtt_sample(SimDuration::from_millis(5));
        }
        assert_eq!(e.rto, SimDuration::from_millis(200));
    }

    #[test]
    fn in_order_receive_delivers_and_delays_ack() {
        let mut e = ep();
        let meta: SpanVec = vec![MetaSpan {
            offset: 0,
            len: 1460,
            marker: Marker::Static,
            content: 9,
        }]
        .into();
        let (spans, policy) = e.accept(0, 1460, false, false, meta);
        assert_eq!(spans.len(), 1);
        assert_eq!(e.rcv_nxt, 1460);
        assert_eq!(policy, AckPolicy::Delayed);
    }

    #[test]
    fn second_segment_acks_immediately() {
        let mut e = ep();
        let mk = |off: u64| -> SpanVec {
            vec![MetaSpan {
                offset: off,
                len: 1460,
                marker: Marker::Static,
                content: 9,
            }]
            .into()
        };
        let (_, p1) = e.accept(0, 1460, false, false, mk(0));
        assert_eq!(p1, AckPolicy::Delayed);
        e.delack_timer.arm(SimTime::ZERO, 0); // net layer arms the timer
        let (_, p2) = e.accept(1460, 1460, false, false, mk(1460));
        assert_eq!(p2, AckPolicy::Immediate);
    }

    #[test]
    fn push_acks_immediately() {
        let mut e = ep();
        let (_, p) = e.accept(
            0,
            400,
            true,
            false,
            vec![MetaSpan {
                offset: 0,
                len: 400,
                marker: Marker::Request,
                content: 1,
            }]
            .into(),
        );
        assert_eq!(p, AckPolicy::Immediate);
    }

    #[test]
    fn out_of_order_parks_then_drains() {
        let mut e = ep();
        let mk = |off: u64, len: u32| -> SpanVec {
            vec![MetaSpan {
                offset: off,
                len,
                marker: Marker::Dynamic,
                content: 3,
            }]
            .into()
        };
        let (spans, p) = e.accept(1460, 1460, false, false, mk(1460, 1460));
        assert!(spans.is_empty());
        assert_eq!(p, AckPolicy::Immediate); // dup-ack for the gap
        assert_eq!(e.rcv_nxt, 0);
        let (spans2, p2) = e.accept(0, 1460, false, false, mk(0, 1460));
        assert_eq!(spans2.len(), 2); // both segments delivered in order
        assert_eq!(e.rcv_nxt, 2920);
        assert_eq!(p2, AckPolicy::Immediate); // filled a gap
        assert!(e.ooo.is_empty());
    }

    #[test]
    fn duplicate_segments_reack_but_do_not_redeliver() {
        let mut e = ep();
        let mk: SpanVec = vec![MetaSpan {
            offset: 0,
            len: 1460,
            marker: Marker::Static,
            content: 1,
        }]
        .into();
        let (s1, _) = e.accept(0, 1460, false, false, mk.clone());
        assert_eq!(s1.len(), 1);
        let (s2, p2) = e.accept(0, 1460, false, false, mk);
        assert!(s2.is_empty());
        assert_eq!(p2, AckPolicy::Immediate);
        assert_eq!(e.rcv_nxt, 1460);
    }

    #[test]
    fn overlapping_retransmission_delivers_only_fresh_bytes() {
        let mut e = ep();
        let mk = |off: u64, len: u32| -> SpanVec {
            vec![MetaSpan {
                offset: off,
                len,
                marker: Marker::Static,
                content: 1,
            }]
            .into()
        };
        e.accept(0, 1460, false, false, mk(0, 1460));
        // Retransmission covering [0, 2920): only [1460, 2920) is fresh.
        let (spans, _) = e.accept(0, 2920, false, false, mk(0, 2920));
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].offset, 1460);
        assert_eq!(spans[0].len, 1460);
        assert_eq!(e.rcv_nxt, 2920);
    }

    #[test]
    fn fin_consumes_one_sequence_number() {
        let mut e = ep();
        let (_, p) = e.accept(0, 0, false, true, SpanVec::new());
        assert_eq!(p, AckPolicy::Immediate);
        assert_eq!(e.rcv_nxt, 1);
        assert!(e.peer_fin_rcvd);
    }

    #[test]
    fn idle_reset_collapses_cwnd_only_when_enabled() {
        let mut e = ep();
        e.cwnd = 100_000.0;
        e.last_send = SimTime::from_millis(10);
        e.maybe_idle_reset(SimTime::from_secs(30));
        assert_eq!(e.cwnd, 100_000.0, "disabled by default");
        let mut e2 = Endpoint::new(TcpOptions::default().with_idle_reset());
        e2.state = TcpState::Established;
        e2.cwnd = 100_000.0;
        e2.last_send = SimTime::from_millis(10);
        e2.maybe_idle_reset(SimTime::from_secs(30));
        assert_eq!(e2.cwnd, e2.opts.initial_cwnd());
    }

    #[test]
    fn all_acked_tracks_fin() {
        let mut e = ep();
        e.push_chunk(1000, Marker::Static, 1);
        assert!(!e.all_acked());
        e.snd_una = 1000;
        assert!(e.all_acked());
        e.fin_pending = true;
        assert!(!e.all_acked());
        e.fin_sent = true;
        e.snd_una = 1001;
        assert!(e.all_acked());
    }
}
