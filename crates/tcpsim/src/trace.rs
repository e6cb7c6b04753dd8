//! Packet tracing — the simulator's tcpdump.
//!
//! Every transmitted, received and dropped packet can be recorded as a
//! [`PktEvent`] tagged with the observing node, the connection, and the
//! application-assigned *session* id (`user`). Which observing nodes are
//! recorded is the log's [`Capture`] point: like tcpdump, the capture
//! runs somewhere — usually at the client vantage only. The
//! capture/analysis pipeline consumes traces **per session** via
//! [`TraceLog::take_session`] so long experiment runs do not accumulate
//! gigabytes of events: the harness extracts each query's timeline as
//! soon as the query completes and drops the raw packets.

use crate::net::{ConnId, NodeId};
use crate::segment::{PktKind, Segment, SpanVec};
use simcore::time::SimTime;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Direction of a packet event relative to the observing node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PktDir {
    /// The node transmitted this packet.
    Tx,
    /// The node received this packet.
    Rx,
    /// The packet was transmitted by this node but lost on the path.
    Drop,
}

/// One observed packet event.
#[derive(Clone, Debug, PartialEq)]
pub struct PktEvent {
    /// Virtual time of the observation.
    pub t: SimTime,
    /// Observing node.
    pub node: NodeId,
    /// Connection the packet belongs to.
    pub conn: ConnId,
    /// Application-assigned session id.
    pub session: u64,
    /// Direction.
    pub dir: PktDir,
    /// Packet kind.
    pub kind: PktKind,
    /// Sequence number.
    pub seq: u64,
    /// Payload length.
    pub len: u32,
    /// Acknowledgement number.
    pub ack: u64,
    /// PSH flag.
    pub push: bool,
    /// Content spans (payload labelling).
    pub meta: SpanVec,
}

/// A multiply-shift hasher for the session-id index. Session ids are
/// small sequential integers; SipHash (the `HashMap` default, keyed for
/// HashDoS resistance) costs more than the rest of the record path for
/// such keys. This hasher is deterministic, which also keeps the trace
/// store free of per-process randomness.
#[derive(Default)]
struct SessionHasher(u64);

impl Hasher for SessionHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are ever hashed; this path exists to satisfy the
        // trait.
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, n: u64) {
        // splitmix64-style finalizer: full avalanche on 64 bits.
        let mut z = self.0 ^ n.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Where packets are captured: which observing nodes a [`TraceLog`]
/// records.
///
/// The capture point only selects what is written down; it never
/// changes what the network does, so every simulated trajectory is the
/// same under any setting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Capture {
    /// Nothing is recorded.
    #[default]
    Off,
    /// Observations at nodes whose id is below the bound are recorded
    /// (a vantage capture: applications number their client hosts
    /// below their server hosts).
    Below(NodeId),
    /// Observations at every node are recorded.
    All,
}

impl Capture {
    /// True when an observation at `node` is recorded.
    #[inline]
    pub fn records(self, node: NodeId) -> bool {
        match self {
            Capture::Off => false,
            Capture::Below(bound) => node < bound,
            Capture::All => true,
        }
    }
}

/// One session's event buffer in the arena.
#[derive(Debug)]
struct Bucket {
    session: u64,
    in_use: bool,
    events: Vec<PktEvent>,
}

/// A per-session packet trace store.
///
/// Buffers are held in an arena (`buckets`) addressed through a
/// session-id index; `last` caches the bucket of the most recent record
/// so the common case — consecutive packets of the same session — skips
/// the index entirely. [`TraceLog::take_session`] hands the session's
/// buffer itself to the caller and recycles only the arena slot: the
/// slot's next tenant starts from an empty buffer, so each traced
/// session allocates (and grows) its own event vector.
#[derive(Debug, Default)]
pub struct TraceLog {
    capture: Capture,
    index: HashMap<u64, usize, BuildHasherDefault<SessionHasher>>,
    buckets: Vec<Bucket>,
    free: Vec<usize>,
    /// Arena slot of the most recently recorded session (cache hint;
    /// `usize::MAX` when invalid).
    last: usize,
    recorded: u64,
}

impl TraceLog {
    /// Creates a trace log; recording starts [`Capture::Off`].
    pub fn new() -> TraceLog {
        TraceLog::default()
    }

    /// Sets the capture point. Events already buffered stay buffered.
    pub fn set_capture(&mut self, capture: Capture) {
        self.capture = capture;
    }

    /// Total events recorded since creation (including taken ones).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Records a packet observation made at `node`, if `node` lies
    /// inside the capture point.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        t: SimTime,
        node: NodeId,
        conn: ConnId,
        session: u64,
        dir: PktDir,
        seg: &Segment,
    ) {
        if !self.capture.records(node) {
            return;
        }
        self.recorded += 1;
        let idx = match self.buckets.get_mut(self.last) {
            Some(b) if b.in_use && b.session == session => self.last,
            _ => self.bucket_for(session),
        };
        self.last = idx;
        self.buckets[idx].events.push(PktEvent {
            t,
            node,
            conn,
            session,
            dir,
            kind: seg.kind,
            seq: seg.seq,
            len: seg.len,
            ack: seg.ack,
            push: seg.push,
            // For an un-spilled span list this is a bitwise copy, not an
            // allocation.
            meta: seg.meta.clone(),
        });
    }

    /// Index lookup / arena insertion for `session` (the cache-miss path
    /// of [`TraceLog::record`]).
    fn bucket_for(&mut self, session: u64) -> usize {
        if let Some(&idx) = self.index.get(&session) {
            return idx;
        }
        let idx = match self.free.pop() {
            // Recycled slot: its buffer left with the previous tenant
            // (`detach`), so this session's buffer grows from empty.
            Some(idx) => idx,
            None => {
                self.buckets.push(Bucket {
                    session,
                    in_use: false,
                    // Pre-size the arena's first buffers: even a
                    // loss-free request/response session records a few
                    // dozen events per observing node.
                    events: Vec::with_capacity(32),
                });
                self.buckets.len() - 1
            }
        };
        let b = &mut self.buckets[idx];
        b.session = session;
        b.in_use = true;
        b.events.clear();
        self.index.insert(session, idx);
        idx
    }

    /// Detaches `session`'s buffer from the arena, recycling its slot.
    fn detach(&mut self, session: u64) -> Option<Vec<PktEvent>> {
        let idx = self.index.remove(&session)?;
        let b = &mut self.buckets[idx];
        b.in_use = false;
        let events = std::mem::take(&mut b.events);
        self.free.push(idx);
        if self.last == idx {
            self.last = usize::MAX;
        }
        Some(events)
    }

    /// Removes and returns all events of one session (ordered by time,
    /// which is the recording order). Returns an empty vec for unknown
    /// sessions.
    pub fn take_session(&mut self, session: u64) -> Vec<PktEvent> {
        self.detach(session).unwrap_or_default()
    }

    /// Like [`TraceLog::take_session`], but distinguishes "tracing is
    /// off" from "this session recorded no packets": returns `None` when
    /// no events are buffered for the session **and** the capture point
    /// is [`Capture::Off`]. Harnesses use this to surface a typed
    /// tracing-was-disabled error instead of silently analysing an empty
    /// timeline.
    pub fn try_take_session(&mut self, session: u64) -> Option<Vec<PktEvent>> {
        match self.detach(session) {
            Some(events) => Some(events),
            None if self.capture != Capture::Off => Some(Vec::new()),
            None => None,
        }
    }

    /// Read-only view of a session's events so far.
    pub fn peek_session(&self, session: u64) -> &[PktEvent] {
        self.index
            .get(&session)
            .map(|&idx| self.buckets[idx].events.as_slice())
            .unwrap_or(&[])
    }

    /// Number of sessions currently buffered.
    pub fn buffered_sessions(&self) -> usize {
        self.index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{Marker, MetaSpan};

    fn seg() -> Segment {
        Segment {
            kind: PktKind::Data,
            seq: 0,
            len: 100,
            ack: 5,
            push: true,
            wnd: 1000,
            meta: vec![MetaSpan {
                offset: 0,
                len: 100,
                marker: Marker::Request,
                content: 1,
            }]
            .into(),
        }
    }

    #[test]
    fn disabled_by_default() {
        let mut log = TraceLog::new();
        log.record(SimTime::ZERO, NodeId(1), ConnId(0), 7, PktDir::Tx, &seg());
        assert_eq!(log.recorded(), 0);
        assert!(log.take_session(7).is_empty());
        assert_eq!(
            log.try_take_session(7),
            None,
            "tracing off and nothing buffered must be distinguishable"
        );
    }

    #[test]
    fn try_take_distinguishes_disabled_from_quiet_session() {
        let mut log = TraceLog::new();
        log.set_capture(Capture::All);
        // Tracing on, session never saw a packet: a legitimate empty
        // timeline, not an error.
        assert_eq!(log.try_take_session(3), Some(Vec::new()));
        log.record(SimTime::ZERO, NodeId(1), ConnId(0), 5, PktDir::Tx, &seg());
        assert_eq!(log.try_take_session(5).map(|v| v.len()), Some(1));
        // Events buffered before tracing was switched off still come out.
        log.record(SimTime::ZERO, NodeId(1), ConnId(0), 6, PktDir::Tx, &seg());
        log.set_capture(Capture::Off);
        assert_eq!(log.try_take_session(6).map(|v| v.len()), Some(1));
        assert_eq!(log.try_take_session(6), None);
    }

    #[test]
    fn capture_point_selects_observing_nodes() {
        let mut log = TraceLog::new();
        log.set_capture(Capture::Below(NodeId(10)));
        for node in [3u32, 9, 10, 2_000] {
            log.record(
                SimTime::ZERO,
                NodeId(node),
                ConnId(0),
                1,
                PktDir::Rx,
                &seg(),
            );
        }
        let nodes: Vec<u32> = log.take_session(1).iter().map(|e| e.node.0).collect();
        assert_eq!(nodes, [3, 9], "only nodes below the bound are captured");
        assert_eq!(log.recorded(), 2, "the counter sees captured events only");
        // A session observed only outside the capture point is a quiet
        // session, not a tracing-disabled one.
        log.record(SimTime::ZERO, NodeId(10), ConnId(0), 2, PktDir::Tx, &seg());
        assert_eq!(log.try_take_session(2), Some(Vec::new()));
        log.set_capture(Capture::All);
        log.record(SimTime::ZERO, NodeId(10), ConnId(0), 3, PktDir::Tx, &seg());
        assert_eq!(log.take_session(3).len(), 1);
    }

    #[test]
    fn records_and_takes_by_session() {
        let mut log = TraceLog::new();
        log.set_capture(Capture::All);
        for session in [7u64, 7, 9] {
            log.record(
                SimTime::from_millis(session),
                NodeId(1),
                ConnId(0),
                session,
                PktDir::Rx,
                &seg(),
            );
        }
        assert_eq!(log.recorded(), 3);
        assert_eq!(log.buffered_sessions(), 2);
        assert_eq!(log.peek_session(7).len(), 2);
        let s7 = log.take_session(7);
        assert_eq!(s7.len(), 2);
        assert_eq!(s7[0].session, 7);
        assert_eq!(log.buffered_sessions(), 1);
        assert!(log.take_session(7).is_empty());
        assert_eq!(log.recorded(), 3, "taking does not erase the counter");
    }

    #[test]
    fn buckets_are_recycled_after_take() {
        // Campaign pattern: record a session, take it, record the next.
        // The arena must reuse the freed slot instead of growing, and
        // interleaved sessions must not cross-talk through the
        // last-bucket cache.
        let mut log = TraceLog::new();
        log.set_capture(Capture::All);
        for session in 0..100u64 {
            let other = session + 1_000;
            for _ in 0..3 {
                log.record(
                    SimTime::ZERO,
                    NodeId(1),
                    ConnId(0),
                    session,
                    PktDir::Tx,
                    &seg(),
                );
                log.record(
                    SimTime::ZERO,
                    NodeId(2),
                    ConnId(1),
                    other,
                    PktDir::Rx,
                    &seg(),
                );
            }
            let a = log.take_session(session);
            let b = log.take_session(other);
            assert_eq!(a.len(), 3);
            assert_eq!(b.len(), 3);
            assert!(a.iter().all(|e| e.session == session));
            assert!(b.iter().all(|e| e.session == other));
        }
        assert_eq!(log.buffered_sessions(), 0);
        assert!(
            log.buckets.len() <= 4,
            "arena grew to {} buckets for 2 concurrent sessions",
            log.buckets.len()
        );
        assert_eq!(log.recorded(), 600);
    }

    #[test]
    fn event_fields_copied_from_segment() {
        let mut log = TraceLog::new();
        log.set_capture(Capture::All);
        log.record(
            SimTime::from_millis(3),
            NodeId(4),
            ConnId(2),
            1,
            PktDir::Drop,
            &seg(),
        );
        let ev = &log.take_session(1)[0];
        assert_eq!(ev.dir, PktDir::Drop);
        assert_eq!(ev.kind, PktKind::Data);
        assert_eq!(ev.len, 100);
        assert_eq!(ev.ack, 5);
        assert!(ev.push);
        assert_eq!(ev.meta.len(), 1);
    }
}
