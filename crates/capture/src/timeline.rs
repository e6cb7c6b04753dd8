//! Timeline extraction — the measurable quantities of the paper's Fig. 2
//! model.

use crate::classify::Classifier;
use crate::errors::{SessionError, TimelineError};
use crate::session::ClientTrace;
use simcore::time::SimTime;
use tcpsim::Marker;
use tcpsim::NodeId;
use tcpsim::PktEvent;

/// The packet-level landmarks of one query session at the client.
#[derive(Clone, Copy, Debug)]
pub struct Timeline {
    /// First SYN sent.
    pub tb: SimTime,
    /// HTTP GET sent.
    pub t1: SimTime,
    /// First ACK covering the GET received.
    pub t2: SimTime,
    /// First static-content packet received.
    pub t3: SimTime,
    /// Last static-content packet received.
    pub t4: SimTime,
    /// First dynamic-content packet received.
    pub t5: SimTime,
    /// Last payload packet received.
    pub te: SimTime,
    /// Handshake RTT estimate in ms.
    pub rtt_ms: f64,
    /// Static bytes identified by the classifier.
    pub static_bytes: u64,
    /// Total payload bytes received.
    pub total_bytes: u64,
}

impl Timeline {
    /// `Tstatic := t4 − t2` in ms.
    pub fn t_static_ms(&self) -> f64 {
        self.t4.saturating_since(self.t2).as_millis_f64()
    }

    /// `Tdynamic := t5 − t2` in ms.
    pub fn t_dynamic_ms(&self) -> f64 {
        self.t5.saturating_since(self.t2).as_millis_f64()
    }

    /// `Tdelta := t5 − t4` in ms, clamped at 0 (the portions coalesce at
    /// large RTT — "delivered back-to-back or even coalesce as a single
    /// packet").
    pub fn t_delta_ms(&self) -> f64 {
        self.t5.saturating_since(self.t4).as_millis_f64()
    }

    /// Overall user-perceived delay `te − tb` in ms.
    pub fn overall_ms(&self) -> f64 {
        self.te.saturating_since(self.tb).as_millis_f64()
    }

    /// Extracts the timeline from one session's events using the given
    /// classifier. Fails with a [`TimelineError`] naming why the session
    /// is unusable (no handshake, no GET, truncated response,
    /// retransmission storm, or no classifiable boundary).
    pub fn extract(
        events: &[PktEvent],
        client: NodeId,
        classifier: &Classifier,
    ) -> Result<Timeline, TimelineError> {
        let trace = ClientTrace::new(events, client)?;
        Timeline::from_trace(&trace, classifier)
    }

    /// Extracts the timeline from an already-filtered [`ClientTrace`].
    pub fn from_trace(
        trace: &ClientTrace,
        classifier: &Classifier,
    ) -> Result<Timeline, TimelineError> {
        let tb = trace.tb;
        let rtt_ms = trace.rtt_ms.ok_or(SessionError::NoHandshake)?;
        let t1 = trace.t1().ok_or(TimelineError::NoRequest)?;
        let t2 = trace.t2().ok_or(TimelineError::Truncated)?;
        let te = trace.te().ok_or(TimelineError::Truncated)?;
        // Landmark times come from packet arrival order; when most of the
        // payload is retransmitted copies, that order reflects loss
        // recovery rather than server behaviour — refuse to measure.
        if duplicate_count(trace.rx_data.iter().map(|e| (e.seq, e.len))) > trace.rx_data.len() / 2 {
            return Err(TimelineError::RetransmissionHeavy);
        }
        // A response consisting solely of error-stub bytes (a shed
        // query's fast rejection) has no content boundary to measure
        // under any classifier — name the reason instead of reporting a
        // missing boundary.
        if !trace.rx_data.is_empty()
            && trace
                .rx_data
                .iter()
                .all(|e| !e.meta.is_empty() && e.meta.iter().all(|m| m.marker == Marker::Error))
        {
            return Err(TimelineError::ErrorStubOnly);
        }
        let mut t3: Option<SimTime> = None;
        let mut t4: Option<SimTime> = None;
        let mut t5: Option<SimTime> = None;
        let mut static_bytes = 0u64;
        let mut total_bytes = 0u64;
        // ByPush state: are we still inside the first PSH-terminated
        // chunk?
        let mut before_first_push_end = true;
        for ev in &trace.rx_data {
            total_bytes += ev.len as u64;
            let class = classifier.classify(ev, before_first_push_end);
            static_bytes += classifier.static_bytes(ev, before_first_push_end);
            if class.has_static {
                if t3.is_none() {
                    t3 = Some(ev.t);
                }
                t4 = Some(ev.t);
            }
            if class.has_dynamic && t5.is_none() {
                t5 = Some(ev.t);
            }
            if ev.push {
                before_first_push_end = false;
            }
        }
        Ok(Timeline {
            tb,
            t1,
            t2,
            t3: t3.ok_or(TimelineError::NoStatic)?,
            t4: t4.ok_or(TimelineError::NoStatic)?,
            t5: t5.ok_or(TimelineError::NoDynamic)?,
            te,
            rtt_ms,
            static_bytes,
            total_bytes,
        })
    }
}

/// Number of repeated `(seq, len)` keys: every occurrence of a key after
/// its first, i.e. the key count minus the number of distinct keys.
fn duplicate_count(keys: impl Iterator<Item = (u64, u32)>) -> usize {
    let mut keys: Vec<(u64, u32)> = keys.collect();
    let n = keys.len();
    keys.sort_unstable();
    keys.dedup();
    n - keys.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimTime;
    use tcpsim::{ConnId, Marker, MetaSpan, PktDir, PktKind};

    #[allow(clippy::too_many_arguments)]
    fn ev(
        t_ms: u64,
        dir: PktDir,
        kind: PktKind,
        seq: u64,
        len: u32,
        ack: u64,
        push: bool,
        meta: Vec<MetaSpan>,
    ) -> PktEvent {
        PktEvent {
            t: SimTime::from_millis(t_ms),
            node: NodeId(1),
            conn: ConnId(0),
            session: 1,
            dir,
            kind,
            seq,
            len,
            ack,
            push,
            meta: meta.into(),
        }
    }

    fn span(offset: u64, len: u32, marker: Marker, content: u64) -> MetaSpan {
        MetaSpan {
            offset,
            len,
            marker,
            content,
        }
    }

    /// A hand-built session: RTT 50ms, static 2 packets (ends 107, PSH),
    /// dynamic starts 250.
    fn session() -> Vec<PktEvent> {
        vec![
            ev(0, PktDir::Tx, PktKind::Syn, 0, 0, 0, false, vec![]),
            ev(50, PktDir::Rx, PktKind::SynAck, 0, 0, 0, false, vec![]),
            ev(
                50,
                PktDir::Tx,
                PktKind::Data,
                0,
                400,
                0,
                true,
                vec![span(0, 400, Marker::Request, 900)],
            ),
            ev(100, PktDir::Rx, PktKind::Ack, 0, 0, 400, false, vec![]),
            ev(
                105,
                PktDir::Rx,
                PktKind::Data,
                0,
                1460,
                400,
                false,
                vec![span(0, 1460, Marker::Static, 1)],
            ),
            ev(
                107,
                PktDir::Rx,
                PktKind::Data,
                1460,
                540,
                400,
                true,
                vec![span(1460, 540, Marker::Static, 1)],
            ),
            ev(
                250,
                PktDir::Rx,
                PktKind::Data,
                2000,
                1460,
                400,
                false,
                vec![span(2000, 1460, Marker::Dynamic, 1001)],
            ),
            ev(
                252,
                PktDir::Rx,
                PktKind::Data,
                3460,
                1000,
                400,
                true,
                vec![span(3460, 1000, Marker::Dynamic, 1001)],
            ),
        ]
    }

    #[test]
    fn marker_extraction_matches_hand_computation() {
        let tl = Timeline::extract(&session(), NodeId(1), &Classifier::ByMarker).unwrap();
        assert_eq!(tl.rtt_ms, 50.0);
        assert_eq!(tl.t1, SimTime::from_millis(50));
        assert_eq!(tl.t2, SimTime::from_millis(100));
        assert_eq!(tl.t3, SimTime::from_millis(105));
        assert_eq!(tl.t4, SimTime::from_millis(107));
        assert_eq!(tl.t5, SimTime::from_millis(250));
        assert_eq!(tl.te, SimTime::from_millis(252));
        assert_eq!(tl.t_static_ms(), 7.0);
        assert_eq!(tl.t_dynamic_ms(), 150.0);
        assert_eq!(tl.t_delta_ms(), 143.0);
        assert_eq!(tl.overall_ms(), 252.0);
        assert_eq!(tl.static_bytes, 2000);
        assert_eq!(tl.total_bytes, 4460);
    }

    #[test]
    fn content_classifier_agrees_with_markers_here() {
        let ids = std::collections::HashSet::from([1u64]);
        let a = Timeline::extract(&session(), NodeId(1), &Classifier::ByMarker).unwrap();
        let b = Timeline::extract(&session(), NodeId(1), &Classifier::ByContent(ids)).unwrap();
        assert_eq!(a.t4, b.t4);
        assert_eq!(a.t5, b.t5);
        assert_eq!(a.static_bytes, b.static_bytes);
    }

    #[test]
    fn push_classifier_agrees_when_no_coalescing() {
        let tl = Timeline::extract(&session(), NodeId(1), &Classifier::ByPush).unwrap();
        assert_eq!(tl.t4, SimTime::from_millis(107));
        assert_eq!(tl.t5, SimTime::from_millis(250));
    }

    #[test]
    fn coalesced_boundary_gives_zero_tdelta() {
        // Static end and dynamic start in one packet.
        let evs = vec![
            ev(0, PktDir::Tx, PktKind::Syn, 0, 0, 0, false, vec![]),
            ev(50, PktDir::Rx, PktKind::SynAck, 0, 0, 0, false, vec![]),
            ev(
                50,
                PktDir::Tx,
                PktKind::Data,
                0,
                400,
                0,
                true,
                vec![span(0, 400, Marker::Request, 900)],
            ),
            ev(100, PktDir::Rx, PktKind::Ack, 0, 0, 400, false, vec![]),
            ev(
                105,
                PktDir::Rx,
                PktKind::Data,
                0,
                1460,
                400,
                true,
                vec![
                    span(0, 1000, Marker::Static, 1),
                    span(1000, 460, Marker::Dynamic, 1001),
                ],
            ),
            ev(
                106,
                PktDir::Rx,
                PktKind::Data,
                1460,
                500,
                400,
                true,
                vec![span(1460, 500, Marker::Dynamic, 1001)],
            ),
        ];
        let tl = Timeline::extract(&evs, NodeId(1), &Classifier::ByMarker).unwrap();
        assert_eq!(tl.t4, tl.t5);
        assert_eq!(tl.t_delta_ms(), 0.0);
    }

    #[test]
    fn malformed_sessions_yield_typed_errors() {
        // Missing SYN-ACK.
        let evs = vec![ev(0, PktDir::Tx, PktKind::Syn, 0, 0, 0, false, vec![])];
        assert_eq!(
            Timeline::extract(&evs, NodeId(1), &Classifier::ByMarker).unwrap_err(),
            TimelineError::Session(SessionError::NoHandshake)
        );
        // Response without any dynamic part.
        let evs2 = vec![
            ev(0, PktDir::Tx, PktKind::Syn, 0, 0, 0, false, vec![]),
            ev(50, PktDir::Rx, PktKind::SynAck, 0, 0, 0, false, vec![]),
            ev(
                50,
                PktDir::Tx,
                PktKind::Data,
                0,
                400,
                0,
                true,
                vec![span(0, 400, Marker::Request, 900)],
            ),
            ev(
                100,
                PktDir::Rx,
                PktKind::Data,
                0,
                1460,
                400,
                true,
                vec![span(0, 1460, Marker::Static, 1)],
            ),
        ];
        assert_eq!(
            Timeline::extract(&evs2, NodeId(1), &Classifier::ByMarker).unwrap_err(),
            TimelineError::NoDynamic
        );
        // Wrong node entirely.
        assert_eq!(
            Timeline::extract(&evs, NodeId(9), &Classifier::ByMarker).unwrap_err(),
            TimelineError::Session(SessionError::NoClientSyn)
        );
    }

    #[test]
    fn error_stub_only_session_is_rejected_as_such() {
        // A shed query's fast rejection: the only payload back is the
        // error stub. Every classifier should name the refusal rather
        // than complain about a missing content boundary.
        let evs = vec![
            ev(0, PktDir::Tx, PktKind::Syn, 0, 0, 0, false, vec![]),
            ev(50, PktDir::Rx, PktKind::SynAck, 0, 0, 0, false, vec![]),
            ev(
                50,
                PktDir::Tx,
                PktKind::Data,
                0,
                400,
                0,
                true,
                vec![span(0, 400, Marker::Request, 900)],
            ),
            ev(
                100,
                PktDir::Rx,
                PktKind::Data,
                0,
                200,
                400,
                true,
                vec![span(0, 200, Marker::Error, 999)],
            ),
        ];
        for c in [Classifier::ByMarker, Classifier::ByPush] {
            assert_eq!(
                Timeline::extract(&evs, NodeId(1), &c).unwrap_err(),
                TimelineError::ErrorStubOnly
            );
        }
    }

    #[test]
    fn truncated_session_is_rejected() {
        // GET sent, never acknowledged, no payload back.
        let evs = vec![
            ev(0, PktDir::Tx, PktKind::Syn, 0, 0, 0, false, vec![]),
            ev(50, PktDir::Rx, PktKind::SynAck, 0, 0, 0, false, vec![]),
            ev(
                50,
                PktDir::Tx,
                PktKind::Data,
                0,
                400,
                0,
                true,
                vec![span(0, 400, Marker::Request, 900)],
            ),
        ];
        assert_eq!(
            Timeline::extract(&evs, NodeId(1), &Classifier::ByMarker).unwrap_err(),
            TimelineError::Truncated
        );
    }

    #[test]
    fn retransmission_storm_is_rejected() {
        // The same payload packet delivered over and over: more duplicate
        // receptions than fresh ones.
        let mut evs = session();
        let dup = evs[4].clone();
        for _ in 0..6 {
            evs.push(dup.clone());
        }
        assert_eq!(
            Timeline::extract(&evs, NodeId(1), &Classifier::ByMarker).unwrap_err(),
            TimelineError::RetransmissionHeavy
        );
        // A couple of duplicates (ordinary loss recovery) still extract.
        let mut light = session();
        light.push(dup.clone());
        assert!(Timeline::extract(&light, NodeId(1), &Classifier::ByMarker).is_ok());
        // The boundary: with 4 fresh payload packets plus `k` copies,
        // `k == len / 2` still extracts and `k == len / 2 + 1` does not.
        for (copies, ok) in [(4, true), (5, false)] {
            let mut evs = session();
            evs.extend(std::iter::repeat_n(dup.clone(), copies));
            let rx_data = 4 + copies;
            assert_eq!(copies == rx_data / 2, ok);
            let got = Timeline::extract(&evs, NodeId(1), &Classifier::ByMarker);
            assert_eq!(got.is_ok(), ok, "{copies} copies: {got:?}");
            if !ok {
                assert_eq!(got.unwrap_err(), TimelineError::RetransmissionHeavy);
            }
        }
    }

    mod duplicates {
        use super::super::duplicate_count;
        use proptest::prelude::*;
        use std::collections::HashSet;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The sorted-key count agrees with the first-seen rule: a
            /// reception is a duplicate when its `(seq, len)` key was
            /// already seen. Small key ranges force many repeats.
            #[test]
            fn sorted_count_matches_hash_set_reference(
                keys in prop::collection::vec((0u64..8, 0u32..3), 0..48),
                stride in 1u64..4_000_000_000,
            ) {
                let keys: Vec<(u64, u32)> =
                    keys.into_iter().map(|(s, l)| (s * stride, l * 1460)).collect();
                let mut seen = HashSet::new();
                let reference = keys.iter().filter(|k| !seen.insert(**k)).count();
                prop_assert_eq!(duplicate_count(keys.iter().copied()), reference);
            }
        }
    }
}
