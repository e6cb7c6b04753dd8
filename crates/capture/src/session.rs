//! Client-side view of one query session.

use crate::errors::SessionError;
use simcore::time::SimTime;
use tcpsim::{NodeId, PktDir, PktEvent, PktKind};

/// The packet events of one session as observed at the client, split
/// into transmit and receive sides, with the handshake landmarks
/// extracted. The sides borrow the session's events; nothing is copied.
#[derive(Clone, Debug)]
pub struct ClientTrace<'a> {
    /// Data-bearing packets received by the client, in time order.
    pub rx_data: Vec<&'a PktEvent>,
    /// All packets received by the client (ACKs included).
    pub rx_all: Vec<&'a PktEvent>,
    /// All packets transmitted by the client.
    pub tx_all: Vec<&'a PktEvent>,
    /// Time the first SYN left (`tb` in the paper's Fig. 2).
    pub tb: SimTime,
    /// Handshake RTT estimate: first SYN-ACK arrival − first SYN
    /// departure (the quantity plotted on every RTT axis in the paper).
    pub rtt_ms: Option<f64>,
}

impl<'a> ClientTrace<'a> {
    /// Filters `events` down to those observed at `client`, requiring at
    /// least a transmitted SYN. Fails with
    /// [`SessionError::NoClientSyn`] for traces with no client-side SYN
    /// (capture started mid-session, or the wrong node was named).
    ///
    /// A client-vantage capture holds only `client`'s events, so the
    /// filter rejects nothing there; it keeps traces captured at every
    /// node correct.
    pub fn new(events: &'a [PktEvent], client: NodeId) -> Result<ClientTrace<'a>, SessionError> {
        let mut rx_data = Vec::new();
        let mut rx_all = Vec::new();
        let mut tx_all = Vec::new();
        for ev in events {
            if ev.node != client {
                continue;
            }
            match ev.dir {
                PktDir::Rx => {
                    if ev.kind == PktKind::Data && ev.len > 0 {
                        rx_data.push(ev);
                    }
                    rx_all.push(ev);
                }
                PktDir::Tx => tx_all.push(ev),
                PktDir::Drop => {}
            }
        }
        let syn = tx_all
            .iter()
            .find(|e| e.kind == PktKind::Syn)
            .ok_or(SessionError::NoClientSyn)?;
        let tb = syn.t;
        let rtt_ms = rx_all
            .iter()
            .find(|e| e.kind == PktKind::SynAck)
            .map(|sa| sa.t.saturating_since(tb).as_millis_f64());
        Ok(ClientTrace {
            rx_data,
            rx_all,
            tx_all,
            tb,
            rtt_ms,
        })
    }

    /// Time the HTTP GET left (`t1`): the first transmitted data packet.
    pub fn t1(&self) -> Option<SimTime> {
        self.tx_all
            .iter()
            .find(|e| e.kind == PktKind::Data && e.len > 0)
            .map(|e| e.t)
    }

    /// End of the request stream: the highest sequence the client sent
    /// plus its length (what the server's ACK must reach to confirm the
    /// full GET).
    pub fn request_end_seq(&self) -> u64 {
        self.tx_all
            .iter()
            .filter(|e| e.kind == PktKind::Data)
            .map(|e| e.seq + e.len as u64)
            .max()
            .unwrap_or(0)
    }

    /// Time the first ACK covering the whole GET arrived (`t2`).
    pub fn t2(&self) -> Option<SimTime> {
        let req_end = self.request_end_seq();
        if req_end == 0 {
            return None;
        }
        let t1 = self.t1()?;
        self.rx_all
            .iter()
            .find(|e| e.t >= t1 && e.ack >= req_end)
            .map(|e| e.t)
    }

    /// Time of the last received payload packet (`te`).
    pub fn te(&self) -> Option<SimTime> {
        self.rx_data.last().map(|e| e.t)
    }

    /// Total payload bytes received.
    pub fn bytes_received(&self) -> u64 {
        self.rx_data.iter().map(|e| e.len as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpsim::{ConnId, SpanVec};

    fn ev(
        t_ms: u64,
        node: u32,
        dir: PktDir,
        kind: PktKind,
        seq: u64,
        len: u32,
        ack: u64,
    ) -> PktEvent {
        PktEvent {
            t: SimTime::from_millis(t_ms),
            node: NodeId(node),
            conn: ConnId(0),
            session: 1,
            dir,
            kind,
            seq,
            len,
            ack,
            push: false,
            meta: SpanVec::new(),
        }
    }

    fn sample_session() -> Vec<PktEvent> {
        vec![
            ev(0, 1, PktDir::Tx, PktKind::Syn, 0, 0, 0),
            ev(50, 1, PktDir::Rx, PktKind::SynAck, 0, 0, 0),
            ev(50, 1, PktDir::Tx, PktKind::Ack, 0, 0, 0),
            ev(50, 1, PktDir::Tx, PktKind::Data, 0, 400, 0), // GET at t1=50
            ev(100, 1, PktDir::Rx, PktKind::Ack, 0, 0, 400), // t2=100
            ev(105, 1, PktDir::Rx, PktKind::Data, 0, 1460, 400),
            ev(106, 1, PktDir::Rx, PktKind::Data, 1460, 1460, 400),
            ev(300, 1, PktDir::Rx, PktKind::Data, 2920, 1000, 400), // te=300
            // Noise from other nodes must be ignored:
            ev(10, 9, PktDir::Tx, PktKind::Data, 0, 99, 0),
        ]
    }

    #[test]
    fn extracts_landmarks() {
        let evs = sample_session();
        let tr = ClientTrace::new(&evs, NodeId(1)).unwrap();
        assert_eq!(tr.tb, SimTime::ZERO);
        assert_eq!(tr.rtt_ms, Some(50.0));
        assert_eq!(tr.t1(), Some(SimTime::from_millis(50)));
        assert_eq!(tr.request_end_seq(), 400);
        assert_eq!(tr.t2(), Some(SimTime::from_millis(100)));
        assert_eq!(tr.te(), Some(SimTime::from_millis(300)));
        assert_eq!(tr.bytes_received(), 1460 + 1460 + 1000);
        assert_eq!(tr.rx_data.len(), 3);
    }

    #[test]
    fn ignores_other_nodes() {
        let evs = sample_session();
        let tr = ClientTrace::new(&evs, NodeId(1)).unwrap();
        assert!(tr.tx_all.iter().all(|e| e.node == NodeId(1)));
    }

    #[test]
    fn error_without_client_syn() {
        let evs = vec![ev(0, 2, PktDir::Tx, PktKind::Syn, 0, 0, 0)];
        assert_eq!(
            ClientTrace::new(&evs, NodeId(1)).unwrap_err(),
            SessionError::NoClientSyn
        );
    }

    #[test]
    fn t2_requires_full_request_ack() {
        let mut evs = sample_session();
        // Make the first ACK a partial one (ack=200 < 400).
        evs[4].ack = 200;
        let tr = ClientTrace::new(&evs, NodeId(1)).unwrap();
        // Next acking packet is the data packet at 105 with ack=400.
        assert_eq!(tr.t2(), Some(SimTime::from_millis(105)));
    }

    #[test]
    fn missing_rtt_when_no_synack() {
        let evs = vec![ev(0, 1, PktDir::Tx, PktKind::Syn, 0, 0, 0)];
        let tr = ClientTrace::new(&evs, NodeId(1)).unwrap();
        assert_eq!(tr.rtt_ms, None);
        assert_eq!(tr.t1(), None);
        assert_eq!(tr.t2(), None);
        assert_eq!(tr.te(), None);
    }
}
