//! # tcpsim — a packet-level TCP simulator
//!
//! The paper's inference model is *about* TCP mechanics: the front-end
//! server's congestion window paces the static-content burst across RTT
//! rounds, split TCP keeps the FE↔BE leg's window warm, and the interplay
//! of the two produces the measurable `Tstatic` / `Tdynamic` / `Tdelta`
//! signatures. This crate implements those mechanics at packet
//! granularity:
//!
//! * three-way handshake (with SYN retransmission),
//! * slow start and congestion avoidance (Reno with Appropriate Byte
//!   Counting, RFC 3465),
//! * fast retransmit / fast recovery (NewReno-style partial-ACK handling),
//! * retransmission timeout with Karn's algorithm and exponential backoff
//!   (RFC 6298),
//! * delayed ACKs (ack-every-second-segment with a timeout, immediate ACK
//!   on PSH and on out-of-order arrivals),
//! * configurable initial window, MSS and receive window,
//! * optional slow-start-after-idle (RFC 2861) — disabled on the
//!   persistent FE↔BE connections, which is precisely the "warm
//!   connection" benefit of split TCP,
//! * per-path delay/jitter/loss/bandwidth from a [`PathParams`],
//! * full packet tracing with application-layer *markers* (request /
//!   static / dynamic ...), the simulator's analogue of running tcpdump
//!   with payloads at every vantage point.
//!
//! The simulation is deterministic: all randomness (jitter, loss) comes
//! from per-connection streams derived from the experiment seed.
//!
//! ## Architecture
//!
//! [`Sim`] owns a [`Net`] (connections, event queue, traces) and the
//! user's [`App`] (the application state machine: clients, front-end
//! servers, back-end data centers live there). The event loop pops one
//! event, updates TCP state, and queues application callbacks which are
//! delivered with `&mut Net` so the app can immediately send, open
//! connections or set timers.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cubic;
pub mod endpoint;
pub mod net;
pub mod opts;
pub mod segment;
pub mod trace;

pub use endpoint::{ConnStats, TcpState};
pub use net::{
    App, ConnId, DeliveredSpan, End, FaultTarget, LinkFault, LinkFaultKind, Net, NodeId,
    PathParams, Sim,
};
pub use opts::{CongAlgo, TcpOptions};
pub use segment::{Marker, MetaSpan, PktKind, Segment, SpanVec};
pub use trace::{Capture, PktDir, PktEvent, TraceLog};
