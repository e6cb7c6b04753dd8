//! # simcore — deterministic discrete-event simulation core
//!
//! Foundation for the `fecdn` packet-level network simulator. Provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond virtual time. All
//!   simulation state advances only through the event queue, never through
//!   wall-clock reads, so every run is exactly reproducible.
//! * [`EventQueue`] — a hierarchical timing-wheel event queue with stable
//!   FIFO ordering for simultaneous events (ties are broken by insertion
//!   sequence, never by payload contents); [`HeapQueue`] keeps the
//!   original binary-heap engine as the equivalence-suite reference.
//!   [`LazyTimer`] re-arms a timer under a reserved queue key without
//!   queueing an event per re-arm.
//! * [`hash`] — `DetHashMap`/`DetHashSet`, the deterministic fast
//!   hasher every simulator map uses.
//! * [`rng`] — a small, self-contained xoshiro256++ PRNG with *named
//!   streams*: every stochastic component derives its own independent
//!   stream from the experiment seed, so adding a component never perturbs
//!   the draws seen by any other component.
//! * [`dist`] — the probability distributions used by the latency, loss,
//!   load and processing-time models (uniform, exponential, normal,
//!   log-normal, Pareto, Weibull, Bernoulli, empirical).
//! * [`SmallVec`] — a hand-rolled inline-first small-vector; the packet
//!   hot path uses it to carry content spans without heap allocation.
//! * [`telemetry`] — deterministic counters/gauges/histograms and
//!   virtual/wall-time spans ([`MetricsRegistry`]), gated at runtime by
//!   `FECDN_METRICS` and at compile time by the `telemetry-off` feature.
//!
//! The crate is `std`-only and single-threaded by design (its only
//! dependency is the workspace's own `stats` crate, which backs the
//! telemetry histograms): reproducibility of packet traces is a core
//! requirement of the measurement-reproduction study this workspace
//! implements.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod dist;
pub mod hash;
pub mod queue;
pub mod rng;
pub mod smallvec;
pub mod telemetry;
pub mod time;

pub use dist::{Dist, Sampler};
pub use queue::{EventQueue, HeapQueue, LazyTimer, TimerPop};
pub use rng::Rng;
pub use smallvec::SmallVec;
pub use telemetry::{MetricsRegistry, METRICS_TSV_HEADER};
pub use time::{SimDuration, SimTime};
