//! # emulator — the search-query emulator and experiment harness
//!
//! The paper's measurement apparatus: "an in-house user search query
//! emulator, which performs exactly the same functionality as the
//! web-based search box", deployed on 200–250 PlanetLab nodes, running
//! two experiment designs:
//!
//! * **Dataset A** ([`dataset_a`]) — every node queries its *default*
//!   (DNS-resolved) FE every 10 seconds;
//! * **Dataset B** ([`dataset_b`]) — one *fixed* FE at a time, queried
//!   from all nodes;
//!
//! plus the Sec. 3 caching probes ([`caching_probe`]: same-query vs
//! distinct-query designs over a 40,000-keyword corpus) and the Sec. 6
//! search-as-you-type sessions ([`instant_run`]).
//!
//! [`runner`] owns the mechanics: build a [`tcpsim::Sim`] around a
//! [`cdnsim::ServiceWorld`], drive it in time chunks, harvest completed
//! queries, extract each query's [`capture::Timeline`], and reduce to
//! [`ProcessedQuery`] records (raw packet traces are dropped as soon as
//! a timeline is extracted, so arbitrarily long campaigns run in bounded
//! memory).
//!
//! Experiments are expressed as [`campaign`]s: deterministically ordered
//! lists of independent run descriptors, executed across a worker pool
//! (`FECDN_THREADS`) and merged back in descriptor order so output is
//! byte-identical regardless of thread count.
//!
//! Results flow through [`sink`]s: each run folds its completions into
//! a [`QuerySink`](sink::QuerySink) as they drain (stream-and-reduce),
//! so campaign memory is bounded by reducer state rather than query
//! count, and raw packet traces are retained only when a sink opts in
//! ([`sink::RetainRaw`]).
//!
//! Every run also carries a [`simcore::telemetry::MetricsRegistry`]:
//! the runner harvests the transport- and service-layer registries at
//! quiescence, adds its own classification counters, and campaigns
//! merge per-run registries in descriptor order — the rendered
//! `metrics.tsv` obeys the same byte-determinism contract as the query
//! TSV.
//!
//! [`ProcessedQuery`]: runner::ProcessedQuery
//! [`instant_run`]: instant::InstantRun::run

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod caching_probe;
pub mod campaign;
pub mod dataset_a;
pub mod dataset_b;
pub mod instant;
pub mod output;
pub mod report;
pub mod runner;
pub mod scenarios;
pub mod sessions;
pub mod sink;

pub use campaign::{
    Campaign, CampaignReport, Design, RunDescriptor, RunResult, SinkRunReport, StreamReport,
    TSV_HEADER,
};
pub use runner::{run_collect, run_stream_fed, ProcessedQuery, StreamRun};
pub use scenarios::Scenario;
pub use sessions::{SessionFeeder, SessionPlan, SessionWorkload};
pub use simcore::telemetry::{MetricsRegistry, METRICS_TSV_HEADER};
pub use sink::{CollectSink, FoldSink, QuerySink, RetainRaw, SinkFactory, TsvRows};
