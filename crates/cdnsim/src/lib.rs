//! # cdnsim — front-end servers, split TCP, and whole-service assembly
//!
//! This crate wires the substrates together into the two services the
//! paper measures:
//!
//! * [`cache`] — the first-class FE cache model: LRU/LFU/TTL eviction
//!   behind one trait with per-object sizes, byte-capacity accounting,
//!   and hit/miss/eviction statistics;
//! * [`fe`] — the front-end server model: per-request service time with a
//!   tenancy-dependent load process (Akamai FEs are shared with many
//!   customers; Google FEs are dedicated), the static-content cache, and
//!   an optional hypothetical result cache (used to validate the paper's
//!   "FEs do not cache search results" detector);
//! * [`dns`] — the client → default-FE mapping (nearest FE, as DNS-based
//!   redirection approximates);
//! * [`service`] — [`ServiceConfig`]: everything that distinguishes a
//!   Bing-like deployment (dense shared Akamai edge, public-transit
//!   FE↔BE paths, slow variable back-end) from a Google-like one (sparse
//!   dedicated POPs, private WAN, fast stable back-end), plus ablation
//!   switches (split TCP off, static cache off, FE result caching on);
//! * [`spec`] — [`WorldSpec`]: a self-contained descriptor (config +
//!   vantages + corpus + network seed) from which a ready-to-run world is
//!   constructed; the unit of sharding for parallel campaign execution;
//! * [`world`] — [`ServiceWorld`], the `tcpsim::App` implementation: it
//!   owns clients, FE servers, BE data centers, persistent FE↔BE
//!   connection pools, and executes the full query lifecycle
//!   (handshake → GET → FE static burst ∥ FE→BE fetch → dynamic burst →
//!   FIN), producing per-query records with ground truth attached.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod dns;
pub mod fe;
pub mod mapping;
pub mod service;
pub mod spec;
pub mod world;

pub use cache::{Cache, CacheConfig, CachePolicy, CacheStats, InsertOutcome, ObjectCache};
pub use dns::{DnsMap, DnsPolicy, DnsResolver};
pub use fe::{FeCaches, FeServer};
pub use mapping::{
    DnsGeoTtl, GeoTtlPolicy, LoadAware, LoadAwarePolicy, Mapper, MappingPolicy, MappingStrategy,
    NearestLive,
};
pub use service::{
    AdmissionControl, BreakerPolicy, FeLoadProfile, HedgePolicy, LoadModel, OverloadPolicy,
    RetryBudget, RetryPolicy, ServiceConfig,
};
pub use spec::WorldSpec;
pub use world::{CompletedQuery, QueryOutcome, QuerySpec, ServiceWorld};
