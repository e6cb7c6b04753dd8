//! The correctness digest: an order-sensitive FNV-1a hash over every
//! processed query's `(label, qid, client, QueryParams)`.
//!
//! Telemetry counters (trace packet counts, event counts, wall times)
//! are deliberately outside the digest, so a change that records fewer
//! packets but infers the same parameters keeps the digest.

use cdnsim::QueryOutcome;
use emulator::{ProcessedQuery, QuerySink, StreamReport};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a hasher (stable across builds and platforms, unlike
/// `std`'s `DefaultHasher`).
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Fnv {
    /// The empty hash.
    pub fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    /// Folds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a `u64` as its little-endian bytes.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// What one run's [`DigestSink`] reduces to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunDigest {
    /// Hash of the run's processed queries, in completion order.
    pub digest: u64,
    /// Queries whose timeline was extracted.
    pub processed: usize,
    /// Processed queries served cleanly (`Ok` or `Retried`); degraded
    /// ones count as failed.
    pub served: usize,
    /// Processed queries with a non-finite parameter (must stay 0).
    pub non_finite: usize,
}

/// An O(1)-state sink that hashes every processed query.
pub struct DigestSink {
    hash: Fnv,
    out: RunDigest,
}

impl DigestSink {
    /// A sink for the run labelled `label` (the label seeds the hash).
    pub fn new(label: &str) -> DigestSink {
        let mut hash = Fnv::new();
        hash.bytes(label.as_bytes());
        DigestSink {
            hash,
            out: RunDigest {
                digest: 0,
                processed: 0,
                served: 0,
                non_finite: 0,
            },
        }
    }
}

impl QuerySink for DigestSink {
    type Output = RunDigest;

    fn on_query(&mut self, q: &ProcessedQuery) {
        let p = &q.params;
        let times = [
            p.rtt_ms,
            p.t_static_ms,
            p.t_dynamic_ms,
            p.t_delta_ms,
            p.overall_ms,
        ];
        self.hash.u64(q.qid);
        self.hash.u64(q.client as u64);
        for t in times {
            self.hash.u64(t.to_bits());
        }
        self.hash.u64(p.static_bytes);
        self.hash.u64(p.total_bytes);
        self.out.processed += 1;
        if matches!(q.outcome, QueryOutcome::Ok | QueryOutcome::Retried(_)) {
            self.out.served += 1;
        }
        if !times.iter().all(|t| t.is_finite()) {
            self.out.non_finite += 1;
        }
    }

    fn finish(mut self) -> RunDigest {
        self.out.digest = self.hash.finish();
        self.out
    }
}

/// The campaign-level summary both the untraced and the traced run
/// reduce to; equality of two of these is the correctness gate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignDigest {
    /// Hash of the per-run digests in descriptor order.
    pub digest: u64,
    /// Processed queries over all runs.
    pub processed: usize,
    /// Cleanly served processed queries over all runs.
    pub served: usize,
    /// Processed queries with a non-finite parameter.
    pub non_finite: usize,
    /// Every run's outcome tally total (completions seen), summed.
    pub completed: usize,
    /// Per-run `(ok, degraded, retried, timed_out, shed, no_live_fe,
    /// skipped)` tallies, descriptor order.
    pub tallies: Vec<[usize; 7]>,
}

impl CampaignDigest {
    /// Folds per-run `(label, digest, tally)` triples, descriptor order.
    pub fn fold<'a>(
        runs: impl IntoIterator<Item = (&'a str, &'a RunDigest, &'a inference::SessionTally)>,
    ) -> CampaignDigest {
        let mut hash = Fnv::new();
        let mut out = CampaignDigest {
            digest: 0,
            processed: 0,
            served: 0,
            non_finite: 0,
            completed: 0,
            tallies: Vec::new(),
        };
        for (label, d, t) in runs {
            hash.bytes(label.as_bytes());
            hash.u64(d.digest);
            out.processed += d.processed;
            out.served += d.served;
            out.non_finite += d.non_finite;
            out.completed += t.total();
            out.tallies.push([
                t.ok,
                t.degraded,
                t.retried,
                t.timed_out,
                t.shed,
                t.no_live_fe,
                t.skipped,
            ]);
        }
        out.digest = hash.finish();
        out
    }

    /// The digest of an untraced campaign report.
    pub fn of_report(report: &StreamReport<RunDigest>) -> CampaignDigest {
        CampaignDigest::fold(
            report
                .runs
                .iter()
                .map(|r| (r.label.as_str(), &r.output, &r.tally)),
        )
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.digest)
    }
}
