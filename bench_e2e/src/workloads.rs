//! The benchmark's workloads: each one is a [`Campaign`] built from the
//! seed alone, plus the number of queries it schedules (the denominator
//! of every accounting check).
//!
//! Sizes are fixed here, never read from the environment, so a run is a
//! function of `(workload, seed)` only. [`Size::Small`] shrinks every
//! workload to a few hundred queries for the benchmark's own tests.

use cdnsim::{
    CacheConfig, FeLoadProfile, LoadAwarePolicy, LoadModel, MappingPolicy, QuerySpec, RetryBudget,
    RetryPolicy, ServiceConfig,
};
use emulator::dataset_b::DatasetB;
use emulator::{Campaign, Design, Scenario, SessionWorkload};
use searchbe::KeywordClass;
use simcore::dist::PopularityModel;
use simcore::rng::Rng;
use simcore::time::SimDuration;

/// One named workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 5 at paper scale: Dataset B against one fixed FE per service.
    Fig5Paper,
    /// A lazily fed session slab over default-FE mapping with a bounded
    /// LRU result cache and shot-noise popularity churn.
    ChurnSessions,
    /// {NearestLive, LoadAware} x {calm, flash} under the load model,
    /// admission control and a retry budget, on two workers.
    FlashRemap,
}

/// Every workload, in the order the documentation lists them.
pub const ALL: [Workload; 3] = [
    Workload::Fig5Paper,
    Workload::ChurnSessions,
    Workload::FlashRemap,
];

/// How big to make a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Bench,
    /// A few hundred queries, for tests.
    #[cfg_attr(not(test), allow(dead_code))]
    Small,
}

/// A workload's campaign plus its scheduled query count.
pub struct Built {
    /// The campaign, descriptors in merge order.
    pub campaign: Campaign,
    /// Queries the campaign's designs schedule, over all runs.
    pub scheduled: usize,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig5Paper => "fig5-paper",
            Workload::ChurnSessions => "churn-sessions",
            Workload::FlashRemap => "flash-remap",
        }
    }

    /// Campaign worker count. Fixed per workload, never taken from the
    /// environment; both stay within a 2-core host.
    pub fn threads(self) -> usize {
        match self {
            Workload::FlashRemap => 2,
            Workload::Fig5Paper | Workload::ChurnSessions => 1,
        }
    }

    /// Builds the scenario and the campaign descriptors for `seed`.
    pub fn build(self, seed: u64, size: Size) -> Built {
        let mut built = match self {
            Workload::Fig5Paper => fig5(seed, size),
            Workload::ChurnSessions => churn(seed, size),
            Workload::FlashRemap => flash(seed, size),
        };
        // Program telemetry on regardless of `FECDN_METRICS`: the
        // traced run reads these registries, and both runs must do the
        // same work.
        for d in built.campaign.descriptors_mut() {
            d.metrics = Some(true);
        }
        built
    }
}

fn scenario(seed: u64, size: Size) -> Scenario {
    match size {
        Size::Bench => Scenario::paper_scale(seed),
        Size::Small => Scenario::with_size(seed, 12, 400),
    }
}

// ---- fig5-paper -------------------------------------------------------

/// Dataset B repeats per vantage (the paper's 720).
const FIG5_REPEATS: u64 = 36;

/// Dataset B against the FE that is the first vantage's default — the
/// same deterministic pick the `fig5` binary makes, inside the world —
/// with the corpus's first popular keyword. The keyword's class sets the
/// response size, so fixing the class (not the id, whose class varies
/// with the seed) keeps the packet work per query alike across seeds.
fn fixed_fe_design(repeats: u64) -> Design {
    Design::custom(move |sim| {
        let (fe, keyword) = sim.with(|w, _| {
            let keyword = w
                .corpus()
                .all()
                .iter()
                .find(|k| k.class == KeywordClass::Popular)
                .map_or(0, |k| k.id);
            (w.default_fe(0), keyword)
        });
        let mut design = DatasetB::against(fe).with_repeats(repeats);
        design.keyword = keyword;
        design.schedule(sim);
    })
}

fn fig5(seed: u64, size: Size) -> Built {
    let repeats = match size {
        Size::Bench => FIG5_REPEATS,
        Size::Small => 3,
    };
    let scenario = scenario(seed, size);
    let clients = scenario.vantage_count();
    let mut campaign = Campaign::new(scenario);
    campaign.push(
        "bing-like",
        ServiceConfig::bing_like(seed),
        fixed_fe_design(repeats),
    );
    campaign.push(
        "google-like",
        ServiceConfig::google_like(seed),
        fixed_fe_design(repeats),
    );
    Built {
        campaign,
        scheduled: 2 * clients * repeats as usize,
    }
}

// ---- churn-sessions ---------------------------------------------------

/// Zipf exponent of keyword popularity.
const ZIPF_EXPONENT: f64 = 0.9;
/// Shot-noise churn: popularity-rank swaps per virtual second.
const CHURN_PER_SEC: f64 = 2.0;
/// Bytes of FE result cache per FE (LRU).
const RESULT_CACHE_BYTES: u64 = 400 * 26_000;
/// Sessions of two queries each.
const CHURN_SESSIONS: u64 = 8_000;

/// The session slab: keyword draws follow a churned Zipf over the whole
/// corpus, clients are drawn uniformly, and every client uses its
/// default (NearestLive) FE.
pub fn churn_workload(sessions: u64) -> SessionWorkload {
    SessionWorkload::new(sessions)
        .with_queries_per_session(2)
        .with_think(SimDuration::from_secs(2))
        .with_mean_gap(SimDuration::from_millis(10))
        .with_popularity(PopularityModel::static_zipf(ZIPF_EXPONENT).with_churn(CHURN_PER_SEC))
}

fn churn(seed: u64, size: Size) -> Built {
    let sessions = match size {
        Size::Bench => CHURN_SESSIONS,
        Size::Small => 150,
    };
    let workload = churn_workload(sessions);
    let scheduled = workload.total_queries() as usize;
    let mut campaign = Campaign::new(scenario(seed, size));
    campaign.push(
        "churn/lru",
        ServiceConfig::google_like(seed).with_result_cache(CacheConfig::lru(RESULT_CACHE_BYTES)),
        Design::Sessions(workload),
    );
    Built {
        campaign,
        scheduled,
    }
}

// ---- flash-remap ------------------------------------------------------

/// Queries per calm cell and per flash cell. The cells differ in size on
/// purpose, so the pool's claim order and the merge matter.
const CALM_QUERIES: usize = 1_500;
const FLASH_QUERIES: usize = 6_000;
/// Inter-arrival gap of a calm and a flash crowd, microseconds.
const CALM_GAP_US: u64 = 6_250;
const FLASH_GAP_US: u64 = 2_000;
/// Share of a crowd's queries that come from the hot regions.
const HOT_SHARE: f64 = 0.8;
/// Hot regions per crowd: averaging over several keeps the burst's cost
/// from hinging on one region's geography.
const HOT_REGIONS: usize = 8;

/// One query of a generated crowd.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrowdQuery {
    /// Offset from the start of the run.
    pub at: SimDuration,
    /// Issuing client (vantage index).
    pub client: usize,
    /// Keyword id.
    pub keyword: u64,
}

/// A crowd of `n` queries, one every `gap_us`: a [`HOT_SHARE`] of them
/// from a uniformly chosen region of `hot` (each a non-empty client
/// list), the rest from any of `clients`, keywords uniform over a
/// `corpus_len`-keyword corpus. A pure function of its arguments.
pub fn crowd(
    seed: u64,
    n: usize,
    gap_us: u64,
    hot: &[Vec<usize>],
    clients: usize,
    corpus_len: usize,
) -> Vec<CrowdQuery> {
    assert!(clients > 0 && corpus_len > 0, "empty scenario");
    let mut rng = Rng::from_seed_and_name(seed, "bench_e2e/crowd");
    (0..n)
        .map(|i| {
            let client = if !hot.is_empty() && rng.chance(HOT_SHARE) {
                let region = rng.choose(hot);
                *rng.choose(region)
            } else {
                rng.next_below(clients as u64) as usize
            };
            CrowdQuery {
                at: SimDuration::from_micros(1_000 + gap_us * i as u64),
                client,
                keyword: rng.next_below(corpus_len as u64),
            }
        })
        .collect()
}

/// Schedules a crowd over [`HOT_REGIONS`] hot regions, each the clients
/// sharing one default FE (the FEs of seed-chosen anchor clients), so
/// NearestLive funnels the burst onto those FEs and LoadAware has
/// somewhere to deflect it.
fn crowd_design(seed: u64, n: usize, gap_us: u64) -> Design {
    Design::custom(move |sim| {
        sim.with(|w, net| {
            let clients = w.clients().len();
            let mut anchors = Rng::from_seed_and_name(seed, "bench_e2e/anchor");
            let mut hot_fes = Vec::new();
            for _ in 0..64 {
                let fe = w.default_fe(anchors.next_below(clients as u64) as usize);
                if !hot_fes.contains(&fe) {
                    hot_fes.push(fe);
                }
                if hot_fes.len() == HOT_REGIONS {
                    break;
                }
            }
            let hot: Vec<Vec<usize>> = hot_fes
                .iter()
                .map(|&fe| (0..clients).filter(|&c| w.default_fe(c) == fe).collect())
                .collect();
            for q in crowd(seed, n, gap_us, &hot, clients, w.corpus().len()) {
                w.schedule_query(
                    net,
                    q.at,
                    QuerySpec {
                        client: q.client,
                        keyword: q.keyword,
                        fixed_fe: None,
                        instant_followup: false,
                    },
                );
            }
        });
    })
}

fn flash_cfg(seed: u64, mapping: MappingPolicy) -> ServiceConfig {
    let mut cfg = ServiceConfig::google_like(seed)
        .with_mapping(mapping)
        .with_load_model(LoadModel {
            fe_capacity: 4,
            be_capacity: 64,
            max_slowdown: 12.0,
        })
        .with_admission_control(24)
        .with_client_retry(RetryPolicy {
            deadline: SimDuration::from_secs(3),
            max_retries: 2,
            base_backoff: SimDuration::from_millis(200),
            jitter: 0.3,
        })
        .with_retry_budget(RetryBudget {
            max_tokens: 2.0,
            refill_per_sec: 0.2,
        });
    cfg.fe_load = FeLoadProfile::shared();
    cfg.fe_workers = 2;
    cfg
}

fn flash(seed: u64, size: Size) -> Built {
    let (calm, flash) = match size {
        Size::Bench => (CALM_QUERIES, FLASH_QUERIES),
        Size::Small => (60, 180),
    };
    let strategies = [
        ("nearest", MappingPolicy::NearestLive),
        (
            "loadaware",
            MappingPolicy::LoadAware(LoadAwarePolicy {
                epoch: SimDuration::from_millis(25),
                high_watermark: 2.0,
                low_watermark: 1.0,
                spill_width: 4,
            }),
        ),
    ];
    let mut campaign = Campaign::new(scenario(seed, size));
    let mut scheduled = 0;
    for (sname, mapping) in strategies {
        for (iname, n, gap_us) in [("calm", calm, CALM_GAP_US), ("flash", flash, FLASH_GAP_US)] {
            let label = format!("map/{sname}/{iname}");
            let crowd_seed = simcore::rng::stream_seed(seed, &label);
            campaign.push(
                label,
                flash_cfg(seed, mapping),
                crowd_design(crowd_seed, n, gap_us),
            );
            scheduled += n;
        }
    }
    Built {
        campaign,
        scheduled,
    }
}
