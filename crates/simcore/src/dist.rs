//! Probability distributions for the latency, loss, load and
//! processing-time models.
//!
//! Implemented in-tree (rather than via `rand_distr`) to keep the exact
//! draw sequences pinned by this repository. Each distribution documents
//! the sampling algorithm it uses. [`Dist`] is the enum used in model
//! configuration (serialisable as plain data), [`Sampler`] the common
//! sampling interface.

use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};

/// Common interface: draw one `f64` sample.
pub trait Sampler {
    /// Draws one sample using the supplied generator.
    fn sample(&self, rng: &mut Rng) -> f64;

    /// The distribution's mean, if finite and known in closed form.
    fn mean(&self) -> Option<f64>;
}

/// A configurable distribution over `f64`.
///
/// Negative-valued samples are meaningful for some uses (e.g. symmetric
/// jitter); users that need a non-negative quantity should wrap in
/// [`Dist::TruncatedBelow`] or clamp at the call site.
#[derive(Clone, Debug, PartialEq)]
pub enum Dist {
    /// Always the same value.
    Constant(f64),
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (exclusive).
        hi: f64,
    },
    /// Exponential with the given mean (inverse-CDF sampling).
    Exponential {
        /// Mean (= 1/λ).
        mean: f64,
    },
    /// Normal via the Box–Muller transform.
    Normal {
        /// Mean.
        mean: f64,
        /// Standard deviation.
        std: f64,
    },
    /// Log-normal: `exp(N(mu, sigma))` where `mu`/`sigma` are the
    /// parameters of the underlying normal (i.e. of `ln X`).
    LogNormal {
        /// Mean of `ln X`.
        mu: f64,
        /// Standard deviation of `ln X`.
        sigma: f64,
    },
    /// Pareto (Lomax-style tail) with scale `xmin > 0` and shape
    /// `alpha > 0`: heavy-tailed service/load bursts.
    Pareto {
        /// Minimum value (scale).
        xmin: f64,
        /// Tail index (shape); means exist for `alpha > 1`.
        alpha: f64,
    },
    /// Weibull with scale `lambda` and shape `k` (inverse-CDF sampling).
    Weibull {
        /// Scale parameter.
        lambda: f64,
        /// Shape parameter.
        k: f64,
    },
    /// Mixture of two components: with probability `p` draw from `a`,
    /// otherwise from `b`. Captures bimodal server-load regimes
    /// (quiescent vs busy multi-tenant FE).
    Mix {
        /// Probability of drawing from `a`.
        p: f64,
        /// First component.
        a: Box<Dist>,
        /// Second component.
        b: Box<Dist>,
    },
    /// Shifts another distribution by a constant offset.
    Shifted {
        /// Offset added to every sample.
        offset: f64,
        /// Underlying distribution.
        inner: Box<Dist>,
    },
    /// Rejection-free lower truncation: samples below `lo` are clamped.
    TruncatedBelow {
        /// Floor applied to every sample.
        lo: f64,
        /// Underlying distribution.
        inner: Box<Dist>,
    },
    /// Resampling from recorded values (workload replay): each draw
    /// picks a stored sample uniformly. Panics on empty data at sample
    /// time.
    Empirical(Vec<f64>),
}

impl Dist {
    /// Convenience constructor for a log-normal specified by its *linear*
    /// median and a multiplicative spread factor `s` (the ratio of the
    /// ~84th percentile to the median). `median > 0`, `s > 1`.
    ///
    /// This parameterisation reads naturally in latency models: "median
    /// 15 ms, spread 1.6×".
    pub fn lognormal_median_spread(median: f64, s: f64) -> Dist {
        assert!(median > 0.0 && s > 1.0, "bad lognormal parameters");
        Dist::LogNormal {
            mu: median.ln(),
            sigma: s.ln(),
        }
    }

    /// Convenience: a non-negative normal (clamped at zero).
    pub fn normal_nonneg(mean: f64, std: f64) -> Dist {
        Dist::TruncatedBelow {
            lo: 0.0,
            inner: Box::new(Dist::Normal { mean, std }),
        }
    }
}

impl Sampler for Dist {
    fn sample(&self, rng: &mut Rng) -> f64 {
        match self {
            Dist::Constant(v) => *v,
            Dist::Uniform { lo, hi } => rng.range_f64(*lo, *hi),
            Dist::Exponential { mean } => -mean * rng.next_f64_open().ln(),
            Dist::Normal { mean, std } => {
                // Box–Muller; one draw discarded for statelessness.
                let u1 = rng.next_f64_open();
                let u2 = rng.next_f64();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                mean + std * z
            }
            Dist::LogNormal { mu, sigma } => {
                let n = Dist::Normal {
                    mean: *mu,
                    std: *sigma,
                };
                n.sample(rng).exp()
            }
            Dist::Pareto { xmin, alpha } => xmin / rng.next_f64_open().powf(1.0 / alpha),
            Dist::Weibull { lambda, k } => lambda * (-rng.next_f64_open().ln()).powf(1.0 / k),
            Dist::Mix { p, a, b } => {
                if rng.chance(*p) {
                    a.sample(rng)
                } else {
                    b.sample(rng)
                }
            }
            Dist::Shifted { offset, inner } => offset + inner.sample(rng),
            Dist::TruncatedBelow { lo, inner } => inner.sample(rng).max(*lo),
            Dist::Empirical(data) => *rng.choose(data),
        }
    }

    fn mean(&self) -> Option<f64> {
        match self {
            Dist::Constant(v) => Some(*v),
            Dist::Uniform { lo, hi } => Some(0.5 * (lo + hi)),
            Dist::Exponential { mean } => Some(*mean),
            Dist::Normal { mean, .. } => Some(*mean),
            Dist::LogNormal { mu, sigma } => Some((mu + 0.5 * sigma * sigma).exp()),
            Dist::Pareto { xmin, alpha } => {
                if *alpha > 1.0 {
                    Some(alpha * xmin / (alpha - 1.0))
                } else {
                    None
                }
            }
            Dist::Weibull { .. } => None, // needs the gamma function
            Dist::Mix { p, a, b } => Some(p * a.mean()? + (1.0 - p) * b.mean()?),
            Dist::Shifted { offset, inner } => Some(offset + inner.mean()?),
            Dist::TruncatedBelow { .. } => None,
            Dist::Empirical(data) => {
                if data.is_empty() {
                    None
                } else {
                    Some(data.iter().sum::<f64>() / data.len() as f64)
                }
            }
        }
    }
}

/// Draws from a Zipf distribution over ranks `1..=n` with exponent `s`,
/// by inverse-CDF on a precomputed table. Used for keyword popularity.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the rank table for `n` items with exponent `s >= 0`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over zero items");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if the table is empty (never: `new` requires `n > 0`).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws a 0-based rank (0 = most popular).
    pub fn sample_rank(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).unwrap())
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// A flash-crowd window: while `start <= now < start + duration`, each
/// draw is redirected to the window's flash item with probability
/// `weight` (the item itself is chosen once per window from the
/// process's own churn stream).
#[derive(Clone, Debug, PartialEq)]
pub struct FlashCrowd {
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window length.
    pub duration: SimDuration,
    /// Probability a draw inside the window goes to the flash item.
    pub weight: f64,
}

impl FlashCrowd {
    /// True while the window is in force at `now`.
    pub fn active_at(&self, now: SimTime) -> bool {
        self.weight > 0.0 && now >= self.start && now.since(self.start) < self.duration
    }
}

/// Dynamic-popularity workload model: a Zipf law whose rank→item mapping
/// drifts under shot-noise churn, with an optional diurnal arrival-rate
/// wave and flash-crowd windows.
///
/// The churn follows the shot-noise model of cache-analysis literature:
/// content renewal events arrive as a Poisson process at `churn_per_sec`;
/// each shot promotes a uniformly drawn catalog item into a
/// Zipf-distributed popularity rank (displacing the item currently
/// there), so the popular set slowly rotates while the marginal rank
/// distribution stays exactly Zipf. With `churn_per_sec == 0` and no
/// flash windows the model is **inert**: a [`PopularityProcess`] draws
/// nothing from its churn stream and reproduces plain
/// [`Zipf::sample_rank`] draws exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct PopularityModel {
    /// Zipf exponent of the marginal rank distribution.
    pub exponent: f64,
    /// Shot-noise churn rate (popularity-renewal shots per virtual
    /// second). 0 disables churn entirely.
    pub churn_per_sec: f64,
    /// Diurnal arrival-rate wave amplitude `A` in
    /// `rate(t) = 1 + A·sin(2πt/T)`; 0 keeps the rate flat. Consulted by
    /// workload generators via [`PopularityModel::rate_factor`], never by
    /// the draw path.
    pub diurnal_amplitude: f64,
    /// Diurnal wave period `T`.
    pub diurnal_period: SimDuration,
    /// Flash-crowd windows (each overrides draws with one hot item at
    /// its `weight` while active).
    pub flash: Vec<FlashCrowd>,
}

impl PopularityModel {
    /// A static Zipf law: no churn, no diurnal wave, no flash crowds —
    /// the inert configuration.
    pub fn static_zipf(exponent: f64) -> PopularityModel {
        PopularityModel {
            exponent,
            churn_per_sec: 0.0,
            diurnal_amplitude: 0.0,
            diurnal_period: SimDuration::from_secs(86_400),
            flash: Vec::new(),
        }
    }

    /// Enables shot-noise churn at `per_sec` renewal shots per second.
    pub fn with_churn(mut self, per_sec: f64) -> PopularityModel {
        assert!(per_sec >= 0.0, "negative churn rate");
        self.churn_per_sec = per_sec;
        self
    }

    /// Enables the diurnal arrival-rate wave.
    pub fn with_diurnal(mut self, amplitude: f64, period: SimDuration) -> PopularityModel {
        assert!(
            (0.0..1.0).contains(&amplitude),
            "diurnal amplitude must be in [0, 1) so the rate stays positive"
        );
        assert!(!period.is_zero(), "diurnal period must be positive");
        self.diurnal_amplitude = amplitude;
        self.diurnal_period = period;
        self
    }

    /// Adds a flash-crowd window.
    pub fn with_flash_crowd(
        mut self,
        start: SimTime,
        duration: SimDuration,
        weight: f64,
    ) -> PopularityModel {
        assert!((0.0..=1.0).contains(&weight), "flash weight out of range");
        self.flash.push(FlashCrowd {
            start,
            duration,
            weight,
        });
        self
    }

    /// True when the draw path is inert (no churn, no flash windows): a
    /// process over this model reproduces plain Zipf draws byte-for-byte
    /// and never touches its churn stream.
    pub fn is_static(&self) -> bool {
        self.churn_per_sec == 0.0 && self.flash.iter().all(|f| f.weight == 0.0)
    }

    /// The arrival-rate multiplier `1 + A·sin(2πt/T)` at `now` (exactly
    /// 1.0 when the amplitude is 0).
    pub fn rate_factor(&self, now: SimTime) -> f64 {
        if self.diurnal_amplitude == 0.0 {
            return 1.0;
        }
        let phase = now.as_secs_f64() / self.diurnal_period.as_secs_f64();
        1.0 + self.diurnal_amplitude * (2.0 * std::f64::consts::PI * phase).sin()
    }
}

/// The evolving state of a [`PopularityModel`] over a catalog of `n`
/// items: a [`Zipf`] rank law composed with a churning rank→item
/// permutation.
///
/// Churn shots are drawn from the process's **own** RNG stream (passed
/// at construction, conventionally a named child stream), never from the
/// caller's draw stream — so arming churn perturbs only the mapping, and
/// a zero-churn process consumes the caller's stream exactly like a bare
/// `Zipf`. Advancing is lazy: shots up to `now` are applied on the next
/// [`sample`](PopularityProcess::sample) or
/// [`advance`](PopularityProcess::advance) call.
#[derive(Clone, Debug)]
pub struct PopularityProcess {
    model: PopularityModel,
    zipf: Zipf,
    /// rank → item id (identity until the first shot).
    slots: Vec<u64>,
    /// item id → rank (inverse of `slots`).
    rank_of: Vec<usize>,
    churn: Rng,
    next_shot: Option<SimTime>,
    /// Per-window flash item, chosen lazily from the churn stream.
    flash_items: Vec<Option<u64>>,
}

impl PopularityProcess {
    /// Builds the process over `n` catalog items. `churn_rng` must be a
    /// stream owned by this process (e.g.
    /// `Rng::from_seed_and_name(seed, "emulator/popularity")`); it is
    /// only drawn from when the model has churn or an active flash
    /// window needs its item picked.
    pub fn new(n: usize, model: PopularityModel, mut churn_rng: Rng) -> PopularityProcess {
        let zipf = Zipf::new(n, model.exponent);
        let next_shot = if model.churn_per_sec > 0.0 {
            Some(SimTime::ZERO + exp_gap(&mut churn_rng, model.churn_per_sec))
        } else {
            None
        };
        let flash_items = vec![None; model.flash.len()];
        PopularityProcess {
            model,
            zipf,
            slots: (0..n as u64).collect(),
            rank_of: (0..n).collect(),
            churn: churn_rng,
            next_shot,
            flash_items,
        }
    }

    /// The model this process evolves.
    pub fn model(&self) -> &PopularityModel {
        &self.model
    }

    /// Catalog size.
    pub fn catalog(&self) -> usize {
        self.slots.len()
    }

    /// The item currently occupying popularity rank `rank` (0 = most
    /// popular).
    pub fn item_at_rank(&self, rank: usize) -> u64 {
        self.slots[rank]
    }

    /// Applies every churn shot at or before `now`. A shot at time `t`
    /// affects all draws at `t` and later.
    pub fn advance(&mut self, now: SimTime) {
        while let Some(t) = self.next_shot {
            if t > now {
                break;
            }
            // One shot: promote a uniformly drawn item into a
            // Zipf-drawn rank, swapping with the incumbent so the
            // mapping stays a permutation.
            let item = self.churn.next_below(self.slots.len() as u64);
            let rank = self.zipf.sample_rank(&mut self.churn);
            let old_rank = self.rank_of[item as usize];
            let displaced = self.slots[rank];
            self.slots.swap(rank, old_rank);
            self.rank_of[item as usize] = rank;
            self.rank_of[displaced as usize] = old_rank;
            self.next_shot = t.checked_add(exp_gap(&mut self.churn, self.model.churn_per_sec));
        }
    }

    /// Draws one item id at virtual time `now` using the caller's
    /// `draw_rng`. Exactly one `Zipf` rank draw from `draw_rng` in the
    /// common case; inside an active flash window one extra Bernoulli
    /// draw decides whether the flash item overrides.
    pub fn sample(&mut self, now: SimTime, draw_rng: &mut Rng) -> u64 {
        self.advance(now);
        for (i, w) in self.model.flash.iter().enumerate() {
            if w.active_at(now) {
                if self.flash_items[i].is_none() {
                    self.flash_items[i] = Some(self.churn.next_below(self.slots.len() as u64));
                }
                if draw_rng.chance(w.weight) {
                    return self.flash_items[i].expect("just filled");
                }
                break;
            }
        }
        self.slots[self.zipf.sample_rank(draw_rng)]
    }
}

/// One exponential inter-shot gap for rate `per_sec` (> 0).
fn exp_gap(rng: &mut Rng, per_sec: f64) -> SimDuration {
    let secs = -(1.0 / per_sec) * rng.next_f64_open().ln();
    SimDuration::from_secs_f64(secs).max(SimDuration::from_nanos(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::from_seed(12345)
    }

    fn empirical_mean(d: &Dist, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let d = Dist::Constant(4.2);
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(d.sample(&mut r), 4.2);
        }
        assert_eq!(d.mean(), Some(4.2));
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = Dist::Uniform { lo: 2.0, hi: 6.0 };
        let mut r = rng();
        for _ in 0..10_000 {
            let x = d.sample(&mut r);
            assert!((2.0..6.0).contains(&x));
        }
        assert!((empirical_mean(&d, 50_000) - 4.0).abs() < 0.05);
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Dist::Exponential { mean: 3.0 };
        assert!((empirical_mean(&d, 200_000) - 3.0).abs() < 0.05);
        let mut r = rng();
        for _ in 0..1000 {
            assert!(d.sample(&mut r) >= 0.0);
        }
    }

    #[test]
    fn normal_mean_and_spread() {
        let d = Dist::Normal {
            mean: 10.0,
            std: 2.0,
        };
        assert!((empirical_mean(&d, 200_000) - 10.0).abs() < 0.05);
        let mut r = rng();
        let within: usize = (0..100_000)
            .filter(|_| (d.sample(&mut r) - 10.0).abs() < 2.0)
            .count();
        // ~68.3% within one sigma
        assert!((66_000..71_000).contains(&within), "within {within}");
    }

    #[test]
    fn lognormal_median_spread_parameterisation() {
        let d = Dist::lognormal_median_spread(15.0, 1.6);
        let mut r = rng();
        let mut samples: Vec<f64> = (0..100_001).map(|_| d.sample(&mut r)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[50_000];
        assert!((median - 15.0).abs() < 0.5, "median {median}");
        let p84 = samples[84_134];
        assert!(
            (p84 / median - 1.6).abs() < 0.1,
            "p84/median {}",
            p84 / median
        );
    }

    #[test]
    fn pareto_is_heavy_tailed_and_bounded_below() {
        let d = Dist::Pareto {
            xmin: 1.0,
            alpha: 2.0,
        };
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(d.sample(&mut r) >= 1.0);
        }
        assert!((empirical_mean(&d, 500_000) - 2.0).abs() < 0.15);
        assert_eq!(d.mean(), Some(2.0));
        assert_eq!(
            Dist::Pareto {
                xmin: 1.0,
                alpha: 0.9
            }
            .mean(),
            None
        );
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        let d = Dist::Weibull {
            lambda: 2.0,
            k: 1.0,
        };
        assert!((empirical_mean(&d, 200_000) - 2.0).abs() < 0.05);
    }

    #[test]
    fn mix_interpolates_means() {
        let d = Dist::Mix {
            p: 0.75,
            a: Box::new(Dist::Constant(0.0)),
            b: Box::new(Dist::Constant(8.0)),
        };
        assert_eq!(d.mean(), Some(2.0));
        assert!((empirical_mean(&d, 100_000) - 2.0).abs() < 0.1);
    }

    #[test]
    fn shifted_and_truncated() {
        let d = Dist::Shifted {
            offset: 5.0,
            inner: Box::new(Dist::Constant(1.0)),
        };
        assert_eq!(d.mean(), Some(6.0));
        let t = Dist::normal_nonneg(0.0, 1.0);
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(t.sample(&mut r) >= 0.0);
        }
    }

    #[test]
    fn empirical_resamples_recorded_values() {
        let data = vec![1.0, 2.0, 4.0, 8.0];
        let d = Dist::Empirical(data.clone());
        let mut r = rng();
        for _ in 0..1000 {
            assert!(data.contains(&d.sample(&mut r)));
        }
        assert_eq!(d.mean(), Some(3.75));
        assert!((empirical_mean(&d, 100_000) - 3.75).abs() < 0.05);
        assert_eq!(Dist::Empirical(vec![]).mean(), None);
    }

    #[test]
    fn zipf_is_monotone_decreasing_in_rank() {
        let z = Zipf::new(100, 1.0);
        let mut r = rng();
        let mut counts = vec![0u32; 100];
        for _ in 0..200_000 {
            counts[z.sample_rank(&mut r)] += 1;
        }
        assert!(counts[0] > counts[9]);
        assert!(counts[9] > counts[49]);
        // rank-1 frequency for s=1, n=100: 1/H(100) ≈ 0.1928
        let f0 = counts[0] as f64 / 200_000.0;
        assert!((f0 - 0.1928).abs() < 0.01, "f0 {f0}");
        assert_eq!(z.len(), 100);
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let z = Zipf::new(10, 0.0);
        let mut r = rng();
        let mut counts = vec![0u32; 10];
        for _ in 0..100_000 {
            counts[z.sample_rank(&mut r)] += 1;
        }
        for &c in &counts {
            assert!((8_500..11_500).contains(&c), "count {c}");
        }
    }

    #[test]
    fn static_popularity_process_matches_plain_zipf() {
        // The inert contract: churn 0 + no flash must reproduce bare
        // Zipf draws from the caller's stream exactly, and never touch
        // the churn stream (compared via the untouched clone).
        let model = PopularityModel::static_zipf(0.9);
        assert!(model.is_static());
        let mut p = PopularityProcess::new(500, model, Rng::from_seed(777));
        let untouched = Rng::from_seed(777);
        let z = Zipf::new(500, 0.9);
        let mut a = rng();
        let mut b = rng();
        for i in 0..5_000u64 {
            let t = SimTime::from_millis(i * 13);
            assert_eq!(p.sample(t, &mut a), z.sample_rank(&mut b) as u64);
        }
        // No churn draws: the process's stream state is untouched.
        assert_eq!(p.churn.clone().next_u64(), untouched.clone().next_u64());
    }

    #[test]
    fn churn_rotates_the_popular_set_deterministically() {
        let model = PopularityModel::static_zipf(0.9).with_churn(5.0);
        assert!(!model.is_static());
        let mk = || PopularityProcess::new(300, model.clone(), Rng::from_seed_and_name(9, "pop"));
        let mut p = mk();
        let mut q = mk();
        p.advance(SimTime::from_secs(200));
        q.advance(SimTime::from_secs(200));
        // ~1000 shots: the identity mapping cannot have survived.
        let moved = (0..300).filter(|&r| p.item_at_rank(r) != r as u64).count();
        assert!(moved > 100, "only {moved} ranks moved after 1000 shots");
        // Same stream, same shots: byte-deterministic evolution, and
        // incremental advance equals one big advance.
        let mut inc = mk();
        for s in 0..200u64 {
            inc.advance(SimTime::from_secs(s + 1));
        }
        for r in 0..300 {
            assert_eq!(p.item_at_rank(r), q.item_at_rank(r));
            assert_eq!(p.item_at_rank(r), inc.item_at_rank(r));
        }
        // The mapping stays a permutation.
        let mut seen: Vec<u64> = (0..300).map(|r| p.item_at_rank(r)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..300u64).collect::<Vec<_>>());
    }

    #[test]
    fn churned_marginal_stays_zipf_shaped() {
        // Churn rotates *which* item is popular, not how popular the
        // top rank is: rank-0 draws keep their Zipf frequency.
        let model = PopularityModel::static_zipf(1.0).with_churn(2.0);
        let mut p = PopularityProcess::new(100, model, Rng::from_seed_and_name(3, "pop"));
        let mut r = rng();
        let mut top = 0u32;
        let n = 100_000u64;
        for i in 0..n {
            let t = SimTime::from_millis(i * 10);
            let item = p.sample(t, &mut r);
            if p.item_at_rank(0) == item {
                top += 1;
            }
        }
        let f0 = top as f64 / n as f64;
        assert!((f0 - 0.1928).abs() < 0.015, "rank-0 frequency {f0}");
    }

    #[test]
    fn diurnal_rate_factor_waves_around_one() {
        let flat = PopularityModel::static_zipf(0.9);
        assert_eq!(flat.rate_factor(SimTime::from_secs(12_345)), 1.0);
        let m = flat.with_diurnal(0.5, SimDuration::from_secs(1_000));
        assert!((m.rate_factor(SimTime::ZERO) - 1.0).abs() < 1e-12);
        assert!((m.rate_factor(SimTime::from_secs(250)) - 1.5).abs() < 1e-9);
        assert!((m.rate_factor(SimTime::from_secs(750)) - 0.5).abs() < 1e-9);
        // Never non-positive for amplitude < 1.
        for s in 0..2_000u64 {
            assert!(m.rate_factor(SimTime::from_secs(s)) > 0.0);
        }
    }

    #[test]
    fn flash_crowd_dominates_inside_its_window_only() {
        let model = PopularityModel::static_zipf(0.9).with_flash_crowd(
            SimTime::from_secs(100),
            SimDuration::from_secs(50),
            0.9,
        );
        let mut p = PopularityProcess::new(1_000, model, Rng::from_seed_and_name(4, "pop"));
        let mut r = rng();
        // Inside the window: the flash item takes ~90% of draws.
        let mut counts = crate::hash::DetHashMap::default();
        for i in 0..5_000u64 {
            let t = SimTime::from_millis(100_000 + i * 10);
            *counts.entry(p.sample(t, &mut r)).or_insert(0u32) += 1;
        }
        let (&hot, &hot_n) = counts.iter().max_by_key(|(_, &n)| n).unwrap();
        assert!(hot_n > 4_200, "flash item drew {hot_n}/5000");
        // Outside the window: back to plain Zipf (the hot item reverts
        // to its catalog popularity, far below 50%).
        let mut hot_after = 0u32;
        for i in 0..5_000u64 {
            let t = SimTime::from_millis(200_000 + i * 10);
            if p.sample(t, &mut r) == hot {
                hot_after += 1;
            }
        }
        assert!(hot_after < 2_500, "flash item still hot: {hot_after}");
        // Exact boundary: the window is [start, start+duration).
        let w = &p.model().flash[0];
        assert!(w.active_at(SimTime::from_secs(100)));
        assert!(!w.active_at(SimTime::from_secs(150)));
    }
}
