//! Client → front-end mapping.
//!
//! The paper's Dataset A uses "whatever server IP address the DNS
//! resolution returns to the client" — for both Akamai and Google that is
//! overwhelmingly the geographically/topologically nearest front end.
//! [`DnsMap::nearest`] precomputes that assignment; [`DnsPolicy`] adds
//! the two refinements real mapping systems layer on top:
//!
//! * **RandomizedTopK** — Akamai's low-level DNS answers rotate through
//!   a handful of nearby edge servers for load spreading and failover,
//!   so consecutive resolutions of one client differ slightly;
//! * **LoadAware** — pick the least-loaded of the `k` nearest FEs
//!   (static weights standing in for the mapping system's liveness
//!   feeds).

use nettopo::geo::GeoPoint;
use nettopo::placement::{nearest_fe, FeSite};
use simcore::rng::Rng;

/// A precomputed client → default-FE assignment.
#[derive(Clone, Debug)]
pub struct DnsMap {
    assignment: Vec<usize>,
    distance_miles: Vec<f64>,
}

impl DnsMap {
    /// Maps every client location to its nearest FE in `fleet`.
    /// Panics on an empty fleet.
    pub fn nearest(clients: &[GeoPoint], fleet: &[FeSite]) -> DnsMap {
        assert!(!fleet.is_empty(), "DnsMap over empty FE fleet");
        let mut assignment = Vec::with_capacity(clients.len());
        let mut distance_miles = Vec::with_capacity(clients.len());
        for pt in clients {
            let (idx, d) = nearest_fe(pt, fleet).unwrap();
            assignment.push(idx);
            distance_miles.push(d);
        }
        DnsMap {
            assignment,
            distance_miles,
        }
    }

    /// The default FE index for a client.
    pub fn fe_of(&self, client: usize) -> usize {
        self.assignment[client]
    }

    /// Distance in miles from a client to its default FE.
    pub fn distance_of(&self, client: usize) -> f64 {
        self.distance_miles[client]
    }

    /// Number of clients mapped.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// True when no clients were mapped.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Number of distinct FEs actually used as a default.
    pub fn distinct_fes(&self) -> usize {
        let mut v = self.assignment.clone();
        v.sort_unstable();
        v.dedup();
        v.len()
    }
}

/// A per-resolution FE selection policy.
#[derive(Clone, Debug)]
pub enum DnsPolicy {
    /// Always the nearest FE (the [`DnsMap::nearest`] behaviour).
    Nearest,
    /// A uniformly random pick among the `k` nearest FEs — Akamai-style
    /// rotation.
    RandomizedTopK(usize),
    /// The least-loaded among the `k` nearest FEs, given per-FE load
    /// levels.
    LoadAware(usize),
}

/// Precomputed candidate lists for the per-resolution policies.
#[derive(Clone, Debug)]
pub struct DnsResolver {
    /// Per client: FE indices sorted by distance (nearest first),
    /// truncated to the largest `k` any policy needs.
    candidates: Vec<Vec<usize>>,
    policy: DnsPolicy,
}

impl DnsResolver {
    /// Builds the resolver for a client population against a fleet.
    pub fn new(clients: &[GeoPoint], fleet: &[FeSite], policy: DnsPolicy) -> DnsResolver {
        assert!(!fleet.is_empty());
        let k = match policy {
            DnsPolicy::Nearest => 1,
            DnsPolicy::RandomizedTopK(k) | DnsPolicy::LoadAware(k) => k.max(1),
        };
        let candidates = clients
            .iter()
            .map(|pt| {
                let mut by_dist: Vec<(usize, f64)> = fleet
                    .iter()
                    .enumerate()
                    .map(|(i, f)| (i, pt.distance_miles(&f.pt)))
                    .collect();
                by_dist.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN distance"));
                by_dist.into_iter().take(k).map(|(i, _)| i).collect()
            })
            .collect();
        DnsResolver { candidates, policy }
    }

    /// Resolves one lookup for `client`. `fe_load` supplies current
    /// per-FE load levels for [`DnsPolicy::LoadAware`] (ignored
    /// otherwise); `rng` drives the randomized rotation.
    pub fn resolve(&self, client: usize, rng: &mut Rng, fe_load: impl Fn(usize) -> f64) -> usize {
        let cands = &self.candidates[client];
        match self.policy {
            DnsPolicy::Nearest => cands[0],
            DnsPolicy::RandomizedTopK(_) => *rng.choose(cands),
            DnsPolicy::LoadAware(_) => *cands
                .iter()
                .min_by(|&&a, &&b| fe_load(a).partial_cmp(&fe_load(b)).expect("NaN load"))
                .expect("non-empty candidates"),
        }
    }

    /// The candidate list of one client (nearest first).
    pub fn candidates(&self, client: usize) -> &[usize] {
        &self.candidates[client]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettopo::placement::{dense_edge, sparse_pop};
    use nettopo::vantage::{planetlab_like, VantageConfig};

    #[test]
    fn maps_every_client() {
        let v = planetlab_like(1, &VantageConfig::default());
        let pts: Vec<GeoPoint> = v.iter().map(|x| x.pt).collect();
        let fleet = sparse_pop(1, 14);
        let map = DnsMap::nearest(&pts, &fleet);
        assert_eq!(map.len(), pts.len());
        assert!(!map.is_empty());
        for i in 0..map.len() {
            assert!(map.fe_of(i) < fleet.len());
            assert!(map.distance_of(i) >= 0.0);
        }
    }

    #[test]
    fn dense_fleet_gives_shorter_distances() {
        let v = planetlab_like(2, &VantageConfig::default());
        let pts: Vec<GeoPoint> = v.iter().map(|x| x.pt).collect();
        let dense = DnsMap::nearest(&pts, &dense_edge(2));
        let sparse = DnsMap::nearest(&pts, &sparse_pop(2, 14));
        let mean =
            |m: &DnsMap| (0..m.len()).map(|i| m.distance_of(i)).sum::<f64>() / m.len() as f64;
        assert!(mean(&dense) < mean(&sparse) / 2.0);
    }

    #[test]
    fn assignment_is_actually_nearest() {
        let v = planetlab_like(3, &VantageConfig::default());
        let pts: Vec<GeoPoint> = v.iter().map(|x| x.pt).collect();
        let fleet = sparse_pop(3, 10);
        let map = DnsMap::nearest(&pts, &fleet);
        for (i, pt) in pts.iter().enumerate() {
            let assigned = map.distance_of(i);
            for fe in &fleet {
                assert!(pt.distance_miles(&fe.pt) >= assigned - 1e-9);
            }
        }
    }

    #[test]
    fn randomized_topk_rotates_among_nearby_fes() {
        let v = planetlab_like(5, &VantageConfig::default());
        let pts: Vec<GeoPoint> = v.iter().map(|x| x.pt).collect();
        let fleet = dense_edge(5);
        let resolver = DnsResolver::new(&pts, &fleet, DnsPolicy::RandomizedTopK(3));
        let mut rng = simcore::rng::Rng::from_seed(1);
        let mut seen = simcore::hash::DetHashSet::default();
        for _ in 0..60 {
            let fe = resolver.resolve(0, &mut rng, |_| 0.0);
            assert!(resolver.candidates(0).contains(&fe));
            seen.insert(fe);
        }
        assert!(seen.len() >= 2, "rotation must use multiple FEs");
        // All rotated picks stay close: within 3× the nearest distance
        // plus a slack for co-located candidates.
        let nearest = pts[0].distance_miles(&fleet[resolver.candidates(0)[0]].pt);
        for &fe in &seen {
            let d = pts[0].distance_miles(&fleet[fe].pt);
            assert!(d <= nearest * 4.0 + 50.0, "rotated to a far FE: {d}");
        }
    }

    #[test]
    fn load_aware_avoids_the_hot_fe() {
        let v = planetlab_like(6, &VantageConfig::default());
        let pts: Vec<GeoPoint> = v.iter().map(|x| x.pt).collect();
        let fleet = dense_edge(6);
        let resolver = DnsResolver::new(&pts, &fleet, DnsPolicy::LoadAware(3));
        let mut rng = simcore::rng::Rng::from_seed(2);
        let cands = resolver.candidates(0).to_vec();
        // Make the nearest FE hot: the resolver must pick another
        // candidate.
        let hot = cands[0];
        let fe = resolver.resolve(0, &mut rng, |f| if f == hot { 10.0 } else { 1.0 });
        assert_ne!(fe, hot);
        assert!(cands.contains(&fe));
        // Uniform load → nearest wins (min_by keeps the first minimum).
        let fe2 = resolver.resolve(0, &mut rng, |_| 1.0);
        assert_eq!(fe2, hot);
    }

    #[test]
    fn nearest_policy_matches_dnsmap() {
        let v = planetlab_like(7, &VantageConfig::default());
        let pts: Vec<GeoPoint> = v.iter().map(|x| x.pt).collect();
        let fleet = sparse_pop(7, 14);
        let map = DnsMap::nearest(&pts, &fleet);
        let resolver = DnsResolver::new(&pts, &fleet, DnsPolicy::Nearest);
        let mut rng = simcore::rng::Rng::from_seed(3);
        for c in 0..pts.len() {
            assert_eq!(resolver.resolve(c, &mut rng, |_| 0.0), map.fe_of(c));
        }
    }

    #[test]
    fn multiple_fes_serve_a_global_population() {
        let v = planetlab_like(4, &VantageConfig::default());
        let pts: Vec<GeoPoint> = v.iter().map(|x| x.pt).collect();
        let map = DnsMap::nearest(&pts, &sparse_pop(4, 14));
        assert!(map.distinct_fes() >= 8, "used {} FEs", map.distinct_fes());
    }
}
