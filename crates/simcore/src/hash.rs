//! The simulator's one hasher: a fast, deterministic replacement for
//! the standard library's SipHash in hash maps keyed by small integers.
//!
//! `HashMap::new()` seeds SipHash from per-process randomness (HashDoS
//! resistance the simulator does not need), and SipHash costs more than
//! the work around it on the per-segment lookups the simulator makes —
//! connection ids, query ids, session ids, `(fe, be)` pairs. [`DetHasher`]
//! is a splitmix64 finalizer over each integer written: full avalanche
//! on 64 bits, a handful of instructions, and the same hash in every
//! process. Iteration order of a [`DetHashMap`] is therefore a pure
//! function of its operation history (no map in the simulator lets that
//! order reach a trajectory, but a reproducible order makes any future
//! slip reproducible too).
//!
//! `scripts/ci.sh` rejects `HashMap::new()`/`HashSet::new()` in the
//! simulator crates, so every map there goes through these aliases.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A deterministic splitmix64-style hasher for integer-keyed maps.
#[derive(Clone, Copy, Debug, Default)]
pub struct DetHasher(u64);

impl Hasher for DetHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Byte-string keys (rare here) mix in eight bytes at a time.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        // splitmix64 finalizer: full avalanche on 64 bits.
        let mut z = self.0 ^ n.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`DetHasher`]s (always from the same zero state).
pub type DetBuildHasher = BuildHasherDefault<DetHasher>;

/// A `HashMap` hashed by [`DetHasher`]; construct with `default()`.
pub type DetHashMap<K, V> = HashMap<K, V, DetBuildHasher>;

/// A `HashSet` hashed by [`DetHasher`]; construct with `default()`.
pub type DetHashSet<T> = HashSet<T, DetBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        DetBuildHasher::default().hash_one(v)
    }

    #[test]
    fn hashes_are_the_same_in_every_map() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&(3usize, 4usize)), hash_of(&(3usize, 4usize)));
        assert_ne!(hash_of(&(3usize, 4usize)), hash_of(&(4usize, 3usize)));
    }

    #[test]
    fn narrow_integers_hash_as_one_word() {
        // A u32 key mixes once, exactly like the same value as u64,
        // instead of once per byte.
        assert_eq!(hash_of(&7u32), hash_of(&7u64));
        assert_eq!(hash_of(&7usize), hash_of(&7u64));
    }

    #[test]
    fn sequential_keys_spread_over_buckets() {
        // The low bits pick a bucket: sequential ids must not collide
        // there.
        let mut low: DetHashSet<u64> = DetHashSet::default();
        for k in 0..1024u64 {
            low.insert(hash_of(&k) & 1023);
        }
        assert!(
            low.len() > 600,
            "only {} distinct low-10-bit hashes",
            low.len()
        );
    }

    #[test]
    fn map_iteration_order_is_reproducible() {
        let build = || {
            let mut m: DetHashMap<u32, u32> = DetHashMap::default();
            for k in 0..200u32 {
                m.insert(k.wrapping_mul(2_654_435_761), k);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
