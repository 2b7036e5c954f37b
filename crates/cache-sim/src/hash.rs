//! A fast, non-cryptographic hasher for hot-path bookkeeping maps.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3, which is
//! HashDoS-resistant but costs tens of cycles per lookup — measurable when a
//! cache policy performs several map operations per simulated request. The
//! keys hashed on the simulator's hot paths ([`crate::PageId`],
//! [`crate::HintSetId`]) are small integers produced by the workload
//! generators, not attacker-controlled strings, so the fleet-wide standard
//! multiply-rotate FxHash construction (as used by rustc and Firefox) is both
//! safe and several times faster here.
//!
//! Use [`FastHashMap`] wherever a map sits on a per-request path and its keys
//! are trusted; keep the std default for anything fed by external input.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash multiplier (64-bit golden-ratio-derived odd constant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash streaming state: rotate, xor the next word in, multiply.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let (word, rest) = bytes.split_at(8);
            self.add_to_hash(u64::from_le_bytes(word.try_into().unwrap()));
            bytes = rest;
        }
        if bytes.len() >= 4 {
            let (word, rest) = bytes.split_at(4);
            self.add_to_hash(u64::from(u32::from_le_bytes(word.try_into().unwrap())));
            bytes = rest;
        }
        for &b in bytes {
            self.add_to_hash(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// Routes a page to one of `partitions` disjoint partitions: a Fibonacci
/// multiplicative hash keeping the high bits (page ids are often sequential
/// per client, so the low bits are biased).
///
/// This is the **one** page-routing rule shared by every page-partitioned
/// deployment in the workspace — `clic-server`'s `ShardedClic` shard router
/// and the driver's [`crate::partition_requests`] split behind every
/// partitioned replay — so the offline partitioned replay models exactly
/// the placement a sharded server produces.
///
/// # Panics
///
/// Panics (divide by zero) if `partitions` is zero.
#[inline]
pub fn page_partition(page: crate::PageId, partitions: usize) -> usize {
    let hashed = page.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((hashed >> 32) as usize) % partitions
}

/// `BuildHasher` for [`FxHasher`]; plug into any `HashMap`/`HashSet`.
pub type FastBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`] — for hot paths over trusted keys.
pub type FastHashMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`] — for hot paths over trusted keys.
pub type FastHashSet<K> = HashSet<K, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HintSetId, PageId};

    #[test]
    fn maps_behave_like_std_maps() {
        let mut m: FastHashMap<PageId, u64> = FastHashMap::default();
        for p in 0..1000u64 {
            m.insert(PageId(p), p * 2);
        }
        assert_eq!(m.len(), 1000);
        for p in 0..1000u64 {
            assert_eq!(m.get(&PageId(p)), Some(&(p * 2)));
        }
        assert_eq!(m.remove(&PageId(7)), Some(14));
        assert_eq!(m.get(&PageId(7)), None);
    }

    #[test]
    fn hashes_are_deterministic_and_spread() {
        let build = FastBuildHasher::default();
        let hash = |h: HintSetId| {
            use std::hash::BuildHasher;
            build.hash_one(h)
        };
        assert_eq!(hash(HintSetId(3)), hash(HintSetId(3)));
        // Sequential small keys must not collide in the low bits (they feed
        // power-of-two-sized tables).
        let mut low: FastHashSet<u64> = FastHashSet::default();
        for i in 0..256u32 {
            low.insert(hash(HintSetId(i)) & 0xFFFF);
        }
        assert!(low.len() > 250, "low-bit collisions: {}", 256 - low.len());
    }
}
