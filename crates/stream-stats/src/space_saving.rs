//! The Space-Saving frequent-item algorithm (Metwally et al., ICDT '05),
//! extended with auxiliary per-counter payloads as required by CLIC.
//!
//! Space-Saving monitors at most `k` items. When an unmonitored item arrives
//! and all `k` counters are occupied, the item with the *minimum* count is
//! replaced: the new item inherits the old count plus one and records the old
//! count as its *error bound*. The guarantees are:
//!
//! * every monitored item's true count is at most its estimated `count` and
//!   at least `count - error`,
//! * any item whose true frequency exceeds `observations / k` is guaranteed
//!   to be monitored.
//!
//! CLIC attaches additional statistics (`Nr(H)`, a re-reference distance
//! accumulator) to each monitored hint set; these must be reset whenever the
//! counter is recycled for a different hint set. [`SpaceSaving`] therefore
//! carries a generic auxiliary payload `A` per counter that is reset to
//! `A::default()` on recycling.
//!
//! # Layout
//!
//! * `slots` — at most `k` counters in a flat vector, each holding its
//!   item, count, error bound and payload;
//! * `index` — a [`SlotIndex`] from item to slot: a `HashMap` (`new` uses
//!   one on `RandomState`), or a [`DenseIndex`] for items that are small
//!   integer ids, which reaches a slot with one array read and no hash.
//!
//! The `I` parameter has one dense production value, the top-k tracker's
//! [`DenseIndex`] over hint-set ids in `clic-core`; `new` keeps the SipHash
//! map so that the `benchmark/` layer ladder, which builds its
//! `stream-stats.topk_offer_ns` rung with `SpaceSaving::new`, compiles and
//! measures what it always measured — a SipHash index no production path
//! runs.
//!
//! # Cost
//!
//! Observing a monitored item is one `index` lookup and a count increment,
//! O(1). Recycling a counter scans all `k` slots for the victim, O(k), plus
//! one `index` removal and insertion. Every caller uses k ≤ 100, and with
//! fewer distinct items than `k` a summary never recycles.
//!
//! # Tie rule
//!
//! Among the minimum-count items the *smallest* (by `Ord`) is recycled, so
//! two summaries fed the same observation stream always evolve identically,
//! whatever their indexes (the policy's differential and sharded-server
//! bit-exactness tests rely on this).

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

/// Maps each monitored item to its slot in a [`SpaceSaving`] summary.
pub trait SlotIndex<T> {
    /// The slot monitoring `item`, if any.
    fn slot_of(&self, item: &T) -> Option<usize>;
    /// Records that `slot` now monitors `item`.
    fn assign(&mut self, item: &T, slot: usize);
    /// Forgets `item`'s slot.
    fn vacate(&mut self, item: &T);
}

impl<T: Hash + Eq + Clone, S: BuildHasher> SlotIndex<T> for HashMap<T, usize, S> {
    #[inline]
    fn slot_of(&self, item: &T) -> Option<usize> {
        self.get(item).copied()
    }

    fn assign(&mut self, item: &T, slot: usize) {
        self.insert(item.clone(), slot);
    }

    fn vacate(&mut self, item: &T) {
        self.remove(item);
    }
}

/// A [`SlotIndex`] for items that are small dense integer ids: one `u32`
/// per id up to the largest id seen, so a lookup is one array read. Its
/// size follows the largest id, not `k`, so it suits ids handed out by an
/// interner, not arbitrary values.
#[derive(Debug, Clone, Default)]
pub struct DenseIndex {
    slots: Vec<u32>,
}

/// [`DenseIndex`] entry of an unmonitored id.
const VACANT: u32 = u32::MAX;

impl<T: Copy + Into<usize>> SlotIndex<T> for DenseIndex {
    #[inline]
    fn slot_of(&self, item: &T) -> Option<usize> {
        match self.slots.get((*item).into()) {
            Some(&slot) if slot != VACANT => Some(slot as usize),
            _ => None,
        }
    }

    fn assign(&mut self, item: &T, slot: usize) {
        let id = (*item).into();
        if id >= self.slots.len() {
            self.slots.resize(id + 1, VACANT);
        }
        self.slots[id] = slot as u32;
    }

    fn vacate(&mut self, item: &T) {
        if let Some(slot) = self.slots.get_mut((*item).into()) {
            *slot = VACANT;
        }
    }
}

/// Frequency estimate for a monitored item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Estimate {
    /// Estimated (over-)count of the item.
    pub count: u64,
    /// Maximum possible overestimation: the true count is at least
    /// `count - error`.
    pub error: u64,
}

impl Estimate {
    /// A conservative lower bound on the item's true count (`count - error`).
    /// This is the value the paper uses as `N(H)`.
    pub fn guaranteed(&self) -> u64 {
        self.count.saturating_sub(self.error)
    }
}

/// One monitored item and its counter.
#[derive(Debug, Clone)]
struct Slot<T, A> {
    item: T,
    count: u64,
    error: u64,
    aux: A,
}

/// The Space-Saving summary: monitors at most `k` items together with an
/// auxiliary payload per monitored item.
///
/// The default payload is `()`; CLIC instantiates `A` with its re-reference
/// statistics. `I` maps items to their slots.
#[derive(Debug, Clone)]
pub struct SpaceSaving<T, A = (), I = HashMap<T, usize>> {
    capacity: usize,
    slots: Vec<Slot<T, A>>,
    index: I,
    observations: u64,
}

impl<T, A> SpaceSaving<T, A>
where
    T: Ord + Hash + Clone,
    A: Default,
{
    /// Creates a summary monitoring at most `k` items, indexed by a
    /// SipHash map.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        SpaceSaving::with_index(k, HashMap::with_capacity(k))
    }
}

impl<T, A, I> SpaceSaving<T, A, I>
where
    T: Ord + Clone,
    A: Default,
    I: SlotIndex<T>,
{
    /// Creates a summary monitoring at most `k` items whose slots are found
    /// through `index`, which must be empty.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn with_index(k: usize, index: I) -> Self {
        assert!(k > 0, "space-saving capacity must be positive");
        SpaceSaving {
            capacity: k,
            slots: Vec::with_capacity(k),
            index,
            observations: 0,
        }
    }

    /// Maximum number of items monitored simultaneously.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of items currently monitored.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if no items are monitored.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total number of observations since creation or the last [`clear`].
    ///
    /// [`clear`]: SpaceSaving::clear
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Returns `true` if `item` is currently monitored.
    pub fn is_monitored(&self, item: &T) -> bool {
        self.index.slot_of(item).is_some()
    }

    /// Records one occurrence of `item`, returning a mutable reference to its
    /// auxiliary payload. If the item was not monitored and a counter had to
    /// be recycled, the payload starts fresh at `A::default()`.
    pub fn observe_mut(&mut self, item: T) -> &mut A {
        self.observations += 1;
        let slot = match self.index.slot_of(&item) {
            Some(slot) => {
                self.slots[slot].count += 1;
                slot
            }
            None if self.slots.len() < self.capacity => {
                let slot = self.slots.len();
                self.index.assign(&item, slot);
                self.slots.push(Slot {
                    item,
                    count: 1,
                    error: 0,
                    aux: A::default(),
                });
                slot
            }
            None => self.recycle(item),
        };
        &mut self.slots[slot].aux
    }

    /// Records one occurrence of `item` (discarding the payload reference).
    pub fn observe(&mut self, item: T) {
        let _ = self.observe_mut(item);
    }

    /// Returns the frequency estimate for `item`, if it is monitored.
    pub fn estimate(&self, item: &T) -> Option<Estimate> {
        self.index
            .slot_of(item)
            .map(|slot| Self::estimate_of(&self.slots[slot]))
    }

    /// Returns the auxiliary payload for `item`, if monitored.
    pub fn aux(&self, item: &T) -> Option<&A> {
        self.index.slot_of(item).map(|slot| &self.slots[slot].aux)
    }

    /// Returns a mutable reference to the auxiliary payload for `item`
    /// without recording an observation.
    pub fn aux_mut(&mut self, item: &T) -> Option<&mut A> {
        let slot = self.index.slot_of(item)?;
        Some(&mut self.slots[slot].aux)
    }

    /// Returns all monitored items with their estimates and payloads, sorted
    /// by decreasing estimated count (ties by ascending item, so the output
    /// order is deterministic).
    pub fn entries(&self) -> Vec<(T, Estimate, &A)> {
        let mut out: Vec<(T, Estimate, &A)> = self
            .slots
            .iter()
            .map(|slot| (slot.item.clone(), Self::estimate_of(slot), &slot.aux))
            .collect();
        out.sort_by(|a, b| b.1.count.cmp(&a.1.count).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Forgets all monitored items and resets the observation count. CLIC
    /// calls this at every window boundary (Section 5).
    pub fn clear(&mut self) {
        for slot in self.slots.drain(..) {
            self.index.vacate(&slot.item);
        }
        self.observations = 0;
    }

    fn estimate_of(slot: &Slot<T, A>) -> Estimate {
        Estimate {
            count: slot.count,
            error: slot.error,
        }
    }

    /// Hands the minimum-count counter to `item`: the smallest of the
    /// minimum-count items is the victim, and `item` takes its count as its
    /// error bound, that count plus one and a fresh payload.
    fn recycle(&mut self, item: T) -> usize {
        let victim = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(_, slot)| (slot.count, &slot.item))
            .map(|(victim, _)| victim)
            .expect("a full summary has slots");
        let slot = &mut self.slots[victim];
        self.index.vacate(&slot.item);
        self.index.assign(&item, victim);
        slot.item = item;
        slot.error = slot.count;
        slot.count += 1;
        slot.aux = A::default();
        victim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_exactly_when_under_capacity() {
        let mut ss: SpaceSaving<char> = SpaceSaving::new(8);
        for c in "aaabbc".chars() {
            ss.observe(c);
        }
        assert_eq!(ss.estimate(&'a'), Some(Estimate { count: 3, error: 0 }));
        assert_eq!(ss.estimate(&'b'), Some(Estimate { count: 2, error: 0 }));
        assert_eq!(ss.estimate(&'c'), Some(Estimate { count: 1, error: 0 }));
        assert_eq!(ss.estimate(&'z'), None);
        assert_eq!(ss.len(), 3);
        assert_eq!(ss.observations(), 6);
    }

    #[test]
    fn recycles_minimum_and_records_error() {
        let mut ss: SpaceSaving<char> = SpaceSaving::new(2);
        ss.observe('a');
        ss.observe('a');
        ss.observe('b');
        // 'c' arrives: the minimum counter ('b', count 1) is recycled.
        ss.observe('c');
        assert!(!ss.is_monitored(&'b'));
        let c = ss.estimate(&'c').unwrap();
        assert_eq!(c.count, 2);
        assert_eq!(c.error, 1);
        assert_eq!(c.guaranteed(), 1);
        // 'a' is untouched.
        assert_eq!(ss.estimate(&'a'), Some(Estimate { count: 2, error: 0 }));
    }

    #[test]
    fn heavy_hitter_is_always_monitored() {
        // One item takes 50% of a long stream; with k=4 it is guaranteed to
        // be monitored at the end with a close estimate.
        let mut ss: SpaceSaving<u32> = SpaceSaving::new(4);
        let mut true_count = 0u64;
        let mut noise = 0u32;
        for i in 0..10_000u64 {
            if i % 2 == 0 {
                ss.observe(42);
                true_count += 1;
            } else {
                noise = noise.wrapping_add(1).wrapping_mul(2654435761) % 1000;
                ss.observe(noise + 100);
            }
        }
        let est = ss.estimate(&42).expect("heavy hitter must be monitored");
        assert!(est.count >= true_count, "Space-Saving never undercounts");
        assert!(
            est.guaranteed() <= true_count,
            "guaranteed bound must not exceed the true count"
        );
        // The estimate should be reasonably tight for a 50% hitter.
        assert!(est.count - est.error <= true_count);
        assert!(est.count < true_count + 5_000);
    }

    #[test]
    fn aux_payload_is_reset_on_recycle() {
        #[derive(Default, Debug, PartialEq)]
        struct Aux {
            hits: u64,
        }
        let mut ss: SpaceSaving<char, Aux> = SpaceSaving::new(1);
        ss.observe_mut('a').hits = 7;
        assert_eq!(ss.aux(&'a').unwrap().hits, 7);
        // 'b' recycles 'a''s counter; its payload must start from default.
        let aux_b = ss.observe_mut('b');
        assert_eq!(aux_b.hits, 0);
        assert!(ss.aux(&'a').is_none());
        // aux_mut does not count as an observation.
        let before = ss.observations();
        ss.aux_mut(&'b').unwrap().hits += 1;
        assert_eq!(ss.observations(), before);
        assert_eq!(ss.aux(&'b').unwrap().hits, 1);
    }

    #[test]
    fn entries_are_sorted_by_count() {
        let mut ss: SpaceSaving<u8> = SpaceSaving::new(8);
        for x in [1u8, 2, 2, 3, 3, 3] {
            ss.observe(x);
        }
        let entries = ss.entries();
        let counts: Vec<u64> = entries.iter().map(|(_, e, _)| e.count).collect();
        assert_eq!(counts, vec![3, 2, 1]);
        assert_eq!(entries[0].0, 3);
    }

    #[test]
    fn clear_resets_everything() {
        let mut ss: SpaceSaving<u8> = SpaceSaving::new(2);
        ss.observe(1);
        ss.observe(2);
        ss.observe(3);
        ss.clear();
        assert!(ss.is_empty());
        assert_eq!(ss.observations(), 0);
        assert_eq!(ss.estimate(&1), None);
        // Reusable after clear.
        ss.observe(9);
        assert_eq!(ss.estimate(&9).unwrap().count, 1);
    }

    #[test]
    fn overestimate_invariant_holds_under_skewed_stream() {
        // Zipf-ish stream over 200 items, k = 10: for every monitored item,
        // count >= true >= count - error.
        let mut ss: SpaceSaving<u64> = SpaceSaving::new(10);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut state = 99u64;
        for _ in 0..20_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Approximate Zipf: item = floor(200 / (1 + (r % 200)))
            let r = (state >> 33) % 200;
            let item = 200 / (1 + r);
            ss.observe(item);
            *truth.entry(item).or_default() += 1;
        }
        for (item, est, _) in ss.entries() {
            let t = truth.get(&item).copied().unwrap_or(0);
            assert!(
                est.count >= t,
                "item {item}: estimate {} < true {t}",
                est.count
            );
            assert!(
                est.guaranteed() <= t,
                "item {item}: guaranteed {} > true {t}",
                est.guaranteed()
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_is_rejected() {
        let _: SpaceSaving<u8> = SpaceSaving::new(0);
    }

    impl<T, A, I> SpaceSaving<T, A, I>
    where
        T: Ord + Clone + std::fmt::Debug,
        A: Default,
        I: SlotIndex<T>,
    {
        /// Panics unless the summary is well formed: at most `k` slots,
        /// every count above its error bound, and every slot's item indexed
        /// to that slot. (That no other item is indexed is checked by the
        /// lockstep test's estimate of every item against the oracle.)
        fn validate(&self) {
            assert!(self.slots.len() <= self.capacity, "more slots than k");
            for (i, slot) in self.slots.iter().enumerate() {
                assert!(slot.count > slot.error, "{:?}: count ≤ error", slot.item);
                assert_eq!(self.index.slot_of(&slot.item), Some(i), "index → slot");
            }
        }
    }

    /// The ordered-set implementation the flat slot scan replaced, kept as
    /// the differential oracle: `count → BTreeSet` buckets, so the smallest
    /// minimum-count item is the one recycled.
    mod btree {
        use std::collections::{BTreeMap, BTreeSet, HashMap};
        use std::hash::Hash;

        use super::Estimate;

        struct Entry<A> {
            count: u64,
            error: u64,
            aux: A,
        }

        pub struct BTreeSpaceSaving<T, A> {
            capacity: usize,
            entries: HashMap<T, Entry<A>>,
            buckets: BTreeMap<u64, BTreeSet<T>>,
            observations: u64,
        }

        impl<T: Ord + Hash + Clone, A: Default> BTreeSpaceSaving<T, A> {
            pub fn new(k: usize) -> Self {
                BTreeSpaceSaving {
                    capacity: k,
                    entries: HashMap::new(),
                    buckets: BTreeMap::new(),
                    observations: 0,
                }
            }

            pub fn observe_mut(&mut self, item: T) -> &mut A {
                self.observations += 1;
                if let Some(entry) = self.entries.get(&item) {
                    let old_count = entry.count;
                    self.remove_from_bucket(&item, old_count);
                    self.add_to_bucket(item.clone(), old_count + 1);
                    let entry = self.entries.get_mut(&item).expect("entry exists");
                    entry.count += 1;
                    return &mut entry.aux;
                }
                let (count, error) = if self.entries.len() < self.capacity {
                    (1, 0)
                } else {
                    let (&min_count, set) = self.buckets.iter().next().expect("full");
                    let victim = set.iter().next().expect("non-empty").clone();
                    self.remove_from_bucket(&victim, min_count);
                    self.entries.remove(&victim);
                    (min_count + 1, min_count)
                };
                self.add_to_bucket(item.clone(), count);
                let entry = Entry {
                    count,
                    error,
                    aux: A::default(),
                };
                &mut self.entries.entry(item).or_insert(entry).aux
            }

            pub fn aux_mut(&mut self, item: &T) -> Option<&mut A> {
                self.entries.get_mut(item).map(|e| &mut e.aux)
            }

            pub fn estimate(&self, item: &T) -> Option<Estimate> {
                self.entries.get(item).map(|e| Estimate {
                    count: e.count,
                    error: e.error,
                })
            }

            pub fn aux(&self, item: &T) -> Option<&A> {
                self.entries.get(item).map(|e| &e.aux)
            }

            pub fn entries(&self) -> Vec<(T, Estimate, &A)> {
                let mut out: Vec<(T, Estimate, &A)> = self
                    .entries
                    .iter()
                    .map(|(item, e)| {
                        let estimate = Estimate {
                            count: e.count,
                            error: e.error,
                        };
                        (item.clone(), estimate, &e.aux)
                    })
                    .collect();
                out.sort_by(|a, b| b.1.count.cmp(&a.1.count).then_with(|| a.0.cmp(&b.0)));
                out
            }

            pub fn observations(&self) -> u64 {
                self.observations
            }

            pub fn clear(&mut self) {
                self.entries.clear();
                self.buckets.clear();
                self.observations = 0;
            }

            fn add_to_bucket(&mut self, item: T, count: u64) {
                self.buckets.entry(count).or_default().insert(item);
            }

            fn remove_from_bucket(&mut self, item: &T, count: u64) {
                if let Some(set) = self.buckets.get_mut(&count) {
                    set.remove(item);
                    if set.is_empty() {
                        self.buckets.remove(&count);
                    }
                }
            }
        }
    }

    /// A splitmix64 step: the streams below need no more randomness.
    fn next_random(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[derive(Debug, Clone, Copy)]
    enum Shape {
        /// Every item of the alphabet equally likely.
        Uniform,
        /// Roughly Zipf: a few items take most of the stream.
        Skewed,
        /// Round-robin over slightly more items than counters, so nearly
        /// every observation recycles among many minimum-count ties.
        TieHeavy,
    }

    fn draw(shape: Shape, k: usize, step: usize, state: &mut u64) -> u16 {
        match shape {
            Shape::Uniform => (next_random(state) % (3 * k as u64 + 2)) as u16,
            Shape::Skewed => {
                let r = next_random(state) % 400;
                (400 / (1 + r)) as u16
            }
            Shape::TieHeavy => {
                // Mostly cycling, with an occasional stray to break cycles.
                if next_random(state).is_multiple_of(16) {
                    (next_random(state) % 200) as u16
                } else {
                    (step % (k + 2)) as u16
                }
            }
        }
    }

    fn assert_same<I: SlotIndex<u16>>(
        summary: &SpaceSaving<u16, u64, I>,
        oracle: &btree::BTreeSpaceSaving<u16, u64>,
        context: &str,
    ) {
        summary.validate();
        assert_eq!(summary.entries(), oracle.entries(), "{context}: entries");
        assert_eq!(summary.observations(), oracle.observations(), "{context}");
        for item in 0..=400u16 {
            assert_eq!(
                summary.estimate(&item),
                oracle.estimate(&item),
                "{context}: estimate of {item}"
            );
            assert_eq!(
                summary.aux(&item),
                oracle.aux(&item),
                "{context}: aux of {item}"
            );
        }
    }

    /// The slot scan, on a hashed and on a dense index, and the ordered-set
    /// summary it replaced, driven in lockstep, agree on every observable
    /// after every call: k from 1 to 40, three stream shapes, payload writes
    /// through both `observe_mut` and `aux_mut`, and a `clear()` in the
    /// middle of each stream.
    #[test]
    fn slot_scan_matches_the_ordered_set_summary_in_lockstep() {
        for k in 1..=40usize {
            for shape in [Shape::Uniform, Shape::Skewed, Shape::TieHeavy] {
                let mut state = ((k as u64) << 8) | shape as u64;
                let mut summary: SpaceSaving<u16, u64> = SpaceSaving::new(k);
                let mut dense: SpaceSaving<u16, u64, DenseIndex> =
                    SpaceSaving::with_index(k, DenseIndex::default());
                let mut oracle = btree::BTreeSpaceSaving::<u16, u64>::new(k);
                let steps = 600;
                for step in 0..steps {
                    let context = format!("k {k}, {shape:?}, step {step}");
                    if step == steps / 2 {
                        summary.clear();
                        dense.clear();
                        oracle.clear();
                    } else if step % 7 == 3 {
                        let item = draw(shape, k, step, &mut state);
                        let bump = |aux: &mut u64| {
                            *aux += 100;
                            *aux
                        };
                        let ours = summary.aux_mut(&item).map(bump);
                        let dense_ours = dense.aux_mut(&item).map(bump);
                        let theirs = oracle.aux_mut(&item).map(bump);
                        assert_eq!(ours, theirs, "{context}: aux_mut of {item}");
                        assert_eq!(dense_ours, theirs, "{context}: dense aux_mut of {item}");
                    } else {
                        let item = draw(shape, k, step, &mut state);
                        let bump = |aux: &mut u64| {
                            *aux += 1;
                            *aux
                        };
                        let ours = bump(summary.observe_mut(item));
                        let dense_ours = bump(dense.observe_mut(item));
                        let theirs = bump(oracle.observe_mut(item));
                        assert_eq!(ours, theirs, "{context}: payload of {item}");
                        assert_eq!(dense_ours, theirs, "{context}: dense payload of {item}");
                    }
                    assert_same(&summary, &oracle, &context);
                    assert_same(&dense, &oracle, &context);
                }
            }
        }
    }

    /// A recycle takes the minimum count first and the smallest item among
    /// those counts second, wherever its slot sits.
    #[test]
    fn recycle_picks_the_smallest_minimum_count_item() {
        let mut ss: SpaceSaving<u8> = SpaceSaving::new(3);
        for x in [3u8, 2, 1] {
            ss.observe(x);
        }
        // All at count 1: 4 recycles 1, in the last slot, not 3 in the first.
        ss.observe(4);
        ss.validate();
        assert!(!ss.is_monitored(&1));
        assert_eq!(ss.estimate(&4), Some(Estimate { count: 2, error: 1 }));
        // 3 and 2 remain at count 1; 5 recycles 2, then 6 recycles 3.
        ss.observe(5);
        ss.observe(6);
        ss.validate();
        assert!(!ss.is_monitored(&2) && !ss.is_monitored(&3));
        // Counts 2, 2, 2: 4 and 5 grow, so 6 alone holds the minimum and is
        // recycled even though 4 and 5 are smaller.
        ss.observe(4);
        ss.observe(5);
        ss.observe(0);
        ss.validate();
        assert!(!ss.is_monitored(&6));
        assert_eq!(ss.estimate(&0), Some(Estimate { count: 3, error: 2 }));
        assert_eq!(ss.estimate(&4), Some(Estimate { count: 3, error: 1 }));
    }

    /// The tie rule does not depend on the index: a summary on a map with a
    /// fixed hasher, or on a dense index, evolves exactly like one on
    /// `RandomState`.
    #[test]
    fn with_hasher_behaves_like_new() {
        use std::hash::BuildHasherDefault;
        type Fixed = BuildHasherDefault<std::collections::hash_map::DefaultHasher>;
        let mut seeded: SpaceSaving<u16> = SpaceSaving::new(5);
        let mut fixed: SpaceSaving<u16, (), HashMap<u16, usize, Fixed>> =
            SpaceSaving::with_index(5, HashMap::with_hasher(Fixed::default()));
        let mut dense: SpaceSaving<u16, (), DenseIndex> =
            SpaceSaving::with_index(5, DenseIndex::default());
        let mut state = 7u64;
        for step in 0..2_000 {
            let item = draw(Shape::Skewed, 5, step, &mut state);
            seeded.observe(item);
            fixed.observe(item);
            dense.observe(item);
        }
        fixed.validate();
        dense.validate();
        assert_eq!(seeded.entries(), fixed.entries());
        assert_eq!(seeded.entries(), dense.entries());
    }
}
