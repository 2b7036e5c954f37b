//! The slab-backed page table: CLIC's per-page bookkeeping in one structure.
//!
//! The policy needs, per request, (1) the most recent metadata for the
//! requested page whether it is cached or merely remembered in the outqueue,
//! (2) recency-ordered lists of cached pages grouped by hint set, and (3) the
//! lowest-priority hint set currently holding cached pages. The original
//! implementation spread this over four containers — a `HashMap` of cached
//! pages, a `HashMap` of per-hint ordered lists (each with its *own* internal
//! hash index), a separate outqueue map, and a `BTreeSet` victim index —
//! costing several hashed lookups per request. [`PageTable`] collapses all of
//! it into:
//!
//! * **one slab** (`slots`): a contiguous arena of [`PageRecord`] slots shared
//!   by cached *and* outqueue pages, with freed slots recycled through an
//!   intrusive free list;
//! * **one open-addressed index** (`buckets`): `PageId → slot`, Fibonacci
//!   hashing + linear probing + backward-shift deletion, sized so that a page
//!   lookup is one multiply and a short probe — the only per-page hashed
//!   lookup on the hot path;
//! * **intrusive per-hint lists**: cached slots are threaded into one doubly
//!   linked list per hint set through their `prev`/`next` fields (front =
//!   oldest sequence number), so "move to back", "remove", and "oldest page"
//!   are pointer swaps with no auxiliary index; the lists sit in a vector
//!   indexed by the dense [`HintSetId`] (one per id up to the largest
//!   seen), so a page's list is reached by its hint with no lookup;
//! * **an intrusive outqueue FIFO**: uncached-but-remembered slots are
//!   threaded into a single bounded insertion-ordered list through the same
//!   link fields;
//! * **a min-priority victim index**: each occupied hint list caches its
//!   priority key, and the table memoizes the minimum key plus the list
//!   indices attaining it, maintained incrementally exactly as the retired
//!   `BTreeSet` + memoized-minimum pair did.
//!
//! # Invariants
//!
//! The structure maintains, between any two public calls:
//!
//! 1. Every live slot is reachable from the bucket index under its page id,
//!    and belongs to exactly one intrusive list: its hint set's list
//!    (cached) or the outqueue FIFO (not cached).
//! 2. Each hint list links its slots in ascending insertion order; because
//!    the policy only ever appends with the current (monotone) sequence
//!    number, the front of a list is the hint set's oldest cached page.
//! 3. The outqueue FIFO holds at most `outqueue_capacity` slots ordered by
//!    insertion; refreshing an existing entry moves it to the young end.
//! 4. A hint list's cached `key` equals the priority key passed at the moment
//!    the list last became occupied or at the last [`PageTable::refresh_keys`]
//!    call — the policy refreshes keys whenever priorities change, so stored
//!    keys always match the live priority table.
//! 5. `min_key` is the minimum `key` over occupied hint lists and `min_lists`
//!    are exactly the occupied lists attaining it, ordered by ascending
//!    [`HintSetId`] after a rebuild (the lists' own order) and by insertion
//!    order between rebuilds — mirroring the retired ordered-index semantics
//!    bit for bit (the order only matters for tie-breaks on equal sequence
//!    numbers, which cannot occur under a monotone sequencer).
//!
//! [`PageTable::validate`] checks all of the above and is exercised after
//! every request by the differential property tests.

use cache_sim::{HintSetId, PageId};

/// Metadata remembered for a page: the sequence number and hint set of its
/// most recent request. This is the one canonical record type shared by the
/// cached and outqueue halves of the slab (and re-exported by
/// [`crate::outqueue`] for the stand-alone [`crate::OutQueue`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRecord {
    /// Sequence number of the most recent request for the page.
    pub seq: u64,
    /// Hint set attached to that request.
    pub hint: HintSetId,
}

/// Issues a best-effort read prefetch for the cache line holding `ptr`
/// (locality hint: all cache levels). A no-op on architectures without a
/// stable prefetch intrinsic — prefetching is only ever a hint, so behaviour
/// is identical either way.
#[inline(always)]
fn prefetch_read<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` has no memory effects observable by safe code;
    // it is a hint and is defined for any address, valid or not.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(ptr.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

/// Sentinel for "no slot" in links, buckets, and free list.
const NIL: u32 = u32::MAX;
/// 64-bit golden-ratio constant for Fibonacci bucket hashing.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;
/// Largest bucket array allocated eagerly; bigger tables grow on demand.
const MAX_EAGER_BUCKETS: usize = 1 << 21;

/// One slab entry: a page's record plus its intrusive list links.
#[derive(Debug, Clone, Copy)]
struct Slot {
    page: PageId,
    seq: u64,
    hint: HintSetId,
    prev: u32,
    next: u32,
    /// Whether the slot is cached, threaded into the list of `hint`;
    /// otherwise it sits in the outqueue FIFO.
    cached: bool,
}

/// Head/tail/length of one hint set's intrusive list, plus its cached
/// priority key (valid while the list is occupied; see module invariant 4).
#[derive(Debug, Clone, Copy)]
struct HintList {
    head: u32,
    tail: u32,
    len: u32,
    key: u64,
    /// Whether the list was ever used: an id below the largest seen may
    /// never have been.
    seen: bool,
}

impl HintList {
    const UNSEEN: HintList = HintList {
        head: NIL,
        tail: NIL,
        len: 0,
        key: 0,
        seen: false,
    };
}

/// A stable handle to a slot, returned by [`PageTable::find`]. Valid only
/// until the next mutating call on the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRef(u32);

/// The eviction candidate reported by [`PageTable::find_victim`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Victim {
    /// The minimum priority over occupied hint lists.
    pub priority: f64,
    /// Handle to the victim's slot (valid until the next mutating call);
    /// feed it to [`PageTable::evict_slot_to_outqueue`].
    pub slot: SlotRef,
    /// The victim page.
    pub page: PageId,
    /// The hint set the victim currently belongs to.
    pub hint: HintSetId,
}

/// The victim index's work so far: plain counts, deterministic for a given
/// request stream, so a test can pin them exactly where wall time cannot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchWork {
    /// Hint lists visited by victim searches ([`PageTable::find_victim`]):
    /// every list at the minimum priority key, per search.
    pub lists_visited: u64,
    /// Hint lists scanned by rebuilds of the minimum key: every hint list
    /// the table has used, per rebuild.
    pub lists_scanned: u64,
}

/// The slab-backed page table described in the module documentation.
#[derive(Debug, Clone)]
pub struct PageTable {
    slots: Vec<Slot>,
    free_head: u32,
    /// Open-addressed index: bucket → slot, [`NIL`] when empty.
    buckets: Vec<u32>,
    /// `64 - log2(buckets.len())`: Fibonacci hashing keeps the high bits.
    bucket_shift: u32,
    /// Live slots (cached + outqueue).
    entries: usize,
    cached_len: usize,
    /// One list per hint-set id up to the largest seen, indexed by id.
    hint_lists: Vec<HintList>,
    /// Lists ever used.
    lists_seen: u64,
    outq_head: u32,
    outq_tail: u32,
    outq_len: usize,
    outq_capacity: usize,
    /// Minimum priority key over occupied hint lists (`None` when no page is
    /// cached), with the dense indices of the lists attaining it.
    min_key: Option<u64>,
    min_lists: Vec<u32>,
    work: SearchWork,
}

impl PageTable {
    /// Creates a table for a cache of `cache_capacity` pages remembering at
    /// most `outqueue_capacity` additional uncached pages.
    pub fn new(cache_capacity: usize, outqueue_capacity: usize) -> Self {
        let max_entries = cache_capacity.saturating_add(outqueue_capacity);
        let buckets = (max_entries.saturating_mul(2))
            .next_power_of_two()
            .clamp(16, MAX_EAGER_BUCKETS);
        PageTable {
            slots: Vec::with_capacity(max_entries.min(1 << 20)),
            free_head: NIL,
            buckets: vec![NIL; buckets],
            bucket_shift: 64 - buckets.trailing_zeros(),
            entries: 0,
            cached_len: 0,
            hint_lists: Vec::new(),
            lists_seen: 0,
            outq_head: NIL,
            outq_tail: NIL,
            outq_len: 0,
            outq_capacity: outqueue_capacity,
            min_key: None,
            min_lists: Vec::new(),
            work: SearchWork::default(),
        }
    }

    /// Number of cached pages.
    #[inline]
    pub fn cached_len(&self) -> usize {
        self.cached_len
    }

    /// Number of pages remembered in the outqueue.
    #[inline]
    pub fn outqueue_len(&self) -> usize {
        self.outq_len
    }

    /// Returns `true` if `page` is currently cached (outqueue membership does
    /// not count).
    #[inline]
    pub fn contains(&self, page: PageId) -> bool {
        matches!(self.find(page), Some((_, _, true)))
    }

    /// Looks up `page`, returning its slot handle, record, and whether it is
    /// cached (`true`) or merely remembered in the outqueue (`false`).
    ///
    /// This is the single hashed lookup of the request hot path; the handle
    /// stays valid until the next mutating call.
    #[inline]
    pub fn find(&self, page: PageId) -> Option<(SlotRef, PageRecord, bool)> {
        let mask = self.buckets.len() - 1;
        let mut bucket = self.home_bucket(page);
        loop {
            let slot_idx = self.buckets[bucket];
            if slot_idx == NIL {
                return None;
            }
            let slot = &self.slots[slot_idx as usize];
            if slot.page == page {
                return Some((
                    SlotRef(slot_idx),
                    PageRecord {
                        seq: slot.seq,
                        hint: slot.hint,
                    },
                    slot.cached,
                ));
            }
            bucket = (bucket + 1) & mask;
        }
    }

    /// Largest group size accepted by [`PageTable::prefetch_group`] in one
    /// internal pass (callers may pass longer slices; they are processed in
    /// sub-groups of this size).
    pub const MAX_PREFETCH_GROUP: usize = 32;

    /// Warms the caches for an upcoming burst of [`PageTable::find`] calls on
    /// `pages` using a two-pass group structure: pass one precomputes every
    /// page's Fibonacci home bucket and software-prefetches the index
    /// buckets; pass two — by which time the bucket words are arriving —
    /// reads each home bucket and prefetches the slab slot it points at.
    /// The actual lookups then run against warm lines instead of paying a
    /// dependent bucket-then-slot miss chain per request.
    ///
    /// Purely a performance hint: no observable state changes, and the
    /// subsequent `find` calls behave identically whether or not (and on
    /// whatever architecture) this ran. Mutations between the prefetch and
    /// the lookup (admissions, evictions within the same batch) at worst
    /// waste the hint.
    pub fn prefetch_group(&self, pages: &[PageId]) {
        let mut homes = [0usize; Self::MAX_PREFETCH_GROUP];
        for group in pages.chunks(Self::MAX_PREFETCH_GROUP) {
            for (home, &page) in homes.iter_mut().zip(group) {
                *home = self.home_bucket(page);
                prefetch_read(&self.buckets[*home]);
            }
            for &home in homes.iter().take(group.len()) {
                let slot = self.buckets[home];
                if slot != NIL {
                    prefetch_read(&self.slots[slot as usize]);
                }
            }
        }
    }

    /// Refreshes a cached page on a hit: updates its record to `(seq, hint)`
    /// and moves it to the young end of `hint`'s list (switching lists if the
    /// hint set changed; `key` supplies the priority key of `hint` and is
    /// evaluated only if its list transitions from empty to occupied).
    ///
    /// `slot` must be a handle to a *cached* page returned by
    /// [`PageTable::find`] with no intervening mutation.
    pub fn record_hit(
        &mut self,
        slot: SlotRef,
        seq: u64,
        hint: HintSetId,
        key: impl FnOnce() -> u64,
    ) {
        let idx = slot.0;
        debug_assert!(
            self.slots[idx as usize].cached,
            "record_hit on an uncached slot"
        );
        let slot_ref = &mut self.slots[idx as usize];
        let old_list = slot_ref.hint.0;
        slot_ref.seq = seq;
        if slot_ref.hint == hint {
            // Same hint set: move to the back of its list.
            self.hint_unlink(old_list, idx);
            self.hint_link_back(old_list, idx);
        } else {
            slot_ref.hint = hint;
            self.hint_unlink(old_list, idx);
            self.note_if_emptied(old_list);
            let new_list = self.list_of(hint);
            let was_empty = self.hint_lists[new_list as usize].len == 0;
            self.hint_link_back(new_list, idx);
            if was_empty {
                self.note_occupied(new_list, key());
            }
        }
    }

    /// Admits `page` into the cache with `record`, at the young end of its
    /// hint set's list. If the page sits in the outqueue its slot is re-used
    /// (and leaves the FIFO); otherwise a slot is allocated. `key` supplies
    /// the priority key of `record.hint`, evaluated only if that hint's list
    /// transitions from empty to occupied.
    ///
    /// The page must not already be cached.
    pub fn admit(&mut self, page: PageId, record: PageRecord, key: impl FnOnce() -> u64) {
        let found = self.find(page).map(|(slot, _, cached)| {
            debug_assert!(!cached, "admit of an already cached page");
            slot
        });
        self.admit_resolved(found, page, record, key);
    }

    /// Like [`PageTable::admit`], but takes the result of a
    /// [`PageTable::find`]`(page)` performed by the caller *with no mutating
    /// call in between*, skipping the second probe of the hot miss path.
    pub fn admit_resolved(
        &mut self,
        found: Option<SlotRef>,
        page: PageId,
        record: PageRecord,
        key: impl FnOnce() -> u64,
    ) {
        let idx = match found {
            Some(slot) => {
                debug_assert_eq!(
                    self.slots[slot.0 as usize].page, page,
                    "stale slot handle passed to admit_resolved"
                );
                debug_assert!(!self.slots[slot.0 as usize].cached);
                self.outq_unlink(slot.0);
                slot.0
            }
            None => self.alloc(page),
        };
        let list = self.list_of(record.hint);
        {
            let slot = &mut self.slots[idx as usize];
            slot.seq = record.seq;
            slot.hint = record.hint;
            slot.cached = true;
        }
        let was_empty = self.hint_lists[list as usize].len == 0;
        self.hint_link_back(list, idx);
        self.cached_len += 1;
        if was_empty {
            self.note_occupied(list, key());
        }
    }

    /// Evicts the cached `page`, remembering its record in the outqueue (the
    /// least recently inserted outqueue entry is dropped first if the FIFO is
    /// full; with a zero-capacity outqueue the page is forgotten entirely).
    pub fn evict_to_outqueue(&mut self, page: PageId) {
        let Some((slot, _, cached)) = self.find(page) else {
            return;
        };
        if !cached {
            return;
        }
        self.evict_slot_to_outqueue(slot);
    }

    /// Like [`PageTable::evict_to_outqueue`], but takes the slot handle the
    /// caller already holds (e.g. from [`PageTable::find_victim`], with no
    /// mutating call in between), skipping the probe. The slot must be
    /// cached.
    pub fn evict_slot_to_outqueue(&mut self, slot: SlotRef) {
        let idx = slot.0;
        debug_assert!(self.slots[idx as usize].cached, "evicting an uncached slot");
        let list = self.slots[idx as usize].hint.0;
        self.hint_unlink(list, idx);
        self.cached_len -= 1;
        self.note_if_emptied(list);
        if self.outq_capacity == 0 {
            self.release(idx);
            return;
        }
        if self.outq_len >= self.outq_capacity {
            self.pop_outqueue_front();
        }
        self.slots[idx as usize].cached = false;
        self.outq_link_back(idx);
    }

    /// Forgets `page` entirely: a cached page leaves its hint list (updating
    /// the victim memo), an outqueue page leaves the FIFO, and the slot is
    /// freed in either case. Unlike [`PageTable::evict_to_outqueue`] the page
    /// is *not* remembered — this is the invalidation path (deletes), not an
    /// eviction, so no ghost entry survives to influence future admissions.
    ///
    /// Returns whether the page was cached (`Some(true)`), merely remembered
    /// in the outqueue (`Some(false)`), or unknown (`None`).
    pub fn remove(&mut self, page: PageId) -> Option<bool> {
        let (slot, _, cached) = self.find(page)?;
        let idx = slot.0;
        if cached {
            let list = self.slots[idx as usize].hint.0;
            self.hint_unlink(list, idx);
            self.cached_len -= 1;
            self.note_if_emptied(list);
        } else {
            self.outq_unlink(idx);
        }
        self.release(idx);
        Some(cached)
    }

    /// Remembers `record` for the uncached `page` in the outqueue (the bypass
    /// path). Refreshing an existing entry updates its record and moves it to
    /// the young end; inserting into a full FIFO drops the oldest entry
    /// first. A zero-capacity outqueue makes this a no-op.
    ///
    /// `found` is the slot of a [`PageTable::find`]`(page)` performed by the
    /// caller *with no mutating call in between*, so the bypass hot path
    /// probes the table once. The page must not be cached.
    pub fn outqueue_insert_resolved(
        &mut self,
        found: Option<SlotRef>,
        page: PageId,
        record: PageRecord,
    ) {
        if self.outq_capacity == 0 {
            return;
        }
        match found {
            Some(slot) => {
                debug_assert_eq!(
                    self.slots[slot.0 as usize].page, page,
                    "stale slot handle passed to outqueue_insert_resolved"
                );
                let idx = slot.0;
                let s = &mut self.slots[idx as usize];
                s.seq = record.seq;
                s.hint = record.hint;
                self.outq_unlink(idx);
                self.outq_link_back(idx);
            }
            None => {
                if self.outq_len >= self.outq_capacity {
                    self.pop_outqueue_front();
                }
                let idx = self.alloc(page);
                let s = &mut self.slots[idx as usize];
                s.seq = record.seq;
                s.hint = record.hint;
                self.outq_link_back(idx);
            }
        }
    }

    /// The eviction candidate per Figure 4 of the paper: the oldest page
    /// (smallest sequence number) among the front pages of the
    /// minimum-priority hint lists. The returned slot handle can be fed to
    /// [`PageTable::evict_slot_to_outqueue`] (valid until the next mutating
    /// call). Counts the lists it visits in [`PageTable::search_work`].
    pub fn find_victim(&mut self) -> Option<Victim> {
        let min_key = self.min_key?;
        self.work.lists_visited += self.min_lists.len() as u64;
        debug_assert_eq!(
            Some(min_key),
            self.hint_lists
                .iter()
                .filter(|l| l.len > 0)
                .map(|l| l.key)
                .min(),
            "memoized minimum diverged from the hint lists"
        );
        let mut best: Option<(u64, u32, PageId, HintSetId)> = None;
        for &list_idx in &self.min_lists {
            let list = &self.hint_lists[list_idx as usize];
            debug_assert!(list.len > 0, "min-index list is occupied");
            let front = &self.slots[list.head as usize];
            match best {
                Some((best_seq, ..)) if best_seq <= front.seq => {}
                _ => best = Some((front.seq, list.head, front.page, HintSetId(list_idx))),
            }
        }
        best.map(|(_, slot, page, hint)| Victim {
            priority: f64::from_bits(min_key),
            slot: SlotRef(slot),
            page,
            hint,
        })
    }

    /// Re-derives every occupied hint list's priority key via `key_of` and
    /// rebuilds the minimum memo. Called whenever hint-set priorities change
    /// (window re-evaluation, snapshot import).
    pub fn refresh_keys(&mut self, mut key_of: impl FnMut(HintSetId) -> u64) {
        for (i, list) in self.hint_lists.iter_mut().enumerate() {
            if list.len > 0 {
                list.key = key_of(HintSetId(i as u32));
            }
        }
        self.rebuild_min();
    }

    /// The victim index's work so far.
    pub fn search_work(&self) -> SearchWork {
        self.work
    }

    /// Returns, for each hint set with at least one cached page, the number
    /// of pages it holds, sorted by descending count (ties by ascending id).
    pub fn composition(&self) -> Vec<(HintSetId, usize)> {
        let mut out: Vec<(HintSetId, usize)> = self
            .hint_lists
            .iter()
            .enumerate()
            .filter(|(_, l)| l.len > 0)
            .map(|(i, l)| (HintSetId(i as u32), l.len as usize))
            .collect();
        out.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
        out
    }

    /// The current minimum priority key over occupied hint lists, if any.
    /// Exposed for diagnostics and invariant tests.
    pub fn min_key(&self) -> Option<u64> {
        self.min_key
    }

    /// The outqueue contents in FIFO order (oldest insertion first), for
    /// diagnostics and the differential tests.
    #[doc(hidden)]
    pub fn outqueue_snapshot(&self) -> Vec<(PageId, PageRecord)> {
        let mut out = Vec::with_capacity(self.outq_len);
        let mut cursor = self.outq_head;
        while cursor != NIL {
            let slot = &self.slots[cursor as usize];
            out.push((
                slot.page,
                PageRecord {
                    seq: slot.seq,
                    hint: slot.hint,
                },
            ));
            cursor = slot.next;
        }
        out
    }

    /// Checks every structural invariant listed in the module documentation,
    /// panicking with a description on the first violation. Intended for
    /// tests (the differential property suite calls it after every request);
    /// it is `O(slots + buckets)` and must stay off production paths.
    #[doc(hidden)]
    pub fn validate(&self) {
        // Bucket index: every non-empty bucket points at a live slot storing
        // a page that hashes back to a probe sequence covering the bucket.
        let mut via_buckets = 0usize;
        for &slot_idx in &self.buckets {
            if slot_idx == NIL {
                continue;
            }
            via_buckets += 1;
            let slot = &self.slots[slot_idx as usize];
            let (found, _, _) = self
                .find(slot.page)
                .unwrap_or_else(|| panic!("slot for {} unreachable via probing", slot.page));
            assert_eq!(
                found.0, slot_idx,
                "probe found a different slot for {}",
                slot.page
            );
        }
        assert_eq!(via_buckets, self.entries, "bucket count vs live entries");

        // Hint lists: consistent links, per-list length, membership tags.
        let mut cached = 0usize;
        for (list_idx, list) in self.hint_lists.iter().enumerate() {
            let mut walked = 0u32;
            let mut cursor = list.head;
            let mut prev = NIL;
            while cursor != NIL {
                let slot = &self.slots[cursor as usize];
                assert!(slot.cached, "outqueue slot in a hint list");
                assert_eq!(slot.hint.index(), list_idx, "slot in the wrong hint list");
                assert_eq!(slot.prev, prev, "broken prev link in hint list");
                walked += 1;
                prev = cursor;
                cursor = slot.next;
            }
            assert_eq!(prev, list.tail, "hint list tail mismatch");
            assert_eq!(walked, list.len, "hint list length mismatch");
            assert!(list.seen || list.len == 0, "an unseen list holds pages");
            cached += list.len as usize;
        }
        assert_eq!(cached, self.cached_len, "cached length mismatch");
        let seen = self.hint_lists.iter().filter(|l| l.seen).count();
        assert_eq!(seen as u64, self.lists_seen, "used list count mismatch");

        // Outqueue FIFO: consistent links and bounded length.
        let mut walked = 0usize;
        let mut cursor = self.outq_head;
        let mut prev = NIL;
        while cursor != NIL {
            let slot = &self.slots[cursor as usize];
            assert!(!slot.cached, "outqueue slot tagged as cached");
            assert_eq!(slot.prev, prev, "broken prev link in outqueue");
            walked += 1;
            prev = cursor;
            cursor = slot.next;
        }
        assert_eq!(prev, self.outq_tail, "outqueue tail mismatch");
        assert_eq!(walked, self.outq_len, "outqueue length mismatch");
        assert!(
            self.outq_len <= self.outq_capacity,
            "outqueue over capacity"
        );
        assert_eq!(self.entries, cached + walked, "live entries mismatch");

        // Victim memo: min_key/min_lists agree with a full scan.
        let scanned_min = self
            .hint_lists
            .iter()
            .filter(|l| l.len > 0)
            .map(|l| l.key)
            .min();
        assert_eq!(self.min_key, scanned_min, "memoized minimum is stale");
        if let Some(min) = scanned_min {
            let expected: Vec<u32> = (0..self.hint_lists.len() as u32)
                .filter(|&i| {
                    let l = &self.hint_lists[i as usize];
                    l.len > 0 && l.key == min
                })
                .collect();
            let mut memoized = self.min_lists.clone();
            memoized.sort_unstable();
            assert_eq!(memoized, expected, "memoized minimum lists are stale");
        } else {
            assert!(self.min_lists.is_empty(), "min lists must be empty");
        }
    }

    // ----- slab + bucket internals -------------------------------------

    /// Allocates a slot for `page` and inserts it into the bucket index.
    /// Links and record fields are left for the caller to fill in.
    fn alloc(&mut self, page: PageId) -> u32 {
        if (self.entries + 1) * 4 > self.buckets.len() * 3 {
            self.grow_buckets();
        }
        let idx = if self.free_head != NIL {
            let idx = self.free_head;
            self.free_head = self.slots[idx as usize].next;
            self.slots[idx as usize] = Slot {
                page,
                seq: 0,
                hint: HintSetId(0),
                prev: NIL,
                next: NIL,
                cached: false,
            };
            idx
        } else {
            assert!(self.slots.len() < NIL as usize, "slab exhausted");
            self.slots.push(Slot {
                page,
                seq: 0,
                hint: HintSetId(0),
                prev: NIL,
                next: NIL,
                cached: false,
            });
            (self.slots.len() - 1) as u32
        };
        self.bucket_insert(page, idx);
        self.entries += 1;
        idx
    }

    /// Frees `idx`: removes it from the bucket index and pushes it onto the
    /// slab free list. The slot must already be unlinked from every list.
    fn release(&mut self, idx: u32) {
        self.bucket_remove(self.slots[idx as usize].page);
        self.slots[idx as usize].next = self.free_head;
        self.free_head = idx;
        self.entries -= 1;
    }

    #[inline]
    fn home_bucket(&self, page: PageId) -> usize {
        (page.0.wrapping_mul(FIB) >> self.bucket_shift) as usize
    }

    fn bucket_insert(&mut self, page: PageId, slot_idx: u32) {
        let mask = self.buckets.len() - 1;
        let mut bucket = self.home_bucket(page);
        while self.buckets[bucket] != NIL {
            debug_assert_ne!(
                self.slots[self.buckets[bucket] as usize].page, page,
                "duplicate page in bucket index"
            );
            bucket = (bucket + 1) & mask;
        }
        self.buckets[bucket] = slot_idx;
    }

    /// Removes `page`'s bucket using backward-shift deletion, so probe
    /// sequences stay dense without tombstones.
    fn bucket_remove(&mut self, page: PageId) {
        let mask = self.buckets.len() - 1;
        let mut bucket = self.home_bucket(page);
        loop {
            let slot_idx = self.buckets[bucket];
            assert_ne!(slot_idx, NIL, "removing a page absent from the index");
            if self.slots[slot_idx as usize].page == page {
                break;
            }
            bucket = (bucket + 1) & mask;
        }
        let mut hole = bucket;
        let mut probe = bucket;
        loop {
            probe = (probe + 1) & mask;
            let slot_idx = self.buckets[probe];
            if slot_idx == NIL {
                break;
            }
            let home = self.home_bucket(self.slots[slot_idx as usize].page);
            // The entry at `probe` may fill the hole iff its home bucket is
            // cyclically outside (hole, probe] — otherwise moving it would
            // break its own probe sequence.
            let home_in_range = if hole <= probe {
                home > hole && home <= probe
            } else {
                home > hole || home <= probe
            };
            if !home_in_range {
                self.buckets[hole] = slot_idx;
                hole = probe;
            }
        }
        self.buckets[hole] = NIL;
    }

    fn grow_buckets(&mut self) {
        let new_len = self.buckets.len() * 2;
        self.buckets = vec![NIL; new_len];
        self.bucket_shift = 64 - new_len.trailing_zeros();
        // Re-insert every live slot (free-list slots are unreachable from the
        // intrusive lists, so enumerate via list membership instead: a live
        // slot is exactly one whose page probes back to it — walk all lists).
        let mut live: Vec<u32> = Vec::with_capacity(self.entries);
        for list in &self.hint_lists {
            let mut cursor = list.head;
            while cursor != NIL {
                live.push(cursor);
                cursor = self.slots[cursor as usize].next;
            }
        }
        let mut cursor = self.outq_head;
        while cursor != NIL {
            live.push(cursor);
            cursor = self.slots[cursor as usize].next;
        }
        debug_assert_eq!(live.len(), self.entries);
        for idx in live {
            self.bucket_insert(self.slots[idx as usize].page, idx);
        }
    }

    // ----- hint list internals -----------------------------------------

    /// Index of `hint`'s list (its id), growing the lists up to it and
    /// counting the list as used on first use.
    #[inline]
    fn list_of(&mut self, hint: HintSetId) -> u32 {
        let idx = hint.index();
        if idx >= self.hint_lists.len() {
            self.hint_lists.resize(idx + 1, HintList::UNSEEN);
        }
        let list = &mut self.hint_lists[idx];
        if !list.seen {
            list.seen = true;
            self.lists_seen += 1;
        }
        hint.0
    }

    fn hint_link_back(&mut self, list_idx: u32, slot_idx: u32) {
        let old_tail = {
            let list = &mut self.hint_lists[list_idx as usize];
            let old_tail = list.tail;
            list.tail = slot_idx;
            list.len += 1;
            if old_tail == NIL {
                list.head = slot_idx;
            }
            old_tail
        };
        if old_tail != NIL {
            self.slots[old_tail as usize].next = slot_idx;
        }
        let slot = &mut self.slots[slot_idx as usize];
        slot.prev = old_tail;
        slot.next = NIL;
    }

    fn hint_unlink(&mut self, list_idx: u32, slot_idx: u32) {
        let (prev, next) = {
            let slot = &self.slots[slot_idx as usize];
            (slot.prev, slot.next)
        };
        let list = &mut self.hint_lists[list_idx as usize];
        if prev == NIL {
            list.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        let list = &mut self.hint_lists[list_idx as usize];
        if next == NIL {
            list.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
        self.hint_lists[list_idx as usize].len -= 1;
        let slot = &mut self.slots[slot_idx as usize];
        slot.prev = NIL;
        slot.next = NIL;
    }

    // ----- outqueue internals ------------------------------------------

    fn outq_link_back(&mut self, slot_idx: u32) {
        let old_tail = self.outq_tail;
        self.outq_tail = slot_idx;
        if old_tail == NIL {
            self.outq_head = slot_idx;
        } else {
            self.slots[old_tail as usize].next = slot_idx;
        }
        let slot = &mut self.slots[slot_idx as usize];
        slot.prev = old_tail;
        slot.next = NIL;
        self.outq_len += 1;
    }

    fn outq_unlink(&mut self, slot_idx: u32) {
        let (prev, next) = {
            let slot = &self.slots[slot_idx as usize];
            (slot.prev, slot.next)
        };
        if prev == NIL {
            self.outq_head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.outq_tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
        let slot = &mut self.slots[slot_idx as usize];
        slot.prev = NIL;
        slot.next = NIL;
        self.outq_len -= 1;
    }

    /// Drops (and frees) the least recently inserted outqueue entry.
    fn pop_outqueue_front(&mut self) {
        let head = self.outq_head;
        debug_assert_ne!(head, NIL, "popping an empty outqueue");
        self.outq_unlink(head);
        self.release(head);
    }

    // ----- victim memo internals ---------------------------------------

    /// Updates the minimum memo after `list_idx` transitioned empty →
    /// occupied with priority key `key`.
    fn note_occupied(&mut self, list_idx: u32, key: u64) {
        self.hint_lists[list_idx as usize].key = key;
        match self.min_key {
            Some(min) if key > min => {}
            Some(min) if key == min => self.min_lists.push(list_idx),
            _ => {
                self.min_key = Some(key);
                self.min_lists.clear();
                self.min_lists.push(list_idx);
            }
        }
    }

    /// Updates the minimum memo if `list_idx` just became empty.
    fn note_if_emptied(&mut self, list_idx: u32) {
        if self.hint_lists[list_idx as usize].len > 0 {
            return;
        }
        let key = self.hint_lists[list_idx as usize].key;
        if self.min_key == Some(key) {
            self.min_lists.retain(|&l| l != list_idx);
            if self.min_lists.is_empty() {
                self.rebuild_min();
            }
        }
    }

    /// Recomputes the minimum memo from scratch: scan every occupied list,
    /// collect the indices attaining the minimum key in ascending
    /// [`HintSetId`] order (matching the retired ordered index).
    fn rebuild_min(&mut self) {
        self.work.lists_scanned += self.lists_seen;
        self.min_lists.clear();
        self.min_key = self
            .hint_lists
            .iter()
            .filter(|l| l.len > 0)
            .map(|l| l.key)
            .min();
        if let Some(min) = self.min_key {
            self.min_lists
                .extend((0..self.hint_lists.len() as u32).filter(|&i| {
                    let l = &self.hint_lists[i as usize];
                    l.len > 0 && l.key == min
                }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, hint: u32) -> PageRecord {
        PageRecord {
            seq,
            hint: HintSetId(hint),
        }
    }

    #[test]
    fn admit_find_and_composition() {
        let mut t = PageTable::new(8, 8);
        t.admit(PageId(1), rec(0, 0), || 5);
        t.admit(PageId(2), rec(1, 0), || 5);
        t.admit(PageId(3), rec(2, 1), || 9);
        assert_eq!(t.cached_len(), 3);
        assert!(t.contains(PageId(2)));
        assert!(!t.contains(PageId(9)));
        let (_, record, cached) = t.find(PageId(3)).unwrap();
        assert!(cached);
        assert_eq!(record, rec(2, 1));
        assert_eq!(t.composition(), vec![(HintSetId(0), 2), (HintSetId(1), 1)]);
        assert_eq!(t.min_key(), Some(5));
        t.validate();
    }

    #[test]
    fn search_work_counts_every_list_visited_and_scanned() {
        let mut t = PageTable::new(8, 8);
        t.admit(PageId(1), rec(0, 1), || 5);
        t.admit(PageId(2), rec(1, 2), || 5);
        t.admit(PageId(3), rec(2, 3), || 7);
        assert_eq!(t.search_work(), SearchWork::default());
        // Lists 1 and 2 sit at the minimum key: a search visits both.
        let victim = t.find_victim().unwrap();
        assert_eq!(victim.page, PageId(1));
        t.evict_slot_to_outqueue(victim.slot);
        // List 2 is still at the minimum, so emptying list 1 rebuilt
        // nothing, and the next search visits one list.
        let victim = t.find_victim().unwrap();
        assert_eq!(victim.page, PageId(2));
        assert_eq!(t.search_work().lists_scanned, 0);
        // Emptying the last list at the minimum rebuilds it over all three
        // lists; the search after it visits one.
        t.evict_slot_to_outqueue(victim.slot);
        assert_eq!(t.find_victim().unwrap().page, PageId(3));
        // A key refresh rebuilds over all three lists again.
        t.refresh_keys(|_| 9);
        assert_eq!(
            t.search_work(),
            SearchWork {
                lists_visited: 2 + 1 + 1,
                lists_scanned: 3 + 3,
            }
        );
        t.validate();
    }

    #[test]
    fn victim_is_oldest_of_lowest_priority_list() {
        let mut t = PageTable::new(8, 8);
        t.admit(PageId(10), rec(0, 0), || 5);
        t.admit(PageId(11), rec(1, 0), || 5);
        t.admit(PageId(20), rec(2, 1), || 3);
        t.admit(PageId(21), rec(3, 1), || 3);
        let victim = t.find_victim().unwrap();
        assert_eq!(victim.priority.to_bits(), 3);
        assert_eq!(victim.page, PageId(20));
        assert_eq!(victim.hint, HintSetId(1));
        // Touching the front page makes the next-oldest the victim.
        let (slot, ..) = t.find(PageId(20)).unwrap();
        t.record_hit(slot, 4, HintSetId(1), || 3);
        assert_eq!(t.find_victim().unwrap().page, PageId(21));
        t.validate();
    }

    #[test]
    fn ties_between_lists_break_by_oldest_sequence() {
        let mut t = PageTable::new(8, 8);
        t.admit(PageId(1), rec(5, 0), || 7);
        t.admit(PageId(2), rec(3, 1), || 7);
        t.admit(PageId(3), rec(4, 2), || 9);
        let victim = t.find_victim().unwrap();
        assert_eq!(victim.page, PageId(2));
        assert_eq!(victim.hint, HintSetId(1));
        t.validate();
    }

    #[test]
    fn evict_moves_record_to_outqueue_and_bounds_it() {
        let mut t = PageTable::new(8, 2);
        for p in 0..4u64 {
            t.admit(PageId(p), rec(p, 0), || 1);
        }
        t.evict_to_outqueue(PageId(0));
        t.evict_to_outqueue(PageId(1));
        t.evict_to_outqueue(PageId(2)); // drops page 0, the oldest entry
        assert_eq!(t.cached_len(), 1);
        assert_eq!(t.outqueue_len(), 2);
        assert!(t.find(PageId(0)).is_none());
        let (_, record, cached) = t.find(PageId(1)).unwrap();
        assert!(!cached);
        assert_eq!(record, rec(1, 0));
        t.validate();
        // Re-admitting from the outqueue reuses the slot and leaves the FIFO.
        t.admit(PageId(1), rec(9, 2), || 4);
        assert_eq!(t.outqueue_len(), 1);
        assert!(t.contains(PageId(1)));
        t.validate();
    }

    #[test]
    fn outqueue_insert_refreshes_and_rotates() {
        let mut t = PageTable::new(4, 2);
        let slot = |t: &PageTable, page| t.find(page).map(|(s, ..)| s);
        t.outqueue_insert_resolved(slot(&t, PageId(1)), PageId(1), rec(1, 0));
        t.outqueue_insert_resolved(slot(&t, PageId(2)), PageId(2), rec(2, 0));
        // Refresh: now youngest.
        t.outqueue_insert_resolved(slot(&t, PageId(1)), PageId(1), rec(9, 1));
        // Drops page 2.
        t.outqueue_insert_resolved(slot(&t, PageId(3)), PageId(3), rec(3, 0));
        assert!(t.find(PageId(2)).is_none());
        assert_eq!(t.find(PageId(1)).unwrap().1, rec(9, 1));
        assert_eq!(t.outqueue_len(), 2);
        t.validate();
    }

    #[test]
    fn zero_capacity_outqueue_forgets_everything() {
        let mut t = PageTable::new(2, 0);
        t.outqueue_insert_resolved(t.find(PageId(1)).map(|(s, ..)| s), PageId(1), rec(1, 0));
        assert_eq!(t.outqueue_len(), 0);
        t.admit(PageId(2), rec(2, 0), || 1);
        t.evict_to_outqueue(PageId(2));
        assert_eq!(t.cached_len(), 0);
        assert!(t.find(PageId(2)).is_none());
        assert_eq!(t.find_victim(), None);
        t.validate();
    }

    #[test]
    fn refresh_keys_rebuilds_the_minimum() {
        let mut t = PageTable::new(8, 4);
        t.admit(PageId(1), rec(0, 0), || 5);
        t.admit(PageId(2), rec(1, 1), || 9);
        t.refresh_keys(|hint| if hint == HintSetId(1) { 2 } else { 8 });
        assert_eq!(t.min_key(), Some(2));
        assert_eq!(t.find_victim().unwrap().hint, HintSetId(1));
        t.validate();
    }

    #[test]
    fn bucket_index_survives_churn_and_growth() {
        // Small initial table: capacity hints are tiny so the bucket array
        // must grow; interleave admits, evictions, and bypass inserts.
        let mut t = PageTable::new(2, 2);
        for round in 0..2_000u64 {
            let page = PageId(round % 37 + (round / 7) % 13 * 1000);
            match t.find(page) {
                Some((slot, _, true)) => t.record_hit(slot, round, HintSetId(0), || 1),
                _ if t.cached_len() < 2 => t.admit(page, rec(round, 0), || 1),
                _ => {
                    if round % 3 == 0 {
                        let victim = t.find_victim().unwrap();
                        t.evict_slot_to_outqueue(victim.slot);
                        t.admit(page, rec(round, 0), || 1);
                    } else {
                        t.outqueue_insert_resolved(
                            t.find(page).map(|(s, ..)| s),
                            page,
                            rec(round, 0),
                        );
                    }
                }
            }
            if round % 97 == 0 {
                t.validate();
            }
        }
        t.validate();
    }
}
