//! The retained pre-refactor CLIC implementation, kept as a differential
//! oracle and performance baseline.
//!
//! [`ReferenceClic`] is the policy exactly as it was implemented before the
//! slab/intrusive-list storage layer landed: a `HashMap` of cached pages, one
//! [`OrderedPageSet`] per hint set, a separate [`OutQueue`] map, and a
//! `BTreeSet` victim index with a memoized minimum. Its per-page containers
//! are deliberately left on the original (SipHash) standard-library maps so
//! that:
//!
//! * the differential property tests can replay arbitrary hinted traces
//!   through both implementations and assert *identical* hit/miss/eviction/
//!   bypass sequences (the refactor's bit-exactness contract), and
//! * the `access_hotpath` micro-benchmark can report the slab layout's
//!   speed-up against the real pre-refactor baseline rather than against a
//!   straw man. (One shared component did get faster in the same PR: the
//!   [`PriorityTable`] both implementations use moved to FxHash, so the
//!   baseline is, if anything, slightly *faster* than the true pre-refactor
//!   code and the reported speed-ups are conservative.)
//!
//! Keep this module boring: correctness first, no optimizations. Any change
//! to observable policy behaviour must be made to [`crate::Clic`] and here in
//! lock-step, or the differential suite will fail.

use std::collections::{BTreeSet, HashMap};

use cache_sim::policies::util::OrderedPageSet;
use cache_sim::policy::{AccessOutcome, CachePolicy};
use cache_sim::{HintSetId, PageId, Request};

use crate::config::{ClicConfig, TrackingMode};
use crate::outqueue::OutQueue;
use crate::page_table::PageRecord;
use crate::priority::{priority_key, PriorityTable};
use crate::tracker::{FullTracker, HintStatsTracker, TopKTracker};

#[derive(Debug)]
enum Tracker {
    Full(FullTracker),
    TopK(TopKTracker),
}

impl Tracker {
    fn as_dyn_mut(&mut self) -> &mut dyn HintStatsTracker {
        match self {
            Tracker::Full(t) => t,
            Tracker::TopK(t) => t,
        }
    }
}

/// The pre-refactor CLIC policy (see the module documentation). Behaviour is
/// contractually identical to [`crate::Clic`]; only the data layout differs.
#[derive(Debug)]
pub struct ReferenceClic {
    nominal_capacity: usize,
    capacity: usize,
    config: ClicConfig,
    /// Metadata (most recent sequence number and hint set) for cached pages.
    cached: HashMap<PageId, PageRecord>,
    /// Cached pages grouped by their current hint set, each list ordered by
    /// ascending sequence number (front = oldest).
    lists: HashMap<HintSetId, OrderedPageSet>,
    /// `(priority key, hint set)` for every hint set with at least one cached
    /// page; the first element identifies the lowest-priority hint set.
    victim_index: BTreeSet<(u64, HintSetId)>,
    /// Memoized minimum priority key of `victim_index`, `None` when the cache
    /// is empty.
    min_key: Option<u64>,
    /// The hint sets whose priority key equals `min_key`.
    min_hints: Vec<HintSetId>,
    outqueue: OutQueue,
    priorities: PriorityTable,
    tracker: Tracker,
    requests_seen: u64,
}

impl ReferenceClic {
    /// Creates a reference CLIC cache with the given nominal capacity and
    /// configuration (same semantics as [`crate::Clic::new`]).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, config: ClicConfig) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        let effective = config.effective_capacity(capacity);
        let tracker = match config.tracking {
            TrackingMode::Full => Tracker::Full(FullTracker::new()),
            TrackingMode::TopK(k) => Tracker::TopK(TopKTracker::new(k)),
        };
        ReferenceClic {
            nominal_capacity: capacity,
            capacity: effective,
            outqueue: OutQueue::new(config.outqueue_entries(effective)),
            config,
            cached: HashMap::with_capacity(effective),
            lists: HashMap::new(),
            victim_index: BTreeSet::new(),
            min_key: None,
            min_hints: Vec::new(),
            priorities: PriorityTable::new(),
            tracker,
            requests_seen: 0,
        }
    }

    /// The usable capacity after the optional metadata charge.
    pub fn effective_capacity(&self) -> usize {
        self.capacity
    }

    /// The current priority `Pr(H)` of a hint set (zero if unknown).
    pub fn priority_of(&self, hint: HintSetId) -> f64 {
        self.priorities.priority(hint)
    }

    /// Number of completed priority-evaluation windows.
    pub fn windows_completed(&self) -> u64 {
        self.priorities.windows_completed()
    }

    /// Number of entries currently held in the outqueue.
    pub fn outqueue_len(&self) -> usize {
        self.outqueue.len()
    }

    /// The outqueue contents in FIFO order, for the differential tests.
    #[doc(hidden)]
    pub fn outqueue_snapshot(&self) -> Vec<(PageId, PageRecord)> {
        self.outqueue.snapshot()
    }

    /// The remembered record for `page` (cached or outqueue), for the
    /// differential tests.
    #[doc(hidden)]
    pub fn record_of(&self, page: PageId) -> Option<PageRecord> {
        self.cached
            .get(&page)
            .copied()
            .or_else(|| self.outqueue.get(page))
    }

    /// Replaces the current hint-set priorities exactly and rebuilds the
    /// victim index (same semantics as [`crate::Clic::import_priorities`]).
    pub fn import_priorities<I>(&mut self, snapshot: I)
    where
        I: IntoIterator<Item = (HintSetId, f64)>,
    {
        self.priorities.load_snapshot(snapshot);
        self.rebuild_victim_index();
    }

    /// Exports the current hint-set priorities as a snapshot.
    pub fn export_priorities(&self) -> Vec<(HintSetId, f64)> {
        self.priorities.iter().collect()
    }

    fn list_push(&mut self, hint: HintSetId, page: PageId) {
        let list = self.lists.entry(hint).or_default();
        let was_empty = list.is_empty();
        list.push_back(page);
        if was_empty {
            let key = priority_key(self.priorities.priority(hint));
            self.victim_index.insert((key, hint));
            match self.min_key {
                Some(min) if key > min => {}
                Some(min) if key == min => self.min_hints.push(hint),
                _ => {
                    self.min_key = Some(key);
                    self.min_hints.clear();
                    self.min_hints.push(hint);
                }
            }
        }
    }

    fn list_remove(&mut self, hint: HintSetId, page: PageId) {
        if let Some(list) = self.lists.get_mut(&hint) {
            list.remove(page);
            if list.is_empty() {
                let key = priority_key(self.priorities.priority(hint));
                self.victim_index.remove(&(key, hint));
                self.lists.remove(&hint);
                if self.min_key == Some(key) {
                    self.min_hints.retain(|&h| h != hint);
                    if self.min_hints.is_empty() {
                        self.rebuild_min_hints();
                    }
                }
            }
        }
    }

    fn rebuild_victim_index(&mut self) {
        self.victim_index = self
            .lists
            .keys()
            .map(|&hint| (priority_key(self.priorities.priority(hint)), hint))
            .collect();
        self.rebuild_min_hints();
    }

    fn rebuild_min_hints(&mut self) {
        self.min_hints.clear();
        self.min_key = self.victim_index.iter().next().map(|&(key, _)| key);
        if let Some(min_key) = self.min_key {
            self.min_hints.extend(
                self.victim_index
                    .range((min_key, HintSetId(0))..=(min_key, HintSetId(u32::MAX)))
                    .map(|&(_, hint)| hint),
            );
        }
    }

    fn find_victim(&self) -> Option<(f64, PageId, HintSetId)> {
        let min_key = self.min_key?;
        let mut best: Option<(u64, PageId, HintSetId)> = None;
        for &hint in &self.min_hints {
            let list = self.lists.get(&hint).expect("indexed hint set has a list");
            let page = list.front().expect("indexed list is non-empty");
            let seq = self
                .cached
                .get(&page)
                .expect("cached page has metadata")
                .seq;
            match best {
                Some((best_seq, _, _)) if best_seq <= seq => {}
                _ => best = Some((seq, page, hint)),
            }
        }
        best.map(|(_, page, hint)| (f64::from_bits(min_key), page, hint))
    }

    fn track_statistics(&mut self, req: &Request, seq: u64) {
        if req.is_read() {
            let previous = self
                .cached
                .get(&req.page)
                .copied()
                .or_else(|| self.outqueue.get(req.page));
            if let Some(prev) = previous {
                let distance = seq.saturating_sub(prev.seq);
                self.tracker
                    .as_dyn_mut()
                    .record_read_rereference(prev.hint, distance);
            }
        }
        self.tracker.as_dyn_mut().record_request(req.hint);
    }

    fn end_window(&mut self) {
        let window = self.tracker.as_dyn_mut().end_window();
        self.priorities.apply_window(&window, self.config.smoothing);
        self.rebuild_victim_index();
    }

    fn admit(&mut self, page: PageId, record: PageRecord) {
        self.outqueue.remove(page);
        self.cached.insert(page, record);
        self.list_push(record.hint, page);
    }

    fn evict_to_outqueue(&mut self, page: PageId, hint: HintSetId) {
        if let Some(record) = self.cached.remove(&page) {
            self.list_remove(hint, page);
            self.outqueue.insert(page, record);
        }
    }
}

impl CachePolicy for ReferenceClic {
    fn name(&self) -> String {
        match self.config.tracking {
            TrackingMode::Full => "CLIC-ref".to_string(),
            TrackingMode::TopK(k) => format!("CLIC-ref(k={k})"),
        }
    }

    // Same rationale as `Clic::capacity`: report the nominal size.
    #[allow(clippy::misnamed_getters)]
    fn capacity(&self) -> usize {
        self.nominal_capacity
    }

    fn access(&mut self, req: &Request, seq: u64) -> AccessOutcome {
        // 1. On-line hint analysis.
        self.track_statistics(req, seq);

        // 2. Cache management per Figure 4.
        let record = PageRecord {
            seq,
            hint: req.hint,
        };
        let outcome = if let Some(old) = self.cached.get(&req.page).copied() {
            if old.hint == req.hint {
                if let Some(list) = self.lists.get_mut(&req.hint) {
                    list.touch(req.page);
                }
            } else {
                self.list_remove(old.hint, req.page);
                self.list_push(req.hint, req.page);
            }
            self.cached.insert(req.page, record);
            AccessOutcome::hit()
        } else if self.cached.len() < self.capacity {
            self.admit(req.page, record);
            AccessOutcome::miss(0)
        } else {
            let new_priority = self.priorities.priority(req.hint);
            match self.find_victim() {
                Some((min_priority, victim_page, victim_hint)) if new_priority > min_priority => {
                    self.evict_to_outqueue(victim_page, victim_hint);
                    self.admit(req.page, record);
                    AccessOutcome::miss(1)
                }
                _ => {
                    self.outqueue.insert(req.page, record);
                    AccessOutcome::bypass()
                }
            }
        };

        // 3. Window accounting.
        self.requests_seen += 1;
        if self.requests_seen.is_multiple_of(self.config.window) {
            self.end_window();
        }
        outcome
    }

    fn contains(&self, page: PageId) -> bool {
        self.cached.contains_key(&page)
    }

    fn len(&self) -> usize {
        self.cached.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::ClientId;

    fn read(page: u64, hint: HintSetId) -> Request {
        Request::read(ClientId(0), PageId(page), hint)
    }

    #[test]
    fn reference_behaves_like_a_cache() {
        let mut clic = ReferenceClic::new(
            2,
            ClicConfig::default()
                .with_window(1000)
                .with_metadata_charging(false),
        );
        let h = HintSetId(0);
        assert!(!clic.access(&read(1, h), 0).hit);
        assert!(!clic.access(&read(2, h), 1).hit);
        assert!(clic.access(&read(1, h), 2).hit);
        // Full cache + unknown priorities: bypass.
        let out = clic.access(&read(3, h), 3);
        assert!(out.bypassed);
        assert_eq!(clic.outqueue_len(), 1);
        assert_eq!(clic.len(), 2);
        assert_eq!(clic.effective_capacity(), 2);
        assert!(clic.name().contains("ref"));
    }
}
