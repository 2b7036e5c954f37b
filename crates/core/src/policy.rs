//! The CLIC replacement policy (Figure 4 of the paper) together with the
//! on-line hint analysis that feeds it.

use cache_sim::policy::{AccessOutcome, CachePolicy};
use cache_sim::{HintSetId, PageId, Request};

use crate::config::{ClicConfig, TrackingMode};
use crate::page_table::{PageRecord, PageTable, SearchWork};
use crate::priority::PriorityTable;
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

/// The CLIC storage-server cache policy.
///
/// `Clic` implements [`CachePolicy`], so it can be driven by
/// [`cache_sim::simulate`] exactly like the baseline policies. Internally it
/// follows the paper:
///
/// * per-request statistics tracking over the cache contents plus a bounded
///   outqueue of recently seen but uncached pages (Section 3.1),
/// * windowed priority re-evaluation with exponential smoothing
///   (Section 3.2),
/// * the priority-based replacement rule of Figure 4, implemented on the
///   slab-backed [`PageTable`]: one open-addressed lookup resolves a page to
///   its shared cached/outqueue record, intrusive per-hint lists provide the
///   recency order, and a memoized minimum over per-list priority keys
///   identifies the victim — one hashed page lookup per request in the
///   common case,
/// * optional top-k hint tracking (Section 5).
///
/// Every per-hint-set table — priorities, window statistics, the top-k
/// summary's index and the hint lists — is indexed by [`HintSetId`], so a
/// request's hint-set state is read by index, never by hash. Hint-set ids
/// must therefore be dense catalog indices, as a [`cache_sim::HintCatalog`]
/// hands them out: each table holds one entry per id up to the largest it
/// has seen, so a stray id of a billion costs a billion entries. Hints that
/// arrive from untrusted clients are interned into such ids first; in this
/// workspace only `clic-server`'s `Server` accepts wire hint ids.
///
/// The policy also overrides [`CachePolicy::access_batch`] so drivers can
/// replay whole chunks with a single (statically dispatched) call. The
/// batched path additionally warms the page table ahead of itself in small
/// groups — Fibonacci hashes are precomputed and the index buckets and slab
/// slots software-prefetched ([`PageTable::prefetch_group`]) before the
/// group is applied — and remains behaviourally identical to per-request
/// access (prefetching is a pure hint).
///
/// Behaviour (hits, admissions, evictions, bypasses) is contractually
/// bit-identical to the retained pre-refactor implementation,
/// [`crate::ReferenceClic`]; the differential property tests enforce this on
/// random hinted traces.
#[derive(Debug)]
pub struct Clic {
    nominal_capacity: usize,
    capacity: usize,
    config: ClicConfig,
    /// All per-page state: the cached/outqueue slab, the per-hint intrusive
    /// lists, and the min-priority victim index.
    table: PageTable,
    priorities: PriorityTable,
    tracker: Tracker,
    requests_seen: u64,
    /// Eviction-identity log for data-plane drivers; `None` until enabled
    /// via [`CachePolicy::record_evictions`]. Only *cache* evictions are
    /// logged — outqueue drops are metadata-only and never hold a frame.
    evicted_log: Option<Vec<PageId>>,
}

impl Clic {
    /// Creates a CLIC cache with the given nominal capacity (in pages) and
    /// configuration.
    ///
    /// If [`ClicConfig::charge_metadata`] is set (the default, matching the
    /// paper), the usable capacity is reduced by the configured metadata
    /// overhead so that CLIC competes with the baselines at equal total
    /// space.
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
        Clic {
            nominal_capacity: capacity,
            capacity: effective,
            table: PageTable::new(effective, config.outqueue_entries(effective)),
            config,
            priorities: PriorityTable::new(),
            tracker,
            requests_seen: 0,
            evicted_log: None,
        }
    }

    /// The configuration this instance was built with.
    pub fn config(&self) -> &ClicConfig {
        &self.config
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
        self.table.outqueue_len()
    }

    /// The outqueue contents in FIFO order, for the differential tests.
    #[doc(hidden)]
    pub fn outqueue_snapshot(&self) -> Vec<(PageId, PageRecord)> {
        self.table.outqueue_snapshot()
    }

    /// The remembered record for `page` (cached or outqueue), for the
    /// differential tests.
    #[doc(hidden)]
    pub fn record_of(&self, page: PageId) -> Option<PageRecord> {
        self.table.find(page).map(|(_, record, _)| record)
    }

    /// Total number of requests this instance has processed.
    pub fn requests_seen(&self) -> u64 {
        self.requests_seen
    }

    /// The victim index's work so far: hint lists visited by victim
    /// searches and scanned by minimum-key rebuilds (see [`SearchWork`]).
    pub fn search_work(&self) -> SearchWork {
        self.table.search_work()
    }

    /// Exports the current hint-set priorities as a snapshot.
    ///
    /// Together with [`Clic::import_priorities`] this is the building block
    /// for *cross-shard priority merging*: a sharded deployment runs one
    /// `Clic` per shard, periodically exports every shard's priorities,
    /// merges them (for example by request-weighted averaging), and imports
    /// the merged snapshot back into each shard so that hint learning is not
    /// fragmented across shards.
    pub fn export_priorities(&self) -> Vec<(HintSetId, f64)> {
        self.priorities.iter().collect()
    }

    /// Replaces the current hint-set priorities with `snapshot` *exactly*
    /// (no smoothing, no window accounting) and rebuilds the victim index.
    ///
    /// Importing a cache's own [`Clic::export_priorities`] snapshot leaves
    /// its behaviour unchanged; see `export_priorities` for the cross-shard
    /// merge protocol this pair implements. Imported priorities survive
    /// window boundaries the same way organically learned ones do — the next
    /// re-evaluation folds them into the usual Equation 3 smoothing.
    pub fn import_priorities<I>(&mut self, snapshot: I)
    where
        I: IntoIterator<Item = (HintSetId, f64)>,
    {
        self.priorities.load_snapshot(snapshot);
        self.rebuild_victim_index();
    }

    /// Returns, for each hint set with at least one cached page, the number
    /// of pages it currently holds in the cache. Useful for diagnostics and
    /// for the cache-composition ablation.
    pub fn cache_composition(&self) -> Vec<(HintSetId, usize)> {
        self.table.composition()
    }

    /// Invalidates `page`: drops it from the cache (or the outqueue) without
    /// remembering it, returning whether it was cached. A delete is not an
    /// access — statistics, windows, and the hint tracker are untouched, and
    /// no ghost entry survives to bias a future re-admission of the same
    /// page id.
    pub fn invalidate(&mut self, page: PageId) -> bool {
        self.table.remove(page) == Some(true)
    }

    /// Rebuilds the per-hint priority keys (and the victim minimum) after
    /// priorities change at a window boundary or snapshot import.
    fn rebuild_victim_index(&mut self) {
        let Clic {
            table, priorities, ..
        } = self;
        table.refresh_keys(|hint| priorities.key(hint));
    }

    /// Finds the eviction victim per Figure 4: the minimum-priority hint set,
    /// breaking ties by the smallest sequence number among those hint sets'
    /// oldest pages. Returns `(priority, page, hint)`. (The access path uses
    /// [`PageTable::find_victim`] directly for its slot handle; this wrapper
    /// serves the unit tests.)
    #[cfg(test)]
    fn find_victim(&mut self) -> Option<(f64, PageId, HintSetId)> {
        self.table
            .find_victim()
            .map(|victim| (victim.priority, victim.page, victim.hint))
    }

    /// Window boundary: convert the tracker's statistics into new priorities
    /// (Equations 2 and 3) and rebuild the victim index.
    fn end_window(&mut self) {
        let window = self.tracker.as_dyn_mut().end_window();
        self.priorities.apply_window(&window, self.config.smoothing);
        self.rebuild_victim_index();
    }

    /// The per-request pipeline shared by [`CachePolicy::access`] and
    /// [`CachePolicy::access_batch`] (statically dispatched from the batch
    /// loop).
    fn access_one(&mut self, req: &Request, seq: u64) -> AccessOutcome {
        // One hashed lookup resolves the page to its record wherever it
        // lives (cache or outqueue); everything below reuses it.
        let found = self.table.find(req.page);

        // 1. On-line hint analysis (Section 3.1): detect read re-references,
        // then count the request itself.
        if req.is_read() {
            if let Some((_, prev, _)) = found {
                let distance = seq.saturating_sub(prev.seq);
                self.tracker
                    .as_dyn_mut()
                    .record_read_rereference(prev.hint, distance);
            }
        }
        self.tracker.as_dyn_mut().record_request(req.hint);

        // 2. Cache management per Figure 4.
        let record = PageRecord {
            seq,
            hint: req.hint,
        };
        let outcome = match found {
            Some((slot, _, true)) => {
                // Lines 23-25: refresh seq(p) and H(p); the most recent
                // request always determines the page's caching priority.
                let Clic {
                    table, priorities, ..
                } = self;
                table.record_hit(slot, seq, req.hint, || priorities.key(req.hint));
                AccessOutcome::hit()
            }
            _ if self.table.cached_len() < self.capacity => {
                // Lines 2-5: the cache has room. Nothing mutated since the
                // lookup, so the found outqueue slot (if any) is re-used
                // without a second probe.
                let slot = found.map(|(slot, ..)| slot);
                let Clic {
                    table, priorities, ..
                } = self;
                table.admit_resolved(slot, req.page, record, || priorities.key(req.hint));
                AccessOutcome::miss(0)
            }
            _ => {
                // Lines 6-22: full cache; compare priorities.
                let new_priority = self.priorities.priority(req.hint);
                match self.table.find_victim() {
                    Some(victim) if new_priority > victim.priority => {
                        if let Some(log) = self.evicted_log.as_mut() {
                            log.push(victim.page);
                        }
                        self.table.evict_slot_to_outqueue(victim.slot);
                        // The eviction may have dropped the requested page's
                        // own outqueue slot (outqueue overflow), so this
                        // path must re-probe rather than trust `found`.
                        let Clic {
                            table, priorities, ..
                        } = self;
                        table.admit(req.page, record, || priorities.key(req.hint));
                        AccessOutcome::miss(1)
                    }
                    _ => {
                        // Lines 19-22: do not cache p; remember it in the
                        // outqueue instead (slot re-used, no second probe:
                        // find_victim moves no slot).
                        let slot = found.map(|(slot, ..)| slot);
                        self.table.outqueue_insert_resolved(slot, req.page, record);
                        AccessOutcome::bypass()
                    }
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
}

impl CachePolicy for Clic {
    fn name(&self) -> String {
        match self.config.tracking {
            TrackingMode::Full => "CLIC".to_string(),
            TrackingMode::TopK(k) => format!("CLIC(k={k})"),
        }
    }

    // The nominal capacity is deliberate: the policy competes at the size it
    // was configured with; the metadata charge is an internal reduction.
    #[allow(clippy::misnamed_getters)]
    fn capacity(&self) -> usize {
        self.nominal_capacity
    }

    fn access(&mut self, req: &Request, seq: u64) -> AccessOutcome {
        self.access_one(req, seq)
    }

    fn record_evictions(&mut self, enabled: bool) -> bool {
        if enabled {
            self.evicted_log.get_or_insert_with(Vec::new);
        } else {
            self.evicted_log = None;
        }
        true
    }

    fn drain_evictions(&mut self, out: &mut Vec<PageId>) {
        if let Some(log) = self.evicted_log.as_mut() {
            out.append(log);
        }
    }

    fn access_batch(
        &mut self,
        reqs: &[Request],
        first_seq: u64,
        outcomes: &mut Vec<AccessOutcome>,
    ) {
        // Two-pass group structure: for each small group of requests,
        // precompute the Fibonacci hashes and software-prefetch the index
        // buckets and slab slots (PageTable::prefetch_group), then apply the
        // requests. Prefetching is a pure hint, so outcomes stay identical
        // to per-request access; the batched-vs-sequential unit test and the
        // differential suite against ReferenceClic both run over this path.
        const PREFETCH_GROUP: usize = 16;
        let mut pages = [PageId(0); PREFETCH_GROUP];
        outcomes.reserve(reqs.len());
        let mut seq = first_seq;
        for group in reqs.chunks(PREFETCH_GROUP) {
            for (page, req) in pages.iter_mut().zip(group) {
                *page = req.page;
            }
            self.table.prefetch_group(&pages[..group.len()]);
            for req in group {
                outcomes.push(self.access_one(req, seq));
                seq += 1;
            }
        }
    }

    fn contains(&self, page: PageId) -> bool {
        self.table.contains(page)
    }

    fn len(&self) -> usize {
        self.table.cached_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{simulate, AccessKind, ClientId, TraceBuilder};

    fn read(page: u64, hint: HintSetId) -> Request {
        Request::read(ClientId(0), PageId(page), hint)
    }

    fn write(page: u64, hint: HintSetId) -> Request {
        Request::write(ClientId(0), PageId(page), None, hint)
    }

    fn small_config(window: u64) -> ClicConfig {
        ClicConfig::default()
            .with_window(window)
            .with_metadata_charging(false)
    }

    #[test]
    fn fills_cache_before_applying_priorities() {
        let mut clic = Clic::new(2, small_config(1000));
        let h = HintSetId(0);
        assert!(!clic.access(&read(1, h), 0).hit);
        assert!(!clic.access(&read(2, h), 1).hit);
        assert_eq!(clic.len(), 2);
        assert!(clic.access(&read(1, h), 2).hit);
    }

    #[test]
    fn unknown_priorities_lead_to_bypass_when_full() {
        // All hint sets start at priority zero; a full cache therefore
        // bypasses new pages (Pr(H) > m is false when both are zero).
        let mut clic = Clic::new(2, small_config(1_000_000));
        let h = HintSetId(0);
        clic.access(&read(1, h), 0);
        clic.access(&read(2, h), 1);
        let out = clic.access(&read(3, h), 2);
        assert!(out.bypassed);
        assert!(!clic.contains(PageId(3)));
        assert!(clic.contains(PageId(1)));
        assert_eq!(clic.outqueue_len(), 1);
    }

    #[test]
    fn learns_to_prefer_rereferenced_hint_sets() {
        // Hint A pages are re-read shortly after being written; hint B pages
        // never are. After one window CLIC must prioritize hint A.
        let config = small_config(200);
        let mut clic = Clic::new(8, config);
        let hint_a = HintSetId(1);
        let hint_b = HintSetId(2);
        let mut seq = 0u64;
        for round in 0..300u64 {
            let a_page = 100 + (round % 20);
            let b_page = 10_000 + round;
            clic.access(&write(a_page, hint_a), seq);
            seq += 1;
            clic.access(&write(b_page, hint_b), seq);
            seq += 1;
            clic.access(&read(a_page, hint_a), seq);
            seq += 1;
        }
        assert!(clic.windows_completed() >= 1);
        assert!(
            clic.priority_of(hint_a) > clic.priority_of(hint_b),
            "hint A ({}) must outrank hint B ({})",
            clic.priority_of(hint_a),
            clic.priority_of(hint_b)
        );
        // The cache should now be dominated by hint-A pages.
        let a_cached = (0..20u64)
            .filter(|i| clic.contains(PageId(100 + i)))
            .count();
        assert!(
            a_cached >= 6,
            "expected hint-A pages to fill the cache, got {a_cached}"
        );
    }

    #[test]
    fn eviction_log_reports_exactly_the_evicted_pages() {
        // Hot pages earn a high priority; once the cache is full, each new
        // hot page evicts the cold resident with the lowest priority. The
        // log must name exactly the pages that left the cache, in order.
        let config = small_config(100);
        let mut clic = Clic::new(4, config);
        assert!(clic.record_evictions(true));
        let hot = HintSetId(1);
        let cold = HintSetId(2);
        let mut seq = 0u64;
        let mut admissions = 0i64;
        let mut evictions_reported = 0i64;
        let mut step = |clic: &mut Clic, req: &Request, seq: u64| {
            let out = clic.access(req, seq);
            if !out.hit && !out.bypassed {
                admissions += 1;
            }
            evictions_reported += i64::from(out.evicted);
        };
        for round in 0..200u64 {
            let hot_page = 100 + (round % 3);
            step(&mut clic, &write(hot_page, hot), seq);
            seq += 1;
            step(&mut clic, &read(hot_page, hot), seq);
            seq += 1;
            step(&mut clic, &read(10_000 + round, cold), seq);
            seq += 1;
        }
        let mut evicted = Vec::new();
        clic.drain_evictions(&mut evicted);
        assert!(evictions_reported > 0, "the workload must force evictions");
        assert_eq!(
            evicted.len() as i64,
            evictions_reported,
            "the log must name exactly as many pages as the outcomes counted"
        );
        // Admissions that were not evicted are still cached, and every
        // logged page has really left the cache.
        assert_eq!(admissions - evictions_reported, clic.len() as i64);
        for page in &evicted {
            assert!(
                !clic.contains(*page),
                "logged page {page:?} is still cached"
            );
        }
        // A second drain is empty; disabling stops the recording.
        evicted.clear();
        clic.drain_evictions(&mut evicted);
        assert!(evicted.is_empty());
        clic.record_evictions(false);
        for round in 0..50u64 {
            clic.access(&read(20_000 + round, cold), seq);
            seq += 1;
        }
        clic.drain_evictions(&mut evicted);
        assert!(evicted.is_empty());
    }

    #[test]
    fn end_to_end_beats_lru_when_hints_are_informative() {
        use cache_sim::policies::Lru;

        // Build a trace where the useful signal is entirely in the hint set:
        // "loop" pages are revisited with a reuse distance larger than the
        // cache, while "scan" pages are never revisited. LRU cannot tell them
        // apart; CLIC can.
        let mut b = TraceBuilder::new();
        let client = b.add_client("db", &[("class", 2)]);
        let loop_hint = b.intern_hints(client, &[0]);
        let scan_hint = b.intern_hints(client, &[1]);
        let loop_pages = 64u64;
        for round in 0..2_000u64 {
            let lp = round % loop_pages;
            b.push(client, lp, AccessKind::Read, None, loop_hint);
            for s in 0..3u64 {
                b.push(
                    client,
                    1_000_000 + round * 3 + s,
                    AccessKind::Read,
                    None,
                    scan_hint,
                );
            }
        }
        let trace = b.build();

        let mut clic = Clic::new(48, small_config(2_000));
        let mut lru = Lru::new(48);
        let clic_res = simulate(&mut clic, &trace);
        let lru_res = simulate(&mut lru, &trace);
        assert!(
            clic_res.read_hit_ratio() > lru_res.read_hit_ratio() + 0.1,
            "CLIC {:.3} should clearly beat LRU {:.3}",
            clic_res.read_hit_ratio(),
            lru_res.read_hit_ratio()
        );
    }

    #[test]
    fn topk_mode_matches_full_mode_with_few_hint_sets() {
        // With only a handful of hint sets, tracking the top 8 must behave
        // like full tracking.
        let mut b = TraceBuilder::new();
        let client = b.add_client("db", &[("class", 4)]);
        let hints: Vec<HintSetId> = (0..4).map(|v| b.intern_hints(client, &[v])).collect();
        for round in 0..3_000u64 {
            let hint = hints[(round % 4) as usize];
            let page = (round % 4) * 1000 + (round % 37);
            b.push(client, page, AccessKind::Read, None, hint);
        }
        let trace = b.build();

        let full = {
            let mut c = Clic::new(32, small_config(500));
            simulate(&mut c, &trace).read_hit_ratio()
        };
        let topk = {
            let cfg = small_config(500).with_tracking(TrackingMode::TopK(8));
            let mut c = Clic::new(32, cfg);
            simulate(&mut c, &trace).read_hit_ratio()
        };
        assert!(
            (full - topk).abs() < 0.02,
            "full {full:.3} and top-k {topk:.3} should agree when k covers all hint sets"
        );
    }

    #[test]
    fn victim_is_oldest_page_of_lowest_priority_hint_set() {
        let mut clic = Clic::new(3, small_config(10));
        let low = HintSetId(1);
        let high = HintSetId(2);
        let mut seq = 0u64;
        // Teach CLIC that `high` pages are re-read quickly and `low` pages
        // are not: pages 1..3 (low) written then never read; pages 50..52
        // (high) written then read.
        for i in 0..30u64 {
            clic.access(&write(500 + i, low), seq);
            seq += 1;
            clic.access(&write(50 + (i % 3), high), seq);
            seq += 1;
            clic.access(&read(50 + (i % 3), high), seq);
            seq += 1;
        }
        assert!(clic.priority_of(high) > clic.priority_of(low));
        // Now fill the cache with low pages (they were admitted while the
        // cache had room) and check that a high-priority page displaces the
        // *oldest* low page.
        let len_before = clic.len();
        assert_eq!(len_before, 3);
        let victim = clic.find_victim().expect("cache is full");
        let new_page = 999u64;
        let out = clic.access(&write(new_page, high), seq);
        if !out.hit && !out.bypassed {
            assert!(
                !clic.contains(victim.1),
                "the reported victim must be evicted"
            );
            assert!(clic.contains(PageId(new_page)));
        }
    }

    #[test]
    fn metadata_charge_reduces_usable_capacity() {
        let charged = Clic::new(1000, ClicConfig::default());
        assert_eq!(charged.capacity(), 1000);
        assert_eq!(charged.effective_capacity(), 990);
        let free = Clic::new(1000, ClicConfig::default().with_metadata_charging(false));
        assert_eq!(free.effective_capacity(), 1000);
    }

    #[test]
    fn writes_update_page_hint_and_sequence() {
        let mut clic = Clic::new(4, small_config(1000));
        let a = HintSetId(1);
        let b = HintSetId(2);
        clic.access(&read(1, a), 0);
        // A later write with a different hint set re-labels the cached page.
        assert!(clic.access(&write(1, b), 1).hit);
        // The page now lives in hint set b's list; evicting by priority uses b.
        assert_eq!(clic.len(), 1);
        assert!(clic.contains(PageId(1)));
        let victim = clic.find_victim().unwrap();
        assert_eq!(victim.2, b);
    }

    #[test]
    fn search_work_is_pinned_on_a_fixed_trace() {
        // A full cache over one hot and eight cold hint sets: every miss
        // searches for a victim and every window rebuilds the minimum.
        // The counts are deterministic; a change to the victim index's
        // work moves them.
        let mut clic = Clic::new(16, small_config(64));
        let hot = HintSetId(0);
        let mut seq = 0u64;
        for round in 0..100u64 {
            clic.access(&read(round % 8, hot), seq);
            let cold = HintSetId(1 + (round % 8) as u32);
            clic.access(&read(1_000 + round, cold), seq + 1);
            seq += 2;
        }
        assert_eq!(clic.windows_completed(), 3);
        // Three window rebuilds over the nine lists, and no other: the
        // minimum never ran out of lists between windows.
        assert_eq!(
            clic.search_work(),
            SearchWork {
                lists_visited: 760,
                lists_scanned: 3 * 9,
            }
        );
    }

    #[test]
    fn clic_is_send() {
        // The server crate moves Clic instances across shard worker threads.
        fn assert_send<T: Send>() {}
        assert_send::<Clic>();
    }

    #[test]
    fn importing_own_priority_snapshot_is_a_noop() {
        let mut clic = Clic::new(8, small_config(100));
        let hint_a = HintSetId(1);
        let hint_b = HintSetId(2);
        let mut seq = 0u64;
        for round in 0..200u64 {
            clic.access(&write(100 + (round % 10), hint_a), seq);
            seq += 1;
            clic.access(&read(100 + (round % 10), hint_a), seq);
            seq += 1;
            clic.access(&write(10_000 + round, hint_b), seq);
            seq += 1;
        }
        assert!(clic.priority_of(hint_a) > 0.0);
        let snapshot = clic.export_priorities();
        let victim_before = clic.find_victim();
        clic.import_priorities(snapshot.clone());
        assert_eq!(clic.find_victim(), victim_before);
        for (hint, priority) in snapshot {
            assert_eq!(clic.priority_of(hint), priority);
        }
        // An imported foreign priority takes effect immediately.
        let foreign = HintSetId(9);
        clic.import_priorities([(foreign, 123.0)]);
        assert_eq!(clic.priority_of(foreign), 123.0);
        assert_eq!(clic.priority_of(hint_a), 0.0);
    }

    #[test]
    fn storage_invariants_hold_under_churn() {
        // Drive a mixed workload (multiple hint sets, evictions, bypasses,
        // window boundaries) and run the page table's full invariant check —
        // including the memoized victim minimum against a fresh scan — after
        // every request.
        let mut clic = Clic::new(6, small_config(50));
        for round in 0..600u64 {
            let hint = HintSetId((round % 4) as u32);
            let page = (round % 3) * 1000 + (round % 17);
            if round % 5 == 0 {
                clic.access(&write(page, hint), round);
            } else {
                clic.access(&read(page, hint), round);
            }
            clic.table.validate();
        }
    }

    #[test]
    fn batched_access_is_identical_to_sequential_access() {
        // The same mixed workload replayed per-request and in ragged batch
        // sizes must produce identical outcomes and identical end state.
        let mut reqs = Vec::new();
        for round in 0..700u64 {
            let hint = HintSetId((round % 3) as u32);
            let page = (round % 4) * 500 + (round % 23);
            if round % 4 == 0 {
                reqs.push(write(page, hint));
            } else {
                reqs.push(read(page, hint));
            }
        }
        let mut sequential = Clic::new(8, small_config(64));
        let mut batched = Clic::new(8, small_config(64));
        let mut expected = Vec::new();
        for (i, req) in reqs.iter().enumerate() {
            expected.push(sequential.access(req, i as u64));
        }
        let mut got = Vec::new();
        let mut first_seq = 0u64;
        for (i, chunk) in reqs.chunks(17).enumerate() {
            let mut outcomes = Vec::new();
            // Ragged sizes: alternate full and split chunks.
            if i % 2 == 0 {
                batched.access_batch(chunk, first_seq, &mut outcomes);
            } else {
                let (a, b) = chunk.split_at(chunk.len() / 2);
                batched.access_batch(a, first_seq, &mut outcomes);
                batched.access_batch(b, first_seq + a.len() as u64, &mut outcomes);
            }
            first_seq += chunk.len() as u64;
            got.extend(outcomes);
        }
        assert_eq!(expected, got);
        assert_eq!(sequential.len(), batched.len());
        assert_eq!(sequential.outqueue_len(), batched.outqueue_len());
        assert_eq!(sequential.windows_completed(), batched.windows_completed());
    }

    #[test]
    fn outqueue_is_bounded_by_config() {
        let cfg = small_config(1_000_000).with_outqueue_factor(2.0);
        let mut clic = Clic::new(4, cfg);
        let h = HintSetId(0);
        for i in 0..100u64 {
            clic.access(&read(i, h), i);
        }
        // Cache holds 4 pages; outqueue is bounded at 2 * 4 = 8 entries.
        assert!(clic.outqueue_len() <= 8);
        assert_eq!(clic.len(), 4);
    }
}
