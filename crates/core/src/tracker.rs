//! Hint-set statistics trackers: the full hint table and the top-k variant.
//!
//! CLIC needs `N(H)`, `Nr(H)` and `D(H)` per hint set per window. The paper
//! describes two ways of maintaining them:
//!
//! * a **hint table** with one entry per distinct hint set ever observed
//!   (Section 3.1) — exact, but its size grows with the number of hint sets;
//! * a **top-k tracker** built on an adapted Space-Saving summary
//!   (Section 5) — bounded space, tracking only the most frequent hint sets
//!   and treating everything else as priority zero.
//!
//! Both implement [`HintStatsTracker`], so the policy and the experiments can
//! switch between them with a configuration flag.

use cache_sim::HintSetId;
use stream_stats::{DenseIndex, SpaceSaving};

use crate::stats::HintWindowStats;

/// Interface over the two statistics-tracking strategies.
pub trait HintStatsTracker {
    /// Records a request carrying `hint` (increments `N(H)`).
    fn record_request(&mut self, hint: HintSetId);

    /// Records that a request previously made with `hint` was read
    /// re-referenced at the given distance (increments `Nr(H)` and
    /// accumulates `D(H)`).
    fn record_read_rereference(&mut self, hint: HintSetId, distance: u64);

    /// Returns the statistics accumulated in the current window for every
    /// tracked hint set, then clears the window state.
    fn end_window(&mut self) -> Vec<(HintSetId, HintWindowStats)>;

    /// Number of hint sets currently tracked.
    fn tracked_len(&self) -> usize;

    /// An estimate of the number of bookkeeping entries this tracker may
    /// hold at once (`usize::MAX` for the unbounded full tracker); used by
    /// the space-accounting experiments.
    fn space_bound(&self) -> usize;

    /// Forgets all state.
    fn clear(&mut self);
}

/// The unbounded hint table: one [`HintWindowStats`] entry per distinct hint
/// set observed during the current window.
///
/// The table sits on the per-request path, so it is indexed by the dense
/// [`HintSetId`] (one entry per id up to the largest seen) and lists the
/// ids it touched this window, which is what `end_window` reports and
/// resets — in first-touch order, which is harmless: each hint set's new
/// priority depends on its own statistics only.
#[derive(Debug, Clone, Default)]
pub struct FullTracker {
    table: Vec<HintWindowStats>,
    touched: Vec<HintSetId>,
}

impl FullTracker {
    /// Creates an empty hint table.
    pub fn new() -> Self {
        FullTracker::default()
    }

    /// `hint`'s statistics this window, noting the hint as touched the
    /// first time. An entry is untouched exactly while it is all zero:
    /// every record raises a count.
    #[inline]
    fn entry(&mut self, hint: HintSetId) -> &mut HintWindowStats {
        let i = hint.index();
        if i >= self.table.len() {
            self.table.resize(i + 1, HintWindowStats::default());
        }
        let stats = &mut self.table[i];
        if stats.requests == 0 && stats.read_rereferences == 0 {
            self.touched.push(hint);
        }
        stats
    }
}

impl HintStatsTracker for FullTracker {
    fn record_request(&mut self, hint: HintSetId) {
        self.entry(hint).record_request();
    }

    fn record_read_rereference(&mut self, hint: HintSetId, distance: u64) {
        self.entry(hint).record_read_rereference(distance);
    }

    fn end_window(&mut self) -> Vec<(HintSetId, HintWindowStats)> {
        let table = &mut self.table;
        self.touched
            .drain(..)
            .map(|hint| (hint, std::mem::take(&mut table[hint.index()])))
            .collect()
    }

    fn tracked_len(&self) -> usize {
        self.touched.len()
    }

    fn space_bound(&self) -> usize {
        usize::MAX
    }

    fn clear(&mut self) {
        self.end_window();
    }
}

/// Auxiliary per-hint-set counters carried inside the Space-Saving summary:
/// the re-reference count and distance accumulator that the paper adds to the
/// algorithm (Section 5). They are reset whenever the summary recycles a
/// counter for a different hint set, exactly as specified.
#[derive(Debug, Clone, Copy, Default)]
struct RereferenceAux {
    read_rereferences: u64,
    distance_sum: u64,
}

/// The bounded tracker: an adapted Space-Saving summary over hint sets.
///
/// `N(H)` is taken as the summary's *guaranteed* count (estimate minus error
/// bound), `Nr(H)` and the distance sum are only accumulated while `H` is
/// being monitored, and hint sets that are not monitored report no
/// statistics at all (hence priority zero), all as described in the paper.
/// The summary reaches a hint set's counter through a [`DenseIndex`] on its
/// id; its recycling tie rule does not depend on the index.
#[derive(Debug, Clone)]
pub struct TopKTracker {
    summary: SpaceSaving<HintSetId, RereferenceAux, DenseIndex>,
    k: usize,
}

impl TopKTracker {
    /// Creates a tracker monitoring at most `k` hint sets.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        TopKTracker {
            summary: SpaceSaving::with_index(k, DenseIndex::default()),
            k,
        }
    }

    /// The configured `k`.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl HintStatsTracker for TopKTracker {
    fn record_request(&mut self, hint: HintSetId) {
        self.summary.observe(hint);
    }

    fn record_read_rereference(&mut self, hint: HintSetId, distance: u64) {
        // Only counted while the hint set is being monitored (paper, Sec. 5).
        if let Some(aux) = self.summary.aux_mut(&hint) {
            aux.read_rereferences += 1;
            aux.distance_sum += distance;
        }
    }

    fn end_window(&mut self) -> Vec<(HintSetId, HintWindowStats)> {
        let out: Vec<(HintSetId, HintWindowStats)> = self
            .summary
            .entries()
            .into_iter()
            .map(|(hint, estimate, aux)| {
                (
                    hint,
                    HintWindowStats {
                        // N(H): frequency estimate minus its error bound.
                        requests: estimate.guaranteed(),
                        read_rereferences: aux.read_rereferences,
                        distance_sum: aux.distance_sum,
                    },
                )
            })
            .collect();
        // The Space-Saving state is restarted from scratch every window.
        self.summary.clear();
        out
    }

    fn tracked_len(&self) -> usize {
        self.summary.len()
    }

    fn space_bound(&self) -> usize {
        self.k
    }

    fn clear(&mut self) {
        self.summary.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(id: u32) -> HintSetId {
        HintSetId(id)
    }

    #[test]
    fn full_tracker_counts_exactly() {
        let mut t = FullTracker::new();
        for _ in 0..10 {
            t.record_request(h(1));
        }
        for _ in 0..3 {
            t.record_request(h(2));
        }
        t.record_read_rereference(h(1), 100);
        t.record_read_rereference(h(1), 200);
        let mut window = t.end_window();
        window.sort_by_key(|(hint, _)| hint.0);
        assert_eq!(window.len(), 2);
        assert_eq!(window[0].1.requests, 10);
        assert_eq!(window[0].1.read_rereferences, 2);
        assert_eq!(window[0].1.distance_sum, 300);
        assert_eq!(window[1].1.requests, 3);
        // Window state is cleared afterwards.
        assert_eq!(t.tracked_len(), 0);
        assert_eq!(t.space_bound(), usize::MAX);
    }

    #[test]
    fn topk_tracker_keeps_frequent_hints() {
        let mut t = TopKTracker::new(2);
        // Hint 1 dominates; hints 2..20 are noise.
        for i in 0..1000u32 {
            t.record_request(h(1));
            t.record_request(h(2 + (i % 19)));
            t.record_read_rereference(h(1), 10);
        }
        assert!(t.tracked_len() <= 2);
        assert_eq!(t.space_bound(), 2);
        let window = t.end_window();
        let hot = window
            .iter()
            .find(|(hint, _)| *hint == h(1))
            .expect("the dominant hint set must be monitored");
        assert!(
            hot.1.requests >= 900,
            "guaranteed count should be close to 1000"
        );
        assert_eq!(hot.1.read_rereferences, 1000);
        // State restarts after the window.
        assert_eq!(t.tracked_len(), 0);
    }

    #[test]
    fn topk_ignores_rereferences_for_unmonitored_hints() {
        let mut t = TopKTracker::new(1);
        t.record_request(h(1));
        // Hint 2 is never requested, so it is not monitored; its
        // re-references must be dropped rather than attributed elsewhere.
        t.record_read_rereference(h(2), 5);
        let window = t.end_window();
        assert_eq!(window.len(), 1);
        assert_eq!(window[0].0, h(1));
        assert_eq!(window[0].1.read_rereferences, 0);
    }

    #[test]
    fn topk_aux_resets_when_counter_is_recycled() {
        let mut t = TopKTracker::new(1);
        t.record_request(h(1));
        t.record_read_rereference(h(1), 42);
        // Hint 2 steals the only counter; its aux must start fresh.
        t.record_request(h(2));
        t.record_read_rereference(h(2), 7);
        let window = t.end_window();
        assert_eq!(window.len(), 1);
        assert_eq!(window[0].0, h(2));
        assert_eq!(window[0].1.read_rereferences, 1);
        assert_eq!(window[0].1.distance_sum, 7);
    }

    #[test]
    fn clear_resets_both_trackers() {
        let mut full = FullTracker::new();
        full.record_request(h(1));
        full.clear();
        assert_eq!(full.tracked_len(), 0);

        let mut topk = TopKTracker::new(4);
        topk.record_request(h(1));
        topk.clear();
        assert_eq!(topk.tracked_len(), 0);
    }
}
