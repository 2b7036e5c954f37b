//! The hint-set priority table and its exponentially smoothed updates.
//!
//! At the end of every window CLIC converts the window's per-hint-set
//! statistics into raw priorities `P̂r(H)` (Equation 2) and folds them into
//! the working priorities with exponential smoothing (Equation 3):
//!
//! ```text
//! Pr(H)_i = r · P̂r(H)_i + (1 − r) · Pr(H)_{i−1}
//! ```
//!
//! Hint sets for which the window produced no statistics keep their previous
//! priority scaled by `(1 − r)` — with the paper's `r = 1` this means they
//! drop to zero, i.e. priorities are based entirely on the latest window.

use cache_sim::HintSetId;

use crate::stats::HintWindowStats;

/// Maps a non-negative priority to an integer key whose ordering matches the
/// float ordering, so hint-set priorities can be compared and indexed as
/// plain integers (the [`crate::page_table::PageTable`] victim index stores
/// these keys). Non-negative finite IEEE-754 doubles compare identically to
/// their bit patterns.
#[inline]
pub fn priority_key(priority: f64) -> u64 {
    debug_assert!(priority >= 0.0 && priority.is_finite());
    priority.to_bits()
}

/// The current caching priority `Pr(H)` of every known hint set.
///
/// Lookups sit on the policy's per-request path, so the table is indexed by
/// the dense [`HintSetId`]: one slot per id up to the largest recorded, an
/// unrecorded id reading zero. Which ids hold a *recorded* priority (the
/// ones [`PriorityTable::iter`] reports) is kept beside the priorities, off
/// the lookup path.
#[derive(Debug, Clone, Default)]
pub struct PriorityTable {
    priorities: Vec<f64>,
    recorded: Vec<bool>,
    recorded_len: usize,
    windows_completed: u64,
}

impl PriorityTable {
    /// Creates an empty table (every hint set starts at priority zero).
    pub fn new() -> Self {
        PriorityTable::default()
    }

    /// The current priority of `hint` (zero if never seen).
    #[inline]
    pub fn priority(&self, hint: HintSetId) -> f64 {
        self.priorities.get(hint.index()).copied().unwrap_or(0.0)
    }

    /// The current priority of `hint` as an order-preserving integer key
    /// (see [`priority_key`]).
    #[inline]
    pub fn key(&self, hint: HintSetId) -> u64 {
        priority_key(self.priority(hint))
    }

    /// Number of hint sets with a recorded (possibly zero) priority.
    pub fn len(&self) -> usize {
        self.recorded_len
    }

    /// Returns `true` if no priorities have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.recorded_len == 0
    }

    /// Number of windows that have been folded into the table.
    pub fn windows_completed(&self) -> u64 {
        self.windows_completed
    }

    /// The priority slot of `hint`, recording it (at zero) if it was not.
    fn slot(&mut self, hint: HintSetId) -> &mut f64 {
        let i = hint.index();
        if i >= self.priorities.len() {
            self.priorities.resize(i + 1, 0.0);
            self.recorded.resize(i + 1, false);
        }
        if !self.recorded[i] {
            self.recorded[i] = true;
            self.recorded_len += 1;
        }
        &mut self.priorities[i]
    }

    /// Folds one window's statistics into the table using smoothing factor
    /// `r` (Equation 3). Hint sets absent from `window` decay by `(1 − r)`.
    pub fn apply_window(&mut self, window: &[(HintSetId, HintWindowStats)], r: f64) {
        // First decay every existing priority (an unrecorded slot holds
        // zero and stays there); hint sets present in the new window will
        // have the `r · P̂r` term added below.
        if (r - 1.0).abs() > f64::EPSILON {
            for value in &mut self.priorities {
                *value *= 1.0 - r;
            }
        } else {
            self.priorities.fill(0.0);
        }
        for (hint, stats) in window {
            let fresh = stats.priority();
            *self.slot(*hint) += r * fresh;
        }
        self.windows_completed += 1;
    }

    /// Iterates over `(hint set, priority)` pairs of the recorded hint sets,
    /// in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (HintSetId, f64)> + '_ {
        self.priorities
            .iter()
            .zip(&self.recorded)
            .enumerate()
            .filter(|(_, (_, &recorded))| recorded)
            .map(|(i, (&p, _))| (HintSetId(i as u32), p))
    }

    /// Replaces the table's contents with `snapshot`, leaving the window
    /// counter untouched.
    ///
    /// Unlike [`PriorityTable::apply_window`], this installs the given
    /// priorities *exactly* — no smoothing, no decay of absent hint sets.
    /// [`ShardedClic`]-style deployments use it to push merged cross-shard
    /// priorities back into each shard; loading a table's own snapshot is a
    /// no-op.
    ///
    /// [`ShardedClic`]: https://docs.rs/clic-server
    pub fn load_snapshot<I>(&mut self, snapshot: I)
    where
        I: IntoIterator<Item = (HintSetId, f64)>,
    {
        self.forget();
        for (hint, priority) in snapshot {
            *self.slot(hint) = priority;
        }
    }

    /// Clears all priorities and the window counter.
    pub fn clear(&mut self) {
        self.forget();
        self.windows_completed = 0;
    }

    /// Drops every recorded priority.
    fn forget(&mut self) {
        self.priorities.clear();
        self.recorded.clear();
        self.recorded_len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(requests: u64, rerefs: u64, dist_sum: u64) -> HintWindowStats {
        HintWindowStats {
            requests,
            read_rereferences: rerefs,
            distance_sum: dist_sum,
        }
    }

    #[test]
    fn unknown_hints_have_zero_priority() {
        let table = PriorityTable::new();
        assert_eq!(table.priority(HintSetId(7)), 0.0);
        assert!(table.is_empty());
    }

    #[test]
    fn r_equal_one_uses_only_the_latest_window() {
        let mut table = PriorityTable::new();
        let h = HintSetId(1);
        table.apply_window(&[(h, stats(10, 5, 500))], 1.0);
        let first = table.priority(h);
        assert!(first > 0.0);
        // Second window: the hint set vanished; with r = 1 its priority must
        // drop to zero.
        table.apply_window(&[], 1.0);
        assert_eq!(table.priority(h), 0.0);
        assert_eq!(table.windows_completed(), 2);
    }

    #[test]
    fn smoothing_blends_old_and_new() {
        let mut table = PriorityTable::new();
        let h = HintSetId(1);
        // Window 1: priority 0.01 (fhit 0.5, D 50).
        table.apply_window(&[(h, stats(10, 5, 250))], 0.5);
        let p1 = table.priority(h);
        assert!((p1 - 0.5 * 0.01).abs() < 1e-12);
        // Window 2: no observations; priority halves.
        table.apply_window(&[], 0.5);
        assert!((table.priority(h) - p1 * 0.5).abs() < 1e-12);
        // Window 3: fresh priority 0.02 (fhit 1.0, D 50).
        table.apply_window(&[(h, stats(10, 10, 500))], 0.5);
        let expected = p1 * 0.25 + 0.5 * 0.02;
        assert!((table.priority(h) - expected).abs() < 1e-12);
    }

    #[test]
    fn multiple_hint_sets_are_ranked_sensibly() {
        let mut table = PriorityTable::new();
        let hot = HintSetId(1); // frequently and quickly re-referenced
        let warm = HintSetId(2); // re-referenced but slowly
        let cold = HintSetId(3); // never re-referenced
        table.apply_window(
            &[
                (hot, stats(100, 90, 90 * 20)),
                (warm, stats(100, 90, 90 * 2_000)),
                (cold, stats(100, 0, 0)),
            ],
            1.0,
        );
        assert!(table.priority(hot) > table.priority(warm));
        assert!(table.priority(warm) > table.priority(cold));
        assert_eq!(table.priority(cold), 0.0);
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn load_snapshot_replaces_contents_exactly() {
        let mut table = PriorityTable::new();
        table.apply_window(&[(HintSetId(1), stats(10, 5, 500))], 1.0);
        let windows = table.windows_completed();
        table.load_snapshot([(HintSetId(2), 0.25), (HintSetId(3), 0.5)]);
        assert_eq!(table.priority(HintSetId(1)), 0.0);
        assert_eq!(table.priority(HintSetId(2)), 0.25);
        assert_eq!(table.priority(HintSetId(3)), 0.5);
        assert_eq!(table.windows_completed(), windows);
        // Loading a table's own snapshot is a no-op.
        let snapshot: Vec<_> = table.iter().collect();
        table.load_snapshot(snapshot.clone());
        let mut after: Vec<_> = table.iter().collect();
        let mut before = snapshot;
        before.sort_by_key(|(h, _)| h.0);
        after.sort_by_key(|(h, _)| h.0);
        assert_eq!(before, after);
    }

    #[test]
    fn clear_resets_table() {
        let mut table = PriorityTable::new();
        table.apply_window(&[(HintSetId(1), stats(1, 1, 1))], 1.0);
        table.clear();
        assert!(table.is_empty());
        assert_eq!(table.windows_completed(), 0);
    }
}
