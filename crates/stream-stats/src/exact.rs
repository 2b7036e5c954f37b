//! Exact frequency counting, the ground truth the property tests check the
//! approximate Space-Saving summary against.

use std::collections::HashMap;
use std::hash::Hash;

/// A plain hash-map counter: unbounded space, exact answers.
#[derive(Debug, Clone, Default)]
pub struct ExactCounter<T = u64>
where
    T: Eq + Hash + Clone,
{
    counts: HashMap<T, u64>,
    observations: u64,
}

impl<T> ExactCounter<T>
where
    T: Eq + Hash + Clone,
{
    /// Creates an empty counter.
    pub fn new() -> Self {
        ExactCounter {
            counts: HashMap::new(),
            observations: 0,
        }
    }

    /// Records one occurrence of `item`.
    pub fn observe(&mut self, item: T) {
        *self.counts.entry(item).or_default() += 1;
        self.observations += 1;
    }

    /// Returns the exact count of `item` (0 if never seen).
    pub fn count(&self, item: &T) -> u64 {
        self.counts.get(item).copied().unwrap_or(0)
    }

    /// Number of distinct items seen.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Total observations so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Iterates over `(item, count)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&T, u64)> {
        self.counts.iter().map(|(item, &c)| (item, c))
    }

    /// Forgets everything.
    pub fn clear(&mut self) {
        self.counts.clear();
        self.observations = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_exact() {
        let mut c: ExactCounter<&str> = ExactCounter::new();
        for item in ["x", "y", "x", "x"] {
            c.observe(item);
        }
        assert_eq!(c.count(&"x"), 3);
        assert_eq!(c.count(&"y"), 1);
        assert_eq!(c.count(&"z"), 0);
        assert_eq!(c.distinct(), 2);
        assert_eq!(c.observations(), 4);
    }

    #[test]
    fn clear_resets() {
        let mut c: ExactCounter<u8> = ExactCounter::new();
        c.observe(1);
        c.clear();
        assert_eq!(c.distinct(), 0);
        assert_eq!(c.observations(), 0);
        assert_eq!(c.count(&1), 0);
    }
}
