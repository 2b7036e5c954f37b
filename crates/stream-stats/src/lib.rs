//! Streaming frequent-item estimation for the CLIC reproduction.
//!
//! CLIC bounds the space needed to track hint-set statistics by tracking only
//! the most frequently occurring hint sets, using the **Space-Saving**
//! algorithm of Metwally, Agrawal & El Abbadi (ICDT '05), slightly adapted to
//! carry auxiliary per-item counters (the `Nr(H)` and `D(H)` statistics of
//! the paper's Section 5).
//!
//! This crate provides:
//!
//! * [`SpaceSaving`] — the Space-Saving algorithm, generic over the item type
//!   and over an auxiliary payload attached to each monitored counter (the
//!   CLIC adaptation),
//! * [`ExactCounter`] — exact frequency counting, the reference the
//!   property tests check Space-Saving against.
//!
//! # Example
//!
//! ```
//! use stream_stats::SpaceSaving;
//!
//! let mut ss: SpaceSaving<&str> = SpaceSaving::new(2);
//! for item in ["a", "b", "a", "c", "a", "a", "b"] {
//!     ss.observe(item);
//! }
//! // "a" is genuinely frequent and must be monitored with a tight estimate.
//! let est = ss.estimate(&"a").expect("a is monitored");
//! assert!(est.count >= 4);
//! assert_eq!(ss.observations(), 7);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod exact;
pub mod space_saving;

pub use exact::ExactCounter;
pub use space_saving::{Estimate, SpaceSaving};

#[cfg(test)]
mod tests {
    use super::*;

    /// Space-Saving must agree with exact counting on a stream whose
    /// distinct-item count fits within its budget.
    #[test]
    fn estimators_are_exact_when_capacity_suffices() {
        let stream: Vec<u32> = (0..1000u32).map(|i| i % 7).collect();
        let mut exact = ExactCounter::new();
        let mut ss: SpaceSaving<u32> = SpaceSaving::new(16);
        for &x in &stream {
            exact.observe(x);
            ss.observe(x);
        }
        for item in 0..7u32 {
            let truth = exact.count(&item);
            assert_eq!(ss.estimate(&item).unwrap().count, truth, "item {item}");
        }
        assert_eq!(ss.observations(), 1000);
        assert_eq!(exact.observations(), 1000);
    }
}
