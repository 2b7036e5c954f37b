//! Property-based tests for the frequent-item estimators: the published
//! error guarantees must hold for arbitrary streams.

use std::collections::HashMap;

use proptest::collection::vec;
use proptest::prelude::*;

use stream_stats::{ExactCounter, SpaceSaving};

fn exact_counts(stream: &[u16]) -> HashMap<u16, u64> {
    let mut counts = HashMap::new();
    for &x in stream {
        *counts.entry(x).or_insert(0u64) += 1;
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Space-Saving invariants (Metwally et al.):
    /// * estimates never undercount,
    /// * `count - error` never overcounts,
    /// * any item with true frequency > N/k is monitored,
    /// * at most k items are monitored.
    #[test]
    fn space_saving_error_bounds(
        stream in vec(0u16..50, 1..2000),
        k in 1usize..20,
    ) {
        let mut ss: SpaceSaving<u16> = SpaceSaving::new(k);
        for &x in &stream {
            ss.observe(x);
        }
        let truth = exact_counts(&stream);
        prop_assert!(ss.len() <= k);
        prop_assert_eq!(ss.observations(), stream.len() as u64);
        for (item, estimate, _) in ss.entries() {
            let t = truth.get(&item).copied().unwrap_or(0);
            prop_assert!(estimate.count >= t, "estimate {} < true {}", estimate.count, t);
            prop_assert!(estimate.guaranteed() <= t, "guaranteed {} > true {}", estimate.guaranteed(), t);
        }
        let threshold = stream.len() as u64 / k as u64;
        for (item, &count) in &truth {
            if count > threshold {
                prop_assert!(
                    ss.is_monitored(item),
                    "item {} with count {} > N/k {} must be monitored", item, count, threshold
                );
            }
        }
    }

    /// The exact counter is, in fact, exact — and agrees with every other
    /// estimator's observation count.
    #[test]
    fn exact_counter_is_exact(stream in vec(0u16..50, 0..2000)) {
        let mut exact: ExactCounter<u16> = ExactCounter::new();
        for &x in &stream {
            exact.observe(x);
        }
        let truth = exact_counts(&stream);
        prop_assert_eq!(exact.distinct(), truth.len());
        for (item, &count) in &truth {
            prop_assert_eq!(exact.count(item), count);
        }
        prop_assert_eq!(exact.observations(), stream.len() as u64);
    }

    /// Clearing any estimator really forgets everything.
    #[test]
    fn clear_forgets_state(stream in vec(0u16..20, 1..200)) {
        let mut ss: SpaceSaving<u16> = SpaceSaving::new(4);
        let mut exact: ExactCounter<u16> = ExactCounter::new();
        for &x in &stream {
            ss.observe(x);
            exact.observe(x);
        }
        ss.clear();
        exact.clear();
        prop_assert!(ss.is_empty());
        prop_assert_eq!(exact.distinct(), 0);
        prop_assert_eq!(ss.observations(), 0);
        prop_assert_eq!(exact.observations(), 0);
    }

    /// The auxiliary payload attached to Space-Saving counters never leaks
    /// from one item to another across recycling.
    #[test]
    fn space_saving_aux_never_leaks(stream in vec(0u16..30, 1..500), k in 1usize..6) {
        #[derive(Default, Clone, Debug, PartialEq)]
        struct Tag(Option<u16>);
        let mut ss: SpaceSaving<u16, Tag> = SpaceSaving::new(k);
        for &x in &stream {
            let aux = ss.observe_mut(x);
            match aux.0 {
                None => aux.0 = Some(x),
                Some(owner) => prop_assert_eq!(owner, x, "aux payload leaked across items"),
            }
        }
    }
}
