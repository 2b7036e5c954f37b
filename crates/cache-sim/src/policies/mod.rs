//! Baseline replacement policies.
//!
//! The policies the paper evaluates against CLIC:
//!
//! * [`Opt`] — the offline optimal MIN algorithm of Belady (upper bound),
//! * [`Lru`] — least recently used,
//! * [`Arc`] — adaptive replacement cache (Megiddo & Modha, FAST '03),
//! * [`Tq`] — the write-hint-aware second-tier policy of Li et al. (FAST '05).
//!
//! Additional classical policies provided for broader comparisons and for the
//! related-work ablations: [`Lfu`] and [`TwoQ`] (Johnson & Shasha, VLDB '94).

mod arc;
mod lfu;
mod lru;
mod opt;
mod tq;
mod two_q;
pub mod util;

pub use arc::Arc;
pub use lfu::Lfu;
pub use lru::Lru;
pub use opt::Opt;
pub use tq::Tq;
pub use two_q::TwoQ;

use crate::policy::{BoxedPolicy, PolicyFactory};

/// Factory for the named baseline policies, convenient for sweeps and for the
/// benchmark harness.
///
/// `OPT` cannot be built through this factory because it needs the trace's
/// [`crate::NextUseOracle`]; construct it explicitly with [`Opt::from_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselinePolicy {
    /// Least recently used.
    Lru,
    /// Least frequently used.
    Lfu,
    /// 2Q (Johnson & Shasha).
    TwoQ,
    /// Adaptive replacement cache.
    Arc,
    /// Write-hint-aware TQ.
    Tq,
}

impl BaselinePolicy {
    /// All baseline policies, in a stable order.
    pub const ALL: [BaselinePolicy; 5] = [
        BaselinePolicy::Lru,
        BaselinePolicy::Lfu,
        BaselinePolicy::TwoQ,
        BaselinePolicy::Arc,
        BaselinePolicy::Tq,
    ];

    /// The policy's display name.
    pub fn name(self) -> &'static str {
        match self {
            BaselinePolicy::Lru => "LRU",
            BaselinePolicy::Lfu => "LFU",
            BaselinePolicy::TwoQ => "2Q",
            BaselinePolicy::Arc => "ARC",
            BaselinePolicy::Tq => "TQ",
        }
    }

    /// Parses a policy from its display name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Self> {
        let upper = name.to_ascii_uppercase();
        Self::ALL.iter().copied().find(|p| p.name() == upper)
    }

    /// Builds an instance of the policy with the given capacity.
    pub fn build(self, capacity: usize) -> BoxedPolicy {
        match self {
            BaselinePolicy::Lru => Box::new(Lru::new(capacity)),
            BaselinePolicy::Lfu => Box::new(Lfu::new(capacity)),
            BaselinePolicy::TwoQ => Box::new(TwoQ::new(capacity)),
            BaselinePolicy::Arc => Box::new(Arc::new(capacity)),
            BaselinePolicy::Tq => Box::new(Tq::new(capacity)),
        }
    }
}

impl PolicyFactory for BaselinePolicy {
    fn name(&self) -> String {
        BaselinePolicy::name(*self).to_string()
    }

    fn build(&self, capacity: usize) -> BoxedPolicy {
        BaselinePolicy::build(*self, capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{AccessKind, ClientId, PageId, Request, WriteHint};
    use crate::trace::{Trace, TraceBuilder};
    use crate::{simulate, HintSetId};

    /// Every baseline policy must respect its capacity and behave sanely on a
    /// common workload; these tests run the whole enum to catch regressions
    /// in any one policy.
    fn mixed_trace(pages: u64, requests: usize, seed: u64) -> Trace {
        // Small deterministic LCG so we do not need the `rand` crate here.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut b = TraceBuilder::new().with_name("mixed");
        let c = b.add_client("t", &[("kind", 4)]);
        let hints: Vec<HintSetId> = (0..4).map(|v| b.intern_hints(c, &[v])).collect();
        for _ in 0..requests {
            let r = next();
            // Zipf-ish skew: half the requests hit the first 10% of pages.
            let page = if r % 2 == 0 {
                r % (pages / 10).max(1)
            } else {
                r % pages
            };
            let kind = if next() % 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let wh = if kind == AccessKind::Write {
                Some(match next() % 3 {
                    0 => WriteHint::Replacement,
                    1 => WriteHint::Recovery,
                    _ => WriteHint::Synchronous,
                })
            } else {
                None
            };
            b.push(c, page, kind, wh, hints[(next() % 4) as usize]);
        }
        b.build()
    }

    #[test]
    fn all_policies_respect_capacity() {
        let trace = mixed_trace(500, 4000, 42);
        for kind in BaselinePolicy::ALL {
            let mut policy = kind.build(64);
            for (seq, req) in trace.iter() {
                policy.access(req, seq);
                assert!(
                    policy.len() <= policy.capacity(),
                    "{} exceeded capacity: {} > {}",
                    policy.name(),
                    policy.len(),
                    policy.capacity()
                );
            }
        }
    }

    #[test]
    fn all_policies_report_hits_consistently_with_contains() {
        let trace = mixed_trace(200, 2000, 7);
        for kind in BaselinePolicy::ALL {
            let mut policy = kind.build(32);
            for (seq, req) in trace.iter() {
                let was_cached = policy.contains(req.page);
                let outcome = policy.access(req, seq);
                assert_eq!(
                    outcome.hit,
                    was_cached,
                    "{}: hit flag must equal pre-access membership at seq {}",
                    policy.name(),
                    seq
                );
            }
        }
    }

    #[test]
    fn all_policies_get_hits_on_skewed_workload() {
        let trace = mixed_trace(400, 6000, 1);
        for kind in BaselinePolicy::ALL {
            let mut policy = kind.build(128);
            let res = simulate(policy.as_mut(), &trace);
            assert!(
                res.stats.read_hits > 0,
                "{} produced no hits on a skewed workload",
                kind.name()
            );
        }
    }

    #[test]
    fn single_page_cache_works_for_every_policy() {
        for kind in BaselinePolicy::ALL {
            let mut policy = kind.build(1);
            let h = HintSetId(0);
            let a = Request::read(ClientId(0), PageId(1), h);
            let b = Request::read(ClientId(0), PageId(2), h);
            policy.access(&a, 0);
            policy.access(&b, 1);
            let out = policy.access(&a, 2);
            assert!(policy.len() <= 1, "{}", kind.name());
            // With a one-page cache and alternating pages, the second access
            // to `a` cannot be a hit unless the policy bypassed `b`.
            if out.hit {
                assert!(policy.contains(PageId(1)));
            }
        }
    }

    #[test]
    fn from_name_roundtrip() {
        for kind in BaselinePolicy::ALL {
            assert_eq!(BaselinePolicy::from_name(kind.name()), Some(kind));
            assert_eq!(
                BaselinePolicy::from_name(&kind.name().to_ascii_lowercase()),
                Some(kind)
            );
        }
        assert_eq!(BaselinePolicy::from_name("nope"), None);
    }
}
