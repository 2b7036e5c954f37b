//! The replacement-policy abstraction implemented by every cache policy.

use std::fmt;

use crate::request::{PageId, Request};

/// What a policy did with a request, reported back to the simulation driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// `true` if the requested page was present in the cache *before* the
    /// request was applied (a hit).
    pub hit: bool,
    /// Number of pages the policy evicted while handling this request.
    pub evicted: u32,
    /// `true` if the policy declined to admit the (missing) page.
    pub bypassed: bool,
}

impl AccessOutcome {
    /// Outcome for a hit: the page was already cached.
    pub fn hit() -> Self {
        AccessOutcome {
            hit: true,
            evicted: 0,
            bypassed: false,
        }
    }

    /// Outcome for a miss where the page was admitted, evicting `evicted`
    /// pages to make room.
    pub fn miss(evicted: u32) -> Self {
        AccessOutcome {
            hit: false,
            evicted,
            bypassed: false,
        }
    }

    /// Outcome for a miss where the policy chose not to admit the page.
    pub fn bypass() -> Self {
        AccessOutcome {
            hit: false,
            evicted: 0,
            bypassed: true,
        }
    }
}

/// A storage-server cache replacement policy.
///
/// The simulation driver feeds the policy one request at a time together with
/// a monotonically increasing sequence number (the request's position in the
/// trace). The policy decides whether to admit the page and which page to
/// evict; the driver aggregates the returned [`AccessOutcome`]s into
/// [`crate::CacheStats`].
///
/// Policies are single-threaded by design: trace-driven cache simulation is
/// inherently sequential, and the paper's algorithms are described as
/// sequential data structures. Parallelism in the benchmark harness comes
/// from running independent simulations on separate threads.
pub trait CachePolicy {
    /// Short human-readable policy name, e.g. `"LRU"` or `"CLIC"`.
    fn name(&self) -> String;

    /// The maximum number of pages the cache may hold.
    fn capacity(&self) -> usize;

    /// Handles one request with the given trace sequence number.
    fn access(&mut self, req: &Request, seq: u64) -> AccessOutcome;

    /// Handles a batch of consecutive requests, appending one outcome per
    /// request to `outcomes`.
    ///
    /// Request `i` of the slice carries sequence number `first_seq + i`. The
    /// contract is strict: the observable behaviour (outcomes, cache
    /// contents, internal statistics) must be *identical* to calling
    /// [`CachePolicy::access`] once per request in order. The default
    /// implementation does exactly that; policies with a meaningful batch
    /// fast path (amortized lookups, fewer dynamic dispatches) override it.
    /// Drivers such as [`crate::simulate`] and live servers feed requests
    /// through this method in chunks so that per-request dispatch overhead is
    /// paid once per batch instead of once per request.
    fn access_batch(
        &mut self,
        reqs: &[Request],
        first_seq: u64,
        outcomes: &mut Vec<AccessOutcome>,
    ) {
        outcomes.reserve(reqs.len());
        for (i, req) in reqs.iter().enumerate() {
            outcomes.push(self.access(req, first_seq + i as u64));
        }
    }

    /// Asks the policy to record the *identity* of every page it evicts so a
    /// data plane can drop (and, if dirty, flush) the corresponding buffer
    /// frame. Returns `true` if the policy supports eviction logging.
    ///
    /// [`AccessOutcome`] deliberately reports only eviction *counts* — the
    /// common simulation path never needs identities, and forcing every
    /// policy to return them would put an allocation on the hot path.
    /// Policies backing a real store opt in: after enabling, every page
    /// evicted by `access`/`access_batch` is appended to an internal log that
    /// the caller drains with [`CachePolicy::drain_evictions`] (and must
    /// drain, or the log grows with the eviction count). The default
    /// implementation ignores the request and reports `false`, so drivers
    /// can detect policies that would silently leak frames.
    fn record_evictions(&mut self, _enabled: bool) -> bool {
        false
    }

    /// Drains the identities of pages evicted since the previous drain into
    /// `out` (appending, oldest first). A no-op unless the policy supports
    /// and has enabled [`CachePolicy::record_evictions`].
    fn drain_evictions(&mut self, _out: &mut Vec<PageId>) {}

    /// Returns `true` if the page is currently cached.
    fn contains(&self, page: PageId) -> bool;

    /// Number of pages currently cached.
    fn len(&self) -> usize;

    /// Returns `true` if the cache currently holds no pages.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for dyn CachePolicy + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CachePolicy({}, {}/{} pages)",
            self.name(),
            self.len(),
            self.capacity()
        )
    }
}

/// A heap-allocated policy trait object.
pub type BoxedPolicy = Box<dyn CachePolicy>;

/// A factory that builds a policy for a given cache capacity.
///
/// Used by [`crate::PartitionedCache`] and the partitioned replays to build
/// one policy per partition, and by the benchmark harness to enumerate
/// policies by name.
pub trait PolicyFactory {
    /// Name of the policies produced by this factory.
    fn name(&self) -> String;

    /// Builds a fresh policy instance with the given capacity (in pages).
    fn build(&self, capacity: usize) -> BoxedPolicy;
}

impl<F> PolicyFactory for (String, F)
where
    F: Fn(usize) -> BoxedPolicy,
{
    fn name(&self) -> String {
        self.0.clone()
    }

    fn build(&self, capacity: usize) -> BoxedPolicy {
        (self.1)(capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::Lru;
    use crate::{ClientId, HintSetId};

    #[test]
    fn outcome_constructors() {
        assert!(AccessOutcome::hit().hit);
        assert!(!AccessOutcome::miss(1).hit);
        assert_eq!(AccessOutcome::miss(3).evicted, 3);
        assert!(AccessOutcome::bypass().bypassed);
    }

    #[test]
    fn factory_tuple_impl_builds_policies() {
        let factory: (String, fn(usize) -> BoxedPolicy) = ("LRU".to_string(), |cap| {
            Box::new(Lru::new(cap)) as BoxedPolicy
        });
        assert_eq!(factory.name(), "LRU");
        let p = factory.build(16);
        assert_eq!(p.capacity(), 16);
        assert!(p.is_empty());
    }

    #[test]
    fn debug_impl_for_trait_object() {
        let mut lru = Lru::new(2);
        let req = Request::read(ClientId(0), PageId(1), HintSetId(0));
        lru.access(&req, 0);
        let dyn_ref: &dyn CachePolicy = &lru;
        let dbg = format!("{dyn_ref:?}");
        assert!(dbg.contains("LRU"));
        assert!(dbg.contains("1/2"));
    }
}
