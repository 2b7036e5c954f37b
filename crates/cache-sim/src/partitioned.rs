//! A cache statically partitioned among storage clients.
//!
//! The paper's multi-client experiment (Figure 11) compares a single shared
//! server cache managed by CLIC against the baseline of giving every client a
//! private cache of `capacity / n` pages. [`PartitionedCache`] implements the
//! baseline: it routes each request to its client's private policy instance
//! and reports the union as one cache.

use std::collections::HashMap;

use crate::policy::{AccessOutcome, BoxedPolicy, CachePolicy, PolicyFactory};
use crate::request::{ClientId, PageId, Request};

/// A cache split into fixed, per-client partitions.
///
/// Requests from a client are served only by that client's partition;
/// partitions never borrow capacity from one another.
pub struct PartitionedCache {
    name: String,
    partitions: HashMap<ClientId, BoxedPolicy>,
    total_capacity: usize,
}

impl PartitionedCache {
    /// Creates a partitioned cache with one partition per listed client, each
    /// of `per_client_capacity` pages, using `factory` to build the per-client
    /// policy.
    pub fn new(
        factory: &dyn PolicyFactory,
        clients: &[ClientId],
        per_client_capacity: usize,
    ) -> Self {
        let mut partitions = HashMap::new();
        for &c in clients {
            partitions.insert(c, factory.build(per_client_capacity));
        }
        PartitionedCache {
            name: format!("Partitioned<{}>", factory.name()),
            total_capacity: per_client_capacity * clients.len(),
            partitions,
        }
    }

    /// Returns the partition serving `client`, if one was configured.
    pub fn partition(&self, client: ClientId) -> Option<&dyn CachePolicy> {
        self.partitions.get(&client).map(|p| p.as_ref())
    }
}

impl CachePolicy for PartitionedCache {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn capacity(&self) -> usize {
        self.total_capacity
    }

    fn access(&mut self, req: &Request, seq: u64) -> AccessOutcome {
        match self.partitions.get_mut(&req.client) {
            Some(policy) => policy.access(req, seq),
            // A request from an unconfigured client cannot be cached at all.
            None => AccessOutcome::bypass(),
        }
    }

    fn contains(&self, page: PageId) -> bool {
        self.partitions.values().any(|p| p.contains(page))
    }

    fn len(&self) -> usize {
        self.partitions.values().map(|p| p.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::Lru;
    use crate::request::AccessKind;
    use crate::trace::TraceBuilder;
    use crate::{simulate, HintSetId};

    fn lru_factory() -> (String, fn(usize) -> BoxedPolicy) {
        ("LRU".to_string(), |cap| {
            Box::new(Lru::new(cap)) as BoxedPolicy
        })
    }

    #[test]
    fn partitions_do_not_share_capacity() {
        let factory = lru_factory();
        let c1 = ClientId(0);
        let c2 = ClientId(1);
        let mut cache = PartitionedCache::new(&factory, &[c1, c2], 2);
        assert_eq!(cache.capacity(), 4);
        assert_eq!(cache.name(), "Partitioned<LRU>");

        // Client 1 touches 3 distinct pages: its 2-page partition must evict
        // even though client 2's partition is empty.
        for p in 0..3u64 {
            let req = Request::read(c1, PageId(p), HintSetId(0));
            cache.access(&req, p);
        }
        assert_eq!(cache.len(), 2);
        assert!(
            !cache.contains(PageId(0)),
            "page 0 was evicted from c1's partition"
        );
        assert!(cache.contains(PageId(2)));
        assert_eq!(cache.partition(c2).unwrap().len(), 0);
    }

    #[test]
    fn unknown_client_is_bypassed() {
        let factory = lru_factory();
        let mut cache = PartitionedCache::new(&factory, &[ClientId(0)], 2);
        let req = Request::read(ClientId(9), PageId(1), HintSetId(0));
        let out = cache.access(&req, 0);
        assert!(out.bypassed);
        assert!(!out.hit);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn driver_integration_reports_per_client_hit_ratios() {
        let mut b = TraceBuilder::new();
        let c1 = b.add_client("a", &[("x", 1)]);
        let c2 = b.add_client("b", &[("x", 1)]);
        let h1 = b.intern_hints(c1, &[0]);
        let h2 = b.intern_hints(c2, &[0]);
        // Client 1: tight loop over 2 pages (fits in its partition).
        // Client 2: scan over 6 pages (does not fit in its partition).
        for round in 0..3u64 {
            for p in 0..2u64 {
                b.push(c1, p, AccessKind::Read, None, h1);
            }
            for p in 0..6u64 {
                b.push(c2, 100 + (p + round) % 6, AccessKind::Read, None, h2);
            }
        }
        let trace = b.build();
        let factory = lru_factory();
        let mut cache = PartitionedCache::new(&factory, &[c1, c2], 2);
        let res = simulate(&mut cache, &trace);
        assert!(res.client_read_hit_ratio(c1) > 0.5);
        assert!(res.client_read_hit_ratio(c2) < 0.2);
    }
}
