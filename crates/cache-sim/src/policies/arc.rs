//! ARC: Adaptive Replacement Cache (Megiddo & Modha, FAST '03).

use crate::policies::util::OrderedPageSet;
use crate::policy::{AccessOutcome, CachePolicy};
use crate::request::{PageId, Request};

/// ARC balances recency and frequency by splitting the cache into a
/// recency list `T1` and a frequency list `T2`, with ghost lists `B1` and
/// `B2` recording recently evicted pages. The adaptation parameter `p` is the
/// target size of `T1`, and is nudged toward whichever ghost list is being
/// hit.
///
/// This is a faithful implementation of the published pseudocode. Note the
/// paper's remark that ARC's ghost lists give it a small space advantage over
/// CLIC in their comparison (ghost entries are not charged against the
/// cache); we reproduce that accounting.
#[derive(Debug, Clone)]
pub struct Arc {
    capacity: usize,
    p: usize,
    t1: OrderedPageSet,
    t2: OrderedPageSet,
    b1: OrderedPageSet,
    b2: OrderedPageSet,
}

impl Arc {
    /// Creates an ARC cache holding at most `capacity` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Arc {
            capacity,
            p: 0,
            t1: OrderedPageSet::with_capacity(capacity),
            t2: OrderedPageSet::with_capacity(capacity),
            b1: OrderedPageSet::new(),
            b2: OrderedPageSet::new(),
        }
    }

    /// Moves a page out of the cache into the appropriate ghost list.
    /// Returns 1 if a page was evicted (always, unless both lists are empty).
    fn replace(&mut self, requested_in_b2: bool) -> u32 {
        let t1_len = self.t1.len();
        if t1_len >= 1 && (t1_len > self.p || (requested_in_b2 && t1_len == self.p)) {
            if let Some(victim) = self.t1.pop_front() {
                self.b1.push_back(victim);
                return 1;
            }
        }
        if let Some(victim) = self.t2.pop_front() {
            self.b2.push_back(victim);
            return 1;
        }
        // Fall back to T1 if T2 was empty.
        if let Some(victim) = self.t1.pop_front() {
            self.b1.push_back(victim);
            return 1;
        }
        0
    }
}

impl CachePolicy for Arc {
    fn name(&self) -> String {
        "ARC".to_string()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn access(&mut self, req: &Request, _seq: u64) -> AccessOutcome {
        let x = req.page;
        let c = self.capacity;

        // Case I: hit in T1 or T2 -> promote to MRU of T2.
        if self.t1.remove(x) {
            self.t2.push_back(x);
            return AccessOutcome::hit();
        }
        if self.t2.touch(x) {
            return AccessOutcome::hit();
        }

        // Case II: hit in ghost list B1 -> grow p, bring into T2.
        if self.b1.contains(x) {
            let delta = (self.b2.len() / self.b1.len().max(1)).max(1);
            self.p = (self.p + delta).min(c);
            let evicted = self.replace(false);
            self.b1.remove(x);
            self.t2.push_back(x);
            return AccessOutcome {
                hit: false,
                evicted,
                bypassed: false,
            };
        }

        // Case III: hit in ghost list B2 -> shrink p, bring into T2.
        if self.b2.contains(x) {
            let delta = (self.b1.len() / self.b2.len().max(1)).max(1);
            self.p = self.p.saturating_sub(delta);
            let evicted = self.replace(true);
            self.b2.remove(x);
            self.t2.push_back(x);
            return AccessOutcome {
                hit: false,
                evicted,
                bypassed: false,
            };
        }

        // Case IV: complete miss.
        let mut evicted = 0;
        let l1 = self.t1.len() + self.b1.len();
        if l1 == c {
            if self.t1.len() < c {
                self.b1.pop_front();
                evicted += self.replace(false);
            } else {
                // B1 is empty and T1 is full: evict the LRU page of T1 outright.
                if self.t1.pop_front().is_some() {
                    evicted += 1;
                }
            }
        } else {
            let total = self.t1.len() + self.t2.len() + self.b1.len() + self.b2.len();
            if total >= c {
                if total == 2 * c {
                    self.b2.pop_front();
                }
                if self.t1.len() + self.t2.len() >= c {
                    evicted += self.replace(false);
                }
            }
        }
        self.t1.push_back(x);
        AccessOutcome {
            hit: false,
            evicted,
            bypassed: false,
        }
    }

    fn contains(&self, page: PageId) -> bool {
        self.t1.contains(page) || self.t2.contains(page)
    }

    fn len(&self) -> usize {
        self.t1.len() + self.t2.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ClientId;
    use crate::HintSetId;

    fn read(page: u64) -> Request {
        Request::read(ClientId(0), PageId(page), HintSetId(0))
    }

    #[test]
    fn repeated_access_promotes_to_frequency_list() {
        let mut arc = Arc::new(4);
        arc.access(&read(1), 0);
        assert_eq!(arc.t1.len(), 1);
        assert!(arc.access(&read(1), 1).hit);
        assert_eq!(arc.t1.len(), 0);
        assert_eq!(arc.t2.len(), 1);
    }

    #[test]
    fn cache_never_exceeds_capacity() {
        let mut arc = Arc::new(8);
        // Mixed pattern: a hot set of 4 pages plus a long scan.
        for i in 0..1000u64 {
            arc.access(&read(i % 4), i * 2);
            arc.access(&read(100 + i), i * 2 + 1);
            assert!(arc.len() <= 8, "len {} at step {}", arc.len(), i);
            assert!(arc.b1.len() + arc.b2.len() <= 2 * 8 + 2);
        }
        // The hot set should survive the scan (that is ARC's whole point).
        assert!(arc.contains(PageId(0)));
        assert!(arc.contains(PageId(3)));
    }

    #[test]
    fn ghost_hit_adapts_p() {
        let mut arc = Arc::new(2);
        arc.access(&read(1), 0);
        arc.access(&read(2), 1);
        arc.access(&read(3), 2); // evicts 1 into B1
        assert!(!arc.contains(PageId(1)));
        let p_before = arc.p;
        arc.access(&read(1), 3); // ghost hit in B1
        assert!(arc.p >= p_before);
        assert!(arc.contains(PageId(1)));
    }

    #[test]
    fn scan_resistance_beats_lru() {
        use crate::policies::Lru;
        use crate::simulate;
        use crate::trace::TraceBuilder;
        use crate::AccessKind;

        // Workload: a small hot loop (touched twice per round so its pages
        // earn frequency status) interleaved with a long one-shot scan that
        // flushes an LRU cache every round.
        let mut b = TraceBuilder::new();
        let c = b.add_client("t", &[("x", 1)]);
        let h = b.intern_hints(c, &[0]);
        for round in 0..200u64 {
            for _rep in 0..2 {
                for hot in 0..8u64 {
                    b.push(c, hot, AccessKind::Read, None, h);
                }
            }
            for cold in 0..24u64 {
                b.push(c, 1000 + round * 24 + cold, AccessKind::Read, None, h);
            }
        }
        let trace = b.build();
        let mut arc = Arc::new(16);
        let mut lru = Lru::new(16);
        let arc_res = simulate(&mut arc, &trace);
        let lru_res = simulate(&mut lru, &trace);
        assert!(
            arc_res.read_hit_ratio() > lru_res.read_hit_ratio(),
            "ARC {:.3} should beat LRU {:.3} on scan-polluted workload",
            arc_res.read_hit_ratio(),
            lru_res.read_hit_ratio()
        );
    }
}
