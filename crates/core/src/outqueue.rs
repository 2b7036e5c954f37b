//! The outqueue: bounded memory of recently seen but uncached pages.
//!
//! To recognize read re-references, CLIC must remember the sequence number
//! and hint set of the most recent request for a page. It records this for
//! every cached page (the policy keeps that metadata itself) **plus** a fixed
//! number `Noutq` of additional, uncached pages. The outqueue stores the
//! latter: entries are inserted when a page is evicted from the cache or when
//! CLIC declines to cache a requested page, and the least recently *inserted*
//! entry is dropped when the queue is full (Section 3.1).
//!
//! Evicting the oldest insertion biases the tracker toward detecting *short*
//! re-reference distances — precisely the re-references that lead to high
//! caching priorities — which the paper argues is the right bias.

use std::collections::HashMap;

use cache_sim::policies::util::OrderedPageSet;
#[cfg(test)]
use cache_sim::HintSetId;
use cache_sim::PageId;

pub use crate::page_table::PageRecord;

/// A bounded FIFO map from uncached pages to their most recent request
/// metadata.
///
/// This stand-alone container is the *reference* outqueue: the production
/// policy threads its outqueue through the shared slab in
/// [`crate::page_table::PageTable`] instead, and the differential tests hold
/// the two implementations to identical behaviour. [`PageRecord`] is defined
/// once, in the slab module, and re-exported here.
#[derive(Debug, Clone)]
pub struct OutQueue {
    capacity: usize,
    records: HashMap<PageId, PageRecord>,
    order: OrderedPageSet,
}

impl OutQueue {
    /// Creates an outqueue holding at most `capacity` entries. A capacity of
    /// zero disables the outqueue entirely (every lookup misses).
    pub fn new(capacity: usize) -> Self {
        OutQueue {
            capacity,
            records: HashMap::with_capacity(capacity.min(1 << 20)),
            order: OrderedPageSet::with_capacity(capacity.min(1 << 20)),
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if the outqueue holds no entries.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Looks up the remembered record for `page`, if any.
    pub fn get(&self, page: PageId) -> Option<PageRecord> {
        self.records.get(&page).copied()
    }

    /// Inserts (or refreshes) the record for `page`. If the queue is full,
    /// the least recently inserted entry is dropped first. Re-inserting an
    /// existing page updates its record and moves it to the youngest
    /// position.
    pub fn insert(&mut self, page: PageId, record: PageRecord) {
        if self.capacity == 0 {
            return;
        }
        if let Some(existing) = self.records.get_mut(&page) {
            *existing = record;
            self.order.touch(page);
            return;
        }
        if self.records.len() >= self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.records.remove(&oldest);
            }
        }
        self.records.insert(page, record);
        self.order.push_back(page);
    }

    /// Removes the record for `page` (used when the page is admitted to the
    /// cache, where the policy keeps its metadata instead). Returns the
    /// removed record, if any.
    pub fn remove(&mut self, page: PageId) -> Option<PageRecord> {
        let record = self.records.remove(&page);
        if record.is_some() {
            self.order.remove(page);
        }
        record
    }

    /// The contents in FIFO order (oldest insertion first), for diagnostics
    /// and the differential tests.
    #[doc(hidden)]
    pub fn snapshot(&self) -> Vec<(PageId, PageRecord)> {
        self.order
            .iter()
            .map(|page| (page, self.records[&page]))
            .collect()
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.records.clear();
        while self.order.pop_front().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64) -> PageRecord {
        PageRecord {
            seq,
            hint: HintSetId(0),
        }
    }

    #[test]
    fn insert_and_lookup() {
        let mut q = OutQueue::new(4);
        q.insert(PageId(1), rec(10));
        q.insert(PageId(2), rec(11));
        assert_eq!(q.get(PageId(1)).unwrap().seq, 10);
        assert_eq!(q.get(PageId(3)), None);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn oldest_insertion_is_evicted_when_full() {
        let mut q = OutQueue::new(2);
        q.insert(PageId(1), rec(1));
        q.insert(PageId(2), rec(2));
        q.insert(PageId(3), rec(3));
        assert_eq!(q.get(PageId(1)), None, "page 1 was the oldest insertion");
        assert!(q.get(PageId(2)).is_some());
        assert!(q.get(PageId(3)).is_some());
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_age_and_record() {
        let mut q = OutQueue::new(2);
        q.insert(PageId(1), rec(1));
        q.insert(PageId(2), rec(2));
        // Refresh page 1: it becomes the youngest, so page 2 is evicted next.
        q.insert(PageId(1), rec(99));
        q.insert(PageId(3), rec(3));
        assert_eq!(q.get(PageId(1)).unwrap().seq, 99);
        assert_eq!(q.get(PageId(2)), None);
    }

    #[test]
    fn remove_frees_a_slot() {
        let mut q = OutQueue::new(2);
        q.insert(PageId(1), rec(1));
        q.insert(PageId(2), rec(2));
        assert_eq!(q.remove(PageId(1)).unwrap().seq, 1);
        assert_eq!(q.remove(PageId(1)), None);
        q.insert(PageId(3), rec(3));
        assert_eq!(q.len(), 2);
        assert!(q.get(PageId(2)).is_some());
        assert!(q.get(PageId(3)).is_some());
    }

    #[test]
    fn zero_capacity_disables_tracking() {
        let mut q = OutQueue::new(0);
        q.insert(PageId(1), rec(1));
        assert!(q.is_empty());
        assert_eq!(q.get(PageId(1)), None);
    }

    #[test]
    fn clear_empties_everything() {
        let mut q = OutQueue::new(4);
        for p in 0..4u64 {
            q.insert(PageId(p), rec(p));
        }
        q.clear();
        assert!(q.is_empty());
        q.insert(PageId(9), rec(9));
        assert_eq!(q.len(), 1);
    }
}
