//! Shared building blocks for replacement policies.
//!
//! Most classical policies need an "ordered set of pages" supporting O(1)
//! membership tests, O(1) removal, and O(1) insertion at the recency end.
//! [`OrderedPageSet`] provides exactly that: a doubly-linked list of pages
//! backed by a slab, plus a hash index. LRU queues, FIFO queues, ghost lists,
//! and the segments of ARC and TQ are all instances of it.

use std::collections::HashMap;

use crate::request::PageId;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node {
    page: PageId,
    prev: usize,
    next: usize,
}

/// A linked hash set of pages ordered from *front* (oldest / next victim) to
/// *back* (most recently inserted or touched).
#[derive(Debug, Clone, Default)]
pub struct OrderedPageSet {
    nodes: Vec<Node>,
    free: Vec<usize>,
    index: HashMap<PageId, usize>,
    head: Option<usize>,
    tail: Option<usize>,
}

impl OrderedPageSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        OrderedPageSet::default()
    }

    /// Creates an empty set with room for `capacity` pages preallocated.
    pub fn with_capacity(capacity: usize) -> Self {
        OrderedPageSet {
            nodes: Vec::with_capacity(capacity),
            free: Vec::new(),
            index: HashMap::with_capacity(capacity),
            head: None,
            tail: None,
        }
    }

    /// Number of pages in the set.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` if the set contains no pages.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Returns `true` if `page` is in the set.
    pub fn contains(&self, page: PageId) -> bool {
        self.index.contains_key(&page)
    }

    /// The page at the front (oldest), if any.
    pub fn front(&self) -> Option<PageId> {
        self.head.map(|i| self.nodes[i].page)
    }

    /// The page at the back (most recent), if any.
    pub fn back(&self) -> Option<PageId> {
        self.tail.map(|i| self.nodes[i].page)
    }

    /// Inserts `page` at the back. Returns `false` (and does nothing) if the
    /// page was already present.
    pub fn push_back(&mut self, page: PageId) -> bool {
        if self.index.contains_key(&page) {
            return false;
        }
        let idx = self.alloc(page);
        self.link_back(idx);
        self.index.insert(page, idx);
        true
    }

    /// Removes and returns the front (oldest) page.
    pub fn pop_front(&mut self) -> Option<PageId> {
        let idx = self.head?;
        let page = self.nodes[idx].page;
        self.unlink(idx);
        self.index.remove(&page);
        self.free.push(idx);
        Some(page)
    }

    /// Removes `page` from the set. Returns `true` if it was present.
    pub fn remove(&mut self, page: PageId) -> bool {
        match self.index.remove(&page) {
            Some(idx) => {
                self.unlink(idx);
                self.free.push(idx);
                true
            }
            None => false,
        }
    }

    /// Moves an existing `page` to the back (most-recent position). Returns
    /// `false` if the page is not present.
    pub fn touch(&mut self, page: PageId) -> bool {
        match self.index.get(&page).copied() {
            Some(idx) => {
                self.unlink(idx);
                self.link_back(idx);
                true
            }
            None => false,
        }
    }

    /// Iterates pages from front (oldest) to back (newest).
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            cursor: self.head,
        }
    }

    fn alloc(&mut self, page: PageId) -> usize {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx] = Node {
                page,
                prev: NIL,
                next: NIL,
            };
            idx
        } else {
            self.nodes.push(Node {
                page,
                prev: NIL,
                next: NIL,
            });
            self.nodes.len() - 1
        }
    }

    fn link_back(&mut self, idx: usize) {
        self.nodes[idx].prev = self.tail.unwrap_or(NIL);
        self.nodes[idx].next = NIL;
        if let Some(t) = self.tail {
            self.nodes[t].next = idx;
        } else {
            self.head = Some(idx);
        }
        self.tail = Some(idx);
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = if next != NIL { Some(next) } else { None };
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = if prev != NIL { Some(prev) } else { None };
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
    }
}

/// Iterator over an [`OrderedPageSet`] from front to back.
#[derive(Debug)]
pub struct Iter<'a> {
    set: &'a OrderedPageSet,
    cursor: Option<usize>,
}

impl Iterator for Iter<'_> {
    type Item = PageId;

    fn next(&mut self) -> Option<PageId> {
        let idx = self.cursor?;
        let node = &self.set.nodes[idx];
        self.cursor = if node.next == NIL {
            None
        } else {
            Some(node.next)
        };
        Some(node.page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_order_is_fifo() {
        let mut s = OrderedPageSet::new();
        assert!(s.push_back(PageId(1)));
        assert!(s.push_back(PageId(2)));
        assert!(s.push_back(PageId(3)));
        assert!(!s.push_back(PageId(2)), "duplicate insert is a no-op");
        assert_eq!(s.len(), 3);
        assert_eq!(s.pop_front(), Some(PageId(1)));
        assert_eq!(s.pop_front(), Some(PageId(2)));
        assert_eq!(s.pop_front(), Some(PageId(3)));
        assert_eq!(s.pop_front(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn touch_moves_to_back() {
        let mut s = OrderedPageSet::new();
        for p in 1..=3 {
            s.push_back(PageId(p));
        }
        assert!(s.touch(PageId(1)));
        assert_eq!(s.front(), Some(PageId(2)));
        assert_eq!(s.back(), Some(PageId(1)));
        assert!(!s.touch(PageId(99)));
        let order: Vec<u64> = s.iter().map(|p| p.0).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn remove_middle_and_reuse_slab_slot() {
        let mut s = OrderedPageSet::new();
        for p in 1..=4 {
            s.push_back(PageId(p));
        }
        assert!(s.remove(PageId(2)));
        assert!(!s.remove(PageId(2)));
        assert!(!s.contains(PageId(2)));
        // The freed slot gets reused without corrupting order.
        s.push_back(PageId(5));
        let order: Vec<u64> = s.iter().map(|p| p.0).collect();
        assert_eq!(order, vec![1, 3, 4, 5]);
    }

    #[test]
    fn single_element_edge_cases() {
        let mut s = OrderedPageSet::with_capacity(4);
        s.push_back(PageId(7));
        assert_eq!(s.front(), s.back());
        assert!(s.touch(PageId(7)));
        assert_eq!(s.front(), Some(PageId(7)));
        assert!(s.remove(PageId(7)));
        assert_eq!(s.front(), None);
        assert_eq!(s.back(), None);
    }
}
