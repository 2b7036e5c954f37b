//! First-tier (DBMS) buffer-pool simulator.
//!
//! The paper's traces were collected *underneath* the buffer caches of DB2
//! and MySQL: the storage server only sees the misses and write-backs that
//! escape the first tier. This module reproduces that filter. It simulates a
//! buffer pool with:
//!
//! * priority-aware LRU replacement (DB2 buffer priorities),
//! * an asynchronous page cleaner that writes out dirty pages *near the
//!   eviction end* of the pool — these become **replacement writes**,
//! * periodic checkpoints that write out the oldest-dirtied (typically hot)
//!   pages — these become **recovery writes**,
//! * **synchronous writes** when a dirty page reaches the eviction point
//!   before the cleaner got to it.
//!
//! The pool emits [`PoolEvent`]s describing the storage-level I/O it
//! performs; the [`crate::client::DbmsSimulator`] turns those into hinted
//! requests.
//!
//! # The cleaner's known-clean fronts
//!
//! While the pool is over its dirty watermark the cleaner runs on every
//! operation and scans up to `cleaner_batch × 8` entries from the eviction
//! end of the LRU lists. Those fronts are usually clean already, so the pool
//! remembers how much of each front it knows to be clean and skips it
//! without looking the pages up. The bookkeeping rests on one invariant:
//!
//! * every time a page goes to the back of an LRU list it receives the next
//!   value of a counter, its *stamp*, so stamps ascend along each list;
//! * a page becomes dirty only at the moment it goes to the back of a list
//!   (a hit or a create touches it, a miss installs it);
//! * each list keeps a `bound` and a `count`: the entries stamped before
//!   `bound` are its first `count` entries, and all of them are clean.
//!
//! Cleaning never breaks the invariant. Removing or moving an entry stamped
//! before `bound` decrements `count`. After a cleaner pass every entry it
//! walked is clean, so the pass moves `bound` to one past the last stamp it
//! walked. The pool therefore writes exactly the pages a full rescan would,
//! in the same order.

use cache_sim::hash::FastHashMap;
use cache_sim::policies::util::OrderedPageSet;
use cache_sim::{PageId, WriteHint};

/// One storage-level I/O performed by the buffer pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolEvent {
    /// The pool read `page` from the storage server.
    Read {
        /// The page that was fetched.
        page: PageId,
        /// `true` if the fetch was issued by the prefetcher.
        prefetch: bool,
    },
    /// The pool wrote `page` back to the storage server.
    Write {
        /// The page that was written.
        page: PageId,
        /// Why the write happened (replacement / recovery / synchronous).
        hint: WriteHint,
    },
}

/// Tuning parameters of the simulated buffer pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferPoolConfig {
    /// Number of page frames in the pool.
    pub capacity: usize,
    /// Fraction of dirty frames that triggers the asynchronous page cleaner.
    pub dirty_high_watermark: f64,
    /// Maximum number of pages the cleaner writes per activation.
    pub cleaner_batch: usize,
    /// Number of logical page operations between checkpoints
    /// (`0` disables checkpoints).
    pub checkpoint_interval: u64,
    /// Maximum number of dirty pages written per checkpoint.
    pub checkpoint_batch: usize,
    /// Number of distinct priority levels used by the client (DB2 uses 4,
    /// MySQL effectively 1).
    pub priority_levels: u32,
}

impl BufferPoolConfig {
    /// A reasonable default configuration for a pool of `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        BufferPoolConfig {
            capacity,
            dirty_high_watermark: 0.25,
            cleaner_batch: 32,
            checkpoint_interval: 50_000,
            checkpoint_batch: 64,
            priority_levels: 4,
        }
    }

    /// Sets the number of priority levels.
    pub fn with_priority_levels(mut self, levels: u32) -> Self {
        self.priority_levels = levels.max(1);
        self
    }
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    dirty: bool,
    priority: u32,
    /// When the page last went to the back of its LRU list.
    stamp: u64,
}

/// The clean front of one LRU list: its entries stamped before `bound` are
/// its first `count` entries, and all of them are clean.
#[derive(Debug, Clone, Copy, Default)]
struct CleanFront {
    bound: u64,
    count: usize,
}

impl CleanFront {
    /// Accounts for an entry stamped `stamp` leaving its place in the list.
    fn forget(&mut self, stamp: u64) {
        if stamp < self.bound {
            self.count -= 1;
        }
    }
}

/// The simulated buffer pool.
#[derive(Debug)]
pub struct BufferPool {
    config: BufferPoolConfig,
    frames: FastHashMap<PageId, Frame>,
    /// One LRU list per priority level; victims are taken from the lowest
    /// non-empty level.
    lru: Vec<OrderedPageSet>,
    /// What the cleaner knows about the front of each list in `lru`.
    clean_fronts: Vec<CleanFront>,
    /// The stamp the next page to reach the back of a list receives.
    next_stamp: u64,
    /// Dirty pages in the order they first became dirty (checkpoint source).
    dirty_fifo: OrderedPageSet,
    dirty_count: usize,
    ops: u64,
}

impl BufferPool {
    /// Creates a buffer pool.
    ///
    /// # Panics
    ///
    /// Panics if the configured capacity is zero.
    pub fn new(config: BufferPoolConfig) -> Self {
        assert!(config.capacity > 0, "buffer pool capacity must be positive");
        let levels = config.priority_levels.max(1) as usize;
        BufferPool {
            config,
            frames: FastHashMap::with_capacity_and_hasher(config.capacity, Default::default()),
            lru: (0..levels).map(|_| OrderedPageSet::new()).collect(),
            clean_fronts: vec![CleanFront::default(); levels],
            next_stamp: 0,
            dirty_fifo: OrderedPageSet::new(),
            dirty_count: 0,
            ops: 0,
        }
    }

    /// Number of frames currently occupied.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Returns `true` if the pool holds no pages.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Number of dirty frames.
    pub fn dirty(&self) -> usize {
        self.dirty_count
    }

    /// Returns `true` if `page` currently resides in the pool.
    pub fn contains(&self, page: PageId) -> bool {
        self.frames.contains_key(&page)
    }

    /// Accesses `page` with the given buffer `priority`. If `write` is true
    /// the page is dirtied. Returns `true` if the access hit in the pool
    /// (i.e. produced no storage read). Storage I/O, if any, is appended to
    /// `events`.
    pub fn access(
        &mut self,
        page: PageId,
        priority: u32,
        write: bool,
        prefetch: bool,
        events: &mut Vec<PoolEvent>,
    ) -> bool {
        self.tick(events);
        let priority = priority.min(self.config.priority_levels - 1);
        if let Some(frame) = self.frames.get_mut(&page) {
            let old_priority = frame.priority;
            self.clean_fronts[old_priority as usize].forget(frame.stamp);
            frame.priority = priority;
            frame.stamp = self.next_stamp;
            self.next_stamp += 1;
            if write && !frame.dirty {
                frame.dirty = true;
                self.dirty_count += 1;
                self.dirty_fifo.push_back(page);
            }
            if old_priority as usize != priority as usize {
                self.lru[old_priority as usize].remove(page);
                self.lru[priority as usize].push_back(page);
            } else {
                self.lru[priority as usize].touch(page);
            }
            self.maybe_clean(events);
            return true;
        }
        self.make_room(events);
        events.push(PoolEvent::Read { page, prefetch });
        self.install(page, priority, write);
        self.maybe_clean(events);
        false
    }

    /// Installs a newly created page (for example a freshly allocated insert
    /// page) without reading it from storage. The page starts dirty.
    pub fn create(&mut self, page: PageId, priority: u32, events: &mut Vec<PoolEvent>) {
        self.tick(events);
        let priority = priority.min(self.config.priority_levels - 1);
        if let Some(frame) = self.frames.get_mut(&page) {
            if !frame.dirty {
                frame.dirty = true;
                self.dirty_count += 1;
                self.dirty_fifo.push_back(page);
            }
            self.clean_fronts[frame.priority as usize].forget(frame.stamp);
            frame.stamp = self.next_stamp;
            self.next_stamp += 1;
            self.lru[frame.priority as usize].touch(page);
        } else {
            self.make_room(events);
            self.install(page, priority, true);
        }
        self.maybe_clean(events);
    }

    /// Flushes every dirty page (used at end of run); the writes are tagged
    /// as recovery writes, mirroring a final checkpoint.
    pub fn flush_all(&mut self, events: &mut Vec<PoolEvent>) {
        let dirty: Vec<PageId> = self.dirty_fifo.iter().collect();
        for page in dirty {
            self.clean_page(page, WriteHint::Recovery, events);
        }
    }

    fn install(&mut self, page: PageId, priority: u32, dirty: bool) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.frames.insert(
            page,
            Frame {
                dirty,
                priority,
                stamp,
            },
        );
        self.lru[priority as usize].push_back(page);
        if dirty {
            self.dirty_count += 1;
            self.dirty_fifo.push_back(page);
        }
    }

    fn tick(&mut self, events: &mut Vec<PoolEvent>) {
        self.ops += 1;
        if self.config.checkpoint_interval > 0
            && self.ops.is_multiple_of(self.config.checkpoint_interval)
        {
            self.checkpoint(events);
        }
    }

    /// Evicts frames until there is room for one more page.
    fn make_room(&mut self, events: &mut Vec<PoolEvent>) {
        while self.frames.len() >= self.config.capacity {
            let victim = self
                .lru
                .iter()
                .find_map(|q| q.front())
                .expect("pool is full so some queue is non-empty");
            let frame = self.frames.remove(&victim).expect("victim has a frame");
            self.lru[frame.priority as usize].remove(victim);
            self.clean_fronts[frame.priority as usize].forget(frame.stamp);
            if frame.dirty {
                // The cleaner did not get to this page in time: the eviction
                // must wait for a synchronous write.
                self.dirty_fifo.remove(victim);
                self.dirty_count -= 1;
                events.push(PoolEvent::Write {
                    page: victim,
                    hint: WriteHint::Synchronous,
                });
            }
        }
    }

    /// Asynchronous page cleaner: when too many frames are dirty, write out
    /// dirty pages that are close to the eviction end of the LRU lists
    /// (lowest priority first) as replacement writes. The pages stay cached
    /// but become clean, so their later eviction is silent.
    ///
    /// Each list's known-clean front counts as scanned without a lookup
    /// (module docs), which changes no write.
    fn maybe_clean(&mut self, events: &mut Vec<PoolEvent>) {
        let threshold =
            (self.config.capacity as f64 * self.config.dirty_high_watermark).ceil() as usize;
        if self.dirty_count <= threshold {
            return;
        }
        let mut to_clean = Vec::new();
        let mut budget = self.config.cleaner_batch;
        let scan_limit = self.config.cleaner_batch * 8;
        let mut scanned = 0usize;
        for (queue, front) in self.lru.iter().zip(&mut self.clean_fronts) {
            if budget == 0 || scanned >= scan_limit {
                break;
            }
            let skip = front.count.min(scan_limit - scanned);
            scanned += skip;
            // Walking to the end of the skipped front would examine nothing.
            if scanned >= scan_limit || skip == queue.len() {
                continue;
            }
            let mut walked = skip;
            let mut last_stamp = None;
            for page in queue.iter().skip(skip) {
                if budget == 0 || scanned >= scan_limit {
                    break;
                }
                scanned += 1;
                walked += 1;
                let frame = self.frames[&page];
                last_stamp = Some(frame.stamp);
                if frame.dirty {
                    to_clean.push(page);
                    budget -= 1;
                }
            }
            // Every entry walked is clean once `to_clean` is written below.
            if let Some(stamp) = last_stamp {
                *front = CleanFront {
                    bound: stamp + 1,
                    count: walked,
                };
            }
        }
        for page in to_clean {
            self.clean_page(page, WriteHint::Replacement, events);
        }
    }

    /// Checkpoint: write out the oldest-dirtied pages (typically hot pages
    /// that keep getting re-dirtied) as recovery writes.
    fn checkpoint(&mut self, events: &mut Vec<PoolEvent>) {
        let batch: Vec<PageId> = self
            .dirty_fifo
            .iter()
            .take(self.config.checkpoint_batch)
            .collect();
        for page in batch {
            self.clean_page(page, WriteHint::Recovery, events);
        }
    }

    fn clean_page(&mut self, page: PageId, hint: WriteHint, events: &mut Vec<PoolEvent>) {
        if let Some(frame) = self.frames.get_mut(&page) {
            if frame.dirty {
                frame.dirty = false;
                self.dirty_count -= 1;
                self.dirty_fifo.remove(page);
                events.push(PoolEvent::Write { page, hint });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(capacity: usize) -> BufferPoolConfig {
        BufferPoolConfig {
            capacity,
            dirty_high_watermark: 0.5,
            cleaner_batch: 2,
            checkpoint_interval: 0,
            checkpoint_batch: 4,
            priority_levels: 4,
        }
    }

    #[test]
    fn hits_produce_no_storage_reads() {
        let mut pool = BufferPool::new(config(4));
        let mut events = Vec::new();
        assert!(!pool.access(PageId(1), 0, false, false, &mut events));
        assert!(pool.access(PageId(1), 0, false, false, &mut events));
        let reads = events
            .iter()
            .filter(|e| matches!(e, PoolEvent::Read { .. }))
            .count();
        assert_eq!(reads, 1, "only the first access should reach storage");
    }

    #[test]
    fn clean_eviction_is_silent_dirty_eviction_writes_synchronously() {
        let mut pool = BufferPool::new(BufferPoolConfig {
            dirty_high_watermark: 1.1, // cleaner never runs
            ..config(2)
        });
        let mut events = Vec::new();
        pool.access(PageId(1), 0, true, false, &mut events); // dirty
        pool.access(PageId(2), 0, false, false, &mut events); // clean
        events.clear();
        // Page 3 evicts page 1 (LRU), which is dirty -> synchronous write.
        pool.access(PageId(3), 0, false, false, &mut events);
        assert!(events.contains(&PoolEvent::Write {
            page: PageId(1),
            hint: WriteHint::Synchronous
        }));
        events.clear();
        // Page 4 evicts page 2, which is clean -> no write, just the read.
        pool.access(PageId(4), 0, false, false, &mut events);
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, PoolEvent::Write { .. }))
                .count(),
            0
        );
    }

    #[test]
    fn cleaner_emits_replacement_writes_and_keeps_pages() {
        let mut pool = BufferPool::new(BufferPoolConfig {
            dirty_high_watermark: 0.25,
            cleaner_batch: 8,
            ..config(8)
        });
        let mut events = Vec::new();
        for p in 0..6u64 {
            pool.access(PageId(p), 0, true, false, &mut events);
        }
        let replacement_writes: Vec<PageId> = events
            .iter()
            .filter_map(|e| match e {
                PoolEvent::Write {
                    page,
                    hint: WriteHint::Replacement,
                } => Some(*page),
                _ => None,
            })
            .collect();
        assert!(
            !replacement_writes.is_empty(),
            "cleaner should have produced replacement writes"
        );
        // Cleaned pages are still resident.
        for p in &replacement_writes {
            assert!(pool.contains(*p));
        }
        assert!(pool.dirty() < 6);
    }

    #[test]
    fn checkpoint_emits_recovery_writes() {
        let mut pool = BufferPool::new(BufferPoolConfig {
            checkpoint_interval: 10,
            checkpoint_batch: 4,
            dirty_high_watermark: 1.1, // isolate the checkpoint path
            ..config(16)
        });
        let mut events = Vec::new();
        // Keep re-dirtying a hot page while doing other work.
        for i in 0..40u64 {
            pool.access(PageId(1), 3, true, false, &mut events);
            pool.access(PageId(2 + (i % 4)), 0, false, false, &mut events);
        }
        let recovery_writes = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    PoolEvent::Write {
                        hint: WriteHint::Recovery,
                        ..
                    }
                )
            })
            .count();
        assert!(
            recovery_writes > 0,
            "checkpoints must produce recovery writes"
        );
        assert!(
            pool.contains(PageId(1)),
            "checkpointed hot page stays resident"
        );
    }

    #[test]
    fn low_priority_pages_are_evicted_before_high_priority_ones() {
        let mut pool = BufferPool::new(BufferPoolConfig {
            dirty_high_watermark: 1.1,
            ..config(2)
        });
        let mut events = Vec::new();
        pool.access(PageId(1), 3, false, false, &mut events); // high priority
        pool.access(PageId(2), 0, false, false, &mut events); // low priority
        pool.access(PageId(3), 0, false, false, &mut events); // evicts page 2
        assert!(pool.contains(PageId(1)));
        assert!(!pool.contains(PageId(2)));
        assert!(pool.contains(PageId(3)));
    }

    #[test]
    fn prefetch_flag_is_propagated() {
        let mut pool = BufferPool::new(config(4));
        let mut events = Vec::new();
        pool.access(PageId(9), 0, false, true, &mut events);
        assert_eq!(
            events[0],
            PoolEvent::Read {
                page: PageId(9),
                prefetch: true
            }
        );
    }

    #[test]
    fn create_does_not_read_from_storage() {
        let mut pool = BufferPool::new(config(4));
        let mut events = Vec::new();
        pool.create(PageId(7), 0, &mut events);
        assert!(events.iter().all(|e| !matches!(e, PoolEvent::Read { .. })));
        assert!(pool.contains(PageId(7)));
        assert_eq!(pool.dirty(), 1);
    }

    #[test]
    fn flush_all_writes_every_dirty_page_as_recovery() {
        let mut pool = BufferPool::new(BufferPoolConfig {
            dirty_high_watermark: 1.1,
            ..config(8)
        });
        let mut events = Vec::new();
        for p in 0..5u64 {
            pool.access(PageId(p), 0, true, false, &mut events);
        }
        events.clear();
        pool.flush_all(&mut events);
        assert_eq!(events.len(), 5);
        assert!(events.iter().all(|e| matches!(
            e,
            PoolEvent::Write {
                hint: WriteHint::Recovery,
                ..
            }
        )));
        assert_eq!(pool.dirty(), 0);
    }

    #[test]
    fn pool_never_exceeds_capacity() {
        let mut pool = BufferPool::new(config(16));
        let mut events = Vec::new();
        for i in 0..2000u64 {
            let write = i % 3 == 0;
            pool.access(PageId(i % 97), (i % 4) as u32, write, false, &mut events);
            assert!(pool.len() <= 16);
        }
    }

    /// The reference the known-clean fronts must agree with: the same pool
    /// whose cleaner looks up all of its up to `cleaner_batch × 8` entries
    /// on every operation.
    mod rescan {
        use std::collections::HashMap;

        use super::super::{BufferPoolConfig, PoolEvent};
        use cache_sim::policies::util::OrderedPageSet;
        use cache_sim::{PageId, WriteHint};

        #[derive(Debug, Clone, Copy)]
        struct Frame {
            dirty: bool,
            priority: u32,
        }

        pub struct RescanPool {
            config: BufferPoolConfig,
            frames: HashMap<PageId, Frame>,
            lru: Vec<OrderedPageSet>,
            dirty_fifo: OrderedPageSet,
            dirty_count: usize,
            ops: u64,
        }

        impl RescanPool {
            pub fn new(config: BufferPoolConfig) -> Self {
                let levels = config.priority_levels.max(1) as usize;
                RescanPool {
                    config,
                    frames: HashMap::new(),
                    lru: (0..levels).map(|_| OrderedPageSet::new()).collect(),
                    dirty_fifo: OrderedPageSet::new(),
                    dirty_count: 0,
                    ops: 0,
                }
            }

            pub fn len(&self) -> usize {
                self.frames.len()
            }

            pub fn dirty(&self) -> usize {
                self.dirty_count
            }

            pub fn access(
                &mut self,
                page: PageId,
                priority: u32,
                write: bool,
                prefetch: bool,
                events: &mut Vec<PoolEvent>,
            ) -> bool {
                self.tick(events);
                let priority = priority.min(self.config.priority_levels - 1);
                if let Some(frame) = self.frames.get_mut(&page) {
                    let old_priority = frame.priority;
                    frame.priority = priority;
                    if write && !frame.dirty {
                        frame.dirty = true;
                        self.dirty_count += 1;
                        self.dirty_fifo.push_back(page);
                    }
                    if old_priority != priority {
                        self.lru[old_priority as usize].remove(page);
                        self.lru[priority as usize].push_back(page);
                    } else {
                        self.lru[priority as usize].touch(page);
                    }
                    self.maybe_clean(events);
                    return true;
                }
                self.make_room(events);
                events.push(PoolEvent::Read { page, prefetch });
                self.install(page, priority, write);
                self.maybe_clean(events);
                false
            }

            pub fn create(&mut self, page: PageId, priority: u32, events: &mut Vec<PoolEvent>) {
                self.tick(events);
                let priority = priority.min(self.config.priority_levels - 1);
                if let Some(frame) = self.frames.get_mut(&page) {
                    if !frame.dirty {
                        frame.dirty = true;
                        self.dirty_count += 1;
                        self.dirty_fifo.push_back(page);
                    }
                    self.lru[frame.priority as usize].touch(page);
                } else {
                    self.make_room(events);
                    self.install(page, priority, true);
                }
                self.maybe_clean(events);
            }

            pub fn flush_all(&mut self, events: &mut Vec<PoolEvent>) {
                let dirty: Vec<PageId> = self.dirty_fifo.iter().collect();
                for page in dirty {
                    self.clean_page(page, WriteHint::Recovery, events);
                }
            }

            fn install(&mut self, page: PageId, priority: u32, dirty: bool) {
                self.frames.insert(page, Frame { dirty, priority });
                self.lru[priority as usize].push_back(page);
                if dirty {
                    self.dirty_count += 1;
                    self.dirty_fifo.push_back(page);
                }
            }

            fn tick(&mut self, events: &mut Vec<PoolEvent>) {
                self.ops += 1;
                if self.config.checkpoint_interval > 0
                    && self.ops.is_multiple_of(self.config.checkpoint_interval)
                {
                    self.checkpoint(events);
                }
            }

            fn make_room(&mut self, events: &mut Vec<PoolEvent>) {
                while self.frames.len() >= self.config.capacity {
                    let victim = self.lru.iter().find_map(|q| q.front()).unwrap();
                    let frame = self.frames.remove(&victim).unwrap();
                    self.lru[frame.priority as usize].remove(victim);
                    if frame.dirty {
                        self.dirty_fifo.remove(victim);
                        self.dirty_count -= 1;
                        events.push(PoolEvent::Write {
                            page: victim,
                            hint: WriteHint::Synchronous,
                        });
                    }
                }
            }

            fn maybe_clean(&mut self, events: &mut Vec<PoolEvent>) {
                let threshold = (self.config.capacity as f64 * self.config.dirty_high_watermark)
                    .ceil() as usize;
                if self.dirty_count <= threshold {
                    return;
                }
                let mut to_clean = Vec::new();
                let mut budget = self.config.cleaner_batch;
                let scan_limit = self.config.cleaner_batch * 8;
                let mut scanned = 0usize;
                'outer: for queue in &self.lru {
                    for page in queue.iter() {
                        if budget == 0 || scanned >= scan_limit {
                            break 'outer;
                        }
                        scanned += 1;
                        if self.frames.get(&page).map(|f| f.dirty).unwrap_or(false) {
                            to_clean.push(page);
                            budget -= 1;
                        }
                    }
                }
                for page in to_clean {
                    self.clean_page(page, WriteHint::Replacement, events);
                }
            }

            fn checkpoint(&mut self, events: &mut Vec<PoolEvent>) {
                let batch: Vec<PageId> = self
                    .dirty_fifo
                    .iter()
                    .take(self.config.checkpoint_batch)
                    .collect();
                for page in batch {
                    self.clean_page(page, WriteHint::Recovery, events);
                }
            }

            fn clean_page(&mut self, page: PageId, hint: WriteHint, events: &mut Vec<PoolEvent>) {
                if let Some(frame) = self.frames.get_mut(&page) {
                    if frame.dirty {
                        frame.dirty = false;
                        self.dirty_count -= 1;
                        self.dirty_fifo.remove(page);
                        events.push(PoolEvent::Write { page, hint });
                    }
                }
            }
        }
    }

    #[test]
    fn known_clean_fronts_write_what_a_full_rescan_writes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let capacity = rng.gen_range(4usize..=64);
            let config = BufferPoolConfig {
                capacity,
                dirty_high_watermark: rng.gen_range(0.1..0.9),
                cleaner_batch: rng.gen_range(1usize..=8),
                checkpoint_interval: rng.gen_range(0u64..=40),
                checkpoint_batch: rng.gen_range(1usize..=8),
                priority_levels: rng.gen_range(1u32..=4),
            };
            let mut pool = BufferPool::new(config);
            let mut reference = rescan::RescanPool::new(config);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let pages = capacity as u64 * 3;
            for step in 0..2_000 {
                let page = PageId(rng.gen_range(0..pages));
                let priority = rng.gen_range(0u32..5);
                match rng.gen_range(0u32..100) {
                    0 => {
                        pool.flush_all(&mut got);
                        reference.flush_all(&mut want);
                    }
                    1..=15 => {
                        pool.create(page, priority, &mut got);
                        reference.create(page, priority, &mut want);
                    }
                    _ => {
                        let write = rng.gen_bool(0.4);
                        let prefetch = rng.gen_bool(0.1);
                        assert_eq!(
                            pool.access(page, priority, write, prefetch, &mut got),
                            reference.access(page, priority, write, prefetch, &mut want),
                            "seed {seed} step {step}: {config:?}"
                        );
                    }
                }
                assert_eq!(got, want, "seed {seed} step {step}: {config:?}");
                assert_eq!(pool.dirty(), reference.dirty(), "seed {seed} step {step}");
                assert_eq!(pool.len(), reference.len(), "seed {seed} step {step}");
                got.clear();
                want.clear();
            }
        }
    }
}
