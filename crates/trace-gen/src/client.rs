//! The simulated storage client: a DBMS instance that owns a database
//! layout and one or more buffer pools, executes logical page operations,
//! and records every resulting storage-level I/O as a hinted request.
//!
//! This is the stand-in for the instrumented DB2 and MySQL binaries the paper
//! used to collect its traces. The hint *types* it attaches are the same as
//! the paper's Figure 2:
//!
//! * **DB2 style**: pool ID, object ID, object type ID, request type
//!   (regular read / prefetch read / recovery write / replacement write /
//!   synchronous write), and buffer priority.
//! * **MySQL style**: thread ID, request type (read / replacement write /
//!   recovery write), file ID, and fix count.

use cache_sim::{ClientId, HintSetId, PageId, Request, Trace, TraceBuilder, WriteHint};

use crate::bufferpool::{BufferPool, BufferPoolConfig, PoolEvent};
use crate::db::{DatabaseLayout, ObjectId, ObjectKind};

/// Which client application's hint schema to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HintStyle {
    /// IBM DB2-style hints (5 hint types).
    Db2,
    /// MySQL-style hints (4 hint types).
    MySql,
}

/// Request-type hint values used by the DB2-style schema.
mod db2_request_type {
    pub const READ: u32 = 0;
    pub const PREFETCH_READ: u32 = 1;
    pub const RECOVERY_WRITE: u32 = 2;
    pub const REPLACEMENT_WRITE: u32 = 3;
    pub const SYNCHRONOUS_WRITE: u32 = 4;
}

/// Request-type hint values used by the MySQL-style schema.
mod mysql_request_type {
    pub const READ: u32 = 0;
    pub const REPLACEMENT_WRITE: u32 = 1;
    pub const RECOVERY_WRITE: u32 = 2;
}

/// Number of simulated MySQL server threads (Figure 2 lists a cardinality
/// of 5 for the MySQL thread-ID hint).
pub const MYSQL_THREADS: u32 = 5;

/// A simulated DBMS storage client.
///
/// Workload generators drive it through logical operations ([`read`],
/// [`update`], [`insert_append`], [`scan`], ...); every buffer-pool miss or
/// write-back is appended to an internal [`TraceBuilder`] with the
/// appropriate hint set. Call [`finish`] to obtain the storage-server trace.
///
/// [`read`]: DbmsSimulator::read
/// [`update`]: DbmsSimulator::update
/// [`insert_append`]: DbmsSimulator::insert_append
/// [`scan`]: DbmsSimulator::scan
/// [`finish`]: DbmsSimulator::finish
#[derive(Debug)]
pub struct DbmsSimulator {
    builder: TraceBuilder,
    client: ClientId,
    style: HintStyle,
    layout: DatabaseLayout,
    pools: Vec<BufferPool>,
    /// Scratch buffer reused across operations.
    events: Vec<PoolEvent>,
    /// Current MySQL thread id (round-robined by the workload generator).
    thread: u32,
    /// Per-object append state: rows written into the current tail page.
    append_fill: Vec<u32>,
    rows_per_page: u32,
}

impl DbmsSimulator {
    /// Creates a simulator for a client named `name`, using `style` hints,
    /// the given database `layout`, and one buffer pool per entry of
    /// `pool_configs`. `page_offset` has already been applied to `layout`.
    ///
    /// # Panics
    ///
    /// Panics if `pool_configs` is empty or if an object in `layout`
    /// references a pool index that is out of range.
    pub fn new(
        name: &str,
        style: HintStyle,
        layout: DatabaseLayout,
        pool_configs: &[BufferPoolConfig],
    ) -> Self {
        assert!(
            !pool_configs.is_empty(),
            "at least one buffer pool is required"
        );
        for (_, spec) in layout.objects() {
            assert!(
                (spec.pool as usize) < pool_configs.len(),
                "object {} references pool {} but only {} pools are configured",
                spec.name,
                spec.pool,
                pool_configs.len()
            );
        }
        let mut builder = TraceBuilder::new().with_name(name);
        let group_count = layout
            .objects()
            .map(|(_, s)| s.group)
            .max()
            .map(|g| g + 1)
            .unwrap_or(1);
        let client = match style {
            HintStyle::Db2 => builder.add_client(
                name,
                &[
                    ("pool ID", pool_configs.len() as u32),
                    ("object ID", group_count),
                    ("object type ID", 3),
                    ("request type", 5),
                    ("buffer priority", 4),
                ],
            ),
            HintStyle::MySql => builder.add_client(
                name,
                &[
                    ("thread ID", MYSQL_THREADS),
                    ("request type", 3),
                    ("file ID", group_count),
                    ("fix count", 2),
                ],
            ),
        };
        let append_fill = vec![0; layout.object_count()];
        DbmsSimulator {
            builder,
            client,
            style,
            layout,
            pools: pool_configs.iter().map(|c| BufferPool::new(*c)).collect(),
            events: Vec::new(),
            thread: 0,
            append_fill,
            rows_per_page: 24,
        }
    }

    /// The database layout (read-only).
    pub fn layout(&self) -> &DatabaseLayout {
        &self.layout
    }

    /// Sets the simulated server thread issuing subsequent operations
    /// (only visible through the MySQL thread-ID hint).
    pub fn set_thread(&mut self, thread: u32) {
        self.thread = thread % MYSQL_THREADS;
    }

    /// Logical read of `(object, slot)`.
    pub fn read(&mut self, object: ObjectId, slot: u64) {
        self.operate(object, slot, false, false);
    }

    /// Logical read-modify-write of `(object, slot)`.
    pub fn update(&mut self, object: ObjectId, slot: u64) {
        self.operate(object, slot, true, false);
    }

    /// Appends a row to `object`, dirtying its tail page and growing the
    /// object by one page whenever the tail page fills up. Returns the slot
    /// that received the row.
    pub fn insert_append(&mut self, object: ObjectId) -> u64 {
        let fill = &mut self.append_fill[object.0];
        *fill += 1;
        if *fill >= self.rows_per_page {
            *fill = 0;
            self.layout.grow(object, 1);
        }
        let slot = self.layout.pages_of(object) - 1;
        let page = self.layout.page(object, slot);
        let spec = self.layout.spec(object);
        let (pool, priority) = (spec.pool as usize, spec.priority);
        self.pools[pool].create(page, priority, &mut self.events);
        self.drain_events();
        slot
    }

    /// Sequentially reads `pages` pages of `object` starting at `start_slot`
    /// (wrapping around the object). When `prefetch` is true all but the
    /// first page are tagged as prefetch reads, mirroring DB2's sequential
    /// prefetcher.
    pub fn scan(&mut self, object: ObjectId, start_slot: u64, pages: u64, prefetch: bool) {
        for i in 0..pages {
            let is_prefetch = prefetch && i > 0;
            self.operate(object, start_slot + i, false, is_prefetch);
        }
    }

    /// Flushes all dirty buffer-pool pages (a final checkpoint) and returns
    /// the accumulated storage trace.
    pub fn finish(mut self) -> Trace {
        for pool in &mut self.pools {
            pool.flush_all(&mut self.events);
        }
        self.drain_events();
        self.builder.build()
    }

    fn operate(&mut self, object: ObjectId, slot: u64, write: bool, prefetch: bool) {
        let page = self.layout.page(object, slot);
        let spec = self.layout.spec(object);
        let (pool, priority) = (spec.pool as usize, spec.priority);
        self.pools[pool].access(page, priority, write, prefetch, &mut self.events);
        self.drain_events();
    }

    /// Converts buffered pool events into hinted storage requests.
    fn drain_events(&mut self) {
        if self.events.is_empty() {
            return;
        }
        let events = std::mem::take(&mut self.events);
        for event in &events {
            let request = self.request_for(event);
            self.builder.push_request(request);
        }
        self.events = events;
        self.events.clear();
    }

    fn request_for(&mut self, event: &PoolEvent) -> Request {
        match *event {
            PoolEvent::Read { page, prefetch } => {
                let hint = self.hint_for(page, None, prefetch);
                if prefetch {
                    Request::prefetch(self.client, page, hint)
                } else {
                    Request::read(self.client, page, hint)
                }
            }
            PoolEvent::Write {
                page,
                hint: write_hint,
            } => {
                let hint = self.hint_for(page, Some(write_hint), false);
                Request::write(self.client, page, Some(write_hint), hint)
            }
        }
    }

    fn hint_for(&mut self, page: PageId, write: Option<WriteHint>, prefetch: bool) -> HintSetId {
        let (group, kind, pool, priority) = match self.layout.object_of(page) {
            Some(object) => {
                let spec = self.layout.spec(object);
                (spec.group, spec.kind, spec.pool, spec.priority)
            }
            None => (0, ObjectKind::Temporary, 0, 0),
        };
        match self.style {
            HintStyle::Db2 => {
                let request_type = match (write, prefetch) {
                    (None, false) => db2_request_type::READ,
                    (None, true) => db2_request_type::PREFETCH_READ,
                    (Some(WriteHint::Recovery), _) => db2_request_type::RECOVERY_WRITE,
                    (Some(WriteHint::Replacement), _) => db2_request_type::REPLACEMENT_WRITE,
                    (Some(WriteHint::Synchronous), _) => db2_request_type::SYNCHRONOUS_WRITE,
                };
                self.builder.intern_hints(
                    self.client,
                    &[pool, group, kind.type_code(), request_type, priority],
                )
            }
            HintStyle::MySql => {
                let request_type = match write {
                    None => mysql_request_type::READ,
                    Some(WriteHint::Recovery) => mysql_request_type::RECOVERY_WRITE,
                    // MySQL does not distinguish synchronous from
                    // asynchronous replacement writes.
                    Some(WriteHint::Replacement) | Some(WriteHint::Synchronous) => {
                        mysql_request_type::REPLACEMENT_WRITE
                    }
                };
                // Reads are issued by the query thread; write-backs come from
                // the background flusher (thread 0), as in InnoDB.
                let thread = if write.is_some() { 0 } else { self.thread };
                let fix_count = if kind == ObjectKind::Index { 1 } else { 0 };
                self.builder
                    .intern_hints(self.client, &[thread, request_type, group, fix_count])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::ObjectSpec;
    use cache_sim::AccessKind;

    fn tiny_layout() -> (DatabaseLayout, ObjectId, ObjectId) {
        let mut layout = DatabaseLayout::new(0);
        let table = layout.add_object(ObjectSpec {
            name: "T".into(),
            kind: ObjectKind::Table,
            group: 0,
            pool: 0,
            priority: 1,
            initial_pages: 100,
        });
        let index = layout.add_object(ObjectSpec {
            name: "T_PK".into(),
            kind: ObjectKind::Index,
            group: 0,
            pool: 0,
            priority: 3,
            initial_pages: 10,
        });
        (layout, table, index)
    }

    fn small_pool() -> BufferPoolConfig {
        BufferPoolConfig {
            capacity: 8,
            dirty_high_watermark: 0.5,
            cleaner_batch: 4,
            checkpoint_interval: 0,
            checkpoint_batch: 4,
            priority_levels: 4,
        }
    }

    #[test]
    fn misses_become_hinted_read_requests() {
        let (layout, table, _) = tiny_layout();
        let mut dbms = DbmsSimulator::new("DB2_TEST", HintStyle::Db2, layout, &[small_pool()]);
        dbms.read(table, 5);
        dbms.read(table, 5); // buffer-pool hit: no storage request
        dbms.read(table, 6);
        let trace = dbms.finish();
        assert_eq!(trace.requests.iter().filter(|r| r.is_read()).count(), 2);
        let req = &trace.requests[0];
        assert_eq!(req.kind, AccessKind::Read);
        let label = trace.catalog.describe(req.hint);
        assert!(label.contains("request type=0"), "label was {label}");
        assert!(label.contains("buffer priority=1"), "label was {label}");
    }

    #[test]
    fn prefetch_scans_use_the_prefetch_hint() {
        let (layout, table, _) = tiny_layout();
        let mut dbms = DbmsSimulator::new("DB2_TEST", HintStyle::Db2, layout, &[small_pool()]);
        dbms.scan(table, 0, 4, true);
        let trace = dbms.finish();
        let prefetch_reads = trace.requests.iter().filter(|r| r.prefetch).count();
        assert_eq!(
            prefetch_reads, 3,
            "all but the first scan page are prefetched"
        );
    }

    #[test]
    fn updates_eventually_produce_write_requests_with_hints() {
        let (layout, table, _) = tiny_layout();
        let mut dbms = DbmsSimulator::new("DB2_TEST", HintStyle::Db2, layout, &[small_pool()]);
        for slot in 0..50u64 {
            dbms.update(table, slot);
        }
        let trace = dbms.finish();
        let writes: Vec<_> = trace.requests.iter().filter(|r| r.is_write()).collect();
        assert!(!writes.is_empty());
        // Every write carries a typed write hint and a categorical hint set
        // whose request-type value matches it.
        for w in &writes {
            let label = trace.catalog.describe(w.hint);
            match w.write_hint.unwrap() {
                WriteHint::Replacement => assert!(label.contains("request type=3"), "{label}"),
                WriteHint::Recovery => assert!(label.contains("request type=2"), "{label}"),
                WriteHint::Synchronous => assert!(label.contains("request type=4"), "{label}"),
            }
        }
    }

    #[test]
    fn mysql_style_hints_have_four_types() {
        let (layout, table, index) = tiny_layout();
        let mut dbms = DbmsSimulator::new("MY_TEST", HintStyle::MySql, layout, &[small_pool()]);
        dbms.set_thread(2);
        dbms.read(table, 1);
        dbms.read(index, 1);
        let trace = dbms.finish();
        assert_eq!(trace.catalog.schema(cache_sim::ClientId(0)).arity(), 4);
        let table_req = &trace.requests[0];
        let index_req = &trace.requests[1];
        let table_label = trace.catalog.describe(table_req.hint);
        let index_label = trace.catalog.describe(index_req.hint);
        assert!(table_label.contains("thread ID=2"), "{table_label}");
        assert!(table_label.contains("fix count=0"), "{table_label}");
        assert!(index_label.contains("fix count=1"), "{index_label}");
    }

    #[test]
    fn insert_append_grows_the_object() {
        let (layout, table, _) = tiny_layout();
        let before = layout.pages_of(table);
        let mut dbms = DbmsSimulator::new("DB2_TEST", HintStyle::Db2, layout, &[small_pool()]);
        for _ in 0..100 {
            dbms.insert_append(table);
        }
        assert!(dbms.layout().pages_of(table) > before);
        let trace = dbms.finish();
        // Inserts never read from storage.
        assert_eq!(trace.requests.iter().filter(|r| r.is_read()).count(), 0);
        // But dirty tail pages do get written back eventually.
        assert!(trace.requests.iter().any(|r| r.is_write()));
    }

    #[test]
    fn buffer_pool_absorbs_locality() {
        // A hot working set smaller than the pool produces almost no storage
        // traffic after the cold start; the same accesses with a tiny pool
        // produce much more.
        let make = |pool_pages: usize| {
            let (layout, table, _) = tiny_layout();
            let mut dbms = DbmsSimulator::new(
                "DB2_TEST",
                HintStyle::Db2,
                layout,
                &[BufferPoolConfig {
                    capacity: pool_pages,
                    ..small_pool()
                }],
            );
            for round in 0..200u64 {
                for slot in 0..20u64 {
                    dbms.read(table, slot);
                    let _ = round;
                }
            }
            dbms.finish().requests.len()
        };
        let big_pool_traffic = make(32);
        let small_pool_traffic = make(4);
        assert!(big_pool_traffic <= 25, "big pool should absorb the hot set");
        assert!(
            small_pool_traffic > 10 * big_pool_traffic,
            "small pool ({small_pool_traffic}) should leak far more requests than big pool ({big_pool_traffic})"
        );
    }

    #[test]
    #[should_panic(expected = "pool")]
    fn object_referencing_missing_pool_is_rejected() {
        let mut layout = DatabaseLayout::new(0);
        layout.add_object(ObjectSpec {
            name: "X".into(),
            kind: ObjectKind::Table,
            group: 0,
            pool: 3,
            priority: 0,
            initial_pages: 1,
        });
        let _ = DbmsSimulator::new("bad", HintStyle::Db2, layout, &[small_pool()]);
    }
}
