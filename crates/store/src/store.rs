//! [`PageStore`]: the façade over the disk manager, the frame arena and
//! the write-ahead log, with byte-level I/O accounting.
//!
//! The store synchronizes with three mutexes (see the crate docs for what
//! each protects, and for their order): the frames, the WAL, and the disk
//! manager's slots. The server calls a shard's store under that shard's
//! lock, so the frames and slot mutexes are uncontended there; the WAL has
//! its own so a log writer's [`PageStore::sync_wal`] never waits on frame
//! work.
//!
//! * reads prefer the arena and fall back to the disk tier through
//!   the disk manager's positioned I/O;
//! * writes are staged write-back: the WAL append is the acknowledgement
//!   point (with [`Durability`] deciding when the store also syncs the
//!   log, through its one log sync), then the frame is overwritten or
//!   installed dirty;
//! * evicting a dirty page writes it back straight from the departing
//!   frame's bytes;
//! * a flush pass holds the frames lock while it writes a batch back;
//! * a checkpoint flushes everything, syncs the data file, and truncates
//!   the WAL: at a clean shutdown, and before any append that finds
//!   [`PageStore::log_budget`] page records (four arena-fulls) already
//!   logged, so recovery replays at most that many.
//!
//! Every operation updates a set of shared atomic counters that callers
//! snapshot with [`PageStore::io_stats`]; the snapshot covers activity
//! since the store was opened (WAL recovery I/O is not counted).

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use cache_sim::policy::AccessOutcome;
use cache_sim::sync::{checked_lock, recover_lock};
use cache_sim::{IoStats, PageId, Request};
use clic_obs::{Counter, MetricsRegistry, MetricsSnapshot, Recorder, SpanKind};

use crate::disk::DiskManager;
use crate::fault::FaultInjector;
use crate::frame::FrameArena;
use crate::replay::page_payload;
use crate::wal::{page_record_len, sync_log, Durability, Wal, WalOp};

/// The paper-typical page size: 4 KiB.
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// Dirty frames written back per inline flush pass.
const FLUSH_BATCH: usize = 64;

/// The write-ahead log's budget, in arena-fulls of page records: an append
/// that finds `LOG_BUDGET_ARENAS × frames` page records' worth of log
/// already written checkpoints first, so a crash leaves at most that many
/// records to replay ([`PageStore::log_budget`]). Each checkpoint writes
/// back at most one arena, so the budget adds at most one page write per
/// four logged records.
const LOG_BUDGET_ARENAS: usize = 4;

/// Configuration for a [`PageStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the backing files (`store.pages`, `store.wal`);
    /// created if missing.
    pub dir: PathBuf,
    /// Bytes per page/frame.
    pub page_size: usize,
    /// Buffer-frame capacity. Must be at least the replacement policy's
    /// capacity: the store trusts the policy to evict before admitting, and
    /// staging into a full arena is an error, not an implicit eviction.
    pub frames: usize,
    /// When the write-ahead log also reaches the device: see
    /// [`Durability`].
    pub durability: Durability,
    /// When non-zero, a staging call that finds at least this many dirty
    /// frames flushes a batch *inline* — deterministic write-back, used by
    /// the benchmarks. Zero leaves write-back to evictions and checkpoints.
    pub flush_threshold: usize,
    /// Observability handle: trace spans (WAL append/fsync, group commit,
    /// flush passes) and latency histograms record here when enabled.
    /// Disabled by default, which costs nothing — the always-on [`IoStats`]
    /// counters do not depend on it.
    pub recorder: Recorder,
    /// Deterministic fault schedule armed at the disk and WAL I/O points
    /// ([`crate::FaultPoint`]). Disabled by default — one `Option` check
    /// per I/O. Faults injected here bump `store.injected_faults` in the
    /// store's metrics registry.
    pub fault: FaultInjector,
}

impl StoreConfig {
    /// A write-back store with `frames` buffer frames of
    /// [`DEFAULT_PAGE_SIZE`] bytes under `dir`, the WAL at
    /// [`Durability::Buffered`], no inline flushing.
    pub fn new(dir: impl AsRef<Path>, frames: usize) -> Self {
        StoreConfig {
            dir: dir.as_ref().to_path_buf(),
            page_size: DEFAULT_PAGE_SIZE,
            frames,
            durability: Durability::Buffered,
            flush_threshold: 0,
            recorder: Recorder::disabled(),
            fault: FaultInjector::disabled(),
        }
    }

    /// Sets the page size in bytes.
    pub fn with_page_size(mut self, page_size: usize) -> Self {
        self.page_size = page_size;
        self
    }

    /// Sets the WAL durability level.
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Sets the inline flush threshold (0 disables inline flushing).
    pub fn with_flush_threshold(mut self, threshold: usize) -> Self {
        self.flush_threshold = threshold;
        self
    }

    /// Attaches an observability [`Recorder`]. Shards created through
    /// [`StoreConfig::for_shard`] share it (a `Recorder` clone shares the
    /// underlying registry and trace rings), so one recorder sees the whole
    /// deployment.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Arms a [`FaultInjector`] at the store's disk and WAL I/O points.
    /// Shards created through [`StoreConfig::for_shard`] share it (a clone
    /// shares the schedule and its counters), so one injector drives — and
    /// one set of counts observes — the whole deployment.
    pub fn with_fault_injector(mut self, fault: FaultInjector) -> Self {
        self.fault = fault;
        self
    }

    /// The configuration for shard `shard` of `shards`: identical except
    /// that multi-shard deployments place each shard's files in their own
    /// `shard-N` subdirectory. A single-shard deployment keeps the base
    /// directory itself, so existing single-store layouts (and their
    /// recovery paths) are unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shards`.
    pub fn for_shard(&self, shard: usize, shards: usize) -> StoreConfig {
        assert!(shard < shards, "shard {shard} out of range for {shards}");
        let mut config = self.clone();
        if shards > 1 {
            config.dir = self.dir.join(format!("shard-{shard}"));
        }
        config
    }
}

/// Where a [`PageStore::read`] found its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadSource {
    /// Served from a resident buffer frame — no disk access.
    Buffer,
    /// Read from the backing file (a disk-tier access).
    Disk,
    /// The disk tier holds no copy: the read went to the disk and came back
    /// empty, so the page reads as zeroes (counted as a disk access — a
    /// real server would fetch the page from the underlying device all the
    /// same).
    Zero,
}

/// Registry-backed mirror of [`IoStats`]: the handles live in the store's
/// own [`MetricsRegistry`] under `store.*` names, cached here at open so
/// every hot-path bump is still one relaxed `fetch_add` — accounting never
/// serializes concurrent operations, and the same cells feed both
/// [`PageStore::io_stats`] (exact, always on) and
/// [`PageStore::metrics`] snapshots.
#[derive(Debug)]
struct IoCounters {
    bytes_read: Counter,
    bytes_written: Counter,
    buffer_hits: Counter,
    buffer_misses: Counter,
    disk_reads: Counter,
    disk_writes: Counter,
    disk_bytes_read: Counter,
    disk_bytes_written: Counter,
    pages_flushed: Counter,
    eviction_flushes: Counter,
    wal_records: Counter,
    wal_bytes: Counter,
    data_syncs: Counter,
    wal_syncs: Counter,
    group_commits: Counter,
    /// Registry-only (not part of [`IoStats`]): pages deleted via
    /// [`PageStore::delete`], surfaced through [`PageStore::metrics`].
    page_deletes: Counter,
}

impl IoCounters {
    fn new(registry: &MetricsRegistry) -> IoCounters {
        IoCounters {
            bytes_read: registry.counter("store.bytes_read"),
            bytes_written: registry.counter("store.bytes_written"),
            buffer_hits: registry.counter("store.buffer_hits"),
            buffer_misses: registry.counter("store.buffer_misses"),
            disk_reads: registry.counter("store.disk_reads"),
            disk_writes: registry.counter("store.disk_writes"),
            disk_bytes_read: registry.counter("store.disk_bytes_read"),
            disk_bytes_written: registry.counter("store.disk_bytes_written"),
            pages_flushed: registry.counter("store.pages_flushed"),
            eviction_flushes: registry.counter("store.eviction_flushes"),
            wal_records: registry.counter("store.wal_records"),
            wal_bytes: registry.counter("store.wal_bytes"),
            data_syncs: registry.counter("store.data_syncs"),
            wal_syncs: registry.counter("store.wal_syncs"),
            group_commits: registry.counter("store.group_commits"),
            page_deletes: registry.counter("store.page_deletes"),
        }
    }

    fn snapshot(&self) -> IoStats {
        IoStats {
            bytes_read: self.bytes_read.get(),
            bytes_written: self.bytes_written.get(),
            buffer_hits: self.buffer_hits.get(),
            buffer_misses: self.buffer_misses.get(),
            disk_reads: self.disk_reads.get(),
            disk_writes: self.disk_writes.get(),
            disk_bytes_read: self.disk_bytes_read.get(),
            disk_bytes_written: self.disk_bytes_written.get(),
            pages_flushed: self.pages_flushed.get(),
            eviction_flushes: self.eviction_flushes.get(),
            wal_records: self.wal_records.get(),
            wal_bytes: self.wal_bytes.get(),
            data_syncs: self.data_syncs.get(),
            wal_syncs: self.wal_syncs.get(),
            group_commits: self.group_commits.get(),
        }
    }
}

/// The disk-backed page store: buffer frames over a backing file, staged
/// write-back through a WAL, forced flush on dirty eviction.
///
/// `Sync`: share it behind an `Arc`. Callers must serialize operations on
/// the *same* page, because [`PageStore::mirror`]'s read-then-admit is two
/// steps (the sharded server does: it calls a shard's store under that
/// shard's lock).
pub struct PageStore {
    disk: DiskManager,
    frames: Mutex<FrameArena>,
    wal: Mutex<Wal>,
    /// The log file's descriptor, cloned at open: the store's one log sync
    /// syncs through it outside the WAL mutex.
    log_file: File,
    /// The fault schedule, armed at that sync too.
    fault: FaultInjector,
    /// The store's own metrics registry — always on, backing
    /// [`PageStore::io_stats`] / [`PageStore::metrics`].
    registry: MetricsRegistry,
    io: IoCounters,
    /// Trace spans and histograms; zero-cost when disabled.
    recorder: Recorder,
    flush_threshold: usize,
    page_size: usize,
    durability: Durability,
    /// Page records the log holds before an append checkpoints first:
    /// [`LOG_BUDGET_ARENAS`] arena-fulls.
    log_budget: u64,
    recovered_writes: u64,
}

impl std::fmt::Debug for PageStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageStore")
            .field("page_size", &self.page_size)
            .field("durability", &self.durability)
            .field("recovered_writes", &self.recovered_writes)
            .finish_non_exhaustive()
    }
}

/// Locks the WAL or the frames, surfacing poison as a clean I/O error
/// instead of a cascading panic: a panicked holder may have left either
/// half-updated.
fn guard<T>(lock: &Mutex<T>) -> io::Result<MutexGuard<'_, T>> {
    checked_lock(lock).map_err(io::Error::other)
}

impl PageStore {
    /// Opens the store: creates `config.dir` if needed, opens the backing
    /// file, replays acknowledged writes that never reached the backing
    /// file from the WAL, syncs them, and truncates the log.
    /// [`PageStore::recovered_writes`] reports how many records that replay
    /// applied.
    pub fn open(config: StoreConfig) -> io::Result<PageStore> {
        assert!(config.frames > 0, "at least one buffer frame is required");
        std::fs::create_dir_all(&config.dir)?;
        let registry = MetricsRegistry::new();
        config
            .fault
            .attach_counter(registry.counter("store.injected_faults"));
        let disk = DiskManager::open_with(
            &config.dir.join("store.pages"),
            config.page_size,
            config.fault.clone(),
        )?;
        let (mut wal, records) = Wal::open_with(
            &config.dir.join("store.wal"),
            config.durability,
            config.fault.clone(),
        )?;
        for record in &records {
            match &record.op {
                WalOp::Write(data) => {
                    if data.len() != config.page_size {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "WAL record page size disagrees with the store page size",
                        ));
                    }
                    disk.write_page(record.page, data)?;
                }
                WalOp::Delete => {
                    disk.free_page(record.page)?;
                }
            }
        }
        if !records.is_empty() {
            disk.sync()?;
        }
        wal.truncate()?;
        let log_file = wal.file().try_clone()?;
        let io = IoCounters::new(&registry);
        Ok(PageStore {
            disk,
            frames: Mutex::new(FrameArena::new(config.frames, config.page_size)),
            wal: Mutex::new(wal),
            log_file,
            fault: config.fault,
            registry,
            io,
            recorder: config.recorder,
            flush_threshold: config.flush_threshold,
            page_size: config.page_size,
            durability: config.durability,
            log_budget: (LOG_BUDGET_ARENAS * config.frames) as u64,
            recovered_writes: records.len() as u64,
        })
    }

    /// Bytes per page.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Acknowledged writes replayed from the WAL when the store was opened:
    /// those since the last checkpoint, so at most
    /// [`PageStore::log_budget`] (zero after a clean shutdown, whose
    /// checkpoint empties the log).
    pub fn recovered_writes(&self) -> u64 {
        self.recovered_writes
    }

    /// Page records the log may hold: an append that finds this many
    /// already logged checkpoints first, so a reopen replays at most this
    /// many. Four arena-fulls, whatever the durability level.
    pub fn log_budget(&self) -> u64 {
        self.log_budget
    }

    /// Reads `page` into `out` (resized to one page): from its buffer frame
    /// if resident, otherwise from the disk tier. See [`ReadSource`] for the
    /// three outcomes; torn frames surface as
    /// [`io::ErrorKind::InvalidData`].
    ///
    /// A buffer hit takes the frames lock only; a miss releases it before
    /// the disk read.
    pub fn read(&self, page: PageId, out: &mut Vec<u8>) -> io::Result<ReadSource> {
        out.clear();
        out.resize(self.page_size, 0);
        self.io.bytes_read.add(self.page_size as u64);
        if let Some(bytes) = guard(&self.frames)?.read(page) {
            out.copy_from_slice(bytes);
            self.io.buffer_hits.inc();
            return Ok(ReadSource::Buffer);
        }
        self.io.buffer_misses.inc();
        self.io.disk_reads.inc();
        self.io.disk_bytes_read.add(self.page_size as u64);
        if self.disk.read_page(page, out)? {
            Ok(ReadSource::Disk)
        } else {
            Ok(ReadSource::Zero)
        }
    }

    /// Installs `data` as a *clean* resident frame for `page` (bytes just
    /// read from disk that the policy decided to admit). Fails if the arena
    /// is full — the policy must have evicted first.
    pub fn admit(&self, page: PageId, data: &[u8]) -> io::Result<()> {
        if !guard(&self.frames)?.install(page, data, false) {
            return Err(io::Error::other(
                "frame arena full: the policy must evict before admitting",
            ));
        }
        Ok(())
    }

    /// Stages a write-back write of `data` to `page`: appends a WAL record
    /// (the acknowledgement point — once this returns, the write survives a
    /// process crash, and the [`Durability`] level says when it also
    /// reaches the device), then installs or overwrites the page's frame
    /// dirty. When the inline flush threshold is reached, a batch of dirty
    /// frames is written back before returning. When the log holds its
    /// budget, a checkpoint runs first ([`PageStore::checkpoint`]), and if
    /// it fails the write is refused before its record exists.
    ///
    /// Fails if the page is not resident and the arena is full.
    pub fn stage(&self, page: PageId, data: &[u8]) -> io::Result<()> {
        assert_eq!(data.len(), self.page_size, "data must be one page");
        self.io.bytes_written.add(self.page_size as u64);
        let mut arena = self.log(|wal| wal.append(page, data))?;
        if let Some(frame) = arena.write(page) {
            frame.copy_from_slice(data);
        } else if !arena.install(page, data, true) {
            return Err(io::Error::other(
                "frame arena full: the policy must evict before staging",
            ));
        }
        if self.flush_threshold > 0 && arena.dirty_len() >= self.flush_threshold {
            self.flush_frames(&mut arena, FLUSH_BATCH)?;
        }
        Ok(())
    }

    /// Appends one WAL record through `append` — the one log-append site,
    /// shared by [`PageStore::stage`] and [`PageStore::delete`] — accounts
    /// it (record and byte counters, a `WalAppend` span), then syncs the
    /// log if its [`Durability`] wants a sync now. A log that holds its
    /// budget is checkpointed first. Returns the frames, locked before the
    /// WAL and still locked, so the caller applies the record to them
    /// before any checkpoint can truncate it (lock order: crate docs).
    fn log(
        &self,
        append: impl FnOnce(&mut Wal) -> io::Result<u64>,
    ) -> io::Result<MutexGuard<'_, FrameArena>> {
        let mut arena = guard(&self.frames)?;
        let mut wal = guard(&self.wal)?;
        if wal.len_bytes() >= self.log_budget * page_record_len(self.page_size) {
            drop(wal);
            self.checkpoint_frames(&mut arena)?;
            wal = guard(&self.wal)?;
        }
        let start_ns = self.recorder.clock().map(|clock| clock.now_nanos());
        let bytes = append(&mut wal)?;
        let due = wal.sync_due();
        drop(wal);
        self.io.wal_records.inc();
        self.io.wal_bytes.add(bytes);
        if let (Some(start_ns), Some(clock)) = (start_ns, self.recorder.clock()) {
            self.recorder
                .event(SpanKind::WalAppend, start_ns, clock.now_nanos(), bytes);
        }
        // The sync runs before the frames are released: no append can land
        // between its `unsynced` and its publish, so the pending count it
        // resets is exactly the one it covered.
        if let Some(pending) = due {
            self.sync_wal(pending)?;
        }
        Ok(arena)
    }

    /// Writes `data` straight to the backing file, bypassing the buffer
    /// (used when the policy declines to admit the page). The page must not
    /// be resident — a resident page is written through [`PageStore::stage`].
    pub fn write_through(&self, page: PageId, data: &[u8]) -> io::Result<()> {
        assert_eq!(data.len(), self.page_size, "data must be one page");
        debug_assert!(
            !recover_lock(&self.frames).contains(page),
            "write_through on a resident page"
        );
        self.io.bytes_written.add(self.page_size as u64);
        self.disk.write_page(page, data)?;
        self.io.disk_writes.inc();
        self.io.disk_bytes_written.add(self.page_size as u64);
        Ok(())
    }

    /// Drops `page`'s buffer frame because the policy evicted it. A dirty
    /// frame is written back first — straight from the departing frame's
    /// bytes, no intermediate copy — and that is reported as `Ok(true)`.
    /// A no-op returning `Ok(false)` if the page is not resident.
    pub fn evict(&self, page: PageId) -> io::Result<bool> {
        match guard(&self.frames)?.evict(page) {
            Some(frame) if frame.dirty() => {
                self.disk.write_page(page, &frame)?;
                self.io.disk_writes.inc();
                self.io.disk_bytes_written.add(self.page_size as u64);
                self.io.pages_flushed.inc();
                self.io.eviction_flushes.inc();
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// The mirror: applies one policy decision to the data plane, so the
    /// buffer frames always hold exactly the pages the policy caches. This
    /// is the only place a policy outcome turns into store operations — the
    /// offline replay and the server's shard path both call it.
    ///
    /// `victims` (the policy's drained evictions) are evicted first, in
    /// order — eviction order is write-back order, and the frames must be
    /// free before the new page needs one. Then a **read** fetches the page
    /// into `buf` and installs it as a clean frame iff the policy admitted
    /// the miss; a **write** stores `payload` (zero-padded or truncated to
    /// one page; the deterministic [`page_payload`] when `None`) — staged
    /// write-back through the WAL when cached, written straight through to
    /// disk when bypassed — using `buf` as scratch.
    pub fn mirror(
        &self,
        req: &Request,
        outcome: AccessOutcome,
        victims: &mut Vec<PageId>,
        payload: Option<&[u8]>,
        buf: &mut Vec<u8>,
    ) -> io::Result<()> {
        for victim in victims.drain(..) {
            self.evict(victim)?;
        }
        if req.is_read() {
            let source = self.read(req.page, buf)?;
            debug_assert_eq!(
                outcome.hit,
                source == ReadSource::Buffer,
                "policy hit/miss and buffer residency disagree for {}",
                req.page
            );
            if !outcome.hit && !outcome.bypassed {
                self.admit(req.page, buf)?;
            }
            return Ok(());
        }
        match payload {
            Some(bytes) => {
                buf.clear();
                buf.extend_from_slice(&bytes[..bytes.len().min(self.page_size)]);
                buf.resize(self.page_size, 0);
            }
            None => *buf = page_payload(req.page, self.page_size),
        }
        if outcome.bypassed {
            self.write_through(req.page, buf)
        } else {
            self.stage(req.page, buf)
        }
    }

    /// Deletes `page` from the store: a WAL delete record is appended (so
    /// crash recovery replays the delete instead of resurrecting the page
    /// from an earlier staged write), then any resident frame is discarded
    /// *without* write-back (deleted bytes must not resurrect via a flush),
    /// and the page is freed in the backing file. Returns whether the
    /// backing file held the page.
    ///
    /// A refused append leaves the page as it was: its frame, dirty or
    /// not, stays resident, so the last acknowledged write still reads.
    ///
    /// Same caller contract as every other per-page operation: operations
    /// on the same page must be serialized by the caller.
    pub fn delete(&self, page: PageId) -> io::Result<bool> {
        // The frames stay locked until the page is freed: a checkpoint
        // that truncated the delete record before then would resurrect it.
        let mut arena = self.log(|wal| wal.append_delete(page))?;
        drop(arena.evict(page));
        self.io.page_deletes.inc();
        self.disk.free_page(page)
    }

    /// Hands the sync of a `GroupCommit` or `Strict` log to the caller,
    /// who then syncs with [`PageStore::sync_wal`] (the server's contract,
    /// [`crate::wal`] module docs): no staging call syncs the log after it.
    /// Returns whether there was such a log.
    pub fn hand_off_wal_sync(&self) -> io::Result<bool> {
        if self.durability == Durability::Buffered {
            return Ok(false);
        }
        guard(&self.wal)?.hand_off_sync();
        Ok(true)
    }

    /// Syncs the log up to its last append, then publishes
    /// [`PageStore::wal_synced_len`]: what a server's log writer runs after
    /// [`PageStore::hand_off_wal_sync`], and what a staging call runs when
    /// its [`Durability`] wants a sync. `acks` counts the acknowledgements
    /// the sync releases: the detail of its `WalFsync` and `GroupCommit`
    /// spans, and a group commit when above one. A no-op when nothing is
    /// unsynced. A failed sync fails the store closed: this and every
    /// later logged write, sync and checkpoint is refused until the store
    /// is reopened.
    pub fn sync_wal(&self, acks: u64) -> io::Result<()> {
        let Some(reach) = guard(&self.wal)?.unsynced()? else {
            return Ok(());
        };
        self.sync_log_to(reach, acks)
    }

    /// The store's one log sync: every `fsync` of the log file runs here,
    /// a staging call's and a log writer's ([`PageStore::sync_wal`]) as
    /// well as a checkpoint's. Syncs outside the WAL mutex, so a log
    /// writer never holds it across the `fsync`, then publishes that the
    /// log is durable up to log position `reach`, or fails it closed.
    fn sync_log_to(&self, reach: u64, acks: u64) -> io::Result<()> {
        let start_ns = self.recorder.clock().map(|clock| clock.now_nanos());
        let synced = sync_log(&self.log_file, &self.fault);
        guard(&self.wal)?.publish_sync(reach, synced)?;
        self.io.wal_syncs.inc();
        self.io.group_commits.add(u64::from(acks > 1));
        if let (Some(start_ns), Some(clock)) = (start_ns, self.recorder.clock()) {
            let end_ns = clock.now_nanos();
            self.recorder
                .event(SpanKind::WalFsync, start_ns, end_ns, acks);
            if acks > 1 {
                self.recorder
                    .event(SpanKind::GroupCommit, start_ns, end_ns, acks);
            }
        }
        Ok(())
    }

    /// Writes back up to `max` dirty frames in frame order (marking them
    /// clean, keeping them resident). Returns how many were flushed. The one
    /// write-back routine: the inline threshold and checkpoints both run it,
    /// holding the frames lock for the whole pass.
    pub fn flush_some(&self, max: usize) -> io::Result<usize> {
        self.flush_frames(&mut *guard(&self.frames)?, max)
    }

    fn flush_frames(&self, arena: &mut FrameArena, max: usize) -> io::Result<usize> {
        let mut span = self.recorder.span(SpanKind::FlushPass);
        let mut list = Vec::new();
        arena.dirty_pages(max, &mut list);
        let mut flushed = 0usize;
        for &page in &list {
            let Some(bytes) = arena.read(page) else {
                continue;
            };
            self.disk.write_page(page, bytes)?;
            arena.mark_clean(page);
            self.io.disk_writes.inc();
            self.io.disk_bytes_written.add(self.page_size as u64);
            self.io.pages_flushed.inc();
            flushed += 1;
        }
        if flushed == 0 {
            // Empty passes would otherwise flood the trace ring.
            span.cancel();
        } else {
            span.set_detail(flushed as u64);
        }
        Ok(flushed)
    }

    /// Durability point, run at a clean shutdown and whenever the log
    /// reaches its budget ([`PageStore::log_budget`]): flushes every dirty
    /// frame, syncs the backing file, and truncates and syncs the WAL (its
    /// records are now redundant). Returns how many frames the flush wrote
    /// back. The frames stay locked throughout, so no record is logged
    /// between the flush and the truncation.
    ///
    /// A failed sync, of the backing file or of the truncated log, fails
    /// the store closed: the kernel may have dropped the pages it was
    /// writing, so the log is never truncated again, and every later write
    /// and checkpoint is refused until the store is reopened.
    pub fn checkpoint(&self) -> io::Result<usize> {
        self.checkpoint_frames(&mut *guard(&self.frames)?)
    }

    /// [`PageStore::checkpoint`] under the frames lock its caller holds: a
    /// staging call's budget checkpoint runs here without letting go of
    /// the frames between the checkpoint and its own append.
    fn checkpoint_frames(&self, arena: &mut FrameArena) -> io::Result<usize> {
        guard(&self.wal)?.check()?;
        let flushed = self.flush_frames(arena, usize::MAX)?;
        let synced = self.disk.sync();
        let mut wal = guard(&self.wal)?;
        let reach = synced.and_then(|()| {
            self.io.data_syncs.inc();
            wal.truncate()
        });
        if reach.is_err() {
            wal.fail();
        }
        drop(wal);
        self.sync_log_to(reach?, 0)?;
        Ok(flushed)
    }

    /// A snapshot of the byte-level I/O counters (activity since open).
    pub fn io_stats(&self) -> IoStats {
        self.io.snapshot()
    }

    /// A named snapshot of the store's own metrics registry (the `store.*`
    /// counters behind [`PageStore::io_stats`]). Always available —
    /// counters do not depend on a [`Recorder`] being attached — and
    /// mergeable across shard stores via
    /// [`MetricsSnapshot::merge`].
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// The observability recorder the store was opened with (disabled by
    /// default).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Number of resident buffer frames.
    pub fn buffered_len(&self) -> usize {
        recover_lock(&self.frames).len()
    }

    /// Number of resident dirty frames.
    pub fn dirty_len(&self) -> usize {
        recover_lock(&self.frames).dirty_len()
    }

    /// Whether `page` is resident in a buffer frame.
    pub fn contains_buffered(&self, page: PageId) -> bool {
        recover_lock(&self.frames).contains(page)
    }

    /// Number of live pages in the backing file.
    pub fn pages_on_disk(&self) -> usize {
        self.disk.allocated_pages()
    }

    /// Bytes of acknowledged WAL.
    pub fn wal_len(&self) -> u64 {
        recover_lock(&self.wal).len_bytes()
    }

    /// Bytes of WAL known flushed to the device — what survives even a
    /// kernel crash, always a record boundary. The durability-level crash
    /// tests truncate the log here to model losing OS-buffered bytes.
    pub fn wal_synced_len(&self) -> u64 {
        recover_lock(&self.wal).synced_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultPoint;
    use std::time::Duration;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("clic-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn payload(seed: u8, page_size: usize) -> Vec<u8> {
        (0..page_size).map(|i| seed.wrapping_add(i as u8)).collect()
    }

    #[test]
    fn read_paths_and_byte_accounting() {
        let dir = temp_dir("paths");
        let store = PageStore::open(StoreConfig::new(&dir, 4).with_page_size(64)).unwrap();
        let mut out = Vec::new();
        // Never-written page: disk tier comes back empty, reads as zeroes.
        assert_eq!(store.read(PageId(9), &mut out).unwrap(), ReadSource::Zero);
        assert_eq!(out, vec![0u8; 64]);
        // Staged write is a buffer hit...
        store.stage(PageId(1), &payload(1, 64)).unwrap();
        assert_eq!(store.read(PageId(1), &mut out).unwrap(), ReadSource::Buffer);
        assert_eq!(out, payload(1, 64));
        // ...and once evicted (dirty → forced flush) it comes from disk.
        assert!(store.evict(PageId(1)).unwrap());
        assert_eq!(store.read(PageId(1), &mut out).unwrap(), ReadSource::Disk);
        assert_eq!(out, payload(1, 64));
        let io = store.io_stats();
        assert_eq!(io.buffer_hits, 1);
        assert_eq!(io.buffer_misses, 2);
        assert_eq!(io.disk_reads, 2);
        assert_eq!(io.disk_writes, 1);
        assert_eq!(io.eviction_flushes, 1);
        assert_eq!(io.bytes_read, 3 * 64);
        assert_eq!(io.bytes_written, 64);
        assert_eq!(io.wal_records, 1);
        assert_eq!(io.wal_syncs, 0, "buffered durability never syncs inline");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admit_is_clean_and_bounded_by_the_arena() {
        let dir = temp_dir("admit");
        let store = PageStore::open(StoreConfig::new(&dir, 2).with_page_size(32)).unwrap();
        store.admit(PageId(1), &payload(1, 32)).unwrap();
        store.admit(PageId(2), &payload(2, 32)).unwrap();
        assert_eq!(store.dirty_len(), 0);
        let err = store.admit(PageId(3), &payload(3, 32)).unwrap_err();
        assert!(err.to_string().contains("evict"));
        // Clean eviction writes nothing back.
        assert!(!store.evict(PageId(1)).unwrap());
        assert_eq!(store.io_stats().disk_writes, 0);
        store.admit(PageId(3), &payload(3, 32)).unwrap();
        assert_eq!(store.buffered_len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inline_flush_threshold_bounds_dirty_frames() {
        let dir = temp_dir("threshold");
        let store = PageStore::open(
            StoreConfig::new(&dir, 8)
                .with_page_size(32)
                .with_flush_threshold(3),
        )
        .unwrap();
        for p in 0..6u64 {
            store.stage(PageId(p), &payload(p as u8, 32)).unwrap();
        }
        // Every time the dirty count reaches 3 a batch is flushed, so it
        // can never exceed the threshold.
        assert!(store.dirty_len() <= 3);
        assert!(store.io_stats().pages_flushed >= 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_then_reopen_recovers_nothing() {
        let dir = temp_dir("checkpoint");
        {
            let store = PageStore::open(StoreConfig::new(&dir, 4).with_page_size(32)).unwrap();
            store.stage(PageId(7), &payload(7, 32)).unwrap();
            store.checkpoint().unwrap();
        }
        let store = PageStore::open(StoreConfig::new(&dir, 4).with_page_size(32)).unwrap();
        assert_eq!(store.recovered_writes(), 0, "clean shutdown leaves no WAL");
        let mut out = Vec::new();
        assert_eq!(store.read(PageId(7), &mut out).unwrap(), ReadSource::Disk);
        assert_eq!(out, payload(7, 32));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_without_checkpoint_recovers_from_wal() {
        let dir = temp_dir("crash");
        {
            let store = PageStore::open(StoreConfig::new(&dir, 4).with_page_size(32)).unwrap();
            store.stage(PageId(1), &payload(1, 32)).unwrap();
            store.stage(PageId(2), &payload(2, 32)).unwrap();
            store.stage(PageId(1), &payload(9, 32)).unwrap(); // overwrite
            assert_eq!(store.pages_on_disk(), 0, "nothing flushed yet");
        } // crash: dropped without checkpoint, dirty frames lost
        let store = PageStore::open(StoreConfig::new(&dir, 4).with_page_size(32)).unwrap();
        assert_eq!(store.recovered_writes(), 3);
        let mut out = Vec::new();
        assert_eq!(store.read(PageId(1), &mut out).unwrap(), ReadSource::Disk);
        assert_eq!(out, payload(9, 32), "last acknowledged write wins");
        assert_eq!(store.read(PageId(2), &mut out).unwrap(), ReadSource::Disk);
        assert_eq!(out, payload(2, 32));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delete_discards_frame_disk_copy_and_survives_a_crash() {
        let dir = temp_dir("delete");
        {
            let store = PageStore::open(StoreConfig::new(&dir, 4).with_page_size(32)).unwrap();
            // Flushed page: delete must free the disk copy.
            store.stage(PageId(1), &payload(1, 32)).unwrap();
            store.flush_some(usize::MAX).unwrap();
            assert_eq!(store.pages_on_disk(), 1);
            assert!(store.delete(PageId(1)).unwrap());
            assert_eq!(store.pages_on_disk(), 0);
            assert!(!store.contains_buffered(PageId(1)));
            let mut out = Vec::new();
            assert_eq!(store.read(PageId(1), &mut out).unwrap(), ReadSource::Zero);
            assert_eq!(store.metrics().counter("store.page_deletes"), 1);
            // Dirty, never-flushed page: the WAL holds an acknowledged
            // write, so the delete record must win at replay.
            store.stage(PageId(2), &payload(2, 32)).unwrap();
            assert!(!store.delete(PageId(2)).unwrap(), "never reached disk");
        } // crash: no checkpoint, WAL replays on reopen
        let store = PageStore::open(StoreConfig::new(&dir, 4).with_page_size(32)).unwrap();
        let mut out = Vec::new();
        assert_eq!(
            store.read(PageId(2), &mut out).unwrap(),
            ReadSource::Zero,
            "replayed delete must not resurrect the staged write"
        );
        assert_eq!(store.read(PageId(1), &mut out).unwrap(), ReadSource::Zero);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_delete_records_its_wal_append_span() {
        let dir = temp_dir("delete-span");
        let recorder = Recorder::with_clock(clic_obs::Clock::mock());
        let store = PageStore::open(
            StoreConfig::new(&dir, 4)
                .with_page_size(32)
                .with_durability(Durability::Strict)
                .with_recorder(recorder.clone()),
        )
        .unwrap();
        store.stage(PageId(1), &payload(1, 32)).unwrap();
        store.delete(PageId(1)).unwrap();
        let trace = recorder.drain_trace();
        let count = |kind| trace.events.iter().filter(|e| e.kind == kind).count();
        assert_eq!(count(SpanKind::WalAppend), 2, "a delete's append is traced");
        assert_eq!(count(SpanKind::WalFsync), 2, "so is a strict delete's sync");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_poisoned_wal_fails_writes_with_an_io_error() {
        let dir = temp_dir("poison");
        let store = PageStore::open(StoreConfig::new(&dir, 4).with_page_size(32)).unwrap();
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _wal = checked_lock(&store.wal).unwrap();
                panic!("poison the WAL mutex");
            });
            assert!(holder.join().is_err());
        });
        let err = store.stage(PageId(1), &payload(1, 32)).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        assert!(!store.contains_buffered(PageId(1)), "nothing was staged");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durability_levels_account_their_syncs() {
        let page = |p: u64| PageId(p);
        // Strict: one WAL sync per staged write.
        let dir = temp_dir("strict");
        let store = PageStore::open(
            StoreConfig::new(&dir, 8)
                .with_page_size(32)
                .with_durability(Durability::Strict),
        )
        .unwrap();
        for p in 0..5u64 {
            store.stage(page(p), &payload(p as u8, 32)).unwrap();
        }
        let strict_io = store.io_stats();
        assert_eq!(strict_io.wal_syncs, 5);
        assert_eq!(strict_io.group_commits, 0);
        assert_eq!(store.wal_synced_len(), store.wal_len());
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);

        // Group commit: one sync per max_batch appends.
        let dir = temp_dir("group");
        let store = PageStore::open(
            StoreConfig::new(&dir, 8)
                .with_page_size(32)
                .with_durability(Durability::GroupCommit {
                    max_batch: 5,
                    max_wait: Duration::from_secs(3600),
                }),
        )
        .unwrap();
        for p in 0..5u64 {
            store.stage(page(p), &payload(p as u8, 32)).unwrap();
        }
        let group_io = store.io_stats();
        assert_eq!(group_io.wal_syncs, 1, "five appends share one sync");
        assert_eq!(group_io.group_commits, 1);
        assert!(group_io.fsyncs() < strict_io.fsyncs());
        assert_eq!(store.wal_synced_len(), store.wal_len());
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Records left in the log after `appended` page records since open:
    /// those since the last budget checkpoint, which runs before an append
    /// that finds `budget` records logged.
    fn records_since_checkpoint(appended: u64, budget: u64) -> u64 {
        appended - (appended.saturating_sub(1) / budget) * budget
    }

    #[test]
    fn concurrent_readers_and_writers_on_disjoint_pages() {
        const FRAMES: usize = 64;
        const ROUNDS: u64 = 32;
        let dir = temp_dir("concurrent");
        let config = || StoreConfig::new(&dir, FRAMES).with_page_size(32);
        let expected = |t: u64, i: u64, round: u64| payload((t * 8 + i + round * 32) as u8, 32);
        let store = std::sync::Arc::new(PageStore::open(config()).unwrap());
        // 4 writers × 8 pages × 32 rounds: 1 024 records against a budget
        // of 256, so the writers cross three checkpoints, each run by
        // whichever writer's append found the log full.
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let store = std::sync::Arc::clone(&store);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for round in 0..ROUNDS {
                        for i in 0..8u64 {
                            let page = PageId(t * 1_000 + i);
                            let data = expected(t, i, round);
                            store.stage(page, &data).unwrap();
                            assert_eq!(store.read(page, &mut out).unwrap(), ReadSource::Buffer);
                            assert_eq!(out, data);
                        }
                    }
                });
            }
        });
        assert_eq!(store.buffered_len(), 32);
        let io = store.io_stats();
        let budget = (LOG_BUDGET_ARENAS * FRAMES) as u64;
        assert_eq!(io.buffer_hits, 4 * 8 * ROUNDS);
        assert_eq!(io.wal_records, 4 * 8 * ROUNDS);
        assert_eq!(io.data_syncs, 3, "three budget checkpoints");
        assert_eq!(
            store.wal_len(),
            records_since_checkpoint(io.wal_records, budget) * page_record_len(32)
        );
        drop(store); // crash: no checkpoint
        let store = PageStore::open(config()).unwrap();
        assert_eq!(
            store.recovered_writes(),
            records_since_checkpoint(io.wal_records, budget)
        );
        let mut out = Vec::new();
        for t in 0..4u64 {
            for i in 0..8u64 {
                let page = PageId(t * 1_000 + i);
                store.read(page, &mut out).unwrap();
                assert_eq!(
                    out,
                    expected(t, i, ROUNDS - 1),
                    "page {t}/{i} after recovery"
                );
                // Recovery leaves the arena empty: stage the page once more
                // so the clean checkpoint below has every page to flush.
                store.stage(page, &out).unwrap();
            }
        }
        assert_eq!(store.checkpoint().unwrap(), 32);
        assert_eq!(store.dirty_len(), 0);
        assert_eq!(store.wal_len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_checkpoint_sync_fails_the_store_closed() {
        for (point, tag) in [(FaultPoint::DataSync, "data"), (FaultPoint::WalSync, "log")] {
            let dir = temp_dir(&format!("failed-checkpoint-{tag}"));
            let config = StoreConfig::new(&dir, 4).with_page_size(32);
            let fault = FaultInjector::seeded(1).fault_at(point, 0);
            let store = PageStore::open(config.clone().with_fault_injector(fault)).unwrap();
            store.stage(PageId(1), &payload(1, 32)).unwrap();
            assert!(store.checkpoint().is_err(), "{tag}: the first sync fails");
            assert!(store.stage(PageId(2), &payload(2, 32)).is_err(), "{tag}");
            assert!(store.delete(PageId(1)).is_err(), "{tag}");
            assert!(store.checkpoint().is_err(), "{tag}: a later checkpoint");
            drop(store);
            let store = PageStore::open(config).unwrap();
            let mut out = Vec::new();
            store.read(PageId(1), &mut out).unwrap();
            assert_eq!(out, payload(1, 32), "{tag}: the acknowledged write");
            assert_eq!(store.read(PageId(2), &mut out).unwrap(), ReadSource::Zero);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_failed_inline_sync_fails_a_bare_store_closed() {
        for durability in [Durability::Strict, Durability::group_commit()] {
            let tag = durability.label();
            let dir = temp_dir(&format!("failed-inline-{tag}"));
            let config = StoreConfig::new(&dir, 64)
                .with_page_size(32)
                .with_durability(durability);
            let fault = FaultInjector::seeded(1).fault_at(FaultPoint::WalSync, 1);
            let store = PageStore::open(config.clone().with_fault_injector(fault)).unwrap();
            // Write n to page n until the second sync fails: write 2 for
            // Strict, a later one for group commit, well inside the budget.
            let mut acked = Vec::new();
            let failed = (1..=32u64)
                .find(|&n| match store.stage(PageId(n), &payload(n as u8, 32)) {
                    Ok(()) => {
                        acked.push(n);
                        false
                    }
                    Err(err) => {
                        assert!(err.to_string().contains(FaultPoint::WalSync.label()));
                        true
                    }
                })
                .expect("the second sync fails");
            let wal_len = store.wal_len();
            let next = failed + 1;
            assert!(
                store.stage(PageId(next), &payload(1, 32)).is_err(),
                "{tag}: write {next} after the failed sync"
            );
            assert!(store.stage(PageId(1), &payload(2, 32)).is_err(), "{tag}");
            assert!(store.delete(PageId(1)).is_err(), "{tag}");
            assert!(store.sync_wal(1).is_err(), "{tag}: a later sync");
            assert!(store.checkpoint().is_err(), "{tag}: a later checkpoint");
            assert_eq!(store.wal_len(), wal_len, "{tag}: a refusal appends nothing");
            assert_eq!(
                store.io_stats().wal_records * page_record_len(32),
                wal_len,
                "{tag}: the record whose sync failed is logged and counted"
            );
            let synced = store.wal_synced_len();
            drop(store);

            // Kernel crash: the log keeps only its synced prefix, which
            // holds every write the first sync covered — for Strict, every
            // acknowledged one.
            std::fs::OpenOptions::new()
                .write(true)
                .open(dir.join("store.wal"))
                .unwrap()
                .set_len(synced)
                .unwrap();
            let durable = synced / page_record_len(32);
            if durability == Durability::Strict {
                assert_eq!(durable, acked.len() as u64, "{tag}");
            }
            let store = PageStore::open(config).unwrap();
            assert_eq!(store.recovered_writes(), durable, "{tag}");
            let mut out = Vec::new();
            for n in 1..=failed {
                let source = store.read(PageId(n), &mut out).unwrap();
                if n <= durable {
                    assert_eq!(out, payload(n as u8, 32), "{tag}: write {n}");
                } else {
                    assert_eq!(source, ReadSource::Zero, "{tag}: write {n}");
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn the_log_checkpoints_at_its_budget() {
        const FRAMES: usize = 2;
        let dir = temp_dir("budget");
        let store = PageStore::open(StoreConfig::new(&dir, FRAMES).with_page_size(32)).unwrap();
        let budget = store.log_budget();
        assert_eq!(budget, (LOG_BUDGET_ARENAS * FRAMES) as u64);
        for n in 1..=3 * budget + 1 {
            store.stage(PageId(n % 2), &payload(n as u8, 32)).unwrap();
            let logged = records_since_checkpoint(n, budget);
            assert_eq!(store.wal_len(), logged * page_record_len(32), "after {n}");
            assert_eq!(store.io_stats().data_syncs, (n - 1) / budget, "after {n}");
        }
        // The last budget checkpoint flushed both pages; only the write
        // after it is dirty.
        assert_eq!(store.checkpoint().unwrap(), 1);
        assert_eq!(store.dirty_len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_log_writer_syncs_beside_a_working_store() {
        use std::collections::VecDeque;
        use std::sync::atomic::{AtomicBool, Ordering};

        /// Stops the log writer however the worker leaves its thread.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Release);
            }
        }

        // 100 records against a budget of 32: the writer's syncs straddle
        // three checkpoints.
        const FRAMES: usize = 8;
        const PAGES: u64 = 20;
        const ROUNDS: u64 = 5;
        let dir = temp_dir("log-writer");
        let config = || {
            StoreConfig::new(&dir, FRAMES)
                .with_page_size(32)
                .with_durability(Durability::group_commit())
        };
        let expected = |round: u64, p: u64| payload((round * PAGES + p) as u8, 32);
        let store = PageStore::open(config()).unwrap();
        assert!(store.hand_off_wal_sync().unwrap());
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    store.sync_wal(1).unwrap();
                }
            });
            scope.spawn(|| {
                let _stop = StopOnDrop(&stop);
                let mut resident = VecDeque::new();
                let mut out = Vec::new();
                for round in 0..ROUNDS {
                    for p in 0..PAGES {
                        let page = PageId(p);
                        if !store.contains_buffered(page) {
                            if resident.len() == FRAMES {
                                store.evict(resident.pop_front().unwrap()).unwrap();
                            }
                            resident.push_back(page);
                        }
                        store.stage(page, &expected(round, p)).unwrap();
                        assert_eq!(store.read(page, &mut out).unwrap(), ReadSource::Buffer);
                        assert_eq!(out, expected(round, p), "page {p} in round {round}");
                        if p % 7 == 0 {
                            store.flush_some(3).unwrap();
                        }
                    }
                }
            });
        });
        store.sync_wal(1).unwrap();
        assert_eq!(store.wal_synced_len(), store.wal_len());
        assert_eq!(store.io_stats().data_syncs, 3, "three budget checkpoints");
        drop(store); // crash: no checkpoint

        let store = PageStore::open(config()).unwrap();
        let budget = (LOG_BUDGET_ARENAS * FRAMES) as u64;
        assert_eq!(
            store.recovered_writes(),
            records_since_checkpoint(ROUNDS * PAGES, budget)
        );
        let mut out = Vec::new();
        for p in 0..PAGES {
            assert_eq!(store.read(PageId(p), &mut out).unwrap(), ReadSource::Disk);
            assert_eq!(out, expected(ROUNDS - 1, p), "page {p} after recovery");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
