//! The data plane of the CLIC reproduction: a disk-backed page store in the
//! style of a buffer-pool manager.
//!
//! The paper's policy work ([`clic_core`](../clic_core/index.html)) decides
//! *which* pages deserve cache space; this crate supplies the machinery that
//! makes those decisions matter — real bytes in buffer frames, a backing
//! file, dirty-page write-back, and crash consistency. The pieces compose
//! bottom-up:
//!
//! * [`DiskManager`] ([`disk`]) — fixed-size page slots in one backing file.
//!   Each slot carries a header (page id, CRC-32 over id + data, allocation
//!   flag) followed by the page bytes; a slot-granular allocation bitmap
//!   hands out free slots first-fit. The slot directory is rebuilt by
//!   scanning headers on open, and the CRC is verified on every read, so a
//!   torn (partially written) frame is *detected*, never silently returned.
//! * [`FrameArena`] ([`frame`]) — a contiguous arena of in-memory buffer
//!   frames with per-frame latch words and dirty bits, accessed through RAII
//!   [`PageReadGuard`]/[`PageWriteGuard`]s.
//!
//!   **Frame lifecycle:** free → resident-clean (installed from a disk read)
//!   or resident-dirty (installed from a staged write) → possibly
//!   resident-clean again (flushed) → free (evicted; a dirty eviction forces
//!   a write-back first).
//!
//!   **Latch rules:** any number of read guards may share a frame; a write
//!   guard is exclusive (no other guard of either kind); acquiring a guard
//!   latches the frame and dropping it releases; eviction write-latches the
//!   frame and unpublishes it from the directory before handing its bytes
//!   out, and a flush pass holds a read latch while writing back.
//! * [`Wal`] ([`wal`]) — an optional write-ahead log with selectable
//!   [`Durability`].
//!
//!   **WAL format:** a flat sequence of length-prefixed records
//!   `[len: u32 LE][crc32: u32 LE][payload]` with
//!   `payload = [kind: u8][page: u64 LE][page bytes]`; the CRC covers the
//!   payload. Replay on open applies every record of the longest valid
//!   prefix and stops at the first short or corrupt record (a torn tail from
//!   a crash mid-append). A checkpoint (flush everything, sync the data
//!   file) truncates the log to zero.
//!
//!   **Durability levels:** [`Durability::Buffered`] never syncs inline
//!   (a kernel crash can lose OS-buffered records), [`Durability::Strict`]
//!   syncs every append, and [`Durability::GroupCommit`] coalesces up to
//!   `max_batch` appends (or `max_wait` of wall time) into one sync — the
//!   classic group-commit trade of bounded staleness for an order of
//!   magnitude fewer `fsync`s. A server hands the sync of the last two to a
//!   log writer and acknowledges only synced writes ([`wal`] module docs).
//! * [`PageStore`] ([`store`]) — ties the three together with **no
//!   store-wide lock** (see *Locking architecture* below): reads prefer the
//!   arena and fall back to the disk, writes are staged *write-back* (WAL
//!   append first — the write is acknowledged once the record is handed to
//!   the OS, or synced per the durability level — then a dirty frame),
//!   evictions of dirty frames force a flush, and every byte moved is
//!   counted in shared atomic [`cache_sim::IoStats`] counters.
//!   [`PageStore::mirror`] is the single place a replacement policy's
//!   verdict is applied to those frames — evict the victims, then read and
//!   admit, or stage, or write through — for every driver, offline or
//!   online.
//!
//!   **Write-back** runs on the caller's thread; the store spawns no
//!   threads. A staging call runs [`PageStore::flush_some`] inline once
//!   [`StoreConfig::flush_threshold`] dirty frames accumulate, a dirty
//!   eviction writes its departing frame back, and a checkpoint flushes
//!   every dirty frame through the same [`PageStore::flush_some`].
//! * [`replay_storage`] ([`replay`]) — the offline driver: replays a trace
//!   through any [`cache_sim::CachePolicy`] while moving real bytes through
//!   a store, handing each outcome and the policy's eviction-identity log
//!   ([`cache_sim::CachePolicy::drain_evictions`]) to the mirror to keep
//!   arena residency and policy state in lockstep.
//!   [`replay_storage_partitioned`] is the sharded shape: per-partition
//!   policies and per-shard store directories, replayed in parallel yet
//!   bit-identical to a serial run. This is what
//!   the `storage_io` benchmark uses to measure disk reads avoided by CLIC
//!   admission vs an LRU baseline, across durability levels and shard
//!   counts.
//!
//! **Observability:** the store's byte-level counters live in a per-store
//! [`clic_obs::MetricsRegistry`] under `store.*` names and are always on
//! (exact values back the I/O assertions in this crate's tests);
//! [`PageStore::io_stats`] and [`PageStore::metrics`] are two views of the
//! same atomics. An enabled [`Recorder`] ([`StoreConfig::with_recorder`])
//! additionally captures trace spans — WAL append/fsync/group-commit
//! windows, flush passes, contended frame-latch waits — and the replay's
//! per-chunk latency histogram ([`REPLAY_CHUNK_HISTOGRAM`]); disabled (the
//! default) it costs one `Option` check per site.
//!
//! **Fault injection:** a seeded [`FaultInjector`] ([`fault`],
//! [`StoreConfig::with_fault_injector`]) can schedule deterministic I/O
//! failures — failed or torn writes, failed `fsync`s, corrupted reads — at
//! the [`DiskManager`] and [`Wal`] boundaries. Disabled (the default) it
//! costs one `Option` check per I/O, exactly like the `Recorder`; enabled,
//! the k-th operation at each injection point faults identically on every
//! run with the same seed, and each injected fault bumps
//! `store.injected_faults` in the metrics registry. Injected errors carry
//! the [`INJECTED_FAULT`] marker so tests can tell scheduled failures from
//! real ones. This is the substrate of the crash-recovery proptests and
//! the `smoke chaos` verification gate.
//!
//! The online counterpart lives in `clic-server`: a `ShardedClic` attaches
//! one store *per shard* and drives it through the same mirror, so `Put`
//! carries bytes in and `Get` carries bytes out of a live server with no
//! cross-shard storage coupling.
//!
//! # Locking architecture
//!
//! The store used to hide behind one `Mutex<Inner>`; it is now decomposed
//! into independently synchronized layers. What each lock protects:
//!
//! | Lock | Protects | Held for |
//! |---|---|---|
//! | `DiskManager` directory stripes (16 × `Mutex`) | page → slot map, slot allocation decision | map lookup/insert only — never across file I/O for reads; a write holds its stripe across the positioned write so slot reuse cannot interleave |
//! | `DiskManager` bitmap stripes (8 × `Mutex` inside [`ShardedBitmap`]) | slot allocation bits | single bit set/scan |
//! | `FrameArena` directory stripes (16 × `RwLock`) | page → frame map | lookup + latch acquisition (so a frame cannot be recycled between the two) |
//! | Per-frame latch word (`AtomicI32`) | that frame's bytes + dirty bit | the lifetime of a guard — clean-page reads take **only** this and one stripe read-lock |
//! | WAL mutex (`Mutex<Wal>`) | log file offset, group-commit window, synced length | one append (+ optional sync) — this is the only serialization on the write-ack path; a handed-off sync ([`PageStore::sync_wal`]) takes it only to read and publish lengths |
//! | Flush-pass mutex (`Mutex<()>`) | "one flush pass at a time" | listing + writing back a batch (frames themselves only read-latched) |
//!
//! **Lock order:** arena stripe → frame latch; disk directory stripe →
//! bitmap stripe. No code path holds an arena lock and a disk lock at the
//! same time except via a held frame *latch* (flush/evict write-back), which
//! is below every map lock; the WAL mutex is taken before arena locks in
//! [`PageStore::stage`] and never after them. Poisoned locks are either
//! recovered ([`cache_sim::recover_lock`] — for counters and signalling
//! where the invariant is trivially intact) or surfaced as
//! an [`std::io::Error`] ([`cache_sim::checked_lock`] — for the WAL, whose
//! offset invariant a panicked holder could have broken).
//!
//! This crate denies `clippy::disallowed_methods` with a `clippy.toml` that
//! bans bare `Mutex::lock`/`RwLock::read`/`RwLock::write` — every
//! acquisition goes through the poison-explicit helpers in
//! [`cache_sim::sync`].
//!
//! # Example
//!
//! ```
//! use cache_sim::PageId;
//! use clic_store::{Durability, PageStore, ReadSource, StoreConfig};
//!
//! let dir = std::env::temp_dir().join(format!("clic-store-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let config = StoreConfig::new(&dir, 8).with_durability(Durability::group_commit());
//! let store = PageStore::open(config).unwrap();
//! let payload = vec![0xabu8; store.page_size()];
//! store.stage(PageId(7), &payload).unwrap(); // write-back: WAL + dirty frame
//! let mut out = Vec::new();
//! assert_eq!(store.read(PageId(7), &mut out).unwrap(), ReadSource::Buffer);
//! assert_eq!(out, payload);
//! store.checkpoint().unwrap(); // flush dirty frames, truncate the WAL
//! drop(store);
//! let _ = std::fs::remove_dir_all(&dir);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(clippy::disallowed_methods)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod crc;
pub mod disk;
pub mod fault;
pub mod frame;
pub mod replay;
pub mod store;
pub mod wal;

pub use crc::{crc32, Crc32};
pub use disk::{AllocationBitmap, DiskManager, ShardedBitmap};
pub use fault::{FaultInjector, FaultPoint, InjectedFault, FAULT_POINTS, INJECTED_FAULT};
pub use frame::{EvictGuard, FrameArena, PageReadGuard, PageWriteGuard};
pub use replay::{
    page_payload, replay_storage, replay_storage_partitioned, StorageReplayReport,
    REPLAY_CHUNK_HISTOGRAM,
};
pub use store::{PageStore, ReadSource, StoreConfig, DEFAULT_PAGE_SIZE};
pub use wal::{AppendOutcome, Durability, Wal, WalOp, WalRecord};

// Observability types that appear in this crate's public API
// ([`StoreConfig::with_recorder`], [`PageStore::metrics`],
// [`StorageReplayReport::latency`]), re-exported so store users need not
// depend on `clic-obs` directly.
pub use clic_obs::{HistogramSnapshot, MetricsSnapshot, Recorder, SpanKind};
