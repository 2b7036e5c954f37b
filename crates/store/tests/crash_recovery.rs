//! Crash-recovery properties of the disk-backed page store, per
//! [`Durability`] level.
//!
//! Two crash models are exercised:
//!
//! * **Process crash** — the store is dropped without a checkpoint. Every
//!   acknowledged (`stage`-returned) write is in the WAL file and must be
//!   replayed on reopen, at *every* durability level: the OS page cache
//!   survives the process.
//! * **Kernel crash** — on top of the process crash, bytes the OS had
//!   buffered but not synced are lost. This is modeled by truncating the
//!   WAL to [`PageStore::wal_synced_len`], the prefix the store knows
//!   reached the device. [`Durability::Strict`] must lose nothing;
//!   [`Durability::GroupCommit`] must lose at most the current (unsynced)
//!   group and recover exactly the records up to the last group-commit
//!   boundary; [`Durability::Buffered`] makes no promise.
//!
//! Torn frames (bytes corrupted on disk after the fact) must be detected by
//! CRC verification, never silently returned, and a torn WAL tail must not
//! take the earlier acknowledged writes down with it.
//!
//! The log is bounded: a store checkpoints before an append that finds
//! [`PageStore::log_budget`] records logged, so a reopen
//! replays only the records since the last checkpoint, never more than
//! that budget, and the data file holds everything before them.

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use proptest::collection::vec;
use proptest::prelude::*;

use cache_sim::PageId;
use clic_store::{
    Durability, FaultInjector, FaultPoint, PageStore, ReadSource, StoreConfig, INJECTED_FAULT,
};

const PAGE_SIZE: usize = 64;

/// What a store refuses every write with once a log sync has failed.
const FAILED_LOG: &str = "the log failed a sync";

/// A fresh scratch directory per test case (proptest runs many cases per
/// process, so the pid alone is not unique).
fn scratch_dir(label: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "clic-store-crash-{}-{}-{}",
        label,
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn payload(tag: u8) -> Vec<u8> {
    vec![tag; PAGE_SIZE]
}

/// Byte offset of `page`'s data inside the backing file, found by scanning
/// slot metadata — flushes, evictions and frees decide the slot order, so
/// it is not stage order.
fn slot_data_offset(pages_file: &Path, page: u64, page_size: usize) -> u64 {
    const HEADER: usize = 16;
    const META: usize = 16;
    let bytes = std::fs::read(pages_file).expect("read backing file");
    let slot_len = META + page_size;
    let mut offset = HEADER;
    while offset + slot_len <= bytes.len() {
        let meta = &bytes[offset..offset + META];
        let id = u64::from_le_bytes(meta[..8].try_into().unwrap());
        let flags = u32::from_le_bytes(meta[12..16].try_into().unwrap());
        if flags & 1 != 0 && id == page {
            return (offset + META) as u64;
        }
        offset += slot_len;
    }
    panic!("page {page} not found in the backing file");
}

/// Truncates the WAL file to `len` bytes — the kernel-crash model: bytes
/// beyond the synced prefix never reached the device.
fn truncate_wal(dir: &Path, len: u64) {
    let wal = dir.join("store.wal");
    let file = OpenOptions::new().write(true).open(&wal).expect("open wal");
    file.set_len(len).expect("truncate wal");
}

/// Stages every (page, tag) write through a store whose arena holds only
/// `frames` pages, evicting the oldest-staged resident page whenever the
/// arena is full — the moves a replacement policy would make. Returns the
/// expected final contents (last write per page wins).
fn stage_all(store: &PageStore, ops: &[(u64, u8)], frames: usize) -> HashMap<u64, u8> {
    let mut expected = HashMap::new();
    let mut resident: Vec<u64> = Vec::new();
    for &(page, tag) in ops {
        if !store.contains_buffered(PageId(page)) && store.buffered_len() >= frames {
            let victim = resident.remove(0);
            store.evict(PageId(victim)).expect("evict flushes if dirty");
        }
        store
            .stage(PageId(page), &payload(tag))
            .expect("stage is acknowledged");
        resident.retain(|&p| p != page);
        resident.push(page);
        expected.insert(page, tag);
    }
    expected
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Drop without a checkpoint (a process crash) after an arbitrary write
    /// sequence: the WAL replay restores the last acknowledged value of
    /// every page, no matter how many overwrites, dirty evictions or budget
    /// checkpoints happened in between — at every durability level, since
    /// the OS page cache survives a process crash. It replays exactly the
    /// records since the last checkpoint.
    #[test]
    fn acknowledged_writes_survive_a_process_crash(
        ops in vec((0u64..24, any::<u8>()), 1..120),
        frames in 4usize..12,
        durability_pick in 0usize..3,
    ) {
        let durability = [
            Durability::Buffered,
            Durability::group_commit(),
            Durability::Strict,
        ][durability_pick];
        let dir = scratch_dir("crash");
        let config = StoreConfig::new(&dir, frames)
            .with_page_size(PAGE_SIZE)
            .with_durability(durability);
        let (expected, budget, checkpoints) = {
            let store = PageStore::open(config.clone()).expect("open");
            let expected = stage_all(&store, &ops, frames);
            (expected, store.log_budget(), store.io_stats().data_syncs)
            // The store is dropped here without a flush or checkpoint: any
            // frame still dirty is lost, only disk + WAL remain.
        };

        let store = PageStore::open(config).expect("reopen replays the WAL");
        // Each checkpoint emptied a full log; at least one record follows
        // the last.
        let logged = ops.len() as u64 - checkpoints * budget;
        prop_assert!((1..=budget).contains(&logged), "{} records logged", logged);
        prop_assert_eq!(store.recovered_writes(), logged);
        let mut buf = Vec::new();
        for (&page, &tag) in &expected {
            let source = store.read(PageId(page), &mut buf).expect("read back");
            prop_assert_ne!(source, ReadSource::Zero, "page {} must be stored", page);
            prop_assert_eq!(&buf, &payload(tag), "page {} content", page);
        }
        // A page never written reads as zeroes, explicitly flagged.
        let source = store.read(PageId(999), &mut buf).expect("zero read");
        prop_assert_eq!(source, ReadSource::Zero);
        prop_assert!(buf.iter().all(|&b| b == 0));
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A clean checkpoint before the drop leaves nothing for the WAL to
    /// replay, and the contents still read back exactly.
    #[test]
    fn checkpointed_writes_recover_without_the_wal(
        ops in vec((0u64..24, any::<u8>()), 1..120),
        frames in 4usize..12,
    ) {
        let dir = scratch_dir("clean");
        let config = StoreConfig::new(&dir, frames).with_page_size(PAGE_SIZE);
        let expected = {
            let store = PageStore::open(config.clone()).expect("open");
            let expected = stage_all(&store, &ops, frames);
            store.checkpoint().expect("checkpoint");
            expected
        };

        let store = PageStore::open(config).expect("reopen");
        prop_assert_eq!(store.recovered_writes(), 0);
        let mut buf = Vec::new();
        for (&page, &tag) in &expected {
            store.read(PageId(page), &mut buf).expect("read back");
            prop_assert_eq!(&buf, &payload(tag), "page {} content", page);
        }
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Kernel crash under group commit: the WAL is cut at an arbitrary
    /// point at or beyond the last group-commit sync (the synced prefix is
    /// device-durable; the tail beyond it may survive partially in any
    /// torn state). Recovery must replay exactly the complete records
    /// before the cut — the longest valid prefix — and in particular never
    /// fewer than the last group-commit boundary.
    #[test]
    fn group_commit_kernel_crash_recovers_the_longest_valid_prefix(
        ops in vec((0u64..16, any::<u8>()), 1..60),
        max_batch in 2usize..6,
        tail_keep_pct in 0u64..100,
    ) {
        let dir = scratch_dir("group-crash");
        let config = StoreConfig::new(&dir, 32)
            .with_page_size(PAGE_SIZE)
            .with_durability(Durability::GroupCommit {
                max_batch,
                max_wait: Duration::from_secs(3600),
            });
        let (synced_len, total_len) = {
            let store = PageStore::open(config.clone()).expect("open");
            // 32 frames over 16 pages: no evictions, every write lives
            // only in the WAL, so recovery is exactly WAL replay.
            stage_all(&store, &ops, 32);
            (store.wal_synced_len(), store.wal_len())
        };
        // Group commit syncs every max_batch appends; the synced prefix is
        // a whole number of groups.
        let record_len = total_len / ops.len() as u64;
        let synced_records = (ops.len() / max_batch) * max_batch;
        prop_assert_eq!(synced_len, synced_records as u64 * record_len);

        // The crash keeps the synced prefix plus an arbitrary slice of the
        // OS-buffered tail (possibly tearing a record mid-write).
        let cut = synced_len + (total_len - synced_len) * tail_keep_pct / 100;
        truncate_wal(&dir, cut);

        let store = PageStore::open(config).expect("reopen");
        let survived = (cut / record_len) as usize;
        prop_assert_eq!(store.recovered_writes(), survived as u64);
        prop_assert!(survived >= synced_records, "synced groups never regress");
        let mut expected: HashMap<u64, u8> = HashMap::new();
        for &(page, tag) in &ops[..survived] {
            expected.insert(page, tag);
        }
        let mut buf = Vec::new();
        for &(page, _) in &ops {
            let source = store.read(PageId(page), &mut buf).expect("read");
            match expected.get(&page) {
                Some(&tag) => {
                    prop_assert_eq!(&buf, &payload(tag), "page {} content", page);
                }
                None => prop_assert_eq!(source, ReadSource::Zero),
            }
        }
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Crash recovery *under fire*: a seeded [`FaultInjector`] tears WAL
    /// appends and fails fsyncs mid-run at every durability level, and the
    /// kernel-crash cut (truncate to the synced prefix) must still recover
    /// a consistent prefix:
    ///
    /// * a torn or failed append does not advance the WAL, so the record
    ///   never counts — the next append overwrites the garbage;
    /// * a failed fsync leaves the record *appended but unsynced*, refuses
    ///   its write and fails the store closed: every later write is refused
    ///   before it appends anything, so no later sync can cover the record
    ///   and acknowledge a log with a hole in it;
    /// * recovery replays exactly the records inside the synced prefix, in
    ///   order, and nothing after it.
    ///
    /// The acknowledged/failed split observed by the caller (via the
    /// injector's error labels) must exactly reconcile with the store's own
    /// `wal_len`/`wal_synced_len` accounting — any drift between the two
    /// is a lost or phantom write.
    #[test]
    fn injected_wal_faults_preserve_the_synced_prefix(
        ops in vec((0u64..16, any::<u8>()), 1..60),
        durability_pick in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let durability = [
            Durability::Buffered,
            Durability::group_commit(),
            Durability::Strict,
        ][durability_pick];
        let dir = scratch_dir("injected");
        let fault = FaultInjector::seeded(seed)
            .with_rate(FaultPoint::WalAppend, 0.2)
            .with_rate(FaultPoint::WalSync, 0.2);
        let config = StoreConfig::new(&dir, 32)
            .with_page_size(PAGE_SIZE)
            .with_durability(durability)
            .with_fault_injector(fault.clone());
        // 32 frames over 16 pages: no evictions, so recovery is exactly
        // WAL replay and the backing file stays out of the picture.
        let mut appended: Vec<(u64, u8)> = Vec::new();
        let mut closed = false;
        let (synced_len, total_len) = {
            let store = PageStore::open(config.clone()).expect("open");
            for &(page, tag) in &ops {
                let wal_before = store.wal_len();
                match store.stage(PageId(page), &payload(tag)) {
                    Ok(()) => {
                        prop_assert!(!closed, "a write applied after a failed sync");
                        appended.push((page, tag));
                    }
                    Err(err) if closed => {
                        // The failed log refuses the write before its
                        // append: no record, and no fault decision.
                        let msg = err.to_string();
                        prop_assert!(msg.contains(FAILED_LOG), "after a failed sync: {msg}");
                        prop_assert_eq!(store.wal_len(), wal_before, "a refusal appends nothing");
                    }
                    Err(err) => {
                        let msg = err.to_string();
                        prop_assert!(
                            msg.contains(INJECTED_FAULT),
                            "only injected faults may fail a stage: {msg}"
                        );
                        // A failed *sync* still appended the record and
                        // closed the store; a failed or torn *append* did
                        // not advance the WAL.
                        if msg.contains(FaultPoint::WalSync.label()) {
                            appended.push((page, tag));
                            closed = true;
                        }
                    }
                }
            }
            (store.wal_synced_len(), store.wal_len())
        };
        if appended.is_empty() {
            prop_assert_eq!(total_len, 0);
            std::fs::remove_dir_all(&dir).ok();
            return Ok(());
        }
        // Records are uniform (fixed page size), so byte lengths reconcile
        // the caller's view with the WAL's own accounting.
        let record_len = total_len / appended.len() as u64;
        prop_assert_eq!(
            total_len,
            record_len * appended.len() as u64,
            "appended-record count must explain the WAL length exactly"
        );
        let synced_records = synced_len.checked_div(record_len).unwrap_or(0) as usize;
        prop_assert_eq!(synced_len, synced_records as u64 * record_len);

        truncate_wal(&dir, synced_len);
        let reopened = StoreConfig::new(&dir, 32)
            .with_page_size(PAGE_SIZE)
            .with_durability(durability);
        let store = PageStore::open(reopened).expect("recovery runs fault-free");
        prop_assert_eq!(store.recovered_writes(), synced_records as u64);
        let mut expected: HashMap<u64, u8> = HashMap::new();
        for &(page, tag) in &appended[..synced_records] {
            expected.insert(page, tag);
        }
        let mut buf = Vec::new();
        for page in 0u64..16 {
            let source = store.read(PageId(page), &mut buf).expect("read back");
            match expected.get(&page) {
                Some(&tag) => {
                    prop_assert_eq!(&buf, &payload(tag), "page {} content", page);
                }
                None => prop_assert_eq!(source, ReadSource::Zero),
            }
        }
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The same seed injects the same fault schedule: two identical runs
    /// agree on every acknowledgement, every injector count, and the
    /// recovered contents — the property that makes a chaos failure
    /// replayable from its seed alone.
    #[test]
    fn fault_schedules_replay_deterministically(
        ops in vec((0u64..8, any::<u8>()), 1..40),
        seed in 0u64..1_000,
    ) {
        type RunOutcome = (Vec<bool>, Vec<(FaultPoint, u64, u64)>, u64);
        let mut outcomes: Vec<RunOutcome> = Vec::new();
        for run in 0..2 {
            let dir = scratch_dir(&format!("det-{run}"));
            let fault = FaultInjector::seeded(seed)
                .with_rate(FaultPoint::WalAppend, 0.25)
                .with_rate(FaultPoint::WalSync, 0.25);
            let config = StoreConfig::new(&dir, 16)
                .with_page_size(PAGE_SIZE)
                .with_durability(Durability::Strict)
                .with_fault_injector(fault.clone());
            let store = PageStore::open(config).expect("open");
            let acks: Vec<bool> = ops
                .iter()
                .map(|&(page, tag)| store.stage(PageId(page), &payload(tag)).is_ok())
                .collect();
            let synced = store.wal_synced_len();
            outcomes.push((acks, fault.counts(), synced));
            drop(store);
            std::fs::remove_dir_all(&dir).ok();
        }
        prop_assert_eq!(&outcomes[0].0, &outcomes[1].0, "ack sequences diverged");
        prop_assert_eq!(&outcomes[0].1, &outcomes[1].1, "injector counts diverged");
        prop_assert_eq!(outcomes[0].2, outcomes[1].2, "synced prefixes diverged");
    }

    /// Strict durability: every acknowledged write is synced before `stage`
    /// returns, so even the kernel-crash cut (truncate to the synced
    /// prefix) loses nothing.
    #[test]
    fn strict_never_loses_an_acknowledged_write(
        ops in vec((0u64..16, any::<u8>()), 1..40),
    ) {
        let dir = scratch_dir("strict-crash");
        let config = StoreConfig::new(&dir, 32)
            .with_page_size(PAGE_SIZE)
            .with_durability(Durability::Strict);
        let expected = {
            let store = PageStore::open(config.clone()).expect("open");
            let expected = stage_all(&store, &ops, 32);
            prop_assert_eq!(
                store.wal_synced_len(),
                store.wal_len(),
                "strict leaves no unsynced tail"
            );
            truncate_wal(&dir, store.wal_synced_len());
            expected
        };

        let store = PageStore::open(config).expect("reopen");
        prop_assert_eq!(store.recovered_writes(), ops.len() as u64);
        let mut buf = Vec::new();
        for (&page, &tag) in &expected {
            store.read(PageId(page), &mut buf).expect("read back");
            prop_assert_eq!(&buf, &payload(tag), "page {} content", page);
        }
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Recovery is bounded by the log budget, not by the run's length: ten
/// budgets of writes over a page set five times the arena, with evictions,
/// then a crash — a process crash for `Buffered`, a kernel crash (the log
/// cut at its synced length) for the synced levels. The reopen replays at
/// most one budget of records, and every page reads back its last durable
/// write: every write for `Buffered` and `Strict`, all but the current
/// unsynced group for `GroupCommit`, whose later writes may also have
/// reached the data file through an eviction.
#[test]
fn recovery_replays_at_most_the_log_budget() {
    const FRAMES: usize = 4;
    /// [`PageStore::log_budget`]: four arena-fulls.
    const BUDGET: u64 = 4 * FRAMES as u64;
    const MAX_BATCH: usize = 5;
    let n = 10 * BUDGET + 7;
    let ops: Vec<(u64, u8)> = (0..n)
        .map(|i| ((i * 7 + i / 3) % (5 * FRAMES as u64), (i % 251) as u8))
        .collect();
    for durability in [
        Durability::Buffered,
        Durability::GroupCommit {
            max_batch: MAX_BATCH,
            max_wait: Duration::from_secs(3600),
        },
        Durability::Strict,
    ] {
        let label = durability.label();
        let dir = scratch_dir(&format!("bounded-{label}"));
        let config = StoreConfig::new(&dir, FRAMES)
            .with_page_size(PAGE_SIZE)
            .with_durability(durability);
        // Ten checkpoints each emptied a full log, leaving the last seven
        // records, which explain the log's length exactly.
        let logged = n - 10 * BUDGET;
        let (record_len, survives) = {
            let store = PageStore::open(config.clone()).expect("open");
            assert_eq!(store.log_budget(), BUDGET);
            stage_all(&store, &ops, FRAMES);
            assert_eq!(store.io_stats().data_syncs, 10, "{label}: ten checkpoints");
            let record_len = store.wal_len() / logged;
            assert_eq!(store.wal_len(), logged * record_len, "{label}");
            let survives = match durability {
                Durability::Buffered => store.wal_len(),
                _ => store.wal_synced_len(),
            };
            (record_len, survives)
        };
        truncate_wal(&dir, survives);

        let store = PageStore::open(config).expect("reopen");
        let recovered = store.recovered_writes();
        assert_eq!(recovered, survives / record_len, "{label}");
        assert!(recovered <= BUDGET, "{label}: {recovered} records");
        let lost = logged - recovered;
        match durability {
            Durability::GroupCommit { .. } => assert!(
                (1..MAX_BATCH as u64).contains(&lost),
                "{label}: lost {lost} records"
            ),
            _ => assert_eq!(lost, 0, "{label}"),
        }
        let durable = &ops[..(n - lost) as usize];
        let mut buf = Vec::new();
        for page in 0..5 * FRAMES as u64 {
            store.read(PageId(page), &mut buf).expect("read back");
            let last = durable.iter().rposition(|&(p, _)| p == page);
            let tag = last.map(|at| durable[at].1);
            let later = &ops[last.map_or(0, |at| at + 1)..];
            let fits = |tag: u8| buf == payload(tag);
            assert!(
                tag.is_some_and(fits)
                    || later.iter().any(|&(p, t)| p == page && lost > 0 && fits(t)),
                "{label}: page {page} lost its last durable write"
            );
        }
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Buffered durability promises nothing across a kernel crash: with no sync
/// ever issued, the synced prefix is empty and recovery finds no records.
/// (The process-crash property above shows the same log recovers fully when
/// the OS cache survives — the gap between the two is exactly what the
/// stronger levels buy.)
#[test]
fn buffered_kernel_crash_may_lose_everything() {
    let dir = scratch_dir("buffered-crash");
    let config = StoreConfig::new(&dir, 8).with_page_size(PAGE_SIZE);
    {
        let store = PageStore::open(config.clone()).expect("open");
        for tag in 0..5u8 {
            store
                .stage(PageId(u64::from(tag)), &payload(tag))
                .expect("stage");
        }
        assert_eq!(store.wal_synced_len(), 0, "buffered never syncs inline");
        truncate_wal(&dir, 0);
    }
    let store = PageStore::open(config).expect("reopen");
    assert_eq!(store.recovered_writes(), 0);
    let mut buf = Vec::new();
    assert_eq!(
        store.read(PageId(0), &mut buf).expect("read"),
        ReadSource::Zero
    );
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// Flipping a byte inside a checkpointed frame must surface as
/// `InvalidData` on the next read of that page — never as silently wrong
/// bytes — while other pages stay readable.
#[test]
fn torn_frame_is_detected_by_crc() {
    let dir = scratch_dir("torn-frame");
    let config = StoreConfig::new(&dir, 8).with_page_size(PAGE_SIZE);
    {
        let store = PageStore::open(config.clone()).expect("open");
        store.stage(PageId(1), &payload(0x11)).expect("stage");
        store.stage(PageId(2), &payload(0x22)).expect("stage");
        store.checkpoint().expect("checkpoint");
    }

    // Find page 1's slot by scanning the metadata (the sharded bitmap
    // decides slot placement, not stage order) and corrupt one byte in the
    // middle of its data.
    let pages = dir.join("store.pages");
    let offset = slot_data_offset(&pages, 1, PAGE_SIZE) + (PAGE_SIZE as u64) / 2;
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .open(&pages)
        .expect("open backing file");
    file.seek(SeekFrom::Start(offset)).expect("seek");
    let mut byte = [0u8; 1];
    file.read_exact(&mut byte).expect("read");
    byte[0] ^= 0xFF;
    file.seek(SeekFrom::Start(offset)).expect("seek");
    file.write_all(&byte).expect("corrupt");
    drop(file);

    let store = PageStore::open(config).expect("reopen");
    let mut buf = Vec::new();
    let err = store
        .read(PageId(1), &mut buf)
        .expect_err("torn frame must not read back");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    // The sibling page is untouched and still verifies.
    store.read(PageId(2), &mut buf).expect("clean page reads");
    assert_eq!(buf, payload(0x22));
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// A torn WAL tail (the crash hit mid-append) loses only the torn record:
/// recovery replays the longest valid prefix.
#[test]
fn torn_wal_tail_keeps_the_valid_prefix() {
    let dir = scratch_dir("torn-wal");
    let config = StoreConfig::new(&dir, 8).with_page_size(PAGE_SIZE);
    {
        let store = PageStore::open(config.clone()).expect("open");
        for tag in 0..5u8 {
            store
                .stage(PageId(u64::from(tag)), &payload(tag))
                .expect("stage");
        }
        // Crash without checkpoint: all five live only in the WAL.
    }

    // Chop the last few bytes off the WAL, tearing the final record.
    let wal = dir.join("store.wal");
    let len = std::fs::metadata(&wal).expect("wal exists").len();
    truncate_wal(&dir, len - 3);

    let store = PageStore::open(config).expect("reopen");
    assert_eq!(store.recovered_writes(), 4, "the torn record is dropped");
    let mut buf = Vec::new();
    for tag in 0..4u8 {
        store.read(PageId(u64::from(tag)), &mut buf).expect("read");
        assert_eq!(buf, payload(tag));
    }
    assert_eq!(
        store
            .read(PageId(4), &mut buf)
            .expect("torn page was never applied"),
        ReadSource::Zero
    );
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}
