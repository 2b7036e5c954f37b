//! The write-ahead log (`Wal`) that makes staged (write-back) writes
//! crash-consistent, with selectable [`Durability`] levels.
//!
//! # Record format
//!
//! The log is a flat sequence of length-prefixed records:
//!
//! ```text
//! [len: u32 LE][crc32: u32 LE][payload: len bytes]
//! payload = [kind: u8][page: u64 LE][page bytes]
//! ```
//!
//! The CRC covers the payload. The only record kind today is a full-page
//! write (`kind = 1`); the byte exists so future kinds (checkpoint markers,
//! partial-page deltas) stay backward-readable.
//!
//! # Durability contract
//!
//! No append syncs. `Wal::append` hands the record to the OS with an
//! ordinary buffered write, and once the store's staging call returns, the
//! write is *acknowledged*: it survives a process crash (the failure mode
//! this crate models and the crash-recovery tests exercise). What survives
//! a *kernel* crash is governed by the store's [`Durability`] level. The
//! log only decides whether that level wants a sync after the appends so
//! far (`Wal::sync_due`); the store then runs its one log sync
//! ([`crate::PageStore::sync_wal`]) before the staging call returns:
//!
//! * [`Durability::Buffered`] never wants one — acknowledged writes are
//!   only device-durable after a checkpoint, which a store also runs,
//!   syncing, on an append that finds the log at its budget;
//! * [`Durability::Strict`] wants one after every append — one `fsync` per
//!   acknowledged write, the textbook cost of strict write-ahead logging;
//! * [`Durability::GroupCommit`] acknowledges immediately but wants a sync
//!   only when `max_batch` appends are pending or `max_wait` has elapsed
//!   since the last sync, so one `fsync` covers the whole pending group —
//!   bounded staleness at a fraction of `Strict`'s sync count.
//!
//! `Wal::synced_len` reports the prefix known device-durable, which the
//! durability-level crash tests use as the truncation point that models a
//! kernel crash losing OS-buffered log bytes.
//!
//! On a server, a log writer owns the sync of a `GroupCommit` or `Strict`
//! log ([`crate::PageStore::hand_off_wal_sync`]): the log then never wants
//! a sync after an append, and a logged write is acknowledged only after a
//! sync that started after its append succeeded, so *an acknowledged write
//! is device-durable*. One sync in flight covers whatever was appended
//! meanwhile, so `max_batch` and `max_wait` do not apply there. The log
//! writer runs the same store sync as a staging call and a checkpoint.
//!
//! A failed sync fails the log closed, at every level and whoever ran it:
//! Linux may drop the unsynced pages, so a retry proves nothing, and replay
//! keeps only the longest valid prefix, so one lost record would hide every
//! later one. The write whose sync failed is refused (its record stays in
//! the log, where a reopen may still find it), and every later append,
//! sync and truncation is refused until the store is reopened.
//!
//! # Replay
//!
//! `Wal::open_with` parses the longest valid prefix: it stops at the first
//! record that is short (a crash truncated the tail mid-append) or whose
//! CRC disagrees (a torn in-place write), returning every record before it.
//! After the recovered pages are re-applied to the data file and synced,
//! the caller truncates the log (`Wal::truncate`).
//!
//! The log is bounded: a [`crate::PageStore`] checkpoints (flushes every
//! dirty frame, syncs the data file, truncates and syncs the log) before
//! any append that would find [`crate::PageStore::log_budget`] page
//! records (four arena-fulls) already logged, as well as at a clean
//! shutdown. So a replay reads at most that budget, whatever the length of
//! the run: it re-applies the records since the last checkpoint, and the
//! data file holds everything before. The records are full-page images, so
//! replaying one over a page the data file already holds is harmless, and
//! no page carries a log position. A checkpoint whose sync fails fails the
//! log closed like any other failed sync, and a failed log is never
//! truncated: its records are all a reopen has to go on.
//!
//! A sync that was in flight across a truncation publishes nothing past
//! it: the position a sync reaches (`Wal::unsynced`) counts every byte ever
//! truncated away, so a sync that began before the cut reaches no record
//! appended after it.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::time::{Duration, Instant};

use cache_sim::PageId;

use crate::crc::crc32;
use crate::fault::{FaultInjector, FaultPoint, InjectedFault};

/// Record kind: a full-page write.
const KIND_PAGE_WRITE: u8 = 1;
/// Record kind: a page delete (the page is freed in the backing file).
const KIND_PAGE_DELETE: u8 = 2;
/// Bytes of record framing (length + CRC) before the payload.
const FRAME_LEN: usize = 8;
/// Bytes of payload header (kind + page id) before the page bytes.
const PAYLOAD_HEADER: usize = 9;

/// Bytes one full-page write record of `page_size`-byte pages takes in the
/// log, framing included.
pub(crate) fn page_record_len(page_size: usize) -> u64 {
    (FRAME_LEN + PAYLOAD_HEADER + page_size) as u64
}

/// When (relative to an append) the log is flushed to the device. No
/// append syncs: after a synced level's append the store runs its one log
/// sync ([`crate::PageStore::sync_wal`]), and a failed sync fails the log
/// closed at every level. See the module docs for the exact contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Acknowledge on the OS buffered write; sync only at checkpoints,
    /// which run at a clean shutdown and whenever the log reaches its
    /// budget (module docs, *Replay*).
    #[default]
    Buffered,
    /// Acknowledge immediately; the store syncs once `max_batch` appends
    /// are pending or `max_wait` has elapsed since the last sync, whichever
    /// comes first. One sync covers the whole pending group. On a server,
    /// whose log writer syncs instead (module docs), neither bound applies:
    /// the group is whatever arrived during the previous sync.
    GroupCommit {
        /// Pending appends that force a sync.
        max_batch: usize,
        /// Maximum staleness of an acknowledged append before the next
        /// append forces a sync.
        max_wait: Duration,
    },
    /// The store syncs after every append, before the write is
    /// acknowledged. On a server, the log writer's syncs (module docs)
    /// replace these, as for `GroupCommit`.
    Strict,
}

impl Durability {
    /// A group-commit level with the defaults the bench harness sweeps:
    /// sync every 8 appends or 2 ms, whichever comes first.
    pub fn group_commit() -> Durability {
        Durability::GroupCommit {
            max_batch: 8,
            max_wait: Duration::from_millis(2),
        }
    }

    /// Short stable name for reports (`buffered`, `group-commit`,
    /// `strict`).
    pub fn label(&self) -> &'static str {
        match self {
            Durability::Buffered => "buffered",
            Durability::GroupCommit { .. } => "group-commit",
            Durability::Strict => "strict",
        }
    }
}

/// One recovered log record: an acknowledged operation that may not have
/// reached the backing file before the crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WalRecord {
    /// The page the record operates on.
    pub(crate) page: PageId,
    /// What the record does to that page on replay.
    pub(crate) op: WalOp,
}

/// The operation a recovered [`WalRecord`] replays, in log order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WalOp {
    /// A full-page write of these bytes.
    Write(Vec<u8>),
    /// A page delete: the page is freed in the backing file, so a deleted
    /// page cannot be resurrected by a crash between the acknowledged
    /// delete and the next checkpoint.
    Delete,
}

/// An append-only write-ahead log over one file. It never syncs itself:
/// the store syncs it when [`Wal::sync_due`] says its [`Durability`] wants
/// a sync, and publishes each sync here ([`Wal::publish_sync`]).
#[derive(Debug)]
pub(crate) struct Wal {
    file: File,
    durability: Durability,
    /// Bytes of valid log (append position).
    len: u64,
    /// Bytes every [`Wal::truncate`] so far has cut: the log position of
    /// the file's first byte, which keeps a sync's reach comparable across
    /// a checkpoint.
    base: u64,
    /// Bytes known flushed to the device.
    synced_len: u64,
    /// Appends acknowledged since the last sync.
    pending: usize,
    last_sync: Instant,
    fault: FaultInjector,
    /// Whether the sync was handed off: no append then wants one.
    handed_off: bool,
    /// Set by a failed sync: every later append is refused.
    failed: bool,
    /// Scratch for the record being appended, reused by every append.
    record: Vec<u8>,
}

/// What appending to, or syncing, a failed log returns.
fn failed_log() -> io::Error {
    io::Error::other("the log failed a sync: reopen the store")
}

/// Syncs `file`, unless `fault` fails the sync.
pub(crate) fn sync_log(file: &File, fault: &FaultInjector) -> io::Result<()> {
    if fault.decide(FaultPoint::WalSync, 0) != InjectedFault::None {
        return Err(FaultInjector::error(FaultPoint::WalSync));
    }
    file.sync_data()
}

impl Wal {
    /// Opens (or creates) the log at `path` with the given [`Durability`],
    /// a [`FaultInjector`] armed at the [`FaultPoint::WalAppend`] point,
    /// and replays it: returns the records of the longest valid prefix,
    /// oldest first. A torn tail — short or CRC-corrupt final record, the
    /// signature of a crash mid-append — is silently discarded (subsequent
    /// appends overwrite it).
    // invariant: the three `try_into().unwrap()`s below convert slices
    // whose length the replay loop has already checked (>= FRAME_LEN /
    // >= PAYLOAD_HEADER) into fixed-size arrays — they cannot fail.
    #[cfg_attr(not(test), allow(clippy::unwrap_used))]
    pub(crate) fn open_with(
        path: &Path,
        durability: Durability,
        fault: FaultInjector,
    ) -> io::Result<(Wal, Vec<WalRecord>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut bytes)?;
        let mut records = Vec::new();
        let mut offset = 0usize;
        while bytes.len() - offset >= FRAME_LEN {
            let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap());
            let payload_start = offset + FRAME_LEN;
            if len < PAYLOAD_HEADER || bytes.len() - payload_start < len {
                break; // short record: torn tail
            }
            let payload = &bytes[payload_start..payload_start + len];
            if crc32(payload) != crc {
                break; // corrupt record: torn tail
            }
            let page = PageId(u64::from_le_bytes(payload[1..9].try_into().unwrap()));
            match payload[0] {
                KIND_PAGE_WRITE => records.push(WalRecord {
                    page,
                    op: WalOp::Write(payload[PAYLOAD_HEADER..].to_vec()),
                }),
                KIND_PAGE_DELETE => records.push(WalRecord {
                    page,
                    op: WalOp::Delete,
                }),
                _ => {} // unknown kind: skip, stay backward-readable
            }
            offset = payload_start + len;
        }
        let wal = Wal {
            file,
            durability,
            len: offset as u64,
            base: 0,
            synced_len: 0,
            pending: 0,
            last_sync: Instant::now(),
            fault,
            handed_off: false,
            failed: false,
            record: Vec::new(),
        };
        Ok((wal, records))
    }

    /// Appends a full-page write record and returns its length in bytes,
    /// framing included. Never syncs: see [`Wal::sync_due`].
    pub(crate) fn append(&mut self, page: PageId, data: &[u8]) -> io::Result<u64> {
        self.append_record(KIND_PAGE_WRITE, page, data)
    }

    /// Appends a page-delete record; same contract as [`Wal::append`]. On
    /// replay the page is freed in the backing file instead of written.
    pub(crate) fn append_delete(&mut self, page: PageId) -> io::Result<u64> {
        self.append_record(KIND_PAGE_DELETE, page, &[])
    }

    fn append_record(&mut self, kind: u8, page: PageId, data: &[u8]) -> io::Result<u64> {
        self.check()?;
        let len = PAYLOAD_HEADER + data.len();
        let record = &mut self.record;
        record.clear();
        record.extend_from_slice(&(len as u32).to_le_bytes());
        record.extend_from_slice(&[0u8; 4]); // CRC patched below
        record.push(kind);
        record.extend_from_slice(&page.0.to_le_bytes());
        record.extend_from_slice(data);
        let crc = crc32(&record[FRAME_LEN..]);
        record[4..8].copy_from_slice(&crc.to_le_bytes());
        // One positioned write at `len`; it lands there because the log is
        // not opened `O_APPEND`, which would make Linux ignore the offset.
        match self.fault.decide(FaultPoint::WalAppend, record.len()) {
            InjectedFault::None => self.file.write_all_at(record, self.len)?,
            InjectedFault::Torn(n) => {
                // A torn append persists a garbage prefix but never
                // advances `len`: the next append overwrites it, and if
                // the process dies first, replay's longest-valid-prefix
                // rule discards it — a crash mid-append in miniature.
                self.file.write_all_at(&record[..n], self.len)?;
                return Err(FaultInjector::error(FaultPoint::WalAppend));
            }
            _ => return Err(FaultInjector::error(FaultPoint::WalAppend)),
        }
        let bytes = record.len() as u64;
        self.len += bytes;
        self.pending += 1;
        Ok(bytes)
    }

    /// Whether the log's [`Durability`] wants a sync after the appends so
    /// far: how many appends that sync would cover, or `None`. `Strict`
    /// wants one after every append, `GroupCommit` once `max_batch` appends
    /// are pending or `max_wait` has passed since the last sync, and
    /// neither once the sync is handed off.
    pub(crate) fn sync_due(&self) -> Option<u64> {
        let due = !self.handed_off
            && match self.durability {
                Durability::Buffered => false,
                Durability::Strict => true,
                Durability::GroupCommit {
                    max_batch,
                    max_wait,
                } => self.pending >= max_batch || self.last_sync.elapsed() >= max_wait,
            };
        due.then_some(self.pending as u64)
    }

    /// The log file, whose descriptor the store clones to sync it outside
    /// the WAL mutex.
    pub(crate) fn file(&self) -> &File {
        &self.file
    }

    /// Hands the log's sync to a log writer: no later append wants one.
    pub(crate) fn hand_off_sync(&mut self) {
        self.handed_off = true;
    }

    /// The log position a sync starting now reaches, counting the bytes
    /// truncated away before the file's start; `None` if nothing is
    /// unsynced.
    pub(crate) fn unsynced(&self) -> io::Result<Option<u64>> {
        self.check()?;
        Ok((self.synced_len < self.len).then_some(self.base + self.len))
    }

    /// Publishes a sync that reached log position `end`: a success advances
    /// [`Wal::synced_len`], but never past a truncation made after the sync
    /// began, and closes the pending group; a failure fails the log for
    /// good.
    pub(crate) fn publish_sync(&mut self, end: u64, synced: io::Result<()>) -> io::Result<()> {
        match synced {
            Ok(()) => {
                let reached = end.saturating_sub(self.base).min(self.len);
                self.synced_len = self.synced_len.max(reached);
                self.pending = 0;
                self.last_sync = Instant::now();
            }
            Err(_) => self.fail(),
        }
        synced
    }

    /// Fails the log closed: every later append, sync and truncation is
    /// refused until the store is reopened.
    pub(crate) fn fail(&mut self) {
        self.failed = true;
    }

    /// Refuses a failed log.
    pub(crate) fn check(&self) -> io::Result<()> {
        if self.failed {
            return Err(failed_log());
        }
        Ok(())
    }

    /// Empties the log (after a checkpoint has made its records redundant)
    /// and returns the log position a sync of the truncation reaches.
    /// Refused on a failed log, whose file is all a reopen has to go on.
    pub(crate) fn truncate(&mut self) -> io::Result<u64> {
        self.check()?;
        self.file.set_len(0)?;
        self.base += self.len;
        self.len = 0;
        self.synced_len = 0;
        self.pending = 0;
        Ok(self.base)
    }

    /// Bytes of valid log.
    pub(crate) fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Bytes of log known flushed to the device — the prefix that survives
    /// even a kernel crash. Always a record boundary, because a sync
    /// reaches only positions an append left.
    pub(crate) fn synced_len(&self) -> u64 {
        self.synced_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_wal(tag: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("clic-wal-test-{}-{tag}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn open(path: &Path, durability: Durability) -> (Wal, Vec<WalRecord>) {
        Wal::open_with(path, durability, FaultInjector::disabled()).unwrap()
    }

    /// Publishes a successful sync of everything appended so far, as the
    /// store's log sync does.
    fn sync(wal: &mut Wal) {
        let reach = wal.unsynced().unwrap().unwrap();
        wal.publish_sync(reach, Ok(())).unwrap();
    }

    #[test]
    fn append_then_replay_roundtrip() {
        let path = temp_wal("roundtrip");
        {
            let (mut wal, recovered) = open(&path, Durability::Buffered);
            assert!(recovered.is_empty());
            wal.append(PageId(1), &[0xaa; 32]).unwrap();
            wal.append(PageId(2), &[0xbb; 32]).unwrap();
        } // dropped without sync: buffered writes still reach the OS
        let (_, recovered) = open(&path, Durability::Buffered);
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[0].page, PageId(1));
        assert_eq!(recovered[0].op, WalOp::Write(vec![0xaa; 32]));
        assert_eq!(recovered[1].page, PageId(2));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn delete_records_replay_in_log_order() {
        let path = temp_wal("delete");
        {
            let (mut wal, recovered) = open(&path, Durability::Buffered);
            assert!(recovered.is_empty());
            wal.append(PageId(7), &[0xcc; 16]).unwrap();
            wal.append_delete(PageId(7)).unwrap();
            wal.append(PageId(8), &[0xdd; 16]).unwrap();
        }
        let (_, recovered) = open(&path, Durability::Buffered);
        assert_eq!(recovered.len(), 3);
        assert_eq!(recovered[0].op, WalOp::Write(vec![0xcc; 16]));
        assert_eq!(recovered[1].page, PageId(7));
        assert_eq!(recovered[1].op, WalOp::Delete);
        assert_eq!(recovered[2].page, PageId(8));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_discarded_and_overwritten() {
        let path = temp_wal("torn");
        {
            let (mut wal, _) = open(&path, Durability::Buffered);
            wal.append(PageId(1), &[1; 16]).unwrap();
            wal.append(PageId(2), &[2; 16]).unwrap();
        }
        // Truncate mid-way through the second record: a crash mid-append.
        let full = std::fs::read(&path).unwrap();
        let record_len = FRAME_LEN + PAYLOAD_HEADER + 16;
        std::fs::write(&path, &full[..record_len + 5]).unwrap();
        let (mut wal, recovered) = open(&path, Durability::Buffered);
        assert_eq!(recovered.len(), 1, "only the intact record replays");
        assert_eq!(recovered[0].page, PageId(1));
        // New appends overwrite the torn tail.
        wal.append(PageId(3), &[3; 16]).unwrap();
        drop(wal);
        let (_, recovered) = open(&path, Durability::Buffered);
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[1].page, PageId(3));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_record_stops_replay() {
        let path = temp_wal("corrupt");
        {
            let (mut wal, _) = open(&path, Durability::Buffered);
            wal.append(PageId(1), &[1; 16]).unwrap();
            wal.append(PageId(2), &[2; 16]).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let second_payload = FRAME_LEN + PAYLOAD_HEADER + 16 + FRAME_LEN + 3;
        bytes[second_payload] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let (_, recovered) = open(&path, Durability::Buffered);
        assert_eq!(recovered.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncate_empties_the_log() {
        let path = temp_wal("truncate");
        let (mut wal, _) = open(&path, Durability::Buffered);
        wal.append(PageId(1), &[1; 8]).unwrap();
        assert!(wal.len_bytes() > 0);
        wal.truncate().unwrap();
        assert_eq!(wal.len_bytes(), 0);
        drop(wal);
        let (_, recovered) = open(&path, Durability::Buffered);
        assert!(recovered.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_sync_begun_before_a_truncation_marks_nothing_after_it() {
        let path = temp_wal("straddle");
        let (mut wal, _) = open(&path, Durability::Buffered);
        wal.append(PageId(1), &[1; 8]).unwrap();
        let reach = wal.unsynced().unwrap().unwrap();
        // A checkpoint truncates and a new record lands while the sync that
        // began above is still in flight.
        wal.truncate().unwrap();
        wal.append(PageId(2), &[2; 8]).unwrap();
        wal.publish_sync(reach, Ok(())).unwrap();
        assert_eq!(wal.synced_len(), 0, "the new record was never synced");
        sync(&mut wal);
        assert_eq!(wal.synced_len(), wal.len_bytes());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_failed_log_is_never_truncated() {
        let path = temp_wal("failed-truncate");
        let (mut wal, _) = open(&path, Durability::Buffered);
        wal.append(PageId(1), &[1; 8]).unwrap();
        let reach = wal.unsynced().unwrap().unwrap();
        assert!(wal
            .publish_sync(reach, Err(io::Error::other("eio")))
            .is_err());
        assert!(wal.truncate().is_err());
        assert!(wal.append(PageId(2), &[2; 8]).is_err());
        drop(wal);
        let (_, recovered) = open(&path, Durability::Buffered);
        assert_eq!(recovered.len(), 1, "the record outlives the failure");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn buffered_appends_never_sync() {
        let path = temp_wal("buffered");
        let (mut wal, _) = open(&path, Durability::Buffered);
        for p in 0..5u64 {
            wal.append(PageId(p), &[p as u8; 8]).unwrap();
            assert_eq!(wal.sync_due(), None);
        }
        assert_eq!(wal.synced_len(), 0);
        sync(&mut wal);
        assert_eq!(
            wal.synced_len(),
            wal.len_bytes(),
            "an explicit sync closes the window"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn strict_syncs_every_append() {
        let path = temp_wal("strict");
        let (mut wal, _) = open(&path, Durability::Strict);
        for p in 0..3u64 {
            wal.append(PageId(p), &[p as u8; 8]).unwrap();
            assert_eq!(wal.sync_due(), Some(1), "a group of one is not a group");
            sync(&mut wal);
            assert_eq!(wal.synced_len(), wal.len_bytes());
        }
        wal.hand_off_sync();
        wal.append(PageId(3), &[3; 8]).unwrap();
        assert_eq!(wal.sync_due(), None, "a log writer syncs a handed-off log");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_commit_coalesces_appends_into_one_sync() {
        let path = temp_wal("group");
        let durability = Durability::GroupCommit {
            max_batch: 4,
            max_wait: Duration::from_secs(3600), // never trips in this test
        };
        let (mut wal, _) = open(&path, durability);
        for p in 0..3u64 {
            wal.append(PageId(p), &[p as u8; 8]).unwrap();
            assert_eq!(wal.sync_due(), None, "append {p} rides the pending group");
        }
        wal.append(PageId(3), &[3; 8]).unwrap();
        assert_eq!(
            wal.sync_due(),
            Some(4),
            "the batch boundary wants one sync for four appends"
        );
        sync(&mut wal);
        assert_eq!(wal.synced_len(), wal.len_bytes());
        assert_eq!(wal.sync_due(), None, "the sync closed the group");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_commit_max_wait_bounds_staleness() {
        let path = temp_wal("groupwait");
        let durability = Durability::GroupCommit {
            max_batch: 1_000_000,
            max_wait: Duration::ZERO, // every append is already stale
        };
        let (mut wal, _) = open(&path, durability);
        wal.append(PageId(1), &[1; 8]).unwrap();
        assert_eq!(wal.sync_due(), Some(1), "elapsed max_wait wants the sync");
        let _ = std::fs::remove_file(&path);
    }
}
