//! [`DiskManager`]: fixed-size page slots in one backing file, with a
//! sharded allocation bitmap and per-slot CRC headers.
//!
//! # File layout
//!
//! ```text
//! [file header: magic (8) | page_size u32 LE | reserved u32]      16 bytes
//! [slot 0: meta (16) | page bytes (page_size)]
//! [slot 1: meta (16) | page bytes (page_size)]
//! ...
//! slot meta = page id u64 LE | crc32 u32 LE | flags u32 LE
//! ```
//!
//! The CRC covers the page-id bytes followed by the page bytes, so a slot
//! whose header and data were not written together (a torn frame) fails
//! verification on read. Page ids are sparse (clients address disjoint
//! ranges offset by 100 M pages), so slots are assigned first-fit across the
//! whole file by an [`AllocationBitmap`] and found through an in-memory
//! `page → slot` map; both are rebuilt by scanning the slot headers when the
//! file is opened. Freeing a page zeroes its slot meta and returns the slot
//! to the bitmap.
//!
//! # Locking
//!
//! Every method takes `&self`. One mutex guards the map and the bitmap
//! together, held for the lookup or allocation only, never across file
//! I/O; the I/O itself is positioned (`pread`/`pwrite`), so no seek cursor
//! is shared. Operations on the *same* page are serialized by the caller
//! ([`PageStore`](crate::PageStore)'s contract), so a slot seen in the map
//! stays that page's slot for the duration of an I/O call.

use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Mutex;

use cache_sim::sync::recover_lock;
use cache_sim::{FastHashMap, PageId};

use crate::crc::Crc32;
use crate::fault::{FaultInjector, FaultPoint, InjectedFault};

/// Identifies a clic-store backing file (version 1).
const FILE_MAGIC: [u8; 8] = *b"CLICPGS1";
/// Bytes of file header before slot 0.
const HEADER_LEN: u64 = 16;
/// Bytes of per-slot metadata before the page bytes.
const SLOT_META_LEN: usize = 16;
/// Slot meta flag: the slot holds a live page.
const FLAG_ALLOCATED: u32 = 1;

/// A slot-granular allocation bitmap: one bit per slot, first-fit
/// allocation, growing as needed. Single-threaded; [`DiskManager`] keeps
/// one behind its slot mutex.
#[derive(Debug, Default)]
pub(crate) struct AllocationBitmap {
    words: Vec<u64>,
    /// Word index to start the next first-fit scan from (monotone until a
    /// clear rewinds it), so repeated allocation is amortized O(1).
    scan_hint: usize,
}

impl AllocationBitmap {
    /// Returns the lowest free slot, marking it allocated (growing the
    /// bitmap if every existing slot is taken).
    pub(crate) fn allocate(&mut self) -> usize {
        for (offset, word) in self.words[self.scan_hint..].iter_mut().enumerate() {
            if *word != u64::MAX {
                let bit = word.trailing_ones() as usize;
                *word |= 1 << bit;
                self.scan_hint += offset;
                return (self.scan_hint) * 64 + bit;
            }
        }
        self.scan_hint = self.words.len();
        self.words.push(1);
        self.scan_hint * 64
    }

    /// Marks `slot` allocated (used when rebuilding from a file scan).
    pub(crate) fn set(&mut self, slot: usize) {
        let word = slot / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (slot % 64);
    }

    /// Marks `slot` free.
    pub(crate) fn clear(&mut self, slot: usize) {
        let word = slot / 64;
        if word < self.words.len() {
            self.words[word] &= !(1 << (slot % 64));
            self.scan_hint = self.scan_hint.min(word);
        }
    }
}

/// Which slot holds each live page, and which slots are taken.
#[derive(Debug, Default)]
struct Slots {
    map: FastHashMap<PageId, u32>,
    bitmap: AllocationBitmap,
}

/// Reads and writes fixed-size page frames in a single backing file.
///
/// Internally synchronized (see the module docs); callers serialize
/// operations on the *same* page.
#[derive(Debug)]
pub(crate) struct DiskManager {
    file: File,
    page_size: usize,
    slots: Mutex<Slots>,
    fault: FaultInjector,
}

impl DiskManager {
    /// Opens (or creates) the backing file at `path` with the given page
    /// size, rebuilding the slot directory and allocation bitmap by scanning
    /// the slot headers, with a [`FaultInjector`] armed at the
    /// [`FaultPoint::DiskRead`], [`FaultPoint::DiskWrite`], and
    /// [`FaultPoint::DataSync`] points. The open-time header scan is not
    /// fault-injected: it models recovery, which runs before the
    /// schedule starts.
    ///
    /// Fails with [`io::ErrorKind::InvalidData`] if the file exists but its
    /// magic or page size disagree, or if two live slots claim the same
    /// page.
    // invariant: the `try_into().unwrap()`s below convert constant-bound
    // subslices of fixed-size buffers into arrays — they cannot fail.
    #[cfg_attr(not(test), allow(clippy::unwrap_used))]
    pub(crate) fn open_with(
        path: &Path,
        page_size: usize,
        fault: FaultInjector,
    ) -> io::Result<DiskManager> {
        assert!(page_size > 0, "page size must be positive");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let file_len = file.metadata()?.len();
        if file_len == 0 {
            let mut header = [0u8; HEADER_LEN as usize];
            header[..8].copy_from_slice(&FILE_MAGIC);
            header[8..12].copy_from_slice(&(page_size as u32).to_le_bytes());
            file.write_all_at(&header, 0)?;
        } else {
            let mut header = [0u8; HEADER_LEN as usize];
            file.read_exact_at(&mut header, 0)?;
            if header[..8] != FILE_MAGIC {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "not a clic-store backing file (bad magic)",
                ));
            }
            let stored = u32::from_le_bytes(header[8..12].try_into().unwrap());
            if stored as usize != page_size {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("backing file has page size {stored}, expected {page_size}"),
                ));
            }
        }
        let stride = (SLOT_META_LEN + page_size) as u64;
        let mut slots = Slots::default();
        let mut meta = [0u8; SLOT_META_LEN];
        for slot in 0..file_len.saturating_sub(HEADER_LEN) / stride {
            file.read_exact_at(&mut meta, HEADER_LEN + slot * stride)?;
            let flags = u32::from_le_bytes(meta[12..16].try_into().unwrap());
            if flags & FLAG_ALLOCATED == 0 {
                continue;
            }
            let page = PageId(u64::from_le_bytes(meta[..8].try_into().unwrap()));
            if slots.map.insert(page, slot as u32).is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("page {} is live in two slots", page.0),
                ));
            }
            slots.bitmap.set(slot as usize);
        }
        Ok(DiskManager {
            file,
            page_size,
            slots: Mutex::new(slots),
            fault,
        })
    }

    fn stride(&self) -> u64 {
        (SLOT_META_LEN + self.page_size) as u64
    }

    fn slot_offset(&self, slot: u32) -> u64 {
        HEADER_LEN + u64::from(slot) * self.stride()
    }

    fn slots(&self) -> std::sync::MutexGuard<'_, Slots> {
        recover_lock(&self.slots)
    }

    /// Number of live pages in the file.
    pub(crate) fn allocated_pages(&self) -> usize {
        self.slots().map.len()
    }

    fn checksum(page: PageId, data: &[u8]) -> u32 {
        let mut crc = Crc32::new();
        crc.update(&page.0.to_le_bytes());
        crc.update(data);
        crc.finish()
    }

    /// Reads `page` into `buf` (which must be exactly one page long).
    /// Returns `Ok(false)` if the file holds no copy of the page, and
    /// [`io::ErrorKind::InvalidData`] if the stored frame fails CRC
    /// verification (a torn write).
    pub(crate) fn read_page(&self, page: PageId, buf: &mut [u8]) -> io::Result<bool> {
        assert_eq!(buf.len(), self.page_size, "buffer must be one page");
        let Some(&slot) = self.slots().map.get(&page) else {
            return Ok(false);
        };
        let mut slot_buf = vec![0u8; SLOT_META_LEN + self.page_size];
        self.file
            .read_exact_at(&mut slot_buf, self.slot_offset(slot))?;
        match self.fault.decide(FaultPoint::DiskRead, slot_buf.len()) {
            InjectedFault::None => {}
            InjectedFault::Corrupt(at) => {
                // Flip one byte of what the "device" returned: the CRC
                // check below reports it as a torn frame, exactly like
                // real media corruption.
                slot_buf[at] ^= 0xff;
            }
            _ => return Err(FaultInjector::error(FaultPoint::DiskRead)),
        }
        // invariant: constant-bound subslices of a fixed-size meta prefix.
        #[allow(clippy::unwrap_used)]
        let stored_page = u64::from_le_bytes(slot_buf[..8].try_into().unwrap());
        #[allow(clippy::unwrap_used)]
        let stored_crc = u32::from_le_bytes(slot_buf[8..12].try_into().unwrap());
        let data = &slot_buf[SLOT_META_LEN..];
        if stored_page != page.0 || stored_crc != Self::checksum(page, data) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("torn frame: page {} failed CRC verification", page.0),
            ));
        }
        buf.copy_from_slice(data);
        Ok(true)
    }

    /// Writes `data` (exactly one page) as the live copy of `page`,
    /// allocating the first free slot if it has none. Meta and page bytes
    /// go out as one contiguous positioned write, after the slot lock is
    /// already released.
    pub(crate) fn write_page(&self, page: PageId, data: &[u8]) -> io::Result<()> {
        assert_eq!(data.len(), self.page_size, "data must be one page");
        let slot = {
            let mut slots = self.slots();
            let Slots { map, bitmap } = &mut *slots;
            *map.entry(page).or_insert_with(|| bitmap.allocate() as u32)
        };
        let mut slot_buf = vec![0u8; SLOT_META_LEN + self.page_size];
        slot_buf[..8].copy_from_slice(&page.0.to_le_bytes());
        slot_buf[8..12].copy_from_slice(&Self::checksum(page, data).to_le_bytes());
        slot_buf[12..16].copy_from_slice(&FLAG_ALLOCATED.to_le_bytes());
        slot_buf[SLOT_META_LEN..].copy_from_slice(data);
        match self.fault.decide(FaultPoint::DiskWrite, slot_buf.len()) {
            InjectedFault::None => self.file.write_all_at(&slot_buf, self.slot_offset(slot))?,
            InjectedFault::Torn(n) => {
                // A torn frame write: the slot now holds a mix of old and
                // new bytes whose CRC cannot verify — the next read_page
                // reports it, and recovery replays the WAL copy over it.
                self.file
                    .write_all_at(&slot_buf[..n], self.slot_offset(slot))?;
                return Err(FaultInjector::error(FaultPoint::DiskWrite));
            }
            _ => return Err(FaultInjector::error(FaultPoint::DiskWrite)),
        }
        Ok(())
    }

    /// Drops the live copy of `page` (zeroing its slot meta) and returns its
    /// slot to the allocator. Returns `Ok(false)` if the page had no copy.
    ///
    /// The slot is returned to the bitmap only *after* the zeroed meta hits
    /// the file, so a concurrent allocation can never be clobbered by this
    /// free's write.
    pub(crate) fn free_page(&self, page: PageId) -> io::Result<bool> {
        let Some(slot) = self.slots().map.remove(&page) else {
            return Ok(false);
        };
        if let InjectedFault::Fail | InjectedFault::Torn(_) =
            self.fault.decide(FaultPoint::DiskWrite, SLOT_META_LEN)
        {
            // Re-publish the mapping: the zeroed meta never hit the file,
            // so the slot still holds the live page.
            self.slots().map.insert(page, slot);
            return Err(FaultInjector::error(FaultPoint::DiskWrite));
        }
        self.file
            .write_all_at(&[0u8; SLOT_META_LEN], self.slot_offset(slot))?;
        self.slots().bitmap.clear(slot as usize);
        Ok(true)
    }

    /// Flushes file contents to the device (`fsync`-equivalent).
    pub(crate) fn sync(&self) -> io::Result<()> {
        if self.fault.decide(FaultPoint::DataSync, 0) != InjectedFault::None {
            return Err(FaultInjector::error(FaultPoint::DataSync));
        }
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(tag: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("clic-disk-test-{}-{tag}.pages", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Byte offset of the live slot holding `page`, found by scanning slot
    /// metas.
    fn slot_offset_of(bytes: &[u8], page: u64, page_size: usize) -> usize {
        let stride = SLOT_META_LEN + page_size;
        let mut offset = HEADER_LEN as usize;
        while offset + stride <= bytes.len() {
            let meta = &bytes[offset..offset + SLOT_META_LEN];
            let id = u64::from_le_bytes(meta[..8].try_into().unwrap());
            let flags = u32::from_le_bytes(meta[12..16].try_into().unwrap());
            if flags & FLAG_ALLOCATED != 0 && id == page {
                return offset;
            }
            offset += stride;
        }
        panic!("page {page} has no live slot");
    }

    fn open(path: &std::path::Path, page_size: usize) -> io::Result<DiskManager> {
        DiskManager::open_with(path, page_size, FaultInjector::disabled())
    }

    #[test]
    fn bitmap_first_fit_and_reuse() {
        let mut bitmap = AllocationBitmap::default();
        assert_eq!(bitmap.allocate(), 0);
        assert_eq!(bitmap.allocate(), 1);
        assert_eq!(bitmap.allocate(), 2);
        bitmap.clear(1);
        assert_eq!(bitmap.allocate(), 1, "freed slot is reused first-fit");
        for expected in 3..70 {
            assert_eq!(bitmap.allocate(), expected);
        }
        // Across a word boundary: a freed slot in the second word is found
        // again, and a set slot is never handed out twice.
        bitmap.clear(64);
        assert_eq!(bitmap.allocate(), 64);
        bitmap.set(70);
        assert_eq!(bitmap.allocate(), 71);
    }

    #[test]
    fn write_read_roundtrip_and_rescan() {
        let path = temp_file("roundtrip");
        let page_size = 256;
        let pattern = |seed: u8| vec![seed; page_size];
        {
            let disk = open(&path, page_size).unwrap();
            // Sparse page ids land in dense slots.
            disk.write_page(PageId(7), &pattern(1)).unwrap();
            disk.write_page(PageId(100_000_007), &pattern(2)).unwrap();
            disk.write_page(PageId(7), &pattern(3)).unwrap(); // overwrite in place
            assert_eq!(disk.allocated_pages(), 2);
            let mut buf = vec![0u8; page_size];
            assert!(disk.read_page(PageId(7), &mut buf).unwrap());
            assert_eq!(buf, pattern(3));
            assert!(!disk.read_page(PageId(8), &mut buf).unwrap());
            assert!(disk.free_page(PageId(7)).unwrap());
            assert!(!disk.free_page(PageId(7)).unwrap());
            disk.write_page(PageId(42), &pattern(4)).unwrap();
            disk.sync().unwrap();
        }
        // Reopen: the directory and bitmap are rebuilt from the headers.
        let disk = open(&path, page_size).unwrap();
        assert_eq!(disk.allocated_pages(), 2);
        let mut buf = vec![0u8; page_size];
        assert!(disk.read_page(PageId(100_000_007), &mut buf).unwrap());
        assert_eq!(buf, pattern(2));
        assert!(disk.read_page(PageId(42), &mut buf).unwrap());
        assert_eq!(buf, pattern(4));
        assert!(
            !disk.read_page(PageId(7), &mut buf).unwrap(),
            "freed page stays freed"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_writers_of_distinct_pages_round_trip() {
        let path = temp_file("concurrent");
        let page_size = 64;
        let disk = std::sync::Arc::new(open(&path, page_size).unwrap());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let disk = std::sync::Arc::clone(&disk);
                scope.spawn(move || {
                    for i in 0..32u64 {
                        let page = PageId(t * 1_000 + i);
                        let data = vec![(t * 32 + i) as u8; page_size];
                        disk.write_page(page, &data).unwrap();
                    }
                });
            }
        });
        assert_eq!(disk.allocated_pages(), 128);
        let mut buf = vec![0u8; page_size];
        for t in 0..4u64 {
            for i in 0..32u64 {
                let page = PageId(t * 1_000 + i);
                assert!(disk.read_page(page, &mut buf).unwrap());
                assert_eq!(buf, vec![(t * 32 + i) as u8; page_size], "page {page}");
            }
        }
        // A reopen rebuilds the same directory the writers built.
        drop(disk);
        let disk = open(&path, page_size).unwrap();
        assert_eq!(disk.allocated_pages(), 128);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_frames_fail_crc_verification() {
        let path = temp_file("torn");
        let page_size = 128;
        let disk = open(&path, page_size).unwrap();
        disk.write_page(PageId(1), &vec![9u8; page_size]).unwrap();
        drop(disk);
        // Corrupt one byte in the middle of the page's slot bytes.
        let mut bytes = std::fs::read(&path).unwrap();
        let victim = slot_offset_of(&bytes, 1, page_size) + SLOT_META_LEN + page_size / 2;
        bytes[victim] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let disk = open(&path, page_size).unwrap();
        let mut buf = vec![0u8; page_size];
        let err = disk.read_page(PageId(1), &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatched_page_size_is_rejected() {
        let path = temp_file("pagesize");
        drop(open(&path, 256).unwrap());
        let err = open(&path, 512).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }
}
