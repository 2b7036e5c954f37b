//! Cache statistics collected by the simulation driver.

use std::fmt;
use std::ops::{Add, AddAssign};

/// Counters describing the behaviour of a storage-server cache over a trace.
///
/// The paper's headline metric is the *read hit ratio*: the number of read
/// hits divided by the number of read requests. Writes are counted separately
/// because, in a second-tier cache, caching on writes is where most of the
/// benefit comes from, but write hits themselves do not save any disk I/O in
/// the simulated model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of read requests that found the page in the cache.
    pub read_hits: u64,
    /// Number of read requests that missed the cache.
    pub read_misses: u64,
    /// Number of write requests for pages already in the cache.
    pub write_hits: u64,
    /// Number of write requests for pages not in the cache.
    pub write_misses: u64,
    /// Number of pages evicted to make room for newly admitted pages.
    pub evictions: u64,
    /// Number of requests whose page the policy declined to admit.
    pub bypasses: u64,
}

impl CacheStats {
    /// Creates an all-zero statistics record.
    pub fn new() -> Self {
        CacheStats::default()
    }

    /// Total number of read requests observed.
    pub fn reads(&self) -> u64 {
        self.read_hits + self.read_misses
    }

    /// Total number of write requests observed.
    pub fn writes(&self) -> u64 {
        self.write_hits + self.write_misses
    }

    /// Total number of requests observed.
    pub fn requests(&self) -> u64 {
        self.reads() + self.writes()
    }

    /// The read hit ratio (read hits / reads), the paper's primary metric.
    ///
    /// Returns 0.0 when the trace contains no reads.
    pub fn read_hit_ratio(&self) -> f64 {
        let reads = self.reads();
        if reads == 0 {
            0.0
        } else {
            self.read_hits as f64 / reads as f64
        }
    }

    /// Records a read outcome.
    pub fn record_read(&mut self, hit: bool) {
        if hit {
            self.read_hits += 1;
        } else {
            self.read_misses += 1;
        }
    }

    /// Records a write outcome.
    pub fn record_write(&mut self, hit: bool) {
        if hit {
            self.write_hits += 1;
        } else {
            self.write_misses += 1;
        }
    }
}

impl Add for CacheStats {
    type Output = CacheStats;

    fn add(mut self, rhs: Self) -> Self::Output {
        self += rhs;
        self
    }
}

impl AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: Self) {
        self.read_hits += rhs.read_hits;
        self.read_misses += rhs.read_misses;
        self.write_hits += rhs.write_hits;
        self.write_misses += rhs.write_misses;
        self.evictions += rhs.evictions;
        self.bypasses += rhs.bypasses;
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reads {} (hit {:.2}%), writes {}, evictions {}, bypasses {}",
            self.reads(),
            self.read_hit_ratio() * 100.0,
            self.writes(),
            self.evictions,
            self.bypasses
        )
    }
}

/// Byte-level I/O counters for a cache with a real data plane.
///
/// Where [`CacheStats`] counts policy decisions (hits, misses, evictions),
/// `IoStats` counts the bytes those decisions move: payload traffic between
/// clients and the store, frame-sized transfers against the backing disk,
/// buffer-pool hits, write-back flushes, and write-ahead-log appends. The
/// `clic-store` crate produces these counters and the server/bench layers
/// aggregate and report them; they live here so every layer shares one
/// definition, exactly like `CacheStats`.
///
/// The headline derived metric is [`IoStats::buffer_hit_ratio`]; the headline
/// raw metric is [`IoStats::disk_reads`] — the disk accesses a better
/// admission policy avoids, which is CLIC's value proposition in the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Payload bytes returned to clients by read operations.
    pub bytes_read: u64,
    /// Payload bytes accepted from clients by write operations.
    pub bytes_written: u64,
    /// Read operations served entirely from a resident buffer frame.
    pub buffer_hits: u64,
    /// Read operations that had to go to the disk tier.
    pub buffer_misses: u64,
    /// Frame-sized reads issued against the backing disk (includes reads of
    /// pages the backing file has never stored, which a real server would
    /// fetch from the underlying device all the same).
    pub disk_reads: u64,
    /// Frame-sized writes issued against the backing disk.
    pub disk_writes: u64,
    /// Frame-sized bytes transferred from the backing disk.
    pub disk_bytes_read: u64,
    /// Frame-sized bytes transferred to the backing disk.
    pub disk_bytes_written: u64,
    /// Dirty frames written back by flushes (background, threshold, or
    /// eviction-forced).
    pub pages_flushed: u64,
    /// Dirty frames whose write-back was forced by an eviction.
    pub eviction_flushes: u64,
    /// Records appended to the write-ahead log.
    pub wal_records: u64,
    /// Bytes appended to the write-ahead log (including record framing).
    pub wal_bytes: u64,
    /// `fsync` calls issued against the page file: one per checkpoint,
    /// whether the log reached its budget or the store shut down cleanly.
    pub data_syncs: u64,
    /// `fsync` calls issued against the write-ahead log.
    pub wal_syncs: u64,
    /// WAL syncs that covered more than one pending append — the group
    /// commits that amortized durability across concurrent writers.
    pub group_commits: u64,
}

impl IoStats {
    /// Creates an all-zero I/O record.
    pub fn new() -> Self {
        IoStats::default()
    }

    /// Total read operations against the data plane.
    pub fn reads(&self) -> u64 {
        self.buffer_hits + self.buffer_misses
    }

    /// Fraction of read operations served from a resident buffer frame
    /// without touching the disk tier (0.0 when no reads were observed).
    pub fn buffer_hit_ratio(&self) -> f64 {
        let reads = self.reads();
        if reads == 0 {
            0.0
        } else {
            self.buffer_hits as f64 / reads as f64
        }
    }

    /// Total payload bytes moved between clients and the store.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Total `fsync` calls across the page file and the WAL — the raw
    /// durability cost that group commit amortizes.
    pub fn fsyncs(&self) -> u64 {
        self.data_syncs + self.wal_syncs
    }
}

impl Add for IoStats {
    type Output = IoStats;

    fn add(mut self, rhs: Self) -> Self::Output {
        self += rhs;
        self
    }
}

impl AddAssign for IoStats {
    fn add_assign(&mut self, rhs: Self) {
        self.bytes_read += rhs.bytes_read;
        self.bytes_written += rhs.bytes_written;
        self.buffer_hits += rhs.buffer_hits;
        self.buffer_misses += rhs.buffer_misses;
        self.disk_reads += rhs.disk_reads;
        self.disk_writes += rhs.disk_writes;
        self.disk_bytes_read += rhs.disk_bytes_read;
        self.disk_bytes_written += rhs.disk_bytes_written;
        self.pages_flushed += rhs.pages_flushed;
        self.eviction_flushes += rhs.eviction_flushes;
        self.wal_records += rhs.wal_records;
        self.wal_bytes += rhs.wal_bytes;
        self.data_syncs += rhs.data_syncs;
        self.wal_syncs += rhs.wal_syncs;
        self.group_commits += rhs.group_commits;
    }
}

impl fmt::Display for IoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reads {} (buffer hit {:.2}%), disk reads {}, disk writes {}, \
             flushed {}, wal {} records / {} bytes",
            self.reads(),
            self.buffer_hit_ratio() * 100.0,
            self.disk_reads,
            self.disk_writes,
            self.pages_flushed,
            self.wal_records,
            self.wal_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_empty_traces() {
        let s = CacheStats::new();
        assert_eq!(s.read_hit_ratio(), 0.0);
        assert_eq!(s.requests(), 0);
    }

    #[test]
    fn read_hit_ratio_ignores_writes() {
        let mut s = CacheStats::new();
        s.record_read(true);
        s.record_read(false);
        s.record_read(false);
        s.record_write(true);
        s.record_write(false);
        assert!((s.read_hit_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.reads(), 3);
        assert_eq!(s.writes(), 2);
    }

    #[test]
    fn add_assign_sums_fields() {
        let mut a = CacheStats {
            read_hits: 1,
            read_misses: 2,
            write_hits: 3,
            write_misses: 4,
            evictions: 5,
            bypasses: 6,
        };
        let b = a;
        a += b;
        assert_eq!(a.read_hits, 2);
        assert_eq!(a.read_misses, 4);
        assert_eq!(a.write_hits, 6);
        assert_eq!(a.write_misses, 8);
        assert_eq!(a.evictions, 10);
        assert_eq!(a.bypasses, 12);
    }

    #[test]
    fn display_contains_hit_ratio() {
        let mut s = CacheStats::new();
        s.record_read(true);
        let text = s.to_string();
        assert!(text.contains("100.00%"));
    }

    #[test]
    fn io_stats_ratios_and_sums() {
        let empty = IoStats::new();
        assert_eq!(empty.buffer_hit_ratio(), 0.0);
        assert_eq!(empty.bytes_moved(), 0);
        let mut a = IoStats {
            bytes_read: 8192,
            bytes_written: 4096,
            buffer_hits: 3,
            buffer_misses: 1,
            disk_reads: 1,
            disk_writes: 2,
            disk_bytes_read: 4096,
            disk_bytes_written: 8192,
            pages_flushed: 2,
            eviction_flushes: 1,
            wal_records: 1,
            wal_bytes: 4113,
            data_syncs: 2,
            wal_syncs: 3,
            group_commits: 1,
        };
        assert!((a.buffer_hit_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(a.reads(), 4);
        assert_eq!(a.bytes_moved(), 12_288);
        assert_eq!(a.fsyncs(), 5);
        let b = a;
        a += b;
        assert_eq!(a.buffer_hits, 6);
        assert_eq!(a.wal_bytes, 8226);
        assert_eq!(a.fsyncs(), 10);
        assert_eq!(a.group_commits, 2);
        assert_eq!((b + b).disk_writes, 4);
        let text = a.to_string();
        assert!(text.contains("75.00%"));
    }
}
