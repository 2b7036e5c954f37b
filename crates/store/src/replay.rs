//! Storage-coupled trace replay: runs a replacement policy over a trace while
//! moving *real bytes* through a [`PageStore`] — the data-plane analogue of
//! `cache_sim::simulate`.
//!
//! The policy stays the source of truth for cache contents: the driver hands
//! every decision to [`PageStore::mirror`], which turns admissions into
//! buffer frames, policy evictions into frame evictions (forcing dirty
//! write-back), and bypasses into I/O around the buffer. On top of the
//! usual hit/miss statistics it therefore measures
//! what the paper's Section 6 argues actually matters — disk reads — and
//! verifies end-to-end that every byte read back is the byte that was
//! written.
//!
//! [`replay_storage_partitioned`] is the sharded-server shape of the same
//! replay: the trace is split by page hash into partitions, each replayed
//! against its *own* policy instance and its own [`PageStore`] (per-shard
//! subdirectories via [`StoreConfig::for_shard`]), then merged in partition
//! order. Like `simulate_partitioned_parallel` it is **bit-identical**
//! regardless of how many worker threads replay the partitions, which is
//! what lets the bench harness sweep shard counts under `--jobs` without
//! losing determinism. Durability is a [`StoreConfig`] knob
//! ([`StoreConfig::with_durability`]), so both replays are parameterized
//! over it for free.

use std::collections::BTreeMap;
use std::io;

use cache_sim::{
    record_outcomes, CachePolicy, CacheStats, ClientId, FastHashSet, IoStats, PageId,
    PolicyFactory, Request, SimulationResult, ThreadPool, Trace, REPLAY_CHUNK,
};
use clic_obs::HistogramSnapshot;

use crate::store::{PageStore, StoreConfig};

/// Histogram name under which the replay records per-chunk service
/// latencies (microseconds per [`cache_sim::REPLAY_CHUNK`] requests) into
/// the store's [`clic_obs::Recorder`], when one is enabled.
pub const REPLAY_CHUNK_HISTOGRAM: &str = "store.replay_chunk_us";

/// Deterministic page payload: the first 8 bytes are the page id
/// (little-endian) — the *stamp* the replay verifies on every read of a
/// written page — and the rest is a fixed byte pattern derived from the id,
/// so torn or misdirected I/O shows up as a content mismatch rather than a
/// silent wrong answer.
pub fn page_payload(page: PageId, page_size: usize) -> Vec<u8> {
    let mut data = vec![0u8; page_size];
    let id = page.0.to_le_bytes();
    let n = id.len().min(page_size);
    data[..n].copy_from_slice(&id[..n]);
    for (i, byte) in data.iter_mut().enumerate().skip(n) {
        *byte = (page.0 as u8).wrapping_mul(31).wrapping_add(i as u8);
    }
    data
}

/// The outcome of [`replay_storage`]: the usual policy-level statistics plus
/// the byte-level I/O counters the store accumulated.
#[derive(Debug, Clone)]
pub struct StorageReplayReport {
    /// Hit/miss/eviction statistics, identical in meaning to
    /// `cache_sim::simulate`'s result.
    pub result: SimulationResult,
    /// The store's byte-level counters at the end of the replay (the store
    /// should be freshly opened, so these cover exactly this replay).
    pub io: IoStats,
    /// Per-chunk replay latencies (microseconds per
    /// [`cache_sim::REPLAY_CHUNK`] requests, final partial chunk included),
    /// recorded when the store was opened with an enabled
    /// [`clic_obs::Recorder`] ([`crate::StoreConfig::with_recorder`]).
    /// Empty when the recorder is disabled. The snapshot covers everything
    /// the recorder's [`REPLAY_CHUNK_HISTOGRAM`] accumulated, so use a
    /// fresh recorder per replay for per-replay numbers.
    pub latency: HistogramSnapshot,
}

impl StorageReplayReport {
    /// Disk-tier reads per request — the cost metric of the paper's Figure
    /// 11 discussion, here measured against a real disk file rather than
    /// inferred from miss counts.
    pub fn disk_reads_per_request(&self) -> f64 {
        let requests = self.result.stats.requests();
        if requests == 0 {
            0.0
        } else {
            self.io.disk_reads as f64 / requests as f64
        }
    }
}

fn unsupported_policy(name: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::Unsupported,
        format!(
            "policy {name} does not report eviction identities; \
             it cannot drive a real data plane"
        ),
    )
}

/// The shared per-request loop of both replays: drives `requests` (with
/// their global sequence numbers) through `policy` and `store`, verifying
/// read-back content. The caller has already enabled eviction recording.
fn replay_requests(
    policy: &mut dyn CachePolicy,
    store: &PageStore,
    requests: impl Iterator<Item = (u64, Request)>,
) -> io::Result<(CacheStats, BTreeMap<ClientId, CacheStats>)> {
    let page_size = store.page_size();
    let mut stats = CacheStats::new();
    let mut per_client = BTreeMap::new();
    let mut evicted: Vec<PageId> = Vec::new();
    let mut buf: Vec<u8> = Vec::with_capacity(page_size);
    let mut written: FastHashSet<PageId> = FastHashSet::default();
    // Per-chunk service latency, recorded at REPLAY_CHUNK granularity so an
    // enabled recorder costs two clock reads per 256 requests, not per
    // request. All three handles are `None` when the recorder is disabled.
    let recorder = store.recorder();
    let chunk_hist = recorder.histogram(crate::replay::REPLAY_CHUNK_HISTOGRAM);
    let mut chunk_len = 0usize;
    let mut chunk_start_ns = recorder.clock().map(|clock| clock.now_nanos());
    for (seq, req) in requests {
        let outcome = policy.access(&req, seq);
        policy.drain_evictions(&mut evicted);
        store.mirror(&req, outcome, &mut evicted, None, &mut buf)?;
        if req.is_write() {
            written.insert(req.page);
        } else if written.contains(&req.page) && buf != page_payload(req.page, page_size) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "read of {} returned bytes that were never written",
                    req.page
                ),
            ));
        }
        record_outcomes(
            &mut stats,
            &mut per_client,
            std::slice::from_ref(&req),
            &[outcome],
        );
        chunk_len += 1;
        if chunk_len == REPLAY_CHUNK {
            if let (Some(hist), Some(start_ns), Some(clock)) =
                (chunk_hist.as_deref(), chunk_start_ns, recorder.clock())
            {
                let end_ns = clock.now_nanos();
                hist.record(end_ns.saturating_sub(start_ns) / 1_000);
                chunk_start_ns = Some(end_ns);
            }
            chunk_len = 0;
        }
    }
    if chunk_len > 0 {
        if let (Some(hist), Some(start_ns), Some(clock)) =
            (chunk_hist.as_deref(), chunk_start_ns, recorder.clock())
        {
            hist.record(clock.now_nanos().saturating_sub(start_ns) / 1_000);
        }
    }
    Ok((stats, per_client))
}

/// Replays `trace` through `policy`, mirroring its admission/eviction
/// decisions onto `store`:
///
/// * a **read** fetches the page's bytes (buffer frame or disk tier) and, if
///   the policy admitted the miss, installs them as a clean frame;
/// * a **write** stages the page's deterministic [`page_payload`] write-back
///   through the WAL when admitted (or resident), and writes it straight
///   through to disk when the policy bypassed it;
/// * every page the policy **evicts** is evicted from the store first, so a
///   dirty victim is flushed before its frame is reused.
///
/// Reads of previously written pages are verified byte-for-byte against
/// [`page_payload`]; a mismatch is an `InvalidData` error.
///
/// Fails with `Unsupported` if the policy does not implement eviction
/// identity reporting (`CachePolicy::record_evictions`).
pub fn replay_storage(
    policy: &mut dyn CachePolicy,
    store: &PageStore,
    trace: &Trace,
) -> io::Result<StorageReplayReport> {
    if !policy.record_evictions(true) {
        return Err(unsupported_policy(&policy.name()));
    }
    let requests = trace
        .requests
        .iter()
        .enumerate()
        .map(|(seq, req)| (seq as u64, *req));
    let (stats, per_client) = replay_requests(policy, store, requests)?;
    policy.record_evictions(false);
    Ok(StorageReplayReport {
        result: SimulationResult {
            policy: policy.name(),
            capacity: policy.capacity(),
            stats,
            per_client,
        },
        io: store.io_stats(),
        latency: replay_latency_snapshot(store.recorder()),
    })
}

/// Reads the [`REPLAY_CHUNK_HISTOGRAM`] snapshot out of `recorder`, or an
/// empty snapshot when the recorder is disabled.
fn replay_latency_snapshot(recorder: &clic_obs::Recorder) -> HistogramSnapshot {
    recorder
        .histogram(REPLAY_CHUNK_HISTOGRAM)
        .map(|hist| hist.snapshot())
        .unwrap_or_default()
}

/// [`replay_storage`] in the sharded-server shape: the trace is split by
/// page hash into `partitions`, each partition gets its own policy instance
/// (capacity split evenly, remainder to the low partitions) and its own
/// freshly opened [`PageStore`] under `store_config.for_shard(i,
/// partitions)`, and the partitions replay concurrently on `pool`'s
/// workers. Requests keep their global sequence numbers, like shards of a
/// server drawing from one global sequencer.
///
/// Partitions are disjoint by construction and merged in partition order,
/// so the result — policy statistics *and* I/O counters — is
/// **bit-identical** to a serial replay and independent of the pool's job
/// count.
///
/// # Panics
///
/// Panics if `partitions` is zero or exceeds `capacity`.
pub fn replay_storage_partitioned(
    pool: &ThreadPool,
    factory: &(dyn PolicyFactory + Sync),
    trace: &Trace,
    capacity: usize,
    partitions: usize,
    store_config: &StoreConfig,
) -> io::Result<StorageReplayReport> {
    let capacities = cache_sim::partition_capacities(capacity, partitions);
    let split = cache_sim::partition_requests(trace, partitions);
    let partials = pool.par_map(&split, |index, requests| {
        let partition_capacity = capacities[index];
        let mut policy = factory.build(partition_capacity);
        if !policy.record_evictions(true) {
            return Err(unsupported_policy(&policy.name()));
        }
        let mut config = store_config.for_shard(index, partitions);
        config.frames = config.frames.max(partition_capacity).max(1);
        let store = PageStore::open(config)?;
        let (stats, per_client) =
            replay_requests(policy.as_mut(), &store, requests.iter().copied())?;
        Ok(SimulationResult {
            policy: policy.name(),
            capacity: partition_capacity,
            stats,
            per_client,
        })
        .map(|result| (result, store.io_stats()))
    });
    let mut result = SimulationResult {
        policy: format!("Partitioned<{}x{partitions}>", factory.name()),
        capacity,
        ..SimulationResult::default()
    };
    let mut io = IoStats::new();
    for partial in partials {
        let (partial_result, partial_io) = partial?;
        result.merge_from(&partial_result);
        io += partial_io;
    }
    // Every shard store cloned the same recorder handle out of
    // `store_config`, so one snapshot covers all partitions.
    let latency = replay_latency_snapshot(&store_config.recorder);
    Ok(StorageReplayReport {
        result,
        io,
        latency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use cache_sim::policies::Lru;
    use cache_sim::{
        simulate, simulate_partitioned_parallel, AccessKind, BoxedPolicy, TraceBuilder,
    };

    fn mixed_trace(pages: u64, rounds: usize) -> Trace {
        let mut b = TraceBuilder::new().with_name("mixed");
        let c = b.add_client("t", &[("x", 1)]);
        let h = b.intern_hints(c, &[0]);
        for round in 0..rounds {
            for p in 0..pages {
                let kind = if (p + round as u64).is_multiple_of(3) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                b.push(c, p, kind, None, h);
            }
        }
        b.build()
    }

    fn temp_store(tag: &str, frames: usize) -> (std::path::PathBuf, PageStore) {
        let dir =
            std::env::temp_dir().join(format!("clic-replay-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = PageStore::open(StoreConfig::new(&dir, frames).with_page_size(64)).unwrap();
        (dir, store)
    }

    #[test]
    fn replay_matches_pure_simulation_statistics() {
        let trace = mixed_trace(32, 4);
        let (dir, store) = temp_store("match", 8);
        let report = replay_storage(&mut Lru::new(8), &store, &trace).unwrap();
        let pure = simulate(&mut Lru::new(8), &trace);
        assert_eq!(
            report.result.stats, pure.stats,
            "data plane must not change policy behaviour"
        );
        assert_eq!(report.result.per_client, pure.per_client);
        // Every buffer miss on a read went to the disk tier.
        assert_eq!(report.io.disk_reads, report.io.buffer_misses);
        assert!(report.io.bytes_moved() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn buffer_residency_tracks_policy_cache_exactly() {
        let trace = mixed_trace(20, 3);
        let (dir, store) = temp_store("resident", 6);
        let mut lru = Lru::new(6);
        let _ = replay_storage(&mut lru, &store, &trace).unwrap();
        assert_eq!(store.buffered_len(), lru.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn written_bytes_survive_eviction_and_read_back() {
        // Cache of 2 over 10 pages: every written page is evicted (dirty →
        // flushed) and later read back from disk; the payload check inside
        // replay_storage verifies content on every such read.
        let trace = mixed_trace(10, 5);
        let (dir, store) = temp_store("writeback", 2);
        let report = replay_storage(&mut Lru::new(2), &store, &trace).unwrap();
        assert!(report.io.eviction_flushes > 0, "dirty evictions must flush");
        assert!(report.io.wal_records > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_records_chunk_latencies_only_when_recorder_enabled() {
        let trace = mixed_trace(32, 4); // 128 requests: one partial chunk
        let (dir, store) = temp_store("latency-off", 8);
        let report = replay_storage(&mut Lru::new(8), &store, &trace).unwrap();
        assert!(
            report.latency.is_empty(),
            "disabled recorder records nothing"
        );
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);

        let dir = std::env::temp_dir().join(format!(
            "clic-replay-test-{}-latency-on",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let recorder = clic_obs::Recorder::enabled();
        let config = StoreConfig::new(&dir, 8)
            .with_page_size(64)
            .with_recorder(recorder);
        let store = PageStore::open(config).unwrap();
        let report = replay_storage(&mut Lru::new(8), &store, &trace).unwrap();
        assert_eq!(
            report.latency.count(),
            1,
            "128 requests land in one final partial chunk"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn payload_stamp_is_the_page_id() {
        let p = page_payload(PageId(0x0123_4567_89ab_cdef), 64);
        assert_eq!(&p[..8], &0x0123_4567_89ab_cdef_u64.to_le_bytes());
        assert_ne!(page_payload(PageId(1), 64), page_payload(PageId(2), 64));
        assert_eq!(page_payload(PageId(1), 64), page_payload(PageId(1), 64));
    }

    struct LruFactory;

    impl PolicyFactory for LruFactory {
        fn build(&self, capacity: usize) -> BoxedPolicy {
            Box::new(Lru::new(capacity))
        }

        fn name(&self) -> String {
            "LRU".to_string()
        }
    }

    #[test]
    fn partitioned_replay_is_job_count_invariant_and_matches_pure_partitioning() {
        let trace = mixed_trace(48, 4);
        let base = std::env::temp_dir().join(format!("clic-replay-part-{}", std::process::id()));
        let reports: Vec<StorageReplayReport> = [1usize, 4]
            .iter()
            .map(|&jobs| {
                let dir = base.join(format!("jobs-{jobs}"));
                let _ = std::fs::remove_dir_all(&dir);
                let pool = ThreadPool::new(jobs);
                let config = StoreConfig::new(&dir, 4).with_page_size(64);
                let report =
                    replay_storage_partitioned(&pool, &LruFactory, &trace, 12, 3, &config).unwrap();
                let _ = std::fs::remove_dir_all(&dir);
                report
            })
            .collect();
        assert_eq!(
            reports[0].result.stats, reports[1].result.stats,
            "policy statistics must not depend on the job count"
        );
        assert_eq!(reports[0].result.per_client, reports[1].result.per_client);
        assert_eq!(
            reports[0].io, reports[1].io,
            "I/O counters must not depend on the job count"
        );
        let pure = simulate_partitioned_parallel(&ThreadPool::new(1), &LruFactory, &trace, 12, 3);
        assert_eq!(reports[0].result.stats, pure.stats);
        assert_eq!(reports[0].result.per_client, pure.per_client);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn partitioned_replay_uses_per_shard_directories() {
        let trace = mixed_trace(16, 2);
        let dir =
            std::env::temp_dir().join(format!("clic-replay-shard-dirs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pool = ThreadPool::new(2);
        let config = StoreConfig::new(&dir, 4).with_page_size(64);
        replay_storage_partitioned(&pool, &LruFactory, &trace, 8, 2, &config).unwrap();
        assert!(dir.join("shard-0").join("store.pages").exists());
        assert!(dir.join("shard-1").join("store.pages").exists());
        assert!(
            !dir.join("store.pages").exists(),
            "multi-shard replay must not write the base dir"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
