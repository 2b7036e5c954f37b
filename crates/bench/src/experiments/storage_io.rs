//! Storage I/O experiment: the data plane behind the Figure 11 workload.
//!
//! The simulation experiments count hits and misses; this one moves real
//! bytes. The three DB2 TPC-C traces of Figure 11 are interleaved into one
//! multi-client trace and replayed through [`clic_store::replay_storage`]
//! against a disk-backed [`clic_store::PageStore`] — once with CLIC
//! (top-k, k = 100) adjudicating admission/eviction of the buffer frames
//! and once with the LRU baseline. Each policy gets a fresh store in a
//! temporary directory with the write-ahead log enabled and a deterministic
//! inline flush threshold (write-back runs on the replaying thread), so
//! every counter in the output is bit-identical at any `--jobs` value. It
//! stays until the benchmark gains a policy-quality workload that owns the
//! CLIC-vs-LRU disk-read comparison (ROADMAP item 1(b)).
//!
//! Two sweeps ride on the headline comparison:
//!
//! * **Durability** — the CLIC replay repeated at each WAL durability
//!   level (`buffered`, `group-commit`, `strict`). Policy statistics are
//!   identical across levels — durability only changes *when* the log is
//!   fsynced — so the interesting columns are `wal_syncs`,
//!   `group_commits`, and the derived `fsyncs` total: group commit
//!   coalesces a batch of acknowledged appends into one sync and must
//!   land well under strict's one-sync-per-append. The group-commit point
//!   uses a batch-only trigger (the time-based `max_wait` clause is set
//!   far beyond the run's length) so its counters are deterministic.
//!   Every store also checkpoints whenever its log holds its budget
//!   ([`clic_store::PageStore::log_budget`] records), which adds
//!   one WAL and one data-file sync per checkpoint to every row: the only
//!   syncs of the buffered rows.
//! * **Shards** — the same CLIC workload split across 2 and 4 per-shard
//!   stores via [`clic_store::replay_storage_partitioned`], the offline
//!   twin of the server's per-shard data plane. Partitions replay
//!   concurrently on the `--jobs` pool and are merged in partition order,
//!   so the summed counters are bit-identical at any job count.
//!
//! Reported per configuration: bytes read/written at the cache interface,
//! buffer hit ratio, disk-tier reads and writes (the paper's cost metric,
//! here measured against a real file), flush, WAL, and fsync overhead. The
//! headline JSON metrics are `clic_vs_lru_disk_reads_saved` (how many disk
//! reads CLIC's hint-informed admission avoids relative to LRU) and
//! `group_commit_vs_strict_fsyncs_saved` (how many fsyncs group commit
//! coalesces away on the same workload).
//!
//! Pages are 256 bytes rather than the store's 4 KiB default so the paper
//! scale stays within a few hundred MB of scratch disk; the headline
//! counters (disk reads, hit ratios, records, syncs) are size-independent
//! and the byte totals scale linearly with the page size.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use cache_sim::{BoxedPolicy, IoStats};
use clic_obs::json::JsonValue;
use clic_store::{
    replay_storage, replay_storage_partitioned, Durability, PageStore, Recorder,
    StorageReplayReport, StoreConfig,
};
use trace_gen::TracePreset;

use crate::{build_policy, window_for_trace, ResultTable, Suite};

/// Small pages keep the scratch files modest at paper scale; see the
/// module docs for why this does not change the headline metrics.
const PAGE_SIZE: usize = 256;

/// The two admission/eviction policies compared over the same store setup.
const POLICIES: [&str; 2] = ["CLIC(k=100)", "LRU"];

/// The shard counts the partitioned sweep replays CLIC across.
const SHARD_COUNTS: [usize; 2] = [2, 4];

/// Group commit with only the batch trigger active: syncing every 8
/// pending appends exactly, never on the wall clock, keeps the sweep's
/// sync counters reproducible run-to-run.
fn deterministic_group_commit() -> Durability {
    Durability::GroupCommit {
        max_batch: 8,
        max_wait: Duration::from_secs(86_400),
    }
}

/// A fresh scratch store config for one replay. A stale directory from a
/// killed run would replay its WAL into this run's counters; start from
/// nothing.
fn scratch_config(label: &str, cache_pages: usize, durability: Durability) -> StoreConfig {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "clic-storage-io-{}-{}",
        std::process::id(),
        label.replace(['(', ')', '=', ',', ' '], "_")
    ));
    fs::remove_dir_all(&dir).ok();
    StoreConfig::new(&dir, cache_pages)
        .with_page_size(PAGE_SIZE)
        .with_durability(durability)
        // Deterministic write-back: flush inline once a quarter of the
        // frames are dirty instead of from a background thread.
        .with_flush_threshold((cache_pages / 4).max(1))
        // A fresh enabled recorder per replay so each report's latency
        // snapshot covers exactly that run. Latency figures are
        // wall-clock and go to stdout and the JSON report only — the
        // CSV stays counter-only so it is byte-identical at any --jobs.
        .with_recorder(Recorder::enabled())
}

fn replay_with_store(
    policy_name: &str,
    trace: &cache_sim::Trace,
    cache_pages: usize,
    window: u64,
    durability: Durability,
) -> std::io::Result<StorageReplayReport> {
    let label = format!("{policy_name}-{}", durability.label());
    let config = scratch_config(&label, cache_pages, durability);
    let dir = config.dir.clone();
    let store = PageStore::open(config)?;
    let mut policy = build_policy(policy_name, trace, cache_pages, window);
    let report = replay_storage(policy.as_mut(), &store, trace);
    drop(store);
    fs::remove_dir_all(&dir).ok();
    report
}

fn io_metrics(io: &IoStats, report: &StorageReplayReport) -> JsonValue {
    JsonValue::object([
        (
            "read_hit_ratio",
            JsonValue::num(report.result.read_hit_ratio()),
        ),
        ("buffer_hit_ratio", JsonValue::num(io.buffer_hit_ratio())),
        ("bytes_read", JsonValue::int(io.bytes_read)),
        ("bytes_written", JsonValue::int(io.bytes_written)),
        ("disk_reads", JsonValue::int(io.disk_reads)),
        ("disk_writes", JsonValue::int(io.disk_writes)),
        ("disk_bytes_read", JsonValue::int(io.disk_bytes_read)),
        ("disk_bytes_written", JsonValue::int(io.disk_bytes_written)),
        (
            "disk_reads_per_request",
            JsonValue::num(report.disk_reads_per_request()),
        ),
        ("pages_flushed", JsonValue::int(io.pages_flushed)),
        ("eviction_flushes", JsonValue::int(io.eviction_flushes)),
        ("wal_records", JsonValue::int(io.wal_records)),
        ("wal_bytes", JsonValue::int(io.wal_bytes)),
        ("data_syncs", JsonValue::int(io.data_syncs)),
        ("wal_syncs", JsonValue::int(io.wal_syncs)),
        ("group_commits", JsonValue::int(io.group_commits)),
        ("fsyncs", JsonValue::int(io.fsyncs())),
        // Per-chunk replay latency (one sample per REPLAY_CHUNK requests),
        // from the store's `store.replay_chunk_us` histogram. Wall-clock, so
        // JSON-only: the CSV table is byte-diffed across --jobs values.
        ("latency_us", latency_metrics(report)),
    ])
}

fn latency_metrics(report: &StorageReplayReport) -> JsonValue {
    JsonValue::object([
        ("p50", JsonValue::int(report.latency.p50())),
        ("p95", JsonValue::int(report.latency.p95())),
        ("p99", JsonValue::int(report.latency.p99())),
        ("p999", JsonValue::int(report.latency.p999())),
        ("max", JsonValue::int(report.latency.max())),
        ("chunks", JsonValue::int(report.latency.count())),
    ])
}

fn push_io_row(table: &mut ResultTable, setup: &str, report: &StorageReplayReport) {
    let io = report.io;
    table.push_row(vec![
        setup.to_string(),
        format!("{:.1}%", report.result.read_hit_ratio() * 100.0),
        format!("{:.1}%", io.buffer_hit_ratio() * 100.0),
        io.disk_reads.to_string(),
        io.disk_writes.to_string(),
        io.pages_flushed.to_string(),
        io.wal_records.to_string(),
        io.wal_syncs.to_string(),
        io.group_commits.to_string(),
        io.fsyncs().to_string(),
    ]);
}

pub(super) fn run(suite: &Suite) -> std::io::Result<JsonValue> {
    let (combined, _clients) = suite.tpcc_mix();
    let cache_pages = TracePreset::TPCC[0].reference_cache_size(suite.ctx.scale);
    let window = window_for_trace(&combined);
    println!(
        "replaying {} requests against a {cache_pages}-frame store ({PAGE_SIZE}-byte pages)\n",
        combined.len()
    );

    let mut table = ResultTable::new(
        format!(
            "Storage I/O: {cache_pages}-frame disk-backed store, {}-byte pages, WAL on",
            PAGE_SIZE
        ),
        &[
            "setup",
            "read hits",
            "buffer hits",
            "disk reads",
            "disk writes",
            "pages flushed",
            "wal records",
            "wal syncs",
            "group commits",
            "fsyncs",
        ],
    );

    // Headline: CLIC vs LRU over the same buffered-durability store.
    let mut reports = Vec::new();
    for name in POLICIES {
        let report = replay_with_store(name, &combined, cache_pages, window, Durability::Buffered)?;
        push_io_row(&mut table, name, &report);
        reports.push((name, report));
    }

    // Durability sweep: the same CLIC replay at each WAL durability level.
    // The buffered point is the headline CLIC run; only the sync columns
    // change between levels, the policy statistics are identical.
    let clic = POLICIES[0];
    let mut durability_points: Vec<(Durability, StorageReplayReport)> = Vec::new();
    for durability in [deterministic_group_commit(), Durability::Strict] {
        let report = replay_with_store(clic, &combined, cache_pages, window, durability)?;
        assert_eq!(
            report.result.stats, reports[0].1.result.stats,
            "durability must not change policy decisions"
        );
        push_io_row(
            &mut table,
            &format!("{clic} {}", durability.label()),
            &report,
        );
        durability_points.push((durability, report));
    }

    // Shard sweep: CLIC split across per-shard stores, partitions replayed
    // concurrently on the harness's pool and merged in partition order.
    let pool = suite.ctx.pool();
    let mut shard_points: Vec<(usize, StorageReplayReport)> = Vec::new();
    for shards in SHARD_COUNTS {
        let factory = (clic.to_string(), |capacity: usize| -> BoxedPolicy {
            build_policy(clic, &combined, capacity, window)
        });
        let config = scratch_config(
            &format!("{clic}-x{shards}"),
            cache_pages,
            Durability::Buffered,
        );
        let dir = config.dir.clone();
        let report =
            replay_storage_partitioned(&pool, &factory, &combined, cache_pages, shards, &config)?;
        fs::remove_dir_all(&dir).ok();
        push_io_row(&mut table, &format!("{clic} x{shards} shards"), &report);
        shard_points.push((shards, report));
    }

    table.emit(&suite.ctx.out_dir, "storage_io")?;

    let clic_reads = reports[0].1.io.disk_reads;
    let lru_reads = reports[1].1.io.disk_reads;
    let clic_latency = &reports[0].1.latency;
    println!(
        "CLIC replay chunk latency p50/p95/p99/p999/max: {}/{}/{}/{}/{} us over {} chunks",
        clic_latency.p50(),
        clic_latency.p95(),
        clic_latency.p99(),
        clic_latency.p999(),
        clic_latency.max(),
        clic_latency.count(),
    );
    println!(
        "CLIC avoided {} disk reads vs LRU ({} vs {})",
        lru_reads as i64 - clic_reads as i64,
        clic_reads,
        lru_reads
    );

    let group_commit_fsyncs = durability_points[0].1.io.fsyncs();
    let strict_fsyncs = durability_points[1].1.io.fsyncs();
    assert!(
        group_commit_fsyncs < strict_fsyncs,
        "group commit must coalesce fsyncs below strict: {group_commit_fsyncs} vs {strict_fsyncs}"
    );
    println!(
        "group commit coalesced {} fsyncs away vs strict ({} vs {}, {} group commits)",
        strict_fsyncs - group_commit_fsyncs,
        group_commit_fsyncs,
        strict_fsyncs,
        durability_points[0].1.io.group_commits,
    );

    let mut metrics = vec![
        ("page_size", JsonValue::int(PAGE_SIZE as u64)),
        ("cache_pages", JsonValue::int(cache_pages as u64)),
        ("requests", JsonValue::int(combined.len() as u64)),
    ];
    for (name, report) in &reports {
        metrics.push((*name, io_metrics(&report.io, report)));
    }
    let durability_obj: Vec<(&str, JsonValue)> =
        std::iter::once(("buffered", io_metrics(&reports[0].1.io, &reports[0].1)))
            .chain(
                durability_points
                    .iter()
                    .map(|(d, report)| (d.label(), io_metrics(&report.io, report))),
            )
            .collect();
    metrics.push(("durability", JsonValue::object(durability_obj)));
    let shard_labels: Vec<String> = shard_points.iter().map(|(s, _)| s.to_string()).collect();
    let shard_obj: Vec<(&str, JsonValue)> = shard_points
        .iter()
        .zip(&shard_labels)
        .map(|((_, report), label)| (label.as_str(), io_metrics(&report.io, report)))
        .collect();
    metrics.push(("shards", JsonValue::object(shard_obj)));
    metrics.push((
        "clic_vs_lru_disk_reads_saved",
        JsonValue::int(i128::from(lru_reads) - i128::from(clic_reads)),
    ));
    metrics.push((
        "group_commit_vs_strict_fsyncs_saved",
        JsonValue::int(strict_fsyncs - group_commit_fsyncs),
    ));
    Ok(JsonValue::object(metrics))
}
