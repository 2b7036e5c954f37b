//! The `Stats` protocol round trip: a client asking a live, store-backed
//! server for statistics gets a [`clic::server::StatsSnapshot`] whose
//! deterministic counters — requests, hits, evictions, WAL appends — are
//! exact, both mid-load and against the final shutdown report.

use std::fs;
use std::path::PathBuf;

use clic::prelude::*;
use clic::server::{StatsSnapshot, BATCH_SERVICE_HISTOGRAM, QUEUE_DEPTH_GAUGE};

const BATCH: usize = 256;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("clic-stats-snapshot-{}-{tag}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

/// Asks the server for stats through the protocol (a one-request batch) and
/// unwraps the snapshot.
fn request_stats(server: &Server) -> StatsSnapshot {
    let responses = server.submit(&[ServerRequest::Stats]);
    assert_eq!(responses.len(), 1);
    match responses.into_iter().next().unwrap() {
        ServerResponse::Stats(snapshot) => *snapshot,
        other => panic!("expected a stats response, got {other:?}"),
    }
}

#[test]
fn stats_round_trip_is_exact_mid_load_and_at_the_end() {
    // A deterministic workload with real evictions and WAL traffic: the
    // DB2 TPC-C smoke preset truncated to 48 batches, over a cache far
    // smaller than its page footprint, on a WAL-enabled store.
    let mut trace = TracePreset::Db2C60.build(PresetScale::Smoke);
    trace.requests.truncate(48 * BATCH);
    let cache_pages = 512;
    let dir = scratch_dir("roundtrip");
    let server = Server::start(
        ServerConfig::new(cache_pages)
            .with_shards(2)
            .with_clic(
                ClicConfig::default()
                    .with_window(suggested_window(trace.len() as u64))
                    .with_tracking(TrackingMode::TopK(100)),
            )
            .with_store(
                StoreConfig::new(&dir, cache_pages)
                    .with_page_size(128)
                    .with_flush_threshold(64),
            )
            .with_recorder(Recorder::enabled()),
    );

    // Drive the load serially, keeping a client-side tally from the
    // responses; the server's snapshots must agree with it exactly.
    let mut tally = CacheStats::new();
    let mut submitted = 0u64;
    let batches: Vec<&[cache_sim::Request]> = trace.requests.chunks(BATCH).collect();
    let midpoint = batches.len() / 2;
    let mut mid_snapshot: Option<StatsSnapshot> = None;
    for (i, chunk) in batches.iter().enumerate() {
        let batch: Vec<ServerRequest> = chunk.iter().map(ServerRequest::from_request).collect();
        let responses = server.submit(&batch);
        assert_eq!(responses.len(), batch.len());
        for (req, response) in chunk.iter().zip(&responses) {
            let hit = response.hit().expect("data responses carry a hit flag");
            if req.is_read() {
                tally.record_read(hit);
            } else {
                tally.record_write(hit);
            }
        }
        submitted += chunk.len() as u64;
        if i + 1 == midpoint {
            mid_snapshot = Some(request_stats(&server));
        }
    }

    // Mid-load: the snapshot covers exactly the responses delivered before
    // the Stats request was submitted (the load is serial, so that is the
    // first `midpoint` batches), and the Stats request itself counts as no
    // request at all.
    let mid = mid_snapshot.expect("midpoint snapshot taken");
    assert_eq!(mid.result.stats.requests(), (midpoint * BATCH) as u64);
    let mid_wal = mid.metrics.counter("store.wal_records");
    assert!(mid_wal > 0, "a WAL-enabled write workload appends records");

    // End of load, before shutdown: the protocol snapshot and the final
    // report are the same counters.
    let final_snapshot = request_stats(&server);
    assert_eq!(final_snapshot.result.stats.requests(), submitted);
    assert_eq!(
        final_snapshot.result.stats.read_hits, tally.read_hits,
        "server-side read hits must match the hits the client observed"
    );
    assert_eq!(final_snapshot.result.stats.write_hits, tally.write_hits);
    assert!(final_snapshot.result.stats.evictions > 0);
    assert!(final_snapshot.result.stats.evictions >= mid.result.stats.evictions);

    // The metrics half of the snapshot: always-on store counters agree with
    // the data plane's own report, and the recorder's server-side
    // instruments are present.
    let io = server.io_stats().expect("store-backed server reports I/O");
    assert_eq!(
        final_snapshot.metrics.counter("store.wal_records"),
        io.wal_records
    );
    assert!(io.wal_records >= mid_wal, "WAL appends only grow");
    assert_eq!(
        final_snapshot.metrics.counter("store.buffer_hits"),
        io.buffer_hits
    );
    assert!(
        final_snapshot
            .metrics
            .histograms
            .contains_key(BATCH_SERVICE_HISTOGRAM),
        "an enabled recorder publishes per-sub-batch service times"
    );
    assert!(final_snapshot.metrics.gauge(QUEUE_DEPTH_GAUGE).peak >= 1);

    let result = server.shutdown();
    assert_eq!(
        result.stats, final_snapshot.result.stats,
        "the shutdown report and the last protocol snapshot are the same counters"
    );
    assert_eq!(result.per_client, final_snapshot.result.per_client);
    fs::remove_dir_all(&dir).ok();
}

/// Two identical serial runs produce identical mid-load snapshots: the
/// protocol's deterministic counters really are deterministic.
#[test]
fn mid_load_snapshots_are_reproducible() {
    let run = |tag: &str| -> (CacheStats, u64) {
        let mut trace = TracePreset::Db2C300.build(PresetScale::Smoke);
        trace.requests.truncate(16 * BATCH);
        let dir = scratch_dir(tag);
        let server = Server::start(
            ServerConfig::new(256)
                .with_shards(2)
                .with_clic(ClicConfig::default().with_window(2_048))
                .with_store(
                    StoreConfig::new(&dir, 256)
                        .with_page_size(128)
                        .with_flush_threshold(32),
                ),
        );
        for chunk in trace.requests.chunks(BATCH).take(8) {
            let batch: Vec<ServerRequest> = chunk.iter().map(ServerRequest::from_request).collect();
            server.submit(&batch);
        }
        let snapshot = request_stats(&server);
        server.shutdown();
        fs::remove_dir_all(&dir).ok();
        (
            snapshot.result.stats,
            snapshot.metrics.counter("store.wal_records"),
        )
    };
    assert_eq!(run("repro-a"), run("repro-b"));
}
