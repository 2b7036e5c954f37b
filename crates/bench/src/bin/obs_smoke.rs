//! Observability smoke gate: proves the recorder-instrumented stack is
//! still deterministic where it must be, and that its outputs parse.
//!
//! This is the `verify.sh --smoke-obs` binary, not a figure experiment —
//! it is intentionally *absent* from `run_all`'s experiment lists. Three
//! checks:
//!
//! 1. **Counters are job-count invariant.** The partitioned storage replay
//!    (CLIC over 2 shard stores, WAL on, enabled recorder) runs once on a
//!    1-worker pool and once on a 2-worker pool; the deterministic counters
//!    — requests, hits, evictions, WAL records, and in fact the whole
//!    [`cache_sim::CacheStats`] / [`cache_sim::IoStats`] pair — must be
//!    bit-identical. Instrumentation must observe, never perturb.
//! 2. **The trace ring drains to valid JSON.** A recorder-enabled server
//!    load (2 clients, 2 shards) must leave `shard_batch` spans in the
//!    ring, the drained dump and the merged metrics snapshot must pass the
//!    strict [`clic_obs::json::validate`] parser, and the client-batch
//!    histogram published by the harness must count every batch submitted.
//! 3. **The event loop is woken, not polling.** The same instrumented
//!    server behind a [`NetServer`] answers sequential round trips; the
//!    `net.*` counters in its `Stats` reply must show the loop ran, was
//!    woken by completions and by sockets, and never ran more often than
//!    it was woken — a loop spinning on a timeout would.
//! 4. **A mock clock makes dumps reproducible.** The same serial replay
//!    against a [`clic_obs::Clock::mock`]-backed recorder twice must render
//!    byte-identical trace JSON — the property the ROADMAP's interleaving
//!    studies will lean on.
//!
//! Latency *values* are wall-clock and never asserted on; only counts,
//! structure, and validity are.

use std::fs;
use std::path::PathBuf;

use cache_sim::{BoxedPolicy, ThreadPool, REPLAY_CHUNK};
use clic_bench::{build_policy, json::JsonValue, window_for_trace, ExperimentContext};
use clic_core::{ClicConfig, TrackingMode};
use clic_obs::{json::validate, Clock, Recorder, SpanKind, TraceDump};
use clic_server::net::{
    COMPLETION_WAKEUPS_COUNTER, LOOP_ITERATIONS_COUNTER, SOCKET_WAKEUPS_COUNTER,
};
use clic_server::{
    run_load, BlockingClient, LoadConfig, NetOptions, NetServer, Server, ServerConfig,
    ServerRequest, CLIENT_BATCH_HISTOGRAM,
};
use clic_store::{
    replay_storage, replay_storage_partitioned, PageStore, StorageReplayReport, StoreConfig,
    REPLAY_CHUNK_HISTOGRAM,
};
use trace_gen::TracePreset;

/// Small pages: this gate moves real bytes but its counters are
/// size-independent, so keep the scratch files tiny.
const PAGE_SIZE: usize = 256;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clic-obs-smoke-{}-{tag}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

/// The partitioned CLIC replay with an enabled recorder, on a `jobs`-worker
/// pool. Returns the report plus the recorder's drained trace and snapshot.
fn instrumented_replay(
    trace: &cache_sim::Trace,
    cache_pages: usize,
    window: u64,
    jobs: usize,
) -> std::io::Result<(StorageReplayReport, TraceDump, clic_obs::MetricsSnapshot)> {
    let recorder = Recorder::enabled();
    let dir = scratch_dir(&format!("replay-j{jobs}"));
    let config = StoreConfig::new(&dir, cache_pages)
        .with_page_size(PAGE_SIZE)
        .with_wal(true)
        .with_flush_threshold((cache_pages / 4).max(1))
        .with_recorder(recorder.clone());
    let factory = (
        "CLIC(k=100)".to_string(),
        |capacity: usize| -> BoxedPolicy { build_policy("CLIC(k=100)", trace, capacity, window) },
    );
    let pool = ThreadPool::new(jobs);
    let report = replay_storage_partitioned(&pool, &factory, trace, cache_pages, 2, &config)?;
    fs::remove_dir_all(&dir).ok();
    Ok((report, recorder.drain_trace(), recorder.snapshot()))
}

fn main() -> std::io::Result<()> {
    let ctx = ExperimentContext::from_args();
    println!("Observability smoke, scale = {}\n", ctx.scale_label());

    let trace = TracePreset::Db2C60.build(ctx.scale);
    println!("workload: {}", trace.summary());
    let cache_pages = TracePreset::Db2C60.reference_cache_size(ctx.scale);
    let window = window_for_trace(&trace);

    // 1. Deterministic counters are identical at --jobs 1 and --jobs 2.
    let (serial, serial_trace, serial_snap) = instrumented_replay(&trace, cache_pages, window, 1)?;
    let (parallel, parallel_trace, _) = instrumented_replay(&trace, cache_pages, window, 2)?;
    assert_eq!(
        serial.result.stats, parallel.result.stats,
        "policy counters (requests/hits/evictions) must not depend on the pool size"
    );
    assert_eq!(
        serial.io, parallel.io,
        "I/O counters (WAL records, disk reads, flushes) must not depend on the pool size"
    );
    println!(
        "replay counters job-count invariant: {} requests, {} read hits, {} evictions, {} wal records",
        serial.result.stats.requests(),
        serial.result.stats.read_hits,
        serial.result.stats.evictions,
        serial.io.wal_records,
    );

    // The recorder actually saw the replay: chunk latencies and trace spans.
    let expected_chunks = (trace.len() as u64).div_ceil(REPLAY_CHUNK as u64);
    assert_eq!(
        serial.latency.count(),
        expected_chunks,
        "one latency sample per {REPLAY_CHUNK}-request chunk"
    );
    assert_eq!(
        serial_snap.histogram(REPLAY_CHUNK_HISTOGRAM).count(),
        expected_chunks,
        "report.latency and the registry histogram are the same data"
    );
    for dump in [&serial_trace, &parallel_trace] {
        assert!(
            dump.events.iter().any(|e| e.kind == SpanKind::WalAppend),
            "a WAL-enabled replay must leave wal_append spans in the ring"
        );
        validate(&dump.to_json()).expect("trace dump must be valid JSON");
    }
    validate(&serial_snap.to_json()).expect("metrics snapshot must be valid JSON");
    println!(
        "trace ring drains cleanly: {} events ({} dropped), JSON valid",
        serial_trace.events.len(),
        serial_trace.dropped
    );

    // 2. Recorder-enabled server load: spans from the shard workers, a
    // batch-latency histogram counting every batch, everything parseable.
    let recorder = Recorder::enabled();
    let presets = [TracePreset::Db2C60, TracePreset::Db2C300];
    let client_traces = clic_server::preset_client_traces(&presets, ctx.scale);
    let load_config = LoadConfig::new(
        ServerConfig::new(cache_pages)
            .with_shards(2)
            .with_clic(
                ClicConfig::default()
                    .with_window(window)
                    .with_tracking(TrackingMode::TopK(100)),
            )
            .with_recorder(recorder.clone()),
    )
    .with_batch(REPLAY_CHUNK);
    let report = run_load(&load_config, &client_traces);
    let total_batches: u64 = report.clients.iter().map(|c| c.batches).sum();
    let batch_hist = recorder
        .histogram(CLIENT_BATCH_HISTOGRAM)
        .expect("enabled recorder hands out histograms");
    assert_eq!(
        batch_hist.count(),
        total_batches,
        "the harness must publish every client batch latency into the recorder"
    );
    let server_trace = recorder.drain_trace();
    assert!(
        server_trace
            .events
            .iter()
            .any(|e| e.kind == SpanKind::ShardBatch),
        "shard workers must leave shard_batch spans"
    );
    validate(&server_trace.to_json()).expect("server trace dump must be valid JSON");
    validate(&recorder.snapshot().to_json()).expect("server metrics snapshot must be valid JSON");
    println!(
        "server load instrumented: {} requests, {} batches in histogram, {} trace events",
        report.requests(),
        total_batches,
        server_trace.events.len()
    );

    // 3. The same instrumented server on the wire: every round trip is one
    // socket wake-up (the request) and one completion wake-up per shard
    // step (the reply), and nothing else runs the loop.
    let net = NetServer::start(
        Server::try_start(load_config.server.clone())?,
        NetOptions::default(),
    )?;
    let mut client = BlockingClient::connect_tcp(net.tcp_addr().expect("tcp enabled"))?;
    let round_trips = 500;
    for request in client_traces[0].requests.iter().take(round_trips) {
        client.call(&ServerRequest::from_request(request))?;
    }
    let net_metrics = client.stats()?.metrics;
    drop(client);
    net.shutdown()?;
    let iterations = net_metrics.counter(LOOP_ITERATIONS_COUNTER);
    let completion_wakeups = net_metrics.counter(COMPLETION_WAKEUPS_COUNTER);
    let socket_wakeups = net_metrics.counter(SOCKET_WAKEUPS_COUNTER);
    assert!(
        completion_wakeups > 0 && socket_wakeups > 0,
        "the loop must be woken by completions ({completion_wakeups}) and sockets ({socket_wakeups})"
    );
    assert!(
        completion_wakeups <= iterations && socket_wakeups <= iterations,
        "wake-ups are counted once per iteration"
    );
    assert!(
        iterations <= completion_wakeups + socket_wakeups,
        "{iterations} iterations for {completion_wakeups} + {socket_wakeups} wake-ups: \
         the loop ran without being woken"
    );
    println!(
        "event loop woken, not polling: {round_trips} round trips, {iterations} iterations, \
         {completion_wakeups} completion + {socket_wakeups} socket wake-ups"
    );

    // 4. Mock clock: the same serial replay twice renders byte-identical
    // trace JSON (single-threaded, so thread ids and event order are fixed).
    let mock_run = |tag: &str| -> std::io::Result<String> {
        let recorder = Recorder::with_clock(Clock::mock());
        let dir = scratch_dir(&format!("mock-{tag}"));
        let config = StoreConfig::new(&dir, cache_pages)
            .with_page_size(PAGE_SIZE)
            .with_wal(true)
            .with_flush_threshold((cache_pages / 4).max(1))
            .with_recorder(recorder.clone());
        let store = PageStore::open(config)?;
        let mut policy = build_policy("CLIC(k=100)", &trace, cache_pages, window);
        replay_storage(policy.as_mut(), &store, &trace)?;
        drop(store);
        fs::remove_dir_all(&dir).ok();
        Ok(recorder.drain_trace().to_json())
    };
    let first = mock_run("a")?;
    let second = mock_run("b")?;
    assert_eq!(
        first, second,
        "mock-clock trace dumps must be byte-identical run to run"
    );
    validate(&first).expect("mock-clock trace dump must be valid JSON");
    println!(
        "mock-clock trace dumps reproducible ({} bytes of JSON)",
        first.len()
    );

    println!("\nobs smoke: all assertions passed");
    ctx.emit_json(
        "obs_smoke",
        JsonValue::object([
            (
                "requests",
                JsonValue::num(serial.result.stats.requests() as f64),
            ),
            (
                "read_hits",
                JsonValue::num(serial.result.stats.read_hits as f64),
            ),
            (
                "evictions",
                JsonValue::num(serial.result.stats.evictions as f64),
            ),
            ("wal_records", JsonValue::num(serial.io.wal_records as f64)),
            (
                "replay_trace_events",
                JsonValue::num(serial_trace.events.len() as f64),
            ),
            (
                "server_trace_events",
                JsonValue::num(server_trace.events.len() as f64),
            ),
            ("server_batches", JsonValue::num(total_batches as f64)),
            ("net_loop_iterations", JsonValue::num(iterations as f64)),
            (
                "net_completion_wakeups",
                JsonValue::num(completion_wakeups as f64),
            ),
            ("net_socket_wakeups", JsonValue::num(socket_wakeups as f64)),
        ]),
    )
}
