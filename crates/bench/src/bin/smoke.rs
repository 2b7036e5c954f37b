//! The smoke gate of `scripts/verify.sh --smoke`: `smoke [obs|chaos]` runs
//! the named phases (none = both). Failures panic, so a nonzero exit is the
//! gate tripping. Latency *values* are wall-clock and never asserted on;
//! only counts, structure, and validity are.
//!
//! # `obs` — the instrumented stack observes, never perturbs
//!
//! 1. **Counters are job-count invariant.** The partitioned storage replay
//!    (CLIC over 2 shard stores, WAL on, enabled recorder) runs once on a
//!    1-worker pool and once on a 2-worker pool; the deterministic counters
//!    — requests, hits, evictions, WAL records, and in fact the whole
//!    [`cache_sim::CacheStats`] / [`cache_sim::IoStats`] pair — must be
//!    bit-identical.
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
//! # `chaos` — the stack degrades when the world does not cooperate
//!
//! A seeded [`FaultInjector`] tears WAL appends, fails fsyncs, drops
//! accepted connections, resets readable ones, and cuts socket writes short
//! — and the gate asserts the contract that survives:
//!
//! * **Phase A (durability under fire, run twice):** a chain of `Strict`
//!   store lifetimes over one directory absorbs a write storm while the
//!   injector fails or tears ~10% of WAL appends and fails the log sync at
//!   two scheduled points, more than two log budgets apart, so the logs
//!   cross budget checkpoints. A failed sync fails the store closed: the
//!   next write must be refused without appending anything, and the
//!   lifetime ends in a simulated kernel crash (the WAL truncated to its
//!   synced prefix), after which a fault-free reopen must replay exactly
//!   that prefix and read back *bit-identical* every acknowledged write.
//!   The next lifetime reopens the same files; the last ends in a crash
//!   too. The phase runs twice with the same seed and must produce
//!   identical acknowledgement sequences, injector counts, synced
//!   prefixes, and recovered bytes: a chaos failure is replayable from its
//!   seed alone. A pure replay of the decision stream reconciles the
//!   injector's own counts and proves the schedule contained at least one
//!   torn write and that each scheduled fsync failure closed a store.
//! * **Phase B (degradation under store faults):** the TCP front-end runs
//!   over a store whose WAL appends occasionally fail — the network itself
//!   is clean, so *every* scheduled request must be answered: mostly
//!   successes, at least one typed `Io` error (the store fault surfacing
//!   end-to-end as an `OP_ERR` frame), and a bounded error fraction. A
//!   256-op burst, four times the 64-slot window, must be answered in full
//!   with a `Put` reply or an `Io` error each: the window blocks, it never
//!   sheds. Shutdown stays clean.
//! * **Phase C (a hostile network):** a second front-end runs with
//!   network faults armed — accepts dropped, readable connections reset,
//!   socket writes torn or failed. A retrying client ([`RetryPolicy`])
//!   must ride out every injected failure, and the gate requires at
//!   least one accept drop, one connection reset, and one send fault
//!   demonstrably fired before shutdown, which again stays clean.
//! * **Phase D (acknowledged means synced, run twice):** a 2-shard
//!   `GroupCommit` server behind the TCP front-end takes 256 writes, one
//!   at a time, while ~10% of its log writers' fsyncs fail. Every write
//!   must be applied or fail with `Io`, and a shard whose sync failed must
//!   fail every later write (it fails closed). After a kernel crash (each
//!   WAL cut to its synced prefix) a fault-free reopen must read back
//!   every applied write, and the second run must repeat the first's
//!   outcomes, synced prefixes and injector counts exactly.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Duration;

use cache_sim::{BoxedPolicy, PageId, ThreadPool, REPLAY_CHUNK};
use clic_bench::json::JsonValue;
use clic_bench::{build_policy, window_for_trace, ExperimentContext};
use clic_core::{ClicConfig, TrackingMode};
use clic_obs::{json::validate, Clock, Recorder, SpanKind, TraceDump};
use clic_server::net::{
    COMPLETION_WAKEUPS_COUNTER, LOOP_ITERATIONS_COUNTER, SOCKET_WAKEUPS_COUNTER,
};
use clic_server::{
    run_load, run_open_loop, BlockingClient, Durability, ErrorCode, FaultInjector, FaultPoint,
    LoadConfig, NetOptions, NetServer, OpenLoopConfig, RetryPolicy, Server, ServerConfig,
    ServerRequest, CLIENT_BATCH_HISTOGRAM,
};
use clic_store::{
    page_payload, replay_storage, replay_storage_partitioned, InjectedFault, PageStore, ReadSource,
    StorageReplayReport, StoreConfig, REPLAY_CHUNK_HISTOGRAM,
};
use trace_gen::{PresetScale, TracePreset};

/// A phase asserts its gate and returns the counts it observed.
type Phase = fn(&ExperimentContext) -> io::Result<JsonValue>;

/// The phases by name, in the order they run.
const PHASES: [(&str, Phase); 2] = [("obs", obs), ("chaos", chaos)];

/// Small pages: the `obs` phase moves real bytes but its counters are
/// size-independent, so keep the scratch files tiny.
const OBS_PAGE_SIZE: usize = 256;
const CHAOS_PAGE_SIZE: usize = 64;
const CHAOS_SEED: u64 = 0xC0FFEE;

/// Counts in this gate fit `f64` exactly; the JSON writer wants one.
fn num(value: u64) -> JsonValue {
    JsonValue::num(value as f64)
}

/// A scratch directory for one store. Anything a killed run left there
/// would be recovered into this run's counters; start from nothing.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clic-smoke-{}-{tag}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

/// Dials a front-end, tolerating injected accept drops (the TCP connect
/// itself succeeds even when the server drops the accepted stream — the
/// drop surfaces on first use, which the callers handle). Calls on the
/// returned client time out after ten seconds instead of hanging the gate.
fn connect(addr: SocketAddr) -> io::Result<BlockingClient> {
    for _ in 0..1_000 {
        if let Ok(mut client) = BlockingClient::connect_tcp(addr) {
            client.set_timeouts(Some(Duration::from_secs(10)))?;
            return Ok(client);
        }
    }
    panic!("could not connect to {addr} after 1000 attempts");
}

fn main() -> io::Result<()> {
    let (ctx, selected) = ExperimentContext::from_args("smoke", &PHASES.map(|(name, _)| name));
    println!("smoke gate, scale = {}", ctx.scale_label());
    let mut metrics = Vec::new();
    for (name, phase) in PHASES {
        if selected.contains(&name) {
            println!("\n===== {name} =====");
            metrics.push((name, phase(&ctx)?));
            println!("\n{name} smoke: all assertions passed");
        }
    }
    ctx.emit_json("smoke", JsonValue::object(metrics))
}

// ---- obs ------------------------------------------------------------

/// The partitioned CLIC replay with an enabled recorder, on a `jobs`-worker
/// pool. Returns the report plus the recorder's drained trace and snapshot.
fn instrumented_replay(
    trace: &cache_sim::Trace,
    cache_pages: usize,
    window: u64,
    jobs: usize,
) -> io::Result<(StorageReplayReport, TraceDump, clic_obs::MetricsSnapshot)> {
    let recorder = Recorder::enabled();
    let dir = scratch_dir(&format!("replay-j{jobs}"));
    let config = StoreConfig::new(&dir, cache_pages)
        .with_page_size(OBS_PAGE_SIZE)
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

fn obs(ctx: &ExperimentContext) -> io::Result<JsonValue> {
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
    let mut client = connect(net.tcp_addr().expect("tcp enabled"))?;
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
    let mock_run = |tag: &str| -> io::Result<String> {
        let recorder = Recorder::with_clock(Clock::mock());
        let dir = scratch_dir(&format!("mock-{tag}"));
        let config = StoreConfig::new(&dir, cache_pages)
            .with_page_size(OBS_PAGE_SIZE)
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

    Ok(JsonValue::object([
        ("requests", num(serial.result.stats.requests())),
        ("read_hits", num(serial.result.stats.read_hits)),
        ("evictions", num(serial.result.stats.evictions)),
        ("wal_records", num(serial.io.wal_records)),
        ("replay_trace_events", num(serial_trace.events.len() as u64)),
        ("server_trace_events", num(server_trace.events.len() as u64)),
        ("server_batches", num(total_batches)),
        ("net_loop_iterations", num(iterations)),
        ("net_completion_wakeups", num(completion_wakeups)),
        ("net_socket_wakeups", num(socket_wakeups)),
    ]))
}

// ---- chaos ----------------------------------------------------------

/// Phase A's scheduled `fsync` failures, as indices into the log-sync
/// decisions: more than two log budgets (2 × 128 records) apart, so every
/// store lifetime crosses two budget checkpoints before its log fails.
const STORM_SYNC_FAULTS: [u64; 2] = [300, 600];

/// Phase A's schedule: ~10% of WAL appends fail or tear, and the log sync
/// fails at [`STORM_SYNC_FAULTS`].
fn storm_fault() -> FaultInjector {
    STORM_SYNC_FAULTS.iter().fold(
        FaultInjector::seeded(CHAOS_SEED).with_rate(FaultPoint::WalAppend, 0.10),
        |fault, &index| fault.fault_at(FaultPoint::WalSync, index),
    )
}

/// One Phase A run: what the driver observed and what recovery produced.
#[derive(Debug, PartialEq, Eq)]
struct StormOutcome {
    /// Per-write acknowledgement (`stage` returned `Ok`).
    acked: Vec<bool>,
    /// The injector's (point, ops, injected) triples.
    counts: Vec<(FaultPoint, u64, u64)>,
    /// Per store lifetime, the WAL bytes known durable when it crashed.
    synced_lens: Vec<u64>,
    /// Budget checkpoints that reached the data file.
    checkpoints: u64,
    /// Bytes read back per page after the last crash, fault-free.
    recovered: BTreeMap<u64, Vec<u8>>,
}

/// What a store lifetime left behind at its kernel crash.
struct Crash {
    /// WAL bytes known durable: where the log was cut.
    synced_len: u64,
    /// Records the store appended since open, even those whose sync failed.
    records: u64,
    /// Bytes read back per page after the fault-free reopen.
    recovered: BTreeMap<u64, Vec<u8>>,
}

/// Ends a store lifetime with a kernel crash: the process dies and the WAL
/// loses everything past its synced prefix. The `logged` records the
/// storm saw appended since the last checkpoint must explain the log's
/// length exactly. A fault-free reopen (a fresh boot) must replay exactly
/// the synced prefix, and every acknowledged write — the last per page in
/// `acked` — must read back bit-identical.
fn kernel_crash(
    dir: &Path,
    store: PageStore,
    logged: u64,
    acked: &BTreeMap<u64, u8>,
) -> io::Result<Crash> {
    let (synced_len, wal_len, io) = (store.wal_synced_len(), store.wal_len(), store.io_stats());
    drop(store);
    // Records are uniform (fixed page size), so byte lengths reconcile the
    // storm's view with the store's own accounting.
    let record_len = io.wal_bytes / io.wal_records.max(1);
    assert_eq!(io.wal_bytes, record_len * io.wal_records);
    assert_eq!(
        wal_len,
        logged * record_len,
        "records appended since the last checkpoint must explain the WAL length exactly"
    );
    fs::OpenOptions::new()
        .write(true)
        .open(dir.join("store.wal"))?
        .set_len(synced_len)?;
    let store = PageStore::open(
        StoreConfig::new(dir, 32)
            .with_page_size(CHAOS_PAGE_SIZE)
            .with_durability(Durability::Strict),
    )?;
    assert_eq!(
        store.recovered_writes() * record_len,
        synced_len,
        "recovery must replay exactly the synced prefix"
    );
    let mut recovered = BTreeMap::new();
    let mut buf = Vec::new();
    for page in 0u64..32 {
        let source = store.read(PageId(page), &mut buf)?;
        match acked.get(&page) {
            Some(&tag) => {
                assert_eq!(
                    buf,
                    vec![tag; CHAOS_PAGE_SIZE],
                    "page {page}: an acknowledged write was lost"
                );
                recovered.insert(page, buf.clone());
            }
            None => assert_eq!(source, ReadSource::Zero, "page {page} was never acked"),
        }
    }
    Ok(Crash {
        synced_len,
        records: io.wal_records,
        recovered,
    })
}

/// Deterministic write storm against a chain of `Strict` store lifetimes:
/// WAL appends fail or tear at ~10% and the log sync fails at
/// [`STORM_SYNC_FAULTS`], while the log crosses budget checkpoints. A
/// failed sync fails the store closed: the next write must be refused
/// without appending, and a kernel crash ([`kernel_crash`]) ends the
/// lifetime; the next one reopens the same files. The last lifetime ends
/// with a kernel crash too.
fn durability_storm(dir: &Path, ops: &[(u64, u8)]) -> io::Result<StormOutcome> {
    fs::remove_dir_all(dir).ok();
    let fault = storm_fault();
    // Frames cover the page universe: no evictions, so the data file
    // changes only at checkpoints and recoveries. The log budget is
    // 4 × 32 = 128 records.
    let config = StoreConfig::new(dir, 32)
        .with_page_size(CHAOS_PAGE_SIZE)
        .with_durability(Durability::Strict)
        .with_fault_injector(fault.clone());
    let mut acked = Vec::with_capacity(ops.len());
    // The last acknowledged write per page: what every crash must keep.
    let mut durable: BTreeMap<u64, u8> = BTreeMap::new();
    let mut synced_lens = Vec::new();
    let (mut checkpoints, mut closes) = (0u64, 0u64);
    // Decisions made: one per append attempt at the append point, and one
    // per record the stores appended and per checkpoint at the sync point.
    let (mut append_attempts, mut appended) = (0u64, 0u64);
    // Records in the current log since its last checkpoint.
    let mut logged = 0u64;
    let mut closed = false;
    let mut store = PageStore::open(config.clone())?;
    for &(page, tag) in ops {
        if closed {
            let wal_len = store.wal_len();
            let err = store
                .stage(PageId(page), &[tag; CHAOS_PAGE_SIZE])
                .expect_err("a write applied after the store failed closed");
            // Refused before the append: no fault decision either.
            assert!(!err.to_string().contains(clic_store::INJECTED_FAULT));
            assert_eq!(store.wal_len(), wal_len, "a refused write appended");
            acked.push(false);
            let crash = kernel_crash(dir, store, logged, &durable)?;
            synced_lens.push(crash.synced_len);
            appended += crash.records;
            store = PageStore::open(config.clone())?;
            (logged, closed) = (0, false);
            continue;
        }
        let syncs_before = fault.ops_at(FaultPoint::WalSync);
        let checkpoints_before = store.io_stats().data_syncs;
        let result = store.stage(PageId(page), &[tag; CHAOS_PAGE_SIZE]);
        // A budget checkpoint ran before the append.
        let checkpointed = store.io_stats().data_syncs > checkpoints_before;
        if checkpointed {
            checkpoints += 1;
            logged = 0;
        }
        acked.push(result.is_ok());
        let err = match result {
            Ok(()) => {
                append_attempts += 1;
                logged += 1;
                durable.insert(page, tag);
                continue;
            }
            Err(err) => err.to_string(),
        };
        assert!(
            err.contains(clic_store::INJECTED_FAULT),
            "only injected faults may fail the storm: {err}"
        );
        if !err.contains(FaultPoint::WalSync.label()) {
            append_attempts += 1; // a torn or failed append
            continue;
        }
        // A failed fsync closes the store. It was either the append's own,
        // which kept its record, or the checkpoint's log sync — the one
        // sync decision this write made — which refused the write before
        // its append.
        closed = true;
        closes += 1;
        if !(checkpointed && fault.ops_at(FaultPoint::WalSync) == syncs_before + 1) {
            append_attempts += 1;
            logged += 1;
        }
    }
    let crash = kernel_crash(dir, store, logged, &durable)?;
    synced_lens.push(crash.synced_len);
    appended += crash.records;
    assert!(
        checkpoints >= 2,
        "the storm must cross two checkpoints, crossed {checkpoints}"
    );
    assert_eq!(
        closes,
        STORM_SYNC_FAULTS.len() as u64,
        "every scheduled fsync failure must close a store"
    );

    // Replay the decision stream on a fresh injector: decisions depend
    // only on (seed, point, index), so the replayed counts must reconcile
    // with the live run's — and the replay exposes the fault *flavors*,
    // which the gate requires to include real torn writes and fsync
    // failures (otherwise the schedule tested nothing).
    let replay = storm_fault();
    let (mut torn, mut append_failed, mut sync_failed) = (0u64, 0u64, 0u64);
    for _ in 0..append_attempts {
        match replay.decide(FaultPoint::WalAppend, CHAOS_PAGE_SIZE) {
            InjectedFault::None => {}
            InjectedFault::Torn(_) => torn += 1,
            _ => append_failed += 1,
        }
    }
    for _ in 0..appended + checkpoints {
        if replay.decide(FaultPoint::WalSync, 0) != InjectedFault::None {
            sync_failed += 1;
        }
    }
    for point in [FaultPoint::WalAppend, FaultPoint::WalSync] {
        assert_eq!(
            (replay.ops_at(point), replay.injected_at(point)),
            (fault.ops_at(point), fault.injected_at(point)),
            "replayed {} schedule diverged from the live run",
            point.label()
        );
    }
    assert_eq!(fault.ops_at(FaultPoint::DataSync), checkpoints);
    assert!(torn >= 1, "the schedule must tear at least one WAL append");
    assert_eq!(sync_failed, closes, "each failed fsync closed one store");
    println!(
        "  storm: {} writes, {} acked, {} torn appends, {} failed appends, {} failed fsyncs, \
         {} checkpoints, {} store lifetimes",
        ops.len(),
        acked.iter().filter(|&&a| a).count(),
        torn,
        append_failed,
        sync_failed,
        checkpoints,
        synced_lens.len()
    );
    Ok(StormOutcome {
        acked,
        counts: fault.counts(),
        synced_lens,
        checkpoints,
        recovered: crash.recovered,
    })
}

/// One Phase D run: what each write got, and where each WAL was cut.
#[derive(Debug, PartialEq, Eq)]
struct ServerStormOutcome {
    /// Per write (page `i` for write `i`): applied, or failed with `Io`.
    applied: Vec<bool>,
    /// Each shard's `wal_synced_len` at crash time.
    synced_lens: Vec<u64>,
    /// The injector's (point, ops, injected) triples.
    counts: Vec<(FaultPoint, u64, u64)>,
}

/// Phase D: 256 writes to distinct pages, one in flight at a time, so each
/// log-writer sync covers one write and the k-th sync decision falls on the
/// same write on every run.
fn server_storm(dir: &Path) -> io::Result<ServerStormOutcome> {
    const WRITES: u64 = 256;
    const SHARDS: usize = 2;
    fs::remove_dir_all(dir).ok();
    let fault = FaultInjector::seeded(CHAOS_SEED).with_rate(FaultPoint::WalSync, 0.10);
    let store = StoreConfig::new(dir, 512)
        .with_page_size(CHAOS_PAGE_SIZE)
        .with_durability(Durability::group_commit());
    let server = Server::try_start(
        ServerConfig::new(512)
            .with_shards(SHARDS)
            .with_store(store.clone().with_fault_injector(fault.clone())),
    )?;
    let stores = server.cache().stores().to_vec();
    let net = NetServer::start(server, NetOptions::default())?;
    let mut client = connect(net.tcp_addr().expect("tcp front-end enabled"))?;
    let mut applied = Vec::new();
    let mut failed_shards = [false; SHARDS];
    for page in 0..WRITES {
        let response = client.call(&ServerRequest::Put {
            client: cache_sim::ClientId(0),
            page: PageId(page),
            hint: cache_sim::HintSetId(0),
            write_hint: None,
            data: Some(page_payload(PageId(page), CHAOS_PAGE_SIZE)),
        })?;
        let ok = response.hit().is_some();
        assert!(
            ok || response.error_code() == Some(ErrorCode::Io),
            "write {page} must be applied or fail with Io: {response:?}"
        );
        let shard = cache_sim::hash::page_partition(PageId(page), SHARDS);
        assert!(
            !(ok && failed_shards[shard]),
            "shard {shard} applied write {page} after a failed sync"
        );
        failed_shards[shard] |= !ok;
        applied.push(ok);
    }
    let synced_lens: Vec<u64> = stores.iter().map(|s| s.wal_synced_len()).collect();
    // Kernel crash: no checkpoint, and each log loses its unsynced tail.
    drop((client, stores, net));
    for (shard, &len) in synced_lens.iter().enumerate() {
        let wal = store.for_shard(shard, SHARDS).dir.join("store.wal");
        fs::OpenOptions::new().write(true).open(wal)?.set_len(len)?;
    }
    let server = Server::try_start(ServerConfig::new(512).with_shards(SHARDS).with_store(store))?;
    let reads: Vec<ServerRequest> = (0..WRITES)
        .map(|page| ServerRequest::Get {
            client: cache_sim::ClientId(0),
            page: PageId(page),
            hint: cache_sim::HintSetId(0),
            prefetch: false,
        })
        .collect();
    for (page, response) in server.submit(&reads).iter().enumerate() {
        if applied[page] {
            assert_eq!(
                response.data(),
                Some(&page_payload(PageId(page as u64), CHAOS_PAGE_SIZE)[..]),
                "applied write {page} did not survive the crash"
            );
        }
    }
    server
        .try_shutdown()
        .map_err(|err| io::Error::other(err.to_string()))?;
    let applied_count = applied.iter().filter(|&&a| a).count();
    assert!(
        applied_count > 0 && applied_count < applied.len(),
        "the schedule must both apply and fail writes"
    );
    Ok(ServerStormOutcome {
        applied,
        synced_lens,
        counts: fault.counts(),
    })
}

fn chaos(ctx: &ExperimentContext) -> io::Result<JsonValue> {
    let (rate, seconds) = match ctx.scale {
        PresetScale::Smoke => (4_000.0, 0.4),
        _ => (8_000.0, 1.0),
    };

    // ---- Phase A: durability under injected WAL faults, twice. --------
    println!("phase A: strict durability under a seeded WAL fault storm");
    let ops: Vec<(u64, u8)> = (0..800u64)
        .map(|i| (i.wrapping_mul(0x9e3779b9) % 32, (i % 251) as u8))
        .collect();
    let dir_a = scratch_dir("chaos-a");
    let first = durability_storm(&dir_a, &ops)?;
    let second = durability_storm(&dir_a, &ops)?;
    assert_eq!(
        first, second,
        "same seed, same storm: acks, counts, synced prefixes, and recovered \
         bytes must all replay identically"
    );
    fs::remove_dir_all(&dir_a).ok();
    println!(
        "  deterministic: both runs acked {}/{} writes, synced prefixes {:?} bytes, \
         {} pages recovered bit-identical\n",
        first.acked.iter().filter(|&&a| a).count(),
        ops.len(),
        first.synced_lens,
        first.recovered.len()
    );

    // ---- Phase B: degradation under store faults, network clean. ------
    println!("phase B: open-loop load over a faulted store");
    let store_fault = FaultInjector::seeded(CHAOS_SEED ^ 1).with_rate(FaultPoint::WalAppend, 0.02);
    let dir_b = scratch_dir("chaos-b");
    let config = ServerConfig::new(2_048)
        .with_shards(2)
        .with_recorder(clic_obs::Recorder::enabled())
        .with_store(
            StoreConfig::new(&dir_b, 2_048)
                .with_page_size(CHAOS_PAGE_SIZE)
                .with_fault_injector(store_fault),
        );
    let net = NetServer::start(Server::start(config), NetOptions::default())?;
    let addr = net.tcp_addr().expect("tcp front-end enabled");
    println!("  front-end on {addr}, offering {rate:.0} req/s for {seconds} s");

    let open_loop = OpenLoopConfig {
        rate,
        requests: (rate * seconds) as u64,
        pages: 4_096,
        payload: Some(CHAOS_PAGE_SIZE),
        ..OpenLoopConfig::default()
    };
    let report = run_open_loop(addr, &open_loop)?;
    let received = report.completed + report.errored;
    println!(
        "  sent {} / completed {} / errored {} in {:.2} s",
        report.sent,
        report.completed,
        report.errored,
        report.elapsed.as_secs_f64()
    );
    // The pipe is clean, so the whole schedule must be sent and every
    // request answered — degradation shows up as typed errors, never as
    // silence.
    assert_eq!(report.sent, open_loop.requests, "the pipe is fault-free");
    assert_eq!(
        received, report.sent,
        "every request must be answered: success or error"
    );
    assert!(report.completed > 0, "nothing completed under chaos");
    assert!(
        report.errored >= 1,
        "a ~2% WAL-append fault rate over the write mix must surface at \
         least one OP_ERR end-to-end"
    );
    // Bounded degradation: writes are ~25% of the mix and ~2% of those
    // fault, so errors must stay a small minority.
    assert!(
        report.errored <= received / 4 + 8,
        "error rate under light chaos must stay bounded: {} errored of {}",
        report.errored,
        received
    );

    // A burst four windows long: the loop blocks at the window and resumes
    // as replies leave, so every write is answered — applied, or failed by
    // the store with a typed `Io` — and none is turned away.
    let mut burst_client = connect(addr)?;
    let burst: Vec<ServerRequest> = (0..256u64)
        .map(|i| ServerRequest::Put {
            client: cache_sim::ClientId(0),
            page: PageId(i % 512),
            hint: cache_sim::HintSetId(0),
            write_hint: None,
            data: Some(page_payload(PageId(i % 512), CHAOS_PAGE_SIZE)),
        })
        .collect();
    let responses = burst_client
        .call_batch(&burst)
        .expect("the pipe is fault-free; the burst must be fully answered");
    let burst_applied = responses.iter().filter(|r| r.hit().is_some()).count();
    let burst_failed = responses
        .iter()
        .filter(|r| r.error_code() == Some(ErrorCode::Io))
        .count();
    println!(
        "  burst: {} of {} applied, {} failed by the store",
        burst_applied,
        burst.len(),
        burst_failed
    );
    assert_eq!(
        burst_applied + burst_failed,
        burst.len(),
        "every burst write must be applied or fail with Io: {responses:?}"
    );
    drop(burst_client);

    // Clean shutdown despite the degraded run.
    let result = net.shutdown()?;
    assert!(
        result.stats.requests() > 0,
        "shutdown statistics lost the run"
    );
    fs::remove_dir_all(&dir_b).ok();

    // ---- Phase C: a hostile network. -----------------------------------
    println!("\nphase C: a retrying client against an armed network front-end");
    let net_fault = FaultInjector::seeded(CHAOS_SEED)
        .with_rate(FaultPoint::NetSend, 0.02)
        .with_rate(FaultPoint::NetRecv, 0.004)
        .with_rate(FaultPoint::NetAccept, 0.10);
    // Policy-only (no store): phase C is about the wire, not the disk.
    let chaos_config = ServerConfig::new(4_096)
        .with_shards(2)
        .with_recorder(clic_obs::Recorder::enabled());
    let chaos_net = NetServer::start(
        Server::start(chaos_config),
        NetOptions {
            fault: net_fault.clone(),
            ..NetOptions::default()
        },
    )?;
    let chaos_addr = chaos_net.tcp_addr().expect("tcp front-end enabled");

    // Force the accept-drop fault to demonstrably fire: every fresh dial
    // draws one accept decision (rate 0.10), so a handful suffice. A
    // dropped accept looks like a connection dying on first use — the
    // stats call synchronizes with the event loop either way.
    let mut dials = 0u32;
    while net_fault.injected_at(FaultPoint::NetAccept) < 1 && dials < 1_000 {
        let mut c = connect(chaos_addr)?;
        let _ = c.set_timeouts(Some(Duration::from_secs(2)));
        let _ = c.call(&ServerRequest::Stats);
        dials += 1;
    }
    println!("  {dials} dials to land an accept drop");

    // A retrying client rides out whatever the injector throws: keep
    // probing until the schedule has demonstrably reset at least one
    // connection and injured at least one send.
    let policy = RetryPolicy {
        max_retries: 8,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(20),
        seed: CHAOS_SEED,
    };
    let mut probe = connect(chaos_addr)?;
    let mut probes = 0u64;
    while (net_fault.injected_at(FaultPoint::NetRecv) < 1
        || net_fault.injected_at(FaultPoint::NetSend) < 1)
        && probes < 10_000
    {
        let response = probe
            .call_with_retry(
                &ServerRequest::Get {
                    client: cache_sim::ClientId(0),
                    page: PageId(probes % 4_096),
                    hint: cache_sim::HintSetId(0),
                    prefetch: false,
                },
                &policy,
            )
            .expect("a retrying client must survive injected resets");
        assert!(
            response.hit().is_some() || response.error_code().is_some(),
            "a get must answer hit/miss or a typed error"
        );
        probes += 1;
    }
    assert!(
        net_fault.injected_at(FaultPoint::NetRecv) >= 1,
        "the schedule must reset at least one connection"
    );
    assert!(
        net_fault.injected_at(FaultPoint::NetAccept) >= 1,
        "the schedule must drop at least one accept"
    );
    assert!(
        net_fault.injected_at(FaultPoint::NetSend) >= 1,
        "the schedule must tear or fail at least one send"
    );
    println!(
        "  {} retry probes, all survived; injected: {} accept drops, {} resets, {} send faults",
        probes,
        net_fault.injected_at(FaultPoint::NetAccept),
        net_fault.injected_at(FaultPoint::NetRecv),
        net_fault.injected_at(FaultPoint::NetSend),
    );

    // Clean shutdown despite the armed injector.
    let chaos_result = chaos_net.shutdown()?;
    assert!(
        chaos_result.stats.requests() > 0,
        "shutdown statistics lost the probes"
    );

    // ---- Phase D: acknowledged means synced, twice. --------------------
    println!("\nphase D: a group-commit server under a seeded fsync storm");
    let dir_d = scratch_dir("chaos-d");
    let storm = server_storm(&dir_d)?;
    assert_eq!(
        storm,
        server_storm(&dir_d)?,
        "same seed, same storm: outcomes, synced prefixes and counts must replay"
    );
    fs::remove_dir_all(&dir_d).ok();
    let storm_applied = storm.applied.iter().filter(|&&a| a).count() as u64;
    println!(
        "  server storm: {} of {} applied, {} failed closed with Io; synced prefixes {:?} \
         bytes; every applied write read back; both runs identical",
        storm_applied,
        storm.applied.len(),
        storm.applied.len() as u64 - storm_applied,
        storm.synced_lens
    );

    Ok(JsonValue::object([
        (
            "storm_acked",
            num(first.acked.iter().filter(|&&a| a).count() as u64),
        ),
        ("storm_writes", num(ops.len() as u64)),
        ("open_loop_sent", num(report.sent)),
        ("open_loop_completed", num(report.completed)),
        ("open_loop_errored", num(report.errored)),
        ("burst_applied", num(burst_applied as u64)),
        ("burst_failed", num(burst_failed as u64)),
        (
            "accept_drops",
            num(net_fault.injected_at(FaultPoint::NetAccept)),
        ),
        (
            "conn_resets",
            num(net_fault.injected_at(FaultPoint::NetRecv)),
        ),
        (
            "send_faults",
            num(net_fault.injected_at(FaultPoint::NetSend)),
        ),
        ("server_storm_applied", num(storm_applied)),
        (
            "server_storm_failed",
            num(storm.applied.len() as u64 - storm_applied),
        ),
    ]))
}
