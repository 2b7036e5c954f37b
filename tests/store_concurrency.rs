//! Concurrent smoke tests for the per-shard data plane: real client
//! threads driving a store-backed sharded server, checked against the
//! serial partitioned replay of the same requests.
//!
//! With per-shard stores, each shard calls its own `PageStore` under that
//! shard's lock, so concurrent clients drive several stores at once, and
//! under group commit each shard's log writer syncs beside its worker. The
//! clients submit in rounds of one batch each, but thread scheduling still
//! makes the per-shard *interleaving* within a round nondeterministic, so
//! these tests split their checks in two:
//!
//! * **Exact** — counters that depend only on the request multiset, not
//!   on order: total requests and cache-interface bytes moved must equal
//!   the serial [`replay_storage_partitioned`] run bit-for-bit.
//! * **Tolerance** — the aggregate read hit ratio must land within 10% of
//!   the shared single-cache simulation of the interleaved trace, the
//!   same bar as the policy-only concurrency tests.
//!
//! Both tests finish by reopening every shard's store after the clean
//! shutdown and reading written pages back byte-for-byte — the checkpoint
//! left nothing in any WAL.
//!
//! `scripts/verify.sh --smoke` runs this file as the concurrent
//! smoke gate.

mod common;

use std::path::PathBuf;

use clic::prelude::*;
use common::submit_in_rounds;

const PAGE_SIZE: usize = 128;

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "clic-store-concurrency-{label}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Drives `presets.len()` concurrent client threads, paced in rounds,
/// against a `shards`-shard store-backed server, compares the order-insensitive I/O
/// counters and the hit ratio against the serial partitioned replay of
/// the interleaved trace, then reopens every shard store and verifies
/// written pages byte-for-byte.
fn concurrent_run_matches_serial_replay(
    presets: &[TracePreset],
    shards: usize,
    durability: Durability,
    label: &str,
) {
    let traces = preset_client_traces(presets, PresetScale::Smoke);
    let total: u64 = traces.iter().map(|t| t.len() as u64).sum();
    let cache_pages = 1_800;
    let window = suggested_window(total);
    let clic_config = ClicConfig::default()
        .with_window(window)
        .with_tracking(TrackingMode::TopK(100));

    // Online: one client thread per trace over a real store, in rounds.
    let dir = scratch(label);
    let store_config = StoreConfig::new(&dir, cache_pages)
        .with_page_size(PAGE_SIZE)
        .with_flush_threshold(64);
    let server = Server::start(
        ServerConfig::new(cache_pages)
            .with_shards(shards)
            .with_clic(clic_config)
            .with_merge_every(window)
            .with_durability(durability)
            .with_store(store_config.clone()),
    );
    // Every Put carries its page's payload, so the read-back below can check
    // the bytes.
    let answered = submit_in_rounds(&server, &traces, Some(PAGE_SIZE));
    // Read before shutdown: the shutdown checkpoint's flush burst is not
    // part of the run.
    let online_io = server
        .io_stats()
        .expect("a store-backed server reports I/O");
    let online = server.shutdown();
    assert_eq!(answered, total, "every request gets a data response");
    assert_eq!(online.stats.requests(), total, "no request may be lost");

    // Serial reference: the same requests through the partitioned replay,
    // one partition per shard, on one thread.
    let refs: Vec<&Trace> = traces.iter().collect();
    let (combined, _) = interleave(&refs);
    let serial_dir = scratch(&format!("{label}-serial"));
    let serial_config = StoreConfig::new(&serial_dir, cache_pages)
        .with_page_size(PAGE_SIZE)
        .with_flush_threshold(64);
    let factory = (
        "CLIC(k=100)".to_string(),
        move |capacity: usize| -> cache_sim::BoxedPolicy {
            Box::new(Clic::new(capacity, clic_config))
        },
    );
    let serial = replay_storage_partitioned(
        &ThreadPool::new(1),
        &factory,
        &combined,
        cache_pages,
        shards,
        &serial_config,
    )
    .expect("serial replay");
    std::fs::remove_dir_all(&serial_dir).ok();

    // Exact: order-insensitive counters match the serial replay. (WAL
    // records are *not* on this list: a bypassed write goes write-through
    // without a log record, and bypass decisions depend on policy state,
    // which depends on the scheduling order.)
    assert_eq!(online.stats.requests(), serial.result.stats.requests());
    assert_eq!(online_io.bytes_read, serial.io.bytes_read);
    assert_eq!(online_io.bytes_written, serial.io.bytes_written);
    let writes: u64 = traces
        .iter()
        .flat_map(|t| &t.requests)
        .filter(|r| r.kind == AccessKind::Write)
        .count() as u64;
    assert!(
        online_io.wal_records > 0 && online_io.wal_records <= writes,
        "every WAL record acknowledges one staged write: {} records, {writes} writes",
        online_io.wal_records
    );

    // Tolerance: the hit-ratio reference is the *shared* single cache over
    // the same interleaved requests (the Figure 11 anchor, same bar as
    // `server_concurrency.rs`). The partitioned replay is not the right
    // yardstick here: it fragments hint learning across independent
    // partitions, while the online server's cross-shard priority merge
    // keeps the shards aligned with the global workload.
    let mut shared = Clic::new(
        cache_pages,
        ClicConfig::default()
            .with_window(suggested_window(combined.len() as u64))
            .with_tracking(TrackingMode::TopK(100)),
    );
    let single = simulate(&mut shared, &combined);
    let online_ratio = online.read_hit_ratio();
    let single_ratio = single.read_hit_ratio();
    assert!(
        (online_ratio - single_ratio).abs() <= 0.10 * single_ratio,
        "concurrent hit ratio {online_ratio:.3} must stay within 10% of the \
         shared single-cache result {single_ratio:.3}"
    );

    // The clean shutdown checkpointed every shard: reopen each store,
    // confirm the WAL is empty, and read one written page per client back
    // byte-for-byte through whichever shard owns it.
    let stores: Vec<PageStore> = (0..shards)
        .map(|shard| {
            let store =
                PageStore::open(store_config.for_shard(shard, shards)).expect("reopen shard store");
            assert_eq!(
                store.recovered_writes(),
                0,
                "a clean shutdown leaves shard {shard} nothing to recover"
            );
            store
        })
        .collect();
    let mut buf = Vec::new();
    for trace in &traces {
        let written = trace
            .requests
            .iter()
            .find(|r| r.kind == AccessKind::Write)
            .map(|r| r.page)
            .expect("the TPC-C mix writes");
        let store = &stores[page_partition(written, shards)];
        store.read(written, &mut buf).expect("read back");
        assert_eq!(buf, page_payload(written, PAGE_SIZE), "page {}", written.0);
    }
    drop(stores);
    std::fs::remove_dir_all(&dir).ok();
}

/// The `--smoke` concurrent smoke: 2 shards × 2 client threads.
#[test]
fn two_shards_two_clients_match_serial_replay() {
    concurrent_run_matches_serial_replay(
        &[TracePreset::Db2C60, TracePreset::Db2C300],
        2,
        Durability::Buffered,
        "2x2",
    );
}

/// The acceptance-bar shape — 4 shards × 4 clients, each shard owning its
/// store — run under the server's group-commit durability knob (which
/// changes when the WAL syncs, never what the policies decide or what the
/// WAL records).
#[test]
fn four_shards_four_clients_match_serial_replay_under_group_commit() {
    concurrent_run_matches_serial_replay(
        &[
            TracePreset::Db2C60,
            TracePreset::Db2C300,
            TracePreset::Db2C540,
            TracePreset::Db2C60,
        ],
        4,
        Durability::group_commit(),
        "4x4",
    );
}
