//! End-to-end tests of the disk-backed data plane: the page store replayed
//! under the real policies on the paper's workloads, at smoke scale.
//!
//! Three guarantees ride on these:
//!
//! 1. The headline acceptance bar of the storage subsystem — CLIC's
//!    hint-informed admission performs **no more disk reads** than the LRU
//!    baseline on the Figure 11 smoke trace, measured against a real
//!    backing file rather than inferred from miss counts.
//! 2. The store-backed replay is *statistically invisible*: policy
//!    decisions (hits, misses, evictions) are bit-identical to the pure
//!    in-memory simulation, and the same holds for a 1-shard store-backed
//!    server.
//! 3. Acknowledged writes survive a server crash and read back
//!    byte-for-byte through the recovered store.

use std::path::PathBuf;

use clic::prelude::*;

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clic-data-plane-{label}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The Figure 11 workload at smoke scale: three DB2 TPC-C clients over
/// disjoint page ranges, interleaved round-robin.
fn fig11_smoke_trace() -> Trace {
    let presets = TracePreset::TPCC;
    let traces: Vec<Trace> = presets
        .iter()
        .enumerate()
        .map(|(i, p)| {
            p.build_with_offset(PresetScale::Smoke, (i as u64) * 100_000_000, 42 + i as u64)
        })
        .collect();
    let refs: Vec<&Trace> = traces.iter().collect();
    interleave(&refs).0
}

fn replay(policy: &mut dyn CachePolicy, trace: &Trace, label: &str) -> StorageReplayReport {
    let dir = scratch(label);
    let store = PageStore::open(
        StoreConfig::new(&dir, policy.capacity())
            .with_page_size(256)
            .with_flush_threshold(64),
    )
    .expect("open store");
    let report = replay_storage(policy, &store, trace).expect("replay");
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
    report
}

/// The acceptance bar: on the Figure 11 smoke trace, CLIC admission reads
/// the disk no more often than LRU admission over the same store setup.
#[test]
fn clic_performs_no_more_disk_reads_than_lru_on_fig11_smoke() {
    let trace = fig11_smoke_trace();
    let cache_pages = TracePreset::Db2C60.reference_cache_size(PresetScale::Smoke);
    let window = suggested_window(trace.len() as u64);

    let mut clic = Clic::new(
        cache_pages,
        ClicConfig::default()
            .with_window(window)
            .with_tracking(TrackingMode::TopK(100)),
    );
    let clic_report = replay(&mut clic, &trace, "clic");

    let mut lru = Lru::new(cache_pages);
    let lru_report = replay(&mut lru, &trace, "lru");

    assert!(
        clic_report.io.disk_reads <= lru_report.io.disk_reads,
        "CLIC must not read the disk more than LRU: {} vs {}",
        clic_report.io.disk_reads,
        lru_report.io.disk_reads
    );
    // Both replays moved the same bytes through the cache interface.
    assert_eq!(clic_report.io.bytes_read, lru_report.io.bytes_read);
    assert_eq!(clic_report.io.bytes_written, lru_report.io.bytes_written);
    // Sanity: this workload actually exercises the disk and the WAL.
    assert!(clic_report.io.disk_reads > 0);
    assert!(clic_report.io.wal_records > 0);
    assert!(clic_report.io.pages_flushed > 0);
}

/// The store is a pure data plane: replaying over it yields exactly the
/// statistics of the in-memory simulation, for both policies.
#[test]
fn store_backed_replay_is_statistically_invisible() {
    let trace = fig11_smoke_trace();
    let cache_pages = 1_200;
    let window = suggested_window(trace.len() as u64);

    let pure = {
        let mut clic = Clic::new(cache_pages, ClicConfig::default().with_window(window));
        simulate(&mut clic, &trace)
    };
    let stored = {
        let mut clic = Clic::new(cache_pages, ClicConfig::default().with_window(window));
        replay(&mut clic, &trace, "invisible")
    };
    assert_eq!(pure.stats, stored.result.stats);
    assert_eq!(pure.per_client, stored.result.per_client);
}

/// A 1-shard store-backed server matches the offline simulation
/// bit-for-bit — the byte-exactness anchor extended to the data plane.
#[test]
fn one_shard_store_backed_server_matches_simulation() {
    let trace = fig11_smoke_trace();
    let cache_pages = 1_200;
    let window = suggested_window(trace.len() as u64);
    let config = ClicConfig::default().with_window(window);

    let reference = {
        let mut clic = Clic::new(cache_pages, config);
        simulate(&mut clic, &trace)
    };

    let dir = scratch("one-shard");
    let server = Server::start(
        ServerConfig::new(cache_pages)
            .with_shards(1)
            .with_clic(config)
            .with_store(StoreConfig::new(&dir, cache_pages).with_page_size(128)),
    );
    for chunk in trace.requests.chunks(256) {
        let batch: Vec<ServerRequest> = chunk.iter().map(ServerRequest::from_request).collect();
        server.submit(&batch);
    }
    // Before shutdown: its checkpoint would add a flush burst.
    let server_io = server.io_stats().expect("store-backed server");
    let result = server.shutdown();
    assert_eq!(result.stats, reference.stats);
    assert_eq!(result.per_client, reference.per_client);
    std::fs::remove_dir_all(&dir).ok();

    // The offline replay and the online shard path share one mirror
    // (`PageStore::mirror`), so over the same store setup their byte
    // counters agree exactly, not just their hit counts.
    let dir = scratch("one-shard-replay");
    let store = PageStore::open(StoreConfig::new(&dir, cache_pages).with_page_size(128))
        .expect("open store");
    let replayed =
        replay_storage(&mut Clic::new(cache_pages, config), &store, &trace).expect("replay");
    assert_eq!(replayed.result.stats, reference.stats);
    assert_eq!(server_io, replayed.io);
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// Acknowledged writes survive a crash of the whole server stack and read
/// back byte-for-byte through the recovered store.
#[test]
fn server_crash_recovers_acknowledged_writes() {
    let dir = scratch("crash");
    let store_config = StoreConfig::new(&dir, 32).with_page_size(128);
    let server = Server::start(
        ServerConfig::new(32)
            .with_shards(2)
            .with_store(store_config.clone()),
    );
    let hint = HintSetId(0);
    let pages: Vec<u64> = (0..10).collect();
    let batch: Vec<ServerRequest> = pages
        .iter()
        .map(|&p| ServerRequest::Put {
            client: ClientId(0),
            page: PageId(p),
            hint,
            write_hint: None,
            data: Some(page_payload(PageId(p), 128)),
        })
        .collect();
    server.submit(&batch);
    drop(server); // crash: no shutdown, no checkpoint

    // Each shard owns its own store (and WAL) under a shard-N subdirectory;
    // recovery opens both and every acknowledged write is in exactly one.
    let shards = 2;
    let mut recovered = 0;
    let stores: Vec<PageStore> = (0..shards)
        .map(|shard| {
            let store = PageStore::open(store_config.for_shard(shard, shards)).expect("recover");
            recovered += store.recovered_writes();
            store
        })
        .collect();
    assert_eq!(recovered, pages.len() as u64);
    let mut buf = Vec::new();
    for &p in &pages {
        let store = &stores[page_partition(PageId(p), shards)];
        store.read(PageId(p), &mut buf).expect("read back");
        assert_eq!(buf, page_payload(PageId(p), 128), "page {p}");
    }
    drop(stores);
    std::fs::remove_dir_all(&dir).ok();
}
