//! Domain scenario: a live storage server consolidating several database
//! instances — the online counterpart of `multi_client_consolidation`.
//!
//! Three DB2 TPC-C clients (the Figure 11 mix) drive a sharded CLIC server
//! concurrently, one closed-loop client thread each — and the server runs
//! over its real data plane: a disk-backed page store with a write-ahead
//! log, so every `Put` stages actual page bytes and every `Get` returns
//! them. Dirty frames are written back inline: a staging call that finds
//! the flush threshold's worth of dirty frames writes a batch back before
//! it returns, and evictions write back their own dirty frames. The
//! harness reports throughput, batch latency percentiles, per-client hit
//! ratios, and the byte-level I/O the store performed, including the
//! pages flushed; a single-threaded CLIC simulation of the equivalent
//! interleaved trace shows how faithfully the sharded online deployment
//! tracks the offline policy. The example ends by reopening the store to
//! verify the shutdown checkpoint persisted the written pages, then
//! deliberately *crashes* a second server (drop without shutdown) to show
//! the WAL recovering every acknowledged write.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example storage_server
//! ```

use clic::prelude::*;

/// Small pages keep the example's scratch files tiny; the store's default
/// is 4 KiB.
const PAGE_SIZE: usize = 512;

/// Dirty frames per shard store that trigger an inline write-back pass.
const FLUSH_THRESHOLD: usize = 128;

fn main() {
    let scale = PresetScale::Smoke;
    let presets = [
        TracePreset::Db2C60,
        TracePreset::Db2C300,
        TracePreset::Db2C540,
    ];

    // Independent clients over disjoint page ranges, truncated to the
    // shortest trace so no client is over-represented (as in Figure 11).
    let traces = preset_client_traces(&presets, scale);
    for trace in &traces {
        println!("client trace: {}", trace.summary());
    }

    let cache_pages = 1_800;
    let shards = 4;
    let total: u64 = traces.iter().map(|t| t.len() as u64).sum();
    let window = suggested_window(total);

    // The data plane: a disk-backed store whose buffer frames the policy
    // adjudicates. The WAL makes acknowledged writes crash-safe; the
    // inline flush threshold keeps each shard's dirty frames bounded.
    let store_dir = std::env::temp_dir().join(format!("clic-example-store-{}", std::process::id()));
    std::fs::remove_dir_all(&store_dir).ok();
    let store_config = StoreConfig::new(&store_dir, cache_pages)
        .with_page_size(PAGE_SIZE)
        .with_flush_threshold(FLUSH_THRESHOLD);

    let config = LoadConfig::new(
        ServerConfig::new(cache_pages)
            .with_shards(shards)
            .with_clic(
                ClicConfig::default()
                    .with_window(window)
                    .with_tracking(TrackingMode::TopK(100)),
            )
            .with_merge_every(window)
            .with_store(store_config.clone()),
    )
    .with_batch(64);

    println!(
        "\nserver: {cache_pages} pages, {shards} shards, window {window}, \
         store at {}",
        store_dir.display()
    );
    let report = run_load(&config, &traces);

    println!(
        "\nthroughput: {:.0} req/s ({} requests in {:.2} s, {} priority merges)",
        report.throughput_rps(),
        report.requests(),
        report.elapsed.as_secs_f64(),
        report.merges,
    );
    println!(
        "batch latency: p50 {} us, p95 {} us, p99 {} us, max {} us",
        report.latency.p50(),
        report.latency.p95(),
        report.latency.p99(),
        report.latency.max()
    );
    println!("\n{:<10} {:>15}", "client", "read hit ratio");
    for client in &report.clients {
        println!(
            "{:<10} {:>14.1}%",
            client.trace,
            client.read_hit_ratio() * 100.0
        );
    }
    println!(
        "{:<10} {:>14.1}%",
        "overall",
        report.read_hit_ratio() * 100.0
    );

    // Reference: the offline Figure 11 shared cache on the same requests.
    let refs: Vec<&Trace> = traces.iter().collect();
    let (combined, _) = interleave(&refs);
    let mut reference = Clic::new(
        cache_pages,
        ClicConfig::default()
            .with_window(suggested_window(combined.len() as u64))
            .with_tracking(TrackingMode::TopK(100)),
    );
    let reference_result = simulate(&mut reference, &combined);
    println!(
        "\noffline single-cache reference: {:.1}% — the sharded online server\n\
         stays close because the cross-shard priority merge keeps every shard's\n\
         hint learning aligned with the global workload.",
        reference_result.read_hit_ratio() * 100.0
    );

    // The data plane moved real bytes; the harness captured the counters
    // just before shutdown.
    if let Some(io) = &report.io {
        println!(
            "\ndata plane: {} bytes moved ({} disk reads, {} disk writes, \
             buffer hit ratio {:.1}%)",
            io.bytes_moved(),
            io.disk_reads,
            io.disk_writes,
            io.buffer_hit_ratio() * 100.0
        );
        println!(
            "write-back/WAL: {} pages flushed ({} forced by eviction), {} WAL records",
            io.pages_flushed, io.eviction_flushes, io.wal_records
        );
    }

    // run_load shut the server down cleanly, which checkpointed every
    // shard's store: every written page is on disk and the WALs are empty.
    // Each shard keeps its own store under a shard-N subdirectory; reopen
    // the one owning a page the workload wrote (the harness stages
    // page_payload(page, ...) for every Put) and verify it.
    let written = traces[0]
        .requests
        .iter()
        .find(|r| r.kind == AccessKind::Write)
        .map(|r| r.page)
        .expect("the TPC-C mix writes");
    let store = PageStore::open(store_config.for_shard(page_partition(written, shards), shards))
        .expect("reopen the checkpointed shard store");
    assert_eq!(
        store.recovered_writes(),
        0,
        "a clean shutdown leaves nothing to recover"
    );
    let mut buf = Vec::new();
    store.read(written, &mut buf).expect("read back");
    assert_eq!(buf, page_payload(written, PAGE_SIZE));
    println!(
        "\nreopened shard {}'s store: {} pages on disk, WAL empty, page {} verified byte-for-byte",
        page_partition(written, shards),
        store.pages_on_disk(),
        written.0
    );
    drop(store);
    std::fs::remove_dir_all(&store_dir).ok();

    // Crash recovery: a second server takes two writes, acknowledges them,
    // and is dropped WITHOUT shutdown — no checkpoint, dirty frames lost.
    // The WAL replays both writes on reopen.
    let crash_dir = std::env::temp_dir().join(format!("clic-example-crash-{}", std::process::id()));
    std::fs::remove_dir_all(&crash_dir).ok();
    let crash_store = StoreConfig::new(&crash_dir, 64).with_page_size(PAGE_SIZE);
    let server = Server::start(
        ServerConfig::new(64)
            .with_shards(1)
            .with_store(crash_store.clone()),
    );
    let hint = HintSetId(0);
    let payload = |tag: u8| vec![tag; PAGE_SIZE];
    server.submit(&[
        ServerRequest::Put {
            client: ClientId(0),
            page: PageId(7),
            hint,
            write_hint: None,
            data: Some(payload(0xA7)),
        },
        ServerRequest::Put {
            client: ClientId(0),
            page: PageId(8),
            hint,
            write_hint: None,
            data: Some(payload(0xB8)),
        },
    ]);
    drop(server); // crash: no checkpoint, the dirty frames never hit disk

    let recovered = PageStore::open(crash_store).expect("recover from the WAL");
    assert_eq!(recovered.recovered_writes(), 2);
    recovered.read(PageId(7), &mut buf).expect("read page 7");
    assert_eq!(buf, payload(0xA7));
    recovered.read(PageId(8), &mut buf).expect("read page 8");
    assert_eq!(buf, payload(0xB8));
    println!(
        "crash demo: dropped a server mid-flight; the WAL replayed {} acknowledged \
         writes on reopen, contents intact.",
        recovered.recovered_writes()
    );
    drop(recovered);
    std::fs::remove_dir_all(&crash_dir).ok();
}
