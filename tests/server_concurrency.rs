//! Integration tests for the `clic-server` subsystem: correctness anchors
//! tying the online, concurrent deployment back to the offline simulator.
//!
//! * With 1 shard and 1 client, the server must reproduce
//!   [`simulate`]'s statistics *exactly* — same hits, misses, evictions,
//!   bypasses, per client.
//! * With several shards under concurrent clients that submit in rounds of
//!   one batch each, the run must complete without deadlock and the
//!   aggregate read hit ratio must stay within 10% of the single-cache
//!   result on the Figure 11 multi-client preset.

mod common;

use clic::prelude::*;
use common::submit_in_rounds;

/// Correctness anchor (a): a 1-shard server driven by 1 client produces
/// statistics identical to `simulate` on the same trace.
#[test]
fn single_shard_single_client_matches_simulate_exactly() {
    let trace = TracePreset::Db2C60.build(PresetScale::Smoke);
    let capacity = 1_800;
    let window = suggested_window(trace.len() as u64);
    let config = ClicConfig::default()
        .with_window(window)
        .with_tracking(TrackingMode::TopK(100));

    let mut reference = Clic::new(capacity, config);
    let expected = simulate(&mut reference, &trace);

    let report = run_load(
        &LoadConfig::new(ServerConfig::new(capacity).with_clic(config)).with_batch(64),
        std::slice::from_ref(&trace),
    );

    assert_eq!(report.result.stats, expected.stats);
    assert_eq!(report.result.per_client, expected.per_client);
    assert_eq!(report.result.capacity, expected.capacity);
    // The client-side view agrees with the server-side accounting.
    assert_eq!(report.clients.len(), 1);
    assert_eq!(report.clients[0].stats.read_hits, expected.stats.read_hits);
    assert_eq!(
        report.clients[0].stats.requests(),
        expected.stats.requests()
    );
}

/// Correctness anchor (b): four shards under four concurrent clients, paced
/// in rounds, complete without deadlock, account for every request, and land within 10%
/// of the single shared cache on the Figure 11 multi-client preset.
#[test]
fn sharded_concurrent_run_tracks_single_cache_hit_ratio() {
    let presets = [
        TracePreset::Db2C60,
        TracePreset::Db2C300,
        TracePreset::Db2C540,
        TracePreset::Db2C60,
    ];
    // The Figure 11 client mix (plus one extra DB2_C60 instance to reach
    // four concurrent clients), truncated to the shortest trace so online
    // and offline runs serve exactly the same requests.
    let traces = preset_client_traces(&presets, PresetScale::Smoke);
    let total: u64 = traces.iter().map(|t| t.len() as u64).sum();
    let cache_pages = 1_800;
    let window = suggested_window(total);
    let clic_config = ClicConfig::default()
        .with_window(window)
        .with_tracking(TrackingMode::TopK(100));

    // Online: 4 shards, 4 client threads submitting at once, paced in
    // rounds.
    let server = Server::start(
        ServerConfig::new(cache_pages)
            .with_shards(4)
            .with_clic(clic_config)
            .with_merge_every(window),
    );
    let answered = submit_in_rounds(&server, &traces, None);
    let merges = server.cache().merges_completed();
    let online = server.shutdown();
    assert_eq!(answered, total, "every request gets a data response");
    assert_eq!(online.stats.requests(), total, "no request may be lost");
    assert!(merges > 0, "cross-shard merges must have happened");

    // Offline: the Figure 11 shared single cache over the same requests.
    let refs: Vec<&Trace> = traces.iter().collect();
    let (combined, _) = interleave(&refs);
    let mut shared = Clic::new(
        cache_pages,
        ClicConfig::default()
            .with_window(suggested_window(combined.len() as u64))
            .with_tracking(TrackingMode::TopK(100)),
    );
    let single = simulate(&mut shared, &combined);

    let sharded_ratio = online.read_hit_ratio();
    let single_ratio = single.read_hit_ratio();
    assert!(
        (sharded_ratio - single_ratio).abs() <= 0.10 * single_ratio,
        "sharded aggregate read hit ratio {sharded_ratio:.3} must stay within 10% \
         of the single-cache result {single_ratio:.3}"
    );
}
