//! Closed-loop load harness: K concurrent client threads driving a
//! [`Server`], with throughput, latency-percentile, and per-client hit-ratio
//! reporting.
//!
//! Each client thread owns one trace (typically a [`trace_gen`] preset over a
//! disjoint page range, as in the paper's Figure 11 consolidation scenario)
//! and drives it in fixed-size batches: submit, wait for the responses,
//! submit the next batch. This is the *online* analogue of round-robin
//! interleaving the traces offline — the actual request order at the server
//! emerges from real thread scheduling instead of being scripted.

use std::time::{Duration, Instant};

use cache_sim::{
    CacheStats, ClientId, HintCatalog, IoStats, Request, SimulationResult, Trace, REPLAY_CHUNK,
};
use clic_obs::{HistogramSnapshot, LatencyHistogram};
use clic_store::page_payload;
use trace_gen::{PresetScale, TracePreset};

use crate::protocol::ServerRequest;
use crate::server::{Server, ServerConfig};

/// Configuration for one harness run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// The server under load.
    pub server: ServerConfig,
    /// Requests per submitted batch (clamped to at least 1).
    pub batch: usize,
}

impl LoadConfig {
    /// A harness over the given server configuration submitting batches of
    /// [`cache_sim::REPLAY_CHUNK`] requests — the workspace-wide replay
    /// granularity, so the load harness batches exactly like the offline
    /// drivers instead of picking its own magic number.
    pub fn new(server: ServerConfig) -> Self {
        LoadConfig {
            server,
            batch: REPLAY_CHUNK,
        }
    }

    /// Sets the batch size.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }
}

/// Histogram name under which [`run_load`] publishes client-observed batch
/// latencies (microseconds per submitted batch) into the server's
/// [`clic_obs::Recorder`], when one is enabled.
pub const CLIENT_BATCH_HISTOGRAM: &str = "server.client_batch_us";

/// Batch-latency percentiles over one harness run, in microseconds: a plain
/// projection of a [`HistogramSnapshot`] (see it for the nearest-rank
/// percentile rule — exact below 64 µs, within 1/32 (~3%) above, `max_us`
/// always exact), so the harness keeps O(1) memory per client thread no
/// matter how many batches a run submits.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    /// Number of batches measured.
    pub batches: u64,
    /// Mean batch latency (exact: the histogram keeps an exact sum).
    pub mean_us: f64,
    /// Median (50th percentile) batch latency.
    pub p50_us: u64,
    /// 95th percentile batch latency.
    pub p95_us: u64,
    /// 99th percentile batch latency.
    pub p99_us: u64,
    /// 99.9th percentile batch latency.
    pub p999_us: u64,
    /// Worst observed batch latency.
    pub max_us: u64,
}

impl LatencySummary {
    /// Summarizes a histogram snapshot: an empty one yields the all-zero
    /// default, a single sample is every percentile.
    pub fn from_histogram(snapshot: &HistogramSnapshot) -> Self {
        LatencySummary {
            batches: snapshot.count(),
            mean_us: snapshot.mean(),
            p50_us: snapshot.p50(),
            p95_us: snapshot.p95(),
            p99_us: snapshot.p99(),
            p999_us: snapshot.p999(),
            max_us: snapshot.max(),
        }
    }
}

/// What one client thread observed during a harness run.
#[derive(Debug, Clone)]
pub struct ClientLoad {
    /// Name of the trace the thread drove.
    pub trace: String,
    /// The client ids appearing in that trace (usually one).
    pub clients: Vec<ClientId>,
    /// Hit/miss statistics as seen from the client side of the protocol.
    pub stats: CacheStats,
    /// Number of batches the thread submitted.
    pub batches: u64,
}

impl ClientLoad {
    /// The client-observed read hit ratio.
    pub fn read_hit_ratio(&self) -> f64 {
        self.stats.read_hit_ratio()
    }
}

/// The result of one harness run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Server-side statistics in the same shape as a simulation result:
    /// aggregate plus per-client breakdowns.
    pub result: SimulationResult,
    /// What each client thread observed, in input-trace order.
    pub clients: Vec<ClientLoad>,
    /// Wall-clock duration of the load phase.
    pub elapsed: Duration,
    /// Batch latency percentiles across all client threads.
    pub latency: LatencySummary,
    /// Number of cross-shard priority merges the server performed.
    pub merges: u64,
    /// Byte-level I/O counters of the data plane, when the server ran over a
    /// disk-backed store (captured just before shutdown, so the shutdown
    /// checkpoint's flush burst is excluded).
    pub io: Option<IoStats>,
}

impl LoadReport {
    /// Total requests served.
    pub fn requests(&self) -> u64 {
        self.result.stats.requests()
    }

    /// Overall throughput in requests per second.
    pub fn throughput_rps(&self) -> f64 {
        let seconds = self.elapsed.as_secs_f64();
        if seconds <= 0.0 {
            0.0
        } else {
            self.requests() as f64 / seconds
        }
    }

    /// Server-side aggregate read hit ratio.
    pub fn read_hit_ratio(&self) -> f64 {
        self.result.read_hit_ratio()
    }
}

/// Rewrites independently built traces onto one shared catalog so their
/// client ids and hint sets are globally distinct (the same re-registration
/// [`trace_gen::interleave()`] performs, but keeping the traces separate so
/// each can be driven by its own client thread).
pub fn merge_client_traces(traces: &[Trace]) -> Vec<Trace> {
    let mut catalog = HintCatalog::new();
    let remapped: Vec<(String, Vec<Request>)> = traces
        .iter()
        .map(|trace| {
            let (client_map, set_map) = catalog.merge(&trace.catalog);
            let requests = trace
                .requests
                .iter()
                .map(|req| Request {
                    client: client_map[req.client.0 as usize],
                    hint: set_map[req.hint.index()],
                    ..*req
                })
                .collect();
            (trace.name.clone(), requests)
        })
        .collect();
    remapped
        .into_iter()
        .map(|(name, requests)| Trace {
            name,
            requests,
            catalog: catalog.clone(),
        })
        .collect()
}

/// Builds one client trace per preset over disjoint page ranges (offset by
/// 100 M pages each, like the Figure 11 setup), truncates every trace to the
/// shortest so no client is over-represented (the same rule
/// [`trace_gen::interleave()`] applies, so an offline reference over the
/// interleave of these traces serves exactly the same requests), and merges
/// them onto a shared catalog, ready to be driven concurrently by
/// [`run_load`].
pub fn preset_client_traces(presets: &[TracePreset], scale: PresetScale) -> Vec<Trace> {
    let mut traces: Vec<Trace> = presets
        .iter()
        .enumerate()
        .map(|(i, preset)| preset.build_with_offset(scale, i as u64 * 100_000_000, 42 + i as u64))
        .collect();
    let shortest = traces.iter().map(Trace::len).min().unwrap_or(0);
    for trace in &mut traces {
        trace.requests.truncate(shortest);
    }
    merge_client_traces(&traces)
}

/// Runs the closed-loop load: starts a server, spawns one client thread per
/// input trace, drives every trace to completion, shuts the server down, and
/// reports throughput, latency percentiles, and per-client hit ratios.
///
/// The input traces should share one catalog with distinct client ids — use
/// [`merge_client_traces`] or [`preset_client_traces`] to prepare them.
///
/// # Panics
///
/// Panics if `traces` is empty, a client thread panics, or the server's
/// data plane fails (the harness runs against a healthy store — a fault
/// schedule belongs in the chaos gate, which tolerates errors).
// invariant: the two `expect`s below restate the documented panics —
// without fault injection every data request gets a data response, and a
// client-thread panic is a harness bug worth propagating.
#[cfg_attr(not(test), allow(clippy::expect_used))]
pub fn run_load(config: &LoadConfig, traces: &[Trace]) -> LoadReport {
    assert!(!traces.is_empty(), "at least one client trace is required");
    let server = Server::start(config.server.clone());
    let batch_size = config.batch.max(1);
    // On a store-backed server the clients move real bytes: every Put
    // carries the page's deterministic payload, so reads can be verified
    // end-to-end (the data plane checks residency; content checks live in
    // the integration tests).
    let with_payloads = server.cache().has_store();
    let page_size = server
        .cache()
        .shard_store(0)
        .map(|s| s.page_size())
        .unwrap_or_default();
    let started = Instant::now();
    let per_thread: Vec<(ClientLoad, HistogramSnapshot)> = std::thread::scope(|scope| {
        let handles: Vec<_> = traces
            .iter()
            .map(|trace| {
                let server = &server;
                scope.spawn(move || {
                    let mut stats = CacheStats::new();
                    let mut clients: Vec<ClientId> = Vec::new();
                    // Bounded-memory latency recording: one fixed-size
                    // histogram per client thread instead of one sample
                    // per submitted batch.
                    let latencies = LatencyHistogram::new();
                    let mut batches = 0u64;
                    for chunk in trace.requests.chunks(batch_size) {
                        let batch: Vec<ServerRequest> = chunk
                            .iter()
                            .map(|req| {
                                let op = ServerRequest::from_request(req);
                                if with_payloads && req.is_write() {
                                    op.with_payload(page_payload(req.page, page_size))
                                } else {
                                    op
                                }
                            })
                            .collect();
                        let submitted = Instant::now();
                        let responses = server.submit(&batch);
                        latencies.record(submitted.elapsed().as_micros() as u64);
                        batches += 1;
                        for (req, response) in chunk.iter().zip(&responses) {
                            let hit = response.hit().expect("data request gets a data response");
                            if req.is_read() {
                                stats.record_read(hit);
                            } else {
                                stats.record_write(hit);
                            }
                            if !clients.contains(&req.client) {
                                clients.push(req.client);
                            }
                        }
                    }
                    (
                        ClientLoad {
                            trace: trace.name.clone(),
                            clients,
                            stats,
                            batches,
                        },
                        latencies.snapshot(),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    let merges = server.cache().merges_completed();
    let io = server.io_stats();
    let mut clients = Vec::with_capacity(per_thread.len());
    let mut all_latencies = HistogramSnapshot::default();
    for (client, latencies) in per_thread {
        clients.push(client);
        all_latencies.merge(&latencies);
    }
    // Publish the client-observed view into the server's registry (when a
    // recorder is enabled) so a Stats snapshot carries it alongside the
    // server-side service times.
    if let Some(histogram) = server.cache().recorder().histogram(CLIENT_BATCH_HISTOGRAM) {
        histogram.merge_snapshot(&all_latencies);
    }
    let result = server.shutdown();
    LoadReport {
        result,
        clients,
        elapsed,
        latency: LatencySummary::from_histogram(&all_latencies),
        merges,
        io,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{AccessKind, TraceBuilder};
    use clic_core::ClicConfig;

    fn client_trace(name: &str, page_base: u64, requests: u64) -> Trace {
        let mut b = TraceBuilder::new().with_name(name);
        let c = b.add_client(name, &[("kind", 2)]);
        let hot = b.intern_hints(c, &[0]);
        let cold = b.intern_hints(c, &[1]);
        for i in 0..requests {
            b.push(c, page_base + (i % 50), AccessKind::Write, None, hot);
            b.push(c, page_base + (i % 50), AccessKind::Read, None, hot);
            b.push(c, page_base + 1_000_000 + i, AccessKind::Read, None, cold);
        }
        b.build()
    }

    #[test]
    fn merged_traces_have_distinct_clients_and_hints() {
        let a = client_trace("a", 0, 10);
        let b = client_trace("b", 10_000_000, 10);
        let merged = merge_client_traces(&[&a, &b].map(Clone::clone));
        assert_eq!(merged.len(), 2);
        assert_ne!(merged[0].requests[0].client, merged[1].requests[0].client);
        assert_ne!(merged[0].requests[0].hint, merged[1].requests[0].hint);
        assert_eq!(merged[0].catalog.client_count(), 2);
        // Structure is otherwise untouched.
        assert_eq!(merged[0].len(), a.len());
        assert_eq!(merged[0].requests[3].page, a.requests[3].page);
    }

    #[test]
    fn run_load_accounts_every_request_and_every_client() {
        let traces = merge_client_traces(&[
            client_trace("a", 0, 800),
            client_trace("b", 10_000_000, 800),
        ]);
        let config = LoadConfig::new(
            ServerConfig::new(128)
                .with_shards(2)
                .with_clic(ClicConfig::default().with_window(1_000))
                .with_merge_every(1_000),
        )
        .with_batch(32);
        let report = run_load(&config, &traces);
        let total: u64 = traces.iter().map(|t| t.len() as u64).sum();
        assert_eq!(report.requests(), total);
        assert!(report.throughput_rps() > 0.0);
        assert_eq!(report.clients.len(), 2);
        assert_eq!(report.latency.batches, 2 * 800 * 3 / 32);
        assert!(report.latency.p50_us <= report.latency.p95_us);
        assert!(report.latency.p95_us <= report.latency.p99_us);
        assert!(report.latency.p99_us <= report.latency.p999_us);
        assert!(report.latency.p999_us <= report.latency.max_us);
        // Client-observed statistics agree with the server-side per-client
        // breakdown: both classify the same responses.
        for client_load in &report.clients {
            assert_eq!(client_load.clients.len(), 1);
            let server_side = report
                .result
                .per_client
                .get(&client_load.clients[0])
                .expect("server tracked this client");
            assert_eq!(server_side.read_hits, client_load.stats.read_hits);
            assert_eq!(server_side.writes(), client_load.stats.writes());
        }
        assert!(report.io.is_none(), "no store, no I/O counters");
    }

    #[test]
    fn run_load_over_a_store_sends_payloads_and_reports_io() {
        let dir = std::env::temp_dir().join(format!("clic-harness-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let traces = merge_client_traces(&[
            client_trace("a", 0, 200),
            client_trace("b", 10_000_000, 200),
        ]);
        let config = LoadConfig::new(
            ServerConfig::new(128)
                .with_shards(2)
                .with_clic(ClicConfig::default().with_window(500))
                .with_store(crate::StoreConfig::new(&dir, 128).with_page_size(64)),
        )
        .with_batch(32);
        let report = run_load(&config, &traces);
        let total: u64 = traces.iter().map(|t| t.len() as u64).sum();
        assert_eq!(report.requests(), total);
        let answered: u64 = report.clients.iter().map(|c| c.stats.requests()).sum();
        assert_eq!(answered, total, "every request gets a data response");
        let io = report.io.expect("a store-backed run reports I/O");
        assert!(io.bytes_written > 0, "Puts moved bytes: {io:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn summarize(samples: impl IntoIterator<Item = u64>) -> LatencySummary {
        let histogram = LatencyHistogram::new();
        for sample in samples {
            histogram.record(sample);
        }
        LatencySummary::from_histogram(&histogram.snapshot())
    }

    #[test]
    fn latency_summary_handles_empty_and_singleton_inputs() {
        let empty = summarize([]);
        assert_eq!(empty.batches, 0);
        assert_eq!(empty.max_us, 0);
        assert_eq!(empty.p999_us, 0);
        let one = summarize([7]);
        assert_eq!(one.batches, 1);
        assert_eq!(one.p50_us, 7);
        assert_eq!(one.p99_us, 7);
        assert_eq!(one.p999_us, 7);
        assert_eq!(one.max_us, 7);
        let spread = summarize(1..=100);
        assert_eq!(spread.p50_us, 50);
        assert_eq!(spread.p95_us, 95);
        assert_eq!(spread.p99_us, 99);
        assert_eq!(spread.p999_us, 100);
        assert_eq!(spread.max_us, 100);
        assert!((spread.mean_us - 50.5).abs() < 1e-9);
    }

    #[test]
    fn latency_summary_resolves_exact_rank_landings() {
        // 10 samples: q·N lands exactly on an index for p50 (rank 5). The
        // integer nearest-rank rule must pick the 5th smallest, not drift
        // to rank 6 the way a floating-point ceil of 5.000…1 would.
        let summary = summarize(1..=10);
        assert_eq!(summary.batches, 10);
        assert_eq!(summary.p50_us, 5);
        assert_eq!(summary.p95_us, 10);
        assert_eq!(summary.max_us, 10);
        // Percentiles stay monotone even when every sample is identical.
        let flat = summarize(vec![42; 1000]);
        assert_eq!(flat.p50_us, 42);
        assert_eq!(flat.p999_us, 42);
        assert_eq!(flat.max_us, 42);
        assert!((flat.mean_us - 42.0).abs() < 1e-9);
    }
}
