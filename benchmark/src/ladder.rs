//! The traced run (`--trace 1`): a layer ladder.
//!
//! The head of the workload's stream goes, single-threaded, through each
//! rung alone — calibration loop, `Clic::access_batch`, `simulate`,
//! `ShardedClic::access_shard_batch`, `Server::submit`, store-backed
//! `Server::submit` at each durability, `PageStore` directly, the wire
//! codec with no socket, then the pipelined client over UDS and TCP with an
//! enabled `Recorder`. Every rung is one span with one child span per
//! [`BATCH`]-request chunk, recorded here, around the calls into the layer;
//! a rung's time per request is the sum of its chunk spans over its
//! requests, and `<layer>.added_ns_per_req` is that minus the rung below.

use std::hint::black_box;
use std::io;
use std::time::{Duration, Instant};

use cache_sim::policies::Lru;
use cache_sim::policy::AccessOutcome;
use cache_sim::{simulate, CachePolicy, ClientId, HintSetId, PageId, Request, Trace};
use clic_core::{Clic, ClicConfig};
use clic_obs::Recorder;
use clic_server::{
    wire, BlockingClient, Durability, PageStore, Server, ServerRequest, ServerResponse,
    ShardedClic, ShardedClicConfig, StoreConfig, BATCH_SERVICE_HISTOGRAM, QUEUE_DEPTH_GAUGE,
};
use clic_store::page_payload;
use stream_stats::SpaceSaving;

use crate::client::open_loop;
use crate::common::{
    median, micros, out_dir, Inputs, Report, Scratch, SpanLog, Timing, Workload, BATCH,
    CACHE_PAGES, PAGE_SIZE, SHARDS, TOP_K,
};
use crate::netrun::{start_store_server, NetRun, System, Transport};

/// Per-layer metrics and units, as `BENCHMARK.json` declares them.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("core.access_ns_per_req", "ns"),
    ("core.hit_ns_per_req", "ns"),
    ("core.admit_ns_per_req", "ns"),
    ("core.bypass_ns_per_req", "ns"),
    ("core.admits_per_kreq", "1/kreq"),
    ("core.bypasses_per_kreq", "1/kreq"),
    ("core.evictions_per_kreq", "1/kreq"),
    ("stream-stats.topk_offer_ns", "ns"),
    ("cache-sim.driver_added_ns_per_req", "ns"),
    ("cache-sim.lru_ns_per_req", "ns"),
    ("sharded.access_ns_per_req", "ns"),
    ("sharded.added_ns_per_req", "ns"),
    ("sharded.merges", "count"),
    ("sharded.merge_us", "us"),
    ("sharded.hit_ratio_vs_single", "ratio"),
    ("server.submit_ns_per_req", "ns"),
    ("server.added_ns_per_req", "ns"),
    ("server.batch_service_p50_us", "us"),
    ("server.batch_service_p99_us", "us"),
    ("server.queue_depth_peak", "count"),
    ("server.client_batch_p99_us", "us"),
    ("store.read_hit_ns", "ns"),
    ("store.read_miss_ns", "ns"),
    ("store.stage_ns.buffered", "ns"),
    ("store.stage_ns.group_commit", "ns"),
    ("store.stage_ns.strict", "ns"),
    ("store.added_ns_per_req.buffered", "ns"),
    ("store.added_ns_per_req.group_commit", "ns"),
    ("store.added_ns_per_req.strict", "ns"),
    ("store.buffer_hit_ratio", "ratio"),
    ("store.disk_writes_per_kreq", "1/kreq"),
    ("store.pages_flushed_per_kreq", "1/kreq"),
    ("store.eviction_flush_ratio", "ratio"),
    ("store.wal_bytes_per_user_byte", "ratio"),
    ("store.wal_syncs_per_kwrite", "1/kwrite"),
    ("store.group_commit_ratio", "ratio"),
    ("store.checkpoint_s", "s"),
    ("store.recovered_writes", "count"),
    ("wire.encode_req_ns", "ns"),
    ("wire.decode_req_ns", "ns"),
    ("wire.encode_resp_ns", "ns"),
    ("wire.decode_resp_ns", "ns"),
    ("wire.req_bytes_per_req", "B"),
    ("wire.resp_bytes_per_req", "B"),
    ("net.rtt_idle_tcp_p50_us", "us"),
    ("net.rtt_idle_uds_p50_us", "us"),
    ("net.added_us_per_req", "us"),
    ("net.stats_rtt_us", "us"),
    ("net.openloop_p50_us", "us"),
    ("net.openloop_p99_us", "us"),
    ("net.openloop_achieved_ratio", "ratio"),
    ("client.read_p50_us", "us"),
    ("client.write_p50_us", "us"),
    ("client.read_p99_us", "us"),
    ("client.write_p99_us", "us"),
    ("client.openloop_lag_p99_us", "us"),
    ("client.calib_ns_per_op", "ns"),
    ("trace-gen.build_s", "s"),
    ("obs.trace_overhead_pct", "%"),
];

/// Requests per `--seconds` through the in-process policy and server rungs,
/// the wire codec, the store-backed rungs (strict apart: it syncs on every
/// write), and each network rung.
const FAST_PER_S: usize = 25_600;
const STORE_PER_S: usize = 5_000;
const STRICT_PER_S: usize = 500;
const NET_PER_S: usize = 4_000;
/// Untimed requests that open each network rung.
const NET_WARMUP: usize = 4_000;
/// Repetitions of the rungs whose fresh state makes a repetition cheap.
const REPS: usize = 5;
/// The open-loop probe: Poisson arrivals at this rate for half of
/// `--seconds`, cut off at three times that.
const OPEN_LOOP_RATE: f64 = 10_000.0;
/// Depth-1 round trips per idle-latency probe, and `Stats` round trips.
const RTT_PROBES: usize = 200;
const STATS_PROBES: usize = 20;
const RUN_DEADLINE: Duration = Duration::from_secs(150);

/// One durability level with the names of its rungs and metrics.
#[derive(Clone, Copy)]
struct Level {
    durability: Durability,
    label: &'static str,
    submit_rung: &'static str,
    added_ns: &'static str,
    stage_rung: &'static str,
    stage_ns: &'static str,
}

const LEVELS: [Level; 3] = [
    Level {
        durability: Durability::Buffered,
        label: "buffered",
        submit_rung: "store.submit.buffered",
        added_ns: "store.added_ns_per_req.buffered",
        stage_rung: "store.stage.buffered",
        stage_ns: "store.stage_ns.buffered",
    },
    Level {
        // `Durability::group_commit()`, which is not const.
        durability: Durability::GroupCommit {
            max_batch: 8,
            max_wait: Duration::from_millis(2),
        },
        label: "group_commit",
        submit_rung: "store.submit.group_commit",
        added_ns: "store.added_ns_per_req.group_commit",
        stage_rung: "store.stage.group_commit",
        stage_ns: "store.stage_ns.group_commit",
    },
    Level {
        durability: Durability::Strict,
        label: "strict",
        submit_rung: "store.submit.strict",
        added_ns: "store.added_ns_per_req.strict",
        stage_rung: "store.stage.strict",
        stage_ns: "store.stage_ns.strict",
    },
];

pub fn run(workload: Workload, seed: u64, seconds: u64) -> io::Result<Report> {
    let deadline = Instant::now() + RUN_DEADLINE;
    let seconds = seconds as usize;
    let inputs = Inputs::generate(workload, seed);
    let mut ladder = Ladder {
        inputs: &inputs,
        spans: SpanLog::new(workload),
        report: Report::default(),
        scratch: Scratch::new(workload)?,
        last_rung: 0,
    };
    ladder.report.set("trace-gen.build_s", inputs.build_s, "s");
    ladder
        .report
        .set("client.calib_ns_per_op", calibrate(), "ns");
    let fast = head(inputs.stream(), seconds * FAST_PER_S);
    let policy_ns = ladder.policy_rungs(fast);
    let server_ns = ladder.server_rungs(fast, policy_ns);
    ladder.wire_rungs(fast);
    ladder.page_store_rungs()?;
    let store = head(inputs.stream(), seconds * STORE_PER_S);
    let strict = head(inputs.stream(), seconds * STRICT_PER_S);
    let mut store_ns = [0.0; 3];
    for (i, level) in LEVELS.into_iter().enumerate() {
        let reqs = if level.durability == Durability::Strict {
            strict
        } else {
            store
        };
        store_ns[i] = ladder.store_submit_rung(reqs, level, server_ns)?;
    }
    let own = LEVELS
        .iter()
        .position(|level| level.durability == workload.durability())
        .unwrap_or(0);
    ladder.net_rungs(workload, seconds, seed, store_ns[own], deadline)?;
    let Ladder {
        spans, mut report, ..
    } = ladder;
    std::fs::create_dir_all(out_dir())?;
    spans.write(&out_dir().join(format!("trace-{}.json", workload.name())))?;
    report.check_schema(&PER_LAYER);
    Ok(report)
}

fn head(stream: &[Request], n: usize) -> &[Request] {
    &stream[..n.min(stream.len())]
}

/// The machine-calibration reference: nanoseconds per step of a fixed
/// Fibonacci-hash loop, fastest of [`REPS`].
fn calibrate() -> f64 {
    const STEPS: u64 = 20_000_000;
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let started = Instant::now();
            let mut x = 0u64;
            for i in 0..STEPS {
                x = (x ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                x ^= x >> 29;
            }
            black_box(x);
            started.elapsed().as_nanos() as f64 / STEPS as f64
        })
        .collect();
    fastest(&samples)
}

struct Ladder<'a> {
    inputs: &'a Inputs,
    spans: SpanLog,
    report: Report,
    scratch: Scratch,
    /// Span id of the rung [`Ladder::rung`] ran last.
    last_rung: usize,
}

impl Ladder<'_> {
    /// One rung: `timed` runs on what `prepare` makes of each chunk, inside
    /// a child span; returns the summed child time per item, nanoseconds.
    fn rung<'i, T, P>(
        &mut self,
        name: &'static str,
        items: &'i [T],
        mut prepare: impl FnMut(&'i [T]) -> P,
        mut timed: impl FnMut(P),
    ) -> f64 {
        let id = self.spans.begin(name, None);
        let mut total = Duration::ZERO;
        for chunk in items.chunks(BATCH) {
            let prepared = prepare(chunk);
            let started = Instant::now();
            timed(prepared);
            let ended = Instant::now();
            self.spans.child("chunk", id, started, ended);
            total += ended - started;
        }
        self.spans.end(id);
        self.last_rung = id;
        total.as_nanos() as f64 / items.len().max(1) as f64
    }

    /// [`Ladder::rung`] with nothing to prepare, [`REPS`] times on fresh
    /// state from `fresh`; returns the fastest repetition — noise on these
    /// processor-bound rungs only ever slows one — and the last state.
    fn repeated_rung<S>(
        &mut self,
        name: &'static str,
        reqs: &[Request],
        mut fresh: impl FnMut() -> S,
        mut timed: impl FnMut(&mut S, &[Request]),
    ) -> (f64, S) {
        let mut samples = Vec::with_capacity(REPS);
        let mut state = fresh();
        for rep in 0..REPS {
            if rep > 0 {
                state = fresh();
            }
            samples.push(self.rung(name, reqs, |chunk| chunk, |chunk| timed(&mut state, chunk)));
        }
        (fastest(&samples), state)
    }

    /// `reqs` as a trace over the workload's hint catalog, for `simulate`.
    fn trace_of(&self, reqs: &[Request]) -> Trace {
        Trace {
            name: "ladder".to_string(),
            requests: reqs.to_vec(),
            catalog: self.inputs.clients[0].catalog.clone(),
        }
    }

    /// `clic-core`, `stream-stats` and `cache-sim`; returns the
    /// `Clic::access_batch` time per request.
    fn policy_rungs(&mut self, reqs: &[Request]) -> f64 {
        let config = self.inputs.clic_config();
        let kreq = reqs.len() as f64 / 1_000.0;
        let mut outcomes: Vec<AccessOutcome> = Vec::with_capacity(BATCH);
        let (access_ns, _) = self.repeated_rung(
            "core.access_batch",
            reqs,
            || (Clic::new(CACHE_PAGES, config), 0u64),
            |(clic, seq), chunk| {
                outcomes.clear();
                clic.access_batch(chunk, *seq, &mut outcomes);
                *seq += chunk.len() as u64;
            },
        );
        self.report.set("core.access_ns_per_req", access_ns, "ns");
        // What the policy decided, from one more, untimed, replay.
        outcomes.clear();
        Clic::new(CACHE_PAGES, config).access_batch(reqs, 0, &mut outcomes);
        let count = |pick: fn(&AccessOutcome) -> u64| outcomes.iter().map(pick).sum::<u64>() as f64;
        let admits = count(|o| u64::from(!o.hit && !o.bypassed));
        self.report
            .set("core.admits_per_kreq", admits / kreq, "1/kreq");
        let bypasses = count(|o| u64::from(o.bypassed));
        self.report
            .set("core.bypasses_per_kreq", bypasses / kreq, "1/kreq");
        let evictions = count(|o| u64::from(o.evicted));
        self.report
            .set("core.evictions_per_kreq", evictions / kreq, "1/kreq");
        self.hot_path_rungs(reqs.len());

        let (offer_ns, _) = self.repeated_rung(
            "stream-stats.topk_offer",
            reqs,
            || SpaceSaving::<HintSetId>::new(TOP_K),
            |topk, chunk| chunk.iter().for_each(|req| topk.observe(req.hint)),
        );
        self.report
            .set("stream-stats.topk_offer_ns", offer_ns, "ns");

        // `simulate` takes a whole trace, so these rungs have no chunk spans.
        let trace = self.trace_of(reqs);
        let mut timed_simulate =
            |name: &'static str, policy: &mut dyn FnMut() -> Box<dyn CachePolicy>| {
                let samples: Vec<f64> = (0..REPS)
                    .map(|_| {
                        let mut policy = policy();
                        let id = self.spans.begin(name, None);
                        black_box(simulate(policy.as_mut(), &trace));
                        self.spans.end(id) as f64 / reqs.len() as f64
                    })
                    .collect();
                fastest(&samples)
            };
        let simulate_ns = timed_simulate("cache-sim.simulate", &mut || {
            Box::new(Clic::new(CACHE_PAGES, config))
        });
        let lru_ns = timed_simulate("cache-sim.simulate_lru", &mut || {
            Box::new(Lru::new(CACHE_PAGES))
        });
        self.report.set(
            "cache-sim.driver_added_ns_per_req",
            simulate_ns - access_ns,
            "ns",
        );
        self.report.set("cache-sim.lru_ns_per_req", lru_ns, "ns");
        access_ns
    }

    /// The three closed-form streams of `access_hotpath` — every request a
    /// hit, an evict-and-admit, or a bypass — at this benchmark's cache size,
    /// with the priority window out of reach so no re-evaluation lands in
    /// the measurement.
    fn hot_path_rungs(&mut self, n: usize) {
        let config = ClicConfig::default()
            .with_window(u64::MAX)
            .with_metadata_charging(false);
        let read = |page: u64, hint: u32| Request::read(ClientId(0), PageId(page), HintSetId(hint));
        let capacity = CACHE_PAGES as u64;
        let mut outcomes = Vec::with_capacity(BATCH);
        let mut replay = |clic: &mut Clic, seq: &mut u64, chunk: &[Request]| {
            outcomes.clear();
            clic.access_batch(chunk, *seq, &mut outcomes);
            *seq += chunk.len() as u64;
        };

        // Hit: a working set of half the cache, re-read for ever.
        let (mut clic, mut seq) = (Clic::new(CACHE_PAGES, config), 0u64);
        let working: Vec<Request> = (0..capacity / 2).map(|p| read(p, 0)).collect();
        replay(&mut clic, &mut seq, &working);
        let stream: Vec<Request> = working.iter().cycle().take(n).copied().collect();
        let hit_ns = self.rung(
            "core.hit_stream",
            &stream,
            |chunk| chunk,
            |chunk| replay(&mut clic, &mut seq, chunk),
        );
        self.report.set("core.hit_ns_per_req", hit_ns, "ns");

        // Bypass: a full cache and fresh pages of a zero-priority hint.
        let (mut clic, mut seq) = (Clic::new(CACHE_PAGES, config), 0u64);
        let fill: Vec<Request> = (0..capacity).map(|p| read(p, 0)).collect();
        replay(&mut clic, &mut seq, &fill);
        let stream: Vec<Request> = (0..n as u64).map(|p| read(capacity + p, 0)).collect();
        let bypass_ns = self.rung(
            "core.bypass_stream",
            &stream,
            |chunk| chunk,
            |chunk| replay(&mut clic, &mut seq, chunk),
        );
        self.report.set("core.bypass_ns_per_req", bypass_ns, "ns");

        // Admit: fresh pages of the hint that outranks everything resident;
        // after each full turnover the two hints swap priorities, outside
        // the timed chunks, so every request evicts and admits.
        let (mut clic, mut seq) = (Clic::new(CACHE_PAGES, config), 0u64);
        clic.import_priorities([(HintSetId(0), 1.0), (HintSetId(1), 0.5)]);
        let fill: Vec<Request> = (0..capacity).map(|p| read(p, 1)).collect();
        replay(&mut clic, &mut seq, &fill);
        let stream: Vec<Request> = (0..n as u64)
            .map(|i| read(capacity + i, ((i / capacity) % 2) as u32))
            .collect();
        let id = self.spans.begin("core.admit_stream", None);
        let mut total = Duration::ZERO;
        for (burst, requests) in stream.chunks(CACHE_PAGES).enumerate() {
            for chunk in requests.chunks(BATCH) {
                let started = Instant::now();
                replay(&mut clic, &mut seq, chunk);
                let ended = Instant::now();
                self.spans.child("chunk", id, started, ended);
                total += ended - started;
            }
            let (hi, lo) = ((burst as u32 + 1) % 2, burst as u32 % 2);
            clic.import_priorities([(HintSetId(hi), 1.0), (HintSetId(lo), 0.5)]);
        }
        self.spans.end(id);
        self.report.set(
            "core.admit_ns_per_req",
            total.as_nanos() as f64 / n as f64,
            "ns",
        );
    }

    /// `sharded` and `server` without a store; returns the `Server::submit`
    /// time per request.
    fn server_rungs(&mut self, reqs: &[Request], policy_ns: f64) -> f64 {
        let config = ShardedClicConfig::new(CACHE_PAGES)
            .with_shards(SHARDS)
            .with_clic(self.inputs.clic_config())
            .with_merge_every(self.inputs.window);
        let mut outcomes = Vec::with_capacity(BATCH);
        let mut parts: [Vec<Request>; SHARDS] = Default::default();
        let (sharded_ns, sharded) = self.repeated_rung(
            "sharded.access_shard_batch",
            reqs,
            || ShardedClic::new(config.clone()),
            |sharded, chunk| {
                // Partitioning is the caller's job (`Server::submit` does it
                // before the shard workers run), but it is part of what
                // sharding costs, so it stays inside the chunk span.
                parts.iter_mut().for_each(Vec::clear);
                for req in chunk {
                    parts[sharded.shard_of(req.page)].push(*req);
                }
                for (shard, part) in parts.iter().enumerate() {
                    outcomes.clear();
                    sharded.access_shard_batch(shard, part, &mut outcomes);
                }
            },
        );
        self.report
            .set("sharded.access_ns_per_req", sharded_ns, "ns");
        self.report
            .set("sharded.added_ns_per_req", sharded_ns - policy_ns, "ns");
        self.report
            .set("sharded.merges", sharded.merges_completed() as f64, "count");
        // A merge with no traffic since the last one returns early, so each
        // probe first serves one more chunk.
        let mut merge_us: Vec<f64> = reqs
            .chunks(BATCH)
            .take(STATS_PROBES)
            .map(|chunk| {
                for req in chunk {
                    sharded.access(req);
                }
                let started = Instant::now();
                sharded.merge_priorities();
                started.elapsed().as_nanos() as f64 / 1_000.0
            })
            .collect();
        self.report
            .set("sharded.merge_us", median(&mut merge_us), "us");
        let mut single = Clic::new(CACHE_PAGES, self.inputs.clic_config());
        let single_ratio = simulate(&mut single, &self.trace_of(reqs)).read_hit_ratio();
        self.report.set(
            "sharded.hit_ratio_vs_single",
            sharded.snapshot().read_hit_ratio() / single_ratio,
            "ratio",
        );

        let recorder = Recorder::enabled();
        let server = Server::start(self.inputs.server_config(None, &recorder));
        let mut failed = 0u64;
        let server_ns = self.rung(
            "server.submit",
            reqs,
            |chunk| {
                chunk
                    .iter()
                    .map(ServerRequest::from_request)
                    .collect::<Vec<_>>()
            },
            |batch| failed += count_errors(&server.submit(&batch)),
        );
        self.report.failed += failed;
        self.report.attempted += reqs.len() as u64;
        self.report.set("server.submit_ns_per_req", server_ns, "ns");
        self.report
            .set("server.added_ns_per_req", server_ns - sharded_ns, "ns");
        let mut batch_us: Vec<f64> = self
            .spans
            .child_durations(self.last_rung)
            .iter()
            .map(|ns| ns / 1_000.0)
            .collect();
        self.report
            .set_timing("server.client_batch_p99_us", "us", &mut batch_us, |t| {
                t.tail
            });
        let served = server.shutdown().stats.requests();
        self.report.check(served == reqs.len() as u64, || {
            format!("server rung: sent {}, server counted {served}", reqs.len())
        });
        server_ns
    }

    /// Store-backed `Server::submit` at one durability; returns its time per
    /// request. The group-commit rung also yields the store's counters and
    /// checkpoint time, the strict rung the crash-replay count.
    fn store_submit_rung(
        &mut self,
        reqs: &[Request],
        level: Level,
        server_ns: f64,
    ) -> io::Result<f64> {
        let durability = level.durability;
        let dir = self.scratch.fresh(level.label);
        let recorder = Recorder::enabled();
        let (server, config) = start_store_server(self.inputs, &dir, durability, &recorder)?;
        let before = server.io_stats().unwrap_or_default();
        let mut failed = 0u64;
        let ns = self.rung(level.submit_rung, reqs, with_payloads, |batch| {
            failed += count_errors(&server.submit(&batch))
        });
        self.report.failed += failed;
        self.report.attempted += reqs.len() as u64;
        self.report.set(level.added_ns, ns - server_ns, "ns");
        let io = server.io_stats().unwrap_or_default();
        match durability {
            Durability::GroupCommit { .. } => {
                let d = |pick: fn(&cache_sim::IoStats) -> u64| (pick(&io) - pick(&before)) as f64;
                let kreq = reqs.len() as f64 / 1_000.0;
                let reads = d(|io| io.buffer_hits) + d(|io| io.buffer_misses);
                let r = &mut self.report;
                r.set(
                    "store.buffer_hit_ratio",
                    d(|io| io.buffer_hits) / reads.max(1.0),
                    "ratio",
                );
                r.set(
                    "store.disk_writes_per_kreq",
                    d(|io| io.disk_writes) / kreq,
                    "1/kreq",
                );
                r.set(
                    "store.pages_flushed_per_kreq",
                    d(|io| io.pages_flushed) / kreq,
                    "1/kreq",
                );
                r.set(
                    "store.eviction_flush_ratio",
                    d(|io| io.eviction_flushes) / d(|io| io.pages_flushed).max(1.0),
                    "ratio",
                );
                r.set(
                    "store.wal_bytes_per_user_byte",
                    d(|io| io.wal_bytes) / d(|io| io.bytes_written).max(1.0),
                    "ratio",
                );
                let kwrite = reqs.iter().filter(|req| req.is_write()).count() as f64 / 1_000.0;
                r.set(
                    "store.wal_syncs_per_kwrite",
                    d(|io| io.wal_syncs) / kwrite.max(0.001),
                    "1/kwrite",
                );
                r.set(
                    "store.group_commit_ratio",
                    d(|io| io.group_commits) / d(|io| io.wal_syncs).max(1.0),
                    "ratio",
                );
                let started = Instant::now();
                server
                    .try_shutdown()
                    .map_err(|err| io::Error::other(format!("checkpoint failed: {err}")))?;
                r.set("store.checkpoint_s", started.elapsed().as_secs_f64(), "s");
            }
            Durability::Strict => {
                // A process crash: every acknowledged write is in the WAL.
                drop(server);
                let reopened = Server::try_start(config)?;
                let replayed: u64 = reopened
                    .cache()
                    .stores()
                    .iter()
                    .map(|store| store.recovered_writes())
                    .sum();
                self.report.check(replayed == io.wal_records, || {
                    format!(
                        "strict rung: {} WAL records, {replayed} replayed",
                        io.wal_records
                    )
                });
                self.report
                    .set("store.recovered_writes", replayed as f64, "count");
            }
            Durability::Buffered => drop(server),
        }
        Ok(ns)
    }

    /// `PageStore::stage` at each durability, then buffer-hit and disk reads.
    fn page_store_rungs(&mut self) -> io::Result<()> {
        let pages: Vec<PageId> = self.inputs.first_touch.iter().map(|req| req.page).collect();
        let resident = &pages[..CACHE_PAGES.min(pages.len() / 2)];
        let on_disk = &pages[resident.len()..(2 * resident.len())];
        let payload = |chunk: &[PageId]| -> Vec<(PageId, Vec<u8>)> {
            chunk
                .iter()
                .map(|&p| (p, page_payload(p, PAGE_SIZE)))
                .collect()
        };
        let mut failed = 0u64;
        for level in LEVELS {
            let durability = level.durability;
            // Strict syncs on every stage; a quarter of the pages is plenty.
            let n = match durability {
                Durability::Strict => resident.len() / 4,
                _ => resident.len(),
            };
            let config = StoreConfig::new(self.scratch.fresh(level.label), CACHE_PAGES)
                .with_page_size(PAGE_SIZE)
                .with_durability(durability);
            let store = PageStore::open(config)?;
            let stage_ns = self.rung(level.stage_rung, &resident[..n], payload, |batch| {
                for (page, data) in &batch {
                    failed += u64::from(store.stage(*page, data).is_err());
                }
            });
            self.report.set(level.stage_ns, stage_ns, "ns");
            if durability != Durability::Buffered {
                continue;
            }
            let mut buf = Vec::with_capacity(PAGE_SIZE);
            let hit_ns = self.rung(
                "store.read_hit",
                resident,
                |chunk| chunk,
                |chunk| {
                    for &page in chunk {
                        failed += u64::from(store.read(page, &mut buf).is_err());
                    }
                },
            );
            self.report.set("store.read_hit_ns", hit_ns, "ns");
            for (page, data) in payload(on_disk) {
                store.write_through(page, &data)?;
            }
            let miss_ns = self.rung(
                "store.read_miss",
                on_disk,
                |chunk| chunk,
                |chunk| {
                    for &page in chunk {
                        let read = store.read(page, &mut buf);
                        failed += u64::from(read.is_err() || buf[..8] != page.0.to_le_bytes());
                    }
                },
            );
            self.report.set("store.read_miss_ns", miss_ns, "ns");
        }
        self.report.check(failed == 0, || {
            format!("{failed} PageStore operations failed")
        });
        Ok(())
    }

    /// Encode and decode of the stream's request and reply frames, no socket.
    fn wire_rungs(&mut self, reqs: &[Request]) {
        let n = reqs.len() as f64;
        let mut out = Vec::new();
        let mut bytes = 0usize;
        let encode_req = self.rung("wire.encode_request", reqs, with_payloads, |requests| {
            out.clear();
            for (seq, request) in requests.iter().enumerate() {
                wire::encode_request(seq as u64, request, &mut out);
            }
            bytes += out.len();
        });
        self.report.set("wire.encode_req_ns", encode_req, "ns");
        self.report
            .set("wire.req_bytes_per_req", bytes as f64 / n, "B");
        let mut undecodable = 0u64;
        let decode_req = self.rung(
            "wire.decode_request",
            reqs,
            |chunk| {
                let mut frames = Vec::new();
                for (seq, request) in with_payloads(chunk).iter().enumerate() {
                    wire::encode_request(seq as u64, request, &mut frames);
                }
                frames
            },
            |frames| {
                let mut at = 0;
                while let Ok(Some((consumed, payload))) = wire::take_frame(&frames[at..]) {
                    undecodable += u64::from(black_box(wire::decode_request(payload)).is_err());
                    at += consumed;
                }
            },
        );
        self.report.set("wire.decode_req_ns", decode_req, "ns");
        let replies = |chunk: &[Request]| -> Vec<ServerResponse> {
            chunk
                .iter()
                .map(|req| match req.is_read() {
                    true => ServerResponse::Get {
                        hit: true,
                        data: Some(page_payload(req.page, PAGE_SIZE)),
                    },
                    false => ServerResponse::Put { hit: true },
                })
                .collect()
        };
        let mut bytes = 0usize;
        let encode_resp = self.rung("wire.encode_response", reqs, replies, |replies| {
            out.clear();
            for (seq, reply) in replies.iter().enumerate() {
                wire::encode_response(seq as u64, reply, &mut out);
            }
            bytes += out.len();
        });
        self.report.set("wire.encode_resp_ns", encode_resp, "ns");
        self.report
            .set("wire.resp_bytes_per_req", bytes as f64 / n, "B");
        let decode_resp = self.rung(
            "wire.decode_response",
            reqs,
            |chunk| {
                let mut frames = Vec::new();
                for (seq, reply) in replies(chunk).iter().enumerate() {
                    wire::encode_response(seq as u64, reply, &mut frames);
                }
                frames
            },
            |frames| {
                let mut at = 0;
                while let Ok(Some((consumed, payload))) = wire::take_frame(&frames[at..]) {
                    undecodable += u64::from(black_box(wire::decode_response(payload)).is_err());
                    at += consumed;
                }
            },
        );
        self.report.set("wire.decode_resp_ns", decode_resp, "ns");
        self.report.check(undecodable == 0, || {
            format!("{undecodable} frames did not decode")
        });
    }

    /// The pipelined client over UDS, then TCP, with an enabled `Recorder`;
    /// TCP again without, for the tracing overhead; then the idle and
    /// open-loop probes against the traced TCP system.
    fn net_rungs(
        &mut self,
        workload: Workload,
        seconds: usize,
        seed: u64,
        store_submit_ns: f64,
        deadline: Instant,
    ) -> io::Result<()> {
        let inputs = self.inputs;
        let stream = inputs.stream();
        let count = seconds * NET_PER_S;
        let closed_loop = |ladder: &mut Ladder,
                           name: &'static str,
                           transport: Transport,
                           recorder: Recorder|
         -> io::Result<(System, NetRun)> {
            let dir = ladder.scratch.fresh(name);
            let system = System::start(
                ladder.inputs,
                dir,
                workload.durability(),
                &recorder,
                transport,
            )?;
            let id = ladder.spans.begin(name, None);
            let run = system.run(stream, NET_WARMUP, count, deadline)?;
            ladder.spans.end(id);
            ladder.report.attempted += count as u64;
            ladder.report.failed += run.timed.failed + run.warm_failed;
            if let Err(why) = run.reconcile(count) {
                ladder.report.check(false, || format!("{name}: {why}"));
            }
            Ok((system, run))
        };
        // The same estimator as the end-to-end `throughput_rps`.
        let rps = |run: &NetRun| Timing::of(&mut run.timed.round_rps()).p90;

        let (uds, _) = closed_loop(self, "net.uds", Transport::Uds, Recorder::enabled())?;
        let uds_path = uds.net.uds_path().cloned();
        #[cfg(unix)]
        if let Some(path) = uds_path {
            let mut client = BlockingClient::connect_uds(&path)?;
            let rtt = idle_rtt_us(&mut client, self.inputs)?;
            self.report.set("net.rtt_idle_uds_p50_us", rtt, "us");
        }
        drop(uds);

        let (_, untraced) = closed_loop(
            self,
            "net.tcp.untraced",
            Transport::Tcp,
            Recorder::disabled(),
        )?;
        let (tcp, traced) = closed_loop(self, "net.tcp", Transport::Tcp, Recorder::enabled())?;
        self.report.set(
            "obs.trace_overhead_pct",
            (rps(&untraced) - rps(&traced)) / rps(&untraced) * 100.0,
            "%",
        );
        self.report.set(
            "net.added_us_per_req",
            (1e9 / rps(&traced) - store_submit_ns) / 1_000.0,
            "us",
        );
        let r = &mut self.report;
        r.set_timing(
            "client.read_p50_us",
            "us",
            &mut micros(&traced.timed.read_ns),
            |t| t.median,
        );
        r.set_timing(
            "client.write_p50_us",
            "us",
            &mut micros(&traced.timed.write_ns),
            |t| t.median,
        );
        r.set_timing(
            "client.read_p99_us",
            "us",
            &mut micros(&traced.timed.read_ns),
            |t| t.tail,
        );
        r.set_timing(
            "client.write_p99_us",
            "us",
            &mut micros(&traced.timed.write_ns),
            |t| t.tail,
        );
        let service = traced.after.metrics.histogram(BATCH_SERVICE_HISTOGRAM);
        r.set("server.batch_service_p50_us", service.p50() as f64, "us");
        r.set("server.batch_service_p99_us", service.p99() as f64, "us");
        let depth = traced.after.metrics.gauge(QUEUE_DEPTH_GAUGE).peak;
        r.set("server.queue_depth_peak", depth as f64, "count");

        let addr = tcp
            .net
            .tcp_addr()
            .ok_or_else(|| io::Error::other("the TCP rung has no address"))?;
        let mut client = BlockingClient::connect_tcp(addr)?;
        let rtt = idle_rtt_us(&mut client, self.inputs)?;
        self.report.set("net.rtt_idle_tcp_p50_us", rtt, "us");
        let mut stats_us = Vec::with_capacity(STATS_PROBES);
        for _ in 0..STATS_PROBES {
            let started = Instant::now();
            client.stats()?;
            stats_us.push(started.elapsed().as_nanos() as f64 / 1_000.0);
        }
        self.report
            .set("net.stats_rtt_us", median(&mut stats_us), "us");
        drop(client);

        let probe_s = seconds as f64 / 2.0;
        let offered = (OPEN_LOOP_RATE * probe_s) as usize;
        let cutoff = (Instant::now() + Duration::from_secs_f64(3.0 * probe_s)).min(deadline);
        let id = self.spans.begin("net.open_loop", None);
        let probe = open_loop(addr, stream, offered, OPEN_LOOP_RATE, seed, cutoff)?;
        self.spans.end(id);
        if probe.timed_out {
            println!(
                "open-loop probe cut off at its deadline: {} of {} replies",
                probe.latency_ns.len(),
                probe.scheduled
            );
        }
        self.report.attempted += probe.scheduled;
        self.report.failed += probe.failed;
        let r = &mut self.report;
        let mut latency = micros(&probe.latency_ns);
        r.set_timing("net.openloop_p50_us", "us", &mut latency, |t| t.median);
        r.set_timing("net.openloop_p99_us", "us", &mut latency, |t| t.tail);
        r.set(
            "net.openloop_achieved_ratio",
            probe.latency_ns.len() as f64 / probe.elapsed.as_secs_f64() / OPEN_LOOP_RATE,
            "ratio",
        );
        r.set_timing(
            "client.openloop_lag_p99_us",
            "us",
            &mut micros(&probe.lag_ns),
            |t| t.tail,
        );
        Ok(())
    }
}

/// `chunk` as protocol requests, every write carrying its page's payload.
fn with_payloads(chunk: &[Request]) -> Vec<ServerRequest> {
    chunk
        .iter()
        .map(|req| {
            let op = ServerRequest::from_request(req);
            if req.is_write() {
                op.with_payload(page_payload(req.page, PAGE_SIZE))
            } else {
                op
            }
        })
        .collect()
}

fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

fn count_errors(replies: &[ServerResponse]) -> u64 {
    replies.iter().filter(|reply| reply.hit().is_none()).count() as u64
}

/// Median depth-1 round trip, microseconds, of a `Get` for a cached page.
fn idle_rtt_us(client: &mut BlockingClient, inputs: &Inputs) -> io::Result<f64> {
    let mut cached = None;
    for req in inputs.first_touch.iter().take(64) {
        let get = ServerRequest::from_request(&Request::read(req.client, req.page, req.hint));
        client.call(&get)?;
        if client.call(&get)?.hit() == Some(true) {
            cached = Some(get);
            break;
        }
    }
    let get = cached.ok_or_else(|| io::Error::other("no page stayed cached for the idle probe"))?;
    let mut rtt_us = Vec::with_capacity(RTT_PROBES);
    for _ in 0..RTT_PROBES {
        let started = Instant::now();
        client.call(&get)?;
        rtt_us.push(started.elapsed().as_nanos() as f64 / 1_000.0);
    }
    Ok(median(&mut rtt_us))
}
