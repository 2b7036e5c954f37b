//! Fixed parameters, seeded inputs, statistics helpers, the metric report
//! and the in-memory span log shared by every workload.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use cache_sim::{PageId, Request, Trace};
use clic_core::{suggested_window, ClicConfig, TrackingMode};
use clic_obs::Recorder;
use clic_server::{merge_client_traces, Durability, ServerConfig, StoreConfig};
use trace_gen::{interleave, PresetScale, TracePreset};

/// Shards of every `ShardedClic`/`Server` the benchmark starts.
pub const SHARDS: usize = 2;
/// Server cache size in pages: the smoke-scale reference size of Figures
/// 9-11, smaller than every workload's working set.
pub const CACHE_PAGES: usize = 1_800;
/// Bytes per page and per `Put` payload.
pub const PAGE_SIZE: usize = 4_096;
/// `TrackingMode::TopK` size.
pub const TOP_K: usize = 100;
/// Requests the closed-loop network client keeps outstanding: half the
/// front-end's 64-slot in-flight window.
pub const DEPTH: usize = 32;
/// Requests per in-process batch and per chunk span.
pub const BATCH: usize = cache_sim::REPLAY_CHUNK;
/// `--seconds` when the caller does not say (`run_seconds` in
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: u64 = 10;

/// The four workloads, by the names `BENCHMARK.json` lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PolicyTpcc,
    ServerMix,
    NetTpccDurable,
    NetTpchScan,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PolicyTpcc,
        Workload::ServerMix,
        Workload::NetTpccDurable,
        Workload::NetTpchScan,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PolicyTpcc => "policy_tpcc",
            Workload::ServerMix => "server_mix",
            Workload::NetTpccDurable => "net_tpcc_durable",
            Workload::NetTpchScan => "net_tpch_scan",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// WAL durability of the workload's store-backed runs. Only the scan
    /// workload runs buffered; the in-process workloads use group commit
    /// for their full-stack reference segment.
    pub fn durability(self) -> Durability {
        match self {
            Workload::NetTpchScan => Durability::Buffered,
            _ => Durability::group_commit(),
        }
    }
}

/// A workload's generated inputs: one trace per client over a shared
/// catalog, plus their round-robin interleave when there are several.
pub struct Inputs {
    pub clients: Vec<Trace>,
    mixed: Option<Trace>,
    /// Every distinct page of the stream with its first request, in
    /// first-touch order (the preload order).
    pub first_touch: Vec<Request>,
    /// CLIC priority window, also the cross-shard merge period.
    pub window: u64,
    /// Seconds `trace-gen` took.
    pub build_s: f64,
}

impl Inputs {
    /// Generates the workload's smoke-scale preset traces from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let started = Instant::now();
        let presets: &[TracePreset] = match workload {
            Workload::PolicyTpcc | Workload::NetTpccDurable => &[TracePreset::Db2C60],
            Workload::ServerMix => &[TracePreset::Db2C60, TracePreset::Db2C300],
            Workload::NetTpchScan => &[TracePreset::Db2H80],
        };
        // Disjoint page ranges and the truncate-to-shortest rule of
        // `preset_client_traces`, but seeded from `--seed`.
        let mut traces: Vec<Trace> = presets
            .iter()
            .enumerate()
            .map(|(i, preset)| {
                preset.build_with_offset(
                    PresetScale::Smoke,
                    i as u64 * 100_000_000,
                    seed + i as u64,
                )
            })
            .collect();
        let shortest = traces.iter().map(Trace::len).min().unwrap_or(0);
        for trace in &mut traces {
            trace.requests.truncate(shortest);
        }
        let clients = merge_client_traces(&traces);
        let mixed = (clients.len() > 1).then(|| {
            let refs: Vec<&Trace> = clients.iter().collect();
            interleave(&refs).0
        });
        let build_s = started.elapsed().as_secs_f64();
        let stream = mixed.as_ref().unwrap_or(&clients[0]);
        let mut seen = HashSet::new();
        let first_touch = stream
            .requests
            .iter()
            .filter(|req| seen.insert(req.page))
            .copied()
            .collect();
        Inputs {
            window: suggested_window(stream.len() as u64),
            clients,
            mixed,
            first_touch,
            build_s,
        }
    }

    /// The single request stream the network client, the reference segment
    /// and the layer ladder replay.
    pub fn stream(&self) -> &[Request] {
        &self.mixed.as_ref().unwrap_or(&self.clients[0]).requests
    }

    pub fn clic_config(&self) -> ClicConfig {
        ClicConfig::default()
            .with_window(self.window)
            .with_tracking(TrackingMode::TopK(TOP_K))
    }

    /// The server every workload and rung starts; `store` adds the data
    /// plane under that directory at that durability.
    pub fn server_config(
        &self,
        store: Option<(&Path, Durability)>,
        recorder: &Recorder,
    ) -> ServerConfig {
        let mut config = ServerConfig::new(CACHE_PAGES)
            .with_shards(SHARDS)
            .with_clic(self.clic_config())
            .with_merge_every(self.window)
            .with_recorder(recorder.clone());
        if let Some((dir, durability)) = store {
            config = config
                .with_store(StoreConfig::new(dir, CACHE_PAGES).with_page_size(PAGE_SIZE))
                .with_durability(durability);
        }
        config
    }
}

/// Writes `clic_store::page_payload(page, buf.len())` into `buf` without
/// allocating, so one buffer serves every `Put` and every verification. Every
/// `Get` of a page the set-up preloaded with `page_payload` itself is
/// compared against this, so a drift between the two shows as failed replies.
pub fn stamp_payload(page: PageId, buf: &mut [u8]) {
    let id = page.0.to_le_bytes();
    let n = id.len().min(buf.len());
    buf[..n].copy_from_slice(&id[..n]);
    let base = (page.0 as u8).wrapping_mul(31);
    for (i, byte) in buf.iter_mut().enumerate().skip(n) {
        *byte = base.wrapping_add(i as u8);
    }
}

/// Median of `values` (sorted in place); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank percentile `pct` (0-100) of ascending `sorted`.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One timing's summary: the median, the 90th percentile, and as the tail the
/// highest of p99/p90 that has at least ten samples beyond it (the maximum
/// when neither has).
pub struct Timing {
    pub median: f64,
    pub p90: f64,
    pub tail_label: &'static str,
    pub tail: f64,
    pub samples: usize,
}

impl Timing {
    pub fn of(samples: &mut [f64]) -> Timing {
        let median = median(samples);
        let (tail_label, pct) = match samples.len() {
            n if n >= 1_000 => ("p99", 99.0),
            n if n >= 100 => ("p90", 90.0),
            _ => ("max", 100.0),
        };
        Timing {
            median,
            p90: percentile(samples, 90.0),
            tail_label,
            tail: percentile(samples, pct),
            samples: samples.len(),
        }
    }
}

impl std::fmt::Display for Timing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "median {:.4}, p90 {:.4}, {} {:.4}, n {}",
            self.median, self.p90, self.tail_label, self.tail, self.samples
        )
    }
}

/// Latency samples in nanoseconds, as microsecond `f64`s for [`Timing`].
pub fn micros(ns: &[u32]) -> Vec<f64> {
    ns.iter().map(|&n| f64::from(n) / 1_000.0).collect()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The metrics, counts and failed checks of one run.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Requests the workload issued in its measured regions.
    pub attempted: u64,
    /// Error, `Busy`, missing or wrong-payload replies among them.
    pub failed: u64,
    violations: Vec<String>,
}

impl Report {
    /// Records and prints one metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        println!("{name:<40} {value:>16.4} {unit}");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records `pick(timing)` under `name` and prints the timing's median,
    /// tail and sample count beside it.
    pub fn set_timing(
        &mut self,
        name: &str,
        unit: &'static str,
        samples: &mut [f64],
        pick: fn(&Timing) -> f64,
    ) {
        let timing = Timing::of(samples);
        let value = pick(&timing);
        println!("{name:<40} {value:>16.4} {unit}  ({timing})");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Prints a timing that is no metric of this run.
    pub fn show_timing(name: &str, unit: &str, samples: &mut [f64]) {
        println!("{name:<40} {:>16} {unit}  ({})", "", Timing::of(samples));
    }

    /// Records a failed correctness check; the run then exits non-zero.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            println!("CHECK FAILED: {what}");
            self.violations.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    /// Checks that exactly the `expected` metrics were recorded, each with
    /// its declared unit and a finite value.
    pub fn check_schema(&mut self, expected: &[(&str, &str)]) {
        let mut problems = Vec::new();
        for (name, unit) in expected {
            match self.metrics.iter().find(|(n, ..)| n == name) {
                None => problems.push(format!("metric {name} was not measured")),
                Some((_, value, u)) if u != unit || !value.is_finite() => problems.push(format!(
                    "metric {name} = {value} {u}, expected a finite {unit}"
                )),
                Some(_) => {}
            }
        }
        for (name, ..) in &self.metrics {
            if !expected.iter().any(|(n, _)| n == name) {
                problems.push(format!("metric {name} is not declared"));
            }
        }
        for problem in problems {
            self.check(false, || problem);
        }
    }

    /// The result object the benchmark contract asks for on the last line.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Spans recorded from the benchmark's side of each layer boundary, kept in
/// memory and written out when the traced run ends.
pub struct SpanLog {
    origin: Instant,
    workload: &'static str,
    /// `(name, start_ns, end_ns, parent)`; chunk spans share one name per
    /// rung.
    spans: Vec<(&'static str, u64, u64, Option<usize>)>,
}

impl SpanLog {
    pub fn new(workload: Workload) -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            workload: workload.name(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; [`SpanLog::end`] closes it.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.ns(Instant::now());
        self.spans.push((name, now, now, parent));
        self.spans.len() - 1
    }

    /// Closes span `id` now and returns its duration in nanoseconds.
    pub fn end(&mut self, id: usize) -> u64 {
        let now = self.ns(Instant::now());
        self.spans[id].2 = now;
        now - self.spans[id].1
    }

    /// Records one finished child span.
    pub fn child(&mut self, name: &'static str, parent: usize, start: Instant, end: Instant) {
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push((name, start, end, Some(parent)));
    }

    /// Durations in nanoseconds of `parent`'s child spans.
    pub fn child_durations(&self, parent: usize) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.3 == Some(parent))
            .map(|span| (span.2 - span.1) as f64)
            .collect()
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = format!("{{\"workload\": \"{}\", \"spans\": [\n", self.workload);
        for (id, (name, start, end, parent)) in self.spans.iter().enumerate() {
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            let parent = parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{name}\", \"start_ns\": {start}, \"end_ns\": {end}, \"parent\": {parent}}}{sep}"
            );
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

/// The benchmark's output directory, relative to the repository root that
/// `run.sh` runs the benchmark from.
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

/// A scratch directory under [`out_dir`] for store files, removed on drop.
pub struct Scratch {
    root: PathBuf,
    next: usize,
}

impl Scratch {
    pub fn new(workload: Workload) -> std::io::Result<Scratch> {
        let root = out_dir().join(format!("tmp-{}-{}", workload.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root, next: 0 })
    }

    /// A fresh, not yet created, sub-directory path.
    pub fn fresh(&mut self, label: &str) -> PathBuf {
        self.next += 1;
        self.root.join(format!("{}-{label}", self.next))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Bytes on disk under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}
