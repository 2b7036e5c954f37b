//! Experiment harness for the CLIC reproduction: the figure runner.
//!
//! Each figure and table of the paper's evaluation (Section 6) is one
//! function in [`experiments`], listed once in [`experiments::EXPERIMENTS`].
//! The `run_all` binary runs them in one process against a shared [`Suite`],
//! which generates every `trace-gen` trace once — the way the paper records
//! its eight traces once and replays them under every policy, cache size,
//! `k` and noise level. The second binary, `smoke`, holds the observability
//! and robustness gates of `scripts/verify.sh`. This library is the shared
//! machinery:
//!
//! * [`Suite`] — the parsed command line plus the memoized traces,
//! * [`run_policy_comparison`] — simulate OPT/LRU/ARC/TQ/CLIC over a trace at
//!   several server-cache sizes (Figures 6, 7 and 8), fanned across worker
//!   threads through [`cache_sim::compare_policies`],
//! * [`build_policy`] — construct any policy (including CLIC variants) by
//!   name and capacity,
//! * [`ResultTable`] — plain-text / CSV result formatting, written both to
//!   stdout and to the `results/` directory,
//! * [`ExperimentContext`] — the command line both binaries share,
//! * [`json`] — the dependency-free JSON writer behind the machine-readable
//!   reports.
//!
//! How fast the system is — nanoseconds per request at every layer,
//! requests per second end to end — is measured by the repository's
//! `benchmark/` package and by nothing here.
//!
//! # Command line
//!
//! `run_all [NAME…]` runs the named experiments (none = all) in table order;
//! an unknown name is an error that lists the table. `smoke [obs|chaos]`
//! takes its phases the same way. Both accept:
//!
//! | flag | default | meaning |
//! |------|---------|---------|
//! | `--scale smoke\|default\|paper` | `default` | workload scale |
//! | `--quick` | — | alias for `--scale smoke` |
//! | `--out-dir DIR` | `results/` | where `.txt`/`.csv` tables land |
//! | `--jobs N` | available parallelism | worker threads of the one pool every experiment grid runs on |
//! | `--json PATH` | off | write the machine-readable report to `PATH` |
//!
//! Parallelism never changes results — grids run through the deterministic
//! ordered executor, so every `.csv` but `server_latency`'s is bit-identical
//! at any job count (`scripts/verify.sh --smoke-bench` diffs a `--jobs 1`
//! run against a `--jobs 2` run).
//!
//! # The open-loop latency experiment
//!
//! `server_latency` is the one experiment that talks to the server over
//! real sockets: it boots the event-driven TCP front-end
//! ([`clic_server::NetServer`]) around a store-backed server and offers
//! load with the seeded open-loop Poisson generator
//! ([`clic_server::run_open_loop`]) at several fixed arrival rates, under
//! both buffered and group-commit durability. The generator fixes every
//! request's *scheduled* send time before the run and measures latency
//! from that instant, so the reported percentiles are free of coordinated
//! omission. Its `metrics` carry the full curve:
//!
//! ```json
//! {
//!   "shards": 4,
//!   "cache_pages": 4096,
//!   "page_universe": 32768,
//!   "write_fraction": 0.25,
//!   "latency_vs_load": [
//!     {
//!       "durability": "buffered",
//!       "offered_rps": 5000, "achieved_rps": 4980,
//!       "sent": 5000, "completed": 5000, "elapsed_s": 1.01,
//!       "mean_us": 310.2,
//!       "p50_us": 290, "p95_us": 610, "p99_us": 940,
//!       "p999_us": 1820, "max_us": 2410
//!     },
//!     { "durability": "group-commit", "offered_rps": 5000, ... }
//!   ]
//! }
//! ```
//!
//! One point per (durability, offered load) pair, in sweep order;
//! `achieved_rps` falling below `offered_rps` marks the saturation knee.
//!
//! # JSON report schema
//!
//! `run_all --json PATH` writes the ledger (conventionally
//! `BENCH_results.json`, committed at the repository root):
//!
//! ```json
//! {
//!   "suite": "run_all",
//!   "jobs": 2,
//!   "total_wall_time_s": 123.4,
//!   "experiments": [
//!     {"name": "table_fig2", "wall_time_s": 1.2, "ok": true, "report": {
//!       "experiment": "table_fig2", "scale": "default", "jobs": 2,
//!       "wall_time_s": 1.2, "metrics": { ...headline numbers... }}},
//!     ...
//!   ],
//!   "traces": [
//!     {"preset": "DB2_C60", "page_offset": 0, "seed": 42, "build_s": 1.9},
//!     ...
//!   ]
//! }
//! ```
//!
//! `traces` lists every generated trace once with its generation time, which
//! is otherwise part of the wall time of whichever experiment asked first.
//! `metrics` holds the headline numbers of each experiment: per-figure read
//! hit ratios (`{"cache_sizes": [...], "policies": {"CLIC": [...], ...}}`
//! per trace for the comparison figures). The `storage_io` experiment (the
//! disk-backed data plane replayed under CLIC and LRU admission) reports
//! `page_size`, `cache_pages`, `requests`, one object per policy with its
//! byte-level counters (`bytes_read`, `bytes_written`, `buffer_hit_ratio`,
//! `disk_reads`, `disk_writes`, `disk_bytes_read`, `disk_bytes_written`,
//! `disk_reads_per_request`, `pages_flushed`, `eviction_flushes`,
//! `wal_records`, `wal_bytes`, `data_syncs`, `wal_syncs`, `group_commits`,
//! `fsyncs`) plus a `latency_us` object
//! (`{"p50", "p95", "p99", "p999", "max", "chunks"}`) holding percentiles
//! of the per-[`cache_sim::REPLAY_CHUNK`] replay service time from the
//! store's `store.replay_chunk_us` histogram, a `durability` object with
//! the same counters for the CLIC replay at each WAL durability level
//! (`buffered`, `group-commit`, `strict`), a `shards` object with the
//! counters for CLIC partitioned across 2 and 4 per-shard stores, and the
//! headlines `clic_vs_lru_disk_reads_saved` and
//! `group_commit_vs_strict_fsyncs_saved`. Latency objects are wall-clock
//! measurements and are only ever written to the JSON report and stdout,
//! never to the `.csv` tables the determinism gate byte-compares across
//! `--jobs` values.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod experiments;
pub mod json;
mod suite;

pub use suite::{Suite, TraceKey};

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use cache_sim::policies::{Arc, Lru, Opt, Tq};
use cache_sim::{
    compare_policies, BoxedPolicy, NextUseOracle, SimulationResult, ThreadPool, Trace,
};
use clic_core::{Clic, ClicConfig, TrackingMode};
use json::JsonValue;
use trace_gen::PresetScale;

/// The set of policies the paper compares in Figures 6-8, in plot order.
pub const PAPER_POLICIES: [&str; 5] = ["OPT", "TQ", "LRU", "ARC", "CLIC"];

/// Builds a policy by name for a given trace and capacity.
///
/// Supported names: `"OPT"`, `"LRU"`, `"ARC"`, `"TQ"`, `"CLIC"`, and
/// `"CLIC(k=<n>)"` for the top-k tracking variant. The trace is needed only
/// by OPT (for its future-knowledge oracle); passing the same trace that will
/// be simulated is required for OPT to be meaningful.
///
/// # Panics
///
/// Panics if the policy name is not recognized.
pub fn build_policy(name: &str, trace: &Trace, capacity: usize, window: u64) -> BoxedPolicy {
    match name {
        "OPT" => Box::new(Opt::from_trace(trace, capacity)),
        "LRU" => Box::new(Lru::new(capacity)),
        "ARC" => Box::new(Arc::new(capacity)),
        "TQ" => Box::new(Tq::new(capacity)),
        "CLIC" => Box::new(Clic::new(
            capacity,
            ClicConfig::default().with_window(window),
        )),
        other => {
            if let Some(k) = other
                .strip_prefix("CLIC(k=")
                .and_then(|s| s.strip_suffix(')'))
                .and_then(|s| s.parse::<usize>().ok())
            {
                Box::new(Clic::new(
                    capacity,
                    ClicConfig::default()
                        .with_window(window)
                        .with_tracking(TrackingMode::TopK(k)),
                ))
            } else {
                panic!("unknown policy name: {other}")
            }
        }
    }
}

/// Picks the CLIC priority-window size for a trace. Delegates to
/// [`clic_core::suggested_window`], the single source of truth for the
/// heuristic (see its documentation for the convergence rationale).
pub fn window_for_trace(trace: &Trace) -> u64 {
    clic_core::suggested_window(trace.len() as u64)
}

/// One measured point of a policy-comparison experiment.
#[derive(Debug, Clone)]
pub struct ComparisonPoint {
    /// Policy name.
    pub policy: String,
    /// Server cache size in pages.
    pub cache_pages: usize,
    /// The full simulation result.
    pub result: SimulationResult,
}

/// Runs the paper's policy comparison (OPT, TQ, LRU, ARC, CLIC) over `trace`
/// at each of the given server-cache sizes.
///
/// The (policy, cache size) cells are independent simulations; they are
/// fanned across the pool's worker threads through
/// [`cache_sim::compare_policies`] — at most [`ThreadPool::jobs`] at a time
/// (unlike the old one-thread-per-cell scheme) — and returned in exactly the
/// order the serial nested loop over `policies` × `cache_sizes` would
/// produce, with bit-identical results at any job count.
pub fn run_policy_comparison(
    pool: &ThreadPool,
    trace: &Trace,
    cache_sizes: &[usize],
    policies: &[&str],
) -> Vec<ComparisonPoint> {
    // The OPT oracle is the same for every cache size; build it once.
    let oracle = if policies.contains(&"OPT") {
        Some(NextUseOracle::build(trace))
    } else {
        None
    };
    let window = window_for_trace(trace);
    let cells: Vec<(&str, usize)> = policies
        .iter()
        .flat_map(|&policy| cache_sizes.iter().map(move |&size| (policy, size)))
        .collect();
    let results = compare_policies(pool, trace, &cells, |&(policy_name, cache_pages)| {
        if policy_name == "OPT" {
            Box::new(Opt::with_oracle(
                oracle.clone().expect("oracle built for OPT"),
                cache_pages,
            ))
        } else {
            build_policy(policy_name, trace, cache_pages, window)
        }
    });
    cells
        .into_iter()
        .zip(results)
        .map(|((policy, cache_pages), result)| ComparisonPoint {
            policy: policy.to_string(),
            cache_pages,
            result,
        })
        .collect()
}

/// A printable result table (one per figure/table of the paper).
#[derive(Debug, Clone, Default)]
pub struct ResultTable {
    /// Table title (e.g. `"Figure 6: DB2_C60"`).
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// Creates an empty table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        ResultTable {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    pub fn push_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Renders the table as aligned plain text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.header
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Prints the table to stdout and writes `<stem>.txt` / `<stem>.csv`
    /// under `out_dir`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the output directory or files.
    pub fn emit(&self, out_dir: &Path, stem: &str) -> std::io::Result<()> {
        println!("{}", self.to_text());
        fs::create_dir_all(out_dir)?;
        fs::write(out_dir.join(format!("{stem}.txt")), self.to_text())?;
        fs::write(out_dir.join(format!("{stem}.csv")), self.to_csv())?;
        Ok(())
    }
}

/// Builds the standard "read hit ratio by cache size" table used by
/// Figures 6-8: one row per policy, one column per server cache size.
pub fn comparison_table(
    title: impl Into<String>,
    points: &[ComparisonPoint],
    cache_sizes: &[usize],
    policies: &[&str],
) -> ResultTable {
    let mut header = vec!["policy".to_string()];
    for &size in cache_sizes {
        header.push(format!("{size} pages"));
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = ResultTable::new(title, &header_refs);
    for &policy in policies {
        let mut row = vec![policy.to_string()];
        for &size in cache_sizes {
            let point = points
                .iter()
                .find(|p| p.policy == policy && p.cache_pages == size);
            match point {
                Some(p) => row.push(format!("{:.1}%", p.result.read_hit_ratio() * 100.0)),
                None => row.push("-".to_string()),
            }
        }
        table.push_row(row);
    }
    table
}

/// The headline metrics of a policy-comparison figure as a [`JsonValue`]:
/// `{"cache_sizes": [...], "policies": {"OPT": [ratio, ...], ...}}` with one
/// read-hit-ratio entry per cache size, in `cache_sizes` order.
pub fn comparison_metrics(
    points: &[ComparisonPoint],
    cache_sizes: &[usize],
    policies: &[&str],
) -> JsonValue {
    let ratios = |policy: &str| {
        JsonValue::Array(
            cache_sizes
                .iter()
                .map(|&size| {
                    points
                        .iter()
                        .find(|p| p.policy == policy && p.cache_pages == size)
                        .map(|p| JsonValue::num(p.result.read_hit_ratio()))
                        .unwrap_or(JsonValue::Null)
                })
                .collect(),
        )
    };
    JsonValue::object([
        (
            "cache_sizes",
            JsonValue::Array(
                cache_sizes
                    .iter()
                    .map(|&s| JsonValue::num(s as f64))
                    .collect(),
            ),
        ),
        (
            "policies",
            JsonValue::object(policies.iter().map(|&p| (p, ratios(p)))),
        ),
    ])
}

/// The command line shared by `run_all` and `smoke`.
///
/// Both binaries accept `--scale smoke|default|paper` (default `default`),
/// `--out-dir <dir>` (default `results/`), `--quick` as an alias for
/// `--scale smoke`, `--jobs <n>` to size the one thread pool every grid runs
/// on (default [`cache_sim::default_jobs`]: the machine's available
/// parallelism), `--json <path>` to write the machine-readable report (see
/// the [crate-level docs](crate#json-report-schema) for the schema), and
/// bare words naming what to run.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    /// The workload scale to run at.
    pub scale: PresetScale,
    /// Directory that receives `.txt`/`.csv` outputs.
    pub out_dir: PathBuf,
    /// Worker threads for the experiment's simulation grid.
    pub jobs: usize,
    /// Where to write the machine-readable report, if requested.
    pub json_path: Option<PathBuf>,
    /// When the context was created; [`ExperimentContext::emit_json`]
    /// reports the elapsed time since as `wall_time_s`.
    started: Instant,
}

impl Default for ExperimentContext {
    fn default() -> Self {
        ExperimentContext {
            scale: PresetScale::Default,
            out_dir: PathBuf::from("results"),
            jobs: cache_sim::default_jobs(),
            json_path: None,
            started: Instant::now(),
        }
    }
}

impl ExperimentContext {
    /// Parses the flags and the bare words of a command line (without the
    /// program name). Every bare word must be one of `names`; returns the
    /// context and the selected names in the order of `names` — all of them
    /// when no bare word was given.
    ///
    /// # Errors
    ///
    /// Returns the message to print: for an unknown flag or a flag without a
    /// valid value, what was wrong; for an unknown name, the list of `names`.
    pub fn parse<'n>(args: &[String], names: &[&'n str]) -> Result<(Self, Vec<&'n str>), String> {
        let mut ctx = ExperimentContext::default();
        let mut chosen = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let mut value = || {
                args.next()
                    .ok_or_else(|| format!("{arg} requires a value (try --help)"))
            };
            match arg.as_str() {
                "--scale" => {
                    let value = value()?;
                    ctx.scale = PresetScale::from_name(value)
                        .ok_or_else(|| format!("unknown scale '{value}' (smoke|default|paper)"))?;
                }
                "--quick" => ctx.scale = PresetScale::Smoke,
                "--out-dir" => ctx.out_dir = PathBuf::from(value()?),
                "--jobs" => {
                    let value = value()?;
                    ctx.jobs = value.parse().ok().filter(|&jobs| jobs > 0).ok_or_else(|| {
                        format!("--jobs requires a positive integer, got '{value}'")
                    })?;
                }
                "--json" => ctx.json_path = Some(PathBuf::from(value()?)),
                flag if flag.starts_with('-') => {
                    return Err(format!("unknown argument '{flag}' (try --help)"))
                }
                name if names.contains(&name) => chosen.push(name),
                other => {
                    return Err(format!(
                        "unknown name '{other}'; known names:\n  {}",
                        names.join("\n  ")
                    ))
                }
            }
        }
        let selected = names
            .iter()
            .copied()
            .filter(|name| chosen.is_empty() || chosen.contains(name))
            .collect();
        Ok((ctx, selected))
    }

    /// [`ExperimentContext::parse`] over `std::env::args`, for a binary
    /// called `program`: `--help` prints the usage and the names and exits
    /// 0, a parse error prints its message and exits 2.
    pub fn from_args<'n>(program: &str, names: &[&'n str]) -> (Self, Vec<&'n str>) {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|arg| arg == "--help" || arg == "-h") {
            println!(
                "usage: {program} [NAME...] [--scale smoke|default|paper] [--quick] \
                 [--out-dir DIR] [--jobs N] [--json PATH]\nnames (none = all):\n  {}",
                names.join("\n  ")
            );
            std::process::exit(0);
        }
        Self::parse(&args, names).unwrap_or_else(|message| {
            eprintln!("{program}: {message}");
            std::process::exit(2);
        })
    }

    /// A human-readable label for the current scale.
    pub fn scale_label(&self) -> &'static str {
        match self.scale {
            PresetScale::Smoke => "smoke",
            PresetScale::Default => "default",
            PresetScale::Paper => "paper",
        }
    }

    /// The thread pool every experiment grid should run on (sized by
    /// `--jobs`).
    pub fn pool(&self) -> ThreadPool {
        ThreadPool::new(self.jobs)
    }

    /// The report of one experiment: its name, the scale, the job count, its
    /// wall time and its headline `metrics`.
    pub fn report(&self, experiment: &str, wall_time_s: f64, metrics: JsonValue) -> JsonValue {
        JsonValue::object([
            ("experiment", JsonValue::str(experiment)),
            ("scale", JsonValue::str(self.scale_label())),
            ("jobs", JsonValue::num(self.jobs as f64)),
            ("wall_time_s", JsonValue::num(wall_time_s)),
            ("metrics", metrics),
        ])
    }

    /// Writes `value` and a newline to the `--json` path. A no-op when
    /// `--json` was not passed.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the parent directory or writing
    /// the file.
    pub fn write_json(&self, value: &JsonValue) -> std::io::Result<()> {
        let Some(path) = &self.json_path else {
            return Ok(());
        };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        fs::write(path, format!("{value}\n"))
    }

    /// Writes the [`ExperimentContext::report`] of a binary that is one
    /// experiment — its wall time is the time since the context was parsed —
    /// to the `--json` path.
    ///
    /// # Errors
    ///
    /// As [`ExperimentContext::write_json`].
    pub fn emit_json(&self, experiment: &str, metrics: JsonValue) -> std::io::Result<()> {
        let wall_time_s = self.started.elapsed().as_secs_f64();
        self.write_json(&self.report(experiment, wall_time_s, metrics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{AccessKind, TraceBuilder};

    fn toy_trace() -> Trace {
        let mut b = TraceBuilder::new().with_name("toy");
        let c = b.add_client("t", &[("kind", 2)]);
        let hot = b.intern_hints(c, &[0]);
        let cold = b.intern_hints(c, &[1]);
        for i in 0..20_000u64 {
            b.push(c, i % 100, AccessKind::Read, None, hot);
            b.push(c, 10_000 + i, AccessKind::Read, None, cold);
        }
        b.build()
    }

    #[test]
    fn build_policy_covers_all_names() {
        let trace = toy_trace();
        for name in PAPER_POLICIES {
            let p = build_policy(name, &trace, 64, 1_000);
            assert_eq!(p.capacity(), 64);
        }
        let topk = build_policy("CLIC(k=5)", &trace, 64, 1_000);
        assert!(topk.name().contains("k=5"));
    }

    #[test]
    #[should_panic(expected = "unknown policy")]
    fn build_policy_rejects_unknown_names() {
        let trace = toy_trace();
        let _ = build_policy("MAGIC", &trace, 8, 100);
    }

    #[test]
    fn comparison_runs_and_opt_dominates() {
        let trace = toy_trace();
        let sizes = [64usize, 128];
        let points = run_policy_comparison(&ThreadPool::new(2), &trace, &sizes, &PAPER_POLICIES);
        assert_eq!(points.len(), PAPER_POLICIES.len() * sizes.len());
        for &size in &sizes {
            let ratio = |name: &str| {
                points
                    .iter()
                    .find(|p| p.policy == name && p.cache_pages == size)
                    .unwrap()
                    .result
                    .read_hit_ratio()
            };
            assert!(ratio("OPT") >= ratio("LRU") - 1e-9);
            assert!(ratio("OPT") >= ratio("CLIC") - 1e-9);
            assert!(ratio("OPT") >= ratio("ARC") - 1e-9);
        }
    }

    #[test]
    fn result_table_renders_text_and_csv() {
        let mut t = ResultTable::new("Figure X", &["policy", "60k"]);
        t.push_row(vec!["LRU".into(), "12.3%".into()]);
        t.push_row(vec!["CLIC".into(), "45.6%".into()]);
        let text = t.to_text();
        assert!(text.contains("Figure X"));
        assert!(text.contains("CLIC"));
        let csv = t.to_csv();
        assert!(csv.starts_with("policy,60k"));
        assert!(csv.contains("45.6%"));
    }

    #[test]
    fn comparison_table_has_one_row_per_policy() {
        let trace = toy_trace();
        let sizes = [32usize];
        let points = run_policy_comparison(&ThreadPool::new(1), &trace, &sizes, &["LRU", "CLIC"]);
        let table = comparison_table("t", &points, &sizes, &["LRU", "CLIC"]);
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.header.len(), 2);
    }

    #[test]
    fn comparison_is_bit_identical_across_job_counts() {
        // The acceptance bar for the parallel replay engine: any job count
        // produces the statistics (and ordering) of the serial path.
        let trace = toy_trace();
        let sizes = [32usize, 64, 96];
        let policies = ["LRU", "ARC", "CLIC"];
        let serial = run_policy_comparison(&ThreadPool::new(1), &trace, &sizes, &policies);
        for jobs in [2, 3, 8] {
            let parallel = run_policy_comparison(&ThreadPool::new(jobs), &trace, &sizes, &policies);
            assert_eq!(parallel.len(), serial.len());
            for (p, s) in parallel.iter().zip(&serial) {
                assert_eq!(p.policy, s.policy, "jobs = {jobs}");
                assert_eq!(p.cache_pages, s.cache_pages, "jobs = {jobs}");
                assert_eq!(p.result.stats, s.result.stats, "jobs = {jobs}");
                assert_eq!(p.result.per_client, s.result.per_client, "jobs = {jobs}");
            }
        }
    }

    #[test]
    fn comparison_metrics_serializes_the_grid() {
        let trace = toy_trace();
        let sizes = [32usize, 64];
        let points = run_policy_comparison(&ThreadPool::new(2), &trace, &sizes, &["LRU"]);
        let metrics = comparison_metrics(&points, &sizes, &["LRU"]).to_string();
        assert!(metrics.starts_with("{\"cache_sizes\":[32,64],\"policies\":{\"LRU\":["));
        // A policy with no points serializes as nulls, not a panic.
        let empty = comparison_metrics(&[], &sizes, &["ARC"]).to_string();
        assert!(empty.contains("\"ARC\":[null,null]"));
    }

    #[test]
    fn emit_json_writes_the_report_envelope() {
        let dir = std::env::temp_dir().join(format!("clic-bench-test-{}", std::process::id()));
        let path = dir.join("report.json");
        let ctx = ExperimentContext {
            json_path: Some(path.clone()),
            jobs: 3,
            ..ExperimentContext::default()
        };
        ctx.emit_json("unit_test", JsonValue::object([("x", JsonValue::num(1.5))]))
            .expect("report written");
        let text = fs::read_to_string(&path).expect("report readable");
        assert!(text.starts_with("{\"experiment\":\"unit_test\",\"scale\":\"default\",\"jobs\":3,"));
        assert!(text.contains("\"metrics\":{\"x\":1.5}"));
        fs::remove_dir_all(&dir).ok();
        // Without --json the call is a no-op.
        let silent = ExperimentContext::default();
        silent
            .emit_json("unit_test", JsonValue::Null)
            .expect("no-op");
    }

    #[test]
    fn parse_selects_names_in_table_order_and_rejects_unknown_input() {
        let names = ["a_one", "b_two", "c_three"];
        let args = |words: &[&str]| words.iter().map(|w| w.to_string()).collect::<Vec<_>>();
        let (ctx, selected) =
            ExperimentContext::parse(&args(&["--quick", "--jobs", "3"]), &names).unwrap();
        assert_eq!((ctx.scale, ctx.jobs), (PresetScale::Smoke, 3));
        assert_eq!(selected, names, "no name selects the whole table");
        let (_, selected) =
            ExperimentContext::parse(&args(&["c_three", "--quick", "a_one"]), &names).unwrap();
        assert_eq!(selected, ["a_one", "c_three"]);
        let unknown = ExperimentContext::parse(&args(&["a_one", "d_four"]), &names).unwrap_err();
        assert!(unknown.contains("d_four") && names.iter().all(|n| unknown.contains(n)));
        for bad in [
            &["--jobs", "0"][..],
            &["--jobs"],
            &["--scale", "huge"],
            &["--frobnicate"],
        ] {
            assert!(
                ExperimentContext::parse(&args(bad), &names).is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn window_scales_with_trace_length() {
        let trace = toy_trace();
        let w = window_for_trace(&trace);
        assert!(w >= 1_000);
        assert!(w <= 1_000_000);
        assert_eq!(w, clic_core::suggested_window(trace.len() as u64));
        // ~80 evaluations per run, clamped below by 1 000 requests.
        assert_eq!(clic_core::suggested_window(800_000), 10_000);
        assert_eq!(clic_core::suggested_window(10_000), 1_000);
        assert_eq!(clic_core::suggested_window(1_000_000_000), 1_000_000);
    }
}
