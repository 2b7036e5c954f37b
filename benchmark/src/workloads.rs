//! The end-to-end run (`--trace 0`) of each workload.
//!
//! Every run is shaped by request counts, never by wall time: `--seconds`
//! multiplies a per-workload count that makes the timed region last about
//! that long on the 2-core reference box at the commit that defined the
//! benchmark. A faster program finishes sooner; it never does more work.

use std::io;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use cache_sim::{simulate, CacheStats, Trace};
use clic_core::Clic;
use clic_obs::Recorder;
use clic_server::{Server, ServerRequest, ServerResponse};

use crate::common::{
    median, micros, peak_rss_mb, Inputs, Report, Scratch, Workload, BATCH, CACHE_PAGES, PAGE_SIZE,
};
use crate::netrun::{System, Transport};

/// End-to-end metrics and units, as `BENCHMARK.json` declares them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("throughput_rps", "1/s"),
    ("read_hit_ratio", "ratio"),
    ("disk_reads_per_kreq", "1/kreq"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
    ("recovery_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// `setup_s` is the median of the run's set-ups: at least [`MIN_SETUPS`], and
/// more of a cheap one until [`SETUP_BUDGET`] is spent, at most
/// [`MAX_SETUPS`] — a 0.2 s set-up timed three times follows the sandbox's
/// noise, not the program.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Timed `policy_tpcc` passes per `--seconds`.
const POLICY_PASSES_PER_S: u64 = 15;
/// Timed `server_mix` passes per `--seconds`.
const SERVER_PASSES_PER_S: u64 = 3;
/// Untimed requests that open every closed-loop run.
const NET_WARMUP: usize = 40_000;
/// Timed requests per `--seconds`: `net_tpcc_durable`, `net_tpch_scan`, and
/// the full-stack reference segment of the in-process workloads.
const TPCC_REQUESTS_PER_S: usize = 20_000;
const TPCH_REQUESTS_PER_S: usize = 22_000;
const REFERENCE_REQUESTS_PER_S: usize = 8_000;
/// No run may take longer than this, whatever the front-end does.
const RUN_DEADLINE: Duration = Duration::from_secs(150);

pub fn run(workload: Workload, seed: u64, seconds: u64) -> io::Result<Report> {
    let deadline = Instant::now() + RUN_DEADLINE;
    let mut report = Report::default();
    let mut scratch = Scratch::new(workload)?;
    let start_system = |inputs: &Inputs, dir| {
        System::start(
            inputs,
            dir,
            workload.durability(),
            &Recorder::disabled(),
            Transport::Tcp,
        )
    };
    match workload {
        Workload::PolicyTpcc | Workload::ServerMix => {
            let (inputs, mut setup_s) = repeat_setup(|| Ok(Inputs::generate(workload, seed)))?;
            if workload == Workload::PolicyTpcc {
                policy_passes(&inputs, seconds * POLICY_PASSES_PER_S, &mut report);
            } else {
                server_passes(&inputs, seconds * SERVER_PASSES_PER_S, &mut report);
            }
            report.set("peak_rss_mb", peak_rss_mb(), "MiB");
            report.set_timing("setup_s", "s", &mut setup_s, |t| t.median);
            // The workload has no store and no wire; the metrics only the
            // full stack has come from a fixed-count reference segment of
            // the same stream through it.
            let system = start_system(&inputs, scratch.fresh("reference"))?;
            let count = seconds as usize * REFERENCE_REQUESTS_PER_S;
            full_stack(&inputs, system, count, deadline, false, &mut report)?;
        }
        Workload::NetTpccDurable | Workload::NetTpchScan => {
            let ((inputs, system), mut setup_s) = repeat_setup(|| {
                let inputs = Inputs::generate(workload, seed);
                let system = start_system(&inputs, scratch.fresh("store"))?;
                Ok((inputs, system))
            })?;
            let per_s = match workload {
                Workload::NetTpccDurable => TPCC_REQUESTS_PER_S,
                _ => TPCH_REQUESTS_PER_S,
            };
            full_stack(
                &inputs,
                system,
                seconds as usize * per_s,
                deadline,
                true,
                &mut report,
            )?;
            report.set_timing("setup_s", "s", &mut setup_s, |t| t.median);
        }
    }
    report.check_schema(&END_TO_END);
    Ok(report)
}

/// Sets up repeatedly (see [`MIN_SETUPS`]), timing each, and keeps the last.
fn repeat_setup<T>(mut setup: impl FnMut() -> io::Result<T>) -> io::Result<(T, Vec<f64>)> {
    let begun = Instant::now();
    let mut seconds = Vec::with_capacity(MAX_SETUPS);
    loop {
        let started = Instant::now();
        let made = setup()?;
        seconds.push(started.elapsed().as_secs_f64());
        let enough = seconds.len() >= MIN_SETUPS && begun.elapsed() >= SETUP_BUDGET;
        if enough || seconds.len() == MAX_SETUPS {
            return Ok((made, seconds));
        }
        // The previous system goes before the next one is built.
        drop(made);
    }
}

/// `policy_tpcc`: each pass builds a fresh `Clic` and replays the trace
/// through `cache_sim::simulate`; one untimed pass warms the processor's
/// caches and gives the statistics every timed pass must repeat exactly.
fn policy_passes(inputs: &Inputs, passes: u64, report: &mut Report) {
    let trace = &inputs.clients[0];
    let pass = || {
        let started = Instant::now();
        let mut clic = Clic::new(CACHE_PAGES, inputs.clic_config());
        let result = simulate(&mut clic, trace);
        (result.stats, started.elapsed().as_secs_f64())
    };
    let (reference, _) = pass();
    let mut rps = Vec::with_capacity(passes as usize);
    let mut diverged = 0u64;
    for _ in 0..passes {
        let (stats, seconds) = pass();
        diverged += u64::from(stats != reference);
        rps.push(trace.len() as f64 / seconds);
    }
    report.attempted += passes * trace.len() as u64;
    report.check(diverged == 0, || {
        format!("{diverged} of {passes} passes gave different CacheStats than the first")
    });
    report.check(reference.requests() == trace.len() as u64, || {
        format!(
            "a pass counted {} of {} requests",
            reference.requests(),
            trace.len()
        )
    });
    report.set_timing("throughput_rps", "1/s", &mut rps, |t| t.p90);
    report.set("read_hit_ratio", reference.read_hit_ratio(), "ratio");
}

/// `server_mix`: each pass starts a fresh two-shard `Server` and lets two
/// closed-loop client threads drive one trace each through
/// `Server::submit` in [`BATCH`]-request batches.
fn server_passes(inputs: &Inputs, passes: u64, report: &mut Report) {
    let batches: Vec<Vec<Vec<ServerRequest>>> = inputs.clients.iter().map(client_batches).collect();
    let requests: u64 = inputs.clients.iter().map(|t| t.len() as u64).sum();
    let pass = || {
        let server = Server::start(inputs.server_config(None, &Recorder::disabled()));
        let barrier = Barrier::new(batches.len() + 1);
        let (seen, seconds) = std::thread::scope(|scope| {
            let clients: Vec<_> = batches
                .iter()
                .map(|batches| {
                    let (server, barrier) = (&server, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let mut seen = ClientView::default();
                        for batch in batches {
                            seen.observe(batch, &server.submit(batch));
                        }
                        seen
                    })
                })
                .collect();
            barrier.wait();
            let started = Instant::now();
            let mut seen = ClientView::default();
            for client in clients {
                seen.merge(&client.join().expect("client thread panicked"));
            }
            (seen, started.elapsed().as_secs_f64())
        });
        (seen, server.shutdown().stats, seconds)
    };
    pass();
    let (mut rps, mut hit_ratios) = (Vec::new(), Vec::new());
    let mut miscounted = 0u64;
    for _ in 0..passes {
        let (seen, stats, seconds) = pass();
        report.failed += seen.failed;
        miscounted += u64::from(
            stats.requests() != requests
                || seen.stats.read_hits != stats.read_hits
                || seen.stats.requests() + seen.failed != requests,
        );
        rps.push(requests as f64 / seconds);
        hit_ratios.push(stats.read_hit_ratio());
    }
    report.attempted += passes * requests;
    report.check(miscounted == 0, || {
        format!("{miscounted} of {passes} passes: client and server counts disagree")
    });
    report.set_timing("throughput_rps", "1/s", &mut rps, |t| t.p90);
    report.set("read_hit_ratio", median(&mut hit_ratios), "ratio");
}

/// A client trace as ready-made `submit` batches, built once so the timed
/// passes spend nothing on conversion.
fn client_batches(trace: &Trace) -> Vec<Vec<ServerRequest>> {
    trace
        .requests
        .chunks(BATCH)
        .map(|chunk| chunk.iter().map(ServerRequest::from_request).collect())
        .collect()
}

/// What the client side of `Server::submit` saw.
#[derive(Default)]
struct ClientView {
    stats: CacheStats,
    /// Replies of the wrong kind, errors, or a short reply vector.
    failed: u64,
}

impl ClientView {
    fn observe(&mut self, batch: &[ServerRequest], replies: &[ServerResponse]) {
        self.failed += batch.len().saturating_sub(replies.len()) as u64;
        for (request, reply) in batch.iter().zip(replies) {
            match (request, reply) {
                (ServerRequest::Get { .. }, ServerResponse::Get { hit, .. }) => {
                    self.stats.record_read(*hit)
                }
                (ServerRequest::Put { .. }, ServerResponse::Put { hit }) => {
                    self.stats.record_write(*hit)
                }
                _ => self.failed += 1,
            }
        }
    }

    fn merge(&mut self, other: &ClientView) {
        self.stats += other.stats;
        self.failed += other.failed;
    }
}

/// Drives `count` timed requests through the full stack, checks every
/// reply, crashes the server, recovers it, and reports the metrics only the
/// full stack has. `whole` adds the ones an in-process workload measures in
/// its own shape instead.
fn full_stack(
    inputs: &Inputs,
    system: System,
    count: usize,
    deadline: Instant,
    whole: bool,
    report: &mut Report,
) -> io::Result<()> {
    let stream = inputs.stream();
    let run = system.run(stream, NET_WARMUP, count, deadline)?;
    report.attempted += count as u64;
    report.failed += run.timed.failed;
    report.check(run.warm_failed == 0, || {
        format!("{} warm-up replies failed", run.warm_failed)
    });
    if let Err(why) = run.reconcile(count) {
        report.check(false, || why);
    }
    if whole {
        report.set_timing("throughput_rps", "1/s", &mut run.timed.round_rps(), |t| {
            t.p90
        });
        report.set("read_hit_ratio", run.read_hit_ratio(), "ratio");
    }
    // Shown, not gated: a 99th percentile here sits on the edge between
    // one-tick and two-tick round trips and flips between identical runs
    // (see the README); the traced run reports both as `client.*`.
    Report::show_timing("(read latency)", "us", &mut micros(&run.timed.read_ns));
    Report::show_timing("(write latency)", "us", &mut micros(&run.timed.write_ns));
    let kreq = count as f64 / 1_000.0;
    report.set(
        "disk_reads_per_kreq",
        run.counter("store.disk_reads") / kreq,
        "1/kreq",
    );
    report.set(
        "write_amp",
        (run.counter("store.disk_bytes_written") + run.counter("store.wal_bytes"))
            / run.counter("store.bytes_written"),
        "ratio",
    );
    let live_bytes = (inputs.first_touch.len() * PAGE_SIZE) as f64;
    report.set("space_amp", run.disk_bytes as f64 / live_bytes, "ratio");
    if whole {
        report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    let record_bytes = run.wal_record_bytes();
    report.check(record_bytes.is_some(), || {
        "WAL records differ in size".to_string()
    });
    let recovery = system.crash_and_recover(inputs)?;
    let expected = recovery.surviving_wal_bytes / record_bytes.unwrap_or(1);
    report.check(recovery.recovered_writes == expected, || {
        format!(
            "recovery replayed {} WAL records, {expected} survived the crash",
            recovery.recovered_writes
        )
    });
    report.check(recovery.unreadable == 0, || {
        format!(
            "{} pages did not read back after recovery",
            recovery.unreadable
        )
    });
    report.set("recovery_s", recovery.recovery_s, "s");
    Ok(())
}
