//! Server latency under open-loop load: latency-vs-offered-load curves
//! for the network front-end.
//!
//! The benchmark's closed-loop workloads measure capacity; this experiment
//! measures *queueing*, which they cannot. A seeded open-loop Poisson generator
//! (`clic_server::openloop`) offers load to a store-backed server behind
//! the event-driven TCP front-end at several fixed arrival rates, twice
//! per rate: once with buffered durability and once with group commit.
//! Latency is measured from each request's **scheduled** send time — free
//! of coordinated omission — so the percentiles include every queueing
//! episode the offered load caused, and the curves bend upward exactly
//! where the offered load approaches the served capacity.
//!
//! Per durability the run also reports the *knee* — the highest offered
//! rate the server still kept up with (achieved ≥ 95 % of offered) — the
//! peak achieved rate, and how much of that peak survives at the highest
//! offered rate (2.5× the knee at default scale): a front-end that collapses
//! under overload instead of saturating shows up as a ratio far below 1.
//!
//! The workload knobs (rates, run length per rate) are derived from the
//! scale. The run is timing-sensitive, so it is last in the experiment table
//! and the verification gate excludes its CSV from the determinism diff.

use crate::{json::JsonValue, ResultTable, Suite};
use clic_server::{
    run_open_loop, Durability, NetOptions, NetServer, OpenLoopConfig, OpenLoopReport, Server,
    ServerConfig, StoreConfig, DEFAULT_PAGE_SIZE,
};
use trace_gen::PresetScale;

/// One measured point on the latency-vs-offered-load curve.
struct CurvePoint {
    durability: &'static str,
    report: OpenLoopReport,
}

pub(super) fn run(suite: &Suite) -> std::io::Result<JsonValue> {
    // Offered loads (requests/s) and per-rate run length by scale.
    let (rates, duration_s): (&[f64], f64) = match suite.ctx.scale {
        PresetScale::Smoke => (&[2_000.0, 5_000.0, 10_000.0], 0.3),
        PresetScale::Default => (&[5_000.0, 20_000.0, 50_000.0, 100_000.0, 250_000.0], 1.0),
        PresetScale::Paper => (&[10_000.0, 50_000.0, 100_000.0, 200_000.0], 2.0),
    };
    let durabilities = [
        ("buffered", Durability::Buffered),
        ("group-commit", Durability::group_commit()),
    ];
    let cache_pages = 4_096;
    let pages = 1u64 << 15;
    let shards = std::thread::available_parallelism()
        .map(|p| p.get().clamp(2, 8))
        .unwrap_or(4);
    println!(
        "server: {cache_pages}-page cache, {shards} shards, {pages}-page universe, \
         {DEFAULT_PAGE_SIZE}-byte pages, write fraction 0.25\n"
    );

    let mut curve: Vec<CurvePoint> = Vec::new();
    for (durability_label, durability) in durabilities {
        for &rate in rates {
            let dir = std::env::temp_dir().join(format!(
                "clic-server-latency-{}-{durability_label}-{rate}",
                std::process::id()
            ));
            std::fs::create_dir_all(&dir)?;
            let config = ServerConfig::new(cache_pages)
                .with_shards(shards)
                .with_store(StoreConfig::new(&dir, cache_pages).with_durability(durability));
            let net = NetServer::start(Server::start(config), NetOptions::default())?;
            let addr = net.tcp_addr().expect("tcp front-end enabled");
            let open_loop = OpenLoopConfig {
                rate,
                requests: ((rate * duration_s) as u64).max(500),
                seed: 42,
                pages,
                payload: Some(DEFAULT_PAGE_SIZE),
                ..OpenLoopConfig::default()
            };
            let report = run_open_loop(addr, &open_loop)?;
            net.shutdown()?;
            std::fs::remove_dir_all(&dir).ok();
            println!(
                "{durability_label:>12} @ {rate:>9.0} req/s offered: \
                 {:>9.0} achieved, p50 {} us, p99 {} us, p999 {} us",
                report.achieved_rps,
                report.latency.p50_us,
                report.latency.p99_us,
                report.latency.p999_us
            );
            curve.push(CurvePoint {
                durability: durability_label,
                report,
            });
        }
    }

    let mut table = ResultTable::new(
        format!(
            "Server latency vs offered load: {shards} shards, {cache_pages}-page cache, \
             open-loop Poisson arrivals, latency from scheduled send (no coordinated omission)"
        ),
        &[
            "durability",
            "offered req/s",
            "achieved req/s",
            "completed",
            "p50 us",
            "p95 us",
            "p99 us",
            "p999 us",
            "max us",
        ],
    );
    for point in &curve {
        let r = &point.report;
        table.push_row(vec![
            point.durability.into(),
            format!("{:.0}", r.offered_rps),
            format!("{:.0}", r.achieved_rps),
            format!("{}", r.completed),
            format!("{}", r.latency.p50_us),
            format!("{}", r.latency.p95_us),
            format!("{}", r.latency.p99_us),
            format!("{}", r.latency.p999_us),
            format!("{}", r.latency.max_us),
        ]);
    }
    table.emit(&suite.ctx.out_dir, "server_latency")?;

    // Knee, peak, and what is left of the peak at the highest offered rate.
    let mut overload = Vec::new();
    for (durability_label, _) in durabilities {
        let reports = || {
            curve
                .iter()
                .filter(move |point| point.durability == durability_label)
                .map(|point| &point.report)
        };
        let knee_rps = reports()
            .filter(|r| r.achieved_rps >= 0.95 * r.offered_rps)
            .map(|r| r.offered_rps)
            .fold(0.0, f64::max);
        let peak_rps = reports().map(|r| r.achieved_rps).fold(0.0, f64::max);
        let Some(last) = reports().next_back() else {
            continue;
        };
        println!(
            "{durability_label:>12}: knee {knee_rps:.0} req/s, peak {peak_rps:.0} achieved; \
             at {:.0} offered ({:.1}x the knee) {:.0} achieved = {:.2} of the peak",
            last.offered_rps,
            last.offered_rps / knee_rps,
            last.achieved_rps,
            last.achieved_rps / peak_rps
        );
        overload.push(JsonValue::object([
            ("durability", JsonValue::str(durability_label)),
            ("knee_rps", JsonValue::num(knee_rps)),
            ("peak_achieved_rps", JsonValue::num(peak_rps)),
            ("highest_offered_rps", JsonValue::num(last.offered_rps)),
            (
                "achieved_over_peak_at_highest",
                JsonValue::num(last.achieved_rps / peak_rps),
            ),
        ]));
    }

    let points: Vec<JsonValue> = curve
        .iter()
        .map(|point| {
            let r = &point.report;
            JsonValue::object([
                ("durability", JsonValue::str(point.durability)),
                ("offered_rps", JsonValue::num(r.offered_rps)),
                ("achieved_rps", JsonValue::num(r.achieved_rps)),
                ("sent", JsonValue::num(r.sent as f64)),
                ("completed", JsonValue::num(r.completed as f64)),
                ("elapsed_s", JsonValue::num(r.elapsed.as_secs_f64())),
                ("mean_us", JsonValue::num(r.latency.mean_us)),
                ("p50_us", JsonValue::num(r.latency.p50_us as f64)),
                ("p95_us", JsonValue::num(r.latency.p95_us as f64)),
                ("p99_us", JsonValue::num(r.latency.p99_us as f64)),
                ("p999_us", JsonValue::num(r.latency.p999_us as f64)),
                ("max_us", JsonValue::num(r.latency.max_us as f64)),
            ])
        })
        .collect();
    Ok(JsonValue::object([
        ("shards", JsonValue::num(shards as f64)),
        ("cache_pages", JsonValue::num(cache_pages as f64)),
        ("page_universe", JsonValue::num(pages as f64)),
        ("write_fraction", JsonValue::num(0.25)),
        ("latency_vs_load", JsonValue::Array(points)),
        ("overload", JsonValue::Array(overload)),
    ]))
}
