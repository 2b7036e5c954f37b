//! Runs the evaluation section: `run_all [NAME…]` calls the named
//! experiments of [`clic_bench::experiments::EXPERIMENTS`] (none = all) in
//! table order, in this process, against one [`Suite`] — so each trace is
//! generated once, by the first experiment that needs it. `--jobs N` sizes
//! the thread pool every experiment's grid runs on; results are
//! bit-identical at any `N`.
//!
//! `--json PATH` writes the ledger (conventionally `BENCH_results.json`):
//! every experiment's report and wall time, plus the generation time of
//! every trace. The wall times are always printed in the final summary.

use std::time::Instant;

use clic_bench::experiments::{self, EXPERIMENTS};
use clic_bench::{ExperimentContext, Suite};
use clic_obs::json::JsonValue;

fn main() -> std::io::Result<()> {
    let (ctx, selected) = ExperimentContext::from_args("run_all", &experiments::names());
    let suite = Suite::new(ctx);
    let ctx = &suite.ctx;
    println!(
        "scale = {}, jobs = {}, tables under {}",
        ctx.scale_label(),
        ctx.jobs,
        ctx.out_dir.display()
    );

    let started = Instant::now();
    let mut runs = Vec::new();
    for (name, experiment) in EXPERIMENTS {
        if !selected.contains(&name) {
            continue;
        }
        println!("\n===== {name} =====");
        let experiment_started = Instant::now();
        let outcome = experiment(&suite);
        let wall_time_s = experiment_started.elapsed().as_secs_f64();
        if let Err(err) = &outcome {
            eprintln!("{name} failed: {err}");
        }
        runs.push((name, wall_time_s, outcome.ok()));
    }
    let total_wall_time_s = started.elapsed().as_secs_f64();

    println!("\n===== per-experiment wall time =====");
    for (name, wall_time_s, metrics) in &runs {
        let status = if metrics.is_some() { "ok" } else { "FAILED" };
        println!("{name:<28} {wall_time_s:>8.1}s  {status}");
    }
    println!(
        "{:<28} {total_wall_time_s:>8.1}s  (total, --jobs {})",
        "all experiments", ctx.jobs
    );
    let failed: Vec<&str> = runs
        .iter()
        .filter(|(_, _, metrics)| metrics.is_none())
        .map(|(name, _, _)| *name)
        .collect();
    let traces = suite.built_traces();
    println!("\n===== trace generation (included above) =====");
    for ((preset, page_offset, seed), build_s) in &traces {
        println!(
            "{:<10} offset {page_offset:<10} seed {seed:<3} {build_s:>8.1}s",
            preset.name()
        );
    }

    ctx.write_json(&JsonValue::object([
        ("suite", JsonValue::str("run_all")),
        ("jobs", JsonValue::num(ctx.jobs as f64)),
        ("total_wall_time_s", JsonValue::num(total_wall_time_s)),
        (
            "experiments",
            JsonValue::Array(
                runs.into_iter()
                    .map(|(name, wall_time_s, metrics)| {
                        JsonValue::object([
                            ("name", JsonValue::str(name)),
                            ("ok", JsonValue::Bool(metrics.is_some())),
                            ("wall_time_s", JsonValue::num(wall_time_s)),
                            (
                                "report",
                                metrics.map_or(JsonValue::Null, |metrics| {
                                    ctx.report(name, wall_time_s, metrics)
                                }),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "traces",
            JsonValue::Array(
                traces
                    .into_iter()
                    .map(|((preset, page_offset, seed), build_s)| {
                        JsonValue::object([
                            ("preset", JsonValue::str(preset.name())),
                            ("page_offset", JsonValue::num(page_offset as f64)),
                            ("seed", JsonValue::num(seed as f64)),
                            ("build_s", JsonValue::num(build_s)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]))?;

    if failed.is_empty() {
        println!("\nall experiments completed");
        Ok(())
    } else {
        eprintln!("\nexperiments failed: {failed:?}");
        std::process::exit(1);
    }
}
