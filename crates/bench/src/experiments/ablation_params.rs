//! Parameter ablations beyond the paper's figures, for the design choices
//! DESIGN.md calls out:
//!
//! * outqueue size (`Noutq` as a multiple of the cache size; paper uses 5×),
//! * priority-evaluation window size `W`,
//! * smoothing factor `r` (paper uses 1.0),
//! * metadata charging on/off,
//! * on-line statistics vs oracle (whole-trace) statistics.
//!
//! Every sweep is a grid of independent CLIC configurations over the same
//! trace, submitted through the parallel executor.

use std::io;

use cache_sim::compare_policies;
use clic_core::{analyze_trace, Clic, ClicConfig};
use trace_gen::TracePreset;

use crate::{json::JsonValue, window_for_trace, ResultTable, Suite};

pub(super) fn run(suite: &Suite) -> io::Result<JsonValue> {
    let pool = suite.ctx.pool();
    let out_dir = &suite.ctx.out_dir;
    let preset = TracePreset::Db2C300;
    let trace = suite.preset(preset);
    let cache = preset.reference_cache_size(suite.ctx.scale);
    let base_window = window_for_trace(trace);

    // Runs one grid of configurations through the executor, returning the
    // read hit ratio per configuration in input order.
    let run_grid = |configs: &[ClicConfig]| -> Vec<f64> {
        compare_policies(&pool, trace, configs, |config| {
            Box::new(Clic::new(cache, *config))
        })
        .iter()
        .map(|result| result.read_hit_ratio())
        .collect()
    };
    let mut metrics = Vec::new();

    // Outqueue factor sweep.
    let factors = [0.0, 1.0, 2.0, 5.0, 10.0];
    let configs: Vec<ClicConfig> = factors
        .iter()
        .map(|&factor| {
            ClicConfig::default()
                .with_window(base_window)
                .with_outqueue_factor(factor)
        })
        .collect();
    let ratios = run_grid(&configs);
    let mut outqueue_table = ResultTable::new(
        format!(
            "Ablation: outqueue size (trace {}, {cache}-page cache)",
            preset.name()
        ),
        &["outqueue factor", "read hit ratio"],
    );
    let mut per_factor = Vec::new();
    for (&factor, &ratio) in factors.iter().zip(&ratios) {
        outqueue_table.push_row(vec![format!("{factor}"), format!("{:.1}%", ratio * 100.0)]);
        per_factor.push((format!("{factor}"), JsonValue::num(ratio)));
    }
    outqueue_table.emit(out_dir, "ablation_outqueue")?;
    metrics.push(("outqueue_factor".to_string(), JsonValue::Object(per_factor)));

    // Window sweep.
    let windows: Vec<u64> = [80u64, 40, 20, 10, 5, 1]
        .iter()
        .map(|&divisor| (trace.len() as u64 / divisor).max(1_000))
        .collect();
    let configs: Vec<ClicConfig> = windows
        .iter()
        .map(|&window| ClicConfig::default().with_window(window))
        .collect();
    let ratios = run_grid(&configs);
    let mut window_table = ResultTable::new(
        format!(
            "Ablation: priority window W (trace {}, {cache}-page cache)",
            preset.name()
        ),
        &["window (requests)", "read hit ratio"],
    );
    let mut per_window = Vec::new();
    for (&window, &ratio) in windows.iter().zip(&ratios) {
        window_table.push_row(vec![window.to_string(), format!("{:.1}%", ratio * 100.0)]);
        per_window.push((window.to_string(), JsonValue::num(ratio)));
    }
    window_table.emit(out_dir, "ablation_window")?;
    metrics.push(("window".to_string(), JsonValue::Object(per_window)));

    // Smoothing sweep.
    let smoothings = [0.1, 0.25, 0.5, 0.75, 1.0];
    let configs: Vec<ClicConfig> = smoothings
        .iter()
        .map(|&r| {
            ClicConfig::default()
                .with_window(base_window)
                .with_smoothing(r)
        })
        .collect();
    let ratios = run_grid(&configs);
    let mut smoothing_table = ResultTable::new(
        format!(
            "Ablation: smoothing factor r (trace {}, {cache}-page cache)",
            preset.name()
        ),
        &["r", "read hit ratio"],
    );
    let mut per_r = Vec::new();
    for (&r, &ratio) in smoothings.iter().zip(&ratios) {
        smoothing_table.push_row(vec![format!("{r}"), format!("{:.1}%", ratio * 100.0)]);
        per_r.push((format!("{r}"), JsonValue::num(ratio)));
    }
    smoothing_table.emit(out_dir, "ablation_smoothing")?;
    metrics.push(("smoothing".to_string(), JsonValue::Object(per_r)));

    // Metadata charging and oracle statistics. The oracle cell imports
    // whole-trace priorities into its policy, which the executor's builder
    // closure supports like any other construction step; its window is
    // longer than any trace, so no window boundary ever smooths them into
    // on-line statistics.
    let reports = analyze_trace(trace);
    #[derive(Clone, Copy)]
    enum Variant {
        Charged,
        Free,
        Oracle,
    }
    let cells = [Variant::Charged, Variant::Free, Variant::Oracle];
    let reports_ref = &reports;
    let results = compare_policies(&pool, trace, &cells, |variant| match variant {
        Variant::Charged => Box::new(Clic::new(
            cache,
            ClicConfig::default().with_window(base_window),
        )),
        Variant::Free => Box::new(Clic::new(
            cache,
            ClicConfig::default()
                .with_window(base_window)
                .with_metadata_charging(false),
        )),
        Variant::Oracle => {
            let mut oracle = Clic::new(cache, ClicConfig::default().with_window(u64::MAX / 2));
            oracle.import_priorities(reports_ref.iter().map(|r| (r.hint, r.priority)));
            Box::new(oracle)
        }
    });
    let mut misc_table = ResultTable::new(
        format!(
            "Ablation: metadata charge and oracle statistics (trace {})",
            preset.name()
        ),
        &["variant", "read hit ratio"],
    );
    let labels = [
        "metadata charged (paper)",
        "metadata free",
        "oracle (whole-trace) statistics",
    ];
    let mut per_variant = Vec::new();
    for (label, result) in labels.iter().zip(&results) {
        misc_table.push_row(vec![
            (*label).into(),
            format!("{:.1}%", result.read_hit_ratio() * 100.0),
        ]);
        per_variant.push((label.to_string(), JsonValue::num(result.read_hit_ratio())));
    }
    misc_table.emit(out_dir, "ablation_misc")?;
    metrics.push(("variants".to_string(), JsonValue::Object(per_variant)));

    Ok(JsonValue::Object(metrics))
}
