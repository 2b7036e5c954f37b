//! Figures 6, 7 and 8: server-cache read hit ratio of OPT, TQ, LRU, ARC and
//! CLIC as a function of the server cache size — for the three DB2 TPC-C
//! traces (Figure 6), the three DB2 TPC-H traces (Figure 7) and the two MySQL
//! TPC-H traces (Figure 8). The (policy, cache size) grid of each trace is
//! fanned across the pool through the deterministic parallel executor.

use std::io;

use trace_gen::TracePreset;

use crate::{
    comparison_metrics, comparison_table, json::JsonValue, run_policy_comparison, Suite,
    PAPER_POLICIES,
};

fn policy_figure(suite: &Suite, figure: u32, presets: &[TracePreset]) -> io::Result<JsonValue> {
    let pool = suite.ctx.pool();
    let mut metrics = Vec::new();
    for &preset in presets {
        let sizes = preset.server_cache_sizes(suite.ctx.scale);
        let points = run_policy_comparison(&pool, suite.preset(preset), &sizes, &PAPER_POLICIES);
        let table = comparison_table(
            format!(
                "Figure {figure} ({}): read hit ratio vs server cache size",
                preset.name()
            ),
            &points,
            &sizes,
            &PAPER_POLICIES,
        );
        table.emit(
            &suite.ctx.out_dir,
            &format!("fig{figure:02}_{}", preset.name().to_lowercase()),
        )?;
        metrics.push((
            preset.name().to_string(),
            comparison_metrics(&points, &sizes, &PAPER_POLICIES),
        ));
    }
    Ok(JsonValue::Object(metrics))
}

pub(super) fn fig06_tpcc(suite: &Suite) -> io::Result<JsonValue> {
    policy_figure(suite, 6, &TracePreset::TPCC)
}

pub(super) fn fig07_tpch(suite: &Suite) -> io::Result<JsonValue> {
    policy_figure(suite, 7, &TracePreset::DB2_TPCH)
}

pub(super) fn fig08_mysql(suite: &Suite) -> io::Result<JsonValue> {
    policy_figure(suite, 8, &TracePreset::MYSQL)
}
