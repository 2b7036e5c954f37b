//! Figure 3: hint-set caching priority versus frequency of occurrence for the
//! DB2_C60 trace. Each row is one distinct hint set (the paper plots these as
//! a scatter); the labels let a reader verify the headline observations, e.g.
//! that STOCK-table replacement writes rank far above ORDER_LINE-table reads.

use std::io;

use clic_core::analyze_trace;
use clic_obs::json::JsonValue;
use trace_gen::TracePreset;

use crate::{ResultTable, Suite};

pub(super) fn run(suite: &Suite) -> io::Result<JsonValue> {
    let trace = suite.preset(TracePreset::Db2C60);
    let mut reports = analyze_trace(trace);
    reports.sort_by(|a, b| b.priority.partial_cmp(&a.priority).unwrap());

    let mut table = ResultTable::new(
        "Figure 3: hint-set priority vs frequency (DB2_C60)",
        &[
            "priority Pr(H)",
            "frequency",
            "fhit(H)",
            "D(H)",
            "N(H)",
            "Nr(H)",
            "hint set",
        ],
    );
    for r in &reports {
        table.push_row(vec![
            format!("{:.8}", r.priority),
            format!("{:.6}", r.frequency),
            format!("{:.4}", r.read_hit_rate),
            format!("{:.1}", r.mean_distance),
            r.requests.to_string(),
            r.read_rereferences.to_string(),
            r.label.clone(),
        ]);
    }
    table.emit(&suite.ctx.out_dir, "fig03_hint_priorities")?;

    // Print the paper's two annotated observations explicitly.
    let stock_repl = reports
        .iter()
        .find(|r| r.label.contains("object ID=8") && r.label.contains("request type=3"));
    let orderline_read = reports
        .iter()
        .find(|r| r.label.contains("object ID=6") && r.label.contains("request type=0"));
    if let (Some(stock), Some(ol)) = (stock_repl, orderline_read) {
        println!(
            "STOCK replacement writes: Pr = {:.8} (freq {:.4}); ORDER_LINE reads: Pr = {:.8} (freq {:.4})",
            stock.priority, stock.frequency, ol.priority, ol.frequency
        );
        println!(
            "=> STOCK replacement writes are the better caching opportunity: {}",
            stock.priority > ol.priority
        );
    }
    Ok(JsonValue::object([
        ("hint_sets", JsonValue::num(reports.len() as f64)),
        (
            "top_priority",
            reports
                .first()
                .map(|r| JsonValue::num(r.priority))
                .unwrap_or(JsonValue::Null),
        ),
    ]))
}
