//! Figure 5 (table): the inventory of I/O request traces — database size,
//! DBMS buffer size, request count, distinct hint sets and distinct pages —
//! for all eight presets. On a fresh suite this is where the eight plain
//! traces get built, as cells of the pool's ordered `par_map`.

use std::io;

use trace_gen::TracePreset;

use crate::{json::JsonValue, ResultTable, Suite};

pub(super) fn run(suite: &Suite) -> io::Result<JsonValue> {
    let scale = suite.ctx.scale;
    let mut table = ResultTable::new(
        "Figure 5: I/O request traces",
        &[
            "trace",
            "DB size (pages)",
            "DBMS buffer (pages)",
            "requests",
            "reads",
            "writes",
            "distinct hint sets",
            "distinct pages",
        ],
    );
    let summaries = suite.ctx.pool().par_map(&TracePreset::ALL, |_, &preset| {
        suite.preset(preset).summary()
    });
    let mut metrics = Vec::new();
    for (preset, s) in TracePreset::ALL.iter().zip(&summaries) {
        table.push_row(vec![
            preset.name().to_string(),
            preset.database_pages(scale).to_string(),
            preset.buffer_pages(scale).to_string(),
            s.requests.to_string(),
            s.reads.to_string(),
            s.writes.to_string(),
            s.distinct_hint_sets.to_string(),
            s.distinct_pages.to_string(),
        ]);
        metrics.push((
            preset.name().to_string(),
            JsonValue::object([
                ("requests", JsonValue::num(s.requests as f64)),
                (
                    "distinct_hint_sets",
                    JsonValue::num(s.distinct_hint_sets as f64),
                ),
                ("distinct_pages", JsonValue::num(s.distinct_pages as f64)),
            ]),
        ));
    }
    table.emit(&suite.ctx.out_dir, "table_fig5")?;
    Ok(JsonValue::Object(metrics))
}
