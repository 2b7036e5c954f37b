//! Figure 2 (table): the hint types generated by the DB2 and MySQL storage
//! clients and the cardinalities of their value domains, as observed in the
//! generated traces. The observed-cardinality scans are per-preset
//! independent, so the presets run as cells of the pool's ordered `par_map`.

use std::collections::HashSet;
use std::io;

use clic_obs::json::JsonValue;
use trace_gen::TracePreset;

use crate::{ResultTable, Suite};

pub(super) fn run(suite: &Suite) -> io::Result<JsonValue> {
    let mut table = ResultTable::new(
        "Figure 2: hint types, declared domain cardinality, and observed cardinality",
        &["client", "hint type", "declared domain", "observed values"],
    );
    // One TPC-C client, one DB2 TPC-H client, one MySQL client, as in the
    // paper's table (which lists the TPC-C and TPC-H cardinalities for DB2
    // plus the MySQL hint types).
    let presets = [TracePreset::Db2C60, TracePreset::Db2H80, TracePreset::MyH65];
    let per_preset = suite.ctx.pool().par_map(&presets, |_, &preset| {
        let trace = suite.preset(preset);
        let mut rows = Vec::new();
        for schema in trace.catalog.schemas() {
            for (idx, hint_type) in schema.types.iter().enumerate() {
                let observed: HashSet<u32> = trace
                    .requests
                    .iter()
                    .map(|r| trace.catalog.resolve(r.hint).values[idx].0)
                    .collect();
                rows.push(vec![
                    schema.client_name.clone(),
                    hint_type.name.clone(),
                    hint_type.domain_cardinality.to_string(),
                    observed.len().to_string(),
                ]);
            }
        }
        rows
    });
    let mut metrics = Vec::new();
    for (preset, rows) in presets.iter().zip(per_preset) {
        metrics.push((preset.name().to_string(), JsonValue::int(rows.len() as u64)));
        for row in rows {
            table.push_row(row);
        }
    }
    table.emit(&suite.ctx.out_dir, "table_fig2")?;
    Ok(JsonValue::object([(
        "hint_types_per_client",
        JsonValue::Object(metrics),
    )]))
}
