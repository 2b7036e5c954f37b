//! Figure 9: effect of top-k hint-set filtering on the server-cache read hit
//! ratio. CLIC is restricted to tracking only the `k` most frequent hint sets
//! (Space-Saving based), with `k` swept from 1 to 100, on the DB2 TPC-C and
//! DB2 TPC-H traces with the paper's 180 K-page reference cache. Each
//! trace's k-sweep is fanned across the pool through the deterministic
//! parallel executor.

use std::io;

use cache_sim::compare_policies;
use clic_obs::json::JsonValue;
use trace_gen::TracePreset;

use crate::{build_policy, window_for_trace, ResultTable, Suite};

const K_VALUES: [usize; 8] = [1, 2, 5, 10, 20, 50, 100, usize::MAX];

fn policy_name(k: usize) -> String {
    if k == usize::MAX {
        "CLIC".to_string()
    } else {
        format!("CLIC(k={k})")
    }
}

pub(super) fn run(suite: &Suite) -> io::Result<JsonValue> {
    let pool = suite.ctx.pool();
    let mut metrics = Vec::new();
    for (group_name, presets, stem) in [
        ("DB2 TPC-C", &TracePreset::TPCC[..], "fig09_tpcc"),
        ("DB2 TPC-H", &TracePreset::DB2_TPCH[..], "fig09_tpch"),
        ("MySQL TPC-H", &TracePreset::MYSQL[..], "fig09_mysql"),
    ] {
        let mut header = vec!["trace".to_string(), "hint sets".to_string()];
        for &k in &K_VALUES {
            if k == usize::MAX {
                header.push("all".to_string());
            } else {
                header.push(format!("k={k}"));
            }
        }
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut table = ResultTable::new(
            format!("Figure 9 ({group_name}): read hit ratio vs number of tracked hint sets"),
            &header_refs,
        );
        for &preset in presets {
            let trace = suite.preset(preset);
            let cache = preset.reference_cache_size(suite.ctx.scale);
            let window = window_for_trace(trace);
            // One independent simulation per k, submitted as a grid.
            let results = compare_policies(&pool, trace, &K_VALUES, |&k| {
                build_policy(&policy_name(k), trace, cache, window)
            });
            let mut row = vec![
                preset.name().to_string(),
                trace.summary().distinct_hint_sets.to_string(),
            ];
            let mut per_k = Vec::new();
            for (&k, result) in K_VALUES.iter().zip(&results) {
                row.push(format!("{:.1}%", result.read_hit_ratio() * 100.0));
                let label = if k == usize::MAX {
                    "all".to_string()
                } else {
                    k.to_string()
                };
                per_k.push((label, JsonValue::num(result.read_hit_ratio())));
            }
            table.push_row(row);
            metrics.push((preset.name().to_string(), JsonValue::Object(per_k)));
        }
        table.emit(&suite.ctx.out_dir, stem)?;
    }
    Ok(JsonValue::Object(metrics))
}
