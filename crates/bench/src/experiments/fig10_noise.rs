//! Figure 10: effect of injected "noise" hint types on the read hit ratio.
//! `T` useless hint types (domain 10, Zipf z = 1) are appended to every
//! request of the DB2 TPC-C traces; CLIC runs with top-k tracking fixed at
//! k = 100 and the 180 K-page reference cache, so growing `T` dilutes the
//! statistics of the genuinely useful hint sets. The noise levels of each
//! trace are independent cells (each derives its own noisy trace), fanned
//! across the pool's ordered `par_map`. Under the table, the text output
//! lists each cell's victim-search work ([`clic_core::SearchWork`]).

use std::io;

use cache_sim::simulate;
use trace_gen::{inject_noise, NoiseConfig, TracePreset};

use crate::{json::JsonValue, top_k_clic, window_for_trace, ResultTable, Suite};

const NOISE_LEVELS: [u32; 4] = [0, 1, 2, 3];

pub(super) fn run(suite: &Suite) -> io::Result<JsonValue> {
    let pool = suite.ctx.pool();
    let mut header = vec!["trace".to_string()];
    for &t in &NOISE_LEVELS {
        header.push(format!("T={t}"));
    }
    header.push("hint sets at T=3".to_string());
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = ResultTable::new(
        "Figure 10: read hit ratio vs number of injected noise hint types (k = 100)",
        &header_refs,
    );

    table
        .notes
        .push("Victim-search work per cell (clic_core::SearchWork):".to_string());
    let mut metrics = Vec::new();
    for preset in TracePreset::TPCC {
        let base = suite.preset(preset);
        let cache = preset.reference_cache_size(suite.ctx.scale);
        let cells = pool.par_map(&NOISE_LEVELS, |_, &t| {
            let noisy = inject_noise(base, NoiseConfig::new(t));
            let window = window_for_trace(&noisy);
            let mut policy = top_k_clic(100, cache, window);
            let result = simulate(&mut policy, &noisy);
            (
                result.read_hit_ratio(),
                noisy.summary().distinct_hint_sets,
                policy.search_work(),
            )
        });
        let mut row = vec![preset.name().to_string()];
        let mut per_level = Vec::new();
        for (&t, (ratio, _, work)) in NOISE_LEVELS.iter().zip(&cells) {
            row.push(format!("{:.1}%", ratio * 100.0));
            per_level.push((format!("T={t}"), JsonValue::num(*ratio)));
            table.notes.push(format!(
                "{} T={t}: {} lists visited by victim searches, {} scanned by minimum-key rebuilds",
                preset.name(),
                work.lists_visited,
                work.lists_scanned
            ));
        }
        let final_hint_sets = cells.last().map(|(_, sets, _)| *sets).unwrap_or(0);
        row.push(final_hint_sets.to_string());
        table.push_row(row);
        metrics.push((preset.name().to_string(), JsonValue::Object(per_level)));
    }
    table.emit(&suite.ctx.out_dir, "fig10_noise")?;
    Ok(JsonValue::Object(metrics))
}
