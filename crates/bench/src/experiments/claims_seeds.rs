//! The smoke seed sweep of Figures 6-8: every Figure 6-8 trace at smoke
//! scale, generated from seed 42 (the figures' own seed) and from seeds 1-7,
//! with TQ, LRU, ARC and CLIC at every figure cache size. Each row gives
//! CLIC's margin over the better of LRU and ARC, in points, so a verdict that
//! holds at one seed only shows as one. OPT, an upper bound and the costliest
//! policy, is left out.
//!
//! The sweep runs at smoke scale whatever the suite's scale: it is the cheap
//! check that rides along with every smoke run. Its (trace, seed) cells are
//! fanned across the pool's ordered `par_map`; each builds its own trace and
//! drops it when its grid is done, so at most one trace per job is held.

use std::io;

use cache_sim::ThreadPool;
use clic_obs::json::JsonValue;
use trace_gen::{PresetScale, TracePreset};

use crate::{run_policy_comparison, ResultTable, Suite};

/// The trace seeds swept: the figures' seed first.
const SEEDS: [u64; 8] = [42, 1, 2, 3, 4, 5, 6, 7];

/// The policies swept, in column order.
const POLICIES: [&str; 4] = ["TQ", "LRU", "ARC", "CLIC"];

/// CLIC's margin over the better of LRU and ARC, in points, from one row's
/// ratios in `POLICIES` order.
fn margin([_, lru, arc, clic]: [f64; 4]) -> f64 {
    (clic - lru.max(arc)) * 100.0
}

pub(super) fn run(suite: &Suite) -> io::Result<JsonValue> {
    let scale = PresetScale::Smoke;
    let cells: Vec<(TracePreset, u64)> = TracePreset::ALL
        .iter()
        .flat_map(|&preset| SEEDS.iter().map(move |&seed| (preset, seed)))
        .collect();
    let serial = ThreadPool::new(1);
    // Per cell, one row per figure cache size: each policy's read hit
    // ratio, in `POLICIES` order.
    let grids: Vec<Vec<[f64; 4]>> = suite.ctx.pool().par_map(&cells, |_, &(preset, seed)| {
        let trace = preset.build_with_offset(scale, 0, seed);
        let sizes = preset.server_cache_sizes(scale);
        let points = run_policy_comparison(&serial, &trace, &sizes, &POLICIES);
        sizes
            .iter()
            .map(|&size| {
                POLICIES.map(|policy| {
                    points
                        .iter()
                        .find(|p| p.policy == policy && p.cache_pages == size)
                        .map_or(f64::NAN, |p| p.result.read_hit_ratio())
                })
            })
            .collect()
    });

    let mut table = ResultTable::new(
        "Figures 6-8 at smoke scale over trace seeds: read hit ratio, and CLIC's margin over the better of LRU and ARC",
        &[
            "trace",
            "seed",
            "cache pages",
            "TQ",
            "LRU",
            "ARC",
            "CLIC",
            "CLIC margin (points)",
        ],
    );
    let mut metrics = Vec::new();
    // `cells` runs over `SEEDS` within each preset, so each preset's grids
    // are one chunk.
    for (&preset, grids) in TracePreset::ALL.iter().zip(grids.chunks(SEEDS.len())) {
        let sizes = preset.server_cache_sizes(scale);
        for (&seed, rows) in SEEDS.iter().zip(grids) {
            for (&size, &ratios) in sizes.iter().zip(rows) {
                let mut row = vec![
                    preset.name().to_string(),
                    seed.to_string(),
                    size.to_string(),
                ];
                row.extend(ratios.iter().map(|r| format!("{:.1}%", r * 100.0)));
                row.push(format!("{:+.1}", margin(ratios)));
                table.push_row(row);
            }
        }
        for (k, &size) in sizes.iter().enumerate() {
            let margins: Vec<(u64, f64)> = SEEDS
                .iter()
                .zip(grids)
                .map(|(&seed, rows)| (seed, margin(rows[k])))
                .collect();
            let held = margins.iter().filter(|(_, m)| *m >= 0.0).count();
            let (worst_seed, worst) = margins
                .iter()
                .copied()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap_or((0, f64::NAN));
            if held != 0 && held != margins.len() {
                table.notes.push(format!(
                    "{} at {size} pages: CLIC >= max(LRU, ARC) at {held} of {} seeds; smallest margin {worst:+.1} at seed {worst_seed}",
                    preset.name(),
                    margins.len()
                ));
            }
            metrics.push((
                format!("{}@{size}", preset.name()),
                JsonValue::Object(vec![
                    ("seeds_held".to_string(), JsonValue::int(held as u64)),
                    ("min_margin_points".to_string(), JsonValue::num(worst)),
                    ("min_margin_seed".to_string(), JsonValue::int(worst_seed)),
                ]),
            ));
        }
    }
    table.emit(&suite.ctx.out_dir, "claims_seeds")?;
    Ok(JsonValue::Object(metrics))
}
