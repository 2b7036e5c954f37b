//! Ablation for the paper's proposed future-work extension (Sections 6.3
//! and 8): grouping related hint sets with a decision tree so that CLIC's
//! bounded hint tracking survives floods of low-value hint types.
//!
//! Repeats the Figure 10 noise experiment three ways:
//!
//! * CLIC with top-k tracking (k = 100) on the noisy trace (the paper's
//!   degraded configuration),
//! * CLIC with *unbounded* tracking on the noisy trace (what the degradation
//!   costs relative to unlimited space), and
//! * CLIC with top-k tracking on the noisy trace after decision-tree
//!   grouping (the proposed remedy: the tree learns to ignore the noise
//!   attributes).

use std::io;

use cache_sim::simulate;
use clic_core::train_grouping_from_prefix;
use clic_obs::json::JsonValue;
use trace_gen::{inject_noise, NoiseConfig, TracePreset};

use crate::{build_policy, window_for_trace, ResultTable, Suite};

const NOISE_LEVELS: [u32; 4] = [0, 1, 2, 3];
const MAX_GROUPS: u32 = 64;

pub(super) fn run(suite: &Suite) -> io::Result<JsonValue> {
    let preset = TracePreset::Db2C300;
    let base = suite.preset(preset);
    let cache = preset.reference_cache_size(suite.ctx.scale);

    let mut table = ResultTable::new(
        format!(
            "Hint-set grouping vs noise (trace {}, {cache}-page cache, k = 100, {MAX_GROUPS} groups)",
            preset.name()
        ),
        &[
            "T",
            "hint sets",
            "CLIC k=100",
            "CLIC unbounded",
            "CLIC k=100 + grouping",
            "groups learned",
        ],
    );

    let mut metrics = Vec::new();
    for &t in &NOISE_LEVELS {
        let noisy = inject_noise(base, NoiseConfig::new(t));
        let hint_sets = noisy.summary().distinct_hint_sets;
        let window = window_for_trace(&noisy);

        let run = |trace: &cache_sim::Trace, name: &str| {
            let mut policy = build_policy(name, trace, cache, window);
            simulate(policy.as_mut(), trace).read_hit_ratio()
        };
        let bounded = run(&noisy, "CLIC(k=100)");
        let unbounded = run(&noisy, "CLIC");

        // Learn the grouping from the first 20% of the noisy trace, then run
        // bounded CLIC over the grouped rewrite.
        let grouping = train_grouping_from_prefix(&noisy, 0.2, MAX_GROUPS);
        let grouped_trace = grouping.apply(&noisy);
        let grouped = run(&grouped_trace, "CLIC(k=100)");
        let groups = grouping.groups_for(cache_sim::ClientId(0));

        table.push_row(vec![
            t.to_string(),
            hint_sets.to_string(),
            format!("{:.1}%", bounded * 100.0),
            format!("{:.1}%", unbounded * 100.0),
            format!("{:.1}%", grouped * 100.0),
            groups.to_string(),
        ]);
        println!("T={t} done");
        metrics.push((
            format!("T={t}"),
            JsonValue::object([
                ("bounded", JsonValue::num(bounded)),
                ("unbounded", JsonValue::num(unbounded)),
                ("grouped", JsonValue::num(grouped)),
            ]),
        ));
    }
    table.emit(&suite.ctx.out_dir, "ablation_generalization")?;
    Ok(JsonValue::Object(metrics))
}
