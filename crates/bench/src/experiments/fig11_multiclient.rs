//! Figure 11: multiple storage clients sharing one server cache. Three DB2
//! TPC-C traces are interleaved round-robin into one multi-client trace; a
//! shared cache managed by CLIC (top-k, k = 100) is compared against the
//! baseline of statically partitioning the same space into three private
//! per-client caches (the paper partitions the cache equally and runs each
//! client's trace against its own partition). The two configurations are
//! independent simulations over the same interleaved trace, so they run as
//! two cells of the parallel executor.

use std::io;

use cache_sim::policy::PolicyFactory;
use cache_sim::{compare_policies, BoxedPolicy, PartitionedCache};
use clic_core::{Clic, ClicConfig, TrackingMode};
use clic_obs::json::JsonValue;
use trace_gen::TracePreset;

use crate::{window_for_trace, ResultTable, Suite};

struct ClicFactory {
    window: u64,
}

impl PolicyFactory for ClicFactory {
    fn name(&self) -> String {
        "CLIC".to_string()
    }
    fn build(&self, capacity: usize) -> BoxedPolicy {
        Box::new(Clic::new(
            capacity,
            ClicConfig::default()
                .with_window(self.window)
                .with_tracking(TrackingMode::TopK(100)),
        ))
    }
}

pub(super) fn run(suite: &Suite) -> io::Result<JsonValue> {
    let presets = TracePreset::TPCC;
    let (combined, clients) = suite.tpcc_mix();

    let shared_cache = presets[0].reference_cache_size(suite.ctx.scale); // 180K pages in the paper
    let per_client = shared_cache / presets.len();
    let factory = ClicFactory {
        window: window_for_trace(&combined),
    };

    #[derive(Clone, Copy)]
    enum Mode {
        Shared,
        Partitioned,
    }
    let cells = [Mode::Shared, Mode::Partitioned];
    let results = compare_policies(&suite.ctx.pool(), &combined, &cells, |mode| match mode {
        Mode::Shared => factory.build(shared_cache),
        Mode::Partitioned => Box::new(PartitionedCache::new(&factory, &clients, per_client)),
    });
    let shared_result = &results[0];
    let partitioned_result = &results[1];

    let mut table = ResultTable::new(
        format!(
            "Figure 11: per-client read hit ratio, {shared_cache}-page shared cache vs {} x {per_client}-page private caches",
            presets.len()
        ),
        &["trace", "shared cache (CLIC)", "private caches"],
    );
    let mut metrics = Vec::new();
    for (preset, client) in presets.iter().zip(clients.iter()) {
        table.push_row(vec![
            preset.name().to_string(),
            format!(
                "{:.1}%",
                shared_result.client_read_hit_ratio(*client) * 100.0
            ),
            format!(
                "{:.1}%",
                partitioned_result.client_read_hit_ratio(*client) * 100.0
            ),
        ]);
        metrics.push((
            preset.name().to_string(),
            JsonValue::object([
                (
                    "shared",
                    JsonValue::num(shared_result.client_read_hit_ratio(*client)),
                ),
                (
                    "partitioned",
                    JsonValue::num(partitioned_result.client_read_hit_ratio(*client)),
                ),
            ]),
        ));
    }
    table.push_row(vec![
        "overall".to_string(),
        format!("{:.1}%", shared_result.read_hit_ratio() * 100.0),
        format!("{:.1}%", partitioned_result.read_hit_ratio() * 100.0),
    ]);
    metrics.push((
        "overall".to_string(),
        JsonValue::object([
            ("shared", JsonValue::num(shared_result.read_hit_ratio())),
            (
                "partitioned",
                JsonValue::num(partitioned_result.read_hit_ratio()),
            ),
        ]),
    ));
    table.emit(&suite.ctx.out_dir, "fig11_multiclient")?;
    Ok(JsonValue::Object(metrics))
}
