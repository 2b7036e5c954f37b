//! Compare every replacement policy in the workspace — the paper's baselines
//! LRU, ARC and TQ, CLIC, and the offline optimum — on one decision-support
//! (TPC-H-like) trace.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example policy_shootout
//! ```

use cache_sim::policies::{BaselinePolicy, Opt};
use clic::prelude::*;

fn main() {
    let preset = TracePreset::Db2H400;
    let trace = preset.build(PresetScale::Smoke);
    println!("trace: {}", trace.summary());

    let cache_pages = 1_800;
    let window = suggested_window(trace.len() as u64);

    // The offline optimum (upper bound), every online baseline from the
    // simulator crate, and CLIC with full and with bounded tracking.
    let mut policies: Vec<(&str, Box<dyn CachePolicy>)> =
        vec![("OPT", Box::new(Opt::from_trace(&trace, cache_pages)))];
    policies.extend(BaselinePolicy::ALL.map(|kind| (kind.name(), kind.build(cache_pages))));
    let config = ClicConfig::default().with_window(window);
    let clic = Clic::new(cache_pages, config);
    policies.push(("CLIC", Box::new(clic)));
    let clic_topk = Clic::new(cache_pages, config.with_tracking(TrackingMode::TopK(10)));
    policies.push(("CLIC(k=10)", Box::new(clic_topk)));

    let mut rows: Vec<(&str, f64)> = policies
        .into_iter()
        .map(|(name, mut policy)| (name, simulate(policy.as_mut(), &trace).read_hit_ratio()))
        .collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("\n{:<12} {:>16}", "policy", "read hit ratio");
    for (name, ratio) in &rows {
        println!("{:<12} {:>15.1}%", name, ratio * 100.0);
    }
    println!(
        "\nScan-heavy decision-support workloads defeat recency- and frequency-based\n\
         policies; the hint-aware CLIC avoids caching one-shot scan pages and keeps\n\
         the re-referenced index/dimension pages instead."
    );
}
