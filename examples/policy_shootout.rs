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

    let mut rows: Vec<(String, f64)> = Vec::new();

    // Offline optimum (upper bound).
    let mut opt = Opt::from_trace(&trace, cache_pages);
    rows.push(("OPT".into(), simulate(&mut opt, &trace).read_hit_ratio()));

    // Every online baseline from the simulator crate.
    for kind in BaselinePolicy::ALL {
        let mut policy = kind.build(cache_pages);
        let ratio = simulate(policy.as_mut(), &trace).read_hit_ratio();
        rows.push((kind.name().to_string(), ratio));
    }

    // CLIC, full tracking and bounded tracking.
    let mut clic = Clic::new(cache_pages, ClicConfig::default().with_window(window));
    rows.push(("CLIC".into(), simulate(&mut clic, &trace).read_hit_ratio()));
    let mut clic_topk = Clic::new(
        cache_pages,
        ClicConfig::default()
            .with_window(window)
            .with_tracking(TrackingMode::TopK(10)),
    );
    rows.push((
        "CLIC(k=10)".into(),
        simulate(&mut clic_topk, &trace).read_hit_ratio(),
    ));

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
