//! Quickstart: generate a hinted storage-server trace from a simulated DB2
//! TPC-C client, run CLIC and the classical baselines over it, and print the
//! read hit ratios.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use clic::prelude::*;
use clic::sim::policies::BaselinePolicy;

fn main() {
    // 1. Generate a scaled-down version of the paper's DB2_C60 trace: a
    //    TPC-C-like workload running above a DBMS buffer pool; the storage
    //    server sees only what the buffer pool misses or writes back, each
    //    request tagged with DB2-style hints.
    let trace = TracePreset::Db2C60.build(PresetScale::Smoke);
    let summary = trace.summary();
    println!("trace: {summary}");

    // 2. Pick a storage-server cache size (pages) and compare policies.
    let cache_pages = 1_800;
    let window = suggested_window(trace.len() as u64);

    let mut policies: Vec<(&str, Box<dyn CachePolicy>)> = vec![(
        "OPT (offline bound)",
        Box::new(Opt::from_trace(&trace, cache_pages)),
    )];
    policies.extend(BaselinePolicy::ALL.map(|kind| (kind.name(), kind.build(cache_pages))));
    let clic = Clic::new(cache_pages, ClicConfig::default().with_window(window));
    policies.push(("CLIC", Box::new(clic)));

    // 3. Report.
    println!("\nserver cache: {cache_pages} pages");
    for (name, mut policy) in policies {
        let ratio = simulate(policy.as_mut(), &trace).read_hit_ratio();
        println!("  {name:<22} read hit ratio {:>5.1}%", ratio * 100.0);
    }

    // 4. Peek at what CLIC learned: the five highest-priority hint sets.
    let mut reports = analyze_trace(&trace);
    reports.sort_by(|a, b| b.priority.partial_cmp(&a.priority).unwrap());
    println!("\nhighest-priority hint sets (offline analysis):");
    for report in reports.iter().take(5) {
        println!(
            "  Pr = {:.6}  fhit = {:.2}  D = {:>9.0}  {}",
            report.priority, report.read_hit_rate, report.mean_distance, report.label
        );
    }
}
