//! Criterion micro-benchmark: update throughput and top-k recall of the
//! frequent-item algorithms (Space-Saving vs exact counting) on a
//! Zipf-distributed hint-set stream: what the paper's bounded-space tracker
//! (Section 5) costs and recalls next to the unbounded one.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use stream_stats::{ExactCounter, FrequencyEstimator, SpaceSaving};

/// Deterministic Zipf-ish stream of `n` items over a `domain`-value universe.
fn zipf_stream(n: usize, domain: u64) -> Vec<u64> {
    let mut state = 0x853c49e6748fea9bu64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    (0..n)
        .map(|_| {
            let r = next() % domain.max(1);
            domain / (1 + r)
        })
        .collect()
}

fn bench_frequent_items(criterion: &mut Criterion) {
    let stream = zipf_stream(500_000, 10_000);
    let k = 100;

    let mut group = criterion.benchmark_group("frequent_items");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.sample_size(10);

    group.bench_with_input(BenchmarkId::new("space_saving", k), &stream, |b, stream| {
        b.iter(|| {
            let mut ss: SpaceSaving<u64> = SpaceSaving::new(k);
            for &item in stream {
                ss.observe(item);
            }
            ss.len()
        })
    });
    group.bench_with_input(
        BenchmarkId::new("exact", "unbounded"),
        &stream,
        |b, stream| {
            b.iter(|| {
                let mut exact: ExactCounter<u64> = ExactCounter::new();
                for &item in stream {
                    exact.observe(item);
                }
                exact.distinct()
            })
        },
    );
    group.finish();

    // Report top-k recall once (printed, not timed) so the accuracy side of
    // the ablation is visible next to the throughput numbers.
    let mut exact: ExactCounter<u64> = ExactCounter::new();
    let mut ss: SpaceSaving<u64> = SpaceSaving::new(k);
    for &item in &stream {
        exact.observe(item);
        ss.observe(item);
    }
    let truth: std::collections::HashSet<u64> =
        exact.top_k(k).into_iter().map(|(item, _)| item).collect();
    let recall = |tracked: Vec<(u64, u64)>| {
        let hits = tracked
            .iter()
            .filter(|(item, _)| truth.contains(item))
            .count();
        hits as f64 / truth.len() as f64
    };
    println!(
        "top-{k} recall: space-saving {:.3}",
        recall(FrequencyEstimator::tracked(&ss)),
    );
}

criterion_group!(benches, bench_frequent_items);
criterion_main!(benches);
