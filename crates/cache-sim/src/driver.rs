//! The simulation driver: feeds a trace through a policy and collects stats.
//!
//! Besides the serial [`simulate`]/[`sweep`] pair, this module hosts the
//! parallel replay engine built on [`crate::par::ThreadPool`]:
//!
//! * [`compare_policies`] — the generic executor fanning independent
//!   simulation cells (one policy instance each) across worker threads while
//!   returning results in exact cell order,
//! * [`sweep_parallel`] — [`sweep`] on top of the executor,
//! * [`simulate_partitioned_parallel`] — replay of disjoint page partitions
//!   (the [`crate::partitioned`]-by-pages analogue of a sharded server)
//!   merged via [`SimulationResult::merge_from`], bit-identical at every
//!   job count,
//! * [`partition_requests`] / [`partition_capacities`] — the one place a
//!   trace and a capacity are split the way a sharded deployment splits
//!   them, shared with the storage replay and the sharded server.

use std::collections::BTreeMap;

use crate::par::ThreadPool;
use crate::policy::{AccessOutcome, CachePolicy, PolicyFactory};
use crate::request::{ClientId, Request};
use crate::stats::CacheStats;
use crate::trace::Trace;

/// The result of running one policy over one trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimulationResult {
    /// Name of the policy that was simulated.
    pub policy: String,
    /// Cache capacity in pages.
    pub capacity: usize,
    /// Aggregate statistics over the whole trace.
    pub stats: CacheStats,
    /// Statistics broken down by the client that issued each request
    /// (used by the paper's multi-client experiment, Figure 11).
    pub per_client: BTreeMap<ClientId, CacheStats>,
}

impl SimulationResult {
    /// Read hit ratio over the whole trace.
    pub fn read_hit_ratio(&self) -> f64 {
        self.stats.read_hit_ratio()
    }

    /// Read hit ratio restricted to requests from one client, or 0.0 if that
    /// client issued no requests.
    pub fn client_read_hit_ratio(&self, client: ClientId) -> f64 {
        self.per_client
            .get(&client)
            .map(|s| s.read_hit_ratio())
            .unwrap_or(0.0)
    }

    /// Merges another result's counters into this one: aggregate statistics
    /// add up and per-client breakdowns combine client by client.
    ///
    /// This is the aggregation path for deployments that observe one request
    /// stream through several accountants — for example a sharded server
    /// summing its per-shard statistics, or a load harness combining the
    /// results of concurrent client threads. The policy name and capacity of
    /// `self` are kept.
    pub fn merge_from(&mut self, other: &SimulationResult) {
        self.stats += other.stats;
        for (client, stats) in &other.per_client {
            *self.per_client.entry(*client).or_default() += *stats;
        }
    }
}

/// Records one request's [`AccessOutcome`] into aggregate and per-client
/// statistics — the single hit/miss accounting rule shared by [`simulate`]
/// and live servers, so every driver measures policies identically.
pub fn record_outcome(
    stats: &mut CacheStats,
    per_client: &mut BTreeMap<ClientId, CacheStats>,
    req: &Request,
    outcome: AccessOutcome,
) {
    let client_stats = per_client.entry(req.client).or_default();
    if req.is_read() {
        stats.record_read(outcome.hit);
        client_stats.record_read(outcome.hit);
    } else {
        stats.record_write(outcome.hit);
        client_stats.record_write(outcome.hit);
    }
    stats.evictions += u64::from(outcome.evicted);
    client_stats.evictions += u64::from(outcome.evicted);
    if outcome.bypassed {
        stats.bypasses += 1;
        client_stats.bypasses += 1;
    }
}

/// One point of a cache-size sweep: the capacity and the simulation result.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Cache capacity in pages for this point.
    pub capacity: usize,
    /// The simulation result at this capacity.
    pub result: SimulationResult,
}

/// Runs `policy` over `trace` and returns aggregate and per-client statistics.
///
/// The driver — not the policy — is responsible for classifying hits and
/// misses, so every policy is measured identically: a request is a hit iff
/// the page was cached when the request arrived.
pub fn simulate(policy: &mut dyn CachePolicy, trace: &Trace) -> SimulationResult {
    simulate_with_callback(policy, trace, |_, _, _| {})
}

/// Number of requests replayed per [`CachePolicy::access_batch`] call by the
/// drivers in this workspace. Large enough to amortize per-batch dispatch,
/// lock acquisition, and accounting setup; small enough to keep the outcome
/// scratch buffer (and a prefetch-batched policy's working set) in cache.
///
/// This is the *one* shared replay granularity: [`simulate`] chunks traces by
/// it, the `clic-server` shard workers split over-long sub-batches by it, and
/// the load harness defaults its client batch size to it — so batching
/// effects are comparable across the offline and online drivers instead of
/// each picking its own magic number.
pub const REPLAY_CHUNK: usize = 256;

/// Like [`simulate`], but invokes `callback(seq, request, hit)` after every
/// request. Used by experiments that need time-resolved output (for example
/// warm-up exclusion or convergence plots).
///
/// The trace is replayed in chunks through [`CachePolicy::access_batch`]
/// (whose contract guarantees behaviour identical to per-request `access`
/// calls); the callback still observes every request, in trace order.
pub fn simulate_with_callback<F>(
    policy: &mut dyn CachePolicy,
    trace: &Trace,
    mut callback: F,
) -> SimulationResult
where
    F: FnMut(u64, &crate::Request, bool),
{
    let mut stats = CacheStats::new();
    let mut per_client: BTreeMap<ClientId, CacheStats> = BTreeMap::new();
    let mut outcomes = Vec::with_capacity(REPLAY_CHUNK);
    let mut first_seq = 0u64;
    for chunk in trace.requests.chunks(REPLAY_CHUNK) {
        outcomes.clear();
        policy.access_batch(chunk, first_seq, &mut outcomes);
        // A policy violating the one-outcome-per-request contract must fail
        // loudly here, not silently truncate the statistics via `zip` below
        // (one compare per chunk is free next to the replay itself).
        assert_eq!(
            outcomes.len(),
            chunk.len(),
            "access_batch of {} broke its outcome-count contract",
            policy.name()
        );
        for (i, (req, outcome)) in chunk.iter().zip(&outcomes).enumerate() {
            record_outcome(&mut stats, &mut per_client, req, *outcome);
            callback(first_seq + i as u64, req, outcome.hit);
        }
        first_seq += chunk.len() as u64;
    }
    SimulationResult {
        policy: policy.name(),
        capacity: policy.capacity(),
        stats,
        per_client,
    }
}

/// Runs the same policy (via its factory) at several cache capacities over
/// the same trace — the cache-size sweeps of Figures 6-8.
pub fn sweep(factory: &dyn PolicyFactory, trace: &Trace, capacities: &[usize]) -> Vec<SweepPoint> {
    capacities
        .iter()
        .map(|&capacity| {
            let mut policy = factory.build(capacity);
            let result = simulate(policy.as_mut(), trace);
            SweepPoint { capacity, result }
        })
        .collect()
}

/// The parallel simulation executor: builds one policy per cell of `cells`
/// via `build`, runs [`simulate`] over `trace` for each on the pool's worker
/// threads, and returns the results **in cell order** — exactly what the
/// serial loop `cells.iter().map(|c| simulate(build(c), trace))` would
/// return, because each cell is an independent deterministic simulation and
/// [`ThreadPool::par_map`] preserves input order.
///
/// This is the fan-out primitive behind the benchmark harness's policy
/// comparisons and sweep grids: a cell is any description of a simulation
/// (policy name, capacity, configuration, ...) that `build` can turn into a
/// policy instance.
pub fn compare_policies<C, B>(
    pool: &ThreadPool,
    trace: &Trace,
    cells: &[C],
    build: B,
) -> Vec<SimulationResult>
where
    C: Sync,
    B: Fn(&C) -> Box<dyn CachePolicy> + Sync,
{
    pool.par_map(cells, |_, cell| {
        let mut policy = build(cell);
        simulate(policy.as_mut(), trace)
    })
}

/// [`sweep`] on the parallel executor: same capacities, same trace, same
/// results in the same order, with the independent capacities simulated
/// concurrently on the pool's workers.
pub fn sweep_parallel(
    pool: &ThreadPool,
    factory: &(dyn PolicyFactory + Sync),
    trace: &Trace,
    capacities: &[usize],
) -> Vec<SweepPoint> {
    let results = compare_policies(pool, trace, capacities, |&capacity| factory.build(capacity));
    capacities
        .iter()
        .zip(results)
        .map(|(&capacity, result)| SweepPoint { capacity, result })
        .collect()
}

/// Splits `capacity` pages across `partitions` the way a sharded deployment
/// does: `capacity / partitions` each, the first `capacity % partitions`
/// partitions receiving one extra page.
///
/// # Panics
///
/// Panics if `partitions` is zero or exceeds `capacity`.
pub fn partition_capacities(capacity: usize, partitions: usize) -> Vec<usize> {
    assert!(partitions > 0, "at least one partition is required");
    assert!(
        capacity >= partitions,
        "capacity ({capacity}) must be at least one page per partition ({partitions})"
    );
    let base = capacity / partitions;
    let remainder = capacity % partitions;
    (0..partitions)
        .map(|i| base + usize::from(i < remainder))
        .collect()
}

/// Splits `trace` into `partitions` disjoint page partitions by the shared
/// [`crate::hash::page_partition`] rule (the placement a sharded server
/// produces): per partition, the requests plus their *global* trace
/// positions — partitions see gaps in the sequence, like shards of a server
/// drawing from one global sequencer.
///
/// # Panics
///
/// Panics (divide by zero) if `partitions` is zero and the trace is not
/// empty.
pub fn partition_requests(trace: &Trace, partitions: usize) -> Vec<Vec<(u64, Request)>> {
    let mut split: Vec<Vec<(u64, Request)>> = vec![Vec::new(); partitions];
    for (seq, req) in trace.requests.iter().enumerate() {
        split[crate::hash::page_partition(req.page, partitions)].push((seq as u64, *req));
    }
    split
}

/// Replays each of `trace`'s page partitions ([`partition_requests`])
/// through its own policy instance built by `factory`, concurrently on the
/// pool's worker threads, and merges the per-partition statistics in
/// partition order via [`SimulationResult::merge_from`]. `capacity` is the
/// total cache size, split by [`partition_capacities`].
///
/// This is **not** behaviourally identical to [`simulate`] on one
/// `capacity`-page policy instance — partitions learn and evict
/// independently, as real shards do — but partitions are disjoint by
/// construction and merged in partition order, so the result is
/// deterministic and **bit-identical** at every job count.
///
/// # Panics
///
/// Panics if `partitions` is zero or exceeds `capacity`.
pub fn simulate_partitioned_parallel(
    pool: &ThreadPool,
    factory: &(dyn PolicyFactory + Sync),
    trace: &Trace,
    capacity: usize,
    partitions: usize,
) -> SimulationResult {
    let capacities = partition_capacities(capacity, partitions);
    let split = partition_requests(trace, partitions);
    let partials = pool.par_map(&split, |index, requests| {
        let mut policy = factory.build(capacities[index]);
        let mut stats = CacheStats::new();
        let mut per_client: BTreeMap<ClientId, CacheStats> = BTreeMap::new();
        for (seq, req) in requests {
            let outcome = policy.access(req, *seq);
            record_outcome(&mut stats, &mut per_client, req, outcome);
        }
        SimulationResult {
            policy: policy.name(),
            capacity: capacities[index],
            stats,
            per_client,
        }
    });
    let mut result = SimulationResult {
        policy: format!("Partitioned<{}x{partitions}>", factory.name()),
        capacity,
        ..SimulationResult::default()
    };
    for partial in &partials {
        result.merge_from(partial);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::Lru;
    use crate::policy::BoxedPolicy;
    use crate::request::AccessKind;
    use crate::trace::TraceBuilder;

    fn cyclic_trace(pages: u64, repeats: usize) -> Trace {
        let mut b = TraceBuilder::new().with_name("cyclic");
        let c = b.add_client("t", &[("x", 1)]);
        let h = b.intern_hints(c, &[0]);
        for _ in 0..repeats {
            for p in 0..pages {
                b.push(c, p, AccessKind::Read, None, h);
            }
        }
        b.build()
    }

    #[test]
    fn lru_hits_everything_when_cache_fits_working_set() {
        let trace = cyclic_trace(4, 3);
        let mut lru = Lru::new(4);
        let res = simulate(&mut lru, &trace);
        // First pass misses, the remaining two passes hit.
        assert_eq!(res.stats.read_misses, 4);
        assert_eq!(res.stats.read_hits, 8);
        assert_eq!(res.capacity, 4);
        assert_eq!(res.policy, "LRU");
    }

    #[test]
    fn lru_thrashes_on_cyclic_scan_larger_than_cache() {
        let trace = cyclic_trace(5, 4);
        let mut lru = Lru::new(4);
        let res = simulate(&mut lru, &trace);
        assert_eq!(res.stats.read_hits, 0, "classic LRU cyclic-thrash case");
    }

    #[test]
    fn per_client_stats_are_split() {
        let mut b = TraceBuilder::new();
        let c1 = b.add_client("a", &[("x", 1)]);
        let c2 = b.add_client("b", &[("x", 1)]);
        let h1 = b.intern_hints(c1, &[0]);
        let h2 = b.intern_hints(c2, &[0]);
        // Client 1 re-reads its page; client 2 never does.
        b.push(c1, 1, AccessKind::Read, None, h1);
        b.push(c2, 100, AccessKind::Read, None, h2);
        b.push(c1, 1, AccessKind::Read, None, h1);
        b.push(c2, 101, AccessKind::Read, None, h2);
        let trace = b.build();
        let mut lru = Lru::new(8);
        let res = simulate(&mut lru, &trace);
        assert_eq!(res.client_read_hit_ratio(c1), 0.5);
        assert_eq!(res.client_read_hit_ratio(c2), 0.0);
        assert_eq!(res.client_read_hit_ratio(ClientId(9)), 0.0);
    }

    #[test]
    fn sweep_runs_every_capacity() {
        let trace = cyclic_trace(6, 3);
        let factory: (String, fn(usize) -> BoxedPolicy) = ("LRU".to_string(), |cap| {
            Box::new(Lru::new(cap)) as BoxedPolicy
        });
        let points = sweep(&factory, &trace, &[2, 4, 6, 8]);
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].capacity, 2);
        // Hit ratio is monotone in capacity for LRU on this trace family.
        assert!(points[3].result.read_hit_ratio() >= points[0].result.read_hit_ratio());
        // A cache that fits the whole loop hits after the first pass.
        assert!(points[2].result.stats.read_hits > 0);
    }

    #[test]
    fn merge_from_combines_aggregate_and_per_client_stats() {
        let mut b = TraceBuilder::new();
        let c1 = b.add_client("a", &[("x", 1)]);
        let c2 = b.add_client("b", &[("x", 1)]);
        let h1 = b.intern_hints(c1, &[0]);
        let h2 = b.intern_hints(c2, &[0]);
        b.push(c1, 1, AccessKind::Read, None, h1);
        b.push(c1, 1, AccessKind::Read, None, h1);
        b.push(c2, 2, AccessKind::Read, None, h2);
        let trace = b.build();

        // Simulate the same trace twice through independent caches and merge:
        // counters must be exactly double the single run, client by client.
        let single = simulate(&mut Lru::new(4), &trace);
        let mut merged = simulate(&mut Lru::new(4), &trace);
        merged.merge_from(&single);
        assert_eq!(merged.stats.requests(), 2 * single.stats.requests());
        assert_eq!(merged.stats.read_hits, 2 * single.stats.read_hits);
        for (client, stats) in &single.per_client {
            assert_eq!(
                merged.per_client.get(client).unwrap().requests(),
                2 * stats.requests()
            );
        }
        // Merging an empty result changes nothing.
        let before = merged.stats;
        merged.merge_from(&SimulationResult::default());
        assert_eq!(merged.stats, before);
    }

    #[test]
    fn sweep_parallel_is_bit_identical_to_sweep() {
        let trace = cyclic_trace(12, 5);
        let factory: (String, fn(usize) -> BoxedPolicy) = ("LRU".to_string(), |cap| {
            Box::new(Lru::new(cap)) as BoxedPolicy
        });
        let capacities = [2usize, 4, 6, 8, 12, 16];
        let serial = sweep(&factory, &trace, &capacities);
        for jobs in [1, 2, 4] {
            let pool = ThreadPool::new(jobs);
            let parallel = sweep_parallel(&pool, &factory, &trace, &capacities);
            assert_eq!(parallel.len(), serial.len());
            for (p, s) in parallel.iter().zip(&serial) {
                assert_eq!(p.capacity, s.capacity, "jobs = {jobs}");
                assert_eq!(p.result.stats, s.result.stats, "jobs = {jobs}");
                assert_eq!(p.result.per_client, s.result.per_client, "jobs = {jobs}");
                assert_eq!(p.result.policy, s.result.policy, "jobs = {jobs}");
            }
        }
    }

    #[test]
    fn compare_policies_returns_results_in_cell_order() {
        let trace = cyclic_trace(8, 4);
        let cells: Vec<usize> = vec![2, 8, 4, 16, 6];
        let pool = ThreadPool::new(3);
        let results = compare_policies(&pool, &trace, &cells, |&cap| {
            Box::new(Lru::new(cap)) as BoxedPolicy
        });
        assert_eq!(results.len(), cells.len());
        for (cell, result) in cells.iter().zip(&results) {
            assert_eq!(result.capacity, *cell, "cell order must be preserved");
            let mut reference = Lru::new(*cell);
            let expected = simulate(&mut reference, &trace);
            assert_eq!(result.stats, expected.stats);
        }
    }

    #[test]
    fn partitioned_parallel_matches_serial_partitioned_exactly() {
        // A trace wide enough that every partition sees traffic.
        let mut b = TraceBuilder::new().with_name("wide");
        let c = b.add_client("t", &[("x", 1)]);
        let h = b.intern_hints(c, &[0]);
        for round in 0..6u64 {
            for p in 0..200u64 {
                b.push(c, p * 31 + round, AccessKind::Read, None, h);
            }
        }
        let trace = b.build();
        let factory: (String, fn(usize) -> BoxedPolicy) = ("LRU".to_string(), |cap| {
            Box::new(Lru::new(cap)) as BoxedPolicy
        });
        for partitions in [1usize, 2, 3, 7] {
            let run = |jobs| {
                let pool = ThreadPool::new(jobs);
                simulate_partitioned_parallel(&pool, &factory, &trace, 64, partitions)
            };
            let serial = run(1);
            assert_eq!(serial.stats.requests(), trace.len() as u64);
            assert_eq!(serial.capacity, 64);
            for jobs in [2, 4] {
                let parallel = run(jobs);
                assert_eq!(parallel.stats, serial.stats, "p={partitions} jobs={jobs}");
                assert_eq!(
                    parallel.per_client, serial.per_client,
                    "p={partitions} jobs={jobs}"
                );
                assert_eq!(parallel.policy, serial.policy);
            }
        }
    }

    #[test]
    fn partition_capacities_sum_to_the_total_with_the_remainder_first() {
        assert_eq!(partition_capacities(10, 3), [4, 3, 3]);
        assert_eq!(partition_capacities(7, 7), [1; 7]);
        assert_eq!(partition_capacities(1800, 2), [900, 900]);
        for (capacity, partitions) in [(10, 3), (7, 7), (1800, 2), (65, 8)] {
            let split = partition_capacities(capacity, partitions);
            assert_eq!(split.len(), partitions);
            assert_eq!(split.iter().sum::<usize>(), capacity);
        }
    }

    #[test]
    fn single_partition_replay_matches_plain_simulate() {
        let trace = cyclic_trace(10, 4);
        let factory: (String, fn(usize) -> BoxedPolicy) = ("LRU".to_string(), |cap| {
            Box::new(Lru::new(cap)) as BoxedPolicy
        });
        let partitioned =
            simulate_partitioned_parallel(&ThreadPool::new(1), &factory, &trace, 8, 1);
        let expected = simulate(&mut Lru::new(8), &trace);
        assert_eq!(partitioned.stats, expected.stats);
        assert_eq!(partitioned.per_client, expected.per_client);
    }

    #[test]
    #[should_panic(expected = "at least one page per partition")]
    fn partitioned_rejects_more_partitions_than_pages() {
        let trace = cyclic_trace(4, 1);
        let factory: (String, fn(usize) -> BoxedPolicy) = ("LRU".to_string(), |cap| {
            Box::new(Lru::new(cap)) as BoxedPolicy
        });
        let _ = simulate_partitioned_parallel(&ThreadPool::new(1), &factory, &trace, 2, 3);
    }

    #[test]
    fn callback_sees_every_request() {
        let trace = cyclic_trace(3, 2);
        let mut lru = Lru::new(3);
        let mut count = 0u64;
        simulate_with_callback(&mut lru, &trace, |seq, _req, _hit| {
            assert_eq!(seq, count);
            count += 1;
        });
        assert_eq!(count, 6);
    }
}
