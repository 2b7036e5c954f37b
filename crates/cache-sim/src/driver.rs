//! The simulation driver: feeds a trace through a policy and collects stats.
//!
//! One serial replay and one fan-out:
//!
//! * [`simulate`] — replays a trace through one policy in
//!   [`REPLAY_CHUNK`]-sized batches and counts hits and misses with
//!   [`record_outcomes`], the accounting rule live servers share,
//! * [`compare_policies`] — fans independent simulation cells (one policy
//!   instance each) across a [`crate::par::ThreadPool`] and returns the
//!   results in exact cell order, bit-identical at every job count.
//!
//! Beside them sit the partition helpers a sharded deployment shares:
//! [`partition_requests`] / [`partition_capacities`] split a trace and a
//! capacity the way a sharded server splits them, and
//! [`simulate_partitioned_parallel`] replays those page partitions
//! concurrently and merges them via [`SimulationResult::merge_from`].

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

/// Records the [`AccessOutcome`]s of `reqs` (index-aligned with
/// `outcomes`) into aggregate and per-client statistics — the single
/// hit/miss accounting rule shared by [`simulate`] and live servers, so
/// every driver measures policies identically. A single request is a slice
/// of one.
///
/// Each run of consecutive same-client requests is counted without
/// branches, then added to both maps at once: one per-client lookup per
/// run, not per request.
///
/// # Panics
///
/// Panics if `reqs` and `outcomes` differ in length.
pub fn record_outcomes(
    stats: &mut CacheStats,
    per_client: &mut BTreeMap<ClientId, CacheStats>,
    reqs: &[Request],
    outcomes: &[AccessOutcome],
) {
    assert_eq!(reqs.len(), outcomes.len(), "one outcome per request");
    let mut start = 0;
    while let Some(first) = reqs.get(start) {
        let client = first.client;
        let len = reqs[start..]
            .iter()
            .position(|req| req.client != client)
            .unwrap_or(reqs.len() - start);
        let (mut reads, mut read_hits, mut write_hits) = (0u64, 0u64, 0u64);
        let mut run = CacheStats::new();
        for (req, outcome) in reqs[start..start + len]
            .iter()
            .zip(&outcomes[start..start + len])
        {
            let read = u64::from(req.is_read());
            let hit = u64::from(outcome.hit);
            reads += read;
            read_hits += read & hit;
            write_hits += (read ^ 1) & hit;
            run.evictions += u64::from(outcome.evicted);
            run.bypasses += u64::from(outcome.bypassed);
        }
        run.read_hits = read_hits;
        run.read_misses = reads - read_hits;
        run.write_hits = write_hits;
        run.write_misses = len as u64 - reads - write_hits;
        *stats += run;
        *per_client.entry(client).or_default() += run;
        start += len;
    }
}

/// Number of requests replayed per [`CachePolicy::access_batch`] call by the
/// drivers in this workspace. Large enough to amortize per-batch dispatch,
/// lock acquisition, and accounting setup; small enough to keep the outcome
/// scratch buffer (and a prefetch-batched policy's working set) in cache.
///
/// This is the *one* shared replay granularity: [`simulate`] chunks traces by
/// it, a `clic-server` shard step serves at most this many accesses under
/// its lock and the network front-end coalesces sub-batches up to it, and
/// the load harness defaults its client batch size to it — so batching
/// effects are comparable across the offline and online drivers instead of
/// each picking its own magic number.
pub const REPLAY_CHUNK: usize = 256;

/// Runs `policy` over `trace` and returns aggregate and per-client statistics.
///
/// The driver — not the policy — is responsible for classifying hits and
/// misses, so every policy is measured identically: a request is a hit iff
/// the page was cached when the request arrived. The trace is replayed in
/// [`REPLAY_CHUNK`]-sized batches through [`CachePolicy::access_batch`],
/// whose contract guarantees behaviour identical to per-request `access`
/// calls.
///
/// # Panics
///
/// Panics if the policy's `access_batch` breaks its one-outcome-per-request
/// contract.
pub fn simulate(policy: &mut dyn CachePolicy, trace: &Trace) -> SimulationResult {
    let mut stats = CacheStats::new();
    let mut per_client: BTreeMap<ClientId, CacheStats> = BTreeMap::new();
    let mut outcomes = Vec::with_capacity(REPLAY_CHUNK);
    let mut first_seq = 0u64;
    for chunk in trace.requests.chunks(REPLAY_CHUNK) {
        outcomes.clear();
        policy.access_batch(chunk, first_seq, &mut outcomes);
        // A policy violating the one-outcome-per-request contract fails
        // here, by name; `record_outcomes` would fail without naming it (one
        // compare per chunk is free next to the replay itself).
        assert_eq!(
            outcomes.len(),
            chunk.len(),
            "access_batch of {} broke its outcome-count contract",
            policy.name()
        );
        record_outcomes(&mut stats, &mut per_client, chunk, &outcomes);
        first_seq += chunk.len() as u64;
    }
    SimulationResult {
        policy: policy.name(),
        capacity: policy.capacity(),
        stats,
        per_client,
    }
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
            record_outcomes(
                &mut stats,
                &mut per_client,
                std::slice::from_ref(req),
                &[outcome],
            );
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
    use crate::request::{AccessKind, PageId};
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
    fn record_outcomes_counts_runs_like_single_requests() {
        // Clients interleave in runs of one and of several; each outcome
        // kind appears for reads and writes.
        let (a, b) = (ClientId(1), ClientId(2));
        let h = crate::HintSetId(0);
        let reqs = [
            Request::read(a, PageId(1), h),
            Request::write(a, PageId(2), None, h),
            Request::read(b, PageId(3), h),
            Request::read(a, PageId(4), h),
            Request::write(a, PageId(5), None, h),
            Request::read(a, PageId(6), h),
        ];
        let outcomes = [
            AccessOutcome::hit(),
            AccessOutcome::miss(1),
            AccessOutcome::bypass(),
            AccessOutcome::miss(0),
            AccessOutcome::hit(),
            AccessOutcome::miss(2),
        ];
        let (mut stats, mut per_client) = (CacheStats::new(), BTreeMap::new());
        record_outcomes(&mut stats, &mut per_client, &reqs, &outcomes);
        let (mut one_stats, mut one_per_client) = (CacheStats::new(), BTreeMap::new());
        for (req, outcome) in reqs.iter().zip(&outcomes) {
            record_outcomes(
                &mut one_stats,
                &mut one_per_client,
                std::slice::from_ref(req),
                std::slice::from_ref(outcome),
            );
        }
        assert_eq!(stats, one_stats);
        assert_eq!(per_client, one_per_client);
        let expected_a = CacheStats {
            read_hits: 1,
            read_misses: 2,
            write_hits: 1,
            write_misses: 1,
            evictions: 3,
            bypasses: 0,
        };
        assert_eq!(per_client[&a], expected_a);
        assert_eq!(per_client[&b].read_misses, 1);
        assert_eq!(per_client[&b].bypasses, 1);
        assert_eq!(stats, expected_a + per_client[&b]);
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

    /// A policy whose batch path answers one request too few.
    struct ShortBatch(Lru);

    impl CachePolicy for ShortBatch {
        fn name(&self) -> String {
            "ShortBatch".to_string()
        }
        fn capacity(&self) -> usize {
            self.0.capacity()
        }
        fn access(&mut self, req: &Request, seq: u64) -> AccessOutcome {
            self.0.access(req, seq)
        }
        fn access_batch(&mut self, reqs: &[Request], first_seq: u64, out: &mut Vec<AccessOutcome>) {
            self.0.access_batch(reqs, first_seq, out);
            out.pop();
        }
        fn contains(&self, page: PageId) -> bool {
            self.0.contains(page)
        }
        fn len(&self) -> usize {
            self.0.len()
        }
    }

    #[test]
    #[should_panic(expected = "access_batch of ShortBatch broke its outcome-count contract")]
    fn simulate_rejects_a_batch_with_a_missing_outcome() {
        let trace = cyclic_trace(4, 2);
        let _ = simulate(&mut ShortBatch(Lru::new(4)), &trace);
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
}
