//! [`ShardedClic`]: the page space hash-partitioned across N independently
//! locked CLIC shards, with periodic cross-shard priority merging.
//!
//! Sharding is the standard recipe for scaling a cache across cores: each
//! page maps to exactly one shard, each shard is a plain single-threaded
//! [`Clic`] behind its own mutex, and requests for different shards proceed
//! in parallel without contending. The price is that each shard only
//! observes the requests for *its* pages, so its hint statistics are a
//! (uniform, thanks to hashing) sample of the workload. Left alone, N
//! shards learn N noisier copies of the same priorities; the periodic
//! [`ShardedClic::merge_priorities`] pass request-weight-averages the
//! per-shard priorities and pushes the merged snapshot back into every
//! shard, so hint learning behaves as if it were centralized while the data
//! path stays shard-local.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cache_sim::policy::AccessOutcome;
use cache_sim::sync::recover_lock;
use cache_sim::{
    record_outcome, CachePolicy, CacheStats, ClientId, HintSetId, IoStats, PageId, Request,
    SimulationResult,
};
use clic_core::{Clic, ClicConfig};
use clic_obs::{MetricsSnapshot, Recorder, SpanKind};
use clic_store::{Flusher, PageStore, StoreConfig, StoreResult};

/// Configuration for a [`ShardedClic`].
#[derive(Debug, Clone)]
pub struct ShardedClicConfig {
    /// Number of shards (independently locked CLIC instances).
    pub shards: usize,
    /// Total cache capacity in pages, split evenly across the shards.
    pub capacity: usize,
    /// The CLIC configuration applied to every shard. The priority window is
    /// interpreted in *global* requests: each shard runs with
    /// `window / shards` so that priorities are re-evaluated at the same
    /// wall-clock cadence regardless of the shard count.
    pub clic: ClicConfig,
    /// Number of *global* requests between cross-shard priority merges
    /// (0 disables merging; irrelevant with a single shard).
    pub merge_every: u64,
    /// When set, the cache gets a real data plane: **one [`PageStore`] per
    /// shard** (multi-shard deployments place each under a `shard-N`
    /// subdirectory via [`StoreConfig::for_shard`]; a single shard keeps the
    /// base directory), whose buffer frames mirror that shard's cache
    /// contents (admissions install frames, evictions free them — flushing
    /// dirty ones first), served through
    /// [`ShardedClic::access_shard_batch_data`]. Each shard store's frame
    /// count is raised to at least the shard's capacity so the policy can
    /// never admit more pages than there are frames. Pages are
    /// shard-partitioned, so two shards share *no* storage state — Get/Put
    /// traffic for different shards touches disjoint files, frames, and
    /// WALs.
    pub store: Option<StoreConfig>,
    /// The observability handle shared by the cache and — when enabled — by
    /// every attached shard store (overriding the store config's own
    /// recorder, so one registry and one trace collector cover the whole
    /// stack). The default [`Recorder::disabled`] records nothing and costs
    /// one `Option` check per instrumented site.
    pub recorder: Recorder,
}

impl ShardedClicConfig {
    /// A single-shard configuration with the default CLIC parameters and a
    /// merge period of one window.
    pub fn new(capacity: usize) -> Self {
        let clic = ClicConfig::default();
        ShardedClicConfig {
            shards: 1,
            capacity,
            merge_every: clic.window,
            clic,
            store: None,
            recorder: Recorder::disabled(),
        }
    }

    /// Sets the shard count.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "at least one shard is required");
        self.shards = shards;
        self
    }

    /// Sets the per-shard CLIC configuration (window in global requests) and
    /// aligns the merge period with its window.
    pub fn with_clic(mut self, clic: ClicConfig) -> Self {
        self.merge_every = clic.window;
        self.clic = clic;
        self
    }

    /// Sets the merge period in global requests (0 disables merging).
    pub fn with_merge_every(mut self, merge_every: u64) -> Self {
        self.merge_every = merge_every;
        self
    }

    /// Attaches a disk-backed [`PageStore`] (see
    /// [`ShardedClicConfig::store`]).
    pub fn with_store(mut self, store: StoreConfig) -> Self {
        self.store = Some(store);
        self
    }

    /// Sets the observability handle (see [`ShardedClicConfig::recorder`]).
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }
}

/// One shard: a CLIC instance plus the statistics for the requests it served.
#[derive(Debug)]
struct Shard {
    clic: Clic,
    stats: CacheStats,
    per_client: BTreeMap<ClientId, CacheStats>,
    /// `clic.requests_seen()` captured at the previous priority merge; the
    /// difference to the current value is the shard's weight in the next
    /// merge (see [`ShardedClic::merge_priorities`]).
    requests_at_last_merge: u64,
}

/// A thread-safe CLIC cache partitioned across N independently locked shards.
///
/// All methods take `&self`; the struct is `Sync` and is meant to be shared
/// across threads (the [`crate::Server`] workers all hold one behind an
/// `Arc`). Sequence numbers are drawn from a global atomic counter so that
/// re-reference distances are measured in global requests, exactly as a
/// single cache would measure them.
///
/// With `shards == 1` and a single caller, the access path is identical to
/// driving a [`Clic`] through [`cache_sim::simulate`] — the correctness
/// anchor `tests/server_concurrency.rs` asserts bit-exact statistics.
#[derive(Debug)]
pub struct ShardedClic {
    shards: Vec<Mutex<Shard>>,
    sequencer: AtomicU64,
    merge_every: u64,
    merges_completed: AtomicU64,
    total_capacity: usize,
    /// The data plane, when configured: one store per shard (same indexing
    /// as `shards`), held *outside* the shard mutexes and shared with an
    /// optional background [`Flusher`]. Pages are partitioned across shards,
    /// so operations on a page are serialized by its owning shard's lock;
    /// the stores' internal latches only mediate between a shard and the
    /// flusher. Empty when no store is attached.
    stores: Vec<Arc<PageStore>>,
    /// Background write-back thread over *all* shard stores; joined on drop
    /// (without flushing — a plain drop models a crash,
    /// [`ShardedClic::checkpoint_store`] models a clean shutdown).
    flusher: Option<Flusher>,
    /// The observability handle ([`ShardedClicConfig::recorder`]); shared
    /// with every shard store when enabled.
    recorder: Recorder,
}

impl ShardedClic {
    /// Builds the sharded cache described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero shards or fewer capacity pages
    /// than shards, or if a shard's page store fails to open; use
    /// [`ShardedClic::try_new`] to handle store-open failures as errors.
    pub fn new(config: ShardedClicConfig) -> Self {
        // invariant: documented panicking convenience over `try_new`.
        #[allow(clippy::expect_used)]
        ShardedClic::try_new(config).expect("failed to open a shard's page store")
    }

    /// [`ShardedClic::new`], surfacing shard-store open failures as errors
    /// instead of panicking. Configuration errors (zero shards, capacity
    /// below one page per shard) still panic — they are caller bugs, not
    /// runtime conditions.
    pub fn try_new(config: ShardedClicConfig) -> io::Result<Self> {
        assert!(config.shards > 0, "at least one shard is required");
        assert!(
            config.capacity >= config.shards,
            "capacity ({}) must be at least one page per shard ({})",
            config.capacity,
            config.shards
        );
        let per_shard_window = (config.clic.window / config.shards as u64).max(1);
        let shard_config = config.clic.with_window(per_shard_window);
        let capacities = cache_sim::partition_capacities(config.capacity, config.shards);
        let with_store = config.store.is_some();
        let shards: Vec<Mutex<Shard>> = capacities
            .iter()
            .map(|&capacity| {
                let mut clic = Clic::new(capacity, shard_config);
                if with_store {
                    // The data plane needs eviction identities to free (and
                    // flush) the victims' buffer frames.
                    assert!(
                        clic.record_evictions(true),
                        "CLIC must support eviction identity reporting"
                    );
                }
                Mutex::new(Shard {
                    clic,
                    stats: CacheStats::new(),
                    per_client: BTreeMap::new(),
                    requests_at_last_merge: 0,
                })
            })
            .collect();
        let (stores, flusher) = match config.store {
            Some(store_config) => {
                let mut stores: Vec<Arc<PageStore>> = Vec::with_capacity(config.shards);
                for (i, &shard_capacity) in capacities.iter().enumerate() {
                    let mut shard_store = store_config.for_shard(i, config.shards);
                    if config.recorder.is_enabled() {
                        // One recorder across the cache and every shard
                        // store: spans land in one trace and metrics in
                        // one registry.
                        shard_store.recorder = config.recorder.clone();
                    }
                    // Each shard store must hold at least one frame per
                    // cache page of its shard, or admissions could
                    // outrun it; a configured frame budget is split
                    // across the shards.
                    shard_store.frames = shard_store
                        .frames
                        .div_ceil(config.shards)
                        .max(shard_capacity)
                        .max(1);
                    stores.push(Arc::new(PageStore::open(shard_store)?));
                }
                let flusher = store_config
                    .flush_interval
                    .map(|interval| Flusher::start(stores.clone(), interval));
                (stores, flusher)
            }
            None => (Vec::new(), None),
        };
        Ok(ShardedClic {
            shards,
            sequencer: AtomicU64::new(0),
            merge_every: config.merge_every,
            merges_completed: AtomicU64::new(0),
            total_capacity: config.capacity,
            stores,
            flusher,
            recorder: config.recorder,
        })
    }

    /// Policy name, e.g. `"ShardedCLIC(shards=4)"`.
    pub fn name(&self) -> String {
        format!("ShardedCLIC(shards={})", self.shards.len())
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total capacity in pages across all shards.
    pub fn capacity(&self) -> usize {
        self.total_capacity
    }

    /// Total number of requests served so far.
    pub fn requests_seen(&self) -> u64 {
        self.sequencer.load(Ordering::Relaxed)
    }

    /// Number of cross-shard priority merges performed so far.
    pub fn merges_completed(&self) -> u64 {
        self.merges_completed.load(Ordering::Relaxed)
    }

    /// The shard responsible for `page`: the workspace-wide
    /// [`cache_sim::hash::page_partition`] routing rule, shared with the
    /// driver's partitioned replay so offline partition studies model this
    /// server's placement exactly.
    pub fn shard_of(&self, page: PageId) -> usize {
        cache_sim::hash::page_partition(page, self.shards.len())
    }

    /// Serves one request: draws a global sequence number, runs the owning
    /// shard's CLIC policy, and records hit/miss statistics with the same
    /// accounting rule as [`cache_sim::simulate`]. Triggers a cross-shard
    /// priority merge every [`ShardedClicConfig::merge_every`] requests.
    pub fn access(&self, req: &Request) -> AccessOutcome {
        let (seq, outcome) = {
            let mut shard = recover_lock(&self.shards[self.shard_of(req.page)]);
            // The sequence number is drawn while holding the shard lock:
            // still globally unique, but also monotone *within* the shard,
            // which the per-shard Clic relies on (its lists are ordered by
            // ascending seq and re-reference distances are seq deltas).
            let seq = self.sequencer.fetch_add(1, Ordering::Relaxed);
            let outcome = shard.clic.access(req, seq);
            let Shard {
                stats, per_client, ..
            } = &mut *shard;
            record_outcome(stats, per_client, req, outcome);
            (seq, outcome)
        };
        if self.merge_every > 0 && (seq + 1).is_multiple_of(self.merge_every) {
            self.merge_priorities();
        }
        outcome
    }

    /// Serves a batch of requests that all map to shard `shard_idx`,
    /// appending one outcome per request to `outcomes`.
    ///
    /// The shard lock is taken *once* for the whole batch and the requests
    /// run through the policy's batched fast path
    /// ([`cache_sim::CachePolicy::access_batch`]), so per-request lock and
    /// dispatch overhead is paid per batch. A contiguous block of global
    /// sequence numbers is drawn for the batch; with a single shard (or a
    /// single caller) this is indistinguishable from per-request sequencing,
    /// and under concurrency it only coarsens the interleaving of
    /// re-reference distances, which are measured in global requests either
    /// way. Statistics accounting is identical to calling
    /// [`ShardedClic::access`] per request; priority merges coalesce — a
    /// batch that crosses one *or more* `merge_every` boundaries triggers a
    /// single merge (back-to-back merges with no intervening traffic would
    /// be no-ops under per-window weighting, so nothing is lost).
    ///
    /// # Panics
    ///
    /// In debug builds, panics if any request's page does not belong to
    /// `shard_idx`.
    pub fn access_shard_batch(
        &self,
        shard_idx: usize,
        reqs: &[Request],
        outcomes: &mut Vec<AccessOutcome>,
    ) {
        if reqs.is_empty() {
            return;
        }
        debug_assert!(
            reqs.iter().all(|r| self.shard_of(r.page) == shard_idx),
            "batch contains requests for a different shard"
        );
        let first_seq = {
            let mut shard = recover_lock(&self.shards[shard_idx]);
            // As in `access`, sequence numbers are drawn under the shard
            // lock so they stay monotone within the shard.
            let first_seq = self
                .sequencer
                .fetch_add(reqs.len() as u64, Ordering::Relaxed);
            let start = outcomes.len();
            shard.clic.access_batch(reqs, first_seq, outcomes);
            let Shard {
                stats, per_client, ..
            } = &mut *shard;
            for (req, outcome) in reqs.iter().zip(&outcomes[start..]) {
                record_outcome(stats, per_client, req, *outcome);
            }
            first_seq
        };
        // Merge once if any request in the block crossed a multiple of
        // `merge_every` (the per-request rule is `(seq + 1) % m == 0`);
        // `checked_div` doubles as the merging-disabled (zero period) guard.
        let last = first_seq + reqs.len() as u64;
        if last.checked_div(self.merge_every) > first_seq.checked_div(self.merge_every) {
            self.merge_priorities();
        }
    }

    /// The shard workers' one entry: serves a batch of requests for shard
    /// `shard_idx`, moving each request's bytes through the shard's
    /// [`PageStore`] when a data plane is attached.
    ///
    /// Without a store this *is* [`ShardedClic::access_shard_batch`] — the
    /// policy's batched fast path — and `data_out` stays empty. With one,
    /// every policy decision goes through [`PageStore::mirror`] (victims
    /// evicted first, then the read fetched and admitted, or the write
    /// staged or written through), with `payloads[i]` as the bytes of write
    /// `i`; `data_out` receives `Some(bytes)` per read and `None` per write.
    ///
    /// Statistics accounting and merge cadence are identical to
    /// [`ShardedClic::access_shard_batch`]; with a store, sequence numbers
    /// are drawn per-request under the shard lock exactly as
    /// [`ShardedClic::access`] draws them, so a single-shard, single-caller
    /// run is bit-identical to the policy-only path. Store I/O happens
    /// under the shard lock against the shard's *own* store — pages are
    /// shard-partitioned, so this serializes exactly the I/O that a
    /// correctness race would otherwise reorder, and I/O for different
    /// shards shares no lock at all.
    ///
    /// # Panics
    ///
    /// Panics if a store is attached and `payloads` is shorter than `reqs`,
    /// or (in debug builds) if any request's page does not belong to
    /// `shard_idx`.
    pub fn access_shard_batch_data(
        &self,
        shard_idx: usize,
        reqs: &[Request],
        payloads: &[Option<Vec<u8>>],
        outcomes: &mut Vec<AccessOutcome>,
        data_out: &mut Vec<Option<Vec<u8>>>,
    ) -> io::Result<()> {
        let Some(store) = self.stores.get(shard_idx) else {
            self.access_shard_batch(shard_idx, reqs, outcomes);
            return Ok(());
        };
        if reqs.is_empty() {
            return Ok(());
        }
        assert!(
            payloads.len() >= reqs.len(),
            "one payload slot per request is required"
        );
        debug_assert!(
            reqs.iter().all(|r| self.shard_of(r.page) == shard_idx),
            "batch contains requests for a different shard"
        );
        let mut evicted: Vec<PageId> = Vec::new();
        let mut buf: Vec<u8> = Vec::with_capacity(store.page_size());
        let (first_seq, last_seq) = {
            let mut shard = recover_lock(&self.shards[shard_idx]);
            let mut first_seq = 0;
            let mut last_seq = 0;
            for (i, req) in reqs.iter().enumerate() {
                // As in `access`: drawn under the shard lock, so sequence
                // numbers stay monotone within the shard.
                let seq = self.sequencer.fetch_add(1, Ordering::Relaxed);
                if i == 0 {
                    first_seq = seq;
                }
                last_seq = seq;
                let outcome = shard.clic.access(req, seq);
                outcomes.push(outcome);
                shard.clic.drain_evictions(&mut evicted);
                if let Err(err) =
                    store.mirror(req, outcome, &mut evicted, payloads[i].as_deref(), &mut buf)
                {
                    // The store refused the page the policy just cached:
                    // forget it, so the next access of it is a miss. A
                    // resident page whose overwrite was refused stays
                    // cached in both.
                    if !store.contains_buffered(req.page) {
                        shard.clic.invalidate(req.page);
                    }
                    return Err(err);
                }
                data_out.push(req.is_read().then(|| buf.clone()));
                let Shard {
                    stats, per_client, ..
                } = &mut *shard;
                record_outcome(stats, per_client, req, outcome);
            }
            (first_seq, last_seq)
        };
        if (last_seq + 1).checked_div(self.merge_every) > first_seq.checked_div(self.merge_every) {
            self.merge_priorities();
        }
        Ok(())
    }

    /// Deletes `page`: the owning shard's policy forgets it entirely (no
    /// outqueue ghost survives to bias a future re-admission) and, with a
    /// data plane attached, the shard store drops the page's bytes — frame
    /// discarded without write-back, WAL delete record, disk slot freed.
    /// Returns whether the server held the page anywhere (cache or disk).
    ///
    /// A delete is not an access: no sequence number is drawn, statistics
    /// and hint learning are untouched, and it never triggers a priority
    /// merge. Ordering against accesses of the same page is the shard
    /// lock's: deletes interleave atomically with (batched) accesses.
    pub fn delete(&self, page: PageId) -> io::Result<bool> {
        let shard_idx = self.shard_of(page);
        let mut shard = recover_lock(&self.shards[shard_idx]);
        let cached = shard.clic.invalidate(page);
        let on_disk = match self.stores.get(shard_idx) {
            // The store delete runs under the shard lock like every other
            // per-page store operation, satisfying PageStore's caller
            // contract that same-page operations are serialized.
            Some(store) => store.delete(page)?,
            None => false,
        };
        Ok(cached || on_disk)
    }

    /// Whether a data plane is attached.
    pub fn has_store(&self) -> bool {
        !self.stores.is_empty()
    }

    /// Shard `idx`'s page store, if a data plane is attached (and the index
    /// is in range).
    pub fn shard_store(&self, idx: usize) -> Option<&Arc<PageStore>> {
        self.stores.get(idx)
    }

    /// All per-shard stores, indexed like the shards (empty without a data
    /// plane).
    pub fn stores(&self) -> &[Arc<PageStore>] {
        &self.stores
    }

    /// The observability handle this cache (and its shard stores) records
    /// into.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The full metrics snapshot: the server-level registry (queue-depth
    /// gauge, batch-service and client-latency histograms — empty when the
    /// recorder is disabled) merged with every shard store's always-on
    /// `store.*` counters. Mergeable across servers; safe to call on any
    /// configuration.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snapshot = self.recorder.snapshot();
        for store in &self.stores {
            // With an enabled recorder the stores share its registry only
            // for spans — their counters live in per-store registries
            // either way, so this merge is never double counting.
            snapshot.merge(&store.metrics());
        }
        snapshot
    }

    /// A snapshot of the data plane's byte-level I/O counters summed across
    /// every shard store, if a data plane is attached.
    pub fn io_stats(&self) -> Option<IoStats> {
        if self.stores.is_empty() {
            return None;
        }
        let mut total = IoStats::new();
        for store in &self.stores {
            total += store.io_stats();
        }
        Some(total)
    }

    /// Checkpoints every shard store — flushes every dirty frame, syncs the
    /// backing files, truncates the WALs — and returns how many frames were
    /// written back in total. `Ok(0)` without a store. This is the
    /// clean-shutdown path; merely dropping the cache models a crash
    /// (acknowledged writes then recover from each shard's WAL on the next
    /// open).
    pub fn checkpoint_store(&self) -> io::Result<usize> {
        let mut flushed = 0;
        for store in &self.stores {
            flushed += store.checkpoint()?;
        }
        Ok(flushed)
    }

    /// Stops the background flusher, waiting at most `timeout`: a flush pass
    /// wedged in the kernel (dying disk) surfaces as
    /// [`clic_store::StoreError::ShutdownTimeout`] instead of hanging
    /// shutdown forever. A no-op without a flusher.
    pub fn stop_flusher_timeout(&mut self, timeout: Duration) -> StoreResult<()> {
        match self.flusher.as_mut() {
            Some(flusher) => flusher.stop_timeout(timeout),
            None => Ok(()),
        }
    }

    /// Returns `true` if `page` is currently cached (in its shard).
    pub fn contains(&self, page: PageId) -> bool {
        recover_lock(&self.shards[self.shard_of(page)])
            .clic
            .contains(page)
    }

    /// Total number of pages currently cached across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| recover_lock(s).clic.len()).sum()
    }

    /// Returns `true` if no shard holds any page.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merges hint-set priorities across shards: exports every shard's
    /// priorities, averages them weighted by the shard's request count
    /// *since the previous merge* — so a shard that went quiet contributes
    /// nothing and its stale priorities do not dominate after a workload
    /// shift — and imports the merged snapshot back into each shard. A
    /// no-op with a single shard, or when no shard served any requests
    /// since the previous merge.
    ///
    /// Shard locks are taken strictly one at a time (never nested), so this
    /// can run concurrently with the data path without deadlock; accesses
    /// that interleave with the merge see either their shard's old or merged
    /// priorities, which is harmless for a learning heuristic.
    pub fn merge_priorities(&self) {
        if self.shards.len() <= 1 {
            return;
        }
        // Detail: number of distinct hint sets in the merged snapshot.
        // Cancelled when the merge turns out to be a no-op.
        let mut span = self.recorder.span(SpanKind::PriorityMerge);
        let mut total_weight = 0.0f64;
        let mut merged: HashMap<HintSetId, f64> = HashMap::new();
        let mut requests_at_export: Vec<u64> = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let shard = recover_lock(shard);
            let requests = shard.clic.requests_seen();
            requests_at_export.push(requests);
            let weight = requests.saturating_sub(shard.requests_at_last_merge) as f64;
            if weight <= 0.0 {
                continue;
            }
            total_weight += weight;
            for (hint, priority) in shard.clic.export_priorities() {
                *merged.entry(hint).or_insert(0.0) += weight * priority;
            }
        }
        if total_weight <= 0.0 {
            span.cancel();
            return;
        }
        for value in merged.values_mut() {
            *value /= total_weight;
        }
        let snapshot: Vec<(HintSetId, f64)> = merged.into_iter().collect();
        span.set_detail(snapshot.len() as u64);
        for (shard, &requests) in self.shards.iter().zip(&requests_at_export) {
            let mut shard = recover_lock(shard);
            // The marker is pinned to the export-time count, so requests
            // that raced in between export and import still weigh in next
            // time.
            shard.requests_at_last_merge = requests;
            shard.clic.import_priorities(snapshot.iter().copied());
        }
        self.merges_completed.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time statistics snapshot in the shape of
    /// [`SimulationResult`]: per-shard counters summed into aggregate and
    /// per-client statistics via [`SimulationResult::merge_from`].
    pub fn snapshot(&self) -> SimulationResult {
        let mut result = SimulationResult {
            policy: self.name(),
            capacity: self.total_capacity,
            ..SimulationResult::default()
        };
        for shard in &self.shards {
            let shard = recover_lock(shard);
            let partial = SimulationResult {
                policy: String::new(),
                capacity: 0,
                stats: shard.stats,
                per_client: shard.per_client.clone(),
            };
            result.merge_from(&partial);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{simulate, AccessKind, Trace, TraceBuilder};
    use clic_core::suggested_window;
    use clic_store::page_payload;
    use std::thread;

    fn looping_trace(requests: u64, pages: u64) -> Trace {
        let mut b = TraceBuilder::new().with_name("loop");
        let c = b.add_client("db", &[("kind", 2)]);
        let hot = b.intern_hints(c, &[0]);
        let cold = b.intern_hints(c, &[1]);
        for i in 0..requests {
            b.push(c, i % pages, AccessKind::Read, None, hot);
            b.push(c, 1_000_000 + i, AccessKind::Read, None, cold);
        }
        b.build()
    }

    #[test]
    fn single_shard_matches_simulate_exactly() {
        let trace = looping_trace(20_000, 200);
        let window = suggested_window(trace.len() as u64);
        let config = ClicConfig::default().with_window(window);

        let mut reference = Clic::new(256, config);
        let expected = simulate(&mut reference, &trace);

        let sharded = ShardedClic::new(
            ShardedClicConfig::new(256)
                .with_clic(config)
                .with_merge_every(1_000),
        );
        for req in &trace.requests {
            sharded.access(req);
        }
        let got = sharded.snapshot();
        assert_eq!(got.stats, expected.stats);
        assert_eq!(got.per_client, expected.per_client);
        assert_eq!(got.capacity, expected.capacity);
    }

    #[test]
    fn sharding_distributes_pages_and_respects_capacity() {
        let trace = looping_trace(10_000, 500);
        let sharded = ShardedClic::new(ShardedClicConfig::new(64).with_shards(4));
        for req in &trace.requests {
            sharded.access(req);
        }
        assert_eq!(sharded.requests_seen(), trace.len() as u64);
        assert!(sharded.len() <= 64);
        let snapshot = sharded.snapshot();
        assert_eq!(snapshot.stats.requests(), trace.len() as u64);
        // Hashing should touch every shard for a 500-page working set.
        let touched: std::collections::HashSet<usize> =
            (0..500u64).map(|p| sharded.shard_of(PageId(p))).collect();
        assert_eq!(touched.len(), 4);
    }

    #[test]
    fn capacity_split_covers_remainders() {
        // The shards get exactly the partition helper's capacities — the
        // split the offline partitioned replays use.
        for (capacity, shards) in [(10, 3), (7, 7), (1800, 2)] {
            let sharded = ShardedClic::new(ShardedClicConfig::new(capacity).with_shards(shards));
            let per_shard: Vec<usize> = sharded
                .shards
                .iter()
                .map(|s| recover_lock(s).clic.capacity())
                .collect();
            assert_eq!(per_shard, cache_sim::partition_capacities(capacity, shards));
            assert_eq!(per_shard.iter().sum::<usize>(), capacity);
        }
        let sharded = ShardedClic::new(ShardedClicConfig::new(10).with_shards(3));
        assert_eq!(sharded.capacity(), 10);
        assert_eq!(sharded.shard_count(), 3);
        // 4 + 3 + 3 pages; fill with pages for every shard and check the sum
        // never exceeds the total.
        let mut b = TraceBuilder::new();
        let c = b.add_client("db", &[("kind", 1)]);
        let h = b.intern_hints(c, &[0]);
        for p in 0..100u64 {
            b.push(c, p, AccessKind::Read, None, h);
        }
        for req in &b.build().requests {
            sharded.access(req);
        }
        assert!(sharded.len() <= 10);
    }

    #[test]
    fn merge_unifies_priorities_across_shards() {
        // Hot pages are re-read quickly, cold pages never; pages of both
        // kinds hash across both shards. After a merge, both shards must
        // agree on every hint set's priority.
        let mut b = TraceBuilder::new();
        let c = b.add_client("db", &[("kind", 2)]);
        let hot = b.intern_hints(c, &[0]);
        let cold = b.intern_hints(c, &[1]);
        for i in 0..4_000u64 {
            b.push(c, i % 64, AccessKind::Write, None, hot);
            b.push(c, i % 64, AccessKind::Read, None, hot);
            b.push(c, 1_000_000 + i, AccessKind::Read, None, cold);
        }
        let trace = b.build();
        let config = ClicConfig::default()
            .with_window(1_000)
            .with_metadata_charging(false);
        let sharded = ShardedClic::new(
            ShardedClicConfig::new(128)
                .with_shards(2)
                .with_clic(config)
                .with_merge_every(1_000),
        );
        for req in &trace.requests {
            sharded.access(req);
        }
        assert!(sharded.merges_completed() > 0);
        let per_shard: Vec<Vec<(HintSetId, f64)>> = sharded
            .shards
            .iter()
            .map(|s| {
                let mut snap = recover_lock(s).clic.export_priorities();
                snap.sort_by_key(|(h, _)| h.0);
                snap
            })
            .collect();
        // The last access triggered a merge (12_000 % 1_000 == 0), so the
        // shards' priority tables are identical.
        assert_eq!(per_shard[0], per_shard[1]);
        let hot_priority = per_shard[0]
            .iter()
            .find(|(h, _)| *h == hot)
            .map(|(_, p)| *p)
            .unwrap_or(0.0);
        let cold_priority = per_shard[0]
            .iter()
            .find(|(h, _)| *h == cold)
            .map(|(_, p)| *p)
            .unwrap_or(0.0);
        assert!(
            hot_priority > cold_priority,
            "merged priorities must still rank hot ({hot_priority}) above cold ({cold_priority})"
        );
    }

    #[test]
    fn concurrent_access_accounts_every_request() {
        let sharded = ShardedClic::new(
            ShardedClicConfig::new(64)
                .with_shards(4)
                .with_merge_every(500),
        );
        let threads = 4u32;
        let per_thread = 5_000u64;
        thread::scope(|scope| {
            for t in 0..threads {
                let sharded = &sharded;
                scope.spawn(move || {
                    let mut b = TraceBuilder::new();
                    let c = b.add_client("db", &[("kind", 1)]);
                    let h = b.intern_hints(c, &[0]);
                    for i in 0..per_thread {
                        b.push(
                            c,
                            u64::from(t) * 10_000 + (i % 300),
                            AccessKind::Read,
                            None,
                            h,
                        );
                    }
                    for req in &b.build().requests {
                        sharded.access(req);
                    }
                });
            }
        });
        assert_eq!(
            sharded.requests_seen(),
            u64::from(threads) * per_thread,
            "every request must be sequenced"
        );
        assert_eq!(
            sharded.snapshot().stats.requests(),
            u64::from(threads) * per_thread
        );
        assert!(sharded.len() <= 64);
    }

    #[test]
    #[should_panic(expected = "at least one page per shard")]
    fn too_many_shards_rejected() {
        let _ = ShardedClic::new(ShardedClicConfig::new(2).with_shards(3));
    }

    #[test]
    fn shard_batches_match_per_request_access_exactly() {
        // With one shard, `access_shard_batch` (single lock + block
        // sequencing per batch) draws exactly the sequence numbers that
        // per-request `access` would, so the statistics must be
        // bit-identical. (Across several concurrent shards, block sequencing
        // only coarsens the interleaving, which is nondeterministic anyway.)
        let trace = looping_trace(10_000, 300);
        let config = ClicConfig::default().with_window(1_000);
        let build = || {
            ShardedClic::new(
                ShardedClicConfig::new(128)
                    .with_clic(config)
                    .with_merge_every(700),
            )
        };

        let sequential = build();
        for req in &trace.requests {
            sequential.access(req);
        }

        let batched = build();
        let mut outcomes = Vec::new();
        for chunk in trace.requests.chunks(64) {
            outcomes.clear();
            batched.access_shard_batch(0, chunk, &mut outcomes);
            assert_eq!(outcomes.len(), chunk.len());
        }

        assert_eq!(batched.requests_seen(), sequential.requests_seen());
        let got = batched.snapshot();
        let expected = sequential.snapshot();
        assert_eq!(got.stats, expected.stats);
        assert_eq!(got.per_client, expected.per_client);

        // Multi-shard batches still account for every request.
        let sharded = ShardedClic::new(
            ShardedClicConfig::new(128)
                .with_shards(4)
                .with_clic(config)
                .with_merge_every(700),
        );
        for chunk in trace.requests.chunks(64) {
            for shard in 0..sharded.shard_count() {
                let sub: Vec<Request> = chunk
                    .iter()
                    .filter(|r| sharded.shard_of(r.page) == shard)
                    .copied()
                    .collect();
                outcomes.clear();
                sharded.access_shard_batch(shard, &sub, &mut outcomes);
                assert_eq!(outcomes.len(), sub.len());
            }
        }
        assert_eq!(sharded.requests_seen(), trace.len() as u64);
        assert_eq!(sharded.snapshot().stats.requests(), trace.len() as u64);
        assert!(sharded.merges_completed() > 0);
    }

    #[test]
    fn data_plane_matches_policy_only_statistics_and_serves_bytes() {
        let dir =
            std::env::temp_dir().join(format!("clic-sharded-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let trace = {
            let mut b = TraceBuilder::new();
            let c = b.add_client("db", &[("kind", 2)]);
            let hot = b.intern_hints(c, &[0]);
            let cold = b.intern_hints(c, &[1]);
            for i in 0..2_000u64 {
                b.push(c, i % 64, AccessKind::Write, None, hot);
                b.push(c, i % 64, AccessKind::Read, None, hot);
                b.push(c, 1_000_000 + i, AccessKind::Read, None, cold);
            }
            b.build()
        };
        let config = ClicConfig::default().with_window(1_000);

        // Policy-only reference.
        let reference = ShardedClic::new(
            ShardedClicConfig::new(128)
                .with_clic(config)
                .with_merge_every(500),
        );
        let mut outcomes = Vec::new();
        for chunk in trace.requests.chunks(64) {
            outcomes.clear();
            reference.access_shard_batch(0, chunk, &mut outcomes);
        }

        // Same single-shard cache over a real store (tiny pages keep the
        // test fast).
        let sharded = ShardedClic::new(
            ShardedClicConfig::new(128)
                .with_clic(config)
                .with_merge_every(500)
                .with_store(StoreConfig::new(&dir, 128).with_page_size(64)),
        );
        assert!(sharded.has_store());
        let mut data = Vec::new();
        for chunk in trace.requests.chunks(64) {
            outcomes.clear();
            data.clear();
            let payloads = vec![None; chunk.len()];
            sharded
                .access_shard_batch_data(0, chunk, &payloads, &mut outcomes, &mut data)
                .unwrap();
            assert_eq!(data.len(), chunk.len());
            for (req, bytes) in chunk.iter().zip(&data) {
                assert_eq!(req.is_read(), bytes.is_some());
            }
        }

        // The data plane must not change policy behaviour.
        let got = sharded.snapshot();
        let expected = reference.snapshot();
        assert_eq!(got.stats, expected.stats);
        assert_eq!(got.per_client, expected.per_client);

        // Bytes actually moved, and a read of a written page returns its
        // deterministic payload.
        let io = sharded.io_stats().unwrap();
        assert!(io.disk_reads > 0, "cold misses must hit the disk tier");
        assert!(io.wal_records > 0, "writes must be logged");
        let store = sharded.shard_store(0).unwrap();
        let mut buf = Vec::new();
        store.read(PageId(3), &mut buf).unwrap();
        assert_eq!(buf, page_payload(PageId(3), 64));

        // Checkpoint writes the dirty hot pages back and leaves nothing
        // dirty. (Dirty *eviction* flushes are exercised in clic-store's
        // replay tests, where the cache is smaller than the write set.)
        assert!(store.dirty_len() > 0, "hot written pages should be dirty");
        sharded.checkpoint_store().unwrap();
        assert_eq!(store.dirty_len(), 0);
        assert!(sharded.io_stats().unwrap().pages_flushed > 0);
        drop(sharded);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn per_window_merge_tracks_workload_shift_faster() {
        // Phase 1 hammers shard 0 with hint OLD until its priority is high
        // and the shard has a large cumulative request count. Phase 2 shifts
        // the workload entirely to shard 1 with hint NEW. At the next merge,
        // per-window weighting must let the fresh shard dominate: NEW
        // outranks OLD even on shard 0, which never saw a NEW request and
        // whose 8 000 requests of OLD history would swamp shard 1's 800
        // under lifetime weighting.
        let config = ClicConfig::default()
            .with_window(500)
            .with_metadata_charging(false);
        let (pw_new, pw_old) = {
            let sharded = ShardedClic::new(
                ShardedClicConfig::new(64)
                    .with_shards(2)
                    .with_clic(config)
                    .with_merge_every(0), // merges are triggered manually
            );
            let pages_of = |shard: usize, n: usize| -> Vec<u64> {
                (0u64..)
                    .filter(|&p| sharded.shard_of(PageId(p)) == shard)
                    .take(n)
                    .collect()
            };
            let mut b = TraceBuilder::new();
            let c = b.add_client("db", &[("phase", 2)]);
            let old_hint = b.intern_hints(c, &[0]);
            let new_hint = b.intern_hints(c, &[1]);

            // Phase 1: 4_000 write+read pairs over shard-0 pages, hint OLD.
            let shard0 = pages_of(0, 16);
            for i in 0..4_000u64 {
                let page = shard0[(i % 16) as usize];
                b.push(c, page, AccessKind::Write, None, old_hint);
                b.push(c, page, AccessKind::Read, None, old_hint);
            }
            // Phase 2: 400 write+read pairs over shard-1 pages, hint NEW —
            // enough for at least one per-shard priority window (250).
            let shard1 = pages_of(1, 16);
            for i in 0..400u64 {
                let page = shard1[(i % 16) as usize];
                b.push(c, page, AccessKind::Write, None, new_hint);
                b.push(c, page, AccessKind::Read, None, new_hint);
            }
            let trace = b.build();
            let phase1_len = 8_000;
            for req in &trace.requests[..phase1_len] {
                sharded.access(req);
            }
            sharded.merge_priorities(); // end of phase 1: sets the markers
            for req in &trace.requests[phase1_len..] {
                sharded.access(req);
            }
            sharded.merge_priorities(); // the merge under test
            let shard0 = recover_lock(&sharded.shards[0]);
            (
                shard0.clic.priority_of(new_hint),
                shard0.clic.priority_of(old_hint),
            )
        };

        assert!(pw_new > 0.0, "the merge must carry NEW over to shard 0");
        assert!(
            pw_new > pw_old,
            "after the shift, per-window merging must rank the new hint \
             above the stale one ({pw_new:.6} vs {pw_old:.6})"
        );
    }
}
