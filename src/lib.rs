//! # CLIC: CLient-Informed Caching for Storage Servers — a reproduction
//!
//! This crate is the top-level facade of a full reproduction of
//! *CLIC: CLient-Informed Caching for Storage Servers*
//! (Liu, Aboulnaga, Salem, Li — FAST '09). It re-exports the workspace
//! crates so that applications can depend on a single crate:
//!
//! * [`core`] ([`clic_core`]) — the CLIC policy itself: generic hint-set
//!   analysis, windowed benefit/cost priorities, the priority-based
//!   replacement policy, and bounded top-k hint tracking,
//! * [`sim`] ([`cache_sim`]) — the storage-server cache model, the
//!   [`CachePolicy`] trait, the baseline policies (OPT, LRU, ARC and TQ),
//!   the simulation driver (one serial replay, [`prelude::simulate`], and
//!   one fan-out across cores, [`prelude::compare_policies`]), and
//!   multi-client partitioned caches,
//! * [`stats`] ([`stream_stats`]) — Space-Saving and other frequent-item
//!   summaries,
//! * [`workloads`] ([`trace_gen`]) — the simulated DB2/MySQL storage clients,
//!   TPC-C-like and TPC-H-like workload generators, the eight trace presets
//!   of the paper's Figure 5, noise injection, and trace interleaving,
//! * [`server`] ([`clic_server`]) — the *online* deployment: a concurrent,
//!   sharded storage-server cache service with batched request dispatch,
//!   cross-shard hint-priority merging, a multi-client load harness, an
//!   event-driven TCP/Unix-socket front-end speaking a length-prefixed
//!   binary protocol, and an open-loop Poisson load generator with
//!   coordinated-omission-safe latency measurement,
//! * [`store`] ([`clic_store`]) — the data plane behind the server: a
//!   disk-backed page store (one per server shard) with buffer frames,
//!   dirty tracking, inline write-back, and a write-ahead log with
//!   selectable durability (buffered, group commit, or strict), so
//!   `Put`/`Get` move real bytes and acknowledged writes survive a crash,
//! * [`obs`] ([`clic_obs`]) — the observability layer threaded through the
//!   store and server: an atomic metrics registry, log-scaled latency
//!   histograms, and per-thread event tracing, all behind a
//!   zero-when-disabled [`prelude::Recorder`].
//!
//! The experiment harness that regenerates every table and figure of the
//! paper lives in the `clic-bench` crate (`crates/bench`): one `run_all`
//! binary runs any or all of them in one process.
//!
//! # Quick start
//!
//! ```
//! use clic::prelude::*;
//!
//! // 1. Generate a storage-server trace from a simulated DB2 TPC-C client.
//! let trace = TracePreset::Db2C60.build(PresetScale::Smoke);
//!
//! // 2. Run CLIC and LRU over it at the same server-cache size.
//! let cache_pages = 1_000;
//! let mut clic = Clic::new(cache_pages, ClicConfig::default().with_window(10_000));
//! let mut lru = Lru::new(cache_pages);
//! let clic_result = simulate(&mut clic, &trace);
//! let lru_result = simulate(&mut lru, &trace);
//!
//! // 3. Compare read hit ratios.
//! println!(
//!     "CLIC {:.1}% vs LRU {:.1}%",
//!     clic_result.read_hit_ratio() * 100.0,
//!     lru_result.read_hit_ratio() * 100.0
//! );
//! # assert!(clic_result.read_hit_ratio() >= 0.0);
//! ```
//!
//! # Serving requests online
//!
//! The same policy can run as a live, thread-safe service: a
//! [`Server`](server::Server) partitions the page space across independently
//! locked CLIC shards and accepts batches of `Get`/`Put` requests from any
//! number of client threads. With one shard its results are identical to
//! [`simulate`](sim::simulate); see `examples/storage_server.rs` for the full
//! multi-client load harness.
//!
//! ```
//! use clic::prelude::*;
//!
//! let server = Server::start(ServerConfig::new(1_000).with_shards(2));
//! let hint = HintSetId(0);
//! let batch = vec![
//!     ServerRequest::Put {
//!         client: ClientId(0),
//!         page: PageId(7),
//!         hint,
//!         write_hint: None,
//!         data: None, // page bytes, when the server runs over a store
//!     },
//!     ServerRequest::Get {
//!         client: ClientId(0),
//!         page: PageId(7),
//!         hint,
//!         prefetch: false,
//!     },
//! ];
//! let responses = server.submit(&batch);
//! assert_eq!(responses[1].hit(), Some(true)); // the Put populated the cache
//! let result = server.shutdown(); // same shape as a SimulationResult
//! assert_eq!(result.stats.requests(), 2);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub use cache_sim as sim;
pub use clic_core as core;
pub use clic_obs as obs;
pub use clic_server as server;
pub use clic_store as store;
pub use stream_stats as stats;
pub use trace_gen as workloads;

pub use cache_sim::CachePolicy;

/// The most commonly used items, re-exported in one place.
pub mod prelude {
    pub use cache_sim::policies::{Arc, Lru, Opt, Tq};
    pub use cache_sim::{
        compare_policies, page_partition, simulate, simulate_partitioned_parallel, AccessKind,
        CachePolicy, CacheStats, ClientId, HintSetId, IoStats, PageId, PartitionedCache, Request,
        SimulationResult, ThreadPool, Trace, TraceBuilder, WriteHint,
    };
    pub use clic_core::{
        analyze_trace, suggested_window, Clic, ClicConfig, HintSetReport, TrackingMode,
    };
    pub use clic_obs::{Clock, HistogramSnapshot, MetricsSnapshot, Recorder, SpanKind};
    pub use clic_server::{
        merge_client_traces, preset_client_traces, run_load, run_open_loop, BlockingClient,
        LoadConfig, LoadReport, NetOptions, NetServer, OpenLoopConfig, OpenLoopReport, Server,
        ServerConfig, ServerRequest, ServerResponse, ShardedClic, ShardedClicConfig, StatsSnapshot,
    };
    pub use clic_store::{
        page_payload, replay_storage, replay_storage_partitioned, Durability, PageStore,
        StorageReplayReport, StoreConfig, DEFAULT_PAGE_SIZE,
    };
    pub use stream_stats::SpaceSaving;
    pub use trace_gen::{
        inject_noise, interleave, NoiseConfig, PresetScale, TpccConfig, TpccWorkload, TpchConfig,
        TpchVariant, TpchWorkload, TracePreset,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_are_usable_together() {
        // Build a tiny trace through the workload crate, run it through both
        // a baseline and CLIC via the re-exported names.
        let trace = TracePreset::MyH65.build(PresetScale::Smoke);
        let mut lru = Lru::new(500);
        let mut clic = Clic::new(500, ClicConfig::default().with_window(5_000));
        let lru_result = simulate(&mut lru, &trace);
        let clic_result = simulate(&mut clic, &trace);
        assert!(lru_result.stats.requests() == trace.len() as u64);
        assert!(clic_result.stats.requests() == trace.len() as u64);
    }
}
