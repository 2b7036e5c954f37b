//! Storage-server cache simulation substrate for the CLIC reproduction.
//!
//! This crate models the *second tier* of a multi-tier block cache hierarchy:
//! a storage server that receives a stream of block I/O requests from one or
//! more storage clients (for example database systems), each request possibly
//! carrying an application-generated *hint set*.
//!
//! The crate provides:
//!
//! * the request model ([`Request`], [`PageId`], [`ClientId`], [`AccessKind`],
//!   [`WriteHint`]) and the hint catalog ([`HintCatalog`], [`HintSchema`],
//!   [`HintSetId`]) shared by every other crate in the workspace,
//! * the [`CachePolicy`] trait that every replacement policy implements,
//! * baseline replacement policies used by the paper's evaluation
//!   (OPT/Belady-MIN, LRU, ARC, TQ),
//! * the trace container ([`Trace`]) and the one serial replay,
//!   [`simulate`], that measures server-cache read hit ratios,
//! * the parallel replay engine: a dependency-free scoped thread pool
//!   ([`par::ThreadPool`]) with a deterministic ordered `par_map`, the
//!   [`compare_policies`] fan-out that runs independent simulation cells
//!   across cores in exact serial order, and the page-partitioned
//!   [`simulate_partitioned_parallel`] replay with its partition helpers
//!   ([`partition_requests`], [`partition_capacities`]), and
//! * a [`PartitionedCache`] that statically partitions a cache
//!   among clients (the baseline of the paper's multi-client experiment).
//!
//! # Example
//!
//! ```
//! use cache_sim::{simulate, Trace, TraceBuilder, AccessKind, policies::Lru};
//!
//! // Build a tiny single-client trace by hand.
//! let mut b = TraceBuilder::new();
//! let client = b.add_client("example", &[("kind", 2)]);
//! let hint = b.intern_hints(client, &[0]);
//! for page in [1u64, 2, 3, 1, 2, 3, 1, 2, 3] {
//!     b.push(client, page, AccessKind::Read, None, hint);
//! }
//! let trace: Trace = b.build();
//!
//! let mut lru = Lru::new(2);
//! let result = simulate(&mut lru, &trace);
//! // A 2-page LRU cache sees no hits on a cyclic 3-page scan.
//! assert_eq!(result.stats.read_hits, 0);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod driver;
pub mod hash;
pub mod hints;
pub mod oracle;
pub mod par;
pub mod partitioned;
pub mod policies;
pub mod policy;
pub mod request;
pub mod stats;
pub mod sync;
pub mod trace;

pub use driver::{
    compare_policies, partition_capacities, partition_requests, record_outcomes, simulate,
    simulate_partitioned_parallel, SimulationResult, REPLAY_CHUNK,
};
pub use hash::{page_partition, FastBuildHasher, FastHashMap, FastHashSet};
pub use hints::{HintCatalog, HintSchema, HintSetId, HintTypeDescriptor, HintValue};
pub use oracle::NextUseOracle;
pub use par::{default_jobs, ThreadPool};
pub use partitioned::PartitionedCache;
pub use policy::{BoxedPolicy, CachePolicy, PolicyFactory};
pub use request::{AccessKind, ClientId, PageId, Request, WriteHint};
pub use stats::{CacheStats, IoStats};
pub use sync::{checked_lock, recover_lock, LockPoisoned};
pub use trace::{Trace, TraceBuilder, TraceSummary};
