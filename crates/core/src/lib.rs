//! CLIC: CLient-Informed Caching for storage servers.
//!
//! This crate implements the contribution of *CLIC: CLient-Informed Caching
//! for Storage Servers* (Liu, Aboulnaga, Salem & Li, FAST '09): a **generic,
//! hint-based replacement policy** for second-tier (storage-server) caches.
//!
//! Storage clients attach an opaque *hint set* to every I/O request. CLIC
//! does not know what the hints mean; instead it *learns* which hint sets
//! identify good caching opportunities:
//!
//! 1. For every hint set `H` it tracks `N(H)` (requests carrying `H`),
//!    `Nr(H)` (those requests that were followed by a *read* re-reference of
//!    the same page), and `D(H)` (the mean re-reference distance), using the
//!    cache contents plus a bounded [`OutQueue`] of recently seen but
//!    uncached pages (Section 3.1 of the paper).
//! 2. Every `W` requests it converts the window's statistics into a caching
//!    priority `Pr(H) = fhit(H) / D(H)` with `fhit(H) = Nr(H)/N(H)`, smoothed
//!    across windows by `Pr_i = r·P̂r_i + (1−r)·Pr_{i−1}` (Section 3.2).
//! 3. Its replacement policy admits a page only if its hint set's priority
//!    exceeds the minimum priority of any cached page, evicting the oldest
//!    page of the lowest-priority hint set (Figure 4).
//! 4. Optionally, hint statistics are tracked only for the top-`k` most
//!    frequent hint sets using an adapted Space-Saving summary (Section 5),
//!    bounding the tracking state regardless of how many distinct hint sets
//!    the clients emit.
//!
//! The main entry point is [`Clic`], which implements the
//! [`cache_sim::CachePolicy`] trait and can therefore be driven by the
//! [`cache_sim`] simulation harness alongside the baseline policies. Its
//! per-page state lives in the slab-backed [`page_table::PageTable`] (one
//! open-addressed lookup per request, intrusive per-hint lists, a shared
//! cached/outqueue slab); the retained pre-refactor implementation,
//! [`ReferenceClic`], is a differential-testing oracle only.
//!
//! # Example
//!
//! ```
//! use cache_sim::{simulate, AccessKind, TraceBuilder};
//! use clic_core::{Clic, ClicConfig};
//!
//! // A toy trace: pages written with hint value 1 are re-read soon, pages
//! // with hint value 0 never are. CLIC should learn to cache the former.
//! let mut b = TraceBuilder::new();
//! let client = b.add_client("toy", &[("kind", 2)]);
//! let cold = b.intern_hints(client, &[0]);
//! let hot = b.intern_hints(client, &[1]);
//! for i in 0..10_000u64 {
//!     b.push(client, i, AccessKind::Write, None, cold);
//!     b.push(client, 1_000_000 + (i % 50), AccessKind::Write, None, hot);
//!     b.push(client, 1_000_000 + (i % 50), AccessKind::Read, None, hot);
//! }
//! let trace = b.build();
//!
//! let config = ClicConfig::default().with_window(1_000);
//! let mut clic = Clic::new(64, config);
//! let result = simulate(&mut clic, &trace);
//! assert!(result.read_hit_ratio() > 0.9);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod analysis;
pub mod config;
pub mod generalize;
pub mod outqueue;
pub mod page_table;
pub mod policy;
pub mod priority;
pub mod reference;
pub mod stats;
pub mod tracker;

pub use analysis::{analyze_trace, HintSetReport};
pub use config::{suggested_window, ClicConfig, TrackingMode};
pub use generalize::{
    train_grouping, train_grouping_from_prefix, HintDecisionTree, HintSetGrouping,
};
pub use outqueue::OutQueue;
pub use page_table::{PageRecord, PageTable};
pub use policy::Clic;
pub use priority::PriorityTable;
#[doc(hidden)]
pub use reference::ReferenceClic;
pub use stats::HintWindowStats;
pub use tracker::{FullTracker, HintStatsTracker, TopKTracker};
