//! Storage-client substrate for the CLIC reproduction.
//!
//! The paper evaluates CLIC on I/O traces collected beneath the buffer
//! caches of instrumented DB2 and MySQL servers running TPC-C and TPC-H.
//! Those binaries, databases, and traces are not available, so this crate
//! rebuilds the entire pipeline that produced them:
//!
//! * [`db`] — a synthetic relational database layout (tables, indexes,
//!   growth) mapped onto storage pages,
//! * [`bufferpool`] — a first-tier DBMS buffer-pool simulator with an
//!   asynchronous page cleaner (replacement writes), checkpoints (recovery
//!   writes), synchronous writes, priorities and prefetch,
//! * [`client`] — the simulated DBMS storage client that attaches DB2-style
//!   or MySQL-style hint sets (the paper's Figure 2) to every storage I/O,
//! * [`tpcc`] / [`tpch`] — TPC-C-like and TPC-H-like workload generators,
//! * [`presets`] — the eight trace configurations of Figure 5
//!   (`DB2_C60` … `MY_H98`) with paper-scale and scaled-down variants,
//! * [`noise`] — the useless-hint injection of Section 6.3,
//! * [`interleave`](mod@interleave) — the multi-client trace interleaving of Section 6.4,
//! * [`zipf`] — Zipf sampling used by the workloads and the noise injector.
//!
//! # Example
//!
//! ```
//! use trace_gen::{PresetScale, TracePreset};
//!
//! // Build a scaled-down version of the paper's DB2_C60 trace.
//! let trace = TracePreset::Db2C60.build(PresetScale::Smoke);
//! assert_eq!(trace.name, "DB2_C60");
//! assert!(trace.summary().distinct_hint_sets > 10);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod bufferpool;
pub mod client;
pub mod db;
pub mod interleave;
pub mod noise;
pub mod presets;
pub mod tpcc;
pub mod tpch;
pub mod zipf;

pub use bufferpool::{BufferPool, BufferPoolConfig, PoolEvent};
pub use client::{DbmsSimulator, HintStyle};
pub use db::{DatabaseLayout, ObjectId, ObjectKind, ObjectSpec};
pub use interleave::interleave;
pub use noise::{inject_noise, NoiseConfig};
pub use presets::{PresetScale, TracePreset};
pub use tpcc::{TpccConfig, TpccWorkload};
pub use tpch::{TpchConfig, TpchVariant, TpchWorkload};
pub use zipf::Zipf;
