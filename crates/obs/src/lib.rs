//! Observability for the CLIC reproduction: metrics, latency histograms,
//! and event tracing — dependency-free, and free when disabled.
//!
//! The policy work decides *what* to cache; the system grown around it
//! (WAL, group commit, write-back, sharded server) wins or loses on
//! *time*. This crate is the measurement substrate the ROADMAP's
//! remaining studies need: every runtime layer threads a [`Recorder`]
//! through, and the benchmarks read percentiles and traces back out.
//!
//! # The three primitives, and what each costs
//!
//! | Primitive | Record cost | Memory | Use it for |
//! |---|---|---|---|
//! | [`Counter`] / [`Gauge`] | 1–2 relaxed atomic RMWs | 8–16 B | things you *add up*: requests served, WAL syncs, queue depth. Deterministic for a deterministic workload, so they can be asserted on and diffed across `--jobs` counts. |
//! | [`LatencyHistogram`] | 4 relaxed atomic RMWs | ~15 KiB fixed | things you take *percentiles* of: batch service time, fsync stalls. Log-scaled (≤3% relative error, exact below 64), bounded memory no matter the sample count, exact merge. Timing-dependent, so never part of determinism checks. |
//! | trace span ([`Recorder::span`]) | 2 clock reads + a push into a per-thread ring | capacity × 40 B per thread | *reconstructing interleavings*: which fsync stalled which shard batch, when a flush pass ran. Fixed-capacity ring keeps the newest window; drain to JSON. The most expensive primitive — put it around operations that already do I/O or take locks, not in per-access loops. |
//!
//! Rules of thumb: a counter when you will assert or sum it, a histogram
//! when you will plot it, a span when you will *read* it to explain an
//! interleaving. All three are cheap enough for the WAL/flush/shard
//! paths they instrument; none belong on the policy's per-access hot path
//! (which is why the benchmark's `policy_tpcc` workload takes no recorder
//! at all).
//!
//! # Zero when disabled
//!
//! Everything hangs off a [`Recorder`], a cloneable
//! `Option<Arc<…>>` handle. [`Recorder::disabled`] (the `Default`) makes
//! every call a branch on `None` the optimizer folds away — components can
//! take instrumentation unconditionally and let configuration decide.
//!
//! # One clock
//!
//! All timestamps flow through [`Clock`]: monotonic nanoseconds in
//! production, an atomic counter under [`Clock::mock`] in tests — so trace
//! dumps are byte-for-byte deterministic where tests need them to be.
//!
//! # One JSON writer
//!
//! Every machine-readable report in the workspace — trace dumps, metrics
//! snapshots, the figure runner's ledger — is a [`json::JsonValue`] tree
//! rendered by its `Display` impl; [`json::validate`] checks the result.
//!
//! # Example
//!
//! ```
//! use clic_obs::{Clock, Recorder, SpanKind};
//!
//! let clock = Clock::mock();
//! let recorder = Recorder::with_clock(clock.clone());
//!
//! // Counter: cache the handle, bump it lock-free.
//! let syncs = recorder.counter("wal.syncs").unwrap();
//! syncs.inc();
//!
//! // Histogram: record latencies, read percentiles from a snapshot.
//! let lat = recorder.histogram("fsync_ns").unwrap();
//! lat.record(250);
//! lat.record(800);
//!
//! // Span: RAII around the interesting section.
//! let span = recorder.span(SpanKind::WalFsync);
//! clock.advance(1_000);
//! span.finish(2); // detail: appends covered by this sync
//!
//! let snap = recorder.snapshot();
//! assert_eq!(snap.counter("wal.syncs"), 1);
//! assert_eq!(snap.histogram("fsync_ns").max(), 800);
//! let dump = recorder.drain_trace();
//! assert_eq!(dump.events.len(), 1);
//! assert_eq!(dump.events[0].duration_ns(), 1_000);
//! clic_obs::json::validate(&dump.to_json()).unwrap();
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod clock;
pub mod hist;
pub mod json;
pub mod recorder;
pub mod registry;
pub mod trace;

pub use clock::Clock;
pub use hist::{HistogramSnapshot, LatencyHistogram};
pub use recorder::{Recorder, Span, DEFAULT_TRACE_CAPACITY};
pub use registry::{Counter, Gauge, GaugeSnapshot, MetricsRegistry, MetricsSnapshot};
pub use trace::{SpanKind, TraceCollector, TraceDump, TraceEvent};
