//! A concurrent, sharded storage-server cache *service* built on the CLIC
//! policy — the online counterpart of the offline trace simulations in the
//! rest of the workspace.
//!
//! The paper evaluates CLIC by replaying recorded traces through a
//! single-threaded simulator, but its premise is a live second-tier cache
//! serving many concurrent database clients (Section 1 and the multi-client
//! experiment of Figure 11). This crate provides that server:
//!
//! * [`ShardedClic`] — a thread-safe cache that hash-partitions the page
//!   space across N independently locked CLIC shards. Each shard keeps its
//!   own hint statistics; a periodic *cross-shard priority merge* (built on
//!   [`clic_core::Clic::export_priorities`] /
//!   [`clic_core::Clic::import_priorities`]) request-weight-averages the
//!   shards' hint-set priorities so hint learning is not fragmented by the
//!   partitioning. With one shard it behaves *exactly* like a single
//!   [`clic_core::Clic`] driven by [`cache_sim::simulate`].
//! * [`Server`] — a long-running front-end that accepts *batches* of
//!   [`ServerRequest`]s (`Get`/`Put`/`Stats`, each access carrying its
//!   client's opaque wire hint, which the server interns per client into a
//!   dense hint-set id). [`Server::submit`] serves a batch on the caller's thread:
//!   one routing pass gives each shard its batch positions and requests,
//!   then its shards are served in shard order, one *step* at a time (a
//!   delete, or up to [`cache_sim::REPLAY_CHUNK`] accesses under the shard's
//!   lock), and the responses are built once, in batch order, at the end;
//!   separate submitters run in parallel, and the shard lock is the
//!   back-pressure. A step reports one result for all its operations and
//!   leaves their outcomes in place for its caller to read. The network
//!   front-end, which must never block on a shard, queues its sub-batches to
//!   one worker thread per shard over bounded channels instead; a worker
//!   serves them through the same step routine and sends each step's replies
//!   back as one channel message, so a blocked submitter wakes once per
//!   step.
//! * [`run_load`] — a closed-loop load harness that spawns one client thread
//!   per input trace (typically [`trace_gen`] presets over disjoint page
//!   ranges), drives them against a server concurrently, and reports
//!   throughput (requests/s), batch latencies as a [`HistogramSnapshot`], and per-client hit
//!   ratios in the same shape as [`cache_sim::SimulationResult`].
//! * An optional **data plane**: attach a disk-backed page store
//!   ([`ServerConfig::with_store`], built on [`clic_store`]) and the server
//!   moves real bytes: each shard hands every policy decision to its
//!   store's single mirror ([`PageStore::mirror`], the one the offline
//!   replay uses) — `Put` payloads are staged write-back through a
//!   write-ahead log, `Get` responses carry the page's bytes, the policy's
//!   evictions flush dirty buffer frames — and [`Server::shutdown`]
//!   checkpoints the store (dropping the server instead models a crash, from
//!   which the WAL recovers every acknowledged write).
//! * A **network front-end** ([`NetServer`]): one event-loop thread puts
//!   the server behind real TCP and Unix-domain sockets speaking the
//!   length-prefixed binary protocol of [`wire`], multiplexed with the
//!   `epoll` poller of [`sys`] — no thread per connection, a 64-request
//!   in-flight window per connection (a request holds its slot until its
//!   reply is written) as the one back-pressure mechanism, and per-shard
//!   coalescing into the tagged enqueue of
//!   [`Server::submit_shard_tagged`], whose workers serve through the step
//!   routine `submit` runs inline. The loop never polls on a timer: it sleeps until a
//!   socket is ready or a shard worker, done with a step, sends that step's
//!   replies as one message and fires the loop's `eventfd` waker
//!   ([`sys::Waker`], carried in the [`server::ReplySink`] the loop submits
//!   with), and each iteration visits only the connections that wake-up
//!   touched. Over a store whose log syncs, a write's reply
//!   leaves once the shard's log writer has synced it ([`server`] module
//!   docs). Every receiver — the event loop, [`BlockingClient`],
//!   the open-loop reader — turns bytes into frames through the one
//!   cursor-based [`wire::FrameBuf`]. [`openloop`] is the
//!   matching open-loop Poisson load generator whose latency percentiles
//!   are free of coordinated omission.
//! * **Observability**: pass an enabled [`clic_obs::Recorder`]
//!   ([`ServerConfig::with_recorder`]) and the server reports a queue-depth
//!   gauge, per-sub-batch service-time and client-observed batch-latency
//!   histograms, and `ShardBatch`/`PriorityMerge` trace spans — plus, on a
//!   store-backed server, the store's WAL/flush spans, since the
//!   recorder is shared with every shard store. A [`ServerRequest::Stats`]
//!   response carries the merged [`clic_obs::MetricsSnapshot`]
//!   ([`StatsSnapshot`]) alongside the policy statistics; the `store.*`
//!   I/O counters in it are always on, recorder or not. The event loop
//!   adds `net.loop_iterations`, `net.completion_wakeups` and
//!   `net.socket_wakeups`.
//!
//! The crate is **Linux-only**: the front-end is written against `epoll`
//! and `eventfd` directly, with no portable fallback.
//!
//! # Example
//!
//! ```
//! use cache_sim::{AccessKind, TraceBuilder};
//! use clic_server::{Server, ServerConfig, ServerRequest, ServerResponse};
//!
//! // A tiny workload: one client re-reading a handful of pages.
//! let mut b = TraceBuilder::new();
//! let client = b.add_client("db", &[("kind", 2)]);
//! let hint = b.intern_hints(client, &[0]);
//! for round in 0..4u64 {
//!     for page in 0..8u64 {
//!         b.push(client, page, AccessKind::Read, None, hint);
//!     }
//!     let _ = round;
//! }
//! let trace = b.build();
//!
//! // Serve it through a 2-shard server, one batch at a time.
//! let server = Server::start(ServerConfig::new(16).with_shards(2));
//! let mut hits = 0u64;
//! for chunk in trace.requests.chunks(8) {
//!     let batch: Vec<ServerRequest> = chunk.iter().map(ServerRequest::from_request).collect();
//!     for response in server.submit(&batch) {
//!         if let ServerResponse::Get { hit: true, .. } = response {
//!             hits += 1;
//!         }
//!     }
//! }
//! let result = server.shutdown();
//! assert_eq!(result.stats.requests(), trace.len() as u64);
//! assert_eq!(result.stats.read_hits, hits);
//! // Every pass after the first hits: the working set fits the cache.
//! assert!(result.read_hit_ratio() > 0.7);
//! ```
//!
//! # Wire protocol
//!
//! Every message on a connection is one frame (all integers
//! little-endian; see [`wire`] for the codec and per-message bodies):
//!
//! | offset | size | field | meaning |
//! |-------:|-----:|-------|---------|
//! | 0 | 4 | `len: u32` | bytes after this prefix (opcode + seq + body), at most [`wire::MAX_FRAME_LEN`] |
//! | 4 | 1 | `opcode: u8` | `0x01` Get, `0x02` Put, `0x03` Delete, `0x04` Stats; responses are the same values with the high bit set (`0x81`–`0x84`), plus `0x85` Error |
//! | 5 | 8 | `seq: u64` | client-chosen correlation id, echoed verbatim on the response (responses may arrive out of order across shards) |
//! | 13 | `len - 9` | body | per-opcode payload |
//!
//! Request bodies: `Get` is `client: u16, page: u64, hint: u32,
//! flags: u8` (bit 0 = prefetch); `Put` is `client: u16, page: u64,
//! hint: u32, write_hint: u8` (0 none / 1 replacement / 2 recovery /
//! 3 synchronous) `, has_data: u8` then, if 1, `data_len: u32` + bytes;
//! `Delete` is `page: u64`; `Stats` is empty. Response bodies: `Get` is
//! `flags: u8` (bit 0 = hit, bit 1 = data present) then, if present,
//! `data_len: u32` + bytes; `Put` is `hit: u8`; `Delete` is
//! `existed: u8`; `Stats` carries the full [`StatsSnapshot`] — policy
//! result, counters, gauges, and sparse `(index, count)` histogram
//! buckets. Decoding is strict: unknown opcodes, truncated fields,
//! out-of-range enums, and trailing bytes are all rejected
//! ([`wire::WireError`]) and close the offending connection.
//!
//! An `Error` response (`0x85`, [`wire::OP_ERR`]) may answer *any* request
//! in place of its normal response when the server cannot complete it. Its
//! body is a single `code: u8`:
//!
//! | code | [`ErrorCode`] | meaning |
//! |-----:|---------------|---------|
//! | 1 | `Io` | the data plane failed an I/O operation (read, write, or fsync) |
//! | 2 | `Corrupt` | a page failed its CRC on read |
//!
//! Codes 3, 4 and 5 are unassigned and rejected like any unknown code. The server
//! never sheds load: saturation blocks (the in-flight window, the bounded
//! shard queues, the shard locks) instead of answering, so no error response is worth
//! resending. The client's [`RetryPolicy`] retries transport failures
//! only, backing off exponentially with jitter before it reconnects.
//!
//! # Robustness
//!
//! The server is built to degrade, not die, under a hostile environment:
//!
//! * **Fault injection** ([`clic_store::FaultInjector`], re-exported here):
//!   a seeded, deterministic schedule of injectable faults covering the
//!   disk/WAL surface (failed or short reads/writes, failed fsyncs, torn
//!   writes, CRC corruption) via [`StoreConfig::with_fault_injector`] and
//!   the network surface (accept failures, connection resets, partial
//!   socket writes) via [`NetOptions`]. Disabled injectors are a single
//!   branch on the hot path — the same zero-cost-when-off contract as the
//!   [`Recorder`].
//! * **Error propagation**: a step turns a store error into a typed
//!   [`ErrorCode`] for that step's requests — an `Error` response from
//!   [`Server::submit`], an `Error` frame through the front-end's
//!   completion path — instead of panicking the serving thread.
//! * **Graceful degradation**: [`BlockingClient`] supports connect/read/write
//!   timeouts, reconnection, and bounded seeded-jitter retries
//!   ([`RetryPolicy`]); the open-loop generator counts error responses
//!   separately from completions instead of aborting the run.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(clippy::disallowed_methods)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

#[cfg(not(target_os = "linux"))]
compile_error!("clic-server is Linux-only: its event loop is epoll + eventfd (see `sys`)");

pub mod harness;
pub mod net;
pub mod openloop;
pub mod protocol;
pub mod server;
pub mod sharded;
pub mod sys;
pub mod wire;

pub use harness::{
    merge_client_traces, preset_client_traces, run_load, ClientLoad, LoadConfig, LoadReport,
    CLIENT_BATCH_HISTOGRAM,
};
pub use net::{BlockingClient, NetOptions, NetServer, RetryPolicy};
pub use openloop::{run_open_loop, OpenLoopConfig, OpenLoopReport};
pub use protocol::{ErrorCode, ServerRequest, ServerResponse, StatsSnapshot};
pub use server::{
    Server, ServerConfig, BATCH_SERVICE_HISTOGRAM, HINT_SETS_GAUGE, QUEUE_DEPTH_GAUGE,
};
pub use sharded::{ShardedClic, ShardedClicConfig};
pub use wire::WireError;

// Re-exported so server embedders can configure the data plane without
// depending on `clic-store` directly.
pub use clic_store::{
    Durability, FaultInjector, FaultPoint, PageStore, StoreConfig, DEFAULT_PAGE_SIZE,
};

// Observability types appearing in this crate's public API
// ([`ServerConfig::with_recorder`], [`StatsSnapshot::metrics`],
// [`LoadReport::latency`]).
pub use clic_obs::{HistogramSnapshot, MetricsSnapshot, Recorder, SpanKind, TraceDump};
