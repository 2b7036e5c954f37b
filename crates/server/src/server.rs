//! The long-running server front-end: batched request dispatch to shard
//! worker threads over bounded channels.
//!
//! One worker thread per shard owns that shard's request stream. The
//! front-end splits every submitted batch by shard, sends the per-shard
//! sub-batches through *bounded* channels (so a slow shard exerts
//! back-pressure on clients instead of queueing unboundedly), and reassembles
//! the responses in batch order. Requests for the same shard are processed in
//! submission order; requests for different shards proceed concurrently.
//!
//! Over a store whose log syncs ([`Durability::GroupCommit`],
//! [`Durability::Strict`]), each worker owns a log writer thread. The worker
//! appends without syncing and answers reads at once. It hands the
//! acknowledgements of writes and deletes to the writer, which syncs the log
//! once for all it holds and only then delivers them, so an acknowledged
//! logged write is device-durable for the network front-end and
//! [`Server::submit`] alike (the contract in [`clic_store::wal`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};

use cache_sim::{IoStats, Request, SimulationResult, REPLAY_CHUNK};
use clic_core::ClicConfig;
use clic_obs::{Gauge, MetricsSnapshot, Recorder, SpanKind};
use clic_store::{Durability, PageStore, StoreConfig};

use crate::protocol::{ErrorCode, ServerRequest, ServerResponse, StatsSnapshot};
use crate::sharded::{ShardedClic, ShardedClicConfig};
use crate::sys::Waker;

/// Gauge name for the number of sub-batches currently queued (or in
/// flight) across all shard workers; its peak records the deepest backlog.
pub const QUEUE_DEPTH_GAUGE: &str = "server.queue_depth";

/// Histogram name for per-sub-batch shard-worker service time in
/// microseconds (dequeue to last reply sent).
pub const BATCH_SERVICE_HISTOGRAM: &str = "server.batch_service_us";

/// Configuration for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The sharded cache the server fronts.
    pub cache: ShardedClicConfig,
    /// Bound of each shard worker's request queue, in sub-batches. Small
    /// values give tighter back-pressure; the default of 4 keeps a worker
    /// busy while the next batch is being partitioned.
    pub queue_depth: usize,
    /// WAL durability applied to the attached store at start-up, when set,
    /// without rebuilding the [`StoreConfig`]; `None` keeps the store
    /// config's. On a server, `Buffered` acknowledges writes unsynced, and
    /// `GroupCommit` and `Strict` alike acknowledge them once synced.
    pub durability: Option<Durability>,
}

impl ServerConfig {
    /// A single-shard server over a `capacity`-page CLIC cache.
    pub fn new(capacity: usize) -> Self {
        ServerConfig {
            cache: ShardedClicConfig::new(capacity),
            queue_depth: 4,
            durability: None,
        }
    }

    /// Sets the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.cache = self.cache.with_shards(shards);
        self
    }

    /// Sets the per-shard CLIC configuration (window in global requests) and
    /// aligns the merge period with its window — call
    /// [`ServerConfig::with_merge_every`] *after* this to override it.
    pub fn with_clic(mut self, clic: ClicConfig) -> Self {
        self.cache = self.cache.with_clic(clic);
        self
    }

    /// Sets the cross-shard priority-merge period in global requests.
    pub fn with_merge_every(mut self, merge_every: u64) -> Self {
        self.cache = self.cache.with_merge_every(merge_every);
        self
    }

    /// Sets the per-worker queue bound (clamped to at least 1).
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth.max(1);
        self
    }

    /// Attaches a disk-backed page store: the server then moves real bytes —
    /// `Put` payloads are staged write-back through the WAL, `Get` responses
    /// carry the page's bytes, and evictions flush dirty frames. See
    /// [`ShardedClicConfig::with_store`].
    pub fn with_store(mut self, store: StoreConfig) -> Self {
        self.cache = self.cache.with_store(store);
        self
    }

    /// Sets the WAL durability level for the attached store (see
    /// [`Durability`]); may be called before or after
    /// [`ServerConfig::with_store`]. Ignored on a server without a store.
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = Some(durability);
        self
    }

    /// Sets the observability handle: an enabled [`Recorder`] gives the
    /// server a queue-depth gauge ([`QUEUE_DEPTH_GAUGE`]), a per-batch
    /// service-time histogram ([`BATCH_SERVICE_HISTOGRAM`]),
    /// [`clic_obs::SpanKind::ShardBatch`]/[`clic_obs::SpanKind::PriorityMerge`]
    /// trace spans, and — on a store-backed server — the store-level spans
    /// too (the recorder is shared with every shard store). The default
    /// disabled recorder records nothing.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.cache = self.cache.with_recorder(recorder);
        self
    }
}

/// The successful outcome of one shard operation.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// The boolean outcome: cache hit for `Get`/`Put`, existence for
    /// `Delete`.
    pub hit: bool,
    /// The page bytes of a store-backed `Get` (`None` otherwise).
    pub data: Option<Vec<u8>>,
}

/// One reply from a shard worker: the submitter's tag for the operation
/// (its batch position in [`Server::submit`], a slab index in the
/// event-driven front-end), and either the successful [`ShardOutcome`] or
/// the [`ErrorCode`] to answer with — storage failures propagate here
/// instead of panicking the worker.
pub type ShardReply = (usize, Result<ShardOutcome, ErrorCode>);

/// Where a shard worker answers a submission: the submitter's reply channel
/// and, for a submitter that sleeps in a [`crate::sys::Poller`] rather than
/// on the channel, the [`Waker`] that ends that sleep. The worker wakes it
/// once per step, after the step's replies are on the channel, and a log
/// writer once per sync.
#[derive(Debug, Clone)]
pub struct ReplySink {
    tx: mpsc::Sender<ShardReply>,
    waker: Option<Arc<Waker>>,
}

impl ReplySink {
    /// A sink for a submitter that blocks on the channel's receiver.
    pub fn new(tx: mpsc::Sender<ShardReply>) -> ReplySink {
        ReplySink { tx, waker: None }
    }

    /// A sink for a submitter that must be woken to look at the channel.
    pub fn with_waker(tx: mpsc::Sender<ShardReply>, waker: Arc<Waker>) -> ReplySink {
        ReplySink {
            tx,
            waker: Some(waker),
        }
    }

    /// Puts `replies` on the channel and, if there were any, wakes a
    /// submitter that has to be woken.
    fn deliver(&self, replies: impl IntoIterator<Item = ShardReply>) {
        let mut sent = false;
        for reply in replies {
            let _ = self.tx.send(reply);
            sent = true;
        }
        if let (true, Some(waker)) = (sent, &self.waker) {
            waker.wake();
        }
    }
}

/// One operation inside a [`ShardJob`], in submission order.
enum ShardOp {
    /// A cache access (`Get`/`Put`), batched through the policy fast path.
    Data {
        request: Request,
        /// The `Put` payload (`None` for `Get`s, and ignored entirely on a
        /// server without a store).
        payload: Option<Vec<u8>>,
    },
    /// A page invalidation, applied between the surrounding access batches
    /// so intra-shard submission order is preserved.
    Delete { page: cache_sim::PageId },
}

/// A per-shard unit of work: the operations routed to one shard (with the
/// submitter's tags, index-aligned), plus the sink the worker answers
/// on. Tags and operations are kept in separate vectors so the worker can
/// hand contiguous access runs to the cache's batched access path.
struct ShardJob {
    tags: Vec<usize>,
    ops: Vec<ShardOp>,
    reply: ReplySink,
}

/// One acknowledgement of a logged write or delete on its way through a
/// log writer ([`write_log`]), with the sink it goes to.
type Ack = (ReplySink, ShardReply);

/// The shard worker: serves `shard`'s jobs until every sender is gone.
///
/// Operations are applied in submission order, one *step* at a time: a
/// delete, or up to [`REPLAY_CHUNK`] consecutive accesses through
/// [`ShardedClic::access_shard_batch_data`] — one lock and one batched
/// policy call per chunk instead of one of each per request. Splitting at
/// the workspace-wide chunk size keeps an oversized client batch from
/// monopolizing the shard lock and replays at the granularity of the
/// offline `simulate()` driver. A storage failure answers the step's
/// requests with a typed error and the job continues — one bad page does
/// not poison the rest of the batch; a client that gave up on its batch
/// only loses the replies, the cache still observes every dispatched
/// operation.
///
/// With a `log` writer, a step's reads are delivered first and the
/// acknowledgements of its writes and deletes are then handed to the
/// writer, so a read never waits for a sync.
fn serve_shard(
    shard: usize,
    cache: &ShardedClic,
    jobs: mpsc::Receiver<ShardJob>,
    log: Option<mpsc::Sender<Ack>>,
) {
    let recorder = cache.recorder();
    let queue_depth = recorder.gauge(QUEUE_DEPTH_GAUGE);
    let service_hist = recorder.histogram(BATCH_SERVICE_HISTOGRAM);
    let mut reqs: Vec<Request> = Vec::new();
    let mut payloads: Vec<Option<Vec<u8>>> = Vec::new();
    let mut outcomes = Vec::new();
    let mut data = Vec::new();
    let mut results: Vec<Result<ShardOutcome, ErrorCode>> = Vec::new();
    let mut acks: Vec<ShardReply> = Vec::new();
    while let Ok(mut job) = jobs.recv() {
        if let Some(gauge) = &queue_depth {
            gauge.dec();
        }
        // One ShardBatch span (detail: operations served) and one
        // service-time sample per dequeued sub-batch.
        let mut span = recorder.span(SpanKind::ShardBatch);
        span.set_detail(job.ops.len() as u64);
        let mut i = 0;
        while i < job.ops.len() {
            let step = i;
            let served = match job.ops[i] {
                ShardOp::Delete { page } => {
                    i += 1;
                    cache.delete(page).map(|existed| {
                        results.push(Ok(ShardOutcome {
                            hit: existed,
                            data: None,
                        }));
                    })
                }
                ShardOp::Data { .. } => {
                    reqs.clear();
                    payloads.clear();
                    while reqs.len() < REPLAY_CHUNK {
                        let Some(ShardOp::Data { request, payload }) = job.ops.get_mut(i) else {
                            break;
                        };
                        reqs.push(*request);
                        payloads.push(payload.take());
                        i += 1;
                    }
                    outcomes.clear();
                    data.clear();
                    cache
                        .access_shard_batch_data(shard, &reqs, &payloads, &mut outcomes, &mut data)
                        .map(|()| {
                            // `data` is empty without a store: every Get
                            // then answers without bytes.
                            let bytes = data.drain(..).chain(std::iter::repeat(None));
                            results.extend(outcomes.iter().zip(bytes).map(|(outcome, data)| {
                                Ok(ShardOutcome {
                                    hit: outcome.hit,
                                    data,
                                })
                            }));
                        })
                }
            };
            if let Err(err) = served {
                let code = ErrorCode::from_io_error(&err);
                results.clear();
                results.resize_with(i - step, || Err(code));
            }
            let replies = job.tags[step..i].iter().copied().zip(results.drain(..));
            let Some(log) = &log else {
                job.reply.deliver(replies);
                continue;
            };
            let is_delete = matches!(job.ops[step], ShardOp::Delete { .. });
            job.reply
                .deliver(replies.enumerate().filter_map(|(k, reply)| {
                    if is_delete || !reqs[k].is_read() {
                        acks.push(reply);
                        return None;
                    }
                    Some(reply)
                }));
            for ack in acks.drain(..) {
                let _ = log.send((job.reply.clone(), ack));
            }
        }
        if let (Some(hist), Some(start_ns), Some(clock)) =
            (service_hist.as_deref(), span.start_ns(), recorder.clock())
        {
            hist.record(clock.now_nanos().saturating_sub(start_ns) / 1_000);
        }
    }
}

/// A shard's log writer: blocks for the worker's first acknowledgement,
/// drains the rest, syncs the log once for all of them
/// ([`PageStore::sync_wal`]), then delivers them, waking each submitter once
/// per sync. If the sync failed, every one of them is answered with
/// [`ErrorCode::Io`] instead, and so is everything after it: the log stays
/// failed until the store is reopened. Returns when the worker is gone.
fn write_log(store: &PageStore, acks: mpsc::Receiver<Ack>) {
    let mut held: Vec<Ack> = Vec::new();
    while let Ok(ack) = acks.recv() {
        held.push(ack);
        held.extend(acks.try_iter());
        let failed = store.sync_wal(held.len() as u64).is_err();
        let mut released = held.drain(..).peekable();
        while let Some((sink, (tag, outcome))) = released.next() {
            let outcome = if failed { Err(ErrorCode::Io) } else { outcome };
            let _ = sink.tx.send((tag, outcome));
            let Some(waker) = &sink.waker else {
                continue;
            };
            let woken_next = released.peek().and_then(|(next, _)| next.waker.as_ref());
            if !woken_next.is_some_and(|next| Arc::ptr_eq(next, waker)) {
                waker.wake();
            }
        }
    }
}

/// A running storage-server cache service.
///
/// `Server` is `Sync`: any number of client threads may call
/// [`Server::submit`] concurrently through a shared reference. Dropping the
/// server (or calling [`Server::shutdown`]) stops the workers after they
/// drain their queues.
#[derive(Debug)]
pub struct Server {
    cache: Arc<ShardedClic>,
    senders: Vec<mpsc::SyncSender<ShardJob>>,
    workers: Vec<JoinHandle<()>>,
    batches_served: AtomicU64,
    /// Cached [`QUEUE_DEPTH_GAUGE`] handle; `None` on a disabled recorder.
    /// Incremented per sub-batch sent, decremented by the worker after
    /// serving it, so the value counts queued + in-flight sub-batches.
    queue_depth: Option<Gauge>,
}

impl Server {
    /// Starts the shard workers and returns the running server.
    ///
    /// # Panics
    ///
    /// Panics if a shard store fails to open or a worker thread cannot be
    /// spawned; use [`Server::try_start`] to handle those as errors.
    pub fn start(config: ServerConfig) -> Server {
        // invariant: documented panicking convenience over `try_start`.
        #[allow(clippy::expect_used)]
        Server::try_start(config).expect("failed to start the server")
    }

    /// [`Server::start`], surfacing store-open and thread-spawn failures
    /// as errors instead of panicking.
    pub fn try_start(config: ServerConfig) -> std::io::Result<Server> {
        let mut cache_config = config.cache;
        if let (Some(durability), Some(store)) = (config.durability, cache_config.store.as_mut()) {
            store.durability = durability;
        }
        let cache = Arc::new(ShardedClic::try_new(cache_config)?);
        let queue_depth = cache.recorder().gauge(QUEUE_DEPTH_GAUGE);
        let mut senders = Vec::with_capacity(cache.shard_count());
        let mut workers = Vec::with_capacity(cache.shard_count());
        for shard in 0..cache.shard_count() {
            let (sender, receiver) = mpsc::sync_channel::<ShardJob>(config.queue_depth.max(1));
            // The worker owns its log writer: it drops the writer's channel
            // and joins it (re-raising its panic) on the way out, so stopping
            // the workers stops the writers once their acks are delivered.
            let writer = match cache.stores().get(shard) {
                Some(store) if store.hand_off_wal_sync()? => {
                    let (log, acks) = mpsc::channel();
                    let store = Arc::clone(store);
                    let writer = thread::Builder::new()
                        .name(format!("clic-log-{shard}"))
                        .spawn(move || write_log(&store, acks))?;
                    Some((log, writer))
                }
                _ => None,
            };
            let cache = Arc::clone(&cache);
            let worker = thread::Builder::new()
                .name(format!("clic-shard-{shard}"))
                .spawn(move || {
                    let (log, writer) = writer.unzip();
                    serve_shard(shard, &cache, receiver, log);
                    if let Some(Err(panic)) = writer.map(JoinHandle::join) {
                        std::panic::resume_unwind(panic);
                    }
                })?;
            senders.push(sender);
            workers.push(worker);
        }
        Ok(Server {
            cache,
            senders,
            workers,
            batches_served: AtomicU64::new(0),
            queue_depth,
        })
    }

    /// Decodes a protocol operation into the worker representation, or
    /// `None` for [`ServerRequest::Stats`] (answered by the front-end).
    fn shard_op(operation: ServerRequest) -> Option<ShardOp> {
        let request = operation.to_request();
        // invariant: `to_request` is `Some` for every Get/Put by
        // construction — only Delete and Stats map to `None`.
        #[allow(clippy::expect_used)]
        match operation {
            ServerRequest::Stats => None,
            ServerRequest::Delete { page } => Some(ShardOp::Delete { page }),
            ServerRequest::Put { data, .. } => Some(ShardOp::Data {
                request: request.expect("a Put is a cache access"),
                payload: data,
            }),
            ServerRequest::Get { .. } => Some(ShardOp::Data {
                request: request.expect("a Get is a cache access"),
                payload: None,
            }),
        }
    }

    /// Submits one batch and blocks until every response is available.
    /// Responses are returned in batch order.
    ///
    /// `Get`/`Put`/`Delete` operations are routed to their page's shard
    /// worker; operations for the same shard are served in batch order,
    /// operations for different shards concurrently. A
    /// [`ServerRequest::Stats`] operation is answered by the front-end with
    /// a snapshot taken *before* the batch's own data requests are
    /// dispatched.
    pub fn submit(&self, batch: &[ServerRequest]) -> Vec<ServerResponse> {
        let (reply_sender, reply_receiver) = mpsc::channel();
        let reply_sender = ReplySink::new(reply_sender);
        let mut per_shard: Vec<Vec<(usize, ServerRequest)>> =
            vec![Vec::new(); self.cache.shard_count()];
        let mut responses: Vec<Option<ServerResponse>> = batch.iter().map(|_| None).collect();
        for (position, operation) in batch.iter().enumerate() {
            match operation.page() {
                Some(page) => {
                    per_shard[self.cache.shard_of(page)].push((position, operation.clone()));
                }
                None => {
                    responses[position] = Some(ServerResponse::Stats(Box::new(StatsSnapshot {
                        result: self.stats(),
                        metrics: self.metrics(),
                    })));
                }
            }
        }
        let mut outstanding = 0usize;
        for (shard, ops) in per_shard.into_iter().enumerate() {
            outstanding += self.submit_shard_tagged(shard, ops, &reply_sender);
        }
        drop(reply_sender);
        for _ in 0..outstanding {
            // invariant: the workers answer every submitted tag exactly
            // once (success or typed error) before dropping the sender.
            #[allow(clippy::expect_used)]
            let (position, outcome) = reply_receiver
                .recv()
                .expect("shard worker dropped a batch reply");
            responses[position] = Some(match outcome {
                Err(code) => ServerResponse::Error { code },
                Ok(ShardOutcome { hit, data }) => match &batch[position] {
                    ServerRequest::Get { .. } => ServerResponse::Get { hit, data },
                    ServerRequest::Put { .. } => ServerResponse::Put { hit },
                    ServerRequest::Delete { .. } => ServerResponse::Delete { existed: hit },
                    ServerRequest::Stats => unreachable!("stats operations are answered inline"),
                },
            });
        }
        self.batches_served.fetch_add(1, Ordering::Relaxed);
        responses
            .into_iter()
            .map(|response| {
                // invariant: every batch slot was filled inline (Stats) or
                // by the reply loop above.
                #[allow(clippy::expect_used)]
                response.expect("every batch slot is answered")
            })
            .collect()
    }

    /// Submits operations to one shard's worker *without* waiting for the
    /// replies: each `(tag, operation)` pair is answered on `reply` as a
    /// [`ShardReply`] `(tag, outcome, data)`, where `outcome` is the cache
    /// hit flag for `Get`/`Put` and the existence flag for `Delete`.
    /// Returns how many replies to expect (operations submitted).
    ///
    /// This is the submission seam of the event-driven network front-end:
    /// the event loop coalesces decoded requests per shard, submits them
    /// here tagged with slab indices, and matches completions back to
    /// connections as they drain — no thread blocks per request. The call
    /// itself blocks only while the shard's bounded queue is full, which is
    /// the worker back-pressure propagating to the submitter.
    ///
    /// Every operation must route to `shard` (debug-asserted) and must not
    /// be [`ServerRequest::Stats`] — stats carry no page, so the caller
    /// answers them inline with [`Server::stats`]/[`Server::metrics`].
    pub fn submit_shard_tagged(
        &self,
        shard: usize,
        ops: Vec<(usize, ServerRequest)>,
        reply: &ReplySink,
    ) -> usize {
        if ops.is_empty() {
            return 0;
        }
        let submitted = ops.len();
        let mut tags = Vec::with_capacity(submitted);
        let mut shard_ops = Vec::with_capacity(submitted);
        for (tag, operation) in ops {
            debug_assert_eq!(
                operation.page().map(|page| self.cache.shard_of(page)),
                Some(shard),
                "operation routed to the wrong shard"
            );
            // invariant: the front-end answers Stats inline; only paged
            // operations reach a shard submission.
            #[allow(clippy::expect_used)]
            let op =
                Self::shard_op(operation).expect("stats operations cannot be submitted to a shard");
            tags.push(tag);
            shard_ops.push(op);
        }
        let job = ShardJob {
            tags,
            ops: shard_ops,
            reply: reply.clone(),
        };
        if let Some(gauge) = &self.queue_depth {
            gauge.inc();
        }
        // invariant: workers only exit after the senders are dropped at
        // shutdown, which cannot race a live borrow of the server.
        #[allow(clippy::expect_used)]
        self.senders[shard]
            .send(job)
            .expect("shard worker exited while the server was running");
        submitted
    }

    /// The sharded cache behind the server.
    pub fn cache(&self) -> &ShardedClic {
        &self.cache
    }

    /// Number of batches served so far.
    pub fn batches_served(&self) -> u64 {
        self.batches_served.load(Ordering::Relaxed)
    }

    /// A point-in-time statistics snapshot (see [`ShardedClic::snapshot`]).
    pub fn stats(&self) -> SimulationResult {
        self.cache.snapshot()
    }

    /// The full metrics snapshot (see [`ShardedClic::metrics`]): server
    /// registry plus every shard store's `store.*` counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.cache.metrics()
    }

    /// Forces a cross-shard priority merge now (see
    /// [`ShardedClic::merge_priorities`]).
    pub fn merge_priorities(&self) {
        self.cache.merge_priorities();
    }

    fn stop_workers(&mut self) {
        self.senders.clear();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// A snapshot of the data plane's byte-level I/O counters, if the server
    /// runs over a store (see [`ShardedClic::io_stats`]).
    pub fn io_stats(&self) -> Option<IoStats> {
        self.cache.io_stats()
    }

    /// Stops the workers (draining their queues, and with them their log
    /// writers), checkpoints every shard store — the clean-shutdown
    /// durability point — and returns the final statistics. Merely
    /// *dropping* the server stops the workers but skips the checkpoint,
    /// modelling a crash: acknowledged writes then recover from the
    /// per-shard WALs when the stores are next opened.
    ///
    /// Fails with the checkpoint's I/O error (a failed write-back or sync).
    pub fn try_shutdown(mut self) -> std::io::Result<SimulationResult> {
        self.stop_workers();
        self.cache.checkpoint_store()?;
        Ok(self.cache.snapshot())
    }

    /// [`Server::try_shutdown`], panicking on storage errors.
    ///
    /// # Panics
    ///
    /// Panics if the shutdown checkpoint fails; use
    /// [`Server::try_shutdown`] to handle that as an error.
    pub fn shutdown(self) -> SimulationResult {
        // invariant: documented panicking convenience over `try_shutdown`.
        #[allow(clippy::expect_used)]
        self.try_shutdown()
            .expect("failed to checkpoint the page store at shutdown")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultInjector, FaultPoint};
    use cache_sim::{ClientId, HintSetId, PageId};

    fn get(page: u64) -> ServerRequest {
        ServerRequest::Get {
            client: ClientId(0),
            page: PageId(page),
            hint: HintSetId(0),
            prefetch: false,
        }
    }

    #[test]
    fn responses_arrive_in_batch_order() {
        let server = Server::start(ServerConfig::new(8).with_shards(2));
        // First touch: all misses.
        let first = server.submit(&[get(1), get(2), get(3), get(4)]);
        assert_eq!(first.len(), 4);
        assert!(first.iter().all(|r| r.hit() == Some(false)));
        // Second touch: all hits (capacity 8 holds all four pages).
        let second = server.submit(&[get(1), get(2), get(3), get(4)]);
        assert!(second.iter().all(|r| r.hit() == Some(true)));
        assert_eq!(server.batches_served(), 2);
        let result = server.shutdown();
        assert_eq!(result.stats.read_hits, 4);
        assert_eq!(result.stats.read_misses, 4);
    }

    #[test]
    fn stats_requests_are_answered_inline() {
        let server = Server::start(ServerConfig::new(4));
        server.submit(&[get(1)]);
        let responses = server.submit(&[ServerRequest::Stats, get(1)]);
        // The snapshot was taken before this batch's own Get was dispatched.
        let snapshot = responses[0].stats().expect("stats response");
        assert_eq!(snapshot.stats.requests(), 1);
        assert_eq!(responses[1].hit(), Some(true));
    }

    #[test]
    fn store_backed_server_round_trips_bytes_and_recovers_after_crash() {
        let dir =
            std::env::temp_dir().join(format!("clic-server-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store_config = crate::StoreConfig::new(&dir, 16).with_page_size(128);
        let payload = |seed: u8| vec![seed; 128];
        let put = |page: u64, seed: u8| ServerRequest::Put {
            client: ClientId(0),
            page: PageId(page),
            hint: HintSetId(0),
            write_hint: None,
            data: Some(payload(seed)),
        };
        {
            let server = Server::start(ServerConfig::new(8).with_store(store_config.clone()));
            let responses = server.submit(&[put(1, 0xaa), put(2, 0xbb), get(1), get(2)]);
            // Byte exactness: a Get returns exactly the bytes the Put stored.
            assert_eq!(responses[2].data(), Some(&payload(0xaa)[..]));
            assert_eq!(responses[3].data(), Some(&payload(0xbb)[..]));
            assert_eq!(responses[2].hit(), Some(true));
            // Crash: drop without shutdown — no checkpoint runs.
        }
        // The WAL restores every acknowledged write on reopen.
        let store = crate::PageStore::open(store_config.clone()).unwrap();
        assert_eq!(store.recovered_writes(), 2);
        let mut buf = Vec::new();
        store.read(PageId(1), &mut buf).unwrap();
        assert_eq!(buf, payload(0xaa));
        store.read(PageId(2), &mut buf).unwrap();
        assert_eq!(buf, payload(0xbb));
        drop(store);

        // Clean shutdown checkpoints: the next open recovers nothing.
        {
            let server = Server::start(ServerConfig::new(8).with_store(store_config.clone()));
            server.submit(&[put(3, 0xcc)]);
            assert!(server.io_stats().unwrap().wal_records > 0);
            server.shutdown();
        }
        let store = crate::PageStore::open(store_config).unwrap();
        assert_eq!(store.recovered_writes(), 0);
        store.read(PageId(3), &mut buf).unwrap();
        assert_eq!(buf, payload(0xcc));
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn put(page: u64) -> ServerRequest {
        ServerRequest::Put {
            client: ClientId(0),
            page: PageId(page),
            hint: HintSetId(0),
            write_hint: None,
            data: Some(vec![7; 128]),
        }
    }

    /// A one-shard group-commit server under a fresh directory, with its
    /// store's config.
    fn group_commit_server(name: &str, fault: FaultInjector) -> (Server, crate::StoreConfig) {
        let dir = std::env::temp_dir().join(format!("clic-server-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = crate::StoreConfig::new(&dir, 16)
            .with_page_size(128)
            .with_fault_injector(fault);
        let config = ServerConfig::new(8)
            .with_store(store.clone())
            .with_durability(Durability::group_commit());
        (Server::start(config), store)
    }

    fn woken_sink() -> (ReplySink, mpsc::Receiver<ShardReply>) {
        let (tx, rx) = mpsc::channel();
        (
            ReplySink::with_waker(tx, Arc::new(Waker::new().unwrap())),
            rx,
        )
    }

    #[test]
    fn an_acknowledged_put_is_already_synced() {
        let (server, store_config) = group_commit_server("synced-ack", FaultInjector::disabled());
        let store = Arc::clone(&server.cache().stores()[0]);
        // The writer publishes the synced length before it delivers, so
        // each acknowledgement finds its own record synced.
        let mut logged = 0;
        for page in 0..3 {
            assert!(server.submit(&[put(page)])[0].hit().is_some());
            assert!(store.wal_len() > logged, "put {page} was logged");
            assert_eq!(store.wal_synced_len(), store.wal_len());
            logged = store.wal_len();
        }
        let (sink, rx) = woken_sink();
        for tag in 3..6 {
            server.submit_shard_tagged(0, vec![(tag, put(tag as u64))], &sink);
            let (got, result) = rx.recv().unwrap();
            assert_eq!(got, tag);
            assert!(result.is_ok());
            assert!(store.wal_len() > logged, "put {tag} was logged");
            assert_eq!(store.wal_synced_len(), store.wal_len());
            logged = store.wal_len();
        }
        assert!(store.io_stats().wal_syncs >= 6, "one sync per lone put");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&store_config.dir);
    }

    #[test]
    fn a_read_in_the_same_job_answers_before_the_put() {
        let (server, store_config) = group_commit_server("read-first", FaultInjector::disabled());
        let (sink, rx) = woken_sink();
        // One step serves both; its read is delivered before the put's
        // acknowledgement is handed to the writer, which can only deliver
        // after that.
        server.submit_shard_tagged(0, vec![(1, put(1)), (2, get(2))], &sink);
        let order: Vec<usize> = (0..2).map(|_| rx.recv().unwrap().0).collect();
        assert_eq!(order, [2, 1]);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&store_config.dir);
    }

    #[test]
    fn acknowledged_puts_survive_a_cut_to_the_synced_length() {
        let (server, store_config) = group_commit_server("synced-cut", FaultInjector::disabled());
        let store = Arc::clone(&server.cache().stores()[0]);
        let payload = |page: u64| vec![page as u8 + 1; 128];
        let put = |page: u64| ServerRequest::Put {
            client: ClientId(0),
            page: PageId(page),
            hint: HintSetId(0),
            write_hint: None,
            data: Some(payload(page)),
        };
        let batch: Vec<ServerRequest> = (0..6).map(put).collect();
        assert!(server.submit(&batch).iter().all(|r| r.hit().is_some()));
        let (sink, rx) = woken_sink();
        let ops = (6..12).map(|page| (page as usize, put(page))).collect();
        let acked = server.submit_shard_tagged(0, ops, &sink);
        assert!((0..acked).all(|_| rx.recv().unwrap().1.is_ok()));
        // A kernel crash: the server dies and the log loses its unsynced
        // tail.
        let synced = store.wal_synced_len();
        drop((server, store));
        std::fs::OpenOptions::new()
            .write(true)
            .open(store_config.dir.join("store.wal"))
            .unwrap()
            .set_len(synced)
            .unwrap();
        let store = crate::PageStore::open(store_config.clone()).unwrap();
        let mut buf = Vec::new();
        for page in 0..12 {
            store.read(PageId(page), &mut buf).unwrap();
            assert_eq!(buf, payload(page), "acknowledged put {page} was lost");
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&store_config.dir);
    }

    #[test]
    fn a_failed_sync_fails_every_later_write_closed() {
        let fault = FaultInjector::seeded(7).with_rate(FaultPoint::WalSync, 1.0);
        let (server, store_config) = group_commit_server("failed-sync", fault);
        let (sink, rx) = woken_sink();
        for round in 0..4u64 {
            let responses = server.submit(&[put(round), put(round + 10)]);
            assert!(responses
                .iter()
                .all(|r| r.error_code() == Some(ErrorCode::Io)));
            // A page no refused write touched: the policy caches those
            // although the arena does not, which `mirror` debug-asserts.
            let read = server.submit(&[get(round + 100)]);
            assert!(read[0].hit().is_some(), "reads are still served");
            server.submit_shard_tagged(0, vec![(9, put(round + 20))], &sink);
            assert_eq!(rx.recv().unwrap().1.unwrap_err(), ErrorCode::Io);
        }
        assert_eq!(server.cache().stores()[0].wal_synced_len(), 0);
        assert!(server.try_shutdown().is_err(), "the checkpoint syncs too");
        let _ = std::fs::remove_dir_all(&store_config.dir);
    }

    #[test]
    fn a_refused_put_leaves_its_page_uncached() {
        // The first WAL append fails; every later one succeeds.
        let dir = std::env::temp_dir().join(format!("clic-server-refused-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = crate::StoreConfig::new(&dir, 16)
            .with_page_size(128)
            .with_fault_injector(FaultInjector::seeded(3).fault_at(FaultPoint::WalAppend, 0));
        let server = Server::start(ServerConfig::new(8).with_store(store));
        assert_eq!(
            server.submit(&[put(1)])[0].error_code(),
            Some(ErrorCode::Io)
        );
        assert!(!server.cache().stores()[0].contains_buffered(PageId(1)));
        // The policy forgot the page too, so the read is a miss, not a hit
        // on a frame the arena never installed.
        assert_eq!(server.submit(&[get(1)])[0].hit(), Some(false));
        assert_eq!(server.submit(&[get(1)])[0].hit(), Some(true));
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_refused_delete_keeps_the_last_acknowledged_write() {
        // The put's WAL append succeeds; the delete's, the second, fails.
        let dir =
            std::env::temp_dir().join(format!("clic-server-refused-delete-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = crate::StoreConfig::new(&dir, 16)
            .with_page_size(128)
            .with_fault_injector(FaultInjector::seeded(3).fault_at(FaultPoint::WalAppend, 1));
        let server = Server::start(ServerConfig::new(8).with_shards(1).with_store(store));
        assert!(server.submit(&[put(1)])[0].hit().is_some());
        let delete = ServerRequest::Delete { page: PageId(1) };
        assert_eq!(
            server.submit(&[delete])[0].error_code(),
            Some(ErrorCode::Io)
        );
        // The dirty frame of the put was never flushed, so only the arena
        // holds its bytes: the read must hit it, not the empty disk slot.
        let read = server.submit(&[get(1)]);
        assert_eq!(read[0].hit(), Some(true));
        assert_eq!(read[0].data(), Some(&[7u8; 128][..]));
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_clients_share_one_server_without_deadlock() {
        // Tiny queue depth to exercise back-pressure: four clients hammer
        // four shards with single-page batches.
        let server = Server::start(
            ServerConfig::new(64)
                .with_shards(4)
                .with_queue_depth(1)
                .with_merge_every(100),
        );
        let clients = 4u64;
        let batches = 200u64;
        thread::scope(|scope| {
            for c in 0..clients {
                let server = &server;
                scope.spawn(move || {
                    for i in 0..batches {
                        let batch: Vec<ServerRequest> =
                            (0..8).map(|p| get(c * 1_000 + (i + p) % 40)).collect();
                        let responses = server.submit(&batch);
                        assert_eq!(responses.len(), 8);
                    }
                });
            }
        });
        let result = server.shutdown();
        assert_eq!(result.stats.requests(), clients * batches * 8);
    }
}
