//! The long-running server front-end: a sharded cache served one shard
//! *step* at a time, on the caller's thread for [`Server::submit`] and on
//! one worker thread per shard for the network front-end.
//!
//! [`Server::submit`] splits a batch by shard and serves the shards' parts
//! in shard order on the calling thread: no queue, no hand-off and no copy
//! of a request. Separate submitters run in parallel; two that meet on one
//! shard take turns at its lock, one step at a time, so the shard lock is
//! the back-pressure. Requests for the same shard are processed in
//! submission order.
//!
//! The event-driven network front-end must never block on a shard, so
//! [`Server::submit_shard_tagged`] queues a per-shard sub-batch on a
//! *bounded* channel to that shard's worker thread instead: a slow shard
//! exerts back-pressure on the front-end instead of queueing unboundedly.
//!
//! Both paths serve through the one step routine: a step is one delete, or
//! up to [`REPLAY_CHUNK`] consecutive accesses under one lock. A worker
//! sends a step's replies to its submitter as one channel message and wakes
//! it at most once, so a submitter blocked on its channel is unparked once
//! per step, not once per reply; an inline step writes its replies straight
//! into the caller's response vector.
//!
//! Over a store whose log syncs ([`Durability::GroupCommit`],
//! [`Durability::Strict`]), each shard has a log writer thread. A step
//! appends without syncing and answers reads at once. It hands the
//! acknowledgements of its writes and deletes to the writer as one
//! message; the writer syncs the log once for all it holds and only then
//! delivers them, still one message per step, so an acknowledged
//! logged write is device-durable for the network front-end and
//! [`Server::submit`] alike (the contract in [`clic_store::wal`]).

use std::borrow::Borrow;
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};

use cache_sim::policy::AccessOutcome;
use cache_sim::{IoStats, Request, SimulationResult, REPLAY_CHUNK};
use clic_core::ClicConfig;
use clic_obs::{Gauge, LatencyHistogram, MetricsSnapshot, Recorder, SpanKind};
use clic_store::{Durability, PageStore, StoreConfig};

use crate::protocol::{ErrorCode, ServerRequest, ServerResponse, StatsSnapshot};
use crate::sharded::{ShardedClic, ShardedClicConfig};
use crate::sys::Waker;

/// Gauge name for the number of shard sub-batches currently queued or in
/// service, whichever thread serves them: raised when a sub-batch is queued
/// for a worker or taken up by a [`Server::submit`] caller, lowered once
/// it is served. Its peak records the deepest backlog.
pub const QUEUE_DEPTH_GAUGE: &str = "server.queue_depth";

/// Histogram name for per-sub-batch service time in microseconds (start of
/// service to last reply handed on).
pub const BATCH_SERVICE_HISTOGRAM: &str = "server.batch_service_us";

/// Bound of each shard worker's request queue, in sub-batches: enough to
/// keep a worker busy while the next batch is being partitioned.
const QUEUE_DEPTH: usize = 4;

/// Configuration for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The sharded cache the server fronts.
    pub cache: ShardedClicConfig,
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

/// One reply from a shard step: the submitter's tag for the operation
/// (its batch position in [`Server::submit`], a slab index in the
/// event-driven front-end), and either the successful [`ShardOutcome`] or
/// the [`ErrorCode`] to answer with — storage failures propagate here
/// instead of panicking the serving thread. Replies that travel on a
/// channel travel in batches, one message per shard step ([`ReplySink`]).
pub type ShardReply = (usize, Result<ShardOutcome, ErrorCode>);

/// Where a shard worker answers a submission: the submitter's reply channel
/// and, for a submitter that sleeps in a [`crate::sys::Poller`] rather than
/// on the channel, the [`Waker`] that ends that sleep. The channel carries
/// one message per shard step: a worker sends a step's replies together
/// and wakes the submitter once, and a log writer sends each step's
/// acknowledgements it released together and wakes each submitter once
/// per sync. A message is never empty.
#[derive(Debug, Clone)]
pub struct ReplySink {
    tx: mpsc::Sender<Vec<ShardReply>>,
    waker: Option<Arc<Waker>>,
}

impl ReplySink {
    /// A sink for a submitter that blocks on the channel's receiver.
    pub fn new(tx: mpsc::Sender<Vec<ShardReply>>) -> ReplySink {
        ReplySink { tx, waker: None }
    }

    /// A sink for a submitter that must be woken to look at the channel.
    pub fn with_waker(tx: mpsc::Sender<Vec<ShardReply>>, waker: Arc<Waker>) -> ReplySink {
        ReplySink {
            tx,
            waker: Some(waker),
        }
    }

    /// Puts `replies` on the channel as one message and, if there were
    /// any and `wake` is set, wakes a submitter that has to be woken. The
    /// one place replies leave a shard on a channel.
    fn deliver(&self, replies: Vec<ShardReply>, wake: bool) {
        if replies.is_empty() {
            return;
        }
        let _ = self.tx.send(replies);
        if let (true, Some(waker)) = (wake, &self.waker) {
            waker.wake();
        }
    }
}

/// A per-shard unit of queued work: the operations routed to one shard,
/// each with the submitter's tag, plus the sink the worker answers on.
struct ShardJob {
    ops: Vec<(usize, ServerRequest)>,
    reply: ReplySink,
}

/// One step's acknowledgements of logged writes and deletes on their way
/// through a log writer ([`write_log`]), with the sink they go to.
type Ack = (ReplySink, Vec<ShardReply>);

/// Where a served step's replies go. Reads, and everything on a shard
/// without a log writer, are answered at once; the acknowledgements of
/// logged writes and deletes go through the shard's log writer to
/// [`Answers::ack_sink`].
trait Answers {
    /// Takes one reply that is answered at once.
    fn answer(&mut self, reply: ShardReply);
    /// Ends a step's immediate replies.
    fn end_step(&mut self) {}
    /// The sink the log writer delivers this submitter's acknowledgements
    /// to; asked for only when a step has some.
    fn ack_sink(&mut self) -> ReplySink;
}

/// A queued job's answers: each step's immediate replies leave as one
/// message on the job's sink.
struct QueuedAnswers<'a> {
    sink: &'a ReplySink,
    replies: Vec<ShardReply>,
}

impl Answers for QueuedAnswers<'_> {
    fn answer(&mut self, reply: ShardReply) {
        self.replies.push(reply);
    }

    fn end_step(&mut self) {
        self.sink.deliver(std::mem::take(&mut self.replies), true);
    }

    fn ack_sink(&mut self) -> ReplySink {
        self.sink.clone()
    }
}

/// [`Server::submit`]'s answers: every reply lands in its response slot.
/// Acknowledgements of logged writes come back on a channel made for the
/// first of them.
struct InlineAnswers<'a> {
    batch: &'a [ServerRequest],
    responses: Vec<Option<ServerResponse>>,
    acks: Option<(ReplySink, mpsc::Receiver<Vec<ShardReply>>)>,
}

impl Answers for InlineAnswers<'_> {
    fn answer(&mut self, (position, outcome): ShardReply) {
        self.responses[position] = Some(match outcome {
            Err(code) => ServerResponse::Error { code },
            Ok(ShardOutcome { hit, data }) => match &self.batch[position] {
                ServerRequest::Get { .. } => ServerResponse::Get { hit, data },
                ServerRequest::Put { .. } => ServerResponse::Put { hit },
                ServerRequest::Delete { .. } => ServerResponse::Delete { existed: hit },
                ServerRequest::Stats => unreachable!("stats operations are answered inline"),
            },
        });
    }

    fn ack_sink(&mut self) -> ReplySink {
        let (sink, _) = self.acks.get_or_insert_with(|| {
            let (tx, rx) = mpsc::channel();
            (ReplySink::new(tx), rx)
        });
        sink.clone()
    }
}

impl InlineAnswers<'_> {
    /// Waits for the log writers' acknowledgements, if any step handed them
    /// some, and returns the responses in batch order. No shard lock is
    /// held here.
    fn finish(mut self) -> Vec<ServerResponse> {
        if let Some((sink, acks)) = self.acks.take() {
            // A writer drops its clone of the sink once it has delivered
            // that step's acknowledgements, so the channel ends with the
            // last of them.
            drop(sink);
            for reply in acks.into_iter().flatten() {
                self.answer(reply);
            }
        }
        self.responses
            .into_iter()
            .map(|response| {
                // invariant: every batch slot was filled inline (Stats), by
                // a step, or by a log writer's acknowledgement.
                #[allow(clippy::expect_used)]
                response.expect("every batch slot is answered")
            })
            .collect()
    }
}

/// The server's cached instrument handles; `None` on a disabled recorder.
#[derive(Debug, Clone)]
struct Instruments {
    /// [`QUEUE_DEPTH_GAUGE`].
    queue_depth: Option<Gauge>,
    /// [`BATCH_SERVICE_HISTOGRAM`].
    service: Option<Arc<LatencyHistogram>>,
}

impl Instruments {
    /// Counts a sub-batch in [`QUEUE_DEPTH_GAUGE`] until it is served.
    fn enqueue(&self) {
        if let Some(gauge) = &self.queue_depth {
            gauge.inc();
        }
    }
}

/// The step routine and its scratch buffers, held by whichever thread
/// serves a shard: its worker for queued jobs, a [`Server::submit`] caller
/// for its own batch.
struct Steps<'a> {
    cache: &'a ShardedClic,
    instruments: &'a Instruments,
    reqs: Vec<Request>,
    outcomes: Vec<AccessOutcome>,
    data: Vec<Option<Vec<u8>>>,
    results: Vec<Result<ShardOutcome, ErrorCode>>,
}

impl<'a> Steps<'a> {
    fn new(cache: &'a ShardedClic, instruments: &'a Instruments) -> Self {
        Steps {
            cache,
            instruments,
            reqs: Vec::with_capacity(REPLAY_CHUNK),
            outcomes: Vec::with_capacity(REPLAY_CHUNK),
            data: Vec::new(),
            results: Vec::with_capacity(REPLAY_CHUNK),
        }
    }

    /// Serves one shard sub-batch — `ops`, all routed to `shard`, none a
    /// [`ServerRequest::Stats`] — one step at a time, in order, under one
    /// `ShardBatch` span (detail: operations served) and one service-time
    /// sample, then lowers [`QUEUE_DEPTH_GAUGE`] for it.
    fn serve<R: Borrow<ServerRequest>>(
        &mut self,
        shard: usize,
        log: Option<&mpsc::Sender<Ack>>,
        ops: &[(usize, R)],
        answers: &mut impl Answers,
    ) {
        let recorder = self.cache.recorder();
        let mut span = recorder.span(SpanKind::ShardBatch);
        span.set_detail(ops.len() as u64);
        let mut rest = ops;
        while !rest.is_empty() {
            let served = self.step(shard, log, rest, answers);
            rest = &rest[served..];
        }
        if let (Some(hist), Some(start_ns), Some(clock)) = (
            self.instruments.service.as_deref(),
            span.start_ns(),
            recorder.clock(),
        ) {
            hist.record(clock.now_nanos().saturating_sub(start_ns) / 1_000);
        }
        if let Some(gauge) = &self.instruments.queue_depth {
            gauge.dec();
        }
    }

    /// The step routine: serves the step at the front of `ops` — a delete,
    /// or up to [`REPLAY_CHUNK`] consecutive accesses through
    /// [`ShardedClic::access_shard_batch_data`], one lock and one batched
    /// policy call per step instead of one of each per request — and
    /// returns how many operations it served. Splitting at the
    /// workspace-wide chunk size keeps an oversized batch from monopolizing
    /// the shard lock and replays at the granularity of the offline
    /// `simulate()` driver.
    ///
    /// A storage failure answers the step's requests with a typed error and
    /// the sub-batch continues — one bad page does not poison the rest; a
    /// client that gave up on its batch only loses the replies, the cache
    /// still observes every dispatched operation. With a `log` writer, the
    /// step's reads are answered first and the acknowledgements of its
    /// writes and deletes are then handed to the writer as one message, so
    /// a read never waits for a sync.
    fn step<R: Borrow<ServerRequest>>(
        &mut self,
        shard: usize,
        log: Option<&mpsc::Sender<Ack>>,
        ops: &[(usize, R)],
        answers: &mut impl Answers,
    ) -> usize {
        let Steps {
            cache,
            reqs,
            outcomes,
            data,
            results,
            ..
        } = self;
        let (count, served) = match *ops[0].1.borrow() {
            ServerRequest::Delete { page } => (
                1,
                cache.delete(page).map(|existed| {
                    results.push(Ok(ShardOutcome {
                        hit: existed,
                        data: None,
                    }));
                }),
            ),
            _ => {
                reqs.clear();
                reqs.extend(
                    ops.iter()
                        .take(REPLAY_CHUNK)
                        .map_while(|(_, op)| op.borrow().to_request()),
                );
                debug_assert!(!reqs.is_empty(), "a stats operation reached a shard");
                // Payloads are borrowed from the operations, and only a
                // store reads them.
                let payloads: Vec<Option<&[u8]>> = match cache.shard_store(shard) {
                    Some(_) => ops[..reqs.len()]
                        .iter()
                        .map(|(_, op)| match op.borrow() {
                            ServerRequest::Put { data, .. } => data.as_deref(),
                            _ => None,
                        })
                        .collect(),
                    None => Vec::new(),
                };
                outcomes.clear();
                data.clear();
                let served = cache
                    .access_shard_batch_data(shard, reqs, &payloads, outcomes, data)
                    .map(|()| {
                        // `data` is empty without a store: every Get then
                        // answers without bytes.
                        let bytes = data.drain(..).chain(std::iter::repeat(None));
                        results.extend(outcomes.iter().zip(bytes).map(|(outcome, data)| {
                            Ok(ShardOutcome {
                                hit: outcome.hit,
                                data,
                            })
                        }));
                    });
                (reqs.len(), served)
            }
        };
        if let Err(err) = served {
            let code = ErrorCode::from_io_error(&err);
            results.clear();
            results.resize_with(count, || Err(code));
        }
        let mut acks = Vec::new();
        for ((tag, op), result) in ops[..count].iter().zip(results.drain(..)) {
            let logged = log.is_some() && !matches!(op.borrow(), ServerRequest::Get { .. });
            if logged {
                acks.push((*tag, result));
            } else {
                answers.answer((*tag, result));
            }
        }
        answers.end_step();
        if let (Some(log), false) = (log, acks.is_empty()) {
            let _ = log.send((answers.ack_sink(), acks));
        }
        count
    }
}

/// The shard worker: serves `shard`'s queued jobs until every sender is
/// gone, answering each step's replies as one message on the job's sink.
fn serve_queued(
    shard: usize,
    cache: &ShardedClic,
    instruments: &Instruments,
    jobs: mpsc::Receiver<ShardJob>,
    log: Option<mpsc::Sender<Ack>>,
) {
    let mut steps = Steps::new(cache, instruments);
    while let Ok(job) = jobs.recv() {
        let mut answers = QueuedAnswers {
            sink: &job.reply,
            replies: Vec::new(),
        };
        steps.serve(shard, log.as_ref(), &job.ops, &mut answers);
    }
}

/// A shard's log writer: blocks for the first step of acknowledgements,
/// drains the rest, syncs the log once for all of them
/// ([`PageStore::sync_wal`], told how many acknowledgements it covers), then
/// delivers each step's as one message, waking each submitter once per
/// sync. If the sync failed, every one of them is answered with
/// [`ErrorCode::Io`] instead, and so is everything after it: the log stays
/// failed until the store is reopened. A step may checkpoint the store at
/// its log budget while a sync is in flight; that sync then covers
/// nothing appended after the truncation, so such a write waits for the
/// next sync. Returns when the worker and the server are gone.
fn write_log(store: &PageStore, acks: mpsc::Receiver<Ack>) {
    let mut held: Vec<Ack> = Vec::new();
    while let Ok(step) = acks.recv() {
        held.push(step);
        held.extend(acks.try_iter());
        let count: usize = held.iter().map(|(_, replies)| replies.len()).sum();
        let failed = store.sync_wal(count as u64).is_err();
        let mut released = held.drain(..).peekable();
        while let Some((sink, mut replies)) = released.next() {
            if failed {
                for (_, outcome) in &mut replies {
                    *outcome = Err(ErrorCode::Io);
                }
            }
            // Wake a submitter after the last message of its run only.
            let woken_next = released.peek().and_then(|(next, _)| next.waker.as_ref());
            let run_goes_on = match (&sink.waker, woken_next) {
                (Some(waker), Some(next)) => Arc::ptr_eq(waker, next),
                _ => false,
            };
            sink.deliver(replies, !run_goes_on);
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
    /// Each shard's log writer, shared with its worker; `None` where the
    /// shard has no store or its store syncs inline.
    logs: Vec<Option<mpsc::Sender<Ack>>>,
    workers: Vec<JoinHandle<()>>,
    instruments: Instruments,
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
        let instruments = Instruments {
            queue_depth: cache.recorder().gauge(QUEUE_DEPTH_GAUGE),
            service: cache.recorder().histogram(BATCH_SERVICE_HISTOGRAM),
        };
        let mut senders = Vec::with_capacity(cache.shard_count());
        let mut logs = Vec::with_capacity(cache.shard_count());
        let mut workers = Vec::with_capacity(cache.shard_count());
        for shard in 0..cache.shard_count() {
            let (sender, receiver) = mpsc::sync_channel::<ShardJob>(QUEUE_DEPTH);
            // The worker owns its log writer: it drops its sender and joins
            // the writer (re-raising its panic) on the way out, so stopping
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
            logs.push(writer.as_ref().map(|(log, _)| log.clone()));
            let cache = Arc::clone(&cache);
            let instruments = instruments.clone();
            let worker = thread::Builder::new()
                .name(format!("clic-shard-{shard}"))
                .spawn(move || {
                    let (log, writer) = writer.unzip();
                    serve_queued(shard, &cache, &instruments, receiver, log);
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
            logs,
            workers,
            instruments,
        })
    }

    /// Submits one batch, serves it on the calling thread and returns the
    /// responses in batch order.
    ///
    /// `Get`/`Put`/`Delete` operations are split by their page's shard, and
    /// the shards' parts are served in shard order, each in batch order,
    /// one step at a time under the shard's lock. Separate submitters run
    /// in parallel; one that finds a shard busy waits for its lock, which
    /// is the back-pressure. A logged write's response waits until the
    /// shard's log writer has synced it, after the whole batch is served. A
    /// [`ServerRequest::Stats`] operation is answered with a snapshot taken
    /// *before* the batch's own data requests are served.
    pub fn submit(&self, batch: &[ServerRequest]) -> Vec<ServerResponse> {
        let mut answers = InlineAnswers {
            batch,
            responses: batch.iter().map(|_| None).collect(),
            acks: None,
        };
        let mut per_shard: Vec<Vec<(usize, &ServerRequest)>> = (0..self.cache.shard_count())
            .map(|_| Vec::with_capacity(batch.len()))
            .collect();
        for (position, operation) in batch.iter().enumerate() {
            match operation.page() {
                Some(page) => per_shard[self.cache.shard_of(page)].push((position, operation)),
                None => {
                    answers.responses[position] =
                        Some(ServerResponse::Stats(Box::new(StatsSnapshot {
                            result: self.stats(),
                            metrics: self.metrics(),
                        })));
                }
            }
        }
        let mut steps = Steps::new(&self.cache, &self.instruments);
        for (shard, ops) in per_shard.iter().enumerate() {
            if ops.is_empty() {
                continue;
            }
            self.instruments.enqueue();
            steps.serve(shard, self.logs[shard].as_ref(), ops, &mut answers);
        }
        answers.finish()
    }

    /// Queues operations for one shard's worker *without* waiting for the
    /// replies: each `(tag, operation)` pair is answered on `reply` as a
    /// [`ShardReply`] `(tag, outcome)`, in the one message that carries its
    /// step's replies (see [`ReplySink`]); a successful `outcome`'s `hit` is
    /// the cache hit flag for `Get`/`Put` and the existence flag for
    /// `Delete`. Returns how many replies to expect (operations submitted),
    /// not how many messages.
    ///
    /// This is the submission seam of the event-driven network front-end:
    /// the event loop coalesces decoded requests per shard, submits them
    /// here tagged with slab indices, and matches completions back to
    /// connections as they drain — no thread blocks per request. The call
    /// itself blocks only while the shard's bounded queue is full, which is
    /// the worker back-pressure propagating to the submitter.
    ///
    /// # Panics
    ///
    /// Panics if an operation is a [`ServerRequest::Stats`] — stats carry no
    /// page, so the caller answers them inline with
    /// [`Server::stats`]/[`Server::metrics`] — and, in debug builds, if an
    /// operation does not route to `shard`.
    pub fn submit_shard_tagged(
        &self,
        shard: usize,
        ops: Vec<(usize, ServerRequest)>,
        reply: &ReplySink,
    ) -> usize {
        if ops.is_empty() {
            return 0;
        }
        for (_, operation) in &ops {
            let page = operation.page();
            assert!(
                page.is_some(),
                "stats operations cannot be submitted to a shard"
            );
            debug_assert_eq!(
                page.map(|page| self.cache.shard_of(page)),
                Some(shard),
                "operation routed to the wrong shard"
            );
        }
        let submitted = ops.len();
        self.instruments.enqueue();
        let job = ShardJob {
            ops,
            reply: reply.clone(),
        };
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

    /// Stops the workers and, with them, the log writers. The server's own
    /// log senders go first, or a writer would never see its channel close.
    fn stop_workers(&mut self) {
        self.senders.clear();
        self.logs.clear();
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

    fn woken_sink() -> (ReplySink, mpsc::Receiver<Vec<ShardReply>>) {
        let (tx, rx) = mpsc::channel();
        (
            ReplySink::with_waker(tx, Arc::new(Waker::new().unwrap())),
            rx,
        )
    }

    /// Receives one message and returns its only reply.
    fn recv_one(rx: &mpsc::Receiver<Vec<ShardReply>>) -> ShardReply {
        let mut message = rx.recv().unwrap();
        assert_eq!(message.len(), 1, "one reply in the message");
        message.remove(0)
    }

    #[test]
    fn a_step_answers_in_one_message() {
        let server = Server::start(ServerConfig::new(8).with_shards(1));
        let (sink, rx) = woken_sink();
        server.submit_shard_tagged(0, vec![(5, get(1)), (3, get(2)), (8, get(1))], &sink);
        let tags: Vec<usize> = rx.recv().unwrap().iter().map(|(tag, _)| *tag).collect();
        assert_eq!(tags, [5, 3, 8]);
        // Dropping the server joins its workers: nothing else was sent.
        drop(server);
        assert_eq!(rx.try_iter().count(), 0);
    }

    #[test]
    fn a_sync_releases_a_steps_acks_in_one_message() {
        let (server, store_config) = group_commit_server("one-message", FaultInjector::disabled());
        let store = Arc::clone(&server.cache().stores()[0]);
        let group_commits = store.io_stats().group_commits;
        let (sink, rx) = woken_sink();
        server.submit_shard_tagged(0, vec![(0, put(1)), (1, put(2)), (2, put(3))], &sink);
        let message = rx.recv().unwrap();
        assert_eq!(message.len(), 3);
        assert!(message.iter().all(|(_, result)| result.is_ok()));
        assert_eq!(store.wal_synced_len(), store.wal_len());
        // One sync covered three acknowledgements: a group commit.
        assert_eq!(store.io_stats().group_commits, group_commits + 1);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&store_config.dir);
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
            let (got, result) = recv_one(&rx);
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
        // One step serves both; its read's message is delivered before the
        // put's acknowledgement is handed to the writer, which can only
        // deliver after that.
        server.submit_shard_tagged(0, vec![(1, put(1)), (2, get(2))], &sink);
        let order: Vec<usize> = (0..2).map(|_| recv_one(&rx).0).collect();
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
        assert!(rx
            .iter()
            .flatten()
            .take(acked)
            .all(|(_, result)| result.is_ok()));
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
    fn acknowledged_puts_survive_a_cut_after_budget_checkpoints() {
        const PAGES: u64 = 6;
        const ROUNDS: u64 = 40;
        let (server, store_config) = group_commit_server("budget-cut", FaultInjector::disabled());
        let store = Arc::clone(&server.cache().stores()[0]);
        let payload = |page: u64, round: u64| vec![(page * ROUNDS + round) as u8; 128];
        let put = |page: u64, round: u64| ServerRequest::Put {
            client: ClientId(0),
            page: PageId(page),
            hint: HintSetId(0),
            write_hint: None,
            data: Some(payload(page, round)),
        };
        // 240 puts to 6 pages, which the 8-page cache keeps resident, so
        // they are staged through 16 frames: a budget of 64 records, crossed
        // three times while the log writer syncs.
        for round in 0..ROUNDS {
            let batch: Vec<ServerRequest> = (0..PAGES).map(|page| put(page, round)).collect();
            assert!(server.submit(&batch).iter().all(|r| r.hit().is_some()));
        }
        assert!(
            store.io_stats().data_syncs >= 3,
            "several budget checkpoints"
        );
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
        assert!(store.recovered_writes() <= store.log_budget());
        let mut buf = Vec::new();
        for page in 0..PAGES {
            store.read(PageId(page), &mut buf).unwrap();
            assert_eq!(
                buf,
                payload(page, ROUNDS - 1),
                "acknowledged put {page} was lost"
            );
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
            assert_eq!(recv_one(&rx).1.unwrap_err(), ErrorCode::Io);
        }
        assert_eq!(server.cache().stores()[0].wal_synced_len(), 0);
        assert!(server.try_shutdown().is_err(), "the checkpoint syncs too");
        let _ = std::fs::remove_dir_all(&store_config.dir);
    }

    #[test]
    fn a_sync_that_fails_once_still_fails_the_log_closed() {
        // Only the third sync fails; a writer that retried would find every
        // later sync succeeding, although the kernel may have dropped the
        // pages the failed one covered.
        let fault = FaultInjector::seeded(7).fault_at(FaultPoint::WalSync, 2);
        let (server, store_config) = group_commit_server("fails-once", fault);
        let store = Arc::clone(&server.cache().stores()[0]);
        for page in 0..2 {
            assert!(server.submit(&[put(page)])[0].hit().is_some());
        }
        assert_eq!(
            server.submit(&[put(2)])[0].error_code(),
            Some(ErrorCode::Io)
        );
        let (synced, logged) = (store.wal_synced_len(), store.wal_len());
        for page in 3..6 {
            assert_eq!(
                server.submit(&[put(page)])[0].error_code(),
                Some(ErrorCode::Io)
            );
        }
        assert_eq!(store.wal_synced_len(), synced);
        assert_eq!(store.wal_len(), logged);
        drop(store);
        assert!(server.try_shutdown().is_err(), "the log stays failed");
        std::fs::OpenOptions::new()
            .write(true)
            .open(store_config.dir.join("store.wal"))
            .unwrap()
            .set_len(synced)
            .unwrap();
        let store = crate::PageStore::open(store_config.clone()).unwrap();
        assert_eq!(store.recovered_writes(), 2);
        drop(store);
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

    /// Queues `batch` on the shard workers, split by shard and tagged with
    /// batch positions, and waits for every reply.
    fn submit_queued(server: &Server, batch: &[ServerRequest]) -> Vec<ShardReply> {
        let (tx, rx) = mpsc::channel();
        let sink = ReplySink::new(tx);
        let mut per_shard = vec![Vec::new(); server.cache().shard_count()];
        for (tag, op) in batch.iter().enumerate() {
            let shard = server.cache().shard_of(op.page().unwrap());
            per_shard[shard].push((tag, op.clone()));
        }
        let expected: usize = per_shard
            .into_iter()
            .enumerate()
            .map(|(shard, ops)| server.submit_shard_tagged(shard, ops, &sink))
            .sum();
        drop(sink);
        let replies: Vec<ShardReply> = rx.iter().flatten().collect();
        assert_eq!(replies.len(), expected, "every queued reply arrives");
        replies
    }

    #[test]
    fn concurrent_clients_share_one_server_without_deadlock() {
        // Twice as many queued submitters as a shard has queue slots, so a
        // shard's queue fills and blocks its senders.
        let server = Server::start(ServerConfig::new(64).with_shards(4).with_merge_every(100));
        let clients = 2 * QUEUE_DEPTH as u64;
        let batches = 200u64;
        thread::scope(|scope| {
            for c in 0..clients {
                let server = &server;
                scope.spawn(move || {
                    for i in 0..batches {
                        let batch: Vec<ServerRequest> =
                            (0..8).map(|p| get(c * 1_000 + (i + p) % 40)).collect();
                        let replies = submit_queued(server, &batch);
                        assert_eq!(replies.len(), 8);
                        assert!(replies.iter().all(|(_, result)| result.is_ok()));
                    }
                });
            }
        });
        let result = server.shutdown();
        assert_eq!(result.stats.requests(), clients * batches * 8);
    }

    #[test]
    fn inline_and_queued_submitters_share_a_logged_shard() {
        // Both paths append to one group-commit store and hand their acks
        // to its one log writer.
        let (server, store_config) = group_commit_server("mixed", FaultInjector::disabled());
        let (threads, batches) = (2u64, 30u64);
        let batch = |t: u64, i: u64| -> Vec<ServerRequest> {
            (0..4)
                .map(|p| {
                    let page = t * 100 + (i + p) % 12;
                    if p % 2 == 0 {
                        put(page)
                    } else {
                        get(page)
                    }
                })
                .collect()
        };
        thread::scope(|scope| {
            for t in 0..threads {
                let server = &server;
                scope.spawn(move || {
                    for i in 0..batches {
                        let responses = server.submit(&batch(t, i));
                        assert_eq!(responses.len(), 4);
                        assert!(responses.iter().all(|r| r.hit().is_some()));
                    }
                });
                scope.spawn(move || {
                    for i in 0..batches {
                        let replies = submit_queued(server, &batch(threads + t, i));
                        assert!(replies.iter().all(|(_, result)| result.is_ok()));
                    }
                });
            }
        });
        let stats = server.stats().stats;
        assert_eq!(stats.requests(), 2 * threads * batches * 4);
        assert_eq!(stats.writes(), stats.reads());
        let store = &server.cache().stores()[0];
        assert_eq!(store.wal_synced_len(), store.wal_len());
        let result = server.try_shutdown().expect("a clean shutdown");
        assert_eq!(result.stats, stats);
        let _ = std::fs::remove_dir_all(&store_config.dir);
    }
}
