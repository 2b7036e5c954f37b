//! The long-running server front-end: a sharded cache served one shard
//! *step* at a time, on the caller's thread for [`Server::submit`] and on
//! one worker thread per shard for the network front-end.
//!
//! [`Server::submit`] routes its batch in one pass: each shard gets the
//! batch positions of its operations, as a `u32` list, and the [`Request`]s
//! of its accesses, and a [`ServerRequest::Stats`] is answered there, before
//! any of the batch is served. The shards' parts are then served in shard
//! order on the calling thread: no queue, no hand-off and no copy of a
//! request. Separate submitters run in parallel; two that meet on one shard
//! take turns at its lock, one step at a time, so the shard lock is the
//! back-pressure. Requests for the same shard are processed in submission
//! order.
//!
//! The event-driven network front-end must never block on a shard, so
//! [`Server::submit_shard_tagged`] queues a per-shard sub-batch on a
//! *bounded* channel to that shard's worker thread instead: a slow shard
//! exerts back-pressure on the front-end instead of queueing unboundedly.
//!
//! Both paths serve through the one step routine: a step is one delete, or
//! up to [`REPLAY_CHUNK`] consecutive accesses under one lock. It leaves its
//! outcomes in place, with one result for the whole step: every operation's
//! hit flag (a delete's existence flag) and a store-backed `Get`'s bytes, or
//! the one error code a storage failure answers the step with. Each caller
//! reads them where they lie. A worker builds the step's replies and sends
//! them to its submitter as one channel message, waking it at most once, so
//! a submitter blocked on its channel is unparked once per step, not once
//! per reply. [`Server::submit`] writes each hit flag at its batch position
//! and, once the whole batch is served, builds its response vector in one
//! pass in batch order.
//!
//! Over a store whose log syncs ([`Durability::GroupCommit`],
//! [`Durability::Strict`]), each shard has a log writer thread. A step
//! appends without syncing and answers reads at once. It hands the
//! acknowledgements of its writes and deletes to the writer as one
//! message; the writer syncs the log once for all it holds and only then
//! delivers them, still one message per step, so an acknowledged
//! logged write is device-durable for the network front-end and
//! [`Server::submit`] alike (the contract in [`clic_store::wal`]): its
//! response vector is built only after every acknowledgement has arrived.
//!
//! A request's hint on the wire is the client's own label. Both paths that
//! build [`Request`]s from operations — the routing pass of
//! [`Server::submit`] and a worker taking up a queued job — intern each
//! `(client, wire hint)` pair into a dense [`HintSetId`] through the
//! server's one hint table, locked once per batch or job: the policy's
//! per-hint tables are indexed by that id, so no wire value sizes them, and
//! two clients' equal wire hints name distinct hint sets, as the paper
//! requires. [`HINT_SETS_GAUGE`] counts the pairs.

use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};

use cache_sim::hash::FastHashMap;
use cache_sim::policy::AccessOutcome;
use cache_sim::sync::recover_lock;
use cache_sim::{HintSetId, IoStats, Request, SimulationResult, REPLAY_CHUNK};
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

/// Gauge name for the number of distinct `(client, wire hint)` pairs the
/// server has interned into hint sets.
pub const HINT_SETS_GAUGE: &str = "server.hint_sets";

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
    /// server a queue-depth gauge ([`QUEUE_DEPTH_GAUGE`]), a hint-set count
    /// ([`HINT_SETS_GAUGE`]), a per-batch service-time histogram
    /// ([`BATCH_SERVICE_HISTOGRAM`]),
    /// [`clic_obs::SpanKind::ShardBatch`]/[`clic_obs::SpanKind::PriorityMerge`]
    /// trace spans, and — on a store-backed server — the store-level spans
    /// too (the recorder is shared with every shard store). The default
    /// disabled recorder records nothing.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.cache = self.cache.with_recorder(recorder);
        self
    }
}

/// One reply from a shard step: the submitter's tag for the operation (a
/// slab index in the event-driven front-end, a batch position in
/// [`Server::submit`]) and either its response or the [`ErrorCode`] to
/// answer with — storage failures propagate here instead of panicking the
/// serving thread. Replies travel in batches, one message per shard step
/// ([`ReplySink`]).
pub type ShardReply = (usize, Result<ServerResponse, ErrorCode>);

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

/// The response a [`ShardReply`]'s outcome answers with.
pub(crate) fn to_response(reply: Result<ServerResponse, ErrorCode>) -> ServerResponse {
    reply.unwrap_or_else(|code| ServerResponse::Error { code })
}

/// A served step as its caller reads it, in place: operation `i`'s boolean
/// outcome is `outcomes[i].hit` (a delete's is whether the page existed)
/// and a store-backed `Get`'s bytes are `data[i]` (`data` is empty without
/// a store), unless the step failed: then `result`'s code answers all of
/// its operations.
struct Served<'s> {
    result: Result<(), ErrorCode>,
    outcomes: &'s [AccessOutcome],
    data: &'s mut [Option<Vec<u8>>],
    /// Whether the step was a delete.
    delete: bool,
}

impl Served<'_> {
    /// Operation `i`'s boolean outcome, or the step's error code.
    fn hit(&self, i: usize) -> Result<bool, ErrorCode> {
        self.result.map(|()| self.outcomes[i].hit)
    }

    /// Builds the reply to operation `i`, whose request is `op`, taking a
    /// store-backed `Get`'s bytes.
    fn reply(&mut self, i: usize, op: &ServerRequest) -> Result<ServerResponse, ErrorCode> {
        let data = self.data.get_mut(i).and_then(Option::take);
        let hit = self.hit(i)?;
        Ok(match op {
            ServerRequest::Get { .. } => ServerResponse::Get { hit, data },
            ServerRequest::Put { .. } => ServerResponse::Put { hit },
            ServerRequest::Delete { .. } => ServerResponse::Delete { existed: hit },
            ServerRequest::Stats => unreachable!("stats operations are answered inline"),
        })
    }
}

/// Where a served step's replies go. Reads, and everything on a shard
/// without a log writer, are answered at once; the acknowledgements of
/// logged writes and deletes go through the shard's log writer to
/// [`Answers::ack_sink`].
trait Answers {
    /// Answers operation `i` of a served step at once; `tag` and `op` are
    /// its tag and its request.
    fn answer(&mut self, tag: usize, op: &ServerRequest, served: &mut Served<'_>, i: usize);
    /// Ends a step's immediate replies.
    fn end_step(&mut self) {}
    /// The sink the log writer delivers this submitter's acknowledgements
    /// to; asked for only when a step has some, which are `acks`.
    fn ack_sink(&mut self, acks: &[ShardReply]) -> ReplySink;
}

/// A queued job's answers: each step's immediate replies leave as one
/// message on the job's sink.
struct QueuedAnswers<'a> {
    sink: &'a ReplySink,
    replies: Vec<ShardReply>,
}

impl Answers for QueuedAnswers<'_> {
    fn answer(&mut self, tag: usize, op: &ServerRequest, served: &mut Served<'_>, i: usize) {
        self.replies.push((tag, served.reply(i, op)));
    }

    fn end_step(&mut self) {
        self.sink.deliver(std::mem::take(&mut self.replies), true);
    }

    fn ack_sink(&mut self, _: &[ShardReply]) -> ReplySink {
        self.sink.clone()
    }
}

/// [`Server::submit`]'s answers, by batch position. Most operations are a
/// `Get` or `Put` answered by its hit flag alone, in `hits`; every other
/// answer — a delete's, an error, a store-backed `Get`'s bytes, a stats
/// snapshot, a logged write's acknowledgement — is a whole response in
/// `others`, where a later entry for a position overrides an earlier one.
/// Acknowledgements of logged writes come back on a channel made for the
/// first of them.
struct InlineAnswers {
    hits: Vec<bool>,
    others: Vec<(usize, ServerResponse)>,
    acks: Option<(ReplySink, mpsc::Receiver<Vec<ShardReply>>)>,
}

impl Answers for InlineAnswers {
    fn answer(&mut self, position: usize, op: &ServerRequest, served: &mut Served<'_>, i: usize) {
        // An access served without a store is answered by its hit flag
        // alone.
        match served.hit(i) {
            Ok(hit) if !served.delete && served.data.is_empty() => self.hits[position] = hit,
            _ => {
                let reply = served.reply(i, op);
                self.others.push((position, to_response(reply)));
            }
        }
    }

    fn ack_sink(&mut self, acks: &[ShardReply]) -> ReplySink {
        // A logged write answers Io until its acknowledgement overrides
        // that, so a write whose log writer died fails closed.
        let failed = ServerResponse::Error {
            code: ErrorCode::Io,
        };
        self.others
            .extend(acks.iter().map(|(position, _)| (*position, failed.clone())));
        let (sink, _) = self.acks.get_or_insert_with(|| {
            let (tx, rx) = mpsc::channel();
            (ReplySink::new(tx), rx)
        });
        sink.clone()
    }
}

impl InlineAnswers {
    /// Waits for the log writers' acknowledgements, if any step handed them
    /// some, and builds `batch`'s responses: one pass in batch order builds
    /// each position's `Get` or `Put` from its hit flag, and `others` then
    /// replaces the positions it answers. No shard lock is held here.
    fn finish(mut self, batch: &[ServerRequest]) -> Vec<ServerResponse> {
        if let Some((sink, acks)) = self.acks.take() {
            // A writer drops its clone of the sink once it has delivered
            // that step's acknowledgements, so the channel ends with the
            // last of them.
            drop(sink);
            self.others.extend(
                acks.into_iter()
                    .flatten()
                    .map(|(position, ack)| (position, to_response(ack))),
            );
        }
        // Two arms only, so that the pass compiles to a select on the
        // request's kind, not a branch; a `Delete` or `Stats` position
        // holds a placeholder here, which `others` always replaces.
        let mut responses: Vec<ServerResponse> = batch
            .iter()
            .zip(self.hits)
            .map(|(op, hit)| match op {
                ServerRequest::Get { .. } => ServerResponse::Get { hit, data: None },
                _ => ServerResponse::Put { hit },
            })
            .collect();
        for (position, response) in self.others {
            responses[position] = response;
        }
        responses
    }
}

/// The server's hint table: each distinct `(client, wire hint)` pair gets
/// the next dense [`HintSetId`], counted in [`HINT_SETS_GAUGE`].
#[derive(Debug)]
struct HintTable {
    /// Pair, packed as `client << 32 | wire hint`, to its hint set.
    ids: Mutex<FastHashMap<u64, HintSetId>>,
    gauge: Option<Gauge>,
}

/// A [`HintTable`] locked for one batch or job.
struct Interning<'a> {
    ids: MutexGuard<'a, FastHashMap<u64, HintSetId>>,
    gauge: Option<&'a Gauge>,
}

impl HintTable {
    fn lock(&self) -> Interning<'_> {
        Interning {
            ids: recover_lock(&self.ids),
            gauge: self.gauge.as_ref(),
        }
    }
}

impl Interning<'_> {
    /// `req` with its wire hint replaced by its client's hint set.
    #[inline]
    fn intern(&mut self, mut req: Request) -> Request {
        let Interning { ids, gauge } = self;
        // Ids are handed out in order; the table would need hundreds of
        // GiB before one passed u32::MAX.
        let next = HintSetId(ids.len() as u32);
        let pair = u64::from(req.client.0) << 32 | u64::from(req.hint.0);
        req.hint = *ids.entry(pair).or_insert_with(|| {
            if let Some(gauge) = gauge {
                gauge.inc();
            }
            next
        });
        req
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
    outcomes: Vec<AccessOutcome>,
    data: Vec<Option<Vec<u8>>>,
}

impl<'a> Steps<'a> {
    fn new(cache: &'a ShardedClic, instruments: &'a Instruments) -> Self {
        Steps {
            cache,
            instruments,
            outcomes: Vec::with_capacity(REPLAY_CHUNK),
            data: Vec::new(),
        }
    }

    /// Serves one shard sub-batch — `ops`, each naming its tag and its
    /// request through `op`, all routed to `shard`, none a
    /// [`ServerRequest::Stats`], with `reqs` the [`Request`]s of all but its
    /// deletes, in order — one step at a time, in order, under one
    /// `ShardBatch` span (detail: operations served) and one service-time
    /// sample, then lowers [`QUEUE_DEPTH_GAUGE`] for it.
    ///
    /// After each step, `answers` reads the step's outcomes in place. With
    /// a `log` writer, the step's reads are answered first and the
    /// acknowledgements of its writes and deletes are then handed to the
    /// writer as one message, so a read never waits for a sync.
    fn serve<'r, T>(
        &mut self,
        shard: usize,
        log: Option<&mpsc::Sender<Ack>>,
        ops: &'r [T],
        mut reqs: &[Request],
        op: impl Fn(&'r T) -> (usize, &'r ServerRequest) + Copy,
        answers: &mut impl Answers,
    ) {
        let span = self.cache.recorder().span(SpanKind::ShardBatch);
        let mut rest = ops;
        while !rest.is_empty() {
            let (count, mut served) = self.step(shard, rest, &mut reqs, op);
            let mut acks = Vec::new();
            for (i, item) in rest[..count].iter().enumerate() {
                let (tag, request) = op(item);
                if log.is_some() && !matches!(request, ServerRequest::Get { .. }) {
                    acks.push((tag, served.reply(i, request)));
                } else {
                    answers.answer(tag, request, &mut served, i);
                }
            }
            answers.end_step();
            if let (Some(log), false) = (log, acks.is_empty()) {
                let _ = log.send((answers.ack_sink(&acks), acks));
            }
            rest = &rest[count..];
        }
        if let (Some(ns), Some(hist)) = (
            span.finish(ops.len() as u64),
            self.instruments.service.as_deref(),
        ) {
            hist.record(ns / 1_000);
        }
        if let Some(gauge) = &self.instruments.queue_depth {
            gauge.dec();
        }
    }

    /// The step routine: serves the step at the front of `ops` — a delete,
    /// or the first up to [`REPLAY_CHUNK`] consecutive accesses of `reqs`
    /// through [`ShardedClic::access_shard_batch_data`], one lock and one
    /// batched policy call per step instead of one of each per request —
    /// moves `reqs` past the accesses it served, and returns how many
    /// operations it served, with their outcomes to read in place.
    /// Splitting at the workspace-wide chunk size keeps an oversized batch
    /// from monopolizing the shard lock and replays at the granularity of
    /// the offline `simulate()` driver.
    ///
    /// A storage failure answers the step's operations with one typed error
    /// and the sub-batch continues — one bad page does not poison the rest;
    /// a client that gave up on its batch only loses the replies, the cache
    /// still observes every dispatched operation.
    fn step<'r, T>(
        &mut self,
        shard: usize,
        ops: &'r [T],
        reqs: &mut &[Request],
        op: impl Fn(&'r T) -> (usize, &'r ServerRequest),
    ) -> (usize, Served<'_>) {
        let Steps {
            cache,
            outcomes,
            data,
            ..
        } = self;
        outcomes.clear();
        data.clear();
        let (count, served, delete) = match *op(&ops[0]).1 {
            ServerRequest::Delete { page } => (
                1,
                cache.delete(page).map(|existed| {
                    outcomes.push(AccessOutcome {
                        hit: existed,
                        evicted: 0,
                        bypassed: false,
                    });
                }),
                true,
            ),
            _ => {
                // As many accesses left as operations: no delete to stop at.
                let count = if reqs.len() == ops.len() {
                    ops.len().min(REPLAY_CHUNK)
                } else {
                    ops.iter()
                        .take(REPLAY_CHUNK)
                        .take_while(|item| !matches!(op(item).1, ServerRequest::Delete { .. }))
                        .count()
                };
                let (accesses, later) = reqs.split_at(count);
                *reqs = later;
                // Payloads are borrowed from the operations, and only a
                // store reads them.
                let payloads: Vec<Option<&[u8]>> = match cache.shard_store(shard) {
                    Some(_) => ops[..count]
                        .iter()
                        .map(|item| match op(item).1 {
                            ServerRequest::Put { data, .. } => data.as_deref(),
                            _ => None,
                        })
                        .collect(),
                    None => Vec::new(),
                };
                (
                    count,
                    cache.access_shard_batch_data(shard, accesses, &payloads, outcomes, data),
                    false,
                )
            }
        };
        let served = Served {
            result: served.map_err(|err| ErrorCode::from_io_error(&err)),
            outcomes,
            data,
            delete,
        };
        (count, served)
    }
}

/// The shard worker: serves `shard`'s queued jobs until every sender is
/// gone, interning each job's hints in one pass and answering each step's
/// replies as one message on the job's sink.
fn serve_queued(
    shard: usize,
    cache: &ShardedClic,
    instruments: &Instruments,
    hints: &HintTable,
    jobs: mpsc::Receiver<ShardJob>,
    log: Option<mpsc::Sender<Ack>>,
) {
    let mut steps = Steps::new(cache, instruments);
    let mut reqs = Vec::with_capacity(REPLAY_CHUNK);
    while let Ok(job) = jobs.recv() {
        reqs.clear();
        let mut interning = hints.lock();
        reqs.extend(
            job.ops
                .iter()
                .filter_map(|(_, op)| op.to_request())
                .map(|req| interning.intern(req)),
        );
        drop(interning);
        let mut answers = QueuedAnswers {
            sink: &job.reply,
            replies: Vec::new(),
        };
        steps.serve(
            shard,
            log.as_ref(),
            &job.ops,
            &reqs,
            |(tag, op)| (*tag, op),
            &mut answers,
        );
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
                for (_, reply) in &mut replies {
                    *reply = Err(ErrorCode::Io);
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
    hints: Arc<HintTable>,
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
        let hints = Arc::new(HintTable {
            ids: Mutex::new(FastHashMap::default()),
            gauge: cache.recorder().gauge(HINT_SETS_GAUGE),
        });
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
            let hints = Arc::clone(&hints);
            let worker = thread::Builder::new()
                .name(format!("clic-shard-{shard}"))
                .spawn(move || {
                    let (log, writer) = writer.unzip();
                    serve_queued(shard, &cache, &instruments, &hints, receiver, log);
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
            hints,
        })
    }

    /// Submits one batch, serves it on the calling thread and returns the
    /// responses in batch order.
    ///
    /// Each operation's wire hint is interned per client (see the module
    /// documentation), in the same pass that routes the batch.
    ///
    /// `Get`/`Put`/`Delete` operations are split by their page's shard, and
    /// the shards' parts are served in shard order, each in batch order,
    /// one step at a time under the shard's lock. Separate submitters run
    /// in parallel; one that finds a shard busy waits for its lock, which
    /// is the back-pressure. A logged write's response waits until the
    /// shard's log writer has synced it, after the whole batch is served. A
    /// [`ServerRequest::Stats`] operation is answered with a snapshot taken
    /// *before* the batch's own data requests are served.
    ///
    /// # Panics
    ///
    /// Panics if the batch holds more than `u32::MAX` operations.
    pub fn submit(&self, batch: &[ServerRequest]) -> Vec<ServerResponse> {
        assert!(
            u32::try_from(batch.len()).is_ok(),
            "a batch holds at most u32::MAX operations"
        );
        // Each shard's batch positions and the requests of its accesses.
        let mut routes: Vec<(Vec<u32>, Vec<Request>)> = (0..self.cache.shard_count())
            .map(|_| {
                (
                    Vec::with_capacity(batch.len()),
                    Vec::with_capacity(batch.len()),
                )
            })
            .collect();
        let mut answers = InlineAnswers {
            hits: vec![false; batch.len()],
            others: Vec::new(),
            acks: None,
        };
        let mut interning = self.hints.lock();
        for (position, operation) in batch.iter().enumerate() {
            let Some(page) = operation.page() else {
                let snapshot = StatsSnapshot {
                    result: self.stats(),
                    metrics: self.metrics(),
                };
                answers
                    .others
                    .push((position, ServerResponse::Stats(Box::new(snapshot))));
                continue;
            };
            let (positions, reqs) = &mut routes[self.cache.shard_of(page)];
            positions.push(position as u32);
            reqs.extend(operation.to_request().map(|req| interning.intern(req)));
        }
        drop(interning);
        let mut steps = Steps::new(&self.cache, &self.instruments);
        for (shard, (positions, reqs)) in routes.iter().enumerate() {
            if positions.is_empty() {
                continue;
            }
            self.instruments.enqueue();
            steps.serve(
                shard,
                self.logs[shard].as_ref(),
                positions,
                reqs,
                |&position| (position as usize, &batch[position as usize]),
                &mut answers,
            );
        }
        answers.finish(batch)
    }

    /// Queues operations for one shard's worker *without* waiting for the
    /// replies: each `(tag, operation)` pair is answered on `reply` as a
    /// [`ShardReply`] `(tag, outcome)`, in the one message that carries its
    /// step's replies (see [`ReplySink`]); a successful `outcome` is the
    /// operation's response. Returns how many replies to expect (operations
    /// submitted), not how many messages.
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

    /// A page on the other shard of a two-shard `server` than `page`.
    fn page_on_other_shard(server: &Server, page: u64) -> u64 {
        let shard = server.cache().shard_of(PageId(page));
        (page + 1..)
            .find(|&other| server.cache().shard_of(PageId(other)) != shard)
            .unwrap()
    }

    #[test]
    fn one_batch_of_every_kind_answers_in_batch_order() {
        let dir =
            std::env::temp_dir().join(format!("clic-server-every-kind-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServerConfig::new(8)
            .with_shards(2)
            .with_store(crate::StoreConfig::new(&dir, 16).with_page_size(128))
            .with_durability(Durability::group_commit());
        let server = Server::start(config);
        let other = page_on_other_shard(&server, 1);
        assert!(server.submit(&[put(1)])[0].hit().is_some());
        let bytes = vec![0x5a; 128];
        let batch = [
            ServerRequest::Stats,
            ServerRequest::Delete { page: PageId(1) },
            ServerRequest::Put {
                client: ClientId(0),
                page: PageId(1),
                hint: HintSetId(0),
                write_hint: None,
                data: Some(bytes.clone()),
            },
            get(1),
            get(other),
        ];
        let responses = server.submit(&batch);
        assert_eq!(responses.len(), batch.len());
        let snapshot = responses[0]
            .stats()
            .expect("the stats response comes first");
        assert_eq!(
            snapshot.stats.requests(),
            1,
            "the snapshot counts none of its batch's requests"
        );
        assert_eq!(responses[1].existed(), Some(true), "the page was written");
        assert!(matches!(responses[2], ServerResponse::Put { .. }));
        assert!(matches!(responses[3], ServerResponse::Get { .. }));
        assert_eq!(
            responses[3].data(),
            Some(&bytes[..]),
            "the Get reads the Put"
        );
        assert!(matches!(
            responses[4],
            ServerResponse::Get { hit: false, .. }
        ));
        assert_eq!(responses[4].data(), Some(&[0u8; 128][..]));
        let never = ServerRequest::Delete {
            page: PageId(1_000),
        };
        assert_eq!(server.submit(&[never])[0].existed(), Some(false));
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_disk_read_answers_only_its_shards_step() {
        let dir =
            std::env::temp_dir().join(format!("clic-server-disk-read-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = crate::StoreConfig::new(&dir, 16).with_page_size(128);
        let config =
            |store: crate::StoreConfig| ServerConfig::new(8).with_shards(2).with_store(store);
        // A clean shutdown leaves page 1 on disk, and nothing else.
        let server = Server::start(config(store.clone()));
        let other = page_on_other_shard(&server, 1);
        assert!(server.submit(&[put(1)])[0].hit().is_some());
        server.shutdown();
        // Reopened with failing disk reads: only page 1 is read from disk.
        let fault = FaultInjector::seeded(5).with_rate(FaultPoint::DiskRead, 1.0);
        let server = Server::start(config(store.with_fault_injector(fault)));
        let same_shard = page_on_other_shard(&server, other);
        let responses = server.submit(&[get(other), get(1), get(same_shard), get(other)]);
        let code = responses[1].error_code();
        assert!(code.is_some(), "the disk read failed: {:?}", responses[1]);
        assert_eq!(responses[2].error_code(), code, "one error for the step");
        for response in [&responses[0], &responses[3]] {
            assert!(
                response.hit().is_some(),
                "the other shard answers: {response:?}"
            );
            assert_eq!(response.data(), Some(&[0u8; 128][..]));
        }
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two clients label their requests with the same wire hint, one
    /// re-reading every page it writes and one never re-reading: interned
    /// per client, they are two hint sets, one learned hot and one cold.
    #[test]
    fn equal_wire_hints_of_two_clients_are_distinct_hint_sets() {
        let config = ServerConfig::new(64)
            .with_clic(ClicConfig::default().with_window(200))
            .with_recorder(Recorder::enabled());
        let server = Server::start(config);
        let op = |client: u16, page: u64, write: bool| {
            let (client, page, hint) = (ClientId(client), PageId(page), HintSetId(7));
            if write {
                ServerRequest::from_request(&Request::write(client, page, None, hint))
            } else {
                ServerRequest::from_request(&Request::read(client, page, hint))
            }
        };
        for round in 0..300 {
            let page = round % 20;
            server.submit(&[
                op(0, page, true),
                op(0, page, false),
                op(1, 10_000 + round, false),
            ]);
        }
        let priorities = server.cache().shard_priorities(0);
        assert_eq!(
            priorities.len(),
            2,
            "one hint set per client: {priorities:?}"
        );
        let (rereading, one_shot) = (priorities[0], priorities[1]);
        assert_eq!((rereading.0, one_shot.0), (HintSetId(0), HintSetId(1)));
        assert!(rereading.1 > 0.0, "client 0 re-reads: {rereading:?}");
        assert_eq!(one_shot.1, 0.0, "client 1 never re-reads: {one_shot:?}");
        assert_eq!(server.metrics().gauge(HINT_SETS_GAUGE).value, 2);
    }

    #[test]
    fn one_submitter_matches_access_shard_batch_in_shard_order() {
        let config = ServerConfig::new(16).with_shards(2).with_merge_every(50);
        let reference = ShardedClic::new(config.cache.clone());
        let server = Server::start(config);
        // The server numbers one client's wire hints in order of first
        // appearance; the reference is fed the numbers it hands out.
        let mut interned: Vec<HintSetId> = Vec::new();
        let mut intern = move |mut req: Request| {
            let position = interned.iter().position(|&hint| hint == req.hint);
            req.hint = HintSetId(position.unwrap_or_else(|| {
                interned.push(req.hint);
                interned.len() - 1
            }) as u32);
            req
        };
        let mut state = 7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 33
        };
        for _ in 0..60 {
            let batch: Vec<ServerRequest> = (0..24)
                .map(|_| {
                    let (page, hint) = (next() % 40, HintSetId((next() % 3) as u32));
                    if next() % 4 == 0 {
                        ServerRequest::from_request(&Request::write(
                            ClientId(0),
                            PageId(page),
                            None,
                            hint,
                        ))
                    } else {
                        ServerRequest::from_request(&Request::read(ClientId(0), PageId(page), hint))
                    }
                })
                .collect();
            let batch_reqs: Vec<Request> = batch
                .iter()
                .map(|op| intern(op.to_request().expect("a Get or Put")))
                .collect();
            let mut expected = vec![false; batch.len()];
            for shard in 0..2 {
                let (positions, reqs): (Vec<usize>, Vec<Request>) = batch_reqs
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|(_, req)| reference.shard_of(req.page) == shard)
                    .unzip();
                let mut outcomes = Vec::new();
                reference.access_shard_batch(shard, &reqs, &mut outcomes);
                for (position, outcome) in positions.into_iter().zip(outcomes) {
                    expected[position] = outcome.hit;
                }
            }
            let hits: Vec<bool> = server
                .submit(&batch)
                .iter()
                .map(|response| response.hit().expect("a Get or Put response"))
                .collect();
            assert_eq!(hits, expected);
        }
        assert!(server.stats().stats.read_hits > 0, "the stream hits");
        assert_eq!(server.stats().stats, reference.snapshot().stats);
        assert_eq!(
            server.cache().merges_completed(),
            reference.merges_completed()
        );
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
