//! The event-driven network front-end: CLIC on the wire.
//!
//! [`NetServer`] puts a running [`Server`] behind real sockets — TCP and a
//! Unix-domain listener — speaking the length-prefixed binary protocol of
//! [`crate::wire`]. One event-loop thread owns every connection and
//! multiplexes them over the readiness poller of [`crate::sys`]; *no thread
//! ever blocks on a socket*, and no thread is spawned per connection. The
//! loop sleeps in `epoll_wait` with no timeout and runs one iteration per
//! wake-up — a socket became ready, or a shard worker finished a step and
//! fired the loop's [`Waker`] — so an idle server costs nothing and a
//! completion leaves for its client when it exists, not at the next tick:
//!
//! * Readable connections are drained into per-connection buffers and
//!   decoded frame by frame. Decoded operations are *coalesced per shard*
//!   — up to [`cache_sim::REPLAY_CHUNK`] operations per submission — and
//!   handed to the existing shard workers through
//!   [`Server::submit_shard_tagged`], so a flood of small client frames
//!   still reaches the policy through the batched access fast path.
//! * Completions stream back over a channel tagged with slab indices, one
//!   message per shard step carrying all of that step's replies, the worker
//!   firing the waker once per message (the reply sink the loop submits
//!   with carries it; [`Server::submit`]'s does not, so the in-process path
//!   pays nothing). The loop matches them to connections (a generation
//!   counter guards against slot reuse after disconnects), encodes
//!   responses — correlated by the client's `seq`, hence safely out of
//!   order across shards — and writes as far as the socket allows,
//!   buffering the rest behind `EPOLLOUT` interest.
//! * Each connection has a bounded *in-flight window* of 64 requests
//!   decoded whose replies have not yet left for the socket — still at a
//!   shard, or answered and waiting in the write buffer. A connection at
//!   its window stops being decoded and read (its `EPOLLIN` interest is
//!   dropped) until its replies are written: per-connection back-pressure
//!   that bounds server-side memory however fast a client pushes and
//!   however slowly it reads. This is the front-end's only answer to
//!   saturation — it blocks, it never sheds: every decoded request is
//!   answered, and a full shard queue stalls the loop until the worker
//!   makes room.
//! * An iteration visits only the connections it *touched* — a socket
//!   event, a completion answered, a fresh accept — through one reusable
//!   ready-list; a thousand idle connections add nothing to the cost of
//!   serving the busy one.
//! * [`ServerRequest::Stats`] is answered inline by the loop itself, same
//!   as [`Server::submit`] does; its reply holds a window slot until it is
//!   written, like any other.
//!
//! With an enabled [`clic_obs::Recorder`], every frame decode and encode
//! is recorded as a [`SpanKind::NetFrame`] trace span whose detail is the
//! frame's size in bytes, and the loop counts its iterations
//! ([`LOOP_ITERATIONS_COUNTER`]) and what woke them
//! ([`COMPLETION_WAKEUPS_COUNTER`], [`SOCKET_WAKEUPS_COUNTER`]) — "is the
//! loop woken or polling?" is answerable from a `Stats` reply.
//!
//! A malformed frame — oversized length prefix, unknown opcode, truncated
//! body — closes that connection immediately; framing is unrecoverable
//! once a stream desynchronizes, and a bad peer must not be able to make
//! the server buffer garbage.
//!
//! [`BlockingClient`] is the matching minimal client: a blocking,
//! pipelining codec wrapper used by the tests, the verification smoke
//! gate, and as the transport under the open-loop generator's reader. For
//! hostile networks it optionally layers connect/read/write timeouts,
//! reconnection, and a bounded, seeded-jitter retry loop
//! ([`RetryPolicy`], [`BlockingClient::call_with_retry`]) on top of the
//! bare codec.
//!
//! # Fault injection
//!
//! [`NetOptions::fault`] arms a [`FaultInjector`] on the network surface:
//! accepted connections may be dropped on arrival (`NetAccept`), readable
//! connections may be reset before the read (`NetRecv`), and socket writes
//! may be cut short mid-buffer or fail outright (`NetSend`). The schedule
//! is seeded and deterministic, and a disabled injector costs one branch.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use cache_sim::{SimulationResult, REPLAY_CHUNK};
use clic_obs::{Counter, Recorder, SpanKind};
use clic_store::{FaultInjector, FaultPoint, InjectedFault};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::protocol::{ErrorCode, ServerRequest, ServerResponse, StatsSnapshot};
use crate::server::{ReplySink, Server, ShardOutcome, ShardReply};
use crate::sys::{Event, Poller, Waker, READABLE, WRITABLE};
use crate::wire;

/// Poller token of the TCP listener.
const TOKEN_TCP: u64 = 0;
/// Poller token of the Unix-domain listener.
const TOKEN_UDS: u64 = 1;
/// Poller token of the completion/stop [`Waker`].
const TOKEN_WAKER: u64 = 2;
/// First poller token used for connections (token = base + slot index).
const TOKEN_BASE: u64 = 3;

/// Counter name: event-loop iterations, i.e. returns from `epoll_wait`.
pub const LOOP_ITERATIONS_COUNTER: &str = "net.loop_iterations";
/// Counter name: iterations in which the [`Waker`] had fired — a shard
/// worker finished a step (or the server is stopping).
pub const COMPLETION_WAKEUPS_COUNTER: &str = "net.completion_wakeups";
/// Counter name: iterations in which a listener or a connection was ready.
pub const SOCKET_WAKEUPS_COUNTER: &str = "net.socket_wakeups";

/// Read chunk size for draining a readable socket.
const READ_CHUNK: usize = 64 * 1024;

/// Maximum requests per connection decoded but not yet answered *and
/// written* before the loop stops reading from it (back-pressure).
const IN_FLIGHT_WINDOW: usize = 64;

/// How the front-end listens and how much it buffers per connection.
#[derive(Debug, Clone)]
pub struct NetOptions {
    /// TCP listen address (e.g. `"127.0.0.1:0"` for an ephemeral port), or
    /// `None` for no TCP listener.
    pub tcp: Option<String>,
    /// Unix-domain socket path, or `None` for no UDS listener. The file is
    /// removed on shutdown.
    pub uds: Option<PathBuf>,
    /// Deterministic fault schedule armed on the network surface
    /// (`NetAccept`/`NetRecv`/`NetSend` points). The default
    /// [`FaultInjector::disabled`] injects nothing and costs one branch
    /// per I/O operation.
    pub fault: FaultInjector,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            tcp: Some("127.0.0.1:0".to_string()),
            uds: None,
            fault: FaultInjector::disabled(),
        }
    }
}

/// A [`Server`] exposed over real sockets by a background event-loop
/// thread. Dropping it stops the loop and shuts the server down; call
/// [`NetServer::shutdown`] to also collect the final statistics.
#[derive(Debug)]
pub struct NetServer {
    stop: Arc<AtomicBool>,
    /// Ends the loop's `epoll_wait` so that it sees `stop`.
    waker: Arc<Waker>,
    thread: Option<JoinHandle<io::Result<Server>>>,
    tcp_addr: Option<SocketAddr>,
    uds_path: Option<PathBuf>,
}

impl NetServer {
    /// Binds the listeners and spawns the event loop around `server`.
    pub fn start(server: Server, options: NetOptions) -> io::Result<NetServer> {
        let tcp = match &options.tcp {
            Some(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                listener.set_nonblocking(true)?;
                Some(listener)
            }
            None => None,
        };
        let tcp_addr = tcp.as_ref().map(|l| l.local_addr()).transpose()?;
        let uds = match &options.uds {
            Some(path) => {
                // A previous unclean shutdown may have left the socket
                // file behind; binding over it needs the unlink.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                Some(listener)
            }
            None => None,
        };
        let uds_path = options.uds.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let waker = Arc::new(Waker::new()?);
        let event_loop = EventLoop::new(
            server,
            tcp,
            uds,
            &options,
            Arc::clone(&stop),
            Arc::clone(&waker),
        )?;
        let thread = thread::Builder::new()
            .name("clic-net".to_string())
            .spawn(move || event_loop.run())?;
        Ok(NetServer {
            stop,
            waker,
            thread: Some(thread),
            tcp_addr,
            uds_path,
        })
    }

    /// The bound TCP address (`None` if TCP was disabled).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound Unix-domain socket path (`None` if UDS was disabled).
    pub fn uds_path(&self) -> Option<&PathBuf> {
        self.uds_path.as_ref()
    }

    fn stop_loop(&mut self) -> Option<io::Result<Server>> {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        let result = self.thread.take().map(|t| match t.join() {
            Ok(result) => result,
            Err(_) => Err(io::Error::other("the network event loop panicked")),
        });
        if let Some(path) = &self.uds_path {
            let _ = std::fs::remove_file(path);
        }
        result
    }

    /// Stops accepting, closes every connection, shuts the inner server
    /// down, and returns its final statistics.
    pub fn shutdown(mut self) -> io::Result<SimulationResult> {
        match self.stop_loop() {
            Some(Ok(server)) => Ok(server.shutdown()),
            Some(Err(err)) => Err(err),
            None => Err(io::Error::other("event loop already stopped")),
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.thread.is_some() {
            let _ = self.stop_loop();
        }
    }
}

/// A connected byte stream, TCP or Unix-domain.
#[derive(Debug)]
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn fd(&self) -> i32 {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }

    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(true),
            Stream::Unix(s) => s.set_nonblocking(true),
        }
    }

    /// Disables Nagle on TCP — the protocol is latency-bound
    /// request/response; a no-op on a Unix-domain stream.
    fn set_nodelay(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nodelay(true),
            Stream::Unix(_) => Ok(()),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// Per-connection state owned by the event loop.
#[derive(Debug)]
struct Conn {
    stream: Stream,
    /// Guards completions against slot reuse: a completion whose pending
    /// entry carries an older generation belongs to a previous connection
    /// in this slot and is dropped.
    gen: u32,
    read_buf: wire::FrameBuf,
    write_buf: Vec<u8>,
    /// Bytes of `write_buf` already written to the socket.
    write_at: usize,
    /// Requests decoded whose replies have not left `write_buf` yet: still
    /// at a shard, or answered and unsent. At most [`IN_FLIGHT_WINDOW`].
    in_flight: usize,
    /// Replies in `write_buf` (each also counted in `in_flight`); their
    /// window slots are released together when the buffer empties.
    unsent: usize,
    /// The peer half-closed (or errored); no more reads, flush and close.
    read_closed: bool,
    /// The interest mask currently armed in the poller.
    interest: u32,
    /// Set when the connection must be torn down (I/O or protocol error).
    dead: bool,
    /// On the loop's ready-list for the current iteration.
    queued: bool,
}

impl Conn {
    fn pending_write(&self) -> bool {
        self.write_at < self.write_buf.len()
    }

    /// Marks the connection as touched this iteration; `true` when it was
    /// not yet, i.e. when the caller must push it onto the ready-list.
    fn mark_queued(&mut self) -> bool {
        !std::mem::replace(&mut self.queued, true)
    }
}

/// One submitted-to-a-shard operation awaiting completion.
struct Pending {
    conn: usize,
    gen: u32,
    seq: u64,
    kind: PendingKind,
}

/// Which response variant a completion maps to.
enum PendingKind {
    Get,
    Put,
    Delete,
}

/// The loop's own counters, present with an enabled recorder.
struct LoopCounters {
    iterations: Counter,
    completion_wakeups: Counter,
    socket_wakeups: Counter,
}

struct EventLoop {
    server: Server,
    recorder: Recorder,
    poller: Poller,
    /// Fired by the shard workers after each step's replies and by
    /// [`NetServer::stop_loop`]; registered under [`TOKEN_WAKER`].
    waker: Arc<Waker>,
    tcp: Option<TcpListener>,
    uds: Option<UnixListener>,
    conns: Vec<Option<Conn>>,
    free_conns: Vec<usize>,
    /// Per slot, the generation the *next* tenant carries (bumped by
    /// [`EventLoop::close_conn`] so stale completions are recognizable).
    slot_next_gen: Vec<u32>,
    /// The connections touched this iteration — a socket event, a
    /// completion answered, a fresh accept — each once ([`Conn::queued`]).
    /// Decoding and settling visit these and no others. Cleared when the
    /// next iteration starts.
    ready: Vec<usize>,
    slab: Vec<Option<Pending>>,
    free_slab: Vec<usize>,
    /// What the loop submits with: its reply channel plus its waker.
    reply_sink: ReplySink,
    /// Where the shard workers and log writers answer: one message per
    /// shard step.
    reply_rx: mpsc::Receiver<Vec<ShardReply>>,
    /// Per-shard coalescing buffers, flushed at [`REPLAY_CHUNK`] or at the
    /// end of each cycle.
    pending_shard: Vec<Vec<(usize, ServerRequest)>>,
    /// Network-surface fault schedule ([`NetOptions::fault`]).
    fault: FaultInjector,
    counters: Option<LoopCounters>,
    stop: Arc<AtomicBool>,
}

impl EventLoop {
    /// Builds the loop with its listeners and its waker registered.
    fn new(
        server: Server,
        tcp: Option<TcpListener>,
        uds: Option<UnixListener>,
        options: &NetOptions,
        stop: Arc<AtomicBool>,
        waker: Arc<Waker>,
    ) -> io::Result<EventLoop> {
        let (reply_tx, reply_rx) = mpsc::channel();
        let shard_count = server.cache().shard_count();
        let recorder = server.cache().recorder().clone();
        if let Some(counter) = recorder.counter("server.net_injected_faults") {
            options.fault.attach_counter(counter);
        }
        let counters = recorder.registry().map(|registry| LoopCounters {
            iterations: registry.counter(LOOP_ITERATIONS_COUNTER),
            completion_wakeups: registry.counter(COMPLETION_WAKEUPS_COUNTER),
            socket_wakeups: registry.counter(SOCKET_WAKEUPS_COUNTER),
        });
        let mut poller = Poller::new()?;
        poller.register(waker.fd(), TOKEN_WAKER, READABLE)?;
        if let Some(listener) = &tcp {
            poller.register(listener.as_raw_fd(), TOKEN_TCP, READABLE)?;
        }
        if let Some(listener) = &uds {
            poller.register(listener.as_raw_fd(), TOKEN_UDS, READABLE)?;
        }
        Ok(EventLoop {
            server,
            recorder,
            poller,
            reply_sink: ReplySink::with_waker(reply_tx, Arc::clone(&waker)),
            waker,
            tcp,
            uds,
            conns: Vec::new(),
            free_conns: Vec::new(),
            slot_next_gen: Vec::new(),
            ready: Vec::new(),
            slab: Vec::new(),
            free_slab: Vec::new(),
            reply_rx,
            pending_shard: (0..shard_count).map(|_| Vec::new()).collect(),
            fault: options.fault.clone(),
            counters,
            stop,
        })
    }

    fn run(mut self) -> io::Result<Server> {
        let mut events: Vec<Event> = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            self.turn(&mut events)?;
        }
        Ok(self.server)
    }

    /// One iteration: sleeps until a socket is ready or the waker fired —
    /// there is no timeout, so a wake-up is the only thing that ends the
    /// sleep — then serves exactly the connections that wake-up touched.
    fn turn(&mut self, events: &mut Vec<Event>) -> io::Result<()> {
        self.poller.wait(events, None)?;
        self.ready.clear();
        let (mut woken, mut sockets) = (false, false);
        for &event in events.iter() {
            match event.token {
                // Reset before the channel is drained below: a worker that
                // finds the waker still notified writes nothing, and relies
                // on this iteration to see the replies it sent beforehand.
                TOKEN_WAKER => {
                    self.waker.reset();
                    woken = true;
                }
                token @ (TOKEN_TCP | TOKEN_UDS) => {
                    sockets = true;
                    self.accept(token);
                }
                // A writable connection needs no work here: settling it
                // below flushes its write buffer.
                token => {
                    sockets = true;
                    let idx = (token - TOKEN_BASE) as usize;
                    if event.readable() {
                        self.fill_read_buf(idx);
                    }
                    if let Some(conn) = self.conns.get_mut(idx).and_then(|c| c.as_mut()) {
                        if conn.mark_queued() {
                            self.ready.push(idx);
                        }
                    }
                }
            }
        }
        if let Some(counters) = &self.counters {
            counters.iterations.inc();
            if woken {
                counters.completion_wakeups.inc();
            }
            if sockets {
                counters.socket_wakeups.inc();
            }
        }
        // Completions first: their replies, once written, are what gives a
        // connection parked at its window, frames still buffered, the room
        // to decode again — and nothing but this iteration would ever come
        // back for it.
        self.drain_completions();
        for next in 0..self.ready.len() {
            self.decode_conn(self.ready[next]);
        }
        // Submitted before any reply is written, so the workers serve the
        // new requests while the loop writes.
        self.submit_pending();
        self.settle_ready();
        // What settling decoded into room its writes freed.
        self.submit_pending();
        Ok(())
    }

    /// Accepts every connection pending on the listener behind `token`.
    fn accept(&mut self, token: u64) {
        loop {
            let accepted = match token {
                TOKEN_TCP => self
                    .tcp
                    .as_ref()
                    .map(|listener| listener.accept().map(|(stream, _peer)| Stream::Tcp(stream))),
                TOKEN_UDS => self.uds.as_ref().map(|listener| {
                    listener
                        .accept()
                        .map(|(stream, _peer)| Stream::Unix(stream))
                }),
                _ => None,
            };
            // `WouldBlock` (the backlog is drained) and hard accept errors
            // both end this round.
            let Some(Ok(stream)) = accepted else {
                return;
            };
            // An injected accept failure drops the connection on the
            // floor — the peer sees an immediate reset.
            if self.fault.decide(FaultPoint::NetAccept, 0) != InjectedFault::None {
                continue;
            }
            if stream.set_nonblocking().is_err() {
                continue;
            }
            let _ = stream.set_nodelay();
            self.add_conn(stream);
        }
    }

    fn add_conn(&mut self, stream: Stream) {
        let fd = stream.fd();
        let idx = match self.free_conns.pop() {
            Some(idx) => {
                debug_assert!(self.conns[idx].is_none());
                idx
            }
            None => {
                self.conns.push(None);
                self.slot_next_gen.push(0);
                self.conns.len() - 1
            }
        };
        let gen = self.slot_next_gen[idx];
        let token = TOKEN_BASE + idx as u64;
        if self.poller.register(fd, token, READABLE).is_err() {
            self.free_conns.push(idx);
            return;
        }
        self.conns[idx] = Some(Conn {
            stream,
            gen,
            read_buf: wire::FrameBuf::new(),
            write_buf: Vec::new(),
            write_at: 0,
            in_flight: 0,
            unsent: 0,
            read_closed: false,
            interest: READABLE,
            dead: false,
            queued: true,
        });
        self.ready.push(idx);
    }

    /// Reads as much as the socket offers into the connection's buffer.
    fn fill_read_buf(&mut self, idx: usize) {
        let Some(conn) = self.conns.get_mut(idx).and_then(|c| c.as_mut()) else {
            return;
        };
        if conn.read_closed || conn.dead {
            return;
        }
        // An injected receive failure resets the connection before the
        // read, as if the peer's RST raced the readable event.
        if self.fault.decide(FaultPoint::NetRecv, 0) != InjectedFault::None {
            conn.dead = true;
            return;
        }
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.read_closed = true;
                    return;
                }
                Ok(n) => conn.read_buf.extend(&chunk[..n]),
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
    }

    /// Decodes frames from the connection's read buffer while it has
    /// window room, routing data operations into the per-shard coalescing
    /// buffers and answering stats inline. Each decoded request takes a
    /// window slot.
    // invariant: the `expect` below holds by construction — every
    // non-Stats request variant carries a page.
    #[cfg_attr(not(test), allow(clippy::expect_used))]
    fn decode_conn(&mut self, idx: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(idx).and_then(|c| c.as_mut()) else {
                return;
            };
            if conn.dead || conn.read_buf.is_empty() || conn.in_flight >= IN_FLIGHT_WINDOW {
                return;
            }
            let span = self.recorder.span(SpanKind::NetFrame);
            let (consumed, decoded) = match conn.read_buf.next_frame() {
                Ok(None) => {
                    span.cancel();
                    return;
                }
                Ok(Some((consumed, payload))) => (consumed, wire::decode_request(payload)),
                Err(_) => {
                    span.cancel();
                    conn.dead = true;
                    return;
                }
            };
            let (seq, op) = match decoded {
                Ok(frame) => frame,
                Err(_) => {
                    span.cancel();
                    conn.dead = true;
                    return;
                }
            };
            span.finish(consumed as u64);
            conn.in_flight += 1;
            let gen = conn.gen;
            match op {
                ServerRequest::Stats => {
                    // Answered inline, mirroring `Server::submit`.
                    let snapshot = StatsSnapshot {
                        result: self.server.stats(),
                        metrics: self.server.metrics(),
                    };
                    self.respond(idx, seq, &ServerResponse::Stats(Box::new(snapshot)));
                }
                op => {
                    let kind = match &op {
                        ServerRequest::Get { .. } => PendingKind::Get,
                        ServerRequest::Put { .. } => PendingKind::Put,
                        ServerRequest::Delete { .. } => PendingKind::Delete,
                        ServerRequest::Stats => unreachable!("matched above"),
                    };
                    let page = op.page().expect("data operations carry a page");
                    let shard = self.server.cache().shard_of(page);
                    let tag = self.alloc_pending(Pending {
                        conn: idx,
                        gen,
                        seq,
                        kind,
                    });
                    self.pending_shard[shard].push((tag, op));
                    if self.pending_shard[shard].len() >= REPLAY_CHUNK {
                        self.flush_shard(shard);
                    }
                }
            }
        }
    }

    fn alloc_pending(&mut self, pending: Pending) -> usize {
        match self.free_slab.pop() {
            Some(tag) => {
                debug_assert!(self.slab[tag].is_none());
                self.slab[tag] = Some(pending);
                tag
            }
            None => {
                self.slab.push(Some(pending));
                self.slab.len() - 1
            }
        }
    }

    fn flush_shard(&mut self, shard: usize) {
        if self.pending_shard[shard].is_empty() {
            return;
        }
        let ops = std::mem::take(&mut self.pending_shard[shard]);
        // Blocks only while the shard's bounded queue is full: worker
        // back-pressure propagating to the event loop, by design.
        self.server
            .submit_shard_tagged(shard, ops, &self.reply_sink);
    }

    fn submit_pending(&mut self) {
        for shard in 0..self.pending_shard.len() {
            self.flush_shard(shard);
        }
    }

    fn drain_completions(&mut self) {
        while let Ok(replies) = self.reply_rx.try_recv() {
            for (tag, result) in replies {
                self.complete(tag, result);
            }
        }
    }

    /// Completes the pending operation behind `tag`, answered by a shard
    /// worker: frees the slab slot, encodes the response, and puts the
    /// connection on the ready-list (it has output to flush, and writing
    /// it frees window room for frames it may have had to leave buffered).
    /// Nothing is sent when the connection is gone (a newer generation
    /// owns the slot).
    // invariant: every tag completed here was allocated by `alloc_pending`
    // and is taken exactly once — a double take or an out-of-range tag is
    // a slab-accounting bug, not a runtime condition.
    #[cfg_attr(not(test), allow(clippy::expect_used))]
    fn complete(&mut self, tag: usize, result: Result<ShardOutcome, ErrorCode>) {
        let pending = self
            .slab
            .get_mut(tag)
            .and_then(|slot| slot.take())
            .expect("completion for an unallocated slab slot");
        self.free_slab.push(tag);
        let Some(conn) = self
            .conns
            .get_mut(pending.conn)
            .and_then(|c| c.as_mut())
            .filter(|conn| conn.gen == pending.gen)
        else {
            return;
        };
        if conn.mark_queued() {
            self.ready.push(pending.conn);
        }
        let response = match result {
            // A failed operation answers with a typed error frame instead
            // of a fabricated miss: the client can tell "the page is not
            // cached" from "the data plane failed".
            Err(code) => ServerResponse::Error { code },
            Ok(ShardOutcome { hit, data }) => match pending.kind {
                PendingKind::Get => ServerResponse::Get { hit, data },
                PendingKind::Put => ServerResponse::Put { hit },
                PendingKind::Delete => ServerResponse::Delete { existed: hit },
            },
        };
        self.respond(pending.conn, pending.seq, &response);
    }

    /// Encodes a response onto the connection's write buffer (recording
    /// the encode as a [`SpanKind::NetFrame`] span). The request keeps its
    /// window slot until the buffer is written out.
    fn respond(&mut self, idx: usize, seq: u64, response: &ServerResponse) {
        let Some(conn) = self.conns.get_mut(idx).and_then(|c| c.as_mut()) else {
            return;
        };
        let span = self.recorder.span(SpanKind::NetFrame);
        let before = conn.write_buf.len();
        wire::encode_response(seq, response, &mut conn.write_buf);
        conn.unsent += 1;
        span.finish((conn.write_buf.len() - before) as u64);
    }

    /// Writes as much buffered output as the socket accepts. Returns
    /// whether that emptied the buffer and so released the window slots
    /// of the replies it held.
    fn flush_write_buf(&mut self, idx: usize) -> bool {
        let Some(conn) = self.conns.get_mut(idx).and_then(|c| c.as_mut()) else {
            return false;
        };
        if conn.dead || !conn.pending_write() {
            return false;
        }
        // An injected send fault either caps this cycle's write to a
        // prefix (a partial socket write — the rest stays buffered behind
        // `EPOLLOUT` interest, exercising the resume path) or fails the
        // write outright, which tears the connection down.
        let mut limit = conn.write_buf.len();
        match self
            .fault
            .decide(FaultPoint::NetSend, limit - conn.write_at)
        {
            InjectedFault::None => {}
            InjectedFault::Torn(n) => limit = (conn.write_at + n).min(limit),
            _ => {
                conn.dead = true;
                return false;
            }
        }
        while conn.write_at < limit {
            match conn.stream.write(&conn.write_buf[conn.write_at..]) {
                Ok(0) => {
                    conn.dead = true;
                    return false;
                }
                Ok(n) => conn.write_at += n,
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return false;
                }
            }
        }
        if conn.write_at == conn.write_buf.len() {
            conn.write_buf.clear();
            conn.write_at = 0;
            conn.in_flight -= std::mem::take(&mut conn.unsent);
            return true;
        }
        if conn.write_at > READ_CHUNK {
            // Compact a long-lived partially written buffer so it cannot
            // grow without bound across cycles.
            conn.write_buf.drain(..conn.write_at);
            conn.write_at = 0;
        }
        false
    }

    /// End-of-cycle pass over the ready-list: writes, interest re-arming,
    /// and teardown of finished or errored connections. A connection this
    /// iteration did not touch has nothing to write, no new reason to close
    /// and an unchanged interest mask.
    fn settle_ready(&mut self) {
        for next in 0..self.ready.len() {
            let idx = self.ready[next];
            // Emptying the write buffer frees the window slots of the
            // replies it held, which can admit frames the window had left
            // buffered: decode those, and write what that answered inline.
            while self.flush_write_buf(idx) {
                self.decode_conn(idx);
            }
            let Some(conn) = self.conns.get_mut(idx).and_then(|c| c.as_mut()) else {
                continue;
            };
            conn.queued = false;
            let finished = conn.read_closed
                && conn.in_flight == 0
                && !conn.pending_write()
                && conn.read_buf.len() < 4; // a buffered partial frame dies with the peer
            if conn.dead || finished {
                self.close_conn(idx);
                continue;
            }
            let mut interest = 0u32;
            if !conn.read_closed && conn.in_flight < IN_FLIGHT_WINDOW {
                interest |= READABLE;
            }
            if conn.pending_write() {
                interest |= WRITABLE;
            }
            if interest != conn.interest {
                let fd = conn.stream.fd();
                let token = TOKEN_BASE + idx as u64;
                conn.interest = interest;
                let _ = self.poller.rearm(fd, token, interest);
            }
        }
    }

    fn close_conn(&mut self, idx: usize) {
        let Some(conn) = self.conns.get_mut(idx).and_then(|slot| slot.take()) else {
            return;
        };
        self.poller.deregister(conn.stream.fd());
        // Outstanding completions for this connection are dropped on
        // arrival: the next tenant of the slot carries gen + 1.
        self.slot_next_gen[idx] = conn.gen.wrapping_add(1);
        self.free_conns.push(idx);
    }
}

/// How [`BlockingClient::call_with_retry`] paces its attempts: a bounded
/// number of retries with exponential backoff and seeded multiplicative
/// jitter.
///
/// A retry is attempted after transport errors only, and the client
/// reconnects first. An error *response* is returned to the caller
/// immediately: the server answers every request it decodes, so a typed
/// error means the operation itself failed, and resending cannot make a
/// failed fsync succeed.
///
/// The jitter is drawn from a seeded [`StdRng`], so a retrying client is
/// as deterministic as the fault schedule that makes it retry: attempt
/// `n` sleeps `base_delay * 2^n * u` for `u` uniform in `[0.5, 1.0)`,
/// capped at `max_delay`.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 disables retrying).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Ceiling applied after the exponential doubling.
    pub max_delay: Duration,
    /// Seed of the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 5,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(200),
            seed: 42,
        }
    }
}

impl RetryPolicy {
    /// The jittered backoff before retry `attempt` (0-based).
    fn delay(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .min(self.max_delay);
        exp.mul_f64(rng.gen_range(0.5..1.0))
    }
}

/// Where a [`BlockingClient`] connected, kept so it can reconnect.
#[derive(Debug, Clone)]
enum ConnectTarget {
    Tcp(SocketAddr),
    Uds(PathBuf),
}

/// A minimal blocking client for the wire protocol: encodes requests,
/// pipelines a whole batch onto the socket, and reassembles the responses
/// in batch order via the echoed `seq`.
///
/// This is deliberately the simplest correct counterpart of the server —
/// the loopback equivalence test drives a [`Server`] through it and
/// asserts bit-identical statistics with the in-process path, and the
/// verification smoke gate uses it for its final stats probe. The
/// open-loop generator in [`crate::openloop`] does *not* use it (pacing
/// needs decoupled writer/reader halves).
///
/// For hostile conditions it degrades gracefully rather than hanging:
/// [`BlockingClient::set_timeouts`] bounds every socket read and write,
/// [`BlockingClient::reconnect`] re-dials the original target after a
/// transport error, and [`BlockingClient::call_with_retry`] wraps both in
/// a bounded, jittered retry loop driven by a [`RetryPolicy`].
#[derive(Debug)]
pub struct BlockingClient {
    stream: Stream,
    buf: wire::FrameBuf,
    target: ConnectTarget,
    io_timeout: Option<Duration>,
}

impl BlockingClient {
    /// Connects over TCP (Nagle disabled — the protocol is latency-bound
    /// request/response).
    pub fn connect_tcp(addr: SocketAddr) -> io::Result<BlockingClient> {
        Self::connect(ConnectTarget::Tcp(addr))
    }

    /// Connects over a Unix-domain socket.
    pub fn connect_uds(path: &std::path::Path) -> io::Result<BlockingClient> {
        Self::connect(ConnectTarget::Uds(path.to_path_buf()))
    }

    fn connect(target: ConnectTarget) -> io::Result<BlockingClient> {
        Ok(BlockingClient {
            stream: Self::dial(&target)?,
            buf: wire::FrameBuf::new(),
            target,
            io_timeout: None,
        })
    }

    /// The one dial behind every connect and reconnect.
    fn dial(target: &ConnectTarget) -> io::Result<Stream> {
        let stream = match target {
            ConnectTarget::Tcp(addr) => Stream::Tcp(TcpStream::connect(*addr)?),
            ConnectTarget::Uds(path) => Stream::Unix(UnixStream::connect(path)?),
        };
        stream.set_nodelay()?;
        Ok(stream)
    }

    /// Bounds every subsequent socket read and write by `timeout` (`None`
    /// blocks indefinitely, the default). A timed-out call surfaces as an
    /// I/O error from [`BlockingClient::call_batch`]; the stream may hold
    /// a partial frame afterwards, so recovery means
    /// [`BlockingClient::reconnect`], not a bare retry on the same socket.
    pub fn set_timeouts(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        match &self.stream {
            Stream::Tcp(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)?;
            }
            Stream::Unix(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)?;
            }
        }
        self.io_timeout = timeout;
        Ok(())
    }

    /// Drops the current stream and re-dials the original target,
    /// reapplying the configured timeouts and discarding any buffered
    /// partial frame (the old stream's framing is unrecoverable).
    pub fn reconnect(&mut self) -> io::Result<()> {
        self.stream = Self::dial(&self.target)?;
        self.buf.clear();
        if let Some(timeout) = self.io_timeout {
            self.set_timeouts(Some(timeout))?;
        }
        Ok(())
    }

    /// Submits one operation with bounded retries: a transport error
    /// triggers a reconnect and a retry, after the policy's jittered
    /// exponential backoff. A response, error responses included, ends the
    /// call. Returns the last error when the budget is exhausted.
    pub fn call_with_retry(
        &mut self,
        op: &ServerRequest,
        policy: &RetryPolicy,
    ) -> io::Result<ServerResponse> {
        let mut rng = StdRng::seed_from_u64(policy.seed);
        let mut attempt = 0u32;
        loop {
            match self.call(op) {
                Err(_) if attempt < policy.max_retries => {
                    thread::sleep(policy.delay(attempt, &mut rng));
                    attempt += 1;
                    // The old stream may be mid-frame; only a fresh one can
                    // resynchronize. If the reconnect itself fails, the next
                    // call errors on the dead stream and consumes an attempt.
                    let _ = self.reconnect();
                }
                outcome => return outcome,
            }
        }
    }

    /// Submits one batch and blocks until every response arrived,
    /// returning them in batch order (the server may answer out of order
    /// across shards; `seq` correlation restores the order).
    ///
    /// The batch goes out one in-flight window (64 requests) at a time, and
    /// each window's replies are read before the next is written. The
    /// server stops reading a connection whose replies it cannot write, so
    /// a client that wrote a whole large batch before reading could block
    /// in its own write for good.
    // invariant: the loop below exits only once every window's replies
    // arrived with all seqs range-checked and dedup-checked, so every slot
    // is `Some` at collection time.
    #[cfg_attr(not(test), allow(clippy::expect_used))]
    pub fn call_batch(&mut self, batch: &[ServerRequest]) -> io::Result<Vec<ServerResponse>> {
        let mut responses: Vec<Option<ServerResponse>> = batch.iter().map(|_| None).collect();
        let mut frames = Vec::new();
        let mut received = 0usize;
        let mut chunk = [0u8; READ_CHUNK];
        for window in batch.chunks(IN_FLIGHT_WINDOW) {
            frames.clear();
            for (i, op) in window.iter().enumerate() {
                wire::encode_request((received + i) as u64, op, &mut frames);
            }
            self.stream.write_all(&frames)?;
            let sent = received + window.len();
            while received < sent {
                while let Some((_, payload)) = self.buf.next_frame()? {
                    let (seq, response) = wire::decode_response(payload)?;
                    let slot = responses[..sent].get_mut(seq as usize).ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, "response seq out of range")
                    })?;
                    if slot.replace(response).is_some() {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "duplicate response seq",
                        ));
                    }
                    received += 1;
                }
                if received == sent {
                    break;
                }
                let n = self.stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection mid-batch",
                    ));
                }
                self.buf.extend(&chunk[..n]);
            }
        }
        Ok(responses
            .into_iter()
            .map(|response| response.expect("all seqs received"))
            .collect())
    }

    /// Submits a single operation and blocks for its response.
    // invariant: `call_batch` returns exactly one response per operation
    // in a one-element batch.
    #[cfg_attr(not(test), allow(clippy::expect_used))]
    pub fn call(&mut self, op: &ServerRequest) -> io::Result<ServerResponse> {
        let mut responses = self.call_batch(std::slice::from_ref(op))?;
        Ok(responses.pop().expect("one response per operation"))
    }

    /// Fetches a statistics snapshot.
    pub fn stats(&mut self) -> io::Result<StatsSnapshot> {
        match self.call(&ServerRequest::Stats)? {
            ServerResponse::Stats(snapshot) => Ok(*snapshot),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected a stats response, got {other:?}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use cache_sim::{ClientId, HintSetId, PageId};

    fn get_frames(pages: std::ops::Range<u64>) -> Vec<u8> {
        let mut frames = Vec::new();
        for page in pages {
            let op = ServerRequest::Get {
                client: ClientId(0),
                page: PageId(page),
                hint: HintSetId(0),
                prefetch: false,
            };
            wire::encode_request(page, &op, &mut frames);
        }
        frames
    }

    /// Blocks until all `want` bytes a client wrote sit in the server-side
    /// socket, so that the next turn reads them in one go.
    fn await_bytes(event_loop: &EventLoop, idx: usize, want: usize) {
        let Some(Conn {
            stream: Stream::Tcp(socket),
            ..
        }) = &event_loop.conns[idx]
        else {
            panic!("slot {idx} holds no TCP connection");
        };
        let mut buf = vec![0u8; want];
        while !matches!(socket.peek(&mut buf), Ok(n) if n == want) {
            thread::yield_now();
        }
    }

    /// Reads `count` `Get` replies off a client socket.
    fn read_replies(client: &mut TcpStream, count: usize) -> Vec<u64> {
        let mut buf = wire::FrameBuf::new();
        let mut chunk = [0u8; 4096];
        let mut seqs = Vec::new();
        while seqs.len() < count {
            while let Some((_, payload)) = buf.next_frame().unwrap() {
                let (seq, response) = wire::decode_response(payload).unwrap();
                assert_eq!(response.hit(), Some(false));
                seqs.push(seq);
            }
            if seqs.len() < count {
                let n = client.read(&mut chunk).unwrap();
                assert_ne!(n, 0, "the server closed the connection");
                buf.extend(&chunk[..n]);
            }
        }
        seqs
    }

    /// The loop is driven by hand, one [`EventLoop::turn`] at a time: every
    /// turn blocks until its wake-up exists, so the test is ordered by the
    /// wake-ups themselves and a missed one hangs it.
    #[test]
    fn a_parked_connection_resumes_on_its_completions_and_an_idle_one_is_not_visited() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        // One shard: a connection's whole window is one job, one step, and
        // therefore one wake-up.
        let mut event_loop = EventLoop::new(
            Server::start(ServerConfig::new(16).with_shards(1)),
            Some(listener),
            None,
            &NetOptions::default(),
            Arc::new(AtomicBool::new(false)),
            Arc::new(Waker::new().unwrap()),
        )
        .unwrap();
        let mut events = Vec::new();
        let conn = |event_loop: &EventLoop, idx: usize| -> (usize, bool, u32) {
            let conn = event_loop.conns[idx].as_ref().unwrap();
            (conn.in_flight, conn.read_buf.is_empty(), conn.interest)
        };

        // Accepted one per turn, so the slots are 0 (idle), 1 (busy) and 2
        // (parked); a fresh connection is visited once.
        let mut clients = Vec::new();
        for idx in 0..3 {
            clients.push(TcpStream::connect(addr).unwrap());
            event_loop.turn(&mut events).unwrap();
            assert_eq!(event_loop.ready, [idx]);
        }
        let mut parked = clients.pop().unwrap();
        let mut busy = clients.pop().unwrap();
        let _idle = clients.pop().unwrap();

        // 100 frames into a 64-slot window: 64 are submitted, 36 stay
        // buffered, and the connection is no longer read.
        let frames = get_frames(0..100);
        parked.write_all(&frames).unwrap();
        await_bytes(&event_loop, 2, frames.len());
        event_loop.turn(&mut events).unwrap();
        assert_eq!(event_loop.ready, [2]);
        assert_eq!(conn(&event_loop, 2), (IN_FLIGHT_WINDOW, false, 0));

        // Nothing can end the next wait but the worker's wake-up (the
        // parked socket is disarmed, the others are silent). Its 64
        // completions make room, and the same turn decodes the rest.
        event_loop.turn(&mut events).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, TOKEN_WAKER);
        assert_eq!(event_loop.ready, [2]);
        assert_eq!(conn(&event_loop, 2), (36, true, READABLE));
        event_loop.turn(&mut events).unwrap();
        assert_eq!(event_loop.ready, [2]);
        assert_eq!(conn(&event_loop, 2), (0, true, READABLE));
        let mut seqs = read_replies(&mut parked, 100);
        seqs.sort_unstable();
        assert!(seqs.into_iter().eq(0..100));

        // A request on another connection: its socket event, then its
        // completion, each visit that connection alone.
        let frame = get_frames(500..501);
        busy.write_all(&frame).unwrap();
        await_bytes(&event_loop, 1, frame.len());
        event_loop.turn(&mut events).unwrap();
        assert_eq!(event_loop.ready, [1]);
        assert_eq!(conn(&event_loop, 1), (1, true, READABLE));
        event_loop.turn(&mut events).unwrap();
        assert_eq!(event_loop.ready, [1]);
        assert_eq!(read_replies(&mut busy, 1), [500]);

        // Since its accept, no turn visited the idle connection.
        assert_eq!(conn(&event_loop, 0), (0, true, READABLE));
    }

    /// A client that writes and does not read: once its socket refuses
    /// more replies, the loop holds at most a window of them and stops
    /// reading; once the client reads, every request is answered. Driven
    /// by hand like the test above, over a Unix-domain socket, whose fixed
    /// buffer fills after a few hundred replies.
    #[test]
    fn a_client_that_does_not_read_is_parked_at_a_window_of_unsent_replies() {
        let path =
            std::env::temp_dir().join(format!("clic-net-unsent-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut event_loop = EventLoop::new(
            Server::start(ServerConfig::new(16).with_shards(1)),
            None,
            Some(listener),
            &NetOptions::default(),
            Arc::new(AtomicBool::new(false)),
            Arc::new(Waker::new().unwrap()),
        )
        .unwrap();
        let mut events = Vec::new();
        let mut client = UnixStream::connect(&path).unwrap();
        event_loop.turn(&mut events).unwrap();
        assert_eq!(event_loop.ready, [0]);

        // Stats are answered inline, so no worker is involved: keep writing
        // them until the loop parks the connection.
        let mut sent = 0u64;
        let mut frames = Vec::new();
        while event_loop.conns[0].as_ref().unwrap().interest & READABLE != 0 {
            assert!(sent < 100_000, "the loop never parked the connection");
            frames.clear();
            for seq in sent..sent + 256 {
                wire::encode_request(seq, &ServerRequest::Stats, &mut frames);
            }
            client.write_all(&frames).unwrap();
            sent += 256;
            event_loop.turn(&mut events).unwrap();
        }
        let mut reply = Vec::new();
        let snapshot = StatsSnapshot {
            result: event_loop.server.stats(),
            metrics: event_loop.server.metrics(),
        };
        wire::encode_response(0, &ServerResponse::Stats(Box::new(snapshot)), &mut reply);
        let conn = event_loop.conns[0].as_ref().unwrap();
        assert_eq!(
            (conn.in_flight, conn.interest),
            (IN_FLIGHT_WINDOW, WRITABLE)
        );
        assert!(conn.write_buf.len() - conn.write_at <= IN_FLIGHT_WINDOW * reply.len());

        // Reading makes the socket writable; each turn then writes, frees
        // the window and decodes what it had left buffered.
        client.set_nonblocking(true).unwrap();
        let mut buf = wire::FrameBuf::new();
        let mut chunk = [0u8; 4096];
        let mut answered = 0u64;
        while answered < sent {
            loop {
                match client.read(&mut chunk) {
                    Ok(n) if n > 0 => buf.extend(&chunk[..n]),
                    Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                    other => panic!("the server closed the connection: {other:?}"),
                }
            }
            while let Some((_, payload)) = buf.next_frame().unwrap() {
                let (seq, response) = wire::decode_response(payload).unwrap();
                assert!(response.stats().is_some());
                assert_eq!(seq, answered);
                answered += 1;
            }
            if answered < sent {
                event_loop.turn(&mut events).unwrap();
            }
        }
        assert_eq!(event_loop.conns[0].as_ref().unwrap().in_flight, 0);
        let _ = std::fs::remove_file(&path);
    }
}
