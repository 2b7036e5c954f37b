//! The benchmark's own network clients: a single-threaded pipelined
//! closed-loop client and an open-loop Poisson probe, over the public
//! `clic_server::wire` codec.
//!
//! Both receive through [`RecvBuf`], which advances a cursor per frame and
//! moves bytes only when the buffer is empty or half consumed, and both
//! send every `Put` from one payload buffer restamped per page — so the
//! measuring tool costs the same per request whatever the backlog, and its
//! memory does not grow with the request count.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use cache_sim::{PageId, Request};
use clic_server::{wire, ServerRequest, ServerResponse, StatsSnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{stamp_payload, PAGE_SIZE};

/// `seq` of the one `Stats` request a drained [`Pipeline`] may have in
/// flight; data requests use their slot index.
const STATS_SEQ: u64 = u64::MAX;

/// A cursor-based receive buffer.
pub struct RecvBuf {
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl RecvBuf {
    pub fn new() -> RecvBuf {
        RecvBuf {
            buf: vec![0; 512 * 1024],
            head: 0,
            tail: 0,
        }
    }

    /// Reads once from `stream` into the free tail; end of stream is an
    /// error, since every caller still expects replies.
    pub fn fill(&mut self, stream: &mut impl Read) -> io::Result<()> {
        if self.head == self.tail {
            self.head = 0;
            self.tail = 0;
        } else if self.head >= self.buf.len() / 2 {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
        }
        if self.tail == self.buf.len() {
            // One frame larger than the whole buffer (a big stats reply).
            self.buf.resize(self.buf.len() * 2, 0);
        }
        match stream.read(&mut self.buf[self.tail..])? {
            0 => Err(io::ErrorKind::UnexpectedEof.into()),
            n => {
                self.tail += n;
                Ok(())
            }
        }
    }

    /// The next complete frame's payload (opcode onward), if buffered.
    pub fn next_frame(&mut self) -> io::Result<Option<&[u8]>> {
        let Some((consumed, _)) = wire::take_frame(&self.buf[self.head..self.tail])? else {
            return Ok(None);
        };
        let start = self.head + 4;
        self.head += consumed;
        Ok(Some(&self.buf[start..self.head]))
    }
}

/// A reusable `Put` whose payload buffer is restamped per page.
struct PutTemplate(ServerRequest);

impl PutTemplate {
    fn new() -> PutTemplate {
        PutTemplate(ServerRequest::Put {
            client: cache_sim::ClientId(0),
            page: PageId(0),
            hint: cache_sim::HintSetId(0),
            write_hint: None,
            data: Some(vec![0; PAGE_SIZE]),
        })
    }

    /// Appends the frame for `req` under `seq` to `out`.
    fn encode(&mut self, seq: u64, req: &Request, out: &mut Vec<u8>) {
        if req.is_read() {
            wire::encode_request(seq, &ServerRequest::from_request(req), out);
            return;
        }
        if let ServerRequest::Put {
            client,
            page,
            hint,
            write_hint,
            data: Some(data),
        } = &mut self.0
        {
            (*client, *page, *hint, *write_hint) = (req.client, req.page, req.hint, req.write_hint);
            stamp_payload(req.page, data);
        }
        wire::encode_request(seq, &self.0, out);
    }
}

/// `true` when `response` is the right kind of reply for a read or write of
/// `page` and a `Get` carries exactly the page's payload. `scratch` is the
/// reused expected-payload buffer.
fn reply_ok(is_read: bool, page: PageId, response: &ServerResponse, scratch: &mut [u8]) -> bool {
    match (is_read, response) {
        (
            true,
            ServerResponse::Get {
                data: Some(data), ..
            },
        ) => {
            stamp_payload(page, scratch);
            data.as_slice() == scratch
        }
        (false, ServerResponse::Put { .. }) => true,
        _ => false,
    }
}

/// What one [`Pipeline::drive`] call observed.
#[derive(Default)]
pub struct Driven {
    /// Send-to-reply latencies of reads and writes, nanoseconds.
    pub read_ns: Vec<u32>,
    pub write_ns: Vec<u32>,
    /// Replies per round, and when each full round ended, from the start.
    pub round: usize,
    pub round_ends: Vec<Duration>,
    /// Error, `Busy`, wrong-kind or wrong-payload replies.
    pub failed: u64,
    pub read_hits: u64,
}

impl Driven {
    /// Requests per second of each round.
    pub fn round_rps(&self) -> Vec<f64> {
        let mut from = Duration::ZERO;
        self.round_ends
            .iter()
            .map(|&end| {
                let rps = self.round as f64 / (end - from).as_secs_f64();
                from = end;
                rps
            })
            .collect()
    }
}

struct Slot {
    page: PageId,
    is_read: bool,
}

/// The closed-loop client: one thread, one connection, `depth` requests per
/// round trip. A window of `depth` slots holds what is outstanding (`seq` is
/// the slot, since the two shards answer out of order) and is refilled when
/// it has drained — the network form of the blocking `Server::submit` batch
/// loop that `server_mix` and `run_load` drive in-process. Refilling a slot
/// the moment its reply arrives was tried and is not used; the README's
/// client section says why.
pub struct Pipeline<S> {
    stream: S,
    slots: Vec<Option<Slot>>,
    out: Vec<u8>,
    recv: RecvBuf,
    put: PutTemplate,
    scratch: Vec<u8>,
}

impl<S: Read + Write> Pipeline<S> {
    pub fn new(stream: S, depth: usize) -> Pipeline<S> {
        Pipeline {
            stream,
            slots: (0..depth).map(|_| None).collect(),
            out: Vec::new(),
            recv: RecvBuf::new(),
            put: PutTemplate::new(),
            scratch: vec![0; PAGE_SIZE],
        }
    }

    /// Sends `count` requests taken cyclically from `stream` starting at
    /// `start`, a window at a time, waits for every reply, and verifies
    /// each. A round is `round` replies; rounds are timed back to back.
    pub fn drive(
        &mut self,
        stream: &[Request],
        start: usize,
        count: usize,
        round: usize,
        deadline: Instant,
    ) -> io::Result<Driven> {
        let mut driven = Driven {
            round,
            ..Driven::default()
        };
        let (mut next, mut done) = (0usize, 0usize);
        let started = Instant::now();
        while done < count {
            self.out.clear();
            let sent = Instant::now();
            let mut outstanding = 0;
            for (seq, slot) in self.slots.iter_mut().enumerate().take(count - next) {
                let req = &stream[(start + next) % stream.len()];
                self.put.encode(seq as u64, req, &mut self.out);
                *slot = Some(Slot {
                    page: req.page,
                    is_read: req.is_read(),
                });
                next += 1;
                outstanding += 1;
            }
            self.stream.write_all(&self.out)?;
            while outstanding > 0 {
                let Some(frame) = self.recv.next_frame()? else {
                    self.recv.fill(&mut self.stream)?;
                    continue;
                };
                let (seq, response) = wire::decode_response(frame)?;
                let now = Instant::now();
                let slot = usize::try_from(seq)
                    .ok()
                    .and_then(|i| self.slots.get_mut(i)?.take())
                    .ok_or_else(|| io::Error::other(format!("reply for idle seq {seq}")))?;
                let ns = u32::try_from((now - sent).as_nanos()).unwrap_or(u32::MAX);
                if slot.is_read {
                    driven.read_ns.push(ns);
                    driven.read_hits += u64::from(response.hit() == Some(true));
                } else {
                    driven.write_ns.push(ns);
                }
                if !reply_ok(slot.is_read, slot.page, &response, &mut self.scratch) {
                    driven.failed += 1;
                }
                outstanding -= 1;
                done += 1;
                if done % round == 0 {
                    driven.round_ends.push(now - started);
                }
                if now > deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("closed loop passed its deadline after {done} of {count} replies"),
                    ));
                }
            }
        }
        Ok(driven)
    }

    /// Fetches a statistics snapshot; the window must be drained.
    pub fn stats(&mut self) -> io::Result<StatsSnapshot> {
        self.out.clear();
        wire::encode_request(STATS_SEQ, &ServerRequest::Stats, &mut self.out);
        self.stream.write_all(&self.out)?;
        loop {
            if let Some(frame) = self.recv.next_frame()? {
                return match wire::decode_response(frame)? {
                    (STATS_SEQ, ServerResponse::Stats(snapshot)) => Ok(*snapshot),
                    (seq, other) => Err(io::Error::other(format!(
                        "expected the stats reply, got seq {seq}: {other:?}"
                    ))),
                };
            }
            self.recv.fill(&mut self.stream)?;
        }
    }
}

/// What the open-loop probe measured.
pub struct OpenLoop {
    /// Scheduled-send-to-reply latencies, nanoseconds.
    pub latency_ns: Vec<u32>,
    /// How late each request left the generator, nanoseconds.
    pub lag_ns: Vec<u32>,
    pub scheduled: u64,
    pub failed: u64,
    pub elapsed: Duration,
    /// The hard deadline cut the run short.
    pub timed_out: bool,
}

/// Offers `requests` of `stream` at Poisson arrivals of `rate` per second
/// over one TCP connection: a paced writer thread and this thread reading.
/// Latency counts from each request's *scheduled* send time, so a stalled
/// front-end is charged for the requests queued behind the stall. When
/// `deadline` passes the socket is shut down and the partial run returned.
pub fn open_loop(
    addr: SocketAddr,
    stream: &[Request],
    requests: usize,
    rate: f64,
    seed: u64,
    deadline: Instant,
) -> io::Result<OpenLoop> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at = 0.0f64;
    let schedule: Vec<Duration> = (0..requests)
        .map(|_| {
            let u: f64 = rng.gen();
            at += -(1.0 - u).ln() / rate;
            Duration::from_secs_f64(at)
        })
        .collect();
    let mut reader = TcpStream::connect(addr)?;
    reader.set_nodelay(true)?;
    reader.set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut writer = reader.try_clone()?;
    let started = Instant::now();
    std::thread::scope(|scope| {
        let schedule = &schedule;
        let pacer = scope.spawn(move || {
            let mut put = PutTemplate::new();
            let mut frame = Vec::new();
            let mut lag_ns = Vec::with_capacity(requests);
            for (i, due) in schedule.iter().enumerate() {
                if let Some(wait) = due.checked_sub(started.elapsed()) {
                    std::thread::sleep(wait);
                }
                let late = started.elapsed().saturating_sub(*due);
                frame.clear();
                put.encode(i as u64, &stream[i % stream.len()], &mut frame);
                if writer.write_all(&frame).is_err() {
                    break; // the reader shut the socket down at the deadline
                }
                lag_ns.push(u32::try_from(late.as_nanos()).unwrap_or(u32::MAX));
            }
            lag_ns
        });
        let mut read_replies = || -> io::Result<(Vec<u32>, u64, bool)> {
            let mut recv = RecvBuf::new();
            let mut scratch = vec![0; PAGE_SIZE];
            let mut latency_ns = Vec::with_capacity(requests);
            let mut failed = 0u64;
            while latency_ns.len() < requests {
                while let Some(frame) = recv.next_frame()? {
                    let (seq, response) = wire::decode_response(frame)?;
                    let due = schedule
                        .get(seq as usize)
                        .ok_or_else(|| io::Error::other(format!("reply for unknown seq {seq}")))?;
                    let req = &stream[seq as usize % stream.len()];
                    if !reply_ok(req.is_read(), req.page, &response, &mut scratch) {
                        failed += 1;
                    }
                    let ns = started.elapsed().saturating_sub(*due).as_nanos();
                    latency_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
                }
                if Instant::now() > deadline {
                    return Ok((latency_ns, failed, true));
                }
                match recv.fill(&mut reader) {
                    // The 50 ms read timeout only paces the deadline check.
                    Err(err)
                        if matches!(
                            err.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) => {}
                    other => other?,
                }
            }
            Ok((latency_ns, failed, false))
        };
        let replies = read_replies();
        let elapsed = started.elapsed();
        // Unblocks a pacer still writing into a stalled server.
        let _ = reader.shutdown(Shutdown::Both);
        let lag_ns = pacer
            .join()
            .map_err(|_| io::Error::other("open-loop pacer panicked"))?;
        let (latency_ns, failed, timed_out) = replies?;
        Ok(OpenLoop {
            latency_ns,
            lag_ns,
            scheduled: requests as u64,
            failed,
            elapsed,
            timed_out,
        })
    })
}
