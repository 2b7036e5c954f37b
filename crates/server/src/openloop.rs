//! Open-loop Poisson load generation against a network front-end.
//!
//! The closed-loop harness in [`crate::harness`] measures *service
//! capacity*: each client thread waits for its batch before sending the
//! next, so the offered load adapts to whatever the server sustains. That
//! regime can never observe queueing delay — the very thing a latency
//! curve is about. This module drives the opposite regime: an **open
//! loop**, where request *arrival times* come from a seeded Poisson
//! process fixed before the run starts, independent of how the server is
//! doing.
//!
//! Two properties matter for honest percentiles:
//!
//! * **Deterministic schedules.** The arrival offsets and the operation
//!   mix are both drawn from a seeded [`rand::rngs::StdRng`] before the
//!   first byte is sent, so two runs at the same rate and count offer
//!   the identical workload and differ only in what the server
//!   makes of it.
//! * **No coordinated omission.** Latency is measured from each request's
//!   *scheduled* send time, not the instant it actually left the socket
//!   ([`clic_obs::LatencyHistogram::record_scheduled`]). When the server
//!   (or the TCP window, which is the server's back-pressure reaching the
//!   generator) stalls the writer, the requests queued behind the stall
//!   are charged the stall too — exactly what a client arriving at the
//!   scheduled moment would have experienced. A generator that timestamps
//!   at actual send silently erases every queueing episode from its tail.
//!
//! The generator splits one TCP connection into a paced writer thread and
//! a decoding reader; `seq` numbers index the schedule, so responses may
//! complete out of order without confusing attribution.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use cache_sim::{ClientId, HintSetId, PageId};
use clic_obs::LatencyHistogram;
use clic_store::page_payload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::harness::LatencySummary;
use crate::protocol::ServerRequest;
use crate::wire;

/// An open-loop run: how fast, how much, and what shape of traffic.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Offered load in requests per second (the Poisson arrival rate).
    pub rate: f64,
    /// Total requests to schedule.
    pub requests: u64,
    /// Page universe: pages are drawn uniformly from `0..pages`.
    pub pages: u64,
    /// `Some(page_size)` attaches deterministic page payloads to writes
    /// (for store-backed servers); `None` sends policy-only writes.
    pub payload: Option<usize>,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            rate: 10_000.0,
            requests: 10_000,
            pages: 1 << 16,
            payload: None,
        }
    }
}

/// Seed for both the arrival schedule and the operation mix.
const SEED: u64 = 42;
/// Distinct clients requests are attributed to, drawn uniformly.
const CLIENTS: u16 = 4;
/// Distinct hint sets; each page's hint is `page % HINT_SETS`, so a page
/// keeps a stable hint across the run (hints describe pages).
const HINT_SETS: u64 = 16;
/// Fraction of requests that are writes.
const WRITE_FRACTION: f64 = 0.25;

/// What an open-loop run measured.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// The configured Poisson arrival rate (requests/s).
    pub offered_rps: f64,
    /// Completions divided by wall-clock time (requests/s). Tracking
    /// `offered_rps` means the server kept up; falling below it means the
    /// offered load exceeded capacity and latency is mostly queueing.
    pub achieved_rps: f64,
    /// Requests written to the socket (falls short of the schedule when
    /// the connection died mid-run; the report then covers the partial
    /// run instead of being discarded).
    pub sent: u64,
    /// Successful responses received and decoded. Only these are recorded
    /// into the latency histogram.
    pub completed: u64,
    /// Error responses (`Io`, `Corrupt`, `Shutdown`, `Internal`): the
    /// server failed the operation.
    pub errored: u64,
    /// Wall-clock duration from first scheduled send to last response.
    pub elapsed: Duration,
    /// Coordinated-omission-safe latency percentiles, measured from each
    /// request's *scheduled* send time (microseconds).
    pub latency: LatencySummary,
}

/// Draws the Poisson arrival schedule: `requests` offsets in nanoseconds
/// from run start, strictly non-decreasing, with exponential
/// inter-arrival times of mean `1/rate`.
fn poisson_schedule(rate: f64, requests: u64, rng: &mut StdRng) -> Vec<u64> {
    assert!(rate > 0.0, "offered rate must be positive");
    let mut schedule = Vec::with_capacity(requests as usize);
    let mut at_ns = 0.0f64;
    for _ in 0..requests {
        // Inverse-CDF sampling; 1 - u avoids ln(0).
        let u: f64 = rng.gen();
        at_ns += -(1.0 - u).ln() / rate * 1e9;
        schedule.push(at_ns as u64);
    }
    schedule
}

/// Draws the operation mix for one run.
fn operations(config: &OpenLoopConfig, rng: &mut StdRng) -> Vec<ServerRequest> {
    (0..config.requests)
        .map(|_| {
            let page = PageId(rng.gen_range(0..config.pages.max(1)));
            let client = ClientId(rng.gen_range(0..CLIENTS));
            let hint = HintSetId((page.0 % HINT_SETS) as u32);
            if rng.gen_bool(WRITE_FRACTION) {
                ServerRequest::Put {
                    client,
                    page,
                    hint,
                    write_hint: None,
                    data: config.payload.map(|size| page_payload(page, size)),
                }
            } else {
                ServerRequest::Get {
                    client,
                    page,
                    hint,
                    prefetch: false,
                }
            }
        })
        .collect()
}

/// Runs one open-loop experiment against the TCP front-end at `addr` and
/// returns the coordinated-omission-safe latency report.
///
/// The writer thread paces requests to the precomputed schedule (sleeping
/// until each scheduled instant, writing immediately when behind); the
/// calling thread decodes responses and records `completed - scheduled`
/// for each. The connection's write half is shut down after the last
/// request so the server observes EOF, finishes the in-flight tail, and
/// tears the connection down cleanly.
///
/// The generator degrades rather than aborts under faults: error
/// responses are tallied into [`OpenLoopReport::errored`] without
/// polluting the latency histogram, and a connection that dies mid-run
/// (reset, injected fault, early server close) yields a *partial* report
/// — `sent`/`completed` record how far the run got. `Err` is reserved for failing to connect at all.
pub fn run_open_loop(addr: SocketAddr, config: &OpenLoopConfig) -> io::Result<OpenLoopReport> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let schedule = Arc::new(poisson_schedule(config.rate, config.requests, &mut rng));
    let ops = operations(config, &mut rng);
    let total = ops.len() as u64;

    let mut reader = TcpStream::connect(addr)?;
    reader.set_nodelay(true)?;
    let mut writer = reader.try_clone()?;
    let start = Instant::now();

    let writer_schedule = Arc::clone(&schedule);
    let writer_thread = thread::spawn(move || -> u64 {
        let mut frame = Vec::new();
        let mut sent = 0u64;
        for (i, op) in ops.iter().enumerate() {
            let scheduled = Duration::from_nanos(writer_schedule[i]);
            let now = start.elapsed();
            if now < scheduled {
                thread::sleep(scheduled - now);
            }
            frame.clear();
            wire::encode_request(i as u64, op, &mut frame);
            // A dead socket (reset mid-run) ends the schedule early; the
            // run is reported as partial rather than thrown away.
            if writer.write_all(&frame).is_err() {
                break;
            }
            sent += 1;
        }
        let _ = writer.shutdown(Shutdown::Write);
        sent
    });

    let histogram = LatencyHistogram::new();
    let mut buf = wire::FrameBuf::new();
    let mut chunk = [0u8; 64 * 1024];
    let mut completed = 0u64;
    let mut errored = 0u64;
    'recv: while completed + errored < total {
        loop {
            let payload = match buf.next_frame() {
                Ok(Some((_, payload))) => payload,
                Ok(None) => break,
                // Framing desynchronized (e.g. the connection died inside
                // a frame): nothing further is decodable.
                Err(_) => break 'recv,
            };
            let Ok((seq, response)) = wire::decode_response(payload) else {
                break 'recv;
            };
            let Some(&scheduled_ns) = schedule.get(seq as usize) else {
                break 'recv; // corrupt seq; stop attributing latencies
            };
            if response.error_code().is_some() {
                errored += 1;
            } else {
                let scheduled_us = scheduled_ns / 1_000;
                let now_us = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                histogram.record_scheduled(scheduled_us, now_us);
                completed += 1;
            }
        }
        if completed + errored == total {
            break;
        }
        match reader.read(&mut chunk) {
            Ok(0) => break, // server closed early; report the partial run
            Ok(n) => buf.extend(&chunk[..n]),
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break, // reset mid-run; report the partial run
        }
    }
    let elapsed = start.elapsed();
    let sent = writer_thread
        .join()
        .map_err(|_| io::Error::other("open-loop writer panicked"))?;

    Ok(OpenLoopReport {
        offered_rps: config.rate,
        achieved_rps: completed as f64 / elapsed.as_secs_f64().max(f64::EPSILON),
        sent,
        completed,
        errored,
        elapsed,
        latency: LatencySummary::from_histogram(&histogram.snapshot()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_match_the_rate() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let sa = poisson_schedule(50_000.0, 20_000, &mut a);
        let sb = poisson_schedule(50_000.0, 20_000, &mut b);
        assert_eq!(sa, sb);
        assert!(
            sa.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be sorted"
        );
        // 20k arrivals at 50k/s should span ~0.4 s; allow generous slack
        // (the variance of a Poisson horizon is small at this n).
        let horizon_s = *sa.last().unwrap() as f64 / 1e9;
        assert!(
            (0.3..0.5).contains(&horizon_s),
            "horizon {horizon_s} s is off the expected ~0.4 s"
        );
    }

    #[test]
    fn operation_mix_is_deterministic_and_respects_bounds() {
        let config = OpenLoopConfig {
            requests: 5_000,
            pages: 100,
            ..OpenLoopConfig::default()
        };
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let ops_a = operations(&config, &mut a);
        let ops_b = operations(&config, &mut b);
        assert_eq!(ops_a, ops_b);
        let writes = ops_a
            .iter()
            .filter(|op| matches!(op, ServerRequest::Put { .. }))
            .count();
        // A quarter of 5 000 is 1 250; the band is about eight deviations.
        assert!((1_000..1_500).contains(&writes), "writes {writes}");
        for op in &ops_a {
            let req = op.to_request().expect("only data ops are generated");
            assert!(req.page.0 < 100);
            assert!(req.client.0 < CLIENTS);
            assert_eq!(u64::from(req.hint.0), req.page.0 % HINT_SETS);
        }
    }
}
