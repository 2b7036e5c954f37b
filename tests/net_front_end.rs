//! Integration tests for the event-driven network front-end: the wire
//! path must be a *transparent* transport over the in-process server.
//!
//! * The loopback equivalence anchor: one TCP connection into a 1-shard
//!   server produces statistics **bit-identical** to the in-process
//!   [`run_load`] harness over the same trace with the same batching.
//! * Deletes travel over the wire and actually remove bytes from a
//!   store-backed server (a re-read misses and reads zeroes).
//! * The open-loop generator completes against a live front-end and
//!   reports non-empty percentiles.
//! * Malformed frames (garbage opcode, oversized length prefix) kill only
//!   the offending connection; the server keeps serving new ones.
//! * The event loop has no tick to fall back on: sequential depth-1 calls
//!   (each one wake-up per shard step) and the shutdown of an idle server
//!   complete only if every wake-up is delivered.

use clic::prelude::*;
use clic::server::wire;
use std::io::{Read, Write};
use std::net::TcpStream;

/// A deterministic mixed read/write trace over a small page universe.
fn small_trace(requests: u64, pages: u64) -> Trace {
    let mut b = TraceBuilder::new();
    let client = b.add_client("wire", &[("kind", 1)]);
    let hints: Vec<_> = (0..4).map(|h| b.intern_hints(client, &[h])).collect();
    for i in 0..requests {
        let page = (i * 7919) % pages; // co-prime stride re-references pages
        let hint = hints[(page % 4) as usize];
        if i % 5 == 0 {
            b.push(client, page, AccessKind::Write, None, hint);
        } else {
            b.push(client, page, AccessKind::Read, None, hint);
        }
    }
    b.build()
}

/// Acceptance anchor: statistics over one TCP connection into a 1-shard
/// server are bit-identical to the in-process `run_load` path.
#[test]
fn loopback_tcp_stats_match_run_load_bit_for_bit() {
    let trace = small_trace(4_000, 600);
    let capacity = 256;
    let batch = 64;
    let server_config = || ServerConfig::new(capacity).with_shards(1);

    // In-process reference.
    let in_process = run_load(
        &LoadConfig::new(server_config()).with_batch(batch),
        std::slice::from_ref(&trace),
    );

    // The same trace, same batching, over the wire.
    let net = NetServer::start(Server::start(server_config()), NetOptions::default())
        .expect("front-end starts");
    let addr = net.tcp_addr().expect("tcp enabled");
    let mut client = BlockingClient::connect_tcp(addr).expect("connect");
    let mut client_hits = 0u64;
    for chunk in trace.requests.chunks(batch) {
        let batch: Vec<ServerRequest> = chunk.iter().map(ServerRequest::from_request).collect();
        for response in client.call_batch(&batch).expect("batch served") {
            if response.hit() == Some(true) {
                client_hits += 1;
            }
        }
    }
    // The client-observed hit count must agree with the server's account.
    let snapshot = client.stats().expect("stats over the wire");
    assert_eq!(
        snapshot.result.stats.read_hits + snapshot.result.stats.write_hits,
        client_hits
    );
    drop(client);
    let over_wire = net.shutdown().expect("clean shutdown");

    assert_eq!(over_wire, in_process.result);
}

/// Deletes over the wire remove the page from cache *and* disk.
#[test]
fn wire_deletes_remove_pages_from_a_store_backed_server() {
    let dir = tempdir();
    let config = ServerConfig::new(64)
        .with_shards(1)
        .with_store(StoreConfig::new(&dir, 64).with_durability(Durability::Buffered));
    let net =
        NetServer::start(Server::start(config), NetOptions::default()).expect("front-end starts");
    let mut client = BlockingClient::connect_tcp(net.tcp_addr().unwrap()).expect("connect");

    let page = PageId(9);
    let hint = HintSetId(0);
    let payload = page_payload(page, DEFAULT_PAGE_SIZE);
    let put = ServerRequest::Put {
        client: ClientId(0),
        page,
        hint,
        write_hint: None,
        data: Some(payload.clone()),
    };
    let get = ServerRequest::Get {
        client: ClientId(0),
        page,
        hint,
        prefetch: false,
    };
    client.call(&put).expect("put");
    let read = client.call(&get).expect("get");
    assert_eq!(read.hit(), Some(true));
    assert_eq!(read.data(), Some(&payload[..]));

    // The store's always-on counters ride along in the wire `Stats` reply.
    let stats = client.stats().expect("stats");
    assert!(
        stats.metrics.counter("store.bytes_written") > 0,
        "the metrics snapshot did not ride along the wire"
    );

    let deleted = client
        .call(&ServerRequest::Delete { page })
        .expect("delete");
    assert_eq!(deleted.existed(), Some(true));
    let gone = client
        .call(&ServerRequest::Delete { page })
        .expect("second delete");
    assert_eq!(gone.existed(), Some(false));

    // The page is gone everywhere: a re-read misses and reads zeroes.
    let reread = client.call(&get).expect("get after delete");
    assert_eq!(reread.hit(), Some(false));
    assert_eq!(reread.data(), Some(&vec![0u8; DEFAULT_PAGE_SIZE][..]));

    drop(client);
    net.shutdown().expect("clean shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

/// The open-loop generator drives a live front-end to completion and
/// measures non-empty latency percentiles.
#[test]
fn open_loop_generator_completes_and_measures_latency() {
    let config = ServerConfig::new(512).with_shards(2);
    let net =
        NetServer::start(Server::start(config), NetOptions::default()).expect("front-end starts");
    let report = run_open_loop(
        net.tcp_addr().unwrap(),
        &OpenLoopConfig {
            rate: 50_000.0,
            requests: 5_000,
            pages: 2_000,
            ..OpenLoopConfig::default()
        },
    )
    .expect("open-loop run");
    assert_eq!(report.sent, 5_000);
    assert_eq!(report.completed, 5_000);
    assert_eq!(report.latency.count(), 5_000);
    assert!(report.latency.p99() >= report.latency.p50());
    assert!(report.achieved_rps > 0.0);
    let result = net.shutdown().expect("clean shutdown");
    assert_eq!(result.stats.requests(), 5_000);
}

/// A garbage opcode closes only the offending connection; an oversized
/// length prefix is rejected before any buffering; fresh connections keep
/// working afterwards.
#[test]
fn malformed_frames_kill_the_connection_not_the_server() {
    let net = NetServer::start(
        Server::start(ServerConfig::new(64).with_shards(1)),
        NetOptions::default(),
    )
    .expect("front-end starts");
    let addr = net.tcp_addr().unwrap();

    // Garbage opcode inside a well-formed frame.
    let mut bad = TcpStream::connect(addr).expect("connect");
    let mut frame = 9u32.to_le_bytes().to_vec();
    frame.push(0x7f); // no such opcode
    frame.extend_from_slice(&0u64.to_le_bytes());
    bad.write_all(&frame).expect("write");
    let mut sink = Vec::new();
    let n = bad.read_to_end(&mut sink).unwrap_or(0);
    assert_eq!(n, 0, "the server must close without responding");

    // Oversized length prefix: closed without waiting for the body.
    let mut oversized = TcpStream::connect(addr).expect("connect");
    oversized
        .write_all(&(64u32 << 20).to_le_bytes())
        .expect("write");
    let n = oversized.read_to_end(&mut sink).unwrap_or(0);
    assert_eq!(n, 0, "oversized frames must be rejected eagerly");

    // A truncated frame abandoned mid-body must not wedge the loop.
    let mut truncated = TcpStream::connect(addr).expect("connect");
    truncated.write_all(&frame[..7]).expect("write");
    drop(truncated);

    // The server is still healthy for well-behaved clients.
    let mut good = BlockingClient::connect_tcp(addr).expect("connect");
    let response = good
        .call(&ServerRequest::Get {
            client: ClientId(0),
            page: PageId(1),
            hint: HintSetId(0),
            prefetch: false,
        })
        .expect("request after the bad peers");
    assert_eq!(response.hit(), Some(false));
    drop(good);
    let result = net.shutdown().expect("clean shutdown");
    assert_eq!(result.stats.requests(), 1, "only the good request counted");
}

/// Unix-domain connections speak the same protocol.
#[cfg(unix)]
#[test]
fn unix_domain_socket_round_trips() {
    let path = std::env::temp_dir().join(format!("clic-net-uds-{}.sock", std::process::id()));
    let net = NetServer::start(
        Server::start(ServerConfig::new(64).with_shards(1)),
        NetOptions {
            uds: Some(path.clone()),
            ..NetOptions::default()
        },
    )
    .expect("front-end starts");
    let mut client = BlockingClient::connect_uds(&path).expect("connect over uds");
    let put = ServerRequest::Put {
        client: ClientId(1),
        page: PageId(3),
        hint: HintSetId(0),
        write_hint: Some(WriteHint::Replacement),
        data: None,
    };
    let get = ServerRequest::Get {
        client: ClientId(1),
        page: PageId(3),
        hint: HintSetId(0),
        prefetch: false,
    };
    let responses = client.call_batch(&[put, get]).expect("batch over uds");
    assert_eq!(responses[1].hit(), Some(true));
    drop(client);
    net.shutdown().expect("clean shutdown");
    assert!(!path.exists(), "the socket file is removed on shutdown");
}

/// 2 000 strictly sequential round trips against a store-backed 2-shard
/// server: the loop sleeps untimed between a request's socket event and its
/// completion's wake-up, so one lost wake-up hangs this test rather than
/// costing it a tick.
#[test]
fn sequential_calls_complete_without_a_tick() {
    let dir = tempdir();
    let config = ServerConfig::new(32)
        .with_shards(2)
        .with_store(StoreConfig::new(&dir, 32).with_durability(Durability::Buffered));
    let net =
        NetServer::start(Server::start(config), NetOptions::default()).expect("front-end starts");
    let mut client = BlockingClient::connect_tcp(net.tcp_addr().unwrap()).expect("connect");
    let pages = 100u64; // more than the cache: misses read the disk
    for i in 0..2_000u64 {
        let page = PageId(i % pages);
        let op = if i < pages {
            ServerRequest::Put {
                client: ClientId(0),
                page,
                hint: HintSetId(0),
                write_hint: None,
                data: Some(page_payload(page, DEFAULT_PAGE_SIZE)),
            }
        } else {
            ServerRequest::Get {
                client: ClientId(0),
                page,
                hint: HintSetId(0),
                prefetch: false,
            }
        };
        let response = client.call(&op).expect("round trip");
        if i >= pages {
            assert_eq!(
                response.data(),
                Some(&page_payload(page, DEFAULT_PAGE_SIZE)[..])
            );
        }
    }
    drop(client);
    let result = net.shutdown().expect("clean shutdown");
    assert_eq!(result.stats.requests(), 2_000);
    std::fs::remove_dir_all(&dir).ok();
}

/// An idle server's loop sleeps in an untimed `epoll_wait`; `shutdown`
/// returns only because it wakes it.
#[test]
fn an_idle_server_shuts_down() {
    let net = NetServer::start(
        Server::start(ServerConfig::new(64).with_shards(2)),
        NetOptions::default(),
    )
    .expect("front-end starts");
    let result = net.shutdown().expect("clean shutdown");
    assert_eq!(result.stats.requests(), 0);
}

/// Frames assembled by hand must decode to the documented layout — the
/// byte offsets in the crate docs are load-bearing for foreign clients.
#[test]
fn frame_layout_matches_the_documented_offsets() {
    let mut out = Vec::new();
    wire::encode_request(
        0x0102_0304_0506_0708,
        &ServerRequest::Delete { page: PageId(0xab) },
        &mut out,
    );
    // [len=17][opcode=0x03][seq LE][page LE]
    assert_eq!(out.len(), 4 + 9 + 8);
    assert_eq!(u32::from_le_bytes(out[..4].try_into().unwrap()), 17);
    assert_eq!(out[4], 0x03);
    assert_eq!(
        u64::from_le_bytes(out[5..13].try_into().unwrap()),
        0x0102_0304_0506_0708
    );
    assert_eq!(u64::from_le_bytes(out[13..21].try_into().unwrap()), 0xab);
}

fn tempdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "clic-net-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}
