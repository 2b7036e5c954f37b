//! Domain scenario: CLIC as a networked storage service — the on-the-wire
//! counterpart of `storage_server`.
//!
//! A store-backed sharded server goes up behind the event-driven TCP
//! front-end, and everything below happens over real sockets on localhost:
//!
//! 1. A blocking client pipelines a batch of `Put`s with page payloads,
//!    reads one back byte-for-byte, deletes it, and watches the re-read
//!    miss — the full opcode set over one connection.
//! 2. A `Stats` probe pulls the complete [`StatsSnapshot`] (simulation
//!    result + metrics registry) through the binary codec.
//! 3. An open-loop Poisson generator offers a fixed arrival rate for half
//!    a second and reports latency percentiles measured from each
//!    request's *scheduled* send time, so queueing delay is charged to the
//!    server rather than silently absorbed (no coordinated omission).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example network_server
//! ```

use clic::prelude::*;

const PAGE_SIZE: usize = 512;

fn main() -> std::io::Result<()> {
    let dir = std::env::temp_dir().join(format!("clic-example-net-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let cache_pages = 1_024;
    let config = ServerConfig::new(cache_pages)
        .with_shards(2)
        .with_store(StoreConfig::new(&dir, cache_pages).with_page_size(PAGE_SIZE));
    let net = NetServer::start(Server::start(config), NetOptions::default())?;
    let addr = net.tcp_addr().expect("tcp front-end enabled");
    println!("CLIC is listening on {addr} (2 shards, {cache_pages}-page cache)\n");

    // --- 1. The opcode set, pipelined over one TCP connection. ---------
    let mut client = BlockingClient::connect_tcp(addr)?;
    let hint = HintSetId(0);
    let puts: Vec<ServerRequest> = (0..64)
        .map(|i| ServerRequest::Put {
            client: ClientId(0),
            page: PageId(i),
            hint,
            write_hint: None,
            data: Some(page_payload(PageId(i), PAGE_SIZE)),
        })
        .collect();
    client.call_batch(&puts)?;
    println!(
        "pipelined {} Puts with {PAGE_SIZE}-byte payloads",
        puts.len()
    );

    let get =
        |client: &mut BlockingClient, page: u64| -> std::io::Result<(bool, Option<Vec<u8>>)> {
            let response = client.call(&ServerRequest::Get {
                client: ClientId(0),
                page: PageId(page),
                hint,
                prefetch: false,
            })?;
            Ok((
                response.hit().unwrap_or(false),
                response.data().map(<[u8]>::to_vec),
            ))
        };
    let (hit, data) = get(&mut client, 17)?;
    assert!(hit, "a just-written page is resident");
    assert_eq!(
        data.as_deref(),
        Some(&page_payload(PageId(17), PAGE_SIZE)[..])
    );
    println!("Get(17): hit, payload verified byte-for-byte over the wire");

    let deleted = client
        .call(&ServerRequest::Delete { page: PageId(17) })?
        .existed()
        .expect("a delete response");
    assert!(deleted, "the page was there to delete");
    let (hit_after, _) = get(&mut client, 17)?;
    assert!(!hit_after, "a deleted page cannot hit");
    println!("Delete(17): existed; the re-read misses as it must\n");

    // --- 2. Full statistics through the binary codec. ------------------
    let snapshot = client.stats()?;
    println!(
        "Stats over the wire: policy {}, {} requests, read hit ratio {:.1}%, \
         {} store bytes written",
        snapshot.result.policy,
        snapshot.result.stats.requests(),
        snapshot.result.stats.read_hit_ratio() * 100.0,
        snapshot.metrics.counter("store.bytes_written"),
    );
    drop(client);

    // --- 3. Open-loop load: latency at a fixed offered rate. -----------
    let open_loop = OpenLoopConfig {
        rate: 20_000.0,
        requests: 10_000,
        pages: 4_096,
        payload: Some(PAGE_SIZE),
    };
    println!(
        "\noffering {:.0} req/s open loop ({} requests) ...",
        open_loop.rate, open_loop.requests
    );
    let report = run_open_loop(addr, &open_loop)?;
    println!(
        "achieved {:.0} req/s; latency from scheduled send: p50 {} us, \
         p95 {} us, p99 {} us, max {} us",
        report.achieved_rps,
        report.latency.p50(),
        report.latency.p95(),
        report.latency.p99(),
        report.latency.max()
    );

    // Clean shutdown hands back the final simulation result.
    let result = net.shutdown()?;
    println!(
        "\nshutdown: server answered {} requests in total, read hit ratio {:.1}%",
        result.stats.requests(),
        result.stats.read_hit_ratio() * 100.0
    );
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
