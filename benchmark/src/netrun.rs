//! The full stack under the pipelined client: a store-backed `Server`
//! preloaded with every page of the stream, behind a `NetServer`; the
//! closed-loop run against it; and the crash + recovery check after it.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cache_sim::Request;
use clic_obs::Recorder;
use clic_server::{
    Durability, NetOptions, NetServer, PageStore, Server, ServerConfig, ServerRequest,
    StatsSnapshot,
};
use clic_store::page_payload;

use crate::client::{Driven, Pipeline};
use crate::common::{dir_bytes, Inputs, BATCH, DEPTH, PAGE_SIZE, SHARDS};

/// Replies per throughput round of a closed-loop run.
pub const ROUND: usize = 10_000;

/// How long a client waits for bytes before calling the server hung.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    Tcp,
    Uds,
}

/// Starts a store-backed server under `dir` and writes every distinct page
/// of the stream through `Server::submit`, so every later `Get` returns
/// bytes that can be verified.
pub fn start_store_server(
    inputs: &Inputs,
    dir: &Path,
    durability: Durability,
    recorder: &Recorder,
) -> io::Result<(Server, ServerConfig)> {
    let config = inputs.server_config(Some((dir, durability)), recorder);
    let server = Server::try_start(config.clone())?;
    for chunk in inputs.first_touch.chunks(BATCH) {
        let batch: Vec<ServerRequest> = chunk
            .iter()
            .map(|req| ServerRequest::Put {
                client: req.client,
                page: req.page,
                hint: req.hint,
                write_hint: None,
                data: Some(page_payload(req.page, PAGE_SIZE)),
            })
            .collect();
        if let Some(bad) = server.submit(&batch).iter().find(|r| r.hit().is_none()) {
            return Err(io::Error::other(format!("preload failed: {bad:?}")));
        }
    }
    Ok((server, config))
}

/// A preloaded store-backed server on the wire.
pub struct System {
    pub net: NetServer,
    /// The shard stores, kept to read `wal_synced_len` just before a crash.
    stores: Vec<Arc<PageStore>>,
    config: ServerConfig,
    durability: Durability,
    pub dir: PathBuf,
}

impl System {
    pub fn start(
        inputs: &Inputs,
        dir: PathBuf,
        durability: Durability,
        recorder: &Recorder,
        transport: Transport,
    ) -> io::Result<System> {
        let (server, config) = start_store_server(inputs, &dir, durability, recorder)?;
        let stores = server.cache().stores().to_vec();
        let options = match transport {
            Transport::Tcp => NetOptions::default(),
            Transport::Uds => NetOptions {
                tcp: None,
                uds: Some(dir.join("sock")),
                ..NetOptions::default()
            },
        };
        let net = NetServer::start(server, options)?;
        Ok(System {
            net,
            stores,
            config,
            durability,
            dir,
        })
    }

    /// Runs `warmup` untimed then `count` timed requests of the stream,
    /// closed loop at [`DEPTH`], over the transport the system listens on.
    pub fn run(
        &self,
        stream: &[Request],
        warmup: usize,
        count: usize,
        deadline: Instant,
    ) -> io::Result<NetRun> {
        if let Some(addr) = self.net.tcp_addr() {
            let socket = TcpStream::connect(addr)?;
            socket.set_nodelay(true)?;
            socket.set_read_timeout(Some(READ_TIMEOUT))?;
            return self.run_on(socket, stream, warmup, count, deadline);
        }
        #[cfg(unix)]
        if let Some(path) = self.net.uds_path() {
            let socket = std::os::unix::net::UnixStream::connect(path)?;
            socket.set_read_timeout(Some(READ_TIMEOUT))?;
            return self.run_on(socket, stream, warmup, count, deadline);
        }
        Err(io::Error::other("the system listens on no transport"))
    }

    fn run_on<S: Read + Write>(
        &self,
        socket: S,
        stream: &[Request],
        warmup: usize,
        count: usize,
        deadline: Instant,
    ) -> io::Result<NetRun> {
        let mut client = Pipeline::new(socket, DEPTH);
        let warm = client.drive(stream, 0, warmup, ROUND, deadline)?;
        let before = client.stats()?;
        let timed = client.drive(stream, warmup, count, ROUND, deadline)?;
        let after = client.stats()?;
        Ok(NetRun {
            warm_failed: warm.failed,
            timed,
            before,
            after,
            disk_bytes: dir_bytes(&self.dir)?,
        })
    }

    /// Crashes the server — dropped without shutdown, so no checkpoint runs
    /// — and, in the kernel-crash model of `crash_recovery.rs`, truncates
    /// each shard's WAL to the `wal_synced_len` read just before. Then
    /// reopens the directories, timing `Server::try_start`, and reads every
    /// page of the stream back. Buffered durability promises nothing past a
    /// process crash, so there the whole WAL is kept.
    pub fn crash_and_recover(self, inputs: &Inputs) -> io::Result<Recovery> {
        let System {
            net,
            stores,
            config,
            durability,
            ..
        } = self;
        let kernel_crash = durability != Durability::Buffered;
        let survives: Vec<u64> = stores
            .iter()
            .map(|s| {
                if kernel_crash {
                    s.wal_synced_len()
                } else {
                    s.wal_len()
                }
            })
            .collect();
        drop(stores);
        drop(net);
        let store_config = config
            .cache
            .store
            .as_ref()
            .ok_or_else(|| io::Error::other("crash check needs a store"))?;
        for (shard, &len) in survives.iter().enumerate() {
            let wal = store_config.for_shard(shard, SHARDS).dir.join("store.wal");
            std::fs::OpenOptions::new()
                .write(true)
                .open(wal)?
                .set_len(len)?;
        }
        let started = Instant::now();
        let server = Server::try_start(config)?;
        let recovery_s = started.elapsed().as_secs_f64();
        let recovered_writes = server
            .cache()
            .stores()
            .iter()
            .map(|s| s.recovered_writes())
            .sum();
        let mut unreadable = 0u64;
        for chunk in inputs.first_touch.chunks(BATCH) {
            let batch: Vec<ServerRequest> = chunk
                .iter()
                .map(|req| {
                    ServerRequest::from_request(&Request::read(req.client, req.page, req.hint))
                })
                .collect();
            for (req, response) in chunk.iter().zip(server.submit(&batch)) {
                if response.data() != Some(&page_payload(req.page, PAGE_SIZE)[..]) {
                    unreadable += 1;
                }
            }
        }
        Ok(Recovery {
            recovery_s,
            recovered_writes,
            surviving_wal_bytes: survives.iter().sum(),
            unreadable,
        })
    }
}

/// One closed-loop run with the `Stats` snapshots around its timed part.
pub struct NetRun {
    pub warm_failed: u64,
    pub timed: Driven,
    pub before: StatsSnapshot,
    pub after: StatsSnapshot,
    /// Bytes in the store directories when the timed part ended.
    pub disk_bytes: u64,
}

impl NetRun {
    /// Growth of a `store.*`/`server.*` counter over the timed part.
    pub fn counter(&self, name: &str) -> f64 {
        (self.after.metrics.counter(name) - self.before.metrics.counter(name)) as f64
    }

    /// Server-side read hit ratio over the timed part.
    pub fn read_hit_ratio(&self) -> f64 {
        let (a, b) = (&self.after.result.stats, &self.before.result.stats);
        (a.read_hits - b.read_hits) as f64 / (a.reads() - b.reads()).max(1) as f64
    }

    /// Bytes per WAL record, when it is the same whole number for every
    /// record since the stores were opened.
    pub fn wal_record_bytes(&self) -> Option<u64> {
        let bytes = self.after.metrics.counter("store.wal_bytes");
        let records = self.after.metrics.counter("store.wal_records");
        (records > 0 && bytes.is_multiple_of(records)).then(|| bytes / records)
    }

    /// What must hold between the client's view and the server's (`drive`
    /// returns only once every request has its reply): the server counted
    /// exactly the requests sent, and both saw the same read hits.
    pub fn reconcile(&self, count: usize) -> Result<(), String> {
        let (a, b) = (&self.after.result.stats, &self.before.result.stats);
        let served = a.requests() - b.requests();
        let hits = a.read_hits - b.read_hits;
        if served != count as u64 {
            return Err(format!("sent {count}, server counted {served}"));
        }
        if hits != self.timed.read_hits {
            return Err(format!(
                "server counted {hits} read hits, client saw {}",
                self.timed.read_hits
            ));
        }
        Ok(())
    }
}

/// What came back after the crash.
pub struct Recovery {
    pub recovery_s: f64,
    /// WAL records the reopened stores replayed.
    pub recovered_writes: u64,
    /// WAL bytes that survived the crash, all shards.
    pub surviving_wal_bytes: u64,
    /// Pages that did not read back as their payload.
    pub unreadable: u64,
}
