//! Wire load: a `ReactorServer` on loopback fronting the engine,
//! driven by the workspace's epoll load generator in back-to-back
//! chunks until the run's time is up.

use crate::inproc::Tally;
use crate::stats::Hist;
use crate::workload::{threads, Drive, Spec, K, N, R};
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use wdm_net::loadgen::{self, LoadConfig};
use wdm_net::LoadReport;
use wdm_net::{ReactorConfig, ReactorServer, ReactorSnapshot, WIRE_VERSION};
use wdm_runtime::{Backend, RuntimeReport};

/// Connects per load-generator chunk (about 0.5–1.5 s of work here).
/// Every chunk opens fresh connections. The size is fixed, not scaled by
/// the measured rate, because the load generator keeps every latency of
/// a chunk in memory: a rate-sized chunk would tie peak memory to
/// throughput.
const CHUNK_CONNECTS: f64 = 96_000.0;
/// Short runs use smaller chunks: at most this many connects per
/// second of run.
const CHUNK_CONNECTS_PER_RUN_S: f64 = 20_000.0;

/// Reactor tunables: the defaults, with at most [`threads`] shards.
pub fn reactor_config() -> ReactorConfig {
    ReactorConfig {
        shards: threads(),
        ..ReactorConfig::default()
    }
}

/// Reactor counter deltas over the measured interval.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReactorDelta {
    pub wakeups: u64,
    pub frames: u64,
    pub coalesced_batches: u64,
    pub coalesced_events: u64,
    pub eagain_writes: u64,
    pub shed: u64,
    pub protocol_errors: u64,
}

impl ReactorDelta {
    fn between(a: &ReactorSnapshot, b: &ReactorSnapshot) -> Self {
        ReactorDelta {
            wakeups: b.wakeups - a.wakeups,
            frames: b.frames - a.frames,
            coalesced_batches: b.coalesced_batches - a.coalesced_batches,
            coalesced_events: b.coalesced_events - a.coalesced_events,
            eagain_writes: b.eagain_writes - a.eagain_writes,
            shed: b.shed - a.shed,
            protocol_errors: b.protocol_errors - a.protocol_errors,
        }
    }
}

/// What one wire run produced on the client side.
#[derive(Default)]
pub struct WireRun {
    pub tally: Tally,
    /// Request frames sent (connects and disconnects).
    pub requests: u64,
    /// Client-side round trips of every request, connects and
    /// disconnects alike (the load generator does not split them), one
    /// window per load-generator chunk.
    pub windows: Vec<Hist>,
    /// Load-generator chunks that did not finish every lane.
    pub incomplete_chunks: u64,
    /// Rejects of any request, connect or disconnect.
    pub rejects: u64,
    pub reactor: ReactorDelta,
    pub wall_s: f64,
}

/// The load-generator shape of a wire workload, `connects` per chunk.
pub fn load_config(spec: &Spec, connects: f64) -> LoadConfig {
    let Drive::Wire {
        connections,
        lanes_per_conn,
        pipeline,
    } = spec.drive
    else {
        unreachable!("not a wire workload")
    };
    LoadConfig {
        connections,
        lanes_per_conn,
        pipeline,
        rounds: ((connects / (connections * lanes_per_conn) as f64) as usize).max(1),
        ports: N * R,
        wavelengths: K,
        wire_version: WIRE_VERSION,
        max_runtime: Duration::from_secs(60),
    }
}

/// Serve `backend` over loopback and drive it in chunks until
/// `seconds` have passed; shut the server down and return its report
/// with the client's view.
pub fn drive<B: Backend>(
    backend: B,
    spec: &Spec,
    seconds: f64,
) -> std::io::Result<(RuntimeReport<B>, WireRun)> {
    let engine = spec.engine().start(backend);
    let server = ReactorServer::serve(engine, "127.0.0.1:0", reactor_config())?;
    let addr: SocketAddr = server.local_addr();
    let config = load_config(spec, CHUNK_CONNECTS.min(seconds * CHUNK_CONNECTS_PER_RUN_S));
    let mut run = WireRun::default();
    let before = server.stats();
    let start = Instant::now();
    let mut result = Ok(());
    while result.is_ok() && start.elapsed().as_secs_f64() < seconds {
        result = loadgen::run(addr, config.clone()).map(|chunk| run.chunk(chunk));
    }
    run.wall_s = start.elapsed().as_secs_f64();
    run.reactor = ReactorDelta::between(&before, &server.stats());
    let report = server.shutdown();
    result.map(|()| (report, run))
}

impl WireRun {
    /// Add one load-generator chunk: its connects, verdicts and
    /// latencies (one window).
    fn chunk(&mut self, chunk: LoadReport) {
        let connects = chunk.requests_sent / 2;
        self.requests += chunk.requests_sent;
        self.tally.attempts += connects;
        self.tally.admitted += chunk.connect_acks;
        self.tally.blocked += chunk.blocked;
        // Connects that were refused for another reason or got no verdict.
        self.tally.errors += connects.saturating_sub(chunk.connect_acks + chunk.blocked);
        self.rejects += chunk.rejects();
        self.incomplete_chunks += u64::from(!chunk.completed);
        let mut window = Hist::default();
        for ms in &chunk.latencies_ms {
            window.record((ms * 1e6) as u64);
        }
        self.windows.push(window);
    }
}
