//! **Serving-layer benchmark**: admissions per second through the full
//! network path — codec, TCP loopback, epoll reactor with batch
//! coalescing, sharded engine, response write-back — versus the same
//! trace driven in-process. The gap is the wire tax; the invariant is
//! that the wire changes *throughput*, never *outcomes* (zero blocks at
//! the bound either way).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wdm_core::MulticastModel;
use wdm_multistage::{bounds, Construction, ThreeStageNetwork, ThreeStageParams};
use wdm_runtime::{AdmissionEngine, EngineBuilder};
use wdm_workload::{close_trace, partition_by_source, DynamicTraffic, TimedEvent};

fn closed_trace(p: ThreeStageParams, seed: u64) -> Vec<TimedEvent> {
    let horizon = 20.0;
    let mut events =
        DynamicTraffic::new(p.network(), MulticastModel::Msw, 6.0, 1.0, 2, seed).generate(horizon);
    close_trace(&mut events, horizon + 1.0);
    events
}

fn engine(p: ThreeStageParams) -> AdmissionEngine<ThreeStageNetwork> {
    EngineBuilder::new().shards(4).start(ThreeStageNetwork::new(
        p,
        Construction::MswDominant,
        MulticastModel::Msw,
    ))
}

/// Stream the trace through `clients` loopback connections and drain.
#[cfg(target_os = "linux")]
fn drive_over_wire(p: ThreeStageParams, events: &[TimedEvent], clients: usize) -> u64 {
    use wdm_net::{NetClient, ReactorConfig, ReactorServer, Request};
    let server = ReactorServer::serve(engine(p), "127.0.0.1:0", ReactorConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr();
    let lanes = partition_by_source(events.iter().cloned(), clients);
    let handles: Vec<_> = lanes
        .into_iter()
        .map(|lane| {
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                let reqs: Vec<Request> = lane.iter().map(|ev| Request::from(&ev.event)).collect();
                // Pipeline the whole lane: a *windowed* closed loop can
                // stall against parked admissions (the departure that
                // would free a parked connect sits in a window the
                // client has not sent yet), turning the benchmark into
                // a deadline-expiry measurement.
                client.pipeline(&reqs).expect("pipelined replay");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let report = server.shutdown();
    assert!(report.is_clean());
    assert_eq!(report.summary.blocked, 0, "blocked at m = bound over TCP");
    report.summary.admitted
}

/// Same trace, no sockets: the in-process baseline.
fn drive_in_process(p: ThreeStageParams, events: &[TimedEvent]) -> u64 {
    let engine = engine(p);
    engine.run_events(events.iter().cloned());
    let report = engine.drain();
    assert!(report.is_clean());
    assert_eq!(report.summary.blocked, 0);
    report.summary.admitted
}

fn bench_wire_vs_in_process(c: &mut Criterion) {
    let (n, r, k) = (4u32, 4u32, 2u32);
    let m = bounds::theorem1_min_m(n, r).m;
    let p = ThreeStageParams::new(n, m, r, k);
    let events = closed_trace(p, 42);
    let mut g = c.benchmark_group("net/admissions");
    g.sample_size(10);
    g.bench_function("in_process", |b| {
        b.iter(|| drive_in_process(p, &events));
    });
    #[cfg(target_os = "linux")]
    for clients in [1usize, 4] {
        g.bench_with_input(
            BenchmarkId::new("loopback_tcp", clients),
            &clients,
            |b, &cl| {
                b.iter(|| drive_over_wire(p, &events, cl));
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_wire_vs_in_process);
criterion_main!(benches);
