//! Serve a three-stage network over TCP and drive it from client
//! threads — the wire-protocol equivalent of `examples/runtime_server`.
//!
//! The epoll `ReactorServer` fronts the sharded admission engine on a
//! loopback socket; a closed churn trace is partitioned by source port
//! into one lane per client, each streamed fully pipelined through its own
//! `NetClient`. At the Theorem 1 bound the network stays nonblocking
//! across the socket boundary: the drained report shows zero blocks,
//! and the server's admission count equals the clients' acks.
//!
//! Run with: `cargo run --example net_loopback` (Linux: the server is
//! epoll-based).

#[cfg(target_os = "linux")]
use wdm_multicast::{
    core::MulticastModel,
    multistage::{bounds, Construction, ThreeStageNetwork, ThreeStageParams},
    net::{NetClient, ReactorConfig, ReactorServer, Request, Response},
    runtime::EngineBuilder,
    workload::{close_trace, partition_by_source, DynamicTraffic},
};

#[cfg(not(target_os = "linux"))]
fn main() {
    eprintln!("net_loopback needs Linux: the TCP server is epoll-based");
}

#[cfg(target_os = "linux")]
fn main() {
    let (n, r, k) = (4u32, 4u32, 2u32);
    let bound = bounds::theorem1_min_m(n, r);
    let params = ThreeStageParams::new(n, bound.m, r, k);
    let backend = ThreeStageNetwork::new(params, Construction::MswDominant, MulticastModel::Msw);
    let engine = EngineBuilder::new().start(backend);
    let server =
        ReactorServer::serve(engine, "127.0.0.1:0", ReactorConfig::default()).expect("bind");
    let addr = server.local_addr();
    println!(
        "serving {params} at the Theorem 1 bound (m={}) on {addr}\n",
        bound.m
    );

    // A closed churn trace, sharded by source port into one lane per
    // client so each connection's connect precedes its disconnect.
    let horizon = 20.0;
    let mut events = DynamicTraffic::new(params.network(), MulticastModel::Msw, 5.0, 1.0, 3, 7)
        .generate(horizon);
    close_trace(&mut events, horizon + 1.0);
    let clients = 4;
    let lanes = partition_by_source(events, clients);

    let handles: Vec<_> = lanes
        .into_iter()
        .enumerate()
        .map(|(i, lane)| {
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                let reqs: Vec<Request> = lane.iter().map(|ev| Request::from(&ev.event)).collect();
                let resps = client.pipeline(&reqs).expect("replay");
                let acks = reqs
                    .iter()
                    .zip(&resps)
                    .filter(|(q, s)| matches!(q, Request::Connect(_)) && s.is_ok())
                    .count();
                println!(
                    "client {i}: {} requests, {acks} connects admitted",
                    reqs.len()
                );
                acks as u64
            })
        })
        .collect();
    let client_acks: u64 = handles.into_iter().map(|h| h.join().expect("client")).sum();

    // Graceful drain over the wire, then collect the engine's report.
    let mut control = NetClient::connect(addr).expect("connect");
    match control.drain().expect("drain") {
        Response::DrainReport { clean, summary } => {
            println!(
                "\ndrain: clean={clean}, offered {} admitted {} blocked {}",
                summary.offered, summary.admitted, summary.blocked
            );
        }
        other => panic!("expected DrainReport, got {other:?}"),
    }
    let report = server.wait();
    assert!(report.is_clean());
    assert_eq!(report.summary.blocked, 0, "nonblocking at the bound");
    assert_eq!(report.summary.admitted, client_acks);
    println!(
        "server admissions == client acks == {client_acks}; zero blocks — Theorem 1 holds over TCP"
    );
}
