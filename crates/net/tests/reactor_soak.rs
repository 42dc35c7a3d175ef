//! C10k loopback soak: the epoll reactor serves ten thousand concurrent
//! logical lanes (1024 real sockets × 10 lanes each) hammering a
//! Theorem-1-sized three-stage fabric from a single-threaded epoll load
//! generator. The lane geometry is conflict-free by construction, so at
//! `m` = the Theorem-1 bound **every** request must be admitted: the
//! soak passes only with zero rejects of any flavor, client-counted
//! acks equal to server-counted admissions, and a clean drain.
//!
//! This is the in-tree smoke tier; the `bench-net` CLI sweep drives the
//! same machinery at 10k+ real sockets (C10k proper) and the nightly
//! workflow at C100k lanes.

#![cfg(target_os = "linux")]

use wdm_core::MulticastModel;
use wdm_multistage::{bounds, Construction, ThreeStageNetwork, ThreeStageParams};
use wdm_net::{LoadConfig, NetClient, ReactorConfig, ReactorServer, Response};
use wdm_runtime::EngineBuilder;

#[test]
fn c10k_lanes_zero_blocks_at_theorem1_bound() {
    // 32×32 modules of 16 wavelengths: 1024 ports, 16384 endpoints —
    // room for 10240 dedicated lane sources.
    let (n, r, k) = (32u32, 32u32, 16u32);
    let m = bounds::theorem1_min_m(n, r).m;
    let p = ThreeStageParams::new(n, m, r, k);
    let backend = ThreeStageNetwork::new(p, Construction::MswDominant, MulticastModel::Msw);
    let engine = EngineBuilder::new().shards(2).start(backend);
    let server =
        ReactorServer::serve(engine, "127.0.0.1:0", ReactorConfig::default()).expect("bind");
    let addr = server.local_addr();

    let config = LoadConfig {
        connections: 1024,
        lanes_per_conn: 10,
        pipeline: 4,
        rounds: 2,
        ports: p.network().ports,
        wavelengths: k,
        ..LoadConfig::default()
    };
    let lanes = (config.connections * config.lanes_per_conn) as u64;
    let rounds = config.rounds as u64;
    let report = wdm_net::loadgen::run(addr, config).expect("load run");

    assert!(report.completed, "soak timed out: {report:?}");
    assert_eq!(report.lanes as u64, lanes);
    assert_eq!(report.requests_sent, lanes * rounds * 2);
    assert_eq!(
        report.rejects(),
        0,
        "nonblocking bound violated over the wire: busy={} blocked={} backpressure={} \
         draining={} other={}",
        report.busy,
        report.blocked,
        report.backpressure,
        report.draining,
        report.other
    );
    assert_eq!(report.connect_acks, lanes * rounds);
    assert_eq!(report.disconnect_acks, lanes * rounds);

    let stats = server.stats();
    assert!(stats.accepted >= 1024, "{stats:?}");
    assert_eq!(stats.frames, report.requests_sent, "{stats:?}");
    assert!(stats.coalesced_batches > 0, "{stats:?}");
    assert_eq!(stats.coalesced_events, report.requests_sent, "{stats:?}");
    // Ten thousand concurrent lanes must actually coalesce: cycles
    // carry multiple admissions on average, so the backend lock is
    // taken per cycle rather than per request.
    assert!(
        stats.coalesced_batch_mean > 1.0,
        "no coalescing under C10k load: {stats:?}"
    );
    assert_eq!(stats.protocol_errors, 0, "{stats:?}");

    // Drain over the wire: admissions the server counted must equal
    // the acks the load generator counted.
    let mut control = NetClient::connect(addr).expect("control client");
    match control.drain().expect("drain") {
        Response::DrainReport { clean, summary } => {
            assert!(clean, "drain not clean");
            assert_eq!(summary.blocked, 0);
            assert_eq!(summary.admitted, report.connect_acks);
            assert_eq!(summary.offered, report.connect_acks);
        }
        other => panic!("expected DrainReport, got {other:?}"),
    }
    let report = server.wait();
    assert!(report.is_clean(), "{:?}", report.consistency);
    assert_eq!(report.worker_panics, 0);
}
