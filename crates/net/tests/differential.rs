//! Differential conformance: the epoll [`ReactorServer`] against the
//! in-process engine it fronts. A request script runs over the wire
//! and, step by step, through `submit_tracked` / `submit_batch_tracked`
//! on an engine built the same way; every admission verdict must match
//! per index — for a strict v1 client and a v2 client, through a drain
//! over the wire, and across mid-script fault injection and repair.
//! Responses are compared by a normalized fingerprint (verdict +
//! integer counters; free-text details and wall-clock fields excluded).

#![cfg(target_os = "linux")]

use std::sync::mpsc;
use wdm_core::{Endpoint, Fault, MulticastConnection, MulticastModel, NetworkConfig};
use wdm_fabric::CrossbarSession;
use wdm_multistage::{bounds, Construction, ThreeStageNetwork, ThreeStageParams};
use wdm_net::{ClientConfig, NetClient, ReactorConfig, ReactorServer, Request, Response};
use wdm_runtime::{
    AdmissionEngine, Backend, EngineBuilder, HealOutcome, OutcomeCallback, RequestOutcome,
    RuntimeReport,
};
use wdm_workload::{TimedEvent, TraceEvent};

/// Normalize a response to its comparable essence: the verdict and any
/// integer counters, never free text or wall-clock values.
fn fingerprint(resp: &Response) -> String {
    match resp {
        Response::Ok => "ok".into(),
        Response::Pong => "pong".into(),
        Response::Rejected { reason, .. } => format!("rejected:{reason:?}"),
        Response::Snapshot(_) => "snapshot".into(),
        Response::ProtocolError { .. } => "protocol-error".into(),
        Response::Batch(items) => {
            let inner: Vec<String> = items.iter().map(fingerprint).collect();
            format!("batch:[{}]", inner.join(","))
        }
        Response::DrainReport { clean, summary } => format!(
            "drain:clean={clean}:offered={}:admitted={}:blocked={}:departed={}:\
             skipped={}:orphaned={}:component_down={}",
            summary.offered,
            summary.admitted,
            summary.blocked,
            summary.departed,
            summary.skipped_departures,
            summary.orphaned_departures,
            summary.component_down,
        ),
    }
}

/// One step of a deterministic differential script.
enum Step {
    /// A wire round trip whose fingerprint lands in the transcript.
    Call(Request),
    /// Out-of-band fault injection at a quiescent point; the heal
    /// outcome's counters land in the transcript.
    Inject(Fault),
    /// Out-of-band repair; the repaired flag lands in the transcript.
    Repair(Fault),
}

fn heal_line(heal: &HealOutcome) -> String {
    format!(
        "inject:hit={}:healed={}:failed={}",
        heal.connections_hit, heal.healed, heal.heal_failed
    )
}

fn report_line<B: Backend>(report: &RuntimeReport<B>) -> String {
    format!(
        "report:clean={}:offered={}:admitted={}:blocked={}:departed={}:panics={}",
        report.is_clean(),
        report.summary.offered,
        report.summary.admitted,
        report.summary.blocked,
        report.summary.departed,
        report.worker_panics,
    )
}

/// Run `script` against a fresh engine from `make_engine` behind the
/// reactor, sequentially on one connection, and return the transcript
/// of fingerprints plus the final report's comparable counters.
fn run_reactor<B: Backend>(
    make_engine: impl Fn() -> AdmissionEngine<B>,
    wire_version: u8,
    script: &[Step],
) -> Vec<String> {
    let engine = make_engine();
    let handle = engine.fault_handle();
    let server =
        ReactorServer::serve(engine, "127.0.0.1:0", ReactorConfig::default()).expect("bind");
    let config = ClientConfig {
        wire_version,
        ..ClientConfig::default()
    };
    let mut client = NetClient::connect_with(server.local_addr(), config).expect("connects");
    let mut transcript = Vec::with_capacity(script.len() + 1);
    for step in script {
        transcript.push(match step {
            Step::Call(req) => fingerprint(&client.call(req).expect("round trip")),
            Step::Inject(fault) => heal_line(&handle.inject(*fault)),
            Step::Repair(fault) => format!("repair:{}", handle.repair(*fault)),
        });
    }
    transcript.push(report_line(&server.wait()));
    transcript
}

/// A completion callback and the channel its outcome arrives on.
fn tracked() -> (OutcomeCallback, mpsc::Receiver<RequestOutcome>) {
    let (tx, rx) = mpsc::channel();
    let done: OutcomeCallback = Box::new(move |outcome| {
        let _ = tx.send(outcome);
    });
    (done, rx)
}

fn verdict(rx: &mpsc::Receiver<RequestOutcome>) -> Response {
    Response::from_outcome(rx.recv().expect("callback fires"))
}

/// Run `script` in-process on a fresh engine from `make_engine`: each
/// Connect/Disconnect through `submit_tracked`, each BatchConnect
/// through `submit_batch_tracked`, faults through the same handle
/// calls. A `Drain` step stops intake with `begin_drain`; Ping,
/// Snapshot and Drain have no in-process verdict (`None`) and are
/// checked by explicit per-index asserts instead.
fn run_in_process<B: Backend>(
    make_engine: impl Fn() -> AdmissionEngine<B>,
    script: &[Step],
) -> Vec<Option<String>> {
    let engine = make_engine();
    let handle = engine.fault_handle();
    let mut transcript = Vec::with_capacity(script.len() + 1);
    for (i, step) in script.iter().enumerate() {
        let time = i as f64;
        let single = |event| {
            let (done, rx) = tracked();
            let _ = engine.submit_tracked(TimedEvent { time, event }, done);
            Some(fingerprint(&verdict(&rx)))
        };
        transcript.push(match step {
            Step::Call(Request::Connect(c)) => single(TraceEvent::Connect(c.clone())),
            Step::Call(Request::Disconnect(src)) => single(TraceEvent::Disconnect(*src)),
            Step::Call(Request::BatchConnect(conns)) => {
                let (events, (callbacks, rxs)): (Vec<_>, (Vec<_>, Vec<_>)) = conns
                    .iter()
                    .map(|c| {
                        let event = TraceEvent::Connect(c.clone());
                        (TimedEvent { time, event }, tracked())
                    })
                    .unzip();
                let _ = engine.submit_batch_tracked(events, callbacks);
                let items = rxs.iter().map(verdict).collect();
                Some(fingerprint(&Response::Batch(items)))
            }
            Step::Call(Request::Drain) => {
                engine.begin_drain();
                None
            }
            Step::Call(Request::Ping | Request::Snapshot) => None,
            Step::Inject(fault) => Some(heal_line(&handle.inject(*fault))),
            Step::Repair(fault) => Some(format!("repair:{}", handle.repair(*fault))),
        });
    }
    transcript.push(Some(report_line(&engine.drain())));
    transcript
}

/// Every step with an in-process verdict must read the same over the
/// wire.
fn assert_matches_engine(reactor: &[String], engine: &[Option<String>]) {
    assert_eq!(reactor.len(), engine.len());
    for (i, (wire, reference)) in reactor.iter().zip(engine).enumerate() {
        if let Some(reference) = reference {
            assert_eq!(
                wire, reference,
                "step {i}: reactor disagrees with the in-process engine: {reactor:?}"
            );
        }
    }
}

fn unicast(sp: u32, sw: u32, dp: u32, dw: u32) -> MulticastConnection {
    MulticastConnection::unicast(Endpoint::new(sp, sw), Endpoint::new(dp, dw))
}

/// The shared conformance script, written to the engine's trace
/// semantics: a disconnect for a source the engine never saw is
/// `Fatal`; a *rejected* connect on source S swallows the next
/// disconnect on S as a skipped departure (`UnknownSource` on the
/// wire), so releasing a live source after a duplicate rejection takes
/// two disconnects. The script exercises admissions, the
/// duplicate-source rejection, that skip pairing, readmission after
/// release, a wire batch with a per-item rejection (v2 only), a drain
/// over the wire, and post-drain refusals.
fn conformance_script(wire_version: u8) -> Vec<Step> {
    let a = unicast(0, 0, 1, 0);
    let b = unicast(2, 0, 3, 0);
    let mut script = vec![
        Step::Call(Request::Ping),
        Step::Call(Request::Connect(a.clone())),
        Step::Call(Request::Connect(b.clone())),
        // Source (1,1) never connected at all: Fatal.
        Step::Call(Request::Disconnect(Endpoint::new(1, 1))),
        // Source (0,0) is already lit: rejected, deterministically.
        Step::Call(Request::Connect(unicast(0, 0, 3, 0))),
        // Skipped: pairs the rejected duplicate, A stays lit.
        Step::Call(Request::Disconnect(a.source())),
        // ... and this one actually departs A.
        Step::Call(Request::Disconnect(a.source())),
        // Released source readmits.
        Step::Call(Request::Connect(a.clone())),
        Step::Call(Request::Disconnect(a.source())),
        Step::Call(Request::Disconnect(b.source())),
    ];
    if wire_version >= 2 {
        // Batch: second item repeats the first item's source, so the
        // engine's per-source FIFO resolves [Ok, Rejected]; the first
        // disconnect pairs the rejected item, the second departs.
        script.push(Step::Call(Request::BatchConnect(vec![
            unicast(1, 0, 2, 0),
            unicast(1, 0, 3, 0),
        ])));
        script.push(Step::Call(Request::Disconnect(Endpoint::new(1, 0))));
        script.push(Step::Call(Request::Disconnect(Endpoint::new(1, 0))));
    }
    script.push(Step::Call(Request::Drain));
    // Post-drain: admissions refused as Draining, drain idempotent,
    // snapshot still answers.
    script.push(Step::Call(Request::Connect(a)));
    script.push(Step::Call(Request::Drain));
    script.push(Step::Call(Request::Snapshot));
    script
}

#[test]
fn reactor_matches_engine_on_the_conformance_script() {
    let make_engine = || {
        let backend = CrossbarSession::new(NetworkConfig::new(4, 2), MulticastModel::Msw);
        EngineBuilder::new().shards(2).start(backend)
    };
    for wire_version in [1u8, 2] {
        let script = conformance_script(wire_version);
        let reactor = run_reactor(make_engine, wire_version, &script);
        let engine = run_in_process(make_engine, &script);
        assert_matches_engine(&reactor, &engine);
        // Spot-check the transcript is the one we scripted, not two
        // paths agreeing on garbage.
        assert_eq!(reactor[0], "pong");
        assert_eq!(reactor[1], "ok");
        assert_eq!(reactor[2], "ok");
        assert!(reactor[3].starts_with("rejected:Fatal"), "{reactor:?}");
        assert!(reactor[4].starts_with("rejected:Busy"), "{reactor:?}");
        assert!(
            reactor[5].starts_with("rejected:UnknownSource"),
            "{reactor:?}"
        );
        for i in 6..10 {
            assert_eq!(reactor[i], "ok", "step {i}: {reactor:?}");
        }
        if wire_version >= 2 {
            assert!(
                reactor[10].starts_with("batch:[ok,rejected:"),
                "{reactor:?}"
            );
            assert!(
                reactor[11].starts_with("rejected:UnknownSource"),
                "{reactor:?}"
            );
            assert_eq!(reactor[12], "ok", "{reactor:?}");
        }
        let drain_at = if wire_version >= 2 { 13 } else { 10 };
        assert!(reactor[drain_at].starts_with("drain:"), "{reactor:?}");
        assert_eq!(reactor[drain_at + 1], "rejected:Draining");
        assert_eq!(reactor[drain_at + 2], reactor[drain_at], "drain idempotent");
        assert_eq!(reactor[drain_at + 3], "snapshot");
        assert!(
            reactor.last().unwrap().starts_with("report:"),
            "{reactor:?}"
        );
    }
}

/// Fault differential: a three-stage fabric with one middle switch of
/// slack loses a middle switch mid-script, serves through the degraded
/// window, and is repaired — the reactor must report the same heal
/// outcome and the same verdicts as the in-process engine before,
/// during, and after.
#[test]
fn reactor_matches_engine_under_fault_injection() {
    let (n, r, k) = (4u32, 4u32, 2u32);
    let m = bounds::theorem1_min_m(n, r).m + 1;
    let make_engine = move || {
        let p = ThreeStageParams::new(n, m, r, k);
        let backend = ThreeStageNetwork::new(p, Construction::MswDominant, MulticastModel::Msw);
        EngineBuilder::new().shards(2).start(backend)
    };
    let script = vec![
        Step::Call(Request::Connect(unicast(0, 0, 4, 0))),
        Step::Call(Request::Connect(unicast(1, 0, 5, 0))),
        // Quiescent point: both responses are in hand, so the backend
        // holds exactly these two connections when the switch dies.
        Step::Inject(Fault::MiddleSwitch(0)),
        // One spare above the bound: the degraded fabric still admits.
        Step::Call(Request::Connect(unicast(2, 0, 6, 0))),
        Step::Call(Request::Disconnect(Endpoint::new(0, 0))),
        Step::Call(Request::Disconnect(Endpoint::new(1, 0))),
        Step::Repair(Fault::MiddleSwitch(0)),
        Step::Call(Request::Connect(unicast(3, 0, 7, 0))),
        Step::Call(Request::Disconnect(Endpoint::new(2, 0))),
        Step::Call(Request::Disconnect(Endpoint::new(3, 0))),
        Step::Call(Request::Drain),
    ];
    let reactor = run_reactor(make_engine, 2, &script);
    let engine = run_in_process(make_engine, &script);
    assert_matches_engine(&reactor, &engine);
    assert_eq!(reactor[0], "ok");
    assert_eq!(reactor[1], "ok");
    assert!(reactor[2].starts_with("inject:hit="), "{reactor:?}");
    assert_eq!(reactor[3], "ok", "degraded fabric above the bound admits");
    assert_eq!(reactor[6], "repair:true", "{reactor:?}");
    assert_eq!(reactor[7], "ok", "repaired fabric admits");
    assert!(reactor[10].starts_with("drain:clean=true"), "{reactor:?}");
}
