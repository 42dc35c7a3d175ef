//! End-to-end CLI tests for backend selection: the `--backend` flag
//! must reject unknown names with the full menu and a nonzero exit, and
//! the AWG-Clos backend must work through `serve --listen` (real TCP,
//! wire protocol, drain) and `sim` exactly like the other fabrics.

use std::process::Command;
use wdm_core::{Endpoint, MulticastConnection};
use wdm_net::{NetClient, Request, Response};

fn wdmcast() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wdmcast"))
}

#[test]
fn unknown_backend_lists_the_menu_and_exits_nonzero() {
    for subcommand in ["sim", "serve"] {
        let out = wdmcast()
            .args([
                subcommand,
                "--backend",
                "warp-drive",
                "--n",
                "2",
                "--r",
                "4",
                "-k",
                "4",
                "--listen",
                "127.0.0.1:0",
            ])
            .output()
            .expect("spawn wdmcast");
        assert!(
            !out.status.success(),
            "{subcommand} accepted an unknown backend"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown backend \"warp-drive\""),
            "{stderr}"
        );
        for valid in [
            "crossbar",
            "three-stage",
            "awg-clos",
            "graph",
            "three-stage-cas",
        ] {
            assert!(
                stderr.contains(valid),
                "{subcommand} error does not list {valid}: {stderr}"
            );
        }
    }
}

/// `sim --concurrent three-stage` used to die with a generic
/// "--concurrent must be true or false": the valueless boolean flag
/// swallowed the backend name as its value. The parser now recognizes
/// backend names in that position and points at `--backend`.
#[test]
fn boolean_flag_swallowing_a_backend_name_suggests_backend_flag() {
    let out = wdmcast()
        .args([
            "sim",
            "--concurrent",
            "three-stage-cas",
            "--n",
            "2",
            "--r",
            "4",
        ])
        .output()
        .expect("spawn wdmcast");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--backend three-stage-cas"),
        "error does not point at --backend: {stderr}"
    );
}

/// The CAS backend's own label (`three-stage-cas`, what it reports over
/// the wire and in reports) must round-trip through --backend instead
/// of being rejected as unknown.
#[test]
fn three_stage_cas_label_selects_the_concurrent_path() {
    let out = wdmcast()
        .args([
            "sim",
            "--backend",
            "three-stage-cas",
            "--n",
            "2",
            "--r",
            "4",
            "-k",
            "2",
            "--steps",
            "16",
            "--seeds",
            "4",
        ])
        .output()
        .expect("spawn wdmcast");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "sim failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("concurrent"), "{stdout}");
    assert!(stdout.contains("0 failing"), "{stdout}");
}

#[test]
fn graph_sim_sweep_exits_clean() {
    let out = wdmcast()
        .args([
            "sim",
            "--backend",
            "graph",
            "--topology",
            "ring",
            "--nodes",
            "6",
            "--n",
            "1",
            "-k",
            "2",
            "--steps",
            "24",
            "--seeds",
            "8",
        ])
        .output()
        .expect("spawn wdmcast");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "sim failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("graph ring(6)"), "{stdout}");
    assert!(stdout.contains("0 failing"), "{stdout}");
}

/// Graph-only flags on a switch-box backend are a contradiction, not a
/// silent no-op.
#[test]
fn topology_flags_without_graph_backend_are_rejected() {
    let out = wdmcast()
        .args([
            "sim",
            "--backend",
            "three-stage",
            "--topology",
            "ring",
            "--n",
            "2",
            "--r",
            "4",
        ])
        .output()
        .expect("spawn wdmcast");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--backend graph"), "{stderr}");
}

#[test]
fn awg_clos_infeasible_geometry_is_a_helpful_error() {
    // k=1 < r=4: no channel class reaches most module pairs.
    let out = wdmcast()
        .args([
            "sim",
            "--backend",
            "awg-clos",
            "--n",
            "2",
            "--r",
            "4",
            "-k",
            "1",
        ])
        .output()
        .expect("spawn wdmcast");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("k ≥ r"), "{stderr}");
}

#[test]
fn awg_clos_sim_sweep_exits_clean() {
    let out = wdmcast()
        .args([
            "sim",
            "--backend",
            "awg-clos",
            "--n",
            "2",
            "--r",
            "4",
            "-k",
            "4",
            "--steps",
            "24",
            "--seeds",
            "8",
        ])
        .output()
        .expect("spawn wdmcast");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "sim failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("awg-clos"), "{stdout}");
    assert!(stdout.contains("0 failing"), "{stdout}");
}

#[test]
fn serve_listen_runs_the_awg_backend_over_tcp() {
    let dir = std::env::temp_dir().join(format!("wdmcast-awg-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let addr_file = dir.join("addr");
    let mut server = wdmcast()
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--backend",
            "awg-clos",
            "--n",
            "2",
            "--r",
            "4",
            "-k",
            "4",
        ])
        .arg("--addr-file")
        .arg(&addr_file)
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn server");

    // The server writes its bound address once the socket is live.
    let addr = {
        let mut waited = 0;
        loop {
            match std::fs::read_to_string(&addr_file) {
                Ok(s) if !s.is_empty() => break s,
                _ => {
                    waited += 1;
                    assert!(waited < 200, "server never wrote {addr_file:?}");
                    std::thread::sleep(std::time::Duration::from_millis(25));
                }
            }
        }
    };

    let mut client = NetClient::connect(addr.as_str()).expect("connect");
    // Port 0 (module 0) λ0 → modules 1 and 2: the module-2 leg rides
    // channel class 2 ≠ λ0, so the full AWG path (ingress conversion,
    // grating hop, egress conversion) is exercised over the wire.
    let conn = MulticastConnection::new(
        Endpoint::new(0, 0),
        [Endpoint::new(5, 0), Endpoint::new(2, 0)],
    )
    .unwrap();
    assert_eq!(
        client.call(&Request::Connect(conn)).expect("connect rpc"),
        Response::Ok
    );
    assert_eq!(
        client
            .call(&Request::Disconnect(Endpoint::new(0, 0)))
            .expect("disconnect rpc"),
        Response::Ok
    );
    match client.drain().expect("drain rpc") {
        Response::DrainReport { clean, summary } => {
            assert!(clean, "drain not clean");
            assert_eq!(summary.admitted, 1);
            assert_eq!(summary.blocked, 0);
        }
        other => panic!("expected DrainReport, got {other:?}"),
    }
    let status = server.wait().expect("server exit");
    assert!(status.success(), "server exited {status:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cost_report_covers_all_three_architectures() {
    let out = wdmcast()
        .args(["cost", "-N", "16", "-k", "4"])
        .output()
        .expect("spawn wdmcast");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["AWG ports", "/CB", "/MS", "AWG/Clos"] {
        assert!(stdout.contains(needle), "missing {needle}:\n{stdout}");
    }
}

#[test]
fn serve_listen_on_an_occupied_port_fails_with_context() {
    // Squat on a port, then ask the server to bind it: the CLI must
    // exit nonzero with an error naming both the address and the OS
    // failure, not panic or serve on a different port.
    let squatter = std::net::TcpListener::bind("127.0.0.1:0").expect("bind squatter");
    let addr = squatter.local_addr().expect("squatter addr").to_string();
    let out = wdmcast()
        .args([
            "serve", "--listen", &addr, "--n", "2", "--r", "4", "-k", "2",
        ])
        .output()
        .expect("spawn wdmcast");
    assert!(!out.status.success(), "bound an occupied port: {addr}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("bind {addr}")),
        "error lacks the address being bound: {stderr}"
    );
    drop(squatter);
}

/// `--serve-mode` selected a second TCP server that no longer exists.
/// Unknown flags are otherwise ignored, so the removed flag must fail
/// loudly on both commands that took it rather than be dropped.
#[test]
fn removed_serve_mode_flag_is_an_error() {
    for (subcommand, rest) in [
        ("serve", ["--listen", "127.0.0.1:0"]),
        ("bench-net", ["--connections", "64"]),
    ] {
        let out = wdmcast()
            .args([subcommand, "--serve-mode", "threads"])
            .args(rest)
            .output()
            .expect("spawn wdmcast");
        assert!(!out.status.success(), "{subcommand} accepted --serve-mode");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("the epoll reactor is now the only server"),
            "{subcommand}: {stderr}"
        );
    }
}
