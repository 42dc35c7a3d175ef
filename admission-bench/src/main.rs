//! The admission benchmark: one workload per run, end-to-end metrics
//! (untraced) or per-layer metrics (traced), correctness checks, and a
//! last stdout line of JSON.
//!
//! ```text
//! cargo run --release --manifest-path admission-bench/Cargo.toml -- \
//!     --workload clos-bound --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 1` runs the workload twice: once untraced, for the
//! traced-run overhead, and once with the backend wrapped in
//! [`traced::Traced`], whose spans give the per-layer numbers. The
//! spans are written to `admission-bench/out/` when the run ends.

mod checks;
mod inproc;
mod layers;
mod stats;
mod traced;
mod wire;
mod workload;

use checks::Check;
use inproc::{Done, Tally};
use layers::Metric;
use std::io::Write;
use std::net::TcpStream;
use std::time::Instant;
use wdm_core::{Endpoint, MulticastConnection};
use wdm_net::{ReactorServer, Request, Response};
use wdm_runtime::{Backend, RuntimeReport};
use workload::{Counts, Drive, Spec, Trace};

/// The end-to-end metrics of an untraced run, in report order.
const END_TO_END: [(&str, &str); 5] = [
    ("admit_per_cpu_s", "1/s"),
    ("req_p50_us", "us"),
    ("admit_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Seconds of set-ups timed before the run and again after it;
/// `setup_s` is the median of them all. Two phases half a minute apart
/// see two states of a shared host, not one.
const SETUP_PHASE_S: f64 = 0.5;
/// Set-ups per phase at least.
const SETUP_MIN_REPS: usize = 51;
/// Trace events whose frames the traced run times through the codec.
const CODEC_FRAMES: usize = 20_000;
/// Spans written to the span file at most.
const SPAN_FILE_CAP: usize = 200_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("in (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

/// The current commit, read from `.git` without running git; "none"
/// outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Inputs prepared before any timing: the trace pass and, for one-shard
/// workloads, its serial replay.
struct Prepared {
    trace: Option<Trace>,
    serial: Option<Vec<Counts>>,
}

fn prepare(spec: &Spec, seed: u64, horizon: f64) -> Prepared {
    if matches!(spec.drive, Drive::Wire { .. }) {
        return Prepared {
            trace: None,
            serial: None,
        };
    }
    let t = Instant::now();
    let trace = workload::mc40(seed, horizon);
    println!(
        "trace: {} events, {} connects, mean fanout {:.2}, generated in {:.2} s",
        trace.events.len(),
        trace.connects(),
        trace.mean_fanout(),
        t.elapsed().as_secs_f64()
    );
    let serial = (spec.shards == 1).then(|| {
        let budget = match spec.repack {
            wdm_runtime::RepackPolicy::OnBlock { budget } => budget,
            _ => 0,
        };
        let counts = workload::serial_replay(workload::backend(spec.m), &trace, budget);
        let last = counts.last().copied().unwrap_or_default();
        println!(
            "serial replay of one pass: admitted {} blocked {}",
            last.admitted, last.blocked
        );
        counts
    });
    Prepared {
        trace: Some(trace),
        serial,
    }
}

/// Build the backend and engine (and, on the wire, bind the reactor and
/// open the client connections) up to the first request; tear down
/// untimed. Returns seconds.
fn setup_once(spec: &Spec) -> std::io::Result<f64> {
    let t = Instant::now();
    let engine = spec.engine().start(workload::backend(spec.m));
    let Drive::Wire { connections, .. } = spec.drive else {
        let took = t.elapsed().as_secs_f64();
        let _ = engine.drain();
        return Ok(took);
    };
    let server = ReactorServer::serve(engine, "127.0.0.1:0", wire::reactor_config())?;
    let clients = (0..connections)
        .map(|_| TcpStream::connect(server.local_addr()))
        .collect::<std::io::Result<Vec<_>>>();
    let took = t.elapsed().as_secs_f64();
    drop(clients);
    let _ = server.shutdown();
    Ok(took)
}

/// One driven run, whatever the drive.
struct Run<B> {
    report: RuntimeReport<B>,
    tally: Tally,
    wall_s: f64,
    /// CPU time the program's threads used over the run: the whole
    /// process but the client thread that drives it.
    cpu_s: f64,
    /// Connect latencies by window (see `inproc::Driven::windows`).
    windows: Vec<stats::Hist>,
    checks: Vec<Check>,
    records: Vec<Done>,
    late: stats::Hist,
    reactor: Option<wire::ReactorDelta>,
    wire_requests: u64,
}

fn run<B: Backend>(
    backend: B,
    spec: &Spec,
    prep: &Prepared,
    seconds: f64,
    keep_records: bool,
) -> Result<Run<B>, String> {
    let cpu_before = program_cpu_s();
    let Some(trace) = &prep.trace else {
        let (report, w) =
            wire::drive(backend, spec, seconds).map_err(|e| format!("wire run: {e}"))?;
        let mut checks = checks::engine(&report);
        checks.push(checks::theorem1(
            spec.at_bound,
            spec.m,
            report.summary.blocked,
        ));
        checks.push(checks::wire_acks(
            report.summary.admitted,
            w.tally,
            w.rejects,
            w.incomplete_chunks,
            w.reactor.protocol_errors,
        ));
        return Ok(Run {
            report,
            tally: w.tally,
            wall_s: w.wall_s,
            cpu_s: program_cpu_s() - cpu_before,
            windows: w.windows,
            checks,
            records: Vec::new(),
            late: stats::Hist::default(),
            reactor: Some(w.reactor),
            wire_requests: w.requests,
        });
    };
    let (report, d) = inproc::drive(backend, spec, trace, seconds, keep_records);
    let cpu_s = program_cpu_s() - cpu_before;
    let s = &report.summary;
    let mut checks = checks::engine(&report);
    checks.push(checks::theorem1(spec.at_bound, spec.m, s.blocked));
    checks.push(checks::client_matches_engine(
        d.tally, s.admitted, s.blocked, d.lost,
    ));
    checks.push(checks::departures(d.bad_departures));
    if let Some(serial) = &prep.serial {
        checks.push(checks::serial_replay(
            Counts {
                admitted: s.admitted,
                blocked: s.blocked,
            },
            workload::expected_counts(serial, d.submitted),
        ));
    }
    Ok(Run {
        report,
        tally: d.tally,
        wall_s: d.wall_s,
        cpu_s,
        windows: d.windows,
        checks,
        records: d.records,
        late: d.late,
        reactor: None,
        wire_requests: 0,
    })
}

impl<B> Run<B> {
    /// Connects admitted per CPU-second of the program's threads
    /// (engine shards and observer, and on the wire the reactor). On a
    /// shared 2-vCPU virtual machine that lost the CPU for milliseconds
    /// at a time (steal up to 40%), admitted / wall time (printed) moved
    /// by 2× between runs of the same code; CPU time leaves the lost
    /// time out. The client thread is left out because its cost per
    /// request rose by half when a second busy process shared the
    /// machine, against about a tenth for the engine's.
    fn admit_per_cpu_s(&self) -> f64 {
        stats::ratio(self.tally.admitted as f64, self.cpu_s)
    }
}

/// CPU seconds the process has used, less those of the calling thread.
/// Called from the client thread that drives a run, the difference over
/// the run is the CPU time of the program's own threads.
fn program_cpu_s() -> f64 {
    stats::process_cpu_s() - stats::thread_cpu_s()
}

/// Request/response pairs the traced run times through the codec: the
/// run's own frames.
fn codec_pairs(spec: &Spec, prep: &Prepared) -> Vec<(Request, Response)> {
    if let Some(trace) = &prep.trace {
        return trace
            .events
            .iter()
            .take(CODEC_FRAMES)
            .map(|e| (Request::from(&e.event), Response::Ok))
            .collect();
    }
    // The load generator's lane geometry: lane g owns source (g / k,
    // g mod k) and unicasts one port up.
    let config = wire::load_config(spec, 0.0);
    let k = config.wavelengths;
    let lanes = (config.connections * config.lanes_per_conn) as u32;
    (0..lanes)
        .cycle()
        .take(CODEC_FRAMES / 2)
        .flat_map(|g| {
            let src = Endpoint::new(g / k, g % k);
            let dst = Endpoint::new((g / k + 1) % config.ports, g % k);
            [
                (
                    Request::Connect(MulticastConnection::unicast(src, dst)),
                    Response::Ok,
                ),
                (Request::Disconnect(src), Response::Ok),
            ]
        })
        .collect()
}

fn write_spans(spec: &Spec, seed: u64, spans: &[traced::Span]) -> std::io::Result<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/{}-seed{seed}.spans.tsv", spec.name);
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(
        out,
        "name\tstart_ns\tend_ns\tsrc\tseq\tverdict\tlen\tmoves_attempted\tmoves_committed"
    )?;
    for s in spans.iter().take(SPAN_FILE_CAP) {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{:?}\t{}\t{}\t{}",
            s.kind.name(),
            s.start_ns,
            s.end_ns,
            s.src,
            s.seq,
            s.verdict,
            s.len,
            s.moves_attempted,
            s.moves_committed
        )?;
    }
    out.flush()?;
    Ok(path)
}

fn print_checks(checks: &[Check]) {
    for c in checks {
        let verdict = if c.ok { "ok  " } else { "FAIL" };
        println!("check {verdict} {}: {}", c.name, c.detail);
    }
}

fn json_line(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                if m.value.is_finite() { m.value } else { 0.0 },
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempts.max(1),
        tally.errors,
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: admission-bench --workload <{}> --seed <n> [--seconds <s>] [--trace 0|1]",
                workload::WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!(
            "error: unknown workload {:?} (one of {})",
            args.workload,
            workload::WORKLOADS.join(", ")
        );
        std::process::exit(2);
    };
    match bench(&spec, &args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn print_header(spec: &Spec, args: &Args) {
    println!(
        "admission-bench workload={} seed={} seconds={} trace={}",
        spec.name, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "host: nproc {}, {}, git rev {}",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        env!("BENCH_RUSTC_VERSION"),
        git_rev()
    );
    println!(
        "fabric: three-stage n={} m={} r={} k={} (Theorem 1 bound m={}), engine shards {}, \
         drive {:?}, repack {:?}",
        workload::N,
        spec.m,
        workload::R,
        workload::K,
        workload::bound_m(),
        spec.shards,
        spec.drive,
        spec.repack
    );
    if matches!(spec.drive, Drive::Wire { .. }) {
        println!("reactor shards {}", wire::reactor_config().shards);
    }
}

/// One phase of set-ups: for [`SETUP_PHASE_S`] and at least
/// [`SETUP_MIN_REPS`] times. Appends each set-up's seconds to `setups`.
fn time_setups(spec: &Spec, setups: &mut Vec<f64>) -> Result<(), String> {
    let t = Instant::now();
    let mut reps = 0;
    while reps < SETUP_MIN_REPS || t.elapsed().as_secs_f64() < SETUP_PHASE_S {
        setups.push(setup_once(spec).map_err(|e| format!("set-up: {e}"))?);
        reps += 1;
    }
    Ok(())
}

/// Run the workload (and, traced, once more) and print the report.
/// Returns whether every correctness check passed.
fn bench(spec: &Spec, args: &Args) -> Result<bool, String> {
    print_header(spec, args);
    let mut setups = Vec::new();
    time_setups(spec, &mut setups)?;
    let prep = prepare(spec, args.seed, workload::HORIZON);

    let mut base = run(workload::backend(spec.m), spec, &prep, args.seconds, false)?;
    let peak_rss_mib = stats::peak_rss_mib();
    time_setups(spec, &mut setups)?;
    let setup_s = stats::median_f64(&mut setups);
    println!(
        "set-up: median {setup_s} s over {} set-ups before and after the run",
        setups.len()
    );
    let attempts = base.tally.attempts as f64;
    let latency = stats::merged(&base.windows);
    let req_p99_us = stats::windowed_quantile(&base.windows, 0.99) / 1e3;
    let values = [
        base.admit_per_cpu_s(),
        stats::windowed_quantile(&base.windows, 0.5) / 1e3,
        stats::ratio(base.tally.admitted as f64, attempts),
        setup_s,
        peak_rss_mib,
    ];
    let end_to_end: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| metric(name, unit, value))
        .collect();
    // Printed beside the gated metrics, not gated: the tail is not
    // steady on a shared two-core host, and the verdict ratios are 0 on
    // most workloads.
    let beside = [
        metric("req_p99_us", "us", req_p99_us),
        metric(
            "block_ratio",
            "ratio",
            stats::ratio(base.tally.blocked as f64, attempts),
        ),
        metric(
            "error_ratio",
            "ratio",
            stats::ratio(base.tally.errors as f64, attempts),
        ),
    ];
    println!(
        "untraced: {} connects over {:.2} s ({:.0} admitted/s) and {:.2} CPU-s; \
         admitted {} blocked {} errors {}",
        base.tally.attempts,
        base.wall_s,
        stats::ratio(base.tally.admitted as f64, base.wall_s),
        base.cpu_s,
        base.tally.admitted,
        base.tally.blocked,
        base.tally.errors
    );
    for m in end_to_end.iter().chain(&beside) {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "latency: {} samples in {} windows; {} beyond the whole-run p99 of {} us",
        latency.count(),
        base.windows.len(),
        latency.beyond(0.99),
        latency.quantile(0.99) / 1e3,
    );
    let s = &base.report.summary;
    println!(
        "engine: offered {} admitted {} blocked {} retried {} expired {} repack moves {}/{}",
        s.offered,
        s.admitted,
        s.blocked,
        s.retried,
        s.expired,
        s.repack_moves_committed,
        s.repack_moves_attempted
    );
    let mut checks = std::mem::take(&mut base.checks);

    let (tally, metrics) = if args.trace {
        let mut t = run(
            traced::Traced::new(workload::backend(spec.m)),
            spec,
            &prep,
            args.seconds,
            true,
        )?;
        checks.append(&mut t.checks);
        let rtt = stats::merged(&t.windows);
        let overhead_ratio = stats::ratio(t.admit_per_cpu_s(), base.admit_per_cpu_s());
        let spans = t.report.backend.into_spans();
        let metrics = layers::per_layer(layers::Inputs {
            spans: &spans,
            summary: &t.report.summary,
            tally: t.tally,
            wall_s: t.wall_s,
            records: &t.records,
            late: &t.late,
            reactor: t.reactor,
            wire_requests: t.wire_requests,
            wire_mean_rtt_ns: rtt.mean(),
            codec: layers::codec_cost(&codec_pairs(spec, &prep)),
            overhead_ratio,
            req_p99_us,
            req_p99_beyond: latency.beyond(0.99),
            latency_samples: latency.count(),
        });
        println!(
            "traced: {} connects over {:.2} s, {} spans",
            t.tally.attempts,
            t.wall_s,
            spans.len()
        );
        match write_spans(spec, args.seed, &spans) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => println!("spans not written: {e}"),
        }
        for m in &metrics {
            println!("layer {} = {} {}", m.name, m.value, m.unit);
        }
        (t.tally, metrics)
    } else {
        (base.tally, end_to_end)
    };
    print_checks(&checks);
    let correct = checks.iter().all(|c| c.ok);
    println!("{}", json_line(correct, tally, &metrics));
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_run(spec: &Spec) -> Run<wdm_multistage::ThreeStageNetwork> {
        let prep = prepare(spec, 11, 40.0);
        run(workload::backend(spec.m), spec, &prep, 0.3, false).expect("run")
    }

    fn failed(run: &Run<impl Sized>) -> Vec<&'static str> {
        run.checks
            .iter()
            .filter(|c| !c.ok)
            .map(|c| c.name)
            .collect()
    }

    #[test]
    fn a_short_run_of_every_workload_passes_its_checks() {
        for name in workload::WORKLOADS {
            let spec = workload::spec(name).expect("known workload");
            let run = short_run(&spec);
            assert!(run.tally.attempts > 0, "{name} offered nothing");
            assert!(failed(&run).is_empty(), "{name}: {:?}", run.checks);
        }
    }

    /// Every value of `"key": "value"` in `text`, in order.
    fn values_of<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
        let pat = format!("\"{key}\": \"");
        text.split(pat.as_str())
            .skip(1)
            .map(|rest| rest.split('"').next().expect("closing quote"))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_benchmark_reports() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let (head, per_layer) = json.split_once("\"per_layer\"").expect("per_layer");
        let (workloads, end_to_end) = head.split_once("\"end_to_end\"").expect("end_to_end");
        let pairs = |text| {
            values_of(text, "name")
                .into_iter()
                .zip(values_of(text, "unit"))
        };
        assert!(pairs(end_to_end).eq(END_TO_END));
        assert!(pairs(per_layer).eq(layers::PER_LAYER));
        for name in values_of(workloads, "name") {
            assert!(workload::spec(name).is_some(), "{name}");
        }
    }

    #[test]
    fn at_bound_check_trips_when_a_starved_m_is_forced_in() {
        let spec = Spec {
            m: 8,
            ..workload::spec("clos-bound").expect("known workload")
        };
        let run = short_run(&spec);
        assert!(run.tally.blocked > 0, "m = 8 blocks on this trace");
        assert_eq!(failed(&run), ["theorem1-no-block"]);
    }

    #[test]
    fn traced_run_records_every_backend_call() {
        let spec = workload::spec("clos-starved-repack").expect("known workload");
        let prep = prepare(&spec, 11, 40.0);
        let t = run(
            traced::Traced::new(workload::backend(spec.m)),
            &spec,
            &prep,
            0.3,
            true,
        )
        .expect("run");
        assert!(t.checks.iter().all(|c| c.ok), "{:?}", t.checks);
        let spans = t.report.backend.into_spans();
        let connects = spans
            .iter()
            .filter(|s| s.kind == traced::SpanKind::ConnectWithRepack)
            .count() as u64;
        assert_eq!(
            connects, t.tally.attempts,
            "one repack-assisted call per connect"
        );
        assert_eq!(t.records.len() as u64, t.tally.attempts);
    }
}
