//! Per-layer metrics of a traced run, named after the crates: the
//! backend (`multistage`), the engine (`runtime.engine`), the wire
//! (`net.codec`, `net.reactor`) and the benchmark's own client
//! (`client`).
//!
//! Everything here is measured from outside the program: spans of the
//! backend wrapper, client timestamps joined to them by request, the
//! engine's drain snapshot, reactor counter deltas, and timed calls to
//! the codec functions on the run's own frames.

use crate::inproc::{Done, Tally};
use crate::stats::{quantile, ratio, Hist};
use crate::traced::{Span, SpanKind, Verdict};
use crate::wire::ReactorDelta;
use std::collections::HashMap;
use std::time::Instant;
use wdm_net::codec::{decode_request, decode_response, encode_request_v, encode_response_v};
use wdm_net::{codec, Request, Response, WIRE_VERSION};
use wdm_runtime::MetricsSnapshot;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Every per-layer metric the traced run reports, in report order.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("multistage.connect_ns_p50", "ns"),
    ("multistage.connect_ns_p99", "ns"),
    ("multistage.disconnect_ns_p50", "ns"),
    ("multistage.busy_share", "ratio"),
    ("multistage.batch_len_mean", "count"),
    ("multistage.self_us_mean", "us"),
    ("multistage.repack_ns_p50", "ns"),
    ("multistage.repack_ns_p99", "ns"),
    ("multistage.repack_moves_per_block", "count"),
    ("multistage.repack_commit_ratio", "ratio"),
    ("runtime.engine.queue_us_p50", "us"),
    ("runtime.engine.queue_us_p99", "us"),
    ("runtime.engine.complete_us_p50", "us"),
    ("runtime.engine.self_us_mean", "us"),
    ("runtime.engine.connect_attempts_per_admit", "ratio"),
    ("runtime.engine.parked_wait_us_p99", "us"),
    ("runtime.engine.retried", "count"),
    ("runtime.engine.expired", "count"),
    ("net.codec.encode_req_ns", "ns"),
    ("net.codec.decode_req_ns", "ns"),
    ("net.codec.encode_resp_ns", "ns"),
    ("net.codec.decode_resp_ns", "ns"),
    ("net.codec.bytes_per_req", "bytes"),
    ("net.reactor.frames_per_wakeup", "count"),
    ("net.reactor.batch_mean", "count"),
    ("net.reactor.wakeups_per_kreq", "count"),
    ("net.reactor.eagain_writes", "count"),
    ("net.reactor.shed", "count"),
    ("net.self_us_mean", "us"),
    ("client.late_p99_us", "us"),
    ("client.req_p99_us", "us"),
    ("client.req_p99_beyond", "count"),
    ("client.block_ratio", "ratio"),
    ("client.error_ratio", "ratio"),
    ("client.latency_samples", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Everything the per-layer analysis reads.
pub struct Inputs<'a> {
    pub spans: &'a [Span],
    pub summary: &'a MetricsSnapshot,
    pub tally: Tally,
    pub wall_s: f64,
    /// In-process runs: resolved connects with client timestamps.
    pub records: &'a [Done],
    /// Open loop: how late each event was sent.
    pub late: &'a Hist,
    /// Wire runs: reactor deltas, request frames, mean client round
    /// trip of a request.
    pub reactor: Option<ReactorDelta>,
    pub wire_requests: u64,
    pub wire_mean_rtt_ns: f64,
    pub codec: CodecCost,
    /// Traced over untraced `admit_per_cpu_s` of the same workload.
    pub overhead_ratio: f64,
    /// The untraced run's latency tail: p99 (median over windows), the
    /// samples beyond the whole-run p99, and the sample count.
    pub req_p99_us: f64,
    pub req_p99_beyond: u64,
    pub latency_samples: u64,
}

/// Backend time of one request: its connect attempts.
#[derive(Debug, Clone, Copy)]
struct Attempts {
    first_start: u64,
    last_end: u64,
    count: u32,
    busy_ns: u64,
}

fn is_attempt(s: &Span) -> bool {
    matches!(s.kind, SpanKind::Connect | SpanKind::ConnectWithRepack)
}

/// A repack-assisted connect that had to do repack work: its plain
/// attempt blocked, so it searched for moves.
fn did_repack(s: &Span) -> bool {
    s.kind == SpanKind::ConnectWithRepack
        && (s.moves_attempted > 0 || s.verdict == Verdict::Blocked)
}

/// Compute every metric of [`PER_LAYER`].
pub fn per_layer(inp: Inputs<'_>) -> Vec<Metric> {
    let spans = inp.spans;
    let mut plain: Vec<u64> = spans
        .iter()
        .filter(|s| is_attempt(s) && !did_repack(s))
        .map(Span::dur_ns)
        .collect();
    let mut repack: Vec<u64> = spans
        .iter()
        .filter(|s| did_repack(s))
        .map(Span::dur_ns)
        .collect();
    let repack_moves: u64 = spans
        .iter()
        .filter(|s| did_repack(s))
        .map(|s| s.moves_committed as u64)
        .sum();
    let mut disconnects: Vec<u64> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Disconnect)
        .map(Span::dur_ns)
        .collect();
    let batches: Vec<u32> = spans
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::ConnectBatch | SpanKind::DisconnectBatch))
        .map(|s| s.len)
        .collect();
    let busy_ns: u64 = spans
        .iter()
        .filter(|s| s.kind != SpanKind::Check)
        .map(Span::dur_ns)
        .sum();

    let mut requests: HashMap<(u32, u32), Attempts> = HashMap::new();
    for s in spans.iter().filter(|s| is_attempt(s)) {
        requests
            .entry((s.src, s.seq))
            .and_modify(|a| {
                a.last_end = s.end_ns;
                a.count += 1;
                a.busy_ns += s.dur_ns();
            })
            .or_insert(Attempts {
                first_start: s.start_ns,
                last_end: s.end_ns,
                count: 1,
                busy_ns: s.dur_ns(),
            });
    }
    let attempt_count: u64 = requests.values().map(|a| a.count as u64).sum();
    let request_busy_ns: u64 = requests.values().map(|a| a.busy_ns).sum();
    let mut parked_wait: Vec<u64> = requests
        .values()
        .filter(|a| a.count > 1)
        .map(|a| a.last_end - a.first_start)
        .collect();

    // The client's timestamps joined to the backend spans by request.
    let mut queue = Vec::with_capacity(inp.records.len());
    let mut complete = Vec::with_capacity(inp.records.len());
    let mut engine_self_ns = 0u64;
    for d in inp.records {
        if let Some(a) = requests.get(&(d.src, d.seq)) {
            queue.push(a.first_start.saturating_sub(d.sent_ns));
            complete.push(d.done_ns.saturating_sub(a.last_end));
            engine_self_ns += (d.done_ns.saturating_sub(d.sent_ns)).saturating_sub(a.busy_ns);
        }
    }
    let joined = queue.len().max(1) as f64;

    let s = inp.summary;
    let r = inp.reactor.unwrap_or_default();
    let us = |ns: u64| ns as f64 / 1e3;
    let attempts = inp.tally.attempts as f64;
    let wire_self_us = if inp.reactor.is_some() {
        let backend_per_req = ratio(busy_ns as f64, inp.wire_requests as f64);
        (inp.wire_mean_rtt_ns - backend_per_req) / 1e3
    } else {
        0.0
    };
    let values: [f64; 36] = [
        quantile(&mut plain, 0.5) as f64,
        quantile(&mut plain, 0.99) as f64,
        quantile(&mut disconnects, 0.5) as f64,
        ratio(busy_ns as f64, inp.wall_s * 1e9),
        ratio(
            batches.iter().map(|&l| l as f64).sum(),
            batches.len() as f64,
        ),
        ratio(request_busy_ns as f64, requests.len() as f64) / 1e3,
        quantile(&mut repack, 0.5) as f64,
        quantile(&mut repack, 0.99) as f64,
        ratio(repack_moves as f64, repack.len() as f64),
        ratio(
            s.repack_moves_committed as f64,
            s.repack_moves_attempted as f64,
        ),
        us(quantile(&mut queue, 0.5)),
        us(quantile(&mut queue, 0.99)),
        us(quantile(&mut complete, 0.5)),
        if inp.records.is_empty() {
            0.0
        } else {
            engine_self_ns as f64 / joined / 1e3
        },
        ratio(attempt_count as f64, s.admitted as f64),
        us(quantile(&mut parked_wait, 0.99)),
        s.retried as f64,
        s.expired as f64,
        inp.codec.encode_req_ns,
        inp.codec.decode_req_ns,
        inp.codec.encode_resp_ns,
        inp.codec.decode_resp_ns,
        inp.codec.bytes_per_req,
        ratio(r.frames as f64, r.wakeups as f64),
        ratio(r.coalesced_events as f64, r.coalesced_batches as f64),
        ratio(r.wakeups as f64 * 1e3, inp.wire_requests as f64),
        r.eagain_writes as f64,
        r.shed as f64,
        wire_self_us,
        inp.late.quantile(0.99) / 1e3,
        inp.req_p99_us,
        inp.req_p99_beyond as f64,
        ratio(inp.tally.blocked as f64, attempts),
        ratio(inp.tally.errors as f64, attempts),
        inp.latency_samples as f64,
        inp.overhead_ratio,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect()
}

/// Mean cost of the codec functions on a set of request/response pairs.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecCost {
    pub encode_req_ns: f64,
    pub decode_req_ns: f64,
    pub encode_resp_ns: f64,
    pub decode_resp_ns: f64,
    pub bytes_per_req: f64,
}

/// Rounds over the frame set; the median round is reported.
const CODEC_ROUNDS: usize = 5;

/// Time `encode_request_v`, `read_frame` + `decode_request`,
/// `encode_response_v` and `read_frame` + `decode_response` over
/// `pairs`, per frame. Panics if a frame does not decode back to what
/// was encoded.
pub fn codec_cost(pairs: &[(Request, Response)]) -> CodecCost {
    if pairs.is_empty() {
        return CodecCost::default();
    }
    let n = pairs.len() as f64;
    let req_frames: Vec<Vec<u8>> = pairs
        .iter()
        .enumerate()
        .map(|(i, (q, _))| encode_request_v(WIRE_VERSION, i as u64, q))
        .collect();
    let resp_frames: Vec<Vec<u8>> = pairs
        .iter()
        .enumerate()
        .map(|(i, (_, r))| encode_response_v(WIRE_VERSION, i as u64, r))
        .collect();
    for (i, (q, r)) in pairs.iter().enumerate() {
        let frame = codec::read_frame(&mut &req_frames[i][..]).expect("request frame");
        assert_eq!(&decode_request(&frame).expect("request decodes"), q);
        let frame = codec::read_frame(&mut &resp_frames[i][..]).expect("response frame");
        assert_eq!(&decode_response(&frame).expect("response decodes"), r);
    }
    let per_frame = |f: &mut dyn FnMut() -> usize| -> f64 {
        let mut rounds: Vec<f64> = (0..CODEC_ROUNDS)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(f());
                t.elapsed().as_nanos() as f64 / n
            })
            .collect();
        crate::stats::median_f64(&mut rounds)
    };
    CodecCost {
        encode_req_ns: per_frame(&mut || {
            pairs
                .iter()
                .enumerate()
                .map(|(i, (q, _))| encode_request_v(WIRE_VERSION, i as u64, q).len())
                .sum()
        }),
        decode_req_ns: per_frame(&mut || {
            req_frames
                .iter()
                .map(|b| {
                    let frame = codec::read_frame(&mut &b[..]).expect("request frame");
                    std::hint::black_box(decode_request(&frame).is_ok()) as usize
                })
                .sum()
        }),
        encode_resp_ns: per_frame(&mut || {
            pairs
                .iter()
                .enumerate()
                .map(|(i, (_, r))| encode_response_v(WIRE_VERSION, i as u64, r).len())
                .sum()
        }),
        decode_resp_ns: per_frame(&mut || {
            resp_frames
                .iter()
                .map(|b| {
                    let frame = codec::read_frame(&mut &b[..]).expect("response frame");
                    std::hint::black_box(decode_response(&frame).is_ok()) as usize
                })
                .sum()
        }),
        bytes_per_req: req_frames.iter().map(Vec::len).sum::<usize>() as f64 / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_core::{Endpoint, MulticastConnection};

    fn span(kind: SpanKind, start_ns: u64, end_ns: u64, seq: u32, verdict: Verdict) -> Span {
        Span {
            kind,
            start_ns,
            end_ns,
            src: 3,
            seq,
            verdict,
            len: 1,
            moves_attempted: 0,
            moves_committed: 0,
        }
    }

    #[test]
    fn spans_join_client_records_by_request() {
        let spans = [
            span(SpanKind::Connect, 100, 110, 0, Verdict::Busy),
            span(SpanKind::Connect, 300, 320, 0, Verdict::Ok),
            span(SpanKind::Disconnect, 400, 405, 0, Verdict::Ok),
        ];
        let metrics = wdm_runtime::RuntimeMetrics::new(1);
        metrics
            .admitted
            .store(1, std::sync::atomic::Ordering::Relaxed);
        let summary = metrics.snapshot(0.0, 0, Vec::new());
        let records = [Done {
            is_connect: true,
            src: 3,
            seq: 0,
            sent_ns: 90,
            due_ns: 90,
            done_ns: 330,
            outcome: wdm_runtime::RequestOutcome::Admitted,
        }];
        let metrics = per_layer(Inputs {
            spans: &spans,
            summary: &summary,
            tally: Tally {
                attempts: 1,
                admitted: 1,
                ..Tally::default()
            },
            wall_s: 1e-6,
            records: &records,
            late: &Hist::default(),
            reactor: None,
            wire_requests: 0,
            wire_mean_rtt_ns: 0.0,
            codec: CodecCost::default(),
            overhead_ratio: 1.0,
            req_p99_us: 0.0,
            req_p99_beyond: 0,
            latency_samples: 1,
        });
        let get = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(get("runtime.engine.queue_us_p50"), 0.01);
        assert_eq!(get("runtime.engine.complete_us_p50"), 0.01);
        assert_eq!(get("runtime.engine.connect_attempts_per_admit"), 2.0);
        assert_eq!(get("runtime.engine.parked_wait_us_p99"), 0.22);
        // 240 ns end to end, 30 ns of it in the backend.
        assert_eq!(get("runtime.engine.self_us_mean"), 0.21);
        assert_eq!(get("multistage.busy_share"), 0.035);
    }

    #[test]
    fn codec_cost_round_trips_frames() {
        let conn = MulticastConnection::unicast(Endpoint::new(0, 1), Endpoint::new(9, 1));
        let pairs = vec![
            (Request::Connect(conn), Response::Ok),
            (Request::Disconnect(Endpoint::new(0, 1)), Response::Ok),
        ];
        let cost = codec_cost(&pairs);
        assert!(cost.bytes_per_req > 16.0);
        assert!(cost.encode_req_ns > 0.0);
    }
}
