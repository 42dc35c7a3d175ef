//! The traced run's instrument: a [`Backend`] wrapper that forwards
//! every trait method to the backend it wraps and records one span per
//! call into the backend layer.
//!
//! Spans live in memory and are handed back when the engine drains
//! (the engine returns its backend in the report). A request is
//! identified the way the client identifies it: source endpoint plus a
//! per-source sequence number. A connect that follows a `Busy` verdict
//! for the same source is a retry of the same request, so it keeps the
//! sequence number; any other connect starts a new one.

use std::sync::{Mutex, OnceLock};
use std::time::Instant;
use wdm_core::{Endpoint, Fault, MulticastConnection, Reject};
use wdm_runtime::{Backend, ConcurrentAdmission, RepackStats};

/// Nanoseconds since the first call in this process: the one clock
/// the client and the wrapper share, so their timestamps join.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Which backend entry point a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    Connect,
    ConnectWithRepack,
    Disconnect,
    ConnectBatch,
    DisconnectBatch,
    Defragment,
    Check,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Connect => "connect",
            SpanKind::ConnectWithRepack => "connect_with_repack",
            SpanKind::Disconnect => "disconnect",
            SpanKind::ConnectBatch => "connect_batch",
            SpanKind::DisconnectBatch => "disconnect_batch",
            SpanKind::Defragment => "defragment",
            SpanKind::Check => "check",
        }
    }
}

/// Verdict of the timed call, as far as the analysis needs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Busy,
    Blocked,
    Other,
}

impl Verdict {
    fn of(res: &Result<(), Reject>) -> Verdict {
        match res {
            Ok(()) => Verdict::Ok,
            Err(Reject::Busy(_)) => Verdict::Busy,
            Err(Reject::Blocked { .. }) => Verdict::Blocked,
            Err(_) => Verdict::Other,
        }
    }
}

/// One timed backend call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: SpanKind,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Source endpoint index (`port · k + wavelength`); `u32::MAX` for
    /// calls that belong to no single request (batches, defragment,
    /// check).
    pub src: u32,
    /// Per-source request sequence number.
    pub seq: u32,
    pub verdict: Verdict,
    /// Request count for batch calls, 1 otherwise.
    pub len: u32,
    pub moves_attempted: u32,
    pub moves_committed: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Log {
    spans: Vec<Span>,
    /// Requests begun per source endpoint.
    seq: Vec<u32>,
    /// The source's last connect was refused `Busy`: the next connect
    /// is its retry.
    retry_next: Vec<bool>,
}

impl Log {
    /// Sequence number for a connect from `src`, opening a new request
    /// unless this is a retry.
    fn connect_seq(&mut self, src: usize) -> u32 {
        if src >= self.seq.len() {
            self.seq.resize(src + 1, 0);
            self.retry_next.resize(src + 1, false);
        }
        if !self.retry_next[src] {
            self.seq[src] += 1;
        }
        self.seq[src] - 1
    }

    fn current_seq(&self, src: usize) -> u32 {
        self.seq.get(src).copied().unwrap_or(1).saturating_sub(1)
    }

    fn set_retry(&mut self, src: usize, verdict: Verdict) {
        if let Some(flag) = self.retry_next.get_mut(src) {
            *flag = verdict == Verdict::Busy;
        }
    }
}

/// A backend whose every call is timed. The traced program takes the
/// same code paths as the untraced one: each method forwards to the
/// wrapped backend's own implementation.
pub struct Traced<B> {
    inner: B,
    wavelengths: u32,
    log: Mutex<Log>,
}

impl<B: Backend> Traced<B> {
    pub fn new(inner: B) -> Self {
        let wavelengths = inner.wavelengths().max(1);
        Traced {
            inner,
            wavelengths,
            log: Mutex::new(Log::default()),
        }
    }

    /// Hand back the recorded spans, in call order.
    pub fn into_spans(self) -> Vec<Span> {
        self.log.into_inner().expect("span log poisoned").spans
    }

    fn key(&self, ep: Endpoint) -> usize {
        endpoint_key(ep, self.wavelengths) as usize
    }

    fn log(&self) -> std::sync::MutexGuard<'_, Log> {
        self.log.lock().expect("span log poisoned")
    }

    fn push(&self, span: Span) {
        self.log().spans.push(span);
    }
}

/// Endpoint index of `ep` on a fabric with `wavelengths` per port — the
/// client's and the wrapper's shared request key.
pub fn endpoint_key(ep: Endpoint, wavelengths: u32) -> u32 {
    ep.port.0 * wavelengths + ep.wavelength.0
}

impl<B: Backend> Backend for Traced<B> {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn ports_per_module(&self) -> u32 {
        self.inner.ports_per_module()
    }

    fn wavelengths(&self) -> u32 {
        self.inner.wavelengths()
    }

    fn connect(&mut self, conn: &MulticastConnection) -> Result<(), Reject> {
        let src = self.key(conn.source());
        let seq = self.log().connect_seq(src);
        let start_ns = now_ns();
        let res = self.inner.connect(conn);
        let end_ns = now_ns();
        let verdict = Verdict::of(&res);
        let mut log = self.log();
        log.set_retry(src, verdict);
        log.spans.push(Span {
            kind: SpanKind::Connect,
            start_ns,
            end_ns,
            src: src as u32,
            seq,
            verdict,
            len: 1,
            moves_attempted: 0,
            moves_committed: 0,
        });
        res
    }

    fn disconnect(&mut self, src: Endpoint) -> Result<(), Reject> {
        let key = self.key(src);
        let start_ns = now_ns();
        let res = self.inner.disconnect(src);
        let end_ns = now_ns();
        let mut log = self.log();
        let seq = log.current_seq(key);
        log.spans.push(Span {
            kind: SpanKind::Disconnect,
            start_ns,
            end_ns,
            src: key as u32,
            seq,
            verdict: Verdict::of(&res),
            len: 1,
            moves_attempted: 0,
            moves_committed: 0,
        });
        res
    }

    fn connect_batch(&mut self, conns: &[MulticastConnection]) -> Vec<Result<(), Reject>> {
        let keys: Vec<usize> = conns.iter().map(|c| self.key(c.source())).collect();
        {
            let mut log = self.log();
            for &k in &keys {
                log.connect_seq(k);
            }
        }
        let start_ns = now_ns();
        let verdicts = self.inner.connect_batch(conns);
        let end_ns = now_ns();
        let mut log = self.log();
        for (&k, v) in keys.iter().zip(&verdicts) {
            log.set_retry(k, Verdict::of(v));
        }
        log.spans.push(batch_span(
            SpanKind::ConnectBatch,
            start_ns,
            end_ns,
            conns.len(),
        ));
        verdicts
    }

    fn disconnect_batch(&mut self, srcs: &[Endpoint]) -> Vec<Result<(), Reject>> {
        let start_ns = now_ns();
        let verdicts = self.inner.disconnect_batch(srcs);
        let end_ns = now_ns();
        self.push(batch_span(
            SpanKind::DisconnectBatch,
            start_ns,
            end_ns,
            srcs.len(),
        ));
        verdicts
    }

    fn connect_with_repack(
        &mut self,
        conn: &MulticastConnection,
        budget: u32,
    ) -> (Result<(), Reject>, RepackStats) {
        let src = self.key(conn.source());
        let seq = self.log().connect_seq(src);
        let start_ns = now_ns();
        let (res, stats) = self.inner.connect_with_repack(conn, budget);
        let end_ns = now_ns();
        let verdict = Verdict::of(&res);
        let mut log = self.log();
        log.set_retry(src, verdict);
        log.spans.push(Span {
            kind: SpanKind::ConnectWithRepack,
            start_ns,
            end_ns,
            src: src as u32,
            seq,
            verdict,
            len: 1,
            moves_attempted: stats.moves_attempted,
            moves_committed: stats.moves_committed,
        });
        (res, stats)
    }

    fn defragment(&mut self, budget: u32) -> RepackStats {
        let start_ns = now_ns();
        let stats = self.inner.defragment(budget);
        let end_ns = now_ns();
        let mut span = batch_span(SpanKind::Defragment, start_ns, end_ns, 0);
        span.moves_attempted = stats.moves_attempted;
        span.moves_committed = stats.moves_committed;
        self.push(span);
        stats
    }

    fn active_connections(&self) -> usize {
        self.inner.active_connections()
    }

    fn middle_loads(&self) -> Vec<u64> {
        self.inner.middle_loads()
    }

    fn inject_fault(&mut self, fault: Fault) -> Vec<MulticastConnection> {
        self.inner.inject_fault(fault)
    }

    fn repair_fault(&mut self, fault: Fault) -> bool {
        self.inner.repair_fault(fault)
    }

    fn check(&self) -> Vec<String> {
        let start_ns = now_ns();
        let findings = self.inner.check();
        let end_ns = now_ns();
        self.push(batch_span(SpanKind::Check, start_ns, end_ns, 0));
        findings
    }

    fn as_concurrent(&self) -> Option<&dyn ConcurrentAdmission> {
        self.inner.as_concurrent()
    }
}

fn batch_span(kind: SpanKind, start_ns: u64, end_ns: u64, len: usize) -> Span {
    Span {
        kind,
        start_ns,
        end_ns,
        src: u32::MAX,
        seq: 0,
        verdict: Verdict::Ok,
        len: len as u32,
        moves_attempted: 0,
        moves_committed: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_core::MulticastModel;
    use wdm_multistage::{Construction, ThreeStageNetwork, ThreeStageParams};

    fn traced() -> Traced<ThreeStageNetwork> {
        let p = ThreeStageParams::new(2, 3, 2, 2);
        Traced::new(ThreeStageNetwork::new(
            p,
            Construction::MswDominant,
            MulticastModel::Msw,
        ))
    }

    #[test]
    fn forwards_and_numbers_requests_per_source() {
        let mut b = traced();
        let conn = MulticastConnection::unicast(Endpoint::new(0, 1), Endpoint::new(3, 1));
        assert!(b.connect(&conn).is_ok());
        assert!(b.disconnect(conn.source()).is_ok());
        assert!(b.connect_with_repack(&conn, 2).0.is_ok());
        assert!(b.check().is_empty());
        assert_eq!(b.active_connections(), 1);
        let spans = b.into_spans();
        let kinds: Vec<SpanKind> = spans.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            [
                SpanKind::Connect,
                SpanKind::Disconnect,
                SpanKind::ConnectWithRepack,
                SpanKind::Check
            ]
        );
        // A disconnect carries the sequence number of the request it ends.
        let seqs: Vec<u32> = spans[..3].iter().map(|s| s.seq).collect();
        assert_eq!(seqs, [0, 0, 1]);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn busy_connect_keeps_its_sequence_number() {
        let mut log = Log::default();
        let first = log.connect_seq(5);
        log.set_retry(5, Verdict::Busy);
        assert_eq!(log.connect_seq(5), first, "retry of the same request");
        log.set_retry(5, Verdict::Ok);
        assert_eq!(log.connect_seq(5), first + 1);
    }
}
