//! In-process load: the trace streamed into an `AdmissionEngine`
//! either as a closed loop (a sliding window of tracked requests) or as
//! an open loop (each event due at its scaled trace time).

use crate::stats::Hist;
use crate::traced::{endpoint_key, now_ns};
use crate::workload::{event_at, time_at, Drive, Spec, Trace, K, N, R};
use std::sync::mpsc;
use std::time::Duration;
use wdm_core::Endpoint;
use wdm_runtime::{Backend, RequestOutcome, RuntimeReport};
use wdm_workload::{TimedEvent, TraceEvent};

/// How long the client waits for an outstanding completion before it
/// counts the request as lost. Longer than the engine's 5 s deadline.
const LOST_AFTER: Duration = Duration::from_secs(30);

/// One resolved request, as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub is_connect: bool,
    /// Source endpoint key and per-source request sequence number: the
    /// join key with the backend wrapper's spans.
    pub src: u32,
    pub seq: u32,
    pub sent_ns: u64,
    /// When the request was due (open loop); equals `sent_ns` otherwise.
    pub due_ns: u64,
    pub done_ns: u64,
    pub outcome: RequestOutcome,
}

/// Connect verdicts as the client counts them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempts: u64,
    pub admitted: u64,
    pub blocked: u64,
    /// Anything but `Admitted` or `Blocked`, lost requests included.
    pub errors: u64,
}

/// What one driven run produced on the client side.
#[derive(Default)]
pub struct Driven {
    /// Stream events submitted (the replayed prefix).
    pub submitted: usize,
    pub tally: Tally,
    /// Disconnects that did not resolve as a departure.
    pub bad_departures: u64,
    /// Requests whose completion never arrived.
    pub lost: u64,
    /// Connect latencies, from send (closed loop) or due time (open
    /// loop), grouped into one-second windows of that time.
    pub windows: Vec<Hist>,
    /// Open loop: how late each event was sent.
    pub late: Hist,
    /// Resolved connects, kept for the traced run's join.
    pub records: Vec<Done>,
    pub wall_s: f64,
}

impl Driven {
    fn record(&mut self, d: Done, start_ns: u64, keep: bool) {
        if !d.is_connect {
            if !matches!(
                d.outcome,
                RequestOutcome::Departed | RequestOutcome::SkippedDeparture
            ) {
                self.bad_departures += 1;
            }
            return;
        }
        self.tally.attempts += 1;
        match d.outcome {
            RequestOutcome::Admitted => self.tally.admitted += 1,
            RequestOutcome::Blocked => self.tally.blocked += 1,
            _ => self.tally.errors += 1,
        }
        let window = ((d.due_ns - start_ns) / 1_000_000_000) as usize;
        if self.windows.len() <= window {
            self.windows.resize_with(window + 1, Hist::default);
        }
        self.windows[window].record(d.done_ns.saturating_sub(d.due_ns));
        if keep {
            self.records.push(d);
        }
    }
}

/// Submits stream events with a completion callback each.
struct Submitter<'a, B: Backend> {
    engine: &'a wdm_runtime::AdmissionEngine<B>,
    tx: mpsc::Sender<Done>,
    /// Connect requests begun per source endpoint.
    seqs: Vec<u32>,
    /// Sources whose last submitted event is a connect.
    live: Vec<Option<Endpoint>>,
}

impl<B: Backend> Submitter<'_, B> {
    /// Submit stream event `i`; `due_ns` of 0 means "due when sent".
    fn submit(&mut self, trace: &Trace, i: usize, due_ns: u64) {
        self.submit_event(event_at(trace, i), due_ns);
    }

    fn submit_event(&mut self, ev: TimedEvent, due_ns: u64) {
        let (is_connect, ep) = match &ev.event {
            TraceEvent::Connect(c) => (true, c.source()),
            TraceEvent::Disconnect(s) => (false, *s),
        };
        let src = endpoint_key(ep, K);
        self.live[src as usize] = is_connect.then_some(ep);
        let slot = &mut self.seqs[src as usize];
        let seq = if is_connect {
            *slot += 1;
            *slot - 1
        } else {
            slot.saturating_sub(1)
        };
        let tx = self.tx.clone();
        let sent_ns = now_ns();
        let due_ns = if due_ns == 0 { sent_ns } else { due_ns };
        let _ = self.engine.submit_tracked(
            ev,
            Box::new(move |outcome| {
                let _ = tx.send(Done {
                    is_connect,
                    src,
                    seq,
                    sent_ns,
                    due_ns,
                    done_ns: now_ns(),
                    outcome,
                });
            }),
        );
    }

    /// Close the stream where the run cut it: submit the departure of
    /// every connection still open, so that no occupant outlives the run
    /// and the fabric drains empty. Returns the requests submitted.
    fn close(&mut self, time: f64) -> usize {
        let open: Vec<Endpoint> = self.live.iter().flatten().copied().collect();
        for &src in &open {
            self.submit_event(
                TimedEvent {
                    time,
                    event: TraceEvent::Disconnect(src),
                },
                0,
            );
        }
        open.len()
    }
}

/// Completion intake: records resolved requests.
struct Intake {
    rx: mpsc::Receiver<Done>,
    start: u64,
    keep_records: bool,
    outstanding: usize,
}

impl Intake {
    fn take(&mut self, out: &mut Driven, d: Done) {
        out.record(d, self.start, self.keep_records);
        self.outstanding -= 1;
    }

    /// Record whatever has resolved, without waiting.
    fn poll(&mut self, out: &mut Driven) {
        while self.outstanding > 0 {
            match self.rx.try_recv() {
                Ok(d) => self.take(out, d),
                Err(_) => return,
            }
        }
    }

    /// Wait for one resolution, then poll. `false` if none arrived in
    /// [`LOST_AFTER`].
    fn wait_one(&mut self, out: &mut Driven) -> bool {
        if self.outstanding == 0 {
            return true;
        }
        match self.rx.recv_timeout(LOST_AFTER) {
            Ok(d) => self.take(out, d),
            Err(_) => return false,
        }
        self.poll(out);
        true
    }
}

/// Stream `trace` (repeated pass after pass) into a fresh engine over
/// `backend` for `seconds`, close the stream, wait for every
/// outstanding request, and drain. `keep_records` keeps each resolved
/// connect for the traced run's join.
pub fn drive<B: Backend>(
    backend: B,
    spec: &Spec,
    trace: &Trace,
    seconds: f64,
    keep_records: bool,
) -> (RuntimeReport<B>, Driven) {
    let engine = spec.engine().start(backend);
    let (tx, rx) = mpsc::channel::<Done>();
    let endpoints = (N * R * K) as usize;
    let mut sub = Submitter {
        engine: &engine,
        tx,
        seqs: vec![0; endpoints],
        live: vec![None; endpoints],
    };
    let mut out = Driven::default();
    let run_ns = (seconds * 1e9) as u64;
    let start = now_ns();
    let mut intake = Intake {
        rx,
        start,
        keep_records,
        outstanding: 0,
    };
    match spec.drive {
        Drive::Closed { window } => {
            while now_ns() - start < run_ns {
                while intake.outstanding < window && now_ns() - start < run_ns {
                    sub.submit(trace, out.submitted, 0);
                    out.submitted += 1;
                    intake.outstanding += 1;
                }
                if !intake.wait_one(&mut out) {
                    break;
                }
            }
        }
        Drive::Open { connects_per_s } => {
            // Trace time → wall time, so that connects fall due at
            // `connects_per_s`. The first event is due 1 ms after start.
            let connects_per_unit = trace.connects() as f64 / trace.period;
            let ns_per_unit = 1e9 * connects_per_unit / connects_per_s;
            let t0 = start + 1_000_000;
            loop {
                let i = out.submitted;
                let due = t0 + (time_at(trace, i) * ns_per_unit) as u64;
                if due - start >= run_ns {
                    break;
                }
                let mut now = now_ns();
                while now < due {
                    intake.poll(&mut out);
                    let gap = due - now;
                    if gap > 100_000 {
                        std::thread::sleep(Duration::from_nanos(gap - 60_000));
                    } else {
                        std::thread::yield_now();
                    }
                    now = now_ns();
                }
                out.late.record(now - due);
                sub.submit(trace, i, due);
                out.submitted += 1;
                intake.outstanding += 1;
            }
        }
        Drive::Wire { .. } => unreachable!("wire workloads run through the reactor"),
    }
    intake.outstanding += sub.close(time_at(trace, out.submitted));
    while intake.outstanding > 0 && intake.wait_one(&mut out) {}
    out.wall_s = (now_ns() - start) as f64 / 1e9;
    out.lost = intake.outstanding as u64;
    out.tally.errors += out.lost;
    drop(sub);
    (engine.drain(), out)
}
