//! The five workloads, the loaded multicast trace they replay, and the
//! serial replay that fixes the verdicts a one-shard run must reproduce.

use wdm_core::{MulticastModel, Reject};
use wdm_multistage::{bounds, Construction, ThreeStageNetwork, ThreeStageParams};
use wdm_runtime::{Backend, EngineBuilder, RepackPolicy};
use wdm_workload::{close_trace, DynamicTraffic, TimedEvent, TraceEvent};

/// Ports per input/output module.
pub const N: u32 = 8;
/// Input/output modules per side.
pub const R: u32 = 16;
/// Wavelengths per fiber.
pub const K: u32 = 4;
/// Offered load of the multicast trace, in Erlangs (holding time 1).
pub const ERLANGS: f64 = 40.0;
/// Fanout cap of the multicast trace. Unbounded fanout makes trace
/// generation take minutes.
pub const MAX_FANOUT: usize = 16;
/// Trace time of one generated pass; a run replays the pass as often as
/// its time allows. 1000 units hold about 40,000 connects.
pub const HORIZON: f64 = 1000.0;
/// Repack budget of the starved workload.
pub const REPACK_BUDGET: u32 = 4;

/// How a workload offers its requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drive {
    /// In-process, the trace as one ordered stream with at most
    /// `window` tracked requests in flight.
    Closed { window: usize },
    /// In-process, each event due at its trace time, scaled so that
    /// connects are due at `connects_per_s`.
    Open { connects_per_s: f64 },
    /// Loopback TCP to a reactor server, driven by the workspace's load
    /// generator over `connections × lanes_per_conn` unicast lanes.
    Wire {
        connections: usize,
        lanes_per_conn: usize,
        pipeline: usize,
    },
}

/// One workload: the fabric, the engine, and the offered load.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Middle-stage switches.
    pub m: u32,
    /// Engine shards.
    pub shards: usize,
    pub repack: RepackPolicy,
    pub drive: Drive,
    /// The workload claims Theorem 1: no connect may block.
    pub at_bound: bool,
}

pub const WORKLOADS: [&str; 5] = [
    "clos-bound",
    "clos-starved-repack",
    "clos-contended",
    "wire-shallow",
    "wire-deep",
];

impl Spec {
    /// The engine every run of this workload starts.
    pub fn engine(&self) -> EngineBuilder {
        EngineBuilder::new()
            .shards(self.shards)
            .repack_policy(self.repack)
    }
}

/// The Theorem 1 bound on `m` for this geometry.
pub fn bound_m() -> u32 {
    bounds::theorem1_min_m(N, R).m
}

/// Threads the benchmark may give the engine or the reactor.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(2)
}

/// The workload named `name`.
pub fn spec(name: &str) -> Option<Spec> {
    let name = WORKLOADS.into_iter().find(|w| *w == name)?;
    let at_bound = Spec {
        name,
        m: bound_m(),
        shards: 1,
        repack: RepackPolicy::Off,
        drive: Drive::Closed { window: 64 },
        at_bound: true,
    };
    Some(match name {
        "clos-bound" => at_bound,
        "clos-starved-repack" => Spec {
            m: 8,
            repack: RepackPolicy::OnBlock {
                budget: REPACK_BUDGET,
            },
            at_bound: false,
            ..at_bound
        },
        // Two shards on purpose: cross-shard reordering is what makes
        // busy-endpoint park-and-retry do work.
        "clos-contended" => Spec {
            shards: 2,
            drive: Drive::Open {
                connects_per_s: 20_000.0,
            },
            ..at_bound
        },
        _ => Spec {
            shards: threads(),
            drive: Drive::Wire {
                connections: threads(),
                lanes_per_conn: if name == "wire-deep" { 64 } else { 16 },
                pipeline: 4,
            },
            ..at_bound
        },
    })
}

/// The default `wdmcast serve` backend at `m` middle switches: locked
/// three-stage, MSW model, MSW-dominant construction.
pub fn backend(m: u32) -> ThreeStageNetwork {
    ThreeStageNetwork::new(
        ThreeStageParams::new(N, m, R, K),
        Construction::MswDominant,
        MulticastModel::Msw,
    )
}

/// One pass of the loaded multicast trace, closed so that the fabric
/// is empty again when the pass ends.
pub struct Trace {
    pub events: Vec<TimedEvent>,
    /// Trace time one pass spans; pass `p` is offset by `p · period`.
    pub period: f64,
}

impl Trace {
    pub fn connects(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::Connect(_)))
            .count()
    }

    pub fn mean_fanout(&self) -> f64 {
        let (sum, n) = self
            .events
            .iter()
            .fold((0usize, 0usize), |(s, n), e| match &e.event {
                TraceEvent::Connect(c) => (s + c.fanout(), n + 1),
                TraceEvent::Disconnect(_) => (s, n),
            });
        sum as f64 / n.max(1) as f64
    }
}

/// `DynamicTraffic` at [`ERLANGS`], holding time 1, fanout ≤
/// [`MAX_FANOUT`], over `horizon` trace time.
pub fn mc40(seed: u64, horizon: f64) -> Trace {
    let net = ThreeStageParams::new(N, 1, R, K).network();
    let mut events = DynamicTraffic::new(net, MulticastModel::Msw, ERLANGS, 1.0, MAX_FANOUT, seed)
        .generate(horizon);
    close_trace(&mut events, horizon);
    Trace {
        events,
        period: horizon + 1.0,
    }
}

/// Verdict counts of a stream prefix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub admitted: u64,
    pub blocked: u64,
}

/// Replay one pass serially on a bare backend the way a one-shard
/// engine applies it (repack-assisted connects when `budget > 0`, the
/// departure of a refused connect skipped), and return the cumulative
/// verdict counts after each event.
pub fn serial_replay<B: Backend>(mut backend: B, trace: &Trace, budget: u32) -> Vec<Counts> {
    let mut refused = std::collections::HashSet::new();
    let mut counts = Counts::default();
    let mut out = Vec::with_capacity(trace.events.len());
    for ev in &trace.events {
        match &ev.event {
            TraceEvent::Connect(conn) => {
                let res = if budget == 0 {
                    backend.connect(conn)
                } else {
                    backend.connect_with_repack(conn, budget).0
                };
                match res {
                    Ok(()) => counts.admitted += 1,
                    Err(Reject::Blocked { .. }) => {
                        counts.blocked += 1;
                        refused.insert(conn.source());
                    }
                    Err(e) => panic!("serial replay refused a legal request: {e}"),
                }
            }
            TraceEvent::Disconnect(src) => {
                if !refused.remove(src) {
                    backend
                        .disconnect(*src)
                        .expect("serial replay: departing connection is live");
                }
            }
        }
        out.push(counts);
    }
    out
}

/// Expected counts after the first `events` events of the repeated
/// pass, from the per-pass cumulative counts. Every pass starts on an
/// empty fabric, so passes add up.
pub fn expected_counts(per_pass: &[Counts], events: usize) -> Counts {
    let Some(last) = per_pass.last() else {
        return Counts::default();
    };
    let (passes, rest) = (events / per_pass.len(), events % per_pass.len());
    let partial = if rest == 0 {
        Counts::default()
    } else {
        per_pass[rest - 1]
    };
    Counts {
        admitted: passes as u64 * last.admitted + partial.admitted,
        blocked: passes as u64 * last.blocked + partial.blocked,
    }
}

/// Trace time of global stream index `i`: the event's time shifted
/// into its pass.
pub fn time_at(trace: &Trace, i: usize) -> f64 {
    let len = trace.events.len();
    (i / len) as f64 * trace.period + trace.events[i % len].time
}

/// The event at global stream index `i`, at [`time_at`].
pub fn event_at(trace: &Trace, i: usize) -> TimedEvent {
    TimedEvent {
        time: time_at(trace, i),
        event: trace.events[i % trace.events.len()].event.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_and_bound_match_the_workload_table() {
        assert_eq!(bound_m(), 39);
        let p = ThreeStageParams::new(N, bound_m(), R, K);
        assert_eq!(p.network().ports, 128);
        for name in WORKLOADS {
            let s = spec(name).expect("known workload");
            assert_eq!(s.name, name);
            assert_eq!(s.at_bound, s.m >= bound_m());
        }
        assert!(spec("nope").is_none());
    }

    #[test]
    fn passes_add_up() {
        let per_pass = [
            Counts {
                admitted: 1,
                blocked: 0,
            },
            Counts {
                admitted: 1,
                blocked: 1,
            },
        ];
        assert_eq!(
            expected_counts(&per_pass, 5),
            Counts {
                admitted: 3,
                blocked: 2
            }
        );
        assert_eq!(expected_counts(&per_pass, 0), Counts::default());
    }

    #[test]
    fn trace_is_closed_and_replays_cleanly() {
        let trace = mc40(7, 20.0);
        let counts = serial_replay(backend(bound_m()), &trace, 0);
        let last = *counts.last().unwrap();
        assert_eq!(last.blocked, 0, "Theorem 1");
        assert_eq!(last.admitted as usize, trace.connects());
        let shifted = event_at(&trace, trace.events.len() + 1);
        assert!(shifted.time >= trace.period);
    }
}
