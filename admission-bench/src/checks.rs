//! Correctness checks every run makes. Any failed check makes the run
//! report `"correct": false` and exit nonzero.

use crate::inproc::Tally;
use crate::workload::Counts;
use wdm_runtime::RuntimeReport;

/// One named check and what it saw.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

/// Engine conservation (`offered == admitted + blocked + expired`), no
/// structural error, no worker panic, an empty drain `check()`, and a
/// fabric that drained empty (every run closes its stream).
pub fn engine<B>(report: &RuntimeReport<B>) -> Vec<Check> {
    let s = &report.summary;
    vec![
        check(
            "engine-conservation",
            s.offered == s.admitted + s.blocked + s.expired,
            format!(
                "offered {} admitted {} blocked {} expired {}",
                s.offered, s.admitted, s.blocked, s.expired
            ),
        ),
        check(
            "engine-no-fatal",
            s.fatal == 0 && report.worker_panics == 0,
            format!(
                "fatal {} worker panics {} errors {:?}",
                s.fatal, report.worker_panics, report.errors
            ),
        ),
        check(
            "drain-check-empty",
            report.consistency.is_empty(),
            format!("{:?}", report.consistency),
        ),
        check(
            "fabric-empty-at-end",
            s.active == 0,
            format!("{} connections live after drain", s.active),
        ),
    ]
}

/// Theorem 1: at or above the bound, no connect blocks. Applies to the
/// workloads that claim the bound, whatever `m` they were given.
pub fn theorem1(at_bound: bool, m: u32, blocked: u64) -> Check {
    check(
        "theorem1-no-block",
        !at_bound || blocked == 0,
        format!("m {m}, blocked {blocked}, claims the bound: {at_bound}"),
    )
}

/// A one-shard engine applies the stream in order, so its verdict
/// counts must equal a serial replay of the same prefix.
pub fn serial_replay(engine: Counts, serial: Counts) -> Check {
    check(
        "serial-replay-verdicts",
        engine == serial,
        format!(
            "engine admitted {} blocked {}, serial admitted {} blocked {}",
            engine.admitted, engine.blocked, serial.admitted, serial.blocked
        ),
    )
}

/// The verdicts the client received are the ones the engine counted,
/// and every request was answered.
pub fn client_matches_engine(tally: Tally, admitted: u64, blocked: u64, lost: u64) -> Check {
    check(
        "client-matches-engine",
        tally.admitted == admitted && tally.blocked == blocked && lost == 0,
        format!(
            "client admitted {} blocked {}, engine admitted {admitted} blocked {blocked}, lost {lost}",
            tally.admitted, tally.blocked
        ),
    )
}

/// Every departure resolved as one.
pub fn departures(bad: u64) -> Check {
    check(
        "departures-resolve",
        bad == 0,
        format!("{bad} disconnects did not depart"),
    )
}

/// On the wire: server admissions equal client connect acks, every
/// connect was acked, and no request was rejected, no frame was
/// malformed and every load-generator chunk completed.
pub fn wire_acks(
    server_admitted: u64,
    tally: Tally,
    rejects: u64,
    incomplete_chunks: u64,
    protocol_errors: u64,
) -> Check {
    check(
        "wire-acks",
        server_admitted == tally.admitted
            && tally.admitted == tally.attempts
            && rejects + incomplete_chunks + protocol_errors == 0,
        format!(
            "server admitted {server_admitted}, client connects {} acks {}, rejects {rejects}, \
             incomplete chunks {incomplete_chunks}, protocol errors {protocol_errors}",
            tally.attempts, tally.admitted,
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem1_check_ignores_workloads_below_the_bound() {
        assert!(theorem1(true, 39, 0).ok);
        assert!(!theorem1(true, 39, 1).ok);
        assert!(theorem1(false, 8, 500).ok);
    }

    #[test]
    fn serial_replay_check_trips_on_a_perturbed_count() {
        let serial = Counts {
            admitted: 1000,
            blocked: 19,
        };
        assert!(serial_replay(serial, serial).ok);
        for engine in [
            Counts {
                admitted: 1001,
                ..serial
            },
            Counts {
                blocked: 18,
                ..serial
            },
        ] {
            assert!(!serial_replay(engine, serial).ok);
        }
    }

    #[test]
    fn wire_check_needs_every_connect_acked() {
        let tally = Tally {
            attempts: 10,
            admitted: 10,
            ..Tally::default()
        };
        assert!(wire_acks(10, tally, 0, 0, 0).ok);
        assert!(!wire_acks(9, tally, 0, 0, 0).ok);
        assert!(!wire_acks(10, tally, 1, 0, 0).ok);
        assert!(!wire_acks(10, tally, 0, 1, 0).ok);
        assert!(!wire_acks(10, tally, 0, 0, 1).ok);
        let unacked = Tally {
            attempts: 11,
            ..tally
        };
        assert!(!wire_acks(10, unacked, 0, 0, 0).ok);
    }
}
