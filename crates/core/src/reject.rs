//! The canonical reject taxonomy.
//!
//! Every layer of the stack refuses work for the same small set of
//! reasons, each under its own name: `AssignmentError` in the
//! assignment, `RouteError` in the three-stage router, `RejectReason`
//! on the wire. This module is the one vocabulary they all map into:
//!
//! * [`Reject`] — a reject **with evidence** (which endpoint was busy,
//!   which fault, how many middles were free). This is what backends
//!   return to the admission engine.
//! * [`RejectClass`] — the evidence-free classification. Seven variants,
//!   in lossless bijection with the wire protocol's reject codes.
//!
//! The mapping from a layer error into [`Reject`] is total and typed
//! (`From` impls) — no string matching anywhere. The mapping from
//! [`Reject`] to [`RejectClass`] is [`Reject::class`]; the wire layer
//! converts `RejectClass` to its codes and back losslessly.

use crate::{AssignmentError, Endpoint, Fault};
use core::fmt;

/// Evidence-free classification of a reject — the canonical taxonomy.
///
/// Exactly mirrors the wire protocol's reject codes; conversions in both
/// directions are lossless.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RejectClass {
    /// An endpoint conflict that can resolve by waiting (the rival
    /// connection may depart).
    Busy,
    /// The middle stage is exhausted: routing failed with every endpoint
    /// free. Under Theorem 1/2 provisioning this never happens.
    Blocked,
    /// A failed component is required; only a repair helps.
    ComponentDown,
    /// The engine is draining and accepts no new work.
    Draining,
    /// The receiver's in-flight window is full.
    Backpressure,
    /// The request names a source that was never admitted.
    UnknownSource,
    /// A structural error: malformed request, out-of-range endpoint,
    /// model violation, or internal inconsistency.
    Fatal,
    /// The engine is shedding load under sustained blocking pressure;
    /// the request was refused early rather than parked to starve.
    /// Retryable — pressure subsides as connections depart.
    Overloaded,
}

impl RejectClass {
    /// Every class, in wire-code order.
    pub const ALL: [RejectClass; 8] = [
        RejectClass::Busy,
        RejectClass::Blocked,
        RejectClass::ComponentDown,
        RejectClass::Draining,
        RejectClass::Backpressure,
        RejectClass::UnknownSource,
        RejectClass::Fatal,
        RejectClass::Overloaded,
    ];

    /// `true` iff retrying the same request later can succeed without
    /// any repair or topology change.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            RejectClass::Busy
                | RejectClass::Draining
                | RejectClass::Backpressure
                | RejectClass::Overloaded
        )
    }
}

impl fmt::Display for RejectClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RejectClass::Busy => "busy",
            RejectClass::Blocked => "blocked",
            RejectClass::ComponentDown => "component-down",
            RejectClass::Draining => "draining",
            RejectClass::Backpressure => "backpressure",
            RejectClass::UnknownSource => "unknown-source",
            RejectClass::Fatal => "fatal",
            RejectClass::Overloaded => "overloaded",
        };
        f.write_str(s)
    }
}

/// A reject with evidence: why a request was refused, carrying whatever
/// the refusing layer knows.
///
/// Backends return this from `connect`/`disconnect`; the runtime decides
/// park-and-retry vs give-up from [`Reject::class`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reject {
    /// Retryable endpoint conflict ([`AssignmentError::SourceBusy`] or
    /// [`AssignmentError::DestinationBusy`]).
    Busy(AssignmentError),
    /// The middle stage has no feasible cover for the request.
    Blocked {
        /// Middle switches that were still available to the source.
        available_middles: usize,
        /// The nonblocking bound the network was provisioned for.
        x_limit: u32,
    },
    /// A required component is failed.
    ComponentDown(Fault),
    /// No live connection is sourced at this endpoint.
    UnknownSource(Endpoint),
    /// The engine is draining.
    Draining,
    /// The in-flight window is full.
    Backpressure,
    /// Structural error, with a description.
    Fatal(String),
    /// The engine is shedding load under sustained blocking pressure.
    Overloaded,
}

impl Reject {
    /// The evidence-free classification of this reject.
    pub fn class(&self) -> RejectClass {
        match self {
            Reject::Busy(_) => RejectClass::Busy,
            Reject::Blocked { .. } => RejectClass::Blocked,
            Reject::ComponentDown(_) => RejectClass::ComponentDown,
            Reject::UnknownSource(_) => RejectClass::UnknownSource,
            Reject::Draining => RejectClass::Draining,
            Reject::Backpressure => RejectClass::Backpressure,
            Reject::Fatal(_) => RejectClass::Fatal,
            Reject::Overloaded => RejectClass::Overloaded,
        }
    }

    /// Shorthand for `self.class().is_retryable()`.
    pub fn is_retryable(&self) -> bool {
        self.class().is_retryable()
    }
}

impl fmt::Display for Reject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reject::Busy(e) => write!(f, "busy: {e}"),
            Reject::Blocked {
                available_middles,
                x_limit,
            } => write!(
                f,
                "blocked: {available_middles} middle switches available, \
                 nonblocking bound needs x = {x_limit}"
            ),
            Reject::ComponentDown(fault) => write!(f, "component down: {fault}"),
            Reject::UnknownSource(ep) => write!(f, "no connection sourced at {ep}"),
            Reject::Draining => write!(f, "engine is draining"),
            Reject::Backpressure => write!(f, "in-flight window is full"),
            Reject::Fatal(msg) => write!(f, "fatal: {msg}"),
            Reject::Overloaded => write!(f, "shedding load under sustained blocking"),
        }
    }
}

impl std::error::Error for Reject {}

/// The canonical classification of an assignment error. Busy endpoints
/// are retryable; dead components need a repair; everything else
/// (out-of-range, model violation) is structural and therefore fatal —
/// except an unknown source on removal, which gets its own class so the
/// wire can report it precisely.
impl From<AssignmentError> for Reject {
    fn from(e: AssignmentError) -> Self {
        match e {
            AssignmentError::SourceBusy(_) | AssignmentError::DestinationBusy(_) => Reject::Busy(e),
            AssignmentError::ComponentDown(fault) => Reject::ComponentDown(fault),
            AssignmentError::NoSuchConnection(src) => Reject::UnknownSource(src),
            AssignmentError::OutOfRange(_) | AssignmentError::ModelViolation(_) => {
                Reject::Fatal(e.to_string())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MulticastModel;

    #[test]
    fn assignment_errors_classify_without_strings() {
        let ep = Endpoint::new(1, 0);
        assert_eq!(
            Reject::from(AssignmentError::SourceBusy(ep)).class(),
            RejectClass::Busy
        );
        assert_eq!(
            Reject::from(AssignmentError::DestinationBusy(ep)).class(),
            RejectClass::Busy
        );
        assert_eq!(
            Reject::from(AssignmentError::ComponentDown(Fault::Port(3))).class(),
            RejectClass::ComponentDown
        );
        assert_eq!(
            Reject::from(AssignmentError::NoSuchConnection(ep)).class(),
            RejectClass::UnknownSource
        );
        assert_eq!(
            Reject::from(AssignmentError::OutOfRange(ep)).class(),
            RejectClass::Fatal
        );
        assert_eq!(
            Reject::from(AssignmentError::ModelViolation(MulticastModel::Msw)).class(),
            RejectClass::Fatal
        );
    }

    #[test]
    fn retryability_follows_class() {
        assert!(Reject::Draining.is_retryable());
        assert!(Reject::Backpressure.is_retryable());
        assert!(Reject::Overloaded.is_retryable());
        assert!(Reject::Busy(AssignmentError::SourceBusy(Endpoint::new(0, 0))).is_retryable());
        assert!(!Reject::Blocked {
            available_middles: 0,
            x_limit: 3
        }
        .is_retryable());
        assert!(!Reject::ComponentDown(Fault::MiddleSwitch(0)).is_retryable());
        assert!(!Reject::UnknownSource(Endpoint::new(0, 0)).is_retryable());
        assert!(!Reject::Fatal("boom".into()).is_retryable());
    }

    #[test]
    fn display_is_informative() {
        let r = Reject::Blocked {
            available_middles: 2,
            x_limit: 5,
        };
        assert!(r.to_string().contains("2 middle switches"));
        assert!(r.to_string().contains("x = 5"));
        assert!(Reject::Fatal("bad frame".into())
            .to_string()
            .contains("bad frame"));
        for c in RejectClass::ALL {
            assert!(!c.to_string().is_empty());
        }
    }
}
