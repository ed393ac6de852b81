//! Error taxonomy of the serving layer.
//!
//! Two distinct failure surfaces exist:
//!
//! * [`Rejection`] — a *per-request* outcome: the request was not answered, and
//!   the variant records exactly why (malformed or shed at admission, deadline
//!   passed, or its batch failed).
//!   Rejections are normal operation under overload and chaos; they appear in
//!   [`crate::Response::outcome`].
//! * [`ServeError`] — a *serving-loop* construction failure: an invalid
//!   [`crate::ServeConfig`] or a solver that could not be built. These are
//!   surfaced once, before any traffic is accepted.

use cogsys_workloads::{ProblemFault, SolveError};
use std::fmt;

/// Why a request was not answered.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejection {
    /// Shed at admission: the intake queue was already at its configured bound.
    /// Load shedding protects the tail latency of admitted requests.
    Overloaded {
        /// Queue depth observed at arrival.
        queue_depth: usize,
        /// The configured admission bound ([`crate::ServeConfig::max_queue_depth`]).
        limit: usize,
    },
    /// The request's deadline passed while it waited in the queue, so it was
    /// dropped at batch-formation time instead of wasting solver budget.
    DeadlineExpired {
        /// The request's absolute deadline (virtual micros).
        deadline_micros: u64,
        /// Virtual time at which the expiry was detected.
        now_micros: u64,
    },
    /// The request itself was malformed: admission validation rejected it on
    /// arrival with this typed fault, so it was never queued or batched.
    Invalid(Box<ProblemFault>),
    /// The request's batch failed: transient faults outlasted the bounded retry
    /// budget, or the engine returned an error that is not transient.
    Failed(SolveError),
}

impl Rejection {
    /// True when the rejection is the request's own fault (malformed spec)
    /// rather than a serving-side condition.
    pub fn is_client_fault(&self) -> bool {
        matches!(self, Rejection::Invalid(_))
    }
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejection::Overloaded { queue_depth, limit } => {
                write!(f, "overloaded: queue depth {queue_depth} at limit {limit}")
            }
            Rejection::DeadlineExpired {
                deadline_micros,
                now_micros,
            } => write!(
                f,
                "deadline {deadline_micros}us expired (now {now_micros}us)"
            ),
            Rejection::Invalid(fault) => write!(f, "invalid request: {fault}"),
            Rejection::Failed(e) => write!(f, "batch failed: {e}"),
        }
    }
}

/// Errors constructing or configuring the serving loop.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The [`crate::ServeConfig`] violated a structural constraint.
    Config {
        /// Human-readable description of the violated constraint.
        message: String,
    },
    /// The underlying solver could not be constructed.
    Solver(SolveError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config { message } => write!(f, "invalid serve config: {message}"),
            ServeError::Solver(e) => write!(f, "solver construction failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Solver(e) => Some(e),
            ServeError::Config { .. } => None,
        }
    }
}

impl From<SolveError> for ServeError {
    fn from(e: SolveError) -> Self {
        ServeError::Solver(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejection_display_and_classification() {
        let shed = Rejection::Overloaded {
            queue_depth: 64,
            limit: 64,
        };
        assert!(shed.to_string().contains("overloaded"));
        assert!(!shed.is_client_fault());

        let invalid = Rejection::Invalid(Box::new(ProblemFault::NoCandidates));
        assert!(invalid.is_client_fault());
        assert!(invalid.to_string().contains("invalid request"));

        let expired = Rejection::DeadlineExpired {
            deadline_micros: 10,
            now_micros: 20,
        };
        assert!(expired.to_string().contains("expired"));
    }

    #[test]
    fn serve_error_wraps_solver_errors() {
        let e = ServeError::from(SolveError::Config {
            message: "vector_dim must be > 0".into(),
        });
        assert!(e.to_string().contains("solver construction failed"));
        assert!(std::error::Error::source(&e).is_some());
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServeError>();
        assert_send_sync::<Rejection>();
    }
}
