//! Typed error surface of the solving engine.
//!
//! Every fallible entry point of [`crate::NeurosymbolicSolver`] returns
//! `Result<_, SolveError>`: malformed inputs are rejected at the engine boundary
//! with [`SolveError::Malformed`] (carrying the offending problem's index in the
//! batch, so hostile input fails typed instead of panicking), VSA substrate
//! failures propagate as [`SolveError::Vsa`], and infrastructure
//! wrappers (the `cogsys-serve` chaos harness, future transport layers) surface
//! transient faults as [`SolveError::Fault`]. Nothing on the request path panics.

use cogsys_vsa::VsaError;
use std::fmt;

/// Why one problem failed the engine-boundary validation.
///
/// The structural fields are narrow (counts and indices saturate at their
/// type's maximum; panels store `u16` values), so a fault is 16 bytes and the
/// serving layer keeps it inline in every rejected response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProblemFault {
    /// The context did not contain exactly the expected number of panels
    /// (a 3×3 matrix minus the answer cell: eight).
    WrongPanelCount {
        /// Number of context panels the engine requires.
        expected: u32,
        /// Number of context panels the problem carried.
        got: usize,
    },
    /// The candidate answer set was empty.
    NoCandidates,
    /// The labelled answer index pointed outside the candidate set.
    AnswerOutOfRange {
        /// The out-of-range answer index.
        answer: usize,
        /// Number of candidates actually present (saturating).
        candidates: u32,
    },
    /// A panel carried an attribute value outside the attribute's cardinality,
    /// which would index past the end of the attribute's codebook.
    ValueOutOfRange {
        /// Which panel (context panels first, then candidates; saturating).
        panel: u32,
        /// Attribute index into `Attribute::ALL`.
        attribute: u8,
        /// The out-of-range value.
        value: u16,
        /// The attribute's cardinality (valid values are `0..cardinality`;
        /// saturating).
        cardinality: u16,
    },
}

impl fmt::Display for ProblemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProblemFault::WrongPanelCount { expected, got } => {
                write!(f, "expected {expected} context panels, got {got}")
            }
            ProblemFault::NoCandidates => write!(f, "candidate answer set is empty"),
            ProblemFault::AnswerOutOfRange { answer, candidates } => {
                write!(f, "answer index {answer} out of range for {candidates} candidates")
            }
            ProblemFault::ValueOutOfRange {
                panel,
                attribute,
                value,
                cardinality,
            } => write!(
                f,
                "panel {panel}, attribute {attribute}: value {value} exceeds cardinality {cardinality}"
            ),
        }
    }
}

/// Errors of the end-to-end solving engine.
///
/// The two 40-byte payloads are boxed and the messages are `Box<str>`, which
/// keeps the error at 24 bytes: serving layers store one per failed request
/// inside every response record.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// A VSA substrate operation failed (shape mismatch, missing packed planes, …).
    Vsa(Box<VsaError>),
    /// One problem failed the engine-boundary validation. `problem` is its index in
    /// the batch passed to the solve call.
    Malformed {
        /// Index of the offending problem in the submitted batch.
        problem: usize,
        /// What was wrong with it.
        fault: Box<ProblemFault>,
    },
    /// The solver configuration itself was invalid (zero dimensionality, bad noise
    /// probabilities, an invalid factorizer configuration).
    Config {
        /// Human-readable description of the violated constraint.
        message: Box<str>,
    },
    /// A transient infrastructure fault: not produced by the engine itself, but by
    /// wrappers on the request path (fault injection in tests, transport layers).
    /// Serving layers treat it as retryable.
    Fault {
        /// Description of the injected or encountered fault.
        message: Box<str>,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Vsa(e) => write!(f, "vsa error: {e}"),
            SolveError::Malformed { problem, fault } => {
                write!(f, "malformed problem {problem}: {fault}")
            }
            SolveError::Config { message } => write!(f, "invalid solver config: {message}"),
            SolveError::Fault { message } => write!(f, "transient fault: {message}"),
        }
    }
}

impl std::error::Error for SolveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolveError::Vsa(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

impl From<VsaError> for SolveError {
    fn from(e: VsaError) -> Self {
        SolveError::Vsa(Box::new(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_error_stays_small() {
        // Serving keeps one per rejected request inside every response record.
        assert!(std::mem::size_of::<SolveError>() <= 24);
        assert!(std::mem::size_of::<ProblemFault>() <= 16);
    }

    #[test]
    fn display_and_conversion() {
        let e = SolveError::from(VsaError::Empty { what: "codebook" });
        assert!(e.to_string().contains("codebook"));
        assert!(!matches!(e, SolveError::Malformed { .. }));
        let e = SolveError::Malformed {
            problem: 3,
            fault: Box::new(ProblemFault::NoCandidates),
        };
        assert!(e.to_string().contains("malformed problem 3"));
        let e = SolveError::Malformed {
            problem: 0,
            fault: Box::new(ProblemFault::ValueOutOfRange {
                panel: 2,
                attribute: 4,
                value: 99,
                cardinality: 10,
            }),
        };
        assert!(e.to_string().contains("99"));
        assert!(SolveError::Config {
            message: "vector_dim must be > 0".into()
        }
        .to_string()
        .contains("vector_dim"));
        assert!(SolveError::Fault {
            message: "injected".into()
        }
        .to_string()
        .contains("transient"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SolveError>();
    }
}
