//! Request and response records of the serving loop.
//!
//! All times are *virtual* microseconds on the loop's discrete-event clock (see
//! [`crate::ServeLoop`]); determinism of the whole serving simulation follows
//! from every timestamp being derived from the trace and the service-time model
//! rather than a wall clock.

use crate::engine::DegradationLevel;
use crate::error::Rejection;
use cogsys_datasets::Problem;

/// One reasoning request submitted to the serving loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Caller-assigned identifier, echoed on the [`Response`].
    pub id: u64,
    /// The RPM problem to solve.
    pub problem: Problem,
    /// Arrival time on the virtual clock.
    pub arrival_micros: u64,
    /// Absolute deadline: if the request has not been *served* by this time it
    /// is dropped at batch formation; if it completes after it, the response is
    /// marked [`Response::missed_deadline`].
    pub deadline_micros: u64,
}

impl Request {
    /// Builds a request with an absolute deadline `budget_micros` after arrival.
    pub fn new(id: u64, problem: Problem, arrival_micros: u64, budget_micros: u64) -> Self {
        Self {
            id,
            problem,
            arrival_micros,
            deadline_micros: arrival_micros.saturating_add(budget_micros),
        }
    }
}

/// The solved outcome of an admitted, non-rejected request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// Index of the chosen candidate panel.
    pub choice: usize,
    /// Whether the choice matches the problem's labelled answer.
    pub correct: bool,
}

/// Terminal record for one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's identifier.
    pub id: u64,
    /// Answer, or the typed reason the request was not answered.
    pub outcome: Result<Answer, Rejection>,
    /// Degradation level the serving loop was at when this request was resolved.
    /// Level 0 responses are decision-identical to solving the same batch
    /// directly; higher levels traded answer quality for throughput.
    pub degradation: DegradationLevel,
    /// Virtual time at which the outcome was determined.
    pub completed_micros: u64,
    /// Queueing + service latency on the virtual clock: completion minus the
    /// request's arrival, saturating at `u32::MAX` µs (~71 virtual minutes).
    /// Every response of a run is kept, so the record stays at 48 bytes.
    pub latency_micros: u32,
    /// True when a transient fault forced at least one re-run of the request's
    /// batch.
    pub retried: bool,
    /// True when the request completed, but only after its deadline had passed.
    pub missed_deadline: bool,
}

impl Response {
    /// True when the request was answered (possibly degraded, possibly late).
    pub fn is_answered(&self) -> bool {
        self.outcome.is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cogsys_datasets::{DatasetKind, ProblemGenerator};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn request_deadline_is_arrival_plus_budget() {
        let mut rng = StdRng::seed_from_u64(1);
        let problem = ProblemGenerator::new(DatasetKind::Raven).generate(&mut rng);
        let req = Request::new(7, problem, 1_000, 50_000);
        assert_eq!(req.deadline_micros, 51_000);
    }

    #[test]
    fn response_stays_small() {
        // Serving keeps every response of a run; a rejection's payload is boxed
        // or two words, so it never widens the record.
        assert!(std::mem::size_of::<Rejection>() <= 24);
        assert!(std::mem::size_of::<Response>() <= 48);
    }
}
