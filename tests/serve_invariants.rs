//! Serving-layer invariants through the public API: poisoned requests are
//! rejected at admission and never reach an engine call, and every
//! full-service (level-0) chunk replays exactly through a direct
//! `solve_batch_with` call with the chunk's seed.

use cogsys_serve::{DegradationLevel, Rejection, ServeConfig, ServeLoop, TraceConfig};
use cogsys_workloads::{NeurosymbolicSolver, SolverConfig, SolverScratch};
use rand::{rngs::StdRng, SeedableRng};

#[test]
fn poisoned_requests_are_rejected_at_admission_and_level0_chunks_replay_exactly() {
    let config = ServeConfig {
        solver: SolverConfig {
            vector_dim: 256,
            ..SolverConfig::default()
        },
        max_batch: 8,
        ..ServeConfig::default()
    };
    // Arrivals 1 µs apart queue up behind the first chunk, so later chunks are
    // full and poisoned specs arrive among well-formed ones.
    let trace = TraceConfig {
        interarrival_micros: 1,
        poison_fraction: 0.2,
        ..TraceConfig::steady(24)
    }
    .generate();
    let mut serve = ServeLoop::with_solver(config).expect("valid config");
    let responses = serve.run_trace(&trace);
    assert_eq!(responses.len(), trace.len());

    // Every malformed request fails alone with a typed error; every well-formed
    // one is answered at full service, first time.
    for response in &responses {
        let problem = &trace[response.id as usize].problem;
        match &response.outcome {
            Ok(answer) => {
                assert!(NeurosymbolicSolver::validate_problem(problem).is_ok());
                assert!(answer.choice < problem.candidates.len());
                assert_eq!(response.degradation, DegradationLevel::Full);
                assert!(!response.retried, "request {} was retried", response.id);
            }
            Err(Rejection::Invalid(fault)) => {
                assert_eq!(
                    NeurosymbolicSolver::validate_problem(problem),
                    Err((**fault).clone())
                );
            }
            Err(other) => panic!("request {}: unexpected rejection {other:?}", response.id),
        }
    }
    let counters = *serve.counters();
    assert!(counters.invalid > 0, "the trace carried no poison");
    assert_eq!(counters.retries, 0, "poison cost a retry");

    // Level-0 identity: the executed chunks hold only well-formed requests and
    // replay exactly.
    let mut scratch = SolverScratch::default();
    for chunk in serve.executed() {
        assert_eq!(chunk.level, DegradationLevel::Full);
        let problems: Vec<_> = chunk
            .ids
            .iter()
            .map(|&id| trace[id as usize].problem.clone())
            .collect();
        assert!(problems
            .iter()
            .all(|p| NeurosymbolicSolver::validate_problem(p).is_ok()));
        let mut rng = StdRng::seed_from_u64(chunk.seed);
        serve
            .engine()
            .solver()
            .solve_batch_with(&problems, &mut rng, &mut scratch)
            .expect("replaying an executed chunk cannot fail");
        assert_eq!(
            scratch.choices(),
            &chunk.choices[..],
            "chunk {:?}",
            chunk.ids
        );
    }
}
