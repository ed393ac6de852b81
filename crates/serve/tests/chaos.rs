//! Chaos integration test: the acceptance scenario of the serving layer.
//!
//! A seeded adversarial trace (≥10% poisoned specs, 4× overload bursts) runs
//! through the full stack — trace generator → admission → batch former →
//! chaos-wrapped solver engine — and must complete with zero panics, poison
//! rejected at admission with typed errors, visible backpressure and
//! degradation, and level-0 responses decision-identical to driving the solver
//! directly.

use cogsys_serve::{
    ChaosConfig, ChaosEngine, DegradationLevel, Rejection, ServeConfig, ServeLoop, SolverEngine,
    TraceConfig,
};
use cogsys_workloads::{NeurosymbolicSolver, SolveError, SolverConfig, SolverScratch};
use rand::{rngs::StdRng, SeedableRng};

fn serve_config() -> ServeConfig {
    ServeConfig {
        // Small dimensionality keeps the 160-problem run fast; the serving
        // logic under test is independent of it.
        solver: SolverConfig {
            vector_dim: 512,
            ..SolverConfig::default()
        },
        // Tight enough that the trace's 4x bursts genuinely overload the front
        // end: the measured backlog peak of this scenario (~20) exceeds the
        // bound.
        max_queue_depth: 16,
        max_batch: 8,
        degrade_depth: 12,
        recover_depth: 4,
        retry_budget: 6,
        ..ServeConfig::default()
    }
}

fn chaos_config() -> ChaosConfig {
    ChaosConfig {
        seed: 0x0BAD_5EED,
        forced_error_rate: 0.08,
        extra_latency_rate: 0.10,
        extra_latency_micros: 5_000,
    }
}

#[test]
fn adversarial_chaos_run_isolates_faults_and_keeps_level0_identity() {
    let trace = TraceConfig::adversarial(160).generate();
    let poisoned = trace
        .iter()
        .filter(|r| NeurosymbolicSolver::validate_problem(&r.problem).is_err())
        .count();
    assert!(
        poisoned * 10 >= trace.len(),
        "trace must carry >= 10% poison, got {poisoned}/160"
    );

    let config = serve_config();
    let engine = SolverEngine::new(config.solver.clone(), config.codebook_seed)
        .expect("solver construction");
    let engine = ChaosEngine::new(engine, chaos_config());
    let mut serve = ServeLoop::with_engine(config.clone(), engine).expect("valid config");
    let responses = serve.run_trace(&trace);

    // Zero lost requests: one terminal response per submission.
    assert_eq!(responses.len(), trace.len());
    let counters = *serve.counters();
    assert_eq!(counters.submitted, trace.len());
    assert_eq!(counters.accounted(), counters.submitted);

    // Poison isolation: malformed requests fail alone with typed errors;
    // answered requests are exactly the well-formed ones that got through.
    for response in &responses {
        let problem = &trace[response.id as usize].problem;
        match &response.outcome {
            Ok(answer) => {
                assert!(
                    NeurosymbolicSolver::validate_problem(problem).is_ok(),
                    "request {} answered despite being malformed",
                    response.id
                );
                assert!(answer.choice < problem.candidates.len());
            }
            Err(Rejection::Invalid(fault)) => {
                assert_eq!(
                    NeurosymbolicSolver::validate_problem(problem),
                    Err((**fault).clone()),
                    "request {} rejected with a fault validation does not report",
                    response.id
                );
            }
            Err(Rejection::Failed(error)) => {
                // A batch whose transient faults outlasted the retry budget.
                // Admission rejects poison, so it never fails a batch.
                assert!(
                    matches!(error, SolveError::Fault { .. }),
                    "request {} failed with {error}",
                    response.id
                );
            }
            Err(Rejection::Overloaded { .. } | Rejection::DeadlineExpired { .. }) => {}
        }
    }
    assert!(counters.invalid > 0, "no poison was rejected at admission");

    // Overload visibly sheds, degrades the ladder, and the chaos faults force
    // retries — all while the run completes without a panic.
    assert!(counters.shed > 0, "4x burst must overflow the queue bound");
    assert!(counters.max_level > 0 && counters.degraded_batches > 0);
    assert!(counters.retries > 0, "chaos faults must retry");
    assert!(serve.engine().stats().forced_errors > 0);
    assert!(
        responses
            .iter()
            .any(|r| r.is_answered() && r.degradation.as_u8() > 0),
        "some answers must be served degraded"
    );

    // Pinned profile of this seeded scenario: catches silent behaviour drift
    // (different shedding, ladder, or retry decisions) on refactors.
    assert_eq!(
        (
            counters.completed,
            counters.shed,
            counters.expired,
            counters.invalid,
            counters.failed,
            counters.retries,
            counters.degraded_batches,
            counters.max_level,
        ),
        PINNED_PROFILE,
        "serving profile drifted; re-pin only if the change is intended"
    );

    // Level-0 identity: every full-service chunk must match a direct
    // `solve_batch_with` call on the same problems with the chunk's seed.
    let mut full_chunks = 0;
    let mut scratch = SolverScratch::default();
    for chunk in serve.executed() {
        if chunk.level != DegradationLevel::Full {
            continue;
        }
        full_chunks += 1;
        let problems: Vec<_> = chunk
            .ids
            .iter()
            .map(|&id| trace[id as usize].problem.clone())
            .collect();
        let mut rng = StdRng::seed_from_u64(chunk.seed);
        serve
            .engine()
            .inner()
            .solver()
            .solve_batch_with(&problems, &mut rng, &mut scratch)
            .expect("replaying an executed chunk cannot fail");
        assert_eq!(
            scratch.choices(),
            &chunk.choices[..],
            "level-0 chunk diverged from direct solve_batch_with"
        );
    }
    assert!(full_chunks > 0, "scenario must execute full-service chunks");
}

/// `(completed, shed, expired, invalid, failed, retries, degraded_batches,
/// max_level)` of the fixed seeded scenario above.
const PINNED_PROFILE: (usize, usize, usize, usize, usize, usize, usize, u8) =
    (122, 2, 0, 36, 0, 5, 11, 2);

#[test]
fn clean_steady_run_matches_unserved_solving_end_to_end() {
    // Without chaos, poison or overload, serving must be a pure batching layer:
    // every response answered at level 0, and every chunk decision-identical.
    let config = serve_config();
    let trace = TraceConfig::steady(24).generate();
    let mut serve = ServeLoop::with_solver(config.clone()).expect("valid config");
    let responses = serve.run_trace(&trace);
    assert!(responses.iter().all(|r| r.is_answered()));
    assert!(responses
        .iter()
        .all(|r| r.degradation == DegradationLevel::Full));
    assert_eq!(serve.counters().completed, 24);
    assert_eq!(serve.counters().retries, 0);

    let reference = SolverEngine::new(config.solver.clone(), config.codebook_seed)
        .expect("solver construction");
    let mut scratch = SolverScratch::default();
    for chunk in serve.executed() {
        let problems: Vec<_> = chunk
            .ids
            .iter()
            .map(|&id| trace[id as usize].problem.clone())
            .collect();
        let mut rng = StdRng::seed_from_u64(chunk.seed);
        reference
            .solver()
            .solve_batch_with(&problems, &mut rng, &mut scratch)
            .expect("well-formed problems solve");
        assert_eq!(scratch.choices(), &chunk.choices[..]);
    }
}
