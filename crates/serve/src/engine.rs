//! Batch execution engines and the graceful-degradation ladder.
//!
//! The serving loop talks to its solver through the [`ChunkEngine`] trait so the
//! chaos harness ([`crate::chaos::ChaosEngine`]) can decorate the real engine
//! with injected faults, and tests can substitute scripted engines.
//!
//! Determinism contract: an engine invocation is a pure function of
//! `(problems, seed, level)` — [`SolverEngine`] seeds a fresh rng from `seed`
//! per call. The loop fixes a chunk's seed at formation time and reuses it on
//! transient-fault retries of the unchanged batch, so an executed-chunk log
//! replays bit-identically.

use cogsys_datasets::Problem;
use cogsys_workloads::{
    NeurosymbolicSolver, PlanCacheStats, SolveError, SolverConfig, SolverReport, SolverScratch,
};
use rand::{rngs::StdRng, SeedableRng};

/// Rung of the graceful-degradation ladder.
///
/// Under queue pressure the serving loop steps *down* the ladder (larger index,
/// cheaper service) one rung per formed batch, and steps back up as the queue
/// drains. Each response records the level it was served at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DegradationLevel {
    /// Full batches, full factorizer iteration budget.
    Full = 0,
    /// Half-size batches: shorter per-batch service keeps queueing delay bounded.
    HalvedBatch = 1,
    /// Half-size batches and the factorizer iteration cap cut to 1/8 of the
    /// configured budget.
    ReducedIterations = 2,
    /// Quarter-size batches and a coarse single-pass cleanup (iteration cap 1):
    /// the cheapest answer the pipeline can produce.
    ///
    /// The iteration caps of this rung and the previous one bind only attribute
    /// blocks on the solver's polish route. Blocks small enough for the rescue
    /// route (both RAVEN blocks) already run one sweep, so on RAVEN
    /// vocabularies both rungs decide exactly like `Full`.
    CoarseCleanup = 3,
}

impl DegradationLevel {
    /// All rungs, best to worst.
    pub const ALL: [DegradationLevel; 4] = [
        DegradationLevel::Full,
        DegradationLevel::HalvedBatch,
        DegradationLevel::ReducedIterations,
        DegradationLevel::CoarseCleanup,
    ];

    /// Numeric level (0 = full service).
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Divisor applied to the configured maximum batch size.
    pub fn batch_divisor(self) -> usize {
        match self {
            DegradationLevel::Full => 1,
            DegradationLevel::HalvedBatch | DegradationLevel::ReducedIterations => 2,
            DegradationLevel::CoarseCleanup => 4,
        }
    }

    /// Factorizer iteration cap at this rung, given the configured budget. Every
    /// rung's cap lies in `[1, configured]`, so no rung runs more iterations than
    /// full service.
    pub fn iteration_cap(self, configured: usize) -> usize {
        let cap = match self {
            DegradationLevel::Full | DegradationLevel::HalvedBatch => configured,
            DegradationLevel::ReducedIterations => (configured / 8).max(2),
            DegradationLevel::CoarseCleanup => 1,
        };
        cap.clamp(1, configured.max(1))
    }

    /// Divisor applied to the per-problem service time (reduced iteration
    /// budgets finish proportionally faster).
    pub fn service_divisor(self) -> u64 {
        match self {
            DegradationLevel::Full | DegradationLevel::HalvedBatch => 1,
            DegradationLevel::ReducedIterations => 2,
            DegradationLevel::CoarseCleanup => 4,
        }
    }

    /// One rung worse (saturating).
    pub fn degrade(self) -> Self {
        match self {
            DegradationLevel::Full => DegradationLevel::HalvedBatch,
            DegradationLevel::HalvedBatch => DegradationLevel::ReducedIterations,
            DegradationLevel::ReducedIterations | DegradationLevel::CoarseCleanup => {
                DegradationLevel::CoarseCleanup
            }
        }
    }

    /// One rung better (saturating).
    pub fn recover(self) -> Self {
        match self {
            DegradationLevel::Full | DegradationLevel::HalvedBatch => DegradationLevel::Full,
            DegradationLevel::ReducedIterations => DegradationLevel::HalvedBatch,
            DegradationLevel::CoarseCleanup => DegradationLevel::ReducedIterations,
        }
    }
}

/// Result of one engine invocation over a formed batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkResult {
    /// Chosen candidate index per problem, in batch order.
    pub choices: Vec<usize>,
    /// Aggregate solver report for the chunk.
    pub report: SolverReport,
    /// Extra service latency injected by decorators (zero for real engines).
    pub extra_micros: u64,
}

/// A batch executor the serving loop can drive.
pub trait ChunkEngine {
    /// Solves `problems` as one batch at the given degradation `level`, drawing
    /// all randomness from a generator seeded with `seed`.
    fn solve_chunk(
        &mut self,
        problems: &[Problem],
        seed: u64,
        level: DegradationLevel,
    ) -> Result<ChunkResult, SolveError>;
}

/// The real engine: [`NeurosymbolicSolver::solve_batch_with`] plus one
/// iteration-capped clone per degraded rung, all sharing codebooks, backend and
/// one scratch arena.
pub struct SolverEngine {
    /// `[full, reduced-iterations, coarse]`; levels 0 and 1 share index 0 (they
    /// differ only in the batch size the *loop* forms, not in solver settings).
    solvers: [NeurosymbolicSolver; 3],
    scratch: SolverScratch,
}

impl SolverEngine {
    /// Builds the full-service solver from `config` (codebooks drawn from
    /// `codebook_seed`) and derives the degraded rungs from it.
    pub fn new(config: SolverConfig, codebook_seed: u64) -> Result<Self, SolveError> {
        let mut rng = StdRng::seed_from_u64(codebook_seed);
        let full = NeurosymbolicSolver::try_new(config, &mut rng)?;
        let budget = full.config().factorizer.max_iterations;
        let reduced =
            full.with_iteration_cap(DegradationLevel::ReducedIterations.iteration_cap(budget));
        let coarse = full.with_iteration_cap(DegradationLevel::CoarseCleanup.iteration_cap(budget));
        Ok(Self {
            solvers: [full, reduced, coarse],
            scratch: SolverScratch::default(),
        })
    }

    /// The full-service (level 0) solver — the reference for decision-identity
    /// checks against direct `solve_batch_with` calls.
    pub fn solver(&self) -> &NeurosymbolicSolver {
        &self.solvers[0]
    }

    /// The solver chunks at `level` run on, so a caller can replay an executed
    /// chunk on exactly that rung's solver.
    pub fn solver_at(&self, level: DegradationLevel) -> &NeurosymbolicSolver {
        &self.solvers[Self::rung(level)]
    }

    /// Index into `solvers` of the solver chunks at `level` run on.
    fn rung(level: DegradationLevel) -> usize {
        match level {
            DegradationLevel::Full | DegradationLevel::HalvedBatch => 0,
            DegradationLevel::ReducedIterations => 1,
            DegradationLevel::CoarseCleanup => 2,
        }
    }

    /// Plan-cache hit/miss counters summed over all three rungs' solvers.
    ///
    /// Solving a chunk compiles and looks up no [`cogsys_workloads::SolvePlan`],
    /// so only explicit lookups count here ([`SolverEngine::describe_plan`], or
    /// `plan_for_batch` on a rung's solver).
    pub fn plan_stats(&self) -> PlanCacheStats {
        let mut total = PlanCacheStats::default();
        for solver in &self.solvers {
            let stats = solver.plan_cache_stats();
            total.hits += stats.hits;
            total.misses += stats.misses;
        }
        total
    }

    /// Human-readable description of the full-service plan compiled for a
    /// `batch`-problem chunk (for `--explain` style diagnostics).
    pub fn describe_plan(&self, batch: usize) -> String {
        self.solvers[0].plan_for_batch(batch).describe()
    }
}

impl ChunkEngine for SolverEngine {
    fn solve_chunk(
        &mut self,
        problems: &[Problem],
        seed: u64,
        level: DegradationLevel,
    ) -> Result<ChunkResult, SolveError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let solver = &self.solvers[Self::rung(level)];
        let report = solver.solve_batch_with(problems, &mut rng, &mut self.scratch)?;
        Ok(ChunkResult {
            choices: self.scratch.choices().to_vec(),
            report,
            extra_micros: 0,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use cogsys_datasets::{DatasetKind, ProblemGenerator};

    fn small_config() -> SolverConfig {
        SolverConfig {
            vector_dim: 512,
            ..SolverConfig::default()
        }
    }

    #[test]
    fn ladder_is_monotone_and_saturating() {
        assert_eq!(
            DegradationLevel::Full.degrade(),
            DegradationLevel::HalvedBatch
        );
        assert_eq!(
            DegradationLevel::CoarseCleanup.degrade(),
            DegradationLevel::CoarseCleanup
        );
        assert_eq!(DegradationLevel::Full.recover(), DegradationLevel::Full);
        for pair in DegradationLevel::ALL.windows(2) {
            assert!(pair[0] < pair[1]);
            assert_eq!(pair[1].recover(), pair[0]);
            assert_eq!(pair[0].degrade(), pair[1]);
            assert!(pair[0].service_divisor() <= pair[1].service_divisor());
            assert!(pair[0].iteration_cap(240) >= pair[1].iteration_cap(240));
        }
        assert_eq!(DegradationLevel::CoarseCleanup.iteration_cap(240), 1);
        assert_eq!(DegradationLevel::ReducedIterations.iteration_cap(240), 30);
        // No rung exceeds the budget, and caps never rise down the ladder.
        for budget in 1..=240 {
            let caps = DegradationLevel::ALL.map(|level| level.iteration_cap(budget));
            assert_eq!(caps[0], budget);
            assert!(
                caps.iter().all(|&cap| (1..=budget).contains(&cap)),
                "{caps:?}"
            );
            assert!(caps.windows(2).all(|w| w[0] >= w[1]), "{caps:?}");
        }
    }

    #[test]
    fn same_seed_same_level_is_deterministic() {
        let mut engine = SolverEngine::new(small_config(), 11).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let problems = ProblemGenerator::new(DatasetKind::Raven).generate_batch(4, &mut rng);
        let a = engine
            .solve_chunk(&problems, 99, DegradationLevel::Full)
            .unwrap();
        let b = engine
            .solve_chunk(&problems, 99, DegradationLevel::Full)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn full_level_matches_direct_solve_batch_with() {
        let mut engine = SolverEngine::new(small_config(), 11).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let problems = ProblemGenerator::new(DatasetKind::IRaven).generate_batch(3, &mut rng);
        let served = engine
            .solve_chunk(&problems, 42, DegradationLevel::Full)
            .unwrap();

        let mut direct_rng = StdRng::seed_from_u64(42);
        let mut scratch = SolverScratch::default();
        let report = engine
            .solver()
            .solve_batch_with(&problems, &mut direct_rng, &mut scratch)
            .unwrap();
        assert_eq!(served.choices, scratch.choices());
        assert_eq!(served.report, report);
    }

    #[test]
    fn chunks_of_one_shape_compile_one_plan_then_hit_the_cache() {
        let mut engine = SolverEngine::new(small_config(), 11).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let problems = ProblemGenerator::new(DatasetKind::Raven).generate_batch(4, &mut rng);
        assert_eq!(engine.plan_stats(), PlanCacheStats::default());
        // Solving chunks, on any rung, looks up no plan.
        for seed in 0..4 {
            engine
                .solve_chunk(&problems, seed, DegradationLevel::Full)
                .unwrap();
        }
        engine
            .solve_chunk(&problems, 9, DegradationLevel::ReducedIterations)
            .unwrap();
        assert_eq!(engine.plan_stats(), PlanCacheStats::default());

        // Explicit lookups compile once per shape, then hit the cache.
        let description = engine.describe_plan(problems.len());
        assert_eq!(engine.describe_plan(problems.len()), description);
        assert_eq!(engine.plan_stats(), PlanCacheStats { hits: 1, misses: 1 });
        // A degraded rung runs its own solver, hence its own compile.
        engine
            .solver_at(DegradationLevel::ReducedIterations)
            .plan_for_batch(4);
        assert_eq!(engine.plan_stats(), PlanCacheStats { hits: 1, misses: 2 });

        // RAVEN blocks take the rescue route, so the plan has no polish stage.
        assert!(!description.contains("polish"), "{description}");
        for stage in ["encode", "resonate", "rescue", "predict", "score"] {
            assert!(
                description.contains(stage),
                "describe_plan missing `{stage}`: {description}"
            );
        }
    }

    #[test]
    fn solver_at_is_the_solver_each_rungs_chunks_run_on() {
        // 100-value attributes keep both blocks on the polish route, where each
        // rung's iteration cap binds.
        let vocab = cogsys_datasets::AttributeVocab::uniform(100);
        let config = SolverConfig {
            vocab,
            ..small_config()
        };
        let mut engine = SolverEngine::new(config, 13).unwrap();
        let budget = engine.solver().config().factorizer.max_iterations;
        let mut rng = StdRng::seed_from_u64(7);
        let problems =
            ProblemGenerator::with_vocab(DatasetKind::Raven, vocab).generate_batch(2, &mut rng);
        for level in DegradationLevel::ALL {
            assert_eq!(
                engine.solver_at(level).config().factorizer.max_iterations,
                level.iteration_cap(budget),
                "{level:?}"
            );
            let served = engine.solve_chunk(&problems, 21, level).unwrap();
            let mut scratch = SolverScratch::default();
            let report = engine
                .solver_at(level)
                .solve_batch_with(&problems, &mut StdRng::seed_from_u64(21), &mut scratch)
                .unwrap();
            assert_eq!(served.report, report, "{level:?}");
            assert_eq!(served.choices, scratch.choices(), "{level:?}");
        }
        assert!(std::ptr::eq(
            engine.solver_at(DegradationLevel::Full),
            engine.solver()
        ));
        assert!(std::ptr::eq(
            engine.solver_at(DegradationLevel::HalvedBatch),
            engine.solver()
        ));
    }

    #[test]
    fn degraded_levels_still_answer_in_range() {
        let mut engine = SolverEngine::new(small_config(), 3).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let problems = ProblemGenerator::new(DatasetKind::Raven).generate_batch(2, &mut rng);
        for level in DegradationLevel::ALL {
            let out = engine.solve_chunk(&problems, 1, level).unwrap();
            assert_eq!(out.choices.len(), problems.len());
            for (problem, &choice) in problems.iter().zip(&out.choices) {
                assert!(choice < problem.candidates.len());
            }
        }
    }
}
