//! Seeded fault-injection harness.
//!
//! Three fault families, all drawn from one seeded generator so a chaos run is
//! exactly reproducible:
//!
//! * **request corruption** — malformed problem specs
//!   ([`cogsys_datasets::ProblemGenerator::generate_malformed`], wired in by the
//!   trace generator) and in-band bit flips that push attribute values beyond
//!   the interface spec ([`flip_value_bits`]);
//! * **forced engine faults** — [`ChaosEngine`] fails a solve call with a
//!   transient [`SolveError::Fault`] *before* invoking the inner engine, so no
//!   solver randomness is consumed and the loop's retry is decision-identical
//!   to an undisturbed run;
//! * **injected latency** — extra virtual service time added to successful
//!   calls, stressing deadline and backpressure handling without touching
//!   results.

use crate::engine::{ChunkEngine, ChunkResult, DegradationLevel};
use cogsys_datasets::{Panel, Problem};
use cogsys_workloads::SolveError;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Flips a low-order bit in `flips` randomly chosen attribute values of the
/// problem's context panels. The result may leave the attribute's valid range
/// (caught at the engine boundary as a typed fault) or stay inside it (garbage
/// the solver must absorb without panicking) — both are interesting.
pub fn flip_value_bits<R: Rng + ?Sized>(problem: &mut Problem, flips: usize, rng: &mut R) {
    if problem.context.is_empty() {
        return;
    }
    for _ in 0..flips {
        let panel = rng.gen_range(0..problem.context.len());
        let attribute = rng.gen_range(0..5usize);
        let bit = 1usize << rng.gen_range(0..4usize);
        let mut values = problem.context[panel].values();
        values[attribute] ^= bit;
        problem.context[panel] = Panel::new_unchecked(values);
    }
}

/// Fault-injection knobs. All probabilities are per engine invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed of the chaos generator (independent of solver and trace seeds).
    pub seed: u64,
    /// Probability that a solve call fails with a transient fault before the
    /// inner engine runs.
    pub forced_error_rate: f64,
    /// Probability that a successful solve call gets extra latency.
    pub extra_latency_rate: f64,
    /// The extra virtual latency injected when the above fires.
    pub extra_latency_micros: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            seed: 0xC0A5,
            forced_error_rate: 0.0,
            extra_latency_rate: 0.0,
            extra_latency_micros: 0,
        }
    }
}

/// Tally of what the harness actually injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosStats {
    /// Engine invocations observed (including the failed ones).
    pub calls: usize,
    /// Calls failed with a forced transient fault.
    pub forced_errors: usize,
    /// Total extra latency injected, virtual micros.
    pub injected_latency_micros: u64,
}

/// Decorator that injects faults around any [`ChunkEngine`].
pub struct ChaosEngine<E> {
    inner: E,
    rng: StdRng,
    config: ChaosConfig,
    stats: ChaosStats,
}

impl<E> ChaosEngine<E> {
    /// Wraps `inner` with the given fault-injection profile.
    pub fn new(inner: E, config: ChaosConfig) -> Self {
        Self {
            inner,
            rng: StdRng::seed_from_u64(config.seed),
            config,
            stats: ChaosStats::default(),
        }
    }

    /// What was injected so far.
    pub fn stats(&self) -> ChaosStats {
        self.stats
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl<E: ChunkEngine> ChunkEngine for ChaosEngine<E> {
    fn solve_chunk(
        &mut self,
        problems: &[Problem],
        seed: u64,
        level: DegradationLevel,
    ) -> Result<ChunkResult, SolveError> {
        self.stats.calls += 1;
        if self.config.forced_error_rate > 0.0
            && self
                .rng
                .gen_bool(self.config.forced_error_rate.clamp(0.0, 1.0))
        {
            self.stats.forced_errors += 1;
            return Err(SolveError::Fault {
                message: format!("chaos: forced engine fault on call {}", self.stats.calls).into(),
            });
        }
        let mut result = self.inner.solve_chunk(problems, seed, level)?;
        if self.config.extra_latency_rate > 0.0
            && self
                .rng
                .gen_bool(self.config.extra_latency_rate.clamp(0.0, 1.0))
        {
            result.extra_micros += self.config.extra_latency_micros;
            self.stats.injected_latency_micros += self.config.extra_latency_micros;
        }
        Ok(result)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use cogsys_datasets::{DatasetKind, ProblemGenerator};
    use cogsys_workloads::SolverReport;

    /// Engine stub that always succeeds with fixed choices.
    struct FixedEngine;

    impl ChunkEngine for FixedEngine {
        fn solve_chunk(
            &mut self,
            problems: &[Problem],
            _seed: u64,
            _level: DegradationLevel,
        ) -> Result<ChunkResult, SolveError> {
            Ok(ChunkResult {
                choices: vec![0; problems.len()],
                report: SolverReport::default(),
                extra_micros: 0,
            })
        }
    }

    #[test]
    fn forced_errors_are_transient_faults_and_counted() {
        let mut engine = ChaosEngine::new(
            FixedEngine,
            ChaosConfig {
                forced_error_rate: 1.0,
                ..ChaosConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(2);
        let problems = ProblemGenerator::new(DatasetKind::Raven).generate_batch(2, &mut rng);
        let err = engine
            .solve_chunk(&problems, 0, DegradationLevel::Full)
            .unwrap_err();
        assert!(matches!(err, SolveError::Fault { .. }));
        assert_eq!(engine.stats().forced_errors, 1);
    }

    #[test]
    fn latency_injection_only_touches_timing() {
        let mut engine = ChaosEngine::new(
            FixedEngine,
            ChaosConfig {
                extra_latency_rate: 1.0,
                extra_latency_micros: 1_500,
                ..ChaosConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(3);
        let problems = ProblemGenerator::new(DatasetKind::Raven).generate_batch(3, &mut rng);
        let out = engine
            .solve_chunk(&problems, 0, DegradationLevel::Full)
            .unwrap();
        assert_eq!(out.extra_micros, 1_500);
        assert_eq!(out.choices, vec![0; 3]);
        assert_eq!(engine.stats().injected_latency_micros, 1_500);
    }

    #[test]
    fn bit_flips_are_seed_deterministic() {
        let gen = ProblemGenerator::new(DatasetKind::Pgm);
        let mut rng = StdRng::seed_from_u64(9);
        let base = gen.generate(&mut rng);
        let mut a = base.clone();
        let mut b = base.clone();
        flip_value_bits(&mut a, 3, &mut StdRng::seed_from_u64(77));
        flip_value_bits(&mut b, 3, &mut StdRng::seed_from_u64(77));
        assert_eq!(a, b);
        assert_ne!(a, base);
    }
}
