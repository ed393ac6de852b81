//! Repository-level invariants of the batched solver, through the public API only:
//!
//! 1. the chunk width is decided once, from the backend and the solver's precision
//!    (the whole batch exactly when every block decodes on the packed resonator),
//!    whatever precision the factorizer config carries;
//! 2. solving is chunk-invariant — one call, 3+5 and 1×8 give the same reports,
//!    answers and rng consumption;
//! 3. a fixed seed gives a fixed end-to-end outcome;
//! 4. limit-cycle detection only stops resonator rows that would never converge.

use cogsys::{CogSysConfig, CogSysSystem};
use cogsys_datasets::{DatasetKind, Panel, ProblemGenerator};
use cogsys_factorizer::{Factorizer, FactorizerConfig, FactorizerScratch};
use cogsys_vsa::codebook::BindingOp;
use cogsys_vsa::{rng, BackendKind, BitMatrix, CodebookSet, Precision};
use cogsys_workloads::{NeurosymbolicSolver, SolverConfig, SolverReport, SolverScratch};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Arc;

#[test]
fn plan_chunk_is_the_whole_batch_exactly_on_the_packed_backend() {
    let small = SolverConfig {
        vector_dim: 256,
        ..SolverConfig::default()
    };
    let mut configs: Vec<SolverConfig> = Vec::new();
    for backend in BackendKind::ALL {
        for precision in [Precision::Fp32, Precision::Int8] {
            configs.push(
                small
                    .clone()
                    .with_backend(backend)
                    .with_precision(precision),
            );
        }
    }
    // Struct literals whose factorizer precision disagrees with the solver's: the
    // packed resonator runs at every precision, so neither precision decides.
    for backend in BackendKind::ALL {
        for (solver_precision, factorizer_precision) in [
            (Precision::Int8, Precision::Fp32),
            (Precision::Fp32, Precision::Int8),
        ] {
            configs.push(SolverConfig {
                precision: solver_precision,
                factorizer: FactorizerConfig::default().with_precision(factorizer_precision),
                ..small.clone().with_backend(backend)
            });
        }
    }
    for config in configs {
        let solver = NeurosymbolicSolver::new(config.clone(), &mut rng(1));
        let packed = config.backend == BackendKind::Packed;
        for batch in [1, 8] {
            let plan = solver.plan_for_batch(batch);
            let expected = if packed {
                batch
            } else {
                NeurosymbolicSolver::DENSE_SERVE_CHUNK
            };
            assert_eq!(
                plan.chunk_problems, expected,
                "{} / solver {:?} / factorizer {:?}",
                config.backend, config.precision, config.factorizer.precision
            );
            let chunk = format!("chunk={expected}\n");
            assert!(plan.describe().contains(&chunk), "{}", plan.describe());
        }
    }
}

#[test]
fn mismatched_factorizer_precision_solves_like_the_pinned_config() {
    // The factorizer always runs at the solver's precision, so a struct literal
    // that leaves the factorizer at FP32 under an INT8 solver makes exactly the
    // decisions of `with_precision(Int8)`, which sets both.
    let pinned = SolverConfig {
        vector_dim: 512,
        ..SolverConfig::default()
    }
    .with_precision(Precision::Int8);
    let mixed = SolverConfig {
        factorizer: FactorizerConfig::default(),
        ..pinned.clone()
    };
    assert_ne!(mixed.factorizer.precision, mixed.precision);
    let solve = |config: SolverConfig| {
        let mut r = rng(5);
        let solver = NeurosymbolicSolver::new(config, &mut r);
        let problems = ProblemGenerator::new(DatasetKind::Raven).generate_batch(3, &mut r);
        let mut scratch = SolverScratch::default();
        let report = solver
            .solve_batch_with(&problems, &mut r, &mut scratch)
            .unwrap();
        (report, scratch.choices().to_vec(), r.next_u64())
    };
    assert_eq!(solve(mixed), solve(pinned));
}

#[test]
fn batched_solve_is_invariant_to_chunking() {
    let mut setup = rng(41);
    let solver = NeurosymbolicSolver::new(SolverConfig::default(), &mut setup);
    let problems = ProblemGenerator::new(DatasetKind::Raven).generate_batch(8, &mut setup);

    let solve_in = |sizes: &[usize]| {
        let mut r = setup.clone();
        let mut scratch = SolverScratch::default();
        let mut report = SolverReport::default();
        let mut choices = Vec::new();
        let mut start = 0;
        for &size in sizes {
            let chunk = &problems[start..start + size];
            report.merge(
                &solver
                    .solve_batch_with(chunk, &mut r, &mut scratch)
                    .unwrap(),
            );
            choices.extend_from_slice(scratch.choices());
            start += size;
        }
        assert_eq!(start, problems.len());
        (report, choices, r.next_u64())
    };
    let whole = solve_in(&[8]);
    assert_eq!(whole.0.problems, 8);
    assert_eq!(whole.1.len(), 8);
    assert_eq!(solve_in(&[3, 5]), whole, "3+5 differs from one call");
    assert_eq!(solve_in(&[1; 8]), whole, "1x8 differs from one call");
}

#[test]
fn reasoning_runs_are_deterministic_per_seed() {
    let system = CogSysSystem::new(CogSysConfig::default());
    let a = system.run_reasoning(DatasetKind::Raven, 3, 17).unwrap();
    let b = system.run_reasoning(DatasetKind::Raven, 3, 17).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.report.problems, 3);
}

#[test]
fn limit_cycle_exits_only_stop_rows_that_never_converge() {
    // Block 0 (position, number, type) of the default d=2048 solver, replayed the
    // way the solver decodes it: encode, interface bit flips, sign planes. The
    // same rows and noise streams run once with detection off and once with the
    // default window.
    const SEED: u64 = 3;
    let mut r = rng(SEED);
    let config = SolverConfig::default();
    let solver = NeurosymbolicSolver::new(config.clone(), &mut r);
    let problems = ProblemGenerator::new(DatasetKind::Raven).generate_batch(16, &mut r);
    let panels: Vec<Panel> = problems
        .iter()
        .flat_map(|p| p.context.iter().copied())
        .collect();
    let mut scenes = solver.encode_panels(&panels).unwrap();
    for q in 0..scenes.rows() {
        for v in scenes.row_mut(q) {
            if r.gen_bool(config.encoding_noise) {
                *v = -*v;
            }
        }
    }
    let bits = BitMatrix::from_matrix(&scenes).unwrap();
    let block0 = CodebookSet::new(
        (0..3)
            .map(|a| solver.codebooks().factor(a).unwrap().clone())
            .collect(),
        BindingOp::Hadamard,
    )
    .unwrap();
    let seeds: Vec<u64> = panels.iter().map(|_| r.next_u64()).collect();
    let decode = |limit_cycle_window: usize| {
        let factorizer = Factorizer::with_backend(
            FactorizerConfig {
                convergence_threshold: NeurosymbolicSolver::block_convergence_threshold(2),
                limit_cycle_window,
                ..config.factorizer.clone()
            },
            Arc::clone(solver.backend()),
        );
        let mut streams: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
        factorizer
            .factorize_matrix_bits_scratch(
                &block0,
                &bits,
                &mut streams,
                &mut FactorizerScratch::default(),
            )
            .unwrap()
    };
    let off = decode(0);
    let on = decode(FactorizerConfig::default().limit_cycle_window);
    let budget = config.factorizer.max_iterations;
    let mut exits = 0;
    for (row, (without, with)) in off.iter().zip(&on).enumerate() {
        assert!(!without.limit_cycle, "row {row}: detection was off");
        if without.converged {
            assert_eq!(with, without, "row {row} converges without detection");
        }
        if with.limit_cycle {
            exits += 1;
            assert!(
                !without.converged && without.iterations == budget,
                "row {row} exits on a limit cycle but runs {} iterations (converged: {}) without detection",
                without.iterations,
                without.converged
            );
            assert!(with.iterations < budget, "row {row}");
        }
    }
    assert!(exits > 0, "seed {SEED} has no limit-cycle exit");
}
