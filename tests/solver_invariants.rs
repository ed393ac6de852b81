//! Repository-level invariants of the batched solver, through the public API only:
//!
//! 1. solving is chunk-invariant on every backend — one call, 3+5 and 1×8 give the
//!    same reports, answers and rng consumption, and so do one call and 1×6 over a
//!    stream that mixes RAVEN, CVR and PGM problems;
//! 2. a fixed seed gives a fixed end-to-end outcome;
//! 3. limit-cycle detection only stops resonator rows that would never converge;
//! 4. enlarged vocabularies are rejected by a RAVEN solver before any rng draw, and
//!    solve with a fixed outcome per seed on their own 600-row codebooks;
//! 5. a planned serving stream reallocates no factorizer scratch after its first,
//!    under-full chunk;
//! 6. on the RAVEN block shapes, the rescue route (one resonator sweep, then a
//!    product-plane scan of the unconverged rows) is a fixed point of the polish
//!    sweep and keeps the full resonator's decisions on the rows it converges;
//! 7. on a solver whose blocks take different routes, an iteration cap binds the
//!    polish block only, and at the full cap the capped solver decides exactly
//!    like the uncapped one.

use cogsys::{CogSysConfig, CogSysSystem};
use cogsys_datasets::{AttributeVocab, DatasetKind, Panel, Problem, ProblemGenerator};
use cogsys_factorizer::{Factorizer, FactorizerConfig, FactorizerScratch};
use cogsys_vsa::codebook::BindingOp;
use cogsys_vsa::{
    rng, BackendKind, BitMatrix, CleanupScratch, CodebookSet, HvMatrix, PackedBackend,
    ProductCodebook,
};
use cogsys_workloads::{
    NeurosymbolicSolver, SolveError, SolverConfig, SolverReport, SolverScratch,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Arc;

#[test]
fn batched_solve_is_invariant_to_chunking() {
    for backend in BackendKind::ALL {
        let mut setup = rng(41);
        let config = SolverConfig::default().with_backend(backend);
        let solver = NeurosymbolicSolver::new(config, &mut setup);
        let raven = ProblemGenerator::new(DatasetKind::Raven).generate_batch(8, &mut setup);
        // A mixed stream: RAVEN (8 candidates), CVR (4) and PGM (8, logical rules)
        // interleaved in one call, so each problem's row, seed and candidate
        // offsets differ from a single-dataset call's.
        let mut mixed = Vec::new();
        for _ in 0..2 {
            for dataset in [DatasetKind::Raven, DatasetKind::Cvr, DatasetKind::Pgm] {
                mixed.push(ProblemGenerator::new(dataset).generate(&mut setup));
            }
        }

        let solve_in = |problems: &[Problem], sizes: &[usize]| {
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
        let whole = solve_in(&raven, &[8]);
        assert_eq!(whole.0.problems, 8, "{backend}");
        assert_eq!(whole.1.len(), 8, "{backend}");
        assert_eq!(
            solve_in(&raven, &[3, 5]),
            whole,
            "{backend}: 3+5 differs from one call"
        );
        assert_eq!(
            solve_in(&raven, &[1; 8]),
            whole,
            "{backend}: 1x8 differs from one call"
        );

        let whole = solve_in(&mixed, &[6]);
        assert_eq!(whole.0.problems, 6, "{backend}");
        assert_eq!(
            solve_in(&mixed, &[1; 6]),
            whole,
            "{backend}: mixed 1x6 differs from one call"
        );
    }
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

#[test]
fn enlarged_vocabularies_solve_with_a_fixed_outcome_per_seed() {
    // 600 values per attribute: every codebook cleanup (resonator, polish and
    // answer scoring) scans 600 rows. Pinned per seed: the report, the choices
    // and the rng state the solve leaves behind.
    let vocab = AttributeVocab::uniform(600);
    let config = SolverConfig {
        vector_dim: 512,
        perception_noise: 0.05,
        factorizer: FactorizerConfig::default().with_max_iterations(8),
        vocab,
        ..SolverConfig::default()
    };
    let capped = SolverReport {
        problems: 2,
        panels_total: 16,
        factorizer_iterations: 256,
        rows_capped: 32,
        ..SolverReport::default()
    };
    for (seed, correct, choices, next) in [
        (60, 0, [1, 6], 0xcd85_cac6_072e_97ab_u64),
        (61, 0, [0, 5], 0xd90d_a006_b0fb_39ce),
    ] {
        let mut r = rng(seed);
        let solver = NeurosymbolicSolver::new(config.clone(), &mut r);
        for f in 0..solver.codebooks().num_factors() {
            assert_eq!(
                solver.codebooks().factor(f).unwrap().len(),
                600,
                "factor {f}"
            );
        }
        let problems =
            ProblemGenerator::with_vocab(DatasetKind::Raven, vocab).generate_batch(2, &mut r);
        for p in &problems {
            assert!(p.verify_answer_with(vocab), "seed {seed}");
        }

        // A RAVEN-vocabulary solver rejects the out-of-range values before it
        // draws from the rng.
        let raven = NeurosymbolicSolver::new(
            SolverConfig {
                vector_dim: 512,
                ..SolverConfig::default()
            },
            &mut rng(seed),
        );
        let mut probe = r.clone();
        assert!(matches!(
            raven.solve_batch(&problems, &mut probe),
            Err(SolveError::Malformed { .. })
        ));
        assert_eq!(probe.next_u64(), r.clone().next_u64(), "seed {seed}");

        let mut scratch = SolverScratch::default();
        let report = solver
            .solve_batch_with(&problems, &mut r, &mut scratch)
            .unwrap();
        assert_eq!(report, SolverReport { correct, ..capped }, "seed {seed}");
        assert_eq!(scratch.choices(), choices, "seed {seed}");
        assert_eq!(r.next_u64(), next, "seed {seed}");
    }
}

#[test]
fn mixed_route_solvers_cap_only_their_polish_block() {
    // Nine values per attribute: block 0 (position, number, type) has
    // 9×9×9 = 729 products, over the rescue limit, so it runs the resonator to
    // the cap and polishes; block 1 (size, color) has 9×10 = 90 and is rescued.
    let vocab = AttributeVocab::uniform(9);
    let config = SolverConfig {
        vector_dim: 512,
        vocab,
        ..SolverConfig::default()
    };
    let mut r = rng(70);
    let solver = NeurosymbolicSolver::new(config, &mut r);
    let problems =
        ProblemGenerator::with_vocab(DatasetKind::Raven, vocab).generate_batch(4, &mut r);
    let full = solver.config().factorizer.max_iterations;
    for cap in [1, 3, full] {
        let capped = solver.with_iteration_cap(cap);
        let text = capped.plan_for_batch(problems.len()).describe();
        let stages: Vec<&str> = text.lines().skip(1).map(str::trim).collect();
        let stage = |i: usize, name: &str, detail: &str| {
            assert!(
                stages[i].starts_with(&format!("[{i}] {name} ")) && stages[i].contains(detail),
                "cap {cap}, stage {i}: want {name} {detail}\n{text}"
            );
        };
        stage(1, "resonate", "block=0 ");
        assert!(
            stages[1].ends_with(&format!("iters={cap}")),
            "cap {cap}\n{text}"
        );
        stage(2, "polish", "block=0 ");
        stage(3, "resonate", "block=1 ");
        assert!(stages[3].ends_with("iters=1"), "cap {cap}\n{text}");
        stage(4, "rescue", "block=1 rows=32 products=90");
    }

    let solve = |s: &NeurosymbolicSolver| {
        let mut rr = r.clone();
        let mut scratch = SolverScratch::default();
        let report = s
            .solve_batch_with(&problems, &mut rr, &mut scratch)
            .unwrap();
        (report, scratch.choices().to_vec(), rr.next_u64())
    };
    let uncapped = solve(&solver);
    assert!(uncapped.0.rows_rescued > 0, "{:?}", uncapped.0);
    assert_eq!(solve(&solver.with_iteration_cap(full)), uncapped);
}

/// The coordinate-descent polish sweep over one decoded `tuple` of `scene` (a
/// one-row sign plane): per factor in order, the other factors' decoded
/// codevectors are XOR-unbound from the scene and the factor takes its best
/// cleanup match, the lowest index on ties. With `keep_ties`, a factor whose
/// value already ties for the best match keeps it, so the sweep changes a
/// tuple only where some factor can strictly improve.
fn polish_row(
    set: &CodebookSet,
    scene: &BitMatrix,
    tuple: &[usize],
    keep_ties: bool,
) -> Vec<usize> {
    let mut tuple = tuple.to_vec();
    let (mut plane, mut sims) = (BitMatrix::default(), HvMatrix::default());
    for f in 0..set.num_factors() {
        let mut unbound = scene.clone();
        for (g, &index) in tuple.iter().enumerate() {
            if g != f {
                let planes = set.factor(g).unwrap().packed().unwrap();
                planes.gather_into(&[index], &mut plane).unwrap();
                unbound.xor_assign(&plane).unwrap();
            }
        }
        let planes = set.factor(f).unwrap().packed().unwrap();
        PackedBackend.similarity_matrix_packed_into(planes, &unbound, &mut sims);
        let row = sims.row(0);
        let best = (0..row.len()).fold(0, |best, m| if row[m] > row[best] { m } else { best });
        if !(keep_ties && row[tuple[f]] == row[best]) {
            tuple[f] = best;
        }
    }
    tuple
}

#[test]
fn product_scan_rescue_is_a_polish_fixed_point_and_keeps_converged_decisions() {
    // The premise of the rescue route on the RAVEN block shapes (9×9×5 = 405
    // and 6×10 = 60 products): one resonator sweep, then an exact scan of the
    // block's product planes for the rows the sweep leaves unconverged, and no
    // polish. Scenes superpose both blocks and carry interface bit flips, so
    // every block decodes through the other block's crosstalk. Checked:
    // (a) the polish sweep changes no tuple the route decodes, up to tie order;
    // (b) on every row the sweep converges, the route decides what the full
    //     resonator followed by the polish sweep decides.
    let backend = BackendKind::Packed.create();
    for dim in [512, 2048] {
        let mut r = rng(0x5C4A);
        let config = SolverConfig {
            vector_dim: dim,
            ..SolverConfig::default()
        };
        let solver = NeurosymbolicSolver::new(config.clone(), &mut r);
        let problems = ProblemGenerator::new(DatasetKind::Raven).generate_batch(16, &mut r);
        let panels: Vec<Panel> = problems
            .iter()
            .flat_map(|p| p.context.iter().copied())
            .collect();
        let mut scenes = solver.encode_panels(&panels).unwrap();
        for q in 0..scenes.rows() {
            for v in scenes.row_mut(q) {
                if r.gen_bool(0.02) {
                    *v = -*v;
                }
            }
        }
        let bits = BitMatrix::from_matrix(&scenes).unwrap();
        let (mut converged, mut rescued) = (0, 0);
        for attrs in [0..3, 3..5] {
            let set = CodebookSet::new(
                attrs
                    .clone()
                    .map(|a| solver.codebooks().factor(a).unwrap().clone())
                    .collect(),
                BindingOp::Hadamard,
            )
            .unwrap();
            let product = ProductCodebook::expand(&set).unwrap();
            let seeds: Vec<u64> = panels.iter().map(|_| r.next_u64()).collect();
            let decode = |max_iterations: usize| {
                let factorizer = Factorizer::with_backend(
                    FactorizerConfig {
                        convergence_threshold: NeurosymbolicSolver::block_convergence_threshold(2),
                        ..config.factorizer.clone()
                    }
                    .with_max_iterations(max_iterations),
                    Arc::clone(&backend),
                );
                let mut streams: Vec<StdRng> =
                    seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
                factorizer
                    .factorize_matrix_bits_scratch(
                        &set,
                        &bits,
                        &mut streams,
                        &mut FactorizerScratch::default(),
                    )
                    .unwrap()
            };
            let sweep = decode(1);
            let full = decode(config.factorizer.max_iterations);
            let mut best = Vec::new();
            product
                .search_batch_bits_into(&bits, &mut CleanupScratch::default(), &mut best)
                .unwrap();
            let mut scene = BitMatrix::default();
            for (row, (one, &(product_row, _))) in sweep.iter().zip(&best).enumerate() {
                let case = format!("d={dim} attrs={attrs:?} row {row}");
                let mut route = one.indices.clone();
                if one.converged {
                    converged += 1;
                } else {
                    rescued += 1;
                    product.factor_indices_into(product_row, &mut route);
                }
                bits.gather_into(&[row], &mut scene).unwrap();
                assert_eq!(
                    polish_row(&set, &scene, &route, true),
                    route,
                    "{case}: polish moves the decoded tuple"
                );
                if one.converged {
                    assert_eq!(full[row], *one, "{case}: sweep 1 decides as the full run");
                    assert_eq!(
                        polish_row(&set, &scene, &full[row].indices, false),
                        route,
                        "{case}: resonate + polish decides otherwise"
                    );
                }
            }
        }
        assert!(
            converged > 0 && rescued > 0,
            "d={dim}: {converged} converged, {rescued} rescued"
        );
    }
}
