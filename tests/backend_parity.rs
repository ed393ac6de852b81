//! Cross-checks of the batched execution backends against each other and against the
//! naive time-domain kernels, plus the batch-vs-single factorization regression.
//!
//! These are the repository-level guarantees the `VsaBackend` seam rests on:
//!
//! 1. `ReferenceBackend` and `ParallelBackend` agree (bitwise for Hadamard ops and the
//!    planned FFT, within float tolerance when compared against the `O(d²)` kernel);
//! 2. `PackedBackend` reproduces the reference exactly where the bit-packed algebra
//!    applies (bipolar Hadamard bind/unbind, integer dot products, vote-count bundling)
//!    and within the 1e-4 cosine contract for the Hamming→cosine cleanup mapping, on
//!    power-of-two and non-power-of-two dimensions (tail-word padding included);
//! 3. batching is a pure performance transform — `factorize_matrix_scratch` returns
//!    exactly the per-query `factorize` results.

use cogsys_factorizer::{Factorizer, FactorizerConfig, FactorizerScratch};
use cogsys_vsa::batch::{BackendKind, HvMatrix};
use cogsys_vsa::codebook::BindingOp;
use cogsys_vsa::packed::{BitMatrix, CleanupScratch};
use cogsys_vsa::{ops, rng, CodebookSet, Hypervector, Precision};
use proptest::prelude::*;

fn random_batch(rows: usize, dim: usize, seed: u64) -> (Vec<Hypervector>, HvMatrix) {
    let mut r = rng(seed);
    let hvs: Vec<Hypervector> = (0..rows)
        .map(|_| Hypervector::random_bipolar(dim, &mut r))
        .collect();
    let m = HvMatrix::from_rows(&hvs).expect("rows share a dimension");
    (hvs, m)
}

/// Cosine similarity between two raw rows (for tolerance comparisons).
fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|v| v * v).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|v| v * v).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Reference, parallel, and the naive O(d²) kernel agree on circular-convolution
    /// binding for random dimensions — power-of-two (FFT path) and not (naive path).
    #[test]
    fn prop_backends_match_naive_convolution(seed in 0u64..1000, d_pow in 2u32..9, odd in 0usize..7) {
        // Mix of power-of-two dims (64..512) and non-power-of-two neighbours.
        let dim = (1usize << d_pow) + [0, 1, 3, 5, 7, 11, 13][odd];
        let (rows_a, a) = random_batch(3, dim, seed);
        let (rows_b, b) = random_batch(3, dim, seed ^ 0x5eed);

        let reference = BackendKind::Reference.create();
        let parallel = BackendKind::Parallel.create();
        let r = reference.bind_batch(&a, &b, BindingOp::CircularConvolution).unwrap();
        let p = parallel.bind_batch(&a, &b, BindingOp::CircularConvolution).unwrap();

        for i in 0..3 {
            // The two backends agree within 1e-4 cosine (they are in fact bitwise
            // equal; the cosine bound is the documented contract).
            prop_assert!(cosine(r.row(i), p.row(i)) > 1.0 - 1e-4);
            prop_assert_eq!(r.row(i), p.row(i));
            // And both match the O(d²) time-domain definition within float tolerance.
            let naive = ops::circular_convolve_naive(rows_a[i].values(), rows_b[i].values());
            for (x, y) in p.row(i).iter().zip(&naive) {
                prop_assert!((x - y).abs() < 1e-2 * dim as f32, "{x} vs {y} at dim {dim}");
            }
        }
    }

    /// Unbinding (circular correlation) agrees across backends on random dims.
    #[test]
    fn prop_backends_match_on_unbind(seed in 0u64..1000, dim in 2usize..160) {
        let (_, a) = random_batch(2, dim, seed);
        let (_, b) = random_batch(2, dim, seed + 17);
        let reference = BackendKind::Reference.create();
        let parallel = BackendKind::Parallel.create();
        for op in [BindingOp::Hadamard, BindingOp::CircularConvolution] {
            let r = reference.unbind_batch(&a, &b, op).unwrap();
            let p = parallel.unbind_batch(&a, &b, op).unwrap();
            prop_assert_eq!(r, p);
        }
    }

    /// Similarity GEMM and cleanup agree across backends on random shapes.
    #[test]
    fn prop_backends_match_on_similarity_and_cleanup(
        seed in 0u64..1000,
        dim in 4usize..200,
        code_rows in 2usize..24,
        queries in 1usize..12,
    ) {
        let (_, cb) = random_batch(code_rows, dim, seed);
        let (_, q) = random_batch(queries, dim, seed + 101);
        let reference = BackendKind::Reference.create();
        let parallel = BackendKind::Parallel.create();
        let rs = reference.similarity_matrix(&cb, &q).unwrap();
        let ps = parallel.similarity_matrix(&cb, &q).unwrap();
        for (x, y) in rs.as_slice().iter().zip(ps.as_slice()) {
            // Dots of bipolar rows grow with dim; bound the reordering error
            // relative to the dimension.
            prop_assert!((x - y).abs() < 1e-4 * dim as f32, "{x} vs {y}");
        }
        let rc = reference.cleanup_batch(&cb, &q).unwrap();
        let pc = parallel.cleanup_batch(&cb, &q).unwrap();
        for ((ri, rsim), (pi, psim)) in rc.iter().zip(&pc) {
            prop_assert_eq!(ri, pi);
            prop_assert!((rsim - psim).abs() < 1e-4);
        }
        prop_assert_eq!(
            reference.bundle(&q).unwrap().values(),
            parallel.bundle(&q).unwrap().values()
        );
    }

    /// Packed parity on bipolar inputs: bind/unbind are *exact* (the XOR of sign
    /// planes equals the Hadamard product of signs, and the packed backend's `f32`
    /// surface equals the reference), across power-of-two and non-power-of-two dims
    /// so tail-word padding is exercised.
    #[test]
    fn prop_packed_bind_unbind_exact_on_bipolar(seed in 0u64..1000, d_pow in 2u32..9, odd in 0usize..7) {
        let dim = (1usize << d_pow) + [0, 1, 3, 5, 7, 11, 13][odd];
        let (_, a) = random_batch(3, dim, seed);
        let (_, b) = random_batch(3, dim, seed ^ 0xb17);
        let reference = BackendKind::Reference.create();
        let packed = BackendKind::Packed.create();
        let r = reference.bind_batch(&a, &b, BindingOp::Hadamard).unwrap();
        let p = packed.bind_batch(&a, &b, BindingOp::Hadamard).unwrap();
        prop_assert_eq!(&r, &p);
        let ru = reference.unbind_batch(&a, &b, BindingOp::Hadamard).unwrap();
        let pu = packed.unbind_batch(&a, &b, BindingOp::Hadamard).unwrap();
        prop_assert_eq!(&ru, &pu);
        // Packed round trip through the BitMatrix representation is lossless.
        let mut bits = BitMatrix::from_matrix(&a).expect("bipolar rows pack");
        prop_assert_eq!(&bits.to_matrix(), &a);
        prop_assert_eq!(bits.words_per_row(), dim.div_ceil(64));
        // XOR of the sign planes is the Hadamard bind, and XOR again unbinds.
        let b_bits = BitMatrix::from_matrix(&b).expect("bipolar rows pack");
        bits.xor_assign(&b_bits).unwrap();
        prop_assert_eq!(&bits.to_matrix(), &r);
        bits.xor_assign(&b_bits).unwrap();
        prop_assert_eq!(bits.to_matrix(), a);
    }

    /// Popcount similarity over sign planes is the exact integer dot product and the
    /// packed cleanup agrees with the reference within 1e-4 cosine after the
    /// Hamming→cosine mapping; the packed backend's `f32` surface (similarity,
    /// cleanup, bundle) matches the reference the same way, bundling exactly, which
    /// pins down the tie behaviour of any later sign threshold.
    #[test]
    fn prop_packed_similarity_cleanup_bundle(
        seed in 0u64..1000,
        d_pow in 2u32..9,
        odd in 0usize..7,
        code_rows in 2usize..24,
        queries in 1usize..10,
    ) {
        let dim = (1usize << d_pow) + [0, 1, 3, 5, 7, 11, 13][odd];
        let (_, cb) = random_batch(code_rows, dim, seed);
        let (_, q) = random_batch(queries, dim, seed + 131);
        let reference = BackendKind::Reference.create();
        let packed = BackendKind::Packed.create();
        // Dots of ±1 rows are exact in f32, so popcount similarity is bitwise equal.
        prop_assert_eq!(
            reference.similarity_matrix(&cb, &q).unwrap(),
            packed.similarity_matrix(&cb, &q).unwrap()
        );
        let cb_bits = BitMatrix::from_matrix(&cb).unwrap();
        let q_bits = BitMatrix::from_matrix(&q).unwrap();
        let kernels = packed.as_packed().expect("packed backend");
        let mut sims = HvMatrix::default();
        kernels.similarity_matrix_packed_into(&cb_bits, &q_bits, &mut sims);
        prop_assert_eq!(reference.similarity_matrix(&cb, &q).unwrap(), sims);
        let rc = reference.cleanup_batch(&cb, &q).unwrap();
        let mut bits_cleanup = Vec::new();
        let mut scratch = CleanupScratch::default();
        kernels.cleanup_batch_packed_into(&cb_bits, &q_bits, &mut scratch, &mut bits_cleanup);
        for pc in [packed.cleanup_batch(&cb, &q).unwrap(), bits_cleanup] {
            prop_assert_eq!(rc.len(), pc.len());
            for ((ri, rsim), (pi, psim)) in rc.iter().zip(&pc) {
                prop_assert_eq!(ri, pi);
                prop_assert!((rsim - psim).abs() < 1e-4, "{} vs {}", rsim, psim);
            }
        }
        prop_assert_eq!(
            reference.bundle(&q).unwrap().values(),
            packed.bundle(&q).unwrap().values()
        );
    }

    /// The fused packed weighted-projection kernel (per-dimension f32 accumulators
    /// over sign planes + fused perturbation + sign threshold) equals the dense
    /// `project_batch_into` followed by the same perturbation and threshold —
    /// **bitwise**, with and without noise, across power-of-two and non-power-of-two
    /// dimensions (tail words included).
    #[test]
    fn prop_packed_projection_matches_dense(
        seed in 0u64..1000,
        d_pow in 2u32..9,
        odd in 0usize..7,
        code_rows in 2usize..16,
        queries in 1usize..6,
        noise_sel in 0usize..2,
    ) {
        use cogsys_vsa::packed::PackedBackend;
        use rand::SeedableRng;
        use rand_distr::{Distribution, Normal};

        let with_noise = noise_sel == 1;
        let dim = (1usize << d_pow) + [0, 1, 3, 5, 7, 11, 13][odd];
        let (_, cb) = random_batch(code_rows, dim, seed);
        let cb_bits = BitMatrix::from_matrix(&cb).expect("bipolar codebook packs");
        // Real-valued weights, as the resonator's (noise-injected) similarity rows are.
        let mut r = rng(seed ^ 0xfeed);
        let weights = HvMatrix::from_rows(
            &(0..queries)
                .map(|_| Hypervector::random_real(code_rows, &mut r))
                .collect::<Vec<_>>(),
        ).unwrap();

        let noise = Normal::new(0.0_f32, 0.75).unwrap();
        // Dense path: project, perturb with a per-query stream, sign-threshold.
        let reference = BackendKind::Reference.create();
        let dense = reference.project_batch(&cb, &weights).unwrap();
        let mut expected = Vec::new();
        for q in 0..queries {
            let mut row = dense.row(q).to_vec();
            if with_noise {
                let mut stream = rand::rngs::StdRng::seed_from_u64(seed + q as u64);
                for v in &mut row {
                    *v += noise.sample(&mut stream);
                }
            }
            expected.push(row.iter().map(|&v| if v < 0.0 { -1.0 } else { 1.0 }).collect::<Vec<f32>>());
        }

        // Packed path: the same perturbation runs fused inside the kernel.
        let packed = PackedBackend::new();
        let (mut out, mut acc) = (BitMatrix::default(), Vec::new());
        packed.project_signs_packed_into(&cb_bits, &weights, |q, row| {
            if with_noise {
                let mut stream = rand::rngs::StdRng::seed_from_u64(seed + q as u64);
                for v in row.iter_mut() {
                    *v += noise.sample(&mut stream);
                }
            }
        }, &mut acc, &mut out);

        let unpacked = out.to_matrix();
        for (q, row) in expected.iter().enumerate() {
            prop_assert_eq!(unpacked.row(q), row.as_slice());
        }
    }

    /// Pre-packed `BitMatrix` queries through `Codebook::cleanup_batch_bits` decode
    /// exactly like the same queries through the f32 `cleanup_batch` surface, on every
    /// backend — the end-to-end packed query path changes cost, never results.
    #[test]
    fn prop_packed_query_cleanup_equals_dense_query(
        seed in 0u64..1000,
        d_pow in 2u32..9,
        odd in 0usize..7,
        code_rows in 2usize..24,
        queries in 1usize..10,
    ) {
        use cogsys_vsa::Codebook;

        let dim = (1usize << d_pow) + [0, 1, 3, 5, 7, 11, 13][odd];
        let mut r = rng(seed);
        let cb = Codebook::random("p", code_rows, dim, &mut r);
        let (_, q) = random_batch(queries, dim, seed + 211);
        let bits = BitMatrix::from_matrix(&q).expect("bipolar queries pack");
        for kind in BackendKind::ALL {
            let backend = kind.create();
            let dense = cb.cleanup_batch(backend.as_ref(), &q).unwrap();
            let packed = cb.cleanup_batch_bits(backend.as_ref(), &bits).unwrap();
            for ((di, dsim), (pi, psim)) in dense.iter().zip(&packed) {
                prop_assert_eq!(di, pi);
                prop_assert!((dsim - psim).abs() < 1e-4, "{}: {} vs {}", kind, dsim, psim);
            }
        }
    }

    /// The fused resonator mega-kernel equals the split three-pass sequence
    /// (unbind materialization → similarity GEMM → weighted sign projection)
    /// **bitwise** — estimate sign planes, perturbed similarity rows, argmax
    /// decisions, and per-query noise-stream positions — with and without
    /// noise, across power-of-two and non-power-of-two dims (tail words
    /// included) and row counts crossing the 8-query lane-block boundary,
    /// over two Gauss–Seidel iterations so the in-place estimate feedback is
    /// exercised.
    #[test]
    fn prop_fused_resonator_step_matches_split(
        seed in 0u64..1000,
        d_pow in 2u32..9,
        odd in 0usize..7,
        code_rows in 2usize..16,
        rows in 1usize..20,
        factors in 2usize..5,
        noise_sel in 0usize..2,
    ) {
        use cogsys_vsa::packed::{PackedBackend, ResonatePhase};
        use rand::{RngCore, SeedableRng};
        use rand_distr::{Distribution, Normal};

        let with_noise = noise_sel == 1;
        let dim = (1usize << d_pow) + [0, 1, 3, 5, 7, 11, 13][odd];
        let packed = PackedBackend::new();
        let noise = Normal::new(0.0_f32, 0.75).unwrap();
        let mut setup = rng(seed ^ 0xf00d);
        let codebooks: Vec<BitMatrix> = (0..factors)
            .map(|_| BitMatrix::random_bipolar(code_rows, dim, &mut setup))
            .collect();
        let query = BitMatrix::random_bipolar(rows, dim, &mut setup);
        let initial: Vec<BitMatrix> = (0..factors)
            .map(|_| BitMatrix::random_bipolar(rows, dim, &mut setup))
            .collect();
        let streams = || -> Vec<rand::rngs::StdRng> {
            (0..rows)
                .map(|q| rand::rngs::StdRng::seed_from_u64(seed + q as u64))
                .collect()
        };

        // Split reference: materialized unbind, standalone similarity, standalone
        // projection — the pre-fusion resonator's exact pass structure.
        let mut est_split = initial.clone();
        let mut streams_split = streams();
        let mut split_decisions = Vec::new();
        let mut sims_split = HvMatrix::default();
        let (mut unbound, mut acc) = (BitMatrix::default(), Vec::new());
        for _iter in 0..2 {
            for (f, codebook) in codebooks.iter().enumerate() {
                let (head, rest) = est_split.split_at_mut(f);
                let (out, tail) = rest.split_first_mut().unwrap();
                unbound.copy_from(&query);
                for est in head.iter().chain(tail.iter()) {
                    unbound.xor_assign(est).unwrap();
                }
                packed.similarity_matrix_packed_into(codebook, &unbound, &mut sims_split);
                for (q, stream) in streams_split.iter_mut().enumerate() {
                    let row = sims_split.row_mut(q);
                    if with_noise {
                        for v in row.iter_mut() {
                            *v += noise.sample(stream);
                        }
                    }
                    split_decisions.push(ops::argmax(row).unwrap_or(0));
                }
                packed.project_signs_packed_into(codebook, &sims_split, |q, row| {
                    if with_noise {
                        for v in row.iter_mut() {
                            *v += noise.sample(&mut streams_split[q]);
                        }
                    }
                }, &mut acc, out);
            }
        }

        let mut est_fused = initial.clone();
        let mut streams_fused = streams();
        let mut fused_decisions = Vec::new();
        let mut sims_fused = HvMatrix::default();
        let (mut lanes, mut acc_f) = (BitMatrix::default(), Vec::new());
        for _iter in 0..2 {
            for (f, codebook) in codebooks.iter().enumerate() {
                packed.resonate_step_fused_into(
                    codebook, &query, &mut est_fused, f,
                    &mut lanes, &mut sims_fused, &mut acc_f,
                    |phase, q, row| {
                        if with_noise {
                            for v in row.iter_mut() {
                                *v += noise.sample(&mut streams_fused[q]);
                            }
                        }
                        if phase == ResonatePhase::Similarity {
                            fused_decisions.push(ops::argmax(row).unwrap_or(0));
                        }
                    },
                );
            }
        }
        prop_assert_eq!(&est_fused, &est_split);
        prop_assert_eq!(&fused_decisions, &split_decisions);
        prop_assert_eq!(&sims_fused, &sims_split);
        for (fs, ss) in streams_fused.iter_mut().zip(streams_split.iter_mut()) {
            prop_assert_eq!(fs.next_u64(), ss.next_u64());
        }
    }

    /// Non-bipolar operands must not silently lose magnitude: the packed backend's
    /// results match the dense fallback bitwise.
    #[test]
    fn prop_packed_falls_back_on_real_inputs(seed in 0u64..500, dim in 2usize..130) {
        let mut r = rng(seed);
        let hvs: Vec<Hypervector> = (0..3)
            .map(|_| Hypervector::random_real(dim, &mut r))
            .collect();
        let a = HvMatrix::from_rows(&hvs).unwrap();
        let (_, b) = random_batch(3, dim, seed + 7);
        let parallel = BackendKind::Parallel.create();
        let packed = BackendKind::Packed.create();
        for op in [BindingOp::Hadamard, BindingOp::CircularConvolution] {
            prop_assert_eq!(
                parallel.bind_batch(&a, &b, op).unwrap(),
                packed.bind_batch(&a, &b, op).unwrap()
            );
        }
        prop_assert_eq!(
            parallel.similarity_matrix(&a, &b).unwrap(),
            packed.similarity_matrix(&a, &b).unwrap()
        );
    }
}

#[test]
fn factorize_batch_regression_matches_per_query_results() {
    // Satellite regression at the repository level: run a harder configuration than
    // the unit test (circular-convolution binding + INT8) and require exact equality
    // of decoded indices between the batch and per-query paths.
    let mut setup = rng(2024);
    let set = CodebookSet::random(&[6, 6], 1024, BindingOp::CircularConvolution, &mut setup);
    let tuples = [[0usize, 5], [3, 2], [5, 5], [1, 0], [4, 3], [2, 1]];
    let queries: Vec<Hypervector> = tuples
        .iter()
        .map(|t| set.bind_indices(t).unwrap())
        .collect();
    let config = FactorizerConfig {
        convergence_threshold: 0.3,
        ..FactorizerConfig::default()
    }
    .with_precision(Precision::Int8);
    let factorizer = Factorizer::new(config);

    // One stream per query, seeded in query order: exactly the draws the
    // per-query `factorize` calls below make.
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    let mut rng_batch = rng(1);
    let mut streams: Vec<StdRng> = queries
        .iter()
        .map(|_| StdRng::seed_from_u64(rng_batch.next_u64()))
        .collect();
    let batch = factorizer
        .factorize_matrix_scratch(
            &set,
            &HvMatrix::from_rows(&queries).unwrap(),
            &mut streams,
            &mut FactorizerScratch::default(),
        )
        .unwrap();

    let mut rng_single = rng(1);
    for (q, query) in queries.iter().enumerate() {
        let single = factorizer.factorize(&set, query, &mut rng_single).unwrap();
        assert_eq!(
            batch[q].indices, single.indices,
            "indices differ at query {q}"
        );
        assert_eq!(batch[q], single, "full result differs at query {q}");
    }
    // And the decode itself is correct.
    for (result, expected) in batch.iter().zip(&tuples) {
        assert_eq!(result.indices, expected.to_vec());
    }
}

#[test]
fn packed_solver_is_decision_identical_to_dense_end_to_end() {
    // The packed fused resonator against the f32 resonator of the parallel
    // backend, both inside the one sign-plane solve (encode, XOR polish,
    // popcount scoring), from the same seed: reports, answer choices and final
    // rng state must all match on every dataset family and at every precision.
    // Perception noise makes some rows exit on a limit cycle or the iteration
    // cap, and below FP32 the packed engine quantizes its projection
    // accumulators where the f32 engine quantizes its projections.
    use cogsys_datasets::{DatasetKind, ProblemGenerator};
    use cogsys_workloads::{NeurosymbolicSolver, SolverConfig, SolverScratch};
    use rand::RngCore;

    for precision in Precision::all() {
        let solver = |backend: BackendKind| {
            let config = SolverConfig {
                perception_noise: 0.02,
                ..SolverConfig::default()
            };
            NeurosymbolicSolver::new(
                config.with_backend(backend).with_precision(precision),
                &mut rng(0xAB),
            )
        };
        let packed = solver(BackendKind::Packed);
        let dense = solver(BackendKind::Parallel);
        let mut row_exits = 0;
        for kind in DatasetKind::ALL {
            let mut r = rng(0xCD);
            let problems = ProblemGenerator::new(kind).generate_batch(6, &mut r);
            let mut r1 = r.clone();
            let mut r2 = r.clone();
            let mut sc1 = SolverScratch::default();
            let mut sc2 = SolverScratch::default();
            let packed_report = packed
                .solve_batch_with(&problems, &mut r1, &mut sc1)
                .unwrap();
            let dense_report = dense
                .solve_batch_with(&problems, &mut r2, &mut sc2)
                .unwrap();
            let case = format!("{precision}/{kind}");
            assert_eq!(packed_report, dense_report, "{case}: reports diverge");
            assert_eq!(
                sc1.choices(),
                sc2.choices(),
                "{case}: answer choices diverge"
            );
            assert_eq!(r1.next_u64(), r2.next_u64(), "{case}: rng streams diverge");
            row_exits += dense_report.rows_limit_cycle + dense_report.rows_capped;
        }
        assert!(row_exits > 0, "{precision}: no row left the converged path");
    }
}

#[test]
fn backends_agree_through_the_factorizer_on_both_bindings() {
    for (binding, threshold) in [
        (BindingOp::Hadamard, 0.9f32),
        (BindingOp::CircularConvolution, 0.3),
    ] {
        let mut setup = rng(7);
        let set = CodebookSet::random(&[5, 5], 1024, binding, &mut setup);
        let query = set.bind_indices(&[2, 4]).unwrap();
        let config = FactorizerConfig {
            convergence_threshold: threshold,
            ..FactorizerConfig::default()
        };
        let mut r1 = rng(3);
        let mut r2 = rng(3);
        let a = Factorizer::new(config.clone().with_backend(BackendKind::Reference))
            .factorize(&set, &query, &mut r1)
            .unwrap();
        let b = Factorizer::new(config.with_backend(BackendKind::Parallel))
            .factorize(&set, &query, &mut r2)
            .unwrap();
        assert_eq!(a.indices, b.indices, "backends disagree under {binding:?}");
        assert_eq!(a.converged, b.converged);
        assert!((a.similarity - b.similarity).abs() < 1e-4);
        assert_eq!(a.indices, vec![2, 4]);
    }
}
