//! Cross-checks of the batched kernels against each other and against the scalar
//! `ops` and the naive time-domain kernels, plus the batch-vs-single factorization
//! regression.
//!
//! These are the repository-level guarantees the batch layer rests on:
//!
//! 1. the one `f32` kernel set, `ReferenceBackend`'s methods, matches the scalar
//!    `ops` and the `O(d²)` convolution within float tolerance, and serves as the
//!    oracle of every sign-plane kernel;
//! 2. `PackedBackend` reproduces the reference exactly where the bit-packed algebra
//!    applies (bipolar Hadamard bind/unbind, integer dot products, vote-count bundling)
//!    and within the 1e-4 cosine contract for the Hamming→cosine cleanup mapping, on
//!    power-of-two and non-power-of-two dimensions (tail-word padding included);
//! 3. the packed engine decodes a RAVEN-sized block exactly on nearly every row at
//!    FP32 and INT8, and the codebook search that polish runs decides like the
//!    dense oracle;
//! 4. batching is a pure performance transform — `factorize_matrix_scratch` returns
//!    exactly the per-query `factorize` results.

use cogsys_factorizer::{Factorizer, FactorizerConfig, FactorizerScratch};
use cogsys_vsa::batch::{BackendKind, HvMatrix, ReferenceBackend};
use cogsys_vsa::codebook::BindingOp;
use cogsys_vsa::packed::{BitMatrix, CleanupScratch, PackedBackend};
use cogsys_vsa::{ops, rng, Codebook, CodebookSet, Hypervector, Precision, VsaError};
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

    /// The reference kernels match the naive O(d²) kernel on circular-convolution
    /// binding for random dimensions — power-of-two (FFT path) and not (naive path).
    #[test]
    fn prop_reference_convolution_matches_naive(seed in 0u64..1000, d_pow in 2u32..9, odd in 0usize..7) {
        // Mix of power-of-two dims (64..512) and non-power-of-two neighbours.
        let dim = (1usize << d_pow) + [0, 1, 3, 5, 7, 11, 13][odd];
        let (rows_a, a) = random_batch(3, dim, seed);
        let (rows_b, b) = random_batch(3, dim, seed ^ 0x5eed);
        let mut bound = HvMatrix::default();
        ReferenceBackend.bind_batch_into(&a, &b, BindingOp::CircularConvolution, &mut bound).unwrap();
        for i in 0..3 {
            let naive = ops::circular_convolve_naive(rows_a[i].values(), rows_b[i].values());
            prop_assert!(cosine(bound.row(i), &naive) > 1.0 - 1e-4);
            for (x, y) in bound.row(i).iter().zip(&naive) {
                prop_assert!((x - y).abs() < 1e-2 * dim as f32, "{x} vs {y} at dim {dim}");
            }
        }
    }

    /// Batched unbinding equals the scalar unbind of every row, bitwise, under both
    /// bindings on random dims.
    #[test]
    fn prop_reference_unbind_matches_scalar_ops(seed in 0u64..1000, dim in 2usize..160) {
        let (rows_a, a) = random_batch(2, dim, seed);
        let (rows_b, b) = random_batch(2, dim, seed + 17);
        let mut unbound = HvMatrix::default();
        for op in [BindingOp::Hadamard, BindingOp::CircularConvolution] {
            ReferenceBackend.unbind_batch_into(&a, &b, op, &mut unbound).unwrap();
            for i in 0..2 {
                let scalar = match op {
                    BindingOp::Hadamard => ops::hadamard_bind(&rows_a[i], &rows_b[i]),
                    BindingOp::CircularConvolution => ops::try_circular_correlate(&rows_a[i], &rows_b[i]),
                }
                .unwrap();
                prop_assert!(unbound.row(i) == scalar.values(), "{:?} row {}", op, i);
            }
        }
    }

    /// Similarity GEMM and cleanup on random shapes: the reference kernels, the
    /// packed kernels over a codebook's cached sign planes and the codebook search
    /// all give the scalar dot products exactly (dots of ±1 rows are exact in f32)
    /// and the scalar argmax, lowest row on ties.
    #[test]
    fn prop_backends_match_on_similarity_and_cleanup(
        seed in 0u64..1000,
        dim in 4usize..200,
        code_rows in 2usize..24,
        queries in 1usize..12,
    ) {
        let (code, cb) = random_batch(code_rows, dim, seed);
        let (rows, q) = random_batch(queries, dim, seed + 101);
        let q_bits = BitMatrix::from_matrix(&q).unwrap();
        let mut dots = HvMatrix::zeros(queries, code_rows);
        for (i, row) in rows.iter().enumerate() {
            dots.row_mut(i).copy_from_slice(&ops::matvec_similarity(&code, row).unwrap());
        }
        let codebook = Codebook::new("c", code).unwrap();
        let planes = codebook.packed().unwrap();
        let expected: Vec<(usize, f32)> = dots
            .row_iter()
            .map(|row| {
                let m = ops::argmax(row).unwrap();
                (m, row[m] / dim as f32)
            })
            .collect();
        let mut sims = HvMatrix::default();
        ReferenceBackend.similarity_matrix_into(&cb, &q, &mut sims).unwrap();
        prop_assert_eq!(&sims, &dots);
        PackedBackend.similarity_matrix_packed_into(planes, &q_bits, &mut sims);
        prop_assert_eq!(&sims, &dots);
        let mut scratch = CleanupScratch::default();
        let (mut packed, mut searched) = (Vec::new(), Vec::new());
        PackedBackend.cleanup_batch_packed_into(planes, &q_bits, &mut scratch, &mut packed);
        codebook.cleanup_batch_bits_into(&q_bits, &mut scratch, &mut searched).unwrap();
        let cleanups = [ReferenceBackend.cleanup_batch(&cb, &q).unwrap(), packed, searched];
        for cleanup in cleanups {
            for ((ei, esim), (ci, csim)) in expected.iter().zip(&cleanup) {
                prop_assert_eq!(ei, ci);
                prop_assert!((esim - csim).abs() < 1e-4, "{} vs {}", esim, csim);
            }
        }
    }

    /// Packed parity on bipolar inputs: bind/unbind are *exact* (the XOR of sign
    /// planes equals the reference Hadamard product of signs), across power-of-two
    /// and non-power-of-two dims so tail-word padding is exercised.
    #[test]
    fn prop_packed_bind_unbind_exact_on_bipolar(seed in 0u64..1000, d_pow in 2u32..9, odd in 0usize..7) {
        let dim = (1usize << d_pow) + [0, 1, 3, 5, 7, 11, 13][odd];
        let (_, a) = random_batch(3, dim, seed);
        let (_, b) = random_batch(3, dim, seed ^ 0xb17);
        let (mut r, mut ru) = (HvMatrix::default(), HvMatrix::default());
        ReferenceBackend.bind_batch_into(&a, &b, BindingOp::Hadamard, &mut r).unwrap();
        ReferenceBackend.unbind_batch_into(&r, &b, BindingOp::Hadamard, &mut ru).unwrap();
        prop_assert_eq!(&ru, &a);
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

    /// Popcount similarity over sign planes is the exact integer dot product, the
    /// packed cleanup agrees with the reference within 1e-4 cosine after the
    /// Hamming→cosine mapping, and the per-dimension vote count of the sign planes
    /// equals the scalar bundle exactly, which pins down the tie behaviour of any
    /// later sign threshold.
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
        let (rows, q) = random_batch(queries, dim, seed + 131);
        let cb_bits = BitMatrix::from_matrix(&cb).unwrap();
        let q_bits = BitMatrix::from_matrix(&q).unwrap();
        let packed = PackedBackend::new();
        // Dots of ±1 rows are exact in f32, so popcount similarity is bitwise equal.
        let (mut reference, mut sims) = (HvMatrix::default(), HvMatrix::default());
        ReferenceBackend.similarity_matrix_into(&cb, &q, &mut reference).unwrap();
        packed.similarity_matrix_packed_into(&cb_bits, &q_bits, &mut sims);
        prop_assert_eq!(reference, sims);
        let rc = ReferenceBackend.cleanup_batch(&cb, &q).unwrap();
        let mut pc = Vec::new();
        let mut scratch = CleanupScratch::default();
        packed.cleanup_batch_packed_into(&cb_bits, &q_bits, &mut scratch, &mut pc);
        prop_assert_eq!(rc.len(), pc.len());
        for ((ri, rsim), (pi, psim)) in rc.iter().zip(&pc) {
            prop_assert_eq!(ri, pi);
            prop_assert!((rsim - psim).abs() < 1e-4, "{} vs {}", rsim, psim);
        }
        let votes: Vec<f32> = (0..dim)
            .map(|j| {
                let negative = (0..queries)
                    .filter(|&i| q_bits.row_words(i)[j / 64] >> (j % 64) & 1 == 1)
                    .count();
                queries as f32 - 2.0 * negative as f32
            })
            .collect();
        prop_assert_eq!(ops::bundle(&rows).unwrap().values(), votes.as_slice());
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
        let mut dense = HvMatrix::default();
        ReferenceBackend.project_batch_into(&cb, &weights, &mut dense).unwrap();
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

    /// Pre-packed `BitMatrix` queries through `Codebook::cleanup_batch_bits_into`
    /// decode exactly like the same `f32` queries through the dense oracle,
    /// `ReferenceBackend::cleanup_batch` on the codebook's matrix — the sign-plane
    /// search changes cost, never results.
    #[test]
    fn prop_packed_query_cleanup_equals_dense_query(
        seed in 0u64..1000,
        d_pow in 2u32..9,
        odd in 0usize..7,
        code_rows in 2usize..24,
        queries in 1usize..10,
    ) {
        let dim = (1usize << d_pow) + [0, 1, 3, 5, 7, 11, 13][odd];
        let mut r = rng(seed);
        let cb = Codebook::random("p", code_rows, dim, &mut r);
        let (_, q) = random_batch(queries, dim, seed + 211);
        let bits = BitMatrix::from_matrix(&q).expect("bipolar queries pack");
        let dense = ReferenceBackend.cleanup_batch(cb.matrix(), &q).unwrap();
        let mut packed = Vec::new();
        cb.cleanup_batch_bits_into(&bits, &mut CleanupScratch::default(), &mut packed).unwrap();
        prop_assert_eq!(dense.len(), packed.len());
        for ((di, dsim), (pi, psim)) in dense.iter().zip(&packed) {
            prop_assert_eq!(di, pi);
            prop_assert!((dsim - psim).abs() < 1e-4, "{} vs {}", dsim, psim);
        }
    }

    /// The resonator step equals the split three-pass sequence called by hand
    /// (unbind materialization → similarity GEMM → weighted sign projection)
    /// **bitwise** — estimate sign planes, perturbed similarity rows, argmax
    /// decisions, and per-query noise-stream positions — with and without
    /// noise, across power-of-two and non-power-of-two dims (tail words
    /// included) and 1, 7, 9, 16 or 17 rows, so the scan's last 8-query block
    /// is partial (1 or 7 rows) or full, over two Gauss–Seidel iterations
    /// so the in-place estimate feedback is exercised. With `decline_sel`
    /// set, the Similarity hook declines a scattered subset of rows per
    /// iteration and factor: the split oracle keeps those rows' previous
    /// estimates and draws no projection noise for them.
    #[test]
    fn prop_fused_resonator_step_matches_split(
        seed in 0u64..1000,
        d_pow in 2u32..9,
        odd in 0usize..7,
        code_rows in 2usize..16,
        rows_sel in 0usize..5,
        factors in 2usize..5,
        noise_sel in 0usize..2,
        decline_sel in 0usize..2,
    ) {
        use cogsys_vsa::packed::ResonatePhase;
        use rand::{RngCore, SeedableRng};
        use rand_distr::{Distribution, Normal};

        let with_noise = noise_sel == 1;
        let rows = [1usize, 7, 9, 16, 17][rows_sel];
        let declines = |iter: usize, f: usize, q: usize| {
            let mix = (q as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed ^ (8 * iter + f) as u64;
            decline_sel == 1 && mix.count_ones().is_multiple_of(3)
        };
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
        // projection, each a separate full-batch pass.
        let mut est_split = initial.clone();
        let mut streams_split = streams();
        let mut split_decisions = Vec::new();
        let mut sims_split = HvMatrix::default();
        let (mut unbound, mut acc) = (BitMatrix::default(), Vec::new());
        for iter in 0..2 {
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
                let previous = out.to_matrix();
                packed.project_signs_packed_into(codebook, &sims_split, |q, row| {
                    if with_noise && !declines(iter, f, q) {
                        for v in row.iter_mut() {
                            *v += noise.sample(&mut streams_split[q]);
                        }
                    }
                }, &mut acc, out);
                for q in (0..rows).filter(|&q| declines(iter, f, q)) {
                    out.pack_signs_row(q, previous.row(q));
                }
            }
        }

        let mut est_fused = initial.clone();
        let mut streams_fused = streams();
        let mut fused_decisions = Vec::new();
        let mut sims_fused = HvMatrix::default();
        let (mut unbound_f, mut acc_f) = (BitMatrix::default(), Vec::new());
        for iter in 0..2 {
            for (f, codebook) in codebooks.iter().enumerate() {
                packed.resonate_step_fused_into(
                    codebook, &query, &mut est_fused, f,
                    &mut unbound_f, &mut sims_fused, &mut acc_f,
                    |phase, q, row| {
                        if with_noise {
                            for v in row.iter_mut() {
                                *v += noise.sample(&mut streams_fused[q]);
                            }
                        }
                        if phase == ResonatePhase::Similarity {
                            fused_decisions.push(ops::argmax(row).unwrap_or(0));
                        }
                        !declines(iter, f, q)
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

    /// Non-bipolar operands must not silently lose magnitude: the reference kernels
    /// equal the scalar `ops` bitwise on real rows, and a real-valued codebook (no
    /// sign planes) is refused by the sign-plane search, typed, rather than scanned
    /// on signs it does not have; its f32 rows stay the dense kernels' operand.
    #[test]
    fn prop_packed_falls_back_on_real_inputs(seed in 0u64..500, dim in 2usize..130) {
        let mut r = rng(seed);
        let hvs: Vec<Hypervector> = (0..3)
            .map(|_| Hypervector::random_real(dim, &mut r))
            .collect();
        let a = HvMatrix::from_rows(&hvs).unwrap();
        let (rows_b, b) = random_batch(3, dim, seed + 7);
        let mut out = HvMatrix::default();
        for op in [BindingOp::Hadamard, BindingOp::CircularConvolution] {
            ReferenceBackend.bind_batch_into(&a, &b, op, &mut out).unwrap();
            for i in 0..3 {
                let scalar = match op {
                    BindingOp::Hadamard => ops::hadamard_bind(&hvs[i], &rows_b[i]).unwrap(),
                    BindingOp::CircularConvolution => ops::circular_convolve(&hvs[i], &rows_b[i]),
                };
                prop_assert!(out.row(i) == scalar.values(), "{:?} row {}", op, i);
            }
        }
        ReferenceBackend.similarity_matrix_into(&a, &b, &mut out).unwrap();
        for (i, row) in rows_b.iter().enumerate() {
            prop_assert_eq!(out.row(i), ops::matvec_similarity(&hvs, row).unwrap().as_slice());
        }
        let codebook = Codebook::new("real", hvs.clone()).unwrap();
        prop_assert!(codebook.packed().is_none());
        prop_assert_eq!(codebook.matrix(), &a);
        let b_bits = BitMatrix::from_matrix(&b).unwrap();
        let mut best = Vec::new();
        prop_assert!(matches!(
            codebook.cleanup_batch_bits_into(&b_bits, &mut CleanupScratch::default(), &mut best),
            Err(VsaError::Unsupported { .. })
        ));
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
    // The packed fused resonator against the f32 reference resonator, both
    // inside the one sign-plane solve (encode, XOR polish, popcount scoring),
    // from the same seed: reports, answer choices and final rng state must all
    // match on every dataset family and at every precision.
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
        let dense = solver(BackendKind::Reference);
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
        let b = Factorizer::new(config.with_backend(BackendKind::Packed))
            .factorize(&set, &query, &mut r2)
            .unwrap();
        assert_eq!(a.indices, b.indices, "backends disagree under {binding:?}");
        assert_eq!(a.converged, b.converged);
        assert!((a.similarity - b.similarity).abs() < 1e-4);
        assert_eq!(a.indices, vec![2, 4]);
    }
}

#[test]
fn packed_raven_block_decodes_and_polishes_exactly() {
    // A RAVEN-sized block decode: block 0's 9×9×5 codebooks at d=2048 on 64
    // scenes, each the sign of the block-0 product plus a block-1 product (the
    // other block's crosstalk) with interface bit flips, at the solver's block
    // convergence threshold. The packed engine must decode nearly every row
    // exactly, and every polish cleanup on sign planes must decide like the
    // dense route.
    use cogsys_workloads::NeurosymbolicSolver;
    use rand::{Rng, RngCore, SeedableRng};

    let dim = 2048;
    let mut setup = rng(0x5167);
    let block0 = CodebookSet::random(&[9, 9, 5], dim, BindingOp::Hadamard, &mut setup);
    let block1 = CodebookSet::random(&[6, 10], dim, BindingOp::Hadamard, &mut setup);
    let tuples: Vec<[usize; 3]> = (0..64)
        .map(|_| {
            [
                setup.gen_range(0..9),
                setup.gen_range(0..9),
                setup.gen_range(0..5),
            ]
        })
        .collect();
    let scenes: Vec<Hypervector> = tuples
        .iter()
        .map(|t| {
            let own = block0.bind_indices(t).unwrap();
            let other = block1
                .bind_indices(&[setup.gen_range(0..6), setup.gen_range(0..10)])
                .unwrap();
            let scene = own
                .values()
                .iter()
                .zip(other.values())
                .map(|(a, b)| if a + b < 0.0 { -1.0 } else { 1.0 })
                .collect();
            ops::flip_noise(&Hypervector::from_values(scene), 0.005, &mut setup)
        })
        .collect();
    let queries = BitMatrix::from_matrix(&HvMatrix::from_rows(&scenes).unwrap()).unwrap();

    for precision in [Precision::Fp32, Precision::Int8] {
        let config = FactorizerConfig {
            convergence_threshold: NeurosymbolicSolver::block_convergence_threshold(2),
            ..FactorizerConfig::default()
        }
        .with_backend(BackendKind::Packed)
        .with_precision(precision);
        let mut seeds = rng(0xB10C);
        let mut streams: Vec<_> = (0..queries.rows())
            .map(|_| rand::rngs::StdRng::seed_from_u64(seeds.next_u64()))
            .collect();
        let results = Factorizer::new(config)
            .factorize_matrix_bits_scratch(
                &block0,
                &queries,
                &mut streams,
                &mut FactorizerScratch::default(),
            )
            .unwrap();
        let exact = results
            .iter()
            .zip(&tuples)
            .filter(|(r, t)| r.indices == t.to_vec())
            .count();
        assert!(
            exact >= 56,
            "{precision}: only {exact}/64 rows decoded exactly"
        );
    }

    // Polish's codebook search: per-factor cleanups of the scenes on sign planes
    // against the dense oracle on the unpacked scenes.
    let mut scratch = CleanupScratch::default();
    let mut packed = Vec::new();
    let unpacked = queries.to_matrix();
    for f in 0..block0.num_factors() {
        let codebook = block0.factor(f).unwrap();
        codebook
            .cleanup_batch_bits_into(&queries, &mut scratch, &mut packed)
            .unwrap();
        let dense = ReferenceBackend
            .cleanup_batch(codebook.matrix(), &unpacked)
            .unwrap();
        assert_eq!(packed.len(), dense.len());
        for ((pi, psim), (di, dsim)) in packed.iter().zip(&dense) {
            assert_eq!(pi, di, "factor {f}");
            assert!((psim - dsim).abs() < 1e-4, "factor {f}: {psim} vs {dsim}");
        }
    }
}
