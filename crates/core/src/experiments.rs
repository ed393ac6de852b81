//! One entry point per table / figure of the paper's evaluation.
//!
//! Every function returns an [`ExperimentTable`] (or a small set of them) whose rows
//! mirror the series the paper plots. The `cogsys-bench` binaries print these tables;
//! `EXPERIMENTS.md` records paper-reported vs. measured values. Absolute numbers are not
//! expected to match the authors' testbed — the comparisons of interest are the
//! *relative* ones (who wins, by roughly what factor, where the crossovers fall).

use crate::system::{AblationVariant, CogSysConfig, CogSysSystem};
use cogsys_datasets::{Constellation, DatasetKind, ProblemGenerator, RuleKind};
use cogsys_factorizer::{AccuracyReport, BoundedNoise, FactorizationCost, FactorizerConfig};
use cogsys_sim::devices::tab2_kernel_stats;
use cogsys_sim::{
    dataflow, AcceleratorConfig, ComputeArray, DeviceKind, DeviceModel, EnergyModel, Kernel,
    KernelClass, Roofline,
};
use cogsys_vsa::batch::{BackendKind, HvMatrix, ReferenceBackend};
use cogsys_vsa::codebook::{BindingOp, CodebookSet};
use cogsys_vsa::{Codebook, Hypervector, Precision};
use cogsys_workloads::{NeurosymbolicSolver, SolverConfig, TaskSize, WorkloadKind, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A generic result table: one labelled row per series entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ExperimentTable {
    /// Table title (e.g. `"Fig. 15: end-to-end runtime"`).
    pub title: String,
    /// Column headers (not including the row label).
    pub columns: Vec<String>,
    /// Rows: label plus one value per column.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl ExperimentTable {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, label: impl Into<String>, values: Vec<f64>) {
        self.rows.push((label.into(), values));
    }

    /// Looks up a value by row label and column name.
    pub fn value(&self, row: &str, column: &str) -> Option<f64> {
        let col = self.columns.iter().position(|c| c == column)?;
        self.rows
            .iter()
            .find(|(label, _)| label == row)
            .and_then(|(_, values)| values.get(col).copied())
    }
}

impl fmt::Display for ExperimentTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Each column is at least 16 wide and one wider than its label, so a long
        // label keeps a space before it.
        let widths: Vec<usize> = self
            .columns
            .iter()
            .map(|c| (c.chars().count() + 1).max(16))
            .collect();
        writeln!(f, "== {} ==", self.title)?;
        write!(f, "{:<28}", "")?;
        for (c, &w) in self.columns.iter().zip(&widths) {
            write!(f, "{c:>w$}")?;
        }
        writeln!(f)?;
        for (label, values) in &self.rows {
            write!(f, "{label:<28}")?;
            for (i, v) in values.iter().enumerate() {
                let w = widths.get(i).copied().unwrap_or(16);
                if v.abs() >= 1000.0 || (*v != 0.0 && v.abs() < 0.01) {
                    write!(f, "{v:>w$.3e}")?;
                } else {
                    write!(f, "{v:>w$.3}")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// One measured point of the backend-throughput sweep: a `(backend, kernel, dim,
/// batch)` cell with its wall-clock cost per batched kernel invocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Backend name (`reference`, `packed`, or a bench-local twin such as
    /// `noise_free_twin`).
    pub backend: String,
    /// Kernel name: `cleanup_prepacked` (codebook cleanup of pre-packed `BitMatrix`
    /// queries), `solve_batch` (the cross-problem batched solver over `batch`
    /// problems, reused scratch), and the further kernels the producing functions
    /// below document.
    pub kernel: String,
    /// Hypervector dimensionality.
    pub dim: usize,
    /// Number of rows in the batch.
    pub batch: usize,
    /// Wall-clock nanoseconds for one batched kernel call (the median of
    /// [`RESCUE_BENCH_ROUNDS`] warm rounds for the micro-kernel and rescue-route
    /// cells, one warm-up then the best of seven for `solve_batch` and its stage
    /// cells — see the producing functions).
    pub ns_per_op: f64,
}

impl BenchRecord {
    fn matches(&self, backend: &str, kernel: &str, dim: usize, batch: usize) -> bool {
        self.backend == backend && self.kernel == kernel && self.dim == dim && self.batch == batch
    }
}

/// Number of codebook rows used by the throughput sweep's cleanup kernel.
pub const BENCH_CODEBOOK_ROWS: usize = 64;

/// Timed rounds behind each micro-kernel cell of [`backend_throughput_records`]
/// and each rescue-route cell of [`product_scan_records`].
pub const RESCUE_BENCH_ROUNDS: usize = 9;

/// Seconds per call of each of `SIDES` calls `f(0)`, `f(1)`, …: one warm-up call
/// each, then the median of [`RESCUE_BENCH_ROUNDS`] rounds, the sides alternating
/// inside every round. On a shared core a median is not moved by the odd round
/// that runs fast or slow the way a minimum is, and a swing in host speed reaches
/// every side, so the ratio of a cell to its twin holds steadier than medians
/// taken one after another.
///
/// With `rewarm`, each timed call also follows an untimed call of the same side.
/// Twins that stream megabytes of `f32` need it: they evict a packed kernel's
/// planes, and a packed call timed straight after one read 1.3–1.7× its in-loop
/// cost on a 2-vCPU AVX-512 VM. Sides that share one buffer need none, and the
/// `noise_signs` rules (branchy on identical input) read differently with it.
fn median_secs_each<const SIDES: usize>(rewarm: bool, f: &mut dyn FnMut(usize)) -> [f64; SIDES] {
    use std::time::Instant;
    (0..SIDES).for_each(&mut *f);
    let mut rounds = [[0.0f64; RESCUE_BENCH_ROUNDS]; SIDES];
    for round in 0..RESCUE_BENCH_ROUNDS {
        for (side, times) in rounds.iter_mut().enumerate() {
            if rewarm {
                f(side);
            }
            let t = Instant::now();
            f(side);
            times[round] = t.elapsed().as_secs_f64();
        }
    }
    rounds.map(|mut times| {
        times.sort_by(f64::total_cmp);
        times[RESCUE_BENCH_ROUNDS / 2]
    })
}

/// The records of a cell (side 0) and its same-run twin (side 1), timed
/// together by [`median_secs_each`]: `backends[side]` names side `side`.
fn twin_records(
    backends: [&str; 2],
    kernel: &str,
    dim: usize,
    batch: usize,
    secs: [f64; 2],
) -> [BenchRecord; 2] {
    std::array::from_fn(|side| BenchRecord {
        backend: backends[side].to_string(),
        kernel: kernel.to_string(),
        dim,
        batch,
        ns_per_op: secs[side] * 1e9,
    })
}

/// Measures the hot batch kernels — codebook cleanup and the full similarity GEMM
/// of **pre-packed** `BitMatrix` queries, the fused sign projection, and the
/// bounded-noise sign perturbation — as `packed` cells beside same-run
/// `reference` twins, across the requested dimensionalities and batch sizes.
/// Each record is the median of [`RESCUE_BENCH_ROUNDS`] timed rounds, every cell
/// and its twin alternating round by round, so a host-speed swing reaches both
/// sides of the ratio.
///
/// The cleanup and similarity cells call the kernels directly on a random
/// [`Codebook`]: on the packed backend, the popcount scan behind every codebook
/// search ([`cogsys_vsa::PackedBackend::cleanup_batch_packed_into`], the kernel
/// under [`Codebook::cleanup_batch_bits_into`]) and the popcount GEMM behind the
/// resonator's similarity step, over the codebook's cached sign planes; on the
/// reference backend, their `f32` oracles ([`ReferenceBackend::cleanup_batch`],
/// [`ReferenceBackend::similarity_matrix_into`]) on the unpacked queries.
/// `project_signs` is the fused weighted-superposition → sign-threshold kernel
/// over a [`BENCH_CODEBOOK_ROWS`]-row codebook, beside a `reference` twin (the
/// dense projection GEMM + sign packing, checked bitwise against the packed
/// output); `noise_signs` pits the production projection epilogue on a dense row
/// (`perturb_signs` through [`cogsys_vsa::BitMatrix::pack_projected_row`]: one
/// vector-compare eligibility mask per 64-dim word, the masked draws, the sign
/// pack; recorded as `packed`) against the element-wise rule and the sign pack
/// (recorded as `reference`, its sign planes checked bitwise against the
/// packed ones) on accumulators where a third of the elements, scattered
/// inside every word, lie within the amplitude.
pub fn backend_throughput_records(
    dims: &[usize],
    batches: &[usize],
    seed: u64,
) -> Vec<BenchRecord> {
    use cogsys_vsa::packed::{BitMatrix, CleanupScratch};
    use rand::Rng;

    let mut records = Vec::new();
    let mut rng = cogsys_vsa::rng(seed);
    for &dim in dims {
        let codebook = Codebook::random("bench", BENCH_CODEBOOK_ROWS, dim, &mut rng);
        for &batch in batches {
            let rows: Vec<Hypervector> = (0..batch)
                .map(|_| Hypervector::random_bipolar(dim, &mut rng))
                .collect();
            let a = HvMatrix::from_rows(&rows).expect("rows share a dimension");
            let a_bits = BitMatrix::from_matrix(&a).expect("bipolar queries pack");
            // Projection weights: one row per query, one weight per codebook row,
            // on the similarity scale the resonator feeds this kernel.
            let mut weights = HvMatrix::zeros(batch, BENCH_CODEBOOK_ROWS);
            for (q, row) in rows.iter().enumerate() {
                for (m, slot) in weights.row_mut(q).iter_mut().enumerate() {
                    *slot = row.values()[m % dim] * (1.0 + m as f32 / 64.0);
                }
            }

            let planes = codebook.packed().expect("random codebooks are bipolar");
            // Pre-packed queries on both sides: the packed kernels scan the cached
            // sign planes, their reference twins unpack the queries and run on the
            // f32 codebook matrix.
            let packed = cogsys_vsa::PackedBackend::new();
            let mut dense = HvMatrix::default();
            let mut scratch = CleanupScratch::default();
            let mut best = Vec::new();
            let cleanup = median_secs_each::<2>(true, &mut |side| {
                if side == 0 {
                    packed.cleanup_batch_packed_into(planes, &a_bits, &mut scratch, &mut best);
                } else {
                    a_bits.unpack_into(&mut dense);
                    best = ReferenceBackend
                        .cleanup_batch(codebook.matrix(), &dense)
                        .expect("shapes match");
                }
            });
            let mut sims = HvMatrix::default();
            let similarity = median_secs_each::<2>(true, &mut |side| {
                if side == 0 {
                    packed.similarity_matrix_packed_into(planes, &a_bits, &mut sims);
                } else {
                    a_bits.unpack_into(&mut dense);
                    ReferenceBackend
                        .similarity_matrix_into(codebook.matrix(), &dense, &mut sims)
                        .expect("shapes match");
                }
            });
            let twins = ["packed", "reference"];
            for (kernel, secs) in [
                ("cleanup_prepacked", cleanup),
                ("similarity_prepacked", similarity),
            ] {
                records.extend(twin_records(twins, kernel, dim, batch, secs));
            }
            records.extend(project_signs_cells("project_signs", &codebook, &weights));

            // Bounded-noise sign perturbation on accumulator-shaped values whose
            // regimes are scattered element by element (one third within the
            // amplitude, two thirds provably outside, mixed inside every 64-dim
            // word, as in the resonator's real accumulators), so the `packed` row
            // measures the masked draw and the `reference` row the element-wise
            // rule it must match.
            let noise = BoundedNoise::for_sigma(0.25).expect("positive sigma");
            let amp = noise.amplitude();
            let mut regimes = cogsys_vsa::rng(seed ^ 0x5CA7);
            let base: Vec<f32> = a
                .as_slice()
                .iter()
                .map(|&sign| {
                    let scale = match regimes.gen_range(0..3) {
                        0 => amp * 0.5,
                        1 => amp * 4.0,
                        _ => amp * 2.0,
                    };
                    sign * scale
                })
                .collect();
            let mut values = base.clone();
            let mut signs = [BitMatrix::zeros(batch, dim), BitMatrix::zeros(batch, dim)];
            let perturb = median_secs_each::<2>(false, &mut |side| {
                values.copy_from_slice(&base);
                let mut r = cogsys_vsa::rng(seed ^ 0x4015E);
                for (q, row) in values.chunks_mut(dim).enumerate() {
                    if side == 1 {
                        noise.perturb_signs_elementwise(row, &mut r);
                        signs[1].pack_signs_row(q, row);
                    } else {
                        signs[0].pack_projected_row(q, row, |row| {
                            noise.perturb_signs(row, &mut r, Precision::Fp32)
                        });
                    }
                }
            });
            assert_eq!(
                signs[0], signs[1],
                "the noise epilogue diverged from the element-wise rule"
            );
            records.extend(twin_records(twins, "noise_signs", dim, batch, perturb));
        }
    }
    records
}

/// Problem count and vector dimensionality of the solver-throughput sweep.
///
/// 64 problems is the batch size of the headline acceptance measurement (one
/// `batch_tasks`-sized serving chunk of 8·64 = 512 panel rows through the packed
/// kernels); d = 2048 is the solver's production dimensionality.
pub const SOLVER_BENCH_PROBLEMS: [usize; 2] = [8, 64];

/// Timed rounds of the `plan_stage_*` cells.
const SOLVE_BATCH_ROUNDS: usize = 7;

/// Measures end-to-end solver throughput: the `solve_batch` kernel runs the
/// cross-problem batched engine (one reused [`cogsys_workloads::SolverScratch`],
/// all problems in one call) on the packed backend, beside a same-run
/// `reference` twin, the same solver on the f32 reference backend over the same
/// problems. Tracking it against the committed baseline guards the whole serving
/// path (encode, decode, answer scoring) rather than single kernels.
///
/// `ns_per_op` is the wall clock for solving the *whole* batch: the median of
/// [`RESCUE_BENCH_ROUNDS`] rounds, the packed call and its twin alternating
/// round by round (`median_secs_each`, each timed call after an untimed call
/// of the same side), so [`packed_bench_regressions`] gates the packed cell on
/// its ratio to a twin timed in the same seconds. Best-of-seven cells
/// normalised by the run's host factor (every reference cell, timed at other
/// moments) failed the 1.3× gate in 2 of 10 runs whose raw times read faster
/// than the baseline.
///
/// The sweep also records `plan_stage_{encode,decode,score}`: the per-stage wall
/// clock of the best (by total) of seven further timed rounds, the cells
/// `cogsys-serve`'s per-stage `ServiceModel` fit and the adSCH stage-cost
/// validation consume.
pub fn solver_throughput_records(problem_counts: &[usize], seed: u64) -> Vec<BenchRecord> {
    use cogsys_workloads::{SolverScratch, StageNanos};

    let mut rng = cogsys_vsa::rng(seed);
    let solver = NeurosymbolicSolver::new(
        SolverConfig::default().with_backend(BackendKind::Packed),
        &mut rng,
    );
    let reference = NeurosymbolicSolver::new(
        SolverConfig::default().with_backend(BackendKind::Reference),
        &mut cogsys_vsa::rng(seed),
    );
    let dim = solver.config().vector_dim;
    let batches: Vec<_> = problem_counts
        .iter()
        .map(|&count| ProblemGenerator::new(DatasetKind::Raven).generate_batch(count, &mut rng))
        .collect();
    let mut scratch: [SolverScratch; 2] = Default::default();
    let mut records = Vec::new();
    for (problems, &count) in batches.iter().zip(problem_counts) {
        let secs = median_secs_each::<2>(true, &mut |side| {
            let mut r = cogsys_vsa::rng(seed ^ 0x5eed);
            let _ = [&solver, &reference][side]
                .solve_batch_with(problems, &mut r, &mut scratch[side])
                .expect("well-formed problems solve");
        });
        records.extend(twin_records(
            ["packed", "reference"],
            "solve_batch",
            dim,
            count,
            secs,
        ));

        let plan = solver.plan_for_batch(count);
        // Per-stage wall clock of the best timed round (by total), the cells the
        // serving front end's per-stage service fit consumes.
        let mut run_timed = || {
            let mut timings = StageNanos::default();
            let mut r = cogsys_vsa::rng(seed ^ 0x5eed);
            let _ = solver
                .solve_batch_with_plan_timed(&plan, problems, &mut r, &mut scratch[0], &mut timings)
                .expect("well-formed problems solve");
            timings
        };
        run_timed();
        let mut best = run_timed();
        for _ in 1..SOLVE_BATCH_ROUNDS {
            let round = run_timed();
            if round.total() < best.total() {
                best = round;
            }
        }
        for (stage, ns) in [
            ("plan_stage_encode", best.encode),
            ("plan_stage_decode", best.decode),
            ("plan_stage_score", best.score),
        ] {
            records.push(BenchRecord {
                backend: BackendKind::Packed.to_string(),
                kernel: stage.to_string(),
                dim,
                batch: count,
                ns_per_op: ns as f64,
            });
        }
    }
    records
}

/// Query rows of the product-scan cells: one 64-problem RAVEN call's panel rows.
pub const PRODUCT_SCAN_BENCH_ROWS: usize = 512;

/// Measures the rescue route's two kernels at the RAVEN block shapes (9×9×5 =
/// 405 and 6×10 = 60 product rows) for d = 2048 and 4096, over
/// [`PRODUCT_SCAN_BENCH_ROWS`] scene rows that superpose one product of each
/// block, as the solver's encode does:
///
/// * `product_scan_<rows>`: one batch search of the block's product planes
///   ([`cogsys_vsa::ProductCodebook::search_batch_bits_into`]), the rescue scan;
/// * `factorize_sweep_<rows>`: one packed resonator sweep of the same rows over
///   the block's factor codebooks (the solver's block factorizer capped at one
///   iteration, at the default stochasticity, noise draws included).
///
/// Both are recorded as `packed`, the median of [`RESCUE_BENCH_ROUNDS`] rounds,
/// each timed in alternating rounds with its same-run twin.
/// Each scan has a same-run `reference` twin, as
/// `cleanup_prepacked` has: [`ReferenceBackend::cleanup_batch`] over the unpacked
/// product planes and queries, checked to pick the scan's rows, so the guard
/// gates the scan by its twin. The sweeps have none, so the guard compares them
/// through the host factor. Per row, the scan costs `product_scan / rows` and
/// the sweep `factorize_sweep / rows`; their ratio is what the solver's
/// product-row limit for the rescue route is set from. Beside each sweep, a
/// same-run `noise_free_twin` record times the same sweep with stochasticity off
/// (the guard never reads it): the gap between the two is what the resonator's
/// noise costs.
pub fn product_scan_records(seed: u64) -> Vec<BenchRecord> {
    use cogsys_factorizer::{Factorizer, FactorizerScratch, StochasticityConfig};
    use cogsys_vsa::packed::{BitMatrix, CleanupScratch};
    use cogsys_vsa::ProductCodebook;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let rows = PRODUCT_SCAN_BENCH_ROWS;
    let backend = BackendKind::Packed.create();
    let mut records = Vec::new();
    for dim in [2048, 4096] {
        let mut rng = cogsys_vsa::rng(seed);
        let blocks = [
            CodebookSet::random(&[9, 9, 5], dim, BindingOp::Hadamard, &mut rng),
            CodebookSet::random(&[6, 10], dim, BindingOp::Hadamard, &mut rng),
        ];
        let mut scenes = HvMatrix::zeros(rows, dim);
        for q in 0..rows {
            let mut sum = vec![0.0f32; dim];
            for set in &blocks {
                let tuple: Vec<usize> = set
                    .codebooks()
                    .iter()
                    .map(|cb| rng.gen_range(0..cb.len()))
                    .collect();
                let product = set.bind_indices(&tuple).expect("in-range tuple");
                for (slot, v) in sum.iter_mut().zip(product.values()) {
                    *slot += v;
                }
            }
            for (slot, v) in scenes.row_mut(q).iter_mut().zip(&sum) {
                *slot = if *v < 0.0 { -1.0 } else { 1.0 };
            }
        }
        let queries = BitMatrix::from_matrix(&scenes).expect("scenes are bipolar");
        let streams: Vec<StdRng> = (0..rows)
            .map(|q| StdRng::seed_from_u64(seed ^ q as u64))
            .collect();
        for set in &blocks {
            let product = ProductCodebook::expand(set).expect("RAVEN product spaces expand");
            // The scan's same-run reference twin, as `cleanup_prepacked` has:
            // the f32 oracle cleanup over the unpacked product planes, on the
            // unpacked queries. It must pick the scan's rows.
            let mut tuple = vec![0; set.num_factors()];
            let products: Vec<Hypervector> = (0..product.len())
                .map(|r| {
                    product.factor_indices_into(r, &mut tuple);
                    set.bind_indices(&tuple).expect("in-range tuple")
                })
                .collect();
            let products = HvMatrix::from_rows(&products).expect("products share a dimension");
            let mut scratch = CleanupScratch::default();
            let mut best = Vec::new();
            let mut dense = HvMatrix::default();
            let mut oracle = Vec::new();
            let scan = median_secs_each::<2>(true, &mut |side| {
                if side == 0 {
                    product
                        .search_batch_bits_into(&queries, &mut scratch, &mut best)
                        .expect("shapes match");
                } else {
                    queries.unpack_into(&mut dense);
                    oracle = ReferenceBackend
                        .cleanup_batch(&products, &dense)
                        .expect("shapes match");
                }
            });
            let rows_of = |best: &[(usize, f32)]| best.iter().map(|b| b.0).collect::<Vec<_>>();
            assert_eq!(
                rows_of(&best),
                rows_of(&oracle),
                "product scan diverged from its reference twin"
            );
            // The sweep at the default stochasticity (side 0) and its noise-free twin.
            let factorizers = [
                FactorizerConfig::default().stochasticity,
                StochasticityConfig::disabled(),
            ]
            .map(|stochasticity| {
                Factorizer::with_backend(
                    FactorizerConfig {
                        convergence_threshold: NeurosymbolicSolver::block_convergence_threshold(2),
                        stochasticity,
                        ..FactorizerConfig::default()
                    }
                    .with_max_iterations(1),
                    std::sync::Arc::clone(&backend),
                )
            });
            let mut fscratch: [FactorizerScratch; 2] = Default::default();
            let sweep = median_secs_each::<2>(true, &mut |side| {
                let mut round = streams.clone();
                factorizers[side]
                    .factorize_matrix_bits_scratch(set, &queries, &mut round, &mut fscratch[side])
                    .expect("shapes match");
            });
            for (backends, kernel, secs) in [
                (["packed", "reference"], "product_scan", scan),
                (["packed", "noise_free_twin"], "factorize_sweep", sweep),
            ] {
                let kernel = format!("{kernel}_{}", product.len());
                records.extend(twin_records(backends, &kernel, dim, rows, secs));
            }
        }
    }
    records
}

/// The `project_signs` cells of one codebook and weight matrix, keyed
/// `(backend, kernel, codebook dim, weight rows)`:
///
/// * `packed`: [`cogsys_vsa::PackedBackend::project_signs_packed_into`], the
///   weighted-superposition → sign-threshold projection on the codebook's
///   cached sign planes, column codes included: the dense row kernel for a
///   codebook of more than ten rows, else the table route where the host has
///   a [`cogsys_vsa::table_tier`];
/// * `reference`: the dense projection GEMM ([`ReferenceBackend::project_batch_into`])
///   followed by sign packing, the pre-packed pipeline's shape for the step. Its
///   sign planes must equal the packed cell's bitwise: every projection tier sums
///   in the reference's ascending row order.
///
/// Each cell is the median of [`RESCUE_BENCH_ROUNDS`] rounds, the two timed in
/// alternating rounds ([`median_secs_each`]).
fn project_signs_cells(kernel: &str, codebook: &Codebook, weights: &HvMatrix) -> [BenchRecord; 2] {
    use cogsys_vsa::packed::BitMatrix;

    let (dim, batch) = (codebook.dim(), weights.rows());
    let planes = codebook.packed().expect("random codebooks are bipolar");
    let packed = cogsys_vsa::PackedBackend::new();
    let mut acc = Vec::new();
    let mut packed_bits = BitMatrix::default();
    let mut dense = HvMatrix::default();
    let mut dense_bits = BitMatrix::default();
    let secs = median_secs_each::<2>(true, &mut |side| {
        if side == 0 {
            packed.project_signs_packed_into(
                planes,
                weights,
                |_, _| {},
                &mut acc,
                &mut packed_bits,
            );
        } else {
            ReferenceBackend
                .project_batch_into(codebook.matrix(), weights, &mut dense)
                .expect("shapes match");
            dense_bits.ensure_shape(batch, dim);
            for q in 0..batch {
                dense_bits.pack_signs_row(q, dense.row(q));
            }
        }
    });
    assert_eq!(
        packed_bits, dense_bits,
        "packed {kernel} diverged from its reference twin"
    );
    twin_records(["packed", "reference"], kernel, dim, batch, secs)
}

/// Codebook lengths of the RAVEN factor codebooks the resonator projects onto
/// most: the 9-row position/type codebooks of block 0 and the 6-row codebook of
/// block 1.
pub const RAVEN_PROJECTION_ROWS: [usize; 2] = [9, 6];

/// The `project_signs_<rows>` cells — `packed` and `reference`, as for
/// `project_signs` in [`backend_throughput_records`] — at the RAVEN
/// factor-codebook lengths ([`RAVEN_PROJECTION_ROWS`]) for d = 2048 and 4096,
/// over [`PRODUCT_SCAN_BENCH_ROWS`] weight rows on the similarity scale the
/// resonator feeds the kernel (`d − 2·hamming`, an even integer in `[-d, d]`).
/// These cells time the table route (a codebook of at most ten rows: `2^M`
/// values per weight row, then one lookup per 64 dims); the `project_signs`
/// cells of [`backend_throughput_records`] project onto 64 rows and time the
/// dense row kernel.
pub fn raven_projection_records(seed: u64) -> Vec<BenchRecord> {
    use rand::Rng;

    let mut records = Vec::new();
    for dim in [2048, 4096] {
        let mut rng = cogsys_vsa::rng(seed);
        for rows in RAVEN_PROJECTION_ROWS {
            let codebook = Codebook::random("raven", rows, dim, &mut rng);
            let mut weights = HvMatrix::zeros(PRODUCT_SCAN_BENCH_ROWS, rows);
            for q in 0..PRODUCT_SCAN_BENCH_ROWS {
                for slot in weights.row_mut(q) {
                    *slot = (dim as i32 - 2 * rng.gen_range(0..=dim as i32)) as f32;
                }
            }
            records.extend(project_signs_cells(
                &format!("project_signs_{rows}"),
                &codebook,
                &weights,
            ));
        }
    }
    records
}

/// Parses a `BENCH_backends.json` payload produced by
/// [`backend_throughput_json`] back into records (a hand-rolled line scanner — the
/// build is offline, so no JSON crate is available). Unparseable lines are skipped.
pub fn parse_backend_throughput_json(text: &str) -> Vec<BenchRecord> {
    let field = |line: &str, key: &str| -> Option<String> {
        let start = line.find(&format!("\"{key}\":"))? + key.len() + 3;
        let rest = line[start..].trim_start();
        let rest = rest.strip_prefix('"').unwrap_or(rest);
        let end = rest.find(['"', ',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().to_string())
    };
    text.lines()
        .filter(|line| line.contains("\"backend\":"))
        .filter_map(|line| {
            Some(BenchRecord {
                backend: field(line, "backend")?,
                kernel: field(line, "kernel")?,
                dim: field(line, "dim")?.parse().ok()?,
                batch: field(line, "batch")?.parse().ok()?,
                ns_per_op: field(line, "ns_per_op")?.parse().ok()?,
            })
        })
        .collect()
}

/// Compares fresh throughput records against a committed baseline and reports every
/// **packed-backend kernel** that slowed down by more than `factor` (e.g. 1.3 = 30%).
///
/// Two levels of noise-robustness make this safe as a hard CI gate on a shared
/// one-core container:
///
/// * each packed cell is normalised by the **same run's** reference-backend time for
///   the same `(kernel, dim, batch)` cell, so a machine-wide slowdown (busier
///   container, different host generation) cancels out — what is gated is the packed
///   kernel's advantage over the reference, not absolute nanoseconds. A packed cell
///   without a reference twin in both runs (the rescue route's
///   `factorize_sweep_*` cells, and `solve_batch` against a baseline recorded
///   before it had one) is normalised by the run's **host factor** instead:
///   the geometric mean of fresh/baseline time over every reference cell present in
///   both record sets. The `plan_stage_*` cells stay ungated: they split the gated
///   `solve_batch` cell into stages of 0.02–8 ms, and the sub-millisecond encode and
///   score stages swing past 1.3× between runs of one binary;
/// * cells are aggregated into one **geometric mean per kernel** before comparing, so
///   single-cell timing jitter (which routinely reaches ±40% per cell) averages out
///   across the dim × batch sweep instead of tripping the gate.
///
/// Cells present in only one of the two record sets are ignored (new kernels, retired
/// ones), as are twinless cells when the record sets share no reference cell.
///
/// This is the CI bench-smoke regression guard: the `backend_throughput` binary exits
/// non-zero when this list is non-empty.
pub fn packed_bench_regressions(
    baseline: &[BenchRecord],
    fresh: &[BenchRecord],
    factor: f64,
) -> Vec<String> {
    let ns = |r: &BenchRecord| r.ns_per_op.max(1.0);
    fn find<'a>(
        records: &'a [BenchRecord],
        backend: &str,
        probe: &BenchRecord,
    ) -> Option<&'a BenchRecord> {
        records
            .iter()
            .find(|r| r.matches(backend, &probe.kernel, probe.dim, probe.batch))
    }
    // ln of the host factor: mean ln(fresh / baseline) over the shared reference cells.
    let shared: Vec<f64> = baseline
        .iter()
        .filter(|old| old.backend == "reference")
        .filter_map(|old| Some((ns(find(fresh, "reference", old)?) / ns(old)).ln()))
        .collect();
    let ln_host = (!shared.is_empty()).then(|| shared.iter().sum::<f64>() / shared.len() as f64);
    // kernel -> (sum of ln(old_norm), sum of ln(new_norm), cell count, host-normalised)
    let mut per_kernel: Vec<(String, f64, f64, usize, bool)> = Vec::new();
    for old in baseline {
        if old.backend != "packed" || old.kernel.starts_with("plan_stage_") {
            continue;
        }
        let Some(new) = find(fresh, "packed", old) else {
            continue;
        };
        let twins = (
            find(baseline, "reference", old),
            find(fresh, "reference", new),
        );
        let (old_norm, new_norm, by_host) = match (twins, ln_host) {
            ((Some(old_ref), Some(new_ref)), _) => (
                (ns(old) / ns(old_ref)).ln(),
                (ns(new) / ns(new_ref)).ln(),
                false,
            ),
            (_, Some(ln_host)) => (ns(old).ln(), ns(new).ln() - ln_host, true),
            (_, None) => continue,
        };
        match per_kernel.iter_mut().find(|(k, ..)| *k == old.kernel) {
            Some((_, o, n, c, h)) => {
                *o += old_norm;
                *n += new_norm;
                *c += 1;
                *h |= by_host;
            }
            None => per_kernel.push((old.kernel.clone(), old_norm, new_norm, 1, by_host)),
        }
    }
    per_kernel
        .into_iter()
        .filter_map(|(kernel, old_sum, new_sum, count, by_host)| {
            let old_geo = (old_sum / count as f64).exp();
            let new_geo = (new_sum / count as f64).exp();
            let unit = if by_host {
                " ns (host-normalised)"
            } else {
                "x reference"
            };
            (new_geo > old_geo * factor).then(|| {
                format!(
                    "packed {kernel} ({count} cells): geomean {old_geo:.4}{unit} -> \
                     {new_geo:.4}{unit} ({:.2}x slower than baseline)",
                    new_geo / old_geo
                )
            })
        })
        .collect()
}

/// Renders throughput records as the machine-readable `BENCH_backends.json` payload:
/// a header naming the kernels that produced it (the running process's
/// [`cogsys_vsa::dispatch_tier`] as `hamming_tier`,
/// [`cogsys_vsa::projection_tier`] as `projection_tier` and
/// [`cogsys_vsa::table_tier`] as `table_tier`, `none` where every codebook
/// projects densely), then one object per
/// `(backend, kernel, dim, batch)` cell with its `ns_per_op`.
///
/// Written by `cargo run --release -p cogsys-bench --bin backend_throughput` and
/// consumed by the CI bench-smoke step so the perf trajectory is tracked across PRs.
pub fn backend_throughput_json(seed: u64, records: &[BenchRecord]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"cogsys-backend-throughput/v1\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!(
        "  \"hamming_tier\": \"{}\",\n  \"projection_tier\": \"{}\",\n  \"table_tier\": \"{}\",\n",
        cogsys_vsa::dispatch_tier(),
        cogsys_vsa::projection_tier(),
        cogsys_vsa::table_tier().map_or("none".to_string(), |t| t.to_string())
    ));
    out.push_str(&format!(
        "  \"codebook_rows\": {BENCH_CODEBOOK_ROWS},\n  \"records\": [\n"
    ));
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 == records.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"backend\": \"{}\", \"kernel\": \"{}\", \"dim\": {}, \"batch\": {}, \"ns_per_op\": {:.1}}}{}\n",
            r.backend, r.kernel, r.dim, r.batch, r.ns_per_op, comma
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Builds the human-readable speedup table (each backend's wall-clock advantage over
/// the reference backend) from measured throughput records.
pub fn backend_throughput_table(records: &[BenchRecord]) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Backend throughput: wall-clock speedup over the reference backend",
        &["packed cleanup x", "packed similarity x"],
    );
    let mut cells: Vec<(usize, usize)> = Vec::new();
    for cell in records.iter().map(|r| (r.dim, r.batch)) {
        if !cells.contains(&cell) {
            cells.push(cell);
        }
    }
    let lookup = |backend: &str, kernel: &str, dim: usize, batch: usize| -> f64 {
        records
            .iter()
            .find(|r| r.matches(backend, kernel, dim, batch))
            .map_or(f64::NAN, |r| r.ns_per_op)
    };
    for (dim, batch) in cells {
        let speedup = |backend: &str, kernel: &str| -> f64 {
            // A missing measurement stays NaN rather than masquerading as a speedup.
            let denom = lookup(backend, kernel, dim, batch);
            if denom.is_nan() {
                return f64::NAN;
            }
            lookup("reference", kernel, dim, batch) / denom.max(1e-3)
        };
        table.push(
            format!("d={dim} batch={batch}"),
            // Pre-packed BitMatrix queries on both sides: the popcount kernels vs
            // their f32 oracles on the unpacked queries.
            vec![
                speedup("packed", "cleanup_prepacked"),
                speedup("packed", "similarity_prepacked"),
            ],
        );
    }
    table
}

/// Maximum tolerated gap, in percentage points, between the scheduled and
/// measured decode share in [`plan_schedule_report`]. See that function's
/// share-contract notes for what the two shares have in common.
pub const PLAN_DECODE_SHARE_TOLERANCE_PP: f64 = 15.0;

/// Maps a [`cogsys_workloads::PlanStage`] name onto the macro stage group the
/// solver's stage timer and the sweep's `plan_stage_*` cells report.
fn plan_stage_group(name: &str) -> &'static str {
    match name {
        "encode" => "encode",
        "resonate" | "rescue" | "polish" => "decode",
        _ => "score",
    }
}

/// Schedules the compiled solve plan's stage IR with adSCH and compares the
/// scheduled cost estimates against the measured `plan_stage_*` cells of a
/// backend-throughput sweep — the scheduler/simulator pair's first *live*
/// target (the static [`WorkloadSpec`] graphs are synthetic shapes; this graph
/// is lowered from the plan the serving engine actually executes).
///
/// For each [`SOLVER_BENCH_PROBLEMS`] batch size the packed solver's plan is
/// compiled, lowered via `SolvePlan::op_graph` onto the `cogsys-sim` kernel
/// vocabulary, and scheduled on the 16-cell CogSys array. Per-stage scheduled
/// cycles are folded into the encode/decode/score macro groups and tabulated
/// next to the measured stage wall clocks.
///
/// The resonate stages are charged the solver's measured trip count: the
/// report solves one RAVEN batch of each shape and lowers with the mean
/// row-iterations per block decode (the `trips` column), not the iteration cap.
/// The rescue stages are charged the same solve's rescued share: rescued rows
/// over the rows of the rescue blocks (the `rescued %` column).
///
/// Returned mismatches (empty = valid) cover two contracts. *Structural*: the
/// graph must schedule without violations, every macro stage must receive
/// cycles, and — when the records contain the packed `plan_stage_*` anchor
/// cells for that shape — all three anchors must be present. *Share*: every
/// stage lowers to the kernel class of the work the executor does (element-wise
/// Hadamard encode, similarity + projection per resonator iteration, one
/// SIMD dot per scored candidate; see `PlanStage::kernel`), so decode must
/// dominate both views and the two decode shares must agree within
/// [`PLAN_DECODE_SHARE_TOLERANCE_PP`] percentage points. The band stays wide
/// because the schedule prices the CogSys array, not the CPU the cells are
/// measured on: the array's fixed per-op latency and the CPU's resonator noise
/// draws (timed inside the decode cell) have no counterpart on the other side.
pub fn plan_schedule_report(records: &[BenchRecord]) -> (ExperimentTable, Vec<String>) {
    use cogsys_scheduler::{AdSchScheduler, Scheduler};

    let mut table = ExperimentTable::new(
        "Plan stages scheduled by adSCH vs measured stage wall clock",
        &[
            "sched cycles",
            "sched share %",
            "measured ms",
            "meas share %",
            "trips",
            "rescued %",
        ],
    );
    let mut mismatches = Vec::new();
    let mut rng = cogsys_vsa::rng(0xAD5C);
    let solver = NeurosymbolicSolver::new(
        SolverConfig::default().with_backend(BackendKind::Packed),
        &mut rng,
    );
    let dim = solver.config().vector_dim;
    let blocks = solver.plan_key(1).blocks.max(1);
    let array = match ComputeArray::new(AcceleratorConfig::cogsys()) {
        Ok(array) => array,
        Err(e) => {
            mismatches.push(format!("compute array construction failed: {e}"));
            return (table, mismatches);
        }
    };
    for &batch in &SOLVER_BENCH_PROBLEMS {
        let problems = ProblemGenerator::new(DatasetKind::Raven).generate_batch(batch, &mut rng);
        let report = match solver.solve_batch_with(
            &problems,
            &mut rng,
            &mut cogsys_workloads::SolverScratch::default(),
        ) {
            Ok(report) => report,
            Err(e) => {
                mismatches.push(format!("batch={batch}: trip-count solve failed: {e}"));
                continue;
            }
        };
        let plan = solver.plan_for_batch(batch);
        let trips =
            report.factorizer_iterations as f64 / (report.panels_total * blocks).max(1) as f64;
        let rescue_blocks = plan
            .stages
            .iter()
            .filter(|stage| stage.name() == "rescue")
            .count();
        let rescued =
            report.rows_rescued as f64 / (report.panels_total * rescue_blocks).max(1) as f64;
        let graph = plan.op_graph(0, trips, rescued);
        let schedule = match AdSchScheduler::new(Default::default()).schedule(&array, &graph) {
            Ok(schedule) => schedule,
            Err(e) => {
                mismatches.push(format!(
                    "batch={batch}: plan stages failed to schedule: {e}"
                ));
                continue;
            }
        };
        if let Some(violation) = schedule.find_violation(&graph) {
            mismatches.push(format!("batch={batch}: invalid schedule: {violation}"));
        }
        // Fold per-op durations into the three macro groups (ops are in stage
        // order: op id == stage index in the plan's linear chain).
        let mut cycles = [("encode", 0u64), ("decode", 0), ("score", 0)];
        for entry in &schedule.entries {
            let Some(stage) = plan.stages.get(entry.op) else {
                continue;
            };
            let group = plan_stage_group(stage.name());
            if let Some(slot) = cycles.iter_mut().find(|(g, _)| *g == group) {
                slot.1 += entry.duration();
            }
        }
        let total_cycles: u64 = cycles.iter().map(|(_, c)| *c).sum();
        let measured: Vec<Option<f64>> = cycles
            .iter()
            .map(|(group, _)| {
                let kernel = format!("plan_stage_{group}");
                records
                    .iter()
                    .find(|r| r.matches("packed", &kernel, dim, batch))
                    .map(|r| r.ns_per_op)
            })
            .collect();
        let measured_total: f64 = measured.iter().flatten().sum();
        for ((group, c), ns) in cycles.iter().zip(&measured) {
            if *c == 0 {
                mismatches.push(format!(
                    "batch={batch}: {group} stage received zero scheduled cycles"
                ));
            }
            table.push(
                format!("batch={batch} {group}"),
                vec![
                    *c as f64,
                    100.0 * *c as f64 / total_cycles.max(1) as f64,
                    ns.map_or(f64::NAN, |ns| ns / 1e6),
                    ns.map_or(f64::NAN, |ns| 100.0 * ns / measured_total.max(1.0)),
                    trips,
                    100.0 * rescued,
                ],
            );
        }
        if measured.iter().any(Option::is_none) && measured.iter().any(Option::is_some) {
            mismatches.push(format!(
                "batch={batch}: incomplete packed plan_stage_* anchor cells at d={dim}"
            ));
        }
        // Share contract (see the function docs): with every stage lowered to
        // the executor's kernel class and the measured trip count, the
        // scheduled decode share predicts the measured one.
        if total_cycles > 0 && measured.iter().all(Option::is_some) {
            let sched_share = |i: usize| 100.0 * cycles[i].1 as f64 / total_cycles as f64;
            let meas_share =
                |i: usize| 100.0 * measured[i].unwrap_or(f64::NAN) / measured_total.max(1.0);
            let (sched_decode, meas_decode) = (sched_share(1), meas_share(1));
            if sched_decode <= sched_share(0) || sched_decode <= sched_share(2) {
                mismatches.push(format!(
                    "batch={batch}: decode is not the dominant scheduled stage \
                     ({sched_decode:.1}% of scheduled cycles)"
                ));
            }
            if meas_decode <= meas_share(0) || meas_decode <= meas_share(2) {
                mismatches.push(format!(
                    "batch={batch}: decode is not the dominant measured stage \
                     ({meas_decode:.1}% of stage wall clock)"
                ));
            }
            if (sched_decode - meas_decode).abs() > PLAN_DECODE_SHARE_TOLERANCE_PP {
                mismatches.push(format!(
                    "batch={batch}: scheduled decode share {sched_decode:.1}% deviates from \
                     measured {meas_decode:.1}% by more than \
                     {PLAN_DECODE_SHARE_TOLERANCE_PP:.0} points"
                ));
            }
        }
    }
    (table, mismatches)
}

/// Fig. 4: end-to-end runtime breakdown, per-device latency, task-size scaling and
/// memory footprint of the four neurosymbolic workloads.
pub fn fig04_profiling() -> Vec<ExperimentTable> {
    let mut breakdown = ExperimentTable::new(
        "Fig. 4a: neuro vs symbolic runtime share on RTX GPU (%)",
        &["neuro %", "symbolic %"],
    );
    let mut latency = ExperimentTable::new(
        "Fig. 4b: end-to-end latency per task (s)",
        &["TX2", "NX", "RTX 2080Ti", "Coral TPU"],
    );
    let mut scaling = ExperimentTable::new(
        "Fig. 4c: runtime scaling with task size (s, RTX)",
        &["2x2", "3x3", "ratio"],
    );
    let mut memory = ExperimentTable::new(
        "Fig. 4d: memory footprint (MB)",
        &["neural", "symbolic codebook", "total"],
    );

    let rtx = DeviceModel::new(DeviceKind::RtxGpu);
    for kind in WorkloadKind::ALL {
        let spec = WorkloadSpec::new(kind);
        let neuro_s = rtx.sequence_seconds(&spec.neural_kernels(), Precision::Fp32);
        let sym_s = rtx.sequence_seconds(&spec.symbolic_kernels(), Precision::Fp32);
        let total = neuro_s + sym_s;
        breakdown.push(
            kind.to_string(),
            vec![100.0 * neuro_s / total, 100.0 * sym_s / total],
        );

        let kernels = spec.task_kernels();
        latency.push(
            kind.to_string(),
            [
                DeviceKind::JetsonTx2,
                DeviceKind::XavierNx,
                DeviceKind::RtxGpu,
                DeviceKind::CoralTpu,
            ]
            .iter()
            .map(|d| DeviceModel::new(*d).sequence_seconds(&kernels, Precision::Fp32))
            .collect(),
        );

        let small = WorkloadSpec::with_task_size(kind, TaskSize::Grid2x2);
        let small_s = rtx.sequence_seconds(&small.task_kernels(), Precision::Fp32);
        scaling.push(kind.to_string(), vec![small_s, total, total / small_s]);

        let mb = 1024.0 * 1024.0;
        memory.push(
            kind.to_string(),
            vec![
                spec.memory.neural_bytes as f64 / mb,
                spec.memory.symbolic_codebook_bytes as f64 / mb,
                spec.memory.total_original() as f64 / mb,
            ],
        );
    }
    vec![breakdown, latency, scaling, memory]
}

/// Fig. 5: roofline positions of the neural and symbolic stages on the RTX 2080Ti.
pub fn fig05_roofline() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Fig. 5: roofline on RTX 2080Ti",
        &["intensity (FLOP/B)", "attainable GFLOP/s", "memory-bound"],
    );
    let roofline = Roofline::rtx_2080ti();
    for kind in WorkloadKind::ALL {
        let spec = WorkloadSpec::new(kind);
        for (class, kernels) in [
            (KernelClass::Neural, spec.neural_kernels()),
            (KernelClass::Symbolic, spec.symbolic_kernels()),
        ] {
            let flops: u64 = kernels.iter().map(Kernel::flops).sum();
            let bytes: u64 = kernels
                .iter()
                .map(|k| {
                    // The GPU lowers circular convolution to GEMV, which inflates its
                    // memory traffic to O(d^2) (Sec. V-C).
                    if let Kernel::CircConv { dim, count } = k {
                        dataflow::gemv_circconv_bytes(*dim, 4) * *count as u64
                    } else {
                        k.min_bytes(Precision::Fp32)
                    }
                })
                .sum();
            let intensity = flops as f64 / bytes.max(1) as f64;
            table.push(
                format!("{kind} ({class})"),
                vec![
                    intensity,
                    roofline.attainable_gflops(intensity),
                    f64::from(u8::from(roofline.is_memory_bound(intensity))),
                ],
            );
        }
    }
    table
}

/// Fig. 6: breakdown of symbolic runtime by operation type, per reasoning attribute.
pub fn fig06_symbolic_ops() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Fig. 6: symbolic runtime share by operation (RTX, %)",
        &["circular conv + vec-vec mult %", "other ops %"],
    );
    let rtx = DeviceModel::new(DeviceKind::RtxGpu);
    let spec = WorkloadSpec::new(WorkloadKind::Nvsa);
    // The per-attribute symbolic work is proportional to that attribute's codebook size.
    for attr in ["Type", "Size", "Color", "Number", "Position"] {
        let kernels = spec.symbolic_kernels();
        let circ_s: f64 = kernels
            .iter()
            .filter(|k| matches!(k, Kernel::CircConv { .. } | Kernel::Similarity { .. }))
            .map(|k| rtx.kernel_seconds(k, Precision::Fp32))
            .sum();
        let other_s: f64 = kernels
            .iter()
            .filter(|k| matches!(k, Kernel::ElementWise { .. }))
            .map(|k| rtx.kernel_seconds(k, Precision::Fp32))
            .sum();
        let total = circ_s + other_s;
        table.push(attr, vec![100.0 * circ_s / total, 100.0 * other_s / total]);
    }
    table
}

/// Tab. II: GPU kernel-efficiency statistics (reference data reproduced from the paper).
pub fn tab02_kernel_stats() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Tab. II: kernel compute/memory behaviour on CPU/GPU",
        &[
            "compute %",
            "ALU %",
            "L1 thr %",
            "L2 thr %",
            "L1 hit %",
            "L2 hit %",
            "DRAM BW %",
        ],
    );
    for s in tab2_kernel_stats() {
        table.push(
            format!("{} ({})", s.kernel, s.class),
            vec![
                s.compute_throughput_pct,
                s.alu_utilization_pct,
                s.l1_throughput_pct,
                s.l2_throughput_pct,
                s.l1_hit_rate_pct,
                s.l2_hit_rate_pct,
                s.dram_bw_utilization_pct,
            ],
        );
    }
    table
}

/// Queries behind Fig. 8's mean iterations. The 5-factor resonator's iteration
/// count varies widely per query (a noise realisation moved a 20-query mean from
/// 49 to 59), so the mean needs hundreds of queries to settle.
const FIG08_QUERIES: usize = 800;

/// Fig. 8 / Tab. III: memory-footprint and compute reduction of the factorization
/// strategy, plus its measured convergence behaviour.
pub fn fig08_factorization(seed: u64) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Fig. 8: factorization vs expanded product codebook",
        &[
            "product codebook (KB)",
            "factored codebooks (KB)",
            "memory reduction x",
            "compute reduction x",
            "mean iterations",
        ],
    );
    let mut rng = cogsys_vsa::rng(seed);
    // NVSA-style attribute structure: 9, 9, 5, 6, 10 codevectors of dimension 1024.
    let set = CodebookSet::random(&[9, 9, 5, 6, 10], 1024, BindingOp::Hadamard, &mut rng);
    let report = AccuracyReport::evaluate(
        "nvsa-attributes",
        &set,
        &FactorizerConfig::default(),
        FIG08_QUERIES,
        0.0,
        &mut rng,
    )
    .expect("codebooks and queries are well-formed");
    let cost = FactorizationCost::estimate(&set, Precision::Fp32, report.stats.mean_iterations());
    table.push(
        "NVSA attribute codebooks",
        vec![
            cost.product_codebook_bytes as f64 / 1024.0,
            cost.factored_codebook_bytes as f64 / 1024.0,
            cost.memory_reduction(),
            cost.compute_reduction(),
            report.stats.mean_iterations(),
        ],
    );
    table
}

/// Fig. 11: bubble-streaming dataflow vs TPU-style GEMV lowering — the worked d=3
/// example and the arithmetic-intensity comparison.
pub fn fig11_bs_dataflow() -> Vec<ExperimentTable> {
    let mut cycles = ExperimentTable::new(
        "Fig. 11a/b: three d=3 circular convolutions (cycles)",
        &["CogSys BS dataflow", "TPU-like GEMV"],
    );
    cycles.push(
        "3 CircConv, d=3",
        vec![
            dataflow::bubble_streaming_batch_cycles(3, 3, 3, 32) as f64,
            dataflow::tpu_gemv_circconv_cycles(3, 3, 3, 3) as f64,
        ],
    );

    let mut intensity = ExperimentTable::new(
        "Fig. 11c: arithmetic intensity of circular convolution (FLOP/byte)",
        &["BS dataflow (CogSys)", "GEMV (GPU/TPU)"],
    );
    for d in [128usize, 512, 2048, 20480] {
        intensity.push(
            format!("d={d}"),
            vec![
                dataflow::bs_arithmetic_intensity(d),
                dataflow::gemv_arithmetic_intensity(d),
            ],
        );
    }
    vec![cycles, intensity]
}

/// Fig. 12: spatial vs temporal mapping latency and bandwidth.
pub fn fig12_st_mapping() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Fig. 12: spatial vs temporal mapping (N=32 columns, M=512 PEs)",
        &[
            "spatial cycles",
            "temporal cycles",
            "spatial reads/T",
            "temporal reads/T",
            "temporal chosen",
        ],
    );
    for (label, d, k) in [
        ("NVSA d=1024 k=210", 1024usize, 210usize),
        ("LVRF d=1024 k=2575", 1024, 2575),
        ("MIMONet d=64 k=4096", 64, 4096),
        ("single conv d=16384", 16384, 1),
    ] {
        let m = dataflow::choose_mapping(d, k, 512, 32);
        table.push(
            label,
            vec![
                m.spatial_cycles as f64,
                m.temporal_cycles as f64,
                m.spatial_reads as f64,
                m.temporal_reads as f64,
                f64::from(u8::from(m.use_temporal)),
            ],
        );
    }
    table
}

/// Tab. V: reconfigurable nsPE array vs heterogeneous (split neural/symbolic) PEs.
pub fn tab05_pe_choice() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Tab. V: reconfigurable vs heterogeneous PE (same total PE budget)",
        &["relative area", "relative latency", "utilization"],
    );
    let system = CogSysSystem::default();
    let full = system
        .schedule_batch(true)
        .expect("default configuration is valid");

    // Heterogeneous PEs with the same chip budget: half the cells can only run neural
    // kernels, half only symbolic ones, so each kernel sees an 8-cell device and the
    // two halves still execute the dependent stages sequentially.
    let mut het_config = CogSysConfig::default();
    het_config.accelerator.geometry.cells = 8;
    het_config.scheduler.neural_cells = 8;
    het_config.scheduler.symbolic_cells = 8;
    let het = CogSysSystem::new(het_config)
        .schedule_batch(true)
        .expect("heterogeneous configuration is valid");

    table.push(
        "Reconfigurable nsPE (CogSys)",
        vec![1.0, 1.0, full.array_utilization()],
    );
    table.push(
        "Heterogeneous 8+8 cells",
        vec![
            1.96,
            het.makespan_cycles as f64 / full.makespan_cycles as f64,
            het.array_utilization() / 2.0,
        ],
    );
    table
}

/// Fig. 13d: the adSCH schedule of an NVSA segment vs sequential execution.
pub fn fig13_adsch() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Fig. 13: adSCH vs sequential scheduling (NVSA batch of 4 tasks)",
        &["makespan (Mcycles)", "array utilization"],
    );
    let system = CogSysSystem::default();
    let adsch = system.schedule_batch(true).expect("valid configuration");
    let seq = system.schedule_batch(false).expect("valid configuration");
    table.push(
        "adSCH (interleaved)",
        vec![
            adsch.makespan_cycles as f64 / 1e6,
            adsch.array_utilization(),
        ],
    );
    table.push(
        "sequential",
        vec![seq.makespan_cycles as f64 / 1e6, seq.array_utilization()],
    );
    table
}

/// Tab. VII: factorization accuracy across the 14 RAVEN scenarios (7 constellations +
/// 7 rule types).
pub fn tab07_factorization_accuracy(trials: usize, seed: u64) -> ExperimentTable {
    tab07_factorization_accuracy_with_backend(trials, seed, BackendKind::default())
}

/// [`tab07_factorization_accuracy`] on an explicit execution backend — used to verify
/// that the bit-packed backend reproduces the reference backend's factorization
/// accuracy.
pub fn tab07_factorization_accuracy_with_backend(
    trials: usize,
    seed: u64,
    backend: BackendKind,
) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        format!("Tab. VII: factorization accuracy (%) across RAVEN scenarios [{backend}]"),
        &["accuracy %"],
    );
    let mut rng = cogsys_vsa::rng(seed);
    let solver = NeurosymbolicSolver::new(SolverConfig::default().with_backend(backend), &mut rng);
    let mut scratch = cogsys_workloads::SolverScratch::default();
    // Each scenario's trial problems are solved as one batch; the per-panel
    // attribute-extraction accuracy is the report's factorization accuracy.
    let mut push = |label: String, problems: &[cogsys_datasets::Problem], rng: &mut _| {
        let report = solver
            .solve_batch_with(problems, rng, &mut scratch)
            .expect("well-formed problems");
        table.push(label, vec![100.0 * report.factorization_accuracy()]);
    };

    // Constellation scenarios.
    for constellation in Constellation::ALL {
        let generator = ProblemGenerator::new(DatasetKind::Raven);
        let problems: Vec<_> = (0..trials)
            .map(|_| generator.generate_with_constellation(constellation, &mut rng))
            .collect();
        push(constellation.to_string(), &problems, &mut rng);
    }

    // Rule scenarios: same measurement grouped by the rule type governing the problems.
    for kind in RuleKind::PGM {
        let generator = ProblemGenerator::new(DatasetKind::Pgm);
        let mut problems = Vec::with_capacity(trials);
        while problems.len() < trials {
            let p = generator.generate(&mut rng);
            if p.rules.rules().iter().any(|r| r.kind == kind) {
                problems.push(p);
            }
        }
        push(kind.to_string(), &problems, &mut rng);
    }
    table
}

/// Tab. VIII: end-to-end reasoning accuracy of CogSys (factorization + stochasticity,
/// then + quantization) on RAVEN, I-RAVEN and PGM, plus the parameter-memory column.
///
/// Each dataset's problem set is solved as **one cross-problem batch** through the
/// batched engine, with one [`cogsys_workloads::SolverScratch`] reused across all
/// datasets and precisions — the same serving configuration `CogSysSystem::
/// run_reasoning` uses, so the table measures exactly the production path. (The
/// batched engine is decision-identical to the per-problem path, so the numbers are
/// unchanged from per-problem solving.)
pub fn tab08_reasoning_accuracy(problems: usize, seed: u64) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Tab. VIII: reasoning accuracy (%) and symbolic memory (MB)",
        &["FP32 accuracy %", "INT8 accuracy %", "codebook KB"],
    );
    let mut scratch = cogsys_workloads::SolverScratch::default();
    for dataset in [DatasetKind::Raven, DatasetKind::IRaven, DatasetKind::Pgm] {
        let mut rng = cogsys_vsa::rng(seed);
        let fp32 = NeurosymbolicSolver::new(SolverConfig::default(), &mut rng);
        let batch = ProblemGenerator::new(dataset).generate_batch(problems, &mut rng);
        let fp32_report = fp32
            .solve_batch_with(&batch, &mut rng, &mut scratch)
            .expect("valid problems");

        let mut rng2 = cogsys_vsa::rng(seed);
        let int8 = NeurosymbolicSolver::new(
            SolverConfig::default().with_precision(Precision::Int8),
            &mut rng2,
        );
        let int8_report = int8
            .solve_batch_with(&batch, &mut rng2, &mut scratch)
            .expect("valid problems");

        let codebook_kb = fp32.codebooks().footprint_bytes(4) as f64 / 1024.0;
        table.push(
            dataset.to_string(),
            vec![
                100.0 * fp32_report.accuracy(),
                100.0 * int8_report.accuracy(),
                codebook_kb,
            ],
        );
    }
    table
}

/// Tab. IX / Fig. 14: area and power per precision, plus the reconfigurability overhead.
pub fn tab09_precision() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Tab. IX: area / power vs precision (16x32x32 array + 512-PE SIMD, 28nm)",
        &[
            "array area mm2",
            "array power mW",
            "SIMD area mm2",
            "SIMD power mW",
            "total area mm2",
            "total power W",
            "reconfig overhead %",
        ],
    );
    for precision in Precision::all() {
        let model = EnergyModel::new(AcceleratorConfig::cogsys().with_precision(precision));
        let area = model.area();
        let power = model.power();
        table.push(
            precision.to_string(),
            vec![
                area.array_mm2,
                power.array_w * 1000.0,
                area.simd_mm2,
                power.simd_w * 1000.0,
                area.total_mm2(),
                power.total_w(),
                model.reconfigurability_overhead() * 100.0,
            ],
        );
    }
    table
}

/// Fig. 15: end-to-end runtime of NVSA-class reasoning across the five benchmarks,
/// normalised to CogSys.
pub fn fig15_runtime() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Fig. 15: normalized end-to-end runtime (CogSys = 1.0)",
        &["TX2", "NX", "Xeon", "RTX", "CogSys"],
    );
    for dataset in DatasetKind::ALL {
        let system = CogSysSystem::default();
        let cogsys = system
            .seconds_per_task()
            .expect("default configuration is valid");
        let row: Vec<f64> = [
            DeviceKind::JetsonTx2,
            DeviceKind::XavierNx,
            DeviceKind::XeonCpu,
            DeviceKind::RtxGpu,
        ]
        .iter()
        .map(|d| system.device_seconds_per_task(*d) / cogsys)
        .chain(std::iter::once(1.0))
        .collect();
        table.push(dataset.to_string(), row);
    }
    table
}

/// Fig. 16: energy per task and performance-per-watt, normalised to CogSys.
pub fn fig16_energy() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Fig. 16: energy per task (J) and normalized perf/W (CogSys = 1.0)",
        &["energy (J)", "norm perf/W"],
    );
    let system = CogSysSystem::default();
    let cogsys_seconds = system.seconds_per_task().expect("valid configuration");
    let schedule = system.schedule_batch(true).expect("valid configuration");
    let energy_model = EnergyModel::new(AcceleratorConfig::cogsys());
    let cogsys_energy = energy_model
        .energy_joules(schedule.makespan_cycles, schedule.array_utilization())
        / system.config().batch_tasks as f64;
    let cogsys_perf_per_watt = 1.0 / (cogsys_energy.max(1e-12));

    for device in [
        DeviceKind::JetsonTx2,
        DeviceKind::XavierNx,
        DeviceKind::XeonCpu,
        DeviceKind::RtxGpu,
        DeviceKind::V100,
        DeviceKind::A100,
    ] {
        let energy = system.device_joules_per_task(device);
        let perf_per_watt = 1.0 / energy.max(1e-12);
        table.push(
            device.to_string(),
            vec![energy, perf_per_watt / cogsys_perf_per_watt],
        );
    }
    table.push("CogSys", vec![cogsys_energy, 1.0]);
    let _ = cogsys_seconds;
    table
}

/// Fig. 17: circular-convolution speedup of CogSys over the TPU-like systolic array and
/// the GPU, over a grid of vector dimensions and batch sizes.
pub fn fig17_circconv_speedup() -> Vec<ExperimentTable> {
    let mut vs_tpu = ExperimentTable::new(
        "Fig. 17a: CircConv speedup vs TPU-like systolic array",
        &["k=1", "k=10", "k=100", "k=1000", "k=10000"],
    );
    let mut vs_gpu = ExperimentTable::new(
        "Fig. 17b: CircConv speedup vs RTX GPU",
        &["k=1", "k=10", "k=100", "k=1000", "k=10000"],
    );
    let cogsys = ComputeArray::new(AcceleratorConfig::cogsys()).expect("valid config");
    let gpu = DeviceModel::new(DeviceKind::RtxGpu);
    let freq = 0.8e9;
    for d in [128usize, 256, 512, 1024, 2048] {
        let mut tpu_row = Vec::new();
        let mut gpu_row = Vec::new();
        for k in [1usize, 10, 100, 1000, 10000] {
            let kernel = Kernel::CircConv { dim: d, count: k };
            let cogsys_cycles = cogsys.execute(&kernel, 16).expect("valid kernel").cycles;
            let tpu_cycles = dataflow::tpu_gemv_circconv_cycles(d, 128, 128, k);
            tpu_row.push(tpu_cycles as f64 / cogsys_cycles.max(1) as f64);
            let gpu_seconds = gpu.kernel_seconds(&kernel, Precision::Fp32);
            let cogsys_seconds = cogsys_cycles as f64 / freq;
            gpu_row.push(gpu_seconds / cogsys_seconds.max(1e-12));
        }
        vs_tpu.push(format!("d={d}"), tpu_row);
        vs_gpu.push(format!("d={d}"), gpu_row);
    }
    vec![vs_tpu, vs_gpu]
}

/// Fig. 18: neural-only, symbolic-only and end-to-end runtime on TPU-, MTIA- and
/// Gemmini-like accelerators vs CogSys (normalised to CogSys).
pub fn fig18_accelerators() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Fig. 18: normalized runtime on ML accelerators (CogSys = 1.0)",
        &[
            "neuro TPU-like",
            "neuro MTIA-like",
            "neuro Gemmini-like",
            "symbolic TPU-like",
            "symbolic MTIA-like",
            "symbolic Gemmini-like",
            "end2end TPU-like",
            "end2end MTIA-like",
            "end2end Gemmini-like",
        ],
    );
    let cogsys = ComputeArray::new(AcceleratorConfig::cogsys()).expect("valid config");
    let baselines = [
        ComputeArray::new(AcceleratorConfig::tpu_like()).expect("valid config"),
        ComputeArray::new(AcceleratorConfig::mtia_like()).expect("valid config"),
        ComputeArray::new(AcceleratorConfig::gemmini_like()).expect("valid config"),
    ];
    for kind in [
        WorkloadKind::Nvsa,
        WorkloadKind::Lvrf,
        WorkloadKind::Mimonet,
    ] {
        let spec = WorkloadSpec::new(kind);
        let cost = |array: &ComputeArray, kernels: &[Kernel]| -> f64 {
            kernels
                .iter()
                .map(|k| {
                    array
                        .execute(k, array.config().geometry.cells)
                        .expect("valid kernel")
                        .cycles as f64
                })
                .sum()
        };
        let neural = spec.neural_kernels();
        let symbolic = spec.symbolic_kernels();
        let all = spec.task_kernels();
        let cog = (
            cost(&cogsys, &neural),
            cost(&cogsys, &symbolic),
            cost(&cogsys, &all),
        );
        let mut row = Vec::new();
        for stage in 0..3 {
            for baseline in &baselines {
                let (value, reference) = match stage {
                    0 => (cost(baseline, &neural), cog.0),
                    1 => (cost(baseline, &symbolic), cog.1),
                    _ => (cost(baseline, &all), cog.2),
                };
                row.push(value / reference.max(1.0));
            }
        }
        table.push(kind.to_string(), row);
    }
    table
}

/// Fig. 19: hardware-technique ablation (normalised runtime, CogSys = 1.0).
pub fn fig19_ablation() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Fig. 19: ablation of adSCH / scalable array / reconfigurable nsPE",
        &["full", "w/o adSCH", "w/o adSCH+SO", "w/o adSCH+SO+nsPE"],
    );
    for dataset in [DatasetKind::Raven, DatasetKind::IRaven, DatasetKind::Pgm] {
        let system = CogSysSystem::default();
        let row: Vec<f64> = AblationVariant::ALL
            .iter()
            .map(|v| {
                system
                    .ablation_relative_runtime(*v)
                    .expect("valid configuration")
            })
            .collect();
        table.push(dataset.to_string(), row);
    }
    table
}

/// Tab. X: necessity of co-design — NVSA on Xavier NX, CogSys algorithm on NX, and the
/// full CogSys algorithm + accelerator, as normalised runtime (NVSA @ NX = 100%).
pub fn tab10_codesign() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Tab. X: co-design ablation (normalized runtime %, NVSA @ Xavier NX = 100%)",
        &[
            "NVSA @ NX",
            "CogSys algo @ NX",
            "CogSys algo @ CogSys accel",
        ],
    );
    let system = CogSysSystem::default();
    let spec = system.workload_spec();
    let nx = DeviceModel::new(DeviceKind::XavierNx);

    // Baseline: the original workload, whose symbolic stage searches the full product
    // codebook (modelled as a similarity search over the whole combination space).
    let mut baseline_kernels = spec.neural_kernels();
    baseline_kernels.extend(spec.symbolic_kernels());
    baseline_kernels.push(Kernel::Similarity {
        rows: 9 * 9 * 5 * 6 * 10,
        dim: spec.vector_dim,
        count: spec.similarity_count,
    });
    let nvsa_nx = nx.sequence_seconds(&baseline_kernels, Precision::Fp32);

    // CogSys algorithm (factorized codebooks) on the same NX.
    let algo_nx = nx.sequence_seconds(&spec.task_kernels(), Precision::Fp32);

    // Full co-design.
    let cogsys = system.seconds_per_task().expect("valid configuration");

    for dataset in DatasetKind::ALL {
        table.push(
            dataset.to_string(),
            vec![100.0, 100.0 * algo_nx / nvsa_nx, 100.0 * cogsys / nvsa_nx],
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn product_scan_cells_cover_both_raven_blocks_at_both_dims() {
        let records = product_scan_records(7);
        let mut cells: Vec<(String, String, usize)> = records
            .iter()
            .map(|r| (r.backend.clone(), r.kernel.clone(), r.dim))
            .collect();
        cells.sort();
        let mut expected = Vec::new();
        for (backend, kernel) in [
            ("packed", "product_scan"),
            ("reference", "product_scan"),
            ("packed", "factorize_sweep"),
            ("noise_free_twin", "factorize_sweep"),
        ] {
            for products in [405, 60] {
                for dim in [2048, 4096] {
                    expected.push((backend.to_string(), format!("{kernel}_{products}"), dim));
                }
            }
        }
        expected.sort();
        assert_eq!(cells, expected);
        for r in &records {
            assert_eq!(r.batch, PRODUCT_SCAN_BENCH_ROWS);
            assert!(r.ns_per_op > 0.0, "{r:?}");
        }
    }

    #[test]
    fn experiment_table_accessors_and_display() {
        let mut t = ExperimentTable::new("demo", &["a", "b"]);
        t.push("row1", vec![1.0, 2.0]);
        t.push("row2", vec![3.0, 40000.0]);
        assert_eq!(t.value("row1", "b"), Some(2.0));
        assert_eq!(t.value("row1", "c"), None);
        assert_eq!(t.value("rowX", "a"), None);
        let s = t.to_string();
        assert!(s.contains("demo"));
        assert!(s.contains("row2"));
    }

    #[test]
    fn experiment_table_keeps_long_column_labels_apart() {
        let long = "a label longer than sixteen";
        let mut t = ExperimentTable::new("wide", &["short", long, "packed prepacked x"]);
        t.push("row", vec![1.0, 2.5, 40000.0]);
        let text = t.to_string();
        let lines: Vec<&str> = text.lines().collect();
        // Every label is preceded by a space, and each value ends where its
        // column's label ends.
        assert!(
            lines[1].contains(&format!(" {long} packed prepacked x")),
            "{text}"
        );
        assert_eq!(lines[1].len(), lines[2].len(), "{text}");
        let end_of = |line: &str, needle: &str| line.find(needle).unwrap() + needle.len();
        assert_eq!(end_of(lines[1], "short"), end_of(lines[2], "1.000"));
        assert_eq!(end_of(lines[1], long), end_of(lines[2], "2.500"));
        assert_eq!(lines[1].len(), 28 + 16 + (long.len() + 1) + 19);
    }

    #[test]
    fn bench_json_and_speedup_table_are_consistent() {
        let records = vec![
            BenchRecord {
                backend: "reference".into(),
                kernel: "cleanup_prepacked".into(),
                dim: 1024,
                batch: 256,
                ns_per_op: 8000.0,
            },
            BenchRecord {
                backend: "packed".into(),
                kernel: "cleanup_prepacked".into(),
                dim: 1024,
                batch: 256,
                ns_per_op: 400.0,
            },
        ];
        let table = backend_throughput_table(&records);
        assert_eq!(
            table.value("d=1024 batch=256", "packed cleanup x"),
            Some(20.0)
        );
        let json = backend_throughput_json(7, &records);
        assert!(json.contains("\"schema\": \"cogsys-backend-throughput/v1\""));
        assert!(json.contains("\"seed\": 7"));
        assert!(json.contains(
            "{\"backend\": \"packed\", \"kernel\": \"cleanup_prepacked\", \"dim\": 1024, \"batch\": 256, \"ns_per_op\": 400.0}"
        ));
        // One record per line, valid trailing-comma structure (last record bare).
        assert_eq!(json.matches("\"backend\":").count(), 2);
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn bench_json_round_trips_through_the_parser() {
        let records = vec![
            BenchRecord {
                backend: "packed".into(),
                kernel: "cleanup_prepacked".into(),
                dim: 1024,
                batch: 256,
                ns_per_op: 123456.0,
            },
            BenchRecord {
                backend: "reference".into(),
                kernel: "similarity_prepacked".into(),
                dim: 256,
                batch: 1,
                ns_per_op: 900.5,
            },
        ];
        let json = backend_throughput_json(7, &records);
        // The header names the kernels that produced the cells, on lines the
        // parser skips (they carry no "backend" key).
        for (key, tier) in [
            ("hamming_tier", cogsys_vsa::dispatch_tier()),
            ("projection_tier", cogsys_vsa::projection_tier()),
        ] {
            assert!(
                json.lines()
                    .any(|line| line == format!("  \"{key}\": \"{tier}\",")),
                "{key} header line missing from {json}"
            );
        }
        let parsed = parse_backend_throughput_json(&json);
        assert_eq!(parsed, records);
        // Garbage lines are skipped, not fatal.
        assert!(parse_backend_throughput_json("{\"backend\": oops\n").is_empty());
        assert!(parse_backend_throughput_json("not json at all").is_empty());
    }

    #[test]
    fn bench_guard_flags_only_real_packed_regressions() {
        let rec = |backend: &str, kernel: &str, dim: usize, ns: f64| BenchRecord {
            backend: backend.into(),
            kernel: kernel.into(),
            dim,
            batch: 256,
            ns_per_op: ns,
        };
        let baseline = vec![
            rec("packed", "similarity_prepacked", 256, 100_000.0),
            rec("reference", "similarity_prepacked", 256, 1_000_000.0),
            rec("packed", "similarity_prepacked", 1024, 400_000.0),
            rec("reference", "similarity_prepacked", 1024, 4_000_000.0),
            rec("packed", "cleanup_prepacked", 256, 50_000.0),
            rec("reference", "cleanup_prepacked", 256, 1_000_000.0),
            rec("noise_free_twin", "similarity_prepacked", 256, 300_000.0), // not packed: never gated
        ];

        // A machine-wide 2x slowdown (packed and reference both doubled) cancels out.
        let uniformly_slower: Vec<BenchRecord> = baseline
            .iter()
            .map(|r| rec(&r.backend, &r.kernel, r.dim, r.ns_per_op * 2.0))
            .collect();
        assert!(packed_bench_regressions(&baseline, &uniformly_slower, 1.3).is_empty());

        // Opposite single-cell jitter (one cell 1.4x up, its sibling 1.4x down)
        // cancels in the per-kernel geometric mean instead of tripping the gate.
        let jitter = vec![
            rec("packed", "similarity_prepacked", 256, 140_000.0),
            rec("reference", "similarity_prepacked", 256, 1_000_000.0),
            rec("packed", "similarity_prepacked", 1024, 285_000.0),
            rec("reference", "similarity_prepacked", 1024, 4_000_000.0),
            rec("packed", "cleanup_prepacked", 256, 50_000.0),
            rec("reference", "cleanup_prepacked", 256, 1_000_000.0),
        ];
        assert!(packed_bench_regressions(&baseline, &jitter, 1.3).is_empty());

        // A packed-only slowdown of one kernel is flagged, and names the kernel.
        let regressed = vec![
            rec("packed", "similarity_prepacked", 256, 100_000.0),
            rec("reference", "similarity_prepacked", 256, 1_000_000.0),
            rec("packed", "similarity_prepacked", 1024, 400_000.0),
            rec("reference", "similarity_prepacked", 1024, 4_000_000.0),
            rec("packed", "cleanup_prepacked", 256, 200_000.0), // 4x slower
            rec("reference", "cleanup_prepacked", 256, 1_000_000.0),
        ];
        let flagged = packed_bench_regressions(&baseline, &regressed, 1.3);
        assert_eq!(flagged.len(), 1, "{flagged:?}");
        assert!(flagged[0].contains("cleanup_prepacked"));
        assert!(flagged[0].contains("x reference"));

        // Missing cells (kernel added or retired) are ignored entirely.
        assert!(packed_bench_regressions(&baseline, &[], 1.3).is_empty());

        // Packed cells without a reference twin are normalised by the host factor,
        // the geomean of the shared reference cells: a 2x slower one-sweep decode is
        // flagged, and a uniform 2x slowdown of every cell is not.
        let mut with_sweep = baseline.clone();
        with_sweep.push(rec("packed", "factorize_sweep_405", 2048, 700_000.0));
        with_sweep.push(rec("packed", "factorize_sweep_405", 4096, 900_000.0));
        let slow_sweep: Vec<BenchRecord> = with_sweep
            .iter()
            .map(|r| {
                let slowdown = if r.kernel == "factorize_sweep_405" {
                    2.0
                } else {
                    1.0
                };
                rec(&r.backend, &r.kernel, r.dim, r.ns_per_op * slowdown)
            })
            .collect();
        let flagged = packed_bench_regressions(&with_sweep, &slow_sweep, 1.3);
        assert_eq!(flagged.len(), 1, "{flagged:?}");
        assert!(flagged[0].contains("factorize_sweep_405"));
        assert!(flagged[0].contains("host-normalised"));
        let uniformly_slower: Vec<BenchRecord> = with_sweep
            .iter()
            .map(|r| rec(&r.backend, &r.kernel, r.dim, r.ns_per_op * 2.0))
            .collect();
        assert!(packed_bench_regressions(&with_sweep, &uniformly_slower, 1.3).is_empty());

        // Stage cells split the gated `solve_batch` cell and are never gated.
        let mut with_stage = baseline.clone();
        with_stage.push(rec("packed", "plan_stage_score", 2048, 50_000.0));
        let mut slow_stage = with_stage.clone();
        slow_stage.last_mut().unwrap().ns_per_op *= 3.0;
        assert!(packed_bench_regressions(&with_stage, &slow_stage, 1.3).is_empty());
    }

    #[test]
    fn bench_guard_gates_solve_batch_by_the_host_factor() {
        let rec = |backend: &str, kernel: &str, batch: usize, ns: f64| BenchRecord {
            backend: backend.into(),
            kernel: kernel.into(),
            dim: 2048,
            batch,
            ns_per_op: ns,
        };
        // A baseline that holds the f32 reference `solve_batch` twin.
        let baseline = vec![
            rec("packed", "cleanup_prepacked", 256, 50_000.0),
            rec("reference", "cleanup_prepacked", 256, 1_000_000.0),
            rec("reference", "similarity_prepacked", 256, 2_000_000.0),
            rec("packed", "solve_batch", 64, 9_750_000.0),
            rec("reference", "solve_batch", 64, 114_600_000.0),
        ];
        // A fresh record set without the twin, every cell scaled by the
        // host's speed.
        let fresh = |host: f64, packed_solve: f64| {
            vec![
                rec("packed", "cleanup_prepacked", 256, 50_000.0 * host),
                rec("reference", "cleanup_prepacked", 256, 1_000_000.0 * host),
                rec("reference", "similarity_prepacked", 256, 2_000_000.0 * host),
                rec("packed", "solve_batch", 64, packed_solve * host),
            ]
        };
        // A decode change that sped up both engines, the reference more
        // (114.6 -> 63.7 ms) than packed (9.75 -> 7.12 ms), read 1.31x slower
        // against the reference twin. Through the host factor it is the speed-up
        // it is.
        let mut twinned = fresh(1.0, 7_120_000.0);
        twinned.push(rec("reference", "solve_batch", 64, 63_700_000.0));
        assert_eq!(packed_bench_regressions(&baseline, &twinned, 1.3).len(), 1);
        assert!(packed_bench_regressions(&baseline, &fresh(1.0, 7_120_000.0), 1.3).is_empty());
        // Equal speed-ups of both engines, on an unchanged or a 1.5x slower host,
        // are not flagged.
        for host in [1.0, 1.5] {
            let mut both_faster = fresh(host, 9_750_000.0 / 2.0);
            both_faster.push(rec(
                "reference",
                "solve_batch",
                64,
                114_600_000.0 / 2.0 * host,
            ));
            assert!(packed_bench_regressions(&baseline, &both_faster, 1.3).is_empty());
            assert!(packed_bench_regressions(&baseline, &fresh(host, 9_750_000.0), 1.3).is_empty());
        }
        // A packed-only 2x `solve_batch` slowdown is flagged, through the host factor.
        let flagged = packed_bench_regressions(&baseline, &fresh(1.0, 19_500_000.0), 1.3);
        assert_eq!(flagged.len(), 1, "{flagged:?}");
        assert!(flagged[0].contains("solve_batch"));
        assert!(flagged[0].contains("host-normalised"));
    }

    #[test]
    fn plan_schedule_report_schedules_real_stages_and_anchors_measured_cells() {
        let dim = SolverConfig::default().vector_dim;
        let cell = |kernel: &str, batch: usize, ns: f64| BenchRecord {
            backend: "packed".into(),
            kernel: kernel.into(),
            dim,
            batch,
            ns_per_op: ns,
        };
        let mut records = Vec::new();
        for &batch in &SOLVER_BENCH_PROBLEMS {
            records.push(cell("plan_stage_encode", batch, 1e6));
            records.push(cell("plan_stage_decode", batch, 8e6));
            records.push(cell("plan_stage_score", batch, 1e6));
        }
        let (table, mismatches) = plan_schedule_report(&records);
        assert!(mismatches.is_empty(), "{mismatches:?}");
        assert_eq!(table.rows.len(), 3 * SOLVER_BENCH_PROBLEMS.len());
        for (label, values) in &table.rows {
            assert!(values[0] > 0.0, "{label}: no scheduled cycles");
            assert!(values[2].is_finite(), "{label}: anchor cell not resolved");
            // Resonate is charged the measured trip count: rows converge in a
            // few iterations, far below the 200-iteration cap.
            assert!(
                (1.0..10.0).contains(&values[4]),
                "{label}: trips {}",
                values[4]
            );
        }
        let decode_share = table.value("batch=8 decode", "meas share %").unwrap();
        assert!(
            (decode_share - 80.0).abs() < 1.0,
            "decode share {decode_share}"
        );

        // A sweep that recorded only some anchor cells is flagged, not papered over.
        let partial: Vec<BenchRecord> = records
            .iter()
            .filter(|r| r.kernel != "plan_stage_score")
            .cloned()
            .collect();
        let (_, flagged) = plan_schedule_report(&partial);
        assert!(
            flagged.iter().any(|m| m.contains("incomplete")),
            "{flagged:?}"
        );
    }

    #[test]
    fn tab07_packed_accuracy_matches_dense_backends() {
        // The acceptance gate for the packed backend: factorization accuracy on the
        // Tab. VII workload must be unchanged relative to the f32 reference backend.
        let packed = tab07_factorization_accuracy_with_backend(1, 11, BackendKind::Packed);
        let dense = tab07_factorization_accuracy_with_backend(1, 11, BackendKind::Reference);
        assert_eq!(packed.rows.len(), dense.rows.len());
        for ((label, p), (_, d)) in packed.rows.iter().zip(&dense.rows) {
            assert!(
                (p[0] - d[0]).abs() <= 15.0,
                "{label}: packed {} vs dense {}",
                p[0],
                d[0]
            );
            assert!(p[0] >= 75.0, "{label}: packed accuracy {}", p[0]);
        }
    }

    #[test]
    fn fig04_symbolic_dominates_runtime_for_vsa_workloads() {
        let tables = fig04_profiling();
        assert_eq!(tables.len(), 4);
        let breakdown = &tables[0];
        // NVSA / LVRF / PrAE: symbolic runtime share dominates on the GPU (Fig. 4a).
        for workload in ["NVSA", "LVRF", "PrAE"] {
            let sym = breakdown.value(workload, "symbolic %").unwrap();
            assert!(sym > 50.0, "{workload}: symbolic share {sym}");
        }
        // Fig. 4b: TX2 is slower than the RTX GPU on every workload.
        let latency = &tables[1];
        for (label, values) in &latency.rows {
            assert!(values[0] > values[2], "{label}: TX2 not slower than RTX");
        }
        // Fig. 4c: 3x3 tasks are several times slower than 2x2 tasks.
        let scaling = &tables[2];
        for (_, values) in &scaling.rows {
            assert!(values[2] > 1.5 && values[2] < 20.0);
        }
        // Fig. 4d: totals in the tens of MB.
        let memory = &tables[3];
        for (_, values) in &memory.rows {
            assert!(values[2] > 20.0 && values[2] < 100.0);
        }
    }

    #[test]
    fn fig05_symbolic_is_memory_bound_neural_is_not() {
        let table = fig05_roofline();
        for kind in ["NVSA", "LVRF", "MIMONet", "PrAE"] {
            assert_eq!(
                table.value(&format!("{kind} (symbolic)"), "memory-bound"),
                Some(1.0),
                "{kind} symbolic should be memory-bound"
            );
            assert_eq!(
                table.value(&format!("{kind} (neural)"), "memory-bound"),
                Some(0.0),
                "{kind} neural should be compute-bound"
            );
        }
    }

    #[test]
    fn fig06_circconv_dominates_symbolic_runtime() {
        let table = fig06_symbolic_ops();
        for (_, values) in &table.rows {
            assert!(values[0] > 50.0);
            assert!((values[0] + values[1] - 100.0).abs() < 1e-6);
        }
    }

    #[test]
    fn tab02_has_four_kernel_rows() {
        let table = tab02_kernel_stats();
        assert_eq!(table.rows.len(), 4);
        assert_eq!(table.value("sgemm_nn (neural)", "compute %"), Some(95.1));
    }

    #[test]
    fn fig08_reductions_match_paper_shape() {
        let table = fig08_factorization(11);
        let (_, values) = &table.rows[0];
        // Memory reduction > 50x (paper: 71.4x). The compute reduction depends on how
        // many iterations the 5-factor resonator needs; it must at least not regress
        // relative to the brute-force search (paper reports 4.1x end-to-end runtime
        // reduction, dominated by the memory savings).
        assert!(values[2] > 50.0, "memory reduction {}", values[2]);
        assert!(values[3] > 1.0, "compute reduction {}", values[3]);
        assert!(values[4] >= 1.0 && values[4] <= 200.0);
    }

    #[test]
    fn fig11_and_fig12_shapes() {
        let tables = fig11_bs_dataflow();
        let cycles = &tables[0];
        let (_, v) = &cycles.rows[0];
        assert!(v[1] > v[0], "TPU should need more cycles than CogSys");
        let intensity = &tables[1];
        for (_, v) in &intensity.rows {
            assert!(v[0] > v[1]);
        }
        let st = fig12_st_mapping();
        assert_eq!(st.value("NVSA d=1024 k=210", "temporal chosen"), Some(1.0));
        assert_eq!(
            st.value("single conv d=16384", "temporal chosen"),
            Some(0.0)
        );
    }

    #[test]
    fn tab05_and_fig13_show_scheduling_benefit() {
        let pe = tab05_pe_choice();
        let het_latency = pe
            .value("Heterogeneous 8+8 cells", "relative latency")
            .unwrap();
        assert!(het_latency > 1.0);
        let adsch = fig13_adsch();
        let interleaved = adsch
            .value("adSCH (interleaved)", "makespan (Mcycles)")
            .unwrap();
        let sequential = adsch.value("sequential", "makespan (Mcycles)").unwrap();
        assert!(interleaved < sequential);
    }

    #[test]
    fn tab09_precision_matches_anchors() {
        let table = tab09_precision();
        assert_eq!(table.value("INT8", "array area mm2"), Some(3.8));
        assert_eq!(table.value("FP32", "array area mm2"), Some(28.9));
        assert_eq!(table.value("FP8", "reconfig overhead %"), Some(4.8));
        let int8_total = table.value("INT8", "total area mm2").unwrap();
        assert!((int8_total - 4.0).abs() < 0.4);
    }

    #[test]
    fn fig15_and_fig16_orderings() {
        let runtime = fig15_runtime();
        for (label, values) in &runtime.rows {
            // TX2 > NX > Xeon > RTX > CogSys (= 1.0).
            assert!(values[0] > values[1], "{label}");
            assert!(values[1] > values[2], "{label}");
            assert!(values[2] > values[3], "{label}");
            assert!(values[3] > 1.0, "{label}");
        }
        let energy = fig16_energy();
        let cogsys_energy = energy.value("CogSys", "energy (J)").unwrap();
        let rtx_energy = energy.value("RTX 2080Ti", "energy (J)").unwrap();
        assert!(rtx_energy / cogsys_energy > 50.0);
        // A100 is more efficient than the RTX but still far from CogSys.
        let a100 = energy.value("A100", "norm perf/W").unwrap();
        assert!(a100 < 1.0);
    }

    #[test]
    fn fig17_speedups_grow_with_batch_and_stay_bounded() {
        let tables = fig17_circconv_speedup();
        let vs_tpu = &tables[0];
        let d1024_k1000 = vs_tpu.value("d=1024", "k=1000").unwrap();
        let d1024_k1 = vs_tpu.value("d=1024", "k=1").unwrap();
        assert!(d1024_k1000 > d1024_k1);
        assert!(d1024_k1000 > 10.0 && d1024_k1000 < 1000.0);
        let vs_gpu = &tables[1];
        let gpu_speedup = vs_gpu.value("d=2048", "k=1000").unwrap();
        assert!(gpu_speedup > 1.0, "gpu speedup {gpu_speedup}");
    }

    #[test]
    fn fig18_symbolic_gap_exceeds_neural_gap() {
        let table = fig18_accelerators();
        for (label, values) in &table.rows {
            let neuro_tpu = values[0];
            let symbolic_tpu = values[3];
            let end2end_tpu = values[6];
            assert!(
                symbolic_tpu > neuro_tpu,
                "{label}: symbolic gap should exceed neural gap"
            );
            assert!(end2end_tpu > 1.0, "{label}");
            // Neural performance is comparable (within ~3x) across accelerators.
            assert!(neuro_tpu < 3.0, "{label}: neuro {neuro_tpu}");
        }
    }

    #[test]
    fn fig19_and_tab10_ablations() {
        let ablation = fig19_ablation();
        for (label, values) in &ablation.rows {
            assert!((values[0] - 1.0).abs() < 1e-9);
            assert!(values[1] >= values[0], "{label}");
            assert!(values[2] >= values[1] * 0.99, "{label}");
            assert!(values[3] > values[2], "{label}");
        }
        let codesign = tab10_codesign();
        for (label, values) in &codesign.rows {
            assert!(values[1] < 100.0, "{label}: algorithm-only should help");
            assert!(
                values[2] < 10.0,
                "{label}: co-design should be <10% of baseline"
            );
        }
    }
}
