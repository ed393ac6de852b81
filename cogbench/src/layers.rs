//! Per-layer probes of the traced run: plan compilation (`workloads`), the
//! per-block resonator (`factorizer`) and the packed kernels (`vsa`), each
//! measured by calling the layer's public functions on the solver's own
//! codebooks and on the workload's scenes and row counts.

use crate::report::{median, ratio, Report};
use crate::trace::Tracer;
use cogsys_datasets::{Panel, Problem};
use cogsys_factorizer::{Factorizer, FactorizerConfig, FactorizerScratch};
use cogsys_vsa::codebook::BindingOp;
use cogsys_vsa::{BitMatrix, CleanupScratch, CodebookSet, HvMatrix, PackedBackend};
use cogsys_workloads::NeurosymbolicSolver;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Attribute indices of the solver's two scene blocks: (position, number,
/// type) and (size, color).
pub const BLOCKS: [&[usize]; 2] = [&[0, 1, 2], &[3, 4]];

/// Median microseconds of `NeurosymbolicSolver::compile_plan` for `batch`.
pub fn plan_compile_us(
    solver: &NeurosymbolicSolver,
    batch: usize,
    reps: usize,
    tracer: &mut Tracer,
) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|rep| {
            let span = tracer.enter("workloads.compile_plan", rep as u64);
            std::hint::black_box(solver.compile_plan(std::hint::black_box(batch), true));
            tracer.exit(span) as f64 / 1e3
        })
        .collect();
    median(&samples)
}

/// Resonator statistics of one scene block, summed over the replayed batches.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockStats {
    /// Replayed factorize calls.
    pub calls: u64,
    /// Host time inside the factorize calls, nanoseconds.
    pub nanos: u64,
    /// Rows factorized.
    pub rows: u64,
    /// Resonator iterations summed over rows.
    pub row_iters: u64,
    /// Rows that ran the whole iteration budget without converging.
    pub capped_rows: u64,
    /// Iterations spent by capped rows.
    pub capped_iters: u64,
    /// Rows whose block tuple was decoded exactly (before the polish sweep).
    pub exact_rows: u64,
}

/// Replays the scenes of `batches` through the factorizer layer, block by
/// block: `encode_panels` → interface bit flips at the solver's
/// `encoding_noise` → `BitMatrix::from_matrix` →
/// `Factorizer::factorize_matrix_bits_scratch`, with the factorizer set up the
/// way the solver sets up its own (block codebooks, per-block convergence
/// threshold, shared backend). Only the factorize call is timed.
pub fn factorizer_replay(
    solver: &NeurosymbolicSolver,
    batches: &[&[Problem]],
    seed: u64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> [BlockStats; 2] {
    let config = solver.config();
    let sets: Vec<CodebookSet> = BLOCKS
        .iter()
        .map(|attrs| {
            let members = attrs
                .iter()
                .map(|&a| {
                    solver
                        .codebooks()
                        .factor(a)
                        .expect("attribute codebook")
                        .clone()
                })
                .collect();
            CodebookSet::new(members, BindingOp::Hadamard).expect("block codebooks agree")
        })
        .collect();
    let factorizer_config = FactorizerConfig {
        convergence_threshold: NeurosymbolicSolver::block_convergence_threshold(BLOCKS.len())
            .min(config.factorizer.convergence_threshold),
        ..config.factorizer.clone()
    }
    .with_backend(config.backend);
    let budget = factorizer_config.max_iterations;
    let factorizer = Factorizer::with_backend(factorizer_config, Arc::clone(solver.backend()));
    let mut scratch = FactorizerScratch::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = [BlockStats::default(); 2];
    for (call, problems) in batches.iter().enumerate() {
        let panels: Vec<Panel> = problems
            .iter()
            .flat_map(|p| p.context.iter().copied())
            .collect();
        let mut scenes = solver.encode_panels(&panels).expect("valid panels encode");
        for r in 0..scenes.rows() {
            for v in scenes.row_mut(r) {
                if rng.gen_bool(config.encoding_noise) {
                    *v = -*v;
                }
            }
        }
        let bits = BitMatrix::from_matrix(&scenes).expect("encoded scenes are bipolar");
        for (b, (set, attrs)) in sets.iter().zip(BLOCKS).enumerate() {
            let mut streams: Vec<StdRng> = (0..panels.len())
                .map(|_| StdRng::seed_from_u64(rng.next_u64()))
                .collect();
            let name = if b == 0 {
                "factorizer.block0"
            } else {
                "factorizer.block1"
            };
            let span = tracer.enter(name, call as u64);
            let results =
                factorizer.factorize_matrix_bits_scratch(set, &bits, &mut streams, &mut scratch);
            let nanos = tracer.exit(span);
            let results = match results {
                Ok(results) => results,
                Err(e) => {
                    report.check(false, || format!("factorizer replay failed: {e}"));
                    continue;
                }
            };
            report.check(results.len() == panels.len(), || {
                format!(
                    "factorizer returned {} rows for {}",
                    results.len(),
                    panels.len()
                )
            });
            let s = &mut stats[b];
            s.calls += 1;
            s.nanos += nanos;
            for (result, panel) in results.iter().zip(&panels) {
                let iters = result.iterations as u64;
                s.rows += 1;
                s.row_iters += iters;
                if !result.converged && result.iterations >= budget {
                    s.capped_rows += 1;
                    s.capped_iters += iters;
                }
                let truth: Vec<usize> = attrs.iter().map(|&a| panel.values()[a]).collect();
                if result.matches(&truth) {
                    s.exact_rows += 1;
                }
                report.check(
                    result
                        .indices
                        .iter()
                        .zip(set.codebooks())
                        .all(|(&i, cb)| i < cb.len()),
                    || format!("factorizer index out of range: {:?}", result.indices),
                );
            }
        }
    }
    stats
}

/// Records the `factorizer.b{0,1}.*` metrics (per replayed call).
pub fn record_blocks(report: &mut Report, stats: &[BlockStats; 2]) {
    for (b, s) in stats.iter().enumerate() {
        let calls = s.calls as f64;
        report.set(
            &format!("factorizer.b{b}.ms"),
            ratio(s.nanos as f64 / 1e6, calls, 0.0),
        );
        report.set(
            &format!("factorizer.b{b}.row_iters"),
            ratio(s.row_iters as f64, calls, 0.0),
        );
        report.set(
            &format!("factorizer.b{b}.capped_rows"),
            ratio(s.capped_rows as f64, calls, 0.0),
        );
        report.set(
            &format!("factorizer.b{b}.tail_iter_share"),
            ratio(s.capped_iters as f64, s.row_iters as f64, 0.0),
        );
        report.set(
            &format!("factorizer.b{b}.exact_frac"),
            ratio(s.exact_rows as f64, s.rows as f64, 0.0),
        );
    }
}

/// Kernel timings of one full resonator iteration's worth of work (every
/// factor of both blocks) over `rows` queries.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelStats {
    /// Median microseconds of the packed similarity GEMM over all factors.
    pub similarity_us: f64,
    /// Compulsory bytes of those calls: queries + codebook planes + f32 similarities.
    pub similarity_bytes: f64,
    /// Median microseconds of the packed linear cleanup over all factors.
    pub cleanup_us: f64,
    /// Compulsory bytes: queries + codebook planes + one `(index, cosine)` per query.
    pub cleanup_bytes: f64,
    /// Median microseconds of the fused resonator step over all factors.
    pub fused_us: f64,
    /// Compulsory bytes: query and other-factor estimate planes, codebook planes,
    /// f32 similarities and the rewritten estimate plane.
    pub fused_bytes: f64,
}

/// Times the packed `vsa` kernels on the solver's codebooks at `rows` query
/// rows (random bipolar queries and estimates; a no-op resonator hook).
///
/// # Panics
/// Panics when the solver does not run the packed backend.
pub fn vsa_kernels(
    solver: &NeurosymbolicSolver,
    rows: usize,
    reps: usize,
    seed: u64,
    tracer: &mut Tracer,
) -> KernelStats {
    let packed: &PackedBackend = solver
        .backend()
        .as_packed()
        .expect("the benchmark runs the packed backend");
    let dim = solver.config().vector_dim;
    let mut rng = StdRng::seed_from_u64(seed);
    let queries = BitMatrix::random_bipolar(rows, dim, &mut rng);
    let planes: Vec<Vec<&BitMatrix>> = BLOCKS
        .iter()
        .map(|attrs| {
            attrs
                .iter()
                .map(|&a| {
                    solver
                        .codebooks()
                        .factor(a)
                        .expect("attribute codebook")
                        .packed()
                        .expect("bipolar codebooks carry sign planes")
                })
                .collect()
        })
        .collect();
    let row_bytes = (BitMatrix::words_for_dim(dim) * 8) as f64;
    let (rows_f, mut cb_rows) = (rows as f64, 0.0);
    let mut estimate_planes = 0.0;
    for block in &planes {
        for cb in block {
            cb_rows += cb.rows() as f64;
            estimate_planes += (block.len() - 1) as f64;
        }
    }
    let factors = planes.iter().map(Vec::len).sum::<usize>() as f64;
    let mut stats = KernelStats {
        similarity_bytes: factors * rows_f * row_bytes
            + cb_rows * row_bytes
            + cb_rows * rows_f * 4.0,
        cleanup_bytes: factors * rows_f * row_bytes + cb_rows * row_bytes + factors * rows_f * 16.0,
        fused_bytes: (factors + estimate_planes + factors) * rows_f * row_bytes
            + cb_rows * row_bytes
            + cb_rows * rows_f * 4.0,
        ..KernelStats::default()
    };

    let mut sims = HvMatrix::default();
    let mut cleanup_scratch = CleanupScratch::default();
    let mut cleaned = Vec::new();
    let mut estimates: Vec<Vec<BitMatrix>> = planes
        .iter()
        .map(|block| {
            block
                .iter()
                .map(|_| BitMatrix::random_bipolar(rows, dim, &mut rng))
                .collect()
        })
        .collect();
    let mut unbound = BitMatrix::default();
    let mut acc = Vec::new();
    let (mut sim_us, mut clean_us, mut fused_us) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..reps.max(1) {
        let rep = rep as u64;
        let start = Instant::now();
        let span = tracer.enter("vsa.similarity_matrix_packed_into", rep);
        for cb in planes.iter().flatten() {
            packed.similarity_matrix_packed_into(cb, &queries, &mut sims);
            std::hint::black_box(&sims);
        }
        tracer.exit(span);
        sim_us.push(start.elapsed().as_secs_f64() * 1e6);

        let start = Instant::now();
        let span = tracer.enter("vsa.cleanup_batch_packed_into", rep);
        for cb in planes.iter().flatten() {
            packed.cleanup_batch_packed_into(cb, &queries, &mut cleanup_scratch, &mut cleaned);
            std::hint::black_box(&cleaned);
        }
        tracer.exit(span);
        clean_us.push(start.elapsed().as_secs_f64() * 1e6);

        let start = Instant::now();
        let span = tracer.enter("vsa.resonate_step_fused_into", rep);
        for (block, ests) in planes.iter().zip(estimates.iter_mut()) {
            for (f, cb) in block.iter().enumerate() {
                packed.resonate_step_fused_into(
                    cb,
                    &queries,
                    ests,
                    f,
                    &mut unbound,
                    &mut sims,
                    &mut acc,
                    |_, _, values| {
                        std::hint::black_box(values);
                    },
                );
            }
        }
        tracer.exit(span);
        fused_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    stats.similarity_us = median(&sim_us);
    stats.cleanup_us = median(&clean_us);
    stats.fused_us = median(&fused_us);
    stats
}

/// Records the `vsa.*` metrics.
pub fn record_kernels(report: &mut Report, k: &KernelStats) {
    report.set("vsa.similarity_us", k.similarity_us);
    report.set("vsa.similarity_bytes", k.similarity_bytes);
    report.set("vsa.cleanup_us", k.cleanup_us);
    report.set("vsa.cleanup_bytes", k.cleanup_bytes);
    report.set("vsa.fused_step_us", k.fused_us);
    report.set("vsa.fused_step_bytes", k.fused_bytes);
}
