//! Plan IR describing the batched solve pipeline.
//!
//! The paper's codesign story compiles a schedule per workload shape **once** for
//! adSCH to place. This module is the software analogue:
//! [`NeurosymbolicSolver::compile_plan`] resolves the stage IR of a workload shape
//! into a [`SolvePlan`], cached per [`PlanKey`] in a [`PlanCache`] by
//! [`NeurosymbolicSolver::plan_for_batch`]. The plan is a description, not an
//! input of the solve: the executor ([`NeurosymbolicSolver::solve_batch_with`])
//! compiles and looks up no plan, and every backend and precision encodes,
//! polishes and scores on sign planes while only the resonator inside the
//! factorizer picks its engine (packed, or f32 on unpacked queries).
//!
//! ```text
//!   (backend, dim, blocks, batch, codebook_rows)          PlanKey
//!                    │ compile_plan (plan_for_batch caches it)
//!                    ▼
//!   Encode → [block route]×blocks → Predict → Score        SolvePlan (stage IR)
//!                    │ --explain, op_graph → adSCH schedule
//!
//!   solve_batch_with (per call, no plan)
//!                    ▼
//!   thin executor over sign planes: the whole call in one pass
//!
//!   block route, by the block's product-space size:
//!     small  Resonate{iterations: 1} → Rescue   (product-plane scan of the
//!                                                rows the sweep leaves unconverged)
//!     large  Resonate{iterations: cap} → Polish
//! ```
//!
//! The plan also gives `cogsys-scheduler` (ADSCH) and `cogsys-sim` their first live
//! target: [`SolvePlan::op_graph`] lowers the stage IR into the scheduler's
//! [`OpGraph`], so real solve stages — not synthetic workload specs — can be
//! scheduled and their cost estimates validated against measured kernel cells.
//!
//! [`NeurosymbolicSolver::compile_plan`]: crate::NeurosymbolicSolver::compile_plan
//! [`NeurosymbolicSolver::plan_for_batch`]: crate::NeurosymbolicSolver::plan_for_batch
//! [`NeurosymbolicSolver::solve_batch_with`]: crate::NeurosymbolicSolver::solve_batch_with

use cogsys_scheduler::OpGraph;
use cogsys_sim::Kernel;
use cogsys_vsa::BackendKind;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The workload-shape key a [`SolvePlan`] is compiled for.
///
/// Two lookups with equal keys return the same cached plan: its stage IR
/// depends only on these fields (plus solver configuration, which is fixed per
/// solver instance — each solver owns its own [`PlanCache`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PlanKey {
    /// Execution backend the pipeline runs on.
    pub backend: BackendKind,
    /// Hypervector dimensionality.
    pub dim: usize,
    /// Number of attribute blocks in the scene superposition.
    pub blocks: usize,
    /// Problems per solve call: the stage row counts in the IR, and therefore the
    /// lowered op graph, depend on it.
    pub batch: usize,
    /// Rows of each attribute codebook, in attribute order (Similarity-kernel shapes
    /// depend on them).
    pub codebook_rows: Vec<usize>,
}

/// Nominal candidate panels per problem used to shape the Score stage of the lowered
/// op graph (RPM answer sets carry 8 candidates).
pub const NOMINAL_CANDIDATES: usize = 8;

/// One fused kernel stage of a compiled [`SolvePlan`].
///
/// Stages mirror the executor's phases over a batch of `problems × 8` context-panel
/// rows: one batched encode, then per attribute block a resonator factorization and a
/// coordinate-descent polish sweep, then the pure-symbolic rule prediction, then one
/// batched answer-scoring pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlanStage {
    /// Batched scene encode of every context panel (`rows = problems × 8`).
    Encode {
        /// Panel rows encoded.
        rows: usize,
        /// Attribute codevectors bound into each row, summed over blocks.
        factors: usize,
    },
    /// Iterative resonator factorization of one attribute block over the whole batch.
    Resonate {
        /// Attribute-block index.
        block: usize,
        /// Rows factorized.
        rows: usize,
        /// Factors in the block.
        factors: usize,
        /// Rows of each factor codebook (similarity-search shape per iteration).
        codebook_rows: Vec<usize>,
        /// Configured iteration cap of the resonator loop — the worst-case trip
        /// count (rows converge and compact out earlier at run time; the
        /// scheduler lowering charges a measured trip count, clamped to this).
        iterations: usize,
    },
    /// Exact decode of the rows a one-sweep `Resonate` stage leaves unconverged:
    /// one linear popcount scan of the block's XOR-composed product planes. It
    /// replaces `Polish` on blocks whose product space is small enough to scan.
    Rescue {
        /// Attribute-block index.
        block: usize,
        /// Rows of the block; the executor scans only the unconverged ones.
        rows: usize,
        /// Product planes scanned per rescued row (the block's product-space size).
        products: usize,
    },
    /// One coordinate-descent polish sweep (XOR unbind-all-but + cleanup per factor).
    Polish {
        /// Attribute-block index.
        block: usize,
        /// Rows polished.
        rows: usize,
        /// Factors in the block (one cleanup each).
        factors: usize,
    },
    /// Per-problem rule abduction + execution (pure symbolic, no VSA kernels).
    Predict {
        /// Problems predicted.
        problems: usize,
    },
    /// Batched answer selection: encode predictions + candidates, score each
    /// candidate against its problem's prediction.
    Score {
        /// Problems scored.
        problems: usize,
    },
}

impl PlanStage {
    /// Short stage name used by [`SolvePlan::describe`] and bench cell labels.
    pub fn name(&self) -> &'static str {
        match self {
            PlanStage::Encode { .. } => "encode",
            PlanStage::Resonate { .. } => "resonate",
            PlanStage::Rescue { .. } => "rescue",
            PlanStage::Polish { .. } => "polish",
            PlanStage::Predict { .. } => "predict",
            PlanStage::Score { .. } => "score",
        }
    }

    /// Lowers the stage onto the accelerator-model kernel vocabulary of
    /// `cogsys-sim`, the shape the ADSCH scheduler costs and places.
    ///
    /// Each stage lowers to the kernel class of the work the executor does:
    ///
    /// * `Encode`: every block is a Hadamard set, so a row is composed by one
    ///   element-wise bind per factor codevector ([`Kernel::ElementWise`] over
    ///   `rows × dim × factors`), not by circular convolution.
    /// * `Resonate`: each iteration runs, per factor, a similarity search and a
    ///   projection (the transposed product over the same codebook), so the
    ///   stage is a [`Kernel::Similarity`] over the block's codebook rows with
    ///   `2 × rows × resonate_trips` queries. `resonate_trips` is the mean
    ///   row-iterations per block decode (measure it; rows converge long before
    ///   the cap), clamped to `[1, iterations]`.
    /// * `Rescue`: one similarity search over the block's product planes per
    ///   rescued row, charged `rows × rescued_share` queries. `rescued_share` is
    ///   the measured fraction of a rescue block's rows that its sweep leaves
    ///   unconverged, clamped to `[0, 1]` (at least one query is charged).
    /// * `Polish`: one cleanup search per factor.
    /// * `Predict`: control-flow-only symbolic work, lowered as a per-problem
    ///   element-wise op so the scheduler still sees (and orders) the stage.
    /// * `Score`: each candidate is compared with its own problem's prediction
    ///   only — `problems × 8` row dots with no operand shared across rows, so
    ///   they lower to element-wise dot products on the SIMD unit
    ///   ([`Kernel::ElementWise`] over `problems × 8 × dim`). As a one-column
    ///   [`Kernel::Similarity`] they would occupy one column of the systolic
    ///   array and be priced almost entirely by its pipeline fill.
    pub fn kernel(&self, dim: usize, resonate_trips: f64, rescued_share: f64) -> Kernel {
        match self {
            PlanStage::Encode { rows, factors } => Kernel::ElementWise {
                elements: rows * dim * factors.max(&1),
                op: "encode".into(),
            },
            PlanStage::Resonate {
                rows,
                codebook_rows,
                iterations,
                ..
            } => {
                let trips = resonate_trips.clamp(1.0, (*iterations).max(1) as f64);
                Kernel::Similarity {
                    rows: codebook_rows.iter().sum::<usize>().max(1),
                    dim,
                    count: (2.0 * *rows as f64 * trips).round() as usize,
                }
            }
            PlanStage::Rescue { rows, products, .. } => Kernel::Similarity {
                rows: (*products).max(1),
                dim,
                count: ((*rows as f64 * rescued_share.clamp(0.0, 1.0)).round() as usize).max(1),
            },
            PlanStage::Polish { rows, factors, .. } => Kernel::Similarity {
                rows: (*factors).max(1),
                dim,
                count: *rows,
            },
            PlanStage::Predict { problems } => Kernel::ElementWise {
                elements: problems * NOMINAL_CANDIDATES,
                op: "predict".into(),
            },
            PlanStage::Score { problems } => Kernel::ElementWise {
                elements: problems * NOMINAL_CANDIDATES * dim,
                op: "dot".into(),
            },
        }
    }
}

/// A compiled, immutable stage plan describing the solve pass for one workload shape.
///
/// Produced by `NeurosymbolicSolver::compile_plan` and cached in a [`PlanCache`].
/// No solve call executes it: every backend solves the whole call in one pass, and
/// the stages describe that pass for `--explain` and the adSCH schedule.
/// `solve_batch_with_plan_timed` only checks that its plan matches the solver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolvePlan {
    /// The workload shape this plan was compiled for.
    pub key: PlanKey,
    /// The fused stage IR, in execution order.
    pub stages: Vec<PlanStage>,
}

impl SolvePlan {
    /// Human-readable description of the compiled plan: key and stage list — the
    /// `--explain` output of the bench and serve binaries.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "plan {}/d={} blocks={} batch={} rows={:?}",
            self.key.backend, self.key.dim, self.key.blocks, self.key.batch, self.key.codebook_rows,
        );
        for (i, stage) in self.stages.iter().enumerate() {
            let detail = match stage {
                PlanStage::Encode { rows, factors } => format!("rows={rows} factors={factors}"),
                PlanStage::Resonate {
                    block,
                    rows,
                    factors,
                    codebook_rows,
                    iterations,
                } => format!(
                    "block={block} rows={rows} factors={factors} cb={codebook_rows:?} \
                     iters={iterations}"
                ),
                PlanStage::Rescue {
                    block,
                    rows,
                    products,
                } => format!("block={block} rows={rows} products={products}"),
                PlanStage::Polish {
                    block,
                    rows,
                    factors,
                } => format!("block={block} rows={rows} factors={factors}"),
                PlanStage::Predict { problems } => format!("problems={problems}"),
                PlanStage::Score { problems } => format!("problems={problems}"),
            };
            let _ = writeln!(out, "  [{i}] {:<8} {detail}", stage.name());
        }
        out
    }

    /// Lowers the plan into the scheduler's operation graph: one op per stage, as a
    /// linear dependence chain under task id `task` (the executor's stages are
    /// sequential over one batch; cross-batch parallelism comes from appending
    /// several tasks' graphs). Resonate stages are charged `resonate_trips` mean
    /// row-iterations and Rescue stages `rescued_share` of their rows (see
    /// [`PlanStage::kernel`]).
    pub fn op_graph(&self, task: usize, resonate_trips: f64, rescued_share: f64) -> OpGraph {
        let mut graph = OpGraph::new();
        let mut prev = None;
        for stage in &self.stages {
            let deps: Vec<usize> = prev.into_iter().collect();
            let kernel = stage.kernel(self.key.dim, resonate_trips, rescued_share);
            prev = Some(graph.add_op(task, kernel, &deps));
        }
        graph
    }
}

/// Hit/miss counters of a [`PlanCache`] (the `--explain` observability surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PlanCacheStats {
    /// Lookups served by an already-compiled plan.
    pub hits: usize,
    /// Lookups that compiled a new plan.
    pub misses: usize,
}

#[derive(Debug, Default)]
struct PlanCacheInner {
    plans: HashMap<PlanKey, Arc<SolvePlan>>,
    stats: PlanCacheStats,
}

/// Per-solver cache of compiled [`SolvePlan`]s, keyed by [`PlanKey`].
///
/// Interior-mutable (`&self` lookups) so the solver's `plan_for_batch` — which
/// takes `&self` — can compile lazily. Cloning a solver yields a **fresh, empty**
/// cache: a `with_iteration_cap` clone compiles a different `Resonate.iterations`
/// for the same [`PlanKey`] (the key does not carry the iteration cap), so plans
/// never travel between instances.
#[derive(Debug, Default)]
pub struct PlanCache {
    inner: Mutex<PlanCacheInner>,
}

impl Clone for PlanCache {
    /// A cloned cache starts empty (see the type-level docs for why).
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PlanCache {
    /// Returns the cached plan for `key`, or compiles one with `compile` and caches
    /// it. Same key → same `Arc` (pointer-equal), no recompile.
    pub fn get_or_compile<F>(&self, key: &PlanKey, compile: F) -> Arc<SolvePlan>
    where
        F: FnOnce() -> SolvePlan,
    {
        let mut inner = self.inner.lock().expect("plan cache poisoned");
        if let Some(plan) = inner.plans.get(key).map(Arc::clone) {
            inner.stats.hits += 1;
            return plan;
        }
        inner.stats.misses += 1;
        let plan = Arc::new(compile());
        inner.plans.insert(key.clone(), Arc::clone(&plan));
        plan
    }

    /// Hit/miss counters since construction.
    pub fn stats(&self) -> PlanCacheStats {
        self.inner.lock().expect("plan cache poisoned").stats
    }

    /// Number of distinct compiled plans currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("plan cache poisoned").plans.len()
    }

    /// Returns `true` when no plan has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(batch: usize) -> PlanKey {
        PlanKey {
            backend: BackendKind::Packed,
            dim: 1024,
            blocks: 2,
            batch,
            codebook_rows: vec![9, 9, 5, 6, 10],
        }
    }

    fn plan(batch: usize) -> SolvePlan {
        SolvePlan {
            key: key(batch),
            stages: vec![
                PlanStage::Encode {
                    rows: batch * 8,
                    factors: 5,
                },
                PlanStage::Resonate {
                    block: 0,
                    rows: batch * 8,
                    factors: 3,
                    codebook_rows: vec![9, 9, 5],
                    iterations: 200,
                },
                PlanStage::Polish {
                    block: 0,
                    rows: batch * 8,
                    factors: 3,
                },
                PlanStage::Resonate {
                    block: 1,
                    rows: batch * 8,
                    factors: 2,
                    codebook_rows: vec![6, 10],
                    iterations: 1,
                },
                PlanStage::Rescue {
                    block: 1,
                    rows: batch * 8,
                    products: 60,
                },
                PlanStage::Predict { problems: batch },
                PlanStage::Score { problems: batch },
            ],
        }
    }

    #[test]
    fn describe_names_every_stage() {
        let text = plan(4).describe();
        for needle in [
            "packed/d=1024",
            "batch=4",
            "encode",
            "resonate",
            "polish",
            "predict",
            "score",
            "iters=200",
            "iters=1\n",
            "rescue   block=1 rows=32 products=60",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn resonate_lowering_charges_the_trip_count_within_the_cap() {
        // The lowered query count is two kernels (similarity + projection) per
        // row per charged iteration; the charge is clamped to [1, cap].
        let p = plan(4);
        let dim = p.key.dim;
        let flops = |trips: f64| p.stages[1].kernel(dim, trips, 0.5).flops();
        assert_eq!(flops(3.0), 3 * flops(1.0));
        assert_eq!(flops(1.5), 3 * flops(1.0) / 2);
        assert_eq!(flops(0.0), flops(1.0));
        assert_eq!(flops(1e9), 200 * flops(1.0));
        if let Kernel::Similarity { rows, count, .. } = p.stages[1].kernel(dim, 1.0, 0.5) {
            assert_eq!((rows, count), (9 + 9 + 5, 2 * 4 * 8));
        } else {
            panic!("resonate must lower to a similarity search");
        }
    }

    #[test]
    fn rescue_lowering_charges_the_rescued_share_of_the_rows() {
        // One product-plane search per rescued row: the query count follows the
        // measured share, clamped to [0, 1] and to at least one query, and the
        // resonator trip count does not move it.
        let p = plan(4);
        let dim = p.key.dim;
        let rescue = |trips: f64, share: f64| match p.stages[4].kernel(dim, trips, share) {
            Kernel::Similarity { rows, dim, count } => (rows, dim, count),
            other => panic!("rescue must lower to a similarity search, got {other:?}"),
        };
        assert_eq!(rescue(1.0, 0.25), (60, dim, 8));
        assert_eq!(rescue(9.0, 0.25), (60, dim, 8));
        assert_eq!(rescue(1.0, 2.0), (60, dim, 32));
        assert_eq!(rescue(1.0, 0.0), (60, dim, 1));
        assert_eq!(rescue(1.0, f64::NAN).2, 1);
    }

    #[test]
    fn encode_and_score_lower_to_their_linear_kernels() {
        // Hadamard binding is element-wise and scoring compares each candidate
        // with one prediction: both stages grow linearly with the batch.
        let dim = key(1).dim;
        let flops =
            |batch: usize, stage: usize| plan(batch).stages[stage].kernel(dim, 1.0, 0.5).flops();
        let score = plan(1).stages.len() - 1;
        for stage in [0, score] {
            assert_eq!(flops(64, stage), 64 * flops(1, stage), "stage {stage}");
        }
        assert_eq!(flops(1, 0), (8 * dim * 5) as u64);
    }

    #[test]
    fn op_graph_is_a_valid_linear_chain_over_the_stages() {
        let p = plan(4);
        let g = p.op_graph(3, 1.5, 0.0);
        assert_eq!(g.len(), p.stages.len());
        assert!(g.validate().is_ok());
        for (i, node) in g.iter().enumerate() {
            assert_eq!(node.task, 3);
            assert_eq!(node.deps, if i == 0 { vec![] } else { vec![i - 1] });
        }
        // Every VSA stage lowers to a symbolic kernel with nonzero work.
        for node in &g {
            assert!(node.kernel.flops() > 0, "{:?}", node.kernel);
        }
    }

    #[test]
    fn cache_reuses_plans_by_key_and_counts_hits() {
        let cache = PlanCache::default();
        let a = cache.get_or_compile(&key(4), || plan(4));
        let b = cache.get_or_compile(&key(4), || plan(4));
        assert!(Arc::ptr_eq(&a, &b), "same key must return the same plan");
        let c = cache.get_or_compile(&key(8), || plan(8));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.stats(), PlanCacheStats { hits: 1, misses: 2 });
        assert_eq!(cache.len(), 2);

        // Clones start cold.
        let cloned = cache.clone();
        assert!(cloned.is_empty());
        assert_eq!(cloned.stats(), PlanCacheStats::default());
    }
}
