//! Compile-once/run-many plan IR for the batched solve pipeline.
//!
//! The paper's codesign story decides layout, kernel tiers and schedule per workload
//! shape **once**, then executes that decision at line rate. This module is the
//! software analogue: [`NeurosymbolicSolver::compile_plan`] resolves every per-call
//! routing question — packed vs dense encode, chunk width, per-factor cleanup route
//! (linear scan vs pruned [`cogsys_vsa::CleanupIndex`]) — into a [`SolvePlan`], cached
//! per [`PlanKey`] in a [`PlanCache`]. The executor
//! ([`NeurosymbolicSolver::solve_batch_with`]) then just replays the plan's decisions;
//! it re-derives nothing.
//!
//! ```text
//!   (backend, dim, blocks, batch, codebook_rows)          PlanKey
//!                    │ compile_plan (once, cached)
//!                    ▼
//!   Encode → [Resonate → Polish]×blocks → Predict → Score  SolvePlan (stage IR)
//!                    │ solve_batch_with (per call, cached plan)
//!                    ▼
//!   thin executor: pre-resolved route/chunk, no per-call re-derivation
//! ```
//!
//! The plan also gives `cogsys-scheduler` (ADSCH) and `cogsys-sim` their first live
//! target: [`SolvePlan::op_graph`] lowers the stage IR into the scheduler's
//! [`OpGraph`], so real solve stages — not synthetic workload specs — can be
//! scheduled and their cost estimates validated against measured kernel cells.
//!
//! [`NeurosymbolicSolver::compile_plan`]: crate::NeurosymbolicSolver::compile_plan
//! [`NeurosymbolicSolver::solve_batch_with`]: crate::NeurosymbolicSolver::solve_batch_with

use cogsys_scheduler::OpGraph;
use cogsys_sim::Kernel;
use cogsys_vsa::{BackendKind, CleanupRoute};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The workload-shape key a [`SolvePlan`] is compiled for.
///
/// Two solve calls with equal keys are served by the same cached plan: every routing
/// decision the plan pre-resolves depends only on these fields (plus solver
/// configuration, which is fixed per solver instance — each solver owns its own
/// [`PlanCache`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PlanKey {
    /// Execution backend the pipeline runs on.
    pub backend: BackendKind,
    /// Hypervector dimensionality.
    pub dim: usize,
    /// Number of attribute blocks in the scene superposition.
    pub blocks: usize,
    /// Problems per solve call (the plan's chunking decision is batch-dependent only
    /// through the packed/dense route, but the key keeps batch explicit so stage row
    /// counts in the IR — and therefore the lowered op graph — are exact).
    pub batch: usize,
    /// Rows of each attribute codebook, in attribute order (cleanup-route choices and
    /// Similarity-kernel shapes depend on them).
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
        /// count the scheduler lowering charges the stage with (rows converge
        /// and compact out earlier at run time).
        iterations: usize,
    },
    /// One coordinate-descent polish sweep (unbind-all-but + cleanup per factor),
    /// with the cleanup route pre-chosen per factor.
    Polish {
        /// Attribute-block index.
        block: usize,
        /// Rows polished.
        rows: usize,
        /// Pre-resolved cleanup route per factor of the block.
        routes: Vec<CleanupRoute>,
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
        /// Panel rows encoded for scoring (predictions + candidates).
        rows: usize,
    },
}

impl PlanStage {
    /// Short stage name used by [`SolvePlan::describe`] and bench cell labels.
    pub fn name(&self) -> &'static str {
        match self {
            PlanStage::Encode { .. } => "encode",
            PlanStage::Resonate { .. } => "resonate",
            PlanStage::Polish { .. } => "polish",
            PlanStage::Predict { .. } => "predict",
            PlanStage::Score { .. } => "score",
        }
    }

    /// Lowers the stage onto the accelerator-model kernel vocabulary of
    /// `cogsys-sim`, the shape the ADSCH scheduler costs and places.
    ///
    /// The mapping follows the dominant arithmetic of each stage: encoding is
    /// per-row binding ([`Kernel::CircConv`] is the paper's binding kernel class),
    /// resonator and scoring are codebook similarity searches, and the polish sweep
    /// is one cleanup search per factor. `Predict` is control-flow-only symbolic
    /// work, lowered as a per-problem element-wise op so the scheduler still sees
    /// (and orders) the stage.
    ///
    /// The resonate lowering is **iteration-aware**: the similarity count is the
    /// row count multiplied by the configured iteration cap, so the scheduled
    /// stage shares track the measured `plan_stage_*` cells (one resonator call
    /// runs the per-iteration kernels up to `iterations` times) instead of
    /// charging a single sweep.
    pub fn kernel(&self, dim: usize) -> Kernel {
        match self {
            PlanStage::Encode { rows, .. } => Kernel::CircConv { dim, count: *rows },
            PlanStage::Resonate {
                rows,
                codebook_rows,
                iterations,
                ..
            } => Kernel::Similarity {
                rows: codebook_rows.iter().sum::<usize>().max(1),
                dim,
                count: rows * iterations.max(&1),
            },
            PlanStage::Polish { rows, routes, .. } => Kernel::Similarity {
                rows: routes.len().max(1),
                dim,
                count: *rows,
            },
            PlanStage::Predict { problems } => Kernel::ElementWise {
                elements: problems * NOMINAL_CANDIDATES,
                op: "predict".into(),
            },
            PlanStage::Score { problems, rows, .. } => Kernel::Similarity {
                rows: (*rows).max(1),
                dim,
                count: problems * NOMINAL_CANDIDATES,
            },
        }
    }
}

/// A compiled, immutable execution plan for one workload shape.
///
/// Produced by `NeurosymbolicSolver::compile_plan`, cached in a [`PlanCache`], and
/// executed by `solve_batch_with` (or `solve_batch_with_plan_timed`). The plan is
/// the only place the route, chunk width and cleanup routes are decided; the
/// executor reads them and re-derives nothing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolvePlan {
    /// The workload shape this plan was compiled for.
    pub key: PlanKey,
    /// `true` when the whole solve runs on sign planes: scenes are encoded
    /// straight into them, every block decodes on the packed resonator and answers
    /// are scored by popcount. `false` runs every stage on f32 rows.
    pub packed_route: bool,
    /// Problems per executor chunk (whole batch on the packed route; the dense
    /// engines' cache-resident sub-chunk width otherwise).
    pub chunk_problems: usize,
    /// The fused stage IR, in execution order.
    pub stages: Vec<PlanStage>,
}

impl SolvePlan {
    /// Human-readable description of the compiled plan: key, route, chunk width, and
    /// the stage list — the `--explain` output of the bench and serve binaries.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "plan {}/d={} blocks={} batch={} rows={:?}",
            self.key.backend, self.key.dim, self.key.blocks, self.key.batch, self.key.codebook_rows,
        );
        let _ = writeln!(
            out,
            "  route={} chunk={}",
            if self.packed_route { "packed" } else { "dense" },
            self.chunk_problems,
        );
        for (i, stage) in self.stages.iter().enumerate() {
            let detail = match stage {
                PlanStage::Encode { rows } => format!("rows={rows}"),
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
                PlanStage::Polish {
                    block,
                    rows,
                    routes,
                } => {
                    let routes: Vec<&str> = routes.iter().map(|r| r.as_str()).collect();
                    format!("block={block} rows={rows} routes={routes:?}")
                }
                PlanStage::Predict { problems } => format!("problems={problems}"),
                PlanStage::Score { problems, rows } => {
                    format!("problems={problems} rows={rows}")
                }
            };
            let _ = writeln!(out, "  [{i}] {:<8} {detail}", stage.name());
        }
        out
    }

    /// The pre-resolved cleanup routes of block `block`'s polish stage (one per
    /// factor); empty when the plan carries no polish stage for that block.
    pub fn polish_routes(&self, block: usize) -> &[CleanupRoute] {
        self.stages
            .iter()
            .find_map(|stage| match stage {
                PlanStage::Polish {
                    block: b, routes, ..
                } if *b == block => Some(routes.as_slice()),
                _ => None,
            })
            .unwrap_or(&[])
    }

    /// Lowers the plan into the scheduler's operation graph: one op per stage, as a
    /// linear dependence chain under task id `task` (the executor's stages are
    /// sequential over one batch; cross-batch parallelism comes from appending
    /// several tasks' graphs).
    pub fn op_graph(&self, task: usize) -> OpGraph {
        let mut graph = OpGraph::new();
        let mut prev = None;
        for stage in &self.stages {
            let deps: Vec<usize> = prev.into_iter().collect();
            prev = Some(graph.add_op(task, stage.kernel(self.key.dim), &deps));
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
/// Interior-mutable (`&self` lookups) so the solver's `solve_batch_with` — which
/// takes `&self` — can compile lazily. Cloning a solver yields a **fresh, empty**
/// cache: cached routes reference the clone's codebook state (e.g. cleanup indexes
/// that `disable_cleanup_index` may since have dropped), so plans never travel
/// between instances.
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

    /// Hit/miss counters since construction (or the last [`PlanCache::clear`]).
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

    /// Drops every cached plan and resets the counters. Called when solver state a
    /// plan captured changes (e.g. `disable_cleanup_index` demoting cleanup routes).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("plan cache poisoned");
        inner.plans.clear();
        inner.stats = PlanCacheStats::default();
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
            packed_route: true,
            chunk_problems: batch,
            stages: vec![
                PlanStage::Encode { rows: batch * 8 },
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
                    routes: vec![CleanupRoute::Linear; 3],
                },
                PlanStage::Predict { problems: batch },
                PlanStage::Score {
                    problems: batch,
                    rows: batch * (NOMINAL_CANDIDATES + 1),
                },
            ],
        }
    }

    #[test]
    fn describe_names_every_stage() {
        let text = plan(4).describe();
        for needle in [
            "packed/d=1024",
            "route=packed chunk=4",
            "encode",
            "resonate",
            "polish",
            "predict",
            "score",
            "iters=200",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn resonate_lowering_is_iteration_aware() {
        // The lowered similarity count charges the configured iteration cap, so
        // the scheduled share of the resonate stage tracks what the executor can
        // actually spend there — not a single sweep.
        let mut capped = plan(4);
        let mut single = plan(4);
        if let PlanStage::Resonate { iterations, .. } = &mut capped.stages[1] {
            *iterations = 200;
        }
        if let PlanStage::Resonate { iterations, .. } = &mut single.stages[1] {
            *iterations = 1;
        }
        let dim = capped.key.dim;
        let capped_flops = capped.stages[1].kernel(dim).flops();
        let single_flops = single.stages[1].kernel(dim).flops();
        assert_eq!(capped_flops, 200 * single_flops);
    }

    #[test]
    fn op_graph_is_a_valid_linear_chain_over_the_stages() {
        let p = plan(4);
        let g = p.op_graph(3);
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

        // Clones start cold; clear drops plans and counters.
        let cloned = cache.clone();
        assert!(cloned.is_empty());
        assert_eq!(cloned.stats(), PlanCacheStats::default());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), PlanCacheStats::default());
    }
}
