//! Functional neurosymbolic abduction pipeline (the accuracy side of the evaluation).
//!
//! This is an NVSA-style reasoner over the synthetic RPM problems of `cogsys-datasets`:
//!
//! 1. **Perception** — each context panel's attribute tuple (optionally corrupted by
//!    perception noise) is encoded as a product hypervector by binding one codevector
//!    per attribute (the role the CNN frontend plays in NVSA).
//! 2. **Factorization** — the CogSys factorizer decomposes each panel hypervector back
//!    into per-attribute codevector indices (Sec. IV).
//! 3. **Rule abduction** — for every attribute, the rule consistent with the two
//!    complete rows is abduced.
//! 4. **Execution** — the abduced rules predict the missing panel's attributes.
//! 5. **Answer selection** — the candidate whose encoding is most similar to the
//!    prediction is chosen.
//!
//! Reported accuracy feeds Tab. VII (per-constellation factorization accuracy) and
//! Tab. VIII (end-to-end reasoning accuracy under factorization, stochasticity and
//! quantization).

use crate::error::{ProblemFault, SolveError};
use crate::plan::{PlanCache, PlanCacheStats, PlanKey, PlanStage, SolvePlan};
use cogsys_datasets::{Attribute, AttributeVocab, DatasetKind, Panel, Problem, RuleKind};
use cogsys_factorizer::{FactorizationResult, Factorizer, FactorizerConfig, FactorizerScratch};
use cogsys_vsa::batch::{BackendKind, HvMatrix, VsaBackend};
use cogsys_vsa::codebook::{BindingOp, CodebookSet};
use cogsys_vsa::packed::BitMatrix;
use cogsys_vsa::{Precision, VsaError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Configuration of the functional reasoner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolverConfig {
    /// Hypervector dimensionality.
    pub vector_dim: usize,
    /// Factorizer settings (stochasticity, iteration budget, precision).
    pub factorizer: FactorizerConfig,
    /// Probability that the emulated neural frontend mis-reads an attribute.
    pub perception_noise: f64,
    /// Bit-flip noise applied to the encoded scene hypervector (emulating an imperfect
    /// neural-to-symbolic interface).
    pub encoding_noise: f64,
    /// Arithmetic precision of the encoding / similarity stages.
    pub precision: Precision,
    /// Batched execution backend used for encoding, factorization and answer scoring.
    pub backend: BackendKind,
    /// Attribute vocabulary the solver's codebooks cover. Defaults to the RAVEN
    /// cardinalities; enlarged vocabularies (e.g. [`AttributeVocab::uniform`] with
    /// 10^4+ values) scale the per-attribute codebooks into the regime where the
    /// packed backend's pruned cleanup index takes over answer decoding.
    #[serde(default)]
    pub vocab: AttributeVocab,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            // NVSA uses d = 1024 per block; the solver defaults to 2048 so that the
            // five-factor attribute factorization has comfortable headroom (the
            // quasi-orthogonality noise between random codevectors scales as 1/sqrt(d)).
            vector_dim: 2048,
            factorizer: FactorizerConfig::default(),
            perception_noise: 0.0,
            encoding_noise: 0.005,
            precision: Precision::Fp32,
            backend: BackendKind::default(),
            vocab: AttributeVocab::raven(),
        }
    }
}

impl SolverConfig {
    /// Returns a copy running the whole pipeline at the given precision.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self.factorizer = self.factorizer.with_precision(precision);
        self
    }

    /// Returns a copy running the whole pipeline (encoding, factorization, answer
    /// scoring) on the given execution backend.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self.factorizer = self.factorizer.with_backend(backend);
        self
    }
}

/// Aggregate results of solving a batch of problems.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct SolverReport {
    /// Problems attempted.
    pub problems: usize,
    /// Problems answered correctly.
    pub correct: usize,
    /// Panels whose full attribute tuple was factorized exactly.
    pub panels_exact: usize,
    /// Panels factorized in total.
    pub panels_total: usize,
    /// Total factorizer iterations (for the convergence-speed comparison).
    pub factorizer_iterations: usize,
    /// Per-block panel decodes whose resonator converged. The three outcome counts
    /// are summed over attribute blocks, so together they equal
    /// `panels_total × blocks`.
    pub rows_converged: usize,
    /// Per-block panel decodes that stopped on a revisited estimate state.
    pub rows_limit_cycle: usize,
    /// Per-block panel decodes that ran the whole iteration budget unconverged.
    pub rows_capped: usize,
}

impl SolverReport {
    /// End-to-end reasoning accuracy in `[0, 1]`.
    pub fn accuracy(&self) -> f64 {
        if self.problems == 0 {
            return 0.0;
        }
        self.correct as f64 / self.problems as f64
    }

    /// Factorization (attribute-extraction) accuracy in `[0, 1]` — the quantity of
    /// Tab. VII.
    pub fn factorization_accuracy(&self) -> f64 {
        if self.panels_total == 0 {
            return 0.0;
        }
        self.panels_exact as f64 / self.panels_total as f64
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: &SolverReport) {
        self.problems += other.problems;
        self.correct += other.correct;
        self.panels_exact += other.panels_exact;
        self.panels_total += other.panels_total;
        self.factorizer_iterations += other.factorizer_iterations;
        self.rows_converged += other.rows_converged;
        self.rows_limit_cycle += other.rows_limit_cycle;
        self.rows_capped += other.rows_capped;
    }

    /// Adds one block decode's iterations and row outcomes.
    fn record_block(&mut self, results: &[FactorizationResult]) {
        for r in results {
            self.factorizer_iterations += r.iterations;
            if r.converged {
                self.rows_converged += 1;
            } else if r.limit_cycle {
                self.rows_limit_cycle += 1;
            } else {
                self.rows_capped += 1;
            }
        }
    }
}

/// Wall-clock nanoseconds spent in each fused stage group of a planned solve call
/// ([`NeurosymbolicSolver::solve_batch_with_plan_timed`]), accumulated across the
/// call's chunks. The three groups mirror the [`crate::plan::PlanStage`] IR at the
/// granularity `cogsys-serve`'s per-stage `ServiceModel` fit consumes: encode
/// (rng buffering + scene encode), decode (per-block resonate + polish), score
/// (rule prediction + answer selection).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageNanos {
    /// Phases 1–2: per-problem rng draw buffering and the batched scene encode.
    pub encode: u64,
    /// Phase 3: per-block factorization and the coordinate-descent polish sweep.
    pub decode: u64,
    /// Phases 4–5: rule abduction/prediction and batched answer selection.
    pub score: u64,
}

impl StageNanos {
    /// Total nanoseconds across the three stage groups.
    pub fn total(&self) -> u64 {
        self.encode + self.decode + self.score
    }
}

/// Scratch of the batched panel-encoding stage.
#[derive(Debug, Default)]
struct EncodeScratch {
    idx: Vec<usize>,
    /// Second block's sign plane.
    block_bits: BitMatrix,
}

/// Scratch of the factorize-and-polish stage (one attribute block over a row batch).
#[derive(Debug, Default)]
struct DecodeScratch {
    factorizer: FactorizerScratch,
    /// Decoded per-factor index tuple per row (inner vectors reused).
    tuples: Vec<Vec<usize>>,
    gather_idx: Vec<usize>,
    unbound_bits: BitMatrix,
    est_bits: BitMatrix,
}

/// Reusable scratch of the cross-problem batched solving engine
/// ([`NeurosymbolicSolver::solve_batch_with`]): every matrix, sign plane, stream and
/// bookkeeping vector of the encode → factorize → score pipeline lives here and is
/// reshaped in place, so a steady-state serving loop performs no allocation beyond
/// the factorizer's per-row result tuples.
///
/// The scratch carries no decision state between calls — a fresh scratch produces
/// bitwise-identical answers, which is exactly what the plain
/// [`NeurosymbolicSolver::solve_batch`] entry point does.
#[derive(Debug, Default)]
pub struct SolverScratch {
    encode: EncodeScratch,
    decode: DecodeScratch,
    /// Per-query factorizer noise streams of the block currently being decoded.
    streams: Vec<StdRng>,
    perceived: Vec<Panel>,
    /// Recorded interface bit-flip positions as `(global row, dimension)`.
    flips: Vec<(u32, u32)>,
    /// Factorizer stream seeds, drawn per problem in sequential order; problem `q`
    /// occupies `seed_base[q] ..` with its blocks consecutive (rows inner).
    seeds: Vec<u64>,
    row_base: Vec<usize>,
    seed_base: Vec<usize>,
    encoded: BitMatrix,
    values: Vec<[usize; 5]>,
    decoded: Vec<Panel>,
    predicted: Vec<Panel>,
    cand_panels: Vec<Panel>,
    cand_base: Vec<usize>,
    pred_bits: BitMatrix,
    cand_bits: BitMatrix,
    choices: Vec<usize>,
}

impl SolverScratch {
    /// The candidate index chosen for each problem of the last
    /// [`NeurosymbolicSolver::solve_batch_with`] call, in problem order.
    pub fn choices(&self) -> &[usize] {
        &self.choices
    }

    /// Capacities of every factorizer scratch buffer (see
    /// [`FactorizerScratch::packed_capacity_fingerprint`]) — the regression hook
    /// asserting a pre-sized serving loop reallocates nothing across a chunked
    /// stream.
    pub fn factorizer_capacity_fingerprint(&self) -> Vec<usize> {
        self.decode.factorizer.packed_capacity_fingerprint()
    }
}

/// The end-to-end neurosymbolic reasoner.
///
/// Scene encoding follows NVSA's block structure: the five attributes are split into
/// two bound blocks — (position ⊙ number ⊙ type) and (size ⊙ color) — whose product
/// vectors are superposed (bundled) into a single scene hypervector. Decoding runs the
/// CogSys iterative factorizer on each block. Splitting keeps every factorization
/// problem well inside the resonator's operational capacity while still exercising the
/// paper's factorization machinery end to end.
#[derive(Debug, Clone)]
pub struct NeurosymbolicSolver {
    config: SolverConfig,
    codebooks: CodebookSet,
    blocks: Vec<(CodebookSet, Vec<usize>)>,
    factorizer: Factorizer,
    backend: Arc<dyn VsaBackend>,
    /// Compiled [`SolvePlan`]s by workload shape. Cloning the solver yields a fresh,
    /// empty cache (a `with_iteration_cap` clone compiles a different iteration cap
    /// for the same [`PlanKey`]), so the derived `Clone` stays correct.
    plans: PlanCache,
}

impl NeurosymbolicSolver {
    /// Attribute indices of the two encoding blocks (into [`Attribute::ALL`]).
    const BLOCKS: [&'static [usize]; 2] = [&[0, 1, 2], &[3, 4]];

    /// Convergence threshold for factorizing one block out of a `blocks`-way scene
    /// superposition.
    ///
    /// The scene is the *sign-thresholded* superposition of the block products, so a
    /// correctly decoded block plateaus well below cosine 1 against it (≈ 0.5 for two
    /// blocks: the other block halves the sign agreement and ties break to +1; more
    /// blocks push the plateau towards `sqrt(2/(π·blocks))`). A flat single-product
    /// threshold like 0.9 is therefore unreachable and every panel would burn the whole
    /// iteration budget. `0.6/sqrt(blocks)` tracks the plateau from below — safely
    /// under it, and far above the ≈ 0 cosine of a wrong tuple.
    pub fn block_convergence_threshold(blocks: usize) -> f32 {
        0.6 / (blocks.max(1) as f32).sqrt()
    }

    /// Creates a solver, generating one attribute codebook per RAVEN attribute.
    ///
    /// # Panics
    /// Panics on an invalid configuration. Serving layers use the non-panicking
    /// [`NeurosymbolicSolver::try_new`] instead.
    pub fn new<R: Rng + ?Sized>(config: SolverConfig, rng: &mut R) -> Self {
        match Self::try_new(config, rng) {
            Ok(solver) => solver,
            Err(e) => panic!("invalid solver configuration: {e}"),
        }
    }

    /// Non-panicking [`NeurosymbolicSolver::new`]: validates the configuration
    /// (dimensionality, noise probabilities, factorizer settings) and propagates
    /// codebook-construction failures as typed errors instead of panicking.
    ///
    /// # Errors
    /// Returns [`SolveError::Config`] for an invalid configuration and
    /// [`SolveError::Vsa`] when codebook construction fails.
    pub fn try_new<R: Rng + ?Sized>(config: SolverConfig, rng: &mut R) -> Result<Self, SolveError> {
        if config.vector_dim == 0 {
            return Err(SolveError::Config {
                message: "vector_dim must be > 0".to_string(),
            });
        }
        for (name, p) in [
            ("perception_noise", config.perception_noise),
            ("encoding_noise", config.encoding_noise),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(SolveError::Config {
                    message: format!("{name} must be a probability in [0, 1], got {p}"),
                });
            }
        }
        config
            .factorizer
            .validate()
            .map_err(|message| SolveError::Config { message })?;
        let attribute_codebooks: Vec<_> = Attribute::ALL
            .iter()
            .map(|a| {
                cogsys_vsa::Codebook::random(
                    a.to_string(),
                    config.vocab.cardinality(*a),
                    config.vector_dim,
                    rng,
                )
            })
            .collect();
        let codebooks = CodebookSet::new(attribute_codebooks.clone(), BindingOp::Hadamard)?;
        let blocks = Self::BLOCKS
            .iter()
            .map(|attrs| {
                let members = attrs
                    .iter()
                    .map(|&i| attribute_codebooks[i].clone())
                    .collect();
                let set = CodebookSet::new(members, BindingOp::Hadamard)?;
                Ok((set, attrs.to_vec()))
            })
            .collect::<Result<Vec<_>, VsaError>>()?;
        // One shared backend instance serves both the solver's own batch kernels and
        // the factorizer (sharing the FFT-plan cache when the backend is parallel).
        let backend = config.backend.create();
        let factorizer = Self::block_factorizer(&config, Arc::clone(&backend));
        Ok(Self {
            config,
            codebooks,
            blocks,
            factorizer,
            backend,
            plans: PlanCache::default(),
        })
    }

    /// Returns a copy of this solver whose factorizer runs with a reduced iteration
    /// budget, **sharing the exact same codebooks** — so its decisions differ from
    /// the original only where the smaller budget changes factorization outcomes.
    ///
    /// This is the degradation knob of the `cogsys-serve` ladder: level 2 steps the
    /// budget down, level 3 runs a coarse single pass (`max_iterations == 1`, i.e.
    /// one resonator step plus the coordinate-descent polish sweep).
    pub fn with_iteration_cap(&self, max_iterations: usize) -> Self {
        let mut degraded = self.clone();
        degraded.config.factorizer.max_iterations = max_iterations.max(1);
        degraded.factorizer =
            Self::block_factorizer(&degraded.config, Arc::clone(&degraded.backend));
        degraded
    }

    /// The factorizer every attribute block decodes with, derived from `config` in
    /// one place. It decodes *blocks* of the scene superposition, so it runs with the
    /// per-block convergence threshold (`min` keeps a deliberately lower configured
    /// threshold in charge; it never tightens past the block plateau). The solver's
    /// backend and precision are pinned onto it, so the factorizer quantizes at the
    /// solver's precision and its resonator engine (and with it
    /// [`NeurosymbolicSolver::compile_plan`]'s chunk width) follows the solver's
    /// backend alone.
    fn block_factorizer(config: &SolverConfig, backend: Arc<dyn VsaBackend>) -> Factorizer {
        let factorizer_config = FactorizerConfig {
            convergence_threshold: Self::block_convergence_threshold(Self::BLOCKS.len())
                .min(config.factorizer.convergence_threshold),
            ..config.factorizer.clone()
        }
        .with_backend(config.backend)
        .with_precision(config.precision);
        Factorizer::with_backend(factorizer_config, backend)
    }

    /// Number of context panels every problem must carry (the 3×3 matrix minus the
    /// answer cell).
    pub const CONTEXT_PANELS: usize = 8;

    /// Validates one problem against the engine's input contract: exactly
    /// [`NeurosymbolicSolver::CONTEXT_PANELS`] context panels, a non-empty candidate
    /// set, an in-range answer index, and every attribute value of every panel
    /// (context first, then candidates) inside its attribute's cardinality — the
    /// bound that keeps codebook lookups in range.
    pub fn validate_problem(problem: &Problem) -> Result<(), ProblemFault> {
        Self::validate_problem_with(AttributeVocab::raven(), problem)
    }

    /// [`NeurosymbolicSolver::validate_problem`] against a configurable attribute
    /// vocabulary — the bound a vocab-enlarged solver ([`SolverConfig::vocab`])
    /// checks its inputs against.
    pub fn validate_problem_with(
        vocab: AttributeVocab,
        problem: &Problem,
    ) -> Result<(), ProblemFault> {
        if problem.context.len() != Self::CONTEXT_PANELS {
            return Err(ProblemFault::WrongPanelCount {
                expected: Self::CONTEXT_PANELS,
                got: problem.context.len(),
            });
        }
        if problem.candidates.is_empty() {
            return Err(ProblemFault::NoCandidates);
        }
        if problem.answer_index >= problem.candidates.len() {
            return Err(ProblemFault::AnswerOutOfRange {
                answer: problem.answer_index,
                candidates: problem.candidates.len(),
            });
        }
        for (panel, p) in problem
            .context
            .iter()
            .chain(problem.candidates.iter())
            .enumerate()
        {
            for attr in Attribute::ALL {
                let value = p.value(attr);
                if value >= vocab.cardinality(attr) {
                    return Err(ProblemFault::ValueOutOfRange {
                        panel,
                        attribute: attr.index(),
                        value,
                        cardinality: vocab.cardinality(attr),
                    });
                }
            }
        }
        Ok(())
    }

    /// Validates a batch, reporting the **first** malformed problem by its index in
    /// `problems`. Consumes no rng draws, so rejecting a poisoned batch and
    /// resubmitting it without the offender yields exactly the results the reduced
    /// batch would have produced in the first place.
    fn validate_problems(&self, problems: &[Problem]) -> Result<(), SolveError> {
        for (index, problem) in problems.iter().enumerate() {
            Self::validate_problem_with(self.config.vocab, problem).map_err(|fault| {
                SolveError::Malformed {
                    problem: index,
                    fault,
                }
            })?;
        }
        Ok(())
    }

    /// The solver's configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// The attribute codebooks (exposed for memory-footprint accounting).
    pub fn codebooks(&self) -> &CodebookSet {
        &self.codebooks
    }

    /// The batched execution backend this solver runs on.
    pub fn backend(&self) -> &Arc<dyn VsaBackend> {
        &self.backend
    }

    /// Drops every cached cleanup index so packed cleanups fall back to the linear
    /// scan. The index is exact, so decisions are unchanged — this knob exists for
    /// A/B perf comparison and decision-identity regression tests. Cached plans stay
    /// valid: the cleanup router reads the codebooks on every call.
    pub fn disable_cleanup_index(&mut self) {
        self.codebooks.clear_cleanup_indexes();
        for (set, _) in &mut self.blocks {
            set.clear_cleanup_indexes();
        }
    }

    /// The [`PlanKey`] a solve call over `batch` problems resolves to on this solver.
    pub fn plan_key(&self, batch: usize) -> PlanKey {
        PlanKey {
            backend: self.config.backend,
            dim: self.config.vector_dim,
            blocks: self.blocks.len(),
            batch,
            codebook_rows: (0..self.codebooks.num_factors())
                .map(|f| self.codebooks.factor(f).map_or(0, |cb| cb.len()))
                .collect(),
        }
    }

    /// Compiles a [`SolvePlan`] for a `batch`-problem solve call: the chunk width
    /// and the stage IR, resolved once, up front. Every stage runs on sign planes
    /// whatever the backend and precision, so the only decision is the chunk
    /// width: the whole batch when every block decodes on the packed resonator
    /// (the `Packed` backend, at every precision),
    /// [`NeurosymbolicSolver::DENSE_SERVE_CHUNK`] problems when the factorizer
    /// unpacks the scenes for its f32 resonator (the `Reference` and `Parallel`
    /// backends).
    ///
    /// `_specialize` has no effect: every packed operation has exactly one
    /// kernel, so there is nothing to specialize. The parameter is kept only so
    /// the frozen benchmark's `compile_plan(batch, bool)` call site still
    /// compiles.
    pub fn compile_plan(&self, batch: usize, _specialize: bool) -> SolvePlan {
        // The packed resonator keeps the whole batch in one pass (sign planes stay
        // cache-resident); the f32 resonator sub-chunks to DENSE_SERVE_CHUNK.
        let chunk_problems = if self
            .blocks
            .iter()
            .all(|(set, _)| self.factorizer.packed_pipeline(set))
        {
            batch.max(1)
        } else {
            Self::DENSE_SERVE_CHUNK
        };
        let rows = batch * Self::CONTEXT_PANELS;
        let mut stages = Vec::with_capacity(2 * self.blocks.len() + 3);
        stages.push(PlanStage::Encode {
            rows,
            factors: self.blocks.iter().map(|(set, _)| set.num_factors()).sum(),
        });
        for (b, (set, _)) in self.blocks.iter().enumerate() {
            let codebook_rows: Vec<usize> = (0..set.num_factors())
                .map(|f| set.factor(f).map_or(0, |cb| cb.len()))
                .collect();
            stages.push(PlanStage::Resonate {
                block: b,
                rows,
                factors: set.num_factors(),
                codebook_rows,
                iterations: self.factorizer.config().max_iterations,
            });
            stages.push(PlanStage::Polish {
                block: b,
                rows,
                factors: set.num_factors(),
            });
        }
        stages.push(PlanStage::Predict { problems: batch });
        stages.push(PlanStage::Score { problems: batch });
        SolvePlan {
            key: self.plan_key(batch),
            chunk_problems,
            stages,
        }
    }

    /// The cached plan for a `batch`-problem call, compiling on first use. Same shape →
    /// same `Arc` — the compile-once/run-many entry the serving loop and
    /// `solve_batch_with` share.
    pub fn plan_for_batch(&self, batch: usize) -> Arc<SolvePlan> {
        let key = self.plan_key(batch);
        self.plans
            .get_or_compile(&key, || self.compile_plan(batch, true))
    }

    /// Hit/miss counters of this solver's plan cache (the `--explain` surface).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// Batch-encodes a set of panels into one scene hypervector per row: the
    /// solver's sign-plane encode, unpacked to `±1.0` values (what every precision
    /// the solver supports quantizes a bipolar encoding to).
    ///
    /// # Errors
    /// Propagates [`VsaError`] from the encode.
    pub fn encode_panels(&self, panels: &[Panel]) -> Result<HvMatrix, VsaError> {
        let mut bits = BitMatrix::default();
        self.encode_panels_bits_into(panels, &mut EncodeScratch::default(), &mut bits)?;
        let mut out = HvMatrix::default();
        bits.unpack_into(&mut out);
        Ok(out)
    }

    /// The scene encode: block products are XOR-composed straight from the cached
    /// codebook sign planes (bipolar Hadamard binding is exactly XOR) and the two
    /// blocks are superposed with one word-wise AND ([`BitMatrix::and_assign`]),
    /// which is the sign threshold of their sum with ties to `+1`. No f32 row and
    /// no pack call is involved.
    fn encode_panels_bits_into(
        &self,
        panels: &[Panel],
        enc: &mut EncodeScratch,
        out: &mut BitMatrix,
    ) -> Result<(), VsaError> {
        debug_assert_eq!(
            self.blocks.len(),
            2,
            "sign(a + b) is a word-wise AND only for two blocks"
        );
        let EncodeScratch {
            idx, block_bits, ..
        } = enc;
        let n = panels.len();
        out.ensure_shape(n, self.config.vector_dim);
        for (block_index, (set, attrs)) in self.blocks.iter().enumerate() {
            let dst: &mut BitMatrix = if block_index == 0 { out } else { block_bits };
            for (f, &attr) in attrs.iter().enumerate() {
                idx.clear();
                idx.extend(panels.iter().map(|p| p.values()[attr]));
                let planes = set.factor(f)?.packed().ok_or(VsaError::Unsupported {
                    what: "scene encode requires cached codebook sign planes",
                })?;
                if f == 0 {
                    planes.gather_into(idx, dst)?;
                } else {
                    dst.xor_gather_assign(planes, idx)?;
                }
            }
        }
        out.and_assign(block_bits)?;
        Ok(())
    }

    /// Factorizes every row of the encoded scene batch against attribute block
    /// `block`, runs the one-sweep coordinate-descent polish, and writes the block's decoded
    /// attribute values into `values` (row-indexed). Returns a report holding only
    /// the block's factorizer iterations and row outcomes.
    ///
    /// The polish sweep repairs single-attribute decode errors cheaply with the same
    /// unbind→search primitive the factorizer iterates: per factor, the other
    /// factors' decoded codevector planes are XOR-unbound from the scene (bipolar
    /// Hadamard unbinding is exactly XOR) and the result goes through the cleanup
    /// router ([`cogsys_vsa::Codebook::cleanup_batch_bits_into`]).
    fn decode_block_into(
        &self,
        block: usize,
        scenes: &BitMatrix,
        streams: &mut [StdRng],
        ds: &mut DecodeScratch,
        values: &mut [[usize; 5]],
    ) -> Result<SolverReport, VsaError> {
        let DecodeScratch {
            factorizer: fscratch,
            tuples,
            gather_idx,
            unbound_bits,
            est_bits,
        } = ds;
        let (set, attrs) = &self.blocks[block];
        let backend = self.backend.as_ref();
        let results = self
            .factorizer
            .factorize_matrix_bits_scratch(set, scenes, streams, fscratch)?;
        let mut report = SolverReport::default();
        report.record_block(&results);

        tuples.resize_with(results.len(), Vec::new);
        for (t, r) in tuples.iter_mut().zip(&results) {
            t.clear();
            t.extend_from_slice(&r.indices);
        }

        for f in 0..set.num_factors() {
            unbound_bits.copy_from(scenes);
            for g in 0..set.num_factors() {
                if g == f {
                    continue;
                }
                gather_idx.clear();
                gather_idx.extend(tuples.iter().map(|t| t[g]));
                set.factor(g)?
                    .packed()
                    .ok_or(VsaError::Unsupported {
                        what: "polish requires cached codebook sign planes",
                    })?
                    .gather_into(gather_idx, est_bits)?;
                unbound_bits.xor_assign(est_bits)?;
            }
            let (cscratch, cleaned) = fscratch.cleanup_buffers();
            set.factor(f)?
                .cleanup_batch_bits_into(backend, unbound_bits, cscratch, cleaned)?;
            for (t, &(best, _)) in tuples.iter_mut().zip(cleaned.iter()) {
                t[f] = best;
            }
        }

        let vocab = self.config.vocab;
        for (row, tuple) in tuples.iter().enumerate() {
            for (&attr_index, &idx) in attrs.iter().zip(tuple) {
                let attr = Attribute::ALL[attr_index];
                values[row][attr_index] = idx.min(vocab.cardinality(attr) - 1);
            }
        }
        Ok(report)
    }

    /// Abduces the rule governing one attribute from the two complete rows and executes
    /// it on the incomplete row, returning the predicted attribute value.
    fn abduce_and_execute(
        dataset: DatasetKind,
        vocab: AttributeVocab,
        attribute: Attribute,
        rows: &[[usize; 3]; 2],
        last_row: (usize, usize),
    ) -> usize {
        let card = vocab.cardinality(attribute);
        let pool: &[RuleKind] = dataset.rule_pool();

        // Score every candidate rule by how many of the two complete rows it explains,
        // then execute the best-scoring rule on the incomplete row. Progression steps 1
        // and 2 are tried separately.
        let mut best: Option<(usize, usize)> = None; // (score, predicted value)
        let mut consider = |score: usize, predicted: usize| {
            if best.is_none_or(|(s, _)| score > s) {
                best = Some((score, predicted));
            }
        };

        for &kind in pool {
            match kind {
                RuleKind::Progression => {
                    for step in 1..=2usize {
                        let score = rows
                            .iter()
                            .filter(|r| {
                                r[1] == (r[0] + step) % card && r[2] == (r[1] + step) % card
                            })
                            .count();
                        consider(score, (last_row.0 + 2 * step) % card);
                    }
                }
                RuleKind::Constant => {
                    let score = rows.iter().filter(|r| r[0] == r[1] && r[1] == r[2]).count();
                    consider(score, last_row.0);
                }
                RuleKind::Arithmetic => {
                    let score = rows.iter().filter(|r| r[2] == (r[0] + r[1]) % card).count();
                    consider(score, (last_row.0 + last_row.1) % card);
                }
                RuleKind::Xor => {
                    let score = rows.iter().filter(|r| r[2] == (r[0] ^ r[1]) % card).count();
                    consider(score, (last_row.0 ^ last_row.1) % card);
                }
                RuleKind::And => {
                    let score = rows.iter().filter(|r| r[2] == (r[0] & r[1]) % card).count();
                    consider(score, (last_row.0 & last_row.1) % card);
                }
                RuleKind::Or => {
                    let score = rows.iter().filter(|r| r[2] == (r[0] | r[1]) % card).count();
                    consider(score, (last_row.0 | last_row.1) % card);
                }
                RuleKind::DistributeThree => {
                    // Both rows must share the same 3-value set; the prediction is the
                    // member of that set missing from the incomplete row.
                    let mut s0 = rows[0].to_vec();
                    let mut s1 = rows[1].to_vec();
                    s0.sort_unstable();
                    s1.sort_unstable();
                    let coherent = s0 == s1 && s0[0] != s0[1] && s0[1] != s0[2];
                    let score = if coherent { 2 } else { 0 };
                    let predicted = s0
                        .iter()
                        .copied()
                        .find(|v| *v != last_row.0 && *v != last_row.1)
                        .unwrap_or(last_row.1);
                    consider(score, predicted);
                }
            }
        }
        best.map(|(_, p)| p).unwrap_or(last_row.1)
    }

    /// Abduces every attribute's rule from the decoded context panels (row-major, the
    /// eight visible cells) and executes it on the incomplete row, producing the
    /// predicted answer panel. Pure symbolic work.
    fn predict_panel(dataset: DatasetKind, vocab: AttributeVocab, decoded: &[Panel]) -> Panel {
        let mut predicted_values = [0usize; 5];
        for attr in Attribute::ALL {
            let rows = [
                [
                    decoded[0].value(attr),
                    decoded[1].value(attr),
                    decoded[2].value(attr),
                ],
                [
                    decoded[3].value(attr),
                    decoded[4].value(attr),
                    decoded[5].value(attr),
                ],
            ];
            let last_row = (decoded[6].value(attr), decoded[7].value(attr));
            predicted_values[attr.index()] =
                Self::abduce_and_execute(dataset, vocab, attr, &rows, last_row)
                    .min(vocab.cardinality(attr) - 1);
        }
        Panel::new_unchecked(predicted_values)
    }

    /// Solves a batch of problems through the **cross-problem batched engine** and
    /// returns the aggregate report.
    ///
    /// Every context panel of every problem flows through ONE encode, ONE factorize
    /// call per attribute block and ONE batched answer-scoring pass, so the packed
    /// kernels see `8·N`-row batches instead of one problem's panels. Decisions,
    /// reports and rng consumption equal solving the problems one at a time
    /// (regression-tested against a per-problem oracle). See
    /// [`NeurosymbolicSolver::solve_batch_with`] for the allocation-free variant.
    ///
    /// # Errors
    /// Returns [`SolveError::Malformed`] naming the first invalid problem's batch
    /// index (before any rng draw), or [`SolveError::Vsa`] from the VSA stages.
    pub fn solve_batch<R: Rng + ?Sized>(
        &self,
        problems: &[Problem],
        rng: &mut R,
    ) -> Result<SolverReport, SolveError> {
        self.solve_batch_with(problems, rng, &mut SolverScratch::default())
    }

    /// [`NeurosymbolicSolver::solve_batch`] with **caller-owned scratch**: the
    /// allocation-free steady state of a serving loop. All buffers of the
    /// encode → factorize → score pipeline live in `scratch` and are reused across
    /// calls; `scratch.choices()` afterwards holds the chosen candidate per problem.
    ///
    /// The call looks up (or compiles once) the cached [`SolvePlan`] for the batch
    /// shape ([`NeurosymbolicSolver::plan_for_batch`]) and executes it.
    ///
    /// Decision identity with solving one problem at a time is by construction:
    ///
    /// * every per-problem rng draw (perception noise, interface bit flips, the
    ///   factorizer stream seeds) is made **in the sequential order** and buffered,
    ///   so the generator state evolves exactly as if each problem were solved on
    ///   its own — which also makes the result independent of how a problem
    ///   stream is chunked into batches;
    /// * encoding and factorization are row-independent batch kernels driven by those
    ///   per-query streams (the scene planes are XOR/AND-composed from cached
    ///   codebook planes, bitwise equal to an f32 encode at every precision);
    /// * batched answer scoring preserves decisions: candidate encodings are exactly
    ///   bipolar, so both the popcount cosine `(d − 2h)/d` and a per-candidate scalar
    ///   cosine are strictly increasing rounded functions of the same exact integer
    ///   dot product — equal agreements break ties identically.
    ///
    /// Chunk-invariance also lets the engine pick the batch size each resonator
    /// wants: the packed resonator takes the whole batch (sign planes keep an
    /// `8·N`-row working set cache-resident), while the f32 resonator sub-chunks to
    /// [`NeurosymbolicSolver::DENSE_SERVE_CHUNK`] problems — its per-iteration
    /// working set is 32× larger and spills cache at wide batches, measurably
    /// *losing* throughput beyond a few problems per call.
    ///
    /// # Errors
    /// Returns [`SolveError::Malformed`] naming the first invalid problem's index
    /// in `problems`. Validation happens **before any rng draw**, so a caller that
    /// excises the offender and resubmits the remainder (with the same generator
    /// state or seed) gets exactly the results the reduced batch would have
    /// produced outright — the contract the `cogsys-serve` retry path relies on.
    /// VSA-stage failures propagate as [`SolveError::Vsa`].
    pub fn solve_batch_with<R: Rng + ?Sized>(
        &self,
        problems: &[Problem],
        rng: &mut R,
        scratch: &mut SolverScratch,
    ) -> Result<SolverReport, SolveError> {
        scratch.choices.clear();
        if problems.is_empty() {
            return Ok(SolverReport::default());
        }
        self.validate_problems(problems)?;
        let plan = self.plan_for_batch(problems.len());
        self.execute_plan(&plan, problems, rng, scratch, None)
    }

    /// [`NeurosymbolicSolver::solve_batch_with`] executing a **pre-compiled plan**
    /// and accumulating per-stage wall-clock time into `timings` — the measurement
    /// hook behind the `plan_stage_*` bench cells and `cogsys-serve`'s per-stage
    /// service-time fit. Timing is observation only, and chunk-invariance makes a
    /// plan compiled for one batch size valid for any other (only `chunk_problems`
    /// shapes the internal slicing), so decisions and rng consumption equal
    /// [`NeurosymbolicSolver::solve_batch_with`]'s.
    ///
    /// # Errors
    /// Returns [`SolveError::Config`] when the plan was compiled for a different
    /// solver shape (backend, dimension, block structure or codebook sizes), plus
    /// everything [`NeurosymbolicSolver::solve_batch_with`] returns.
    pub fn solve_batch_with_plan_timed<R: Rng + ?Sized>(
        &self,
        plan: &SolvePlan,
        problems: &[Problem],
        rng: &mut R,
        scratch: &mut SolverScratch,
        timings: &mut StageNanos,
    ) -> Result<SolverReport, SolveError> {
        scratch.choices.clear();
        if problems.is_empty() {
            return Ok(SolverReport::default());
        }
        self.check_plan(plan)?;
        self.validate_problems(problems)?;
        self.execute_plan(plan, problems, rng, scratch, Some(timings))
    }

    /// Pre-sizes the factorizer scratch from the plan's workload shape — chunk
    /// rows, dimension, per-block factor count and codebook widths are all fixed
    /// by the [`PlanKey`], so the buffers the packed resonator and the fused
    /// kernel reshape per call can be bounded **before** the stream starts and
    /// the steady-state serving loop stays allocation-free
    /// (`SolverScratch::factorizer_capacity_fingerprint` is the regression hook).
    /// Draws no rng and touches no decision state; a no-op once sized.
    fn reserve_scratch_for_plan(&self, plan: &SolvePlan, scratch: &mut SolverScratch) {
        let rows = plan.chunk_problems.max(1) * Self::CONTEXT_PANELS;
        let num_factors = self
            .blocks
            .iter()
            .map(|(set, _)| set.num_factors())
            .max()
            .unwrap_or(0);
        let max_cb_rows = plan.key.codebook_rows.iter().copied().max().unwrap_or(0);
        scratch
            .decode
            .factorizer
            .reserve_packed(rows, plan.key.dim, num_factors, max_cb_rows);
    }

    /// Rejects a plan compiled for a different solver shape before any rng draw.
    fn check_plan(&self, plan: &SolvePlan) -> Result<(), SolveError> {
        let expected = self.plan_key(plan.key.batch);
        if plan.key != expected {
            return Err(SolveError::Config {
                message: format!(
                    "plan compiled for {:?}, solver shape is {:?}",
                    plan.key, expected
                ),
            });
        }
        Ok(())
    }

    /// The thin chunk loop over a compiled plan: slice `problems` by the plan's
    /// chunk width and run the batched engine per chunk. All routing below this
    /// point reads the plan, never re-derives.
    fn execute_plan<R: Rng + ?Sized>(
        &self,
        plan: &SolvePlan,
        problems: &[Problem],
        rng: &mut R,
        scratch: &mut SolverScratch,
        mut timings: Option<&mut StageNanos>,
    ) -> Result<SolverReport, SolveError> {
        self.reserve_scratch_for_plan(plan, scratch);
        let mut total = SolverReport::default();
        for chunk in problems.chunks(plan.chunk_problems.max(1)) {
            total.merge(&self.solve_batch_chunk(chunk, rng, scratch, timings.as_deref_mut())?);
        }
        Ok(total)
    }

    /// Problems per internal chunk when the blocks decode on the f32 resonator, which
    /// the `Reference` and `Parallel` backends run.
    ///
    /// Four problems (32 panel rows) keep the f32 resonator's per-iteration working
    /// set — query batch, per-factor estimates, unbound/projected/rebound buffers,
    /// each `rows × dim` f32 — inside cache on the 1-core CI machine; measured
    /// throughput degrades ~1.2–1.3× by 64-problem chunks and is flat in [1, 4].
    /// Decision-invariant by the per-problem rng draw order. Plan compilation folds
    /// it into [`SolvePlan::chunk_problems`] (the whole batch on the packed
    /// resonator, this width otherwise), and the executor only reads the plan.
    pub const DENSE_SERVE_CHUNK: usize = 4;

    /// One pass of the batched engine over `problems`, appending to
    /// `scratch.choices`. Every stage runs on sign planes; the plan only shaped
    /// the chunk this pass covers (see [`NeurosymbolicSolver::compile_plan`]).
    fn solve_batch_chunk<R: Rng + ?Sized>(
        &self,
        problems: &[Problem],
        rng: &mut R,
        scratch: &mut SolverScratch,
        mut timings: Option<&mut StageNanos>,
    ) -> Result<SolverReport, VsaError> {
        let mut mark = Instant::now();
        let mut report = SolverReport::default();
        let SolverScratch {
            encode,
            decode,
            streams,
            perceived,
            flips,
            seeds,
            row_base,
            seed_base,
            encoded,
            values,
            decoded,
            predicted,
            cand_panels,
            cand_base,
            pred_bits,
            cand_bits,
            choices,
        } = scratch;
        let num_blocks = self.blocks.len();
        let dim = self.config.vector_dim;

        // ---- Phase 1: every per-problem rng draw, in exactly the sequential order.
        // None of the draws depend on encoded data, so they can be buffered up front;
        // replaying them per problem keeps the generator state bitwise identical to
        // solving one problem at a time, no matter how the batch is sliced.
        perceived.clear();
        flips.clear();
        seeds.clear();
        row_base.clear();
        seed_base.clear();
        for problem in problems {
            row_base.push(perceived.len());
            seed_base.push(seeds.len());
            let base = perceived.len();
            for panel in &problem.context {
                perceived.push(if self.config.perception_noise > 0.0 {
                    panel.perturbed_with(self.config.vocab, self.config.perception_noise, rng)
                } else {
                    *panel
                });
            }
            let rows_q = problem.context.len();
            if self.config.encoding_noise > 0.0 {
                let p = self.config.encoding_noise.clamp(0.0, 1.0);
                for r in 0..rows_q {
                    for j in 0..dim {
                        if rng.gen_bool(p) {
                            flips.push(((base + r) as u32, j as u32));
                        }
                    }
                }
            }
            for _ in 0..num_blocks {
                for _ in 0..rows_q {
                    seeds.push(rng.next_u64());
                }
            }
        }
        let total_rows = perceived.len();

        // ---- Phase 2: one encode over every context panel of every problem, born
        // as sign planes; the interface noise is applied as bit flips.
        self.encode_panels_bits_into(perceived, encode, encoded)?;
        for &(r, j) in flips.iter() {
            encoded.flip_bit(r as usize, j as usize);
        }
        if let Some(t) = timings.as_deref_mut() {
            let now = Instant::now();
            t.encode += now.duration_since(mark).as_nanos() as u64;
            mark = now;
        }

        // ---- Phase 3: one factorize + polish pass per attribute block over the
        // whole `8·N`-row batch, each row driven by the stream seeded for it in
        // phase 1 — per-row dynamics identical to decoding one problem alone.
        values.clear();
        values.resize(total_rows, [0usize; 5]);
        for b in 0..num_blocks {
            streams.clear();
            for (q, problem) in problems.iter().enumerate() {
                let rows_q = problem.context.len();
                let sb = seed_base[q];
                for r in 0..rows_q {
                    streams.push(StdRng::seed_from_u64(seeds[sb + b * rows_q + r]));
                }
            }
            report.merge(&self.decode_block_into(b, encoded, streams, decode, values)?);
        }
        if let Some(t) = timings.as_deref_mut() {
            let now = Instant::now();
            t.decode += now.duration_since(mark).as_nanos() as u64;
            mark = now;
        }

        // ---- Phase 4: per-problem abduction + prediction (pure symbolic work).
        decoded.clear();
        decoded.extend(values.iter().map(|v| Panel::new_unchecked(*v)));
        predicted.clear();
        for (q, problem) in problems.iter().enumerate() {
            let base = row_base[q];
            let ctx = &decoded[base..base + problem.context.len()];
            report.panels_total += ctx.len();
            report.panels_exact += ctx
                .iter()
                .zip(&problem.context)
                .filter(|(estimate, panel)| estimate == panel)
                .count();
            predicted.push(Self::predict_panel(problem.dataset, self.config.vocab, ctx));
        }

        // ---- Phase 5: batched answer selection. All predicted panels and all
        // candidates are encoded together; the per-candidate similarity is one
        // popcount row dot.
        cand_panels.clear();
        cand_base.clear();
        for problem in problems {
            cand_base.push(cand_panels.len());
            cand_panels.extend_from_slice(&problem.candidates);
        }
        self.encode_panels_bits_into(predicted, encode, pred_bits)?;
        self.encode_panels_bits_into(cand_panels, encode, cand_bits)?;
        for (q, problem) in problems.iter().enumerate() {
            let base = cand_base[q];
            let mut best = (0usize, 0usize, f32::NEG_INFINITY);
            for (i, candidate) in problem.candidates.iter().enumerate() {
                let agreement = Attribute::ALL.len() - predicted[q].distance(candidate);
                let sim = cand_bits.cosine_rows(base + i, pred_bits, q);
                if agreement > best.1 || (agreement == best.1 && sim > best.2) {
                    best = (i, agreement, sim);
                }
            }
            choices.push(best.0);
            report.problems += 1;
            if problem.is_correct(best.0) {
                report.correct += 1;
            }
        }
        if let Some(t) = timings {
            t.score += Instant::now().duration_since(mark).as_nanos() as u64;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cogsys_datasets::ProblemGenerator;
    use cogsys_vsa::quant::fake_quantize_slice;
    use cogsys_vsa::{ops, rng, Hypervector};
    use rand::RngCore;

    /// The per-problem oracle the batched engine is checked against. It shares no
    /// plan, encode or scoring with the engine: it encodes each panel in f32 with
    /// scalar binds, packs the noisy scenes once for the block decode, and scores
    /// each candidate through the scalar cosine of its own f32 encodings — the
    /// only check that the sign-plane encode and popcount scoring decide like the
    /// f32 pipeline they replace.
    impl NeurosymbolicSolver {
        /// The f32 scene encode: per block, the panel's factor codevectors are
        /// bound in factor order, the block products are superposed,
        /// sign-thresholded (ties to `+1`) and quantized at the solver's precision.
        fn encode_panel_f32(&self, panel: &Panel) -> Hypervector {
            let mut scene = vec![0.0f32; self.config.vector_dim];
            for (set, attrs) in &self.blocks {
                let indices: Vec<usize> = attrs.iter().map(|&a| panel.values()[a]).collect();
                let product = set.bind_indices(&indices).expect("in-range panel values");
                for (slot, v) in scene.iter_mut().zip(product.values()) {
                    *slot += v;
                }
            }
            for v in &mut scene {
                *v = if *v < 0.0 { -1.0 } else { 1.0 };
            }
            fake_quantize_slice(&mut scene, self.config.precision);
            Hypervector::from_values(scene)
        }

        /// Perceives (optionally mis-reads), encodes, adds interface noise to, and
        /// factorizes `panels`, drawing from `rng` in per-problem order. Returns
        /// the decoded panels and a report holding the factorizer iterations and
        /// row outcomes.
        fn perceive_and_factorize_batch<R: Rng + ?Sized>(
            &self,
            panels: &[Panel],
            rng: &mut R,
        ) -> Result<(Vec<Panel>, SolverReport), VsaError> {
            let n = panels.len();
            let mut scenes = Vec::with_capacity(n);
            for p in panels {
                let perceived = if self.config.perception_noise > 0.0 {
                    p.perturbed_with(self.config.vocab, self.config.perception_noise, rng)
                } else {
                    *p
                };
                scenes.push(self.encode_panel_f32(&perceived));
            }
            let mut encoded = HvMatrix::from_rows(&scenes)?;
            if self.config.encoding_noise > 0.0 {
                let p = self.config.encoding_noise.clamp(0.0, 1.0);
                for q in 0..n {
                    for v in encoded.row_mut(q) {
                        if rng.gen_bool(p) {
                            *v = -*v;
                        }
                    }
                }
            }
            let bits = BitMatrix::from_matrix(&encoded).expect("encodings are bipolar");
            let mut ds = DecodeScratch::default();
            let mut values = vec![[0usize; 5]; n];
            let mut report = SolverReport::default();
            for b in 0..self.blocks.len() {
                let mut streams: Vec<StdRng> = (0..n)
                    .map(|_| StdRng::seed_from_u64(rng.next_u64()))
                    .collect();
                report.merge(&self.decode_block_into(
                    b,
                    &bits,
                    &mut streams,
                    &mut ds,
                    &mut values,
                )?);
            }
            Ok((
                values.into_iter().map(Panel::new_unchecked).collect(),
                report,
            ))
        }

        /// Solves one well-formed problem, returning the chosen candidate and its
        /// report.
        fn solve<R: Rng + ?Sized>(
            &self,
            problem: &Problem,
            rng: &mut R,
        ) -> Result<(usize, SolverReport), VsaError> {
            let (decoded, mut report) = self.perceive_and_factorize_batch(&problem.context, rng)?;
            report.panels_total += decoded.len();
            report.panels_exact += decoded
                .iter()
                .zip(&problem.context)
                .filter(|(estimate, panel)| estimate == panel)
                .count();
            let predicted = Self::predict_panel(problem.dataset, self.config.vocab, &decoded);
            // NVSA answer selection: most agreeing attributes wins, the full-vector
            // cosine against the prediction breaks ties.
            let predicted_hv = self.encode_panel_f32(&predicted);
            let mut best = (0usize, 0usize, f32::NEG_INFINITY);
            for (i, candidate) in problem.candidates.iter().enumerate() {
                let agreement = Attribute::ALL.len() - predicted.distance(candidate);
                let hv = self.encode_panel_f32(candidate);
                let sim = ops::try_cosine_similarity(&predicted_hv, &hv)?;
                if agreement > best.1 || (agreement == best.1 && sim > best.2) {
                    best = (i, agreement, sim);
                }
            }
            report.problems = 1;
            if problem.is_correct(best.0) {
                report.correct = 1;
            }
            Ok((best.0, report))
        }
    }

    fn solver(seed: u64, config: SolverConfig) -> (NeurosymbolicSolver, rand::rngs::StdRng) {
        let mut r = rng(seed);
        let s = NeurosymbolicSolver::new(config, &mut r);
        (s, r)
    }

    #[test]
    fn encode_and_factorize_round_trip() {
        let (s, mut r) = solver(1, SolverConfig::default());
        let panel = Panel::new([3, 4, 2, 5, 7]);
        let (decoded, report) = s
            .perceive_and_factorize_batch(std::slice::from_ref(&panel), &mut r)
            .unwrap();
        assert_eq!(decoded, vec![panel]);
        assert!(report.factorizer_iterations >= 1);
    }

    #[test]
    fn solver_achieves_high_accuracy_on_clean_raven() {
        let (s, mut r) = solver(2, SolverConfig::default());
        let problems = ProblemGenerator::new(DatasetKind::Raven).generate_batch(10, &mut r);
        let report = s.solve_batch(&problems, &mut r).unwrap();
        assert!(
            report.accuracy() >= 0.75,
            "accuracy {} too low",
            report.accuracy()
        );
        assert!(
            report.factorization_accuracy() >= 0.85,
            "factorization accuracy {}",
            report.factorization_accuracy()
        );
        assert_eq!(report.problems, 10);
        assert_eq!(report.panels_total, 80);
    }

    #[test]
    fn row_outcome_counts_cover_every_block_decode() {
        // Each panel is decoded once per attribute block, and every decode ends in
        // exactly one outcome. A tight iteration cap forces capped rows too.
        let capped = SolverConfig {
            factorizer: FactorizerConfig::default().with_max_iterations(2),
            ..SolverConfig::default()
        };
        for config in [SolverConfig::default(), capped] {
            let (s, mut r) = solver(12, config);
            let problems = ProblemGenerator::new(DatasetKind::Raven).generate_batch(8, &mut r);
            let report = s.solve_batch(&problems, &mut r).unwrap();
            assert_eq!(
                report.rows_converged + report.rows_limit_cycle + report.rows_capped,
                report.panels_total * s.blocks.len()
            );
            assert!(report.rows_converged > 0);
        }
    }

    #[test]
    fn packed_engine_matches_dense_across_every_row_outcome() {
        // One batch whose rows converge at different iterations, exit on a limit
        // cycle, or run into the cap. The packed engine skips the last projection
        // of every row that converges, and quantizes its projection accumulators
        // below FP32; neither may change a result or an outcome count against the
        // dense engine, which projects every row, at any precision.
        let mut r = rng(4);
        let set = CodebookSet::random(&[16, 16, 16], 512, BindingOp::Hadamard, &mut r);
        let flips = [0.0, 0.01, 0.02, 0.03, 0.04, 0.3, 0.4];
        let queries: Vec<_> = (0..28)
            .map(|i| {
                let clean = set
                    .bind_indices(&[i % 8, (i + 3) % 8, (5 * i) % 8])
                    .unwrap();
                ops::flip_noise(&clean, flips[i % flips.len()], &mut r)
            })
            .collect();
        let matrix = HvMatrix::from_rows(&queries).unwrap();
        let decode = |kind: BackendKind, precision: Precision| {
            let config = FactorizerConfig::default()
                .with_max_iterations(12)
                .with_backend(kind)
                .with_precision(precision);
            let mut streams: Vec<_> = (0..queries.len() as u64)
                .map(|q| StdRng::seed_from_u64(0x5EED ^ q))
                .collect();
            let results = Factorizer::new(config)
                .factorize_matrix_scratch(
                    &set,
                    &matrix,
                    &mut streams,
                    &mut FactorizerScratch::default(),
                )
                .unwrap();
            let mut report = SolverReport::default();
            report.record_block(&results);
            (results, report)
        };
        for precision in Precision::all() {
            let (dense, dense_report) = decode(BackendKind::Reference, precision);
            let (packed, packed_report) = decode(BackendKind::Packed, precision);
            // The batch really covers every outcome, with convergence spread over
            // several iterations (first iteration included).
            let mut converged_at: Vec<_> = dense
                .iter()
                .filter(|d| d.converged)
                .map(|d| d.iterations)
                .collect();
            converged_at.sort_unstable();
            converged_at.dedup();
            assert!(
                converged_at.len() >= 3 && converged_at[0] == 1,
                "{precision}: {converged_at:?}"
            );
            assert!(
                dense_report.rows_limit_cycle > 0 && dense_report.rows_capped > 0,
                "{precision}: {dense_report:?}"
            );
            for (q, (d, p)) in dense.iter().zip(&packed).enumerate() {
                assert_eq!(
                    (&d.indices, d.iterations, d.converged, d.limit_cycle),
                    (&p.indices, p.iterations, p.converged, p.limit_cycle),
                    "{precision}: row {q}"
                );
                assert!(
                    (d.similarity - p.similarity).abs() < 1e-4,
                    "{precision}: row {q}"
                );
            }
            assert_eq!(dense_report, packed_report, "{precision}");
        }
    }

    #[test]
    fn solver_handles_iraven_and_pgm() {
        for dataset in [DatasetKind::IRaven, DatasetKind::Pgm] {
            let (s, mut r) = solver(3, SolverConfig::default());
            let problems = ProblemGenerator::new(dataset).generate_batch(6, &mut r);
            let report = s.solve_batch(&problems, &mut r).unwrap();
            assert!(
                report.accuracy() >= 0.5,
                "{dataset}: accuracy {}",
                report.accuracy()
            );
        }
    }

    #[test]
    fn int8_precision_preserves_reasoning_accuracy() {
        // Tab. VIII: quantization costs only a fraction of a percent of accuracy.
        let config = SolverConfig::default().with_precision(Precision::Int8);
        let (s, mut r) = solver(4, config);
        let problems = ProblemGenerator::new(DatasetKind::Raven).generate_batch(6, &mut r);
        let report = s.solve_batch(&problems, &mut r).unwrap();
        assert!(report.accuracy() >= 0.6, "accuracy {}", report.accuracy());
    }

    #[test]
    fn heavy_perception_noise_degrades_accuracy() {
        let clean_cfg = SolverConfig::default();
        let noisy_cfg = SolverConfig {
            perception_noise: 0.5,
            ..SolverConfig::default()
        };
        let (clean, mut r1) = solver(5, clean_cfg);
        let (noisy, mut r2) = solver(5, noisy_cfg);
        let problems = ProblemGenerator::new(DatasetKind::Raven).generate_batch(8, &mut r1);
        let clean_report = clean.solve_batch(&problems, &mut r1).unwrap();
        let noisy_report = noisy.solve_batch(&problems, &mut r2).unwrap();
        assert!(
            clean_report.accuracy() + 1e-9 >= noisy_report.accuracy(),
            "clean {} vs noisy {}",
            clean_report.accuracy(),
            noisy_report.accuracy()
        );
    }

    #[test]
    fn report_merging_and_empty_report() {
        let mut a = SolverReport {
            problems: 2,
            correct: 1,
            panels_exact: 10,
            panels_total: 16,
            factorizer_iterations: 40,
            rows_converged: 30,
            rows_limit_cycle: 1,
            rows_capped: 1,
        };
        let b = SolverReport {
            problems: 2,
            correct: 2,
            panels_exact: 16,
            panels_total: 16,
            factorizer_iterations: 30,
            rows_converged: 31,
            rows_limit_cycle: 0,
            rows_capped: 1,
        };
        a.merge(&b);
        assert_eq!(a.problems, 4);
        assert_eq!(
            (a.rows_converged, a.rows_limit_cycle, a.rows_capped),
            (61, 1, 2)
        );
        assert!((a.accuracy() - 0.75).abs() < 1e-12);
        assert!((a.factorization_accuracy() - 26.0 / 32.0).abs() < 1e-12);
        assert_eq!(SolverReport::default().accuracy(), 0.0);
        assert_eq!(SolverReport::default().factorization_accuracy(), 0.0);
    }

    #[test]
    fn solve_returns_candidate_index_in_range() {
        let (s, mut r) = solver(6, SolverConfig::default());
        let problem = ProblemGenerator::new(DatasetKind::Cvr).generate(&mut r);
        let mut scratch = SolverScratch::default();
        s.solve_batch_with(std::slice::from_ref(&problem), &mut r, &mut scratch)
            .unwrap();
        assert_eq!(scratch.choices().len(), 1);
        assert!(scratch.choices()[0] < problem.candidates.len());
    }

    #[test]
    fn batch_encoding_matches_scalar_encoding() {
        let (s, _) = solver(8, SolverConfig::default());
        let panels = [
            Panel::new([0, 1, 2, 3, 4]),
            Panel::new([3, 4, 2, 5, 7]),
            Panel::new([8, 0, 4, 0, 9]),
        ];
        let batch = s.encode_panels(&panels).unwrap();
        assert_eq!(batch.rows(), 3);
        for (q, panel) in panels.iter().enumerate() {
            let single = s.encode_panels(std::slice::from_ref(panel)).unwrap();
            assert_eq!(batch.row(q), single.row(0), "panel {q}");
        }
    }

    #[test]
    fn batch_factorization_decodes_whole_context() {
        let (s, mut r) = solver(9, SolverConfig::default());
        let panels: Vec<Panel> = (0..6).map(|_| Panel::random(&mut r)).collect();
        let (decoded, report) = s.perceive_and_factorize_batch(&panels, &mut r).unwrap();
        assert_eq!(decoded.len(), panels.len());
        assert!(report.factorizer_iterations >= panels.len());
        let exact = decoded.iter().zip(&panels).filter(|(a, b)| a == b).count();
        assert!(exact >= 5, "only {exact}/6 panels decoded exactly");
    }

    #[test]
    fn reference_backend_reaches_same_accuracy() {
        let config = SolverConfig::default();
        let (fast, mut r1) = solver(11, config.clone().with_backend(BackendKind::Parallel));
        let (slow, mut r2) = solver(11, config.with_backend(BackendKind::Reference));
        let problems = ProblemGenerator::new(DatasetKind::Raven).generate_batch(4, &mut r1);
        let fast_report = fast.solve_batch(&problems, &mut r1).unwrap();
        // Re-sync the second rng stream to the same state the first solver consumed.
        let _ = ProblemGenerator::new(DatasetKind::Raven).generate_batch(4, &mut r2);
        let slow_report = slow.solve_batch(&problems, &mut r2).unwrap();
        // The backends agree within the 1e-4 cosine contract, far inside the
        // resonator's decision margins: identical codebooks and rng streams must give
        // near-identical reports (allow one problem of divergence) and both must
        // decode panels reliably.
        assert_eq!(fast_report.problems, slow_report.problems);
        assert_eq!(fast_report.panels_total, slow_report.panels_total);
        assert!(
            (fast_report.correct as i64 - slow_report.correct as i64).abs() <= 1,
            "fast {} vs slow {}",
            fast_report.correct,
            slow_report.correct
        );
        assert!(fast_report.accuracy() >= 0.66, "{}", fast_report.accuracy());
        assert!(slow_report.accuracy() >= 0.66, "{}", slow_report.accuracy());
        assert!(fast_report.factorization_accuracy() >= 0.85);
        assert!(slow_report.factorization_accuracy() >= 0.85);
        assert_eq!(fast.backend().name(), "parallel");
        assert_eq!(slow.backend().name(), "reference");
    }

    #[test]
    fn block_threshold_stops_factorizer_early() {
        // The scene superposition caps the per-block rebind cosine around
        // 1/sqrt(#blocks), so with the flat 0.9 threshold every panel used to burn the
        // whole 200-iteration budget per block. The per-block threshold converges
        // correct decodes in a handful of iterations.
        let (s, mut r) = solver(12, SolverConfig::default());
        assert!(
            (NeurosymbolicSolver::block_convergence_threshold(2) - 0.6 / 2f32.sqrt()).abs() < 1e-6
        );
        let panels: Vec<Panel> = (0..4).map(|_| Panel::random(&mut r)).collect();
        let (decoded, report) = s.perceive_and_factorize_batch(&panels, &mut r).unwrap();
        let iters = report.factorizer_iterations;
        let exact = decoded.iter().zip(&panels).filter(|(a, b)| a == b).count();
        assert!(exact >= 3, "only {exact}/4 panels decoded exactly");
        let budget = panels.len() * 2 * s.config().factorizer.max_iterations;
        assert!(
            iters * 4 < budget,
            "expected early convergence: {iters} of {budget} budget iterations"
        );
    }

    #[test]
    fn packed_backend_reaches_same_accuracy() {
        // BackendKind::Packed end to end: the XOR/popcount pipeline must match the
        // dense backends' reasoning quality (its similarity decisions are exact).
        let config = SolverConfig::default();
        let (packed, mut r1) = solver(13, config.clone().with_backend(BackendKind::Packed));
        let (dense, mut r2) = solver(13, config.with_backend(BackendKind::Parallel));
        let problems = ProblemGenerator::new(DatasetKind::Raven).generate_batch(4, &mut r1);
        let packed_report = packed.solve_batch(&problems, &mut r1).unwrap();
        let _ = ProblemGenerator::new(DatasetKind::Raven).generate_batch(4, &mut r2);
        let dense_report = dense.solve_batch(&problems, &mut r2).unwrap();
        assert_eq!(packed_report.problems, dense_report.problems);
        assert_eq!(packed_report.panels_total, dense_report.panels_total);
        assert!(
            (packed_report.correct as i64 - dense_report.correct as i64).abs() <= 1,
            "packed {} vs dense {}",
            packed_report.correct,
            dense_report.correct
        );
        assert!(
            packed_report.accuracy() >= 0.66,
            "{}",
            packed_report.accuracy()
        );
        assert!(packed_report.factorization_accuracy() >= 0.85);
        assert_eq!(packed.backend().name(), "packed");
    }

    /// The sequential reference: a plain loop over the per-problem oracle,
    /// collecting per-problem choices and the merged report.
    fn solve_sequentially(
        s: &NeurosymbolicSolver,
        problems: &[Problem],
        rng: &mut rand::rngs::StdRng,
    ) -> (Vec<usize>, SolverReport) {
        let mut choices = Vec::new();
        let mut total = SolverReport::default();
        for problem in problems {
            let (choice, report) = s.solve(problem, rng).unwrap();
            choices.push(choice);
            total.merge(&report);
        }
        (choices, total)
    }

    #[test]
    fn batched_solve_is_decision_identical_to_sequential_path() {
        // THE tentpole regression: the cross-problem batched engine must return the
        // exact choices and report of the per-problem path — same decisions, same rng
        // consumption — on every backend, at FP32 and INT8, and on every dataset
        // family.
        use cogsys_datasets::Problem;
        for (kind, precision) in BackendKind::ALL
            .into_iter()
            .flat_map(|kind| [Precision::Fp32, Precision::Int8].map(|p| (kind, p)))
        {
            for dataset in [DatasetKind::Raven, DatasetKind::IRaven, DatasetKind::Pgm] {
                let config = SolverConfig {
                    perception_noise: 0.05, // exercise the perception-noise rng draws
                    ..SolverConfig::default()
                }
                .with_backend(kind)
                .with_precision(precision);
                let (s, mut r1) = solver(40, config);
                let problems: Vec<Problem> =
                    ProblemGenerator::new(dataset).generate_batch(5, &mut r1);
                let mut r2 = r1.clone();

                let mut scratch = SolverScratch::default();
                let batched = s
                    .solve_batch_with(&problems, &mut r1, &mut scratch)
                    .unwrap();
                let (seq_choices, sequential) = solve_sequentially(&s, &problems, &mut r2);

                let case = format!("{kind}/{precision}/{dataset}");
                assert_eq!(batched, sequential, "{case}: reports diverge");
                assert_eq!(
                    scratch.choices(),
                    &seq_choices[..],
                    "{case}: choices diverge"
                );
                // Identical rng consumption: both generators must be in the same
                // state afterwards.
                assert_eq!(r1.next_u64(), r2.next_u64(), "{case}: rng streams diverge");
            }
        }
    }

    #[test]
    fn batched_solve_is_invariant_to_chunking() {
        // The per-problem rng draw order makes the engine chunk-invariant: solving
        // 8 problems as one batch, as 3+5, or per problem gives identical results —
        // the property `CogSysSystem::run_reasoning` relies on when it slices a
        // problem stream into `batch_tasks`-sized chunks.
        let (s, mut r1) = solver(41, SolverConfig::default());
        let problems = ProblemGenerator::new(DatasetKind::Raven).generate_batch(8, &mut r1);
        let mut r2 = r1.clone();
        let mut r3 = r1.clone();

        let whole = s.solve_batch(&problems, &mut r1).unwrap();

        let mut scratch = SolverScratch::default();
        let mut chunked = SolverReport::default();
        let mut chunked_choices = Vec::new();
        for chunk in problems.chunks(3) {
            let report = s.solve_batch_with(chunk, &mut r2, &mut scratch).unwrap();
            chunked_choices.extend_from_slice(scratch.choices());
            chunked.merge(&report);
        }
        assert_eq!(whole, chunked);

        let (seq_choices, _) = solve_sequentially(&s, &problems, &mut r3);
        assert_eq!(chunked_choices, seq_choices);
    }

    #[test]
    fn batched_solve_reuses_scratch_across_shapes() {
        // One scratch must serve alternating batch shapes and datasets without state
        // leaking between calls: each call equals a fresh-scratch run.
        let (s, mut r) = solver(42, SolverConfig::default());
        let raven = ProblemGenerator::new(DatasetKind::Raven).generate_batch(4, &mut r);
        let cvr = ProblemGenerator::new(DatasetKind::Cvr).generate_batch(2, &mut r);
        let mut shared = SolverScratch::default();
        for problems in [&raven[..], &cvr[..], &raven[..1]] {
            let mut r1 = r.clone();
            let mut r2 = r.clone();
            let reused = s.solve_batch_with(problems, &mut r1, &mut shared).unwrap();
            let reused_choices = shared.choices().to_vec();
            let mut fresh = SolverScratch::default();
            let fresh_report = s.solve_batch_with(problems, &mut r2, &mut fresh).unwrap();
            assert_eq!(reused, fresh_report);
            assert_eq!(reused_choices, fresh.choices());
        }
    }

    #[test]
    fn packed_encode_route_matches_f32_encode_bitwise() {
        // The sign-plane encode (XOR-composed block planes + AND superposition)
        // must equal the f32 encode + strict pack on every panel, on every backend
        // and at every precision: quantization maps ±1 to exactly ±1, so the sign
        // planes describe every encoding the solver makes.
        for kind in BackendKind::ALL {
            for precision in Precision::all() {
                let config = SolverConfig::default()
                    .with_backend(kind)
                    .with_precision(precision);
                let (s, mut r) = solver(43, config);
                let panels: Vec<Panel> = (0..7).map(|_| Panel::random(&mut r)).collect();
                let f32_rows: Vec<Hypervector> =
                    panels.iter().map(|p| s.encode_panel_f32(p)).collect();
                let dense = HvMatrix::from_rows(&f32_rows).unwrap();
                let expected = BitMatrix::from_matrix(&dense).expect("encodings are bipolar");
                let mut bits = BitMatrix::default();
                s.encode_panels_bits_into(&panels, &mut EncodeScratch::default(), &mut bits)
                    .unwrap();
                assert_eq!(bits, expected, "{kind}/{precision}");
                assert_eq!(
                    s.encode_panels(&panels).unwrap(),
                    dense,
                    "{kind}/{precision}"
                );
            }
        }
    }

    #[test]
    fn malformed_problems_are_rejected_with_typed_errors_before_any_rng_draw() {
        use cogsys_datasets::ProblemGenerator;
        use rand::RngCore;
        let (s, mut r) = solver(50, SolverConfig::default());
        let generator = ProblemGenerator::new(DatasetKind::Raven);
        let mut problems = generator.generate_batch(3, &mut r);
        problems[1].context.pop();

        let mut probe = r.clone();
        let err = s.solve_batch(&problems, &mut r).unwrap_err();
        match err {
            SolveError::Malformed { problem: 1, fault } => {
                assert!(matches!(
                    fault,
                    ProblemFault::WrongPanelCount { got: 7, .. }
                ))
            }
            other => panic!("expected Malformed {{ problem: 1 }}, got {other:?}"),
        }
        // Rejection happened before any rng draw: the generator state is untouched,
        // so solving the valid remainder equals solving it outright.
        assert_eq!(r.next_u64(), probe.next_u64());

        // Every corruption kind maps to a typed fault, problem index intact.
        let mut r2 = rng(51);
        for _ in 0..40 {
            let bad = generator.generate_malformed(&mut r2);
            let err = s
                .solve_batch(std::slice::from_ref(&bad), &mut r2)
                .unwrap_err();
            assert!(
                matches!(err, SolveError::Malformed { problem: 0, .. }),
                "unexpected error {err:?}"
            );
            assert_eq!(err.problem_index(), Some(0));
        }
    }

    #[test]
    fn excising_the_poisoned_problem_reproduces_the_clean_batch() {
        // The serve-layer retry contract: validation consumes no rng, so dropping
        // the malformed problem and re-running with the same seed is bitwise the
        // same as never having submitted it.
        use cogsys_datasets::ProblemGenerator;
        let (s, mut r) = solver(52, SolverConfig::default());
        let clean = ProblemGenerator::new(DatasetKind::Raven).generate_batch(4, &mut r);
        let mut poisoned = clean.clone();
        poisoned.insert(
            2,
            ProblemGenerator::new(DatasetKind::Raven).generate_malformed(&mut rng(53)),
        );

        let mut scratch = SolverScratch::default();
        let mut r1 = r.clone();
        let err = s
            .solve_batch_with(&poisoned, &mut r1, &mut scratch)
            .unwrap_err();
        let victim = err.problem_index().expect("typed poison index");
        poisoned.remove(victim);
        let retried = s
            .solve_batch_with(&poisoned, &mut r1, &mut scratch)
            .unwrap();
        let retried_choices = scratch.choices().to_vec();

        let mut r2 = r.clone();
        let direct = s.solve_batch_with(&clean, &mut r2, &mut scratch).unwrap();
        assert_eq!(retried, direct);
        assert_eq!(retried_choices, scratch.choices());
    }

    #[test]
    fn try_new_rejects_invalid_configurations() {
        let mut r = rng(54);
        for config in [
            SolverConfig {
                vector_dim: 0,
                ..SolverConfig::default()
            },
            SolverConfig {
                perception_noise: -0.1,
                ..SolverConfig::default()
            },
            SolverConfig {
                encoding_noise: f64::NAN,
                ..SolverConfig::default()
            },
            SolverConfig {
                factorizer: FactorizerConfig::default().with_max_iterations(0),
                ..SolverConfig::default()
            },
        ] {
            let err = NeurosymbolicSolver::try_new(config, &mut r).unwrap_err();
            assert!(matches!(err, SolveError::Config { .. }), "{err:?}");
        }
        assert!(NeurosymbolicSolver::try_new(SolverConfig::default(), &mut r).is_ok());
    }

    #[test]
    fn iteration_capped_solver_shares_codebooks_and_still_answers() {
        // The degradation knob: a capped clone must produce in-range answers from
        // the same codebooks, and at the full cap it is the identical engine.
        use cogsys_datasets::ProblemGenerator;
        let (s, mut r) = solver(55, SolverConfig::default());
        let problems = ProblemGenerator::new(DatasetKind::Raven).generate_batch(2, &mut r);

        let full_cap = s.with_iteration_cap(s.config().factorizer.max_iterations);
        let mut r1 = r.clone();
        let mut r2 = r.clone();
        let mut scratch = SolverScratch::default();
        let a = s
            .solve_batch_with(&problems, &mut r1, &mut scratch)
            .unwrap();
        let a_choices = scratch.choices().to_vec();
        let b = full_cap
            .solve_batch_with(&problems, &mut r2, &mut scratch)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a_choices, scratch.choices());

        let coarse = s.with_iteration_cap(1);
        assert_eq!(coarse.config().factorizer.max_iterations, 1);
        // The full solver has compiled this shape; the capped clone must not
        // reuse that plan, since `PlanKey` does not carry the iteration cap.
        assert!(s.plan_for_batch(2).describe().contains("iters=200"));
        assert!(
            coarse.plan_for_batch(2).describe().contains("iters=1\n"),
            "{}",
            coarse.plan_for_batch(2).describe()
        );
        let mut r3 = r.clone();
        let report = coarse
            .solve_batch_with(&problems, &mut r3, &mut scratch)
            .unwrap();
        assert_eq!(report.problems, 2);
        // One resonator step per block per panel, plus nothing else.
        assert!(report.factorizer_iterations <= 2 * 2 * 8);
        for &c in scratch.choices() {
            assert!(c < problems[0].candidates.len());
        }
    }

    #[test]
    fn large_vocab_solver_indexed_cleanup_is_decision_identical() {
        // A 600-value vocabulary pushes every attribute codebook past
        // CLEANUP_INDEX_MIN_ROWS, so the whole decode path (resonator cleanups +
        // polish sweep + answer scoring) runs through the pruned cleanup index.
        // The index is exact: disabling it must change nothing — same choices,
        // same report, same rng consumption.
        let vocab = AttributeVocab::uniform(600);
        let config = SolverConfig {
            vector_dim: 512,
            perception_noise: 0.05, // exercise the vocab-wide perturbation draws
            factorizer: FactorizerConfig::default().with_max_iterations(8),
            vocab,
            ..SolverConfig::default()
        };
        let (indexed, mut r) = solver(60, config);
        assert!(
            indexed
                .codebooks()
                .factor(0)
                .unwrap()
                .cleanup_index()
                .is_some(),
            "600-row codebooks must carry a cleanup index"
        );
        let mut linear = indexed.clone();
        linear.disable_cleanup_index();
        assert!(linear
            .codebooks()
            .factor(0)
            .unwrap()
            .cleanup_index()
            .is_none());

        let problems =
            ProblemGenerator::with_vocab(DatasetKind::Raven, vocab).generate_batch(3, &mut r);
        for p in &problems {
            assert!(p.verify_answer_with(vocab));
        }
        // A RAVEN-vocab solver must reject these out-of-range values outright.
        let (raven, mut r0) = solver(61, SolverConfig::default());
        assert!(matches!(
            raven.solve_batch(&problems, &mut r0),
            Err(SolveError::Malformed { .. })
        ));

        let mut r1 = r.clone();
        let mut r2 = r.clone();
        let mut scratch1 = SolverScratch::default();
        let mut scratch2 = SolverScratch::default();
        let report_indexed = indexed
            .solve_batch_with(&problems, &mut r1, &mut scratch1)
            .unwrap();
        let report_linear = linear
            .solve_batch_with(&problems, &mut r2, &mut scratch2)
            .unwrap();
        assert_eq!(report_indexed, report_linear);
        assert_eq!(scratch1.choices(), scratch2.choices());
        assert_eq!(r1.next_u64(), r2.next_u64(), "rng streams diverge");
        assert_eq!(report_indexed.problems, 3);
    }

    #[test]
    fn codebooks_are_exposed_for_memory_accounting() {
        let (s, _) = solver(7, SolverConfig::default());
        assert_eq!(s.codebooks().num_factors(), 5);
        assert_eq!(s.codebooks().dim(), 2048);
        assert_eq!(s.config().vector_dim, 2048);
        // Factored codebooks are tiny compared to the expanded product space.
        assert!(s.codebooks().footprint_bytes(4) < s.codebooks().product_footprint_bytes(4) / 50);
    }

    mod plan_exec {
        use super::*;
        use crate::plan::PlanCacheStats;
        use proptest::prelude::*;

        #[test]
        fn plan_cache_reuses_compiled_plans() {
            let (s, mut r) = solver(70, SolverConfig::default());
            assert_eq!(s.plan_cache_stats(), PlanCacheStats::default());
            let p1 = s.plan_for_batch(4);
            let p2 = s.plan_for_batch(4);
            assert!(Arc::ptr_eq(&p1, &p2), "same key must reuse the same plan");
            assert_eq!(s.plan_cache_stats(), PlanCacheStats { hits: 1, misses: 1 });
            let p3 = s.plan_for_batch(8);
            assert!(!Arc::ptr_eq(&p1, &p3));
            assert_eq!(s.plan_cache_stats(), PlanCacheStats { hits: 1, misses: 2 });

            // The plain solve entry point goes through the same cache.
            let problems = ProblemGenerator::new(DatasetKind::Raven).generate_batch(4, &mut r);
            s.solve_batch(&problems, &mut r).unwrap();
            assert_eq!(s.plan_cache_stats(), PlanCacheStats { hits: 2, misses: 2 });

            // The default 2048-dim packed solver takes the whole batch in one chunk.
            assert_eq!(p1.chunk_problems, 4);

            // Clones start with a cold cache (a capped clone compiles other plans).
            let cloned = s.clone();
            assert_eq!(cloned.plan_cache_stats(), PlanCacheStats::default());

            // Plans capture no cleanup state, so disabling the index keeps them.
            let mut demoted = s.clone();
            let before = demoted.plan_for_batch(4);
            demoted.disable_cleanup_index();
            assert!(Arc::ptr_eq(&before, &demoted.plan_for_batch(4)));
        }

        #[test]
        fn plan_resolves_chunk_for_dim() {
            // Every packed dim, word-aligned or with a padded tail word, decodes on
            // the packed resonator with the whole batch in one chunk.
            for dim in [1000, 1024, 2048, 4096] {
                let config = SolverConfig {
                    vector_dim: dim,
                    ..SolverConfig::default()
                };
                let (s, _) = solver(74, config);
                let plan = s.plan_for_batch(8);
                assert_eq!(plan.chunk_problems, 8, "dim {dim}");
            }
            // The f32 resonator folds DENSE_SERVE_CHUNK in as the chunk width instead.
            let dense = SolverConfig::default().with_backend(BackendKind::Parallel);
            let (s, _) = solver(74, dense);
            let plan = s.plan_for_batch(8);
            assert_eq!(plan.chunk_problems, NeurosymbolicSolver::DENSE_SERVE_CHUNK);
        }

        #[test]
        fn mismatched_plan_is_rejected_before_any_rng_draw() {
            let (a, _) = solver(72, SolverConfig::default());
            let narrow = SolverConfig {
                vector_dim: 1024,
                ..SolverConfig::default()
            };
            let (b, mut r) = solver(73, narrow);
            let problems = ProblemGenerator::new(DatasetKind::Raven).generate_batch(2, &mut r);
            let plan = a.compile_plan(2, true);
            let mut probe = r.clone();
            let err = b
                .solve_batch_with_plan_timed(
                    &plan,
                    &problems,
                    &mut r,
                    &mut SolverScratch::default(),
                    &mut StageNanos::default(),
                )
                .unwrap_err();
            assert!(matches!(err, SolveError::Config { .. }), "{err:?}");
            assert_eq!(
                r.next_u64(),
                probe.next_u64(),
                "rejection must consume no rng"
            );
        }

        #[test]
        fn planned_path_is_chunk_invariant_across_plan_batch_sizes() {
            // A plan compiled at serve chunk formation (say 64 problems) must serve
            // any submitted batch size with unchanged decisions — whole-batch on the
            // packed resonator and sub-chunked on the f32 resonator alike.
            for kind in [BackendKind::Packed, BackendKind::Parallel] {
                let (s, mut r) = solver(71, SolverConfig::default().with_backend(kind));
                let problems = ProblemGenerator::new(DatasetKind::Raven).generate_batch(6, &mut r);
                let mut r1 = r.clone();
                let mut r2 = r.clone();

                let plan64 = s.compile_plan(64, true);
                let mut sc1 = SolverScratch::default();
                let whole = s
                    .solve_batch_with_plan_timed(
                        &plan64,
                        &problems,
                        &mut r1,
                        &mut sc1,
                        &mut StageNanos::default(),
                    )
                    .unwrap();
                let whole_choices = sc1.choices().to_vec();

                let plan2 = s.compile_plan(2, true);
                let mut chunked = SolverReport::default();
                let mut chunked_choices = Vec::new();
                let mut sc2 = SolverScratch::default();
                for chunk in problems.chunks(2) {
                    let rep = s
                        .solve_batch_with_plan_timed(
                            &plan2,
                            chunk,
                            &mut r2,
                            &mut sc2,
                            &mut StageNanos::default(),
                        )
                        .unwrap();
                    chunked_choices.extend_from_slice(sc2.choices());
                    chunked.merge(&rep);
                }
                assert_eq!(whole, chunked, "{kind}: reports diverge");
                assert_eq!(whole_choices, chunked_choices, "{kind}: choices diverge");
                assert_eq!(r1.next_u64(), r2.next_u64(), "{kind}: rng streams diverge");
            }
        }

        #[test]
        fn timed_execution_is_decision_identical_and_accounts_all_stages() {
            let (s, mut r) = solver(75, SolverConfig::default());
            let problems = ProblemGenerator::new(DatasetKind::Raven).generate_batch(3, &mut r);
            let plan = s.plan_for_batch(problems.len());
            let mut r1 = r.clone();
            let mut r2 = r.clone();
            let mut sc1 = SolverScratch::default();
            let mut sc2 = SolverScratch::default();
            let mut stages = StageNanos::default();
            let timed = s
                .solve_batch_with_plan_timed(&plan, &problems, &mut r1, &mut sc1, &mut stages)
                .unwrap();
            let untimed = s.solve_batch_with(&problems, &mut r2, &mut sc2).unwrap();
            assert_eq!(timed, untimed);
            assert_eq!(sc1.choices(), sc2.choices());
            assert_eq!(r1.next_u64(), r2.next_u64());
            assert!(stages.encode > 0 && stages.decode > 0 && stages.score > 0);
            assert_eq!(stages.total(), stages.encode + stages.decode + stages.score);
        }

        #[test]
        fn planned_serving_scratch_never_reallocates_after_the_first_chunk() {
            // Steady-state serving must stay allocation-free: the planned
            // executor pre-sizes the factorizer scratch from the plan key on
            // entry, so every capacity the packed resonator (and its fused
            // kernel) touches is final after the first chunk. The
            // fingerprint is the full ordered capacity vector of the packed
            // scratch — any buffer regrowing across chunks changes it.
            let (s, mut r) = solver(76, SolverConfig::default());
            let problems = ProblemGenerator::new(DatasetKind::Raven).generate_batch(10, &mut r);
            let plan = s.plan_for_batch(4);
            let mut scratch = SolverScratch::default();
            // Serve an under-full chunk first: the presize keys on the *plan's*
            // chunk width, so even this 2-problem call must leave every buffer
            // at full 4-problem capacity — if sizing instead trailed the
            // submitted batch, the full chunks below would regrow the scratch
            // and change the fingerprint.
            let mut timings = StageNanos::default();
            s.solve_batch_with_plan_timed(
                &plan,
                &problems[..2],
                &mut r,
                &mut scratch,
                &mut timings,
            )
            .unwrap();
            let fingerprint = scratch.factorizer_capacity_fingerprint();
            assert!(
                fingerprint.iter().any(|&c| c > 0),
                "presize must have reserved the packed scratch"
            );
            for chunk in problems[2..].chunks(4) {
                s.solve_batch_with_plan_timed(&plan, chunk, &mut r, &mut scratch, &mut timings)
                    .unwrap();
                assert_eq!(
                    scratch.factorizer_capacity_fingerprint(),
                    fingerprint,
                    "steady-state serving reallocated factorizer scratch"
                );
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]

            // Planned execution equals the sequential per-problem path — choices,
            // reports, final rng state — across all three backends × pow2/non-pow2
            // dims.
            #[test]
            fn prop_planned_execution_is_decision_identical(seed in 0u64..500) {
                for kind in BackendKind::ALL {
                    for dim in [256usize, 320] {
                        let config = SolverConfig {
                            vector_dim: dim,
                            perception_noise: 0.05,
                            factorizer: FactorizerConfig::default().with_max_iterations(6),
                            ..SolverConfig::default()
                        }
                        .with_backend(kind);
                        let (s, mut r1) = solver(seed, config);
                        let problems =
                            ProblemGenerator::new(DatasetKind::Raven).generate_batch(3, &mut r1);
                        let mut r2 = r1.clone();

                        let plan = s.compile_plan(problems.len(), true);
                        let mut sc = SolverScratch::default();
                        let planned = s
                            .solve_batch_with_plan_timed(
                                &plan,
                                &problems,
                                &mut r1,
                                &mut sc,
                                &mut StageNanos::default(),
                            )
                            .unwrap();

                        let (seq_choices, sequential) =
                            solve_sequentially(&s, &problems, &mut r2);

                        prop_assert_eq!(planned, sequential);
                        prop_assert_eq!(sc.choices(), &seq_choices[..]);
                        prop_assert_eq!(r1.next_u64(), r2.next_u64());
                    }
                }
            }
        }
    }
}
