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
use cogsys_datasets::{Attribute, AttributeVocab, DatasetKind, Panel, Problem, Rule, RuleKind};
use cogsys_factorizer::{FactorizationResult, Factorizer, FactorizerConfig, FactorizerScratch};
use cogsys_vsa::batch::{BackendKind, HvMatrix, VsaBackend};
use cogsys_vsa::codebook::{BindingOp, CodebookSet, ProductCodebook};
use cogsys_vsa::packed::{BitMatrix, CleanupScratch};
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
    /// neural-to-symbolic interface): each dimension of each context scene flips
    /// independently with this probability. The flips are sampled per problem by
    /// geometric gaps over its scenes' dimensions, one draw per flip rather than
    /// one per dimension.
    pub encoding_noise: f64,
    /// The resonator engine: [`BackendKind::Packed`] runs the sign-plane resonator,
    /// [`BackendKind::Reference`] the `f32` reference resonator, one query at a
    /// time. Encoding, polish, the product-plane rescue and answer scoring run on
    /// sign planes on either backend.
    pub backend: BackendKind,
    /// Attribute vocabulary the solver's codebooks cover. Defaults to the RAVEN
    /// cardinalities; enlarged vocabularies (e.g. [`AttributeVocab::uniform`] with
    /// 10^4+ values) scale the per-attribute codebooks, and with them every
    /// linear cleanup scan, from 10 rows to tens of thousands.
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
            backend: BackendKind::default(),
            vocab: AttributeVocab::raven(),
        }
    }
}

impl SolverConfig {
    /// Returns a copy running the whole pipeline at the given precision. Encode,
    /// polish and score run on sign planes, which every precision maps exactly, so
    /// the precision is the factorizer's.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.factorizer = self.factorizer.with_precision(precision);
        self
    }

    /// Returns a copy whose resonator runs on the given backend (see
    /// [`SolverConfig::backend`]).
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
    /// The capped decodes of rescue blocks (a subset of `rows_capped`): rows the
    /// one-sweep resonator left unconverged, decoded by the product-plane scan.
    #[serde(default)]
    pub rows_rescued: usize,
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
        self.rows_rescued += other.rows_rescued;
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
/// calls it is passed to. The three groups mirror the [`crate::plan::PlanStage`] IR
/// at the granularity `cogsys-serve`'s per-stage `ServiceModel` fit consumes: encode
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
    /// Codebook and product-plane search scratch and results.
    search: CleanupScratch,
    best: Vec<(usize, f32)>,
    gather_idx: Vec<usize>,
    unbound_bits: BitMatrix,
    est_bits: BitMatrix,
}

/// Reusable scratch of the cross-problem batched solving engine
/// ([`NeurosymbolicSolver::solve_batch_with`]): every matrix, sign plane, stream and
/// bookkeeping vector of the encode → factorize → score pipeline lives here and is
/// reshaped in place, so a steady-state serving loop performs no allocation beyond
/// the factorizer's per-row results. Each fact is held once: the predictor reads
/// the decoded rows where the decode wrote them, and the candidates are encoded
/// straight from the problems.
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
    /// occupies `8q·blocks ..` with its blocks consecutive (rows inner).
    seeds: Vec<u64>,
    encoded: BitMatrix,
    /// Decoded attribute values, one row per context panel; problem `q`'s eight
    /// rows start at `8q`. The predictor and the exact-panel count read them here.
    values: Vec<[usize; 5]>,
    predicted: Vec<Panel>,
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
}

/// Largest product space (rows of the XOR-composed product planes) an attribute
/// block may have to take the rescue route: one resonator sweep, then an exact
/// product-plane scan of the rows that sweep leaves unconverged.
///
/// Set from the `product_scan_405` / `product_scan_60` and `factorize_sweep_405`
/// cells of `BENCH_backends.json` (512 scene rows, 2-vCPU AVX-512 VM). Per scene
/// row, the scan costs 0.34 µs over 60 products and 2.10 µs over 405 at d=2048
/// (0.73 and 3.74 µs at d=4096), about 5–12 ns per product row, while one 9×9×5
/// resonator sweep costs 8.2 µs (12.9 µs). Scanning a row therefore costs less
/// than one more sweep of it up to ~1,400–1,600 products at either dimension
/// (~900–1,900 over seven sweep runs); 512 is the largest power of two under all
/// of them. Both RAVEN blocks (405 and 60 products) are under it, a 600-value
/// vocabulary's 360,000-product block is not.
const RESCUE_PRODUCT_ROW_LIMIT: usize = 512;

/// Resonator sweeps a rescue block runs before its unconverged rows are scanned.
const RESCUE_SWEEPS: usize = 1;

/// How an attribute block is decoded, chosen once at construction (see
/// [`NeurosymbolicSolver::decode_block_into`]).
#[derive(Debug, Clone)]
enum BlockRoute {
    /// One resonator sweep, then a product-plane scan of the unconverged rows.
    Rescue {
        sweep: Factorizer,
        product: Arc<ProductCodebook>,
    },
    /// The resonator up to the iteration cap, then one polish sweep.
    Polish { factorizer: Factorizer },
}

/// One attribute block of the scene encoding: its codebooks, the attributes
/// they cover (indices into [`Attribute::ALL`]) and its decode route.
#[derive(Debug, Clone)]
struct AttributeBlock {
    set: CodebookSet,
    attrs: &'static [usize],
    route: BlockRoute,
}

impl AttributeBlock {
    /// The factorizer the block's resonator runs with.
    fn factorizer(&self) -> &Factorizer {
        match &self.route {
            BlockRoute::Rescue { sweep, .. } => sweep,
            BlockRoute::Polish { factorizer } => factorizer,
        }
    }
}

/// A count or index narrowed to a [`ProblemFault`] field, saturating at the
/// field type's `max`.
fn saturate<T: TryFrom<usize>>(n: usize, max: T) -> T {
    T::try_from(n).unwrap_or(max)
}

/// Writes decoded indices into the `attrs` slots of one row of values, each
/// clamped to its attribute's cardinality, the bound of every later lookup.
fn store(vocab: AttributeVocab, attrs: &[usize], indices: &[usize], row: &mut [usize; 5]) {
    for (&attr, &index) in attrs.iter().zip(indices) {
        row[attr] = index.min(vocab.cardinality(Attribute::ALL[attr]) - 1);
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
///
/// A block whose product space has at most `RESCUE_PRODUCT_ROW_LIMIT` rows (both
/// RAVEN blocks: 9×9×5 = 405 and 6×10 = 60) runs the resonator for one sweep,
/// and the rows that sweep leaves unconverged are decoded exactly by one scan of
/// the block's product planes. Larger blocks run the full iteration budget plus
/// the polish sweep.
#[derive(Debug, Clone)]
pub struct NeurosymbolicSolver {
    config: SolverConfig,
    codebooks: CodebookSet,
    blocks: Vec<AttributeBlock>,
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
                message: "vector_dim must be > 0".into(),
            });
        }
        for (name, p) in [
            ("perception_noise", config.perception_noise),
            ("encoding_noise", config.encoding_noise),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(SolveError::Config {
                    message: format!("{name} must be a probability in [0, 1], got {p}").into(),
                });
            }
        }
        config
            .factorizer
            .validate()
            .map_err(|message| SolveError::Config {
                message: message.into(),
            })?;
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
        // One shared backend instance serves every block factorizer and `backend()`.
        let backend = config.backend.create();
        let blocks = Self::BLOCKS
            .iter()
            .map(|&attrs| {
                let members = attrs
                    .iter()
                    .map(|&i| attribute_codebooks[i].clone())
                    .collect();
                let set = CodebookSet::new(members, BindingOp::Hadamard)?;
                let cap = config.factorizer.max_iterations;
                let route = if set.combinations() <= RESCUE_PRODUCT_ROW_LIMIT {
                    BlockRoute::Rescue {
                        sweep: Self::block_factorizer(&config, RESCUE_SWEEPS, &backend),
                        product: Arc::new(ProductCodebook::expand(&set)?),
                    }
                } else {
                    BlockRoute::Polish {
                        factorizer: Self::block_factorizer(&config, cap, &backend),
                    }
                };
                Ok(AttributeBlock { set, attrs, route })
            })
            .collect::<Result<Vec<_>, VsaError>>()?;
        Ok(Self {
            config,
            codebooks,
            blocks,
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
    /// one resonator step plus the coordinate-descent polish sweep). The cap binds
    /// only blocks on the polish route: a rescue block already runs one sweep, and
    /// the clone shares its product planes instead of rebuilding them.
    pub fn with_iteration_cap(&self, max_iterations: usize) -> Self {
        let mut degraded = self.clone();
        let cap = max_iterations.max(1);
        degraded.config.factorizer.max_iterations = cap;
        for block in &mut degraded.blocks {
            if let BlockRoute::Polish { factorizer } = &mut block.route {
                *factorizer = Self::block_factorizer(&degraded.config, cap, &degraded.backend);
            }
        }
        degraded
    }

    /// A block factorizer running `max_iterations`, derived from `config` in one
    /// place. It decodes *blocks* of the scene superposition, so it runs with the
    /// per-block convergence threshold (`min` keeps a deliberately lower configured
    /// threshold in charge; it never tightens past the block plateau). The solver's
    /// backend is pinned onto it, so its resonator engine follows the solver's
    /// backend alone.
    fn block_factorizer(
        config: &SolverConfig,
        max_iterations: usize,
        backend: &Arc<dyn VsaBackend>,
    ) -> Factorizer {
        let factorizer_config = FactorizerConfig {
            convergence_threshold: Self::block_convergence_threshold(Self::BLOCKS.len())
                .min(config.factorizer.convergence_threshold),
            max_iterations,
            ..config.factorizer.clone()
        }
        .with_backend(config.backend);
        Factorizer::with_backend(factorizer_config, Arc::clone(backend))
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
                expected: saturate(Self::CONTEXT_PANELS, u32::MAX),
                got: problem.context.len(),
            });
        }
        if problem.candidates.is_empty() {
            return Err(ProblemFault::NoCandidates);
        }
        if problem.answer_index >= problem.candidates.len() {
            return Err(ProblemFault::AnswerOutOfRange {
                answer: problem.answer_index,
                candidates: saturate(problem.candidates.len(), u32::MAX),
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
                        panel: saturate(panel, u32::MAX),
                        attribute: saturate(attr.index(), u8::MAX),
                        value: saturate(value, u16::MAX),
                        cardinality: saturate(vocab.cardinality(attr), u16::MAX),
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
                    fault: Box::new(fault),
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

    /// The backend this solver's factorizers pick their resonator engine by.
    pub fn backend(&self) -> &Arc<dyn VsaBackend> {
        &self.backend
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

    /// Compiles a [`SolvePlan`] for a `batch`-problem solve call: the stage IR,
    /// resolved once, up front. The plan decides nothing: every backend solves
    /// the whole call in one pass, and the stages only describe that pass for
    /// `--explain` and the adSCH schedule. They state each block's route, which
    /// construction fixed: a rescue block compiles to `Resonate { iterations: 1 }`
    /// then `Rescue`, a polish block to `Resonate` at the iteration cap then
    /// `Polish`.
    ///
    /// `_specialize` has no effect: every packed operation has exactly one
    /// kernel, so there is nothing to specialize. The parameter is kept only so
    /// the frozen benchmark's `compile_plan(batch, bool)` call site still
    /// compiles.
    pub fn compile_plan(&self, batch: usize, _specialize: bool) -> SolvePlan {
        let rows = batch * Self::CONTEXT_PANELS;
        let mut stages = Vec::with_capacity(2 * self.blocks.len() + 3);
        stages.push(PlanStage::Encode {
            rows,
            factors: self.blocks.iter().map(|b| b.set.num_factors()).sum(),
        });
        for (b, block) in self.blocks.iter().enumerate() {
            let set = &block.set;
            stages.push(PlanStage::Resonate {
                block: b,
                rows,
                factors: set.num_factors(),
                codebook_rows: set.codebooks().iter().map(|cb| cb.len()).collect(),
                iterations: block.factorizer().config().max_iterations,
            });
            stages.push(match &block.route {
                BlockRoute::Rescue { product, .. } => PlanStage::Rescue {
                    block: b,
                    rows,
                    products: product.len(),
                },
                BlockRoute::Polish { .. } => PlanStage::Polish {
                    block: b,
                    rows,
                    factors: set.num_factors(),
                },
            });
        }
        stages.push(PlanStage::Predict { problems: batch });
        stages.push(PlanStage::Score { problems: batch });
        SolvePlan {
            key: self.plan_key(batch),
            stages,
        }
    }

    /// The cached plan for a `batch`-problem call, compiling on first use. Same shape →
    /// same `Arc`. Only explicit calls (`--explain`, the schedule reports) look
    /// plans up; no solve call does.
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
        self.encode_panels_bits_into(panels.iter(), &mut EncodeScratch::default(), &mut bits)?;
        Ok(bits.to_matrix())
    }

    /// The scene encode: block products are XOR-composed straight from the cached
    /// codebook sign planes (bipolar Hadamard binding is exactly XOR) and the two
    /// blocks are superposed with one word-wise AND ([`BitMatrix::and_assign`]),
    /// which is the sign threshold of their sum with ties to `+1`. No f32 row and
    /// no pack call is involved. `panels` is walked once per attribute, so any
    /// cloneable iterator serves, e.g. every problem's candidates in turn.
    fn encode_panels_bits_into<'p>(
        &self,
        panels: impl Iterator<Item = &'p Panel> + Clone,
        enc: &mut EncodeScratch,
        out: &mut BitMatrix,
    ) -> Result<(), VsaError> {
        debug_assert_eq!(
            self.blocks.len(),
            2,
            "sign(a + b) is a word-wise AND only for two blocks"
        );
        let EncodeScratch { idx, block_bits } = enc;
        out.ensure_shape(panels.clone().count(), self.config.vector_dim);
        for (block_index, AttributeBlock { set, attrs, .. }) in self.blocks.iter().enumerate() {
            let dst: &mut BitMatrix = if block_index == 0 { out } else { block_bits };
            for (f, &attr) in attrs.iter().enumerate() {
                idx.clear();
                idx.extend(panels.clone().map(|p| p.values()[attr]));
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

    /// Decodes every row of the encoded scene batch against `block` and writes
    /// the block's decoded attribute values into `values` (row-indexed). Returns a
    /// report holding only the block's factorizer iterations and row outcomes.
    ///
    /// The route is the block's, fixed at construction (see
    /// [`NeurosymbolicSolver::compile_plan`]):
    ///
    /// * **rescue**: the resonator runs one sweep, and every row it leaves
    ///   unconverged is decoded by one batch scan of the product planes
    ///   ([`ProductCodebook::search_batch_bits_into`]). The scan returns the
    ///   exact argmax over the product space, which is a fixed point of the
    ///   polish sweep up to tie order, so no polish runs. The scan draws no
    ///   noise, so the row streams see only the sweep's draws;
    /// * **polish**: the resonator runs up to the iteration cap, then one
    ///   coordinate-descent polish sweep repairs single-attribute decode errors
    ///   with the same unbind→search primitive the factorizer iterates: per
    ///   factor, the other factors' decoded codevector planes are XOR-unbound
    ///   from the scene (bipolar Hadamard unbinding is exactly XOR) and the
    ///   result goes through the codebook search
    ///   ([`cogsys_vsa::Codebook::cleanup_batch_bits_into`]).
    fn decode_block_into(
        &self,
        block: &AttributeBlock,
        scenes: &BitMatrix,
        streams: &mut [StdRng],
        ds: &mut DecodeScratch,
        values: &mut [[usize; 5]],
    ) -> Result<SolverReport, VsaError> {
        let DecodeScratch {
            factorizer,
            search,
            best,
            gather_idx,
            unbound_bits,
            est_bits,
        } = ds;
        let (set, attrs, vocab) = (&block.set, block.attrs, self.config.vocab);
        let results = block
            .factorizer()
            .factorize_matrix_bits_scratch(set, scenes, streams, factorizer)?;
        let mut report = SolverReport::default();
        report.record_block(&results);
        for (row, result) in values.iter_mut().zip(&results) {
            store(vocab, attrs, &result.indices, row);
        }

        match &block.route {
            BlockRoute::Rescue { product, .. } => {
                gather_idx.clear();
                gather_idx.extend((0..results.len()).filter(|&row| !results[row].converged));
                if !gather_idx.is_empty() {
                    scenes.gather_into(gather_idx, unbound_bits)?;
                    product.search_batch_bits_into(unbound_bits, search, best)?;
                    let tuple = &mut [0usize; 5][..attrs.len()];
                    for (&row, &(product_row, _)) in gather_idx.iter().zip(best.iter()) {
                        product.factor_indices_into(product_row, tuple);
                        store(vocab, attrs, tuple, &mut values[row]);
                    }
                }
                report.rows_rescued = gather_idx.len();
            }
            BlockRoute::Polish { .. } => {
                for f in 0..set.num_factors() {
                    unbound_bits.copy_from(scenes);
                    for g in (0..set.num_factors()).filter(|&g| g != f) {
                        gather_idx.clear();
                        gather_idx.extend(values.iter().map(|row| row[attrs[g]]));
                        set.factor(g)?
                            .packed()
                            .ok_or(VsaError::Unsupported {
                                what: "polish requires cached codebook sign planes",
                            })?
                            .gather_into(gather_idx, est_bits)?;
                        unbound_bits.xor_assign(est_bits)?;
                    }
                    set.factor(f)?
                        .cleanup_batch_bits_into(unbound_bits, search, best)?;
                    for (row, &(index, _)) in values.iter_mut().zip(best.iter()) {
                        store(vocab, &attrs[f..=f], &[index], row);
                    }
                }
            }
        }
        Ok(report)
    }

    /// Abduces the rule governing one attribute from the two complete rows and executes
    /// it on the incomplete row, returning the predicted attribute value.
    ///
    /// Every rule of the dataset's pool (Progression once with step 1, then with
    /// step 2) is scored by how many complete rows it satisfies, and the first
    /// best-scoring rule completes the incomplete row. Distribute-Three is abduced
    /// from the rows' value sets instead, because its generating triple cannot be
    /// read off decoded rows.
    fn abduce_and_execute(
        dataset: DatasetKind,
        vocab: AttributeVocab,
        attribute: Attribute,
        rows: &[[usize; 3]; 2],
        last_row: (usize, usize),
    ) -> usize {
        let mut best: Option<(usize, usize)> = None; // (score, predicted value)
        let mut consider = |score: usize, predicted: usize| {
            if best.is_none_or(|(s, _)| score > s) {
                best = Some((score, predicted));
            }
        };

        for &kind in dataset.rule_pool() {
            if kind == RuleKind::DistributeThree {
                // Both rows must share the same 3-value set; the prediction is the
                // member of that set missing from the incomplete row.
                let mut s0 = rows[0];
                let mut s1 = rows[1];
                s0.sort_unstable();
                s1.sort_unstable();
                let coherent = s0 == s1 && s0[0] != s0[1] && s0[1] != s0[2];
                let predicted = s0
                    .into_iter()
                    .find(|v| *v != last_row.0 && *v != last_row.1)
                    .unwrap_or(last_row.1);
                consider(if coherent { 2 } else { 0 }, predicted);
                continue;
            }
            let parameters = if kind == RuleKind::Progression {
                1..=2
            } else {
                0..=0
            };
            for parameter in parameters {
                let rule = Rule {
                    attribute,
                    kind,
                    parameter,
                };
                let score = rows
                    .iter()
                    .filter(|r| rule.satisfied_with(vocab, r[0], r[1], r[2]))
                    .count();
                consider(
                    score,
                    rule.complete_row_with(vocab, last_row.0, last_row.1).2,
                );
            }
        }
        best.map(|(_, p)| p).unwrap_or(last_row.1)
    }

    /// Abduces every attribute's rule from one problem's decoded context rows
    /// (row-major, the eight visible cells) and executes it on the incomplete row,
    /// producing the predicted answer panel. Pure symbolic work.
    fn predict_panel(dataset: DatasetKind, vocab: AttributeVocab, ctx: &[[usize; 5]]) -> Panel {
        let mut predicted_values = [0usize; 5];
        for attr in Attribute::ALL {
            let a = attr.index();
            let rows = [
                [ctx[0][a], ctx[1][a], ctx[2][a]],
                [ctx[3][a], ctx[4][a], ctx[5][a]],
            ];
            let last_row = (ctx[6][a], ctx[7][a]);
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
    /// The call compiles and looks up no [`SolvePlan`]: every scratch buffer grows
    /// to the call's shape on first use and is never shrunk.
    ///
    /// Decision identity with solving one problem at a time is by construction:
    ///
    /// * every per-problem rng draw (perception noise, interface bit flips, the
    ///   factorizer stream seeds) is made **in the sequential order** and buffered,
    ///   so the generator state evolves exactly as if each problem were solved on
    ///   its own — which also makes the result independent of how a problem
    ///   stream is chunked into batches. The bit flips take one draw per flip
    ///   (plus at most one to end the problem): the gap to the next flip is
    ///   geometric over the problem's context rows × dimensions, read row-major;
    /// * encoding and factorization are row-independent batch kernels driven by those
    ///   per-query streams (the scene planes are XOR/AND-composed from cached
    ///   codebook planes, bitwise equal to an f32 encode at every precision);
    /// * batched answer scoring preserves decisions: candidate encodings are exactly
    ///   bipolar, so both the popcount cosine `(d − 2h)/d` and a per-candidate scalar
    ///   cosine are strictly increasing rounded functions of the same exact integer
    ///   dot product — equal agreements break ties identically.
    ///
    /// The whole call is one pass on every backend: the packed resonator steps
    /// all `8·N` rows at once, and the f32 reference resonator (the `Reference`
    /// backend) runs them one query at a time.
    ///
    /// # Errors
    /// Returns [`SolveError::Malformed`] naming the first invalid problem's index
    /// in `problems`. Validation happens **before any rng draw**, so a rejected
    /// call leaves the generator untouched: resubmitting the batch without the
    /// offender gets exactly the results that batch would have produced
    /// outright. Callers that validate up front
    /// ([`NeurosymbolicSolver::validate_problem_with`]) never see this error.
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
        self.execute_batch(problems, rng, scratch, None)
    }

    /// [`NeurosymbolicSolver::solve_batch_with`] accumulating per-stage wall-clock
    /// time into `timings` — the measurement hook behind the `plan_stage_*` bench
    /// cells and `cogsys-serve`'s per-stage service-time fit. The plan is only
    /// checked against the solver's shape, then the call solves exactly like
    /// [`NeurosymbolicSolver::solve_batch_with`]: timing is observation only and
    /// the plan decides nothing, so a plan compiled for one batch size is valid
    /// for any other, and decisions and rng consumption are the same.
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
        self.execute_batch(problems, rng, scratch, Some(timings))
    }

    /// Rejects a plan compiled for a different solver shape before any rng draw.
    fn check_plan(&self, plan: &SolvePlan) -> Result<(), SolveError> {
        let expected = self.plan_key(plan.key.batch);
        if plan.key != expected {
            return Err(SolveError::Config {
                message: format!(
                    "plan compiled for {:?}, solver shape is {:?}",
                    plan.key, expected
                )
                .into(),
            });
        }
        Ok(())
    }

    /// One pass of the engine over the whole of `problems`, appending to
    /// `scratch.choices`. Every stage runs on sign planes.
    ///
    /// `problems` must have passed `validate_problems`, so each carries exactly
    /// [`NeurosymbolicSolver::CONTEXT_PANELS`] rows: problem `q`'s panel rows start at
    /// `8q` and its stream seeds at `8q·blocks`, and no offset table is kept.
    fn execute_batch<R: Rng + ?Sized>(
        &self,
        problems: &[Problem],
        rng: &mut R,
        scratch: &mut SolverScratch,
        mut timings: Option<&mut StageNanos>,
    ) -> Result<SolverReport, SolveError> {
        let mut mark = Instant::now();
        let mut report = SolverReport::default();
        let SolverScratch {
            encode,
            decode,
            streams,
            perceived,
            flips,
            seeds,
            encoded,
            values,
            predicted,
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
        for problem in problems {
            let base = perceived.len();
            for panel in &problem.context {
                perceived.push(if self.config.perception_noise > 0.0 {
                    panel.perturbed_with(self.config.vocab, self.config.perception_noise, rng)
                } else {
                    *panel
                });
            }
            let rows_q = problem.context.len();
            sample_flips(rng, self.config.encoding_noise, rows_q * dim, |pos| {
                flips.push(((base + pos / dim) as u32, (pos % dim) as u32));
            });
            for _ in 0..num_blocks {
                for _ in 0..rows_q {
                    seeds.push(rng.next_u64());
                }
            }
        }
        let total_rows = perceived.len();

        // ---- Phase 2: one encode over every context panel of every problem, born
        // as sign planes; the interface noise is applied as bit flips.
        self.encode_panels_bits_into(perceived.iter(), encode, encoded)?;
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
        for (b, block) in self.blocks.iter().enumerate() {
            streams.clear();
            streams.extend(
                seeds
                    .chunks_exact(Self::CONTEXT_PANELS)
                    .skip(b)
                    .step_by(num_blocks)
                    .flatten()
                    .map(|&seed| StdRng::seed_from_u64(seed)),
            );
            report.merge(&self.decode_block_into(block, encoded, streams, decode, values)?);
        }
        if let Some(t) = timings.as_deref_mut() {
            let now = Instant::now();
            t.decode += now.duration_since(mark).as_nanos() as u64;
            mark = now;
        }

        // ---- Phase 4: per-problem abduction + prediction (pure symbolic work).
        predicted.clear();
        for (problem, ctx) in problems
            .iter()
            .zip(values.chunks_exact(Self::CONTEXT_PANELS))
        {
            report.panels_total += ctx.len();
            report.panels_exact += ctx
                .iter()
                .zip(&problem.context)
                .filter(|(estimate, panel)| **estimate == panel.values())
                .count();
            predicted.push(Self::predict_panel(problem.dataset, self.config.vocab, ctx));
        }

        // ---- Phase 5: batched answer selection. All predicted panels and all
        // candidates are encoded together, the candidates straight from each
        // problem in turn; the per-candidate similarity is one popcount row dot.
        self.encode_panels_bits_into(predicted.iter(), encode, pred_bits)?;
        let candidates = problems.iter().flat_map(|problem| &problem.candidates);
        self.encode_panels_bits_into(candidates, encode, cand_bits)?;
        let mut base = 0;
        for (q, problem) in problems.iter().enumerate() {
            let mut best = (0usize, 0usize, f32::NEG_INFINITY);
            for (i, candidate) in problem.candidates.iter().enumerate() {
                let agreement = Attribute::ALL.len() - predicted[q].distance(candidate);
                let sim = cand_bits.cosine_rows(base + i, pred_bits, q);
                if agreement > best.1 || (agreement == best.1 && sim > best.2) {
                    best = (i, agreement, sim);
                }
            }
            base += problem.candidates.len();
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

/// Draws one problem's interface bit flips: a Bernoulli(`p`) process over
/// `positions` positions (its context rows × dimensions, one row-major stream),
/// calling `flip` with each flipped position in increasing order.
///
/// Rather than one draw per position, it draws the gap to the next flip, which
/// is geometric: `floor(ln(1 − u) / ln(1 − p))` for a uniform `u` (Devroye,
/// *Non-Uniform Random Variate Generation*, 1986, ch. X). That is one draw per
/// flip, plus one for the gap that runs past the end unless the last position
/// flips. The gap is compared as an `f64` against the positions left, so a huge
/// gap (tiny `p`) ends the stream instead of overflowing. `p <= 0` (or NaN)
/// draws nothing; `p >= 1` flips every position.
fn sample_flips<R: Rng + ?Sized>(
    rng: &mut R,
    p: f64,
    positions: usize,
    mut flip: impl FnMut(usize),
) {
    if p.is_nan() || p <= 0.0 {
        return;
    }
    let ln_q = (-p.min(1.0)).ln_1p();
    let mut pos = 0usize;
    while pos < positions {
        let u: f64 = rng.gen();
        let skip = ((1.0 - u).ln() / ln_q).floor();
        if skip.is_nan() || skip >= (positions - pos) as f64 {
            return;
        }
        pos += skip as usize;
        flip(pos);
        pos += 1;
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
            for AttributeBlock { set, attrs, .. } in &self.blocks {
                let indices: Vec<usize> = attrs.iter().map(|&a| panel.values()[a]).collect();
                let product = set.bind_indices(&indices).expect("in-range panel values");
                for (slot, v) in scene.iter_mut().zip(product.values()) {
                    *slot += v;
                }
            }
            for v in &mut scene {
                *v = if *v < 0.0 { -1.0 } else { 1.0 };
            }
            fake_quantize_slice(&mut scene, self.config.factorizer.precision);
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
            let dim = encoded.dim();
            sample_flips(rng, self.config.encoding_noise, n * dim, |pos| {
                let v = &mut encoded.row_mut(pos / dim)[pos % dim];
                *v = -*v;
            });
            let bits = BitMatrix::from_matrix(&encoded).expect("encodings are bipolar");
            let mut ds = DecodeScratch::default();
            let mut values = vec![[0usize; 5]; n];
            let mut report = SolverReport::default();
            for block in &self.blocks {
                let mut streams: Vec<StdRng> = (0..n)
                    .map(|_| StdRng::seed_from_u64(rng.next_u64()))
                    .collect();
                report.merge(&self.decode_block_into(
                    block,
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
            let rows: Vec<[usize; 5]> = decoded.iter().map(Panel::values).collect();
            let predicted = Self::predict_panel(problem.dataset, self.config.vocab, &rows);
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

    /// A rescue block's one-sweep factorizer and product planes.
    fn rescue_route(block: &AttributeBlock) -> (&Factorizer, &Arc<ProductCodebook>) {
        match &block.route {
            BlockRoute::Rescue { sweep, product } => (sweep, product),
            BlockRoute::Polish { .. } => panic!("RAVEN blocks rescue"),
        }
    }

    /// Pearson's chi-square statistic of `observed` counts against `expected`.
    fn chi_square(observed: &[u64], expected: &[f64]) -> f64 {
        observed
            .iter()
            .zip(expected)
            .map(|(&o, &e)| (o as f64 - e).powi(2) / e)
            .sum()
    }

    #[test]
    fn flip_sampler_draws_the_bernoulli_process() {
        // 64 problem streams of 8 rows × 2048 dimensions: 2^20 positions per p.
        // Chi-square cut-offs sit near the 1e-4 tail of each distribution.
        const ROWS: usize = 8;
        const DIM: usize = 2048;
        const STREAMS: usize = 64;
        // Gap bins [0], [1], [2, 4), [4, 16), [16, 64), [64, ∞).
        const GAP_EDGES: [u64; 6] = [0, 1, 2, 4, 16, 64];
        let mut r = rng(24);
        for p in [0.005, 0.05] {
            let positions = ROWS * DIM;
            let n = (STREAMS * positions) as f64;
            let mut total = 0u64;
            let mut bit_offsets = [0u64; 64];
            let mut rows = [0u64; ROWS];
            let mut gaps = [0u64; GAP_EDGES.len()];
            for _ in 0..STREAMS {
                let mut last: Option<usize> = None;
                sample_flips(&mut r, p, positions, |pos| {
                    assert!(pos < positions, "position {pos} past the stream");
                    assert!(last.is_none_or(|l| pos > l), "positions must increase");
                    let gap = (pos - last.map_or(0, |l| l + 1)) as u64;
                    let bin = GAP_EDGES.iter().rposition(|&e| gap >= e).unwrap();
                    gaps[bin] += 1;
                    last = Some(pos);
                    total += 1;
                    bit_offsets[pos % DIM % 64] += 1;
                    rows[pos / DIM] += 1;
                });
            }
            let sigma = (n * p * (1.0 - p)).sqrt();
            assert!(
                (total as f64 - n * p).abs() <= 4.0 * sigma,
                "p={p}: {total} flips, expected {} ± {sigma:.1}",
                n * p
            );
            let chi_bits = chi_square(&bit_offsets, &[total as f64 / 64.0; 64]);
            assert!(
                chi_bits < 113.6,
                "p={p}: bit-offset chi-square {chi_bits:.1}"
            );
            let chi_rows = chi_square(&rows, &[total as f64 / ROWS as f64; ROWS]);
            assert!(chi_rows < 30.4, "p={p}: row chi-square {chi_rows:.1}");
            // Gap k has probability (1 − p)^k p; bin [a, b) has (1 − p)^a − (1 − p)^b.
            let surv = |k: u64| (1.0 - p).powf(k as f64);
            let expected: Vec<f64> = (0..GAP_EDGES.len())
                .map(|i| {
                    let tail = GAP_EDGES.get(i + 1).map_or(0.0, |&b| surv(b));
                    total as f64 * (surv(GAP_EDGES[i]) - tail)
                })
                .collect();
            let chi_gaps = chi_square(&gaps, &expected);
            assert!(chi_gaps < 26.3, "p={p}: gap chi-square {chi_gaps:.1}");
        }
    }

    #[test]
    fn flip_sampler_edges() {
        let count = |p: f64, positions: usize| {
            let mut r = rng(5);
            let mut flipped = Vec::new();
            sample_flips(&mut r, p, positions, |pos| flipped.push(pos));
            (flipped, r.next_u64())
        };
        let untouched = rng(5).next_u64();
        // Zero (or NaN) probability draws nothing at all.
        for p in [0.0, -1.0, f64::NAN] {
            assert_eq!(count(p, 1 << 20), (Vec::new(), untouched));
        }
        assert_eq!(count(0.5, 0), (Vec::new(), untouched));
        // Certainty flips every position, in order.
        let all: Vec<usize> = (0..1000).collect();
        assert_eq!(count(1.0, 1000).0, all);
        assert_eq!(count(2.0, 1000).0, all);
        // A vanishing probability yields a gap too large for any stream: one draw
        // and no flip, without overflowing the position.
        let mut r = rng(5);
        r.next_u64();
        assert_eq!(count(1e-300, usize::MAX), (Vec::new(), r.next_u64()));
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
            // Both RAVEN blocks rescue: one sweep cannot revisit a state, so every
            // unconverged row is capped, and each one is rescued.
            assert_eq!(report.rows_limit_cycle, 0);
            assert_eq!(report.rows_rescued, report.rows_capped);
            assert_eq!(
                report.factorizer_iterations,
                report.panels_total * s.blocks.len()
            );
        }
    }

    /// Decodes `queries` against `set` on the engine `kind` picks, with streams
    /// seeded per row, and returns the results with their outcome counts.
    fn decode_on_engine(
        set: &CodebookSet,
        queries: &HvMatrix,
        config: &FactorizerConfig,
        kind: BackendKind,
    ) -> (Vec<FactorizationResult>, SolverReport) {
        let mut streams: Vec<_> = (0..queries.rows() as u64)
            .map(|q| StdRng::seed_from_u64(0x5EED ^ q))
            .collect();
        let results = Factorizer::new(config.clone().with_backend(kind))
            .factorize_matrix_scratch(
                set,
                queries,
                &mut streams,
                &mut FactorizerScratch::default(),
            )
            .unwrap();
        let mut report = SolverReport::default();
        report.record_block(&results);
        (results, report)
    }

    /// Asserts that the packed engine decides every row exactly like the dense
    /// engine (indices, iterations, outcome flags) and counts the same outcomes.
    fn assert_packed_matches_dense(
        set: &CodebookSet,
        queries: &HvMatrix,
        config: &FactorizerConfig,
        case: &str,
    ) -> (Vec<FactorizationResult>, SolverReport) {
        let (dense, dense_report) = decode_on_engine(set, queries, config, BackendKind::Reference);
        let (packed, packed_report) = decode_on_engine(set, queries, config, BackendKind::Packed);
        for (q, (d, p)) in dense.iter().zip(&packed).enumerate() {
            assert_eq!(
                (&d.indices, d.iterations, d.converged, d.limit_cycle),
                (&p.indices, p.iterations, p.converged, p.limit_cycle),
                "{case}: row {q}"
            );
            assert!(
                (d.similarity - p.similarity).abs() < 1e-4,
                "{case}: row {q}"
            );
        }
        assert_eq!(dense_report, packed_report, "{case}");
        (dense, dense_report)
    }

    #[test]
    fn packed_engine_matches_dense_across_every_row_outcome() {
        // One batch whose rows converge at different iterations, exit on a limit
        // cycle, or run into the cap. The packed engine skips the last projection
        // of every row that converges, and of every row at the last iteration whose
        // limit-cycle history is empty, and quantizes its projection accumulators
        // below FP32; none of that may change a result or an outcome count against
        // the dense engine, which projects every row, at any precision.
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
        // Rows flipped at 30% against 8-value codebooks never converge; they wander
        // between states where only some factors move, which is where a fingerprint
        // over a stale last estimate would mistake a new state for an old one.
        let mut r = rng(0);
        let small = CodebookSet::random(&[8, 8, 8], 512, BindingOp::Hadamard, &mut r);
        let stuck: Vec<_> = (0..8)
            .map(|i| {
                let clean = small.bind_indices(&[i, (i + 3) % 8, (5 * i) % 8]).unwrap();
                ops::flip_noise(&clean, if i % 2 == 0 { 0.3 } else { 0.02 }, &mut r)
            })
            .collect();
        let stuck = HvMatrix::from_rows(&stuck).unwrap();
        for precision in Precision::all() {
            let config = FactorizerConfig::default()
                .with_max_iterations(12)
                .with_precision(precision);
            let (dense, dense_report) =
                assert_packed_matches_dense(&set, &matrix, &config, &format!("{precision}"));
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

            // Every cap up to 12, on this batch and on the stuck rows. At each, the
            // rows still running stop at the last iteration, and at the iteration
            // a limit cycle closes, that row's cycle closes exactly at the last
            // iteration, so the last projection (and fingerprint) of a row with a
            // history must still run.
            let mut closes_at_cap = false;
            for cap in 1..=12 {
                for (codebooks, queries) in [(&set, &matrix), (&small, &stuck)] {
                    let (dense, _) = assert_packed_matches_dense(
                        codebooks,
                        queries,
                        &config.clone().with_max_iterations(cap),
                        &format!("{precision}, cap {cap}"),
                    );
                    closes_at_cap |= dense.iter().any(|d| d.limit_cycle && d.iterations == cap);
                }
            }
            assert!(closes_at_cap, "{precision}: no cycle closes at a cap");
        }

        // The rescue route's sweep: one iteration over block 0 (9×9×5, d = 2048)
        // of noisy scenes that superpose block 1 as crosstalk. No row has a
        // fingerprint history there, so the packed engine projects no last
        // factor at all; the rows it leaves unconverged must still match.
        let (s, mut r) = solver(9, SolverConfig::default());
        let panels: Vec<Panel> = (0..96)
            .map(|_| Panel::random_with(AttributeVocab::raven(), &mut r))
            .collect();
        let mut scenes = s.encode_panels(&panels).unwrap();
        for v in scenes.as_mut_slice() {
            if r.gen_bool(0.05) {
                *v = -*v;
            }
        }
        let set = &s.blocks[0].set;
        assert_eq!(set.combinations(), 405);
        let config = rescue_route(&s.blocks[0]).0.config().clone();
        assert_eq!(config.max_iterations, 1);
        let (_, report) = assert_packed_matches_dense(set, &scenes, &config, "one sweep");
        assert!(
            report.rows_converged > 0 && report.rows_capped > 0,
            "{report:?}"
        );
    }

    #[test]
    fn rescue_blocks_decode_by_one_sweep_then_the_product_scan() {
        // The solver's decode of a rescue block is exactly the one-sweep
        // resonator, with every unconverged row replaced by its best product
        // row, and the report counts each of those rows as rescued.
        let (s, mut r) = solver(
            14,
            SolverConfig {
                vector_dim: 512,
                ..SolverConfig::default()
            },
        );
        let panels: Vec<Panel> = (0..48)
            .map(|_| Panel::random_with(AttributeVocab::raven(), &mut r))
            .collect();
        let mut scenes = s.encode_panels(&panels).unwrap();
        for v in scenes.as_mut_slice() {
            if r.gen_bool(0.02) {
                *v = -*v;
            }
        }
        let bits = BitMatrix::from_matrix(&scenes).unwrap();
        let seeds: Vec<u64> = panels.iter().map(|_| r.next_u64()).collect();
        let streams =
            || -> Vec<StdRng> { seeds.iter().map(|&q| StdRng::seed_from_u64(q)).collect() };
        for (b, block) in s.blocks.iter().enumerate() {
            let (set, attrs) = (&block.set, block.attrs);
            let (sweep, product) = rescue_route(block);
            let mut values = vec![[0usize; 5]; panels.len()];
            let report = s
                .decode_block_into(
                    block,
                    &bits,
                    &mut streams(),
                    &mut DecodeScratch::default(),
                    &mut values,
                )
                .unwrap();
            let sweep = sweep
                .factorize_matrix_bits_scratch(
                    set,
                    &bits,
                    &mut streams(),
                    &mut FactorizerScratch::default(),
                )
                .unwrap();
            let mut best = Vec::new();
            product
                .search_batch_bits_into(&bits, &mut Default::default(), &mut best)
                .unwrap();
            let mut expected = SolverReport::default();
            expected.record_block(&sweep);
            expected.rows_rescued = sweep.iter().filter(|r| !r.converged).count();
            assert_eq!(report, expected, "block {b}");
            assert!(
                report.rows_rescued > 0 && report.rows_converged > 0,
                "{report:?}"
            );
            for (row, (one, &(product_row, _))) in sweep.iter().zip(&best).enumerate() {
                let mut tuple = one.indices.clone();
                if !one.converged {
                    product.factor_indices_into(product_row, &mut tuple);
                }
                let decoded: Vec<usize> = attrs.iter().map(|&a| values[row][a]).collect();
                assert_eq!(decoded, tuple, "block {b} row {row}");
            }
        }
    }

    #[test]
    fn rescued_rows_decode_the_same_under_the_tile_and_the_scalar_oracle() {
        // The rows a RAVEN one-sweep batch leaves unconverged, at the default
        // d = 2048: the product scan (the register-tile kernel) picks, for each,
        // the same product row as a scalar `(a ^ b).count_ones()` scan over the
        // products bound from the factor codebooks, first row on ties, and the
        // solver decodes that row.
        let (s, mut r) = solver(21, SolverConfig::default());
        let panels: Vec<Panel> = (0..64)
            .map(|_| Panel::random_with(AttributeVocab::raven(), &mut r))
            .collect();
        let mut scenes = s.encode_panels(&panels).unwrap();
        for v in scenes.as_mut_slice() {
            if r.gen_bool(0.02) {
                *v = -*v;
            }
        }
        let bits = BitMatrix::from_matrix(&scenes).unwrap();
        let seeds: Vec<u64> = panels.iter().map(|_| r.next_u64()).collect();
        let streams =
            || -> Vec<StdRng> { seeds.iter().map(|&q| StdRng::seed_from_u64(q)).collect() };
        for (b, block) in s.blocks.iter().enumerate() {
            let (set, attrs) = (&block.set, block.attrs);
            let (sweep, product) = rescue_route(block);
            let sweep = sweep
                .factorize_matrix_bits_scratch(
                    set,
                    &bits,
                    &mut streams(),
                    &mut FactorizerScratch::default(),
                )
                .unwrap();
            let rescued: Vec<usize> = (0..sweep.len()).filter(|&q| !sweep[q].converged).collect();
            assert!(!rescued.is_empty(), "block {b} rescues no row");
            let queries = bits.gather(&rescued).unwrap();
            let mut best = Vec::new();
            product
                .search_batch_bits_into(&queries, &mut Default::default(), &mut best)
                .unwrap();
            let mut tuple = vec![0; set.num_factors()];
            let products: Vec<Hypervector> = (0..product.len())
                .map(|m| {
                    product.factor_indices_into(m, &mut tuple);
                    set.bind_indices(&tuple).unwrap()
                })
                .collect();
            let planes = BitMatrix::from_hypervectors(&products).unwrap();
            let mut values = vec![[0usize; 5]; panels.len()];
            s.decode_block_into(
                block,
                &bits,
                &mut streams(),
                &mut DecodeScratch::default(),
                &mut values,
            )
            .unwrap();
            for (i, &row) in rescued.iter().enumerate() {
                let distances: Vec<u32> = (0..planes.rows())
                    .map(|m| {
                        queries
                            .row_words(i)
                            .iter()
                            .zip(planes.row_words(m))
                            .map(|(a, b)| (a ^ b).count_ones())
                            .sum()
                    })
                    .collect();
                let least = *distances.iter().min().unwrap();
                let oracle = distances.iter().position(|&h| h == least).unwrap();
                assert_eq!(best[i].0, oracle, "block {b} row {row}");
                product.factor_indices_into(oracle, &mut tuple);
                let decoded: Vec<usize> = attrs.iter().map(|&a| values[row][a]).collect();
                assert_eq!(decoded, tuple, "block {b} row {row}");
            }
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
            rows_rescued: 1,
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
            rows_rescued: 0,
        };
        a.merge(&b);
        assert_eq!(a.problems, 4);
        assert_eq!(
            (
                a.rows_converged,
                a.rows_limit_cycle,
                a.rows_capped,
                a.rows_rescued
            ),
            (61, 1, 2, 1)
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
        let panels: Vec<Panel> = (0..6)
            .map(|_| Panel::random_with(AttributeVocab::raven(), &mut r))
            .collect();
        let (decoded, report) = s.perceive_and_factorize_batch(&panels, &mut r).unwrap();
        assert_eq!(decoded.len(), panels.len());
        assert!(report.factorizer_iterations >= panels.len());
        let exact = decoded.iter().zip(&panels).filter(|(a, b)| a == b).count();
        assert!(exact >= 5, "only {exact}/6 panels decoded exactly");
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
        let panels: Vec<Panel> = (0..4)
            .map(|_| Panel::random_with(AttributeVocab::raven(), &mut r))
            .collect();
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
        // reference backend's reasoning quality (its similarity decisions are exact).
        let config = SolverConfig::default();
        let (packed, mut r1) = solver(13, config.clone().with_backend(BackendKind::Packed));
        let (dense, mut r2) = solver(13, config.with_backend(BackendKind::Reference));
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
        assert!(
            dense_report.accuracy() >= 0.66,
            "{}",
            dense_report.accuracy()
        );
        assert!(packed_report.factorization_accuracy() >= 0.85);
        assert!(dense_report.factorization_accuracy() >= 0.85);
        assert!(packed.backend().as_packed().is_some());
        assert!(dense.backend().as_packed().is_none());
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
        // One scratch must serve growing and shrinking batch shapes (1 → 4 → 2 → 1
        // problems) and datasets without state leaking between calls: each call
        // equals a fresh-scratch run. Scratch grows with the call on every backend.
        for kind in BackendKind::ALL {
            let (s, mut r) = solver(42, SolverConfig::default().with_backend(kind));
            let raven = ProblemGenerator::new(DatasetKind::Raven).generate_batch(4, &mut r);
            let cvr = ProblemGenerator::new(DatasetKind::Cvr).generate_batch(2, &mut r);
            let mut shared = SolverScratch::default();
            for problems in [&raven[..1], &raven[..], &cvr[..], &raven[..1]] {
                let mut r1 = r.clone();
                let mut r2 = r.clone();
                let reused = s.solve_batch_with(problems, &mut r1, &mut shared).unwrap();
                let reused_choices = shared.choices().to_vec();
                let mut fresh = SolverScratch::default();
                let fresh_report = s.solve_batch_with(problems, &mut r2, &mut fresh).unwrap();
                assert_eq!(reused, fresh_report, "{kind}");
                assert_eq!(reused_choices, fresh.choices(), "{kind}");
            }
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
                let panels: Vec<Panel> = (0..7)
                    .map(|_| Panel::random_with(AttributeVocab::raven(), &mut r))
                    .collect();
                let f32_rows: Vec<Hypervector> =
                    panels.iter().map(|p| s.encode_panel_f32(p)).collect();
                let dense = HvMatrix::from_rows(&f32_rows).unwrap();
                let expected = BitMatrix::from_matrix(&dense).expect("encodings are bipolar");
                let mut bits = BitMatrix::default();
                s.encode_panels_bits_into(panels.iter(), &mut EncodeScratch::default(), &mut bits)
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
                    *fault,
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
        }
    }

    #[test]
    fn excising_the_poisoned_problem_reproduces_the_clean_batch() {
        // Validation consumes no rng, so dropping the malformed problem and
        // re-running with the same generator is bitwise the same as never having
        // submitted it.
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
        let SolveError::Malformed {
            problem: victim, ..
        } = err
        else {
            panic!("expected a typed poison index, got {err:?}");
        };
        assert_eq!(victim, 2);
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
        use cogsys_factorizer::StochasticityConfig;
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
            SolverConfig {
                factorizer: FactorizerConfig {
                    stochasticity: StochasticityConfig {
                        decay: f32::NAN,
                        ..StochasticityConfig::default()
                    },
                    ..FactorizerConfig::default()
                },
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
        // 100-value attributes put both blocks over the product-row limit, so
        // they run the polish route and the cap binds every block.
        use cogsys_datasets::ProblemGenerator;
        let vocab = AttributeVocab::uniform(100);
        let config = SolverConfig {
            vector_dim: 512,
            vocab,
            ..SolverConfig::default()
        };
        let (s, mut r) = solver(55, config);
        assert!(s
            .blocks
            .iter()
            .all(|block| matches!(block.route, BlockRoute::Polish { .. })));
        let problems =
            ProblemGenerator::with_vocab(DatasetKind::Raven, vocab).generate_batch(2, &mut r);

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

        // On RAVEN vocabularies both blocks take the rescue route: one sweep,
        // then the product scan, whatever the cap. A capped clone shares the
        // product planes and decides exactly like the full solver.
        let (raven, mut r) = solver(55, SolverConfig::default());
        let text = raven.plan_for_batch(2).describe();
        assert_eq!(text.matches("iters=1\n").count(), 2, "{text}");
        assert_eq!(text.matches("rescue").count(), 2, "{text}");
        assert!(!text.contains("polish"), "{text}");
        assert!(
            text.contains("products=405") && text.contains("products=60"),
            "{text}"
        );
        let raven_coarse = raven.with_iteration_cap(1);
        for (full, capped) in raven.blocks.iter().zip(&raven_coarse.blocks) {
            assert!(Arc::ptr_eq(rescue_route(full).1, rescue_route(capped).1));
        }
        let problems = ProblemGenerator::new(DatasetKind::Raven).generate_batch(4, &mut r);
        let mut r1 = r.clone();
        let full = raven
            .solve_batch_with(&problems, &mut r1, &mut scratch)
            .unwrap();
        let full_choices = scratch.choices().to_vec();
        let capped = raven_coarse
            .solve_batch_with(&problems, &mut r, &mut scratch)
            .unwrap();
        assert_eq!(full, capped);
        assert_eq!(full_choices, scratch.choices());
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

            // No solve entry point looks a plan up, at a cached shape or a new one.
            let problems = ProblemGenerator::new(DatasetKind::Raven).generate_batch(4, &mut r);
            s.solve_batch(&problems, &mut r).unwrap();
            s.solve_batch_with(&problems[..3], &mut r, &mut SolverScratch::default())
                .unwrap();
            assert_eq!(s.plan_cache_stats(), PlanCacheStats { hits: 1, misses: 2 });
            // Explicit lookups still hit and miss as before.
            assert!(Arc::ptr_eq(&p1, &s.plan_for_batch(4)));
            assert_eq!(s.plan_cache_stats(), PlanCacheStats { hits: 2, misses: 2 });

            // Clones start with a cold cache (a capped clone compiles other plans).
            let cloned = s.clone();
            assert_eq!(cloned.plan_cache_stats(), PlanCacheStats::default());
        }

        #[test]
        fn plan_covers_the_whole_batch_for_every_dim() {
            // Every dim, word-aligned or with a padded tail word, and every backend
            // solves the whole batch in one pass: each resonate stage spans all
            // 8 context rows of all 8 problems.
            for dim in [1000, 1024, 2048, 4096] {
                for backend in BackendKind::ALL {
                    let config = SolverConfig {
                        vector_dim: dim,
                        ..SolverConfig::default()
                    }
                    .with_backend(backend);
                    let (s, _) = solver(74, config);
                    let plan = s.plan_for_batch(8);
                    assert_eq!(plan.key.batch, 8);
                    for stage in &plan.stages {
                        if let PlanStage::Resonate { rows, .. } = stage {
                            assert_eq!(*rows, 64, "{backend} dim {dim}");
                        }
                    }
                }
            }
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
            // any submitted batch size with unchanged decisions, on the packed
            // resonator and the f32 resonator alike.
            for kind in BackendKind::ALL {
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

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]

            // Planned execution equals the sequential per-problem path — choices,
            // reports, final rng state — across both backends × pow2/non-pow2
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

    mod abduction {
        use super::*;
        use cogsys_datasets::RuleSet;
        use proptest::prelude::*;

        /// The abducer with every rule formula written out inline, in pool order:
        /// the oracle the `Rule`-driven abducer must match prediction for
        /// prediction, ties included.
        fn abduce_oracle(
            dataset: DatasetKind,
            vocab: AttributeVocab,
            attribute: Attribute,
            rows: &[[usize; 3]; 2],
            last_row: (usize, usize),
        ) -> usize {
            let card = vocab.cardinality(attribute);
            let mut best: Option<(usize, usize)> = None; // (score, predicted value)
            let mut consider = |score: usize, predicted: usize| {
                if best.is_none_or(|(s, _)| score > s) {
                    best = Some((score, predicted));
                }
            };
            for &kind in dataset.rule_pool() {
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

        /// Checks one context (eight values: two complete rows, then the first two
        /// cells of the incomplete one) on every dataset pool.
        fn assert_matches_oracle(vocab: AttributeVocab, attribute: Attribute, v: [usize; 8]) {
            let rows = [[v[0], v[1], v[2]], [v[3], v[4], v[5]]];
            let last_row = (v[6], v[7]);
            for dataset in DatasetKind::ALL {
                assert_eq!(
                    NeurosymbolicSolver::abduce_and_execute(
                        dataset, vocab, attribute, &rows, last_row
                    ),
                    abduce_oracle(dataset, vocab, attribute, &rows, last_row),
                    "{dataset} {attribute} {v:?} (cardinality {})",
                    vocab.cardinality(attribute)
                );
            }
        }

        const VOCABS: [fn() -> AttributeVocab; 2] =
            [AttributeVocab::raven, || AttributeVocab::uniform(600)];

        #[test]
        fn rule_abducer_matches_the_oracle_where_several_rules_fit() {
            // Every context over values 0..3 — (0, 0, 0) rows, all-equal rows, and
            // rows that fit Constant, Arithmetic and the logical rules at once, or
            // Progression and Distribute-Three at once — then all-equal contexts
            // across each attribute's range, so the tie order is pinned.
            for vocab in VOCABS.map(|v| v()) {
                for attribute in Attribute::ALL {
                    for code in 0..3usize.pow(8) {
                        let mut v = [0usize; 8];
                        let mut c = code;
                        for slot in &mut v {
                            *slot = c % 3;
                            c /= 3;
                        }
                        assert_matches_oracle(vocab, attribute, v);
                    }
                    let card = vocab.cardinality(attribute);
                    for value in [card / 2, card - 2, card - 1] {
                        assert_matches_oracle(vocab, attribute, [value; 8]);
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn prop_rule_abducer_matches_the_oracle(seed in 0u64..u64::MAX) {
                let mut r = StdRng::seed_from_u64(seed);
                for vocab in VOCABS.map(|v| v()) {
                    for attribute in Attribute::ALL {
                        let card = vocab.cardinality(attribute);
                        // Uniform in-range rows.
                        let v: [usize; 8] = std::array::from_fn(|_| r.gen_range(0..card));
                        assert_matches_oracle(vocab, attribute, v);
                    }
                    // Rows a generator drew from each dataset's rules, so that the
                    // rules fire, with one cell mis-read half the time.
                    for dataset in DatasetKind::ALL {
                        let rules = RuleSet::random_with(dataset.rule_pool(), vocab, &mut r);
                        let panels: Vec<Panel> = (0..3)
                            .flat_map(|_| rules.generate_row_with(vocab, &mut r))
                            .collect();
                        for attribute in Attribute::ALL {
                            let card = vocab.cardinality(attribute);
                            let mut v: [usize; 8] =
                                std::array::from_fn(|i| panels[i].value(attribute));
                            if r.gen_bool(0.5) {
                                v[r.gen_range(0..8usize)] = r.gen_range(0..card);
                            }
                            assert_matches_oracle(vocab, attribute, v);
                        }
                    }
                }
            }
        }
    }
}
