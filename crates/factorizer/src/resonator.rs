//! The iterative resonator factorization loop.
//!
//! The three factorization steps (unbind → similarity search → projection, Fig. 8)
//! run on one of two engines. The serving engine keeps the factor estimates as sign
//! planes and steps a whole query batch through the packed backend's resonator step,
//! composed from its unbind, similarity and projection kernels.
//! The `f32` resonator is the reference engine: it runs one query at a time through
//! the [`ReferenceBackend`] kernels, and it decodes everything the packed engine
//! cannot (circular binding, non-bipolar queries, the reference backend). Every query
//! carries its own derived noise stream, which makes
//! [`Factorizer::factorize_matrix_scratch`] return *exactly* the results of calling
//! [`Factorizer::factorize`] per query — batching is a pure performance transform.

use crate::config::FactorizerConfig;
use cogsys_vsa::batch::{HvMatrix, ReferenceBackend, VsaBackend};
use cogsys_vsa::codebook::{BindingOp, CodebookSet};
use cogsys_vsa::packed::{BitMatrix, ProjectedRow, ProjectionNoise, StepRow};
use cogsys_vsa::quant::fake_quantize_slice;
use cogsys_vsa::Precision;
use cogsys_vsa::{ops, Hypervector, VsaError};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Outcome of one factorization run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FactorizationResult {
    /// The decoded codevector index for each factor.
    pub indices: Vec<usize>,
    /// Cosine similarity of the re-bound estimate to the input query.
    pub similarity: f32,
    /// Number of iterations executed.
    pub iterations: usize,
    /// Whether the convergence threshold was reached within the iteration budget.
    pub converged: bool,
    /// Whether a limit cycle was detected: the row's estimate state (every factor's
    /// sign plane) revisited one of its last
    /// [`FactorizerConfig::limit_cycle_window`] states without converging. The row
    /// then reports its best decode so far, and `iterations` is the iteration it
    /// exited on.
    pub limit_cycle: bool,
}

impl FactorizationResult {
    /// Returns `true` if the decoded indices equal `expected`.
    pub fn matches(&self, expected: &[usize]) -> bool {
        self.indices == expected
    }
}

/// The CogSys iterative factorizer.
///
/// Construct once with a [`FactorizerConfig`] and reuse across queries; the struct holds
/// no per-query state. The configured [`cogsys_vsa::BackendKind`] decides which engine
/// runs.
#[derive(Debug, Clone)]
pub struct Factorizer {
    config: FactorizerConfig,
    backend: Arc<dyn VsaBackend>,
}

impl Default for Factorizer {
    fn default() -> Self {
        Self::new(FactorizerConfig::default())
    }
}

/// The stochasticity kernel: zero-mean symmetric **triangular** noise on
/// `[-amplitude, amplitude]` with `amplitude = sqrt(6)·sigma` (so the variance is
/// exactly `sigma²`), sampled as the difference of two independent uniforms cut
/// from one word of the query's private stream.
///
/// Two properties make this the right noise source for the resonator's hot loop:
///
/// * **Cheap.** One sample is one generator word, two shifts and a multiply. The
///   Box–Muller Gaussian it replaces spent ~10× longer in `ln`/`cos` per sample,
///   and the projection step consumes one sample per *dimension* per factor per
///   iteration, so the generator itself is the cost that is left: on a 2-vCPU
///   AVX-512 VM at d = 2048, two words per sample were ~2.5 of the ~3.7 ns of a
///   projection draw.
/// * **Bounded.** A sample can never exceed `amplitude` in magnitude, so the
///   projection step can prove `sign(v + z) == sign(v)` whenever `|v| > amplitude`
///   and skip the draw entirely ([`BoundedNoise::perturb_signs`]). On the FP32 path
///   (where the sign threshold directly follows the noise) only the binarised sign
///   survives the iteration, so a skipped draw is provably without downstream
///   effect; see `perturb_signs` for the sub-FP32 caveat.
///
/// The annealing role of stochasticity (paper Sec. IV-B: escape limit cycles,
/// converge in fewer iterations) needs symmetric zero-mean jitter on the scale of the
/// cross-similarity noise floor; the exact tail shape is immaterial, and the
/// `stochasticity_reduces_iterations_on_hard_problems` regression pins the behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedNoise {
    amplitude: f32,
}

impl BoundedNoise {
    /// The noise for one sigma, or `None` when disabled (`sigma == 0`). Sigmas are
    /// validated by [`FactorizerConfig::validate`] (finite, non-negative).
    pub fn for_sigma(sigma: f32) -> Option<Self> {
        (sigma > 0.0).then(|| Self {
            amplitude: sigma * 6.0_f32.sqrt(),
        })
    }

    /// The support bound: samples lie in `[-amplitude, amplitude]`.
    pub fn amplitude(&self) -> f32 {
        self.amplitude
    }

    /// One sample: `(u1 - u2) · amplitude`, triangular on `[-amplitude, amplitude]`.
    /// Both uniforms come from one `next_u64`: `u1` from bits 40–63, `u2` from bits
    /// 16–39 (xoshiro256**'s low bits are as strong as its high ones, and the two
    /// fields are disjoint, so the uniforms are independent). Each is a 24-bit
    /// multiple of 2⁻²⁴ in `[0, 1)`, so the difference is exact in `f32` and the
    /// bound is tight (`|z| ≤ amplitude` after rounding).
    #[inline]
    fn sample(&self, rng: &mut StdRng) -> f32 {
        const FIELD: u64 = (1 << 24) - 1;
        const SCALE: f32 = 1.0 / (1u32 << 24) as f32;
        let word = rng.next_u64();
        let u1 = (word >> 40) as f32 * SCALE;
        let u2 = ((word >> 16) & FIELD) as f32 * SCALE;
        (u1 - u2) * self.amplitude
    }

    /// Adds one sample to every element — the similarity-step perturbation, where the
    /// scores feed a global argmax and no element can be proven irrelevant.
    pub fn perturb_all(&self, values: &mut [f32], rng: &mut StdRng) {
        for v in values {
            *v += self.sample(rng);
        }
    }

    /// The projection-step perturbation: the epilogue of one projected row
    /// ([`ProjectedRow::finish_noisy`]) with this noise on `rng`, then the
    /// quantizer at `precision` and the sign pack.
    ///
    /// Only an element whose **sign** the noise could possibly flip draws a
    /// sample. `|v| > amplitude ≥ |z|` bounds `v + z` strictly away from zero on
    /// the same side as `v` (two finite `f32`s only sum to ±0.0 when they are
    /// exact negatives, which the strict bound excludes), so on the FP32 path —
    /// where the sign threshold directly follows — the skipped draw is provably
    /// dead weight. At sub-FP32 precisions `fake_quantize` sits between the
    /// noise and the sign threshold and the skip is *not* equivalent to a
    /// full-sampling run (quantization can move a near-zero value across zero
    /// and its row-global Int8 scale couples elements); it remains a
    /// well-defined noise model there because the skip rule is deterministic
    /// in the accumulator values. Skipping changes which stream position lands
    /// on which dimension, but every engine runs this rule on bitwise-identical
    /// accumulators — the packed engines, per-query and batched, table and
    /// dense route, through this epilogue, and the f32 resonator through the
    /// element-wise rule it equals — so their skip patterns and therefore
    /// their decisions stay identical at every precision.
    ///
    /// The eligible elements draw in ascending order, one generator word each,
    /// on a local copy of the stream that is written back once. The mask comes
    /// a word of 64 dimensions at a time: on the table route from one lookup
    /// of the `|T[c]| <= amplitude` table by the dimensions' column codes, on
    /// the dense route from one dispatched mask call per 4,096 dimensions. This
    /// is bitwise-equal to the element-wise rule
    /// ([`BoundedNoise::perturb_signs_elementwise`]) followed by [`fake_quantize_slice`] and the sign pack: the
    /// masks hold exactly the elements that rule perturbs, every draw lands on
    /// the same dimension in the same order, and the stream ends in the same
    /// position — NaN included, since the ordered compare is false for NaN
    /// exactly like `NaN.abs() <= a`.
    pub fn perturb_signs(
        &self,
        row: &mut ProjectedRow<'_>,
        rng: &mut StdRng,
        precision: Precision,
    ) {
        let mut draws = Draws {
            noise: *self,
            stream: rng.clone(),
        };
        row.finish_noisy(&mut draws, precision);
        *rng = draws.stream;
    }

    /// The element-wise reference rule behind [`BoundedNoise::perturb_signs`],
    /// one branch per element: the f32 resonator's projection noise, and the
    /// oracle proptests and the `noise_signs` benchmark pin the masked path
    /// bitwise against.
    pub fn perturb_signs_elementwise(&self, values: &mut [f32], rng: &mut StdRng) {
        let a = self.amplitude;
        for v in values {
            if v.abs() <= a {
                *v += self.sample(rng);
            }
        }
    }
}

/// A [`BoundedNoise`] drawing from a copy of one query's stream: the
/// [`ProjectionNoise`] of [`BoundedNoise::perturb_signs`].
#[derive(Clone)]
struct Draws {
    noise: BoundedNoise,
    stream: StdRng,
}

impl ProjectionNoise for Draws {
    fn amplitude(&self) -> f32 {
        self.noise.amplitude
    }

    #[inline]
    fn sample(&mut self) -> f32 {
        self.noise.sample(&mut self.stream)
    }
}

/// Finishes one projected row: its projection noise at `sigma` on `stream`
/// (none when `sigma` is zero), the quantizer at `precision` and the sign pack.
fn finish_projection(
    sigma: f32,
    row: &mut ProjectedRow<'_>,
    stream: &mut StdRng,
    precision: Precision,
) {
    match BoundedNoise::for_sigma(sigma) {
        Some(noise) => noise.perturb_signs(row, stream, precision),
        None => row.finish(precision),
    }
}

/// The SplitMix64 finalizer: a full-avalanche bijection on 64-bit words.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds one packed sign plane row into a running estimate-state fingerprint,
/// word by word. Every step is a bijection of the previous hash for a fixed word,
/// so distinct states collide only with probability ~2⁻⁶⁴ — a weak hash could
/// alias two states and stop a row that would have converged.
fn fingerprint_words(hash: u64, words: &[u64]) -> u64 {
    words.iter().fold(hash, |h, &w| {
        mix64(h.wrapping_add(0x9E37_79B9_7F4A_7C15) ^ w)
    })
}

/// Whether a row whose decoded codevectors rebind to `similarity` has converged.
fn converges(config: &FactorizerConfig, similarity: f32) -> bool {
    similarity >= config.convergence_threshold
}

/// Per-query mutable state of the resonator iteration.
///
/// The packed engine keeps one per query, indexed by the *original* query index;
/// converged queries are compacted out of its batch planes (see its `order` vector)
/// but their state stays in [`FactorizerScratch`] until the results are assembled.
/// The `f32` resonator reuses a single state across its queries. Either way it is
/// [`QueryState::reset`] per query, so the steady state reuses its vectors.
#[derive(Debug, Default)]
struct QueryState {
    /// The noise schedule's current sigmas; each engine perturbs through
    /// [`BoundedNoise::for_sigma`] of them.
    sim_sigma: f32,
    proj_sigma: f32,
    decoded: Vec<usize>,
    best_indices: Vec<usize>,
    best_similarity: f32,
    /// The last `limit_cycle_window` estimate-state fingerprints, oldest first.
    fingerprints: Vec<u64>,
    result: Option<FactorizationResult>,
}

impl QueryState {
    /// Re-initialises the state for a fresh query, keeping the vector allocations.
    fn reset(&mut self, config: &FactorizerConfig, num_factors: usize, noise_scale: f32) {
        self.sim_sigma = config.stochasticity.similarity_sigma * noise_scale;
        self.proj_sigma = config.stochasticity.projection_sigma * noise_scale;
        self.decoded.clear();
        self.decoded.resize(num_factors, 0);
        self.best_indices.clear();
        self.best_indices.resize(num_factors, 0);
        self.best_similarity = f32::NEG_INFINITY;
        self.fingerprints.clear();
        self.result = None;
    }

    /// Whether anything reads the row's estimate state after `iteration`: a later
    /// iteration does, and so does the limit-cycle check, which compares it against
    /// the row's fingerprint history. At the last iteration with an empty history
    /// (always so for a one-iteration budget, or with detection off) nothing does.
    fn reads_final_state(&self, config: &FactorizerConfig, iteration: usize) -> bool {
        iteration < config.max_iterations || !self.fingerprints.is_empty()
    }

    /// End-of-iteration bookkeeping for one query: records the rebind `similarity`,
    /// detects convergence and limit cycles, and decays the noise schedule. Returns
    /// `true` when the query is finished.
    ///
    /// `fingerprint` hashes the row's estimate state after this iteration; it runs
    /// only for rows that did not converge, only with detection on, and only when
    /// [`QueryState::reads_final_state`] holds (at the last iteration an empty
    /// history cannot match it).
    fn finish_iteration(
        &mut self,
        config: &FactorizerConfig,
        similarity: f32,
        iteration: usize,
        fingerprint: impl FnOnce() -> u64,
    ) -> bool {
        if similarity > self.best_similarity {
            self.best_similarity = similarity;
            self.best_indices.clone_from(&self.decoded);
        }

        if converges(config, similarity) {
            self.result = Some(FactorizationResult {
                indices: self.decoded.clone(),
                similarity,
                iterations: iteration,
                converged: true,
                limit_cycle: false,
            });
            return true;
        }

        // Limit-cycle detection: the full estimate state recurring within the window
        // without reaching the threshold, in both noise modes. A row that revisits a
        // state has, in practice, stopped exploring: the decayed noise no longer
        // moves it off the cycle.
        let window = config.limit_cycle_window;
        if window > 0 && self.reads_final_state(config, iteration) {
            let fp = fingerprint();
            if self.fingerprints.contains(&fp) {
                self.result = Some(FactorizationResult {
                    indices: self.best_indices.clone(),
                    similarity: self.best_similarity,
                    iterations: iteration,
                    converged: false,
                    limit_cycle: true,
                });
                return true;
            }
            if self.fingerprints.len() == window {
                self.fingerprints.remove(0);
            }
            self.fingerprints.push(fp);
        }

        if config.stochasticity.decay != 1.0 {
            self.sim_sigma *= config.stochasticity.decay;
            self.proj_sigma *= config.stochasticity.decay;
        }
        false
    }

    /// Extracts the query's result, leaving the state ready for [`QueryState::reset`].
    fn take_result(&mut self, max_iterations: usize) -> FactorizationResult {
        self.result.take().unwrap_or_else(|| FactorizationResult {
            indices: self.best_indices.clone(),
            similarity: self.best_similarity,
            iterations: max_iterations,
            converged: false,
            limit_cycle: false,
        })
    }
}

/// Caller-owned scratch for the resonator: every sign plane and bookkeeping vector
/// the packed engine touches, reused across calls so a steady-state serving loop
/// allocates only the returned [`FactorizationResult`]s. The `f32` reference
/// resonator keeps only its quantized queries here and allocates its one-row
/// operands per call.
///
/// One scratch serves both engines and any sequence of shapes — buffers are reshaped
/// per call (`ensure_shape` keeps the backing storage when the shape repeats). The
/// scratch carries no query state across calls; using a fresh `FactorizerScratch`
/// yields bitwise-identical results, which is what the allocating entry points do.
#[derive(Debug, Default)]
pub struct FactorizerScratch {
    // Packed-engine bookkeeping; `sims` also holds the f32 resonator's scores.
    states: Vec<QueryState>,
    order: Vec<usize>,
    survivors: Vec<usize>,
    sims: HvMatrix,
    /// The quantized `f32` queries: packed from on the packed path, read row by
    /// row by the f32 resonator.
    query_q: HvMatrix,
    // Packed engine.
    query_bits: BitMatrix,
    estimates_bits: Vec<BitMatrix>,
    /// The whole batch's queries XOR-unbound against the other factors'
    /// estimates: the similarity operand of one resonator step.
    unbound_bits: BitMatrix,
    /// One row's decoded codevectors XOR-bound together (the rebind check).
    rebound_bits: BitMatrix,
    /// Each batch row's rebind similarity, computed by the last factor's
    /// similarity hook and consumed by the end-of-iteration bookkeeping.
    rebind_sims: Vec<f32>,
    proj_acc: Vec<f32>,
    gather_tmp_bits: BitMatrix,
}

impl Factorizer {
    /// Creates a factorizer with the given configuration, instantiating the backend the
    /// configuration names.
    ///
    /// # Panics
    /// Panics if the configuration fails [`FactorizerConfig::validate`]; configurations
    /// are programmer-supplied constants, so an invalid one is a bug at the call site.
    pub fn new(config: FactorizerConfig) -> Self {
        let backend = config.backend.create();
        Self::with_backend(config, backend)
    }

    /// Creates a factorizer running on an explicit (possibly shared) backend instance.
    ///
    /// # Panics
    /// Panics if the configuration fails [`FactorizerConfig::validate`].
    pub fn with_backend(config: FactorizerConfig, backend: Arc<dyn VsaBackend>) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid factorizer configuration: {msg}");
        }
        Self { config, backend }
    }

    /// Returns the configuration this factorizer runs with.
    pub fn config(&self) -> &FactorizerConfig {
        &self.config
    }

    /// The backend whose [`VsaBackend::as_packed`] probe picks the engine.
    pub fn backend(&self) -> &Arc<dyn VsaBackend> {
        &self.backend
    }

    /// Factorizes `query` against the codebooks in `set`.
    ///
    /// The initial estimate for each factor is the sign of the superposition of all
    /// its codevectors ([`cogsys_vsa::Codebook::start_plane`]), following the
    /// resonator-network convention: the search starts from "every candidate in
    /// superposition" and sharpens each factor in parallel.
    ///
    /// One value is drawn from `rng` to seed the query's private noise stream, so a
    /// sequence of `factorize` calls returns exactly what one
    /// [`Factorizer::factorize_matrix_scratch`] call returns over the same queries
    /// with streams seeded from the same draws.
    ///
    /// # Errors
    /// Propagates [`VsaError`] for dimension mismatches between the query and the
    /// codebooks, and returns [`VsaError::Empty`] for a codebook without
    /// codevectors.
    pub fn factorize<R: Rng + ?Sized>(
        &self,
        set: &CodebookSet,
        query: &Hypervector,
        rng: &mut R,
    ) -> Result<FactorizationResult, VsaError> {
        let queries = HvMatrix::from_hypervector(query);
        let mut streams = [StdRng::seed_from_u64(rng.next_u64())];
        let mut results = self.factorize_matrix_scratch(
            set,
            &queries,
            &mut streams,
            &mut FactorizerScratch::default(),
        )?;
        Ok(results.pop().expect("one query row yields one result"))
    }

    /// Factorizes every row of `queries`, driving noise for row `q` from
    /// `streams[q]`.
    ///
    /// Two engines share the same per-query dynamics:
    ///
    /// * the **bit-packed** serving engine (a backend with a packed fast path,
    ///   Hadamard binding, exactly-bipolar queries and codebooks, any precision)
    ///   keeps the factor estimates as sign planes — unbinding is word-wise XOR and
    ///   the similarity step is popcount — and only round-trips through `f32` for
    ///   the weighted projection accumulator, which it quantizes before the sign
    ///   threshold like the `f32` resonator does. It steps the whole batch at once
    ///   and compacts converged rows out with a gather, so early-converging queries
    ///   stop consuming kernel lanes;
    /// * the `f32` reference resonator decodes everything else, one query at a
    ///   time on the [`ReferenceBackend`] kernels.
    ///
    /// The packed engine's sign planes and per-query state live in the
    /// caller-owned `scratch` and are reused across calls, so a steady-state
    /// serving loop allocates only the results in the factorization stage; a
    /// fresh scratch gives identical results.
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] when `queries.dim()` differs from the
    /// codebook dimension or `streams.len() != queries.rows()`, and
    /// [`VsaError::Empty`] for a codebook without codevectors.
    pub fn factorize_matrix_scratch(
        &self,
        set: &CodebookSet,
        queries: &HvMatrix,
        streams: &mut [StdRng],
        scratch: &mut FactorizerScratch,
    ) -> Result<Vec<FactorizationResult>, VsaError> {
        let n = queries.rows();
        let dim = set.dim();
        if queries.dim() != dim && n > 0 {
            return Err(VsaError::DimensionMismatch {
                left: dim,
                right: queries.dim(),
            });
        }
        if streams.len() != n {
            return Err(VsaError::DimensionMismatch {
                left: n,
                right: streams.len(),
            });
        }
        if n == 0 {
            return Ok(Vec::new());
        }
        let precision = self.config.precision;

        // Quantized queries (the factorization runs at the configured precision).
        scratch.query_q.copy_from(queries);
        for q in 0..n {
            fake_quantize_slice(scratch.query_q.row_mut(q), precision);
        }

        // Packed fast path. Quantization maps ±1 to exactly ±1, so a bipolar query
        // still packs at every precision.
        if self.packed_pipeline(set) && scratch.query_bits.pack_from(&scratch.query_q) {
            return self.factorize_matrix_packed(set, streams, scratch);
        }

        self.factorize_matrix_dense(set, streams, scratch)
    }

    /// Whether factorizing against `set` can run the bit-packed resonator engine:
    /// Hadamard binding, a backend with a packed fast path, and cached sign planes
    /// on every factor codebook, at any precision.
    fn packed_pipeline(&self, set: &CodebookSet) -> bool {
        set.binding() == BindingOp::Hadamard
            && self.backend.as_packed().is_some()
            && set.all_packed()
    }

    /// [`Factorizer::factorize_matrix_scratch`] with **bit-packed** queries: the
    /// scratch-reusing entry point of the end-to-end packed serving path, for callers
    /// that already hold the query batch as sign planes (e.g. a packed-encoded scene
    /// batch), skipping the per-call pack of the dense path.
    ///
    /// On a packed-capable configuration (Hadamard binding, a packed backend and
    /// codebooks with cached sign planes) the bits feed the packed engine directly;
    /// otherwise the queries are unpacked once and the `f32` resonator runs. Results
    /// are identical to calling [`Factorizer::factorize_matrix_scratch`] on the
    /// unpacked queries.
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] when `queries.dim()` differs from the
    /// codebook dimension or `streams.len() != queries.rows()`.
    pub fn factorize_matrix_bits_scratch(
        &self,
        set: &CodebookSet,
        queries: &BitMatrix,
        streams: &mut [StdRng],
        scratch: &mut FactorizerScratch,
    ) -> Result<Vec<FactorizationResult>, VsaError> {
        let n = queries.rows();
        if queries.dim() != set.dim() && n > 0 {
            return Err(VsaError::DimensionMismatch {
                left: set.dim(),
                right: queries.dim(),
            });
        }
        if streams.len() != n {
            return Err(VsaError::DimensionMismatch {
                left: n,
                right: streams.len(),
            });
        }
        if n == 0 {
            return Ok(Vec::new());
        }
        if self.packed_pipeline(set) {
            scratch.query_bits.copy_from(queries);
            return self.factorize_matrix_packed(set, streams, scratch);
        }
        // Unpacked fallback (non-Hadamard binding, dense backend): ±1 values survive
        // quantization at every precision, so the f32 resonator sees exactly the
        // queries the caller packed.
        queries.unpack_into(&mut scratch.query_q);
        self.factorize_matrix_dense(set, streams, scratch)
    }

    /// The `f32` reference resonator: runs each query of the already-quantized
    /// batch in `scratch.query_q` to completion, one at a time, on the
    /// [`ReferenceBackend`] kernels over one-row operands. Rows are independent and every
    /// query draws only from its own stream, so this returns exactly what a
    /// batched run would.
    fn factorize_matrix_dense(
        &self,
        set: &CodebookSet,
        streams: &mut [StdRng],
        scratch: &mut FactorizerScratch,
    ) -> Result<Vec<FactorizationResult>, VsaError> {
        let FactorizerScratch { sims, query_q, .. } = scratch;
        let num_factors = set.num_factors();
        let dim = set.dim();
        let precision = self.config.precision;

        // Initial estimates: each codebook's cached starting plane, the sign of
        // its bundle, bipolar so the Hadamard unbinding stays well-conditioned.
        let init = (0..num_factors)
            .map(|f| Ok(set.factor(f)?.start_plane()?.to_matrix()))
            .collect::<Result<Vec<_>, VsaError>>()?;
        let mut query = HvMatrix::zeros(1, dim);
        let mut estimates = vec![HvMatrix::zeros(1, dim); num_factors];
        let (mut unbound, mut work) = (HvMatrix::zeros(1, dim), HvMatrix::zeros(1, dim));
        let (mut projected, mut rebound) = (HvMatrix::zeros(1, dim), HvMatrix::zeros(1, dim));
        let mut sign_row = BitMatrix::zeros(1, dim);
        let mut state = QueryState::default();
        let noise_scale = (dim as f32).sqrt();
        let mut results = Vec::with_capacity(streams.len());

        for (q, stream) in streams.iter_mut().enumerate() {
            query.row_mut(0).copy_from_slice(query_q.row(q));
            for (est, init) in estimates.iter_mut().zip(&init) {
                est.row_mut(0).copy_from_slice(init.row(0));
            }
            state.reset(&self.config, num_factors, noise_scale);

            for iteration in 1..=self.config.max_iterations {
                for f in 0..num_factors {
                    let cb_matrix = set.factor(f)?.matrix();

                    // Step 1: unbind the contribution of every other factor's estimate.
                    // Estimates are updated in place (Gauss–Seidel style), so later
                    // factors in the same sweep already see the refreshed earlier
                    // factors — the "interactive" factorization the paper describes,
                    // which converges in fewer iterations than a synchronous update.
                    set.unbind_all_but_batch(&query, &estimates, f, &mut unbound, &mut work)?;
                    fake_quantize_slice(unbound.row_mut(0), precision);

                    // Step 2: similarity search against the factor codebook.
                    ReferenceBackend.similarity_matrix_into(cb_matrix, &unbound, sims)?;
                    if let Some(noise) = BoundedNoise::for_sigma(state.sim_sigma) {
                        noise.perturb_all(sims.row_mut(0), stream);
                    }
                    state.decoded[f] = ops::argmax(sims.row(0)).unwrap_or(0);

                    // Step 3: project back into the codevector space and binarise,
                    // by the scalar rules the packed engine's epilogue is pinned
                    // against: the element-wise noise rule, the quantizer, then
                    // the sign threshold.
                    ReferenceBackend.project_batch_into(cb_matrix, sims, &mut projected)?;
                    if let Some(noise) = BoundedNoise::for_sigma(state.proj_sigma) {
                        noise.perturb_signs_elementwise(projected.row_mut(0), stream);
                    }
                    fake_quantize_slice(projected.row_mut(0), precision);
                    for (est, &v) in estimates[f].row_mut(0).iter_mut().zip(projected.row(0)) {
                        *est = if v < 0.0 { -1.0 } else { 1.0 };
                    }
                }

                // Convergence check: re-bind the decoded codevectors and compare to
                // the query.
                rebound
                    .row_mut(0)
                    .copy_from_slice(set.factor(0)?.matrix().row(state.decoded[0]));
                for f in 1..num_factors {
                    work.row_mut(0)
                        .copy_from_slice(set.factor(f)?.matrix().row(state.decoded[f]));
                    ReferenceBackend.bind_batch_into(
                        &rebound,
                        &work,
                        set.binding(),
                        &mut unbound,
                    )?;
                    std::mem::swap(&mut rebound, &mut unbound);
                }
                let similarity = ops::cosine_slices(rebound.row(0), query.row(0));
                // Packed with the `v < 0.0` convention of the packed engine's sign
                // planes, so both engines hash — and decide — identically.
                let fingerprint = || {
                    estimates.iter().fold(0, |h, est| {
                        sign_row.pack_signs_row(0, est.row(0));
                        fingerprint_words(h, sign_row.row_words(0))
                    })
                };
                if state.finish_iteration(&self.config, similarity, iteration, fingerprint) {
                    break;
                }
            }
            results.push(state.take_result(self.config.max_iterations));
        }
        Ok(results)
    }

    /// Bit-packed resonator engine (Hadamard binding, bipolar operands, any
    /// precision).
    ///
    /// Factor estimates live as [`BitMatrix`] sign planes. Each factor update is one
    /// call of [`cogsys_vsa::packed::PackedBackend::resonate_step_fused_into`]:
    /// word-wise XOR unbind of the whole batch, popcount similarity (exactly
    /// the integer dot products the f32 similarity kernel produces on bipolar
    /// inputs), and the weighted sign projection (noise and sign threshold included,
    /// written straight into the estimate planes). The rebind convergence check runs inside the last
    /// factor's similarity hook — the row's decoded codevector planes XOR-bound
    /// together, then popcount against the query — so a row that converges there
    /// skips that factor's projection, whose estimate nothing would read again. So
    /// does every row at the last iteration whose limit-cycle window is still empty
    /// (every row of a one-iteration sweep): only a fingerprint compared against an
    /// earlier state could read that estimate. Both skips drop the projection's
    /// noise draws and sign pack with it, and the second also the fingerprint. No
    /// dense estimate or projection matrix exists anywhere in this engine. The
    /// projection hook finishes each projected row with its epilogue
    /// ([`BoundedNoise::perturb_signs`]): noise, the quantizer at the
    /// configured precision, then the sign pack, bitwise what the f32
    /// resonator's element-wise noise, quantize and threshold give (the unbound
    /// and similarity values need no quantize: sign planes are ±1, which every
    /// precision keeps exact).
    /// Decisions (argmax, convergence, limit cycles) are identical to the f32
    /// resonator on the same noise streams: every row that survives an iteration
    /// consumes the same draws in the same order, and a finished row's stream is
    /// never read again.
    #[allow(clippy::needless_range_loop)]
    fn factorize_matrix_packed(
        &self,
        set: &CodebookSet,
        streams: &mut [StdRng],
        scratch: &mut FactorizerScratch,
    ) -> Result<Vec<FactorizationResult>, VsaError> {
        let FactorizerScratch {
            states,
            order,
            survivors,
            sims,
            query_bits,
            estimates_bits: estimates,
            unbound_bits,
            rebound_bits,
            rebind_sims,
            proj_acc,
            gather_tmp_bits,
            ..
        } = scratch;
        let n = query_bits.rows();
        let num_factors = set.num_factors();
        let dim = set.dim();
        let backend = self.backend.as_ref();
        let packed = backend
            .as_packed()
            .expect("packed engine requires a packed backend");
        let precision = self.config.precision;

        estimates.resize_with(num_factors, BitMatrix::default);
        for (f, est) in estimates.iter_mut().enumerate() {
            set.factor(f)?
                .start_plane()?
                .broadcast_row_into(0, n, est)?;
        }

        let noise_scale = (dim as f32).sqrt();
        states.resize_with(n, QueryState::default);
        for state in states.iter_mut() {
            state.reset(&self.config, num_factors, noise_scale);
        }
        order.clear();
        order.extend(0..n);
        rebind_sims.clear();
        rebind_sims.resize(n, 0.0);
        let cb_planes = |f: usize| {
            set.factor(f)
                .ok()
                .and_then(|cb| cb.packed())
                .expect("packed engine requires packed codebooks")
        };
        let last = num_factors - 1;

        for iteration in 1..=self.config.max_iterations {
            let rows = order.len();
            if rows == 0 {
                break;
            }

            for f in 0..num_factors {
                // Unbind the whole batch, one similarity GEMM, then per row in
                // ascending order the hook's similarity perturb + argmax decode
                // and, for the rows it keeps, the projection row kernel and the
                // projection perturb: each query's noise draws come in the order
                // of the f32 resonator's unbind → similarity → projection.
                packed.resonate_step_fused_into(
                    cb_planes(f),
                    query_bits,
                    estimates,
                    f,
                    unbound_bits,
                    sims,
                    proj_acc,
                    |_, slot, row| {
                        let q = order[slot];
                        let state = &mut states[q];
                        match row {
                            StepRow::Similarity(row) => {
                                if let Some(noise) = BoundedNoise::for_sigma(state.sim_sigma) {
                                    noise.perturb_all(row, &mut streams[q]);
                                }
                                state.decoded[f] = ops::argmax(row).unwrap_or(0);
                                if f < last {
                                    return true;
                                }
                                // Every factor is decoded: rebind them and compare
                                // to the query. The last projection of a converged
                                // row, or of any row at the last iteration whose
                                // fingerprint history is empty, would never be read.
                                for (g, &index) in state.decoded.iter().enumerate() {
                                    let row = std::slice::from_ref(&index);
                                    if g == 0 {
                                        cb_planes(g).gather_into(row, rebound_bits)
                                    } else {
                                        rebound_bits.xor_gather_assign(cb_planes(g), row)
                                    }
                                    .expect("decoded index in range");
                                }
                                let similarity = rebound_bits.cosine_rows(0, query_bits, slot);
                                rebind_sims[slot] = similarity;
                                !converges(&self.config, similarity)
                                    && state.reads_final_state(&self.config, iteration)
                            }
                            StepRow::Projection(row) => {
                                finish_projection(
                                    state.proj_sigma,
                                    row,
                                    &mut streams[q],
                                    precision,
                                );
                                true
                            }
                        }
                    },
                );
            }

            survivors.clear();
            for slot in 0..rows {
                let q = order[slot];
                let similarity = rebind_sims[slot];
                let fingerprint = || {
                    estimates
                        .iter()
                        .fold(0, |h, est| fingerprint_words(h, est.row_words(slot)))
                };
                if !states[q].finish_iteration(&self.config, similarity, iteration, fingerprint) {
                    survivors.push(slot);
                }
            }

            // After the last iteration nothing reads the planes again, so the
            // survivors are not compacted.
            if survivors.len() < rows && iteration < self.config.max_iterations {
                query_bits.gather_into(survivors, gather_tmp_bits)?;
                std::mem::swap(query_bits, gather_tmp_bits);
                for est in estimates.iter_mut() {
                    est.gather_into(survivors, gather_tmp_bits)?;
                    std::mem::swap(est, gather_tmp_bits);
                }
                for slot in survivors.iter_mut() {
                    *slot = order[*slot];
                }
                std::mem::swap(order, survivors);
            }
        }

        Ok(states
            .iter_mut()
            .take(n)
            .map(|state| state.take_result(self.config.max_iterations))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StochasticityConfig;
    use cogsys_vsa::codebook::BindingOp;
    use cogsys_vsa::{rng, BackendKind, CodebookSet, Precision};
    use proptest::prelude::*;
    use rand::RngCore;

    fn standard_set(seed: u64, sizes: &[usize], dim: usize) -> (CodebookSet, rand::rngs::StdRng) {
        let mut r = rng(seed);
        let set = CodebookSet::random(sizes, dim, BindingOp::Hadamard, &mut r);
        (set, r)
    }

    /// Batch factorization with one stream per query seeded from `rng` in query
    /// order — the batched counterpart of per-query [`Factorizer::factorize`] calls.
    fn factorize_batch(
        factorizer: &Factorizer,
        set: &CodebookSet,
        queries: &[Hypervector],
        rng: &mut StdRng,
    ) -> Result<Vec<FactorizationResult>, VsaError> {
        let mut streams: Vec<StdRng> = queries
            .iter()
            .map(|_| StdRng::seed_from_u64(rng.next_u64()))
            .collect();
        factorizer.factorize_matrix_scratch(
            set,
            &HvMatrix::from_rows(queries)?,
            &mut streams,
            &mut FactorizerScratch::default(),
        )
    }

    #[test]
    fn factorizer_agrees_with_the_product_codebook_on_noisy_queries() {
        let (set, mut r) = standard_set(51, &[5, 5, 5], 1024);
        let product = cogsys_vsa::ProductCodebook::expand(&set).unwrap();
        let f = Factorizer::default();
        for trial in 0..10 {
            let idx = [trial % 5, (trial * 2) % 5, (trial * 3) % 5];
            let clean = set.bind_indices(&idx).unwrap();
            let noisy = ops::flip_noise(&clean, 0.05, &mut r);
            let (exhaustive, _) = product.brute_force_search(&noisy).unwrap();
            assert_eq!(exhaustive, idx.to_vec());
            assert_eq!(
                f.factorize(&set, &noisy, &mut r).unwrap().indices,
                idx.to_vec()
            );
        }
    }

    #[test]
    fn clean_query_is_factorized_exactly() {
        let (set, mut r) = standard_set(100, &[10, 10, 10], 1024);
        let query = set.bind_indices(&[2, 7, 4]).unwrap();
        let f = Factorizer::default();
        let result = f.factorize(&set, &query, &mut r).unwrap();
        assert_eq!(result.indices, vec![2, 7, 4]);
        assert!(result.converged);
        assert!(result.similarity > 0.9);
    }

    #[test]
    fn noisy_query_is_factorized_correctly() {
        let (set, mut r) = standard_set(101, &[8, 8, 8], 1024);
        let clean = set.bind_indices(&[1, 6, 3]).unwrap();
        let noisy = ops::flip_noise(&clean, 0.1, &mut r);
        let f = Factorizer::default();
        let result = f.factorize(&set, &noisy, &mut r).unwrap();
        assert_eq!(result.indices, vec![1, 6, 3]);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let (set, mut r) = standard_set(102, &[4, 4], 256);
        let query = Hypervector::zeros(128);
        let f = Factorizer::default();
        assert!(f.factorize(&set, &query, &mut r).is_err());
    }

    #[test]
    fn an_empty_codebook_fails_typed_on_both_engines() {
        let (set, mut r) = standard_set(104, &[4, 0], 128);
        let query = Hypervector::random_bipolar(128, &mut r);
        for backend in [BackendKind::Packed, BackendKind::Reference] {
            let f = Factorizer::new(FactorizerConfig::default().with_backend(backend));
            assert!(
                matches!(
                    f.factorize(&set, &query, &mut r),
                    Err(VsaError::Empty { .. })
                ),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn without_stochasticity_still_converges_on_easy_problems() {
        let (set, mut r) = standard_set(103, &[6, 6], 512);
        let query = set.bind_indices(&[5, 0]).unwrap();
        let f = Factorizer::new(FactorizerConfig::without_stochasticity());
        let result = f.factorize(&set, &query, &mut r).unwrap();
        assert_eq!(result.indices, vec![5, 0]);
        assert!(result.converged);
    }

    #[test]
    fn stochasticity_reduces_iterations_on_hard_problems() {
        // Paper claim (Tab. VIII context, Sec. IV-B): noise injection speeds up
        // convergence. Compare average iteration counts over several hard queries
        // (small dimension relative to the product-space size).
        let mut iters_with = 0usize;
        let mut iters_without = 0usize;
        let trials = 12;
        for t in 0..trials {
            let (set, mut r) = standard_set(200 + t, &[12, 12, 12], 256);
            let query = set.bind_indices(&[3, 9, 11]).unwrap();

            let with = Factorizer::new(FactorizerConfig::default())
                .factorize(&set, &query, &mut r)
                .unwrap();
            let without = Factorizer::new(FactorizerConfig::without_stochasticity())
                .factorize(&set, &query, &mut r)
                .unwrap();
            iters_with += with.iterations;
            iters_without += without.iterations;
        }
        // Noise should not be dramatically worse; typically it is equal or better on
        // hard instances because the deterministic iteration gets stuck in cycles.
        assert!(
            iters_with as f64 <= iters_without as f64 * 1.5,
            "with noise: {iters_with}, without: {iters_without}"
        );
    }

    #[test]
    fn limit_cycle_detection_flags_stuck_runs() {
        // An adversarially tiny dimension with many combinations usually cannot be
        // factorized; the deterministic iteration should terminate early via limit-cycle
        // detection rather than burning the whole budget.
        let (set, mut r) = standard_set(300, &[16, 16, 16], 32);
        let query = set.bind_indices(&[0, 1, 2]).unwrap();
        let config = FactorizerConfig {
            max_iterations: 500,
            stochasticity: StochasticityConfig::disabled(),
            ..FactorizerConfig::default()
        };
        let result = Factorizer::new(config)
            .factorize(&set, &query, &mut r)
            .unwrap();
        if !result.converged {
            assert!(
                result.limit_cycle || result.iterations == 500,
                "non-converged run should be explained"
            );
        }
    }

    #[test]
    fn int8_precision_still_factorizes() {
        let (set, mut r) = standard_set(104, &[8, 8, 8], 1024);
        let query = set.bind_indices(&[7, 2, 5]).unwrap();
        let f = Factorizer::new(FactorizerConfig::default().with_precision(Precision::Int8));
        let result = f.factorize(&set, &query, &mut r).unwrap();
        assert_eq!(result.indices, vec![7, 2, 5]);
    }

    #[test]
    fn fp8_precision_still_factorizes() {
        let (set, mut r) = standard_set(105, &[8, 8, 8], 1024);
        let query = set.bind_indices(&[0, 3, 6]).unwrap();
        let f = Factorizer::new(FactorizerConfig::default().with_precision(Precision::Fp8));
        let result = f.factorize(&set, &query, &mut r).unwrap();
        assert_eq!(result.indices, vec![0, 3, 6]);
    }

    #[test]
    fn circular_convolution_binding_is_supported() {
        let mut r = rng(106);
        let set = CodebookSet::random(&[6, 6], 2048, BindingOp::CircularConvolution, &mut r);
        let query = set.bind_indices(&[4, 2]).unwrap();
        let config = FactorizerConfig {
            convergence_threshold: 0.3,
            ..FactorizerConfig::default()
        };
        let result = Factorizer::new(config)
            .factorize(&set, &query, &mut r)
            .unwrap();
        assert_eq!(result.indices, vec![4, 2]);
    }

    #[test]
    fn result_matches_helper() {
        let r = FactorizationResult {
            indices: vec![1, 2],
            similarity: 1.0,
            iterations: 1,
            converged: true,
            limit_cycle: false,
        };
        assert!(r.matches(&[1, 2]));
        assert!(!r.matches(&[2, 1]));
    }

    #[test]
    #[should_panic(expected = "invalid factorizer configuration")]
    fn invalid_config_panics_at_construction() {
        let c = FactorizerConfig {
            max_iterations: 0,
            ..FactorizerConfig::default()
        };
        let _ = Factorizer::new(c);
    }

    #[test]
    #[should_panic(expected = "invalid factorizer configuration")]
    fn negative_sigma_panics_at_construction() {
        // Regression: a negative sigma used to survive construction and explode as an
        // expect-panic deep inside the per-iteration noise call.
        let mut c = FactorizerConfig::default();
        c.stochasticity.projection_sigma = -1.0;
        let _ = Factorizer::new(c);
    }

    #[test]
    fn factorize_matrix_bits_equals_dense_queries() {
        // Pre-packed queries through the packed engine return exactly what the f32
        // entry point returns — the end-to-end packed path is a pure perf transform.
        let (set, mut r) = standard_set(408, &[8, 8, 8], 512);
        let queries: Vec<Hypervector> = [[0usize, 1, 2], [7, 6, 5], [3, 3, 3], [2, 0, 7]]
            .iter()
            .map(|t| ops::flip_noise(&set.bind_indices(t).unwrap(), 0.05, &mut r))
            .collect();
        let matrix = HvMatrix::from_rows(&queries).unwrap();
        let bits = BitMatrix::from_matrix(&matrix).unwrap();
        let factorizer =
            Factorizer::new(FactorizerConfig::default().with_backend(BackendKind::Packed));
        assert!(factorizer.packed_pipeline(&set));

        let mut s1: Vec<_> = (0..4).map(StdRng::seed_from_u64).collect();
        let mut s2: Vec<_> = (0..4).map(StdRng::seed_from_u64).collect();
        let dense = factorizer
            .factorize_matrix_scratch(&set, &matrix, &mut s1, &mut FactorizerScratch::default())
            .unwrap();
        let packed = factorizer
            .factorize_matrix_bits_scratch(&set, &bits, &mut s2, &mut FactorizerScratch::default())
            .unwrap();
        assert_eq!(dense, packed);

        // Error paths: stream-count and dimension mismatches are reported.
        let mut bad: Vec<_> = (0..2).map(StdRng::seed_from_u64).collect();
        assert!(factorizer
            .factorize_matrix_bits_scratch(&set, &bits, &mut bad, &mut FactorizerScratch::default())
            .is_err());
        let narrow = BitMatrix::zeros(4, 128);
        let mut s3: Vec<_> = (0..4).map(StdRng::seed_from_u64).collect();
        assert!(factorizer
            .factorize_matrix_bits_scratch(
                &set,
                &narrow,
                &mut s3,
                &mut FactorizerScratch::default()
            )
            .is_err());
    }

    #[test]
    fn factorize_matrix_bits_falls_back_without_packed_pipeline() {
        // On a dense backend the packed queries are unpacked once and the dense
        // engine runs; results equal the f32 entry point on the same streams.
        let (set, mut r) = standard_set(409, &[6, 6], 512);
        let query = ops::flip_noise(&set.bind_indices(&[2, 5]).unwrap(), 0.05, &mut r);
        let matrix = HvMatrix::from_hypervector(&query);
        let bits = BitMatrix::from_matrix(&matrix).unwrap();
        let factorizer =
            Factorizer::new(FactorizerConfig::default().with_backend(BackendKind::Reference));
        assert!(!factorizer.packed_pipeline(&set));
        let mut s1 = [StdRng::seed_from_u64(9)];
        let mut s2 = [StdRng::seed_from_u64(9)];
        let dense = factorizer
            .factorize_matrix_scratch(&set, &matrix, &mut s1, &mut FactorizerScratch::default())
            .unwrap();
        let packed = factorizer
            .factorize_matrix_bits_scratch(&set, &bits, &mut s2, &mut FactorizerScratch::default())
            .unwrap();
        assert_eq!(dense, packed);
        assert_eq!(dense[0].indices, vec![2, 5]);
    }

    #[test]
    fn factorize_batch_equals_per_query_factorize() {
        // The satellite regression: batching must be a pure performance transform.
        // Stochasticity stays ON — per-query noise streams make the paths identical.
        let (set, mut r) = standard_set(400, &[8, 8, 8], 512);
        let tuples = [[0usize, 1, 2], [7, 6, 5], [3, 3, 3], [2, 0, 7], [5, 4, 1]];
        let queries: Vec<Hypervector> = tuples
            .iter()
            .map(|t| {
                let clean = set.bind_indices(t).unwrap();
                ops::flip_noise(&clean, 0.05, &mut r)
            })
            .collect();
        let factorizer = Factorizer::default();

        let mut rng_batch = rng(777);
        let batch = factorize_batch(&factorizer, &set, &queries, &mut rng_batch).unwrap();

        let mut rng_single = rng(777);
        for (q, query) in queries.iter().enumerate() {
            let single = factorizer.factorize(&set, query, &mut rng_single).unwrap();
            assert_eq!(batch[q], single, "query {q}");
        }
    }

    #[test]
    fn batch_of_empty_queries_is_empty() {
        let (set, mut r) = standard_set(402, &[4, 4], 128);
        let results = factorize_batch(&Factorizer::default(), &set, &[], &mut r).unwrap();
        assert!(results.is_empty());
    }

    #[test]
    fn packed_backend_decodes_identically_to_reference() {
        // The packed resonator's similarity values are the exact integer dot products,
        // so on the same noise streams its decisions match the dense engines.
        let (set, mut r) = standard_set(403, &[8, 8, 8], 1024);
        let query = ops::flip_noise(&set.bind_indices(&[5, 1, 7]).unwrap(), 0.05, &mut r);
        let reference =
            Factorizer::new(FactorizerConfig::default().with_backend(BackendKind::Reference));
        let packed = Factorizer::new(FactorizerConfig::default().with_backend(BackendKind::Packed));
        let mut r1 = rng(66);
        let mut r2 = rng(66);
        let a = reference.factorize(&set, &query, &mut r1).unwrap();
        let b = packed.factorize(&set, &query, &mut r2).unwrap();
        assert_eq!(a.indices, b.indices);
        assert_eq!(a.converged, b.converged);
        assert_eq!(a.iterations, b.iterations);
        assert!((a.similarity - b.similarity).abs() < 1e-4);
        assert_eq!(a.indices, vec![5, 1, 7]);
    }

    #[test]
    fn packed_backend_batch_equals_per_query() {
        // Batching on the packed engine is a pure performance transform too.
        let (set, mut r) = standard_set(404, &[8, 8], 512);
        let tuples = [[0usize, 1], [7, 6], [3, 3], [2, 0]];
        let queries: Vec<Hypervector> = tuples
            .iter()
            .map(|t| ops::flip_noise(&set.bind_indices(t).unwrap(), 0.08, &mut r))
            .collect();
        let factorizer =
            Factorizer::new(FactorizerConfig::default().with_backend(BackendKind::Packed));
        let mut rng_batch = rng(888);
        let batch = factorize_batch(&factorizer, &set, &queries, &mut rng_batch).unwrap();
        let mut rng_single = rng(888);
        for (q, query) in queries.iter().enumerate() {
            let single = factorizer.factorize(&set, query, &mut rng_single).unwrap();
            assert_eq!(batch[q], single, "query {q}");
        }
    }

    #[test]
    fn compaction_handles_mixed_convergence_speeds() {
        // Clean queries converge in a couple of iterations while noisy ones keep
        // going, so the packed engine gathers the converged rows out mid-run;
        // results must still equal the per-query path for every row, in the
        // original order, on every backend.
        let (set, mut r) = standard_set(405, &[10, 10], 1024);
        let queries: Vec<Hypervector> = (0..6)
            .map(|i| {
                let clean = set.bind_indices(&[i, 9 - i]).unwrap();
                // Alternate clean and heavily noised rows.
                if i % 2 == 0 {
                    clean
                } else {
                    ops::flip_noise(&clean, 0.25, &mut r)
                }
            })
            .collect();
        for kind in BackendKind::ALL {
            let factorizer = Factorizer::new(FactorizerConfig::default().with_backend(kind));
            let mut rng_batch = rng(999);
            let batch = factorize_batch(&factorizer, &set, &queries, &mut rng_batch).unwrap();
            let mut rng_single = rng(999);
            for (q, query) in queries.iter().enumerate() {
                let single = factorizer.factorize(&set, query, &mut rng_single).unwrap();
                assert_eq!(batch[q], single, "{kind} query {q}");
            }
            // The clean rows really do converge early (packed compaction was exercised).
            assert!(batch[0].converged && batch[0].iterations < 50, "{kind}");
        }
    }

    #[test]
    fn packed_backend_falls_back_for_circular_binding() {
        // HRR/circular binding has no packed reduction; BackendKind::Packed must
        // transparently produce the dense backend's results.
        let mut r = rng(406);
        let set = CodebookSet::random(&[6, 6], 2048, BindingOp::CircularConvolution, &mut r);
        let query = set.bind_indices(&[4, 2]).unwrap();
        let config = FactorizerConfig {
            convergence_threshold: 0.3,
            ..FactorizerConfig::default()
        };
        let mut r1 = rng(21);
        let mut r2 = rng(21);
        let a = Factorizer::new(config.clone().with_backend(BackendKind::Reference))
            .factorize(&set, &query, &mut r1)
            .unwrap();
        let b = Factorizer::new(config.with_backend(BackendKind::Packed))
            .factorize(&set, &query, &mut r2)
            .unwrap();
        assert_eq!(a.indices, b.indices);
        assert_eq!(a.indices, vec![4, 2]);
    }

    #[test]
    fn packed_backend_decodes_reduced_precision_on_sign_planes() {
        // Sub-FP32 precisions keep the packed engine: its projection epilogue
        // quantizes each projected row before the sign pack, where the dense
        // engine quantizes before its threshold, so both decide identically on
        // the same streams.
        let (set, mut r) = standard_set(407, &[8, 8, 8], 1024);
        let query = ops::flip_noise(&set.bind_indices(&[7, 2, 5]).unwrap(), 0.05, &mut r);
        for precision in [Precision::Int8, Precision::Fp8] {
            let config = FactorizerConfig::default().with_precision(precision);
            let packed = Factorizer::new(config.clone().with_backend(BackendKind::Packed));
            let reference = Factorizer::new(config.with_backend(BackendKind::Reference));
            assert!(packed.packed_pipeline(&set), "{precision:?}");
            let a = reference.factorize(&set, &query, &mut rng(67)).unwrap();
            let b = packed.factorize(&set, &query, &mut rng(67)).unwrap();
            assert_eq!(
                (&a.indices, a.iterations, a.converged, a.limit_cycle),
                (&b.indices, b.iterations, b.converged, b.limit_cycle),
                "{precision:?}"
            );
            assert!((a.similarity - b.similarity).abs() < 1e-4, "{precision:?}");
            assert_eq!(b.indices, vec![7, 2, 5], "{precision:?}");
        }
    }

    #[test]
    fn noise_sample_consumes_one_generator_word() {
        let noise = BoundedNoise::for_sigma(0.5).unwrap();
        for k in [0, 1, 2, 7, 100] {
            let mut sampled = StdRng::seed_from_u64(0xA11CE ^ k);
            let mut advanced = sampled.clone();
            for _ in 0..k {
                noise.sample(&mut sampled);
                advanced.next_u64();
            }
            assert_eq!(sampled, advanced, "{k} samples");
        }
    }

    #[test]
    fn noise_samples_are_triangular_within_the_amplitude() {
        // 2^20 samples: every one inside the support, the first two moments within
        // 4 standard errors of (0, sigma²), and a 16-bin chi-square against the
        // triangular density below the 0.1% critical value of 15 degrees of
        // freedom (37.70).
        const N: usize = 1 << 20;
        const BINS: usize = 16;
        let sigma = 0.7_f64;
        let noise = BoundedNoise::for_sigma(sigma as f32).unwrap();
        let a = noise.amplitude();
        let mut r = StdRng::seed_from_u64(0x7E1A);
        let (mut sum, mut sum_sq) = (0.0_f64, 0.0_f64);
        let mut counts = [0usize; BINS];
        for _ in 0..N {
            let z = noise.sample(&mut r);
            assert!(z.abs() <= a, "sample {z} outside ±{a}");
            let z = f64::from(z);
            sum += z;
            sum_sq += z * z;
            let x = z / f64::from(a);
            counts[(((x + 1.0) * BINS as f64 / 2.0) as usize).min(BINS - 1)] += 1;
        }
        let n = N as f64;
        let mean = sum / n;
        assert!(mean.abs() < 4.0 * sigma / n.sqrt(), "mean {mean}");
        // The triangular distribution's fourth moment is 2.4·sigma⁴, so the
        // second-moment estimate has standard error sqrt(1.4 / n)·sigma².
        let var = sum_sq / n;
        let var_se = (1.4 / n).sqrt() * sigma * sigma;
        assert!((var - sigma * sigma).abs() < 4.0 * var_se, "variance {var}");
        // CDF of the triangular density on [-1, 1] (in units of the amplitude).
        let cdf = |x: f64| {
            if x < 0.0 {
                (1.0 + x).powi(2) / 2.0
            } else {
                1.0 - (1.0 - x).powi(2) / 2.0
            }
        };
        let chi2: f64 = counts
            .iter()
            .enumerate()
            .map(|(i, &observed)| {
                let edge = |j: usize| -1.0 + 2.0 * j as f64 / BINS as f64;
                let expected = n * (cdf(edge(i + 1)) - cdf(edge(i)));
                (observed as f64 - expected).powi(2) / expected
            })
            .sum();
        assert!(chi2 < 37.70, "chi-square {chi2} over {counts:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        #[test]
        fn prop_random_queries_factorize(seed in 0u64..30, i0 in 0usize..6, i1 in 0usize..6) {
            let (set, mut r) = standard_set(seed, &[6, 6], 1024);
            let query = set.bind_indices(&[i0, i1]).unwrap();
            let result = Factorizer::default().factorize(&set, &query, &mut r).unwrap();
            prop_assert_eq!(result.indices, vec![i0, i1]);
        }

        /// `perturb_signs` on a dense row (the projection epilogue through
        /// `BitMatrix::pack_projected_row`) is bitwise-equal to the
        /// element-wise reference rule, `fake_quantize_slice` and the sign
        /// pack at every precision — identical values, identical signs AND
        /// identical rng stream afterwards (equal state, equal next draw). Eligibility is either
        /// scattered element by element inside every word (the resonator's real
        /// accumulators) or set per 64-dim block (whole words eligible,
        /// ineligible or mixed), across non-multiple-of-64 lengths and lengths
        /// past the 4,096-dim block of masks staged per call (one and two blocks
        /// plus a ragged word), with the edge values placed at scattered
        /// positions inside words, in the first block and past it:
        /// `|v| == amplitude` (draws), NaN (never draws), ±0.0 (draws).
        #[test]
        fn prop_masked_noise_matches_elementwise(
            seed in 0u64..200,
            sigma_centi in 1u32..80,
            scatter_sel in 0usize..2,
        ) {
            let scattered = scatter_sel == 1;
            let sigma = sigma_centi as f32 / 100.0;
            let noise = BoundedNoise::for_sigma(sigma).unwrap();
            let a = noise.amplitude();
            let mut r = cogsys_vsa::rng(seed);
            for len in [1usize, 7, 63, 64, 130, 321, 4097, 8197] {
                let mut values: Vec<f32> = (0..len)
                    .map(|j| {
                        let regime = if scattered {
                            r.gen_range(0..3)
                        } else {
                            (j / 64 + seed as usize) % 3
                        };
                        let scale = match regime {
                            0 => a * 0.5,
                            1 => a * 4.0,
                            _ => a * 2.0,
                        };
                        (r.gen::<f32>() - 0.5) * 2.0 * scale
                    })
                    .collect();
                let edges = [a, -a, f32::NAN, -0.0, 0.0];
                for (k, edge) in edges.iter().enumerate() {
                    for j in [k * 13 + seed as usize, k * 4099 + 7 * seed as usize] {
                        values[j % len] = *edge;
                    }
                }
                for precision in Precision::all() {
                    let mut fast = values.clone();
                    let mut slow = values.clone();
                    let mut rng_fast = StdRng::seed_from_u64(seed ^ 0xE0);
                    let mut rng_slow = StdRng::seed_from_u64(seed ^ 0xE0);
                    let mut fast_signs = BitMatrix::zeros(1, len);
                    fast_signs.pack_projected_row(0, &mut fast, |row| {
                        noise.perturb_signs(row, &mut rng_fast, precision)
                    });
                    noise.perturb_signs_elementwise(&mut slow, &mut rng_slow);
                    fake_quantize_slice(&mut slow, precision);
                    let mut slow_signs = BitMatrix::zeros(1, len);
                    slow_signs.pack_signs_row(0, &slow);
                    let fast_bits: Vec<u32> = fast.iter().map(|v| v.to_bits()).collect();
                    let slow_bits: Vec<u32> = slow.iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!((len, precision, fast_bits), (len, precision, slow_bits));
                    prop_assert_eq!(&fast_signs, &slow_signs);
                    // Same number of draws consumed: the streams stay in lockstep.
                    prop_assert_eq!((len, &rng_fast), (len, &rng_slow));
                    prop_assert_eq!(rng_fast.gen::<u64>(), rng_slow.gen::<u64>());
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Limit-cycle exits decide identically on both engines: the dense engine
        /// fingerprints its f32 estimates through the packed sign convention, so on
        /// the same noise streams a stuck row stops at the same iteration with the
        /// same decode — at power-of-two, word-multiple and ragged dimensions.
        #[test]
        fn prop_packed_and_dense_agree_on_stuck_rows(seed in 0u64..1000, dim_sel in 0usize..4) {
            let dim = [256usize, 200, 512, 448][dim_sel];
            let (set, mut r) = standard_set(seed, &[8, 8, 8], dim);
            // Rows flipped at 30% cap the rebind cosine near 0.4, far below the 0.9
            // threshold, so they never converge; the lightly noised rows do.
            let queries: Vec<Hypervector> = (0..8)
                .map(|i| {
                    let clean = set.bind_indices(&[i, (i + 3) % 8, (5 * i) % 8]).unwrap();
                    ops::flip_noise(&clean, if i % 2 == 0 { 0.3 } else { 0.02 }, &mut r)
                })
                .collect();
            let matrix = HvMatrix::from_rows(&queries).unwrap();
            let decode = |kind: BackendKind| {
                let config = FactorizerConfig::default()
                    .with_max_iterations(60)
                    .with_backend(kind);
                let mut streams: Vec<_> = (0..8).map(|q| StdRng::seed_from_u64(seed ^ q)).collect();
                Factorizer::new(config)
                    .factorize_matrix_scratch(&set, &matrix, &mut streams, &mut FactorizerScratch::default())
                    .unwrap()
            };
            let dense = decode(BackendKind::Reference);
            let packed = decode(BackendKind::Packed);
            prop_assert!(dense.iter().any(|d| d.limit_cycle), "no stuck row exited: {:?}", dense);
            let decisions = |results: &[FactorizationResult]| -> Vec<_> {
                results
                    .iter()
                    .map(|r| (r.indices.clone(), r.iterations, r.converged, r.limit_cycle))
                    .collect()
            };
            prop_assert_eq!(decisions(&dense), decisions(&packed));
            for (d, p) in dense.iter().zip(&packed) {
                prop_assert!((d.similarity - p.similarity).abs() < 1e-4);
            }
        }
    }
}
