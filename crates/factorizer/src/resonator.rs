//! The iterative resonator factorization loop, executed as batch kernels.
//!
//! The three factorization steps (unbind → similarity search → projection, Fig. 8) are
//! phrased over [`HvMatrix`] batches and dispatched through a [`VsaBackend`], so one
//! `Factorizer` can decode a single query or a whole panel batch with the same code
//! path. Every query in a batch carries its own derived noise stream, which makes
//! [`Factorizer::factorize_matrix_scratch`] return *exactly* the results of calling
//! [`Factorizer::factorize`] per query — batching is a pure performance transform.

use crate::config::FactorizerConfig;
use cogsys_vsa::batch::{HvMatrix, VsaBackend};
use cogsys_vsa::codebook::{BindingOp, CodebookSet};
use cogsys_vsa::packed::{
    amplitude_mask_fn, BitMatrix, CleanupScratch, ResonatePhase, PROJ_LANE_ROWS,
};
use cogsys_vsa::quant::fake_quantize_slice;
use cogsys_vsa::{ops, Hypervector, VsaError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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
/// no per-query state. The configured [`cogsys_vsa::BackendKind`] decides how the batch
/// kernels execute.
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
/// exactly `sigma²`), sampled as the difference of two uniform draws from the query's
/// private stream.
///
/// Two properties make this the right noise source for the resonator's hot loop:
///
/// * **Cheap.** One sample is two generator words and a multiply. The Box–Muller
///   Gaussian it replaces spent ~10× longer in `ln`/`cos` per sample, and the
///   projection step consumes one sample per *dimension* per factor per iteration —
///   profiling showed noise generation, not VSA arithmetic, dominating the whole
///   solver (≈230 µs vs ≈46 µs per row-iteration at d = 2048).
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

/// Dimensions per eligibility mask in [`BoundedNoise::perturb_signs`]: matches the
/// 64-bit word width of the packed sign planes, so one mask corresponds to one
/// whole word of the downstream [`cogsys_vsa::BitMatrix`] row.
const NOISE_CHUNK_DIMS: usize = 64;

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
    /// The uniforms are 24-bit multiples of 2⁻²⁴ in `[0, 1)`, so the difference is
    /// exact in `f32` and the bound is tight (`|z| ≤ amplitude` after rounding).
    #[inline]
    fn sample(&self, rng: &mut StdRng) -> f32 {
        let u1: f32 = rng.gen();
        let u2: f32 = rng.gen();
        (u1 - u2) * self.amplitude
    }

    /// Adds one sample to every element — the similarity-step perturbation, where the
    /// scores feed a global argmax and no element can be proven irrelevant.
    pub fn perturb_all(&self, values: &mut [f32], rng: &mut StdRng) {
        for v in values {
            *v += self.sample(rng);
        }
    }

    /// Adds one sample to every element whose **sign** the noise could possibly flip
    /// — the projection-step perturbation. `|v| > amplitude ≥ |z|` bounds `v + z`
    /// strictly away from zero on the same side as `v` (two finite `f32`s only sum
    /// to ±0.0 when they are exact negatives, which the strict bound excludes), so
    /// on the FP32 path — where the sign threshold directly follows — the skipped
    /// draw is provably dead weight. At sub-FP32 precisions `fake_quantize` sits
    /// between the noise and the sign threshold and the skip is *not* equivalent to
    /// a full-sampling run (quantization can move a near-zero value across zero and
    /// its row-global Int8 scale couples elements); it remains a well-defined noise
    /// model there because the skip rule is deterministic in the accumulator values.
    /// Skipping changes which stream position lands on which dimension, but every
    /// engine — dense and packed, per-query and batched — runs this same code on
    /// bitwise-identical accumulators, so their skip patterns and therefore their
    /// decisions stay identical at every precision.
    ///
    /// The eligibility test runs a word at a time: the slice is walked in
    /// 64-dimension blocks (one packed sign-plane word), each block's
    /// `|v| <= amplitude` mask comes from one vector compare per eight values
    /// ([`cogsys_vsa::packed::amplitude_mask_fn`], behind the `COGSYS_SIMD`
    /// dispatch), and only the set bits draw, in ascending order. No per-element
    /// branch remains, so eligibility scattered inside a word costs no
    /// mispredictions. This is bitwise-equal to the element-wise rule (exposed as
    /// [`BoundedNoise::perturb_signs_elementwise`] for tests and benchmarks): the
    /// mask holds exactly the elements that rule perturbs, visited in the same
    /// order, so values and rng stream positions agree — NaN included, since the
    /// ordered compare is false for NaN exactly like `NaN.abs() <= a`.
    pub fn perturb_signs(&self, values: &mut [f32], rng: &mut StdRng) {
        let a = self.amplitude;
        let mask_of = amplitude_mask_fn();
        for chunk in values.chunks_mut(NOISE_CHUNK_DIMS) {
            let mut mask = mask_of(chunk, a);
            while mask != 0 {
                chunk[mask.trailing_zeros() as usize] += self.sample(rng);
                mask &= mask - 1;
            }
        }
    }

    /// The element-wise reference rule behind [`BoundedNoise::perturb_signs`],
    /// one branch per element. Kept public so proptests and the `noise_signs`
    /// benchmark can pin the masked path bitwise against it.
    pub fn perturb_signs_elementwise(&self, values: &mut [f32], rng: &mut StdRng) {
        let a = self.amplitude;
        for v in values {
            if v.abs() <= a {
                *v += self.sample(rng);
            }
        }
    }
}

/// Cosine similarity of two rows — the canonical [`ops::cosine_slices`] numerics.
fn cosine_rows(a: &[f32], b: &[f32]) -> f32 {
    ops::cosine_slices(a, b)
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

/// Per-query mutable state of the batched iteration.
///
/// Indexed by the *original* query index throughout; converged queries are compacted
/// out of the batch matrices (see the `order` vectors in the engines) but their state
/// stays here until the results are assembled. Lives in [`FactorizerScratch`] and is
/// [`QueryState::reset`] per call, so the steady state reuses its vectors.
#[derive(Debug, Default)]
struct QueryState {
    sim_sigma: f32,
    proj_sigma: f32,
    /// Noise kernels for the current sigmas, rebuilt only when the schedule decays.
    sim_noise: Option<BoundedNoise>,
    proj_noise: Option<BoundedNoise>,
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
        self.sim_noise = BoundedNoise::for_sigma(self.sim_sigma);
        self.proj_noise = BoundedNoise::for_sigma(self.proj_sigma);
        self.decoded.clear();
        self.decoded.resize(num_factors, 0);
        self.best_indices.clear();
        self.best_indices.resize(num_factors, 0);
        self.best_similarity = f32::NEG_INFINITY;
        self.fingerprints.clear();
        self.result = None;
    }

    /// End-of-iteration bookkeeping for one query: records the rebind `similarity`,
    /// detects convergence and limit cycles, and decays the noise schedule. Returns
    /// `true` when the query is finished and its batch row can be compacted out.
    ///
    /// `fingerprint` hashes the row's estimate state after this iteration; it runs
    /// only for rows that did not converge, and only with detection on.
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
        if window > 0 {
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
            self.sim_noise = BoundedNoise::for_sigma(self.sim_sigma);
            self.proj_noise = BoundedNoise::for_sigma(self.proj_sigma);
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

/// Caller-owned scratch for the resonator engines: every batch matrix, sign plane and
/// bookkeeping vector the iteration touches, reused across calls so a steady-state
/// serving loop allocates nothing in the factorization stage beyond the returned
/// [`FactorizationResult`]s themselves.
///
/// One scratch serves both engines and any sequence of shapes — buffers are reshaped
/// per call (`ensure_shape` keeps the backing storage when the shape repeats). The
/// scratch carries no query state across calls; using a fresh `FactorizerScratch`
/// yields bitwise-identical results, which is what the allocating entry points do.
#[derive(Debug, Default)]
pub struct FactorizerScratch {
    // Shared bookkeeping.
    states: Vec<QueryState>,
    order: Vec<usize>,
    survivors: Vec<usize>,
    sims: HvMatrix,
    // Dense engine.
    query_q: HvMatrix,
    estimates: Vec<HvMatrix>,
    unbound: HvMatrix,
    work: HvMatrix,
    projected: HvMatrix,
    rebound: HvMatrix,
    gather_tmp: HvMatrix,
    /// One estimate row packed to sign planes, for the limit-cycle fingerprint.
    sign_row: BitMatrix,
    // Packed engine.
    query_bits: BitMatrix,
    estimates_bits: Vec<BitMatrix>,
    unbound_bits: BitMatrix,
    /// One row's decoded codevectors XOR-bound together (the rebind check).
    rebound_bits: BitMatrix,
    /// Each batch row's rebind similarity, computed by the last factor's
    /// similarity hook and consumed by the end-of-iteration bookkeeping.
    rebind_sims: Vec<f32>,
    init_bits: BitMatrix,
    proj_acc: Vec<f32>,
    gather_tmp_bits: BitMatrix,
    // Cleanup (decode polish): candidate ordering / partial-distance buffers of the
    // indexed cleanup plus the per-factor result rows, reused across decode calls.
    cleanup: CleanupScratch,
    cleanup_results: Vec<(usize, f32)>,
}

impl FactorizerScratch {
    /// Packs `query_q` into `query_bits`, reporting whether it was exactly bipolar.
    fn pack_query(&mut self) -> bool {
        self.query_bits.pack_from(&self.query_q)
    }

    /// The cleanup scratch and result buffer, borrowed together for the
    /// scratch-reusing cleanup entry points
    /// ([`cogsys_vsa::Codebook::cleanup_batch_bits_into`]).
    pub fn cleanup_buffers(&mut self) -> (&mut CleanupScratch, &mut Vec<(usize, f32)>) {
        (&mut self.cleanup, &mut self.cleanup_results)
    }

    /// Pre-sizes every packed-engine buffer for a decode of up to `rows`
    /// queries of dimension `dim` against `num_factors` codebooks of at most
    /// `max_codebook_rows` rows each — the shapes a compiled solve plan fixes
    /// up front — so the steady-state serving loop never reallocates scratch
    /// mid-stream. `ensure_shape` / `resize` within these bounds reuse the
    /// backing storage (buffers are never shrunk), which
    /// [`FactorizerScratch::packed_capacity_fingerprint`] lets callers assert.
    pub fn reserve_packed(
        &mut self,
        rows: usize,
        dim: usize,
        num_factors: usize,
        max_codebook_rows: usize,
    ) {
        if rows == 0 || dim == 0 {
            return;
        }
        self.states.reserve(rows.saturating_sub(self.states.len()));
        self.order.reserve(rows.saturating_sub(self.order.len()));
        self.survivors
            .reserve(rows.saturating_sub(self.survivors.len()));
        self.rebind_sims
            .reserve(rows.saturating_sub(self.rebind_sims.len()));
        self.sims.ensure_shape(rows, max_codebook_rows.max(1));
        self.query_bits.ensure_shape(rows, dim);
        if self.estimates_bits.len() < num_factors {
            self.estimates_bits
                .resize_with(num_factors, BitMatrix::default);
        }
        for est in self.estimates_bits.iter_mut().take(num_factors) {
            est.ensure_shape(rows, dim);
        }
        // The fused resonator step unbinds one lane block at a time.
        self.unbound_bits.ensure_shape(PROJ_LANE_ROWS, dim);
        self.rebound_bits.ensure_shape(1, dim);
        self.init_bits.ensure_shape(1, dim);
        self.gather_tmp_bits.ensure_shape(rows, dim);
        let proj = PROJ_LANE_ROWS * dim;
        self.proj_acc
            .reserve(proj.saturating_sub(self.proj_acc.len()));
        self.cleanup.reserve_queries(rows);
        self.cleanup_results
            .reserve(rows.saturating_sub(self.cleanup_results.len()));
    }

    /// Capacities of every packed-engine buffer, in a fixed order — equality of
    /// two fingerprints straddling a stream of decode calls proves the calls
    /// allocated no scratch (capacities only ever grow).
    pub fn packed_capacity_fingerprint(&self) -> Vec<usize> {
        let mut fp = vec![
            self.states.capacity(),
            self.order.capacity(),
            self.survivors.capacity(),
            self.rebind_sims.capacity(),
            self.sims.capacity(),
            self.query_bits.word_capacity(),
            self.unbound_bits.word_capacity(),
            self.rebound_bits.word_capacity(),
            self.init_bits.word_capacity(),
            self.gather_tmp_bits.word_capacity(),
            self.proj_acc.capacity(),
            self.cleanup.best_capacity(),
            self.cleanup_results.capacity(),
            self.estimates_bits.capacity(),
        ];
        fp.extend(self.estimates_bits.iter().map(BitMatrix::word_capacity));
        fp
    }
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

    /// The execution backend the batch kernels run on.
    pub fn backend(&self) -> &Arc<dyn VsaBackend> {
        &self.backend
    }

    /// Factorizes `query` against the codebooks in `set`.
    ///
    /// The initial estimate for each factor is the (unnormalised) superposition of all
    /// its codevectors, following the resonator-network convention: the search starts
    /// from "every candidate in superposition" and sharpens each factor in parallel.
    ///
    /// One value is drawn from `rng` to seed the query's private noise stream, so a
    /// sequence of `factorize` calls returns exactly what one
    /// [`Factorizer::factorize_matrix_scratch`] call returns over the same queries
    /// with streams seeded from the same draws.
    ///
    /// # Errors
    /// Propagates [`VsaError`] for dimension mismatches between the query and the
    /// codebooks.
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

    /// The batched resonator engine: factorizes every row of `queries`, driving noise
    /// for row `q` from `streams[q]`.
    ///
    /// Two execution strategies share the same per-query dynamics:
    ///
    /// * a **bit-packed** engine (backend with a packed fast path, Hadamard binding,
    ///   exactly-bipolar queries and codebooks, any precision) that keeps the factor
    ///   estimates as sign planes — unbinding is word-wise XOR and the similarity step
    ///   is popcount — and only round-trips through `f32` for the weighted projection
    ///   accumulator, which it quantizes before the sign threshold like the dense
    ///   engine does;
    /// * the dense engine for everything else.
    ///
    /// Both compact converged rows out of the batch with a gather (scatter happens at
    /// result assembly), so early-converging queries stop consuming kernel lanes.
    /// All batch matrices, sign planes and per-query state live in the caller-owned
    /// `scratch` and are reused across calls, so a steady-state serving loop
    /// allocates nothing in the factorization stage; a fresh scratch gives identical
    /// results.
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] when `queries.dim()` differs from the
    /// codebook dimension or `streams.len() != queries.rows()`.
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

        // Packed fast path (see [`Factorizer::packed_pipeline`]). Quantization maps
        // ±1 to exactly ±1, so a bipolar query still packs at every precision.
        if self.packed_pipeline(set) && scratch.pack_query() {
            return self.factorize_matrix_packed(set, streams, scratch);
        }

        self.factorize_matrix_dense(set, streams, scratch)
    }

    /// Returns `true` when factorizing against `set` runs the bit-packed resonator
    /// engine: Hadamard binding, a backend with a packed fast path, and cached sign
    /// planes on every factor codebook, at any precision. Callers that already hold
    /// packed queries can then stay in sign planes end to end via
    /// [`Factorizer::factorize_matrix_bits_scratch`].
    pub fn packed_pipeline(&self, set: &CodebookSet) -> bool {
        set.binding() == BindingOp::Hadamard
            && self.backend.as_packed().is_some()
            && set.all_packed()
    }

    /// [`Factorizer::factorize_matrix_scratch`] with **bit-packed** queries: the
    /// allocation-free entry point of the end-to-end packed serving path, for callers
    /// that already hold the query batch as sign planes (e.g. a packed-encoded scene
    /// batch), skipping the per-call pack of the dense path.
    ///
    /// On a packed-capable configuration ([`Factorizer::packed_pipeline`]) the bits
    /// feed the packed engine directly; otherwise the queries are unpacked once and
    /// the dense engine runs. Results are identical to calling
    /// [`Factorizer::factorize_matrix_scratch`] on the unpacked queries.
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
        // quantization at every precision, so the dense engine sees exactly the
        // queries the caller packed.
        queries.unpack_into(&mut scratch.query_q);
        self.factorize_matrix_dense(set, streams, scratch)
    }

    /// Dense (`f32`) resonator engine with converged-row compaction. Reads the
    /// already-quantized query batch from `scratch.query_q` (it shrinks in place as
    /// rows converge) and reuses every other buffer from `scratch`.
    // The row loops index parallel structures (states, streams, matrix rows) through
    // the same slot; iterator-zip rewrites would fight the borrow checker for no
    // clarity.
    #[allow(clippy::needless_range_loop)]
    fn factorize_matrix_dense(
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
            query_q,
            estimates,
            unbound,
            work,
            projected,
            rebound,
            gather_tmp,
            sign_row,
            ..
        } = scratch;
        let n = query_q.rows();
        let num_factors = set.num_factors();
        let dim = set.dim();
        let backend = self.backend.as_ref();
        let precision = self.config.precision;

        // Initial estimates: bundle of every codevector in each factor, snapped to
        // bipolar so the Hadamard unbinding stays well-conditioned. The start point is
        // query-independent, hence one broadcast row per factor.
        estimates.resize_with(num_factors, HvMatrix::default);
        for (f, est) in estimates.iter_mut().enumerate() {
            let cb = set.factor(f).expect("factor index in range");
            let init = ops::majority_bundle(cb.iter()).expect("codebooks are non-empty");
            est.ensure_shape(n, dim);
            for slot in 0..n {
                est.row_mut(slot).copy_from_slice(init.values());
            }
        }

        let noise_scale = (dim as f32).sqrt();
        states.resize_with(n, QueryState::default);
        for state in states.iter_mut() {
            state.reset(&self.config, num_factors, noise_scale);
        }
        // `order[slot]` is the original query index occupying batch row `slot`;
        // finished rows are gathered out so every kernel lane always does live work.
        order.clear();
        order.extend(0..n);
        sign_row.ensure_shape(1, dim);

        for iteration in 1..=self.config.max_iterations {
            let rows = order.len();
            if rows == 0 {
                break;
            }

            for f in 0..num_factors {
                let cb_matrix = set.factor(f)?.matrix();

                // Step 1: unbind the contribution of every other factor's estimate.
                // Estimates are updated in place (Gauss–Seidel style), so later factors
                // in the same sweep already see the refreshed earlier factors — this is
                // the "interactive" factorization the paper describes and converges in
                // fewer iterations than a fully synchronous update.
                set.unbind_all_but_batch(backend, query_q, estimates, f, unbound, work)?;
                for slot in 0..rows {
                    fake_quantize_slice(unbound.row_mut(slot), precision);
                }

                // Step 2: similarity search against the factor codebook (one GEMM for
                // the whole batch).
                backend.similarity_matrix_into(cb_matrix, unbound, sims)?;
                for slot in 0..rows {
                    let q = order[slot];
                    if let Some(noise) = &states[q].sim_noise {
                        noise.perturb_all(sims.row_mut(slot), &mut streams[q]);
                    }
                    states[q].decoded[f] = ops::argmax(sims.row(slot)).unwrap_or(0);
                }

                // Step 3: project back into the codevector space and binarise.
                backend.project_batch_into(cb_matrix, sims, projected)?;
                for slot in 0..rows {
                    let q = order[slot];
                    if let Some(noise) = &states[q].proj_noise {
                        noise.perturb_signs(projected.row_mut(slot), &mut streams[q]);
                    }
                    fake_quantize_slice(projected.row_mut(slot), precision);
                    for (est, &v) in estimates[f]
                        .row_mut(slot)
                        .iter_mut()
                        .zip(projected.row(slot))
                    {
                        *est = if v < 0.0 { -1.0 } else { 1.0 };
                    }
                }
            }

            // Convergence check: re-bind the decoded codevectors and compare to the
            // query, batched across rows (scratch ping-pong, no allocation).
            work.ensure_shape(rows, dim);
            rebound.ensure_shape(rows, dim);
            for slot in 0..rows {
                let row_indices = &states[order[slot]].decoded;
                rebound
                    .row_mut(slot)
                    .copy_from_slice(set.factor(0)?.matrix().row(row_indices[0]));
            }
            for f in 1..num_factors {
                for slot in 0..rows {
                    work.row_mut(slot).copy_from_slice(
                        set.factor(f)?.matrix().row(states[order[slot]].decoded[f]),
                    );
                }
                backend.bind_batch_into(rebound, work, set.binding(), unbound)?;
                std::mem::swap(rebound, unbound);
            }

            survivors.clear();
            for slot in 0..rows {
                let q = order[slot];
                let similarity = cosine_rows(rebound.row(slot), query_q.row(slot));
                // Packed with the `v < 0.0` convention of the packed engine's sign
                // planes, so both engines hash — and decide — identically.
                let fingerprint = || {
                    estimates.iter().fold(0, |h, est| {
                        sign_row.pack_signs_row(0, est.row(slot));
                        fingerprint_words(h, sign_row.row_words(0))
                    })
                };
                if !states[q].finish_iteration(&self.config, similarity, iteration, fingerprint) {
                    survivors.push(slot);
                }
            }

            // Gather/scatter compaction: drop finished rows from the batch so the
            // remaining iterations run kernels over live lanes only.
            if survivors.len() < rows {
                query_q.gather_into(survivors, gather_tmp)?;
                std::mem::swap(query_q, gather_tmp);
                for est in estimates.iter_mut() {
                    est.gather_into(survivors, gather_tmp)?;
                    std::mem::swap(est, gather_tmp);
                }
                // Map surviving slots back to original query indices in place, then
                // adopt the mapped vector as the new order.
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

    /// Bit-packed resonator engine (Hadamard binding, bipolar operands, any
    /// precision).
    ///
    /// Factor estimates live as [`BitMatrix`] sign planes. Each factor update is one
    /// call of [`cogsys_vsa::packed::PackedBackend::resonate_step_fused_into`]:
    /// word-wise XOR unbind against the packed query, popcount similarity (exactly
    /// the integer dot products the dense GEMM produces on bipolar inputs), and the
    /// weighted sign projection (noise and sign threshold included, written straight
    /// into the estimate planes). The rebind convergence check runs inside the last
    /// factor's similarity hook — the row's decoded codevector planes XOR-bound
    /// together, then popcount against the query — so a row that converges there
    /// skips that factor's projection, whose estimate nothing would read again. No
    /// dense estimate or projection matrix exists anywhere in this engine. The
    /// projection hook quantizes the perturbed accumulator at the configured
    /// precision right before the sign pack, the point where the dense engine
    /// quantizes before its sign threshold (the unbound and similarity values need
    /// no quantize: sign planes are ±1, which every precision keeps exact).
    /// Decisions (argmax, convergence, limit cycles) are identical to the dense
    /// engine on the same noise streams: every row that survives an iteration
    /// consumes the same draws in the same order, and a converged row's stream is
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
            init_bits,
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
            let cb = set.factor(f).expect("factor index in range");
            let init = ops::majority_bundle(cb.iter()).expect("codebooks are non-empty");
            let row = HvMatrix::from_hypervector(&init);
            assert!(
                init_bits.pack_from(&row),
                "majority bundle output is bipolar"
            );
            init_bits
                .broadcast_row_into(0, n, est)
                .expect("broadcast of row 0");
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
                // One tiled pass over the codebook sign planes per 8-query lane
                // block: unbind, popcount similarity and weighted sign projection
                // share each loaded plane word, and no full-batch unbound plane is
                // materialized. The hook does the per-row work in ascending row
                // order per lane block (similarity perturb + argmax decode, then
                // projection perturb); per-query streams are private, so each
                // query's noise draws are consumed in the order of the unfused
                // unbind → similarity → projection sequence.
                packed.resonate_step_fused_into(
                    cb_planes(f),
                    query_bits,
                    estimates,
                    f,
                    unbound_bits,
                    sims,
                    proj_acc,
                    |phase, slot, row| {
                        let q = order[slot];
                        let state = &mut states[q];
                        match phase {
                            ResonatePhase::Similarity => {
                                if let Some(noise) = &state.sim_noise {
                                    noise.perturb_all(row, &mut streams[q]);
                                }
                                state.decoded[f] = ops::argmax(row).unwrap_or(0);
                                if f < last {
                                    return true;
                                }
                                // Every factor is decoded: rebind them and compare
                                // to the query. A converged row is finished, so its
                                // last projection would never be read.
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
                            }
                            ResonatePhase::Projection => {
                                if let Some(noise) = &state.proj_noise {
                                    noise.perturb_signs(row, &mut streams[q]);
                                }
                                fake_quantize_slice(row, precision);
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

            if survivors.len() < rows {
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
            Factorizer::new(FactorizerConfig::default().with_backend(BackendKind::Parallel));
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
    fn reference_and_parallel_backends_decode_identically() {
        let (set, mut r) = standard_set(401, &[8, 8], 512);
        let query = ops::flip_noise(&set.bind_indices(&[2, 6]).unwrap(), 0.05, &mut r);
        let reference =
            Factorizer::new(FactorizerConfig::default().with_backend(BackendKind::Reference));
        let parallel =
            Factorizer::new(FactorizerConfig::default().with_backend(BackendKind::Parallel));
        let mut r1 = rng(55);
        let mut r2 = rng(55);
        let a = reference.factorize(&set, &query, &mut r1).unwrap();
        let b = parallel.factorize(&set, &query, &mut r2).unwrap();
        // Decoded indices must agree; the similarity score may differ within the
        // backends' 1e-4 cosine contract (lane-split similarity accumulation).
        assert_eq!(a.indices, b.indices);
        assert_eq!(a.converged, b.converged);
        assert!((a.similarity - b.similarity).abs() < 1e-4);
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
        // going, so the converged rows are gathered out mid-run; results must still
        // equal the per-query path for every row, in the original order.
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
            // The clean rows really do converge early (compaction was exercised).
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
        let a = Factorizer::new(config.clone().with_backend(BackendKind::Parallel))
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
        // Sub-FP32 precisions keep the packed engine: its projection hook quantizes
        // the accumulator before the sign pack, where the dense engine quantizes
        // before its threshold, so both decide identically on the same streams.
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        #[test]
        fn prop_random_queries_factorize(seed in 0u64..30, i0 in 0usize..6, i1 in 0usize..6) {
            let (set, mut r) = standard_set(seed, &[6, 6], 1024);
            let query = set.bind_indices(&[i0, i1]).unwrap();
            let result = Factorizer::default().factorize(&set, &query, &mut r).unwrap();
            prop_assert_eq!(result.indices, vec![i0, i1]);
        }

        /// The masked `perturb_signs` is bitwise-equal to the element-wise
        /// reference rule — identical output values AND identical rng stream
        /// position afterwards. Eligibility is either scattered element by element
        /// inside every word (the resonator's real accumulators) or set per 64-dim
        /// block (whole words eligible, ineligible or mixed), across
        /// non-multiple-of-64 lengths, with the edge values placed at scattered
        /// positions inside words: `|v| == amplitude` (draws), NaN (never draws),
        /// ±0.0 (draws).
        #[test]
        fn prop_masked_noise_matches_elementwise(
            seed in 0u64..200,
            len_sel in 0usize..6,
            sigma_centi in 1u32..80,
            scatter_sel in 0usize..2,
        ) {
            let scattered = scatter_sel == 1;
            let len = [1usize, 7, 63, 64, 130, 321][len_sel];
            let sigma = sigma_centi as f32 / 100.0;
            let noise = BoundedNoise::for_sigma(sigma).unwrap();
            let a = noise.amplitude();
            let mut r = cogsys_vsa::rng(seed);
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
                let j = (k * 13 + seed as usize) % len;
                values[j] = *edge;
            }
            let mut fast = values.clone();
            let mut slow = values;
            let mut rng_fast = StdRng::seed_from_u64(seed ^ 0xE0);
            let mut rng_slow = StdRng::seed_from_u64(seed ^ 0xE0);
            noise.perturb_signs(&mut fast, &mut rng_fast);
            noise.perturb_signs_elementwise(&mut slow, &mut rng_slow);
            let fast_bits: Vec<u32> = fast.iter().map(|v| v.to_bits()).collect();
            let slow_bits: Vec<u32> = slow.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(fast_bits, slow_bits);
            // Same number of draws consumed: the streams stay in lockstep.
            prop_assert_eq!(rng_fast.gen::<u64>(), rng_slow.gen::<u64>());
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
