//! Bit-packed bipolar execution layer: XOR/popcount kernels over sign planes.
//!
//! Every hot path in the repository runs bipolar `{-1, +1}` vectors, yet the dense
//! backends push them through `f32` arithmetic — 32× more memory traffic than the
//! algebra needs. For the MAP/Hadamard algebra the classic binary-spatter-code
//! reductions apply exactly:
//!
//! * **bind/unbind** of sign vectors is the XOR of their sign bits,
//! * **dot product** is `d − 2·hamming(a, b)` (so cosine is `1 − 2·hamming/d`),
//! * **bundling** is per-dimension vote counting followed by a sign threshold.
//!
//! [`BitMatrix`] stores one sign plane per hypervector row — 64 dimensions per `u64`
//! word, 32× smaller than the `f32` [`HvMatrix`] it mirrors — and [`PackedBackend`]
//! runs the sign-plane kernels on it. Callers that hold sign planes (the cached
//! codebook planes, the packed resonator, the solver's encoded scenes) reach those
//! kernels through [`VsaBackend::as_packed`]; the backend's `f32` [`VsaBackend`]
//! surface is the dense [`ParallelBackend`], so `BackendKind::Packed` is always safe
//! to select.
//!
//! Sign convention: a set bit means **negative** (`-1.0`), mirroring the IEEE-754 sign
//! bit; `+1.0` packs to 0. The unused tail bits of the last word in each row are kept
//! at zero (see [`BitMatrix::tail_mask`]), which lets every kernel run whole-word
//! XOR/popcount without per-row masking.

use crate::batch::{HvMatrix, ParallelBackend, VsaBackend};
use crate::codebook::BindingOp;
use crate::error::VsaError;
use crate::hypervector::{Hypervector, VsaKind};
use serde::{Deserialize, Serialize};

/// Bits per storage word.
const WORD_BITS: usize = 64;

/// Codebook rows per cache block in the popcount cleanup/similarity kernels.
///
/// A block of 128 rows at d = 4096 is 64 KiB of packed words — resident in L1/L2 while
/// it is streamed against every query, so large codebooks are read from DRAM once per
/// block instead of once per query.
const CODEBOOK_BLOCK_ROWS: usize = 128;

/// Query rows accumulated together per codebook-word pass in the SoA projection
/// kernel ([`PackedBackend::project_signs_packed_into`]).
///
/// Eight lanes turn the projection from "load every sign-plane word once per query"
/// into "once per 8 queries", while the per-word working tile (64 dims × 8 lanes ×
/// 4 B = 2 KiB) stays L1-resident across the whole codebook-row sweep. Public so
/// scratch pre-sizing can bound the fused-kernel lane buffers.
pub const PROJ_LANE_ROWS: usize = 8;

/// Minimum codebook row count at which [`CleanupIndex`] construction and the indexed
/// cleanup path pay off. Below this the linear blocked scan already streams the whole
/// codebook from L1/L2 faster than the sketch pass can rank it, so [`crate::Codebook`]
/// only builds an index for codebooks at least this large.
pub const CLEANUP_INDEX_MIN_ROWS: usize = 512;

/// Rows per chunk in the sketch-distance minimum pass of the indexed cleanup: chunk
/// minima are computed with an autovectorisable `u16` reduction, and refinement later
/// touches only chunks whose minimum beats the running bound.
const SKETCH_CHUNK_ROWS: usize = 64;

/// Words per refinement step in the indexed cleanup: candidates accumulate their exact
/// Hamming distance [`REFINE_CHUNK_WORDS`] words at a time, re-checking the
/// best-so-far bound between steps so provably-worse rows are abandoned early.
const REFINE_CHUNK_WORDS: usize = 4;

/// A dense, row-major batch of **sign planes**: the bit-packed mirror of [`HvMatrix`]
/// for bipolar data.
///
/// Each row holds `dim` sign bits packed into `dim.div_ceil(64)` little-endian `u64`
/// words (bit `j % 64` of word `j / 64` is dimension `j`); a set bit encodes `-1.0`.
/// Rows are padded to a whole number of words and the padding bits are always zero.
///
/// # Example
/// ```
/// use cogsys_vsa::batch::HvMatrix;
/// use cogsys_vsa::packed::BitMatrix;
///
/// let m = HvMatrix::from_vec(vec![1.0, -1.0, -1.0, 1.0], 1, 4).unwrap();
/// let bits = BitMatrix::from_matrix(&m).unwrap();
/// assert_eq!((bits.rows(), bits.dim(), bits.words_per_row()), (1, 4, 1));
/// assert_eq!(bits.row_words(0), &[0b0110]);
/// assert_eq!(bits.to_matrix(), m); // exact round trip
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BitMatrix {
    words: Vec<u64>,
    rows: usize,
    dim: usize,
    words_per_row: usize,
}

/// IEEE sign bits of eight lanes gathered into the low byte — the scalar spelling of
/// a `movmskps`-style extraction. The fixed `[f32; 8]` shape removes bounds checks and
/// the variable per-bit shift of a 64-step loop, so the eight extractions are
/// independent and combine as a tree instead of one serial OR chain.
#[inline]
fn sign_mask8(lane: &[f32; 8]) -> u64 {
    let s = |i: usize| u64::from(lane[i].to_bits() >> 31) << i;
    ((s(0) | s(1)) | (s(2) | s(3))) | ((s(4) | s(5)) | (s(6) | s(7)))
}

/// OR-accumulated "not exactly `±1.0`" detector for eight lanes: `|v| == 1.0` iff the
/// magnitude bits equal those of `1.0`, so the XOR is zero exactly on bipolar input.
#[inline]
fn nonbipolar_mask8(lane: &[f32; 8]) -> u32 {
    let b = |i: usize| (lane[i].to_bits() & 0x7fff_ffff) ^ 0x3f80_0000;
    ((b(0) | b(1)) | (b(2) | b(3))) | ((b(4) | b(5)) | (b(6) | b(7)))
}

/// Negative-mask of eight lanes under the estimate-binarisation convention `v < 0.0`
/// (`-0.0` packs to `+1`, unlike the raw IEEE sign bit).
#[inline]
fn neg_mask8(lane: &[f32; 8]) -> u64 {
    let s = |i: usize| u64::from(lane[i] < 0.0) << i;
    ((s(0) | s(1)) | (s(2) | s(3))) | ((s(4) | s(5)) | (s(6) | s(7)))
}

/// Packs one `f32` row into sign-plane words, returning `false` if any element is not
/// exactly `±1.0` (the packed representation would silently drop magnitudes).
///
/// Branchless: whole 8-lane groups flow through [`sign_mask8`] / [`nonbipolar_mask8`]
/// and the bipolarity verdict is OR-accumulated instead of tested per element, so the
/// first pack at the encode boundary runs at SIMD gather speed rather than one
/// test-and-shift per dimension.
fn pack_row_strict(row: &[f32], words: &mut [u64]) -> bool {
    let mut bad = 0u32;
    for (chunk, word) in row.chunks(WORD_BITS).zip(words.iter_mut()) {
        let mut w = 0u64;
        let mut lanes = chunk.chunks_exact(8);
        for (group, lane) in lanes.by_ref().enumerate() {
            let lane: &[f32; 8] = lane.try_into().expect("chunks_exact(8) yields 8 lanes");
            bad |= nonbipolar_mask8(lane);
            w |= sign_mask8(lane) << (group * 8);
        }
        let tail_base = chunk.len() - lanes.remainder().len();
        for (offset, &v) in lanes.remainder().iter().enumerate() {
            let b = v.to_bits();
            bad |= (b & 0x7fff_ffff) ^ 0x3f80_0000;
            w |= u64::from(b >> 31) << (tail_base + offset);
        }
        *word = w;
    }
    bad == 0
}

/// Packs the *signs* of an arbitrary `f32` row, using the `v < 0.0` convention of the
/// estimate binarisation step (`-0.0` packs to `+1`, unlike the IEEE sign bit).
/// Same unrolled 8-lane structure as [`pack_row_strict`].
fn pack_row_signs(row: &[f32], words: &mut [u64]) {
    for (chunk, word) in row.chunks(WORD_BITS).zip(words.iter_mut()) {
        let mut w = 0u64;
        let mut lanes = chunk.chunks_exact(8);
        for (group, lane) in lanes.by_ref().enumerate() {
            let lane: &[f32; 8] = lane.try_into().expect("chunks_exact(8) yields 8 lanes");
            w |= neg_mask8(lane) << (group * 8);
        }
        let tail_base = chunk.len() - lanes.remainder().len();
        for (offset, &v) in lanes.remainder().iter().enumerate() {
            w |= u64::from(v < 0.0) << (tail_base + offset);
        }
        *word = w;
    }
}

fn unpack_row(words: &[u64], row: &mut [f32]) {
    for (chunk, word) in row.chunks_mut(WORD_BITS).zip(words) {
        for (bit, v) in chunk.iter_mut().enumerate() {
            *v = if (word >> bit) & 1 == 1 { -1.0 } else { 1.0 };
        }
    }
}

/// Portable Hamming distance between two equal-length word rows (tail bits are zero
/// on both sides, so whole-word popcount needs no masking).
#[inline]
fn hamming_generic(a: &[u64], b: &[u64]) -> u32 {
    a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum()
}

/// Function-pointer type of the Hamming kernels behind [`hamming_fn`].
type HammingFn = fn(&[u64], &[u64]) -> u32;

/// Sketch kernel over two SoA planes: `dist[r] = popcount(q0 ^ p0[r]) +
/// popcount(q1 ^ p1[r])` (overwrite).
type SketchPairFn = fn(u64, u64, &[u64], &[u64], &mut [u16]);

/// Sketch kernel over one SoA plane, either overwriting (`dist[r] = …`) or
/// accumulating (`dist[r] += …`) per-row popcounts against a single query word.
type SketchPlaneFn = fn(u64, &[u64], &mut [u16]);

/// Portable two-plane sketch sweep (overwrite form).
fn sketch_pair_generic(q0: u64, q1: u64, p0: &[u64], p1: &[u64], dist: &mut [u16]) {
    for ((slot, &a), &b) in dist.iter_mut().zip(p0).zip(p1) {
        *slot = ((q0 ^ a).count_ones() + (q1 ^ b).count_ones()) as u16;
    }
}

/// Portable one-plane sketch sweep (overwrite form).
fn sketch_one_generic(q: u64, plane: &[u64], dist: &mut [u16]) {
    for (slot, &a) in dist.iter_mut().zip(plane) {
        *slot = (q ^ a).count_ones() as u16;
    }
}

/// Portable one-plane sketch sweep (accumulate form).
fn sketch_accum_generic(q: u64, plane: &[u64], dist: &mut [u16]) {
    for (slot, &a) in dist.iter_mut().zip(plane) {
        *slot += (q ^ a).count_ones() as u16;
    }
}

/// SIMD width the Hamming kernels resolved to on this CPU (see [`dispatch_tier`]).
///
/// The tiers are ordered: each is at least as wide as the previous, and runtime
/// dispatch picks the widest tier the running CPU supports. The `COGSYS_SIMD`
/// environment variable (`generic` / `popcnt` / `avx2` / `avx512`, read once at the
/// first kernel call) *caps* the tier — useful for measuring one rung against the
/// next on the same host, never for enabling an unsupported one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DispatchTier {
    /// Portable `u64::count_ones()` — a ~12-operation bit hack on baseline x86-64.
    Generic,
    /// Scalar `popcnt` instruction, four independent accumulators.
    Popcnt,
    /// Harley–Seal carry-save adder tree over 256-bit AVX2 lanes (nibble-LUT
    /// `vpshufb` popcount), with a plain lookup loop below one 64-word block.
    Avx2,
    /// AVX-512 `vpopcntq` (VPOPCNTDQ): hardware popcount of eight words per lane.
    Avx512,
}

impl DispatchTier {
    /// Lower-case tier label used in bench output and CI logs.
    pub fn as_str(self) -> &'static str {
        match self {
            DispatchTier::Generic => "generic",
            DispatchTier::Popcnt => "popcnt",
            DispatchTier::Avx2 => "avx2",
            DispatchTier::Avx512 => "avx512",
        }
    }
}

impl std::fmt::Display for DispatchTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Runtime-dispatched SIMD Hamming kernels.
///
/// This module is the crate's **single scoped `unsafe_code` exception** (see the
/// crate-level lint note): `#[target_feature]` functions cannot be called or coerced
/// without `unsafe` even after cpuid verification, and the AVX loads go through raw
/// pointers. Every function here is only reachable through [`detect`], which gates
/// each tier on `is_x86_feature_detected!`.
#[cfg(target_arch = "x86_64")]
mod simd {
    #![allow(unsafe_code)]

    use std::arch::x86_64::*;

    /// Hamming distance compiled with the `popcnt` target feature enabled.
    ///
    /// The workspace builds for baseline x86-64, where `u64::count_ones()` lowers to
    /// a ~12-operation bit-twiddling sequence; with the feature enabled it is a
    /// single `popcnt` instruction. Four independent accumulators break the serial
    /// add chain so the XOR+popcount stream runs at popcount-unit throughput instead
    /// of add latency.
    #[target_feature(enable = "popcnt")]
    fn hamming_popcnt(a: &[u64], b: &[u64]) -> u32 {
        let chunks_a = a.chunks_exact(4);
        let chunks_b = b.chunks_exact(4);
        let tail: u32 = chunks_a
            .remainder()
            .iter()
            .zip(chunks_b.remainder())
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        let mut acc = [0u32; 4];
        for (xa, xb) in chunks_a.zip(chunks_b) {
            acc[0] += (xa[0] ^ xb[0]).count_ones();
            acc[1] += (xa[1] ^ xb[1]).count_ones();
            acc[2] += (xa[2] ^ xb[2]).count_ones();
            acc[3] += (xa[3] ^ xb[3]).count_ones();
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
    }

    /// Per-64-bit-lane popcount of a 256-bit vector: nibble-LUT `vpshufb` counts
    /// summed per lane by `vpsadbw` (Muła's AVX2 popcount building block).
    #[target_feature(enable = "avx2")]
    fn popcount256(v: __m256i) -> __m256i {
        #[rustfmt::skip]
        let lookup = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
        let cnt = _mm256_add_epi8(
            _mm256_shuffle_epi8(lookup, lo),
            _mm256_shuffle_epi8(lookup, hi),
        );
        _mm256_sad_epu8(cnt, _mm256_setzero_si256())
    }

    /// Loads four words from each operand at `i` and XORs them.
    #[target_feature(enable = "avx2")]
    fn load_xor(a: &[u64], b: &[u64], i: usize) -> __m256i {
        debug_assert!(i + 4 <= a.len() && i + 4 <= b.len());
        // SAFETY: callers keep i + 4 <= len on both operands; loadu has no
        // alignment requirement.
        unsafe {
            let va = _mm256_loadu_si256(a.as_ptr().add(i).cast());
            let vb = _mm256_loadu_si256(b.as_ptr().add(i).cast());
            _mm256_xor_si256(va, vb)
        }
    }

    /// Carry-save adder: returns `(carry, sum)` of three one-bit-per-position
    /// addends — the Harley–Seal compression step.
    #[target_feature(enable = "avx2")]
    fn csa(a: __m256i, b: __m256i, c: __m256i) -> (__m256i, __m256i) {
        let u = _mm256_xor_si256(a, b);
        (
            _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c)),
            _mm256_xor_si256(u, c),
        )
    }

    /// AVX2 Hamming distance: Harley–Seal carry-save adder tree over blocks of 16
    /// 256-bit vectors (64 words), then a plain lookup-popcount loop for the
    /// remainder. The CSA tree popcounts one vector of `sixteens` per block instead
    /// of sixteen, trading cheap bitwise ops for 15 of the 16 `vpshufb` reductions —
    /// the Muła/Kurz/Lemire result that pays off exactly at the d ≥ 4096 row widths
    /// of the GEMM/cleanup kernels. Rows shorter than one block skip the tree (and
    /// its fold-out overhead) entirely, keeping small-d dispatch profitable too.
    #[target_feature(enable = "avx2")]
    fn hamming_avx2(a: &[u64], b: &[u64]) -> u32 {
        let mut total = _mm256_setzero_si256();
        let mut i = 0;
        if a.len() >= 64 {
            let mut ones = _mm256_setzero_si256();
            let mut twos = _mm256_setzero_si256();
            let mut fours = _mm256_setzero_si256();
            let mut eights = _mm256_setzero_si256();
            while i + 64 <= a.len() {
                let (twos_a, o1) = csa(ones, load_xor(a, b, i), load_xor(a, b, i + 4));
                let (twos_b, o2) = csa(o1, load_xor(a, b, i + 8), load_xor(a, b, i + 12));
                let (fours_a, t1) = csa(twos, twos_a, twos_b);
                let (twos_a, o3) = csa(o2, load_xor(a, b, i + 16), load_xor(a, b, i + 20));
                let (twos_b, o4) = csa(o3, load_xor(a, b, i + 24), load_xor(a, b, i + 28));
                let (fours_b, t2) = csa(t1, twos_a, twos_b);
                let (eights_a, f1) = csa(fours, fours_a, fours_b);
                let (twos_a, o5) = csa(o4, load_xor(a, b, i + 32), load_xor(a, b, i + 36));
                let (twos_b, o6) = csa(o5, load_xor(a, b, i + 40), load_xor(a, b, i + 44));
                let (fours_a, t3) = csa(t2, twos_a, twos_b);
                let (twos_a, o7) = csa(o6, load_xor(a, b, i + 48), load_xor(a, b, i + 52));
                let (twos_b, o8) = csa(o7, load_xor(a, b, i + 56), load_xor(a, b, i + 60));
                let (fours_b, t4) = csa(t3, twos_a, twos_b);
                let (eights_b, f2) = csa(f1, fours_a, fours_b);
                let (sixteens, e) = csa(eights, eights_a, eights_b);
                ones = o8;
                twos = t4;
                fours = f2;
                eights = e;
                total = _mm256_add_epi64(total, popcount256(sixteens));
                i += 64;
            }
            // Fold the carry levels back in: each level's population counts with
            // weight 16/8/4/2/1.
            total = _mm256_slli_epi64(total, 4);
            total = _mm256_add_epi64(total, _mm256_slli_epi64(popcount256(eights), 3));
            total = _mm256_add_epi64(total, _mm256_slli_epi64(popcount256(fours), 2));
            total = _mm256_add_epi64(total, _mm256_slli_epi64(popcount256(twos), 1));
            total = _mm256_add_epi64(total, popcount256(ones));
        }
        let n4 = a.len() & !3;
        while i < n4 {
            total = _mm256_add_epi64(total, popcount256(load_xor(a, b, i)));
            i += 4;
        }
        let mut lanes = [0u64; 4];
        // SAFETY: `lanes` is exactly 32 bytes; storeu has no alignment requirement.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), total) };
        let tail: u32 = a[n4..]
            .iter()
            .zip(&b[n4..])
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        (lanes.iter().sum::<u64>() as u32) + tail
    }

    /// AVX-512 Hamming distance: `vpopcntq` counts eight words per instruction into
    /// 64-bit lane accumulators; no adder tree is needed because the popcount itself
    /// is one hardware op.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn hamming_avx512(a: &[u64], b: &[u64]) -> u32 {
        let mut acc = _mm512_setzero_si512();
        let n = a.len() & !7;
        let mut i = 0;
        while i < n {
            // SAFETY: i + 8 <= len on both operands; loadu has no alignment
            // requirement.
            let v = unsafe {
                let va = _mm512_loadu_si512(a.as_ptr().add(i).cast());
                let vb = _mm512_loadu_si512(b.as_ptr().add(i).cast());
                _mm512_xor_si512(va, vb)
            };
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
            i += 8;
        }
        let tail: u32 = a[n..]
            .iter()
            .zip(&b[n..])
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        _mm512_reduce_add_epi64(acc) as u32 + tail
    }

    /// Two-plane sketch sweep compiled with hardware `popcnt` (overwrite form); same
    /// body as the generic kernel — the feature gate alone turns each
    /// `count_ones()` into one instruction, and the plane-contiguous SoA layout lets
    /// the compiler keep the whole sweep in a tight load/popcnt/add stream.
    #[target_feature(enable = "popcnt")]
    fn sketch_pair_popcnt(q0: u64, q1: u64, p0: &[u64], p1: &[u64], dist: &mut [u16]) {
        for ((slot, &a), &b) in dist.iter_mut().zip(p0).zip(p1) {
            *slot = ((q0 ^ a).count_ones() + (q1 ^ b).count_ones()) as u16;
        }
    }

    /// One-plane sketch sweep with hardware `popcnt` (overwrite form).
    #[target_feature(enable = "popcnt")]
    fn sketch_one_popcnt(q: u64, plane: &[u64], dist: &mut [u16]) {
        for (slot, &a) in dist.iter_mut().zip(plane) {
            *slot = (q ^ a).count_ones() as u16;
        }
    }

    /// One-plane sketch sweep with hardware `popcnt` (accumulate form).
    #[target_feature(enable = "popcnt")]
    fn sketch_accum_popcnt(q: u64, plane: &[u64], dist: &mut [u16]) {
        for (slot, &a) in dist.iter_mut().zip(plane) {
            *slot += (q ^ a).count_ones() as u16;
        }
    }

    /// One codebook word's ±w update of the SoA projection tile, compiled with
    /// AVX2. The packed sign word is expanded once into eight ymm sign-mask
    /// vectors with variable left shifts (bit `b` lands in the IEEE sign
    /// position of slot `b`), then each lane's 64 accumulator slots take eight
    /// xor+add vector ops — versus 64 scalar shift/mask/xor/add rounds per lane
    /// in the baseline kernel.
    ///
    /// Bitwise identical to [`super::project_tile_word_generic`] by
    /// construction: vectorization runs *across* accumulator slots, never
    /// across addends, so every slot still sums the same ±w sequence in
    /// codebook-row order. An all-zero word yields all-zero masks, which is
    /// exactly the scalar fast path's `+w` broadcast.
    #[target_feature(enable = "avx2")]
    fn project_tile_word_avx2(
        tile: &mut [[f32; super::WORD_BITS]; super::PROJ_LANE_ROWS],
        lanes: &[&[f32]],
        m: usize,
        word: u64,
    ) {
        let sign = _mm256_set1_epi32(i32::MIN);
        // Left-shift counts that carry bit (8g + j) of a 32-bit half into the
        // sign position of group g's lane j: ((half >> (8g + j)) & 1) << 31
        // == (half << (31 - 8g - j)) & SIGN.
        let counts = [
            _mm256_setr_epi32(31, 30, 29, 28, 27, 26, 25, 24),
            _mm256_setr_epi32(23, 22, 21, 20, 19, 18, 17, 16),
            _mm256_setr_epi32(15, 14, 13, 12, 11, 10, 9, 8),
            _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0),
        ];
        let lo = _mm256_set1_epi32(word as u32 as i32);
        let hi = _mm256_set1_epi32((word >> 32) as u32 as i32);
        let mut masks = [_mm256_setzero_si256(); 8];
        for (g, &count) in counts.iter().enumerate() {
            masks[g] = _mm256_and_si256(_mm256_sllv_epi32(lo, count), sign);
            masks[g + 4] = _mm256_and_si256(_mm256_sllv_epi32(hi, count), sign);
        }
        for (row, lane) in tile.iter_mut().zip(lanes) {
            let w = _mm256_set1_epi32(lane[m].to_bits() as i32);
            for (chunk, mask) in row.chunks_exact_mut(8).zip(masks) {
                // SAFETY: chunks_exact_mut(8) guarantees exactly eight f32s;
                // loadu/storeu have no alignment requirement.
                unsafe {
                    let cur = _mm256_loadu_ps(chunk.as_ptr());
                    let addend = _mm256_castsi256_ps(_mm256_xor_si256(w, mask));
                    _mm256_storeu_ps(chunk.as_mut_ptr(), _mm256_add_ps(cur, addend));
                }
            }
        }
    }

    /// `|v| <= amplitude` mask of up to 64 values, compiled with AVX2: eight
    /// lanes per `vcmpps` (ordered compare, so NaN never qualifies) on the
    /// sign-cleared values, their `vmovmskps` bytes shifted into place. A
    /// ragged tail shorter than one vector takes the scalar rule.
    #[target_feature(enable = "avx2")]
    fn amplitude_mask_avx2(values: &[f32], amplitude: f32) -> u64 {
        let magnitude = _mm256_castsi256_ps(_mm256_set1_epi32(i32::MAX));
        let amp = _mm256_set1_ps(amplitude);
        let mut chunks = values.chunks_exact(8);
        let mut mask = 0u64;
        for (g, chunk) in chunks.by_ref().enumerate() {
            // SAFETY: chunks_exact(8) guarantees exactly eight f32s; loadu has
            // no alignment requirement.
            let v = unsafe { _mm256_loadu_ps(chunk.as_ptr()) };
            let le = _mm256_cmp_ps::<_CMP_LE_OQ>(_mm256_and_ps(v, magnitude), amp);
            mask |= u64::from(_mm256_movemask_ps(le) as u8) << (8 * g);
        }
        let tail = chunks.remainder();
        if tail.is_empty() {
            return mask;
        }
        mask | super::amplitude_mask_generic(tail, amplitude) << (values.len() - tail.len())
    }

    /// Safe wrapper over [`amplitude_mask_avx2`]; only reachable after cpuid
    /// detection.
    pub(super) fn amplitude_mask_avx2_checked(values: &[f32], amplitude: f32) -> u64 {
        assert!(
            values.len() <= super::WORD_BITS,
            "one mask word covers 64 values"
        );
        // SAFETY: amplitude_mask_fn() returns this function only when the avx2
        // feature was detected on the running CPU.
        unsafe { amplitude_mask_avx2(values, amplitude) }
    }

    /// Safe wrapper over [`project_tile_word_avx2`]; only reachable after cpuid
    /// detection.
    pub(super) fn project_tile_word_avx2_checked(
        tile: &mut [[f32; super::WORD_BITS]; super::PROJ_LANE_ROWS],
        lanes: &[&[f32]],
        m: usize,
        word: u64,
    ) {
        // SAFETY: project_tile_fn() returns this function only when the avx2
        // feature was detected on the running CPU.
        unsafe { project_tile_word_avx2(tile, lanes, m, word) }
    }

    /// Safe wrapper over [`sketch_pair_popcnt`]; only reachable after cpuid detection.
    pub(super) fn sketch_pair_popcnt_checked(
        q0: u64,
        q1: u64,
        p0: &[u64],
        p1: &[u64],
        dist: &mut [u16],
    ) {
        // SAFETY: sketch_kernels() returns this function only when the popcnt
        // feature was detected on the running CPU.
        unsafe { sketch_pair_popcnt(q0, q1, p0, p1, dist) }
    }

    /// Safe wrapper over [`sketch_one_popcnt`]; only reachable after cpuid detection.
    pub(super) fn sketch_one_popcnt_checked(q: u64, plane: &[u64], dist: &mut [u16]) {
        // SAFETY: sketch_kernels() returns this function only when the popcnt
        // feature was detected on the running CPU.
        unsafe { sketch_one_popcnt(q, plane, dist) }
    }

    /// Safe wrapper over [`sketch_accum_popcnt`]; only reachable after cpuid detection.
    pub(super) fn sketch_accum_popcnt_checked(q: u64, plane: &[u64], dist: &mut [u16]) {
        // SAFETY: sketch_kernels() returns this function only when the popcnt
        // feature was detected on the running CPU.
        unsafe { sketch_accum_popcnt(q, plane, dist) }
    }

    /// Safe wrapper over [`hamming_popcnt`]; only reachable after cpuid detection.
    pub(super) fn hamming_popcnt_checked(a: &[u64], b: &[u64]) -> u32 {
        // SAFETY: detect() returns this function only when the popcnt feature was
        // detected on the running CPU.
        unsafe { hamming_popcnt(a, b) }
    }

    /// Safe wrapper over [`hamming_avx2`]; only reachable after cpuid detection.
    pub(super) fn hamming_avx2_checked(a: &[u64], b: &[u64]) -> u32 {
        // SAFETY: detect() returns this function only when the avx2 feature was
        // detected on the running CPU.
        unsafe { hamming_avx2(a, b) }
    }

    /// Safe wrapper over [`hamming_avx512`]; only reachable after cpuid detection.
    pub(super) fn hamming_avx512_checked(a: &[u64], b: &[u64]) -> u32 {
        // SAFETY: detect() returns this function only when the avx512f and
        // avx512vpopcntdq features were detected on the running CPU.
        unsafe { hamming_avx512(a, b) }
    }
}

/// Probes the CPU once and picks the widest supported Hamming tier, capped by the
/// `COGSYS_SIMD` environment variable when set to a known tier name.
fn detect() -> (DispatchTier, HammingFn) {
    let cap = std::env::var("COGSYS_SIMD")
        .ok()
        .and_then(|v| match v.as_str() {
            "generic" => Some(DispatchTier::Generic),
            "popcnt" => Some(DispatchTier::Popcnt),
            "avx2" => Some(DispatchTier::Avx2),
            "avx512" => Some(DispatchTier::Avx512),
            _ => None,
        })
        .unwrap_or(DispatchTier::Avx512);
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected;
        if cap >= DispatchTier::Avx512
            && is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512vpopcntdq")
        {
            return (DispatchTier::Avx512, simd::hamming_avx512_checked);
        }
        if cap >= DispatchTier::Avx2 && is_x86_feature_detected!("avx2") {
            return (DispatchTier::Avx2, simd::hamming_avx2_checked);
        }
        if cap >= DispatchTier::Popcnt && is_x86_feature_detected!("popcnt") {
            return (DispatchTier::Popcnt, simd::hamming_popcnt_checked);
        }
    }
    let _ = cap;
    (DispatchTier::Generic, hamming_generic)
}

/// The resolved `(tier, kernel)` pair, cached process-wide: after the first call,
/// dispatch is one atomic load — cheap enough that even the single-pair
/// [`BitMatrix::dot_rows`] / [`BitMatrix::cosine_rows`] paths pay no cpuid or env
/// probe per call. The batch kernels still hoist the function pointer outside their
/// row loops so nothing at all sits on the per-row path.
static DISPATCH: std::sync::OnceLock<(DispatchTier, HammingFn)> = std::sync::OnceLock::new();

#[inline]
fn dispatch() -> (DispatchTier, HammingFn) {
    *DISPATCH.get_or_init(detect)
}

/// The SIMD tier the Hamming kernels run at on this CPU (resolved once, cached).
///
/// Surfaced by the `backend_throughput` bench binary so CI logs record which rung
/// produced the numbers.
pub fn dispatch_tier() -> DispatchTier {
    dispatch().0
}

/// Resolves the fastest available Hamming kernel for this CPU (cached; see
/// [`DISPATCH`]). The hot loops fetch the function pointer outside their row loops,
/// so dispatch never sits on the per-row path.
#[inline]
fn hamming_fn() -> HammingFn {
    dispatch().1
}

/// Hamming distance via the best kernel for this CPU (single-shot entry point; the
/// batch kernels hoist [`hamming_fn`] instead).
#[inline]
fn hamming(a: &[u64], b: &[u64]) -> u32 {
    hamming_fn()(a, b)
}

/// The three sketch-sweep kernels of the indexed cleanup, resolved together.
#[derive(Clone, Copy)]
struct SketchKernels {
    pair: SketchPairFn,
    one: SketchPlaneFn,
    accum: SketchPlaneFn,
}

/// Resolves the sketch-sweep kernels for this CPU. Any tier at or above
/// [`DispatchTier::Popcnt`] implies the `popcnt` feature, which is all these
/// word-at-a-time sweeps need — the wide-vector tiers buy nothing extra here because
/// each plane element is a single `u64`.
fn sketch_kernels() -> SketchKernels {
    #[cfg(target_arch = "x86_64")]
    if dispatch_tier() >= DispatchTier::Popcnt && std::arch::is_x86_feature_detected!("popcnt") {
        return SketchKernels {
            pair: simd::sketch_pair_popcnt_checked,
            one: simd::sketch_one_popcnt_checked,
            accum: simd::sketch_accum_popcnt_checked,
        };
    }
    SketchKernels {
        pair: sketch_pair_generic,
        one: sketch_one_generic,
        accum: sketch_accum_generic,
    }
}

/// Function-pointer type of the amplitude-mask kernels behind
/// [`amplitude_mask_fn`]: bit `j` of the result is set iff
/// `|values[j]| <= amplitude`, for slices of at most 64 values.
pub type AmplitudeMaskFn = fn(&[f32], f32) -> u64;

/// Scalar amplitude mask, the reference every SIMD tier must match: bit `j` is
/// set iff `values[j].abs() <= amplitude`. NaN never qualifies (the comparison
/// is false), and `-0.0` qualifies like `0.0`.
///
/// # Panics
/// Panics when `values` holds more than 64 elements.
fn amplitude_mask_generic(values: &[f32], amplitude: f32) -> u64 {
    assert!(values.len() <= WORD_BITS, "one mask word covers 64 values");
    values
        .iter()
        .enumerate()
        .fold(0, |m, (j, v)| m | u64::from(v.abs() <= amplitude) << j)
}

/// Resolves the amplitude-mask kernel for this CPU: one vector compare per
/// eight values on the avx2/avx512 tiers, the scalar rule otherwise. Capped by
/// `COGSYS_SIMD` like every other kernel. Every tier returns the identical mask,
/// and every tier panics on slices longer than 64 values.
pub fn amplitude_mask_fn() -> AmplitudeMaskFn {
    #[cfg(target_arch = "x86_64")]
    if dispatch_tier() >= DispatchTier::Avx2 && std::arch::is_x86_feature_detected!("avx2") {
        return simd::amplitude_mask_avx2_checked;
    }
    amplitude_mask_generic
}

/// Which sub-step of the fused resonator iteration a
/// [`PackedBackend::resonate_step_fused_into`] hook invocation belongs to.
/// The hook fires once per query row for [`ResonatePhase::Similarity`] and,
/// for the rows whose Similarity hook asks for it ([`ProjectionVerdict`]),
/// once for [`ResonatePhase::Projection`] — in ascending row order within
/// each lane block, so per-query noise streams are consumed in exactly the
/// order the split pipeline consumes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResonatePhase {
    /// The row holds the freshly computed similarities (`d − 2·hamming`) for
    /// this query against every codebook row: perturb in place and decode. The
    /// hook's return value decides whether the row is projected.
    Similarity,
    /// The row holds the weighted sign-projection accumulator for this query:
    /// perturb in place before the signs are packed back into the estimate.
    /// The hook's return value is ignored.
    Projection,
}

/// What a [`PackedBackend::resonate_step_fused_into`] hook returns from its
/// [`ResonatePhase::Similarity`] call: whether the row goes on to be
/// projected. `()` always projects; `bool` projects only when `true`, so a
/// caller that already knows a row is finished skips its projection tile,
/// noise draws and sign pack.
pub trait ProjectionVerdict {
    /// `true` when the row's projection must run.
    fn project(self) -> bool;
}

impl ProjectionVerdict for () {
    fn project(self) -> bool {
        true
    }
}

impl ProjectionVerdict for bool {
    fn project(self) -> bool {
        self
    }
}

/// Function-pointer type of the projection-tile word kernels behind
/// [`project_tile_fn`]: accumulate one codebook word's ±w contributions for up
/// to [`PROJ_LANE_ROWS`] weight lanes into the per-word SoA tile.
type ProjTileFn = fn(&mut [[f32; WORD_BITS]; PROJ_LANE_ROWS], &[&[f32]], usize, u64);

/// Baseline projection-tile word update: flip the IEEE sign bit of each lane's
/// weight per packed codebook bit — `+w` or `-w` exactly, no rounding — with a
/// branch-free broadcast fast path for all-positive (zero) words.
fn project_tile_word_generic(
    tile: &mut [[f32; WORD_BITS]; PROJ_LANE_ROWS],
    lanes: &[&[f32]],
    m: usize,
    word: u64,
) {
    if word == 0 {
        for (row, lane) in tile.iter_mut().zip(lanes) {
            let w = lane[m];
            for slot in row.iter_mut() {
                *slot += w;
            }
        }
    } else {
        for (row, lane) in tile.iter_mut().zip(lanes) {
            let w_bits = lane[m].to_bits();
            for (bit, slot) in row.iter_mut().enumerate() {
                let sign = ((word >> bit) as u32 & 1) << 31;
                *slot += f32::from_bits(w_bits ^ sign);
            }
        }
    }
}

/// Resolves the projection-tile word kernel for this CPU: the AVX2 sign-mask
/// expansion on the avx2/avx512 tiers (the f32 projection sweep is the compute
/// bound of a resonator iteration, so this is where the wide registers pay),
/// the scalar sign-flip kernel otherwise. Capped by `COGSYS_SIMD` like every
/// other kernel, so `COGSYS_SIMD=generic` A/Bs the scalar tile too. Every tier
/// sums the identical ±w sequence per accumulator slot, so tier choice can
/// never change a packed sign.
fn project_tile_fn() -> ProjTileFn {
    #[cfg(target_arch = "x86_64")]
    if dispatch_tier() >= DispatchTier::Avx2 && std::arch::is_x86_feature_detected!("avx2") {
        return simd::project_tile_word_avx2_checked;
    }
    project_tile_word_generic
}

impl BitMatrix {
    /// Number of `u64` words needed per row of dimension `dim`.
    pub fn words_for_dim(dim: usize) -> usize {
        dim.div_ceil(WORD_BITS)
    }

    /// Mask of the valid bits in the last word of a row (`u64::MAX` when `dim` is a
    /// multiple of 64). Padding bits above the mask are kept zero by construction.
    pub fn tail_mask(dim: usize) -> u64 {
        match dim % WORD_BITS {
            0 => u64::MAX,
            r => (1u64 << r) - 1,
        }
    }

    /// An all-`+1` (all bits clear) matrix.
    ///
    /// # Panics
    /// Panics when `dim == 0` with `rows > 0`: a sign plane with rows but no
    /// dimensions has no meaningful Hamming geometry, and rejecting it here lets the
    /// popcount kernels divide by `dim` without degenerate-input masks.
    pub fn zeros(rows: usize, dim: usize) -> Self {
        assert!(
            rows == 0 || dim > 0,
            "BitMatrix requires dim > 0 for a non-empty matrix"
        );
        let words_per_row = Self::words_for_dim(dim);
        Self {
            words: vec![0; rows * words_per_row],
            rows,
            dim,
            words_per_row,
        }
    }

    /// A matrix of uniformly random sign planes, drawn directly in packed form (64
    /// dims per `gen::<u64>()` draw) — the cheap way to build the 10^5–10^6-row
    /// codebooks the cleanup-at-scale benches need without a dense `f32` detour.
    ///
    /// # Panics
    /// Panics when `dim == 0` with `rows > 0` (see [`BitMatrix::zeros`]).
    pub fn random_bipolar<R: rand::Rng + ?Sized>(rows: usize, dim: usize, rng: &mut R) -> Self {
        let mut out = Self::zeros(rows, dim);
        let tail = Self::tail_mask(dim);
        let wpr = out.words_per_row;
        for (i, word) in out.words.iter_mut().enumerate() {
            *word = rng.gen::<u64>();
            if i % wpr == wpr - 1 {
                *word &= tail;
            }
        }
        out
    }

    /// Packs an f32 matrix of exactly-bipolar rows, or `None` if any element is not
    /// `±1.0` — callers use `None` as the signal to stay on the dense path. A
    /// zero-dimension matrix with rows is likewise refused (see [`BitMatrix::zeros`]).
    pub fn from_matrix(m: &HvMatrix) -> Option<Self> {
        let mut packed = Self::default();
        if packed.pack_from(m) {
            Some(packed)
        } else {
            None
        }
    }

    /// Packs a slice of bipolar hypervectors (one row each).
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] on ragged rows, and
    /// [`VsaError::InvalidParameter`] when an element is not `±1.0`.
    pub fn from_hypervectors(rows: &[Hypervector]) -> Result<Self, VsaError> {
        let m = HvMatrix::from_rows(rows)?;
        Self::from_matrix(&m).ok_or(VsaError::InvalidParameter {
            name: "rows",
            message: "bit-packing requires exactly bipolar (±1.0) elements".to_string(),
        })
    }

    /// Re-packs `m` into this matrix's storage (reshaping as needed), returning whether
    /// every element was exactly `±1.0`. On `false` the contents are unspecified —
    /// packing bails at the first non-bipolar row so the dense fallback stays cheap.
    /// A zero-dimension matrix with rows is refused like any other unpackable input.
    pub fn pack_from(&mut self, m: &HvMatrix) -> bool {
        if m.rows() > 0 && m.dim() == 0 {
            return false;
        }
        self.ensure_shape(m.rows(), m.dim());
        for i in 0..m.rows() {
            let start = i * self.words_per_row;
            if !pack_row_strict(m.row(i), &mut self.words[start..start + self.words_per_row]) {
                return false;
            }
        }
        true
    }

    /// Packs the signs of one `f32` row into row `i` using the `v < 0.0 → −1`
    /// convention of the estimate binarisation step (magnitudes are discarded).
    ///
    /// # Panics
    /// Panics when `i >= rows()` or `row.len() != dim()`.
    pub fn pack_signs_row(&mut self, i: usize, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "row length must match dim");
        let start = i * self.words_per_row;
        pack_row_signs(row, &mut self.words[start..start + self.words_per_row]);
    }

    /// Reshapes to `rows × dim` for reuse as an output buffer: contents are preserved
    /// when the shape is unchanged and **zeroed on any shape change** — stale words
    /// must never be reinterpreted under a new `(rows, dim)` layout.
    ///
    /// # Panics
    /// Panics when `dim == 0` with `rows > 0` (see [`BitMatrix::zeros`]).
    pub fn ensure_shape(&mut self, rows: usize, dim: usize) {
        assert!(
            rows == 0 || dim > 0,
            "BitMatrix requires dim > 0 for a non-empty matrix"
        );
        if self.rows == rows && self.dim == dim {
            return;
        }
        self.words_per_row = Self::words_for_dim(dim);
        // clear() drops the length to zero first, so resize() zero-fills every word.
        self.words.clear();
        self.words.resize(rows * self.words_per_row, 0);
        self.rows = rows;
        self.dim = dim;
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Capacity of the backing word buffer — a reallocation fingerprint for
    /// steady-state-allocation regression tests ([`BitMatrix::ensure_shape`]
    /// never shrinks it).
    pub fn word_capacity(&self) -> usize {
        self.words.capacity()
    }

    /// Dimensionality (in bits) of each row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Words per packed row.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Storage footprint of the packed planes in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// Row `i` as packed words.
    ///
    /// # Panics
    /// Panics when `i >= rows()`.
    pub fn row_words(&self, i: usize) -> &[u64] {
        &self.words[i * self.words_per_row..(i + 1) * self.words_per_row]
    }

    /// Unpacks into an owned `f32` matrix of `±1.0` values.
    pub fn to_matrix(&self) -> HvMatrix {
        let mut out = HvMatrix::zeros(self.rows, self.dim);
        self.unpack_into(&mut out);
        out
    }

    /// Unpacks into `out` (reshaped as needed).
    pub fn unpack_into(&self, out: &mut HvMatrix) {
        out.ensure_shape(self.rows, self.dim);
        for i in 0..self.rows {
            unpack_row(self.row_words(i), out.row_mut(i));
        }
    }

    /// Unpacks row `i` into an owned [`Hypervector`] tagged [`VsaKind::Bipolar`].
    ///
    /// # Errors
    /// Returns [`VsaError::IndexOutOfRange`] on a bad row index.
    pub fn row_hypervector(&self, i: usize) -> Result<Hypervector, VsaError> {
        if i >= self.rows {
            return Err(VsaError::IndexOutOfRange {
                index: i,
                len: self.rows,
            });
        }
        let mut row = vec![0.0f32; self.dim];
        unpack_row(self.row_words(i), &mut row);
        Ok(Hypervector::with_kind(row, VsaKind::Bipolar))
    }

    /// Selects `indices` rows into `out` (the packed analogue of [`HvMatrix::gather`]).
    ///
    /// # Errors
    /// Returns [`VsaError::IndexOutOfRange`] on a bad row index.
    pub fn gather_into(&self, indices: &[usize], out: &mut Self) -> Result<(), VsaError> {
        out.ensure_shape(indices.len(), self.dim);
        for (slot, &i) in indices.iter().enumerate() {
            if i >= self.rows {
                return Err(VsaError::IndexOutOfRange {
                    index: i,
                    len: self.rows,
                });
            }
            let dst = slot * out.words_per_row;
            out.words[dst..dst + out.words_per_row].copy_from_slice(self.row_words(i));
        }
        Ok(())
    }

    /// Allocating variant of [`BitMatrix::gather_into`].
    ///
    /// # Errors
    /// See [`BitMatrix::gather_into`].
    pub fn gather(&self, indices: &[usize]) -> Result<Self, VsaError> {
        let mut out = Self::default();
        self.gather_into(indices, &mut out)?;
        Ok(out)
    }

    /// A matrix whose every row is a copy of row `src` of `self`.
    ///
    /// # Errors
    /// Returns [`VsaError::IndexOutOfRange`] on a bad row index.
    pub fn broadcast_row(&self, src: usize, rows: usize) -> Result<Self, VsaError> {
        self.gather(&vec![src; rows])
    }

    /// XORs row `i` of `other` into row `i` of `self` for every row — the in-place MAP
    /// bind/unbind (its own inverse).
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] when the shapes disagree.
    pub fn xor_assign(&mut self, other: &Self) -> Result<(), VsaError> {
        if self.rows != other.rows || self.dim != other.dim {
            return Err(VsaError::DimensionMismatch {
                left: self.rows.max(self.dim),
                right: other.rows.max(other.dim),
            });
        }
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w ^= o;
        }
        Ok(())
    }

    /// ANDs `other` into `self` word-wise. For sign planes this is the **two-way
    /// sign-thresholded superposition**: `sign(a + b)` with ties (`a + b == 0`)
    /// resolving to `+1` is negative exactly when *both* operands are negative, so a
    /// two-block scene superposition is one word-wise AND — no f32 accumulate, no
    /// threshold pass, no re-pack.
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] when the shapes disagree.
    pub fn and_assign(&mut self, other: &Self) -> Result<(), VsaError> {
        if self.rows != other.rows || self.dim != other.dim {
            return Err(VsaError::DimensionMismatch {
                left: self.rows.max(self.dim),
                right: other.rows.max(other.dim),
            });
        }
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
        Ok(())
    }

    /// XORs `src` row `indices[i]` into row `i` of `self` — the gather-and-bind step
    /// of a packed product encode, fused so the gathered operand is never
    /// materialised.
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] when `indices.len() != self.rows()` or
    /// the dimensions disagree, and [`VsaError::IndexOutOfRange`] on a bad row index.
    pub fn xor_gather_assign(&mut self, src: &Self, indices: &[usize]) -> Result<(), VsaError> {
        if indices.len() != self.rows || src.dim != self.dim {
            return Err(VsaError::DimensionMismatch {
                left: self.rows.max(self.dim),
                right: indices.len().max(src.dim),
            });
        }
        for (slot, &i) in indices.iter().enumerate() {
            if i >= src.rows {
                return Err(VsaError::IndexOutOfRange {
                    index: i,
                    len: src.rows,
                });
            }
            let dst = slot * self.words_per_row;
            for (w, o) in self.words[dst..dst + self.words_per_row]
                .iter_mut()
                .zip(src.row_words(i))
            {
                *w ^= o;
            }
        }
        Ok(())
    }

    /// Flips the sign of dimension `j` in row `i` (the packed form of `v = -v` on one
    /// element — used for interface bit-flip noise on an encoded scene plane).
    ///
    /// # Panics
    /// Panics when `i >= rows()` or `j >= dim()`.
    pub fn flip_bit(&mut self, i: usize, j: usize) {
        assert!(i < self.rows && j < self.dim, "flip_bit out of range");
        self.words[i * self.words_per_row + j / WORD_BITS] ^= 1u64 << (j % WORD_BITS);
    }

    /// Fills `out` with `rows` copies of row `src` of `self` (allocation-free
    /// [`BitMatrix::broadcast_row`]).
    ///
    /// # Errors
    /// Returns [`VsaError::IndexOutOfRange`] on a bad row index.
    pub fn broadcast_row_into(
        &self,
        src: usize,
        rows: usize,
        out: &mut Self,
    ) -> Result<(), VsaError> {
        if src >= self.rows {
            return Err(VsaError::IndexOutOfRange {
                index: src,
                len: self.rows,
            });
        }
        out.ensure_shape(rows, self.dim);
        let words = self.row_words(src);
        for slot in 0..rows {
            let dst = slot * out.words_per_row;
            out.words[dst..dst + out.words_per_row].copy_from_slice(words);
        }
        Ok(())
    }

    /// Copies `src` into `self`, reshaping as needed (allocation-free once warm).
    pub fn copy_from(&mut self, src: &Self) {
        self.ensure_shape(src.rows, src.dim);
        self.words.copy_from_slice(&src.words);
    }

    /// Dot product of rows `self[i]` and `other[j]` under the bipolar interpretation:
    /// `d − 2·hamming`.
    ///
    /// # Panics
    /// Panics on out-of-range rows (shapes are caller-checked in the kernels).
    pub fn dot_rows(&self, i: usize, other: &Self, j: usize) -> i32 {
        self.dim as i32 - 2 * hamming(self.row_words(i), other.row_words(j)) as i32
    }

    /// Bipolar cosine of rows `self[i]` and `other[j]`: `1 − 2·hamming/d`.
    pub fn cosine_rows(&self, i: usize, other: &Self, j: usize) -> f32 {
        if self.dim == 0 {
            return 0.0;
        }
        self.dot_rows(i, other, j) as f32 / self.dim as f32
    }
}

// ---------------------------------------------------------------------------
// Cleanup index
// ---------------------------------------------------------------------------

/// Pruned **exact** top-1 Hamming index over a [`BitMatrix`] codebook.
///
/// The linear cleanup scan reads all `rows × words_per_row` sign-plane words per
/// query; at 10^5–10^6 rows that stream is the dominant cost of every factorization
/// step. The index restructures the scan around what stays cache-resident:
///
/// * **Word permutation.** At build time the codebook words are scored for
///   discriminativeness (per-bit balance over a row sample — a bit set on half the
///   rows separates the most pairs) and a permutation `word_order` front-loads the
///   highest-scoring words. Queries are permuted once per lookup; distances are
///   unchanged because Hamming distance is word-order invariant.
/// * **SoA sketches.** The first `sketch_words` permuted words of every row are
///   stored plane-contiguous (`sketch[s·rows + r]`), so the per-query sketch pass is
///   a sequential sweep over `2·rows` bytes per plane — cache-resident even at 10^6
///   rows — instead of a strided walk of the full sign planes.
/// * **Progressive refinement.** Rows are visited in ascending sketch-distance
///   order and accumulate their exact distance over the remaining words a few words
///   at a time, abandoning as soon as the partial distance exceeds the running best.
///
/// **Exactness.** The sketch distance and every partial refinement distance are
/// Hamming distances over word *subsets*, hence monotone lower bounds on the full
/// distance. The true winner `r*` can never be pruned: its bound never exceeds its
/// full distance `h*`, and `h*` is ≤ the running best at every point (the running
/// best only takes values of fully-refined rows, all ≥ `h*`). Ties resolve to the
/// lowest row index exactly as [`PackedBackend::cleanup_batch_packed_into`]: a row is
/// abandoned (not adopted) when it can at best *tie* a lower-indexed incumbent, and
/// equal-sketch rows are visited in ascending row order (stable counting sort).
///
/// Construction is `O(rows × words_per_row)` — one sampled scoring pass plus one
/// gather — and is done once per codebook behind [`crate::Codebook`]; codebooks
/// below [`CLEANUP_INDEX_MIN_ROWS`] rows skip the index and keep the linear scan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CleanupIndex {
    rows: usize,
    dim: usize,
    words_per_row: usize,
    /// Number of leading permuted words held in the SoA sketch planes.
    sketch_words: usize,
    /// Permutation of `0..words_per_row`: most discriminative words first.
    word_order: Vec<u32>,
    /// SoA sketch planes: plane `s` is `sketch[s·rows .. (s+1)·rows]`, holding word
    /// `word_order[s]` of every row.
    sketch: Vec<u64>,
    /// Remaining permuted words, row-major: row `r` is
    /// `rest[r·(words_per_row−sketch_words) ..][..words_per_row−sketch_words]`.
    rest: Vec<u64>,
}

impl CleanupIndex {
    /// Builds the index from a codebook's sign planes. An empty codebook yields an
    /// empty index (the checked entry points never query it).
    pub fn build(codebook: &BitMatrix) -> Self {
        let rows = codebook.rows();
        let dim = codebook.dim();
        let wpr = codebook.words_per_row();
        if rows == 0 {
            return Self {
                rows: 0,
                dim,
                words_per_row: wpr,
                sketch_words: 0,
                word_order: Vec::new(),
                sketch: Vec::new(),
                rest: Vec::new(),
            };
        }
        // One plane for every 8 row words (d=1024 → 2 of 16), at least one, and
        // capped so a sketch distance always fits the u16 dist entries.
        let sketch_words = (wpr / 8)
            .clamp(1, wpr)
            .min(usize::from(u16::MAX) / WORD_BITS);

        // Score each word's discriminativeness on a row sample: a bit set on n of
        // `sampled` rows separates n·(sampled−n) row pairs; a word's score sums its
        // 64 bits. The sample keeps construction O(rows) in the word count that
        // matters while still ranking words on real codebook statistics.
        let stride = rows.div_ceil(4096).max(1);
        let sampled = rows.div_ceil(stride) as u64;
        let mut counts = vec![0u32; wpr * WORD_BITS];
        for r in (0..rows).step_by(stride) {
            for (w, &word) in codebook.row_words(r).iter().enumerate() {
                let base = w * WORD_BITS;
                let mut x = word;
                while x != 0 {
                    counts[base + x.trailing_zeros() as usize] += 1;
                    x &= x - 1;
                }
            }
        }
        let scores: Vec<u64> = counts
            .chunks_exact(WORD_BITS)
            .map(|bits| {
                bits.iter()
                    .map(|&c| u64::from(c) * (sampled - u64::from(c)))
                    .sum()
            })
            .collect();
        let mut word_order: Vec<u32> = (0..wpr as u32).collect();
        word_order.sort_by(|&a, &b| scores[b as usize].cmp(&scores[a as usize]).then(a.cmp(&b)));

        // Gather the permuted words: sketch planes SoA, the rest row-major.
        let rest_words = wpr - sketch_words;
        let mut sketch = vec![0u64; sketch_words * rows];
        let mut rest = vec![0u64; rest_words * rows];
        for r in 0..rows {
            let row = codebook.row_words(r);
            for (s, &w) in word_order[..sketch_words].iter().enumerate() {
                sketch[s * rows + r] = row[w as usize];
            }
            for (k, &w) in word_order[sketch_words..].iter().enumerate() {
                rest[r * rest_words + k] = row[w as usize];
            }
        }
        Self {
            rows,
            dim,
            words_per_row: wpr,
            sketch_words,
            word_order,
            sketch,
            rest,
        }
    }

    /// Number of indexed codebook rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Dimensionality (in bits) of the indexed rows.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of permuted words held in the SoA sketch planes.
    pub fn sketch_words(&self) -> usize {
        self.sketch_words
    }

    /// Storage footprint of the index in bytes (sketch + rest planes + permutation).
    pub fn footprint_bytes(&self) -> usize {
        (self.sketch.len() + self.rest.len()) * std::mem::size_of::<u64>()
            + self.word_order.len() * std::mem::size_of::<u32>()
    }

    /// The non-sketch permuted words of row `r`.
    #[inline]
    fn rest_row(&self, r: usize) -> &[u64] {
        let rest_words = self.words_per_row - self.sketch_words;
        &self.rest[r * rest_words..(r + 1) * rest_words]
    }
}

/// Reusable per-call scratch of the cleanup kernels (candidate order, sketch
/// distances, counting-sort buckets). Thread one through repeated
/// [`PackedBackend::cleanup_batch_indexed_into`] /
/// [`PackedBackend::cleanup_batch_packed_into`] calls so the steady-state serving
/// path allocates nothing.
#[derive(Debug, Default, Clone)]
pub struct CleanupScratch {
    /// Query words permuted into index order.
    qperm: Vec<u64>,
    /// Per-row sketch distances (overwritten per query; sized once per row count).
    dist: Vec<u16>,
    /// Minimum sketch distance per [`SKETCH_CHUNK_ROWS`] chunk.
    chunk_min: Vec<u16>,
    /// Counting-sort buckets over sketch distances.
    counts: Vec<u32>,
    /// Candidate rows in ascending (sketch distance, row) order.
    order: Vec<u32>,
    /// Per-query running best of the linear scan.
    best: Vec<(usize, u32)>,
}

impl CleanupScratch {
    /// Pre-sizes the per-query buffer for a batch of `queries` rows, so the
    /// first cleanup call of a pre-sized serving loop allocates nothing. The
    /// index-shaped buffers (`dist`, `order`, …) are sized by the cleanup
    /// kernels themselves on first contact with a codebook and never grow past
    /// its row count.
    pub fn reserve_queries(&mut self, queries: usize) {
        self.best.reserve(queries.saturating_sub(self.best.len()));
    }

    /// Capacity of the per-query buffer — a reallocation fingerprint for
    /// steady-state-allocation regression tests.
    pub fn best_capacity(&self) -> usize {
        self.best.capacity()
    }
}

// ---------------------------------------------------------------------------
// Packed backend
// ---------------------------------------------------------------------------

/// The sign-plane backend behind [`crate::BackendKind::Packed`].
///
/// Its kernels are inherent methods over [`BitMatrix`] operands, reached through
/// [`VsaBackend::as_packed`] by the layers that already hold sign planes:
///
/// * popcount similarity GEMM ([`PackedBackend::similarity_matrix_packed_into`]) and
///   the linear and indexed cleanups, blocked over codebook rows for cache residency;
/// * the SoA sign projection and the fused resonator step that the packed resonator
///   runs every iteration.
///
/// Its `f32` [`VsaBackend`] surface is the wrapped dense [`ParallelBackend`]: every
/// trait method delegates, so `f32` operands are never re-packed per call.
///
/// Numerics: the popcount dot products are **exact** (bitwise equal to the reference
/// on bipolar inputs — `f32` sums of `±1` are themselves exact). Cleanup cosines
/// divide by `d` instead of the product of `f32` norms, which agrees with the
/// reference within the documented 1e-4 cosine contract.
#[derive(Debug, Default)]
pub struct PackedBackend {
    dense: ParallelBackend,
}

impl PackedBackend {
    /// Creates a packed backend whose `f32` surface is a fresh [`ParallelBackend`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Packed GEMM: `out[q][m] = queries[q] · codebook[m] = d − 2·hamming`, exact.
    pub fn similarity_matrix_packed_into(
        &self,
        codebook: &BitMatrix,
        queries: &BitMatrix,
        out: &mut HvMatrix,
    ) {
        debug_assert_eq!(codebook.dim(), queries.dim(), "operand dims must match");
        out.ensure_shape(queries.rows(), codebook.rows());
        let d = codebook.dim() as i32;
        let wpr = codebook.words_per_row().max(1);
        let ham = hamming_fn();
        for block_start in (0..codebook.rows()).step_by(CODEBOOK_BLOCK_ROWS) {
            let block_end = (block_start + CODEBOOK_BLOCK_ROWS).min(codebook.rows());
            // One contiguous slice per block: the row iteration below is a plain
            // chunked walk with no per-row bounds-checked slicing.
            let block_words = &codebook.words[block_start * wpr..block_end * wpr];
            for q in 0..queries.rows() {
                let qw = queries.row_words(q);
                let sims = out.row_mut(q);
                for (slot, row) in sims[block_start..block_end]
                    .iter_mut()
                    .zip(block_words.chunks_exact(wpr))
                {
                    *slot = (d - 2 * ham(qw, row) as i32) as f32;
                }
            }
        }
    }

    /// Packed cleanup: per query, the index and bipolar cosine (`1 − 2·hamming/d`) of
    /// the best-matching codebook row. Ties resolve to the lowest index, matching the
    /// dense backends. Blocked over codebook rows so each block stays cache-resident
    /// across the whole query batch. The running per-query best and the results land
    /// in caller-owned buffers, so repeated calls on the hot serving path allocate
    /// nothing.
    ///
    /// # Panics
    /// Panics on an empty codebook (the checked entry point, [`crate::Codebook`],
    /// guarantees at least one row).
    pub fn cleanup_batch_packed_into(
        &self,
        codebook: &BitMatrix,
        queries: &BitMatrix,
        scratch: &mut CleanupScratch,
        out: &mut Vec<(usize, f32)>,
    ) {
        assert!(codebook.rows() > 0, "cleanup requires a non-empty codebook");
        debug_assert_eq!(codebook.dim(), queries.dim(), "operand dims must match");
        let best = &mut scratch.best;
        best.clear();
        best.resize(queries.rows(), (0usize, u32::MAX));
        let wpr = codebook.words_per_row().max(1);
        let ham = hamming_fn();
        for block_start in (0..codebook.rows()).step_by(CODEBOOK_BLOCK_ROWS) {
            let block_end = (block_start + CODEBOOK_BLOCK_ROWS).min(codebook.rows());
            let block_words = &codebook.words[block_start * wpr..block_end * wpr];
            for (q, slot) in best.iter_mut().enumerate() {
                let qw = queries.row_words(q);
                for (offset, row) in block_words.chunks_exact(wpr).enumerate() {
                    let h = ham(qw, row);
                    // Strictly smaller Hamming distance wins; equal keeps the earlier
                    // index — identical tie-breaking to the dense `sim > best` scan.
                    if h < slot.1 {
                        *slot = (block_start + offset, h);
                    }
                }
            }
        }
        // A non-empty BitMatrix always has dim > 0 (enforced at construction), so the
        // cosine mapping never needs a degenerate-input mask.
        let d = queries.dim() as f32;
        out.clear();
        out.extend(best.iter().map(|&(m, h)| (m, (d - 2.0 * h as f32) / d)));
    }

    /// Indexed cleanup: decision-identical to
    /// [`PackedBackend::cleanup_batch_packed_into`] against the codebook `index` was
    /// built from — same winning index, same cosine, same lowest-index tie-breaking —
    /// but sub-linear in the words read per query (see [`CleanupIndex`] for the
    /// exactness argument).
    ///
    /// Per query: (1) permute the query words into index order; (2) one sequential
    /// SoA sweep computes every row's sketch distance into cache-resident `u16`
    /// entries; (3) a chunked minimum pass finds the best sketch row, whose full
    /// distance seeds the bound; (4) a counting sort over the surviving chunks
    /// orders candidates by ascending (sketch distance, row); (5) candidates refine
    /// word-wise under the running bound, abandoning as soon as their monotone
    /// partial distance proves them no better than the incumbent.
    ///
    /// # Panics
    /// Panics on an empty index or a query dimension mismatch.
    pub fn cleanup_batch_indexed_into(
        &self,
        index: &CleanupIndex,
        queries: &BitMatrix,
        scratch: &mut CleanupScratch,
        out: &mut Vec<(usize, f32)>,
    ) {
        assert!(index.rows() > 0, "cleanup requires a non-empty codebook");
        assert_eq!(index.dim(), queries.dim(), "operand dims must match");
        let rows = index.rows;
        let s_words = index.sketch_words;
        let rest_words = index.words_per_row - s_words;
        let d = index.dim as f32;
        let ham = hamming_fn();
        let kernels = sketch_kernels();
        // The sketch sweep overwrites every entry, so `dist` only needs re-sizing
        // (not re-zeroing) when the row count changes.
        if scratch.dist.len() != rows {
            scratch.dist.clear();
            scratch.dist.resize(rows, 0);
        }
        out.clear();
        out.reserve(queries.rows());
        for q in 0..queries.rows() {
            let qw = queries.row_words(q);
            scratch.qperm.clear();
            scratch
                .qperm
                .extend(index.word_order.iter().map(|&w| qw[w as usize]));
            let (qs, qrest) = scratch.qperm.split_at(s_words);

            // (2) Sketch sweep: dist[r] = Hamming over the sketch words, one
            // sequential pass per SoA plane (the first two planes fused).
            let dist = &mut scratch.dist[..];
            if s_words >= 2 {
                (kernels.pair)(
                    qs[0],
                    qs[1],
                    &index.sketch[..rows],
                    &index.sketch[rows..2 * rows],
                    dist,
                );
            } else {
                (kernels.one)(qs[0], &index.sketch[..rows], dist);
            }
            for (s, &qword) in qs.iter().enumerate().skip(2) {
                (kernels.accum)(qword, &index.sketch[s * rows..(s + 1) * rows], dist);
            }

            // (3) Chunk minima, then seed the bound with the full distance of the
            // first row attaining the global sketch minimum.
            scratch.chunk_min.clear();
            scratch
                .chunk_min
                .extend(dist.chunks(SKETCH_CHUNK_ROWS).map(|chunk| {
                    let mut m = u16::MAX;
                    for &v in chunk {
                        m = m.min(v);
                    }
                    m
                }));
            let min_sketch = *scratch.chunk_min.iter().min().expect("rows > 0");
            let min_chunk = scratch
                .chunk_min
                .iter()
                .position(|&m| m == min_sketch)
                .expect("a chunk attains the minimum");
            let base = min_chunk * SKETCH_CHUNK_ROWS;
            let seed = base
                + dist[base..]
                    .iter()
                    .position(|&v| v == min_sketch)
                    .expect("the chunk contains its minimum");
            let mut best_i = seed;
            let mut best_h = u32::from(dist[seed]);
            if rest_words > 0 {
                best_h += ham(qrest, index.rest_row(seed));
            }

            // (4) Stable counting sort of the candidates by sketch distance,
            // restricted to chunks (and entries) at or under the seed bound —
            // ascending row order within equal distances preserves the
            // lowest-index tie-breaking of the linear scan.
            let bound = best_h.min((s_words * WORD_BITS) as u32);
            let cap = bound as usize;
            scratch.counts.clear();
            scratch.counts.resize(cap + 1, 0);
            let mut survivors = 0usize;
            for (ci, &cm) in scratch.chunk_min.iter().enumerate() {
                if u32::from(cm) > bound {
                    continue;
                }
                let start = ci * SKETCH_CHUNK_ROWS;
                let end = (start + SKETCH_CHUNK_ROWS).min(rows);
                for &v in &dist[start..end] {
                    if usize::from(v) <= cap {
                        scratch.counts[usize::from(v)] += 1;
                        survivors += 1;
                    }
                }
            }
            let mut acc = 0u32;
            for c in scratch.counts.iter_mut() {
                let n = *c;
                *c = acc;
                acc += n;
            }
            scratch.order.clear();
            scratch.order.resize(survivors, 0);
            for (ci, &cm) in scratch.chunk_min.iter().enumerate() {
                if u32::from(cm) > bound {
                    continue;
                }
                let start = ci * SKETCH_CHUNK_ROWS;
                let end = (start + SKETCH_CHUNK_ROWS).min(rows);
                for (offset, &v) in dist[start..end].iter().enumerate() {
                    if usize::from(v) <= cap {
                        let slot = scratch.counts[usize::from(v)];
                        scratch.order[slot as usize] = (start + offset) as u32;
                        scratch.counts[usize::from(v)] = slot + 1;
                    }
                }
            }

            // (5) Progressive refinement under the running (best_h, best_i) bound.
            // Every abandonment is provable: the partial distance is a monotone
            // lower bound, so a row is dropped only when it can no longer beat the
            // incumbent — or at best tie it with a higher row index.
            for &r32 in &scratch.order {
                let r = r32 as usize;
                let lb = u32::from(dist[r]);
                if lb > best_h {
                    // Candidates are in ascending sketch order: nothing later can win.
                    break;
                }
                if r == seed || (lb == best_h && r > best_i) {
                    continue;
                }
                let mut h = lb;
                let rest = index.rest_row(r);
                let mut viable = true;
                let mut k = 0;
                while k < rest_words {
                    let end = (k + REFINE_CHUNK_WORDS).min(rest_words);
                    h += ham(&qrest[k..end], &rest[k..end]);
                    if h > best_h || (h == best_h && r > best_i) {
                        viable = false;
                        break;
                    }
                    k = end;
                }
                if viable && (h < best_h || (h == best_h && r < best_i)) {
                    best_h = h;
                    best_i = r;
                }
            }
            out.push((best_i, (d - 2.0 * best_h as f32) / d));
        }
    }

    /// Packed weighted superposition fused with a per-query perturbation and the sign
    /// threshold: for every weight row `q` it accumulates
    /// `acc[j] = Σ_m weights[q][m] · codebook[m][j]` in per-dimension `f32`
    /// accumulators driven word-wise over the codebook sign planes, hands the row to
    /// `perturb(q, acc)` (noise injection), and packs `acc[j] < 0.0` straight into row
    /// `q` of `out` — the resonator's Step 3 without ever materialising a dense
    /// projection matrix.
    ///
    /// Numerics: adding `w` for a clear bit and `-w` for a set bit is **bitwise
    /// identical** to the dense `acc[j] += w * (±1.0)` accumulation (multiplying by
    /// `±1.0` only copies/flips the sign), and every accumulator slot receives its
    /// addends in ascending codebook-row order regardless of the lane blocking below,
    /// so the result equals the dense `project_batch_into` + threshold exactly.
    ///
    /// Layout: queries are processed [`PROJ_LANE_ROWS`] at a time in an SoA sweep —
    /// the *word index* is the outer loop and the codebook row the inner one, so each
    /// sign-plane word is loaded once per 8 queries (instead of once per query) and
    /// the 64-dim × 8-lane accumulator tile stays L1-resident across the whole
    /// codebook-row sweep. `perturb(q, acc_row)` and the sign packing still run per
    /// query in ascending `q` order, so noise-stream consumption is unchanged.
    ///
    /// `acc` is caller-owned scratch (resized to at most
    /// `PROJ_LANE_ROWS · codebook.dim()`), so steady-state calls allocate nothing.
    pub fn project_signs_packed_into<F>(
        &self,
        codebook: &BitMatrix,
        weights: &HvMatrix,
        mut perturb: F,
        acc: &mut Vec<f32>,
        out: &mut BitMatrix,
    ) where
        F: FnMut(usize, &mut [f32]),
    {
        debug_assert_eq!(
            weights.dim(),
            codebook.rows(),
            "one weight per codebook row"
        );
        let dim = codebook.dim();
        out.ensure_shape(weights.rows(), dim);
        let wpr = codebook.words_per_row();
        let tile_word = project_tile_fn();
        for block_start in (0..weights.rows()).step_by(PROJ_LANE_ROWS) {
            let block_len = (weights.rows() - block_start).min(PROJ_LANE_ROWS);
            let mut lanes: [&[f32]; PROJ_LANE_ROWS] = [&[]; PROJ_LANE_ROWS];
            for (lane, row) in lanes.iter_mut().enumerate().take(block_len) {
                *row = weights.row(block_start + lane);
            }
            acc.clear();
            acc.resize(block_len * dim, 0.0);
            for wi in 0..if codebook.rows() > 0 { wpr } else { 0 } {
                let base = wi * WORD_BITS;
                let width = (dim - base).min(WORD_BITS);
                // The per-word tile: 64 dims × 8 lanes of f32, accumulated across
                // every codebook row while both the tile and the strided column of
                // codebook words stay cache-hot.
                let mut tile = [[0.0f32; WORD_BITS]; PROJ_LANE_ROWS];
                let column = codebook.words[wi..].iter().step_by(wpr);
                for (m, &word) in column.take(codebook.rows()).enumerate() {
                    tile_word(&mut tile, &lanes[..block_len], m, word);
                }
                for (lane, row) in tile.iter().enumerate().take(block_len) {
                    let dst = lane * dim + base;
                    acc[dst..dst + width].copy_from_slice(&row[..width]);
                }
            }
            for lane in 0..block_len {
                let q = block_start + lane;
                let acc_row = &mut acc[lane * dim..(lane + 1) * dim];
                perturb(q, acc_row);
                out.pack_signs_row(q, acc_row);
            }
        }
    }

    /// Fused resonator iteration step for one factor: XOR-unbind, Hamming
    /// similarity, and weighted sign projection in a single tiled pass over the
    /// codebook sign planes, per [`PROJ_LANE_ROWS`]-query lane block.
    ///
    /// The split pipeline streams three full-batch passes per factor per
    /// iteration — materialize `unbound = query ⊕ ⊕_{g≠f} est_g` (one copy plus
    /// `F−1` XOR sweeps over `rows × words` planes), then the similarity GEMM
    /// re-reads `unbound`, then the projection re-reads the codebook. Here each
    /// lane block unbinds its 8 rows into an L1-resident scratch, scans the
    /// codebook once for similarities, and feeds the just-computed (and
    /// hook-perturbed) similarity rows straight into the SoA sign-projection
    /// tile of [`PackedBackend::project_signs_packed_into`] while the codebook
    /// column is still cache-hot. The full-batch `unbound` plane is never
    /// materialized.
    ///
    /// `estimates[factor]` is overwritten with the projected signs; the other
    /// estimate planes are only read, and only by the unbind of *this* factor,
    /// so the Gauss–Seidel in-place update order matches the split path.
    /// `hook(phase, row, values)` runs per query row in ascending order within
    /// each lane block — [`ResonatePhase::Similarity`] over the similarity row
    /// (perturb + argmax decode), then [`ResonatePhase::Projection`] over the
    /// sign accumulator row. Per-query noise streams see exactly the split
    /// path's draw order (all of a query's similarity draws precede its
    /// projection draws for the same factor); only the interleaving *across*
    /// queries differs, which is unobservable because streams are private.
    ///
    /// The Similarity call's return value ([`ProjectionVerdict`]) decides
    /// whether the row is projected at all: a row whose hook returns `false`
    /// takes no lane of the projection tile, gets no Projection call, and
    /// keeps its previous `estimates[factor]` row. The other rows' tile lanes,
    /// accumulators and draws are unchanged by the skip (lanes accumulate
    /// independently).
    ///
    /// `unbound` (resized to `PROJ_LANE_ROWS` rows), `sims` (resized to
    /// `rows × codebook.rows()`), and `acc` are caller-owned scratch, so
    /// steady-state calls allocate nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn resonate_step_fused_into<F, V>(
        &self,
        codebook: &BitMatrix,
        query: &BitMatrix,
        estimates: &mut [BitMatrix],
        factor: usize,
        unbound: &mut BitMatrix,
        sims: &mut HvMatrix,
        acc: &mut Vec<f32>,
        mut hook: F,
    ) where
        F: FnMut(ResonatePhase, usize, &mut [f32]) -> V,
        V: ProjectionVerdict,
    {
        let rows = query.rows();
        let dim = codebook.dim();
        let cb_rows = codebook.rows();
        debug_assert!(factor < estimates.len(), "factor index in range");
        debug_assert_eq!(query.dim(), dim, "operand dims must match");
        let wpr = codebook.words_per_row().max(1);
        let d = dim as i32;
        sims.ensure_shape(rows, cb_rows);
        let (head, rest) = estimates.split_at_mut(factor);
        let (out, tail) = rest.split_first_mut().expect("factor index in range");
        out.ensure_shape(rows, dim);
        unbound.ensure_shape(PROJ_LANE_ROWS, dim);
        let ham = hamming_fn();
        let tile_word = project_tile_fn();
        for block_start in (0..rows).step_by(PROJ_LANE_ROWS) {
            let block_len = (rows - block_start).min(PROJ_LANE_ROWS);
            // Unbind the lane rows once into the 8-row scratch: query ⊕ every
            // *other* factor's estimate. The scratch stays L1-resident across
            // both the similarity scan and the projection sweep below.
            for lane in 0..block_len {
                let r = block_start + lane;
                let dst = &mut unbound.words[lane * wpr..(lane + 1) * wpr];
                dst.copy_from_slice(&query.words[r * wpr..(r + 1) * wpr]);
                for est in head.iter().chain(tail.iter()) {
                    let src = &est.words[r * wpr..(r + 1) * wpr];
                    for (dw, &sw) in dst.iter_mut().zip(src) {
                        *dw ^= sw;
                    }
                }
            }
            // Similarity scan for the lane block — same codebook blocking and
            // `d − 2·hamming` mapping as the standalone similarity GEMM.
            for cb_start in (0..cb_rows).step_by(CODEBOOK_BLOCK_ROWS) {
                let cb_end = (cb_start + CODEBOOK_BLOCK_ROWS).min(cb_rows);
                let block_words = &codebook.words[cb_start * wpr..cb_end * wpr];
                for lane in 0..block_len {
                    let qw = &unbound.words[lane * wpr..(lane + 1) * wpr];
                    let sims_row = &mut sims.row_mut(block_start + lane)[cb_start..cb_end];
                    for (slot, row) in sims_row.iter_mut().zip(block_words.chunks_exact(wpr)) {
                        *slot = (d - 2 * ham(qw, row) as i32) as f32;
                    }
                }
            }
            // The rows whose hook asks for a projection, in ascending order.
            let mut live = [0usize; PROJ_LANE_ROWS];
            let mut live_len = 0;
            for lane in 0..block_len {
                let slot = block_start + lane;
                if hook(ResonatePhase::Similarity, slot, sims.row_mut(slot)).project() {
                    live[live_len] = slot;
                    live_len += 1;
                }
            }
            if live_len == 0 {
                continue;
            }
            // Projection sweep, weights = the just-perturbed similarity rows:
            // identical tile walk (and accumulation order) to
            // `project_signs_packed_into` restricted to the live rows.
            let mut lanes: [&[f32]; PROJ_LANE_ROWS] = [&[]; PROJ_LANE_ROWS];
            for (row, &slot) in lanes.iter_mut().zip(&live[..live_len]) {
                *row = sims.row(slot);
            }
            acc.clear();
            acc.resize(live_len * dim, 0.0);
            for wi in 0..if cb_rows > 0 { wpr } else { 0 } {
                let base = wi * WORD_BITS;
                let width = (dim - base).min(WORD_BITS);
                let mut tile = [[0.0f32; WORD_BITS]; PROJ_LANE_ROWS];
                let column = codebook.words[wi..].iter().step_by(wpr);
                for (m, &word) in column.take(cb_rows).enumerate() {
                    tile_word(&mut tile, &lanes[..live_len], m, word);
                }
                for (lane, row) in tile.iter().enumerate().take(live_len) {
                    let dst = lane * dim + base;
                    acc[dst..dst + width].copy_from_slice(&row[..width]);
                }
            }
            for (lane, &slot) in live[..live_len].iter().enumerate() {
                let acc_row = &mut acc[lane * dim..(lane + 1) * dim];
                hook(ResonatePhase::Projection, slot, acc_row);
                out.pack_signs_row(slot, acc_row);
            }
        }
    }
}

/// The `f32` surface: every method is the dense backend's. Sign-plane callers use
/// the inherent kernels through [`VsaBackend::as_packed`] instead.
impl VsaBackend for PackedBackend {
    fn name(&self) -> &'static str {
        "packed"
    }

    fn as_packed(&self) -> Option<&PackedBackend> {
        Some(self)
    }

    fn bind_batch_into(
        &self,
        a: &HvMatrix,
        b: &HvMatrix,
        op: BindingOp,
        out: &mut HvMatrix,
    ) -> Result<(), VsaError> {
        self.dense.bind_batch_into(a, b, op, out)
    }

    fn unbind_batch_into(
        &self,
        a: &HvMatrix,
        b: &HvMatrix,
        op: BindingOp,
        out: &mut HvMatrix,
    ) -> Result<(), VsaError> {
        self.dense.unbind_batch_into(a, b, op, out)
    }

    fn similarity_matrix_into(
        &self,
        codebook: &HvMatrix,
        queries: &HvMatrix,
        out: &mut HvMatrix,
    ) -> Result<(), VsaError> {
        self.dense.similarity_matrix_into(codebook, queries, out)
    }

    fn project_batch_into(
        &self,
        codebook: &HvMatrix,
        weights: &HvMatrix,
        out: &mut HvMatrix,
    ) -> Result<(), VsaError> {
        self.dense.project_batch_into(codebook, weights, out)
    }

    fn bundle(&self, items: &HvMatrix) -> Result<Hypervector, VsaError> {
        self.dense.bundle(items)
    }

    fn cleanup_batch(
        &self,
        codebook: &HvMatrix,
        queries: &HvMatrix,
    ) -> Result<Vec<(usize, f32)>, VsaError> {
        self.dense.cleanup_batch(codebook, queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::ReferenceBackend;
    use crate::rng;

    fn random_bipolar_matrix(rows: usize, dim: usize, seed: u64) -> HvMatrix {
        let mut r = rng(seed);
        let hvs: Vec<Hypervector> = (0..rows)
            .map(|_| Hypervector::random_bipolar(dim, &mut r))
            .collect();
        HvMatrix::from_rows(&hvs).unwrap()
    }

    #[test]
    fn pack_unpack_round_trips_across_tail_shapes() {
        for dim in [1usize, 63, 64, 65, 100, 128, 1000] {
            let m = random_bipolar_matrix(3, dim, dim as u64);
            let bits = BitMatrix::from_matrix(&m).expect("bipolar input packs");
            assert_eq!(bits.words_per_row(), dim.div_ceil(64));
            assert_eq!(bits.to_matrix(), m, "dim {dim}");
            // Padding bits stay zero so whole-word kernels need no masking.
            let tail = BitMatrix::tail_mask(dim);
            for i in 0..bits.rows() {
                let last = *bits.row_words(i).last().unwrap();
                assert_eq!(last & !tail, 0, "dim {dim} row {i} has dirty padding");
            }
        }
    }

    #[test]
    fn non_bipolar_input_refuses_to_pack() {
        let m = HvMatrix::from_vec(vec![1.0, -1.0, 0.5, 1.0], 1, 4).unwrap();
        assert!(BitMatrix::from_matrix(&m).is_none());
        let zero = HvMatrix::zeros(2, 8);
        assert!(BitMatrix::from_matrix(&zero).is_none());
        assert!(BitMatrix::from_hypervectors(&[Hypervector::zeros(4)]).is_err());
    }

    #[test]
    fn xor_bind_matches_hadamard_product() {
        for dim in [64usize, 96, 1024] {
            let a = random_bipolar_matrix(4, dim, 1);
            let b = random_bipolar_matrix(4, dim, 2);
            let reference = ReferenceBackend;
            let r = reference.bind_batch(&a, &b, BindingOp::Hadamard).unwrap();
            let (mut p, b_bits) = (
                BitMatrix::from_matrix(&a).unwrap(),
                BitMatrix::from_matrix(&b).unwrap(),
            );
            p.xor_assign(&b_bits).unwrap();
            assert_eq!(p.to_matrix(), r, "dim {dim}");
            // MAP binding is self-inverse: unbinding recovers the other operand.
            p.xor_assign(&b_bits).unwrap();
            assert_eq!(p.to_matrix(), a);
        }
    }

    #[test]
    fn popcount_similarity_is_exact() {
        let cb = random_bipolar_matrix(9, 100, 3);
        let q = random_bipolar_matrix(5, 100, 4);
        let rs = ReferenceBackend.similarity_matrix(&cb, &q).unwrap();
        let mut ps = HvMatrix::default();
        PackedBackend::new().similarity_matrix_packed_into(
            &BitMatrix::from_matrix(&cb).unwrap(),
            &BitMatrix::from_matrix(&q).unwrap(),
            &mut ps,
        );
        // Dots of ±1 vectors are exact in f32, so the popcount mapping is bitwise equal.
        assert_eq!(rs, ps);
    }

    #[test]
    fn cleanup_matches_reference_within_contract() {
        let cb = random_bipolar_matrix(16, 1000, 5);
        let q = random_bipolar_matrix(8, 1000, 6);
        let rc = ReferenceBackend.cleanup_batch(&cb, &q).unwrap();
        let mut pc = Vec::new();
        PackedBackend::new().cleanup_batch_packed_into(
            &BitMatrix::from_matrix(&cb).unwrap(),
            &BitMatrix::from_matrix(&q).unwrap(),
            &mut CleanupScratch::default(),
            &mut pc,
        );
        assert_eq!(rc.len(), pc.len());
        for ((ri, rsim), (pi, psim)) in rc.iter().zip(&pc) {
            assert_eq!(ri, pi);
            assert!((rsim - psim).abs() < 1e-4, "{rsim} vs {psim}");
        }
    }

    #[test]
    fn f32_surface_is_the_dense_backend() {
        // Bipolar and real operands alike: every VsaBackend method returns exactly
        // what the wrapped ParallelBackend returns.
        let mut r = rng(9);
        let hvs: Vec<Hypervector> = (0..3)
            .map(|_| Hypervector::random_real(64, &mut r))
            .collect();
        let real = HvMatrix::from_rows(&hvs).unwrap();
        let b = random_bipolar_matrix(3, 64, 10);
        let bipolar = random_bipolar_matrix(3, 64, 11);
        let weights = random_bipolar_matrix(2, 3, 12);
        let packed = PackedBackend::new();
        let dense = ParallelBackend::new();
        for a in [&real, &bipolar] {
            for op in [BindingOp::Hadamard, BindingOp::CircularConvolution] {
                assert_eq!(
                    packed.bind_batch(a, &b, op).unwrap(),
                    dense.bind_batch(a, &b, op).unwrap(),
                    "{op:?}"
                );
                assert_eq!(
                    packed.unbind_batch(a, &b, op).unwrap(),
                    dense.unbind_batch(a, &b, op).unwrap(),
                    "{op:?}"
                );
            }
            assert_eq!(
                packed.similarity_matrix(a, &b).unwrap(),
                dense.similarity_matrix(a, &b).unwrap()
            );
            assert_eq!(
                packed.cleanup_batch(a, &b).unwrap(),
                dense.cleanup_batch(a, &b).unwrap()
            );
            assert_eq!(
                packed.project_batch(a, &weights).unwrap(),
                dense.project_batch(a, &weights).unwrap()
            );
            assert_eq!(
                packed.bundle(a).unwrap().values(),
                dense.bundle(a).unwrap().values()
            );
        }
    }

    #[test]
    fn pack_signs_row_uses_strict_negative_convention() {
        let mut bits = BitMatrix::zeros(1, 4);
        bits.pack_signs_row(0, &[-0.5, 0.0, -0.0, 2.0]);
        // `v < 0.0`: −0.0 packs to +1, matching the estimate binarisation step.
        assert_eq!(bits.row_words(0), &[0b0001]);
    }

    #[test]
    fn ensure_shape_zeroes_on_reshape() {
        // Regression: reshaping a populated matrix must not reinterpret stale words
        // under the new (rows, dim) layout.
        let m = random_bipolar_matrix(3, 64, 42);
        let mut bits = BitMatrix::from_matrix(&m).unwrap();
        assert!(bits.row_words(0).iter().any(|&w| w != 0));
        bits.ensure_shape(2, 96);
        assert_eq!((bits.rows(), bits.dim(), bits.words_per_row()), (2, 96, 2));
        for i in 0..2 {
            assert_eq!(
                bits.row_words(i),
                &[0, 0],
                "stale words leaked into row {i}"
            );
        }
        // Same-shape calls preserve contents (scratch reuse must stay cheap).
        let mut bits = BitMatrix::from_matrix(&m).unwrap();
        let before = bits.clone();
        bits.ensure_shape(3, 64);
        assert_eq!(bits, before);
    }

    #[test]
    #[should_panic(expected = "dim > 0")]
    fn zero_dim_nonempty_construction_panics() {
        let _ = BitMatrix::zeros(2, 0);
    }

    #[test]
    fn zero_dim_nonempty_matrix_refuses_to_pack() {
        let m = HvMatrix::zeros(2, 0);
        assert!(BitMatrix::from_matrix(&m).is_none());
        let mut bits = BitMatrix::default();
        assert!(!bits.pack_from(&m));
        // The empty 0×0 matrix still packs (scratch buffers start there).
        assert!(BitMatrix::from_matrix(&HvMatrix::default()).is_some());
    }

    #[test]
    fn project_signs_matches_dense_projection_and_threshold() {
        let reference = ReferenceBackend;
        let packed = PackedBackend::new();
        for dim in [64usize, 70, 128, 200, 1000] {
            let cb = random_bipolar_matrix(9, dim, 20 + dim as u64);
            let cb_bits = BitMatrix::from_matrix(&cb).unwrap();
            // Arbitrary real-valued weights (as the resonator's similarity rows are).
            let mut r = rng(77 + dim as u64);
            let weights = HvMatrix::from_rows(
                &(0..4)
                    .map(|_| Hypervector::random_real(9, &mut r))
                    .collect::<Vec<_>>(),
            )
            .unwrap();

            let dense = reference.project_batch(&cb, &weights).unwrap();
            let mut out = BitMatrix::default();
            let mut acc = Vec::new();
            let mut seen: Vec<Vec<f32>> = Vec::new();
            packed.project_signs_packed_into(
                &cb_bits,
                &weights,
                |_, row| seen.push(row.to_vec()),
                &mut acc,
                &mut out,
            );
            assert_eq!((out.rows(), out.dim()), (4, dim));
            for (q, acc_row) in seen.iter().enumerate() {
                // Accumulators are bitwise equal to the dense projection...
                assert_eq!(acc_row.as_slice(), dense.row(q), "dim {dim} row {q}");
                // ...and the packed signs equal the dense sign threshold.
                let expected: Vec<f32> = dense
                    .row(q)
                    .iter()
                    .map(|&v| if v < 0.0 { -1.0 } else { 1.0 })
                    .collect();
                assert_eq!(out.to_matrix().row(q), expected.as_slice(), "dim {dim}");
            }

            // A perturbation applied through the fused hook equals perturb-then-sign.
            let mut out2 = BitMatrix::default();
            packed.project_signs_packed_into(
                &cb_bits,
                &weights,
                |q, row| {
                    for (j, v) in row.iter_mut().enumerate() {
                        *v += ((q + j) % 3) as f32 - 1.0;
                    }
                },
                &mut acc,
                &mut out2,
            );
            for q in 0..4 {
                let expected: Vec<f32> = dense
                    .row(q)
                    .iter()
                    .enumerate()
                    .map(|(j, &v)| v + ((q + j) % 3) as f32 - 1.0)
                    .map(|v| if v < 0.0 { -1.0 } else { 1.0 })
                    .collect();
                assert_eq!(out2.to_matrix().row(q), expected.as_slice(), "dim {dim}");
            }
        }
    }

    #[test]
    fn and_assign_is_two_way_sign_threshold_superposition() {
        // sign(a + b) with ties to +1 equals the AND of the sign planes.
        for dim in [64usize, 70, 200] {
            let a = random_bipolar_matrix(3, dim, 100 + dim as u64);
            let b = random_bipolar_matrix(3, dim, 200 + dim as u64);
            let mut dense = a.clone();
            for (slot, v) in dense.as_mut_slice().iter_mut().zip(b.as_slice()) {
                *slot += v;
                *slot = if *slot < 0.0 { -1.0 } else { 1.0 };
            }
            let mut bits = BitMatrix::from_matrix(&a).unwrap();
            bits.and_assign(&BitMatrix::from_matrix(&b).unwrap())
                .unwrap();
            assert_eq!(bits.to_matrix(), dense, "dim {dim}");
        }
        let mut a = BitMatrix::zeros(2, 64);
        assert!(a.and_assign(&BitMatrix::zeros(3, 64)).is_err());
    }

    #[test]
    fn xor_gather_assign_matches_gather_then_xor() {
        let src = random_bipolar_matrix(6, 130, 31);
        let src_bits = BitMatrix::from_matrix(&src).unwrap();
        let base = random_bipolar_matrix(4, 130, 32);
        let indices = [5usize, 0, 3, 3];
        let mut fused = BitMatrix::from_matrix(&base).unwrap();
        fused.xor_gather_assign(&src_bits, &indices).unwrap();
        let mut reference = BitMatrix::from_matrix(&base).unwrap();
        reference
            .xor_assign(&src_bits.gather(&indices).unwrap())
            .unwrap();
        assert_eq!(fused, reference);
        // Arity and range errors.
        let mut bad = BitMatrix::from_matrix(&base).unwrap();
        assert!(bad.xor_gather_assign(&src_bits, &[0, 1]).is_err());
        assert!(bad.xor_gather_assign(&src_bits, &[0, 1, 2, 6]).is_err());
    }

    #[test]
    fn flip_bit_negates_one_element() {
        let m = random_bipolar_matrix(2, 70, 33);
        let mut bits = BitMatrix::from_matrix(&m).unwrap();
        bits.flip_bit(1, 64);
        bits.flip_bit(0, 0);
        let back = bits.to_matrix();
        for i in 0..2 {
            for j in 0..70 {
                let expected = if (i, j) == (1, 64) || (i, j) == (0, 0) {
                    -m.row(i)[j]
                } else {
                    m.row(i)[j]
                };
                assert_eq!(back.row(i)[j], expected, "({i},{j})");
            }
        }
    }

    #[test]
    fn broadcast_row_into_matches_allocating_broadcast() {
        let m = random_bipolar_matrix(3, 100, 34);
        let bits = BitMatrix::from_matrix(&m).unwrap();
        let mut out = BitMatrix::default();
        bits.broadcast_row_into(2, 5, &mut out).unwrap();
        assert_eq!(out, bits.broadcast_row(2, 5).unwrap());
        assert!(bits.broadcast_row_into(3, 5, &mut out).is_err());
    }

    /// Reference (pre-SIMD) packers the branchless versions must reproduce bit-exactly.
    fn pack_row_strict_reference(row: &[f32], words: &mut [u64]) -> bool {
        let mut exact = true;
        for (chunk, word) in row.chunks(64).zip(words.iter_mut()) {
            let mut w = 0u64;
            for (bit, &v) in chunk.iter().enumerate() {
                let b = v.to_bits();
                exact &= (b & 0x7fff_ffff) == 0x3f80_0000;
                w |= u64::from(b >> 31) << bit;
            }
            *word = w;
        }
        exact
    }

    fn pack_row_signs_reference(row: &[f32], words: &mut [u64]) {
        for (chunk, word) in row.chunks(64).zip(words.iter_mut()) {
            let mut w = 0u64;
            for (bit, &v) in chunk.iter().enumerate() {
                w |= u64::from(v < 0.0) << bit;
            }
            *word = w;
        }
    }

    mod packer_props {
        use super::*;
        use proptest::prelude::*;
        use rand::Rng;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn prop_strict_packer_matches_reference(seed in 0u64..1000, dim_sel in 0usize..8) {
                // Non-pow2 tails included: every tail length class mod 8 and mod 64.
                let dim = [1usize, 7, 8, 63, 64, 65, 100, 257][dim_sel];
                let m = random_bipolar_matrix(2, dim, seed);
                let words = BitMatrix::words_for_dim(dim);
                for i in 0..2 {
                    let mut fast = vec![0u64; words];
                    let mut slow = vec![0u64; words];
                    let ok_fast = pack_row_strict(m.row(i), &mut fast);
                    let ok_slow = pack_row_strict_reference(m.row(i), &mut slow);
                    prop_assert_eq!(ok_fast, ok_slow);
                    prop_assert_eq!(&fast, &slow);
                    // Strict and signs agree on exactly-bipolar rows (no -0.0 present).
                    let mut signs = vec![0u64; words];
                    pack_row_signs(m.row(i), &mut signs);
                    prop_assert_eq!(&fast, &signs);
                }
            }

            #[test]
            fn prop_signs_packer_matches_reference(seed in 0u64..1000, dim_sel in 0usize..8) {
                let dim = [1usize, 7, 8, 63, 64, 65, 100, 257][dim_sel];
                // Arbitrary reals with sign-convention edge cases spliced in.
                let mut r = rng(seed);
                let mut row: Vec<f32> = (0..dim)
                    .map(|_| (r.gen::<f32>() - 0.5) * 4.0)
                    .collect();
                for (j, v) in row.iter_mut().enumerate() {
                    match (seed as usize + j) % 7 {
                        0 => *v = 0.0,
                        1 => *v = -0.0,
                        2 => *v = 1.0,
                        3 => *v = -1.0,
                        _ => {}
                    }
                }
                let words = BitMatrix::words_for_dim(dim);
                let mut fast = vec![0u64; words];
                let mut slow = vec![0u64; words];
                pack_row_signs(&row, &mut fast);
                pack_row_signs_reference(&row, &mut slow);
                prop_assert_eq!(&fast, &slow);
                // Any non-bipolar element must fail the strict packer, exactly like
                // the reference (|v| == 1.0 bit test, so -0.0 and 0.0 both fail it).
                let strict_ok = pack_row_strict(&row, &mut fast);
                let all_bipolar = row.iter().all(|v| (v.to_bits() & 0x7fff_ffff) == 0x3f80_0000);
                prop_assert_eq!(strict_ok, all_bipolar);
            }
        }
    }

    mod simd_props {
        use super::*;
        use proptest::prelude::*;
        use rand::Rng;

        /// A named Hamming kernel: one detected SIMD tier.
        type TierKernel = (&'static str, HammingFn);

        /// Every SIMD tier available on the running CPU, by name; the generic kernel
        /// is the reference the rest are pinned against.
        fn available_tier_kernels() -> Vec<TierKernel> {
            let mut kernels: Vec<TierKernel> = Vec::new();
            #[cfg(target_arch = "x86_64")]
            {
                use std::arch::is_x86_feature_detected;
                if is_x86_feature_detected!("popcnt") {
                    kernels.push(("popcnt", simd::hamming_popcnt_checked));
                }
                if is_x86_feature_detected!("avx2") {
                    kernels.push(("avx2", simd::hamming_avx2_checked));
                }
                if is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512vpopcntdq")
                {
                    kernels.push(("avx512", simd::hamming_avx512_checked));
                }
            }
            kernels
        }

        /// Every amplitude-mask kernel available on the running CPU, by name;
        /// `amplitude_mask_generic` is the reference the rest are pinned against.
        fn available_mask_kernels() -> Vec<(&'static str, AmplitudeMaskFn)> {
            let mut kernels: Vec<(&'static str, AmplitudeMaskFn)> =
                vec![("dispatched", amplitude_mask_fn())];
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                kernels.push(("avx2", simd::amplitude_mask_avx2_checked));
            }
            kernels
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// Every available mask tier returns exactly the scalar mask — and the
            /// scalar mask is exactly the per-element `|v| <= amplitude` rule — on
            /// every length from 0 to 64 (whole vectors plus a ragged scalar tail),
            /// with eligibility scattered inside the word and the edge values that
            /// decide the draws: NaN (never), ±0.0 and `== amplitude` (always),
            /// ±infinity (never), subnormals.
            #[test]
            fn prop_amplitude_mask_tiers_match_scalar(seed in 0u64..1000, amp_centi in 1u32..400) {
                let amplitude = amp_centi as f32 / 100.0;
                let mut r = rng(seed);
                let edges = [
                    f32::NAN, -f32::NAN, 0.0, -0.0, amplitude, -amplitude,
                    f32::INFINITY, f32::NEG_INFINITY, f32::MIN_POSITIVE / 2.0,
                ];
                for len in 0..=WORD_BITS {
                    let values: Vec<f32> = (0..len)
                        .map(|_| match r.gen_range(0..4) {
                            0 => edges[r.gen_range(0..edges.len())],
                            1 => (r.gen::<f32>() - 0.5) * amplitude,
                            _ => (r.gen::<f32>() - 0.5) * 4.0 * amplitude,
                        })
                        .collect();
                    let expected = amplitude_mask_generic(&values, amplitude);
                    for (j, v) in values.iter().enumerate() {
                        prop_assert_eq!((expected >> j) & 1 == 1, v.abs() <= amplitude);
                    }
                    if len < WORD_BITS {
                        prop_assert_eq!(expected >> len, 0);
                    }
                    for (name, kernel) in available_mask_kernels() {
                        prop_assert_eq!((name, len, kernel(&values, amplitude)), (name, len, expected));
                    }
                }
            }

            /// Every detected tier returns exactly `hamming_generic` on packed rows
            /// across pow2 and non-pow2 dims — including dims that exercise the
            /// Harley–Seal 64-word block path (4096), block+remainder (4224), and
            /// multi-block+scalar-tail shapes (8200) — with the zero-padded tail
            /// words the packers guarantee.
            #[test]
            fn prop_hamming_tiers_match_generic(seed in 0u64..1000, dim_sel in 0usize..8) {
                let dim = [1usize, 65, 100, 257, 1000, 4096, 4224, 8200][dim_sel];
                let m = random_bipolar_matrix(2, dim, seed);
                let bits = BitMatrix::from_matrix(&m).unwrap();
                let a = bits.row_words(0);
                let b = bits.row_words(1);
                let expected_ab = hamming_generic(a, b);
                let expected_aa = hamming_generic(a, a);
                for (name, kernel) in available_tier_kernels() {
                    prop_assert_eq!((name, kernel(a, b)), (name, expected_ab));
                    prop_assert_eq!((name, kernel(a, a)), (name, expected_aa));
                }
            }

            /// The SoA lane-blocked projection is bitwise-equal to the pre-blocking
            /// AoS walk — accumulators handed to `perturb` and the packed output —
            /// with and without a mutating perturbation, on query batches that
            /// cross the 8-row lane-block boundary.
            #[test]
            fn prop_project_signs_soa_matches_aos_reference(
                seed in 0u64..1000,
                dim_sel in 0usize..4,
                cb_rows in 1usize..12,
                queries in 1usize..20,
                noisy_sel in 0usize..2,
            ) {
                let noisy = noisy_sel == 1;
                let dim = [64usize, 70, 128, 200][dim_sel];
                let codebook = BitMatrix::from_matrix(&random_bipolar_matrix(cb_rows, dim, seed)).unwrap();
                let mut r = rng(seed ^ 0x50A);
                let mut weights = HvMatrix::zeros(queries, cb_rows);
                for q in 0..queries {
                    for w in weights.row_mut(q) {
                        *w = (r.gen::<f32>() - 0.5) * 3.0;
                    }
                }
                // The perturbation must be identical across both runs and, when
                // noisy, actually change the accumulators (so the test covers the
                // perturb → pack interaction, not just pure projection).
                let perturb_values: Vec<f32> = (0..queries * dim)
                    .map(|_| (r.gen::<f32>() - 0.5) * 0.5)
                    .collect();
                let backend = PackedBackend::new();
                let mut acc = Vec::new();
                let mut soa_out = BitMatrix::default();
                let mut soa_seen: Vec<Vec<u32>> = Vec::new();
                backend.project_signs_packed_into(
                    &codebook,
                    &weights,
                    |q, row| {
                        if noisy {
                            for (slot, z) in row.iter_mut().zip(&perturb_values[q * dim..]) {
                                *slot += z;
                            }
                        }
                        soa_seen.push(row.iter().map(|v| v.to_bits()).collect());
                    },
                    &mut acc,
                    &mut soa_out,
                );

                // AoS reference: the pre-SoA kernel shape — one query at a time,
                // codebook row outer, word chunk inner.
                let mut ref_out = BitMatrix::default();
                ref_out.ensure_shape(queries, dim);
                let mut ref_seen: Vec<Vec<u32>> = Vec::new();
                let mut ref_acc = vec![0.0f32; dim];
                for q in 0..queries {
                    ref_acc.fill(0.0);
                    for (m, &w) in weights.row(q).iter().enumerate() {
                        let w_bits = w.to_bits();
                        for (chunk, &word) in ref_acc.chunks_mut(WORD_BITS).zip(codebook.row_words(m)) {
                            for (bit, slot) in chunk.iter_mut().enumerate() {
                                let sign = ((word >> bit) as u32 & 1) << 31;
                                *slot += f32::from_bits(w_bits ^ sign);
                            }
                        }
                    }
                    if noisy {
                        for (slot, z) in ref_acc.iter_mut().zip(&perturb_values[q * dim..]) {
                            *slot += z;
                        }
                    }
                    ref_seen.push(ref_acc.iter().map(|v| v.to_bits()).collect());
                    ref_out.pack_signs_row(q, &ref_acc);
                }

                prop_assert_eq!(soa_seen, ref_seen);
                for q in 0..queries {
                    prop_assert_eq!(soa_out.row_words(q), ref_out.row_words(q));
                }
            }
        }
    }

    #[test]
    fn fused_step_projects_only_rows_whose_hook_asks() {
        // 11 query rows straddle the 8-row lane block; every third row declines.
        let (rows, dim, cb_rows) = (11, 200, 10);
        let codebook = BitMatrix::from_matrix(&random_bipolar_matrix(cb_rows, dim, 31)).unwrap();
        let query = BitMatrix::from_matrix(&random_bipolar_matrix(rows, dim, 32)).unwrap();
        let initial: Vec<BitMatrix> = (0..3)
            .map(|f| BitMatrix::from_matrix(&random_bipolar_matrix(rows, dim, 33 + f)).unwrap())
            .collect();
        let backend = PackedBackend::new();
        let run = |skip: fn(usize) -> bool| {
            let mut estimates = initial.clone();
            let (mut unbound, mut sims, mut acc) =
                (BitMatrix::default(), HvMatrix::default(), Vec::new());
            let mut projected = Vec::new();
            backend.resonate_step_fused_into(
                &codebook,
                &query,
                &mut estimates,
                1,
                &mut unbound,
                &mut sims,
                &mut acc,
                |phase, slot, values| {
                    if phase == ResonatePhase::Projection {
                        // A deterministic perturbation, so the pack sees hook edits.
                        values[slot % dim] -= 1000.0;
                        projected
                            .push((slot, values.iter().map(|v| v.to_bits()).collect::<Vec<_>>()));
                    }
                    !skip(slot)
                },
            );
            (estimates, projected, sims)
        };
        let (all_est, all_proj, all_sims) = run(|_| false);
        let (some_est, some_proj, some_sims) = run(|slot| slot % 3 == 1);
        assert_eq!(all_sims, some_sims);
        assert_eq!(all_proj.len(), rows);
        let kept: Vec<_> = all_proj
            .into_iter()
            .filter(|(slot, _)| slot % 3 != 1)
            .collect();
        assert_eq!(
            some_proj, kept,
            "same accumulators, ascending, declined rows absent"
        );
        for slot in 0..rows {
            let expected = if slot % 3 == 1 {
                &initial[1]
            } else {
                &all_est[1]
            };
            assert_eq!(
                some_est[1].row_words(slot),
                expected.row_words(slot),
                "row {slot}"
            );
        }
        assert_eq!((&some_est[0], &some_est[2]), (&initial[0], &initial[2]));
    }

    #[test]
    fn gather_broadcast_and_dot_helpers() {
        let m = random_bipolar_matrix(4, 70, 11);
        let bits = BitMatrix::from_matrix(&m).unwrap();
        let g = bits.gather(&[2, 0]).unwrap();
        assert_eq!(g.row_words(0), bits.row_words(2));
        assert_eq!(g.row_words(1), bits.row_words(0));
        assert!(bits.gather(&[4]).is_err());
        let b = bits.broadcast_row(1, 3).unwrap();
        for i in 0..3 {
            assert_eq!(b.row_words(i), bits.row_words(1));
        }
        assert_eq!(bits.dot_rows(0, &bits, 0), 70);
        assert!((bits.cosine_rows(0, &bits, 0) - 1.0).abs() < 1e-6);
        assert_eq!(bits.footprint_bytes(), 4 * 2 * 8);
    }

    #[test]
    fn random_bipolar_keeps_tail_bits_zero() {
        let mut r = rng(3);
        for dim in [1usize, 63, 64, 65, 100, 257] {
            let m = BitMatrix::random_bipolar(5, dim, &mut r);
            let tail = BitMatrix::tail_mask(dim);
            for i in 0..m.rows() {
                let row = m.row_words(i);
                assert_eq!(row.last().unwrap() & !tail, 0, "dim {dim} row {i}");
            }
            // Round-trips through the dense representation exactly.
            assert_eq!(BitMatrix::from_matrix(&m.to_matrix()).unwrap(), m);
        }
    }

    mod cleanup_index_props {
        use super::*;
        use proptest::prelude::*;
        use rand::Rng;

        /// Pins the indexed cleanup to the linear scan on the same operands:
        /// identical winner index, bitwise-identical similarity, and the same again
        /// from a scratch reused across both kernels.
        fn assert_decision_identity(codebook: &BitMatrix, queries: &BitMatrix) {
            let backend = PackedBackend::new();
            let index = CleanupIndex::build(codebook);
            let (mut linear, mut indexed) = (Vec::new(), Vec::new());
            backend.cleanup_batch_packed_into(
                codebook,
                queries,
                &mut CleanupScratch::default(),
                &mut linear,
            );
            backend.cleanup_batch_indexed_into(
                &index,
                queries,
                &mut CleanupScratch::default(),
                &mut indexed,
            );
            assert_eq!(linear.len(), indexed.len());
            for (q, (lin, ind)) in linear.iter().zip(&indexed).enumerate() {
                assert_eq!(lin.0, ind.0, "query {q}: winner index diverged");
                assert_eq!(
                    lin.1.to_bits(),
                    ind.1.to_bits(),
                    "query {q}: similarity diverged"
                );
            }
            let mut scratch = CleanupScratch::default();
            let mut out = Vec::new();
            backend.cleanup_batch_indexed_into(&index, queries, &mut scratch, &mut out);
            assert_eq!(out, indexed);
            backend.cleanup_batch_packed_into(codebook, queries, &mut scratch, &mut out);
            assert_eq!(out, linear);
        }

        #[test]
        fn indexed_cleanup_all_equidistant_rows_pick_lowest_index() {
            // Every codebook row is at Hamming distance 1 from the all-+1 query:
            // a maximal tie, which must resolve to row 0 on both paths.
            let (rows, dim) = (600, 1024);
            let mut codebook = BitMatrix::zeros(rows, dim);
            for r in 0..rows {
                codebook.flip_bit(r, r);
            }
            let queries = BitMatrix::zeros(3, dim);
            assert_decision_identity(&codebook, &queries);
            let index = CleanupIndex::build(&codebook);
            let mut out = Vec::new();
            PackedBackend::new().cleanup_batch_indexed_into(
                &index,
                &queries,
                &mut CleanupScratch::default(),
                &mut out,
            );
            for (idx, sim) in out {
                assert_eq!(idx, 0);
                assert!((sim - (1.0 - 2.0 / dim as f32)).abs() < 1e-6);
            }
        }

        #[test]
        fn cleanup_index_metadata() {
            let mut r = rng(17);
            let codebook = BitMatrix::random_bipolar(700, 1024, &mut r);
            let index = CleanupIndex::build(&codebook);
            assert_eq!(index.rows(), 700);
            assert_eq!(index.dim(), 1024);
            // d=1024 → 16 words per row → 2 SoA sketch planes, 14 rest words.
            assert_eq!(index.sketch_words(), 2);
            assert!(index.footprint_bytes() >= 700 * 16 * 8);
            // Empty codebooks build an empty (never-queried) index.
            assert_eq!(CleanupIndex::build(&BitMatrix::default()).rows(), 0);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Decision identity across pow2 and non-pow2 dims (1-word sketch at
            /// d ≤ 512, fused 2-plane pass at 1024+), uniform-random queries (mode
            /// 0, near-no pruning), perturbed codebook rows (mode 1, the production
            /// regime), and queries exactly equal to a codebook row (mode 2).
            #[test]
            fn prop_indexed_cleanup_matches_linear(
                seed in 0u64..1000,
                dim_sel in 0usize..6,
                rows in 1usize..700,
                queries in 1usize..8,
                mode in 0usize..3,
            ) {
                let dim = [64usize, 127, 256, 513, 1024, 1100][dim_sel];
                let mut r = rng(seed);
                let codebook = BitMatrix::random_bipolar(rows, dim, &mut r);
                let q = match mode {
                    0 => BitMatrix::random_bipolar(queries, dim, &mut r),
                    _ => {
                        let picks: Vec<usize> =
                            (0..queries).map(|_| r.gen_range(0..rows)).collect();
                        let mut q = codebook.gather(&picks).unwrap();
                        if mode == 1 {
                            for i in 0..queries {
                                for _ in 0..(dim / 50).max(1) {
                                    q.flip_bit(i, r.gen_range(0..dim));
                                }
                            }
                        }
                        q
                    }
                };
                assert_decision_identity(&codebook, &q);
            }

            /// Duplicate-heavy codebooks: a handful of distinct planes each
            /// repeated many times, queried with the planes themselves — exact
            /// duplicates and ties everywhere, must still pick the lowest index.
            #[test]
            fn prop_indexed_cleanup_duplicate_rows(seed in 0u64..1000, rows in 2usize..80) {
                let mut r = rng(seed);
                let distinct = BitMatrix::random_bipolar(4, 256, &mut r);
                let picks: Vec<usize> = (0..rows).map(|_| r.gen_range(0..4)).collect();
                let codebook = distinct.gather(&picks).unwrap();
                assert_decision_identity(&codebook, &distinct);
            }
        }
    }
}
