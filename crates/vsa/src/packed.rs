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
//! kernels through [`VsaBackend::as_packed`]; operands without sign planes run the
//! [`ReferenceBackend`](crate::ReferenceBackend) kernels, so `BackendKind::Packed`
//! is always safe to select.
//!
//! Sign convention: a set bit means **negative** (`-1.0`), mirroring the IEEE-754 sign
//! bit; `+1.0` packs to 0. The unused tail bits of the last word in each row are kept
//! at zero (see [`BitMatrix::tail_mask`]), which lets every kernel run whole-word
//! XOR/popcount without per-row masking.
//!
//! Every Hamming scan — the similarity GEMM (the resonator step's similarity
//! included) and the cleanup (codebook and product) scan — is one register-tiled
//! kernel: a 2-query × 4-row tile keeps one popcount accumulator per (query, row)
//! pair across every word and reduces all eight together once, so no pair pays a
//! call or a horizontal reduce of its own. The single-pair dot products
//! ([`BitMatrix::dot_rows`]) call the same kernel on one query and one row, which
//! it runs as its 1 × 1 tile. Every tier ([`dispatch_tier`]) returns the same
//! integer distances.
//!
//! The one `f32` kernel on sign planes is the resonator's weighted sign projection,
//! `acc[j] = Σ_m ±w[m]` over a codebook's rows. It runs one query row at a time: for
//! each 64-dim word the row kernel keeps that word's accumulators in registers
//! across the whole codebook sweep and stores them once (four zmm registers per
//! word on AVX-512, eight ymm on AVX2, a 64-slot tile in the scalar fallback; see
//! [`projection_tier`]). On AVX-512 the first five codebook rows come from a
//! 32-entry prefix table built once per weight row and read with one `vpermt2ps`
//! per 16 dims, indexed by per-dimension codes built once per call (on AVX2 the
//! first three, from an 8-entry table and `vpermps`). Every tier
//! adds the same `±w` sequence to each dimension in ascending codebook-row order
//! from `+0.0`, so every tier packs the same signs. That `v < 0.0` sign pack
//! ([`BitMatrix::pack_signs_row`]) also packs the exactly-bipolar rows of the `f32`
//! boundary ([`BitMatrix::pack_from`]).

use crate::batch::{HvMatrix, VsaBackend};
use crate::error::VsaError;
use crate::hypervector::Hypervector;
use serde::{Deserialize, Serialize};

/// Bits per storage word.
const WORD_BITS: usize = 64;

/// Codebook rows per cache block of the sign-plane scan ([`scan_hamming`]), at most.
///
/// A block also holds at most [`SCAN_BLOCK_WORDS`] words, so it stays L1-resident
/// while every query streams past it (128 rows up to d = 2048, 64 at d = 4096), and
/// a large codebook is read from DRAM once per block instead of once per query.
const CODEBOOK_BLOCK_ROWS: usize = 128;

/// Words per codebook block of the sign-plane scan, at most: 32 KiB of planes.
const SCAN_BLOCK_WORDS: usize = 4096;

/// Query rows per block of the sign-plane scan: one query block's distances to
/// one codebook block fill a 4 KiB buffer on the stack.
const SCAN_QUERY_ROWS: usize = 8;

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

/// Negative-mask of eight lanes under the estimate-binarisation convention `v < 0.0`
/// (`-0.0` packs to `+1`, unlike the raw IEEE sign bit).
#[inline]
fn neg_mask8(lane: &[f32; 8]) -> u64 {
    let s = |i: usize| u64::from(lane[i] < 0.0) << i;
    ((s(0) | s(1)) | (s(2) | s(3))) | ((s(4) | s(5)) | (s(6) | s(7)))
}

/// Whether every element of `row` is exactly `±1.0`: a value's magnitude bits XOR
/// those of `1.0` are zero only there, so one branchless OR over the row decides
/// it, and `-0.0`, NaN and every other magnitude leave a bit set.
fn is_bipolar(row: &[f32]) -> bool {
    row.iter().fold(0u32, |bad, v| {
        bad | ((v.to_bits() & 0x7fff_ffff) ^ 0x3f80_0000)
    }) == 0
}

/// Packs the *signs* of an arbitrary `f32` row, using the `v < 0.0` convention of the
/// estimate binarisation step (`-0.0` packs to `+1`, unlike the IEEE sign bit): the
/// scalar tier of the dispatched sign pack, eight lanes per [`neg_mask8`].
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

/// Function-pointer type of the Hamming block kernels behind [`Dispatch`]:
/// `hamming_block(queries, rows, wpr, out)` writes the Hamming distance of query
/// row `q` and codebook row `r` to `out[q * n_rows + r]`, for the
/// `queries.len() / wpr` query rows and `n_rows = rows.len() / wpr` codebook rows
/// of two row-major sign-plane slices (`wpr` words per row; the tail bits are zero
/// on both sides, so whole-word popcount needs no masking).
type HammingBlockFn = fn(&[u64], &[u64], usize, &mut [u32]);

/// One Hamming tier's register tile: the distances of `Q` query rows against `R`
/// codebook rows (`queries` holds `Q · wpr` words, `rows` `R · wpr`). Each of the
/// `Q · R` pairs keeps its own popcount accumulator across every word, and the
/// tile reduces them all together once, so no pair pays a call or a horizontal
/// reduce of its own. `Q · R` is at most 8.
trait HammingTile {
    fn tile<const Q: usize, const R: usize>(
        queries: &[u64],
        rows: &[u64],
        wpr: usize,
    ) -> [[u32; R]; Q];
}

/// The [`HammingBlockFn`] contract on tier `T`: 2-query × 4-row register tiles,
/// narrowed to the 1–3 rows and the single query left at the block's ragged
/// edges. Inlined into each tier's entry point, so the tiles compile with that
/// tier's target features.
#[inline(always)]
fn hamming_block_with<T: HammingTile>(queries: &[u64], rows: &[u64], wpr: usize, out: &mut [u32]) {
    let n_rows = rows.len() / wpr;
    if n_rows == 0 {
        return;
    }
    for (qs, out) in queries.chunks(2 * wpr).zip(out.chunks_mut(2 * n_rows)) {
        if qs.len() == 2 * wpr {
            tile_rows::<T, 2>(qs, rows, wpr, out);
        } else {
            tile_rows::<T, 1>(qs, rows, wpr, out);
        }
    }
}

/// One strip of [`hamming_block_with`]: `Q` query rows against every codebook
/// row, four rows per tile.
#[inline(always)]
fn tile_rows<T: HammingTile, const Q: usize>(
    queries: &[u64],
    rows: &[u64],
    wpr: usize,
    out: &mut [u32],
) {
    let n_rows = rows.len() / wpr;
    let mut quads = rows.chunks_exact(4 * wpr);
    for (t, quad) in quads.by_ref().enumerate() {
        store_tile(&T::tile::<Q, 4>(queries, quad, wpr), out, n_rows, 4 * t);
    }
    let rest = quads.remainder();
    let first = n_rows - rest.len() / wpr;
    match rest.len() / wpr {
        3 => store_tile(&T::tile::<Q, 3>(queries, rest, wpr), out, n_rows, first),
        2 => store_tile(&T::tile::<Q, 2>(queries, rest, wpr), out, n_rows, first),
        1 => store_tile(&T::tile::<Q, 1>(queries, rest, wpr), out, n_rows, first),
        _ => {}
    }
}

/// Copies a tile's distances into the strip's output, rows `first..first + R`.
#[inline(always)]
fn store_tile<const Q: usize, const R: usize>(
    tile: &[[u32; R]; Q],
    out: &mut [u32],
    n_rows: usize,
    first: usize,
) {
    for (q, dist) in tile.iter().enumerate() {
        out[q * n_rows + first..][..R].copy_from_slice(dist);
    }
}

/// The scalar register tile, `u64::count_ones()` per word. Compiled as-is it is
/// the generic tier; inlined into a `popcnt`-enabled entry point it is the
/// `popcnt` tier.
struct ScalarTile;

impl HammingTile for ScalarTile {
    #[inline(always)]
    fn tile<const Q: usize, const R: usize>(
        queries: &[u64],
        rows: &[u64],
        wpr: usize,
    ) -> [[u32; R]; Q] {
        let queries: [&[u64]; Q] = std::array::from_fn(|q| &queries[q * wpr..][..wpr]);
        let rows: [&[u64]; R] = std::array::from_fn(|r| &rows[r * wpr..][..wpr]);
        let mut acc = [[0u32; R]; Q];
        for w in 0..wpr {
            for (acc, query) in acc.iter_mut().zip(queries) {
                for (a, row) in acc.iter_mut().zip(rows) {
                    *a += (query[w] ^ row[w]).count_ones();
                }
            }
        }
        acc
    }
}

/// The generic tier of the Hamming block kernel.
fn hamming_block_generic(queries: &[u64], rows: &[u64], wpr: usize, out: &mut [u32]) {
    hamming_block_with::<ScalarTile>(queries, rows, wpr, out);
}

/// The Hamming distance of two rows of equal length through a block kernel: one
/// query against one row, which [`hamming_block_with`] runs as its 1 × 1 tile.
fn pair_distance(hamming_block: HammingBlockFn, a: &[u64], b: &[u64]) -> u32 {
    let mut dist = [0];
    hamming_block(a, b, a.len(), &mut dist);
    dist[0]
}

/// SIMD width a kernel family resolved to on this CPU: the Hamming kernels report
/// theirs through [`dispatch_tier`], the sign projection through
/// [`projection_tier`]. The variant docs describe the Hamming kernels.
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
    /// Scalar `popcnt` instruction, one accumulator per pair of the tile.
    Popcnt,
    /// Nibble-LUT `vpshufb` popcount of four words per 256-bit lane.
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

/// Runtime-dispatched SIMD kernels: the Hamming block kernel, the sign projection
/// row kernel, the sign pack and the noise eligibility mask.
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

    /// The `popcnt` tier of the Hamming block kernel: the scalar tile compiled
    /// with the `popcnt` target feature, where `u64::count_ones()` is a single
    /// instruction instead of the baseline x86-64 bit hack.
    #[target_feature(enable = "popcnt")]
    fn hamming_block_popcnt(queries: &[u64], rows: &[u64], wpr: usize, out: &mut [u32]) {
        super::hamming_block_with::<super::ScalarTile>(queries, rows, wpr, out);
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

    /// Adds the popcounts of four words at `w` of every (query, row) pair of an
    /// AVX2 tile to its accumulators. Only the words `keep` selects are loaded
    /// (the others read as zero), so the ragged last words of a row never read
    /// into the next one.
    ///
    /// # Safety
    /// `queries` must hold `Q · wpr` words and `rows` `R · wpr`, and `keep` may
    /// select only words below `wpr`: lane `i` set means `w + i < wpr`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn accumulate_avx2<const Q: usize, const R: usize>(
        acc: &mut [[__m256i; Q]; R],
        queries: &[u64],
        rows: &[u64],
        wpr: usize,
        w: usize,
        keep: __m256i,
    ) {
        let mut qv = [_mm256_setzero_si256(); Q];
        for (q, v) in qv.iter_mut().enumerate() {
            // SAFETY: by the contract, `keep` selects only words of query row q,
            // all inside `queries`; masked-off lanes are never accessed and
            // maskload has no alignment requirement.
            *v = unsafe { _mm256_maskload_epi64(queries.as_ptr().add(q * wpr + w).cast(), keep) };
        }
        for (r, acc) in acc.iter_mut().enumerate() {
            // SAFETY: as above, for codebook row r inside `rows`.
            let rv = unsafe { _mm256_maskload_epi64(rows.as_ptr().add(r * wpr + w).cast(), keep) };
            for (a, &v) in acc.iter_mut().zip(&qv) {
                *a = _mm256_add_epi64(*a, popcount256(_mm256_xor_si256(v, rv)));
            }
        }
    }

    /// `[a0 + a1, b0 + b1, a2 + a3, b2 + b3]`: adjacent lanes of `a` and `b`
    /// summed and interleaved, the first step of [`reduce4_avx2`].
    #[target_feature(enable = "avx2")]
    fn pair_sum_avx2(a: __m256i, b: __m256i) -> __m256i {
        _mm256_add_epi64(_mm256_unpacklo_epi64(a, b), _mm256_unpackhi_epi64(a, b))
    }

    /// Lane `i` of the result is the sum of the four lanes of `v[i]`.
    #[target_feature(enable = "avx2")]
    fn reduce4_avx2(v: &[__m256i; 4]) -> __m256i {
        let (s01, s23) = (pair_sum_avx2(v[0], v[1]), pair_sum_avx2(v[2], v[3]));
        _mm256_add_epi64(
            _mm256_permute2x128_si256::<0x20>(s01, s23),
            _mm256_permute2x128_si256::<0x31>(s01, s23),
        )
    }

    /// The AVX2 register tile: per four-word step, two query loads, four row
    /// loads and eight lookup popcounts into eight `u64x4` accumulators, reduced
    /// together at the end by one transposing add tree. The last step loads its
    /// ragged words masked.
    #[target_feature(enable = "avx2")]
    fn tile_avx2<const Q: usize, const R: usize>(
        queries: &[u64],
        rows: &[u64],
        wpr: usize,
    ) -> [[u32; R]; Q] {
        assert!(queries.len() >= Q * wpr && rows.len() >= R * wpr);
        let mut acc = [[_mm256_setzero_si256(); Q]; R];
        let full = wpr & !3;
        let all = _mm256_set1_epi64x(-1);
        for w in (0..full).step_by(4) {
            // SAFETY: lengths asserted above; w + 4 <= full <= wpr.
            unsafe { accumulate_avx2(&mut acc, queries, rows, wpr, w, all) };
        }
        if full < wpr {
            let keep = _mm256_cmpgt_epi64(
                _mm256_set1_epi64x((wpr - full) as i64),
                _mm256_setr_epi64x(0, 1, 2, 3),
            );
            // SAFETY: lengths asserted above; `keep` selects words full..wpr.
            unsafe { accumulate_avx2(&mut acc, queries, rows, wpr, full, keep) };
        }
        let mut flat = [_mm256_setzero_si256(); 8];
        for (r, acc) in acc.iter().enumerate() {
            for (q, &a) in acc.iter().enumerate() {
                flat[q * R + r] = a;
            }
        }
        // Pairs of accumulators share one u64 lane (a distance is below 2^32),
        // so one four-way reduce yields all eight sums.
        let mut packed = [_mm256_setzero_si256(); 4];
        for (p, ab) in packed.iter_mut().zip(flat.chunks_exact(2)) {
            *p = _mm256_add_epi64(ab[0], _mm256_slli_epi64::<32>(ab[1]));
        }
        let mut sums = [0u32; 8];
        // SAFETY: `sums` is exactly 32 bytes; storeu has no alignment requirement.
        unsafe { _mm256_storeu_si256(sums.as_mut_ptr().cast(), reduce4_avx2(&packed)) };
        tile_from_sums(&sums)
    }

    /// Unflattens a tile's reduced sums: entry `q · R + r` is pair `(q, r)`.
    #[inline(always)]
    fn tile_from_sums<const Q: usize, const R: usize>(sums: &[u32; 8]) -> [[u32; R]; Q] {
        let mut tile = [[0u32; R]; Q];
        for (q, row) in tile.iter_mut().enumerate() {
            row.copy_from_slice(&sums[q * R..(q + 1) * R]);
        }
        tile
    }

    /// Routes the tile walk to [`tile_avx2`]; only built inside
    /// [`hamming_block_avx2`].
    struct Avx2Tile;

    impl super::HammingTile for Avx2Tile {
        #[inline(always)]
        fn tile<const Q: usize, const R: usize>(
            queries: &[u64],
            rows: &[u64],
            wpr: usize,
        ) -> [[u32; R]; Q] {
            // SAFETY: this private tile is walked only by hamming_block_avx2,
            // which detect() returns only when avx2 was detected.
            unsafe { tile_avx2::<Q, R>(queries, rows, wpr) }
        }
    }

    /// The AVX2 tier of the Hamming block kernel.
    #[target_feature(enable = "avx2")]
    fn hamming_block_avx2(queries: &[u64], rows: &[u64], wpr: usize, out: &mut [u32]) {
        super::hamming_block_with::<Avx2Tile>(queries, rows, wpr, out);
    }

    /// Adds the popcounts of eight words at `w` of every (query, row) pair of an
    /// AVX-512 tile to its accumulators. Only the words `keep` selects are
    /// loaded (the others read as zero), so the ragged last words of a row never
    /// read into the next one.
    ///
    /// # Safety
    /// `queries` must hold `Q · wpr` words and `rows` `R · wpr`, and `keep` may
    /// select only words below `wpr`: bit `i` set means `w + i < wpr`.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    #[inline]
    unsafe fn accumulate_avx512<const Q: usize, const R: usize>(
        acc: &mut [[__m512i; Q]; R],
        queries: &[u64],
        rows: &[u64],
        wpr: usize,
        w: usize,
        keep: __mmask8,
    ) {
        let mut qv = [_mm512_setzero_si512(); Q];
        for (q, v) in qv.iter_mut().enumerate() {
            // SAFETY: by the contract, `keep` selects only words of query row q,
            // all inside `queries`; masked-off lanes are never accessed and
            // loadu has no alignment requirement.
            *v =
                unsafe { _mm512_maskz_loadu_epi64(keep, queries.as_ptr().add(q * wpr + w).cast()) };
        }
        for (r, acc) in acc.iter_mut().enumerate() {
            // SAFETY: as above, for codebook row r inside `rows`.
            let rv =
                unsafe { _mm512_maskz_loadu_epi64(keep, rows.as_ptr().add(r * wpr + w).cast()) };
            for (a, &v) in acc.iter_mut().zip(&qv) {
                *a = _mm512_add_epi64(*a, _mm512_popcnt_epi64(_mm512_xor_si512(v, rv)));
            }
        }
    }

    /// `[a0 + a1, b0 + b1, a2 + a3, b2 + b3, …]`: adjacent lanes of `a` and `b`
    /// summed and interleaved, the first step of [`reduce8_avx512`].
    #[target_feature(enable = "avx512f")]
    fn pair_sum_avx512(a: __m512i, b: __m512i) -> __m512i {
        _mm512_add_epi64(_mm512_unpacklo_epi64(a, b), _mm512_unpackhi_epi64(a, b))
    }

    /// Lane `i` of the result (as `u32`) is the sum of the eight lanes of
    /// `v[i]`, for sums below 2^32 (a Hamming distance is at most d). Pairs of
    /// accumulators first share one `u64` lane (`v[2k] + (v[2k+1] << 32)`), which
    /// halves the transposing add tree: four unpacks, two two-source permutes
    /// and one extract for all eight sums.
    #[target_feature(enable = "avx512f")]
    fn reduce8_avx512(v: &[__m512i; 8]) -> __m256i {
        let mut packed = [_mm512_setzero_si512(); 4];
        for (p, ab) in packed.iter_mut().zip(v.chunks_exact(2)) {
            *p = _mm512_add_epi64(ab[0], _mm512_slli_epi64::<32>(ab[1]));
        }
        // 128-bit lane j of `a` holds lane pair j of packed[0] and packed[1]
        // summed, of `b` the same for packed[2] and packed[3].
        let a = pair_sum_avx512(packed[0], packed[1]);
        let b = pair_sum_avx512(packed[2], packed[3]);
        // [a0, b0, a1, b1] + [a2, b2, a3, b3] by 128-bit lane, then the halves.
        let low = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
        let high = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
        let t = _mm512_add_epi64(
            _mm512_permutex2var_epi64(a, low, b),
            _mm512_permutex2var_epi64(a, high, b),
        );
        _mm256_add_epi64(_mm512_castsi512_si256(t), _mm512_extracti64x4_epi64::<1>(t))
    }

    /// The AVX-512 register tile: per eight-word step, two query loads, four row
    /// loads and eight `vpopcntq` into eight `u64x8` accumulators, reduced
    /// together at the end by one transposing add tree. The last step loads its
    /// ragged words masked.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn tile_avx512<const Q: usize, const R: usize>(
        queries: &[u64],
        rows: &[u64],
        wpr: usize,
    ) -> [[u32; R]; Q] {
        assert!(queries.len() >= Q * wpr && rows.len() >= R * wpr);
        let mut acc = [[_mm512_setzero_si512(); Q]; R];
        let full = wpr & !7;
        for w in (0..full).step_by(8) {
            // SAFETY: lengths asserted above; w + 8 <= full <= wpr.
            unsafe { accumulate_avx512(&mut acc, queries, rows, wpr, w, 0xff) };
        }
        if full < wpr {
            let keep = ((1u32 << (wpr - full)) - 1) as __mmask8;
            // SAFETY: lengths asserted above; `keep` selects words full..wpr.
            unsafe { accumulate_avx512(&mut acc, queries, rows, wpr, full, keep) };
        }
        let mut sums = [0u32; 8];
        if Q * R == 1 {
            sums[0] = _mm512_reduce_add_epi64(acc[0][0]) as u32;
        } else {
            let mut flat = [_mm512_setzero_si512(); 8];
            for (r, acc) in acc.iter().enumerate() {
                for (q, &a) in acc.iter().enumerate() {
                    flat[q * R + r] = a;
                }
            }
            // SAFETY: `sums` is exactly 32 bytes; storeu has no alignment
            // requirement.
            unsafe { _mm256_storeu_si256(sums.as_mut_ptr().cast(), reduce8_avx512(&flat)) };
        }
        tile_from_sums(&sums)
    }

    /// Routes the tile walk to [`tile_avx512`]; only built inside
    /// [`hamming_block_avx512`].
    struct Avx512Tile;

    impl super::HammingTile for Avx512Tile {
        #[inline(always)]
        fn tile<const Q: usize, const R: usize>(
            queries: &[u64],
            rows: &[u64],
            wpr: usize,
        ) -> [[u32; R]; Q] {
            // SAFETY: this private tile is walked only by hamming_block_avx512,
            // which detect() returns only when avx512f and avx512vpopcntdq were
            // detected.
            unsafe { tile_avx512::<Q, R>(queries, rows, wpr) }
        }
    }

    /// The AVX-512 tier of the Hamming block kernel.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn hamming_block_avx512(queries: &[u64], rows: &[u64], wpr: usize, out: &mut [u32]) {
        super::hamming_block_with::<Avx512Tile>(queries, rows, wpr, out);
    }

    /// Stores up to 16 accumulators per vector into `dst`, whose length may be
    /// anything up to `16 · vectors.len()`; lanes past its end are dropped.
    #[target_feature(enable = "avx512f")]
    fn store_lanes_avx512(vectors: &[__m512], dst: &mut [f32]) {
        for (v, chunk) in vectors.iter().zip(dst.chunks_mut(16)) {
            // SAFETY: the mask keeps only the first chunk.len() (<= 16) lanes, all
            // inside `chunk`; masked-off lanes are never accessed and storeu has
            // no alignment requirement.
            unsafe {
                let keep = ((1u32 << chunk.len()) - 1) as __mmask16;
                _mm512_mask_storeu_ps(chunk.as_mut_ptr(), keep, *v);
            }
        }
    }

    /// Codebook rows the `avx512` projection tier sums through its prefix
    /// table: a table of `2^5 = 32` entries fills the two zmm registers one
    /// `vpermt2ps` indexes.
    const AVX512_PREFIX_ROWS: usize = 5;

    /// Writes one `k`-bit prefix code per dimension into `codes`, `k =
    /// min(rows, AVX512_PREFIX_ROWS)`: bit `r` of dimension `j`'s code is bit
    /// `j` of codebook row `r`, so the code is the index of that dimension's
    /// entry in [`prefix_table_avx512`]. Each 16-dim slice of the first `k` rows' words
    /// loads straight into a `k`-mask that ORs `1 << r` into the slice's 16 code
    /// lanes; the codes are stored as `u32` bit patterns, 64 per codebook word
    /// (the padding dims of the last word get code 0, which no lane reads).
    #[target_feature(enable = "avx512f")]
    fn prefix_codes_avx512(words: &[u64], wpr: usize, rows: usize, codes: &mut [f32]) {
        let k = rows.min(AVX512_PREFIX_ROWS);
        assert!(words.len() >= rows * wpr && codes.len() >= wpr * super::WORD_BITS);
        let slices = words.as_ptr().cast::<__mmask16>();
        let bits: [__m512i; AVX512_PREFIX_ROWS] =
            std::array::from_fn(|r| _mm512_set1_epi32(1 << r));
        for (s, dst) in codes[..wpr * super::WORD_BITS]
            .chunks_exact_mut(16)
            .enumerate()
        {
            let mut code = _mm512_setzero_si512();
            for (r, &bit) in bits[..k].iter().enumerate() {
                // SAFETY: r < k <= rows and s < 4 · wpr keep this 16-bit slice
                // inside words[r * wpr..(r + 1) * wpr] (asserted above).
                let set = unsafe { _load_mask16(slices.add(4 * r * wpr + s)) };
                code = _mm512_mask_or_epi32(code, set, code, bit);
            }
            // SAFETY: chunks_exact_mut(16) guarantees sixteen 4-byte slots;
            // storeu has no alignment requirement.
            unsafe { _mm512_storeu_si512(dst.as_mut_ptr().cast(), code) };
        }
    }

    /// The 32-entry prefix table of one weight row, in two zmm registers (entries
    /// 0–15, 16–31): entry `c` is `((+0.0 + s₀) + s₁) + … + s_{k−1}`, `k =
    /// min(weights.len(), AVX512_PREFIX_ROWS)`, where `s_r` is `weights[r]`
    /// with its IEEE sign bit flipped when bit `r` of `c` is set — the same
    /// `±w` adds, in the same order from `+0.0`, that
    /// [`super::project_row_generic`] makes for a dimension whose first `k`
    /// sign bits spell `c`. Each row's addends are a blend of `+w` and `-w`
    /// under a fixed lane pattern of bit `r`.
    #[target_feature(enable = "avx512f")]
    fn prefix_table_avx512(weights: &[f32]) -> (__m512, __m512) {
        const LOW: [__mmask16; AVX512_PREFIX_ROWS] = [0xAAAA, 0xCCCC, 0xF0F0, 0xFF00, 0x0000];
        const HIGH: [__mmask16; AVX512_PREFIX_ROWS] = [0xAAAA, 0xCCCC, 0xF0F0, 0xFF00, 0xFFFF];
        let sign = _mm512_set1_epi32(i32::MIN);
        let (mut low, mut high) = (_mm512_setzero_ps(), _mm512_setzero_ps());
        for (r, &w) in weights.iter().take(AVX512_PREFIX_ROWS).enumerate() {
            let w = _mm512_castps_si512(_mm512_set1_ps(w));
            let neg = _mm512_xor_si512(w, sign);
            low = _mm512_add_ps(
                low,
                _mm512_castsi512_ps(_mm512_mask_blend_epi32(LOW[r], w, neg)),
            );
            high = _mm512_add_ps(
                high,
                _mm512_castsi512_ps(_mm512_mask_blend_epi32(HIGH[r], w, neg)),
            );
        }
        (low, high)
    }

    /// Sums `N / 4` adjacent words' `±w` addends over the whole codebook into
    /// `N` zmm accumulators: lane `i` of accumulator `v` belongs to bit `16v + i`
    /// of the column starting at word `first`. Each accumulator starts as its
    /// lanes' first-`k`-row sums, one `vpermt2ps` of `table` by their prefix
    /// codes, and adds rows `k..` one at a time.
    ///
    /// # Safety
    /// `words` must hold `weights.len() * wpr` words and `codes` at least
    /// `64 · (first + N / 4)` codes, with `first + N / 4 <= wpr`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn sweep_avx512<const N: usize>(
        words: &[u64],
        wpr: usize,
        first: usize,
        weights: &[f32],
        codes: &[f32],
        (low, high): (__m512, __m512),
    ) -> [__m512; N] {
        let sign = _mm512_set1_epi32(i32::MIN);
        let slices = words.as_ptr().cast::<__mmask16>();
        // SAFETY: first < wpr keeps this offset inside `codes`.
        let lanes = unsafe { codes.as_ptr().add(super::WORD_BITS * first) };
        let mut acc: [__m512; N] = std::array::from_fn(|v| {
            // SAFETY: v < N keeps these 16 codes inside the first
            // 64 · (first + N / 4) codes of `codes`.
            let code = unsafe { _mm512_loadu_si512(lanes.add(16 * v).cast()) };
            _mm512_permutex2var_ps(low, code, high)
        });
        let prefix = weights.len().min(AVX512_PREFIX_ROWS);
        for (m, &w) in weights.iter().enumerate().skip(prefix) {
            let w = _mm512_castps_si512(_mm512_set1_ps(w));
            let neg = _mm512_xor_si512(w, sign);
            // SAFETY: m < weights.len() and first + N / 4 <= wpr keep the N
            // 16-bit slices read here inside words[m * wpr..(m + 1) * wpr].
            let row = unsafe { slices.add(4 * (m * wpr + first)) };
            for (v, a) in acc.iter_mut().enumerate() {
                // SAFETY: see above; the slice load is a 16-bit mask read.
                let k = unsafe { _load_mask16(row.add(v)) };
                let addend = _mm512_mask_blend_epi32(k, w, neg);
                *a = _mm512_add_ps(*a, _mm512_castsi512_ps(addend));
            }
        }
        acc
    }

    /// The projection row kernel on AVX-512F, a prefix-table kernel: the first
    /// `k = min(rows, AVX512_PREFIX_ROWS)` codebook rows are summed once per
    /// weight row into the 32-entry [`prefix_table_avx512`], and every 16 dims
    /// read their first-`k`-row sums from it with one `vpermt2ps` by the
    /// per-dimension codes [`prefix_codes_avx512`] wrote. Rows `k..` are added as before: two 64-dim
    /// words per pass, their 128 accumulators held in eight zmm registers across
    /// the rest of the sweep and stored once; each row's weight is broadcast once
    /// and its two words' 16-bit slices load straight into `k`-masks that select
    /// `-w` over `+w` lane by lane (`vpblendmd` + `vaddps`), eight independent
    /// add chains.
    ///
    /// Bitwise identical to [`super::project_row_generic`]: every lane's table
    /// entry is its first `k` rows' `±w` added in ascending order from `+0.0`,
    /// and the remaining rows follow in ascending order.
    #[target_feature(enable = "avx512f")]
    fn project_row_avx512(
        words: &[u64],
        wpr: usize,
        rows: usize,
        weights: &[f32],
        codes: &[f32],
        acc_row: &mut [f32],
    ) {
        let weights = &weights[..rows];
        assert!(words.len() >= rows * wpr && acc_row.len() <= wpr * super::WORD_BITS);
        assert!(codes.len() >= wpr * super::WORD_BITS);
        let table = prefix_table_avx512(weights);
        for (pair, chunk) in acc_row.chunks_mut(2 * super::WORD_BITS).enumerate() {
            let first = 2 * pair;
            // SAFETY: `words` holds rows · wpr words and `codes` 64 · wpr codes
            // (asserted above), and a chunk of up to 64 (N = 4) or 128 (N = 8)
            // dims covers words first..first + N / 4, which the acc_row assert
            // keeps below wpr.
            if chunk.len() > super::WORD_BITS {
                let acc = unsafe { sweep_avx512::<8>(words, wpr, first, weights, codes, table) };
                store_lanes_avx512(&acc, chunk);
            } else {
                let acc = unsafe { sweep_avx512::<4>(words, wpr, first, weights, codes, table) };
                store_lanes_avx512(&acc, chunk);
            }
        }
    }

    /// Sign pack on AVX-512F: each 16-value slice of a 64-dim word is one
    /// ordered `v < 0.0` compare straight into a `k`-mask (NaN and `-0.0` pack
    /// to `+1`, as in [`super::pack_row_signs`]). A ragged tail is loaded masked,
    /// its missing lanes read as `+0.0` and so pack to the zero padding bits.
    #[target_feature(enable = "avx512f")]
    fn pack_row_signs_avx512(row: &[f32], words: &mut [u64]) {
        let zero = _mm512_setzero_ps();
        for (chunk, word) in row.chunks(super::WORD_BITS).zip(words.iter_mut()) {
            let mut w = 0u64;
            for (g, part) in chunk.chunks(16).enumerate() {
                let keep = ((1u32 << part.len()) - 1) as __mmask16;
                // SAFETY: the mask keeps only the first part.len() (<= 16) lanes,
                // all inside `part`; masked-off lanes are never accessed.
                let v = unsafe { _mm512_maskz_loadu_ps(keep, part.as_ptr()) };
                w |= u64::from(_mm512_cmp_ps_mask::<_CMP_LT_OQ>(v, zero)) << (16 * g);
            }
            *word = w;
        }
    }

    /// Sign pack on AVX2: one ordered `v < 0.0` compare and `vmovmskps` per
    /// eight values; a ragged tail shorter than one vector takes the scalar rule.
    #[target_feature(enable = "avx2")]
    fn pack_row_signs_avx2(row: &[f32], words: &mut [u64]) {
        let zero = _mm256_setzero_ps();
        for (chunk, word) in row.chunks(super::WORD_BITS).zip(words.iter_mut()) {
            let mut w = 0u64;
            let mut lanes = chunk.chunks_exact(8);
            for (g, lane) in lanes.by_ref().enumerate() {
                // SAFETY: chunks_exact(8) guarantees exactly eight f32s; loadu
                // has no alignment requirement.
                let v = unsafe { _mm256_loadu_ps(lane.as_ptr()) };
                let neg = _mm256_cmp_ps::<_CMP_LT_OQ>(v, zero);
                w |= u64::from(_mm256_movemask_ps(neg) as u8) << (8 * g);
            }
            let tail_base = chunk.len() - lanes.remainder().len();
            for (offset, &v) in lanes.remainder().iter().enumerate() {
                w |= u64::from(v < 0.0) << (tail_base + offset);
            }
            *word = w;
        }
    }

    /// Codebook rows the `avx2` projection tier sums through its prefix table:
    /// a table of `2^3 = 8` entries fills the one ymm register a `vpermps`
    /// indexes.
    const AVX2_PREFIX_ROWS: usize = 3;

    /// Writes one `k`-bit prefix code per dimension into `codes`, `k =
    /// min(rows, AVX2_PREFIX_ROWS)`, in the layout [`prefix_codes_avx512`]
    /// writes: bit `r` of dimension `j`'s code is bit `j` of codebook row `r`.
    /// Each 8-dim byte of the first `k` rows' words is broadcast, shifted right
    /// lane by lane to bit 0, and ORed into the 8 code lanes at bit `r`.
    #[target_feature(enable = "avx2")]
    fn prefix_codes_avx2(words: &[u64], wpr: usize, rows: usize, codes: &mut [f32]) {
        let k = rows.min(AVX2_PREFIX_ROWS);
        assert!(words.len() >= rows * wpr && codes.len() >= wpr * super::WORD_BITS);
        let (one, lanes) = (
            _mm256_set1_epi32(1),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        for (wi, word_codes) in codes[..wpr * super::WORD_BITS]
            .chunks_exact_mut(super::WORD_BITS)
            .enumerate()
        {
            for (g, dst) in word_codes.chunks_exact_mut(8).enumerate() {
                let mut code = _mm256_setzero_si256();
                for r in 0..k {
                    let byte = _mm256_set1_epi32(i32::from((words[r * wpr + wi] >> (8 * g)) as u8));
                    let bits = _mm256_and_si256(_mm256_srlv_epi32(byte, lanes), one);
                    code =
                        _mm256_or_si256(code, _mm256_sllv_epi32(bits, _mm256_set1_epi32(r as i32)));
                }
                // SAFETY: chunks_exact_mut(8) guarantees eight 4-byte slots;
                // storeu has no alignment requirement.
                unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), code) };
            }
        }
    }

    /// The 8-entry prefix table of one weight row in one ymm register: entry
    /// `c` is `((+0.0 + s₀) + s₁) + s₂` over the first `min(weights.len(),
    /// AVX2_PREFIX_ROWS)` rows, `s_r` being `weights[r]` with its IEEE sign bit
    /// flipped when bit `r` of `c` is set (see [`prefix_table_avx512`]).
    #[target_feature(enable = "avx2")]
    fn prefix_table_avx2(weights: &[f32]) -> __m256 {
        const NEG: i32 = i32::MIN;
        let flips = [
            _mm256_setr_epi32(0, NEG, 0, NEG, 0, NEG, 0, NEG),
            _mm256_setr_epi32(0, 0, NEG, NEG, 0, 0, NEG, NEG),
            _mm256_setr_epi32(0, 0, 0, 0, NEG, NEG, NEG, NEG),
        ];
        let mut table = _mm256_setzero_ps();
        for (&w, flip) in weights.iter().zip(flips) {
            let w = _mm256_set1_epi32(w.to_bits() as i32);
            table = _mm256_add_ps(table, _mm256_castsi256_ps(_mm256_xor_si256(w, flip)));
        }
        table
    }

    /// The projection row kernel on AVX2, a prefix-table kernel like
    /// [`project_row_avx512`]: the first `k = min(rows, AVX2_PREFIX_ROWS)`
    /// codebook rows come from the 8-entry [`prefix_table_avx2`], one `vpermps`
    /// per 8 dims by the codes [`prefix_codes_avx2`] wrote. Rows `k..` run one
    /// 64-dim word per pass, its 64 accumulators held in eight ymm registers
    /// across the rest of the sweep and stored once. Each codebook word is
    /// expanded into eight sign-mask vectors with variable left shifts (bit `b`
    /// lands in the IEEE sign position of slot `b`), XORed into the broadcast
    /// weight and added.
    ///
    /// Bitwise identical to [`super::project_row_generic`]: every lane's table
    /// entry is its first `k` rows' `±w` added in ascending order from `+0.0`,
    /// and the remaining rows follow in ascending order.
    #[target_feature(enable = "avx2")]
    fn project_row_avx2(
        words: &[u64],
        wpr: usize,
        rows: usize,
        weights: &[f32],
        codes: &[f32],
        acc_row: &mut [f32],
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
        let weights = &weights[..rows];
        assert!(acc_row.len() <= wpr * super::WORD_BITS && codes.len() >= wpr * super::WORD_BITS);
        let table = prefix_table_avx2(weights);
        let prefix = rows.min(AVX2_PREFIX_ROWS);
        for (wi, chunk) in acc_row.chunks_mut(super::WORD_BITS).enumerate() {
            let word_codes = &codes[wi * super::WORD_BITS..(wi + 1) * super::WORD_BITS];
            let mut acc = [_mm256_setzero_ps(); 8];
            for (a, group) in acc.iter_mut().zip(word_codes.chunks_exact(8)) {
                // SAFETY: chunks_exact(8) guarantees eight codes; loadu has no
                // alignment requirement.
                let code = unsafe { _mm256_loadu_si256(group.as_ptr().cast()) };
                *a = _mm256_permutevar8x32_ps(table, code);
            }
            for m in prefix..rows {
                let (word, w) = (words[m * wpr + wi], weights[m]);
                let w = _mm256_set1_epi32(w.to_bits() as i32);
                let halves = [
                    _mm256_set1_epi32(word as u32 as i32),
                    _mm256_set1_epi32((word >> 32) as u32 as i32),
                ];
                for (h, &half) in halves.iter().enumerate() {
                    for (g, &count) in counts.iter().enumerate() {
                        let flip = _mm256_and_si256(_mm256_sllv_epi32(half, count), sign);
                        let addend = _mm256_castsi256_ps(_mm256_xor_si256(w, flip));
                        acc[4 * h + g] = _mm256_add_ps(acc[4 * h + g], addend);
                    }
                }
            }
            let mut lanes = [0.0f32; super::WORD_BITS];
            for (v, dst) in acc.iter().zip(lanes.chunks_exact_mut(8)) {
                // SAFETY: chunks_exact_mut(8) guarantees exactly eight f32s;
                // storeu has no alignment requirement.
                unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), *v) };
            }
            chunk.copy_from_slice(&lanes[..chunk.len()]);
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
        // SAFETY: detect() returns this function only when the avx2 feature was
        // detected on the running CPU.
        unsafe { amplitude_mask_avx2(values, amplitude) }
    }

    /// Safe wrapper over [`project_row_avx512`]; only reachable after cpuid
    /// detection.
    pub(super) fn project_row_avx512_checked(
        words: &[u64],
        wpr: usize,
        rows: usize,
        weights: &[f32],
        codes: &[f32],
        acc_row: &mut [f32],
    ) {
        // SAFETY: detect() returns this function only when the avx512f feature
        // was detected on the running CPU.
        unsafe { project_row_avx512(words, wpr, rows, weights, codes, acc_row) }
    }

    /// Safe wrapper over [`prefix_codes_avx512`]; only reachable after cpuid
    /// detection.
    pub(super) fn prefix_codes_avx512_checked(
        words: &[u64],
        wpr: usize,
        rows: usize,
        codes: &mut [f32],
    ) {
        // SAFETY: detect() returns this function only when the avx512f feature
        // was detected on the running CPU.
        unsafe { prefix_codes_avx512(words, wpr, rows, codes) }
    }

    /// Safe wrapper over [`project_row_avx2`]; only reachable after cpuid
    /// detection.
    pub(super) fn project_row_avx2_checked(
        words: &[u64],
        wpr: usize,
        rows: usize,
        weights: &[f32],
        codes: &[f32],
        acc_row: &mut [f32],
    ) {
        // SAFETY: detect() returns this function only when the avx2 feature was
        // detected on the running CPU.
        unsafe { project_row_avx2(words, wpr, rows, weights, codes, acc_row) }
    }

    /// Safe wrapper over [`prefix_codes_avx2`]; only reachable after cpuid
    /// detection.
    pub(super) fn prefix_codes_avx2_checked(
        words: &[u64],
        wpr: usize,
        rows: usize,
        codes: &mut [f32],
    ) {
        // SAFETY: detect() returns this function only when the avx2 feature was
        // detected on the running CPU.
        unsafe { prefix_codes_avx2(words, wpr, rows, codes) }
    }

    /// Safe wrapper over [`pack_row_signs_avx512`]; only reachable after cpuid
    /// detection.
    pub(super) fn pack_row_signs_avx512_checked(row: &[f32], words: &mut [u64]) {
        // SAFETY: detect() returns this function only when the avx512f feature
        // was detected on the running CPU.
        unsafe { pack_row_signs_avx512(row, words) }
    }

    /// Safe wrapper over [`pack_row_signs_avx2`]; only reachable after cpuid
    /// detection.
    pub(super) fn pack_row_signs_avx2_checked(row: &[f32], words: &mut [u64]) {
        // SAFETY: detect() returns this function only when the avx2 feature was
        // detected on the running CPU.
        unsafe { pack_row_signs_avx2(row, words) }
    }

    /// Safe wrapper over [`hamming_block_popcnt`]; only reachable after cpuid
    /// detection.
    pub(super) fn hamming_block_popcnt_checked(
        queries: &[u64],
        rows: &[u64],
        wpr: usize,
        out: &mut [u32],
    ) {
        // SAFETY: detect() returns this function only when the popcnt feature was
        // detected on the running CPU.
        unsafe { hamming_block_popcnt(queries, rows, wpr, out) }
    }

    /// Safe wrapper over [`hamming_block_avx2`]; only reachable after cpuid
    /// detection.
    pub(super) fn hamming_block_avx2_checked(
        queries: &[u64],
        rows: &[u64],
        wpr: usize,
        out: &mut [u32],
    ) {
        // SAFETY: detect() returns this function only when the avx2 feature was
        // detected on the running CPU.
        unsafe { hamming_block_avx2(queries, rows, wpr, out) }
    }

    /// Safe wrapper over [`hamming_block_avx512`]; only reachable after cpuid
    /// detection.
    pub(super) fn hamming_block_avx512_checked(
        queries: &[u64],
        rows: &[u64],
        wpr: usize,
        out: &mut [u32],
    ) {
        // SAFETY: detect() returns this function only when the avx512f and
        // avx512vpopcntdq features were detected on the running CPU.
        unsafe { hamming_block_avx512(queries, rows, wpr, out) }
    }
}

/// The kernels runtime dispatch resolved to, one per sign-plane operation, with
/// the tier of each family: the Hamming tiers need popcount features the
/// projection does not, so the two can differ on one CPU.
#[derive(Clone, Copy)]
struct Dispatch {
    hamming_tier: DispatchTier,
    hamming_block: HammingBlockFn,
    projection_tier: DispatchTier,
    prefix_codes: PrefixCodesFn,
    project_row: ProjectRowFn,
    pack_signs: PackSignsFn,
    amplitude_mask: AmplitudeMaskFn,
}

/// Probes the CPU once and picks the widest supported tier of each kernel family,
/// capped by the `COGSYS_SIMD` environment variable when set to a known tier name.
fn detect() -> Dispatch {
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
    let mut found = Dispatch {
        hamming_tier: DispatchTier::Generic,
        hamming_block: hamming_block_generic,
        projection_tier: DispatchTier::Generic,
        prefix_codes: no_prefix_codes,
        project_row: project_row_generic,
        pack_signs: pack_row_signs,
        amplitude_mask: amplitude_mask_generic,
    };
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected;
        let avx512f = cap >= DispatchTier::Avx512 && is_x86_feature_detected!("avx512f");
        let avx2 = cap >= DispatchTier::Avx2 && is_x86_feature_detected!("avx2");
        if avx512f && is_x86_feature_detected!("avx512vpopcntdq") {
            found.hamming_tier = DispatchTier::Avx512;
            found.hamming_block = simd::hamming_block_avx512_checked;
        } else if avx2 {
            found.hamming_tier = DispatchTier::Avx2;
            found.hamming_block = simd::hamming_block_avx2_checked;
        } else if cap >= DispatchTier::Popcnt && is_x86_feature_detected!("popcnt") {
            found.hamming_tier = DispatchTier::Popcnt;
            found.hamming_block = simd::hamming_block_popcnt_checked;
        }
        if avx512f {
            found.projection_tier = DispatchTier::Avx512;
            found.prefix_codes = simd::prefix_codes_avx512_checked;
            found.project_row = simd::project_row_avx512_checked;
            found.pack_signs = simd::pack_row_signs_avx512_checked;
        } else if avx2 {
            found.projection_tier = DispatchTier::Avx2;
            found.prefix_codes = simd::prefix_codes_avx2_checked;
            found.project_row = simd::project_row_avx2_checked;
            found.pack_signs = simd::pack_row_signs_avx2_checked;
        }
        if avx2 {
            found.amplitude_mask = simd::amplitude_mask_avx2_checked;
        }
    }
    let _ = cap;
    found
}

/// The resolved kernels, cached process-wide: after the first call, dispatch is
/// one atomic load — cheap enough that even the single-pair
/// [`BitMatrix::dot_rows`] / [`BitMatrix::cosine_rows`] paths and each
/// [`amplitude_mask_fn`] call pay no cpuid or env probe. The scans fetch the
/// kernel once per call, so nothing at all sits on the per-row path.
static DISPATCH: std::sync::OnceLock<Dispatch> = std::sync::OnceLock::new();

#[inline]
fn dispatch() -> Dispatch {
    *DISPATCH.get_or_init(detect)
}

/// The SIMD tier the Hamming kernels run at on this CPU (resolved once, cached).
///
/// Surfaced by the `backend_throughput` bench binary so CI logs record which rung
/// produced the numbers.
pub fn dispatch_tier() -> DispatchTier {
    dispatch().hamming_tier
}

/// The SIMD tier the sign-projection row kernel runs at on this CPU (resolved once,
/// cached): [`DispatchTier::Avx512`] needs only `avx512f`, [`DispatchTier::Avx2`]
/// needs `avx2`, and every other case runs the scalar kernel
/// ([`DispatchTier::Generic`]; the projection has no `popcnt` rung). Capped by
/// `COGSYS_SIMD` like [`dispatch_tier`], from which it can differ: an `avx512f`
/// CPU without `avx512vpopcntdq` projects at `avx512` but popcounts at `avx2`.
/// Every tier sums the identical `±w` sequence per dimension, so the tier never
/// changes a packed sign.
pub fn projection_tier() -> DispatchTier {
    dispatch().projection_tier
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

/// The amplitude-mask kernel runtime dispatch resolved to (cached with every
/// other kernel): one vector compare per eight values when `avx2` is detected
/// and `COGSYS_SIMD` allows it, the scalar rule otherwise. Every tier returns
/// the identical mask, and every tier panics on slices longer than 64 values.
pub fn amplitude_mask_fn() -> AmplitudeMaskFn {
    dispatch().amplitude_mask
}

/// Which sub-step of the resonator iteration a
/// [`PackedBackend::resonate_step_fused_into`] hook invocation belongs to.
/// Rows go in ascending order: each row's [`ResonatePhase::Similarity`] call,
/// then, if that call asks for it ([`ProjectionVerdict`]), its
/// [`ResonatePhase::Projection`] call, so per-query noise streams are consumed
/// in exactly the order the split pipeline consumes them.
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
/// caller that already knows a row is finished skips its projection,
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

/// Function-pointer type of the projection row kernels behind [`Dispatch`]:
/// `project_row(codebook_words, wpr, rows, weights, codes, acc_row)` overwrites
/// `acc_row[j]` with `Σ_m ±weights[m]` over the first `rows` codebook rows of the
/// row-major sign planes `codebook_words` (`wpr` words per row), the sign of each
/// addend flipped where bit `j` of row `m` is set, added in ascending `m` order
/// from `+0.0`. `acc_row.len()` is the codebook dimension. `codes` holds the
/// `64 · wpr` per-dimension prefix codes the tier's [`PrefixCodesFn`] wrote for
/// the same codebook: the `avx512` kernel looks the first five rows' sums up by
/// them, the `avx2` kernel the first three rows', and the scalar kernel ignores
/// them.
type ProjectRowFn = fn(&[u64], usize, usize, &[f32], &[f32], &mut [f32]);

/// Function-pointer type of the prefix-code builders behind [`Dispatch`]:
/// `prefix_codes(codebook_words, wpr, rows, codes)` fills the first `64 · wpr`
/// slots of `codes` with whatever per-dimension codes the tier's
/// [`ProjectRowFn`] reads. Run once per projection call, not once per weight
/// row; a no-op on the scalar tier, which has no prefix table.
type PrefixCodesFn = fn(&[u64], usize, usize, &mut [f32]);

/// The [`PrefixCodesFn`] of the scalar tier, whose row kernel reads no codes.
fn no_prefix_codes(_words: &[u64], _wpr: usize, _rows: usize, _codes: &mut [f32]) {}

/// Function-pointer type of the sign-pack kernels behind [`Dispatch`]: the
/// [`pack_row_signs`] contract (`v < 0.0` sets the bit) on every tier.
type PackSignsFn = fn(&[f32], &mut [u64]);

/// Scalar projection row kernel, the reference every SIMD tier must match: one
/// 64-slot tile per codebook word, each slot summing `+w` or `-w` (the weight
/// with its IEEE sign bit flipped, so no rounding) in ascending codebook-row
/// order from `+0.0`, with a broadcast fast path for all-positive (zero) words.
fn project_row_generic(
    words: &[u64],
    wpr: usize,
    rows: usize,
    weights: &[f32],
    _codes: &[f32],
    acc_row: &mut [f32],
) {
    let weights = &weights[..rows];
    for (wi, chunk) in acc_row.chunks_mut(WORD_BITS).enumerate() {
        let mut tile = [0.0f32; WORD_BITS];
        for (m, &w) in weights.iter().enumerate() {
            let word = words[m * wpr + wi];
            if word == 0 {
                for slot in tile.iter_mut() {
                    *slot += w;
                }
            } else {
                let w_bits = w.to_bits();
                for (bit, slot) in tile.iter_mut().enumerate() {
                    let sign = ((word >> bit) as u32 & 1) << 31;
                    *slot += f32::from_bits(w_bits ^ sign);
                }
            }
        }
        chunk.copy_from_slice(&tile[..chunk.len()]);
    }
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
    /// dims per `gen::<u64>()` draw) — the cheap way to build random codebooks and
    /// queries for the scan and projection kernels without a dense `f32` detour.
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
    /// every element was exactly `±1.0`. Each row is checked first and then packed by
    /// the dispatched sign pack, whose `v < 0.0` rule sets the IEEE sign bit on a
    /// bipolar row. On `false` the contents are unspecified — packing bails at the
    /// first non-bipolar row so the dense fallback stays cheap. A zero-dimension
    /// matrix with rows is refused like any other unpackable input.
    pub fn pack_from(&mut self, m: &HvMatrix) -> bool {
        if m.rows() > 0 && m.dim() == 0 {
            return false;
        }
        self.ensure_shape(m.rows(), m.dim());
        let pack_signs = dispatch().pack_signs;
        for i in 0..m.rows() {
            let row = m.row(i);
            if !is_bipolar(row) {
                return false;
            }
            let start = i * self.words_per_row;
            pack_signs(row, &mut self.words[start..start + self.words_per_row]);
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
        (dispatch().pack_signs)(row, &mut self.words[start..start + self.words_per_row]);
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
    /// Panics on out-of-range rows and on operands of different dimensions.
    pub fn dot_rows(&self, i: usize, other: &Self, j: usize) -> i32 {
        assert_eq!(self.dim, other.dim, "operand dims must match");
        let dist = pair_distance(
            dispatch().hamming_block,
            self.row_words(i),
            other.row_words(j),
        );
        self.dim as i32 - 2 * dist as i32
    }

    /// Bipolar cosine of rows `self[i]` and `other[j]`: `1 − 2·hamming/d`.
    pub fn cosine_rows(&self, i: usize, other: &Self, j: usize) -> f32 {
        if self.dim == 0 {
            return 0.0;
        }
        self.dot_rows(i, other, j) as f32 / self.dim as f32
    }
}

/// The one sign-plane scan: the Hamming distance of every row of `queries`
/// (row-major sign planes, the codebook's words per row) to every codebook row,
/// by the dispatched register-tile kernel. It walks codebook blocks of at most
/// [`CODEBOOK_BLOCK_ROWS`] rows and [`SCAN_BLOCK_WORDS`] words, each
/// cache-resident across the whole query batch, and inside each block query
/// blocks of [`SCAN_QUERY_ROWS`] rows.
/// `sink(q0, m0, n, dist)` receives one block pair: `dist[i * n + j]` is the
/// distance of query `q0 + i` to codebook row `m0 + j`, and every query meets the
/// codebook rows in ascending order.
fn scan_hamming(
    codebook: &BitMatrix,
    queries: &[u64],
    mut sink: impl FnMut(usize, usize, usize, &[u32]),
) {
    let wpr = codebook.words_per_row().max(1);
    let hamming_block = dispatch().hamming_block;
    let block_rows = (SCAN_BLOCK_WORDS / wpr).clamp(4, CODEBOOK_BLOCK_ROWS);
    let mut buffer = [0u32; SCAN_QUERY_ROWS * CODEBOOK_BLOCK_ROWS];
    for (b, block) in codebook.words.chunks(block_rows * wpr).enumerate() {
        let n = block.len() / wpr;
        for (c, qs) in queries.chunks(SCAN_QUERY_ROWS * wpr).enumerate() {
            let dist = &mut buffer[..qs.len() / wpr * n];
            hamming_block(qs, block, wpr, dist);
            sink(c * SCAN_QUERY_ROWS, b * block_rows, n, dist);
        }
    }
}

/// Maps one row of Hamming distances to bipolar dot products, `dim − 2·hamming`.
fn write_dots(dim: usize, dist: &[u32], out: &mut [f32]) {
    let d = dim as i32;
    for (slot, &h) in out.iter_mut().zip(dist) {
        *slot = (d - 2 * h as i32) as f32;
    }
}

/// Reusable per-call scratch of the cleanup kernel: the running best of every
/// query. Thread one through repeated [`PackedBackend::cleanup_batch_packed_into`]
/// calls so the steady-state serving path allocates nothing.
#[derive(Debug, Default, Clone)]
pub struct CleanupScratch {
    /// Per-query running best of the linear scan.
    best: Vec<(usize, u32)>,
}

// ---------------------------------------------------------------------------
// Packed backend
// ---------------------------------------------------------------------------

/// Sizes the caller's projection scratch to the codebook's `dim` accumulators
/// followed by `64 · wpr` prefix-code slots, writes the codes of the dispatched
/// tier once for the whole call, and returns the two halves: every weight row
/// of the call reuses the same codes.
fn projection_scratch<'a>(
    kernels: &Dispatch,
    codebook: &BitMatrix,
    acc: &'a mut Vec<f32>,
) -> (&'a mut [f32], &'a [f32]) {
    let (dim, wpr) = (codebook.dim(), codebook.words_per_row());
    acc.clear();
    acc.resize(dim + wpr * WORD_BITS, 0.0);
    let (acc, codes) = acc.split_at_mut(dim);
    (kernels.prefix_codes)(&codebook.words, wpr, codebook.rows(), codes);
    (acc, codes)
}

/// The sign-plane backend behind [`crate::BackendKind::Packed`].
///
/// Its kernels are inherent methods over [`BitMatrix`] operands, reached through
/// [`VsaBackend::as_packed`] by the layers that already hold sign planes:
///
/// * popcount similarity GEMM ([`PackedBackend::similarity_matrix_packed_into`]) and
///   the cleanup scan, blocked over codebook rows for cache residency;
/// * the sign projection on one register-blocked row kernel, and the resonator
///   step that the packed resonator runs every iteration, composed from the
///   unbind, the similarity GEMM and that row kernel.
///
/// Numerics: the popcount dot products are **exact** (bitwise equal to the reference
/// on bipolar inputs — `f32` sums of `±1` are themselves exact). Cleanup cosines
/// divide by `d` instead of the product of `f32` norms, which agrees with the
/// reference within the documented 1e-4 cosine contract.
#[derive(Debug, Clone, Copy, Default)]
pub struct PackedBackend;

impl PackedBackend {
    /// Creates a packed backend.
    pub fn new() -> Self {
        Self
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
        let dim = codebook.dim();
        scan_hamming(codebook, &queries.words, |q0, m0, n, dist| {
            for (i, dist) in dist.chunks_exact(n).enumerate() {
                write_dots(dim, dist, &mut out.row_mut(q0 + i)[m0..m0 + n]);
            }
        });
    }

    /// Packed cleanup: per query, the index and bipolar cosine (`1 − 2·hamming/d`) of
    /// the best-matching codebook row. Ties resolve to the lowest index, matching the
    /// reference backend. Blocked over codebook rows so each block stays cache-resident
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
        scan_hamming(codebook, &queries.words, |q0, m0, n, dist| {
            for (slot, dist) in best[q0..].iter_mut().zip(dist.chunks_exact(n)) {
                // Strictly smaller Hamming distance wins, and the block's first
                // row at its minimum: equal keeps the earlier row — identical
                // tie-breaking to the dense `sim > best` scan.
                let h = dist.iter().copied().min().unwrap_or(u32::MAX);
                if h < slot.1 {
                    let j = dist.iter().position(|&d| d == h).unwrap_or(0);
                    *slot = (m0 + j, h);
                }
            }
        });
        // A non-empty BitMatrix always has dim > 0 (enforced at construction), so the
        // cosine mapping never needs a degenerate-input mask.
        let d = queries.dim() as f32;
        out.clear();
        out.extend(best.iter().map(|&(m, h)| (m, (d - 2.0 * h as f32) / d)));
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
    /// `±1.0` only copies/flips the sign), and every accumulator receives its
    /// addends in ascending codebook-row order starting from `+0.0`, so the result
    /// equals the dense `project_batch_into` + threshold exactly, on every
    /// [`projection_tier`].
    ///
    /// Layout: one query row at a time through the row kernel — the *word index*
    /// is the outer loop and the codebook row the inner one, and each word's 64
    /// accumulators stay in registers across the whole codebook sweep and are
    /// stored once. `perturb(q, acc_row)` and the sign packing run per query in
    /// ascending `q` order.
    ///
    /// `acc` is caller-owned scratch, resized to `codebook.dim()` accumulators
    /// followed by the prefix codes (64 per codebook word) the row kernel reads,
    /// built once per call; `perturb` sees only the accumulators. Steady-state
    /// calls allocate nothing.
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
        out.ensure_shape(weights.rows(), codebook.dim());
        let kernels = dispatch();
        let (acc, codes) = projection_scratch(&kernels, codebook, acc);
        for q in 0..weights.rows() {
            (kernels.project_row)(
                &codebook.words,
                codebook.words_per_row(),
                codebook.rows(),
                weights.row(q),
                codes,
                acc,
            );
            perturb(q, acc);
            out.pack_signs_row(q, acc);
        }
    }

    /// One resonator iteration step for one factor, composed from the standalone
    /// kernels: XOR-unbind, Hamming similarity, weighted sign projection.
    ///
    /// 1. `unbound = query ⊕ ⊕_{g≠f} estimates[g]` for the whole batch;
    /// 2. one [`PackedBackend::similarity_matrix_packed_into`] call into `sims`;
    /// 3. per query row in ascending order: `hook(`[`ResonatePhase::Similarity`]`,
    ///    row, sims_row)` (perturb + argmax decode); if its verdict
    ///    ([`ProjectionVerdict`]) asks for a projection, the projection row kernel of
    ///    [`PackedBackend::project_signs_packed_into`] weighted by that row, then
    ///    `hook(`[`ResonatePhase::Projection`]`, row, acc)`, then the sign pack into
    ///    `estimates[factor]`.
    ///
    /// A row whose Similarity hook returns `false` gets no projection and no
    /// Projection call, and keeps its previous `estimates[factor]` row. Each query's
    /// noise draws (all similarity draws, then its projection draws) come in the
    /// order of the split unbind → similarity → projection sequence, so the step is
    /// bitwise identical to it. The other estimate planes are only read, so the
    /// Gauss–Seidel in-place update order across factors is unchanged.
    ///
    /// The step no longer fuses its kernels (a lane-blocked fusion measured no
    /// faster); the name and signature stay because the repository benchmark
    /// calls them.
    ///
    /// `unbound` (resized to the query batch), `sims` (resized to
    /// `rows × codebook.rows()`), and `acc` (resized to `codebook.dim()`
    /// accumulators followed by the row kernel's prefix codes, built once per
    /// step and reused by every projected row) are caller-owned scratch, so
    /// steady-state calls allocate nothing.
    ///
    /// # Panics
    /// Panics when `factor >= estimates.len()` or another factor's estimate plane
    /// differs in shape from `query`.
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
        debug_assert_eq!(query.dim(), codebook.dim(), "operand dims must match");
        let (head, rest) = estimates.split_at_mut(factor);
        let (out, tail) = rest.split_first_mut().expect("factor index in range");
        unbound.copy_from(query);
        for est in head.iter().chain(tail.iter()) {
            unbound
                .xor_assign(est)
                .expect("estimate planes share the query shape");
        }
        self.similarity_matrix_packed_into(codebook, unbound, sims);
        out.ensure_shape(query.rows(), codebook.dim());
        let (kernels, wpr) = (dispatch(), codebook.words_per_row());
        let (acc, codes) = projection_scratch(&kernels, codebook, acc);
        for q in 0..query.rows() {
            if hook(ResonatePhase::Similarity, q, sims.row_mut(q)).project() {
                let weights = sims.row(q);
                (kernels.project_row)(&codebook.words, wpr, codebook.rows(), weights, codes, acc);
                hook(ResonatePhase::Projection, q, acc);
                out.pack_signs_row(q, acc);
            }
        }
    }
}

/// The sign-plane route: layers that hold packed operands call the inherent kernels.
impl VsaBackend for PackedBackend {
    fn as_packed(&self) -> Option<&PackedBackend> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::ReferenceBackend;
    use crate::codebook::BindingOp;
    use crate::rng;

    fn random_bipolar_matrix(rows: usize, dim: usize, seed: u64) -> HvMatrix {
        let mut r = rng(seed);
        let hvs: Vec<Hypervector> = (0..rows)
            .map(|_| Hypervector::random_bipolar(dim, &mut r))
            .collect();
        HvMatrix::from_rows(&hvs).unwrap()
    }

    /// The test-only scalar oracle of every sign-plane scan:
    /// `(a ^ b).count_ones()` summed per (query, row) pair, query-major.
    fn oracle_distances(queries: &BitMatrix, rows: &BitMatrix) -> Vec<u32> {
        (0..queries.rows())
            .flat_map(|q| {
                (0..rows.rows()).map(move |m| {
                    queries
                        .row_words(q)
                        .iter()
                        .zip(rows.row_words(m))
                        .map(|(a, b)| (a ^ b).count_ones())
                        .sum()
                })
            })
            .collect()
    }

    /// `n_rows` codebook rows built to tie: copies of query rows (distance 0),
    /// their complements (distance `dim`, the anti-match), repeats of earlier
    /// rows, and random rows.
    fn tie_heavy_rows(queries: &BitMatrix, n_rows: usize, r: &mut impl rand::Rng) -> BitMatrix {
        let (dim, wpr) = (queries.dim(), queries.words_per_row());
        let mut rows = BitMatrix::random_bipolar(n_rows, dim, r);
        for m in 0..n_rows {
            let q = r.gen_range(0..queries.rows());
            let src: Vec<u64> = match r.gen_range(0..4) {
                0 => queries.row_words(q).to_vec(),
                1 => {
                    let mut words: Vec<u64> = queries.row_words(q).iter().map(|w| !w).collect();
                    words[wpr - 1] &= BitMatrix::tail_mask(dim);
                    words
                }
                2 if m > 0 => rows.row_words(r.gen_range(0..m)).to_vec(),
                _ => continue,
            };
            rows.words[m * wpr..(m + 1) * wpr].copy_from_slice(&src);
        }
        rows
    }

    /// The oracle's cleanup: per query, the first row of least distance.
    fn oracle_argmin(dist: &[u32], n_rows: usize) -> Vec<(usize, u32)> {
        dist.chunks_exact(n_rows)
            .map(|row| {
                let min = *row.iter().min().unwrap();
                (row.iter().position(|&h| h == min).unwrap(), min)
            })
            .collect()
    }

    /// The scans on the dispatched kernel — cleanup, the similarity GEMM and
    /// the resonator step's similarity rows — against the scalar oracle, over
    /// every tile remainder, query counts across the 8-row query block and
    /// codebooks across the 128-row cache block, on ragged dims and tie-heavy
    /// rows: the same distances, and the lowest row of least distance.
    #[test]
    fn scans_match_scalar_oracle_on_every_remainder() {
        let backend = PackedBackend::new();
        let mut r = rng(41);
        let mut scratch = CleanupScratch::default();
        let (mut best, mut sims) = (Vec::new(), HvMatrix::default());
        for dim in [1usize, 63, 64, 65, 129, 2048] {
            for n_queries in (1..=9).chain([17]) {
                let queries = BitMatrix::random_bipolar(n_queries, dim, &mut r);
                for n_rows in (1..=13).chain([130, 300]) {
                    let rows = tie_heavy_rows(&queries, n_rows, &mut r);
                    let dist = oracle_distances(&queries, &rows);
                    let argmin = oracle_argmin(&dist, n_rows);
                    backend.cleanup_batch_packed_into(&rows, &queries, &mut scratch, &mut best);
                    let d = dim as f32;
                    let expected: Vec<(usize, f32)> = argmin
                        .iter()
                        .map(|&(m, h)| (m, (d - 2.0 * h as f32) / d))
                        .collect();
                    assert_eq!(best, expected, "cleanup dim {dim} {n_queries}x{n_rows}");
                    let dots: Vec<f32> = dist
                        .iter()
                        .map(|&h| (dim as i32 - 2 * h as i32) as f32)
                        .collect();
                    backend.similarity_matrix_packed_into(&rows, &queries, &mut sims);
                    assert_eq!(sims.as_slice(), &dots[..], "similarity dim {dim}");
                    // The step with no other factor unbinds nothing, so its
                    // similarity rows are the query's own dots.
                    let mut estimates = [BitMatrix::zeros(n_queries, dim)];
                    let (mut unbound, mut acc) = (BitMatrix::default(), Vec::new());
                    let mut fused = vec![f32::NAN; dots.len()];
                    backend.resonate_step_fused_into(
                        &rows,
                        &queries,
                        &mut estimates,
                        0,
                        &mut unbound,
                        &mut sims,
                        &mut acc,
                        |phase, q, values| {
                            if phase == ResonatePhase::Similarity {
                                fused[q * n_rows..(q + 1) * n_rows].copy_from_slice(values);
                            }
                            false
                        },
                    );
                    assert_eq!(fused, dots, "fused step dim {dim} {n_queries}x{n_rows}");
                }
            }
        }
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
        // Values the `v < 0.0` sign pack would accept without complaint: `-0.0`
        // (packs like `+1`), NaN (never negative) and a magnitude one ulp past
        // `1.0`. Each is refused alone, in a full 8-lane group, in a ragged
        // tail and in a later row.
        for bad in [-0.0f32, f32::NAN, -f32::NAN, 1.000_000_1, -1.000_000_1] {
            for (dim, at) in [(1usize, 0usize), (8, 5), (67, 66), (130, 64)] {
                let mut m = random_bipolar_matrix(2, dim, dim as u64);
                assert!(BitMatrix::from_matrix(&m).is_some());
                m.row_mut(1)[at] = bad;
                assert!(
                    BitMatrix::from_matrix(&m).is_none(),
                    "{bad} at {at} of dim {dim} packed"
                );
            }
        }
    }

    #[test]
    fn xor_bind_matches_hadamard_product() {
        for dim in [64usize, 96, 1024] {
            let a = random_bipolar_matrix(4, dim, 1);
            let b = random_bipolar_matrix(4, dim, 2);
            let mut r = HvMatrix::default();
            ReferenceBackend
                .bind_batch_into(&a, &b, BindingOp::Hadamard, &mut r)
                .unwrap();
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
        let mut rs = HvMatrix::default();
        ReferenceBackend
            .similarity_matrix_into(&cb, &q, &mut rs)
            .unwrap();
        let mut ps = HvMatrix::default();
        PackedBackend::new().similarity_matrix_packed_into(
            &BitMatrix::from_matrix(&cb).unwrap(),
            &BitMatrix::from_matrix(&q).unwrap(),
            &mut ps,
        );
        // Dots of ±1 vectors are exact in f32, so the popcount mapping is bitwise equal.
        assert_eq!(rs, ps);
    }

    /// The linear popcount cleanup against the reference backend's dense scan on
    /// one-word, tail-word and power-of-two dimensions, codebooks of one and of
    /// several cache blocks, and two maximal ties (duplicate rows, and rows all
    /// equidistant from the query) that both scans must give to the lowest row.
    /// One scratch serves every call, so reuse across shapes is covered too.
    #[test]
    fn cleanup_matches_reference_within_contract() {
        let backend = PackedBackend::new();
        let mut scratch = CleanupScratch::default();
        let mut cleanup = |codebook: &BitMatrix, queries: &BitMatrix| {
            let rc = ReferenceBackend
                .cleanup_batch(&codebook.to_matrix(), &queries.to_matrix())
                .unwrap();
            let mut pc = Vec::new();
            backend.cleanup_batch_packed_into(codebook, queries, &mut scratch, &mut pc);
            assert_eq!(rc.len(), pc.len());
            for ((ri, rsim), (pi, psim)) in rc.iter().zip(&pc) {
                assert_eq!(ri, pi);
                assert!((rsim - psim).abs() < 1e-4, "{rsim} vs {psim}");
            }
            pc
        };
        for (seed, &dim) in [64usize, 127, 256, 513, 1000, 1024].iter().enumerate() {
            let rows = [16, 300][seed % 2];
            let cb = BitMatrix::from_matrix(&random_bipolar_matrix(rows, dim, 5 + seed as u64));
            let q = BitMatrix::from_matrix(&random_bipolar_matrix(8, dim, 50 + seed as u64));
            cleanup(&cb.unwrap(), &q.unwrap());
        }

        // Duplicate rows: four distinct planes repeated across 80 rows, queried
        // with the planes themselves, so every query meets exact ties.
        let mut r = rng(7);
        let distinct = BitMatrix::random_bipolar(4, 256, &mut r);
        let picks: Vec<usize> = (0..80).map(|i| (i * 7 + i / 5) % 4).collect();
        let codebook = distinct.gather(&picks).unwrap();
        for (q, (idx, sim)) in cleanup(&codebook, &distinct).into_iter().enumerate() {
            assert_eq!(Some(idx), picks.iter().position(|&p| p == q), "query {q}");
            assert_eq!(sim, 1.0);
        }

        // Every row at Hamming distance 1 from the all-+1 query.
        let (rows, dim) = (600, 1024);
        let mut codebook = BitMatrix::zeros(rows, dim);
        for row in 0..rows {
            codebook.flip_bit(row, row);
        }
        for (idx, sim) in cleanup(&codebook, &BitMatrix::zeros(3, dim)) {
            assert_eq!(idx, 0);
            assert!((sim - (1.0 - 2.0 / dim as f32)).abs() < 1e-6);
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

            let mut dense = HvMatrix::default();
            ReferenceBackend
                .project_batch_into(&cb, &weights, &mut dense)
                .unwrap();
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

    /// Reference (pre-SIMD) packers the dispatched ones must reproduce bit-exactly.
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
                let mut packed = BitMatrix::default();
                prop_assert!(packed.pack_from(&m));
                let words = BitMatrix::words_for_dim(dim);
                for i in 0..2 {
                    let mut slow = vec![0u64; words];
                    prop_assert!(pack_row_strict_reference(m.row(i), &mut slow));
                    prop_assert_eq!(packed.row_words(i), &slow[..]);
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
                // Any non-bipolar element must fail the strict pack, exactly like
                // the reference (|v| == 1.0 bit test, so -0.0 and 0.0 both fail it).
                let m = HvMatrix::from_vec(row.clone(), 1, dim).unwrap();
                let strict_ok = BitMatrix::default().pack_from(&m);
                prop_assert_eq!(strict_ok, pack_row_strict_reference(&row, &mut slow));
            }
        }
    }

    mod simd_props {
        use super::*;
        use proptest::prelude::*;
        use rand::Rng;

        /// Every Hamming block kernel available on the running CPU, by tier
        /// name, the generic tile first; each is pinned against the scalar oracle.
        fn available_tier_kernels() -> Vec<(&'static str, HammingBlockFn)> {
            let mut kernels: Vec<(&'static str, HammingBlockFn)> =
                vec![("generic", hamming_block_generic)];
            #[cfg(target_arch = "x86_64")]
            {
                use std::arch::is_x86_feature_detected;
                if is_x86_feature_detected!("popcnt") {
                    kernels.push(("popcnt", simd::hamming_block_popcnt_checked));
                }
                if is_x86_feature_detected!("avx2") {
                    kernels.push(("avx2", simd::hamming_block_avx2_checked));
                }
                if is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512vpopcntdq")
                {
                    kernels.push(("avx512", simd::hamming_block_avx512_checked));
                }
            }
            kernels
        }

        /// The single-pair distance behind `dot_rows`/`cosine_rows` (the block
        /// kernel at 1 × 1) on every tier, and the two methods on the
        /// dispatched tier, against the scalar oracle: 1–5 words, every dim a
        /// word edge or a ragged tail, pairs of equal, complementary and random
        /// rows.
        #[test]
        fn dot_and_cosine_rows_match_scalar_oracle_on_every_tier() {
            let mut r = rng(37);
            for dim in [
                1usize, 63, 64, 65, 127, 128, 129, 191, 192, 200, 255, 256, 257, 300, 320,
            ] {
                let a = BitMatrix::random_bipolar(3, dim, &mut r);
                let b = tie_heavy_rows(&a, 6, &mut r);
                let expected = oracle_distances(&a, &b);
                for (q, m) in (0..a.rows()).flat_map(|q| (0..b.rows()).map(move |m| (q, m))) {
                    let dist = expected[q * b.rows() + m];
                    for (name, block) in available_tier_kernels() {
                        assert_eq!(
                            pair_distance(block, a.row_words(q), b.row_words(m)),
                            dist,
                            "{name} dim {dim} pair ({q}, {m})"
                        );
                    }
                    let dot = dim as i32 - 2 * dist as i32;
                    assert_eq!(a.dot_rows(q, &b, m), dot, "dim {dim} pair ({q}, {m})");
                    assert_eq!(
                        a.cosine_rows(q, &b, m),
                        dot as f32 / dim as f32,
                        "dim {dim} pair ({q}, {m})"
                    );
                }
            }
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

        /// A named projection tier: its prefix-code builder, its row kernel and
        /// its sign pack.
        type ProjectionKernels = (&'static str, PrefixCodesFn, ProjectRowFn, PackSignsFn);

        /// Every projection tier available on the running CPU, by name;
        /// `project_row_generic` / `pack_row_signs` are the reference the rest
        /// are pinned against.
        fn available_projection_kernels() -> Vec<ProjectionKernels> {
            let mut kernels: Vec<ProjectionKernels> = Vec::new();
            #[cfg(target_arch = "x86_64")]
            {
                use std::arch::is_x86_feature_detected;
                if is_x86_feature_detected!("avx2") {
                    kernels.push((
                        "avx2",
                        simd::prefix_codes_avx2_checked,
                        simd::project_row_avx2_checked,
                        simd::pack_row_signs_avx2_checked,
                    ));
                }
                if is_x86_feature_detected!("avx512f") {
                    kernels.push((
                        "avx512",
                        simd::prefix_codes_avx512_checked,
                        simd::project_row_avx512_checked,
                        simd::pack_row_signs_avx512_checked,
                    ));
                }
            }
            kernels
        }

        /// Weights at the edges the projection tiers must agree on: ±0.0,
        /// subnormals, ±infinity (so sums hit NaN) and magnitudes large enough
        /// to absorb small ones.
        const PROJECTION_EDGES: [f32; 9] = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE / 4.0,
            -f32::MIN_POSITIVE / 3.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            3.0e38,
            -1.0e30,
            16_777_216.0,
        ];

        /// Runs every available tier on one codebook and weight row and checks
        /// each against the scalar row kernel and sign pack, bitwise. Each tier
        /// builds its codes into a slot buffer full of garbage, so a code it
        /// leaves unwritten shows as a wrong sum.
        fn check_projection_tiers(codebook: &BitMatrix, weights: &[f32]) -> Result<(), String> {
            let (dim, wpr, rows) = (codebook.dim(), codebook.words_per_row(), codebook.rows());
            let mut expected = vec![f32::NAN; dim];
            project_row_generic(&codebook.words, wpr, rows, weights, &[], &mut expected);
            let mut expected_signs = vec![0u64; wpr];
            pack_row_signs(&expected, &mut expected_signs);
            let expected: Vec<u32> = expected.iter().map(|v| v.to_bits()).collect();
            for (name, prefix_codes, project_row, pack_signs) in available_projection_kernels() {
                let mut codes = vec![f32::from_bits(u32::MAX); wpr * WORD_BITS];
                prefix_codes(&codebook.words, wpr, rows, &mut codes);
                let mut acc = vec![f32::NAN; dim];
                project_row(&codebook.words, wpr, rows, weights, &codes, &mut acc);
                let mut signs = vec![u64::MAX; wpr];
                pack_signs(&acc, &mut signs);
                let bits: Vec<u32> = acc.iter().map(|v| v.to_bits()).collect();
                if bits != expected || signs != expected_signs {
                    return Err(format!(
                        "{name}: dim {dim}, {rows} rows, weights {weights:?}"
                    ));
                }
            }
            Ok(())
        }

        /// The deterministic sweep the proptest below reaches only by chance:
        /// every codebook length from 0 to 12 rows (shorter than, equal to and
        /// longer than the avx512 tier's five-row and the avx2 tier's three-row
        /// prefix tables) × dims that end
        /// mid-vector, on a word edge, one bit past it and at the RAVEN
        /// dimension × weight rows built from the edge values alone (each edge
        /// in every position, and ±infinity together inside the prefix so
        /// table entries are NaN) and from edges mixed with ordinary weights.
        #[test]
        fn projection_tiers_match_scalar_on_every_prefix_length() {
            let mut r = rng(0x9F1);
            for cb_rows in 0..=12usize {
                for dim in [1usize, 63, 64, 65, 129, 2048] {
                    let codebook = BitMatrix::random_bipolar(cb_rows, dim, &mut r);
                    let mut patterns: Vec<Vec<f32>> = (0..PROJECTION_EDGES.len())
                        .map(|p| {
                            (0..cb_rows)
                                .map(|m| PROJECTION_EDGES[(p + m) % PROJECTION_EDGES.len()])
                                .collect()
                        })
                        .collect();
                    patterns.push(
                        (0..cb_rows)
                            .map(|m| [f32::INFINITY, f32::NEG_INFINITY, 1.5][m % 3])
                            .collect(),
                    );
                    for _ in 0..4 {
                        patterns.push(
                            (0..cb_rows)
                                .map(|_| match r.gen_range(0..3) {
                                    0 => PROJECTION_EDGES[r.gen_range(0..PROJECTION_EDGES.len())],
                                    _ => (r.gen::<f32>() - 0.5) * 200.0,
                                })
                                .collect(),
                        );
                    }
                    for weights in &patterns {
                        if let Err(diverged) = check_projection_tiers(&codebook, weights) {
                            panic!("projection tier diverged from the scalar kernel: {diverged}");
                        }
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// Every available projection tier writes accumulator rows bitwise
            /// equal to the scalar row kernel, and packs them to the scalar
            /// kernel's sign words, across dims that end mid-vector, on a word
            /// edge and past one (tail words included), 0 to 40 codebook rows,
            /// and weights that include ±0.0, subnormals, ±infinity (so the
            /// sums hit NaN) and magnitudes large enough to absorb small ones.
            #[test]
            fn prop_projection_tiers_match_scalar(seed in 0u64..1000, cb_rows in 0usize..41) {
                let mut r = rng(seed);
                let weights: Vec<f32> = (0..cb_rows)
                    .map(|_| match r.gen_range(0..3) {
                        0 => PROJECTION_EDGES[r.gen_range(0..PROJECTION_EDGES.len())],
                        _ => (r.gen::<f32>() - 0.5) * 200.0,
                    })
                    .collect();
                for dim in [1usize, 63, 64, 65, 200, 321, 2048] {
                    let codebook = BitMatrix::random_bipolar(cb_rows, dim, &mut r);
                    prop_assert_eq!(check_projection_tiers(&codebook, &weights), Ok(()));
                }
            }

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

            /// Every tier's block kernel writes exactly the scalar oracle's
            /// distances, and its pair kernel returns each of them, so every
            /// tier takes the same argmin and the same dot product, on every tile
            /// remainder (1–9 query rows × 1–13 codebook rows: full 2 × 4 tiles,
            /// a lone query, 1–3 leftover rows) and ragged dims (one word, a word
            /// edge, one bit past it, a masked vector tail, 32 full words).
            /// Codebook rows repeat query rows (distance 0) and their complements
            /// (distance `dim`), and repeat each other, so exact ties and
            /// anti-matches are in every block.
            #[test]
            fn prop_hamming_block_tiers_match_scalar_oracle(seed in 0u64..1000) {
                let mut r = rng(seed);
                for dim in [1usize, 63, 64, 65, 129, 2048] {
                    let wpr = BitMatrix::words_for_dim(dim);
                    for n_queries in 1..=9 {
                        let queries = BitMatrix::random_bipolar(n_queries, dim, &mut r);
                        for n_rows in 1..=13 {
                            let rows = tie_heavy_rows(&queries, n_rows, &mut r);
                            let expected = oracle_distances(&queries, &rows);
                            for (name, block) in available_tier_kernels() {
                                let mut out = vec![u32::MAX; n_queries * n_rows];
                                block(&queries.words, &rows.words, wpr, &mut out);
                                prop_assert_eq!(
                                    (name, dim, n_queries, n_rows, &out),
                                    (name, dim, n_queries, n_rows, &expected)
                                );
                            }
                        }
                    }
                }
            }

            /// The dispatched projection is bitwise-equal to the naive AoS walk
            /// (codebook row outer, dimension inner) — accumulators handed to
            /// `perturb` and the packed output — with and without a mutating
            /// perturbation, over several query rows so reused scratch is
            /// covered.
            #[test]
            fn prop_project_signs_matches_aos_reference(
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
                let mut out = BitMatrix::default();
                let mut seen: Vec<Vec<u32>> = Vec::new();
                backend.project_signs_packed_into(
                    &codebook,
                    &weights,
                    |q, row| {
                        if noisy {
                            for (slot, z) in row.iter_mut().zip(&perturb_values[q * dim..]) {
                                *slot += z;
                            }
                        }
                        seen.push(row.iter().map(|v| v.to_bits()).collect());
                    },
                    &mut acc,
                    &mut out,
                );

                // AoS reference: one query at a time, codebook row outer, word
                // chunk inner.
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

                prop_assert_eq!(seen, ref_seen);
                for q in 0..queries {
                    prop_assert_eq!(out.row_words(q), ref_out.row_words(q));
                }
            }
        }
    }

    #[test]
    fn fused_step_projects_only_rows_whose_hook_asks() {
        // 11 query rows, every third row declines.
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
            let (mut calls, mut projected) = (Vec::new(), Vec::new());
            backend.resonate_step_fused_into(
                &codebook,
                &query,
                &mut estimates,
                1,
                &mut unbound,
                &mut sims,
                &mut acc,
                |phase, slot, values| {
                    calls.push((phase, slot));
                    if phase == ResonatePhase::Projection {
                        // A deterministic perturbation, so the pack sees hook edits.
                        values[slot % dim] -= 1000.0;
                        projected
                            .push((slot, values.iter().map(|v| v.to_bits()).collect::<Vec<_>>()));
                    }
                    !skip(slot)
                },
            );
            // Per row, ascending: its Similarity call, then its Projection call
            // only when the Similarity verdict asked for one.
            let expected: Vec<_> = (0..rows)
                .flat_map(|q| {
                    let proj = (!skip(q)).then_some((ResonatePhase::Projection, q));
                    std::iter::once((ResonatePhase::Similarity, q)).chain(proj)
                })
                .collect();
            assert_eq!(calls, expected, "hook sequence");
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

    /// The step builds its prefix codes once and every projected row reads
    /// them: with a hook that leaves values untouched, each row's accumulators
    /// are exactly the scalar row kernel's over that row's similarities, and its
    /// estimate row exactly their sign pack, on codebooks shorter than, equal
    /// to and longer than the avx512 tier's five-row prefix (and longer than
    /// the avx2 tier's three-row one). The similarities themselves are
    /// `d − 2·hamming` of the unbound query against the scalar oracle.
    #[test]
    fn fused_step_projects_every_row_like_the_scalar_kernel() {
        let rows = 7;
        for cb_rows in [1usize, 5, 6, 9] {
            for dim in [65usize, 2048] {
                let seed = (cb_rows * 10_000 + dim) as u64;
                let codebook =
                    BitMatrix::from_matrix(&random_bipolar_matrix(cb_rows, dim, seed)).unwrap();
                let query =
                    BitMatrix::from_matrix(&random_bipolar_matrix(rows, dim, seed + 1)).unwrap();
                let mut estimates: Vec<BitMatrix> = (0..3)
                    .map(|f| {
                        BitMatrix::from_matrix(&random_bipolar_matrix(rows, dim, seed + 2 + f))
                            .unwrap()
                    })
                    .collect();
                let mut unbound_oracle = query.clone();
                unbound_oracle.xor_assign(&estimates[0]).unwrap();
                unbound_oracle.xor_assign(&estimates[2]).unwrap();
                let distances = oracle_distances(&unbound_oracle, &codebook);

                let (mut unbound, mut sims, mut acc) =
                    (BitMatrix::default(), HvMatrix::default(), Vec::new());
                let mut projected = Vec::new();
                PackedBackend::new().resonate_step_fused_into(
                    &codebook,
                    &query,
                    &mut estimates,
                    1,
                    &mut unbound,
                    &mut sims,
                    &mut acc,
                    |phase, slot, values| {
                        if phase == ResonatePhase::Projection {
                            projected.push((slot, values.to_vec()));
                        }
                    },
                );

                assert_eq!(projected.len(), rows, "{cb_rows} rows, dim {dim}");
                let wpr = codebook.words_per_row();
                for (slot, values) in &projected {
                    let weights = sims.row(*slot);
                    let expected_sims: Vec<f32> = distances[slot * cb_rows..(slot + 1) * cb_rows]
                        .iter()
                        .map(|&h| dim as f32 - 2.0 * h as f32)
                        .collect();
                    assert_eq!(weights, &expected_sims[..], "row {slot}: similarities");
                    let mut expected = vec![f32::NAN; dim];
                    project_row_generic(&codebook.words, wpr, cb_rows, weights, &[], &mut expected);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(values),
                        bits(&expected),
                        "{cb_rows} rows, dim {dim}, row {slot}: accumulators"
                    );
                    let mut signs = vec![0u64; wpr];
                    pack_row_signs(&expected, &mut signs);
                    assert_eq!(
                        estimates[1].row_words(*slot),
                        &signs[..],
                        "{cb_rows} rows, dim {dim}, row {slot}: estimate"
                    );
                }
            }
        }
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
}
