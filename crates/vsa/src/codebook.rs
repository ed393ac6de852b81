//! Symbolic knowledge codebooks.
//!
//! The paper (Sec. II-C, III-C) identifies the *symbolic knowledge codebook* — the set
//! of vectors representing every attribute combination — as the dominant memory cost of
//! VSA-based neurosymbolic systems (tens to hundreds of MB), and Sec. IV replaces it
//! with per-attribute codebooks plus iterative factorization. This module provides both
//! representations so the memory/latency comparison of Fig. 8 can be reproduced.
//!
//! Both are searched the same way. A bipolar [`Codebook`] caches its sign planes, and
//! the [`ProductCodebook`] is nothing but sign planes, XOR-composed from the factor
//! codebooks' planes. Every exhaustive search over either runs the one linear blocked
//! popcount scan, [`PackedBackend::cleanup_batch_packed_into`].

use crate::batch::{HvMatrix, ReferenceBackend};
use crate::error::VsaError;
use crate::hypervector::Hypervector;
use crate::ops;
use crate::packed::{BitMatrix, CleanupScratch, PackedBackend};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How codevectors in a [`CodebookSet`] are combined into a product vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum BindingOp {
    /// Element-wise (Hadamard) multiplicative binding — NVSA-style attribute binding.
    #[default]
    Hadamard,
    /// Circular convolution binding (holographic reduced representations).
    CircularConvolution,
}

/// A single attribute codebook: `M` quasi-orthogonal codevectors of dimension `d`.
///
/// # Example
/// ```
/// use cogsys_vsa::{BitMatrix, CleanupScratch, Codebook};
/// let mut rng = cogsys_vsa::rng(0);
/// let cb = Codebook::random("color", 8, 256, &mut rng);
/// assert_eq!(cb.len(), 8);
/// assert_eq!(cb.dim(), 256);
/// // Cleanup finds the exact codevector.
/// let query = BitMatrix::from_hypervectors(&[cb.vector(5).unwrap()]).unwrap();
/// let mut best = Vec::new();
/// cb.cleanup_batch_bits_into(&query, &mut CleanupScratch::default(), &mut best)
///     .unwrap();
/// assert_eq!(best, vec![(5, 1.0)]);
/// ```
///
/// The storage is immutable after construction and shared behind [`Arc`]s, so a
/// clone (e.g. the same attribute codebook in a solver's full set, in its
/// per-block sets and in every degraded serving rung) is a refcount, not a copy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Codebook {
    name: String,
    /// The codevectors as one row-major matrix (one row per codevector), the
    /// operand of the [`ReferenceBackend`] kernels.
    matrix: Arc<HvMatrix>,
    /// Bit-packed sign planes of `matrix`, cached once at construction when every
    /// codevector is exactly bipolar (`None` otherwise). Every search scans these.
    packed: Option<Arc<BitMatrix>>,
    /// The resonator's starting estimate as a one-row sign plane, cached once at
    /// construction (`None` for a codebook without codevectors or dimensions).
    start: Option<Arc<BitMatrix>>,
}

impl Codebook {
    /// Derives the sign planes and the starting estimate of `matrix` and moves all
    /// three into shared storage.
    fn from_matrix(name: String, matrix: HvMatrix) -> Self {
        let packed = BitMatrix::from_matrix(&matrix).map(Arc::new);
        let start = ops::bundle(matrix.row_iter())
            .ok()
            .filter(|_| matrix.dim() > 0)
            .map(|bundle| {
                let mut plane = BitMatrix::zeros(1, matrix.dim());
                plane.pack_signs_row(0, bundle.values());
                Arc::new(plane)
            });
        Self {
            name,
            matrix: Arc::new(matrix),
            packed,
            start,
        }
    }

    /// Builds a codebook from explicit codevectors.
    ///
    /// # Errors
    /// Returns [`VsaError::Empty`] if `vectors` is empty and
    /// [`VsaError::DimensionMismatch`] if the vectors disagree in dimension.
    pub fn new(name: impl Into<String>, vectors: Vec<Hypervector>) -> Result<Self, VsaError> {
        if vectors.is_empty() {
            return Err(VsaError::Empty { what: "codebook" });
        }
        Ok(Self::from_matrix(
            name.into(),
            HvMatrix::from_rows(&vectors)?,
        ))
    }

    /// Generates a codebook of `size` random bipolar codevectors of dimension `dim`,
    /// drawn row by row exactly as [`Hypervector::random_bipolar`] draws one.
    pub fn random<R: Rng + ?Sized>(
        name: impl Into<String>,
        size: usize,
        dim: usize,
        rng: &mut R,
    ) -> Self {
        let mut matrix = HvMatrix::zeros(size, dim);
        for v in matrix.as_mut_slice() {
            *v = if rng.gen::<bool>() { 1.0 } else { -1.0 };
        }
        Self::from_matrix(name.into(), matrix)
    }

    /// The attribute name this codebook represents (e.g. `"color"`, `"size"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of codevectors.
    pub fn len(&self) -> usize {
        self.matrix.rows()
    }

    /// Returns `true` if the codebook holds no codevectors (cannot happen via [`Codebook::new`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of the codevectors.
    pub fn dim(&self) -> usize {
        self.matrix.dim()
    }

    /// Returns an owned copy of the codevector at `index`; [`Codebook::matrix`]
    /// lends the rows without copying.
    ///
    /// # Errors
    /// Returns [`VsaError::IndexOutOfRange`] when `index >= len()`.
    pub fn vector(&self, index: usize) -> Result<Hypervector, VsaError> {
        if index >= self.len() {
            return Err(VsaError::IndexOutOfRange {
                index,
                len: self.len(),
            });
        }
        Ok(Hypervector::from_values(self.matrix.row(index).to_vec()))
    }

    /// The codevectors as one contiguous row-major matrix (`len() × dim()`), the
    /// operand shape the [`ReferenceBackend`] batch kernels consume.
    pub fn matrix(&self) -> &HvMatrix {
        &self.matrix
    }

    /// The bit-packed sign planes of the codebook, cached at construction — `Some`
    /// exactly when every codevector is bipolar.
    pub fn packed(&self) -> Option<&BitMatrix> {
        self.packed.as_deref()
    }

    /// The resonator's starting estimate: the sign of the bundle of every
    /// codevector (their sum in row order), ties to `+1`, as a one-row sign plane
    /// (`v < 0` packs to a set bit, like every estimate plane). It is the
    /// resonator-network convention of starting from "every candidate in
    /// superposition", computed once at construction.
    ///
    /// # Errors
    /// Returns [`VsaError::Empty`] for a codebook without codevectors (or of
    /// dimension zero).
    pub fn start_plane(&self) -> Result<&BitMatrix, VsaError> {
        self.start.as_deref().ok_or(VsaError::Empty {
            what: "codebook starting estimate",
        })
    }

    /// The codebook search: `out[q]` is the best codevector for query row `q` and its
    /// cosine similarity, ties resolving to the lowest index. It is one call of the
    /// linear popcount scan ([`PackedBackend::cleanup_batch_packed_into`]) over the
    /// cached sign planes, with no per-call packing on either operand; results land
    /// in `out` and intermediate state in `scratch`, so a reused pair allocates
    /// nothing.
    ///
    /// # Errors
    /// Returns [`VsaError::Unsupported`] for a codebook without sign planes (not
    /// every codevector bipolar) and [`VsaError::DimensionMismatch`] for queries of
    /// another dimension.
    pub fn cleanup_batch_bits_into(
        &self,
        queries: &BitMatrix,
        scratch: &mut CleanupScratch,
        out: &mut Vec<(usize, f32)>,
    ) -> Result<(), VsaError> {
        let planes = self.packed().ok_or(VsaError::Unsupported {
            what: "codebook search requires bipolar codevectors",
        })?;
        if queries.rows() > 0 && queries.dim() != planes.dim() {
            return Err(VsaError::DimensionMismatch {
                left: planes.dim(),
                right: queries.dim(),
            });
        }
        PackedBackend.cleanup_batch_packed_into(planes, queries, scratch, out);
        Ok(())
    }

    /// Memory footprint of the codebook in bytes assuming `bytes_per_element` storage.
    pub fn footprint_bytes(&self, bytes_per_element: usize) -> usize {
        self.len() * self.dim() * bytes_per_element
    }
}

/// A set of `F` attribute codebooks defining a factorizable product space.
///
/// An object with attribute indices `(i_1, ..., i_F)` is represented by binding the
/// corresponding codevectors, one from each codebook. The full product space has
/// `Π_f M_f` combinations — the quantity the paper's factorization strategy avoids
/// materialising.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CodebookSet {
    codebooks: Vec<Codebook>,
    binding: BindingOp,
}

impl CodebookSet {
    /// Builds a codebook set.
    ///
    /// # Errors
    /// Returns [`VsaError::Empty`] if no codebooks are supplied and
    /// [`VsaError::DimensionMismatch`] if they disagree in dimension.
    pub fn new(codebooks: Vec<Codebook>, binding: BindingOp) -> Result<Self, VsaError> {
        if codebooks.is_empty() {
            return Err(VsaError::Empty {
                what: "codebook set",
            });
        }
        let dim = codebooks[0].dim();
        for cb in &codebooks {
            if cb.dim() != dim {
                return Err(VsaError::DimensionMismatch {
                    left: dim,
                    right: cb.dim(),
                });
            }
        }
        Ok(Self { codebooks, binding })
    }

    /// Generates `factor_sizes.len()` random codebooks with the given sizes.
    ///
    /// The attribute names default to `f0`, `f1`, ...
    pub fn random<R: Rng + ?Sized>(
        factor_sizes: &[usize],
        dim: usize,
        binding: BindingOp,
        rng: &mut R,
    ) -> Self {
        let codebooks = factor_sizes
            .iter()
            .enumerate()
            .map(|(i, &m)| Codebook::random(format!("f{i}"), m, dim, rng))
            .collect();
        Self { codebooks, binding }
    }

    /// Number of factors `F`.
    pub fn num_factors(&self) -> usize {
        self.codebooks.len()
    }

    /// Dimensionality of all codevectors.
    pub fn dim(&self) -> usize {
        self.codebooks.first().map_or(0, Codebook::dim)
    }

    /// The binding operation used to compose factors.
    pub fn binding(&self) -> BindingOp {
        self.binding
    }

    /// The per-factor codebooks.
    pub fn codebooks(&self) -> &[Codebook] {
        &self.codebooks
    }

    /// Returns `true` when every factor codebook carries cached sign planes
    /// ([`Codebook::packed`]) — the precondition for running a factorization or decode
    /// entirely in the bit-packed representation.
    pub fn all_packed(&self) -> bool {
        self.codebooks.iter().all(|cb| cb.packed().is_some())
    }

    /// Returns the codebook of factor `f`.
    ///
    /// # Errors
    /// Returns [`VsaError::IndexOutOfRange`] if `f` is not a valid factor index.
    pub fn factor(&self, f: usize) -> Result<&Codebook, VsaError> {
        self.codebooks.get(f).ok_or(VsaError::IndexOutOfRange {
            index: f,
            len: self.codebooks.len(),
        })
    }

    /// Total number of attribute combinations `Π_f M_f`, saturating at `usize::MAX`
    /// when the product overflows (five 10,000-value attributes already do), so size
    /// guards reject such spaces instead of seeing a wrapped count.
    pub fn combinations(&self) -> usize {
        self.codebooks
            .iter()
            .fold(1, |total, cb| total.saturating_mul(cb.len()))
    }

    /// Binds one codevector per factor (selected by `indices`) into a product vector.
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] if `indices.len() != num_factors()` and
    /// [`VsaError::IndexOutOfRange`] for invalid per-factor indices.
    pub fn bind_indices(&self, indices: &[usize]) -> Result<Hypervector, VsaError> {
        if indices.len() != self.codebooks.len() {
            return Err(VsaError::DimensionMismatch {
                left: self.codebooks.len(),
                right: indices.len(),
            });
        }
        let mut product = self.codebooks[0].vector(indices[0])?;
        for (cb, &idx) in self.codebooks.iter().zip(indices).skip(1) {
            let v = cb.vector(idx)?;
            product = match self.binding {
                BindingOp::Hadamard => ops::hadamard_bind(&product, &v)?,
                BindingOp::CircularConvolution => ops::try_circular_convolve(&product, &v)?,
            };
        }
        Ok(product)
    }

    /// Unbinds all factors except `keep` from every query using the current factor
    /// estimates — Step 1 of the factorization procedure (Fig. 8),
    /// `x̃_i = q ⊘ Π_{f≠i} x̂_f`: row `q` of the result unbinds every factor's estimate
    /// except `keep` from `queries` row `q`. `estimates[f]` holds the current estimate
    /// of factor `f` for every query (`queries.rows() × dim()`).
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] on arity or shape mismatches.
    pub fn unbind_all_but_batch(
        &self,
        queries: &HvMatrix,
        estimates: &[HvMatrix],
        keep: usize,
        out: &mut HvMatrix,
        scratch: &mut HvMatrix,
    ) -> Result<(), VsaError> {
        if estimates.len() != self.codebooks.len() {
            return Err(VsaError::DimensionMismatch {
                left: self.codebooks.len(),
                right: estimates.len(),
            });
        }
        out.ensure_shape(queries.rows(), queries.dim());
        out.as_mut_slice().copy_from_slice(queries.as_slice());
        for (f, est) in estimates.iter().enumerate() {
            if f == keep {
                continue;
            }
            ReferenceBackend.unbind_batch_into(out, est, self.binding, scratch)?;
            std::mem::swap(out, scratch);
        }
        Ok(())
    }

    /// Combined memory footprint of the factored codebooks in bytes.
    pub fn footprint_bytes(&self, bytes_per_element: usize) -> usize {
        self.codebooks
            .iter()
            .map(|cb| cb.footprint_bytes(bytes_per_element))
            .sum()
    }

    /// Memory footprint the *expanded* product codebook would need (Fig. 8
    /// comparison), saturating at `usize::MAX` like [`CodebookSet::combinations`].
    pub fn product_footprint_bytes(&self, bytes_per_element: usize) -> usize {
        self.combinations()
            .saturating_mul(self.dim())
            .saturating_mul(bytes_per_element)
    }
}

/// The fully expanded product codebook — the baseline the paper's factorization removes.
///
/// Holds one sign plane per attribute combination. Row `r` is the combination whose
/// factor indices are the mixed-radix digits of `r`, last factor fastest. The rows are
/// XOR-composed from the factor codebooks' cached planes (bipolar Hadamard binding is
/// XOR on sign planes), so no `f32` product vector is ever built. A search runs the
/// same linear popcount scan as [`Codebook::cleanup_batch_bits_into`]. Only
/// practical for small combination counts; the constructor refuses to materialise more
/// than [`ProductCodebook::MAX_COMBINATIONS`] rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProductCodebook {
    planes: BitMatrix,
    factor_sizes: Vec<usize>,
}

impl ProductCodebook {
    /// Refuse to expand product spaces larger than this (memory guard).
    pub const MAX_COMBINATIONS: usize = 1 << 22;

    /// Expands a [`CodebookSet`] into its full product codebook.
    ///
    /// # Errors
    /// Returns [`VsaError::InvalidParameter`] if the combination count exceeds
    /// [`Self::MAX_COMBINATIONS`], [`VsaError::Empty`] if a factor codebook is empty,
    /// and [`VsaError::Unsupported`] unless the set binds by
    /// [`BindingOp::Hadamard`] over bipolar codebooks (the sign-plane
    /// representation).
    pub fn expand(set: &CodebookSet) -> Result<Self, VsaError> {
        let total = set.combinations();
        if total > Self::MAX_COMBINATIONS {
            return Err(VsaError::InvalidParameter {
                name: "combinations",
                message: format!(
                    "product space of {total} vectors exceeds the expansion guard of {}",
                    Self::MAX_COMBINATIONS
                ),
            });
        }
        if total == 0 {
            return Err(VsaError::Empty {
                what: "product codebook",
            });
        }
        if set.binding() != BindingOp::Hadamard {
            return Err(VsaError::Unsupported {
                what: "product codebook requires Hadamard binding",
            });
        }
        let factor_sizes: Vec<usize> = set.codebooks().iter().map(Codebook::len).collect();
        let mut planes = BitMatrix::default();
        let mut indices = Vec::with_capacity(total);
        // Factor f's digit of row r is (r / stride) % M_f, with stride the product of
        // the sizes after f.
        let mut stride = total;
        for (f, cb) in set.codebooks().iter().enumerate() {
            let factor_planes = cb.packed().ok_or(VsaError::Unsupported {
                what: "product codebook requires bipolar factor codebooks",
            })?;
            stride /= cb.len();
            indices.clear();
            indices.extend((0..total).map(|r| (r / stride) % cb.len()));
            if f == 0 {
                factor_planes.gather_into(&indices, &mut planes)?;
            } else {
                planes.xor_gather_assign(factor_planes, &indices)?;
            }
        }
        Ok(Self {
            planes,
            factor_sizes,
        })
    }

    /// Number of product vectors.
    pub fn len(&self) -> usize {
        self.planes.rows()
    }

    /// Returns `true` if the codebook holds no vectors (cannot happen via
    /// [`ProductCodebook::expand`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The per-factor codebook sizes this product space was built from.
    pub fn factor_sizes(&self) -> &[usize] {
        &self.factor_sizes
    }

    /// Brute-force search: returns the factor indices of the best-matching product
    /// vector together with its cosine similarity. Ties resolve to the lowest row,
    /// i.e. the lexicographically smallest index tuple.
    ///
    /// This is the operation whose cost (both memory and latency) the CogSys
    /// factorization strategy replaces.
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] for a query of the wrong dimension and
    /// [`VsaError::InvalidParameter`] for a query that is not exactly bipolar.
    pub fn brute_force_search(&self, query: &Hypervector) -> Result<(Vec<usize>, f32), VsaError> {
        let dim = self.planes.dim();
        if query.dim() != dim {
            return Err(VsaError::DimensionMismatch {
                left: dim,
                right: query.dim(),
            });
        }
        let bits = BitMatrix::from_matrix(&HvMatrix::from_hypervector(query)).ok_or_else(|| {
            VsaError::InvalidParameter {
                name: "query",
                message: "product codebook search requires an exactly bipolar (±1.0) query"
                    .to_string(),
            }
        })?;
        let mut best = Vec::new();
        self.search_batch_bits_into(&bits, &mut CleanupScratch::default(), &mut best)?;
        let (row, similarity) = best[0];
        let mut indices = vec![0; self.factor_sizes.len()];
        self.factor_indices_into(row, &mut indices);
        Ok((indices, similarity))
    }

    /// Batch search of **bit-packed** queries: `out[q]` is the best product row for
    /// query row `q` and its cosine similarity, ties resolving to the lowest row. It
    /// is one call of the linear popcount scan
    /// ([`PackedBackend::cleanup_batch_packed_into`]) over the product planes;
    /// [`ProductCodebook::factor_indices_into`] turns a row into its index tuple.
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] for queries of another dimension.
    pub fn search_batch_bits_into(
        &self,
        queries: &BitMatrix,
        scratch: &mut CleanupScratch,
        out: &mut Vec<(usize, f32)>,
    ) -> Result<(), VsaError> {
        if queries.rows() > 0 && queries.dim() != self.planes.dim() {
            return Err(VsaError::DimensionMismatch {
                left: self.planes.dim(),
                right: queries.dim(),
            });
        }
        PackedBackend.cleanup_batch_packed_into(&self.planes, queries, scratch, out);
        Ok(())
    }

    /// Writes the factor indices of product row `row` into `out`: the mixed-radix
    /// digits of `row`, last factor fastest.
    ///
    /// # Panics
    /// Panics if `out` does not hold one slot per factor.
    pub fn factor_indices_into(&self, mut row: usize, out: &mut [usize]) {
        assert_eq!(out.len(), self.factor_sizes.len(), "one slot per factor");
        for (slot, &m) in out.iter_mut().zip(&self.factor_sizes).rev() {
            *slot = row % m;
            row /= m;
        }
    }

    /// Memory footprint in bytes of the `f32`-equivalent expansion, assuming
    /// `bytes_per_element` storage per dimension (the Fig. 8 accounting; the sign
    /// planes themselves take one bit per dimension).
    pub fn footprint_bytes(&self, bytes_per_element: usize) -> usize {
        self.len() * self.planes.dim() * bytes_per_element
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;
    use proptest::prelude::*;

    #[test]
    fn codebook_new_validates_input() {
        assert!(matches!(
            Codebook::new("x", vec![]),
            Err(VsaError::Empty { .. })
        ));
        let bad = vec![Hypervector::zeros(4), Hypervector::zeros(8)];
        assert!(matches!(
            Codebook::new("x", bad),
            Err(VsaError::DimensionMismatch { .. })
        ));
    }

    /// One search of `cb` for the bipolar `queries`.
    fn search(cb: &Codebook, queries: &[Hypervector]) -> Result<Vec<(usize, f32)>, VsaError> {
        let bits = BitMatrix::from_hypervectors(queries)?;
        let mut out = Vec::new();
        cb.cleanup_batch_bits_into(&bits, &mut CleanupScratch::default(), &mut out)?;
        Ok(out)
    }

    #[test]
    fn cleanup_recovers_noisy_codevector() {
        let mut r = rng(20);
        let cb = Codebook::random("type", 16, 1024, &mut r);
        let noisy = ops::flip_noise(&cb.vector(7).unwrap(), 0.2, &mut r);
        let (idx, sim) = search(&cb, &[noisy]).unwrap()[0];
        assert_eq!(idx, 7);
        assert!(sim > 0.4);
    }

    #[test]
    fn random_codebooks_keep_their_seeded_sign_planes() {
        // FNV-1a over every sign-plane word, and the generator's next draw after
        // the codebook, for fixed seeds and shapes: pins the draw order (row-major,
        // one `gen::<bool>()` per element) that every seeded codebook, and with it
        // every seeded decision, depends on. 300 dims end in a padded tail word.
        for (size, dim, words_hash, next_draw) in [
            (7, 300, 0x569f_a40c_b3ca_3308_u64, 0x28e2_fbb8_354d_d16c_u64),
            (10, 2048, 0xe3b3_1d6a_7ba5_5064, 0xdc23_6153_20fc_bcc2),
            (1, 64, 0xa573_98dd_74d7_9d21, 0x524e_9a85_6e9e_de70),
        ] {
            let mut r = rng(0xC0DE);
            let cb = Codebook::random("pin", size, dim, &mut r);
            let planes = cb.packed().expect("random codebooks are bipolar");
            let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
            for row in 0..planes.rows() {
                for &word in planes.row_words(row) {
                    hash = (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            assert_eq!(hash, words_hash, "{size} x {dim}");
            assert_eq!(r.gen::<u64>(), next_draw, "{size} x {dim}");
        }
    }

    #[test]
    fn start_plane_is_the_packed_majority_bundle() {
        let mut r = rng(64);
        // Six bipolar rows: an even count, so some dimensions sum to zero, and a
        // tie must leave its bit clear (+1).
        let even = Codebook::random("even", 6, 300, &mut r);
        // Real-valued rows have no sign planes, yet start from their bundle's sign.
        let real = Codebook::new(
            "real",
            (0..5)
                .map(|_| Hypervector::random_real(300, &mut r))
                .collect(),
        )
        .unwrap();
        assert!(real.packed().is_none());
        for cb in [&even, &real] {
            let majority = ops::majority_bundle(cb.matrix().row_iter()).unwrap();
            let expected = BitMatrix::from_hypervectors(&[majority]).unwrap();
            let start = cb.start_plane().unwrap();
            assert_eq!((start.rows(), start.dim()), (1, 300), "{}", cb.name());
            assert_eq!(start.row_words(0), expected.row_words(0), "{}", cb.name());
        }
        let sums = ops::bundle(even.matrix().row_iter()).unwrap();
        let words = even.start_plane().unwrap().row_words(0);
        let ties: Vec<usize> = (0..300).filter(|&j| sums.values()[j] == 0.0).collect();
        assert!(!ties.is_empty());
        for j in ties {
            assert_eq!((words[j / 64] >> (j % 64)) & 1, 0, "tie at {j}");
        }
        assert!(matches!(
            Codebook::random("empty", 0, 64, &mut r).start_plane(),
            Err(VsaError::Empty { .. })
        ));
    }

    #[test]
    fn codebook_vector_out_of_range() {
        let mut r = rng(21);
        let cb = Codebook::random("c", 4, 32, &mut r);
        assert!(matches!(
            cb.vector(4),
            Err(VsaError::IndexOutOfRange { index: 4, len: 4 })
        ));
    }

    #[test]
    fn search_decides_like_the_dense_oracle_ties_included() {
        let mut r = rng(30);
        let large = Codebook::random("large", 600, 512, &mut r);
        // Row 1 repeats row 0, so a query on either ties exactly and the lowest
        // index must win; row 3 is row 2 negated, an anti-match that must not.
        let mut rows: Vec<Hypervector> = (0..6).map(|i| large.vector(i).unwrap()).collect();
        rows[1] = rows[0].clone();
        rows[3] = -rows[2].clone();
        let tied = Codebook::new("tied", rows).unwrap();
        for (cb, sources) in [
            (&large, [0, 100, 200, 300, 400, 500]),
            (&tied, [0, 1, 2, 4, 5, 0]),
        ] {
            let mut queries: Vec<Hypervector> = sources
                .iter()
                .map(|&i| ops::flip_noise(&cb.vector(i).unwrap(), 0.02, &mut r))
                .collect();
            queries.push(cb.vector(sources[1]).unwrap());
            let dense = HvMatrix::from_rows(&queries).unwrap();
            let found = search(cb, &queries).unwrap();
            let oracle = ReferenceBackend.cleanup_batch(cb.matrix(), &dense).unwrap();
            assert_eq!(found.len(), queries.len());
            for (q, ((idx, sim), (dense_idx, dense_sim))) in found.iter().zip(&oracle).enumerate() {
                assert_eq!(idx, dense_idx, "{} query {q}", cb.name());
                assert!((sim - dense_sim).abs() < 1e-4, "{} query {q}", cb.name());
            }
            if cb.name() == "tied" {
                // The clean query on row 1 is row 0 itself: the tie goes to row 0.
                assert_eq!(found.last().unwrap(), &(0, 1.0));
            } else {
                for (q, &(idx, _)) in found.iter().take(sources.len()).enumerate() {
                    assert_eq!(idx, sources[q], "query {q} recovers its source row");
                }
            }
        }
    }

    #[test]
    fn search_rejects_real_codebooks_and_foreign_dimensions() {
        let mut r = rng(62);
        let real = Codebook::new(
            "real",
            (0..4)
                .map(|_| Hypervector::random_real(256, &mut r))
                .collect(),
        )
        .unwrap();
        assert!(real.packed().is_none());
        let query = Hypervector::random_bipolar(256, &mut r);
        assert!(matches!(
            search(&real, std::slice::from_ref(&query)),
            Err(VsaError::Unsupported { .. })
        ));
        let cb = Codebook::random("bits", 10, 256, &mut r);
        assert_eq!(search(&cb, &[query]).unwrap().len(), 1);
        assert!(matches!(
            search(&cb, &[Hypervector::random_bipolar(320, &mut r)]),
            Err(VsaError::DimensionMismatch {
                left: 256,
                right: 320
            })
        ));
    }

    #[test]
    fn codebook_footprint() {
        let mut r = rng(22);
        let cb = Codebook::random("c", 10, 100, &mut r);
        assert_eq!(cb.footprint_bytes(4), 4000);
        assert_eq!(cb.footprint_bytes(1), 1000);
    }

    #[test]
    fn codebook_set_combinations_and_footprints() {
        let mut r = rng(23);
        let set = CodebookSet::random(&[3, 4, 5], 128, BindingOp::Hadamard, &mut r);
        assert_eq!(set.num_factors(), 3);
        assert_eq!(set.combinations(), 60);
        assert_eq!(set.footprint_bytes(4), (3 + 4 + 5) * 128 * 4);
        assert_eq!(set.product_footprint_bytes(4), 60 * 128 * 4);
        // The factorized representation is much smaller — the essence of Fig. 8.
        assert!(set.footprint_bytes(4) < set.product_footprint_bytes(4));
    }

    #[test]
    fn bind_indices_validates_arity() {
        let mut r = rng(24);
        let set = CodebookSet::random(&[2, 2], 64, BindingOp::Hadamard, &mut r);
        assert!(set.bind_indices(&[0]).is_err());
        assert!(set.bind_indices(&[0, 5]).is_err());
        assert!(set.bind_indices(&[1, 1]).is_ok());
    }

    /// One-query [`CodebookSet::unbind_all_but_batch`], with the codevectors at
    /// `indices` as the factor estimates.
    fn unbind_all_but(
        set: &CodebookSet,
        query: &Hypervector,
        indices: &[usize],
        keep: usize,
    ) -> Hypervector {
        let estimates: Vec<HvMatrix> = indices
            .iter()
            .enumerate()
            .map(|(f, &i)| set.factor(f).unwrap().matrix().gather(&[i]).unwrap())
            .collect();
        let (mut out, mut scratch) = (HvMatrix::default(), HvMatrix::default());
        set.unbind_all_but_batch(
            &HvMatrix::from_hypervector(query),
            &estimates,
            keep,
            &mut out,
            &mut scratch,
        )
        .unwrap();
        Hypervector::from_values(out.row(0).to_vec())
    }

    #[test]
    fn unbind_all_but_recovers_factor_hadamard() {
        let mut r = rng(25);
        let set = CodebookSet::random(&[4, 4, 4], 512, BindingOp::Hadamard, &mut r);
        let product = set.bind_indices(&[1, 2, 3]).unwrap();
        // With the true codevectors of the other factors as estimates, unbinding exactly
        // recovers the kept factor (bipolar Hadamard binding is exactly invertible).
        let recovered = unbind_all_but(&set, &product, &[1, 2, 3], 1);
        let (idx, sim) = search(set.factor(1).unwrap(), &[recovered]).unwrap()[0];
        assert_eq!(idx, 2);
        assert!(sim > 0.99);
    }

    #[test]
    fn unbind_all_but_recovers_factor_circular() {
        let mut r = rng(26);
        let set = CodebookSet::random(&[4, 4], 1024, BindingOp::CircularConvolution, &mut r);
        let product = set.bind_indices(&[3, 1]).unwrap();
        let recovered = unbind_all_but(&set, &product, &[3, 1], 1);
        // Circular unbinding leaves a real-valued query: the dense kernel scores it.
        let (idx, sim) = ReferenceBackend
            .cleanup_batch(
                set.factor(1).unwrap().matrix(),
                &HvMatrix::from_hypervector(&recovered),
            )
            .unwrap()[0];
        assert_eq!(idx, 1);
        assert!(sim > 0.3, "similarity {sim}");
    }

    #[test]
    fn product_codebook_expansion_and_search() {
        let mut r = rng(27);
        let set = CodebookSet::random(&[3, 4, 5], 256, BindingOp::Hadamard, &mut r);
        let product = ProductCodebook::expand(&set).unwrap();
        assert_eq!(product.len(), 60);
        assert_eq!(product.factor_sizes(), &[3, 4, 5]);
        // Row r holds the combination whose mixed-radix digits (last factor fastest)
        // are r, composed exactly as the f32 bind would be.
        for (row, t) in [
            (0, [0, 0, 0]),
            (1, [0, 0, 1]),
            (5, [0, 1, 0]),
            (59, [2, 3, 4]),
        ] {
            let bound = set.bind_indices(&t).unwrap();
            let planes = BitMatrix::from_hypervectors(&[bound]).unwrap();
            assert_eq!(product.planes.row_words(row), planes.row_words(0));
        }
        let query = set.bind_indices(&[2, 1, 4]).unwrap();
        let (indices, sim) = product.brute_force_search(&query).unwrap();
        assert_eq!(indices, vec![2, 1, 4]);
        assert_eq!(sim, 1.0);
        // The Fig. 8 accounting counts the f32-equivalent expansion.
        assert_eq!(product.footprint_bytes(4), 60 * 256 * 4);
        assert_eq!(product.footprint_bytes(4), set.product_footprint_bytes(4));
        assert!(set.footprint_bytes(4) < product.footprint_bytes(4));
    }

    #[test]
    fn product_batch_search_decodes_every_query_row() {
        let mut r = rng(29);
        let set = CodebookSet::random(&[3, 4, 5], 256, BindingOp::Hadamard, &mut r);
        let product = ProductCodebook::expand(&set).unwrap();
        let tuples = [[2, 1, 4], [0, 3, 0], [1, 0, 2]];
        let rows: Vec<_> = tuples
            .iter()
            .map(|t| ops::flip_noise(&set.bind_indices(t).unwrap(), 0.2, &mut r))
            .collect();
        let queries = BitMatrix::from_hypervectors(&rows).unwrap();
        let mut best = Vec::new();
        product
            .search_batch_bits_into(&queries, &mut CleanupScratch::default(), &mut best)
            .unwrap();
        assert_eq!(best.len(), tuples.len());
        let mut indices = [0; 3];
        for ((t, query), &(row, sim)) in tuples.iter().zip(&rows).zip(&best) {
            product.factor_indices_into(row, &mut indices);
            assert_eq!(&indices, t);
            assert_eq!(
                product.brute_force_search(query).unwrap(),
                (t.to_vec(), sim)
            );
        }
        let wide = BitMatrix::zeros(1, 320);
        assert!(matches!(
            product.search_batch_bits_into(&wide, &mut CleanupScratch::default(), &mut best),
            Err(VsaError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn product_codebook_guards_combinatorial_explosion() {
        let mut r = rng(28);
        // 2^24 combinations exceeds the guard.
        let set = CodebookSet::random(&[4096, 4096], 8, BindingOp::Hadamard, &mut r);
        assert!(matches!(
            ProductCodebook::expand(&set),
            Err(VsaError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn product_space_count_saturates_instead_of_wrapping() {
        let mut r = rng(31);
        // Five 10,000-value attributes: 1e20 combinations, past usize::MAX.
        let cb = Codebook::random("wide", 10_000, 8, &mut r);
        let five = CodebookSet::new(vec![cb; 5], BindingOp::Hadamard).unwrap();
        // Four 65,536-value attributes: exactly 2^64, which a wrapping product
        // reports as 0 — an empty space that would slip past the guard.
        let cb = Codebook::random("wider", 1 << 16, 8, &mut r);
        let four = CodebookSet::new(vec![cb; 4], BindingOp::Hadamard).unwrap();
        for set in [&five, &four] {
            assert_eq!(set.combinations(), usize::MAX);
            assert_eq!(set.product_footprint_bytes(4), usize::MAX);
            assert!(matches!(
                ProductCodebook::expand(set),
                Err(VsaError::InvalidParameter { .. })
            ));
        }
    }

    #[test]
    fn product_search_rejects_what_sign_planes_cannot_hold() {
        let mut r = rng(32);
        let circular = CodebookSet::random(&[3, 4], 64, BindingOp::CircularConvolution, &mut r);
        assert!(matches!(
            ProductCodebook::expand(&circular),
            Err(VsaError::Unsupported { .. })
        ));
        let real = Codebook::new(
            "real",
            (0..3)
                .map(|_| Hypervector::random_real(64, &mut r))
                .collect(),
        )
        .unwrap();
        let bipolar = Codebook::random("b", 4, 64, &mut r);
        let mixed = CodebookSet::new(vec![bipolar, real], BindingOp::Hadamard).unwrap();
        assert!(matches!(
            ProductCodebook::expand(&mixed),
            Err(VsaError::Unsupported { .. })
        ));
        let empty = CodebookSet::random(&[3, 0], 64, BindingOp::Hadamard, &mut r);
        assert!(matches!(
            ProductCodebook::expand(&empty),
            Err(VsaError::Empty { .. })
        ));

        let set = CodebookSet::random(&[3, 4], 64, BindingOp::Hadamard, &mut r);
        let product = ProductCodebook::expand(&set).unwrap();
        assert!(matches!(
            product.brute_force_search(&Hypervector::random_real(64, &mut r)),
            Err(VsaError::InvalidParameter { name: "query", .. })
        ));
        assert!(matches!(
            product.brute_force_search(&Hypervector::random_bipolar(65, &mut r)),
            Err(VsaError::DimensionMismatch {
                left: 64,
                right: 65
            })
        ));
    }

    /// The f32 product scan `ProductCodebook` replaced: bind every combination in
    /// mixed-radix order (last factor fastest) and keep the first strictly better
    /// cosine, so the lowest index wins ties. Returns one `(indices, cosine)` per
    /// query.
    fn f32_product_scan(set: &CodebookSet, queries: &[Hypervector]) -> Vec<(Vec<usize>, f32)> {
        let sizes: Vec<usize> = set.codebooks().iter().map(Codebook::len).collect();
        let mut best = vec![(Vec::new(), f32::NEG_INFINITY); queries.len()];
        let mut indices = vec![0usize; sizes.len()];
        for _ in 0..set.combinations() {
            let product = set.bind_indices(&indices).unwrap();
            for (slot, query) in best.iter_mut().zip(queries) {
                let sim = ops::try_cosine_similarity(&product, query).unwrap();
                if sim > slot.1 {
                    *slot = (indices.clone(), sim);
                }
            }
            for f in (0..indices.len()).rev() {
                indices[f] += 1;
                if indices[f] < sizes[f] {
                    break;
                }
                indices[f] = 0;
            }
        }
        best
    }

    #[test]
    fn product_footprint_ratio_matches_paper_shape() {
        // NVSA-like setting (Fig. 8 caption: 13560 KB -> 190 KB, a 71.4x reduction):
        // the exact ratio depends on the attribute sizes; here we check the factored
        // representation wins by more than an order of magnitude for a realistic set.
        let mut r = rng(29);
        let set = CodebookSet::random(&[7, 10, 10, 4], 1024, BindingOp::Hadamard, &mut r);
        let factored = set.footprint_bytes(4);
        let product = set.product_footprint_bytes(4);
        assert!(product as f64 / factored as f64 > 10.0);
    }

    #[test]
    fn matrix_view_mirrors_codevectors() {
        let mut r = rng(60);
        let cb = Codebook::random("m", 6, 128, &mut r);
        assert_eq!(cb.matrix().rows(), 6);
        assert_eq!(cb.matrix().dim(), 128);
        for i in 0..cb.len() {
            assert_eq!(cb.matrix().row(i), cb.vector(i).unwrap().values());
        }
    }

    #[test]
    fn packed_kernels_match_their_dense_oracles() {
        let mut r = rng(61);
        let cb = Codebook::random("s", 10, 260, &mut r);
        let queries: Vec<Hypervector> = (0..5)
            .map(|i| ops::flip_noise(&cb.vector(i).unwrap(), 0.2, &mut r))
            .collect();
        let qm = HvMatrix::from_rows(&queries).unwrap();
        let bits = BitMatrix::from_matrix(&qm).expect("flip noise keeps queries bipolar");
        let planes = cb.packed().unwrap();
        // Popcount dot products of sign planes are exact, so the packed similarity
        // GEMM equals the dense one bit for bit, and both equal the scalar dots.
        let (mut packed, mut dense) = (HvMatrix::default(), HvMatrix::default());
        PackedBackend.similarity_matrix_packed_into(planes, &bits, &mut packed);
        ReferenceBackend
            .similarity_matrix_into(cb.matrix(), &qm, &mut dense)
            .unwrap();
        assert_eq!(packed, dense);
        for (q, query) in queries.iter().enumerate() {
            for (m, row) in cb.matrix().row_iter().enumerate() {
                let dot: f32 = row.iter().zip(query.values()).map(|(a, b)| a * b).sum();
                assert_eq!(packed.row(q)[m], dot, "query {q} row {m}");
            }
        }
        let mut found = Vec::new();
        PackedBackend.cleanup_batch_packed_into(
            planes,
            &bits,
            &mut CleanupScratch::default(),
            &mut found,
        );
        let oracle = ReferenceBackend.cleanup_batch(cb.matrix(), &qm).unwrap();
        for (q, ((idx, sim), (dense_idx, dense_sim))) in found.iter().zip(&oracle).enumerate() {
            assert_eq!((*idx, *dense_idx), (q, q), "query {q}");
            assert!((sim - dense_sim).abs() < 1e-4, "query {q}");
        }
        assert_eq!(search(&cb, &queries).unwrap(), found);
        assert!(CodebookSet::new(vec![cb], BindingOp::Hadamard)
            .unwrap()
            .all_packed());
    }

    #[test]
    fn unbind_all_but_batch_matches_scalar_unbind() {
        let mut r = rng(63);
        let set = CodebookSet::random(&[4, 4, 4], 128, BindingOp::Hadamard, &mut r);
        let tuples = [[1usize, 2, 3], [0, 0, 0]];
        let queries = HvMatrix::from_rows(
            &tuples
                .iter()
                .map(|t| set.bind_indices(t).unwrap())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        // Estimates: the true codevectors per query.
        let estimates: Vec<HvMatrix> = (0..3)
            .map(|f| {
                let indices: Vec<usize> = tuples.iter().map(|t| t[f]).collect();
                set.factor(f).unwrap().matrix().gather(&indices).unwrap()
            })
            .collect();
        for keep in 0..3 {
            let (mut out, mut scratch) = (HvMatrix::default(), HvMatrix::default());
            set.unbind_all_but_batch(&queries, &estimates, keep, &mut out, &mut scratch)
                .unwrap();
            for (q, t) in tuples.iter().enumerate() {
                let mut scalar = Hypervector::from_values(queries.row(q).to_vec());
                for f in (0..3).filter(|&f| f != keep) {
                    let est = set.factor(f).unwrap().vector(t[f]).unwrap();
                    scalar = ops::hadamard_bind(&scalar, &est).unwrap();
                }
                assert_eq!(out.row(q), scalar.values(), "keep {keep} row {q}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn prop_brute_force_search_matches_f32_scan(
            seed in 0u64..1_000_000,
            large in 0u8..=1,
            duplicates in 0u8..=1,
            noise in 0.0f64..0.45,
        ) {
            let mut r = rng(seed);
            // 60 and 24,300 product rows: one cache block and many.
            let (sizes, dim): (&[usize], usize) = if large == 1 {
                (&[9, 9, 5, 6, 10], 64)
            } else {
                (&[3, 4, 5], 64)
            };
            let mut set = CodebookSet::random(sizes, dim, BindingOp::Hadamard, &mut r);
            if duplicates == 1 {
                // Repeat a codevector in the first and last factors, so distinct rows
                // hold identical planes and every query meets exact ties.
                let codebooks = set
                    .codebooks()
                    .iter()
                    .enumerate()
                    .map(|(f, cb)| {
                        let mut rows: Vec<Hypervector> =
                            (0..cb.len()).map(|i| cb.vector(i).unwrap()).collect();
                        if f == 0 || f + 1 == sizes.len() {
                            rows[cb.len() - 1] = rows[0].clone();
                        }
                        Codebook::new(cb.name(), rows).unwrap()
                    })
                    .collect();
                set = CodebookSet::new(codebooks, BindingOp::Hadamard).unwrap();
            }
            let product = ProductCodebook::expand(&set).unwrap();
            prop_assert_eq!(product.len(), sizes.iter().product::<usize>());

            let mut queries = Vec::new();
            for _ in 0..4 {
                let t: Vec<usize> = sizes.iter().map(|&m| r.gen_range(0..m)).collect();
                let clean = set.bind_indices(&t).unwrap();
                queries.push(ops::flip_noise(&clean, noise, &mut r));
                queries.push(clean);
            }
            queries.push(Hypervector::random_bipolar(dim, &mut r));
            // A clean query on the last first-factor codevector: with duplicates it
            // ties exactly with its copy in row block 0, which must win.
            let mut tied: Vec<usize> = sizes.iter().map(|&m| r.gen_range(0..m)).collect();
            tied[0] = sizes[0] - 1;
            queries.push(set.bind_indices(&tied).unwrap());
            let expected = f32_product_scan(&set, &queries);
            let tie_winner = expected.last().unwrap().0[0];
            prop_assert_eq!(tie_winner, if duplicates == 1 { 0 } else { sizes[0] - 1 });
            for (q, (query, (want, want_sim))) in queries.iter().zip(&expected).enumerate() {
                let (found, sim) = product.brute_force_search(query).unwrap();
                prop_assert!(&found == want, "query {}: {:?} vs {:?}", q, found, want);
                prop_assert!((sim - want_sim).abs() < 1e-6, "query {}: {} vs {}", q, sim, want_sim);
            }
        }
    }

    proptest! {
        #[test]
        fn prop_bind_then_factor_search_recovers_indices(seed in 0u64..100) {
            let mut r = rng(seed);
            let set = CodebookSet::random(&[3, 3, 3], 512, BindingOp::Hadamard, &mut r);
            let idx = [
                (seed % 3) as usize,
                ((seed / 3) % 3) as usize,
                ((seed / 9) % 3) as usize,
            ];
            let q = set.bind_indices(&idx).unwrap();
            let product = ProductCodebook::expand(&set).unwrap();
            let (found, sim) = product.brute_force_search(&q).unwrap();
            prop_assert_eq!(found, idx.to_vec());
            prop_assert!(sim > 0.99);
        }

        #[test]
        fn prop_codebook_vectors_quasi_orthogonal(seed in 0u64..50) {
            let mut r = rng(seed);
            let cb = Codebook::random("c", 8, 2048, &mut r);
            for i in 0..cb.len() {
                for j in 0..cb.len() {
                    let sim = ops::cosine_similarity(&cb.vector(i).unwrap(), &cb.vector(j).unwrap());
                    if i == j {
                        prop_assert!((sim - 1.0).abs() < 1e-5);
                    } else {
                        prop_assert!(sim.abs() < 0.15);
                    }
                }
            }
        }
    }
}
