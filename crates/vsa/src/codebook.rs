//! Symbolic knowledge codebooks.
//!
//! The paper (Sec. II-C, III-C) identifies the *symbolic knowledge codebook* — the set
//! of vectors representing every attribute combination — as the dominant memory cost of
//! VSA-based neurosymbolic systems (tens to hundreds of MB), and Sec. IV replaces it
//! with per-attribute codebooks plus iterative factorization. This module provides both
//! representations so the memory/latency comparison of Fig. 8 can be reproduced.

use crate::batch::{HvMatrix, ReferenceBackend, VsaBackend};
use crate::error::VsaError;
use crate::hypervector::Hypervector;
use crate::ops;
use crate::packed::{BitMatrix, CleanupIndex, CleanupScratch, CLEANUP_INDEX_MIN_ROWS};
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
/// use cogsys_vsa::Codebook;
/// let mut rng = cogsys_vsa::rng(0);
/// let cb = Codebook::random("color", 8, 256, &mut rng);
/// assert_eq!(cb.len(), 8);
/// assert_eq!(cb.dim(), 256);
/// // Cleanup finds the exact codevector.
/// let (idx, sim) = cb.cleanup(cb.vector(5).unwrap()).unwrap();
/// assert_eq!(idx, 5);
/// assert!(sim > 0.99);
/// ```
///
/// The storage is immutable after construction and shared behind [`Arc`]s, so a
/// clone (e.g. the same attribute codebook in a solver's full set, in its
/// per-block sets and in every degraded serving rung) is a refcount, not a copy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Codebook {
    name: String,
    vectors: Arc<[Hypervector]>,
    /// Contiguous row-major copy of `vectors` — the similarity-search operand the
    /// batched backends consume (one GEMV/GEMM row per codevector).
    matrix: Arc<HvMatrix>,
    /// Bit-packed sign planes of `matrix`, cached once at construction when every
    /// codevector is exactly bipolar (`None` otherwise). The packed similarity and
    /// cleanup fast paths read this instead of re-packing per call.
    packed: Option<Arc<BitMatrix>>,
    /// Pruned exact top-1 Hamming index over `packed`, built at construction for
    /// codebooks of at least [`CLEANUP_INDEX_MIN_ROWS`] rows — the sub-linear
    /// cleanup path for production-scale item memories. `None` for small codebooks
    /// (the linear scan is faster there) and for non-bipolar codebooks.
    index: Option<Arc<CleanupIndex>>,
}

/// Builds the cleanup index when the packed planes exist and are large enough for
/// the indexed scan to beat the linear one.
fn build_cleanup_index(packed: Option<&BitMatrix>) -> Option<CleanupIndex> {
    packed
        .filter(|p| p.rows() >= CLEANUP_INDEX_MIN_ROWS)
        .map(CleanupIndex::build)
}

impl Codebook {
    /// Derives the matrix, sign planes and cleanup index of `vectors` (which
    /// share one dimension) and moves everything into shared storage.
    fn from_rows(name: String, vectors: Vec<Hypervector>, matrix: HvMatrix) -> Self {
        let packed = BitMatrix::from_matrix(&matrix);
        let index = build_cleanup_index(packed.as_ref());
        Self {
            name,
            vectors: vectors.into(),
            matrix: Arc::new(matrix),
            packed: packed.map(Arc::new),
            index: index.map(Arc::new),
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
        let matrix = HvMatrix::from_rows(&vectors)?;
        Ok(Self::from_rows(name.into(), vectors, matrix))
    }

    /// Generates a codebook of `size` random bipolar codevectors of dimension `dim`.
    pub fn random<R: Rng + ?Sized>(
        name: impl Into<String>,
        size: usize,
        dim: usize,
        rng: &mut R,
    ) -> Self {
        let vectors: Vec<Hypervector> = (0..size)
            .map(|_| Hypervector::random_bipolar(dim, rng))
            .collect();
        let matrix = HvMatrix::from_rows(&vectors).expect("generated rows share a dimension");
        Self::from_rows(name.into(), vectors, matrix)
    }

    /// The attribute name this codebook represents (e.g. `"color"`, `"size"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of codevectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Returns `true` if the codebook holds no codevectors (cannot happen via [`Codebook::new`]).
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Dimensionality of the codevectors.
    pub fn dim(&self) -> usize {
        self.vectors.first().map_or(0, Hypervector::dim)
    }

    /// Returns the codevector at `index`.
    ///
    /// # Errors
    /// Returns [`VsaError::IndexOutOfRange`] when `index >= len()`.
    pub fn vector(&self, index: usize) -> Result<&Hypervector, VsaError> {
        self.vectors.get(index).ok_or(VsaError::IndexOutOfRange {
            index,
            len: self.vectors.len(),
        })
    }

    /// Iterates over the codevectors.
    pub fn iter(&self) -> std::slice::Iter<'_, Hypervector> {
        self.vectors.iter()
    }

    /// Returns all codevectors as a slice (rows of the similarity-search matrix).
    pub fn as_slice(&self) -> &[Hypervector] {
        &self.vectors
    }

    /// The codevectors as one contiguous row-major matrix (`len() × dim()`), the
    /// operand shape the [`VsaBackend`] batch kernels consume.
    pub fn matrix(&self) -> &HvMatrix {
        &self.matrix
    }

    /// The bit-packed sign planes of the codebook, cached at construction — `Some`
    /// exactly when every codevector is bipolar. Packed-aware layers use this to skip
    /// re-packing the codebook on every similarity/cleanup call.
    pub fn packed(&self) -> Option<&BitMatrix> {
        self.packed.as_deref()
    }

    /// The cleanup index over the packed sign planes, built at construction for
    /// bipolar codebooks of at least [`CLEANUP_INDEX_MIN_ROWS`] rows.
    pub fn cleanup_index(&self) -> Option<&CleanupIndex> {
        self.index.as_deref()
    }

    /// Removes (and returns) the cleanup index, forcing every subsequent cleanup
    /// through the linear packed scan — the measurement / decision-identity knob the
    /// index-vs-linear tests and benches use. Other clones of this codebook keep
    /// their index; the returned one is copied out if they still share it.
    pub fn clear_cleanup_index(&mut self) -> Option<CleanupIndex> {
        self.index.take().map(Arc::unwrap_or_clone)
    }

    /// Similarity of `query` against every codevector (one GEMV on the accelerator).
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] if the query dimension differs.
    pub fn similarities(&self, query: &Hypervector) -> Result<Vec<f32>, VsaError> {
        self.similarities_with(&ReferenceBackend, query)
    }

    /// [`Codebook::similarities`] through an explicit backend.
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] if the query dimension differs.
    pub fn similarities_with(
        &self,
        backend: &dyn VsaBackend,
        query: &Hypervector,
    ) -> Result<Vec<f32>, VsaError> {
        let queries = HvMatrix::from_hypervector(query);
        Ok(self.similarities_batch(backend, &queries)?.into_vec())
    }

    /// Similarities of a whole batch of queries: `out[q][m] = queries[q] · code[m]`
    /// (a GEMM on the accelerator).
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] if the query dimension differs.
    pub fn similarities_batch(
        &self,
        backend: &dyn VsaBackend,
        queries: &HvMatrix,
    ) -> Result<HvMatrix, VsaError> {
        if let (Some(packed_backend), Some(packed_cb)) = (backend.as_packed(), &self.packed) {
            if queries.dim() == self.dim() {
                if let Some(packed_q) = BitMatrix::from_matrix(queries) {
                    let mut out = HvMatrix::default();
                    packed_backend.similarity_matrix_packed_into(packed_cb, &packed_q, &mut out);
                    return Ok(out);
                }
            }
        }
        backend.similarity_matrix(&self.matrix, queries)
    }

    /// Cleanup memory: returns the index and cosine similarity of the best-matching
    /// codevector.
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] if the query dimension differs.
    pub fn cleanup(&self, query: &Hypervector) -> Result<(usize, f32), VsaError> {
        self.cleanup_with(&ReferenceBackend, query)
    }

    /// [`Codebook::cleanup`] through an explicit backend.
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] if the query dimension differs.
    pub fn cleanup_with(
        &self,
        backend: &dyn VsaBackend,
        query: &Hypervector,
    ) -> Result<(usize, f32), VsaError> {
        let queries = HvMatrix::from_hypervector(query);
        let mut results = self.cleanup_batch(backend, &queries)?;
        Ok(results.pop().expect("one query row yields one result"))
    }

    /// Batched cleanup of many queries at once. Bipolar queries on a packed
    /// backend are packed once and take [`Codebook::cleanup_batch_bits_into`];
    /// anything else runs the backend's dense cleanup.
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] if the query dimension differs.
    pub fn cleanup_batch(
        &self,
        backend: &dyn VsaBackend,
        queries: &HvMatrix,
    ) -> Result<Vec<(usize, f32)>, VsaError> {
        if backend.as_packed().is_some() {
            if let Some(bits) = BitMatrix::from_matrix(queries) {
                return self.cleanup_batch_bits(backend, &bits);
            }
        }
        backend.cleanup_batch(&self.matrix, queries)
    }

    /// Batched cleanup of **bit-packed** queries; the allocating form of
    /// [`Codebook::cleanup_batch_bits_into`].
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] if the query dimension differs.
    pub fn cleanup_batch_bits(
        &self,
        backend: &dyn VsaBackend,
        queries: &BitMatrix,
    ) -> Result<Vec<(usize, f32)>, VsaError> {
        let mut out = Vec::new();
        self.cleanup_batch_bits_into(backend, queries, &mut CleanupScratch::default(), &mut out)?;
        Ok(out)
    }

    /// The cleanup router: every codebook cleanup ends here. With a packed backend
    /// and cached sign planes the queries hit the popcount kernel directly — the
    /// pruned [`CleanupIndex`] scan when the codebook carries one, else the linear
    /// packed scan — with no per-call packing on either operand. Other backends
    /// (and non-bipolar codebooks) unpack the queries and run their dense cleanup.
    /// Results land in `out` and intermediate state in `scratch`, so the
    /// steady-state serving path allocates nothing; the three kernels return
    /// identical results.
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] if the query dimension differs.
    pub fn cleanup_batch_bits_into(
        &self,
        backend: &dyn VsaBackend,
        queries: &BitMatrix,
        scratch: &mut CleanupScratch,
        out: &mut Vec<(usize, f32)>,
    ) -> Result<(), VsaError> {
        if let (Some(packed_backend), Some(packed_cb)) = (backend.as_packed(), &self.packed) {
            if queries.dim() == self.dim() {
                match &self.index {
                    Some(index) => {
                        packed_backend.cleanup_batch_indexed_into(index, queries, scratch, out)
                    }
                    None => {
                        packed_backend.cleanup_batch_packed_into(packed_cb, queries, scratch, out)
                    }
                }
                return Ok(());
            }
        }
        let mut dense = HvMatrix::default();
        queries.unpack_into(&mut dense);
        *out = backend.cleanup_batch(&self.matrix, &dense)?;
        Ok(())
    }

    /// Similarities of a batch of **bit-packed** queries (the packed analogue of
    /// [`Codebook::similarities_batch`]): `out[q][m] = queries[q] · code[m]`, exact
    /// integer dot products via popcount when both sides are sign planes.
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] if the query dimension differs.
    pub fn similarities_batch_bits(
        &self,
        backend: &dyn VsaBackend,
        queries: &BitMatrix,
    ) -> Result<HvMatrix, VsaError> {
        if let (Some(packed_backend), Some(packed_cb)) = (backend.as_packed(), &self.packed) {
            if queries.dim() == self.dim() {
                let mut out = HvMatrix::default();
                packed_backend.similarity_matrix_packed_into(packed_cb, queries, &mut out);
                return Ok(out);
            }
        }
        let mut dense = HvMatrix::default();
        queries.unpack_into(&mut dense);
        backend.similarity_matrix(&self.matrix, &dense)
    }

    /// Memory footprint of the codebook in bytes assuming `bytes_per_element` storage.
    pub fn footprint_bytes(&self, bytes_per_element: usize) -> usize {
        self.len() * self.dim() * bytes_per_element
    }
}

impl<'a> IntoIterator for &'a Codebook {
    type Item = &'a Hypervector;
    type IntoIter = std::slice::Iter<'a, Hypervector>;

    fn into_iter(self) -> Self::IntoIter {
        self.vectors.iter()
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

    /// Removes the cleanup index from every factor codebook (see
    /// [`Codebook::clear_cleanup_index`]), forcing subsequent cleanups through the
    /// linear packed scan — the indexed-vs-linear comparison knob.
    pub fn clear_cleanup_indexes(&mut self) {
        for cb in &mut self.codebooks {
            cb.clear_cleanup_index();
        }
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

    /// Total number of attribute combinations `Π_f M_f`.
    pub fn combinations(&self) -> usize {
        self.codebooks.iter().map(Codebook::len).product()
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
        let mut product = self.codebooks[0].vector(indices[0])?.clone();
        for (cb, &idx) in self.codebooks.iter().zip(indices).skip(1) {
            let v = cb.vector(idx)?;
            product = match self.binding {
                BindingOp::Hadamard => ops::hadamard_bind(&product, v)?,
                BindingOp::CircularConvolution => ops::try_circular_convolve(&product, v)?,
            };
        }
        Ok(product)
    }

    /// Unbinds all factors except `keep` from `query` using the current factor estimates.
    ///
    /// This is Step 1 of the factorization procedure (Fig. 8): `x̃_i = q ⊘ Π_{f≠i} x̂_f`.
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] if `estimates.len() != num_factors()` or
    /// if any estimate dimension differs from the query.
    pub fn unbind_all_but(
        &self,
        query: &Hypervector,
        estimates: &[Hypervector],
        keep: usize,
    ) -> Result<Hypervector, VsaError> {
        if estimates.len() != self.codebooks.len() {
            return Err(VsaError::DimensionMismatch {
                left: self.codebooks.len(),
                right: estimates.len(),
            });
        }
        let mut result = query.clone();
        for (f, est) in estimates.iter().enumerate() {
            if f == keep {
                continue;
            }
            result = match self.binding {
                BindingOp::Hadamard => ops::hadamard_unbind(&result, est)?,
                BindingOp::CircularConvolution => ops::try_circular_correlate(&result, est)?,
            };
        }
        Ok(result)
    }

    /// Batched [`CodebookSet::unbind_all_but`]: row `q` of the result unbinds every
    /// factor's estimate except `keep` from `queries` row `q`. `estimates[f]` holds the
    /// current estimate of factor `f` for every query (`queries.rows() × dim()`).
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] on arity or shape mismatches.
    pub fn unbind_all_but_batch(
        &self,
        backend: &dyn VsaBackend,
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
            backend.unbind_batch_into(out, est, self.binding, scratch)?;
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

    /// Memory footprint the *expanded* product codebook would need (Fig. 8 comparison).
    pub fn product_footprint_bytes(&self, bytes_per_element: usize) -> usize {
        self.combinations() * self.dim() * bytes_per_element
    }
}

/// The fully expanded product codebook — the baseline the paper's factorization removes.
///
/// Holds one product vector for every attribute combination, in lexicographic order of
/// the factor indices. Only practical for small combination counts; the constructor
/// refuses to materialise more than [`ProductCodebook::MAX_COMBINATIONS`] vectors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProductCodebook {
    vectors: Vec<Hypervector>,
    index_map: Vec<Vec<usize>>,
    factor_sizes: Vec<usize>,
}

impl ProductCodebook {
    /// Refuse to expand product spaces larger than this (memory guard).
    pub const MAX_COMBINATIONS: usize = 1 << 22;

    /// Expands a [`CodebookSet`] into its full product codebook.
    ///
    /// # Errors
    /// Returns [`VsaError::InvalidParameter`] if the combination count exceeds
    /// [`Self::MAX_COMBINATIONS`].
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
        let factor_sizes: Vec<usize> = set.codebooks().iter().map(Codebook::len).collect();
        let mut vectors = Vec::with_capacity(total);
        let mut index_map = Vec::with_capacity(total);
        let mut indices = vec![0usize; factor_sizes.len()];
        for _ in 0..total {
            vectors.push(set.bind_indices(&indices)?);
            index_map.push(indices.clone());
            // Advance the mixed-radix counter (last factor fastest).
            for f in (0..indices.len()).rev() {
                indices[f] += 1;
                if indices[f] < factor_sizes[f] {
                    break;
                }
                indices[f] = 0;
            }
        }
        Ok(Self {
            vectors,
            index_map,
            factor_sizes,
        })
    }

    /// Number of product vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Returns `true` if the codebook holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// The per-factor codebook sizes this product space was built from.
    pub fn factor_sizes(&self) -> &[usize] {
        &self.factor_sizes
    }

    /// Brute-force search: returns the factor indices of the best-matching product
    /// vector together with its cosine similarity.
    ///
    /// This is the operation whose cost (both memory and latency) the CogSys
    /// factorization strategy replaces.
    ///
    /// # Errors
    /// Returns [`VsaError::Empty`] for an empty codebook and
    /// [`VsaError::DimensionMismatch`] for a query of the wrong dimension.
    pub fn brute_force_search(&self, query: &Hypervector) -> Result<(Vec<usize>, f32), VsaError> {
        if self.vectors.is_empty() {
            return Err(VsaError::Empty {
                what: "product codebook",
            });
        }
        let mut best = (0usize, f32::NEG_INFINITY);
        for (i, v) in self.vectors.iter().enumerate() {
            let sim = ops::try_cosine_similarity(v, query)?;
            if sim > best.1 {
                best = (i, sim);
            }
        }
        Ok((self.index_map[best.0].clone(), best.1))
    }

    /// Memory footprint in bytes assuming `bytes_per_element` storage.
    pub fn footprint_bytes(&self, bytes_per_element: usize) -> usize {
        self.vectors.len() * self.vectors.first().map_or(0, Hypervector::dim) * bytes_per_element
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

    #[test]
    fn cleanup_recovers_noisy_codevector() {
        let mut r = rng(20);
        let cb = Codebook::random("type", 16, 1024, &mut r);
        let noisy = ops::flip_noise(cb.vector(7).unwrap(), 0.2, &mut r);
        let (idx, sim) = cb.cleanup(&noisy).unwrap();
        assert_eq!(idx, 7);
        assert!(sim > 0.4);
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
    fn cleanup_index_built_only_for_large_codebooks() {
        let mut r = rng(29);
        let small = Codebook::random("small", CLEANUP_INDEX_MIN_ROWS - 1, 256, &mut r);
        assert!(small.cleanup_index().is_none());
        let large = Codebook::random("large", CLEANUP_INDEX_MIN_ROWS, 256, &mut r);
        assert!(large.cleanup_index().is_some());
        assert_eq!(
            large.cleanup_index().unwrap().rows(),
            CLEANUP_INDEX_MIN_ROWS
        );
    }

    #[test]
    fn cleanup_router_index_linear_and_dense_kernels_agree() {
        use crate::packed::PackedBackend;
        let mut r = rng(30);
        let mut cb = Codebook::random("large", 600, 512, &mut r);
        assert!(cb.cleanup_index().is_some());
        // Perturbed codevectors as queries: the production cleanup regime.
        let queries: Vec<Hypervector> = (0..5)
            .map(|i| ops::flip_noise(cb.vector(i * 100).unwrap(), 0.02, &mut r))
            .collect();
        let dense = HvMatrix::from_rows(&queries).unwrap();
        let bits = BitMatrix::from_matrix(&dense).unwrap();
        let backend = PackedBackend::new();

        let indexed = cb.cleanup_batch(&backend, &dense).unwrap();
        let indexed_bits = cb.cleanup_batch_bits(&backend, &bits).unwrap();
        let mut scratch = CleanupScratch::default();
        let mut indexed_into = Vec::new();
        cb.cleanup_batch_bits_into(&backend, &bits, &mut scratch, &mut indexed_into)
            .unwrap();

        assert!(cb.clear_cleanup_index().is_some());
        assert!(cb.cleanup_index().is_none());
        let linear = cb.cleanup_batch(&backend, &dense).unwrap();
        let mut linear_into = Vec::new();
        cb.cleanup_batch_bits_into(&backend, &bits, &mut scratch, &mut linear_into)
            .unwrap();

        // The router's third kernel: a backend without a packed fast path runs
        // its dense cleanup on the unpacked queries.
        let mut dense_into = Vec::new();
        cb.cleanup_batch_bits_into(&ReferenceBackend, &bits, &mut scratch, &mut dense_into)
            .unwrap();

        assert_eq!(indexed, linear);
        assert_eq!(indexed_bits, linear);
        assert_eq!(indexed_into, linear);
        assert_eq!(linear_into, linear);
        for (q, ((idx, sim), (dense_idx, dense_sim))) in linear.iter().zip(&dense_into).enumerate()
        {
            assert_eq!(*idx, q * 100, "query {q} should recover its source row");
            assert_eq!(idx, dense_idx, "query {q}");
            assert!((sim - dense_sim).abs() < 1e-4, "query {q}");
        }
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

    #[test]
    fn unbind_all_but_recovers_factor_hadamard() {
        let mut r = rng(25);
        let set = CodebookSet::random(&[4, 4, 4], 512, BindingOp::Hadamard, &mut r);
        let product = set.bind_indices(&[1, 2, 3]).unwrap();
        // With the true codevectors of the other factors as estimates, unbinding exactly
        // recovers the kept factor (bipolar Hadamard binding is exactly invertible).
        let estimates = vec![
            set.factor(0).unwrap().vector(1).unwrap().clone(),
            set.factor(1).unwrap().vector(2).unwrap().clone(),
            set.factor(2).unwrap().vector(3).unwrap().clone(),
        ];
        let recovered = set.unbind_all_but(&product, &estimates, 1).unwrap();
        let (idx, sim) = set.factor(1).unwrap().cleanup(&recovered).unwrap();
        assert_eq!(idx, 2);
        assert!(sim > 0.99);
    }

    #[test]
    fn unbind_all_but_recovers_factor_circular() {
        let mut r = rng(26);
        let set = CodebookSet::random(&[4, 4], 1024, BindingOp::CircularConvolution, &mut r);
        let product = set.bind_indices(&[3, 1]).unwrap();
        let estimates = vec![
            set.factor(0).unwrap().vector(3).unwrap().clone(),
            set.factor(1).unwrap().vector(1).unwrap().clone(),
        ];
        let recovered = set.unbind_all_but(&product, &estimates, 1).unwrap();
        let (idx, sim) = set.factor(1).unwrap().cleanup(&recovered).unwrap();
        assert_eq!(idx, 1);
        assert!(sim > 0.3, "similarity {sim}");
    }

    #[test]
    fn product_codebook_expansion_and_search() {
        let mut r = rng(27);
        let set = CodebookSet::random(&[3, 4], 256, BindingOp::Hadamard, &mut r);
        let product = ProductCodebook::expand(&set).unwrap();
        assert_eq!(product.len(), 12);
        assert_eq!(product.factor_sizes(), &[3, 4]);
        let query = set.bind_indices(&[2, 1]).unwrap();
        let (indices, sim) = product.brute_force_search(&query).unwrap();
        assert_eq!(indices, vec![2, 1]);
        assert!(sim > 0.99);
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
    fn backend_similarities_match_scalar_path() {
        use crate::batch::BackendKind;
        let mut r = rng(61);
        let cb = Codebook::random("s", 10, 256, &mut r);
        let query = ops::flip_noise(cb.vector(4).unwrap(), 0.2, &mut r);
        let scalar = cb.similarities(&query).unwrap();
        let scalar_cleanup = cb.cleanup(&query).unwrap();
        for kind in BackendKind::ALL {
            let backend = kind.create();
            let sims = cb.similarities_with(backend.as_ref(), &query).unwrap();
            for (x, y) in sims.iter().zip(&scalar) {
                assert!((x - y).abs() < 1e-3, "{kind}: {x} vs {y}");
            }
            let (idx, sim) = cb.cleanup_with(backend.as_ref(), &query).unwrap();
            assert_eq!(idx, scalar_cleanup.0, "{kind}");
            assert!((sim - scalar_cleanup.1).abs() < 1e-4, "{kind}");
        }
    }

    #[test]
    fn cleanup_batch_bits_matches_dense_queries() {
        use crate::batch::BackendKind;
        let mut r = rng(64);
        let cb = Codebook::random("bits", 10, 260, &mut r);
        let queries: Vec<Hypervector> = (0..5)
            .map(|i| ops::flip_noise(cb.vector(i).unwrap(), 0.2, &mut r))
            .collect();
        let qm = HvMatrix::from_rows(&queries).unwrap();
        let bits = BitMatrix::from_matrix(&qm).expect("flip noise keeps queries bipolar");
        // A non-bipolar codebook has no sign planes, so packed queries take the
        // unpacking fallback on every backend, the packed one included.
        let real_cb = Codebook::new(
            "real",
            (0..4)
                .map(|_| Hypervector::random_real(260, &mut r))
                .collect(),
        )
        .unwrap();
        assert!(real_cb.packed().is_none());
        for kind in BackendKind::ALL {
            let backend = kind.create();
            for codebook in [&cb, &real_cb] {
                assert_eq!(
                    codebook
                        .cleanup_batch_bits(backend.as_ref(), &bits)
                        .unwrap(),
                    codebook.cleanup_batch(backend.as_ref(), &qm).unwrap(),
                    "{kind}"
                );
                assert_eq!(
                    codebook
                        .similarities_batch_bits(backend.as_ref(), &bits)
                        .unwrap(),
                    codebook.similarities_batch(backend.as_ref(), &qm).unwrap(),
                    "{kind}"
                );
            }
        }
        assert!(CodebookSet::new(vec![cb], BindingOp::Hadamard)
            .unwrap()
            .all_packed());
    }

    #[test]
    fn unbind_all_but_batch_matches_scalar_unbind() {
        use crate::batch::{BackendKind, HvMatrix};
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
            for kind in BackendKind::ALL {
                let backend = kind.create();
                let (mut out, mut scratch) = (HvMatrix::default(), HvMatrix::default());
                set.unbind_all_but_batch(
                    backend.as_ref(),
                    &queries,
                    &estimates,
                    keep,
                    &mut out,
                    &mut scratch,
                )
                .unwrap();
                for (q, t) in tuples.iter().enumerate() {
                    let est: Vec<Hypervector> = (0..3)
                        .map(|f| set.factor(f).unwrap().vector(t[f]).unwrap().clone())
                        .collect();
                    let scalar = set
                        .unbind_all_but(
                            &queries.row_hypervector(q, crate::VsaKind::Dense).unwrap(),
                            &est,
                            keep,
                        )
                        .unwrap();
                    assert_eq!(out.row(q), scalar.values(), "{kind} keep {keep} row {q}");
                }
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
                    let sim = ops::cosine_similarity(cb.vector(i).unwrap(), cb.vector(j).unwrap());
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
