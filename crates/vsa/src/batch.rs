//! Batched VSA execution engine.
//!
//! The paper's performance story (Sec. IV–VI) treats circular convolution, similarity
//! search and bundling as *batch* kernels mapped onto a shared compute array. This
//! module is the software seam for that view: a contiguous row-major matrix of
//! hypervectors ([`HvMatrix`]), the one `f32` kernel set over it, and the route
//! probe ([`VsaBackend`]) that picks between those kernels and the sign planes.
//!
//! * [`ReferenceBackend`] — the `f32` kernels (batched binding/unbinding,
//!   codebook-vs-queries similarity GEMM, weighted projection and cleanup) as
//!   inherent methods, row at a time through [`crate::ops`];
//! * [`PackedBackend`] (the default) — popcount kernels over bit-packed sign planes
//!   ([`crate::packed::BitMatrix`]) for the bipolar MAP/Hadamard algebra, reached
//!   through [`VsaBackend::as_packed`].
//!
//! Backend compatibility contract: operands without sign planes (circular binding,
//! non-bipolar codebooks or queries) run the `f32` kernels on every backend, so
//! their results are bitwise identical across backends. The sign-plane kernels
//! reproduce the `f32` kernels exactly where the bit-packed algebra applies, and
//! their cleanup cosines agree with them within **1e-4**.

use crate::codebook::BindingOp;
use crate::error::VsaError;
use crate::hypervector::Hypervector;
use crate::ops;
use crate::packed::PackedBackend;
use std::sync::Arc;

/// A dense, row-major, contiguous batch of `rows` hypervectors of dimension `dim`.
///
/// This is the storage layout the accelerator's SRAM model assumes and the unit of
/// work every [`VsaBackend`] operation consumes: one row per hypervector, rows packed
/// back to back in a single `Vec<f32>`.
///
/// # Example
/// ```
/// use cogsys_vsa::batch::HvMatrix;
/// use cogsys_vsa::Hypervector;
///
/// let rows = vec![
///     Hypervector::from_values(vec![1.0, 2.0]),
///     Hypervector::from_values(vec![3.0, 4.0]),
/// ];
/// let m = HvMatrix::from_rows(&rows).unwrap();
/// assert_eq!((m.rows(), m.dim()), (2, 2));
/// assert_eq!(m.row(1), &[3.0, 4.0]);
/// assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HvMatrix {
    data: Vec<f32>,
    rows: usize,
    dim: usize,
}

impl HvMatrix {
    /// Creates a zero-filled matrix.
    pub fn zeros(rows: usize, dim: usize) -> Self {
        Self {
            data: vec![0.0; rows * dim],
            rows,
            dim,
        }
    }

    /// Wraps an existing contiguous buffer.
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] when `data.len() != rows * dim`.
    pub fn from_vec(data: Vec<f32>, rows: usize, dim: usize) -> Result<Self, VsaError> {
        if data.len() != rows * dim {
            return Err(VsaError::DimensionMismatch {
                left: data.len(),
                right: rows * dim,
            });
        }
        Ok(Self { data, rows, dim })
    }

    /// Packs a slice of hypervectors into a contiguous matrix (one row each).
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] if the vectors disagree in dimension.
    /// An empty slice yields the empty `0 × 0` matrix.
    pub fn from_rows(rows: &[Hypervector]) -> Result<Self, VsaError> {
        let Some(first) = rows.first() else {
            return Ok(Self::default());
        };
        let dim = first.dim();
        let mut data = Vec::with_capacity(rows.len() * dim);
        for hv in rows {
            if hv.dim() != dim {
                return Err(VsaError::DimensionMismatch {
                    left: dim,
                    right: hv.dim(),
                });
            }
            data.extend_from_slice(hv.values());
        }
        Ok(Self {
            data,
            rows: rows.len(),
            dim,
        })
    }

    /// A single-row matrix holding a copy of `hv`.
    pub fn from_hypervector(hv: &Hypervector) -> Self {
        Self {
            data: hv.values().to_vec(),
            rows: 1,
            dim: hv.dim(),
        }
    }

    /// A matrix whose every row is a copy of `hv`.
    pub fn broadcast(hv: &Hypervector, rows: usize) -> Self {
        let mut data = Vec::with_capacity(rows * hv.dim());
        for _ in 0..rows {
            data.extend_from_slice(hv.values());
        }
        Self {
            data,
            rows,
            dim: hv.dim(),
        }
    }

    /// Number of rows (hypervectors).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Dimensionality of each row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Returns `true` when the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The whole matrix as one contiguous slice, row-major.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the contiguous storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    /// Panics when `i >= rows()`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutable row `i`.
    ///
    /// # Panics
    /// Panics when `i >= rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Iterates over the rows as slices.
    pub fn row_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.dim.max(1))
    }

    /// Reshapes the buffer to `rows × dim` for reuse as an output buffer (avoids
    /// reallocation when the capacity already suffices). Contents are preserved when
    /// the shape is unchanged and **zeroed on any shape change** — a plain `resize`
    /// would silently reinterpret stale elements under the new `(rows, dim)` layout.
    pub fn ensure_shape(&mut self, rows: usize, dim: usize) {
        if self.rows == rows && self.dim == dim {
            return;
        }
        // clear() drops the length to zero first, so resize() zero-fills everything.
        self.data.clear();
        self.data.resize(rows * dim, 0.0);
        self.rows = rows;
        self.dim = dim;
    }

    /// Selects `indices` rows into a new matrix (used to gather decoded codevectors).
    ///
    /// # Errors
    /// Returns [`VsaError::IndexOutOfRange`] on a bad row index.
    pub fn gather(&self, indices: &[usize]) -> Result<Self, VsaError> {
        let mut data = Vec::with_capacity(indices.len() * self.dim);
        for &i in indices {
            if i >= self.rows {
                return Err(VsaError::IndexOutOfRange {
                    index: i,
                    len: self.rows,
                });
            }
            data.extend_from_slice(self.row(i));
        }
        Ok(Self {
            data,
            rows: indices.len(),
            dim: self.dim,
        })
    }

    /// Copies `src` into `self`, reshaping as needed (allocation-free once warm).
    pub fn copy_from(&mut self, src: &Self) {
        self.ensure_shape(src.rows, src.dim);
        self.data.copy_from_slice(&src.data);
    }
}

/// Which [`VsaBackend`] implementation a pipeline runs on.
///
/// Threaded through `SolverConfig` / `FactorizerConfig` so backend selection reaches
/// every layer from `cogsys-core` down without plumbing trait objects through config
/// structs (configs stay `Clone + PartialEq + Serialize`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum BackendKind {
    /// Row-at-a-time ground truth ([`ReferenceBackend`]).
    Reference,
    /// Bit-packed bipolar execution ([`PackedBackend`]): codebook cleanups and
    /// similarities on cached sign planes, and the packed resonator for every
    /// Hadamard factorization with bipolar operands, at every precision.
    ///
    /// The **default**: every hot pipeline in the repository runs bipolar Hadamard
    /// configurations, where the packed kernels are exact and several times faster.
    /// HRR/circular-convolution and non-bipolar workloads run the
    /// [`ReferenceBackend`] kernels on it.
    #[default]
    Packed,
}

impl BackendKind {
    /// Every selectable backend.
    pub const ALL: [BackendKind; 2] = [BackendKind::Reference, BackendKind::Packed];

    /// Instantiates the backend this kind names.
    pub fn create(self) -> Arc<dyn VsaBackend> {
        match self {
            BackendKind::Reference => Arc::new(ReferenceBackend),
            BackendKind::Packed => Arc::new(PackedBackend),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::Reference => write!(f, "reference"),
            BackendKind::Packed => write!(f, "packed"),
        }
    }
}

fn check_same_shape(a: &HvMatrix, b: &HvMatrix) -> Result<(), VsaError> {
    if a.rows() != b.rows() {
        return Err(VsaError::DimensionMismatch {
            left: a.rows(),
            right: b.rows(),
        });
    }
    if a.dim() != b.dim() {
        return Err(VsaError::DimensionMismatch {
            left: a.dim(),
            right: b.dim(),
        });
    }
    Ok(())
}

/// The route probe every backend answers: whether it has a sign-plane fast path.
///
/// The factorizer probes [`VsaBackend::as_packed`] to pick its resonator engine:
/// the sign-plane kernels on the packed backend, else the one `f32` kernel set,
/// [`ReferenceBackend`]'s inherent methods.
pub trait VsaBackend: Send + Sync + std::fmt::Debug {
    /// The bit-packed bipolar fast path, when this backend has one. The default of
    /// `None` keeps dense backends on the `f32` kernels.
    fn as_packed(&self) -> Option<&PackedBackend> {
        None
    }
}

// ---------------------------------------------------------------------------
// Row kernels of the reference backend.
// ---------------------------------------------------------------------------

fn hadamard_row(a: &[f32], b: &[f32], out: &mut [f32]) {
    for ((slot, x), y) in out.iter_mut().zip(a).zip(b) {
        *slot = x * y;
    }
}

fn dot_row(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm_row(a: &[f32]) -> f32 {
    a.iter().map(|v| v * v).sum::<f32>().sqrt()
}

fn project_row(codebook: &HvMatrix, weights: &[f32], out: &mut [f32]) {
    out.fill(0.0);
    for (row, &w) in codebook.row_iter().zip(weights) {
        for (slot, v) in out.iter_mut().zip(row) {
            *slot += w * v;
        }
    }
}

fn cleanup_row(codebook: &HvMatrix, codebook_norms: &[f32], query: &[f32]) -> (usize, f32) {
    let q_norm = norm_row(query);
    let mut best = (0usize, f32::NEG_INFINITY);
    for (m, row) in codebook.row_iter().enumerate() {
        let denom = codebook_norms[m] * q_norm;
        let sim = if denom == 0.0 {
            0.0
        } else {
            dot_row(row, query) / denom
        };
        if sim > best.1 {
            best = (m, sim);
        }
    }
    best
}

fn check_gemm_shapes(codebook: &HvMatrix, queries: &HvMatrix) -> Result<(), VsaError> {
    if codebook.dim() != queries.dim() {
        return Err(VsaError::DimensionMismatch {
            left: codebook.dim(),
            right: queries.dim(),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Reference backend
// ---------------------------------------------------------------------------

/// The one `f32` kernel set: row at a time, straight through [`crate::ops`].
///
/// All kernels are *batch*-shaped: operands are [`HvMatrix`] values, the per-row
/// semantics exactly match the scalar functions in [`crate::ops`], and results land
/// in caller-owned buffers so steady-state callers allocate nothing. The f32
/// reference resonator and [`crate::CodebookSet::unbind_all_but_batch`] call them;
/// the sign-plane kernels are validated against them.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceBackend;

impl VsaBackend for ReferenceBackend {}

impl ReferenceBackend {
    /// Row-wise binding: `out[i] = bind(a[i], b[i])` under `op`, writing into `out`
    /// (reshaped as needed).
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] when `a` and `b` disagree in shape.
    pub fn bind_batch_into(
        &self,
        a: &HvMatrix,
        b: &HvMatrix,
        op: BindingOp,
        out: &mut HvMatrix,
    ) -> Result<(), VsaError> {
        check_same_shape(a, b)?;
        out.ensure_shape(a.rows(), a.dim());
        for i in 0..a.rows() {
            let (ra, rb) = (a.row(i), b.row(i));
            match op {
                BindingOp::Hadamard => hadamard_row(ra, rb, out.row_mut(i)),
                BindingOp::CircularConvolution => {
                    let bound = ops::try_circular_convolve(
                        &Hypervector::from_values(ra.to_vec()),
                        &Hypervector::from_values(rb.to_vec()),
                    )?;
                    out.row_mut(i).copy_from_slice(bound.values());
                }
            }
        }
        Ok(())
    }

    /// Row-wise unbinding, the approximate inverse of
    /// [`ReferenceBackend::bind_batch_into`] (`⊘` for Hadamard, circular correlation
    /// for convolution binding).
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] when `a` and `b` disagree in shape.
    pub fn unbind_batch_into(
        &self,
        a: &HvMatrix,
        b: &HvMatrix,
        op: BindingOp,
        out: &mut HvMatrix,
    ) -> Result<(), VsaError> {
        check_same_shape(a, b)?;
        out.ensure_shape(a.rows(), a.dim());
        for i in 0..a.rows() {
            let (ra, rb) = (a.row(i), b.row(i));
            match op {
                BindingOp::Hadamard => hadamard_row(ra, rb, out.row_mut(i)),
                BindingOp::CircularConvolution => {
                    let unbound = ops::try_circular_correlate(
                        &Hypervector::from_values(ra.to_vec()),
                        &Hypervector::from_values(rb.to_vec()),
                    )?;
                    out.row_mut(i).copy_from_slice(unbound.values());
                }
            }
        }
        Ok(())
    }

    /// GEMM-style similarity: `out[q][m] = queries[q] · codebook[m]`, with `out`
    /// reshaped to `queries.rows() × codebook.rows()`.
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] when the dimensionalities disagree.
    pub fn similarity_matrix_into(
        &self,
        codebook: &HvMatrix,
        queries: &HvMatrix,
        out: &mut HvMatrix,
    ) -> Result<(), VsaError> {
        check_gemm_shapes(codebook, queries)?;
        out.ensure_shape(queries.rows(), codebook.rows());
        for q in 0..queries.rows() {
            let query = queries.row(q);
            for (m, row) in codebook.row_iter().enumerate() {
                out.row_mut(q)[m] = dot_row(row, query);
            }
        }
        Ok(())
    }

    /// Batched weighted superposition (the factorizer's projection step):
    /// `out[q] = Σ_m weights[q][m] · codebook[m]`, with `out` reshaped to
    /// `weights.rows() × codebook.dim()`.
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] when `weights.dim() != codebook.rows()`
    /// and [`VsaError::Empty`] for an empty codebook.
    pub fn project_batch_into(
        &self,
        codebook: &HvMatrix,
        weights: &HvMatrix,
        out: &mut HvMatrix,
    ) -> Result<(), VsaError> {
        if codebook.rows() == 0 {
            return Err(VsaError::Empty { what: "codebook" });
        }
        if weights.dim() != codebook.rows() {
            return Err(VsaError::DimensionMismatch {
                left: weights.dim(),
                right: codebook.rows(),
            });
        }
        out.ensure_shape(weights.rows(), codebook.dim());
        for q in 0..weights.rows() {
            project_row(codebook, weights.row(q), out.row_mut(q));
        }
        Ok(())
    }

    /// Batched cleanup: for each query row, the index and cosine similarity of the
    /// best-matching codebook row (ties resolve to the first, zero-norm pairs score 0).
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] when the dimensionalities disagree and
    /// [`VsaError::Empty`] for an empty codebook.
    pub fn cleanup_batch(
        &self,
        codebook: &HvMatrix,
        queries: &HvMatrix,
    ) -> Result<Vec<(usize, f32)>, VsaError> {
        if codebook.rows() == 0 {
            return Err(VsaError::Empty { what: "codebook" });
        }
        check_gemm_shapes(codebook, queries)?;
        let norms: Vec<f32> = codebook.row_iter().map(norm_row).collect();
        Ok((0..queries.rows())
            .map(|q| cleanup_row(codebook, &norms, queries.row(q)))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    #[test]
    fn hv_matrix_round_trips_hypervectors() {
        let mut r = rng(1);
        let hvs: Vec<Hypervector> = (0..4)
            .map(|_| Hypervector::random_bipolar(16, &mut r))
            .collect();
        let m = HvMatrix::from_rows(&hvs).unwrap();
        assert_eq!(m.rows(), 4);
        assert_eq!(m.dim(), 16);
        for (orig, row) in hvs.iter().zip(m.row_iter()) {
            assert_eq!(orig.values(), row);
        }
    }

    #[test]
    fn hv_matrix_rejects_ragged_rows() {
        let bad = vec![Hypervector::zeros(4), Hypervector::zeros(8)];
        assert!(matches!(
            HvMatrix::from_rows(&bad),
            Err(VsaError::DimensionMismatch { .. })
        ));
        assert!(HvMatrix::from_vec(vec![0.0; 7], 2, 4).is_err());
    }

    #[test]
    fn hv_matrix_gather() {
        let m = HvMatrix::from_vec(vec![1.0, 2.0, 3.0, 4.0], 2, 2).unwrap();
        let g = m.gather(&[1, 0, 1]).unwrap();
        assert_eq!(g.rows(), 3);
        assert_eq!(g.row(0), &[3.0, 4.0]);
        assert_eq!(g.row(2), &[3.0, 4.0]);
        assert!(m.gather(&[2]).is_err());
    }

    #[test]
    fn bind_batch_matches_scalar_ops() {
        let mut r = rng(33);
        let a: Vec<Hypervector> = (0..3)
            .map(|_| Hypervector::random_bipolar(32, &mut r))
            .collect();
        let b: Vec<Hypervector> = (0..3)
            .map(|_| Hypervector::random_bipolar(32, &mut r))
            .collect();
        let ma = HvMatrix::from_rows(&a).unwrap();
        let mb = HvMatrix::from_rows(&b).unwrap();
        let mut bound = HvMatrix::default();
        ReferenceBackend
            .bind_batch_into(&ma, &mb, BindingOp::CircularConvolution, &mut bound)
            .unwrap();
        for i in 0..3 {
            let scalar = ops::circular_convolve(&a[i], &b[i]);
            assert_eq!(bound.row(i), scalar.values(), "row {i}");
        }
        ReferenceBackend
            .bind_batch_into(&ma, &mb, BindingOp::Hadamard, &mut bound)
            .unwrap();
        for i in 0..3 {
            let scalar = ops::hadamard_bind(&a[i], &b[i]).unwrap();
            assert_eq!(bound.row(i), scalar.values());
        }
    }

    #[test]
    fn similarity_matrix_matches_matvec() {
        let mut r = rng(34);
        let code: Vec<Hypervector> = (0..6)
            .map(|_| Hypervector::random_bipolar(64, &mut r))
            .collect();
        let query = Hypervector::random_bipolar(64, &mut r);
        let cb = HvMatrix::from_rows(&code).unwrap();
        let q = HvMatrix::from_hypervector(&query);
        let scalar = ops::matvec_similarity(&code, &query).unwrap();
        let mut sims = HvMatrix::default();
        ReferenceBackend
            .similarity_matrix_into(&cb, &q, &mut sims)
            .unwrap();
        for (x, y) in sims.row(0).iter().zip(&scalar) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn cleanup_batch_matches_scalar_cosine_argmax() {
        let mut r = rng(35);
        let cb = crate::Codebook::random("c", 12, 256, &mut r);
        let queries: Vec<Hypervector> = (0..5)
            .map(|i| ops::flip_noise(&cb.vector(i * 2).unwrap(), 0.15, &mut r))
            .collect();
        let qm = HvMatrix::from_rows(&queries).unwrap();
        let batch = ReferenceBackend.cleanup_batch(cb.matrix(), &qm).unwrap();
        for (q, hv) in queries.iter().enumerate() {
            let sims: Vec<f32> = cb
                .matrix()
                .row_iter()
                .map(|c| ops::cosine_slices(c, hv.values()))
                .collect();
            let idx = ops::argmax(&sims).unwrap();
            assert_eq!((batch[q].0, idx), (q * 2, q * 2), "query {q}");
            assert!((batch[q].1 - sims[idx]).abs() < 1e-4);
        }
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let backend = ReferenceBackend;
        let a = HvMatrix::zeros(2, 8);
        let b = HvMatrix::zeros(3, 8);
        let c = HvMatrix::zeros(2, 4);
        let mut out = HvMatrix::default();
        assert!(backend
            .bind_batch_into(&a, &b, BindingOp::Hadamard, &mut out)
            .is_err());
        assert!(backend
            .unbind_batch_into(&a, &c, BindingOp::Hadamard, &mut out)
            .is_err());
        assert!(backend.similarity_matrix_into(&c, &a, &mut out).is_err());
        assert!(backend.cleanup_batch(&HvMatrix::default(), &a).is_err());
        let w = HvMatrix::zeros(2, 5);
        assert!(backend.project_batch_into(&a, &w, &mut out).is_err());
    }

    #[test]
    fn ensure_shape_zeroes_stale_data_on_reshape() {
        // Regression: a populated buffer reshaped to a new (rows, dim) must not
        // reinterpret the old elements under the new row layout.
        let mut m = HvMatrix::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3).unwrap();
        m.ensure_shape(3, 2);
        assert_eq!((m.rows(), m.dim()), (3, 2));
        assert!(
            m.as_slice().iter().all(|&v| v == 0.0),
            "stale data survived the reshape: {:?}",
            m.as_slice()
        );
        // Same-shape calls preserve contents (in-place scratch reuse stays valid).
        let mut m = HvMatrix::from_vec(vec![1.0, 2.0, 3.0, 4.0], 2, 2).unwrap();
        m.ensure_shape(2, 2);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn backend_kind_routes_and_names() {
        for kind in BackendKind::ALL {
            let packed = kind.create().as_packed().is_some();
            assert_eq!(packed, kind == BackendKind::Packed, "{kind}");
        }
        assert_eq!(BackendKind::Packed.to_string(), "packed");
        assert_eq!(BackendKind::Reference.to_string(), "reference");
        assert_eq!(BackendKind::default(), BackendKind::Packed);
    }

    #[test]
    fn broadcast_replicates_rows() {
        let hv = Hypervector::from_values(vec![1.0, -1.0]);
        let m = HvMatrix::broadcast(&hv, 3);
        assert_eq!(m.rows(), 3);
        for i in 0..3 {
            assert_eq!(m.row(i), hv.values());
        }
    }
}
