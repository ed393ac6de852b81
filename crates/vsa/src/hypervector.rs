//! Dense hypervector representation.
//!
//! CogSys workloads (NVSA, MIMONet, LVRF, PrAE) all use dense distributed vectors with
//! dimensionality in the hundreds to thousands (the paper uses `d = 1024` for NVSA/LVRF
//! and `d = 64` for MIMONet). We store them as `Vec<f32>` — the same storage the
//! accelerator's SRAM model in `cogsys-sim` accounts for.

use crate::error::VsaError;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Index, Mul, Neg, Sub};

/// A dense hypervector.
///
/// The element type is `f32` throughout the repository; reduced-precision behaviour is
/// modelled explicitly by [`crate::quant`] rather than by changing the storage type, so
/// that the functional pipelines and the hardware simulator agree on numerics.
///
/// # Example
/// ```
/// use cogsys_vsa::Hypervector;
/// let hv = Hypervector::from_values(vec![1.0, -1.0, 1.0, 1.0]);
/// assert_eq!(hv.dim(), 4);
/// assert_eq!(hv[1], -1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hypervector {
    values: Vec<f32>,
}

impl Hypervector {
    /// Creates a hypervector from raw values.
    pub fn from_values(values: Vec<f32>) -> Self {
        Self { values }
    }

    /// Creates an all-zero vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        Self {
            values: vec![0.0; dim],
        }
    }

    /// Creates the binding identity for circular convolution: `(1, 0, 0, ..., 0)`.
    ///
    /// Convolving any vector with the identity returns the vector unchanged.
    pub fn identity(dim: usize) -> Self {
        let mut values = vec![0.0; dim];
        if dim > 0 {
            values[0] = 1.0;
        }
        Self { values }
    }

    /// Samples a random bipolar vector with entries drawn uniformly from `{-1, +1}`.
    ///
    /// Random bipolar vectors of high dimension are quasi-orthogonal: the expected
    /// cosine similarity between two independent draws is 0 with standard deviation
    /// `1/sqrt(d)` — the property the factorizer (Sec. IV-A) relies on.
    pub fn random_bipolar<R: Rng + ?Sized>(dim: usize, rng: &mut R) -> Self {
        let values = (0..dim)
            .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
            .collect();
        Self { values }
    }

    /// Samples a random real-valued vector with i.i.d. `N(0, 1/d)` entries (HRR-style).
    ///
    /// The `1/d` variance makes the expected Euclidean norm equal to 1, which keeps
    /// repeated circular convolutions numerically stable.
    pub fn random_real<R: Rng + ?Sized>(dim: usize, rng: &mut R) -> Self {
        use rand_distr::{Distribution, Normal};
        let normal = Normal::new(0.0_f32, (1.0 / dim.max(1) as f32).sqrt())
            .expect("standard deviation is finite and positive");
        let values = (0..dim).map(|_| normal.sample(rng)).collect();
        Self { values }
    }

    /// Returns the dimensionality.
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the vector has zero dimensions.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Returns a view of the underlying values.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Returns a mutable view of the underlying values.
    pub fn values_mut(&mut self) -> &mut [f32] {
        &mut self.values
    }

    /// Returns the Euclidean (L2) norm.
    pub fn norm(&self) -> f32 {
        self.values.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Returns the dot product with another vector.
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] if the dimensionalities differ.
    pub fn dot(&self, other: &Self) -> Result<f32, VsaError> {
        if self.dim() != other.dim() {
            return Err(VsaError::DimensionMismatch {
                left: self.dim(),
                right: other.dim(),
            });
        }
        Ok(self
            .values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| a * b)
            .sum())
    }

    /// Returns a copy with every entry replaced by its sign (`+1`, `-1`; zero maps to `+1`).
    ///
    /// This is the projection step used by the factorizer (Step 3 in Fig. 8) to snap a
    /// continuous estimate back onto the bipolar codevector manifold.
    pub fn sign(&self) -> Self {
        let values = self
            .values
            .iter()
            .map(|&v| if v < 0.0 { -1.0 } else { 1.0 })
            .collect();
        Self { values }
    }

    /// Returns an L2-normalised copy (zero vectors are returned unchanged).
    pub fn normalized(&self) -> Self {
        let n = self.norm();
        if n == 0.0 {
            return self.clone();
        }
        let values = self.values.iter().map(|v| v / n).collect();
        Self { values }
    }

    /// Returns a copy with entries cyclically rotated right by `shift` positions.
    ///
    /// Cyclic shift (permutation) is the standard VSA mechanism for encoding order /
    /// position information, used by the dataset encoders to distinguish panel slots.
    pub fn rotated(&self, shift: usize) -> Self {
        let d = self.dim();
        if d == 0 {
            return self.clone();
        }
        let shift = shift % d;
        let mut values = Vec::with_capacity(d);
        // Element i of the result takes element (i - shift) mod d of the input.
        values.extend_from_slice(&self.values[d - shift..]);
        values.extend_from_slice(&self.values[..d - shift]);
        Self { values }
    }

    /// Returns the involution `A*` of the vector: `A*[n] = A[(-n) mod d]`.
    ///
    /// For circular convolution binding, convolving with the involution of `A`
    /// approximately unbinds `A` (exactly, for unitary vectors). The reconfigurable PE
    /// (Sec. V-B) supports circular correlation "by reversing stationary vector A" —
    /// this is that reversal.
    pub fn involution(&self) -> Self {
        let d = self.dim();
        if d == 0 {
            return self.clone();
        }
        let mut values = Vec::with_capacity(d);
        values.push(self.values[0]);
        values.extend(self.values[1..].iter().rev().copied());
        Self { values }
    }

    /// Flips the sign of every entry in place.
    pub fn negate_in_place(&mut self) {
        for v in &mut self.values {
            *v = -*v;
        }
    }

    /// Approximate in-memory footprint of this vector in bytes (FP32 storage).
    pub fn footprint_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f32>()
    }
}

impl Default for Hypervector {
    fn default() -> Self {
        Self::zeros(0)
    }
}

impl AsRef<[f32]> for Hypervector {
    fn as_ref(&self) -> &[f32] {
        &self.values
    }
}

impl Index<usize> for Hypervector {
    type Output = f32;

    fn index(&self, index: usize) -> &f32 {
        &self.values[index]
    }
}

impl<'a> Add for &'a Hypervector {
    type Output = Hypervector;

    /// Element-wise addition (bundling without normalisation).
    ///
    /// # Panics
    /// Panics if the dimensionalities differ; use [`crate::ops::bundle`] for the checked
    /// variant.
    fn add(self, rhs: &'a Hypervector) -> Hypervector {
        assert_eq!(self.dim(), rhs.dim(), "hypervector dimension mismatch");
        let values = self
            .values
            .iter()
            .zip(&rhs.values)
            .map(|(a, b)| a + b)
            .collect();
        Hypervector::from_values(values)
    }
}

impl<'a> Sub for &'a Hypervector {
    type Output = Hypervector;

    /// Element-wise subtraction.
    ///
    /// # Panics
    /// Panics if the dimensionalities differ.
    fn sub(self, rhs: &'a Hypervector) -> Hypervector {
        assert_eq!(self.dim(), rhs.dim(), "hypervector dimension mismatch");
        let values = self
            .values
            .iter()
            .zip(&rhs.values)
            .map(|(a, b)| a - b)
            .collect();
        Hypervector::from_values(values)
    }
}

impl Mul<f32> for &Hypervector {
    type Output = Hypervector;

    /// Scalar multiplication.
    fn mul(self, rhs: f32) -> Hypervector {
        let values = self.values.iter().map(|v| v * rhs).collect();
        Hypervector::from_values(values)
    }
}

impl Neg for Hypervector {
    type Output = Hypervector;

    fn neg(mut self) -> Hypervector {
        self.negate_in_place();
        self
    }
}

impl FromIterator<f32> for Hypervector {
    fn from_iter<T: IntoIterator<Item = f32>>(iter: T) -> Self {
        Self::from_values(iter.into_iter().collect())
    }
}

impl fmt::Display for Hypervector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hypervector(d={})", self.dim())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_bipolar_has_only_plus_minus_one() {
        let mut rng = crate::rng(1);
        let hv = Hypervector::random_bipolar(256, &mut rng);
        assert!(hv.values().iter().all(|&v| v == 1.0 || v == -1.0));
    }

    #[test]
    fn random_real_has_unit_expected_norm() {
        let mut rng = crate::rng(2);
        let hv = Hypervector::random_real(4096, &mut rng);
        // Norm concentrates around 1 for N(0, 1/d) entries.
        assert!((hv.norm() - 1.0).abs() < 0.1, "norm = {}", hv.norm());
    }

    #[test]
    fn dot_rejects_dimension_mismatch() {
        let a = Hypervector::zeros(4);
        let b = Hypervector::zeros(8);
        assert_eq!(
            a.dot(&b),
            Err(VsaError::DimensionMismatch { left: 4, right: 8 })
        );
    }

    #[test]
    fn sign_maps_to_bipolar() {
        let hv = Hypervector::from_values(vec![0.5, -0.2, 0.0, -7.0]);
        let s = hv.sign();
        assert_eq!(s.values(), &[1.0, -1.0, 1.0, -1.0]);
    }

    #[test]
    fn rotation_round_trips() {
        let hv = Hypervector::from_values(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let r = hv.rotated(2);
        assert_eq!(r.values(), &[4.0, 5.0, 1.0, 2.0, 3.0]);
        let back = r.rotated(3);
        assert_eq!(back.values(), hv.values());
    }

    #[test]
    fn rotation_by_dim_is_identity() {
        let hv = Hypervector::from_values(vec![1.0, 2.0, 3.0]);
        assert_eq!(hv.rotated(3).values(), hv.values());
        assert_eq!(hv.rotated(0).values(), hv.values());
    }

    #[test]
    fn involution_is_self_inverse() {
        let hv = Hypervector::from_values(vec![1.0, 2.0, 3.0, 4.0]);
        let inv = hv.involution();
        assert_eq!(inv.values(), &[1.0, 4.0, 3.0, 2.0]);
        assert_eq!(inv.involution().values(), hv.values());
    }

    #[test]
    fn identity_has_unit_first_entry() {
        let id = Hypervector::identity(8);
        assert_eq!(id[0], 1.0);
        assert_eq!(id.values()[1..].iter().sum::<f32>(), 0.0);
    }

    #[test]
    fn normalized_has_unit_norm() {
        let hv = Hypervector::from_values(vec![3.0, 4.0]);
        assert!((hv.normalized().norm() - 1.0).abs() < 1e-6);
        // Zero vector stays zero instead of producing NaN.
        let z = Hypervector::zeros(4);
        assert_eq!(z.normalized().values(), &[0.0; 4]);
    }

    #[test]
    fn arithmetic_operators() {
        let a = Hypervector::from_values(vec![1.0, 2.0]);
        let b = Hypervector::from_values(vec![3.0, 5.0]);
        assert_eq!((&a + &b).values(), &[4.0, 7.0]);
        assert_eq!((&b - &a).values(), &[2.0, 3.0]);
        assert_eq!((&a * 2.0).values(), &[2.0, 4.0]);
        assert_eq!((-a).values(), &[-1.0, -2.0]);
    }

    #[test]
    fn footprint_is_four_bytes_per_element() {
        let hv = Hypervector::zeros(1024);
        assert_eq!(hv.footprint_bytes(), 4096);
    }

    #[test]
    fn display_mentions_dimension() {
        let hv = Hypervector::zeros(16);
        assert!(hv.to_string().contains("16"));
    }

    #[test]
    fn collect_from_iterator() {
        let hv: Hypervector = (0..4).map(|i| i as f32).collect();
        assert_eq!(hv.values(), &[0.0, 1.0, 2.0, 3.0]);
    }
}
