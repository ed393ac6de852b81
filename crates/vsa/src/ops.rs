//! Core VSA operations: binding, unbinding, bundling, similarity, noise.
//!
//! The operations here are the *functional* reference implementations. The hardware
//! simulator in `cogsys-sim` re-implements circular convolution cycle-by-cycle on the
//! nsPE array and is cross-checked against these functions in its tests.

use crate::error::VsaError;
use crate::fft;
use crate::hypervector::Hypervector;
use rand::Rng;

/// Circular convolution of two hypervectors: `C[n] = Σ_k A[k]·B[(n−k) mod d]`.
///
/// This is the paper's binding operation (Sec. II-C). Power-of-two dimensions use an
/// FFT path (`O(d log d)`); other dimensions fall back to the `O(d²)` definition.
///
/// # Panics
/// Panics if the operands have different dimensionalities; use [`try_circular_convolve`]
/// for the checked variant.
///
/// # Example
/// ```
/// use cogsys_vsa::{Hypervector, ops};
/// let a = Hypervector::from_values(vec![1.0, 2.0, 3.0]);
/// let b = Hypervector::from_values(vec![4.0, 5.0, 6.0]);
/// let c = ops::circular_convolve(&a, &b);
/// // C[0] = 1*4 + 2*6 + 3*5 = 31
/// assert_eq!(c.values()[0], 31.0);
/// ```
pub fn circular_convolve(a: &Hypervector, b: &Hypervector) -> Hypervector {
    try_circular_convolve(a, b).expect("hypervector dimension mismatch")
}

/// Checked circular convolution.
///
/// # Errors
/// Returns [`VsaError::DimensionMismatch`] when the operands differ in dimension.
pub fn try_circular_convolve(a: &Hypervector, b: &Hypervector) -> Result<Hypervector, VsaError> {
    if a.dim() != b.dim() {
        return Err(VsaError::DimensionMismatch {
            left: a.dim(),
            right: b.dim(),
        });
    }
    if let Some(values) = fft::circular_convolve_fft(a.values(), b.values()) {
        return Ok(Hypervector::from_values(values));
    }
    Ok(Hypervector::from_values(circular_convolve_naive(
        a.values(),
        b.values(),
    )))
}

/// Time-domain `O(d²)` circular convolution over raw slices.
///
/// Exposed publicly because the hardware simulator and benchmarks need the exact
/// reference kernel the nsPE array implements.
pub fn circular_convolve_naive(a: &[f32], b: &[f32]) -> Vec<f32> {
    let d = a.len();
    debug_assert_eq!(d, b.len());
    let mut out = vec![0.0f32; d];
    for (n, slot) in out.iter_mut().enumerate() {
        let mut acc = 0.0f32;
        for (k, &a_k) in a.iter().enumerate() {
            // (n - k) mod d in unsigned arithmetic: adding d keeps the numerator
            // non-negative, which is valid because k < d and n < d.
            debug_assert!(k < d && n < d);
            let idx = (n + d - k) % d;
            acc += a_k * b[idx];
        }
        *slot = acc;
    }
    out
}

/// Circular correlation of `a` with `b`: `C[n] = Σ_k A[k]·B[(n+k) mod d]`.
///
/// Circular correlation approximately inverts circular-convolution binding: if
/// `q = x ⊛ y` then `correlate(q, x) ≈ y` (exactly so for unitary `x`). The nsPE
/// supports it by reversing the stationary vector (Sec. V-B).
///
/// # Panics
/// Panics on dimension mismatch; use [`try_circular_correlate`] for the checked variant.
pub fn circular_correlate(a: &Hypervector, b: &Hypervector) -> Hypervector {
    try_circular_correlate(a, b).expect("hypervector dimension mismatch")
}

/// Checked circular correlation.
///
/// # Errors
/// Returns [`VsaError::DimensionMismatch`] when the operands differ in dimension.
pub fn try_circular_correlate(a: &Hypervector, b: &Hypervector) -> Result<Hypervector, VsaError> {
    if a.dim() != b.dim() {
        return Err(VsaError::DimensionMismatch {
            left: a.dim(),
            right: b.dim(),
        });
    }
    if let Some(values) = fft::circular_correlate_fft(a.values(), b.values()) {
        return Ok(Hypervector::from_values(values));
    }
    let d = a.dim();
    let av = a.values();
    let bv = b.values();
    let mut out = vec![0.0f32; d];
    for (n, slot) in out.iter_mut().enumerate() {
        let mut acc = 0.0f32;
        for k in 0..d {
            acc += av[k] * bv[(n + k) % d];
        }
        *slot = acc;
    }
    Ok(Hypervector::from_values(out))
}

/// Element-wise (Hadamard) binding, the MAP-style multiplicative binding used by NVSA's
/// attribute codebooks.
///
/// For bipolar vectors Hadamard binding is exactly self-inverse: `bind(bind(a,b),b) = a`.
///
/// # Errors
/// Returns [`VsaError::DimensionMismatch`] when the operands differ in dimension.
pub fn hadamard_bind(a: &Hypervector, b: &Hypervector) -> Result<Hypervector, VsaError> {
    if a.dim() != b.dim() {
        return Err(VsaError::DimensionMismatch {
            left: a.dim(),
            right: b.dim(),
        });
    }
    let values = a
        .values()
        .iter()
        .zip(b.values())
        .map(|(x, y)| x * y)
        .collect();
    Ok(Hypervector::from_values(values))
}

/// Bundles (superposes) a set of vectors by element-wise summation, in item order.
/// The items are hypervectors or raw rows, e.g. [`crate::HvMatrix::row_iter`].
///
/// # Errors
/// Returns [`VsaError::Empty`] when `items` is empty and
/// [`VsaError::DimensionMismatch`] when members disagree in dimension.
pub fn bundle<I>(items: I) -> Result<Hypervector, VsaError>
where
    I: IntoIterator,
    I::Item: AsRef<[f32]>,
{
    let mut iter = items.into_iter();
    let first = iter.next().ok_or(VsaError::Empty {
        what: "bundle input",
    })?;
    let mut acc = first.as_ref().to_vec();
    for item in iter {
        let values = item.as_ref();
        if values.len() != acc.len() {
            return Err(VsaError::DimensionMismatch {
                left: acc.len(),
                right: values.len(),
            });
        }
        for (slot, v) in acc.iter_mut().zip(values) {
            *slot += v;
        }
    }
    Ok(Hypervector::from_values(acc))
}

/// Bundles bipolar vectors and snaps the result back to `{-1, +1}` by majority vote.
///
/// Ties (possible with an even number of inputs) resolve to `+1`, matching
/// [`Hypervector::sign`].
///
/// # Errors
/// Propagates the errors of [`bundle`].
pub fn majority_bundle<I>(items: I) -> Result<Hypervector, VsaError>
where
    I: IntoIterator,
    I::Item: AsRef<[f32]>,
{
    Ok(bundle(items)?.sign())
}

/// Cosine similarity between two hypervectors, in `[-1, 1]`.
///
/// Returns 0 when either vector has zero norm.
///
/// # Panics
/// Panics on dimension mismatch; use [`try_cosine_similarity`] for the checked variant.
pub fn cosine_similarity(a: &Hypervector, b: &Hypervector) -> f32 {
    try_cosine_similarity(a, b).expect("hypervector dimension mismatch")
}

/// Checked cosine similarity.
///
/// # Errors
/// Returns [`VsaError::DimensionMismatch`] when the operands differ in dimension.
pub fn try_cosine_similarity(a: &Hypervector, b: &Hypervector) -> Result<f32, VsaError> {
    if a.dim() != b.dim() {
        return Err(VsaError::DimensionMismatch {
            left: a.dim(),
            right: b.dim(),
        });
    }
    Ok(cosine_slices(a.values(), b.values()))
}

/// Cosine similarity of two equal-length slices — the **canonical numerics** (strict
/// serial dot, serial squared-sum norms, zero-norm pairs score 0) every cosine in the
/// workspace reduces to. The resonator's convergence check and the solver's answer
/// scoring call this same function, which is what makes their decision-identity
/// contracts structural rather than three hand-synchronized copies.
pub fn cosine_slices(a: &[f32], b: &[f32]) -> f32 {
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let norm = |v: &[f32]| v.iter().map(|x| x * x).sum::<f32>().sqrt();
    let denom = norm(a) * norm(b);
    if denom == 0.0 {
        return 0.0;
    }
    dot / denom
}

/// Flips the sign of each entry independently with probability `p` (bit-flip noise).
///
/// Used by the dataset generators to emulate imperfect neural perception.
pub fn flip_noise<R: Rng + ?Sized>(hv: &Hypervector, p: f64, rng: &mut R) -> Hypervector {
    let values = hv
        .values()
        .iter()
        .map(|&v| {
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                -v
            } else {
                v
            }
        })
        .collect();
    Hypervector::from_values(values)
}

/// Matrix–vector similarity: the dot product of `query` with every row of `matrix`.
///
/// This is the factorizer's Step 2 ("similarity search via matrix–vector
/// multiplication") and the codebook cleanup operation; on the accelerator it maps onto
/// GEMV in GEMM mode.
///
/// # Errors
/// Returns [`VsaError::DimensionMismatch`] if any row disagrees with the query dimension.
pub fn matvec_similarity(
    matrix: &[Hypervector],
    query: &Hypervector,
) -> Result<Vec<f32>, VsaError> {
    matrix.iter().map(|row| row.dot(query)).collect()
}

/// Returns the index of the largest element (ties resolve to the first).
///
/// Returns `None` for an empty slice.
pub fn argmax(scores: &[f32]) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &s) in scores.iter().enumerate() {
        match best {
            Some((_, b)) if s <= b => {}
            _ => best = Some((i, s)),
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;
    use proptest::prelude::*;

    #[test]
    fn convolution_matches_hand_computed_example() {
        // Example from Fig. 11b of the paper:
        // (A1,A2,A3) ⊛ (B1,B2,B3) = (A1B1+A2B3+A3B2, A1B2+A2B1+A3B3, A1B3+A2B2+A3B1)
        // with the paper's indexing convention C[n] = Σ A[k] B[(n-k) mod N].
        let a = Hypervector::from_values(vec![1.0, 2.0, 3.0]);
        let b = Hypervector::from_values(vec![10.0, 20.0, 30.0]);
        let c = circular_convolve(&a, &b);
        assert_eq!(c.values()[0], 1.0 * 10.0 + 2.0 * 30.0 + 3.0 * 20.0);
        assert_eq!(c.values()[1], 1.0 * 20.0 + 2.0 * 10.0 + 3.0 * 30.0);
        assert_eq!(c.values()[2], 1.0 * 30.0 + 2.0 * 20.0 + 3.0 * 10.0);
    }

    #[test]
    fn convolution_identity_element() {
        let mut r = rng(3);
        let a = Hypervector::random_bipolar(64, &mut r);
        let id = Hypervector::identity(64);
        let c = circular_convolve(&a, &id);
        for (x, y) in c.values().iter().zip(a.values()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn correlation_recovers_bound_factor() {
        let mut r = rng(4);
        let d = 1024;
        let x = Hypervector::random_real(d, &mut r);
        let y = Hypervector::random_real(d, &mut r);
        let bound = circular_convolve(&x, &y);
        let recovered = circular_correlate(&bound, &x);
        let sim = cosine_similarity(&recovered, &y);
        assert!(sim > 0.5, "similarity {sim} too low");
        // And the recovered vector should not resemble an unrelated vector.
        let z = Hypervector::random_real(d, &mut r);
        assert!(cosine_similarity(&recovered, &z).abs() < 0.2);
    }

    #[test]
    fn hadamard_binding_is_self_inverse_for_bipolar() {
        let mut r = rng(5);
        let a = Hypervector::random_bipolar(256, &mut r);
        let b = Hypervector::random_bipolar(256, &mut r);
        let bound = hadamard_bind(&a, &b).unwrap();
        let recovered = hadamard_bind(&bound, &b).unwrap();
        assert_eq!(recovered.values(), a.values());
    }

    #[test]
    fn bundle_preserves_similarity_to_members() {
        let mut r = rng(6);
        let members: Vec<_> = (0..5)
            .map(|_| Hypervector::random_bipolar(2048, &mut r))
            .collect();
        let sum = bundle(members.iter()).unwrap();
        for m in &members {
            assert!(cosine_similarity(&sum, m) > 0.3);
        }
        let outsider = Hypervector::random_bipolar(2048, &mut r);
        assert!(cosine_similarity(&sum, &outsider).abs() < 0.15);
    }

    #[test]
    fn bundle_of_empty_set_is_error() {
        let empty: Vec<Hypervector> = Vec::new();
        assert!(matches!(bundle(empty.iter()), Err(VsaError::Empty { .. })));
    }

    #[test]
    fn majority_bundle_is_bipolar() {
        let mut r = rng(7);
        let members: Vec<_> = (0..3)
            .map(|_| Hypervector::random_bipolar(128, &mut r))
            .collect();
        let m = majority_bundle(members.iter()).unwrap();
        assert!(m.values().iter().all(|&v| v == 1.0 || v == -1.0));
    }

    #[test]
    fn cosine_similarity_bounds() {
        let mut r = rng(8);
        let a = Hypervector::random_bipolar(512, &mut r);
        assert!((cosine_similarity(&a, &a) - 1.0).abs() < 1e-6);
        let neg = -a.clone();
        assert!((cosine_similarity(&a, &neg) + 1.0).abs() < 1e-6);
        let zero = Hypervector::zeros(512);
        assert_eq!(cosine_similarity(&a, &zero), 0.0);
    }

    #[test]
    fn flip_noise_extremes() {
        let mut r = rng(12);
        let a = Hypervector::random_bipolar(128, &mut r);
        let same = flip_noise(&a, 0.0, &mut r);
        assert_eq!(same.values(), a.values());
        let flipped = flip_noise(&a, 1.0, &mut r);
        for (x, y) in flipped.values().iter().zip(a.values()) {
            assert_eq!(*x, -*y);
        }
    }

    #[test]
    fn matvec_similarity_identifies_member() {
        let mut r = rng(13);
        let rows: Vec<_> = (0..8)
            .map(|_| Hypervector::random_bipolar(512, &mut r))
            .collect();
        let sims = matvec_similarity(&rows, &rows[3]).unwrap();
        assert_eq!(argmax(&sims), Some(3));
    }

    #[test]
    fn argmax_handles_ties_and_empty() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), Some(1));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn checked_variants_report_mismatch() {
        let a = Hypervector::zeros(4);
        let b = Hypervector::zeros(6);
        assert!(try_circular_convolve(&a, &b).is_err());
        assert!(try_circular_correlate(&a, &b).is_err());
        assert!(try_cosine_similarity(&a, &b).is_err());
        assert!(hadamard_bind(&a, &b).is_err());
    }

    proptest! {
        #[test]
        fn prop_convolution_commutative(seed in 0u64..500, dim in 2usize..64) {
            let mut r = rng(seed);
            let a = Hypervector::random_bipolar(dim, &mut r);
            let b = Hypervector::random_bipolar(dim, &mut r);
            let ab = circular_convolve(&a, &b);
            let ba = circular_convolve(&b, &a);
            for (x, y) in ab.values().iter().zip(ba.values()) {
                prop_assert!((x - y).abs() < 1e-2);
            }
        }

        #[test]
        fn prop_convolution_associative(seed in 0u64..200) {
            let mut r = rng(seed);
            let dim = 32;
            let a = Hypervector::random_bipolar(dim, &mut r);
            let b = Hypervector::random_bipolar(dim, &mut r);
            let c = Hypervector::random_bipolar(dim, &mut r);
            let left = circular_convolve(&circular_convolve(&a, &b), &c);
            let right = circular_convolve(&a, &circular_convolve(&b, &c));
            for (x, y) in left.values().iter().zip(right.values()) {
                prop_assert!((x - y).abs() < 1e-1 * dim as f32);
            }
        }

        #[test]
        fn prop_convolution_distributes_over_addition(seed in 0u64..200) {
            let mut r = rng(seed);
            let dim = 16;
            let a = Hypervector::random_bipolar(dim, &mut r);
            let b = Hypervector::random_bipolar(dim, &mut r);
            let c = Hypervector::random_bipolar(dim, &mut r);
            let lhs = circular_convolve(&a, &(&b + &c));
            let rhs = &circular_convolve(&a, &b) + &circular_convolve(&a, &c);
            for (x, y) in lhs.values().iter().zip(rhs.values()) {
                prop_assert!((x - y).abs() < 1e-2 * dim as f32);
            }
        }

        #[test]
        fn prop_naive_and_fft_agree(seed in 0u64..200) {
            let mut r = rng(seed);
            let dim = 64; // power of two so the FFT path is taken
            let a = Hypervector::random_bipolar(dim, &mut r);
            let b = Hypervector::random_bipolar(dim, &mut r);
            let fft = circular_convolve(&a, &b);
            let naive = circular_convolve_naive(a.values(), b.values());
            for (x, y) in fft.values().iter().zip(&naive) {
                prop_assert!((x - y).abs() < 1e-2);
            }
        }

        #[test]
        fn prop_hadamard_bind_unbind_roundtrip(seed in 0u64..500, dim in 1usize..256) {
            let mut r = rng(seed);
            let a = Hypervector::random_bipolar(dim, &mut r);
            let b = Hypervector::random_bipolar(dim, &mut r);
            let round = hadamard_bind(&hadamard_bind(&a, &b).unwrap(), &b).unwrap();
            prop_assert_eq!(round.values(), a.values());
        }

        #[test]
        fn prop_cosine_similarity_symmetric_and_bounded(seed in 0u64..500) {
            let mut r = rng(seed);
            let a = Hypervector::random_real(128, &mut r);
            let b = Hypervector::random_real(128, &mut r);
            let ab = cosine_similarity(&a, &b);
            let ba = cosine_similarity(&b, &a);
            prop_assert!((ab - ba).abs() < 1e-6);
            prop_assert!((-1.0001..=1.0001).contains(&ab));
        }
    }
}
