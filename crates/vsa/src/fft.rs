//! A small self-contained FFT used for `O(d log d)` circular convolution.
//!
//! The CogSys accelerator performs circular convolution directly in the time domain
//! (bubble-streaming dataflow, Sec. V-C); the FFT path here exists so the *functional*
//! pipelines (factorizer, workload models) can run at large dimensionality without the
//! `O(d^2)` cost, and so tests can cross-check the naive, FFT, and simulated-hardware
//! implementations against each other.
//!
//! Only power-of-two sizes take the radix-2 path; other sizes fall back to the naive
//! algorithm in [`crate::ops`] at the call site.

use std::f64::consts::PI;

/// A complex number with `f64` parts, sufficient for the FFT's internal use.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

// The inherent `mul`/`add`/`sub` names predate this PR's clippy gate; they are used
// pervasively by value (no operator-trait ergonomics lost) and renaming them would
// churn every FFT call site.
#[allow(clippy::should_implement_trait)]
impl Complex {
    /// Creates a complex number.
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Complex multiplication.
    pub fn mul(self, other: Self) -> Self {
        Self {
            re: self.re * other.re - self.im * other.im,
            im: self.re * other.im + self.im * other.re,
        }
    }

    /// Complex addition.
    pub fn add(self, other: Self) -> Self {
        Self {
            re: self.re + other.re,
            im: self.im + other.im,
        }
    }

    /// Complex subtraction.
    pub fn sub(self, other: Self) -> Self {
        Self {
            re: self.re - other.re,
            im: self.im - other.im,
        }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }
}

/// Returns `true` if `n` is a power of two (and non-zero).
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && (n & (n - 1)) == 0
}

/// In-place iterative radix-2 Cooley–Tukey FFT.
///
/// `inverse = true` computes the unscaled inverse transform; the caller is responsible
/// for dividing by `n`.
///
/// # Panics
/// Panics if `data.len()` is not a power of two.
pub fn fft_in_place(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(is_power_of_two(n), "fft size must be a power of two");
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }

    // Butterfly passes.
    let mut len = 2;
    while len <= n {
        let angle = 2.0 * PI / len as f64 * if inverse { 1.0 } else { -1.0 };
        let wlen = Complex::new(angle.cos(), angle.sin());
        let mut i = 0;
        while i < n {
            let mut w = Complex::new(1.0, 0.0);
            for k in 0..len / 2 {
                let u = data[i + k];
                let v = data[i + k + len / 2].mul(w);
                data[i + k] = u.add(v);
                data[i + k + len / 2] = u.sub(v);
                w = w.mul(wlen);
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Circular convolution of two equal-length real sequences via FFT.
///
/// Returns `None` when the length is not a power of two (callers then use the naive
/// time-domain algorithm). Output has the same length as the inputs.
pub fn circular_convolve_fft(a: &[f32], b: &[f32]) -> Option<Vec<f32>> {
    let n = a.len();
    if n != b.len() || !is_power_of_two(n) {
        return None;
    }
    let mut fa: Vec<Complex> = a.iter().map(|&x| Complex::new(x as f64, 0.0)).collect();
    let mut fb: Vec<Complex> = b.iter().map(|&x| Complex::new(x as f64, 0.0)).collect();
    fft_in_place(&mut fa, false);
    fft_in_place(&mut fb, false);
    for (x, y) in fa.iter_mut().zip(fb.iter()) {
        *x = x.mul(*y);
    }
    fft_in_place(&mut fa, true);
    Some(fa.iter().map(|c| (c.re / n as f64) as f32).collect())
}

/// Circular correlation (`a` correlated with `b`) via FFT: `FFT^-1(conj(FFT(b)) * FFT(a))`.
///
/// Circular correlation is the approximate inverse of circular convolution binding and
/// is what the nsPE performs when the stationary vector is reversed (Sec. V-B).
/// Returns `None` when the length is not a power of two.
pub fn circular_correlate_fft(a: &[f32], b: &[f32]) -> Option<Vec<f32>> {
    let n = a.len();
    if n != b.len() || !is_power_of_two(n) {
        return None;
    }
    let mut fa: Vec<Complex> = a.iter().map(|&x| Complex::new(x as f64, 0.0)).collect();
    let mut fb: Vec<Complex> = b.iter().map(|&x| Complex::new(x as f64, 0.0)).collect();
    fft_in_place(&mut fa, false);
    fft_in_place(&mut fb, false);
    for (x, y) in fa.iter_mut().zip(fb.iter()) {
        *x = x.mul(y.conj());
    }
    fft_in_place(&mut fa, true);
    Some(fa.iter().map(|c| (c.re / n as f64) as f32).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_circular_convolve(a: &[f32], b: &[f32]) -> Vec<f32> {
        let n = a.len();
        (0..n)
            .map(|i| (0..n).map(|k| a[k] * b[(i + n - k) % n]).sum::<f32>())
            .collect()
    }

    #[test]
    fn power_of_two_detection() {
        assert!(is_power_of_two(1));
        assert!(is_power_of_two(2));
        assert!(is_power_of_two(1024));
        assert!(!is_power_of_two(0));
        assert!(!is_power_of_two(3));
        assert!(!is_power_of_two(1000));
    }

    #[test]
    fn fft_inverse_round_trip() {
        let original: Vec<Complex> = (0..16)
            .map(|i| Complex::new(i as f64, (i * 2) as f64))
            .collect();
        let mut data = original.clone();
        fft_in_place(&mut data, false);
        fft_in_place(&mut data, true);
        for (o, d) in original.iter().zip(&data) {
            assert!((o.re - d.re / 16.0).abs() < 1e-9);
            assert!((o.im - d.im / 16.0).abs() < 1e-9);
        }
    }

    #[test]
    fn fft_convolution_matches_naive() {
        let a: Vec<f32> = vec![1.0, 2.0, 3.0, 4.0, -1.0, 0.5, 2.0, -3.0];
        let b: Vec<f32> = vec![0.5, -1.0, 2.0, 1.0, 1.0, -2.0, 0.0, 3.0];
        let fft = circular_convolve_fft(&a, &b).unwrap();
        let naive = naive_circular_convolve(&a, &b);
        for (x, y) in fft.iter().zip(&naive) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn fft_rejects_non_power_of_two() {
        let a = vec![1.0; 6];
        let b = vec![1.0; 6];
        assert!(circular_convolve_fft(&a, &b).is_none());
        assert!(circular_correlate_fft(&a, &b).is_none());
    }

    #[test]
    fn correlation_undoes_convolution_with_identity() {
        // conv(a, delta) = a, and correlate(a, delta) = a as well.
        let mut delta = vec![0.0_f32; 8];
        delta[0] = 1.0;
        let a = vec![3.0, 1.0, -2.0, 0.5, 4.0, -1.0, 2.0, 7.0];
        let conv = circular_convolve_fft(&a, &delta).unwrap();
        let corr = circular_correlate_fft(&a, &delta).unwrap();
        for ((c1, c2), orig) in conv.iter().zip(&corr).zip(&a) {
            assert!((c1 - orig).abs() < 1e-4);
            assert!((c2 - orig).abs() < 1e-4);
        }
    }

    #[test]
    fn complex_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        let prod = a.mul(b);
        assert!((prod.re - 5.0).abs() < 1e-12);
        assert!((prod.im - 5.0).abs() < 1e-12);
        assert_eq!(a.conj().im, -2.0);
        assert_eq!(a.add(b).re, 4.0);
        assert_eq!(a.sub(b).im, 3.0);
    }
}
