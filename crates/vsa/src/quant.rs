//! Reduced-precision arithmetic models (FP32 / FP8 / INT8).
//!
//! Sec. IV-B of the paper applies 8-bit floating-point and integer arithmetic to both
//! neural and symbolic computation, trading a small accuracy loss for 4.75× memory and
//! 7.7× area savings (Tab. VIII/IX). This module provides *bit-accurate emulation* of
//! FP8 (E4M3) rounding and symmetric INT8 quantization so the functional pipelines can
//! measure the accuracy impact, and so the energy/area model in `cogsys-sim` can key off
//! the same [`Precision`] enum.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Arithmetic precision of a kernel or storage buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Precision {
    /// IEEE-754 single precision (baseline).
    #[default]
    Fp32,
    /// 8-bit floating point, E4M3 format (1 sign, 4 exponent, 3 mantissa bits).
    Fp8,
    /// Signed 8-bit integer with symmetric per-vector scaling.
    Int8,
}

impl Precision {
    /// Storage size of one element in bytes.
    pub fn bytes_per_element(self) -> usize {
        match self {
            Precision::Fp32 => 4,
            Precision::Fp8 | Precision::Int8 => 1,
        }
    }

    /// Bits per element.
    pub fn bits(self) -> usize {
        self.bytes_per_element() * 8
    }

    /// All supported precisions, in decreasing width.
    pub fn all() -> [Precision; 3] {
        [Precision::Fp32, Precision::Fp8, Precision::Int8]
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Precision::Fp32 => write!(f, "FP32"),
            Precision::Fp8 => write!(f, "FP8"),
            Precision::Int8 => write!(f, "INT8"),
        }
    }
}

/// Maximum finite magnitude representable in FP8 E4M3 (per the OCP FP8 specification).
pub const FP8_E4M3_MAX: f32 = 448.0;

/// Rounds an `f32` to the nearest representable FP8 E4M3 value (round-to-nearest-even),
/// saturating at ±[`FP8_E4M3_MAX`].
///
/// The emulation covers normal and subnormal E4M3 values; NaN inputs map to 0 because
/// the symbolic pipelines never produce NaN in well-formed runs and the accelerator's
/// datapath has no NaN handling.
pub fn quantize_fp8_e4m3(x: f32) -> f32 {
    if x.is_nan() {
        return 0.0;
    }
    let clamped = x.clamp(-FP8_E4M3_MAX, FP8_E4M3_MAX);
    if clamped == 0.0 {
        return 0.0;
    }
    let sign = if clamped < 0.0 { -1.0 } else { 1.0 };
    let mag = clamped.abs();
    // E4M3: exponent bias 7, 3 mantissa bits. Smallest normal = 2^-6, smallest
    // subnormal = 2^-9.
    let exp = mag.log2().floor();
    let exp = exp.clamp(-6.0, 8.0);
    let scale = (exp - 3.0).exp2(); // quantization step within this binade: 2^(exp-3)
    let step = if mag < (-6.0f32).exp2() {
        // Subnormal range: fixed step of 2^-9.
        (-9.0f32).exp2()
    } else {
        scale
    };
    let q = (mag / step).round_ties_even() * step;
    sign * q.min(FP8_E4M3_MAX)
}

/// Applies a quantize→dequantize round trip in place over a raw slice (one
/// hypervector / matrix row). INT8 uses the per-vector symmetric scale of the slice.
///
/// The functional pipelines use this "fake quantization" to run entire reasoning tasks
/// at FP8/INT8 fidelity while keeping f32 as the working type, quantizing
/// [`crate::batch::HvMatrix`] rows in their preallocated storage.
pub fn fake_quantize_slice(values: &mut [f32], precision: Precision) {
    match precision {
        Precision::Fp32 => {}
        Precision::Fp8 => {
            for v in values {
                *v = quantize_fp8_e4m3(*v);
            }
        }
        Precision::Int8 => {
            let max_abs = values.iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
            let scale = if max_abs == 0.0 { 1.0 } else { max_abs / 127.0 };
            for v in values {
                *v = (*v / scale).round().clamp(-127.0, 127.0) as i8 as f32 * scale;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypervector::Hypervector;
    use crate::rng;
    use proptest::prelude::*;

    #[test]
    fn precision_sizes() {
        assert_eq!(Precision::Fp32.bytes_per_element(), 4);
        assert_eq!(Precision::Fp8.bytes_per_element(), 1);
        assert_eq!(Precision::Int8.bytes_per_element(), 1);
        assert_eq!(Precision::Fp32.bits(), 32);
        assert_eq!(Precision::all().len(), 3);
        assert_eq!(Precision::Int8.to_string(), "INT8");
    }

    #[test]
    fn fp8_exactly_represents_small_integers_and_powers_of_two() {
        for v in [0.0f32, 1.0, -1.0, 2.0, 0.5, 0.25, 448.0, -448.0, 1.5, 3.5] {
            assert_eq!(quantize_fp8_e4m3(v), v, "value {v} should be exact in E4M3");
        }
    }

    #[test]
    fn fp8_saturates_and_handles_nan() {
        assert_eq!(quantize_fp8_e4m3(1e6), FP8_E4M3_MAX);
        assert_eq!(quantize_fp8_e4m3(-1e6), -FP8_E4M3_MAX);
        assert_eq!(quantize_fp8_e4m3(f32::NAN), 0.0);
    }

    #[test]
    fn fp8_rounding_error_is_bounded_by_half_step() {
        // In the binade [1, 2) the E4M3 step is 2^-3 = 0.125.
        let x = 1.06f32;
        let q = quantize_fp8_e4m3(x);
        assert!((x - q).abs() <= 0.0625 + 1e-6);
    }

    #[test]
    fn int8_round_trip_error_is_small() {
        let mut r = rng(31);
        let hv = Hypervector::random_real(1024, &mut r);
        let max_abs = hv.values().iter().fold(0.0f32, |a, v| a.max(v.abs()));
        let half_step = max_abs / 127.0 / 2.0;
        let mut q = hv.values().to_vec();
        fake_quantize_slice(&mut q, Precision::Int8);
        for (x, y) in hv.values().iter().zip(&q) {
            assert!((x - y).abs() <= half_step + max_abs * 1e-6, "{x} -> {y}");
        }
    }

    #[test]
    fn fp32_round_trip_is_exact() {
        let mut r = rng(32);
        let hv = Hypervector::random_real(256, &mut r);
        let mut q = hv.values().to_vec();
        fake_quantize_slice(&mut q, Precision::Fp32);
        assert_eq!(q, hv.values());
    }

    #[test]
    fn bipolar_vectors_survive_all_precisions_exactly() {
        // ±1 is exactly representable in FP8 and INT8, so the symbolic codebooks lose
        // nothing from quantization — consistent with the small accuracy deltas the
        // paper reports in Tab. VIII.
        let mut r = rng(33);
        let hv = Hypervector::random_bipolar(512, &mut r);
        for p in Precision::all() {
            let mut q = hv.values().to_vec();
            fake_quantize_slice(&mut q, p);
            assert_eq!(q, hv.values(), "precision {p}");
        }
    }

    #[test]
    fn int8_zero_vector_stays_zero() {
        let mut q = vec![0.0f32; 16];
        fake_quantize_slice(&mut q, Precision::Int8);
        assert!(q.iter().all(|&v| v == 0.0));
    }

    proptest! {
        #[test]
        fn prop_int8_error_bounded_by_scale(seed in 0u64..200) {
            let mut r = rng(seed);
            let hv = Hypervector::random_real(128, &mut r);
            let scale = hv.values().iter().fold(0.0f32, |a, v| a.max(v.abs())) / 127.0;
            let mut back = hv.values().to_vec();
            fake_quantize_slice(&mut back, Precision::Int8);
            for (a, b) in hv.values().iter().zip(&back) {
                prop_assert!((a - b).abs() <= scale * 0.5 + 1e-6);
            }
        }

        #[test]
        fn prop_fp8_idempotent(x in -500.0f32..500.0) {
            // Quantizing twice gives the same result as quantizing once.
            let once = quantize_fp8_e4m3(x);
            let twice = quantize_fp8_e4m3(once);
            prop_assert_eq!(once, twice);
        }

        #[test]
        fn prop_fp8_monotone_nonexpanding(x in -448.0f32..448.0) {
            // |q(x)| <= |x| never increases by more than half a step and sign is kept.
            let q = quantize_fp8_e4m3(x);
            if x != 0.0 && q != 0.0 {
                prop_assert_eq!(x.signum(), q.signum());
            }
            prop_assert!((q - x).abs() <= (x.abs() * 0.0625).max(0.002) + 1e-6);
        }
    }
}
