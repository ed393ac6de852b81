//! # cogsys-vsa — Vector-Symbolic Architecture substrate
//!
//! This crate implements the hypervector algebra that every other part of the CogSys
//! reproduction builds on: dense hypervectors, binding via circular convolution or
//! element-wise (Hadamard) multiplication, unbinding via circular correlation, bundling,
//! permutation, similarity search, attribute codebooks, and reduced-precision
//! (FP8 / INT8) arithmetic.
//!
//! The paper (Sec. II-C) describes symbolic knowledge as a set of attribute codebooks
//! whose codevectors are combined by *binding* into product vectors representing
//! composite objects; queries produced by the neural frontend are compared against
//! codebooks by cosine similarity. The key compute kernel is block-wise **circular
//! convolution**:
//!
//! ```text
//! C[n] = sum_{k=0}^{N-1} A[k] * B[(n - k) mod N]
//! ```
//!
//! # Example
//!
//! ```rust
//! use cogsys_vsa::{Hypervector, ops};
//!
//! let mut rng = cogsys_vsa::rng(7);
//! let a = Hypervector::random_bipolar(512, &mut rng);
//! let b = Hypervector::random_bipolar(512, &mut rng);
//! // Bind the two symbols; the result is dissimilar to both factors...
//! let bound = ops::circular_convolve(&a, &b);
//! assert!(ops::cosine_similarity(&bound, &a).abs() < 0.2);
//! // ...but correlating with one factor approximately recovers the other.
//! let recovered = ops::circular_correlate(&bound, &a);
//! assert!(ops::cosine_similarity(&recovered, &b) > 0.5);
//! ```
//!
//! # Batched execution
//!
//! The scalar functions above are the ground truth; production paths go through the
//! [`batch`] module, which phrases the same algebra over contiguous row-major batches
//! ([`HvMatrix`]) as one `f32` kernel set, the [`ReferenceBackend`]'s methods — the
//! software analogue of the paper's array-level batch kernels (Sec. IV–VI).
//!
//! For bipolar `{-1, +1}` data under the MAP/Hadamard algebra, the [`packed`] module
//! stores sign planes instead of floats ([`BitMatrix`], 32× smaller) and runs the
//! similarity, cleanup and resonator kernels as word-wise XOR and popcount
//! ([`PackedBackend`], [`BackendKind::Packed`] — the **default** backend). A bipolar
//! [`Codebook`] caches its sign planes at construction, and its one search,
//! [`Codebook::cleanup_batch_bits_into`], scans them with pre-packed [`BitMatrix`]
//! queries, so nothing is packed per call:
//!
//! ```rust
//! use cogsys_vsa::{BitMatrix, CleanupScratch, Codebook, Hypervector, ops};
//!
//! let mut rng = cogsys_vsa::rng(7);
//! let codebook = Codebook::random("color", 16, 256, &mut rng);
//!
//! // A batch of noisy queries, one per row, packed once.
//! let queries: Vec<Hypervector> = (0..8)
//!     .map(|i| ops::flip_noise(&codebook.vector(i).unwrap(), 0.2, &mut rng))
//!     .collect();
//! let batch = BitMatrix::from_hypervectors(&queries).unwrap();
//!
//! // One batched cleanup replaces eight vector-at-a-time searches.
//! let mut decoded = Vec::new();
//! codebook
//!     .cleanup_batch_bits_into(&batch, &mut CleanupScratch::default(), &mut decoded)
//!     .unwrap();
//! for (i, (index, similarity)) in decoded.iter().enumerate() {
//!     assert_eq!(*index, i);
//!     assert!(*similarity > 0.4);
//! }
//! ```
//!
//! The codebook's `f32` rows ([`Codebook::matrix`]) stay the operand of the
//! [`ReferenceBackend`] kernels, the oracles every sign-plane kernel is tested
//! against. Layers with two resonator engines take a [`VsaBackend`] and probe it
//! for the packed route.

// Unsafe is denied crate-wide; the single exception is the runtime-dispatched SIMD
// kernel module `packed::simd` (the Hamming register tiles — scalar `popcnt`,
// AVX2 lookup popcount, AVX-512 `vpopcntq` — plus the AVX2/AVX-512 sign
// projection, sign pack and noise mask; `#[target_feature]` functions cannot be called or coerced without
// `unsafe` even when the feature was verified via cpuid, and the vector load/store
// intrinsics take raw pointers), which carries a scoped `#![allow(unsafe_code)]`
// and per-call safety arguments.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod codebook;
pub mod error;
pub mod fft;
pub mod hypervector;
pub mod ops;
pub mod packed;
pub mod quant;

pub use batch::{BackendKind, HvMatrix, ReferenceBackend, VsaBackend};
pub use codebook::{Codebook, CodebookSet, ProductCodebook};
pub use error::VsaError;
pub use hypervector::Hypervector;
pub use packed::{
    dispatch_tier, projection_tier, BitMatrix, CleanupScratch, DispatchTier, PackedBackend,
    ProjectionVerdict, ResonatePhase,
};
pub use quant::Precision;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Convenience constructor for a deterministic random-number generator.
///
/// All stochastic components of the reproduction (codebook generation, noise injection,
/// dataset synthesis) take an explicit `&mut impl Rng` so experiments are reproducible;
/// this helper gives callers a seeded [`StdRng`] without importing `rand` themselves.
///
/// # Example
/// ```
/// let mut rng = cogsys_vsa::rng(42);
/// let hv = cogsys_vsa::Hypervector::random_bipolar(64, &mut rng);
/// assert_eq!(hv.dim(), 64);
/// ```
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}
