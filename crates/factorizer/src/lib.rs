//! # cogsys-factorizer — efficient symbolic codebook factorization
//!
//! Implements the CogSys algorithm-level contribution (paper Sec. IV): an iterative,
//! resonator-network-style factorizer that decomposes an entangled query vector
//! `q = x_1 ⊙ x_2 ⊙ ... ⊙ x_F` into one codevector per attribute codebook, *without*
//! materialising the `M^F`-entry product codebook. Each iteration performs three steps
//! (Fig. 8):
//!
//! 1. **Factor unbinding** — `x̃_i(t) = q ⊘ Π_{f≠i} x̂_f(t)`
//! 2. **Similarity search** — `α_f(t) = x̃_f(t) · X_f`
//! 3. **Factor projection** — `x̂_f(t+1) = sign(α_f(t) · X_fᵀ)`
//!
//! plus the Sec. IV-B optimisations: additive zero-mean **stochasticity** on steps 2
//! and 3 (a bounded triangular kernel in this implementation — escapes limit cycles,
//! reduces iteration count) and reduced-precision (**FP8 / INT8**) execution of all
//! three steps.
//!
//! The baseline it replaces, the expanded product codebook searched exhaustively, is
//! [`cogsys_vsa::ProductCodebook`]; [`FactorizationCost`] puts the two side by side
//! for the Fig. 8 comparison.
//!
//! # Example
//!
//! ```rust
//! use cogsys_vsa::{codebook::BindingOp, CodebookSet};
//! use cogsys_factorizer::{Factorizer, FactorizerConfig};
//!
//! let mut rng = cogsys_vsa::rng(1);
//! let set = CodebookSet::random(&[8, 8, 8], 1024, BindingOp::Hadamard, &mut rng);
//! let query = set.bind_indices(&[3, 5, 1]).unwrap();
//!
//! let factorizer = Factorizer::new(FactorizerConfig::default());
//! let result = factorizer.factorize(&set, &query, &mut rng).unwrap();
//! assert_eq!(result.indices, vec![3, 5, 1]);
//! assert!(result.converged);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod metrics;
pub mod resonator;

pub use config::{FactorizerConfig, StochasticityConfig};
pub use metrics::{AccuracyReport, FactorizationCost, WorkloadStats};
pub use resonator::{BoundedNoise, FactorizationResult, Factorizer, FactorizerScratch};
