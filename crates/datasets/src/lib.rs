//! # cogsys-datasets — synthetic spatial-temporal reasoning task generators
//!
//! The paper evaluates on RAVEN, I-RAVEN, PGM, CVR and SVRT — image datasets for
//! Raven's-Progressive-Matrices-style abstract reasoning. We do not ship those images
//! (and the CogSys symbolic pipeline never consumes pixels anyway: its input is the
//! attribute-structured scene representation produced by the neural frontend). This
//! crate therefore generates *attribute-level* reasoning problems with the same
//! structure: panels described by (position, number, type, size, color) attributes, rows
//! governed by RAVEN/PGM rule types (Constant, Progression, Arithmetic,
//! Distribute-Three and the PGM logical rules XOR/AND/OR), candidate answer panels with
//! RAVEN-style or I-RAVEN-style (attribute-bisection, unbiased) distractors, and a
//! perception-noise model that emulates an imperfect neural frontend.
//!
//! # Example
//!
//! ```rust
//! use cogsys_datasets::{DatasetKind, ProblemGenerator};
//!
//! use rand::SeedableRng;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let generator = ProblemGenerator::new(DatasetKind::Raven);
//! let problem = generator.generate(&mut rng);
//! assert_eq!(problem.context.len(), 8);
//! assert_eq!(problem.candidates.len(), 8);
//! // The labelled answer really does complete every row rule.
//! assert!(problem.verify_answer_with(generator.vocab()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod panel;
pub mod problem;
pub mod rules;

pub use panel::{Attribute, AttributeVocab, Panel, ATTRIBUTE_CARDINALITIES, MAX_CARDINALITY};
pub use problem::{Constellation, DatasetKind, Problem, ProblemGenerator};
pub use rules::{Rule, RuleKind, RuleSet};
