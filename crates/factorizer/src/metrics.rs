//! Accuracy and cost accounting for the factorization strategy.
//!
//! These helpers produce the quantities behind Fig. 8 (memory-footprint and runtime
//! reduction of factorization vs. the expanded product codebook), Tab. VII
//! (factorization accuracy across reasoning scenarios) and Tab. VIII (end-to-end
//! reasoning accuracy and parameter counts).

use crate::config::FactorizerConfig;
use crate::resonator::Factorizer;
use cogsys_vsa::codebook::CodebookSet;
use cogsys_vsa::{ops, Precision, VsaError};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Compute / memory cost comparison between the brute-force product-codebook search and
/// the iterative factorization (both in number of multiply–accumulate operations and in
/// bytes of codebook storage).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FactorizationCost {
    /// Bytes needed to store the expanded product codebook.
    pub product_codebook_bytes: usize,
    /// Bytes needed to store the per-attribute codebooks.
    pub factored_codebook_bytes: usize,
    /// MAC operations for one brute-force query (similarity against every product vector).
    pub product_macs_per_query: u64,
    /// MAC operations for one factorized query at the given average iteration count.
    pub factored_macs_per_query: u64,
    /// Average number of factorizer iterations this estimate assumed.
    pub assumed_iterations: f64,
}

impl FactorizationCost {
    /// Estimates the cost comparison for a codebook set.
    ///
    /// * `precision` sets bytes/element for the storage comparison.
    /// * `avg_iterations` is the measured (or assumed) mean number of factorizer
    ///   iterations per query.
    pub fn estimate(set: &CodebookSet, precision: Precision, avg_iterations: f64) -> Self {
        let d = set.dim() as u64;
        let combos = set.combinations() as u64;
        let bytes = precision.bytes_per_element();

        // Brute force: one dot product of length d per product vector. Saturates with
        // the combination count on product spaces past u64.
        let product_macs = combos.saturating_mul(d);

        // Factorized: per iteration and per factor — unbinding (F-1 element-wise
        // multiplies of length d), similarity GEMV (M_f x d), projection GEMV (M_f x d).
        let f = set.num_factors() as u64;
        let per_iter: u64 = set
            .codebooks()
            .iter()
            .map(|cb| {
                let m = cb.len() as u64;
                (f - 1) * d + 2 * m * d
            })
            .sum();
        let factored_macs = (per_iter as f64 * avg_iterations).round() as u64;

        Self {
            product_codebook_bytes: set.product_footprint_bytes(bytes),
            factored_codebook_bytes: set.footprint_bytes(bytes),
            product_macs_per_query: product_macs,
            factored_macs_per_query: factored_macs,
            assumed_iterations: avg_iterations,
        }
    }

    /// Memory-footprint reduction factor (paper Fig. 8 reports 71.4× for NVSA).
    pub fn memory_reduction(&self) -> f64 {
        if self.factored_codebook_bytes == 0 {
            return f64::INFINITY;
        }
        self.product_codebook_bytes as f64 / self.factored_codebook_bytes as f64
    }

    /// Compute (MAC-count) reduction factor, a proxy for the 4.1× runtime reduction.
    pub fn compute_reduction(&self) -> f64 {
        if self.factored_macs_per_query == 0 {
            return f64::INFINITY;
        }
        self.product_macs_per_query as f64 / self.factored_macs_per_query as f64
    }
}

/// Aggregate statistics from a batch of factorization runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct WorkloadStats {
    /// Number of queries evaluated.
    pub queries: usize,
    /// Number of queries whose full attribute tuple was decoded exactly.
    pub exact_matches: usize,
    /// Number of queries that reached the convergence threshold.
    pub converged: usize,
    /// Total factorizer iterations across all queries.
    pub total_iterations: usize,
    /// Number of runs that ended in a detected limit cycle.
    pub limit_cycles: usize,
}

impl WorkloadStats {
    /// Fraction of queries decoded exactly.
    pub fn accuracy(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        self.exact_matches as f64 / self.queries as f64
    }

    /// Fraction of queries that converged.
    pub fn convergence_rate(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        self.converged as f64 / self.queries as f64
    }

    /// Mean iterations per query.
    pub fn mean_iterations(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        self.total_iterations as f64 / self.queries as f64
    }

    /// Merges another batch into this one.
    pub fn merge(&mut self, other: &WorkloadStats) {
        self.queries += other.queries;
        self.exact_matches += other.exact_matches;
        self.converged += other.converged;
        self.total_iterations += other.total_iterations;
        self.limit_cycles += other.limit_cycles;
    }
}

/// A named accuracy measurement (one cell of Tab. VII / VIII).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracyReport {
    /// Scenario name, e.g. `"2x2Grid"` or `"RAVEN"`.
    pub scenario: String,
    /// Statistics over the evaluated queries.
    pub stats: WorkloadStats,
}

impl AccuracyReport {
    /// Runs the factorizer over `trials` randomly drawn attribute tuples with bit-flip
    /// perception noise `noise_p`, and reports accuracy.
    ///
    /// Each trial draws a random index per factor, binds the codevectors into a query,
    /// applies flip noise (emulating the imperfect neural frontend), factorizes, and
    /// scores an exact match when every decoded index is correct.
    ///
    /// # Errors
    /// Propagates [`VsaError`] from the underlying VSA operations.
    pub fn evaluate<R: Rng + ?Sized>(
        scenario: impl Into<String>,
        set: &CodebookSet,
        config: &FactorizerConfig,
        trials: usize,
        noise_p: f64,
        rng: &mut R,
    ) -> Result<Self, VsaError> {
        let factorizer = Factorizer::new(config.clone());
        let mut stats = WorkloadStats::default();
        for _ in 0..trials {
            let indices: Vec<usize> = set
                .codebooks()
                .iter()
                .map(|cb| rng.gen_range(0..cb.len()))
                .collect();
            let clean = set.bind_indices(&indices)?;
            let query = if noise_p > 0.0 {
                ops::flip_noise(&clean, noise_p, rng)
            } else {
                clean
            };
            let result = factorizer.factorize(set, &query, rng)?;
            stats.queries += 1;
            stats.total_iterations += result.iterations;
            if result.converged {
                stats.converged += 1;
            }
            if result.limit_cycle {
                stats.limit_cycles += 1;
            }
            if result.matches(&indices) {
                stats.exact_matches += 1;
            }
        }
        Ok(Self {
            scenario: scenario.into(),
            stats,
        })
    }

    /// Accuracy as a percentage, the unit used in the paper's tables.
    pub fn accuracy_percent(&self) -> f64 {
        self.stats.accuracy() * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cogsys_vsa::codebook::BindingOp;
    use cogsys_vsa::rng;

    #[test]
    fn cost_estimate_shows_large_reductions_for_nvsa_like_codebooks() {
        // NVSA-style attribute structure: position-like, number, type, size, color.
        let mut r = rng(40);
        let set = CodebookSet::random(&[9, 9, 7, 10, 10], 1024, BindingOp::Hadamard, &mut r);
        let cost = FactorizationCost::estimate(&set, Precision::Fp32, 15.0);
        assert!(
            cost.memory_reduction() > 50.0,
            "{}",
            cost.memory_reduction()
        );
        assert!(
            cost.compute_reduction() > 5.0,
            "{}",
            cost.compute_reduction()
        );
        assert_eq!(cost.assumed_iterations, 15.0);
        // Factored codebook: (9+9+7+10+10) * 1024 * 4 bytes.
        assert_eq!(cost.factored_codebook_bytes, 45 * 1024 * 4);
    }

    #[test]
    fn cost_reductions_grow_with_factor_count() {
        let mut r = rng(41);
        let small = CodebookSet::random(&[8, 8], 512, BindingOp::Hadamard, &mut r);
        let large = CodebookSet::random(&[8, 8, 8, 8], 512, BindingOp::Hadamard, &mut r);
        let c_small = FactorizationCost::estimate(&small, Precision::Fp32, 10.0);
        let c_large = FactorizationCost::estimate(&large, Precision::Fp32, 10.0);
        assert!(c_large.memory_reduction() > c_small.memory_reduction());
    }

    #[test]
    fn cost_of_an_overflowing_product_space_saturates() {
        // Four 65,536-value attributes span 2^64 combinations, which a wrapping
        // product reports as 0 bytes.
        let cb = cogsys_vsa::Codebook::random("wide", 1 << 16, 8, &mut rng(44));
        let set = CodebookSet::new(vec![cb; 4], BindingOp::Hadamard).unwrap();
        let cost = FactorizationCost::estimate(&set, Precision::Fp32, 2.0);
        assert_eq!(cost.product_codebook_bytes, usize::MAX);
        assert_eq!(cost.product_macs_per_query, u64::MAX);
        assert!(cost.memory_reduction() > 1e12);
    }

    #[test]
    fn workload_stats_arithmetic() {
        let mut a = WorkloadStats {
            queries: 10,
            exact_matches: 9,
            converged: 10,
            total_iterations: 50,
            limit_cycles: 0,
        };
        assert!((a.accuracy() - 0.9).abs() < 1e-12);
        assert!((a.convergence_rate() - 1.0).abs() < 1e-12);
        assert!((a.mean_iterations() - 5.0).abs() < 1e-12);
        let b = WorkloadStats {
            queries: 10,
            exact_matches: 7,
            converged: 8,
            total_iterations: 150,
            limit_cycles: 2,
        };
        a.merge(&b);
        assert_eq!(a.queries, 20);
        assert_eq!(a.exact_matches, 16);
        assert_eq!(a.limit_cycles, 2);
        assert!((a.mean_iterations() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let s = WorkloadStats::default();
        assert_eq!(s.accuracy(), 0.0);
        assert_eq!(s.convergence_rate(), 0.0);
        assert_eq!(s.mean_iterations(), 0.0);
    }

    #[test]
    fn accuracy_evaluation_on_clean_queries_is_high() {
        let mut r = rng(42);
        let set = CodebookSet::random(&[8, 8, 8], 1024, BindingOp::Hadamard, &mut r);
        let report =
            AccuracyReport::evaluate("unit", &set, &FactorizerConfig::default(), 20, 0.0, &mut r)
                .unwrap();
        assert!(
            report.accuracy_percent() >= 95.0,
            "{}",
            report.accuracy_percent()
        );
        assert_eq!(report.stats.queries, 20);
        assert_eq!(report.scenario, "unit");
    }

    #[test]
    fn accuracy_degrades_gracefully_with_noise() {
        let mut r = rng(43);
        let set = CodebookSet::random(&[6, 6], 512, BindingOp::Hadamard, &mut r);
        let clean =
            AccuracyReport::evaluate("clean", &set, &FactorizerConfig::default(), 15, 0.0, &mut r)
                .unwrap();
        let very_noisy = AccuracyReport::evaluate(
            "noisy",
            &set,
            &FactorizerConfig::default(),
            15,
            0.45,
            &mut r,
        )
        .unwrap();
        assert!(clean.stats.accuracy() >= very_noisy.stats.accuracy());
    }
}
