//! Factorizer configuration.

use cogsys_vsa::{BackendKind, Precision};
use serde::{Deserialize, Serialize};

/// Stochasticity-injection settings (paper Sec. IV-B).
///
/// Additive zero-mean noise applied to the similarity vector (Step 2) and to the
/// projected estimate before the sign non-linearity (Step 3) lets the iteration escape
/// limit cycles, exploring a larger solution space and converging in fewer iterations.
/// The kernel is **bounded symmetric triangular** noise of the configured standard
/// deviation (samples never exceed `sqrt(6)·sigma` in magnitude — see
/// `BoundedNoise` in the resonator), chosen over a Gaussian so the projection step
/// can both sample cheaply and provably skip dimensions whose sign cannot flip.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StochasticityConfig {
    /// Standard deviation of the noise added to each similarity score, expressed as a
    /// multiple of `sqrt(d)` (the natural scale of cross-similarities between random
    /// bipolar vectors of dimension `d`). 0 disables similarity noise.
    pub similarity_sigma: f32,
    /// Standard deviation of the noise added to each element of the projected estimate
    /// before `sign`, expressed as a multiple of `sqrt(d)`. 0 disables projection noise.
    pub projection_sigma: f32,
    /// Multiplicative decay applied to both sigmas each iteration, so the search is
    /// exploratory early and deterministic near convergence.
    pub decay: f32,
}

impl StochasticityConfig {
    /// Noise disabled entirely (the "w/o stochasticity" ablation).
    pub fn disabled() -> Self {
        Self {
            similarity_sigma: 0.0,
            projection_sigma: 0.0,
            decay: 1.0,
        }
    }

    /// Returns `true` if any noise is injected.
    pub fn is_enabled(&self) -> bool {
        self.similarity_sigma > 0.0 || self.projection_sigma > 0.0
    }
}

impl Default for StochasticityConfig {
    fn default() -> Self {
        Self {
            similarity_sigma: 0.2,
            projection_sigma: 0.5,
            decay: 0.97,
        }
    }
}

/// Configuration of the iterative factorizer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FactorizerConfig {
    /// Maximum number of unbind → search → project iterations before giving up.
    pub max_iterations: usize,
    /// The iteration stops once the similarity of the reconstructed product vector to
    /// the query exceeds this threshold (cosine similarity in `[0, 1]`). The paper notes
    /// designers "can balance speed and accuracy by tuning factorization convergence
    /// threshold" (Sec. IV-C).
    pub convergence_threshold: f32,
    /// Stochasticity injection settings.
    pub stochasticity: StochasticityConfig,
    /// Arithmetic precision the three factorization steps are executed in.
    pub precision: Precision,
    /// How many past estimate states each row remembers for limit-cycle detection.
    /// After every iteration that does not converge, the row's estimate state (all
    /// factors' sign planes) is fingerprinted; a repeat of any of the last
    /// `limit_cycle_window` fingerprints ends the row as a limit cycle, reporting
    /// its best decode so far. Applies with and without stochasticity; 0 disables
    /// detection, so stuck rows run to `max_iterations`.
    pub limit_cycle_window: usize,
    /// Which batched execution backend runs the three factorization steps.
    ///
    /// The default, [`BackendKind::Packed`], runs the whole resonator loop on
    /// bit-packed sign planes for bipolar Hadamard configurations (XOR unbinding,
    /// popcount similarity, fused packed projection) with decisions identical to
    /// [`BackendKind::Reference`]; HRR/circular binding and non-bipolar operands run
    /// the f32 reference resonator on the reference kernels under either backend.
    pub backend: BackendKind,
}

impl FactorizerConfig {
    /// The "factorization only" ablation: no stochasticity.
    pub fn without_stochasticity() -> Self {
        Self {
            stochasticity: StochasticityConfig::disabled(),
            ..Self::default()
        }
    }

    /// Returns a copy with the arithmetic precision replaced.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Returns a copy with the iteration budget replaced.
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Returns a copy with the execution backend replaced.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Basic sanity checks; returns a human-readable complaint when invalid.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_iterations == 0 {
            return Err("max_iterations must be at least 1".to_string());
        }
        if !(0.0..=1.0).contains(&self.convergence_threshold) {
            return Err(format!(
                "convergence_threshold must be in [0,1], got {}",
                self.convergence_threshold
            ));
        }
        // Written so NaN fails too: a NaN decay would turn both sigmas NaN after the
        // first iteration, which silently disables the noise.
        if !(self.stochasticity.decay > 0.0 && self.stochasticity.decay <= 1.0) {
            return Err(format!(
                "stochasticity decay must be in (0,1], got {}",
                self.stochasticity.decay
            ));
        }
        // The sigmas parameterise the bounded noise kernel deep in the resonator's
        // hot loop; validating here means its amplitude (`sqrt(6)·sigma`) is always
        // finite and non-negative there.
        for (name, sigma) in [
            ("similarity_sigma", self.stochasticity.similarity_sigma),
            ("projection_sigma", self.stochasticity.projection_sigma),
        ] {
            if !sigma.is_finite() || sigma < 0.0 {
                return Err(format!(
                    "stochasticity {name} must be finite and >= 0, got {sigma}"
                ));
            }
        }
        Ok(())
    }
}

impl Default for FactorizerConfig {
    fn default() -> Self {
        Self {
            max_iterations: 200,
            convergence_threshold: 0.9,
            stochasticity: StochasticityConfig::default(),
            precision: Precision::Fp32,
            limit_cycle_window: 4,
            backend: BackendKind::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(FactorizerConfig::default().validate().is_ok());
        assert!(FactorizerConfig::without_stochasticity().validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let c = FactorizerConfig {
            max_iterations: 0,
            ..FactorizerConfig::default()
        };
        assert!(c.validate().is_err());

        let c = FactorizerConfig {
            convergence_threshold: 1.5,
            ..FactorizerConfig::default()
        };
        assert!(c.validate().is_err());

        // Negative or non-finite sigmas must be rejected up front — the resonator
        // derives its noise amplitude from them in its hot loop.
        let mut c = FactorizerConfig::default();
        c.stochasticity.similarity_sigma = -0.1;
        assert!(c.validate().is_err());
        let mut c = FactorizerConfig::default();
        c.stochasticity.projection_sigma = f32::NAN;
        assert!(c.validate().is_err());

        for decay in [0.0, f32::INFINITY, f32::NAN] {
            let mut c = FactorizerConfig::default();
            c.stochasticity.decay = decay; // nested field: no initializer shorthand
            assert!(c.validate().is_err(), "decay {decay}");
        }
    }

    #[test]
    fn stochasticity_toggles() {
        assert!(StochasticityConfig::default().is_enabled());
        assert!(!StochasticityConfig::disabled().is_enabled());
        assert!(!FactorizerConfig::without_stochasticity()
            .stochasticity
            .is_enabled());
    }

    #[test]
    fn builder_style_setters() {
        let c = FactorizerConfig::default()
            .with_precision(Precision::Int8)
            .with_max_iterations(17)
            .with_backend(BackendKind::Reference);
        assert_eq!(c.precision, Precision::Int8);
        assert_eq!(c.max_iterations, 17);
        assert_eq!(c.backend, BackendKind::Reference);
    }
}
