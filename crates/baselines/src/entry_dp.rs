//! Entry differential privacy via the Laplace mechanism.

use rand::Rng;

use pufferfish_core::queries::LipschitzQuery;
use pufferfish_core::snapshot::{MechanismState, ScaleForm, ValidationForm};
use pufferfish_core::{Laplace, Mechanism, NoisyRelease, PrivacyBudget, PufferfishError, Result};

/// The classical Laplace mechanism: adds `Lap(Δ / ε)` to every coordinate,
/// where `Δ` is an L1 sensitivity.
///
/// Two constructors cover the paper's two uses:
///
/// * [`EntryDp::for_query`] — entry DP / coupled-worlds style protection of a
///   single record of a time series, with `Δ = L` (the query's Lipschitz
///   constant);
/// * [`EntryDp::with_sensitivity`] — protection of one *participant* in an
///   aggregate over `n` participants (the "DP" row of Table 1), where the
///   caller supplies the participant-level sensitivity (e.g. `2/n` for an
///   averaged relative-frequency histogram).
#[derive(Debug, Clone, PartialEq)]
pub struct EntryDp {
    state: MechanismState,
    sensitivity: f64,
}

impl EntryDp {
    /// Calibrates for the supplied L1 sensitivity.
    ///
    /// # Errors
    /// [`PufferfishError::CannotCalibrate`] for a non-positive or non-finite
    /// sensitivity.
    pub fn with_sensitivity(sensitivity: f64, budget: PrivacyBudget) -> Result<Self> {
        if !sensitivity.is_finite() || sensitivity <= 0.0 {
            return Err(PufferfishError::CannotCalibrate(format!(
                "sensitivity must be positive and finite, got {sensitivity}"
            )));
        }
        Ok(EntryDp {
            state: MechanismState {
                family: "entry-dp",
                epsilon: budget.epsilon(),
                scale: ScaleForm::Fixed {
                    scale: sensitivity / budget.epsilon(),
                },
                validation: ValidationForm::QueryLength,
            },
            sensitivity,
        })
    }

    /// Calibrates for entry-level protection of the given query
    /// (`Δ = L`, the query's Lipschitz constant).
    ///
    /// # Errors
    /// Same as [`EntryDp::with_sensitivity`].
    pub fn for_query(query: &dyn LipschitzQuery, budget: PrivacyBudget) -> Result<Self> {
        Self::with_sensitivity(query.lipschitz_constant(), budget)
    }

    /// The Laplace scale `Δ / ε`.
    pub fn noise_scale(&self) -> f64 {
        self.sensitivity / self.state.epsilon
    }

    /// Adds calibrated noise to an already-computed vector of values.
    ///
    /// # Errors
    /// Never fails for a valid calibration; kept fallible for interface
    /// symmetry.
    pub fn privatize<R: Rng + ?Sized>(&self, values: &[f64], rng: &mut R) -> Result<NoisyRelease> {
        let laplace = Laplace::new(self.noise_scale())?;
        let mut noise = vec![0.0; values.len()];
        laplace.sample_into(&mut noise, rng);
        let noisy = values.iter().zip(&noise).map(|(v, n)| v + n).collect();
        Ok(NoisyRelease {
            values: noisy,
            true_values: values.to_vec(),
            scale: self.noise_scale(),
        })
    }
}

impl Mechanism for EntryDp {
    fn state(&self) -> &MechanismState {
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pufferfish_core::queries::RelativeFrequencyHistogram;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn calibration() {
        let budget = PrivacyBudget::new(2.0).unwrap();
        let dp = EntryDp::with_sensitivity(1.0, budget).unwrap();
        assert!((dp.noise_scale() - 0.5).abs() < 1e-12);
        assert_eq!(dp.epsilon(), 2.0);
        assert!(EntryDp::with_sensitivity(0.0, budget).is_err());
        assert!(EntryDp::with_sensitivity(f64::NAN, budget).is_err());

        let query = RelativeFrequencyHistogram::new(4, 100).unwrap();
        let dp = EntryDp::for_query(&query, budget).unwrap();
        assert!((dp.noise_scale() - 0.02 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn release_noise_magnitude() {
        let budget = PrivacyBudget::new(1.0).unwrap();
        let query = RelativeFrequencyHistogram::new(2, 50).unwrap();
        let dp = EntryDp::for_query(&query, budget).unwrap();
        let database: Vec<usize> = (0..50).map(|i| i % 2).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let mut total = 0.0;
        let trials = 5_000;
        for _ in 0..trials {
            let release = dp.release(&query, &database, &mut rng).unwrap();
            assert_eq!(release.values.len(), 2);
            total += release.l1_error();
        }
        // Each of 2 bins gets |Lap(0.04)| with mean 0.04: expected L1 error 0.08.
        let mean = total / trials as f64;
        assert!((mean - 0.08).abs() < 0.01, "mean error {mean}");
    }

    #[test]
    fn privatize_preserves_true_values() {
        let dp = EntryDp::with_sensitivity(0.5, PrivacyBudget::new(1.0).unwrap()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let release = dp.privatize(&[1.0, 2.0, 3.0], &mut rng).unwrap();
        assert_eq!(release.true_values, vec![1.0, 2.0, 3.0]);
        assert_eq!(release.values.len(), 3);
        assert!((release.scale - 0.5).abs() < 1e-12);
    }
}
