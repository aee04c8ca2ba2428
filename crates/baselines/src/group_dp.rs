//! Group differential privacy (Definition 2.2 of the paper).

use pufferfish_core::snapshot::{MechanismState, ScaleForm, ValidationForm};
use pufferfish_core::{Mechanism, PrivacyBudget, PufferfishError, Result};

/// The group-DP baseline ("GroupDP" in the experiments): every record in a
/// correlated group must be protected simultaneously, so the Laplace scale is
/// `L · M / ε`, where `M` is the size of the largest group.
///
/// For a single connected Markov chain the whole series is one group
/// (`M = T`), which is why this baseline destroys utility on long chains;
/// when measurement gaps split the data into several shorter chains, `M` is
/// the length of the longest segment — exactly the preprocessing advantage
/// the paper grants it in Section 5.3.1.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupDp {
    state: MechanismState,
    largest_group: usize,
}

impl GroupDp {
    /// Calibrates for the given largest-group size.
    ///
    /// # Errors
    /// [`PufferfishError::CannotCalibrate`] when `largest_group == 0`.
    pub fn calibrate(largest_group: usize, budget: PrivacyBudget) -> Result<Self> {
        if largest_group == 0 {
            return Err(PufferfishError::CannotCalibrate(
                "largest group must contain at least one record".to_string(),
            ));
        }
        Ok(GroupDp {
            state: MechanismState {
                family: "group-dp",
                epsilon: budget.epsilon(),
                scale: ScaleForm::LipschitzRatio {
                    numerator: largest_group as f64,
                    denominator: budget.epsilon(),
                },
                validation: ValidationForm::QueryLength,
            },
            largest_group,
        })
    }

    /// Calibrates from the segment lengths of a gap-split time series (`M` =
    /// longest segment).
    ///
    /// # Errors
    /// [`PufferfishError::CannotCalibrate`] when there are no segments.
    pub fn from_segments(segment_lengths: &[usize], budget: PrivacyBudget) -> Result<Self> {
        let largest = segment_lengths.iter().copied().max().unwrap_or(0);
        Self::calibrate(largest, budget)
    }

    /// Size of the largest correlated group `M`.
    pub fn largest_group(&self) -> usize {
        self.largest_group
    }
}

impl Mechanism for GroupDp {
    fn state(&self) -> &MechanismState {
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pufferfish_core::queries::{RelativeFrequencyHistogram, StateFrequencyQuery};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn calibration_and_scales() {
        let budget = PrivacyBudget::new(1.0).unwrap();
        assert!(GroupDp::calibrate(0, budget).is_err());
        assert!(GroupDp::from_segments(&[], budget).is_err());

        // A single chain of length 100: the histogram (2/T-Lipschitz) gets
        // scale 2/T * T / eps = 2.
        let group = GroupDp::calibrate(100, budget).unwrap();
        assert_eq!(group.largest_group(), 100);
        assert_eq!(group.epsilon(), 1.0);
        let histogram = RelativeFrequencyHistogram::new(2, 100).unwrap();
        assert!((group.noise_scale_for(&histogram) - 2.0).abs() < 1e-12);

        // The scalar frequency query (1/T-Lipschitz) gets scale 1, matching
        // the "GroupDP has error around 1 for epsilon = 1" remark under
        // Figure 4.
        let frequency = StateFrequencyQuery::new(1, 100);
        assert!((group.noise_scale_for(&frequency) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gap_splitting_reduces_noise() {
        let budget = PrivacyBudget::new(1.0).unwrap();
        let whole = GroupDp::calibrate(9_000, budget).unwrap();
        let split = GroupDp::from_segments(&[3_000, 2_500, 3_500], budget).unwrap();
        assert_eq!(split.largest_group(), 3_500);
        let histogram = RelativeFrequencyHistogram::new(4, 9_000).unwrap();
        assert!(split.noise_scale_for(&histogram) < whole.noise_scale_for(&histogram));
    }

    #[test]
    fn release_has_group_scaled_error() {
        let budget = PrivacyBudget::new(1.0).unwrap();
        let group = GroupDp::calibrate(100, budget).unwrap();
        let query = StateFrequencyQuery::new(1, 100);
        let database: Vec<usize> = (0..100).map(|i| (i / 10) % 2).collect();
        let mut rng = StdRng::seed_from_u64(5);
        let trials = 5_000;
        let mut total = 0.0;
        for _ in 0..trials {
            total += group
                .release(&query, &database, &mut rng)
                .unwrap()
                .l1_error();
        }
        let mean = total / trials as f64;
        // Mean |Lap(1)| = 1.
        assert!((mean - 1.0).abs() < 0.1, "mean error {mean}");
    }
}
