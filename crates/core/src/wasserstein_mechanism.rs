//! The Wasserstein Mechanism (Algorithm 1 of the paper): the first privacy
//! mechanism that applies to any Pufferfish instantiation.

use pufferfish_parallel::{try_par_map, Parallelism};
use pufferfish_transport::{wasserstein_infinity, DiscreteDistribution};

use crate::framework::DiscretePufferfishFramework;
use crate::mechanism::{Mechanism, PrivacyBudget};
use crate::queries::LipschitzQuery;
use crate::snapshot::{MechanismState, ScaleForm, ValidationForm};
use crate::{PufferfishError, Result};

/// A calibrated Wasserstein Mechanism.
///
/// Calibration iterates over every secret pair `(s_i, s_j) ∈ Q` and every
/// scenario `θ ∈ Θ`, forms the conditional distributions `P(F(X) | s_i, θ)`
/// and `P(F(X) | s_j, θ)` of the scalar query value, and computes their
/// ∞-Wasserstein distance. The released value is `F(D) + Lap(W / ε)`, where
/// `W` is the supremum of those distances (Theorem 3.2 establishes
/// ε-Pufferfish privacy; Theorem 3.3 shows `W` never exceeds the group-DP
/// sensitivity).
#[derive(Debug, Clone)]
pub struct WassersteinMechanism {
    state: MechanismState,
    wasserstein_parameter: f64,
    /// Index of the (pair, scenario) combination that attained the supremum,
    /// useful for debugging and reporting.
    worst_case: Option<(usize, usize)>,
}

impl WassersteinMechanism {
    /// Calibrates the mechanism for a scalar query over the given framework.
    ///
    /// # Errors
    /// * [`PufferfishError::InvalidQuery`] if the query is not scalar or its
    ///   expected length differs from the framework's record length.
    /// * [`PufferfishError::CannotCalibrate`] if no secret pair has positive
    ///   probability under any scenario (the framework constrains nothing).
    /// * Query-evaluation and transport errors are propagated.
    pub fn calibrate(
        framework: &DiscretePufferfishFramework,
        query: &dyn LipschitzQuery,
        budget: PrivacyBudget,
    ) -> Result<Self> {
        Self::calibrate_with(framework, query, budget, Parallelism::default())
    }

    /// [`WassersteinMechanism::calibrate`] with an explicit parallelism
    /// policy for the `(secret pair, scenario)` sweep.
    ///
    /// The sweep is embarrassingly parallel; results are folded in the same
    /// deterministic `(pair, scenario)` order as the serial loop, so every
    /// policy produces a bitwise-identical `W` and `worst_case`.
    ///
    /// # Errors
    /// Same as [`WassersteinMechanism::calibrate`].
    pub fn calibrate_with(
        framework: &DiscretePufferfishFramework,
        query: &dyn LipschitzQuery,
        budget: PrivacyBudget,
        parallelism: Parallelism,
    ) -> Result<Self> {
        if query.output_dimension() != 1 {
            return Err(PufferfishError::InvalidQuery(format!(
                "the Wasserstein Mechanism releases scalar queries; got dimension {}",
                query.output_dimension()
            )));
        }
        if query.expected_length() != framework.record_length() {
            return Err(PufferfishError::InvalidQuery(format!(
                "query expects databases of length {}, framework uses {}",
                query.expected_length(),
                framework.record_length()
            )));
        }

        // Enumerate the sweep jobs up front (pair-major, scenario-minor, the
        // historical serial order) so the parallel map's output can be folded
        // identically to the serial loop.
        let jobs: Vec<(usize, usize)> = (0..framework.secret_pairs().len())
            .flat_map(|pair_index| {
                (0..framework.scenarios().len())
                    .map(move |scenario_index| (pair_index, scenario_index))
            })
            .collect();

        let distances: Vec<Option<f64>> = try_par_map(
            parallelism,
            &jobs,
            |&(pair_index, scenario_index)| -> Result<Option<f64>> {
                let (i, j) = framework.secret_pairs()[pair_index];
                let secret_i = &framework.secrets()[i];
                let secret_j = &framework.secrets()[j];
                let scenario = &framework.scenarios()[scenario_index];
                if scenario.secret_probability(secret_i) <= 0.0
                    || scenario.secret_probability(secret_j) <= 0.0
                {
                    return Ok(None);
                }
                let mut eval = |db: &[usize]| Ok(query.evaluate(db)?[0]);
                let values_i = scenario.conditional_query_values(&mut eval, secret_i)?;
                let values_j = scenario.conditional_query_values(&mut eval, secret_j)?;
                let mu_i = build_distribution(&values_i)?;
                let mu_j = build_distribution(&values_j)?;
                Ok(Some(wasserstein_infinity(&mu_i, &mu_j)?))
            },
        )?;

        let mut worst: f64 = 0.0;
        let mut worst_case = None;
        let mut any_pair_applied = false;
        for (&(pair_index, scenario_index), distance) in jobs.iter().zip(&distances) {
            if let Some(distance) = *distance {
                any_pair_applied = true;
                if distance > worst {
                    worst = distance;
                    worst_case = Some((pair_index, scenario_index));
                }
            }
        }

        if !any_pair_applied {
            return Err(PufferfishError::CannotCalibrate(
                "no secret pair has positive probability under any scenario".to_string(),
            ));
        }

        Ok(WassersteinMechanism {
            state: MechanismState {
                family: "wasserstein",
                epsilon: budget.epsilon(),
                scale: ScaleForm::Fixed {
                    scale: worst / budget.epsilon(),
                },
                validation: ValidationForm::QueryLength,
            },
            wasserstein_parameter: worst,
            worst_case,
        })
    }

    /// The calibrated parameter `W = sup_{(s_i,s_j) ∈ Q, θ ∈ Θ} W∞(μ_i, μ_j)`.
    pub fn wasserstein_parameter(&self) -> f64 {
        self.wasserstein_parameter
    }

    /// The Laplace scale `W / ε` that will be added to the query value.
    pub fn noise_scale(&self) -> f64 {
        self.wasserstein_parameter / self.state.epsilon
    }

    /// The `(secret pair index, scenario index)` attaining the supremum, if
    /// any distance was strictly positive.
    pub fn worst_case(&self) -> Option<(usize, usize)> {
        self.worst_case
    }
}

impl Mechanism for WassersteinMechanism {
    fn state(&self) -> &MechanismState {
        &self.state
    }
}

fn build_distribution(values: &[(f64, f64)]) -> Result<DiscreteDistribution> {
    let (support, probabilities): (Vec<f64>, Vec<f64>) = values.iter().copied().unzip();
    Ok(DiscreteDistribution::new(support, probabilities)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{DiscreteScenario, Secret};
    use crate::queries::StateCountQuery;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Builds the 4-person flu clique of Section 3 with the paper's symmetric
    /// distribution over the number of infected people.
    fn flu_framework() -> DiscretePufferfishFramework {
        crate::flu::flu_clique_framework(4, &[0.1, 0.15, 0.5, 0.15, 0.1]).unwrap()
    }

    #[test]
    fn flu_example_has_wasserstein_parameter_two() {
        // Section 3: "In this case, the parameter W in Algorithm 1 is 2".
        let framework = flu_framework();
        let query = StateCountQuery::new(1, 4);
        let mechanism =
            WassersteinMechanism::calibrate(&framework, &query, PrivacyBudget::new(1.0).unwrap())
                .unwrap();
        assert!(
            (mechanism.wasserstein_parameter() - 2.0).abs() < 1e-9,
            "W = {}",
            mechanism.wasserstein_parameter()
        );
        assert!((mechanism.noise_scale() - 2.0).abs() < 1e-9);
        assert_eq!(mechanism.epsilon(), 1.0);
        assert!(mechanism.worst_case().is_some());
        // Group DP would add Lap(4/eps): the Wasserstein Mechanism is
        // strictly better (Theorem 3.3).
        assert!(mechanism.wasserstein_parameter() < 4.0);
    }

    #[test]
    fn scale_shrinks_with_larger_epsilon() {
        let framework = flu_framework();
        let query = StateCountQuery::new(1, 4);
        let tight =
            WassersteinMechanism::calibrate(&framework, &query, PrivacyBudget::new(0.5).unwrap())
                .unwrap();
        let loose =
            WassersteinMechanism::calibrate(&framework, &query, PrivacyBudget::new(5.0).unwrap())
                .unwrap();
        assert!(tight.noise_scale() > loose.noise_scale());
        // W itself does not depend on epsilon.
        assert!((tight.wasserstein_parameter() - loose.wasserstein_parameter()).abs() < 1e-12);
    }

    #[test]
    fn release_adds_noise_with_the_right_magnitude() {
        let framework = flu_framework();
        let query = StateCountQuery::new(1, 4);
        let mechanism =
            WassersteinMechanism::calibrate(&framework, &query, PrivacyBudget::new(1.0).unwrap())
                .unwrap();
        let database = vec![1, 0, 1, 0];
        let mut rng = StdRng::seed_from_u64(2);
        let trials = 20_000;
        let mut total_abs_error = 0.0;
        for _ in 0..trials {
            let release = mechanism.release(&query, &database, &mut rng).unwrap();
            assert_eq!(release.true_values, vec![2.0]);
            assert_eq!(release.scale, 2.0);
            total_abs_error += release.l1_error();
        }
        // Mean |Lap(2)| = 2.
        let mean_error = total_abs_error / trials as f64;
        assert!((mean_error - 2.0).abs() < 0.1, "mean error {mean_error}");
    }

    #[test]
    fn independent_records_reduce_to_differential_privacy() {
        // With independent records the Wasserstein Mechanism collapses to the
        // Laplace mechanism: for a count query, W equals the sensitivity 1.
        let outcomes = vec![
            (vec![0, 0], 0.25),
            (vec![0, 1], 0.25),
            (vec![1, 0], 0.25),
            (vec![1, 1], 0.25),
        ];
        let scenario = DiscreteScenario::new("independent", outcomes).unwrap();
        let secrets = vec![Secret::record_equals(0, 0), Secret::record_equals(0, 1)];
        let framework =
            DiscretePufferfishFramework::new(vec![scenario], secrets, vec![(0, 1)]).unwrap();
        let query = StateCountQuery::new(1, 2);
        let mechanism =
            WassersteinMechanism::calibrate(&framework, &query, PrivacyBudget::new(1.0).unwrap())
                .unwrap();
        assert!((mechanism.wasserstein_parameter() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn perfectly_correlated_pair_needs_more_noise_than_dp() {
        // Two records that are always equal: changing the secret about record
        // 0 moves the count by 2, so W = 2 (where DP's entry sensitivity
        // would be 1 and would under-protect).
        let outcomes = vec![(vec![0, 0], 0.5), (vec![1, 1], 0.5)];
        let scenario = DiscreteScenario::new("copied", outcomes).unwrap();
        let secrets = vec![Secret::record_equals(0, 0), Secret::record_equals(0, 1)];
        let framework =
            DiscretePufferfishFramework::new(vec![scenario], secrets, vec![(0, 1)]).unwrap();
        let query = StateCountQuery::new(1, 2);
        let mechanism =
            WassersteinMechanism::calibrate(&framework, &query, PrivacyBudget::new(1.0).unwrap())
                .unwrap();
        assert!((mechanism.wasserstein_parameter() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn calibration_validation() {
        let framework = flu_framework();
        // Vector query rejected.
        let histogram = crate::queries::RelativeFrequencyHistogram::new(2, 4).unwrap();
        assert!(matches!(
            WassersteinMechanism::calibrate(
                &framework,
                &histogram,
                PrivacyBudget::new(1.0).unwrap()
            ),
            Err(PufferfishError::InvalidQuery(_))
        ));
        // Wrong record length rejected.
        let wrong_len = StateCountQuery::new(1, 7);
        assert!(WassersteinMechanism::calibrate(
            &framework,
            &wrong_len,
            PrivacyBudget::new(1.0).unwrap()
        )
        .is_err());

        // A framework where the only secret pair never has positive
        // probability cannot be calibrated.
        let outcomes = vec![(vec![0, 0], 1.0)];
        let scenario = DiscreteScenario::new("deterministic", outcomes).unwrap();
        let secrets = vec![Secret::record_equals(0, 1), Secret::record_equals(1, 1)];
        let degenerate =
            DiscretePufferfishFramework::new(vec![scenario], secrets, vec![(0, 1)]).unwrap();
        let query = StateCountQuery::new(1, 2);
        assert!(matches!(
            WassersteinMechanism::calibrate(&degenerate, &query, PrivacyBudget::new(1.0).unwrap()),
            Err(PufferfishError::CannotCalibrate(_))
        ));
    }

    #[test]
    fn zero_wasserstein_parameter_releases_exact_value() {
        // A query that is constant over all databases: W = 0, no noise.
        #[derive(Debug)]
        struct ConstantQuery;
        impl LipschitzQuery for ConstantQuery {
            fn lipschitz_constant(&self) -> f64 {
                0.0
            }
            fn output_dimension(&self) -> usize {
                1
            }
            fn expected_length(&self) -> usize {
                4
            }
            fn evaluate(&self, _database: &[usize]) -> Result<Vec<f64>> {
                Ok(vec![42.0])
            }
            fn name(&self) -> &str {
                "constant"
            }
        }
        let framework = flu_framework();
        let mechanism = WassersteinMechanism::calibrate(
            &framework,
            &ConstantQuery,
            PrivacyBudget::new(1.0).unwrap(),
        )
        .unwrap();
        assert_eq!(mechanism.wasserstein_parameter(), 0.0);
        let mut rng = StdRng::seed_from_u64(0);
        let release = mechanism
            .release(&ConstantQuery, &[1, 0, 1, 0], &mut rng)
            .unwrap();
        assert_eq!(release.values, vec![42.0]);
        assert_eq!(release.scale, 0.0);
    }
}
