//! Integration test: sequential composition of the Markov Quilt Mechanism
//! (Theorem 4.4) across repeated releases on the same database.

use pufferfish_core::queries::{RelativeFrequencyHistogram, StateFrequencyQuery};
use pufferfish_core::{CompositionAccountant, Mechanism, MqmExact, MqmExactOptions, PrivacyBudget};
use pufferfish_markov::{sample_trajectory, MarkovChain, MarkovChainClass};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn class_and_data(length: usize) -> (MarkovChainClass, Vec<usize>) {
    let chain =
        MarkovChain::with_stationary_initial(vec![vec![0.85, 0.15], vec![0.30, 0.70]]).unwrap();
    let mut rng = StdRng::seed_from_u64(99);
    let data = sample_trajectory(&chain, length, &mut rng).unwrap();
    (MarkovChainClass::singleton(chain), data)
}

/// K releases at epsilon each compose to K * epsilon, and the accountant
/// reports exactly that.
#[test]
fn homogeneous_composition_across_releases() {
    let length = 200;
    let (class, data) = class_and_data(length);
    let per_release = 0.25;
    let budget = PrivacyBudget::new(per_release).unwrap();
    let mechanism =
        MqmExact::calibrate(&class, length, budget, MqmExactOptions::default()).unwrap();

    let histogram = RelativeFrequencyHistogram::new(2, length).unwrap();
    let frequency = StateFrequencyQuery::new(1, length);
    let mut accountant = CompositionAccountant::new();
    let mut rng = StdRng::seed_from_u64(7);

    for round in 0..8 {
        if round % 2 == 0 {
            mechanism.release(&histogram, &data, &mut rng).unwrap();
        } else {
            mechanism.release(&frequency, &data, &mut rng).unwrap();
        }
        accountant.record(mechanism.epsilon());
    }
    assert_eq!(accountant.releases(), 8);
    assert!((accountant.guaranteed_epsilon() - 8.0 * per_release).abs() < 1e-12);
    assert!(accountant.remaining(2.1).is_some());
    assert!(accountant.remaining(2.0).is_none());
}

/// Splitting a fixed total budget over more releases forces more noise per
/// release: the per-release scale is proportional to 1/epsilon_k for this
/// fast-mixing chain.
#[test]
fn budget_splitting_increases_per_release_noise() {
    let length = 300;
    let (class, _) = class_and_data(length);
    let single = MqmExact::calibrate(
        &class,
        length,
        PrivacyBudget::new(1.0).unwrap(),
        MqmExactOptions::default(),
    )
    .unwrap();
    let quarter = MqmExact::calibrate(
        &class,
        length,
        PrivacyBudget::new(0.25).unwrap(),
        MqmExactOptions::default(),
    )
    .unwrap();
    assert!(quarter.sigma_max() > single.sigma_max());
    // For rapidly mixing chains, sigma scales close to 1/epsilon (the
    // max-influence term is small relative to epsilon).
    let ratio = quarter.sigma_max() / single.sigma_max();
    assert!(ratio > 2.0 && ratio < 8.0, "ratio {ratio}");
}

/// Heterogeneous budgets are accounted with the K * max rule.
#[test]
fn heterogeneous_budgets_use_worst_case_rule() {
    let mut accountant = CompositionAccountant::new();
    accountant.record(0.1);
    accountant.record(0.3);
    accountant.record(0.2);
    assert!((accountant.guaranteed_epsilon() - 0.9).abs() < 1e-12);
    assert!(accountant.guaranteed_epsilon() >= accountant.total_epsilon());
}
