//! Integration test: the running example of Section 4.4 of the paper,
//! exercised end-to-end through the public APIs of the markov, core and
//! baselines crates.

use pufferfish_core::queries::StateFrequencyQuery;
use pufferfish_core::{
    ChainQuiltShape, Mechanism, MqmApprox, MqmApproxOptions, MqmExact, MqmExactOptions,
    PrivacyBudget, QuiltSearchStrategy,
};
use pufferfish_markov::{
    class_eigengap, class_pi_min, MarkovChain, MarkovChainClass, ReversibilityMode,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn theta1() -> MarkovChain {
    MarkovChain::new(vec![1.0, 0.0], vec![vec![0.9, 0.1], vec![0.4, 0.6]]).unwrap()
}

fn theta2() -> MarkovChain {
    MarkovChain::new(vec![0.9, 0.1], vec![vec![0.8, 0.2], vec![0.3, 0.7]]).unwrap()
}

fn running_class() -> MarkovChainClass {
    MarkovChainClass::from_chains(vec![theta1(), theta2()]).unwrap()
}

/// The spectral quantities quoted in Section 4.4.2: stationary distributions
/// [0.8, 0.2] and [0.6, 0.4], pi_min = 0.2, eigengap of P P* equal to 0.75.
#[test]
fn spectral_quantities_match_the_paper() {
    let class = running_class();
    assert!((class_pi_min(&class).unwrap() - 0.2).abs() < 1e-9);
    assert!((class_eigengap(&class, ReversibilityMode::General).unwrap() - 0.75).abs() < 1e-9);
}

/// The MQMExact calibration quoted in Section 4.4.1: sigma = 13.0219 at X_8
/// via {X_3, X_13} for theta_1 and 10.6402 at X_6 via {X_10} for theta_2,
/// so the class-level mechanism adds Lap(13.0219 * L) noise.
#[test]
fn mqm_exact_reproduces_paper_noise_scales() {
    let budget = PrivacyBudget::new(1.0).unwrap();
    let mechanism =
        MqmExact::calibrate(&running_class(), 100, budget, MqmExactOptions::default()).unwrap();
    assert!((mechanism.sigma_max() - 13.0219).abs() < 5e-3);

    let selections = mechanism.selections();
    assert_eq!(selections.len(), 2);
    assert_eq!(selections[0].node, 8);
    assert_eq!(
        selections[0].shape,
        ChainQuiltShape::TwoSided { a: 5, b: 5 }
    );
    assert!((selections[0].score - 13.0219).abs() < 5e-3);
    assert_eq!(selections[1].node, 6);
    assert_eq!(selections[1].shape, ChainQuiltShape::RightOnly { b: 4 });
    assert!((selections[1].score - 10.6402).abs() < 5e-3);
}

/// MQMApprox is an upper bound on MQMExact but still far below the trivial
/// (group-DP) multiplier T for this fast-mixing class; releases through both
/// mechanisms stay close to the exact query value.
#[test]
fn approx_and_exact_end_to_end_release() {
    let class = running_class();
    let budget = PrivacyBudget::new(1.0).unwrap();
    let length = 100;
    let exact = MqmExact::calibrate(&class, length, budget, MqmExactOptions::default()).unwrap();
    let approx = MqmApprox::calibrate(
        &class,
        length,
        budget,
        MqmApproxOptions {
            reversibility: ReversibilityMode::General,
            strategy: QuiltSearchStrategy::Full { max_width: None },
            ..Default::default()
        },
    )
    .unwrap();
    assert!(approx.sigma_max() >= exact.sigma_max() - 1e-9);
    assert!(approx.sigma_max() < length as f64);

    let query = StateFrequencyQuery::new(1, length);
    let mut rng = StdRng::seed_from_u64(0);
    let data = pufferfish_markov::sample_trajectory(&theta1(), length, &mut rng).unwrap();

    // Average over repetitions: the mean absolute error matches the Laplace
    // scale sigma/T for each mechanism, and exact <= approx.
    let trials = 4_000;
    let (mut err_exact, mut err_approx) = (0.0, 0.0);
    for _ in 0..trials {
        err_exact += exact.release(&query, &data, &mut rng).unwrap().l1_error();
        err_approx += approx.release(&query, &data, &mut rng).unwrap().l1_error();
    }
    err_exact /= trials as f64;
    err_approx /= trials as f64;
    assert!(err_exact <= err_approx + 0.02);
    assert!((err_exact - exact.sigma_max() / length as f64).abs() < 0.05);
}

/// A wider class needs at least as much noise as a narrower one containing a
/// subset of its chains.
#[test]
fn class_monotonicity() {
    let budget = PrivacyBudget::new(1.0).unwrap();
    let narrow = MarkovChainClass::from_chains(vec![theta1()]).unwrap();
    let wide = running_class();
    let narrow_sigma = MqmExact::calibrate(&narrow, 100, budget, MqmExactOptions::default())
        .unwrap()
        .sigma_max();
    let wide_sigma = MqmExact::calibrate(&wide, 100, budget, MqmExactOptions::default())
        .unwrap()
        .sigma_max();
    assert!(wide_sigma >= narrow_sigma - 1e-12);
}
