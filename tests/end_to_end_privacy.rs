//! Empirical privacy check: the calibrated mechanisms satisfy the
//! ε-Pufferfish likelihood-ratio bound (Definition 2.1) when measured
//! directly on the released output distributions.
//!
//! For a scalar query released with Laplace noise of scale `b`, the
//! likelihood ratio of observing any output `w` under two conditional values
//! of the query is at most `exp(|F_a - F_b| / b)`. The test verifies that the
//! worst-case conditional shift of the query value divided by the calibrated
//! scale never exceeds ε (this is exactly the quantity the privacy proofs
//! bound).

use pufferfish_core::flu::flu_clique_framework;
use pufferfish_core::queries::{LipschitzQuery, StateCountQuery, StateFrequencyQuery};
use pufferfish_core::{Mechanism, MqmExact, MqmExactOptions, PrivacyBudget, WassersteinMechanism};
use pufferfish_markov::{MarkovChain, MarkovChainClass, TransitionPowers};

/// Wasserstein Mechanism on the flu clique: the ∞-Wasserstein coupling bound
/// means the conditional query distributions can be matched so that no value
/// moves further than W, hence shift / scale <= epsilon.
#[test]
fn wasserstein_mechanism_ratio_bound() {
    for epsilon in [0.5, 1.0, 4.0] {
        let framework = flu_clique_framework(4, &[0.1, 0.15, 0.5, 0.15, 0.1]).unwrap();
        let query = StateCountQuery::new(1, 4);
        let mechanism = WassersteinMechanism::calibrate(
            &framework,
            &query,
            PrivacyBudget::new(epsilon).unwrap(),
        )
        .unwrap();
        // The worst-case matched displacement is the Wasserstein parameter.
        let shift = mechanism.wasserstein_parameter();
        let scale = mechanism.noise_scale();
        assert!(
            shift / scale <= epsilon + 1e-9,
            "epsilon {epsilon}: shift {shift} scale {scale}"
        );
    }
}

/// MQMExact on a binary chain: for the winning quilt of every node, the
/// privacy proof needs card(X_N) * L / scale + max-influence <= epsilon.
/// Re-derive both quantities independently and check the inequality.
#[test]
fn mqm_exact_per_node_privacy_budget_split() {
    let epsilon = 1.0;
    let length = 60;
    let chain = MarkovChain::new(vec![0.7, 0.3], vec![vec![0.85, 0.15], vec![0.4, 0.6]]).unwrap();
    let class = MarkovChainClass::singleton(chain.clone());
    let mechanism = MqmExact::calibrate(
        &class,
        length,
        PrivacyBudget::new(epsilon).unwrap(),
        MqmExactOptions::default(),
    )
    .unwrap();
    let query = StateFrequencyQuery::new(1, length);
    let scale = mechanism.noise_scale_for(&query);
    let lipschitz = query.lipschitz_constant();

    // For every node, *some* quilt must satisfy the split; the mechanism's
    // sigma_max is the max over nodes of the best split, so it suffices to
    // verify the winning selection reported by the calibration.
    let selection = mechanism.selections()[0];
    let powers = TransitionPowers::new(&chain, length - 1, length).unwrap();
    let influence = pufferfish_core::chain_max_influence(
        &powers,
        selection.node,
        selection.shape,
        pufferfish_core::InitialDistributionMode::FixedInitial,
    )
    .unwrap();
    let card = selection.shape.card_nearby(selection.node, length);
    // The noise consumes (card * L / scale) of the budget; the rest covers
    // the max-influence of the remote nodes.
    let consumed = card as f64 * lipschitz / scale + influence;
    assert!(
        consumed <= epsilon + 1e-9,
        "budget split violated: {consumed} > {epsilon}"
    );
}

/// The trivial quilt always gives a valid fallback: sigma_max <= T / epsilon
/// for every mechanism configuration, including narrow width caps.
#[test]
fn trivial_quilt_fallback_bound() {
    let length = 40;
    let slow =
        MarkovChain::new(vec![0.5, 0.5], vec![vec![0.995, 0.005], vec![0.005, 0.995]]).unwrap();
    let class = MarkovChainClass::singleton(slow);
    for epsilon in [0.2, 1.0, 5.0] {
        for width in [Some(2), Some(10), None] {
            let mechanism = MqmExact::calibrate(
                &class,
                length,
                PrivacyBudget::new(epsilon).unwrap(),
                MqmExactOptions {
                    max_quilt_width: width,
                    search_middle_only: false,
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(mechanism.sigma_max() <= length as f64 / epsilon + 1e-9);
            assert!(mechanism.sigma_max() > 0.0);
        }
    }
}
