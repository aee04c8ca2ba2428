//! Property tests for the class-estimation pipeline.
//!
//! Two contracts, swept over randomly drawn two-state chains and stream
//! seeds (the proptest shim is seeded, so the sweep is deterministic):
//!
//! * **coverage** — fitting a confidence class from a stream sampled from a
//!   known chain yields interval bounds that contain the true transition
//!   matrix. The Hoeffding intervals are Bonferroni-corrected across the
//!   k² entries, so at the advertised confidence the whole matrix is
//!   covered simultaneously; the sweep runs at 99.9% confidence on 20 000
//!   events, where a miss would be a calibration bug, not bad luck.
//! * **monotonicity under widening** — calibrating MQMApprox against the
//!   *widened* class never yields a smaller noise scale than calibrating
//!   against the point estimate alone, and never a smaller scale than the
//!   true chain's own class. Widening is how estimation uncertainty is
//!   priced into the privacy guarantee; a widened class that made the noise
//!   *cheaper* would be unsound.

use proptest::prelude::*;
use pufferfish_core::queries::StateFrequencyQuery;
use pufferfish_core::{Mechanism, MqmApprox, MqmApproxOptions, PrivacyBudget};
use pufferfish_datasets::EventStream;
use pufferfish_markov::{
    estimate_class, ClassEstimationOptions, IntervalMethod, MarkovChain, MarkovChainClass,
};

/// Events per fitted trajectory.
const EVENTS: usize = 20_000;
/// Database length the mechanisms are calibrated for.
const DB_LEN: usize = 60;

fn two_state(stay0: f64, stay1: f64) -> MarkovChain {
    MarkovChain::new(
        vec![0.5, 0.5],
        vec![vec![stay0, 1.0 - stay0], vec![1.0 - stay1, stay1]],
    )
    .unwrap()
}

fn scale_for(class: &MarkovChainClass) -> f64 {
    let budget = PrivacyBudget::new(0.5).unwrap();
    let mechanism = MqmApprox::calibrate(class, DB_LEN, budget, MqmApproxOptions::default())
        .expect("estimated classes stay calibratable");
    mechanism.noise_scale_for(&StateFrequencyQuery::new(1, DB_LEN))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Coverage: the fitted interval bounds contain the true transition
    /// matrix at the advertised confidence, for both interval methods.
    #[test]
    fn fitted_bounds_cover_the_true_matrix(
        stay0 in 0.25f64..0.85,
        stay1 in 0.25f64..0.85,
        seed in 0u64..1_000_000,
        wilson in 0u8..2,
    ) {
        let wilson = wilson == 1;
        let truth = two_state(stay0, stay1);
        let log: Vec<usize> = EventStream::new(truth.clone(), seed).take(EVENTS).collect();
        let fitted = estimate_class(
            &[log],
            2,
            ClassEstimationOptions {
                confidence: 0.999,
                method: if wilson { IntervalMethod::Wilson } else { IntervalMethod::Hoeffding },
                ..ClassEstimationOptions::default()
            },
        )
        .unwrap();
        let true_matrix: Vec<Vec<f64>> = (0..2)
            .map(|i| truth.transition().row(i).to_vec())
            .collect();
        prop_assert!(
            fitted.contains(&true_matrix),
            "bounds {:?}..{:?} miss the true matrix {:?} (stay0 {stay0}, stay1 {stay1}, seed {seed})",
            fitted.lower(),
            fitted.upper(),
            true_matrix
        );
        // The bounds really bracket the point estimate too.
        let point: Vec<Vec<f64>> = (0..2)
            .map(|i| fitted.chain().transition().row(i).to_vec())
            .collect();
        prop_assert!(fitted.contains(&point));
    }

    /// Monotonicity: widening can only make the calibrated noise scale
    /// larger (or equal) — estimation uncertainty is never priced at a
    /// discount.
    #[test]
    fn widened_class_never_shrinks_the_noise_scale(
        stay0 in 0.3f64..0.8,
        stay1 in 0.3f64..0.8,
        seed in 0u64..1_000_000,
    ) {
        let truth = two_state(stay0, stay1);
        let log: Vec<usize> = EventStream::new(truth.clone(), seed).take(EVENTS).collect();
        let fitted = estimate_class(&[log], 2, ClassEstimationOptions::default()).unwrap();
        let widened_scale = scale_for(&fitted.to_class().unwrap());
        let point_scale = scale_for(&MarkovChainClass::singleton(fitted.chain().clone()));
        let truth_scale = scale_for(&MarkovChainClass::singleton(truth));
        prop_assert!(
            widened_scale >= point_scale - 1e-12,
            "widened scale {widened_scale} < point-estimate scale {point_scale}"
        );
        prop_assert!(
            widened_scale >= truth_scale - 1e-9,
            "widened scale {widened_scale} < true-class scale {truth_scale} \
             (stay0 {stay0}, stay1 {stay1}, seed {seed})"
        );
    }
}
