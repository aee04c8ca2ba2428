//! MQMApprox (Algorithm 4 of the paper): the Markov Quilt Mechanism with the
//! closed-form max-influence upper bound of Lemma 4.8 / Lemma C.1.
//!
//! Instead of computing exact max-influences, MQMApprox only needs two
//! scalars from the distribution class Θ — the minimum stationary probability
//! `π^min_Θ` and the eigengap `g_Θ` — and bounds the influence of a quilt
//! `{X_{i-a}, X_{i+b}}` in closed form. This keeps the mechanism's cost
//! essentially independent of both `|Θ|` and the chain length (Lemma 4.9),
//! at the price of somewhat more noise than MQMExact.
//!
//! Each node's quilt is chosen by the scorer Algorithms 2–4 share
//! (`best_quilt` in `mqm_chain_influence.rs`), with the closed-form bound
//! as the influence.
//!
//! Neither `(π^min_Θ, g_Θ)` nor the bound of one side at a given distance
//! depends on ε. A calibration tabulates the side bound once for every
//! distance its search can reach, and the engine's `MqmApproxCalibrator`
//! computes `(π^min_Θ, g_Θ)` once for every ε it calibrates.

use pufferfish_markov::{
    class_eigengap_with, class_pi_min_with, MarkovChainClass, ReversibilityMode,
};
use pufferfish_parallel::{try_par_map, Parallelism};

use crate::mechanism::{Mechanism, PrivacyBudget};
use crate::mqm_chain_influence::{best_quilt, ChainQuiltShape};
use crate::snapshot::{MechanismState, ScaleForm, ValidationForm};
use crate::{PufferfishError, Result};

/// How MQMApprox searches for the best quilt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuiltSearchStrategy {
    /// Use Lemma 4.9: when `T >= 8 a*`, search only the middle node with
    /// quilts of width at most `4 a*`; otherwise fall back to the full
    /// search. This is the paper's recommended configuration.
    #[default]
    Auto,
    /// Search every node, with candidate quilt widths capped at the given
    /// value (`None` = no cap).
    Full {
        /// Maximum nearby-set size of candidate quilts.
        max_width: Option<usize>,
    },
    /// Search only the middle node with width at most `4 a*`, regardless of
    /// whether `T >= 8 a*` holds.
    MiddleNodeOnly,
}

/// Options for [`MqmApprox::calibrate`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MqmApproxOptions {
    /// Which eigengap definition to use (Equation 7 vs the tighter
    /// reversible form of Equation 14 / Lemma C.1).
    pub reversibility: ReversibilityMode,
    /// Quilt search strategy.
    pub strategy: QuiltSearchStrategy,
    /// How to execute the spectral scan over Θ and the per-node search.
    ///
    /// Every policy produces bitwise-identical noise scales; this only
    /// trades threads for wall-clock time.
    pub parallelism: Parallelism,
}

/// A calibrated MQMApprox mechanism.
#[derive(Debug, Clone)]
pub struct MqmApprox {
    state: MechanismState,
    sigma_max: f64,
    pi_min: f64,
    eigengap: f64,
    a_star: usize,
    length: usize,
    best_shape: ChainQuiltShape,
    best_node: usize,
}

impl MqmApprox {
    /// Calibrates the mechanism from a distribution class.
    ///
    /// # Errors
    /// * [`PufferfishError::InvalidQuery`] when `length == 0`.
    /// * [`PufferfishError::Markov`] when the class contains chains that are
    ///   not irreducible/aperiodic (Lemma 4.8 then does not apply).
    /// * [`PufferfishError::DegenerateClass`] when the class sits on the
    ///   boundary of applicability — `π^min_Θ → 0` or an eigengap that is
    ///   (numerically) zero — where the closed-form bound would otherwise
    ///   silently produce NaN/∞ noise scales.
    pub fn calibrate(
        class: &MarkovChainClass,
        length: usize,
        budget: PrivacyBudget,
        options: MqmApproxOptions,
    ) -> Result<Self> {
        let (pi_min, eigengap) = Self::class_parameters(class, options)?;
        Self::calibrate_from_parameters(
            pi_min,
            eigengap,
            class.num_states(),
            length,
            budget,
            options,
        )
    }

    /// `(π^min_Θ, g_Θ)`, the class's part of a calibration: it depends on
    /// the class and the reversibility mode, never on ε or the length.
    pub(crate) fn class_parameters(
        class: &MarkovChainClass,
        options: MqmApproxOptions,
    ) -> Result<(f64, f64)> {
        let pi_min = class_pi_min_with(class, options.parallelism)?;
        let eigengap = class_eigengap_with(class, options.reversibility, options.parallelism)?;
        Ok((pi_min, eigengap))
    }

    /// Calibrates directly from `(π^min_Θ, g_Θ)`, the only quantities the
    /// approximation needs — useful when Θ is parameterised analytically
    /// rather than enumerated.
    ///
    /// # Errors
    /// * [`PufferfishError::InvalidQuery`] for a zero-length chain.
    /// * [`PufferfishError::DegenerateClass`] when `(π^min, g)` falls outside
    ///   (or numerically on the boundary of) the applicable region
    ///   `π^min ∈ (0, 1]`, `g ∈ (0, 2]` — previously such parameters could
    ///   silently surface as NaN/∞ noise scales downstream.
    pub fn calibrate_from_parameters(
        pi_min: f64,
        eigengap: f64,
        num_states: usize,
        length: usize,
        budget: PrivacyBudget,
        options: MqmApproxOptions,
    ) -> Result<Self> {
        if length == 0 {
            return Err(PufferfishError::InvalidQuery(
                "chain length must be positive".to_string(),
            ));
        }
        check_class_parameters(pi_min, eigengap)?;
        let epsilon = budget.epsilon();
        let a_star = a_star(epsilon, pi_min, eigengap);

        let (nodes, width_cap): (Vec<usize>, usize) = match options.strategy {
            QuiltSearchStrategy::Auto => {
                // `a_star` can be astronomically large for near-degenerate
                // classes; saturating arithmetic keeps the comparisons and
                // caps well-defined (the search then simply finds no valid
                // non-trivial quilt and falls back to the trivial scale).
                if length >= a_star.saturating_mul(8) {
                    (
                        vec![length.div_ceil(2)],
                        a_star.saturating_mul(4).min(length),
                    )
                } else {
                    ((1..=length).collect(), length)
                }
            }
            QuiltSearchStrategy::Full { max_width } => (
                (1..=length).collect(),
                max_width.unwrap_or(length).min(length),
            ),
            QuiltSearchStrategy::MiddleNodeOnly => (
                vec![length.div_ceil(2)],
                a_star.saturating_mul(4).min(length),
            ),
        };

        // The width cap also bounds the offsets, so one side's bound is
        // needed at distances up to the cap (and inside the chain) only.
        let sides: Vec<f64> = (0..=width_cap.min(length - 1))
            .map(|distance| side_bound(distance, pi_min, eigengap))
            .collect();

        // Per-node scores are independent pure math: map (in parallel for
        // the full-search strategies) and fold in node order, reproducing
        // the serial first-strict-maximum selection bit for bit.
        let scores = try_par_map(options.parallelism, &nodes, |&i| {
            let candidates = ChainQuiltShape::candidates(i, length, width_cap, width_cap);
            best_quilt(epsilon, candidates, |&shape| {
                Ok(influence_bound(shape, |distance| sides[distance]))
            })
        })?;

        let (mut best_node, mut best_shape, mut sigma_max) =
            (nodes[0], ChainQuiltShape::Trivial, 0.0);
        for (&i, best) in nodes.iter().zip(scores) {
            let (sigma_i, _, shape) =
                best.expect("the trivial quilt (bound 0) qualifies for ε > 0");
            if sigma_i > sigma_max {
                (best_node, best_shape, sigma_max) = (i, shape, sigma_i);
            }
        }

        if !sigma_max.is_finite() {
            return Err(PufferfishError::DegenerateClass {
                pi_min,
                eigengap,
                detail: format!("closed-form bound produced noise multiplier {sigma_max}"),
            });
        }

        Ok(MqmApprox {
            state: MechanismState {
                family: "mqm-approx",
                epsilon,
                scale: ScaleForm::LipschitzTimes {
                    multiplier: sigma_max,
                },
                validation: ValidationForm::StateRange { num_states },
            },
            sigma_max,
            pi_min,
            eigengap,
            a_star,
            length,
            best_shape,
            best_node,
        })
    }

    /// The noise multiplier `σ_max`.
    pub fn sigma_max(&self) -> f64 {
        self.sigma_max
    }

    /// `π^min_Θ` used for calibration.
    pub fn pi_min(&self) -> f64 {
        self.pi_min
    }

    /// `g_Θ` used for calibration.
    pub fn eigengap(&self) -> f64 {
        self.eigengap
    }

    /// The threshold `a*` of Lemma 4.9.
    pub fn a_star(&self) -> usize {
        self.a_star
    }

    /// Chain length the mechanism was calibrated for.
    pub fn length(&self) -> usize {
        self.length
    }

    /// The quilt shape that attained `σ_max` (at [`MqmApprox::worst_node`]).
    pub fn best_quilt(&self) -> ChainQuiltShape {
        self.best_shape
    }

    /// The node whose best quilt determined `σ_max`.
    pub fn worst_node(&self) -> usize {
        self.best_node
    }

    /// The total width (nearby-set size) of the winning quilt — the paper's
    /// experiments reuse this as the search radius `ℓ` for MQMExact.
    pub fn optimal_quilt_width(&self) -> usize {
        self.best_shape.card_nearby(self.best_node, self.length)
    }
}

/// Tolerance below which a class parameter is treated as numerically zero:
/// the Lemma 4.8 bound then needs quilt offsets beyond any realistic chain,
/// which used to surface as NaN/∞ scales instead of a typed error.
const DEGENERATE_PARAMETER_TOLERANCE: f64 = 1e-12;

/// Validates `(π^min_Θ, g_Θ)` against the applicability region of
/// Lemma 4.8 / Lemma 4.9.
fn check_class_parameters(pi_min: f64, eigengap: f64) -> Result<()> {
    let pi_ok = pi_min.is_finite() && pi_min > DEGENERATE_PARAMETER_TOLERANCE && pi_min <= 1.0;
    let gap_ok =
        eigengap.is_finite() && eigengap > DEGENERATE_PARAMETER_TOLERANCE && eigengap <= 2.0;
    if pi_ok && gap_ok {
        return Ok(());
    }
    let detail = if !pi_ok {
        "minimum stationary probability is outside (0, 1] (class contains a \
         chain whose stationary mass vanishes on some state)"
    } else {
        "eigengap is outside (0, 2] (class sits on the slow-mixing boundary)"
    };
    Err(PufferfishError::DegenerateClass {
        pi_min,
        eigengap,
        detail: detail.to_string(),
    })
}

/// The `a*` of Lemma 4.9:
/// `2 ⌈ log( (e^{ε/6}+1)/(e^{ε/6}−1) · 1/π^min ) / g ⌉`.
///
/// Saturates (rather than overflows) for near-degenerate parameters.
fn a_star(epsilon: f64, pi_min: f64, eigengap: f64) -> usize {
    let ratio = ((epsilon / 6.0).exp() + 1.0) / ((epsilon / 6.0).exp() - 1.0);
    let inner = (ratio / pi_min).ln() / eigengap;
    let half = inner.ceil().max(1.0);
    if half >= usize::MAX as f64 / 2.0 {
        usize::MAX
    } else {
        (half as usize).saturating_mul(2)
    }
}

impl Mechanism for MqmApprox {
    fn state(&self) -> &MechanismState {
        &self.state
    }
}

/// The Lemma 4.8 / C.1 bound for a single "side" at distance `d`:
/// `log( (π + e^{-g d / 2}) / (π − e^{-g d / 2}) )`, or `+∞` when the bound
/// does not apply (distance below the mixing threshold).
fn side_bound(distance: usize, pi_min: f64, eigengap: f64) -> f64 {
    let threshold = 2.0 * (1.0 / pi_min).ln() / eigengap;
    if (distance as f64) < threshold {
        return f64::INFINITY;
    }
    let decay = (-eigengap * distance as f64 / 2.0).exp();
    if pi_min - decay <= 0.0 {
        return f64::INFINITY;
    }
    ((pi_min + decay) / (pi_min - decay)).ln()
}

/// Upper bound on the max-influence of a quilt of the given shape, from
/// `side(d)`, the [`side_bound`] at distance `d`.
fn influence_bound(shape: ChainQuiltShape, side: impl Fn(usize) -> f64) -> f64 {
    match shape {
        ChainQuiltShape::Trivial => 0.0,
        // The backward (left) side enters the bound twice (Lemma 4.8).
        ChainQuiltShape::LeftOnly { a } => 2.0 * side(a),
        ChainQuiltShape::RightOnly { b } => side(b),
        ChainQuiltShape::TwoSided { a, b } => 2.0 * side(a) + side(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mqm_exact::{MqmExact, MqmExactOptions};
    use crate::queries::RelativeFrequencyHistogram;
    use pufferfish_markov::MarkovChain;
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

    #[test]
    fn a_star_formula() {
        // Running example parameters: π_min = 0.2, g = 0.75 (general mode).
        let a = a_star(1.0, 0.2, 0.75);
        assert_eq!(a % 2, 0);
        assert!(a >= 2);
        // Larger epsilon should not increase a*.
        assert!(a_star(5.0, 0.2, 0.75) <= a);
        // Smaller gap means larger a*.
        assert!(a_star(1.0, 0.2, 0.1) > a);
    }

    #[test]
    fn side_bound_behaviour() {
        // Below the mixing threshold the bound is infinite.
        assert!(side_bound(1, 0.2, 0.75).is_infinite());
        // Far enough out it is finite and decreasing in the distance.
        let threshold = (2.0 * (1.0f64 / 0.2).ln() / 0.75).ceil() as usize;
        let near = side_bound(threshold + 1, 0.2, 0.75);
        let far = side_bound(threshold + 10, 0.2, 0.75);
        assert!(near.is_finite());
        assert!(far < near);
        assert!(far > 0.0);
    }

    #[test]
    fn influence_bound_is_never_negative() {
        // The invariant the scorer's exact prune rests on.
        let distances: Vec<usize> = (0..=60).chain([100, 1_000, 100_000, 10_000_000]).collect();
        for pi_min in [1e-9, 0.01, 0.1, 0.2, 0.5, 1.0] {
            for eigengap in [1e-6, 0.01, 0.1, 0.75, 1.0, 2.0] {
                for &a in &distances {
                    for &b in &distances {
                        let shape = match (a, b) {
                            (0, 0) => ChainQuiltShape::Trivial,
                            (a, 0) => ChainQuiltShape::LeftOnly { a },
                            (0, b) => ChainQuiltShape::RightOnly { b },
                            (a, b) => ChainQuiltShape::TwoSided { a, b },
                        };
                        let bound = influence_bound(shape, |distance| {
                            side_bound(distance, pi_min, eigengap)
                        });
                        assert!(
                            bound >= 0.0,
                            "{shape:?} at π {pi_min}, g {eigengap}: {bound}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn approx_upper_bounds_exact_on_running_example() {
        let class = running_class();
        let budget = PrivacyBudget::new(1.0).unwrap();
        let approx = MqmApprox::calibrate(
            &class,
            100,
            budget,
            MqmApproxOptions {
                reversibility: ReversibilityMode::General,
                strategy: QuiltSearchStrategy::Full { max_width: None },
                ..Default::default()
            },
        )
        .unwrap();
        let exact = MqmExact::calibrate(&class, 100, budget, MqmExactOptions::default()).unwrap();
        // The approximation never claims less noise than the exact mechanism.
        assert!(
            approx.sigma_max() >= exact.sigma_max() - 1e-9,
            "approx {} < exact {}",
            approx.sigma_max(),
            exact.sigma_max()
        );
        // Both are far better than the trivial (group-DP) quilt for this
        // fast-mixing class.
        assert!(approx.sigma_max() < 100.0);
        assert!((approx.pi_min() - 0.2).abs() < 1e-9);
        assert!((approx.eigengap() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn auto_strategy_matches_full_search_for_long_chains() {
        let class = running_class();
        let budget = PrivacyBudget::new(1.0).unwrap();
        let options_auto = MqmApproxOptions {
            reversibility: ReversibilityMode::General,
            strategy: QuiltSearchStrategy::Auto,
            ..Default::default()
        };
        let options_full = MqmApproxOptions {
            reversibility: ReversibilityMode::General,
            strategy: QuiltSearchStrategy::Full { max_width: None },
            ..Default::default()
        };
        let length = 600; // comfortably above 8 a*
        let auto = MqmApprox::calibrate(&class, length, budget, options_auto).unwrap();
        let full = MqmApprox::calibrate(&class, length, budget, options_full).unwrap();
        assert!(length >= 8 * auto.a_star());
        assert!(
            (auto.sigma_max() - full.sigma_max()).abs() < 1e-9,
            "auto {} vs full {}",
            auto.sigma_max(),
            full.sigma_max()
        );
        assert_eq!(auto.worst_node(), length / 2);
        assert!(auto.optimal_quilt_width() <= 4 * auto.a_star());
        assert!(matches!(
            auto.best_quilt(),
            ChainQuiltShape::TwoSided { .. }
        ));
    }

    #[test]
    fn short_chains_fall_back_to_trivial_noise() {
        // A chain shorter than the mixing threshold cannot host any valid
        // non-trivial quilt, so σ_max = T / ε.
        let class = running_class();
        let approx = MqmApprox::calibrate(
            &class,
            5,
            PrivacyBudget::new(1.0).unwrap(),
            MqmApproxOptions::default(),
        )
        .unwrap();
        assert!((approx.sigma_max() - 5.0).abs() < 1e-9);
        assert!(matches!(approx.best_quilt(), ChainQuiltShape::Trivial));
    }

    #[test]
    fn noise_does_not_grow_with_chain_length() {
        // Theorem 4.10: for long chains the scale is O(1/ε), independent of T.
        let class = running_class();
        let budget = PrivacyBudget::new(1.0).unwrap();
        let medium =
            MqmApprox::calibrate(&class, 1_000, budget, MqmApproxOptions::default()).unwrap();
        let long =
            MqmApprox::calibrate(&class, 1_000_000, budget, MqmApproxOptions::default()).unwrap();
        assert!((medium.sigma_max() - long.sigma_max()).abs() < 1e-9);
        assert!(long.sigma_max() < 100.0);
    }

    #[test]
    fn reversible_bound_is_tighter_than_general() {
        let class = running_class();
        let budget = PrivacyBudget::new(1.0).unwrap();
        let general = MqmApprox::calibrate(
            &class,
            500,
            budget,
            MqmApproxOptions {
                reversibility: ReversibilityMode::General,
                strategy: QuiltSearchStrategy::Auto,
                ..Default::default()
            },
        )
        .unwrap();
        let reversible = MqmApprox::calibrate(
            &class,
            500,
            budget,
            MqmApproxOptions {
                reversibility: ReversibilityMode::Reversible,
                strategy: QuiltSearchStrategy::Auto,
                ..Default::default()
            },
        )
        .unwrap();
        // Both chains are reversible; the Lemma C.1 gap (here 1.0 vs 0.75)
        // yields at most as much noise.
        assert!(reversible.sigma_max() <= general.sigma_max() + 1e-9);
    }

    #[test]
    fn epsilon_scaling() {
        let class = running_class();
        let high_privacy = MqmApprox::calibrate(
            &class,
            10_000,
            PrivacyBudget::new(0.2).unwrap(),
            MqmApproxOptions::default(),
        )
        .unwrap();
        let low_privacy = MqmApprox::calibrate(
            &class,
            10_000,
            PrivacyBudget::new(5.0).unwrap(),
            MqmApproxOptions::default(),
        )
        .unwrap();
        assert!(high_privacy.sigma_max() > low_privacy.sigma_max());
        assert_eq!(high_privacy.epsilon(), 0.2);
        assert_eq!(high_privacy.length(), 10_000);
    }

    #[test]
    fn calibrate_from_parameters_and_validation() {
        let budget = PrivacyBudget::new(1.0).unwrap();
        let m = MqmApprox::calibrate_from_parameters(
            0.3,
            0.5,
            4,
            10_000,
            budget,
            MqmApproxOptions::default(),
        )
        .unwrap();
        assert!(m.sigma_max() > 0.0);
        assert!(MqmApprox::calibrate_from_parameters(
            0.0,
            0.5,
            4,
            100,
            budget,
            MqmApproxOptions::default()
        )
        .is_err());
        assert!(MqmApprox::calibrate_from_parameters(
            0.3,
            0.0,
            4,
            100,
            budget,
            MqmApproxOptions::default()
        )
        .is_err());
        assert!(MqmApprox::calibrate_from_parameters(
            0.3,
            0.5,
            4,
            0,
            budget,
            MqmApproxOptions::default()
        )
        .is_err());
    }

    #[test]
    fn periodic_class_rejected() {
        let periodic =
            MarkovChain::new(vec![1.0, 0.0], vec![vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let class = MarkovChainClass::singleton(periodic);
        assert!(MqmApprox::calibrate(
            &class,
            100,
            PrivacyBudget::new(1.0).unwrap(),
            MqmApproxOptions::default()
        )
        .is_err());
    }

    #[test]
    fn release_with_histogram() {
        let class = running_class();
        let mechanism = MqmApprox::calibrate(
            &class,
            500,
            PrivacyBudget::new(1.0).unwrap(),
            MqmApproxOptions::default(),
        )
        .unwrap();
        let query = RelativeFrequencyHistogram::new(2, 500).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let data = pufferfish_markov::sample_trajectory(&theta1(), 500, &mut rng).unwrap();
        let release = mechanism.release(&query, &data, &mut rng).unwrap();
        assert_eq!(release.values.len(), 2);
        assert!(release.scale > 0.0);
        assert!(mechanism.release(&query, &data[..100], &mut rng).is_err());
    }
}
