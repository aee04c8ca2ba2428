//! MQMExact (Algorithm 3 of the paper): the Markov Quilt Mechanism for
//! Markov chains with exact max-influence computation.
//!
//! Each node's quilt is chosen by the scorer Algorithms 2–4 share
//! (`best_quilt` in `mqm_chain_influence.rs`), over the chain candidates
//! that module enumerates.
//!
//! A calibration is two stages: the per-θ tables (matrix powers, marginals,
//! influence tables, the node list), which do not depend on ε, then the
//! quilt search at ε. [`MqmExact::calibrate`] runs both; the engine's
//! `MqmExactCalibrator` prepares the tables once and searches them at every
//! ε it calibrates.

use pufferfish_markov::{MarkovChain, MarkovChainClass, TransitionPowers};
use pufferfish_parallel::{try_par_map, Parallelism};

use crate::mechanism::{Mechanism, PrivacyBudget};
use crate::mqm_chain_influence::{
    best_quilt, ChainInfluenceTables, ChainQuiltShape, InitialDistributionMode,
};
use crate::snapshot::{MechanismState, ScaleForm, ValidationForm};
use crate::{PufferfishError, Result};

/// Options for [`MqmExact::calibrate`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MqmExactOptions {
    /// Maximum size of the nearby set of any non-trivial candidate quilt
    /// (the `ℓ` of Algorithm 3). `None` makes every quilt a candidate.
    ///
    /// Every quilt up to the cap is a candidate, but only those that can
    /// still beat the best score so far have their max-influence computed.
    pub max_quilt_width: Option<usize>,
    /// Search only the middle node `X_{⌈T/2⌉}`.
    ///
    /// Valid when the initial distribution of every chain in Θ is its
    /// stationary distribution (then, as noted at the end of Section 4.4.1,
    /// the max-influence is independent of `i`) and the chain is long enough
    /// that boundary nodes never have the worst score. This is how the
    /// paper's real-data experiments (Section 5.3) are run.
    pub search_middle_only: bool,
    /// How to execute the calibration sweep over θ ∈ Θ and nodes.
    ///
    /// Every policy produces bitwise-identical noise scales; this only
    /// trades threads for wall-clock time.
    pub parallelism: Parallelism,
}

/// Per-θ calibration detail, reported for inspection and experiment logs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuiltSelection {
    /// Index of the chain in the class.
    pub theta_index: usize,
    /// 1-based node whose best quilt had the *largest* score under this θ.
    pub node: usize,
    /// The winning quilt shape for that node.
    pub shape: ChainQuiltShape,
    /// The score `σ^θ_max`.
    pub score: f64,
}

/// Per-θ precomputation shared by every node/quilt evaluation of that θ.
struct PreparedTheta {
    powers: TransitionPowers,
    tables: ChainInfluenceTables,
    nodes: Vec<usize>,
    virtual_shift: bool,
    max_offset: usize,
}

/// The ε-free stage of an MQMExact calibration of one `(class, length,
/// options)`: every θ's [`PreparedTheta`], in class order.
pub(crate) struct PreparedClass {
    thetas: Vec<PreparedTheta>,
    length: usize,
    width_cap: usize,
    mode: InitialDistributionMode,
    num_states: usize,
}

/// A calibrated MQMExact mechanism.
///
/// Calibration computes, for every chain `θ ∈ Θ` and every node `X_i`, the
/// cheapest Markov quilt by exact max-influence (Equation 5), and sets the
/// noise multiplier to `σ_max = max_θ max_i min_{quilt} score`. A release of
/// an `L`-Lipschitz query then adds `L · σ_max · Lap(1)` to every coordinate
/// (Theorem 4.3 gives ε-Pufferfish privacy).
#[derive(Debug, Clone)]
pub struct MqmExact {
    state: MechanismState,
    sigma_max: f64,
    length: usize,
    selections: Vec<QuiltSelection>,
}

impl MqmExact {
    /// Calibrates the mechanism for chains of the given length.
    ///
    /// # Errors
    /// * [`PufferfishError::InvalidQuery`] when `length == 0`.
    /// * [`PufferfishError::CannotCalibrate`] when even the trivial quilt is
    ///   unusable (cannot happen for ε > 0) or the class is degenerate.
    /// * Substrate errors are propagated.
    pub fn calibrate(
        class: &MarkovChainClass,
        length: usize,
        budget: PrivacyBudget,
        options: MqmExactOptions,
    ) -> Result<Self> {
        Self::search(
            &Self::prepare(class, length, options)?,
            budget,
            options.parallelism,
        )
    }

    /// Stage 1, which does not depend on ε: per-θ precomputation (matrix
    /// powers, marginals, per-offset influence tables) in parallel across
    /// the class.
    pub(crate) fn prepare(
        class: &MarkovChainClass,
        length: usize,
        options: MqmExactOptions,
    ) -> Result<PreparedClass> {
        if length == 0 {
            return Err(PufferfishError::InvalidQuery(
                "chain length must be positive".to_string(),
            ));
        }
        let mode = if class.allows_all_initial_distributions() {
            InitialDistributionMode::AllInitials
        } else {
            InitialDistributionMode::FixedInitial
        };
        let width_cap = options.max_quilt_width.unwrap_or(length).min(length);
        let thetas = try_par_map(options.parallelism, class.chains(), {
            |chain| Self::prepare_theta(chain, length, width_cap, mode, options)
        })?;
        Ok(PreparedClass {
            thetas,
            length,
            width_cap,
            mode,
            num_states: class.num_states(),
        })
    }

    /// Stage 2: the quilt search at `budget` over prepared tables.
    pub(crate) fn search(
        prepared: &PreparedClass,
        budget: PrivacyBudget,
        parallelism: Parallelism,
    ) -> Result<Self> {
        let PreparedClass {
            ref thetas,
            length,
            width_cap,
            mode,
            num_states,
        } = *prepared;
        let epsilon = budget.epsilon();

        // One flat sweep over every (θ, node) pair, so the full thread
        // budget applies whether the work is dominated by many chains
        // (interval grids) or many nodes (singleton classes). The jobs are
        // θ-major, so each θ below folds its own run of scores in node
        // order, reproducing the nested serial loops' first-strict-maximum
        // selection exactly.
        let jobs: Vec<(usize, usize)> = thetas
            .iter()
            .enumerate()
            .flat_map(|(theta_index, prep)| prep.nodes.iter().map(move |&node| (theta_index, node)))
            .collect();
        let scores = try_par_map(parallelism, &jobs, |&(theta_index, node)| {
            let prep = &thetas[theta_index];
            let candidates = ChainQuiltShape::candidates(node, length, prep.max_offset, width_cap);
            // Candidates come `a`-major, so keeping the secret pairs of the
            // last evaluation index serves each run of quilts that share it.
            let mut pairs = None;
            best_quilt(epsilon, candidates, |&shape| {
                // The stationary shortcut evaluates at a small virtual index
                // just past the left offset.
                let eval_index = if prep.virtual_shift {
                    shape.offsets().0 + 1
                } else {
                    node
                };
                prep.tables
                    .influence(&prep.powers, &mut pairs, eval_index, shape, mode)
            })
        })?;

        let mut sigma_max: f64 = 0.0;
        let mut selections = Vec::with_capacity(thetas.len());
        let mut scores = scores.into_iter();
        for (theta_index, prep) in thetas.iter().enumerate() {
            let (mut node, mut shape, mut score) = (prep.nodes[0], ChainQuiltShape::Trivial, 0.0);
            let run = scores.by_ref().take(prep.nodes.len());
            for (&i, best) in prep.nodes.iter().zip(run) {
                let (sigma_i, _, quilt) =
                    best.expect("the trivial quilt (influence 0) qualifies for ε > 0");
                if sigma_i > score {
                    (node, shape, score) = (i, quilt, sigma_i);
                }
            }
            sigma_max = sigma_max.max(score);
            selections.push(QuiltSelection {
                theta_index,
                node,
                shape,
                score,
            });
        }

        if !sigma_max.is_finite() || sigma_max <= 0.0 {
            return Err(PufferfishError::CannotCalibrate(format!(
                "calibration produced an invalid noise multiplier {sigma_max}"
            )));
        }
        Ok(MqmExact {
            state: MechanismState {
                family: "mqm-exact",
                epsilon,
                scale: ScaleForm::LipschitzTimes {
                    multiplier: sigma_max,
                },
                validation: ValidationForm::StateRange { num_states },
            },
            sigma_max,
            length,
            selections,
        })
    }

    /// Calibrates for a single chain (`Θ = {θ}`), the configuration used for
    /// the paper's real-data experiments.
    ///
    /// # Errors
    /// Same as [`MqmExact::calibrate`].
    pub fn calibrate_single(
        chain: &MarkovChain,
        length: usize,
        budget: PrivacyBudget,
        options: MqmExactOptions,
    ) -> Result<Self> {
        let class = MarkovChainClass::singleton(chain.clone());
        Self::calibrate(&class, length, budget, options)
    }

    /// Stage-1 precomputation for one θ: matrix powers, marginals, the
    /// per-offset influence tables, and the node list to search.
    fn prepare_theta(
        chain: &MarkovChain,
        length: usize,
        width_cap: usize,
        mode: InitialDistributionMode,
        options: MqmExactOptions,
    ) -> Result<PreparedTheta> {
        // The largest offset any candidate quilt can use.
        let max_offset = width_cap.min(length.saturating_sub(1)).max(1);

        let stationary_start = chain.is_stationary(chain.initial(), 1e-9);
        let (powers, virtual_shift) = if options.search_middle_only && stationary_start {
            // The marginal P(X_i) equals the initial distribution for every i,
            // so influences can be evaluated at a small "virtual" index
            // without materialising T marginals.
            let horizon = (max_offset + 1).min(length);
            (
                TransitionPowers::new(chain, max_offset.min(length - 1), horizon)?,
                true,
            )
        } else {
            let max_power = match mode {
                InitialDistributionMode::AllInitials => length - 1,
                InitialDistributionMode::FixedInitial => max_offset.min(length - 1),
            }
            .max(max_offset.min(length - 1));
            (TransitionPowers::new(chain, max_power, length)?, false)
        };

        let nodes: Vec<usize> = if options.search_middle_only {
            vec![length.div_ceil(2)]
        } else {
            (1..=length).collect()
        };

        // Per-offset backward/forward log-ratio tables shared by every node
        // and quilt of this θ: quilt evaluations drop from O(k³) to O(k²).
        let tables = ChainInfluenceTables::new(&powers, max_offset.min(powers.max_power()))?;

        Ok(PreparedTheta {
            powers,
            tables,
            nodes,
            virtual_shift,
            max_offset,
        })
    }

    /// The noise multiplier `σ_max`.
    pub fn sigma_max(&self) -> f64 {
        self.sigma_max
    }

    /// Chain length the mechanism was calibrated for.
    pub fn length(&self) -> usize {
        self.length
    }

    /// Per-θ calibration summaries (worst node and winning quilt).
    pub fn selections(&self) -> &[QuiltSelection] {
        &self.selections
    }
}

impl Mechanism for MqmExact {
    fn state(&self) -> &MechanismState {
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mqm_chain_influence::chain_max_influence_cached;
    use crate::queries::{RelativeFrequencyHistogram, StateFrequencyQuery};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn theta1() -> MarkovChain {
        MarkovChain::new(vec![1.0, 0.0], vec![vec![0.9, 0.1], vec![0.4, 0.6]]).unwrap()
    }

    fn theta2() -> MarkovChain {
        MarkovChain::new(vec![0.9, 0.1], vec![vec![0.8, 0.2], vec![0.3, 0.7]]).unwrap()
    }

    #[test]
    fn running_example_sigma_for_theta1_matches_paper() {
        // Section 4.4.1: for θ₁ (T = 100, ε = 1) the highest score is
        // 13.0219, achieved at X₈ by the quilt {X₃, X₁₃}.
        let mechanism = MqmExact::calibrate_single(
            &theta1(),
            100,
            PrivacyBudget::new(1.0).unwrap(),
            MqmExactOptions::default(),
        )
        .unwrap();
        assert!(
            (mechanism.sigma_max() - 13.0219).abs() < 5e-3,
            "sigma_max = {}",
            mechanism.sigma_max()
        );
        let selection = mechanism.selections()[0];
        assert_eq!(selection.node, 8, "worst node {:?}", selection);
        assert_eq!(
            selection.shape,
            ChainQuiltShape::TwoSided { a: 5, b: 5 },
            "winning quilt {:?}",
            selection
        );
    }

    #[test]
    fn running_example_sigma_for_theta2_matches_paper() {
        // Section 4.4.1: for θ₂ the highest score is 10.6402, achieved at X₆
        // by the quilt {X₁₀} (a right-only quilt with b = 4).
        let mechanism = MqmExact::calibrate_single(
            &theta2(),
            100,
            PrivacyBudget::new(1.0).unwrap(),
            MqmExactOptions::default(),
        )
        .unwrap();
        assert!(
            (mechanism.sigma_max() - 10.6402).abs() < 5e-3,
            "sigma_max = {}",
            mechanism.sigma_max()
        );
        let selection = mechanism.selections()[0];
        assert_eq!(selection.node, 6, "worst node {:?}", selection);
        assert_eq!(selection.shape, ChainQuiltShape::RightOnly { b: 4 });
    }

    #[test]
    fn running_example_class_takes_the_maximum() {
        // The full running example: Θ = {θ₁, θ₂} and the mechanism adds
        // Lap(13.0219 · L) noise.
        let class = MarkovChainClass::from_chains(vec![theta1(), theta2()]).unwrap();
        let mechanism = MqmExact::calibrate(
            &class,
            100,
            PrivacyBudget::new(1.0).unwrap(),
            MqmExactOptions::default(),
        )
        .unwrap();
        assert!((mechanism.sigma_max() - 13.0219).abs() < 5e-3);
        assert_eq!(mechanism.selections().len(), 2);
        assert_eq!(mechanism.epsilon(), 1.0);
        assert_eq!(mechanism.length(), 100);
    }

    #[test]
    fn section_4_3_scores_are_reproduced() {
        // T = 3, ε = 10: scores of the quilts of the middle node are
        // 0.3, 0.2437, 0.2437, 0.1558 and the best is {X₁, X₃}.
        let chain = MarkovChain::new(vec![0.8, 0.2], vec![vec![0.9, 0.1], vec![0.4, 0.6]]).unwrap();
        let powers = TransitionPowers::new(&chain, 2, 3).unwrap();
        let tables = ChainInfluenceTables::new(&powers, 2).unwrap();
        let epsilon = 10.0;
        let (best, _, shape) =
            best_quilt(epsilon, ChainQuiltShape::candidates(2, 3, 2, 3), |&shape| {
                chain_max_influence_cached(
                    &powers,
                    &tables,
                    2,
                    shape,
                    InitialDistributionMode::FixedInitial,
                )
            })
            .unwrap()
            .unwrap();
        assert!((best - 0.1558).abs() < 1e-3, "best score {best}");
        assert_eq!(shape, ChainQuiltShape::TwoSided { a: 1, b: 1 });
    }

    #[test]
    fn trivial_quilt_bounds_sigma_by_group_dp() {
        // σ_max can never exceed T / ε (the trivial quilt), which is the
        // group-DP scale for a fully correlated chain.
        let slow =
            MarkovChain::new(vec![0.5, 0.5], vec![vec![0.999, 0.001], vec![0.001, 0.999]]).unwrap();
        let mechanism = MqmExact::calibrate_single(
            &slow,
            50,
            PrivacyBudget::new(1.0).unwrap(),
            MqmExactOptions::default(),
        )
        .unwrap();
        assert!(mechanism.sigma_max() <= 50.0 + 1e-9);
        // A slow-mixing chain needs (close to) the trivial amount of noise.
        assert!(mechanism.sigma_max() > 25.0);
    }

    #[test]
    fn fast_mixing_chains_need_little_noise() {
        let fast = MarkovChain::new(vec![0.5, 0.5], vec![vec![0.5, 0.5], vec![0.5, 0.5]]).unwrap();
        let mechanism = MqmExact::calibrate_single(
            &fast,
            200,
            PrivacyBudget::new(1.0).unwrap(),
            MqmExactOptions::default(),
        )
        .unwrap();
        // An i.i.d. chain has zero influence at distance 1, so the best quilt
        // is {X_{i-1}, X_{i+1}} with score 1/ε.
        assert!((mechanism.sigma_max() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn middle_only_with_stationary_start_matches_full_search() {
        let chain =
            MarkovChain::with_stationary_initial(vec![vec![0.85, 0.15], vec![0.35, 0.65]]).unwrap();
        let budget = PrivacyBudget::new(1.0).unwrap();
        let full = MqmExact::calibrate_single(
            &chain,
            120,
            budget,
            MqmExactOptions {
                max_quilt_width: Some(40),
                search_middle_only: false,
                ..Default::default()
            },
        )
        .unwrap();
        let middle = MqmExact::calibrate_single(
            &chain,
            120,
            budget,
            MqmExactOptions {
                max_quilt_width: Some(40),
                search_middle_only: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            (full.sigma_max() - middle.sigma_max()).abs() < 1e-6,
            "full {} vs middle {}",
            full.sigma_max(),
            middle.sigma_max()
        );
    }

    #[test]
    fn width_cap_only_increases_sigma() {
        let chain = theta1();
        let budget = PrivacyBudget::new(1.0).unwrap();
        let unrestricted =
            MqmExact::calibrate_single(&chain, 100, budget, MqmExactOptions::default()).unwrap();
        let narrow = MqmExact::calibrate_single(
            &chain,
            100,
            budget,
            MqmExactOptions {
                max_quilt_width: Some(4),
                search_middle_only: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(narrow.sigma_max() >= unrestricted.sigma_max() - 1e-9);
    }

    #[test]
    fn smaller_epsilon_needs_more_noise() {
        let chain = theta1();
        let tight = MqmExact::calibrate_single(
            &chain,
            100,
            PrivacyBudget::new(0.2).unwrap(),
            MqmExactOptions::default(),
        )
        .unwrap();
        let loose = MqmExact::calibrate_single(
            &chain,
            100,
            PrivacyBudget::new(5.0).unwrap(),
            MqmExactOptions::default(),
        )
        .unwrap();
        assert!(tight.sigma_max() > loose.sigma_max());
    }

    #[test]
    fn release_histogram_and_errors() {
        let chain = theta1();
        let mechanism = MqmExact::calibrate_single(
            &chain,
            100,
            PrivacyBudget::new(1.0).unwrap(),
            MqmExactOptions::default(),
        )
        .unwrap();
        let query = RelativeFrequencyHistogram::new(2, 100).unwrap();
        assert!((mechanism.noise_scale_for(&query) - 0.02 * mechanism.sigma_max()).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(3);
        let database = pufferfish_markov::sample_trajectory(&chain, 100, &mut rng).unwrap();
        let release = mechanism.release(&query, &database, &mut rng).unwrap();
        assert_eq!(release.values.len(), 2);
        assert!((release.true_values.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(release.scale > 0.0);

        // Database validation.
        assert!(mechanism
            .release(&query, &database[..50], &mut rng)
            .is_err());
        let bad: Vec<usize> = vec![7; 100];
        assert!(mechanism.release(&query, &bad, &mut rng).is_err());
    }

    #[test]
    fn scalar_release_has_expected_error_magnitude() {
        let chain = theta1();
        let mechanism = MqmExact::calibrate_single(
            &chain,
            100,
            PrivacyBudget::new(1.0).unwrap(),
            MqmExactOptions::default(),
        )
        .unwrap();
        let query = StateFrequencyQuery::new(1, 100);
        let mut rng = StdRng::seed_from_u64(9);
        let database = pufferfish_markov::sample_trajectory(&chain, 100, &mut rng).unwrap();
        let trials = 5_000;
        let mut total = 0.0;
        for _ in 0..trials {
            total += mechanism
                .release(&query, &database, &mut rng)
                .unwrap()
                .l1_error();
        }
        let mean_error = total / trials as f64;
        // Mean |Lap(b)| = b = sigma_max / 100.
        let expected = mechanism.sigma_max() / 100.0;
        assert!(
            (mean_error - expected).abs() < 0.2 * expected,
            "mean {mean_error} vs expected {expected}"
        );
    }

    #[test]
    fn calibration_validation() {
        let class = MarkovChainClass::singleton(theta1());
        assert!(MqmExact::calibrate(
            &class,
            0,
            PrivacyBudget::new(1.0).unwrap(),
            MqmExactOptions::default()
        )
        .is_err());
    }
}
