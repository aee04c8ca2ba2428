//! The GK16 baseline: the influence-matrix mechanism of Ghosh & Kleinberg,
//! "Inferential privacy guarantees for differentially private mechanisms"
//! (2016), as used for comparison in Section 5 of the Pufferfish mechanisms
//! paper.
//!
//! No reference implementation of GK16 is publicly available; this
//! re-implementation follows the description the Pufferfish paper relies on:
//!
//! * for every `θ ∈ Θ` an *influence matrix* is computed from the local
//!   (single-step) dependencies between adjacent variables — for a Markov
//!   chain, the max-divergence of the forward transition kernel and of the
//!   time-reversed kernel;
//! * the mechanism **applies only when the spectral norm of the influence
//!   matrix is below 1** for every `θ`;
//! * when it applies, the Laplace noise of the standard DP release is
//!   inflated by `1 / (1 − ‖I‖₂)`.
//!
//! This reproduces the two behaviours the evaluation depends on: GK16 is
//! inapplicable whenever local correlations are strong (the dashed line in
//! Figure 4 and every real-data column of Tables 1 and 3), and its error
//! grows as the spectral norm approaches 1.
//!
//! The norm depends on the class and the chain length, never on ε, and it
//! costs a dense eigensolve per chain. [`Gk16::calibrate`] computes it for
//! one ε; [`Gk16Calibrator`] computes it once and folds every ε from it.

use std::sync::{Arc, OnceLock};

use pufferfish_core::engine::{markov_class_token, Calibrator, TokenHasher};
use pufferfish_core::snapshot::{MechanismState, ScaleForm, ValidationForm};
use pufferfish_core::{LipschitzQuery, Mechanism, PrivacyBudget, PufferfishError, Result};
use pufferfish_linalg::Matrix;
use pufferfish_markov::{time_reversal, MarkovChain, MarkovChainClass};

/// Chain lengths up to this size build the explicit `T x T` influence matrix;
/// longer chains use the Toeplitz-limit spectral norm (forward + backward
/// influence), which the explicit norm converges to from below.
const EXPLICIT_NORM_LIMIT: usize = 256;

/// Summary of the influence matrix of one distribution in the class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InfluenceMatrixSummary {
    /// Max-divergence influence of `X_t` on `X_{t+1}`.
    pub forward_influence: f64,
    /// Max-divergence influence of `X_{t+1}` on `X_t` (via the time-reversed
    /// kernel).
    pub backward_influence: f64,
    /// Spectral norm of the influence matrix.
    pub spectral_norm: f64,
}

/// The ε-free part of a GK16 calibration: the influence summaries of a
/// `(class, length)` and their worst spectral norm, known to be below 1.
#[derive(Debug)]
struct Profile {
    worst_norm: f64,
    summaries: Vec<InfluenceMatrixSummary>,
}

impl Profile {
    /// Computes every chain's influence summary — one dense eigensolve per
    /// chain up to [`EXPLICIT_NORM_LIMIT`] — or refuses the class.
    fn new(class: &MarkovChainClass, length: usize) -> Result<Self> {
        if length == 0 {
            return Err(PufferfishError::InvalidQuery(
                "chain length must be positive".to_string(),
            ));
        }
        let mut worst_norm: f64 = 0.0;
        let mut summaries = Vec::with_capacity(class.len());
        for chain in class.chains() {
            let summary = influence_summary(chain, length)?;
            worst_norm = worst_norm.max(summary.spectral_norm);
            summaries.push(summary);
        }
        if worst_norm >= 1.0 {
            return Err(PufferfishError::CannotCalibrate(format!(
                "GK16 does not apply: influence-matrix spectral norm {worst_norm:.4} >= 1"
            )));
        }
        Ok(Profile {
            worst_norm,
            summaries,
        })
    }
}

/// A calibrated GK16 mechanism.
#[derive(Debug, Clone)]
pub struct Gk16 {
    state: MechanismState,
    profile: Arc<Profile>,
}

impl Gk16 {
    /// Calibrates GK16 for a class of Markov chains of the given length.
    ///
    /// # Errors
    /// * [`PufferfishError::CannotCalibrate`] when the spectral norm of some
    ///   influence matrix is `>= 1` (the mechanism does not apply — reported
    ///   as "N/A" throughout the paper's tables) or the chains do not mix.
    pub fn calibrate(
        class: &MarkovChainClass,
        length: usize,
        budget: PrivacyBudget,
    ) -> Result<Self> {
        Ok(Gk16::fold(Arc::new(Profile::new(class, length)?), budget))
    }

    /// The mechanism at `budget` over an ε-free profile: `Lap(Δ/ε)` inflated
    /// by `1 / (1 − ‖I‖₂)`.
    fn fold(profile: Arc<Profile>, budget: PrivacyBudget) -> Self {
        Gk16 {
            state: MechanismState {
                family: "gk16",
                epsilon: budget.epsilon(),
                scale: ScaleForm::LipschitzRatio {
                    numerator: 1.0 / (1.0 - profile.worst_norm),
                    denominator: budget.epsilon(),
                },
                validation: ValidationForm::QueryLength,
            },
            profile,
        }
    }

    /// The worst spectral norm over the class.
    pub fn spectral_norm(&self) -> f64 {
        self.profile.worst_norm
    }

    /// Per-distribution influence summaries.
    pub fn summaries(&self) -> &[InfluenceMatrixSummary] {
        &self.profile.summaries
    }

    /// The noise-inflation factor `1 / (1 − ‖I‖₂)`.
    pub fn inflation(&self) -> f64 {
        1.0 / (1.0 - self.profile.worst_norm)
    }
}

impl Mechanism for Gk16 {
    fn state(&self) -> &MechanismState {
        &self.state
    }
}

/// The release-engine [`Calibrator`] for GK16 over one `(class, length)`.
///
/// The influence-matrix norm does not depend on ε, so the calibrator
/// computes it once, on the first calibration, and folds every ε from that
/// profile — bitwise the mechanism [`Gk16::calibrate`] returns. A class GK16
/// does not apply to is refused once, and that refusal is returned for every
/// ε. Calibrations arriving while the profile is computed wait for it.
///
/// Calibration is class-scoped (the scale is rescaled by the query's
/// Lipschitz constant at release time), under the family name `"gk16"` and
/// the token `TokenHasher::new("gk16")` mixed with the class token and the
/// length, so snapshots keyed by that token keep warm-starting its engine.
pub struct Gk16Calibrator {
    class: MarkovChainClass,
    length: usize,
    token: u64,
    profile: OnceLock<Result<Arc<Profile>>>,
}

impl Gk16Calibrator {
    /// A calibrator for chains of `length` drawn from `class`; nothing is
    /// computed until the first calibration.
    pub fn new(class: MarkovChainClass, length: usize) -> Self {
        let token = TokenHasher::new("gk16")
            .mix(&markov_class_token(&class))
            .mix(&length)
            .finish();
        Gk16Calibrator {
            class,
            length,
            token,
            profile: OnceLock::new(),
        }
    }

    /// The mechanism at `budget`, from the profile computed on first use.
    fn gk16(&self, budget: PrivacyBudget) -> Result<Gk16> {
        let profile = self
            .profile
            .get_or_init(|| Profile::new(&self.class, self.length).map(Arc::new))
            .clone()?;
        Ok(Gk16::fold(profile, budget))
    }
}

impl Calibrator for Gk16Calibrator {
    fn kind(&self) -> &'static str {
        "gk16"
    }

    fn class_token(&self) -> u64 {
        self.token
    }

    fn query_scoped(&self) -> bool {
        false
    }

    fn calibrate(
        &self,
        _query: &dyn LipschitzQuery,
        budget: PrivacyBudget,
    ) -> Result<Arc<dyn Mechanism>> {
        Ok(Arc::new(self.gk16(budget)?))
    }
}

/// Builds the influence summary of a single chain.
fn influence_summary(chain: &MarkovChain, length: usize) -> Result<InfluenceMatrixSummary> {
    let forward = kernel_max_divergence(chain.transition());
    let reversed = time_reversal(chain)?;
    let backward = kernel_max_divergence(reversed.transition());

    let spectral_norm = if forward.is_infinite() || backward.is_infinite() {
        f64::INFINITY
    } else if length <= EXPLICIT_NORM_LIMIT {
        explicit_tridiagonal_norm(forward, backward, length)?
    } else {
        // Toeplitz symbol limit: sup_ω |a e^{iω} + b e^{-iω}| = a + b.
        forward + backward
    };
    Ok(InfluenceMatrixSummary {
        forward_influence: forward,
        backward_influence: backward,
        spectral_norm,
    })
}

/// `max_{x, x', y} log P(y | x) / P(y | x')` for a transition kernel; infinite
/// when some transition probability is zero while another row's is not.
fn kernel_max_divergence(kernel: &Matrix) -> f64 {
    let k = kernel.rows();
    let mut worst: f64 = 0.0;
    for x in 0..k {
        for x_prime in 0..k {
            if x == x_prime {
                continue;
            }
            for y in 0..k {
                let numerator = kernel[(x, y)];
                let denominator = kernel[(x_prime, y)];
                if numerator <= 0.0 {
                    continue;
                }
                if denominator <= 0.0 {
                    return f64::INFINITY;
                }
                worst = worst.max((numerator / denominator).ln());
            }
        }
    }
    worst
}

/// Spectral norm of the `length x length` influence matrix with constant
/// super-diagonal `forward` and sub-diagonal `backward`.
fn explicit_tridiagonal_norm(forward: f64, backward: f64, length: usize) -> Result<f64> {
    if length == 1 {
        return Ok(0.0);
    }
    let mut matrix = Matrix::zeros(length, length);
    for t in 0..length - 1 {
        matrix[(t, t + 1)] = forward;
        matrix[(t + 1, t)] = backward;
    }
    Ok(matrix.spectral_norm()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pufferfish_core::queries::{LipschitzQuery, StateFrequencyQuery};
    use pufferfish_markov::IntervalClassBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn budget() -> PrivacyBudget {
        PrivacyBudget::new(1.0).unwrap()
    }

    #[test]
    fn weakly_correlated_class_is_supported() {
        // p0, p1 in [0.45, 0.55]: influences are tiny, norm well below 1.
        let class = IntervalClassBuilder::symmetric(0.45)
            .grid_points(3)
            .build()
            .unwrap();
        let gk = Gk16::calibrate(&class, 100, budget()).unwrap();
        assert!(gk.spectral_norm() < 1.0);
        assert!(gk.inflation() >= 1.0);
        assert_eq!(gk.summaries().len(), 9);
        assert_eq!(gk.epsilon(), 1.0);

        let query = StateFrequencyQuery::new(1, 100);
        assert!(gk.noise_scale_for(&query) >= query.lipschitz_constant());
        let mut rng = StdRng::seed_from_u64(11);
        let db: Vec<usize> = (0..100).map(|i| i % 2).collect();
        let release = gk.release(&query, &db, &mut rng).unwrap();
        assert_eq!(release.values.len(), 1);
    }

    #[test]
    fn strongly_correlated_class_is_rejected() {
        // Sticky chains (p in [0.1, 0.9] includes strong correlation): the
        // norm exceeds 1 and GK16 reports N/A.
        let class = IntervalClassBuilder::symmetric(0.1)
            .grid_points(5)
            .build()
            .unwrap();
        assert!(matches!(
            Gk16::calibrate(&class, 100, budget()),
            Err(PufferfishError::CannotCalibrate(_))
        ));
    }

    #[test]
    fn deterministic_transitions_are_rejected() {
        let deterministic =
            MarkovChain::new(vec![0.5, 0.5], vec![vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let class = MarkovChainClass::singleton(deterministic);
        assert!(Gk16::calibrate(&class, 50, budget()).is_err());
    }

    #[test]
    fn norm_grows_with_correlation_strength() {
        let make = |stay: f64| {
            MarkovChainClass::singleton(
                MarkovChain::new(
                    vec![0.5, 0.5],
                    vec![vec![stay, 1.0 - stay], vec![1.0 - stay, stay]],
                )
                .unwrap(),
            )
        };
        let weak = Gk16::calibrate(&make(0.55), 100, budget()).unwrap();
        let stronger = Gk16::calibrate(&make(0.6), 100, budget()).unwrap();
        assert!(stronger.spectral_norm() > weak.spectral_norm());
        assert!(stronger.inflation() > weak.inflation());
    }

    #[test]
    fn toeplitz_limit_close_to_explicit_norm() {
        // The explicit tridiagonal norm converges to forward + backward.
        let explicit = explicit_tridiagonal_norm(0.2, 0.3, 200).unwrap();
        assert!(explicit <= 0.5 + 1e-9);
        assert!(explicit > 0.49, "explicit norm {explicit}");
        assert_eq!(explicit_tridiagonal_norm(0.2, 0.3, 1).unwrap(), 0.0);
    }

    #[test]
    fn long_chain_uses_toeplitz_limit() {
        let class = IntervalClassBuilder::symmetric(0.45)
            .grid_points(2)
            .build()
            .unwrap();
        let short = Gk16::calibrate(&class, 100, budget()).unwrap();
        let long = Gk16::calibrate(&class, 10_000, budget()).unwrap();
        // The limit value upper-bounds the explicit norm and they are close.
        assert!(long.spectral_norm() >= short.spectral_norm() - 1e-9);
        assert!((long.spectral_norm() - short.spectral_norm()).abs() < 0.02);
    }

    #[test]
    fn calibrator_folds_every_epsilon_from_one_profile() {
        let class = IntervalClassBuilder::symmetric(0.4)
            .grid_points(2)
            .build()
            .unwrap();
        let calibrator = Gk16Calibrator::new(class.clone(), 100);
        assert_eq!(calibrator.kind(), "gk16");
        assert!(!calibrator.query_scoped());
        let token = TokenHasher::new("gk16")
            .mix(&markov_class_token(&class))
            .mix(&100usize)
            .finish();
        assert_eq!(calibrator.class_token(), token);

        // Cold ε arriving together wait for one profile and share it.
        let epsilons = [0.02, 0.05, 0.3, 1.0];
        let folds: Vec<Gk16> = std::thread::scope(|scope| {
            let calibrator = &calibrator;
            let workers: Vec<_> = epsilons
                .iter()
                .map(|&epsilon| {
                    scope.spawn(move || calibrator.gk16(PrivacyBudget::new(epsilon).unwrap()))
                })
                .collect();
            workers
                .into_iter()
                .map(|worker| worker.join().unwrap().unwrap())
                .collect()
        });
        let query = StateFrequencyQuery::new(1, 100);
        for (fold, epsilon) in folds.iter().zip(epsilons) {
            assert!(Arc::ptr_eq(&fold.profile, &folds[0].profile));
            let budget = PrivacyBudget::new(epsilon).unwrap();
            let direct = Gk16::calibrate(&class, 100, budget).unwrap();
            assert_eq!(fold.summaries(), direct.summaries());
            assert_eq!(
                fold.spectral_norm().to_bits(),
                direct.spectral_norm().to_bits()
            );
            let engine_scale = calibrator
                .calibrate(&query, budget)
                .unwrap()
                .noise_scale_for(&query);
            assert_eq!(
                engine_scale.to_bits(),
                direct.noise_scale_for(&query).to_bits()
            );
        }
        assert!(Arc::ptr_eq(
            &calibrator.gk16(budget()).unwrap().profile,
            &folds[0].profile
        ));
    }

    #[test]
    fn calibrator_refuses_every_epsilon_like_a_direct_calibration() {
        let sticky = IntervalClassBuilder::symmetric(0.1)
            .grid_points(5)
            .build()
            .unwrap();
        let calibrator = Gk16Calibrator::new(sticky.clone(), 100);
        let query = StateFrequencyQuery::new(1, 100);
        for epsilon in [0.05, 1.0, 4.0] {
            let budget = PrivacyBudget::new(epsilon).unwrap();
            let direct = Gk16::calibrate(&sticky, 100, budget).unwrap_err();
            assert!(matches!(direct, PufferfishError::CannotCalibrate(_)));
            let refused = calibrator.calibrate(&query, budget).err().unwrap();
            assert_eq!(refused.to_string(), direct.to_string());
        }
        let empty = Gk16Calibrator::new(sticky, 0);
        assert!(matches!(
            empty.calibrate(&query, budget()),
            Err(PufferfishError::InvalidQuery(_))
        ));
    }

    #[test]
    fn validation() {
        let class = IntervalClassBuilder::symmetric(0.45).build().unwrap();
        assert!(Gk16::calibrate(&class, 0, budget()).is_err());
    }
}
