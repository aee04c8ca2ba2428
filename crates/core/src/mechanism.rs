//! Shared mechanism plumbing: the unified [`Mechanism`] trait, privacy
//! budgets and noisy releases.

use rand::RngCore;

use crate::queries::LipschitzQuery;
use crate::snapshot::MechanismState;
use crate::{Laplace, PufferfishError, Result};

/// A validated privacy parameter `epsilon > 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyBudget {
    epsilon: f64,
}

impl PrivacyBudget {
    /// Creates a budget with the given epsilon.
    ///
    /// # Errors
    /// [`PufferfishError::InvalidEpsilon`] unless `epsilon` is positive and
    /// finite.
    pub fn new(epsilon: f64) -> Result<Self> {
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(PufferfishError::InvalidEpsilon(epsilon));
        }
        Ok(PrivacyBudget { epsilon })
    }

    /// The epsilon value.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

/// The unified, object-safe interface every calibrated Pufferfish mechanism
/// (and every baseline) exposes.
///
/// A `Mechanism` is the *output* of calibration. Every family in the paper
/// ends in the same step — evaluate the query and add Laplace noise at a
/// calibrated scale — and differs only in how it calibrates that scale. So
/// a family keeps one thing: its calibrated normal form, the
/// [`MechanismState`] (ε, the query → scale rule and the database
/// validation rule) it builds once at calibration. Implementors define only
/// [`Mechanism::state`]; the name, ε, noise scale, validation and every
/// release are provided methods that read it, so all families release
/// through one path. Calibration itself stays on the concrete types (each
/// family consumes different inputs — a
/// [`DiscretePufferfishFramework`](crate::DiscretePufferfishFramework), a
/// [`MarkovChainClass`](pufferfish_markov::MarkovChainClass), a network
/// class); the [`engine`](crate::engine) module erases that difference behind
/// [`Calibrator`](crate::engine::Calibrator) objects and caches the results.
///
/// Implementors: [`WassersteinMechanism`](crate::WassersteinMechanism),
/// [`MarkovQuiltMechanism`](crate::MarkovQuiltMechanism),
/// [`MqmExact`](crate::MqmExact), [`MqmApprox`](crate::MqmApprox), the
/// three baselines in `pufferfish-baselines` (`EntryDp`, `GroupDp`, `Gk16`)
/// and [`MechanismState`] itself, which is what a snapshot restores.
///
/// The trait is object-safe: releases draw randomness through
/// `&mut dyn RngCore`, so `Box<dyn Mechanism>` works as a uniform handle in
/// engines, benches and tests.
pub trait Mechanism: Send + Sync {
    /// The calibrated normal form every other method reads.
    fn state(&self) -> &MechanismState;

    /// A short stable name ("wasserstein", "mqm-exact", …) used in reports
    /// and cache diagnostics.
    fn name(&self) -> &'static str {
        self.state().family
    }

    /// The privacy parameter ε the mechanism was calibrated for.
    fn epsilon(&self) -> f64 {
        self.state().epsilon
    }

    /// The Laplace scale applied to each coordinate of `query`.
    fn noise_scale_for(&self, query: &dyn LipschitzQuery) -> f64 {
        self.state().scale.scale_for(query)
    }

    /// Checks a database against the calibration (length, state range, …).
    ///
    /// # Errors
    /// [`PufferfishError::InvalidDatabase`] on mismatch.
    fn validate(&self, query: &dyn LipschitzQuery, database: &[usize]) -> Result<()> {
        self.state().validation.check(query, database)
    }

    /// Evaluates `query` on `database` and adds calibrated Laplace noise.
    ///
    /// A zero noise scale (possible only when the calibrated distance/query
    /// sensitivity is zero) releases the exact value.
    ///
    /// # Errors
    /// Validation and query-evaluation errors are propagated.
    fn release(
        &self,
        query: &dyn LipschitzQuery,
        database: &[usize],
        rng: &mut dyn RngCore,
    ) -> Result<NoisyRelease> {
        ReleaseStep::new(self.noise_scale_for(query))?.release(self, query, database, rng)
    }

    /// Releases the same query over a batch of databases.
    ///
    /// Equivalent to calling [`Mechanism::release`] once per database with
    /// the same rng — the noise stream is consumed in database order, so a
    /// batched release is reproducible against a sequential one.
    ///
    /// # Errors
    /// Fails on the first database that fails validation or evaluation.
    fn release_batch(
        &self,
        query: &dyn LipschitzQuery,
        databases: &[Vec<usize>],
        rng: &mut dyn RngCore,
    ) -> Result<Vec<NoisyRelease>> {
        let refs: Vec<&[usize]> = databases.iter().map(Vec::as_slice).collect();
        self.release_batch_refs(query, &refs, rng)
    }

    /// [`Mechanism::release_batch`] over *borrowed* window slices — the hot
    /// path the morsel executor calls with windows sliced straight out of a
    /// columnar batch, no per-window materialization.
    ///
    /// The noise scale and the Laplace distribution are computed once for
    /// the batch and one noise buffer is refilled per window. Each window
    /// consumes exactly `dimension` draws in window order, so the noise
    /// stream — and therefore every released bit — matches a sequence of
    /// scalar [`Mechanism::release`] calls on the same rng.
    ///
    /// # Errors
    /// Fails on the first database that fails validation or evaluation.
    fn release_batch_refs(
        &self,
        query: &dyn LipschitzQuery,
        databases: &[&[usize]],
        rng: &mut dyn RngCore,
    ) -> Result<Vec<NoisyRelease>> {
        let mut step = ReleaseStep::new(self.noise_scale_for(query))?;
        databases
            .iter()
            .map(|&database| step.release(self, query, database, rng))
            .collect()
    }
}

/// The per-database release step every [`Mechanism`] release goes through:
/// one calibrated scale, its Laplace distribution (`None` when the scale is
/// zero, which releases the exact value) and a reusable noise buffer.
struct ReleaseStep {
    scale: f64,
    laplace: Option<Laplace>,
    noise: Vec<f64>,
}

impl ReleaseStep {
    fn new(scale: f64) -> Result<Self> {
        let laplace = if scale > 0.0 {
            Some(Laplace::new(scale)?)
        } else {
            None
        };
        Ok(ReleaseStep {
            scale,
            laplace,
            noise: Vec::new(),
        })
    }

    /// Validates `database`, evaluates `query` on it and adds one Laplace
    /// draw per coordinate.
    fn release<M: Mechanism + ?Sized>(
        &mut self,
        mechanism: &M,
        query: &dyn LipschitzQuery,
        database: &[usize],
        rng: &mut dyn RngCore,
    ) -> Result<NoisyRelease> {
        mechanism.validate(query, database)?;
        let true_values = query.evaluate(database)?;
        let values = match &self.laplace {
            Some(laplace) => {
                self.noise.resize(true_values.len(), 0.0);
                laplace.sample_into(&mut self.noise, rng);
                true_values
                    .iter()
                    .zip(&self.noise)
                    .map(|(v, n)| v + n)
                    .collect()
            }
            None => true_values.clone(),
        };
        Ok(NoisyRelease {
            values,
            true_values,
            scale: self.scale,
        })
    }
}

/// The output of a privacy mechanism: the noisy values together with the
/// exact values and the Laplace scale that was used (useful for utility
/// accounting in experiments; a deployment would publish only `values`).
#[derive(Debug, Clone, PartialEq)]
pub struct NoisyRelease {
    /// The privatised query answers.
    pub values: Vec<f64>,
    /// The exact (non-private) query answers, retained for error measurement.
    pub true_values: Vec<f64>,
    /// Laplace scale applied to each coordinate.
    pub scale: f64,
}

impl NoisyRelease {
    /// L1 error between the noisy and exact values.
    pub fn l1_error(&self) -> f64 {
        l1_error(&self.values, &self.true_values)
    }

    /// L-infinity error between the noisy and exact values.
    pub fn linf_error(&self) -> f64 {
        self.values
            .iter()
            .zip(&self.true_values)
            .fold(0.0, |acc, (a, b)| acc.max((a - b).abs()))
    }
}

/// L1 distance between two equal-length value vectors.
///
/// # Panics
/// Panics when the slices have different lengths — a programming error in the
/// harness, not a data error.
pub fn l1_error(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "l1_error requires equal-length slices");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_validation() {
        assert!(PrivacyBudget::new(1.0).is_ok());
        assert_eq!(PrivacyBudget::new(0.2).unwrap().epsilon(), 0.2);
        assert!(matches!(
            PrivacyBudget::new(0.0),
            Err(PufferfishError::InvalidEpsilon(_))
        ));
        assert!(PrivacyBudget::new(-1.0).is_err());
        assert!(PrivacyBudget::new(f64::INFINITY).is_err());
        assert!(PrivacyBudget::new(f64::NAN).is_err());
    }

    #[test]
    fn release_error_metrics() {
        let release = NoisyRelease {
            values: vec![1.0, 2.0, 3.5],
            true_values: vec![1.0, 1.0, 3.0],
            scale: 0.5,
        };
        assert!((release.l1_error() - 1.5).abs() < 1e-12);
        assert!((release.linf_error() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn l1_error_helper() {
        assert_eq!(l1_error(&[0.0, 1.0], &[1.0, 1.0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn l1_error_panics_on_length_mismatch() {
        l1_error(&[0.0], &[1.0, 2.0]);
    }

    #[test]
    fn database_validation() {
        let state_range = crate::snapshot::ValidationForm::StateRange { num_states: 3 };
        let query = crate::queries::StateCountQuery::new(1, 3);
        assert!(state_range.check(&query, &[0, 1, 2]).is_ok());
        assert!(matches!(
            state_range.check(&query, &[0, 1]),
            Err(PufferfishError::InvalidDatabase(_))
        ));
        assert!(matches!(
            state_range.check(&query, &[0, 5, 2]),
            Err(PufferfishError::InvalidDatabase(_))
        ));
    }
}
