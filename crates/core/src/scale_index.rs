//! The ε-grid scale index: O(1) noise-scale probes with a certified error
//! bound.
//!
//! Cost-based planning (`pufferfish-query`) probes every registered
//! mechanism family's noise scale before choosing one. A probe through
//! [`ReleaseEngine::noise_scale_estimate`] *is* a calibration — cached, but
//! still paid in full once per `(family, ε)`. For interactive planning over
//! user-chosen ε values that cost dominates plan time.
//!
//! A [`ScaleIndex`] removes it: calibrate each family **once** at a
//! log-spaced [`EpsilonGrid`], then answer any in-grid ε by monotone
//! interpolation. Correctness rests on a structural fact shared by every
//! mechanism in this workspace: the calibrated Laplace scale is
//! **non-increasing in ε** (more budget never needs more noise — for the
//! quilt families `σ_max = max min card/(ε − influence)` falls in ε, for the
//! Wasserstein mechanism the scale is `W/ε`, for the baselines `Δ·c/ε`).
//! The true scale at `ε ∈ [ε_i, ε_{i+1}]` is therefore bracketed by the two
//! surrounding grid scales, and any estimate inside the bracket is within
//! the bracket's width of the truth — that width (plus a few-ULP rounding
//! slack) is the [`ScaleEstimate::error_bound`] the index certifies.
//! [`ScaleIndex::build`] verifies the monotone bracket on the actual grid
//! values and refuses to build an index that violates it.
//!
//! ε outside the grid (or a query the index's scope cannot answer) yields
//! `None` from [`ScaleIndex::estimate`]: callers fall back to an exact
//! engine probe. Exact calibration still happens lazily on the first real
//! release at any given ε — the index only makes *planning* cheap.
//!
//! [`ReleaseEngine::noise_scale_estimate`]: crate::ReleaseEngine::noise_scale_estimate

use crate::engine::QuerySignature;
use crate::mechanism::PrivacyBudget;
use crate::queries::LipschitzQuery;
use crate::{PufferfishError, ReleaseEngine, Result};

/// A strictly increasing, log-spaced grid of ε values.
///
/// Construction is deterministic: equal `(min, max, count)` inputs produce
/// bitwise-equal grids, so an index rebuilt after
/// [`import_snapshot`](crate::ReleaseEngine::import_snapshot) probes the
/// exact cache keys the snapshot restored — zero calibrations.
#[derive(Debug, Clone, PartialEq)]
pub struct EpsilonGrid {
    points: Vec<f64>,
}

impl EpsilonGrid {
    /// `count` points log-spaced over `[min_epsilon, max_epsilon]`, both
    /// endpoints included exactly.
    ///
    /// # Errors
    /// [`PufferfishError::InvalidEpsilon`] unless
    /// `0 < min_epsilon < max_epsilon` (both finite) and `count >= 2`.
    pub fn log_spaced(min_epsilon: f64, max_epsilon: f64, count: usize) -> Result<Self> {
        if !min_epsilon.is_finite() || min_epsilon <= 0.0 {
            return Err(PufferfishError::InvalidEpsilon(min_epsilon));
        }
        if !max_epsilon.is_finite() || max_epsilon <= min_epsilon {
            return Err(PufferfishError::InvalidEpsilon(max_epsilon));
        }
        if count < 2 {
            return Err(PufferfishError::InvalidQuery(
                "an epsilon grid needs at least 2 points".to_string(),
            ));
        }
        let log_min = min_epsilon.ln();
        let log_max = max_epsilon.ln();
        let mut points = Vec::with_capacity(count);
        for i in 0..count {
            let t = i as f64 / (count - 1) as f64;
            points.push((log_min + t * (log_max - log_min)).exp());
        }
        // Pin the endpoints exactly (exp(ln x) can be off by an ULP).
        points[0] = min_epsilon;
        points[count - 1] = max_epsilon;
        if points.windows(2).any(|w| w[1] <= w[0]) {
            // Only reachable when the range is so narrow that log spacing
            // collapses adjacent points to equal floats.
            return Err(PufferfishError::InvalidQuery(format!(
                "epsilon range [{min_epsilon}, {max_epsilon}] is too narrow for {count} \
                 distinct grid points"
            )));
        }
        Ok(EpsilonGrid { points })
    }

    /// The grid's ε values, strictly increasing.
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// The smallest grid ε.
    pub fn min_epsilon(&self) -> f64 {
        self.points[0]
    }

    /// The largest grid ε.
    pub fn max_epsilon(&self) -> f64 {
        self.points[self.points.len() - 1]
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Always `false` — construction requires at least two points. Present
    /// because clippy (reasonably) expects `is_empty` next to `len`.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// An interpolated noise-scale estimate with its certified bracket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleEstimate {
    /// The interpolated Laplace scale.
    pub scale: f64,
    /// Lower end of the certified bracket (the scale at the bracketing
    /// grid ε above the query ε — scales fall as ε grows).
    pub lower: f64,
    /// Upper end of the certified bracket.
    pub upper: f64,
    /// Certified bound: the exact calibrated scale differs from
    /// [`ScaleEstimate::scale`] by at most this much (bracket width plus a
    /// small floating-point rounding slack).
    pub error_bound: f64,
}

/// What the index stored per grid point, and for which queries it answers.
#[derive(Debug, Clone, PartialEq)]
enum IndexScope {
    /// The engine's calibration is query-independent: stored scales are per
    /// unit Lipschitz constant and the estimate rescales by the asking
    /// query's `L`. Answers **every** query.
    Class,
    /// The engine calibrates to the concrete query (Wasserstein): stored
    /// scales are absolute and only the recorded signature is answerable.
    Query(QuerySignature),
}

/// One grid point: ε and the stored (unit or absolute) scale.
#[derive(Debug, Clone, Copy, PartialEq)]
struct IndexPoint {
    epsilon: f64,
    ln_epsilon: f64,
    scale: f64,
}

/// A per-`(class, family)` index of calibrated noise scales over an
/// [`EpsilonGrid`].
///
/// # Example
///
/// ```
/// use pufferfish_core::engine::{MqmApproxCalibrator, ReleaseEngine};
/// use pufferfish_core::queries::StateFrequencyQuery;
/// use pufferfish_core::{EpsilonGrid, MqmApproxOptions, PrivacyBudget, ScaleIndex};
/// use pufferfish_markov::IntervalClassBuilder;
///
/// let class = IntervalClassBuilder::symmetric(0.4).grid_points(2).build().unwrap();
/// let engine = ReleaseEngine::new(MqmApproxCalibrator::new(
///     class,
///     60,
///     MqmApproxOptions::default(),
/// ));
/// let query = StateFrequencyQuery::new(1, 60);
/// let grid = EpsilonGrid::log_spaced(0.1, 10.0, 9).unwrap();
/// let index = ScaleIndex::build(&engine, &query, &grid).unwrap();
/// assert_eq!(engine.stats().misses, 9, "the grid is the entire cost");
///
/// // Any in-grid ε is now an O(log grid) lookup, not a calibration.
/// let estimate = index.estimate(&query, 0.7).unwrap();
/// let exact = engine
///     .noise_scale_estimate(&query, PrivacyBudget::new(0.7).unwrap())
///     .unwrap();
/// assert!((estimate.scale - exact).abs() <= estimate.error_bound);
///
/// // Out-of-grid ε: the caller falls back to an exact probe.
/// assert!(index.estimate(&query, 1e-3).is_none());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleIndex {
    kind: String,
    class_token: u64,
    scope: IndexScope,
    points: Vec<IndexPoint>,
}

/// The query-independent probe used against class-scoped engines: its unit
/// Lipschitz constant makes the mechanism's reported scale the raw noise
/// multiplier. Never evaluated.
struct UnitProbe {
    expected_length: usize,
}

impl LipschitzQuery for UnitProbe {
    fn lipschitz_constant(&self) -> f64 {
        1.0
    }

    fn output_dimension(&self) -> usize {
        1
    }

    fn expected_length(&self) -> usize {
        self.expected_length
    }

    fn evaluate(&self, _database: &[usize]) -> Result<Vec<f64>> {
        Err(PufferfishError::InvalidQuery(
            "the scale-index unit probe cannot be evaluated".to_string(),
        ))
    }

    fn name(&self) -> &str {
        "scale-index-unit-probe"
    }
}

impl ScaleIndex {
    /// Calibrates `engine` at every grid ε (through the engine's cache, so
    /// a warm cache — e.g. one restored from a snapshot — makes this free)
    /// and builds the index.
    ///
    /// For class-scoped engines the index stores scales per unit Lipschitz
    /// constant and afterwards answers **any** query; for query-scoped
    /// engines (the Wasserstein mechanism) it answers only queries with
    /// `query`'s signature.
    ///
    /// # Errors
    /// Calibration failures at any grid point are propagated (a family that
    /// cannot calibrate — [`PufferfishError::DegenerateClass`],
    /// [`PufferfishError::CannotCalibrate`] — cannot be indexed);
    /// [`PufferfishError::CannotCalibrate`] if the calibrated scales are not
    /// monotone non-increasing over the grid, which would void the certified
    /// bracket.
    pub fn build(
        engine: &ReleaseEngine,
        query: &dyn LipschitzQuery,
        grid: &EpsilonGrid,
    ) -> Result<Self> {
        let scoped = engine.query_scoped();
        let unit_probe = UnitProbe {
            expected_length: query.expected_length(),
        };
        let mut points = Vec::with_capacity(grid.len());
        for &epsilon in grid.points() {
            let budget = PrivacyBudget::new(epsilon)?;
            let mechanism = engine.mechanism(query, budget)?;
            let scale = if scoped {
                mechanism.noise_scale_for(query)
            } else {
                mechanism.noise_scale_for(&unit_probe)
            };
            if !scale.is_finite() {
                return Err(PufferfishError::CannotCalibrate(format!(
                    "scale index for '{}' hit a non-finite scale {scale} at epsilon {epsilon}",
                    engine.kind()
                )));
            }
            points.push(IndexPoint {
                epsilon,
                ln_epsilon: epsilon.ln(),
                scale,
            });
        }
        if let Some(pair) = points.windows(2).find(|w| w[1].scale > w[0].scale) {
            return Err(PufferfishError::CannotCalibrate(format!(
                "scale index for '{}' is not monotone: scale rises from {} (epsilon {}) to {} \
                 (epsilon {})",
                engine.kind(),
                pair[0].scale,
                pair[0].epsilon,
                pair[1].scale,
                pair[1].epsilon
            )));
        }
        Ok(ScaleIndex {
            kind: engine.kind().to_string(),
            class_token: engine
                .key_for(query, PrivacyBudget::new(grid.min_epsilon())?)
                .class_token,
            scope: if scoped {
                IndexScope::Query(QuerySignature::of(query))
            } else {
                IndexScope::Class
            },
            points,
        })
    }

    /// The mechanism-family name this index was built over.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// The class token of the engine this index was built over.
    pub fn class_token(&self) -> u64 {
        self.class_token
    }

    /// `true` when the index answers only one query signature (built over a
    /// query-scoped engine).
    pub fn query_scoped(&self) -> bool {
        matches!(self.scope, IndexScope::Query(_))
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Always `false` — [`ScaleIndex::build`] requires a non-empty grid.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The inclusive ε range the index covers.
    pub fn epsilon_range(&self) -> (f64, f64) {
        (
            self.points[0].epsilon,
            self.points[self.points.len() - 1].epsilon,
        )
    }

    /// `true` when `epsilon` lies inside the grid's inclusive range.
    pub fn covers(&self, epsilon: f64) -> bool {
        let (min, max) = self.epsilon_range();
        epsilon >= min && epsilon <= max
    }

    /// The certified scale estimate for releasing `query` at `epsilon`, or
    /// `None` when the index cannot answer — ε outside the grid, or (for a
    /// query-scoped index) a different query signature. `None` means "fall
    /// back to an exact probe", never "no such scale".
    pub fn estimate(&self, query: &dyn LipschitzQuery, epsilon: f64) -> Option<ScaleEstimate> {
        if !epsilon.is_finite() || !self.covers(epsilon) {
            return None;
        }
        let factor = match &self.scope {
            IndexScope::Class => query.lipschitz_constant(),
            IndexScope::Query(signature) => {
                if *signature != QuerySignature::of(query) {
                    return None;
                }
                1.0
            }
        };

        // Exact grid hit: serve the stored scale; the bracket is a point.
        if let Some(point) = self.points.iter().find(|p| p.epsilon == epsilon) {
            let scale = factor * point.scale;
            return Some(ScaleEstimate {
                scale,
                lower: scale,
                upper: scale,
                error_bound: rounding_slack(scale),
            });
        }

        // Bracketing segment (covers() guarantees one exists).
        let hi = self.points.partition_point(|p| p.epsilon < epsilon);
        let (a, b) = (&self.points[hi - 1], &self.points[hi]);
        let t = (epsilon.ln() - a.ln_epsilon) / (b.ln_epsilon - a.ln_epsilon);
        let interpolated = a.scale + t * (b.scale - a.scale);
        let scale = factor * interpolated;
        let upper = factor * a.scale; // scales fall as ε grows
        let lower = factor * b.scale;
        let width = (upper - scale).max(scale - lower).max(0.0);
        Some(ScaleEstimate {
            scale,
            lower,
            upper,
            error_bound: width + rounding_slack(upper),
        })
    }
}

/// The few-ULP slack added to every certified bound: the bracket is computed
/// through a handful of f64 operations whose rounding the pure interval
/// argument does not cover.
fn rounding_slack(magnitude: f64) -> f64 {
    magnitude.abs() * 1e-12
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{MqmApproxCalibrator, WassersteinCalibrator};
    use crate::queries::{RelativeFrequencyHistogram, StateCountQuery, StateFrequencyQuery};
    use crate::MqmApproxOptions;
    use pufferfish_markov::{IntervalClassBuilder, MarkovChainClass};

    fn test_class() -> MarkovChainClass {
        IntervalClassBuilder::symmetric(0.4)
            .grid_points(2)
            .build()
            .unwrap()
    }

    #[test]
    fn grid_construction_and_validation() {
        let grid = EpsilonGrid::log_spaced(0.1, 10.0, 5).unwrap();
        assert_eq!(grid.len(), 5);
        assert!(!grid.is_empty());
        assert_eq!(grid.min_epsilon(), 0.1);
        assert_eq!(grid.max_epsilon(), 10.0);
        assert!(grid.points().windows(2).all(|w| w[1] > w[0]));
        // The middle point of a symmetric log grid is the geometric mean.
        assert!((grid.points()[2] - 1.0).abs() < 1e-9);
        // Determinism: same inputs, same bits.
        let again = EpsilonGrid::log_spaced(0.1, 10.0, 5).unwrap();
        assert_eq!(grid, again);

        assert!(EpsilonGrid::log_spaced(0.0, 1.0, 3).is_err());
        assert!(EpsilonGrid::log_spaced(-1.0, 1.0, 3).is_err());
        assert!(EpsilonGrid::log_spaced(1.0, 1.0, 3).is_err());
        assert!(EpsilonGrid::log_spaced(2.0, 1.0, 3).is_err());
        assert!(EpsilonGrid::log_spaced(0.1, 1.0, 1).is_err());
        assert!(EpsilonGrid::log_spaced(0.1, f64::INFINITY, 3).is_err());
    }

    #[test]
    fn class_scoped_index_answers_any_query_within_the_bound() {
        let engine = ReleaseEngine::new(MqmApproxCalibrator::new(
            test_class(),
            60,
            MqmApproxOptions::default(),
        ));
        let build_query = StateFrequencyQuery::new(1, 60);
        let grid = EpsilonGrid::log_spaced(0.2, 5.0, 7).unwrap();
        let index = ScaleIndex::build(&engine, &build_query, &grid).unwrap();
        assert!(!index.query_scoped());
        assert_eq!(index.len(), 7);
        assert_eq!(index.kind(), "mqm-approx");
        assert_eq!(engine.stats().misses, 7);

        // A *different* query shape is answerable because the calibration is
        // class-scoped — and the estimate is certified against the exact
        // calibration (which here is a cache hit, not a new calibration).
        let other = RelativeFrequencyHistogram::new(2, 60).unwrap();
        let epsilons = [0.2, 0.3, 0.9, 2.4, 5.0];
        let estimates: Vec<ScaleEstimate> = epsilons
            .iter()
            .map(|&epsilon| index.estimate(&other, epsilon).unwrap())
            .collect();
        assert_eq!(
            engine.stats().misses,
            7,
            "in-grid estimates must not calibrate"
        );
        // Certify against exact calibration (the verification probes below
        // do calibrate at off-grid ε — that is the cost the index avoids).
        for (&epsilon, estimate) in epsilons.iter().zip(&estimates) {
            let exact = engine
                .noise_scale_estimate(&other, PrivacyBudget::new(epsilon).unwrap())
                .unwrap();
            assert!(
                (estimate.scale - exact).abs() <= estimate.error_bound,
                "epsilon {epsilon}: estimate {} vs exact {exact}, bound {}",
                estimate.scale,
                estimate.error_bound
            );
            assert!(estimate.lower <= estimate.upper);
        }

        // Out-of-grid ε is refused, not extrapolated.
        assert!(index.estimate(&other, 0.1).is_none());
        assert!(index.estimate(&other, 10.0).is_none());
        assert!(index.estimate(&other, f64::NAN).is_none());
        assert!(index.covers(1.0));
        assert!(!index.covers(0.19));
    }

    #[test]
    fn exact_grid_hits_have_pointwise_brackets() {
        let engine = ReleaseEngine::new(MqmApproxCalibrator::new(
            test_class(),
            40,
            MqmApproxOptions::default(),
        ));
        let query = StateFrequencyQuery::new(0, 40);
        let grid = EpsilonGrid::log_spaced(0.5, 2.0, 3).unwrap();
        let index = ScaleIndex::build(&engine, &query, &grid).unwrap();
        for &epsilon in grid.points() {
            let estimate = index.estimate(&query, epsilon).unwrap();
            assert_eq!(estimate.lower.to_bits(), estimate.scale.to_bits());
            assert_eq!(estimate.upper.to_bits(), estimate.scale.to_bits());
            let exact = engine
                .noise_scale_estimate(&query, PrivacyBudget::new(epsilon).unwrap())
                .unwrap();
            assert!((estimate.scale - exact).abs() <= estimate.error_bound);
        }
    }

    #[test]
    fn query_scoped_index_rejects_other_signatures() {
        let framework = crate::flu::flu_clique_framework(3, &[0.5, 0.1, 0.1, 0.3]).unwrap();
        let engine = ReleaseEngine::new(WassersteinCalibrator::new(
            framework,
            crate::Parallelism::default(),
        ));
        let q0 = StateCountQuery::new(0, 3);
        let q1 = StateCountQuery::new(1, 3);
        let grid = EpsilonGrid::log_spaced(0.5, 2.0, 4).unwrap();
        let index = ScaleIndex::build(&engine, &q0, &grid).unwrap();
        assert!(index.query_scoped());
        // Same signature: answered within the bound.
        let estimate = index.estimate(&q0, 1.1).unwrap();
        let exact = engine
            .noise_scale_estimate(&q0, PrivacyBudget::new(1.1).unwrap())
            .unwrap();
        assert!((estimate.scale - exact).abs() <= estimate.error_bound);
        // Different parameterisation of the same query type: refused.
        assert!(index.estimate(&q1, 1.1).is_none());
    }
}
