//! The mechanism catalog: one lazily built, cached [`ReleaseEngine`] per
//! `(mechanism family, database length)` over a shared distribution class.
//!
//! The planner probes noise scales through these engines and the executor
//! releases through the *same* engines, so a probe is never wasted work: the
//! calibration it pays for is the calibration the release then reuses (and
//! every later query at the same `(family, length, ε, query shape)` hits the
//! cache).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pufferfish_baselines::{Gk16Calibrator, GroupDp};
use pufferfish_core::engine::{
    framework_token, markov_class_token, FnCalibrator, MqmApproxCalibrator, MqmExactCalibrator,
    TokenHasher, WassersteinCalibrator,
};
use pufferfish_core::{
    CacheStats, DiscretePufferfishFramework, EpsilonGrid, LipschitzQuery, Mechanism,
    MqmApproxOptions, MqmExactOptions, Parallelism, PufferfishError, ReleaseEngine, ScaleIndex,
};
use pufferfish_markov::MarkovChainClass;

use crate::ast::MechanismKind;
use crate::QueryError;

/// Calibration options shared by every engine a catalog builds.
#[derive(Debug, Clone, Default)]
pub struct CatalogOptions {
    /// Options for the exact Markov Quilt family.
    pub mqm_exact: MqmExactOptions,
    /// Options for the approximate Markov Quilt family.
    pub mqm_approx: MqmApproxOptions,
    /// Parallelism policy for Wasserstein calibration sweeps.
    pub wasserstein_parallelism: Parallelism,
    /// The ε-grid for [`MechanismCatalog::warm_scale_index`]. `None` (the
    /// default) disables scale indexing: every planner probe is an exact
    /// (cached) calibration, the pre-index behaviour.
    pub scale_grid: Option<EpsilonGrid>,
}

/// The planner's registry of mechanism backends over one distribution class.
///
/// A catalog always serves the two Markov Quilt families and the GK16 /
/// group-DP baselines (all calibrate from a [`MarkovChainClass`]); the
/// query-sensitive Wasserstein mechanism additionally needs an enumerable
/// [`DiscretePufferfishFramework`] and joins the candidate set only when one
/// is registered with [`MechanismCatalog::with_framework`] (and only for
/// queries whose database length matches the framework's record length).
pub struct MechanismCatalog {
    class: MarkovChainClass,
    framework: Option<DiscretePufferfishFramework>,
    options: CatalogOptions,
    engines: Mutex<HashMap<(MechanismKind, usize), Arc<ReleaseEngine>>>,
    indexes: Mutex<HashMap<(MechanismKind, usize), Arc<ScaleIndex>>>,
    indexed_probe_misses: AtomicU64,
}

impl MechanismCatalog {
    /// A catalog over the given chain class with default options.
    pub fn new(class: MarkovChainClass) -> Self {
        MechanismCatalog::with_options(class, CatalogOptions::default())
    }

    /// A catalog with explicit calibration options.
    pub fn with_options(class: MarkovChainClass, options: CatalogOptions) -> Self {
        MechanismCatalog {
            class,
            framework: None,
            options,
            engines: Mutex::new(HashMap::new()),
            indexes: Mutex::new(HashMap::new()),
            indexed_probe_misses: AtomicU64::new(0),
        }
    }

    /// Registers an enumerable framework, making [`MechanismKind::Wasserstein`]
    /// a planning candidate for queries of the framework's record length.
    pub fn with_framework(mut self, framework: DiscretePufferfishFramework) -> Self {
        self.framework = Some(framework);
        self
    }

    /// The distribution class every backend calibrates against.
    pub fn class(&self) -> &MarkovChainClass {
        &self.class
    }

    /// The mechanism families this catalog can serve, in the deterministic
    /// order the planner probes them.
    pub fn kinds(&self) -> Vec<MechanismKind> {
        MechanismKind::ALL
            .into_iter()
            .filter(|kind| *kind != MechanismKind::Wasserstein || self.framework.is_some())
            .collect()
    }

    /// The engine serving `kind` for databases of `length` records, built on
    /// first use and cached (so its calibration cache persists across
    /// queries — this is what amortises planner probes).
    ///
    /// # Errors
    /// [`QueryError::UnknownMechanism`] when `kind` has no registered
    /// backend; [`QueryError::Plan`] when the registered Wasserstein
    /// framework's record length does not match `length`.
    pub fn engine_for(
        &self,
        kind: MechanismKind,
        length: usize,
    ) -> Result<Arc<ReleaseEngine>, QueryError> {
        if kind == MechanismKind::Wasserstein {
            // Validate before taking the lock: an ineligible request must
            // not poison or populate the registry.
            match &self.framework {
                None => return Err(QueryError::UnknownMechanism(kind)),
                Some(framework) if framework.record_length() != length => {
                    return Err(QueryError::Plan(format!(
                        "the registered Wasserstein framework describes records of \
                         length {}, query needs length {length}",
                        framework.record_length()
                    )));
                }
                Some(_) => {}
            }
        }
        let mut engines = self.engines.lock().expect("catalog registry poisoned");
        if let Some(engine) = engines.get(&(kind, length)) {
            return Ok(Arc::clone(engine));
        }
        let engine = Arc::new(self.build_engine(kind, length)?);
        engines.insert((kind, length), Arc::clone(&engine));
        Ok(engine)
    }

    fn build_engine(
        &self,
        kind: MechanismKind,
        length: usize,
    ) -> Result<ReleaseEngine, QueryError> {
        Ok(match kind {
            MechanismKind::Wasserstein => {
                let framework = self
                    .framework
                    .clone()
                    .ok_or(QueryError::UnknownMechanism(kind))?;
                ReleaseEngine::new(WassersteinCalibrator::new(
                    framework,
                    self.options.wasserstein_parallelism,
                ))
            }
            MechanismKind::Mqm => ReleaseEngine::new(MqmExactCalibrator::new(
                self.class.clone(),
                length,
                self.options.mqm_exact,
            )),
            MechanismKind::MqmApprox => ReleaseEngine::new(MqmApproxCalibrator::new(
                self.class.clone(),
                length,
                self.options.mqm_approx,
            )),
            // One influence-norm profile per engine, folded at every ε.
            MechanismKind::Gk16 => {
                ReleaseEngine::new(Gk16Calibrator::new(self.class.clone(), length))
            }
            MechanismKind::GroupDp => {
                // The released database is one connected chain segment, so
                // the correlated group is the whole database: M = length
                // (Definition 2.2 as instantiated in Section 5).
                let token = TokenHasher::new("group-dp").mix(&length).finish();
                ReleaseEngine::new(FnCalibrator::class_scoped(
                    "group-dp",
                    token,
                    move |_q, budget| {
                        Ok(Arc::new(GroupDp::calibrate(length, budget)?) as Arc<dyn Mechanism>)
                    },
                ))
            }
        })
    }

    /// Builds (or rebuilds) a [`ScaleIndex`] over the configured
    /// [`CatalogOptions::scale_grid`] for every registered family at the
    /// given database `length`, returning how many families were indexed.
    ///
    /// This is the **only** step that pays calibration for indexed probing:
    /// each family calibrates once per grid point, cached in its engine (so
    /// an engine warmed from a
    /// [`CalibrationSnapshot`](pufferfish_core::CalibrationSnapshot) that
    /// covers the grid rebuilds its index with zero calibrations). After
    /// warming, [`plan_statement`](crate::plan_statement) answers every
    /// in-grid ε probe from the index without calibrating.
    ///
    /// Families that cannot calibrate for this class
    /// ([`PufferfishError::DegenerateClass`],
    /// [`PufferfishError::CannotCalibrate`]) are skipped, as is the
    /// Wasserstein family when its framework's record length differs from
    /// `length` — exactly the families the planner would skip (or
    /// exact-probe) anyway. `query` seeds the index: for the class-scoped
    /// families any query of the right length works; the Wasserstein index
    /// answers only `query`'s signature (other signatures fall back to
    /// exact probes).
    ///
    /// # Errors
    /// [`QueryError::Plan`] when no [`CatalogOptions::scale_grid`] is
    /// configured; [`QueryError::Mechanism`] for unexpected calibration
    /// failures (anything beyond the skip list above).
    pub fn warm_scale_index(
        &self,
        length: usize,
        query: &dyn LipschitzQuery,
    ) -> Result<usize, QueryError> {
        let grid = self.options.scale_grid.clone().ok_or_else(|| {
            QueryError::Plan(
                "warm_scale_index needs CatalogOptions::scale_grid to be configured".to_string(),
            )
        })?;
        let mut built = 0;
        for kind in self.kinds() {
            if kind == MechanismKind::Wasserstein {
                let matches = self
                    .framework
                    .as_ref()
                    .is_some_and(|framework| framework.record_length() == length);
                if !matches {
                    continue;
                }
            }
            let engine = self.engine_for(kind, length)?;
            match ScaleIndex::build(&engine, query, &grid) {
                Ok(index) => {
                    self.indexes
                        .lock()
                        .expect("scale-index registry poisoned")
                        .insert((kind, length), Arc::new(index));
                    built += 1;
                }
                // Ineligible families stay unindexed; the planner's probe
                // will fail (or fall through) for them exactly as before.
                Err(
                    PufferfishError::DegenerateClass { .. } | PufferfishError::CannotCalibrate(_),
                ) => {}
                Err(error) => return Err(QueryError::Mechanism(error)),
            }
        }
        Ok(built)
    }

    /// The warmed [`ScaleIndex`] for `(kind, length)`, if
    /// [`MechanismCatalog::warm_scale_index`] built one.
    pub fn scale_index_for(&self, kind: MechanismKind, length: usize) -> Option<Arc<ScaleIndex>> {
        self.indexes
            .lock()
            .expect("scale-index registry poisoned")
            .get(&(kind, length))
            .map(Arc::clone)
    }

    /// Records one indexed-probe miss: an index **existed** for the probed
    /// `(family, length)` but declined to answer (ε outside its grid, or a
    /// query signature it was not built for), so the caller silently fell
    /// back to an exact engine probe. Planner and refinement-schedule search
    /// call this on every such fallback; probes against families that were
    /// never indexed are *not* misses.
    pub fn note_indexed_probe_miss(&self) {
        self.indexed_probe_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Indexed-probe misses recorded so far (see
    /// [`MechanismCatalog::note_indexed_probe_miss`]) — surfaced through
    /// `QueryService::stats` so schedule-search degradation is observable.
    pub fn indexed_probe_misses(&self) -> u64 {
        self.indexed_probe_misses.load(Ordering::Relaxed)
    }

    /// Cache counters summed over every engine the catalog has built, plus
    /// the number of distinct cached calibrations — the query layer's share
    /// of a [`ServiceStats`](pufferfish_service::ServiceStats) snapshot.
    pub fn cache_stats(&self) -> (CacheStats, usize) {
        let engines = self.engines.lock().expect("catalog registry poisoned");
        let mut total = CacheStats::default();
        let mut cached = 0;
        for engine in engines.values() {
            let stats = engine.stats();
            total.hits += stats.hits;
            total.misses += stats.misses;
            total.coalesced += stats.coalesced;
            cached += engine.len();
        }
        (total, cached)
    }

    /// A stable token identifying the catalog's class (and framework, when
    /// registered) — exposed for diagnostics.
    pub fn class_token(&self) -> u64 {
        let mut token = TokenHasher::new("catalog").mix(&markov_class_token(&self.class));
        if let Some(framework) = &self.framework {
            token = token.mix(&framework_token(framework));
        }
        token.finish()
    }
}

impl std::fmt::Debug for MechanismCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let engines = self.engines.lock().expect("catalog registry poisoned");
        f.debug_struct("MechanismCatalog")
            .field("kinds", &self.kinds())
            .field("engines", &engines.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pufferfish_baselines::Gk16;
    use pufferfish_core::queries::StateFrequencyQuery;
    use pufferfish_core::PrivacyBudget;
    use pufferfish_markov::IntervalClassBuilder;

    fn catalog() -> MechanismCatalog {
        MechanismCatalog::new(
            IntervalClassBuilder::symmetric(0.4)
                .grid_points(2)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn wasserstein_requires_a_framework() {
        let catalog = catalog();
        assert!(!catalog.kinds().contains(&MechanismKind::Wasserstein));
        assert!(matches!(
            catalog.engine_for(MechanismKind::Wasserstein, 10),
            Err(QueryError::UnknownMechanism(MechanismKind::Wasserstein))
        ));
        // Other families stay available without a framework.
        assert!(catalog.engine_for(MechanismKind::MqmApprox, 10).is_ok());
        let framework =
            pufferfish_core::flu::flu_clique_framework(3, &[0.5, 0.1, 0.1, 0.3]).unwrap();
        let catalog = MechanismCatalog::new(
            IntervalClassBuilder::symmetric(0.4)
                .grid_points(2)
                .build()
                .unwrap(),
        )
        .with_framework(framework);
        assert!(catalog.kinds().contains(&MechanismKind::Wasserstein));
        assert!(catalog.engine_for(MechanismKind::Wasserstein, 3).is_ok());
        // Length mismatch is a typed plan error, not a calibration attempt.
        assert!(matches!(
            catalog.engine_for(MechanismKind::Wasserstein, 10),
            Err(QueryError::Plan(_))
        ));
    }

    #[test]
    fn engines_are_cached_per_kind_and_length() {
        let catalog = catalog();
        let a = catalog.engine_for(MechanismKind::MqmApprox, 40).unwrap();
        let b = catalog.engine_for(MechanismKind::MqmApprox, 40).unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "same (kind, length) must share an engine"
        );
        let c = catalog.engine_for(MechanismKind::MqmApprox, 50).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        // The shared engine's calibration cache amortises repeated probes.
        let query = StateFrequencyQuery::new(1, 40);
        let budget = PrivacyBudget::new(1.0).unwrap();
        a.noise_scale_estimate(&query, budget).unwrap();
        b.noise_scale_estimate(&query, budget).unwrap();
        let (stats, cached) = catalog.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(cached, 1);
    }

    #[test]
    fn warm_scale_index_builds_per_family_and_skips_ineligible() {
        // Without a grid: a typed error, not a panic.
        let bare = catalog();
        let query = StateFrequencyQuery::new(1, 30);
        assert!(matches!(
            bare.warm_scale_index(30, &query),
            Err(QueryError::Plan(_))
        ));

        let options = CatalogOptions {
            scale_grid: Some(EpsilonGrid::log_spaced(0.1, 2.0, 5).unwrap()),
            ..CatalogOptions::default()
        };
        let class = IntervalClassBuilder::symmetric(0.4)
            .grid_points(2)
            .build()
            .unwrap();
        let catalog = MechanismCatalog::with_options(class, options.clone());
        // All four class-scoped families are indexable for this class.
        assert_eq!(catalog.warm_scale_index(30, &query).unwrap(), 4);
        for kind in catalog.kinds() {
            let index = catalog.scale_index_for(kind, 30).unwrap();
            assert_eq!(index.len(), 5);
        }
        assert!(catalog.scale_index_for(MechanismKind::Mqm, 99).is_none());

        // A sticky class: GK16 cannot calibrate, so it is skipped — and the
        // remaining three families still get indexes.
        let sticky = IntervalClassBuilder::symmetric(0.1)
            .grid_points(3)
            .build()
            .unwrap();
        let catalog = MechanismCatalog::with_options(sticky, options.clone());
        assert_eq!(catalog.warm_scale_index(30, &query).unwrap(), 3);
        assert!(catalog.scale_index_for(MechanismKind::Gk16, 30).is_none());

        // The Wasserstein family is indexed only at its framework's record
        // length; other lengths skip it without error.
        let framework =
            pufferfish_core::flu::flu_clique_framework(3, &[0.5, 0.1, 0.1, 0.3]).unwrap();
        let class = IntervalClassBuilder::symmetric(0.4)
            .grid_points(2)
            .build()
            .unwrap();
        let catalog = MechanismCatalog::with_options(class, options).with_framework(framework);
        let short = StateFrequencyQuery::new(1, 3);
        assert_eq!(catalog.warm_scale_index(3, &short).unwrap(), 5);
        assert!(catalog
            .scale_index_for(MechanismKind::Wasserstein, 3)
            .is_some());
        assert_eq!(catalog.warm_scale_index(30, &query).unwrap(), 4);
        assert!(catalog
            .scale_index_for(MechanismKind::Wasserstein, 30)
            .is_none());
    }

    #[test]
    fn gk16_engine_folds_every_epsilon_from_one_profile() {
        // The benchmark's analyst class and scale grid, plus the statement's
        // ε 0.05, which lies off the grid.
        let class = IntervalClassBuilder::symmetric(0.4)
            .grid_points(2)
            .build()
            .unwrap();
        let grid = EpsilonGrid::log_spaced(0.02, 1.0, 8).unwrap();
        let epsilons: Vec<f64> = grid.points().iter().copied().chain([0.05]).collect();
        let options = CatalogOptions {
            scale_grid: Some(grid),
            ..CatalogOptions::default()
        };
        let catalog = MechanismCatalog::with_options(class.clone(), options);
        let query = StateFrequencyQuery::new(1, 100);
        catalog.warm_scale_index(100, &query).unwrap();
        let engine = catalog.engine_for(MechanismKind::Gk16, 100).unwrap();
        // The token the engine had when it recalibrated the norm at every
        // ε, so snapshots written then still warm-start it.
        let budget = PrivacyBudget::new(1.0).unwrap();
        assert_eq!(
            engine.key_for(&query, budget).class_token,
            0x60f0_c94b_ae3c_d150
        );
        for &epsilon in &epsilons {
            let budget = PrivacyBudget::new(epsilon).unwrap();
            let direct = Gk16::calibrate(&class, 100, budget).unwrap();
            let scale = engine.noise_scale_estimate(&query, budget).unwrap();
            assert_eq!(
                scale.to_bits(),
                direct.noise_scale_for(&query).to_bits(),
                "ε {epsilon}"
            );
        }
        assert_eq!(engine.stats().misses, epsilons.len() as u64);

        // A sticky class GK16 does not apply to: every ε is refused with the
        // text a direct calibration gives.
        let sticky = IntervalClassBuilder::symmetric(0.1)
            .grid_points(3)
            .build()
            .unwrap();
        let engine = MechanismCatalog::new(sticky)
            .engine_for(MechanismKind::Gk16, 100)
            .unwrap();
        for &epsilon in &epsilons {
            let error = engine
                .noise_scale_estimate(&query, PrivacyBudget::new(epsilon).unwrap())
                .unwrap_err();
            assert_eq!(
                error.to_string(),
                "cannot calibrate mechanism: GK16 does not apply: \
                 influence-matrix spectral norm 4.3923 >= 1"
            );
        }
    }

    #[test]
    fn baseline_engines_calibrate() {
        let catalog = catalog();
        let budget = PrivacyBudget::new(1.0).unwrap();
        let query = StateFrequencyQuery::new(1, 30);
        for kind in [MechanismKind::Gk16, MechanismKind::GroupDp] {
            let engine = catalog.engine_for(kind, 30).unwrap();
            let scale = engine.noise_scale_estimate(&query, budget).unwrap();
            assert!(scale.is_finite() && scale > 0.0, "{kind}: {scale}");
        }
    }
}
