//! The serving-path wiring: a [`ReleaseService`] observer feeding both
//! monitors, and the canary recalibration that answers their verdicts.
//!
//! Lifecycle of a canary recalibration:
//!
//! 1. **Detect** — the attached [`ServiceMonitor`] flags drift (event
//!    windows violate the calibrated class bounds) or miscalibration
//!    (released noise fails the sign/MAD test).
//! 2. **Fit** — a class is re-estimated from the recent event window
//!    ([`pufferfish_markov::estimate_class`], widened confidence bounds).
//! 3. **Calibrate off-path** — a *fresh* engine is built by the caller's
//!    factory and calibrated for the canary query without touching the
//!    serving engine; old and new scales are compared for the outcome
//!    report.
//! 4. **Swap atomically** — [`ReleaseService::swap_engine`] installs the
//!    new engine in one pointer swap. In-flight requests complete on the
//!    engine they started with (workers clone the engine `Arc` once per
//!    request), so no request ever observes a torn mix of calibrations.
//! 5. **Refresh** — the calibration snapshot on disk is rewritten from the
//!    new engine (when configured) and both monitors are rebased to the
//!    newly fitted envelope.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pufferfish_core::queries::LipschitzQuery;
use pufferfish_core::{NoisyRelease, PrivacyBudget, PufferfishError, ReleaseEngine};
use pufferfish_markov::{estimate_class, ClassEstimationOptions, MarkovChainClass};
use pufferfish_service::{MonitorStats, ReleaseObserver, ReleaseService, ServiceError};

use crate::drift::{ClassBounds, DriftConfig, DriftDetector};
use crate::release::{ReleaseMonitor, ReleaseMonitorConfig};
use crate::{MonitorError, Result};

/// Tuning for a [`ServiceMonitor`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MonitorConfig {
    /// The sequential noise test (per-release reported-scale mode: a
    /// service serves many queries at many scales, so each release is
    /// tested against the scale it claims).
    pub noise: ReleaseMonitorConfig,
    /// The event-drift detector.
    pub drift: DriftConfig,
}

/// The observer side of self-validating serving: holds both monitors and a
/// bounded buffer of recent event sequences for refits, behind one mutex so
/// workers pay a single uncontended lock per release.
pub struct ServiceMonitor {
    inner: Mutex<MonitorInner>,
    /// Written by [`MonitoredService`] after each successful swap; lives
    /// here so `monitor_stats` can report it through `ServiceStats`.
    recalibrations: AtomicU64,
    recent_capacity: usize,
}

struct MonitorInner {
    noise: ReleaseMonitor,
    drift: DriftDetector,
    /// Recent request databases, newest last, bounded by total events.
    recent: VecDeque<Vec<usize>>,
    recent_events: usize,
}

impl ServiceMonitor {
    /// A monitor anchored to the given conformance envelope, buffering up
    /// to `recent_capacity` events for canary refits.
    pub fn new(bounds: ClassBounds, config: MonitorConfig, recent_capacity: usize) -> Arc<Self> {
        Arc::new(ServiceMonitor {
            inner: Mutex::new(MonitorInner {
                noise: ReleaseMonitor::new(config.noise),
                drift: DriftDetector::new(bounds, config.drift),
                recent: VecDeque::new(),
                recent_events: 0,
            }),
            recalibrations: AtomicU64::new(0),
            recent_capacity: recent_capacity.max(1),
        })
    }

    /// `true` while neither monitor has a standing complaint.
    pub fn healthy(&self) -> bool {
        let inner = self.inner.lock().expect("monitor poisoned");
        inner.noise.healthy() && !inner.drift.drifted()
    }

    /// Events currently buffered for a refit.
    pub fn buffered_events(&self) -> usize {
        self.inner.lock().expect("monitor poisoned").recent_events
    }

    /// States of the current conformance envelope.
    pub fn num_states(&self) -> usize {
        self.inner
            .lock()
            .expect("monitor poisoned")
            .drift
            .num_states()
    }

    /// The buffered event sequences (newest last), for a refit.
    fn refit_log(&self) -> Vec<Vec<usize>> {
        let inner = self.inner.lock().expect("monitor poisoned");
        inner.recent.iter().cloned().collect()
    }

    /// Re-anchors both monitors to a freshly fitted envelope and drops the
    /// refit buffer (post-swap events belong to the new regime).
    fn rebase(&self, bounds: ClassBounds) {
        let mut inner = self.inner.lock().expect("monitor poisoned");
        inner.drift.rebase(bounds);
        inner.noise.acknowledge();
        inner.recent.clear();
        inner.recent_events = 0;
    }
}

impl ReleaseObserver for ServiceMonitor {
    fn observe_release(&self, database: &[usize], release: &NoisyRelease) {
        let mut inner = self.inner.lock().expect("monitor poisoned");
        inner.noise.observe_release(release);
        inner.drift.observe_sequence(database);
        inner.recent.push_back(database.to_vec());
        inner.recent_events += database.len();
        while inner.recent_events > self.recent_capacity && inner.recent.len() > 1 {
            if let Some(dropped) = inner.recent.pop_front() {
                inner.recent_events -= dropped.len();
            }
        }
    }

    fn monitor_stats(&self) -> MonitorStats {
        let inner = self.inner.lock().expect("monitor poisoned");
        MonitorStats {
            noise_tests: inner.noise.tests_run(),
            noise_failures: inner.noise.failures(),
            drift_windows: inner.drift.windows_tested(),
            drift_score: inner.drift.last_score(),
            drifted: inner.drift.drifted(),
            recalibrations: self.recalibrations.load(Ordering::Relaxed),
        }
    }
}

/// Builds a fresh engine for a freshly fitted class — the caller decides
/// calibrator family and options.
pub type EngineFactory = dyn Fn(&MarkovChainClass) -> std::result::Result<Arc<ReleaseEngine>, PufferfishError>
    + Send
    + Sync;

/// Tuning for the canary path of a [`MonitoredService`].
pub struct CanaryConfig {
    /// Minimum buffered events before a refit is attempted.
    pub min_refit_events: usize,
    /// How the recent window is widened into a class.
    pub estimation: ClassEstimationOptions,
    /// ε at which the canary query is calibrated off-path on the new engine
    /// (and looked up on the old one) for the scale comparison.
    pub canary_epsilon: f64,
    /// Where to refresh the calibration snapshot after a swap (`None`
    /// skips the refresh).
    pub snapshot_path: Option<PathBuf>,
}

impl Default for CanaryConfig {
    /// Refit from ≥ 2048 events, default estimation options, canary ε 0.5,
    /// no snapshot refresh.
    fn default() -> Self {
        CanaryConfig {
            min_refit_events: 2048,
            estimation: ClassEstimationOptions::default(),
            canary_epsilon: 0.5,
            snapshot_path: None,
        }
    }
}

/// What one canary recalibration did.
#[derive(Debug, Clone, PartialEq)]
pub struct CanaryOutcome {
    /// The canary query's scale on the outgoing engine.
    pub old_scale: f64,
    /// The canary query's scale on the newly fitted engine.
    pub new_scale: f64,
    /// Events the new class was fitted from.
    pub refit_events: usize,
    /// Bytes written refreshing the snapshot, when configured.
    pub snapshot_bytes: Option<u64>,
}

/// A [`ReleaseService`] with the full self-validation loop attached.
pub struct MonitoredService {
    service: Arc<ReleaseService>,
    monitor: Arc<ServiceMonitor>,
    factory: Box<EngineFactory>,
    canary_query: Arc<dyn LipschitzQuery>,
    config: CanaryConfig,
}

impl MonitoredService {
    /// Attaches `monitor` to `service` as its observer and returns the
    /// wrapper driving the canary loop. `factory` builds the replacement
    /// engine for a refitted class; `canary_query` is the fixed query whose
    /// scale is compared across the swap.
    ///
    /// # Errors
    /// [`MonitorError::Service`] wrapping [`ServiceError::InvalidConfig`]
    /// when `service` already has an observer: its observer slot is
    /// write-once, and a monitor that observes nothing would report healthy
    /// forever.
    pub fn attach(
        service: Arc<ReleaseService>,
        monitor: Arc<ServiceMonitor>,
        factory: Box<EngineFactory>,
        canary_query: Arc<dyn LipschitzQuery>,
        config: CanaryConfig,
    ) -> Result<Self> {
        if !service.set_observer(Arc::clone(&monitor) as Arc<dyn ReleaseObserver>) {
            return Err(MonitorError::Service(ServiceError::InvalidConfig(
                "the service already has an observer".to_string(),
            )));
        }
        Ok(MonitoredService {
            service,
            monitor,
            factory,
            canary_query,
            config,
        })
    }

    /// The wrapped service.
    pub fn service(&self) -> &Arc<ReleaseService> {
        &self.service
    }

    /// The attached monitor.
    pub fn monitor(&self) -> &Arc<ServiceMonitor> {
        &self.monitor
    }

    /// Runs one self-validation check: when either monitor has a standing
    /// complaint and enough recent events are buffered, performs the canary
    /// recalibration and returns its outcome. `Ok(None)` means healthy (or
    /// not yet enough data to act).
    ///
    /// # Errors
    /// Propagates refit/calibration/swap failures; the serving engine is
    /// only replaced after the new engine calibrated successfully, so a
    /// failed canary leaves the service exactly as it was.
    pub fn check(&self) -> Result<Option<CanaryOutcome>> {
        if self.monitor.healthy() {
            return Ok(None);
        }
        if self.monitor.buffered_events() < self.config.min_refit_events {
            return Ok(None);
        }
        self.recalibrate().map(Some)
    }

    /// Forces the canary recalibration now (steps 2–5 of the lifecycle),
    /// regardless of monitor verdicts.
    ///
    /// # Errors
    /// [`MonitorError::InsufficientEvents`] below the configured refit
    /// minimum, estimation and calibration failures otherwise.
    pub fn recalibrate(&self) -> Result<CanaryOutcome> {
        let log = self.monitor.refit_log();
        let refit_events: usize = log.iter().map(Vec::len).sum();
        if refit_events < self.config.min_refit_events {
            return Err(MonitorError::InsufficientEvents {
                have: refit_events,
                need: self.config.min_refit_events,
            });
        }
        let num_states = log
            .iter()
            .flat_map(|seq| seq.iter().copied())
            .max()
            .map_or(0, |max| max + 1)
            .max(self.monitor.num_states());
        // Fit on the recent window and widen into a class.
        let fitted = estimate_class(&log, num_states, self.config.estimation)?;
        let class = fitted.to_class()?;
        // Build and calibrate the replacement engine off-path.
        let new_engine = (self.factory)(&class)?;
        let budget = PrivacyBudget::new(self.config.canary_epsilon)?;
        let new_scale = new_engine.noise_scale_estimate(&*self.canary_query, budget)?;
        let old_scale = self
            .service
            .engine()
            .noise_scale_estimate(&*self.canary_query, budget)?;
        // Commit: one atomic pointer swap, then refresh the snapshot and
        // re-anchor the monitors to the new envelope.
        self.service.swap_engine(new_engine);
        let snapshot_bytes = match &self.config.snapshot_path {
            Some(path) => Some(self.service.save_snapshot(path)?),
            None => None,
        };
        self.monitor.rebase(ClassBounds::from_fitted(&fitted));
        self.monitor.recalibrations.fetch_add(1, Ordering::Relaxed);
        Ok(CanaryOutcome {
            old_scale,
            new_scale,
            refit_events,
            snapshot_bytes,
        })
    }
}

impl std::fmt::Debug for MonitoredService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitoredService")
            .field("healthy", &self.monitor.healthy())
            .field("buffered_events", &self.monitor.buffered_events())
            .field(
                "recalibrations",
                &self.monitor.recalibrations.load(Ordering::Relaxed),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pufferfish_core::engine::MqmApproxCalibrator;
    use pufferfish_core::queries::StateFrequencyQuery;
    use pufferfish_core::{MqmApproxOptions, Parallelism};
    use pufferfish_markov::{FittedClass, MarkovChain};
    use pufferfish_service::{ReleaseRequest, ServiceConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const DB_LEN: usize = 60;

    fn chain(stay0: f64, stay1: f64) -> MarkovChain {
        MarkovChain::new(
            vec![0.5, 0.5],
            vec![vec![stay0, 1.0 - stay0], vec![1.0 - stay1, stay1]],
        )
        .unwrap()
    }

    fn fitted(truth: &MarkovChain, seed: u64) -> FittedClass {
        let mut rng = StdRng::seed_from_u64(seed);
        let log = vec![pufferfish_markov::sample_trajectory(truth, 20_000, &mut rng).unwrap()];
        estimate_class(&log, 2, ClassEstimationOptions::default()).unwrap()
    }

    fn engine_factory() -> Box<EngineFactory> {
        Box::new(|class: &MarkovChainClass| {
            Ok(ReleaseEngine::shared(MqmApproxCalibrator::new(
                class.clone(),
                DB_LEN,
                MqmApproxOptions::default(),
            )))
        })
    }

    fn monitored(fit: &FittedClass, min_refit_events: usize) -> MonitoredService {
        let engine = (engine_factory())(&fit.to_class().unwrap()).unwrap();
        let service = Arc::new(
            ReleaseService::start(
                engine,
                ServiceConfig {
                    workers: Parallelism::Threads(2),
                    queue_capacity: 32,
                    per_user_epsilon: 1e9,
                },
            )
            .unwrap(),
        );
        let monitor = ServiceMonitor::new(
            ClassBounds::from_fitted(fit),
            MonitorConfig::default(),
            16 * 1024,
        );
        MonitoredService::attach(
            service,
            monitor,
            engine_factory(),
            Arc::new(StateFrequencyQuery::new(1, DB_LEN)),
            CanaryConfig {
                min_refit_events,
                ..CanaryConfig::default()
            },
        )
        .unwrap()
    }

    fn serve_from(monitored: &MonitoredService, truth: &MarkovChain, requests: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..requests {
            let database = pufferfish_markov::sample_trajectory(truth, DB_LEN, &mut rng).unwrap();
            monitored
                .service()
                .release(ReleaseRequest {
                    user: format!("user-{}", i % 7),
                    query: Arc::new(StateFrequencyQuery::new(1, DB_LEN)),
                    database,
                    epsilon: 0.5,
                    seed: seed.wrapping_add(i as u64),
                })
                .unwrap();
        }
    }

    #[test]
    fn observer_surfaces_monitor_stats_through_the_service() {
        let truth = chain(0.8, 0.7);
        let monitored = monitored(&fitted(&truth, 61), 1024);
        serve_from(&monitored, &truth, 20, 62);
        let stats = monitored.service().stats();
        let monitor = stats.monitor.expect("observer attached");
        assert_eq!(monitor.recalibrations, 0);
        assert!(!monitor.drifted);
        assert!(monitored.monitor().buffered_events() >= 20 * DB_LEN);
        assert!(monitored.check().unwrap().is_none(), "healthy: no canary");
    }

    #[test]
    fn attaching_to_an_observed_service_is_a_typed_error() {
        let truth = chain(0.8, 0.7);
        let fit = fitted(&truth, 91);
        let first = monitored(&fit, 1024);
        let second = ServiceMonitor::new(
            ClassBounds::from_fitted(&fit),
            MonitorConfig::default(),
            1024,
        );
        match MonitoredService::attach(
            Arc::clone(first.service()),
            Arc::clone(&second),
            engine_factory(),
            Arc::new(StateFrequencyQuery::new(1, DB_LEN)),
            CanaryConfig::default(),
        ) {
            Err(MonitorError::Service(ServiceError::InvalidConfig(_))) => {}
            other => panic!("expected a typed InvalidConfig, got {other:?}"),
        }
        // The first monitor keeps watching; the refused one sees nothing.
        serve_from(&first, &truth, 5, 92);
        assert!(first.monitor().buffered_events() >= 5 * DB_LEN);
        assert_eq!(second.buffered_events(), 0);
    }

    #[test]
    fn drift_trips_the_canary_and_recalibration_restores_health() {
        let truth = chain(0.85, 0.7);
        let monitored = monitored(&fitted(&truth, 71), 1024);
        serve_from(&monitored, &truth, 10, 72);
        assert!(monitored.monitor().healthy());
        // The workload shifts hard: requests now sample a different chain.
        let shifted = chain(0.4, 0.7);
        serve_from(&monitored, &shifted, 40, 73);
        assert!(!monitored.monitor().healthy(), "shift must trip drift");
        let engine_before = Arc::as_ptr(&monitored.service().engine());
        let outcome = monitored
            .check()
            .unwrap()
            .expect("unhealthy + buffered events => canary runs");
        assert!(outcome.refit_events >= 1024);
        assert!(outcome.old_scale > 0.0 && outcome.new_scale > 0.0);
        assert!(outcome.snapshot_bytes.is_none());
        let engine_after = Arc::as_ptr(&monitored.service().engine());
        assert_ne!(engine_before, engine_after, "engine must be swapped");
        assert!(monitored.monitor().healthy(), "rebase restores health");
        let monitor = monitored.service().stats().monitor.unwrap();
        assert_eq!(monitor.recalibrations, 1);
        // Serving continues healthily on the shifted regime.
        serve_from(&monitored, &shifted, 20, 74);
        assert!(monitored.check().unwrap().is_none(), "no flapping");
    }

    #[test]
    fn recalibration_below_the_refit_minimum_is_refused() {
        let truth = chain(0.8, 0.7);
        let monitored = monitored(&fitted(&truth, 81), 4096);
        serve_from(&monitored, &truth, 3, 82);
        match monitored.recalibrate() {
            Err(MonitorError::InsufficientEvents { have, need }) => {
                assert_eq!(have, 3 * DB_LEN);
                assert_eq!(need, 4096);
            }
            other => panic!("expected InsufficientEvents, got {other:?}"),
        }
        // The failed attempt changed nothing.
        assert_eq!(
            monitored.service().stats().monitor.unwrap().recalibrations,
            0
        );
    }
}
