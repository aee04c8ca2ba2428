//! Continual release over event streams: sliding-window queries with
//! per-stream budget accounting.
//!
//! The GK16 baseline descends from the *continual release* line of work, and
//! the paper's cheap-after-calibration property makes the Pufferfish
//! mechanisms a natural fit for the same workload: calibrate once for the
//! window geometry, then privatise every window almost for free. A
//! [`ContinualRelease`] ingests one event at a time and, every `slide`
//! events once the window is full, releases the relative-frequency histogram
//! of the last `window` events through the stream's backend — the Markov
//! Quilt mechanism ([`StreamBackend::MqmApprox`]) or the GK16 influence
//! baseline ([`StreamBackend::Gk16`]), selectable per stream so the two can
//! run side by side over the same events.
//!
//! Every release spends `epsilon_per_release` from the stream's total budget
//! under Theorem 4.4 composition; once the next release no longer fits, the
//! stream keeps ingesting but reports the typed
//! [`ServiceError::StreamBudgetExhausted`] — carrying the stream name and
//! the window boundary the refused release was due at — at each due release
//! point, never panicking and never silently skipping a due window.

use std::collections::VecDeque;
use std::sync::Arc;

use rand::RngCore;

use pufferfish_baselines::Gk16;
use pufferfish_core::engine::{markov_class_token, FnCalibrator, TokenHasher};
use pufferfish_core::queries::RelativeFrequencyHistogram;
use pufferfish_core::{
    CompositionAccountant, Mechanism, MqmApprox, MqmApproxOptions, NoisyRelease, PrivacyBudget,
    PufferfishError, ReleaseEngine,
};
use pufferfish_markov::MarkovChainClass;

use crate::ServiceError;

/// Which mechanism family privatises a stream's windows.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum StreamBackend {
    /// The approximate Markov Quilt mechanism (Algorithm 4) — applicable to
    /// any mixing chain class, the paper's recommendation for long streams.
    #[default]
    MqmApprox,
    /// The GK16 influence-matrix baseline — only calibrates when local
    /// correlations are weak (spectral norm < 1), mirroring the "N/A"
    /// columns of the paper's tables.
    Gk16,
}

impl StreamBackend {
    /// Short backend name for reports.
    pub fn name(self) -> &'static str {
        match self {
            StreamBackend::MqmApprox => "mqm-approx",
            StreamBackend::Gk16 => "gk16",
        }
    }

    /// A calibration cache for this backend over `class`, shared by every
    /// stream release that goes through it.
    ///
    /// The backend's calibration reads only the class, the window length
    /// and ε — never the data — so each `(window, ε)` is calibrated once and
    /// every later release at that geometry is a cache hit. The engine is
    /// query-scoped and calibrates at the query's
    /// [`expected_length`](pufferfish_core::LipschitzQuery::expected_length):
    /// a release of a [`RelativeFrequencyHistogram`] over `w` events uses
    /// exactly the mechanism a [`ContinualRelease`] with `window = w`
    /// calibrates. Its kind, and so its telemetry family, is the backend
    /// name prefixed `stream-`, which keeps its counters apart from a
    /// release engine of the same family in one registry.
    pub fn engine(self, class: &MarkovChainClass) -> Arc<ReleaseEngine> {
        let kind = match self {
            StreamBackend::MqmApprox => "stream-mqm-approx",
            StreamBackend::Gk16 => "stream-gk16",
        };
        let token = TokenHasher::new(kind)
            .mix(&markov_class_token(class))
            .finish();
        let class = class.clone();
        ReleaseEngine::shared(FnCalibrator::new(kind, token, move |query, budget| {
            self.calibrate(&class, query.expected_length(), budget)
        }))
    }

    /// The one calibration recipe for stream windows: this backend over
    /// `class` for windows of `window` events at `budget`.
    fn calibrate(
        self,
        class: &MarkovChainClass,
        window: usize,
        budget: PrivacyBudget,
    ) -> Result<Arc<dyn Mechanism>, PufferfishError> {
        Ok(match self {
            StreamBackend::MqmApprox => Arc::new(MqmApprox::calibrate(
                class,
                window,
                budget,
                MqmApproxOptions::default(),
            )?),
            StreamBackend::Gk16 => Arc::new(Gk16::calibrate(class, window, budget)?),
        })
    }
}

/// Geometry and budget of one continual-release stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Sliding-window length `W` (events per released query).
    pub window: usize,
    /// Release cadence: a release every `slide` events once the window is
    /// full (`slide = window` gives tumbling windows).
    pub slide: usize,
    /// Privacy parameter of each individual window release.
    pub epsilon_per_release: f64,
    /// Total ε budget of the stream across all releases (Theorem 4.4
    /// composition).
    pub stream_epsilon: f64,
    /// Mechanism family for this stream.
    pub backend: StreamBackend,
}

impl Default for StreamConfig {
    /// A 100-event window sliding by 10, ε = 0.1 per release, total 1.0,
    /// MQMApprox backend.
    fn default() -> Self {
        StreamConfig {
            window: 100,
            slide: 10,
            epsilon_per_release: 0.1,
            stream_epsilon: 1.0,
            backend: StreamBackend::MqmApprox,
        }
    }
}

/// One privatised sliding-window answer.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRelease {
    /// Number of events ingested when this window closed (1-based).
    pub window_end: usize,
    /// The noisy histogram over the window.
    pub release: NoisyRelease,
    /// Composed privacy loss of the stream after this release.
    pub spent_epsilon: f64,
}

/// A continual-release pipeline over one event stream.
///
/// # Example
///
/// ```
/// use pufferfish_markov::IntervalClassBuilder;
/// use pufferfish_service::{ContinualRelease, StreamBackend, StreamConfig};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let class = IntervalClassBuilder::symmetric(0.4).grid_points(2).build().unwrap();
/// let mut stream = ContinualRelease::new(
///     "sensor-17",
///     &class,
///     StreamConfig {
///         window: 20,
///         slide: 10,
///         epsilon_per_release: 0.5,
///         stream_epsilon: 1.0,
///         backend: StreamBackend::MqmApprox,
///     },
/// )
/// .unwrap();
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let mut releases = 0;
/// for t in 0..40 {
///     // Window fills at event 20; releases fire at events 20 and 30, after
///     // which the stream budget (2 × 0.5) is exhausted — event 40's due
///     // release is refused but ingestion continues.
///     match stream.push(t % 2, &mut rng) {
///         Ok(Some(window)) => {
///             releases += 1;
///             assert_eq!(window.release.values.len(), 2);
///         }
///         Ok(None) => {}
///         Err(e) => assert!(stream.is_exhausted(), "unexpected error: {e}"),
///     }
/// }
/// assert_eq!(releases, 2);
/// assert_eq!(stream.spent_epsilon(), 1.0);
/// ```
pub struct ContinualRelease {
    name: String,
    mechanism: Arc<dyn Mechanism>,
    query: RelativeFrequencyHistogram,
    accountant: CompositionAccountant,
    window: VecDeque<usize>,
    config: StreamConfig,
    num_states: usize,
    events: usize,
    next_release_at: usize,
    releases: usize,
}

impl ContinualRelease {
    /// Calibrates the stream's backend for its window geometry and returns
    /// the ready pipeline. Calibration happens exactly once here; every
    /// subsequent window release is a query evaluation plus Laplace noise.
    ///
    /// # Errors
    /// [`ServiceError::InvalidConfig`] for a degenerate geometry or budget;
    /// [`ServiceError::Mechanism`] when the backend cannot calibrate for the
    /// class (e.g. GK16 over strongly correlated chains).
    pub fn new(
        name: &str,
        class: &MarkovChainClass,
        config: StreamConfig,
    ) -> Result<Self, ServiceError> {
        if config.window == 0 || config.slide == 0 {
            return Err(ServiceError::InvalidConfig(
                "window and slide must be positive".to_string(),
            ));
        }
        if !config.stream_epsilon.is_finite() || config.stream_epsilon <= 0.0 {
            return Err(ServiceError::InvalidConfig(format!(
                "stream epsilon must be positive and finite, got {}",
                config.stream_epsilon
            )));
        }
        let per_release = PrivacyBudget::new(config.epsilon_per_release).map_err(|_| {
            ServiceError::InvalidConfig(format!(
                "per-release epsilon must be positive and finite, got {}",
                config.epsilon_per_release
            ))
        })?;
        let mechanism = config
            .backend
            .calibrate(class, config.window, per_release)?;
        let num_states = class.num_states();
        let query = RelativeFrequencyHistogram::new(num_states, config.window)?;
        Ok(ContinualRelease {
            name: name.to_string(),
            mechanism,
            query,
            accountant: CompositionAccountant::new(),
            window: VecDeque::with_capacity(config.window),
            config,
            num_states,
            events: 0,
            next_release_at: config.window,
            releases: 0,
        })
    }

    /// Ingests one event; returns the window release when one is due.
    ///
    /// Releases are due when the window is full and `slide` events have
    /// passed since the previous release point. An event is *always*
    /// ingested, even when the due release is refused for budget reasons —
    /// the stream stays consistent and the refusal repeats at each due point.
    ///
    /// # Errors
    /// [`ServiceError::StreamBudgetExhausted`] when a due release no longer
    /// fits the stream budget (the event is still ingested);
    /// [`ServiceError::Mechanism`] for out-of-range events or release
    /// failures.
    pub fn push(
        &mut self,
        event: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Option<WindowRelease>, ServiceError> {
        if event >= self.num_states {
            return Err(ServiceError::Mechanism(PufferfishError::InvalidDatabase(
                format!(
                    "stream event {event} out of range for {} states",
                    self.num_states
                ),
            )));
        }
        self.window.push_back(event);
        if self.window.len() > self.config.window {
            self.window.pop_front();
        }
        self.events += 1;
        if self.events < self.next_release_at {
            return Ok(None);
        }
        // A release is due: advance the schedule whether or not the budget
        // admits it, so an exhausted stream reports one refusal per due
        // point (not one per event) and keeps ingesting in between.
        self.next_release_at = self.events + self.config.slide;
        let composed = self
            .accountant
            .guaranteed_epsilon_with(self.config.epsilon_per_release);
        if composed > self.config.stream_epsilon + 1e-12 {
            return Err(ServiceError::StreamBudgetExhausted {
                stream: self.name.clone(),
                window_end: self.events,
                requested: self.config.epsilon_per_release,
                remaining: self.remaining_epsilon(),
            });
        }
        self.accountant.record(self.config.epsilon_per_release);
        let database: Vec<usize> = self.window.iter().copied().collect();
        let release = self.mechanism.release(&self.query, &database, rng)?;
        self.releases += 1;
        Ok(Some(WindowRelease {
            window_end: self.events,
            release,
            spent_epsilon: composed,
        }))
    }

    /// Recalibrates the stream's backend for a new distribution class —
    /// the stream-side commit point of a canary recalibration after drift.
    ///
    /// The window geometry, backend family, per-release ε and (crucially)
    /// the budget accountant all carry over: recalibration changes *what
    /// noise scale future windows pay*, never how much privacy budget has
    /// already been spent or when the next release is due. The window
    /// contents are preserved too, so the next due release answers over the
    /// same events it would have without the swap. Returns `(old_scale,
    /// new_scale)` so callers can log the scale shift the new class implies.
    ///
    /// # Errors
    /// [`ServiceError::InvalidConfig`] when `class` has a different number
    /// of states than the stream (the window events would be out of range);
    /// [`ServiceError::Mechanism`] when the backend cannot calibrate for the
    /// new class — the stream then keeps its current calibration.
    pub fn recalibrate(&mut self, class: &MarkovChainClass) -> Result<(f64, f64), ServiceError> {
        if class.num_states() != self.num_states {
            return Err(ServiceError::InvalidConfig(format!(
                "recalibration class has {} states but the stream has {}",
                class.num_states(),
                self.num_states
            )));
        }
        let per_release = PrivacyBudget::new(self.config.epsilon_per_release)
            .expect("per-release epsilon validated at construction");
        let mechanism = self
            .config
            .backend
            .calibrate(class, self.config.window, per_release)?;
        let old_scale = self.noise_scale();
        self.mechanism = mechanism;
        Ok((old_scale, self.noise_scale()))
    }

    /// The stream's name (used in budget-exhaustion errors).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The backend family serving this stream.
    pub fn backend(&self) -> StreamBackend {
        self.config.backend
    }

    /// The Laplace scale each window release carries — fixed at calibration
    /// and changed only by [`ContinualRelease::recalibrate`].
    pub fn noise_scale(&self) -> f64 {
        self.mechanism.noise_scale_for(&self.query)
    }

    /// Events ingested so far.
    pub fn events(&self) -> usize {
        self.events
    }

    /// Window releases published so far.
    pub fn releases(&self) -> usize {
        self.releases
    }

    /// Composed privacy loss spent so far (Theorem 4.4 guarantee).
    pub fn spent_epsilon(&self) -> f64 {
        self.accountant.guaranteed_epsilon()
    }

    /// Budget still available for future releases.
    pub fn remaining_epsilon(&self) -> f64 {
        (self.config.stream_epsilon - self.spent_epsilon()).max(0.0)
    }

    /// `true` once the next release no longer fits the stream budget.
    pub fn is_exhausted(&self) -> bool {
        self.remaining_epsilon() < self.config.epsilon_per_release - 1e-12
    }
}

impl std::fmt::Debug for ContinualRelease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContinualRelease")
            .field("name", &self.name)
            .field("backend", &self.config.backend.name())
            .field("events", &self.events)
            .field("releases", &self.releases)
            .field("spent_epsilon", &self.spent_epsilon())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pufferfish_markov::IntervalClassBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn weak_class() -> MarkovChainClass {
        IntervalClassBuilder::symmetric(0.45)
            .grid_points(2)
            .build()
            .unwrap()
    }

    fn config(backend: StreamBackend) -> StreamConfig {
        StreamConfig {
            window: 20,
            slide: 5,
            epsilon_per_release: 0.2,
            stream_epsilon: 1.0,
            backend,
        }
    }

    #[test]
    fn config_validation() {
        let class = weak_class();
        let mut bad = config(StreamBackend::MqmApprox);
        bad.window = 0;
        assert!(ContinualRelease::new("s", &class, bad).is_err());
        let mut bad = config(StreamBackend::MqmApprox);
        bad.slide = 0;
        assert!(ContinualRelease::new("s", &class, bad).is_err());
        let mut bad = config(StreamBackend::MqmApprox);
        bad.epsilon_per_release = -1.0;
        assert!(ContinualRelease::new("s", &class, bad).is_err());
        let mut bad = config(StreamBackend::MqmApprox);
        bad.stream_epsilon = 0.0;
        assert!(ContinualRelease::new("s", &class, bad).is_err());
    }

    #[test]
    fn release_schedule_and_budget() {
        let class = weak_class();
        let mut stream =
            ContinualRelease::new("sched", &class, config(StreamBackend::MqmApprox)).unwrap();
        assert_eq!(stream.backend(), StreamBackend::MqmApprox);
        assert!(stream.noise_scale() > 0.0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut release_points = Vec::new();
        let mut refusals = Vec::new();
        for t in 0..50 {
            match stream.push(t % 2, &mut rng) {
                Ok(Some(window)) => {
                    release_points.push(window.window_end);
                    assert_eq!(window.release.values.len(), 2);
                    assert_eq!(window.release.true_values.iter().sum::<f64>(), 1.0);
                }
                Ok(None) => {}
                Err(ServiceError::StreamBudgetExhausted {
                    stream, window_end, ..
                }) => {
                    assert_eq!(stream, "sched");
                    assert_eq!(window_end, t + 1);
                    refusals.push(t + 1);
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        // Window fills at 20; slide 5: due at 20, 25, 30, 35, 40 — the five
        // releases that exactly exhaust 5 × 0.2 = 1.0; 45 and 50 are refused.
        assert_eq!(release_points, vec![20, 25, 30, 35, 40]);
        assert_eq!(refusals, vec![45, 50]);
        assert_eq!(stream.releases(), 5);
        assert_eq!(stream.events(), 50);
        assert!(stream.is_exhausted());
        assert!((stream.spent_epsilon() - 1.0).abs() < 1e-12);
        assert_eq!(stream.remaining_epsilon(), 0.0);
    }

    #[test]
    fn budget_exhaustion_mid_window_is_a_typed_error_not_a_skip() {
        // Regression test: a stream whose budget dies mid-flight must (a)
        // surface the dedicated StreamBudgetExhausted variant — not a panic,
        // not Ok(None) masquerading as "no release due" — (b) report the
        // exact window boundary each refused release was due at, and (c)
        // keep ingesting so the window stays consistent for observers.
        let class = weak_class();
        let mut stream = ContinualRelease::new(
            "exhausted-mid",
            &class,
            StreamConfig {
                window: 10,
                slide: 5,
                epsilon_per_release: 0.4,
                stream_epsilon: 1.0, // admits exactly two 0.4-releases
                backend: StreamBackend::MqmApprox,
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut refused_at = Vec::new();
        for t in 0..30 {
            match stream.push(t % 2, &mut rng) {
                Ok(_) => {}
                Err(ServiceError::StreamBudgetExhausted {
                    stream: name,
                    window_end,
                    requested,
                    remaining,
                }) => {
                    assert_eq!(name, "exhausted-mid");
                    assert_eq!(window_end, t + 1, "boundary must be the due point");
                    assert_eq!(requested, 0.4);
                    assert!(remaining < 0.4);
                    refused_at.push(window_end);
                }
                Err(other) => panic!("wrong error type: {other}"),
            }
        }
        // Releases at 10 and 15 fit (2 × 0.4 = 0.8); every later due point
        // (20, 25, 30) is refused with the typed error — none is skipped.
        assert_eq!(stream.releases(), 2);
        assert_eq!(refused_at, vec![20, 25, 30]);
        // Ingestion never stopped.
        assert_eq!(stream.events(), 30);
        assert!(stream.is_exhausted());
    }

    #[test]
    fn recalibrate_swaps_the_scale_but_keeps_budget_and_schedule() {
        let class = weak_class();
        let mut stream =
            ContinualRelease::new("recal", &class, config(StreamBackend::MqmApprox)).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for t in 0..22 {
            stream.push(t % 2, &mut rng).unwrap();
        }
        assert_eq!(stream.releases(), 1);
        let spent_before = stream.spent_epsilon();

        // A stickier class costs a larger scale; budget/schedule untouched.
        let sticky = IntervalClassBuilder::symmetric(0.2)
            .grid_points(2)
            .build()
            .unwrap();
        let (old_scale, new_scale) = stream.recalibrate(&sticky).unwrap();
        assert!(new_scale > old_scale);
        assert_eq!(stream.noise_scale(), new_scale);
        assert_eq!(stream.spent_epsilon(), spent_before);
        assert_eq!(stream.events(), 22);

        // The next due release fires on schedule at event 25, at the new
        // scale, over the preserved window.
        let mut released = None;
        for t in 22..25 {
            released = stream.push(t % 2, &mut rng).unwrap();
        }
        let window = released.expect("release due at event 25");
        assert_eq!(window.window_end, 25);
        assert_eq!(window.release.scale, new_scale);

        // Wrong state count is a typed config error, stream unchanged.
        let three_state = MarkovChainClass::singleton(
            pufferfish_markov::MarkovChain::new(
                vec![0.4, 0.3, 0.3],
                vec![
                    vec![0.8, 0.1, 0.1],
                    vec![0.1, 0.8, 0.1],
                    vec![0.1, 0.1, 0.8],
                ],
            )
            .unwrap(),
        );
        assert!(matches!(
            stream.recalibrate(&three_state),
            Err(ServiceError::InvalidConfig(_))
        ));
        assert_eq!(stream.noise_scale(), new_scale);
    }

    #[test]
    fn gk16_backend_works_on_weak_correlations() {
        let class = weak_class();
        let mut stream = ContinualRelease::new("gk", &class, config(StreamBackend::Gk16)).unwrap();
        assert_eq!(stream.backend().name(), "gk16");
        let mut rng = StdRng::seed_from_u64(9);
        let mut releases = 0;
        for t in 0..25 {
            if stream.push(t % 2, &mut rng).unwrap().is_some() {
                releases += 1;
            }
        }
        assert_eq!(releases, 2);
    }

    #[test]
    fn gk16_backend_rejects_strong_correlations_at_calibration() {
        // Sticky chains: GK16's influence norm exceeds 1, so stream creation
        // itself fails — MQM over the same class succeeds.
        let sticky = IntervalClassBuilder::symmetric(0.1)
            .grid_points(3)
            .build()
            .unwrap();
        assert!(matches!(
            ContinualRelease::new("na", &sticky, config(StreamBackend::Gk16)),
            Err(ServiceError::Mechanism(_))
        ));
        assert!(ContinualRelease::new("ok", &sticky, config(StreamBackend::MqmApprox)).is_ok());
    }

    #[test]
    fn out_of_range_events_are_rejected_without_ingestion_side_effects() {
        let class = weak_class();
        let mut stream =
            ContinualRelease::new("range", &class, config(StreamBackend::MqmApprox)).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(stream.push(7, &mut rng).is_err());
        assert_eq!(stream.events(), 0);
        assert!(stream.push(1, &mut rng).unwrap().is_none());
        assert_eq!(stream.events(), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let class = weak_class();
        let run = || {
            let mut stream =
                ContinualRelease::new("det", &class, config(StreamBackend::MqmApprox)).unwrap();
            let mut rng = StdRng::seed_from_u64(42);
            let mut out = Vec::new();
            for t in 0..30 {
                if let Ok(Some(window)) = stream.push((t / 3) % 2, &mut rng) {
                    out.push(window);
                }
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn mqm_and_gk16_streams_run_side_by_side() {
        // The per-stream backend selector: identical events, two pipelines.
        let class = weak_class();
        let mut mqm = ContinualRelease::new("m", &class, config(StreamBackend::MqmApprox)).unwrap();
        let mut gk = ContinualRelease::new("g", &class, config(StreamBackend::Gk16)).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for t in 0..20 {
            let event = t % 2;
            let a = mqm.push(event, &mut rng).unwrap();
            let b = gk.push(event, &mut rng).unwrap();
            assert_eq!(a.is_some(), b.is_some());
            if let (Some(a), Some(b)) = (a, b) {
                // Same exact histogram, different calibrated noise scales.
                assert_eq!(a.release.true_values, b.release.true_values);
                assert_ne!(a.release.scale, b.release.scale);
            }
        }
    }
}
