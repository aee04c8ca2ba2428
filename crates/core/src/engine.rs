//! The batched release engine: calibration caching and uniform dispatch over
//! [`Mechanism`] trait objects.
//!
//! Calibrating a Pufferfish mechanism is expensive — the ∞-Wasserstein sweep
//! enumerates secret pairs × scenarios, the Markov Quilt mechanisms search
//! quilt grids per node per θ — while a *release* is a query evaluation plus
//! Laplace noise. Production query traffic repeats the same
//! `(distribution class, ε, query shape)` combination over and over, so the
//! engine memoises calibrations behind a [`CalibrationKey`] and serves
//! repeated releases from the cache. Hit/miss counters make the amortisation
//! observable (and testable).
//!
//! The engine is built for concurrent serving: the cache is one map behind
//! an [`RwLock`], so warm releases from many threads share its read lock.
//! Each key owns a slot whose mutex its calibration runs under, so a
//! thundering herd of identical misses performs exactly one calibration,
//! misses on other keys never wait on it, and no engine-wide lock is held
//! across a calibration. One `Arc<ReleaseEngine>` is the intended unit of
//! sharing — see [`ReleaseEngine`] for a multi-threaded example.
//!
//! The calibration inputs of the four mechanism families are incompatible
//! (framework vs. chain class vs. network class); a [`Calibrator`] object
//! erases that difference: it owns the class description, exposes a stable
//! [`Calibrator::class_token`] for the cache key, and produces a calibrated
//! [`Mechanism`] on demand.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock, TryLockError};

use rand::RngCore;

use pufferfish_telemetry::codec::Fnv1a;
use pufferfish_telemetry::{Counter, HistogramHandle, Registry};

use pufferfish_markov::MarkovChainClass;
use pufferfish_parallel::Parallelism;

use crate::framework::DiscretePufferfishFramework;
use crate::mechanism::{Mechanism, NoisyRelease, PrivacyBudget};
use crate::mqm_exact::PreparedClass;
use crate::queries::LipschitzQuery;
use crate::{
    MarkovQuiltMechanism, MqmApprox, MqmApproxOptions, MqmExact, MqmExactOptions, PufferfishError,
    QuiltMechanismOptions, Result, WassersteinMechanism,
};

/// The cacheable identity of a query: its Lipschitz signature.
///
/// Two queries with the same signature must be interchangeable inputs to a
/// query-sensitive calibration (the Wasserstein Mechanism evaluates the
/// concrete query). The name and the query's own
/// [`LipschitzQuery::cache_discriminator`] separate distinct query types and
/// distinct parameterisations (e.g. target state 0 vs 1) of equal Lipschitz
/// constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QuerySignature {
    /// The query's reported name.
    pub name: String,
    /// Bit pattern of the L1 Lipschitz constant.
    pub lipschitz_bits: u64,
    /// Number of output coordinates.
    pub output_dimension: usize,
    /// Expected database length.
    pub expected_length: usize,
    /// Parameterisation discriminator (see
    /// [`LipschitzQuery::cache_discriminator`]).
    pub discriminator: u64,
}

impl QuerySignature {
    /// The signature of a query.
    pub fn of(query: &dyn LipschitzQuery) -> Self {
        QuerySignature {
            name: query.name().to_string(),
            lipschitz_bits: query.lipschitz_constant().to_bits(),
            output_dimension: query.output_dimension(),
            expected_length: query.expected_length(),
            discriminator: query.cache_discriminator(),
        }
    }

    /// The neutral signature used for class-scoped calibrators, whose
    /// calibration is query-independent (see [`Calibrator::query_scoped`]).
    pub fn class_scoped() -> Self {
        QuerySignature {
            name: String::new(),
            lipschitz_bits: 0,
            output_dimension: 0,
            expected_length: 0,
            discriminator: 0,
        }
    }
}

/// The full cache key: `(class, ε, query signature)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CalibrationKey {
    /// Stable token identifying the distribution class / calibrator config.
    pub class_token: u64,
    /// Bit pattern of ε.
    pub epsilon_bits: u64,
    /// The query's Lipschitz signature.
    pub query: QuerySignature,
}

/// An erased, cache-aware source of calibrated mechanisms.
///
/// Implementations own everything calibration needs apart from the privacy
/// budget and the query: the distribution class, search options,
/// parallelism policy.
pub trait Calibrator: Send + Sync {
    /// Short mechanism-family name for reports ("mqm-approx", …).
    fn kind(&self) -> &'static str;

    /// A stable token identifying the class and options this calibrator was
    /// built from. Two calibrators with equal tokens must produce
    /// interchangeable mechanisms for equal `(ε, query)` inputs — this token
    /// is the `class` component of [`CalibrationKey`].
    fn class_token(&self) -> u64;

    /// Whether calibration depends on the concrete query.
    ///
    /// `true` (the default, and the safe choice) keys the cache on the full
    /// [`QuerySignature`]. Calibrators whose [`Calibrator::calibrate`]
    /// ignores the query — the Markov Quilt families calibrate a noise
    /// multiplier that is rescaled by the query's Lipschitz constant only at
    /// release time — return `false`, so that a single cached calibration
    /// serves **every** query of the calibrated length (see
    /// [`Calibrator::calibrated_length`]) at a given ε instead of
    /// recalibrating per query shape.
    fn query_scoped(&self) -> bool {
        true
    }

    /// The database length this calibrator's mechanisms are calibrated for,
    /// when calibration depends on one; `None` (the default) when it does
    /// not.
    ///
    /// A chain calibrator's σ is a maximum over the `T` nodes of the chain,
    /// so it grows with `T` until the middle-node bound saturates
    /// (Algorithms 3–4): a calibration for one length under-noises a longer
    /// chain. [`ReleaseEngine::mechanism`] therefore refuses a query whose
    /// expected length is not this one, on a cache hit, a miss and a
    /// snapshot-restored entry alike.
    fn calibrated_length(&self) -> Option<usize> {
        None
    }

    /// Runs the (expensive) calibration.
    ///
    /// # Errors
    /// Mechanism-specific calibration failures are propagated.
    fn calibrate(
        &self,
        query: &dyn LipschitzQuery,
        budget: PrivacyBudget,
    ) -> Result<Arc<dyn Mechanism>>;
}

/// Helper: stable 64-bit token from a stream of hashable pieces.
///
/// Backed by the codec's [`Fnv1a`] hasher, whose integer writes are
/// little-endian, so a token depends only on the mixed values: tokens are
/// stable across processes, architectures and toolchains — which matters
/// because class tokens are persisted inside calibration snapshots and
/// verified on import.
pub struct TokenHasher {
    hasher: Fnv1a,
}

impl TokenHasher {
    /// Starts a token for the given mechanism family.
    pub fn new(kind: &str) -> Self {
        let mut hasher = Fnv1a::default();
        kind.hash(&mut hasher);
        TokenHasher { hasher }
    }

    /// Mixes a hashable value into the token.
    pub fn mix<T: Hash>(mut self, value: &T) -> Self {
        value.hash(&mut self.hasher);
        self
    }

    /// Mixes a float (by bit pattern) into the token.
    pub fn mix_f64(mut self, value: f64) -> Self {
        value.to_bits().hash(&mut self.hasher);
        self
    }

    /// Mixes a float slice into the token.
    pub fn mix_f64s(mut self, values: &[f64]) -> Self {
        values.len().hash(&mut self.hasher);
        for &v in values {
            v.to_bits().hash(&mut self.hasher);
        }
        self
    }

    /// Finishes the token.
    pub fn finish(self) -> u64 {
        self.hasher.finish()
    }
}

/// Hashes a [`MarkovChainClass`] (chains + initial-distribution flag) into a
/// token component.
pub fn markov_class_token(class: &MarkovChainClass) -> u64 {
    let mut token = TokenHasher::new("markov-chain-class")
        .mix(&class.len())
        .mix(&class.num_states())
        .mix(&class.allows_all_initial_distributions());
    for chain in class.chains() {
        token = token.mix_f64s(chain.initial().as_slice());
        let transition = chain.transition();
        for row in 0..transition.rows() {
            for col in 0..transition.cols() {
                token = token.mix_f64(transition[(row, col)]);
            }
        }
    }
    token.finish()
}

/// Hashes a [`DiscretePufferfishFramework`] into a token component.
///
/// Secrets are opaque predicates, so they contribute through their labels
/// and the secret-pair index structure; scenario outcome tables contribute
/// exactly.
pub fn framework_token(framework: &DiscretePufferfishFramework) -> u64 {
    let mut token = TokenHasher::new("discrete-framework")
        .mix(&framework.record_length())
        .mix(&framework.secret_pairs().to_vec());
    for secret in framework.secrets() {
        token = token.mix(&secret.label().to_string());
    }
    for scenario in framework.scenarios() {
        token = token.mix(&scenario.label().to_string());
        for (database, probability) in scenario.outcomes() {
            token = token.mix(database).mix_f64(*probability);
        }
    }
    token.finish()
}

/// Monotonic cache counters, captured by [`ReleaseEngine::stats`].
///
/// All counters use [`Ordering::Relaxed`] atomics: each counter is
/// individually exact, but a snapshot taken while other threads are mid-flight
/// is not a cross-counter transaction (a concurrent request may have bumped
/// `hits` but not yet returned its release). That is the right trade for
/// monitoring counters on a hot path — the quiescent values, which the tests
/// assert on, are always exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Releases served from an already-cached calibration.
    pub hits: u64,
    /// Cold calibrations actually performed (exactly one per distinct key,
    /// even under concurrent misses — see [`ReleaseEngine::mechanism`]).
    pub misses: u64,
    /// Requests that arrived while another thread was calibrating the same
    /// key and waited for that calibration instead of repeating it.
    pub coalesced: u64,
}

/// One cache entry: its key's calibrated mechanism, set once, and the mutex
/// that key's calibration runs under. The mutex guards no data, so a
/// poisoned one (a calibration that panicked) is simply taken over.
#[derive(Default)]
struct Slot {
    mechanism: OnceLock<Arc<dyn Mechanism>>,
    calibrating: Mutex<()>,
}

/// Whether `slot` is still `cache`'s slot for `key`: a failed leader removes
/// its slot, and an import replaces it.
fn is_current(
    cache: &HashMap<CalibrationKey, Arc<Slot>>,
    key: &CalibrationKey,
    slot: &Arc<Slot>,
) -> bool {
    cache
        .get(key)
        .is_some_and(|current| Arc::ptr_eq(current, slot))
}

/// A calibration cache plus release front-end over one [`Calibrator`].
///
/// The engine is designed to be shared: every method takes `&self`, so one
/// `Arc<ReleaseEngine>` can serve any number of request threads. The cache
/// is one map from [`CalibrationKey`] to a per-key slot behind an
/// [`RwLock`], so warm-cache releases on different threads proceed under
/// concurrent read locks and never serialise against each other.
///
/// **Calibration stampede control.** A cold key is calibrated exactly once:
/// the first thread to miss takes the key's slot mutex and calibrates
/// holding only that mutex (calibration can take seconds); every other
/// thread that misses the same key meanwhile blocks on it and is served the
/// leader's result, counted in [`CacheStats::coalesced`]. Misses on
/// *different* keys calibrate concurrently. If the leader's calibration
/// fails, the error is returned to the leader, the slot is removed, waiters
/// retry (one becomes the new leader), and nothing is cached, so transient
/// failures do not poison a key. If the leader panics, its caller sees the
/// panic and the next thread to take the slot calibrates again.
///
/// # Example: one engine, many threads
///
/// ```
/// use std::sync::Arc;
/// use pufferfish_core::engine::{MqmApproxCalibrator, ReleaseEngine};
/// use pufferfish_core::queries::StateFrequencyQuery;
/// use pufferfish_core::{MqmApproxOptions, PrivacyBudget};
/// use pufferfish_markov::IntervalClassBuilder;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let class = IntervalClassBuilder::symmetric(0.4).grid_points(2).build().unwrap();
/// let engine = Arc::new(ReleaseEngine::new(MqmApproxCalibrator::new(
///     class,
///     60,
///     MqmApproxOptions::default(),
/// )));
/// let budget = PrivacyBudget::new(1.0).unwrap();
///
/// std::thread::scope(|scope| {
///     for worker in 0..4u64 {
///         let engine = Arc::clone(&engine);
///         scope.spawn(move || {
///             let query = StateFrequencyQuery::new(1, 60);
///             let mut rng = StdRng::seed_from_u64(worker);
///             let data = vec![0usize; 60];
///             engine.release(&query, &data, budget, &mut rng).unwrap();
///         });
///     }
/// });
///
/// // Four concurrent requests for the same key: exactly one calibration.
/// let stats = engine.stats();
/// assert_eq!(stats.misses, 1);
/// assert_eq!(stats.hits + stats.misses, 4);
/// assert_eq!(engine.len(), 1);
/// ```
pub struct ReleaseEngine {
    calibrator: Box<dyn Calibrator>,
    cache: RwLock<HashMap<CalibrationKey, Arc<Slot>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    /// Registered metric handles, set once by
    /// [`ReleaseEngine::enable_telemetry`]. The disabled path costs one
    /// `OnceLock` load per event; the enabled path adds one relaxed atomic
    /// add per mirrored counter.
    telemetry: OnceLock<EngineMetrics>,
}

/// Cached registry handles mirroring the engine's own counters, plus the
/// release-side counters only telemetry tracks (per-family release count and
/// noise-scale distribution).
struct EngineMetrics {
    hits: Counter,
    misses: Counter,
    coalesced: Counter,
    releases: Counter,
    /// Noise scales recorded in micro-units (`scale × 1e6` rounded), since
    /// the histogram buckets integers.
    noise_scale_micro: HistogramHandle,
}

impl ReleaseEngine {
    /// Creates an engine over the given calibrator with an empty cache.
    pub fn new(calibrator: impl Calibrator + 'static) -> Self {
        ReleaseEngine {
            calibrator: Box::new(calibrator),
            cache: RwLock::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            telemetry: OnceLock::new(),
        }
    }

    /// Registers this engine's metrics in `registry` and starts mirroring
    /// every cache event into them. Metric names are prefixed
    /// `engine_{family}_` (the calibrator's kind with `-` mapped to `_`), so
    /// distinct mechanism families coexist in one registry:
    /// `…_cache_hits_total`, `…_cache_misses_total`,
    /// `…_cache_coalesced_total`, `…_releases_total`,
    /// `…_noise_scale_micro`.
    ///
    /// Idempotent per engine (the first registry wins); counters recorded
    /// before enabling are not back-filled — handles are cached here once
    /// and the hot path stays a relaxed atomic add.
    pub fn enable_telemetry(&self, registry: &Registry) {
        let family = self.kind().replace('-', "_");
        let _ = self.telemetry.set(EngineMetrics {
            hits: registry.counter(&format!("engine_{family}_cache_hits_total")),
            misses: registry.counter(&format!("engine_{family}_cache_misses_total")),
            coalesced: registry.counter(&format!("engine_{family}_cache_coalesced_total")),
            releases: registry.counter(&format!("engine_{family}_releases_total")),
            noise_scale_micro: registry.histogram(&format!("engine_{family}_noise_scale_micro")),
        });
    }

    /// Records one served release (its Laplace scale) into the telemetry
    /// registry; a no-op until [`ReleaseEngine::enable_telemetry`].
    ///
    /// [`ReleaseEngine::release`] and the batch entry points call this
    /// themselves; callers that split the path manually — fetch the
    /// mechanism via [`ReleaseEngine::mechanism`], then sample — call it
    /// once per release they perform.
    pub fn note_release(&self, scale: f64) {
        if let Some(metrics) = self.telemetry.get() {
            metrics.releases.inc();
            let micro = (scale * 1e6).round();
            if micro.is_finite() && micro >= 0.0 {
                metrics.noise_scale_micro.record(micro as u64);
            }
        }
    }

    /// Convenience constructor returning the engine already wrapped in an
    /// [`Arc`], ready to be cloned into worker threads.
    pub fn shared(calibrator: impl Calibrator + 'static) -> Arc<Self> {
        Arc::new(ReleaseEngine::new(calibrator))
    }

    /// The mechanism-family name of the underlying calibrator.
    pub fn kind(&self) -> &'static str {
        self.calibrator.kind()
    }

    /// The cache key the engine would use for `(query, budget)`.
    ///
    /// Class-scoped calibrators (see [`Calibrator::query_scoped`]) use a
    /// neutral query signature, so one calibration serves every query.
    pub fn key_for(&self, query: &dyn LipschitzQuery, budget: PrivacyBudget) -> CalibrationKey {
        let query = if self.calibrator.query_scoped() {
            QuerySignature::of(query)
        } else {
            QuerySignature::class_scoped()
        };
        CalibrationKey {
            class_token: self.calibrator.class_token(),
            epsilon_bits: budget.epsilon().to_bits(),
            query,
        }
    }

    /// Returns the calibrated mechanism for `(query, budget)`, calibrating
    /// on a cache miss and serving the memoised mechanism on a hit.
    ///
    /// Concurrent misses on the same key are coalesced: one thread
    /// calibrates under the key's slot mutex, the rest wait on it and share
    /// the result, so each key costs exactly one calibration no matter how
    /// many threads race for it. No engine-wide lock is held across the
    /// calibration itself.
    ///
    /// # Errors
    /// [`PufferfishError::InvalidQuery`] when the query's expected length is
    /// not the one the calibrator was built for (see
    /// [`Calibrator::calibrated_length`]); nothing is calibrated or cached
    /// for it. Calibration failures are propagated to the leader (waiters
    /// retry, and nothing is cached, so a transient failure does not poison
    /// the key).
    pub fn mechanism(
        &self,
        query: &dyn LipschitzQuery,
        budget: PrivacyBudget,
    ) -> Result<Arc<dyn Mechanism>> {
        if let Some(length) = self.calibrator.calibrated_length() {
            if query.expected_length() != length {
                return Err(PufferfishError::InvalidQuery(format!(
                    "the query expects a database of length {}, but the {} calibration \
                     is for length {length}",
                    query.expected_length(),
                    self.kind()
                )));
            }
        }
        let key = self.key_for(query, budget);
        if let Some(mechanism) = self
            .cache
            .read()
            .expect("calibration cache poisoned")
            .get(&key)
            .and_then(|slot| slot.mechanism.get())
        {
            return Ok(self.hit(mechanism));
        }
        loop {
            let slot = Arc::clone(
                self.cache
                    .write()
                    .expect("calibration cache poisoned")
                    .entry(key.clone())
                    .or_default(),
            );
            // A poisoned slot mutex only means an earlier leader panicked
            // mid-calibration; the slot is still empty, so take it over.
            let _calibrating = match slot.calibrating.try_lock() {
                Ok(guard) => guard,
                Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
                Err(TryLockError::WouldBlock) => {
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    if let Some(metrics) = self.telemetry.get() {
                        metrics.coalesced.inc();
                    }
                    slot.calibrating
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                }
            };
            if let Some(mechanism) = slot.mechanism.get() {
                return Ok(self.hit(mechanism));
            }
            if !is_current(
                &self.cache.read().expect("calibration cache poisoned"),
                &key,
                &slot,
            ) {
                // A failed leader removed this slot (or an import replaced
                // it): start again.
                continue;
            }
            return match self.calibrator.calibrate(query, budget) {
                Ok(mechanism) => {
                    // Only the holder of this slot's mutex fills it, and it
                    // was empty above.
                    let _ = slot.mechanism.set(Arc::clone(&mechanism));
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    if let Some(metrics) = self.telemetry.get() {
                        metrics.misses.inc();
                    }
                    Ok(mechanism)
                }
                Err(error) => {
                    let mut cache = self.cache.write().expect("calibration cache poisoned");
                    if is_current(&cache, &key, &slot) {
                        cache.remove(&key);
                    }
                    Err(error)
                }
            };
        }
    }

    /// Whether the calibration for `(query, budget)` is cached: one read
    /// lock and one hash. It never calibrates and moves no counter, so a
    /// thread that must not calibrate can ask before it serves a release.
    pub fn is_cached(&self, query: &dyn LipschitzQuery, budget: PrivacyBudget) -> bool {
        self.cache
            .read()
            .expect("calibration cache poisoned")
            .get(&self.key_for(query, budget))
            .is_some_and(|slot| slot.mechanism.get().is_some())
    }

    /// Counts one cache hit and hands out the cached mechanism.
    fn hit(&self, mechanism: &Arc<dyn Mechanism>) -> Arc<dyn Mechanism> {
        self.hits.fetch_add(1, Ordering::Relaxed);
        if let Some(metrics) = self.telemetry.get() {
            metrics.hits.inc();
        }
        Arc::clone(mechanism)
    }

    /// The calibrated Laplace noise scale a release of `query` at `budget`
    /// would apply — the probe behind cost-based mechanism planning.
    ///
    /// This *is* a calibration (cached like any other): the first probe for a
    /// key pays the full calibration cost and every later probe — and every
    /// release the planner then routes here — is a cache hit, so planning is
    /// amortised across queries exactly like serving is. The expected L1
    /// error of the release is `output_dimension × scale` (the mean absolute
    /// deviation of a Laplace(b) sample is `b`), which is the quantity the
    /// `pufferfish-query` planner minimises.
    ///
    /// # Errors
    /// Calibration failures are propagated — a planner should treat them
    /// (most usefully [`crate::PufferfishError::DegenerateClass`] and
    /// [`crate::PufferfishError::CannotCalibrate`]) as "mechanism not
    /// eligible" and fall back to the next candidate.
    pub fn noise_scale_estimate(
        &self,
        query: &dyn LipschitzQuery,
        budget: PrivacyBudget,
    ) -> Result<f64> {
        Ok(self.mechanism(query, budget)?.noise_scale_for(query))
    }

    /// Releases one database, calibrating (or reusing the cached
    /// calibration) as needed.
    ///
    /// # Errors
    /// Calibration, validation and evaluation errors are propagated.
    pub fn release(
        &self,
        query: &dyn LipschitzQuery,
        database: &[usize],
        budget: PrivacyBudget,
        rng: &mut dyn RngCore,
    ) -> Result<NoisyRelease> {
        let release = self
            .mechanism(query, budget)?
            .release(query, database, rng)?;
        self.note_release(release.scale);
        Ok(release)
    }

    /// Releases a batch of databases through one (cached) calibration.
    ///
    /// # Errors
    /// Fails on the first database that fails validation or evaluation.
    pub fn release_batch(
        &self,
        query: &dyn LipschitzQuery,
        databases: &[Vec<usize>],
        budget: PrivacyBudget,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<NoisyRelease>> {
        let releases = self
            .mechanism(query, budget)?
            .release_batch(query, databases, rng)?;
        for release in &releases {
            self.note_release(release.scale);
        }
        Ok(releases)
    }

    /// [`ReleaseEngine::release_batch`] over borrowed window slices — one
    /// (cached) calibration, no per-window materialization. This is the
    /// entry point the morsel executor uses with windows sliced straight
    /// out of a columnar batch.
    ///
    /// # Errors
    /// Fails on the first database that fails validation or evaluation.
    pub fn release_batch_refs(
        &self,
        query: &dyn LipschitzQuery,
        databases: &[&[usize]],
        budget: PrivacyBudget,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<NoisyRelease>> {
        let releases = self
            .mechanism(query, budget)?
            .release_batch_refs(query, databases, rng)?;
        for release in &releases {
            self.note_release(release.scale);
        }
        Ok(releases)
    }

    /// A snapshot of the hit/miss/coalesced counters (see [`CacheStats`] for
    /// the memory-ordering contract).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
        }
    }

    /// Resets the hit/miss/coalesced counters to zero (cached calibrations
    /// are kept). Useful between benchmark phases.
    pub fn reset_counters(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.coalesced.store(0, Ordering::Relaxed);
    }

    /// Number of distinct calibrations currently cached (slots still being
    /// calibrated are not counted).
    pub fn len(&self) -> usize {
        self.cache
            .read()
            .expect("calibration cache poisoned")
            .values()
            .filter(|slot| slot.mechanism.get().is_some())
            .count()
    }

    /// `true` when no calibration is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the underlying calibrator keys the cache on the concrete
    /// query (see [`Calibrator::query_scoped`]). Class-scoped engines serve
    /// every query from one calibration per ε, which is what lets a
    /// [`ScaleIndex`](crate::ScaleIndex) answer for arbitrary queries.
    pub fn query_scoped(&self) -> bool {
        self.calibrator.query_scoped()
    }

    /// Exports every cached calibration's normal form as a
    /// [`CalibrationSnapshot`](crate::CalibrationSnapshot).
    ///
    /// The cache's read lock is held only long enough to clone its entries;
    /// serialisation (and any file I/O the caller performs) happens with no
    /// lock held, so a running service can snapshot itself without stalling
    /// releases. Entries are sorted by key, so equal caches export
    /// byte-identical snapshots (modulo the timestamp).
    pub fn export_snapshot(&self) -> crate::snapshot::CalibrationSnapshot {
        let mut entries: Vec<_> = self
            .cache
            .read()
            .expect("calibration cache poisoned")
            .iter()
            .filter_map(|(key, slot)| {
                Some(crate::snapshot::SnapshotEntry {
                    key: key.clone(),
                    state: slot.mechanism.get()?.state().clone(),
                })
            })
            .collect();
        entries.sort_by(|a, b| {
            (
                a.key.epsilon_bits,
                &a.key.query.name,
                a.key.query.discriminator,
                a.key.query.lipschitz_bits,
                a.key.query.output_dimension,
                a.key.query.expected_length,
            )
                .cmp(&(
                    b.key.epsilon_bits,
                    &b.key.query.name,
                    b.key.query.discriminator,
                    b.key.query.lipschitz_bits,
                    b.key.query.output_dimension,
                    b.key.query.expected_length,
                ))
        });
        crate::snapshot::CalibrationSnapshot {
            engine_kind: self.kind().to_string(),
            class_token: self.calibrator.class_token(),
            shard_count: 1,
            created_unix_secs: crate::snapshot::unix_now(),
            entries,
        }
    }

    /// Imports a snapshot's calibrations into this engine's cache,
    /// returning the number of entries loaded.
    ///
    /// Every entry is restored *before* the cache lock is taken: a snapshot
    /// that fails validation leaves the cache — and the hit/miss counters —
    /// completely untouched (no partially imported, silently smaller cache).
    /// Imported entries do not count as misses; releases served from them
    /// count as ordinary hits, so a warm-started engine's `misses` counter
    /// measures exactly the calibrations the snapshot did *not* cover.
    ///
    /// Existing cache entries with the same key are overwritten (they are
    /// interchangeable by the [`Calibrator::class_token`] contract).
    ///
    /// # Errors
    /// [`crate::snapshot::SnapshotError::EngineMismatch`] when the snapshot
    /// was exported from a calibrator with a different class token, and
    /// restore errors ([`crate::snapshot::SnapshotError::UnknownFamily`],
    /// [`crate::snapshot::SnapshotError::Malformed`]) from its entries.
    pub fn import_snapshot(
        &self,
        snapshot: &crate::snapshot::CalibrationSnapshot,
    ) -> Result<usize> {
        if snapshot.class_token != self.calibrator.class_token() {
            return Err(PufferfishError::Snapshot(
                crate::snapshot::SnapshotError::EngineMismatch {
                    snapshot_kind: snapshot.engine_kind.clone(),
                    engine_kind: self.kind().to_string(),
                    snapshot_class: snapshot.class_token,
                    engine_class: self.calibrator.class_token(),
                },
            ));
        }
        let restored: Vec<(CalibrationKey, Arc<dyn Mechanism>)> = snapshot
            .entries
            .iter()
            .map(|entry| Ok((entry.key.clone(), entry.state.restore()?)))
            .collect::<Result<_>>()?;
        let count = restored.len();
        let mut cache = self.cache.write().expect("calibration cache poisoned");
        for (key, mechanism) in restored {
            let slot = Slot {
                mechanism: OnceLock::from(mechanism),
                calibrating: Mutex::default(),
            };
            cache.insert(key, Arc::new(slot));
        }
        Ok(count)
    }

    /// Drops every cached calibration (counters are preserved). Slots still
    /// being calibrated stay, so misses on them keep coalescing.
    pub fn clear_cache(&self) {
        self.cache
            .write()
            .expect("calibration cache poisoned")
            .retain(|_, slot| slot.mechanism.get().is_none());
    }
}

impl std::fmt::Debug for ReleaseEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ReleaseEngine")
            .field("kind", &self.kind())
            .field("cached", &self.len())
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("coalesced", &stats.coalesced)
            .finish()
    }
}

/// A calibrator backed by a closure — the escape hatch for mechanism
/// families the engine does not know about (the baselines crate uses this).
pub struct FnCalibrator<F> {
    kind: &'static str,
    class_token: u64,
    query_scoped: bool,
    calibrate: F,
}

impl<F> FnCalibrator<F>
where
    F: Fn(&dyn LipschitzQuery, PrivacyBudget) -> Result<Arc<dyn Mechanism>> + Send + Sync,
{
    /// Wraps a calibration closure under the given family name and class
    /// token.
    pub fn new(kind: &'static str, class_token: u64, calibrate: F) -> Self {
        FnCalibrator {
            kind,
            class_token,
            query_scoped: true,
            calibrate,
        }
    }

    /// Like [`FnCalibrator::new`], but marks the calibration as
    /// query-independent (see [`Calibrator::query_scoped`]): one cached
    /// calibration serves every query at a given ε. Only sound when the
    /// closure ignores its query argument beyond validation — true for the
    /// baselines, whose noise scale is `L`-rescaled at release time.
    pub fn class_scoped(kind: &'static str, class_token: u64, calibrate: F) -> Self {
        FnCalibrator {
            kind,
            class_token,
            query_scoped: false,
            calibrate,
        }
    }
}

impl<F> Calibrator for FnCalibrator<F>
where
    F: Fn(&dyn LipschitzQuery, PrivacyBudget) -> Result<Arc<dyn Mechanism>> + Send + Sync,
{
    fn kind(&self) -> &'static str {
        self.kind
    }

    fn class_token(&self) -> u64 {
        self.class_token
    }

    fn query_scoped(&self) -> bool {
        self.query_scoped
    }

    fn calibrate(
        &self,
        query: &dyn LipschitzQuery,
        budget: PrivacyBudget,
    ) -> Result<Arc<dyn Mechanism>> {
        (self.calibrate)(query, budget)
    }
}

/// Calibrator for the Wasserstein Mechanism (Algorithm 1) over an
/// enumerable framework.
pub struct WassersteinCalibrator {
    framework: DiscretePufferfishFramework,
    parallelism: Parallelism,
    token: u64,
}

impl WassersteinCalibrator {
    /// Wraps a framework; releases calibrate with the given parallelism.
    pub fn new(framework: DiscretePufferfishFramework, parallelism: Parallelism) -> Self {
        let token = framework_token(&framework);
        WassersteinCalibrator {
            framework,
            parallelism,
            token,
        }
    }
}

impl Calibrator for WassersteinCalibrator {
    fn kind(&self) -> &'static str {
        "wasserstein"
    }

    fn class_token(&self) -> u64 {
        self.token
    }

    fn calibrate(
        &self,
        query: &dyn LipschitzQuery,
        budget: PrivacyBudget,
    ) -> Result<Arc<dyn Mechanism>> {
        Ok(Arc::new(WassersteinMechanism::calibrate_with(
            &self.framework,
            query,
            budget,
            self.parallelism,
        )?))
    }
}

/// Calibrator for MQMExact (Algorithm 3) over a Markov chain class.
///
/// Each θ's matrix powers, influence tables and node list depend on the
/// class, the length and the search options, never on ε, so the calibrator
/// prepares them on its first calibration and searches them again at every
/// later ε — bitwise the mechanism [`MqmExact::calibrate`] returns. A class
/// whose tables cannot be built is refused once, and that refusal is
/// returned for every ε.
pub struct MqmExactCalibrator {
    class: MarkovChainClass,
    length: usize,
    options: MqmExactOptions,
    token: u64,
    prepared: OnceLock<Result<PreparedClass>>,
}

impl MqmExactCalibrator {
    /// Wraps a chain class and search options for chains of `length`.
    pub fn new(class: MarkovChainClass, length: usize, options: MqmExactOptions) -> Self {
        let token = TokenHasher::new("mqm-exact")
            .mix(&markov_class_token(&class))
            .mix(&length)
            .mix(&options.max_quilt_width)
            .mix(&options.search_middle_only)
            .finish();
        MqmExactCalibrator {
            class,
            length,
            options,
            token,
            prepared: OnceLock::new(),
        }
    }
}

impl Calibrator for MqmExactCalibrator {
    fn kind(&self) -> &'static str {
        "mqm-exact"
    }

    fn class_token(&self) -> u64 {
        self.token
    }

    /// Calibration ignores the query (the noise multiplier is rescaled by
    /// the Lipschitz constant at release time).
    fn query_scoped(&self) -> bool {
        false
    }

    fn calibrated_length(&self) -> Option<usize> {
        Some(self.length)
    }

    fn calibrate(
        &self,
        _query: &dyn LipschitzQuery,
        budget: PrivacyBudget,
    ) -> Result<Arc<dyn Mechanism>> {
        let prepared = self
            .prepared
            .get_or_init(|| MqmExact::prepare(&self.class, self.length, self.options))
            .as_ref()
            .map_err(Clone::clone)?;
        Ok(Arc::new(MqmExact::search(
            prepared,
            budget,
            self.options.parallelism,
        )?))
    }
}

/// Calibrator for MQMApprox (Algorithm 4) over a Markov chain class.
///
/// `(π^min_Θ, g_Θ)` depend on the class and the reversibility mode, never
/// on ε, so the calibrator computes them on its first calibration and sends
/// every ε through [`MqmApprox::calibrate_from_parameters`] — bitwise the
/// mechanism [`MqmApprox::calibrate`] returns. A class it refuses is
/// refused once, and that refusal is returned for every ε.
pub struct MqmApproxCalibrator {
    class: MarkovChainClass,
    length: usize,
    options: MqmApproxOptions,
    token: u64,
    parameters: OnceLock<Result<(f64, f64)>>,
}

impl MqmApproxCalibrator {
    /// Wraps a chain class and options for chains of `length`.
    pub fn new(class: MarkovChainClass, length: usize, options: MqmApproxOptions) -> Self {
        let token = TokenHasher::new("mqm-approx")
            .mix(&markov_class_token(&class))
            .mix(&length)
            .mix(&format!("{:?}", options.reversibility))
            .mix(&format!("{:?}", options.strategy))
            .finish();
        MqmApproxCalibrator {
            class,
            length,
            options,
            token,
            parameters: OnceLock::new(),
        }
    }
}

impl Calibrator for MqmApproxCalibrator {
    fn kind(&self) -> &'static str {
        "mqm-approx"
    }

    fn class_token(&self) -> u64 {
        self.token
    }

    /// Calibration ignores the query (the noise multiplier is rescaled by
    /// the Lipschitz constant at release time).
    fn query_scoped(&self) -> bool {
        false
    }

    fn calibrated_length(&self) -> Option<usize> {
        Some(self.length)
    }

    fn calibrate(
        &self,
        _query: &dyn LipschitzQuery,
        budget: PrivacyBudget,
    ) -> Result<Arc<dyn Mechanism>> {
        let (pi_min, eigengap) = self
            .parameters
            .get_or_init(|| MqmApprox::class_parameters(&self.class, self.options))
            .clone()?;
        Ok(Arc::new(MqmApprox::calibrate_from_parameters(
            pi_min,
            eigengap,
            self.class.num_states(),
            self.length,
            budget,
            self.options,
        )?))
    }
}

/// Calibrator for the general Markov Quilt Mechanism (Algorithm 2) over a
/// Bayesian network class.
pub struct QuiltCalibrator {
    networks: Vec<pufferfish_bayesnet::DiscreteBayesianNetwork>,
    options: QuiltMechanismOptions,
    token: u64,
}

impl QuiltCalibrator {
    /// Wraps a network class sharing one DAG.
    pub fn new(
        networks: Vec<pufferfish_bayesnet::DiscreteBayesianNetwork>,
        options: QuiltMechanismOptions,
    ) -> Self {
        let mut token = TokenHasher::new("markov-quilt").mix(&networks.len());
        for network in &networks {
            token = token.mix(&format!("{network:?}"));
        }
        token = token.mix(&format!("{:?}", options.quilt_candidates));
        let token = token.finish();
        QuiltCalibrator {
            networks,
            options,
            token,
        }
    }
}

impl Calibrator for QuiltCalibrator {
    fn kind(&self) -> &'static str {
        "markov-quilt"
    }

    fn class_token(&self) -> u64 {
        self.token
    }

    /// Calibration ignores the query (the noise multiplier is rescaled by
    /// the Lipschitz constant at release time).
    fn query_scoped(&self) -> bool {
        false
    }

    fn calibrate(
        &self,
        _query: &dyn LipschitzQuery,
        budget: PrivacyBudget,
    ) -> Result<Arc<dyn Mechanism>> {
        Ok(Arc::new(MarkovQuiltMechanism::calibrate(
            &self.networks,
            budget,
            self.options.clone(),
        )?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::{RelativeFrequencyHistogram, StateFrequencyQuery};
    use crate::snapshot::ScaleForm;
    use crate::PufferfishError;
    use pufferfish_markov::MarkovChain;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_class() -> MarkovChainClass {
        MarkovChainClass::singleton(
            MarkovChain::new(vec![1.0, 0.0], vec![vec![0.9, 0.1], vec![0.4, 0.6]]).unwrap(),
        )
    }

    /// Markov Quilt calibrators keep their ε-free work: every ε, including
    /// ε arriving together, calibrates bitwise as a direct calibration, and
    /// a refused class is refused with the direct calibration's error at
    /// every ε.
    #[test]
    fn chain_calibrators_fold_every_epsilon_like_direct_calibrations() {
        let class = pufferfish_markov::IntervalClassBuilder::symmetric(0.4)
            .grid_points(2)
            .build()
            .unwrap();
        let epsilons = [0.02, 0.3, 0.05, 1.0, 4.0];
        let query = RelativeFrequencyHistogram::new(2, 40).unwrap();
        let sigma = |mechanism: &dyn Mechanism| match mechanism.state().scale {
            ScaleForm::LipschitzTimes { multiplier } => multiplier.to_bits(),
            other => panic!("unexpected scale {other:?}"),
        };
        let approx_options = MqmApproxOptions::default();
        let exact_options = MqmExactOptions::default();
        let approx = MqmApproxCalibrator::new(class.clone(), 40, approx_options);
        let exact = MqmExactCalibrator::new(class.clone(), 40, exact_options);
        let folds: Vec<(u64, u64)> = std::thread::scope(|scope| {
            let workers: Vec<_> = epsilons
                .iter()
                .map(|&epsilon| {
                    let (approx, exact, query) = (&approx, &exact, &query);
                    scope.spawn(move || {
                        let budget = PrivacyBudget::new(epsilon).unwrap();
                        let approx = approx.calibrate(query, budget).unwrap();
                        let exact = exact.calibrate(query, budget).unwrap();
                        (sigma(&*approx), sigma(&*exact))
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for (&epsilon, fold) in epsilons.iter().zip(folds) {
            let budget = PrivacyBudget::new(epsilon).unwrap();
            let direct_approx = MqmApprox::calibrate(&class, 40, budget, approx_options).unwrap();
            let direct_exact = MqmExact::calibrate(&class, 40, budget, exact_options).unwrap();
            let direct = (
                direct_approx.sigma_max().to_bits(),
                direct_exact.sigma_max().to_bits(),
            );
            assert_eq!(fold, direct, "ε {epsilon}");
            // A later calibration reuses the kept state.
            let again = (
                sigma(&*approx.calibrate(&query, budget).unwrap()),
                sigma(&*exact.calibrate(&query, budget).unwrap()),
            );
            assert_eq!(again, direct, "ε {epsilon}, again");
        }

        let periodic = MarkovChainClass::singleton(
            MarkovChain::new(vec![1.0, 0.0], vec![vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap(),
        );
        let refused = MqmApproxCalibrator::new(periodic.clone(), 40, approx_options);
        let empty = MqmExactCalibrator::new(periodic.clone(), 0, exact_options);
        for epsilon in [0.05, 1.0] {
            let budget = PrivacyBudget::new(epsilon).unwrap();
            let direct = MqmApprox::calibrate(&periodic, 40, budget, approx_options).unwrap_err();
            let engine = refused.calibrate(&query, budget).err().unwrap();
            assert_eq!(engine.to_string(), direct.to_string());
            let direct = MqmExact::calibrate(&periodic, 0, budget, exact_options).unwrap_err();
            let engine = empty.calibrate(&query, budget).err().unwrap();
            assert_eq!(engine.to_string(), direct.to_string());
        }
    }

    #[test]
    fn cache_hits_and_misses_are_counted() {
        let engine = ReleaseEngine::new(MqmApproxCalibrator::new(
            test_class(),
            200,
            MqmApproxOptions::default(),
        ));
        let budget = PrivacyBudget::new(1.0).unwrap();
        let query = RelativeFrequencyHistogram::new(2, 200).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let data = vec![0usize; 200];

        assert_eq!(engine.stats().misses, 0);
        // The probe neither calibrates nor counts.
        assert!(!engine.is_cached(&query, budget));
        assert_eq!((engine.stats(), engine.len()), (CacheStats::default(), 0));
        engine.release(&query, &data, budget, &mut rng).unwrap();
        assert_eq!(engine.stats().misses, 1);
        assert_eq!(engine.stats().hits, 0);
        assert!(engine.is_cached(&query, budget));
        assert_eq!(engine.stats().hits, 0);

        // Same (class, epsilon, query signature): served from cache.
        engine.release(&query, &data, budget, &mut rng).unwrap();
        assert_eq!(engine.stats().misses, 1);
        assert_eq!(engine.stats().hits, 1);
        assert_eq!(engine.len(), 1);

        // Different epsilon: a fresh calibration.
        let other_budget = PrivacyBudget::new(2.0).unwrap();
        engine
            .release(&query, &data, other_budget, &mut rng)
            .unwrap();
        assert_eq!(engine.stats().misses, 2);
        assert_eq!(engine.len(), 2);

        // MQMApprox calibration is query-independent (class-scoped), so a
        // different query at the same epsilon is still a cache hit — the
        // noise scale adapts at release time via the Lipschitz constant.
        let scalar = StateFrequencyQuery::new(1, 200);
        engine.release(&scalar, &data, budget, &mut rng).unwrap();
        assert_eq!(engine.stats().misses, 2);
        assert_eq!(engine.stats().hits, 2);

        engine.clear_cache();
        assert_eq!(engine.len(), 0);
        assert!(!engine.is_cached(&scalar, budget));
        engine.release(&query, &data, budget, &mut rng).unwrap();
        assert_eq!(engine.stats().misses, 3);
    }

    #[test]
    fn telemetry_mirrors_cache_counters_and_tracks_releases() {
        let engine = ReleaseEngine::new(MqmApproxCalibrator::new(
            test_class(),
            200,
            MqmApproxOptions::default(),
        ));
        let registry = Registry::new();
        let budget = PrivacyBudget::new(1.0).unwrap();
        let query = RelativeFrequencyHistogram::new(2, 200).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let data = vec![0usize; 200];

        // Before enabling, nothing is registered and releases cost no
        // registry traffic.
        engine.release(&query, &data, budget, &mut rng).unwrap();
        assert_eq!(registry.len(), 0);

        engine.enable_telemetry(&registry);
        engine.release(&query, &data, budget, &mut rng).unwrap(); // hit
        engine
            .release_batch(&query, &[data.clone(), data.clone()], budget, &mut rng)
            .unwrap(); // hit + 2 releases
        let rendered = registry.render_text();
        assert!(
            rendered.contains("engine_mqm_approx_cache_hits_total counter 2"),
            "unexpected exposition:\n{rendered}"
        );
        assert!(rendered.contains("engine_mqm_approx_releases_total counter 3"));
        assert!(rendered.contains("engine_mqm_approx_noise_scale_micro histogram count=3"));
        // The pre-enable miss was not back-filled.
        assert!(rendered.contains("engine_mqm_approx_cache_misses_total counter 0"));
        // Enabling twice is a no-op (first registry wins), and the engine's
        // own counters are untouched by mirroring.
        engine.enable_telemetry(&registry);
        assert_eq!(engine.stats().hits, 2);
        assert_eq!(engine.stats().misses, 1);
    }

    #[test]
    fn wasserstein_cache_distinguishes_query_parameterisations() {
        // The Wasserstein Mechanism calibrates to the concrete query, so two
        // parameterisations of the same query type (state 0 vs state 1) must
        // NOT share a cache entry even though their name, Lipschitz
        // constant, dimension and length coincide.
        let framework = crate::flu::flu_clique_framework(3, &[0.5, 0.1, 0.1, 0.3]).unwrap();
        let engine = ReleaseEngine::new(WassersteinCalibrator::new(
            framework,
            Parallelism::default(),
        ));
        let budget = PrivacyBudget::new(1.0).unwrap();
        let q0 = crate::queries::StateCountQuery::new(0, 3);
        let q1 = crate::queries::StateCountQuery::new(1, 3);
        assert_ne!(
            engine.key_for(&q0, budget),
            engine.key_for(&q1, budget),
            "parameterisations must produce distinct cache keys"
        );
        let m0 = engine.mechanism(&q0, budget).unwrap();
        let m1 = engine.mechanism(&q1, budget).unwrap();
        assert_eq!(engine.stats().misses, 2);
        assert_eq!(engine.stats().hits, 0);
        // Each cached mechanism carries its own calibrated scale.
        assert_eq!(
            m0.noise_scale_for(&q0).to_bits(),
            WassersteinMechanism::calibrate(
                &crate::flu::flu_clique_framework(3, &[0.5, 0.1, 0.1, 0.3]).unwrap(),
                &q0,
                budget
            )
            .unwrap()
            .noise_scale()
            .to_bits()
        );
        let _ = m1;
    }

    #[test]
    fn cached_mechanism_matches_cold_calibration() {
        let engine = ReleaseEngine::new(MqmExactCalibrator::new(
            test_class(),
            100,
            MqmExactOptions::default(),
        ));
        let budget = PrivacyBudget::new(1.0).unwrap();
        let query = StateFrequencyQuery::new(1, 100);
        let warm = engine.mechanism(&query, budget).unwrap();
        let cached = engine.mechanism(&query, budget).unwrap();
        let cold =
            MqmExact::calibrate(&test_class(), 100, budget, MqmExactOptions::default()).unwrap();
        assert_eq!(
            warm.noise_scale_for(&query).to_bits(),
            cold.noise_scale_for(&query).to_bits()
        );
        assert_eq!(
            cached.noise_scale_for(&query).to_bits(),
            cold.noise_scale_for(&query).to_bits()
        );
        assert_eq!(engine.stats().hits, 1);
    }

    #[test]
    fn batch_release_consumes_the_same_noise_stream() {
        let engine = ReleaseEngine::new(MqmApproxCalibrator::new(
            test_class(),
            50,
            MqmApproxOptions::default(),
        ));
        let budget = PrivacyBudget::new(1.0).unwrap();
        let query = RelativeFrequencyHistogram::new(2, 50).unwrap();
        let databases: Vec<Vec<usize>> = (0..4)
            .map(|i| (0..50).map(|t| (t + i) % 2).collect())
            .collect();

        let mut rng = StdRng::seed_from_u64(7);
        let batched = engine
            .release_batch(&query, &databases, budget, &mut rng)
            .unwrap();

        let mut rng = StdRng::seed_from_u64(7);
        let sequential: Vec<_> = databases
            .iter()
            .map(|db| engine.release(&query, db, budget, &mut rng).unwrap())
            .collect();

        assert_eq!(batched.len(), sequential.len());
        for (a, b) in batched.iter().zip(&sequential) {
            assert_eq!(a.values, b.values);
            assert_eq!(a.true_values, b.true_values);
            assert_eq!(a.scale, b.scale);
        }
    }

    #[test]
    fn class_tokens_distinguish_classes() {
        let a = markov_class_token(&test_class());
        let other = MarkovChainClass::singleton(
            MarkovChain::new(vec![0.9, 0.1], vec![vec![0.8, 0.2], vec![0.3, 0.7]]).unwrap(),
        );
        let b = markov_class_token(&other);
        assert_ne!(a, b);
        assert_eq!(a, markov_class_token(&test_class()));
    }

    #[test]
    fn concurrent_misses_calibrate_once() {
        use std::sync::Barrier;

        let engine = Arc::new(ReleaseEngine::new(MqmApproxCalibrator::new(
            test_class(),
            120,
            MqmApproxOptions::default(),
        )));
        let budget = PrivacyBudget::new(1.0).unwrap();
        let threads = 8;
        let barrier = Barrier::new(threads);

        let scales: Vec<u64> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    let engine = Arc::clone(&engine);
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let query = StateFrequencyQuery::new(1, 120);
                        barrier.wait();
                        engine
                            .mechanism(&query, budget)
                            .unwrap()
                            .noise_scale_for(&query)
                            .to_bits()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });

        // Exactly one calibration; every thread observed the identical scale.
        let stats = engine.stats();
        assert_eq!(stats.misses, 1, "stampede was not coalesced: {stats:?}");
        assert_eq!(stats.hits + stats.misses, threads as u64);
        assert!(scales.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(engine.len(), 1);
    }

    #[test]
    fn counter_reset_and_introspection() {
        let engine = ReleaseEngine::new(MqmApproxCalibrator::new(
            test_class(),
            80,
            MqmApproxOptions::default(),
        ));
        assert!(engine.is_empty());
        let budget = PrivacyBudget::new(1.0).unwrap();
        let query = StateFrequencyQuery::new(1, 80);
        engine.mechanism(&query, budget).unwrap();
        engine.mechanism(&query, budget).unwrap();
        assert_eq!(
            engine.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                coalesced: 0
            }
        );
        engine.reset_counters();
        assert_eq!(engine.stats(), CacheStats::default());
        // The cache itself survives a counter reset.
        assert_eq!(engine.len(), 1);
        assert!(!engine.is_empty());
        engine.mechanism(&query, budget).unwrap();
        assert_eq!(engine.stats().hits, 1);
    }

    #[test]
    fn failed_calibrations_are_not_cached() {
        use std::sync::atomic::AtomicUsize;

        let attempts = Arc::new(AtomicUsize::new(0));
        let class = test_class();
        let counted = Arc::clone(&attempts);
        let engine = ReleaseEngine::new(FnCalibrator::new("flaky", 7, move |_q, budget| {
            let attempt = counted.fetch_add(1, Ordering::SeqCst);
            if attempt == 0 {
                Err(PufferfishError::CannotCalibrate("transient".to_string()))
            } else {
                Ok(Arc::new(MqmApprox::calibrate(
                    &class,
                    80,
                    budget,
                    MqmApproxOptions::default(),
                )?) as Arc<dyn Mechanism>)
            }
        }));
        let budget = PrivacyBudget::new(1.0).unwrap();
        let query = StateFrequencyQuery::new(1, 80);
        assert!(engine.mechanism(&query, budget).is_err());
        assert_eq!(engine.len(), 0);
        assert_eq!(engine.stats().misses, 0);
        // The key is not poisoned: the retry calibrates successfully.
        assert!(engine.mechanism(&query, budget).is_ok());
        assert_eq!(engine.stats().misses, 1);
        assert_eq!(attempts.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn distinct_keys_calibrate_concurrently() {
        use std::sync::mpsc;
        use std::time::Duration;

        // The ε = 1 calibration finishes only once the ε = 2 one has run, so
        // a lock spanning keys would make it time out.
        let (started_tx, started_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        let done_rx = Mutex::new(done_rx);
        let class = test_class();
        let engine = ReleaseEngine::new(FnCalibrator::new("gated", 11, move |_q, budget| {
            let first = budget.epsilon() < 1.5;
            if first {
                started_tx.send(()).expect("test thread listens");
                done_rx
                    .lock()
                    .expect("receiver lock")
                    .recv_timeout(Duration::from_secs(10))
                    .map_err(|_| PufferfishError::CannotCalibrate("ε = 2 never ran".into()))?;
            }
            let mechanism = MqmApprox::calibrate(&class, 80, budget, MqmApproxOptions::default())?;
            if !first {
                done_tx.send(()).expect("ε = 1 calibration listens");
            }
            Ok(Arc::new(mechanism) as Arc<dyn Mechanism>)
        }));
        let query = StateFrequencyQuery::new(1, 80);
        std::thread::scope(|scope| {
            let slow = scope.spawn(|| engine.mechanism(&query, PrivacyBudget::new(1.0).unwrap()));
            started_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("the ε = 1 calibration started");
            engine
                .mechanism(&query, PrivacyBudget::new(2.0).unwrap())
                .unwrap();
            slow.join().unwrap().expect("ε = 1 calibrated beside ε = 2");
        });
        assert_eq!(
            engine.stats(),
            CacheStats {
                hits: 0,
                misses: 2,
                coalesced: 0
            }
        );
    }

    #[test]
    fn a_failed_leader_fails_alone_under_a_stampede() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;

        let attempts = Arc::new(AtomicUsize::new(0));
        let class = test_class();
        let counted = Arc::clone(&attempts);
        let engine = ReleaseEngine::new(FnCalibrator::new("flaky", 7, move |_q, budget| {
            if counted.fetch_add(1, Ordering::SeqCst) == 0 {
                Err(PufferfishError::CannotCalibrate("transient".to_string()))
            } else {
                Ok(Arc::new(MqmApprox::calibrate(
                    &class,
                    80,
                    budget,
                    MqmApproxOptions::default(),
                )?) as Arc<dyn Mechanism>)
            }
        }));
        let budget = PrivacyBudget::new(1.0).unwrap();
        let threads = 8;
        let barrier = Barrier::new(threads);

        let outcomes: Vec<Result<u64>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let query = StateFrequencyQuery::new(1, 80);
                        barrier.wait();
                        engine
                            .mechanism(&query, budget)
                            .map(|mechanism| mechanism.noise_scale_for(&query).to_bits())
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });

        let (failed, served): (Vec<_>, Vec<_>) = outcomes.into_iter().partition(Result::is_err);
        assert_eq!(failed.len(), 1, "only the failed leader sees its error");
        let scales: Vec<u64> = served.into_iter().map(Result::unwrap).collect();
        assert_eq!(scales.len(), threads - 1);
        assert!(scales.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(engine.stats().misses, 1);
        assert_eq!(attempts.load(Ordering::SeqCst), 2);
        assert_eq!(engine.len(), 1);
    }

    #[test]
    fn a_panicking_calibration_does_not_wedge_its_key() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::AtomicUsize;
        use std::sync::{mpsc, Barrier};
        use std::time::{Duration, Instant};

        let calls = Arc::new(AtomicUsize::new(0));
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let go_rx = Mutex::new(go_rx);
        let class = test_class();
        let counted = Arc::clone(&calls);
        let engine = Arc::new(ReleaseEngine::new(FnCalibrator::new(
            "panicky",
            12,
            move |_q, budget| {
                if counted.fetch_add(1, Ordering::SeqCst) == 0 {
                    // Hold the first calibration until every other caller
                    // waits on it, then panic.
                    let _ = go_rx
                        .lock()
                        .expect("receiver lock")
                        .recv_timeout(Duration::from_secs(10));
                    panic!("calibrator bug");
                }
                Ok(Arc::new(MqmApprox::calibrate(
                    &class,
                    80,
                    budget,
                    MqmApproxOptions::default(),
                )?) as Arc<dyn Mechanism>)
            },
        )));
        let budget = PrivacyBudget::new(1.0).unwrap();
        let threads = 8;
        let barrier = Arc::new(Barrier::new(threads));
        let (done_tx, done_rx) = mpsc::channel();

        // Detached threads: a wedged caller must fail this test, not hang it
        // in a scope join.
        for _ in 0..threads {
            let engine = Arc::clone(&engine);
            let barrier = Arc::clone(&barrier);
            let done_tx = done_tx.clone();
            std::thread::spawn(move || {
                let query = StateFrequencyQuery::new(1, 80);
                barrier.wait();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    engine
                        .mechanism(&query, budget)
                        .map(|mechanism| mechanism.noise_scale_for(&query).to_bits())
                }));
                let _ = done_tx.send(outcome.ok());
            });
        }

        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.stats().coalesced < threads as u64 - 1 {
            assert!(Instant::now() < deadline, "callers never queued on the key");
            std::thread::sleep(Duration::from_millis(1));
        }
        go_tx.send(()).unwrap();

        let outcomes: Vec<Option<Result<u64>>> = (0..threads)
            .map(|_| {
                done_rx
                    .recv_timeout(deadline.saturating_duration_since(Instant::now()))
                    .expect("a caller is still blocked on the panicked key")
            })
            .collect();
        let panicked = outcomes.iter().filter(|outcome| outcome.is_none()).count();
        assert_eq!(panicked, 1, "only the panicking leader's caller panics");
        let scales: Vec<u64> = outcomes.into_iter().flatten().map(Result::unwrap).collect();
        assert_eq!(scales.len(), threads - 1);
        assert!(scales.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(engine.stats().misses, 1);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(engine.len(), 1);
    }

    #[test]
    fn noise_scale_estimate_matches_release_and_is_cached() {
        let engine = ReleaseEngine::new(MqmApproxCalibrator::new(
            test_class(),
            90,
            MqmApproxOptions::default(),
        ));
        let budget = PrivacyBudget::new(1.0).unwrap();
        let query = StateFrequencyQuery::new(1, 90);
        let estimate = engine.noise_scale_estimate(&query, budget).unwrap();
        assert_eq!(engine.stats().misses, 1);
        // The probe is the same cached calibration the release then uses.
        let mut rng = StdRng::seed_from_u64(3);
        let release = engine
            .release(&query, &vec![0usize; 90], budget, &mut rng)
            .unwrap();
        assert_eq!(release.scale.to_bits(), estimate.to_bits());
        assert_eq!(engine.stats().misses, 1);
        assert_eq!(engine.stats().hits, 1);
    }

    #[test]
    fn class_scoped_fn_calibrator_shares_one_calibration_across_queries() {
        let class = test_class();
        let engine = ReleaseEngine::new(FnCalibrator::class_scoped(
            "scoped",
            9,
            move |_q, budget| {
                Ok(Arc::new(MqmApprox::calibrate(
                    &class,
                    70,
                    budget,
                    MqmApproxOptions::default(),
                )?) as Arc<dyn Mechanism>)
            },
        ));
        let budget = PrivacyBudget::new(1.0).unwrap();
        engine
            .mechanism(&StateFrequencyQuery::new(0, 70), budget)
            .unwrap();
        engine
            .mechanism(&RelativeFrequencyHistogram::new(2, 70).unwrap(), budget)
            .unwrap();
        // Two different query shapes, one cached calibration.
        assert_eq!(engine.stats().misses, 1);
        assert_eq!(engine.stats().hits, 1);
        assert_eq!(engine.len(), 1);
    }

    #[test]
    fn fn_calibrator_works_for_custom_mechanisms() {
        let class = test_class();
        let engine = ReleaseEngine::new(FnCalibrator::new("custom-mqm", 42, move |_q, budget| {
            Ok(Arc::new(MqmApprox::calibrate(
                &class,
                100,
                budget,
                MqmApproxOptions::default(),
            )?) as Arc<dyn Mechanism>)
        }));
        let budget = PrivacyBudget::new(1.0).unwrap();
        let query = StateFrequencyQuery::new(1, 100);
        assert_eq!(engine.kind(), "custom-mqm");
        let mechanism = engine.mechanism(&query, budget).unwrap();
        assert_eq!(mechanism.name(), "mqm-approx");
        assert!(engine.mechanism(&query, budget).is_ok());
        assert_eq!(engine.stats().hits, 1);
    }
}
