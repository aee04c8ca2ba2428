//! # pufferfish-core
//!
//! A production-quality implementation of the Pufferfish privacy mechanisms
//! of Song, Wang and Chaudhuri, *"Pufferfish Privacy Mechanisms for
//! Correlated Data"* (SIGMOD 2017).
//!
//! Pufferfish [Kifer & Machanavajjhala 2014] generalises differential privacy
//! to settings with **correlated data**: a framework is a triple `(S, Q, Θ)`
//! of secrets, secret pairs that must remain indistinguishable, and a class
//! of plausible data-generating distributions. This crate provides the
//! paper's two mechanism families plus the supporting theory:
//!
//! * [`WassersteinMechanism`] (Algorithm 1) — the first mechanism applicable
//!   to *any* Pufferfish instantiation; it calibrates Laplace noise to the
//!   worst-case ∞-Wasserstein distance between conditional query
//!   distributions.
//! * [`MarkovQuiltMechanism`] (Algorithm 2) — an efficient mechanism when the
//!   correlation is described by a Bayesian network, with the Markov-chain
//!   specialisations [`MqmExact`] (Algorithm 3) and [`MqmApprox`]
//!   (Algorithm 4) that power the paper's experiments on activity and power
//!   consumption data. All three choose each node's quilt with one scorer
//!   (`best_quilt` in `mqm_chain_influence.rs`), which skips, exactly, the
//!   quilts that can no longer beat the best score. The chain candidates
//!   come in runs of growing `card(X_N)`, so the first such quilt ends its
//!   run, and a node's search walks a small multiple of the candidates it
//!   evaluates instead of all O(T²) of them.
//! * Sequential composition of the Markov Quilt Mechanism (Theorem 4.4) via
//!   [`CompositionAccountant`].
//! * Robustness against adversaries whose beliefs lie *outside* Θ
//!   (Theorem 2.4) via [`robustness`].
//! * The queries used throughout the paper ([`queries`]): relative-frequency
//!   histograms, state frequencies and counts, all with explicit Lipschitz
//!   constants.
//! * The flu-status social-network example of Sections 2–3 ([`flu`]), which
//!   doubles as an executable illustration of the Wasserstein mechanism.
//!
//! ## The unified `Mechanism` trait
//!
//! Every calibrated mechanism — the four above plus the baselines in
//! `pufferfish-baselines` — implements the object-safe [`Mechanism`] trait
//! by one method, `state()`: the calibrated normal form ([`MechanismState`]:
//! ε, a query → scale rule and a validation rule) it builds once at
//! calibration. `epsilon()`, `noise_scale_for(query)`,
//! `release(query, db, rng)` and `release_batch` are provided methods that
//! read it, so every family releases through one path. Calibration stays on
//! the concrete types (each family consumes different class descriptions),
//! while serving code holds `Box<dyn Mechanism>` / `Arc<dyn Mechanism>` and
//! never cares which family produced it.
//!
//! ## The release engine
//!
//! Calibration is the expensive step (quilt searches, Wasserstein sweeps);
//! releases are cheap. The [`engine`] module amortises calibration behind a
//! cache keyed by `(distribution class, ε, query Lipschitz signature)`:
//! a [`engine::ReleaseEngine`] wraps a [`engine::Calibrator`] and serves
//! repeated releases from memoised mechanisms, with observable hit/miss
//! counters. The cache is one read-write-locked map of per-key slots, and
//! concurrent misses on a key coalesce on that key's slot, so one
//! `Arc<ReleaseEngine>` serves many request threads and no lock spanning
//! keys is held while calibrating (the `pufferfish-service` crate builds a
//! full request/response front-end on top). Calibration inner loops are parallelised (deterministically —
//! identical noise scales on every thread count) through
//! [`pufferfish_parallel::Parallelism`], selectable on every options struct.
//!
//! ## Quick start (trait + engine API)
//!
//! ```
//! use pufferfish_core::engine::{MqmApproxCalibrator, ReleaseEngine};
//! use pufferfish_core::queries::StateFrequencyQuery;
//! use pufferfish_core::{Mechanism, MqmApproxOptions, PrivacyBudget};
//! use pufferfish_markov::{IntervalClassBuilder, MarkovChain, sample_trajectory};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // A class of plausible activity models: binary chains with transition
//! // probabilities in [0.3, 0.7] and any initial distribution.
//! let class = IntervalClassBuilder::symmetric(0.3).grid_points(5).build().unwrap();
//!
//! // An engine serving MQMApprox releases for chains of length 200. The
//! // first release calibrates; every later (ε, query) repeat is a cache hit.
//! let t = 200;
//! let engine = ReleaseEngine::new(MqmApproxCalibrator::new(
//!     class,
//!     t,
//!     MqmApproxOptions::default(),
//! ));
//!
//! // Release the fraction of time spent in state 1.
//! let truth = MarkovChain::new(vec![0.5, 0.5], vec![vec![0.6, 0.4], vec![0.4, 0.6]]).unwrap();
//! let mut rng = StdRng::seed_from_u64(1);
//! let data = sample_trajectory(&truth, t, &mut rng).unwrap();
//! let query = StateFrequencyQuery::new(1, t);
//! let budget = PrivacyBudget::new(1.0).unwrap();
//! let release = engine.release(&query, &data, budget, &mut rng).unwrap();
//! assert_eq!(release.values.len(), 1);
//!
//! // Same key again: served from the calibration cache.
//! let again = engine.release(&query, &data, budget, &mut rng).unwrap();
//! assert_eq!(engine.stats().hits, 1);
//! assert_eq!(again.scale, release.scale);
//!
//! // The cached mechanism is an ordinary `Arc<dyn Mechanism>`.
//! let mechanism = engine.mechanism(&query, budget).unwrap();
//! assert_eq!(mechanism.name(), "mqm-approx");
//! assert!(mechanism.noise_scale_for(&query) > 0.0);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod composition;
pub mod engine;
mod error;
pub mod flu;
mod framework;
mod laplace;
mod mechanism;
mod mqm_approx;
mod mqm_chain_influence;
mod mqm_exact;
pub mod queries;
mod quilt_mechanism;
pub mod robustness;
pub mod scale_index;
pub mod snapshot;
mod wasserstein_mechanism;

pub use composition::CompositionAccountant;
pub use engine::{CacheStats, ReleaseEngine};
pub use error::PufferfishError;
pub use framework::{DiscretePufferfishFramework, DiscreteScenario, Secret};
pub use laplace::{laplace_error_bound, Laplace};
pub use mechanism::{l1_error, Mechanism, NoisyRelease, PrivacyBudget};
pub use mqm_approx::{MqmApprox, MqmApproxOptions, QuiltSearchStrategy};
pub use mqm_chain_influence::{
    chain_max_influence, chain_max_influence_cached, ChainInfluenceTables, ChainQuiltShape,
    InitialDistributionMode,
};
pub use mqm_exact::{MqmExact, MqmExactOptions, QuiltSelection};
pub use queries::LipschitzQuery;
pub use quilt_mechanism::{MarkovQuiltMechanism, NodeCalibration, QuiltMechanismOptions};
pub use scale_index::{EpsilonGrid, ScaleEstimate, ScaleIndex};
pub use snapshot::{CalibrationSnapshot, MechanismState, SnapshotEntry, SnapshotError};
pub use wasserstein_mechanism::WassersteinMechanism;

pub use pufferfish_parallel::Parallelism;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, PufferfishError>;
