//! # pufferfish-net
//!
//! A dependency-free TCP front-end for the Pufferfish serving stack of
//! Song, Wang & Chaudhuri (SIGMOD 2017), built entirely on `std::net`.
//!
//! The in-process [`pufferfish_service::ReleaseService`] already has the
//! right concurrency shape — bounded admission queue, worker pool, per-user
//! budget accounting — but it only serves callers in the same process. This
//! crate puts it behind a wire:
//!
//! * [`frame`] — the length-prefixed binary protocol: magic + version +
//!   typed request/response frames (RELEASE, QUERY, STATS, PROGRESSIVE)
//!   with a per-frame
//!   user id under a per-connection authenticated tenant, so the
//!   [`pufferfish_service::BudgetAccountant`] charges the identity the
//!   *connection* proved, not a string the caller made up.
//! * [`NetServer`] — listener + pipelined connection handlers. Each
//!   connection keeps many sequence-numbered requests in flight; responses
//!   return in completion order. A RELEASE whose calibration is already
//!   cached is served and written by the connection's reader thread, which
//!   writes every answer it gives (all of one read's answers in one
//!   write); the connection's writer thread writes what the service's
//!   workers answer: cold releases and PROGRESSIVE refinements.
//!   Admission-queue refusals become typed `BUSY{retry_hint}` frames (the
//!   refused request's budget spend is rolled back by the service), never
//!   blocking. Connection limits, read timeouts, and graceful
//!   drain-then-close shutdown are built in.
//! * [`NetClient`] — a blocking client: raw pipelined send/recv plus
//!   one-shot helpers mapping the typed refusal frames onto
//!   [`ClientError`].
//! * Telemetry — re-exported from [`pufferfish_telemetry`]: the
//!   [`LatencyHistogram`] the closed-loop load harness uses for
//!   p50/p95/p99/p999 over millions of samples in 15 KiB, and (opt-in via
//!   [`NetServer::bind_full`]'s `telemetry`) per-connection byte counters,
//!   request stage spans, a slow-request flight recorder, and a METRICS
//!   wire frame exposing the whole registry to any client.
//!
//! Determinism survives the wire: a release is fully determined by
//! `(user, query, ε, seed, database)`, so identical requests over any
//! number of connections produce bitwise-identical noisy answers.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use pufferfish_core::engine::{MqmApproxCalibrator, ReleaseEngine};
//! use pufferfish_core::{MqmApproxOptions, Parallelism};
//! use pufferfish_markov::IntervalClassBuilder;
//! use pufferfish_net::{NetClient, NetServer, NetServerConfig, WireQuery};
//! use pufferfish_service::{ReleaseService, ServiceConfig};
//!
//! // The ordinary in-process service...
//! let class = IntervalClassBuilder::symmetric(0.4).grid_points(2).build().unwrap();
//! let engine = ReleaseEngine::shared(MqmApproxCalibrator::new(
//!     class,
//!     60,
//!     MqmApproxOptions::default(),
//! ));
//! let service = Arc::new(
//!     ReleaseService::start(
//!         engine,
//!         ServiceConfig {
//!             workers: Parallelism::Threads(2),
//!             queue_capacity: 32,
//!             per_user_epsilon: 1.0,
//!         },
//!     )
//!     .unwrap(),
//! );
//!
//! // ...put behind a TCP wire on an ephemeral port.
//! let server = NetServer::bind(
//!     ("127.0.0.1", 0),
//!     Arc::clone(&service),
//!     NetServerConfig::default(),
//! )
//! .unwrap();
//!
//! let mut client = NetClient::connect(server.local_addr(), "docs").unwrap();
//! let database = vec![0usize, 1, 1, 0, 1].repeat(12);
//! let query = WireQuery::StateFrequency { state: 1, length: 60 };
//! let (scale, values) = client.release(7, query, &database, 0.5, 99).unwrap();
//! assert!(scale > 0.0);
//! assert_eq!(values.len(), 1);
//!
//! // Identical request on a fresh connection: bitwise-identical answer.
//! let mut again = NetClient::connect(server.local_addr(), "docs").unwrap();
//! let (_, values_again) = again.release(7, query, &database, 0.5, 99).unwrap();
//! assert_eq!(values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
//!            values_again.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
//!
//! client.goodbye().unwrap();
//! again.goodbye().unwrap();
//! server.shutdown();
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod client;
pub mod frame;
pub mod server;

pub use client::{ClientError, NetClient, Refinement};
pub use frame::{
    decode, decode_payload, encode, Envelope, ErrorCode, Frame, FrameError, WireCell, WireMetric,
    WireMetricValue, WireQuery, WireQueryResult, WireRefinementStep, WireStats, WireWindow,
    DEFAULT_MAX_FRAME_LEN, MAGIC, VERSION,
};
pub use pufferfish_telemetry::LatencyHistogram;
pub use server::{
    NetServer, NetServerConfig, ProgressiveEndpoint, QueryEndpoint, TelemetryOptions,
};
