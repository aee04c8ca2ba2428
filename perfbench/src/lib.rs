//! Wire-level benchmark of the Pufferfish serving stack.
//!
//! Each workload drives a real `NetServer` over loopback from this one
//! process, with closed-loop callers (one thread and one connection each,
//! never more than two). The untraced run reports the end-to-end metrics;
//! the traced run (`--trace 1`) repeats the wire phase with server
//! telemetry on and replays the same requests through each layer's public
//! entry points to report the per-layer metrics. `README.md` in this
//! directory lists every metric, the layer it belongs to, and the
//! end-to-end metric and workload it should move.

pub mod gate;
pub mod inputs;
pub mod layers;
pub mod run;
pub mod stack;
pub mod stats;
pub mod wire;

pub use inputs::Workload;
pub use run::{run, Outcome};

/// How much work one run does. [`Sizes::full`] is what `BENCHMARK.json`
/// runs; [`Sizes::tiny`] keeps the smoke test fast.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Set-ups timed per untraced `release_fresh` run (the last one serves
    /// the traffic; each takes milliseconds, so many are cheap).
    pub release_setups: usize,
    /// Set-ups timed per untraced `analyst_mix` run.
    pub analyst_setups: usize,
    /// Prior releases per `release_hot` user.
    pub hot_history: usize,
    /// Requests per `release_hot` round (split over the connections).
    pub hot_round_requests: u64,
    /// Untraced/traced slice pairs in the traced run.
    pub trace_pairs: usize,
    /// RELEASE requests replayed through the layers.
    pub replay_releases: u64,
    /// QUERY requests replayed through the layers.
    pub replay_queries: u64,
    /// PROGRESSIVE requests replayed through the layers.
    pub replay_progressive: u64,
    /// Repetitions of the executor-vs-engine comparison.
    pub exec_reps: usize,
    /// In-process requests at depth 1 and at depth 32.
    pub service_requests: (u64, u64),
    /// Seconds of the ladder's single-connection wire rows at depth 1 and 32.
    pub ladder_seconds: (f64, f64),
    /// Cold calibrations per family.
    pub calibrate_reps: usize,
    /// Batches of 1024 Laplace samples.
    pub laplace_reps: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Sizes {
            release_setups: 41,
            analyst_setups: 5,
            hot_history: 10_000,
            hot_round_requests: 40_000,
            trace_pairs: 4,
            replay_releases: 5_000,
            replay_queries: 100,
            replay_progressive: 50,
            exec_reps: 30,
            service_requests: (5_000, 20_000),
            ladder_seconds: (0.5, 1.0),
            calibrate_reps: 3,
            laplace_reps: 2_000,
        }
    }

    /// Sizes small enough for a test.
    pub fn tiny() -> Self {
        Sizes {
            release_setups: 1,
            analyst_setups: 1,
            hot_history: 200,
            hot_round_requests: 400,
            trace_pairs: 1,
            replay_releases: 100,
            replay_queries: 2,
            replay_progressive: 2,
            exec_reps: 1,
            service_requests: (32, 64),
            ladder_seconds: (0.05, 0.05),
            calibrate_reps: 1,
            laplace_reps: 4,
        }
    }
}
