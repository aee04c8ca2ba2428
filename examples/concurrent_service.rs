//! Concurrent serving walkthrough: one shared engine, a worker-pool
//! service with per-user budgets, and continual release over event streams.
//!
//! Run with `cargo run -p pufferfish-bench --release --example concurrent_service`.

use std::sync::Arc;

use pufferfish_core::engine::{MqmApproxCalibrator, ReleaseEngine};
use pufferfish_core::queries::StateFrequencyQuery;
use pufferfish_core::{MqmApproxOptions, Parallelism};
use pufferfish_datasets::StreamWorkload;
use pufferfish_markov::{IntervalClassBuilder, MarkovChain};
use pufferfish_service::{
    ContinualRelease, ReleaseRequest, ReleaseService, ServiceConfig, ServiceError, StreamBackend,
    StreamConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let length = 100;
    let class = IntervalClassBuilder::symmetric(0.4)
        .grid_points(3)
        .build()
        .expect("valid interval class");

    // --- 1. One engine shared by a pool of service workers. ---------------
    let engine = ReleaseEngine::shared(MqmApproxCalibrator::new(
        class.clone(),
        length,
        MqmApproxOptions::default(),
    ));
    let service = ReleaseService::start(
        Arc::clone(&engine),
        ServiceConfig {
            workers: Parallelism::Threads(4),
            queue_capacity: 64,
            per_user_epsilon: 1.0,
        },
    )
    .expect("valid service config");

    // Simulated population: deterministic per-user activity streams.
    let truth = MarkovChain::new(vec![0.5, 0.5], vec![vec![0.6, 0.4], vec![0.4, 0.6]])
        .expect("valid chain");
    let workload = StreamWorkload::new(truth, 2024);

    println!("submitting 3 requests each for 8 users (epsilon 0.25 per release)...");
    let tickets: Vec<_> = (0..8u64)
        .flat_map(|user| {
            let database: Vec<usize> = workload.user_stream(user).take(length).collect();
            (0..3).map(move |i| {
                (
                    user,
                    ReleaseRequest {
                        user: format!("user-{user}"),
                        query: Arc::new(StateFrequencyQuery::new(1, length)),
                        database: database.clone(),
                        epsilon: 0.25,
                        seed: user * 10 + i,
                    },
                )
            })
        })
        .map(|(user, request)| (user, service.submit(request).expect("within budget")))
        .collect();
    for (user, ticket) in tickets {
        let release = ticket.wait().expect("release succeeds");
        println!(
            "  user-{user}: noisy frequency {:+.4} (exact {:.4}, scale {:.4})",
            release.values[0], release.true_values[0], release.scale
        );
    }

    // A fourth 0.25-release fits (4 x 0.25 = 1.0); a fifth is refused.
    let database: Vec<usize> = workload.user_stream(0).take(length).collect();
    let request = |seed| ReleaseRequest {
        user: "user-0".to_string(),
        query: Arc::new(StateFrequencyQuery::new(1, length)),
        database: database.clone(),
        epsilon: 0.25,
        seed,
    };
    service.release(request(90)).expect("fourth release fits");
    match service.submit(request(91)) {
        Err(ServiceError::BudgetExhausted {
            user, remaining, ..
        }) => {
            println!("fifth release for {user} refused: remaining budget {remaining:.2}")
        }
        other => panic!("expected budget exhaustion, got {other:?}"),
    }

    let stats = engine.stats();
    println!(
        "engine: {} calibration(s), {} hit(s), {} coalesced — served {}",
        stats.misses,
        stats.hits,
        stats.coalesced,
        service.served()
    );
    service.shutdown();

    // --- 2. Continual release: MQM and GK16 side by side on one stream. ---
    println!("\nstreaming: window 50, slide 25, epsilon 0.2/release, budget 1.0");
    let weak_class = IntervalClassBuilder::symmetric(0.45)
        .grid_points(2)
        .build()
        .expect("valid interval class");
    let stream_config = |backend| StreamConfig {
        window: 50,
        slide: 25,
        epsilon_per_release: 0.2,
        stream_epsilon: 1.0,
        backend,
    };
    let mut mqm =
        ContinualRelease::new("mqm", &weak_class, stream_config(StreamBackend::MqmApprox))
            .expect("mqm stream calibrates");
    let mut gk16 = ContinualRelease::new("gk16", &weak_class, stream_config(StreamBackend::Gk16))
        .expect("gk16 stream calibrates");
    println!(
        "  calibrated noise scales: mqm {:.4}, gk16 {:.4}",
        mqm.noise_scale(),
        gk16.noise_scale()
    );

    let mut rng = StdRng::seed_from_u64(7);
    let mut gk_rng = StdRng::seed_from_u64(7);
    for event in workload.user_stream(99).take(200) {
        if let Ok(Some(window)) = mqm.push(event, &mut rng) {
            println!(
                "  mqm  @ event {:>3}: histogram {:?} (spent {:.2})",
                window.window_end,
                window
                    .release
                    .values
                    .iter()
                    .map(|v| (v * 100.0).round() / 100.0)
                    .collect::<Vec<f64>>(),
                window.spent_epsilon
            );
        }
        let _ = gk16.push(event, &mut gk_rng);
    }
    println!(
        "  mqm:  {} release(s), exhausted: {}",
        mqm.releases(),
        mqm.is_exhausted()
    );
    println!(
        "  gk16: {} release(s), exhausted: {}",
        gk16.releases(),
        gk16.is_exhausted()
    );
}
