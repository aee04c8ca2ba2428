//! Concurrency stress suite for the release engine and the serving
//! layer: one shared engine hammered from many threads, with exact
//! accounting assertions (calibrate-once per key, bitwise-stable noise
//! scales, no budget overdraw). Deliberately loom-free — plain OS threads,
//! barriers for maximum contention, and properties that must hold on *every*
//! interleaving.

use std::collections::HashMap;
use std::sync::{Arc, Barrier, Mutex};

use pufferfish_core::engine::{MqmApproxCalibrator, MqmExactCalibrator, ReleaseEngine};
use pufferfish_core::queries::StateFrequencyQuery;
use pufferfish_core::{MqmApproxOptions, MqmExactOptions, Parallelism, PrivacyBudget};
use pufferfish_markov::{IntervalClassBuilder, MarkovChain, MarkovChainClass};
use pufferfish_service::{
    BudgetAccountant, ContinualRelease, ReleaseRequest, ReleaseService, ServiceConfig,
    ServiceError, StreamBackend, StreamConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn exact_engine(length: usize) -> Arc<ReleaseEngine> {
    let chain =
        MarkovChain::with_stationary_initial(vec![vec![0.85, 0.15], vec![0.35, 0.65]]).unwrap();
    let options = MqmExactOptions {
        max_quilt_width: Some(16),
        search_middle_only: false,
        parallelism: Parallelism::Serial,
    };
    ReleaseEngine::shared(MqmExactCalibrator::new(
        MarkovChainClass::singleton(chain),
        length,
        options,
    ))
}

fn approx_engine(length: usize) -> Arc<ReleaseEngine> {
    let class = IntervalClassBuilder::symmetric(0.4)
        .grid_points(2)
        .build()
        .unwrap();
    ReleaseEngine::shared(MqmApproxCalibrator::new(
        class,
        length,
        MqmApproxOptions::default(),
    ))
}

/// The headline property: 8 threads × several epsilons racing one shared
/// engine perform exactly one calibration per distinct key, and every thread
/// observes bitwise-identical noise scales for the same key.
#[test]
fn shared_engine_calibrates_each_key_exactly_once_under_contention() {
    let engine = exact_engine(80);
    let threads = 8;
    let epsilons = [0.5, 1.0, 2.0, 4.0];
    let iterations = 25;
    let barrier = Barrier::new(threads);
    let observed: Mutex<HashMap<u64, Vec<u64>>> = Mutex::new(HashMap::new());

    std::thread::scope(|scope| {
        for thread in 0..threads {
            let engine = Arc::clone(&engine);
            let barrier = &barrier;
            let observed = &observed;
            scope.spawn(move || {
                let query = StateFrequencyQuery::new(1, 80);
                barrier.wait();
                for iteration in 0..iterations {
                    // Rotate the starting key per thread so every key sees
                    // simultaneous first-touch from several threads.
                    let epsilon = epsilons[(thread + iteration) % epsilons.len()];
                    let budget = PrivacyBudget::new(epsilon).unwrap();
                    let scale = engine
                        .mechanism(&query, budget)
                        .unwrap()
                        .noise_scale_for(&query);
                    observed
                        .lock()
                        .unwrap()
                        .entry(epsilon.to_bits())
                        .or_default()
                        .push(scale.to_bits());
                }
            });
        }
    });

    let stats = engine.stats();
    let total = (threads * iterations) as u64;
    assert_eq!(
        stats.misses,
        epsilons.len() as u64,
        "every distinct key must calibrate exactly once: {stats:?}"
    );
    assert_eq!(stats.hits + stats.misses, total);
    assert_eq!(engine.len(), epsilons.len());

    let observed = observed.into_inner().unwrap();
    assert_eq!(observed.len(), epsilons.len());
    for (epsilon_bits, scales) in observed {
        assert_eq!(scales.len(), threads * iterations / epsilons.len());
        assert!(
            scales.windows(2).all(|w| w[0] == w[1]),
            "noise scale must be bitwise stable for epsilon {}",
            f64::from_bits(epsilon_bits)
        );
    }
}

/// Warm-cache releases from many threads match the single-threaded
/// reference bit for bit (per-thread RNG streams are independent).
#[test]
fn concurrent_releases_match_serial_reference() {
    let engine = approx_engine(100);
    let budget = PrivacyBudget::new(1.0).unwrap();
    let threads = 8;
    let releases_per_thread = 50;

    let concurrent: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|thread| {
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    let query = StateFrequencyQuery::new(1, 100);
                    let database: Vec<usize> = (0..100).map(|t| (t + thread) % 2).collect();
                    let mut rng = StdRng::seed_from_u64(1000 + thread as u64);
                    (0..releases_per_thread)
                        .map(|_| {
                            engine
                                .release(&query, &database, budget, &mut rng)
                                .unwrap()
                                .values[0]
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    // Reference: same seeds, same databases, single thread, fresh engine.
    let reference_engine = approx_engine(100);
    for (thread, values) in concurrent.iter().enumerate() {
        let query = StateFrequencyQuery::new(1, 100);
        let database: Vec<usize> = (0..100).map(|t| (t + thread) % 2).collect();
        let mut rng = StdRng::seed_from_u64(1000 + thread as u64);
        for (release, &concurrent_value) in values.iter().enumerate() {
            let reference = reference_engine
                .release(&query, &database, budget, &mut rng)
                .unwrap()
                .values[0];
            assert_eq!(
                reference.to_bits(),
                concurrent_value.to_bits(),
                "thread {thread} release {release} diverged from the serial reference"
            );
        }
    }
}

/// End-to-end service stress: many users over many workers; every response
/// arrives, budgets add up exactly, and the engine calibrated once.
#[test]
fn service_survives_concurrent_submitters() {
    let engine = approx_engine(60);
    let service = ReleaseService::start(
        Arc::clone(&engine),
        ServiceConfig {
            workers: Parallelism::Threads(4),
            queue_capacity: 64,
            per_user_epsilon: 10.0,
        },
    )
    .unwrap();

    let submitters = 8;
    let requests_per_submitter = 40;
    let barrier = Barrier::new(submitters);
    std::thread::scope(|scope| {
        for submitter in 0..submitters {
            let service = &service;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for i in 0..requests_per_submitter {
                    let release = service
                        .release(ReleaseRequest {
                            user: format!("user-{submitter}"),
                            query: Arc::new(StateFrequencyQuery::new(1, 60)),
                            database: (0..60).map(|t| t % 2).collect(),
                            epsilon: 0.25,
                            seed: (submitter * 1000 + i) as u64,
                        })
                        .unwrap();
                    assert_eq!(release.values.len(), 1);
                }
            });
        }
    });

    let total = (submitters * requests_per_submitter) as u64;
    assert_eq!(service.served(), total);
    for submitter in 0..submitters {
        let user = format!("user-{submitter}");
        assert!(
            (service.budget().spent(&user) - 0.25 * requests_per_submitter as f64).abs() < 1e-9
        );
    }
    // One class-scoped calibration serves all traffic.
    assert_eq!(engine.stats().misses, 1);
    service.shutdown();
}

/// Budget accountant under maximum contention: a population of threads
/// burning one shared user's budget can never jointly overdraw it.
#[test]
fn budget_accountant_exhaustion_is_exact_under_contention() {
    let budget = Arc::new(BudgetAccountant::new(2.0).unwrap());
    let threads = 8;
    let attempts_per_thread = 20;
    let barrier = Barrier::new(threads);

    let grants: usize = std::thread::scope(|scope| {
        (0..threads)
            .map(|_| {
                let budget = Arc::clone(&budget);
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    (0..attempts_per_thread)
                        .filter(|_| budget.try_spend("shared", 0.1).is_ok())
                        .count()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|worker| worker.join().unwrap())
            .sum()
    });

    // 160 attempts at ε = 0.1 against a target of 2.0: exactly 20 grants.
    assert_eq!(grants, 20);
    assert!((budget.spent("shared") - 2.0).abs() < 1e-9);
    assert_eq!(budget.remaining("shared"), 0.0);
    assert!(matches!(
        budget.try_spend("shared", 0.1),
        Err(ServiceError::BudgetExhausted { .. })
    ));
}

/// Service-level budget exhaustion under concurrent submission: the number
/// of *admitted* requests is exact even when 8 threads race one user.
#[test]
fn service_budget_exhaustion_admits_exactly_the_budgeted_count() {
    let service = ReleaseService::start(
        approx_engine(60),
        ServiceConfig {
            workers: Parallelism::Threads(2),
            queue_capacity: 128,
            per_user_epsilon: 1.0,
        },
    )
    .unwrap();

    let threads = 8;
    let barrier = Barrier::new(threads);
    let admitted: usize = std::thread::scope(|scope| {
        (0..threads)
            .map(|thread| {
                let service = &service;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let mut ok = 0;
                    for i in 0..10 {
                        match service.submit(ReleaseRequest {
                            user: "contended".to_string(),
                            query: Arc::new(StateFrequencyQuery::new(1, 60)),
                            database: vec![0; 60],
                            epsilon: 0.2,
                            seed: (thread * 100 + i) as u64,
                        }) {
                            Ok(ticket) => {
                                ticket.wait().unwrap();
                                ok += 1;
                            }
                            Err(ServiceError::BudgetExhausted { .. }) => {}
                            Err(other) => panic!("unexpected error: {other}"),
                        }
                    }
                    ok
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|worker| worker.join().unwrap())
            .sum()
    });

    assert_eq!(admitted, 5, "1.0 / 0.2 = exactly five admitted releases");
    assert!((service.budget().spent("contended") - 1.0).abs() < 1e-9);
    service.shutdown();
}

/// Streaming pipeline exhaustion: the release schedule stops exactly when
/// the composed budget runs out, and per-stream backends stay independent.
#[test]
fn continual_release_budget_exhaustion() {
    let class = IntervalClassBuilder::symmetric(0.45)
        .grid_points(2)
        .build()
        .unwrap();
    let mut stream = ContinualRelease::new(
        "exhaust",
        &class,
        StreamConfig {
            window: 10,
            slide: 10,
            epsilon_per_release: 0.3,
            stream_epsilon: 1.0,
            backend: StreamBackend::MqmApprox,
        },
    )
    .unwrap();

    let mut rng = StdRng::seed_from_u64(77);
    let mut releases = 0;
    let mut refusals = 0;
    for t in 0..80 {
        match stream.push(t % 2, &mut rng) {
            Ok(Some(_)) => releases += 1,
            Ok(None) => {}
            Err(ServiceError::StreamBudgetExhausted {
                stream: name,
                window_end,
                remaining,
                ..
            }) => {
                assert_eq!(name, "exhaust");
                assert_eq!(window_end, t + 1);
                assert!(remaining < 0.3);
                refusals += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    // Tumbling windows of 10 over 80 events: 8 due releases, but only
    // floor(1.0 / 0.3) = 3 fit the stream budget.
    assert_eq!(releases, 3);
    assert_eq!(refusals, 5);
    assert!(stream.is_exhausted());
    assert!((stream.spent_epsilon() - 0.9).abs() < 1e-9);
    assert_eq!(stream.events(), 80);
}
