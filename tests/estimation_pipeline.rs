//! End-to-end estimation pipeline: raw event log → fitted confidence class
//! → calibrated release engine → snapshot export/import → bitwise-identical
//! releases — and the canary-swap path, where in-flight tickets must be
//! answered from a *consistent* calibration (old or new, never a torn mix).

use std::sync::Arc;

use pufferfish_core::engine::{MqmApproxCalibrator, ReleaseEngine};
use pufferfish_core::queries::StateFrequencyQuery;
use pufferfish_core::{MqmApproxOptions, Parallelism, PrivacyBudget, PufferfishError};
use pufferfish_datasets::EventStream;
use pufferfish_markov::{
    estimate_class, ClassEstimationOptions, FittedClass, MarkovChain, MarkovChainClass,
};
use pufferfish_monitor::{
    CanaryConfig, ClassBounds, MonitorConfig, MonitoredService, ServiceMonitor,
};
use pufferfish_service::{ReleaseRequest, ReleaseService, ServiceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Request database length.
const DB_LEN: usize = 60;

fn two_state(stay0: f64, stay1: f64) -> MarkovChain {
    MarkovChain::new(
        vec![0.5, 0.5],
        vec![vec![stay0, 1.0 - stay0], vec![1.0 - stay1, stay1]],
    )
    .unwrap()
}

fn fit(truth: &MarkovChain, seed: u64) -> FittedClass {
    let log: Vec<usize> = EventStream::new(truth.clone(), seed).take(20_000).collect();
    estimate_class(&[log], 2, ClassEstimationOptions::default()).unwrap()
}

fn engine_for(class: &MarkovChainClass) -> Arc<ReleaseEngine> {
    ReleaseEngine::shared(MqmApproxCalibrator::new(
        class.clone(),
        DB_LEN,
        MqmApproxOptions::default(),
    ))
}

/// The full pipeline: log → fit → widen → calibrate → export → import →
/// replay. The imported engine answers bit-for-bit identically without a
/// single calibration of its own.
#[test]
fn log_to_snapshot_roundtrip_is_bitwise_stable() {
    let truth = two_state(0.8, 0.65);
    let fitted = fit(&truth, 0xE57);
    assert!(fitted.confidence() > 0.9);
    let class = fitted.to_class().unwrap();
    assert!(class.len() >= 3, "widened class must carry corner chains");

    let query = StateFrequencyQuery::new(1, DB_LEN);
    let budget = PrivacyBudget::new(0.5).unwrap();
    let database: Vec<usize> = EventStream::new(truth, 0xE58).take(DB_LEN).collect();

    let cold = engine_for(&class);
    let cold_scale = cold.noise_scale_estimate(&query, budget).unwrap();
    assert!(cold_scale.is_finite() && cold_scale > 0.0);
    let snapshot = cold.export_snapshot();

    let warm = engine_for(&class);
    assert_eq!(warm.import_snapshot(&snapshot).unwrap(), 1);
    let mut cold_rng = StdRng::seed_from_u64(0xE59);
    let mut warm_rng = StdRng::seed_from_u64(0xE59);
    let cold_release = cold
        .release(&query, &database, budget, &mut cold_rng)
        .unwrap();
    let warm_release = warm
        .release(&query, &database, budget, &mut warm_rng)
        .unwrap();
    assert_eq!(
        warm.stats().misses,
        0,
        "the import must pre-empt calibration"
    );
    assert_eq!(cold_release.scale.to_bits(), warm_release.scale.to_bits());
    for (a, b) in cold_release.values.iter().zip(&warm_release.values) {
        assert_eq!(a.to_bits(), b.to_bits());
    }

    // The snapshot is keyed by the widened class: an engine built for a
    // *different* fitted class must refuse it rather than serve wrong noise.
    let other = engine_for(&fit(&two_state(0.5, 0.5), 0xE60).to_class().unwrap());
    assert!(matches!(
        other.import_snapshot(&snapshot),
        Err(PufferfishError::Snapshot(_))
    ));
}

/// The canary swap: tickets submitted around an engine swap are each
/// answered entirely by one calibration — every response's scale is
/// bitwise the old engine's scale or bitwise the new one's, never anything
/// else (a torn read would surface as a third value).
#[test]
fn in_flight_tickets_never_see_a_torn_calibration() {
    let old_truth = two_state(0.85, 0.7);
    let new_truth = two_state(0.45, 0.7);
    let old_fit = fit(&old_truth, 0xCA1);
    let query = StateFrequencyQuery::new(1, DB_LEN);
    let epsilon = 0.5;
    let budget = PrivacyBudget::new(epsilon).unwrap();

    let service = Arc::new(
        ReleaseService::start(
            engine_for(&old_fit.to_class().unwrap()),
            ServiceConfig {
                workers: Parallelism::Threads(4),
                queue_capacity: 2048,
                per_user_epsilon: 1e12,
            },
        )
        .unwrap(),
    );
    let monitor = ServiceMonitor::new(
        ClassBounds::from_fitted(&old_fit),
        MonitorConfig::default(),
        64 * 1024,
    );
    let monitored = MonitoredService::attach(
        Arc::clone(&service),
        monitor,
        Box::new(|class: &MarkovChainClass| Ok(engine_for(class))),
        Arc::new(StateFrequencyQuery::new(1, DB_LEN)),
        CanaryConfig {
            min_refit_events: 2048,
            // The canary key matches the serving key, so the swapped-in
            // engine is already warm for the in-flight traffic.
            canary_epsilon: epsilon,
            ..CanaryConfig::default()
        },
    )
    .unwrap();
    let old_scale = service
        .engine()
        .noise_scale_estimate(&query, budget)
        .unwrap();

    // Serve shifted traffic so the refit buffer holds the *new* regime.
    let mut rng = StdRng::seed_from_u64(0xCA2);
    for i in 0..60 {
        let database = pufferfish_markov::sample_trajectory(&new_truth, DB_LEN, &mut rng).unwrap();
        service
            .release(ReleaseRequest {
                user: format!("feeder-{}", i % 5),
                query: Arc::new(StateFrequencyQuery::new(1, DB_LEN)),
                database,
                epsilon,
                seed: 0xCA3 + i,
            })
            .unwrap();
    }

    // Queue a burst of tickets, swap mid-burst, queue a second burst.
    let database: Vec<usize> =
        pufferfish_markov::sample_trajectory(&new_truth, DB_LEN, &mut rng).unwrap();
    let submit = |seed: u64| {
        service
            .submit(ReleaseRequest {
                user: format!("burst-{}", seed % 7),
                query: Arc::new(StateFrequencyQuery::new(1, DB_LEN)),
                database: database.clone(),
                epsilon,
                seed,
            })
            .unwrap()
    };
    let mut tickets: Vec<_> = (0..512).map(submit).collect();
    let outcome = monitored.recalibrate().unwrap();
    tickets.extend((512..1024).map(submit));

    assert_eq!(outcome.old_scale.to_bits(), old_scale.to_bits());
    let new_scale = outcome.new_scale;
    assert_ne!(
        old_scale.to_bits(),
        new_scale.to_bits(),
        "the fixture needs distinguishable calibrations"
    );

    let mut served_old = 0usize;
    let mut served_new = 0usize;
    for ticket in tickets {
        let release = ticket.wait().unwrap();
        if release.scale.to_bits() == old_scale.to_bits() {
            served_old += 1;
        } else if release.scale.to_bits() == new_scale.to_bits() {
            served_new += 1;
        } else {
            panic!(
                "torn calibration: scale {} is neither old {} nor new {}",
                release.scale, old_scale, new_scale
            );
        }
    }
    assert_eq!(served_old + served_new, 1024);
    assert!(
        served_new >= 512,
        "tickets submitted after the swap must see the new calibration \
         (old {served_old}, new {served_new})"
    );
    let stats = service.stats();
    let monitor_stats = stats.monitor.expect("observer attached");
    assert_eq!(monitor_stats.recalibrations, 1);
    drop(monitored);
    Arc::try_unwrap(service)
        .map_err(|_| "another service handle is still alive")
        .unwrap()
        .shutdown();
}
