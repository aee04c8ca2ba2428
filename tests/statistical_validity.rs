//! Statistical validity harness: released noise must actually *follow* the
//! calibrated Laplace distribution — plus the drift suite that exercises the
//! same statistics as a *runtime* monitor.
//!
//! Every other test in this repository is deterministic — bitwise replay,
//! cache counters, typed errors. None of them would notice a mechanism that
//! reports scale `b` but samples from `Lap(b/2)` (or from a Gaussian, or
//! from a stream with the wrong sign bias): the privacy guarantee of every
//! theorem in the paper is conditional on the noise *being* `Lap(b)` for the
//! calibrated `b`. The sign/MAD/mean math lives in
//! [`pufferfish_monitor::testkit`] — one copy, shared with the runtime
//! [`ReleaseMonitor`](pufferfish_monitor::ReleaseMonitor) — and this suite
//! asserts it offline at the harness's historical tolerances (≈ 5.7σ / 6σ /
//! 5.7σ at 20 000 samples: 0.04 / 0.06 / 0.02).
//!
//! The RNG seeds are fixed, so the suite is fully deterministic: a failure
//! is a mechanism bug (or a tolerance bug), never flakiness.
//!
//! The **drift suite** at the bottom closes the remaining gap: a serving
//! pipeline calibrated against a fitted class must *notice* when the event
//! stream leaves that class. For two classes × two mechanism families
//! (MQMApprox and GK16) it checks that an injected mid-stream transition
//! shift trips the [`DriftDetector`](pufferfish_monitor::DriftDetector)
//! within a bounded window count, that an unshifted control stream ten
//! times longer never trips it, and that the canary recalibration restores
//! sign/MAD health afterwards.

use pufferfish_baselines::GroupDp;
use pufferfish_core::engine::{MqmExactCalibrator, ReleaseEngine};
use pufferfish_core::queries::{LipschitzQuery, StateCountQuery, StateFrequencyQuery};
use pufferfish_core::snapshot::{MechanismState, ScaleForm, ValidationForm};
use pufferfish_core::{
    Mechanism, MqmApprox, MqmApproxOptions, MqmExact, MqmExactOptions, PrivacyBudget,
    WassersteinMechanism,
};
use pufferfish_datasets::EventStream;
use pufferfish_markov::{
    estimate_class, ClassEstimationOptions, FittedClass, IntervalClassBuilder, MarkovChain,
    MarkovChainClass,
};
use pufferfish_monitor::testkit::{
    assert_laplace, evaluate_laplace, LaplaceTolerances, LaplaceVerdict, NoiseAccumulator,
    NoiseStats,
};
use pufferfish_monitor::{
    ClassBounds, DriftConfig, MonitoredStream, ReleaseMonitorConfig, StreamMonitorConfig,
};
use pufferfish_service::{
    BudgetAccountant, ContinualRelease, ProgressiveRelease, RefinementSchedule, RefinementStep,
    StreamBackend, StreamConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Samples per mechanism; [`LaplaceTolerances::harness`] at this size yields
/// the suite's historical 0.04 / 0.06 / 0.02 constants.
const SAMPLES: usize = 20_000;

/// Releases `query` on `database` `SAMPLES` times and folds the noise
/// (released − true, per coordinate) into summary statistics.
fn collect(
    mechanism: &dyn Mechanism,
    query: &dyn LipschitzQuery,
    database: &[usize],
    seed: u64,
) -> NoiseStats {
    let scale = mechanism.noise_scale_for(query);
    assert!(
        scale.is_finite() && scale > 0.0,
        "statistical checks need a positive calibrated scale, got {scale}"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut accumulator = NoiseAccumulator::new();
    for _ in 0..SAMPLES {
        let release = mechanism.release(query, database, &mut rng).unwrap();
        assert_eq!(release.scale.to_bits(), scale.to_bits());
        accumulator.push_release(&release, scale);
    }
    accumulator.stats(scale).expect("SAMPLES > 0")
}

/// The shared assertion at the harness's σ-multiples.
fn assert_harness(label: &str, stats: &NoiseStats) {
    assert_laplace(label, stats, &LaplaceTolerances::harness(stats.samples));
}

fn chain_class() -> MarkovChainClass {
    MarkovChainClass::singleton(
        MarkovChain::new(vec![0.6, 0.4], vec![vec![0.8, 0.2], vec![0.3, 0.7]]).unwrap(),
    )
}

fn binary_database(length: usize) -> Vec<usize> {
    (0..length).map(|t| (t * 5 + 1) % 7 % 2).collect()
}

#[test]
fn wasserstein_noise_follows_the_calibrated_scale() {
    let framework = pufferfish_core::flu::flu_clique_framework(3, &[0.5, 0.1, 0.1, 0.3]).unwrap();
    let query = StateCountQuery::new(1, 3);
    let budget = PrivacyBudget::new(1.0).unwrap();
    let mechanism = WassersteinMechanism::calibrate(&framework, &query, budget).unwrap();
    let stats = collect(&mechanism, &query, &[1, 0, 1], 0xA11CE);
    assert_harness("wasserstein", &stats);
}

#[test]
fn mqm_exact_noise_follows_the_calibrated_scale() {
    let budget = PrivacyBudget::new(1.0).unwrap();
    let mechanism =
        MqmExact::calibrate(&chain_class(), 60, budget, MqmExactOptions::default()).unwrap();
    let query = StateFrequencyQuery::new(1, 60);
    let stats = collect(&mechanism, &query, &binary_database(60), 0xB0B);
    assert_harness("mqm-exact", &stats);
}

#[test]
fn mqm_approx_noise_follows_the_calibrated_scale() {
    let class = IntervalClassBuilder::symmetric(0.4)
        .grid_points(2)
        .build()
        .unwrap();
    let budget = PrivacyBudget::new(0.5).unwrap();
    let mechanism = MqmApprox::calibrate(&class, 60, budget, MqmApproxOptions::default()).unwrap();
    let query = StateFrequencyQuery::new(0, 60);
    let stats = collect(&mechanism, &query, &binary_database(60), 0xCAB);
    assert_harness("mqm-approx", &stats);
}

#[test]
fn group_dp_noise_follows_the_calibrated_scale() {
    let budget = PrivacyBudget::new(1.0).unwrap();
    let mechanism = GroupDp::calibrate(60, budget).unwrap();
    let query = StateFrequencyQuery::new(1, 60);
    // L = 1/60, M = 60: the scale is exactly 1 at ε = 1 (the "GroupDP error
    // ≈ 1" remark under Figure 4).
    assert!((Mechanism::noise_scale_for(&mechanism, &query) - 1.0).abs() < 1e-12);
    let stats = collect(&mechanism, &query, &binary_database(60), 0xD0E);
    assert_harness("group-dp", &stats);
}

/// The gate on the calibration store: a warm-started engine's noise must be
/// statistically indistinguishable from a cold engine's — and producing it
/// must involve **zero** calibrations.
#[test]
fn imported_snapshot_noise_follows_the_calibrated_scale_without_calibrating() {
    let calibrator = || MqmExactCalibrator::new(chain_class(), 60, MqmExactOptions::default());
    let budget = PrivacyBudget::new(1.0).unwrap();
    let query = StateFrequencyQuery::new(1, 60);
    let database = binary_database(60);

    let cold = ReleaseEngine::new(calibrator());
    let cold_mechanism = cold.mechanism(&query, budget).unwrap();
    let snapshot = cold.export_snapshot();

    let warm = ReleaseEngine::new(calibrator());
    assert_eq!(warm.import_snapshot(&snapshot).unwrap(), 1);
    let warm_mechanism = warm.mechanism(&query, budget).unwrap();
    assert_eq!(warm.stats().misses, 0, "warm start must not calibrate");

    // Identical seed → bitwise-identical noise stream across the store.
    let mut cold_rng = StdRng::seed_from_u64(7);
    let mut warm_rng = StdRng::seed_from_u64(7);
    let cold_release = cold_mechanism
        .release(&query, &database, &mut cold_rng)
        .unwrap();
    let warm_release = warm_mechanism
        .release(&query, &database, &mut warm_rng)
        .unwrap();
    assert_eq!(cold_release.values, warm_release.values);

    // Fresh seed → the warm noise stands on its own statistically.
    let stats = collect(&*warm_mechanism, &query, &database, 0xF00D);
    assert_harness("imported mqm-exact", &stats);
    assert_eq!(warm.stats().misses, 0);
}

/// Control: the harness itself must *detect* a miscalibrated scale — a
/// mechanism releasing noise at half its reported scale gets a typed
/// [`LaplaceVerdict::Miscalibrated`] with the MAD ratio naming the lie.
#[test]
fn harness_detects_wrong_scales() {
    struct HalfScaleLier;

    /// Reports scale 2 at ε = 1.
    static REPORTED: MechanismState = MechanismState {
        family: "half-scale-lier",
        epsilon: 1.0,
        scale: ScaleForm::Fixed { scale: 2.0 },
        validation: ValidationForm::QueryLength,
    };

    impl Mechanism for HalfScaleLier {
        fn state(&self) -> &MechanismState {
            &REPORTED
        }
        fn release(
            &self,
            query: &dyn LipschitzQuery,
            database: &[usize],
            rng: &mut dyn rand::RngCore,
        ) -> pufferfish_core::Result<pufferfish_core::NoisyRelease> {
            // Samples at half the reported scale — the bug class this suite
            // exists to catch.
            let true_values = query.evaluate(database)?;
            let laplace = pufferfish_core::Laplace::new(1.0)?;
            let values = true_values
                .iter()
                .map(|v| v + laplace.sample(rng))
                .collect();
            Ok(pufferfish_core::NoisyRelease {
                values,
                true_values,
                scale: self.noise_scale_for(query),
            })
        }
    }

    let query = StateCountQuery::new(1, 3);
    let stats = collect(&HalfScaleLier, &query, &[1, 0, 1], 0xBAD);
    let verdict = evaluate_laplace(&stats, &LaplaceTolerances::harness(stats.samples));
    match verdict {
        LaplaceVerdict::Miscalibrated { mad_ratio, .. } => assert!(
            (mad_ratio - 0.5).abs() < 0.05,
            "the MAD ratio must expose the half-scale lie, got {mad_ratio}"
        ),
        LaplaceVerdict::Consistent => panic!("a half-scale mechanism must fail the MAD check"),
    }
}

// ---------------------------------------------------------------------------
// Anytime-bound suite: the certified error bounds on progressive releases.
// ---------------------------------------------------------------------------

/// Drives the same two-step progressive schedule `runs` times at distinct
/// seeds and collects, per step, the certified bound (identical across runs
/// — it is recomputed from the deterministic release scale) and every run's
/// realised sup-norm error.
fn collect_anytime(runs: usize) -> (f64, Vec<f64>, Vec<Vec<f64>>) {
    let class = IntervalClassBuilder::symmetric(0.4)
        .grid_points(2)
        .build()
        .unwrap();
    let confidence = 0.9;
    let schedule = RefinementSchedule::new(
        vec![
            RefinementStep {
                prefix: 4,
                epsilon: 0.5,
                error_bound: 16.0,
            },
            RefinementStep {
                prefix: 8,
                epsilon: 0.5,
                error_bound: 8.0,
            },
        ],
        confidence,
    )
    .unwrap();
    let database = binary_database(schedule.window());
    let mut certified = vec![f64::NAN; schedule.steps().len()];
    let mut sup_errors: Vec<Vec<f64>> = vec![Vec::with_capacity(runs); schedule.steps().len()];
    for run in 0..runs {
        let budget = BudgetAccountant::new(1e12).unwrap();
        let mut driver = ProgressiveRelease::begin(
            "anytime-coverage",
            &class,
            schedule.clone(),
            StreamBackend::MqmApprox,
            &budget,
            "coverage",
            run as u64,
        )
        .unwrap();
        let mut step = 0;
        for &event in &database {
            if let Some(update) = driver.push(event).unwrap() {
                let sup = update
                    .release
                    .values
                    .iter()
                    .zip(&update.release.true_values)
                    .map(|(v, t)| (v - t).abs())
                    .fold(0.0, f64::max);
                sup_errors[step].push(sup);
                if run == 0 {
                    certified[step] = update.certified_error;
                } else {
                    // The certified bound is a function of the calibrated
                    // scale alone, so it is bitwise-stable across seeds.
                    assert_eq!(update.certified_error.to_bits(), certified[step].to_bits());
                }
                step += 1;
            }
        }
        assert_eq!(step, schedule.steps().len(), "every step must release");
    }
    (confidence, certified, sup_errors)
}

/// Every intermediate (and final) estimate of a progressive release lands
/// within its certified error bound at the target confidence: over 20 000
/// seeded runs the empirical coverage of each step's bound must be at least
/// the schedule's confidence, minus a 6σ binomial slack — and the bound
/// must not be vacuous (some runs do exceed it).
#[test]
fn anytime_certified_bounds_cover_at_the_target_confidence() {
    let (confidence, certified, sup_errors) = collect_anytime(SAMPLES);
    // 6σ binomial slack at p = 0.9, n = 20 000.
    let slack = 6.0 * (confidence * (1.0 - confidence) / SAMPLES as f64).sqrt();
    for (step, errors) in sup_errors.iter().enumerate() {
        let bound = certified[step];
        assert!(bound.is_finite() && bound > 0.0);
        let covered = errors.iter().filter(|&&e| e <= bound).count() as f64 / errors.len() as f64;
        assert!(
            covered >= confidence - slack,
            "step {step}: certified bound {bound} covered only {covered:.4} \
             of runs (target {confidence})"
        );
        assert!(
            errors.iter().any(|&e| e > bound),
            "step {step}: a {confidence}-confidence bound that no run ever \
             exceeds in 20k samples is mis-certified (too loose)"
        );
    }
}

/// Control: the coverage harness itself must *detect* a wrong bound. A
/// deliberately-lying certification at a third of the true bound falls far
/// below the target confidence on the identical 20 000-run data — proving a
/// mis-certified driver could not slip past the test above.
#[test]
fn anytime_harness_detects_a_deliberately_wrong_bound() {
    let (confidence, certified, sup_errors) = collect_anytime(SAMPLES);
    for (step, errors) in sup_errors.iter().enumerate() {
        let lying_bound = certified[step] / 3.0;
        let covered =
            errors.iter().filter(|&&e| e <= lying_bound).count() as f64 / errors.len() as f64;
        assert!(
            covered < confidence - 0.05,
            "step {step}: a bound lying by 3× still covered {covered:.4} — \
             the harness would miss mis-certification"
        );
    }
}

// ---------------------------------------------------------------------------
// Drift suite: the runtime monitors over serving pipelines.
// ---------------------------------------------------------------------------

/// Two-state chain with the given per-state stay probabilities.
fn two_state(stay0: f64, stay1: f64) -> MarkovChain {
    MarkovChain::new(
        vec![0.5, 0.5],
        vec![vec![stay0, 1.0 - stay0], vec![1.0 - stay1, stay1]],
    )
    .unwrap()
}

/// Fits a confidence class from a long seeded trajectory of `truth`.
fn fit(truth: &MarkovChain, seed: u64) -> FittedClass {
    let log: Vec<usize> = EventStream::new(truth.clone(), seed).take(20_000).collect();
    estimate_class(&[log], 2, ClassEstimationOptions::default()).unwrap()
}

/// Events per drift window in the suite. At α = 1e-4 the per-row Hoeffding
/// slack is ≈ 0.10 at this size (≈ 512 visits per state row), so the ≥ 0.2
/// transition shifts injected below clear it with several σ of margin while
/// staying inside GK16's weak-correlation envelope.
const WINDOW: usize = 1024;

fn drift_config() -> DriftConfig {
    DriftConfig {
        window_events: WINDOW,
        alpha: 1e-4,
        consecutive: 2,
        min_row_visits: 16,
    }
}

/// A monitored continual-release pipeline calibrated against the fitted
/// class of `truth`, manual recalibration.
fn monitored_pipeline(
    truth: &MarkovChain,
    backend: StreamBackend,
    noise_window: u64,
    seed: u64,
) -> MonitoredStream {
    let fitted = fit(truth, seed);
    let stream = ContinualRelease::new(
        backend.name(),
        &fitted.to_class().unwrap(),
        StreamConfig {
            window: 64,
            slide: 32,
            epsilon_per_release: 0.5,
            stream_epsilon: 1e12,
            backend,
        },
    )
    .unwrap();
    MonitoredStream::new(
        stream,
        ClassBounds::from_fitted(&fitted),
        StreamMonitorConfig {
            noise: ReleaseMonitorConfig {
                window: noise_window,
                fp_budget: 1e-3,
            },
            drift: drift_config(),
            recent_capacity: 4096,
            min_refit_events: 2048,
            estimation: ClassEstimationOptions::default(),
            auto_recalibrate: false,
        },
    )
}

/// The positive case: a mid-stream transition shift must trip the detector
/// within a bounded number of windows, and the canary recalibration must
/// restore sign/MAD health on the shifted regime.
fn assert_shift_detected_and_recalibration_heals(
    truth: MarkovChain,
    shifted: MarkovChain,
    backend: StreamBackend,
    seed: u64,
) {
    let mut monitored = monitored_pipeline(&truth, backend, 256, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5151);
    // An in-class prefix: no complaint.
    for event in EventStream::new(truth, seed + 1).take(4 * WINDOW) {
        monitored.push(event, &mut rng).unwrap();
    }
    assert!(
        monitored.healthy(),
        "{}: in-class prefix must not trip",
        backend.name()
    );
    // The shift: bounded detection latency. The detector debounces over 2
    // consecutive windows, so 6 windows of budget is already generous.
    for event in EventStream::new(shifted.clone(), seed + 2).take(6 * WINDOW) {
        monitored.push(event, &mut rng).unwrap();
        if monitored.drifted() {
            break;
        }
    }
    assert!(
        monitored.drifted(),
        "{}: shift must trip within 6 windows",
        backend.name()
    );
    // Let the refit buffer fill with post-shift events (at trip time it
    // still blends both regimes), then run the canary recalibration: refit
    // on the recent window, swap the stream's mechanism, rebase monitors.
    for event in EventStream::new(shifted.clone(), seed + 4).take(4096) {
        monitored.push(event, &mut rng).unwrap();
    }
    let done = monitored.recalibrate().unwrap();
    assert!(done.old_scale > 0.0 && done.new_scale > 0.0);
    assert!(monitored.healthy(), "{}: rebase heals", backend.name());
    // Post-swap, the anchored sign/MAD test must pass on the new regime:
    // push enough events for several complete noise-test windows.
    for event in EventStream::new(shifted, seed + 3).take(16 * WINDOW) {
        monitored.push(event, &mut rng).unwrap();
    }
    let stats = monitored.monitor_stats();
    assert!(
        stats.noise_tests >= 1,
        "{}: the sequential noise test must have run post-swap (got {} tests)",
        backend.name(),
        stats.noise_tests
    );
    assert_eq!(
        stats.noise_failures,
        0,
        "{}: recalibration must restore sign/MAD health",
        backend.name()
    );
    assert!(
        monitored.healthy(),
        "{}: healthy on the shifted regime after recalibration",
        backend.name()
    );
    assert_eq!(stats.recalibrations, 1);
}

/// The negative control: an unshifted stream **ten times** the detection
/// budget must never trip the detector (α = 1e-4 per window, debounced over
/// 2 consecutive windows — a false trip would be a tolerance bug).
fn assert_control_never_trips(truth: MarkovChain, backend: StreamBackend, seed: u64) {
    let mut monitored = monitored_pipeline(&truth, backend, 4096, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0);
    for event in EventStream::new(truth, seed + 1).take(60 * WINDOW) {
        let step = monitored.push(event, &mut rng).unwrap();
        if let Some(verdict) = step.drift_verdict {
            assert!(
                !verdict.drifted,
                "{}: control stream tripped at window {} (score {})",
                backend.name(),
                verdict.window_index,
                verdict.score
            );
        }
    }
    let stats = monitored.monitor_stats();
    assert_eq!(stats.drift_windows, 60);
    assert!(!stats.drifted);
    assert_eq!(stats.recalibrations, 0);
}

#[test]
fn drift_sticky_class_mqm_approx_shift_detected() {
    assert_shift_detected_and_recalibration_heals(
        two_state(0.85, 0.7),
        two_state(0.45, 0.7),
        StreamBackend::MqmApprox,
        0x1001,
    );
}

#[test]
fn drift_mixing_class_mqm_approx_shift_detected() {
    assert_shift_detected_and_recalibration_heals(
        two_state(0.6, 0.55),
        two_state(0.3, 0.55),
        StreamBackend::MqmApprox,
        0x1002,
    );
}

// GK16 only calibrates over weakly correlated chains (its influence-matrix
// spectral norm must stay below 1), so its drift cases live near stay = 0.5
// and shift a different row per class.

#[test]
fn drift_row0_class_gk16_shift_detected() {
    assert_shift_detected_and_recalibration_heals(
        two_state(0.62, 0.5),
        two_state(0.38, 0.5),
        StreamBackend::Gk16,
        0x1003,
    );
}

#[test]
fn drift_row1_class_gk16_shift_detected() {
    assert_shift_detected_and_recalibration_heals(
        two_state(0.5, 0.62),
        two_state(0.5, 0.38),
        StreamBackend::Gk16,
        0x1004,
    );
}

#[test]
fn drift_control_sticky_class_mqm_approx_never_trips() {
    assert_control_never_trips(two_state(0.85, 0.7), StreamBackend::MqmApprox, 0x2001);
}

#[test]
fn drift_control_mixing_class_mqm_approx_never_trips() {
    assert_control_never_trips(two_state(0.6, 0.55), StreamBackend::MqmApprox, 0x2002);
}

#[test]
fn drift_control_row0_class_gk16_never_trips() {
    assert_control_never_trips(two_state(0.62, 0.5), StreamBackend::Gk16, 0x2003);
}

#[test]
fn drift_control_row1_class_gk16_never_trips() {
    assert_control_never_trips(two_state(0.5, 0.62), StreamBackend::Gk16, 0x2004);
}
