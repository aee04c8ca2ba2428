//! The progressive-release contract, swept: anytime delivery never changes
//! the answer, never mis-counts ε, and never loses a refund.
//!
//! Four properties over mechanisms × window sizes × schedule depths ×
//! seeds (and, in the concurrent tests, thread counts via
//! `PUFFERFISH_TEST_THREADS`):
//!
//! * **bitwise equivalence** — the final refinement of a driven
//!   [`ProgressiveRelease`] is bit-for-bit identical to the equivalent
//!   one-shot release of the full window at the same seed and total ε; the
//!   intermediate estimates draw from disjoint noise streams and cannot
//!   perturb it.
//! * **exact accounting** — the ε-spend visible through the updates is
//!   strictly monotone and the settled total equals the schedule's sum
//!   exactly (validation pins per-step ε bitwise-equal, so the Theorem 4.4
//!   composed guarantee *is* the sum).
//! * **exact refunds** — aborting mid-stream refunds precisely the
//!   unconsumed steps, the accountant retains exactly the consumed prefix,
//!   and replaying the attached ε-ledger reconstructs the live accountant
//!   **bitwise**, refunds included — even when many drivers run
//!   concurrently against one accountant.
//! * **one calibration per step** — every step, and the one-shot
//!   comparator, is bitwise the release of a fresh tumbling-window
//!   [`ContinualRelease`] (the reference construction), while drivers
//!   sharing one [`StreamBackend::engine`] calibrate each `(prefix, ε)`
//!   exactly once between them, however many race for it.

use std::sync::{Arc, Barrier};

use proptest::prelude::*;
use pufferfish_core::NoisyRelease;
use pufferfish_markov::{IntervalClassBuilder, MarkovChainClass};
use pufferfish_service::{
    audit_ledger, BudgetAccountant, ContinualRelease, ProgressiveRelease, RefinementSchedule,
    RefinementStep, ServiceError, StreamBackend, StreamConfig, WindowRelease,
};
use pufferfish_telemetry::EpsilonLedger;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Concurrent drivers in the threaded test: the CI matrix pins it via
/// `PUFFERFISH_TEST_THREADS`; 4 otherwise.
fn test_threads() -> usize {
    std::env::var("PUFFERFISH_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

fn chain_class() -> MarkovChainClass {
    IntervalClassBuilder::symmetric(0.4)
        .grid_points(2)
        .build()
        .unwrap()
}

/// A prefix-doubling schedule of `steps` steps ending at `window`, every
/// step at the same ε (bitwise, as validation requires).
fn ladder(window: usize, steps: usize, epsilon: f64) -> RefinementSchedule {
    let steps: Vec<RefinementStep> = (0..steps)
        .rev()
        .map(|j| RefinementStep {
            prefix: window >> j,
            epsilon,
            error_bound: (1u64 << j) as f64,
        })
        .collect();
    RefinementSchedule::new(steps, 0.9).unwrap()
}

fn backend_for(choice: u8) -> StreamBackend {
    if choice == 0 {
        StreamBackend::MqmApprox
    } else {
        StreamBackend::Gk16
    }
}

fn database(window: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDB);
    (0..window).map(|_| rng.gen_range(0..2usize)).collect()
}

fn assert_bitwise(a: &NoisyRelease, b: &NoisyRelease) {
    assert_eq!(a.scale.to_bits(), b.scale.to_bits());
    for (a, b) in [(&a.values, &b.values), (&a.true_values, &b.true_values)] {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

/// The reference construction: a fresh tumbling-window [`ContinualRelease`]
/// (window = slide = `prefix`, a stream budget of exactly one release) fed
/// the first `prefix` events, its noise drawn from `seed`.
fn reference_release(
    class: &MarkovChainClass,
    backend: StreamBackend,
    prefix: usize,
    epsilon: f64,
    seed: u64,
    events: &[usize],
) -> WindowRelease {
    let mut stream = ContinualRelease::new(
        "reference",
        class,
        StreamConfig {
            window: prefix,
            slide: prefix,
            epsilon_per_release: epsilon,
            stream_epsilon: epsilon,
            backend,
        },
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut released = None;
    for &event in &events[..prefix] {
        released = stream.push(event, &mut rng).unwrap();
    }
    released.expect("a full tumbling window releases exactly once")
}

/// The seed an intermediate step `step` (0-based) draws its noise from: a
/// splitmix64 finalizer over the raw seed and the step index. Restated here
/// so the reference pins the derivation too.
fn step_seed(seed: u64, step: usize) -> u64 {
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(step as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Feeds `events` through `driver` to completion, returning every update's
/// release.
fn drive(mut driver: ProgressiveRelease<'_>, events: &[usize]) -> Vec<NoisyRelease> {
    let releases: Vec<NoisyRelease> = events
        .iter()
        .filter_map(|&event| driver.push(event).unwrap())
        .map(|update| update.release)
        .collect();
    assert!(driver.is_complete());
    releases
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bitwise equivalence + exact accounting, across both stream backends,
    /// window sizes 8–32, schedule depths 1–3, ε choices and seeds.
    #[test]
    fn final_refinement_is_bitwise_equal_to_one_shot(
        backend_choice in 0u8..2,
        window_exp in 3u32..6,
        depth in 1usize..4,
        epsilon_choice in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let backend = backend_for(backend_choice);
        let window = 1usize << window_exp;
        let epsilon = [0.25, 0.5, 1.0][epsilon_choice];
        let class = chain_class();
        let schedule = ladder(window, depth, epsilon);
        let events = database(window, seed);

        let budget = BudgetAccountant::new(1e6).unwrap();
        let mut driver = ProgressiveRelease::begin(
            "prop-progressive", &class, schedule.clone(), backend, &budget, "prop", seed,
        ).unwrap();
        let mut updates = Vec::new();
        for &event in &events {
            if let Some(update) = driver.push(event).unwrap() {
                updates.push(update);
            }
        }
        prop_assert_eq!(updates.len(), depth);
        prop_assert!(updates.last().unwrap().is_final());

        // ε-spend is monotone along the stream and lands exactly on the
        // schedule's sum (which validation makes the composed guarantee).
        let spent: Vec<f64> = updates.iter().map(|u| u.spent_epsilon).collect();
        prop_assert!(spent.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(
            spent.last().unwrap().to_bits(),
            schedule.total_epsilon().to_bits()
        );
        prop_assert_eq!(
            driver.spent_epsilon().to_bits(),
            schedule.total_epsilon().to_bits()
        );

        // The comparator: one fresh release of the whole window at the raw
        // seed and the schedule's final ε. Bit-for-bit the same answer.
        let one_shot = ProgressiveRelease::one_shot(
            "prop-progressive", &class, &schedule, backend, seed, &events,
        ).unwrap();
        assert_bitwise(&updates.last().unwrap().release, &one_shot.release);

        // Intermediate estimates draw from disjoint noise streams: when the
        // schedule has a coarse step, its noise differs from the final's.
        if depth > 1 {
            prop_assert!(updates[0].release.values != one_shot.release.values);
        }
    }

    /// Aborting mid-stream refunds exactly the unconsumed steps and the
    /// ledger replays to the live accountant bitwise, refund included.
    #[test]
    fn abort_refunds_exactly_and_the_ledger_replays_bitwise(
        backend_choice in 0u8..2,
        depth in 2usize..4,
        consume in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let backend = backend_for(backend_choice);
        let consume = consume.min(depth - 1);
        let window = 16usize;
        let epsilon = 0.5;
        let class = chain_class();
        let schedule = ladder(window, depth, epsilon);
        let events = database(window, seed);

        let budget = Arc::new(BudgetAccountant::new(1e6).unwrap());
        let ledger = Arc::new(EpsilonLedger::new());
        budget.attach_ledger(Arc::clone(&ledger));

        let mut driver = ProgressiveRelease::begin(
            "prop-abort", &class, schedule.clone(), backend, &budget, "prop", seed,
        ).unwrap();
        prop_assert_eq!(budget.spent("prop"), schedule.total_epsilon());

        // Consume exactly `consume` refinements, then stop early.
        let mut seen = 0usize;
        for &event in &events {
            if seen == consume {
                break;
            }
            if driver.push(event).unwrap().is_some() {
                seen += 1;
            }
        }
        prop_assert_eq!(seen, consume);
        let refunded = driver.abort();
        prop_assert_eq!(refunded, depth - consume);
        prop_assert_eq!(driver.abort(), 0); // idempotent
        drop(driver); // the drop guard must not double-refund

        // The accountant retains exactly the consumed prefix of the
        // schedule: `consume` charges of one ε.
        let expected = consume as f64 * epsilon;
        prop_assert_eq!(budget.spent("prop").to_bits(), expected.to_bits());

        // Replaying the ledger reconstructs the live accountant bitwise —
        // the refund path is as auditable as the spend path.
        let report = audit_ledger(&ledger.to_bytes(), &budget).unwrap();
        prop_assert_eq!(report.total.to_bits(), budget.total_spent().to_bits());
    }
}

/// Many drivers against one shared accountant — completions and aborts
/// interleaved across `PUFFERFISH_TEST_THREADS` threads — still settle to
/// an exactly-auditable ledger, and every completed stream stays bitwise
/// equal to its one-shot comparator.
#[test]
fn concurrent_drivers_share_one_auditable_accountant() {
    let threads = test_threads();
    let class = chain_class();
    let budget = Arc::new(BudgetAccountant::new(1e6).unwrap());
    let ledger = Arc::new(EpsilonLedger::new());
    budget.attach_ledger(Arc::clone(&ledger));
    let window = 16usize;

    std::thread::scope(|scope| {
        for i in 0..threads {
            let class = &class;
            let budget = Arc::clone(&budget);
            scope.spawn(move || {
                let seed = 1000 + i as u64;
                let backend = backend_for((i % 2) as u8);
                let schedule = ladder(window, 2, 0.5);
                let events = database(window, seed);
                let user = format!("worker-{i}");
                let mut driver = ProgressiveRelease::begin(
                    "threaded-progressive",
                    class,
                    schedule.clone(),
                    backend,
                    &budget,
                    &user,
                    seed,
                )
                .unwrap();
                if i % 3 == 2 {
                    // Every third driver aborts before its first refinement.
                    assert_eq!(driver.abort(), 2);
                    return;
                }
                let mut last = None;
                for &event in &events {
                    if let Some(update) = driver.push(event).unwrap() {
                        last = Some(update);
                    }
                }
                let last = last.expect("the full window refines");
                assert!(last.is_final());
                let one_shot = ProgressiveRelease::one_shot(
                    "threaded-progressive",
                    class,
                    &schedule,
                    backend,
                    seed,
                    &events,
                )
                .unwrap();
                assert_eq!(last.release, one_shot.release);
                assert_eq!(
                    budget.spent(&user).to_bits(),
                    schedule.total_epsilon().to_bits()
                );
            });
        }
    });

    let report = audit_ledger(&ledger.to_bytes(), &budget).unwrap();
    assert_eq!(report.total.to_bits(), budget.total_spent().to_bits());
    // Aborted drivers retain nothing; completed ones retain their schedule.
    for i in 0..threads {
        let user = format!("worker-{i}");
        if i % 3 == 2 {
            assert_eq!(budget.spent(&user), 0.0, "{user} aborted everything");
        } else {
            assert!(budget.spent(&user) > 0.0, "{user} completed its stream");
        }
    }
}

/// Every step of a driver on a shared engine, and the one-shot comparator
/// on its private one, is bitwise the release of a fresh tumbling-window
/// `ContinualRelease` at the step's seed: both backends, power-of-two
/// prefixes and others, several ε and seeds. Later seeds are cache hits on
/// calibrations earlier ones made, so the counts are checked too.
#[test]
fn every_step_is_bitwise_a_fresh_tumbling_window_release() {
    let class = chain_class();
    let ladders: [&[usize]; 3] = [&[8, 16, 32], &[5, 12, 27], &[3, 10, 21, 45]];
    let epsilons = [0.3, 1.0, 2.5];
    let seeds = [3u64, 1 << 40, 987_654_321, u64::MAX];
    for backend in [StreamBackend::MqmApprox, StreamBackend::Gk16] {
        let engine = backend.engine(&class);
        for prefixes in ladders {
            for epsilon in epsilons {
                let steps = prefixes
                    .iter()
                    .enumerate()
                    .map(|(i, &prefix)| RefinementStep {
                        prefix,
                        epsilon,
                        error_bound: (prefixes.len() - i) as f64,
                    })
                    .collect();
                let schedule = RefinementSchedule::new(steps, 0.9).unwrap();
                let window = schedule.window();
                for seed in seeds {
                    let events = database(window, seed);
                    let budget = BudgetAccountant::new(1e6).unwrap();
                    let driver = ProgressiveRelease::begin_with(
                        "reference",
                        &class,
                        schedule.clone(),
                        backend,
                        Arc::clone(&engine),
                        &budget,
                        "ref",
                        seed,
                    )
                    .unwrap();
                    let releases = drive(driver, &events);
                    assert_eq!(releases.len(), prefixes.len());
                    for (i, (release, &prefix)) in releases.iter().zip(prefixes).enumerate() {
                        let seed = if prefix == window {
                            seed
                        } else {
                            step_seed(seed, i)
                        };
                        let reference =
                            reference_release(&class, backend, prefix, epsilon, seed, &events);
                        assert_bitwise(release, &reference.release);
                    }

                    let one_shot = ProgressiveRelease::one_shot(
                        "reference",
                        &class,
                        &schedule,
                        backend,
                        seed,
                        &events,
                    )
                    .unwrap();
                    let reference =
                        reference_release(&class, backend, window, epsilon, seed, &events);
                    assert_eq!(one_shot.window_end, reference.window_end);
                    assert_eq!(
                        one_shot.spent_epsilon.to_bits(),
                        reference.spent_epsilon.to_bits()
                    );
                    assert_bitwise(&one_shot.release, &reference.release);
                }
            }
        }
        // Each (prefix, ε) calibrated once; every other seed hit it.
        let distinct = (ladders.iter().map(|l| l.len()).sum::<usize>() * epsilons.len()) as u64;
        let stats = engine.stats();
        assert_eq!(stats.misses, distinct, "{}", backend.name());
        assert_eq!(
            stats.hits,
            (seeds.len() as u64 - 1) * distinct,
            "{}",
            backend.name()
        );
    }
}

/// `PUFFERFISH_TEST_THREADS` drivers released from a barrier race for the
/// same ladder on one shared engine: exactly one calibration per step, every
/// other release a hit, every final refinement bitwise its one-shot, and
/// the shared accountant holds exactly one schedule per driver.
#[test]
fn drivers_sharing_an_engine_calibrate_each_step_once() {
    let drivers = test_threads();
    let class = chain_class();
    let backend = StreamBackend::MqmApprox;
    let schedule = ladder(24, 3, 0.5);
    let steps = schedule.steps().len() as u64;
    let engine = backend.engine(&class);
    let budget = BudgetAccountant::new(1e6).unwrap();
    let barrier = Barrier::new(drivers);

    let finals: Vec<(u64, Vec<usize>, NoisyRelease)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..drivers)
            .map(|i| {
                let (class, schedule, engine) = (&class, &schedule, &engine);
                let (budget, barrier) = (&budget, &barrier);
                scope.spawn(move || {
                    let seed = 500 + i as u64;
                    let events = database(schedule.window(), seed);
                    barrier.wait();
                    let driver = ProgressiveRelease::begin_with(
                        "shared-engine",
                        class,
                        schedule.clone(),
                        backend,
                        Arc::clone(engine),
                        budget,
                        "analyst",
                        seed,
                    )
                    .unwrap();
                    let last = drive(driver, &events).pop().unwrap();
                    (seed, events, last)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let stats = engine.stats();
    assert_eq!(stats.misses, steps);
    assert_eq!(stats.hits, (drivers as u64 - 1) * steps);
    assert_eq!(engine.len() as u64, steps);
    for (seed, events, last) in &finals {
        let one_shot = ProgressiveRelease::one_shot(
            "shared-engine",
            &class,
            &schedule,
            backend,
            *seed,
            events,
        )
        .unwrap();
        assert_bitwise(last, &one_shot.release);
    }
    assert_eq!(
        budget.spent("analyst").to_bits(),
        (drivers as f64 * schedule.total_epsilon()).to_bits()
    );
}

/// A step the backend cannot calibrate (GK16 over a sticky class) fails
/// every racing driver with a typed error, caches nothing, and each
/// driver's drop guard refunds its whole schedule.
#[test]
fn a_step_that_cannot_calibrate_caches_nothing_and_refunds_everything() {
    let drivers = test_threads();
    let sticky = IntervalClassBuilder::symmetric(0.1)
        .grid_points(3)
        .build()
        .unwrap();
    let backend = StreamBackend::Gk16;
    let schedule = ladder(16, 2, 0.5);
    let engine = backend.engine(&sticky);
    let budget = BudgetAccountant::new(1e6).unwrap();
    let barrier = Barrier::new(drivers);

    std::thread::scope(|scope| {
        for i in 0..drivers {
            let (sticky, schedule, engine) = (&sticky, &schedule, &engine);
            let (budget, barrier) = (&budget, &barrier);
            scope.spawn(move || {
                let user = format!("sticky-{i}");
                let events = database(schedule.window(), i as u64);
                barrier.wait();
                let mut driver = ProgressiveRelease::begin_with(
                    "sticky",
                    sticky,
                    schedule.clone(),
                    backend,
                    Arc::clone(engine),
                    budget,
                    &user,
                    i as u64,
                )
                .unwrap();
                assert_eq!(budget.spent(&user), schedule.total_epsilon());
                let failure = events
                    .iter()
                    .find_map(|&event| driver.push(event).err())
                    .expect("the first step cannot calibrate");
                assert!(matches!(failure, ServiceError::Mechanism(_)), "{failure}");
                assert_eq!(driver.steps_completed(), 0);
                drop(driver);
                assert_eq!(budget.spent(&user), 0.0);
                assert_eq!(budget.releases(&user), 0);
            });
        }
    });

    assert_eq!(engine.len(), 0);
    assert_eq!(engine.stats().misses, 0);
    assert_eq!(budget.total_spent(), 0.0);
}
