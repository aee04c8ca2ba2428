//! The progressive-release contract, swept: anytime delivery never changes
//! the answer, never mis-counts ε, and never loses a refund.
//!
//! Three properties over mechanisms × window sizes × schedule depths ×
//! seeds (and, in the concurrent test, thread counts via
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

use std::sync::Arc;

use proptest::prelude::*;
use pufferfish_markov::{IntervalClassBuilder, MarkovChainClass};
use pufferfish_service::{
    audit_ledger, BudgetAccountant, ProgressiveRelease, RefinementSchedule, RefinementStep,
    StreamBackend,
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

fn assert_bitwise(a: &pufferfish_core::NoisyRelease, b: &pufferfish_core::NoisyRelease) {
    assert_eq!(a.scale.to_bits(), b.scale.to_bits());
    assert_eq!(a.values.len(), b.values.len());
    for (x, y) in a.values.iter().zip(&b.values) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
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
