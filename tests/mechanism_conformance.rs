//! Generic conformance suite for the unified [`Mechanism`] trait layer, run
//! against all seven implementors: the four core mechanisms (Wasserstein,
//! general Markov Quilt, MQMExact, MQMApprox) and the three baselines
//! (EntryDp, GroupDp, Gk16).
//!
//! Per implementor the suite checks:
//! * **calibrate-once / release-many determinism** — identical releases
//!   under a re-seeded RNG, and a mechanism that is immutable across
//!   releases;
//! * **batch vs. sequential equality** — `release_batch` consumes the same
//!   noise stream as a loop of `release` calls;
//! * **trait metadata coherence** — `name`/`epsilon`/`noise_scale_for`
//!   consistent with the release output, database validation enforced;
//! * **cache-hit equivalence** — an engine release after a warm-up is served
//!   from the cache (hit counter) and matches a cold calibration bit for
//!   bit;
//! * **parallel calibration equivalence** — serial and multi-threaded
//!   calibration produce bitwise-identical noise scales;
//! * **pinned calibration** — the Markov Quilt families' `σ_max` bits and
//!   quilt diagnostics match constants fixed across commits;
//! * **concrete-value calls** — called on the concrete types, as the paper
//!   reproductions call them, every family releases a zero-Lipschitz query
//!   exactly and refuses a short database.

use std::sync::Arc;

use pufferfish_baselines::{EntryDp, Gk16, GroupDp};
use pufferfish_bayesnet::{chain_quilts, Dag, DiscreteBayesianNetwork};
use pufferfish_core::engine::{
    FnCalibrator, MqmApproxCalibrator, MqmExactCalibrator, QuiltCalibrator, ReleaseEngine,
    WassersteinCalibrator,
};
use pufferfish_core::flu::flu_clique_framework;
use pufferfish_core::queries::{RelativeFrequencyHistogram, StateCountQuery};
use pufferfish_core::{
    LipschitzQuery, MarkovQuiltMechanism, Mechanism, MqmApprox, MqmApproxOptions, MqmExact,
    MqmExactOptions, NoisyRelease, Parallelism, PrivacyBudget, PufferfishError,
    QuiltMechanismOptions, WassersteinMechanism,
};
use pufferfish_markov::{IntervalClassBuilder, MarkovChain, MarkovChainClass};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CHAIN_LENGTH: usize = 120;

fn budget() -> PrivacyBudget {
    PrivacyBudget::new(1.0).unwrap()
}

fn running_class() -> MarkovChainClass {
    MarkovChainClass::from_chains(vec![
        MarkovChain::new(vec![1.0, 0.0], vec![vec![0.9, 0.1], vec![0.4, 0.6]]).unwrap(),
        MarkovChain::new(vec![0.9, 0.1], vec![vec![0.8, 0.2], vec![0.3, 0.7]]).unwrap(),
    ])
    .unwrap()
}

fn chain_database(length: usize) -> Vec<usize> {
    (0..length).map(|t| (t / 7) % 2).collect()
}

fn quilt_network(len: usize) -> DiscreteBayesianNetwork {
    chain_network(len, [0.8, 0.2], [[0.9, 0.1], [0.4, 0.6]])
}

fn chain_network(
    len: usize,
    initial: [f64; 2],
    transition: [[f64; 2]; 2],
) -> DiscreteBayesianNetwork {
    let dag = Dag::chain(len);
    let mut net = DiscreteBayesianNetwork::new(dag, vec![2; len]).unwrap();
    net.set_cpd(0, vec![initial.to_vec()]).unwrap();
    for node in 1..len {
        net.set_cpd(node, transition.iter().map(|row| row.to_vec()).collect())
            .unwrap();
    }
    net
}

fn wasserstein() -> WassersteinMechanism {
    let framework = flu_clique_framework(4, &[0.1, 0.15, 0.5, 0.15, 0.1]).unwrap();
    WassersteinMechanism::calibrate(&framework, &StateCountQuery::new(1, 4), budget()).unwrap()
}

fn markov_quilt() -> MarkovQuiltMechanism {
    let candidates: Vec<_> = (0..6)
        .map(|node| chain_quilts(6, node, 6).unwrap())
        .collect();
    MarkovQuiltMechanism::calibrate(
        &[quilt_network(6)],
        budget(),
        QuiltMechanismOptions {
            quilt_candidates: Some(candidates),
            ..Default::default()
        },
    )
    .unwrap()
}

fn mqm_exact() -> MqmExact {
    MqmExact::calibrate(
        &running_class(),
        CHAIN_LENGTH,
        budget(),
        MqmExactOptions::default(),
    )
    .unwrap()
}

fn mqm_approx() -> MqmApprox {
    MqmApprox::calibrate(
        &running_class(),
        CHAIN_LENGTH,
        budget(),
        MqmApproxOptions::default(),
    )
    .unwrap()
}

fn entry_dp() -> EntryDp {
    let histogram = RelativeFrequencyHistogram::new(2, CHAIN_LENGTH).unwrap();
    EntryDp::for_query(&histogram, budget()).unwrap()
}

fn group_dp() -> GroupDp {
    GroupDp::calibrate(CHAIN_LENGTH, budget()).unwrap()
}

/// Gk16 on a weakly correlated class where it applies.
fn gk16() -> Gk16 {
    let weak = MarkovChainClass::singleton(
        MarkovChain::new(vec![0.5, 0.5], vec![vec![0.55, 0.45], vec![0.45, 0.55]]).unwrap(),
    );
    Gk16::calibrate(&weak, CHAIN_LENGTH, budget()).unwrap()
}

/// Every implementor paired with a query + database it can release.
#[allow(clippy::type_complexity)]
fn all_mechanisms() -> Vec<(Box<dyn Mechanism>, Box<dyn LipschitzQuery>, Vec<usize>)> {
    let histogram = || Box::new(RelativeFrequencyHistogram::new(2, CHAIN_LENGTH).unwrap());
    vec![
        // Wasserstein Mechanism on the 4-person flu clique.
        (
            Box::new(wasserstein()),
            Box::new(StateCountQuery::new(1, 4)),
            vec![1, 0, 1, 0],
        ),
        // General Markov Quilt Mechanism on a 6-node chain network.
        (
            Box::new(markov_quilt()),
            Box::new(StateCountQuery::new(1, 6)),
            vec![0, 1, 1, 0, 0, 1],
        ),
        // MQMExact and MQMApprox over the running-example class.
        (
            Box::new(mqm_exact()),
            histogram(),
            chain_database(CHAIN_LENGTH),
        ),
        (
            Box::new(mqm_approx()),
            histogram(),
            chain_database(CHAIN_LENGTH),
        ),
        // The three baselines.
        (
            Box::new(entry_dp()),
            histogram(),
            chain_database(CHAIN_LENGTH),
        ),
        (
            Box::new(group_dp()),
            histogram(),
            chain_database(CHAIN_LENGTH),
        ),
        (Box::new(gk16()), histogram(), chain_database(CHAIN_LENGTH)),
    ]
}

#[test]
fn trait_metadata_is_coherent_for_all_implementors() {
    let expected_names = [
        "wasserstein",
        "markov-quilt",
        "mqm-exact",
        "mqm-approx",
        "entry-dp",
        "group-dp",
        "gk16",
    ];
    let mechanisms = all_mechanisms();
    assert_eq!(mechanisms.len(), expected_names.len());
    for ((mechanism, query, database), expected) in mechanisms.iter().zip(expected_names) {
        assert_eq!(mechanism.name(), expected);
        assert_eq!(mechanism.epsilon(), 1.0);
        let scale = mechanism.noise_scale_for(query.as_ref());
        assert!(
            scale.is_finite() && scale > 0.0,
            "{expected}: bad scale {scale}"
        );
        let mut rng = StdRng::seed_from_u64(11);
        let release = mechanism
            .release(query.as_ref(), database, &mut rng)
            .unwrap();
        assert_eq!(release.scale, scale, "{expected}");
        assert_eq!(release.values.len(), query.output_dimension(), "{expected}");
        assert_eq!(
            release.true_values,
            query.evaluate(database).unwrap(),
            "{expected}"
        );
        // Database validation is enforced through the trait.
        assert!(
            mechanism
                .release(query.as_ref(), &database[..database.len() - 1], &mut rng)
                .is_err(),
            "{expected}: accepted short database"
        );
    }
}

#[test]
fn calibrate_once_release_many_is_deterministic_under_seeded_rng() {
    for (mechanism, query, database) in all_mechanisms() {
        // Same seed => identical noise, across repeated use of the same
        // calibrated mechanism (release must not mutate the mechanism).
        let mut first_run = Vec::new();
        let mut rng = StdRng::seed_from_u64(2024);
        for _ in 0..5 {
            first_run.push(
                mechanism
                    .release(query.as_ref(), &database, &mut rng)
                    .unwrap(),
            );
        }
        let mut rng = StdRng::seed_from_u64(2024);
        for previous in &first_run {
            let replay = mechanism
                .release(query.as_ref(), &database, &mut rng)
                .unwrap();
            assert_eq!(replay.values, previous.values, "{}", mechanism.name());
            assert_eq!(replay.scale, previous.scale, "{}", mechanism.name());
        }
    }
}

#[test]
fn batch_release_equals_sequential_release() {
    for (mechanism, query, database) in all_mechanisms() {
        let databases: Vec<Vec<usize>> = (0..4)
            .map(|shift| {
                let mut db = database.clone();
                let rotation = shift % db.len().max(1);
                db.rotate_left(rotation);
                db
            })
            .collect();

        let mut rng = StdRng::seed_from_u64(99);
        let batched = mechanism
            .release_batch(query.as_ref(), &databases, &mut rng)
            .unwrap();

        let mut rng = StdRng::seed_from_u64(99);
        let sequential: Vec<_> = databases
            .iter()
            .map(|db| mechanism.release(query.as_ref(), db, &mut rng).unwrap())
            .collect();

        assert_eq!(batched.len(), sequential.len());
        for (a, b) in batched.iter().zip(&sequential) {
            assert_eq!(a.values, b.values, "{}", mechanism.name());
            assert_eq!(a.true_values, b.true_values, "{}", mechanism.name());
        }
    }
}

#[test]
fn engine_cache_hits_match_cold_calibration_for_every_calibrator() {
    let histogram = RelativeFrequencyHistogram::new(2, CHAIN_LENGTH).unwrap();
    let count4 = StateCountQuery::new(1, 4);
    let framework = flu_clique_framework(4, &[0.1, 0.15, 0.5, 0.15, 0.1]).unwrap();

    // Engines over every calibrator family (core mechanisms get concrete
    // calibrators, baselines go through FnCalibrator).
    let weak = MarkovChainClass::singleton(
        MarkovChain::new(vec![0.5, 0.5], vec![vec![0.55, 0.45], vec![0.45, 0.55]]).unwrap(),
    );
    let weak_for_fn = weak.clone();
    let engines: Vec<(ReleaseEngine, Box<dyn LipschitzQuery>, Vec<usize>)> = vec![
        (
            ReleaseEngine::new(WassersteinCalibrator::new(
                framework.clone(),
                Parallelism::default(),
            )),
            Box::new(count4),
            vec![1, 0, 1, 0],
        ),
        (
            ReleaseEngine::new(MqmExactCalibrator::new(
                running_class(),
                CHAIN_LENGTH,
                MqmExactOptions::default(),
            )),
            Box::new(histogram.clone()),
            chain_database(CHAIN_LENGTH),
        ),
        (
            ReleaseEngine::new(MqmApproxCalibrator::new(
                running_class(),
                CHAIN_LENGTH,
                MqmApproxOptions::default(),
            )),
            Box::new(histogram.clone()),
            chain_database(CHAIN_LENGTH),
        ),
        (
            ReleaseEngine::new(QuiltCalibrator::new(
                vec![quilt_network(6)],
                QuiltMechanismOptions::default(),
            )),
            Box::new(StateCountQuery::new(1, 6)),
            vec![0, 1, 1, 0, 0, 1],
        ),
        (
            ReleaseEngine::new(FnCalibrator::new("gk16", 7, move |_q, budget| {
                Ok(
                    Arc::new(Gk16::calibrate(&weak_for_fn, CHAIN_LENGTH, budget)?)
                        as Arc<dyn Mechanism>,
                )
            })),
            Box::new(histogram.clone()),
            chain_database(CHAIN_LENGTH),
        ),
    ];

    for (engine, query, database) in engines {
        let mut rng = StdRng::seed_from_u64(5);
        // Cold: calibrates.
        let first = engine
            .release(query.as_ref(), &database, budget(), &mut rng)
            .unwrap();
        assert_eq!(engine.stats().misses, 1, "{}", engine.kind());
        assert_eq!(engine.stats().hits, 0, "{}", engine.kind());

        // Warm: second release with the same (class, epsilon, query) skips
        // recalibration — asserted via the hit counter.
        let second = engine
            .release(query.as_ref(), &database, budget(), &mut rng)
            .unwrap();
        assert_eq!(engine.stats().misses, 1, "{}", engine.kind());
        assert_eq!(engine.stats().hits, 1, "{}", engine.kind());

        // The cached mechanism is equivalent to a cold calibration: same
        // scale bit for bit.
        assert_eq!(
            first.scale.to_bits(),
            second.scale.to_bits(),
            "{}",
            engine.kind()
        );
        let cached = engine.mechanism(query.as_ref(), budget()).unwrap();
        assert_eq!(
            cached.noise_scale_for(query.as_ref()).to_bits(),
            first.scale.to_bits(),
            "{}",
            engine.kind()
        );
    }
}

#[test]
fn parallel_calibration_is_bitwise_identical_to_serial() {
    let policies = [
        Parallelism::Serial,
        Parallelism::Threads(2),
        Parallelism::Threads(4),
        Parallelism::Auto,
    ];

    // Wasserstein.
    let framework = flu_clique_framework(5, &[0.05, 0.15, 0.3, 0.3, 0.15, 0.05]).unwrap();
    let count = StateCountQuery::new(1, 5);
    let reference =
        WassersteinMechanism::calibrate_with(&framework, &count, budget(), Parallelism::Serial)
            .unwrap();
    for policy in policies {
        let candidate =
            WassersteinMechanism::calibrate_with(&framework, &count, budget(), policy).unwrap();
        assert_eq!(
            candidate.wasserstein_parameter().to_bits(),
            reference.wasserstein_parameter().to_bits()
        );
        assert_eq!(candidate.worst_case(), reference.worst_case());
    }

    // MQMExact (multi-theta class: parallelism across theta; singleton:
    // parallelism across nodes).
    for class in [
        running_class(),
        MarkovChainClass::singleton(running_class().chains()[0].clone()),
    ] {
        let reference = MqmExact::calibrate(
            &class,
            CHAIN_LENGTH,
            budget(),
            MqmExactOptions {
                parallelism: Parallelism::Serial,
                ..Default::default()
            },
        )
        .unwrap();
        for policy in policies {
            let candidate = MqmExact::calibrate(
                &class,
                CHAIN_LENGTH,
                budget(),
                MqmExactOptions {
                    parallelism: policy,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(
                candidate.sigma_max().to_bits(),
                reference.sigma_max().to_bits()
            );
            assert_eq!(candidate.selections(), reference.selections());
        }
    }

    // MQMApprox (full search so the node loop actually parallelises).
    let options = |policy| MqmApproxOptions {
        strategy: pufferfish_core::QuiltSearchStrategy::Full { max_width: None },
        parallelism: policy,
        ..Default::default()
    };
    let reference = MqmApprox::calibrate(
        &running_class(),
        CHAIN_LENGTH,
        budget(),
        options(Parallelism::Serial),
    )
    .unwrap();
    for policy in policies {
        let candidate =
            MqmApprox::calibrate(&running_class(), CHAIN_LENGTH, budget(), options(policy))
                .unwrap();
        assert_eq!(
            candidate.sigma_max().to_bits(),
            reference.sigma_max().to_bits()
        );
        assert_eq!(candidate.worst_node(), reference.worst_node());
        assert_eq!(candidate.best_quilt(), reference.best_quilt());
    }

    // General Markov Quilt Mechanism.
    let net = quilt_network(8);
    let candidates: Vec<_> = (0..8)
        .map(|node| chain_quilts(8, node, 8).unwrap())
        .collect();
    let quilt_options = |policy| QuiltMechanismOptions {
        quilt_candidates: Some(candidates.clone()),
        parallelism: policy,
    };
    let reference = MarkovQuiltMechanism::calibrate(
        std::slice::from_ref(&net),
        budget(),
        quilt_options(Parallelism::Serial),
    )
    .unwrap();
    for policy in policies {
        let candidate = MarkovQuiltMechanism::calibrate(
            std::slice::from_ref(&net),
            budget(),
            quilt_options(policy),
        )
        .unwrap();
        assert_eq!(
            candidate.sigma_max().to_bits(),
            reference.sigma_max().to_bits()
        );
    }
}

/// `σ_max` bits and every calibration diagnostic, pinned so that a change to
/// the quilt searches cannot move them unnoticed. The constants come from
/// the build before the three searches shared one scorer.
#[test]
fn calibrated_sigma_bits_are_pinned() {
    use pufferfish_core::ChainQuiltShape::{RightOnly, TwoSided};
    use pufferfish_core::QuiltSearchStrategy::{Auto, Full};

    // (class, ε, MQMExact σ bits, MQMExact (node, shape, score bits) per θ,
    // MQMApprox (σ bits, worst node, best quilt) under Auto and Full).
    let chain_pins = [
        (
            running_class(),
            1.0,
            0x402a_0b39_8e76_36d0_u64,
            vec![
                (8, TwoSided { a: 5, b: 5 }, 0x402a_0b39_8e76_36d0_u64),
                (6, RightOnly { b: 4 }, 0x4025_47c7_5fde_4567),
            ],
            [
                (0x4037_8186_4810_bdce_u64, 50, TwoSided { a: 11, b: 10 }),
                (0x4037_8186_4810_bdce, 13, TwoSided { a: 11, b: 10 }),
            ],
        ),
        (
            // The benchmark's analyst class.
            IntervalClassBuilder::symmetric(0.4)
                .grid_points(2)
                .build()
                .unwrap(),
            0.05,
            0x4065_5e15_f648_d0a0,
            vec![
                (5, RightOnly { b: 4 }, 0x4065_5e15_f648_d0a0),
                (1, RightOnly { b: 1 }, 0x4034_0000_0000_0000),
                (1, RightOnly { b: 1 }, 0x4034_0000_0000_0000),
                (5, RightOnly { b: 4 }, 0x4065_5e15_f648_d0a0),
            ],
            [
                (0x407a_3757_34d8_9802, 50, TwoSided { a: 10, b: 9 }),
                (0x407a_3757_34d8_9802, 12, TwoSided { a: 10, b: 9 }),
            ],
        ),
    ];
    for (class, epsilon, exact_sigma, exact_selections, approx_pins) in chain_pins {
        let budget = PrivacyBudget::new(epsilon).unwrap();
        let exact = MqmExact::calibrate(&class, 100, budget, MqmExactOptions::default()).unwrap();
        assert_eq!(
            exact.sigma_max().to_bits(),
            exact_sigma,
            "MQMExact at ε {epsilon}"
        );
        let selections: Vec<_> = exact
            .selections()
            .iter()
            .enumerate()
            .map(|(theta, s)| {
                assert_eq!(s.theta_index, theta);
                (s.node, s.shape, s.score.to_bits())
            })
            .collect();
        assert_eq!(selections, exact_selections, "MQMExact at ε {epsilon}");

        for (strategy, pin) in [Auto, Full { max_width: None }]
            .into_iter()
            .zip(approx_pins)
        {
            let options = MqmApproxOptions {
                strategy,
                ..Default::default()
            };
            let approx = MqmApprox::calibrate(&class, 100, budget, options).unwrap();
            let diagnostics = (
                approx.sigma_max().to_bits(),
                approx.worst_node(),
                approx.best_quilt(),
            );
            assert_eq!(diagnostics, pin, "MQMApprox {strategy:?} at ε {epsilon}");
        }
    }

    // MQMExact's stationary shortcut (a stationary start searched at the
    // middle node only, evaluated at virtual indices) and a full node
    // search of the same 8-state chain: ((T, width cap, middle only), ε,
    // σ bits, (worst node, a, b) of its winning two-sided quilt). The class
    // is a singleton, so the node's score is σ.
    let rows: Vec<Vec<f64>> = (0..8)
        .map(|i| {
            let mut row = [0.05 / 5.0; 8];
            row[i] = 0.6;
            row[(i + 1) % 8] = 0.25;
            row[(i + 7) % 8] = 0.1;
            let sum = row.iter().sum::<f64>();
            row.iter().map(|p| p / sum).collect()
        })
        .collect();
    let stationary =
        MarkovChainClass::singleton(MarkovChain::with_stationary_initial(rows).unwrap());
    for ((length, cap, middle), epsilon, sigma, (node, a, b)) in [
        ((400, 80, true), 0.5, 0x405c_bc8b_bca7_52d7, (200, 23, 23)),
        ((400, 80, true), 1.0, 0x4048_0dcd_584e_4ac2, (200, 20, 20)),
        ((400, 80, true), 3.0, 0x4025_4864_a910_72ea, (200, 10, 10)),
        ((60, 30, false), 1.0, 0x404a_1c51_c657_877c, (19, 15, 16)),
    ] {
        let options = MqmExactOptions {
            max_quilt_width: Some(cap),
            search_middle_only: middle,
            ..Default::default()
        };
        let budget = PrivacyBudget::new(epsilon).unwrap();
        let exact = MqmExact::calibrate(&stationary, length, budget, options).unwrap();
        let selection = exact.selections()[0];
        assert_eq!(
            (
                exact.sigma_max().to_bits(),
                selection.node,
                selection.shape,
                selection.score.to_bits()
            ),
            (sigma, node, TwoSided { a, b }, sigma),
            "MQMExact on the stationary chain at T {length}, ε {epsilon}"
        );
    }

    // The general mechanism on a weakly correlated 5-node chain, with every
    // chain quilt as a candidate: (quilt, influence bits, score bits).
    let net = chain_network(5, [0.6, 0.4], [[0.55, 0.45], [0.4, 0.6]]);
    let candidates = (0..5).map(|node| chain_quilts(5, node, 5).unwrap());
    let options = QuiltMechanismOptions {
        quilt_candidates: Some(candidates.collect()),
        ..Default::default()
    };
    let general = MarkovQuiltMechanism::calibrate(&[net], budget(), options).unwrap();
    let per_node: Vec<_> = general
        .per_node()
        .iter()
        .enumerate()
        .map(|(node, c)| {
            assert_eq!(c.node, node);
            (
                c.quilt.quilt().to_vec(),
                c.max_influence.to_bits(),
                c.score.to_bits(),
            )
        })
        .collect();
    let pinned = vec![
        (
            vec![1],
            0x3fd4_618b_c21c_5ebd_u64,
            0x3ff7_79dd_0a04_724e_u64,
        ),
        (vec![0, 2], 0x3fe4_e689_ba7f_9f50, 0x4007_106e_4ef3_3339),
        (vec![1, 3], 0x3fe4_01d5_7027_3015, 0x4005_5898_636f_1ca3),
        (vec![2, 4], 0x3fe4_532f_6094_95f6, 0x4005_ed55_767c_6ee7),
        (vec![3], 0x3fd4_5d3c_cbbf_6e71, 0x3ff7_778b_a563_d1e7),
    ];
    assert_eq!(per_node, pinned, "general mechanism");
    assert_eq!(general.sigma_max().to_bits(), 0x4007_106e_4ef3_3339);

    // GK16 on the benchmark's analyst class at T 100: the noise multiplier
    // `1 / (1 − ‖I‖₂)` and the spectral norm, neither of which depends on ε.
    let analyst = IntervalClassBuilder::symmetric(0.4)
        .grid_points(2)
        .build()
        .unwrap();
    for epsilon in [0.05, 1.0] {
        let gk16 = Gk16::calibrate(&analyst, 100, PrivacyBudget::new(epsilon).unwrap()).unwrap();
        assert_eq!(
            (gk16.inflation().to_bits(), gk16.spectral_norm().to_bits()),
            (0x4015_1cc6_c59c_8f64, 0x3fe9_efed_4b10_4615),
            "GK16 at ε {epsilon}"
        );
    }
}

#[test]
fn degenerate_class_parameters_yield_typed_errors() {
    use pufferfish_core::PufferfishError;

    // pi_min on/below the boundary.
    for (pi_min, eigengap) in [
        (0.0, 0.5),
        (-0.1, 0.5),
        (f64::NAN, 0.5),
        (0.3, 0.0),
        (0.3, -1.0),
        (0.3, f64::NAN),
        (0.3, 1e-15),
        (1e-15, 0.5),
    ] {
        let result = MqmApprox::calibrate_from_parameters(
            pi_min,
            eigengap,
            2,
            100,
            budget(),
            MqmApproxOptions::default(),
        );
        match result {
            Err(PufferfishError::DegenerateClass { .. }) => {}
            other => panic!("({pi_min}, {eigengap}): expected DegenerateClass, got {other:?}"),
        }
    }

    // Well-inside-the-region parameters still calibrate.
    assert!(MqmApprox::calibrate_from_parameters(
        0.3,
        0.5,
        2,
        100,
        budget(),
        MqmApproxOptions::default()
    )
    .is_ok());
}

/// Counts the events in state 1 with a chosen Lipschitz constant. Unlike
/// every built-in query, its `evaluate` accepts a database of any length,
/// so only the mechanism's own validation can refuse a short one.
struct AnyLengthCount {
    lipschitz: f64,
    length: usize,
}

impl LipschitzQuery for AnyLengthCount {
    fn lipschitz_constant(&self) -> f64 {
        self.lipschitz
    }
    fn output_dimension(&self) -> usize {
        1
    }
    fn expected_length(&self) -> usize {
        self.length
    }
    fn evaluate(&self, database: &[usize]) -> pufferfish_core::Result<Vec<f64>> {
        Ok(vec![database.iter().filter(|&&s| s == 1).count() as f64])
    }
    fn name(&self) -> &str {
        "any-length-count"
    }
}

/// A family answers a call the same way however the caller holds it: the
/// calls below go to the concrete values with a `StdRng`, as the paper
/// reproductions in `crates/bench` make them, and must behave like the
/// trait-object calls above.
///
/// A zero-Lipschitz query owes no noise under every `L`-rescaled family:
/// the release is exact, at scale 0.
#[test]
fn concrete_values_release_a_zero_lipschitz_query_exactly() {
    fn assert_exact(family: &str, release: pufferfish_core::Result<NoisyRelease>) {
        let release = release.unwrap_or_else(|e| panic!("{family}: {e}"));
        assert_eq!(release.scale, 0.0, "{family}");
        assert_eq!(release.values, release.true_values, "{family}");
    }
    let mut rng = StdRng::seed_from_u64(3);
    let chain = AnyLengthCount {
        lipschitz: 0.0,
        length: CHAIN_LENGTH,
    };
    let database = chain_database(CHAIN_LENGTH);
    let nodes = AnyLengthCount {
        lipschitz: 0.0,
        length: 6,
    };
    assert_exact(
        "markov-quilt",
        markov_quilt().release(&nodes, &[0, 1, 1, 0, 0, 1], &mut rng),
    );
    assert_exact(
        "mqm-exact",
        mqm_exact().release(&chain, &database, &mut rng),
    );
    assert_exact(
        "mqm-approx",
        mqm_approx().release(&chain, &database, &mut rng),
    );
    assert_exact("group-dp", group_dp().release(&chain, &database, &mut rng));
    assert_exact("gk16", gk16().release(&chain, &database, &mut rng));
}

/// Every family refuses a database one event short, even when the query
/// would evaluate it.
#[test]
fn concrete_values_refuse_a_database_one_event_short() {
    fn assert_refused(family: &str, release: pufferfish_core::Result<NoisyRelease>) {
        assert!(
            matches!(release, Err(PufferfishError::InvalidDatabase(_))),
            "{family}: expected InvalidDatabase, got {release:?}"
        );
    }
    let mut rng = StdRng::seed_from_u64(4);
    let query = |length| AnyLengthCount {
        lipschitz: 1.0 / length as f64,
        length,
    };
    let (chain, flu, nodes) = (query(CHAIN_LENGTH), query(4), query(6));
    let short = &chain_database(CHAIN_LENGTH)[1..];
    assert_refused(
        "wasserstein",
        wasserstein().release(&flu, &[0, 1, 0], &mut rng),
    );
    assert_refused(
        "markov-quilt",
        markov_quilt().release(&nodes, &[0, 1, 1, 0, 0], &mut rng),
    );
    assert_refused("mqm-exact", mqm_exact().release(&chain, short, &mut rng));
    assert_refused("mqm-approx", mqm_approx().release(&chain, short, &mut rng));
    assert_refused("entry-dp", entry_dp().release(&chain, short, &mut rng));
    assert_refused("group-dp", group_dp().release(&chain, short, &mut rng));
    assert_refused("gk16", gk16().release(&chain, short, &mut rng));
}
