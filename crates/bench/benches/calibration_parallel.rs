//! Serial vs. parallel calibration wall-clock comparison across chain
//! lengths — the headline measurement for the parallel calibration engine.
//!
//! Three hot loops are compared under `Parallelism::Serial` and
//! `Parallelism::Auto` (all cores). `Auto` runs each loop on the calling
//! thread for its first ≈ 100 µs and shares only the rest with helper
//! threads, so a row whose loop is shorter than that reads as serial, and
//! in a longer one the item running when helpers start does not overlap
//! with them:
//!
//! * MQMExact full-search calibration (per-node quilt search) across chain
//!   lengths;
//! * MQMExact over an interval-grid class (per-θ parallelism);
//! * the Wasserstein `(secret pair, scenario)` sweep on growing flu cliques.
//!
//! The parallel paths are bitwise-identical to the serial ones (asserted by
//! `tests/mechanism_conformance.rs`); this bench demonstrates the speedup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pufferfish_core::flu::flu_clique_framework;
use pufferfish_core::queries::StateCountQuery;
use pufferfish_core::{
    MqmExact, MqmExactOptions, Parallelism, PrivacyBudget, WassersteinMechanism,
};
use pufferfish_markov::{IntervalClassBuilder, MarkovChain, MarkovChainClass};

fn policies() -> [(&'static str, Parallelism); 2] {
    [
        ("serial", Parallelism::Serial),
        ("parallel", Parallelism::Auto),
    ]
}

fn bench_calibration_parallel(c: &mut Criterion) {
    let budget = PrivacyBudget::new(1.0).unwrap();
    let mut group = c.benchmark_group("calibration_parallel");
    group.sample_size(10);

    // MQMExact full node search on a singleton class, across chain lengths.
    let chain =
        MarkovChain::with_stationary_initial(vec![vec![0.85, 0.15], vec![0.35, 0.65]]).unwrap();
    let singleton = MarkovChainClass::singleton(chain);
    for length in [100usize, 200, 400] {
        for (label, parallelism) in policies() {
            let options = MqmExactOptions {
                max_quilt_width: Some(24),
                search_middle_only: false,
                parallelism,
            };
            group.bench_with_input(
                BenchmarkId::new(format!("mqm_exact_nodes/{label}"), length),
                &length,
                |b, &length| {
                    b.iter(|| MqmExact::calibrate(&singleton, length, budget, options).unwrap())
                },
            );
        }
    }

    // MQMExact across an interval-grid class (parallelism over θ).
    let grid = IntervalClassBuilder::symmetric(0.3)
        .grid_points(5)
        .build()
        .unwrap();
    for (label, parallelism) in policies() {
        let options = MqmExactOptions {
            max_quilt_width: Some(16),
            search_middle_only: false,
            parallelism,
        };
        group.bench_with_input(
            BenchmarkId::new("mqm_exact_grid/25_chains", label),
            &grid,
            |b, class| b.iter(|| MqmExact::calibrate(class, 60, budget, options).unwrap()),
        );
    }

    // Wasserstein sweep over secret pairs x scenarios on flu cliques.
    for clique in [8usize, 10] {
        let dist: Vec<f64> = {
            let weights: Vec<f64> = (0..=clique)
                .map(|j| (-((j as f64) - clique as f64 / 2.0).abs()).exp())
                .collect();
            let total: f64 = weights.iter().sum();
            weights.into_iter().map(|w| w / total).collect()
        };
        let framework = flu_clique_framework(clique, &dist).unwrap();
        let query = StateCountQuery::new(1, clique);
        for (label, parallelism) in policies() {
            group.bench_with_input(
                BenchmarkId::new(format!("wasserstein_sweep/{label}"), clique),
                &framework,
                |b, framework| {
                    b.iter(|| {
                        WassersteinMechanism::calibrate_with(framework, &query, budget, parallelism)
                            .unwrap()
                    })
                },
            );
        }
    }

    group.finish();
}

criterion_group!(benches, bench_calibration_parallel);
criterion_main!(benches);
