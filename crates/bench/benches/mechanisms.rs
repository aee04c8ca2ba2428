//! Criterion micro-benchmarks of the individual mechanism operations:
//! Wasserstein calibration on the flu example and MQM releases.

use criterion::{criterion_group, criterion_main, Criterion};
use pufferfish_core::flu::flu_clique_framework;
use pufferfish_core::queries::{RelativeFrequencyHistogram, StateCountQuery};
use pufferfish_core::{
    Mechanism, MqmApprox, MqmApproxOptions, MqmExact, MqmExactOptions, PrivacyBudget,
    WassersteinMechanism,
};
use pufferfish_markov::{sample_trajectory, MarkovChain, MarkovChainClass};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_mechanisms(c: &mut Criterion) {
    let budget = PrivacyBudget::new(1.0).unwrap();
    let mut group = c.benchmark_group("mechanisms");
    group.sample_size(20);

    // Wasserstein Mechanism calibration over increasingly large cliques.
    for clique in [4usize, 8, 12] {
        let dist: Vec<f64> = {
            let weights: Vec<f64> = (0..=clique)
                .map(|j| (-((j as f64) - clique as f64 / 2.0).abs()).exp())
                .collect();
            let total: f64 = weights.iter().sum();
            weights.into_iter().map(|w| w / total).collect()
        };
        let framework = flu_clique_framework(clique, &dist).unwrap();
        let query = StateCountQuery::new(1, clique);
        group.bench_function(format!("wasserstein_calibrate/clique_{clique}"), |b| {
            b.iter(|| WassersteinMechanism::calibrate(&framework, &query, budget).unwrap())
        });
    }

    // MQM release throughput on a 10k-step binary chain.
    let chain = MarkovChain::with_stationary_initial(vec![vec![0.9, 0.1], vec![0.3, 0.7]]).unwrap();
    let length = 10_000;
    let class = MarkovChainClass::singleton(chain.clone());
    let approx = MqmApprox::calibrate(&class, length, budget, MqmApproxOptions::default()).unwrap();
    let exact = MqmExact::calibrate(
        &class,
        length,
        budget,
        MqmExactOptions {
            max_quilt_width: Some(approx.optimal_quilt_width().max(4)),
            search_middle_only: true,
            ..Default::default()
        },
    )
    .unwrap();
    let query = RelativeFrequencyHistogram::new(2, length).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let data = sample_trajectory(&chain, length, &mut rng).unwrap();
    group.bench_function("mqm_approx_release/10k", |b| {
        b.iter(|| approx.release(&query, &data, &mut rng).unwrap())
    });
    group.bench_function("mqm_exact_release/10k", |b| {
        b.iter(|| exact.release(&query, &data, &mut rng).unwrap())
    });

    group.finish();
}

criterion_group!(benches, bench_mechanisms);
criterion_main!(benches);
