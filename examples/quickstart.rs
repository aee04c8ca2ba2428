//! Quickstart: release a private activity histogram from a correlated time
//! series through the unified `Mechanism` trait and the cached release
//! engine.
//!
//! Run with `cargo run -p pufferfish-bench --release --example quickstart`.

use pufferfish_core::engine::{MqmApproxCalibrator, MqmExactCalibrator, ReleaseEngine};
use pufferfish_core::queries::RelativeFrequencyHistogram;
use pufferfish_core::{Mechanism, MqmApprox, MqmApproxOptions, MqmExactOptions, PrivacyBudget};
use pufferfish_markov::{sample_trajectory, MarkovChain, MarkovChainClass};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A subject's activity alternates between "resting" (0) and "moving" (1),
    // modelled as a two-state Markov chain sampled once a minute.
    let truth = MarkovChain::new(vec![0.7, 0.3], vec![vec![0.9, 0.1], vec![0.3, 0.7]])?;
    let length = 1_440; // one day of minutes
    let mut rng = StdRng::seed_from_u64(7);
    let day = sample_trajectory(&truth, length, &mut rng)?;

    // The analyst's model class Θ: the empirical chain fitted to the data
    // (the paper's real-data methodology).
    let class = MarkovChainClass::singleton(MarkovChain::with_stationary_initial(vec![
        vec![0.9, 0.1],
        vec![0.3, 0.7],
    ])?);

    // MQMApprox is cheap to calibrate and its winning quilt width seeds the
    // MQMExact search radius (the paper's experimental configuration).
    let budget = PrivacyBudget::new(1.0)?;
    let approx = MqmApprox::calibrate(&class, length, budget, MqmApproxOptions::default())?;

    // Serve releases through engines: the first release calibrates, every
    // further (ε, query) repeat is a cache hit.
    let approx_engine = ReleaseEngine::new(MqmApproxCalibrator::new(
        class.clone(),
        length,
        MqmApproxOptions::default(),
    ));
    let exact_engine = ReleaseEngine::new(MqmExactCalibrator::new(
        class,
        length,
        MqmExactOptions {
            max_quilt_width: Some(approx.optimal_quilt_width().max(4)),
            search_middle_only: true,
            ..Default::default()
        },
    ));

    // Both engines hand back uniform `Arc<dyn Mechanism>` handles.
    let query = RelativeFrequencyHistogram::new(2, length)?;
    let mechanisms: Vec<std::sync::Arc<dyn Mechanism>> = vec![
        approx_engine.mechanism(&query, budget)?,
        exact_engine.mechanism(&query, budget)?,
    ];
    for mechanism in &mechanisms {
        println!(
            "{:<12} noise scale for the histogram = {:.6}  (epsilon = {})",
            mechanism.name(),
            mechanism.noise_scale_for(&query),
            mechanism.epsilon()
        );
    }
    println!("(the trivial / group-DP multiplier would scale with T = {length})");

    // Release the fraction of the day spent in each activity with MQMExact.
    let release = exact_engine.release(&query, &day, budget, &mut rng)?;
    println!("\n{:<12} {:>10} {:>10}", "activity", "exact", "private");
    for (state, label) in ["resting", "moving"].iter().enumerate() {
        println!(
            "{:<12} {:>10.4} {:>10.4}",
            label, release.true_values[state], release.values[state]
        );
    }
    println!("\nL1 error of this release: {:.5}", release.l1_error());

    // A second day of traffic: same (class, epsilon, query) key, so the
    // engine skips recalibration entirely.
    let day2 = sample_trajectory(&truth, length, &mut rng)?;
    let release2 = exact_engine.release(&query, &day2, budget, &mut rng)?;
    println!(
        "second release L1 error {:.5} (cache hits: {}, misses: {})",
        release2.l1_error(),
        exact_engine.stats().hits,
        exact_engine.stats().misses
    );
    Ok(())
}
