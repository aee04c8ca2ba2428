//! Sequential composition (Theorem 4.4): answering several queries about the
//! same correlated time series while tracking the cumulative guarantee.
//!
//! Run with `cargo run -p pufferfish-bench --release --example composition`.

use pufferfish_core::queries::{RelativeFrequencyHistogram, StateFrequencyQuery};
use pufferfish_core::{CompositionAccountant, Mechanism, MqmExact, MqmExactOptions, PrivacyBudget};
use pufferfish_markov::{sample_trajectory, MarkovChain, MarkovChainClass};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let length = 500;
    let chain = MarkovChain::with_stationary_initial(vec![vec![0.85, 0.15], vec![0.25, 0.75]])?;
    let class = MarkovChainClass::singleton(chain.clone());
    let mut rng = StdRng::seed_from_u64(11);
    let data = sample_trajectory(&chain, length, &mut rng)?;

    // Each analyst query gets a small per-release budget; Theorem 4.4 says
    // the releases compose because they use the same quilt configuration.
    let per_release = 0.25;
    let target = 1.0;
    let budget = PrivacyBudget::new(per_release)?;
    let mechanism = MqmExact::calibrate(&class, length, budget, MqmExactOptions::default())?;
    let mut accountant = CompositionAccountant::new();

    let histogram = RelativeFrequencyHistogram::new(2, length)?;
    let frequency = StateFrequencyQuery::new(1, length);

    println!("Answering queries with epsilon = {per_release} each, target budget {target}:");
    for round in 1.. {
        if accountant.remaining(target).is_none() {
            println!("Budget exhausted after {} releases.", accountant.releases());
            break;
        }
        let release = if round % 2 == 1 {
            mechanism.release(&histogram, &data, &mut rng)?
        } else {
            mechanism.release(&frequency, &data, &mut rng)?
        };
        accountant.record(mechanism.epsilon());
        println!(
            "  release {round}: {} values, L1 error {:.4}, cumulative epsilon {:.2}",
            release.values.len(),
            release.l1_error(),
            accountant.guaranteed_epsilon()
        );
        if round >= 10 {
            break;
        }
    }
    println!(
        "\nTotal guarantee after {} releases: {:.2}-Pufferfish privacy",
        accountant.releases(),
        accountant.guaranteed_epsilon()
    );
    Ok(())
}
