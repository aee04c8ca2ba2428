//! Household electricity consumption (Section 5.3.2): release a private
//! histogram of power levels for a long, strongly correlated time series.
//!
//! Run with `cargo run -p pufferfish-bench --release --example electricity`.

use pufferfish_baselines::GroupDp;
use pufferfish_core::queries::RelativeFrequencyHistogram;
use pufferfish_core::{
    Mechanism, MqmApprox, MqmApproxOptions, MqmExact, MqmExactOptions, PrivacyBudget,
};
use pufferfish_datasets::{ElectricityConfig, ElectricityDataset};
use pufferfish_markov::MarkovChainClass;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(3);
    // Keep the example snappy; the bench binary `table3` runs the full
    // million-observation series.
    let length = 100_000;
    let dataset = ElectricityDataset::simulate(ElectricityConfig::small(length), &mut rng)?;
    println!(
        "Simulated {} minutes of household power across {} bins of {} W",
        dataset.len(),
        dataset.config.num_states,
        dataset.config.bin_width_watts
    );

    let class = MarkovChainClass::singleton(dataset.empirical_chain()?);
    for &epsilon in &[0.2, 1.0, 5.0] {
        let budget = PrivacyBudget::new(epsilon)?;
        let approx = MqmApprox::calibrate(&class, length, budget, MqmApproxOptions::default())?;
        let exact = MqmExact::calibrate(
            &class,
            length,
            budget,
            MqmExactOptions {
                max_quilt_width: Some(approx.optimal_quilt_width().max(4)),
                search_middle_only: true,
                ..Default::default()
            },
        )?;
        let group = GroupDp::calibrate(length, budget)?;

        let query = RelativeFrequencyHistogram::new(dataset.config.num_states, length)?;
        let group_err = group.release(&query, &dataset.states, &mut rng)?.l1_error();
        let approx_err = approx
            .release(&query, &dataset.states, &mut rng)?
            .l1_error();
        let exact_err = exact.release(&query, &dataset.states, &mut rng)?.l1_error();
        println!(
            "epsilon = {epsilon:>3}: L1 error GroupDP = {group_err:>9.4}, \
             MQMApprox = {approx_err:.4}, MQMExact = {exact_err:.4}"
        );
    }
    Ok(())
}
