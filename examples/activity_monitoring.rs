//! Physical-activity monitoring (Example 1 / Section 5.3.1): release private
//! activity histograms for a simulated cohort and compare mechanisms.
//!
//! Run with `cargo run -p pufferfish-bench --release --example activity_monitoring`.

use pufferfish_baselines::GroupDp;
use pufferfish_core::queries::RelativeFrequencyHistogram;
use pufferfish_core::{
    Mechanism, MqmApprox, MqmApproxOptions, MqmExact, MqmExactOptions, PrivacyBudget,
};
use pufferfish_datasets::{
    relative_frequencies, ActivityCohort, ActivityDataset, ActivitySimulationConfig,
    ACTIVITY_LABELS, ACTIVITY_STATES,
};
use pufferfish_markov::MarkovChainClass;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(1);
    let observations = 6_000;
    let dataset = ActivityDataset::simulate(
        ActivityCohort::Cyclists,
        ActivitySimulationConfig {
            observations_per_participant: observations,
            gap_probability: 0.0005,
            participants: Some(8),
        },
        &mut rng,
    )?;

    // The model class is the cohort-level empirical chain.
    let class = MarkovChainClass::singleton(dataset.empirical_chain()?);
    let budget = PrivacyBudget::new(1.0)?;
    let approx = MqmApprox::calibrate(&class, observations, budget, MqmApproxOptions::default())?;
    let exact = MqmExact::calibrate(
        &class,
        observations,
        budget,
        MqmExactOptions {
            max_quilt_width: Some(approx.optimal_quilt_width().max(4)),
            search_middle_only: true,
            ..Default::default()
        },
    )?;

    let query = RelativeFrequencyHistogram::new(ACTIVITY_STATES, observations)?;
    let participant = &dataset.participants[0];
    let data = participant.concatenated();
    let exact_histogram = relative_frequencies(&data, ACTIVITY_STATES);

    let group_dp = GroupDp::calibrate(participant.longest_segment(), budget)?;
    let group_release = group_dp.release(&query, &data, &mut rng)?;
    let approx_release = approx.release(&query, &data, &mut rng)?;
    let exact_release = exact.release(&query, &data, &mut rng)?;

    println!("One cyclist's day, epsilon = 1");
    println!(
        "{:<14} {:>8} {:>10} {:>10} {:>10}",
        "activity", "exact", "GroupDP", "MQMApprox", "MQMExact"
    );
    for (state, label) in ACTIVITY_LABELS.iter().enumerate() {
        println!(
            "{:<14} {:>8.4} {:>10.4} {:>10.4} {:>10.4}",
            label,
            exact_histogram[state],
            group_release.values[state],
            approx_release.values[state],
            exact_release.values[state]
        );
    }
    println!(
        "\nL1 errors  GroupDP: {:.4}  MQMApprox: {:.4}  MQMExact: {:.4}",
        group_release.l1_error(),
        approx_release.l1_error(),
        exact_release.l1_error()
    );
    println!(
        "Noise multipliers  sigma_approx = {:.2}, sigma_exact = {:.2}, group size = {}",
        approx.sigma_max(),
        exact.sigma_max(),
        participant.longest_segment()
    );
    Ok(())
}
