//! The physical-activity experiments: Figure 4 (lower row) and Table 1.

use rand::rngs::StdRng;
use rand::SeedableRng;

use pufferfish_baselines::{EntryDp, Gk16, GroupDp};
use pufferfish_core::queries::RelativeFrequencyHistogram;
use pufferfish_core::{
    Mechanism, MqmApprox, MqmApproxOptions, MqmExact, MqmExactOptions, PrivacyBudget, Result,
};
use pufferfish_datasets::{
    aggregate_relative_frequencies, l1_distance, relative_frequencies, ActivityCohort,
    ActivityDataset, ActivitySimulationConfig, ACTIVITY_LABELS, ACTIVITY_STATES,
};
use pufferfish_markov::MarkovChainClass;

use crate::reporting::{format_metric, render_table};

/// Configuration of the activity experiments.
#[derive(Debug, Clone, Copy)]
pub struct ActivityConfig {
    /// Observations per participant (paper: > 9,000 on average).
    pub observations_per_participant: usize,
    /// Participants per cohort (`None` = study sizes 40/16/36).
    pub participants: Option<usize>,
    /// Random trials to average over (paper: 20).
    pub trials: usize,
    /// Privacy parameter ε (paper: 1).
    pub epsilon: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ActivityConfig {
    fn default() -> Self {
        ActivityConfig {
            observations_per_participant: 9_000,
            participants: None,
            trials: 20,
            epsilon: 1.0,
            seed: 23,
        }
    }
}

impl ActivityConfig {
    /// A small configuration for tests and smoke runs.
    pub fn quick() -> Self {
        ActivityConfig {
            observations_per_participant: 1_500,
            participants: Some(5),
            trials: 3,
            ..ActivityConfig::default()
        }
    }
}

/// Results for one cohort (one column pair of Table 1 plus one panel of the
/// lower row of Figure 4).
#[derive(Debug, Clone)]
pub struct CohortResult {
    /// The cohort.
    pub cohort: ActivityCohort,
    /// Exact aggregated relative-frequency histogram (4 bins).
    pub exact_aggregate: Vec<f64>,
    /// A representative private aggregate histogram per mechanism
    /// (MQMApprox, MQMExact, GroupDP) from the last trial — the panels of
    /// Figure 4's lower row.
    pub private_aggregates: PrivateAggregates,
    /// Mean L1 errors of the aggregate task.
    pub aggregate_errors: MechanismErrors,
    /// Mean L1 errors of the individual task (averaged over participants).
    pub individual_errors: MechanismErrors,
}

/// One private aggregated histogram per mechanism.
#[derive(Debug, Clone)]
pub struct PrivateAggregates {
    /// GroupDP release.
    pub group_dp: Vec<f64>,
    /// MQMApprox release.
    pub mqm_approx: Vec<f64>,
    /// MQMExact release.
    pub mqm_exact: Vec<f64>,
}

/// Mean L1 errors per mechanism (`None` = not applicable).
#[derive(Debug, Clone, Copy)]
pub struct MechanismErrors {
    /// Differential privacy across participants (aggregate task only).
    pub dp: Option<f64>,
    /// Group differential privacy.
    pub group_dp: f64,
    /// GK16 (N/A whenever its spectral norm condition fails, which is the
    /// case for all cohorts, as in the paper).
    pub gk16: Option<f64>,
    /// MQMApprox.
    pub mqm_approx: f64,
    /// MQMExact.
    pub mqm_exact: f64,
}

/// Runs the experiment for every cohort.
///
/// # Errors
/// Propagates simulation and mechanism errors.
pub fn run(config: ActivityConfig) -> Result<Vec<CohortResult>> {
    ActivityCohort::all()
        .into_iter()
        .map(|cohort| run_cohort(cohort, config))
        .collect()
}

/// Runs the experiment for a single cohort.
///
/// # Errors
/// Propagates simulation and mechanism errors.
pub fn run_cohort(cohort: ActivityCohort, config: ActivityConfig) -> Result<CohortResult> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ cohort.participants() as u64);
    let simulation = ActivitySimulationConfig {
        observations_per_participant: config.observations_per_participant,
        gap_probability: 0.0005,
        participants: config.participants,
    };
    let dataset = ActivityDataset::simulate(cohort, simulation, &mut rng)?;
    let budget = PrivacyBudget::new(config.epsilon)?;

    // Θ = {θ} with θ the cohort-level empirical chain (stationary start), as
    // in Section 5.3.
    let chain = dataset.empirical_chain()?;
    let class = MarkovChainClass::singleton(chain.clone());
    let length = config.observations_per_participant;

    // MQMApprox first; its optimal quilt width becomes MQMExact's search
    // radius ℓ (the paper's methodology).
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
    let gk16 = Gk16::calibrate(&class, length, budget).ok();

    let query = RelativeFrequencyHistogram::new(ACTIVITY_STATES, length)?;

    // Exact per-participant histograms and their aggregate.
    let participant_histograms: Vec<Vec<f64>> = dataset
        .participants
        .iter()
        .map(|p| relative_frequencies(&p.concatenated(), ACTIVITY_STATES))
        .collect();
    let exact_aggregate = aggregate_relative_frequencies(&participant_histograms);
    let num_participants = dataset.participants.len();

    // Mechanism scales for the individual task.
    let mut sums_individual = [0.0f64; 4]; // group, gk16, approx, exact
    let mut sums_aggregate = [0.0f64; 5]; // dp, group, gk16, approx, exact
    let mut last_private = PrivateAggregates {
        group_dp: exact_aggregate.clone(),
        mqm_approx: exact_aggregate.clone(),
        mqm_exact: exact_aggregate.clone(),
    };

    // DP across participants for the aggregate task: each participant is one
    // record of the aggregate histogram, sensitivity 2 / n.
    let participant_dp = EntryDp::with_sensitivity(2.0 / num_participants as f64, budget)?;

    for _ in 0..config.trials {
        // --- Individual task: release each participant's histogram.
        let mut individual_errors = [0.0f64; 4];
        for participant in &dataset.participants {
            let data = participant.concatenated();
            let group_dp = GroupDp::calibrate(participant.longest_segment(), budget)?;
            individual_errors[0] += group_dp.release(&query, &data, &mut rng)?.l1_error();
            if let Some(gk) = &gk16 {
                individual_errors[1] += gk.release(&query, &data, &mut rng)?.l1_error();
            }
            individual_errors[2] += approx.release(&query, &data, &mut rng)?.l1_error();
            individual_errors[3] += exact.release(&query, &data, &mut rng)?.l1_error();
        }
        for (sum, err) in sums_individual.iter_mut().zip(individual_errors) {
            *sum += err / num_participants as f64;
        }

        // --- Aggregate task: average the private per-participant histograms
        // (for the correlated-data mechanisms) or add participant-level DP
        // noise to the exact aggregate.
        let mut group_histograms = Vec::with_capacity(num_participants);
        let mut approx_histograms = Vec::with_capacity(num_participants);
        let mut exact_histograms = Vec::with_capacity(num_participants);
        for participant in &dataset.participants {
            let data = participant.concatenated();
            let group_dp = GroupDp::calibrate(participant.longest_segment(), budget)?;
            group_histograms.push(group_dp.release(&query, &data, &mut rng)?.values);
            approx_histograms.push(approx.release(&query, &data, &mut rng)?.values);
            exact_histograms.push(exact.release(&query, &data, &mut rng)?.values);
        }
        let group_aggregate = aggregate_relative_frequencies(&group_histograms);
        let approx_aggregate = aggregate_relative_frequencies(&approx_histograms);
        let exact_mech_aggregate = aggregate_relative_frequencies(&exact_histograms);
        let dp_aggregate = participant_dp.privatize(&exact_aggregate, &mut rng)?.values;

        sums_aggregate[0] += l1_distance(&dp_aggregate, &exact_aggregate);
        sums_aggregate[1] += l1_distance(&group_aggregate, &exact_aggregate);
        if gk16.is_some() {
            // GK16 never applies for these cohorts; kept for completeness.
            sums_aggregate[2] += 0.0;
        }
        sums_aggregate[3] += l1_distance(&approx_aggregate, &exact_aggregate);
        sums_aggregate[4] += l1_distance(&exact_mech_aggregate, &exact_aggregate);

        last_private = PrivateAggregates {
            group_dp: group_aggregate,
            mqm_approx: approx_aggregate,
            mqm_exact: exact_mech_aggregate,
        };
    }

    let trials = config.trials as f64;
    Ok(CohortResult {
        cohort,
        exact_aggregate,
        private_aggregates: last_private,
        aggregate_errors: MechanismErrors {
            dp: Some(sums_aggregate[0] / trials),
            group_dp: sums_aggregate[1] / trials,
            gk16: gk16.as_ref().map(|_| sums_aggregate[2] / trials),
            mqm_approx: sums_aggregate[3] / trials,
            mqm_exact: sums_aggregate[4] / trials,
        },
        individual_errors: MechanismErrors {
            dp: None,
            group_dp: sums_individual[0] / trials,
            gk16: gk16.as_ref().map(|_| sums_individual[1] / trials),
            mqm_approx: sums_individual[2] / trials,
            mqm_exact: sums_individual[3] / trials,
        },
    })
}

/// Renders Table 1.
pub fn render_table1(results: &[CohortResult], epsilon: f64) -> String {
    let mut headers = vec!["Algorithm".to_string()];
    for result in results {
        headers.push(format!("{} Agg", result.cohort.name()));
        headers.push(format!("{} Indi", result.cohort.name()));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();

    #[allow(clippy::type_complexity)]
    let row = |label: &str, pick: &dyn Fn(&CohortResult) -> (Option<f64>, Option<f64>)| {
        let mut cells = vec![label.to_string()];
        for result in results {
            let (aggregate, individual) = pick(result);
            cells.push(format_metric(aggregate));
            cells.push(format_metric(individual));
        }
        cells
    };
    let rows = vec![
        row("DP", &|r| (r.aggregate_errors.dp, None)),
        row("GroupDP", &|r| {
            (
                Some(r.aggregate_errors.group_dp),
                Some(r.individual_errors.group_dp),
            )
        }),
        row("GK16", &|r| {
            (r.aggregate_errors.gk16, r.individual_errors.gk16)
        }),
        row("MQMApprox", &|r| {
            (
                Some(r.aggregate_errors.mqm_approx),
                Some(r.individual_errors.mqm_approx),
            )
        }),
        row("MQMExact", &|r| {
            (
                Some(r.aggregate_errors.mqm_exact),
                Some(r.individual_errors.mqm_exact),
            )
        }),
    ];
    format!(
        "\nTable 1: L1 error of relative-frequency histograms, epsilon = {epsilon}\n{}",
        render_table(&header_refs, &rows)
    )
}

/// Renders the lower row of Figure 4: exact and private aggregated activity
/// histograms per cohort.
pub fn render_figure4_lower(results: &[CohortResult]) -> String {
    let mut out = String::new();
    for result in results {
        out.push_str(&format!(
            "\nFigure 4 (lower row): aggregated activity histogram, {} group\n",
            result.cohort.name()
        ));
        let rows: Vec<Vec<String>> = (0..ACTIVITY_STATES)
            .map(|state| {
                vec![
                    ACTIVITY_LABELS[state].to_string(),
                    format_metric(Some(result.exact_aggregate[state])),
                    format_metric(Some(result.private_aggregates.group_dp[state])),
                    format_metric(Some(result.private_aggregates.mqm_approx[state])),
                    format_metric(Some(result.private_aggregates.mqm_exact[state])),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &["Activity", "Exact", "GroupDP", "MQMApprox", "MQMExact"],
            &rows,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_table1_ordering() {
        let results = run(ActivityConfig::quick()).unwrap();
        assert_eq!(results.len(), 3);
        for result in &results {
            // GK16 never applies to the sticky activity chains.
            assert!(result.aggregate_errors.gk16.is_none());
            assert!(result.individual_errors.gk16.is_none());
            // The paper's ordering: MQMExact <= MQMApprox << GroupDP for both
            // tasks, and the MQM variants beat participant-level DP on the
            // aggregate task.
            assert!(
                result.individual_errors.mqm_exact <= result.individual_errors.mqm_approx + 1e-9
            );
            assert!(result.individual_errors.mqm_approx < result.individual_errors.group_dp);
            assert!(result.aggregate_errors.mqm_approx < result.aggregate_errors.group_dp);
            assert!(result.aggregate_errors.mqm_exact < result.aggregate_errors.dp.unwrap());
            // Histograms sum to roughly one.
            let total: f64 = result.exact_aggregate.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
        // Cohort behaviour: cyclists most active, overweight women most
        // sedentary.
        assert!(results[0].exact_aggregate[0] > results[2].exact_aggregate[0]);
        assert!(results[2].exact_aggregate[3] > results[0].exact_aggregate[3]);

        let table = render_table1(&results, 1.0);
        assert!(table.contains("MQMExact"));
        assert!(table.contains("N/A"));
        let figure = render_figure4_lower(&results);
        assert!(figure.contains("Sedentary"));
    }
}
