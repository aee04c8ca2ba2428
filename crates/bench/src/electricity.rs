//! Table 3: L1 error of the relative-frequency histogram of household power
//! levels, for ε ∈ {0.2, 1, 5}.

use rand::rngs::StdRng;
use rand::SeedableRng;

use pufferfish_baselines::{Gk16, GroupDp};
use pufferfish_core::queries::RelativeFrequencyHistogram;
use pufferfish_core::{
    Mechanism, MqmApprox, MqmApproxOptions, MqmExact, MqmExactOptions, PrivacyBudget, Result,
};
use pufferfish_datasets::{ElectricityConfig, ElectricityDataset};
use pufferfish_markov::MarkovChainClass;

use crate::reporting::{format_metric, render_table};

/// Configuration of the electricity experiment.
#[derive(Debug, Clone, Copy)]
pub struct Table3Config {
    /// Number of per-minute observations (paper: ~1,000,000).
    pub length: usize,
    /// Trials per ε (paper: 20).
    pub trials: usize,
    /// Privacy parameters (paper: 0.2, 1, 5).
    pub epsilons: &'static [f64],
    /// RNG seed.
    pub seed: u64,
}

impl Default for Table3Config {
    fn default() -> Self {
        Table3Config {
            length: 1_000_000,
            trials: 20,
            epsilons: &crate::EPSILONS,
            seed: 31,
        }
    }
}

impl Table3Config {
    /// A small configuration for tests and smoke runs.
    pub fn quick() -> Self {
        Table3Config {
            length: 30_000,
            trials: 3,
            ..Table3Config::default()
        }
    }
}

/// One row of Table 3 transposed: errors for a single ε.
#[derive(Debug, Clone, Copy)]
pub struct Table3Cell {
    /// Privacy parameter.
    pub epsilon: f64,
    /// GroupDP mean L1 error.
    pub group_dp: f64,
    /// GK16 mean L1 error (`None` = does not apply, as in the paper).
    pub gk16: Option<f64>,
    /// MQMApprox mean L1 error.
    pub mqm_approx: f64,
    /// MQMExact mean L1 error.
    pub mqm_exact: f64,
}

/// Runs the experiment.
///
/// # Errors
/// Propagates simulation and mechanism errors.
pub fn run(config: Table3Config) -> Result<Vec<Table3Cell>> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let dataset = ElectricityDataset::simulate(ElectricityConfig::small(config.length), &mut rng)?;
    let chain = dataset.empirical_chain()?;
    let class = MarkovChainClass::singleton(chain);
    let num_states = dataset.config.num_states;
    let query = RelativeFrequencyHistogram::new(num_states, config.length)?;

    let mut cells = Vec::with_capacity(config.epsilons.len());
    for &epsilon in config.epsilons {
        let budget = PrivacyBudget::new(epsilon)?;
        let approx =
            MqmApprox::calibrate(&class, config.length, budget, MqmApproxOptions::default())?;
        let exact = MqmExact::calibrate(
            &class,
            config.length,
            budget,
            MqmExactOptions {
                max_quilt_width: Some(approx.optimal_quilt_width().max(4)),
                search_middle_only: true,
                ..Default::default()
            },
        )?;
        let gk16 = Gk16::calibrate(&class, config.length, budget).ok();
        let group_dp = GroupDp::calibrate(config.length, budget)?;

        let mut sums = [0.0f64; 4];
        for _ in 0..config.trials {
            sums[0] += group_dp
                .release(&query, &dataset.states, &mut rng)?
                .l1_error();
            if let Some(gk) = &gk16 {
                sums[1] += gk.release(&query, &dataset.states, &mut rng)?.l1_error();
            }
            sums[2] += approx
                .release(&query, &dataset.states, &mut rng)?
                .l1_error();
            sums[3] += exact.release(&query, &dataset.states, &mut rng)?.l1_error();
        }
        let n = config.trials as f64;
        cells.push(Table3Cell {
            epsilon,
            group_dp: sums[0] / n,
            gk16: gk16.as_ref().map(|_| sums[1] / n),
            mqm_approx: sums[2] / n,
            mqm_exact: sums[3] / n,
        });
    }
    Ok(cells)
}

/// Renders Table 3.
pub fn render(cells: &[Table3Cell]) -> String {
    let mut headers = vec!["Algorithm".to_string()];
    for cell in cells {
        headers.push(format!("epsilon = {}", cell.epsilon));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let row = |label: &str, pick: &dyn Fn(&Table3Cell) -> Option<f64>| {
        let mut cells_out = vec![label.to_string()];
        for cell in cells {
            cells_out.push(format_metric(pick(cell)));
        }
        cells_out
    };
    let rows = vec![
        row("GroupDP", &|c| Some(c.group_dp)),
        row("GK16", &|c| c.gk16),
        row("MQMApprox", &|c| Some(c.mqm_approx)),
        row("MQMExact", &|c| Some(c.mqm_exact)),
    ];
    format!(
        "\nTable 3: L1 error of the power-level relative-frequency histogram\n{}",
        render_table(&header_refs, &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_table3_shape() {
        let config = Table3Config {
            length: 12_000,
            trials: 2,
            epsilons: &[1.0],
            seed: 5,
        };
        let cells = run(config).unwrap();
        assert_eq!(cells.len(), 1);
        let cell = &cells[0];
        // GK16 does not apply to the strongly autocorrelated power series.
        assert!(cell.gk16.is_none());
        // MQM errors are far below GroupDP (whose error is ~ 2 * 51 / eps
        // for a single connected chain). MQMExact is an order of magnitude
        // better; the closed-form MQMApprox bound lands within a factor ~5
        // at this reduced length (the exact margin depends on the simulated
        // chain's spectral parameters, i.e. on the RNG stream).
        assert!(cell.mqm_exact < cell.group_dp / 10.0);
        assert!(cell.mqm_approx < cell.group_dp / 5.0);
        assert!(cell.mqm_exact <= cell.mqm_approx + 1e-9);
        let table = render(&cells);
        assert!(table.contains("GroupDP"));
        assert!(table.contains("N/A"));
    }
}
