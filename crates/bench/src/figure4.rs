//! Figure 4 (upper row): L1 error of the frequency of state 1 versus α on
//! synthetic binary chains, for ε ∈ {0.2, 1, 5}.

use rand::rngs::StdRng;
use rand::SeedableRng;

use pufferfish_baselines::{EntryDp, Gk16, GroupDp};
use pufferfish_core::queries::StateFrequencyQuery;
use pufferfish_core::{
    Mechanism, MqmApprox, MqmApproxOptions, MqmExact, MqmExactOptions, PrivacyBudget,
    QuiltSearchStrategy, Result,
};
use pufferfish_datasets::SyntheticWorkload;
use pufferfish_markov::ReversibilityMode;

use crate::reporting::{format_metric, render_table};

/// Configuration of the synthetic sweep.
#[derive(Debug, Clone, Copy)]
pub struct Figure4Config {
    /// Chain length `T` (paper: 100).
    pub length: usize,
    /// Number of random trials per (α, ε) cell (paper: 500).
    pub trials: usize,
    /// Values of α to sweep (paper: 0.1, 0.15, …, 0.4).
    pub alphas: &'static [f64],
    /// Privacy parameters to sweep (paper: 0.2, 1, 5).
    pub epsilons: &'static [f64],
    /// Grid resolution for materialising Θ.
    pub grid_points: usize,
    /// RNG seed.
    pub seed: u64,
}

/// The paper-scale configuration.
pub const PAPER_ALPHAS: [f64; 7] = [0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4];

impl Default for Figure4Config {
    fn default() -> Self {
        Figure4Config {
            length: 100,
            trials: 500,
            alphas: &PAPER_ALPHAS,
            epsilons: &crate::EPSILONS,
            grid_points: 5,
            seed: 17,
        }
    }
}

impl Figure4Config {
    /// A small configuration for tests and smoke runs.
    pub fn quick() -> Self {
        Figure4Config {
            trials: 20,
            grid_points: 3,
            ..Figure4Config::default()
        }
    }
}

/// Result of one (α, ε) cell: mean L1 error of each mechanism over the
/// trials (`None` where a mechanism does not apply).
#[derive(Debug, Clone, Copy)]
pub struct Figure4Cell {
    /// Interval parameter α (Θ = [α, 1 − α]).
    pub alpha: f64,
    /// Privacy parameter ε.
    pub epsilon: f64,
    /// Mean L1 error of the GroupDP baseline.
    pub group_dp: f64,
    /// Mean L1 error of entry DP (no correlation accounted for).
    pub entry_dp: f64,
    /// Mean L1 error of GK16 (None when its spectral-norm condition fails).
    pub gk16: Option<f64>,
    /// Mean L1 error of MQMApprox.
    pub mqm_approx: f64,
    /// Mean L1 error of MQMExact.
    pub mqm_exact: f64,
}

/// Runs the full sweep.
///
/// # Errors
/// Propagates mechanism and workload errors; individual GK16 inapplicability
/// is reported as `None`, not an error.
pub fn run(config: Figure4Config) -> Result<Vec<Figure4Cell>> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut cells = Vec::with_capacity(config.alphas.len() * config.epsilons.len());
    let query = StateFrequencyQuery::new(1, config.length);

    for &alpha in config.alphas {
        let workload =
            SyntheticWorkload::new(alpha, config.length).with_grid_points(config.grid_points);
        let class = workload.calibration_class()?;

        for &epsilon in config.epsilons {
            let budget = PrivacyBudget::new(epsilon)?;
            let mqm_exact =
                MqmExact::calibrate(&class, config.length, budget, MqmExactOptions::default())?;
            let mqm_approx = MqmApprox::calibrate(
                &class,
                config.length,
                budget,
                MqmApproxOptions {
                    reversibility: ReversibilityMode::Auto,
                    strategy: QuiltSearchStrategy::Full { max_width: None },
                    ..Default::default()
                },
            )?;
            let gk16 = Gk16::calibrate(&class, config.length, budget).ok();
            let group_dp = GroupDp::calibrate(config.length, budget)?;
            let entry_dp = EntryDp::for_query(&query, budget)?;

            let mut sums = [0.0f64; 5];
            for _ in 0..config.trials {
                let sample = workload.generate(&mut rng)?;
                let db = &sample.sequence;
                sums[0] += group_dp.release(&query, db, &mut rng)?.l1_error();
                sums[1] += entry_dp.release(&query, db, &mut rng)?.l1_error();
                if let Some(gk) = &gk16 {
                    sums[2] += gk.release(&query, db, &mut rng)?.l1_error();
                }
                sums[3] += mqm_approx.release(&query, db, &mut rng)?.l1_error();
                sums[4] += mqm_exact.release(&query, db, &mut rng)?.l1_error();
            }
            let n = config.trials as f64;
            cells.push(Figure4Cell {
                alpha,
                epsilon,
                group_dp: sums[0] / n,
                entry_dp: sums[1] / n,
                gk16: gk16.as_ref().map(|_| sums[2] / n),
                mqm_approx: sums[3] / n,
                mqm_exact: sums[4] / n,
            });
        }
    }
    Ok(cells)
}

/// Renders the sweep as one table per ε (matching Figure 4's three panels).
pub fn render(cells: &[Figure4Cell], epsilons: &[f64]) -> String {
    let mut out = String::new();
    for &epsilon in epsilons {
        out.push_str(&format!(
            "\nFigure 4 (synthetic binary chain, T = 100): L1 error vs alpha, epsilon = {epsilon}\n"
        ));
        let rows: Vec<Vec<String>> = cells
            .iter()
            .filter(|cell| (cell.epsilon - epsilon).abs() < 1e-12)
            .map(|cell| {
                vec![
                    format!("{:.2}", cell.alpha),
                    format_metric(Some(cell.group_dp)),
                    format_metric(Some(cell.entry_dp)),
                    format_metric(cell.gk16),
                    format_metric(Some(cell.mqm_approx)),
                    format_metric(Some(cell.mqm_exact)),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &["alpha", "GroupDP", "DP", "GK16", "MQMApprox", "MQMExact"],
            &rows,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_reproduces_figure_4_shape() {
        let config = Figure4Config {
            trials: 30,
            alphas: &[0.1, 0.4],
            epsilons: &[1.0],
            grid_points: 3,
            length: 100,
            seed: 3,
        };
        let cells = run(config).unwrap();
        assert_eq!(cells.len(), 2);

        let wide = &cells[0]; // alpha = 0.1, strong correlation allowed
        let narrow = &cells[1]; // alpha = 0.4, weak correlation

        // GK16 must be inapplicable for the wide class and applicable for the
        // narrow one (the dashed vertical line of Figure 4).
        assert!(wide.gk16.is_none());
        assert!(narrow.gk16.is_some());

        // Errors shrink as the class narrows.
        assert!(narrow.mqm_exact < wide.mqm_exact);
        assert!(narrow.mqm_approx < wide.mqm_approx);

        // MQMExact is at least as accurate as MQMApprox, and both beat
        // GroupDP (whose error is ~1 for epsilon = 1).
        assert!(wide.mqm_exact <= wide.mqm_approx + 0.05);
        assert!(wide.mqm_exact < wide.group_dp);
        assert!((wide.group_dp - 1.0).abs() < 0.35);

        let text = render(&cells, &[1.0]);
        assert!(text.contains("MQMExact"));
        assert!(text.contains("N/A"));
    }

    #[test]
    fn epsilon_scaling_of_errors() {
        let config = Figure4Config {
            trials: 30,
            alphas: &[0.3],
            epsilons: &[0.2, 5.0],
            grid_points: 3,
            length: 100,
            seed: 4,
        };
        let cells = run(config).unwrap();
        assert_eq!(cells.len(), 2);
        // Lower epsilon (more privacy) means more error.
        assert!(cells[0].mqm_exact > cells[1].mqm_exact);
        assert!(cells[0].group_dp > cells[1].group_dp);
    }
}
