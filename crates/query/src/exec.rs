//! The morsel-driven, deterministically seeded plan executor.
//!
//! Execution is shaped for throughput without giving up reproducibility:
//!
//! * the plan's windows form one **flat domain** (global window indices in
//!   cell-major sweep order, see [`TableBatch`]) that is partitioned into
//!   (cell × window-chunk) **morsels** and run through
//!   [`try_par_map`](pufferfish_parallel::try_par_map) — a giant cell no
//!   longer serialises the tail behind it, because its windows are split
//!   across many morsels that the next idle worker takes;
//! * windows are **borrowed slices** of the batch's state column, released
//!   through [`Mechanism::release_batch_refs`] with batched
//!   [`Laplace::sample_into`](pufferfish_core::Laplace::sample_into) noise —
//!   no per-window materialisation, one noise buffer per morsel;
//! * every cell draws from its own RNG stream seeded by [`cell_seed`], and
//!   because each window consumes **exactly `output_dimension` draws**
//!   (zero when the calibrated scale is zero), a morsel starting at the
//!   cell's `rel`-th window re-seeds and skips `rel × dimension` draws to
//!   land at its offset in the stream. Results are assembled by morsel
//!   index, so output is **bitwise-identical** on any thread count, any
//!   morsel size and any schedule — and bitwise-identical to calling
//!   the chosen mechanism directly with the same seed (the property the
//!   equivalence suites assert).
//!
//! [`TableBatch`]: crate::TableBatch
//! [`Mechanism::release_batch_refs`]: pufferfish_core::Mechanism::release_batch_refs

use pufferfish_core::NoisyRelease;
use pufferfish_parallel::{morsels, try_par_map, Parallelism};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ast::MechanismKind;
use crate::plan::QueryPlan;
use crate::QueryError;

/// The RNG seed of cell `index` under a query-level `seed`.
///
/// Cell 0 uses `seed` unchanged, so a single-cell query consumes exactly the
/// noise stream a direct `StdRng::seed_from_u64(seed)` release would — the
/// bitwise-equivalence contract. Later cells mix the index through one
/// SplitMix64 round so every cell draws a statistically unrelated stream.
pub fn cell_seed(seed: u64, index: usize) -> u64 {
    if index == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add((index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Executor tuning knobs, all result-neutral: they change wall-clock time
/// and scheduling, never a single released bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// How morsels are fanned out across worker threads.
    pub parallelism: Parallelism,
    /// Windows per morsel. `None` (the default) derives a size from the
    /// table shape: single-threaded runs use one morsel (no re-seed
    /// overhead at all), multi-threaded runs target ~4 morsels per worker,
    /// clamped to `1..=256`, so skewed cells split into chunks that idle
    /// workers take.
    pub morsel_windows: Option<usize>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            parallelism: Parallelism::Auto,
            morsel_windows: None,
        }
    }
}

impl ExecOptions {
    /// The morsel size an execution over `total` windows will use under
    /// `threads` effective workers (the auto-derivation documented on
    /// [`ExecOptions::morsel_windows`]).
    pub fn effective_morsel_windows(&self, total: usize, threads: usize) -> usize {
        match self.morsel_windows {
            Some(size) => size.max(1),
            None if threads <= 1 => total.max(1),
            None => (total / (threads * 4)).clamp(1, 256),
        }
    }
}

/// One cell's answers: the group key and a noisy release per window.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    key: String,
    window_ends: Vec<usize>,
    releases: Vec<NoisyRelease>,
}

impl CellResult {
    /// The group key.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Exclusive end offset of each window within the group's sequence.
    pub fn window_ends(&self) -> &[usize] {
        &self.window_ends
    }

    /// The noisy releases, in window order.
    pub fn releases(&self) -> &[NoisyRelease] {
        &self.releases
    }
}

/// The full result of one executed query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    mechanism: MechanismKind,
    noise_scale: f64,
    total_epsilon: f64,
    cells: Vec<CellResult>,
}

impl QueryResult {
    /// The mechanism family that produced the releases.
    pub fn mechanism(&self) -> MechanismKind {
        self.mechanism
    }

    /// The Laplace scale every release applied.
    pub fn noise_scale(&self) -> f64 {
        self.noise_scale
    }

    /// The ε the query was charged (see
    /// [`QueryPlan::total_epsilon`](crate::QueryPlan::total_epsilon)).
    pub fn total_epsilon(&self) -> f64 {
        self.total_epsilon
    }

    /// Per-cell results, in table group order.
    pub fn cells(&self) -> &[CellResult] {
        &self.cells
    }

    /// Total number of noisy releases.
    pub fn releases(&self) -> usize {
        self.cells.iter().map(|cell| cell.releases.len()).sum()
    }

    /// Mean observed L1 error over every release — the executed counterpart
    /// of the planner's [`expected_l1_error`](crate::QueryPlan::expected_l1_error),
    /// used by the benches to validate the cost model.
    pub fn mean_l1_error(&self) -> f64 {
        let releases = self.releases();
        if releases == 0 {
            return 0.0;
        }
        let total: f64 = self
            .cells
            .iter()
            .flat_map(|cell| cell.releases.iter().map(NoisyRelease::l1_error))
            .sum();
        total / releases as f64
    }
}

/// Executes a plan under the default morsel size — the historical
/// signature, kept so every existing call site (and the `QueryService`
/// surface) is unchanged. Equivalent to [`execute_plan_with`] with
/// `ExecOptions { parallelism, morsel_windows: None }`.
///
/// # Errors
/// As for [`execute_plan_with`].
pub fn execute_plan(
    plan: &QueryPlan,
    seed: u64,
    parallelism: Parallelism,
) -> Result<QueryResult, QueryError> {
    execute_plan_with(
        plan,
        seed,
        &ExecOptions {
            parallelism,
            morsel_windows: None,
        },
    )
}

/// Executes a plan: the global window domain is split into morsels, each
/// taken by the next idle worker, and each morsel releases its
/// windows as borrowed batch slices at the right offset of its cell's
/// deterministic noise stream.
///
/// # Errors
/// [`QueryError::Mechanism`] when a release fails (the first failing window
/// in global sweep order, matching what a serial run would report).
pub fn execute_plan_with(
    plan: &QueryPlan,
    seed: u64,
    options: &ExecOptions,
) -> Result<QueryResult, QueryError> {
    let batch = plan.batch();
    let total = batch.total_windows();

    // Resolve the calibrated mechanism once for the whole execution — a
    // cache hit, since planning already calibrated (or probing will have
    // left an index entry that calibrates here, once). The *actual*
    // calibrated scale decides the draws-per-window stride: a plan carrying
    // an interpolated estimate must not desync the stream in the
    // estimate > 0 / exact == 0 edge case.
    let mechanism = plan.engine.mechanism(&*plan.query, plan.budget)?;
    let draws_per_window = if mechanism.noise_scale_for(&*plan.query) > 0.0 {
        plan.query.output_dimension()
    } else {
        0
    };

    let threads = options.parallelism.effective_threads(total);
    let morsel_windows = options.effective_morsel_windows(total, threads);

    let schedule = morsels(total, morsel_windows);
    let per_morsel = try_par_map(options.parallelism, &schedule, |morsel| {
        let mut out: Vec<NoisyRelease> = Vec::with_capacity(morsel.len());
        let mut window = morsel.start;
        // A morsel may span a cell boundary; release each covered cell's
        // stretch of windows as one borrowed-slice batch.
        while window < morsel.end {
            let cell = batch.cell_of_window(window);
            let cell_windows = batch.cell_window_range(cell);
            let stretch_end = morsel.end.min(cell_windows.end);
            let rel = window - cell_windows.start;

            let mut rng = StdRng::seed_from_u64(cell_seed(seed, cell));
            // Skip to this stretch's offset in the cell's noise stream:
            // every earlier window of the cell consumed exactly
            // `draws_per_window` uniforms.
            for _ in 0..rel * draws_per_window {
                let _ = rng.gen::<f64>();
            }

            let slices: Vec<&[usize]> = (window..stretch_end).map(|w| batch.window(w)).collect();
            out.extend(mechanism.release_batch_refs(&*plan.query, &slices, &mut rng)?);
            window = stretch_end;
        }
        Ok::<_, QueryError>(out)
    })?;

    // Morsel order == global window order == cell-major order, so the
    // flattened releases split back into cells by window count.
    let mut releases = per_morsel.into_iter().flatten();
    let cells = (0..batch.num_cells())
        .map(|cell| CellResult {
            key: batch.key(cell).to_string(),
            window_ends: batch.window_ends_in_cell(cell),
            releases: releases.by_ref().take(batch.window_count(cell)).collect(),
        })
        .collect();

    Ok(QueryResult {
        mechanism: plan.chosen(),
        noise_scale: plan.noise_scale(),
        total_epsilon: plan.total_epsilon(),
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::MechanismCatalog;
    use crate::parser::parse_statement;
    use crate::plan::plan_statement;
    use crate::table::Table;
    use pufferfish_markov::IntervalClassBuilder;

    fn catalog() -> MechanismCatalog {
        MechanismCatalog::new(
            IntervalClassBuilder::symmetric(0.4)
                .grid_points(2)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn cell_zero_uses_the_raw_seed() {
        assert_eq!(cell_seed(42, 0), 42);
        assert_ne!(cell_seed(42, 1), 42);
        assert_ne!(cell_seed(42, 1), cell_seed(42, 2));
        assert_ne!(cell_seed(42, 1), cell_seed(43, 1));
    }

    #[test]
    fn auto_morsel_size_tracks_threads_and_shape() {
        let options = ExecOptions::default();
        // Single-threaded: one morsel, no re-seed overhead.
        assert_eq!(options.effective_morsel_windows(100, 1), 100);
        assert_eq!(options.effective_morsel_windows(0, 1), 1);
        // Multi-threaded: ~4 morsels per worker, clamped.
        assert_eq!(options.effective_morsel_windows(64, 4), 4);
        assert_eq!(options.effective_morsel_windows(10, 4), 1);
        assert_eq!(options.effective_morsel_windows(1_000_000, 2), 256);
        // Explicit sizes win (and are clamped to ≥ 1).
        let pinned = ExecOptions {
            parallelism: Parallelism::Serial,
            morsel_windows: Some(0),
        };
        assert_eq!(pinned.effective_morsel_windows(100, 8), 1);
    }

    #[test]
    fn execution_is_deterministic_across_parallelism_policies() {
        let catalog = catalog();
        let table = Table::grouped(
            "users",
            2,
            (0..6)
                .map(|u| {
                    (
                        format!("user-{u}"),
                        (0..40).map(|t| ((t + u) / 2) % 2).collect(),
                    )
                })
                .collect(),
        )
        .unwrap();
        let statement = parse_statement(
            "HISTOGRAM WINDOW 20 STEP 10 GROUP BY user EPSILON 0.1 MECHANISM mqm_approx",
        )
        .unwrap();
        let plan = plan_statement(&catalog, &statement, &table).unwrap();
        let serial = execute_plan(&plan, 7, Parallelism::Serial).unwrap();
        let threaded = execute_plan(&plan, 7, Parallelism::Threads(4)).unwrap();
        assert_eq!(serial, threaded);
        assert_eq!(serial.cells().len(), 6);
        assert_eq!(serial.releases(), 18);
        assert!(serial.mean_l1_error() >= 0.0);
        assert_eq!(serial.mechanism(), MechanismKind::MqmApprox);
        // Different seeds give different noise (but identical truth).
        let reseeded = execute_plan(&plan, 8, Parallelism::Serial).unwrap();
        assert_ne!(serial, reseeded);
        assert_eq!(
            serial.cells()[0].releases()[0].true_values,
            reseeded.cells()[0].releases()[0].true_values
        );
    }

    #[test]
    fn every_morsel_size_is_bitwise_identical() {
        let catalog = catalog();
        let table = Table::grouped(
            "mixed",
            2,
            vec![
                ("giant".to_string(), (0..120).map(|t| (t / 3) % 2).collect()),
                ("tiny-a".to_string(), (0..20).map(|t| t % 2).collect()),
                ("tiny-b".to_string(), (0..20).map(|t| (t / 2) % 2).collect()),
            ],
        )
        .unwrap();
        let statement = parse_statement(
            "HISTOGRAM WINDOW 20 STEP 5 GROUP BY key EPSILON 0.1 MECHANISM mqm_approx",
        )
        .unwrap();
        let plan = plan_statement(&catalog, &statement, &table).unwrap();
        let reference = execute_plan(&plan, 11, Parallelism::Serial).unwrap();
        for morsel_windows in [1, 2, 3, 7, 100] {
            for threads in [1, 2, 5] {
                let run = execute_plan_with(
                    &plan,
                    11,
                    &ExecOptions {
                        parallelism: Parallelism::Threads(threads),
                        morsel_windows: Some(morsel_windows),
                    },
                )
                .unwrap();
                assert_eq!(
                    reference, run,
                    "diverged at morsel_windows={morsel_windows}, threads={threads}"
                );
            }
        }
    }
}
