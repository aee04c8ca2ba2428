//! The correctness gate, run outside the timed section: every acknowledged
//! answer is re-derived in-process and compared bitwise, and the budget
//! accountants are checked against the acknowledged spend.
//!
//! Responses are kept as digests (per block of counters for RELEASE, per
//! request for the analyst kinds), so the client's memory does not grow
//! with the request rate.

use std::collections::{HashMap, HashSet};

use pufferfish_core::ReleaseEngine;
use pufferfish_net::{WireCell, WireQueryResult, WireWindow};
use pufferfish_query::{QueryResult, QueryService};
use pufferfish_service::{BudgetAccountant, ProgressiveRelease, RefinementSchedule, StreamBackend};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::{
    class, release_budget, release_query, scoped_user, Inputs, PROGRESSIVE_NAME, STATEMENT,
};
use crate::stats::{fold, fold_str, splitmix64};

/// Counters per RELEASE digest block.
const BLOCK: u64 = 1024;

/// Digest of one RELEASE answer, bound to its request counter.
pub fn release_entry(counter: u64, scale: f64, values: &[f64]) -> u64 {
    splitmix64(
        counter ^ fold(std::iter::once(scale.to_bits()).chain(values.iter().map(|v| v.to_bits()))),
    )
}

/// Digest of one REFINE_OK answer.
pub fn refine_digest(scale: f64, values: &[f64]) -> u64 {
    fold(std::iter::once(scale.to_bits()).chain(values.iter().map(|v| v.to_bits())))
}

/// Digest of one QUERY_OK answer: mechanism, scale, ε and every cell's
/// windows.
pub fn query_digest(result: &WireQueryResult) -> u64 {
    let mut words = vec![
        fold_str(&result.mechanism),
        result.noise_scale.to_bits(),
        result.total_epsilon.to_bits(),
    ];
    for cell in &result.cells {
        words.push(fold_str(&cell.key));
        for window in &cell.windows {
            words.push(u64::from(window.end));
            words.extend(window.values.iter().map(|v| v.to_bits()));
        }
    }
    fold(words)
}

/// A query result in wire form, built the way the server builds it (only
/// the noisy values cross the wire).
pub fn wire_result(result: &QueryResult) -> WireQueryResult {
    WireQueryResult {
        mechanism: result.mechanism().to_string(),
        noise_scale: result.noise_scale(),
        total_epsilon: result.total_epsilon(),
        cells: result
            .cells()
            .iter()
            .map(|cell| WireCell {
                key: cell.key().to_string(),
                windows: cell
                    .window_ends()
                    .iter()
                    .zip(cell.releases())
                    .map(|(&end, release)| WireWindow {
                        end: u32::try_from(end).unwrap_or(u32::MAX),
                        values: release.values.clone(),
                    })
                    .collect(),
            })
            .collect(),
    }
}

/// Order-independent digests of acknowledged RELEASE answers, one per
/// block of [`BLOCK`] consecutive counters.
#[derive(Debug, Clone)]
pub struct ReleaseBlocks {
    first: u64,
    sums: Vec<u64>,
    oks: Vec<u64>,
}

impl ReleaseBlocks {
    /// Empty digests for counters from `first` on.
    pub fn new(first: u64) -> Self {
        ReleaseBlocks {
            first,
            sums: Vec::new(),
            oks: Vec::new(),
        }
    }

    /// Folds in the answer to request `counter`.
    pub fn record(&mut self, counter: u64, scale: f64, values: &[f64]) {
        let block = ((counter - self.first) / BLOCK) as usize;
        if block >= self.sums.len() {
            self.sums.resize(block + 1, 0);
            self.oks.resize(block + 1, 0);
        }
        self.sums[block] = self.sums[block].wrapping_add(release_entry(counter, scale, values));
        self.oks[block] += 1;
    }
}

/// Re-releases every acknowledged RELEASE in `[blocks.first, end)` (less
/// `unacked`) through `engine` with `StdRng::seed_from_u64(seed)`; returns
/// how many acknowledged answers sit in blocks whose digests differ.
pub fn check_releases(
    inputs: &Inputs,
    engine: &ReleaseEngine,
    blocks: &ReleaseBlocks,
    end: u64,
    unacked: &[u64],
) -> u64 {
    let unacked: HashSet<u64> = unacked.iter().copied().collect();
    let query = release_query();
    let blocks_needed = (end - blocks.first).div_ceil(BLOCK) as usize;
    let mut wrong = 0;
    for block in 0..blocks_needed.max(blocks.sums.len()) {
        let lo = blocks.first + block as u64 * BLOCK;
        let hi = (lo + BLOCK).min(end);
        let mut expected = 0u64;
        let mut expected_oks = 0u64;
        for counter in (lo..hi).filter(|c| !unacked.contains(c)) {
            let mut rng = StdRng::seed_from_u64(inputs.request_seed(counter));
            let release = engine
                .release(&query, inputs.database(counter), release_budget(), &mut rng)
                .expect("the reference release succeeds");
            expected =
                expected.wrapping_add(release_entry(counter, release.scale, &release.values));
            expected_oks += 1;
        }
        let observed = blocks.sums.get(block).copied().unwrap_or(0);
        let oks = blocks.oks.get(block).copied().unwrap_or(0);
        if observed != expected || oks != expected_oks {
            wrong += oks.max(1);
        }
    }
    wrong
}

/// Re-runs each acknowledged QUERY on an in-process replica at the same
/// seed; returns how many digests differ.
pub fn check_queries(inputs: &Inputs, replica: &QueryService, answers: &[(u64, u64)]) -> u64 {
    let table = inputs.table();
    answers
        .iter()
        .filter(|&&(counter, digest)| {
            let expected = replica
                .query(
                    &scoped_user(inputs.user(counter)),
                    STATEMENT,
                    &table,
                    inputs.request_seed(counter),
                )
                .map(|result| query_digest(&wire_result(&result)));
            expected.ok() != Some(digest)
        })
        .count() as u64
}

/// Compares each final PROGRESSIVE refinement with the one-shot release of
/// the same window at the same seed; returns how many differ.
pub fn check_refinements(
    inputs: &Inputs,
    schedule: &RefinementSchedule,
    answers: &[(u64, u64)],
) -> u64 {
    let class = class();
    answers
        .iter()
        .filter(|&&(counter, digest)| {
            let expected = ProgressiveRelease::one_shot(
                PROGRESSIVE_NAME,
                &class,
                schedule,
                StreamBackend::MqmApprox,
                inputs.request_seed(counter),
                inputs.window(counter),
            )
            .map(|w| refine_digest(w.release.scale, &w.release.values));
            expected.ok() != Some(digest)
        })
        .count() as u64
}

/// Identities whose spend the budget check compares exactly: up to `limit`
/// distinct users, taken from the acknowledged requests in order.
pub fn sample_users(inputs: &Inputs, acked: &[u64], limit: usize) -> HashSet<u64> {
    let mut sample = HashSet::new();
    for &counter in acked {
        if sample.len() >= limit {
            break;
        }
        sample.insert(inputs.user(counter));
    }
    sample
}

/// Checks `budget` after a run: each sampled user's release count and
/// spend equal `history` prior releases plus `charges_per_request` ×
/// their acknowledged requests, and the total spend equals the preloaded
/// history plus every acknowledged request's charge (`epsilon` per
/// charge).
#[allow(clippy::too_many_arguments)]
pub fn check_budget(
    inputs: &Inputs,
    budget: &BudgetAccountant,
    acked: impl Iterator<Item = u64>,
    sample: &HashSet<u64>,
    history: usize,
    preloaded_users: u64,
    charges_per_request: usize,
    epsilon: f64,
) -> bool {
    let mut per_user: HashMap<u64, usize> = sample.iter().map(|&u| (u, 0)).collect();
    let mut total_requests = 0usize;
    for counter in acked {
        total_requests += 1;
        if let Some(count) = per_user.get_mut(&inputs.user(counter)) {
            *count += 1;
        }
    }
    let close = |actual: f64, expected: f64| (actual - expected).abs() <= 1e-9 * expected.max(1.0);
    let users_ok = per_user.iter().all(|(&user, &count)| {
        let id = scoped_user(user);
        let charges = history + count * charges_per_request;
        budget.releases(&id) == charges && close(budget.spent(&id), charges as f64 * epsilon)
    });
    let total_charges =
        history as u64 * preloaded_users + (total_requests * charges_per_request) as u64;
    users_ok && close(budget.total_spent(), total_charges as f64 * epsilon)
}
