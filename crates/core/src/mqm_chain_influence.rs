//! Exact max-influence of a node on its Markov quilt in a Markov chain —
//! Equation (5) of the paper, plus the Appendix C.4 closed-form maximisation
//! over initial distributions — and the per-node quilt choice that
//! Algorithms 2–4 share: [`best_quilt`] scores the candidates of every
//! Markov Quilt Mechanism, and [`ChainQuiltShape::candidates`] enumerates
//! them for the two chain mechanisms, in runs of growing `card(X_N)` that
//! the scorer can end early.

use std::ops::RangeInclusive;

use pufferfish_markov::TransitionPowers;

use crate::{PufferfishError, Result};

/// Probability below which an event is treated as impossible.
const ZERO_MASS: f64 = 1e-300;

/// The shape of a candidate Markov quilt for node `X_i` in a chain of length
/// `T` (Lemma 4.6 shows these shapes suffice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainQuiltShape {
    /// `X_Q = {X_{i-a}, X_{i+b}}` with nearby set `{X_{i-a+1}, …, X_{i+b-1}}`.
    TwoSided {
        /// Distance to the left quilt node (`a >= 1`).
        a: usize,
        /// Distance to the right quilt node (`b >= 1`).
        b: usize,
    },
    /// `X_Q = {X_{i-a}}`; everything to the right of `X_{i-a}` is nearby.
    LeftOnly {
        /// Distance to the left quilt node (`a >= 1`).
        a: usize,
    },
    /// `X_Q = {X_{i+b}}`; everything to the left of `X_{i+b}` is nearby.
    RightOnly {
        /// Distance to the right quilt node (`b >= 1`).
        b: usize,
    },
    /// The trivial quilt `X_Q = ∅` with `X_N = X`.
    Trivial,
}

impl ChainQuiltShape {
    /// `card(X_N)` for this quilt at (1-based) node `i` in a chain of length
    /// `t`.
    pub fn card_nearby(&self, i: usize, t: usize) -> usize {
        match *self {
            ChainQuiltShape::TwoSided { a, b } => a + b - 1,
            ChainQuiltShape::LeftOnly { a } => t - i + a,
            ChainQuiltShape::RightOnly { b } => i + b - 1,
            ChainQuiltShape::Trivial => t,
        }
    }

    /// `true` when the quilt's endpoints fall inside the chain `1..=t` for
    /// node `i`.
    pub fn fits(&self, i: usize, t: usize) -> bool {
        match *self {
            ChainQuiltShape::TwoSided { a, b } => a >= 1 && b >= 1 && i > a && i + b <= t,
            ChainQuiltShape::LeftOnly { a } => a >= 1 && i > a,
            ChainQuiltShape::RightOnly { b } => b >= 1 && i + b <= t,
            ChainQuiltShape::Trivial => i >= 1 && i <= t,
        }
    }

    /// `(a, b)`: the distances to the left and right quilt nodes, 0 for a
    /// side the quilt does not have.
    pub(crate) fn offsets(&self) -> (usize, usize) {
        match *self {
            ChainQuiltShape::TwoSided { a, b } => (a, b),
            ChainQuiltShape::LeftOnly { a } => (a, 0),
            ChainQuiltShape::RightOnly { b } => (0, b),
            ChainQuiltShape::Trivial => (0, 0),
        }
    }

    /// The `(card(X_N), shape)` candidates of the (1-based) node `i` in a
    /// chain of length `t`, in the order both chain mechanisms score them,
    /// grouped into runs along which `card(X_N)` never falls: the trivial
    /// quilt, then one run of two-sided quilts per `a` (`a` outer, `b`
    /// inner, card `a + b − 1`), then the left-only run (card `t − i + a`),
    /// then the right-only run (card `i + b − 1`).
    ///
    /// Offsets run up to `max_offset` and stay inside the chain, so every
    /// shape fits. A run ends before its first non-trivial shape with
    /// `card(X_N) > width_cap`, since every later shape of the run is at
    /// least as wide.
    pub(crate) fn candidates(
        i: usize,
        t: usize,
        max_offset: usize,
        width_cap: usize,
    ) -> impl Iterator<Item = impl Iterator<Item = (usize, ChainQuiltShape)>> {
        let (left, right) = ((i - 1).min(max_offset), (t - i).min(max_offset));
        // The run of `quilt(fixed, offset)` over `offsets`.
        let run =
            move |quilt: fn(usize, usize) -> Self, fixed: usize, offsets: RangeInclusive<usize>| {
                offsets
                    .map(move |offset| quilt(fixed, offset))
                    .map(move |shape| (shape.card_nearby(i, t), shape))
                    .take_while(move |&(card, shape)| card <= width_cap || shape == Self::Trivial)
            };
        let two_sided = (1..=left).map(move |a| run(|a, b| Self::TwoSided { a, b }, a, 1..=right));
        std::iter::once(run(|_, _| Self::Trivial, 0, 0..=0))
            .chain(two_sided)
            .chain([
                run(|_, a| Self::LeftOnly { a }, 0, 1..=left),
                run(|_, b| Self::RightOnly { b }, 0, 1..=right),
            ])
    }
}

/// The per-node quilt choice of Algorithms 2–4: among the candidates
/// (`(card(X_N), quilt)` pairs, in `runs` along which the card never
/// falls), the first strict minimum of the score `card / (ε − e)` over the
/// quilts whose max-influence `e = influence(quilt)` is below ε. Returns
/// `(score, e, quilt)`, or `None` when no candidate has `e < ε`.
///
/// A candidate whose `card / ε` already reaches the best score is skipped
/// without computing its influence, and so is the rest of its run. The skip
/// is exact:
/// * every influence function the mechanisms pass returns a value ≥ 0 or
///   `+∞` — [`chain_max_influence`], [`chain_max_influence_cached`] and
///   `pufferfish_bayesnet::max_influence` start their maximum at 0, and
///   MQMApprox's closed-form bound is 0, a sum of `ln((π + d) / (π − d))`
///   terms with `π − d > 0`, or `+∞`;
/// * for `0 ≤ e < ε` the rounded `ε − e` lies in `(0, ε]`, and IEEE division
///   is monotone, so a skipped candidate's score is ≥ `card / ε` ≥ the best
///   score, which the strict `<` rejects anyway (as it does any `e ≥ ε`);
/// * within a run `card as f64` never falls, and IEEE division by ε is
///   monotone, so each later candidate of the run has `card / ε` at least
///   that of the candidate that stopped the run, hence at least the best
///   score then; the best score only falls, so a scan that tested each of
///   them would skip it too.
///
/// The same influences are therefore evaluated, in the same order, as by a
/// scan that tests every candidate of the runs laid end to end, and the
/// winner, its score and its influence are bitwise those of the unpruned
/// scan. A skipped candidate's influence is never computed, so an error it
/// would raise does not surface. A caller without an order of growing card
/// passes each candidate as a run of one.
///
/// # Errors
/// The first error `influence` returns.
pub(crate) fn best_quilt<Q, R: IntoIterator<Item = (usize, Q)>>(
    epsilon: f64,
    runs: impl IntoIterator<Item = R>,
    mut influence: impl FnMut(&Q) -> Result<f64>,
) -> Result<Option<(f64, f64, Q)>> {
    let mut best: Option<(f64, f64, Q)> = None;
    for run in runs {
        for (card, quilt) in run {
            let card = card as f64;
            let best_score = best.as_ref().map(|&(score, _, _)| score);
            if best_score.is_some_and(|best_score| card / epsilon >= best_score) {
                break;
            }
            let e = influence(&quilt)?;
            if e < epsilon {
                let score = card / (epsilon - e);
                if best_score.is_none_or(|best_score| score < best_score) {
                    best = Some((score, e, quilt));
                }
            }
        }
    }
    Ok(best)
}

/// How to treat the initial distribution when maximising the influence over
/// the class Θ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitialDistributionMode {
    /// Use the chain's own initial distribution (`Θ` pins down `q_θ`); the
    /// marginal `P(X_i)` is read from the precomputed table.
    #[default]
    FixedInitial,
    /// `Θ` contains *all* initial distributions (Appendix C.4): the marginal
    /// ratio is maximised in closed form,
    /// `max_q (q^T P^{i-1})(x') / (q^T P^{i-1})(x) = max_y P^{i-1}(y, x') / P^{i-1}(y, x)`.
    AllInitials,
}

/// Computes the exact max-influence `e_{θ}(X_Q | X_i)` of Equation (5) for a
/// quilt of the given shape around the (1-based) node `i`.
///
/// Returns `f64::INFINITY` when some quilt assignment is possible under one
/// value of `X_i` and impossible under another.
///
/// # Errors
/// * [`PufferfishError::InvalidQuery`] if the quilt does not fit the chain or
///   `i` is out of range.
/// * Substrate errors if the required matrix powers or marginals were not
///   precomputed in `powers`.
pub fn chain_max_influence(
    powers: &TransitionPowers,
    i: usize,
    shape: ChainQuiltShape,
    mode: InitialDistributionMode,
) -> Result<f64> {
    // Left offsets must stay inside the chain; right offsets are bounded by
    // the cached powers and checked there. Chain-length bounds are the
    // caller's responsibility (MqmExact enumerates only fitting quilts).
    let (a, b) = shape.offsets();
    if i == 0 || (a > 0 && i <= a) {
        return Err(PufferfishError::InvalidQuery(format!(
            "quilt {shape:?} does not fit node {i}"
        )));
    }
    if matches!(shape, ChainQuiltShape::Trivial) {
        return Ok(0.0);
    }
    // The reference path: the backward and forward log-ratios are scanned
    // on the fly.
    SecretPairs::new(powers, i, mode)?.max_influence(
        powers,
        (a > 0).then_some(|x, x_prime| backward_log_ratio(powers, a, x, x_prime)),
        (b > 0).then_some(|x, x_prime| forward_log_ratio(powers, b, x, x_prime)),
    )
}

/// The ordered pairs of secrets Equation (5) maximises over at one
/// evaluation index `i`: the feasible values of `X_i` (positive marginal
/// probability) and, once a quilt with a left side needs it, the marginal
/// log-ratio of every pair. Neither depends on the quilt, so a quilt search
/// that keeps the pairs of its current index pays each marginal term's `ln`
/// once per index instead of once per quilt.
pub(crate) struct SecretPairs {
    index: usize,
    mode: InitialDistributionMode,
    num_states: usize,
    feasible: Vec<usize>,
    /// `marginal[x * k + x']` = `marginal_log_ratio(i, x, x')`, tabulated
    /// the first time a quilt with a left side is evaluated.
    marginal: Vec<f64>,
}

impl SecretPairs {
    fn new(powers: &TransitionPowers, i: usize, mode: InitialDistributionMode) -> Result<Self> {
        let k = powers.num_states();
        let feasible = match mode {
            InitialDistributionMode::FixedInitial => {
                let marginal = powers.marginal(i)?;
                (0..k).filter(|&x| marginal[x] > ZERO_MASS).collect()
            }
            InitialDistributionMode::AllInitials => (0..k).collect(),
        };
        Ok(SecretPairs {
            index: i,
            mode,
            num_states: k,
            feasible,
            marginal: Vec::new(),
        })
    }

    /// Equation (5)'s one secret-pair loop: the maximum over ordered pairs
    /// `(x, x')` of the marginal plus `backward` log-ratio (for a quilt with
    /// a left side) plus the `forward` log-ratio (with a right side), or
    /// `+∞` as soon as a term it adds is infinite.
    fn max_influence(
        &mut self,
        powers: &TransitionPowers,
        backward: Option<impl Fn(usize, usize) -> Result<f64>>,
        forward: Option<impl Fn(usize, usize) -> Result<f64>>,
    ) -> Result<f64> {
        if self.feasible.len() < 2 {
            // With at most one feasible value there is no secret pair to protect.
            return Ok(0.0);
        }
        let k = self.num_states;
        if backward.is_some() && self.marginal.is_empty() {
            self.marginal = vec![0.0; k * k];
            for &x in &self.feasible {
                for &x_prime in self.feasible.iter().filter(|&&x_prime| x_prime != x) {
                    self.marginal[x * k + x_prime] =
                        marginal_log_ratio(powers, self.index, x, x_prime, self.mode)?;
                }
            }
        }
        let mut worst: f64 = 0.0;
        for &x in &self.feasible {
            for &x_prime in self.feasible.iter().filter(|&&x_prime| x_prime != x) {
                let mut total = 0.0;
                if let Some(backward) = &backward {
                    let marginal_term = self.marginal[x * k + x_prime];
                    let backward_term = backward(x, x_prime)?;
                    if marginal_term.is_infinite() || backward_term.is_infinite() {
                        return Ok(f64::INFINITY);
                    }
                    total += marginal_term + backward_term;
                }
                if let Some(forward) = &forward {
                    let forward_term = forward(x, x_prime)?;
                    if forward_term.is_infinite() {
                        return Ok(f64::INFINITY);
                    }
                    total += forward_term;
                }
                worst = worst.max(total);
            }
        }
        Ok(worst)
    }
}

/// Precomputed backward/forward log-ratio tables for every quilt offset of
/// one chain — the inner-loop cache of the MQMExact quilt search.
///
/// [`chain_max_influence`] spends `O(k)` per secret pair scanning
/// `max_z log P^a(z, x) / P^a(z, x')` (and the forward analogue), and the
/// quilt search evaluates the same offsets for thousands of `(a, b)`
/// candidates. These ratios depend only on the offset — not on the node or
/// the quilt — so this table computes each of them exactly once per θ,
/// turning a quilt evaluation from `O(k³)` into `O(k²)`. On the paper's
/// 51-state electricity chains this is a ~50× calibration speedup.
///
/// [`chain_max_influence_cached`] consumes the table and produces **bitwise
/// identical** results to [`chain_max_influence`] (asserted by the unit
/// tests): the entries are produced by the very same scan functions, and
/// both run the same secret-pair loop.
#[derive(Debug, Clone)]
pub struct ChainInfluenceTables {
    num_states: usize,
    /// `back[a - 1][x * k + x']` = `max_z log P^a(z, x) / P^a(z, x')`.
    back: Vec<Vec<f64>>,
    /// `fwd[b - 1][x * k + x']` = `max_v log P^b(x, v) / P^b(x', v)`.
    fwd: Vec<Vec<f64>>,
}

impl ChainInfluenceTables {
    /// Precomputes the ratio tables for offsets `1..=max_offset`.
    ///
    /// # Errors
    /// [`pufferfish_markov::MarkovError`] (wrapped) when an offset exceeds
    /// the powers cached in `powers`.
    pub fn new(powers: &TransitionPowers, max_offset: usize) -> Result<Self> {
        let k = powers.num_states();
        let mut back = Vec::with_capacity(max_offset);
        let mut fwd = Vec::with_capacity(max_offset);
        for offset in 1..=max_offset {
            let mut back_table = vec![0.0; k * k];
            let mut fwd_table = vec![0.0; k * k];
            for x in 0..k {
                for x_prime in 0..k {
                    if x == x_prime {
                        continue;
                    }
                    back_table[x * k + x_prime] = backward_log_ratio(powers, offset, x, x_prime)?;
                    fwd_table[x * k + x_prime] = forward_log_ratio(powers, offset, x, x_prime)?;
                }
            }
            back.push(back_table);
            fwd.push(fwd_table);
        }
        Ok(ChainInfluenceTables {
            num_states: k,
            back,
            fwd,
        })
    }

    /// The largest offset the tables cover.
    pub fn max_offset(&self) -> usize {
        self.back.len()
    }

    /// [`chain_max_influence_cached`] through `pairs`, the secret pairs of
    /// the last index evaluated: they are reused when `i` is that index and
    /// replaced otherwise. `pairs` must come from the same `powers` and
    /// `mode`.
    pub(crate) fn influence(
        &self,
        powers: &TransitionPowers,
        pairs: &mut Option<SecretPairs>,
        i: usize,
        shape: ChainQuiltShape,
        mode: InitialDistributionMode,
    ) -> Result<f64> {
        let (a, b) = shape.offsets();
        if i == 0 || (a > 0 && i <= a) {
            return Err(PufferfishError::InvalidQuery(format!(
                "quilt {shape:?} does not fit node {i}"
            )));
        }
        if matches!(shape, ChainQuiltShape::Trivial) {
            return Ok(0.0);
        }
        if a > self.max_offset() || b > self.max_offset() {
            return Err(PufferfishError::InvalidQuery(format!(
                "quilt {shape:?} exceeds the cached offset horizon {}",
                self.max_offset()
            )));
        }
        if pairs.as_ref().is_none_or(|pairs| pairs.index != i) {
            *pairs = Some(SecretPairs::new(powers, i, mode)?);
        }
        let k = self.num_states;
        pairs.as_mut().expect("pairs set above").max_influence(
            powers,
            (a > 0).then(|| lookup(&self.back[a - 1], k)),
            (b > 0).then(|| lookup(&self.fwd[b - 1], k)),
        )
    }
}

/// A pair's entry in a `k × k` log-ratio table.
fn lookup(table: &[f64], k: usize) -> impl Fn(usize, usize) -> Result<f64> + '_ {
    move |x, x_prime| Ok(table[x * k + x_prime])
}

/// [`chain_max_influence`] evaluated through precomputed
/// [`ChainInfluenceTables`] — identical semantics and bitwise-identical
/// results, minus the per-quilt `O(k)` ratio scans.
///
/// # Errors
/// Same as [`chain_max_influence`], plus [`PufferfishError::InvalidQuery`]
/// when the quilt uses an offset beyond [`ChainInfluenceTables::max_offset`].
pub fn chain_max_influence_cached(
    powers: &TransitionPowers,
    tables: &ChainInfluenceTables,
    i: usize,
    shape: ChainQuiltShape,
    mode: InitialDistributionMode,
) -> Result<f64> {
    tables.influence(powers, &mut None, i, shape, mode)
}

/// `log P(X_i = x') / P(X_i = x)`, maximised over the initial distribution
/// when the class allows all of them.
fn marginal_log_ratio(
    powers: &TransitionPowers,
    i: usize,
    x: usize,
    x_prime: usize,
    mode: InitialDistributionMode,
) -> Result<f64> {
    match mode {
        InitialDistributionMode::FixedInitial => {
            let marginal = powers.marginal(i)?;
            let numerator = marginal[x_prime];
            let denominator = marginal[x];
            if denominator <= ZERO_MASS {
                // x was filtered to be feasible, so this cannot happen; guard
                // anyway.
                return Ok(f64::INFINITY);
            }
            if numerator <= ZERO_MASS {
                return Ok(f64::NEG_INFINITY);
            }
            Ok((numerator / denominator).ln())
        }
        InitialDistributionMode::AllInitials => {
            if i == 1 {
                // The first state is drawn directly from q; the ratio
                // q(x')/q(x) is unbounded over all initial distributions.
                return Ok(f64::INFINITY);
            }
            // One `ln` of the largest ratio, as in `backward_log_ratio`.
            let p = powers.power(i - 1)?;
            let k = powers.num_states();
            let mut best: f64 = 0.0;
            for y in 0..k {
                let numerator = p[(y, x_prime)];
                let denominator = p[(y, x)];
                if numerator <= ZERO_MASS {
                    continue;
                }
                if denominator <= ZERO_MASS {
                    return Ok(f64::INFINITY);
                }
                best = best.max(numerator / denominator);
            }
            if best == 0.0 {
                // No start state reaches x' in i − 1 steps.
                return Ok(f64::NEG_INFINITY);
            }
            Ok(best.ln())
        }
    }
}

/// `max_z log P^a(z, x) / P^a(z, x')`.
///
/// Keeps the largest ratio and takes one `ln` at the end, as
/// [`forward_log_ratio`] does: `ln` is monotone, so that is the largest of
/// the per-state logs, at one `ln` per secret pair instead of one per state.
/// Every kept ratio is positive (both terms exceed `ZERO_MASS`), so `0.0`
/// marks "no state qualified".
fn backward_log_ratio(
    powers: &TransitionPowers,
    a: usize,
    x: usize,
    x_prime: usize,
) -> Result<f64> {
    let p = powers.power(a)?;
    let k = powers.num_states();
    let mut best: f64 = 0.0;
    for z in 0..k {
        let numerator = p[(z, x)];
        let denominator = p[(z, x_prime)];
        if numerator <= ZERO_MASS {
            continue;
        }
        if denominator <= ZERO_MASS {
            return Ok(f64::INFINITY);
        }
        best = best.max(numerator / denominator);
    }
    if best == 0.0 {
        // x unreachable from every state in `a` steps: the secret X_i = x is
        // impossible in the interior of the chain, so nothing to protect.
        return Ok(0.0);
    }
    Ok(best.ln())
}

/// `max_v log P^b(x, v) / P^b(x', v)`, with one `ln` as in
/// [`backward_log_ratio`].
fn forward_log_ratio(powers: &TransitionPowers, b: usize, x: usize, x_prime: usize) -> Result<f64> {
    let p = powers.power(b)?;
    let k = powers.num_states();
    let mut best: f64 = 0.0;
    for v in 0..k {
        let numerator = p[(x, v)];
        let denominator = p[(x_prime, v)];
        if numerator <= ZERO_MASS {
            continue;
        }
        if denominator <= ZERO_MASS {
            return Ok(f64::INFINITY);
        }
        best = best.max(numerator / denominator);
    }
    if best == 0.0 {
        return Ok(0.0);
    }
    Ok(best.ln())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EpsilonGrid;
    use proptest::prelude::*;
    use pufferfish_markov::{IntervalClassBuilder, MarkovChain};
    use std::cell::Cell;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    /// The Section 4.3 composition-example chain: T = 3, q = [0.8, 0.2],
    /// P = [[0.9, 0.1], [0.4, 0.6]].
    fn section_4_3_powers() -> TransitionPowers {
        let chain = MarkovChain::new(vec![0.8, 0.2], vec![vec![0.9, 0.1], vec![0.4, 0.6]]).unwrap();
        TransitionPowers::new(&chain, 2, 3).unwrap()
    }

    #[test]
    fn card_nearby_and_fits() {
        let two = ChainQuiltShape::TwoSided { a: 5, b: 5 };
        assert_eq!(two.card_nearby(8, 100), 9);
        assert!(two.fits(8, 100));
        assert!(!two.fits(5, 100));
        assert!(!two.fits(96, 100));

        let left = ChainQuiltShape::LeftOnly { a: 2 };
        assert_eq!(left.card_nearby(6, 10), 6);
        assert!(left.fits(6, 10));
        assert!(!left.fits(2, 10));

        let right = ChainQuiltShape::RightOnly { b: 4 };
        assert_eq!(right.card_nearby(6, 10), 9);
        assert!(right.fits(6, 10));
        assert!(!right.fits(7, 10));

        let trivial = ChainQuiltShape::Trivial;
        assert_eq!(trivial.card_nearby(3, 10), 10);
        assert!(trivial.fits(3, 10));
    }

    #[test]
    fn section_4_3_example_influences() {
        // Middle node X_2 (1-based): quilts ∅, {X_1}, {X_3}, {X_1, X_3}
        // have max-influence 0, log 6, log 6, log 36.
        let powers = section_4_3_powers();
        let mode = InitialDistributionMode::FixedInitial;

        let trivial = chain_max_influence(&powers, 2, ChainQuiltShape::Trivial, mode).unwrap();
        assert!(close(trivial, 0.0));

        let left =
            chain_max_influence(&powers, 2, ChainQuiltShape::LeftOnly { a: 1 }, mode).unwrap();
        assert!(close(left, 6.0f64.ln()), "left = {left}");

        let right =
            chain_max_influence(&powers, 2, ChainQuiltShape::RightOnly { b: 1 }, mode).unwrap();
        assert!(close(right, 6.0f64.ln()), "right = {right}");

        let both = chain_max_influence(&powers, 2, ChainQuiltShape::TwoSided { a: 1, b: 1 }, mode)
            .unwrap();
        assert!(close(both, 36.0f64.ln()), "both = {both}");
    }

    #[test]
    fn agrees_with_bayesnet_enumeration_on_longer_chain() {
        // Cross-check Equation (5) against brute-force enumeration on a
        // 5-node chain with a non-stationary start.
        let chain = MarkovChain::new(vec![0.3, 0.7], vec![vec![0.7, 0.3], vec![0.2, 0.8]]).unwrap();
        let powers = TransitionPowers::new(&chain, 4, 5).unwrap();

        let dag = pufferfish_bayesnet::Dag::chain(5);
        let mut net = pufferfish_bayesnet::DiscreteBayesianNetwork::new(dag, vec![2; 5]).unwrap();
        net.set_cpd(0, vec![vec![0.3, 0.7]]).unwrap();
        for node in 1..5 {
            net.set_cpd(node, vec![vec![0.7, 0.3], vec![0.2, 0.8]])
                .unwrap();
        }

        // Two-sided quilt {X_1, X_5} around X_3 (1-based) = nodes {0, 4}
        // around node 2 (0-based).
        let exact = chain_max_influence(
            &powers,
            3,
            ChainQuiltShape::TwoSided { a: 2, b: 2 },
            InitialDistributionMode::FixedInitial,
        )
        .unwrap();
        let brute = pufferfish_bayesnet::max_influence_single(&net, 2, &[0, 4]).unwrap();
        assert!(close(exact, brute), "exact {exact} vs brute {brute}");

        // Left-only quilt {X_2} of X_4 = node 1 around node 3.
        let exact = chain_max_influence(
            &powers,
            4,
            ChainQuiltShape::LeftOnly { a: 2 },
            InitialDistributionMode::FixedInitial,
        )
        .unwrap();
        let brute = pufferfish_bayesnet::max_influence_single(&net, 3, &[1]).unwrap();
        assert!(close(exact, brute), "exact {exact} vs brute {brute}");

        // Right-only quilt {X_4} of X_2.
        let exact = chain_max_influence(
            &powers,
            2,
            ChainQuiltShape::RightOnly { b: 2 },
            InitialDistributionMode::FixedInitial,
        )
        .unwrap();
        let brute = pufferfish_bayesnet::max_influence_single(&net, 1, &[3]).unwrap();
        assert!(close(exact, brute), "exact {exact} vs brute {brute}");
    }

    #[test]
    fn all_initials_mode_upper_bounds_fixed_initial() {
        let chain = MarkovChain::new(vec![0.5, 0.5], vec![vec![0.8, 0.2], vec![0.3, 0.7]]).unwrap();
        let powers = TransitionPowers::new(&chain, 6, 8).unwrap();
        for i in [3usize, 5] {
            for shape in [
                ChainQuiltShape::TwoSided { a: 2, b: 2 },
                ChainQuiltShape::LeftOnly { a: 2 },
            ] {
                let fixed =
                    chain_max_influence(&powers, i, shape, InitialDistributionMode::FixedInitial)
                        .unwrap();
                let all =
                    chain_max_influence(&powers, i, shape, InitialDistributionMode::AllInitials)
                        .unwrap();
                assert!(
                    all >= fixed - 1e-9,
                    "shape {shape:?}: all {all} < fixed {fixed}"
                );
            }
        }
    }

    #[test]
    fn right_only_quilts_do_not_depend_on_initial_mode() {
        let chain = MarkovChain::new(vec![0.9, 0.1], vec![vec![0.8, 0.2], vec![0.3, 0.7]]).unwrap();
        let powers = TransitionPowers::new(&chain, 4, 8).unwrap();
        let shape = ChainQuiltShape::RightOnly { b: 3 };
        let fixed =
            chain_max_influence(&powers, 4, shape, InitialDistributionMode::FixedInitial).unwrap();
        let all =
            chain_max_influence(&powers, 4, shape, InitialDistributionMode::AllInitials).unwrap();
        assert!(close(fixed, all));
    }

    #[test]
    fn deterministic_transitions_give_infinite_influence() {
        // A deterministic cycle: observing a neighbour reveals X_i exactly.
        let chain = MarkovChain::new(vec![0.5, 0.5], vec![vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let powers = TransitionPowers::new(&chain, 2, 4).unwrap();
        let influence = chain_max_influence(
            &powers,
            2,
            ChainQuiltShape::RightOnly { b: 1 },
            InitialDistributionMode::FixedInitial,
        )
        .unwrap();
        assert!(influence.is_infinite());
    }

    #[test]
    fn influence_decreases_with_distance() {
        let chain = MarkovChain::new(vec![0.5, 0.5], vec![vec![0.8, 0.2], vec![0.3, 0.7]]).unwrap();
        let powers = TransitionPowers::new(&chain, 10, 21).unwrap();
        let mut previous = f64::INFINITY;
        for b in 1..=8 {
            let influence = chain_max_influence(
                &powers,
                5,
                ChainQuiltShape::RightOnly { b },
                InitialDistributionMode::FixedInitial,
            )
            .unwrap();
            assert!(
                influence <= previous + 1e-12,
                "b={b}: {influence} > {previous}"
            );
            previous = influence;
        }
        // Far-away quilt nodes have almost no influence left.
        assert!(previous < 0.05);
    }

    #[test]
    fn cached_tables_match_direct_computation_bitwise() {
        // Across chains (including ones with zero transition entries and
        // non-stationary starts), every shape/offset/mode combination must
        // agree bit for bit between the direct and the table-cached path.
        let chains = [
            MarkovChain::new(vec![0.8, 0.2], vec![vec![0.9, 0.1], vec![0.4, 0.6]]).unwrap(),
            MarkovChain::new(vec![1.0, 0.0], vec![vec![0.5, 0.5], vec![1.0, 0.0]]).unwrap(),
            MarkovChain::new(
                vec![0.2, 0.3, 0.5],
                vec![
                    vec![0.6, 0.3, 0.1],
                    vec![0.2, 0.5, 0.3],
                    vec![0.1, 0.2, 0.7],
                ],
            )
            .unwrap(),
        ];
        for chain in &chains {
            let t = 9;
            let powers = TransitionPowers::new(chain, t - 1, t).unwrap();
            let tables = ChainInfluenceTables::new(&powers, t - 1).unwrap();
            assert_eq!(tables.max_offset(), t - 1);
            for mode in [
                InitialDistributionMode::FixedInitial,
                InitialDistributionMode::AllInitials,
            ] {
                for i in 1..=t {
                    for a in 1..i {
                        for b in 1..=(t - i) {
                            for shape in [
                                ChainQuiltShape::TwoSided { a, b },
                                ChainQuiltShape::LeftOnly { a },
                                ChainQuiltShape::RightOnly { b },
                                ChainQuiltShape::Trivial,
                            ] {
                                let direct = chain_max_influence(&powers, i, shape, mode).unwrap();
                                let cached =
                                    chain_max_influence_cached(&powers, &tables, i, shape, mode)
                                        .unwrap();
                                assert_eq!(
                                    direct.to_bits(),
                                    cached.to_bits(),
                                    "chain {chain:?} node {i} shape {shape:?} mode {mode:?}: \
                                     direct {direct} vs cached {cached}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    prop_compose! {
        /// A random 2- or 3-state chain; entries drawn with kind 0 are zero,
        /// so chains may be reducible, periodic or start off-support.
        fn random_chain()(k in 2usize..4, draws in collection::vec((0.0f64..1.0, 0u8..4), 12))
            -> MarkovChain {
            let row = |cells: &[(f64, u8)]| -> Vec<f64> {
                let weights: Vec<f64> =
                    cells.iter().map(|&(w, kind)| if kind == 0 { 0.0 } else { w + 1e-3 }).collect();
                let sum: f64 = weights.iter().sum();
                if sum > 0.0 {
                    weights.iter().map(|w| w / sum).collect()
                } else {
                    vec![1.0 / k as f64; k]
                }
            };
            let transition = (0..k).map(|r| row(&draws[k * (r + 1)..k * (r + 2)])).collect();
            MarkovChain::new(row(&draws[..k]), transition).unwrap()
        }
    }

    prop_compose! {
        /// A random 2- or 3-state chain, as `(initial, transition rows)`,
        /// with every probability positive.
        fn positive_chain()(k in 2usize..4, draws in collection::vec(0.0f64..1.0, 12))
            -> (Vec<f64>, Vec<Vec<f64>>) {
            let row = |cells: &[f64]| -> Vec<f64> {
                let sum: f64 = cells.iter().map(|w| w + 0.05).sum();
                cells.iter().map(|w| (w + 0.05) / sum).collect()
            };
            let transition = (0..k).map(|r| row(&draws[k * (r + 1)..k * (r + 2)])).collect();
            (row(&draws[..k]), transition)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Equation (5) against an independent reference: brute-force
        /// enumeration of the same chain built as a Bayesian network, for
        /// every fitting quilt at every node.
        #[test]
        fn closed_form_matches_bayesnet_enumeration(rows in positive_chain(), t in 2usize..7) {
            let (initial, transition) = rows;
            let k = initial.len();
            let chain = MarkovChain::new(initial.clone(), transition.clone()).unwrap();
            let powers = TransitionPowers::new(&chain, t - 1, t).unwrap();
            let dag = pufferfish_bayesnet::Dag::chain(t);
            let mut net = pufferfish_bayesnet::DiscreteBayesianNetwork::new(dag, vec![k; t]).unwrap();
            net.set_cpd(0, vec![initial]).unwrap();
            for node in 1..t {
                net.set_cpd(node, transition.clone()).unwrap();
            }
            for i in 1..=t {
                for (_, shape) in ChainQuiltShape::candidates(i, t, t, t).flatten() {
                    let (a, b) = shape.offsets();
                    let quilt: Vec<usize> = [(a > 0).then(|| i - 1 - a), (b > 0).then(|| i - 1 + b)]
                        .into_iter()
                        .flatten()
                        .collect();
                    let exact =
                        chain_max_influence(&powers, i, shape, InitialDistributionMode::FixedInitial)
                            .unwrap();
                    let brute = pufferfish_bayesnet::max_influence_single(&net, i - 1, &quilt).unwrap();
                    prop_assert!(close(exact, brute), "{shape:?} at node {i}: exact {exact} vs brute {brute}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The invariant `best_quilt`'s prune rests on: both influence paths
        /// return a value >= 0 (or +inf) for every fitting shape.
        #[test]
        fn chain_influences_are_never_negative(chain in random_chain(), t in 2usize..8) {
            let powers = TransitionPowers::new(&chain, t - 1, t).unwrap();
            let tables = ChainInfluenceTables::new(&powers, t - 1).unwrap();
            use InitialDistributionMode::{AllInitials, FixedInitial};
            for mode in [FixedInitial, AllInitials] {
                for i in 1..=t {
                    for (_, shape) in ChainQuiltShape::candidates(i, t, t, t).flatten() {
                        let direct = chain_max_influence(&powers, i, shape, mode).unwrap();
                        let cached =
                            chain_max_influence_cached(&powers, &tables, i, shape, mode).unwrap();
                        prop_assert!(direct >= 0.0, "{shape:?} at node {i}, {mode:?}: {direct}");
                        prop_assert!(cached >= 0.0, "{shape:?} at node {i}, {mode:?}: {cached}");
                    }
                }
            }
        }

        /// `best_quilt` agrees bitwise with an unpruned first-strict-minimum
        /// scan, and evaluates no more influences than the scan does, on
        /// candidates in no order of card (each a run of one).
        #[test]
        fn best_quilt_matches_an_unpruned_scan(
            epsilon in 0.01f64..10.0,
            t in 1usize..12,
            draws in collection::vec((0usize..64, 0u8..7, 0.0f64..1.0), 1..40),
        ) {
            let candidates: Vec<(usize, f64)> = draws
                .iter()
                .map(|&(card, kind, x)| (1 + card % t, drawn_influence(epsilon, kind, x)))
                .collect();

            let mut scan: Option<(f64, f64, usize)> = None;
            for (index, &(card, e)) in candidates.iter().enumerate() {
                if e < epsilon {
                    let score = card as f64 / (epsilon - e);
                    if scan.is_none_or(|(best, _, _)| score < best) {
                        scan = Some((score, e, index));
                    }
                }
            }

            let mut calls = 0;
            let indexed = candidates
                .iter()
                .enumerate()
                .map(|(index, &(card, _))| std::iter::once((card, index)));
            let pruned = best_quilt(epsilon, indexed, |&index| {
                calls += 1;
                Ok(candidates[index].1)
            })
            .unwrap();
            prop_assert_eq!(bits(pruned), bits(scan));
            prop_assert!(calls <= candidates.len());
        }

        /// Over the chain candidates, ending a run at its first rejected
        /// candidate changes nothing: `best_quilt` returns bitwise the
        /// unpruned first strict minimum over the flat candidate order, and
        /// evaluates the influences of exactly the shapes, in the same
        /// order, that the flat search does.
        #[test]
        fn run_aware_search_matches_the_flat_scan(
            epsilon in 0.01f64..10.0,
            t in 1usize..13,
            node in 0usize..64,
            max_offset in 1usize..13,
            width_cap in 1usize..13,
            draws in collection::vec((0u8..7, 0.0f64..1.0), 1..40),
        ) {
            let i = 1 + node % t;
            let flat = expected_runs(i, t, max_offset, width_cap).concat();
            let influence = |shape: ChainQuiltShape| {
                let position = flat.iter().position(|&(_, s)| s == shape).expect("a listed shape");
                let (kind, x) = draws[position % draws.len()];
                drawn_influence(epsilon, kind, x)
            };

            let mut unpruned: Option<(f64, f64, ChainQuiltShape)> = None;
            for &(card, shape) in &flat {
                let e = influence(shape);
                if e < epsilon {
                    let score = card as f64 / (epsilon - e);
                    if unpruned.is_none_or(|(best, _, _)| score < best) {
                        unpruned = Some((score, e, shape));
                    }
                }
            }
            let (flat_best, flat_calls) = flat_search(epsilon, &flat, influence);

            let mut calls = Vec::new();
            let runs = ChainQuiltShape::candidates(i, t, max_offset, width_cap);
            let best = best_quilt(epsilon, runs, |&shape| {
                calls.push(shape);
                Ok(influence(shape))
            })
            .unwrap();
            prop_assert_eq!(bits(best), bits(unpruned));
            prop_assert_eq!(bits(flat_best), bits(unpruned));
            prop_assert_eq!(calls, flat_calls);
        }
    }

    /// A search result with its score and influence as bits.
    fn bits<Q>(best: Option<(f64, f64, Q)>) -> Option<(u64, u64, Q)> {
        best.map(|(score, e, quilt)| (score.to_bits(), e.to_bits(), quilt))
    }

    /// An influence of one of seven kinds for a random draw: 0, small, tied,
    /// just below ε, at ε, above ε and +∞.
    fn drawn_influence(epsilon: f64, kind: u8, x: f64) -> f64 {
        match kind {
            0 => 0.0,
            1 => x * 1e-3 * epsilon,
            2 => (x * 4.0).floor() / 4.0 * epsilon,
            3 => f64::from_bits(epsilon.to_bits() - 1),
            4 => epsilon,
            5 => epsilon * (1.0 + x),
            _ => f64::INFINITY,
        }
    }

    /// The runs `ChainQuiltShape::candidates` should yield, built
    /// independently: the trivial quilt, one two-sided run per `a`, the
    /// left-only and the right-only run, with the width cap applied as a
    /// filter. Laid end to end they are the flat candidate order.
    fn expected_runs(
        i: usize,
        t: usize,
        max_offset: usize,
        width_cap: usize,
    ) -> Vec<Vec<(usize, ChainQuiltShape)>> {
        let (left, right) = ((i - 1).min(max_offset), (t - i).min(max_offset));
        let mut runs = vec![vec![(t, ChainQuiltShape::Trivial)]];
        for a in 1..=left {
            runs.push(
                (1..=right)
                    .map(|b| (a + b - 1, ChainQuiltShape::TwoSided { a, b }))
                    .collect(),
            );
        }
        runs.push(
            (1..=left)
                .map(|a| (t - i + a, ChainQuiltShape::LeftOnly { a }))
                .collect(),
        );
        runs.push(
            (1..=right)
                .map(|b| (i + b - 1, ChainQuiltShape::RightOnly { b }))
                .collect(),
        );
        for run in &mut runs {
            run.retain(|&(card, shape)| shape == ChainQuiltShape::Trivial || card <= width_cap);
        }
        runs
    }

    /// The flat search: every candidate is tested in turn, and one whose
    /// `card / ε` reaches the best score is skipped on its own. Returns the
    /// winner and the shapes whose influence it evaluated, in order.
    fn flat_search(
        epsilon: f64,
        flat: &[(usize, ChainQuiltShape)],
        mut influence: impl FnMut(ChainQuiltShape) -> f64,
    ) -> (Option<(f64, f64, ChainQuiltShape)>, Vec<ChainQuiltShape>) {
        let mut best: Option<(f64, f64, ChainQuiltShape)> = None;
        let mut calls = Vec::new();
        for &(card, shape) in flat {
            let card = card as f64;
            let best_score = best.map(|(score, _, _)| score);
            if best_score.is_some_and(|best_score| card / epsilon >= best_score) {
                continue;
            }
            calls.push(shape);
            let e = influence(shape);
            if e < epsilon {
                let score = card / (epsilon - e);
                if best_score.is_none_or(|best_score| score < best_score) {
                    best = Some((score, e, shape));
                }
            }
        }
        (best, calls)
    }

    #[test]
    fn candidates_come_in_scoring_order_and_respect_the_caps() {
        for (i, t, max_offset, width_cap) in [
            (1, 1, 1, 1),
            (2, 3, 2, 3),
            (8, 100, 99, 100),
            (50, 100, 12, 12),
            (5, 9, 3, 5),
        ] {
            let runs: Vec<Vec<_>> = ChainQuiltShape::candidates(i, t, max_offset, width_cap)
                .map(Iterator::collect)
                .collect();
            assert_eq!(
                runs,
                expected_runs(i, t, max_offset, width_cap),
                "node {i} of {t}"
            );
            for run in runs {
                assert!(run.windows(2).all(|pair| pair[0].0 <= pair[1].0), "{run:?}");
                for (card, shape) in run {
                    assert!(shape.fits(i, t), "{shape:?} at node {i} of {t}");
                    assert_eq!(card, shape.card_nearby(i, t));
                }
            }
        }
    }

    /// MQMExact's node sweep over the benchmark's analyst class (4 chains,
    /// T 100) at the scale index's 8 grid ε: the run-aware search evaluates
    /// the same influences as the flat search, and looks at a small share of
    /// the candidates the flat search walks.
    #[test]
    fn run_aware_search_visits_far_fewer_candidates_on_the_analyst_class() {
        let class = IntervalClassBuilder::symmetric(0.4)
            .grid_points(2)
            .build()
            .unwrap();
        assert!(class.allows_all_initial_distributions());
        let mode = InitialDistributionMode::AllInitials;
        let grid = EpsilonGrid::log_spaced(0.02, 1.0, 8).unwrap();
        let t = 100;
        let (mut flat_visits, mut flat_evaluations) = (0, 0);
        let (visits, mut evaluations) = (Cell::new(0), 0);
        let visit = &visits;
        for chain in class.chains() {
            let powers = TransitionPowers::new(chain, t - 1, t).unwrap();
            let tables = ChainInfluenceTables::new(&powers, t - 1).unwrap();
            for &epsilon in grid.points() {
                for i in 1..=t {
                    let mut pairs = None;
                    let mut influence = |shape: ChainQuiltShape| {
                        tables
                            .influence(&powers, &mut pairs, i, shape, mode)
                            .unwrap()
                    };
                    let flat = expected_runs(i, t, t - 1, t).concat();
                    let (flat_best, calls) = flat_search(epsilon, &flat, &mut influence);
                    flat_visits += flat.len();
                    flat_evaluations += calls.len();

                    let runs = ChainQuiltShape::candidates(i, t, t - 1, t)
                        .map(move |run| run.inspect(move |_| visit.set(visit.get() + 1)));
                    let best = best_quilt(epsilon, runs, |&shape| {
                        evaluations += 1;
                        Ok(influence(shape))
                    })
                    .unwrap();
                    assert_eq!(bits(best), bits(flat_best), "node {i} at ε {epsilon}");
                }
            }
        }
        assert_eq!((flat_visits, flat_evaluations), (5_494_400, 129_104));
        assert_eq!(evaluations, 129_104);
        assert!(
            visits.get() * 10 < flat_visits,
            "{} of {flat_visits} candidates visited",
            visits.get()
        );
    }

    #[test]
    fn cached_tables_reject_uncovered_offsets() {
        let powers = section_4_3_powers();
        let tables = ChainInfluenceTables::new(&powers, 1).unwrap();
        assert!(chain_max_influence_cached(
            &powers,
            &tables,
            3,
            ChainQuiltShape::LeftOnly { a: 2 },
            InitialDistributionMode::FixedInitial,
        )
        .is_err());
    }

    #[test]
    fn validation_errors() {
        let powers = section_4_3_powers();
        assert!(chain_max_influence(
            &powers,
            0,
            ChainQuiltShape::Trivial,
            InitialDistributionMode::FixedInitial
        )
        .is_err());
        assert!(chain_max_influence(
            &powers,
            1,
            ChainQuiltShape::LeftOnly { a: 1 },
            InitialDistributionMode::FixedInitial
        )
        .is_err());
        // First node under the all-initials class has unbounded marginal
        // ratio — but that only matters for quilts with a left component,
        // which cannot exist for i = 1, so the only reachable behaviour is
        // through two-sided quilts at i >= 2.
        let influence = chain_max_influence(
            &powers,
            2,
            ChainQuiltShape::LeftOnly { a: 1 },
            InitialDistributionMode::AllInitials,
        )
        .unwrap();
        assert!(influence.is_finite());
    }
}
