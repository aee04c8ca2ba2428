//! Sequential composition of the Markov Quilt Mechanism (Theorem 4.4).
//!
//! Pufferfish privacy does not compose in general, but Theorem 4.4 shows that
//! repeated applications of the Markov Quilt Mechanism over the same
//! database, using the *same* quilt sets, degrade gracefully: publishing
//! `(M_1(D), …, M_K(D))` with per-release budgets `ε_k` guarantees
//! `K · max_k ε_k`-Pufferfish privacy (and `Σ_k ε_k` when the ε are equal,
//! which is the common case).
//!
//! The guarantee depends only on the *multiset* of per-release budgets, so
//! that is all the accountant stores: each distinct ε with its count. Every
//! operation costs O(distinct ε), whatever the length of the history, and
//! the composed guarantee is the same f64 bits in any order of records and
//! unrecords.

use std::{iter, slice};

/// Budgets count as equal when `max − min < EQUAL_TOLERANCE · max(min, 1)`.
const EQUAL_TOLERANCE: f64 = 1e-12;

/// An accountant tracking a sequence of Markov Quilt Mechanism releases on
/// the same database with a shared quilt-set configuration.
#[derive(Debug, Clone)]
pub struct CompositionAccountant {
    multiset: Multiset,
}

/// `(ε bits, count)` per distinct recorded ε, ascending. Only positive finite
/// ε are recorded, and their bit patterns order like their values.
///
/// Nearly every accountant holds a single distinct ε, so that one entry is
/// stored inline; a heap block is allocated only once a second distinct ε
/// arrives. Either shape is 24 bytes (the `Vec`'s capacity niche holds the
/// tag).
#[derive(Debug, Clone)]
enum Multiset {
    /// At most one distinct ε; a count of 0 means the multiset is empty.
    Inline((u64, u64)),
    /// Any number of distinct ε, once a second one has been recorded.
    Heap(Vec<(u64, u64)>),
}

impl Default for CompositionAccountant {
    fn default() -> Self {
        CompositionAccountant {
            multiset: Multiset::Inline((0, 0)),
        }
    }
}

impl CompositionAccountant {
    /// Creates an empty accountant.
    pub fn new() -> Self {
        CompositionAccountant::default()
    }

    /// Records one release made with the given per-release epsilon.
    ///
    /// Non-positive or non-finite values are ignored (they correspond to
    /// releases that never happened).
    pub fn record(&mut self, epsilon: f64) {
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return;
        }
        let bits = epsilon.to_bits();
        match &mut self.multiset {
            Multiset::Inline(one) if one.1 == 0 || one.0 == bits => *one = (bits, one.1 + 1),
            Multiset::Inline(one) => {
                let mut entries = vec![*one, (bits, 1)];
                entries.sort_unstable();
                self.multiset = Multiset::Heap(entries);
            }
            Multiset::Heap(entries) => match find(entries, bits) {
                Ok(at) => entries[at].1 += 1,
                Err(at) => entries.insert(at, (bits, 1)),
            },
        }
    }

    /// Removes one previously recorded release with exactly (bitwise) the
    /// given epsilon, returning whether one was found.
    ///
    /// This is the rollback primitive for serving layers that commit a spend
    /// at admission time and must undo it when the request is subsequently
    /// refused (e.g. by a full queue) before any release happened. It is
    /// sound precisely because the Theorem 4.4 guarantee depends only on the
    /// *multiset* of per-release budgets, never on their order: removing one
    /// of several equal releases leaves the same multiset whichever it was.
    pub fn unrecord(&mut self, epsilon: f64) -> bool {
        let bits = epsilon.to_bits();
        match &mut self.multiset {
            Multiset::Inline(one) if one.1 > 0 && one.0 == bits => one.1 -= 1,
            Multiset::Inline(_) => return false,
            Multiset::Heap(entries) => {
                let Ok(at) = find(entries, bits) else {
                    return false;
                };
                entries[at].1 -= 1;
                if entries[at].1 == 0 {
                    entries.remove(at);
                }
            }
        }
        true
    }

    /// The recorded `(ε bits, count)` entries, ascending, whichever shape
    /// holds them.
    fn entries(&self) -> &[(u64, u64)] {
        match &self.multiset {
            Multiset::Inline((_, 0)) => &[],
            Multiset::Inline(one) => slice::from_ref(one),
            Multiset::Heap(entries) => entries,
        }
    }

    /// Number of recorded releases `K`.
    pub fn releases(&self) -> usize {
        self.entries()
            .iter()
            .map(|&(_, count)| count as usize)
            .sum()
    }

    /// The guarantee of Theorem 4.4 when all releases use the same epsilon:
    /// `Σ_k ε_k`, summed as `count · ε` per distinct ε in ascending order.
    /// This is the bound to quote when the per-release budgets are
    /// identical.
    pub fn total_epsilon(&self) -> f64 {
        sum(self.entries().iter().copied())
    }

    /// The guarantee for heterogeneous budgets:
    /// `K · max_k ε_k` (the remark following Theorem 4.4).
    pub fn worst_case_epsilon(&self) -> f64 {
        let max = self
            .entries()
            .last()
            .map_or(0.0, |&(bits, _)| f64::from_bits(bits));
        max * self.releases() as f64
    }

    /// The tightest guarantee supported by the theorem for the recorded
    /// releases: the sum when all budgets are (numerically) equal, otherwise
    /// `K · max_k ε_k`.
    ///
    /// Budgets count as equal when `max − min < 1e-12 · max(min, 1)`. The
    /// test is referenced to the smallest recorded ε, since a multiset has
    /// no first or last release; any other reference could change the
    /// decision only for budgets within 1e-12 (relative) of each other.
    pub fn guaranteed_epsilon(&self) -> f64 {
        compose(self.entries().iter().copied())
    }

    /// The guarantee the accountant *would* report with one more release of
    /// `epsilon` recorded: bitwise equal to [`CompositionAccountant::record`]
    /// followed by [`CompositionAccountant::guaranteed_epsilon`], without
    /// changing anything. This is the admission-control primitive: budget
    /// ledgers call it under a lock on every request, so it must stay cheap,
    /// O(distinct ε) with no allocation.
    ///
    /// Values [`CompositionAccountant::record`] would ignore (non-positive,
    /// non-finite) leave the guarantee unchanged.
    pub fn guaranteed_epsilon_with(&self, epsilon: f64) -> f64 {
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return self.guaranteed_epsilon();
        }
        // Merge the extra release in at its sorted position, so the sum runs
        // over exactly the entries `record` would leave, in the same order.
        let entries = self.entries();
        let bits = epsilon.to_bits();
        let (at, count, rest) = match find(entries, bits) {
            Ok(at) => (at, entries[at].1 + 1, at + 1),
            Err(at) => (at, 1, at),
        };
        compose(
            entries[..at]
                .iter()
                .copied()
                .chain(iter::once((bits, count)))
                .chain(entries[rest..].iter().copied()),
        )
    }

    /// Remaining budget before a global target is exceeded (`None` once the
    /// target is exhausted).
    pub fn remaining(&self, target_epsilon: f64) -> Option<f64> {
        let spent = self.guaranteed_epsilon();
        if spent >= target_epsilon {
            None
        } else {
            Some(target_epsilon - spent)
        }
    }
}

/// Where the entry for ε `bits` is (`Ok`) or would be inserted (`Err`) in
/// ascending `entries`.
fn find(entries: &[(u64, u64)], bits: u64) -> Result<usize, usize> {
    entries.binary_search_by_key(&bits, |&(held, _)| held)
}

/// The Theorem 4.4 guarantee of `(ε bits, count)` entries in ascending ε
/// order: `Σ count · ε` when the budgets are (numerically) equal, otherwise
/// `K · max ε`.
fn compose(entries: impl Iterator<Item = (u64, u64)> + Clone) -> f64 {
    let mut values = entries.clone().map(|(bits, _)| f64::from_bits(bits));
    let Some(min) = values.next() else {
        return 0.0;
    };
    let max = values.last().unwrap_or(min);
    if max - min < EQUAL_TOLERANCE * min.max(1.0) {
        sum(entries)
    } else {
        max * entries.map(|(_, count)| count).sum::<u64>() as f64
    }
}

/// `Σ count · ε` over `(ε bits, count)` entries, in iteration order.
fn sum(entries: impl Iterator<Item = (u64, u64)>) -> f64 {
    entries.fold(0.0, |total, (bits, count)| {
        total + count as f64 * f64::from_bits(bits)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    /// `x` moved up by `ulps` units in the last place.
    const fn ulps_above(x: f64, ulps: u64) -> f64 {
        f64::from_bits(x.to_bits() + ulps)
    }

    #[test]
    fn homogeneous_composition_sums_epsilons() {
        let mut accountant = CompositionAccountant::new();
        for _ in 0..5 {
            accountant.record(0.2);
        }
        assert_eq!(accountant.releases(), 5);
        assert!(close(accountant.total_epsilon(), 1.0));
        assert!(close(accountant.worst_case_epsilon(), 1.0));
        assert!(close(accountant.guaranteed_epsilon(), 1.0));
    }

    #[test]
    fn heterogeneous_composition_uses_k_times_max() {
        let mut accountant = CompositionAccountant::new();
        accountant.record(0.1);
        accountant.record(0.5);
        accountant.record(0.2);
        assert!(close(accountant.total_epsilon(), 0.8));
        assert!(close(accountant.worst_case_epsilon(), 1.5));
        assert!(close(accountant.guaranteed_epsilon(), 1.5));
    }

    #[test]
    fn near_equal_budgets_sum_within_the_tolerance() {
        let mut accountant = CompositionAccountant::new();
        accountant.record(0.1 + 5e-13);
        accountant.record(0.1);
        assert_eq!(
            accountant.guaranteed_epsilon().to_bits(),
            accountant.total_epsilon().to_bits()
        );
        assert!(accountant.guaranteed_epsilon() < accountant.worst_case_epsilon());
        // Just outside the tolerance the heterogeneous bound applies.
        accountant.record(0.1 + 5e-12);
        assert_eq!(
            accountant.guaranteed_epsilon().to_bits(),
            accountant.worst_case_epsilon().to_bits()
        );
    }

    #[test]
    fn invalid_records_are_ignored() {
        let mut accountant = CompositionAccountant::new();
        accountant.record(0.0);
        accountant.record(-1.0);
        accountant.record(f64::NAN);
        accountant.record(f64::INFINITY);
        assert_eq!(accountant.releases(), 0);
        assert!(close(accountant.guaranteed_epsilon(), 0.0));
    }

    #[test]
    fn remaining_budget() {
        let mut accountant = CompositionAccountant::new();
        accountant.record(0.4);
        accountant.record(0.4);
        assert!(close(accountant.remaining(1.0).unwrap(), 0.2));
        accountant.record(0.4);
        assert!(accountant.remaining(1.0).is_none());
        assert!(accountant.remaining(1.2).is_none());
        assert!(accountant.remaining(2.0).is_some());
    }

    #[test]
    fn guaranteed_epsilon_with_matches_record() {
        // The preview must agree bitwise with record on homogeneous,
        // heterogeneous, empty, max-changing and near-equal histories, for
        // extras that land on, between and around the recorded values.
        let tenth = 0.1;
        let histories: [&[f64]; 7] = [
            &[],
            &[0.2, 0.2],
            &[0.1, 0.5],
            &[0.5, 0.1],
            &[tenth, ulps_above(tenth, 1), ulps_above(tenth, 2), tenth],
            &[ulps_above(tenth, 4), tenth, tenth + 5e-13],
            &[0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3],
        ];
        let extras = [
            0.05,
            tenth,
            ulps_above(tenth, 1),
            ulps_above(tenth, 3),
            ulps_above(tenth, 9),
            tenth + 5e-13,
            tenth + 5e-12,
            0.2,
            0.3,
            0.5,
            0.9,
        ];
        for history in histories {
            for extra in extras {
                let mut accountant = CompositionAccountant::new();
                for &e in history {
                    accountant.record(e);
                }
                let preview = accountant.guaranteed_epsilon_with(extra);
                accountant.record(extra);
                assert_eq!(
                    preview.to_bits(),
                    accountant.guaranteed_epsilon().to_bits(),
                    "history {history:?} + {extra}: preview {preview} vs {}",
                    accountant.guaranteed_epsilon()
                );
            }
        }
        // Ignored values leave the guarantee unchanged, matching record().
        let mut accountant = CompositionAccountant::new();
        accountant.record(0.3);
        assert_eq!(
            accountant.guaranteed_epsilon_with(-1.0).to_bits(),
            0.3f64.to_bits()
        );
        assert_eq!(
            accountant.guaranteed_epsilon_with(f64::NAN).to_bits(),
            0.3f64.to_bits()
        );
    }

    /// Every ordering of `0..n`.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        let mut all = Vec::new();
        for shorter in permutations(n - 1) {
            for at in 0..=shorter.len() {
                let mut order = shorter.clone();
                order.insert(at, n - 1);
                all.push(order);
            }
        }
        all
    }

    #[test]
    fn any_order_of_charges_and_refunds_gives_the_same_bits() {
        // Positive entries charge, negative ones refund their magnitude.
        // Orders where a refund precedes its charge are not histories the
        // accountant can see, so they are skipped.
        let tenth = 0.1;
        let sequences: [&[f64]; 2] = [
            // Near-equal: the sum path, where f64 addition order matters.
            &[
                tenth,
                ulps_above(tenth, 1),
                tenth + 5e-13,
                -tenth,
                ulps_above(tenth, 7),
                tenth,
            ],
            // Heterogeneous: the K · max path.
            &[0.1, 0.5, 0.2, -0.5, 0.5, 0.3],
        ];
        for ops in sequences {
            let mut outcomes = Vec::new();
            for order in permutations(ops.len()) {
                let mut accountant = CompositionAccountant::new();
                let valid = order.iter().all(|&i| {
                    let op = ops[i];
                    if op > 0.0 {
                        accountant.record(op);
                        true
                    } else {
                        accountant.unrecord(-op)
                    }
                });
                if valid {
                    outcomes.push((
                        accountant.guaranteed_epsilon().to_bits(),
                        accountant.releases(),
                    ));
                }
            }
            assert!(outcomes.len() > 100, "{ops:?}: too few valid orders");
            assert!(
                outcomes.iter().all(|&outcome| outcome == outcomes[0]),
                "{ops:?}: the guarantee depends on the order"
            );
        }
    }

    #[test]
    fn one_distinct_epsilon_is_one_entry() {
        let mut accountant = CompositionAccountant::new();
        for _ in 0..100_000 {
            accountant.record(0.25);
        }
        assert_eq!(accountant.entries().len(), 1);
        assert!(matches!(accountant.multiset, Multiset::Inline(_)));
        assert_eq!(accountant.releases(), 100_000);
        assert_eq!(accountant.guaranteed_epsilon(), 25_000.0);
        assert_eq!(std::mem::size_of::<CompositionAccountant>(), 24);
    }

    #[test]
    fn ten_thousand_tenths_compose_to_exactly_one_thousand() {
        let mut accountant = CompositionAccountant::new();
        for _ in 0..10_000 {
            accountant.record(0.1);
        }
        assert_eq!(
            accountant.guaranteed_epsilon().to_bits(),
            1000.0f64.to_bits()
        );
        // Summing release by release drifts away from it.
        let stepwise = (0..10_000).fold(0.0, |total: f64, _| total + 0.1);
        assert_ne!(stepwise.to_bits(), 1000.0f64.to_bits());
    }

    #[test]
    fn unrecord_rolls_back_a_spend() {
        let mut accountant = CompositionAccountant::new();
        accountant.record(0.2);
        accountant.record(0.5);
        assert!(accountant.unrecord(0.5));
        assert_eq!(accountant.releases(), 1);
        assert!(close(accountant.guaranteed_epsilon(), 0.2));
        // Only exact (bitwise) matches are removable; misses change nothing.
        assert!(!accountant.unrecord(0.3));
        assert!(!accountant.unrecord(0.5));
        assert!(!accountant.unrecord(-0.2));
        assert!(!accountant.unrecord(f64::NAN));
        assert_eq!(accountant.releases(), 1);
        // Duplicates are removed one at a time; the last one drops the entry.
        accountant.record(0.2);
        assert!(accountant.unrecord(0.2));
        assert!(accountant.unrecord(0.2));
        assert_eq!(accountant.releases(), 0);
        assert!(accountant.entries().is_empty());
        assert_eq!(accountant.guaranteed_epsilon().to_bits(), 0.0f64.to_bits());
    }

    /// Up to four distinct ε per pool: near-equal values one ulp apart (the
    /// summed guarantee), and spread values (the `K · max ε` guarantee).
    const POOLS: [[f64; 4]; 2] = [
        [0.1, ulps_above(0.1, 1), ulps_above(0.1, 2), 0.1 + 5e-13],
        [0.25, ulps_above(0.25, 1), 0.1, 0.7],
    ];

    /// `epsilon` added to a sorted `(ε bits, count)` model.
    fn model_record(model: &mut Vec<(u64, u64)>, epsilon: f64) {
        let bits = epsilon.to_bits();
        match model.iter().position(|&(held, _)| held >= bits) {
            Some(at) if model[at].0 == bits => model[at].1 += 1,
            Some(at) => model.insert(at, (bits, 1)),
            None => model.push((bits, 1)),
        }
    }

    /// One `epsilon` removed from the model, if it holds one.
    fn model_unrecord(model: &mut Vec<(u64, u64)>, epsilon: f64) -> bool {
        let Some(at) = model
            .iter()
            .position(|&(held, _)| held == epsilon.to_bits())
        else {
            return false;
        };
        model[at].1 -= 1;
        if model[at].1 == 0 {
            model.remove(at);
        }
        true
    }

    /// The model's `(K, Σ count · ε, K · max ε, guarantee)`, the long way.
    fn model_figures(model: &[(u64, u64)]) -> (usize, f64, f64, f64) {
        let releases: u64 = model.iter().map(|&(_, count)| count).sum();
        let total = model.iter().fold(0.0, |total, &(bits, count)| {
            total + count as f64 * f64::from_bits(bits)
        });
        let (Some(&(min, _)), Some(&(max, _))) = (model.first(), model.last()) else {
            return (0, 0.0, 0.0, 0.0);
        };
        let (min, max) = (f64::from_bits(min), f64::from_bits(max));
        let worst = max * releases as f64;
        let guaranteed = if max - min < 1e-12 * min.max(1.0) {
            total
        } else {
            worst
        };
        (releases as usize, total, worst, guaranteed)
    }

    /// Whether the accountant reads exactly (bitwise) as the model does,
    /// including its preview of one more release of each value in `extras`.
    fn agrees(
        accountant: &CompositionAccountant,
        model: &[(u64, u64)],
        extras: &[f64],
    ) -> Result<(), String> {
        let (releases, total, worst, guaranteed) = model_figures(model);
        let live = (
            accountant.entries().to_vec(),
            accountant.releases(),
            accountant.total_epsilon().to_bits(),
            accountant.worst_case_epsilon().to_bits(),
            accountant.guaranteed_epsilon().to_bits(),
        );
        let expected = (
            model.to_vec(),
            releases,
            total.to_bits(),
            worst.to_bits(),
            guaranteed.to_bits(),
        );
        if live != expected {
            return Err(format!("live {live:?}, model {expected:?}"));
        }
        for &extra in extras {
            let mut with = model.to_vec();
            model_record(&mut with, extra);
            let preview = accountant.guaranteed_epsilon_with(extra);
            if preview.to_bits() != model_figures(&with).3.to_bits() {
                return Err(format!("{model:?} + {extra}: preview {preview}"));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random records and unrecords over up to four distinct ε read like
        /// a sorted `(ε bits, count)` model, bitwise, on the way from empty
        /// through one ε and many, and back down to empty.
        #[test]
        fn multiset_matches_a_sorted_model(
            pool in 0usize..2,
            distinct in 1usize..5,
            ops in collection::vec((0usize..4, 0u32..3), 0..48),
        ) {
            let values = &POOLS[pool][..distinct];
            let mut accountant = CompositionAccountant::new();
            let mut model = Vec::new();
            for (index, op) in ops {
                let epsilon = values[index % distinct];
                if op == 0 {
                    prop_assert_eq!(
                        accountant.unrecord(epsilon),
                        model_unrecord(&mut model, epsilon)
                    );
                } else {
                    accountant.record(epsilon);
                    model_record(&mut model, epsilon);
                }
                agrees(&accountant, &model, values)?;
            }
            while let Some(&(bits, _)) = model.last() {
                prop_assert!(accountant.unrecord(f64::from_bits(bits)));
                model_unrecord(&mut model, f64::from_bits(bits));
                agrees(&accountant, &model, values)?;
            }
            prop_assert_eq!(accountant.releases(), 0);
        }
    }

    #[test]
    fn empty_accountant() {
        let accountant = CompositionAccountant::new();
        assert_eq!(accountant.releases(), 0);
        assert!(close(accountant.guaranteed_epsilon(), 0.0));
        assert!(close(accountant.remaining(1.0).unwrap(), 1.0));
    }
}
