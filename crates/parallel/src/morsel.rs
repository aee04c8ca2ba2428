//! Morsels: the query executor's unit of work.
//!
//! A query executor's work is skewed — one giant group-by cell next to
//! dozens of tiny ones — so it is cut into [`Morsel`]s, contiguous **index
//! ranges** over a flat domain of `total` items, rather than one unit per
//! cell. Dispatch cost is amortised over a whole cache-friendly chunk, and a
//! giant cell spreads over many morsels.
//!
//! Morsels run through [`try_par_map`](crate::try_par_map) over the list
//! from [`morsels`]: a shared counter hands the next morsel to the next idle
//! worker, so a straggler morsel never strands the work queued behind it.
//! Results come back **in morsel order**, so the output — and any serial
//! fold over it — is bitwise-identical on any thread count and schedule.

/// One unit of schedulable work: a contiguous index range `start..end` over
/// the run's flat domain, plus its position in the overall schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// Position of this morsel in domain order, which is also its position
    /// in the list [`morsels`] returns and in the results of a run over it.
    pub index: usize,
    /// First item covered (inclusive).
    pub start: usize,
    /// One past the last item covered (exclusive).
    pub end: usize,
}

impl Morsel {
    /// Number of items this morsel covers.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` when the morsel covers no items (never produced by
    /// [`morsels`]).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Splits `total` items into `⌈total / size⌉` morsels of at most `size`
/// items each (`size` is clamped to ≥ 1), in domain order.
pub fn morsels(total: usize, size: usize) -> Vec<Morsel> {
    let size = size.max(1);
    (0..total)
        .step_by(size)
        .enumerate()
        .map(|(index, start)| Morsel {
            index,
            start,
            end: (start + size).min(total),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{par_map, try_par_map, Parallelism};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::thread::ThreadId;
    use std::time::Duration;

    #[test]
    fn morsel_partition_covers_the_domain_exactly_once() {
        for (total, size) in [(0, 4), (1, 4), (7, 3), (8, 4), (9, 4), (5, 100), (6, 0)] {
            let schedule = morsels(total, size);
            let mut covered = Vec::new();
            for (i, morsel) in schedule.iter().enumerate() {
                assert_eq!(morsel.index, i);
                assert!(!morsel.is_empty());
                assert!(morsel.len() <= size.max(1));
                covered.extend(morsel.start..morsel.end);
            }
            assert_eq!(covered, (0..total).collect::<Vec<_>>());
        }
        assert!(morsels(0, 8).is_empty());
    }

    #[test]
    fn results_come_back_in_morsel_order_for_every_policy_and_size() {
        for policy in [
            Parallelism::Serial,
            Parallelism::Auto,
            Parallelism::Threads(3),
            Parallelism::Threads(16),
        ] {
            for size in [1, 2, 5, 64] {
                let sums = par_map(policy, &morsels(100, size), |m| {
                    (m.start..m.end).map(|i| i * i).sum::<usize>()
                });
                let total: usize = sums.iter().sum();
                assert_eq!(total, (0..100).map(|i| i * i).sum::<usize>());
                assert_eq!(sums.len(), morsels(100, size).len());
            }
        }
    }

    #[test]
    fn stolen_schedules_are_bitwise_identical_to_serial() {
        let logs = |m: &Morsel| {
            (m.start..m.end)
                .map(|i| ((i as f64).sin() + 1.5).ln())
                .collect::<Vec<f64>>()
        };
        let serial = par_map(Parallelism::Serial, &morsels(500, 7), logs);
        let threaded = par_map(Parallelism::Threads(5), &morsels(500, 7), logs);
        for (a, b) in serial.iter().flatten().zip(threaded.iter().flatten()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn slow_first_morsel_is_routed_around_by_stealing() {
        // 8 morsels, 2 workers. Morsel 0 blocks its worker long enough that
        // the shared counter hands every later morsel to the other, idle
        // worker; they therefore run on a different thread than morsel 0.
        let owners: Mutex<HashMap<usize, ThreadId>> = Mutex::new(HashMap::new());
        par_map(Parallelism::Threads(2), &morsels(8, 1), |m| {
            if m.index == 0 {
                std::thread::sleep(Duration::from_millis(400));
            }
            owners
                .lock()
                .unwrap()
                .insert(m.index, std::thread::current().id());
        });
        let owners = owners.into_inner().unwrap();
        assert_eq!(owners.len(), 8);
        let slow_thread = owners[&0];
        for index in 1..8 {
            assert_ne!(
                owners[&index], slow_thread,
                "morsel {index} was serialised behind the slow morsel"
            );
        }
    }

    #[test]
    fn every_morsel_runs_exactly_once_under_contention() {
        let runs = AtomicUsize::new(0);
        let results = par_map(Parallelism::Threads(8), &morsels(257, 3), |m| {
            runs.fetch_add(1, Ordering::SeqCst);
            m.index
        });
        assert_eq!(runs.load(Ordering::SeqCst), morsels(257, 3).len());
        assert_eq!(results, (0..results.len()).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_morsel_inputs() {
        let empty: Vec<usize> = par_map(Parallelism::Threads(4), &morsels(0, 8), Morsel::len);
        assert!(empty.is_empty());
        let single = par_map(Parallelism::Threads(4), &morsels(5, 8), |m| {
            (m.start, m.end)
        });
        assert_eq!(single, vec![(0, 5)]);
    }

    #[test]
    #[should_panic(expected = "morsel 3 panicked deliberately")]
    fn worker_panics_propagate_to_the_caller() {
        par_map(Parallelism::Threads(4), &morsels(16, 2), |m| {
            assert_ne!(m.index, 3, "morsel 3 panicked deliberately");
        });
    }

    #[test]
    fn try_run_reports_the_first_error_in_morsel_order() {
        let result = try_par_map(Parallelism::Threads(8), &morsels(90, 3), |m| {
            if m.index % 7 == 4 {
                Err(m.index)
            } else {
                Ok(m.index)
            }
        });
        assert_eq!(result, Err(4));
        let ok: Result<Vec<usize>, usize> =
            try_par_map(Parallelism::Threads(2), &morsels(10, 3), |m| Ok(m.index));
        assert_eq!(ok.unwrap(), vec![0, 1, 2, 3]);
    }
}
