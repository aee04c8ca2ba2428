//! Deterministic shared-memory parallelism for the Pufferfish calibration
//! loops.
//!
//! The mechanisms' hot paths are embarrassingly parallel enumerations — the
//! ∞-Wasserstein sweep over secret pairs × scenarios, the per-θ and per-node
//! quilt searches of MQMExact/MQMApprox, the spectral scans over chain-class
//! grids. This crate provides a rayon-style `par_map` built on
//! [`std::thread::scope`] (the build environment has no crates.io access, so
//! rayon itself cannot be a dependency; the API is deliberately shaped so a
//! rayon backend could be swapped in).
//!
//! **Determinism contract:** every combinator returns results in input
//! order, so a caller that folds the returned vector serially observes
//! *bitwise-identical* results to a fully serial run — the property the
//! calibration conformance tests assert. Parallelism only changes wall-clock
//! time, never output.
//!
//! The query executor runs its [`Morsel`]s — contiguous index ranges from
//! [`morsels`] — through the same scheduler: [`try_par_map`] over the morsel
//! list, so the next idle worker takes the next morsel.
//!
//! For *serving* workloads — threads that outlive any single enumeration and
//! drain a queue until shutdown — the crate additionally provides
//! [`WorkerPool`], the long-lived counterpart to [`par_run`] used by the
//! `pufferfish-service` front-end.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod morsel;
mod pool;

pub use morsel::{morsels, Morsel};
pub use pool::WorkerPool;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

/// How a calibration loop should be executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Single-threaded reference execution.
    Serial,
    /// Use every available core (the default).
    #[default]
    Auto,
    /// Use exactly this many worker threads (values are clamped to ≥ 1).
    Threads(usize),
}

impl Parallelism {
    /// The number of worker threads this policy yields for `items` units of
    /// work (never more threads than items, never zero).
    ///
    /// [`Parallelism::Auto`] reads the host's thread count once per process:
    /// the query costs tens of microseconds, and every [`par_run`] asks.
    pub fn effective_threads(self, items: usize) -> usize {
        static HOST_THREADS: OnceLock<usize> = OnceLock::new();
        let requested = match self {
            Parallelism::Serial => 1,
            Parallelism::Auto => *HOST_THREADS.get_or_init(|| {
                thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            }),
            Parallelism::Threads(n) => n.max(1),
        };
        requested.min(items.max(1))
    }
}

/// Runs `f(0), f(1), …, f(n-1)` under the given policy and returns the
/// results **in index order**.
///
/// Work is distributed dynamically (atomic work counter), so heterogeneous
/// per-item costs — long quilt searches next to trivial ones — still balance
/// across workers. Each worker accumulates `(index, value)` pairs privately
/// and the results are stitched back into index order after the scope joins,
/// which is what makes the output (and therefore any serial fold over it)
/// independent of the schedule.
///
/// # Panics
/// Re-raises the first worker panic with its original payload.
pub fn par_run<R, F>(policy: Parallelism, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = policy.effective_threads(n);
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }

    let mut results: Vec<Option<R>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    let next = AtomicUsize::new(0);

    thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let f = &f;
                let next = &next;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= n {
                            break;
                        }
                        local.push((index, f(index)));
                    }
                    local
                })
            })
            .collect();
        for worker in workers {
            match worker.join() {
                Ok(local) => {
                    for (index, value) in local {
                        results[index] = Some(value);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    results
        .into_iter()
        .map(|slot| slot.expect("parallel worker filled every slot"))
        .collect()
}

/// Maps `f` over `items` under the given policy, preserving input order.
pub fn par_map<T, R, F>(policy: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_run(policy, items.len(), |i| f(&items[i]))
}

/// Maps a fallible `f` over `items`, short-circuiting on the **first** error
/// in input order (matching what the serial loop would have reported, even
/// when a later item errors first in wall-clock time).
pub fn try_par_map<T, R, E, F>(policy: Parallelism, items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&T) -> Result<R, E> + Sync,
{
    par_run(policy, items.len(), |i| f(&items[i]))
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_for_every_policy() {
        let items: Vec<usize> = (0..257).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * x).collect();
        for policy in [
            Parallelism::Serial,
            Parallelism::Auto,
            Parallelism::Threads(1),
            Parallelism::Threads(3),
            Parallelism::Threads(64),
        ] {
            assert_eq!(par_map(policy, &items, |&x| x * x), expected);
        }
    }

    #[test]
    fn float_folds_are_bitwise_identical_across_policies() {
        // The calibration loops fold max() over the mapped values; max is
        // order-insensitive, but we assert the stronger property that the
        // mapped vectors themselves are identical.
        let items: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 1e3).collect();
        let serial = par_map(Parallelism::Serial, &items, |&x| (x.abs() + 1.0).ln());
        let parallel = par_map(Parallelism::Threads(7), &items, |&x| (x.abs() + 1.0).ln());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn try_map_reports_first_error_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let result = try_par_map(Parallelism::Threads(8), &items, |&x| {
            if x % 7 == 3 {
                Err(x)
            } else {
                Ok(x)
            }
        });
        assert_eq!(result, Err(3));
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(Parallelism::Auto, &empty, |&x| x).is_empty());
        assert_eq!(par_map(Parallelism::Auto, &[5u32], |&x| x + 1), vec![6]);
    }

    #[test]
    fn effective_threads_bounds() {
        assert_eq!(Parallelism::Serial.effective_threads(100), 1);
        assert_eq!(Parallelism::Threads(0).effective_threads(100), 1);
        assert_eq!(Parallelism::Threads(4).effective_threads(2), 2);
        assert!(Parallelism::Auto.effective_threads(1_000) >= 1);
    }

    #[test]
    #[should_panic(expected = "item 5 panicked deliberately")]
    fn par_run_propagates_the_workers_own_panic() {
        par_run(Parallelism::Threads(4), 16, |i| {
            assert_ne!(i, 5, "item 5 panicked deliberately");
        });
    }
}
