//! A small fixed-size pool of long-lived, named worker threads.
//!
//! [`par_run`](crate::par_run) and friends are the right tool for *bounded*
//! calibration loops: they spawn scoped threads, run one enumeration, and
//! join. A serving front-end needs the opposite shape — threads that start
//! once and keep draining a queue until the service shuts down. [`WorkerPool`]
//! provides exactly that: `n` named threads each running the same worker
//! closure (typically a `loop { queue.pop() … }`), joined explicitly via
//! [`WorkerPool::join`] or implicitly on drop.
//!
//! Termination is cooperative: the pool never interrupts a worker; the
//! closure is expected to return when its work source reports closure (the
//! bounded queue in `pufferfish-service` returns `None` from `pop` once
//! closed and drained).

use std::thread::{self, JoinHandle};

use crate::Parallelism;

/// A fixed-size set of named OS threads all running the same worker closure.
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
/// use pufferfish_parallel::{Parallelism, WorkerPool};
///
/// let counter = Arc::new(AtomicUsize::new(0));
/// let seen = Arc::clone(&counter);
/// let pool = WorkerPool::spawn(Parallelism::Threads(3), "demo", move |worker| {
///     // Each worker runs once to completion; real services loop on a queue.
///     seen.fetch_add(worker + 1, Ordering::SeqCst);
/// });
/// assert_eq!(pool.len(), 3);
/// pool.join();
/// assert_eq!(counter.load(Ordering::SeqCst), 1 + 2 + 3);
/// ```
pub struct WorkerPool {
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns the pool: one thread per `policy.effective_threads(usize::MAX)`
    /// (i.e. `Serial` → 1, `Auto` → all cores, `Threads(n)` → n), each named
    /// `{name}-{index}` and running `worker(index)` to completion.
    ///
    /// The closure is shared across threads, so captured state must be
    /// `Send + Sync` (share mutable state through `Arc`s of synchronised
    /// types, exactly like [`par_run`](crate::par_run) callbacks).
    pub fn spawn<F>(policy: Parallelism, name: &str, worker: F) -> Self
    where
        F: Fn(usize) + Send + Sync + 'static,
    {
        let threads = policy.effective_threads(usize::MAX);
        let worker = std::sync::Arc::new(worker);
        let workers = (0..threads)
            .map(|index| {
                let worker = std::sync::Arc::clone(&worker);
                thread::Builder::new()
                    .name(format!("{name}-{index}"))
                    .spawn(move || worker(index))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        WorkerPool { workers }
    }

    /// Number of worker threads in the pool.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// `true` when the pool has no workers (cannot happen for pools built by
    /// [`WorkerPool::spawn`], which always yields at least one thread).
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Blocks until every worker closure has returned. Called on one of the
    /// pool's own workers, it joins every other worker and leaves that one
    /// to finish by itself once its closure returns.
    ///
    /// # Panics
    /// Propagates a panic from any worker thread.
    pub fn join(mut self) {
        for worker in self.others() {
            worker.join().expect("worker thread panicked");
        }
    }

    /// Takes every worker handle but the calling thread's own: a thread
    /// cannot join itself (std panics with a deadlock error), and a worker
    /// can end up dropping its pool — a queued task may hold the last
    /// reference to the service that owns it.
    fn others(&mut self) -> impl Iterator<Item = JoinHandle<()>> + '_ {
        let current = thread::current().id();
        self.workers
            .drain(..)
            .filter(move |worker| worker.thread().id() != current)
    }
}

impl Drop for WorkerPool {
    /// Joins any still-running workers but the calling thread (see
    /// [`WorkerPool::join`]); shut the work source down first or the drop
    /// will block forever. Unlike [`WorkerPool::join`], worker panics are
    /// swallowed here — this drop may itself run during unwinding, where a
    /// second panic would abort the process.
    fn drop(&mut self) {
        for worker in self.others() {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn every_worker_runs_with_its_index() {
        let mask = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&mask);
        let pool = WorkerPool::spawn(Parallelism::Threads(4), "test", move |worker| {
            seen.fetch_or(1 << worker, Ordering::SeqCst);
        });
        assert_eq!(pool.len(), 4);
        assert!(!pool.is_empty());
        pool.join();
        assert_eq!(mask.load(Ordering::SeqCst), 0b1111);
    }

    #[test]
    fn serial_policy_yields_one_worker() {
        let pool = WorkerPool::spawn(Parallelism::Serial, "single", |_| {});
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn drop_swallows_worker_panics() {
        let pool = WorkerPool::spawn(Parallelism::Threads(2), "panicky", |worker| {
            assert_ne!(worker, 0, "worker 0 panics deliberately");
        });
        // Must join both workers without re-panicking.
        drop(pool);
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn explicit_join_propagates_worker_panics() {
        WorkerPool::spawn(Parallelism::Threads(2), "panicky", |worker| {
            assert_ne!(worker, 0, "worker 0 panics deliberately");
        })
        .join();
    }

    #[test]
    fn a_pool_dropped_on_its_own_worker_does_not_join_that_worker() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::mpsc;
        use std::sync::Mutex;

        let (hand_over, handed) = mpsc::channel::<WorkerPool>();
        let (report, reported) = mpsc::channel();
        let (handed, report) = (Mutex::new(handed), Mutex::new(report));
        let pool = WorkerPool::spawn(Parallelism::Threads(2), "self-drop", move |worker| {
            if worker == 0 {
                let pool = handed.lock().unwrap().recv().unwrap();
                let dropped = catch_unwind(AssertUnwindSafe(|| drop(pool)));
                report.lock().unwrap().send(dropped.is_ok()).unwrap();
            }
        });
        hand_over.send(pool).unwrap();
        assert!(
            reported.recv().unwrap(),
            "dropping the pool on its own worker panicked"
        );
    }

    #[test]
    fn drop_joins_workers() {
        let count = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&count);
        {
            let _pool = WorkerPool::spawn(Parallelism::Threads(2), "dropped", move |_| {
                seen.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Drop returned only after both workers completed.
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }
}
