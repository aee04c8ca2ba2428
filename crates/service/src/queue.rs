//! A bounded, closable MPMC work queue built on `Mutex` + `Condvar`.
//!
//! The admission queue between request submitters and the worker pool.
//! Bounded so a traffic spike turns into back-pressure
//! ([`BoundedQueue::try_push`] fails fast with the queue full) instead of
//! unbounded memory growth; closable so shutdown is a clean handshake —
//! after [`BoundedQueue::close`], producers are refused but consumers drain
//! the remaining items before [`BoundedQueue::pop`] returns `None`.
//!
//! A producer that runs an item itself instead of queueing it can still
//! take one place of the capacity for it ([`BoundedQueue::try_hold`]), so
//! the capacity bounds every admitted item, queued or held.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue was at capacity (the item is handed back).
    Full(T),
    /// The queue was closed (the item is handed back).
    Closed(T),
}

struct QueueState<T> {
    items: VecDeque<T>,
    /// Places taken by [`HeldSlot`]s: counted against the capacity like
    /// queued items, but never popped.
    held: usize,
    closed: bool,
    /// Pushes refused because the queue was at capacity (the admission-
    /// control signal the network front-end turns into BUSY frames).
    refusals: u64,
    /// Deepest the queue has ever been — how close admitted traffic has
    /// come to triggering back-pressure, for capacity tuning.
    high_water: usize,
    /// Consumers parked in [`BoundedQueue::pop`] and producers parked in a
    /// full [`BoundedQueue::push`]. A push or pop notifies only when the
    /// other side has a thread parked, since `notify_one` makes a syscall
    /// even when no thread waits.
    parked_consumers: usize,
    parked_producers: usize,
}

impl<T> QueueState<T> {
    /// Places taken: queued items plus held slots.
    fn occupied(&self) -> usize {
        self.items.len() + self.held
    }
}

/// A fixed-capacity multi-producer multi-consumer queue.
///
/// # Example
///
/// ```
/// use pufferfish_service::queue::{BoundedQueue, PushError};
///
/// let queue = BoundedQueue::new(2);
/// queue.try_push(1).unwrap();
/// queue.try_push(2).unwrap();
/// assert_eq!(queue.try_push(3), Err(PushError::Full(3)));
/// queue.close();
/// assert_eq!(queue.try_push(4), Err(PushError::Closed(4)));
/// // Consumers drain what was admitted before the close…
/// assert_eq!(queue.pop(), Some(1));
/// assert_eq!(queue.pop(), Some(2));
/// // …then observe the end of the stream.
/// assert_eq!(queue.pop(), None);
/// ```
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    /// Lock-free mirror of the places taken (queued items plus held
    /// slots), updated while the state mutex is held — so telemetry (the
    /// `queue_depth` gauge on every taken item) can read the depth without
    /// contending with producers for the lock.
    depth: AtomicUsize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity),
                held: 0,
                closed: false,
                refusals: 0,
                high_water: 0,
                parked_consumers: 0,
                parked_producers: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            depth: AtomicUsize::new(0),
        }
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Places currently taken: queued items plus held slots.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").occupied()
    }

    /// The queue depth without taking the lock: reads the atomic mirror
    /// maintained by push/pop, so a telemetry gauge updated on every job
    /// never contends with producers. May momentarily lag [`Self::len`] by
    /// an in-flight push or pop.
    pub fn approx_len(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// `true` when no item is queued and no slot held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pushes refused with [`PushError::Full`] so far — every refusal is one
    /// back-pressure event surfaced to a caller (the counter behind the
    /// `queue_refusals` field of
    /// [`ServiceStats`](crate::ServiceStats)).
    pub fn refusals(&self) -> u64 {
        self.state.lock().expect("queue poisoned").refusals
    }

    /// The deepest the queue has ever been (its depth high-water mark,
    /// held slots included).
    /// `high_water == capacity` means admitted traffic has touched the
    /// back-pressure threshold at least once.
    pub fn high_water(&self) -> usize {
        self.state.lock().expect("queue poisoned").high_water
    }

    /// Non-blocking push: refused immediately when full or closed.
    ///
    /// # Errors
    /// [`PushError::Full`] / [`PushError::Closed`], returning the item.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut state = self.state.lock().expect("queue poisoned");
        match self.room(&mut state) {
            Ok(()) => {
                state.items.push_back(item);
                self.taken(state);
                Ok(())
            }
            Err(PushError::Full(())) => Err(PushError::Full(item)),
            Err(PushError::Closed(())) => Err(PushError::Closed(item)),
        }
    }

    /// Takes one place of the capacity for an item its caller runs itself
    /// instead of queueing it. The place counts in [`Self::len`], the
    /// high-water mark and the capacity check exactly like a queued item,
    /// and no consumer ever sees it; dropping the returned slot gives it
    /// back.
    ///
    /// # Errors
    /// [`PushError::Full`] (counted in [`Self::refusals`]) and
    /// [`PushError::Closed`], as for [`Self::try_push`].
    pub fn try_hold(&self) -> Result<HeldSlot<'_, T>, PushError<()>> {
        let mut state = self.state.lock().expect("queue poisoned");
        self.room(&mut state)?;
        state.held += 1;
        self.taken(state);
        Ok(HeldSlot { queue: self })
    }

    /// Whether `state` has a free place, counting a refusal when it is full.
    fn room(&self, state: &mut QueueState<T>) -> Result<(), PushError<()>> {
        if state.closed {
            return Err(PushError::Closed(()));
        }
        if state.occupied() >= self.capacity {
            state.refusals += 1;
            return Err(PushError::Full(()));
        }
        Ok(())
    }

    /// Blocking push: waits while the queue is full.
    ///
    /// # Errors
    /// Returns the item when the queue is (or becomes) closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if state.closed {
                return Err(item);
            }
            if state.occupied() < self.capacity {
                state.items.push_back(item);
                self.taken(state);
                return Ok(());
            }
            state.parked_producers += 1;
            state = self.not_full.wait(state).expect("queue poisoned");
            state.parked_producers -= 1;
        }
    }

    /// Records a place just taken (a pushed item or a held slot) and wakes
    /// a parked consumer, if there is one and an item to take.
    fn taken(&self, mut state: MutexGuard<'_, QueueState<T>>) {
        state.high_water = state.high_water.max(state.occupied());
        self.depth.store(state.occupied(), Ordering::Relaxed);
        let wake = state.parked_consumers > 0 && !state.items.is_empty();
        drop(state);
        if wake {
            self.not_empty.notify_one();
        }
    }

    /// Records a place just given back (a popped item or a dropped held
    /// slot) and wakes a producer parked on the full queue, if there is one.
    fn freed(&self, state: MutexGuard<'_, QueueState<T>>) {
        self.depth.store(state.occupied(), Ordering::Relaxed);
        let wake = state.parked_producers > 0;
        drop(state);
        if wake {
            self.not_full.notify_one();
        }
    }

    /// Blocking pop: waits for an item; `None` once the queue is closed
    /// *and* drained (the worker-loop termination signal).
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                self.freed(state);
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state.parked_consumers += 1;
            state = self.not_empty.wait(state).expect("queue poisoned");
            state.parked_consumers -= 1;
        }
    }

    /// Closes the queue: future pushes are refused, queued items remain
    /// poppable, and every blocked producer/consumer wakes up.
    pub fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// `true` once [`BoundedQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("queue poisoned").closed
    }

    /// `(consumers, producers)` parked in `pop` and in a full `push`.
    #[cfg(test)]
    fn parked(&self) -> (usize, usize) {
        let state = self.state.lock().expect("queue poisoned");
        (state.parked_consumers, state.parked_producers)
    }
}

/// One place of a [`BoundedQueue`]'s capacity, taken by
/// [`BoundedQueue::try_hold`] for an item its holder runs itself; dropping
/// it gives the place back.
pub struct HeldSlot<'a, T> {
    queue: &'a BoundedQueue<T>,
}

impl<T> Drop for HeldSlot<'_, T> {
    fn drop(&mut self) {
        // A drop must not panic (it may run while its holder unwinds), and
        // every update under this lock leaves the state whole.
        let mut state = self
            .queue
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state.held -= 1;
        self.queue.freed(state);
    }
}

impl<T> std::fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedQueue")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("closed", &self.is_closed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_capacity() {
        let queue = BoundedQueue::new(3);
        assert_eq!(queue.capacity(), 3);
        assert!(queue.is_empty());
        for i in 0..3 {
            queue.try_push(i).unwrap();
        }
        assert_eq!(queue.len(), 3);
        assert_eq!(queue.try_push(9), Err(PushError::Full(9)));
        assert_eq!(queue.pop(), Some(0));
        assert_eq!(queue.pop(), Some(1));
        assert_eq!(queue.pop(), Some(2));
    }

    #[test]
    fn refusals_and_high_water_are_tracked() {
        let queue = BoundedQueue::new(2);
        assert_eq!(queue.refusals(), 0);
        assert_eq!(queue.high_water(), 0);
        queue.try_push(1).unwrap();
        assert_eq!(queue.high_water(), 1);
        queue.try_push(2).unwrap();
        assert_eq!(queue.high_water(), 2);
        assert_eq!(queue.try_push(3), Err(PushError::Full(3)));
        assert_eq!(queue.try_push(4), Err(PushError::Full(4)));
        assert_eq!(queue.refusals(), 2);
        // Draining does not shrink the high-water mark…
        assert_eq!(queue.pop(), Some(1));
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.high_water(), 2);
        // …and closed-queue refusals are not capacity refusals.
        queue.close();
        assert_eq!(queue.try_push(5), Err(PushError::Closed(5)));
        assert_eq!(queue.refusals(), 2);
    }

    #[test]
    fn approx_len_mirrors_len_at_rest() {
        let queue = BoundedQueue::new(4);
        assert_eq!(queue.approx_len(), 0);
        queue.try_push(1).unwrap();
        queue.push(2).unwrap();
        assert_eq!(queue.approx_len(), queue.len());
        assert_eq!(queue.approx_len(), 2);
        queue.pop();
        assert_eq!(queue.approx_len(), 1);
        queue.pop();
        assert_eq!(queue.approx_len(), 0);
    }

    #[test]
    fn a_held_slot_counts_like_a_queued_item_until_dropped() {
        let queue = BoundedQueue::new(2);
        let held = queue.try_hold().unwrap();
        queue.try_push(1).unwrap();
        assert_eq!(
            (queue.len(), queue.approx_len(), queue.high_water()),
            (2, 2, 2)
        );
        // Full: both a push and another hold are refused and counted.
        assert_eq!(queue.try_push(2), Err(PushError::Full(2)));
        assert!(matches!(queue.try_hold(), Err(PushError::Full(()))));
        assert_eq!(queue.refusals(), 2);
        // A consumer sees only the queued item.
        assert_eq!(queue.pop(), Some(1));
        assert_eq!(queue.len(), 1);
        drop(held);
        assert_eq!(
            (queue.len(), queue.approx_len(), queue.high_water()),
            (0, 0, 2)
        );
        queue.close();
        assert!(matches!(queue.try_hold(), Err(PushError::Closed(()))));
        assert_eq!(queue.refusals(), 2);
    }

    #[test]
    fn dropping_a_held_slot_wakes_a_blocked_producer() {
        let queue = Arc::new(BoundedQueue::new(1));
        let held = queue.try_hold().unwrap();
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push(7))
        };
        wait_until_parked(&queue, 0, 1);
        drop(held);
        producer.join().unwrap().unwrap();
        assert_eq!(queue.pop(), Some(7));
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let queue = BoundedQueue::new(0);
        assert_eq!(queue.capacity(), 1);
        queue.try_push(1).unwrap();
    }

    #[test]
    fn close_drains_then_ends() {
        let queue = BoundedQueue::new(4);
        queue.try_push("a").unwrap();
        queue.close();
        assert!(queue.is_closed());
        assert_eq!(queue.try_push("b"), Err(PushError::Closed("b")));
        assert_eq!(queue.push("c"), Err("c"));
        assert_eq!(queue.pop(), Some("a"));
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.pop(), None);
    }

    /// Spins until `queue` has exactly `consumers` threads parked in `pop`
    /// and `producers` in a full `push`. A thread is counted under the lock
    /// it releases only inside `Condvar::wait`, so once the count reads it,
    /// the thread waits for a notification.
    fn wait_until_parked<T>(queue: &BoundedQueue<T>, consumers: usize, producers: usize) {
        while queue.parked() != (consumers, producers) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn blocking_push_waits_for_space() {
        let queue = Arc::new(BoundedQueue::new(1));
        queue.try_push(0).unwrap();
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push(1))
        };
        // The producer is blocked on the full queue; popping unblocks it.
        wait_until_parked(&queue, 0, 1);
        assert_eq!(queue.pop(), Some(0));
        producer.join().unwrap().unwrap();
        assert_eq!(queue.pop(), Some(1));
    }

    #[test]
    fn pop_wakes_on_close() {
        let queue: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        let consumer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.pop())
        };
        wait_until_parked(&queue, 1, 0);
        queue.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn push_wakes_on_close() {
        let queue = Arc::new(BoundedQueue::new(1));
        queue.try_push(0).unwrap();
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push(1))
        };
        wait_until_parked(&queue, 0, 1);
        queue.close();
        assert_eq!(producer.join().unwrap(), Err(1));
        assert_eq!(queue.pop(), Some(0));
    }

    #[test]
    fn a_parked_consumer_is_woken_by_either_push() {
        let queue: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        for (item, blocking) in [(1, false), (2, true)] {
            let consumer = {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || queue.pop())
            };
            wait_until_parked(&queue, 1, 0);
            if blocking {
                queue.push(item).unwrap();
            } else {
                queue.try_push(item).unwrap();
            }
            assert_eq!(consumer.join().unwrap(), Some(item));
            assert_eq!(queue.parked(), (0, 0));
        }
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        let queue: Arc<BoundedQueue<usize>> = Arc::new(BoundedQueue::new(4));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        queue.push(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    let mut seen = Vec::new();
                    while let Some(item) = queue.pop() {
                        seen.push(item);
                    }
                    seen
                })
            })
            .collect();
        for producer in producers {
            producer.join().unwrap();
        }
        queue.close();
        let mut all: Vec<usize> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let expected: Vec<usize> = (0..4)
            .flat_map(|p| (0..50).map(move |i| p * 1000 + i))
            .collect();
        assert_eq!(all, expected);
    }
}
