//! A bounded, closable MPMC work queue built on `Mutex` + `Condvar`.
//!
//! The admission queue between request submitters and the worker pool.
//! A producer first takes one place of the capacity
//! ([`BoundedQueue::try_hold`], refused at once when the queue is full, or
//! [`BoundedQueue::hold`], which waits for room), and only then decides
//! where its item runs: it queues the item in that place
//! ([`HeldSlot::fill`]), or runs the item itself and drops the slot, which
//! gives the place back. So the capacity bounds every admitted item, queued
//! or held, and a traffic spike turns into back-pressure instead of
//! unbounded memory growth. The queue is closable so shutdown is a clean
//! handshake: after [`BoundedQueue::close`] no place is taken, but
//! consumers drain the queued items before [`BoundedQueue::pop`] returns
//! `None`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Why no place was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue was at capacity.
    Full,
    /// The queue was closed.
    Closed,
}

struct QueueState<T> {
    items: VecDeque<T>,
    /// Places taken by [`HeldSlot`]s: counted against the capacity like
    /// queued items, but never popped.
    held: usize,
    closed: bool,
    /// Places refused because the queue was at capacity (the admission-
    /// control signal the network front-end turns into BUSY frames).
    refusals: u64,
    /// Deepest the queue has ever been — how close admitted traffic has
    /// come to triggering back-pressure, for capacity tuning.
    high_water: usize,
    /// Consumers parked in [`BoundedQueue::pop`] and producers parked in a
    /// full [`BoundedQueue::hold`]. A fill or pop notifies only when the
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
/// queue.try_hold().unwrap().fill(1);
/// queue.try_hold().unwrap().fill(2);
/// assert_eq!(queue.try_hold().err(), Some(PushError::Full));
/// queue.close();
/// assert_eq!(queue.try_hold().err(), Some(PushError::Closed));
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
    /// maintained as places are taken and given back, so a telemetry gauge
    /// updated on every job never contends with producers. May momentarily
    /// lag [`Self::len`] by a place being taken or given back.
    pub fn approx_len(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// `true` when no item is queued and no slot held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Places refused with [`PushError::Full`] so far — every refusal is
    /// one back-pressure event surfaced to a caller (the counter behind the
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

    /// Takes one place of the capacity, refused at once when the queue is
    /// full. The place counts in [`Self::len`], the high-water mark and the
    /// capacity check from now on; its holder queues an item in it
    /// ([`HeldSlot::fill`]) or drops the slot to give it back.
    ///
    /// # Errors
    /// [`PushError::Full`] (counted in [`Self::refusals`]) and
    /// [`PushError::Closed`].
    pub fn try_hold(&self) -> Result<HeldSlot<'_, T>, PushError> {
        let mut state = self.state.lock().expect("queue poisoned");
        if !state.closed && state.occupied() >= self.capacity {
            state.refusals += 1;
            return Err(PushError::Full);
        }
        self.take(state)
    }

    /// Takes one place of the capacity as [`Self::try_hold`] does, waiting
    /// while the queue is full; a wait is not a refusal.
    ///
    /// # Errors
    /// [`PushError::Closed`] when the queue is (or becomes) closed.
    pub fn hold(&self) -> Result<HeldSlot<'_, T>, PushError> {
        let mut state = self.state.lock().expect("queue poisoned");
        while !state.closed && state.occupied() >= self.capacity {
            state.parked_producers += 1;
            state = self.not_full.wait(state).expect("queue poisoned");
            state.parked_producers -= 1;
        }
        self.take(state)
    }

    /// Takes a place in `state`, which has room unless it is closed.
    fn take(&self, mut state: MutexGuard<'_, QueueState<T>>) -> Result<HeldSlot<'_, T>, PushError> {
        if state.closed {
            return Err(PushError::Closed);
        }
        state.held += 1;
        state.high_water = state.high_water.max(state.occupied());
        self.depth.store(state.occupied(), Ordering::Relaxed);
        Ok(HeldSlot { queue: self })
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

    /// Closes the queue: no place is taken from now on, queued items remain
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

    /// `(consumers, producers)` parked in `pop` and in a full `hold`.
    #[cfg(test)]
    fn parked(&self) -> (usize, usize) {
        let state = self.state.lock().expect("queue poisoned");
        (state.parked_consumers, state.parked_producers)
    }
}

/// One place of a [`BoundedQueue`]'s capacity, taken by
/// [`BoundedQueue::try_hold`] or [`BoundedQueue::hold`]. Its holder either
/// queues an item in it ([`HeldSlot::fill`]) or runs the item itself and
/// drops the slot, which gives the place back.
pub struct HeldSlot<'a, T> {
    queue: &'a BoundedQueue<T>,
}

impl<T> HeldSlot<'_, T> {
    /// Queues `item` in this place, behind the items already queued, and
    /// wakes a parked consumer. The place was counted when it was taken, so
    /// the capacity is not checked again, and the length and high-water
    /// mark do not move. An item queued after [`BoundedQueue::close`] is
    /// still popped before `pop` returns `None`.
    pub fn fill(self, item: T) {
        let queue = self.queue;
        let mut state = queue.state.lock().expect("queue poisoned");
        // The place passes to the item: the slot's drop must not give it
        // back.
        std::mem::forget(self);
        state.held -= 1;
        state.items.push_back(item);
        let wake = state.parked_consumers > 0;
        drop(state);
        if wake {
            queue.not_empty.notify_one();
        }
    }
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

    /// Queues `item` in a place taken by `try_hold`.
    fn try_push<T>(queue: &BoundedQueue<T>, item: T) -> Result<(), PushError> {
        queue.try_hold().map(|slot| slot.fill(item))
    }

    /// Queues `item` in a place taken by `hold`, waiting while full.
    fn push<T>(queue: &BoundedQueue<T>, item: T) -> Result<(), PushError> {
        queue.hold().map(|slot| slot.fill(item))
    }

    #[test]
    fn fifo_order_and_capacity() {
        let queue = BoundedQueue::new(3);
        assert_eq!(queue.capacity(), 3);
        assert!(queue.is_empty());
        for i in 0..3 {
            try_push(&queue, i).unwrap();
        }
        assert_eq!(queue.len(), 3);
        assert_eq!(try_push(&queue, 9), Err(PushError::Full));
        assert_eq!(queue.pop(), Some(0));
        assert_eq!(queue.pop(), Some(1));
        assert_eq!(queue.pop(), Some(2));
    }

    #[test]
    fn refusals_and_high_water_are_tracked() {
        let queue = BoundedQueue::new(2);
        assert_eq!(queue.refusals(), 0);
        assert_eq!(queue.high_water(), 0);
        try_push(&queue, 1).unwrap();
        assert_eq!(queue.high_water(), 1);
        try_push(&queue, 2).unwrap();
        assert_eq!(queue.high_water(), 2);
        assert_eq!(try_push(&queue, 3), Err(PushError::Full));
        assert_eq!(try_push(&queue, 4), Err(PushError::Full));
        assert_eq!(queue.refusals(), 2);
        // Draining does not shrink the high-water mark…
        assert_eq!(queue.pop(), Some(1));
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.high_water(), 2);
        // …and closed-queue refusals are not capacity refusals.
        queue.close();
        assert_eq!(try_push(&queue, 5), Err(PushError::Closed));
        assert_eq!(queue.refusals(), 2);
    }

    #[test]
    fn approx_len_mirrors_len_at_rest() {
        let queue = BoundedQueue::new(4);
        assert_eq!(queue.approx_len(), 0);
        try_push(&queue, 1).unwrap();
        push(&queue, 2).unwrap();
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
        try_push(&queue, 1).unwrap();
        assert_eq!(
            (queue.len(), queue.approx_len(), queue.high_water()),
            (2, 2, 2)
        );
        // Full: both a push and another hold are refused and counted.
        assert_eq!(try_push(&queue, 2), Err(PushError::Full));
        assert_eq!(queue.try_hold().err(), Some(PushError::Full));
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
        assert_eq!(queue.try_hold().err(), Some(PushError::Closed));
        assert_eq!(queue.refusals(), 2);
    }

    #[test]
    fn dropping_a_held_slot_wakes_a_blocked_producer() {
        let queue = Arc::new(BoundedQueue::new(1));
        let held = queue.try_hold().unwrap();
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || push(&queue, 7))
        };
        wait_until_parked(&queue, 0, 1);
        drop(held);
        producer.join().unwrap().unwrap();
        assert_eq!(queue.pop(), Some(7));
    }

    #[test]
    fn fill_keeps_the_counts_and_wakes_a_parked_consumer() {
        let queue = Arc::new(BoundedQueue::new(2));
        let consumer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.pop())
        };
        wait_until_parked(&queue, 1, 0);
        let slot = queue.try_hold().unwrap();
        let counts = || (queue.len(), queue.approx_len(), queue.high_water());
        assert_eq!(counts(), (1, 1, 1));
        // A held place has no item: the consumer stays parked.
        assert_eq!(queue.parked(), (1, 0));
        slot.fill(5);
        assert_eq!(consumer.join().unwrap(), Some(5));
        assert_eq!(counts(), (0, 0, 1));

        // With no consumer waiting, the filled place stays counted once.
        let slot = queue.try_hold().unwrap();
        try_push(&queue, 6).unwrap();
        assert_eq!(counts(), (2, 2, 2));
        slot.fill(7);
        assert_eq!(counts(), (2, 2, 2));
        assert_eq!(try_push(&queue, 8), Err(PushError::Full));
        // The filled item queues behind the items already queued.
        assert_eq!(queue.pop(), Some(6));
        assert_eq!(queue.pop(), Some(7));
        assert_eq!(counts(), (0, 0, 2));
    }

    #[test]
    fn an_item_filled_after_close_is_popped_before_the_end() {
        let queue = BoundedQueue::new(2);
        try_push(&queue, "queued").unwrap();
        let slot = queue.try_hold().unwrap();
        queue.close();
        assert_eq!(queue.try_hold().err(), Some(PushError::Closed));
        slot.fill("filled");
        assert_eq!(queue.pop(), Some("queued"));
        assert_eq!(queue.pop(), Some("filled"));
        assert_eq!(queue.pop(), None);
        assert!(queue.is_empty());
    }

    #[test]
    fn a_dropped_held_slot_wakes_a_parked_hold_into_its_own_place() {
        let queue = Arc::new(BoundedQueue::<u32>::new(1));
        let held = queue.try_hold().unwrap();
        let (len_tx, len) = std::sync::mpsc::channel();
        let holder = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                let slot = queue.hold().unwrap();
                len_tx.send(queue.len()).unwrap();
                drop(slot);
            })
        };
        wait_until_parked(&queue, 0, 1);
        drop(held);
        // The woken hold took the place given back, and gave it back.
        assert_eq!(len.recv().unwrap(), 1);
        holder.join().unwrap();
        assert_eq!((queue.len(), queue.approx_len()), (0, 0));
        // Waiting for room is not a refusal.
        assert_eq!((queue.high_water(), queue.refusals()), (1, 0));
        assert_eq!(queue.parked(), (0, 0));
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let queue = BoundedQueue::new(0);
        assert_eq!(queue.capacity(), 1);
        try_push(&queue, 1).unwrap();
    }

    #[test]
    fn close_drains_then_ends() {
        let queue = BoundedQueue::new(4);
        try_push(&queue, "a").unwrap();
        queue.close();
        assert!(queue.is_closed());
        assert_eq!(try_push(&queue, "b"), Err(PushError::Closed));
        assert_eq!(push(&queue, "c"), Err(PushError::Closed));
        assert_eq!(queue.pop(), Some("a"));
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.pop(), None);
    }

    /// Spins until `queue` has exactly `consumers` threads parked in `pop`
    /// and `producers` in a full `hold`. A thread is counted under the lock
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
        try_push(&queue, 0).unwrap();
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || push(&queue, 1))
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
        try_push(&queue, 0).unwrap();
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || push(&queue, 1))
        };
        wait_until_parked(&queue, 0, 1);
        queue.close();
        assert_eq!(producer.join().unwrap(), Err(PushError::Closed));
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
                push(&queue, item).unwrap();
            } else {
                try_push(&queue, item).unwrap();
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
                        push(&queue, p * 1000 + i).unwrap();
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
