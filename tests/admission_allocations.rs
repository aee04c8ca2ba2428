//! Budget admission for a known identity allocates nothing: the accountant
//! finds the id by its bytes, and a one-ε spend lives inline in its
//! accountant. Decoding a RELEASE frame allocates its database once. This
//! binary's global allocator counts every allocation made on the calling
//! thread, so a test reads only its own work.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pufferfish_core::CompositionAccountant;
use pufferfish_net::{decode_payload, encode, Envelope, Frame, WireQuery, DEFAULT_MAX_FRAME_LEN};
use pufferfish_service::BudgetAccountant;

/// The system allocator, counting allocations per thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while a thread's locals are destroyed.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every call is passed unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the count is a const-initialised thread-local
// `Cell<u64>`, which neither allocates nor runs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `alloc` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `alloc_zeroed` are passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `realloc` are passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's guarantees for `dealloc` are passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `work` makes on this thread.
fn allocations_in(work: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    work();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn spends_of_a_known_id_allocate_nothing() {
    let budget = BudgetAccountant::new(1e6).unwrap();
    // A 12-byte id (stored inline) and a 40-byte one (its key on the heap).
    for user in ["tenant#0042a", "tenant#an-identity-longer-than-22-bytes"] {
        budget.try_spend(user, 0.25).unwrap();
        let allocations = allocations_in(|| {
            for _ in 0..1_000 {
                budget.try_spend(user, 0.25).unwrap();
            }
        });
        assert_eq!(allocations, 0, "{user}");
        assert_eq!(budget.releases(user), 1_001);
    }
}

#[test]
fn records_of_one_epsilon_allocate_nothing() {
    let mut accountant = CompositionAccountant::new();
    let allocations = allocations_in(|| {
        for _ in 0..1_000 {
            accountant.record(0.1);
        }
    });
    assert_eq!(allocations, 0);
    assert_eq!(accountant.releases(), 1_000);
    // A second distinct ε is what moves the multiset to the heap.
    assert_eq!(allocations_in(|| accountant.record(0.2)), 1);
}

#[test]
fn decoding_a_release_allocates_its_database_once() {
    let release = Envelope {
        seq: 7,
        frame: Frame::Release {
            user: 42,
            query: WireQuery::StateFrequency {
                state: 1,
                length: 60,
            },
            epsilon: 0.1,
            seed: 9,
            database: (0..60).map(|t| (t / 7 % 2) as u16).collect(),
        },
    };
    let bytes = encode(&release, DEFAULT_MAX_FRAME_LEN).unwrap();
    let mut decoded = None;
    // The counted database is reserved whole, not grown by doubling.
    let allocations = allocations_in(|| decoded = Some(decode_payload(&bytes[4..]).unwrap()));
    assert_eq!(allocations, 1);
    assert_eq!(decoded, Some(release));
}
