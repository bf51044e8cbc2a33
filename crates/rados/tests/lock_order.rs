//! The lock-order checker's steady state costs no heap allocation: an
//! edge it has already recorded is a thread-local read and an atomic
//! load. `tests/alloc_budget.rs` counts the allocations of 4 KiB ops in
//! debug builds, where the checker runs on every lock, so this is what
//! keeps those counts independent of it. Debug builds only; counted
//! per thread, so other tests' threads do not disturb the count.

#![cfg(debug_assertions)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vdisk_rados::sync::{recorded_edges, LockClass, OrderedMutex};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the count is a
// const-initialised thread-local without a destructor, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

struct Outer(u64);

impl LockClass for Outer {
    const NAME: &'static str = "lock_order::Outer";
}

struct Inner(u64);

impl LockClass for Inner {
    const NAME: &'static str = "lock_order::Inner";
}

#[test]
fn a_repeated_edge_allocates_nothing() {
    let outer = OrderedMutex::new(Outer(0));
    let inner = OrderedMutex::new(Inner(0));
    // First pass: registers both classes and records the edge.
    drop((outer.lock(), inner.lock()));

    let before = allocs();
    for _ in 0..1000 {
        let mut o = outer.lock();
        let mut i = inner.lock();
        o.0 += 1;
        i.0 += 1;
    }
    let counted = allocs() - before;

    assert_eq!(counted, 0, "allocations on an already-recorded edge");
    assert_eq!((outer.lock().0, inner.lock().0), (1000, 1000));
    assert!(recorded_edges().contains(&("lock_order::Outer", "lock_order::Inner")));
}
