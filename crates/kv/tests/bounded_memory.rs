//! An overwrite replaces its key in place: the store keeps no copy of
//! a write once it is applied, so overwriting one OMAP key forever
//! (what every 4 KiB rewrite of one sector does to its IV) holds the
//! heap flat.
//!
//! The counting allocator below is this test binary's own; it changes
//! nothing for any other crate or test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use vdisk_kv::LsmStore;

/// The system allocator, plus a count of the bytes it holds live.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn overwriting_one_key_holds_the_heap_flat() {
    let mut store = LsmStore::default();
    let mut after_100 = 0;
    for i in 0..10_000u32 {
        store.put(b"iv:0".to_vec(), [i.to_le_bytes(); 4].concat());
        if i == 99 {
            after_100 = LIVE.load(Ordering::Relaxed);
        }
    }
    let after_10k = LIVE.load(Ordering::Relaxed);
    let grown = after_10k.saturating_sub(after_100);
    assert!(
        grown < 64 << 10,
        "10 000 overwrites of one key grew the live heap by {grown} bytes \
         between the 100th and the last put"
    );
    assert_eq!(
        store.get(b"iv:0").0,
        Some([9_999u32.to_le_bytes(); 4].concat())
    );
}
