//! At width 1 a pool call is a plain loop: `par_chunks` asks the
//! allocator for nothing and `par_map` for its result `Vec` only. The one
//! allocation both make besides is `std::env::var` copying the value of
//! `TAXOREC_THREADS`, which every call re-reads by contract; it is
//! measured here and subtracted, not assumed.
//!
//! Own test binary, one test: the counting allocator is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use taxorec_parallel::{par_chunks, par_map, thread_count};

/// `System`, counting the calls that ask it for memory.
struct Counting;

/// A statistic, read on the one thread that runs the test: `Relaxed`.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is therefore this type's; the counter is touched
// only through atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls made while `op` runs.
fn allocations(op: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    op();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn the_inline_path_allocates_nothing_beyond_the_result() {
    std::env::set_var("TAXOREC_THREADS", "1");
    let mut data = vec![0u64; 1000];
    let fill = |offset: usize, chunk: &mut [u64]| {
        for (i, v) in chunk.iter_mut().enumerate() {
            *v = (offset + i) as u64 * 3;
        }
    };
    let square = |i: usize| i * i;
    // First calls resolve the telemetry handles and the fault harness.
    par_chunks("alloc.chunks", &mut data, 64, fill);
    black_box(par_map("alloc.map", 100, square));

    let env = allocations(|| {
        black_box(thread_count());
    });
    assert!(env <= 1, "reading TAXOREC_THREADS made {env} allocations");
    let chunks = allocations(|| par_chunks("alloc.chunks", &mut data, 64, fill));
    assert_eq!(chunks, env, "par_chunks beyond the width read");
    let map = allocations(|| {
        black_box(par_map("alloc.map", 100, square));
    });
    assert_eq!(map, env + 1, "par_map beyond the width read");

    assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64 * 3));
}
