//! Looking up a metric that is already registered asks the allocator for
//! nothing, and neither does recording into it while the metrics sink is
//! off: the name is found by `&str`, and the sink's state is read
//! without its lock.
//!
//! Own test binary, one test: the counting allocator is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use taxorec_telemetry::{counter, gauge, histogram};

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
fn registered_lookups_and_sink_off_recording_allocate_nothing() {
    taxorec_telemetry::disable_metrics();
    let (c, g, h) = ("alloc.counter", "alloc.gauge", "alloc.histogram");
    // First registration allocates the series and its name.
    let first = allocations(|| {
        black_box(counter(c));
        black_box(gauge(g));
        black_box(histogram(h));
    });
    assert!(first > 0, "registering three series allocated nothing");

    let lookups = allocations(|| {
        for _ in 0..100 {
            counter(c).inc(1);
            gauge(g).set(0.5);
            black_box(histogram(h));
        }
    });
    assert_eq!(lookups, 0, "lookups of registered names");

    let held = histogram(h);
    let observed = allocations(|| {
        for i in 0..100 {
            held.observe(f64::from(i) * 0.25);
        }
    });
    assert_eq!(observed, 0, "Histogram::observe with the sink off");
    assert_eq!(counter(c).get(), 100);
    assert_eq!(held.count(), 100);
}
