//! A fit allocates its working storage once: after the first epochs have
//! sized the tape's free list, an epoch requests (almost) nothing from the
//! allocator. Before the tape kept its buffers, every epoch requested what
//! epoch 0 did — one fresh matrix per op output and per gradient, per batch.
//!
//! Own test binary, one test: the counting allocator is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use taxorec_core::{FitControl, TaxoRec, TaxoRecConfig};
use taxorec_data::{generate_preset, Preset, Scale, Split};

/// `System`, counting the bytes asked of it.
struct Counting;

/// A statistic, read between epochs on the thread that runs them: `Relaxed`.
static REQUESTED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is therefore this type's; the counter is touched
// only through atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
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

#[test]
fn epochs_after_the_second_allocate_next_to_nothing() {
    let dataset = generate_preset(Preset::Ciao, Scale::Tiny);
    let split = Split::standard(&dataset);
    let mut cfg = TaxoRecConfig::fast_test();
    cfg.epochs = 12;
    // Several batches an epoch, the last one shorter: both batch shapes
    // must fit the one set of buffers.
    cfg.batch_size = 64;
    assert!(!split.train_pairs().len().is_multiple_of(cfg.batch_size));
    assert!(split.train_pairs().len() > 3 * cfg.batch_size);

    // (bytes requested since the previous epoch ended, rebuilt this epoch)
    let mut epochs: Vec<(u64, bool)> = Vec::new();
    let mut last = REQUESTED.load(Ordering::Relaxed);
    let mut model = TaxoRec::new(cfg);
    model.fit_controlled(
        &dataset,
        &split,
        FitControl {
            on_epoch: Some(Box::new(|record| {
                let now = REQUESTED.load(Ordering::Relaxed);
                epochs.push((now - last, record.rebuild.is_some()));
                last = now;
            })),
            ..FitControl::default()
        },
    );

    assert_eq!(epochs.len(), 12);
    assert!(
        epochs.iter().any(|&(_, rebuilt)| rebuilt),
        "the run includes taxonomy rebuilds (which may allocate)"
    );
    let first = epochs[0].0;
    assert!(first > 100_000, "epoch 0 sizes the buffers: {first} bytes");
    let steady: Vec<(usize, u64)> = epochs
        .iter()
        .enumerate()
        .skip(2)
        .filter(|(_, &(_, rebuilt))| !rebuilt)
        .map(|(i, &(bytes, _))| (i, bytes))
        .collect();
    assert!(steady.len() >= 6, "{epochs:?}");
    for (epoch, bytes) in steady {
        assert!(
            bytes * 20 <= first,
            "epoch {epoch} requested {bytes} bytes, epoch 0 {first}: {epochs:?}"
        );
    }
}
