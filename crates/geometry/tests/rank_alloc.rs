//! A warm ranking pass allocates nothing: every buffer `fused_rank`
//! needs — per-anchor flags and cuts, the screen's anchor copies and
//! weights, the seed strips, both channels' strip bounds — lives in a
//! per-thread scratch that the first call sizes.
//!
//! Own test binary, one test: the counting allocator is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use taxorec_geometry::batch::{
    fused_rank, spatial_order, BlockCache, RankSink, Sweep, TagChannelMulti,
};
use taxorec_geometry::lorentz;

/// `System`, counting the bytes asked of it.
struct Counting;

/// A statistic, read around calls on the thread that makes them: `Relaxed`.
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

/// Top-`K` scores per anchor in fixed arrays: a sink that allocates
/// nothing, so every byte counted is the kernel's.
struct Top<const K: usize> {
    best: [[f64; K]; 4],
    held: [usize; 4],
}

impl<const K: usize> Top<K> {
    fn new() -> Self {
        Top {
            best: [[f64::NEG_INFINITY; K]; 4],
            held: [0; 4],
        }
    }

    fn worst(&self, anchor: usize) -> usize {
        (0..K)
            .min_by(|&a, &b| self.best[anchor][a].total_cmp(&self.best[anchor][b]))
            .expect("K > 0")
    }
}

impl<const K: usize> RankSink for Top<K> {
    fn floor(&self, anchor: usize) -> Option<f64> {
        (self.held[anchor] == K).then(|| self.best[anchor][self.worst(anchor)])
    }

    fn offer(&mut self, anchor: usize, _slot: usize, score: f64) {
        let at = self.worst(anchor);
        if score > self.best[anchor][at] {
            self.best[anchor][at] = score;
        }
        self.held[anchor] = (self.held[anchor] + 1).min(K);
    }
}

/// `n` hyperboloid points of `ambient` coordinates in a few clusters.
fn clustered(n: usize, ambient: usize, salt: f64) -> Vec<f64> {
    (0..n)
        .flat_map(|i| {
            let c = (i % 7) as f64;
            let spatial: Vec<f64> = (1..ambient)
                .map(|j| (c * 1.3 + j as f64 * salt).sin() + 0.05 * ((i * j) as f64).cos())
                .collect();
            lorentz::from_spatial(&spatial)
        })
        .collect()
}

#[test]
fn a_warm_ranking_pass_over_a_bounded_screened_cache_allocates_nothing() {
    let (n, ai, at) = (12_000, 33, 9);
    assert_eq!(Sweep::for_range(n, ai), Sweep::Screened);
    let (v_ir, v_tg) = (clustered(n, ai, 0.7), clustered(n, at, 1.9));
    let order = spatial_order(&v_ir, ai);
    let ir = BlockCache::build_permuted(&v_ir, ai, &order).with_strip_bounds();
    let tg = BlockCache::build_permuted(&v_tg, at, &order).with_strip_bounds();
    let u_ir: Vec<Vec<f64>> = (0..8)
        .map(|u| v_ir[u * 977 * ai..][..ai].to_vec())
        .collect();
    let u_tg: Vec<Vec<f64>> = (0..8)
        .map(|u| v_tg[u * 977 * at..][..at].to_vec())
        .collect();
    let alphas = [0.4, 0.9, 2.5, 0.0, 0.4, 0.9, 2.5, 0.0];

    // Ranks anchors `first..first + b` and returns the bytes requested.
    let rank = |first: usize, b: usize| -> u64 {
        let irs: Vec<&[f64]> = u_ir[first..first + b].iter().map(Vec::as_slice).collect();
        let tgs: Vec<&[f64]> = u_tg[first..first + b].iter().map(Vec::as_slice).collect();
        let mut sink = Top::<10>::new();
        let before = REQUESTED.load(Ordering::Relaxed);
        let tag = TagChannelMulti {
            cache: &tg,
            anchors: &tgs,
            alphas: &alphas[first..first + b],
        };
        fused_rank(&ir, &irs, Some(tag), 0, n, &mut sink);
        let requested = REQUESTED.load(Ordering::Relaxed) - before;
        assert!(
            sink.held[..b].iter().all(|&h| h == 10),
            "a selection came back short"
        );
        requested
    };
    // The first call builds the screen and sizes the scratch.
    assert!(rank(0, 1) > 0, "the cold call allocated nothing");
    for u in 1..8 {
        assert_eq!(rank(u, 1), 0, "warm one-anchor call, anchor {u}");
    }
    // A block of four sizes the scratch again; then it is warm too.
    rank(0, 4);
    for first in [4, 2, 0] {
        assert_eq!(
            rank(first, 4),
            0,
            "warm four-anchor call from anchor {first}"
        );
    }
    assert_eq!(rank(5, 1), 0, "a one-anchor call after a block");
}
