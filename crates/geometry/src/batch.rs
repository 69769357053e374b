//! Fused batched Lorentz distance kernels.
//!
//! The scalar kernels in [`crate::lorentz`] compute one inner product at a
//! time over a row-major `(ambient)`-length slice. For an ambient dimension
//! around 32–64 that loop is *latency*-bound: every `s += x[i] * y[i]` step
//! depends on the previous one, so one distance costs a full chain of FMA
//! latencies regardless of how wide the CPU is. The hot paths of this repo
//! (scoring one user against every item, ranking for eval/serve) evaluate
//! the *same anchor* against thousands of contiguous rows, which admits a
//! much better schedule: iterate dimensions in the outer loop and items in
//! the inner loop, so the compiler vectorizes *across items* while each
//! individual item's accumulation chain keeps exactly the order of
//! [`crate::lorentz::inner`].
//!
//! That ordering constraint is load-bearing. The repo-wide determinism
//! contract (see `tests/parallel_determinism.rs`) requires the fused path
//! to be **bit-identical** to the scalar path, not merely close: for each
//! item `i` we evaluate
//!
//! ```text
//! acc_i = (-a[0]) * t_i;  acc_i += a[1]*v_i[1];  …;  acc_i += a[d]*v_i[d]
//! ```
//!
//! which is the same sequence of f64 additions and multiplications the
//! scalar kernel performs — only interleaved across items, which IEEE-754
//! does not observe.
//!
//! [`BlockCache`] holds the per-row precomputation: time components
//! (`x₀`), the spatial coordinates retiled into panel-major strips (all
//! dimensions of a strip contiguous → each strip is one short
//! sequential read). The cache is a
//! snapshot: it does **not** observe later mutation of the embedding
//! matrix it was built from. Owners must call [`BlockCache::rebuild`]
//! after every optimizer step that touches the rows — in this repo that is
//! `TaxoRec::finalize()`, which runs once per epoch after RSGD (see
//! DESIGN.md §12 for the full invalidation contract).
//!
//! One body sweeps every range, `neg_inner_strips`: strips of rows
//! outside, register-blocked groups of anchors inside, one group shape
//! per constant group size, so a one-anchor call keeps its accumulators
//! in registers as a many-anchor one does. It is compiled once per vector
//! width by [`multiversion!`](crate::multiversion), and the tests hold
//! every clone to the baseline's bits and to the scalar inner product.
//! Two entry points share it. [`fused_scores_block`] writes every score
//! of a range for one anchor, sweeping both channels (full score rows,
//! and the reference the tests compare against). [`fused_rank`] is the
//! one *ranking* entry: a multi-anchor sweep of the interaction channel
//! alone, then the tag inner product and the `arcosh` finisher only for
//! items that can still enter the caller's top-K — an exact pruning,
//! argued in DESIGN.md §12. Production reaches both through
//! `taxorec_data::Scorer`.
//!
//! Over a range whose f64 panel outgrows L2 ([`SCREEN_MIN_BYTES`]),
//! [`fused_rank`] sweeps an f32 copy of the cache instead — the *screen*,
//! half the bytes — and skips an item only when its f32 value clears the
//! cut by a proven bound on the f32 rounding error. Every other item gets
//! its exact f64 value from `neg_inner_one`, so the sink sees the offers
//! of the f64 sweep, bit for bit.

use std::ops::{AddAssign, Deref, Mul, Neg, Range};
use std::sync::OnceLock;

use crate::arcosh;
use crate::isa::Isa;
use crate::multiversion;

/// Precomputed per-row cache over a block of hyperboloid points, stored
/// in panel-major strips for fused anchor-vs-block kernels.
///
/// Built from a row-major flat matrix (`rows × ambient`, ambient ≥ 2).
/// [`BlockCache::rebuild`] reuses the existing allocations, so a cache
/// that is refreshed every epoch settles into zero steady-state
/// allocation.
#[derive(Clone, Debug, Default)]
pub struct BlockCache {
    rows: usize,
    ambient: usize,
    /// `time[i] = x_i[0]` — the hyperboloid time components.
    time: Vec<f64>,
    /// Spatial coordinates in panel-major tiles: rows are grouped into
    /// strips of [`STRIP`], and within a strip all `ambient − 1` spatial
    /// dimensions are contiguous —
    /// `spatial[(i/STRIP)·STRIP·(ambient−1) + (j−1)·STRIP + i%STRIP] = x_i[j]`.
    /// A full strip's working set is one short contiguous run, so the
    /// fused kernels stream it sequentially instead of hopping between
    /// `rows`-strided columns (the layout GEMM micro-kernels use). The
    /// final partial strip is zero-padded; padding is never read back.
    spatial: Vec<f64>,
    /// Every cached value is finite with `|x| ≤ 2^500`, and `ambient` is
    /// below `2^24`: against an anchor with the same bound, every negated
    /// inner product is finite ([`INNER_BOUND`]).
    bounded: bool,
    /// The f32 screen, built by the first screened ranking pass and
    /// dropped by [`BlockCache::rebuild`]; `None` inside when the cache
    /// cannot be screened.
    screen: OnceLock<Option<Screen>>,
}

impl BlockCache {
    /// Builds a cache over `rows × ambient` row-major data.
    pub fn build(data: &[f64], ambient: usize) -> Self {
        let mut c = Self::default();
        c.rebuild(data, ambient);
        c
    }

    /// Rebuilds the cache in place from fresh row-major data, reusing the
    /// existing allocations. This is the **invalidation point**: call it
    /// after every mutation of the source matrix (per epoch, after RSGD).
    pub fn rebuild(&mut self, data: &[f64], ambient: usize) {
        assert!(ambient >= 2, "hyperboloid points need ambient dim >= 2");
        assert_eq!(
            data.len() % ambient,
            0,
            "data length {} not a multiple of ambient dim {}",
            data.len(),
            ambient
        );
        let rows = data.len() / ambient;
        self.rows = rows;
        self.ambient = ambient;
        self.time.clear();
        self.time.resize(rows, 0.0);
        let panel = STRIP * (ambient - 1);
        self.spatial.clear();
        self.spatial.resize(rows.div_ceil(STRIP) * panel, 0.0);
        let mut bounded = ambient < MAX_BOUNDED_AMBIENT;
        for i in 0..rows {
            let row = &data[i * ambient..(i + 1) * ambient];
            self.time[i] = row[0];
            let base = (i / STRIP) * panel + i % STRIP;
            for (j, &v) in row.iter().enumerate().skip(1) {
                self.spatial[base + (j - 1) * STRIP] = v;
            }
            bounded &= within_bound(row);
        }
        self.bounded = bounded;
        self.screen = OnceLock::new();
    }

    /// Number of cached rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Ambient dimension of the cached points.
    #[inline]
    pub fn ambient(&self) -> usize {
        self.ambient
    }

    /// True when the cache holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Writes `−⟨anchor, x_i⟩_L` for `i in lo..hi` into `out`
    /// (`out.len() == hi − lo`), bit-identical per item to
    /// `-lorentz::inner(anchor, row_i)`: the strip sweep with one anchor.
    pub fn neg_inner_block(&self, anchor: &[f64], lo: usize, hi: usize, out: &mut [f64]) {
        assert!(lo <= hi, "block {lo}..{hi} out of range");
        assert_eq!(out.len(), hi - lo, "output length mismatch");
        self.neg_inner_rows(Isa::detected(), &[anchor], lo, hi - lo, hi - lo, out);
    }

    /// Writes `−⟨anchor_u, x_i⟩_L` for every anchor `u` and the `n` rows
    /// from `lo` into `out[u·stride + i]`, on the clone `isa` names: the
    /// checked entry of [`neg_inner_strips`].
    fn neg_inner_rows(
        &self,
        isa: Isa,
        anchors: &[&[f64]],
        lo: usize,
        n: usize,
        stride: usize,
        out: &mut [f64],
    ) {
        assert!(n <= stride, "row stride shorter than range");
        assert!(lo + n <= self.rows, "block {lo}..{} out of range", lo + n);
        if let Some(last) = anchors.len().checked_sub(1) {
            assert!(last * stride + n <= out.len(), "output too short");
        }
        for a in anchors {
            assert_eq!(a.len(), self.ambient, "anchor/cache dim mismatch");
        }
        neg_inner_strips(isa, self, anchors, lo, n, stride, out);
    }

    /// One item's negated Lorentz inner product against `anchor`, read
    /// from the panel-major layout — the sweep's partial strips at the
    /// edges of a range, and [`fused_rank`]'s tag channel for the items
    /// its prune keeps. Accumulation order matches
    /// [`crate::lorentz::inner`] and the strip sweep exactly, so the bits
    /// are theirs.
    #[inline(always)]
    fn neg_inner_one(&self, anchor: &[f64], idx: usize) -> f64 {
        let base = (idx / STRIP) * STRIP * (self.ambient - 1) + idx % STRIP;
        let mut acc = -anchor[0] * self.time[idx];
        for (j, &aj) in anchor.iter().enumerate().skip(1) {
            acc += aj * self.spatial[base + (j - 1) * STRIP];
        }
        -acc
    }

    /// Writes the geodesic distance `d_H(anchor, x_i)` for `i in lo..hi`
    /// into `out`, bit-identical per item to `lorentz::distance`.
    pub fn distance_block(&self, anchor: &[f64], lo: usize, hi: usize, out: &mut [f64]) {
        self.neg_inner_block(anchor, lo, hi, out);
        for o in out.iter_mut() {
            *o = arcosh(*o);
        }
    }

    /// The f32 screen of this cache, built on first use; `None` when a
    /// value is non-finite or past [`SCREEN_BOUND`], or `ambient` is past
    /// [`MAX_SCREEN_AMBIENT`].
    fn screen(&self) -> Option<&Screen> {
        self.screen.get_or_init(|| Screen::build(self)).as_ref()
    }
}

/// An f32 copy of a [`BlockCache`] in the same panel-major strips, with
/// the per-strip maxima the screen's error bound is stated in.
#[derive(Clone, Debug)]
struct Screen {
    /// `STRIP · (ambient − 1)`: one strip's spatial tile.
    panel: usize,
    /// `time[i]` rounded to f32.
    time: Vec<f32>,
    /// `spatial` rounded to f32, same layout.
    spatial: Vec<f32>,
    /// Per strip, `max |tᵢ|` over its rows.
    t_max: Vec<f64>,
    /// Per strip, the largest spatial norm `‖(xᵢ[1], …, xᵢ[d])‖` of its
    /// rows, as computed in f64.
    n_max: Vec<f64>,
}

impl Screen {
    fn build(c: &BlockCache) -> Option<Screen> {
        let in_bound = |v: &f64| v.abs() <= SCREEN_BOUND;
        if c.ambient > MAX_SCREEN_AMBIENT || !c.time.iter().chain(&c.spatial).all(in_bound) {
            return None;
        }
        let panel = STRIP * (c.ambient - 1);
        let max = |m: f64, v: f64| m.max(v);
        let t_max = c
            .time
            .chunks(STRIP)
            .map(|t| t.iter().map(|v| v.abs()).fold(0.0, max));
        let n_max = c.spatial.chunks(panel).map(|tile| {
            let mut sq = [0.0f64; STRIP];
            for col in tile.chunks_exact(STRIP) {
                for (s, &v) in sq.iter_mut().zip(col) {
                    *s += v * v;
                }
            }
            sq.into_iter().fold(0.0, max).sqrt()
        });
        Some(Screen {
            panel,
            time: c.time.iter().map(|&v| v as f32).collect(),
            spatial: c.spatial.iter().map(|&v| v as f32).collect(),
            t_max: t_max.collect(),
            n_max: n_max.collect(),
        })
    }
}

/// Magnitude bound of [`BlockCache`]'s `bounded` flag, `2^500`. With
/// every anchor and row value finite and within it, each product of a
/// Lorentz inner product is at most `2^1000` in magnitude, and a sum of
/// `ambient < 2^24` of them stays below `2^1024` (rounding is monotone
/// and `k·2^1000` is representable): the result is finite, never `±∞`
/// or NaN.
const INNER_BOUND: f64 = f64::from_bits((1023 + 500) << 52);

/// Exclusive ambient-dimension limit of the [`INNER_BOUND`] argument.
const MAX_BOUNDED_AMBIENT: usize = 1 << 24;

/// Whether every value of `x` is finite and within [`INNER_BOUND`].
#[inline]
fn within_bound(x: &[f64]) -> bool {
    x.iter().all(|v| v.abs() <= INNER_BOUND)
}

/// Magnitude bound of the screen, `2^50`: with every anchor and row
/// value finite and within it, and `ambient ≤` [`MAX_SCREEN_AMBIENT`], no
/// f32 product or partial sum comes near `f32::MAX`, and the absolute
/// underflow term of [`screen_error`] stays far below any cut.
pub const SCREEN_BOUND: f64 = f64::from_bits((1023 + 50) << 52);

/// Ambient-dimension limit of the screen: `ambient · 2^-24 ≤ 2^-12`, so
/// the `γ` factors of [`screen_error`] are barely above `ambient · u`.
const MAX_SCREEN_AMBIENT: usize = 1 << 12;

/// Smallest range, in bytes of its f64 interaction panel
/// (`rows · ambient · 8`), that [`fused_rank`] screens: one 2 MiB
/// per-core L2. Below it the f64 panel stays cache-resident, the f64
/// sweep is not memory-bound, and the screen saves too little to pay for
/// its thresholds and exact recomputations (DESIGN.md §12 has the
/// measurements that set it). At the default 32 + 1 dims that is 7,944
/// items.
pub const SCREEN_MIN_BYTES: usize = 2 << 20;

/// The screen runs a chunk only when the chunk before kept at most
/// `SCREEN_MAX_KEPT_BASE + b` items over its `b` anchors — items that
/// met the rule on their f64 value, whichever sweep ran. A screened
/// chunk saves about half its panel's bytes, a few µs per
/// [`FUSED_ITEM_CHUNK`], but each item it keeps gathers its f64 value
/// from `ambient` cache lines, close to 1 µs (DESIGN.md §12). On planted
/// serving data almost every chunk qualifies; where the interaction term
/// alone prunes little, almost none does, and the pass keeps the f64
/// sweep's speed.
const SCREEN_MAX_KEPT_BASE: usize = 8;

/// Relative and absolute parts of the screen's error bound for
/// `ambient`-term inner products: `|s − y| ≤ ρ·P + A`, `s` the f32 value
/// of a negated inner product, `y` the f64 one, `P = Σ|aⱼxⱼ|` over the
/// f64 inputs. With `u = 2⁻²⁴`, `γₙ = n·u/(1 − n·u)` and `γ′ₙ` its f64
/// form (`u′ = 2⁻⁵³`): rounding anchor and row to f32 moves each product
/// by at most `(2u + u²)·|aⱼxⱼ|`, the f32 chain (each term meets at most
/// `ambient` roundings) adds `γ_ambient·(1+u)²·P`, the f64 chain
/// `γ′_ambient·P`. Underflow adds at most `2^-73` per term under
/// [`SCREEN_BOUND`], so `A = ambient · 2^-64` holds with room to spare.
/// `ρ` carries a factor `1 + 2^-30` for the rounding of evaluating the
/// bound itself in f64 (a norm and a few products, each good to
/// `ambient · 2^-53 ≤ 2^-41`). DESIGN.md §12 has the derivation.
fn screen_error(ambient: usize) -> (f64, f64) {
    let n = ambient as f64;
    let gamma = |u: f64| n * u / (1.0 - n * u);
    let (u, u64) = (f64::from(f32::EPSILON) / 2.0, f64::EPSILON / 2.0);
    let rho = 2.0 * u + u * u + gamma(u) * (1.0 + u) * (1.0 + u) + gamma(u64);
    let inflate = 1.0 + f64::from_bits((1023 - 30) << 52);
    (rho * inflate, n * f64::from_bits((1023 - 64) << 52))
}

/// The least f32 at or above `x` (NaN for NaN, `+∞` past `f32::MAX`).
#[inline]
fn f32_at_least(x: f64) -> f32 {
    let t = x as f32;
    if f64::from(t) < x {
        t.next_up()
    } else {
        t
    }
}

/// Rows per strip of the sweep: each anchor of a group keeps `STRIP`
/// accumulators, independent chains that hide FP-add latency.
const STRIP: usize = 32;

/// Anchors per register-blocked group of the sweep: the widest block
/// whose `MULTI × STRIP` accumulator tile still fits the AVX-512 register
/// file alongside the shared column loads.
const MULTI: usize = 4;

multiversion! {
    /// The one strip sweep: `out[u·stride + i] = −⟨anchors[u], x_{lo+i}⟩_L`
    /// for `i < n`. Strips of [`STRIP`] rows are the outer loop, anchors
    /// in register-blocked groups of up to [`MULTI`] the inner one, so a
    /// strip's panel tile is read from memory once per *block* of anchors
    /// — the first group pulls it in, later groups hit L1 (a tile is
    /// `STRIP · (ambient−1)` doubles, ≤16 KiB at ambient 65) — and every
    /// column load feeds a whole group. Within a strip each item
    /// accumulates its dimensions in the scalar kernel's exact order:
    /// `acc = (−a₀)·tᵢ; acc += aⱼ·xᵢ[j] (j ascending); out = −acc` — unary
    /// minus binds to the operand, so both sign flips are exact. Partial
    /// strips at the range edges run [`BlockCache::neg_inner_one`] per
    /// item, the same operations one at a time.
    fn neg_inner_strips(
        isa: Isa,
        c: &BlockCache,
        anchors: &[&[f64]],
        lo: usize,
        n: usize,
        stride: usize,
        out: &mut [f64],
    ) {
        let panel = STRIP * (c.ambient - 1);
        let edge = |i: usize, out: &mut [f64]| {
            for (u, anchor) in anchors.iter().enumerate() {
                out[u * stride + i] = c.neg_inner_one(anchor, lo + i);
            }
        };
        let mut i = 0;
        // Head: items before the first strip boundary.
        while i < n && !(lo + i).is_multiple_of(STRIP) {
            edge(i, out);
            i += 1;
        }
        // Aligned full strips: one tile read serves every anchor group.
        while i + STRIP <= n {
            let t = &c.time[lo + i..lo + i + STRIP];
            let base = (lo + i) / STRIP * panel;
            let tile = &c.spatial[base..base + panel];
            for (g, group) in anchors.chunks(MULTI).enumerate() {
                let out = &mut out[g * MULTI * stride + i..];
                match group.len() {
                    1 => strip_group::<f64, _, 1>(group, t, tile, stride, out),
                    2 => strip_group::<f64, _, 2>(group, t, tile, stride, out),
                    3 => strip_group::<f64, _, 3>(group, t, tile, stride, out),
                    _ => strip_group::<f64, _, MULTI>(group, t, tile, stride, out),
                }
            }
            i += STRIP;
        }
        // Tail: the final partial strip.
        while i < n {
            edge(i, out);
            i += 1;
        }
    }
}

multiversion! {
    /// The screen's strip sweep, [`neg_inner_strips`] in f32: `out[u·n +
    /// i]` is the f32 value of `−⟨anchors[u], x_{lo+i}⟩_L` for every item
    /// of a full strip of the range, in the same strips, anchor groups
    /// and per-item operation order. Items of the partial strips at the
    /// range's edges get NaN, which clears no threshold, so the caller
    /// computes them exactly.
    fn screen_strips(
        isa: Isa,
        s: &Screen,
        anchors: &[Vec<f32>],
        lo: usize,
        n: usize,
        out: &mut [f32],
    ) {
        let edge = |i: usize, out: &mut [f32]| {
            for u in 0..anchors.len() {
                out[u * n + i] = f32::NAN;
            }
        };
        let mut i = 0;
        while i < n && !(lo + i).is_multiple_of(STRIP) {
            edge(i, out);
            i += 1;
        }
        while i + STRIP <= n {
            let t = &s.time[lo + i..lo + i + STRIP];
            let base = (lo + i) / STRIP * s.panel;
            let tile = &s.spatial[base..base + s.panel];
            for (g, group) in anchors.chunks(MULTI).enumerate() {
                let out = &mut out[g * MULTI * n + i..];
                match group.len() {
                    1 => strip_group::<f32, _, 1>(group, t, tile, n, out),
                    2 => strip_group::<f32, _, 2>(group, t, tile, n, out),
                    3 => strip_group::<f32, _, 3>(group, t, tile, n, out),
                    _ => strip_group::<f32, _, MULTI>(group, t, tile, n, out),
                }
            }
            i += STRIP;
        }
        while i < n {
            edge(i, out);
            i += 1;
        }
    }
}

/// One strip of [`neg_inner_strips`] (`T = f64`) or [`screen_strips`]
/// (`T = f32`) for a group of `B` anchors: `B × STRIP` accumulators,
/// which stay in registers because `B` is a constant, and each item's
/// operations in the scalar kernel's order.
#[inline(always)]
fn strip_group<T, A, const B: usize>(group: &[A], t: &[T], tile: &[T], stride: usize, out: &mut [T])
where
    T: Copy + Default + Neg<Output = T> + Mul<Output = T> + AddAssign,
    A: Deref<Target = [T]>,
{
    let group: &[A; B] = group.try_into().expect("group of B anchors");
    let mut acc = [[T::default(); STRIP]; B];
    for (accu, anchor) in acc.iter_mut().zip(group) {
        let na0 = -anchor[0];
        for k in 0..STRIP {
            accu[k] = na0 * t[k];
        }
    }
    // Columns sliced by range, not by `chunks_exact`: the range's length
    // is a constant the vectorizer sees. With `chunks_exact` a block of
    // 32 anchors swept three times slower on an AVX-512 host.
    for j in 1..=tile.len() / STRIP {
        let col = &tile[(j - 1) * STRIP..j * STRIP];
        for (accu, anchor) in acc.iter_mut().zip(group) {
            let aj = anchor[j];
            for k in 0..STRIP {
                accu[k] += aj * col[k];
            }
        }
    }
    for (u, accu) in acc.iter().enumerate() {
        let dst = &mut out[u * stride..u * stride + STRIP];
        for k in 0..STRIP {
            dst[k] = -accu[k];
        }
    }
}

/// Second distance channel of a fused two-channel score pass.
pub struct TagChannel<'a> {
    /// Cache over the tag-relevant item block.
    pub cache: &'a BlockCache,
    /// Tag-relevant anchor (same ambient dim as `cache`).
    pub anchor: &'a [f64],
    /// Channel weight: `gain · α_u` in paper Eq. 17.
    pub alpha: f64,
}

/// Fused two-channel preference scores for one anchor against the block
/// `lo..hi`:
///
/// `out[i] = −( d²(u_ir, v_ir_i) + α · d²(u_tg, v_tg_i) )`
///
/// with the tag term dropped when `tag` is `None`. `scratch` must be at
/// least `hi − lo` long when `tag` is present; its prior contents are
/// overwritten. The per-item arithmetic order matches the scalar scoring
/// loop (`d = arcosh(−⟨·,·⟩); g = d·d; g += α·(d_tg·d_tg); score = −g`),
/// so scores are bit-identical to the pre-fusion path. Both channels'
/// inner products run as batched sweeps, then one finisher pass applies
/// arcosh/square/combine per item — a single traversal instead of one
/// map pass per operation.
pub fn fused_scores_block(
    ir: &BlockCache,
    u_ir: &[f64],
    tag: Option<TagChannel<'_>>,
    lo: usize,
    hi: usize,
    scratch: &mut [f64],
    out: &mut [f64],
) {
    ir.neg_inner_block(u_ir, lo, hi, out);
    match tag {
        Some(t) => {
            let n = hi - lo;
            assert!(scratch.len() >= n, "scratch too small for tag channel");
            let scratch = &mut scratch[..n];
            t.cache.neg_inner_block(t.anchor, lo, hi, scratch);
            let alpha = t.alpha;
            for (o, &ni_tg) in out.iter_mut().zip(scratch.iter()) {
                *o = finish_two_channel(*o, ni_tg, alpha);
            }
        }
        None => {
            for o in out.iter_mut() {
                *o = finish_one_channel(*o);
            }
        }
    }
}

/// The single-channel finisher: `−arcosh(ni_ir)²` from a negated inner
/// product. One definition for every fused entry point, so "the same
/// score bits" is the same code.
#[inline(always)]
fn finish_one_channel(ni_ir: f64) -> f64 {
    let d = arcosh(ni_ir);
    -(d * d)
}

/// The two-channel finisher of Eq. 17, in the scalar loop's order:
/// `d = arcosh(·); g = d·d; g += α·(d_tg·d_tg); −g`.
#[inline(always)]
fn finish_two_channel(ni_ir: f64, ni_tg: f64, alpha: f64) -> f64 {
    let d_ir = arcosh(ni_ir);
    let mut g = d_ir * d_ir;
    let d_tg = arcosh(ni_tg);
    g += alpha * (d_tg * d_tg);
    -g
}

/// Second distance channel of a multi-anchor fused score pass: one tag
/// cache shared by a block of users, with per-user anchors and weights.
pub struct TagChannelMulti<'a> {
    /// Cache over the tag-relevant item block.
    pub cache: &'a BlockCache,
    /// Tag-relevant anchor of each user (parallel to the `u_irs` block).
    pub anchors: &'a [&'a [f64]],
    /// Channel weight of each user: `gain · α_u` in paper Eq. 17.
    pub alphas: &'a [f64],
}

/// Items per internal pass of [`fused_rank`]: the sweep + finish working
/// set of one pass (the interaction channel's inner-product rows and its
/// panel chunk) stays L2-resident, so the finisher reads what the sweep
/// just wrote instead of re-streaming full-catalog buffers.
pub const FUSED_ITEM_CHUNK: usize = 512;

/// Receiver of a fused ranking pass ([`fused_rank`]): one bounded top-K
/// selection per anchor of the block.
pub trait RankSink {
    /// `Some(τ)` once `anchor`'s selection is full, `τ` being its worst
    /// retained score: a candidate scoring **strictly** below `τ` can no
    /// longer enter (an equal score still can — ties break by item id),
    /// so the pass may withhold it. `None` while every candidate counts.
    fn floor(&self, anchor: usize) -> Option<f64>;

    /// Offers cache row `slot` with its fused score for `anchor`.
    fn offer(&mut self, anchor: usize, slot: usize, score: f64);
}

/// Relative slack on the pruning cut. The rule needs
/// `x > cut ⇒ fl(fl(acosh x)²) > −τ`; the libm calls on either side
/// (`sqrt`, `cosh`, `acosh`) are each good to a few ulp but not proven
/// monotone, and `1e-9` on the argument moves `acosh` by at least `1e-9`
/// — seven orders of magnitude more than those errors (DESIGN.md §12).
const PRUNE_SLACK: f64 = 1.0 + 1e-9;

/// The negated inner product above which the interaction term alone
/// scores strictly below `floor`: `cosh(√−τ)·(1+1e‑9)`. NaN — which
/// compares false, so nothing is pruned — without a floor, and for a
/// floor that is NaN or positive; `+∞` (same effect) for `−∞`.
#[inline]
fn prune_cut(floor: Option<f64>) -> f64 {
    match floor {
        Some(tau) => (-tau).sqrt().cosh() * PRUNE_SLACK,
        None => f64::NAN,
    }
}

thread_local! {
    /// Per-thread sweep buffers of [`fused_rank`] (one chunk of negated
    /// interaction inner products per anchor, f64 and screened), kept
    /// across calls so a ranking pass allocates nothing in steady state.
    /// Taken out for the duration of a call, so a sink that re-enters the
    /// kernel just allocates.
    static RANK_SCRATCH: std::cell::Cell<(Vec<f64>, Vec<f32>)> =
        const { std::cell::Cell::new((Vec::new(), Vec::new())) };
}

/// Which sweep a ranking pass streams the interaction channel through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sweep {
    /// The f64 strip sweep on every chunk.
    Exact,
    /// The f32 screen on every chunk it applies to, the f64 sweep on the
    /// others: chunks where an anchor has no finite cut yet or that
    /// follow a chunk which kept many items ([`SCREEN_MAX_KEPT_BASE`]),
    /// and every chunk when the cache or an anchor cannot be screened or
    /// a tag inner product may be NaN or `+∞`.
    Screened,
}

impl Sweep {
    /// The sweep [`fused_rank`] runs over `rows` rows of `ambient`
    /// coordinates: screened from [`SCREEN_MIN_BYTES`] of f64 panel on.
    pub fn for_range(rows: usize, ambient: usize) -> Sweep {
        if rows.saturating_mul(ambient).saturating_mul(8) >= SCREEN_MIN_BYTES {
            Sweep::Screened
        } else {
            Sweep::Exact
        }
    }
}

/// A block of anchors prepared for a cache's screen: their f32 copies
/// and the per-anchor weights of the error bound.
struct ScreenedBlock<'a> {
    screen: &'a Screen,
    anchors: Vec<Vec<f32>>,
    /// Per anchor, `ρ·|a₀|` and `ρ·‖a_s‖`: a strip's bound on
    /// `Σ|aⱼxⱼ|` is `|a₀|·t_max + ‖a_s‖·n_max` (Cauchy–Schwarz).
    t_weight: Vec<f64>,
    n_weight: Vec<f64>,
    /// The absolute underflow term `A`.
    abs: f64,
}

impl<'a> ScreenedBlock<'a> {
    /// `None` when an anchor value is non-finite or past
    /// [`SCREEN_BOUND`], or the cache has no screen.
    fn new(ir: &'a BlockCache, u_irs: &[&[f64]]) -> Option<Self> {
        if !u_irs
            .iter()
            .all(|a| a.iter().all(|v| v.abs() <= SCREEN_BOUND))
        {
            return None;
        }
        let screen = ir.screen()?;
        let (rho, abs) = screen_error(ir.ambient);
        let norm = |a: &[f64]| a[1..].iter().map(|v| v * v).sum::<f64>().sqrt();
        Some(ScreenedBlock {
            screen,
            anchors: u_irs
                .iter()
                .map(|a| a.iter().map(|&v| v as f32).collect())
                .collect(),
            t_weight: u_irs.iter().map(|a| rho * a[0].abs()).collect(),
            n_weight: u_irs.iter().map(|a| rho * norm(a)).collect(),
            abs,
        })
    }

    /// The f32 threshold of anchor `u` in `strip` for the f64 `cut`: at
    /// least `cut + E`, so an item of the strip whose f32 value exceeds it
    /// has an f64 value above `cut`. `(cut + E).next_up()` is at least the
    /// real sum, whichever way the addition rounded.
    #[inline]
    fn threshold(&self, u: usize, strip: usize, cut: f64) -> f32 {
        f32_at_least((cut + self.error(u, strip)).next_up())
    }

    /// `E` for anchor `u` in `strip`: a bound on `|s − y|` for each of the
    /// strip's items ([`screen_error`]).
    #[inline]
    fn error(&self, u: usize, strip: usize) -> f64 {
        let s = self.screen;
        self.t_weight[u] * s.t_max[strip] + self.n_weight[u] * s.n_max[strip] + self.abs
    }
}

/// Fused *ranking* of a block of anchors against the rows `lo..hi`:
/// sweeps the negated interaction inner products of each
/// [`FUSED_ITEM_CHUNK`] for the whole block, then — only for items that
/// can still enter the anchor's top-K — computes the tag inner product,
/// runs the finisher and offers the item to `sink`. Offers arrive in
/// ascending slot order per anchor. The sweep is
/// [`Sweep::for_range`]'s pick on the detected clone.
///
/// **Pruning rule.** With a full selection whose worst score is `τ`, an
/// item with `ni_ir > cosh(√−τ)·(1+1e‑9)` has `−arcosh(ni_ir)² < τ`; the
/// tag term `α·d_tg²` is `≥ 0` and rounding of `+` is monotone, so the
/// whole score is below `τ` as well and the item is skipped on that
/// compare, with no `arcosh` and no read of its tag row. Everything the
/// rule cannot vouch for is scored: an anchor whose `α` is negative or
/// non-finite is never pruned, nor is a NaN inner product (which
/// `arcosh` clamps to distance 0 — the *best* score), a tag inner product
/// that is NaN or `+∞` (`0·∞`), or anything while the floor is NaN. The
/// tag inner product is provably finite when the tag cache and the
/// anchor are both within [`INNER_BOUND`]; only otherwise is it computed
/// ahead of the compare to rule those out. Survivors run the unchanged
/// finisher on the strip kernel's bits (`neg_inner_one` is its per-item
/// operation order), so `sink` sees, bit for bit, every `(slot, score)`
/// of [`fused_scores_block`] that a top-K selection would retain, and
/// never a different score.
///
/// **The screen.** A screened chunk sweeps f32 values instead and skips
/// an item only when its f32 value exceeds the cut by more than the f32
/// rounding error can explain — where the rule above would skip it too.
/// Every other item takes its f64 value from `neg_inner_one` and meets
/// the rule as before, so the offers are the f64 sweep's.
pub fn fused_rank<S: RankSink + ?Sized>(
    ir: &BlockCache,
    u_irs: &[&[f64]],
    tag: Option<TagChannelMulti<'_>>,
    lo: usize,
    hi: usize,
    sink: &mut S,
) {
    let sweep = Sweep::for_range(hi.saturating_sub(lo), ir.ambient);
    fused_rank_with(Isa::detected(), sweep, ir, u_irs, tag, lo..hi, sink);
}

/// [`fused_rank`] on the clone `isa` names, through `sweep`: the kernel
/// body, for tests that hold both sweeps to the same offers.
pub fn fused_rank_with<S: RankSink + ?Sized>(
    isa: Isa,
    sweep: Sweep,
    ir: &BlockCache,
    u_irs: &[&[f64]],
    tag: Option<TagChannelMulti<'_>>,
    Range { start: lo, end: hi }: Range<usize>,
    sink: &mut S,
) {
    assert!(lo <= hi && hi <= ir.rows(), "block {lo}..{hi} out of range");
    for a in u_irs {
        assert_eq!(a.len(), ir.ambient, "anchor/cache dim mismatch");
    }
    let b = u_irs.len();
    // Per anchor: whether its tag inner products are provably finite, and
    // whether its tag term is `≥ 0`, never NaN — what the rule needs.
    let (mut finite, mut sound) = (vec![true; b], vec![true; b]);
    if let Some(t) = &tag {
        assert_eq!(t.anchors.len(), b, "tag anchors/users mismatch");
        assert_eq!(t.alphas.len(), b, "tag alphas/users mismatch");
        assert!(hi <= t.cache.rows(), "block {lo}..{hi} out of tag range");
        for a in t.anchors {
            assert_eq!(a.len(), t.cache.ambient, "tag anchor/cache dim mismatch");
        }
        for u in 0..b {
            finite[u] = t.cache.bounded && within_bound(t.anchors[u]);
            sound[u] = (0.0..f64::INFINITY).contains(&t.alphas[u]);
        }
    }
    let cut_of = |u: usize, sink: &S| prune_cut(sink.floor(u).filter(|_| sound[u]));
    // The rule for one item of anchor `u`, by its f64 value `ni`: skip,
    // or finish and offer. True when offered.
    let consider = |sink: &mut S, u: usize, slot: usize, ni: f64, cut: f64| -> bool {
        match &tag {
            Some(t) => {
                let tag_ni = || t.cache.neg_inner_one(t.anchors[u], slot);
                // Ahead of the compare only when `nt` may be NaN or `+∞`.
                let early = (!finite[u]).then(tag_ni);
                if ni > cut && early.is_none_or(|nt| nt < f64::INFINITY) {
                    return false;
                }
                let nt = early.unwrap_or_else(tag_ni);
                sink.offer(u, slot, finish_two_channel(ni, nt, t.alphas[u]));
            }
            None => {
                if ni > cut {
                    return false;
                }
                sink.offer(u, slot, finish_one_channel(ni));
            }
        }
        true
    };
    // A tag inner product that may be NaN or `+∞` needs every item's f64
    // value: such a block sweeps in f64.
    let screen = match sweep {
        Sweep::Screened if finite.iter().all(|&f| f) => ScreenedBlock::new(ir, u_irs),
        _ => None,
    };
    let (mut ni_ir, mut ni_screen) = RANK_SCRATCH.take();
    let buf_len = b * (hi - lo).min(FUSED_ITEM_CHUNK);
    if ni_ir.len() < buf_len {
        ni_ir.resize(buf_len, 0.0);
    }
    if screen.is_some() && ni_screen.len() < buf_len {
        ni_screen.resize(buf_len, 0.0);
    }
    // Items of the last chunk that met the rule on their f64 value: the
    // screen pays only while few do (`SCREEN_MAX_KEPT_BASE`).
    let mut kept = usize::MAX;
    let mut c0 = lo;
    while c0 < hi {
        // Chunks end on multiples of the chunk size, so only the range's
        // own edges split a strip.
        let c1 = ((c0 / FUSED_ITEM_CHUNK + 1) * FUSED_ITEM_CHUNK).min(hi);
        let m = c1 - c0;
        let screened = screen.as_ref().filter(|_| {
            kept <= SCREEN_MAX_KEPT_BASE + b && (0..b).all(|u| cut_of(u, sink).is_finite())
        });
        kept = 0;
        let Some(scr) = screened else {
            ir.neg_inner_rows(isa, u_irs, c0, m, m, &mut ni_ir[..b * m]);
            for u in 0..b {
                let mut cut = cut_of(u, sink);
                for (i, &ni) in ni_ir[u * m..(u + 1) * m].iter().enumerate() {
                    if ni > cut && finite[u] {
                        continue;
                    }
                    kept += 1;
                    if consider(sink, u, c0 + i, ni, cut) {
                        cut = cut_of(u, sink);
                    }
                }
            }
            c0 = c1;
            continue;
        };
        screen_strips(
            isa,
            scr.screen,
            &scr.anchors,
            c0,
            m,
            &mut ni_screen[..b * m],
        );
        for u in 0..b {
            let row = &ni_screen[u * m..(u + 1) * m];
            let mut cut = cut_of(u, sink);
            // One run per strip, the unit of the error bound.
            let mut i = 0;
            while i < m {
                let strip = (c0 + i) / STRIP;
                let run = i..((strip + 1) * STRIP - c0).min(m);
                i = run.end;
                let mut threshold = scr.threshold(u, strip, cut);
                // The common case as one vector compare: every item clears.
                let clear = row[run.clone()].iter().map(|&s| usize::from(s > threshold));
                if clear.sum::<usize>() == run.len() {
                    continue;
                }
                for i in run {
                    // `s > threshold` proves `ni > cut`: the f64 rule's skip.
                    if row[i] > threshold {
                        continue;
                    }
                    let slot = c0 + i;
                    kept += 1;
                    if consider(sink, u, slot, ir.neg_inner_one(u_irs[u], slot), cut) {
                        cut = cut_of(u, sink);
                        threshold = scr.threshold(u, strip, cut);
                    }
                }
            }
        }
        c0 = c1;
    }
    RANK_SCRATCH.set((ni_ir, ni_screen));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lorentz;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn flat(points: &[Vec<f64>]) -> Vec<f64> {
        points.iter().flat_map(|p| p.iter().copied()).collect()
    }

    fn sample_points() -> Vec<Vec<f64>> {
        vec![
            lorentz::from_spatial(&[0.0, 0.0, 0.0]),
            lorentz::from_spatial(&[0.5, -1.2, 3.0]),
            lorentz::from_spatial(&[1e-9, -1e-9, 1e-9]),
            lorentz::from_spatial(&[-4.0, 2.5, -1.0]),
            lorentz::from_spatial(&[0.3, 0.1, -0.2]),
        ]
    }

    #[test]
    fn cache_layout_round_trips() {
        let pts = sample_points();
        let c = BlockCache::build(&flat(&pts), 4);
        assert_eq!(c.rows(), pts.len());
        assert_eq!(c.ambient(), 4);
        assert!(!c.is_empty());
    }

    #[test]
    fn block_kernels_are_bit_identical_to_scalar() {
        let pts = sample_points();
        let c = BlockCache::build(&flat(&pts), 4);
        let anchor = lorentz::from_spatial(&[0.9, -0.4, 0.25]);
        let mut d = vec![0.0; pts.len()];
        c.distance_block(&anchor, 0, pts.len(), &mut d);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(
                d[i].to_bits(),
                lorentz::distance(&anchor, p).to_bits(),
                "distance row {i}"
            );
        }
    }

    #[test]
    fn sub_blocks_match_full_block() {
        let pts = sample_points();
        let c = BlockCache::build(&flat(&pts), 4);
        let anchor = lorentz::from_spatial(&[-0.3, 0.8, 0.1]);
        let mut full = vec![0.0; pts.len()];
        c.distance_block(&anchor, 0, pts.len(), &mut full);
        let mut part = vec![0.0; 2];
        c.distance_block(&anchor, 2, 4, &mut part);
        assert_eq!(part[0].to_bits(), full[2].to_bits());
        assert_eq!(part[1].to_bits(), full[3].to_bits());
    }

    #[test]
    fn rebuild_reuses_and_refreshes() {
        let pts = sample_points();
        let mut c = BlockCache::build(&flat(&pts), 4);
        let moved: Vec<Vec<f64>> = pts
            .iter()
            .map(|p| {
                let spatial: Vec<f64> = p[1..].iter().map(|v| v * 1.5 + 0.1).collect();
                lorentz::from_spatial(&spatial)
            })
            .collect();
        c.rebuild(&flat(&moved), 4);
        let anchor = lorentz::from_spatial(&[0.2, 0.2, 0.2]);
        let mut d = vec![0.0; moved.len()];
        c.distance_block(&anchor, 0, moved.len(), &mut d);
        for (i, p) in moved.iter().enumerate() {
            assert_eq!(d[i].to_bits(), lorentz::distance(&anchor, p).to_bits());
        }
    }

    #[test]
    fn a_value_past_the_bound_clears_the_flag_and_a_clean_rebuild_sets_it() {
        let clean = flat(&sample_points());
        let mut c = BlockCache::build(&clean, 4);
        assert!(c.bounded);
        let alloc = c.spatial.as_ptr();
        for (idx, bad) in [(1, f64::NAN), (6, f64::INFINITY), (19, 1e300), (8, -1e300)] {
            let mut data = clean.clone();
            data[idx] = bad;
            c.rebuild(&data, 4);
            assert!(!c.bounded, "{bad} at {idx}");
            c.rebuild(&clean, 4);
            assert!(c.bounded, "clean rebuild after {bad}");
            assert_eq!(c.spatial.as_ptr(), alloc, "rebuild reallocated");
        }
    }

    #[test]
    fn fused_scores_match_scalar_two_channel_loop() {
        let ir_pts = sample_points();
        let tg_pts: Vec<Vec<f64>> = vec![
            lorentz::from_spatial(&[0.1, 0.0]),
            lorentz::from_spatial(&[-0.5, 0.4]),
            lorentz::from_spatial(&[2.0, -1.0]),
            lorentz::from_spatial(&[0.0, 0.0]),
            lorentz::from_spatial(&[-0.1, -0.3]),
        ];
        let ir = BlockCache::build(&flat(&ir_pts), 4);
        let tg = BlockCache::build(&flat(&tg_pts), 3);
        let u_ir = lorentz::from_spatial(&[0.4, 0.4, -0.9]);
        let u_tg = lorentz::from_spatial(&[-0.2, 0.6]);
        let alpha = 0.37;
        let n = ir_pts.len();
        let mut scratch = vec![0.0; n];
        let mut out = vec![0.0; n];
        fused_scores_block(
            &ir,
            &u_ir,
            Some(TagChannel {
                cache: &tg,
                anchor: &u_tg,
                alpha,
            }),
            0,
            n,
            &mut scratch,
            &mut out,
        );
        for i in 0..n {
            let mut g = lorentz::distance_sq(&u_ir, &ir_pts[i]);
            g += alpha * lorentz::distance_sq(&u_tg, &tg_pts[i]);
            assert_eq!(out[i].to_bits(), (-g).to_bits(), "row {i}");
        }
        // Single channel.
        fused_scores_block(&ir, &u_ir, None, 0, n, &mut scratch, &mut out);
        for i in 0..n {
            let g = lorentz::distance_sq(&u_ir, &ir_pts[i]);
            assert_eq!(out[i].to_bits(), (-g).to_bits(), "row {i} (single)");
        }
    }

    /// `v`'s bits, with every NaN mapped to one value: Rust leaves the
    /// sign and payload of a NaN result unspecified.
    fn key(v: f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    /// Values a sweep must pass through as the scalar kernel does.
    const EDGES: [f64; 7] = [
        0.0,
        -0.0,
        1e-300,
        -1e300,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    /// Values the screen sweep must pass through as the scalar f32 chain
    /// does: signed zeros, an f32 underflow, an f32 subnormal and the
    /// screen's magnitude bound.
    const SCREEN_EDGES: [f64; 6] = [0.0, -0.0, 1e-300, 1e-40, SCREEN_BOUND, -SCREEN_BOUND];

    /// `n` hyperboloid points of `ambient` coordinates, a few spatial
    /// coordinates `−0.0`; about one value in eight is replaced by one of
    /// `edges`, if any.
    fn points(rng: &mut StdRng, n: usize, ambient: usize, edges: &[f64]) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| {
                let spatial: Vec<f64> = (1..ambient)
                    .map(|_| match rng.random_range(0..10usize) {
                        0 => -0.0,
                        _ => (rng.random::<f64>() - 0.5) * 4.0,
                    })
                    .collect();
                let mut p = lorentz::from_spatial(&spatial);
                for v in p.iter_mut() {
                    if !edges.is_empty() && rng.random_range(0..8usize) == 0 {
                        *v = edges[rng.random_range(0..edges.len())];
                    }
                }
                p
            })
            .collect()
    }

    /// Rows `lo..hi` of `isa`'s sweep for each anchor, through a stride
    /// two longer than the range, whose gap must stay untouched.
    fn sweep(c: &BlockCache, isa: Isa, anchors: &[&[f64]], lo: usize, hi: usize) -> Vec<f64> {
        let (n, stride) = (hi - lo, hi - lo + 2);
        let mut out = vec![7.0; anchors.len() * stride];
        c.neg_inner_rows(isa, anchors, lo, n, stride, &mut out);
        for row in out.chunks(stride) {
            assert!(
                row[n..].iter().all(|&v| v == 7.0),
                "sweep wrote past its range"
            );
        }
        out.chunks(stride)
            .flat_map(|row| row[..n].to_vec())
            .collect()
    }

    /// The screen sweep's f32 values of rows `lo..hi` for each anchor on
    /// `isa`'s clone, anchor-major.
    fn screen_sweep(
        c: &BlockCache,
        isa: Isa,
        anchors: &[&[f64]],
        lo: usize,
        hi: usize,
    ) -> Vec<f32> {
        let block = ScreenedBlock::new(c, anchors).expect("screenable cache and anchors");
        let mut out = vec![7.0; anchors.len() * (hi - lo)];
        screen_strips(isa, block.screen, &block.anchors, lo, hi - lo, &mut out);
        out
    }

    /// [`key`] for an f32.
    fn key32(v: f32) -> u32 {
        if v.is_nan() {
            f32::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    /// Three and a half strips of rows, ranges that start and end on and
    /// off strip boundaries, and anchor blocks of every group shape.
    const ROWS: usize = 3 * STRIP + 16;
    const RANGES: [(usize, usize); 5] = [
        (0, ROWS),
        (5, ROWS - 3),
        (STRIP, 3 * STRIP),
        (1, 2 * STRIP + 1),
        (40, 50),
    ];

    #[test]
    fn strip_sweep_is_the_scalar_inner_product() {
        let mut rng = StdRng::seed_from_u64(3);
        for ambient in [2, 13, 33, 65] {
            let pts = points(&mut rng, ROWS, ambient, &[]);
            let c = BlockCache::build(&flat(&pts), ambient);
            let anchor_pts = points(&mut rng, 2 * MULTI + 1, ambient, &[]);
            for b in 1..=anchor_pts.len() {
                let anchors: Vec<&[f64]> = anchor_pts[..b].iter().map(Vec::as_slice).collect();
                for (lo, hi) in RANGES {
                    let got = sweep(&c, Isa::detected(), &anchors, lo, hi);
                    for (u, row) in got.chunks(hi - lo).enumerate() {
                        for (i, v) in row.iter().enumerate() {
                            let want = -lorentz::inner(anchors[u], &pts[lo + i]);
                            assert_eq!(
                                v.to_bits(),
                                want.to_bits(),
                                "ambient {ambient}, {b} anchors, range {lo}..{hi}: anchor {u} row {}",
                                lo + i
                            );
                        }
                    }
                }
            }
        }
    }

    /// Both strip bodies, the f64 sweep and the f32 screen, on every
    /// clone against the baseline clone's bits. The sweep's inputs
    /// include non-finite values; the screen's keep to its magnitude
    /// bound, the only inputs it is built for.
    #[test]
    fn every_clone_sweeps_the_baseline_bits() {
        let clones = Isa::supported();
        println!(
            "sweep and screen clones: {:?}",
            clones.iter().map(|i| i.name()).collect::<Vec<_>>()
        );
        let mut rng = StdRng::seed_from_u64(5);
        for ambient in [2, 13, 33, 65] {
            let c = BlockCache::build(&flat(&points(&mut rng, ROWS, ambient, &EDGES)), ambient);
            let c32 = BlockCache::build(
                &flat(&points(&mut rng, ROWS, ambient, &SCREEN_EDGES)),
                ambient,
            );
            let anchor_pts = points(&mut rng, 2 * MULTI + 1, ambient, &EDGES);
            let screen_pts = points(&mut rng, 2 * MULTI + 1, ambient, &SCREEN_EDGES);
            for b in 1..=anchor_pts.len() {
                let anchors: Vec<&[f64]> = anchor_pts[..b].iter().map(Vec::as_slice).collect();
                let screened: Vec<&[f64]> = screen_pts[..b].iter().map(Vec::as_slice).collect();
                for (lo, hi) in RANGES {
                    let bits = |isa| -> (Vec<u64>, Vec<u32>) {
                        let f64s = sweep(&c, isa, &anchors, lo, hi);
                        let f32s = screen_sweep(&c32, isa, &screened, lo, hi);
                        (
                            f64s.into_iter().map(key).collect(),
                            f32s.into_iter().map(key32).collect(),
                        )
                    };
                    let want = bits(Isa::BASELINE);
                    for &isa in &clones {
                        assert_eq!(
                            bits(isa),
                            want,
                            "{} at ambient {ambient}, {b} anchors, range {lo}..{hi}",
                            isa.name()
                        );
                    }
                }
            }
        }
    }

    /// The claim the screen rests on, checked item by item: on every full
    /// strip the sweep is the scalar f32 chain (`(−ã₀)·t̃; += ãⱼ·x̃ⱼ;
    /// negate`), and its distance from the f64 value is within `E`. Rows
    /// far out on the hyperboloid make the inner products cancel by
    /// orders of magnitude, where the f32 error is largest.
    #[test]
    fn the_screen_is_the_f32_chain_and_within_its_error_bound() {
        let mut rng = StdRng::seed_from_u64(11);
        // (ambient, radius scale, edge values): the last rows reach the
        // magnitude bound, where the products are near 2^100.
        let cases: [(usize, f64, &[f64]); 6] = [
            (2, 1.0, &SCREEN_EDGES[..4]),
            (13, 1.0, &SCREEN_EDGES[..4]),
            (33, 1.0, &SCREEN_EDGES[..4]),
            (33, 40.0, &SCREEN_EDGES[..4]),
            (65, 8.0, &SCREEN_EDGES[..4]),
            (13, 1.0, &SCREEN_EDGES),
        ];
        for (ambient, scale, edges) in cases {
            let far = |p: Vec<f64>| {
                if scale == 1.0 {
                    return p;
                }
                let spatial: Vec<f64> = p[1..].iter().map(|v| v * scale).collect();
                lorentz::from_spatial(&spatial)
            };
            let pts: Vec<Vec<f64>> = points(&mut rng, ROWS, ambient, edges)
                .into_iter()
                .map(far)
                .collect();
            // Rows near an anchor as well, where the cancellation is deepest.
            let anchor_pts: Vec<Vec<f64>> = pts.iter().step_by(23).cloned().collect();
            let anchors: Vec<&[f64]> = anchor_pts.iter().map(Vec::as_slice).collect();
            let c = BlockCache::build(&flat(&pts), ambient);
            let block = ScreenedBlock::new(&c, &anchors).expect("in bound");
            let got = screen_sweep(&c, Isa::detected(), &anchors, 0, ROWS);
            for (u, a) in anchors.iter().enumerate() {
                let a32: Vec<f32> = a.iter().map(|&v| v as f32).collect();
                for (i, p) in pts.iter().enumerate().take(ROWS / STRIP * STRIP) {
                    let s = got[u * ROWS + i];
                    let mut acc = -a32[0] * p[0] as f32;
                    for j in 1..ambient {
                        acc += a32[j] * p[j] as f32;
                    }
                    assert_eq!(
                        s.to_bits(),
                        (-acc).to_bits(),
                        "ambient {ambient}: anchor {u} row {i}"
                    );
                    let y = -lorentz::inner(a, p);
                    let (err, bound) = ((f64::from(s) - y).abs(), block.error(u, i / STRIP));
                    assert!(
                        err <= bound,
                        "ambient {ambient}: anchor {u} row {i}: {err} > {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_value_past_the_screen_bound_leaves_the_cache_unscreened() {
        let clean = flat(&sample_points());
        let mut c = BlockCache::build(&clean, 4);
        assert!(c.screen().is_some());
        for (idx, v, screened) in [
            (5, SCREEN_BOUND, true),
            (5, -SCREEN_BOUND, true),
            (0, SCREEN_BOUND.next_up(), false),
            (7, -SCREEN_BOUND.next_up(), false),
            (2, f64::NAN, false),
            (9, f64::NEG_INFINITY, false),
        ] {
            let mut data = clean.clone();
            data[idx] = v;
            c.rebuild(&data, 4);
            assert_eq!(c.screen().is_some(), screened, "{v} at {idx}");
            c.rebuild(&clean, 4);
            assert!(c.screen().is_some(), "clean rebuild after {v}");
        }
        // An anchor past the bound, or an ambient past the limit, too.
        let anchor = [SCREEN_BOUND.next_up(), 0.0, 0.0, 0.0];
        assert!(ScreenedBlock::new(&c, &[&[1.0, 0.0, 0.0, 0.0], &anchor]).is_none());
        let wide = BlockCache::build(
            &vec![0.5; 2 * (MAX_SCREEN_AMBIENT + 1)],
            MAX_SCREEN_AMBIENT + 1,
        );
        assert!(wide.screen().is_none());
    }

    /// The rounding term carries weight. Anchor and rows sit far out on
    /// one geodesic (`r = 5`, `4.9`, `4.9003`), so each inner product
    /// cancels two terms near 5,000 down to about 1.005: the f32 value of
    /// row 544 lands above the cut that row 0 sets, while its f64 value
    /// is below it — row 544 is the true top-1. A screen that compared
    /// without `E`'s rounding term would drop it.
    #[test]
    fn the_rounding_term_keeps_a_top_k_member_the_bare_f32_value_would_drop() {
        let anchor = lorentz::from_spatial(&[74.20321057778875]);
        let (first, best) = (0, FUSED_ITEM_CHUNK + STRIP);
        let mut pts = vec![lorentz::from_spatial(&[-10.0]); 2 * FUSED_ITEM_CHUNK];
        pts[first] = lorentz::from_spatial(&[67.1411665509323]);
        pts[best] = lorentz::from_spatial(&[67.16131415652714]);
        let c = BlockCache::build(&flat(&pts), 2);
        let y = |i| c.neg_inner_one(&anchor, i);
        // With k = 1, row `first` sets the floor the screened chunk meets.
        let cut = prune_cut(Some(finish_one_channel(y(first))));
        let s = screen_sweep(&c, Isa::BASELINE, &[&anchor], best, best + STRIP)[0];
        assert!(y(best) < y(first), "row {best} is the top-1");
        assert!(y(best) <= cut, "the f64 rule keeps row {best}");
        assert!(f64::from(s) > cut, "its f32 value {s} clears the cut {cut}");
        for sweep in [Sweep::Exact, Sweep::Screened] {
            let mut sink = KeepAll {
                k: 1,
                offers: vec![Vec::new()],
            };
            fused_rank_with(
                Isa::detected(),
                sweep,
                &c,
                &[&anchor],
                None,
                0..pts.len(),
                &mut sink,
            );
            let top = sink.offers[0].iter().max_by(|a, b| a.1.total_cmp(&b.1));
            let want = finish_one_channel(y(best));
            assert_eq!(
                top.map(|&(i, v)| (i, v.to_bits())),
                Some((best, want.to_bits())),
                "{sweep:?}"
            );
        }
    }

    /// A sink that shares nothing with the production accumulator: it
    /// keeps every offer and reports the k-th best score seen so far.
    struct KeepAll {
        k: usize,
        offers: Vec<Vec<(usize, f64)>>,
    }

    impl RankSink for KeepAll {
        fn floor(&self, anchor: usize) -> Option<f64> {
            let mut scores: Vec<f64> = self.offers[anchor].iter().map(|o| o.1).collect();
            scores.sort_by(|a, b| b.total_cmp(a));
            scores.get(self.k.checked_sub(1)?).copied()
        }

        fn offer(&mut self, anchor: usize, slot: usize, score: f64) {
            self.offers[anchor].push((slot, score));
        }
    }

    #[test]
    fn fused_rank_offers_the_top_k_with_fused_scores_bits_and_prunes_the_rest() {
        // 300 points marching away from the anchors: once k are held,
        // everything farther is skipped on the compare.
        let pts: Vec<Vec<f64>> = (0..300)
            .map(|i| lorentz::from_spatial(&[0.01 * i as f64, 0.2, -0.1]))
            .collect();
        let ir = BlockCache::build(&flat(&pts), 4);
        let tg_pts: Vec<Vec<f64>> = (0..300)
            .map(|i| lorentz::from_spatial(&[0.3, 0.002 * i as f64]))
            .collect();
        let tg = BlockCache::build(&flat(&tg_pts), 3);
        let u_ir = [
            lorentz::from_spatial(&[0.0, 0.2, -0.1]),
            lorentz::from_spatial(&[0.5, 0.0, 0.0]),
        ];
        let u_tg = [
            lorentz::from_spatial(&[0.3, 0.0]),
            lorentz::from_spatial(&[0.0, 0.3]),
        ];
        let u_irs: Vec<&[f64]> = u_ir.iter().map(Vec::as_slice).collect();
        let u_tgs: Vec<&[f64]> = u_tg.iter().map(Vec::as_slice).collect();
        let alphas = [0.4, 0.0];
        let (lo, hi, k) = (7, 291, 5);
        for with_tag in [true, false] {
            let mut sink = KeepAll {
                k,
                offers: vec![Vec::new(); 2],
            };
            let tag = with_tag.then_some(TagChannelMulti {
                cache: &tg,
                anchors: &u_tgs,
                alphas: &alphas,
            });
            fused_rank(&ir, &u_irs, tag, lo, hi, &mut sink);
            for u in 0..2 {
                let mut all = vec![0.0; hi - lo];
                let tag = with_tag.then_some(TagChannel {
                    cache: &tg,
                    anchor: u_tgs[u],
                    alpha: alphas[u],
                });
                fused_scores_block(
                    &ir,
                    u_irs[u],
                    tag,
                    lo,
                    hi,
                    &mut vec![0.0; hi - lo],
                    &mut all,
                );
                let rank = |v: &mut Vec<(usize, f64)>| {
                    v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                    v.truncate(k);
                    v.iter().map(|&(i, s)| (i, s.to_bits())).collect::<Vec<_>>()
                };
                let mut want: Vec<(usize, f64)> =
                    all.iter().enumerate().map(|(i, &s)| (lo + i, s)).collect();
                let offered = sink.offers[u].len();
                assert_eq!(rank(&mut sink.offers[u]), rank(&mut want), "anchor {u}");
                assert!(offered < (hi - lo) / 2, "anchor {u}: {offered} offers");
            }
        }
    }

    /// The screen changes which sweep runs, never what the sink sees:
    /// over catalogues of several chunks, with and without the tag
    /// channel, on ranges on and off strip and chunk boundaries, a
    /// screened pass makes the f64 pass's offers — the same slots with the
    /// same score bits, in the same order — on every clone.
    #[test]
    fn a_screened_pass_makes_the_f64_pass_offers_on_every_clone() {
        let mut rng = StdRng::seed_from_u64(13);
        let n = 3 * FUSED_ITEM_CHUNK + 77;
        let alphas = [0.0, 0.3, 1.0, 2.0, 0.1, 5.0];
        for ambient in [2, 9, 33] {
            let ir = BlockCache::build(&flat(&points(&mut rng, n, ambient, &[])), ambient);
            let tg = BlockCache::build(&flat(&points(&mut rng, n, 3, &[])), 3);
            let anchor_pts = points(&mut rng, alphas.len(), ambient, &[]);
            let tag_pts = points(&mut rng, alphas.len(), 3, &[]);
            let anchors: Vec<&[f64]> = anchor_pts.iter().map(Vec::as_slice).collect();
            let tag_anchors: Vec<&[f64]> = tag_pts.iter().map(Vec::as_slice).collect();
            for isa in Isa::supported() {
                for (lo, hi) in [(0, n), (13, n - 5), (FUSED_ITEM_CHUNK - 3, n)] {
                    for with_tag in [false, true] {
                        let offers = |sweep| {
                            let mut sink = KeepAll {
                                k: 7,
                                offers: vec![Vec::new(); anchors.len()],
                            };
                            let tag = with_tag.then_some(TagChannelMulti {
                                cache: &tg,
                                anchors: &tag_anchors,
                                alphas: &alphas,
                            });
                            fused_rank_with(isa, sweep, &ir, &anchors, tag, lo..hi, &mut sink);
                            let bits = |o: &Vec<(usize, f64)>| -> Vec<(usize, u64)> {
                                o.iter().map(|&(i, v)| (i, v.to_bits())).collect()
                            };
                            sink.offers.iter().map(bits).collect::<Vec<_>>()
                        };
                        assert_eq!(
                            offers(Sweep::Screened),
                            offers(Sweep::Exact),
                            "{} at ambient {ambient}, range {lo}..{hi}, tag {with_tag}",
                            isa.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_cache_is_harmless() {
        let c = BlockCache::build(&[], 4);
        assert!(c.is_empty());
        assert_eq!(c.rows(), 0);
        let anchor = lorentz::origin(4);
        let mut out: Vec<f64> = vec![];
        c.distance_block(&anchor, 0, 0, &mut out);
    }
}
