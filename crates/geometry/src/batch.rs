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
//!
//! A cache built in [`spatial_order`] may carry a ball bound per strip
//! ([`BlockCache::with_strip_bounds`]). [`fused_rank`] then skips a whole
//! strip, swept neither screened nor in f64, when the bound proves every
//! item in it above every anchor's cut — where the per-item rule would
//! skip each of them. A cache without bounds ranks as before.

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
    /// Per-strip ball bounds ([`BlockCache::with_strip_bounds`]).
    bounds: Option<Box<StripBounds>>,
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
        self.fill(data, ambient, None);
    }

    /// Builds a cache whose row `i` is row `order[i]` of the row-major
    /// `data`, written straight from the permutation: no permuted copy of
    /// `data` is made. `order` must list each row of `data` once.
    pub fn build_permuted(data: &[f64], ambient: usize, order: &[u32]) -> Self {
        let mut c = Self::default();
        c.fill(data, ambient, Some(order));
        c
    }

    /// The one filler: row `i` of the cache is row `order[i]` of `data`
    /// (row `i` without an order).
    fn fill(&mut self, data: &[f64], ambient: usize, order: Option<&[u32]>) {
        assert!(ambient >= 2, "hyperboloid points need ambient dim >= 2");
        assert_eq!(
            data.len() % ambient,
            0,
            "data length {} not a multiple of ambient dim {}",
            data.len(),
            ambient
        );
        let rows = data.len() / ambient;
        if let Some(order) = order {
            assert_eq!(order.len(), rows, "order length differs from rows");
        }
        self.rows = rows;
        self.ambient = ambient;
        self.time.clear();
        self.time.resize(rows, 0.0);
        let panel = STRIP * (ambient - 1);
        self.spatial.clear();
        self.spatial.resize(rows.div_ceil(STRIP) * panel, 0.0);
        let mut bounded = ambient < MAX_BOUNDED_AMBIENT;
        for i in 0..rows {
            let src = order.map_or(i, |order| order[i] as usize);
            let row = &data[src * ambient..(src + 1) * ambient];
            self.time[i] = row[0];
            let base = (i / STRIP) * panel + i % STRIP;
            for (j, &v) in row.iter().enumerate().skip(1) {
                self.spatial[base + (j - 1) * STRIP] = v;
            }
            bounded &= within_bound(row);
        }
        self.bounded = bounded;
        self.screen = OnceLock::new();
        self.bounds = None;
    }

    /// Adds a ball bound per strip of [`STRIP`] rows — a centre and a
    /// radius rounded up — which lets [`fused_rank`] skip a strip whose
    /// every item it proves above the cut, with no sweep at all
    /// (DESIGN.md §12, step 4). Pays on a cache in spatial order
    /// ([`spatial_order`]), whose strips are tight balls; dropped by
    /// [`BlockCache::rebuild`].
    pub fn with_strip_bounds(mut self) -> Self {
        self.bounds = Some(Box::new(StripBounds::build(Isa::detected(), &self)));
        self
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
        let (t_max, n_max) = strip_maxima(c);
        Some(Screen {
            panel: STRIP * (c.ambient - 1),
            time: c.time.iter().map(|&v| v as f32).collect(),
            spatial: c.spatial.iter().map(|&v| v as f32).collect(),
            t_max,
            n_max,
        })
    }
}

/// Per strip of `c`, `max |tᵢ|` and the largest spatial norm
/// `‖(xᵢ[1], …, xᵢ[d])‖` of its rows, as computed in f64: the `P` bound
/// of the screen and of the strip bounds.
fn strip_maxima(c: &BlockCache) -> (Vec<f64>, Vec<f64>) {
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
    (t_max.collect(), n_max.collect())
}

/// Per-strip ball bounds of a [`BlockCache`] (DESIGN.md §12, step 4):
/// for strip `s` a centre `c` on the hyperboloid and a radius `r`,
/// rounded up, past every row's distance from `c`, kept as `cosh r` and
/// `sinh r` — the bound needs no `cosh` or `arcosh` at query time — plus
/// what its error terms are stated in.
#[derive(Clone, Debug)]
struct StripBounds {
    /// One row per strip: its centre.
    centres: BlockCache,
    /// Per strip, the centre's spatial norm `‖c_s‖` and its [`defect`].
    centre_norm: Vec<f64>,
    centre_defect: Vec<f64>,
    /// Per strip, `cosh r`; `+∞` for a strip with a row that is not
    /// finite or past [`INNER_BOUND`], or whose mean does not normalise —
    /// no bound clears it.
    cosh_r: Vec<f64>,
    /// Per strip, `sinh r` rounded up.
    sinh_r: Vec<f64>,
    /// Per strip, the screen's `t_max` and `n_max` ([`strip_maxima`]) and
    /// the largest [`defect`] of its rows.
    t_max: Vec<f64>,
    n_max: Vec<f64>,
    defect: Vec<f64>,
}

/// Relative rounding allowance of the strip bounds' own f64 evaluation,
/// `2⁻⁵⁰`: each quantity is a few products, sums and at most one `sqrt`,
/// each good to `2⁻⁵³`, so its error stays below `5·2⁻⁵³` of the
/// magnitudes it is summed from (DESIGN.md §12, step 4).
const BOUND_EVAL: f64 = f64::from_bits((1023 - 50) << 52);

/// Anchor terms of the strip bound: `|a₀|`, `‖a_s‖` and the [`defect`]
/// of one anchor, and the chain's `γ′` inflated for evaluating the
/// bound.
struct AnchorTerms {
    t: f64,
    n: f64,
    defect: f64,
    gamma: f64,
}

impl AnchorTerms {
    fn new(a: &[f64]) -> Self {
        AnchorTerms {
            t: a[0].abs(),
            n: a[1..].iter().map(|v| v * v).sum::<f64>().sqrt(),
            defect: defect(a),
            gamma: chain_error(a.len()),
        }
    }
}

impl StripBounds {
    fn build(isa: Isa, c: &BlockCache) -> StripBounds {
        let d = c.ambient;
        let n_strips = c.rows.div_ceil(STRIP);
        let (t_max, n_max) = strip_maxima(c);
        let gamma = chain_error(d);
        let mut centres = vec![0.0; n_strips * d];
        let (mut centre_norm, mut centre_defect) = (vec![0.0; n_strips], vec![0.0; n_strips]);
        let (mut cosh_r, mut sinh_r) = (vec![0.0; n_strips], vec![0.0; n_strips]);
        let mut defects = vec![0.0; n_strips];
        let panel = STRIP * (d - 1);
        for s in 0..n_strips {
            let t = &c.time[s * STRIP..((s + 1) * STRIP).min(c.rows)];
            let tile = &c.spatial[s * panel..(s + 1) * panel];
            let centre = &mut centres[s * d..(s + 1) * d];
            let ball = Ball::of(isa, t, tile, centre, gamma);
            centre_norm[s] = ball.centre_norm;
            centre_defect[s] = ball.centre_defect;
            cosh_r[s] = ball.cosh_r;
            sinh_r[s] = ((ball.cosh_r - 1.0) * (ball.cosh_r + 1.0)).sqrt() * (1.0 + BOUND_EVAL);
            defects[s] = ball.defect;
        }
        StripBounds {
            centres: BlockCache::build(&centres, d),
            centre_norm,
            centre_defect,
            cosh_r,
            sinh_r,
            t_max,
            n_max,
            defect: defects,
        }
    }

    /// A lower bound on the computed f64 value `fl(−⟨a, x⟩)` of every row
    /// `x` of strip `s`, from `y_c`, the computed `−⟨a, c⟩` of its centre;
    /// `−∞` when none is proven. [`strip_lower_bounds`] runs the same
    /// arithmetic over every strip.
    #[cfg(test)]
    fn lower_bound(&self, s: usize, y_c: f64, a: &AnchorTerms) -> f64 {
        let strip = StripBall {
            c0: self.centres.time[s],
            cn: self.centre_norm[s],
            dc: self.centre_defect[s],
            cosh_r: self.cosh_r[s],
            sinh_r: self.sinh_r[s],
            t_max: self.t_max[s],
            n_max: self.n_max[s],
            defect: self.defect[s],
        };
        strip.lower_bound(y_c, a)
    }
}

/// What one strip's bound reads of [`StripBounds`].
struct StripBall {
    c0: f64,
    cn: f64,
    dc: f64,
    cosh_r: f64,
    sinh_r: f64,
    t_max: f64,
    n_max: f64,
    defect: f64,
}

impl StripBall {
    /// The strip's lower bound on `fl(−⟨a, x⟩)` for every row `x`, from
    /// `y_c`, the computed `−⟨a, c⟩` of its centre; `−∞` when none is
    /// proven. The argument is DESIGN.md §12's step 4: with `â, ĉ, x̂`
    /// the points of the hyperboloid that share `a`'s, `c`'s, `x`'s
    /// spatial coordinates, `L ≤ cosh d(â, ĉ)` and, for `d(â, ĉ) ≥ r`,
    /// `cosh(d(â, ĉ) − r) ≥ L·cosh r − √(L² − 1)·sinh r`, which the
    /// triangle inequality puts under `cosh d(â, x̂)`; then the defects
    /// move `x̂` to `x` and `γ′·P` the exact `−⟨a, x⟩` to its computed
    /// value. Both sides of the `d(â, ĉ) ≥ r` test are evaluated and one
    /// is selected, so a pass over many strips has no branch.
    #[inline(always)]
    fn lower_bound(self, y_c: f64, a: &AnchorTerms) -> f64 {
        let Self { c0, cn, dc, .. } = self;
        // `γ′·P_c` for the computed `y_c`, then `ĉ` for `c` and `â` for `a`.
        let e_c = a.gamma * (a.t * c0 + a.n * cn) + a.t * dc + a.defect * (c0 + dc);
        let l = y_c - e_c * (1.0 + BOUND_EVAL);
        let (ch, sh) = (self.cosh_r, self.sinh_r);
        // `d(â, ĉ) ≥ r`, where the bound rises with `L`; NaN fails it too.
        let outside = l > ch * (1.0 + BOUND_EVAL);
        let (lc, ss) = (l * ch, ((l - 1.0) * (l + 1.0)).sqrt() * sh);
        let ball = lc - ss - (lc + ss) * (2.0 * BOUND_EVAL);
        // `x̂` for `x` and `â` for `a`, then `γ′·P` for the item's chain.
        let (tm, dx) = (self.t_max, self.defect);
        let e_x = a.gamma * (a.t * tm + a.n * self.n_max) + a.t * dx + a.defect * (tm + dx);
        let bound = ball - e_x * (1.0 + BOUND_EVAL);
        if outside {
            bound
        } else {
            f64::NEG_INFINITY
        }
    }
}

multiversion! {
    /// [`StripBall::lower_bound`] of every strip of `b` for one anchor,
    /// in place: `ys[s]` holds the computed `−⟨a, c_s⟩` of strip `s`'s
    /// centre and is overwritten with the strip's bound. The body has no
    /// branch, so the clones vectorize it; each lane runs the bound's
    /// operations in its order, so every clone has the baseline's bits.
    fn strip_lower_bounds(isa: Isa, b: &StripBounds, a: &AnchorTerms, ys: &mut [f64]) {
        let n = ys.len();
        let (c0, cn, dc) = (&b.centres.time[..n], &b.centre_norm[..n], &b.centre_defect[..n]);
        let (cosh_r, sinh_r) = (&b.cosh_r[..n], &b.sinh_r[..n]);
        let (t_max, n_max, defect) = (&b.t_max[..n], &b.n_max[..n], &b.defect[..n]);
        for s in 0..n {
            let strip = StripBall {
                c0: c0[s],
                cn: cn[s],
                dc: dc[s],
                cosh_r: cosh_r[s],
                sinh_r: sinh_r[s],
                t_max: t_max[s],
                n_max: n_max[s],
                defect: defect[s],
            };
            ys[s] = strip.lower_bound(ys[s], a);
        }
    }
}

/// One strip's ball: its centre's norm and defect, `cosh r` and the
/// largest row defect.
struct Ball {
    centre_norm: f64,
    centre_defect: f64,
    cosh_r: f64,
    defect: f64,
}

impl Ball {
    /// The ball of one strip — the time components `t` of its rows and
    /// its panel `tile` — writing its centre, the rows' mean scaled onto
    /// the hyperboloid, into `centre`. `cosh r` is the largest, over the
    /// rows, of an upper bound on `−⟨ĉ, x̂⟩`: the row's computed
    /// `−⟨c, x⟩`, plus `γ′·P` for its chain, plus the defects of `x` and
    /// `c`. Every per-row sum runs across the strip's lanes, a column at
    /// a time, as the sweep does ([`strip_sums`]).
    fn of(isa: Isa, t: &[f64], tile: &[f64], centre: &mut [f64], gamma: f64) -> Ball {
        let (d, r) = (centre.len(), t.len());
        let unbounded = Ball {
            centre_norm: 0.0,
            centre_defect: f64::INFINITY,
            cosh_r: f64::INFINITY,
            defect: f64::INFINITY,
        };
        centre.fill(0.0);
        let cols = || tile.chunks_exact(STRIP).map(|col| &col[..r]);
        if d > MAX_SCREEN_AMBIENT || !within_bound(t) || !cols().all(within_bound) {
            return unbounded;
        }
        centre[0] = t.iter().sum();
        for (c, col) in centre[1..].iter_mut().zip(cols()) {
            *c = col.iter().sum();
        }
        let norm_sq = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>();
        let q = centre[0] * centre[0] - norm_sq(&centre[1..]);
        if !(centre[0] > 0.0 && q > 0.0 && q.is_finite()) {
            centre.fill(0.0);
            return unbounded;
        }
        let scale = q.sqrt();
        for c in &mut centre[1..] {
            *c /= scale;
        }
        centre[0] = (1.0 + norm_sq(&centre[1..])).sqrt();
        let (c0, cn, dc) = (centre[0], norm_sq(&centre[1..]).sqrt(), defect(centre));
        let mut sums = StripSums::default();
        for (k, &x) in t.iter().enumerate() {
            let (p, pe) = two_square(x);
            let (h, e) = two_sum(p, -1.0);
            (sums.hi[k], sums.lo[k], sums.terms[k]) = (h, pe + e, p + 1.0);
            sums.acc[k] = -c0 * x;
        }
        strip_sums(isa, &centre[1..], tile, &mut sums);
        let (mut cosh_r, mut max_defect) = (1.0f64, 0.0f64);
        for (k, &x0) in t.iter().enumerate() {
            let dx = defect_of(sums.hi[k], sums.lo[k], sums.terms[k], x0, d);
            let (z, x0) = (-sums.acc[k], x0.abs());
            let terms = gamma * (c0 * x0 + cn * sums.sq[k].sqrt()) + c0 * dx + dc * (x0 + dx);
            let y = z + terms + (z.abs() + terms) * BOUND_EVAL;
            // A NaN `y` (an infinite defect) leaves the bound infinite.
            cosh_r = if y.is_nan() {
                f64::INFINITY
            } else {
                cosh_r.max(y)
            };
            max_defect = max_defect.max(dx);
        }
        if !(cosh_r.is_finite() && dc.is_finite() && max_defect.is_finite()) {
            return unbounded;
        }
        Ball {
            centre_norm: cn,
            centre_defect: dc,
            cosh_r,
            defect: max_defect,
        }
    }
}

/// Per-row sums of one strip, a lane per row: the [`defect`]'s
/// double-double `q = hi + lo` and the sum `terms` of the squares it
/// was summed from, the chain `acc` of `−⟨c, x⟩` against the strip's
/// centre (`neg_inner_one`'s order, before its final negation), and
/// `‖x_s‖²`.
#[derive(Default)]
struct StripSums {
    hi: [f64; STRIP],
    lo: [f64; STRIP],
    terms: [f64; STRIP],
    acc: [f64; STRIP],
    sq: [f64; STRIP],
}

multiversion! {
    /// The column sweep of [`Ball::of`]: adds each spatial column of a
    /// strip's `tile` to every lane of `sums`, against the centre's
    /// spatial coordinates `c_s`. Each lane's operations run in a fixed
    /// order, with no contraction, so every clone has the baseline's
    /// bits.
    fn strip_sums(isa: Isa, c_s: &[f64], tile: &[f64], sums: &mut StripSums) {
        for (&cj, col) in c_s.iter().zip(tile.chunks_exact(STRIP)) {
            let col: &[f64; STRIP] = col.try_into().expect("a strip's column");
            for (k, &x) in col.iter().enumerate() {
                let (p, pe) = two_square(x);
                let (h, e) = two_sum(sums.hi[k], -p);
                sums.hi[k] = h;
                sums.lo[k] += e - pe;
                sums.terms[k] += p;
                sums.acc[k] += cj * x;
                sums.sq[k] += x * x;
            }
        }
    }
}

/// `γ′_D = D·u′/(1 − D·u′)` for an f64 inner product of `D = ambient`
/// terms (`u′ = 2⁻⁵³`), times `1 + 2⁻³⁰` for evaluating `γ′·P` itself:
/// the computed chain is within `γ′_D·Σ|aⱼxⱼ|` of the exact sum.
fn chain_error(ambient: usize) -> f64 {
    let n = ambient as f64;
    let u = f64::EPSILON / 2.0;
    n * u / (1.0 - n * u) * (1.0 + f64::from_bits((1023 - 30) << 52))
}

/// An upper bound on `|x₀ − √(1 + ‖x_s‖²)|`: how far `x` lies off the
/// hyperboloid along its time axis; `+∞` unless `x₀ ≥ 0` and `x` is
/// within [`INNER_BOUND`] with at most [`MAX_SCREEN_AMBIENT`] values.
/// `q = x₀² − 1 − ‖x_s‖²` is summed in double-double — exact products
/// and exact two-sums, so its error is `O(D²·2⁻¹⁰⁶)` of the terms — and
/// `|x₀ − x̂₀| = |q| / (x₀ + x̂₀) ≤ |q| / (x₀ + 1)`. A point that
/// `from_spatial` lifted is off by about an ulp of `x₀`, one whose
/// coordinates are exactly on the hyperboloid by about nothing.
fn defect(x: &[f64]) -> f64 {
    if x.len() > MAX_SCREEN_AMBIENT || !within_bound(x) {
        return f64::INFINITY;
    }
    let (p, pe) = two_square(x[0]);
    let (mut hi, e) = two_sum(p, -1.0);
    let (mut lo, mut terms) = (pe + e, p + 1.0);
    for &v in &x[1..] {
        let (p, pe) = two_square(v);
        let (h, e) = two_sum(hi, -p);
        (hi, lo, terms) = (h, lo + (e - pe), terms + p);
    }
    defect_of(hi, lo, terms, x[0], x.len())
}

/// [`defect`] from `q = hi + lo` summed in double-double over `ambient`
/// squares whose magnitudes sum to `terms`, and `x₀`: the error of the
/// `lo` additions is below `2(D+1)(D+2)·2⁻¹⁰⁶` of `terms`, `D²·2⁻¹⁰⁰`
/// for `D ≥ 2`; `2⁻¹⁰⁰⁰` covers the products' underflow.
#[inline]
fn defect_of(hi: f64, lo: f64, terms: f64, x0: f64, ambient: usize) -> f64 {
    if x0.is_nan() || x0 < 0.0 {
        return f64::INFINITY;
    }
    let n = ambient as f64;
    let q = (hi + lo).abs() * (1.0 + BOUND_EVAL)
        + n * n * f64::from_bits((1023 - 100) << 52) * terms
        + f64::from_bits((1023 - 1000) << 52);
    q / (x0 + 1.0) * (1.0 + BOUND_EVAL)
}

/// `a + b` as `s + e` exactly (Knuth's two-sum).
#[inline(always)]
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    (s, (a - (s - bb)) + (b - bb))
}

/// `a²` as `p + e` exactly, barring underflow (Dekker's product, with
/// Veltkamp's split; `|a| ≤ 2⁵⁰⁰` keeps the split finite).
#[inline(always)]
fn two_square(a: f64) -> (f64, f64) {
    let p = a * a;
    let t = 134_217_729.0 * a;
    let hi = t - (t - a);
    let lo = a - hi;
    (p, ((hi * hi - p) + 2.0 * hi * lo) + lo * lo)
}

/// Pivot rows sampled per split of [`spatial_order`], at most: half
/// the rows of a small split, at least 16. At the lowest levels a full
/// sample costs as much as the keys; on the 60,000-item serving fixture
/// it swept 32.5 % of the rows at `k = 10`, against 33.3 %, for about
/// 5 ms more of build.
const PIVOT_SAMPLE: usize = 64;

/// A spatial order of the `rows × ambient` row-major points: `order[i]`
/// is the row that goes to position `i`, for
/// [`BlockCache::build_permuted`]. A recursive two-pivot split down to
/// single strips: from a strided sample of the rows ([`PIVOT_SAMPLE`]),
/// `p` is the one farthest from the first and `q` the one farthest from
/// `p`; the rows
/// are ranked by `−⟨p, x⟩ / −⟨q, x⟩` and cut at the multiple of
/// [`STRIP`] at or past the median. So each strip holds near points — a
/// tight ball for [`BlockCache::with_strip_bounds`]. Deterministic; an
/// order is a heuristic only, every order ranks the same.
pub fn spatial_order(data: &[f64], ambient: usize) -> Vec<u32> {
    spatial_order_on(Isa::detected(), data, ambient)
}

/// [`spatial_order`] on the clone `isa` names.
fn spatial_order_on(isa: Isa, data: &[f64], ambient: usize) -> Vec<u32> {
    assert!(ambient >= 2, "hyperboloid points need ambient dim >= 2");
    let mut keyed: Vec<(f64, u32)> = (0..(data.len() / ambient) as u32)
        .map(|i| (0.0, i))
        .collect();
    split_rows(isa, data, ambient, &mut keyed);
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// One level of [`spatial_order`] over `rows` (key, row) pairs.
fn split_rows(isa: Isa, data: &[f64], ambient: usize, rows: &mut [(f64, u32)]) {
    if rows.len() <= STRIP {
        return;
    }
    let row = |i: u32| &data[i as usize * ambient..(i as usize + 1) * ambient];
    let step = rows
        .len()
        .div_ceil((rows.len() / 2).clamp(16, PIVOT_SAMPLE));
    let farthest = |from: &[f64]| {
        let sample = rows.iter().step_by(step).map(|&(_, i)| i);
        let far = sample.map(|i| (split_key(from, row(i)), i));
        far.max_by(|a, b| a.0.total_cmp(&b.0)).expect("rows").1
    };
    let p = row(farthest(row(rows[0].1)));
    let q = row(farthest(p));
    split_keys(isa, data, p, q, rows);
    let mid = rows.len().div_ceil(STRIP).div_ceil(2) * STRIP;
    rows.select_nth_unstable_by(mid, |a, b| a.0.total_cmp(&b.0));
    let (left, right) = rows.split_at_mut(mid);
    split_rows(isa, data, ambient, left);
    split_rows(isa, data, ambient, right);
}

multiversion! {
    /// The key pass of one [`spatial_order`] split: each pair's key
    /// becomes `−⟨p, x⟩ / −⟨q, x⟩` of its row `x` ([`split_key`]).
    fn split_keys(isa: Isa, data: &[f64], p: &[f64], q: &[f64], rows: &mut [(f64, u32)]) {
        let ambient = p.len();
        for (key, i) in rows.iter_mut() {
            let x = &data[*i as usize * ambient..(*i as usize + 1) * ambient];
            *key = split_key(p, x) / split_key(q, x);
        }
    }
}

/// `−⟨a, x⟩_L` summed in eight lanes: a split key, bit-matched to
/// nothing.
#[inline(always)]
fn split_key(a: &[f64], x: &[f64]) -> f64 {
    let (a_s, x_s) = (&a[1..], &x[1..]);
    let whole = x_s.len() / 8 * 8;
    let mut lanes = [0.0; 8];
    for (ca, cx) in a_s[..whole]
        .chunks_exact(8)
        .zip(x_s[..whole].chunks_exact(8))
    {
        for l in 0..8 {
            lanes[l] += ca[l] * cx[l];
        }
    }
    for j in whole..x_s.len() {
        lanes[0] += a_s[j] * x_s[j];
    }
    a[0] * x[0] - lanes.iter().sum::<f64>()
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

/// Relative slack of the two-channel strip test: a strip is skipped
/// when its bound on `d²_ir + w·d²_tg` exceeds `−τ·(1+1e‑9)`. The bound
/// and each finished score are a few roundings and two `acosh` calls
/// away from the exact value at their inputs, each good to a few ulp but
/// not proven monotone; `1e-9` of the value is seven orders of magnitude
/// more (DESIGN.md §12, step 4).
const SCORE_SLACK: f64 = 1.0 + 1e-9;

/// One anchor's cuts, from its floor `τ`.
#[derive(Clone, Copy, Debug)]
struct Cut {
    /// [`prune_cut`]: the negated interaction inner product above which
    /// an item scores below `τ` on its interaction term alone.
    ni: f64,
    /// `−τ·`[`SCORE_SLACK`]: the value of `d²_ir + w·d²_tg` above which
    /// an item scores below `τ`. NaN — nothing clears it — without a
    /// floor, and for a floor that is NaN or above `−2⁻¹⁰²²`, where the
    /// absolute rounding of a subnormal product is not within a relative
    /// slack.
    score: f64,
}

impl Cut {
    #[inline]
    fn of(floor: Option<f64>) -> Cut {
        let g = floor.map_or(f64::NAN, |tau| -tau);
        Cut {
            ni: prune_cut(floor),
            score: if g >= f64::MIN_POSITIVE {
                g * SCORE_SLACK
            } else {
                f64::NAN
            },
        }
    }
}

/// Whether every item of a strip scores strictly below the floor whose
/// score cut is `cut`, by lower bounds `b_ir`, `b_tg` on its computed
/// negated inner products in each channel and the tag weight `w ≥ 0`:
/// `arcosh(b_ir)² + w·arcosh(b_tg)² > cut`. The brackets
/// `4(x−1)/(x+1) ≤ arcosh(x)² ≤ 2(x−1)` decide most strips; `acosh`
/// runs only in the band between them. A bound at or below 1 (`−∞`: none
/// proven) counts as distance 0, as the finisher clamps it.
#[inline]
fn two_channel_clears(b_ir: f64, b_tg: f64, w: f64, cut: f64) -> bool {
    let (x, y) = (b_ir.max(1.0), b_tg.max(1.0));
    let below = |v: f64| 4.0 * (v - 1.0) / (v + 1.0);
    if below(x) + w * below(y) > cut {
        return true;
    }
    let above = |v: f64| 2.0 * (v - 1.0);
    above(x) + w * above(y) > cut && {
        let (d_ir, d_tg) = (arcosh(x), arcosh(y));
        d_ir * d_ir + w * (d_tg * d_tg) > cut
    }
}

/// Per-thread buffers of [`fused_rank`], kept across calls so that a
/// warm ranking pass whose block and catalogue are no larger than the
/// last one's allocates nothing.
struct RankScratch {
    /// One chunk of negated interaction inner products per anchor, f64
    /// and screened.
    ni_ir: Vec<f64>,
    ni_screen: Vec<f32>,
    /// Per anchor: whether its tag inner products are provably finite,
    /// whether its tag term is `≥ 0` and never NaN, and its cuts.
    finite: Vec<bool>,
    sound: Vec<bool>,
    cuts: Vec<Cut>,
    /// The screen's per-anchor copies and weights.
    screen: ScreenBufs,
    /// Per anchor and strip, first the computed `−⟨a, c⟩` of the strip's
    /// interaction centre, then its lower bound on every item's f64
    /// value; the same for the tag channel.
    floors: Vec<f64>,
    tag_floors: Vec<f64>,
    /// Per anchor, its terms of each channel's strip bound.
    terms: Vec<AnchorTerms>,
    tag_terms: Vec<AnchorTerms>,
    /// Strips ranked first ([`SEED_STRIPS`] per anchor), and per strip
    /// whether it was swept.
    seeds: Vec<usize>,
    swept: Vec<bool>,
}

impl RankScratch {
    const fn new() -> Self {
        RankScratch {
            ni_ir: Vec::new(),
            ni_screen: Vec::new(),
            finite: Vec::new(),
            sound: Vec::new(),
            cuts: Vec::new(),
            screen: ScreenBufs {
                anchors: Vec::new(),
                t_weight: Vec::new(),
                n_weight: Vec::new(),
            },
            floors: Vec::new(),
            tag_floors: Vec::new(),
            terms: Vec::new(),
            tag_terms: Vec::new(),
            seeds: Vec::new(),
            swept: Vec::new(),
        }
    }
}

impl Default for RankScratch {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    /// [`RankScratch`] of this thread. Taken out for the duration of a
    /// call, so a sink that re-enters the kernel just allocates.
    static RANK_SCRATCH: std::cell::Cell<RankScratch> =
        const { std::cell::Cell::new(RankScratch::new()) };
}

/// Strips whose items a ranking pass over a bounded cache offers first,
/// per anchor: those whose centres are nearest it, so its floor is set
/// before the bounds are compared with it.
const SEED_STRIPS: usize = 4;

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

/// The screen's per-anchor buffers of a block, kept in [`RankScratch`]:
/// the anchors' f32 copies and the weights of the error bound.
#[derive(Default)]
struct ScreenBufs {
    anchors: Vec<Vec<f32>>,
    /// Per anchor, `ρ·|a₀|` and `ρ·‖a_s‖`: a strip's bound on
    /// `Σ|aⱼxⱼ|` is `|a₀|·t_max + ‖a_s‖·n_max` (Cauchy–Schwarz).
    t_weight: Vec<f64>,
    n_weight: Vec<f64>,
}

/// A block of anchors prepared for a cache's screen.
struct ScreenedBlock<'a> {
    screen: &'a Screen,
    /// The block's [`ScreenBufs`], filled.
    anchors: &'a [Vec<f32>],
    t_weight: &'a [f64],
    n_weight: &'a [f64],
    /// The absolute underflow term `A`.
    abs: f64,
}

impl<'a> ScreenedBlock<'a> {
    /// `None` when an anchor value is non-finite or past
    /// [`SCREEN_BOUND`], or the cache has no screen. Fills `bufs`,
    /// reusing its allocations.
    fn new(ir: &'a BlockCache, u_irs: &[&[f64]], bufs: &'a mut ScreenBufs) -> Option<Self> {
        if !u_irs
            .iter()
            .all(|a| a.iter().all(|v| v.abs() <= SCREEN_BOUND))
        {
            return None;
        }
        let screen = ir.screen()?;
        let (rho, abs) = screen_error(ir.ambient);
        let norm = |a: &[f64]| a[1..].iter().map(|v| v * v).sum::<f64>().sqrt();
        if bufs.anchors.len() < u_irs.len() {
            bufs.anchors.resize_with(u_irs.len(), Vec::new);
        }
        for (f32s, a) in bufs.anchors.iter_mut().zip(u_irs) {
            f32s.clear();
            f32s.extend(a.iter().map(|&v| v as f32));
        }
        bufs.t_weight.clear();
        bufs.t_weight.extend(u_irs.iter().map(|a| rho * a[0].abs()));
        bufs.n_weight.clear();
        bufs.n_weight.extend(u_irs.iter().map(|a| rho * norm(a)));
        Some(ScreenedBlock {
            screen,
            anchors: &bufs.anchors[..u_irs.len()],
            t_weight: &bufs.t_weight,
            n_weight: &bufs.n_weight,
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
/// runs the finisher and offers the item to `sink`. Without strip
/// bounds, offers arrive in ascending slot order per anchor. The sweep
/// is [`Sweep::for_range`]'s pick on the detected clone.
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
///
/// **The strip bounds.** Over a cache with strip bounds, each anchor's
/// [`SEED_STRIPS`] strips of nearest centre are ranked first, so its floor
/// is set; then every other strip of the range in order, each skipped
/// when no anchor of the block needs it. An anchor does not need a strip
/// when its bound is above the anchor's cut — it proves each item's f64
/// value above the cut, where the rule would skip the item — or, when the
/// tag cache carries strip bounds too, when the two channels' bounds
/// prove every finished score strictly below the anchor's floor
/// ([`Cut::score`]), where the selection would reject the item. So every
/// item that could enter a selection is still offered, with the same
/// bits. A strip any anchor needs is swept for the whole block. No strip
/// is skipped for an anchor without a finite cut (no floor, `α` outside
/// `[0, ∞)`, a NaN or positive floor) or whose tag inner products are
/// not provably finite, and a strip with a row that is not finite, or
/// whose mean does not normalise, has no bound in that channel
/// (DESIGN.md §12, step 4).
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
    let mut scratch = RANK_SCRATCH.take();
    let RankScratch {
        ni_ir,
        ni_screen,
        finite,
        sound,
        cuts,
        screen: screen_bufs,
        floors,
        tag_floors,
        terms,
        tag_terms,
        seeds,
        swept,
    } = &mut scratch;
    // Per anchor: whether its tag inner products are provably finite, and
    // whether its tag term is `≥ 0`, never NaN — what the rule needs.
    finite.clear();
    finite.resize(b, true);
    sound.clear();
    sound.resize(b, true);
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
    let (finite, sound) = (&finite[..], &sound[..]);
    let cut_of = |u: usize, sink: &S| Cut::of(sink.floor(u).filter(|_| sound[u]));
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
        Sweep::Screened if finite.iter().all(|&f| f) => ScreenedBlock::new(ir, u_irs, screen_bufs),
        _ => None,
    };
    let buf_len = b * (hi - lo).min(FUSED_ITEM_CHUNK);
    if ni_ir.len() < buf_len {
        ni_ir.resize(buf_len, 0.0);
    }
    if screen.is_some() && ni_screen.len() < buf_len {
        ni_screen.resize(buf_len, 0.0);
    }
    // Items of the last run that met the rule on their f64 value: the
    // screen pays only while few do (`SCREEN_MAX_KEPT_BASE`).
    let mut kept = usize::MAX;
    // Each anchor's cuts, kept current: they move only when an offer lands.
    cuts.clear();
    cuts.extend((0..b).map(|u| cut_of(u, sink)));
    // One run of rows `c0..c1`, at most a chunk long and split from its
    // strips only at the range's edges: swept for the whole block, each
    // item meeting the rule.
    let mut sweep_run = |sink: &mut S, cuts: &mut [Cut], c0: usize, c1: usize| {
        let m = c1 - c0;
        let screened = screen
            .as_ref()
            .filter(|_| kept <= SCREEN_MAX_KEPT_BASE + b && cuts.iter().all(|c| c.ni.is_finite()));
        kept = 0;
        let Some(scr) = screened else {
            ir.neg_inner_rows(isa, u_irs, c0, m, m, &mut ni_ir[..b * m]);
            for (u, cut) in cuts.iter_mut().enumerate() {
                for (i, &ni) in ni_ir[u * m..(u + 1) * m].iter().enumerate() {
                    if ni > cut.ni && finite[u] {
                        continue;
                    }
                    kept += 1;
                    if consider(sink, u, c0 + i, ni, cut.ni) {
                        *cut = cut_of(u, sink);
                    }
                }
            }
            return;
        };
        screen_strips(isa, scr.screen, scr.anchors, c0, m, &mut ni_screen[..b * m]);
        for (u, cut) in cuts.iter_mut().enumerate() {
            let row = &ni_screen[u * m..(u + 1) * m];
            // One run per strip, the unit of the error bound.
            let mut i = 0;
            while i < m {
                let strip = (c0 + i) / STRIP;
                let run = i..((strip + 1) * STRIP - c0).min(m);
                i = run.end;
                let mut threshold = scr.threshold(u, strip, cut.ni);
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
                    if consider(sink, u, slot, ir.neg_inner_one(u_irs[u], slot), cut.ni) {
                        *cut = cut_of(u, sink);
                        threshold = scr.threshold(u, strip, cut.ni);
                    }
                }
            }
        }
    };
    let Some(bounds) = ir.bounds.as_deref() else {
        // Chunks end on multiples of the chunk size, so only the range's
        // own edges split a strip.
        let mut c0 = lo;
        while c0 < hi {
            let c1 = ((c0 / FUSED_ITEM_CHUNK + 1) * FUSED_ITEM_CHUNK).min(hi);
            sweep_run(sink, cuts, c0, c1);
            c0 = c1;
        }
        RANK_SCRATCH.set(scratch);
        return;
    };
    // The strip bounds: each anchor's nearest strips first, then every
    // other strip in order, skipped when no anchor needs it. `floors`
    // holds each anchor's `−⟨a, c⟩` to every centre, then — once the
    // seeds are picked — its bound of every strip; `tag_floors` the same
    // in the tag channel, when its cache carries bounds and an anchor can
    // use them (strip `s` holds the same rows in both caches).
    let n_strips = bounds.cosh_r.len();
    let strips = lo / STRIP..hi.div_ceil(STRIP);
    floors.resize(b * n_strips, 0.0);
    bounds
        .centres
        .neg_inner_rows(isa, u_irs, 0, n_strips, n_strips, floors);
    let tag_bounds = tag
        .as_ref()
        .filter(|_| (0..b).any(|u| finite[u] && sound[u]))
        .and_then(|t| Some((t, t.cache.bounds.as_deref()?)));
    let tag_strips = tag_bounds.map_or(0, |(_, tb)| tb.cosh_r.len());
    if let Some((t, tb)) = tag_bounds {
        tag_floors.resize(b * tag_strips, 0.0);
        tb.centres
            .neg_inner_rows(isa, t.anchors, 0, tag_strips, tag_strips, tag_floors);
    }
    // Each anchor's seeds: the strips whose centres score best, by
    // `(y_ir − 1) + w·(y_tg − 1)`, half the upper bracket of Eq. 17 at
    // the centres, or by `y_ir` alone without a usable tag bound.
    seeds.clear();
    for u in 0..b {
        let ys = &floors[u * n_strips..(u + 1) * n_strips];
        let w = tag_bounds.filter(|_| finite[u] && sound[u]).map(|(t, _)| {
            (
                t.alphas[u],
                &tag_floors[u * tag_strips..(u + 1) * tag_strips],
            )
        });
        let key = |s: usize| match w {
            Some((w, tag_ys)) => ys[s] + w * (tag_ys[s] - 1.0),
            None => ys[s],
        };
        let mut nearest = [(f64::INFINITY, usize::MAX); SEED_STRIPS];
        for s in strips.clone().filter(|&s| bounds.cosh_r[s] < f64::INFINITY) {
            let key = key(s);
            if key < nearest[SEED_STRIPS - 1].0 {
                nearest[SEED_STRIPS - 1] = (key, s);
                nearest.sort_by(|a, b| a.0.total_cmp(&b.0));
            }
        }
        for (_, s) in nearest {
            if s != usize::MAX && !seeds.contains(&s) {
                seeds.push(s);
            }
        }
    }
    terms.clear();
    terms.extend(u_irs.iter().map(|a| AnchorTerms::new(a)));
    for (ys, a) in floors.chunks_exact_mut(n_strips).zip(terms.iter()) {
        strip_lower_bounds(isa, bounds, a, ys);
    }
    if let Some((t, tb)) = tag_bounds {
        tag_terms.clear();
        tag_terms.extend(t.anchors.iter().map(|a| AnchorTerms::new(a)));
        for (ys, a) in tag_floors
            .chunks_exact_mut(tag_strips)
            .zip(tag_terms.iter())
        {
            strip_lower_bounds(isa, tb, a, ys);
        }
    }
    swept.clear();
    swept.resize(n_strips, false);
    // Strip `s` is needed while some anchor's bounds do not prove all its
    // items out of that anchor's selection — always for an anchor whose
    // tag inner products may be NaN or `+∞`, which needs every item. The
    // anchor that needed the last strip is asked first: near strips tend
    // to be needed by the same anchor.
    let mut needer = 0;
    let (floors, tag_floors) = (&floors[..], &tag_floors[..]);
    let mut live = |s: usize, cuts: &[Cut]| {
        let needs = |u: usize| {
            if !finite[u] {
                return true;
            }
            let b_ir = floors[u * n_strips + s];
            if b_ir > cuts[u].ni {
                return false;
            }
            tag_bounds.is_none_or(|(t, _)| {
                let b_tg = tag_floors[u * tag_strips + s];
                !two_channel_clears(b_ir, b_tg, t.alphas[u], cuts[u].score)
            })
        };
        let found = (needer..b).chain(0..needer).find(|&u| needs(u));
        needer = found.unwrap_or(needer);
        found.is_some()
    };
    let rows_of = |s: usize| (s * STRIP).max(lo)..((s + 1) * STRIP).min(hi);
    for &s in seeds.iter() {
        if live(s, cuts) {
            swept[s] = true;
            sweep_run(sink, cuts, rows_of(s).start, rows_of(s).end);
        }
    }
    let mut s = strips.start;
    while s < strips.end {
        if swept[s] || !live(s, cuts) {
            s += 1;
            continue;
        }
        let mut end = s + 1;
        while end < strips.end
            && (end - s) * STRIP < FUSED_ITEM_CHUNK
            && !swept[end]
            && live(end, cuts)
        {
            end += 1;
        }
        sweep_run(sink, cuts, rows_of(s).start, rows_of(end - 1).end);
        s = end;
    }
    RANK_SCRATCH.set(scratch);
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
        let mut bufs = ScreenBufs::default();
        let block =
            ScreenedBlock::new(c, anchors, &mut bufs).expect("screenable cache and anchors");
        let mut out = vec![7.0; anchors.len() * (hi - lo)];
        screen_strips(isa, block.screen, block.anchors, lo, hi - lo, &mut out);
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

    /// The ordering's key pass and the bounds' column sweep on every
    /// clone: the same order and the same bound bits as the baseline.
    #[test]
    fn every_clone_orders_and_bounds_as_the_baseline() {
        let mut rng = StdRng::seed_from_u64(23);
        for (n, ambient) in [(ROWS, 2), (700, 9), (700, 33), (300, 65)] {
            let data = flat(&points(&mut rng, n, ambient, &[]));
            let bits = |isa| -> (Vec<u32>, Vec<u64>) {
                let order = spatial_order_on(isa, &data, ambient);
                let c = BlockCache::build_permuted(&data, ambient, &order);
                let b = StripBounds::build(isa, &c);
                let fields = [
                    &b.cosh_r,
                    &b.sinh_r,
                    &b.defect,
                    &b.centre_norm,
                    &b.centre_defect,
                ];
                (
                    order,
                    fields
                        .iter()
                        .flat_map(|f| f.iter().map(|v| v.to_bits()))
                        .collect(),
                )
            };
            let want = bits(Isa::BASELINE);
            for isa in Isa::supported() {
                assert_eq!(bits(isa), want, "{} at ambient {ambient}", isa.name());
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
            let mut bufs = ScreenBufs::default();
            let block = ScreenedBlock::new(&c, &anchors, &mut bufs).expect("in bound");
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
        let anchors: [&[f64]; 2] = [&[1.0, 0.0, 0.0, 0.0], &anchor];
        assert!(ScreenedBlock::new(&c, &anchors, &mut ScreenBufs::default()).is_none());
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
    fn spatial_order_is_a_deterministic_permutation_whose_strips_are_tighter() {
        let mut rng = StdRng::seed_from_u64(17);
        for (n, ambient) in [(0, 3), (1, 3), (31, 2), (32, 9), (33, 9), (1000, 33)] {
            let data = flat(&points(&mut rng, n, ambient, &[]));
            let order = spatial_order(&data, ambient);
            assert_eq!(order, spatial_order(&data, ambient), "n {n}");
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n as u32).collect::<Vec<_>>(), "n {n}");
        }
        // Strip radii: the mean `cosh r` of an ordered cache's strips is
        // well below that of the same rows in their given order.
        let data = flat(&points(&mut rng, 4096, 3, &[]));
        let mean_cosh_r = |c: BlockCache| {
            let b = c.with_strip_bounds().bounds.expect("bounds");
            b.cosh_r.iter().sum::<f64>() / b.cosh_r.len() as f64
        };
        let ordered = mean_cosh_r(BlockCache::build_permuted(
            &data,
            3,
            &spatial_order(&data, 3),
        ));
        let given = mean_cosh_r(BlockCache::build(&data, 3));
        assert!(ordered < given / 2.0, "ordered {ordered}, given {given}");
    }

    /// The claim the strip skip rests on, checked row by row: for every
    /// strip and anchor, the bound the all-strip pass computes is at most
    /// the computed f64 value of each of the strip's rows, as the sweep
    /// computes it. Rows far out on the hyperboloid cancel by orders of
    /// magnitude, and anchors sit on rows, where the bound is tightest.
    /// Each catalogue is checked in its own spatial order, as an
    /// interaction cache is built, and in the order of another channel's
    /// rows, as a tag cache is: its strips are looser balls.
    #[test]
    fn the_strip_bound_is_below_every_rows_computed_value() {
        let mut rng = StdRng::seed_from_u64(19);
        for (ambient, scale) in [
            (2, 1.0),
            (3, 1.0),
            (9, 8.0),
            (9, 1.0),
            (33, 1.0),
            (33, 40.0),
            (65, 4.0),
        ] {
            let far = |p: Vec<f64>| {
                let spatial: Vec<f64> = p[1..].iter().map(|v| v * scale).collect();
                lorentz::from_spatial(&spatial)
            };
            let pts: Vec<Vec<f64>> = points(&mut rng, 700, ambient, &[])
                .into_iter()
                .map(far)
                .collect();
            let data = flat(&pts);
            let other = flat(&points(&mut rng, 700, 5, &[]));
            let mut anchors: Vec<Vec<f64>> = pts.iter().step_by(37).cloned().collect();
            anchors.extend(points(&mut rng, 8, ambient, &[]).into_iter().map(far));
            for (channel, order) in [
                ("own", spatial_order(&data, ambient)),
                ("other", spatial_order(&other, 5)),
            ] {
                let c = BlockCache::build_permuted(&data, ambient, &order).with_strip_bounds();
                let b = c.bounds.as_deref().expect("bounds");
                let n_strips = b.cosh_r.len();
                let mut proven = 0;
                for a in &anchors {
                    let mut bounds: Vec<f64> = (0..n_strips)
                        .map(|s| b.centres.neg_inner_one(a, s))
                        .collect();
                    strip_lower_bounds(Isa::detected(), b, &AnchorTerms::new(a), &mut bounds);
                    for (s, &bound) in bounds.iter().enumerate() {
                        for i in s * STRIP..((s + 1) * STRIP).min(c.rows) {
                            let y = c.neg_inner_one(a, i);
                            assert!(
                                bound <= y,
                                "ambient {ambient}, scale {scale}, {channel} order: strip {s} \
                                 row {i}: {bound} > {y}"
                            );
                        }
                        proven += usize::from(bound > 1.0);
                    }
                }
                assert!(
                    proven > 0,
                    "ambient {ambient}, scale {scale}, {channel} order: no bound above 1"
                );
            }
        }
    }

    /// The slack is the two-channel test's margin: a strip whose bounds'
    /// score exceeds the floor's by less than `10⁻⁹` of it is kept, one
    /// past the slack cleared. No ranking shows the margin missing — a
    /// bound sits below every computed score by its chains' rounding, so
    /// it takes a libm `acosh` that is not monotone to lose an item — so
    /// this check states it. A floor within `2⁻¹⁰²²` of 0, NaN or
    /// positive, or no floor, sets no score cut at all.
    #[test]
    fn the_score_slack_keeps_a_strip_within_it_of_the_floor() {
        let (b_ir, b_tg, w) = (1.3, 2.1, 0.7);
        let (d_ir, d_tg) = (arcosh(b_ir), arcosh(b_tg));
        let score = d_ir * d_ir + w * (d_tg * d_tg);
        let inside = Cut::of(Some(-score / (1.0 + 5e-10)));
        assert!(
            !two_channel_clears(b_ir, b_tg, w, inside.score),
            "{inside:?}"
        );
        let past = Cut::of(Some(-score / (1.0 + 2e-9)));
        assert!(two_channel_clears(b_ir, b_tg, w, past.score), "{past:?}");
        for floor in [None, Some(-1e-310), Some(-0.0), Some(0.5), Some(f64::NAN)] {
            assert!(Cut::of(floor).score.is_nan(), "{floor:?}");
        }
        assert_eq!(Cut::of(Some(f64::NEG_INFINITY)).score, f64::INFINITY);
    }

    /// The all-strip pass on every clone has the bits of the per-strip
    /// bound, for anchors on rows, off them, and hostile ones — values
    /// NaN, infinite or past `2⁵⁰⁰`, or off the forward sheet — whose
    /// bounds are `−∞` or NaN alike.
    #[test]
    fn every_clone_of_the_all_strip_pass_has_the_per_strip_bits() {
        let mut rng = StdRng::seed_from_u64(29);
        for (n, ambient) in [(ROWS, 2), (700, 3), (700, 9), (700, 33), (300, 65)] {
            let data = flat(&points(&mut rng, n, ambient, &[]));
            let c = BlockCache::build_permuted(&data, ambient, &spatial_order(&data, ambient))
                .with_strip_bounds();
            let b = c.bounds.as_deref().expect("bounds");
            let n_strips = b.cosh_r.len();
            let mut anchors = points(&mut rng, 6, ambient, &[]);
            anchors.extend(points(&mut rng, 6, ambient, &EDGES));
            anchors.push(data[..ambient].to_vec());
            let mut flipped = anchors[0].clone();
            flipped[0] = -flipped[0];
            anchors.push(flipped);
            for a in &anchors {
                let terms = AnchorTerms::new(a);
                let ys: Vec<f64> = (0..n_strips)
                    .map(|s| b.centres.neg_inner_one(a, s))
                    .collect();
                let want: Vec<u64> = (ys.iter().enumerate())
                    .map(|(s, &y)| key(b.lower_bound(s, y, &terms)))
                    .collect();
                for isa in Isa::supported() {
                    let mut got = ys.clone();
                    strip_lower_bounds(isa, b, &terms, &mut got);
                    let got: Vec<u64> = got.into_iter().map(key).collect();
                    assert_eq!(
                        got,
                        want,
                        "{} at ambient {ambient}, anchor {a:?}",
                        isa.name()
                    );
                }
            }
        }
    }

    /// The two-channel test never clears a strip whose bounds' score,
    /// `arcosh(b_ir)² + w·arcosh(b_tg)²`, is at or below the cut, and
    /// clears every one the brackets alone decide: on a grid of bounds
    /// from below 1 to `10¹²`, weights from 0 to huge, and cuts around
    /// each score, the exact one among them.
    #[test]
    fn the_two_channel_test_clears_only_scores_above_the_cut() {
        let bounds = [
            f64::NEG_INFINITY,
            0.5,
            1.0,
            1.0 + f64::EPSILON,
            1.0 + 1e-9,
            1.001,
            1.5,
            3.0,
            1e3,
            1e12,
        ];
        let weights = [0.0, 5e-324, 1e-9, 0.3, 1.0, 7.0, 1e6];
        let (mut cleared, mut kept) = (0, 0);
        for &b_ir in &bounds {
            for &b_tg in &bounds {
                for &w in &weights {
                    let (d_ir, d_tg) = (arcosh(b_ir), arcosh(b_tg));
                    let score = d_ir * d_ir + w * (d_tg * d_tg);
                    for cut in [
                        score * 0.5,
                        score.next_down(),
                        score,
                        score.next_up(),
                        score * 2.0,
                    ] {
                        let clears = two_channel_clears(b_ir, b_tg, w, cut);
                        if cut >= score {
                            assert!(
                                !clears,
                                "{b_ir} {b_tg} {w}: clears the cut {cut} >= {score}"
                            );
                        }
                        if cut == score * 0.5 && cut > 0.0 {
                            assert!(clears, "{b_ir} {b_tg} {w}: keeps the cut {cut} < {score}");
                        }
                        cleared += usize::from(clears);
                        kept += usize::from(!clears);
                    }
                }
            }
        }
        assert!(cleared > 0 && kept > 0, "{cleared} cleared, {kept} kept");
        // No cut, a NaN bound or a NaN weight clears nothing.
        assert!(!two_channel_clears(3.0, 3.0, 1.0, f64::NAN));
        assert!(!two_channel_clears(3.0, 3.0, f64::NAN, 0.1));
        assert!(!two_channel_clears(f64::NAN, f64::NAN, 1.0, 0.0));
    }

    /// What the bound cannot vouch for is never skipped: a strip with a
    /// NaN row or an infinite one, or whose mean does not normalise, has
    /// no bound, and an anchor that is NaN, infinite or off the forward
    /// sheet meets none.
    #[test]
    fn hostile_strips_and_anchors_have_no_bound() {
        let near = |x: f64| lorentz::from_spatial(&[x, 0.5 * x]);
        let mut pts: Vec<Vec<f64>> = (0..4 * STRIP)
            .map(|i| near(1.0 + 1e-3 * i as f64))
            .collect();
        pts[3] = vec![f64::NAN, 1.0, 1.0];
        pts[STRIP + 5] = vec![f64::INFINITY, 1.0, 0.5];
        pts[2 * STRIP + 7][2] = f64::NEG_INFINITY;
        // A strip of rows off the hyperboloid whose sum is not timelike.
        for (i, p) in pts[3 * STRIP..].iter_mut().enumerate() {
            *p = vec![0.0, 1.0 + i as f64, 0.0];
        }
        let c = BlockCache::build(&flat(&pts), 3).with_strip_bounds();
        let b = c.bounds.as_deref().expect("bounds");
        assert!(
            b.cosh_r.iter().all(|r| *r == f64::INFINITY),
            "{:?}",
            b.cosh_r
        );
        let far = lorentz::from_spatial(&[-40.0, 30.0]);
        for s in 0..4 {
            let bound = b.lower_bound(s, b.centres.neg_inner_one(&far, s), &AnchorTerms::new(&far));
            assert_eq!(bound, f64::NEG_INFINITY, "strip {s}");
        }
        let clean: Vec<Vec<f64>> = (0..STRIP).map(|i| near(1.0 + 1e-3 * i as f64)).collect();
        let c = BlockCache::build(&flat(&clean), 3).with_strip_bounds();
        let b = c.bounds.as_deref().expect("bounds");
        let bound =
            |a: &[f64]| b.lower_bound(0, b.centres.neg_inner_one(a, 0), &AnchorTerms::new(a));
        assert!(bound(&far) > 1.0, "a clean strip is bounded");
        let mut flipped = far.clone();
        flipped[0] = -flipped[0];
        for bad in [
            vec![f64::NAN, -40.0, 30.0],
            vec![f64::INFINITY, -40.0, 30.0],
            flipped,
        ] {
            let clears = bound(&bad) > 1.0;
            assert!(!clears, "{bad:?}");
        }
    }

    /// The item chain's rounding term `γ′·P` carries weight. Anchor and
    /// rows sit about 12 from the origin on one geodesic, so each inner
    /// product cancels two terms near 10¹⁰ down to about 1.0015, on a
    /// grid of about 10⁻⁶. Row 0's computed value lies 1.6·10⁻⁶ below its
    /// exact one and ties row 32's (32 copies of one row), the lower id
    /// winning: row 0 is the top-1. Strip 0's other rows lie 1 nearer the
    /// origin, so its centre is far from the anchor and its ball is tight
    /// at row 0; strip 1, nearer, is ranked first and sets the cut. The
    /// bound keeps strip 0, but without `γ′·P` it would clear that cut
    /// and drop row 0.
    #[test]
    fn the_chain_term_keeps_a_strip_the_bare_bound_would_skip() {
        let lift = |s: f64| lorentz::from_spatial(&[s]);
        let anchor = lift(101670.47158367405);
        let mut pts = vec![lift(96190.79274743576)];
        pts.extend(vec![lift(35318.38538583754); STRIP - 1]);
        pts.extend(vec![lift(107459.1193088258); STRIP]);
        let c = BlockCache::build(&flat(&pts), 2).with_strip_bounds();
        let y = |i| c.neg_inner_one(&anchor, i);
        assert_eq!(y(0).to_bits(), y(STRIP).to_bits(), "row 0 ties row {STRIP}");
        let cut = prune_cut(Some(finish_one_channel(y(STRIP))));
        let b = c.bounds.as_deref().expect("bounds");
        let terms = AnchorTerms::new(&anchor);
        let bound = b.lower_bound(0, b.centres.neg_inner_one(&anchor, 0), &terms);
        let chain = terms.gamma * (terms.t * b.t_max[0] + terms.n * b.n_max[0]);
        assert!(bound <= cut, "the bound keeps strip 0");
        assert!(
            bound + chain > cut,
            "without γ′·P, {} clears the cut {cut}",
            bound + chain
        );
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
            let mut offers = sink.offers.pop().expect("one anchor");
            offers.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            let want = finish_one_channel(y(0));
            assert_eq!(
                offers.first().map(|&(i, v)| (i, v.to_bits())),
                Some((0, want.to_bits())),
                "{sweep:?}"
            );
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
