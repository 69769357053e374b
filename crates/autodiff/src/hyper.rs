//! Forward/backward kernels of the rowwise hyperbolic composite ops.
//!
//! Each function pair implements one differentiable building block of the
//! TaxoRec computation graph with an analytically derived backward pass:
//! a tape op of its own, or a part of a fused one (the maps at the origin
//! inside `Tape::global_aggregation`, a channel of `Tape::triplet_hinge`).
//! Whole blocks instead of chains of primitive ops keep the tape small and
//! let each backward handle its own numerical guards. Every derivation is
//! verified against central finite differences in `tests/gradcheck.rs`.
//!
//! Shape conventions: hyperboloid points carry `d+1` ambient columns (time
//! coordinate first); ball/Klein/tangent vectors carry `d` columns. All ops
//! act row by row.
//!
//! Storage conventions (the tape hands every kind a recycled buffer): a
//! `*_fwd` kernel **overwrites** every entry of `out` (and of `aux`, where
//! it has one) and never reads it; a `*_bwd` kernel **accumulates** (`+=`)
//! into its `grad_*` arguments, which the caller zeroes — except where its
//! docs say it **writes** an argument: then every entry is overwritten as
//! `0.0 + t`, the bits of adding `t` into a zero (`−0.0` becoming `+0.0`
//! included).
//!
//! `aux` is an op's per-row forward scalars, kept by the tape for the
//! backward so it does not recompute transcendentals or inner products
//! its forward already had (DESIGN.md §2, "Kernels").

use crate::matrix::Matrix;
use crate::sparse::Csr;
use crate::tape::Triplets;
use taxorec_geometry::{
    arcosh, arcosh_grad, lorentz, multiversion, vecops, EPS_DIV, EPS_SMALL, MAX_BALL_NORM,
};

/// Triplets whose inner products [`triplet_dists_fwd`] reduces in
/// lockstep; see `taxorec_geometry::vecops`.
const LANES: usize = 4;

/// `(cosh r, sinh(r)/r, (cosh(r)·r − sinh(r))/r³)`: the exponential map's
/// time coordinate and its two derivative factors, from one `cosh` and
/// one `sinh`. The factors switch to their series below `EPS_SMALL`
/// (`1 + r²/6`) and below `1e−4` (`1/3 + r²/30`, the limit as r→0).
#[inline]
fn exp_origin_factors(r: f64) -> (f64, f64, f64) {
    let ch = r.cosh();
    if r < EPS_SMALL {
        return (ch, 1.0 + r * r / 6.0, 1.0 / 3.0 + r * r / 30.0);
    }
    let sh = r.sinh();
    let residual = if r < 1e-4 {
        1.0 / 3.0 + r * r / 30.0
    } else {
        (ch * r - sh) / (r * r * r)
    };
    (ch, sh / r, residual)
}

// ---------------------------------------------------------------------------
// exp_o : tangent (n×d) → hyperboloid (n×(d+1))   [paper Eq. 15]
// ---------------------------------------------------------------------------

/// Forward of the Lorentz exponential map at the origin. Entries `2r` and
/// `2r + 1` of `aux` (two per row) keep `sinh(r)/r` and
/// `(cosh(r)·r − sinh(r))/r³` for the backward.
pub fn lorentz_exp_origin_fwd(z: &Matrix, out: &mut Matrix, aux: &mut [f64]) {
    let (n, d) = z.shape();
    assert_eq!(out.shape(), (n, d + 1));
    assert_eq!(aux.len(), 2 * n);
    for (r, a) in aux.chunks_exact_mut(2).enumerate() {
        let zr = z.row(r);
        let (cosh, sinhc, residual) = exp_origin_factors(vecops::norm(zr));
        let orow = out.row_mut(r);
        orow[0] = cosh;
        for (o, &zj) in orow[1..].iter_mut().zip(zr) {
            *o = sinhc * zj;
        }
        a.copy_from_slice(&[sinhc, residual]);
    }
}

multiversion! {
    /// Backward of [`lorentz_exp_origin_fwd`], which **writes** `grad_z`:
    /// `z̄ = ḡ₀·sinh(r)/r·z + sinh(r)/r·ḡ_s + (z·ḡ_s)·(cosh(r)r − sinh(r))/r³ · z`,
    /// both factors read from the forward's `aux`.
    pub fn lorentz_exp_origin_bwd(isa: Isa, z: &Matrix, aux: &[f64], grad_out: &Matrix, grad_z: &mut Matrix) {
        assert_eq!(grad_z.shape(), z.shape());
        assert_eq!(aux.len(), 2 * z.rows());
        for (r, a) in aux.chunks_exact(2).enumerate() {
            let zr = z.row(r);
            let g = grad_out.row(r);
            let (s, c) = (a[0], a[1]);
            let g0 = g[0];
            let gs = &g[1..];
            let zg = vecops::dot(zr, gs);
            for ((o, &zj), &gj) in grad_z.row_mut(r).iter_mut().zip(zr).zip(gs) {
                *o = 0.0 + (g0 * s * zj + s * gj + zg * c * zj);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// log_o : hyperboloid (n×(d+1)) → tangent (n×d)   [paper Eq. 12 at o]
// ---------------------------------------------------------------------------

/// Forward of the Lorentz logarithmic map at the origin:
/// `z = arcosh(x₀)·x_s/‖x_s‖` per row, written into the `n×d` row-major
/// `out`. Entries `2r` and `2r + 1` of `aux` keep `‖x_s‖` and
/// `arcosh(x₀)` (`0` where `‖x_s‖ < EPS_DIV`: the row maps to the origin
/// and has no gradient).
pub fn lorentz_log_origin_fwd(x: &Matrix, out: &mut [f64], aux: &mut [f64]) {
    let (n, dc) = x.shape();
    let d = dc - 1;
    assert_eq!(out.len(), n * d);
    assert_eq!(aux.len(), 2 * n);
    for (r, a) in aux.chunks_exact_mut(2).enumerate() {
        let xr = x.row(r);
        let spatial = &xr[1..];
        let nn = vecops::norm(spatial);
        let orow = &mut out[r * d..(r + 1) * d];
        if nn < EPS_DIV {
            orow.fill(0.0);
            a.copy_from_slice(&[nn, 0.0]);
            continue;
        }
        let arc = arcosh(xr[0]);
        let f = arc / nn;
        for (o, &sj) in orow.iter_mut().zip(spatial) {
            *o = f * sj;
        }
        a.copy_from_slice(&[nn, arc]);
    }
}

multiversion! {
    /// Backward of [`lorentz_log_origin_fwd`], which **writes** `grad_x`:
    /// `x̄₀ = (ḡ·x_s/n)·arcosh'(x₀)`,
    /// `x̄_s = (a/n)·ḡ − (a/n³)(x_s·ḡ)·x_s` with `n = ‖x_s‖` and
    /// `a = arcosh(x₀)` read from the forward's `aux`; zero where `n < EPS_DIV`.
    /// `grad_out` is `n×d` row-major, as the forward's `out`.
    pub fn lorentz_log_origin_bwd(isa: Isa, x: &Matrix, aux: &[f64], grad_out: &[f64], grad_x: &mut Matrix) {
        assert_eq!(grad_x.shape(), x.shape());
        let d = x.cols() - 1;
        assert_eq!(aux.len(), 2 * x.rows());
        assert_eq!(grad_out.len(), x.rows() * d);
        for (r, a) in aux.chunks_exact(2).enumerate() {
            let xr = x.row(r);
            let spatial = &xr[1..];
            let g = &grad_out[r * d..(r + 1) * d];
            let gx = grad_x.row_mut(r);
            let (nn, a) = (a[0], a[1]);
            if nn < EPS_DIV {
                gx.fill(0.0);
                continue;
            }
            let sg = vecops::dot(spatial, g);
            gx[0] = 0.0 + (sg / nn) * arcosh_grad(xr[0]);
            let f1 = a / nn;
            let f2 = a / (nn * nn * nn) * sg;
            for ((o, &gj), &sj) in gx[1..].iter_mut().zip(g).zip(spatial) {
                *o = 0.0 + (f1 * gj - f2 * sj);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Squared Lorentz distance, rowwise: (n×(d+1), n×(d+1)) → (n×1) [Eq. 17]
// ---------------------------------------------------------------------------

/// Forward of the rowwise squared Lorentz distance
/// `D_r = arcosh(−⟨x_r, y_r⟩_L)²`.
pub fn lorentz_dist_sq_fwd(x: &Matrix, y: &Matrix, out: &mut Matrix) {
    assert_eq!(x.shape(), y.shape());
    let n = x.rows();
    assert_eq!(out.shape(), (n, 1));
    for r in 0..n {
        let s = -taxorec_geometry::lorentz::inner(x.row(r), y.row(r));
        let d = arcosh(s);
        out.set(r, 0, d * d);
    }
}

/// Backward of [`lorentz_dist_sq_fwd`] via
/// [`taxorec_geometry::lorentz::distance_sq_grad`].
pub fn lorentz_dist_sq_bwd(
    x: &Matrix,
    y: &Matrix,
    grad_out: &Matrix,
    grad_x: &mut Matrix,
    grad_y: &mut Matrix,
) {
    for r in 0..x.rows() {
        taxorec_geometry::lorentz::distance_sq_grad(
            x.row(r),
            y.row(r),
            grad_out.get(r, 0),
            grad_x.row_mut(r),
            grad_y.row_mut(r),
        );
    }
}

// ---------------------------------------------------------------------------
// One channel of the triplet hinge: the squared distances of each triplet's
// user to its positive and its negative item, and their gradients
// (users, items, triplets) → (n×4 scalars)   [Eq. 17 over a triplet batch]
// ---------------------------------------------------------------------------

/// Forward of one channel of [`crate::Tape::triplet_hinge`]. For triplet
/// `r` (user `u`, positive `p`, negative `q`), entries `col..col + 4` of
/// row `r` of `aux` get `s = −⟨x_u, y_p⟩_L`, `arcosh s`, and the same two
/// for `q`, where `x_u` is row `u` of `users` and `y_v` is row
/// `offset + v` of `items`, both read in place. Per side, this is
/// [`lorentz_dist_sq_fwd`]'s arithmetic on the gathered rows:
/// [`LANES`] triplets' inner products run in lockstep, each in
/// [`lorentz::inner`]'s order.
pub(crate) fn triplet_dists_fwd(
    users: &Matrix,
    items: &Matrix,
    offset: usize,
    t: &Triplets,
    aux: &mut Matrix,
    col: usize,
) {
    assert_eq!(users.cols(), items.cols());
    let n = t.len();
    assert_eq!(aux.rows(), n);
    assert!(col + 4 <= aux.cols());
    let full = n - n % LANES;
    for r0 in (0..full).step_by(LANES) {
        triplet_dists::<LANES>(users, items, offset, t, r0, aux, col);
    }
    for r0 in full..n {
        triplet_dists::<1>(users, items, offset, t, r0, aux, col);
    }
}

/// Triplets `r0..r0 + N` of [`triplet_dists_fwd`].
#[inline(always)]
fn triplet_dists<const N: usize>(
    users: &Matrix,
    items: &Matrix,
    offset: usize,
    t: &Triplets,
    r0: usize,
    aux: &mut Matrix,
    col: usize,
) {
    let x: [&[f64]; N] = std::array::from_fn(|l| users.row(t.users[r0 + l]));
    for (side, idx) in [(0, &t.pos), (2, &t.neg)] {
        let neg_s =
            lorentz::inner_lanes::<N>(x, std::array::from_fn(|l| items.row(offset + idx[r0 + l])));
        for (l, neg_s) in neg_s.into_iter().enumerate() {
            let s = -neg_s;
            aux.row_mut(r0 + l)[col + side..col + side + 2].copy_from_slice(&[s, arcosh(s)]);
        }
    }
}

multiversion! {
    /// Backward of one channel of [`crate::Tape::triplet_hinge`], given
    /// the forward's `aux` (see [`triplet_dists_fwd`]) and each triplet's
    /// distance weights `w[2r]` (positive side) and `w[2r + 1]` (negative
    /// side). It accumulates, in `r` order, from the caller's zeros:
    ///
    /// * into `grad_users` (`users`' shape, row-major), at the triplet's
    ///   user row, `(0 + t_q) + t_p` — the negative side's term written
    ///   first, then the positive side's added, as the chain's two
    ///   distance ops formed a gathered row's gradient (`scratch` holds
    ///   these two rows) — the sum a row gather's scatter-add forms;
    /// * into `grad_neg` and `grad_pos` (one row per item, row-major), at
    ///   the negative and the positive item's row, that item's term.
    ///
    /// The caller adds `grad_pos` into `grad_neg`: the two sides' sums,
    /// formed separately and then added, as the two gathered
    /// distance ops' gradients were.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn triplet_channel_bwd(
        isa: Isa,
        users: &Matrix,
        items: &Matrix,
        offset: usize,
        t: &Triplets,
        aux: &Matrix,
        col: usize,
        w: &[f64],
        grad_users: &mut [f64],
        grad_neg: &mut [f64],
        grad_pos: &mut [f64],
        scratch: &mut [f64],
    ) {
        let dc = users.cols();
        assert_eq!(w.len(), 2 * t.len());
        let (gu, term) = scratch.split_at_mut(dc);
        let rows = t.users.iter().zip(&t.pos).zip(&t.neg);
        for (r, ((&u, &p), &q)) in rows.enumerate() {
            let (a, x) = (&aux.row(r)[col..col + 4], users.row(u));
            gu.fill(0.0);
            let gq = &mut grad_neg[q * dc..(q + 1) * dc];
            lorentz::distance_sq_grad_at(x, items.row(offset + q), a[2], a[3], w[2 * r + 1], gu, gq);
            term.fill(0.0);
            let gp = &mut grad_pos[p * dc..(p + 1) * dc];
            lorentz::distance_sq_grad_at(x, items.row(offset + p), a[0], a[1], w[2 * r], term, gp);
            for (g, &t) in gu.iter_mut().zip(&*term) {
                *g += t;
            }
            for (g, &v) in grad_users[u * dc..(u + 1) * dc].iter_mut().zip(&*gu) {
                *g += v;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Poincaré distance, rowwise: (n×d, n×d) → (n×1)   [Eq. 8 regularizer]
// ---------------------------------------------------------------------------

/// Forward of the rowwise Poincaré distance.
pub fn poincare_dist_fwd(x: &Matrix, y: &Matrix, out: &mut Matrix) {
    assert_eq!(x.shape(), y.shape());
    let n = x.rows();
    assert_eq!(out.shape(), (n, 1));
    for r in 0..n {
        out.set(
            r,
            0,
            taxorec_geometry::poincare::distance(x.row(r), y.row(r)),
        );
    }
}

/// Backward of [`poincare_dist_fwd`] via
/// [`taxorec_geometry::poincare::distance_grad`].
pub fn poincare_dist_bwd(
    x: &Matrix,
    y: &Matrix,
    grad_out: &Matrix,
    grad_x: &mut Matrix,
    grad_y: &mut Matrix,
) {
    let n = x.rows();
    // One pair of row scratch buffers for the whole call, zeroed per row.
    let mut gx = vec![0.0; x.cols()];
    let mut gy = vec![0.0; y.cols()];
    for r in 0..n {
        let w = grad_out.get(r, 0);
        if w == 0.0 {
            continue;
        }
        // distance_grad accumulates, matching our += convention. grad_x and
        // grad_y are always distinct buffers (the tape materializes per-
        // parent contributions separately), so the borrows are disjoint.
        gx.fill(0.0);
        gy.fill(0.0);
        taxorec_geometry::poincare::distance_grad(x.row(r), y.row(r), w, &mut gx, &mut gy);
        for (a, b) in grad_x.row_mut(r).iter_mut().zip(&gx) {
            *a += b;
        }
        for (a, b) in grad_y.row_mut(r).iter_mut().zip(&gy) {
            *a += b;
        }
    }
}

// ---------------------------------------------------------------------------
// Model conversions, rowwise
// ---------------------------------------------------------------------------

/// Forward of Poincaré → Klein (paper Eq. 9): `k = 2p/(1+‖p‖²)` per row.
pub fn poincare_to_klein_fwd(p: &Matrix, out: &mut Matrix) {
    assert_eq!(out.shape(), p.shape());
    for r in 0..p.rows() {
        taxorec_geometry::convert::poincare_to_klein(p.row(r), out.row_mut(r));
    }
}

/// Backward of [`poincare_to_klein_fwd`]:
/// `p̄ += (2/q)ḡ − (4(ḡ·p)/q²)p` with `q = 1+‖p‖²`.
pub fn poincare_to_klein_bwd(p: &Matrix, grad_out: &Matrix, grad_p: &mut Matrix) {
    let (n, d) = p.shape();
    for r in 0..n {
        let pr = p.row(r);
        let g = grad_out.row(r);
        let q = 1.0 + vecops::sqnorm(pr);
        let gp = vecops::dot(g, pr);
        let gout = grad_p.row_mut(r);
        for j in 0..d {
            gout[j] += 2.0 * g[j] / q - 4.0 * gp * pr[j] / (q * q);
        }
    }
}

/// Forward of Klein → Poincaré (inner map of paper Eq. 11):
/// `p = k/(1+√(1−‖k‖²))` per row.
pub fn klein_to_poincare_fwd(k: &Matrix, out: &mut Matrix) {
    assert_eq!(out.shape(), k.shape());
    for r in 0..k.rows() {
        taxorec_geometry::convert::klein_to_poincare(k.row(r), out.row_mut(r));
    }
}

/// Backward of [`klein_to_poincare_fwd`]:
/// `k̄ += ḡ/q + ((ḡ·k)/(βq²))·k` with `β = √(1−‖k‖²)`, `q = 1+β`.
pub fn klein_to_poincare_bwd(k: &Matrix, grad_out: &Matrix, grad_k: &mut Matrix) {
    let (n, d) = k.shape();
    for r in 0..n {
        let kr = k.row(r);
        let g = grad_out.row(r);
        let n2 = vecops::sqnorm(kr).min(MAX_BALL_NORM * MAX_BALL_NORM);
        let beta = (1.0 - n2).sqrt().max(EPS_SMALL);
        let q = 1.0 + beta;
        let gk = vecops::dot(g, kr);
        let gout = grad_k.row_mut(r);
        for j in 0..d {
            gout[j] += g[j] / q + gk * kr[j] / (beta * q * q);
        }
    }
}

/// Forward of Poincaré → Lorentz (paper Eq. 3), rowwise:
/// `x = ((1+‖p‖²), 2p)/(1−‖p‖²)`.
pub fn poincare_to_lorentz_fwd(p: &Matrix, out: &mut Matrix) {
    let (n, d) = p.shape();
    assert_eq!(out.shape(), (n, d + 1));
    for r in 0..n {
        taxorec_geometry::convert::poincare_to_lorentz(p.row(r), out.row_mut(r));
    }
}

/// Backward of [`poincare_to_lorentz_fwd`]:
/// `p̄ += ḡ₀·(4/B²)p + (2/B)ḡ_s + (4(ḡ_s·p)/B²)p` with `B = 1−‖p‖²`.
pub fn poincare_to_lorentz_bwd(p: &Matrix, grad_out: &Matrix, grad_p: &mut Matrix) {
    let (n, d) = p.shape();
    for r in 0..n {
        let pr = p.row(r);
        let g = grad_out.row(r);
        let b = (1.0 - vecops::sqnorm(pr)).max(EPS_DIV);
        let g0 = g[0];
        let gs = &g[1..];
        let gp = vecops::dot(gs, pr);
        let gout = grad_p.row_mut(r);
        for j in 0..d {
            gout[j] += g0 * 4.0 * pr[j] / (b * b) + 2.0 * gs[j] / b + 4.0 * gp * pr[j] / (b * b);
        }
    }
}

// ---------------------------------------------------------------------------
// Einstein midpoint aggregation: (S×d Klein tags, item–tag CSR) → (n×d)
// [paper Eq. 10]
// ---------------------------------------------------------------------------

/// Forward of the weighted Einstein midpoint: row `v` of the output is the
/// midpoint of the Klein tag embeddings of item `v`, weighted by the
/// item–tag matrix `Ψ`. Items without tags map to the Klein origin.
pub fn einstein_midpoint_fwd(tags: &Matrix, item_tag: &Csr, out: &mut Matrix) {
    assert_eq!(item_tag.cols(), tags.rows(), "item-tag/tag-matrix mismatch");
    let d = tags.cols();
    let n = item_tag.rows();
    assert_eq!(out.shape(), (n, d));
    for v in 0..n {
        let mut wsum = 0.0;
        {
            let orow = out.row_mut(v);
            orow.fill(0.0);
            for (t, w) in item_tag.row_iter(v) {
                let tr = tags.row(t);
                let g = klein_gamma(tr) * w;
                for j in 0..d {
                    orow[j] += g * tr[j];
                }
                wsum += g;
            }
        }
        if wsum.abs() < EPS_DIV {
            out.row_mut(v).fill(0.0);
        } else {
            let orow = out.row_mut(v);
            for o in orow.iter_mut() {
                *o /= wsum;
            }
            vecops::clip_norm(orow, MAX_BALL_NORM);
        }
    }
}

/// Lorentz factor of a Klein point with boundary clamping.
#[inline]
fn klein_gamma(x: &[f64]) -> f64 {
    let n2 = vecops::sqnorm(x).min(MAX_BALL_NORM * MAX_BALL_NORM);
    1.0 / (1.0 - n2).sqrt()
}

/// Backward of [`einstein_midpoint_fwd`]: for each item `v` with weight
/// `ψ_t` on tag `t`, `γ_t = 1/√(1−‖T_t‖²)`, `W = Σψγ`, `μ` the midpoint:
///
/// `T̄_t += ψ_t·(γ_t·μ̄ + γ_t³·(T_t·μ̄ − μ·μ̄)·T_t)/W`.
pub fn einstein_midpoint_bwd(
    tags: &Matrix,
    item_tag: &Csr,
    out: &Matrix,
    grad_out: &Matrix,
    grad_tags: &mut Matrix,
) {
    let d = tags.cols();
    let n = item_tag.rows();
    for v in 0..n {
        let g = grad_out.row(v);
        if g.iter().all(|&x| x == 0.0) {
            continue;
        }
        let mu = out.row(v);
        let mu_g = vecops::dot(mu, g);
        let mut wsum = 0.0;
        for (t, w) in item_tag.row_iter(v) {
            wsum += klein_gamma(tags.row(t)) * w;
        }
        if wsum.abs() < EPS_DIV {
            continue;
        }
        for (t, w) in item_tag.row_iter(v) {
            let tr = tags.row(t);
            let gamma = klein_gamma(tr);
            let t_g = vecops::dot(tr, g);
            let coef = w / wsum;
            let c1 = coef * gamma;
            let c2 = coef * gamma * gamma * gamma * (t_g - mu_g);
            let gt = grad_tags.row_mut(t);
            for j in 0..d {
                gt[j] += c1 * g[j] + c2 * tr[j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An output buffer as the tape hands it over: right shape, contents
    /// left over from something else.
    fn stale(rows: usize, cols: usize) -> Matrix {
        Matrix::full(rows, cols, f64::NAN)
    }

    #[test]
    fn log_origin_fwd_overwrites_the_degenerate_row_too() {
        // The hyperboloid origin has no spatial direction: its tangent is 0,
        // written, not assumed.
        let x = Matrix::from_vec(1, 3, vec![1.0, 0.0, 0.0]);
        let mut out = stale(1, 2);
        lorentz_log_origin_fwd(&x, out.data_mut(), stale(1, 2).data_mut());
        assert_eq!(out.data(), &[0.0, 0.0]);
    }

    #[test]
    fn sinhc_series_matches() {
        let sinhc = |r| exp_origin_factors(r).1;
        assert!((sinhc(1e-8) - 1.0).abs() < 1e-12);
        assert!((sinhc(0.5) - 0.5f64.sinh() / 0.5).abs() < 1e-12);
    }

    #[test]
    fn coshc_residual_limit() {
        let coshc_residual = |r| exp_origin_factors(r).2;
        assert!((coshc_residual(1e-6) - 1.0 / 3.0).abs() < 1e-9);
        let r: f64 = 0.3;
        let exact = (r.cosh() * r - r.sinh()) / (r * r * r);
        assert!((coshc_residual(r) - exact).abs() < 1e-12);
    }

    #[test]
    fn exp_log_fwd_roundtrip() {
        let z = Matrix::from_vec(2, 3, vec![0.4, -0.2, 0.7, 0.0, 1.5, -0.9]);
        let mut x = stale(2, 4);
        lorentz_exp_origin_fwd(&z, &mut x, stale(2, 2).data_mut());
        let mut back = stale(2, 3);
        lorentz_log_origin_fwd(&x, back.data_mut(), stale(2, 2).data_mut());
        for i in 0..6 {
            assert!((back.data()[i] - z.data()[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn dist_sq_of_identical_rows_is_zero() {
        let z = Matrix::from_vec(1, 2, vec![0.3, -0.4]);
        let mut x = stale(1, 3);
        lorentz_exp_origin_fwd(&z, &mut x, stale(1, 2).data_mut());
        let mut d = stale(1, 1);
        lorentz_dist_sq_fwd(&x, &x, &mut d);
        assert!(d.as_scalar() < 1e-9);
    }

    #[test]
    fn midpoint_matches_geometry_module() {
        // Two tags, one item with both tags, unit weights: compare against
        // the klein::einstein_midpoint reference path.
        let tags = Matrix::from_vec(2, 2, vec![0.5, 0.0, -0.3, 0.2]);
        let it = Csr::from_triplets(1, 2, &[(0, 0, 1.0), (0, 1, 1.0)]);
        let mut out = stale(1, 2);
        einstein_midpoint_fwd(&tags, &it, &mut out);
        let mut expect = [0.0; 2];
        taxorec_geometry::klein::einstein_midpoint(
            &[tags.row(0), tags.row(1)],
            &[1.0, 1.0],
            &mut expect,
        );
        assert!((out.get(0, 0) - expect[0]).abs() < 1e-12);
        assert!((out.get(0, 1) - expect[1]).abs() < 1e-12);
    }

    #[test]
    fn midpoint_untagged_item_is_origin_with_zero_grad() {
        let tags = Matrix::from_vec(1, 2, vec![0.5, 0.1]);
        let it = Csr::from_triplets(2, 1, &[(0, 0, 1.0)]);
        let mut out = stale(2, 2);
        einstein_midpoint_fwd(&tags, &it, &mut out);
        assert_eq!(out.row(1), &[0.0, 0.0]);
        let go = Matrix::full(2, 2, 1.0);
        let mut gt = Matrix::zeros(1, 2);
        einstein_midpoint_bwd(&tags, &it, &out, &go, &mut gt);
        assert!(gt.all_finite());
    }
}
