//! The Poincaré ball model `P^d = {x ∈ R^d : ‖x‖ < 1}` (curvature −1).
//!
//! The paper constructs the tag taxonomy here because the ball "provides an
//! intuitive way to layout the tags and thus is suitable for hierarchical
//! clustering" (§IV-B). Implements the distance metric (§III-B), Möbius
//! addition (Eq. 22), the Möbius exponential map used by Riemannian SGD on
//! tag embeddings (Eq. 21), and the Riemannian gradient rescaling.

use crate::multiversion;
use crate::vecops::{axpy, clip_norm, dot, norm, sqdist, sqnorm};
use crate::{arcosh, EPS_DIV, MAX_BALL_NORM};

/// Poincaré distance (paper §III-B):
///
/// `d_P(x, y) = arcosh(1 + 2‖x−y‖² / ((1−‖x‖²)(1−‖y‖²)))`.
///
/// Inputs are assumed to be inside the unit ball; denominators are guarded
/// so boundary-grazing points produce large-but-finite distances.
pub fn distance(x: &[f64], y: &[f64]) -> f64 {
    arcosh(distance_arg(x, y))
}

/// The argument `1 + 2‖x−y‖²/((1−‖x‖²)(1−‖y‖²))` passed to `arcosh` in the
/// Poincaré distance. Exposed separately for gradient computations.
pub fn distance_arg(x: &[f64], y: &[f64]) -> f64 {
    let a = sqdist(x, y);
    1.0 + 2.0 * a / (ball_den(x) * ball_den(y))
}

/// `(1 − ‖x‖²).max(EPS_DIV)`: the guarded factor [`distance_arg`] forms
/// for each of its points, exposed so a caller measuring one point
/// against many can form it once.
#[inline]
pub fn ball_den(x: &[f64]) -> f64 {
    (1.0 - sqnorm(x)).max(EPS_DIV)
}

/// Centroids per panel of [`distance_arg_panel`]: one lane each, eight
/// lanes being one AVX-512 register of `f64`.
pub const PANEL_LANES: usize = 8;

/// Rows per register-blocked group of [`distance_arg_panel`]: four
/// lane vectors of independent sums hide the add latency.
const PANEL_ROWS: usize = 4;

multiversion! {
    /// [`distance_arg`] from each listed row of `emb` to each of
    /// [`PANEL_LANES`] centroids, bit for bit:
    /// `out[i][l] = 1 + 2‖xᵢ − c_l‖² / (den[i]·cden[l])` with
    /// `xᵢ = emb[rows[i]·dim..][..dim]`, `den` and `cden` the rows' and
    /// centroids' [`ball_den`], and the centroids dimension-major in
    /// `panel` (`panel[j·PANEL_LANES + l]` is coordinate `j` of centroid
    /// `l`). Every (row, centroid) pair sums `(xⱼ − cⱼ)²` in `j` order from
    /// −0.0, as [`sqdist`] does; rows and lanes only interleave
    /// independent sums. A lane no centroid fills computes a value the
    /// caller ignores.
    #[allow(clippy::too_many_arguments)]
    pub fn distance_arg_panel(
        isa: Isa,
        emb: &[f64],
        dim: usize,
        rows: &[u32],
        den: &[f64],
        panel: &[f64],
        cden: &[f64; PANEL_LANES],
        out: &mut [[f64; PANEL_LANES]],
    ) {
        let (cols, _) = panel[..dim * PANEL_LANES].as_chunks::<PANEL_LANES>();
        let row = |i: usize| &emb[rows[i] as usize * dim..][..dim];
        let mut i = 0;
        while i + PANEL_ROWS <= rows.len() {
            let xs = std::array::from_fn(|p| row(i + p));
            let dens = std::array::from_fn(|p| den[i + p]);
            panel_group::<PANEL_ROWS>(xs, dens, cols, cden, &mut out[i..i + PANEL_ROWS]);
            i += PANEL_ROWS;
        }
        while i < rows.len() {
            panel_group::<1>([row(i)], [den[i]], cols, cden, &mut out[i..i + 1]);
            i += 1;
        }
    }
}

/// [`distance_arg_panel`] for `R` rows: `R × PANEL_LANES` sums, each in
/// its own accumulator.
#[inline(always)]
fn panel_group<const R: usize>(
    xs: [&[f64]; R],
    dens: [f64; R],
    cols: &[[f64; PANEL_LANES]],
    cden: &[f64; PANEL_LANES],
    out: &mut [[f64; PANEL_LANES]],
) {
    let mut acc = [[-0.0f64; PANEL_LANES]; R];
    for (j, col) in cols.iter().enumerate() {
        for r in 0..R {
            let xj = xs[r][j];
            for l in 0..PANEL_LANES {
                let d = xj - col[l];
                acc[r][l] += d * d;
            }
        }
    }
    for r in 0..R {
        for l in 0..PANEL_LANES {
            out[r][l] = 1.0 + 2.0 * acc[r][l] / (dens[r] * cden[l]);
        }
    }
}

/// Möbius addition `x ⊕ y` (paper Eq. 22):
///
/// `x ⊕ y = ((1 + 2⟨x,y⟩ + ‖y‖²) x + (1 − ‖x‖²) y) / (1 + 2⟨x,y⟩ + ‖x‖²‖y‖²)`.
pub fn mobius_add(x: &[f64], y: &[f64], out: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(x.len(), out.len());
    let xy = dot(x, y);
    let x2 = sqnorm(x);
    let y2 = sqnorm(y);
    let denom = (1.0 + 2.0 * xy + x2 * y2).max(EPS_DIV);
    let cx = (1.0 + 2.0 * xy + y2) / denom;
    let cy = (1.0 - x2) / denom;
    for i in 0..out.len() {
        out[i] = cx * x[i] + cy * y[i];
    }
    clip_norm(out, MAX_BALL_NORM);
}

/// Möbius exponential map at `x` applied to a tangent vector `η`
/// (paper Eq. 21):
///
/// `exp_x(η) = x ⊕ (tanh(‖η‖ / 2) · η/‖η‖)`.
///
/// Note the paper uses this simplified form (valid for the RSGD step after
/// the Riemannian gradient rescaling); for `η = 0` it returns `x`.
pub fn exp_map(x: &[f64], eta: &[f64], out: &mut [f64]) {
    exp_map_scaling(x, &mut eta.to_vec(), out);
}

/// [`exp_map`], scaling `eta` in place into the Möbius summand
/// `tanh(‖η‖/2)·η/‖η‖` (left as it was when `η ≈ 0`).
fn exp_map_scaling(x: &[f64], eta: &mut [f64], out: &mut [f64]) {
    let n = norm(eta);
    if n < EPS_DIV {
        out.copy_from_slice(x);
        clip_norm(out, MAX_BALL_NORM);
        return;
    }
    let f = (n / 2.0).tanh() / n;
    for e in eta.iter_mut() {
        *e *= f;
    }
    mobius_add(x, eta, out);
}

/// Rescales a Euclidean gradient at `x` into the Riemannian gradient of the
/// Poincaré metric: `grad_R = ((1 − ‖x‖²)² / 4) · grad_E`.
///
/// This is the conformal-factor correction used by Poincaré RSGD
/// (Nickel & Kiela 2017); the paper's Eq. 20 projection is for the sphere —
/// in the ball model the metric is conformal so only scaling is needed.
pub fn riemannian_grad(x: &[f64], grad_e: &[f64], out: &mut [f64]) {
    let f = (1.0 - sqnorm(x)).max(EPS_DIV);
    let s = f * f / 4.0;
    for (o, g) in out.iter_mut().zip(grad_e) {
        *o = s * g;
    }
}

/// One Riemannian SGD step on a ball point: `x ← exp_x(−lr · grad_R)`,
/// followed by re-clipping into the ball.
pub fn rsgd_step(x: &mut [f64], grad_e: &[f64], lr: f64) {
    let mut rg = vec![0.0; x.len()];
    let mut out = vec![0.0; x.len()];
    rsgd_step_buffered(x, grad_e, lr, &mut rg, &mut out);
}

/// [`rsgd_step`] with caller-provided buffers (`rg` and `out`, both of
/// `x.len()`, overwritten) for optimizer loops that update many rows: it
/// allocates nothing. Arithmetic is identical to [`rsgd_step`].
pub fn rsgd_step_buffered(x: &mut [f64], grad_e: &[f64], lr: f64, rg: &mut [f64], out: &mut [f64]) {
    riemannian_grad(x, grad_e, rg);
    for g in rg.iter_mut() {
        *g *= -lr;
    }
    exp_map_scaling(x, rg, out);
    x.copy_from_slice(out);
    clip_norm(x, MAX_BALL_NORM);
}

/// Euclidean gradient of `d_P(x, y)` with respect to `x`, accumulated into
/// `gx` with weight `w`, and with respect to `y` into `gy`.
///
/// Derivation: with `s = 1 + 2A/(BC)`, `A = ‖x−y‖²`, `B = 1−‖x‖²`,
/// `C = 1−‖y‖²`:
/// `∂s/∂x = (4/(BC))(x−y) + (4A/(B²C)) x` and symmetrically for `y`;
/// `∂d/∂s = 1/√(s²−1)` (guarded).
pub fn distance_grad(x: &[f64], y: &[f64], w: f64, gx: &mut [f64], gy: &mut [f64]) {
    let a = sqdist(x, y);
    let b = (1.0 - sqnorm(x)).max(EPS_DIV);
    let c = (1.0 - sqnorm(y)).max(EPS_DIV);
    let s = 1.0 + 2.0 * a / (b * c);
    let dd_ds = crate::arcosh_grad(s) * w;
    let k1 = 4.0 / (b * c) * dd_ds;
    let k2x = 4.0 * a / (b * b * c) * dd_ds;
    let k2y = 4.0 * a / (b * c * c) * dd_ds;
    for i in 0..x.len() {
        let d = x[i] - y[i];
        gx[i] += k1 * d + k2x * x[i];
        gy[i] += -k1 * d + k2y * y[i];
    }
}

/// Projects a point into the open ball (clip at [`MAX_BALL_NORM`]).
pub fn project(x: &mut [f64]) {
    clip_norm(x, MAX_BALL_NORM);
}

/// Weighted Fréchet-style centroid approximation used by Poincaré k-means:
/// maps points to the Klein model, takes the Einstein midpoint, and maps
/// back. Exact Fréchet means have no closed form in the ball; the Einstein
/// midpoint is the standard practical surrogate (paper Eq. 1 / [23]).
pub fn einstein_centroid(points: &[&[f64]], weights: &[f64], out: &mut [f64]) {
    debug_assert_eq!(points.len(), weights.len());
    debug_assert!(!points.is_empty());
    let d = points[0].len();
    debug_assert_eq!(out.len(), d);
    let mut acc = vec![0.0; d];
    let mut wsum = 0.0;
    let mut k = vec![0.0; d];
    for (p, &w) in points.iter().zip(weights) {
        let g = klein_factor(p, &mut k) * w;
        axpy(&mut acc, g, &k);
        wsum += g;
    }
    einstein_centroid_finish(&mut acc, wsum, out);
}

/// The per-point half of [`einstein_centroid`]: writes `x`'s Klein
/// coordinates into `k` and returns their Lorentz factor `γ`, so a caller
/// that averages the same points many times can convert each once.
#[inline]
pub fn klein_factor(x: &[f64], k: &mut [f64]) -> f64 {
    crate::convert::poincare_to_klein(x, k);
    crate::klein::lorentz_factor(k)
}

/// The closing half of [`einstein_centroid`]: from `acc = Σ gᵢ·kᵢ` and
/// `wsum = Σ gᵢ` (each summed from `0.0` in point order, `gᵢ = γᵢ·wᵢ`,
/// `kᵢ` from [`klein_factor`]) writes the ball centroid into `out`.
/// `acc` is consumed as scratch.
pub fn einstein_centroid_finish(acc: &mut [f64], wsum: f64, out: &mut [f64]) {
    if wsum.abs() < EPS_DIV {
        out.fill(0.0);
        return;
    }
    for a in acc.iter_mut() {
        *a /= wsum;
    }
    clip_norm(acc, MAX_BALL_NORM);
    crate::convert::klein_to_poincare(acc, out);
    clip_norm(out, MAX_BALL_NORM);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fd_distance_grad(x: &[f64], y: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let h = 1e-6;
        let mut gx = vec![0.0; x.len()];
        let mut gy = vec![0.0; y.len()];
        for i in 0..x.len() {
            let mut xp = x.to_vec();
            let mut xm = x.to_vec();
            xp[i] += h;
            xm[i] -= h;
            gx[i] = (distance(&xp, y) - distance(&xm, y)) / (2.0 * h);
        }
        for i in 0..y.len() {
            let mut yp = y.to_vec();
            let mut ym = y.to_vec();
            yp[i] += h;
            ym[i] -= h;
            gy[i] = (distance(x, &yp) - distance(x, &ym)) / (2.0 * h);
        }
        (gx, gy)
    }

    #[test]
    fn distance_axioms() {
        let x = [0.1, 0.2];
        let y = [-0.3, 0.4];
        let z = [0.0, -0.5];
        assert!(distance(&x, &x) < 1e-9);
        assert!((distance(&x, &y) - distance(&y, &x)).abs() < 1e-12);
        assert!(distance(&x, &y) > 0.0);
        // Triangle inequality.
        assert!(distance(&x, &z) <= distance(&x, &y) + distance(&y, &z) + 1e-12);
    }

    #[test]
    fn distance_from_origin_matches_closed_form() {
        // d(0, x) = 2 artanh(‖x‖)
        let x = [0.3, 0.4]; // norm 0.5
        let o = [0.0, 0.0];
        let expected = 2.0 * 0.5f64.atanh();
        assert!((distance(&o, &x) - expected).abs() < 1e-12);
    }

    #[test]
    fn mobius_add_identity_and_inverse() {
        let x = [0.2, -0.1];
        let zero = [0.0, 0.0];
        let mut out = [0.0; 2];
        mobius_add(&x, &zero, &mut out);
        assert!((out[0] - x[0]).abs() < 1e-12 && (out[1] - x[1]).abs() < 1e-12);
        // x ⊕ (−x) = 0
        let negx = [-0.2, 0.1];
        mobius_add(&x, &negx, &mut out);
        assert!(norm(&out) < 1e-12);
    }

    #[test]
    fn mobius_add_stays_in_ball() {
        let x = [0.9, 0.0];
        let y = [0.0, 0.9];
        let mut out = [0.0; 2];
        mobius_add(&x, &y, &mut out);
        assert!(norm(&out) < 1.0);
    }

    #[test]
    fn exp_map_zero_is_identity() {
        let x = [0.3, -0.2];
        let mut out = [0.0; 2];
        exp_map(&x, &[0.0, 0.0], &mut out);
        assert!((out[0] - x[0]).abs() < 1e-12);
    }

    #[test]
    fn exp_map_at_origin_direction() {
        // exp_0(η) = tanh(‖η‖/2) η/‖η‖ — collinear with η.
        let o = [0.0, 0.0];
        let eta = [0.6, 0.8];
        let mut out = [0.0; 2];
        exp_map(&o, &eta, &mut out);
        let n = norm(&out);
        assert!((n - (0.5f64).tanh()).abs() < 1e-12);
        assert!((out[0] / n - 0.6).abs() < 1e-9);
    }

    #[test]
    fn distance_grad_matches_finite_differences() {
        let x = [0.15, -0.35, 0.2];
        let y = [-0.4, 0.1, 0.05];
        let mut gx = vec![0.0; 3];
        let mut gy = vec![0.0; 3];
        distance_grad(&x, &y, 1.0, &mut gx, &mut gy);
        let (fx, fy) = fd_distance_grad(&x, &y);
        for i in 0..3 {
            assert!(
                (gx[i] - fx[i]).abs() < 1e-5,
                "gx[{i}]: {} vs {}",
                gx[i],
                fx[i]
            );
            assert!(
                (gy[i] - fy[i]).abs() < 1e-5,
                "gy[{i}]: {} vs {}",
                gy[i],
                fy[i]
            );
        }
    }

    #[test]
    fn rsgd_step_decreases_distance_to_target() {
        // Gradient descent on d_P(x, t)² should pull x toward t.
        let target = [0.5, 0.1];
        let mut x = vec![-0.3, -0.4];
        let before = distance(&x, &target);
        for _ in 0..50 {
            let mut gx = vec![0.0; 2];
            let mut gt = vec![0.0; 2];
            // d(d²)/dx = 2 d · dd/dx
            let d = distance(&x, &target);
            distance_grad(&x, &target, 2.0 * d, &mut gx, &mut gt);
            rsgd_step(&mut x, &gx, 0.05);
        }
        let after = distance(&x, &target);
        assert!(after < before * 0.5, "before={before} after={after}");
    }

    #[test]
    fn einstein_centroid_of_symmetric_points_is_origin() {
        let a = [0.4, 0.0];
        let b = [-0.4, 0.0];
        let mut out = [9.0, 9.0];
        einstein_centroid(&[&a, &b], &[1.0, 1.0], &mut out);
        assert!(norm(&out) < 1e-9);
    }

    #[test]
    fn einstein_centroid_single_point_is_identity() {
        let a = [0.3, -0.25];
        let mut out = [0.0, 0.0];
        einstein_centroid(&[&a], &[2.5], &mut out);
        assert!((out[0] - a[0]).abs() < 1e-9 && (out[1] - a[1]).abs() < 1e-9);
    }

    /// Every clone of the panel sweep returns, lane by lane, the bits of
    /// [`distance_arg`] on the row and the centroid, any NaN equal to any
    /// NaN: rows in register groups and the tail, dimensions across the
    /// vector widths, and rows on or past the sphere, signed zeros and
    /// non-finite values.
    #[test]
    fn every_clone_of_the_panel_sweep_returns_distance_arg_bits() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let clones = crate::isa::Isa::supported();
        println!(
            "panel clones: {:?}",
            clones.iter().map(|i| i.name()).collect::<Vec<_>>()
        );
        let edges = [0.0, -0.0, 1.0, -1.0, 1.0 + 1e-9, f64::NAN, f64::INFINITY];
        let key = |v: f64| if v.is_nan() { u64::MAX } else { v.to_bits() };
        let mut rng = StdRng::seed_from_u64(17);
        let value = |rng: &mut StdRng| {
            if rng.random_range(0..12usize) == 0 {
                edges[rng.random_range(0..edges.len())]
            } else {
                rng.random_range(-0.7..0.7)
            }
        };
        for dim in [0, 1, 3, 8, 13, 32] {
            let n_rows = 11;
            let emb: Vec<f64> = (0..n_rows * dim).map(|_| value(&mut rng)).collect();
            let cents: Vec<Vec<f64>> = (0..PANEL_LANES)
                .map(|_| (0..dim).map(|_| value(&mut rng)).collect())
                .collect();
            let mut panel = vec![0.0; dim * PANEL_LANES];
            for (l, c) in cents.iter().enumerate() {
                for (j, &v) in c.iter().enumerate() {
                    panel[j * PANEL_LANES + l] = v;
                }
            }
            let cden: [f64; PANEL_LANES] = std::array::from_fn(|l| ball_den(&cents[l]));
            for len in [0, 1, 4, 5, 9, 11] {
                let rows: Vec<u32> = (0..len as u32).rev().collect();
                let row = |r: u32| &emb[r as usize * dim..(r as usize + 1) * dim];
                let den: Vec<f64> = rows.iter().map(|&r| ball_den(row(r))).collect();
                let run = |isa| {
                    let mut out = vec![[0.0; PANEL_LANES]; len];
                    distance_arg_panel(isa, &emb, dim, &rows, &den, &panel, &cden, &mut out);
                    out.iter().flatten().map(|&v| key(v)).collect::<Vec<_>>()
                };
                let want: Vec<u64> = rows
                    .iter()
                    .flat_map(|&r| cents.iter().map(move |c| key(distance_arg(row(r), c))))
                    .collect();
                for &isa in &clones {
                    assert_eq!(run(isa), want, "{} at dim {dim}, {len} rows", isa.name());
                }
            }
        }
    }
}
