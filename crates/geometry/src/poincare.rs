//! The Poincaré ball model `P^d = {x ∈ R^d : ‖x‖ < 1}` (curvature −1).
//!
//! The paper constructs the tag taxonomy here because the ball "provides an
//! intuitive way to layout the tags and thus is suitable for hierarchical
//! clustering" (§IV-B). Implements the distance metric (§III-B), Möbius
//! addition (Eq. 22), the Möbius exponential map used by Riemannian SGD on
//! tag embeddings (Eq. 21), and the Riemannian gradient rescaling.

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
    let b = (1.0 - sqnorm(x)).max(EPS_DIV);
    let c = (1.0 - sqnorm(y)).max(EPS_DIV);
    1.0 + 2.0 * a / (b * c)
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
        crate::convert::poincare_to_klein(p, &mut k);
        let gamma = crate::klein::lorentz_factor(&k);
        let g = gamma * w;
        axpy(&mut acc, g, &k);
        wsum += g;
    }
    if wsum.abs() < EPS_DIV {
        out.fill(0.0);
        return;
    }
    for a in acc.iter_mut() {
        *a /= wsum;
    }
    clip_norm(&mut acc, MAX_BALL_NORM);
    crate::convert::klein_to_poincare(&acc, out);
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
}
