//! The Lorentz (hyperboloid) model
//! `H^d = {x ∈ R^{d+1} : ⟨x,x⟩_L = −1, x₀ > 0}` (curvature −1).
//!
//! The paper performs all metric learning and Riemannian optimization here
//! because the hyperboloid "allows for an efficient closed-form computation
//! of the geodesics ... and can avoid numerical instabilities that arise
//! from the Poincaré distance" (§III-B). Implements the Lorentzian inner
//! product, distance, the exponential/logarithmic maps at the origin used by
//! the global aggregation (Eqs. 12, 15), the exponential map at arbitrary
//! points used by RSGD (Eq. 23), and tangent-space projection (Eq. 20's
//! hyperboloid analogue).
//!
//! Note on the sign convention: the paper's §III-B states the constraint as
//! `⟨x,x⟩_L = 1`, which is a typo — with the signature `diag(−1, 1, …, 1)`
//! the hyperboloid satisfies `⟨x,x⟩_L = −1` (as in Nickel & Kiela 2018,
//! which the paper follows). We use the standard convention.

use crate::vecops::norm;
use crate::{arcosh, EPS_DIV, EPS_SMALL};

/// Lorentzian scalar product `⟨x,y⟩_L = −x₀y₀ + Σ_{i≥1} x_i y_i`.
#[inline]
pub fn inner(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    debug_assert!(x.len() >= 2);
    let mut s = -x[0] * y[0];
    for i in 1..x.len() {
        s += x[i] * y[i];
    }
    s
}

/// Geodesic distance on the hyperboloid: `d_H(x,y) = arcosh(−⟨x,y⟩_L)`.
#[inline]
pub fn distance(x: &[f64], y: &[f64]) -> f64 {
    arcosh(-inner(x, y))
}

/// Squared geodesic distance `d_H(x,y)²` — the quantity entering the
/// tag-enhanced similarity `g(u,v)` (paper Eq. 17).
#[inline]
pub fn distance_sq(x: &[f64], y: &[f64]) -> f64 {
    let d = distance(x, y);
    d * d
}

/// Euclidean (ambient) gradient of `w · d_H(x, y)²`, accumulated into
/// `gx` with respect to `x` and into `gy` with respect to `y` — the twin
/// of [`crate::poincare::distance_grad`].
///
/// With `s = −⟨x,y⟩_L`: `∂d²/∂s = 2·arcosh(s)·arcosh'(s)` (guarded at
/// `s → 1`), `∂s/∂x = (y₀, −y₁, …, −y_d)` and symmetrically for `y`.
#[inline]
pub fn distance_sq_grad(x: &[f64], y: &[f64], w: f64, gx: &mut [f64], gy: &mut [f64]) {
    let s = -inner(x, y);
    let c = 2.0 * arcosh(s) * crate::arcosh_grad(s) * w;
    gx[0] += c * y[0];
    gy[0] += c * x[0];
    for j in 1..x.len() {
        gx[j] -= c * y[j];
        gy[j] -= c * x[j];
    }
}

/// The hyperboloid origin `o = (1, 0, …, 0)` in `d+1` ambient dimensions.
pub fn origin(ambient_dim: usize) -> Vec<f64> {
    let mut o = vec![0.0; ambient_dim];
    o[0] = 1.0;
    o
}

/// Re-projects an ambient vector onto the hyperboloid by recomputing the
/// time coordinate: `x₀ ← √(1 + ‖x_{1:}‖²)`.
///
/// Run after every optimizer step; floating-point drift otherwise
/// accumulates in the constraint `⟨x,x⟩_L = −1`.
#[inline]
pub fn project_to_hyperboloid(x: &mut [f64]) {
    let mut s = 0.0;
    for &v in &x[1..] {
        s += v * v;
    }
    x[0] = (1.0 + s).sqrt();
}

/// Lifts a spatial vector `x_s ∈ R^d` onto the hyperboloid point
/// `(√(1+‖x_s‖²), x_s)`. Used to initialize parameters.
pub fn from_spatial(spatial: &[f64]) -> Vec<f64> {
    let mut x = Vec::with_capacity(spatial.len() + 1);
    x.push(0.0);
    x.extend_from_slice(spatial);
    project_to_hyperboloid(&mut x);
    x
}

/// Logarithmic map at the origin (paper Eq. 12 specialized to `o`):
/// maps a hyperboloid point `x` to the tangent space `T_o H^d`, returning
/// only the spatial `d` coordinates (the time coordinate of a tangent
/// vector at `o` is always 0).
///
/// Closed form: `log_o(x) = arcosh(x₀) · x_s / ‖x_s‖`.
pub fn log_map_origin(x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(x.len(), out.len() + 1);
    let spatial = &x[1..];
    let n = norm(spatial);
    if n < EPS_DIV {
        out.fill(0.0);
        return;
    }
    let f = arcosh(x[0]) / n;
    for (o, &v) in out.iter_mut().zip(spatial) {
        *o = f * v;
    }
}

/// Exponential map at the origin (paper Eq. 15): maps a tangent vector
/// `z ∈ T_o H^d ≅ R^d` (spatial coordinates) to the hyperboloid:
///
/// `exp_o(z) = (cosh ‖z‖, sinh(‖z‖)·z/‖z‖)`.
pub fn exp_map_origin(z: &[f64], out: &mut [f64]) {
    debug_assert_eq!(z.len() + 1, out.len());
    let r = norm(z);
    if r < EPS_SMALL {
        // cosh r ≈ 1 + r²/2, sinh(r)/r ≈ 1 + r²/6.
        out[0] = 1.0 + r * r / 2.0;
        let f = 1.0 + r * r / 6.0;
        for (o, &v) in out[1..].iter_mut().zip(z) {
            *o = f * v;
        }
        return;
    }
    out[0] = r.cosh();
    let f = r.sinh() / r;
    for (o, &v) in out[1..].iter_mut().zip(z) {
        *o = f * v;
    }
}

/// Projects an ambient gradient `h` onto the tangent space at `x`:
/// `proj_x(h) = h + ⟨x,h⟩_L · x`.
///
/// This is the hyperboloid analogue of the paper's Eq. 20 projection.
pub fn project_to_tangent(x: &[f64], h: &mut [f64]) {
    let c = inner(x, h);
    for (hi, &xi) in h.iter_mut().zip(x) {
        *hi += c * xi;
    }
}

/// Converts a Euclidean ambient gradient into the Riemannian gradient:
/// apply the inverse metric tensor `g_L⁻¹ = diag(−1,1,…,1)` (flip the sign
/// of the time component) and project onto the tangent space at `x`.
pub fn riemannian_grad(x: &[f64], grad_e: &[f64], out: &mut [f64]) {
    debug_assert_eq!(x.len(), grad_e.len());
    debug_assert_eq!(x.len(), out.len());
    out.copy_from_slice(grad_e);
    out[0] = -out[0];
    project_to_tangent(x, out);
}

/// Exponential map at an arbitrary hyperboloid point `x` (paper Eq. 23):
///
/// `exp_x(η) = cosh(‖η‖_L)·x + sinh(‖η‖_L)·η/‖η‖_L`,
///
/// where `‖η‖_L = √⟨η,η⟩_L` for a tangent vector `η` (non-negative on the
/// tangent space).
pub fn exp_map(x: &[f64], eta: &[f64], out: &mut [f64]) {
    let n2 = inner(eta, eta).max(0.0);
    let n = n2.sqrt();
    if n < EPS_SMALL {
        for i in 0..out.len() {
            out[i] = x[i] + eta[i];
        }
        project_to_hyperboloid(out);
        return;
    }
    let ch = n.cosh();
    let sh = n.sinh() / n;
    for i in 0..out.len() {
        out[i] = ch * x[i] + sh * eta[i];
    }
    project_to_hyperboloid(out);
}

/// One Riemannian SGD step: `x ← exp_x(−lr · grad_R(x))`, then re-project.
pub fn rsgd_step(x: &mut [f64], grad_e: &[f64], lr: f64) {
    let mut rg = vec![0.0; x.len()];
    let mut out = vec![0.0; x.len()];
    rsgd_step_buffered(x, grad_e, lr, &mut rg, &mut out);
}

/// [`rsgd_step`] with caller-provided buffers (`rg` and `out`, both of
/// `x.len()`) — the allocation-free form for optimizer loops that update
/// many rows. Arithmetic is identical to [`rsgd_step`].
pub fn rsgd_step_buffered(x: &mut [f64], grad_e: &[f64], lr: f64, rg: &mut [f64], out: &mut [f64]) {
    riemannian_grad(x, grad_e, rg);
    for g in rg.iter_mut() {
        *g *= -lr;
    }
    exp_map(x, rg, out);
    x.copy_from_slice(out);
}

/// Checks how far `x` drifts from the hyperboloid constraint; returns
/// `|⟨x,x⟩_L + 1|`. Useful in tests and debug assertions.
pub fn constraint_residual(x: &[f64]) -> f64 {
    (inner(x, x) + 1.0).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_is_on_hyperboloid() {
        let o = origin(4);
        assert!(constraint_residual(&o) < 1e-12);
        assert_eq!(distance(&o, &o), 0.0);
    }

    #[test]
    fn from_spatial_satisfies_constraint() {
        let x = from_spatial(&[0.5, -1.2, 3.0]);
        assert!(constraint_residual(&x) < 1e-12);
        assert!(x[0] >= 1.0);
    }

    #[test]
    fn distance_symmetry_and_identity() {
        let x = from_spatial(&[0.3, 0.1]);
        let y = from_spatial(&[-0.4, 0.9]);
        assert!(distance(&x, &x) < 1e-7);
        assert!((distance(&x, &y) - distance(&y, &x)).abs() < 1e-12);
        assert!(distance(&x, &y) > 0.0);
    }

    #[test]
    fn triangle_inequality() {
        let x = from_spatial(&[0.3, 0.1]);
        let y = from_spatial(&[-0.4, 0.9]);
        let z = from_spatial(&[1.0, -1.0]);
        assert!(distance(&x, &z) <= distance(&x, &y) + distance(&y, &z) + 1e-9);
    }

    #[test]
    fn exp_log_origin_roundtrip() {
        let z = [0.7, -0.3, 0.45];
        let mut x = vec![0.0; 4];
        exp_map_origin(&z, &mut x);
        assert!(constraint_residual(&x) < 1e-10);
        let mut back = [0.0; 3];
        log_map_origin(&x, &mut back);
        for i in 0..3 {
            assert!((back[i] - z[i]).abs() < 1e-9, "{} vs {}", back[i], z[i]);
        }
    }

    #[test]
    fn log_exp_origin_roundtrip() {
        let x = from_spatial(&[1.5, -0.2]);
        let mut z = [0.0; 2];
        log_map_origin(&x, &mut z);
        let mut back = vec![0.0; 3];
        exp_map_origin(&z, &mut back);
        for i in 0..3 {
            assert!((back[i] - x[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn distance_to_origin_equals_tangent_norm() {
        // d_H(o, exp_o(z)) = ‖z‖.
        let z = [0.6, 0.8];
        let mut x = vec![0.0; 3];
        exp_map_origin(&z, &mut x);
        let o = origin(3);
        assert!((distance(&o, &x) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn exp_map_small_argument_series() {
        let x = from_spatial(&[0.2, 0.3]);
        let eta = [1e-9, 1e-9, 1e-9];
        let mut out = vec![0.0; 3];
        exp_map(&x, &eta, &mut out);
        assert!(constraint_residual(&out) < 1e-9);
        assert!((out[1] - x[1]).abs() < 1e-6);
    }

    #[test]
    fn tangent_projection_is_lorentz_orthogonal() {
        let x = from_spatial(&[0.4, -0.7]);
        let mut h = vec![0.3, 1.0, -0.5];
        project_to_tangent(&x, &mut h);
        assert!(inner(&x, &h).abs() < 1e-10);
    }

    #[test]
    fn rsgd_pulls_point_toward_target() {
        let target = from_spatial(&[0.8, -0.1]);
        let mut x = from_spatial(&[-0.5, 0.6]);
        let before = distance(&x, &target);
        for _ in 0..100 {
            let mut g = [0.0; 3];
            distance_sq_grad(&x, &target, 1.0, &mut g, &mut [0.0; 3]);
            rsgd_step(&mut x, &g, 0.05);
            assert!(constraint_residual(&x) < 1e-9);
        }
        let after = distance(&x, &target);
        assert!(after < before * 0.2, "before={before} after={after}");
    }
}
