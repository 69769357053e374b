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
//! [`inner`] and the optimizer's step [`rsgd_step_buffered`] — with every
//! reduction inside it — have `*_lanes` forms that handle `N` independent
//! rows in lockstep (see [`crate::vecops`]'s "Lockstep forms"); `N = 1` is
//! the scalar function.
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
    inner_lanes([x], [y])[0]
}

/// [`inner`] of `N` pairs in lockstep: each lane starts from `−x₀y₀` and
/// adds `x_i y_i` in `i` order.
#[inline(always)]
pub fn inner_lanes<const N: usize>(x: [&[f64]; N], y: [&[f64]; N]) -> [f64; N] {
    let len = x[0].len();
    for l in 0..N {
        debug_assert_eq!(x[l].len(), len);
        debug_assert_eq!(y[l].len(), len);
    }
    debug_assert!(len >= 2);
    let (x, y) = (x.map(|s| &s[..len]), y.map(|s| &s[..len]));
    let mut s: [f64; N] = std::array::from_fn(|l| -x[l][0] * y[l][0]);
    for i in 1..len {
        for l in 0..N {
            s[l] += x[l][i] * y[l][i];
        }
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
    distance_sq_grad_at(x, y, s, arcosh(s), w, gx, gy);
}

/// [`distance_sq_grad`] with `s = −⟨x,y⟩_L` and `arcosh(s)` supplied by a
/// caller that already has them (a forward pass that computed the
/// distance).
#[inline(always)]
pub fn distance_sq_grad_at(
    x: &[f64],
    y: &[f64],
    s: f64,
    arcosh_s: f64,
    w: f64,
    gx: &mut [f64],
    gy: &mut [f64],
) {
    let c = 2.0 * arcosh_s * crate::arcosh_grad(s) * w;
    gx[0] += c * y[0];
    gy[0] += c * x[0];
    let spatial = gx[1..]
        .iter_mut()
        .zip(&mut gy[1..])
        .zip(&x[1..])
        .zip(&y[1..]);
    for (((gx, gy), &xj), &yj) in spatial {
        *gx -= c * yj;
        *gy -= c * xj;
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
    project_to_hyperboloid_lanes(&mut [x]);
}

/// [`project_to_hyperboloid`] of `N` points, their spatial squared norms
/// summed in lockstep from `0.0`.
#[inline(always)]
fn project_to_hyperboloid_lanes<const N: usize>(x: &mut [&mut [f64]; N]) {
    let len = x[0].len();
    debug_assert!(x.iter().all(|x| x.len() == len));
    let mut s = [0.0; N];
    for i in 1..len {
        for (s, x) in s.iter_mut().zip(x.iter()) {
            *s += x[i] * x[i];
        }
    }
    for (x, s) in x.iter_mut().zip(s) {
        x[0] = (1.0 + s).sqrt();
    }
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
    project_to_tangent_lanes([x], &mut [h]);
}

/// [`project_to_tangent`] of `N` points, the inner products reduced in
/// lockstep.
#[inline(always)]
fn project_to_tangent_lanes<const N: usize>(x: [&[f64]; N], h: &mut [&mut [f64]; N]) {
    let c = inner_lanes(x, std::array::from_fn(|l| &*h[l]));
    for l in 0..N {
        for (hi, &xi) in h[l].iter_mut().zip(x[l]) {
            *hi += c[l] * xi;
        }
    }
}

/// Converts a Euclidean ambient gradient into the Riemannian gradient:
/// apply the inverse metric tensor `g_L⁻¹ = diag(−1,1,…,1)` (flip the sign
/// of the time component) and project onto the tangent space at `x`.
pub fn riemannian_grad(x: &[f64], grad_e: &[f64], out: &mut [f64]) {
    debug_assert_eq!(x.len(), grad_e.len());
    out.copy_from_slice(grad_e);
    riemannian_grad_lanes([x], &mut [out]);
}

/// [`riemannian_grad`] of `N` points in place: `g` holds the Euclidean
/// gradient on entry and the Riemannian one on return.
#[inline(always)]
fn riemannian_grad_lanes<const N: usize>(x: [&[f64]; N], g: &mut [&mut [f64]; N]) {
    for g in g.iter_mut() {
        g[0] = -g[0];
    }
    project_to_tangent_lanes(x, g);
}

/// Exponential map at an arbitrary hyperboloid point `x` (paper Eq. 23):
///
/// `exp_x(η) = cosh(‖η‖_L)·x + sinh(‖η‖_L)·η/‖η‖_L`,
///
/// where `‖η‖_L = √⟨η,η⟩_L` for a tangent vector `η` (non-negative on the
/// tangent space).
pub fn exp_map(x: &[f64], eta: &[f64], out: &mut [f64]) {
    out.copy_from_slice(x);
    exp_map_lanes(&mut [out], [eta]);
}

/// [`exp_map`] of `N` points in place (`x ← exp_x(η)`), `⟨η,η⟩_L` and the
/// re-projections reduced in lockstep. Each coordinate is read before it
/// is written, so the result is the out-of-place map's.
#[inline(always)]
fn exp_map_lanes<const N: usize>(x: &mut [&mut [f64]; N], eta: [&[f64]; N]) {
    let n2 = inner_lanes(eta, eta);
    for l in 0..N {
        let (x, eta) = (&mut *x[l], eta[l]);
        let n = n2[l].max(0.0).sqrt();
        if n < EPS_SMALL {
            for (xi, &ei) in x.iter_mut().zip(eta) {
                *xi += ei;
            }
            continue;
        }
        let ch = n.cosh();
        let sh = n.sinh() / n;
        for (xi, &ei) in x.iter_mut().zip(eta) {
            *xi = ch * *xi + sh * ei;
        }
    }
    project_to_hyperboloid_lanes(x);
}

/// One Riemannian SGD step: `x ← exp_x(−lr · grad_R(x))`, then re-project.
pub fn rsgd_step(x: &mut [f64], grad_e: &[f64], lr: f64) {
    let mut rg = vec![0.0; x.len()];
    rsgd_step_buffered(x, grad_e, lr, &mut rg);
}

/// [`rsgd_step`] with a caller-provided buffer (`rg`, of `x.len()`) — the
/// allocation-free form for optimizer loops that update many rows.
/// Arithmetic is identical to [`rsgd_step`].
pub fn rsgd_step_buffered(x: &mut [f64], grad_e: &[f64], lr: f64, rg: &mut [f64]) {
    rg.copy_from_slice(grad_e);
    rsgd_step_lanes(&mut [x], &mut [rg], lr);
}

/// [`rsgd_step`] of `N` independent rows in lockstep, in place: `g` holds
/// each row's Euclidean gradient on entry (and the step on return). Every
/// reduction of the step — the tangent projection's `⟨x, g⟩_L`, the
/// step's `⟨η, η⟩_L`, the re-projection — runs its `N` chains together,
/// each lane with exactly the scalar step's arithmetic.
#[inline(always)]
pub fn rsgd_step_lanes<const N: usize>(x: &mut [&mut [f64]; N], g: &mut [&mut [f64]; N], lr: f64) {
    riemannian_grad_lanes(std::array::from_fn(|l| &*x[l]), g);
    for g in g.iter_mut() {
        for gi in g.iter_mut() {
            *gi *= -lr;
        }
    }
    exp_map_lanes(x, std::array::from_fn(|l| &*g[l]));
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
