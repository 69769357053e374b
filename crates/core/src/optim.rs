//! Riemannian SGD over whole parameter matrices (paper §IV-E).
//!
//! Lorentz-model parameters update via the tangent projection +
//! exponential map of Eq. 23; Poincaré-ball parameters via the conformal
//! rescaling + Möbius exponential map of Eq. 21. Per-row gradient-norm
//! clipping keeps early training stable (hinge losses on random
//! hyperbolic embeddings can produce large spikes).

use taxorec_autodiff::Matrix;
use taxorec_geometry::{lorentz, poincare, vecops};

/// Maximum Euclidean norm allowed for one row's gradient before clipping.
pub const GRAD_CLIP: f64 = 5.0;

/// Maximum per-row *step length* (`‖lr·grad_R‖`) of one Riemannian update.
/// Clipping the step rather than the raw gradient keeps large learning
/// rates stable: steps scale linearly with `lr` until the cap.
pub const STEP_CLIP: f64 = 0.25;

/// Maximum geodesic distance from the hyperboloid origin of a user or item
/// embedding after each trainer update ([`clip_lorentz_radius`]). Bounding
/// the embedding region keeps the squared-distance margin `m` on a fixed
/// scale.
pub const MAX_RADIUS: f64 = 2.5;

/// What to do with one gradient row.
enum RowGrad {
    /// Every component is exactly zero: nothing to apply.
    AllZero,
    /// At least one component is NaN/±Inf: skip (and count) the row.
    NonFinite,
    /// A finite, non-trivial gradient: apply the step.
    Active,
}

/// Classifies one gradient row in a single pass.
///
/// The non-finite case must be caught *before* any arithmetic: the old
/// `all(|x| x == 0.0)` skip let NaN rows through (`NaN != 0.0`), and
/// `vecops::clip_norm` passes a NaN norm unchanged (`NaN > max` is
/// false), so a single poisoned gradient row would silently corrupt the
/// embedding row through the manifold update.
fn classify_row(grow: &[f64]) -> RowGrad {
    let mut all_zero = true;
    for &x in grow {
        if !x.is_finite() {
            return RowGrad::NonFinite;
        }
        if x != 0.0 {
            all_zero = false;
        }
    }
    if all_zero {
        RowGrad::AllZero
    } else {
        RowGrad::Active
    }
}

/// Counts a skipped non-finite gradient row under
/// `optim.nonfinite_grad_rows`.
fn count_nonfinite_row() {
    taxorec_telemetry::counter("optim.nonfinite_grad_rows").inc(1);
}

/// The same rule for `incremental`'s single-row steps: true — and
/// counted — when `grow` must be skipped as non-finite. An all-zero row
/// is *not* skipped here: the fold has always stepped it, and its
/// replay guarantee is bit-level.
pub(crate) fn skip_nonfinite(grow: &[f64]) -> bool {
    let skip = matches!(classify_row(grow), RowGrad::NonFinite);
    if skip {
        count_nonfinite_row();
    }
    skip
}

/// Applies one RSGD step to every row of a Lorentz-model parameter matrix
/// (`n × (d+1)`, rows on the hyperboloid). The effective per-row step
/// `lr·grad` is capped at [`STEP_CLIP`]; rows with non-finite gradients
/// are skipped and counted (`optim.nonfinite_grad_rows`).
pub fn rsgd_lorentz(param: &mut Matrix, grad: &Matrix, lr: f64) {
    assert_eq!(param.shape(), grad.shape(), "param/grad shape mismatch");
    // Rows are independent, so the active ones step in groups of LANES
    // with every reduction of the step in lockstep; a short last group
    // steps row by row.
    let mut scratch = vec![0.0; LANES * param.cols()];
    let mut group = [0usize; LANES];
    let mut filled = 0;
    for r in 0..param.rows() {
        match classify_row(grad.row(r)) {
            RowGrad::AllZero => continue,
            RowGrad::NonFinite => {
                count_nonfinite_row();
                continue;
            }
            RowGrad::Active => {}
        }
        group[filled] = r;
        filled += 1;
        if filled == LANES {
            step_lorentz_rows(param, grad, group, lr, &mut scratch);
            filled = 0;
        }
    }
    for &r in &group[..filled] {
        step_lorentz_rows(param, grad, [r], lr, &mut scratch);
    }
}

/// Rows one lockstep step of [`rsgd_lorentz`] updates.
const LANES: usize = 4;

/// One [`rsgd_lorentz`] step of the rows `rows` (strictly increasing):
/// `g = lr·grad` capped at [`STEP_CLIP`], then
/// [`lorentz::rsgd_step_lanes`] at rate 1. `scratch` holds at least
/// `N·cols` entries, all overwritten.
fn step_lorentz_rows<const N: usize>(
    param: &mut Matrix,
    grad: &Matrix,
    rows: [usize; N],
    lr: f64,
    scratch: &mut [f64],
) {
    let cols = param.cols();
    let mut lanes = scratch.chunks_exact_mut(cols);
    let mut g: [&mut [f64]; N] =
        std::array::from_fn(|_| lanes.next().expect("scratch holds N rows"));
    for (g, &r) in g.iter_mut().zip(&rows) {
        for (gi, &x) in g.iter_mut().zip(grad.row(r)) {
            *gi = lr * x;
        }
    }
    vecops::clip_norm_lanes(&mut g, STEP_CLIP);
    // The rows themselves, split off one after another.
    let mut rest = param.data_mut();
    let mut next = 0;
    let mut x: [&mut [f64]; N] = std::array::from_fn(|l| {
        let skipped = std::mem::take(&mut rest)
            .split_at_mut((rows[l] - next) * cols)
            .1;
        let (row, tail) = skipped.split_at_mut(cols);
        next = rows[l] + 1;
        rest = tail;
        row
    });
    lorentz::rsgd_step_lanes(&mut x, &mut g, 1.0);
}

/// Applies one RSGD step to every row of a Poincaré-ball parameter matrix
/// (`n × d`, rows strictly inside the unit ball). The effective per-row
/// step is capped at [`STEP_CLIP`]; rows with non-finite gradients are
/// skipped and counted (`optim.nonfinite_grad_rows`).
pub fn rsgd_poincare(param: &mut Matrix, grad: &Matrix, lr: f64) {
    assert_eq!(param.shape(), grad.shape(), "param/grad shape mismatch");
    let mut g = vec![0.0; param.cols()];
    let mut rg = vec![0.0; param.cols()];
    let mut stepped = vec![0.0; param.cols()];
    for r in 0..param.rows() {
        let grow = grad.row(r);
        match classify_row(grow) {
            RowGrad::AllZero => continue,
            RowGrad::NonFinite => {
                count_nonfinite_row();
                continue;
            }
            RowGrad::Active => {}
        }
        for (gi, &x) in g.iter_mut().zip(grow) {
            *gi = lr * x;
        }
        vecops::clip_norm(&mut g, STEP_CLIP);
        poincare::rsgd_step_buffered(param.row_mut(r), &g, 1.0, &mut rg, &mut stepped);
    }
}

/// Clips every hyperboloid row to geodesic distance ≤ `radius` from the
/// origin (log-map, rescale, exp-map). A bounded embedding region keeps
/// squared-distance margins meaningful — the hyperbolic analogue of CML's
/// unit-ball constraint.
pub fn clip_lorentz_radius(param: &mut Matrix, radius: f64) {
    let d = param.cols() - 1;
    let mut tangent = vec![0.0; d];
    for r in 0..param.rows() {
        let row = param.row_mut(r);
        let dist = taxorec_geometry::arcosh(row[0]);
        if dist > radius {
            lorentz::log_map_origin(row, &mut tangent);
            let scale = radius / dist;
            for t in tangent.iter_mut() {
                *t *= scale;
            }
            lorentz::exp_map_origin(&tangent, row);
        }
    }
}

/// Plain Euclidean SGD with row clipping — used by the Euclidean baselines
/// sharing this optimizer module.
pub fn sgd(param: &mut Matrix, grad: &Matrix, lr: f64) {
    assert_eq!(param.shape(), grad.shape(), "param/grad shape mismatch");
    let mut g = vec![0.0; param.cols()];
    for r in 0..param.rows() {
        let grow = grad.row(r);
        match classify_row(grow) {
            RowGrad::AllZero => continue,
            RowGrad::NonFinite => {
                count_nonfinite_row();
                continue;
            }
            RowGrad::Active => {}
        }
        g.copy_from_slice(grow);
        vecops::clip_norm(&mut g, GRAD_CLIP);
        let prow = param.row_mut(r);
        for (p, gi) in prow.iter_mut().zip(&g) {
            *p -= lr * gi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lorentz_rows_stay_on_hyperboloid() {
        let mut p = Matrix::zeros(3, 4);
        for r in 0..3 {
            let x = lorentz::from_spatial(&[0.1 * r as f64, -0.2, 0.3]);
            p.row_mut(r).copy_from_slice(&x);
        }
        let g = Matrix::full(3, 4, 0.7);
        rsgd_lorentz(&mut p, &g, 0.1);
        for r in 0..3 {
            assert!(lorentz::constraint_residual(p.row(r)) < 1e-9);
        }
    }

    #[test]
    fn poincare_rows_stay_in_ball() {
        let mut p = Matrix::from_vec(2, 2, vec![0.9, 0.0, -0.5, 0.5]);
        let g = Matrix::full(2, 2, -3.0);
        for _ in 0..20 {
            rsgd_poincare(&mut p, &g, 0.5);
        }
        for r in 0..2 {
            assert!(vecops::norm(p.row(r)) < 1.0);
        }
    }

    #[test]
    fn zero_gradient_rows_are_untouched() {
        let orig = lorentz::from_spatial(&[0.3, 0.4]);
        let mut p = Matrix::from_vec(1, 3, orig.clone());
        let g = Matrix::zeros(1, 3);
        rsgd_lorentz(&mut p, &g, 1.0);
        assert_eq!(p.row(0), &orig[..]);
    }

    #[test]
    fn huge_gradients_are_clipped() {
        let mut p = Matrix::from_vec(1, 3, lorentz::from_spatial(&[0.0, 0.0]));
        let g = Matrix::from_vec(1, 3, vec![0.0, 1e9, 0.0]);
        rsgd_lorentz(&mut p, &g, 100.0);
        // Step length bounded by STEP_CLIP regardless of lr.
        let o = lorentz::origin(3);
        assert!(lorentz::distance(&o, p.row(0)) <= STEP_CLIP + 1e-9);
    }

    #[test]
    fn small_steps_scale_linearly_with_lr() {
        let g = Matrix::from_vec(1, 3, vec![0.0, 0.01, 0.0]);
        let mut p1 = Matrix::from_vec(1, 3, lorentz::from_spatial(&[0.0, 0.0]));
        rsgd_lorentz(&mut p1, &g, 1.0);
        let mut p2 = Matrix::from_vec(1, 3, lorentz::from_spatial(&[0.0, 0.0]));
        rsgd_lorentz(&mut p2, &g, 2.0);
        let o = lorentz::origin(3);
        let d1 = lorentz::distance(&o, p1.row(0));
        let d2 = lorentz::distance(&o, p2.row(0));
        assert!((d2 / d1 - 2.0).abs() < 1e-3, "d1={d1} d2={d2}");
    }

    #[test]
    fn nonfinite_gradient_rows_are_skipped_and_counted() {
        let counter = taxorec_telemetry::counter("optim.nonfinite_grad_rows");
        let before = counter.get();
        let orig_a = lorentz::from_spatial(&[0.3, 0.4]);
        let orig_b = lorentz::from_spatial(&[-0.1, 0.2]);
        let mut p = Matrix::zeros(2, 3);
        p.row_mut(0).copy_from_slice(&orig_a);
        p.row_mut(1).copy_from_slice(&orig_b);
        // Row 0 poisoned with NaN, row 1 with +Inf. The old zero-row skip
        // let both through (`NaN != 0.0`), and clip_norm passes a NaN norm
        // unchanged, so the rows came back poisoned.
        let g = Matrix::from_vec(2, 3, vec![f64::NAN, 1.0, 0.5, 0.0, f64::INFINITY, 0.0]);
        rsgd_lorentz(&mut p, &g, 0.5);
        assert_eq!(p.row(0), &orig_a[..], "NaN row must be left untouched");
        assert_eq!(p.row(1), &orig_b[..], "Inf row must be left untouched");
        assert!(p.data().iter().all(|x| x.is_finite()));
        assert_eq!(counter.get() - before, 2);

        // Poincaré and plain SGD share the same guard.
        let mut q = Matrix::from_vec(1, 2, vec![0.1, -0.2]);
        let gq = Matrix::from_vec(1, 2, vec![f64::NEG_INFINITY, 0.0]);
        rsgd_poincare(&mut q, &gq, 1.0);
        assert_eq!(q.data(), &[0.1, -0.2]);
        let mut e = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        sgd(
            &mut e,
            &Matrix::from_vec(1, 2, vec![f64::NAN, f64::NAN]),
            0.1,
        );
        assert_eq!(e.data(), &[1.0, 2.0]);
        assert_eq!(counter.get() - before, 4);
    }

    #[test]
    fn healthy_rows_still_step_next_to_poisoned_ones() {
        let start = lorentz::from_spatial(&[0.3, 0.4]);
        let mut p = Matrix::zeros(2, 3);
        p.row_mut(0).copy_from_slice(&start);
        p.row_mut(1).copy_from_slice(&start);
        let g = Matrix::from_vec(2, 3, vec![f64::NAN, 0.0, 0.0, 0.0, 0.5, 0.0]);
        rsgd_lorentz(&mut p, &g, 0.5);
        assert_eq!(p.row(0), &start[..], "poisoned row skipped");
        assert!(p.row(1) != &start[..], "healthy row received its update");
        assert!(lorentz::constraint_residual(p.row(1)) < 1e-9);
    }

    #[test]
    fn sgd_moves_against_gradient() {
        let mut p = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let g = Matrix::from_vec(1, 2, vec![1.0, -1.0]);
        sgd(&mut p, &g, 0.5);
        assert_eq!(p.data(), &[0.5, 2.5]);
    }
}
