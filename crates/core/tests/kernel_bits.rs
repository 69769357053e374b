//! `optim::rsgd_lorentz`, whose rows step four at a time with every
//! reduction in lockstep, against the row-by-row update it replaced —
//! parameters compared bit for bit (`to_bits`).
//!
//! The `reference` module is the earlier update with the scalar geometry
//! it called inlined, operation for operation: the clip norm as
//! `Iterator::sum` from `−0.0`, Lorentz inner products from `−x₀y₀`, the
//! re-projection's sum from `0.0`.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use taxorec_autodiff::Matrix;
use taxorec_core::optim::{rsgd_lorentz, STEP_CLIP};
use taxorec_geometry::{lorentz, EPS_SMALL};

/// The replaced update, as it was.
mod reference {
    use super::*;

    fn inner(x: &[f64], y: &[f64]) -> f64 {
        let mut s = -x[0] * y[0];
        for i in 1..x.len() {
            s += x[i] * y[i];
        }
        s
    }

    fn project_to_hyperboloid(x: &mut [f64]) {
        let mut s = 0.0;
        for &v in &x[1..] {
            s += v * v;
        }
        x[0] = (1.0 + s).sqrt();
    }

    fn clip_norm(a: &mut [f64], max_norm: f64) {
        let n = a.iter().map(|x| x * x).sum::<f64>().sqrt();
        if n > max_norm {
            let f = max_norm / n;
            for x in a {
                *x *= f;
            }
        }
    }

    fn exp_map(x: &[f64], eta: &[f64], out: &mut [f64]) {
        let n = inner(eta, eta).max(0.0).sqrt();
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

    fn rsgd_step(x: &mut [f64], grad_e: &[f64], lr: f64) {
        let mut rg = grad_e.to_vec();
        rg[0] = -rg[0];
        let c = inner(x, &rg);
        for (hi, &xi) in rg.iter_mut().zip(x.iter()) {
            *hi += c * xi;
        }
        for g in rg.iter_mut() {
            *g *= -lr;
        }
        let mut out = vec![0.0; x.len()];
        exp_map(x, &rg, &mut out);
        x.copy_from_slice(&out);
    }

    pub fn rsgd_lorentz(param: &mut Matrix, grad: &Matrix, lr: f64) {
        for r in 0..param.rows() {
            let grow = grad.row(r);
            if grow.iter().any(|x| !x.is_finite()) || grow.iter().all(|&x| x == 0.0) {
                continue;
            }
            let mut g: Vec<f64> = grow.iter().map(|&x| lr * x).collect();
            clip_norm(&mut g, STEP_CLIP);
            rsgd_step(param.row_mut(r), &g, 1.0);
        }
    }
}

/// The parameters' bits. Non-finite gradient rows are skipped, so no
/// NaN reaches them and every bit is comparable.
fn bits(m: &Matrix) -> Vec<u64> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

/// `rows` hyperboloid rows and a gradient whose rows cycle through every
/// case the update distinguishes: all zero (`+0.0` and `−0.0`), NaN, ±∞,
/// a step clipped to `STEP_CLIP`, an unclipped one, and one so small the
/// exponential map takes its series branch.
fn case(rng: &mut StdRng, rows: usize, d: usize) -> (Matrix, Matrix) {
    let mut param = Matrix::zeros(rows, d + 1);
    let mut grad = Matrix::zeros(rows, d + 1);
    for r in 0..rows {
        let spatial: Vec<f64> = (0..d).map(|_| rng.random::<f64>() - 0.5).collect();
        param
            .row_mut(r)
            .copy_from_slice(&lorentz::from_spatial(&spatial));
        let g = grad.row_mut(r);
        let scale = match r % 7 {
            0 => 0.0,
            1 => 40.0,
            2 => 0.2,
            3 => 1e-12,
            _ => 1.0,
        };
        for v in g.iter_mut() {
            *v = (rng.random::<f64>() - 0.5) * scale;
        }
        match r % 9 {
            4 => g[d / 2] = f64::NAN,
            6 => g[0] = f64::INFINITY,
            7 => g[d] = f64::NEG_INFINITY,
            8 => g.fill(-0.0),
            _ => {}
        }
    }
    (param, grad)
}

#[test]
fn rsgd_lorentz_matches_the_row_by_row_update() {
    let mut rng = StdRng::seed_from_u64(61);
    // Row counts on both sides of the four-row groups, and a zero-row one.
    for rows in (0..=14).chain([97, 1000]) {
        for d in [2, 12, 32] {
            let (param, grad) = case(&mut rng, rows, d);
            for lr in [0.05, 1.0, 3.0] {
                let mut got = param.clone();
                rsgd_lorentz(&mut got, &grad, lr);
                let mut want = param.clone();
                reference::rsgd_lorentz(&mut want, &grad, lr);
                assert_eq!(bits(&got), bits(&want), "{rows} rows, d = {d}, lr = {lr}");
            }
        }
    }
}
