//! The rewritten training kernels against the versions they replaced,
//! value and gradient, bit for bit (`to_bits`, so `−0.0 ≠ +0.0`). Only a
//! NaN matches any NaN: Rust leaves the sign and payload of a NaN result
//! unspecified, and two compilations of one expression may pick different
//! operands' NaNs.
//!
//! The `reference` module below is the earlier code, kept verbatim as the
//! definition of the bits: a `Csr` product that zeroes each output row and
//! adds into it, backward kernels that recompute what their forward had,
//! and the scalar reductions (`Iterator::sum` from `−0.0`, Lorentz inner
//! products from `−x₀y₀`). Inputs reach the edges each kernel guards:
//! widths on both sides of the 8-column blocks, empty rows, the `s → 1`
//! clamp, the small-radius series, degenerate rows, signed zeros and
//! non-finite entries.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use taxorec_autodiff::{Csr, Matrix, Tape, Var};
use taxorec_geometry::{lorentz, vecops};

#[allow(dead_code)]
mod common;
use common::{rand_hyperboloid_matrix, rand_matrix};

/// The replaced kernels, as they were.
mod reference {
    use taxorec_autodiff::{Csr, Matrix};
    use taxorec_geometry::{arcosh, arcosh_grad, EPS_DIV, EPS_SMALL};

    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    pub fn norm(a: &[f64]) -> f64 {
        dot(a, a).sqrt()
    }

    pub fn inner(x: &[f64], y: &[f64]) -> f64 {
        let mut s = -x[0] * y[0];
        for i in 1..x.len() {
            s += x[i] * y[i];
        }
        s
    }

    pub fn distance_sq_grad(x: &[f64], y: &[f64], w: f64, gx: &mut [f64], gy: &mut [f64]) {
        let s = -inner(x, y);
        let c = 2.0 * arcosh(s) * arcosh_grad(s) * w;
        gx[0] += c * y[0];
        gy[0] += c * x[0];
        for j in 1..x.len() {
            gx[j] -= c * y[j];
            gy[j] -= c * x[j];
        }
    }

    pub fn spmm(m: &Csr, x: &Matrix) -> Matrix {
        let mut out = Matrix::full(m.rows(), x.cols(), f64::NAN);
        for r in 0..m.rows() {
            let orow = out.row_mut(r);
            orow.fill(0.0);
            for (c, v) in m.row_iter(r) {
                for (o, xv) in orow.iter_mut().zip(x.row(c)) {
                    *o += v * xv;
                }
            }
        }
        out
    }

    pub fn dist_sq_rows_fwd(x: &Matrix, y: &Matrix, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), 1);
        for (r, &yr) in idx.iter().enumerate() {
            let d = arcosh(-inner(x.row(r), y.row(yr)));
            out.set(r, 0, d * d);
        }
        out
    }

    pub fn dist_sq_rows_bwd(x: &Matrix, y: &Matrix, idx: &[usize], g: &Matrix) -> (Matrix, Matrix) {
        let mut gx = Matrix::zeros(x.rows(), x.cols());
        let mut gy = Matrix::zeros(y.rows(), y.cols());
        for (r, &yr) in idx.iter().enumerate() {
            distance_sq_grad(
                x.row(r),
                y.row(yr),
                g.get(r, 0),
                gx.row_mut(r),
                gy.row_mut(yr),
            );
        }
        (gx, gy)
    }

    fn sinhc(r: f64) -> f64 {
        if r < EPS_SMALL {
            1.0 + r * r / 6.0
        } else {
            r.sinh() / r
        }
    }

    fn coshc_residual(r: f64) -> f64 {
        if r < 1e-4 {
            1.0 / 3.0 + r * r / 30.0
        } else {
            (r.cosh() * r - r.sinh()) / (r * r * r)
        }
    }

    pub fn exp_origin_fwd(z: &Matrix) -> Matrix {
        let (n, d) = z.shape();
        let mut out = Matrix::zeros(n, d + 1);
        for r in 0..n {
            let zr = z.row(r);
            let rad = norm(zr);
            let orow = out.row_mut(r);
            orow[0] = rad.cosh();
            let f = sinhc(rad);
            for j in 0..d {
                orow[j + 1] = f * zr[j];
            }
        }
        out
    }

    pub fn exp_origin_bwd(z: &Matrix, grad_out: &Matrix) -> Matrix {
        let (n, d) = z.shape();
        let mut grad_z = Matrix::zeros(n, d);
        for r in 0..n {
            let zr = z.row(r);
            let g = grad_out.row(r);
            let rad = norm(zr);
            let s = sinhc(rad);
            let c = coshc_residual(rad);
            let g0 = g[0];
            let gs = &g[1..];
            let zg = dot(zr, gs);
            let gz = grad_z.row_mut(r);
            for j in 0..d {
                gz[j] += g0 * s * zr[j] + s * gs[j] + zg * c * zr[j];
            }
        }
        grad_z
    }

    pub fn log_origin_fwd(x: &Matrix) -> Matrix {
        let (n, dc) = x.shape();
        let d = dc - 1;
        let mut out = Matrix::full(n, d, f64::NAN);
        for r in 0..n {
            let xr = x.row(r);
            let spatial = &xr[1..];
            let nn = norm(spatial);
            let orow = out.row_mut(r);
            if nn < EPS_DIV {
                orow.fill(0.0);
                continue;
            }
            let f = arcosh(xr[0]) / nn;
            for j in 0..d {
                orow[j] = f * spatial[j];
            }
        }
        out
    }

    pub fn log_origin_bwd(x: &Matrix, grad_out: &Matrix) -> Matrix {
        let (nrows, dc) = x.shape();
        let d = dc - 1;
        let mut grad_x = Matrix::zeros(nrows, dc);
        for r in 0..nrows {
            let xr = x.row(r);
            let spatial = &xr[1..];
            let g = grad_out.row(r);
            let nn = norm(spatial);
            if nn < EPS_DIV {
                continue;
            }
            let a = arcosh(xr[0]);
            let sg = dot(spatial, g);
            let gx = grad_x.row_mut(r);
            gx[0] += (sg / nn) * arcosh_grad(xr[0]);
            let f1 = a / nn;
            let f2 = a / (nn * nn * nn) * sg;
            for j in 0..d {
                gx[j + 1] += f1 * g[j] - f2 * spatial[j];
            }
        }
        grad_x
    }
}

/// `v`'s bits, with every NaN mapped to one value.
fn key(v: f64) -> u64 {
    if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.data().iter().map(|&v| key(v)).collect()
}

/// `f(x)` recorded on a fresh tape with `loss = Σ w ⊙ f(x)`: its value and
/// the gradient that reaches `x` (which is `w` pushed back through `f`).
fn through_tape(x0: &Matrix, w: &Matrix, f: &dyn Fn(&mut Tape, Var) -> Var) -> (Matrix, Matrix) {
    let mut t = Tape::new();
    let x = t.leaf_copy(x0);
    let y = f(&mut t, x);
    let wv = t.leaf_copy(w);
    let weighted = t.hadamard(y, wv);
    let loss = t.sum_all(weighted);
    let value = t.value(y).clone();
    let mut g = t.backward(loss);
    (value, g.take(x).expect("gradient reaches x"))
}

/// Special values a kernel must pass through exactly as before.
const EDGES: [f64; 6] = [
    0.0,
    -0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1e-300,
];

fn spmm_case(rng: &mut StdRng, rows: usize, cols: usize, width: usize, edges: bool) {
    let mut triplets = Vec::new();
    for r in 0..rows {
        // Every fifth row stays empty; column 0 is read by every row that
        // is not, so one input row feeds many outputs.
        if r % 5 == 2 {
            continue;
        }
        triplets.push((r, 0, 0.5 + rng.random::<f64>()));
        for _ in 0..rng.random_range(0..6usize) {
            let v = if edges && rng.random_range(0..8usize) == 0 {
                EDGES[rng.random_range(0..EDGES.len())]
            } else {
                rng.random::<f64>() - 0.5
            };
            triplets.push((r, rng.random_range(0..cols), v));
        }
    }
    let m = Csr::from_triplets(rows, cols, &triplets);
    let mut x = rand_matrix(rng, cols, width, 2.0);
    if edges {
        for v in x.data_mut().iter_mut() {
            if rng.random_range(0..10usize) == 0 {
                *v = EDGES[rng.random_range(0..EDGES.len())];
            }
        }
    }
    let want = bits(&reference::spmm(&m, &x));
    assert_eq!(
        bits(&m.matmul(&x)),
        want,
        "spmm {rows}×{cols} · {cols}×{width}"
    );
    let mut out = Matrix::full(rows, width, f64::NAN);
    m.matmul_into(&x, &mut out);
    assert_eq!(
        bits(&out),
        want,
        "matmul_into {rows}×{cols} · width {width}"
    );
    // The backward product, through the tape's cached transpose.
    let w = rand_matrix(rng, rows, width, 1.0);
    let m = Arc::new(m);
    let (_, gx) = through_tape(&x, &w, &|t, x| t.spmm(&m, x));
    assert_eq!(
        bits(&gx),
        bits(&reference::spmm(m.transposed(), &w)),
        "spmm backward, width {width}"
    );
}

#[test]
fn spmm_matches_the_row_accumulating_product_at_every_width() {
    let mut rng = StdRng::seed_from_u64(11);
    // Below one block, exact multiples of 8, between them, and past the
    // 40 columns the register kernel takes.
    for width in 1..=41 {
        spmm_case(&mut rng, 23, 17, width, false);
        spmm_case(&mut rng, 23, 17, width, true);
    }
    // Large enough for the pool's row blocks.
    for width in [9, 33, 41] {
        spmm_case(&mut rng, 700, 650, width, false);
        spmm_case(&mut rng, 700, 650, width, true);
    }
}

/// A product whose input already has a gradient when the product's
/// backward runs: the backward adds into it, which must give the bits of
/// adding a separate product matrix.
#[test]
fn spmm_backward_into_an_existing_gradient_adds_like_a_separate_matrix() {
    let mut rng = StdRng::seed_from_u64(13);
    // In-memory, whole blocks, blocks and a partial one, and too wide.
    for width in [3, 8, 9, 33, 41] {
        let m = Arc::new(Csr::from_triplets(
            30,
            20,
            &(0..90)
                .map(|k| (k % 30, (k * 7) % 20, rng.random::<f64>() - 0.5))
                .collect::<Vec<_>>(),
        ));
        let mut x0 = rand_matrix(&mut rng, 20, width, 1.0);
        x0.data_mut()[0] = -0.0;
        let w1 = rand_matrix(&mut rng, 30, width, 1.0);
        let mut w2 = rand_matrix(&mut rng, 20, width, 1.0);
        w2.data_mut()[1] = -0.0;
        let mut t = Tape::new();
        let x = t.leaf_copy(&x0);
        let y = t.spmm(&m, x);
        let (w1v, w2v) = (t.leaf_copy(&w1), t.leaf_copy(&w2));
        let hy = t.hadamard(y, w1v);
        let hx = t.hadamard(x, w2v);
        let (sy, sx) = (t.sum_all(hy), t.sum_all(hx));
        let loss = t.add(sy, sx);
        let mut g = t.backward(loss);
        // `x ⊙ w2` was recorded later, so its backward ran first.
        let mut want = w2.clone();
        want.add_assign(&reference::spmm(m.transposed(), &w1));
        assert_eq!(bits(&g.take(x).unwrap()), bits(&want), "width {width}");
    }
}

#[test]
fn spmm_of_zero_width_and_empty_matrices() {
    let m = Csr::from_triplets(3, 2, &[(1, 0, 2.0)]);
    assert_eq!(m.matmul(&Matrix::zeros(2, 0)).shape(), (3, 0));
    let empty = Csr::from_triplets(4, 3, &[]);
    let y = empty.matmul(&Matrix::full(3, 5, f64::NAN));
    assert!(
        y.data().iter().all(|v| v.to_bits() == 0),
        "empty rows are +0.0"
    );
}

/// `n` hyperboloid rows with every special case of the distance on the
/// diagonal: `x_r = y_{idx[r]}` exactly (`s` rounds to or below 1 and is
/// clamped) for every third row, a near-coincident pair, and far pairs.
fn dist_case(rng: &mut StdRng, n: usize, m: usize, d: usize) {
    let y = rand_hyperboloid_matrix(rng, m, d);
    let mut x = rand_hyperboloid_matrix(rng, n, d);
    // Row m−1 of y is never read; row 0 is read by many.
    let idx: Vec<usize> = (0..n)
        .map(|r| {
            if r % 4 == 1 {
                0
            } else {
                rng.random_range(0..m.max(2) - 1)
            }
        })
        .collect();
    for (r, &yr) in idx.iter().enumerate() {
        match r % 3 {
            0 => x.row_mut(r).copy_from_slice(y.row(yr)),
            1 if r % 2 == 0 => {
                let mut near = y.row(yr).to_vec();
                near[1] += 1e-9;
                lorentz::project_to_hyperboloid(&mut near);
                x.row_mut(r).copy_from_slice(&near);
            }
            _ => {}
        }
    }
    let mut w = rand_matrix(rng, n, 1, 1.0);
    if n > 2 {
        w.set(2, 0, 0.0);
        w.set(n - 1, 0, -0.0);
    }
    // A second distance over the same `x`, as the negative side of a
    // triplet batch: its backward runs first and the first one's terms
    // are added into the gradient of `x` it leaves.
    let idx2: Vec<usize> = idx.iter().rev().copied().collect();
    let w2 = rand_matrix(rng, n, 1, 1.0);
    let (idx, idx2) = (Arc::new(idx), Arc::new(idx2));
    let mut t = Tape::new();
    let xv = t.leaf_copy(&x);
    let yv = t.leaf_copy(&y);
    let dist = t.lorentz_dist_sq_rows(xv, yv, Arc::clone(&idx));
    let dist2 = t.lorentz_dist_sq_rows(xv, yv, Arc::clone(&idx2));
    let wv = t.leaf_copy(&w);
    let w2v = t.leaf_copy(&w2);
    let weighted = t.hadamard(dist, wv);
    let weighted2 = t.hadamard(dist2, w2v);
    let (s1, s2) = (t.sum_all(weighted), t.sum_all(weighted2));
    let loss = t.add(s1, s2);
    let value = bits(t.value(dist));
    let mut g = t.backward(loss);
    let (gx, gy) = (g.take(xv).unwrap(), g.take(yv).unwrap());

    assert_eq!(
        value,
        bits(&reference::dist_sq_rows_fwd(&x, &y, &idx)),
        "value, n = {n}"
    );
    let (mut want_x, mut want_y) = reference::dist_sq_rows_bwd(&x, &y, &idx2, &w2);
    let (first_x, first_y) = reference::dist_sq_rows_bwd(&x, &y, &idx, &w);
    want_x.add_assign(&first_x);
    want_y.add_assign(&first_y);
    assert_eq!(bits(&gx), bits(&want_x), "grad x, n = {n}");
    assert_eq!(bits(&gy), bits(&want_y), "grad y, n = {n}");
}

#[test]
fn lorentz_dist_sq_rows_matches_the_recomputing_kernels() {
    let mut rng = StdRng::seed_from_u64(21);
    // Row counts on both sides of the four-row lockstep groups.
    for n in 1..=13 {
        dist_case(&mut rng, n, 5, 3);
    }
    dist_case(&mut rng, 4099, 300, 32);
    dist_case(&mut rng, 97, 40, 8);
}

fn tangent_rows(rng: &mut StdRng, d: usize) -> Matrix {
    // Radius 0, below the sinh series cut (1e-7), below the residual
    // series cut (1e-4), ordinary, large; a row with signed zeros.
    let mut rows = Vec::new();
    for scale in [0.0, 3e-9, 2e-6, 0.3, 1.7, 6.0] {
        let r = rand_matrix(rng, 1, d, scale);
        rows.extend_from_slice(r.data());
    }
    rows.extend((0..d).map(|j| if j % 2 == 0 { -0.0 } else { 0.0 }));
    Matrix::from_vec(rows.len() / d, d, rows)
}

#[test]
fn lorentz_exp_origin_matches_the_recomputing_kernels() {
    let mut rng = StdRng::seed_from_u64(31);
    for d in [1, 2, 5, 32] {
        let z = tangent_rows(&mut rng, d);
        let mut w = rand_matrix(&mut rng, z.rows(), d + 1, 1.0);
        w.row_mut(0).fill(-0.0);
        let (value, gz) = through_tape(&z, &w, &|t, z| t.lorentz_exp_origin(z));
        assert_eq!(
            bits(&value),
            bits(&reference::exp_origin_fwd(&z)),
            "d = {d}"
        );
        assert_eq!(
            bits(&gz),
            bits(&reference::exp_origin_bwd(&z, &w)),
            "d = {d}"
        );
    }
}

#[test]
fn lorentz_log_origin_matches_the_recomputing_kernels() {
    let mut rng = StdRng::seed_from_u64(41);
    for d in [1, 2, 5, 32] {
        let mut rows = Vec::new();
        // ‖x_s‖ = 0 (the origin), below EPS_DIV, just above it, small,
        // ordinary and far.
        for scale in [0.0, 1e-14, 3e-12, 1e-5, 0.4, 5.0] {
            let spatial: Vec<f64> = (0..d)
                .map(|_| (rng.random::<f64>() - 0.5) * 2.0 * scale)
                .collect();
            rows.extend(lorentz::from_spatial(&spatial));
        }
        let x = Matrix::from_vec(rows.len() / (d + 1), d + 1, rows);
        let mut w = rand_matrix(&mut rng, x.rows(), d, 1.0);
        w.row_mut(4).fill(-0.0);
        let (value, gx) = through_tape(&x, &w, &|t, x| t.lorentz_log_origin(x));
        assert_eq!(
            bits(&value),
            bits(&reference::log_origin_fwd(&x)),
            "d = {d}"
        );
        assert_eq!(
            bits(&gx),
            bits(&reference::log_origin_bwd(&x, &w)),
            "d = {d}"
        );
    }
}

/// The lockstep reductions against the scalar ones they generalize, on
/// vectors whose sum is a signed zero or empty: the start value is
/// visible there (`−0.0 + −0.0 = −0.0`, `0.0 + −0.0 = +0.0`).
#[test]
fn lockstep_reductions_keep_the_scalar_start_values() {
    let cases: [&[f64]; 6] = [
        &[],
        &[-0.0],
        &[-0.0, -0.0, -0.0],
        &[0.0, -0.0],
        &[1.5, -2.0, 0.25],
        &[-0.0, 3.0, -0.0, f64::NAN, 1.0],
    ];
    let neg = [-1.0, 1.0, -1.0, 1.0, -1.0];
    for a in cases {
        let b = &neg[..a.len()];
        let want = key(reference::dot(a, b));
        assert_eq!(key(vecops::dot(a, b)), want, "dot {a:?}");
        let lanes = vecops::dot_lanes([a, a, b, a], [b, b, a, b]);
        assert!(lanes.iter().all(|&v| key(v) == want), "dot lanes {a:?}");
        assert_eq!(
            key(vecops::sqnorm(a)),
            key(reference::dot(a, a)),
            "sqnorm {a:?}"
        );
    }
    // The tape's row reductions read them: a row of `−0.0` products dots
    // to −0.0, as `Iterator::sum` has it.
    let mut t = Tape::new();
    let a = t.leaf(Matrix::from_vec(2, 3, vec![0.0, -0.0, 0.0, 1.0, 2.0, 2.0]));
    let b = t.leaf(Matrix::from_vec(2, 3, vec![-1.0, 1.0, -1.0, 1.0, 2.0, 2.0]));
    let dots = t.row_dot(a, b);
    assert_eq!(
        bits(t.value(dots)),
        vec![(-0.0f64).to_bits(), 9.0f64.to_bits()]
    );

    let mut rng = StdRng::seed_from_u64(51);
    let x = rand_hyperboloid_matrix(&mut rng, 4, 6);
    let y = rand_hyperboloid_matrix(&mut rng, 4, 6);
    let rows = |m: &Matrix| -> [Vec<f64>; 4] { std::array::from_fn(|r| m.row(r).to_vec()) };
    let (xs, ys) = (rows(&x), rows(&y));
    let got = lorentz::inner_lanes::<4>(
        std::array::from_fn(|l| xs[l].as_slice()),
        std::array::from_fn(|l| ys[l].as_slice()),
    );
    for l in 0..4 {
        assert_eq!(got[l].to_bits(), reference::inner(&xs[l], &ys[l]).to_bits());
    }
}
