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
//!
//! The fused training-step ops, `Tape::global_aggregation` and
//! `Tape::triplet_hinge`, are held to the primitive chains they replaced
//! (`chain_aggregation`, `chain_hinge` below), recorded on the tape as the
//! trainer recorded them.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use taxorec_autodiff::{Channel, Csr, Hinge, Matrix, TagChannel, Tape, Triplets, Var};
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

/// The Eqs. 12–15 chain [`Tape::global_aggregation`] replaced, as the
/// trainer recorded it: both log maps, `concat_rows`, one `spmm` per
/// layer with the layer outputs summed by `add`, `exp_o`, and the two
/// halves sliced back out.
fn chain_aggregation(t: &mut Tape, u: Var, v: Var, p: &Arc<Csr>, layers: usize) -> (Var, Var) {
    let (nu, nv) = (t.value(u).rows(), t.value(v).rows());
    let zu = t.lorentz_log_origin(u);
    let zv = t.lorentz_log_origin(v);
    let mut z = t.concat_rows(zu, zv);
    let mut acc: Option<Var> = None;
    for _ in 0..layers.max(1) {
        z = t.spmm(p, z);
        acc = Some(match acc {
            None => z,
            Some(a) => t.add(a, z),
        });
    }
    let out = t.lorentz_exp_origin(acc.unwrap());
    (t.slice_rows(out, 0, nu), t.slice_rows(out, nu, nv))
}

/// The Eqs. 17–19 chain [`Tape::triplet_hinge`] replaced, as the trainer
/// recorded it: per channel a user gather and the two distances, the tag
/// channel weighted by `gain·α_u` and added, then `sub`, the margin, the
/// hinge and the mean.
fn chain_hinge(
    t: &mut Tape,
    b: &Triplets,
    ir: (Var, Var),
    tag: Option<(Var, Var, f64, &[f64])>,
    margin: f64,
    hinge: Hinge,
) -> Var {
    let users = Arc::new(b.users.clone());
    let (pos, neg) = (Arc::new(b.pos.clone()), Arc::new(b.neg.clone()));
    let gu = t.gather_rows(ir.0, Arc::clone(&users));
    let mut g_pos = t.lorentz_dist_sq_rows(gu, ir.1, Arc::clone(&pos));
    let mut g_neg = t.lorentz_dist_sq_rows(gu, ir.1, Arc::clone(&neg));
    if let Some((u, v, gain, alpha)) = tag {
        let gu_t = t.gather_rows(u, Arc::clone(&users));
        let d_pos = t.lorentz_dist_sq_rows(gu_t, v, Arc::clone(&pos));
        let d_neg = t.lorentz_dist_sq_rows(gu_t, v, Arc::clone(&neg));
        let a = t.leaf_with(b.len(), 1, |col| {
            for (a, &u) in col.iter_mut().zip(&b.users) {
                *a = gain * alpha[u];
            }
        });
        let a_pos = t.mul_col_broadcast(d_pos, a);
        let a_neg = t.mul_col_broadcast(d_neg, a);
        g_pos = t.add(g_pos, a_pos);
        g_neg = t.add(g_neg, a_neg);
    }
    let diff = t.sub(g_pos, g_neg);
    let shifted = t.add_scalar(diff, margin);
    let h = match hinge {
        Hinge::Relu => t.relu(shifted),
        Hinge::Softplus => t.softplus(shifted),
    };
    t.mean_all(h)
}

/// One generated training step: hyperboloid rows for both channels, a
/// propagation matrix over the stacked users and items, and per-user
/// weights.
struct Step {
    params: [Matrix; 4],
    propagate: Arc<Csr>,
    alpha: Vec<f64>,
}

fn step_case(rng: &mut StdRng, nu: usize, nv: usize, d_ir: usize, d_tag: usize) -> Step {
    let n = nu + nv;
    // `I + D⁻¹A`-like: the diagonal, a few neighbours, duplicates summed;
    // every seventh row has no neighbour.
    let mut triplets: Vec<(usize, usize, f64)> = (0..n).map(|r| (r, r, 1.0)).collect();
    for r in (0..n).filter(|r| r % 7 != 3) {
        for _ in 0..rng.random_range(1..6usize) {
            triplets.push((r, rng.random_range(0..n), rng.random::<f64>() * 0.6));
        }
    }
    Step {
        params: [
            rand_hyperboloid_matrix(rng, nu, d_ir),
            rand_hyperboloid_matrix(rng, nv, d_ir),
            rand_hyperboloid_matrix(rng, nu, d_tag),
            rand_hyperboloid_matrix(rng, nv, d_tag),
        ],
        propagate: Arc::new(Csr::from_triplets(n, n, &triplets)),
        alpha: (0..nu).map(|_| rng.random::<f64>()).collect(),
    }
}

/// `len` triplets over `nu` users and `nv` items, with repeats: user 0 and
/// item 0 in every third triplet, item 1 both a positive and a negative,
/// and a triplet whose positive is its negative.
fn triplet_batch(rng: &mut StdRng, len: usize, nu: usize, nv: usize) -> Triplets {
    let mut b = Triplets::default();
    for r in 0..len {
        let u = if r % 3 == 0 {
            0
        } else {
            rng.random_range(0..nu)
        };
        let (p, q) = match r % 5 {
            0 => (0, 1),
            1 => (1, rng.random_range(0..nv)),
            2 => (2, 2),
            _ => (rng.random_range(0..nv), rng.random_range(0..nv)),
        };
        b.users.push(u);
        b.pos.push(p);
        b.neg.push(q);
    }
    b
}

/// What a step left behind, as bits: the loss, each channel's output
/// rows (users then items) and the gradient of every parameter.
type StepBits = (Vec<u64>, Vec<u64>, Vec<Vec<u64>>);

/// Runs the batches of one configuration through the chain (`fused`
/// false) or the fused ops on one reused tape, reset between batches.
fn run_step(
    s: &Step,
    batches: &[Triplets],
    layers: Option<usize>,
    two: bool,
    hinge: Hinge,
    fused: bool,
) -> Vec<StepBits> {
    let (margin, gain) = (if hinge == Hinge::Relu { 0.0 } else { 1.5 }, 0.7);
    let mut t = Tape::new();
    let mut out = Vec::new();
    for b in batches {
        t.reset();
        let leaves: Vec<Var> = s.params.iter().map(|m| t.leaf_copy(m)).collect();
        let channels = if two { 2 } else { 1 };
        let (loss, rows) = if fused {
            let mut ch = Vec::new();
            for c in 0..channels {
                let (u, v) = (leaves[2 * c], leaves[2 * c + 1]);
                ch.push(match layers {
                    Some(l) => {
                        let nu = t.value(u).rows();
                        Channel::stacked(t.global_aggregation(u, v, &s.propagate, l), nu)
                    }
                    None => Channel::split(u, v),
                });
            }
            let tag = ch.get(1).map(|&channel| TagChannel {
                channel,
                gain,
                alpha: &s.alpha,
            });
            let batch = Arc::new(b.clone());
            let loss = t.triplet_hinge(&batch, ch[0], tag, margin, hinge);
            let rows: Vec<u64> = ch
                .iter()
                .flat_map(|c| {
                    let (u, v) = (t.value(c.users), t.value(c.items));
                    let items = &v.data()[c.item_offset * v.cols()..];
                    let users = &u.data()[..u.cols() * s.params[0].rows()];
                    users
                        .iter()
                        .chain(items)
                        .map(|&x| key(x))
                        .collect::<Vec<_>>()
                })
                .collect();
            (loss, rows)
        } else {
            let mut ch = Vec::new();
            for c in 0..channels {
                let (u, v) = (leaves[2 * c], leaves[2 * c + 1]);
                ch.push(match layers {
                    Some(l) => chain_aggregation(&mut t, u, v, &s.propagate, l),
                    None => (u, v),
                });
            }
            let tag = ch.get(1).map(|&(u, v)| (u, v, gain, s.alpha.as_slice()));
            let loss = chain_hinge(&mut t, b, ch[0], tag, margin, hinge);
            let rows: Vec<u64> = ch
                .iter()
                .flat_map(|&(u, v)| bits(t.value(u)).into_iter().chain(bits(t.value(v))))
                .collect();
            (loss, rows)
        };
        let value = bits(t.value(loss));
        let mut g = t.backward(loss);
        let grads = leaves[..2 * channels]
            .iter()
            .map(|&leaf| bits(g.wrt(leaf).expect("gradient reaches every parameter")))
            .collect();
        g.take(leaves[0]);
        t.recycle(g);
        out.push((value, rows, grads));
    }
    out
}

#[test]
fn fused_training_step_matches_the_chain_it_replaced() {
    let mut rng = StdRng::seed_from_u64(71);
    for (nu, nv, d_ir, d_tag) in [(5, 7, 2, 3), (11, 9, 8, 4), (140, 130, 32, 8)] {
        let s = step_case(&mut rng, nu, nv, d_ir, d_tag);
        // A full batch, then a shorter last one on the reset tape.
        let batches = [
            triplet_batch(&mut rng, 4 * nu + 3, nu, nv),
            triplet_batch(&mut rng, 2 * nu + 1, nu, nv),
        ];
        for layers in [None, Some(1), Some(2), Some(3)] {
            for two in [false, true] {
                for hinge in [Hinge::Relu, Hinge::Softplus] {
                    let what = format!("{nu}×{nv}, d {d_ir}/{d_tag}, layers {layers:?}, two channels {two}, {hinge:?}");
                    let chain = run_step(&s, &batches, layers, two, hinge, false);
                    let fused = run_step(&s, &batches, layers, two, hinge, true);
                    for (i, (c, f)) in chain.iter().zip(&fused).enumerate() {
                        assert_eq!(c.0, f.0, "loss, batch {i}, {what}");
                        assert_eq!(c.1, f.1, "aggregated rows, batch {i}, {what}");
                        for (k, (gc, gf)) in c.2.iter().zip(&f.2).enumerate() {
                            assert_eq!(gc, gf, "gradient of parameter {k}, batch {i}, {what}");
                        }
                    }
                }
            }
        }
    }
}

/// The hinge alone against its chain, on a stacked matrix the chain
/// slices (the slices' backward adds `+0.0` into every gradient entry),
/// with `−0.0` and exactly coincident user and item rows in the input.
#[test]
fn fused_hinge_on_a_stacked_matrix_matches_the_sliced_chain() {
    let mut rng = StdRng::seed_from_u64(73);
    let (nu, nv, d) = (6, 8, 4);
    let mut stacked = rand_hyperboloid_matrix(&mut rng, nu + nv, d);
    // User 0 sits exactly on item 0, user 1 on item 2.
    for (u, v) in [(0, 0), (1, 2)] {
        let row = stacked.row(nu + v).to_vec();
        stacked.row_mut(u).copy_from_slice(&row);
    }
    stacked.row_mut(3)[2] = -0.0;
    let b = triplet_batch(&mut rng, 29, nu, nv);
    for hinge in [Hinge::Relu, Hinge::Softplus] {
        let run = |fused: bool| {
            let mut t = Tape::new();
            let x = t.leaf_copy(&stacked);
            let loss = if fused {
                t.triplet_hinge(
                    &Arc::new(b.clone()),
                    Channel::stacked(x, nu),
                    None,
                    0.3,
                    hinge,
                )
            } else {
                let u = t.slice_rows(x, 0, nu);
                let v = t.slice_rows(x, nu, nv);
                chain_hinge(&mut t, &b, (u, v), None, 0.3, hinge)
            };
            let value = bits(t.value(loss));
            let mut g = t.backward(loss);
            (value, bits(&g.take(x).unwrap()))
        };
        assert_eq!(run(false), run(true), "{hinge:?}");
    }
}
