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
//! `Tape::triplet_hinge`, are held to the primitive chains of tape ops
//! they replaced. Those chains are stated here as straight-line scalar
//! code over the `reference` kernels (`scalar_aggregation`,
//! `scalar_hinge`), in the chains' operation order and with no tape, so
//! the reference shares nothing with what it checks. The exp and log
//! maps at the origin are no tape ops of their own: their kernels are
//! called directly, on every clone the host runs.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use taxorec_autodiff::hyper;
use taxorec_autodiff::{Channel, Csr, Hinge, Matrix, TagChannel, Tape, Triplets, Var};
use taxorec_geometry::isa::Isa;
use taxorec_geometry::{arcosh, lorentz, vecops};

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

/// `n` triplets, user `r` being row `r` of `n` user rows, with every
/// special case of the distance on the positive side: user `r` sits
/// exactly on its positive item (`s` rounds to or below 1 and is clamped)
/// for every third triplet, next to it for some others, and far from it
/// for the rest. Item 0 is read by many triplets, item `m − 1` by none;
/// the negative items are the positive ones in reverse.
fn dist_case(rng: &mut StdRng, n: usize, m: usize, d: usize) {
    let y = rand_hyperboloid_matrix(rng, m, d);
    let mut x = rand_hyperboloid_matrix(rng, n, d);
    let pos: Vec<usize> = (0..n)
        .map(|r| {
            if r % 4 == 1 {
                0
            } else {
                rng.random_range(0..m.max(2) - 1)
            }
        })
        .collect();
    for (r, &yr) in pos.iter().enumerate() {
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
    let b = Triplets {
        users: (0..n).collect(),
        neg: pos.iter().rev().copied().collect(),
        pos,
    };
    // The relu hinge leaves some triplets with a zero weight.
    for (hinge, margin) in [(Hinge::Relu, 0.0), (Hinge::Softplus, 1.5)] {
        let mut t = Tape::new();
        let (xv, yv) = (t.leaf_copy(&x), t.leaf_copy(&y));
        let batch = Arc::new(b.clone());
        let loss = t.triplet_hinge(&batch, Channel::split(xv, yv), None, margin, hinge);
        let value = bits(t.value(loss));
        let mut g = t.backward(loss);
        let (gx, gy) = (g.take(xv).unwrap(), g.take(yv).unwrap());

        let (want, mut grads) = scalar_hinge(&b, (&x, &y), None, margin, hinge);
        let (want_x, want_y) = grads.remove(0);
        let what = format!("n = {n}, {hinge:?}");
        assert_eq!(value, vec![key(want)], "value, {what}");
        assert_eq!(bits(&gx), bits(&want_x), "grad users, {what}");
        assert_eq!(bits(&gy), bits(&want_y), "grad items, {what}");
    }
}

#[test]
fn triplet_distances_match_the_recomputing_kernels() {
    let mut rng = StdRng::seed_from_u64(21);
    // Triplet counts on both sides of the four-triplet lockstep groups.
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
        let n = z.rows();
        let mut w = rand_matrix(&mut rng, n, d + 1, 1.0);
        w.row_mut(0).fill(-0.0);
        let (mut value, mut aux) = (Matrix::full(n, d + 1, f64::NAN), vec![f64::NAN; 2 * n]);
        hyper::lorentz_exp_origin_fwd(&z, &mut value, &mut aux);
        assert_eq!(
            bits(&value),
            bits(&reference::exp_origin_fwd(&z)),
            "d = {d}"
        );
        for isa in Isa::supported() {
            let mut gz = Matrix::full(n, d, f64::NAN);
            hyper::lorentz_exp_origin_bwd(isa, &z, &aux, &w, &mut gz);
            assert_eq!(
                bits(&gz),
                bits(&reference::exp_origin_bwd(&z, &w)),
                "d = {d}, {}",
                isa.name()
            );
        }
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
        let n = x.rows();
        let mut w = rand_matrix(&mut rng, n, d, 1.0);
        w.row_mut(4).fill(-0.0);
        let (mut value, mut aux) = (Matrix::full(n, d, f64::NAN), vec![f64::NAN; 2 * n]);
        hyper::lorentz_log_origin_fwd(&x, value.data_mut(), &mut aux);
        assert_eq!(
            bits(&value),
            bits(&reference::log_origin_fwd(&x)),
            "d = {d}"
        );
        for isa in Isa::supported() {
            let mut gx = Matrix::full(n, d + 1, f64::NAN);
            hyper::lorentz_log_origin_bwd(isa, &x, &aux, w.data(), &mut gx);
            assert_eq!(
                bits(&gx),
                bits(&reference::log_origin_bwd(&x, &w)),
                "d = {d}, {}",
                isa.name()
            );
        }
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

/// `a` on top of `b`.
fn stack(a: &Matrix, b: &Matrix) -> Matrix {
    let mut data = a.data().to_vec();
    data.extend_from_slice(b.data());
    Matrix::from_vec(a.rows() + b.rows(), a.cols(), data)
}

/// Rows `0..at` of `m`, and the rest.
fn split_rows(m: &Matrix, at: usize) -> (Matrix, Matrix) {
    let (top, bottom) = m.data().split_at(at * m.cols());
    (
        Matrix::from_vec(at, m.cols(), top.to_vec()),
        Matrix::from_vec(m.rows() - at, m.cols(), bottom.to_vec()),
    )
}

/// `a[i] + b[i]` for every entry.
fn plus(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.shape(), b.shape());
    let data = a.data().iter().zip(b.data()).map(|(x, y)| x + y).collect();
    Matrix::from_vec(a.rows(), a.cols(), data)
}

/// Paper Eqs. 12–15 for one channel, in the chain's operation order:
/// both log maps into one stacked matrix, `layers` propagations by `p`
/// with the layer outputs summed left to right (`((z₁ + z₂) + z₃) + …`),
/// then `exp_o`. Returns the stacked output and the layer sum `exp_o`
/// was applied to.
fn scalar_aggregation(u: &Matrix, v: &Matrix, p: &Csr, layers: usize) -> (Matrix, Matrix) {
    let z = stack(&reference::log_origin_fwd(u), &reference::log_origin_fwd(v));
    let mut layer = reference::spmm(p, &z);
    let mut sum = layer.clone();
    for _ in 1..layers.max(1) {
        layer = reference::spmm(p, &layer);
        sum = plus(&sum, &layer);
    }
    (reference::exp_origin_fwd(&sum), sum)
}

/// The gradients of `u` and `v` given `g`, that of
/// [`scalar_aggregation`]'s stacked output: `exp_o`'s backward gives
/// `g_s`; the layers give `g_L = g_s` and `g_l = g_s + Pᵀg_{l+1}` (the
/// chain's two-operand sums: addition commutes); the stacked log maps
/// get `Pᵀg_1`.
fn scalar_aggregation_bwd(
    u: &Matrix,
    v: &Matrix,
    p: &Csr,
    layers: usize,
    sum: &Matrix,
    g: &Matrix,
) -> (Matrix, Matrix) {
    let g_sum = reference::exp_origin_bwd(sum, g);
    let pt = p.transposed();
    let mut g_layer = g_sum.clone();
    for _ in 1..layers.max(1) {
        g_layer = plus(&g_sum, &reference::spmm(pt, &g_layer));
    }
    let (gzu, gzv) = split_rows(&reference::spmm(pt, &g_layer), u.rows());
    (
        reference::log_origin_bwd(u, &gzu),
        reference::log_origin_bwd(v, &gzv),
    )
}

/// One channel of [`scalar_hinge`]: its user rows and its item rows.
type Space<'a> = (&'a Matrix, &'a Matrix);

/// `arcosh(−⟨x, y⟩_L)²`.
fn dist_sq(x: &[f64], y: &[f64]) -> f64 {
    let d = arcosh(-reference::inner(x, y));
    d * d
}

/// Paper Eqs. 17–19, in the chain's operation order: per triplet
/// `(u, p, q)`, `x = (g(u,p) − g(u,q)) + margin` with
/// `g(u,v) = d²(u,v) + d²_tag(u,v)·(gain·α_u)` (the tag term only with a
/// `tag` channel), the hinge of `x`, and the mean as `Iterator::sum` in
/// triplet order over `n`. Returns the loss and each channel's gradients,
/// users then items.
fn scalar_hinge(
    b: &Triplets,
    ir: Space<'_>,
    tag: Option<(Space<'_>, f64, &[f64])>,
    margin: f64,
    hinge: Hinge,
) -> (f64, Vec<(Matrix, Matrix)>) {
    let n = b.len();
    let mut x = Vec::with_capacity(n);
    for r in 0..n {
        let (u, p, q) = (b.users[r], b.pos[r], b.neg[r]);
        let mut g_pos = dist_sq(ir.0.row(u), ir.1.row(p));
        let mut g_neg = dist_sq(ir.0.row(u), ir.1.row(q));
        if let Some(((tu, tv), gain, alpha)) = tag {
            let c = gain * alpha[u];
            g_pos += dist_sq(tu.row(u), tv.row(p)) * c;
            g_neg += dist_sq(tu.row(u), tv.row(q)) * c;
        }
        x.push((g_pos - g_neg) + margin);
    }
    let h = |x: f64| match hinge {
        Hinge::Relu => x.max(0.0),
        Hinge::Softplus => x.max(0.0) + (-x.abs()).exp().ln_1p(),
    };
    let loss = x.iter().map(|&x| h(x)).sum::<f64>() / n as f64;

    // Each triplet's weight on its positive distance; the negative one
    // gets its negation.
    let gm = 1.0 / n as f64;
    let gd: Vec<f64> = x
        .iter()
        .map(|&x| match hinge {
            Hinge::Relu => {
                if x > 0.0 {
                    gm
                } else {
                    0.0
                }
            }
            Hinge::Softplus => gm / (1.0 + (-x).exp()),
        })
        .collect();
    let mut grads = vec![scalar_channel_bwd(b, ir, &|r| (gd[r], -gd[r]))];
    if let Some((space, gain, alpha)) = tag {
        let c = |r: usize| gain * alpha[b.users[r]];
        grads.push(scalar_channel_bwd(b, space, &|r| {
            (gd[r] * c(r), -gd[r] * c(r))
        }));
    }
    (loss, grads)
}

/// One channel's gradients in [`scalar_hinge`], given each triplet's
/// weights on its positive and its negative distance. A user row gets
/// `(0 + t_neg) + (0 + t_pos)` per triplet, what the two distance ops
/// wrote into its gathered row, added into a zero in triplet order; an
/// item gets the negative side's sum plus the positive side's, each
/// formed from zero in triplet order.
fn scalar_channel_bwd(
    b: &Triplets,
    (users, items): Space<'_>,
    w: &dyn Fn(usize) -> (f64, f64),
) -> (Matrix, Matrix) {
    let dc = users.cols();
    let mut g_users = Matrix::zeros(users.rows(), dc);
    let mut g_neg = Matrix::zeros(items.rows(), dc);
    let mut g_pos = Matrix::zeros(items.rows(), dc);
    for r in 0..b.len() {
        let (u, p, q) = (b.users[r], b.pos[r], b.neg[r]);
        let (w_pos, w_neg) = w(r);
        let (mut t_neg, mut t_pos) = (vec![0.0; dc], vec![0.0; dc]);
        let x = users.row(u);
        reference::distance_sq_grad(x, items.row(q), w_neg, &mut t_neg, g_neg.row_mut(q));
        reference::distance_sq_grad(x, items.row(p), w_pos, &mut t_pos, g_pos.row_mut(p));
        for ((g, tn), tp) in g_users.row_mut(u).iter_mut().zip(t_neg).zip(t_pos) {
            *g += tn + tp;
        }
    }
    (g_users, plus(&g_neg, &g_pos))
}

/// `0.0 + g` for every entry: a gradient as the chain's slices passed it
/// on, added into a zero.
fn from_zero(g: Matrix) -> Matrix {
    plus(&Matrix::zeros(g.rows(), g.cols()), &g)
}

/// [`run_step`]'s bits for one batch from the scalar functions alone.
fn scalar_step(s: &Step, b: &Triplets, layers: Option<usize>, two: bool, hinge: Hinge) -> StepBits {
    let (margin, gain) = step_constants(hinge);
    let channels = if two { 2 } else { 1 };
    // Each channel's user rows, item rows and, aggregated, the layer sum.
    let spaces: Vec<(Matrix, Matrix, Option<Matrix>)> = (0..channels)
        .map(|c| {
            let (u, v) = (&s.params[2 * c], &s.params[2 * c + 1]);
            match layers {
                Some(l) => {
                    let (out, sum) = scalar_aggregation(u, v, &s.propagate, l);
                    let (ou, ov) = split_rows(&out, u.rows());
                    (ou, ov, Some(sum))
                }
                None => (u.clone(), v.clone(), None),
            }
        })
        .collect();
    let rows = spaces
        .iter()
        .flat_map(|(u, v, _)| bits(u).into_iter().chain(bits(v)))
        .collect();
    let tag = spaces
        .get(1)
        .map(|(u, v, _)| ((u, v), gain, s.alpha.as_slice()));
    let ir = (&spaces[0].0, &spaces[0].1);
    let (loss, hinge_grads) = scalar_hinge(b, ir, tag, margin, hinge);
    let mut grads = Vec::new();
    for (c, (gu, gv)) in hinge_grads.into_iter().enumerate() {
        let (u, v) = (&s.params[2 * c], &s.params[2 * c + 1]);
        let (gu, gv) = match (layers, &spaces[c].2) {
            (Some(l), Some(sum)) => {
                let g = from_zero(stack(&gu, &gv));
                scalar_aggregation_bwd(u, v, &s.propagate, l, sum, &g)
            }
            _ => (gu, gv),
        };
        grads.push(bits(&gu));
        grads.push(bits(&gv));
    }
    (vec![key(loss)], rows, grads)
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

/// The margin and the tag gain of a step with `hinge`.
fn step_constants(hinge: Hinge) -> (f64, f64) {
    (if hinge == Hinge::Relu { 0.0 } else { 1.5 }, 0.7)
}

/// Runs the batches of one configuration through the fused ops on one
/// reused tape, reset between batches.
fn run_step(
    s: &Step,
    batches: &[Triplets],
    layers: Option<usize>,
    two: bool,
    hinge: Hinge,
) -> Vec<StepBits> {
    let (margin, gain) = step_constants(hinge);
    let mut t = Tape::new();
    let mut out = Vec::new();
    for b in batches {
        t.reset();
        let leaves: Vec<Var> = s.params.iter().map(|m| t.leaf_copy(m)).collect();
        let channels = if two { 2 } else { 1 };
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
                    let fused = run_step(&s, &batches, layers, two, hinge);
                    for (i, (f, b)) in fused.iter().zip(&batches).enumerate() {
                        let c = scalar_step(&s, b, layers, two, hinge);
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
/// sliced (the slices' backward added `+0.0` into every gradient entry),
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
    let (u, v) = split_rows(&stacked, nu);
    for hinge in [Hinge::Relu, Hinge::Softplus] {
        let mut t = Tape::new();
        let x = t.leaf_copy(&stacked);
        let loss = t.triplet_hinge(
            &Arc::new(b.clone()),
            Channel::stacked(x, nu),
            None,
            0.3,
            hinge,
        );
        let value = bits(t.value(loss));
        let mut g = t.backward(loss);
        let fused = (value, bits(&g.take(x).unwrap()));

        let (loss, mut g) = scalar_hinge(&b, (&u, &v), None, 0.3, hinge);
        let (gu, gv) = g.remove(0);
        let chain = (vec![key(loss)], bits(&from_zero(stack(&gu, &gv))));
        assert_eq!(chain, fused, "{hinge:?}");
    }
}
