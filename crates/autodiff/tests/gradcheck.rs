//! Central finite-difference verification of every tape op's backward pass,
//! and of the exp and log maps at the origin that `Tape::global_aggregation`
//! composes.
//!
//! Strategy: build a scalar loss `L(x) = sum(w ⊙ f(x))` with a fixed random
//! weighting `w` (so gradients of non-scalar outputs are exercised entry by
//! entry), then compare `∂L/∂x` from the tape against `(L(x+h) − L(x−h))/2h`.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use taxorec_autodiff::{hyper, Channel, Csr, Hinge, Matrix, TagChannel, Tape, Triplets, Var};
use taxorec_geometry::isa::Isa;

mod common;
use common::{rand_ball_matrix, rand_hyperboloid_matrix, rand_matrix};

/// Central finite-difference gradient of `loss_fn` with respect to the
/// entries of `x`.
fn fd_grad(x: &Matrix, loss_fn: &dyn Fn(&Matrix) -> f64, h: f64) -> Matrix {
    let mut g = Matrix::zeros(x.rows(), x.cols());
    for i in 0..x.data().len() {
        let mut xp = x.clone();
        xp.data_mut()[i] += h;
        let mut xm = x.clone();
        xm.data_mut()[i] -= h;
        g.data_mut()[i] = (loss_fn(&xp) - loss_fn(&xm)) / (2.0 * h);
    }
    g
}

/// Asserts that the analytic gradient of `build(tape, x_var)` matches the
/// finite-difference gradient computed by replaying `build` on perturbed
/// inputs.
fn check_grad(x0: &Matrix, build: &dyn Fn(&mut Tape, Var) -> Var, tol: f64, h: f64) {
    let loss_of = |m: &Matrix| -> f64 {
        let mut t = Tape::new();
        let x = t.leaf(m.clone());
        let out = build(&mut t, x);
        t.value(out).as_scalar()
    };
    let mut t = Tape::new();
    let x = t.leaf(x0.clone());
    let out = build(&mut t, x);
    let grads = t.backward(out);
    let analytic = grads.wrt(x).expect("gradient must reach the input");
    assert_close(analytic, &fd_grad(x0, &loss_of, h), tol);
}

/// [`check_grad`] for a kernel pair the tape composes but does not record
/// as an op of its own: `f` is the forward, and `grad(x, w)` the gradient
/// of `L(x) = sum(w ⊙ f(x))`.
fn check_kernel_grad(
    x0: &Matrix,
    w: &Matrix,
    f: &dyn Fn(&Matrix) -> Matrix,
    grad: &dyn Fn(&Matrix, &Matrix) -> Matrix,
    tol: f64,
    h: f64,
) {
    let loss_of = |m: &Matrix| -> f64 {
        let y = f(m);
        y.data().iter().zip(w.data()).map(|(a, b)| a * b).sum()
    };
    assert_close(&grad(x0, w), &fd_grad(x0, &loss_of, h), tol);
}

/// Entry by entry, `|a − n| ≤ tol·(1 + |n|)`.
fn assert_close(analytic: &Matrix, numeric: &Matrix, tol: f64) {
    for i in 0..analytic.data().len() {
        let a = analytic.data()[i];
        let n = numeric.data()[i];
        assert!(
            (a - n).abs() <= tol * (1.0 + n.abs()),
            "entry {i}: analytic {a} vs numeric {n}"
        );
    }
}

/// Deterministic weighting matrix used to reduce matrix outputs to scalars.
fn weight_like(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    rand_matrix(rng, rows, cols, 1.0)
}

#[test]
fn grad_add_sub_neg_scale() {
    let mut rng = StdRng::seed_from_u64(1);
    let x0 = rand_matrix(&mut rng, 3, 2, 1.0);
    let w = weight_like(&mut rng, 3, 2);
    check_grad(
        &x0,
        &|t, x| {
            let w = t.leaf(w.clone());
            let a = t.scale(x, 2.5);
            let b = t.neg(x);
            let c = t.add(a, b);
            let d = t.sub(c, x);
            let e = t.hadamard(d, w);
            t.sum_all(e)
        },
        1e-6,
        1e-6,
    );
}

#[test]
fn grad_hadamard_aliased() {
    let mut rng = StdRng::seed_from_u64(2);
    let x0 = rand_matrix(&mut rng, 2, 3, 1.0);
    check_grad(
        &x0,
        &|t, x| {
            let sq = t.hadamard(x, x);
            let cube = t.hadamard(sq, x);
            t.sum_all(cube)
        },
        1e-5,
        1e-5,
    );
}

#[test]
fn grad_matmul_both_sides() {
    let mut rng = StdRng::seed_from_u64(3);
    let x0 = rand_matrix(&mut rng, 3, 4, 1.0);
    let other = rand_matrix(&mut rng, 4, 2, 1.0);
    let w = weight_like(&mut rng, 3, 2);
    check_grad(
        &x0,
        &|t, x| {
            let o = t.leaf(other.clone());
            let w = t.leaf(w.clone());
            let y = t.matmul(x, o);
            let yw = t.hadamard(y, w);
            t.sum_all(yw)
        },
        1e-6,
        1e-6,
    );
    // Right operand.
    let y0 = rand_matrix(&mut rng, 4, 2, 1.0);
    let left = rand_matrix(&mut rng, 3, 4, 1.0);
    let w2 = weight_like(&mut rng, 3, 2);
    check_grad(
        &y0,
        &|t, y| {
            let l = t.leaf(left.clone());
            let w = t.leaf(w2.clone());
            let z = t.matmul(l, y);
            let zw = t.hadamard(z, w);
            t.sum_all(zw)
        },
        1e-6,
        1e-6,
    );
}

#[test]
fn grad_spmm() {
    let mut rng = StdRng::seed_from_u64(4);
    let x0 = rand_matrix(&mut rng, 4, 3, 1.0);
    let m = Arc::new(Csr::from_triplets(
        3,
        4,
        &[
            (0, 0, 1.5),
            (0, 2, -0.5),
            (1, 1, 2.0),
            (2, 3, 0.7),
            (2, 0, 0.1),
        ],
    ));
    let w = weight_like(&mut rng, 3, 3);
    check_grad(
        &x0,
        &|t, x| {
            let y = t.spmm(&m, x);
            let w = t.leaf(w.clone());
            let yw = t.hadamard(y, w);
            t.sum_all(yw)
        },
        1e-6,
        1e-6,
    );
}

#[test]
fn grad_gather_and_slice_and_concat() {
    let mut rng = StdRng::seed_from_u64(5);
    let x0 = rand_matrix(&mut rng, 5, 2, 1.0);
    let idx = Arc::new(vec![4usize, 0, 4, 2]);
    let w = weight_like(&mut rng, 4, 2);
    check_grad(
        &x0,
        &|t, x| {
            let g = t.gather_rows(x, Arc::clone(&idx));
            let w = t.leaf(w.clone());
            let gw = t.hadamard(g, w);
            t.sum_all(gw)
        },
        1e-6,
        1e-6,
    );
    let w2 = weight_like(&mut rng, 7, 2);
    check_grad(
        &x0,
        &|t, x| {
            let s = t.slice_rows(x, 1, 2);
            let c = t.concat_rows(x, s);
            let w = t.leaf(w2.clone());
            let cw = t.hadamard(c, w);
            t.sum_all(cw)
        },
        1e-6,
        1e-6,
    );
}

#[test]
fn grad_activations() {
    let mut rng = StdRng::seed_from_u64(6);
    // Keep away from the ReLU kink.
    let mut x0 = rand_matrix(&mut rng, 3, 3, 1.0);
    for v in x0.data_mut() {
        if v.abs() < 0.05 {
            *v += 0.1;
        }
    }
    let w = weight_like(&mut rng, 3, 3);
    for op in 0..3usize {
        check_grad(
            &x0,
            &|t, x| {
                let y = match op {
                    0 => t.relu(x),
                    1 => t.leaky_relu(x, 0.2),
                    _ => t.softplus(x),
                };
                let w = t.leaf(w.clone());
                let yw = t.hadamard(y, w);
                t.sum_all(yw)
            },
            1e-5,
            1e-6,
        );
    }
}

#[test]
fn grad_sqrt() {
    let mut rng = StdRng::seed_from_u64(17);
    // Strictly positive inputs away from the clamp.
    let mut x0 = rand_matrix(&mut rng, 3, 3, 1.0);
    for v in x0.data_mut() {
        *v = v.abs() + 0.5;
    }
    let w = weight_like(&mut rng, 3, 3);
    check_grad(
        &x0,
        &|t, x| {
            let y = t.sqrt(x);
            let w = t.leaf(w.clone());
            let yw = t.hadamard(y, w);
            t.sum_all(yw)
        },
        1e-5,
        1e-6,
    );
}

#[test]
fn grad_row_reductions() {
    let mut rng = StdRng::seed_from_u64(7);
    let x0 = rand_matrix(&mut rng, 4, 3, 1.0);
    let other = rand_matrix(&mut rng, 4, 3, 1.0);
    let w = weight_like(&mut rng, 4, 1);
    check_grad(
        &x0,
        &|t, x| {
            let o = t.leaf(other.clone());
            let d = t.row_dot(x, o);
            let w = t.leaf(w.clone());
            let dw = t.hadamard(d, w);
            t.sum_all(dw)
        },
        1e-6,
        1e-6,
    );
    check_grad(
        &x0,
        &|t, x| {
            let n = t.row_sqnorm(x);
            let w = t.leaf(w.clone());
            let nw = t.hadamard(n, w);
            t.sum_all(nw)
        },
        1e-6,
        1e-6,
    );
    // Aliased row_dot(x, x) = row_sqnorm(x).
    check_grad(
        &x0,
        &|t, x| {
            let d = t.row_dot(x, x);
            t.sum_all(d)
        },
        1e-6,
        1e-6,
    );
}

#[test]
fn grad_softmax_rows() {
    let mut rng = StdRng::seed_from_u64(9);
    let x0 = rand_matrix(&mut rng, 3, 4, 2.0);
    let w = weight_like(&mut rng, 3, 4);
    check_grad(
        &x0,
        &|t, x| {
            let s = t.softmax_rows(x);
            let w = t.leaf(w.clone());
            let sw = t.hadamard(s, w);
            t.sum_all(sw)
        },
        1e-5,
        1e-6,
    );
}

#[test]
fn grad_lorentz_exp_origin() {
    let mut rng = StdRng::seed_from_u64(10);
    let x0 = rand_matrix(&mut rng, 4, 3, 1.5);
    let w = weight_like(&mut rng, 4, 4);
    let fwd = |z: &Matrix| {
        let mut out = Matrix::zeros(z.rows(), z.cols() + 1);
        let mut aux = vec![0.0; 2 * z.rows()];
        hyper::lorentz_exp_origin_fwd(z, &mut out, &mut aux);
        (out, aux)
    };
    check_kernel_grad(
        &x0,
        &w,
        &|z| fwd(z).0,
        &|z, w| {
            let mut gz = Matrix::zeros(z.rows(), z.cols());
            hyper::lorentz_exp_origin_bwd(Isa::detected(), z, &fwd(z).1, w, &mut gz);
            gz
        },
        1e-5,
        1e-6,
    );
}

#[test]
fn grad_lorentz_log_origin() {
    let mut rng = StdRng::seed_from_u64(11);
    let x0 = rand_hyperboloid_matrix(&mut rng, 4, 3);
    let w = weight_like(&mut rng, 4, 3);
    let fwd = |x: &Matrix| {
        let mut out = Matrix::zeros(x.rows(), x.cols() - 1);
        let mut aux = vec![0.0; 2 * x.rows()];
        hyper::lorentz_log_origin_fwd(x, out.data_mut(), &mut aux);
        (out, aux)
    };
    check_kernel_grad(
        &x0,
        &w,
        &|x| fwd(x).0,
        &|x, w| {
            let mut gx = Matrix::zeros(x.rows(), x.cols());
            hyper::lorentz_log_origin_bwd(Isa::detected(), x, &fwd(x).1, w.data(), &mut gx);
            gx
        },
        1e-4,
        1e-6,
    );
}

#[test]
fn grad_lorentz_dist_sq() {
    let mut rng = StdRng::seed_from_u64(12);
    let x0 = rand_hyperboloid_matrix(&mut rng, 4, 3);
    let y0 = rand_hyperboloid_matrix(&mut rng, 4, 3);
    let w = weight_like(&mut rng, 4, 1);
    check_grad(
        &x0,
        &|t, x| {
            let y = t.leaf(y0.clone());
            let d = t.lorentz_dist_sq(x, y);
            let w = t.leaf(w.clone());
            let dw = t.hadamard(d, w);
            t.sum_all(dw)
        },
        1e-4,
        1e-6,
    );
    // Second operand.
    check_grad(
        &y0,
        &|t, y| {
            let x = t.leaf(x0.clone());
            let d = t.lorentz_dist_sq(x, y);
            let w = t.leaf(w.clone());
            let dw = t.hadamard(d, w);
            t.sum_all(dw)
        },
        1e-4,
        1e-6,
    );
}

#[test]
fn grad_poincare_dist() {
    let mut rng = StdRng::seed_from_u64(13);
    let x0 = rand_ball_matrix(&mut rng, 4, 3, 0.7);
    let y0 = rand_ball_matrix(&mut rng, 4, 3, 0.7);
    let w = weight_like(&mut rng, 4, 1);
    check_grad(
        &x0,
        &|t, x| {
            let y = t.leaf(y0.clone());
            let d = t.poincare_dist(x, y);
            let w = t.leaf(w.clone());
            let dw = t.hadamard(d, w);
            t.sum_all(dw)
        },
        1e-4,
        1e-6,
    );
}

#[test]
fn grad_model_conversions() {
    let mut rng = StdRng::seed_from_u64(14);
    let p0 = rand_ball_matrix(&mut rng, 4, 3, 0.7);
    let w_same = weight_like(&mut rng, 4, 3);
    let w_plus = weight_like(&mut rng, 4, 4);
    check_grad(
        &p0,
        &|t, p| {
            let k = t.poincare_to_klein(p);
            let w = t.leaf(w_same.clone());
            let kw = t.hadamard(k, w);
            t.sum_all(kw)
        },
        1e-5,
        1e-6,
    );
    check_grad(
        &p0,
        &|t, k| {
            let p = t.klein_to_poincare(k);
            let w = t.leaf(w_same.clone());
            let pw = t.hadamard(p, w);
            t.sum_all(pw)
        },
        1e-5,
        1e-6,
    );
    check_grad(
        &p0,
        &|t, p| {
            let l = t.poincare_to_lorentz(p);
            let w = t.leaf(w_plus.clone());
            let lw = t.hadamard(l, w);
            t.sum_all(lw)
        },
        1e-4,
        1e-6,
    );
}

#[test]
fn grad_einstein_midpoint() {
    let mut rng = StdRng::seed_from_u64(15);
    // 5 tags in Klein coordinates, 3 items with varying tag sets.
    let tags0 = rand_ball_matrix(&mut rng, 5, 3, 0.6);
    let item_tag = Arc::new(Csr::from_triplets(
        3,
        5,
        &[
            (0, 0, 1.0),
            (0, 1, 1.0),
            (0, 4, 2.0),
            (1, 2, 1.0),
            (2, 1, 1.0),
            (2, 3, 1.0),
        ],
    ));
    let w = weight_like(&mut rng, 3, 3);
    check_grad(
        &tags0,
        &|t, tags| {
            let mu = t.einstein_midpoint(tags, &item_tag);
            let w = t.leaf(w.clone());
            let mw = t.hadamard(mu, w);
            t.sum_all(mw)
        },
        1e-4,
        1e-6,
    );
}

#[test]
fn grad_taxonomy_regularizer_path() {
    // The exact Eq. 8 tape chain of the model: cluster centers as a
    // row-normalized sparse average of tag embeddings
    // (`spmm`), then Poincaré distance between each tag and
    // its center, mean, and λ-scaling — checked with respect to the tag
    // embedding table `t_p`.
    let mut rng = StdRng::seed_from_u64(18);
    let t_p0 = rand_ball_matrix(&mut rng, 5, 3, 0.6);
    // Two taxonomy nodes averaging tags {0,1,4} and {2,3}; rows are
    // normalized, so centers are convex combinations and stay in the ball.
    let node_tags = Arc::new(Csr::from_triplets(
        2,
        5,
        &[
            (0, 0, 0.5),
            (0, 1, 0.25),
            (0, 4, 0.25),
            (1, 2, 0.6),
            (1, 3, 0.4),
        ],
    ));
    // (tag, node) membership pairs of the regularizer sum.
    let term_tags = Arc::new(vec![0usize, 1, 4, 2, 3]);
    let term_rows = Arc::new(vec![0usize, 0, 0, 1, 1]);
    let lambda = 0.1;
    check_grad(
        &t_p0,
        &|t, t_p| {
            let centers = t.spmm(&node_tags, t_p);
            let gt = t.gather_rows(t_p, Arc::clone(&term_tags));
            let gc = t.gather_rows(centers, Arc::clone(&term_rows));
            let dists = t.poincare_dist(gt, gc);
            let reg = t.mean_all(dists);
            t.scale(reg, lambda)
        },
        1e-4,
        1e-6,
    );
}

#[test]
fn grad_full_taxorec_like_pipeline() {
    // End-to-end chain close to the real model: Poincaré tags → Klein →
    // Einstein midpoint → Poincaré → Lorentz items → global aggregation
    // with two users → triplet distances → hinge loss.
    let mut rng = StdRng::seed_from_u64(16);
    let tags0 = rand_ball_matrix(&mut rng, 4, 2, 0.5);
    let item_tag = Arc::new(Csr::from_triplets(
        3,
        4,
        &[
            (0, 0, 1.0),
            (0, 1, 1.0),
            (1, 2, 1.0),
            (2, 3, 1.0),
            (2, 0, 1.0),
        ],
    ));
    // Two users above three items.
    let adj = Arc::new(Csr::from_triplets(
        5,
        5,
        &[
            (0, 0, 1.0),
            (0, 2, 0.5),
            (1, 1, 1.0),
            (1, 4, 0.3),
            (2, 2, 1.0),
            (2, 3, 0.5),
            (3, 3, 1.0),
            (4, 4, 1.0),
            (4, 0, 0.3),
        ],
    ));
    let users0 = rand_hyperboloid_matrix(&mut rng, 2, 2);
    let batch = Arc::new(Triplets {
        users: vec![0, 1, 0],
        pos: vec![0, 2, 1],
        neg: vec![1, 0, 2],
    });
    check_grad(
        &tags0,
        &|t, tags| {
            let k = t.poincare_to_klein(tags);
            let mu = t.einstein_midpoint(k, &item_tag);
            let p = t.klein_to_poincare(mu);
            let items = t.poincare_to_lorentz(p);
            let users = t.leaf(users0.clone());
            let agg = t.global_aggregation(users, items, &adj, 2);
            t.triplet_hinge(&batch, Channel::stacked(agg, 2), None, 0.5, Hinge::Softplus)
        },
        1e-3,
        1e-6,
    );
}

#[test]
fn grad_global_aggregation() {
    // Three users and four items on one propagation graph; every depth the
    // model uses, with respect to either input.
    let mut rng = StdRng::seed_from_u64(22);
    let users0 = rand_hyperboloid_matrix(&mut rng, 3, 2);
    let items0 = rand_hyperboloid_matrix(&mut rng, 4, 2);
    let mut triplets: Vec<(usize, usize, f64)> = (0..7).map(|r| (r, r, 1.0)).collect();
    triplets.extend([
        (0, 3, 0.5),
        (0, 5, 0.5),
        (1, 4, 1.0),
        (3, 0, 0.7),
        (5, 0, 0.4),
        (6, 2, 0.9),
    ]);
    let adj = Arc::new(Csr::from_triplets(7, 7, &triplets));
    let w = weight_like(&mut rng, 7, 3);
    for layers in 1..=3 {
        let weighted = |t: &mut Tape, u: Var, v: Var| {
            let out = t.global_aggregation(u, v, &adj, layers);
            let w = t.leaf(w.clone());
            let h = t.hadamard(out, w);
            t.sum_all(h)
        };
        check_grad(
            &users0,
            &|t, u| {
                let v = t.leaf(items0.clone());
                weighted(t, u, v)
            },
            1e-4,
            1e-6,
        );
        check_grad(
            &items0,
            &|t, v| {
                let u = t.leaf(users0.clone());
                weighted(t, u, v)
            },
            1e-4,
            1e-6,
        );
    }
}

#[test]
fn grad_triplet_hinge() {
    // Five triplets over three users and four items (user 0 and item 1
    // repeated, item 2 on both sides); one channel on a stacked matrix or
    // two on split ones; both hinges. The relu margin keeps every
    // triplet's argument away from the kink.
    let mut rng = StdRng::seed_from_u64(23);
    let batch = Arc::new(Triplets {
        users: vec![0, 1, 0, 2, 0],
        pos: vec![1, 2, 1, 3, 0],
        neg: vec![2, 0, 3, 1, 2],
    });
    let stacked0 = rand_hyperboloid_matrix(&mut rng, 7, 3);
    let (u_tg0, v_tg0) = (
        rand_hyperboloid_matrix(&mut rng, 3, 2),
        rand_hyperboloid_matrix(&mut rng, 4, 2),
    );
    let alpha = [0.3, 0.8, 0.55];
    for (hinge, margin) in [(Hinge::Relu, 40.0), (Hinge::Softplus, 0.5)] {
        check_grad(
            &stacked0,
            &|t, x| t.triplet_hinge(&batch, Channel::stacked(x, 3), None, margin, hinge),
            1e-4,
            1e-6,
        );
        let two = |t: &mut Tape, x: Var, u: Var, v: Var| {
            let tag = TagChannel {
                channel: Channel::split(u, v),
                gain: 1.3,
                alpha: &alpha,
            };
            t.triplet_hinge(&batch, Channel::stacked(x, 3), Some(tag), margin, hinge)
        };
        check_grad(
            &u_tg0,
            &|t, u| {
                let x = t.leaf(stacked0.clone());
                let v = t.leaf(v_tg0.clone());
                two(t, x, u, v)
            },
            1e-4,
            1e-6,
        );
        check_grad(
            &v_tg0,
            &|t, v| {
                let x = t.leaf(stacked0.clone());
                let u = t.leaf(u_tg0.clone());
                two(t, x, u, v)
            },
            1e-4,
            1e-6,
        );
    }
}
