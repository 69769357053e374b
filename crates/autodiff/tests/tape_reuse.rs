//! The reuse contract of [`Tape::reset`]: a program recorded on a tape that
//! has already run — and been reset after — a *different-shaped* program
//! produces the values and gradients of a fresh tape, bit for bit.
//!
//! In debug builds (what `cargo test` runs) every recycled buffer is handed
//! out full of NaN, so an op that reads an entry it did not write — the old
//! `Matrix::zeros` habit — cannot pass by luck.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use taxorec_autodiff::{Channel, Csr, Hinge, Matrix, TagChannel, Tape, Triplets, Var};

mod common;
use common::{rand_ball_matrix, rand_hyperboloid_matrix, rand_matrix};

fn rand_csr(rng: &mut StdRng, rows: usize, cols: usize) -> Arc<Csr> {
    let mut triplets = Vec::new();
    for r in 0..rows {
        // Row 0 stays empty: the "item without tags" / isolated-node case.
        if r == 0 {
            continue;
        }
        for _ in 0..2 {
            let c = rng.random_range(0..cols);
            triplets.push((r, c, 0.25 + rng.random::<f64>()));
        }
    }
    Arc::new(Csr::from_triplets(rows, cols, &triplets))
}

fn rand_idx(rng: &mut StdRng, len: usize, below: usize) -> Arc<Vec<usize>> {
    Arc::new((0..len).map(|_| rng.random_range(0..below)).collect())
}

/// Every value and every gradient of one recorded program, as bit patterns.
#[derive(PartialEq, Debug)]
struct Snapshot {
    values: Vec<Vec<u64>>,
    grads: Vec<Option<Vec<u64>>>,
}

fn bits(m: &Matrix) -> Vec<u64> {
    let mut out = vec![m.rows() as u64, m.cols() as u64];
    out.extend(m.data().iter().map(|x| x.to_bits()));
    out
}

/// Records `program` on `tape` (reset first), runs backward from the loss
/// it returns, snapshots everything, and hands the gradients back.
fn run(tape: &mut Tape, program: &dyn Fn(&mut Tape) -> Var) -> Snapshot {
    tape.reset();
    let loss = program(tape);
    let grads = tape.backward(loss);
    let vars: Vec<Var> = tape.vars().collect();
    let snap = Snapshot {
        values: vars.iter().map(|&v| bits(tape.value(v))).collect(),
        grads: vars.iter().map(|&v| grads.wrt(v).map(bits)).collect(),
    };
    tape.recycle(grads);
    snap
}

/// Op kinds a [`Tape`] records, every one of which [`every_op_program`]
/// reaches.
const OP_KINDS: usize = 29;

/// `len` triplets over `users` users and `items` items.
fn rand_triplets(rng: &mut StdRng, len: usize, users: usize, items: usize) -> Arc<Triplets> {
    Arc::new(Triplets {
        users: (0..len).map(|_| rng.random_range(0..users)).collect(),
        pos: (0..len).map(|_| rng.random_range(0..items)).collect(),
        neg: (0..len).map(|_| rng.random_range(0..items)).collect(),
    })
}

/// A program over **every** tape op, with all shapes drawn from `seed`.
fn every_op_program(seed: u64) -> impl Fn(&mut Tape) -> Var {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(2..7usize);
    let d = rng.random_range(2..5usize);
    let m = rng.random_range(2..6usize);
    let layers = rng.random_range(1..4usize);
    let a0 = rand_matrix(&mut rng, n, d, 1.0);
    let b0 = rand_matrix(&mut rng, n, d, 1.0);
    let w0 = rand_matrix(&mut rng, d, 3, 1.0);
    let ball0 = rand_ball_matrix(&mut rng, m, d, 0.6);
    let hx0 = rand_hyperboloid_matrix(&mut rng, n, d);
    let hy0 = rand_hyperboloid_matrix(&mut rng, 2 * n, d);
    let square = rand_csr(&mut rng, n, n);
    let item_tag = rand_csr(&mut rng, n, m);
    let propagate = rand_csr(&mut rng, 2 * n, 2 * n);
    let gather = rand_idx(&mut rng, n + 2, n);
    let rows = rand_idx(&mut rng, n, m);
    let triplets = rand_triplets(&mut rng, n + 3, n, n);
    let alpha: Vec<f64> = (0..n).map(|_| rng.random::<f64>()).collect();
    move |t: &mut Tape| {
        let mut terms: Vec<Var> = Vec::new();
        let a = t.leaf_copy(&a0);
        let b = t.leaf(b0.clone());
        let w = t.leaf_copy(&w0);

        // Elementwise and linear algebra.
        let s = t.add(a, b);
        let s = t.sub(s, a);
        let s = t.neg(s);
        let s = t.scale(s, 1.5);
        let s = t.add_scalar(s, 0.25);
        let s = t.hadamard(s, s);
        let mm = t.matmul(s, w);
        terms.push(t.sum_all(mm));
        let sp = t.spmm(&square, s);
        let g = t.gather_rows(sp, Arc::clone(&gather));
        let cat = t.concat_rows(g, a);
        let sl = t.slice_rows(cat, 1, n);
        terms.push(t.mean_all(sl));

        // Activations and row reductions.
        let act = t.relu(a);
        let act = t.leaky_relu(act, 0.1);
        let act = t.add(act, b);
        let act = t.softplus(act);
        let act = t.sqrt(act);
        let sm = t.softmax_rows(act);
        let rd = t.row_dot(sm, b);
        let rn = t.row_sqnorm(act);
        let red = t.add(rd, rn);
        terms.push(t.sum_all(red));

        // The hyperbolic composites, and the two ops of a training step.
        let ball = t.leaf_copy(&ball0);
        let klein = t.poincare_to_klein(ball);
        let mid = t.einstein_midpoint(klein, &item_tag);
        let back = t.klein_to_poincare(mid);
        let lifted = t.poincare_to_lorentz(back);
        let hx = t.leaf_copy(&hx0);
        let hy = t.leaf_copy(&hy0);
        let agg = t.global_aggregation(hx, lifted, &propagate, layers);
        let dist = t.lorentz_dist_sq(agg, hy);
        terms.push(t.mean_all(dist));
        let tag = TagChannel {
            channel: Channel::split(hx, hy),
            gain: 0.7,
            alpha: &alpha,
        };
        let ir = Channel::stacked(agg, n);
        terms.push(t.triplet_hinge(&triplets, ir, Some(tag), 0.5, Hinge::Softplus));
        terms.push(t.triplet_hinge(&triplets, ir, None, 0.5, Hinge::Relu));
        let ball_rows = t.gather_rows(ball, Arc::clone(&rows));
        let pd = t.poincare_dist(back, ball_rows);
        terms.push(t.mean_all(pd));

        let mut loss = terms[0];
        for &term in &terms[1..] {
            loss = t.add(loss, term);
        }
        loss
    }
}

/// The `grad_full_taxorec_like_pipeline` program of `gradcheck.rs`, with
/// `items` items over `tags` tags and three users.
fn pipeline_program(seed: u64, items: usize, tags: usize) -> impl Fn(&mut Tape) -> Var {
    let mut rng = StdRng::seed_from_u64(seed);
    let tags0 = rand_ball_matrix(&mut rng, tags, 2, 0.6);
    let item_tag = rand_csr(&mut rng, items, tags);
    let adj = rand_csr(&mut rng, 3 + items, 3 + items);
    let users0 = rand_hyperboloid_matrix(&mut rng, 3, 2);
    let triplets = rand_triplets(&mut rng, 2 * items, 3, items);
    move |t: &mut Tape| {
        let tags = t.leaf_copy(&tags0);
        let k = t.poincare_to_klein(tags);
        let mu = t.einstein_midpoint(k, &item_tag);
        let p = t.klein_to_poincare(mu);
        let items = t.poincare_to_lorentz(p);
        let users = t.leaf_copy(&users0);
        let agg = t.global_aggregation(users, items, &adj, 2);
        t.triplet_hinge(
            &triplets,
            Channel::stacked(agg, 3),
            None,
            0.5,
            Hinge::Softplus,
        )
    }
}

#[test]
fn every_op_on_a_reset_tape_equals_a_fresh_tape_bit_for_bit() {
    // One long-lived tape runs program after program of different shapes;
    // each is compared with the same program on a tape of its own.
    let mut reused = Tape::new();
    for seed in 0..24u64 {
        let program = every_op_program(seed);
        let fresh = run(&mut Tape::new(), &program);
        assert!(
            fresh.grads.iter().flatten().count() > 40,
            "the program reaches its ops"
        );
        let again = run(&mut reused, &program);
        assert_eq!(fresh, again, "seed {seed}");
    }
    // The program reaches every kind, forward and backward.
    let mut timed = Tape::new();
    timed.set_timed(true);
    run(&mut timed, &every_op_program(0));
    let times: Vec<_> = timed.op_times().collect();
    assert_eq!(times.len(), OP_KINDS, "{times:?}");
    for (name, t) in times {
        assert!(t.fwd_nodes > 0 && t.bwd_nodes > 0, "{name}: {t:?}");
    }
}

#[test]
fn pipeline_on_a_reset_tape_equals_a_fresh_tape_bit_for_bit() {
    let mut reused = Tape::new();
    // Larger first, so the smaller programs shrink into its buffers; then
    // larger again, so buffers grow back.
    for (seed, items, tags) in [(1, 9, 7), (2, 3, 4), (3, 5, 2), (4, 12, 9), (5, 3, 4)] {
        let program = pipeline_program(seed, items, tags);
        let fresh = run(&mut Tape::new(), &program);
        let again = run(&mut reused, &program);
        assert_eq!(fresh, again, "seed {seed}: {items} items, {tags} tags");
    }
}

#[test]
fn a_second_backward_on_the_same_tape_sees_no_trace_of_the_first() {
    // The trainer's batch: two backward passes (metric, then the Eq. 8
    // term) over one recording, the second drawing from what the first's
    // accumulation returned to the pool.
    let program = every_op_program(7);
    let mut tape = Tape::new();
    let loss = program(&mut tape);
    let first = tape.backward(loss);
    let second = tape.backward(loss);
    for v in tape.vars() {
        assert_eq!(first.wrt(v).map(bits), second.wrt(v).map(bits));
    }
}

/// The ops that keep per-row forward scalars for their backward (`aux`),
/// the two of a training step: an aggregation of `n` users and four
/// items, then the hinge over it, with a tag channel for even seeds (a
/// wider `aux`).
fn aux_program(seed: u64, n: usize) -> impl Fn(&mut Tape) -> Var {
    let mut rng = StdRng::seed_from_u64(seed);
    let users0 = rand_hyperboloid_matrix(&mut rng, n, 3);
    let items0 = rand_hyperboloid_matrix(&mut rng, 4, 3);
    let propagate = rand_csr(&mut rng, n + 4, n + 4);
    let triplets = rand_triplets(&mut rng, n + 2, n, 4);
    let alpha: Vec<f64> = (0..n).map(|_| rng.random::<f64>()).collect();
    move |t: &mut Tape| {
        let u = t.leaf_copy(&users0);
        let v = t.leaf_copy(&items0);
        let agg = t.global_aggregation(u, v, &propagate, 2);
        let tag = seed.is_multiple_of(2).then(|| TagChannel {
            channel: Channel::split(u, v),
            gain: 0.7,
            alpha: &alpha,
        });
        t.triplet_hinge(
            &triplets,
            Channel::stacked(agg, n),
            tag,
            0.5,
            Hinge::Softplus,
        )
    }
}

#[test]
fn aux_scalars_pass_through_reset_like_every_other_buffer() {
    // Each op's aux is drawn from the free list (NaN-filled in debug
    // builds) and handed back by `reset`; row counts shrink and grow, so
    // aux buffers are reused at other sizes and as other ops' outputs.
    let mut reused = Tape::new();
    for (seed, n) in [(1, 40), (2, 5), (3, 17), (4, 1), (5, 64), (6, 9)] {
        let program = aux_program(seed, n);
        let fresh = run(&mut Tape::new(), &program);
        let again = run(&mut reused, &program);
        assert_eq!(fresh, again, "seed {seed}, {n} rows");
        // A second backward over the same recording reads the same aux.
        let loss = reused.vars().last().expect("recorded");
        let second = reused.backward(loss);
        let vars: Vec<Var> = reused.vars().collect();
        let grads: Vec<Option<Vec<u64>>> = vars.iter().map(|&v| second.wrt(v).map(bits)).collect();
        assert_eq!(grads, again.grads, "seed {seed}: second backward");
        reused.recycle(second);
    }
}
