//! Microbenchmarks of the autodiff substrate: forward + backward of the
//! hyperbolic pipeline TaxoRec executes every minibatch — on one tape that
//! is reset per step and gets its gradients back, as the trainer runs it —
//! and the two kernels an epoch of the `train_fit` benchmark spends most
//! in, at that fixture's shapes, so a kernel regression shows here without
//! a 25 s workload.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use taxorec_autodiff::{Csr, Matrix, Tape};
use taxorec_core::GraphMatrices;
use taxorec_data::{generate, Preset, Scale, Split, SynthConfig};
use taxorec_geometry::lorentz;

fn pipeline_once(
    tape: &mut Tape,
    emb: &Matrix,
    tags: &Matrix,
    adj: &Arc<Csr>,
    item_tag: &Arc<Csr>,
    n_users: usize,
) -> f64 {
    tape.reset();
    let t_p = tape.leaf_copy(tags);
    let k = tape.poincare_to_klein(t_p);
    let mu = tape.einstein_midpoint(k, item_tag);
    let p = tape.klein_to_poincare(mu);
    let v_tg = tape.poincare_to_lorentz(p);
    let z_items = tape.lorentz_log_origin(v_tg);
    let e = tape.leaf_copy(emb);
    let z = tape.concat_rows(e, z_items);
    let z1 = tape.spmm(adj, z);
    let z2 = tape.spmm(adj, z1);
    let zs = tape.add(z1, z2);
    let out = tape.lorentz_exp_origin(zs);
    let users = tape.slice_rows(out, 0, n_users);
    let items = tape.slice_rows(out, n_users, z_items_rows(item_tag));
    let idx: Arc<Vec<usize>> = Arc::new((0..n_users.min(64)).collect());
    let gu = tape.gather_rows(users, Arc::clone(&idx));
    let gv = tape.gather_rows(
        items,
        Arc::new((0..n_users.min(64)).map(|i| i % 32).collect()),
    );
    let d = tape.lorentz_dist_sq(gu, gv);
    let loss = tape.mean_all(d);
    let grads = tape.backward(loss);
    let out = grads.wrt(t_p).map(|g| g.max_abs()).unwrap_or(0.0);
    tape.recycle(grads);
    out
}

fn z_items_rows(item_tag: &Arc<Csr>) -> usize {
    item_tag.rows()
}

fn bench_autodiff(c: &mut Criterion) {
    let n_users = 200;
    let n_items = 300;
    let n_tags = 60;
    let d = 8;
    let emb = {
        // Users in tangent coordinates (d columns).
        Matrix::full(n_users, d, 0.05)
    };
    let tags = Matrix::full(n_tags, d, 0.03);
    let adj_triplets: Vec<(usize, usize, f64)> = (0..(n_users + n_items))
        .flat_map(|i| [(i, i, 1.0), (i, (i * 7 + 3) % (n_users + n_items), 0.3)])
        .collect();
    let adj = Arc::new(Csr::from_triplets(
        n_users + n_items,
        n_users + n_items,
        &adj_triplets,
    ));
    let it_triplets: Vec<(usize, usize, f64)> = (0..n_items)
        .flat_map(|v| [(v, v % n_tags, 1.0), (v, (v * 3 + 1) % n_tags, 1.0)])
        .collect();
    let item_tag = Arc::new(Csr::from_triplets(n_items, n_tags, &it_triplets));

    c.bench_function("autodiff_full_pipeline_fwd_bwd_500nodes", |b| {
        let mut tape = Tape::new();
        b.iter(|| {
            pipeline_once(
                &mut tape,
                black_box(&emb),
                black_box(&tags),
                &adj,
                &item_tag,
                n_users,
            )
        })
    });

    c.bench_function("spmm_500x500_d8", |b| {
        let x = Matrix::full(n_users + n_items, d, 0.1);
        b.iter(|| adj.matmul(black_box(&x)))
    });
}

/// `rows` random hyperboloid points with `ambient` coordinates.
fn hyperboloid(rng: &mut StdRng, rows: usize, ambient: usize) -> Matrix {
    let mut m = Matrix::zeros(rows, ambient);
    for r in 0..rows {
        let spatial: Vec<f64> = (1..ambient).map(|_| rng.random::<f64>() - 0.5).collect();
        m.row_mut(r)
            .copy_from_slice(&lorentz::from_spatial(&spatial));
    }
    m
}

/// The `train_fit` kernels: the propagation product of Eq. 13 on that
/// fixture's graph (2,200 nodes, ~10k non-zeros) 33 and 9 columns wide —
/// four register blocks and one, each with a partial block — and the
/// triplet batch's squared distances (4,096 rows of 33 against 1,200 item
/// rows), forward and backward. At one pool thread, as `train_fit` runs:
/// the kernel, not the pool's thread spawn.
fn bench_train_fit_kernels(c: &mut Criterion) {
    let threads = std::env::var("TAXOREC_THREADS").ok();
    std::env::set_var("TAXOREC_THREADS", "1");
    let dataset = generate(&SynthConfig::preset(Preset::Yelp, Scale::Bench));
    let graph = GraphMatrices::build(&dataset, &Split::standard(&dataset));
    let prop = &graph.propagate;
    let mut rng = StdRng::seed_from_u64(7);
    for width in [33, 9] {
        let x = Matrix::from_vec(
            prop.cols(),
            width,
            (0..prop.cols() * width)
                .map(|_| rng.random::<f64>() - 0.5)
                .collect(),
        );
        let mut out = Matrix::zeros(prop.rows(), width);
        c.bench_function(
            &format!(
                "spmm_train_fit_propagation_{}x{}_nnz{}_w{width}",
                prop.rows(),
                prop.cols(),
                prop.nnz()
            ),
            |b| b.iter(|| prop.matmul_into(black_box(&x), &mut out)),
        );
    }

    let users = hyperboloid(&mut rng, 4096, 33);
    let items = hyperboloid(&mut rng, 1200, 33);
    let idx: Arc<Vec<usize>> =
        Arc::new((0..4096).map(|_| rng.random_range(0..1200usize)).collect());
    c.bench_function("lorentz_dist_sq_rows_fwd_bwd_4096x33_vs_1200", |b| {
        let mut tape = Tape::new();
        b.iter(|| {
            tape.reset();
            let u = tape.leaf_copy(black_box(&users));
            let v = tape.leaf_copy(black_box(&items));
            let d = tape.lorentz_dist_sq_rows(u, v, Arc::clone(&idx));
            let loss = tape.mean_all(d);
            let grads = tape.backward(loss);
            let out = grads.wrt(v).map(|g| g.max_abs()).unwrap_or(0.0);
            tape.recycle(grads);
            out
        })
    });
    match threads {
        Some(t) => std::env::set_var("TAXOREC_THREADS", t),
        None => std::env::remove_var("TAXOREC_THREADS"),
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_autodiff, bench_train_fit_kernels
}
criterion_main!(benches);
