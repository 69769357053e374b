//! Graph-based baselines: NGCF, LightGCN, HGCF (paper §V-A.3,
//! "graph based methods").

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use taxorec_autodiff::{Csr, Matrix, Tape, Var};
use taxorec_core::{init, TaxoRec, TaxoRecConfig};
use taxorec_data::{Dataset, Recommender, Split};

use crate::common::{propagate, sym_norm_adjacency, Score, Scored, Step, TrainOpts};

// ---------------------------------------------------------------------------
// LightGCN — He et al., SIGIR 2020.
// ---------------------------------------------------------------------------

/// LightGCN: parameter-free propagation `E^{l+1} = Â E^l` over the stacked
/// user/item graph; the final representation is the mean of layers
/// `0..=L`; trained with BPR.
pub struct LightGcn {
    opts: TrainOpts,
    layers: usize,
    out: Scored,
}

impl LightGcn {
    /// Creates an untrained LightGCN model with `layers` propagation steps.
    pub fn new(opts: TrainOpts, layers: usize) -> Self {
        Self {
            opts,
            layers,
            out: Scored::default(),
        }
    }
}

impl Recommender for LightGcn {
    fn name(&self) -> &str {
        "LightGCN"
    }

    fn fit(&mut self, dataset: &Dataset, split: &Split) {
        let mut rng = StdRng::seed_from_u64(self.opts.seed);
        let n_users = dataset.n_users;
        let mut emb = init::normal_matrix(&mut rng, n_users + dataset.n_items, self.opts.dim, 0.1);
        let adj = sym_norm_adjacency(dataset, split);
        let forward = |tape: &mut Tape, w: &[Var]| propagate(tape, w[0], None, &adj, self.layers);
        let params = &mut [(&mut emb, Step::Sgd)];
        self.opts
            .fit_triplets(dataset, split, &mut rng, params, None, |tape, w, b| {
                let e = forward(tape, w);
                let (gu, gp, gq) = b.gather(tape, e, e, n_users);
                Score::Dot.triplet_loss(tape, gu, gp, gq, 0.0)
            });
        self.out = Scored::propagated(Score::Dot, n_users, &[&emb], forward);
    }

    fn scores_for_user(&self, user: u32) -> Vec<f64> {
        self.out.scores_for_user(user)
    }
}

// ---------------------------------------------------------------------------
// NGCF — Wang et al., SIGIR 2019.
// ---------------------------------------------------------------------------

/// Neural graph collaborative filtering: per-layer transforms
/// `E^{l+1} = LeakyReLU(ÂE^l W₁ + (ÂE^l ⊙ E^l) W₂)`, layer outputs
/// summed, BPR loss.
pub struct Ngcf {
    opts: TrainOpts,
    layers: usize,
    out: Scored,
}

impl Ngcf {
    /// Creates an untrained NGCF model with `layers` propagation layers.
    pub fn new(opts: TrainOpts, layers: usize) -> Self {
        Self {
            opts,
            layers: layers.max(1),
            out: Scored::default(),
        }
    }
}

/// NGCF's propagation over the leaves `[E⁰, W₁ per layer…, W₂ per layer…]`.
fn ngcf_propagate(tape: &mut Tape, w: &[Var], adj: &Arc<Csr>) -> Var {
    let (w1, w2) = w[1..].split_at(w.len() / 2);
    let mut e = w[0];
    let mut acc = w[0];
    for (&w1, &w2) in w1.iter().zip(w2) {
        let ze = tape.spmm(adj, e);
        let a = tape.matmul(ze, w1);
        let inter = tape.hadamard(ze, e);
        let b = tape.matmul(inter, w2);
        let pre = tape.add(a, b);
        e = tape.leaky_relu(pre, 0.2);
        acc = tape.add(acc, e);
    }
    acc
}

impl Recommender for Ngcf {
    fn name(&self) -> &str {
        "NGCF"
    }

    fn fit(&mut self, dataset: &Dataset, split: &Split) {
        let mut rng = StdRng::seed_from_u64(self.opts.seed);
        let (n_users, n, d) = (
            dataset.n_users,
            dataset.n_users + dataset.n_items,
            self.opts.dim,
        );
        let scale = (1.0 / d as f64).sqrt();
        // E⁰, then every layer's W₁, then every layer's W₂.
        let mut blocks = vec![init::normal_matrix(&mut rng, n, d, 0.1)];
        blocks.extend((0..2 * self.layers).map(|_| init::normal_matrix(&mut rng, d, d, scale)));
        let adj = sym_norm_adjacency(dataset, split);
        let forward = |tape: &mut Tape, w: &[Var]| ngcf_propagate(tape, w, &adj);
        let params = &mut blocks
            .iter_mut()
            .map(|m| (m, Step::Sgd))
            .collect::<Vec<_>>();
        self.opts
            .fit_triplets(dataset, split, &mut rng, params, None, |tape, w, b| {
                let e = forward(tape, w);
                let (gu, gp, gq) = b.gather(tape, e, e, n_users);
                Score::Dot.triplet_loss(tape, gu, gp, gq, 0.0)
            });
        let blocks: Vec<&Matrix> = blocks.iter().collect();
        self.out = Scored::propagated(Score::Dot, n_users, &blocks, forward);
    }

    fn scores_for_user(&self, user: u32) -> Vec<f64> {
        self.out.scores_for_user(user)
    }
}

// ---------------------------------------------------------------------------
// HGCF — Sun et al., WWW 2021.
// ---------------------------------------------------------------------------

/// Hyperbolic graph convolutional collaborative filtering: log-map to the
/// tangent space, multi-layer propagation, exp-map back, triplet margin
/// loss with Riemannian SGD.
///
/// Architecturally this is exactly the tag-free core of TaxoRec (the
/// paper describes TaxoRec as HGCF plus the tag/taxonomy machinery), so
/// this wrapper runs [`TaxoRec`] with tags and taxonomy disabled.
pub struct Hgcf {
    inner: TaxoRec,
}

impl Hgcf {
    /// Creates an untrained HGCF model.
    ///
    /// Optimizer defaults (soft hinge, margin 1, Riemannian lr 10) come
    /// from the validation grid search recorded in EXPERIMENTS.md — the
    /// hard hinge freezes at reproduction scale.
    pub fn new(opts: TrainOpts, layers: usize) -> Self {
        let cfg = TaxoRecConfig {
            dim_ir: opts.dim,
            gcn_layers: layers,
            margin: 1.0,
            soft_hinge: true,
            lr: 10.0,
            epochs: opts.epochs.max(100),
            negatives: opts.negatives.max(4),
            batch_size: opts.batch,
            seed: opts.seed,
            ..TaxoRecConfig::default()
        }
        .hgcf();
        Self {
            inner: TaxoRec::new(cfg),
        }
    }
}

impl Recommender for Hgcf {
    fn name(&self) -> &str {
        "HGCF"
    }

    fn fit(&mut self, dataset: &Dataset, split: &Split) {
        self.inner.fit(dataset, split);
    }

    fn scores_for_user(&self, user: u32) -> Vec<f64> {
        self.inner.scores_for_user(user)
    }

    /// The inner [`TaxoRec`]'s fused block ranking.
    fn top_k_block(
        &self,
        users: &[u32],
        k: usize,
        exclude: &dyn Fn(usize, u32) -> bool,
    ) -> Vec<Vec<(u32, f64)>> {
        self.inner.top_k_block(users, k, exclude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::positives_beat_mean;
    use taxorec_data::{generate_preset, Preset, Scale};

    fn setup() -> (Dataset, Split) {
        let d = generate_preset(Preset::Ciao, Scale::Tiny);
        let s = Split::standard(&d);
        (d, s)
    }

    #[test]
    fn lightgcn_learns() {
        let (d, s) = setup();
        let mut m = LightGcn::new(TrainOpts::fast_test(), 2);
        m.fit(&d, &s);
        assert!(positives_beat_mean(&m, &s));
    }

    #[test]
    fn ngcf_learns() {
        let (d, s) = setup();
        let mut m = Ngcf::new(
            TrainOpts {
                epochs: 30,
                lr: 0.2,
                ..TrainOpts::fast_test()
            },
            2,
        );
        m.fit(&d, &s);
        assert!(positives_beat_mean(&m, &s));
    }

    #[test]
    fn hgcf_learns() {
        let (d, s) = setup();
        let mut m = Hgcf::new(
            TrainOpts {
                epochs: 10,
                ..TrainOpts::fast_test()
            },
            2,
        );
        m.fit(&d, &s);
        assert!(positives_beat_mean(&m, &s));
        assert_eq!(m.name(), "HGCF");
    }
}
