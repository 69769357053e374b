//! Graph-based baselines: NGCF, LightGCN, HGCF (paper §V-A.3,
//! "graph based methods").

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use taxorec_autodiff::{Matrix, Tape, Var};
use taxorec_core::{init, optim, TaxoRec, TaxoRecConfig};
use taxorec_data::{Dataset, NegativeSampler, Recommender, Split};
use taxorec_geometry::vecops;

use crate::common::{bpr_loss, epoch_triplets, sym_norm_adjacency, TrainOpts};

// ---------------------------------------------------------------------------
// LightGCN — He et al., SIGIR 2020.
// ---------------------------------------------------------------------------

/// LightGCN: parameter-free propagation `E^{l+1} = Â E^l` over the stacked
/// user/item graph; the final representation is the mean of layers
/// `0..=L`; trained with BPR.
pub struct LightGcn {
    opts: TrainOpts,
    layers: usize,
    emb: Matrix,
    final_emb: Matrix,
    n_users: usize,
}

impl LightGcn {
    /// Creates an untrained LightGCN model with `layers` propagation steps.
    pub fn new(opts: TrainOpts, layers: usize) -> Self {
        Self {
            opts,
            layers,
            emb: Matrix::zeros(0, 0),
            final_emb: Matrix::zeros(0, 0),
            n_users: 0,
        }
    }

    fn propagate(&self, tape: &mut Tape, e0: Var, adj: &Arc<taxorec_autodiff::Csr>) -> Var {
        let mut acc = e0;
        let mut z = e0;
        for _ in 0..self.layers {
            z = tape.spmm(adj, z);
            acc = tape.add(acc, z);
        }
        tape.scale(acc, 1.0 / (self.layers + 1) as f64)
    }
}

impl Recommender for LightGcn {
    fn name(&self) -> &str {
        "LightGCN"
    }

    fn fit(&mut self, dataset: &Dataset, split: &Split) {
        let mut rng = StdRng::seed_from_u64(self.opts.seed);
        self.n_users = dataset.n_users;
        let n = dataset.n_users + dataset.n_items;
        self.emb = init::normal_matrix(&mut rng, n, self.opts.dim, 0.1);
        let adj = sym_norm_adjacency(dataset, split);
        let sampler = NegativeSampler::new(dataset.n_items, split.train.clone());
        let mut pairs = split.train_pairs();
        if pairs.is_empty() {
            self.final_emb = self.emb.clone();
            return;
        }
        for _ in 0..self.opts.epochs {
            let (users, pos, neg) =
                epoch_triplets(&mut pairs, &sampler, self.opts.negatives, &mut rng);
            for lo in (0..users.len()).step_by(self.opts.batch) {
                let hi = (lo + self.opts.batch).min(users.len());
                let mut tape = Tape::new();
                let e0 = tape.leaf(self.emb.clone());
                let e = self.propagate(&mut tape, e0, &adj);
                let u_idx: Vec<usize> = users[lo..hi].iter().map(|&u| u as usize).collect();
                let p_idx: Vec<usize> = pos[lo..hi]
                    .iter()
                    .map(|&v| self.n_users + v as usize)
                    .collect();
                let n_idx: Vec<usize> = neg[lo..hi]
                    .iter()
                    .map(|&v| self.n_users + v as usize)
                    .collect();
                let gu = tape.gather_rows(e, Arc::new(u_idx));
                let gp = tape.gather_rows(e, Arc::new(p_idx));
                let gq = tape.gather_rows(e, Arc::new(n_idx));
                let sp = tape.row_dot(gu, gp);
                let sn = tape.row_dot(gu, gq);
                let loss = bpr_loss(&mut tape, sp, sn);
                let mut grads = tape.backward(loss);
                if let Some(g) = grads.take(e0) {
                    optim::sgd(&mut self.emb, &g, self.opts.lr);
                }
            }
        }
        // Materialize the propagated embeddings for inference.
        let mut tape = Tape::new();
        let e0 = tape.leaf(self.emb.clone());
        let e = self.propagate(&mut tape, e0, &adj);
        self.final_emb = tape.value(e).clone();
    }

    fn scores_for_user(&self, user: u32) -> Vec<f64> {
        let urow = self.final_emb.row(user as usize);
        let n_items = self.final_emb.rows() - self.n_users;
        (0..n_items)
            .map(|v| vecops::dot(urow, self.final_emb.row(self.n_users + v)))
            .collect()
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
    emb: Matrix,
    w1: Vec<Matrix>,
    w2: Vec<Matrix>,
    final_emb: Matrix,
    n_users: usize,
}

impl Ngcf {
    /// Creates an untrained NGCF model with `layers` propagation layers.
    pub fn new(opts: TrainOpts, layers: usize) -> Self {
        Self {
            opts,
            layers: layers.max(1),
            emb: Matrix::zeros(0, 0),
            w1: Vec::new(),
            w2: Vec::new(),
            final_emb: Matrix::zeros(0, 0),
            n_users: 0,
        }
    }

    fn propagate(
        &self,
        tape: &mut Tape,
        e0: Var,
        w1: &[Var],
        w2: &[Var],
        adj: &Arc<taxorec_autodiff::Csr>,
    ) -> Var {
        let mut e = e0;
        let mut acc = e0;
        for l in 0..self.layers {
            let ze = tape.spmm(adj, e);
            let a = tape.matmul(ze, w1[l]);
            let inter = tape.hadamard(ze, e);
            let b = tape.matmul(inter, w2[l]);
            let pre = tape.add(a, b);
            e = tape.leaky_relu(pre, 0.2);
            acc = tape.add(acc, e);
        }
        acc
    }
}

impl Recommender for Ngcf {
    fn name(&self) -> &str {
        "NGCF"
    }

    fn fit(&mut self, dataset: &Dataset, split: &Split) {
        let mut rng = StdRng::seed_from_u64(self.opts.seed);
        self.n_users = dataset.n_users;
        let n = dataset.n_users + dataset.n_items;
        let d = self.opts.dim;
        self.emb = init::normal_matrix(&mut rng, n, d, 0.1);
        let scale = (1.0 / d as f64).sqrt();
        self.w1 = (0..self.layers)
            .map(|_| init::normal_matrix(&mut rng, d, d, scale))
            .collect();
        self.w2 = (0..self.layers)
            .map(|_| init::normal_matrix(&mut rng, d, d, scale))
            .collect();
        let adj = sym_norm_adjacency(dataset, split);
        let sampler = NegativeSampler::new(dataset.n_items, split.train.clone());
        let mut pairs = split.train_pairs();
        if pairs.is_empty() {
            self.final_emb = self.emb.clone();
            return;
        }
        for _ in 0..self.opts.epochs {
            let (users, pos, neg) =
                epoch_triplets(&mut pairs, &sampler, self.opts.negatives, &mut rng);
            for lo in (0..users.len()).step_by(self.opts.batch) {
                let hi = (lo + self.opts.batch).min(users.len());
                let mut tape = Tape::new();
                let e0 = tape.leaf(self.emb.clone());
                let w1: Vec<Var> = self.w1.iter().map(|w| tape.leaf(w.clone())).collect();
                let w2: Vec<Var> = self.w2.iter().map(|w| tape.leaf(w.clone())).collect();
                let e = self.propagate(&mut tape, e0, &w1, &w2, &adj);
                let u_idx: Vec<usize> = users[lo..hi].iter().map(|&u| u as usize).collect();
                let p_idx: Vec<usize> = pos[lo..hi]
                    .iter()
                    .map(|&v| self.n_users + v as usize)
                    .collect();
                let n_idx: Vec<usize> = neg[lo..hi]
                    .iter()
                    .map(|&v| self.n_users + v as usize)
                    .collect();
                let gu = tape.gather_rows(e, Arc::new(u_idx));
                let gp = tape.gather_rows(e, Arc::new(p_idx));
                let gq = tape.gather_rows(e, Arc::new(n_idx));
                let sp = tape.row_dot(gu, gp);
                let sn = tape.row_dot(gu, gq);
                let loss = bpr_loss(&mut tape, sp, sn);
                let mut grads = tape.backward(loss);
                if let Some(g) = grads.take(e0) {
                    optim::sgd(&mut self.emb, &g, self.opts.lr);
                }
                for (l, wv) in w1.iter().enumerate() {
                    if let Some(g) = grads.take(*wv) {
                        optim::sgd(&mut self.w1[l], &g, self.opts.lr);
                    }
                }
                for (l, wv) in w2.iter().enumerate() {
                    if let Some(g) = grads.take(*wv) {
                        optim::sgd(&mut self.w2[l], &g, self.opts.lr);
                    }
                }
            }
        }
        let mut tape = Tape::new();
        let e0 = tape.leaf(self.emb.clone());
        let w1: Vec<Var> = self.w1.iter().map(|w| tape.leaf(w.clone())).collect();
        let w2: Vec<Var> = self.w2.iter().map(|w| tape.leaf(w.clone())).collect();
        let e = self.propagate(&mut tape, e0, &w1, &w2, &adj);
        self.final_emb = tape.value(e).clone();
    }

    fn scores_for_user(&self, user: u32) -> Vec<f64> {
        let urow = self.final_emb.row(user as usize);
        let n_items = self.final_emb.rows() - self.n_users;
        (0..n_items)
            .map(|v| vecops::dot(urow, self.final_emb.row(self.n_users + v)))
            .collect()
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxorec_data::{generate_preset, Preset, Scale};

    fn setup() -> (Dataset, Split) {
        let d = generate_preset(Preset::Ciao, Scale::Tiny);
        let s = Split::standard(&d);
        (d, s)
    }

    fn positives_beat_mean(model: &dyn Recommender, split: &Split) -> bool {
        let mut pos = 0.0;
        let mut np = 0usize;
        let mut all = 0.0;
        let mut na = 0usize;
        for (u, items) in split.train.iter().enumerate() {
            if items.is_empty() {
                continue;
            }
            let s = model.scores_for_user(u as u32);
            for &v in items {
                pos += s[v as usize];
                np += 1;
            }
            all += s.iter().sum::<f64>();
            na += s.len();
        }
        pos / np as f64 > all / na as f64
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
