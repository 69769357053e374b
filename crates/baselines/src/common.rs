//! Shared infrastructure for the 14 baseline recommenders: training
//! options, triplet/BPR sampling, the one training loop every
//! tape-trained baseline runs ([`TrainOpts::fit_triplets`]), loss
//! builders, graph normalizations and propagation, and the
//! final-embedding scorer ([`Scored`]).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use taxorec_autodiff::{Csr, Matrix, Tape, Var};
use taxorec_core::optim;
use taxorec_data::{Dataset, NegativeSampler, Split};
use taxorec_geometry::{lorentz, vecops};

/// Training options shared by all baselines (each model maps them onto its
/// own parameterization).
#[derive(Clone, Debug)]
pub struct TrainOpts {
    /// Embedding dimensionality (total; tag-based models may subdivide).
    pub dim: usize,
    /// Learning rate.
    pub lr: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Triplets per minibatch.
    pub batch: usize,
    /// Negative samples per positive.
    pub negatives: usize,
    /// Margin for hinge-style losses.
    pub margin: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TrainOpts {
    fn default() -> Self {
        Self {
            dim: 32,
            lr: 0.1,
            epochs: 60,
            batch: 4096,
            negatives: 1,
            margin: 0.5,
            seed: 42,
        }
    }
}

impl TrainOpts {
    /// Faster settings for unit tests.
    pub fn fast_test() -> Self {
        Self {
            dim: 12,
            epochs: 30,
            lr: 0.3,
            ..Self::default()
        }
    }

    /// The training loop of every tape-trained baseline.
    ///
    /// Runs `self.epochs` epochs of shuffled triplets from
    /// [`epoch_triplets`], cut into mini-batches of `self.batch`. Every batch
    /// enters each block of `params`, in order, as a leaf of one reused tape.
    /// `loss` builds the batch loss over those leaves, and the backward's
    /// gradient steps each block at `self.lr` as its [`Step`] says. `mine`,
    /// when given, runs once per epoch, after sampling and before the first
    /// batch: it sees the parameters, the epoch's users and negatives (which
    /// it may replace), the sampler and the RNG. A split without training
    /// pairs trains nothing.
    pub fn fit_triplets(
        &self,
        dataset: &Dataset,
        split: &Split,
        rng: &mut StdRng,
        params: &mut [Param],
        mut mine: Option<Mine>,
        mut loss: impl FnMut(&mut Tape, &[Var], &Batch) -> Var,
    ) {
        let sampler = NegativeSampler::new(dataset.n_items, split.train.clone());
        let mut pairs = split.train_pairs();
        if pairs.is_empty() {
            return;
        }
        let mut tape = Tape::new();
        let mut leaves = Vec::with_capacity(params.len());
        for _ in 0..self.epochs {
            let (users, pos, mut neg) = epoch_triplets(&mut pairs, &sampler, self.negatives, rng);
            if let Some(mine) = mine.as_mut() {
                mine(params, &users, &mut neg, &sampler, rng);
            }
            for lo in (0..users.len()).step_by(self.batch) {
                let hi = (lo + self.batch).min(users.len());
                let batch = Batch {
                    users: &users[lo..hi],
                    pos: &pos[lo..hi],
                    neg: &neg[lo..hi],
                };
                tape.reset();
                leaves.clear();
                leaves.extend(params.iter().map(|(m, _)| tape.leaf_copy(m)));
                let l = loss(&mut tape, &leaves, &batch);
                let grads = tape.backward(l);
                for ((m, step), &leaf) in params.iter_mut().zip(&leaves) {
                    if let Some(g) = grads.wrt(leaf) {
                        match step {
                            Step::Lorentz => optim::rsgd_lorentz(m, g, self.lr),
                            Step::Sgd | Step::SgdUnitBall => optim::sgd(m, g, self.lr),
                        }
                    }
                    if let Step::SgdUnitBall = step {
                        unit_ball_project(m);
                    }
                }
                tape.recycle(grads);
            }
        }
    }
}

/// One epoch's worth of shuffled `(user, positive, negative)` triplets.
pub fn epoch_triplets(
    pairs: &mut [(u32, u32)],
    sampler: &NegativeSampler,
    negatives: usize,
    rng: &mut StdRng,
) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    pairs.shuffle(rng);
    let mut users = Vec::with_capacity(pairs.len() * negatives);
    let mut pos = Vec::with_capacity(users.capacity());
    let mut neg = Vec::with_capacity(users.capacity());
    for &(u, v) in pairs.iter() {
        for _ in 0..negatives.max(1) {
            users.push(u);
            pos.push(v);
            neg.push(sampler.sample(u, rng));
        }
    }
    (users, pos, neg)
}

/// How [`TrainOpts::fit_triplets`] steps a parameter block after each backward.
#[derive(Clone, Copy, Debug)]
pub enum Step {
    /// Euclidean SGD (`optim::sgd`).
    Sgd,
    /// SGD, then every row clipped into the unit ball: the norm
    /// constraint of CML-family models.
    SgdUnitBall,
    /// Riemannian SGD on the hyperboloid (`optim::rsgd_lorentz`).
    Lorentz,
}

/// A parameter block: the matrix a model trains, tagged with its step.
pub type Param<'a> = (&'a mut Matrix, Step);

/// The per-epoch hook of [`TrainOpts::fit_triplets`]: parameters, users,
/// negatives (which it may replace), sampler, RNG.
pub type Mine<'a> = &'a mut dyn FnMut(&[Param], &[u32], &mut [u32], &NegativeSampler, &mut StdRng);

/// One mini-batch of `(user, positive, negative)` triplets.
pub struct Batch<'a> {
    /// User ids.
    pub users: &'a [u32],
    /// Positive item ids.
    pub pos: &'a [u32],
    /// Sampled negative item ids.
    pub neg: &'a [u32],
}

impl Batch<'_> {
    /// Gathers the batch's user rows of `users` and its positive and
    /// negative rows of `items`. Item ids are shifted by `offset`: the
    /// user rows ahead of the items in a stacked table.
    pub fn gather(
        &self,
        tape: &mut Tape,
        users: Var,
        items: Var,
        offset: usize,
    ) -> (Var, Var, Var) {
        let ids =
            |ids: &[u32], offset| Arc::new(ids.iter().map(|&x| x as usize + offset).collect());
        let gu = tape.gather_rows(users, ids(self.users, 0));
        let gp = tape.gather_rows(items, ids(self.pos, offset));
        let gq = tape.gather_rows(items, ids(self.neg, offset));
        (gu, gp, gq)
    }
}

/// The per-item score of a [`Scored`] model, which also picks the
/// triplet loss the model trains with.
#[derive(Clone, Copy, Debug, Default)]
pub enum Score {
    /// Inner product `u·v`, trained with BPR.
    #[default]
    Dot,
    /// Negated squared Euclidean distance, trained with the hinge.
    SqDist,
    /// Negated squared Lorentz distance, trained with the hinge.
    LorentzSqDist,
}

impl Score {
    fn of(self, u: &[f64], v: &[f64]) -> f64 {
        match self {
            Score::Dot => vecops::dot(u, v),
            Score::SqDist => -vecops::sqdist(u, v),
            Score::LorentzSqDist => -lorentz::distance_sq(u, v),
        }
    }

    /// The batch loss over gathered user, positive and negative rows:
    /// BPR over inner products, or the `margin` hinge over distances.
    pub fn triplet_loss(self, tape: &mut Tape, gu: Var, gp: Var, gq: Var, margin: f64) -> Var {
        let (pos, neg) = match self {
            Score::Dot => {
                let sp = tape.row_dot(gu, gp);
                let sn = tape.row_dot(gu, gq);
                return bpr_loss(tape, sp, sn);
            }
            Score::SqDist => (euclid_dist_sq(tape, gu, gp), euclid_dist_sq(tape, gu, gq)),
            Score::LorentzSqDist => (tape.lorentz_dist_sq(gu, gp), tape.lorentz_dist_sq(gu, gq)),
        };
        hinge_loss(tape, pos, neg, margin)
    }
}

/// A fitted model's final user and item tables and the score between
/// them: the scorer of every baseline whose score is one inner product
/// or distance per item. Empty until fitted.
#[derive(Clone, Debug, Default)]
pub struct Scored {
    /// One row per user.
    pub users: Matrix,
    /// One row per item.
    pub items: Matrix,
    /// The per-item score.
    pub score: Score,
}

impl Scored {
    /// The scorer over `users` and `items`.
    pub fn new(users: Matrix, items: Matrix, score: Score) -> Self {
        Self {
            users,
            items,
            score,
        }
    }

    /// The end-of-fit pass of the propagating models: `forward` over
    /// leaves holding `params` gives a stacked table, users first.
    pub fn propagated(
        score: Score,
        n_users: usize,
        params: &[&Matrix],
        forward: impl FnOnce(&mut Tape, &[Var]) -> Var,
    ) -> Self {
        let mut tape = Tape::new();
        let leaves: Vec<Var> = params.iter().map(|m| tape.leaf_copy(m)).collect();
        let out = forward(&mut tape, &leaves);
        let emb = tape.value(out);
        let d = emb.cols();
        let (users, items) = emb.data().split_at(n_users * d);
        let users = Matrix::from_vec(n_users, d, users.to_vec());
        let items = Matrix::from_vec(emb.rows() - n_users, d, items.to_vec());
        Self::new(users, items, score)
    }

    /// Every item's score for `user`.
    pub fn scores_for_user(&self, user: u32) -> Vec<f64> {
        let urow = self.users.row(user as usize);
        (0..self.items.rows())
            .map(|v| self.score.of(urow, self.items.row(v)))
            .collect()
    }
}

/// BPR loss `mean(softplus(−(score_pos − score_neg)))` (Rendle et al.).
pub fn bpr_loss(tape: &mut Tape, score_pos: Var, score_neg: Var) -> Var {
    let diff = tape.sub(score_pos, score_neg);
    let ndiff = tape.neg(diff);
    let sp = tape.softplus(ndiff);
    tape.mean_all(sp)
}

/// Hinge loss `mean([margin + d_pos − d_neg]₊)` over *distances* (smaller
/// is better).
pub fn hinge_loss(tape: &mut Tape, d_pos: Var, d_neg: Var, margin: f64) -> Var {
    let diff = tape.sub(d_pos, d_neg);
    let m = tape.add_scalar(diff, margin);
    let h = tape.relu(m);
    tape.mean_all(h)
}

/// Rowwise squared Euclidean distance `‖a − b‖²` → `(n×1)`.
pub fn euclid_dist_sq(tape: &mut Tape, a: Var, b: Var) -> Var {
    let d = tape.sub(a, b);
    tape.row_sqnorm(d)
}

/// Clips every row of a parameter matrix into the Euclidean unit ball —
/// the norm constraint of CML-family models.
pub fn unit_ball_project(m: &mut Matrix) {
    for r in 0..m.rows() {
        taxorec_geometry::vecops::clip_norm(m.row_mut(r), 1.0);
    }
}

/// Symmetrically normalized bipartite adjacency
/// `Â = D^{-1/2} A D^{-1/2}` over the stacked `(users + items)` node set —
/// LightGCN/NGCF propagation. No self-loops (LightGCN's design).
pub fn sym_norm_adjacency(dataset: &Dataset, split: &Split) -> Arc<Csr> {
    let n_users = dataset.n_users;
    let n = n_users + dataset.n_items;
    let mut deg = vec![0usize; n];
    for (u, items) in split.train.iter().enumerate() {
        deg[u] += items.len();
        for &v in items {
            deg[n_users + v as usize] += 1;
        }
    }
    let mut triplets = Vec::new();
    for (u, items) in split.train.iter().enumerate() {
        for &v in items {
            let w = 1.0 / ((deg[u] as f64).sqrt() * (deg[n_users + v as usize] as f64).sqrt());
            triplets.push((u, n_users + v as usize, w));
            triplets.push((n_users + v as usize, u, w));
        }
    }
    Arc::new(Csr::from_triplets(n, n, &triplets))
}

/// LightGCN propagation over the stacked user/item embedding `e0`: the
/// mean of layers `0..=layers` of `E^{l+1} = Â E^l`. With `tags`, each
/// item row first gets its mean tag embedding added, the tag-fused input
/// of AGCN and CML+Agg.
pub fn propagate(
    tape: &mut Tape,
    e0: Var,
    tags: Option<(&Arc<Csr>, Var)>,
    adj: &Arc<Csr>,
    layers: usize,
) -> Var {
    let fused = match tags {
        None => e0,
        Some((item_tag, t)) => {
            let n_items = item_tag.rows();
            let n_users = adj.rows() - n_items;
            let tag_part = tape.spmm(item_tag, t);
            let users0 = tape.slice_rows(e0, 0, n_users);
            let items0 = tape.slice_rows(e0, n_users, n_items);
            let items_in = tape.add(items0, tag_part);
            tape.concat_rows(users0, items_in)
        }
    };
    let mut acc = fused;
    let mut z = fused;
    for _ in 0..layers {
        z = tape.spmm(adj, z);
        acc = tape.add(acc, z);
    }
    tape.scale(acc, 1.0 / (layers + 1) as f64)
}

/// Row-normalized item→tag matrix (`n_items × n_tags`) — the Euclidean
/// tag-average used by the tag-based baselines.
pub fn item_tag_mean(dataset: &Dataset) -> Arc<Csr> {
    let mut triplets = Vec::new();
    for (v, tags) in dataset.item_tags.iter().enumerate() {
        for &t in tags {
            triplets.push((v, t as usize, 1.0));
        }
    }
    let mut m = Csr::from_triplets(dataset.n_items, dataset.n_tags.max(1), &triplets);
    m.normalize_rows();
    Arc::new(m)
}

/// User→item and item→user row-normalized adjacencies (mean neighborhood
/// aggregation) — TransCF's context construction.
pub fn neighbor_means(dataset: &Dataset, split: &Split) -> (Arc<Csr>, Arc<Csr>) {
    let mut ui = Vec::new();
    for (u, items) in split.train.iter().enumerate() {
        ui.extend(items.iter().map(|&v| (u, v as usize, 1.0)));
    }
    let mut m_ui = Csr::from_triplets(dataset.n_users, dataset.n_items, &ui);
    let mut m_iu = m_ui.transpose();
    m_ui.normalize_rows();
    m_iu.normalize_rows();
    (Arc::new(m_ui), Arc::new(m_iu))
}

/// True when the training positives score above the catalogue mean: the
/// "it learned something" check of every baseline's unit test.
#[cfg(test)]
pub(crate) fn positives_beat_mean(model: &dyn taxorec_data::Recommender, split: &Split) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use taxorec_data::{generate_preset, Preset, Scale};

    #[test]
    fn triplets_have_consistent_lengths_and_no_positive_negatives() {
        let d = generate_preset(Preset::Ciao, Scale::Tiny);
        let s = Split::standard(&d);
        let sampler = NegativeSampler::new(d.n_items, s.train.clone());
        let mut pairs = s.train_pairs();
        let mut rng = StdRng::seed_from_u64(1);
        let (u, p, n) = epoch_triplets(&mut pairs, &sampler, 2, &mut rng);
        assert_eq!(u.len(), pairs.len() * 2);
        assert_eq!(u.len(), p.len());
        assert_eq!(u.len(), n.len());
        for i in 0..u.len() {
            assert!(!sampler.is_positive(u[i], n[i]));
        }
    }

    #[test]
    fn bpr_loss_decreases_with_separation() {
        let mut tape = Tape::new();
        let close_p = tape.leaf(Matrix::from_vec(2, 1, vec![0.1, 0.1]));
        let close_n = tape.leaf(Matrix::from_vec(2, 1, vec![0.0, 0.0]));
        let far_p = tape.leaf(Matrix::from_vec(2, 1, vec![5.0, 5.0]));
        let l_close = bpr_loss(&mut tape, close_p, close_n);
        let l_far = bpr_loss(&mut tape, far_p, close_n);
        assert!(tape.value(l_far).as_scalar() < tape.value(l_close).as_scalar());
    }

    #[test]
    fn hinge_loss_zero_when_separated() {
        let mut tape = Tape::new();
        let d_pos = tape.leaf(Matrix::from_vec(1, 1, vec![0.1]));
        let d_neg = tape.leaf(Matrix::from_vec(1, 1, vec![5.0]));
        let l = hinge_loss(&mut tape, d_pos, d_neg, 0.5);
        assert_eq!(tape.value(l).as_scalar(), 0.0);
    }

    #[test]
    fn sym_norm_rows_bounded() {
        let d = generate_preset(Preset::Ciao, Scale::Tiny);
        let s = Split::standard(&d);
        let a = sym_norm_adjacency(&d, &s);
        assert_eq!(a.rows(), d.n_users + d.n_items);
        // Row sums of Â are ≤ sqrt(deg) normalization bound — just check
        // finiteness and positivity.
        for r in 0..a.rows() {
            for (_, w) in a.row_iter(r) {
                assert!(w > 0.0 && w <= 1.0);
            }
        }
    }

    #[test]
    fn item_tag_mean_rows_sum_to_one_when_tagged() {
        let d = generate_preset(Preset::Ciao, Scale::Tiny);
        let m = item_tag_mean(&d);
        for v in 0..d.n_items {
            if !d.item_tags[v].is_empty() {
                assert!((m.row_sum(v) - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn fit_triplets_keeps_each_block_on_its_manifold() {
        use taxorec_core::init;
        use taxorec_geometry::lorentz::constraint_residual;
        let d = generate_preset(Preset::Ciao, Scale::Tiny);
        let s = Split::standard(&d);
        let opts = TrainOpts {
            epochs: 3,
            batch: 256,
            lr: 5.0,
            ..TrainOpts::fast_test()
        };
        let mut rng = StdRng::seed_from_u64(1);
        // The Euclidean rows start far outside the unit ball.
        let mut u = init::normal_matrix(&mut rng, d.n_users, opts.dim, 2.0);
        let mut v = init::normal_matrix(&mut rng, d.n_items, opts.dim, 2.0);
        let mut x = init::lorentz_matrix(&mut rng, d.n_users, opts.dim, 0.1);
        let mut y = init::lorentz_matrix(&mut rng, d.n_items, opts.dim, 0.1);
        let y0 = y.clone();
        let params = &mut [
            (&mut u, Step::SgdUnitBall),
            (&mut v, Step::SgdUnitBall),
            (&mut x, Step::Lorentz),
            (&mut y, Step::Lorentz),
        ];
        opts.fit_triplets(&d, &s, &mut rng, params, None, |tape, w, b| {
            let (gu, gp, gq) = b.gather(tape, w[0], w[1], 0);
            let euclid = Score::SqDist.triplet_loss(tape, gu, gp, gq, 5.0);
            let (gx, gy, gz) = b.gather(tape, w[2], w[3], 0);
            let hyper = Score::LorentzSqDist.triplet_loss(tape, gx, gy, gz, 5.0);
            tape.add(euclid, hyper)
        });
        for m in [&u, &v] {
            for r in 0..m.rows() {
                assert!(vecops::norm(m.row(r)) <= 1.0 + 1e-9);
            }
        }
        assert!(y != y0, "the Lorentz block trained");
        for m in [&x, &y] {
            for r in 0..m.rows() {
                assert!(constraint_residual(m.row(r)) < 1e-7);
            }
        }
    }

    #[test]
    fn unit_ball_projection() {
        let mut m = Matrix::from_vec(2, 2, vec![3.0, 4.0, 0.1, 0.1]);
        unit_ball_project(&mut m);
        assert!((taxorec_geometry::vecops::norm(m.row(0)) - 1.0).abs() < 1e-9);
        assert_eq!(m.row(1), &[0.1, 0.1]);
    }
}
