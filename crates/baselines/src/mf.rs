//! Matrix-factorization baselines: BPRMF, NMF, NeuMF (paper §V-A.3,
//! "general recommendation methods").

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use taxorec_autodiff::{Csr, Matrix, Tape, Var};
use taxorec_core::init;
use taxorec_data::{Dataset, Recommender, Split};

use crate::common::{Score, Scored, Step, TrainOpts};

// ---------------------------------------------------------------------------
// BPRMF — Rendle et al., UAI 2009.
// ---------------------------------------------------------------------------

/// Bayesian personalized ranking over a matrix-factorization scorer:
/// `x̂_uv = p_u · q_v`, trained with the pairwise log-sigmoid objective.
pub struct Bprmf {
    opts: TrainOpts,
    out: Scored,
}

impl Bprmf {
    /// Creates an untrained BPRMF model.
    pub fn new(opts: TrainOpts) -> Self {
        Self {
            opts,
            out: Scored::default(),
        }
    }
}

impl Recommender for Bprmf {
    fn name(&self) -> &str {
        "BPRMF"
    }

    fn fit(&mut self, dataset: &Dataset, split: &Split) {
        let mut rng = StdRng::seed_from_u64(self.opts.seed);
        let mut p = init::normal_matrix(&mut rng, dataset.n_users, self.opts.dim, 0.1);
        let mut q = init::normal_matrix(&mut rng, dataset.n_items, self.opts.dim, 0.1);
        let params = &mut [(&mut p, Step::Sgd), (&mut q, Step::Sgd)];
        self.opts
            .fit_triplets(dataset, split, &mut rng, params, None, |tape, w, b| {
                let (gu, gp, gq) = b.gather(tape, w[0], w[1], 0);
                Score::Dot.triplet_loss(tape, gu, gp, gq, 0.0)
            });
        self.out = Scored::new(p, q, Score::Dot);
    }

    fn scores_for_user(&self, user: u32) -> Vec<f64> {
        self.out.scores_for_user(user)
    }
}

// ---------------------------------------------------------------------------
// NMF — Lee & Seung, Nature 1999 (multiplicative updates).
// ---------------------------------------------------------------------------

/// Non-negative matrix factorization of the binary implicit matrix via the
/// classical multiplicative update rules, `X ≈ W·H`.
pub struct Nmf {
    opts: TrainOpts,
    w: Matrix,
    h: Matrix,
}

impl Nmf {
    /// Creates an untrained NMF model.
    pub fn new(opts: TrainOpts) -> Self {
        Self {
            opts,
            w: Matrix::zeros(0, 0),
            h: Matrix::zeros(0, 0),
        }
    }
}

impl Recommender for Nmf {
    fn name(&self) -> &str {
        "NMF"
    }

    fn fit(&mut self, dataset: &Dataset, split: &Split) {
        let mut rng = StdRng::seed_from_u64(self.opts.seed);
        let d = self.opts.dim;
        // Non-negative init in (0, 1).
        let uniform = |rng: &mut StdRng, r: usize, c: usize| {
            use rand::RngExt;
            let data = (0..r * c)
                .map(|_| rng.random::<f64>() * 0.5 + 1e-3)
                .collect();
            Matrix::from_vec(r, c, data)
        };
        self.w = uniform(&mut rng, dataset.n_users, d);
        self.h = uniform(&mut rng, d, dataset.n_items);
        let triplets: Vec<(usize, usize, f64)> = split
            .train
            .iter()
            .enumerate()
            .flat_map(|(u, items)| items.iter().map(move |&v| (u, v as usize, 1.0)))
            .collect();
        let x = Csr::from_triplets(dataset.n_users, dataset.n_items, &triplets);
        let xt = x.transpose();
        const EPS: f64 = 1e-9;
        for _ in 0..self.opts.epochs {
            // H ← H ⊙ (Wᵀ X) / (Wᵀ W H)
            let wt = self.w.transpose();
            let wtx = xt.matmul(&self.w).transpose(); // (d × n_items) as (WᵀX)
            let wtwh = wt.matmul(&self.w).matmul(&self.h);
            for i in 0..self.h.data().len() {
                let num = wtx.data()[i];
                let den = wtwh.data()[i] + EPS;
                self.h.data_mut()[i] *= num / den;
            }
            // W ← W ⊙ (X Hᵀ) / (W H Hᵀ)
            let xht = x.matmul(&self.h.transpose()); // n_users × d
            let hht = self.h.matmul(&self.h.transpose()); // d × d
            let whht = self.w.matmul(&hht);
            for i in 0..self.w.data().len() {
                let num = xht.data()[i];
                let den = whht.data()[i] + EPS;
                self.w.data_mut()[i] *= num / den;
            }
        }
    }

    fn scores_for_user(&self, user: u32) -> Vec<f64> {
        let urow = self.w.row(user as usize);
        (0..self.h.cols())
            .map(|v| (0..self.h.rows()).map(|k| urow[k] * self.h.get(k, v)).sum())
            .collect()
    }
}

// ---------------------------------------------------------------------------
// NeuMF — He et al., WWW 2017.
// ---------------------------------------------------------------------------

/// Neural collaborative filtering: a GMF branch (`u ⊙ v`) and an MLP branch
/// over the pair, fused by a linear head and trained with binary
/// cross-entropy on sampled negatives.
pub struct Neumf {
    opts: TrainOpts,
    /// `[p_g, q_g, p_m, q_m, w1a, w1b, w2, h_g, h_m]`: the GMF embeddings,
    /// the MLP embeddings and weights (`[U,V]·W1 = U·W1a + V·W1b`), and the
    /// fusion head over `[gmf ⊙; mlp hidden]`, split in two like `W1`.
    params: Vec<Matrix>,
}

impl Neumf {
    /// Creates an untrained NeuMF model.
    pub fn new(opts: TrainOpts) -> Self {
        Self {
            opts,
            params: Vec::new(),
        }
    }

    /// Builds the fused `(rows × 1)` logit for gathered GMF user/item rows
    /// `g` and MLP user/item rows `m`, over the weight leaves `w[4..]`.
    fn score(tape: &mut Tape, w: &[Var], g: (Var, Var), m: (Var, Var)) -> Var {
        let gmf = tape.hadamard(g.0, g.1);
        let ua = tape.matmul(m.0, w[4]);
        let vb = tape.matmul(m.1, w[5]);
        let pre1 = tape.add(ua, vb);
        let hid1 = tape.relu(pre1);
        let pre2 = tape.matmul(hid1, w[6]);
        let hid2 = tape.relu(pre2);
        let s_g = tape.matmul(gmf, w[7]);
        let s_m = tape.matmul(hid2, w[8]);
        tape.add(s_g, s_m)
    }
}

impl Recommender for Neumf {
    fn name(&self) -> &str {
        "NeuMF"
    }

    fn fit(&mut self, dataset: &Dataset, split: &Split) {
        let mut rng = StdRng::seed_from_u64(self.opts.seed);
        let d = (self.opts.dim / 2).max(2);
        let scale = (1.0 / d as f64).sqrt();
        let (n_users, n_items) = (dataset.n_users, dataset.n_items);
        let mut init = |r, c, std| init::normal_matrix(&mut rng, r, c, std);
        let mut params = vec![
            init(n_users, d, 0.1),
            init(n_items, d, 0.1),
            init(n_users, d, 0.1),
            init(n_items, d, 0.1),
            init(d, d, scale),
            init(d, d, scale),
            init(d, d, scale),
            init(d, 1, scale),
            init(d, 1, scale),
        ];
        let blocks = &mut params
            .iter_mut()
            .map(|m| (m, Step::Sgd))
            .collect::<Vec<_>>();
        self.opts
            .fit_triplets(dataset, split, &mut rng, blocks, None, |tape, w, b| {
                let (gu_g, gp_g, gn_g) = b.gather(tape, w[0], w[1], 0);
                let (gu_m, gp_m, gn_m) = b.gather(tape, w[2], w[3], 0);
                let s_pos = Self::score(tape, w, (gu_g, gp_g), (gu_m, gp_m));
                let s_neg = Self::score(tape, w, (gu_g, gn_g), (gu_m, gn_m));
                // BCE: positives label 1 → softplus(−s); negatives label 0
                // → softplus(s).
                let nsp = tape.neg(s_pos);
                let l_pos = tape.softplus(nsp);
                let l_neg = tape.softplus(s_neg);
                let l_sum = tape.add(l_pos, l_neg);
                tape.mean_all(l_sum)
            });
        self.params = params;
    }

    fn scores_for_user(&self, user: u32) -> Vec<f64> {
        // The training forward for one user against all items, values only.
        let n_items = self.params[1].rows();
        let mut tape = Tape::new();
        let w: Vec<Var> = self.params.iter().map(|m| tape.leaf_copy(m)).collect();
        let users = Arc::new(vec![user as usize; n_items]);
        let items = Arc::new((0..n_items).collect::<Vec<_>>());
        let g = (
            tape.gather_rows(w[0], users.clone()),
            tape.gather_rows(w[1], items.clone()),
        );
        let m = (tape.gather_rows(w[2], users), tape.gather_rows(w[3], items));
        let s = Self::score(&mut tape, &w, g, m);
        tape.value(s).data().to_vec()
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
    fn bprmf_learns_train_preferences() {
        let (d, s) = setup();
        let mut m = Bprmf::new(TrainOpts::fast_test());
        m.fit(&d, &s);
        assert!(positives_beat_mean(&m, &s));
        assert!(m.scores_for_user(0).iter().all(|x| x.is_finite()));
    }

    #[test]
    fn nmf_learns_nonnegative_factors() {
        let (d, s) = setup();
        let mut m = Nmf::new(TrainOpts {
            epochs: 30,
            dim: 8,
            ..TrainOpts::fast_test()
        });
        m.fit(&d, &s);
        assert!(m.w.data().iter().all(|&x| x >= 0.0 && x.is_finite()));
        assert!(m.h.data().iter().all(|&x| x >= 0.0 && x.is_finite()));
        assert!(positives_beat_mean(&m, &s));
    }

    #[test]
    fn neumf_learns_train_preferences() {
        let (d, s) = setup();
        let mut m = Neumf::new(TrainOpts {
            epochs: 20,
            ..TrainOpts::fast_test()
        });
        m.fit(&d, &s);
        assert!(positives_beat_mean(&m, &s));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Bprmf::new(TrainOpts::default()).name(), "BPRMF");
        assert_eq!(Nmf::new(TrainOpts::default()).name(), "NMF");
        assert_eq!(Neumf::new(TrainOpts::default()).name(), "NeuMF");
    }
}
