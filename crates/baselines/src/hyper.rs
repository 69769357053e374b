//! HyperML (Vinh Tran et al., WSDM 2020): metric learning in hyperbolic
//! space, bridging CML and hyperbolic geometry.
//!
//! Embeddings live on the hyperboloid; the pull–push objective is the
//! triplet hinge over squared Lorentz distances, optimized with
//! Riemannian SGD. (Distinct from the paper's Hyper+CML ablation only in
//! lineage — HyperML is the published baseline this module reproduces;
//! TaxoRec's ablation shares the same core but runs inside the TaxoRec
//! training loop.)

use rand::rngs::StdRng;
use rand::SeedableRng;
use taxorec_autodiff::{Matrix, Tape};
use taxorec_core::{init, optim};
use taxorec_data::{Dataset, NegativeSampler, Recommender, Split};
use taxorec_geometry::lorentz;

use crate::common::{epoch_triplets, gather_indices, hinge_loss, TrainOpts};

/// Hyperbolic metric learning on the Lorentz model.
pub struct HyperMl {
    opts: TrainOpts,
    u: Matrix,
    v: Matrix,
}

impl HyperMl {
    /// Creates an untrained HyperML model.
    pub fn new(opts: TrainOpts) -> Self {
        Self {
            opts,
            u: Matrix::zeros(0, 0),
            v: Matrix::zeros(0, 0),
        }
    }
}

impl Recommender for HyperMl {
    fn name(&self) -> &str {
        "HyperML"
    }

    fn fit(&mut self, dataset: &Dataset, split: &Split) {
        let mut rng = StdRng::seed_from_u64(self.opts.seed);
        self.u = init::lorentz_matrix(&mut rng, dataset.n_users, self.opts.dim, 0.1);
        self.v = init::lorentz_matrix(&mut rng, dataset.n_items, self.opts.dim, 0.1);
        let sampler = NegativeSampler::new(dataset.n_items, split.train.clone());
        let mut pairs = split.train_pairs();
        if pairs.is_empty() {
            return;
        }
        for _ in 0..self.opts.epochs {
            let (users, pos, mut neg) =
                epoch_triplets(&mut pairs, &sampler, self.opts.negatives, &mut rng);
            // Hard-negative mining against the current embeddings, as
            // HyperML does: at reproduction scale uniform negatives rarely
            // violate the margin, and the hinge saturates.
            for (i, &u) in users.iter().enumerate() {
                let urow = self.u.row(u as usize);
                let mut best = neg[i];
                let mut best_d = lorentz::distance_sq(urow, self.v.row(best as usize));
                for _ in 0..9 {
                    let cand = sampler.sample(u, &mut rng);
                    let d = lorentz::distance_sq(urow, self.v.row(cand as usize));
                    if d < best_d {
                        best_d = d;
                        best = cand;
                    }
                }
                neg[i] = best;
            }
            for lo in (0..users.len()).step_by(self.opts.batch) {
                let hi = (lo + self.opts.batch).min(users.len());
                let mut tape = Tape::new();
                let u_leaf = tape.leaf(self.u.clone());
                let v_leaf = tape.leaf(self.v.clone());
                let gu = tape.gather_rows(u_leaf, gather_indices(&users[lo..hi]));
                let gp = tape.gather_rows(v_leaf, gather_indices(&pos[lo..hi]));
                let gq = tape.gather_rows(v_leaf, gather_indices(&neg[lo..hi]));
                let d_pos = tape.lorentz_dist_sq(gu, gp);
                let d_neg = tape.lorentz_dist_sq(gu, gq);
                let loss = hinge_loss(&mut tape, d_pos, d_neg, self.opts.margin);
                let mut grads = tape.backward(loss);
                if let Some(g) = grads.take(u_leaf) {
                    optim::rsgd_lorentz(&mut self.u, &g, self.opts.lr);
                }
                if let Some(g) = grads.take(v_leaf) {
                    optim::rsgd_lorentz(&mut self.v, &g, self.opts.lr);
                }
            }
        }
    }

    fn scores_for_user(&self, user: u32) -> Vec<f64> {
        let urow = self.u.row(user as usize);
        (0..self.v.rows())
            .map(|v| -lorentz::distance_sq(urow, self.v.row(v)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxorec_data::{generate_preset, Preset, Scale};

    #[test]
    fn hyperml_learns_and_stays_on_manifold() {
        let d = generate_preset(Preset::Ciao, Scale::Tiny);
        let s = Split::standard(&d);
        let mut m = HyperMl::new(TrainOpts {
            lr: 0.3,
            ..TrainOpts::fast_test()
        });
        m.fit(&d, &s);
        for r in 0..m.u.rows() {
            assert!(lorentz::constraint_residual(m.u.row(r)) < 1e-7);
        }
        // Training positives score above the catalogue mean.
        let mut pos = 0.0;
        let mut np = 0usize;
        let mut all = 0.0;
        let mut na = 0usize;
        for (u, items) in s.train.iter().enumerate() {
            if items.is_empty() {
                continue;
            }
            let sc = m.scores_for_user(u as u32);
            for &v in items {
                pos += sc[v as usize];
                np += 1;
            }
            all += sc.iter().sum::<f64>();
            na += sc.len();
        }
        assert!(pos / np as f64 > all / na as f64);
    }
}
