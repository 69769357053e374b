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
use taxorec_core::init;
use taxorec_data::{Dataset, NegativeSampler, Recommender, Split};
use taxorec_geometry::lorentz;

use crate::common::{Param, Score, Scored, Step, TrainOpts};

/// Hyperbolic metric learning on the Lorentz model.
pub struct HyperMl {
    opts: TrainOpts,
    out: Scored,
}

impl HyperMl {
    /// Creates an untrained HyperML model.
    pub fn new(opts: TrainOpts) -> Self {
        Self {
            opts,
            out: Scored::default(),
        }
    }
}

/// Hard-negative mining against the current embeddings, as HyperML does:
/// at reproduction scale uniform negatives rarely violate the margin, and
/// the hinge saturates. Each negative becomes the closest of itself and
/// nine fresh draws.
fn mine_hard_negatives(
    params: &[Param],
    users: &[u32],
    neg: &mut [u32],
    sampler: &NegativeSampler,
    rng: &mut StdRng,
) {
    let (u, v) = (&*params[0].0, &*params[1].0);
    for (i, &user) in users.iter().enumerate() {
        let urow = u.row(user as usize);
        let mut best = neg[i];
        let mut best_d = lorentz::distance_sq(urow, v.row(best as usize));
        for _ in 0..9 {
            let cand = sampler.sample(user, rng);
            let d = lorentz::distance_sq(urow, v.row(cand as usize));
            if d < best_d {
                best_d = d;
                best = cand;
            }
        }
        neg[i] = best;
    }
}

impl Recommender for HyperMl {
    fn name(&self) -> &str {
        "HyperML"
    }

    fn fit(&mut self, dataset: &Dataset, split: &Split) {
        let mut rng = StdRng::seed_from_u64(self.opts.seed);
        let mut u = init::lorentz_matrix(&mut rng, dataset.n_users, self.opts.dim, 0.1);
        let mut v = init::lorentz_matrix(&mut rng, dataset.n_items, self.opts.dim, 0.1);
        let params = &mut [(&mut u, Step::Lorentz), (&mut v, Step::Lorentz)];
        let mine = Some(&mut mine_hard_negatives as _);
        self.opts
            .fit_triplets(dataset, split, &mut rng, params, mine, |tape, w, b| {
                let (gu, gp, gq) = b.gather(tape, w[0], w[1], 0);
                Score::LorentzSqDist.triplet_loss(tape, gu, gp, gq, self.opts.margin)
            });
        self.out = Scored::new(u, v, Score::LorentzSqDist);
    }

    fn scores_for_user(&self, user: u32) -> Vec<f64> {
        self.out.scores_for_user(user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::positives_beat_mean;
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
        for r in 0..m.out.users.rows() {
            assert!(lorentz::constraint_residual(m.out.users.row(r)) < 1e-7);
        }
        // Training positives score above the catalogue mean.
        assert!(positives_beat_mean(&m, &s));
    }
}
