//! The Euclidean "CML + Agg" ablation of the paper's Table III: CML's
//! triplet hinge over Euclidean distances, but with the tag-enhanced
//! aggregation mechanism transplanted into Euclidean space — item inputs
//! are enriched with their mean tag embedding (local aggregation) and the
//! stacked user/item embeddings are propagated over the bipartite graph
//! (global aggregation).

use rand::rngs::StdRng;
use rand::SeedableRng;
use taxorec_autodiff::{Tape, Var};
use taxorec_core::init;
use taxorec_data::{Dataset, Recommender, Split};

use crate::common::{item_tag_mean, propagate, sym_norm_adjacency, Score, Scored, Step, TrainOpts};

/// CML + tag-enhanced aggregation in Euclidean space (Table III row 2).
pub struct CmlAgg {
    opts: TrainOpts,
    layers: usize,
    out: Scored,
}

impl CmlAgg {
    /// Creates an untrained CML+Agg model with `layers` propagation steps.
    pub fn new(opts: TrainOpts, layers: usize) -> Self {
        Self {
            opts,
            layers,
            out: Scored::default(),
        }
    }
}

impl Recommender for CmlAgg {
    fn name(&self) -> &str {
        "CML+Agg"
    }

    fn fit(&mut self, dataset: &Dataset, split: &Split) {
        let mut rng = StdRng::seed_from_u64(self.opts.seed);
        let (n_users, d) = (dataset.n_users, self.opts.dim);
        let mut emb = init::normal_matrix(&mut rng, n_users + dataset.n_items, d, 0.1);
        let mut tags = init::normal_matrix(&mut rng, dataset.n_tags.max(1), d, 0.1);
        let item_tag = item_tag_mean(dataset);
        let adj = sym_norm_adjacency(dataset, split);
        let forward = |tape: &mut Tape, w: &[Var]| {
            propagate(tape, w[0], Some((&item_tag, w[1])), &adj, self.layers)
        };
        let params = &mut [(&mut emb, Step::Sgd), (&mut tags, Step::Sgd)];
        self.opts
            .fit_triplets(dataset, split, &mut rng, params, None, |tape, w, b| {
                let e = forward(tape, w);
                let (gu, gp, gq) = b.gather(tape, e, e, n_users);
                Score::SqDist.triplet_loss(tape, gu, gp, gq, self.opts.margin)
            });
        self.out = Scored::propagated(Score::SqDist, n_users, &[&emb, &tags], forward);
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
    fn cml_agg_learns() {
        let d = generate_preset(Preset::Ciao, Scale::Tiny);
        let s = Split::standard(&d);
        let mut m = CmlAgg::new(
            TrainOpts {
                lr: 0.5,
                ..TrainOpts::fast_test()
            },
            2,
        );
        m.fit(&d, &s);
        assert!(positives_beat_mean(&m, &s));
        assert_eq!(m.name(), "CML+Agg");
    }
}
