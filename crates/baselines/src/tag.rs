//! Tag-based baselines: CMLF, AMF, AGCN (paper §V-A.3, "tag based
//! methods"). All three consume item tags *flat* — no hierarchy — which is
//! exactly the gap TaxoRec targets.

use rand::rngs::StdRng;
use rand::SeedableRng;
use taxorec_autodiff::{Matrix, Tape, Var};
use taxorec_core::init;
use taxorec_data::{Dataset, Recommender, Split};

use crate::common::{item_tag_mean, propagate, sym_norm_adjacency, Score, Scored, Step, TrainOpts};

/// The fit CMLF and AMF share: user points `u`, item points
/// `v + Ā_v·T` (the free part plus the mean of the item's tag
/// embeddings), each block stepped by `step`, trained with `score`'s
/// triplet loss.
fn fit_tag_fused(
    opts: &TrainOpts,
    dataset: &Dataset,
    split: &Split,
    step: Step,
    score: Score,
) -> Scored {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let d = opts.dim;
    let mut u = init::normal_matrix(&mut rng, dataset.n_users, d, 0.1);
    let mut v = init::normal_matrix(&mut rng, dataset.n_items, d, 0.1);
    let mut t = init::normal_matrix(&mut rng, dataset.n_tags.max(1), d, 0.1);
    let item_tag = item_tag_mean(dataset);
    let params = &mut [(&mut u, step), (&mut v, step), (&mut t, step)];
    opts.fit_triplets(dataset, split, &mut rng, params, None, |tape, w, b| {
        let tag_part = tape.spmm(&item_tag, w[2]);
        let items = tape.add(w[1], tag_part);
        let (gu, gp, gq) = b.gather(tape, w[0], items, 0);
        score.triplet_loss(tape, gu, gp, gq, opts.margin)
    });
    let mut items = item_tag.matmul(&t);
    items.add_assign(&v);
    Scored::new(u, items, score)
}

// ---------------------------------------------------------------------------
// CMLF — CML with tag features (Hsieh et al., WWW 2017, feature variant).
// ---------------------------------------------------------------------------

/// CML over tag-enriched item points: `q_v' = q_v + mean(tag embeddings)`,
/// trained with the standard CML hinge and norm constraint.
pub struct Cmlf {
    opts: TrainOpts,
    out: Scored,
}

impl Cmlf {
    /// Creates an untrained CMLF model.
    pub fn new(opts: TrainOpts) -> Self {
        Self {
            opts,
            out: Scored::default(),
        }
    }
}

impl Recommender for Cmlf {
    fn name(&self) -> &str {
        "CMLF"
    }

    fn fit(&mut self, dataset: &Dataset, split: &Split) {
        self.out = fit_tag_fused(&self.opts, dataset, split, Step::SgdUnitBall, Score::SqDist);
    }

    fn scores_for_user(&self, user: u32) -> Vec<f64> {
        self.out.scores_for_user(user)
    }
}

// ---------------------------------------------------------------------------
// AMF — aspect-based matrix factorization (Hou et al., WWW 2019).
// ---------------------------------------------------------------------------

/// Matrix factorization whose item factor fuses a free part with an
/// aspect (tag) part: `x̂_uv = p_u · (q_v + Ā_v·T)`, trained with BPR.
pub struct Amf {
    opts: TrainOpts,
    out: Scored,
}

impl Amf {
    /// Creates an untrained AMF model.
    pub fn new(opts: TrainOpts) -> Self {
        Self {
            opts,
            out: Scored::default(),
        }
    }
}

impl Recommender for Amf {
    fn name(&self) -> &str {
        "AMF"
    }

    fn fit(&mut self, dataset: &Dataset, split: &Split) {
        self.out = fit_tag_fused(&self.opts, dataset, split, Step::Sgd, Score::Dot);
    }

    fn scores_for_user(&self, user: u32) -> Vec<f64> {
        self.out.scores_for_user(user)
    }
}

// ---------------------------------------------------------------------------
// AGCN — adaptive graph convolutional network (Wu et al., SIGIR 2020).
// ---------------------------------------------------------------------------

/// Weight of AGCN's attribute-reconstruction loss.
const ATTR_WEIGHT: f64 = 0.3;

/// Joint item recommendation + attribute inference: item inputs fuse free
/// embeddings with projected tag attributes, LightGCN-style propagation,
/// and a joint BPR + attribute-reconstruction objective.
pub struct Agcn {
    opts: TrainOpts,
    layers: usize,
    out: Scored,
}

impl Agcn {
    /// Creates an untrained AGCN model.
    pub fn new(opts: TrainOpts, layers: usize) -> Self {
        Self {
            opts,
            layers,
            out: Scored::default(),
        }
    }
}

impl Recommender for Agcn {
    fn name(&self) -> &str {
        "AGCN"
    }

    fn fit(&mut self, dataset: &Dataset, split: &Split) {
        let mut rng = StdRng::seed_from_u64(self.opts.seed);
        let (n_users, n_items, d) = (dataset.n_users, dataset.n_items, self.opts.dim);
        let mut emb = init::normal_matrix(&mut rng, n_users + n_items, d, 0.1);
        let mut t = init::normal_matrix(&mut rng, dataset.n_tags.max(1), d, 0.1);
        let item_tag = item_tag_mean(dataset);
        let adj = sym_norm_adjacency(dataset, split);
        // Dense binary attribute target for the reconstruction loss.
        let mut attr_target = Matrix::zeros(n_items, dataset.n_tags.max(1));
        for (v, tags) in dataset.item_tags.iter().enumerate() {
            for &t in tags {
                attr_target.set(v, t as usize, 1.0);
            }
        }
        let forward = |tape: &mut Tape, w: &[Var]| {
            propagate(tape, w[0], Some((&item_tag, w[1])), &adj, self.layers)
        };
        let params = &mut [(&mut emb, Step::Sgd), (&mut t, Step::Sgd)];
        self.opts
            .fit_triplets(dataset, split, &mut rng, params, None, |tape, w, b| {
                let e = forward(tape, w);
                let (gu, gp, gq) = b.gather(tape, e, e, n_users);
                let l_bpr = Score::Dot.triplet_loss(tape, gu, gp, gq, 0.0);
                // Attribute inference: X̂ = E_items·Tᵀ, BCE vs. Ψ:
                // mean(softplus(X̂) − X̂ ⊙ Ψ).
                let items = tape.slice_rows(e, n_users, n_items);
                let tt = tape.value(w[1]).transpose();
                let tt = tape.leaf(tt);
                let logits = tape.matmul(items, tt);
                let sp_term = tape.softplus(logits);
                let target = tape.leaf_copy(&attr_target);
                let xy = tape.hadamard(logits, target);
                let nxy = tape.neg(xy);
                let bce = tape.add(sp_term, nxy);
                let l_attr = tape.mean_all(bce);
                let l_attr = tape.scale(l_attr, ATTR_WEIGHT);
                tape.add(l_bpr, l_attr)
            });
        self.out = Scored::propagated(Score::Dot, n_users, &[&emb, &t], forward);
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

    fn setup() -> (Dataset, Split) {
        let d = generate_preset(Preset::Ciao, Scale::Tiny);
        let s = Split::standard(&d);
        (d, s)
    }

    #[test]
    fn cmlf_learns() {
        let (d, s) = setup();
        let mut m = Cmlf::new(TrainOpts::fast_test());
        m.fit(&d, &s);
        assert!(positives_beat_mean(&m, &s));
    }

    #[test]
    fn amf_learns() {
        let (d, s) = setup();
        let mut m = Amf::new(TrainOpts::fast_test());
        m.fit(&d, &s);
        assert!(positives_beat_mean(&m, &s));
    }

    #[test]
    fn agcn_learns() {
        let (d, s) = setup();
        let mut m = Agcn::new(
            TrainOpts {
                epochs: 10,
                ..TrainOpts::fast_test()
            },
            2,
        );
        m.fit(&d, &s);
        assert!(positives_beat_mean(&m, &s));
    }

    #[test]
    fn tag_models_work_without_tags() {
        // Degenerate dataset with zero tags must not panic.
        let mut d = generate_preset(Preset::Ciao, Scale::Tiny);
        d.n_tags = 0;
        d.item_tags = vec![Vec::new(); d.n_items];
        d.tag_names.clear();
        d.taxonomy_truth = None;
        let s = Split::standard(&d);
        let mut m = Cmlf::new(TrainOpts {
            epochs: 3,
            ..TrainOpts::fast_test()
        });
        m.fit(&d, &s);
        assert!(m.scores_for_user(0).iter().all(|x| x.is_finite()));
    }
}
