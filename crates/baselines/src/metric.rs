//! Euclidean metric-learning baselines: CML, TransCF, LRML, SML
//! (paper §V-A.3, "metric learning methods").

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use taxorec_autodiff::{Csr, Matrix, Tape, Var};
use taxorec_core::init;
use taxorec_data::{Dataset, Recommender, Split};
use taxorec_geometry::vecops;

use crate::common::{
    euclid_dist_sq, hinge_loss, neighbor_means, Batch, Score, Scored, Step, TrainOpts,
};

/// Which translation mechanism a [`MetricModel`] uses — the four baselines
/// share the triplet-hinge training loop and differ in how the user→item
/// relation vector is produced.
#[derive(Clone, Copy, PartialEq)]
enum Relation {
    /// CML (Hsieh et al., WWW 2017): none — plain `‖u − v‖²`.
    None,
    /// TransCF (Park et al., ICDM 2018): `r = p_u ⊙ q_v` from neighborhood
    /// context embeddings, distance `‖u + r − v‖²`.
    Neighborhood,
    /// LRML (Tay et al., WWW 2018): `r = softmax((u⊙v)Kᵀ)·M` from a latent
    /// relational memory.
    Memory,
    /// SML (Li et al., AAAI 2020): symmetric user- and item-centric hinge
    /// terms, with the fixed margins [`SML_MARGINS`]. SML learns a margin
    /// per user and per item; EXPERIMENTS.md lists the departure.
    Symmetric,
}

/// SML's user-centric and item-centric hinge margins.
const SML_MARGINS: (f64, f64) = (0.5, 0.25);

/// A metric-learning recommender sharing one training loop across the
/// CML/TransCF/LRML/SML family.
pub struct MetricModel {
    opts: TrainOpts,
    name: &'static str,
    relation: Relation,
    /// The user and item points, scored by distance.
    out: Scored,
    /// The relation's fitted matrices: TransCF's materialized contexts
    /// `(ui·item_ctx, iu·user_ctx)`, LRML's `(keys, memory)`.
    extra: [Matrix; 2],
}

impl MetricModel {
    /// Collaborative metric learning (CML).
    pub fn cml(opts: TrainOpts) -> Self {
        Self::build(opts, "CML", Relation::None)
    }

    /// Translational collaborative filtering (TransCF).
    pub fn transcf(opts: TrainOpts) -> Self {
        Self::build(opts, "TransCF", Relation::Neighborhood)
    }

    /// Latent relational metric learning (LRML).
    pub fn lrml(opts: TrainOpts) -> Self {
        Self::build(opts, "LRML", Relation::Memory)
    }

    /// Symmetric metric learning (SML).
    pub fn sml(opts: TrainOpts) -> Self {
        Self::build(opts, "SML", Relation::Symmetric)
    }

    fn build(opts: TrainOpts, name: &'static str, relation: Relation) -> Self {
        Self {
            opts,
            name,
            relation,
            out: Scored::default(),
            extra: Default::default(),
        }
    }

    /// The batch loss over the leaves `[u, v]`, followed by TransCF's
    /// `[user_ctx, item_ctx]` or LRML's `[keys, memory]`. `ctx` holds
    /// TransCF's neighbor means `(ui, iu)`.
    fn loss(
        &self,
        tape: &mut Tape,
        w: &[Var],
        b: &Batch,
        ctx: &Option<(Arc<Csr>, Arc<Csr>)>,
    ) -> Var {
        let (gu, gp, gq) = b.gather(tape, w[0], w[1], 0);
        let margin = self.opts.margin;
        let (d_pos, d_neg) = match self.relation {
            Relation::None => return Score::SqDist.triplet_loss(tape, gu, gp, gq, margin),
            Relation::Symmetric => {
                let (d_pos, d_neg) = (euclid_dist_sq(tape, gu, gp), euclid_dist_sq(tape, gu, gq));
                let l_user = hinge_loss(tape, d_pos, d_neg, SML_MARGINS.0);
                // Item-centric: positive item vs. negative item.
                let d_items = euclid_dist_sq(tape, gp, gq);
                let l_item = hinge_loss(tape, d_pos, d_items, SML_MARGINS.1);
                return tape.add(l_user, l_item);
            }
            // The positive and the negative each get their own context.
            Relation::Neighborhood => {
                let (ui, iu) = ctx.as_ref().expect("TransCF's neighbor means");
                let p_full = tape.spmm(ui, w[3]);
                let q_full = tape.spmm(iu, w[2]);
                let (pu, qp, qn) = b.gather(tape, p_full, q_full, 0);
                let r_pos = tape.hadamard(pu, qp);
                let shifted = tape.add(gu, r_pos);
                let d_pos = euclid_dist_sq(tape, shifted, gp);
                let r_neg = tape.hadamard(pu, qn);
                let shifted = tape.add(gu, r_neg);
                (d_pos, euclid_dist_sq(tape, shifted, gq))
            }
            // The relation of the positive pair serves the negative too.
            // The transposed keys enter as a constant: keys get gradient
            // through the memory matmul only, an accepted simplification
            // of the paper's tied attention.
            Relation::Memory => {
                let joint = tape.hadamard(gu, gp);
                let kt = tape.value(w[2]).transpose();
                let kt = tape.leaf(kt);
                let logits = tape.matmul(joint, kt);
                let att = tape.softmax_rows(logits);
                let r = tape.matmul(att, w[3]);
                let shifted = tape.add(gu, r);
                (
                    euclid_dist_sq(tape, shifted, gp),
                    euclid_dist_sq(tape, shifted, gq),
                )
            }
        };
        hinge_loss(tape, d_pos, d_neg, margin)
    }
}

impl Recommender for MetricModel {
    fn name(&self) -> &str {
        self.name
    }

    fn fit(&mut self, dataset: &Dataset, split: &Split) {
        let mut rng = StdRng::seed_from_u64(self.opts.seed);
        let d = self.opts.dim;
        let mut u = init::normal_matrix(&mut rng, dataset.n_users, d, 0.1);
        let mut v = init::normal_matrix(&mut rng, dataset.n_items, d, 0.1);
        let mut extra = match self.relation {
            Relation::Neighborhood => [
                init::normal_matrix(&mut rng, dataset.n_users, d, 0.1),
                init::normal_matrix(&mut rng, dataset.n_items, d, 0.1),
            ],
            Relation::Memory => [
                init::normal_matrix(&mut rng, 8, d, 0.3),
                init::normal_matrix(&mut rng, 8, d, 0.1),
            ],
            Relation::None | Relation::Symmetric => Default::default(),
        };
        let ctx = (self.relation == Relation::Neighborhood).then(|| neighbor_means(dataset, split));
        // CML and SML leave the two extra blocks empty: no gradient reaches them.
        let [user_ctx, item_ctx] = &mut extra;
        let params = &mut [
            (&mut u, Step::SgdUnitBall),
            (&mut v, Step::SgdUnitBall),
            (user_ctx, Step::Sgd),
            (item_ctx, Step::Sgd),
        ];
        self.opts
            .fit_triplets(dataset, split, &mut rng, params, None, |tape, w, b| {
                self.loss(tape, w, b, &ctx)
            });
        if let Some((ui, iu)) = &ctx {
            extra = [ui.matmul(&extra[1]), iu.matmul(&extra[0])];
        }
        self.extra = extra;
        self.out = Scored::new(u, v, Score::SqDist);
    }

    fn scores_for_user(&self, user: u32) -> Vec<f64> {
        let (urow, items) = (self.out.users.row(user as usize), &self.out.items);
        let d = urow.len();
        let mut shifted = vec![0.0; d];
        match self.relation {
            Relation::None | Relation::Symmetric => self.out.scores_for_user(user),
            Relation::Neighborhood => {
                let [p_ctx, q_ctx] = &self.extra;
                let pu = p_ctx.row(user as usize);
                (0..items.rows())
                    .map(|v| {
                        let qv = q_ctx.row(v);
                        for i in 0..d {
                            shifted[i] = urow[i] + pu[i] * qv[i];
                        }
                        -vecops::sqdist(&shifted, items.row(v))
                    })
                    .collect()
            }
            Relation::Memory => {
                let [keys, memory] = &self.extra;
                let mut att = vec![0.0; keys.rows()];
                (0..items.rows())
                    .map(|v| {
                        let vrow = items.row(v);
                        // r = softmax((u ⊙ v)·Kᵀ)·M
                        let mut mx = f64::NEG_INFINITY;
                        for (s, a) in att.iter_mut().enumerate() {
                            let mut acc = 0.0;
                            for i in 0..d {
                                acc += urow[i] * vrow[i] * keys.get(s, i);
                            }
                            *a = acc;
                            mx = mx.max(acc);
                        }
                        let mut z = 0.0;
                        for a in att.iter_mut() {
                            *a = (*a - mx).exp();
                            z += *a;
                        }
                        for i in 0..d {
                            shifted[i] = urow[i];
                            for (s, a) in att.iter().enumerate() {
                                shifted[i] += a / z * memory.get(s, i);
                            }
                        }
                        -vecops::sqdist(&shifted, vrow)
                    })
                    .collect()
            }
        }
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
    fn cml_learns_and_respects_norm_constraint() {
        let (d, s) = setup();
        let mut m = MetricModel::cml(TrainOpts {
            lr: 0.5,
            ..TrainOpts::fast_test()
        });
        m.fit(&d, &s);
        assert!(positives_beat_mean(&m, &s));
        for r in 0..m.out.users.rows() {
            assert!(vecops::norm(m.out.users.row(r)) <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn transcf_learns() {
        let (d, s) = setup();
        let mut m = MetricModel::transcf(TrainOpts {
            lr: 0.5,
            ..TrainOpts::fast_test()
        });
        m.fit(&d, &s);
        assert!(positives_beat_mean(&m, &s));
    }

    #[test]
    fn lrml_learns() {
        let (d, s) = setup();
        let mut m = MetricModel::lrml(TrainOpts {
            lr: 0.5,
            ..TrainOpts::fast_test()
        });
        m.fit(&d, &s);
        assert!(positives_beat_mean(&m, &s));
    }

    #[test]
    fn sml_learns() {
        let (d, s) = setup();
        let mut m = MetricModel::sml(TrainOpts {
            lr: 0.5,
            ..TrainOpts::fast_test()
        });
        m.fit(&d, &s);
        assert!(positives_beat_mean(&m, &s));
    }

    #[test]
    fn names() {
        assert_eq!(MetricModel::cml(TrainOpts::default()).name(), "CML");
        assert_eq!(MetricModel::transcf(TrainOpts::default()).name(), "TransCF");
        assert_eq!(MetricModel::lrml(TrainOpts::default()).name(), "LRML");
        assert_eq!(MetricModel::sml(TrainOpts::default()).name(), "SML");
    }
}
