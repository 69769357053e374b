//! Export hooks for checkpointing: a self-contained snapshot of a trained
//! model, decoupled from the training machinery.
//!
//! [`ModelState`] carries exactly what inference needs — the cached
//! post-aggregation embeddings, the personalized tag weights `α_u`
//! (Eq. 16), the constructed taxonomy, and the configuration — and nothing
//! the training loop owns (tapes, graph matrices, regularizer plans).
//! `taxorec-serve` serializes this snapshot into the `.taxo` artifact and
//! rebuilds its query engine from it; [`ModelState::validate`] is the
//! shared dimension-consistency gate both sides run.

use taxorec_autodiff::Matrix;
use taxorec_data::{Anchor, ItemEmbeddings};
use taxorec_taxonomy::Taxonomy;

use crate::config::TaxoRecConfig;

/// The user side of Eq. 17 for `user`: its row in each channel, the tag
/// channel (when `u_tg` is given) weighted `gain·α_u` — the one place
/// the weight is finished for scoring. A user without an `α` (grown past
/// the trained set) weighs the tag channel 0.
pub fn anchor<'a>(
    config: &TaxoRecConfig,
    alphas: &[f64],
    u_ir: &'a Matrix,
    u_tg: Option<&'a Matrix>,
    user: usize,
) -> Anchor<'a> {
    let weight = config.tag_channel_gain * alphas.get(user).copied().unwrap_or(0.0);
    Anchor {
        ir: u_ir.row(user),
        tg: u_tg.map(|u_tg| (u_tg.row(user), weight)),
    }
}

/// The item side of Eq. 17 as the scorer's (and the retrieval index's)
/// input: Lorentz-row matrices, the tag channel present iff it is active
/// and populated. The live model and every consumer of a [`ModelState`]
/// take this one view, so they cannot disagree about channels or
/// dimensions.
pub fn item_embeddings<'a>(
    tags_active: bool,
    v_ir: &'a Matrix,
    v_tg: &'a Matrix,
) -> ItemEmbeddings<'a> {
    let tags = tags_active && v_tg.rows() > 0;
    ItemEmbeddings {
        v_ir: v_ir.data(),
        ambient_ir: v_ir.cols(),
        v_tg: tags.then(|| v_tg.data()),
        ambient_tg: if tags { v_tg.cols() } else { 0 },
    }
}

/// An immutable snapshot of a trained [`crate::TaxoRec`] sufficient for
/// inference: score any (user, item) pair, rank items, and explain
/// recommendations through the taxonomy.
///
/// All embedding matrices are the *final* post-aggregation values cached
/// at the end of `fit` — scoring from a `ModelState` is bit-identical to
/// scoring from the live model.
#[derive(Clone, Debug)]
pub struct ModelState {
    /// Display name of the model variant (e.g. `"TaxoRec"`, `"HGCF"`).
    pub name: String,
    /// The configuration the model was trained with.
    pub config: TaxoRecConfig,
    /// Whether the tag channel participates in scoring (aggregation on,
    /// tags on, and the dataset had tags).
    pub tags_active: bool,
    /// Final user embeddings, tag-irrelevant channel (`n_users × (D_i+1)`,
    /// Lorentz ambient coordinates).
    pub u_ir: Matrix,
    /// Final item embeddings, tag-irrelevant channel.
    pub v_ir: Matrix,
    /// Final user embeddings, tag-relevant channel (empty when
    /// `!tags_active`).
    pub u_tg: Matrix,
    /// Final item embeddings, tag-relevant channel (empty when
    /// `!tags_active`).
    pub v_tg: Matrix,
    /// Learned Poincaré tag embeddings (`n_tags × D_t`).
    pub t_p: Matrix,
    /// Personalized tag weights `α_u` (Eq. 16), one per user.
    pub alphas: Vec<f64>,
    /// The taxonomy constructed from the converged tag embeddings
    /// (`None` for ablations with λ = 0 or tagless datasets).
    pub taxonomy: Option<Taxonomy>,
}

impl ModelState {
    /// Number of users the snapshot can score.
    pub fn n_users(&self) -> usize {
        self.u_ir.rows()
    }

    /// Number of items in the catalogue.
    pub fn n_items(&self) -> usize {
        self.v_ir.rows()
    }

    /// Number of tags with learned embeddings.
    pub fn n_tags(&self) -> usize {
        self.t_p.rows()
    }

    /// Checks internal dimension consistency — embedding shapes against
    /// the config and against each other, `α_u` coverage, taxonomy tag ids
    /// within the tag universe. Run after deserializing an artifact so a
    /// truncation the checksum somehow missed still cannot produce a model
    /// that panics at query time.
    ///
    /// # Errors
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        self.config.validate()?;
        if self.u_ir.cols() != self.config.dim_ir + 1 {
            return Err(format!(
                "u_ir has {} columns, expected dim_ir+1 = {}",
                self.u_ir.cols(),
                self.config.dim_ir + 1
            ));
        }
        if self.v_ir.cols() != self.u_ir.cols() {
            return Err(format!(
                "v_ir has {} columns, u_ir has {}",
                self.v_ir.cols(),
                self.u_ir.cols()
            ));
        }
        if self.alphas.len() != self.u_ir.rows() {
            return Err(format!(
                "{} alpha weights for {} users",
                self.alphas.len(),
                self.u_ir.rows()
            ));
        }
        if self.tags_active {
            if self.u_tg.rows() != self.u_ir.rows() {
                return Err(format!(
                    "u_tg has {} rows, u_ir has {}",
                    self.u_tg.rows(),
                    self.u_ir.rows()
                ));
            }
            if self.v_tg.rows() != self.v_ir.rows() {
                return Err(format!(
                    "v_tg has {} rows, v_ir has {}",
                    self.v_tg.rows(),
                    self.v_ir.rows()
                ));
            }
            if self.u_tg.cols() != self.config.dim_tag + 1
                || self.v_tg.cols() != self.config.dim_tag + 1
            {
                return Err(format!(
                    "tag-channel embeddings have {}/{} columns, expected dim_tag+1 = {}",
                    self.u_tg.cols(),
                    self.v_tg.cols(),
                    self.config.dim_tag + 1
                ));
            }
            if self.t_p.rows() > 0 && self.t_p.cols() != self.config.dim_tag {
                return Err(format!(
                    "tag embeddings have {} columns, expected dim_tag = {}",
                    self.t_p.cols(),
                    self.config.dim_tag
                ));
            }
        }
        if let Some(taxo) = &self.taxonomy {
            taxo.validate()?;
            let n_tags = self.t_p.rows() as u32;
            for (i, node) in taxo.nodes().iter().enumerate() {
                if let Some(&t) = node.tags.iter().find(|&&t| t >= n_tags) {
                    return Err(format!(
                        "taxonomy node {i} references tag {t}, but only {n_tags} tags exist"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TaxoRec;
    use taxorec_data::{generate_preset, Preset, Recommender, Scale, Split};

    fn trained() -> TaxoRec {
        let d = generate_preset(Preset::Ciao, Scale::Tiny);
        let s = Split::standard(&d);
        let mut cfg = TaxoRecConfig::fast_test();
        cfg.epochs = 5;
        let mut m = TaxoRec::new(cfg);
        m.fit(&d, &s);
        m
    }

    #[test]
    fn exported_state_is_valid_and_scores_identically() {
        let m = trained();
        let state = m.export_state();
        assert_eq!(state.validate(), Ok(()));
        assert!(state.tags_active);
        assert!(state.taxonomy.is_some());
        assert_eq!(state.n_users(), state.alphas.len());
        // Scoring from the snapshot reproduces the live model bit-for-bit.
        for u in [0u32, 3, 7] {
            let live = m.scores_for_user(u);
            let alpha = state.config.tag_channel_gain * state.alphas[u as usize];
            for (v, &expect) in live.iter().enumerate() {
                let mut g = taxorec_geometry::lorentz::distance_sq(
                    state.u_ir.row(u as usize),
                    state.v_ir.row(v),
                );
                g += alpha
                    * taxorec_geometry::lorentz::distance_sq(
                        state.u_tg.row(u as usize),
                        state.v_tg.row(v),
                    );
                assert_eq!(-g, expect, "user {u} item {v}");
            }
        }
    }

    #[test]
    fn validate_catches_dimension_mismatches() {
        let m = trained();
        let mut state = m.export_state();
        state.alphas.pop();
        assert!(state.validate().unwrap_err().contains("alpha"));
        let mut state = m.export_state();
        state.v_tg = Matrix::zeros(1, state.v_tg.cols());
        assert!(state.validate().is_err());
    }
}
