//! TaxoRec hyperparameters (paper §V-A.4 lists the tuned grid).

use taxorec_taxonomy::{ConstructConfig, Seeding};

/// Full configuration of the TaxoRec model and its training loop.
///
/// Defaults follow the paper's tuned values (K=3, L=3, m≈0.1–0.2, λ=0.1)
/// at a CPU-scale embedding size; `D` in the paper is 64 total with
/// `D_t = 12` reserved for the tag-relevant part. One deviation: the
/// representativeness threshold defaults to δ=0.25 rather than the paper's
/// 0.5 — at synthetic-benchmark scale the Eq. 7 scores concentrate lower,
/// and 0.5 pushes every tag up (empty splits); the Table IV harness sweeps
/// the paper's full grid either way.
#[derive(Clone, Debug, PartialEq)]
pub struct TaxoRecConfig {
    /// Tag-irrelevant embedding dimensionality `D_i` (manifold dimension;
    /// the ambient Lorentz representation has one extra coordinate).
    pub dim_ir: usize,
    /// Tag-relevant embedding dimensionality `D_t`.
    pub dim_tag: usize,
    /// GCN propagation depth `L` (paper Eq. 13–14; optimum 3).
    pub gcn_layers: usize,
    /// Margin `m` of the LMNN hinge loss (Eq. 18).
    pub margin: f64,
    /// Taxonomy-regularization weight `λ` (Eq. 19). `0` disables both the
    /// regularizer and taxonomy construction (the Hyper+CML+Agg ablation).
    pub lambda: f64,
    /// Number of children per taxonomy split `K` (Algorithm 1).
    pub taxo_k: usize,
    /// Representativeness threshold `δ` (Algorithm 1).
    pub taxo_delta: f64,
    /// Rebuild the taxonomy every this many epochs (the paper notes the
    /// O(S) construction cost is minor; rebuilding each epoch is also
    /// affordable, this is a knob).
    pub taxo_rebuild_every: usize,
    /// Fraction of training to run *before* the first taxonomy
    /// construction. Early-training tag embeddings are still noise at this
    /// reproduction's update budget; clustering them too early freezes
    /// random structure through the Eq. 8 regularizer (at the paper's data
    /// scale, "epoch 10" already implies millions of updates, which this
    /// warmup emulates).
    pub taxo_warmup_frac: f64,
    /// Poincaré k-means seeding (ablation knob).
    pub taxo_seeding: Seeding,
    /// Maximum taxonomy depth.
    pub taxo_max_depth: usize,
    /// Stop splitting taxonomy nodes below this size.
    pub taxo_min_node: usize,
    /// Enable the tag-enhanced aggregation mechanism (local Einstein
    /// midpoint + global GCN). `false` yields the Hyper+CML ablation.
    pub use_aggregation: bool,
    /// Use tag information at all. With aggregation on but tags off the
    /// model degenerates to hyperbolic GCN collaborative filtering — i.e.
    /// the HGCF baseline (Sun et al., WWW 2021).
    pub use_tags: bool,
    /// Learning rate of Riemannian SGD.
    pub lr: f64,
    /// Learning-rate multiplier for the tag embeddings `T^P`. Tags sit at
    /// the end of a long, heavily averaged gradient chain (midpoint → GCN
    /// → batch mean) and receive orders of magnitude fewer effective
    /// updates than at the paper's data scale; this multiplier restores a
    /// comparable update budget.
    pub lr_tag_mult: f64,
    /// Number of training epochs.
    pub epochs: usize,
    /// Negative samples per positive pair per epoch.
    pub negatives: usize,
    /// Global gain on the tag-relevant distance term of Eq. 17:
    /// `g(u,v) = d²(u_ir,v_ir) + gain·α_u·d²(u_tg,v_tg)`. The paper's
    /// formulation assumes both channels reach comparable scales; at this
    /// reproduction's update budget the tag embeddings stay close to the
    /// origin, so their squared distances are an order of magnitude
    /// smaller — the gain rebalances the channels while preserving the
    /// per-user α ordering.
    pub tag_channel_gain: f64,
    /// Replace the hard hinge `[m + g_pos − g_neg]₊` with its smooth
    /// upper bound `softplus(m + g_pos − g_neg)`. The soft tail keeps a
    /// small gradient on already-separated triplets, preventing the early
    /// freeze that hard margins exhibit at small data scale.
    pub soft_hinge: bool,
    /// Triplets per minibatch.
    pub batch_size: usize,
    /// RNG seed (initialization + sampling).
    pub seed: u64,
}

impl Default for TaxoRecConfig {
    fn default() -> Self {
        Self {
            dim_ir: 32,
            dim_tag: 8,
            gcn_layers: 3,
            margin: 4.0,
            lambda: 0.1,
            taxo_k: 3,
            taxo_delta: 0.25,
            taxo_rebuild_every: 10,
            taxo_warmup_frac: 0.5,
            taxo_seeding: Seeding::PlusPlus,
            taxo_max_depth: 4,
            taxo_min_node: 4,
            use_aggregation: true,
            use_tags: true,
            lr: 1.0,
            lr_tag_mult: 60.0,
            epochs: 60,
            negatives: 4,
            tag_channel_gain: 1.0,
            soft_hinge: true,
            batch_size: 1024,
            seed: 42,
        }
    }
}

impl TaxoRecConfig {
    /// A faster configuration for unit/integration tests.
    pub fn fast_test() -> Self {
        Self {
            dim_ir: 12,
            dim_tag: 4,
            gcn_layers: 2,
            epochs: 15,
            taxo_rebuild_every: 5,
            batch_size: 2048,
            ..Self::default()
        }
    }

    /// Algorithm 1's parameters as this configuration sets them, seeded
    /// with [`TaxoRecConfig::seed`]: what a drift rebuild of the online
    /// fold constructs with, and training with its own seed.
    pub fn construct_config(&self) -> ConstructConfig {
        ConstructConfig {
            k: self.taxo_k,
            delta: self.taxo_delta,
            min_node_size: self.taxo_min_node,
            max_depth: self.taxo_max_depth,
            seeding: self.taxo_seeding,
            seed: self.seed,
        }
    }

    /// The Hyper+CML ablation of Table III: hyperbolic metric learning
    /// without tags, aggregation, or taxonomy.
    pub fn ablation_hyper_cml(self) -> Self {
        Self {
            use_aggregation: false,
            lambda: 0.0,
            ..self
        }
    }

    /// The Hyper+CML+Agg ablation of Table III: aggregation on, taxonomy
    /// regularization off.
    pub fn ablation_hyper_cml_agg(self) -> Self {
        Self {
            use_aggregation: true,
            use_tags: true,
            lambda: 0.0,
            ..self
        }
    }

    /// The HGCF baseline (hyperbolic GCN collaborative filtering):
    /// aggregation on, no tags, no taxonomy.
    pub fn hgcf(self) -> Self {
        Self {
            use_aggregation: true,
            use_tags: false,
            lambda: 0.0,
            ..self
        }
    }

    /// Validates ranges; returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.dim_ir == 0 {
            return Err("dim_ir must be positive".into());
        }
        if self.use_aggregation && self.dim_tag == 0 {
            return Err("dim_tag must be positive when aggregation is on".into());
        }
        if !(0.0..=10.0).contains(&self.margin) {
            return Err("margin out of range".into());
        }
        if self.lambda < 0.0 {
            return Err("lambda must be non-negative".into());
        }
        if self.taxo_k < 2 {
            return Err("taxo_k must be at least 2".into());
        }
        if self.lr <= 0.0 {
            return Err("learning rate must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert_eq!(TaxoRecConfig::default().validate(), Ok(()));
        assert_eq!(TaxoRecConfig::fast_test().validate(), Ok(()));
    }

    #[test]
    fn ablations_toggle_the_right_flags() {
        let base = TaxoRecConfig::default();
        let a = base.clone().ablation_hyper_cml();
        assert!(!a.use_aggregation);
        assert_eq!(a.lambda, 0.0);
        let b = base.ablation_hyper_cml_agg();
        assert!(b.use_aggregation);
        assert_eq!(b.lambda, 0.0);
    }

    #[test]
    fn validation_catches_bad_values() {
        let bad = [
            TaxoRecConfig {
                taxo_k: 1,
                ..TaxoRecConfig::default()
            },
            TaxoRecConfig {
                lr: 0.0,
                ..TaxoRecConfig::default()
            },
            TaxoRecConfig {
                lambda: -1.0,
                ..TaxoRecConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err());
        }
    }
}
