//! The fixed inputs of the four workloads.
//!
//! Nothing here takes `--seed`: datasets, embeddings, checkpoints,
//! taxonomies and indexes come from seeds compiled into this file, so
//! every count — and therefore the amount of work — is the same on every
//! run. `--seed` only drives what the program is *asked* (see
//! `streams.rs`).

use taxorec_autodiff::Matrix;
use taxorec_core::{ModelState, TaxoRecConfig};
use taxorec_data::{
    generate, generate_embeddings, Dataset, EmbedConfig, Preset, Scale, Split, SynthConfig,
    SynthEmbeddings,
};
use taxorec_geometry::{convert, poincare};
use taxorec_serve::{Checkpoint, IndexConfig};
use taxorec_taxonomy::{construct_taxonomy, ConstructConfig, Taxonomy};

/// Seed of every synthetic embedding fixture.
pub const FIXTURE_SEED: u64 = 0x7a78_6f72_6563;

/// Catalogue size of the `serve_cold` / `serve_hot` model.
pub const SERVE_ITEMS: usize = 60_000;
/// Users of the serving model: with [`COLD_K_VALUES`] distinct `k` this
/// gives 131k distinct `(user, k)` keys, far more than a run can ask.
pub const SERVE_USERS: usize = 16_384;
/// Catalogue size of the `ingest_mixed` base model.
pub const INGEST_ITEMS: usize = 20_000;
/// Users of the `ingest_mixed` base model.
pub const INGEST_USERS: usize = 16_384;
/// Catalogue size of the retrieval probes.
pub const RETRIEVAL_ITEMS: usize = 100_000;
/// Query anchors of the retrieval probes.
pub const RETRIEVAL_USERS: usize = 256;
/// `k` values a cold key may carry (`10..10+COLD_K_VALUES`).
pub const COLD_K_VALUES: usize = 8;
/// Users primed into the response cache for `serve_hot`.
pub const HOT_POOL: usize = 1000;

/// The `train_fit` dataset and its split.
pub struct TrainFixture {
    /// Yelp-shaped synthetic dataset at bench scale.
    pub dataset: Dataset,
    /// The paper's 60/20/20 temporal split.
    pub split: Split,
}

/// Generates the `train_fit` inputs (`SynthConfig::preset(Yelp, Bench)`,
/// whose seed is part of the preset).
pub fn train_fixture() -> TrainFixture {
    let dataset = generate(&SynthConfig::preset(Preset::Yelp, Scale::Bench));
    let split = Split::standard(&dataset);
    TrainFixture { dataset, split }
}

/// Planted-cluster embeddings at the default model dimensions.
pub fn embeddings(n_items: usize, n_users: usize) -> SynthEmbeddings {
    let dims = TaxoRecConfig::default();
    generate_embeddings(&EmbedConfig {
        n_items,
        n_users,
        dim_ir: dims.dim_ir,
        dim_tag: dims.dim_tag,
        seed: FIXTURE_SEED,
        ..EmbedConfig::default()
    })
}

/// Poincaré tag embeddings as the Einstein midpoints of the tag-channel
/// positions of the items carrying each tag (`n_tags × dim_tag`).
fn tag_midpoints(emb: &SynthEmbeddings, dim_tag: usize) -> Matrix {
    let n_tags = emb.tag_tree.n_tags();
    let n_items = emb.item_tags.len();
    let mut ball = vec![0.0; n_items * dim_tag];
    for (v, out) in ball.chunks_exact_mut(dim_tag).enumerate() {
        convert::lorentz_to_poincare(&emb.v_tg[v * emb.ambient_tg..(v + 1) * emb.ambient_tg], out);
    }
    let mut members: Vec<Vec<&[f64]>> = vec![Vec::new(); n_tags];
    for (v, tags) in emb.item_tags.iter().enumerate() {
        for &t in tags {
            members[t as usize].push(&ball[v * dim_tag..(v + 1) * dim_tag]);
        }
    }
    let mut t_p = Matrix::zeros(n_tags, dim_tag);
    for (t, points) in members.iter().enumerate() {
        if !points.is_empty() {
            poincare::einstein_centroid(points, &vec![1.0; points.len()], t_p.row_mut(t));
        }
    }
    t_p
}

/// An untrained model snapshot over planted embeddings, with the default
/// configuration and the given taxonomy.
fn model_state(emb: SynthEmbeddings, t_p: Matrix, taxonomy: Option<Taxonomy>) -> ModelState {
    let n_items = emb.item_tags.len();
    let n_users = emb.alphas.len();
    ModelState {
        name: "TaxoRec".to_string(),
        config: TaxoRecConfig::default(),
        tags_active: true,
        u_ir: Matrix::from_vec(n_users, emb.ambient_ir, emb.u_ir),
        v_ir: Matrix::from_vec(n_items, emb.ambient_ir, emb.v_ir),
        u_tg: Matrix::from_vec(n_users, emb.ambient_tg, emb.u_tg),
        v_tg: Matrix::from_vec(n_items, emb.ambient_tg, emb.v_tg),
        t_p,
        alphas: emb.alphas,
        taxonomy,
    }
}

/// The `serve_cold` / `serve_hot` checkpoint: planted embeddings, the
/// planted tag tree as taxonomy, no retrieval index (exact retrieval).
pub fn serve_checkpoint(n_items: usize, n_users: usize) -> Checkpoint {
    let emb = embeddings(n_items, n_users);
    let dim_tag = emb.ambient_tg - 1;
    let t_p = tag_midpoints(&emb, dim_tag);
    let taxonomy = Taxonomy::from_tag_tree(&emb.tag_tree);
    let item_tags = emb.item_tags.clone();
    Checkpoint {
        state: model_state(emb, t_p, Some(taxonomy)),
        tag_names: Vec::new(),
        item_tags,
        seen_items: Vec::new(),
        index: None,
        artifact: None,
        journal_cursor: None,
    }
}

/// Algorithm 1's parameters as a model configuration implies them — what
/// training and a drift rebuild of the online fold both construct with.
pub fn construct_config(cfg: &TaxoRecConfig) -> ConstructConfig {
    ConstructConfig {
        k: cfg.taxo_k,
        delta: cfg.taxo_delta,
        min_node_size: cfg.taxo_min_node,
        max_depth: cfg.taxo_max_depth,
        seeding: cfg.taxo_seeding,
        seed: cfg.seed,
        ..ConstructConfig::default()
    }
}

/// The `ingest_mixed` base checkpoint: planted embeddings, tag
/// embeddings as item midpoints, a taxonomy *constructed* from them by
/// Algorithm 1 (what a drift rebuild will construct again), tag names,
/// item tags, and a retrieval index — everything `serve_online` needs,
/// without a fit (a default fit is super-linear in catalogue size).
pub fn ingest_checkpoint(n_items: usize, n_users: usize) -> Checkpoint {
    let emb = embeddings(n_items, n_users);
    let dim_tag = emb.ambient_tg - 1;
    let t_p = tag_midpoints(&emb, dim_tag);
    let n_tags = t_p.rows();
    let taxonomy = construct_taxonomy(
        t_p.data(),
        dim_tag,
        n_tags,
        &emb.item_tags,
        &construct_config(&TaxoRecConfig::default()),
    );
    let item_tags = emb.item_tags.clone();
    Checkpoint {
        state: model_state(emb, t_p, Some(taxonomy)),
        tag_names: (0..n_tags).map(|t| format!("tag{t}")).collect(),
        item_tags,
        seen_items: Vec::new(),
        index: None,
        artifact: None,
        journal_cursor: None,
    }
    .with_retrieval_index(&IndexConfig::default())
    .expect("the planted catalogue indexes")
}

/// Sizes that must not move between runs, checked by the fixture tests
/// and printed in the run header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FixtureCounts {
    /// Users.
    pub users: usize,
    /// Items.
    pub items: usize,
    /// Tags.
    pub tags: usize,
    /// Training interactions (`train_fit`) or 0.
    pub train_nnz: usize,
    /// Retrieval-index leaves or 0.
    pub index_leaves: usize,
    /// Serialized artifact size or 0.
    pub checkpoint_bytes: usize,
}

impl FixtureCounts {
    /// Counts of a training fixture.
    pub fn of_train(f: &TrainFixture) -> Self {
        Self {
            users: f.dataset.n_users,
            items: f.dataset.n_items,
            tags: f.dataset.n_tags,
            train_nnz: f.split.n_train(),
            index_leaves: 0,
            checkpoint_bytes: 0,
        }
    }

    /// Counts of a serving checkpoint and its serialized form.
    pub fn of_checkpoint(ckpt: &Checkpoint, bytes: usize) -> Self {
        Self {
            users: ckpt.state.n_users(),
            items: ckpt.state.n_items(),
            tags: ckpt.state.n_tags(),
            train_nnz: 0,
            index_leaves: ckpt.index.as_ref().map_or(0, |p| p.n_leaves()),
            checkpoint_bytes: bytes,
        }
    }

    /// JSON object form for the header.
    pub fn json(&self) -> String {
        format!(
            "{{\"users\":{},\"items\":{},\"tags\":{},\"train_nnz\":{},\"index_leaves\":{},\
             \"checkpoint_bytes\":{}}}",
            self.users,
            self.items,
            self.tags,
            self.train_nnz,
            self.index_leaves,
            self.checkpoint_bytes
        )
    }
}
