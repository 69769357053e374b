//! Streaming planted-cluster *embedding* generator for retrieval-scale
//! benchmarks.
//!
//! [`synth::generate`](crate::synth::generate) plants interactions and
//! lets training discover the geometry; at 1M+ items that loop (and the
//! training run behind it) is far too slow to gate a CI job on. This
//! module skips straight to the artifact the retrieval index consumes: a
//! catalogue of *hyperbolic item embeddings* with planted hierarchical
//! cluster structure, matching user anchors, and the tag metadata
//! (item→tags plus the planted [`TagTree`]) needed to exercise the
//! taxonomy-guided top level of the index.
//!
//! Geometry: every tag in the planted tree gets a Poincaré-ball center,
//! laid out hierarchically — top-level tags step away from the origin in
//! random directions, children step (by a shrinking radius) away from
//! their parent via Möbius addition, mirroring how trained taxonomies
//! push finer concepts toward the boundary. Items scatter around their
//! leaf's center with Gaussian noise; users anchor near a home leaf. All
//! points are lifted to the hyperboloid, so the output plugs directly
//! into the fused Lorentz kernels.
//!
//! Memory: generation is *streaming* — items are produced in
//! fixed-size chunks with one chunk-sized scratch buffer, writing rows
//! straight into the flat output matrices. Nothing `O(n_items)` beyond
//! the returned matrices themselves is ever materialized (no per-item
//! `Vec` rows, no item×item or user×item intermediates), which is what
//! keeps the 1M-item configuration inside CI memory. Every row is
//! derived from a per-entity seeded RNG, so output is deterministic and
//! independent of chunk size.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use taxorec_geometry::{convert, poincare};

use crate::synth::build_tree;
use crate::truth::TagTree;

/// Items per generation chunk: bounds scratch memory (one chunk of
/// spatial rows) regardless of catalogue size.
pub const EMBED_CHUNK: usize = 8192;

/// Configuration of [`generate_embeddings`]. Deterministic for a fixed
/// config, including across chunk-size changes.
#[derive(Clone, Debug, PartialEq)]
pub struct EmbedConfig {
    /// Catalogue size (scales to 1M+; memory is the output matrices).
    pub n_items: usize,
    /// Number of user anchors (query workload size).
    pub n_users: usize,
    /// Planted tag-tree shape, e.g. `[8, 8]` = 8 top tags × 8 children.
    pub branching: Vec<usize>,
    /// Spatial dimension of the interaction channel (rows get `+1`).
    pub dim_ir: usize,
    /// Spatial dimension of the tag channel (rows get `+1`).
    pub dim_tag: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for EmbedConfig {
    fn default() -> Self {
        Self {
            n_items: 100_000,
            n_users: 256,
            branching: vec![8, 8],
            dim_ir: 32,
            dim_tag: 8,
            seed: 42,
        }
    }
}

impl EmbedConfig {
    /// The retrieval-bench preset at a given catalogue size.
    pub fn retrieval_bench(n_items: usize) -> Self {
        Self {
            n_items,
            ..Self::default()
        }
    }
}

/// Output of [`generate_embeddings`]: flat row-major Lorentz matrices
/// plus the planted tag metadata.
pub struct SynthEmbeddings {
    /// Item embeddings, interaction channel: `n_items × ambient_ir`.
    pub v_ir: Vec<f64>,
    /// Item embeddings, tag channel: `n_items × ambient_tg`.
    pub v_tg: Vec<f64>,
    /// User anchors, interaction channel: `n_users × ambient_ir`.
    pub u_ir: Vec<f64>,
    /// User anchors, tag channel: `n_users × ambient_tg`.
    pub u_tg: Vec<f64>,
    /// Per-user tag-channel weight `α_u ∈ [0.3, 0.7)`.
    pub alphas: Vec<f64>,
    /// Each item's planted tag path (leaf plus all ancestors, sorted).
    pub item_tags: Vec<Vec<u32>>,
    /// Each user's planted home leaf tag.
    pub user_leaf: Vec<u32>,
    /// The planted tag tree.
    pub tag_tree: TagTree,
    /// Ambient (spatial + 1) dimension of the ir matrices.
    pub ambient_ir: usize,
    /// Ambient dimension of the tag matrices.
    pub ambient_tg: usize,
}

/// Gaussian noise scale of items around their leaf center.
const CLUSTER_SPREAD: f64 = 0.08;
/// Gaussian noise scale of user anchors around their home leaf.
const USER_SPREAD: f64 = 0.10;

/// Per-depth Möbius step radii of the hierarchical center layout (deeper
/// levels step less, clamped at the last entry).
const LEVEL_STEP: [f64; 4] = [0.55, 0.30, 0.18, 0.10];

/// Generates a planted-cluster embedding catalogue. See module docs.
pub fn generate_embeddings(config: &EmbedConfig) -> SynthEmbeddings {
    assert!(config.n_items > 0, "need at least one item");
    assert!(
        config.dim_ir >= 1 && config.dim_tag >= 1,
        "need spatial dims"
    );
    let (tree, _names) = build_tree(&config.branching);
    let n_tags = tree.n_tags();
    let children = tree.children();
    let leaves: Vec<u32> = (0..n_tags as u32)
        .filter(|&t| children[t as usize].is_empty())
        .collect();

    // Hierarchical tag centers per channel. Tag ids are assigned level by
    // level, so every parent precedes its children.
    let centers_ir = tag_centers(&tree, config.dim_ir, config.seed ^ 0x6972);
    let centers_tg = tag_centers(&tree, config.dim_tag, config.seed ^ 0x7467);

    // Precomputed tag paths per leaf (leaf + ancestors, ascending).
    let leaf_paths: Vec<Vec<u32>> = leaves
        .iter()
        .map(|&leaf| {
            let mut path = tree.ancestors(leaf);
            path.push(leaf);
            path.sort_unstable();
            path
        })
        .collect();

    let ambient_ir = config.dim_ir + 1;
    let ambient_tg = config.dim_tag + 1;
    let mut v_ir = vec![0.0; config.n_items * ambient_ir];
    let mut v_tg = vec![0.0; config.n_items * ambient_tg];
    let mut item_tags = Vec::with_capacity(config.n_items);
    let mut scratch = vec![0.0; config.dim_ir.max(config.dim_tag)];
    let mut point = vec![0.0; config.dim_ir.max(config.dim_tag)];
    let mut lo = 0;
    while lo < config.n_items {
        let hi = (lo + EMBED_CHUNK).min(config.n_items);
        for i in lo..hi {
            let leaf_pos = i % leaves.len();
            let mut rng = StdRng::seed_from_u64(
                config
                    .seed
                    .wrapping_add((i as u64).wrapping_mul(0x9e3779b97f4a7c15)),
            );
            let leaf = leaves[leaf_pos] as usize;
            place_near(
                &centers_ir[leaf * config.dim_ir..(leaf + 1) * config.dim_ir],
                CLUSTER_SPREAD,
                &mut rng,
                &mut scratch[..config.dim_ir],
                &mut point[..config.dim_ir],
                &mut v_ir[i * ambient_ir..(i + 1) * ambient_ir],
            );
            place_near(
                &centers_tg[leaf * config.dim_tag..(leaf + 1) * config.dim_tag],
                CLUSTER_SPREAD,
                &mut rng,
                &mut scratch[..config.dim_tag],
                &mut point[..config.dim_tag],
                &mut v_tg[i * ambient_tg..(i + 1) * ambient_tg],
            );
            item_tags.push(leaf_paths[leaf_pos].clone());
        }
        lo = hi;
    }

    let mut u_ir = vec![0.0; config.n_users * ambient_ir];
    let mut u_tg = vec![0.0; config.n_users * ambient_tg];
    let mut alphas = Vec::with_capacity(config.n_users);
    let mut user_leaf = Vec::with_capacity(config.n_users);
    for u in 0..config.n_users {
        let leaf_pos = (u * 7 + 3) % leaves.len();
        let mut rng = StdRng::seed_from_u64(
            config
                .seed
                .wrapping_add(0x75736572)
                .wrapping_add((u as u64).wrapping_mul(0xd1342543de82ef95)),
        );
        let leaf = leaves[leaf_pos] as usize;
        place_near(
            &centers_ir[leaf * config.dim_ir..(leaf + 1) * config.dim_ir],
            USER_SPREAD,
            &mut rng,
            &mut scratch[..config.dim_ir],
            &mut point[..config.dim_ir],
            &mut u_ir[u * ambient_ir..(u + 1) * ambient_ir],
        );
        place_near(
            &centers_tg[leaf * config.dim_tag..(leaf + 1) * config.dim_tag],
            USER_SPREAD,
            &mut rng,
            &mut scratch[..config.dim_tag],
            &mut point[..config.dim_tag],
            &mut u_tg[u * ambient_tg..(u + 1) * ambient_tg],
        );
        alphas.push(0.3 + 0.4 * rng.random::<f64>());
        user_leaf.push(leaves[leaf_pos]);
    }

    SynthEmbeddings {
        v_ir,
        v_tg,
        u_ir,
        u_tg,
        alphas,
        item_tags,
        user_leaf,
        tag_tree: tree,
        ambient_ir,
        ambient_tg,
    }
}

/// Samples a Poincaré point near `center` (Gaussian tangent noise of
/// scale `spread`, Möbius-added) and writes its hyperboloid lift into
/// `out` (`center.len() + 1` wide).
fn place_near(
    center: &[f64],
    spread: f64,
    rng: &mut StdRng,
    noise: &mut [f64],
    point: &mut [f64],
    out: &mut [f64],
) {
    for n in noise.iter_mut() {
        *n = gauss(rng) * spread;
    }
    poincare::mobius_add(center, noise, point);
    poincare::project(point);
    convert::poincare_to_lorentz(point, out);
}

/// Hierarchical Poincaré centers for every tag of the planted tree:
/// flat `n_tags × dim`, parents laid out before their children.
fn tag_centers(tree: &TagTree, dim: usize, seed: u64) -> Vec<f64> {
    let n_tags = tree.n_tags();
    let mut centers = vec![0.0; n_tags * dim];
    let mut dir = vec![0.0; dim];
    let mut stepped = vec![0.0; dim];
    for t in 0..n_tags as u32 {
        let mut rng =
            StdRng::seed_from_u64(seed.wrapping_add((t as u64).wrapping_mul(0xbf58476d1ce4e5b9)));
        let depth = tree.depth(t);
        let step = LEVEL_STEP[depth.min(LEVEL_STEP.len() - 1)];
        // Random unit direction × step.
        let mut norm = 0.0;
        for d in dir.iter_mut() {
            *d = gauss(&mut rng);
            norm += *d * *d;
        }
        let norm = norm.sqrt().max(1e-12);
        for d in dir.iter_mut() {
            *d *= step / norm;
        }
        let (lo, hi) = (t as usize * dim, (t as usize + 1) * dim);
        match tree.parent(t) {
            Some(p) => {
                let parent = centers[p as usize * dim..(p as usize + 1) * dim].to_vec();
                poincare::mobius_add(&parent, &dir, &mut stepped);
            }
            None => stepped.copy_from_slice(&dir),
        }
        poincare::project(&mut stepped);
        centers[lo..hi].copy_from_slice(&stepped);
    }
    centers
}

/// Box–Muller standard normal from two uniforms.
fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxorec_geometry::lorentz;

    fn small() -> EmbedConfig {
        EmbedConfig {
            n_items: 1000,
            n_users: 16,
            branching: vec![4, 4],
            dim_ir: 8,
            dim_tag: 4,
            ..EmbedConfig::default()
        }
    }

    #[test]
    fn rows_live_on_the_hyperboloid() {
        let e = generate_embeddings(&small());
        assert_eq!(e.v_ir.len(), 1000 * 9);
        assert_eq!(e.v_tg.len(), 1000 * 5);
        assert_eq!(e.u_ir.len(), 16 * 9);
        for i in 0..1000 {
            let row = &e.v_ir[i * 9..(i + 1) * 9];
            assert!(
                lorentz::constraint_residual(row) < 1e-9,
                "item {i} off the hyperboloid"
            );
        }
        for u in 0..16 {
            let row = &e.u_tg[u * 5..(u + 1) * 5];
            assert!(lorentz::constraint_residual(row) < 1e-9);
        }
    }

    #[test]
    fn deterministic_and_tagged_consistently() {
        let a = generate_embeddings(&small());
        let b = generate_embeddings(&small());
        assert_eq!(a.v_ir, b.v_ir);
        assert_eq!(a.u_ir, b.u_ir);
        assert_eq!(a.alphas, b.alphas);
        assert_eq!(a.item_tags, b.item_tags);
        // Each item's tag path is its leaf plus ancestors.
        let children = a.tag_tree.children();
        for tags in &a.item_tags {
            let leaf = *tags
                .iter()
                .find(|&&t| children[t as usize].is_empty())
                .expect("path includes a leaf");
            let mut want = a.tag_tree.ancestors(leaf);
            want.push(leaf);
            want.sort_unstable();
            assert_eq!(tags, &want);
        }
    }

    #[test]
    fn clusters_are_separated() {
        // Items sharing a leaf must sit closer together (hyperbolic
        // distance) than items from different top-level branches, which
        // is the structure the retrieval router exploits.
        let e = generate_embeddings(&small());
        let row = |i: usize| &e.v_ir[i * 9..(i + 1) * 9];
        let n_leaves = 16;
        // Items i and i+n_leaves share a leaf; i and i+1 never do.
        let mut within = 0.0;
        let mut across = 0.0;
        let pairs = 200;
        for i in 0..pairs {
            within += lorentz::distance(row(i), row(i + n_leaves));
            across += lorentz::distance(row(i), row(i + 1));
        }
        assert!(
            within / pairs as f64 * 2.0 < across / pairs as f64,
            "planted clusters are not separated: within={within} across={across}"
        );
    }
}
