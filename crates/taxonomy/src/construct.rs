//! Automated tag taxonomy construction — the paper's Algorithm 1 plus the
//! recursive top-down driver.
//!
//! For one node with tag scope `T`:
//!
//! 1. `T_sub ← T`;
//! 2. repeat: Poincaré-k-means `T_sub` into `G_1..G_K`; score every tag of
//!    each `G_k` with the representation-aware score (Eq. 7); drop tags
//!    scoring below `δ` (they are "general" and stay at the parent);
//!    `T_sub ← ∪ G_k`; stop when nothing changes;
//! 3. the surviving `G_k` become children; recurse into each child that is
//!    still large enough and above the depth limit.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::kmeans::{poincare_kmeans, Seeding};
use crate::scoring::{score, GroupStats};
use crate::tree::Taxonomy;

/// Configuration of the construction algorithm.
#[derive(Clone, Debug)]
pub struct ConstructConfig {
    /// Number of children per split, `K ∈ {2,3,4}` in the paper (§V-D).
    pub k: usize,
    /// Representativeness threshold `δ ∈ {0.25, 0.5, 0.75}` (§V-D).
    pub delta: f64,
    /// Stop splitting below this many tags.
    pub min_node_size: usize,
    /// Maximum tree depth (root = 0).
    pub max_depth: usize,
    /// k-means Lloyd iteration cap.
    pub kmeans_iters: usize,
    /// Centroid seeding strategy (ablation knob).
    pub seeding: Seeding,
    /// Adaptive-refinement iteration cap (Algorithm 1's `while True` is
    /// guaranteed to terminate, the cap is a defensive bound).
    pub refine_iters: usize,
    /// RNG seed for k-means.
    pub seed: u64,
}

impl Default for ConstructConfig {
    fn default() -> Self {
        Self {
            k: 3,
            delta: 0.25,
            min_node_size: 4,
            max_depth: 4,
            kmeans_iters: 30,
            seeding: Seeding::PlusPlus,
            refine_iters: 10,
            seed: 17,
        }
    }
}

/// Output of one Algorithm 1 invocation on a node.
#[derive(Clone, Debug)]
pub struct SplitResult {
    /// The children tag sets with per-tag scores (aligned).
    pub groups: Vec<(Vec<u32>, Vec<f64>)>,
    /// Tags pushed back up to the parent.
    pub general: Vec<u32>,
}

/// Algorithm 1: adaptive clustering of one tag set into at most `K`
/// refined children, returning the children and the pushed-up general
/// tags.
///
/// `emb`/`dim` is the flat Poincaré tag-embedding matrix; `item_tags` the
/// per-item tag lists (the matrix `Ψ`); `n_tags` the tag-universe size.
pub fn adaptive_split(
    emb: &[f64],
    dim: usize,
    tags: &[u32],
    item_tags: &[Vec<u32>],
    n_tags: usize,
    config: &ConstructConfig,
    rng: &mut StdRng,
) -> SplitResult {
    let mut t_sub: Vec<u32> = tags.to_vec();
    let mut groups: Vec<Vec<u32>> = Vec::new();
    for _ in 0..config.refine_iters {
        if t_sub.len() < 2 {
            groups = if t_sub.is_empty() {
                Vec::new()
            } else {
                vec![t_sub.clone()]
            };
            break;
        }
        // Line 3: Poincaré k-means over the current subset.
        let km = poincare_kmeans(
            emb,
            dim,
            &t_sub,
            config.k,
            config.seeding,
            config.kmeans_iters,
            rng,
        );
        let k = km.centroids.len() / dim;
        let mut candidate: Vec<Vec<u32>> = vec![Vec::new(); k];
        for (i, &t) in t_sub.iter().enumerate() {
            candidate[km.assignment[i]].push(t);
        }
        candidate.retain(|g| !g.is_empty());
        // Lines 4–8: score every tag against its siblings; drop general
        // tags (score < δ).
        let stats = GroupStats::compute_all(&candidate, item_tags, n_tags);
        let mut refined: Vec<Vec<u32>> = Vec::with_capacity(candidate.len());
        for (gi, g) in candidate.iter().enumerate() {
            let kept: Vec<u32> = g
                .iter()
                .copied()
                .filter(|&t| score(t, gi, &stats) >= config.delta)
                .collect();
            refined.push(kept);
        }
        refined.retain(|g| !g.is_empty());
        // Line 9–12: converged when the union stops shrinking.
        let mut union: Vec<u32> = refined.iter().flatten().copied().collect();
        union.sort_unstable();
        let mut prev = t_sub.clone();
        prev.sort_unstable();
        groups = refined;
        if union == prev {
            break;
        }
        t_sub = union;
        if t_sub.is_empty() {
            groups = Vec::new();
            break;
        }
    }
    // Score the final groups once more for the regularizer weights.
    let stats = GroupStats::compute_all(&groups, item_tags, n_tags);
    let scored: Vec<(Vec<u32>, Vec<f64>)> = groups
        .iter()
        .enumerate()
        .map(|(gi, g)| {
            let s: Vec<f64> = g.iter().map(|&t| score(t, gi, &stats)).collect();
            (g.clone(), s)
        })
        .collect();
    let in_groups: std::collections::HashSet<u32> =
        scored.iter().flat_map(|(g, _)| g.iter().copied()).collect();
    let general: Vec<u32> = tags
        .iter()
        .copied()
        .filter(|t| !in_groups.contains(t))
        .collect();
    SplitResult {
        groups: scored,
        general,
    }
}

/// Builds the full taxonomy by applying [`adaptive_split`] top-down from
/// the root (scope = all tags), recursing into children that are large
/// enough.
pub fn construct_taxonomy(
    emb: &[f64],
    dim: usize,
    n_tags: usize,
    item_tags: &[Vec<u32>],
    config: &ConstructConfig,
) -> Taxonomy {
    let started = std::time::Instant::now();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let all: Vec<u32> = (0..n_tags as u32).collect();
    let mut taxo = Taxonomy::new_root(all);
    let mut stack = vec![0usize];
    while let Some(node_idx) = stack.pop() {
        let (scope, level) = {
            let n = &taxo.nodes()[node_idx];
            (n.tags.clone(), n.level)
        };
        if scope.len() < config.min_node_size.max(2) || level >= config.max_depth {
            continue;
        }
        let split = adaptive_split(emb, dim, &scope, item_tags, n_tags, config, &mut rng);
        // A split into a single child that keeps everything is a no-op.
        let moved: usize = split.groups.iter().map(|(g, _)| g.len()).sum();
        if split.groups.len() < 2 || moved == 0 {
            continue;
        }
        for (g, s) in split.groups {
            let child = taxo.add_child(node_idx, g, s);
            stack.push(child);
        }
        taxo.node_mut(node_idx).retained = split.general;
    }
    debug_assert_eq!(taxo.validate(), Ok(()));
    taxorec_telemetry::histogram("taxo.rebuild.duration").observe(started.elapsed().as_secs_f64());
    taxo
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxorec_data::{generate_preset, Preset, Scale};

    /// Embeds tags using their planted tree: top-level tags near origin in
    /// K well-separated directions, children near their parents — an
    /// idealized "trained" embedding.
    fn oracle_embedding(d: &taxorec_data::Dataset, dim: usize) -> Vec<f64> {
        use std::f64::consts::TAU;
        let tree = d.taxonomy_truth.as_ref().unwrap();
        let mut emb = vec![0.0; d.n_tags * dim];
        for t in 0..d.n_tags as u32 {
            let depth = tree.depth(t);
            // Direction: hash of the tag's top ancestor + jitter by id.
            let mut top = t;
            while let Some(p) = tree.parent(top) {
                top = p;
            }
            let angle = (top as f64) * TAU / 7.3 + (t as f64) * 0.05;
            let radius = 0.25 + 0.22 * depth as f64;
            emb[t as usize * dim] = radius * angle.cos();
            emb[t as usize * dim + 1] = radius * angle.sin();
        }
        emb
    }

    #[test]
    fn split_pushes_up_ubiquitous_tag() {
        // Tag 2 co-occurs with everything (general); tags 0 and 1 are
        // concentrated; embeddings put 0/1 far apart and 2 in between, so
        // k-means first groups {0,2} vs {1}. The scoring function must rank
        // the general tag below the concentrated one in its host group;
        // with δ between the two scores, Algorithm 1 pushes it up.
        // Tags 0..3 each tag 30 items; tag 4 is on every item (general).
        let mut item_tags = Vec::new();
        for t in 0..4u32 {
            for _ in 0..30 {
                item_tags.push(vec![t, 4]);
            }
        }
        // Embeddings: {0,1} right, {2,3} left, 4 in between — k-means first
        // groups {0,1,4} vs {2,3}.
        let emb = vec![
            0.60, 0.00, //
            0.65, 0.05, //
            -0.60, 0.00, //
            -0.65, -0.05, //
            0.05, 0.30,
        ];
        // Self-calibrating δ: scoring ordering is asserted, then used.
        let stats = vec![
            GroupStats::compute(&[0, 1, 4], &item_tags, 5),
            GroupStats::compute(&[2, 3], &item_tags, 5),
        ];
        let s_general = score(4, 0, &stats);
        let s_concentrated = score(0, 0, &stats);
        assert!(
            s_general < s_concentrated,
            "general tag must score below concentrated ({s_general} vs {s_concentrated})"
        );
        let delta = 0.5 * (s_general + s_concentrated);
        let cfg = ConstructConfig {
            k: 2,
            delta,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(4);
        let r = adaptive_split(&emb, 2, &[0, 1, 2, 3, 4], &item_tags, 5, &cfg, &mut rng);
        assert!(r.general.contains(&4), "general tag pushed up: {r:?}");
        // The refinement converged on non-empty fine-grained groups of
        // concentrated tags only.
        assert!(!r.groups.is_empty());
        let grouped: Vec<u32> = r
            .groups
            .iter()
            .flat_map(|(g, _)| g.iter().copied())
            .collect();
        assert!(!grouped.contains(&4));
        assert!(!grouped.is_empty());
    }

    #[test]
    fn split_terminates_on_degenerate_embeddings() {
        let item_tags = vec![vec![0], vec![1], vec![2]];
        let emb = vec![0.1; 6]; // all identical
        let cfg = ConstructConfig::default();
        let mut rng = StdRng::seed_from_u64(1);
        let r = adaptive_split(&emb, 2, &[0, 1, 2], &item_tags, 3, &cfg, &mut rng);
        // No panic; outputs are structurally sane.
        let total: usize = r.groups.iter().map(|(g, _)| g.len()).sum();
        assert!(total + r.general.len() <= 3 + r.general.len());
    }

    #[test]
    fn construct_builds_multi_level_tree_with_oracle_embeddings() {
        let d = generate_preset(Preset::Ciao, Scale::Tiny);
        let emb = oracle_embedding(&d, 2);
        let cfg = ConstructConfig {
            k: 4,
            delta: 0.2,
            min_node_size: 3,
            ..Default::default()
        };
        let taxo = construct_taxonomy(&emb, 2, d.n_tags, &d.item_tags, &cfg);
        assert!(taxo.depth() >= 1, "should split at least once");
        assert_eq!(taxo.validate(), Ok(()));
        // Every tag resides somewhere.
        for t in 0..d.n_tags as u32 {
            let _ = taxo.residence(t);
        }
    }

    #[test]
    fn construct_respects_max_depth() {
        let d = generate_preset(Preset::Yelp, Scale::Tiny);
        let emb = oracle_embedding(&d, 2);
        let cfg = ConstructConfig {
            max_depth: 1,
            delta: 0.2,
            ..Default::default()
        };
        let taxo = construct_taxonomy(&emb, 2, d.n_tags, &d.item_tags, &cfg);
        assert!(taxo.depth() <= 1);
    }

    #[test]
    fn construct_handles_tiny_tag_universe() {
        let item_tags = vec![vec![0], vec![1]];
        let emb = vec![0.3, 0.0, -0.3, 0.0];
        let cfg = ConstructConfig::default();
        let taxo = construct_taxonomy(&emb, 2, 2, &item_tags, &cfg);
        // min_node_size=4 > 2 tags ⇒ just a root.
        assert_eq!(taxo.len(), 1);
    }
}
