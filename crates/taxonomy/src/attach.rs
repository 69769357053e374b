//! Evolve-don't-rebuild: hyperbolic placement attachment of a new tag
//! onto an existing [`Taxonomy`] (HyperExpan-style, see PAPERS.md).
//!
//! Algorithm 1 is a batch procedure — it needs every tag embedding up
//! front and rebuilds the whole tree. For streaming ingestion that cost
//! (and the resulting node-id churn) is unacceptable per tag, so a
//! never-seen tag is instead *grafted*: we walk the tree top-down,
//! summarize each child's scope by the Einstein midpoint of its member
//! embeddings plus a max-distance radius (the same node summary the
//! retrieval index keeps per routing node), descend into the nearest
//! child while the new tag plausibly belongs inside it, and attach a
//! leaf at the stopping node. The caller keeps a drift counter; once
//! enough grafts accumulate, a full Algorithm-1 rebuild reconciles the
//! tree (see `serve`'s update loop and DESIGN.md §17).

use taxorec_geometry::poincare;

use crate::tree::Taxonomy;

/// A graft admits the tag into a child whose centroid distance is
/// within `radius · ATTACH_SLACK` — slack, because a genuinely new tag
/// should sit slightly outside the current member cloud.
pub const ATTACH_SLACK: f64 = 1.25;

/// Where a tag was grafted.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AttachReport {
    /// Node under which the new leaf hangs.
    pub node: usize,
    /// The new leaf's node index.
    pub leaf: usize,
    /// Level of the new leaf.
    pub depth: usize,
    /// Poincaré distance from the tag to its parent's scope centroid
    /// (`0` when the parent is the root of a previously empty tree).
    pub distance: f64,
}

/// Einstein-midpoint centroid and max-distance radius of a node's
/// scope. Returns `None` for an empty scope (nothing to summarize).
fn scope_summary(taxo: &Taxonomy, node: usize, emb: &[f64], dim: usize) -> Option<(Vec<f64>, f64)> {
    let tags = &taxo.nodes()[node].tags;
    let points: Vec<&[f64]> = tags
        .iter()
        .map(|&t| &emb[t as usize * dim..(t as usize + 1) * dim])
        .collect();
    if points.is_empty() {
        return None;
    }
    let weights = vec![1.0; points.len()];
    let mut centroid = vec![0.0; dim];
    poincare::einstein_centroid(&points, &weights, &mut centroid);
    let radius = points
        .iter()
        .map(|p| poincare::distance(&centroid, p))
        .fold(0.0, f64::max);
    Some((centroid, radius))
}

/// Grafts never-seen tag `tag` into `taxo` as a new leaf, guided by the
/// flattened Poincaré tag embeddings `emb` (row-major, `dim` columns,
/// which must cover row `tag`).
///
/// The tag is added to the scope of the stopping node and every
/// ancestor (keeping the children-partition invariant), then a
/// singleton child is appended there. `taxo.validate()` holds after a
/// successful graft; on error the taxonomy is unchanged.
///
/// # Errors
/// * `tag` already in the taxonomy's root scope (not never-seen);
/// * `emb`/`dim` don't cover row `tag`.
pub fn attach_tag(
    taxo: &mut Taxonomy,
    tag: u32,
    emb: &[f64],
    dim: usize,
) -> Result<AttachReport, String> {
    if dim == 0 || emb.len() < (tag as usize + 1) * dim {
        return Err(format!(
            "embedding table ({} values, dim {dim}) has no row for tag {tag}",
            emb.len()
        ));
    }
    if taxo.nodes()[0].tags.contains(&tag) {
        return Err(format!("tag {tag} is already in the taxonomy"));
    }
    let x = &emb[tag as usize * dim..(tag as usize + 1) * dim];

    // Top-down placement walk.
    let mut node = 0usize;
    let mut dist_here =
        scope_summary(taxo, 0, emb, dim).map_or(0.0, |(c, _)| poincare::distance(&c, x));
    loop {
        let children = taxo.nodes()[node].children.clone();
        let mut best: Option<(usize, f64, f64)> = None;
        for c in children {
            let Some((centroid, radius)) = scope_summary(taxo, c, emb, dim) else {
                continue;
            };
            let d = poincare::distance(&centroid, x);
            if best.is_none_or(|(_, bd, _)| d < bd) {
                best = Some((c, d, radius));
            }
        }
        match best {
            // Descend while the nearest child's scope plausibly contains
            // the tag: inside the (slack-inflated) member cloud, or at
            // least a better fit than the current node's own centroid.
            Some((c, d, radius)) if d <= radius * ATTACH_SLACK || d < dist_here => {
                node = c;
                dist_here = d;
            }
            _ => break,
        }
    }

    // Graft: admit the tag into the stopping node's scope and every
    // ancestor's (children must stay subsets of parents), then hang the
    // singleton leaf. `retained` sets are untouched — the new tag is
    // always accounted for by the new child below its parent — while
    // `scores` stays aligned with `tags` (the checkpoint round-trip
    // through `Taxonomy::from_nodes` enforces that alignment).
    let score = 1.0 / (1.0 + dist_here);
    let mut cur = Some(node);
    while let Some(i) = cur {
        taxo.node_mut(i).tags.push(tag);
        taxo.node_mut(i).scores.push(score);
        cur = taxo.nodes()[i].parent;
    }
    let leaf = taxo.add_child(node, vec![tag], vec![score]);
    debug_assert_eq!(taxo.validate(), Ok(()));
    Ok(AttachReport {
        node,
        leaf,
        depth: taxo.nodes()[leaf].level,
        distance: dist_here,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{construct_taxonomy, ConstructConfig};

    /// Two well-separated clusters of tag embeddings in the ball, plus
    /// room for new tags appended later.
    fn clustered_embeddings(per_cluster: usize, dim: usize) -> Vec<f64> {
        let mut emb = Vec::new();
        for c in 0..2 {
            let sign = if c == 0 { 1.0 } else { -1.0 };
            for i in 0..per_cluster {
                for j in 0..dim {
                    let jitter = ((i * dim + j) as f64).sin() * 0.03;
                    emb.push(sign * 0.4 + jitter);
                }
            }
        }
        emb
    }

    fn built(per_cluster: usize, dim: usize) -> (Taxonomy, Vec<f64>) {
        let emb = clustered_embeddings(per_cluster, dim);
        let n_tags = per_cluster * 2;
        // Every item tagged with everything: scores are uniform, the
        // clustering drives the split.
        let item_tags: Vec<Vec<u32>> = (0..8).map(|_| (0..n_tags as u32).collect()).collect();
        let cfg = ConstructConfig {
            k: 2,
            min_node_size: 2,
            max_depth: 2,
            ..ConstructConfig::default()
        };
        let taxo = construct_taxonomy(&emb, dim, n_tags, &item_tags, &cfg);
        (taxo, emb)
    }

    #[test]
    fn graft_lands_in_the_matching_cluster_and_stays_valid() {
        let (mut taxo, mut emb) = built(6, 2);
        let before = taxo.len();
        let n_tags = 12u32;
        // New tag near cluster 0 (+0.4 corner).
        emb.extend_from_slice(&[0.41, 0.39]);
        let r = attach_tag(&mut taxo, n_tags, &emb, 2).unwrap();
        assert_eq!(taxo.len(), before + 1, "exactly one new node");
        assert_eq!(r.leaf, before);
        assert_eq!(taxo.validate(), Ok(()));
        assert_eq!(taxo.residence(n_tags), r.leaf);
        assert_eq!(taxo.nodes()[r.leaf].tags, vec![n_tags]);
        // It landed under a node whose members are cluster-0 tags.
        if r.node != 0 {
            let scope = &taxo.nodes()[r.node].tags;
            assert!(
                scope.iter().filter(|&&t| t < 6).count() > scope.len() / 2,
                "grafted into the wrong cluster: scope {scope:?}"
            );
        }
        // Prefix nodes are untouched apart from admitted scopes.
        assert_eq!(taxo.nodes()[r.leaf].parent, Some(r.node));
    }

    #[test]
    fn graft_is_deterministic() {
        let (taxo0, mut emb) = built(6, 2);
        emb.extend_from_slice(&[-0.38, -0.42]);
        let mut a = taxo0.clone();
        let mut b = taxo0.clone();
        let ra = attach_tag(&mut a, 12, &emb, 2).unwrap();
        let rb = attach_tag(&mut b, 12, &emb, 2).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_known_tags_and_missing_rows() {
        let (mut taxo, emb) = built(4, 2);
        let snapshot = taxo.clone();
        assert!(attach_tag(&mut taxo, 0, &emb, 2)
            .unwrap_err()
            .contains("already"));
        assert!(attach_tag(&mut taxo, 99, &emb, 2)
            .unwrap_err()
            .contains("no row"));
        assert_eq!(taxo, snapshot, "failed graft leaves the tree unchanged");
    }

    #[test]
    fn repeated_grafts_keep_the_tree_valid() {
        let (mut taxo, mut emb) = built(6, 2);
        for i in 0..10u32 {
            let v = if i % 2 == 0 { 0.35 } else { -0.35 };
            emb.extend_from_slice(&[v, v + 0.01 * i as f64]);
            attach_tag(&mut taxo, 12 + i, &emb, 2).unwrap();
            taxo.validate().unwrap();
        }
        assert_eq!(taxo.nodes()[0].tags.len(), 22);
    }
}
