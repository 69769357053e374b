//! The taxonomy-as-index data structure and its beam-search router.
//!
//! # Layout
//!
//! A [`TaxoIndex`] is a tree over the item catalogue:
//!
//! * **Node ids are breadth-first**, so every node's children occupy one
//!   contiguous id range (`child_lo .. child_hi`) — the routing step
//!   scores all children of a frontier node with one fused
//!   `distance_block` sweep over the centroid cache.
//! * **Item slots are depth-first**: the catalogue is permuted
//!   (`item_ids[slot] = original item id`) so every node — leaf or
//!   internal — owns one contiguous slot range (`start .. end`).
//!   Candidate scoring sweeps dense ranges of the permuted item caches;
//!   no gather step exists anywhere on the query path.
//! * Every node carries an **Einstein-midpoint centroid** per channel
//!   (computed in the Poincaré ball, lifted back to the hyperboloid) and
//!   a **radius bound**: the maximum Lorentz distance from the centroid
//!   to any member item.
//!
//! # Construction
//!
//! The top level follows the *trained taxonomy*: items are grouped by
//! the top-level taxonomy branch in which their deepest-residing tag
//! lives (untagged items form a final catch-all group). Each group is
//! then refined by recursive Poincaré k-means over the item embeddings
//! until every leaf holds at most `max_leaf` items. Without a taxonomy
//! (or with a degenerate one) the k-means recursion starts at the root.
//!
//! # Routing
//!
//! The router keeps a beam of at most `B` frontier nodes, starting at
//! the root. Each round it replaces every internal frontier node by its
//! children, scores all new nodes with the *optimistic bound*
//!
//! ```text
//! bound(node) = −( max(0, d(u_ir, c_ir) − r_ir)²
//!                + α·max(0, d(u_tg, c_tg) − r_tg)² )
//! ```
//!
//! (an upper bound on any member's fused score, by the triangle
//! inequality, for α ≥ 0), keeps the best `B` (ties → lower node id),
//! and stops when the frontier is all leaves. Selected leaves' slot
//! ranges are fused-scored, best bound first, and merged through the
//! order-independent [`TopKAccumulator`]: the nearest leaf sets the
//! top-K cut before the others offer their items, and no order changes
//! a result bit.
//!
//! Because selection only ever *truncates* to the top `B` — and any
//! frontier is a set of disjoint non-empty subtrees, of which there are
//! at most `n_leaves` — a beam `B ≥ n_leaves` never truncates, selects
//! every leaf, and reproduces the exhaustive ranking bit-identically.
//!
//! # The tail
//!
//! The tree covers slots `0 .. end[root]`. Items appended since the
//! build ([`IndexParts::append_items`]) fill the slots after it, in id
//! order, and every query ranks that tail exhaustively after its leaves.
//! The tree itself is never patched: its ranges, centroids and radii
//! are those of the build.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use taxorec_data::{Anchor, Scorer, TopKAccumulator};
use taxorec_geometry::batch::BlockCache;
use taxorec_geometry::{convert, lorentz, poincare};
use taxorec_taxonomy::{poincare_kmeans, Seeding, Taxonomy};

/// Hard cap on index depth: guards the k-means recursion against
/// pathological point sets that refuse to separate.
pub const INDEX_MAX_DEPTH: usize = 24;

/// Sentinel child pointer for leaves in [`IndexParts`].
const NO_CHILD: u32 = u32::MAX;

/// Build- and default-query-time parameters of a [`TaxoIndex`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IndexConfig {
    /// Nodes larger than this are split (leaves may still exceed it when
    /// k-means cannot separate the points).
    pub max_leaf: usize,
    /// k-means fan-out per split.
    pub branch: usize,
    /// Default beam width used when a query passes `beam = 0`. Set to
    /// `0` (the config default) to derive it from the realized tree at
    /// build time as `max(8, n_leaves/16)` — recall at a fixed beam
    /// decays as the leaf count grows, so the default widens with the
    /// catalogue while staying sub-linear.
    pub beam: usize,
    /// Lloyd iterations per split.
    pub kmeans_iters: usize,
    /// Base RNG seed; each node's k-means derives a per-node stream.
    pub seed: u64,
}

impl Default for IndexConfig {
    fn default() -> Self {
        Self {
            max_leaf: 512,
            branch: 8,
            beam: 0,
            kmeans_iters: 12,
            seed: 0x7461786f,
        }
    }
}

pub use taxorec_data::ItemEmbeddings;

/// The serializable structure of a [`TaxoIndex`]: everything except the
/// block caches, which are rebuilt from the model's item embeddings on
/// load (so `.taxo` artifacts store the tree once, not the catalogue
/// twice). Node arrays are parallel, indexed by breadth-first node id.
#[derive(Clone, Debug, PartialEq)]
pub struct IndexParts {
    /// Build configuration (also carries the default beam width).
    pub config: IndexConfig,
    /// Catalogue size the index was built for.
    pub n_items: usize,
    /// Ambient dimension of the ir channel.
    pub ambient_ir: usize,
    /// Ambient dimension of the tag channel, `0` when absent.
    pub ambient_tg: usize,
    /// First child id per node, [`u32::MAX`] for leaves.
    pub child_lo: Vec<u32>,
    /// One past the last child id per node, `0` for leaves.
    pub child_hi: Vec<u32>,
    /// First item slot per node.
    pub start: Vec<u32>,
    /// One past the last item slot per node.
    pub end: Vec<u32>,
    /// Depth per node (root = 0).
    pub level: Vec<u32>,
    /// Slot → original item id permutation.
    pub item_ids: Vec<u32>,
    /// Node centroids, ir channel, `n_nodes × ambient_ir` (Lorentz).
    pub cent_ir: Vec<f64>,
    /// Node centroids, tag channel, `n_nodes × ambient_tg` (empty when
    /// the channel is absent).
    pub cent_tg: Vec<f64>,
    /// Max Lorentz distance centroid → member, ir channel, per node.
    pub radius_ir: Vec<f64>,
    /// Max Lorentz distance centroid → member, tag channel, per node.
    pub radius_tg: Vec<f64>,
}

impl IndexParts {
    /// Number of tree nodes.
    pub fn n_nodes(&self) -> usize {
        self.child_lo.len()
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.child_lo.iter().filter(|&&c| c == NO_CHILD).count()
    }

    /// Maximum node depth (root = 0).
    pub fn depth(&self) -> usize {
        self.level.iter().copied().max().unwrap_or(0) as usize
    }

    /// True when the default beam is the one a build derives for this
    /// tree's leaf count ([`derived_beam`]). The parts keep only the
    /// resolved width, so this is how a rebuild tells a derived beam,
    /// which it derives again for the new tree, from a chosen one, which
    /// it keeps; a chosen width equal to the derived one reads as
    /// derived.
    pub fn beam_is_derived(&self) -> bool {
        self.config.beam == derived_beam(self.n_leaves())
    }

    fn is_leaf(&self, n: usize) -> bool {
        self.child_lo[n] == NO_CHILD
    }

    /// Structural validation: parallel-array lengths, child/slot range
    /// nesting, and that `item_ids` is a permutation of the catalogue.
    pub fn validate(&self) -> Result<(), String> {
        let n_nodes = self.child_lo.len();
        if n_nodes == 0 {
            return Err("index has no nodes".into());
        }
        for (name, len) in [
            ("child_hi", self.child_hi.len()),
            ("start", self.start.len()),
            ("end", self.end.len()),
            ("level", self.level.len()),
            ("radius_ir", self.radius_ir.len()),
            ("radius_tg", self.radius_tg.len()),
        ] {
            if len != n_nodes {
                return Err(format!(
                    "index array {name} has {len} entries, want {n_nodes}"
                ));
            }
        }
        if self.ambient_ir < 2 {
            return Err("index ambient_ir must be >= 2".into());
        }
        if self.config.beam == 0 {
            return Err("index default beam must be >= 1".into());
        }
        if self.cent_ir.len() != n_nodes * self.ambient_ir {
            return Err("cent_ir size mismatch".into());
        }
        if self.ambient_tg == 0 {
            if !self.cent_tg.is_empty() {
                return Err("cent_tg present but ambient_tg is 0".into());
            }
        } else if self.cent_tg.len() != n_nodes * self.ambient_tg {
            return Err("cent_tg size mismatch".into());
        }
        if self.item_ids.len() != self.n_items {
            return Err("item_ids length differs from n_items".into());
        }
        let mut seen = vec![false; self.n_items];
        for &v in &self.item_ids {
            let slot = v as usize;
            if slot >= self.n_items || seen[slot] {
                return Err("item_ids is not a permutation of the catalogue".into());
            }
            seen[slot] = true;
        }
        if self.start[0] != 0 || self.level[0] != 0 {
            return Err("root does not start the catalogue".into());
        }
        for n in 0..n_nodes {
            if self.start[n] > self.end[n] || self.end[n] as usize > self.n_items {
                return Err(format!("node {n} has an invalid slot range"));
            }
            if !self.radius_ir[n].is_finite() || self.radius_ir[n] < 0.0 {
                return Err(format!("node {n} has an invalid ir radius"));
            }
            if !self.radius_tg[n].is_finite() || self.radius_tg[n] < 0.0 {
                return Err(format!("node {n} has an invalid tag radius"));
            }
            if self.is_leaf(n) {
                if self.start[n] == self.end[n] {
                    return Err(format!("leaf {n} is empty"));
                }
                continue;
            }
            let (lo, hi) = (self.child_lo[n] as usize, self.child_hi[n] as usize);
            if lo <= n || hi <= lo || hi > n_nodes {
                return Err(format!("node {n} has an invalid child range"));
            }
            // Children partition the parent's slot range in order.
            let mut cursor = self.start[n];
            for c in lo..hi {
                if self.start[c] != cursor {
                    return Err(format!("child {c} does not continue node {n}'s range"));
                }
                if self.level[c] != self.level[n] + 1 {
                    return Err(format!("child {c} has a non-consecutive level"));
                }
                cursor = self.end[c];
            }
            if cursor != self.end[n] {
                return Err(format!("children of node {n} do not cover its range"));
            }
        }
        Ok(())
    }

    /// Appends newly grown catalogue items to the tail without a
    /// rebuild (the streaming-ingestion fast path).
    ///
    /// `items` must be the *full* post-growth embedding table; rows
    /// `self.n_items..` are the new items. They take the slots after
    /// the last one, in id order; the tree (node ranges, centroids and
    /// radii) is untouched, and every beam query ranks the tail in full.
    ///
    /// Returns the number of items appended. Pre-flight errors leave
    /// the parts unchanged.
    pub fn append_items(&mut self, items: &ItemEmbeddings<'_>) -> Result<usize, String> {
        items.check()?;
        let total = items.v_ir.len() / items.ambient_ir;
        if total < self.n_items {
            return Err(format!(
                "embedding table has {total} rows, fewer than the {} already indexed",
                self.n_items
            ));
        }
        if items.ambient_ir != self.ambient_ir {
            return Err("ambient_ir differs from the index".into());
        }
        if self.ambient_tg != 0 && items.v_tg.is_none() {
            return Err("index has a tag channel but the embeddings do not".into());
        }
        if self.ambient_tg != 0 && items.ambient_tg != self.ambient_tg {
            return Err("ambient_tg differs from the index".into());
        }
        let n_new = total - self.n_items;
        self.item_ids.extend(self.n_items as u32..total as u32);
        self.n_items = total;
        Ok(n_new)
    }
}

/// The default beam a build derives when its config asks for one
/// (`beam = 0`): `max(8, ⌈n_leaves/16⌉)`.
pub fn derived_beam(n_leaves: usize) -> usize {
    n_leaves.div_ceil(16).max(8)
}

/// Per-query routing statistics (also surfaced by serve telemetry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Effective beam width used.
    pub beam: usize,
    /// Leaves selected by the router.
    pub leaves: usize,
    /// Items fused-scored (before seen-item exclusion), the tail
    /// included.
    pub candidates: usize,
}

/// One intermediate node during construction.
struct BuildNode {
    level: usize,
    members: Vec<u32>,
    child_lo: u32,
    child_hi: u32,
}

/// The retrieval index: serializable structure ([`IndexParts`]) plus the
/// scorer over the permuted items and the centroid caches routing sweeps.
pub struct TaxoIndex {
    parts: IndexParts,
    /// Cache row `slot` is item `parts.item_ids[slot]`.
    items: Scorer,
    cent_ir: BlockCache,
    cent_tg: Option<BlockCache>,
}

impl TaxoIndex {
    /// Builds an index over the catalogue: taxonomy top-level grouping,
    /// recursive Poincaré k-means refinement, Einstein-midpoint
    /// centroids, radius bounds, and the permuted block caches.
    /// Deterministic for a fixed config.
    pub fn build(
        items: &ItemEmbeddings<'_>,
        taxonomy: Option<&Taxonomy>,
        item_tags: &[Vec<u32>],
        config: &IndexConfig,
    ) -> Result<Self, String> {
        items.check()?;
        let n = items.n_items();
        let max_leaf = config.max_leaf.max(1);
        let branch = config.branch.max(2);

        // k-means and centroids run in the Poincaré ball; convert once.
        let dim_ir = items.ambient_ir - 1;
        let mut poi_ir = vec![0.0; n * dim_ir];
        for i in 0..n {
            convert::lorentz_to_poincare(
                &items.v_ir[i * items.ambient_ir..(i + 1) * items.ambient_ir],
                &mut poi_ir[i * dim_ir..(i + 1) * dim_ir],
            );
        }

        // --- Tree construction (breadth-first ids). ---
        let mut nodes: Vec<BuildNode> = vec![BuildNode {
            level: 0,
            members: (0..n as u32).collect(),
            child_lo: NO_CHILD,
            child_hi: 0,
        }];
        // Breadth-first by whole levels: a level's splits are independent
        // (each node seeds its own k-means stream from its id), so they
        // run as one parallel job each, and their children are numbered
        // in node order afterwards — the ids a node-by-node queue gives.
        let mut level_ids: Vec<usize> =
            match taxonomy.and_then(|t| taxonomy_groups(t, item_tags, n)) {
                Some(groups) => adopt(&mut nodes, 0, groups).collect(),
                None => vec![0],
            };
        while !level_ids.is_empty() {
            let splits = taxorec_parallel::par_map("retrieval.build.split", level_ids.len(), |j| {
                let id = level_ids[j];
                split_node(&nodes[id], id, &poi_ir, dim_ir, config, max_leaf, branch)
            });
            let mut next = Vec::new();
            for (&id, parts) in level_ids.iter().zip(splits) {
                if let Some(parts) = parts {
                    next.extend(adopt(&mut nodes, id, parts));
                }
            }
            level_ids = next;
        }
        let n_nodes = nodes.len();

        // --- Depth-first slot assignment: contiguous ranges per node. ---
        let mut item_ids: Vec<u32> = Vec::with_capacity(n);
        let mut start = vec![0u32; n_nodes];
        let mut end = vec![0u32; n_nodes];
        assign_slots(&nodes, 0, &mut item_ids, &mut start, &mut end);
        debug_assert_eq!(item_ids.len(), n);

        // --- Centroids and radius bounds, one parallel job per node. ---
        let has_tg = items.v_tg.is_some();
        let dim_tg = if has_tg { items.ambient_tg - 1 } else { 0 };
        let mut poi_tg = vec![0.0; n * dim_tg];
        if let Some(v_tg) = items.v_tg {
            for i in 0..n {
                convert::lorentz_to_poincare(
                    &v_tg[i * items.ambient_tg..(i + 1) * items.ambient_tg],
                    &mut poi_tg[i * dim_tg..(i + 1) * dim_tg],
                );
            }
        }
        let summaries = taxorec_parallel::par_map("retrieval.build.centroids", n_nodes, |id| {
            let members = &nodes[id].members;
            let (c_ir, r_ir) = node_summary(members, &poi_ir, dim_ir, items.v_ir, items.ambient_ir);
            let (c_tg, r_tg) = match items.v_tg {
                Some(v_tg) => node_summary(members, &poi_tg, dim_tg, v_tg, items.ambient_tg),
                None => (Vec::new(), 0.0),
            };
            (c_ir, r_ir, c_tg, r_tg)
        });
        let mut cent_ir = Vec::with_capacity(n_nodes * items.ambient_ir);
        let mut cent_tg = Vec::with_capacity(if has_tg {
            n_nodes * items.ambient_tg
        } else {
            0
        });
        let mut radius_ir = Vec::with_capacity(n_nodes);
        let mut radius_tg = Vec::with_capacity(n_nodes);
        for (c_ir, r_ir, c_tg, r_tg) in summaries {
            cent_ir.extend_from_slice(&c_ir);
            cent_tg.extend_from_slice(&c_tg);
            radius_ir.push(r_ir);
            radius_tg.push(r_tg);
        }

        let n_leaves_built = nodes.iter().filter(|b| b.child_lo == NO_CHILD).count();
        let parts = IndexParts {
            config: IndexConfig {
                max_leaf,
                branch,
                beam: if config.beam == 0 {
                    derived_beam(n_leaves_built)
                } else {
                    config.beam
                },
                kmeans_iters: config.kmeans_iters.max(1),
                seed: config.seed,
            },
            n_items: n,
            ambient_ir: items.ambient_ir,
            ambient_tg: if has_tg { items.ambient_tg } else { 0 },
            child_lo: nodes.iter().map(|b| b.child_lo).collect(),
            child_hi: nodes.iter().map(|b| b.child_hi).collect(),
            start,
            end,
            level: nodes.iter().map(|b| b.level as u32).collect(),
            item_ids,
            cent_ir,
            cent_tg,
            radius_ir,
            radius_tg,
        };
        Self::from_parts(parts, items)
    }

    /// Rebuilds a queryable index from its serialized structure and the
    /// model's item embeddings (validates both before touching caches).
    pub fn from_parts(parts: IndexParts, items: &ItemEmbeddings<'_>) -> Result<Self, String> {
        items.check()?;
        parts.validate()?;
        if parts.n_items != items.n_items() {
            return Err(format!(
                "index was built for {} items but the model has {}",
                parts.n_items,
                items.n_items()
            ));
        }
        if parts.ambient_ir != items.ambient_ir {
            return Err("index ir dimension differs from the model".into());
        }
        let has_tg = parts.ambient_tg != 0;
        if has_tg && (items.v_tg.is_none() || parts.ambient_tg != items.ambient_tg) {
            return Err("index tag channel differs from the model".into());
        }
        let items = Scorer::build_permuted(items, parts.item_ids.clone());
        let cent_ir = BlockCache::build(&parts.cent_ir, parts.ambient_ir);
        let cent_tg = if has_tg {
            Some(BlockCache::build(&parts.cent_tg, parts.ambient_tg))
        } else {
            None
        };
        Ok(Self {
            parts,
            items,
            cent_ir,
            cent_tg,
        })
    }

    /// The serializable structure.
    pub fn parts(&self) -> &IndexParts {
        &self.parts
    }

    /// Catalogue size.
    pub fn n_items(&self) -> usize {
        self.parts.n_items
    }

    /// Number of tree nodes.
    pub fn n_nodes(&self) -> usize {
        self.parts.n_nodes()
    }

    /// Number of leaves (also the beam width that guarantees coverage).
    pub fn n_leaves(&self) -> usize {
        self.parts.n_leaves()
    }

    /// Maximum node depth.
    pub fn depth(&self) -> usize {
        self.parts.depth()
    }

    /// Default beam width from the build config.
    pub fn default_beam(&self) -> usize {
        self.parts.config.beam
    }

    /// Whether the index routes and scores the tag channel.
    pub fn has_tag_channel(&self) -> bool {
        self.parts.ambient_tg != 0
    }

    /// Beam-search retrieval for one anchor — a [`TaxoIndex::search_block`]
    /// of one: routes to the top-`beam` clusters, ranks their slot
    /// ranges, and returns the top `k` candidates (best first, ties →
    /// lower item id) with routing stats.
    /// `beam = 0` takes the index default; `tag` carries the user's
    /// tag-channel anchor and weight `α = gain·α_u` and must be `None`
    /// iff the index has no tag channel. Candidates for which `exclude`
    /// returns true are skipped.
    pub fn search(
        &self,
        anchor_ir: &[f64],
        tag: Option<(&[f64], f64)>,
        beam: usize,
        k: usize,
        exclude: &dyn Fn(u32) -> bool,
    ) -> (Vec<(u32, f64)>, SearchStats) {
        let (mut tops, stats) = self.search_block(
            &[Anchor {
                ir: anchor_ir,
                tg: tag,
            }],
            beam,
            k,
            &|_, item| exclude(item),
        );
        (tops.remove(0), stats[0])
    }

    /// The exact escape hatch: fused-scores the *entire* catalogue
    /// through the index's permuted caches. Per-item arithmetic is
    /// position-independent, so the result equals the pre-index
    /// exhaustive path bit for bit — this is what the recall harness
    /// measures [`TaxoIndex::search`] against.
    pub fn search_exact(
        &self,
        anchor_ir: &[f64],
        tag: Option<(&[f64], f64)>,
        k: usize,
        exclude: &dyn Fn(u32) -> bool,
    ) -> Vec<(u32, f64)> {
        let mut acc = [self.items.accumulator(k)];
        self.items.rank_range(
            &[Anchor {
                ir: anchor_ir,
                tg: tag,
            }],
            0..self.parts.n_items,
            &mut acc,
            None,
            |_, item| exclude(item),
        );
        let [acc] = acc;
        acc.into_sorted()
    }

    /// The beam search itself, for a block of anchors: routes each one,
    /// then ranks each selected leaf once for *all* anchors that chose
    /// it (item panels stream once per leaf, not once per query), then
    /// the tail once for all anchors.
    /// Results and stats are parallel to `anchors`; a query's ranking
    /// does not depend on what else shares its block.
    pub fn search_block(
        &self,
        anchors: &[Anchor<'_>],
        beam: usize,
        k: usize,
        exclude: &dyn Fn(usize, u32) -> bool,
    ) -> (Vec<Vec<(u32, f64)>>, Vec<SearchStats>) {
        let beam = self.effective_beam(beam);
        let tail = self.parts.end[0] as usize..self.parts.n_items;
        let mut stats = vec![
            SearchStats {
                beam,
                candidates: tail.len(),
                ..SearchStats::default()
            };
            anchors.len()
        ];
        // (leaf id, positions of the queries that selected it), each leaf
        // at its first selection: queries in block order, each query's
        // leaves best bound first. The nearest leaf is ranked first, so
        // the top-K cut tightens early and later leaves offer fewer
        // items; the accumulator is insertion-order independent, so the
        // order moves no bit, and it is a pure function of the block.
        let mut by_leaf: Vec<(usize, Vec<usize>)> = Vec::new();
        let mut position: HashMap<usize, usize> = HashMap::new();
        for (q, anchor) in anchors.iter().enumerate() {
            for (leaf, _) in self.route(anchor.ir, anchor.tg, beam) {
                stats[q].leaves += 1;
                stats[q].candidates += (self.parts.end[leaf] - self.parts.start[leaf]) as usize;
                let at = *position.entry(leaf).or_insert_with(|| {
                    by_leaf.push((leaf, Vec::new()));
                    by_leaf.len() - 1
                });
                by_leaf[at].1.push(q);
            }
        }
        let mut accs: Vec<TopKAccumulator> =
            anchors.iter().map(|_| self.items.accumulator(k)).collect();
        for (leaf, queries) in by_leaf {
            let sub: Vec<Anchor<'_>> = queries.iter().map(|&q| anchors[q]).collect();
            self.items.rank_range(
                &sub,
                self.parts.start[leaf] as usize..self.parts.end[leaf] as usize,
                &mut accs,
                Some(&queries),
                exclude,
            );
        }
        if !tail.is_empty() {
            self.items
                .rank_range(anchors, tail, &mut accs, None, exclude);
        }
        (
            accs.into_iter().map(TopKAccumulator::into_sorted).collect(),
            stats,
        )
    }

    fn effective_beam(&self, beam: usize) -> usize {
        if beam == 0 {
            self.parts.config.beam
        } else {
            beam
        }
    }

    /// Beam descent: returns the selected leaves with their bounds, best
    /// bound first (ties → lower id), the order the last round kept them
    /// in. See the module docs for the bound formula and the
    /// `B ≥ n_leaves` coverage guarantee. `α` is clamped at 0 for the
    /// bound only — a negative channel weight would flip the triangle
    /// inequality.
    fn route(
        &self,
        anchor_ir: &[f64],
        tag: Option<(&[f64], f64)>,
        beam: usize,
    ) -> Vec<(usize, f64)> {
        let p = &self.parts;
        let beam = beam.max(1);
        let mut frontier: Vec<(usize, f64)> = vec![(0, f64::INFINITY)];
        let mut scored: Vec<(usize, f64)> = Vec::new();
        let mut d_ir: Vec<f64> = Vec::new();
        let mut d_tg: Vec<f64> = Vec::new();
        while !frontier.iter().all(|&(n, _)| p.is_leaf(n)) {
            scored.clear();
            for &(n, bound) in &frontier {
                if p.is_leaf(n) {
                    scored.push((n, bound));
                    continue;
                }
                let (lo, hi) = (p.child_lo[n] as usize, p.child_hi[n] as usize);
                let m = hi - lo;
                if d_ir.len() < m {
                    d_ir.resize(m, 0.0);
                    d_tg.resize(m, 0.0);
                }
                self.cent_ir
                    .distance_block(anchor_ir, lo, hi, &mut d_ir[..m]);
                if let Some((anchor_tg, _)) = tag {
                    self.cent_tg
                        .as_ref()
                        .expect("tag centroid cache present")
                        .distance_block(anchor_tg, lo, hi, &mut d_tg[..m]);
                }
                for j in 0..m {
                    let c = lo + j;
                    let gap = (d_ir[j] - p.radius_ir[c]).max(0.0);
                    let mut g = gap * gap;
                    if let Some((_, alpha)) = tag {
                        let gap_tg = (d_tg[j] - p.radius_tg[c]).max(0.0);
                        g += alpha.max(0.0) * gap_tg * gap_tg;
                    }
                    scored.push((c, -g));
                }
            }
            scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            scored.truncate(beam);
            std::mem::swap(&mut frontier, &mut scored);
        }
        frontier
    }
}

/// Einstein-midpoint centroid (lifted to the hyperboloid) and radius
/// bound of one node's member set in one channel.
fn node_summary(
    members: &[u32],
    poi: &[f64],
    dim: usize,
    lorentz_rows: &[f64],
    ambient: usize,
) -> (Vec<f64>, f64) {
    let refs: Vec<&[f64]> = members
        .iter()
        .map(|&v| &poi[v as usize * dim..(v as usize + 1) * dim])
        .collect();
    let weights = vec![1.0; refs.len()];
    let mut c_poi = vec![0.0; dim];
    poincare::einstein_centroid(&refs, &weights, &mut c_poi);
    let mut c_lor = vec![0.0; ambient];
    convert::poincare_to_lorentz(&c_poi, &mut c_lor);
    let radius = members
        .iter()
        .map(|&v| {
            lorentz::distance(
                &c_lor,
                &lorentz_rows[v as usize * ambient..(v as usize + 1) * ambient],
            )
        })
        .fold(0.0f64, f64::max);
    (c_lor, radius)
}

/// Appends `parts` as the children of node `id`, one level below it,
/// and returns their ids.
fn adopt(nodes: &mut Vec<BuildNode>, id: usize, parts: Vec<Vec<u32>>) -> std::ops::Range<usize> {
    let (lo, level) = (nodes.len(), nodes[id].level + 1);
    nodes[id].child_lo = lo as u32;
    nodes[id].child_hi = (lo + parts.len()) as u32;
    nodes.extend(parts.into_iter().map(|members| BuildNode {
        level,
        members,
        child_lo: NO_CHILD,
        child_hi: 0,
    }));
    lo..nodes.len()
}

/// One node's split: its members partitioned by Poincaré k-means into
/// the non-empty clusters, in cluster order; `None` keeps it a leaf (small
/// enough, at the depth cap, or not separable).
fn split_node(
    node: &BuildNode,
    id: usize,
    poi_ir: &[f64],
    dim_ir: usize,
    config: &IndexConfig,
    max_leaf: usize,
    branch: usize,
) -> Option<Vec<Vec<u32>>> {
    let size = node.members.len();
    if size <= max_leaf || node.level >= INDEX_MAX_DEPTH {
        return None;
    }
    let k = branch.min(size);
    let mut rng = StdRng::seed_from_u64(
        config
            .seed
            .wrapping_add((id as u64).wrapping_mul(0x9e3779b97f4a7c15)),
    );
    let res = poincare_kmeans(
        poi_ir,
        dim_ir,
        &node.members,
        k,
        Seeding::PlusPlus,
        config.kmeans_iters.max(1),
        &mut rng,
    );
    let mut parts: Vec<Vec<u32>> = vec![Vec::new(); k];
    for (pos, &item) in node.members.iter().enumerate() {
        parts[res.assignment[pos]].push(item);
    }
    parts.retain(|p| !p.is_empty());
    // One part means no separation: keep an oversized leaf.
    (parts.len() > 1).then_some(parts)
}

/// Depth-first slot assignment: leaves append their members (ascending
/// original id) to the permutation; every node's range spans exactly its
/// descendants' slots.
fn assign_slots(
    nodes: &[BuildNode],
    id: usize,
    item_ids: &mut Vec<u32>,
    start: &mut [u32],
    end: &mut [u32],
) {
    start[id] = item_ids.len() as u32;
    if nodes[id].child_lo == NO_CHILD {
        item_ids.extend_from_slice(&nodes[id].members);
    } else {
        for c in nodes[id].child_lo as usize..nodes[id].child_hi as usize {
            assign_slots(nodes, c, item_ids, start, end);
        }
    }
    end[id] = item_ids.len() as u32;
}

/// Top-level grouping by the trained taxonomy: each item goes to the
/// top-level branch housing its deepest-residing tag (ties → lower tag
/// id); untagged items and tags residing at the root fall into a final
/// catch-all group. Returns `None` when the taxonomy cannot split the
/// catalogue into at least two non-empty groups — the k-means recursion
/// then starts at the root instead.
fn taxonomy_groups(
    taxonomy: &Taxonomy,
    item_tags: &[Vec<u32>],
    n_items: usize,
) -> Option<Vec<Vec<u32>>> {
    let top: &[usize] = &taxonomy.nodes()[0].children;
    if top.len() < 2 || item_tags.is_empty() {
        return None;
    }
    let n_tags = item_tags
        .iter()
        .flat_map(|ts| ts.iter().copied())
        .max()
        .map(|t| t as usize + 1)?;
    // Per tag: (top-level group slot, residence depth).
    let mut tag_group: Vec<Option<(usize, usize)>> = vec![None; n_tags];
    for (t, slot) in tag_group.iter_mut().enumerate() {
        let res = taxonomy.residence(t as u32);
        if res == 0 {
            continue;
        }
        let depth = taxonomy.nodes()[res].level;
        let mut cur = res;
        while let Some(parent) = taxonomy.nodes()[cur].parent {
            if parent == 0 {
                break;
            }
            cur = parent;
        }
        if let Some(pos) = top.iter().position(|&c| c == cur) {
            *slot = Some((pos, depth));
        }
    }
    let misc = top.len();
    let mut groups: Vec<Vec<u32>> = vec![Vec::new(); top.len() + 1];
    for item in 0..n_items {
        let mut best: Option<(usize, usize)> = None; // (group, depth)
        for &t in item_tags.get(item).map(|v| v.as_slice()).unwrap_or(&[]) {
            if let Some(&Some((group, depth))) = tag_group.get(t as usize) {
                // Strict > keeps the first (lowest-id) tag on depth ties.
                if best.is_none_or(|(_, d)| depth > d) {
                    best = Some((group, depth));
                }
            }
        }
        groups[best.map_or(misc, |(g, _)| g)].push(item as u32);
    }
    groups.retain(|g| !g.is_empty());
    if groups.len() < 2 {
        return None;
    }
    Some(groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxorec_geometry::batch::fused_scores_block;

    /// Four well-separated planted clusters in a 3-ambient (2-spatial)
    /// Lorentz space, `per` items each.
    fn planted(per: usize) -> (Vec<f64>, usize) {
        let centers = [[1.8, 0.0], [-1.8, 0.0], [0.0, 1.8], [0.0, -1.8]];
        let mut flat = Vec::new();
        for i in 0..4 * per {
            let c = centers[i % 4];
            // Deterministic low-discrepancy jitter.
            let a = ((i * 37) % 19) as f64 / 19.0 - 0.5;
            let b = ((i * 53) % 23) as f64 / 23.0 - 0.5;
            let p = lorentz::from_spatial(&[c[0] + 0.25 * a, c[1] + 0.25 * b]);
            flat.extend_from_slice(&p);
        }
        (flat, 3)
    }

    fn build_planted(per: usize, max_leaf: usize) -> (TaxoIndex, Vec<f64>) {
        let (flat, ambient) = planted(per);
        let items = ItemEmbeddings {
            v_ir: &flat,
            ambient_ir: ambient,
            v_tg: None,
            ambient_tg: 0,
        };
        let cfg = IndexConfig {
            max_leaf,
            branch: 4,
            beam: 2,
            kmeans_iters: 10,
            seed: 7,
        };
        let idx = TaxoIndex::build(&items, None, &[], &cfg).expect("build");
        (idx, flat)
    }

    #[test]
    fn build_validates_and_partitions() {
        let (idx, _) = build_planted(50, 20);
        assert_eq!(idx.n_items(), 200);
        assert!(idx.n_leaves() >= 4, "planted clusters should separate");
        idx.parts().validate().expect("valid parts");
        // Every leaf range is non-empty and the union covers the catalogue.
        let total: usize = (0..idx.n_nodes())
            .filter(|&n| idx.parts().is_leaf(n))
            .map(|n| (idx.parts().end[n] - idx.parts().start[n]) as usize)
            .sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn full_beam_is_bit_identical_to_exact() {
        let (idx, _) = build_planted(50, 20);
        let anchor = lorentz::from_spatial(&[1.5, 0.3]);
        let exact = idx.search_exact(&anchor, None, 15, &|_| false);
        let (beamed, stats) = idx.search(&anchor, None, idx.n_leaves(), 15, &|_| false);
        assert_eq!(stats.candidates, 200, "full beam must cover everything");
        assert_eq!(beamed.len(), exact.len());
        for (a, b) in beamed.iter().zip(exact.iter()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "scores must be bit-identical");
        }
    }

    #[test]
    fn exact_matches_unpermuted_exhaustive_scan() {
        let (idx, flat) = build_planted(40, 16);
        let anchor = lorentz::from_spatial(&[-1.2, 0.8]);
        // Ground truth straight off the original layout.
        let cache = BlockCache::build(&flat, 3);
        let mut scores = vec![0.0; idx.n_items()];
        fused_scores_block(
            &cache,
            &anchor,
            None,
            0,
            idx.n_items(),
            &mut [],
            &mut scores,
        );
        let expect = taxorec_data::select_top_k(&scores, 10, |i| i % 3 == 0);
        let got = idx.search_exact(&anchor, None, 10, &|v| v % 3 == 0);
        assert_eq!(got.len(), expect.len());
        for (a, b) in got.iter().zip(expect.iter()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn narrow_beam_finds_the_anchor_cluster() {
        let (idx, _) = build_planted(50, 20);
        // Anchor inside planted cluster 0 (around [1.8, 0]): its nearest
        // neighbours are cluster members, ids ≡ 0 (mod 4).
        let anchor = lorentz::from_spatial(&[1.8, 0.05]);
        let (got, stats) = idx.search(&anchor, None, 2, 10, &|_| false);
        assert!(stats.candidates < 200, "narrow beam must prune");
        assert_eq!(got.len(), 10);
        for &(item, _) in &got {
            assert_eq!(item % 4, 0, "expected cluster-0 members, got item {item}");
        }
        // And it agrees with the exact top-10 here, since the target
        // cluster is well separated.
        let exact = idx.search_exact(&anchor, None, 10, &|_| false);
        assert_eq!(got, exact);
    }

    /// Every beam's route from `anchor`: leaves only, as many as the
    /// beam allows, in non-increasing bound order with ties by id.
    /// Returns how many neighbouring pairs tied.
    fn assert_routes_best_first(idx: &TaxoIndex, anchor: &[f64]) -> usize {
        let mut ties = 0;
        for beam in 1..=idx.n_leaves() {
            let leaves = idx.route(anchor, None, beam);
            assert_eq!(leaves.len(), beam, "beam {beam}");
            assert!(leaves.iter().all(|&(n, _)| idx.parts().is_leaf(n)));
            for pair in leaves.windows(2) {
                let ((a, bound_a), (b, bound_b)) = (pair[0], pair[1]);
                assert!(
                    bound_a > bound_b || (bound_a == bound_b && a < b),
                    "beam {beam}: {leaves:?}"
                );
                ties += usize::from(bound_a == bound_b);
            }
        }
        ties
    }

    #[test]
    fn route_returns_leaves_best_bound_first_ties_by_id() {
        let (idx, _) = build_planted(50, 20);
        for c in [[1.8, 0.0], [1.5, 0.3], [-1.9, 0.2], [0.0, 0.0], [0.9, 0.9]] {
            assert_routes_best_first(&idx, &lorentz::from_spatial(&c));
        }
        // Identical points: every leaf has the same centroid and radius,
        // so every bound ties and only the ids order the leaves.
        let p = lorentz::from_spatial(&[0.3, 0.3]);
        let flat: Vec<f64> = (0..64).flat_map(|_| p.clone()).collect();
        let items = ItemEmbeddings {
            v_ir: &flat,
            ambient_ir: 3,
            v_tg: None,
            ambient_tg: 0,
        };
        let cfg = IndexConfig {
            max_leaf: 8,
            ..IndexConfig::default()
        };
        let idx = TaxoIndex::build(&items, None, &[], &cfg).expect("build");
        assert!(idx.n_leaves() > 2);
        let far = lorentz::from_spatial(&[-1.0, 0.5]);
        assert!(assert_routes_best_first(&idx, &far) > 0, "no tie to order");
    }

    #[test]
    fn search_block_matches_individual_searches() {
        let (idx, _) = build_planted(30, 12);
        let anchors: Vec<Vec<f64>> = [[1.7, -0.1], [-1.9, 0.2], [0.1, 1.6]]
            .iter()
            .map(|c| lorentz::from_spatial(c))
            .collect();
        let refs: Vec<Anchor<'_>> = anchors.iter().map(|a| Anchor { ir: a, tg: None }).collect();
        let exclude = |q: usize, v: u32| (v as usize + q).is_multiple_of(5);
        let (block, stats) = idx.search_block(&refs, 2, 8, &exclude);
        assert_eq!(block.len(), 3);
        for (q, got) in block.iter().enumerate() {
            let (want, solo_stats) = idx.search(&anchors[q], None, 2, 8, &|v| exclude(q, v));
            assert_eq!(got, &want, "query {q} diverged from solo search");
            assert_eq!(stats[q], solo_stats);
        }
    }

    #[test]
    fn append_items_fills_the_tail_and_leaves_the_tree_alone() {
        let (idx, mut flat) = build_planted(50, 20);
        let mut parts = idx.parts().clone();
        let before = parts.clone();
        let n0 = parts.n_items;
        // Three new items between the planted clusters, nearest to no
        // existing leaf's members.
        for i in 0..3 {
            let p = lorentz::from_spatial(&[0.9 + 0.05 * i as f64, 0.9]);
            flat.extend_from_slice(&p);
        }
        let items = ItemEmbeddings {
            v_ir: &flat,
            ambient_ir: 3,
            v_tg: None,
            ambient_tg: 0,
        };
        assert_eq!(parts.append_items(&items).unwrap(), 3);
        assert_eq!(parts.n_items, n0 + 3);
        parts.validate().expect("parts with a tail stay valid");
        assert_eq!(&parts.item_ids[n0..], &[200, 201, 202]);
        // The tree is untouched: same nodes, ranges, centroids and radii.
        assert_eq!(parts.end[0] as usize, n0);
        assert_eq!(
            (&parts.child_lo, &parts.start, &parts.end, &parts.level),
            (&before.child_lo, &before.start, &before.end, &before.level)
        );
        assert_eq!(
            (&parts.cent_ir, &parts.radius_ir, &parts.radius_tg),
            (&before.cent_ir, &before.radius_ir, &before.radius_tg)
        );
        let patched = TaxoIndex::from_parts(parts.clone(), &items).expect("rebuild");
        // A full beam still equals the exhaustive ranking bit for bit.
        let anchor = lorentz::from_spatial(&[0.9, 0.9]);
        let (full, stats) = patched.search(&anchor, None, patched.n_leaves(), 8, &|_| false);
        assert_eq!(stats.candidates, n0 + 3);
        let exact = patched.search_exact(&anchor, None, 8, &|_| false);
        assert_eq!(full.len(), exact.len());
        for (a, b) in full.iter().zip(&exact) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        // At the default beam the appended item nearest the anchor is
        // still returned first: the tail is ranked for every query.
        let (got, stats) = patched.search(&anchor, None, 0, 5, &|_| false);
        assert!(stats.candidates < n0, "the default beam must still prune");
        assert_eq!(got[0].0, 200, "got {got:?}");
        // Appending zero items is a no-op.
        assert_eq!(parts.append_items(&items).unwrap(), 0);
    }

    #[test]
    fn append_items_rejects_mismatched_tables() {
        let (idx, flat) = build_planted(30, 12);
        let mut parts = idx.parts().clone();
        let snapshot = parts.clone();
        let short = ItemEmbeddings {
            v_ir: &flat[..30 * 3],
            ambient_ir: 3,
            v_tg: None,
            ambient_tg: 0,
        };
        assert!(parts.append_items(&short).unwrap_err().contains("fewer"));
        let wrong_dim = ItemEmbeddings {
            v_ir: &flat,
            ambient_ir: 4,
            v_tg: None,
            ambient_tg: 0,
        };
        assert!(parts.append_items(&wrong_dim).is_err());
        assert_eq!(parts, snapshot);
    }

    #[test]
    fn parts_round_trip_preserves_results() {
        let (idx, flat) = build_planted(30, 12);
        let items = ItemEmbeddings {
            v_ir: &flat,
            ambient_ir: 3,
            v_tg: None,
            ambient_tg: 0,
        };
        let rebuilt = TaxoIndex::from_parts(idx.parts().clone(), &items).expect("round trip");
        let anchor = lorentz::from_spatial(&[0.4, -1.5]);
        let (a, _) = idx.search(&anchor, None, 3, 12, &|_| false);
        let (b, _) = rebuilt.search(&anchor, None, 3, 12, &|_| false);
        assert_eq!(a, b);
    }

    #[test]
    fn from_parts_rejects_mismatched_model() {
        let (idx, flat) = build_planted(20, 8);
        let items = ItemEmbeddings {
            v_ir: &flat[..flat.len() - 3], // one item short
            ambient_ir: 3,
            v_tg: None,
            ambient_tg: 0,
        };
        assert!(TaxoIndex::from_parts(idx.parts().clone(), &items).is_err());
        let mut bad = idx.parts().clone();
        bad.item_ids[0] = bad.item_ids[1]; // no longer a permutation
        let items = ItemEmbeddings {
            v_ir: &flat,
            ambient_ir: 3,
            v_tg: None,
            ambient_tg: 0,
        };
        assert!(TaxoIndex::from_parts(bad, &items).is_err());
    }

    #[test]
    fn identical_points_terminate_and_stay_covered() {
        // All points identical: k-means has nothing to separate. The
        // build must still terminate (split sizes strictly decrease or
        // the node degrades to a leaf), keep a valid partition, and a
        // full-coverage search must break the all-ways score tie by
        // ascending item id.
        let p = lorentz::from_spatial(&[0.3, 0.3]);
        let flat: Vec<f64> = (0..64).flat_map(|_| p.clone()).collect();
        let items = ItemEmbeddings {
            v_ir: &flat,
            ambient_ir: 3,
            v_tg: None,
            ambient_tg: 0,
        };
        let cfg = IndexConfig {
            max_leaf: 8,
            ..IndexConfig::default()
        };
        let idx = TaxoIndex::build(&items, None, &[], &cfg).expect("build");
        idx.parts().validate().expect("valid parts");
        let (got, stats) = idx.search(&p, None, idx.n_leaves(), 5, &|_| false);
        assert_eq!(stats.candidates, 64);
        assert_eq!(
            got.iter().map(|&(v, _)| v).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4]
        );
    }
}
