//! The one scorer: the item side of the paper's personalized similarity
//! (Eq. 17), `g(u,v) = d²_L(u_ir, v_ir) + w·d²_L(u_tg, v_tg)` with
//! `w = gain·α_u`, bound to the fused kernels of
//! [`taxorec_geometry::batch`].
//!
//! Training-time evaluation, the serving engine, the retrieval index and
//! the `hotpath` microbenchmark all rank through [`Scorer`]; nothing else
//! in production wires caches, anchors and accumulators to the kernels.
//! A change to the score is therefore one edit here — plus
//! [`Anchor::score`], its scalar form, which hard-negative mining and
//! `explain` evaluate pair by pair and the tests use as the reference.

use std::ops::Range;

use taxorec_geometry::batch::{
    fused_rank, fused_scores_block, spatial_order, BlockCache, TagChannel, TagChannelMulti,
    FUSED_ITEM_CHUNK,
};
use taxorec_geometry::lorentz;

use crate::recommender::{TopKAccumulator, TopKSink};

/// Borrowed item embedding matrices — what a [`Scorer`] (and the
/// retrieval index) is built over: flat row-major Lorentz points.
#[derive(Clone, Copy)]
pub struct ItemEmbeddings<'a> {
    /// Interaction-relevant channel, `n_items × ambient_ir`.
    pub v_ir: &'a [f64],
    /// Ambient (spatial + 1) dimension of `v_ir` rows.
    pub ambient_ir: usize,
    /// Optional tag-relevant channel, `n_items × ambient_tg`.
    pub v_tg: Option<&'a [f64]>,
    /// Ambient dimension of `v_tg` rows (ignored when `v_tg` is None).
    pub ambient_tg: usize,
}

impl<'a> ItemEmbeddings<'a> {
    /// Catalogue size.
    pub fn n_items(&self) -> usize {
        self.v_ir.len() / self.ambient_ir
    }

    /// Item `i`'s row in each channel — the arguments of [`Anchor::score`].
    pub fn row(&self, i: usize) -> (&'a [f64], Option<&'a [f64]>) {
        (
            &self.v_ir[i * self.ambient_ir..(i + 1) * self.ambient_ir],
            self.v_tg
                .map(|tg| &tg[i * self.ambient_tg..(i + 1) * self.ambient_tg]),
        )
    }

    /// Shape validation for a non-empty catalogue (what an index needs).
    pub fn check(&self) -> Result<(), String> {
        if self.ambient_ir < 2 {
            return Err("ambient_ir must be >= 2".into());
        }
        if self.v_ir.is_empty() || !self.v_ir.len().is_multiple_of(self.ambient_ir) {
            return Err("v_ir is empty or not a whole number of rows".into());
        }
        if let Some(tg) = self.v_tg {
            if self.ambient_tg < 2 {
                return Err("ambient_tg must be >= 2".into());
            }
            if tg.len() != self.n_items() * self.ambient_tg {
                return Err("v_tg row count differs from v_ir".into());
            }
        }
        Ok(())
    }
}

/// The user side of Eq. 17: one query point per channel.
#[derive(Clone, Copy)]
pub struct Anchor<'a> {
    /// Interaction-relevant embedding `u_ir`.
    pub ir: &'a [f64],
    /// Tag-relevant embedding `u_tg` with the finished channel weight
    /// `gain·α_u`; present iff the [`Scorer`] it meets has a tag channel.
    pub tg: Option<(&'a [f64], f64)>,
}

impl Anchor<'_> {
    /// Eq. 17 for one item, negated so that higher is better — the scalar
    /// form, in the operation order every fused kernel reproduces bit for
    /// bit: `g = d²(u_ir, v_ir); g += w·d²(u_tg, v_tg); −g`.
    pub fn score(&self, (v_ir, v_tg): (&[f64], Option<&[f64]>)) -> f64 {
        let mut g = lorentz::distance_sq(self.ir, v_ir);
        if let Some((u_tg, weight)) = self.tg {
            let v_tg = v_tg.expect("item row lacks the tag channel its anchor has");
            g += weight * lorentz::distance_sq(u_tg, v_tg);
        }
        -g
    }
}

/// The item side of Eq. 17: fused-kernel caches over the catalogue's
/// embeddings, one per channel. A snapshot — owners call
/// [`Scorer::rebuild`] whenever the embeddings change (DESIGN.md §12).
#[derive(Clone, Debug, Default)]
pub struct Scorer {
    ir: BlockCache,
    tg: Option<BlockCache>,
    /// Item of each cache row ([`Scorer::build_permuted`]); `None` when
    /// row `i` is item `i`.
    item_ids: Option<Vec<u32>>,
}

impl Scorer {
    /// Builds the caches over `items`, row `i` item `i`.
    pub fn build(items: &ItemEmbeddings<'_>) -> Self {
        let mut scorer = Self::default();
        scorer.rebuild(items);
        scorer
    }

    /// Builds the caches over `items` with row `i` item `order[i]`,
    /// written straight from the order: no permuted copy of the
    /// embeddings is made. `order` must list each item once. Rankings are
    /// the same ids and score bits as [`Scorer::build`]'s, and
    /// [`Scorer::scores`] still writes item `i` at index `i`.
    pub fn build_permuted(items: &ItemEmbeddings<'_>, order: Vec<u32>) -> Self {
        let ir = BlockCache::build_permuted(items.v_ir, items.ambient_ir, &order);
        let tg = items
            .v_tg
            .map(|v_tg| BlockCache::build_permuted(v_tg, items.ambient_tg, &order));
        if let Some(tg) = &tg {
            assert_eq!(tg.rows(), ir.rows(), "channels disagree on rows");
        }
        Scorer {
            ir,
            tg,
            item_ids: Some(order),
        }
    }

    /// [`Scorer::build_permuted`] in [`spatial_order`], each channel's
    /// cache with a ball bound per strip, so a ranking pass skips,
    /// unswept, every strip whose items the bounds prove below each
    /// anchor's `k`-th best (DESIGN.md §12, step 4). Strip `s` holds the
    /// same items in both caches.
    pub fn build_ordered(items: &ItemEmbeddings<'_>) -> Self {
        let mut scorer = Self::build_permuted(items, spatial_order(items.v_ir, items.ambient_ir));
        scorer.ir = std::mem::take(&mut scorer.ir).with_strip_bounds();
        scorer.tg = scorer.tg.take().map(BlockCache::with_strip_bounds);
        scorer
    }

    /// Refreshes the caches from `items`, reusing their allocations; row
    /// `i` is item `i` again.
    pub fn rebuild(&mut self, items: &ItemEmbeddings<'_>) {
        self.item_ids = None;
        self.ir.rebuild(items.v_ir, items.ambient_ir);
        match items.v_tg {
            Some(v_tg) => {
                let tg = self.tg.get_or_insert_with(BlockCache::default);
                tg.rebuild(v_tg, items.ambient_tg);
                assert_eq!(tg.rows(), self.ir.rows(), "channels disagree on rows");
            }
            None => self.tg = None,
        }
    }

    /// Catalogue size (cache rows).
    pub fn n_items(&self) -> usize {
        self.ir.rows()
    }

    /// Whether scores include the tag channel — [`Anchor::tg`] must be
    /// present exactly then.
    pub fn has_tag_channel(&self) -> bool {
        self.tg.is_some()
    }

    fn check(&self, anchors: &[Anchor<'_>]) {
        assert!(
            anchors.iter().all(|a| a.tg.is_some() == self.tg.is_some()),
            "anchors must carry a tag channel iff the scorer has one"
        );
    }

    /// Writes `anchor`'s score for every item into `out` (index = item,
    /// `out.len() == n_items`), bit-identical to an [`Anchor::score`]
    /// loop.
    pub fn scores(&self, anchor: &Anchor<'_>, out: &mut [f64]) {
        assert_eq!(out.len(), self.n_items(), "output length mismatch");
        self.check(std::slice::from_ref(anchor));
        let Some(ids) = &self.item_ids else {
            return self.row_scores(anchor, out);
        };
        let mut by_row = vec![0.0; out.len()];
        self.row_scores(anchor, &mut by_row);
        for (&item, score) in ids.iter().zip(by_row) {
            out[item as usize] = score;
        }
    }

    /// [`Scorer::scores`] by cache row.
    fn row_scores(&self, anchor: &Anchor<'_>, out: &mut [f64]) {
        let mut scratch = [0.0; FUSED_ITEM_CHUNK];
        for (c, chunk) in out.chunks_mut(FUSED_ITEM_CHUNK).enumerate() {
            let lo = c * FUSED_ITEM_CHUNK;
            let tag = self.tg.as_ref().zip(anchor.tg);
            fused_scores_block(
                &self.ir,
                anchor.ir,
                tag.map(|(cache, (anchor, alpha))| TagChannel {
                    cache,
                    anchor,
                    alpha,
                }),
                lo,
                lo + chunk.len(),
                &mut scratch,
                chunk,
            );
        }
    }

    /// An empty top-`k` selection over this catalogue. `k` is clamped to
    /// the catalogue here, where the heap is sized — for every ranking
    /// path at once — so a caller's `usize::MAX` ("everything") sizes a
    /// heap of `n_items`, not of `k`.
    pub fn accumulator(&self, k: usize) -> TopKAccumulator {
        TopKAccumulator::new(k.min(self.n_items()))
    }

    /// Ranks the cache rows `range` for a block of anchors through the
    /// fused ranking kernel: anchor `a` offers into `accs[acc_of[a]]`
    /// (`accs[a]` without a map), each row as its item, skipping
    /// candidates for which `exclude(accumulator, item)` holds. The item
    /// panels stream once for the whole block, and only items that can
    /// still enter an accumulator are finished and offered; what each accumulator ends
    /// up holding is exactly — ids, order, score bits — what
    /// `select_top_k` over [`Scorer::scores`] would (DESIGN.md §12).
    /// Accumulators are order-independent, so ranges may be ranked in any
    /// order and over several calls. An anchor whose accumulator holds
    /// `k = 0` is left out of the sweep: it would keep nothing offered.
    pub fn rank_range<X: Fn(usize, u32) -> bool>(
        &self,
        anchors: &[Anchor<'_>],
        range: Range<usize>,
        accs: &mut [TopKAccumulator],
        acc_of: Option<&[usize]>,
        exclude: X,
    ) {
        self.check(anchors);
        let acc_index = |a: usize| acc_of.map_or(a, |map| map[a]);
        let live = |a: &usize| accs[acc_index(*a)].k() > 0;
        if !(0..anchors.len()).all(|a| live(&a)) {
            let (live_anchors, live_accs): (Vec<Anchor<'_>>, Vec<usize>) = (0..anchors.len())
                .filter(live)
                .map(|a| (anchors[a], acc_index(a)))
                .unzip();
            if !live_anchors.is_empty() {
                let map = Some(live_accs.as_slice());
                self.rank_range(&live_anchors, range, accs, map, exclude);
            }
            return;
        }
        let u_irs: Vec<&[f64]> = anchors.iter().map(|a| a.ir).collect();
        let tag = self.tg.as_ref().map(|cache| {
            let (u_tgs, weights): (Vec<&[f64]>, Vec<f64>) =
                anchors.iter().map(|a| a.tg.expect("checked above")).unzip();
            (cache, u_tgs, weights)
        });
        fused_rank(
            &self.ir,
            &u_irs,
            tag.as_ref()
                .map(|(cache, anchors, alphas)| TagChannelMulti {
                    cache,
                    anchors,
                    alphas,
                }),
            range.start,
            range.end,
            &mut TopKSink {
                accs,
                acc_of,
                item_ids: self.item_ids.as_deref(),
                exclude,
            },
        );
    }

    /// Whole-catalogue convenience over [`Scorer::rank_range`]: the
    /// `ks[a]` best items of anchor `a`, best first, skipping those for
    /// which `exclude(a, item)` holds.
    pub fn rank(
        &self,
        anchors: &[Anchor<'_>],
        ks: &[usize],
        exclude: impl Fn(usize, u32) -> bool,
    ) -> Vec<Vec<(u32, f64)>> {
        assert_eq!(anchors.len(), ks.len(), "one k per anchor");
        let mut accs: Vec<TopKAccumulator> = ks.iter().map(|&k| self.accumulator(k)).collect();
        self.rank_range(anchors, 0..self.n_items(), &mut accs, None, exclude);
        accs.into_iter().map(TopKAccumulator::into_sorted).collect()
    }
}
