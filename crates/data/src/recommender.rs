//! The common interface every recommender in this workspace implements —
//! TaxoRec itself and all 14 baselines — so the evaluation harness can
//! treat them uniformly. Also home of the shared heap-based partial
//! top-K selection that both offline evaluation and online serving rank
//! with.

use std::collections::BinaryHeap;

use taxorec_geometry::batch::RankSink;

use crate::dataset::Dataset;
use crate::split::Split;

/// Heap entry ordered so that the `BinaryHeap` maximum is the *worst*
/// candidate: lower score first, then higher index. Scores are compared
/// with `total_cmp`, giving a deterministic total order even for ±0.0 and
/// NaN (NaN ranks below -∞, so poisoned scores sink instead of spreading).
#[derive(Debug)]
struct RankEntry {
    score: f64,
    idx: u32,
}

impl PartialEq for RankEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for RankEntry {}

impl PartialOrd for RankEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RankEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| self.idx.cmp(&other.idx))
    }
}

/// The `k` best entries of `scores` as `(index, score)` pairs, best first
/// (descending score, ties broken by lower index), skipping every index
/// for which `exclude` returns true.
///
/// Partial selection over a bounded min-heap: `O(n log k)` time and
/// `O(k)` extra space — a full sorted copy of the score vector is never
/// materialized, which is what makes million-item catalogues servable.
/// Backs the default [`Recommender::top_k_block`] and serves the tests
/// as the reference ranking of a full score row.
pub fn select_top_k(
    scores: &[f64],
    k: usize,
    mut exclude: impl FnMut(usize) -> bool,
) -> Vec<(u32, f64)> {
    // Clamped like `Scorer::accumulator`: `k = usize::MAX` means "all".
    let mut acc = TopKAccumulator::new(k.min(scores.len()));
    for (i, &score) in scores.iter().enumerate() {
        if !exclude(i) {
            acc.push(i as u32, score);
        }
    }
    acc.into_sorted()
}

/// Incremental form of [`select_top_k`]: candidates are offered one at a
/// time via [`TopKAccumulator::push`] instead of scanned from a full
/// score slice.
///
/// **Order independence.** Candidates are ranked by a *total* order —
/// descending score under `total_cmp`, ties broken by ascending item id;
/// item ids are unique, so no two candidates compare equal. The
/// accumulator maintains the invariant "heap = the `k` least entries of
/// everything offered so far" (a push either displaces the current worst
/// or changes nothing), and the `k` least of a set under a total order do
/// not depend on the order the set was enumerated in. Offering every
/// `(idx, score)` pair exactly once — in any order, any chunking,
/// interleaved across catalogue ranges — therefore yields the same
/// `into_sorted()` result as one [`select_top_k`] pass, bit for bit and
/// tie for tie. This is what lets block-scoring paths rank each catalogue
/// chunk while its scores are still cache-hot, and lets the retrieval
/// index push candidates cluster by cluster in routing order, while both
/// stay exactly comparable against the exhaustive scan.
pub struct TopKAccumulator {
    heap: BinaryHeap<RankEntry>,
    k: usize,
}

impl TopKAccumulator {
    /// An empty accumulator that retains the best `k` candidates.
    pub fn new(k: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(k + 1),
            k,
        }
    }

    /// Offers one candidate. Each `idx` must be offered at most once;
    /// arrival order is otherwise free — the retained set (and the
    /// tie-breaking contract: equal scores rank lower index first) is
    /// insertion-order independent. See the type-level docs.
    #[inline]
    pub fn push(&mut self, idx: u32, score: f64) {
        if self.k == 0 {
            return;
        }
        let entry = RankEntry { score, idx };
        if self.heap.len() < self.k {
            self.heap.push(entry);
        } else if entry < *self.heap.peek().expect("non-empty heap") {
            // Better than the current worst of the top-k: replace it.
            self.heap.pop();
            self.heap.push(entry);
        }
    }

    /// The `k` this accumulator retains; at 0 it retains nothing, so a
    /// ranking pass can leave its query out.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The worst retained score once `k > 0` candidates are held — what
    /// a new candidate must at least tie to displace anything — and
    /// `None` before that. Read by the fused ranking kernel to skip
    /// candidates that provably score below it.
    #[inline]
    pub fn floor(&self) -> Option<f64> {
        if self.k == 0 || self.heap.len() < self.k {
            return None;
        }
        self.heap.peek().map(|worst| worst.score)
    }

    /// The accumulated top-K as `(index, score)` pairs, best first.
    pub fn into_sorted(self) -> Vec<(u32, f64)> {
        // Ascending by `Ord` = best first (the ordering is inverted).
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|e| (e.idx, e.score))
            .collect()
    }
}

/// Routes a fused ranking pass ([`fused_rank`]) into per-query
/// [`TopKAccumulator`]s — the one adapter between the kernel's
/// `(anchor, cache row)` coordinates and a caller's
/// `(accumulator, item id)` ones.
///
/// [`fused_rank`]: taxorec_geometry::batch::fused_rank
pub struct TopKSink<'a, X> {
    /// The accumulators candidates are pushed into.
    pub accs: &'a mut [TopKAccumulator],
    /// Accumulator of each anchor of the block; `None` when anchor `a`
    /// ranks into `accs[a]`.
    pub acc_of: Option<&'a [usize]>,
    /// Item id of each cache row; `None` when row `i` is item `i`.
    pub item_ids: Option<&'a [u32]>,
    /// `exclude(accumulator, item)` — candidates to skip.
    pub exclude: X,
}

impl<X: Fn(usize, u32) -> bool> TopKSink<'_, X> {
    #[inline]
    fn acc_index(&self, anchor: usize) -> usize {
        self.acc_of.map_or(anchor, |map| map[anchor])
    }
}

impl<X: Fn(usize, u32) -> bool> RankSink for TopKSink<'_, X> {
    #[inline]
    fn floor(&self, anchor: usize) -> Option<f64> {
        self.accs[self.acc_index(anchor)].floor()
    }

    #[inline]
    fn offer(&mut self, anchor: usize, slot: usize, score: f64) {
        let acc = self.acc_index(anchor);
        let item = self.item_ids.map_or(slot as u32, |ids| ids[slot]);
        if !(self.exclude)(acc, item) {
            self.accs[acc].push(item, score);
        }
    }
}

/// A trainable top-N recommender.
///
/// `Sync` is a supertrait so the evaluation harness can score users in
/// parallel against a shared `&dyn Recommender`; scoring is read-only.
pub trait Recommender: Sync {
    /// Display name used in result tables (e.g. `"TaxoRec"`, `"BPRMF"`).
    fn name(&self) -> &str;

    /// Trains on the training partition of `split`. Implementations must
    /// not look at validation or test items.
    fn fit(&mut self, dataset: &Dataset, split: &Split);

    /// Preference scores of `user` for every item (index = item id);
    /// **higher means better**. Metric-learning models return negated
    /// distances. Only valid after [`Recommender::fit`].
    fn scores_for_user(&self, user: u32) -> Vec<f64>;

    /// The `k` best items of every user in `users` as `(item, score)`
    /// pairs, best first per user, skipping items for which
    /// `exclude(pos, item)` returns true (`pos` indexes into `users`).
    ///
    /// The default ranks one [`Recommender::scores_for_user`] row at a
    /// time with [`select_top_k`]. TaxoRec overrides it with the fused
    /// ranking of [`crate::Scorer`], which streams the item panels once
    /// per block and never materializes score rows; the accumulator
    /// contract guarantees an override returns exactly the default's
    /// ranking for identical scores.
    fn top_k_block(
        &self,
        users: &[u32],
        k: usize,
        exclude: &dyn Fn(usize, u32) -> bool,
    ) -> Vec<Vec<(u32, f64)>> {
        users
            .iter()
            .enumerate()
            .map(|(pos, &user)| {
                select_top_k(&self.scores_for_user(user), k, |i| exclude(pos, i as u32))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial popularity recommender, doubling as a trait smoke test
    /// and a sanity-floor baseline for integration tests.
    pub struct Popularity {
        counts: Vec<f64>,
    }

    impl Popularity {
        pub fn new() -> Self {
            Self { counts: Vec::new() }
        }
    }

    impl Recommender for Popularity {
        fn name(&self) -> &str {
            "Popularity"
        }

        fn fit(&mut self, dataset: &Dataset, split: &Split) {
            self.counts = vec![0.0; dataset.n_items];
            for items in &split.train {
                for &v in items {
                    self.counts[v as usize] += 1.0;
                }
            }
        }

        fn scores_for_user(&self, _user: u32) -> Vec<f64> {
            self.counts.clone()
        }
    }

    #[test]
    fn select_top_k_orders_and_breaks_ties_by_index() {
        let scores = [1.0, 9.0, 3.0, 9.0, 7.0];
        assert_eq!(
            select_top_k(&scores, 3, |_| false),
            vec![(1, 9.0), (3, 9.0), (4, 7.0)]
        );
        // k larger than the candidate set returns everything, ordered.
        assert_eq!(
            select_top_k(&scores, 10, |_| false)
                .iter()
                .map(|&(i, _)| i)
                .collect::<Vec<_>>(),
            vec![1, 3, 4, 2, 0]
        );
    }

    #[test]
    fn select_top_k_respects_exclusion() {
        let scores = [5.0, 4.0, 3.0, 2.0];
        let out = select_top_k(&scores, 2, |i| i == 0 || i == 2);
        assert_eq!(out, vec![(1, 4.0), (3, 2.0)]);
    }

    #[test]
    fn select_top_k_edge_cases() {
        assert!(select_top_k(&[], 3, |_| false).is_empty());
        assert!(select_top_k(&[1.0], 0, |_| false).is_empty());
        assert!(select_top_k(&[1.0, 2.0], 5, |_| true).is_empty());
        assert_eq!(
            select_top_k(&[1.0, 2.0], usize::MAX, |_| false),
            vec![(1, 2.0), (0, 1.0)]
        );
        // Matches a full sort on a pseudo-random vector.
        let scores: Vec<f64> = (0..500).map(|i| ((i * 37) % 101) as f64).collect();
        let mut full: Vec<usize> = (0..scores.len()).collect();
        full.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then_with(|| a.cmp(&b)));
        let got: Vec<usize> = select_top_k(&scores, 25, |_| false)
            .iter()
            .map(|&(i, _)| i as usize)
            .collect();
        assert_eq!(got, full[..25]);
    }

    #[test]
    fn accumulator_chunked_matches_single_pass() {
        // Pseudo-random scores with deliberate ties; feeding them in
        // arbitrary chunkings must reproduce one select_top_k pass
        // exactly, including tie-breaking by index.
        let scores: Vec<f64> = (0..300).map(|i| ((i * 53) % 17) as f64).collect();
        let expect = select_top_k(&scores, 12, |i| i % 7 == 0);
        for chunk in [1usize, 5, 64, 300] {
            let mut acc = TopKAccumulator::new(12);
            let mut lo = 0;
            while lo < scores.len() {
                let hi = (lo + chunk).min(scores.len());
                for (i, &s) in scores[lo..hi].iter().enumerate() {
                    if (lo + i) % 7 != 0 {
                        acc.push((lo + i) as u32, s);
                    }
                }
                lo = hi;
            }
            assert_eq!(acc.into_sorted(), expect);
        }
        // k = 0 stays empty.
        let mut acc = TopKAccumulator::new(0);
        acc.push(3, 1.0);
        assert!(acc.into_sorted().is_empty());
    }

    #[test]
    fn accumulator_is_insertion_order_independent() {
        // Heavy score ties (only 7 distinct values over 400 candidates)
        // pushed in ascending, descending, strided, and pseudo-shuffled
        // orders must all reproduce the ascending-order select_top_k
        // ranking exactly — this is the contract the approximate
        // retrieval path relies on when it pushes candidates cluster by
        // cluster in routing order.
        let scores: Vec<f64> = (0..400).map(|i| ((i * 31) % 7) as f64).collect();
        let expect = select_top_k(&scores, 20, |_| false);

        let n = scores.len();
        let ascending: Vec<usize> = (0..n).collect();
        let descending: Vec<usize> = (0..n).rev().collect();
        // Stride by a unit mod n to visit every index exactly once.
        let strided: Vec<usize> = (0..n).map(|i| (i * 129) % n).collect();
        // Deterministic Fisher-Yates with a tiny LCG.
        let mut shuffled = ascending.clone();
        let mut state = 0x9e3779b97f4a7c15u64;
        for i in (1..n).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }

        for order in [&ascending, &descending, &strided, &shuffled] {
            let mut acc = TopKAccumulator::new(20);
            for &i in order.iter() {
                acc.push(i as u32, scores[i]);
            }
            assert_eq!(acc.into_sorted(), expect);
        }
    }

    #[test]
    fn accumulator_ties_rank_lower_index_first_in_any_order() {
        // All-equal scores: the retained set must be the k lowest ids,
        // regardless of push order.
        for order in [[4u32, 2, 0, 3, 1], [0, 1, 2, 3, 4], [3, 4, 1, 0, 2]] {
            let mut acc = TopKAccumulator::new(3);
            for idx in order {
                acc.push(idx, 1.5);
            }
            assert_eq!(acc.into_sorted(), vec![(0, 1.5), (1, 1.5), (2, 1.5)]);
        }
    }

    #[test]
    fn default_top_k_block_matches_per_user_selection() {
        let d = Dataset {
            name: "t".into(),
            n_users: 2,
            n_items: 4,
            n_tags: 0,
            interactions: vec![
                crate::dataset::Interaction {
                    user: 0,
                    item: 2,
                    ts: 0,
                },
                crate::dataset::Interaction {
                    user: 1,
                    item: 1,
                    ts: 0,
                },
            ],
            item_tags: vec![vec![]; 4],
            tag_names: vec![],
            taxonomy_truth: None,
        };
        let s = Split::temporal(&d, 1.0, 0.0);
        let mut p = Popularity::new();
        p.fit(&d, &s);
        let tops = p.top_k_block(&[0, 1], 3, &|pos, item| pos == 0 && item == 2);
        assert_eq!(tops.len(), 2);
        // User 0 has item 2 excluded; user 1 does not.
        assert!(tops[0].iter().all(|&(i, _)| i != 2));
        assert_eq!(tops[1], select_top_k(&p.scores_for_user(1), 3, |_| false));
    }

    #[test]
    fn popularity_scores_track_train_counts() {
        use crate::dataset::Interaction;
        let d = Dataset {
            name: "t".into(),
            n_users: 2,
            n_items: 3,
            n_tags: 0,
            interactions: vec![
                Interaction {
                    user: 0,
                    item: 0,
                    ts: 0,
                },
                Interaction {
                    user: 1,
                    item: 0,
                    ts: 0,
                },
                Interaction {
                    user: 1,
                    item: 1,
                    ts: 1,
                },
            ],
            item_tags: vec![vec![]; 3],
            tag_names: vec![],
            taxonomy_truth: None,
        };
        let s = Split::temporal(&d, 1.0, 0.0);
        let mut p = Popularity::new();
        p.fit(&d, &s);
        let scores = p.scores_for_user(0);
        assert!(scores[0] > scores[1]);
        assert!(scores[1] > scores[2]);
        assert_eq!(p.name(), "Popularity");
    }
}
