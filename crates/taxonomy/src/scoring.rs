//! The representation-aware scoring function (paper §IV-C.1, Eqs. 4–7).
//!
//! Given a parent node whose children are candidate tag sets
//! `G_1, …, G_K`, a tag's score in `G_k` combines:
//!
//! * **Context** (Eq. 4) — normalized frequency of the tag within the item
//!   set `E_k` induced by `G_k`;
//! * **Structure** (Eq. 5) — softmax over a BM25-style retrieval score
//!   (Eq. 6) of the tag against each sibling's item set, measuring how
//!   *concentrated* the tag is on this particular child.
//!
//! The final score is their geometric mean (Eq. 7). Representative
//! (fine-grained) tags score high in exactly one child; general tags score
//! low everywhere and are pushed back to the parent by Algorithm 1.

/// BM25 parameters fixed by the paper: `k₁ = 1.2`, `b = 0.5`.
pub const BM25_K1: f64 = 1.2;
/// See [`BM25_K1`].
pub const BM25_B: f64 = 0.5;

/// Precomputed statistics of one candidate tag set `G_k`:
/// the induced item set `E_k` and its tag-frequency profile.
#[derive(Clone, Debug)]
pub struct GroupStats {
    /// `tf(t, E_k)` for every tag `t` (indexed by tag id): the number of
    /// items of `E_k` carrying tag `t`.
    pub tf: Vec<f64>,
    /// `tf(E_k)`: total number of tag occurrences across `E_k`.
    pub total_tf: f64,
    /// Number of items in `E_k`.
    pub n_items: usize,
    /// `avgdl`: mean number of tags per item of `E_k`.
    pub avgdl: f64,
}

impl GroupStats {
    /// Computes the statistics of the item set induced by `group` (all
    /// items carrying at least one tag of `group`), on the given item–tag
    /// lists.
    pub fn compute(group: &[u32], item_tags: &[Vec<u32>], n_tags: usize) -> Self {
        let mut in_group = vec![false; n_tags];
        for &t in group {
            in_group[t as usize] = true;
        }
        let mut tf = vec![0.0; n_tags];
        let mut total_tf = 0.0;
        let mut n_items = 0usize;
        for tags in item_tags {
            if tags.iter().any(|&t| in_group[t as usize]) {
                n_items += 1;
                total_tf += tags.len() as f64;
                for &t in tags {
                    tf[t as usize] += 1.0;
                }
            }
        }
        let avgdl = if n_items == 0 {
            0.0
        } else {
            total_tf / n_items as f64
        };
        Self {
            tf,
            total_tf,
            n_items,
            avgdl,
        }
    }

    /// [`GroupStats::compute`] for every candidate group, in `groups`
    /// order. A plain loop: handing these counts to the worker pool
    /// cost more than the counts themselves (DESIGN.md §11).
    pub fn compute_all(groups: &[Vec<u32>], item_tags: &[Vec<u32>], n_tags: usize) -> Vec<Self> {
        groups
            .iter()
            .map(|g| Self::compute(g, item_tags, n_tags))
            .collect()
    }

    /// Context factor `con(t, G_k)` (paper Eq. 4):
    /// `log(tf(t,E_k)+1) / log(tf(E_k))`, clamped into `[0, 1]`.
    pub fn context(&self, t: u32) -> f64 {
        // `ln(total_tf)` is the denominator: it must be strictly positive
        // and finite, which rules out `total_tf ≤ 1` (a single-occurrence
        // group has `ln(1) = 0` → 0/0 = NaN) and any degenerate stats.
        let denom = self.total_tf.ln();
        if !denom.is_finite() || denom <= 0.0 {
            return 0.0;
        }
        ((self.tf[t as usize] + 1.0).ln() / denom).clamp(0.0, 1.0)
    }

    /// Inverse document frequency `idf(t)` (paper §IV-C.1):
    /// `ln((tf(E_k) − tf(t,E_k) + 0.5)/(tf(t,E_k) + 0.5) + 1)`.
    pub fn idf(&self, t: u32) -> f64 {
        let tf_t = self.tf[t as usize];
        (((self.total_tf - tf_t + 0.5) / (tf_t + 0.5)) + 1.0).ln()
    }

    /// BM25-style retrieval rank `rank(t, E_k)` (paper Eq. 6).
    pub fn rank(&self, t: u32) -> f64 {
        let tf_t = self.tf[t as usize];
        if self.n_items == 0 || tf_t == 0.0 {
            return 0.0;
        }
        let len_norm = 1.0 - BM25_B + BM25_B * self.total_tf / self.avgdl.max(1e-9);
        self.idf(t) * tf_t * (BM25_K1 + 1.0) / (tf_t + BM25_K1 * len_norm)
    }
}

/// Structure factor `stru(t, G_k)` (paper Eq. 5): a softmax of the rank of
/// `t` on child `k` against all siblings,
/// `exp(rank(t,E_k)) / (1 + Σ_j exp(rank(t,E_j)))`.
///
/// Evaluated in log space (every exponent shifted by the running maximum
/// rank, with the implicit `1` in the denominator treated as `exp(0)`):
/// the ratio is algebraically unchanged, but no intermediate can overflow.
/// The previous `rank.min(50.0)` overflow clamp made every rank above 50
/// exponentiate identically, erasing the ordering between highly
/// concentrated siblings.
pub fn structure(t: u32, k: usize, groups: &[GroupStats]) -> f64 {
    let mut m = 0.0f64; // the denominator's +1 term is exp(0)
    for g in groups {
        m = m.max(g.rank(t));
    }
    let num = (groups[k].rank(t) - m).exp();
    let denom = (-m).exp() + groups.iter().map(|g| (g.rank(t) - m).exp()).sum::<f64>();
    num / denom
}

/// Representation-aware score `s(t, G_k)` (paper Eq. 7):
/// `sqrt(con(t,G_k) · stru(t,G_k))`.
pub fn score(t: u32, k: usize, groups: &[GroupStats]) -> f64 {
    (groups[k].context(t) * structure(t, k, groups)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Items: 0:{0}, 1:{0,1}, 2:{1}, 3:{2}, 4:{2,3}.
    fn item_tags() -> Vec<Vec<u32>> {
        vec![vec![0], vec![0, 1], vec![1], vec![2], vec![2, 3]]
    }

    #[test]
    fn group_stats_counts() {
        let g = GroupStats::compute(&[0, 1], &item_tags(), 4);
        // Items 0,1,2 are in E_k.
        assert_eq!(g.n_items, 3);
        assert_eq!(g.tf[0], 2.0);
        assert_eq!(g.tf[1], 2.0);
        assert_eq!(g.tf[2], 0.0);
        assert_eq!(g.total_tf, 4.0);
        assert!((g.avgdl - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_group_is_safe() {
        let g = GroupStats::compute(&[], &item_tags(), 4);
        assert_eq!(g.n_items, 0);
        assert_eq!(g.context(0), 0.0);
        assert_eq!(g.rank(0), 0.0);
    }

    #[test]
    fn context_increases_with_frequency() {
        let g = GroupStats::compute(&[0, 1, 2, 3], &item_tags(), 4);
        // Tag 0 appears twice, tag 3 once.
        assert!(g.context(0) > g.context(3));
        assert!(g.context(0) <= 1.0);
    }

    #[test]
    fn rank_zero_for_absent_tag() {
        let g = GroupStats::compute(&[0, 1], &item_tags(), 4);
        assert_eq!(g.rank(2), 0.0);
        assert!(g.rank(0) > 0.0);
    }

    #[test]
    fn structure_prefers_home_group() {
        // Two candidate children: {0,1} (items 0,1,2) and {2,3} (items 3,4).
        let groups = vec![
            GroupStats::compute(&[0, 1], &item_tags(), 4),
            GroupStats::compute(&[2, 3], &item_tags(), 4),
        ];
        // Tag 0 is concentrated in group 0.
        assert!(structure(0, 0, &groups) > structure(0, 1, &groups));
        // Tag 2 in group 1.
        assert!(structure(2, 1, &groups) > structure(2, 0, &groups));
    }

    #[test]
    fn structure_is_sub_normalized() {
        let groups = vec![
            GroupStats::compute(&[0, 1], &item_tags(), 4),
            GroupStats::compute(&[2, 3], &item_tags(), 4),
        ];
        for t in 0..4u32 {
            let total: f64 = (0..2).map(|k| structure(t, k, &groups)).sum();
            assert!(
                total < 1.0,
                "softmax with +1 in the denominator stays below 1"
            );
        }
    }

    #[test]
    fn score_is_geometric_mean() {
        let groups = vec![
            GroupStats::compute(&[0, 1], &item_tags(), 4),
            GroupStats::compute(&[2, 3], &item_tags(), 4),
        ];
        let s = score(0, 0, &groups);
        let expected = (groups[0].context(0) * structure(0, 0, &groups)).sqrt();
        assert!((s - expected).abs() < 1e-12);
        assert!(s > 0.0 && s <= 1.0);
    }

    /// Synthetic stats with one tag occurring once and an adjustable
    /// total occurrence count — `avgdl = total_tf` pins the BM25 length
    /// normalization at 1, so `rank ≈ idf = ln((total_tf − 0.5)/1.5 + 1)`
    /// and the rank can be dialed arbitrarily high via `total_tf`.
    fn stats_with_total(total_tf: f64) -> GroupStats {
        GroupStats {
            tf: vec![1.0],
            total_tf,
            n_items: 1,
            avgdl: total_tf,
        }
    }

    #[test]
    fn context_is_finite_for_single_occurrence_groups() {
        // One item carrying the group's only tag: total_tf == 1, so the
        // ln-denominator of Eq. 4 is exactly zero.
        let items = vec![vec![0u32]];
        let groups = vec![GroupStats::compute(&[0], &items, 1)];
        assert_eq!(groups[0].total_tf, 1.0);
        assert_eq!(groups[0].context(0), 0.0);
        let s = score(0, 0, &groups);
        assert!(s.is_finite(), "score must stay finite, got {s}");
    }

    #[test]
    fn structure_distinguishes_ranks_beyond_the_old_clamp() {
        // Both ranks land well above 50, so the old `min(50.0)` clamp
        // exponentiated them identically and the softmax could not tell
        // the more concentrated sibling apart.
        let groups = vec![stats_with_total(1e40), stats_with_total(1e30)];
        let r_hi = groups[0].rank(0);
        let r_lo = groups[1].rank(0);
        assert!(r_hi > 55.0 && r_lo > 55.0, "ranks {r_hi}, {r_lo}");
        assert!(r_hi > r_lo + 5.0);
        let s_hi = structure(0, 0, &groups);
        let s_lo = structure(0, 1, &groups);
        assert!(
            s_hi > s_lo,
            "higher rank must win the softmax: {s_hi} vs {s_lo}"
        );
    }

    #[test]
    fn structure_survives_overflowing_ranks() {
        // rank ≈ 709 for each group: Σ exp(rank) overflows f64 without the
        // log-space evaluation.
        let groups: Vec<GroupStats> = (0..4).map(|_| stats_with_total(1.7e308)).collect();
        assert!(groups[0].rank(0) > 700.0);
        let mut sum = 0.0;
        for k in 0..groups.len() {
            let s = structure(0, k, &groups);
            assert!(s.is_finite() && s > 0.0 && s < 1.0, "structure {s}");
            sum += s;
        }
        // The +1 denominator term is exp(-m) ≈ 1e-308 here — far below one
        // ulp of the sum — so sub-normalization holds only up to rounding.
        assert!(sum <= 1.0, "softmax sum must not exceed 1, got {sum}");
    }

    #[test]
    fn general_tag_scores_low_everywhere() {
        // Tag 9 present on every item (a general tag), tags 0/1 split.
        let items = vec![vec![0u32, 9], vec![0, 9], vec![1, 9], vec![1, 9]];
        let groups = vec![
            GroupStats::compute(&[0], &items, 10),
            GroupStats::compute(&[1], &items, 10),
        ];
        // The general tag's structure factor is split across children while
        // a concentrated tag keeps its mass in one child.
        let g9 = structure(9, 0, &groups).max(structure(9, 1, &groups));
        let g0 = structure(0, 0, &groups);
        assert!(g0 > g9, "concentrated {g0} vs general {g9}");
    }
}
