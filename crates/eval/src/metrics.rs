//! Full-ranking evaluation: Recall@K and NDCG@K (paper §V-A.2).
//!
//! The paper explicitly evaluates with *unsampled* metrics (following
//! Krichene & Rendle, KDD 2020): every non-training item is a candidate.
//! Training and validation items are masked out of the candidate set when
//! scoring the test partition.

use taxorec_data::{Recommender, Split};

/// Per-user metric values for one evaluation run, aligned with the `ks`
/// passed to [`evaluate`]. Only users with a non-empty target set appear.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// Cutoffs the metrics were computed at.
    pub ks: Vec<usize>,
    /// `recall[i][j]` = Recall@ks[j] of the i-th evaluated user.
    pub recall: Vec<Vec<f64>>,
    /// `ndcg[i][j]` = NDCG@ks[j] of the i-th evaluated user.
    pub ndcg: Vec<Vec<f64>>,
    /// The evaluated user ids (parallel to `recall`/`ndcg`).
    pub users: Vec<u32>,
}

impl Evaluation {
    /// Mean Recall@ks[k_idx] over evaluated users.
    pub fn mean_recall(&self, k_idx: usize) -> f64 {
        mean(self.recall.iter().map(|r| r[k_idx]))
    }

    /// Mean NDCG@ks[k_idx] over evaluated users.
    pub fn mean_ndcg(&self, k_idx: usize) -> f64 {
        mean(self.ndcg.iter().map(|r| r[k_idx]))
    }

    /// Per-user Recall@ks[k_idx] values (for significance testing).
    pub fn user_recall(&self, k_idx: usize) -> Vec<f64> {
        self.recall.iter().map(|r| r[k_idx]).collect()
    }
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for v in it {
        total += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Evaluates a fitted model on the test partition of `split` at the given
/// cutoffs, masking train and validation items from the candidates.
pub fn evaluate(model: &dyn Recommender, split: &Split, ks: &[usize]) -> Evaluation {
    evaluate_on(model, split, &split.test, ks)
}

/// Evaluates against the validation partition (hyperparameter tuning),
/// masking only training items.
pub fn evaluate_valid(model: &dyn Recommender, split: &Split, ks: &[usize]) -> Evaluation {
    evaluate_users(model, split, &split.valid, ks, false)
}

fn evaluate_on(
    model: &dyn Recommender,
    split: &Split,
    targets_by_user: &[Vec<u32>],
    ks: &[usize],
) -> Evaluation {
    evaluate_users(model, split, targets_by_user, ks, true)
}

/// Users per parallel evaluation job: each job scores and ranks a block of
/// users, so per-job overhead is negligible next to full-ranking cost.
const EVAL_USER_CHUNK: usize = 32;

/// Shared worker behind [`evaluate`] and [`evaluate_valid`]: scores each
/// user with a non-empty target set, masks seen items (`mask_valid` adds
/// the validation partition to the mask), and ranks the rest. Users are
/// independent, so the loop fans out across the [`taxorec_parallel`] pool
/// in blocks of [`EVAL_USER_CHUNK`] — each job makes **one**
/// [`Recommender::top_k_block`] call for its block, so models with
/// multi-anchor kernels stream the item side once per block instead of
/// once per user and rank each catalogue chunk while its scores are
/// cache-hot, never materializing full score rows. Per-user rankings and
/// metrics are bit-identical to the sequential per-user loop for any
/// `TAXOREC_THREADS`, and results are collected in user order.
fn evaluate_users(
    model: &dyn Recommender,
    split: &Split,
    targets_by_user: &[Vec<u32>],
    ks: &[usize],
    mask_valid: bool,
) -> Evaluation {
    let users: Vec<u32> = targets_by_user
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_empty())
        .map(|(u, _)| u as u32)
        .collect();
    let kmax = ks.iter().copied().max().unwrap_or(0);
    let n_chunks = users.len().div_ceil(EVAL_USER_CHUNK);
    let chunk_rows = taxorec_parallel::par_map("eval.users", n_chunks, |c| {
        let lo = c * EVAL_USER_CHUNK;
        let block = &users[lo..(lo + EVAL_USER_CHUNK).min(users.len())];
        let masked: Vec<std::collections::HashSet<u32>> = block
            .iter()
            .map(|&user| {
                let u = user as usize;
                let mut m: std::collections::HashSet<u32> =
                    split.train[u].iter().copied().collect();
                if mask_valid {
                    m.extend(split.valid[u].iter().copied());
                }
                m
            })
            .collect();
        let tops = model.top_k_block(block, kmax, &|pos, item| masked[pos].contains(&item));
        block
            .iter()
            .zip(&tops)
            .map(|(&user, top)| user_metrics(top, &targets_by_user[user as usize], ks))
            .collect::<Vec<_>>()
    });
    let mut eval = Evaluation {
        ks: ks.to_vec(),
        recall: Vec::with_capacity(users.len()),
        ndcg: Vec::with_capacity(users.len()),
        users,
    };
    for (recall_row, ndcg_row) in chunk_rows.into_iter().flatten() {
        eval.recall.push(recall_row);
        eval.ndcg.push(ndcg_row);
    }
    eval
}

/// Recall@k / NDCG@k rows of one user from their already-ranked top
/// `max(ks)` list (masked items never appear in `top` — the ranking call
/// excluded them).
fn user_metrics(top: &[(u32, f64)], targets: &[u32], ks: &[usize]) -> (Vec<f64>, Vec<f64>) {
    let target_set: std::collections::HashSet<u32> = targets.iter().copied().collect();
    let mut recall_row = Vec::with_capacity(ks.len());
    let mut ndcg_row = Vec::with_capacity(ks.len());
    for &k in ks {
        let hits: Vec<usize> = top
            .iter()
            .take(k)
            .enumerate()
            .filter(|&(_, &(item, _))| target_set.contains(&item))
            .map(|(rank, _)| rank)
            .collect();
        let recall = hits.len() as f64 / targets.len() as f64;
        let dcg: f64 = hits
            .iter()
            .map(|&rank| 1.0 / ((rank + 2) as f64).log2())
            .sum();
        let ideal: f64 = (0..k.min(targets.len()))
            .map(|i| 1.0 / ((i + 2) as f64).log2())
            .sum();
        let ndcg = if ideal > 0.0 { dcg / ideal } else { 0.0 };
        recall_row.push(recall);
        ndcg_row.push(ndcg);
    }
    (recall_row, ndcg_row)
}

/// Heap-based partial top-K selection: the `k` best `(item, score)` pairs
/// of `scores`, best first (descending score, deterministic tie-breaking
/// by lower index), skipping indices for which `exclude` returns true.
///
/// `O(n log k)` without ever materializing a full sorted vector — the one
/// ranking primitive shared by the offline evaluation loop below and the
/// online query engine in `taxorec-serve`. The implementation lives in
/// [`taxorec_data::select_top_k`] so the [`Recommender::top_k_block`]
/// default method uses the identical code path.
pub fn top_k(scores: &[f64], k: usize, exclude: impl FnMut(usize) -> bool) -> Vec<(u32, f64)> {
    taxorec_data::select_top_k(scores, k, exclude)
}

/// Indices of the `k` largest scores, descending (deterministic
/// tie-breaking by index). Thin wrapper over [`top_k`] without exclusion.
pub fn top_k_indices(scores: &[f64], k: usize) -> Vec<usize> {
    top_k(scores, k, |_| false)
        .into_iter()
        .map(|(i, _)| i as usize)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxorec_data::{Dataset, Interaction};

    /// Oracle scorer: prefers items in a fixed list.
    struct Fixed {
        ranking: Vec<u32>,
        n_items: usize,
    }

    impl Recommender for Fixed {
        fn name(&self) -> &str {
            "Fixed"
        }
        fn fit(&mut self, _: &Dataset, _: &Split) {}
        fn scores_for_user(&self, _: u32) -> Vec<f64> {
            let mut s = vec![0.0; self.n_items];
            for (i, &v) in self.ranking.iter().enumerate() {
                s[v as usize] = 1000.0 - i as f64;
            }
            s
        }
    }

    fn split_with(train: Vec<Vec<u32>>, valid: Vec<Vec<u32>>, test: Vec<Vec<u32>>) -> Split {
        Split { train, valid, test }
    }

    #[test]
    fn top_k_indices_empty_and_zero_k() {
        assert!(top_k_indices(&[], 5).is_empty());
        assert!(top_k_indices(&[1.0, 2.0], 0).is_empty());
    }

    #[test]
    fn top_k_indices_orders_descending() {
        let scores = [1.0, 9.0, 3.0, 7.0];
        assert_eq!(top_k_indices(&scores, 2), vec![1, 3]);
        assert_eq!(top_k_indices(&scores, 10), vec![1, 3, 2, 0]);
    }

    #[test]
    fn top_k_exclusion_matches_neg_infinity_masking() {
        // The exclusion predicate must rank identically to the old
        // approach of overwriting masked scores with -∞ and sorting.
        let scores: Vec<f64> = (0..200).map(|i| ((i * 73) % 197) as f64).collect();
        let masked: Vec<usize> = (0..200).step_by(7).collect();
        let mut old = scores.clone();
        for &m in &masked {
            old[m] = f64::NEG_INFINITY;
        }
        let via_mask: Vec<usize> = top_k_indices(&old, 20);
        let via_exclude: Vec<usize> = top_k(&scores, 20, |i| i.is_multiple_of(7))
            .iter()
            .map(|&(i, _)| i as usize)
            .collect();
        assert_eq!(via_mask, via_exclude);
    }

    #[test]
    fn perfect_ranking_scores_one() {
        let model = Fixed {
            ranking: vec![3, 4],
            n_items: 10,
        };
        let split = split_with(vec![vec![0]], vec![vec![]], vec![vec![3, 4]]);
        let e = evaluate(&model, &split, &[2, 5]);
        assert_eq!(e.users, vec![0]);
        assert_eq!(e.mean_recall(0), 1.0);
        assert!((e.mean_ndcg(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn miss_scores_zero() {
        let model = Fixed {
            ranking: vec![1, 2],
            n_items: 10,
        };
        let split = split_with(vec![vec![0]], vec![vec![]], vec![vec![9]]);
        let e = evaluate(&model, &split, &[2]);
        assert_eq!(e.mean_recall(0), 0.0);
        assert_eq!(e.mean_ndcg(0), 0.0);
    }

    #[test]
    fn partial_hit_recall_fraction() {
        // Test set {5, 6}; top-2 hits only 5 ⇒ recall 0.5.
        let model = Fixed {
            ranking: vec![5, 1],
            n_items: 10,
        };
        let split = split_with(vec![vec![]], vec![vec![]], vec![vec![5, 6]]);
        let e = evaluate(&model, &split, &[2]);
        assert!((e.mean_recall(0) - 0.5).abs() < 1e-12);
        // DCG = 1/log2(2) = 1, IDCG = 1 + 1/log2(3).
        let expected = 1.0 / (1.0 + 1.0 / 3f64.log2());
        assert!((e.mean_ndcg(0) - expected).abs() < 1e-12);
    }

    #[test]
    fn train_and_valid_items_are_masked() {
        // Item 5 would top the list but is in train; 6 in valid; so the
        // effective ranking starts at 7.
        let model = Fixed {
            ranking: vec![5, 6, 7],
            n_items: 10,
        };
        let split = split_with(vec![vec![5]], vec![vec![6]], vec![vec![7]]);
        let e = evaluate(&model, &split, &[1]);
        assert_eq!(e.mean_recall(0), 1.0);
    }

    #[test]
    fn users_without_test_items_are_skipped() {
        let model = Fixed {
            ranking: vec![1],
            n_items: 5,
        };
        let split = split_with(
            vec![vec![], vec![]],
            vec![vec![], vec![]],
            vec![vec![], vec![1]],
        );
        let e = evaluate(&model, &split, &[1]);
        assert_eq!(e.users, vec![1]);
    }

    #[test]
    fn ndcg_position_sensitivity() {
        // Hit at rank 1 beats hit at rank 3.
        let first = Fixed {
            ranking: vec![9, 1, 2],
            n_items: 10,
        };
        let third = Fixed {
            ranking: vec![1, 2, 9],
            n_items: 10,
        };
        let split = split_with(vec![vec![]], vec![vec![]], vec![vec![9]]);
        let e1 = evaluate(&first, &split, &[3]);
        let e3 = evaluate(&third, &split, &[3]);
        assert!(e1.mean_ndcg(0) > e3.mean_ndcg(0));
        assert_eq!(e1.mean_recall(0), e3.mean_recall(0));
    }

    #[test]
    fn validation_evaluation_masks_only_train() {
        let model = Fixed {
            ranking: vec![5, 6],
            n_items: 10,
        };
        let split = split_with(vec![vec![5]], vec![vec![6]], vec![vec![]]);
        let e = evaluate_valid(&model, &split, &[1]);
        assert_eq!(e.mean_recall(0), 1.0);
    }

    #[test]
    fn interaction_struct_is_reexported() {
        // Keeps the test module honest about the data dependency.
        let _ = Interaction {
            user: 0,
            item: 0,
            ts: 0,
        };
    }
}
