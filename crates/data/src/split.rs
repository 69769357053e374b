//! Per-user temporal train/validation/test splits (paper §V-A.2):
//! "For each user, we use the first 60% of data as the training set, 20%
//! as validation and 20% as testing", split by timestamp.

use crate::dataset::Dataset;

/// A per-user split of the interaction log into train/validation/test item
/// lists.
#[derive(Clone, Debug)]
pub struct Split {
    /// `train[u]` = item ids in user `u`'s training set (temporal order).
    pub train: Vec<Vec<u32>>,
    /// Validation items per user.
    pub valid: Vec<Vec<u32>>,
    /// Test items per user.
    pub test: Vec<Vec<u32>>,
}

impl Split {
    /// Temporal split with the given train/validation fractions (test gets
    /// the remainder). The paper uses `0.6 / 0.2 / 0.2`.
    ///
    /// Users with very few events still get at least one training item
    /// (when they have any events at all); validation/test may be empty for
    /// them, mirroring how tiny users behave in the real pipeline.
    ///
    /// # Panics
    /// Panics if the fractions are out of `[0, 1]` or sum above 1.
    pub fn temporal(dataset: &Dataset, train_frac: f64, valid_frac: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&train_frac),
            "train fraction out of range"
        );
        assert!(
            (0.0..=1.0).contains(&valid_frac),
            "valid fraction out of range"
        );
        assert!(train_frac + valid_frac <= 1.0, "fractions sum above 1");
        let by_user = dataset.interactions_by_user();
        let mut train = Vec::with_capacity(dataset.n_users);
        let mut valid = Vec::with_capacity(dataset.n_users);
        let mut test = Vec::with_capacity(dataset.n_users);
        for events in by_user {
            let n = events.len();
            // Deduplicate repeat interactions with the same item, keeping
            // the earliest (implicit feedback is binary).
            let mut seen = std::collections::HashSet::new();
            let items: Vec<u32> = events
                .iter()
                .map(|e| e.item)
                .filter(|i| seen.insert(*i))
                .collect();
            let n = items.len().min(n);
            let n_train = ((n as f64 * train_frac).round() as usize).clamp(usize::from(n > 0), n);
            let n_valid = ((n as f64 * valid_frac).round() as usize).min(n - n_train);
            train.push(items[..n_train].to_vec());
            valid.push(items[n_train..n_train + n_valid].to_vec());
            test.push(items[n_train + n_valid..].to_vec());
        }
        Self { train, valid, test }
    }

    /// The paper's standard 60/20/20 split.
    pub fn standard(dataset: &Dataset) -> Self {
        Self::temporal(dataset, 0.6, 0.2)
    }

    /// All training `(user, item)` pairs, flattened.
    pub fn train_pairs(&self) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        for (u, items) in self.train.iter().enumerate() {
            for &v in items {
                pairs.push((u as u32, v));
            }
        }
        pairs
    }

    /// Number of training interactions.
    pub fn n_train(&self) -> usize {
        self.train.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Interaction;

    fn dataset_with(per_user: &[&[(u32, i64)]]) -> Dataset {
        let mut interactions = Vec::new();
        let mut max_item = 0;
        for (u, evs) in per_user.iter().enumerate() {
            for &(item, ts) in *evs {
                interactions.push(Interaction {
                    user: u as u32,
                    item,
                    ts,
                });
                max_item = max_item.max(item);
            }
        }
        let n_items = max_item as usize + 1;
        Dataset {
            name: "t".into(),
            n_users: per_user.len(),
            n_items,
            n_tags: 0,
            interactions,
            item_tags: vec![Vec::new(); n_items],
            tag_names: vec![],
            taxonomy_truth: None,
        }
    }

    #[test]
    fn split_is_temporal_and_disjoint() {
        // 10 items, timestamps = ids reversed to force sorting.
        let events: Vec<(u32, i64)> = (0..10).map(|i| (i, 100 - i as i64)).collect();
        let d = dataset_with(&[&events]);
        let s = Split::standard(&d);
        assert_eq!(s.train[0].len(), 6);
        assert_eq!(s.valid[0].len(), 2);
        assert_eq!(s.test[0].len(), 2);
        // Temporal: all training timestamps precede validation ones. Since
        // ts = 100 − id, later ts means smaller id; train must hold the
        // items with the largest ids.
        assert!(s.train[0].iter().min() > s.valid[0].iter().max());
        // Disjoint.
        let mut all: Vec<u32> = s.train[0]
            .iter()
            .chain(&s.valid[0])
            .chain(&s.test[0])
            .cloned()
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn tiny_users_keep_a_training_item() {
        let d = dataset_with(&[&[(0, 0)], &[(1, 0), (2, 1)]]);
        let s = Split::standard(&d);
        assert_eq!(s.train[0], vec![0]);
        assert!(s.valid[0].is_empty() && s.test[0].is_empty());
        assert!(!s.train[1].is_empty());
    }

    #[test]
    fn duplicate_items_are_deduplicated() {
        let d = dataset_with(&[&[(3, 0), (3, 1), (3, 2), (4, 3)]]);
        let s = Split::standard(&d);
        let total = s.train[0].len() + s.valid[0].len() + s.test[0].len();
        assert_eq!(total, 2, "only two distinct items");
    }

    #[test]
    fn empty_user_yields_empty_lists() {
        let mut d = dataset_with(&[&[(0, 0)]]);
        d.n_users = 2; // user 1 has no events
        let s = Split::standard(&d);
        assert!(s.train[1].is_empty());
    }

    #[test]
    fn train_pairs_flattening() {
        let d = dataset_with(&[&[(0, 0), (1, 1)], &[(2, 0)]]);
        let s = Split::temporal(&d, 1.0, 0.0);
        let mut pairs = s.train_pairs();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 0), (0, 1), (1, 2)]);
        assert_eq!(s.n_train(), 3);
    }
}
