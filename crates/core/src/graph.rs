//! Graph constants of the computation: the normalized bipartite
//! propagation matrix of the global aggregation (paper Eq. 13) and the
//! item–tag matrix `Ψ` of the local aggregation (Eq. 10).

use std::sync::Arc;

use taxorec_autodiff::Csr;
use taxorec_data::{Dataset, Split};

/// Propagation and weighting matrices shared by every forward pass.
pub struct GraphMatrices {
    /// `(n_users + n_items)²` one-step propagation matrix
    /// `M = I + D⁻¹·A` over the stacked user/item node set, where `A` is
    /// the (symmetric) bipartite training adjacency — one application
    /// computes paper Eq. 13 for both sides at once. Its transpose, which
    /// backward needs, is [`Csr::transposed`]: built by the first backward
    /// pass, shared by every later one.
    pub propagate: Arc<Csr>,
    /// Item–tag weights `Ψ` (`n_items × n_tags`, binary).
    pub item_tag: Arc<Csr>,
    /// Number of users (rows `0..n_users` of the stacked node set).
    pub n_users: usize,
    /// Number of items (rows `n_users..n_users+n_items`).
    pub n_items: usize,
}

impl GraphMatrices {
    /// Builds the matrices from the training split of a dataset.
    pub fn build(dataset: &Dataset, split: &Split) -> Self {
        let n_users = dataset.n_users;
        let n_items = dataset.n_items;
        let n = n_users + n_items;
        let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
        // Mean aggregation: each edge (u,v) contributes 1/|N_u| to row u
        // and 1/|N_v| to row v+n_users.
        let mut item_degree = vec![0usize; n_items];
        for items in &split.train {
            for &v in items {
                item_degree[v as usize] += 1;
            }
        }
        for (u, items) in split.train.iter().enumerate() {
            let du = items.len();
            for &v in items {
                triplets.push((u, n_users + v as usize, 1.0 / du as f64));
                triplets.push((
                    n_users + v as usize,
                    u,
                    1.0 / item_degree[v as usize] as f64,
                ));
            }
        }
        // Self-loops: Eq. 13's `z^{l+1} = z^l + mean(neighbors)`.
        for i in 0..n {
            triplets.push((i, i, 1.0));
        }
        let propagate = Arc::new(Csr::from_triplets(n, n, &triplets));

        let mut tag_triplets = Vec::new();
        for (v, tags) in dataset.item_tags.iter().enumerate() {
            for &t in tags {
                tag_triplets.push((v, t as usize, 1.0));
            }
        }
        let item_tag = Arc::new(Csr::from_triplets(
            n_items,
            dataset.n_tags.max(1),
            &tag_triplets,
        ));
        Self {
            propagate,
            item_tag,
            n_users,
            n_items,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxorec_data::{Dataset, Interaction};

    fn tiny() -> (Dataset, Split) {
        let d = Dataset {
            name: "t".into(),
            n_users: 2,
            n_items: 2,
            n_tags: 2,
            interactions: vec![
                Interaction {
                    user: 0,
                    item: 0,
                    ts: 0,
                },
                Interaction {
                    user: 0,
                    item: 1,
                    ts: 1,
                },
                Interaction {
                    user: 1,
                    item: 1,
                    ts: 0,
                },
            ],
            item_tags: vec![vec![0], vec![0, 1]],
            tag_names: vec!["a".into(), "b".into()],
            taxonomy_truth: None,
        };
        let s = Split::temporal(&d, 1.0, 0.0);
        (d, s)
    }

    #[test]
    fn propagation_rows_mean_plus_self() {
        let (d, s) = tiny();
        let g = GraphMatrices::build(&d, &s);
        let m = g.propagate.to_dense();
        // User 0 row: self (1.0) + 1/2 each to items 0 and 1 (cols 2,3).
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 2), 0.5);
        assert_eq!(m.get(0, 3), 0.5);
        // Item 1 (row 3): self + 1/2 to users 0 and 1.
        assert_eq!(m.get(3, 3), 1.0);
        assert_eq!(m.get(3, 0), 0.5);
        assert_eq!(m.get(3, 1), 0.5);
        // Item 0 (row 2): only user 0 interacted ⇒ weight 1.
        assert_eq!(m.get(2, 0), 1.0);
    }

    #[test]
    fn item_tag_matrix_matches_lists() {
        let (d, s) = tiny();
        let g = GraphMatrices::build(&d, &s);
        let psi = g.item_tag.to_dense();
        assert_eq!(psi.get(0, 0), 1.0);
        assert_eq!(psi.get(0, 1), 0.0);
        assert_eq!(psi.get(1, 1), 1.0);
    }

    #[test]
    fn transpose_is_consistent() {
        let (d, s) = tiny();
        let g = GraphMatrices::build(&d, &s);
        assert_eq!(
            g.propagate.transposed().to_dense().data(),
            g.propagate.to_dense().transpose().data()
        );
    }

    #[test]
    fn empty_training_user_keeps_self_loop_only() {
        let (d, mut s) = tiny();
        s.train[1].clear();
        let g = GraphMatrices::build(&d, &s);
        let m = g.propagate.to_dense();
        assert_eq!(m.get(1, 1), 1.0);
        assert_eq!(m.get(1, 2), 0.0);
        assert_eq!(m.get(1, 3), 0.0);
    }
}
