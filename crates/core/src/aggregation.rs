//! The tag-enhanced aggregation mechanism (paper §IV-D).
//!
//! * **Local aggregation** (Eqs. 9–11): an item's tag-relevant embedding is
//!   the Einstein midpoint of its tags' Klein coordinates, lifted onto the
//!   hyperboloid.
//! * **Global aggregation** (Eqs. 12–15): users and items are projected to
//!   the tangent space at the origin, propagated `L` steps across the
//!   bipartite training graph with mean aggregation and residual
//!   connections, the layer outputs summed, and the result mapped back via
//!   the exponential map.
//!
//! Both are expressed as tape ops so the gradients reach the underlying
//! parameters (including the tag embeddings `T^P`, which is how
//! recommendation feedback refines the taxonomy). The global aggregation is
//! one tape node per channel, [`Tape::global_aggregation`].

use taxorec_autodiff::{Channel, Tape, Var};

use crate::graph::GraphMatrices;

/// Local aggregation (Eqs. 9–11): Poincaré tag matrix → hyperboloid item
/// matrix (`n_items × (dim_tag + 1)`).
pub fn local_tag_aggregation(tape: &mut Tape, t_p: Var, graph: &GraphMatrices) -> Var {
    let klein = tape.poincare_to_klein(t_p); // Eq. 9
    let mu = tape.einstein_midpoint(klein, &graph.item_tag); // Eq. 10
    let p = tape.klein_to_poincare(mu); // Eq. 11 (inner map)
    tape.poincare_to_lorentz(p) // Eq. 11 (p⁻¹ lift)
}

/// Global aggregation (Eqs. 12–15) over the stacked user/item node set.
///
/// Input: hyperboloid user (`n_users × (d+1)`) and item (`n_items × (d+1)`)
/// matrices. Output: the propagated hyperboloid rows, users then items in
/// one matrix, as a [`Channel`].
///
/// Following Eq. 14, the output sums the *layer outputs* `z^1..z^L`
/// (each `z^{l+1} = (I + D⁻¹A)·z^l`, Eq. 13), then applies `exp_o`
/// (Eq. 15).
pub fn global_aggregation(
    tape: &mut Tape,
    users: Var,
    items: Var,
    graph: &GraphMatrices,
    layers: usize,
) -> Channel {
    let out = tape.global_aggregation(users, items, &graph.propagate, layers);
    Channel::stacked(out, graph.n_users)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphMatrices;
    use taxorec_autodiff::Matrix;
    use taxorec_data::{Dataset, Interaction, Split};
    use taxorec_geometry::lorentz;

    fn tiny_graph() -> GraphMatrices {
        let d = Dataset {
            name: "t".into(),
            n_users: 2,
            n_items: 3,
            n_tags: 2,
            interactions: vec![
                Interaction {
                    user: 0,
                    item: 0,
                    ts: 0,
                },
                Interaction {
                    user: 1,
                    item: 1,
                    ts: 0,
                },
                Interaction {
                    user: 1,
                    item: 2,
                    ts: 1,
                },
            ],
            item_tags: vec![vec![0], vec![0, 1], vec![]],
            tag_names: vec!["a".into(), "b".into()],
            taxonomy_truth: None,
        };
        let s = Split::temporal(&d, 1.0, 0.0);
        GraphMatrices::build(&d, &s)
    }

    #[test]
    fn local_aggregation_outputs_hyperboloid_points() {
        let g = tiny_graph();
        let mut tape = Tape::new();
        let t_p = tape.leaf(Matrix::from_vec(2, 2, vec![0.3, 0.1, -0.2, 0.4]));
        let v = local_tag_aggregation(&mut tape, t_p, &g);
        let m = tape.value(v);
        assert_eq!(m.shape(), (3, 3));
        for r in 0..3 {
            assert!(lorentz::constraint_residual(m.row(r)) < 1e-7, "row {r}");
        }
    }

    #[test]
    fn untagged_item_maps_to_origin() {
        let g = tiny_graph();
        let mut tape = Tape::new();
        let t_p = tape.leaf(Matrix::from_vec(2, 2, vec![0.3, 0.1, -0.2, 0.4]));
        let v = local_tag_aggregation(&mut tape, t_p, &g);
        let m = tape.value(v);
        // Item 2 has no tags: Klein midpoint 0 → hyperboloid origin.
        assert!((m.get(2, 0) - 1.0).abs() < 1e-9);
        assert!(m.get(2, 1).abs() < 1e-9);
    }

    #[test]
    fn single_tag_item_inherits_its_tag() {
        let g = tiny_graph();
        let mut tape = Tape::new();
        let t_p = tape.leaf(Matrix::from_vec(2, 2, vec![0.3, 0.1, -0.2, 0.4]));
        let v = local_tag_aggregation(&mut tape, t_p, &g);
        // Item 0 has exactly tag 0: its Lorentz embedding must equal the
        // direct lift of tag 0.
        let lifted = tape.poincare_to_lorentz(t_p);
        let expect = tape.value(lifted).row(0).to_vec();
        let got = tape.value(v).row(0).to_vec();
        for (a, b) in expect.iter().zip(&got) {
            assert!((a - b).abs() < 1e-9, "{expect:?} vs {got:?}");
        }
    }

    #[test]
    fn global_aggregation_shapes_and_manifold() {
        let g = tiny_graph();
        let mut tape = Tape::new();
        let mk = |rows: usize| {
            let mut m = Matrix::zeros(rows, 3);
            for r in 0..rows {
                let p = lorentz::from_spatial(&[0.1 * (r + 1) as f64, -0.05]);
                m.row_mut(r).copy_from_slice(&p);
            }
            m
        };
        let users = tape.leaf(mk(2));
        let items = tape.leaf(mk(3));
        let out = global_aggregation(&mut tape, users, items, &g, 3);
        assert_eq!(out.items, out.users);
        assert_eq!(out.item_offset, 2);
        assert_eq!(tape.value(out.users).shape(), (5, 3));
        for r in 0..5 {
            assert!(lorentz::constraint_residual(tape.value(out.users).row(r)) < 1e-7);
        }
    }

    #[test]
    fn propagation_mixes_neighbors() {
        // A user's output must move toward its interacted item's embedding.
        let g = tiny_graph();
        let mut tape = Tape::new();
        let mut users = Matrix::zeros(2, 3);
        users
            .row_mut(0)
            .copy_from_slice(&lorentz::from_spatial(&[0.0, 0.0]));
        users
            .row_mut(1)
            .copy_from_slice(&lorentz::from_spatial(&[0.0, 0.0]));
        let mut items = Matrix::zeros(3, 3);
        items
            .row_mut(0)
            .copy_from_slice(&lorentz::from_spatial(&[1.0, 0.0]));
        items
            .row_mut(1)
            .copy_from_slice(&lorentz::from_spatial(&[-1.0, 0.0]));
        items
            .row_mut(2)
            .copy_from_slice(&lorentz::from_spatial(&[-1.0, 0.0]));
        let u = tape.leaf(users);
        let v = tape.leaf(items);
        let out = global_aggregation(&mut tape, u, v, &g, 1);
        let uo = tape.value(out.users);
        // User 0 interacted with item 0 (spatial +x): pulled to +x.
        assert!(uo.get(0, 1) > 0.1);
        // User 1 interacted with items 1,2 (−x): pulled to −x.
        assert!(uo.get(1, 1) < -0.1);
    }
}
