//! Regenerates **Fig. 3** — a quantitative counterpart of the paper's
//! Euclidean-vs-hyperbolic illustration: embed the planted Yelp tag
//! taxonomy in two dimensions in both spaces with the same training
//! budget, then compare (a) mean relative stress against the tree
//! distances and (b) the fraction of parent–child pairs where the *child*
//! lands closer to the origin than its parent (the "wrong hierarchy
//! arrangement" the paper's Fig. 3(a) depicts for Euclidean space).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use taxorec_autodiff::{Matrix, Tape};
use taxorec_bench::{write_bench_telemetry, BenchProfile};
use taxorec_core::optim;
use taxorec_data::{generate_preset, Preset, TagTree};
use taxorec_geometry::{poincare, vecops};

/// Tree distance between tags through their lowest common ancestor, with
/// the virtual root joining top-level tags.
fn tree_distance(tree: &TagTree, a: u32, b: u32) -> f64 {
    if a == b {
        return 0.0;
    }
    let mut anc_a: Vec<u32> = vec![a];
    anc_a.extend(tree.ancestors(a));
    let mut anc_b: Vec<u32> = vec![b];
    anc_b.extend(tree.ancestors(b));
    for (i, x) in anc_a.iter().enumerate() {
        if let Some(j) = anc_b.iter().position(|y| y == x) {
            return (i + j) as f64;
        }
    }
    // Through the virtual root.
    (anc_a.len() + anc_b.len()) as f64
}

struct EmbedOutcome {
    stress: f64,
    violations: f64,
}

/// Trains a 2-D embedding of the tags minimizing squared stress against
/// `scale`-scaled tree distances, in the chosen geometry.
fn embed(tree: &TagTree, hyperbolic: bool, scale: f64, epochs: usize, seed: u64) -> EmbedOutcome {
    let n = tree.n_tags();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut emb = Matrix::zeros(n, 2);
    for r in 0..n {
        let row = emb.row_mut(r);
        row[0] = (rng.random::<f64>() - 0.5) * 0.5;
        row[1] = (rng.random::<f64>() - 0.5) * 0.5;
    }
    // All pairs (n is small), fixed targets.
    let mut pa = Vec::new();
    let mut pb = Vec::new();
    let mut target = Vec::new();
    for a in 0..n as u32 {
        for b in (a + 1)..n as u32 {
            pa.push(a as usize);
            pb.push(b as usize);
            target.push(scale * tree_distance(tree, a, b));
        }
    }
    let pa = Arc::new(pa);
    let pb = Arc::new(pb);
    let t_mat = Matrix::from_vec(target.len(), 1, target.clone());
    // The Poincaré conformal factor shrinks effective steps away from the
    // origin; a larger nominal rate gives both geometries a comparable
    // optimization budget.
    let lr = if hyperbolic { 1.0 } else { 0.1 };
    for _ in 0..epochs {
        let mut tape = Tape::new();
        let e = tape.leaf(emb.clone());
        let ga = tape.gather_rows(e, Arc::clone(&pa));
        let gb = tape.gather_rows(e, Arc::clone(&pb));
        let d = if hyperbolic {
            tape.poincare_dist(ga, gb)
        } else {
            let diff = tape.sub(ga, gb);
            let sq = tape.row_sqnorm(diff);
            tape.sqrt(sq)
        };
        let t = tape.leaf(t_mat.clone());
        let err = tape.sub(d, t);
        let sq = tape.hadamard(err, err);
        let loss = tape.mean_all(sq);
        let grads = tape.backward(loss);
        if let Some(g) = grads.wrt(e) {
            if hyperbolic {
                optim::rsgd_poincare(&mut emb, g, lr);
            } else {
                optim::sgd(&mut emb, g, lr);
            }
        }
    }
    // Stress.
    let mut stress = 0.0;
    for i in 0..pa.len() {
        let d = if hyperbolic {
            poincare::distance(emb.row(pa[i]), emb.row(pb[i]))
        } else {
            vecops::sqdist(emb.row(pa[i]), emb.row(pb[i])).sqrt()
        };
        stress += ((d - target[i]) / target[i].max(1e-9)).abs();
    }
    stress /= pa.len() as f64;
    // Parent–child origin violations: hierarchy demands parents closer to
    // the origin (more general) than their children.
    let mut violations = 0.0;
    let mut pairs = 0usize;
    for t in 0..n as u32 {
        if let Some(p) = tree.parent(t) {
            pairs += 1;
            let rc = if hyperbolic {
                poincare::distance(&[0.0, 0.0], emb.row(t as usize))
            } else {
                vecops::norm(emb.row(t as usize))
            };
            let rp = if hyperbolic {
                poincare::distance(&[0.0, 0.0], emb.row(p as usize))
            } else {
                vecops::norm(emb.row(p as usize))
            };
            if rc < rp {
                violations += 1.0;
            }
        }
    }
    violations /= pairs.max(1) as f64;
    EmbedOutcome { stress, violations }
}

pub fn run() {
    let profile = BenchProfile::from_env();
    println!("Fig. 3 — Euclidean vs hyperbolic arrangement of the planted Yelp taxonomy (2-D)\n");
    let d = generate_preset(Preset::Yelp, profile.scale);
    let tree = d
        .taxonomy_truth
        .as_ref()
        .expect("synthetic dataset carries the tree");
    let epochs = 1500;
    // Edge length 1: leaves must sit ~2 apart while the deepest level
    // lives at radius ~4 — realizable in hyperbolic 2-space (circumference
    // grows as sinh r) but crowded in the Euclidean plane.
    let scale = 1.0;
    println!(
        "{:<12} {:>16} {:>28}",
        "space", "mean rel. stress", "parent-farther-than-child %"
    );
    for (label, hyperbolic) in [("Euclidean", false), ("Poincare", true)] {
        let mut stress = 0.0;
        let mut viol = 0.0;
        let seeds = [1u64, 2, 3];
        for &s in &seeds {
            let out = embed(tree, hyperbolic, scale, epochs, s);
            stress += out.stress / seeds.len() as f64;
            viol += out.violations / seeds.len() as f64;
        }
        println!("{label:<12} {stress:>16.4} {:>27.1}%", 100.0 * viol);
    }
    println!("\nExpected shape (paper Fig. 3): hyperbolic space yields lower distortion and");
    println!("fewer hierarchy violations than Euclidean space at the same dimensionality.");
    write_bench_telemetry("fig3");
}
