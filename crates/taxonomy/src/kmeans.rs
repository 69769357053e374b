//! Poincaré k-means (Algorithm 1, line 3).
//!
//! Clusters tag embeddings living in the Poincaré ball: assignment uses the
//! Poincaré distance; centroid updates use the Einstein midpoint (the
//! practical surrogate for the Fréchet mean — see
//! [`taxorec_geometry::poincare::einstein_centroid`]). Seeding is
//! k-means++ (with Poincaré distances), which the ablation benches compare
//! against uniform seeding.
//!
//! # Same bits, less arithmetic
//!
//! The Lloyd loop returns, bit for bit, what a loop of
//! [`poincare::distance`] and [`poincare::einstein_centroid`] calls
//! returns (`tests/kmeans_reference.rs` keeps that loop and holds this one
//! to it). It gets there with far less arithmetic:
//!
//! 1. each point's `(1 − ‖x‖²).max(EPS_DIV)` is formed once per call and
//!    each centroid's once per iteration, the factors
//!    [`poincare::distance_arg`] would form on every call;
//! 2. k-means++ seeding keeps each point's running minimum distance and
//!    folds in only the newest centroid (`f64::min` is exact, so the fold
//!    is the one the full rescan performs);
//! 3. a point's distance arguments to [`PANEL_LANES`] centroids come from
//!    one [`poincare::distance_arg_panel`] sweep, a lane per centroid, each
//!    lane summing in [`sqdist`](taxorec_geometry::vecops::sqdist)'s order;
//! 4. a centroid whose argument exceeds the least one by more than a
//!    factor `1 + 10⁻⁹` cannot be the nearest ([`nearest`] proves it), so
//!    `arcosh` runs only when two or more are within that factor, and the
//!    first of equal distances still wins; a point's distance to its
//!    centroid is formed only when an empty cluster needs the farthest
//!    point;
//! 5. each point's Klein coordinates and Lorentz factor are formed once
//!    per call, so an Einstein-midpoint update is a weighted sum.

use rand::rngs::StdRng;
use rand::RngExt;
use taxorec_geometry::arcosh;
use taxorec_geometry::isa::Isa;
use taxorec_geometry::poincare::{self, PANEL_LANES};
use taxorec_geometry::vecops::{axpy, sqdist_lanes};

/// Points per assignment block: the argument buffer of one block stays
/// in L1 beside the centroid panels.
const ASSIGN_BLOCK: usize = 256;

/// Slack factor of the argument screen in [`nearest`].
const ARG_SLACK: f64 = 1.0 + 1e-9;

/// Seeding strategy for [`poincare_kmeans`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Seeding {
    /// k-means++: spread initial centroids by D² sampling (default).
    PlusPlus,
    /// Uniformly random distinct points (ablation baseline).
    Uniform,
}

/// Result of a k-means run.
#[derive(Clone, Debug)]
pub struct KmeansResult {
    /// `assignment[i]` = cluster of point `i` (`0..k`).
    pub assignment: Vec<usize>,
    /// Flattened centroids (`k × dim`).
    pub centroids: Vec<f64>,
    /// Number of full Lloyd iterations executed.
    pub iterations: usize,
}

/// Runs Lloyd's algorithm with Poincaré distances over the embeddings of
/// the listed points.
///
/// * `emb`/`dim` — flat row-major embedding matrix (all tags),
/// * `points` — the tag ids to cluster (a node's tag set),
/// * `k` — number of clusters (reduced to `points.len()` if larger).
///
/// Empty clusters are re-seeded to the point currently farthest from its
/// centroid. Deterministic for a fixed RNG state, and runs on the
/// caller's thread: a caller with several point sets fans them out.
///
/// # Panics
/// Panics if `points` is empty or `k == 0`.
pub fn poincare_kmeans(
    emb: &[f64],
    dim: usize,
    points: &[u32],
    k: usize,
    seeding: Seeding,
    max_iters: usize,
    rng: &mut StdRng,
) -> KmeansResult {
    assert!(!points.is_empty(), "cannot cluster an empty point set");
    assert!(k > 0, "k must be positive");
    let k = k.min(points.len());
    let n = points.len();
    let row = |t: u32| -> &[f64] { &emb[t as usize * dim..(t as usize + 1) * dim] };
    let den: Vec<f64> = points.iter().map(|&t| poincare::ball_den(row(t))).collect();

    let mut centroids = seed(emb, dim, points, &den, k, seeding, rng);
    // The per-point half of every Einstein midpoint below.
    let mut klein = vec![0.0; n * dim];
    let gamma: Vec<f64> = (0..n)
        .map(|i| poincare::klein_factor(row(points[i]), &mut klein[i * dim..(i + 1) * dim]))
        .collect();

    let isa = Isa::detected();
    let mut assignment = vec![0usize; n];
    // Each point's argument to its nearest centroid: `arcosh` of it is
    // the distance, formed only when an empty cluster needs the farthest
    // point.
    let mut best_arg = vec![0.0f64; n];
    let groups = k.div_ceil(PANEL_LANES);
    let mut args = vec![[0.0f64; PANEL_LANES]; ASSIGN_BLOCK.min(n) * groups];
    let mut point_args = vec![0.0f64; k];
    let mut iterations = 0;
    let mut total_moves = 0u64;
    for _ in 0..max_iters {
        iterations += 1;
        // Assignment step: each point's nearest centroid, in blocks of
        // points swept against every panel of centroids.
        let panels = Panels::new(&centroids, dim, k);
        let mut changed = false;
        let mut members = vec![0usize; k];
        for lo in (0..n).step_by(ASSIGN_BLOCK) {
            let hi = (lo + ASSIGN_BLOCK).min(n);
            let m = hi - lo;
            for (g, (panel, cden)) in panels.iter().enumerate() {
                poincare::distance_arg_panel(
                    isa,
                    emb,
                    dim,
                    &points[lo..hi],
                    &den[lo..hi],
                    panel,
                    cden,
                    &mut args[g * m..(g + 1) * m],
                );
            }
            for i in 0..m {
                let row_args = if groups == 1 {
                    &args[i][..k]
                } else {
                    for (c, a) in point_args.iter_mut().enumerate() {
                        *a = args[c / PANEL_LANES * m + i][c % PANEL_LANES];
                    }
                    &point_args[..]
                };
                let (best, arg) = nearest(row_args);
                best_arg[lo + i] = arg;
                members[best] += 1;
                if assignment[lo + i] != best {
                    assignment[lo + i] = best;
                    changed = true;
                    total_moves += 1;
                }
            }
        }
        // Re-seed empty clusters to the farthest point. Points grabbed by
        // an earlier empty cluster this round are excluded, so several
        // simultaneously-empty clusters each get a distinct point instead
        // of fighting over the same argmax (which left all but the last
        // one still empty).
        let mut reseeded: Vec<usize> = Vec::new();
        let dists: Vec<f64> = if members.contains(&0) {
            best_arg.iter().map(|&a| arcosh(a)).collect()
        } else {
            Vec::new()
        };
        for c in 0..k {
            if !assignment.contains(&c) {
                let far = dists
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !reseeded.contains(i))
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .map(|(i, _)| i);
                if let Some(far) = far {
                    assignment[far] = c;
                    reseeded.push(far);
                    changed = true;
                }
            }
        }
        if !changed && iterations > 1 {
            break;
        }
        // Update step: Einstein centroid per cluster, each summing its
        // members in point order from the per-point Klein coordinates.
        let mut acc = vec![0.0; k * dim];
        let mut wsum = vec![0.0; k];
        members.fill(0);
        for (i, &c) in assignment.iter().enumerate() {
            axpy(
                &mut acc[c * dim..(c + 1) * dim],
                gamma[i],
                &klein[i * dim..(i + 1) * dim],
            );
            wsum[c] += gamma[i];
            members[c] += 1;
        }
        for c in (0..k).filter(|&c| members[c] > 0) {
            poincare::einstein_centroid_finish(
                &mut acc[c * dim..(c + 1) * dim],
                wsum[c],
                &mut centroids[c * dim..(c + 1) * dim],
            );
        }
    }
    taxorec_telemetry::histogram("taxo.kmeans.iters").observe(iterations as f64);
    // Churn: mean assignment flips per point over the whole run — high
    // values flag unstable clusterings (near-boundary embeddings).
    taxorec_telemetry::histogram("taxo.kmeans.churn").observe(total_moves as f64 / n as f64);
    KmeansResult {
        assignment,
        centroids,
        iterations,
    }
}

/// The centroids of one Lloyd iteration as [`poincare::distance_arg_panel`]
/// reads them: groups of [`PANEL_LANES`], each dimension-major, with each
/// centroid's [`poincare::ball_den`]. Lanes past `k` hold the origin.
struct Panels {
    panels: Vec<f64>,
    cden: Vec<[f64; PANEL_LANES]>,
    /// Doubles per panel.
    size: usize,
}

impl Panels {
    fn new(centroids: &[f64], dim: usize, k: usize) -> Self {
        let groups = k.div_ceil(PANEL_LANES);
        let mut panels = vec![0.0; groups * dim * PANEL_LANES];
        let mut cden = vec![[1.0; PANEL_LANES]; groups];
        for c in 0..k {
            let (g, l) = (c / PANEL_LANES, c % PANEL_LANES);
            let cent = &centroids[c * dim..(c + 1) * dim];
            cden[g][l] = poincare::ball_den(cent);
            let panel = &mut panels[g * dim * PANEL_LANES..(g + 1) * dim * PANEL_LANES];
            for (j, &v) in cent.iter().enumerate() {
                panel[j * PANEL_LANES + l] = v;
            }
        }
        let size = dim * PANEL_LANES;
        Self { panels, cden, size }
    }

    fn iter(&self) -> impl Iterator<Item = (&[f64], &[f64; PANEL_LANES])> {
        (0..self.cden.len()).map(|g| {
            (
                &self.panels[g * self.size..(g + 1) * self.size],
                &self.cden[g],
            )
        })
    }
}

/// The nearest centroid of one point and its distance argument, from
/// the point's arguments to each centroid: the centroid the scalar loop
/// `d = arcosh(args[c]); if d < best_d { .. }` over `c = 0..k` from
/// `(0, ∞)` picks, with `arcosh` evaluated only where it can decide.
///
/// A centroid whose argument exceeds `cut = fl(a_min·(1 + 10⁻⁹))`, `a_min`
/// the least argument, is passed over. In exact arithmetic its `arcosh`
/// exceeds `arcosh(a_min)` by at least `ln(1 + 10⁻⁹) − 2⁻⁵³ > 0.99·10⁻⁹`,
/// since `d/dx arcosh x = 1/√(x² − 1) ≥ 1/x`. std's `acosh`,
/// `ln(x + √(x − 1)·√(x + 1))`, is within a few ulp of its result, about
/// `10⁻¹⁴` at most for arguments up to `10³⁰⁰` (ball points give at most
/// `10²⁶`), so the computed distance of a passed-over centroid is
/// strictly greater than that of `a_min`'s, and the scalar loop would
/// not pick it. When exactly one centroid is left, it is the answer and
/// no `arcosh` runs; otherwise the scalar loop runs over those left, in
/// index order, so the first of equal distances wins. Past `10³⁰⁰`,
/// where `acosh` may overflow and the scalar loop answers 0 for a set of
/// infinite distances, the scalar loop runs over every centroid. A NaN
/// argument (which [`arcosh`] maps to 0, the nearest) never compares
/// greater than `cut`, so it is always among those left.
#[inline]
fn nearest(args: &[f64]) -> (usize, f64) {
    // `f64::min` would pass over NaN the same way.
    let mut a_min = f64::INFINITY;
    for &a in args {
        if a < a_min {
            a_min = a;
        }
    }
    let cut = if a_min <= 1e300 {
        a_min * ARG_SLACK
    } else {
        f64::INFINITY
    };
    let mut left = args
        .iter()
        .enumerate()
        .filter(|(_, &a)| a <= cut || a.is_nan());
    let first = left.next().map_or(0, |(c, _)| c);
    if cut < f64::INFINITY && left.next().is_none() {
        return (first, args[first]);
    }
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (c, &a) in args.iter().enumerate() {
        if a > cut {
            continue;
        }
        let d = arcosh(a);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, args[best])
}

fn seed(
    emb: &[f64],
    dim: usize,
    points: &[u32],
    den: &[f64],
    k: usize,
    seeding: Seeding,
    rng: &mut StdRng,
) -> Vec<f64> {
    let row = |t: u32| -> &[f64] { &emb[t as usize * dim..(t as usize + 1) * dim] };
    let mut centroids = Vec::with_capacity(k * dim);
    match seeding {
        Seeding::Uniform => {
            // Sample k distinct indices (points.len() ≥ k is guaranteed).
            let mut chosen: Vec<usize> = Vec::new();
            while chosen.len() < k {
                let i = rng.random_range(0..points.len());
                if !chosen.contains(&i) {
                    chosen.push(i);
                }
            }
            for i in chosen {
                centroids.extend_from_slice(row(points[i]));
            }
        }
        Seeding::PlusPlus => {
            let first = rng.random_range(0..points.len());
            centroids.extend_from_slice(row(points[first]));
            // Each point's distance to its nearest centroid so far, the
            // newest centroid folded in per round.
            let mut best = vec![f64::INFINITY; points.len()];
            let mut d2 = vec![0.0f64; points.len()];
            while centroids.len() < k * dim {
                let newest = &centroids[centroids.len() - dim..];
                fold_nearest(emb, dim, points, den, newest, &mut best);
                let mut total = 0.0;
                for (w, &b) in d2.iter_mut().zip(&best) {
                    *w = b * b;
                    total += *w;
                }
                let next = if total <= 1e-15 {
                    rng.random_range(0..points.len())
                } else {
                    let mut target = rng.random::<f64>() * total;
                    let mut pick = points.len() - 1;
                    for (i, &w) in d2.iter().enumerate() {
                        if target < w {
                            pick = i;
                            break;
                        }
                        target -= w;
                    }
                    pick
                };
                centroids.extend_from_slice(row(points[next]));
            }
        }
    }
    centroids
}

/// `best[i] = best[i].min(d(xᵢ, c))` for every point, four points' sums
/// in lockstep.
fn fold_nearest(emb: &[f64], dim: usize, points: &[u32], den: &[f64], c: &[f64], best: &mut [f64]) {
    const LANES: usize = 4;
    let row = |t: u32| -> &[f64] { &emb[t as usize * dim..(t as usize + 1) * dim] };
    let cden = poincare::ball_den(c);
    let fold = |b: &mut f64, a: f64, den: f64| {
        *b = b.min(arcosh(1.0 + 2.0 * a / (den * cden)));
    };
    let mut i = 0;
    while i + LANES <= points.len() {
        let a = sqdist_lanes::<LANES>(std::array::from_fn(|l| row(points[i + l])), [c; LANES]);
        for l in 0..LANES {
            fold(&mut best[i + l], a[l], den[i + l]);
        }
        i += LANES;
    }
    for i in i..points.len() {
        let a = sqdist_lanes([row(points[i])], [c])[0];
        fold(&mut best[i], a, den[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Two tight groups of ball points around (±0.5, 0).
    fn two_blobs() -> (Vec<f64>, usize, Vec<u32>) {
        let mut emb = Vec::new();
        for i in 0..6 {
            let side = if i < 3 { 0.5 } else { -0.5 };
            emb.extend_from_slice(&[side + 0.02 * i as f64, 0.01 * i as f64]);
        }
        (emb, 2, (0..6).collect())
    }

    #[test]
    fn separates_two_blobs() {
        let (emb, dim, pts) = two_blobs();
        let mut rng = StdRng::seed_from_u64(3);
        let r = poincare_kmeans(&emb, dim, &pts, 2, Seeding::PlusPlus, 50, &mut rng);
        assert_eq!(r.assignment[0], r.assignment[1]);
        assert_eq!(r.assignment[1], r.assignment[2]);
        assert_eq!(r.assignment[3], r.assignment[4]);
        assert_eq!(r.assignment[4], r.assignment[5]);
        assert_ne!(r.assignment[0], r.assignment[3]);
    }

    #[test]
    fn uniform_seeding_also_converges() {
        let (emb, dim, pts) = two_blobs();
        let mut rng = StdRng::seed_from_u64(11);
        let r = poincare_kmeans(&emb, dim, &pts, 2, Seeding::Uniform, 50, &mut rng);
        assert_ne!(r.assignment[0], r.assignment[5]);
    }

    #[test]
    fn k_clamped_to_point_count() {
        let emb = vec![0.1, 0.0, -0.1, 0.0];
        let mut rng = StdRng::seed_from_u64(1);
        let r = poincare_kmeans(&emb, 2, &[0, 1], 5, Seeding::PlusPlus, 10, &mut rng);
        assert!(r.assignment.iter().all(|&a| a < 2));
        assert_eq!(r.centroids.len(), 2 * 2);
    }

    #[test]
    fn single_point_single_cluster() {
        let emb = vec![0.3, -0.2];
        let mut rng = StdRng::seed_from_u64(1);
        let r = poincare_kmeans(&emb, 2, &[0], 1, Seeding::PlusPlus, 10, &mut rng);
        assert_eq!(r.assignment, vec![0]);
        assert!((r.centroids[0] - 0.3).abs() < 1e-9);
    }

    #[test]
    fn identical_points_fill_all_clusters() {
        // Degenerate: every point identical; empty-cluster reseeding must
        // keep the algorithm finite and assignments valid.
        let emb = vec![0.2, 0.2, 0.2, 0.2, 0.2, 0.2];
        let mut rng = StdRng::seed_from_u64(5);
        let r = poincare_kmeans(&emb, 2, &[0, 1, 2], 2, Seeding::PlusPlus, 20, &mut rng);
        assert!(r.assignment.iter().all(|&a| a < 2));
    }

    #[test]
    fn collapsed_assignment_reseeds_all_clusters_without_nan() {
        // Craft a total assignment collapse: every point identical, so all
        // distances tie and every point lands in cluster 0 each iteration,
        // leaving k−1 clusters empty simultaneously. Reseeding must hand
        // each empty cluster a *distinct* point (the old argmax-per-cluster
        // gave them all the same point, so only the last one filled) and
        // the resulting centroids must stay finite.
        let emb: Vec<f64> = (0..5).flat_map(|_| [0.25, -0.1]).collect();
        let mut rng = StdRng::seed_from_u64(2);
        let r = poincare_kmeans(&emb, 2, &[0, 1, 2, 3, 4], 3, Seeding::Uniform, 8, &mut rng);
        for c in 0..3 {
            assert!(
                r.assignment.contains(&c),
                "cluster {c} empty after reseed: {:?}",
                r.assignment
            );
        }
        assert!(
            r.centroids.iter().all(|v| v.is_finite()),
            "non-finite centroid: {:?}",
            r.centroids
        );
    }

    #[test]
    fn reseed_handles_more_empty_clusters_than_points_gracefully() {
        // k is clamped to the point count, so k == points.len() with
        // identical points exercises the reseed path where every cluster
        // but one is empty and exactly enough points exist to fill them.
        let emb = vec![0.4, 0.0, 0.4, 0.0, 0.4, 0.0];
        let mut rng = StdRng::seed_from_u64(7);
        let r = poincare_kmeans(&emb, 2, &[0, 1, 2], 3, Seeding::PlusPlus, 10, &mut rng);
        let mut seen: Vec<usize> = r.assignment.clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2], "each cluster owns exactly one point");
        assert!(r.centroids.iter().all(|v| v.is_finite()));
    }

    /// [`nearest`] picks what the scalar scan over every argument picks,
    /// with the same argument: ties, a runner-up inside and outside the
    /// slack, NaN arguments (distance 0) and arguments past `10³⁰⁰`.
    #[test]
    fn nearest_is_the_scalar_scan() {
        let scan = |args: &[f64]| {
            let (mut best, mut best_d) = (0usize, f64::INFINITY);
            for (c, &a) in args.iter().enumerate() {
                if arcosh(a) < best_d {
                    (best, best_d) = (c, arcosh(a));
                }
            }
            (best, args[best].to_bits())
        };
        let near = 2.0 * (1.0 + 1e-12);
        let far = 2.0 * (1.0 + 1e-8);
        for args in [
            vec![2.0],
            vec![3.0, 2.0, 2.0],
            vec![near, 2.0, far],
            vec![2.0, near],
            vec![far, 2.0],
            vec![1.0, 1.0 + 1e-17, 1.0],
            vec![2.0, f64::NAN, f64::NAN],
            vec![f64::NAN; 3],
            vec![1e301, 1e302, 1e301],
            vec![f64::INFINITY; 2],
            vec![f64::INFINITY, 1e308, 5.0],
        ] {
            let (c, a) = nearest(&args);
            assert_eq!((c, a.to_bits()), scan(&args), "{args:?}");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (emb, dim, pts) = two_blobs();
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        let a = poincare_kmeans(&emb, dim, &pts, 2, Seeding::PlusPlus, 50, &mut r1);
        let b = poincare_kmeans(&emb, dim, &pts, 2, Seeding::PlusPlus, 50, &mut r2);
        assert_eq!(a.assignment, b.assignment);
    }
}
