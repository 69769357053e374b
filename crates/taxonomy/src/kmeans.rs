//! Poincaré k-means (Algorithm 1, line 3).
//!
//! Clusters tag embeddings living in the Poincaré ball: assignment uses the
//! Poincaré distance; centroid updates use the Einstein midpoint (the
//! practical surrogate for the Fréchet mean — see
//! [`taxorec_geometry::poincare::einstein_centroid`]). Seeding is
//! k-means++ (with Poincaré distances), which the ablation benches compare
//! against uniform seeding.

use rand::rngs::StdRng;
use rand::RngExt;
use taxorec_geometry::poincare;

/// Points per parallel assignment job, and the point count above which
/// the centroid update fans out too: a node's tag set (tens of tags)
/// runs inline, an index split over thousands of items keeps the pool.
const KMEANS_ASSIGN_CHUNK: usize = 256;

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
/// centroid. Deterministic for a fixed RNG state.
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
    let row = |t: u32| -> &[f64] { &emb[t as usize * dim..(t as usize + 1) * dim] };

    let mut centroids = seed(emb, dim, points, k, seeding, rng);
    let mut assignment = vec![0usize; points.len()];
    let mut iterations = 0;
    let mut total_moves = 0u64;
    for _ in 0..max_iters {
        iterations += 1;
        // Assignment step: each point's nearest centroid is independent of
        // every other point's, so it parallelizes bit-identically; the
        // bookkeeping (changed / total_moves) is applied sequentially.
        let cents = &centroids;
        let nearest = taxorec_parallel::par_map_chunked(
            "taxo.kmeans.assign",
            points.len(),
            KMEANS_ASSIGN_CHUNK,
            |i| {
                let t = points[i];
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for c in 0..k {
                    let d = poincare::distance(row(t), &cents[c * dim..(c + 1) * dim]);
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                (best, best_d)
            },
        );
        let mut changed = false;
        let mut dists = vec![0.0f64; points.len()];
        for (i, &(best, best_d)) in nearest.iter().enumerate() {
            dists[i] = best_d;
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
                total_moves += 1;
            }
        }
        // Re-seed empty clusters to the farthest point. Points grabbed by
        // an earlier empty cluster this round are excluded, so several
        // simultaneously-empty clusters each get a distinct point instead
        // of fighting over the same argmax (which left all but the last
        // one still empty).
        let mut reseeded: Vec<usize> = Vec::new();
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
        // Update step: Einstein centroid per cluster over its members in
        // point order, bucketed in one pass — clusters are disjoint, so
        // each is computed exactly as in the sequential loop.
        let mut buckets: Vec<Vec<&[f64]>> = vec![Vec::new(); k];
        for (&t, &c) in points.iter().zip(&assignment) {
            buckets[c].push(row(t));
        }
        let centroid = |c: usize| {
            let members = &buckets[c];
            if members.is_empty() {
                return None;
            }
            let weights = vec![1.0; members.len()];
            let mut out = vec![0.0; dim];
            poincare::einstein_centroid(members, &weights, &mut out);
            Some(out)
        };
        let per_job = if points.len() > KMEANS_ASSIGN_CHUNK {
            1
        } else {
            k
        };
        let new_centroids =
            taxorec_parallel::par_map_chunked("taxo.kmeans.update", k, per_job, centroid);
        for (c, cent) in new_centroids.into_iter().enumerate() {
            if let Some(cent) = cent {
                centroids[c * dim..(c + 1) * dim].copy_from_slice(&cent);
            }
        }
    }
    taxorec_telemetry::histogram("taxo.kmeans.iters").observe(iterations as f64);
    // Churn: mean assignment flips per point over the whole run — high
    // values flag unstable clusterings (near-boundary embeddings).
    taxorec_telemetry::histogram("taxo.kmeans.churn")
        .observe(total_moves as f64 / points.len() as f64);
    KmeansResult {
        assignment,
        centroids,
        iterations,
    }
}

fn seed(
    emb: &[f64],
    dim: usize,
    points: &[u32],
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
            let mut d2 = vec![0.0f64; points.len()];
            while centroids.len() < k * dim {
                let n_cent = centroids.len() / dim;
                let mut total = 0.0;
                for (i, &t) in points.iter().enumerate() {
                    let mut best = f64::INFINITY;
                    for c in 0..n_cent {
                        let d = poincare::distance(row(t), &centroids[c * dim..(c + 1) * dim]);
                        best = best.min(d);
                    }
                    d2[i] = best * best;
                    total += d2[i];
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
