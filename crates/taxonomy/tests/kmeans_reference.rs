//! `poincare_kmeans` against the loop it replaced.
//!
//! `reference` is the Lloyd loop as it stood before the panel sweep,
//! word for word: a [`poincare::distance`] call per (point, centroid)
//! pair, a full k-means++ rescan per seed and an
//! [`poincare::einstein_centroid`] call per cluster. The library's loop
//! must return its assignment, centroid bits and iteration count on
//! generated inputs: every `k` from 1 to 9 (past one panel of centroids,
//! and past the point count), dimensions 1, 8 and 32, duplicated points
//! (exact distance ties), points on and past the unit sphere (where the
//! `EPS_DIV` guard of the distance applies), both seedings, and pool
//! widths 1 and 4.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use taxorec_geometry::MAX_BALL_NORM;
use taxorec_taxonomy::{poincare_kmeans, KmeansResult, Seeding};

#[allow(dead_code)]
mod reference {
    use taxorec_taxonomy::{KmeansResult, Seeding};

    use rand::rngs::StdRng;
    use rand::RngExt;
    use taxorec_geometry::poincare;

    /// Points per parallel assignment job, and the point count above which
    /// the centroid update fans out too: a node's tag set (tens of tags)
    /// runs inline, an index split over thousands of items keeps the pool.
    const KMEANS_ASSIGN_CHUNK: usize = 256;

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
}

/// A generated point set: clustered, uniform and boundary rows, with
/// duplicates, flattened at `dim`.
fn points(rng: &mut StdRng, n: usize, dim: usize) -> Vec<f64> {
    let centres: Vec<Vec<f64>> = (0..3)
        .map(|_| (0..dim).map(|_| rng.random_range(-0.5..0.5)).collect())
        .collect();
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
    while rows.len() < n {
        let row = match rng.random_range(0..10) {
            // A copy of an earlier row: its distances tie exactly.
            0 | 1 if !rows.is_empty() => rows[rng.random_range(0..rows.len())].clone(),
            // On or past the sphere: 1 − ‖x‖² is at or below EPS_DIV.
            2 => {
                let r = [MAX_BALL_NORM, 1.0 - 1e-13, 1.0, 1.0 + 1e-9][rng.random_range(0..4usize)];
                on_sphere(rng, dim, r)
            }
            3 => {
                let r = rng.random_range(0.9..MAX_BALL_NORM);
                on_sphere(rng, dim, r)
            }
            4..=6 => {
                let c = &centres[rng.random_range(0..centres.len())];
                c.iter()
                    .map(|v| v + rng.random_range(-0.05..0.05))
                    .collect()
            }
            _ => {
                let r = rng.random_range(0.0..0.8);
                on_sphere(rng, dim, r)
            }
        };
        rows.push(row);
    }
    rows.concat()
}

fn on_sphere(rng: &mut StdRng, dim: usize, r: f64) -> Vec<f64> {
    let mut v: Vec<f64> = (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect();
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-300);
    for x in &mut v {
        *x *= r / norm;
    }
    v
}

fn bits(r: &KmeansResult) -> (Vec<usize>, Vec<u64>, usize) {
    let cents = r.centroids.iter().map(|v| v.to_bits()).collect();
    (r.assignment.clone(), cents, r.iterations)
}

#[test]
fn the_panel_loop_returns_the_reference_bits() {
    let mut cases = 0;
    for threads in ["1", "4"] {
        std::env::set_var("TAXOREC_THREADS", threads);
        let mut rng = StdRng::seed_from_u64(0x6b6d);
        for dim in [1, 8, 32] {
            for n in [1, 2, 3, 5, 9, 17, 64, 301] {
                let emb = points(&mut rng, n, dim);
                // A listed subset, out of order and with a repeat, like
                // a node's members.
                let mut ids: Vec<u32> = (0..n as u32).rev().collect();
                if n > 2 {
                    ids.swap(0, n / 2);
                    ids.push(ids[1]);
                }
                for k in 1..=9 {
                    for seeding in [Seeding::PlusPlus, Seeding::Uniform] {
                        let iters = [1, 4, 30][(k + n) % 3];
                        let seed = rng.random::<u64>();
                        let want = reference::poincare_kmeans(
                            &emb,
                            dim,
                            &ids,
                            k,
                            seeding,
                            iters,
                            &mut StdRng::seed_from_u64(seed),
                        );
                        let have = poincare_kmeans(
                            &emb,
                            dim,
                            &ids,
                            k,
                            seeding,
                            iters,
                            &mut StdRng::seed_from_u64(seed),
                        );
                        assert_eq!(
                            bits(&have),
                            bits(&want),
                            "threads {threads}, dim {dim}, n {n}, k {k}, {seeding:?}, {iters} iterations"
                        );
                        cases += 1;
                    }
                }
            }
        }
    }
    std::env::remove_var("TAXOREC_THREADS");
    assert_eq!(cases, 2 * 3 * 8 * 9 * 2);
}
