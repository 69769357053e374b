//! Property-based tests of the fused block kernels (`batch` module):
//! the batched Lorentz distance paths must agree with the scalar
//! reference — bit-for-bit on the shared summation order, and to 1e-12
//! in absolute terms — across the full numeric range the trainer
//! produces, including near-origin rows and rows at the radius clip.

use proptest::prelude::*;
use taxorec_geometry::batch::{fused_scores_block, BlockCache, TagChannel};
use taxorec_geometry::{lorentz, vecops};

/// Spatial part of the radius-clip boundary: training clips hyperboloid
/// rows to geodesic distance ≤ ~2.5 from the origin, i.e. spatial norm
/// up to `sinh(2.5) ≈ 6.05`.
const CLIP_SPATIAL_NORM: f64 = 6.05;

/// Strategy: one spatial point drawn from the trainer's numeric range —
/// uniform bulk points, near-origin points (norm ~1e-9), and points
/// sitting exactly on the radius-clip shell.
fn trainer_spatial(d: usize) -> impl Strategy<Value = Vec<f64>> {
    (0usize..3, proptest::collection::vec(-3.0f64..3.0, d)).prop_map(|(kind, bulk)| match kind {
        0 => bulk,
        1 => bulk.iter().map(|x| x * (1e-9 / 3.0)).collect(),
        _ => {
            let n = vecops::norm(&bulk);
            if n < 1e-9 {
                let mut v = vec![0.0; bulk.len()];
                v[0] = CLIP_SPATIAL_NORM;
                v
            } else {
                bulk.iter().map(|x| x / n * CLIP_SPATIAL_NORM).collect()
            }
        }
    })
}

/// Strategy: `rows` hyperboloid points, flattened row-major, covering
/// the same numeric range as [`trainer_spatial`].
fn lorentz_block(rows: usize, d: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(trainer_spatial(d), rows).prop_map(move |pts| {
        let mut flat = Vec::with_capacity(pts.len() * (d + 1));
        for p in &pts {
            flat.extend_from_slice(&lorentz::from_spatial(p));
        }
        flat
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn block_distances_match_scalar(
        anchor in trainer_spatial(6),
        block in lorentz_block(9, 6),
    ) {
        let ambient = 7;
        let rows = block.len() / ambient;
        let anchor = lorentz::from_spatial(&anchor);
        let cache = BlockCache::build(&block, ambient);

        let mut d = vec![0.0; rows];
        cache.distance_block(&anchor, 0, rows, &mut d);
        for i in 0..rows {
            let row = &block[i * ambient..(i + 1) * ambient];
            let sd = lorentz::distance(&anchor, row);
            // Same summation order per element ⇒ bit-identical, which
            // subsumes the 1e-12 tolerance the trainer relies on.
            prop_assert_eq!(d[i].to_bits(), sd.to_bits());
            prop_assert!((d[i] - sd).abs() <= 1e-12);
            prop_assert!(d[i].is_finite() && d[i] >= 0.0);
        }
    }

    #[test]
    fn fused_two_channel_scores_match_scalar(
        u_ir in trainer_spatial(6),
        u_tg in trainer_spatial(3),
        ir_block in lorentz_block(7, 6),
        tg_block in lorentz_block(7, 3),
        alpha in 0.0f64..2.0,
    ) {
        let rows = 7;
        let u_ir = lorentz::from_spatial(&u_ir);
        let u_tg = lorentz::from_spatial(&u_tg);
        let ir_cache = BlockCache::build(&ir_block, 7);
        let tg_cache = BlockCache::build(&tg_block, 4);

        let mut out = vec![0.0; rows];
        let mut scratch = vec![0.0; rows];
        fused_scores_block(
            &ir_cache,
            &u_ir,
            Some(TagChannel { cache: &tg_cache, anchor: &u_tg, alpha }),
            0,
            rows,
            &mut scratch,
            &mut out,
        );
        for i in 0..rows {
            let ir_row = &ir_block[i * 7..(i + 1) * 7];
            let tg_row = &tg_block[i * 4..(i + 1) * 4];
            let mut g = lorentz::distance_sq(&u_ir, ir_row);
            g += alpha * lorentz::distance_sq(&u_tg, tg_row);
            let expected = -g;
            prop_assert_eq!(out[i].to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn sub_block_ranges_match_scalar(
        anchor in trainer_spatial(4),
        block in lorentz_block(11, 4),
        split in 0usize..=11,
    ) {
        let ambient = 5;
        let anchor = lorentz::from_spatial(&anchor);
        let cache = BlockCache::build(&block, ambient);
        let mut lo_part = vec![0.0; split];
        let mut hi_part = vec![0.0; 11 - split];
        cache.distance_block(&anchor, 0, split, &mut lo_part);
        cache.distance_block(&anchor, split, 11, &mut hi_part);
        for (i, &v) in lo_part.iter().chain(hi_part.iter()).enumerate() {
            let row = &block[i * ambient..(i + 1) * ambient];
            prop_assert_eq!(v.to_bits(), lorentz::distance(&anchor, row).to_bits());
        }
    }
}
