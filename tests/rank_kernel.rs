//! Exactness of the production ranking path: `data::Scorer` over the
//! pruned kernel `geometry::batch::fused_rank`.
//!
//! The kernel skips the `arcosh` finisher for items whose interaction
//! term alone already puts them below the current K-th score. That must
//! never show: for ANY block of anchors and ANY catalogue range, ranking
//! through `Scorer::{rank, rank_range}` — the code that ships — has to
//! return exactly what `select_top_k` returns over the unpruned
//! `fused_scores_block` scores — same item ids in the same order (ties →
//! lower id) with `f64::to_bits`-identical scores — and `Scorer::scores`
//! has to equal the scalar `Anchor::score` loop bit for bit. At `k ≥ n`
//! nothing is pruned, so every score a block of anchors sweeps is
//! compared with the same sweep run for its anchor alone.
//! The generated inputs aim at where a pruning rule could go wrong:
//! rows at the origin and on the clip shell (distances near 0 and near
//! the largest the model produces), duplicated rows (exact score ties),
//! `α` of 0 / denormal / huge, `k` of 0 / 1 / n / beyond n, exclusions,
//! multi-anchor blocks, ranges that straddle strip and chunk boundaries,
//! and candidates offered leaf by leaf out of order, the way the
//! retrieval index offers them.
//!
//! Above a size crossover the kernel sweeps an f32 screen of the cache
//! and skips an item only when its f32 value clears the cut by a proven
//! rounding bound. Every test here also ranks through the screened path,
//! forced on whatever catalogue size (`fused_rank_with` takes the sweep
//! as it takes an `Isa`), and a property test aims at the screen's own
//! edges: items within a few f32 ulps of one another and of the cut,
//! anchors and rows at its magnitude bound and just past it, NaN and
//! infinite rows, and `α` of 0, negative or NaN. One case crosses the
//! crossover through `Scorer::rank` itself.
//!
//! `Scorer::build_ordered` stores the catalogue in spatial order with a
//! ball bound per 32-row strip in each channel, and the kernel skips a
//! strip unswept when the interaction bound proves every item in it
//! below each anchor's cut, or both channels' bounds prove every
//! finished score below each anchor's floor. Its rankings are held to
//! the same reference over clustered catalogues, blocks whose anchors
//! need different strips, catalogues where the tag bound is what skips,
//! hostile strips, anchors and weights in either channel, and strips
//! whose bounds are tight to the chain's rounding and at the k-th score.

use std::ops::Range;

use proptest::prelude::*;
use taxorec::data::{
    generate_embeddings, select_top_k, Anchor, EmbedConfig, ItemEmbeddings, Scorer,
    TopKAccumulator, TopKSink,
};
use taxorec::geometry::batch::{
    fused_rank_with, fused_scores_block, spatial_order, BlockCache, RankSink, Sweep, TagChannel,
    TagChannelMulti, SCREEN_BOUND, SCREEN_MIN_BYTES,
};
use taxorec::geometry::convert::poincare_to_lorentz;
use taxorec::geometry::isa::Isa;

const DIM_IR: usize = 3;
const DIM_TG: usize = 2;

/// One generated row: a kind selector and a direction per channel.
type RowSpec = (u32, Vec<f64>, Vec<f64>);

fn row_spec() -> impl Strategy<Value = RowSpec> {
    (
        0u32..10,
        proptest::collection::vec(-1.0f64..1.0, DIM_IR),
        proptest::collection::vec(-1.0f64..1.0, DIM_TG),
    )
}

/// Lifts a direction onto the hyperboloid at the radius `kind` selects:
/// next to the origin, on the clip shell (the ball point lies outside
/// `MAX_BALL_NORM`, so the conversion clips it), or mid-ball.
fn lift(kind: u32, dir: &[f64]) -> Vec<f64> {
    let norm = dir.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
    let scale = match kind {
        0 | 1 => 1e-9,
        2 | 3 => 1.5 / norm,
        _ => 0.55,
    };
    let ball: Vec<f64> = dir.iter().map(|x| x * scale).collect();
    let mut out = vec![0.0; dir.len() + 1];
    poincare_to_lorentz(&ball, &mut out);
    out
}

/// Flat row-major `(ir, tg)` matrices. Row `i > 0` whose `dups` entry
/// starts with 0 copies an earlier row in both channels — an exact tie.
fn matrices(specs: &[RowSpec], dups: &[(u32, usize)]) -> (Vec<f64>, Vec<f64>) {
    let mut rows: Vec<(Vec<f64>, Vec<f64>)> = Vec::with_capacity(specs.len());
    for (i, (kind, ir, tg)) in specs.iter().enumerate() {
        let (dup, source) = dups[i % dups.len()];
        if i > 0 && dup == 0 {
            rows.push(rows[source % i].clone());
        } else {
            rows.push((lift(*kind, ir), lift(*kind, tg)));
        }
    }
    (
        rows.iter().flat_map(|r| r.0.iter().copied()).collect(),
        rows.iter().flat_map(|r| r.1.iter().copied()).collect(),
    )
}

/// The reference: unpruned scores of `lo..hi` for one anchor, then one
/// `select_top_k` pass keyed by item id.
#[allow(clippy::too_many_arguments)]
fn exhaustive(
    ir: &BlockCache,
    tg: Option<&BlockCache>,
    u_ir: &[f64],
    u_tg: &[f64],
    alpha: f64,
    (lo, hi): (usize, usize),
    ids: &[u32],
    k: usize,
    exclude: impl Fn(u32) -> bool,
) -> Vec<(u32, f64)> {
    let mut scores = vec![0.0; hi - lo];
    let mut scratch = vec![0.0; hi - lo];
    let tag = tg.map(|cache| TagChannel {
        cache,
        anchor: u_tg,
        alpha,
    });
    fused_scores_block(ir, u_ir, tag, lo, hi, &mut scratch, &mut scores);
    let mut by_id: Vec<Option<f64>> = vec![None; ids.len()];
    for (slot, &score) in (lo..hi).zip(&scores) {
        by_id[ids[slot] as usize] = Some(score);
    }
    let dense: Vec<f64> = by_id.iter().map(|s| s.unwrap_or(0.0)).collect();
    select_top_k(&dense, k, |id| by_id[id].is_none() || exclude(id as u32))
}

/// The production scorer over the generated matrices.
fn scorer<'a>(v_ir: &'a [f64], v_tg: Option<&'a [f64]>) -> (ItemEmbeddings<'a>, Scorer) {
    let items = ItemEmbeddings {
        v_ir,
        ambient_ir: DIM_IR + 1,
        v_tg,
        ambient_tg: DIM_TG + 1,
    };
    (items, Scorer::build(&items))
}

/// The ordered scorer over the generated matrices.
fn ordered(v_ir: &[f64], v_tg: Option<&[f64]>) -> Scorer {
    Scorer::build_ordered(&ItemEmbeddings {
        v_ir,
        ambient_ir: DIM_IR + 1,
        v_tg,
        ambient_tg: DIM_TG + 1,
    })
}

/// A sink that counts the offers it passes on: how much of the
/// catalogue a pass finished.
struct Counted<S> {
    inner: S,
    offers: usize,
}

impl<S: RankSink> RankSink for Counted<S> {
    fn floor(&self, anchor: usize) -> Option<f64> {
        self.inner.floor(anchor)
    }

    fn offer(&mut self, anchor: usize, slot: usize, score: f64) {
        self.offers += 1;
        self.inner.offer(anchor, slot, score);
    }
}

/// The kernel under `Scorer::rank_range`, through `sweep` whatever the
/// range's size: anchor `a` ranks into `accs[a]`. Returns the offers.
#[allow(clippy::too_many_arguments)]
fn rank_with(
    sweep: Sweep,
    ir: &BlockCache,
    tg: Option<&BlockCache>,
    block: &[Anchor<'_>],
    range: Range<usize>,
    item_ids: Option<&[u32]>,
    accs: &mut [TopKAccumulator],
    exclude: impl Fn(usize, u32) -> bool,
) -> usize {
    let u_irs: Vec<&[f64]> = block.iter().map(|a| a.ir).collect();
    let (u_tgs, alphas): (Vec<&[f64]>, Vec<f64>) =
        block.iter().map(|a| a.tg.unwrap_or((&[], 0.0))).unzip();
    let tag = tg.map(|cache| TagChannelMulti {
        cache,
        anchors: &u_tgs,
        alphas: &alphas,
    });
    let mut sink = Counted {
        inner: TopKSink {
            accs,
            acc_of: None,
            item_ids,
            exclude,
        },
        offers: 0,
    };
    fused_rank_with(Isa::detected(), sweep, ir, &u_irs, tag, range, &mut sink);
    sink.offers
}

/// [`rank_with`] through the screen, over the whole of `range` in one
/// call, best first per anchor.
fn screened(
    ir: &BlockCache,
    tg: Option<&BlockCache>,
    block: &[Anchor<'_>],
    range: Range<usize>,
    k: usize,
    exclude: impl Fn(usize, u32) -> bool,
) -> Vec<Vec<(u32, f64)>> {
    let mut accs: Vec<TopKAccumulator> = block.iter().map(|_| TopKAccumulator::new(k)).collect();
    rank_with(
        Sweep::Screened,
        ir,
        tg,
        block,
        range,
        None,
        &mut accs,
        exclude,
    );
    accs.into_iter().map(TopKAccumulator::into_sorted).collect()
}

/// The ordered catalogue as bare kernel caches — rows in
/// `spatial_order`, the interaction cache with strip bounds, the tag
/// cache with and without them — ranked over `range` through each
/// sweep, the screen forced whatever the size, with the order as the
/// row → item map: the strip skip meets the screen's per-item rule and a
/// range cut with no regard for strips. Each anchor must get the
/// unpruned reference over the same rows.
fn check_bounded_kernel(
    (v_ir, ambient_ir): (&[f64], usize),
    v_tg: Option<(&[f64], usize)>,
    block: &[Anchor<'_>],
    ks: &[usize],
    range: Range<usize>,
    exclude: &dyn Fn(usize, u32) -> bool,
) -> Result<(), String> {
    let order = spatial_order(v_ir, ambient_ir);
    let ir = BlockCache::build_permuted(v_ir, ambient_ir, &order);
    let tg = v_tg.map(|(data, ambient)| BlockCache::build_permuted(data, ambient, &order));
    let bounded = ir.clone().with_strip_bounds();
    let tag_bounded = tg.clone().map(BlockCache::with_strip_bounds);
    let runs = [Sweep::Screened, Sweep::Exact]
        .into_iter()
        .flat_map(|sweep| {
            [
                (sweep, tg.as_ref(), false),
                (sweep, tag_bounded.as_ref(), true),
            ]
        });
    for (sweep, tag, tag_bounds) in runs {
        let n = order.len();
        let mut accs: Vec<TopKAccumulator> =
            ks.iter().map(|&k| TopKAccumulator::new(k.min(n))).collect();
        rank_with(
            sweep,
            &bounded,
            tag,
            block,
            range.clone(),
            Some(&order),
            &mut accs,
            exclude,
        );
        for (pos, acc) in accs.into_iter().enumerate() {
            let (u_tg, alpha) = block[pos].tg.unwrap_or((&[], 0.0));
            let want = exhaustive(
                &ir,
                tg.as_ref(),
                block[pos].ir,
                u_tg,
                alpha,
                (range.start, range.end),
                &order,
                ks[pos],
                |item| exclude(pos, item),
            );
            let what = format!(
                "{sweep:?} bounded kernel, tag bounds {tag_bounds}, anchor {pos}, rows {range:?}"
            );
            assert_same(&acc.into_sorted(), &want, &what)?;
        }
    }
    Ok(())
}

fn assert_same(got: &[(u32, f64)], want: &[(u32, f64)], what: &str) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{what}: {} items, want {}", got.len(), want.len()));
    }
    for (rank, (g, w)) in got.iter().zip(want).enumerate() {
        if g.0 != w.0 || g.1.to_bits() != w.1.to_bits() {
            return Err(format!("{what}: rank {rank} is {g:?}, want {w:?}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pruned_ranking_equals_select_top_k_over_unpruned_scores(
        specs in proptest::collection::vec(row_spec(), 40..1400),
        dups in proptest::collection::vec((0u32..6, 0usize..10_000), 1..64),
        anchors in proptest::collection::vec((row_spec(), 0usize..5), 1..7),
        with_tag in 0u32..4,
        k_choice in 0usize..6,
        range in (0usize..10_000, 0usize..10_000),
        stride in 1usize..7,
        cuts in proptest::collection::vec(0usize..10_000, 0..6),
        order in 0u32..3,
        reverse_ids in 0u32..2,
    ) {
        let n = specs.len();
        let (v_ir, v_tg) = matrices(&specs, &dups);
        let ir = BlockCache::build(&v_ir, DIM_IR + 1);
        let tg_cache = BlockCache::build(&v_tg, DIM_TG + 1);
        let tg = (with_tag > 0).then_some(&tg_cache);
        let (items, scorer) = scorer(&v_ir, tg.map(|_| v_tg.as_slice()));

        let alphas_of = [0.0, f64::MIN_POSITIVE, 1e-9, 0.5, 1e6];
        let u_ir: Vec<Vec<f64>> = anchors.iter().map(|((kind, d, _), _)| lift(*kind, d)).collect();
        let u_tg: Vec<Vec<f64>> = anchors.iter().map(|((kind, _, d), _)| lift(*kind, d)).collect();
        let alphas: Vec<f64> = anchors.iter().map(|&(_, a)| alphas_of[a]).collect();
        let block: Vec<Anchor<'_>> = (0..anchors.len())
            .map(|a| Anchor { ir: &u_ir[a], tg: tg.map(|_| (u_tg[a].as_slice(), alphas[a])) })
            .collect();

        // A sub-range with no regard for STRIP or FUSED_ITEM_CHUNK.
        let lo = range.0 % n;
        let hi = lo + range.1 % (n - lo + 1);
        let k = [0, 1, 10, n, n + 7, hi - lo][k_choice];
        let ids: Vec<u32> = if reverse_ids == 1 {
            (0..n as u32).rev().collect()
        } else {
            (0..n as u32).collect()
        };
        let exclude = |pos: usize, item: u32| stride > 1 && (item as usize + pos).is_multiple_of(stride);

        // Leaves: the range cut at generated points, offered in routing
        // order — ascending, descending, or evens before odds.
        let mut bounds: Vec<usize> = cuts.iter().map(|c| lo + c % (hi - lo + 1)).collect();
        bounds.extend([lo, hi]);
        bounds.sort_unstable();
        let mut leaves: Vec<(usize, usize)> = bounds.windows(2).map(|w| (w[0], w[1])).collect();
        match order {
            1 => leaves.reverse(),
            2 => {
                let (even, odd): (Vec<_>, Vec<_>) =
                    leaves.iter().enumerate().partition(|(i, _)| i % 2 == 0);
                leaves = even.into_iter().chain(odd).map(|(_, &l)| l).collect();
            }
            _ => {}
        }

        // The scorer whose row `slot` is item `ids[slot]`: the generated
        // row `slot` relabelled as that item.
        let relabel = |data: &[f64], ambient: usize| -> Vec<f64> {
            let mut out = vec![0.0; data.len()];
            for (slot, &item) in ids.iter().enumerate() {
                let at = item as usize * ambient;
                out[at..at + ambient].copy_from_slice(&data[slot * ambient..(slot + 1) * ambient]);
            }
            out
        };
        let (rel_ir, rel_tg) = (relabel(&v_ir, DIM_IR + 1), relabel(&v_tg, DIM_TG + 1));
        let labelled = Scorer::build_permuted(
            &ItemEmbeddings { v_tg: tg.map(|_| rel_tg.as_slice()), v_ir: &rel_ir, ..items },
            ids.clone(),
        );
        let mut accs: Vec<TopKAccumulator> =
            block.iter().map(|_| scorer.accumulator(k)).collect();
        // The same leaves through the screen, which the scorer only takes
        // above the crossover.
        let mut screened_accs: Vec<TopKAccumulator> =
            block.iter().map(|_| scorer.accumulator(k)).collect();
        for &(leaf_lo, leaf_hi) in &leaves {
            labelled.rank_range(&block, leaf_lo..leaf_hi, &mut accs, None, exclude);
            rank_with(
                Sweep::Screened, &ir, tg, &block, leaf_lo..leaf_hi, Some(&ids),
                &mut screened_accs, exclude,
            );
        }
        // The whole catalogue in one call, rows as their own ids.
        let whole = scorer.rank(&block, &vec![k; block.len()], exclude);
        let whole_screened = screened(&ir, tg, &block, 0..n, k.min(n), exclude);
        let own_ids: Vec<u32> = (0..n as u32).collect();
        let mut row = vec![0.0; n];
        for (pos, (acc, screened_acc)) in accs.into_iter().zip(screened_accs).enumerate() {
            let want = exhaustive(
                &ir, tg, &u_ir[pos], &u_tg[pos], alphas[pos], (lo, hi), &ids, k,
                |item| exclude(pos, item),
            );
            if let Err(e) = assert_same(&acc.into_sorted(), &want, &format!("anchor {pos}")) {
                prop_assert!(false, "{e} (n {n}, range {lo}..{hi}, k {k}, alpha {})", alphas[pos]);
            }
            let what = format!("screened, anchor {pos}");
            if let Err(e) = assert_same(&screened_acc.into_sorted(), &want, &what) {
                prop_assert!(false, "{e} (n {n}, range {lo}..{hi}, k {k}, alpha {})", alphas[pos]);
            }
            let want = exhaustive(
                &ir, tg, &u_ir[pos], &u_tg[pos], alphas[pos], (0, n), &own_ids, k,
                |item| exclude(pos, item),
            );
            if let Err(e) = assert_same(&whole[pos], &want, &format!("rank, anchor {pos}")) {
                prop_assert!(false, "{e} (n {n}, k {k}, alpha {})", alphas[pos]);
            }
            let what = format!("screened rank, anchor {pos}");
            if let Err(e) = assert_same(&whole_screened[pos], &want, &what) {
                prop_assert!(false, "{e} (n {n}, k {k}, alpha {})", alphas[pos]);
            }
            // Full score rows: the fused row is the scalar Eq. 17 loop.
            scorer.scores(&block[pos], &mut row);
            for (i, fused) in row.iter().enumerate() {
                let scalar = block[pos].score(items.row(i));
                prop_assert!(fused.to_bits() == scalar.to_bits(), "score row: anchor {pos} item {i}");
            }
        }
    }
}

/// Rows in a few tight clusters around generated centres, so an ordered
/// cache's strips are small balls and most of them are far from any one
/// anchor: the strip skip runs on nearly every strip.
fn clustered(centres: &[RowSpec], n: usize, spread: f64) -> Vec<RowSpec> {
    (0..n)
        .map(|i| {
            let (kind, ir, tg) = &centres[i % centres.len()];
            let wiggle = |d: &[f64], salt: usize| -> Vec<f64> {
                let t = (i * 7 + salt) as f64;
                d.iter()
                    .enumerate()
                    .map(|(j, x)| x + spread * (t * (0.7 + j as f64)).sin())
                    .collect()
            };
            (*kind, wiggle(ir, 0), wiggle(tg, 3))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The ordered scorer ranks as `select_top_k` over the unpruned
    /// scores, ids and bits: clustered catalogues with rows next to the
    /// origin and on the clip shell, `k` of 0, 1, 10, n and past n per
    /// anchor, exclusions, and blocks of 1 to 6 anchors in different
    /// clusters, whose bounds keep different strips.
    #[test]
    fn the_ordered_scorer_ranks_as_select_top_k_over_unpruned_scores(
        centres in proptest::collection::vec(row_spec(), 1..9),
        n in 40usize..1500,
        spread in 0.0f64..0.05,
        anchors in proptest::collection::vec((row_spec(), 0usize..5, 0usize..5), 1..7),
        with_tag in 0u32..3,
        stride in 1usize..7,
        range in (0usize..10_000, 0usize..10_000),
    ) {
        let (v_ir, v_tg) = matrices(&clustered(&centres, n, spread), &[(1, 0)]);
        let ir = BlockCache::build(&v_ir, DIM_IR + 1);
        let tg_cache = BlockCache::build(&v_tg, DIM_TG + 1);
        let tg = (with_tag > 0).then_some(&tg_cache);
        let spatial = ordered(&v_ir, tg.map(|_| v_tg.as_slice()));

        let alphas_of = [0.0, f64::MIN_POSITIVE, 1e-9, 0.5, 1e6];
        let u_ir: Vec<Vec<f64>> = anchors.iter().map(|((kind, d, _), _, _)| lift(*kind, d)).collect();
        let u_tg: Vec<Vec<f64>> = anchors.iter().map(|((kind, _, d), _, _)| lift(*kind, d)).collect();
        let alphas: Vec<f64> = anchors.iter().map(|&(_, a, _)| alphas_of[a]).collect();
        let ks: Vec<usize> = anchors.iter().map(|&(_, _, k)| [0, 1, 10, n, n + 7][k]).collect();
        let block: Vec<Anchor<'_>> = (0..anchors.len())
            .map(|a| Anchor { ir: &u_ir[a], tg: tg.map(|_| (u_tg[a].as_slice(), alphas[a])) })
            .collect();
        let exclude = |pos: usize, item: u32| stride > 1 && (item as usize + pos).is_multiple_of(stride);
        let ids: Vec<u32> = (0..n as u32).collect();
        let got = spatial.rank(&block, &ks, exclude);
        for (pos, got) in got.iter().enumerate() {
            let want = exhaustive(
                &ir, tg, &u_ir[pos], &u_tg[pos], alphas[pos], (0, n), &ids, ks[pos],
                |item| exclude(pos, item),
            );
            if let Err(e) = assert_same(got, &want, &format!("anchor {pos}")) {
                prop_assert!(false, "{e} (n {n}, k {}, alpha {})", ks[pos], alphas[pos]);
            }
            // Alone, where no other anchor keeps a strip swept.
            let alone = spatial.rank(&block[pos..=pos], &ks[pos..=pos], |_, item| exclude(pos, item));
            if let Err(e) = assert_same(&alone[0], &want, &format!("anchor {pos} alone")) {
                prop_assert!(false, "{e} (n {n}, k {}, alpha {})", ks[pos], alphas[pos]);
            }
        }
        // The bare kernel over the whole catalogue and over a sub-range
        // with no regard for STRIP.
        let lo = range.0 % n;
        let hi = lo + range.1 % (n - lo + 1);
        for rows in [0..n, lo..hi] {
            let tg_rows = tg.map(|_| (v_tg.as_slice(), DIM_TG + 1));
            if let Err(e) = check_bounded_kernel(
                (&v_ir, DIM_IR + 1), tg_rows, &block, &ks, rows, &exclude,
            ) {
                prop_assert!(false, "{e} (n {n}, ks {ks:?}, alphas {alphas:?})");
            }
        }
        // Full score rows come back by item, not by cache row.
        let (items, plain) = scorer(&v_ir, tg.map(|_| v_tg.as_slice()));
        let (mut row, mut want) = (vec![0.0; n], vec![0.0; n]);
        spatial.scores(&block[0], &mut row);
        plain.scores(&block[0], &mut want);
        for i in 0..n {
            prop_assert!(row[i].to_bits() == want[i].to_bits(), "score row: item {i}");
            prop_assert!(row[i].to_bits() == block[0].score(items.row(i)).to_bits(), "item {i}");
        }
    }
}

/// Strips the bound cannot vouch for, in an ordered catalogue: a NaN row
/// (which `arcosh` ranks at distance 0, the best score), an infinite
/// row, and 40 rows off the hyperboloid whose sum is not timelike, so
/// the mean of their strip does not normalise; and anchors whose `α` is
/// negative or NaN beside clean ones. Each ranks as the unpruned path —
/// and so it does once an infinite tag row makes every anchor's tag
/// inner products unprovable, when no strip may be skipped on its
/// interaction bound: against `α = 0` that row scores `0·∞`, a NaN that
/// `total_cmp` ranks first.
#[test]
fn hostile_strips_and_alphas_rank_through_the_ordered_scorer_as_the_unpruned_path() {
    let n = 900;
    let centres: Vec<RowSpec> = (0..6)
        .map(|c| {
            let t = c as f64;
            (
                c as u32 % 10,
                vec![(t * 1.3).sin(), (t * 0.7).cos(), (t * 2.1).sin()],
                vec![(t * 0.9).cos(), (t * 1.7).sin()],
            )
        })
        .collect();
    let (mut v_ir, v_tg) = matrices(&clustered(&centres, n, 0.02), &[(1, 0)]);
    let a = DIM_IR + 1;
    v_ir[100 * a + 2] = f64::NAN;
    v_ir[300 * a] = f64::INFINITY;
    v_ir[500 * a + 1] = f64::NEG_INFINITY;
    for i in 700..740 {
        let row = &mut v_ir[i * a..(i + 1) * a];
        row.copy_from_slice(&[0.0, 1.0 + i as f64, -0.5, 0.25]);
    }
    let mut inf_tg = v_tg.clone();
    inf_tg[800 * (DIM_TG + 1)] = f64::INFINITY;
    let ir = BlockCache::build(&v_ir, a);
    let u_ir: Vec<Vec<f64>> = centres.iter().map(|(kind, d, _)| lift(*kind, d)).collect();
    let u_tg = lift(5, &[-0.4, 0.1]);
    let alphas = [0.5, -0.5, f64::NAN, 0.0, 1e6, f64::INFINITY];
    let block: Vec<Anchor<'_>> = u_ir
        .iter()
        .zip(alphas)
        .map(|(ir, alpha)| Anchor {
            ir,
            tg: Some((&u_tg, alpha)),
        })
        .collect();
    let ids: Vec<u32> = (0..n as u32).collect();
    for v_tg in [&v_tg, &inf_tg] {
        let tg = BlockCache::build(v_tg, DIM_TG + 1);
        let scorer = ordered(&v_ir, Some(v_tg));
        for k in [1, 10, 50] {
            let got = scorer.rank(&block, &vec![k; block.len()], |_, _| false);
            for (pos, alpha) in alphas.iter().enumerate() {
                let want = exhaustive(
                    &ir,
                    Some(&tg),
                    &u_ir[pos],
                    &u_tg,
                    *alpha,
                    (0, n),
                    &ids,
                    k,
                    |_| false,
                );
                assert_same(&got[pos], &want, &format!("anchor {pos} k {k}")).unwrap();
                let alone = scorer.rank(&block[pos..=pos], &[k], |_, _| false);
                assert_same(&alone[0], &want, &format!("anchor {pos} alone, k {k}")).unwrap();
            }
            let ks = vec![k; block.len()];
            for rows in [0..n, 37..871] {
                let tg_rows = Some((v_tg.as_slice(), DIM_TG + 1));
                check_bounded_kernel((&v_ir, a), tg_rows, &block, &ks, rows, &|_, _| false)
                    .unwrap();
            }
        }
    }
}

/// The item chain's rounding term of the strip bound carries weight
/// through the ordered scorer too. Anchor and rows sit about 12 from the
/// origin on one geodesic, where an inner product cancels two terms near
/// 10¹⁰ and is computed on a grid of about 10⁻⁶: item 0's value lies
/// 1.6·10⁻⁶ below its exact one and ties items 32–63, so item 0 is the
/// top-1 by id. The order puts item 0 in a strip with 31 rows 1 nearer
/// the origin, whose bound is tight at item 0; the strip of items 32–63,
/// nearer the anchor, is ranked first and sets the cut. Without the
/// `γ′·P` term the bound would clear that cut and the top-1 would be
/// item 32.
#[test]
fn the_chain_term_keeps_a_near_cut_strip_of_the_ordered_scorer() {
    let lift1 = |s: f64| taxorec::geometry::lorentz::from_spatial(&[s]);
    let anchor = lift1(101670.47158367405);
    let mut rows = vec![lift1(96190.79274743576)];
    rows.extend(vec![lift1(35318.38538583754); 31]);
    rows.extend(vec![lift1(107459.1193088258); 32]);
    let v_ir: Vec<f64> = rows.concat();
    let items = ItemEmbeddings {
        v_ir: &v_ir,
        ambient_ir: 2,
        v_tg: None,
        ambient_tg: 0,
    };
    let block = [Anchor {
        ir: &anchor,
        tg: None,
    }];
    let want = Scorer::build(&items).rank(&block, &[1], |_, _| false);
    assert_eq!(want[0][0].0, 0, "item 0 is the top-1");
    let got = Scorer::build_ordered(&items).rank(&block, &[1], |_, _| false);
    assert_same(&got[0], &want[0], "ordered").unwrap();
}

/// Eight tight clusters on a short line in the interaction channel and
/// around a circle in the tag channel. Against [`FAR_END_IR`] and
/// [`FIRST_TAG`] — cluster 0 the farthest in the interaction channel and
/// the nearest in the tag channel — with a large weight, cluster 0 holds
/// the top `k`: every other strip is nearer in the interaction channel,
/// so its bound proves nothing there, and far in the tag channel, so the
/// tag bound proves it out.
fn near_in_ir_far_in_tag(n: usize) -> (Vec<f64>, Vec<f64>) {
    let centres: Vec<RowSpec> = (0..8)
        .map(|c| {
            let turn = std::f64::consts::TAU * c as f64 / 8.0;
            (
                5,
                vec![0.3 + 0.03 * c as f64, 0.1, -0.2],
                vec![turn.cos(), turn.sin()],
            )
        })
        .collect();
    matrices(&clustered(&centres, n, 0.005), &[(1, 0)])
}

/// The interaction anchor of [`near_in_ir_far_in_tag`]: past the line's
/// far end from cluster 0.
const FAR_END_IR: [f64; 3] = [0.9, 0.1, -0.2];
/// The tag anchor of [`near_in_ir_far_in_tag`], beside cluster 0's.
const FIRST_TAG: [f64; 2] = [1.0, 0.05];

/// The tag bound is what skips: over [`near_in_ir_far_in_tag`] the
/// ordered caches with tag bounds finish a small share of the rows that
/// the same caches without them finish, and both rank as the unpruned
/// path, as `Scorer::build_ordered` does.
#[test]
fn the_tag_bound_skips_strips_the_interaction_bound_keeps() {
    let n = 1500;
    let (v_ir, v_tg) = near_in_ir_far_in_tag(n);
    let (u_ir, u_tg) = (lift(5, &FAR_END_IR), lift(5, &FIRST_TAG));
    let block = [Anchor {
        ir: &u_ir,
        tg: Some((&u_tg, 50.0)),
    }];
    let order = spatial_order(&v_ir, DIM_IR + 1);
    let ir = BlockCache::build_permuted(&v_ir, DIM_IR + 1, &order).with_strip_bounds();
    let tg = BlockCache::build_permuted(&v_tg, DIM_TG + 1, &order);
    let tag_bounded = tg.clone().with_strip_bounds();
    let ids: Vec<u32> = (0..n as u32).collect();
    let plain = (
        BlockCache::build(&v_ir, DIM_IR + 1),
        BlockCache::build(&v_tg, DIM_TG + 1),
    );
    let want = exhaustive(
        &plain.0,
        Some(&plain.1),
        &u_ir,
        &u_tg,
        50.0,
        (0, n),
        &ids,
        10,
        |_| false,
    );
    let mut offers = [0; 2];
    for (i, tag) in [&tg, &tag_bounded].into_iter().enumerate() {
        for sweep in [Sweep::Exact, Sweep::Screened] {
            let mut accs = vec![TopKAccumulator::new(10)];
            let offered = rank_with(
                sweep,
                &ir,
                Some(tag),
                &block,
                0..n,
                Some(&order),
                &mut accs,
                |_, _| false,
            );
            let what = format!("{sweep:?}, tag bounds {}", i == 1);
            assert_same(&accs.pop().unwrap().into_sorted(), &want, &what).unwrap();
            offers[i] = offered;
        }
    }
    let [without, with] = offers;
    assert!(
        without > n / 2,
        "the interaction bound alone finished {without} of {n} rows"
    );
    assert!(
        4 * with < without,
        "with tag bounds {with} offers, without {without}"
    );
    let items = ItemEmbeddings {
        v_ir: &v_ir,
        ambient_ir: DIM_IR + 1,
        v_tg: Some(&v_tg),
        ambient_tg: DIM_TG + 1,
    };
    let got = Scorer::build_ordered(&items).rank(&block, &[10], |_, _| false);
    assert_same(&got[0], &want, "ordered scorer").unwrap();
}

/// Tag strips and anchors the tag bound cannot vouch for, over
/// [`near_in_ir_far_in_tag`], where it skips most strips: a NaN, an
/// infinite and a past-`2⁵⁰⁰` tag row; tag anchors off the forward
/// sheet, past `2⁵⁰⁰` and NaN; and `α` of 0, denormal, huge, negative and
/// NaN beside ordinary anchors in one block. The block, each anchor
/// alone, and the bare kernel over a range cut across strips rank as
/// the unpruned path. (Against `α = 0` an infinite tag row scores
/// `0·∞`, a NaN that ranks first.)
#[test]
fn hostile_tag_strips_anchors_and_alphas_rank_through_the_ordered_scorer_as_the_unpruned_path() {
    let n = 1100;
    let (v_ir, clean_tg) = near_in_ir_far_in_tag(n);
    let at = DIM_TG + 1;
    let hostile_row = |row: usize, dim: usize, v: f64| {
        let mut tg = clean_tg.clone();
        tg[row * at + dim] = v;
        tg
    };
    let catalogues = [
        clean_tg.clone(),
        hostile_row(913, 1, f64::NAN),
        hostile_row(640, 0, f64::INFINITY),
        hostile_row(777, 2, 1e300),
    ];
    let u_ir = lift(5, &FAR_END_IR);
    let near_tg = lift(5, &FIRST_TAG);
    let mut off_sheet = near_tg.clone();
    off_sheet[0] = -off_sheet[0];
    let past = vec![1e300, 1e300, -1e300];
    let nan_tg = vec![f64::NAN, 0.5, 0.5];
    let cases: [(&[f64], f64); 10] = [
        (&near_tg, 50.0),
        (&near_tg, 0.0),
        (&near_tg, 5e-324),
        (&near_tg, 1e300),
        (&near_tg, -0.5),
        (&near_tg, f64::NAN),
        (&off_sheet, 50.0),
        (&past, 50.0),
        (&nan_tg, 50.0),
        (&near_tg, 3.0),
    ];
    let block: Vec<Anchor<'_>> = cases
        .iter()
        .map(|&(tg, alpha)| Anchor {
            ir: &u_ir,
            tg: Some((tg, alpha)),
        })
        .collect();
    let ids: Vec<u32> = (0..n as u32).collect();
    let ir = BlockCache::build(&v_ir, DIM_IR + 1);
    for v_tg in &catalogues {
        let tg = BlockCache::build(v_tg, at);
        let scorer = ordered(&v_ir, Some(v_tg));
        for k in [1, 10, 40] {
            let ks = vec![k; block.len()];
            let got = scorer.rank(&block, &ks, |_, _| false);
            for (pos, &(u_tg, alpha)) in cases.iter().enumerate() {
                let want = exhaustive(&ir, Some(&tg), &u_ir, u_tg, alpha, (0, n), &ids, k, |_| {
                    false
                });
                assert_same(&got[pos], &want, &format!("case {pos} k {k}")).unwrap();
                let alone = scorer.rank(&block[pos..=pos], &[k], |_, _| false);
                assert_same(&alone[0], &want, &format!("case {pos} alone, k {k}")).unwrap();
            }
            // Ordinary anchors with each hostile one, two at a time.
            for pos in 1..block.len() - 1 {
                let pair = [block[0], block[pos]];
                let got = scorer.rank(&pair, &[k, k], |_, _| false);
                let want = exhaustive(
                    &ir,
                    Some(&tg),
                    &u_ir,
                    &near_tg,
                    50.0,
                    (0, n),
                    &ids,
                    k,
                    |_| false,
                );
                assert_same(
                    &got[0],
                    &want,
                    &format!("ordinary beside case {pos}, k {k}"),
                )
                .unwrap();
            }
            let tg_rows = Some((v_tg.as_slice(), at));
            for rows in [0..n, 45..1011] {
                check_bounded_kernel((&v_ir, DIM_IR + 1), tg_rows, &block, &ks, rows, &|_, _| {
                    false
                })
                .unwrap();
            }
        }
    }
}

/// A strip whose two-channel bound is tight at the `k`-th score. On one
/// geodesic per channel, with both anchors at the origin: item 32's
/// strip holds it and 31 rows nearer the anchors in both channels, so it
/// is ranked first and, at `k = 32`, sets the floor at item 32's score.
/// Item 0 ties it exactly — its interaction row mirrors item 32's
/// through the origin, its tag row is item 32's — and wins the tie by
/// id. Its strip's other 31 rows lie farther out on the same side in
/// both channels, so each ball is tight at item 0: the two bounds
/// together fall short of item 0's finished score by about `10⁻¹³` of
/// it. Neither channel's bound skips the strip alone, and an estimate
/// of `arcosh(x)²` from above — the upper bracket `2(x−1)`, which
/// exceeds it here by about 1 % — would clear the floor and lose item 0.
#[test]
fn a_strip_whose_two_channel_bound_is_tight_at_the_kth_score_is_kept() {
    let point = |v: f64| taxorec::geometry::lorentz::from_spatial(&[v]);
    let (ir_rows, tg_rows): (Vec<Vec<f64>>, Vec<Vec<f64>>) = (0..64)
        .map(|i| match i {
            0 => (point(-0.3), point(0.6)),
            1..=31 => (
                point(-0.6 - 0.001 * i as f64),
                point(0.9 + 0.001 * i as f64),
            ),
            32 => (point(0.3), point(0.6)),
            _ => (
                point(0.15 + 0.001 * i as f64),
                point(0.3 + 0.001 * i as f64),
            ),
        })
        .unzip();
    let (v_ir, v_tg) = (ir_rows.concat(), tg_rows.concat());
    let items = ItemEmbeddings {
        v_ir: &v_ir,
        ambient_ir: 2,
        v_tg: Some(&v_tg),
        ambient_tg: 2,
    };
    let origin = point(0.0);
    let block = [Anchor {
        ir: &origin,
        tg: Some((&origin, 0.8)),
    }];
    let want = Scorer::build(&items).rank(&block, &[32], |_, _| false);
    let last = want[0].last().copied().expect("32 items");
    assert_eq!(last.0, 0, "item 0 wins the tie at the 32nd place");
    let tie = block[0].score(items.row(32));
    assert_eq!(last.1.to_bits(), tie.to_bits(), "item 0 ties item 32");
    let got = Scorer::build_ordered(&items).rank(&block, &[32], |_, _| false);
    assert_same(&got[0], &want[0], "ordered").unwrap();
}

/// Checkpoints are outside input: nothing stops an artifact from carrying
/// a negative or non-finite `α`, or NaN / infinite embedding rows. The
/// pruning rule is only sound for `α ∈ [0, ∞)` and ordered compares, so
/// each of these must fall back to scoring everything — and still rank
/// exactly as the unpruned path does (where a NaN inner product clamps
/// to distance 0, the *best* score, and `0·∞` poisons a score to NaN).
#[test]
fn hostile_alphas_and_nan_rows_rank_as_the_unpruned_path() {
    let n = 700;
    let specs: Vec<RowSpec> = (0..n)
        .map(|i| {
            let t = i as f64;
            (
                (i % 10) as u32,
                vec![(t * 0.37).sin(), (t * 0.11).cos(), (t * 0.05).sin()],
                vec![(t * 0.23).cos(), (t * 0.07).sin()],
            )
        })
        .collect();
    let (mut v_ir, mut v_tg) = matrices(&specs, &[(1, 0)]);
    // Late rows, so the accumulators are full and pruning long before.
    v_ir[650 * (DIM_IR + 1) + 1] = f64::NAN;
    v_tg[660 * (DIM_TG + 1)] = f64::INFINITY;
    v_tg[670 * (DIM_TG + 1) + 1] = f64::NAN;
    let ir = BlockCache::build(&v_ir, DIM_IR + 1);
    let tg = BlockCache::build(&v_tg, DIM_TG + 1);

    let plain_ir = lift(5, &[0.3, -0.2, 0.5]);
    let plain_tg = lift(5, &[-0.4, 0.1]);
    let mut nan_ir = plain_ir.clone();
    nan_ir[2] = f64::NAN;
    // (α, ir anchor): hostile weights on a clean anchor, then a NaN
    // anchor row, then the two weights whose tag term can turn NaN.
    let cases: [(f64, &[f64]); 7] = [
        (-0.5, &plain_ir),
        (f64::NAN, &plain_ir),
        (f64::INFINITY, &plain_ir),
        (f64::NEG_INFINITY, &plain_ir),
        (0.5, &nan_ir),
        (0.0, &plain_ir),
        (1e300, &plain_ir),
    ];
    let (_, scorer) = scorer(&v_ir, Some(&v_tg));
    let block: Vec<Anchor<'_>> = cases
        .iter()
        .map(|&(alpha, ir)| Anchor {
            ir,
            tg: Some((&plain_tg, alpha)),
        })
        .collect();
    let ids: Vec<u32> = (0..n as u32).collect();
    for k in [1, 10] {
        let got = scorer.rank(&block, &vec![k; block.len()], |_, _| false);
        let got_screened = screened(&ir, Some(&tg), &block, 0..n, k, |_, _| false);
        for (pos, (alpha, u_ir)) in cases.iter().enumerate() {
            let want = exhaustive(
                &ir,
                Some(&tg),
                u_ir,
                &plain_tg,
                *alpha,
                (0, n),
                &ids,
                k,
                |_| false,
            );
            assert_same(&got[pos], &want, &format!("case {pos} k {k}")).unwrap();
            let what = format!("screened case {pos} k {k}");
            assert_same(&got_screened[pos], &want, &what).unwrap();
            // Alone in its block, so no hostile neighbour decides the sweep.
            let alone = screened(&ir, Some(&tg), &block[pos..=pos], 0..n, k, |_, _| false);
            assert_same(&alone[0], &want, &format!("{what} alone")).unwrap();
        }
    }
}

/// Finite coordinates past the kernel's magnitude bound: `1e300` in late
/// item rows and in one anchor, whose `−1e308` coordinate also overflows
/// against clip-shell rows. Tag inner products reach `±∞`, and `0·∞`
/// turns a score NaN. The kernel computes a tag inner product ahead of
/// the prune only when the cache or the anchor is out of bounds, so the
/// out-of-bounds catalogue and the in-bounds one (against that anchor)
/// must both rank as the unpruned path does.
#[test]
fn tag_rows_and_anchors_past_the_bound_rank_as_the_unpruned_path() {
    let n = 700;
    let specs: Vec<RowSpec> = (0..n)
        .map(|i| {
            let t = i as f64;
            (
                (i % 10) as u32,
                vec![(t * 0.29).cos(), (t * 0.13).sin(), (t * 0.03).cos()],
                vec![(t * 0.17).sin(), (t * 0.09).cos()],
            )
        })
        .collect();
    let (v_ir, clean_tg) = matrices(&specs, &[(1, 0)]);
    let mut big_tg = clean_tg.clone();
    // Late rows, so the accumulators are full and pruning long before.
    for (row, dim) in [(655, 0), (665, 1), (675, 2)] {
        big_tg[row * (DIM_TG + 1) + dim] = 1e300;
    }
    let ir = BlockCache::build(&v_ir, DIM_IR + 1);
    let u_ir = lift(5, &[-0.2, 0.4, 0.1]);
    let plain_tg = lift(5, &[0.3, -0.6]);
    let big_anchor = vec![1e300, -1e308, 1e300];
    let cases: [(f64, &[f64]); 5] = [
        (0.5, &plain_tg),
        (0.0, &plain_tg),
        (0.5, &big_anchor),
        (0.0, &big_anchor),
        (1e300, &big_anchor),
    ];
    let ids: Vec<u32> = (0..n as u32).collect();
    for v_tg in [&clean_tg, &big_tg] {
        let tg = BlockCache::build(v_tg, DIM_TG + 1);
        let (_, scorer) = scorer(&v_ir, Some(v_tg));
        let block: Vec<Anchor<'_>> = cases
            .iter()
            .map(|&(alpha, u_tg)| Anchor {
                ir: &u_ir,
                tg: Some((u_tg, alpha)),
            })
            .collect();
        for k in [1, 10] {
            let got = scorer.rank(&block, &vec![k; block.len()], |_, _| false);
            let got_screened = screened(&ir, Some(&tg), &block, 0..n, k, |_, _| false);
            for (pos, &(alpha, u_tg)) in cases.iter().enumerate() {
                let want = exhaustive(&ir, Some(&tg), &u_ir, u_tg, alpha, (0, n), &ids, k, |_| {
                    false
                });
                let what = format!("case {pos} k {k} bounded rows {}", v_tg == &clean_tg);
                assert_same(&got[pos], &want, &what).unwrap();
                assert_same(&got_screened[pos], &want, &format!("screened {what}")).unwrap();
                let alone = screened(&ir, Some(&tg), &block[pos..=pos], 0..n, k, |_, _| false);
                assert_same(&alone[0], &want, &format!("screened {what} alone")).unwrap();
            }
        }
    }
}

/// `k = 0` keeps nothing, so the anchor is left out of the sweep: its
/// exclusion is never consulted, while its block neighbours rank as usual.
#[test]
fn a_k_of_zero_sweeps_nothing() {
    let specs: Vec<RowSpec> = (0..1000)
        .map(|i| {
            let t = i as f64;
            (
                5,
                vec![t.sin(), t.cos(), (t * 0.5).sin()],
                vec![(t * 0.7).cos(), t.sin()],
            )
        })
        .collect();
    let (v_ir, v_tg) = matrices(&specs, &[(1, 0)]);
    let (_, scorer) = scorer(&v_ir, Some(&v_tg));
    let (u_ir, u_tg) = (lift(5, &[0.1, 0.2, 0.3]), lift(5, &[0.2, -0.1]));
    let anchor = Anchor {
        ir: &u_ir,
        tg: Some((&u_tg, 0.5)),
    };
    let consulted = std::cell::Cell::new([0usize; 2]);
    let count = |pos: usize, _: u32| {
        let mut c = consulted.get();
        c[pos] += 1;
        consulted.set(c);
        false
    };
    let got = scorer.rank(&[anchor], &[0], count);
    assert!(got[0].is_empty());
    assert_eq!(consulted.get(), [0, 0], "k = 0 alone");
    let got = scorer.rank(&[anchor, anchor], &[0, 10], count);
    assert!(got[0].is_empty());
    assert_eq!(got[1], scorer.rank(&[anchor], &[10], |_, _| false)[0]);
    let [zero, ten] = consulted.get();
    assert_eq!(zero, 0, "k = 0 beside k = 10");
    assert!(ten >= 10, "k = 10 consulted {ten} times");
}

/// One generated row of the near-cut catalogue: the base row it copies,
/// and the f32 ulps by which it moves one spatial coordinate.
type NearRow = (usize, i32, usize);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The screen's own edges. Rows are copies of a few base rows, each
    /// moved by a few f32 ulps in one coordinate, so many exact values
    /// sit within f32 ulps of one another and of the cut the K-th of them
    /// sets. On top: one row or anchor at the magnitude bound (screened)
    /// or just past it (not), NaN and infinite rows, and `α` of 0,
    /// negative or NaN. The screened ranking, the f64 one and
    /// `select_top_k` over the unpruned scores must agree to the bit.
    #[test]
    fn screened_ranking_equals_the_unpruned_path_near_the_cut_and_at_the_bound(
        bases in proptest::collection::vec(row_spec(), 1..4),
        near in proptest::collection::vec((0usize..4, -4i32..5, 0usize..DIM_IR), 8..64),
        n in 700usize..1400,
        hostile in (0u32..12, 0usize..10_000),
        anchors in proptest::collection::vec((row_spec(), 0usize..6), 1..6),
        range in (0usize..10_000, 0usize..10_000),
        k_choice in 0usize..4,
        with_tag in 0u32..3,
    ) {
        let rows: Vec<RowSpec> = (0..n)
            .map(|i| {
                let (base, ulps, dim): NearRow = near[i % near.len()];
                let (kind, mut ir, tg) = bases[base % bases.len()].clone();
                ir[dim] *= 1.0 + f64::from(ulps) * f64::from(f32::EPSILON);
                (kind, ir, tg)
            })
            .collect();
        let (mut v_ir, v_tg) = matrices(&rows, &[(1, 0)]);
        let mut u_ir: Vec<Vec<f64>> =
            anchors.iter().map(|((kind, d, _), _)| lift(*kind, d)).collect();
        let u_tg: Vec<Vec<f64>> = anchors.iter().map(|((kind, _, d), _)| lift(*kind, d)).collect();
        // At most one hostile value, in a late row or in the first anchor.
        let (what, at) = hostile;
        let cell = (n / 2 + at % (n / 2)) * (DIM_IR + 1) + at % (DIM_IR + 1);
        match what {
            0 => v_ir[cell] = SCREEN_BOUND,
            1 => v_ir[cell] = -SCREEN_BOUND.next_up(),
            2 => v_ir[cell] = f64::NAN,
            3 => v_ir[cell] = [f64::INFINITY, f64::NEG_INFINITY][at % 2],
            4 => u_ir[0][at % (DIM_IR + 1)] = SCREEN_BOUND,
            5 => u_ir[0][at % (DIM_IR + 1)] = SCREEN_BOUND.next_up(),
            _ => {}
        }
        let alphas_of = [0.0, 0.5, -0.5, f64::NAN, 1e6, f64::INFINITY];
        let alphas: Vec<f64> = anchors.iter().map(|&(_, a)| alphas_of[a]).collect();
        let ir = BlockCache::build(&v_ir, DIM_IR + 1);
        let tg_cache = BlockCache::build(&v_tg, DIM_TG + 1);
        let tg = (with_tag > 0).then_some(&tg_cache);
        let block: Vec<Anchor<'_>> = (0..anchors.len())
            .map(|a| Anchor { ir: &u_ir[a], tg: tg.map(|_| (u_tg[a].as_slice(), alphas[a])) })
            .collect();
        // Ranges past the first chunk, whose sweep is f64 while no anchor
        // has a floor yet, but not aligned to it.
        let (lo, hi) = (range.0 % 64, n - range.1 % 64);
        let k = [1, 3, 10, 40][k_choice];
        let ids: Vec<u32> = (0..n as u32).collect();
        let exclude = |_: usize, _: u32| false;
        // An anchor the pruning rule cannot serve keeps its whole block on
        // the f64 sweep, so each anchor also ranks alone.
        for (pos, anchor) in block.iter().enumerate() {
            let got = screened(&ir, tg, std::slice::from_ref(anchor), lo..hi, k, exclude);
            let want = exhaustive(
                &ir, tg, &u_ir[pos], &u_tg[pos], alphas[pos], (lo, hi), &ids, k, |_| false,
            );
            if let Err(e) = assert_same(&got[0], &want, &format!("screened, anchor {pos} alone")) {
                prop_assert!(false, "{e} (n {n}, range {lo}..{hi}, k {k}, alpha {}, hostile {what})", alphas[pos]);
            }
        }
        let fresh = || -> Vec<TopKAccumulator> { block.iter().map(|_| TopKAccumulator::new(k)).collect() };
        let (mut accs, mut exact_accs) = (fresh(), fresh());
        rank_with(Sweep::Screened, &ir, tg, &block, lo..hi, None, &mut accs, exclude);
        rank_with(Sweep::Exact, &ir, tg, &block, lo..hi, None, &mut exact_accs, exclude);
        for (pos, (acc, exact_acc)) in accs.into_iter().zip(exact_accs).enumerate() {
            let want = exhaustive(
                &ir, tg, &u_ir[pos], &u_tg[pos], alphas[pos], (lo, hi), &ids, k, |_| false,
            );
            let context = format!("(n {n}, range {lo}..{hi}, k {k}, alpha {}, hostile {what})", alphas[pos]);
            if let Err(e) = assert_same(&acc.into_sorted(), &want, &format!("screened, anchor {pos}")) {
                prop_assert!(false, "{e} {context}");
            }
            if let Err(e) = assert_same(&exact_acc.into_sorted(), &want, &format!("f64, anchor {pos}")) {
                prop_assert!(false, "{e} {context}");
            }
        }
    }
}

/// Above the crossover `Scorer::rank` takes the screen on its own: a
/// planted catalogue at the default 32 + 8 dims, twice
/// `SCREEN_MIN_BYTES` of interaction panel, ranked for a block of users
/// with and without exclusions, equals the unpruned path to the bit.
#[test]
fn a_catalogue_above_the_crossover_ranks_as_the_unpruned_path() {
    let ambient = 33;
    let n = 2 * SCREEN_MIN_BYTES / (8 * ambient) + 300;
    let emb = generate_embeddings(&EmbedConfig {
        n_items: n,
        n_users: 6,
        dim_ir: ambient - 1,
        dim_tag: 8,
        seed: 38,
        ..EmbedConfig::default()
    });
    assert_eq!(Sweep::for_range(n, ambient), Sweep::Screened);
    let items = ItemEmbeddings {
        v_ir: &emb.v_ir,
        ambient_ir: emb.ambient_ir,
        v_tg: Some(&emb.v_tg),
        ambient_tg: emb.ambient_tg,
    };
    let scorer = Scorer::build(&items);
    let ir = BlockCache::build(&emb.v_ir, emb.ambient_ir);
    let tg = BlockCache::build(&emb.v_tg, emb.ambient_tg);
    let (ai, at) = (emb.ambient_ir, emb.ambient_tg);
    let block: Vec<Anchor<'_>> = (0..6)
        .map(|u| Anchor {
            ir: &emb.u_ir[u * ai..(u + 1) * ai],
            tg: Some((&emb.u_tg[u * at..(u + 1) * at], emb.alphas[u])),
        })
        .collect();
    let ids: Vec<u32> = (0..n as u32).collect();
    for stride in [1, 3] {
        let exclude =
            |pos: usize, item: u32| stride > 1 && (item as usize + pos).is_multiple_of(stride);
        let ks: Vec<usize> = (0..block.len()).map(|u| 5 + 3 * u).collect();
        let got = scorer.rank(&block, &ks, exclude);
        for (pos, anchor) in block.iter().enumerate() {
            let (u_tg, alpha) = anchor.tg.expect("tag channel");
            let want = exhaustive(
                &ir,
                Some(&tg),
                anchor.ir,
                u_tg,
                alpha,
                (0, n),
                &ids,
                ks[pos],
                |item| exclude(pos, item),
            );
            assert_same(&got[pos], &want, &format!("anchor {pos}, stride {stride}")).unwrap();
        }
    }
}
