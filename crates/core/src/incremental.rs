//! Incremental (online) model updates: folding a journal of live
//! interactions into an exported [`ModelState`] between serving ticks.
//!
//! The offline trainer owns tapes, graph matrices, and regularizer
//! plans; none of that exists once a model is frozen into a `.taxo`
//! artifact. This module therefore updates the *final post-aggregation*
//! embeddings directly with the same Riemannian machinery the trainer
//! uses — margin triplet steps on the Lorentz channels (HyperML-style)
//! and Poincaré pulls on the tag embeddings — which keeps an online
//! model scoreable through the identical Eq. 16/17 path at every point.
//!
//! ## Determinism contract
//!
//! The fold is a **pure function of (state, journal cursor, journal
//! contents, config)**:
//!
//! * interactions apply strictly sequentially, in journal order;
//! * negative samples derive from the journal cursor via SplitMix64;
//! * never-seen users/items/tags are grown with rows seeded by their
//!   absolute row index (not by batch composition), so folding one
//!   batch of N or N batches of one produces bit-identical matrices;
//! * nothing here touches the thread pool, so `TAXOREC_THREADS` cannot
//!   change a single bit of the result.
//!
//! Replaying the same journal from the same base checkpoint therefore
//! reproduces the same artifact byte-for-byte — the property the
//! serving tier's replay/failover guarantees are built on.

use rand::rngs::StdRng;
use rand::SeedableRng;
use taxorec_autodiff::Matrix;
use taxorec_geometry::{convert, lorentz, poincare, vecops};

use crate::export::ModelState;
use crate::init;
use crate::optim::{self, GRAD_CLIP};

/// One journaled interaction: user `user` interacted with item `item`,
/// annotated with (already id-resolved) tags. Ids may exceed the
/// model's current row counts — the fold grows the matrices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Interaction {
    /// User id (row in `u_ir`/`u_tg`; may be never-seen).
    pub user: u32,
    /// Item id (row in `v_ir`/`v_tg`; may be never-seen).
    pub item: u32,
    /// Tag ids annotating this interaction (rows in `t_p`; may be
    /// never-seen — the caller allocates ids for new tag names).
    pub tags: Vec<u32>,
}

/// Tuning of the incremental fold. [`Default`] matches the serving
/// tier's `IngestOptions` defaults.
#[derive(Clone, Copy, Debug)]
pub struct IncrementalConfig {
    /// Riemannian step size for the Lorentz interaction channels.
    pub lr: f64,
    /// Hinge margin of the triplet objective (HyperML Eq. 4 shape).
    pub margin: f64,
    /// Base seed for negative sampling and new-row initialization.
    /// Use the trained model's `config.seed` so a replayed journal
    /// reproduces the artifact bit-for-bit.
    pub seed: u64,
    /// Hard cap on rows grown in one call — a typo'd id must fail the
    /// batch, not allocate a four-billion-row matrix.
    pub max_growth: usize,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        Self {
            lr: 0.05,
            margin: 1.0,
            seed: 0,
            max_growth: 100_000,
        }
    }
}

/// What one [`apply_interactions`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrementalReport {
    /// Interactions folded in.
    pub applied: usize,
    /// User rows grown (including gap rows below the highest new id).
    pub new_users: usize,
    /// Item rows grown.
    pub new_items: usize,
    /// Tag rows grown.
    pub new_tags: usize,
    /// Journal cursor after the fold (`base_cursor + applied`).
    pub cursor: u64,
}

/// Spatial std-dev for freshly grown Lorentz rows (near-origin, as in
/// training initialization).
const GROW_LORENTZ_STD: f64 = 0.1;
/// Half-range for freshly grown Poincaré tag rows.
const GROW_POINCARE_RANGE: f64 = 0.01;

/// Domain-separation constants for per-row growth seeds.
const KIND_USER_IR: u64 = 0x75697200;
const KIND_USER_TG: u64 = 0x75746700;
const KIND_ITEM_IR: u64 = 0x76697200;
const KIND_ITEM_TG: u64 = 0x76746700;
const KIND_TAG: u64 = 0x74616700;
const KIND_NEGATIVE: u64 = 0x6e656700;

/// SplitMix64 — the standard 64-bit mixer; enough to decorrelate the
/// derived seeds below.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Deterministic per-row seed: a function of (base seed, matrix kind,
/// absolute row index) only.
fn row_seed(seed: u64, kind: u64, row: usize) -> u64 {
    splitmix64(seed ^ splitmix64(kind) ^ splitmix64(row as u64))
}

/// Grows `m` to `rows` rows, each new row produced by `make_row(r)`.
/// Appends in place when [`reserve_rows`] already made room; otherwise
/// reallocates to exactly `rows` rows.
fn grow_matrix(m: &mut Matrix, rows: usize, make_row: impl Fn(usize) -> Vec<f64>) {
    if m.rows() >= rows {
        return;
    }
    let (first, cols) = m.shape();
    m.reserve_rows(rows);
    let mut data = std::mem::replace(m, Matrix::zeros(0, 0)).into_vec();
    for r in first..rows {
        let row = make_row(r);
        debug_assert_eq!(row.len(), cols);
        data.extend_from_slice(&row);
    }
    *m = Matrix::from_vec(rows, cols, data);
}

/// User, item and tag row counts of a [`ModelState`]: what the growth
/// guard and a fold's reservation reason about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rows {
    /// Rows of `u_ir` (and `u_tg`, `alphas`).
    pub users: usize,
    /// Rows of `v_ir` (and `v_tg`).
    pub items: usize,
    /// Rows of `t_p`.
    pub tags: usize,
}

impl Rows {
    /// `state`'s current counts.
    pub fn of(state: &ModelState) -> Self {
        Self {
            users: state.n_users(),
            items: state.n_items(),
            tags: state.n_tags(),
        }
    }

    /// The counts covering every id `it` names (tags included even when
    /// the tag channel grows no rows: the guard counts them all).
    fn covering(self, it: &Interaction) -> Self {
        Self {
            users: self.users.max(it.user as usize + 1),
            items: self.items.max(it.item as usize + 1),
            tags: it
                .tags
                .iter()
                .fold(self.tags, |n, &t| n.max(t as usize + 1)),
        }
    }
}

/// The growth guard: going from `from` to `to` may add at most
/// [`IncrementalConfig::max_growth`] rows in all.
fn check_growth(from: Rows, to: Rows, cfg: &IncrementalConfig) -> Result<(), String> {
    let growth = (to.users - from.users) + (to.items - from.items) + (to.tags - from.tags);
    if growth > cfg.max_growth {
        return Err(format!(
            "batch would grow {growth} rows, over the cap of {} — \
             rejecting (likely a corrupt or hostile id)",
            cfg.max_growth
        ));
    }
    Ok(())
}

/// What [`apply_interactions`] on the one-interaction batch `[it]` does
/// to the row counts of a state at `rows` whose tag channel is
/// `tags_active`: the counts after, or the growth guard's refusal (the
/// state would be left unchanged). Lets a caller plan a fold — resolve
/// ids, drop what the guard drops, size a [`reserve_rows`] — without
/// touching the state.
pub fn grown_rows(
    rows: Rows,
    tags_active: bool,
    it: &Interaction,
    cfg: &IncrementalConfig,
) -> Result<Rows, String> {
    let to = rows.covering(it);
    check_growth(rows, to, cfg)?;
    Ok(if tags_active {
        to
    } else {
        Rows {
            tags: rows.tags,
            ..to
        }
    })
}

/// Reserves exact capacity for `state` to grow to `rows`, each count
/// capped at [`IncrementalConfig::max_growth`] rows past the current
/// size. A caller folding a batch one interaction at a time reserves the
/// batch's final row counts once ([`grown_rows`]), so every grown row
/// appends in place instead of copying its whole matrix. Capacity only:
/// no value changes, so folding with or without it gives identical bits.
pub fn reserve_rows(state: &mut ModelState, rows: Rows, cfg: &IncrementalConfig) {
    let cap = |now: usize, want: usize| want.min(now.saturating_add(cfg.max_growth));
    let users = cap(state.n_users(), rows.users);
    let items = cap(state.n_items(), rows.items);
    let tags = cap(state.n_tags(), rows.tags);
    state.u_ir.reserve_rows(users);
    state.v_ir.reserve_rows(items);
    if state.tags_active {
        state.u_tg.reserve_rows(users);
        state.v_tg.reserve_rows(items);
        state.t_p.reserve_rows(tags);
    }
    state
        .alphas
        .reserve_exact(users.saturating_sub(state.alphas.len()));
}

fn lorentz_row(seed: u64, dim: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let spatial: Vec<f64> = (0..dim)
        .map(|_| init::normal(&mut rng) * GROW_LORENTZ_STD)
        .collect();
    lorentz::from_spatial(&spatial)
}

fn poincare_row(seed: u64, dim: usize) -> Vec<f64> {
    use rand::RngExt;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..dim)
        .map(|_| (rng.random::<f64>() * 2.0 - 1.0) * GROW_POINCARE_RANGE)
        .collect()
}

/// Clips `g` to [`GRAD_CLIP`] and applies one buffered Lorentz RSGD
/// step to `row`; a non-finite gradient is skipped and counted by
/// `optim`'s rule. The clip is **not** `optim`'s: the trainer caps the
/// step `lr·grad` at `STEP_CLIP`, the fold caps the gradient itself, and
/// merging the two would move every folded bit.
fn lorentz_step(row: &mut [f64], g: &mut [f64], lr: f64, rg: &mut [f64]) {
    if optim::skip_nonfinite(g) {
        return;
    }
    vecops::clip_norm(g, GRAD_CLIP);
    lorentz::rsgd_step_buffered(row, g, lr, rg);
}

/// Pure pre-flight check: would the whole batch grow the model past
/// the cap? Runs before any mutation so a rejected batch leaves the
/// state untouched.
fn check_growth_cap(
    state: &ModelState,
    batch: &[Interaction],
    cfg: &IncrementalConfig,
) -> Result<(), String> {
    let from = Rows::of(state);
    check_growth(from, batch.iter().fold(from, Rows::covering), cfg)
}

/// Grows the state to cover one interaction's ids. Growth happens
/// per-interaction — not per-batch — so the catalogue size seen by
/// negative sampling at journal position `c` is a function of the
/// journal prefix alone, never of how the caller chunked it. Returns
/// `(new_users, new_items, new_tags)`.
fn grow_for_interaction(
    state: &mut ModelState,
    it: &Interaction,
    cfg: &IncrementalConfig,
) -> (usize, usize, usize) {
    let Rows {
        users: n_users,
        items: n_items,
        tags: n_tags,
    } = Rows::of(state).covering(it);
    let new_users = n_users - state.n_users();
    let new_items = n_items - state.n_items();
    let new_tags = n_tags - state.n_tags();
    if new_users + new_items + new_tags == 0 {
        return (0, 0, 0);
    }
    let seed = cfg.seed;
    let dim_ir = state.config.dim_ir;
    let dim_tag = state.config.dim_tag;
    grow_matrix(&mut state.u_ir, n_users, |r| {
        lorentz_row(row_seed(seed, KIND_USER_IR, r), dim_ir)
    });
    grow_matrix(&mut state.v_ir, n_items, |r| {
        lorentz_row(row_seed(seed, KIND_ITEM_IR, r), dim_ir)
    });
    if state.tags_active {
        grow_matrix(&mut state.u_tg, n_users, |r| {
            lorentz_row(row_seed(seed, KIND_USER_TG, r), dim_tag)
        });
        grow_matrix(&mut state.v_tg, n_items, |r| {
            lorentz_row(row_seed(seed, KIND_ITEM_TG, r), dim_tag)
        });
        grow_matrix(&mut state.t_p, n_tags, |r| {
            poincare_row(row_seed(seed, KIND_TAG, r), dim_tag)
        });
    }
    // New users start at the mean personalization weight — the least
    // surprising prior, and deterministic.
    if state.alphas.len() < n_users {
        let mean = if state.alphas.is_empty() {
            0.5
        } else {
            state.alphas.iter().sum::<f64>() / state.alphas.len() as f64
        };
        state.alphas.resize(n_users, mean);
    }
    (new_users, new_items, new_tags)
}

/// Folds `batch` into `state`, strictly in order, with the journal
/// cursor of the first entry at `base_cursor`.
///
/// Per interaction: one margin-triplet RSGD step on the interaction
/// channel (`u_ir`/`v_ir`), one on the tag channel (`u_tg`/`v_tg`)
/// when active, and a Poincaré pull of each annotating tag embedding
/// toward the item's tag-channel position. Negatives are sampled
/// deterministically from the cursor. See the module docs for the
/// determinism contract.
///
/// # Errors
/// Rejects batches whose ids would grow the model past
/// [`IncrementalConfig::max_growth`]; the state is unchanged on error.
pub fn apply_interactions(
    state: &mut ModelState,
    base_cursor: u64,
    batch: &[Interaction],
    cfg: &IncrementalConfig,
) -> Result<IncrementalReport, String> {
    if batch.is_empty() {
        return Ok(IncrementalReport {
            cursor: base_cursor,
            ..IncrementalReport::default()
        });
    }
    check_growth_cap(state, batch, cfg)?;
    let tags_on = state.tags_active;
    let amb_ir = state.u_ir.cols();
    let amb_tg = if tags_on { state.u_tg.cols() } else { 0 };
    let dim_tag = state.config.dim_tag;
    let lr_tag = cfg.lr * state.config.lr_tag_mult;
    // Reusable step buffers, sized for the widest ambient dimension.
    let width = amb_ir.max(amb_tg).max(dim_tag);
    let mut rg = vec![0.0; width];
    let mut out = vec![0.0; width];
    let (mut new_users, mut new_items, mut new_tags) = (0, 0, 0);

    for (offset, it) in batch.iter().enumerate() {
        let cursor = base_cursor + offset as u64;
        let (gu, gi, gt) = grow_for_interaction(state, it, cfg);
        new_users += gu;
        new_items += gi;
        new_tags += gt;
        let n_items = state.n_items();
        let u = it.user as usize;
        let pos = it.item as usize;
        // Cursor-derived negative, nudged off the positive. With a
        // one-item catalogue there is no distinct negative; the hinge
        // then compares the positive against itself and stays silent.
        let draw = splitmix64(cfg.seed ^ splitmix64(KIND_NEGATIVE) ^ splitmix64(cursor));
        let mut neg = (draw % n_items as u64) as usize;
        if neg == pos {
            neg = (neg + 1) % n_items;
        }

        triplet_step(
            &mut state.u_ir,
            &mut state.v_ir,
            u,
            pos,
            neg,
            cfg.margin,
            cfg.lr,
            &mut rg[..amb_ir],
        );
        if tags_on {
            triplet_step(
                &mut state.u_tg,
                &mut state.v_tg,
                u,
                pos,
                neg,
                cfg.margin,
                cfg.lr,
                &mut rg[..amb_tg],
            );
            // Pull each annotating tag toward the item's tag-channel
            // position (mapped into the ball where `t_p` lives).
            let mut target = vec![0.0; dim_tag];
            convert::lorentz_to_poincare(state.v_tg.row(pos), &mut target);
            for &t in &it.tags {
                let row = state.t_p.row_mut(t as usize);
                let d = poincare::distance(row, &target);
                let mut g = vec![0.0; dim_tag];
                let mut g_target = vec![0.0; dim_tag];
                poincare::distance_grad(row, &target, 2.0 * d, &mut g, &mut g_target);
                if optim::skip_nonfinite(&g) {
                    continue;
                }
                vecops::clip_norm(&mut g, GRAD_CLIP);
                poincare::rsgd_step_buffered(
                    row,
                    &g,
                    lr_tag,
                    &mut rg[..dim_tag],
                    &mut out[..dim_tag],
                );
            }
        }
    }
    Ok(IncrementalReport {
        applied: batch.len(),
        new_users,
        new_items,
        new_tags,
        cursor: base_cursor + batch.len() as u64,
    })
}

/// One margin-triplet update on a Lorentz channel: if
/// `margin + d(u,pos)² − d(u,neg)² > 0`, pull `u`↔`pos` together and
/// push `u`↔`neg` apart (all four gradient rows step).
#[allow(clippy::too_many_arguments)]
fn triplet_step(
    users: &mut Matrix,
    items: &mut Matrix,
    u: usize,
    pos: usize,
    neg: usize,
    margin: f64,
    lr: f64,
    rg: &mut [f64],
) {
    let ambient = users.cols();
    let d_pos2 = lorentz::distance_sq(users.row(u), items.row(pos));
    let d_neg2 = lorentz::distance_sq(users.row(u), items.row(neg));
    if margin + d_pos2 - d_neg2 <= 0.0 {
        return;
    }
    let mut gu = vec![0.0; ambient];
    let mut gp = vec![0.0; ambient];
    let mut gn = vec![0.0; ambient];
    lorentz::distance_sq_grad(users.row(u), items.row(pos), 1.0, &mut gu, &mut gp);
    lorentz::distance_sq_grad(users.row(u), items.row(neg), -1.0, &mut gu, &mut gn);
    lorentz_step(users.row_mut(u), &mut gu, lr, rg);
    lorentz_step(items.row_mut(pos), &mut gp, lr, rg);
    lorentz_step(items.row_mut(neg), &mut gn, lr, rg);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TaxoRec;
    use crate::TaxoRecConfig;
    use taxorec_data::{generate_preset, Preset, Recommender, Scale, Split};

    fn trained_state() -> ModelState {
        let d = generate_preset(Preset::Ciao, Scale::Tiny);
        let s = Split::standard(&d);
        let mut cfg = TaxoRecConfig::fast_test();
        cfg.epochs = 2;
        let mut m = TaxoRec::new(cfg);
        m.fit(&d, &s);
        m.export_state()
    }

    fn journal(state: &ModelState, n: usize) -> Vec<Interaction> {
        let users = state.n_users() as u64;
        let items = state.n_items() as u64;
        let tags = state.n_tags() as u64;
        (0..n)
            .map(|i| {
                let h = splitmix64(0xfeed ^ i as u64);
                let mut tag_list = vec![(h % tags) as u32];
                if i % 7 == 0 {
                    // A never-seen tag every few events.
                    tag_list.push(tags as u32 + (i / 7) as u32);
                }
                Interaction {
                    // Some never-seen users/items mixed in.
                    user: if i % 5 == 0 {
                        users as u32 + (i / 5) as u32
                    } else {
                        (h % users) as u32
                    },
                    item: if i % 9 == 0 {
                        items as u32
                    } else {
                        ((h >> 16) % items) as u32
                    },
                    tags: tag_list,
                }
            })
            .collect()
    }

    #[test]
    fn fold_is_invariant_to_batch_boundaries() {
        let base = trained_state();
        let events = journal(&base, 40);
        let cfg = IncrementalConfig {
            seed: base.config.seed,
            ..IncrementalConfig::default()
        };
        let mut all_at_once = base.clone();
        apply_interactions(&mut all_at_once, 0, &events, &cfg).unwrap();
        let mut chunked = base.clone();
        let mut cursor = 0u64;
        for chunk in events.chunks(7) {
            let r = apply_interactions(&mut chunked, cursor, chunk, &cfg).unwrap();
            cursor = r.cursor;
        }
        assert_eq!(all_at_once.u_ir.data(), chunked.u_ir.data());
        assert_eq!(all_at_once.v_ir.data(), chunked.v_ir.data());
        assert_eq!(all_at_once.u_tg.data(), chunked.u_tg.data());
        assert_eq!(all_at_once.v_tg.data(), chunked.v_tg.data());
        assert_eq!(all_at_once.t_p.data(), chunked.t_p.data());
        assert_eq!(all_at_once.alphas, chunked.alphas);
    }

    #[test]
    fn reserved_rows_grow_in_place_with_identical_bits() {
        let base = trained_state();
        let events = journal(&base, 40);
        let cfg = IncrementalConfig {
            seed: base.config.seed,
            ..IncrementalConfig::default()
        };
        let rows = events.iter().fold(Rows::of(&base), |rows, it| {
            grown_rows(rows, base.tags_active, it, &cfg).unwrap()
        });
        let mut plain = base.clone();
        let mut reserved = base.clone();
        reserve_rows(&mut reserved, rows, &cfg);
        let before: Vec<*const f64> = [
            &reserved.u_ir,
            &reserved.v_ir,
            &reserved.u_tg,
            &reserved.v_tg,
            &reserved.t_p,
        ]
        .iter()
        .map(|m| m.data().as_ptr())
        .collect();
        let mut cursor = 0u64;
        for one in events.chunks(1) {
            apply_interactions(&mut plain, cursor, one, &cfg).unwrap();
            cursor = apply_interactions(&mut reserved, cursor, one, &cfg)
                .unwrap()
                .cursor;
        }
        assert!(reserved.n_users() > base.n_users() && reserved.n_tags() > base.n_tags());
        assert_eq!(Rows::of(&reserved), rows, "the plan predicts the growth");
        for (i, (a, b)) in [
            (&plain.u_ir, &reserved.u_ir),
            (&plain.v_ir, &reserved.v_ir),
            (&plain.u_tg, &reserved.u_tg),
            (&plain.v_tg, &reserved.v_tg),
            (&plain.t_p, &reserved.t_p),
        ]
        .into_iter()
        .enumerate()
        {
            assert_eq!(a.shape(), b.shape(), "matrix {i}");
            let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b), "matrix {i}");
            assert_eq!(b.data().as_ptr(), before[i], "matrix {i} was reallocated");
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&plain.alphas), bits(&reserved.alphas));
    }

    #[test]
    fn grown_rows_predicts_each_growth_and_each_refusal() {
        let base = trained_state();
        let cfg = IncrementalConfig {
            seed: base.config.seed,
            max_growth: 5,
            ..IncrementalConfig::default()
        };
        let (u, v, t) = (base.n_users(), base.n_items(), base.n_tags());
        let ev = |user: usize, item: usize, tags: &[usize]| Interaction {
            user: user as u32,
            item: item as u32,
            tags: tags.iter().map(|&t| t as u32).collect(),
        };
        // Grows a user and a tag; grows items; a user 9 rows out, over
        // the cap of 5; a tag 3 rows out.
        let events = [
            ev(u, 0, &[t, 1]),
            ev(0, v + 2, &[]),
            ev(u + 9, 0, &[]),
            ev(1, 1, &[t + 3]),
        ];
        for tags_active in [true, false] {
            let mut state = base.clone();
            if !tags_active {
                state.tags_active = false;
            }
            for (cursor, it) in events.iter().enumerate() {
                let before = Rows::of(&state);
                let predicted = grown_rows(before, state.tags_active, it, &cfg);
                let applied =
                    apply_interactions(&mut state, cursor as u64, std::slice::from_ref(it), &cfg);
                assert_eq!(predicted.is_ok(), applied.is_ok(), "event {cursor}");
                let after = predicted.unwrap_or(before);
                assert_eq!(
                    Rows::of(&state),
                    after,
                    "event {cursor}, tags {tags_active}"
                );
            }
        }
    }

    #[test]
    fn reservation_is_capped_by_max_growth() {
        let mut state = trained_state();
        let cfg = IncrementalConfig {
            max_growth: 3,
            ..IncrementalConfig::default()
        };
        // Uncapped, this would ask the allocator for terabytes and abort.
        let huge = 4_000_000_000;
        let rows = Rows {
            users: huge,
            items: huge,
            tags: huge,
        };
        reserve_rows(&mut state, rows, &cfg);
        let ptr = state.u_ir.data().as_ptr();
        let it = Interaction {
            user: state.n_users() as u32 + 2,
            item: 0,
            tags: vec![],
        };
        apply_interactions(&mut state, 0, &[it], &cfg).unwrap();
        assert_eq!(
            state.u_ir.data().as_ptr(),
            ptr,
            "the capped rows were reserved"
        );
    }

    #[test]
    fn growth_keeps_the_state_valid_and_on_manifold() {
        let mut state = trained_state();
        let (u0, v0, t0) = (state.n_users(), state.n_items(), state.n_tags());
        let events = journal(&state, 40);
        let cfg = IncrementalConfig {
            seed: 7,
            ..IncrementalConfig::default()
        };
        let r = apply_interactions(&mut state, 0, &events, &cfg).unwrap();
        assert_eq!(r.applied, 40);
        assert!(state.n_users() > u0 && state.n_items() > v0 && state.n_tags() > t0);
        assert_eq!(r.new_users, state.n_users() - u0);
        // Taxonomy still references only the original tags, and the new
        // rows satisfy the manifold constraints the kernels assume.
        assert!(state.u_ir.all_finite() && state.v_ir.all_finite());
        for m in [&state.u_ir, &state.v_ir, &state.u_tg, &state.v_tg] {
            for row in 0..m.rows() {
                assert!(lorentz::constraint_residual(m.row(row)) < 1e-6);
            }
        }
        for row in 0..state.t_p.rows() {
            assert!(vecops::norm(state.t_p.row(row)) < 1.0);
        }
        assert_eq!(state.alphas.len(), state.n_users());
    }

    #[test]
    fn repeated_interactions_pull_the_pair_together() {
        let mut state = trained_state();
        let cfg = IncrementalConfig {
            seed: 3,
            lr: 0.05,
            ..IncrementalConfig::default()
        };
        // A brand-new user repeatedly hitting one item must end up
        // closer to it than a fresh row would be.
        let user = state.n_users() as u32;
        let item = 2u32;
        let batch: Vec<Interaction> = (0..30)
            .map(|_| Interaction {
                user,
                item,
                tags: vec![0],
            })
            .collect();
        apply_interactions(&mut state, 0, &batch[..1], &cfg).unwrap();
        let before = lorentz::distance(state.u_ir.row(user as usize), state.v_ir.row(2));
        apply_interactions(&mut state, 1, &batch[1..], &cfg).unwrap();
        let after = lorentz::distance(state.u_ir.row(user as usize), state.v_ir.row(2));
        assert!(after < before, "before={before} after={after}");
    }

    #[test]
    fn hostile_ids_are_rejected_without_mutating() {
        let mut state = trained_state();
        let fingerprint = state.u_ir.data().to_vec();
        let err = apply_interactions(
            &mut state,
            0,
            &[Interaction {
                user: u32::MAX - 1,
                item: 0,
                tags: vec![],
            }],
            &IncrementalConfig::default(),
        )
        .unwrap_err();
        assert!(err.contains("cap"), "{err}");
        assert_eq!(state.u_ir.data(), &fingerprint[..]);
    }
}
