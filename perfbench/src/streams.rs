//! What the program is asked. The read streams derive from `--seed`: the
//! order of cold keys, the order of hot users. The `/ingest` write stream
//! is fixed. The *amount* of work never depends on the seed — every
//! stream has the same length and composition for every seed.

use std::fmt::Write as _;

use taxorec_serve::IngestInteraction;

use crate::fixtures::{COLD_K_VALUES, FIXTURE_SEED};

/// splitmix64: the stream generator behind every seeded choice here.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `seed`, decorrelated per `lane` (client thread,
    /// purpose).
    pub fn new(seed: u64, lane: u64) -> Self {
        Self(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ lane.wrapping_mul(0xd134_2543_de82_ef95))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n ≥ 1`; the modulo bias at these sizes
    /// is below 2⁻⁴⁰).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One `/recommend` key.
pub type Key = (u32, usize);

/// Smallest `k` of a cold key; warm-up traffic uses `COLD_K_BASE − 1`, so
/// it can never collide with a timed key.
pub const COLD_K_BASE: usize = 10;

/// Every `(user, k)` key of the cold key space exactly once, in seeded
/// order: no key repeats within a run, so no timed request can hit the
/// response cache.
pub fn cold_keys(seed: u64, n_users: usize) -> Vec<Key> {
    let mut keys: Vec<Key> = (0..n_users * COLD_K_VALUES)
        .map(|i| ((i % n_users) as u32, COLD_K_BASE + i / n_users))
        .collect();
    SplitMix64::new(seed, 0xc01d).shuffle(&mut keys);
    keys
}

/// The endless hot query stream of client `lane`: uniform draws from the
/// primed pool `0..pool`, all with `k = COLD_K_BASE`.
pub fn hot_keys(seed: u64, lane: u64, pool: usize) -> impl Iterator<Item = Key> {
    let mut rng = SplitMix64::new(seed, 0x407 + lane);
    std::iter::repeat_with(move || (rng.below(pool) as u32, COLD_K_BASE))
}

/// Shape of the `/ingest` write stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WritePlan {
    /// Bodies posted in a run (one per schedule slot).
    pub bodies: usize,
    /// Interactions per body.
    pub per_body: usize,
    /// Of those, interactions that carry a never-seen tag name.
    pub new_tags_per_body: usize,
    /// Of those, interactions on a never-seen item id.
    pub new_items_per_body: usize,
    /// Of those, interactions by a never-seen user id.
    pub new_users_per_body: usize,
    /// Users of the base model.
    pub base_users: usize,
    /// Items of the base model.
    pub base_items: usize,
    /// Tags of the base model (named `tag0..`).
    pub base_tags: usize,
}

/// One interaction of the write stream, before rendering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Write {
    /// User id.
    pub user: u32,
    /// Item id.
    pub item: u32,
    /// The tag name the interaction carries.
    pub tag: Option<String>,
}

/// The write stream of a run as structured interactions, body by body.
///
/// It is part of the fixture: **the same for every `--seed`** (its
/// choices come from [`FIXTURE_SEED`]). Whatever is written ends up in the
/// model — different journals end in different taxonomies and indexes,
/// whose beam recall differed by ±3 % between seeds when writes were
/// seeded — so the seed of `ingest_mixed` drives the reads only, and the
/// final generation, its CRC and its quality are one fixed answer.
///
/// Never-seen item and user ids are handed out in posting order (one new
/// row per such interaction); every other interaction names a known
/// user, a known item and a known tag.
pub fn write_stream(plan: &WritePlan) -> Vec<Vec<Write>> {
    let mut rng = SplitMix64::new(FIXTURE_SEED, 0x1261);
    let (mut next_item, mut next_user, mut next_tag) =
        (plan.base_items as u32, plan.base_users as u32, 0usize);
    (0..plan.bodies)
        .map(|_| {
            let mut body = Vec::with_capacity(plan.per_body);
            for slot in 0..plan.per_body {
                let mut w = Write {
                    user: rng.below(plan.base_users) as u32,
                    item: rng.below(plan.base_items) as u32,
                    tag: Some(format!("tag{}", rng.below(plan.base_tags))),
                };
                if slot < plan.new_tags_per_body {
                    w.tag = Some(format!("live-{next_tag}"));
                    next_tag += 1;
                } else if slot < plan.new_tags_per_body + plan.new_items_per_body {
                    w.item = next_item;
                    next_item += 1;
                } else if slot
                    < plan.new_tags_per_body + plan.new_items_per_body + plan.new_users_per_body
                {
                    w.user = next_user;
                    next_user += 1;
                }
                body.push(w);
            }
            // Spread the growing interactions over the body, then put
            // the growth ids back in posting order.
            rng.shuffle(&mut body);
            restore_order(
                &mut body,
                |w| (w.item >= plan.base_items as u32).then_some(w.item),
                |w, v| w.item = v,
            );
            restore_order(
                &mut body,
                |w| (w.user >= plan.base_users as u32).then_some(w.user),
                |w, v| w.user = v,
            );
            body
        })
        .collect()
}

/// Rewrites the values `get` selects so they ascend in body order,
/// without moving which positions carry them.
fn restore_order(
    body: &mut [Write],
    get: impl Fn(&Write) -> Option<u32>,
    set: impl Fn(&mut Write, u32),
) {
    let mut values: Vec<u32> = body.iter().filter_map(&get).collect();
    values.sort_unstable();
    let mut next = values.into_iter();
    for w in body.iter_mut() {
        if get(w).is_some() {
            set(w, next.next().expect("as many values as positions"));
        }
    }
}

/// The bodies as the interactions the server journals for them.
pub fn journal<'a>(bodies: impl IntoIterator<Item = &'a Vec<Write>>) -> Vec<IngestInteraction> {
    bodies
        .into_iter()
        .flatten()
        .map(|w| IngestInteraction {
            user: w.user,
            item: w.item,
            tags: w.tag.iter().cloned().collect(),
        })
        .collect()
}

/// Renders one body as the JSON `POST /ingest` expects.
pub fn render_body(body: &[Write]) -> String {
    let mut out = String::with_capacity(body.len() * 48 + 20);
    out.push_str("{\"interactions\":[");
    for (i, w) in body.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"user\":{},\"item\":{}", w.user, w.item);
        if let Some(tag) = &w.tag {
            let _ = write!(out, ",\"tags\":[\"{tag}\"]");
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}
