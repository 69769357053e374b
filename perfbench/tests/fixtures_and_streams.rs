//! The two promises the noise budget rests on: the *amount* of work is
//! the same for every `--seed`, and what is asked differs between seeds
//! but repeats exactly for one seed.

use std::collections::HashSet;

use perfbench::fixtures::{
    ingest_checkpoint, serve_checkpoint, train_fixture, FixtureCounts, COLD_K_VALUES, HOT_POOL,
    INGEST_ITEMS, INGEST_USERS, SERVE_ITEMS, SERVE_USERS,
};
use perfbench::streams::{
    cold_keys, hot_keys, render_body, write_stream, Key, WritePlan, COLD_K_BASE,
};

const SEEDS: [u64; 4] = [1, 2, 3, 4];

fn plan() -> WritePlan {
    WritePlan {
        bodies: 8,
        per_body: 500,
        new_tags_per_body: 3,
        new_items_per_body: 10,
        new_users_per_body: 10,
        base_users: INGEST_USERS,
        base_items: INGEST_ITEMS,
        base_tags: 72,
    }
}

/// Everything a run builds before it asks anything, as counts. No
/// builder takes a seed; building once per seed shows that nothing else
/// (time, iteration order, global state left by the previous build)
/// leaks in either.
fn all_counts() -> [FixtureCounts; 3] {
    let serve = serve_checkpoint(SERVE_ITEMS, SERVE_USERS);
    let serve_bytes = serve.to_bytes().len();
    let ingest = ingest_checkpoint(INGEST_ITEMS, INGEST_USERS);
    let ingest_bytes = ingest.to_bytes().len();
    [
        FixtureCounts::of_train(&train_fixture()),
        FixtureCounts::of_checkpoint(&serve, serve_bytes),
        FixtureCounts::of_checkpoint(&ingest, ingest_bytes),
    ]
}

#[test]
fn fixture_counts_are_identical_for_every_seed() {
    let first = all_counts();
    for seed in &SEEDS[1..] {
        assert_eq!(
            all_counts(),
            first,
            "fixtures moved on the build for seed {seed}"
        );
    }
    let [train, serve, ingest] = first;
    // The sizes the README quotes.
    assert_eq!(
        (train.users, train.items, train.tags, train.train_nnz),
        (1000, 1200, 124, 3870)
    );
    assert_eq!((serve.users, serve.items), (SERVE_USERS, SERVE_ITEMS));
    assert_eq!((ingest.users, ingest.items), (INGEST_USERS, INGEST_ITEMS));
    assert!(ingest.index_leaves > 0 && serve.index_leaves == 0);
    assert!(serve.checkpoint_bytes > 0 && ingest.checkpoint_bytes > 0);
}

#[test]
fn cold_stream_never_repeats_a_key_and_follows_the_seed() {
    let streams: Vec<Vec<Key>> = SEEDS.iter().map(|&s| cold_keys(s, SERVE_USERS)).collect();
    for (keys, &seed) in streams.iter().zip(&SEEDS) {
        assert_eq!(keys.len(), SERVE_USERS * COLD_K_VALUES);
        let distinct: HashSet<&Key> = keys.iter().collect();
        assert_eq!(distinct.len(), keys.len(), "seed {seed} repeats a key");
        assert!(keys.iter().all(|&(u, k)| (u as usize) < SERVE_USERS
            && (COLD_K_BASE..COLD_K_BASE + COLD_K_VALUES).contains(&k)));
        assert_eq!(
            *keys,
            cold_keys(seed, SERVE_USERS),
            "seed {seed} is not repeatable"
        );
    }
    for pair in streams.windows(2) {
        assert_ne!(pair[0][..64], pair[1][..64], "two seeds ask the same keys");
    }
}

#[test]
fn hot_stream_stays_in_the_pool_and_follows_seed_and_lane() {
    let take = |seed, lane| {
        hot_keys(seed, lane, HOT_POOL)
            .take(4096)
            .collect::<Vec<Key>>()
    };
    for &seed in &SEEDS {
        let keys = take(seed, 0);
        assert!(keys
            .iter()
            .all(|&(u, k)| (u as usize) < HOT_POOL && k == COLD_K_BASE));
        assert_eq!(keys, take(seed, 0));
        assert_ne!(keys, take(seed, 1), "two clients ask in the same order");
        assert_ne!(keys, take(seed + 1, 0), "two seeds ask in the same order");
        // Uniform over the pool: 4096 draws touch most of 1000 users.
        assert!(keys.iter().map(|k| k.0).collect::<HashSet<_>>().len() > HOT_POOL * 9 / 10);
    }
}

#[test]
fn write_stream_is_part_of_the_fixture() {
    let plan = plan();
    let stream = write_stream(&plan);
    assert_eq!(stream.len(), plan.bodies);
    let (mut next_item, mut next_user) = (plan.base_items as u32, plan.base_users as u32);
    let mut fresh_tags = HashSet::new();
    for body in &stream {
        assert_eq!(body.len(), plan.per_body);
        let mut in_body = (0, 0, 0);
        for w in body {
            if w.tag.as_deref().is_some_and(|t| t.starts_with("live-")) {
                in_body.0 += 1;
                assert!(
                    fresh_tags.insert(w.tag.clone()),
                    "fresh tag name posted twice"
                );
            }
            // Growth ids are handed out in posting order: each grows the
            // model by exactly one row.
            if w.item >= plan.base_items as u32 {
                in_body.1 += 1;
                assert_eq!(w.item, next_item);
                next_item += 1;
            }
            if w.user >= plan.base_users as u32 {
                in_body.2 += 1;
                assert_eq!(w.user, next_user);
                next_user += 1;
            }
        }
        assert_eq!(
            in_body,
            (
                plan.new_tags_per_body,
                plan.new_items_per_body,
                plan.new_users_per_body
            ),
            "a body's composition moved"
        );
    }
    // What is posted is what the server parses.
    let parsed = taxorec_serve::parse_ingest_body(&render_body(&stream[0])).unwrap();
    assert_eq!(parsed.len(), plan.per_body);
    assert!(parsed.iter().zip(&stream[0]).all(|(p, w)| p.user == w.user
        && p.item == w.item
        && p.tags == w.tag.iter().cloned().collect::<Vec<_>>()));
    // No seed goes in, and nothing else leaks in: byte-identical bodies
    // on every build.
    let rendered =
        || -> Vec<String> { write_stream(&plan).iter().map(|b| render_body(b)).collect() };
    assert_eq!(rendered(), rendered());
    assert_ne!(stream[0], stream[1], "every body is the same");
}
