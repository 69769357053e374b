//! The CI serving smoke test: train a tiny model, freeze it to a `.taxo`
//! artifact, reload it, prove the reloaded engine ranks **identically**
//! to the in-process model for every user, then stand the HTTP server up
//! on an ephemeral port and drive all four endpoints over TCP with the
//! crate's own blocking client — exactly what an external `curl` would see.

use std::sync::Arc;

use taxorec::core::export::anchor;
use taxorec::core::{TaxoRec, TaxoRecConfig};
use taxorec::data::{generate_preset, select_top_k, Preset, Recommender, Scale, Split};
use taxorec::serve::client::{self, Response, Timeouts};
use taxorec::serve::{Checkpoint, IndexConfig, ServingModel};

fn trained() -> (TaxoRec, taxorec::data::Dataset, Split) {
    let dataset = generate_preset(Preset::Ciao, Scale::Tiny);
    let split = Split::standard(&dataset);
    let mut cfg = TaxoRecConfig::fast_test();
    cfg.epochs = 5;
    let mut model = TaxoRec::new(cfg);
    model.fit(&dataset, &split);
    (model, dataset, split)
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("taxorec-smoke-{}-{name}", std::process::id()))
}

/// The acceptance-criteria test: a trained in-process model and the
/// `.taxo` artifact reloaded from disk produce *identical* top-K lists
/// (items, order, and score bits) for every user.
#[test]
fn reloaded_checkpoint_ranks_identically_for_every_user() {
    let (model, dataset, split) = trained();
    let path = tmp_path("identity.taxo");
    Checkpoint::from_model(&model)
        .with_dataset(&dataset)
        .with_seen_items(&split.train)
        .save(&path)
        .expect("save");
    let serving = taxorec::serve::load(&path).expect("load");
    std::fs::remove_file(&path).ok();

    assert_eq!(serving.n_users(), dataset.n_users);
    assert_eq!(serving.n_items(), dataset.n_items);
    let k = 20;
    for user in 0..dataset.n_users as u32 {
        // Reference ranking straight from the live model.
        let scores = model.scores_for_user(user);
        let seen: std::collections::HashSet<u32> =
            split.train[user as usize].iter().copied().collect();
        let expect = select_top_k(&scores, k, |v| seen.contains(&(v as u32)));
        let got = serving.recommend(user, k).expect("known user");
        assert_eq!(*got, expect, "top-{k} of user {user} diverged after reload");
        for (&(_, gs), &(_, es)) in got.iter().zip(expect.iter()) {
            assert_eq!(gs.to_bits(), es.to_bits(), "score bits of user {user}");
        }
    }
}

#[test]
fn http_server_answers_all_endpoints_end_to_end() {
    let (model, dataset, split) = trained();
    let path = tmp_path("http.taxo");
    Checkpoint::from_model(&model)
        .with_dataset(&dataset)
        .with_seen_items(&split.train)
        .save(&path)
        .expect("save");
    let serving = taxorec::serve::load(&path).expect("load");
    std::fs::remove_file(&path).ok();

    // Port 0 → the OS assigns an ephemeral port; no collisions in CI.
    let handle = taxorec::serve::serve(Arc::new(serving), "127.0.0.1:0", 2).expect("bind");
    let addr = handle.local_addr();

    // /healthz — liveness and the model card.
    let Response { status, body, .. } = client::get(addr, "/healthz").expect("response");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ready\""), "{body}");
    assert!(body.contains("\"queue\":{\"depth\":"), "{body}");
    assert!(
        body.contains(&format!("\"users\":{}", dataset.n_users)),
        "{body}"
    );

    // /recommend — top-K with scores, matching the engine exactly.
    let Response { status, body, .. } =
        client::get(addr, "/recommend?user=0&k=5").expect("response");
    assert_eq!(status, 200, "{body}");
    assert!(
        body.starts_with("{\"user\":0,\"k\":5,\"items\":["),
        "{body}"
    );
    assert_eq!(body.matches("\"item\":").count(), 5, "{body}");
    assert!(taxorec::telemetry::json::parse(&body).is_ok(), "{body}");
    // k = 0 is a valid query with an empty answer.
    let Response { status, body, .. } =
        client::get(addr, "/recommend?user=0&k=0").expect("response");
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, "{\"user\":0,\"k\":0,\"items\":[]}");

    // /explain — rationale for a (user, item) pair.
    let Response { status, body, .. } =
        client::get(addr, "/explain?user=0&item=1").expect("response");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"score\":"), "{body}");
    assert!(body.contains("\"item_tags\":["), "{body}");
    assert!(taxorec::telemetry::json::parse(&body).is_ok(), "{body}");

    // /metrics — Prometheus text exposition, which by now has request
    // counts; /metrics.json keeps the raw registry snapshot.
    let Response { status, body, .. } = client::get(addr, "/metrics").expect("response");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("taxorec_serve_http_requests_total"), "{body}");
    taxorec::telemetry::prometheus::validate(&body).unwrap_or_else(|e| panic!("{e}\n---\n{body}"));
    let Response { status, body, .. } = client::get(addr, "/metrics.json").expect("response");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("serve.http.requests"), "{body}");
    assert!(taxorec::telemetry::json::parse(&body).is_ok(), "{body}");

    // Error paths: bad query, unknown user, unknown route, wrong method.
    let Response { status, body, .. } = client::get(addr, "/recommend").expect("response");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("user"), "{body}");
    let Response { status, body, .. } =
        client::get(addr, "/recommend?user=999999&k=3").expect("response");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("unknown user"), "{body}");
    let status = client::get(addr, "/nope").expect("response").status;
    assert_eq!(status, 404);
    let posted =
        client::request(addr, "POST", "/recommend", "", "", Timeouts::default()).expect("response");
    assert_eq!(posted.status, 405, "{}", posted.body);

    // Graceful shutdown drains the workers; afterwards the port refuses.
    handle.shutdown();
    assert!(
        client::get(addr, "/healthz").is_err(),
        "server still answering after shutdown"
    );
}

/// The batch path and the trait's `top_k_block` agree with the serving
/// engine — three routes, one ranking contract.
#[test]
fn batch_trait_and_server_agree() {
    let (model, dataset, split) = trained();
    let serving = ServingModel::from_model(&model, &dataset, &split).expect("snapshot");
    let users: Vec<u32> = (0..dataset.n_users as u32).collect();
    let batch = serving.recommend_batch(&users, 10);
    for (u, res) in users.iter().zip(&batch) {
        let via_batch = res.as_ref().expect("known user");
        let via_single = serving.recommend(*u, 10).expect("known user");
        assert_eq!(**via_batch, *via_single);
        // The trait's ranking with nothing excluded, filtered afterwards,
        // is the same list.
        let unfiltered = model
            .top_k_block(&[*u], dataset.n_items, &|_, _| false)
            .remove(0);
        let seen: std::collections::HashSet<u32> =
            split.train[*u as usize].iter().copied().collect();
        let expect: Vec<(u32, f64)> = unfiltered
            .into_iter()
            .filter(|(v, _)| !seen.contains(v))
            .take(10)
            .collect();
        assert_eq!(**via_batch, expect, "user {u}");
    }
}

/// The four ranking entry points — training-side `top_k_block`, the
/// serving engine's exact miss path, the index's exhaustive
/// `search_exact` and its beam path at full coverage — all run the one
/// `Scorer`, so for the same `(user, k, seen)` they return the same ids
/// and score bits. `k = usize::MAX` ("everything") is clamped where the
/// accumulators are sized and returns the full unseen list.
#[test]
fn four_ranking_entry_points_agree_bit_for_bit() {
    let (model, dataset, split) = trained();
    let ckpt = Checkpoint::from_model(&model)
        .with_dataset(&dataset)
        .with_seen_items(&split.train)
        .with_retrieval_index(&IndexConfig {
            max_leaf: 16,
            ..IndexConfig::default()
        })
        .expect("index");
    let serving = ServingModel::new(ckpt).expect("engine");
    let index = serving.retrieval_index().expect("index rebuilt");
    assert!(index.n_leaves() > 1, "the beam path must merge leaves");
    let state = model.export_state();
    let bits = |r: &[(u32, f64)]| -> Vec<(u32, u64)> {
        r.iter().map(|&(v, s)| (v, s.to_bits())).collect()
    };
    for user in 0..dataset.n_users {
        let seen = &split.train[user];
        let anchor = anchor(
            &state.config,
            &state.alphas,
            &state.u_ir,
            Some(&state.u_tg),
            user,
        );
        let mut full = None;
        for k in [10, dataset.n_items, usize::MAX] {
            let live = model
                .top_k_block(&[user as u32], k, &|_, v| seen.contains(&v))
                .remove(0);
            let served = serving.recommend_many(&[(user as u32, k)]).remove(0);
            let exact = index.search_exact(anchor.ir, anchor.tg, k, &|v| seen.contains(&v));
            let (mut beam, _) =
                index.search_block(&[anchor], index.n_leaves(), k, &|_, v| seen.contains(&v));
            assert_eq!(
                bits(&live),
                bits(&served.expect("known user")),
                "user {user} k {k}"
            );
            assert_eq!(bits(&live), bits(&exact), "user {user} k {k}");
            assert_eq!(bits(&live), bits(&beam.remove(0)), "user {user} k {k}");
            if k >= dataset.n_items {
                assert_eq!(
                    live.len(),
                    dataset.n_items - seen.len(),
                    "user {user} k {k}"
                );
                assert_eq!(bits(full.get_or_insert(live.clone())), bits(&live));
            }
        }
    }
}
