//! The CI serving smoke test: train a tiny model, freeze it to a `.taxo`
//! artifact, reload it, prove the reloaded engine ranks **identically**
//! to the in-process model for every user, then stand the HTTP server up
//! on an ephemeral port and drive all four endpoints over TCP with the
//! crate's own blocking client — exactly what an external `curl` would see.

use std::sync::Arc;

use taxorec::core::{TaxoRec, TaxoRecConfig};
use taxorec::data::{generate_preset, select_top_k, Preset, Recommender, Scale, Split};
use taxorec::serve::client::{self, Response, Timeouts};
use taxorec::serve::{Checkpoint, ServingModel};

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
    assert!(taxorec::telemetry::json::is_valid_json(&body), "{body}");

    // /explain — rationale for a (user, item) pair.
    let Response { status, body, .. } =
        client::get(addr, "/explain?user=0&item=1").expect("response");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"score\":"), "{body}");
    assert!(body.contains("\"item_tags\":["), "{body}");
    assert!(taxorec::telemetry::json::is_valid_json(&body), "{body}");

    // /metrics — Prometheus text exposition, which by now has request
    // counts; /metrics.json keeps the raw registry snapshot.
    let Response { status, body, .. } = client::get(addr, "/metrics").expect("response");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("taxorec_serve_http_requests_total"), "{body}");
    taxorec::telemetry::prometheus::validate(&body).unwrap_or_else(|e| panic!("{e}\n---\n{body}"));
    let Response { status, body, .. } = client::get(addr, "/metrics.json").expect("response");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("serve.http.requests"), "{body}");
    assert!(taxorec::telemetry::json::is_valid_json(&body), "{body}");

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

/// The batch path and the trait's default `top_k_for_user` agree with the
/// serving engine — three routes, one ranking contract.
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
        // The trait default ranks the same items when nothing is excluded:
        // compare against an exclusion-free reference.
        let unfiltered = model.top_k_for_user(*u, dataset.n_items);
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
