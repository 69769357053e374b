//! Serving through the retrieval index, end to end: the optional index
//! section round-trips bit-for-bit, index-less artifacts keep the exact
//! pre-index byte layout (old files load and serve exhaustively), full
//! beam width reproduces exhaustive rankings bit-identically through the
//! whole serving stack, and `/healthz` reports the index.

use std::sync::Arc;

use taxorec_core::{TaxoRec, TaxoRecConfig};
use taxorec_data::{generate_preset, Preset, Recommender, Scale, Split};
use taxorec_serve::client::{self, Response};
use taxorec_serve::{
    Checkpoint, CheckpointError, IndexConfig, RetrievalMode, ServingModel, FLAG_RETRIEVAL_INDEX,
};

fn trained_checkpoint() -> Checkpoint {
    let dataset = generate_preset(Preset::Ciao, Scale::Tiny);
    let split = Split::standard(&dataset);
    let mut cfg = TaxoRecConfig::fast_test();
    cfg.epochs = 4;
    let mut model = TaxoRec::new(cfg);
    model.fit(&dataset, &split);
    Checkpoint::from_model(&model)
        .with_dataset(&dataset)
        .with_seen_items(&split.train)
}

/// An index small enough that the tiny synthetic catalogue actually
/// splits into several leaves.
fn small_index() -> IndexConfig {
    IndexConfig {
        max_leaf: 16,
        branch: 4,
        beam: 2,
        ..IndexConfig::default()
    }
}

#[test]
fn index_section_round_trips_bit_for_bit() {
    let ckpt = trained_checkpoint()
        .with_retrieval_index(&small_index())
        .expect("index build");
    let parts = ckpt.index.clone().expect("index present");
    assert!(parts.n_leaves() > 1, "catalogue split into several leaves");

    let bytes = ckpt.to_bytes();
    let flags = u16::from_le_bytes(bytes[6..8].try_into().unwrap());
    assert_eq!(flags, FLAG_RETRIEVAL_INDEX, "index flag set in the header");

    let reloaded = Checkpoint::from_bytes(&bytes).expect("round trip");
    assert_eq!(reloaded.index.as_ref(), Some(&parts), "structure preserved");
    assert_eq!(reloaded.to_bytes(), bytes, "byte-level round trip");
}

#[test]
fn artifact_without_index_keeps_the_old_format_and_serves_exhaustively() {
    let ckpt = trained_checkpoint();
    let bytes = ckpt.to_bytes();
    // No index ⇒ header flags are zero ⇒ the artifact is byte-identical
    // to what the pre-index format wrote; conversely, a pre-index file
    // is exactly these bytes, so this also proves old artifacts load.
    let flags = u16::from_le_bytes(bytes[6..8].try_into().unwrap());
    assert_eq!(flags, 0, "no index ⇒ legacy byte layout");

    let reloaded = Checkpoint::from_bytes(&bytes).expect("legacy artifact loads");
    assert!(reloaded.index.is_none());
    let model = ServingModel::new(reloaded).expect("engine");
    assert_eq!(model.retrieval_mode(), RetrievalMode::Exact);
    assert!(model.retrieval_index().is_none());
    assert!(!model
        .recommend(0, 5)
        .expect("exhaustive path works")
        .is_empty());
    // Beam mode is refused up front, not at query time.
    let reloaded = Checkpoint::from_bytes(&bytes).unwrap();
    match ServingModel::new(reloaded)
        .unwrap()
        .with_retrieval(RetrievalMode::Beam(0))
    {
        Err(CheckpointError::Invalid(_)) => {}
        Err(e) => panic!("wrong error kind: {e}"),
        Ok(_) => panic!("beam mode accepted without an index"),
    }
}

#[test]
fn full_beam_serving_is_bit_identical_to_exact() {
    let ckpt = trained_checkpoint()
        .with_retrieval_index(&small_index())
        .expect("index build");
    let n_leaves = ckpt.index.as_ref().unwrap().n_leaves();
    let n_users = ckpt.state.n_users();

    let exact = ServingModel::new(ckpt.clone()).unwrap();
    let beam = ServingModel::new(ckpt)
        .unwrap()
        .with_retrieval(RetrievalMode::Beam(n_leaves))
        .expect("index present");
    for user in 0..n_users as u32 {
        let want = exact.recommend(user, 10).unwrap();
        let got = beam.recommend(user, 10).unwrap();
        assert_eq!(want.len(), got.len(), "user {user}");
        for (a, b) in want.iter().zip(got.iter()) {
            assert_eq!(a.0, b.0, "user {user}: item mismatch");
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "user {user}: score bits");
        }
    }
}

#[test]
fn batched_beam_queries_match_single_beam_queries() {
    let ckpt = trained_checkpoint()
        .with_retrieval_index(&small_index())
        .expect("index build");
    let n_users = ckpt.state.n_users();
    let beam = ServingModel::new(ckpt.clone())
        .unwrap()
        .with_retrieval(RetrievalMode::Beam(2))
        .unwrap();
    // Mixed k exercises the k_max-then-truncate path.
    let queries: Vec<(u32, usize)> = (0..n_users as u32)
        .map(|u| (u, 1 + (u as usize % 9)))
        .collect();
    let got = beam.recommend_many(&queries);
    // Fresh engine so every reference query runs the single path.
    let reference = ServingModel::new(ckpt)
        .unwrap()
        .with_retrieval(RetrievalMode::Beam(2))
        .unwrap();
    for (&(u, k), res) in queries.iter().zip(&got) {
        let want = reference.recommend(u, k).unwrap();
        let have = res.as_ref().unwrap();
        assert_eq!(have.len(), want.len(), "user {u} k {k}");
        for (a, b) in have.iter().zip(want.iter()) {
            assert_eq!(a.0, b.0, "user {u} k {k}: item mismatch");
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "user {u} k {k}: score bits");
        }
    }
}

#[test]
fn healthz_reports_retrieval_index_and_mode() {
    let ckpt = trained_checkpoint()
        .with_retrieval_index(&small_index())
        .expect("index build");
    let n_leaves = ckpt.index.as_ref().unwrap().n_leaves();
    let model = ServingModel::new(ckpt)
        .unwrap()
        .with_retrieval(RetrievalMode::Beam(2))
        .unwrap();
    let handle = taxorec_serve::serve(Arc::new(model), "127.0.0.1:0", 2).expect("bind");
    let addr = handle.local_addr();

    let Response { status, body, .. } = client::get(addr, "/healthz").expect("response");
    assert_eq!(status, 200, "healthz up: {body}");
    assert!(
        body.contains("\"retrieval\":{\"mode\":\"beam:2\""),
        "{body}"
    );
    assert!(
        body.contains(&format!("\"leaves\":{n_leaves}")),
        "index stats present: {body}"
    );

    // A beam recommendation over HTTP populates the telemetry series.
    let status = client::get(addr, "/recommend?user=0&k=5")
        .expect("response")
        .status;
    assert_eq!(status, 200);
    let Response {
        status,
        body: metrics,
        ..
    } = client::get(addr, "/metrics").expect("response");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("serve_retrieval_candidates"),
        "candidates counter exported: {metrics}"
    );
    assert!(
        metrics.contains("serve_retrieval_recall_mode"),
        "recall-mode gauge exported: {metrics}"
    );
    handle.shutdown();
}
