//! End-to-end micro-batching over a live server: concurrent
//! clients hit `/recommend`, the scheduler coalesces them into fused
//! scoring blocks, and every response is **bit-identical** — down to the
//! serialized JSON bytes — to what a sequential
//! [`ServingModel::recommend`] produces for the same `(user, k)`.
//!
//! The telemetry registry is process-global, so the histogram assertions
//! live in their own integration-test binary and the tests serialize on
//! one lock.

use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use taxorec_core::{TaxoRec, TaxoRecConfig};
use taxorec_data::{generate_preset, Preset, Recommender, Scale, Split};
use taxorec_resilience::{disable, install, FaultSpec};
use taxorec_serve::client::{self, Response};
use taxorec_serve::{serve_with, BatchOptions, ServeOptions, ServingModel};

fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One trained model, snapshotted twice: one engine for the server and
/// one untouched reference — both bit-identical by construction, so the
/// reference's sequential answers are the ground truth for the batched
/// responses.
fn two_engines() -> (ServingModel, ServingModel, usize) {
    let dataset = generate_preset(Preset::Ciao, Scale::Tiny);
    let split = Split::standard(&dataset);
    let mut cfg = TaxoRecConfig::fast_test();
    cfg.epochs = 2;
    let mut model = TaxoRec::new(cfg);
    model.fit(&dataset, &split);
    let served = ServingModel::from_model(&model, &dataset, &split).expect("snapshot");
    let reference = ServingModel::from_model(&model, &dataset, &split).expect("snapshot");
    (served, reference, dataset.n_users)
}

/// The exact `/recommend` wire body for a ranking — the same shape and
/// float formatting ([`push_f64`]) the server uses, rebuilt
/// independently so the comparison is byte-level.
///
/// [`push_f64`]: taxorec_telemetry::json::push_f64
fn expected_body(user: u32, k: usize, items: &[(u32, f64)]) -> String {
    let mut body = String::new();
    body.push_str("{\"user\":");
    body.push_str(&user.to_string());
    body.push_str(",\"k\":");
    body.push_str(&k.to_string());
    body.push_str(",\"items\":[");
    for (i, &(item, score)) in items.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str("{\"item\":");
        body.push_str(&item.to_string());
        body.push_str(",\"score\":");
        taxorec_telemetry::json::push_f64(&mut body, score);
        body.push('}');
    }
    body.push_str("]}");
    body
}

#[test]
fn concurrent_clients_get_bit_identical_responses_and_batches_form() {
    let _g = lock();
    let (served, reference, n_users) = two_engines();
    // One scorer, stalled inside its first batch (a primer request): the
    // concurrent burst below queues up behind it, and the scheduler takes
    // what queued as shared batches rather than 24 singleton ones.
    std::env::set_var("TAXOREC_FAULT_STALL_MS", "1000");
    install(FaultSpec::parse("stall@serve.batch:1").expect("spec"));
    let handle = serve_with(
        Arc::new(served),
        "127.0.0.1:0",
        ServeOptions {
            n_workers: 8,
            io_timeout: Duration::from_secs(5),
            batch: BatchOptions {
                max_batch: 32,
                queue_capacity: 1024,
                n_scorers: 1,
            },
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let addr = handle.local_addr();

    let batch_count = taxorec_telemetry::counter("serve.batch.batches");
    let primed_at = batch_count.get();
    // `k = 1` is a key no burst client asks for.
    let primer =
        std::thread::spawn(move || client::get(addr, "/recommend?user=0&k=1").map(|r| r.status));
    let give_up = std::time::Instant::now() + Duration::from_secs(10);
    while batch_count.get() == primed_at {
        assert!(
            std::time::Instant::now() < give_up,
            "scorer never took the primer"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let batches_before = batch_count.get();
    let n_clients = 24.min(n_users);
    let barrier = Arc::new(Barrier::new(n_clients));
    let mut clients = Vec::new();
    for c in 0..n_clients {
        let barrier = Arc::clone(&barrier);
        clients.push(std::thread::spawn(move || {
            let user = c as u32;
            let k = 3 + c % 9; // mixed k across the burst
            barrier.wait();
            let Response {
                status,
                body: response,
                ..
            } = client::get(addr, &format!("/recommend?user={user}&k={k}")).expect("response");
            (user, k, status, response)
        }));
    }
    let responses: Vec<(u32, usize, u16, String)> = clients
        .into_iter()
        .map(|t| t.join().expect("client"))
        .collect();
    assert_eq!(primer.join().expect("primer").expect("response"), 200);
    disable();
    std::env::remove_var("TAXOREC_FAULT_STALL_MS");

    for (user, k, status, response) in &responses {
        assert_eq!(*status, 200, "user {user}: {response}");
        let want = reference.recommend(*user, *k).expect("reference");
        assert_eq!(
            response,
            &expected_body(*user, *k, &want),
            "user {user} k {k}: batched response not bit-identical to sequential recommend"
        );
    }

    // The burst really was coalesced: fewer batches than requests, and
    // the size histogram saw a multi-request batch.
    let sizes = taxorec_telemetry::histogram("serve.batch.size");
    assert!(
        sizes.max() > 1.0,
        "no multi-request batch formed (max size {})",
        sizes.max()
    );
    let batches = batch_count.get() - batches_before;
    assert!(
        batches < n_clients as u64,
        "{n_clients} requests took {batches} batches — no coalescing"
    );

    // A repeat of any request is a cache hit answered inline — and still
    // byte-identical to the batched first answer.
    let (user, k, _, first) = &responses[0];
    let Response {
        status,
        body: again,
        ..
    } = client::get(addr, &format!("/recommend?user={user}&k={k}")).expect("response");
    assert_eq!(status, 200);
    assert_eq!(&again, first, "cache hit diverged");

    handle.shutdown();
}

#[test]
fn batched_unknown_user_still_maps_to_404() {
    let _g = lock();
    let (served, _reference, n_users) = two_engines();
    let handle = serve_with(
        Arc::new(served),
        "127.0.0.1:0",
        ServeOptions {
            n_workers: 2,
            io_timeout: Duration::from_secs(5),
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let addr = handle.local_addr();

    // Unknown users ride the batched path (they miss the cache) and must
    // come back as their own 404s without disturbing valid neighbors.
    let bad = n_users as u32 + 7;
    let Response {
        status,
        body: response,
        ..
    } = client::get(addr, &format!("/recommend?user={bad}&k=5")).expect("response");
    assert_eq!(status, 404, "{response}");
    assert!(response.contains("unknown user"), "{response}");

    let Response {
        status,
        body: response,
        ..
    } = client::get(addr, "/recommend?user=0&k=5").expect("response");
    assert_eq!(status, 200, "{response}");
    assert!(response.contains("\"items\":["), "{response}");

    handle.shutdown();
}
