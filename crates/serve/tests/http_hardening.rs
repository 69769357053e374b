//! Serve-layer hardening under hostile clients: stalled and garbage
//! requests, oversized heads, load shedding at queue capacity, and an
//! injected mid-request panic — in every case the server answers the
//! well-behaved client and stays up.
//!
//! The fault harness is process-global and the panic test arms it, so
//! every test here serializes on one lock.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
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

fn serving_model() -> ServingModel {
    let dataset = generate_preset(Preset::Ciao, Scale::Tiny);
    let split = Split::standard(&dataset);
    let mut cfg = TaxoRecConfig::fast_test();
    cfg.epochs = 2;
    let mut model = TaxoRec::new(cfg);
    model.fit(&dataset, &split);
    ServingModel::from_model(&model, &dataset, &split).expect("snapshot")
}

#[test]
fn stalled_client_is_disconnected_while_healthz_stays_live() {
    let _g = lock();
    let handle = serve_with(
        Arc::new(serving_model()),
        "127.0.0.1:0",
        ServeOptions {
            n_workers: 2,
            io_timeout: Duration::from_millis(300),
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let addr = handle.local_addr();

    // A client that sends half a request line and then goes silent.
    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stalled, "GET /recomm").expect("partial send");

    // The other worker keeps answering immediately.
    let Response { status, body, .. } = client::get(addr, "/healthz").expect("response");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ready\""), "{body}");

    // After the io deadline the stalled connection is rejected, not
    // held forever: the worker answers 400 and hangs up.
    let mut response = String::new();
    stalled.read_to_string(&mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(response.contains("timed-out"), "{response}");

    handle.shutdown();
}

#[test]
fn garbage_and_oversized_requests_get_400_not_a_crash() {
    let _g = lock();
    let handle = serve_with(
        Arc::new(serving_model()),
        "127.0.0.1:0",
        ServeOptions {
            n_workers: 2,
            max_request_bytes: 512,
            io_timeout: Duration::from_secs(2),
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let addr = handle.local_addr();

    // Invalid UTF-8 in the head.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(&[0xff, 0xfe, 0xfd, b'\r', b'\n', b'\r', b'\n'])
        .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");

    // A head larger than the cap (no terminator within 512 bytes).
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let huge = format!("GET /?junk={} HTTP/1.1\r\n\r\n", "x".repeat(4096));
    stream.write_all(huge.as_bytes()).expect("send");
    let mut response = String::new();
    // The server may reset the connection mid-upload after rejecting;
    // either a 400 response or an early disconnect is acceptable.
    let _ = stream.read_to_string(&mut response);
    assert!(
        response.is_empty() || response.starts_with("HTTP/1.1 400"),
        "{response}"
    );

    // The server is still fully functional afterwards.
    let Response { status, body, .. } = client::get(addr, "/healthz").expect("response");
    assert_eq!(status, 200, "{body}");
    handle.shutdown();
}

#[test]
fn full_queue_sheds_load_with_503_and_retry_after() {
    let _g = lock();
    let handle = serve_with(
        Arc::new(serving_model()),
        "127.0.0.1:0",
        ServeOptions {
            n_workers: 1,
            max_queue: 1,
            io_timeout: Duration::from_secs(2),
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let addr = handle.local_addr();

    // Occupy the only worker with a silent connection…
    let blocker = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(150));
    // …and fill the one queue slot with another.
    let queued = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(150));

    // The next connection must be shed immediately with 503. Shedding
    // happens at accept time, before any request is read — send nothing,
    // or the server's close-with-unread-data would RST the response away.
    let mut shed = TcpStream::connect(addr).expect("connect");
    shed.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut response = String::new();
    shed.read_to_string(&mut response)
        .expect("read shed response");
    assert!(response.starts_with("HTTP/1.1 503"), "{response}");
    assert!(response.contains("Retry-After:"), "{response}");
    assert!(response.contains("overloaded"), "{response}");

    drop(blocker);
    drop(queued);
    handle.shutdown();
}

#[test]
fn full_batch_queue_sheds_with_503_and_retry_after() {
    let _g = lock();
    // Wedge the (sole) scorer on every batch: each formed batch sleeps
    // 1.5 s before scoring, so the one-slot batch queue fills behind it.
    std::env::set_var("TAXOREC_FAULT_STALL_MS", "1500");
    install(FaultSpec::parse("stall@serve.batch:1+").expect("spec"));
    let handle = serve_with(
        Arc::new(serving_model()),
        "127.0.0.1:0",
        ServeOptions {
            n_workers: 4,
            io_timeout: Duration::from_secs(5),
            batch: BatchOptions {
                max_batch: 1,
                queue_capacity: 1,
                n_scorers: 1,
            },
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let addr = handle.local_addr();

    let send = |user: u32| {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write!(
            s,
            "GET /recommend?user={user}&k=3 HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        .expect("send");
        s
    };
    // R1 is taken by the scorer (which stalls); R2 fills the one queue
    // slot; R3 must be shed at submission with 503 + Retry-After,
    // *before* any scoring work.
    let mut r1 = send(0);
    std::thread::sleep(Duration::from_millis(300));
    let mut r2 = send(1);
    std::thread::sleep(Duration::from_millis(200));
    let mut r3 = send(2);
    let mut shed_response = String::new();
    r3.read_to_string(&mut shed_response).expect("read shed");
    assert!(shed_response.starts_with("HTTP/1.1 503"), "{shed_response}");
    assert!(shed_response.contains("Retry-After:"), "{shed_response}");
    assert!(shed_response.contains("overloaded"), "{shed_response}");

    // The admitted requests still complete once the stalls elapse —
    // shedding refused new work, it did not break queued work.
    for (user, s) in [(0u32, &mut r1), (1, &mut r2)] {
        let mut response = String::new();
        s.read_to_string(&mut response).expect("read admitted");
        assert!(
            response.starts_with("HTTP/1.1 200"),
            "user {user}: {response}"
        );
    }
    disable();
    std::env::remove_var("TAXOREC_FAULT_STALL_MS");
    handle.shutdown();
}

#[test]
fn panicking_batch_fails_only_its_own_requests() {
    let _g = lock();
    // Singleton batches make the blast radius exact: batch #1 (the first
    // request) panics; batches #2 and #3 must be untouched.
    install(FaultSpec::parse("panic@serve.batch:1").expect("spec"));
    let handle = serve_with(
        Arc::new(serving_model()),
        "127.0.0.1:0",
        ServeOptions {
            n_workers: 2,
            io_timeout: Duration::from_secs(5),
            batch: BatchOptions {
                max_batch: 1,
                queue_capacity: 16,
                n_scorers: 1,
            },
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let addr = handle.local_addr();

    let panics_before = taxorec_telemetry::counter("serve.batch.panics").get();
    let Response {
        status,
        body: response,
        ..
    } = client::get(addr, "/recommend?user=0&k=3").expect("response");
    assert_eq!(status, 500, "{response}");
    assert!(response.contains("internal error"), "{response}");
    disable();

    // The scorer survived; the next batches score normally.
    for user in [1u32, 2] {
        let Response { status, body, .. } =
            client::get(addr, &format!("/recommend?user={user}&k=3")).expect("response");
        assert_eq!(status, 200, "user {user}: {body}");
        assert!(body.contains("\"items\":["), "{body}");
    }
    // And the doomed request's user is not poisoned either — a retry
    // (now a cache miss again, since the panic cached nothing) succeeds.
    let Response { status, body, .. } =
        client::get(addr, "/recommend?user=0&k=3").expect("response");
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        taxorec_telemetry::counter("serve.batch.panics").get(),
        panics_before + 1,
        "exactly one batch failed"
    );

    handle.shutdown();
}

#[test]
fn slow_clients_cannot_stall_batched_scoring() {
    let _g = lock();
    let handle = serve_with(
        Arc::new(serving_model()),
        "127.0.0.1:0",
        ServeOptions {
            n_workers: 2,
            io_timeout: Duration::from_secs(5),
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let addr = handle.local_addr();

    // A trickling client occupies one parser worker (bounded by the io
    // deadline)…
    let mut trickler = TcpStream::connect(addr).expect("connect");
    write!(trickler, "GET /recomm").expect("partial send");
    // …and a client that submits a full batched request for the largest
    // reply (`k` at its maximum) but never reads it: the scorer that
    // writes it must not be held up by the unread bytes.
    let mut deaf = TcpStream::connect(addr).expect("connect");
    write!(
        deaf,
        "GET /recommend?user=1&k=1000 HTTP/1.1\r\nHost: x\r\n\r\n"
    )
    .expect("send");
    std::thread::sleep(Duration::from_millis(100));

    // A well-behaved cache-miss request still flows through the whole
    // pipeline — parse, batch, score, respond — far inside the io
    // deadline the slow clients are burning.
    let begin = std::time::Instant::now();
    let Response { status, body, .. } =
        client::get(addr, "/recommend?user=2&k=3").expect("response");
    let elapsed = begin.elapsed();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"items\":["), "{body}");
    assert!(
        elapsed < Duration::from_secs(2),
        "batched request stalled {elapsed:?} behind slow clients"
    );

    drop(trickler);
    drop(deaf);
    handle.shutdown();
}

#[test]
fn injected_request_panic_returns_500_and_the_worker_survives() {
    let _g = lock();
    let handle = serve_with(
        Arc::new(serving_model()),
        "127.0.0.1:0",
        ServeOptions {
            n_workers: 1,
            io_timeout: Duration::from_secs(2),
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let addr = handle.local_addr();

    install(FaultSpec::parse("panic@serve.request:1").expect("spec"));
    let Response {
        status,
        body: response,
        ..
    } = client::get(addr, "/recommend?user=0&k=3").expect("response");
    assert_eq!(status, 500, "{response}");
    assert!(response.contains("internal error"), "{response}");
    disable();

    // Same (sole) worker, next request: business as usual.
    let Response { status, body, .. } =
        client::get(addr, "/recommend?user=0&k=3").expect("response");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"items\":["), "{body}");
    let Response {
        status,
        body: metrics,
        ..
    } = client::get(addr, "/metrics.json").expect("response");
    assert_eq!(status, 200);
    assert!(metrics.contains("serve.http.panics"), "{metrics}");

    handle.shutdown();
}

/// Shutdown is a drain, not a drop: every connection that was already
/// queued behind a busy worker when the stop began is still answered,
/// and only then does the port close.
#[test]
fn shutdown_answers_every_connection_that_was_already_queued() {
    let _g = lock();
    let handle = serve_with(
        Arc::new(serving_model()),
        "127.0.0.1:0",
        ServeOptions {
            n_workers: 1,
            io_timeout: Duration::from_secs(1),
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let addr = handle.local_addr();

    // A silent connection pins the only worker until its read deadline…
    let blocker = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(150));
    // …so these three wait in the connection queue.
    const QUEUED: usize = 3;
    let clients: Vec<_> = (0..QUEUED)
        .map(|_| std::thread::spawn(move || client::get(addr, "/healthz")))
        .collect();
    let depth = taxorec_telemetry::gauge("serve.queue.depth");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while depth.get() < QUEUED as f64 {
        assert!(std::time::Instant::now() < deadline, "clients never queued");
        std::thread::sleep(Duration::from_millis(1));
    }

    handle.shutdown();
    for c in clients {
        let r = c
            .join()
            .expect("client")
            .expect("a queued connection is answered, not dropped");
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.body.contains("\"status\":\"draining\""), "{}", r.body);
    }
    drop(blocker);
    assert!(
        client::get(addr, "/healthz").is_err(),
        "listener still open"
    );
}
