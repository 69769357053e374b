//! The serving telemetry a request moves, pinned to exact counts, and
//! the response cache's bytes across a checkpoint reload.
//!
//! One scripted mix runs against one in-process server: inline hits, a
//! worker hit, a batched miss, a `400`, two `404`s and `/healthz`. Each
//! series it touches must move by exactly what the mix implies. A hit is
//! answered by the acceptor only when its whole head arrives with the
//! connection, which the client cannot force, so the inline hit is asked
//! for until `serve.http.inline` moves and every attempt is counted.
//!
//! A request's endpoint series are recorded after its reply is written,
//! so a client can read the reply first: counts are polled until they
//! match or a deadline passes. Counters are process-global, so every
//! test here serializes on one lock and reads deltas.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use taxorec_core::{TaxoRec, TaxoRecConfig};
use taxorec_data::{generate_preset, Preset, Recommender, Scale, Split};
use taxorec_serve::client::{self, Response, Timeouts};
use taxorec_serve::{serve_with, Checkpoint, ServeOptions, ServerHandle};
use taxorec_telemetry::{counter, histogram};

/// Attempts at landing a request on the inline path.
const ATTEMPTS: usize = 50;
/// How long recorded-after-the-write series may lag the client.
const SETTLE: Duration = Duration::from_secs(3);

fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn checkpoint(epochs: usize) -> Checkpoint {
    let dataset = generate_preset(Preset::Ciao, Scale::Tiny);
    let split = Split::standard(&dataset);
    let mut cfg = TaxoRecConfig::fast_test();
    cfg.epochs = epochs;
    let mut model = TaxoRec::new(cfg);
    model.fit(&dataset, &split);
    Checkpoint::from_model(&model)
        .with_dataset(&dataset)
        .with_seen_items(&split.train)
}

fn server(ckpt: Checkpoint) -> ServerHandle {
    let model = taxorec_serve::ServingModel::new(ckpt).expect("model");
    let opts = ServeOptions {
        n_workers: 2,
        io_timeout: Duration::from_secs(2),
        ..ServeOptions::default()
    };
    serve_with(Arc::new(model), "127.0.0.1:0", opts).expect("bind")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("taxorec-pinning-{}-{name}", std::process::id()))
}

/// Every series the mix reads, by name.
const COUNTERS: [&str; 10] = [
    "serve.http.requests",
    "serve.http.recommend.requests",
    "serve.http.recommend.errors",
    "serve.http.healthz.requests",
    "serve.http.healthz.errors",
    "serve.http.other.requests",
    "serve.http.other.errors",
    "serve.cache.hit",
    "serve.cache.miss",
    "serve.http.inline",
];

/// The counters above, then the `serve.http.recommend.ms` count.
fn read() -> Vec<u64> {
    let mut now: Vec<u64> = COUNTERS.iter().map(|name| counter(name).get()).collect();
    now.push(histogram("serve.http.recommend.ms").count());
    now
}

/// Polls until every series has moved by exactly `want` since `before`
/// or [`SETTLE`] passes, then holds the deltas to `want`, named.
fn assert_deltas(before: &[u64], want: &[u64]) {
    let deadline = Instant::now() + SETTLE;
    let deltas = loop {
        let deltas: Vec<u64> = read().iter().zip(before).map(|(a, b)| a - b).collect();
        if deltas == want || Instant::now() > deadline {
            break deltas;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let names = COUNTERS
        .iter()
        .copied()
        .chain(["serve.http.recommend.ms count"]);
    for ((name, got), want) in names.zip(&deltas).zip(want) {
        assert_eq!(got, want, "{name} moved by {got}, expected {want}");
    }
}

/// `GET target` on fresh connections until the acceptor answers one;
/// returns its response and how many requests it took.
fn get_inline(addr: SocketAddr, target: &str) -> (Response, u64) {
    let inline = counter("serve.http.inline");
    for attempt in 1..=ATTEMPTS {
        let before = inline.get();
        let timeouts = Timeouts {
            connect: Duration::from_secs(1),
            io: Duration::from_secs(2),
        };
        let response = client::request(addr, "GET", target, "", "", timeouts).expect("answer");
        assert_eq!(response.status, 200, "{}", response.body);
        if inline.get() > before {
            return (response, attempt as u64);
        }
    }
    panic!("{ATTEMPTS} requests for {target} and none was answered by the acceptor");
}

/// `GET target` written only after the acceptor's one read has found
/// nothing, so a worker reads and answers it.
fn get_on_worker(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let request = format!("GET {target} HTTP/1.1\r\nHost: {addr}\r\n\r\n");
    stream.write_all(request.as_bytes()).expect("write");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let (head, body) = raw.split_once("\r\n\r\n").expect("a whole head");
    let status = head.split_whitespace().nth(1).expect("status").parse();
    (status.expect("numeric status"), body.to_string())
}

#[test]
fn a_scripted_mix_moves_every_series_by_exactly_its_count() {
    let _g = lock();
    let handle = server(checkpoint(2));
    let addr = handle.local_addr();
    let get = |target: &str| client::get(addr, target).expect("response");

    // The batched miss that primes the key.
    let before = read();
    let primed = get("/recommend?user=0&k=5");
    assert_eq!(primed.status, 200, "{}", primed.body);
    //                requests rec.req rec.err hz.req hz.err oth.req oth.err hit miss inline rec.ms
    assert_deltas(&before, &[1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 1]);

    // Inline hits: the last attempt was the acceptor's, every earlier
    // one a worker's hit.
    let before = read();
    let (hit, attempts) = get_inline(addr, "/recommend?user=0&k=5");
    assert_eq!(hit.body, primed.body);
    let n = attempts;
    assert_deltas(&before, &[n, n, 0, 0, 0, 0, 0, n, 0, 1, n]);

    // A worker hit: the head arrives after the acceptor's read.
    let before = read();
    let (status, body) = get_on_worker(addr, "/recommend?user=0&k=5");
    assert_eq!((status, body.as_str()), (200, primed.body.as_str()));
    assert_deltas(&before, &[1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1]);

    // A 400: a bad `k` is refused before the cache is probed.
    let before = read();
    assert_eq!(get("/recommend?user=0&k=many").status, 400);
    assert_deltas(&before, &[1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1]);

    // A 404 for an unknown user: probed (a miss), then refused by the
    // scorer's batch.
    let before = read();
    assert_eq!(get("/recommend?user=4000000&k=5").status, 404);
    assert_deltas(&before, &[1, 1, 1, 0, 0, 0, 0, 0, 1, 0, 1]);

    // A 404 for no route.
    let before = read();
    assert_eq!(get("/no/such/route").status, 404);
    assert_deltas(&before, &[1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0]);

    // /healthz.
    let before = read();
    assert_eq!(get("/healthz").status, 200);
    assert_deltas(&before, &[1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]);

    // A second key: a batched miss, then a worker hit.
    let before = read();
    let other = get("/recommend?user=1&k=3");
    assert_eq!(other.status, 200, "{}", other.body);
    let (status, body) = get_on_worker(addr, "/recommend?user=1&k=3");
    assert_eq!((status, body.as_str()), (200, other.body.as_str()));
    assert_deltas(&before, &[2, 2, 0, 0, 0, 0, 0, 1, 1, 0, 2]);
    handle.shutdown();
}

#[test]
fn a_key_primed_before_a_reload_answers_with_the_new_generations_bytes() {
    let _g = lock();
    let target = "/recommend?user=2&k=6";
    let next = checkpoint(4);
    let path = tmp("next.taxo");
    next.save(&path).expect("save");

    // The bytes the next generation serves, from a server of its own.
    let reference = server(Checkpoint::load_file(&path).expect("load"));
    let want = client::get(reference.local_addr(), target).expect("reference");
    assert_eq!(want.status, 200, "{}", want.body);
    reference.shutdown();

    let handle = server(checkpoint(2));
    let addr = handle.local_addr();
    let primed = client::get(addr, target).expect("prime");
    assert_eq!(primed.status, 200, "{}", primed.body);
    let (old_hit, _) = get_inline(addr, target);
    assert_eq!(old_hit.body, primed.body);
    assert_ne!(
        primed.body, want.body,
        "the two generations must rank differently"
    );

    let reload = format!("/admin/reload?path={}", path.to_str().expect("utf-8 path"));
    let reloaded = client::get(addr, &reload).expect("reload");
    assert_eq!(reloaded.status, 200, "{}", reloaded.body);

    // The new generation starts cold: its first answer is a miss, then
    // the acceptor and a worker both answer from its cache.
    let first = client::get(addr, target).expect("first");
    assert_eq!(first.body, want.body, "first answer after the reload");
    let (inline, _) = get_inline(addr, target);
    assert_eq!(inline.body, want.body, "inline hit after the reload");
    let (status, body) = get_on_worker(addr, target);
    assert_eq!(
        (status, body.as_str()),
        (200, want.body.as_str()),
        "worker hit"
    );
    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}
