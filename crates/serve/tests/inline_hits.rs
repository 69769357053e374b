//! The acceptor's inline path: a `/recommend` cache hit whose head
//! arrived with the connection is answered by the acceptor thread, with
//! the bytes a worker would have written, and everything else reaches a
//! worker exactly as before.
//!
//! Whether a head arrives before the acceptor's one read is a race the
//! client cannot control, so a test that needs the inline path asks
//! again until `serve.http.inline` moves. Telemetry counters, the fault
//! harness and the flight recorder are process-global, so every test
//! here serializes on one lock and reads counters as deltas.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::time::{Duration, Instant};

use taxorec_core::{TaxoRec, TaxoRecConfig};
use taxorec_data::{generate_preset, Preset, Recommender, Scale, Split};
use taxorec_resilience::{disable, install, FaultSpec};
use taxorec_serve::client::{self, Response, Timeouts};
use taxorec_serve::{serve_with, ServeOptions, ServerHandle, ServingModel};
use taxorec_telemetry::{counter, flight};

/// Attempts at landing a request on the inline path.
const ATTEMPTS: usize = 50;

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

fn server(n_workers: usize, io_timeout: Duration) -> ServerHandle {
    let opts = ServeOptions {
        n_workers,
        io_timeout,
        ..ServeOptions::default()
    };
    serve_with(Arc::new(serving_model()), "127.0.0.1:0", opts).expect("bind")
}

/// A response head without its `x-taxorec-trace` line, which is the one
/// header that differs between two answers to the same request.
fn untraced(head: &str) -> String {
    let lines = head.lines().filter(|l| !l.starts_with("x-taxorec-trace:"));
    lines.collect::<Vec<_>>().join("\r\n")
}

/// An armed fault spec, disarmed on drop — also when the test fails
/// while it is armed, so the tests after it run unfaulted.
///
/// While armed, a panic prints its message and no backtrace. Every
/// request that misses the acceptor panics on a worker, and with
/// `RUST_BACKTRACE=1` the default hook resolves a backtrace for each,
/// milliseconds of work in a debug build. With that hook in force one
/// miss kept following another: about one debug run in ten lost all of
/// `ATTEMPTS` to the workers, where a run otherwise loses a request to
/// a worker now and then and lands the next.
struct Armed;

/// Set while an [`Armed`] lives: the panic hook skips the backtrace.
static QUIET_PANICS: AtomicBool = AtomicBool::new(false);

impl Armed {
    fn with(spec: &str) -> Self {
        // Installed once and switched by the flag: `Drop` may run while
        // the test unwinds, where `set_hook` would panic again.
        static HOOK: Once = Once::new();
        HOOK.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if QUIET_PANICS.load(Ordering::SeqCst) {
                    eprintln!("{info}");
                } else {
                    default(info);
                }
            }));
        });
        QUIET_PANICS.store(true, Ordering::SeqCst);
        install(FaultSpec::parse(spec).expect("spec"));
        Armed
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        disable();
        QUIET_PANICS.store(false, Ordering::SeqCst);
    }
}

/// `GET target` on fresh connections until the acceptor answers one
/// (`serve.http.inline` moves); every attempt that did not land there
/// is dropped. Returns the inline answer and how long it took.
fn get_inline(addr: SocketAddr, target: &str, io: Duration) -> (Response, Duration) {
    let inline = counter("serve.http.inline");
    for _ in 0..ATTEMPTS {
        let before = inline.get();
        let timeouts = Timeouts {
            connect: Duration::from_secs(1),
            io,
        };
        let started = Instant::now();
        let answered = client::request(addr, "GET", target, "", "", timeouts);
        if inline.get() > before {
            let response = answered.expect("an inline answer reaches the client");
            return (response, started.elapsed());
        }
    }
    panic!("{ATTEMPTS} requests for {target} and none was answered by the acceptor");
}

#[test]
fn a_hit_is_answered_while_the_only_worker_is_held_by_a_silent_connection() {
    let _g = lock();
    let handle = server(1, Duration::from_secs(3));
    let addr = handle.local_addr();
    let target = "/recommend?user=0&k=5";
    // A miss, ranked and written by a scorer: the worker path's bytes.
    let primed = client::get(addr, target).expect("prime");
    assert_eq!(primed.status, 200, "{}", primed.body);

    // Connected and silent: the acceptor's read finds nothing, so the
    // connection goes to the only worker, which waits on it for the
    // whole deadline.
    let silent = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(50));

    let (hit, took) = get_inline(addr, target, Duration::from_millis(500));
    assert!(took < Duration::from_secs(1), "the hit took {took:?}");
    assert_eq!(hit.status, 200, "{}", hit.body);
    assert_eq!(hit.body, primed.body, "same body as the worker path");
    assert_eq!(untraced(&hit.head), untraced(&primed.head));
    drop(silent);
    handle.shutdown();
}

#[test]
fn a_head_split_across_the_accept_is_answered_by_a_worker_with_the_same_bytes() {
    let _g = lock();
    let handle = server(2, Duration::from_secs(2));
    let addr = handle.local_addr();
    let target = "/recommend?user=1&k=4";
    let primed = client::get(addr, target).expect("prime");
    assert_eq!(primed.status, 200, "{}", primed.body);

    let (inline, hits) = (counter("serve.http.inline"), counter("serve.cache.hit"));
    let (inline_before, hits_before) = (inline.get(), hits.get());
    let request = format!("GET {target} HTTP/1.1\r\nHost: {addr}\r\n\r\n");
    let (first, rest) = request.as_bytes().split_at(request.len() / 2);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(first).expect("first half");
    std::thread::sleep(Duration::from_millis(50));
    stream.write_all(rest).expect("second half");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let (head, body) = raw.split_once("\r\n\r\n").expect("a whole head");

    assert!(head.starts_with("HTTP/1.1 200 OK"), "{raw}");
    assert_eq!(body, primed.body);
    assert_eq!(untraced(head), untraced(&primed.head));
    assert_eq!(inline.get(), inline_before, "a partial head is a worker's");
    assert_eq!(hits.get(), hits_before + 1, "the worker's probe hit");
    handle.shutdown();
}

#[test]
fn a_panic_on_the_acceptor_answers_500_with_a_dump_and_the_next_hit_is_200() {
    let _g = lock();
    let dump_dir = std::env::temp_dir().join(format!("taxorec-inline-test-{}", std::process::id()));
    std::fs::create_dir_all(&dump_dir).expect("mkdir");
    flight::set_dump_dir(&dump_dir);
    let handle = server(1, Duration::from_secs(2));
    let addr = handle.local_addr();
    let target = "/recommend?user=2&k=3";
    let primed = client::get(addr, target).expect("prime");
    assert_eq!(primed.status, 200, "{}", primed.body);

    let panics = counter("serve.http.panics");
    let panics_before = panics.get();
    // Armed for every probe: whichever thread answers, it panics, and
    // the acceptor probes only the hits it answers.
    let armed = Armed::with("panic@serve.request:1+");
    let (failed, _) = get_inline(addr, target, Duration::from_secs(2));
    drop(armed);
    assert_eq!(failed.status, 500, "{}", failed.body);
    assert!(failed.body.contains("internal error"), "{}", failed.body);
    assert!(panics.get() > panics_before);
    let dumped = std::fs::read_dir(&dump_dir)
        .expect("read dump dir")
        .filter_map(|e| e.ok())
        .any(|e| {
            let name = e.file_name();
            name.to_string_lossy()
                .starts_with("flight-serve.request.panic-")
        });
    assert!(dumped, "no flight dump in {}", dump_dir.display());

    // The acceptor lives on: the next hit is answered there again.
    let (next, _) = get_inline(addr, target, Duration::from_secs(2));
    assert_eq!(next.status, 200, "{}", next.body);
    assert_eq!(next.body, primed.body);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dump_dir);
}

#[test]
fn every_hit_and_every_miss_is_counted_once() {
    let _g = lock();
    let handle = server(2, Duration::from_secs(2));
    let addr = handle.local_addr();
    let (hits, misses) = (counter("serve.cache.hit"), counter("serve.cache.miss"));
    let (hits_before, misses_before) = (hits.get(), misses.get());
    let (cold, hot) = (12u32, 40u32);
    for user in 0..cold {
        let r = client::get(addr, &format!("/recommend?user={user}&k=6")).expect("cold");
        assert_eq!(r.status, 200, "{}", r.body);
    }
    for i in 0..hot {
        let r = client::get(addr, &format!("/recommend?user={}&k=6", i % cold)).expect("hot");
        assert_eq!(r.status, 200, "{}", r.body);
    }
    assert_eq!(misses.get() - misses_before, u64::from(cold));
    assert_eq!(hits.get() - hits_before, u64::from(hot));
    handle.shutdown();
}

#[test]
fn the_largest_hit_has_the_bytes_of_the_largest_miss() {
    let _g = lock();
    let handle = server(2, Duration::from_secs(2));
    let addr = handle.local_addr();
    // k = MAX_K: a reply the socket may not take in one non-blocking
    // write, so its tail may go to a worker.
    let target = "/recommend?user=3&k=1000";
    let primed = client::get(addr, target).expect("prime");
    assert_eq!(primed.status, 200, "{}", primed.body);
    let (hit, _) = get_inline(addr, target, Duration::from_secs(2));
    assert_eq!(hit.status, 200);
    assert_eq!(hit.body, primed.body);
    assert_eq!(untraced(&hit.head), untraced(&primed.head));
    handle.shutdown();
}
