//! In-process sharded-tier tests: router failover, hedging, 503
//! behavior, aggregated health, warm checkpoint reload, degraded-spawn
//! health transitions of shard and router, and trace adoption
//! (DESIGN.md §16).
//!
//! Everything here runs router and shards inside one test process so
//! the assertions can be exact (byte-identical bodies, telemetry
//! counters); the process-level chaos drill (spawned binaries, real
//! SIGKILL) lives in `shard_chaos.rs`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use taxorec_core::{TaxoRec, TaxoRecConfig};
use taxorec_data::{generate_preset, Preset, Recommender, Scale, Split};
use taxorec_resilience::{disable, install, FaultSpec};
use taxorec_serve::client::{self, Response, Timeouts};
use taxorec_serve::router::healthz_users;
use taxorec_serve::{
    route_with, serve_with, Checkpoint, Health, Ring, RouterOptions, ServeOptions, ServingModel,
};
use taxorec_telemetry::json::{self, Value};

/// The fault harness and the telemetry registry are process-global;
/// tests that arm faults or read counters serialize on one lock.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn trained_model(epochs: usize) -> (TaxoRec, taxorec_data::Dataset, Split) {
    let dataset = generate_preset(Preset::Ciao, Scale::Tiny);
    let split = Split::standard(&dataset);
    let mut cfg = TaxoRecConfig::fast_test();
    cfg.epochs = epochs;
    let mut model = TaxoRec::new(cfg);
    model.fit(&dataset, &split);
    (model, dataset, split)
}

fn serving_model() -> ServingModel {
    let (model, dataset, split) = trained_model(2);
    ServingModel::from_model(&model, &dataset, &split).expect("snapshot")
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("taxorec-shardtest-{}-{name}", std::process::id()))
}

/// Saves a freshly trained artifact (`epochs` controls its bytes/CRC).
fn save_artifact(name: &str, epochs: usize) -> std::path::PathBuf {
    let (model, dataset, split) = trained_model(epochs);
    let path = tmp(name);
    Checkpoint::from_model(&model)
        .with_dataset(&dataset)
        .with_seen_items(&split.train)
        .save(&path)
        .expect("save artifact");
    path
}

fn shard_opts(id: &str) -> ServeOptions {
    ServeOptions {
        n_workers: 2,
        shard_id: Some(id.to_string()),
        ..ServeOptions::default()
    }
}

fn fast_router_opts() -> RouterOptions {
    RouterOptions {
        probe_interval: Duration::from_millis(100),
        connect_timeout: Duration::from_millis(200),
        hedge_after: Duration::from_millis(50),
        deadline: Duration::from_secs(3),
        ..RouterOptions::default()
    }
}

#[test]
fn router_proxies_bit_identically_and_fails_over_when_a_shard_dies() {
    let _g = lock();
    let model = Arc::new(serving_model());
    let n_users = model.n_users().min(24) as u32;
    let mut shards = Vec::new();
    for i in 0..3 {
        shards.push(
            serve_with(
                Arc::clone(&model),
                "127.0.0.1:0",
                shard_opts(&format!("s{i}")),
            )
            .expect("shard"),
        );
    }
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.local_addr()).collect();
    let router = route_with(addrs.clone(), "127.0.0.1:0", fast_router_opts()).expect("router");

    // Reference: every shard serves the same model, so shard 0 direct
    // is the single-process baseline for byte-identical bodies.
    let mut expected = Vec::new();
    for u in 0..n_users {
        let Response { status, body, .. } =
            client::get(addrs[0], &format!("/recommend?user={u}&k=5")).expect("response");
        assert_eq!(status, 200, "reference shard failed for user {u}");
        expected.push(body);
    }
    for u in 0..n_users {
        let Response {
            status, head, body, ..
        } = client::get(router.local_addr(), &format!("/recommend?user={u}&k=5"))
            .expect("response");
        assert_eq!(status, 200, "router failed for user {u}");
        assert_eq!(
            body, expected[u as usize],
            "user {u} body differs via router"
        );
        assert!(
            head.contains("x-taxorec-shard: "),
            "missing shard header:\n{head}"
        );
    }

    // Kill shard 1 (shutdown closes its listener → connections refused,
    // exactly what a dead process looks like to the router) and verify
    // every user keeps getting a byte-identical answer — users owned by
    // the dead shard fail over, the rest are untouched.
    let ring = Ring::new(3);
    let dead: u32 = 1;
    let owned_by_dead = (0..n_users).filter(|&u| ring.owner(u) == dead).count();
    assert!(owned_by_dead > 0, "test needs a user owned by shard 1");
    shards.remove(1).shutdown();
    for u in 0..n_users {
        let Response {
            status, head, body, ..
        } = client::get(router.local_addr(), &format!("/recommend?user={u}&k=5"))
            .expect("response");
        assert_eq!(status, 200, "user {u} unavailable after shard death");
        assert_eq!(
            body, expected[u as usize],
            "user {u} body changed after failover"
        );
        if ring.owner(u) == dead {
            let served_by = head
                .lines()
                .find_map(|l| l.strip_prefix("x-taxorec-shard: "))
                .and_then(|s| s.trim().parse::<u32>().ok())
                .expect("shard header");
            assert_ne!(served_by, dead, "user {u} answered by a dead shard");
        }
    }

    // The prober eventually reports the dead shard down on /healthz.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let body = client::get(router.local_addr(), "/healthz")
            .expect("response")
            .body;
        if body.contains("\"state\":\"down\"") && body.contains("\"up\":2") {
            assert!(body.contains("\"status\":\"degraded\""), "{body}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "router never noticed the dead shard: {body}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    router.shutdown();
}

#[test]
fn router_answers_503_with_retry_after_when_every_shard_is_gone() {
    let _g = lock();
    let model = Arc::new(serving_model());
    let shard = serve_with(model, "127.0.0.1:0", shard_opts("only")).expect("shard");
    let addr = shard.local_addr();
    let mut opts = fast_router_opts();
    opts.deadline = Duration::from_millis(800);
    let router = route_with(vec![addr], "127.0.0.1:0", opts).expect("router");
    shard.shutdown();
    // Whether the prober has marked the shard down yet or the proxy
    // exhausts its candidates live, the client-visible contract is the
    // same: 503 plus Retry-After, never a hang.
    let Response {
        status, head, body, ..
    } = client::get(router.local_addr(), "/recommend?user=0&k=3").expect("response");
    assert_eq!(status, 503, "head: {head}\nbody: {body}");
    assert!(head.contains("Retry-After:"), "no Retry-After:\n{head}");
    router.shutdown();
}

#[test]
fn hedged_request_routes_around_a_black_hole_shard() {
    let _g = lock();
    let model = Arc::new(serving_model());
    let healthy = serve_with(model, "127.0.0.1:0", shard_opts("ok")).expect("shard");

    // A black hole: accepts connections and then says nothing — the
    // shape of a wedged process (`stall@serve.request`), as opposed to
    // a dead one (connection refused).
    let black_hole = TcpListener::bind("127.0.0.1:0").expect("bind");
    let bh_addr = black_hole.local_addr().unwrap();
    let swallow = Arc::new(AtomicBool::new(true));
    let swallowed = Arc::new(AtomicUsize::new(0));
    {
        let swallow = Arc::clone(&swallow);
        let swallowed = Arc::clone(&swallowed);
        std::thread::spawn(move || {
            let mut held = Vec::new();
            while swallow.load(Ordering::SeqCst) {
                if let Ok((conn, _)) = black_hole.accept() {
                    swallowed.fetch_add(1, Ordering::SeqCst);
                    held.push(conn); // keep it open, never respond
                }
            }
        });
    }

    // Long probe interval: the first probe round is still in flight
    // (reading the black hole until its deadline) when the request
    // below runs, so shard 0 is still `unknown` → routable, and the
    // hedge — not the prober — is what saves the request.
    let mut opts = fast_router_opts();
    opts.probe_interval = Duration::from_secs(30);
    let hedge_fired_before = taxorec_telemetry::counter("router.hedge.fired").get();
    // The black hole owns slot 0; pick a user it owns so the first
    // attempt stalls there.
    let router =
        route_with(vec![bh_addr, healthy.local_addr()], "127.0.0.1:0", opts).expect("router");
    let ring = Ring::new(2);
    let user = (0..1000u32)
        .find(|&u| ring.owner(u) == 0)
        .expect("owned user");

    let start = Instant::now();
    let Response { status, body, .. } =
        client::get(router.local_addr(), &format!("/recommend?user={user}&k=3")).expect("response");
    let elapsed = start.elapsed();
    assert_eq!(status, 200, "{body}");
    assert!(
        elapsed < Duration::from_secs(2),
        "hedge should answer in ~hedge_after, took {elapsed:?}"
    );
    assert!(
        swallowed.load(Ordering::SeqCst) >= 1,
        "request never touched the black hole — test routed wrong"
    );
    assert!(
        taxorec_telemetry::counter("router.hedge.fired").get() > hedge_fired_before,
        "hedge counter did not move"
    );
    swallow.store(false, Ordering::SeqCst);
    // Unblock the accept loop.
    let _ = TcpStream::connect(bh_addr);
    router.shutdown();
}

#[test]
fn router_healthz_aggregates_shard_identity_and_checkpoint_fingerprint() {
    let _g = lock();
    let path = save_artifact("agg.taxo", 2);
    let expected_crc = Checkpoint::load_file(&path)
        .expect("load")
        .artifact
        .expect("artifact info")
        .crc;
    let mut shards = Vec::new();
    for i in 0..2 {
        let model = taxorec_serve::load(&path).expect("load artifact");
        shards.push(
            serve_with(
                Arc::new(model),
                "127.0.0.1:0",
                shard_opts(&format!("shard-{i}")),
            )
            .expect("shard"),
        );
    }
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.local_addr()).collect();
    let router = route_with(addrs, "127.0.0.1:0", fast_router_opts()).expect("router");

    // Shard-side /healthz reports its own identity + checkpoint + size.
    let shard_health = client::get(shards[0].local_addr(), "/healthz")
        .expect("response")
        .body;
    let n_users = healthz_users(&shard_health).expect("shard reports its user count");
    assert!(n_users > 0, "{shard_health}");
    assert!(
        shard_health.contains("\"shard\":{\"id\":\"shard-0\""),
        "{shard_health}"
    );
    assert!(
        shard_health.contains(&format!("\"crc\":{expected_crc}")),
        "{shard_health}"
    );

    // Router-side aggregation scrapes both (needs a probe round).
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let body = client::get(router.local_addr(), "/healthz")
            .expect("response")
            .body;
        if body.contains("\"id\":\"shard-0\"")
            && body.contains("\"id\":\"shard-1\"")
            && body.contains(&format!("\"crc\":{expected_crc}"))
        {
            assert!(body.contains("\"status\":\"ready\""), "{body}");
            assert!(body.contains("\"breaker\":\"closed\""), "{body}");
            // The fleet's user count, top level, where `taxorec-loadgen
            // --addr <router>` reads it with this same parse.
            assert!(
                body.contains(&format!("\"total\":2,\"users\":{n_users},")),
                "{body}"
            );
            assert_eq!(healthz_users(&body), Some(n_users), "{body}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "router healthz never aggregated shard identity: {body}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    router.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// Regression: the prober scanned `/healthz` for `"id":"` up to the
/// next `"`, so a shard id holding a quote or a backslash reached the
/// router's `/healthz` cut short. It reads the parsed body by path now.
#[test]
fn router_healthz_reports_a_shard_id_with_quotes_and_backslashes_intact() {
    let _g = lock();
    let id = "a\"b\\c";
    let shard =
        serve_with(Arc::new(serving_model()), "127.0.0.1:0", shard_opts(id)).expect("shard");
    let router =
        route_with(vec![shard.local_addr()], "127.0.0.1:0", fast_router_opts()).expect("router");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let body = client::get(router.local_addr(), "/healthz")
            .expect("response")
            .body;
        let health = json::parse(&body).expect("router /healthz is JSON");
        let Some(Value::Arr(shards)) = health.get("shards") else {
            panic!("no shards array: {body}");
        };
        match shards[0].get("id") {
            Some(Value::Null) => {}
            reported => {
                assert_eq!(reported.and_then(Value::as_str), Some(id), "{body}");
                break;
            }
        }
        assert!(
            Instant::now() < deadline,
            "router never reported the shard id: {body}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    router.shutdown();
    shard.shutdown();
}

#[test]
fn admin_reload_swaps_checkpoint_warm_with_zero_downtime() {
    let _g = lock();
    let path_a = save_artifact("reload-a.taxo", 2);
    let path_b = save_artifact("reload-b.taxo", 3);
    let crc_a = Checkpoint::load_file(&path_a)
        .unwrap()
        .artifact
        .unwrap()
        .crc;
    let crc_b = Checkpoint::load_file(&path_b)
        .unwrap()
        .artifact
        .unwrap()
        .crc;
    assert_ne!(crc_a, crc_b, "test needs two distinct artifacts");

    let model = taxorec_serve::load(&path_a).expect("load A");
    let handle = serve_with(Arc::new(model), "127.0.0.1:0", shard_opts("r0")).expect("serve");
    let addr = handle.local_addr();
    let health = client::get(addr, "/healthz").expect("response").body;
    assert!(health.contains(&format!("\"crc\":{crc_a}")), "{health}");

    // Hammer /recommend throughout the reload; every request must get
    // a 200 — the swap is one Arc exchange, never an outage.
    let stop = Arc::new(AtomicBool::new(false));
    let failures = Arc::new(AtomicUsize::new(0));
    let attempts = Arc::new(AtomicUsize::new(0));
    let hammer = {
        let stop = Arc::clone(&stop);
        let failures = Arc::clone(&failures);
        let attempts = Arc::clone(&attempts);
        std::thread::spawn(move || {
            let mut u = 0u32;
            while !stop.load(Ordering::SeqCst) {
                let status = client::get(addr, &format!("/recommend?user={}&k=4", u % 16))
                    .expect("response")
                    .status;
                attempts.fetch_add(1, Ordering::SeqCst);
                if status != 200 {
                    failures.fetch_add(1, Ordering::SeqCst);
                }
                u = u.wrapping_add(1);
            }
        })
    };
    std::thread::sleep(Duration::from_millis(50));
    let Response { status, body, .. } = client::get(
        addr,
        &format!("/admin/reload?path={}", path_b.to_str().unwrap()),
    )
    .expect("response");
    assert_eq!(status, 200, "reload failed: {body}");
    assert!(body.contains("\"status\":\"reloaded\""), "{body}");
    assert!(
        body.contains(&format!("\"crc\":{crc_a}")),
        "old info missing: {body}"
    );
    assert!(
        body.contains(&format!("\"crc\":{crc_b}")),
        "new info missing: {body}"
    );
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::SeqCst);
    hammer.join().unwrap();
    assert!(
        attempts.load(Ordering::SeqCst) > 0,
        "hammer never got a request in"
    );
    assert_eq!(
        failures.load(Ordering::SeqCst),
        0,
        "requests failed during warm reload"
    );

    // The served checkpoint identity followed the swap.
    let health = client::get(addr, "/healthz").expect("response").body;
    assert!(health.contains(&format!("\"crc\":{crc_b}")), "{health}");
    assert!(
        health.contains("\"status\":\"ready\""),
        "health not restored: {health}"
    );

    // A bad path keeps the current model and answers 500.
    let Response { status, body, .. } =
        client::get(addr, "/admin/reload?path=/nonexistent/x.taxo").expect("response");
    assert_eq!(status, 500, "{body}");
    let health = client::get(addr, "/healthz").expect("response").body;
    assert!(
        health.contains(&format!("\"crc\":{crc_b}")),
        "failed reload must keep the current model: {health}"
    );
    let status = client::get(addr, "/recommend?user=0&k=3")
        .expect("response")
        .status;
    assert_eq!(status, 200, "serving broken after failed reload");

    handle.shutdown();
    let _ = std::fs::remove_file(&path_a);
    let _ = std::fs::remove_file(&path_b);
}

#[test]
fn admin_endpoints_can_be_disabled() {
    let _g = lock();
    let model = Arc::new(serving_model());
    let handle = serve_with(
        model,
        "127.0.0.1:0",
        ServeOptions {
            admin: false,
            ..shard_opts("locked")
        },
    )
    .expect("serve");
    let status = client::get(handle.local_addr(), "/admin/drain")
        .expect("response")
        .status;
    assert_eq!(status, 404);
    let status = client::get(handle.local_addr(), "/admin/reload?path=/tmp/x.taxo")
        .expect("response")
        .status;
    assert_eq!(status, 404);
    handle.shutdown();
}

#[test]
fn health_transitions_ready_degraded_draining_under_injected_worker_loss() {
    let _g = lock();
    // Arm the spawn-failure site: the second parser worker is lost, so
    // the server comes up degraded (reduced pool) but serving.
    install(FaultSpec::parse("io@serve.spawn:2").expect("spec"));
    let model = Arc::new(serving_model());
    let handle = serve_with(
        model,
        "127.0.0.1:0",
        ServeOptions {
            n_workers: 3,
            ..shard_opts("hurt")
        },
    )
    .expect("serve");
    disable();
    assert_eq!(handle.health(), Health::Degraded);
    let Response { status, body, .. } =
        client::get(handle.local_addr(), "/healthz").expect("response");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"degraded\""), "{body}");

    // /admin/drain advertises draining while every endpoint keeps
    // answering — the router-visible first phase of a graceful stop.
    let Response { status, body, .. } =
        client::get(handle.local_addr(), "/admin/drain").expect("response");
    assert_eq!(status, 200, "{body}");
    assert_eq!(handle.health(), Health::Draining);
    let body = client::get(handle.local_addr(), "/healthz")
        .expect("response")
        .body;
    assert!(body.contains("\"status\":\"draining\""), "{body}");
    let status = client::get(handle.local_addr(), "/recommend?user=0&k=3")
        .expect("response")
        .status;
    assert_eq!(status, 200, "draining must keep serving");
    handle.shutdown();
}

#[test]
fn router_reports_degraded_when_a_worker_fails_to_spawn() {
    let _g = lock();
    let model = Arc::new(serving_model());
    let shard = serve_with(model, "127.0.0.1:0", shard_opts("whole")).expect("shard");
    // The second router worker is lost: the router routes on the rest
    // and says so, although its whole fleet is up.
    install(FaultSpec::parse("io@router.spawn:2").expect("spec"));
    let router = route_with(
        vec![shard.local_addr()],
        "127.0.0.1:0",
        RouterOptions {
            n_workers: 3,
            ..fast_router_opts()
        },
    )
    .expect("router");
    disable();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let body = client::get(router.local_addr(), "/healthz")
            .expect("response")
            .body;
        if body.contains("\"id\":\"whole\"") {
            assert!(body.contains("\"up\":1,\"total\":1"), "{body}");
            assert!(body.contains("\"status\":\"degraded\""), "{body}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "router never probed its shard: {body}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let status = client::get(router.local_addr(), "/recommend?user=0&k=3")
        .expect("response")
        .status;
    assert_eq!(status, 200, "a short-handed router still routes");
    router.shutdown();
    shard.shutdown();
}

#[test]
fn inbound_trace_header_is_adopted_for_the_router_hop() {
    let _g = lock();
    let model = Arc::new(serving_model());
    let handle = serve_with(model, "127.0.0.1:0", shard_opts("traced")).expect("serve");
    let Response { status, head, .. } = client::request(
        handle.local_addr(),
        "GET",
        "/healthz",
        "x-taxorec-trace: 00000000deadbeef\r\n",
        "",
        Timeouts::default(),
    )
    .expect("response");
    assert_eq!(status, 200);
    assert!(
        head.contains("x-taxorec-trace: 00000000deadbeef"),
        "shard did not adopt the router's trace id:\n{head}"
    );
    // Garbage trace headers are ignored, not adopted.
    let head = client::request(
        handle.local_addr(),
        "GET",
        "/healthz",
        "x-taxorec-trace: not-hex\r\n",
        "",
        Timeouts::default(),
    )
    .expect("response")
    .head;
    assert!(
        !head.contains("x-taxorec-trace: not-hex"),
        "garbage trace id must not round-trip:\n{head}"
    );
    handle.shutdown();
}

#[test]
fn router_merges_shard_metrics_with_shard_labels() {
    let _g = lock();
    let model = Arc::new(serving_model());
    let shard = serve_with(model, "127.0.0.1:0", shard_opts("m0")).expect("shard");
    let router =
        route_with(vec![shard.local_addr()], "127.0.0.1:0", fast_router_opts()).expect("router");
    // Generate some shard-side traffic so counters exist.
    let status = client::get(router.local_addr(), "/recommend?user=0&k=3")
        .expect("response")
        .status;
    assert_eq!(status, 200);
    let Response {
        status,
        body: merged,
        ..
    } = client::get(router.local_addr(), "/shards/metrics").expect("response");
    assert_eq!(status, 200);
    assert!(merged.contains("shard=\"0\""), "no shard label:\n{merged}");
    assert!(
        merged.contains("serve_http_requests"),
        "missing shard series:\n{merged}"
    );
    // The router's own exposition carries its RED series.
    let own = client::get(router.local_addr(), "/metrics")
        .expect("response")
        .body;
    assert!(own.contains("router_requests"), "{own}");
    router.shutdown();
    shard.shutdown();
}

/// Regression: the router's load shedding must reach a client that has
/// already sent its request. Dropping the socket right after the `503`
/// with the request unread makes the kernel answer with `RST`, which
/// destroys the response — the router now sheds through the same
/// lingering close as the shard server.
#[test]
fn router_shed_reaches_a_client_that_already_sent_its_request() {
    let _g = lock();
    let model = Arc::new(serving_model());
    let shard = serve_with(model, "127.0.0.1:0", shard_opts("s0")).expect("shard");
    let router = route_with(
        vec![shard.local_addr()],
        "127.0.0.1:0",
        RouterOptions {
            n_workers: 1,
            max_queue: 1,
            io_timeout: Duration::from_secs(2),
            ..fast_router_opts()
        },
    )
    .expect("router");
    let addr = router.local_addr();
    let shed_before = taxorec_telemetry::counter("router.shed").get();

    // Occupy the only worker with a silent connection…
    let blocker = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(150));
    // …and fill the one queue slot with another.
    let queued = TcpStream::connect(addr).expect("connect");
    let depth = taxorec_telemetry::gauge("router.queue.depth");
    let deadline = Instant::now() + Duration::from_secs(5);
    while depth.get() < 1.0 {
        assert!(Instant::now() < deadline, "second connection never queued");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Each shed client sends its whole request before it reads, and
    // reads to end-of-stream: it must see the 503 and its Retry-After
    // followed by a clean close, never a connection reset. Whether the
    // request lands before or after the router writes the 503 is a race
    // (an unlingered close loses it about one time in twenty here), so
    // many clients run it.
    const SHED_CLIENTS: u64 = 100;
    for i in 0..SHED_CLIENTS {
        let mut shed = TcpStream::connect(addr).expect("connect");
        shed.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write!(
            shed,
            "GET /recommend?user=0&k=3 HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        .expect("send");
        let mut response = String::new();
        shed.read_to_string(&mut response)
            .unwrap_or_else(|e| panic!("shed {i} ended in {e}, not a clean close: {response}"));
        assert!(response.starts_with("HTTP/1.1 503"), "{response}");
        assert!(response.contains("Retry-After:"), "{response}");
        assert!(response.contains("overloaded"), "{response}");
    }
    assert_eq!(
        taxorec_telemetry::counter("router.shed").get(),
        shed_before + SHED_CLIENTS
    );

    drop(blocker);
    drop(queued);
    router.shutdown();
    shard.shutdown();
}

/// Regression: a shard that dies between its header write and its body
/// write (`Content-Length: 64`, ten bytes, close) is a transport
/// failure. The router must fail over to the next candidate — not proxy
/// the cut body as a `200`.
#[test]
fn a_short_upstream_body_fails_over_instead_of_proxying_a_cut_200() {
    let _g = lock();
    let model = Arc::new(serving_model());
    let real = serve_with(model, "127.0.0.1:0", shard_opts("real")).expect("shard");

    // Healthy to the prober (so the request is routed here, not skipped),
    // cut short on everything else.
    let dying = TcpListener::bind("127.0.0.1:0").expect("bind");
    let dying_addr = dying.local_addr().unwrap();
    let serving = Arc::new(AtomicBool::new(true));
    let cut = Arc::new(AtomicUsize::new(0));
    {
        let serving = Arc::clone(&serving);
        let cut = Arc::clone(&cut);
        std::thread::spawn(move || {
            while serving.load(Ordering::SeqCst) {
                let Ok((mut conn, _)) = dying.accept() else {
                    continue;
                };
                let mut request = Vec::new();
                let mut chunk = [0u8; 512];
                while !request.windows(4).any(|w| w == b"\r\n\r\n") {
                    match conn.read(&mut chunk) {
                        Ok(n) if n > 0 => request.extend_from_slice(&chunk[..n]),
                        _ => break,
                    }
                }
                if request.starts_with(b"GET /healthz") {
                    let body = "{\"status\":\"ready\"}";
                    let _ = write!(
                        conn,
                        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
                        body.len()
                    );
                } else if !request.is_empty() {
                    cut.fetch_add(1, Ordering::SeqCst);
                    let _ =
                        conn.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 64\r\n\r\n0123456789");
                }
            }
        });
    }

    let router = route_with(
        vec![dying_addr, real.local_addr()],
        "127.0.0.1:0",
        fast_router_opts(),
    )
    .expect("router");
    let ring = Ring::new(2);
    let user = (0..1000u32)
        .find(|&u| ring.owner(u) == 0)
        .expect("owned user");
    let target = format!("/recommend?user={user}&k=5");
    let direct = client::get(real.local_addr(), &target).expect("direct");
    assert_eq!(direct.status, 200, "{}", direct.body);

    let failover_before = taxorec_telemetry::counter("router.failover").get();
    let proxied = client::get(router.local_addr(), &target).expect("response");
    assert_eq!(proxied.status, 200, "{}", proxied.body);
    assert_eq!(
        proxied.body, direct.body,
        "proxied body is not the real shard's answer"
    );
    assert_eq!(proxied.header("x-taxorec-shard"), Some("1"));
    assert!(
        cut.load(Ordering::SeqCst) >= 1,
        "request never touched the dying shard — test routed wrong"
    );
    assert!(
        taxorec_telemetry::counter("router.failover").get() > failover_before,
        "failover counter did not move"
    );

    serving.store(false, Ordering::SeqCst);
    // Unblock the accept loop.
    let _ = TcpStream::connect(dying_addr);
    router.shutdown();
    real.shutdown();
}
