//! Process-level chaos drill for the sharded tier (DESIGN.md §16): a
//! real `taxorec-router` process fronting four real `taxorec-serve`
//! shard processes, one of which is SIGKILLed while client threads are
//! mid-load. The contract under test is the tentpole claim: the fleet
//! stays available (no client-visible failures) and every answer stays
//! **byte-identical** to the single-process reference, because every
//! shard serves the same artifact and the ring only decides locality.

#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use taxorec_serve::client::{self, Response};
use taxorec_serve::Ring;

const BIN: &str = env!("CARGO_BIN_EXE_taxorec-serve");
const ROUTER_BIN: &str = env!("CARGO_BIN_EXE_taxorec-router");
const N_SHARDS: usize = 4;
const N_USERS: u32 = 24;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("taxorec-chaos-{}-{name}", std::process::id()))
}

/// Trains the shared tiny artifact exactly once per test process.
fn artifact() -> &'static PathBuf {
    static ARTIFACT: OnceLock<PathBuf> = OnceLock::new();
    ARTIFACT.get_or_init(|| {
        let path = tmp("fleet.taxo");
        let out = Command::new(BIN)
            .args(["train-demo", path.to_str().unwrap(), "--epochs", "2"])
            .env_remove("TAXOREC_FAULT")
            .env_remove("TAXOREC_FAULT_STALL_MS")
            .output()
            .expect("spawn train-demo");
        assert!(
            out.status.success(),
            "train-demo failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        path
    })
}

/// A spawned server process plus the stdin handle that keeps it alive
/// (both binaries run until stdin closes or a signal arrives).
struct Proc {
    child: Child,
    _stdin: ChildStdin,
    addr: SocketAddr,
    /// The `listening on http://ADDR …` startup line.
    banner: String,
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns the command and blocks until it prints its
/// `listening on http://ADDR` startup line.
fn spawn_server(mut cmd: Command) -> Proc {
    let mut child = cmd
        .env_remove("TAXOREC_FAULT")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn server process");
    let stdin = child.stdin.take().expect("stdin handle");
    let stdout = child.stdout.take().expect("stdout handle");
    let mut lines = BufReader::new(stdout).lines();
    let (addr, banner) = loop {
        let line = lines
            .next()
            .expect("server exited before announcing its address")
            .expect("read server stdout");
        if let Some(rest) = line.split("listening on http://").nth(1) {
            let addr = rest.split_whitespace().next().expect("address token");
            break (addr.parse().expect("parse announced address"), line.clone());
        }
    };
    // Drain any later output so the pipe can never block the server.
    std::thread::spawn(move || for _ in lines {});
    Proc {
        child,
        _stdin: stdin,
        addr,
        banner,
    }
}

fn spawn_shard(idx: usize) -> Proc {
    let mut cmd = Command::new(BIN);
    cmd.args([
        "serve",
        artifact().to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "2",
        "--shard-id",
    ])
    .arg(format!("shard-{idx}"));
    spawn_server(cmd)
}

fn spawn_router(shards: &[SocketAddr]) -> Proc {
    let list = shards
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let mut cmd = Command::new(ROUTER_BIN);
    cmd.args(["--shards", &list, "--addr", "127.0.0.1:0"])
        .env("TAXOREC_ROUTER_PROBE_MS", "100");
    spawn_server(cmd)
}

#[test]
fn fleet_survives_sigkill_of_a_shard_with_bit_identical_answers() {
    let mut shards: Vec<Proc> = (0..N_SHARDS).map(spawn_shard).collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.addr).collect();
    let router = spawn_router(&addrs);

    // Single-process reference: shard 0 queried directly. Every shard
    // loads the same artifact, so this is the fleet's ground truth.
    let mut expected = Vec::new();
    for u in 0..N_USERS {
        let Response { status, body, .. } =
            client::get(addrs[0], &format!("/recommend?user={u}&k=5")).expect("response");
        assert_eq!(status, 200, "reference query failed for user {u}");
        expected.push(body);
    }
    let expected = Arc::new(expected);

    // Pick a victim that owns live traffic, so the kill actually forces
    // failover rather than hitting an idle shard.
    let ring = Ring::new(N_SHARDS);
    let victim = ring.owner(0) as usize;
    assert!(
        (0..N_USERS)
            .filter(|&u| ring.owner(u) == victim as u32)
            .count()
            > 1,
        "victim shard owns too little of the keyspace for a meaningful kill"
    );

    // Open-loop chaos load: four client threads hammer the router while
    // the victim is SIGKILLed. Zero tolerance: every response must be a
    // 200 with the exact reference body.
    let stop = Arc::new(AtomicBool::new(false));
    let requests = Arc::new(AtomicUsize::new(0));
    let failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let router_addr = router.addr;
    let clients: Vec<_> = (0..4)
        .map(|t| {
            let stop = Arc::clone(&stop);
            let requests = Arc::clone(&requests);
            let failures = Arc::clone(&failures);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut u = t as u32;
                while !stop.load(Ordering::SeqCst) {
                    let user = u % N_USERS;
                    let Response { status, body, .. } =
                        client::get(router_addr, &format!("/recommend?user={user}&k=5"))
                            .expect("response");
                    requests.fetch_add(1, Ordering::SeqCst);
                    if status != 200 {
                        failures
                            .lock()
                            .unwrap()
                            .push(format!("user {user}: status {status}: {body}"));
                    } else if body != expected[user as usize] {
                        failures
                            .lock()
                            .unwrap()
                            .push(format!("user {user}: body diverged from reference"));
                    }
                    u = u.wrapping_add(4);
                }
            })
        })
        .collect();

    // Let the load establish, then SIGKILL the victim mid-flight — no
    // drain, no unwind, the hardest death the fleet can see.
    std::thread::sleep(Duration::from_millis(300));
    shards[victim].child.kill().expect("SIGKILL victim shard");
    shards[victim].child.wait().expect("reap victim");
    std::thread::sleep(Duration::from_millis(700));
    stop.store(true, Ordering::SeqCst);
    for c in clients {
        c.join().unwrap();
    }

    let failures = failures.lock().unwrap();
    assert!(
        failures.is_empty(),
        "{} of {} requests failed during the kill:\n{}",
        failures.len(),
        requests.load(Ordering::SeqCst),
        failures.join("\n")
    );
    assert!(
        requests.load(Ordering::SeqCst) >= 20,
        "load generator barely ran ({} requests)",
        requests.load(Ordering::SeqCst)
    );

    // The router's fleet view converges on the loss: victim down,
    // overall status degraded, remaining shards still ready.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let Response { status, body, .. } = client::get(router_addr, "/healthz").expect("response");
        assert_eq!(status, 200);
        if body.contains("\"state\":\"down\"") && body.contains(&format!("\"up\":{}", N_SHARDS - 1))
        {
            assert!(body.contains("\"status\":\"degraded\""), "{body}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "router never marked the killed shard down: {body}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Users owned by the dead shard remain available afterwards, still
    // byte-identical, and are answered by a surviving shard.
    for u in (0..N_USERS).filter(|&u| ring.owner(u) == victim as u32) {
        let Response { status, body, .. } =
            client::get(router_addr, &format!("/recommend?user={u}&k=5")).expect("response");
        assert_eq!(status, 200, "user {u} lost after shard death");
        assert_eq!(
            body, expected[u as usize],
            "user {u} diverged after failover"
        );
    }
}

#[test]
fn shard_process_drains_gracefully_on_sigterm() {
    let shard = spawn_shard(9);
    let status = client::get(shard.addr, "/healthz")
        .expect("response")
        .status;
    assert_eq!(status, 200);

    // SIGTERM via kill(2) — std has no API for it, but the pid is ours.
    let pid = shard.child.id() as i32;
    let rc = unsafe { libc_kill(pid, 15) };
    assert_eq!(rc, 0, "kill(SIGTERM) failed");

    // The process must exit on its own (graceful drain path), well
    // within the default 300 ms grace plus margin — not hang, not
    // require SIGKILL.
    let mut shard = shard;
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = shard.child.try_wait().expect("try_wait") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "shard ignored SIGTERM (still running after 10s)"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(status.success(), "drain exit was not clean: {status:?}");
}

extern "C" {
    #[link_name = "kill"]
    fn libc_kill(pid: i32, sig: i32) -> i32;
}

#[test]
fn serve_takes_its_worker_count_from_the_environment_without_the_flag() {
    let mut cmd = Command::new(BIN);
    cmd.args([
        "serve",
        artifact().to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
    ])
    .env("TAXOREC_SERVE_WORKERS", "3");
    let shard = spawn_server(cmd);
    assert!(shard.banner.ends_with("(3 workers)"), "{}", shard.banner);
}
