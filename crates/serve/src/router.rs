//! The sharded serving front end: `taxorec-router` (DESIGN.md §16).
//!
//! A std-only HTTP proxy that fronts a fleet of `taxorec-serve` shard
//! workers. Users are partitioned across shards by the consistent-hash
//! [`Ring`](crate::ring::Ring) — a *locality* optimization: every shard
//! loads the same full `.taxo` artifact, so any shard answers any user
//! bit-identically and the ring only decides whose response cache gets
//! warm for whom. That asymmetry is what makes failover trivial to
//! reason about: routing around a dead owner changes latency, never
//! results.
//!
//! ## Request path (`/recommend`, `/explain`)
//!
//! 1. Hash the `user` parameter; walk the ring's candidate order
//!    (owner first, then each remaining shard exactly once).
//! 2. Skip candidates the router believes are unavailable: health
//!    `down`/`draining` (from the background prober) or an open
//!    circuit [`Breaker`](crate::breaker::Breaker).
//! 3. Forward upstream with the client's trace id in an
//!    `x-taxorec-trace` header, so shard-side spans join the router's
//!    trace tree. Any transport error, connection-refused included,
//!    fails the candidate over to the next shard at once: every shard
//!    answers every user with the same bytes, and a refused owner has
//!    no warm cache left to wait for.
//! 4. **Hedging**: if the in-flight attempt has produced nothing after
//!    [`RouterOptions::hedge_after`], a second attempt is launched at
//!    the next candidate; first complete response wins. A shard wedged
//!    in a stall (`TAXOREC_FAULT=stall@…`) costs one hedge interval,
//!    not a client timeout.
//! 5. Every attempt is bounded by the remaining request deadline
//!    ([`RouterOptions::deadline`]). When no candidate is admissible
//!    or the deadline expires, the client gets `503` with a
//!    `Retry-After` header — the router never hangs a caller on a
//!    dead fleet.
//!
//! Transport failures and successes feed each shard's circuit breaker;
//! a tripped breaker short-circuits a dead shard to zero connect
//! attempts until its cooldown elapses (half-open probe).
//!
//! ## Control plane
//!
//! A background prober polls every shard's `/healthz` each
//! [`RouterOptions::probe_interval`], caching readiness
//! (`ready`/`degraded`/`draining`/`down`) plus the shard's advertised
//! identity and loaded-checkpoint fingerprint (version/CRC). Routing
//! reads that cache — probe latency is never on the request path.
//!
//! | Path              | Answered by                                         |
//! |-------------------|-----------------------------------------------------|
//! | `/recommend`      | proxied to the owning shard (failover + hedging)    |
//! | `/explain`        | proxied likewise                                    |
//! | `/healthz`        | aggregate fleet view (per-shard state + checkpoint) |
//! | `/metrics`        | the router's own registry (RED per shard)           |
//! | `/metrics.json`   | the router's own registry snapshot                  |
//! | `/shards/metrics` | all shard expositions merged, `shard="i"` label     |
//!
//! Proxied responses carry `x-taxorec-shard: <i>` naming the shard that
//! actually answered — the observable failover signal the chaos test
//! asserts on.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use taxorec_telemetry::json::{self, push_str_escaped, Value};
use taxorec_telemetry::{held_counter, trace, TraceContext};

use crate::breaker::Breaker;
use crate::client::{self, Timeouts};
use crate::net::{
    self, require_param, Conn, Edge, Endpoint, Front, Inline, PoolSpec, Red, Reply, Request,
    Shedder, Stage,
};
use crate::ring::Ring;

/// Prober sleep slice (stop-flag recheck bound).
const POLL_INTERVAL: Duration = Duration::from_millis(20);
/// The router's `router.<endpoint>.{ms,requests,errors}` series.
static ROUTER: Red = Red::new("router");

/// Tuning knobs for [`route_with`]. [`RouterOptions::from_env`] reads
/// `TAXOREC_ROUTER_PROBE_MS`; [`Default`] ignores the environment.
#[derive(Clone, Debug)]
pub struct RouterOptions {
    /// Front-end worker threads (≥ 1 enforced).
    pub n_workers: usize,
    /// Client-side read/write deadline.
    pub io_timeout: Duration,
    /// Accepted client connections allowed to wait for a worker.
    pub max_queue: usize,
    /// Largest client request head accepted.
    pub max_request_bytes: usize,
    /// How often the background prober polls each shard's `/healthz`.
    /// Env: `TAXOREC_ROUTER_PROBE_MS`.
    pub probe_interval: Duration,
    /// Upstream connect deadline per attempt.
    pub connect_timeout: Duration,
    /// Silence threshold before a hedged second attempt is launched at
    /// the next candidate shard.
    pub hedge_after: Duration,
    /// Total per-request budget across all candidates and hedges.
    pub deadline: Duration,
    /// Consecutive transport failures that open a shard's breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker refuses before a half-open probe.
    pub breaker_cooldown: Duration,
}

impl Default for RouterOptions {
    fn default() -> Self {
        Self {
            n_workers: 4,
            io_timeout: Duration::from_secs(5),
            max_queue: 128,
            max_request_bytes: 16 * 1024,
            probe_interval: Duration::from_millis(200),
            connect_timeout: Duration::from_millis(250),
            hedge_after: Duration::from_millis(50),
            deadline: Duration::from_secs(2),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(500),
        }
    }
}

impl RouterOptions {
    /// Defaults with `TAXOREC_ROUTER_PROBE_MS` applied where set and
    /// parseable.
    pub fn from_env() -> Self {
        let d = Self::default();
        Self {
            probe_interval: taxorec_telemetry::env::<u64>("TAXOREC_ROUTER_PROBE_MS")
                .map_or(d.probe_interval, |ms| Duration::from_millis(ms.max(10))),
            ..d
        }
    }
}

// Router's view of one shard, refreshed by the prober.
const SHARD_UNKNOWN: u8 = 0; // not yet probed — routable (cold start)
const SHARD_READY: u8 = 1;
const SHARD_DEGRADED: u8 = 2;
const SHARD_DRAINING: u8 = 3;
const SHARD_DOWN: u8 = 4;

fn shard_state_label(state: u8) -> &'static str {
    match state {
        SHARD_READY => "ready",
        SHARD_DEGRADED => "degraded",
        SHARD_DRAINING => "draining",
        SHARD_DOWN => "down",
        _ => "unknown",
    }
}

/// Shard identity, checkpoint fingerprint and model size scraped from
/// its `/healthz`.
#[derive(Clone, Debug, Default)]
struct ShardMeta {
    id: Option<String>,
    /// `(version, crc, bytes)` of the shard's loaded artifact.
    checkpoint: Option<(u64, u64, u64)>,
    /// Users the shard's model can serve.
    users: Option<usize>,
}

/// One shard's routing state: address, last probed health, breaker,
/// and scraped identity.
struct ShardState {
    addr: SocketAddr,
    health: AtomicU8,
    breaker: Mutex<Breaker>,
    meta: Mutex<ShardMeta>,
}

impl ShardState {
    /// Is this shard worth attempting right now? Health says the
    /// process looked alive at the last probe (or has not been probed
    /// yet) and is not advertising a drain; the breaker admits the
    /// attempt (possibly as a half-open trial).
    fn admissible(&self, now: Instant) -> bool {
        let h = self.health.load(Ordering::SeqCst);
        if h == SHARD_DOWN || h == SHARD_DRAINING {
            return false;
        }
        self.breaker
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .allow(now)
    }
}

/// State shared by the workers, the prober, and the handle.
struct RouterShared {
    draining: AtomicBool,
    ring: Ring,
    shards: Vec<ShardState>,
    opts: RouterOptions,
}

/// A running router: the listening front (acceptor + workers) and the
/// prober thread.
pub struct RouterHandle {
    front: Front,
    shared: Arc<RouterShared>,
    prober: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// The address actually bound (resolves ephemeral port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Marks the router `draining` on `/healthz` without stopping it.
    pub fn set_draining(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Stops accepting, finishes queued requests, joins all threads.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.front.shutdown();
        if let Some(prober) = self.prober.take() {
            let _ = prober.join();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Binds `addr` and routes across `shards` with environment-tuned
/// options.
pub fn route(shards: Vec<SocketAddr>, addr: &str) -> std::io::Result<RouterHandle> {
    route_with(shards, addr, RouterOptions::from_env())
}

/// [`route`] with explicit [`RouterOptions`].
pub fn route_with(
    shards: Vec<SocketAddr>,
    addr: &str,
    opts: RouterOptions,
) -> std::io::Result<RouterHandle> {
    if shards.is_empty() {
        return Err(std::io::Error::other("a router needs at least one shard"));
    }
    let ring = Ring::new(shards.len());
    let shard_states = shards
        .iter()
        .map(|&a| ShardState {
            addr: a,
            health: AtomicU8::new(SHARD_UNKNOWN),
            breaker: Mutex::new(Breaker::new(opts.breaker_threshold, opts.breaker_cooldown)),
            meta: Mutex::new(ShardMeta::default()),
        })
        .collect();
    let edge = Edge {
        pool: PoolSpec {
            thread: "taxorec-router",
            metric: "router.worker",
            fault_site: None,
        },
        n_workers: opts.n_workers,
        io_timeout: opts.io_timeout,
        head_grace: Duration::ZERO,
        shedder: Arc::new(Shedder::new(
            "router.shed",
            "router.shed",
            "router overloaded; retry later",
            opts.io_timeout,
        )),
    };
    let conns = Stage::new(
        opts.max_queue,
        Some(taxorec_telemetry::gauge("router.queue.depth")),
    );
    let shared = Arc::new(RouterShared {
        draining: AtomicBool::new(false),
        ring,
        shards: shard_states,
        opts,
    });
    let (front, _live_workers) = {
        let shared = Arc::clone(&shared);
        let decline = |_: &mut Conn| Inline::Declined;
        net::listen(addr, conns, edge, decline, move |conn| {
            handle_client(conn, &shared)
        })?
    };
    let mut handle = RouterHandle {
        front,
        shared,
        prober: None,
    };
    let shared = Arc::clone(&handle.shared);
    let stop = handle.front.stop_flag();
    // A failed spawn drops `handle`, which stops the front again.
    let prober = std::thread::Builder::new()
        .name("taxorec-router-probe".into())
        .spawn(move || prober_loop(&shared, &stop))?;
    handle.prober = Some(prober);
    Ok(handle)
}

fn handle_client(conn: Conn, shared: &RouterShared) {
    let Conn {
        mut stream,
        ctx,
        accepted,
        prefix,
        ..
    } = conn;
    let _scope = trace::scope(ctx);
    let max_head = shared.opts.max_request_bytes;
    let Some((head, _)) = net::read_request(&mut stream, prefix, max_head, ctx.trace_id) else {
        return;
    };
    held_counter!("router.requests").inc(1);
    let start = Instant::now();
    let Request {
        method,
        target,
        path,
        query,
    } = Request::parse(&head);
    if method != "GET" {
        let msg = format!("method {method:?} not allowed; use GET");
        Reply::error(405, &msg, Endpoint::Other).write(&mut stream, ctx.trace_id);
        return;
    }
    let reply = match path {
        "/healthz" => Reply::new(200, fleet_healthz_json(shared), Endpoint::Healthz),
        "/metrics" => Reply::new(
            200,
            taxorec_telemetry::prometheus::render(),
            Endpoint::Metrics,
        )
        .content_type(taxorec_telemetry::prometheus::CONTENT_TYPE),
        "/metrics.json" => Reply::new(200, taxorec_telemetry::snapshot(), Endpoint::Metrics),
        "/shards/metrics" => Reply::new(200, scrape_shard_metrics(shared), Endpoint::Metrics)
            .content_type(taxorec_telemetry::prometheus::CONTENT_TYPE),
        "/recommend" | "/explain" => {
            let endpoint = if path == "/recommend" {
                Endpoint::Recommend
            } else {
                Endpoint::Explain
            };
            match require_param(query, "user") {
                Err(msg) => Reply::error(400, &msg, endpoint),
                // Shards only ever answer JSON on these two paths, so the
                // upstream content type is not passed through.
                Ok(user) => match proxy(shared, ctx, target, user) {
                    Ok(resp) => Reply::new(resp.status, resp.body, endpoint)
                        .header("x-taxorec-shard", resp.shard),
                    Err(unavailable) => {
                        taxorec_telemetry::counter("router.unavailable").inc(1);
                        let now = Instant::now();
                        let secs = retry_after_secs(shared.shards.iter().map(|s| {
                            s.breaker
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .remaining_open(now)
                        }));
                        Reply::error(503, &unavailable, endpoint).header("Retry-After", secs)
                    }
                },
            }
        }
        _ => Reply::error(404, &format!("no route for {path:?}"), Endpoint::Other),
    };
    reply.write(&mut stream, ctx.trace_id);
    reply.record(&ROUTER, start);
    trace::emit_root_at("router", ctx, accepted, Instant::now());
}

/// `Retry-After` seconds derived from the fleet's breaker state: the
/// *minimum* remaining open interval across shards is the earliest
/// instant a retry can reach a half-open probe, rounded up to whole
/// seconds. A shard whose breaker is not refusing (closed, half-open,
/// or cooldown elapsed) could admit a retry immediately, so any such
/// shard floors the wait at the 1-second minimum the header resolves.
/// Pure over the injected per-breaker remainders, so tests drive it
/// with a synthetic clock.
fn retry_after_secs<I: IntoIterator<Item = Option<Duration>>>(remaining: I) -> u64 {
    let mut min: Option<Duration> = None;
    for r in remaining {
        match r {
            None => return 1,
            Some(d) => min = Some(min.map_or(d, |m| m.min(d))),
        }
    }
    min.map_or(1, |d| (d.as_secs_f64().ceil() as u64).max(1))
}

/// A parsed upstream response headed back to the client.
struct Proxied {
    status: u16,
    body: String,
    /// Index of the shard that actually answered.
    shard: u32,
}

/// Forwards `target` to the candidate shards for `user`: owner first,
/// failover on any transport error, and a hedged second attempt when the
/// in-flight one has been silent for `hedge_after`. Returns the first
/// complete upstream response, or `Err(reason)` when every admissible
/// candidate failed or the deadline expired (the caller answers `503 +
/// Retry-After`).
fn proxy(
    shared: &RouterShared,
    ctx: TraceContext,
    target: &str,
    user: u32,
) -> Result<Proxied, String> {
    let opts = &shared.opts;
    let deadline = Instant::now() + opts.deadline;
    let candidates = shared.ring.candidates(user);
    let (tx, rx) = mpsc::channel::<(u32, Result<Proxied, client::Error>)>();
    let mut next = 0usize; // next candidate position to consider
    let mut in_flight = 0usize;
    let mut hedged = false;
    let mut skipped = 0usize;
    let mut last_err: Option<String> = None;

    // Launches the next admissible candidate, if any.
    let launch = |next: &mut usize, in_flight: &mut usize, skipped: &mut usize| -> bool {
        while *next < candidates.len() {
            let shard_idx = candidates[*next];
            *next += 1;
            let shard = &shared.shards[shard_idx as usize];
            if !shard.admissible(Instant::now()) {
                *skipped += 1;
                taxorec_telemetry::counter("router.skipped").inc(1);
                continue;
            }
            let addr = shard.addr;
            let tx = tx.clone();
            let target = target.to_string();
            // The router's trace id travels upstream so shard spans join
            // this trace.
            let trace_header = format!("x-taxorec-trace: {:016x}\r\n", ctx.trace_id);
            let connect_timeout = opts.connect_timeout;
            let spawned = std::thread::Builder::new()
                .name(format!("taxorec-router-try-{shard_idx}"))
                .spawn(move || {
                    let result = attempt(addr, &target, &trace_header, connect_timeout, deadline)
                        .map(|r| Proxied {
                            status: r.status,
                            body: r.body,
                            shard: shard_idx,
                        });
                    let _ = tx.send((shard_idx, result));
                });
            if spawned.is_ok() {
                *in_flight += 1;
                return true;
            }
        }
        false
    };

    launch(&mut next, &mut in_flight, &mut skipped);
    if in_flight == 0 {
        return Err(format!(
            "no shard available for user {user} ({skipped} skipped: down, draining, or breaker open)"
        ));
    }
    loop {
        let now = Instant::now();
        if now >= deadline {
            return Err(format!("deadline exceeded routing user {user}"));
        }
        // Wait for the in-flight attempt(s); wake early at the hedge
        // threshold if a second attempt hasn't been fired yet.
        let wait = if !hedged {
            opts.hedge_after.min(deadline - now)
        } else {
            deadline - now
        };
        match rx.recv_timeout(wait) {
            Ok((shard_idx, Ok(resp))) => {
                shard_success(shared, shard_idx);
                if hedged {
                    taxorec_telemetry::counter("router.hedge.won").inc(1);
                }
                return Ok(resp);
            }
            Ok((shard_idx, Err(e))) => {
                in_flight -= 1;
                shard_failure(shared, shard_idx);
                taxorec_telemetry::counter("router.failover").inc(1);
                last_err = Some(format!("shard {shard_idx}: {e}"));
                // Replace the failed attempt with the next candidate.
                if !launch(&mut next, &mut in_flight, &mut skipped) && in_flight == 0 {
                    return Err(format!(
                        "all shards failed for user {user}; last error: {}",
                        last_err.as_deref().unwrap_or("none")
                    ));
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if Instant::now() >= deadline {
                    return Err(format!("deadline exceeded routing user {user}"));
                }
                if !hedged {
                    hedged = true;
                    if launch(&mut next, &mut in_flight, &mut skipped) {
                        taxorec_telemetry::counter("router.hedge.fired").inc(1);
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // All attempt threads gone without a success.
                return Err(format!(
                    "all shards failed for user {user}; last error: {}",
                    last_err.as_deref().unwrap_or("none")
                ));
            }
        }
    }
}

fn shard_success(shared: &RouterShared, shard_idx: u32) {
    let shard = &shared.shards[shard_idx as usize];
    shard
        .breaker
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .on_success();
    taxorec_telemetry::counter(&format!("router.shard.{shard_idx}.requests")).inc(1);
}

fn shard_failure(shared: &RouterShared, shard_idx: u32) {
    let shard = &shared.shards[shard_idx as usize];
    let tripped = shard
        .breaker
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .on_failure(Instant::now());
    taxorec_telemetry::counter(&format!("router.shard.{shard_idx}.requests")).inc(1);
    taxorec_telemetry::counter(&format!("router.shard.{shard_idx}.errors")).inc(1);
    if tripped {
        taxorec_telemetry::counter("router.breaker.opened").inc(1);
        taxorec_telemetry::sink::warn(&format!(
            "shard {shard_idx} breaker opened after repeated transport failures"
        ));
    }
}

/// One upstream exchange through [`client::request`], bounded by what
/// is left of `deadline`. Any transport error, connection-refused and a
/// body cut short of its `Content-Length` included, returns at once so
/// the caller can fail over.
fn attempt(
    addr: SocketAddr,
    target: &str,
    extra_headers: &str,
    connect_timeout: Duration,
    deadline: Instant,
) -> Result<client::Response, client::Error> {
    let timeouts = Timeouts {
        connect: connect_timeout,
        io: deadline
            .saturating_duration_since(Instant::now())
            .max(Duration::from_millis(1)),
    };
    client::request(addr, "GET", target, extra_headers, "", timeouts)
}

/// One control-plane fetch (`/healthz`, `/metrics`) from a shard;
/// `None` unless it answered `200`.
fn fetch(addr: SocketAddr, target: &str, connect_timeout: Duration) -> Option<String> {
    let timeouts = Timeouts {
        connect: connect_timeout,
        io: connect_timeout * 4,
    };
    client::request(addr, "GET", target, "", "", timeouts)
        .ok()
        .filter(|r| r.status == 200)
        .map(|r| r.body)
}

/// Background prober: polls each shard's `/healthz` every
/// `probe_interval`, refreshing the routing cache (health state, shard
/// identity, checkpoint fingerprint) that the router's `/healthz` lists.
/// Routing decisions read this cache, so probe latency never lands on
/// the request path.
fn prober_loop(shared: &RouterShared, stop: &AtomicBool) {
    loop {
        for (i, shard) in shared.shards.iter().enumerate() {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            let state = match probe_shard(shard.addr, shared.opts.connect_timeout) {
                Some((state, meta)) => {
                    *shard.meta.lock().unwrap_or_else(|e| e.into_inner()) = meta;
                    state
                }
                None => SHARD_DOWN,
            };
            let prev = shard.health.swap(state, Ordering::SeqCst);
            if prev != state && prev != SHARD_UNKNOWN {
                taxorec_telemetry::sink::info(&format!(
                    "shard {i} {} -> {}",
                    shard_state_label(prev),
                    shard_state_label(state)
                ));
            }
        }
        // Sleep in short slices so shutdown is prompt.
        let mut remaining = shared.opts.probe_interval;
        while remaining > Duration::ZERO {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            let slice = remaining.min(POLL_INTERVAL);
            std::thread::sleep(slice);
            remaining = remaining.saturating_sub(slice);
        }
    }
}

/// One `/healthz` probe. `None` when the shard did not answer `200`.
fn probe_shard(addr: SocketAddr, connect_timeout: Duration) -> Option<(u8, ShardMeta)> {
    fetch(addr, "/healthz", connect_timeout).map(|body| shard_view(&body))
}

/// A shard's `/healthz` as routing sees it: `status` as a health state
/// and the [`ShardMeta`] read by path (`shard.id`,
/// `shard.checkpoint.{version,crc,bytes}`, `users`). A body that is not
/// JSON reads as down with no metadata.
fn shard_view(body: &str) -> (u8, ShardMeta) {
    let health = json::parse(body).unwrap_or(Value::Null);
    let state = match health.get("status").and_then(Value::as_str) {
        Some("ready") => SHARD_READY,
        Some("degraded") => SHARD_DEGRADED,
        Some("draining") => SHARD_DRAINING,
        _ => SHARD_DOWN,
    };
    let shard = health.get("shard");
    let checkpoint = shard.and_then(|s| s.get("checkpoint"));
    let field = |name| checkpoint?.get(name)?.as_u64();
    let meta = ShardMeta {
        id: shard.and_then(|s| s.get("id")?.as_str().map(str::to_string)),
        checkpoint: match (field("version"), field("crc"), field("bytes")) {
            (Some(v), Some(c), Some(b)) => Some((v, c, b)),
            _ => None,
        },
        users: healthz_users(body),
    };
    (state, meta)
}

/// The `"users":N` of a `/healthz` body — a shard's model size, or a
/// router's fleet-wide one. `None` when the body carries no count (a
/// router no shard has answered yet).
pub fn healthz_users(body: &str) -> Option<usize> {
    let users = json::parse(body).ok()?.get("users")?.as_u64()?;
    usize::try_from(users).ok()
}

/// The router's aggregate `/healthz`: its own status (`ready` when the
/// full fleet is routable, `degraded` when only part of it is,
/// `draining` on shutdown), the user count every routable shard can
/// serve (their minimum; absent until one has answered), plus each
/// shard's probed state, breaker, identity, and checkpoint fingerprint.
fn fleet_healthz_json(shared: &RouterShared) -> String {
    let mut up = 0usize;
    let mut users: Option<usize> = None;
    let mut body = String::with_capacity(256);
    let mut shards_json = String::with_capacity(128 * shared.shards.len());
    shards_json.push('[');
    for (i, shard) in shared.shards.iter().enumerate() {
        if i > 0 {
            shards_json.push(',');
        }
        let state = shard.health.load(Ordering::SeqCst);
        let meta = shard.meta.lock().unwrap_or_else(|e| e.into_inner()).clone();
        if state != SHARD_DOWN && state != SHARD_DRAINING {
            up += 1;
            users = match (users, meta.users) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        let breaker = shard
            .breaker
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .state_label();
        shards_json.push_str("{\"shard\":");
        shards_json.push_str(&i.to_string());
        shards_json.push_str(",\"addr\":");
        push_str_escaped(&mut shards_json, &shard.addr.to_string());
        shards_json.push_str(",\"state\":\"");
        shards_json.push_str(shard_state_label(state));
        shards_json.push_str("\",\"breaker\":\"");
        shards_json.push_str(breaker);
        shards_json.push_str("\",\"id\":");
        match &meta.id {
            Some(id) => push_str_escaped(&mut shards_json, id),
            None => shards_json.push_str("null"),
        }
        shards_json.push_str(",\"checkpoint\":");
        match meta.checkpoint {
            Some((v, c, b)) => {
                shards_json.push_str(&format!("{{\"version\":{v},\"crc\":{c},\"bytes\":{b}}}"))
            }
            None => shards_json.push_str("null"),
        }
        shards_json.push('}');
    }
    shards_json.push(']');
    let status = if shared.draining.load(Ordering::SeqCst) {
        "draining"
    } else if up == shared.shards.len() {
        "ready"
    } else {
        "degraded"
    };
    body.push_str("{\"status\":\"");
    body.push_str(status);
    body.push_str("\",\"role\":\"router\",\"up\":");
    body.push_str(&up.to_string());
    body.push_str(",\"total\":");
    body.push_str(&shared.shards.len().to_string());
    if let Some(n) = users {
        body.push_str(",\"users\":");
        body.push_str(&n.to_string());
    }
    body.push_str(",\"shards\":");
    body.push_str(&shards_json);
    body.push('}');
    body
}

/// Fetches every reachable shard's `/metrics` and merges them into one
/// exposition via [`merge_expositions`]. Unreachable shards contribute
/// a comment line instead of failing the scrape.
fn scrape_shard_metrics(shared: &RouterShared) -> String {
    let mut scraped = Vec::with_capacity(shared.shards.len());
    let mut unreachable = Vec::new();
    for (i, shard) in shared.shards.iter().enumerate() {
        match fetch(shard.addr, "/metrics", shared.opts.connect_timeout) {
            Some(text) => scraped.push((i.to_string(), text)),
            None => unreachable.push(i),
        }
    }
    let mut out = String::new();
    for i in unreachable {
        out.push_str(&format!("# shard {i} unreachable\n"));
    }
    out.push_str(&merge_expositions(&scraped));
    out
}

/// Merges Prometheus text expositions from several shards into one:
/// every sample line gains a `shard="<label>"` label, and `# HELP` /
/// `# TYPE` comments are emitted once per metric family with all
/// shards' samples grouped beneath them (scrape-order of first
/// appearance). Pure, so the grouping and label-injection invariants
/// are unit-testable without sockets.
pub fn merge_expositions(shards: &[(String, String)]) -> String {
    // family name -> (comment lines, sample lines), in first-seen order.
    let mut order: Vec<String> = Vec::new();
    let mut comments: Vec<Vec<String>> = Vec::new();
    let mut samples: Vec<Vec<String>> = Vec::new();
    let mut index = std::collections::HashMap::new();
    let mut family_names = std::collections::HashSet::new();

    // First pass: learn family names from TYPE/HELP comments, so
    // histogram series (`_bucket`/`_sum`/`_count`) can be grouped under
    // their family.
    for (_, text) in shards {
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# ") {
                let mut parts = rest.split_whitespace();
                let kw = parts.next().unwrap_or("");
                if kw == "TYPE" || kw == "HELP" {
                    if let Some(name) = parts.next() {
                        family_names.insert(name.to_string());
                    }
                }
            }
        }
    }
    let family_of = |sample_name: &str| -> String {
        if family_names.contains(sample_name) {
            return sample_name.to_string();
        }
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(stem) = sample_name.strip_suffix(suffix) {
                if family_names.contains(stem) {
                    return stem.to_string();
                }
            }
        }
        sample_name.to_string()
    };
    let mut slot_for = |fam: String,
                        order: &mut Vec<String>,
                        comments: &mut Vec<Vec<String>>,
                        samples: &mut Vec<Vec<String>>|
     -> usize {
        *index.entry(fam.clone()).or_insert_with(|| {
            order.push(fam);
            comments.push(Vec::new());
            samples.push(Vec::new());
            order.len() - 1
        })
    };

    for (label, text) in shards {
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# ") {
                let mut parts = rest.split_whitespace();
                let kw = parts.next().unwrap_or("");
                let name = parts.next().unwrap_or("");
                if kw != "TYPE" && kw != "HELP" {
                    continue;
                }
                let slot = slot_for(name.to_string(), &mut order, &mut comments, &mut samples);
                if !comments[slot].iter().any(|c| c == line) {
                    comments[slot].push(line.to_string());
                }
            } else {
                let name_end = line.find(['{', ' ']).unwrap_or(line.len());
                let name = &line[..name_end];
                let injected = if line.as_bytes().get(name_end) == Some(&b'{') {
                    format!("{name}{{shard=\"{label}\",{}", &line[name_end + 1..])
                } else {
                    format!("{name}{{shard=\"{label}\"}}{}", &line[name_end..])
                };
                let slot = slot_for(family_of(name), &mut order, &mut comments, &mut samples);
                samples[slot].push(injected);
            }
        }
    }

    let mut out = String::new();
    for (slot, _fam) in order.iter().enumerate() {
        for c in &comments[slot] {
            out.push_str(c);
            out.push('\n');
        }
        for s in &samples[slot] {
            out.push_str(s);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_injects_shard_labels_and_groups_families() {
        let a = "# HELP reqs Requests.\n# TYPE reqs counter\nreqs 3\n".to_string();
        let b = "# HELP reqs Requests.\n# TYPE reqs counter\nreqs 5\n".to_string();
        let merged = merge_expositions(&[("0".to_string(), a), ("1".to_string(), b)]);
        let lines: Vec<&str> = merged.lines().collect();
        assert_eq!(
            lines,
            vec![
                "# HELP reqs Requests.",
                "# TYPE reqs counter",
                "reqs{shard=\"0\"} 3",
                "reqs{shard=\"1\"} 5",
            ]
        );
    }

    #[test]
    fn merge_prepends_shard_to_existing_labels() {
        let a =
            "# TYPE lat histogram\nlat_bucket{le=\"1\"} 2\nlat_sum 4\nlat_count 2\n".to_string();
        let merged = merge_expositions(&[("3".to_string(), a)]);
        assert!(
            merged.contains("lat_bucket{shard=\"3\",le=\"1\"} 2"),
            "{merged}"
        );
        assert!(merged.contains("lat_sum{shard=\"3\"} 4"), "{merged}");
        // All three series grouped under the single TYPE comment.
        let type_pos = merged.find("# TYPE lat").unwrap();
        let bucket_pos = merged.find("lat_bucket").unwrap();
        assert!(type_pos < bucket_pos);
        assert_eq!(merged.matches("# TYPE lat").count(), 1);
    }

    #[test]
    fn merge_groups_interleaved_families_from_many_shards() {
        let a = "# TYPE x counter\nx 1\n# TYPE y counter\ny 2\n".to_string();
        let b = "# TYPE y counter\ny 7\n# TYPE x counter\nx 9\n".to_string();
        let merged = merge_expositions(&[("0".to_string(), a), ("1".to_string(), b)]);
        // Families stay contiguous: every x sample before any y sample
        // (x was seen first).
        let x1 = merged.find("x{shard=\"1\"} 9").unwrap();
        let y0 = merged.find("y{shard=\"0\"} 2").unwrap();
        assert!(x1 < y0, "{merged}");
        assert_eq!(merged.matches("# TYPE x counter").count(), 1);
        assert_eq!(merged.matches("# TYPE y counter").count(), 1);
    }

    #[test]
    fn retry_after_derives_from_breaker_remaining_open() {
        // Deterministic injected clock: every breaker transition and
        // every remaining-open read happens at an instant we choose.
        let t0 = Instant::now();
        let mut a = Breaker::new(1, Duration::from_millis(2300));
        let mut b = Breaker::new(1, Duration::from_millis(4500));
        assert!(a.on_failure(t0), "a trips open");
        assert!(b.on_failure(t0), "b trips open");
        let at = |now: Instant| retry_after_secs([a.remaining_open(now), b.remaining_open(now)]);
        // Both open: the minimum remaining interval (2.3 s) rounds up.
        assert_eq!(at(t0), 3);
        // 1.3 s into the cooldown: 1.0 s left on the nearer breaker.
        assert_eq!(at(t0 + Duration::from_millis(1300)), 1);
        // 2.0 s in: 0.3 s left still advertises the 1-second floor.
        assert_eq!(at(t0 + Duration::from_millis(2000)), 1);
        // Nearer cooldown elapsed: a half-open probe can go through now.
        assert_eq!(at(t0 + Duration::from_millis(2300)), 1);
        // A closed breaker in the fleet floors the wait immediately.
        let closed = Breaker::default();
        assert_eq!(
            retry_after_secs([b.remaining_open(t0), closed.remaining_open(t0)]),
            1
        );
        // No breakers at all (degenerate) still answers something sane.
        assert_eq!(retry_after_secs([]), 1);
    }

    #[test]
    fn json_field_scans() {
        let body = r#"{"status":"ready","shard":{"id":"s\"0\\","checkpoint":{"version":1,"crc":42,"bytes":512}},"users":9}"#;
        let (state, meta) = shard_view(body);
        assert_eq!(state, SHARD_READY);
        assert_eq!(meta.id.as_deref(), Some("s\"0\\"));
        assert_eq!(meta.checkpoint, Some((1, 42, 512)));
        assert_eq!(meta.users, Some(9));
        assert_eq!(healthz_users(body), Some(9));
        let (state, meta) = shard_view("{\"status\":\"ready\"");
        assert_eq!((state, meta.id, meta.checkpoint), (SHARD_DOWN, None, None));
        let (state, meta) =
            shard_view(r#"{"status":"draining","shard":{"id":null,"checkpoint":null}}"#);
        assert_eq!(
            (state, meta.id, meta.checkpoint),
            (SHARD_DRAINING, None, None)
        );
    }
}
