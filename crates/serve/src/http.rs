//! A minimal std-only HTTP/1.1 front end for [`ServingModel`].
//!
//! No async runtime and no HTTP crate: an event-driven pipeline of small
//! thread pools, one request per connection (`Connection: close`),
//! graceful shutdown through an `AtomicBool`. That is all a
//! latency-tolerant model server needs, and it keeps the crate
//! dependency-free.
//!
//! ## The pipeline (DESIGN.md §14)
//!
//! ```text
//! acceptor → conn queue → parser workers → batch queue → scorer pool
//!                              │ (cache hits, /healthz, …)     │
//!                              └──────────→ inline response    └→ responder pool
//! ```
//!
//! The acceptor enqueues raw connections into a bounded queue; parser
//! workers read and route them. Endpoints other than `/recommend` — and
//! `/recommend` cache **hits** — are answered inline by the parser
//! worker. Cache misses become [`RecommendReq`]s submitted to the
//! [`Batcher`]: a free scorer thread takes a request together with
//! whatever else is already queued (up to [`BatchOptions::max_batch`];
//! it never waits for company, so a lone request is scored at once and
//! batches form only while every scorer is busy) and ranks the block in
//! one fused [`ServingModel::recommend_many`] pass — **bit-identical**
//! to a batch of one. Completed requests fan out to a responder
//! pool that owns the socket writes, so a slow-reading client can only
//! ever occupy a parser worker or a responder — never a scorer.
//!
//! Endpoints (`GET` unless noted):
//!
//! | Path            | Query                | Response                                   |
//! |-----------------|----------------------|--------------------------------------------|
//! | `/recommend`    | `user=<id>&k=<n>`    | top-K items with scores (JSON)             |
//! | `/explain`      | `user=<id>&item=<id>`| score + tag/taxonomy rationale (JSON)      |
//! | `POST /ingest`  | JSON body            | `202` + journal position ([`serve_online`])|
//! | `/healthz`      | —                    | readiness + model card (JSON)              |
//! | `/metrics`      | —                    | Prometheus text exposition 0.0.4           |
//! | `/metrics.json` | —                    | `taxorec-telemetry` registry snapshot      |
//! | `/debug/flight` | —                    | flight-recorder ring contents (JSON)       |
//!
//! ## Observability
//!
//! A [`TraceContext`] is minted for every accepted connection — before
//! queueing, so queue wait is part of the trace — and echoed back in an
//! `x-taxorec-trace` response header on **every** response (including
//! `400`s and shed `503`s). When `TAXOREC_TRACE` is set and the request
//! falls on the sampling stride, the request exports a connected span
//! tree: `http` (root) → `queue` / `cache` / `score` → `kernel` /
//! `respond`. Request outcomes also land in the flight recorder
//! (`serve.request` events), which dumps its ring to disk on handler
//! panics and load shedding.
//!
//! ## Hardening
//!
//! * **Deadlines** — every accepted connection gets read/write timeouts
//!   ([`ServeOptions::io_timeout`]); a stalled or trickling client is
//!   disconnected instead of pinning a worker forever.
//! * **Size caps** — request heads over
//!   [`ServeOptions::max_request_bytes`] are rejected with `400`.
//! * **Load shedding** — when the connection queue is full the acceptor
//!   answers `503` with a `Retry-After` header immediately rather than
//!   letting the backlog grow without bound (`serve.http.shed`).
//! * **Panic isolation** — each request handler runs under
//!   `catch_unwind`; a panicking request gets a `500` and the worker
//!   lives on (`serve.http.panics`). The `serve.request` fault site makes
//!   this deterministically testable.
//! * **Degraded spawn** — if some worker threads fail to spawn the
//!   server runs with the ones it got and `/healthz` reports
//!   `"degraded"`; only zero workers is fatal.
//!
//! `/healthz` reports `"ready"`, `"degraded"` (reduced worker pool), or
//! `"draining"` (shutdown in progress). Every request lands in the
//! `serve.http.requests` counter and a per-endpoint latency histogram
//! (`serve.http.<endpoint>.ms`).

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use taxorec_telemetry::json::{push_f64, push_str_escaped};
use taxorec_telemetry::{flight, flight_event, trace, TraceContext};

use crate::batch::{BatchJob, BatchOptions, Batcher};
use crate::checkpoint::{write_atomic, ArtifactInfo, Checkpoint, FORMAT_VERSION};
use crate::model::{ModelSlot, Ranking, ServeError, ServingModel};
use crate::online::{self, IngestOptions, Journal};

const JSON_CONTENT_TYPE: &str = "application/json";

/// Parser-worker condvar poll interval (shutdown-flag recheck bound).
const POLL_INTERVAL: Duration = Duration::from_millis(10);
/// Per-read deadline while draining a shed connection's request bytes.
/// Bounds how long one rejection can occupy the thread that sheds it.
const SHED_DRAIN_TIMEOUT: Duration = Duration::from_millis(5);
/// Drain reads attempted per shed before the socket drops regardless.
const SHED_DRAIN_READS: usize = 8;
/// Default `k` when `/recommend` omits it.
const DEFAULT_K: usize = 10;
/// Upper bound on `k` per request (keeps a typo from ranking the world).
const MAX_K: usize = 1000;

/// Tuning knobs for [`serve_with`]. [`ServeOptions::from_env`] reads the
/// `TAXOREC_SERVE_*` variables; [`Default`] ignores the environment.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Worker threads handling requests (≥ 1 enforced).
    /// Env: `TAXOREC_SERVE_WORKERS`.
    pub n_workers: usize,
    /// Per-connection read/write deadline. A client that stalls longer
    /// than this mid-request is disconnected.
    /// Env: `TAXOREC_SERVE_TIMEOUT_MS`.
    pub io_timeout: Duration,
    /// Largest request head (request line + headers) accepted.
    /// Env: `TAXOREC_SERVE_MAX_REQUEST_BYTES`.
    pub max_request_bytes: usize,
    /// Accepted connections allowed to wait for a worker; beyond this the
    /// acceptor sheds load with `503 + Retry-After`.
    /// Env: `TAXOREC_SERVE_MAX_QUEUE`.
    pub max_queue: usize,
    /// Micro-batching scheduler knobs (`TAXOREC_SERVE_BATCH_*`,
    /// `TAXOREC_SERVE_SCORERS`).
    pub batch: BatchOptions,
    /// Responder threads writing completed batched responses back to
    /// their sockets (≥ 1 enforced).
    /// Env: `TAXOREC_SERVE_RESPONDERS`.
    pub n_responders: usize,
    /// Shard identity reported by `/healthz` (`"shard":{"id":…}`), so a
    /// router aggregating a fleet can tell which process answered.
    /// Env: `TAXOREC_SHARD_ID`.
    pub shard_id: Option<String>,
    /// Enables the `/admin/drain` and `/admin/reload` endpoints (warm
    /// checkpoint reload and router-observable draining). On by
    /// default; set `TAXOREC_SERVE_ADMIN=0` to disable on an exposed
    /// listener.
    pub admin: bool,
    /// Streaming-ingestion tuning (`TAXOREC_INGEST_*`). Only honored by
    /// [`serve_online`]; plain [`serve_with`] answers `POST /ingest`
    /// with `503`.
    pub ingest: IngestOptions,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            n_workers: 4,
            io_timeout: Duration::from_secs(5),
            max_request_bytes: 16 * 1024,
            max_queue: 64,
            batch: BatchOptions::default(),
            n_responders: 2,
            shard_id: None,
            admin: true,
            ingest: IngestOptions::default(),
        }
    }
}

impl ServeOptions {
    /// Defaults overridden by `TAXOREC_SERVE_WORKERS`,
    /// `TAXOREC_SERVE_TIMEOUT_MS`, `TAXOREC_SERVE_MAX_REQUEST_BYTES`,
    /// `TAXOREC_SERVE_MAX_QUEUE`, `TAXOREC_SERVE_RESPONDERS`, and the
    /// `TAXOREC_SERVE_BATCH_*` / `TAXOREC_SERVE_SCORERS` family where
    /// set and parseable.
    pub fn from_env() -> Self {
        let mut o = Self::default();
        if let Some(w) = env_usize("TAXOREC_SERVE_WORKERS") {
            o.n_workers = w.clamp(1, 64);
        }
        if let Some(ms) = env_usize("TAXOREC_SERVE_TIMEOUT_MS") {
            o.io_timeout = Duration::from_millis(ms.max(1) as u64);
        }
        if let Some(b) = env_usize("TAXOREC_SERVE_MAX_REQUEST_BYTES") {
            o.max_request_bytes = b.max(64);
        }
        if let Some(q) = env_usize("TAXOREC_SERVE_MAX_QUEUE") {
            o.max_queue = q.max(1);
        }
        if let Some(r) = env_usize("TAXOREC_SERVE_RESPONDERS") {
            o.n_responders = r.clamp(1, 64);
        }
        if let Ok(id) = std::env::var("TAXOREC_SHARD_ID") {
            let id = id.trim().to_string();
            if !id.is_empty() {
                o.shard_id = Some(id);
            }
        }
        if let Ok(v) = std::env::var("TAXOREC_SERVE_ADMIN") {
            o.admin = v.trim() != "0";
        }
        o.batch = BatchOptions::from_env();
        o.ingest = IngestOptions::from_env();
        o
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Server readiness, surfaced through `/healthz`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Health {
    /// Full worker pool, accepting traffic.
    Ready,
    /// Serving, but with fewer workers than requested (spawn failures).
    Degraded,
    /// Shutdown requested; draining in-flight work.
    Draining,
}

impl Health {
    fn as_str(self) -> &'static str {
        match self {
            Self::Ready => "ready",
            Self::Degraded => "degraded",
            Self::Draining => "draining",
        }
    }
}

const HEALTH_READY: u8 = 0;
const HEALTH_DEGRADED: u8 = 1;
const HEALTH_DRAINING: u8 = 2;

/// An accepted connection waiting for a worker, carrying the trace
/// context minted at accept time (so queue wait is inside the trace).
struct Queued {
    stream: TcpStream,
    ctx: TraceContext,
    accepted: Instant,
}

/// A parsed `/recommend` cache miss travelling through the batching
/// pipeline with its connection: handed from the parser worker to the
/// [`Batcher`], scored in a block, and written by a responder.
struct RecommendReq {
    stream: TcpStream,
    ctx: TraceContext,
    /// Connection accept instant (root-span start).
    accepted: Instant,
    /// Head-read completion instant (endpoint-latency start, matching
    /// the inline path's histogram semantics).
    started: Instant,
    user: u32,
    k: usize,
}

/// Outcome of scoring one batched request, written by a responder.
enum Scored {
    /// 200 with the ranked items.
    Ranked(Ranking),
    /// 404 — unknown user (same mapping as the inline path).
    NotFound(String),
    /// 500 — this request's batch panicked; only its own batch fails.
    Internal,
}

/// Work queue feeding the responder pool. Unbounded on purpose: every
/// entry is a completed request whose admission was already bounded by
/// the connection and batch queues, so refusing here could only drop a
/// scored response.
struct ResponderShared {
    queue: Mutex<VecDeque<(RecommendReq, Scored)>>,
    ready: Condvar,
    shutdown: AtomicBool,
}

impl ResponderShared {
    fn push(&self, req: RecommendReq, scored: Scored) {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.push_back((req, scored));
        drop(q);
        self.ready.notify_one();
    }
}

fn responder_loop(shared: &ResponderShared) {
    loop {
        let item = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(it) = q.pop_front() {
                    break Some(it);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _) = shared
                    .ready
                    .wait_timeout(q, POLL_INTERVAL)
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
            }
        };
        match item {
            Some((req, scored)) => write_recommend_response(req, scored),
            None => return,
        }
    }
}

/// The batching stages behind the parser workers: scheduler + responder
/// queue. Shared so `/healthz` can report batch-queue occupancy.
struct Pipeline {
    batcher: Batcher<RecommendReq>,
    responders: Arc<ResponderShared>,
}

/// State shared by the acceptor, the workers, and the handle.
struct Shared {
    shutdown: AtomicBool,
    health: AtomicU8,
    queue: Mutex<VecDeque<Queued>>,
    ready: Condvar,
    opts: ServeOptions,
    /// Serializes `/admin/reload`: one checkpoint handover at a time.
    reload: Mutex<()>,
    /// The streaming-interaction journal behind `POST /ingest`; `None`
    /// on servers started without [`serve_online`].
    journal: Option<Arc<Journal>>,
}

impl Shared {
    fn health(&self) -> Health {
        match self.health.load(Ordering::SeqCst) {
            HEALTH_DEGRADED => Health::Degraded,
            HEALTH_DRAINING => Health::Draining,
            _ => Health::Ready,
        }
    }
}

/// A running server: joinable acceptor, parser, scorer, and responder
/// threads plus shared shutdown/health state.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    pipeline: Arc<Pipeline>,
    responder_threads: Vec<JoinHandle<()>>,
    slot: Arc<ModelSlot>,
}

impl ServerHandle {
    /// The address actually bound (resolves ephemeral port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once [`ServerHandle::shutdown`] has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Current readiness as reported by `/healthz`.
    pub fn health(&self) -> Health {
        self.shared.health()
    }

    /// The hot-swappable model slot behind this server (warm reload).
    pub fn model_slot(&self) -> Arc<ModelSlot> {
        Arc::clone(&self.slot)
    }

    /// Marks the server `draining` on `/healthz` **without** stopping
    /// it: every endpoint keeps answering, but a health-aware router
    /// stops routing new traffic here. This is the first phase of a
    /// graceful (SIGTERM-driven) restart — advertise the drain, give
    /// the router a probe interval to route around this shard, then
    /// call [`ServerHandle::shutdown`] to finish in-flight work.
    pub fn set_draining(&self) {
        self.shared.health.store(HEALTH_DRAINING, Ordering::SeqCst);
    }

    /// Signals the pipeline to stop and waits for in-flight requests
    /// (and already-queued connections) to drain.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn begin_shutdown(&self) {
        self.shared.health.store(HEALTH_DRAINING, Ordering::SeqCst);
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.ready.notify_all();
        // The acceptor blocks in `accept`; a throwaway loopback
        // connection wakes it so it can observe the shutdown flag.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST));
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
    }

    /// Stage-ordered drain: acceptor + parser workers first (no new
    /// submissions), then the batcher (scores every queued request),
    /// then the responders (every scored response is written). Each
    /// stage's queue is empty before the next stage stops.
    fn drain(&mut self) {
        self.begin_shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.pipeline.batcher.shutdown();
        self.pipeline
            .responders
            .shutdown
            .store(true, Ordering::SeqCst);
        self.pipeline.responders.ready.notify_all();
        for t in self.responder_threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serves
/// `model` on `n_workers` threads with environment-tuned hardening
/// options until the handle is shut down or dropped.
pub fn serve(
    model: Arc<ServingModel>,
    addr: &str,
    n_workers: usize,
) -> std::io::Result<ServerHandle> {
    serve_with(
        model,
        addr,
        ServeOptions {
            n_workers,
            ..ServeOptions::from_env()
        },
    )
}

/// [`serve`] with explicit [`ServeOptions`].
///
/// Worker threads that fail to spawn are logged and skipped — the server
/// starts with whatever pool it got, reporting `"degraded"` health.
/// Only a total spawn failure (zero workers) is an error.
pub fn serve_with(
    model: Arc<ServingModel>,
    addr: &str,
    opts: ServeOptions,
) -> std::io::Result<ServerHandle> {
    serve_impl(model, addr, opts, None)
}

/// [`serve_with`] plus streaming ingestion (DESIGN.md §17): accepts
/// `POST /ingest` into a bounded journal and runs the incremental-update
/// loop, which folds journaled interactions into `base` between ticks
/// and swaps the refreshed model into the slot — the same handover path
/// as `/admin/reload`.
///
/// `base` must be the checkpoint `model` was built from: it becomes the
/// updater's master copy, and its `journal_cursor` seeds the journal so
/// a restart from a persisted streaming artifact resumes its cursor.
pub fn serve_online(
    model: Arc<ServingModel>,
    base: Checkpoint,
    addr: &str,
    mut opts: ServeOptions,
) -> std::io::Result<ServerHandle> {
    opts.ingest.enabled = true;
    serve_impl(model, addr, opts, Some(base))
}

fn serve_impl(
    model: Arc<ServingModel>,
    addr: &str,
    opts: ServeOptions,
    online_base: Option<Checkpoint>,
) -> std::io::Result<ServerHandle> {
    // The acceptor blocks in `accept` — zero added latency per
    // connection, no poll interval to overflow the kernel backlog at
    // high arrival rates. Shutdown wakes it with a loopback connection
    // to the listener itself (`begin_shutdown`).
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let n_requested = opts.n_workers.max(1);
    let batch_opts = opts.batch.clone();
    let n_responders = opts.n_responders.max(1);
    let journal = online_base.as_ref().map(|base| {
        Arc::new(Journal::new(
            opts.ingest.journal_cap,
            base.journal_cursor.unwrap_or(0),
        ))
    });
    let shared = Arc::new(Shared {
        shutdown: AtomicBool::new(false),
        health: AtomicU8::new(HEALTH_READY),
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        opts,
        reload: Mutex::new(()),
        journal,
    });
    let slot = Arc::new(ModelSlot::new(model));
    let mut degraded = false;

    // Responder pool: owns all socket writes for batched responses.
    let responders = Arc::new(ResponderShared {
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        shutdown: AtomicBool::new(false),
    });
    let mut responder_threads = Vec::with_capacity(n_responders);
    let mut last_err: Option<std::io::Error> = None;
    for i in 0..n_responders {
        let responders = Arc::clone(&responders);
        match std::thread::Builder::new()
            .name(format!("taxorec-respond-{i}"))
            .spawn(move || responder_loop(&responders))
        {
            Ok(h) => responder_threads.push(h),
            Err(e) => {
                taxorec_telemetry::counter("serve.responder.spawn_failed").inc(1);
                taxorec_telemetry::sink::warn(&format!(
                    "failed to spawn responder {i}: {e}; continuing with fewer"
                ));
                last_err = Some(e);
            }
        }
    }
    if responder_threads.is_empty() {
        return Err(
            last_err.unwrap_or_else(|| std::io::Error::other("no responders could be spawned"))
        );
    }
    degraded |= responder_threads.len() < n_responders;

    // Scorer pool behind the bounded batch queue. The handler scores one
    // assembled block through the fused multi-anchor path and stamps the
    // retroactive per-request `batch.wait` / `score` spans; a panicking
    // batch falls back to 500s for only its own requests. The model is
    // resolved through the slot per batch, so a warm reload takes
    // effect from the next assembled block on.
    let scoring_slot = Arc::clone(&slot);
    let complete_to = Arc::clone(&responders);
    let (batcher, live_scorers) = Batcher::spawn(
        batch_opts.clone(),
        move |jobs: &[BatchJob<RecommendReq>]| {
            let started = Instant::now();
            let queries: Vec<(u32, usize)> = jobs.iter().map(|j| (j.req.user, j.req.k)).collect();
            let results = scoring_slot.load().recommend_many(&queries);
            let finished = Instant::now();
            for j in jobs {
                trace::emit_span_at("batch.wait", j.req.ctx, j.enqueued, started);
                trace::emit_span_at("score", j.req.ctx, started, finished);
            }
            results
                .into_iter()
                .map(|r| match r {
                    Ok(items) => Scored::Ranked(items),
                    Err(e) => Scored::NotFound(e.to_string()),
                })
                .collect()
        },
        |_job| Scored::Internal,
        move |req, scored| complete_to.push(req, scored),
    )?;
    degraded |= live_scorers < batch_opts.n_scorers.max(1);
    let pipeline = Arc::new(Pipeline {
        batcher,
        responders: Arc::clone(&responders),
    });

    let mut threads = Vec::with_capacity(n_requested + 1);
    let mut spawned = 0usize;
    for i in 0..n_requested {
        let shared = Arc::clone(&shared);
        let slot = Arc::clone(&slot);
        let pipeline = Arc::clone(&pipeline);
        // Deterministic worker loss for the health-transition tests:
        // `TAXOREC_FAULT=io@serve.spawn:2` makes exactly the second
        // worker fail to spawn, driving `/healthz` to `degraded`.
        if let Some(msg) = taxorec_resilience::inject_io("serve.spawn") {
            taxorec_telemetry::counter("serve.worker.spawn_failed").inc(1);
            taxorec_telemetry::sink::warn(&format!(
                "failed to spawn server worker {i}: {msg}; continuing with fewer workers"
            ));
            last_err = Some(std::io::Error::other(msg));
            continue;
        }
        match std::thread::Builder::new()
            .name(format!("taxorec-serve-{i}"))
            .spawn(move || worker_loop(&shared, &slot, &pipeline))
        {
            Ok(h) => {
                threads.push(h);
                spawned += 1;
            }
            Err(e) => {
                taxorec_telemetry::counter("serve.worker.spawn_failed").inc(1);
                taxorec_telemetry::sink::warn(&format!(
                    "failed to spawn server worker {i}: {e}; continuing with fewer workers"
                ));
                last_err = Some(e);
            }
        }
    }
    if spawned == 0 {
        return Err(
            last_err.unwrap_or_else(|| std::io::Error::other("no server workers could be spawned"))
        );
    }
    degraded |= spawned < n_requested;
    if degraded {
        shared.health.store(HEALTH_DEGRADED, Ordering::SeqCst);
        taxorec_telemetry::sink::warn(&format!(
            "serving degraded: {spawned}/{n_requested} workers, {live_scorers} scorers, \
             {} responders",
            responder_threads.len()
        ));
    }
    {
        let shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("taxorec-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &shared))?;
        threads.push(acceptor);
    }
    if let Some(base) = online_base {
        let shared = Arc::clone(&shared);
        let slot = Arc::clone(&slot);
        let updater = std::thread::Builder::new()
            .name("taxorec-ingest".to_string())
            .spawn(move || updater_loop(base, &shared, &slot))?;
        threads.push(updater);
    }
    Ok(ServerHandle {
        addr,
        shared,
        threads,
        pipeline,
        responder_threads,
        slot,
    })
}

/// Accepts connections into the bounded queue, shedding with `503` when
/// it is full.
fn accept_loop(listener: &TcpListener, shared: &Shared) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                // The shutdown wake-up is itself a connection; re-check
                // the flag before treating it as traffic.
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(shared.opts.io_timeout));
                let _ = stream.set_write_timeout(Some(shared.opts.io_timeout));
                // Trace identity is minted here, at the system edge, so
                // even shed responses carry an `x-taxorec-trace` header
                // and queue wait is covered by the trace.
                let ctx = trace::mint();
                let mut q = lock_queue(&shared.queue);
                if q.len() >= shared.opts.max_queue {
                    let depth = q.len();
                    drop(q);
                    shed(&mut stream, ctx, depth, shared.opts.io_timeout);
                    continue;
                }
                q.push_back(Queued {
                    stream,
                    ctx,
                    accepted: Instant::now(),
                });
                taxorec_telemetry::gauge("serve.queue.depth").set(q.len() as f64);
                drop(q);
                shared.ready.notify_one();
            }
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
    shared.ready.notify_all();
}

/// Rejects an over-capacity connection with `503 + Retry-After` without
/// parsing the request (the write deadline bounds even this). The
/// incident is recorded in the flight ring and triggers a (throttled)
/// dump — a shed storm is exactly the moment the recent-event history
/// matters.
///
/// After the 503 is written the connection is *lingering-closed*: the
/// unparsed request bytes are drained (briefly, bounded) before the
/// socket drops. Closing with unread data in the receive buffer makes
/// the kernel send `RST`, which destroys the in-flight 503 — under a
/// shed storm every rejection would then surface client-side as a
/// connection reset instead of the `Retry-After` it was sent.
fn shed(stream: &mut TcpStream, ctx: TraceContext, queue_depth: usize, io_timeout: Duration) {
    taxorec_telemetry::counter("serve.http.shed").inc(1);
    flight_event!("serve.shed", ctx.trace_id, queue_depth as i64, 0.0);
    flight::dump("serve.shed");
    let retry_after = io_timeout.as_secs().max(1);
    let _ = respond_with(
        stream,
        503,
        ctx.trace_id,
        JSON_CONTENT_TYPE,
        &format!("Retry-After: {retry_after}\r\n"),
        &error_json("server overloaded; retry later"),
    );
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(SHED_DRAIN_TIMEOUT));
    let mut scratch = [0u8; 1024];
    for _ in 0..SHED_DRAIN_READS {
        match stream.read(&mut scratch) {
            Ok(n) if n > 0 => {}
            _ => break,
        }
    }
}

/// Poison-tolerant queue lock: a worker that panicked while holding the
/// lock (can't happen in the current code, but belts and braces) must not
/// wedge the acceptor.
fn lock_queue(q: &Mutex<VecDeque<Queued>>) -> std::sync::MutexGuard<'_, VecDeque<Queued>> {
    q.lock().unwrap_or_else(|e| e.into_inner())
}

/// The incremental-update loop ([`serve_online`]): every tick, drain up
/// to a batch of journaled interactions, fold them into the master
/// checkpoint ([`online::fold_batch`]), reseal the artifact identity,
/// optionally persist it, and swap a freshly built [`ServingModel`]
/// into the slot. The swap is the `/admin/reload` handover — one `Arc`
/// exchange, response cache starting cold.
fn updater_loop(mut ckpt: Checkpoint, shared: &Shared, slot: &Arc<ModelSlot>) {
    let Some(journal) = shared.journal.as_ref() else {
        return;
    };
    let opts = shared.opts.ingest.clone();
    // Graft-drift counter, threaded through every fold so chunked
    // ticking stays bit-identical to one whole-journal replay.
    let mut drift = 0u64;
    while !shared.shutdown.load(Ordering::SeqCst) {
        let tick_start = Instant::now();
        while tick_start.elapsed() < opts.tick {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(POLL_INTERVAL.min(opts.tick));
        }
        let batch = journal.drain(opts.batch);
        taxorec_telemetry::gauge("serve.ingest.staleness").set(journal.staleness() as f64);
        if batch.is_empty() {
            continue;
        }
        update_tick(&mut ckpt, &batch, &opts, &mut drift, slot, journal);
    }
}

/// One updater tick: fold, reseal, persist, rebuild, swap.
fn update_tick(
    ckpt: &mut Checkpoint,
    batch: &[online::IngestInteraction],
    opts: &IngestOptions,
    drift: &mut u64,
    slot: &Arc<ModelSlot>,
    journal: &Journal,
) {
    let started = Instant::now();
    // Fold against a restorable snapshot: a mid-batch error leaves the
    // checkpoint holding a partially applied prefix whose journal
    // cursor was never advanced, so rolling back state *and* drift
    // together is the only way cursor and embeddings stay consistent —
    // otherwise a restart would resume replay against desynced state,
    // silently breaking the bit-identical replay guarantee.
    let snapshot = (ckpt.clone(), *drift);
    let report = match online::fold_batch(ckpt, batch, opts, drift) {
        Ok(r) => r,
        Err(e) => {
            (*ckpt, *drift) = snapshot;
            taxorec_telemetry::counter("serve.ingest.fold_errors").inc(1);
            taxorec_telemetry::sink::warn(&format!(
                "ingest: folding {} interactions failed: {e}; batch dropped",
                batch.len()
            ));
            journal.mark_applied(batch.len() as u64);
            return;
        }
    };
    // Reseal the artifact identity so `/healthz` (and a persisted copy)
    // advertise the streamed generation, not the boot-time artifact.
    let bytes = ckpt.to_bytes();
    let crc_at = bytes.len() - 4;
    let crc = u32::from_le_bytes([
        bytes[crc_at],
        bytes[crc_at + 1],
        bytes[crc_at + 2],
        bytes[crc_at + 3],
    ]);
    ckpt.artifact = Some(ArtifactInfo {
        version: FORMAT_VERSION,
        crc,
        bytes: bytes.len() as u64,
    });
    if let Some(path) = &opts.checkpoint_path {
        if let Err(e) = write_atomic(path, &bytes) {
            taxorec_telemetry::counter("serve.ingest.persist_errors").inc(1);
            taxorec_telemetry::sink::warn(&format!(
                "ingest: persisting {} failed: {e}; serving continues unpersisted",
                path.display()
            ));
        }
    }
    let old = slot.load();
    let built = ServingModel::with_cache_capacity(ckpt.clone(), old.cache_usage().1)
        .and_then(|m| m.with_retrieval(old.retrieval_mode()));
    match built {
        Ok(model) => {
            slot.swap(Arc::new(model));
            taxorec_telemetry::counter("serve.ingest.swaps").inc(1);
        }
        Err(e) => {
            taxorec_telemetry::counter("serve.ingest.swap_failed").inc(1);
            taxorec_telemetry::sink::warn(&format!(
                "ingest: building the refreshed model failed: {e}; keeping current model"
            ));
        }
    }
    journal.mark_applied(batch.len() as u64);
    taxorec_telemetry::gauge("serve.ingest.cursor").set(report.cursor as f64);
    taxorec_telemetry::gauge("serve.ingest.drift").set(*drift as f64);
    taxorec_telemetry::gauge("serve.ingest.staleness").set(journal.staleness() as f64);
    taxorec_telemetry::histogram("serve.ingest.tick.ms")
        .observe(started.elapsed().as_secs_f64() * 1e3);
}

fn worker_loop(shared: &Shared, slot: &Arc<ModelSlot>, pipeline: &Pipeline) {
    loop {
        let queued = {
            let mut q = lock_queue(&shared.queue);
            loop {
                if let Some(s) = q.pop_front() {
                    taxorec_telemetry::gauge("serve.queue.depth").set(q.len() as f64);
                    break Some(s);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _timeout) = shared
                    .ready
                    .wait_timeout(q, POLL_INTERVAL)
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
            }
        };
        match queued {
            Some(s) => handle_connection(s, shared, slot, pipeline),
            None => return,
        }
    }
}

/// Adopts an inbound `x-taxorec-trace` header (the router hop): the
/// request joins the caller's trace instead of starting a fresh one, so
/// one user query traces as one tree across router and shard. Span ids
/// and the local sampling decision are kept — only the trace identity
/// is inherited.
fn adopt_trace(head: &str, ctx: TraceContext) -> TraceContext {
    for line in head.lines().skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("x-taxorec-trace") {
                if let Ok(id) = u64::from_str_radix(value.trim(), 16) {
                    if id != 0 {
                        return TraceContext {
                            trace_id: id,
                            ..ctx
                        };
                    }
                }
            }
        }
    }
    ctx
}

fn handle_connection(queued: Queued, shared: &Shared, slot: &Arc<ModelSlot>, pipeline: &Pipeline) {
    let Queued {
        mut stream,
        ctx,
        accepted,
    } = queued;
    let dequeued = Instant::now();
    let head = match read_head(&mut stream, shared.opts.max_request_bytes) {
        Some(h) => h,
        None => {
            trace::emit_span_at("queue", ctx, accepted, dequeued);
            let _ = respond(
                &mut stream,
                400,
                ctx.trace_id,
                &error_json("malformed, oversized, or timed-out request"),
            );
            return;
        }
    };
    // Join the caller's trace when the request came through the router
    // (`x-taxorec-trace` header), then emit the accept→dequeue wait as a
    // retroactive child span under the adopted identity.
    let ctx = adopt_trace(&head, ctx);
    trace::emit_span_at("queue", ctx, accepted, dequeued);
    // Everything below runs with `ctx` ambient, so `child_span` calls in
    // the serving model (cache, score, kernel) parent into this request.
    let _trace_scope = trace::scope(ctx);
    taxorec_telemetry::counter("serve.http.requests").inc(1);
    let start = Instant::now();
    // The model is resolved from the slot *per request*, after the head
    // is read — a connection that was accepted (or kept open) before an
    // `/admin/reload` or ingest swap must still be answered by the
    // model that is current when its request actually arrives, never by
    // the generation that happened to be live at accept time.
    let model = slot.load();
    let model = model.as_ref();
    // Panic isolation: one poisonous request must not take the worker
    // (let alone the process) down with it. The `serve.request` fault
    // site makes this path deterministically testable.
    let routed = catch_unwind(AssertUnwindSafe(|| {
        // `panic@serve.request` exercises panic isolation;
        // `stall@serve.request` wedges the worker mid-request, which is
        // how the router's hedging is driven deterministically.
        taxorec_resilience::inject_panic_or_stall("serve.request");
        if let Some(rest) = head.strip_prefix("POST ") {
            if rest
                .split_whitespace()
                .next()
                .map(|t| t.split('?').next().unwrap_or(t))
                == Some("/ingest")
            {
                let (status, body, extra) = handle_ingest(&head, &mut stream, shared);
                return Routed::Ingest(status, body, extra);
            }
        }
        route(&head, shared, model, slot, pipeline)
    }));
    let (status, body, endpoint, content_type, extra_headers) = match routed {
        Ok(Routed::Done(status, body, endpoint, content_type)) => {
            (status, body, endpoint, content_type, String::new())
        }
        Ok(Routed::Ingest(status, body, extra)) => {
            (status, body, "ingest", JSON_CONTENT_TYPE, extra)
        }
        Ok(Routed::Batch { user, k }) => {
            // A `/recommend` cache miss: hand the connection to the
            // batching pipeline. The responder pool owns everything from
            // here (response write, latency histogram, root span) — this
            // worker is immediately free for the next connection.
            let req = RecommendReq {
                stream,
                ctx,
                accepted,
                started: start,
                user,
                k,
            };
            if let Err(mut req) = pipeline.batcher.try_submit(req) {
                // Batch queue full (or draining): shed exactly like the
                // connection queue does, before any scoring work.
                shed(
                    &mut req.stream,
                    ctx,
                    pipeline.batcher.queue_depth(),
                    shared.opts.io_timeout,
                );
                taxorec_telemetry::counter("serve.http.recommend.errors").inc(1);
            }
            return;
        }
        Err(_) => {
            taxorec_telemetry::counter("serve.http.panics").inc(1);
            taxorec_telemetry::sink::warn("request handler panicked; worker continues");
            // Dump *before* responding so the dump file exists by the
            // time the client sees the 500.
            flight_event!("serve.panic", ctx.trace_id, 500, 0.0);
            flight::dump("serve.request.panic");
            (
                500,
                error_json("internal error"),
                "other",
                JSON_CONTENT_TYPE,
                String::new(),
            )
        }
    };
    {
        let _respond_span = trace::child_span("respond");
        let _ = respond_with(
            &mut stream,
            status,
            ctx.trace_id,
            content_type,
            &extra_headers,
            &body,
        );
    }
    // Covers routing (the model work) plus the response write, so the
    // histogram reflects what a client observes.
    let ms = start.elapsed().as_secs_f64() * 1e3;
    taxorec_telemetry::histogram(&format!("serve.http.{endpoint}.ms")).observe(ms);
    taxorec_telemetry::counter(&format!("serve.http.{endpoint}.requests")).inc(1);
    if status >= 400 {
        taxorec_telemetry::counter(&format!("serve.http.{endpoint}.errors")).inc(1);
    }
    flight_event!("serve.request", ctx.trace_id, status as i64, ms);
    // The root span covers accept → response written; emitted last so
    // the whole tree is buffered once the request is externally visible.
    trace::emit_root_at("http", ctx, accepted, Instant::now());
}

/// Writes one batched `/recommend` response from a responder thread and
/// closes out the request's telemetry: endpoint histogram/counters,
/// flight event, retroactive `respond` span, and the `http` root span —
/// the batched twin of the inline path's epilogue in
/// [`handle_connection`].
fn write_recommend_response(mut req: RecommendReq, scored: Scored) {
    let (status, body) = match scored {
        Scored::Ranked(items) => (200, recommend_body(req.user, req.k, &items)),
        Scored::NotFound(msg) => (404, error_json(&msg)),
        Scored::Internal => {
            // Dump before responding, mirroring the inline panic path.
            flight_event!("serve.panic", req.ctx.trace_id, 500, 0.0);
            flight::dump("serve.batch.panic");
            (500, error_json("internal error"))
        }
    };
    let write_start = Instant::now();
    let _ = respond(&mut req.stream, status, req.ctx.trace_id, &body);
    trace::emit_span_at("respond", req.ctx, write_start, Instant::now());
    let ms = req.started.elapsed().as_secs_f64() * 1e3;
    taxorec_telemetry::histogram("serve.http.recommend.ms").observe(ms);
    taxorec_telemetry::counter("serve.http.recommend.requests").inc(1);
    if status >= 400 {
        taxorec_telemetry::counter("serve.http.recommend.errors").inc(1);
    }
    flight_event!("serve.request", req.ctx.trace_id, status as i64, ms);
    trace::emit_root_at("http", req.ctx, req.accepted, Instant::now());
}

/// Reads bytes until the end of the request head (`\r\n\r\n`) and returns
/// the head as text. `None` on malformed, oversized, or timed-out input.
pub(crate) fn read_head(stream: &mut TcpStream, max_bytes: usize) -> Option<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= max_bytes {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return None,
        }
    }
    if buf.len() >= max_bytes {
        return None;
    }
    String::from_utf8(buf).ok()
}

/// What the router decided about one parsed request.
enum Routed {
    /// Answer now from the parser worker: (status, body, endpoint label
    /// for telemetry, content type).
    Done(u16, String, &'static str, &'static str),
    /// A `POST /ingest` already handled (body consumed from the
    /// stream): (status, body, extra response headers — `Retry-After`
    /// on journal backpressure).
    Ingest(u16, String, String),
    /// A `/recommend` cache miss bound for the batching pipeline.
    Batch {
        /// Validated `user` query parameter.
        user: u32,
        /// Validated `k` (defaulted and bounds-checked).
        k: usize,
    },
}

/// Dispatches one parsed request. Everything except a `/recommend`
/// cache miss resolves inline.
fn route(
    head: &str,
    shared: &Shared,
    model: &ServingModel,
    slot: &Arc<ModelSlot>,
    pipeline: &Pipeline,
) -> Routed {
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    if method != "GET" {
        return Routed::Done(
            405,
            error_json(&format!("method {method:?} not allowed; use GET")),
            "other",
            JSON_CONTENT_TYPE,
        );
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/healthz" => Routed::Done(
            200,
            healthz_json(shared, model, pipeline),
            "healthz",
            JSON_CONTENT_TYPE,
        ),
        "/metrics" => Routed::Done(
            200,
            taxorec_telemetry::prometheus::render(),
            "metrics",
            taxorec_telemetry::prometheus::CONTENT_TYPE,
        ),
        "/metrics.json" => Routed::Done(
            200,
            taxorec_telemetry::snapshot(),
            "metrics",
            JSON_CONTENT_TYPE,
        ),
        "/debug/flight" => Routed::Done(200, flight::snapshot_json(), "flight", JSON_CONTENT_TYPE),
        "/admin/drain" if shared.opts.admin => {
            shared.health.store(HEALTH_DRAINING, Ordering::SeqCst);
            taxorec_telemetry::counter("serve.admin.drain").inc(1);
            Routed::Done(
                200,
                "{\"status\":\"draining\"}".to_string(),
                "admin",
                JSON_CONTENT_TYPE,
            )
        }
        "/admin/reload" if shared.opts.admin => {
            let (status, body) = handle_reload(query, shared, slot);
            Routed::Done(status, body, "admin", JSON_CONTENT_TYPE)
        }
        "/ingest" => Routed::Done(
            405,
            error_json("use POST /ingest with a JSON interaction batch"),
            "ingest",
            JSON_CONTENT_TYPE,
        ),
        "/recommend" => handle_recommend(query, model),
        "/explain" => {
            let (status, body, ep) = handle_explain(query, model);
            Routed::Done(status, body, ep, JSON_CONTENT_TYPE)
        }
        _ => Routed::Done(
            404,
            error_json(&format!("no route for {path:?}")),
            "other",
            JSON_CONTENT_TYPE,
        ),
    }
}

/// Validates a `/recommend` query and probes the response cache. Hits
/// (and rejects) resolve inline on the parser worker — a cached answer
/// never pays batching latency; misses go to the scheduler. Unknown
/// users also take the batched path and come back as per-request `404`s
/// from [`ServingModel::recommend_many`]'s independent error entries.
fn handle_recommend(query: &str, model: &ServingModel) -> Routed {
    let user = match require_param(query, "user") {
        Ok(u) => u,
        Err(msg) => return Routed::Done(400, error_json(&msg), "recommend", JSON_CONTENT_TYPE),
    };
    let k = match param(query, "k") {
        None => DEFAULT_K,
        Some(raw) => match raw.parse::<usize>() {
            Ok(k) if k <= MAX_K => k,
            Ok(k) => {
                return Routed::Done(
                    400,
                    error_json(&format!("k = {k} exceeds the maximum of {MAX_K}")),
                    "recommend",
                    JSON_CONTENT_TYPE,
                )
            }
            Err(_) => {
                return Routed::Done(
                    400,
                    error_json(&format!("query parameter 'k' = {raw:?} is not an integer")),
                    "recommend",
                    JSON_CONTENT_TYPE,
                )
            }
        },
    };
    match model.cached(user, k) {
        Some(items) => Routed::Done(
            200,
            recommend_body(user, k, &items),
            "recommend",
            JSON_CONTENT_TYPE,
        ),
        None => Routed::Batch { user, k },
    }
}

/// The `/recommend` success body — one builder for the inline (cache
/// hit) and batched paths, so both emit byte-identical JSON.
fn recommend_body(user: u32, k: usize, items: &[(u32, f64)]) -> String {
    let mut body = String::with_capacity(32 + items.len() * 32);
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
        push_f64(&mut body, score);
        body.push('}');
    }
    body.push_str("]}");
    body
}

fn handle_explain(query: &str, model: &ServingModel) -> (u16, String, &'static str) {
    let user = match require_param(query, "user") {
        Ok(u) => u,
        Err(msg) => return (400, error_json(&msg), "explain"),
    };
    let item = match require_param(query, "item") {
        Ok(v) => v,
        Err(msg) => return (400, error_json(&msg), "explain"),
    };
    match model.explain(user, item) {
        Ok(ex) => {
            let mut body = String::with_capacity(128);
            body.push_str("{\"user\":");
            body.push_str(&ex.user.to_string());
            body.push_str(",\"item\":");
            body.push_str(&ex.item.to_string());
            body.push_str(",\"score\":");
            push_f64(&mut body, ex.score);
            body.push_str(",\"alpha\":");
            push_f64(&mut body, ex.alpha);
            body.push_str(",\"item_tags\":[");
            for (i, t) in ex.item_tags.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str("{\"tag\":");
                body.push_str(&t.tag.to_string());
                body.push_str(",\"name\":");
                push_str_escaped(&mut body, &t.name);
                body.push_str(",\"distance\":");
                push_f64(&mut body, t.distance);
                body.push('}');
            }
            body.push_str("],\"node_level\":");
            match ex.node_level {
                Some(l) => body.push_str(&l.to_string()),
                None => body.push_str("null"),
            }
            body.push_str(",\"node_tags\":[");
            for (i, name) in ex.node_tags.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                push_str_escaped(&mut body, name);
            }
            body.push_str("]}");
            (200, body, "explain")
        }
        Err(e @ ServeError::UnknownUser { .. }) | Err(e @ ServeError::UnknownItem { .. }) => {
            (404, error_json(&e.to_string()), "explain")
        }
    }
}

/// `POST /ingest` — reads the JSON interaction batch off the stream and
/// appends it to the journal. Returns `(status, body, extra headers)`:
/// `202` with the journal position on acceptance, `503 + Retry-After`
/// (one tick) when the journal is full, `503` when ingestion is off.
/// The body is *accepted*, not folded — the updater applies it on the
/// next tick, and `/healthz`'s `ingest.staleness` tracks the gap.
fn handle_ingest(head: &str, stream: &mut TcpStream, shared: &Shared) -> (u16, String, String) {
    let none = String::new;
    let Some(journal) = shared.journal.as_ref() else {
        return (
            503,
            error_json("ingestion is not enabled; start with serve --ingest"),
            none(),
        );
    };
    let opts = &shared.opts.ingest;
    let mut content_length: Option<usize> = None;
    for line in head.lines().skip(1) {
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            }
        }
    }
    let Some(expected) = content_length else {
        return (
            400,
            error_json("POST /ingest requires a Content-Length header"),
            none(),
        );
    };
    if expected > opts.max_body {
        return (
            413,
            error_json(&format!(
                "body of {expected} bytes exceeds the {} byte ingest limit",
                opts.max_body
            )),
            none(),
        );
    }
    // `read_head` may have over-read into the body; start from whatever
    // followed the blank line and pull the rest off the socket.
    let prefix = head.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    let mut raw = prefix.as_bytes().to_vec();
    let mut chunk = [0u8; 4096];
    while raw.len() < expected {
        let want = (expected - raw.len()).min(chunk.len());
        match stream.read(&mut chunk[..want]) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(_) => {
                return (
                    400,
                    error_json("timed out reading the request body"),
                    none(),
                )
            }
        }
    }
    if raw.len() < expected {
        return (
            400,
            error_json("request body ended before Content-Length bytes"),
            none(),
        );
    }
    raw.truncate(expected);
    let Ok(body) = String::from_utf8(raw) else {
        return (400, error_json("request body is not valid UTF-8"), none());
    };
    let batch = match online::parse_ingest_body(&body) {
        Ok(b) => b,
        Err(e) => return (400, error_json(&e), none()),
    };
    let n = batch.len();
    match journal.push_batch(batch) {
        Ok(_) => (
            202,
            format!(
                "{{\"accepted\":{n},\"queued\":{},\"staleness\":{}}}",
                journal.len(),
                journal.staleness()
            ),
            none(),
        ),
        Err(depth) => {
            taxorec_telemetry::counter("serve.ingest.rejected").inc(1);
            let retry_after = opts.tick.as_secs().max(1);
            (
                503,
                error_json(&format!(
                    "ingest journal full ({depth}/{} queued); retry after the next tick",
                    journal.capacity()
                )),
                format!("Retry-After: {retry_after}\r\n"),
            )
        }
    }
}

/// `{"version":…,"crc":…,"bytes":…}` for a loaded artifact, `null` for
/// an in-process model that never touched disk.
fn artifact_json(info: Option<crate::checkpoint::ArtifactInfo>) -> String {
    match info {
        None => "null".to_string(),
        Some(info) => format!(
            "{{\"version\":{},\"crc\":{},\"bytes\":{}}}",
            info.version, info.crc, info.bytes
        ),
    }
}

/// `GET /admin/reload?path=P` — warm checkpoint handover. The new
/// `.taxo` is read, validated, and built into a fresh [`ServingModel`]
/// (inheriting the live model's retrieval mode and cache capacity)
/// **before** the slot swap, so requests keep being answered by the old
/// model for the whole load; the swap itself is one `Arc` exchange.
/// While the handover is in progress `/healthz` reports `draining` so a
/// fronting router prefers replicas; the prior health state is restored
/// on completion — including on failure, which keeps the old model and
/// answers `500`.
fn handle_reload(query: &str, shared: &Shared, slot: &Arc<ModelSlot>) -> (u16, String) {
    let path = match require_param_str(query, "path") {
        Ok(p) => p,
        Err(msg) => return (400, error_json(&msg)),
    };
    // One handover at a time: concurrent reloads would race the
    // health save/restore and could swap models out of order.
    let _serialized = shared.reload.lock().unwrap_or_else(|e| e.into_inner());
    let old = slot.load();
    let prior_health = shared.health.load(Ordering::SeqCst);
    shared.health.store(HEALTH_DRAINING, Ordering::SeqCst);
    let started = Instant::now();
    let built = Checkpoint::load_file(path)
        .and_then(|ckpt| ServingModel::with_cache_capacity(ckpt, old.cache_usage().1))
        .and_then(|m| m.with_retrieval(old.retrieval_mode()));
    let (status, body) = match built {
        Ok(new_model) => {
            let new_info = artifact_json(new_model.artifact_info());
            let replaced = slot.swap(Arc::new(new_model));
            taxorec_telemetry::counter("serve.admin.reload").inc(1);
            taxorec_telemetry::histogram("serve.admin.reload.ms")
                .observe(started.elapsed().as_secs_f64() * 1e3);
            taxorec_telemetry::sink::info(&format!("checkpoint reloaded from {path:?}"));
            (
                200,
                format!(
                    "{{\"status\":\"reloaded\",\"path\":{},\"old\":{},\"new\":{}}}",
                    {
                        let mut s = String::new();
                        push_str_escaped(&mut s, path);
                        s
                    },
                    artifact_json(replaced.artifact_info()),
                    new_info,
                ),
            )
        }
        Err(e) => {
            taxorec_telemetry::counter("serve.admin.reload.errors").inc(1);
            taxorec_telemetry::sink::warn(&format!(
                "checkpoint reload from {path:?} failed: {e}; keeping current model"
            ));
            (500, error_json(&format!("reload failed: {e}")))
        }
    };
    shared.health.store(prior_health, Ordering::SeqCst);
    (status, body)
}

fn healthz_json(shared: &Shared, model: &ServingModel, pipeline: &Pipeline) -> String {
    let (cache_len, cache_cap) = model.cache_usage();
    let queued = lock_queue(&shared.queue).len();
    let mut body = String::with_capacity(224);
    body.push_str("{\"status\":\"");
    body.push_str(shared.health().as_str());
    body.push_str("\",\"shard\":{\"id\":");
    match &shared.opts.shard_id {
        Some(id) => push_str_escaped(&mut body, id),
        None => body.push_str("null"),
    }
    body.push_str(",\"checkpoint\":");
    body.push_str(&artifact_json(model.artifact_info()));
    body.push_str("},\"model\":");
    push_str_escaped(&mut body, model.name());
    body.push_str(",\"users\":");
    body.push_str(&model.n_users().to_string());
    body.push_str(",\"items\":");
    body.push_str(&model.n_items().to_string());
    body.push_str(",\"tags\":");
    body.push_str(&model.n_tags().to_string());
    body.push_str(",\"queue\":{\"depth\":");
    body.push_str(&queued.to_string());
    body.push_str(",\"capacity\":");
    body.push_str(&shared.opts.max_queue.to_string());
    body.push_str("},\"batch\":{\"depth\":");
    body.push_str(&pipeline.batcher.queue_depth().to_string());
    body.push_str(",\"capacity\":");
    body.push_str(&pipeline.batcher.capacity().to_string());
    body.push_str(",\"max_batch\":");
    body.push_str(&pipeline.batcher.options().max_batch.to_string());
    body.push_str("},\"cache\":{\"entries\":");
    body.push_str(&cache_len.to_string());
    body.push_str(",\"capacity\":");
    body.push_str(&cache_cap.to_string());
    body.push_str("},\"retrieval\":{\"mode\":\"");
    body.push_str(&model.retrieval_mode().label());
    body.push_str("\",\"index\":");
    match model.retrieval_index() {
        None => body.push_str("null"),
        Some(index) => {
            body.push_str("{\"nodes\":");
            body.push_str(&index.n_nodes().to_string());
            body.push_str(",\"leaves\":");
            body.push_str(&index.n_leaves().to_string());
            body.push_str(",\"depth\":");
            body.push_str(&index.depth().to_string());
            body.push_str(",\"default_beam\":");
            body.push_str(&index.default_beam().to_string());
            body.push('}');
        }
    }
    body.push_str("},\"ingest\":");
    match shared.journal.as_ref() {
        None => body.push_str("null"),
        Some(j) => {
            body.push_str("{\"accepted\":");
            body.push_str(&j.accepted().to_string());
            body.push_str(",\"applied\":");
            body.push_str(&j.applied().to_string());
            body.push_str(",\"staleness\":");
            body.push_str(&j.staleness().to_string());
            body.push_str(",\"queued\":");
            body.push_str(&j.len().to_string());
            body.push_str(",\"capacity\":");
            body.push_str(&j.capacity().to_string());
            body.push_str(",\"cursor\":");
            match model.journal_cursor() {
                Some(c) => body.push_str(&c.to_string()),
                None => body.push_str("null"),
            }
            body.push('}');
        }
    }
    body.push('}');
    body
}

pub(crate) fn error_json(message: &str) -> String {
    let mut body = String::with_capacity(message.len() + 12);
    body.push_str("{\"error\":");
    push_str_escaped(&mut body, message);
    body.push('}');
    body
}

/// Value of `name` in an `a=1&b=2` query string, if present.
pub(crate) fn param<'q>(query: &'q str, name: &str) -> Option<&'q str> {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == name)
        .map(|(_, v)| v)
}

/// Like [`require_param`] but returns the raw string value (for
/// `/admin/reload?path=…`, which takes a filesystem path).
fn require_param_str<'q>(query: &'q str, name: &str) -> Result<&'q str, String> {
    param(query, name).ok_or_else(|| format!("missing required query parameter '{name}'"))
}

pub(crate) fn require_param(query: &str, name: &str) -> Result<u32, String> {
    match param(query, name) {
        None => Err(format!("missing required query parameter '{name}'")),
        Some(raw) => raw.parse::<u32>().map_err(|_| {
            format!("query parameter '{name}' = {raw:?} is not a non-negative integer")
        }),
    }
}

pub(crate) fn respond(
    stream: &mut TcpStream,
    status: u16,
    trace_id: u64,
    body: &str,
) -> std::io::Result<()> {
    respond_with(stream, status, trace_id, JSON_CONTENT_TYPE, "", body)
}

pub(crate) fn respond_with(
    stream: &mut TcpStream,
    status: u16,
    trace_id: u64,
    content_type: &str,
    extra_headers: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let header = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nx-taxorec-trace: {trace_id:016x}\r\n\
         {extra_headers}Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_parsing() {
        assert_eq!(param("user=3&k=5", "user"), Some("3"));
        assert_eq!(param("user=3&k=5", "k"), Some("5"));
        assert_eq!(param("user=3", "k"), None);
        assert_eq!(param("", "user"), None);
        assert_eq!(require_param("user=7", "user"), Ok(7));
        assert!(require_param("user=-1", "user")
            .unwrap_err()
            .contains("non-negative"));
        assert!(require_param("k=5", "user").unwrap_err().contains("user"));
    }

    #[test]
    fn error_json_escapes() {
        let j = error_json("bad \"quote\"");
        assert_eq!(j, "{\"error\":\"bad \\\"quote\\\"\"}");
        assert!(taxorec_telemetry::json::is_valid_json(&j));
    }

    #[test]
    fn health_state_strings() {
        assert_eq!(Health::Ready.as_str(), "ready");
        assert_eq!(Health::Degraded.as_str(), "degraded");
        assert_eq!(Health::Draining.as_str(), "draining");
    }

    #[test]
    fn serve_options_defaults_are_sane() {
        let o = ServeOptions::default();
        assert!(o.n_workers >= 1);
        assert!(o.max_queue >= 1);
        assert!(o.io_timeout > Duration::ZERO);
        assert!(o.max_request_bytes >= 1024);
    }
}
