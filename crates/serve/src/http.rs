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
//!    │ (cache hits)            │ (late-head hits, /healthz, …) │
//!    └→ inline response        └──────────→ inline response    └→ batched response
//! ```
//!
//! The acceptor reads each new connection once without waiting and
//! answers a `/recommend` cache **hit** whose whole head is in those
//! bytes itself (`answer_hit`): no hand-off, and a reply the socket
//! does not take whole leaves its tail to a worker. Every other
//! connection goes into a bounded queue with the bytes already read;
//! parser workers read on from them and route. Endpoints other than
//! `/recommend` — and hits whose head arrived after the acceptor's
//! read — are answered inline by the parser worker. Cache misses become
//! [`RecommendReq`]s submitted to the
//! [`Batcher`]: a free scorer thread takes a request together with
//! whatever else is already queued (up to [`BatchOptions::max_batch`];
//! it never waits for company, so a lone request is scored at once and
//! batches form only while every scorer is busy) and ranks the block in
//! one fused [`ServingModel::recommend_many`] pass — **bit-identical**
//! to a batch of one. The scorer that ranked a batch writes each of its
//! replies. A reply is at most `MAX_K` = 1000 items (about 40 KB), which a
//! peer's kernel receive buffer takes whole even when the peer never
//! reads, so a write blocks only against a peer that shrank its window —
//! and then it pins one scorer while the other keeps serving.
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
//! * **Deadlines** — every connection handed to a worker gets read/write
//!   timeouts ([`ServeOptions::io_timeout`]); a stalled or trickling
//!   client is disconnected instead of pinning a worker forever. The
//!   acceptor needs none: it never waits on a peer.
//! * **Size caps** — request heads over
//!   [`ServeOptions::max_request_bytes`] are rejected with `400`.
//! * **Load shedding** — when the connection queue is full the acceptor
//!   answers `503` with a `Retry-After` header immediately rather than
//!   letting the backlog grow without bound (`serve.http.shed`).
//! * **Panic isolation** — each request handler, the acceptor's inline
//!   path included, runs under `catch_unwind`; a panicking request gets
//!   a `500` and the thread lives on (`serve.http.panics`). The
//!   `serve.request` fault site makes this deterministically testable.
//! * **Degraded spawn** — if some worker threads fail to spawn the
//!   server runs with the ones it got and `/healthz` reports
//!   `"degraded"`; only zero workers is fatal.
//!
//! `/healthz` reports `"ready"`, `"degraded"` (reduced worker pool), or
//! `"draining"` (shutdown in progress). Every request lands in the
//! `serve.http.requests` counter and a per-endpoint latency histogram
//! (`serve.http.<endpoint>.ms`); `serve.http.inline` counts the hits the
//! acceptor answered.

use std::fmt::Write;
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use taxorec_telemetry::json::{push_f64, push_str_escaped};
use taxorec_telemetry::{env, flight, flight_event, held_counter, trace, TraceContext};

use crate::batch::{BatchJob, BatchOptions, Batcher};
use crate::checkpoint::{write_atomic, Checkpoint};
use crate::model::{Answer, ModelSlot, ServeError, ServingModel};
use crate::net::{
    self, param, require_param, Conn, Edge, Endpoint, Front, Inline, PoolSpec, Red, Reply, Request,
    Shedder, Stage,
};
use crate::online::{self, IngestOptions, Journal};

/// Updater sleep slice (stop-flag recheck bound).
const POLL_INTERVAL: Duration = Duration::from_millis(10);
/// Ingest journal capacity; `POST /ingest` answers `503 + Retry-After`
/// when full (backpressure, same contract as the connection queue).
const JOURNAL_CAP: usize = 65_536;
/// Most interactions folded per update tick; the rest stay journaled
/// for the next tick.
const TICK_BATCH: usize = 4096;
/// Largest `POST /ingest` body accepted (bytes).
const MAX_INGEST_BODY: usize = 1024 * 1024;
/// Default `k` when `/recommend` omits it.
const DEFAULT_K: usize = 10;
/// Upper bound on `k` per request (keeps a typo from ranking the world).
const MAX_K: usize = 1000;
/// How long the acceptor re-reads a connection that has sent nothing yet
/// (DESIGN.md §14): long enough for a client's request to follow its
/// `connect`, short enough that a silent peer costs the acceptor little.
const HEAD_GRACE: Duration = Duration::from_micros(40);
/// The server's `serve.http.<endpoint>.{ms,requests,errors}` series.
static SERVE_HTTP: Red = Red::new("serve.http");

/// Tuning knobs for [`serve_with`]. [`ServeOptions::from_env`] reads the
/// deployment's `TAXOREC_SERVE_*` variables; [`Default`] ignores the
/// environment.
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
    pub max_request_bytes: usize,
    /// Accepted connections allowed to wait for a worker; beyond this the
    /// acceptor sheds load with `503 + Retry-After`.
    /// Env: `TAXOREC_SERVE_MAX_QUEUE`.
    pub max_queue: usize,
    /// Micro-batching scheduler knobs.
    pub batch: BatchOptions,
    /// Shard identity reported by `/healthz` (`"shard":{"id":…}`), so a
    /// router aggregating a fleet can tell which process answered.
    /// Env: `TAXOREC_SHARD_ID`.
    pub shard_id: Option<String>,
    /// Enables the `/admin/drain` and `/admin/reload` endpoints (warm
    /// checkpoint reload and router-observable draining). On by
    /// default; set `TAXOREC_SERVE_ADMIN=0` to disable on an exposed
    /// listener.
    pub admin: bool,
    /// Streaming-ingestion tuning ([`IngestOptions::from_env`]). Only
    /// honored by [`serve_online`]; plain [`serve_with`] answers
    /// `POST /ingest` with `503`.
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
            shard_id: None,
            admin: true,
            ingest: IngestOptions::default(),
        }
    }
}

impl ServeOptions {
    /// Defaults overridden by `TAXOREC_SERVE_WORKERS`,
    /// `TAXOREC_SERVE_TIMEOUT_MS`, `TAXOREC_SERVE_MAX_QUEUE`,
    /// `TAXOREC_SHARD_ID`, `TAXOREC_SERVE_ADMIN` and
    /// [`IngestOptions::from_env`] where set and parseable.
    pub fn from_env() -> Self {
        let d = Self::default();
        Self {
            n_workers: env::<usize>("TAXOREC_SERVE_WORKERS")
                .map_or(d.n_workers, |w| w.clamp(1, 64)),
            io_timeout: env::<u64>("TAXOREC_SERVE_TIMEOUT_MS")
                .map_or(d.io_timeout, |ms| Duration::from_millis(ms.max(1))),
            max_queue: env::<usize>("TAXOREC_SERVE_MAX_QUEUE").map_or(d.max_queue, |q| q.max(1)),
            shard_id: env("TAXOREC_SHARD_ID"),
            admin: env::<String>("TAXOREC_SERVE_ADMIN").as_deref() != Some("0"),
            ingest: IngestOptions::from_env(),
            ..d
        }
    }
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

/// A parsed `/recommend` cache miss travelling through the batching
/// pipeline with its connection: handed from the parser worker to the
/// [`Batcher`], scored in a block, and written by the same scorer.
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

/// Outcome of scoring one batched request.
enum Scored {
    /// 200 with the ranked items and their rendered body.
    Ranked(Arc<Answer>),
    /// 404 — unknown user (same mapping as the inline path).
    NotFound(String),
    /// 500 — this request's batch panicked; only its own batch fails.
    Internal,
}

/// State shared by the workers, the updater, and the handle.
struct Shared {
    health: AtomicU8,
    /// Accepted connections waiting for a parser worker.
    conns: Arc<Stage<Conn>>,
    shedder: Arc<Shedder>,
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

/// A running server: the listening front (acceptor + parser workers),
/// the batcher behind it, and the optional ingest updater.
pub struct ServerHandle {
    front: Front,
    shared: Arc<Shared>,
    batcher: Arc<Batcher<RecommendReq>>,
    updater: Option<JoinHandle<()>>,
    slot: Arc<ModelSlot>,
}

impl ServerHandle {
    /// The address actually bound (resolves ephemeral port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Current readiness as reported by `/healthz`.
    pub fn health(&self) -> Health {
        self.shared.health()
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

    /// Stage-ordered drain: acceptor + parser workers first (no new
    /// submissions), then the batcher (scores and answers every queued
    /// request). Each stage's queue is empty before the next stage
    /// stops.
    fn drain(&mut self) {
        self.shared.health.store(HEALTH_DRAINING, Ordering::SeqCst);
        self.front.shutdown();
        if let Some(updater) = self.updater.take() {
            let _ = updater.join();
        }
        self.batcher.shutdown();
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
/// updater's master copy (or, when both carry the same artifact
/// identity, `model`'s own shared checkpoint does and `base` is
/// dropped), and its `journal_cursor` seeds the journal so a restart
/// from a persisted streaming artifact resumes its cursor.
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
    let n_requested = opts.n_workers.max(1);
    let batch_opts = opts.batch.clone();
    let journal = online_base
        .as_ref()
        .map(|base| Arc::new(Journal::new(JOURNAL_CAP, base.journal_cursor.unwrap_or(0))));
    let shedder = Arc::new(Shedder::new(
        "serve.http.shed",
        "serve.shed",
        "server overloaded; retry later",
        opts.io_timeout,
    ));
    let shared = Arc::new(Shared {
        health: AtomicU8::new(HEALTH_READY),
        conns: Stage::new(
            opts.max_queue,
            Some(taxorec_telemetry::gauge("serve.queue.depth")),
        ),
        shedder: Arc::clone(&shedder),
        opts,
        reload: Mutex::new(()),
        journal,
    });
    let slot = Arc::new(ModelSlot::new(model));

    // Scorer pool behind the bounded batch queue. The handler scores one
    // assembled block through the fused multi-anchor path and stamps the
    // retroactive per-request `batch.wait` / `score` spans; a panicking
    // batch falls back to 500s for only its own requests. The scorer
    // then writes each reply itself. The model is resolved through the
    // slot per batch, so a warm reload takes effect from the next
    // assembled block on.
    let scoring_slot = Arc::clone(&slot);
    let (batcher, live_scorers) = Batcher::spawn(
        batch_opts.clone(),
        move |jobs: &[BatchJob<RecommendReq>]| {
            let started = Instant::now();
            let queries: Vec<(u32, usize)> = jobs.iter().map(|j| (j.req.user, j.req.k)).collect();
            let results = scoring_slot.load().answer_many(&queries, true);
            let finished = Instant::now();
            for j in jobs {
                trace::emit_span_at("batch.wait", j.req.ctx, j.enqueued, started);
                trace::emit_span_at("score", j.req.ctx, started, finished);
            }
            results
                .into_iter()
                .map(|r| match r {
                    Ok(answer) => Scored::Ranked(answer),
                    Err(e) => Scored::NotFound(e.to_string()),
                })
                .collect()
        },
        |_job| Scored::Internal,
        write_recommend_response,
    )?;
    let batcher = Arc::new(batcher);

    let (front, live_workers) = {
        let shared = Arc::clone(&shared);
        let slot = Arc::clone(&slot);
        let batcher = Arc::clone(&batcher);
        net::listen(
            addr,
            Arc::clone(&shared.conns),
            Edge {
                pool: PoolSpec {
                    thread: "taxorec-serve",
                    metric: "serve.worker",
                    // Deterministic worker loss for the health-transition
                    // tests: `TAXOREC_FAULT=io@serve.spawn:2` makes
                    // exactly the second worker fail to spawn, driving
                    // `/healthz` to `degraded`.
                    fault_site: Some("serve.spawn"),
                },
                n_workers: n_requested,
                io_timeout: shared.opts.io_timeout,
                head_grace: HEAD_GRACE,
                shedder,
            },
            {
                let (shared, slot) = (Arc::clone(&shared), Arc::clone(&slot));
                let inline = taxorec_telemetry::counter("serve.http.inline");
                move |conn: &mut Conn| answer_hit(conn, &shared, &slot, &inline)
            },
            move |conn| handle_connection(conn, &shared, &slot, &batcher),
        )
    }
    .inspect_err(|_| batcher.shutdown())?;
    if live_workers < n_requested || live_scorers < batch_opts.n_scorers.max(1) {
        shared.health.store(HEALTH_DEGRADED, Ordering::SeqCst);
        taxorec_telemetry::sink::warn(&format!(
            "serving degraded: {live_workers}/{n_requested} workers, {live_scorers} scorers"
        ));
    }
    let mut handle = ServerHandle {
        front,
        shared,
        batcher,
        updater: None,
        slot,
    };
    if let Some(base) = online_base {
        let shared = Arc::clone(&handle.shared);
        let slot = Arc::clone(&handle.slot);
        let stop = handle.front.stop_flag();
        // A failed spawn drops `handle`, which drains what already runs.
        let updater = std::thread::Builder::new()
            .name("taxorec-ingest".to_string())
            .spawn(move || updater_loop(base, &shared, &slot, &stop))?;
        handle.updater = Some(updater);
    }
    Ok(handle)
}

/// The incremental-update loop ([`serve_online`]): every tick, drain up
/// to a batch of journaled interactions and publish them as a new
/// generation ([`update_tick`]). The master checkpoint is shared with
/// the served model, never mutated: each tick folds into one fresh
/// copy, which becomes both the next master and the next served model.
/// The swap is the `/admin/reload` handover — one `Arc` exchange,
/// response cache starting cold.
fn updater_loop(base: Checkpoint, shared: &Shared, slot: &Arc<ModelSlot>, stop: &AtomicBool) {
    let Some(journal) = shared.journal.as_ref() else {
        return;
    };
    let opts = shared.opts.ingest.clone();
    // `base` is the checkpoint the boot model was built from. When their
    // artifact identities agree, adopt the model's shared copy and drop
    // `base`, so boot holds one copy of the model as well.
    let boot = slot.load();
    let mut master = match (base.artifact, boot.checkpoint().artifact) {
        (Some(a), Some(b)) if a == b => Arc::clone(boot.checkpoint()),
        _ => Arc::new(base),
    };
    drop(boot);
    // Graft-drift counter, threaded through every fold so chunked
    // ticking stays bit-identical to one whole-journal replay.
    let mut drift = 0u64;
    while !stop.load(Ordering::SeqCst) {
        let tick_start = Instant::now();
        while tick_start.elapsed() < opts.tick {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(POLL_INTERVAL.min(opts.tick));
        }
        let batch = journal.drain(TICK_BATCH);
        if batch.is_empty() {
            continue;
        }
        update_tick(&mut master, &batch, &opts, &mut drift, slot, journal);
    }
}

/// Records the milliseconds since `since` in histogram `name`.
fn observe_ms(name: &str, since: Instant) {
    taxorec_telemetry::histogram(name).observe(since.elapsed().as_secs_f64() * 1e3);
}

/// One updater tick, one copy of the model: clone the master, fold the
/// batch into the clone, optionally persist it, build the next
/// [`ServingModel`] over it and swap that in. The clone then becomes
/// the master, shared with the model just published.
///
/// A fold error drops the clone and restores `drift`: a failed batch
/// may leave a partially applied prefix whose journal cursor never
/// advanced, and discarding state *and* drift together is what keeps
/// cursor and embeddings consistent for a restart's bit-identical
/// replay. The new generation is sealed ([`Checkpoint::seal`]: its CRC
/// streams through a checksum, no serialized copy is held), so
/// `/healthz` advertises the streamed generation, not the boot
/// artifact. Each stage lands in
/// `serve.ingest.{fold,seal,persist,build,swap}.ms` (`fold` includes the
/// clone), the whole tick in `serve.ingest.tick.ms`.
fn update_tick(
    master: &mut Arc<Checkpoint>,
    batch: &[online::IngestInteraction],
    opts: &IngestOptions,
    drift: &mut u64,
    slot: &Arc<ModelSlot>,
    journal: &Journal,
) {
    let started = Instant::now();
    let drift_before = *drift;
    let mut next = Checkpoint::clone(master);
    let folded = online::fold_batch(&mut next, batch, opts, drift);
    observe_ms("serve.ingest.fold.ms", started);
    if let Err(e) = folded {
        *drift = drift_before;
        taxorec_telemetry::counter("serve.ingest.fold_errors").inc(1);
        taxorec_telemetry::sink::warn(&format!(
            "ingest: folding {} interactions failed: {e}; batch dropped",
            batch.len()
        ));
        journal.mark_applied(batch.len() as u64);
        return;
    }
    let sealing = Instant::now();
    next.artifact = Some(next.seal());
    observe_ms("serve.ingest.seal.ms", sealing);
    if let Some(path) = &opts.checkpoint_path {
        let persisting = Instant::now();
        if let Err(e) = write_atomic(path, &next.to_bytes()) {
            taxorec_telemetry::counter("serve.ingest.persist_errors").inc(1);
            taxorec_telemetry::sink::warn(&format!(
                "ingest: persisting {} failed: {e}; serving continues unpersisted",
                path.display()
            ));
        }
        observe_ms("serve.ingest.persist.ms", persisting);
    }
    let next = Arc::new(next);
    // Held across the swap: the swap itself never drops the old
    // generation, and unless a request still holds it, it is released
    // here at the end of the tick.
    let old = slot.load();
    let building = Instant::now();
    let built = ServingModel::with_cache_capacity(Arc::clone(&next), old.cache_usage().1)
        .and_then(|m| m.with_retrieval(old.retrieval_mode()));
    // An exact engine's scorer is part of its build, not of the swap.
    if let Ok(model) = &built {
        model.build_scorer();
    }
    observe_ms("serve.ingest.build.ms", building);
    match built {
        Ok(model) => {
            let swapping = Instant::now();
            slot.swap(Arc::new(model));
            observe_ms("serve.ingest.swap.ms", swapping);
            taxorec_telemetry::counter("serve.ingest.swaps").inc(1);
        }
        Err(e) => {
            taxorec_telemetry::counter("serve.ingest.swap_failed").inc(1);
            taxorec_telemetry::sink::warn(&format!(
                "ingest: building the refreshed model failed: {e}; keeping current model"
            ));
        }
    }
    *master = next;
    journal.mark_applied(batch.len() as u64);
    observe_ms("serve.ingest.tick.ms", started);
}

/// Adopts an inbound `x-taxorec-trace` header (the router hop): the
/// request joins the caller's trace instead of starting a fresh one, so
/// one user query traces as one tree across router and shard. Span ids
/// and the local sampling decision are kept — only the trace identity
/// is inherited.
fn adopt_trace(head: &str, ctx: TraceContext) -> TraceContext {
    match net::header(head, "x-taxorec-trace").map(|v| u64::from_str_radix(v, 16)) {
        Some(Ok(trace_id)) if trace_id != 0 => TraceContext { trace_id, ..ctx },
        _ => ctx,
    }
}

/// The acceptor's inline path (DESIGN.md §14): answers a `GET
/// /recommend` whose whole head arrived with the connection and whose
/// `(user, k)` is in the response cache, without a hand-off and without
/// waiting on the peer. Anything else — a partial head, a miss, a bad
/// query, another endpoint — is declined to a worker, which reads on
/// from the same bytes. The `serve.request` fault site is probed only
/// once a hit is found, so an armed fault fires once wherever its
/// request lands.
fn answer_hit(
    conn: &mut Conn,
    shared: &Shared,
    slot: &ModelSlot,
    inline: &taxorec_telemetry::Counter,
) -> Inline {
    let start = Instant::now();
    let max_head = shared.opts.max_request_bytes;
    let Ok(Some(head)) = net::head_in(&conn.prefix, 0, max_head) else {
        return Inline::Declined;
    };
    let request = Request::parse(head);
    if request.method != "GET" || request.path != "/recommend" {
        return Inline::Declined;
    }
    let Ok((user, k)) = recommend_key(request.query) else {
        return Inline::Declined;
    };
    let (ctx, accepted) = (adopt_trace(head, conn.ctx), conn.accepted);
    let _trace_scope = trace::scope(ctx);
    let model = slot.load();
    let routed = catch_unwind(AssertUnwindSafe(|| {
        let answer = model.cached_hit(user, k)?;
        taxorec_resilience::inject_panic_or_stall("serve.request");
        Some(Reply::shared(200, answer.body(), Endpoint::Recommend))
    }));
    let reply = match routed {
        Ok(Some(reply)) => reply,
        Ok(None) => return Inline::Declined,
        Err(_) => panic_reply(ctx),
    };
    trace::emit_span_at("queue", ctx, accepted, start);
    held_counter!("serve.http.requests").inc(1);
    inline.inc(1);
    let writing = Instant::now();
    net::answer_now(reply, &mut conn.stream, ctx.trace_id, move |reply| {
        trace::emit_span_at("respond", ctx, writing, Instant::now());
        finish_request(reply, ctx, start, accepted);
    })
}

fn handle_connection(
    conn: Conn,
    shared: &Shared,
    slot: &Arc<ModelSlot>,
    batcher: &Batcher<RecommendReq>,
) {
    let Conn {
        mut stream,
        ctx,
        accepted,
        prefix,
        ..
    } = conn;
    let dequeued = Instant::now();
    let max_head = shared.opts.max_request_bytes;
    let Some((head, body_prefix)) = net::read_request(&mut stream, prefix, max_head, ctx.trace_id)
    else {
        trace::emit_span_at("queue", ctx, accepted, dequeued);
        return;
    };
    // Join the caller's trace when the request came through the router
    // (`x-taxorec-trace` header), then emit the accept→dequeue wait as a
    // retroactive child span under the adopted identity.
    let ctx = adopt_trace(&head, ctx);
    trace::emit_span_at("queue", ctx, accepted, dequeued);
    // Everything below runs with `ctx` ambient, so `child_span` calls in
    // the serving model (cache, score, kernel) parent into this request.
    let _trace_scope = trace::scope(ctx);
    held_counter!("serve.http.requests").inc(1);
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
        let request = Request::parse(&head);
        if request.method == "POST" && request.path == "/ingest" {
            return Routed::Done(handle_ingest(&head, body_prefix, &mut stream, shared));
        }
        route(&request, shared, model, slot, batcher)
    }));
    let reply = match routed {
        Ok(Routed::Done(reply)) => reply,
        Ok(Routed::Batch { user, k }) => {
            // A `/recommend` cache miss: hand the connection to the
            // batcher. The scorer owns everything from here (response
            // write, latency histogram, root span) — this worker is
            // immediately free for the next connection.
            let req = RecommendReq {
                stream,
                ctx,
                accepted,
                started: start,
                user,
                k,
            };
            if let Err(mut req) = batcher.try_submit(req) {
                // Batch queue full (or draining): shed exactly like the
                // connection queue does, before any scoring work.
                shared
                    .shedder
                    .shed(&mut req.stream, ctx, batcher.queue_depth());
                SERVE_HTTP.errors(Endpoint::Recommend).inc(1);
            }
            return;
        }
        Err(_) => panic_reply(ctx),
    };
    {
        let _respond_span = trace::child_span("respond");
        reply.write(&mut stream, ctx.trace_id);
    }
    finish_request(&reply, ctx, start, accepted);
}

/// The `500` for a request whose handler panicked, once the panic is
/// counted and the flight ring dumped — *before* responding, so the dump
/// file exists by the time the client sees the 500.
fn panic_reply(ctx: TraceContext) -> Reply {
    taxorec_telemetry::counter("serve.http.panics").inc(1);
    taxorec_telemetry::sink::warn("request handler panicked; the thread continues");
    flight_event!("serve.panic", ctx.trace_id, 500, 0.0);
    flight::dump("serve.request.panic");
    Reply::error(500, "internal error", Endpoint::Other)
}

/// Closes out one answered request: endpoint histogram/counters, flight
/// event, and the `http` root span. The root covers accept → response
/// written and is emitted last, so the whole tree is buffered once the
/// request is externally visible.
fn finish_request(reply: &Reply, ctx: TraceContext, started: Instant, accepted: Instant) {
    let ms = reply.record(&SERVE_HTTP, started);
    flight_event!("serve.request", ctx.trace_id, reply.status as i64, ms);
    trace::emit_root_at("http", ctx, accepted, Instant::now());
}

/// Writes one batched `/recommend` response from the scorer that ranked
/// it, with the retroactive `respond` span the inline path opens as a
/// scope. This is the [`Batcher`]'s completion callback.
fn write_recommend_response(mut req: RecommendReq, scored: Scored) {
    let reply = match scored {
        Scored::Ranked(answer) => Reply::shared(200, answer.body(), Endpoint::Recommend),
        Scored::NotFound(msg) => Reply::error(404, &msg, Endpoint::Recommend),
        Scored::Internal => {
            // Dump before responding, mirroring the inline panic path.
            flight_event!("serve.panic", req.ctx.trace_id, 500, 0.0);
            flight::dump("serve.batch.panic");
            Reply::error(500, "internal error", Endpoint::Recommend)
        }
    };
    let write_start = Instant::now();
    reply.write(&mut req.stream, req.ctx.trace_id);
    trace::emit_span_at("respond", req.ctx, write_start, Instant::now());
    finish_request(&reply, req.ctx, req.started, req.accepted);
}

/// What the router decided about one parsed request.
enum Routed {
    /// Answer now from the parser worker.
    Done(Reply),
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
    request: &Request<'_>,
    shared: &Shared,
    model: &ServingModel,
    slot: &Arc<ModelSlot>,
    batcher: &Batcher<RecommendReq>,
) -> Routed {
    let Request {
        method,
        path,
        query,
        ..
    } = *request;
    if method != "GET" {
        let msg = format!("method {method:?} not allowed; use GET");
        return Routed::Done(Reply::error(405, &msg, Endpoint::Other));
    }
    Routed::Done(match path {
        "/healthz" => Reply::new(200, healthz_json(shared, model, batcher), Endpoint::Healthz),
        "/metrics" => Reply::new(
            200,
            taxorec_telemetry::prometheus::render(),
            Endpoint::Metrics,
        )
        .content_type(taxorec_telemetry::prometheus::CONTENT_TYPE),
        "/metrics.json" => Reply::new(200, taxorec_telemetry::snapshot(), Endpoint::Metrics),
        "/debug/flight" => Reply::new(200, flight::snapshot_json(), Endpoint::Flight),
        "/admin/drain" if shared.opts.admin => {
            shared.health.store(HEALTH_DRAINING, Ordering::SeqCst);
            Reply::new(
                200,
                "{\"status\":\"draining\"}".to_string(),
                Endpoint::Admin,
            )
        }
        "/admin/reload" if shared.opts.admin => handle_reload(query, shared, slot),
        "/ingest" => Reply::error(
            405,
            "use POST /ingest with a JSON interaction batch",
            Endpoint::Ingest,
        ),
        "/recommend" => return handle_recommend(query, model),
        "/explain" => handle_explain(query, model),
        _ => Reply::error(404, &format!("no route for {path:?}"), Endpoint::Other),
    })
}

/// The validated `(user, k)` of a `/recommend` query, or the reason it
/// is a `400`.
fn recommend_key(query: &str) -> Result<(u32, usize), String> {
    let user = require_param(query, "user")?;
    let k = match param(query, "k") {
        None => DEFAULT_K,
        Some(raw) => match raw.parse::<usize>() {
            Ok(k) if k <= MAX_K => k,
            Ok(k) => return Err(format!("k = {k} exceeds the maximum of {MAX_K}")),
            Err(_) => return Err(format!("query parameter 'k' = {raw:?} is not an integer")),
        },
    };
    Ok((user, k))
}

/// Validates a `/recommend` query and probes the response cache. Hits
/// (and rejects) resolve inline on the parser worker — a cached answer
/// never pays batching latency; misses go to the scheduler. Unknown
/// users also take the batched path and come back as per-request `404`s
/// from [`ServingModel::recommend_many`]'s independent error entries.
fn handle_recommend(query: &str, model: &ServingModel) -> Routed {
    let (user, k) = match recommend_key(query) {
        Ok(key) => key,
        Err(msg) => return Routed::Done(Reply::error(400, &msg, Endpoint::Recommend)),
    };
    match model.cached_answer(user, k) {
        Some(answer) => Routed::Done(Reply::shared(200, answer.body(), Endpoint::Recommend)),
        None => Routed::Batch { user, k },
    }
}

fn handle_explain(query: &str, model: &ServingModel) -> Reply {
    let user = match require_param(query, "user") {
        Ok(u) => u,
        Err(msg) => return Reply::error(400, &msg, Endpoint::Explain),
    };
    let item = match require_param(query, "item") {
        Ok(v) => v,
        Err(msg) => return Reply::error(400, &msg, Endpoint::Explain),
    };
    match model.explain(user, item) {
        Ok(ex) => {
            // Numbers at their longest; names as they are unless escaped.
            let tags: usize = ex.item_tags.iter().map(|t| t.name.len() + 72).sum();
            let node_tags: usize = ex.node_tags.iter().map(|name| name.len() + 3).sum();
            let mut body = String::with_capacity(160 + tags + node_tags);
            let _ = write!(
                body,
                "{{\"user\":{},\"item\":{},\"score\":",
                ex.user, ex.item
            );
            push_f64(&mut body, ex.score);
            body.push_str(",\"alpha\":");
            push_f64(&mut body, ex.alpha);
            body.push_str(",\"item_tags\":[");
            for (i, t) in ex.item_tags.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                let _ = write!(body, "{{\"tag\":{},\"name\":", t.tag);
                push_str_escaped(&mut body, &t.name);
                body.push_str(",\"distance\":");
                push_f64(&mut body, t.distance);
                body.push('}');
            }
            body.push_str("],\"node_level\":");
            match ex.node_level {
                Some(l) => {
                    let _ = write!(body, "{l}");
                }
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
            Reply::new(200, body, Endpoint::Explain)
        }
        Err(e @ ServeError::UnknownUser { .. }) | Err(e @ ServeError::UnknownItem { .. }) => {
            Reply::error(404, &e.to_string(), Endpoint::Explain)
        }
    }
}

/// `POST /ingest` — reads the JSON interaction batch off the stream and
/// appends it to the journal: `202` with the journal position on
/// acceptance, `503 + Retry-After` (one tick) when the journal is full,
/// `503` when ingestion is off. The body is *accepted*, not folded — the
/// updater applies it on the next tick, and `/healthz`'s
/// `ingest.staleness` tracks the gap.
fn handle_ingest(
    head: &str,
    body_prefix: Vec<u8>,
    stream: &mut TcpStream,
    shared: &Shared,
) -> Reply {
    let reject = |status, msg: &str| Reply::error(status, msg, Endpoint::Ingest);
    let Some(journal) = shared.journal.as_ref() else {
        return reject(503, "ingestion is not enabled; start with serve --ingest");
    };
    let Some(expected) = net::header(head, "content-length").and_then(|v| v.parse().ok()) else {
        return reject(400, "POST /ingest requires a Content-Length header");
    };
    if expected > MAX_INGEST_BODY {
        return reject(
            413,
            &format!("body of {expected} bytes exceeds the {MAX_INGEST_BODY} byte ingest limit"),
        );
    }
    // Start from what `read_request` over-read past the head and pull
    // the rest off the socket.
    let raw = match net::read_body(stream, body_prefix, expected) {
        Ok(raw) => raw,
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            return reject(400, "request body ended before Content-Length bytes")
        }
        Err(_) => return reject(400, "timed out reading the request body"),
    };
    let Ok(body) = String::from_utf8(raw) else {
        return reject(400, "request body is not valid UTF-8");
    };
    let batch = match online::parse_ingest_body(&body) {
        Ok(b) => b,
        Err(e) => return reject(400, &e),
    };
    let n = batch.len();
    match journal.push_batch(batch) {
        Ok(_) => Reply::new(
            202,
            format!(
                "{{\"accepted\":{n},\"queued\":{},\"staleness\":{}}}",
                journal.len(),
                journal.staleness()
            ),
            Endpoint::Ingest,
        ),
        Err(depth) => {
            let retry_after = shared.opts.ingest.tick.as_secs().max(1);
            reject(
                503,
                &format!(
                    "ingest journal full ({depth}/{} queued); retry after the next tick",
                    journal.capacity()
                ),
            )
            .header("Retry-After", retry_after)
        }
    }
}

/// Appends `{"version":…,"crc":…,"bytes":…}` for a loaded artifact,
/// `null` for an in-process model that never touched disk.
fn push_artifact_json(out: &mut String, info: Option<crate::checkpoint::ArtifactInfo>) {
    match info {
        None => out.push_str("null"),
        Some(info) => {
            let _ = write!(
                out,
                "{{\"version\":{},\"crc\":{},\"bytes\":{}}}",
                info.version, info.crc, info.bytes
            );
        }
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
fn handle_reload(query: &str, shared: &Shared, slot: &Arc<ModelSlot>) -> Reply {
    let Some(path) = param(query, "path") else {
        return Reply::error(
            400,
            "missing required query parameter 'path'",
            Endpoint::Admin,
        );
    };
    // One handover at a time: concurrent reloads would race the
    // health save/restore and could swap models out of order.
    let _serialized = shared.reload.lock().unwrap_or_else(|e| e.into_inner());
    let old = slot.load();
    let prior_health = shared.health.load(Ordering::SeqCst);
    shared.health.store(HEALTH_DRAINING, Ordering::SeqCst);
    let built = Checkpoint::load_file(path)
        .and_then(|ckpt| ServingModel::with_cache_capacity(ckpt, old.cache_usage().1))
        .and_then(|m| m.with_retrieval(old.retrieval_mode()));
    let reply = match built {
        Ok(new_model) => {
            let new_info = new_model.artifact_info();
            let replaced = slot.swap(Arc::new(new_model));
            taxorec_telemetry::sink::info(&format!("checkpoint reloaded from {path:?}"));
            let mut body = String::from("{\"status\":\"reloaded\",\"path\":");
            push_str_escaped(&mut body, path);
            body.push_str(",\"old\":");
            push_artifact_json(&mut body, replaced.artifact_info());
            body.push_str(",\"new\":");
            push_artifact_json(&mut body, new_info);
            body.push('}');
            Reply::new(200, body, Endpoint::Admin)
        }
        Err(e) => {
            taxorec_telemetry::sink::warn(&format!(
                "checkpoint reload from {path:?} failed: {e}; keeping current model"
            ));
            Reply::error(500, &format!("reload failed: {e}"), Endpoint::Admin)
        }
    };
    shared.health.store(prior_health, Ordering::SeqCst);
    reply
}

fn healthz_json(shared: &Shared, model: &ServingModel, batcher: &Batcher<RecommendReq>) -> String {
    let (cache_len, cache_cap) = model.cache_usage();
    let queued = shared.conns.len();
    let mut body = String::with_capacity(640);
    body.push_str("{\"status\":\"");
    body.push_str(shared.health().as_str());
    body.push_str("\",\"shard\":{\"id\":");
    match &shared.opts.shard_id {
        Some(id) => push_str_escaped(&mut body, id),
        None => body.push_str("null"),
    }
    body.push_str(",\"checkpoint\":");
    push_artifact_json(&mut body, model.artifact_info());
    body.push_str("},\"model\":");
    push_str_escaped(&mut body, model.name());
    let _ = write!(
        body,
        ",\"users\":{},\"items\":{},\"tags\":{},\"queue\":{{\"depth\":{queued},\"capacity\":{}}}",
        model.n_users(),
        model.n_items(),
        model.n_tags(),
        shared.opts.max_queue,
    );
    let _ = write!(
        body,
        ",\"batch\":{{\"depth\":{},\"capacity\":{},\"max_batch\":{}}}",
        batcher.queue_depth(),
        batcher.capacity(),
        batcher.options().max_batch,
    );
    let _ = write!(
        body,
        ",\"cache\":{{\"entries\":{cache_len},\"capacity\":{cache_cap}}},\"retrieval\":{{\"mode\":\"{}\",\"index\":",
        model.retrieval_mode().label(),
    );
    match model.retrieval_index() {
        None => body.push_str("null"),
        Some(index) => {
            let _ = write!(
                body,
                "{{\"nodes\":{},\"leaves\":{},\"depth\":{},\"default_beam\":{}}}",
                index.n_nodes(),
                index.n_leaves(),
                index.depth(),
                index.default_beam(),
            );
        }
    }
    body.push_str("},\"ingest\":");
    match shared.journal.as_ref() {
        None => body.push_str("null"),
        Some(j) => {
            let _ = write!(
                body,
                "{{\"accepted\":{},\"applied\":{},\"staleness\":{},\"queued\":{},\"capacity\":{},\"cursor\":",
                j.accepted(),
                j.applied(),
                j.staleness(),
                j.len(),
                j.capacity(),
            );
            match model.journal_cursor() {
                Some(c) => {
                    let _ = write!(body, "{c}");
                }
                None => body.push_str("null"),
            }
            body.push('}');
        }
    }
    body.push('}');
    body
}

#[cfg(test)]
mod tests {
    use super::*;

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
