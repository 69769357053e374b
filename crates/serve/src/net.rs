//! The serving tier's one network layer (DESIGN.md §14, "The net
//! layer"): everything `taxorec-serve` and `taxorec-router` do with a
//! socket or a thread hand-off before a request reaches code that knows
//! what the request *means*.
//!
//! * [`Stage`] — the one `Mutex<VecDeque>` + `Condvar` queue, with the
//!   workers that drain it. Both servers' connection queues and the
//!   batch queue are instances.
//! * [`listen`] — bind, a blocking acceptor, and the workers that drain
//!   the connection stage. The acceptor stamps a trace identity on every
//!   connection and makes one read that does not wait; the server's
//!   inline path may answer from those bytes ([`Inline`]) without the
//!   acceptor ever waiting on a peer. Everything else gets its deadlines
//!   and goes to a worker with the bytes already read, or is shed
//!   ([`Shedder`]) when the stage is full. [`Front::shutdown`] stops
//!   them in order.
//! * [`read_request`] / [`Request`] / [`Reply`] — the server half of the
//!   wire format; [`crate::client`] is the other half. [`read_head`]
//!   continues from bytes already read, and [`Reply::write_now`] writes
//!   what the socket takes without waiting and hands back the rest.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use taxorec_telemetry::json::push_str_escaped;
use taxorec_telemetry::{flight, trace, Counter, Gauge, Histogram, TraceContext};

const JSON_CONTENT_TYPE: &str = "application/json";
/// Acceptor back-off after a failed `accept` (fd exhaustion): retry,
/// but do not spin.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);
/// Per-read deadline while draining a shed connection's request bytes.
/// Bounds how long one rejection can occupy the thread that sheds it.
const SHED_DRAIN_TIMEOUT: Duration = Duration::from_millis(5);
/// Drain reads attempted per shed before the socket drops regardless.
const SHED_DRAIN_READS: usize = 8;

/// How one stage's workers are named and their spawn failures reported.
pub(crate) struct PoolSpec {
    /// Worker `i` is thread `<thread>-<i>`.
    pub thread: &'static str,
    /// `<metric>.spawn_failed` counts the workers that did not start.
    pub metric: &'static str,
    /// Fault site that fails a spawn deterministically
    /// (`TAXOREC_FAULT=io@<site>:2` loses exactly the second worker).
    pub fault_site: Option<&'static str>,
}

struct StageState<T> {
    queue: VecDeque<T>,
    closed: bool,
}

/// One hand-off between thread pools: a FIFO with a bound, a closed
/// flag, and the workers that consume it.
///
/// `push` refuses — handing the item back — at capacity and once the
/// stage is shut down; `pop` / `drain_up_to` block while the queue is
/// empty and report exhaustion only when it is closed **and** empty, so
/// shutting a stage down never discards what was already admitted.
pub(crate) struct Stage<T> {
    state: Mutex<StageState<T>>,
    ready: Condvar,
    capacity: usize,
    /// Set to the queue length, under the lock, on every change.
    depth: Option<Arc<Gauge>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl<T: Send + 'static> Stage<T> {
    /// `capacity` waiting items at most.
    pub(crate) fn new(capacity: usize, depth: Option<Arc<Gauge>>) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(StageState {
                queue: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
            depth,
            workers: Mutex::new(Vec::new()),
        })
    }

    /// Poison-tolerant: every update leaves the queue valid at each
    /// step, and a panicked worker must not wedge the other stages.
    fn lock(&self) -> MutexGuard<'_, StageState<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn report_depth(&self, state: &StageState<T>) {
        if let Some(g) = &self.depth {
            g.set(state.queue.len() as f64);
        }
    }

    /// Enqueues `item`, or returns it when the stage is full or closed.
    pub(crate) fn push(&self, item: T) -> Result<(), T> {
        let mut s = self.lock();
        if s.closed || s.queue.len() >= self.capacity {
            return Err(item);
        }
        s.queue.push_back(item);
        self.report_depth(&s);
        drop(s);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until the queue is non-empty (the guard) or closed and
    /// empty (`None`).
    fn wait_for_work(&self) -> Option<MutexGuard<'_, StageState<T>>> {
        let mut s = self.lock();
        while s.queue.is_empty() {
            if s.closed {
                return None;
            }
            s = self.ready.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        Some(s)
    }

    /// The oldest item; `None` only when the stage is closed and empty.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut s = self.wait_for_work()?;
        let item = s.queue.pop_front();
        self.report_depth(&s);
        item
    }

    /// Everything queued, up to `n`, in arrival order and without
    /// waiting for more. Empty only when the stage is closed and empty.
    pub(crate) fn drain_up_to(&self, n: usize) -> Vec<T> {
        let Some(mut s) = self.wait_for_work() else {
            return Vec::new();
        };
        let take = s.queue.len().min(n.max(1));
        let batch = s.queue.drain(..take).collect();
        self.report_depth(&s);
        batch
    }

    /// Items currently waiting.
    pub(crate) fn len(&self) -> usize {
        self.lock().queue.len()
    }

    /// Spawns up to `n` workers running `body(&stage)` — a loop on
    /// [`Stage::pop`] / [`Stage::drain_up_to`] until exhaustion — and
    /// returns how many started. A worker that fails to spawn is
    /// counted, logged and skipped: callers surface `< n` as degraded
    /// health, and only zero is an error.
    pub(crate) fn spawn_workers<F>(
        self: &Arc<Self>,
        pool: &PoolSpec,
        n: usize,
        body: F,
    ) -> std::io::Result<usize>
    where
        F: Fn(&Stage<T>) + Send + Sync + 'static,
    {
        let body = Arc::new(body);
        let mut handles = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        let mut last_err = None;
        for i in 0..n {
            let name = format!("{}-{i}", pool.thread);
            let started = match pool.fault_site.and_then(taxorec_resilience::inject_io) {
                Some(msg) => Err(std::io::Error::other(msg)),
                None => {
                    let (stage, body) = (Arc::clone(self), Arc::clone(&body));
                    std::thread::Builder::new()
                        .name(name.clone())
                        .spawn(move || body(&stage))
                }
            };
            match started {
                Ok(h) => handles.push(h),
                Err(e) => {
                    taxorec_telemetry::counter(&format!("{}.spawn_failed", pool.metric)).inc(1);
                    taxorec_telemetry::sink::warn(&format!(
                        "failed to spawn {name}: {e}; continuing with fewer"
                    ));
                    last_err = Some(e);
                }
            }
        }
        match (handles.len(), last_err) {
            (0, Some(e)) => Err(e),
            (0, None) => Err(std::io::Error::other("a stage needs at least one worker")),
            (spawned, _) => Ok(spawned),
        }
    }

    /// Refuses further pushes, lets the workers finish what is queued,
    /// and joins them. Idempotent.
    pub(crate) fn shutdown(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
        let mut workers = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        for h in workers.drain(..) {
            if h.join().is_err() {
                taxorec_telemetry::sink::warn("a stage worker panicked outside its handler");
            }
        }
    }
}

/// An accepted connection waiting for a worker, carrying the trace
/// context minted at accept time (so queue wait is inside the trace).
pub(crate) struct Conn {
    pub stream: TcpStream,
    pub ctx: TraceContext,
    pub accepted: Instant,
    /// The request bytes the acceptor's one read took, possibly none;
    /// [`read_request`] continues from them.
    pub prefix: Vec<u8>,
    /// A reply the acceptor began that the socket did not take whole.
    /// The worker sends it instead of calling the handler.
    unsent: Option<Unsent>,
}

/// What the server's inline path did with a freshly accepted connection
/// (the `answer` hook of [`listen`]).
pub(crate) enum Inline {
    /// Answered in full: the acceptor closes the connection.
    Answered,
    /// Not answerable without waiting: a worker reads, from
    /// [`Conn::prefix`] on, and routes it as usual.
    Declined,
    /// Answered, but the socket did not take the whole reply: a worker
    /// sends the rest.
    Unsent(Unsent),
}

/// The part of a reply the socket did not take, and what closes the
/// request once it is sent.
pub(crate) struct Unsent {
    tail: Vec<u8>,
    finish: Box<dyn FnOnce() + Send>,
}

impl Unsent {
    /// Writes the tail (the write deadline bounds it), then closes the
    /// request. Write errors are dropped, as in [`Reply::write`].
    fn send(self, stream: &mut impl Write) {
        let _ = stream.write_all(&self.tail).and_then(|()| stream.flush());
        (self.finish)();
    }
}

/// Puts `reply` on the wire without waiting on the peer
/// ([`Reply::write_now`]). When the socket takes it whole, `finish` runs
/// here and the connection is [`Inline::Answered`]; otherwise the tail
/// and `finish` go to a worker as [`Inline::Unsent`].
pub(crate) fn answer_now(
    reply: Reply,
    stream: &mut impl Write,
    trace_id: u64,
    finish: impl FnOnce(&Reply) + Send + 'static,
) -> Inline {
    let tail = reply.write_now(stream, trace_id);
    if tail.is_empty() {
        finish(&reply);
        return Inline::Answered;
    }
    Inline::Unsent(Unsent {
        tail,
        finish: Box::new(move || finish(&reply)),
    })
}

/// Rejects over-capacity connections with `503 + Retry-After`: used by
/// the acceptor when the connection stage is full and by handlers whose
/// own downstream stage refused. Handles are resolved once at spawn.
pub(crate) struct Shedder {
    shed: Arc<Counter>,
    /// Flight-recorder kind (interned once) and dump reason (`serve.shed`).
    event: &'static str,
    event_id: usize,
    reply: Reply,
}

impl Shedder {
    /// `counter` counts sheds, `event` names them in the flight ring,
    /// `message` is the client-visible error. `Retry-After` is the
    /// connection deadline in whole seconds (at least 1): a queue that is
    /// full now has turned over by the time its oldest entry times out.
    pub(crate) fn new(
        counter: &str,
        event: &'static str,
        message: &str,
        io_timeout: Duration,
    ) -> Self {
        let retry_after = io_timeout.as_secs().max(1);
        Self {
            shed: taxorec_telemetry::counter(counter),
            event,
            event_id: flight::kind_id(event),
            reply: Reply::error(503, message, Endpoint::Other).header("Retry-After", retry_after),
        }
    }

    /// Answers `503` without parsing the request (the write deadline
    /// bounds even this), records the incident in the flight ring and
    /// triggers a (throttled) dump — a shed storm is exactly the moment
    /// the recent-event history matters.
    ///
    /// After the 503 is written the connection is *lingering-closed*:
    /// the unparsed request bytes are drained (briefly, bounded) before
    /// the socket drops. Closing with unread data in the receive buffer
    /// makes the kernel send `RST`, which destroys the in-flight 503 —
    /// under a shed storm every rejection would then surface client-side
    /// as a connection reset instead of the `Retry-After` it was sent.
    pub(crate) fn shed(&self, stream: &mut TcpStream, ctx: TraceContext, queue_depth: usize) {
        self.record(ctx, queue_depth);
        self.reply.write(stream, ctx.trace_id);
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

    /// Counts a shed and records it in the flight ring, without a reply.
    fn record(&self, ctx: TraceContext, queue_depth: usize) {
        self.shed.inc(1);
        flight::record_id(self.event_id, ctx.trace_id, queue_depth as i64, 0.0);
        flight::dump(self.event);
    }
}

/// What [`listen`] needs to know about the server it fronts.
pub(crate) struct Edge {
    /// Connection workers; the acceptor thread is `<thread>-accept`.
    pub pool: PoolSpec,
    pub n_workers: usize,
    /// Read/write deadline stamped on every connection handed to a
    /// worker: a stalled or trickling client is disconnected instead of
    /// pinning a worker forever.
    pub io_timeout: Duration,
    /// How long the acceptor keeps re-reading a connection that has sent
    /// nothing yet, spinning, before it goes to a worker; zero for a
    /// server whose `answer` hook declines everything.
    pub head_grace: Duration,
    pub shedder: Arc<Shedder>,
}

/// A listening front end: the acceptor thread plus the connection stage
/// and its workers.
pub(crate) struct Front {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Arc<Stage<Conn>>,
    acceptor: Option<JoinHandle<()>>,
}

/// Binds `addr` and starts serving: an acceptor that offers every
/// connection to `answer` and feeds what it declines to `conns`, and
/// `edge.n_workers` workers handing each queued connection to
/// `handler`. Returns the front and the number of workers that started.
///
/// The acceptor blocks in `accept` — zero added latency per connection,
/// no poll interval to overflow the kernel backlog at high arrival
/// rates; [`Front::shutdown`] wakes it with a loopback connection.
/// Nothing else it does waits: `answer` sees a non-blocking socket and
/// must leave it for a worker ([`Inline::Declined`], [`Inline::Unsent`])
/// rather than wait on the peer.
pub(crate) fn listen<A, H>(
    addr: &str,
    conns: Arc<Stage<Conn>>,
    edge: Edge,
    answer: A,
    handler: H,
) -> std::io::Result<(Front, usize)>
where
    A: Fn(&mut Conn) -> Inline + Send + 'static,
    H: Fn(Conn) + Send + Sync + 'static,
{
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let live = conns.spawn_workers(&edge.pool, edge.n_workers.max(1), move |stage| {
        while let Some(mut conn) = stage.pop() {
            match conn.unsent.take() {
                Some(unsent) => unsent.send(&mut conn.stream),
                None => handler(conn),
            }
        }
    })?;
    let stop = Arc::new(AtomicBool::new(false));
    let (flag, stage) = (Arc::clone(&stop), Arc::clone(&conns));
    let acceptor = std::thread::Builder::new()
        .name(format!("{}-accept", edge.pool.thread))
        .spawn(move || accept_loop(&listener, &flag, &stage, &edge, &answer))
        .inspect_err(|_| conns.shutdown())?;
    let front = Front {
        addr,
        stop,
        conns,
        acceptor: Some(acceptor),
    };
    Ok((front, live))
}

fn accept_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    conns: &Stage<Conn>,
    edge: &Edge,
    answer: &impl Fn(&mut Conn) -> Inline,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                // The shutdown wake-up is itself a connection; re-check
                // the flag before treating it as traffic.
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                // Trace identity is minted here, at the system edge, so
                // even shed responses carry an `x-taxorec-trace` header
                // and queue wait is covered by the trace.
                let (ctx, accepted) = (trace::mint(), Instant::now());
                let _ = stream.set_nonblocking(true);
                let prefix = read_ready(&mut stream, edge.head_grace);
                let mut conn = Conn {
                    stream,
                    ctx,
                    accepted,
                    prefix,
                    unsent: None,
                };
                match answer(&mut conn) {
                    Inline::Answered => continue,
                    Inline::Declined => {}
                    Inline::Unsent(unsent) => conn.unsent = Some(unsent),
                }
                let _ = conn.stream.set_nonblocking(false);
                let _ = conn.stream.set_read_timeout(Some(edge.io_timeout));
                let _ = conn.stream.set_write_timeout(Some(edge.io_timeout));
                if let Err(mut conn) = conns.push(conn) {
                    if conn.unsent.is_some() {
                        // Part of a reply is on the wire, so a 503 cannot
                        // follow it: the close cuts the reply short.
                        edge.shedder.record(conn.ctx, conns.len());
                    } else {
                        edge.shedder.shed(&mut conn.stream, conn.ctx, conns.len());
                    }
                }
            }
            Err(_) => std::thread::sleep(ACCEPT_RETRY),
        }
    }
}

/// Reads a non-blocking socket without blocking: the request bytes that
/// arrived with the connection (often the whole head), or none. A
/// socket that has sent nothing yet is read again until `grace` has
/// passed: the request is usually microseconds behind the `connect`
/// that woke the acceptor, and a hit whose head arrives in that window
/// is answered here instead of on a worker. After an error other than
/// `WouldBlock` the socket is closed or broken, and the worker's read
/// meets that and answers it.
fn read_ready(stream: &mut impl Read, grace: Duration) -> Vec<u8> {
    let mut chunk = [0u8; 4096];
    let started = Instant::now();
    loop {
        match stream.read(&mut chunk) {
            Ok(n) => return chunk[..n].to_vec(),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock && started.elapsed() < grace => {
                std::hint::spin_loop();
            }
            Err(_) => return Vec::new(),
        }
    }
}

impl Front {
    /// The address actually bound (resolves ephemeral port 0).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Set by [`Front::shutdown`]; the same server's background threads
    /// (prober, updater) poll it to stop alongside the listener.
    pub(crate) fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Stage-ordered stop: the acceptor first (no new connections), then
    /// the connection stage, whose workers answer every connection
    /// already queued before they exit. Stages downstream of the handler
    /// are the caller's to stop next, in pipeline order. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            // The acceptor blocks in `accept`; a throwaway loopback
            // connection wakes it so it can observe the flag.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST));
            }
            let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
            let _ = acceptor.join();
        }
        self.conns.shutdown();
    }
}

/// Reads a message head: the bytes up to the blank line that ends it,
/// starting from `raw`, the bytes already read off `stream` (the
/// acceptor's prefix; empty for a fresh stream). Returns the head as
/// text, without the blank line, and whatever was read past it — the
/// start of the body. A head over `max_bytes` (blank line included) or
/// not UTF-8 is `InvalidData`; a stream that ends first is
/// `UnexpectedEof`. Both ends of the wire read heads here.
pub(crate) fn read_head(
    stream: &mut impl Read,
    mut raw: Vec<u8>,
    max_bytes: usize,
) -> std::io::Result<(String, Vec<u8>)> {
    let closed = |what: &str| std::io::Error::new(std::io::ErrorKind::UnexpectedEof, what);
    let mut chunk = [0u8; 4096];
    // The blank line cannot end before `scanned`: earlier bytes were
    // searched already.
    let mut scanned = 0;
    let head_len = loop {
        if let Some(head) = head_in(&raw, scanned, max_bytes)? {
            break head.len();
        }
        scanned = raw.len().saturating_sub(3);
        match stream.read(&mut chunk)? {
            0 if raw.is_empty() => return Err(closed("stream closed before any bytes")),
            0 => return Err(closed("stream closed inside the head")),
            n => raw.extend_from_slice(&chunk[..n]),
        }
    };
    let body = raw.split_off(head_len + 4);
    raw.truncate(head_len);
    let head = String::from_utf8(raw).expect("head_in checked the head is UTF-8");
    Ok((head, body))
}

/// The head at the start of `raw`, without its blank line, read in place:
/// `None` while `raw` holds no blank line at or after byte `scanned` and
/// is under `max_bytes`. A head over `max_bytes` (blank line included) or
/// not UTF-8 is `InvalidData`. The one scan behind [`read_head`], and
/// what the acceptor reads its bytes with.
pub(crate) fn head_in(
    raw: &[u8],
    scanned: usize,
    max_bytes: usize,
) -> std::io::Result<Option<&str>> {
    let invalid = |what: String| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
    let head_end = match raw[scanned..].windows(4).position(|w| w == b"\r\n\r\n") {
        Some(at) => scanned + at,
        None if raw.len() < max_bytes => return Ok(None),
        // No blank line yet: the head is over the limit.
        None => raw.len(),
    };
    if head_end + 4 > max_bytes {
        return Err(invalid(format!("head exceeds {max_bytes} bytes")));
    }
    let head = std::str::from_utf8(&raw[..head_end]);
    head.map(Some)
        .map_err(|_| invalid("head is not UTF-8".into()))
}

/// The request head, from the acceptor's `prefix` on, and the body
/// bytes read with it, or `None` once a head that is malformed, over
/// `max_bytes` or timed out has been answered `400`.
pub(crate) fn read_request(
    stream: &mut TcpStream,
    prefix: Vec<u8>,
    max_bytes: usize,
    trace_id: u64,
) -> Option<(String, Vec<u8>)> {
    let head = read_head(stream, prefix, max_bytes).ok();
    if head.is_none() {
        Reply::error(
            400,
            "malformed, oversized, or timed-out request",
            Endpoint::Other,
        )
        .write(stream, trace_id);
    }
    head
}

/// Value of header `name` (case-insensitive, trimmed) in a request or
/// response head; lines after the blank line are not headers.
pub(crate) fn header<'h>(head: &'h str, name: &str) -> Option<&'h str> {
    let headers = head.lines().skip(1).take_while(|line| !line.is_empty());
    headers
        .filter_map(|line| line.split_once(':'))
        .find(|(n, _)| n.trim().eq_ignore_ascii_case(name))
        .map(|(_, v)| v.trim())
}

/// Completes a `len`-byte body whose first bytes were over-read with
/// the head. A stream that ends early is `UnexpectedEof`, never a short
/// success; bytes past `len` are dropped.
pub(crate) fn read_body(
    stream: &mut impl Read,
    mut body: Vec<u8>,
    len: usize,
) -> std::io::Result<Vec<u8>> {
    let mut chunk = [0u8; 4096];
    while body.len() < len {
        let want = (len - body.len()).min(chunk.len());
        match stream.read(&mut chunk[..want])? {
            0 => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            n => body.extend_from_slice(&chunk[..n]),
        }
    }
    body.truncate(len);
    Ok(body)
}

/// The request line of a head, split; missing pieces are empty.
pub(crate) struct Request<'h> {
    pub method: &'h str,
    /// Path and query as sent (what a proxy forwards).
    pub target: &'h str,
    pub path: &'h str,
    pub query: &'h str,
}

impl<'h> Request<'h> {
    pub(crate) fn parse(head: &'h str) -> Self {
        let mut parts = head.lines().next().unwrap_or("").split_whitespace();
        let method = parts.next().unwrap_or("");
        let target = parts.next().unwrap_or("");
        let (path, query) = target.split_once('?').unwrap_or((target, ""));
        Self {
            method,
            target,
            path,
            query,
        }
    }
}

/// The label a reply is recorded under in
/// `<server>.<endpoint>.{ms,requests,errors}`: a closed set, so each
/// server resolves its series once ([`Red`]).
#[derive(Clone, Copy)]
pub(crate) enum Endpoint {
    Recommend,
    Explain,
    Healthz,
    Metrics,
    Flight,
    Admin,
    Ingest,
    Other,
}

impl Endpoint {
    const COUNT: usize = 8;

    fn label(self) -> &'static str {
        match self {
            Self::Recommend => "recommend",
            Self::Explain => "explain",
            Self::Healthz => "healthz",
            Self::Metrics => "metrics",
            Self::Flight => "flight",
            Self::Admin => "admin",
            Self::Ingest => "ingest",
            Self::Other => "other",
        }
    }
}

/// One endpoint's series, each looked up on its first use.
struct Series {
    ms: OnceLock<Arc<Histogram>>,
    requests: OnceLock<Arc<Counter>>,
    errors: OnceLock<Arc<Counter>>,
}

impl Series {
    const fn new() -> Self {
        Self {
            ms: OnceLock::new(),
            requests: OnceLock::new(),
            errors: OnceLock::new(),
        }
    }
}

/// One server's rate, errors and duration series, per [`Endpoint`]: a
/// `static` per server, so recording a request builds no name and takes
/// no registry lock. A series registers on its first use, as a lookup by
/// name would.
pub(crate) struct Red {
    server: &'static str,
    series: [Series; Endpoint::COUNT],
}

impl Red {
    pub(crate) const fn new(server: &'static str) -> Self {
        Self {
            server,
            // One per `Endpoint`, in declaration order.
            series: [
                Series::new(),
                Series::new(),
                Series::new(),
                Series::new(),
                Series::new(),
                Series::new(),
                Series::new(),
                Series::new(),
            ],
        }
    }

    fn name(&self, endpoint: Endpoint, leaf: &str) -> String {
        format!("{}.{}.{leaf}", self.server, endpoint.label())
    }

    fn ms(&self, endpoint: Endpoint) -> &Histogram {
        let cell = &self.series[endpoint as usize].ms;
        cell.get_or_init(|| taxorec_telemetry::histogram(&self.name(endpoint, "ms")))
    }

    fn requests(&self, endpoint: Endpoint) -> &Counter {
        let cell = &self.series[endpoint as usize].requests;
        cell.get_or_init(|| taxorec_telemetry::counter(&self.name(endpoint, "requests")))
    }

    /// `<server>.<endpoint>.errors`, also counted for a request shed
    /// before it had a reply.
    pub(crate) fn errors(&self, endpoint: Endpoint) -> &Counter {
        let cell = &self.series[endpoint as usize].errors;
        cell.get_or_init(|| taxorec_telemetry::counter(&self.name(endpoint, "errors")))
    }
}

/// A reply body: text a handler rendered for this reply, or one shared
/// with the response cache, which the wire buffer copies once.
#[derive(Debug)]
pub(crate) enum Body {
    Owned(String),
    Shared(Arc<str>),
}

impl std::ops::Deref for Body {
    type Target = str;

    fn deref(&self) -> &str {
        match self {
            Self::Owned(text) => text,
            Self::Shared(text) => text,
        }
    }
}

impl PartialEq<&str> for Body {
    fn eq(&self, other: &&str) -> bool {
        **self == **other
    }
}

/// One response, decided by a handler; [`Reply::write`] puts it on the
/// wire and [`Reply::record`] closes the request's telemetry.
pub(crate) struct Reply {
    pub status: u16,
    pub body: Body,
    endpoint: Endpoint,
    content_type: &'static str,
    /// Complete `Name: value\r\n` lines added by [`Reply::header`].
    extra_headers: String,
}

impl Reply {
    /// A JSON response.
    pub(crate) fn new(status: u16, body: String, endpoint: Endpoint) -> Self {
        Self::with_body(status, Body::Owned(body), endpoint)
    }

    /// A JSON response whose body the response cache holds.
    pub(crate) fn shared(status: u16, body: Arc<str>, endpoint: Endpoint) -> Self {
        Self::with_body(status, Body::Shared(body), endpoint)
    }

    fn with_body(status: u16, body: Body, endpoint: Endpoint) -> Self {
        Self {
            status,
            body,
            endpoint,
            content_type: JSON_CONTENT_TYPE,
            extra_headers: String::new(),
        }
    }

    /// `{"error": message}`.
    pub(crate) fn error(status: u16, message: &str, endpoint: Endpoint) -> Self {
        let mut body = String::with_capacity(message.len() + 12);
        body.push_str("{\"error\":");
        push_str_escaped(&mut body, message);
        body.push('}');
        Self::new(status, body, endpoint)
    }

    pub(crate) fn content_type(mut self, content_type: &'static str) -> Self {
        self.content_type = content_type;
        self
    }

    pub(crate) fn header(mut self, name: &str, value: impl std::fmt::Display) -> Self {
        let _ = write!(self.extra_headers, "{name}: {value}\r\n");
        self
    }

    /// Writes the `Connection: close` response as one buffer in one
    /// `write_all`, so head and body leave in the same segment rather
    /// than waiting on Nagle's algorithm for the head's ACK. A client
    /// that has gone away is not the server's problem, so write errors
    /// are dropped.
    pub(crate) fn write(&self, stream: &mut impl Write, trace_id: u64) {
        let _ = stream
            .write_all(&self.wire(trace_id))
            .and_then(|()| stream.flush());
    }

    /// [`Reply::write`] to a non-blocking `stream`: writes what the
    /// socket takes now and returns the bytes it refused (`WouldBlock`),
    /// empty when it took the whole reply or failed for good.
    pub(crate) fn write_now(&self, stream: &mut impl Write, trace_id: u64) -> Vec<u8> {
        let wire = self.wire(trace_id);
        let mut sent = 0;
        while sent < wire.len() {
            match stream.write(&wire[sent..]) {
                Ok(0) => break,
                Ok(n) => sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return wire[sent..].to_vec()
                }
                Err(_) => break,
            }
        }
        Vec::new()
    }

    /// The whole response: head and body in one buffer, allocated once.
    fn wire(&self, trace_id: u64) -> Vec<u8> {
        let reason = match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        };
        // Besides the content type and the extra headers a head is at
        // most 146 bytes (the longest reason, a 20-digit length).
        let head = 146 + self.content_type.len() + self.extra_headers.len();
        let mut wire = Vec::with_capacity(head + self.body.len());
        let _ = write!(
            wire,
            "HTTP/1.1 {} {reason}\r\nContent-Type: {}\r\n\
             Content-Length: {}\r\nx-taxorec-trace: {trace_id:016x}\r\n\
             {}Connection: close\r\n\r\n",
            self.status,
            self.content_type,
            self.body.len(),
            self.extra_headers
        );
        wire.extend_from_slice(self.body.as_bytes());
        wire
    }

    /// Records the request under `<server>.<endpoint>.{ms,requests,errors}`
    /// in `red` and returns the latency in ms since `started` — routing
    /// plus the response write, so the histogram reflects what a client
    /// observes.
    pub(crate) fn record(&self, red: &Red, started: Instant) -> f64 {
        let ms = started.elapsed().as_secs_f64() * 1e3;
        red.ms(self.endpoint).observe(ms);
        red.requests(self.endpoint).inc(1);
        if self.status >= 400 {
            red.errors(self.endpoint).inc(1);
        }
        ms
    }
}

/// Value of `name` in an `a=1&b=2` query string, if present.
pub(crate) fn param<'q>(query: &'q str, name: &str) -> Option<&'q str> {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == name)
        .map(|(_, v)| v)
}

pub(crate) fn require_param(query: &str, name: &str) -> Result<u32, String> {
    match param(query, name) {
        None => Err(format!("missing required query parameter '{name}'")),
        Some(raw) => raw.parse::<u32>().map_err(|_| {
            format!("query parameter '{name}' = {raw:?} is not a non-negative integer")
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POOL: PoolSpec = PoolSpec {
        thread: "net-test",
        metric: "net.test",
        fault_site: Some("net.test.spawn"),
    };

    #[test]
    fn a_stage_refuses_at_capacity_and_after_shutdown_but_never_drops_what_it_admitted() {
        let stage = Stage::new(3, None);
        for item in ["a", "b", "c"] {
            stage.push(item).expect("room");
        }
        assert_eq!(stage.push("d"), Err("d"), "at capacity: refuse, don't grow");
        assert_eq!(stage.pop(), Some("a"));
        stage.push("d").expect("room again");
        stage.shutdown();
        assert_eq!(stage.push("e"), Err("e"), "closed: the item comes back");
        // Closed but not empty: everything admitted is still handed out,
        // in arrival order; exhaustion is reported only after that.
        assert_eq!(stage.drain_up_to(2), vec!["b", "c"]);
        assert_eq!((stage.pop(), stage.pop()), (Some("d"), None));
        assert!(stage.drain_up_to(8).is_empty());
    }

    #[test]
    fn an_open_empty_stage_blocks_and_a_lossy_pool_reports_how_many_started() {
        taxorec_resilience::install(
            taxorec_resilience::FaultSpec::parse("io@net.test.spawn:2").expect("spec"),
        );
        let stage = Stage::new(usize::MAX, None);
        let (tx, rx) = std::sync::mpsc::channel();
        let tx = Mutex::new(tx);
        let live = stage.spawn_workers(&POOL, 3, move |s| {
            while let Some(item) = s.pop() {
                tx.lock().unwrap().send(Some(item)).expect("test alive");
            }
            tx.lock().unwrap().send(None).expect("test alive");
        });
        taxorec_resilience::disable();
        assert_eq!(live.expect("two of three is not fatal"), 2);
        let failed = taxorec_telemetry::counter("net.test.spawn_failed");
        assert_eq!(failed.get(), 1);

        let quiet = rx.recv_timeout(Duration::from_millis(50));
        assert!(quiet.is_err(), "pop returned on an open, empty stage");
        stage.push(7u32).expect("push");
        assert_eq!(rx.recv().expect("worker"), Some(7));
        stage.shutdown();
        assert_eq!((rx.recv(), rx.recv()), (Ok(None), Ok(None)));
    }

    #[test]
    fn request_lines_and_query_parameters_parse() {
        let r = Request::parse("GET /recommend?user=3&k=5 HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(
            (r.method, r.target, r.path, r.query),
            ("GET", "/recommend?user=3&k=5", "/recommend", "user=3&k=5")
        );
        let bare = Request::parse("POST /ingest HTTP/1.1\r\n\r\n");
        assert_eq!(
            (bare.method, bare.path, bare.query),
            ("POST", "/ingest", "")
        );
        assert_eq!(Request::parse("").method, "");

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
    fn a_reply_goes_out_in_one_write_with_the_exact_bytes() {
        /// Records every `write` call it receives.
        #[derive(Default)]
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut out = Writes::default();
        Reply::new(503, "{\"error\":\"é\"}".to_string(), Endpoint::Other)
            .header("Retry-After", 2)
            .write(&mut out, 0xab);
        let expected = "HTTP/1.1 503 Service Unavailable\r\n\
                        Content-Type: application/json\r\n\
                        Content-Length: 14\r\n\
                        x-taxorec-trace: 00000000000000ab\r\n\
                        Retry-After: 2\r\n\
                        Connection: close\r\n\r\n\
                        {\"error\":\"é\"}";
        assert_eq!(out.0, vec![expected.as_bytes().to_vec()]);
    }

    #[test]
    fn a_reply_the_socket_takes_in_part_sends_its_unsent_tail_to_a_worker() {
        /// A non-blocking socket with room for `room` bytes.
        struct Full {
            room: usize,
            taken: Vec<u8>,
        }
        impl Write for Full {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let n = buf.len().min(self.room - self.taken.len());
                if n == 0 {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                self.taken.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let reply = || {
            Reply::new(
                200,
                "{\"items\":[{\"item\":3}]}".to_string(),
                Endpoint::Recommend,
            )
        };
        let mut whole = Vec::new();
        reply().write(&mut whole, 0x2a);
        for room in 0..=whole.len() {
            let finished = Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let count = Arc::clone(&finished);
            let mut socket = Full {
                room,
                taken: Vec::new(),
            };
            let inline = answer_now(reply(), &mut socket, 0x2a, move |r| {
                assert_eq!(r.status, 200);
                count.fetch_add(1, Ordering::SeqCst);
            });
            let finished = || finished.load(Ordering::SeqCst);
            match inline {
                Inline::Answered => {
                    assert_eq!(room, whole.len(), "answered with {room} bytes of room");
                    assert_eq!(socket.taken, whole);
                }
                Inline::Unsent(unsent) => {
                    assert!(room < whole.len());
                    assert_eq!(finished(), 0, "closed before the tail went out");
                    // The worker's blocking socket takes the rest.
                    let mut rest = Vec::new();
                    unsent.send(&mut rest);
                    assert_eq!([socket.taken, rest].concat(), whole, "room {room}");
                }
                Inline::Declined => panic!("a reply is never declined"),
            }
            assert_eq!(finished(), 1, "room {room}");
        }
    }

    /// Hands out `data` in the pieces that `cuts` (ascending byte
    /// offsets) mark, never more than one piece per `read`.
    struct Pieces<'a> {
        data: &'a [u8],
        cuts: Vec<usize>,
        pos: usize,
    }

    impl Read for Pieces<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let end = self
                .cuts
                .iter()
                .copied()
                .find(|&c| c > self.pos)
                .unwrap_or(self.data.len());
            let n = (end - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// Runs `parse` over `data` delivered whole, split at every byte
    /// position, and one byte at a time, and asserts every delivery
    /// gives what the whole one gives.
    fn same_at_every_split<T: PartialEq + std::fmt::Debug>(
        data: &[u8],
        parse: impl Fn(&mut Pieces<'_>) -> T,
    ) -> T {
        let deliver = |cuts: Vec<usize>| parse(&mut Pieces { data, cuts, pos: 0 });
        let whole = deliver(Vec::new());
        for at in 1..data.len() {
            assert_eq!(deliver(vec![at]), whole, "split at byte {at} of {data:?}");
        }
        let bytewise = deliver((1..data.len()).collect());
        assert_eq!(bytewise, whole, "one byte at a time: {data:?}");
        whole
    }

    /// A request as the servers read it: the head, from the acceptor's
    /// `prefix` on, then the body its `Content-Length` announces (none
    /// without the header).
    fn request_from(
        prefix: &[u8],
        r: &mut impl Read,
        max_head: usize,
    ) -> Result<(String, Vec<u8>), String> {
        let kind = |e: std::io::Error| format!("{:?}", e.kind());
        let (head, over) = read_head(r, prefix.to_vec(), max_head).map_err(kind)?;
        let len = header(&head, "content-length").map_or(0, |v| v.parse().unwrap());
        let body = read_body(r, over, len).map_err(kind)?;
        Ok((head, body))
    }

    /// [`same_at_every_split`] for requests, plus every split between
    /// the acceptor's prefix and the stream: the first `at` bytes already
    /// read, the rest delivered whole.
    fn request_parts(data: &[u8], max_head: usize) -> Result<(String, Vec<u8>), String> {
        let whole = same_at_every_split(data, |r| request_from(b"", r, max_head));
        for at in 0..=data.len() {
            let (prefix, rest) = data.split_at(at);
            let mut stream = Pieces {
                data: rest,
                cuts: Vec::new(),
                pos: 0,
            };
            let got = request_from(prefix, &mut stream, max_head);
            assert_eq!(got, whole, "prefix of {at} bytes of {data:?}");
        }
        whole
    }

    fn response_parts(r: &mut Pieces<'_>) -> Result<(u16, String, String), &'static str> {
        crate::client::read_response(r)
            .map(|resp| (resp.status, resp.head, resp.body))
            .map_err(|e| e.phase.as_str())
    }

    #[test]
    fn requests_read_the_same_at_every_split_point() {
        let ok = |head: &str, body: &[u8]| Ok((head.to_string(), body.to_vec()));
        let get = b"GET /recommend?user=3&k=5 HTTP/1.1\r\nHost: x\r\n\r\n";
        assert_eq!(
            request_parts(get, 1024),
            ok("GET /recommend?user=3&k=5 HTTP/1.1\r\nHost: x", b"")
        );
        let ingest = b"POST /ingest HTTP/1.1\r\nContent-Length: 11\r\n\r\n0\t1\t12\tjazz";
        assert_eq!(
            request_parts(ingest, 1024),
            ok(
                "POST /ingest HTTP/1.1\r\nContent-Length: 11",
                b"0\t1\t12\tjazz"
            )
        );
        // Two- and three-byte characters in the head and the body: some
        // split lands inside each of them.
        let utf8 =
            "POST /ingest HTTP/1.1\r\nx-tag: café\r\nContent-Length: 12\r\n\r\n0\t1\t2\t日本";
        assert_eq!(
            request_parts(utf8.as_bytes(), 1024),
            ok(
                "POST /ingest HTTP/1.1\r\nx-tag: café\r\nContent-Length: 12",
                "0\t1\t2\t日本".as_bytes()
            )
        );
    }

    #[test]
    fn the_head_limit_and_early_ends_hold_at_every_split_point() {
        let get = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
        // Exactly at the limit (blank line included) is accepted, one
        // byte past it is not.
        assert!(request_parts(get, get.len()).is_ok());
        assert_eq!(
            request_parts(get, get.len() - 1),
            Err("InvalidData".to_string())
        );
        let eof = Err("UnexpectedEof".to_string());
        assert_eq!(request_parts(b"", 64), eof);
        assert_eq!(request_parts(b"GET / HTTP/1.1\r\nHost:", 64), eof);
        let short = b"POST /ingest HTTP/1.1\r\nContent-Length: 9\r\n\r\n0\t1\t2";
        assert_eq!(request_parts(short, 64), eof);
    }

    #[test]
    fn responses_read_the_same_at_every_split_point() {
        let framed = "HTTP/1.1 200 OK\r\nContent-Length: 14\r\n\r\n{\"items\":[é]}trailing";
        assert_eq!(
            same_at_every_split(framed.as_bytes(), response_parts),
            Ok((
                200,
                "HTTP/1.1 200 OK\r\nContent-Length: 14".to_string(),
                "{\"items\":[é]}".to_string()
            ))
        );
        let unframed =
            b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\n\r\n{\"error\":\"x\"}";
        assert_eq!(
            same_at_every_split(unframed, response_parts),
            Ok((
                503,
                "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1".to_string(),
                "{\"error\":\"x\"}".to_string()
            ))
        );
        let cut = b"HTTP/1.1 200 OK\r\nContent-Length: 40\r\n\r\n{\"items\":";
        assert_eq!(same_at_every_split(cut, response_parts), Err("read"));
        assert_eq!(
            same_at_every_split(b"HTTP/1.1 200 OK\r\nContent-Le", response_parts),
            Err("read")
        );
        assert_eq!(
            same_at_every_split(b"SSH-2.0-x\r\n\r\n", response_parts),
            Err("parse")
        );
    }

    #[test]
    fn error_replies_escape_their_message() {
        let j = Reply::error(400, "bad \"quote\"", Endpoint::Other).body;
        assert_eq!(j, "{\"error\":\"bad \\\"quote\\\"\"}");
        assert!(taxorec_telemetry::json::parse(&j).is_ok());
    }
}
