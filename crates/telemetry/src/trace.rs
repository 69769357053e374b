//! Request-scoped tracing: a [`TraceContext`] minted at a system edge
//! (the HTTP acceptor, the start of `fit_controlled`), threaded through
//! queues and worker pools as a `Copy` struct, and exported as **Chrome
//! trace-event JSON** (`chrome://tracing` / Perfetto's legacy format) so
//! one request renders as a connected parent-child span tree.
//!
//! ## Design
//!
//! * **IDs always, export sampled.** [`mint`] always returns a fresh
//!   non-zero trace id (cheap: two relaxed atomics) so callers can echo
//!   it back — the serve layer puts it in an `x-taxorec-trace` response
//!   header on every response. Whether the request's spans are *exported*
//!   is decided once at mint time (`sampled`), so the per-span check on
//!   the hot path is a thread-local read and a branch, with **no clock
//!   read and no allocation** for unsampled requests.
//! * **Propagation is explicit or ambient.** A context travels by value
//!   across queues/channels; within a thread it is installed with
//!   [`scope`] and picked up ambiently by [`child_span`], so deep callees
//!   (the serving model, the fused kernels) need no signature changes.
//!   `taxorec-parallel` re-installs the launching thread's context inside
//!   its workers, so spans opened in pool jobs parent correctly.
//! * **Retroactive spans.** Queue-wait and per-epoch stage aggregates are
//!   known only after the fact; [`emit_span_at`] records a span from
//!   explicit start/end instants and returns the child context so further
//!   spans can nest under it.
//!
//! ## Environment
//!
//! | Variable               | Effect |
//! |------------------------|--------|
//! | `TAXOREC_TRACE`        | unset/`off`/`0` → tracing disabled (the default); any other value → export path for the trace-event JSON |
//! | `TAXOREC_TRACE_SAMPLE` | export every N-th minted context (default 1 = every one) |
//!
//! Buffered events are written by [`flush`] — called on server shutdown
//! and at the end of `fit_controlled` — as a JSON array of `"ph":"X"`
//! complete events; load the file in Perfetto to see the tree.

use std::cell::Cell;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Hard cap on buffered events; beyond this new events are dropped (and
/// counted in `trace.dropped`) rather than growing without bound.
const MAX_EVENTS: usize = 1 << 16;

/// The identity of one traced operation, passed by value everywhere.
/// `Copy` and three words wide: carrying it through a queue or closure
/// costs nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// Identity of the whole request/run; shared by every span in the
    /// tree. Non-zero once minted.
    pub trace_id: u64,
    /// The span this context currently denotes (the parent of any child
    /// opened under it).
    pub span_id: u64,
    /// Whether spans under this context are exported. Decided once at
    /// [`mint`]; unsampled contexts make every span operation a no-op.
    pub sampled: bool,
}

impl TraceContext {
    /// The absent context: zero ids, never sampled.
    pub const NONE: TraceContext = TraceContext {
        trace_id: 0,
        span_id: 0,
        sampled: false,
    };
}

thread_local! {
    static CURRENT: Cell<TraceContext> = const { Cell::new(TraceContext::NONE) };
}

// ---------------------------------------------------------------------
// Exporter state
// ---------------------------------------------------------------------

struct Event {
    name: &'static str,
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    ts_us: u64,
    dur_us: u64,
}

struct Exporter {
    path: PathBuf,
    events: Vec<Event>,
}

const STATE_UNRESOLVED: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

/// Fast-path gate; the mutex below is only taken to resolve or export.
static STATE: AtomicU8 = AtomicU8::new(STATE_UNRESOLVED);
static EXPORTER: Mutex<Option<Exporter>> = Mutex::new(None);
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(1);
static SAMPLE_COUNTER: AtomicU64 = AtomicU64::new(0);
static ID_COUNTER: AtomicU64 = AtomicU64::new(0);

fn lock_exporter() -> std::sync::MutexGuard<'static, Option<Exporter>> {
    EXPORTER.lock().unwrap_or_else(|e| e.into_inner())
}

/// The single monotonic time anchor all event timestamps are relative
/// to; initialized on first use, before any exported span can start.
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

fn ts_us(at: Instant) -> u64 {
    at.saturating_duration_since(anchor()).as_micros() as u64
}

/// True when an exporter is installed (env or programmatic).
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => resolve_from_env(),
    }
}

fn resolve_from_env() -> bool {
    let mut ex = lock_exporter();
    // Double-checked: another thread may have resolved or installed.
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => return true,
        STATE_OFF => return false,
        _ => {}
    }
    let on = match std::env::var("TAXOREC_TRACE") {
        Ok(v) if !v.is_empty() && !v.eq_ignore_ascii_case("off") && v != "0" => {
            *ex = Some(Exporter {
                path: PathBuf::from(v),
                events: Vec::new(),
            });
            true
        }
        _ => false,
    };
    if on {
        if let Some(n) = crate::env::<u64>("TAXOREC_TRACE_SAMPLE") {
            SAMPLE_EVERY.store(n.max(1), Ordering::Relaxed);
        }
    }
    anchor();
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on
}

/// Installs a trace-event JSON exporter writing to `path`, bypassing the
/// environment (test / harness hook). Resets the sampling counter so the
/// next minted context is the first of its sampling window.
pub fn install_file_exporter(path: &str) {
    let mut ex = lock_exporter();
    anchor();
    *ex = Some(Exporter {
        path: PathBuf::from(path),
        events: Vec::new(),
    });
    SAMPLE_COUNTER.store(0, Ordering::Relaxed);
    STATE.store(STATE_ON, Ordering::Relaxed);
}

/// Turns tracing off and drops any buffered events (test hook).
pub fn disable() {
    let mut ex = lock_exporter();
    *ex = None;
    STATE.store(STATE_OFF, Ordering::Relaxed);
}

/// Export every `n`-th minted context (1 = all). Zero is clamped to 1.
pub fn set_sample_every(n: u64) {
    SAMPLE_EVERY.store(n.max(1), Ordering::Relaxed);
}

/// SplitMix64 over a global counter seeded from the wall clock: unique
/// non-zero ids without a RNG dependency and without synchronization
/// beyond one `fetch_add`.
fn next_id() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    let seed = *SEED.get_or_init(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9_7f4a_7c15)
    });
    let mut z = seed.wrapping_add(
        ID_COUNTER
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    z | 1 // never zero (zero means "no context")
}

/// Mints a fresh root context. The trace id is always real (for response
/// headers / log correlation); `sampled` is true only when an exporter is
/// installed **and** this mint falls on the sampling stride.
pub fn mint() -> TraceContext {
    let trace_id = next_id();
    let span_id = next_id();
    let sampled = enabled() && {
        let every = SAMPLE_EVERY.load(Ordering::Relaxed).max(1);
        SAMPLE_COUNTER
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(every)
    };
    TraceContext {
        trace_id,
        span_id,
        sampled,
    }
}

/// The current thread's ambient context ([`TraceContext::NONE`] outside
/// any scope).
pub fn current() -> TraceContext {
    CURRENT.with(|c| c.get())
}

/// Installs `ctx` as the thread's ambient context for the guard's
/// lifetime; the previous context is restored on drop. Used at thread
/// handoff points (serve workers, pool workers).
#[must_use = "dropping the guard immediately uninstalls the context"]
pub fn scope(ctx: TraceContext) -> ScopeGuard {
    let prev = CURRENT.with(|c| c.replace(ctx));
    ScopeGuard { prev }
}

/// Restores the previous ambient context on drop (see [`scope`]).
pub struct ScopeGuard {
    prev: TraceContext,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Opens a span under the ambient context. When that context is
/// unsampled this is inert: no clock read, no allocation, no export.
/// While the guard lives, it *is* the ambient context, so nested
/// children parent to it.
#[must_use = "dropping the span immediately records a zero-length span"]
pub fn child_span(name: &'static str) -> TraceSpan {
    let cur = current();
    if !cur.sampled {
        return TraceSpan {
            name,
            ctx: TraceContext::NONE,
            parent_id: 0,
            start: None,
        };
    }
    let ctx = TraceContext {
        trace_id: cur.trace_id,
        span_id: next_id(),
        sampled: true,
    };
    CURRENT.with(|c| c.set(ctx));
    TraceSpan {
        name,
        ctx,
        parent_id: cur.span_id,
        start: Some(Instant::now()),
    }
}

/// An in-flight exported span (see [`child_span`]); emits its event and
/// restores the parent context on drop.
pub struct TraceSpan {
    name: &'static str,
    ctx: TraceContext,
    parent_id: u64,
    /// `None` = unsampled, fully inert.
    start: Option<Instant>,
}

impl TraceSpan {
    /// This span's context (hand it across threads to parent remote work).
    pub fn context(&self) -> TraceContext {
        self.ctx
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let end = Instant::now();
        CURRENT.with(|c| {
            c.set(TraceContext {
                trace_id: self.ctx.trace_id,
                span_id: self.parent_id,
                sampled: true,
            })
        });
        push_event(Event {
            name: self.name,
            trace_id: self.ctx.trace_id,
            span_id: self.ctx.span_id,
            parent_id: self.parent_id,
            ts_us: ts_us(start),
            dur_us: end.saturating_duration_since(start).as_micros() as u64,
        });
    }
}

/// Records a span retroactively from explicit instants, as a child of
/// `parent`. Returns the emitted span's context so further retroactive
/// spans can nest under it ([`TraceContext::NONE`] when unsampled).
pub fn emit_span_at(
    name: &'static str,
    parent: TraceContext,
    start: Instant,
    end: Instant,
) -> TraceContext {
    if !parent.sampled {
        return TraceContext::NONE;
    }
    let ctx = TraceContext {
        trace_id: parent.trace_id,
        span_id: next_id(),
        sampled: true,
    };
    push_event(Event {
        name,
        trace_id: ctx.trace_id,
        span_id: ctx.span_id,
        parent_id: parent.span_id,
        ts_us: ts_us(start),
        dur_us: end.saturating_duration_since(start).as_micros() as u64,
    });
    ctx
}

/// Records the **root** span of `ctx` (parent 0) covering
/// `start..end` — the enclosing "http" / "train.fit" event emitted once
/// the operation's true extent is known.
pub fn emit_root_at(name: &'static str, ctx: TraceContext, start: Instant, end: Instant) {
    if !ctx.sampled {
        return;
    }
    push_event(Event {
        name,
        trace_id: ctx.trace_id,
        span_id: ctx.span_id,
        parent_id: 0,
        ts_us: ts_us(start),
        dur_us: end.saturating_duration_since(start).as_micros() as u64,
    });
}

fn push_event(ev: Event) {
    let mut ex = lock_exporter();
    if let Some(ex) = ex.as_mut() {
        if ex.events.len() < MAX_EVENTS {
            ex.events.push(ev);
        } else {
            crate::registry::counter("trace.dropped").inc(1);
        }
    }
}

/// Writes all buffered events to the exporter path as one Chrome
/// trace-event JSON array (whole-file rewrite, one event per line) and
/// returns the path. `None` when tracing is off or the write failed
/// (warned, never fatal). Buffered events are retained, so repeated
/// flushes produce a growing, self-consistent file.
pub fn flush() -> Option<PathBuf> {
    let ex = lock_exporter();
    let ex = ex.as_ref()?;
    let mut out = String::with_capacity(64 + ex.events.len() * 160);
    out.push_str("[\n");
    let pid = std::process::id();
    for (i, ev) in ex.events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        // One flat track per trace: Perfetto lays spans out by (pid,
        // tid), so deriving tid from the trace id gives each request its
        // own row with the parent-child nesting drawn inside it.
        let tid = ev.trace_id & 0x7fff_ffff;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"taxorec\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":{pid},\"tid\":{tid},\"args\":{{\"trace\":\"{:016x}\",\"span\":\"{:016x}\",\
             \"parent\":\"{:016x}\"}}}}",
            ev.name, ev.ts_us, ev.dur_us, ev.trace_id, ev.span_id, ev.parent_id
        ));
    }
    out.push_str("\n]\n");
    let write = std::fs::File::create(&ex.path).and_then(|mut f| f.write_all(out.as_bytes()));
    match write {
        Ok(()) => Some(ex.path.clone()),
        Err(e) => {
            crate::sink::warn(&format!(
                "cannot write trace export {}: {e}",
                ex.path.display()
            ));
            None
        }
    }
}

/// Number of events currently buffered (test hook).
pub fn buffered_events() -> usize {
    lock_exporter().as_ref().map_or(0, |e| e.events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsampled_context_makes_spans_inert() {
        let _g = crate::test_lock();
        disable();
        let ctx = mint();
        assert_ne!(ctx.trace_id, 0);
        assert!(!ctx.sampled, "no exporter installed");
        let _scope = scope(ctx);
        let sp = child_span("test.inert");
        assert!(sp.start.is_none(), "no clock read when unsampled");
        drop(sp);
        assert_eq!(buffered_events(), 0);
    }

    #[test]
    fn scope_nests_and_restores() {
        let _g = crate::test_lock();
        disable();
        assert_eq!(current(), TraceContext::NONE);
        let a = mint();
        {
            let _s = scope(a);
            assert_eq!(current().trace_id, a.trace_id);
            let b = mint();
            {
                let _inner = scope(b);
                assert_eq!(current().trace_id, b.trace_id);
            }
            assert_eq!(current().trace_id, a.trace_id);
        }
        assert_eq!(current(), TraceContext::NONE);
    }

    #[test]
    fn sampled_spans_form_a_parented_tree() {
        let _g = crate::test_lock();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("taxorec-trace-unit-{}.json", std::process::id()));
        install_file_exporter(path.to_str().unwrap());
        set_sample_every(1);
        let root = mint();
        assert!(root.sampled);
        let t0 = Instant::now();
        {
            let _s = scope(root);
            let outer = child_span("outer");
            let outer_id = outer.context().span_id;
            {
                let inner = child_span("inner");
                assert_eq!(current().span_id, inner.context().span_id);
                // inner's parent is outer (the ambient context at open).
                assert_eq!(inner.parent_id, outer_id);
            }
            drop(outer);
        }
        emit_root_at("root", root, t0, Instant::now());
        assert_eq!(buffered_events(), 3);
        let written = flush().expect("flush");
        let text = std::fs::read_to_string(&written).unwrap();
        assert!(crate::json::parse(text.trim()).is_ok(), "{text}");
        assert!(text.contains("\"name\":\"inner\""));
        assert!(text.contains(&format!("{:016x}", root.trace_id)));
        disable();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sampling_stride_gates_export() {
        let _g = crate::test_lock();
        let path =
            std::env::temp_dir().join(format!("taxorec-trace-sample-{}.json", std::process::id()));
        install_file_exporter(path.to_str().unwrap());
        set_sample_every(3);
        let sampled: Vec<bool> = (0..9).map(|_| mint().sampled).collect();
        assert_eq!(sampled.iter().filter(|&&s| s).count(), 3, "{sampled:?}");
        assert!(sampled[0], "counter was reset by install");
        set_sample_every(1);
        disable();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let id = next_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate id {id:#x}");
        }
    }
}
