//! The flight recorder: a fixed-size, pre-allocated, lock-free ring
//! buffer of recent structured events that is dumped to disk when
//! something goes wrong — a request-handler panic, a training divergence
//! rollback, or 503 load shedding — so the events *leading up to* the
//! incident survive it.
//!
//! ## Mechanics
//!
//! Writers claim a monotonically increasing sequence number with one
//! `fetch_add` and publish into slot `seq % size` with a seqlock-style
//! protocol: the slot's sequence word is swapped to a busy marker, the
//! payload stored, then the sequence written with `Release`. Readers
//! re-check the sequence after reading the payload and skip torn slots.
//! A slot has **one writer at a time**: a writer that finds the busy
//! marker already there has been lapped by (or has lapped) a writer
//! that is still filling the slot, and drops its own event into the
//! `flight.dropped` counter instead of interleaving its fields with the
//! other's. No mutex is ever taken on the record path; event kinds are
//! interned once per call site through the [`crate::flight_event!`]
//! macro.
//!
//! ## Environment
//!
//! | Variable              | Effect |
//! |-----------------------|--------|
//! | `TAXOREC_FLIGHT`      | `off`/`0` disables recording and dumps (default: on) |
//! | `TAXOREC_FLIGHT_DIR`  | dump directory (default: the system temp dir) |
//!
//! Dumps are throttled to one per [`DUMP_MIN_INTERVAL_MS`] so a shedding
//! storm cannot turn the recorder into a disk-filling incident of its
//! own. The live ring is queryable over HTTP at `/debug/flight`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::json;
use crate::sink;

/// Ring capacity (events).
pub const SIZE: usize = 1024;

/// Minimum milliseconds between two dumps (throttle).
pub const DUMP_MIN_INTERVAL_MS: u64 = 2000;

/// One decoded flight-recorder event.
#[derive(Clone, Debug)]
pub struct FlightEvent {
    /// Global sequence number (1-based, monotone across the run).
    pub seq: u64,
    /// Wall-clock milliseconds since the Unix epoch.
    pub ts_ms: u64,
    /// Interned event kind (e.g. `serve.request`, `train.rollback`).
    pub kind: &'static str,
    /// Trace id of the request/run the event belongs to (0 = none).
    pub trace_id: u64,
    /// Kind-specific integer attribute (HTTP status, epoch, queue depth).
    pub a: i64,
    /// Kind-specific float attribute (latency ms, loss, …).
    pub value: f64,
}

/// `Slot::seq` while a writer owns the slot.
const SLOT_BUSY: u64 = u64::MAX;

struct Slot {
    /// 0 = empty, [`SLOT_BUSY`] = being written; otherwise the 1-based
    /// global sequence.
    seq: AtomicU64,
    ts_ms: AtomicU64,
    kind: AtomicUsize,
    trace_id: AtomicU64,
    a: AtomicU64,
    value_bits: AtomicU64,
}

struct Ring {
    slots: Vec<Slot>,
    cursor: AtomicU64,
}

const STATE_UNRESOLVED: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNRESOLVED);
static RING: OnceLock<Ring> = OnceLock::new();
static KINDS: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
static DUMP_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);
static LAST_DUMP_MS: AtomicU64 = AtomicU64::new(0);

fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => {
            let on = !matches!(
                std::env::var("TAXOREC_FLIGHT").as_deref(),
                Ok("off") | Ok("OFF") | Ok("0")
            );
            STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
            on
        }
    }
}

fn ring() -> &'static Ring {
    RING.get_or_init(|| Ring {
        slots: (0..SIZE)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                ts_ms: AtomicU64::new(0),
                kind: AtomicUsize::new(0),
                trace_id: AtomicU64::new(0),
                a: AtomicU64::new(0),
                value_bits: AtomicU64::new(0),
            })
            .collect(),
        cursor: AtomicU64::new(0),
    })
}

/// Interns `name` and returns its id. Takes a short mutex — call once
/// per call site (the [`crate::flight_event!`] macro caches the result
/// in a static) so the record path itself stays lock-free.
pub fn kind_id(name: &'static str) -> usize {
    let mut kinds = KINDS.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(i) = kinds.iter().position(|&k| k == name) {
        return i;
    }
    kinds.push(name);
    kinds.len() - 1
}

fn kind_name(id: usize) -> &'static str {
    KINDS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(id)
        .copied()
        .unwrap_or("?")
}

/// Events dropped because their slot was still being written by another
/// (lapped or lapping) writer. Resolved once; the drop path then costs
/// one relaxed increment.
fn dropped() -> &'static crate::Counter {
    static DROPPED: OnceLock<std::sync::Arc<crate::Counter>> = OnceLock::new();
    DROPPED.get_or_init(|| crate::counter("flight.dropped"))
}

/// Records one event by interned kind id. Lock-free and allocation-free:
/// one `fetch_add`, one `swap`, and six relaxed/release stores into a
/// pre-allocated slot.
pub fn record_id(kind: usize, trace_id: u64, a: i64, value: f64) {
    if !enabled() {
        return;
    }
    let r = ring();
    let seq = r.cursor.fetch_add(1, Ordering::Relaxed) + 1;
    let slot = &r.slots[(seq % r.slots.len() as u64) as usize];
    // Seqlock write: claim (and thereby invalidate), fill, publish. The
    // swap's Acquire half keeps the payload stores after the claim; its
    // Release half pairs with the readers' Acquire loads of `seq`.
    // Ownership passes only through the publishing store below, so two
    // writers never fill one slot at once — without the claim, a writer
    // descheduled mid-fill and lapped by a whole ring's worth of events
    // resumes into a slot someone else has since published, and leaves
    // a stable mix of both events that passes the readers' re-check.
    if slot.seq.swap(SLOT_BUSY, Ordering::AcqRel) == SLOT_BUSY {
        dropped().inc(1);
        return;
    }
    slot.ts_ms.store(sink::unix_ms() as u64, Ordering::Relaxed);
    slot.kind.store(kind, Ordering::Relaxed);
    slot.trace_id.store(trace_id, Ordering::Relaxed);
    slot.a.store(a as u64, Ordering::Relaxed);
    slot.value_bits.store(value.to_bits(), Ordering::Relaxed);
    slot.seq.store(seq, Ordering::Release);
}

/// Records one event, interning `kind` on every call (takes the intern
/// mutex). Prefer [`crate::flight_event!`] in steady-state paths.
pub fn record(kind: &'static str, trace_id: u64, a: i64, value: f64) {
    if !enabled() {
        return;
    }
    record_id(kind_id(kind), trace_id, a, value);
}

/// Records a flight event with the kind id cached per call site, so the
/// steady-state cost is one atomic claim plus the slot stores:
///
/// ```
/// taxorec_telemetry::flight_event!("serve.request", 0xabc, 200, 1.5);
/// ```
#[macro_export]
macro_rules! flight_event {
    ($kind:literal, $trace:expr, $a:expr, $value:expr) => {{
        static __FLIGHT_KIND: ::std::sync::OnceLock<usize> = ::std::sync::OnceLock::new();
        let id = *__FLIGHT_KIND.get_or_init(|| $crate::flight::kind_id($kind));
        $crate::flight::record_id(id, $trace, $a, $value);
    }};
}

/// A consistent snapshot of the ring, oldest event first. Slots being
/// concurrently rewritten are skipped (torn reads detected by the
/// seqlock re-check).
pub fn snapshot() -> Vec<FlightEvent> {
    if !enabled() {
        return Vec::new();
    }
    let r = ring();
    let mut out = Vec::with_capacity(r.slots.len());
    for slot in &r.slots {
        let seq = slot.seq.load(Ordering::Acquire);
        if seq == 0 || seq == SLOT_BUSY {
            continue;
        }
        let ev = FlightEvent {
            seq,
            ts_ms: slot.ts_ms.load(Ordering::Relaxed),
            kind: kind_name(slot.kind.load(Ordering::Relaxed)),
            trace_id: slot.trace_id.load(Ordering::Relaxed),
            a: slot.a.load(Ordering::Relaxed) as i64,
            value: f64::from_bits(slot.value_bits.load(Ordering::Relaxed)),
        };
        // The payload loads above must not sink below the re-check.
        std::sync::atomic::fence(Ordering::Acquire);
        if slot.seq.load(Ordering::Relaxed) == seq {
            out.push(ev);
        }
    }
    out.sort_by_key(|e| e.seq);
    out
}

/// The snapshot as one JSON object (`/debug/flight` response body):
/// `{"size":…,"recorded":…,"events":[{…},…]}`.
pub fn snapshot_json() -> String {
    let events = snapshot();
    let (size, recorded) = if enabled() {
        let r = ring();
        (r.slots.len(), r.cursor.load(Ordering::Relaxed))
    } else {
        (0, 0)
    };
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"size\":");
    out.push_str(&size.to_string());
    out.push_str(",\"recorded\":");
    out.push_str(&recorded.to_string());
    out.push_str(",\"events\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_event_json(&mut out, e);
    }
    out.push_str("]}");
    out
}

fn push_event_json(out: &mut String, e: &FlightEvent) {
    out.push_str("{\"seq\":");
    out.push_str(&e.seq.to_string());
    out.push_str(",\"ts_ms\":");
    out.push_str(&e.ts_ms.to_string());
    out.push_str(",\"kind\":");
    json::push_str_escaped(out, e.kind);
    out.push_str(",\"trace\":\"");
    out.push_str(&format!("{:016x}", e.trace_id));
    out.push_str("\",\"a\":");
    out.push_str(&e.a.to_string());
    out.push_str(",\"value\":");
    json::push_f64(out, e.value);
    out.push('}');
}

/// Overrides the dump directory, bypassing `TAXOREC_FLIGHT_DIR` (test /
/// harness hook). Also resets the dump throttle.
pub fn set_dump_dir(dir: &std::path::Path) {
    *DUMP_DIR.lock().unwrap_or_else(|e| e.into_inner()) = Some(dir.to_path_buf());
    LAST_DUMP_MS.store(0, Ordering::Relaxed);
}

fn dump_dir() -> PathBuf {
    if let Some(d) = DUMP_DIR.lock().unwrap_or_else(|e| e.into_inner()).clone() {
        return d;
    }
    match std::env::var("TAXOREC_FLIGHT_DIR") {
        Ok(d) if !d.is_empty() => PathBuf::from(d),
        _ => std::env::temp_dir(),
    }
}

/// Dumps the current snapshot to
/// `<dir>/flight-<reason>-<pid>-<unix_ms>.json` and returns the path.
/// `None` when the recorder is disabled, the throttle suppressed the
/// dump, or the write failed (warned, never fatal — the recorder is the
/// incident *witness*, not a new incident).
pub fn dump(reason: &str) -> Option<PathBuf> {
    if !enabled() {
        return None;
    }
    let now = sink::unix_ms() as u64;
    let last = LAST_DUMP_MS.load(Ordering::Relaxed);
    if last != 0 && now.saturating_sub(last) < DUMP_MIN_INTERVAL_MS {
        return None;
    }
    if LAST_DUMP_MS
        .compare_exchange(last, now.max(1), Ordering::Relaxed, Ordering::Relaxed)
        .is_err()
    {
        return None; // another thread is dumping the same incident
    }
    let events = snapshot();
    let safe_reason: String = reason
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let dir = dump_dir();
    let path = dir.join(format!(
        "flight-{safe_reason}-{}-{now}.json",
        std::process::id()
    ));
    let mut out = String::with_capacity(128 + events.len() * 96);
    out.push_str("{\"reason\":");
    json::push_str_escaped(&mut out, reason);
    out.push_str(",\"ts_ms\":");
    out.push_str(&now.to_string());
    out.push_str(",\"pid\":");
    out.push_str(&std::process::id().to_string());
    out.push_str(",\"events\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_event_json(&mut out, e);
    }
    out.push_str("]}\n");
    match std::fs::write(&path, out) {
        Ok(()) => {
            sink::warn(&format!("flight recorder dumped to {}", path.display()));
            Some(path)
        }
        Err(e) => {
            sink::warn(&format!("cannot write flight dump {}: {e}", path.display()));
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_record_and_snapshot_in_order() {
        let _g = crate::test_lock();
        record("test.flight.a", 7, 1, 0.5);
        record("test.flight.b", 7, 2, 1.5);
        let snap = snapshot();
        let ours: Vec<&FlightEvent> = snap
            .iter()
            .filter(|e| e.kind.starts_with("test.flight."))
            .collect();
        assert!(ours.len() >= 2);
        let (a, b) = (ours[ours.len() - 2], ours[ours.len() - 1]);
        assert_eq!((a.kind, a.a), ("test.flight.a", 1));
        assert_eq!((b.kind, b.a), ("test.flight.b", 2));
        assert!(b.seq > a.seq, "sequence is monotone");
        assert_eq!(b.trace_id, 7);
        assert!((b.value - 1.5).abs() < 1e-12);
    }

    #[test]
    fn macro_caches_kind_and_records() {
        let _g = crate::test_lock();
        for i in 0..3i64 {
            crate::flight_event!("test.flight.macro", 9, i, 0.0);
        }
        let snap = snapshot();
        let n = snap
            .iter()
            .filter(|e| e.kind == "test.flight.macro")
            .count();
        assert!(n >= 3, "{n}");
    }

    #[test]
    fn ring_wraps_keeping_the_most_recent() {
        let _g = crate::test_lock();
        let size = ring().slots.len();
        for i in 0..(size as i64 + 8) {
            record("test.flight.wrap", 0, i, 0.0);
        }
        let snap = snapshot();
        assert_eq!(snap.len(), size, "ring is exactly full");
        // The newest wrap event survived; the oldest were overwritten.
        let max_a = snap
            .iter()
            .filter(|e| e.kind == "test.flight.wrap")
            .map(|e| e.a)
            .max()
            .unwrap();
        assert_eq!(max_a, size as i64 + 7);
        for w in snap.windows(2) {
            assert!(w[0].seq < w[1].seq, "snapshot sorted by seq");
        }
    }

    #[test]
    fn snapshot_json_is_valid() {
        let _g = crate::test_lock();
        record("test.flight.json", 3, -4, f64::NAN);
        let s = snapshot_json();
        assert!(json::parse(&s).is_ok(), "{s}");
        assert!(s.contains("\"events\":["));
        assert!(s.contains("\"kind\":\"test.flight.json\""));
    }

    #[test]
    fn dump_writes_a_json_file_and_throttles() {
        let _g = crate::test_lock();
        let dir = std::env::temp_dir().join(format!("taxorec-flight-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        set_dump_dir(&dir);
        record("test.flight.dump", 1, 2, 3.0);
        let path = dump("unit test").expect("first dump");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(json::parse(text.trim()).is_ok(), "{text}");
        assert!(text.contains("\"reason\":\"unit test\""));
        assert!(text.contains("test.flight.dump"));
        assert!(path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with("flight-unit_test-"));
        // A second dump inside the throttle window is suppressed.
        assert!(dump("unit test").is_none());
        let _ = std::fs::remove_dir_all(&dir);
        *DUMP_DIR.lock().unwrap() = None;
    }

    #[test]
    fn concurrent_writers_never_tear_reads() {
        /// Stops the writers when the scope body ends — including by a
        /// failed assertion, which would otherwise unwind into a scope
        /// that waits forever for writers nobody told to stop.
        struct StopOnDrop<'a>(&'a std::sync::atomic::AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }

        let _g = crate::test_lock();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let _stop = StopOnDrop(&stop);
            for t in 0..4u64 {
                let stop = &stop;
                s.spawn(move || {
                    let mut i = 0i64;
                    while !stop.load(Ordering::Relaxed) {
                        record("test.flight.race", t, i, i as f64);
                        i += 1;
                    }
                });
            }
            for _ in 0..50 {
                for e in snapshot() {
                    if e.kind == "test.flight.race" {
                        // Payload consistency: a == value for every event.
                        assert!(
                            (e.a as f64 - e.value).abs() < 1e-12,
                            "torn read: a={} value={}",
                            e.a,
                            e.value
                        );
                    }
                }
            }
        });
    }
}
