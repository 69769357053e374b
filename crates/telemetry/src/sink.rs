//! Env-controlled output sinks.
//!
//! * `TAXOREC_LOG` — human-readable diagnostics on stderr: `off`
//!   (default), `warn`, `info`, or `debug`. With the variable unset the
//!   library is silent, so `cargo test -q` output is unchanged.
//! * `TAXOREC_METRICS` — machine-readable metric events as JSON Lines:
//!   unset/`off` (default, disabled), `json`/`jsonl`/`stderr` (one JSON
//!   object per line on stderr), or any other value (treated as a file
//!   path, appended to).
//!
//! Tests and harnesses can bypass the environment with
//! [`install_memory_sink`] / [`install_file_sink`] / [`disable_metrics`].

use std::fs::OpenOptions;
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json;

/// Verbosity of the human-readable stderr log.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Silent (the default).
    Off = 0,
    /// Anomalies only (NaN batches, failed invariants).
    Warn = 1,
    /// Per-epoch / per-run progress lines.
    Info = 2,
    /// Per-span timing chatter.
    Debug = 3,
}

const LEVEL_UNRESOLVED: u8 = u8::MAX;

static LOG_LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNRESOLVED);

/// The active log level (resolved once from `TAXOREC_LOG`).
pub fn log_level() -> LogLevel {
    let raw = LOG_LEVEL.load(Ordering::Relaxed);
    if raw != LEVEL_UNRESOLVED {
        return decode_level(raw);
    }
    let level = match std::env::var("TAXOREC_LOG").as_deref() {
        Ok("warn") | Ok("WARN") => LogLevel::Warn,
        Ok("info") | Ok("INFO") => LogLevel::Info,
        Ok("debug") | Ok("DEBUG") => LogLevel::Debug,
        _ => LogLevel::Off,
    };
    LOG_LEVEL.store(level as u8, Ordering::Relaxed);
    level
}

/// Overrides the log level (tests / embedding harnesses).
pub fn set_log_level(level: LogLevel) {
    LOG_LEVEL.store(level as u8, Ordering::Relaxed);
}

fn decode_level(raw: u8) -> LogLevel {
    match raw {
        1 => LogLevel::Warn,
        2 => LogLevel::Info,
        3 => LogLevel::Debug,
        _ => LogLevel::Off,
    }
}

/// True when messages at `level` are emitted.
pub fn log_enabled(level: LogLevel) -> bool {
    level <= log_level() && log_level() != LogLevel::Off
}

/// Writes a warn-level line (`[taxorec:warn] …`) when enabled.
pub fn warn(msg: &str) {
    if log_enabled(LogLevel::Warn) {
        eprintln!("[taxorec:warn] {msg}");
    }
}

/// Writes an info-level line when enabled.
pub fn info(msg: &str) {
    if log_enabled(LogLevel::Info) {
        eprintln!("[taxorec:info] {msg}");
    }
}

/// Writes a debug-level line when enabled. The message is built only
/// then, so a call on a hot path costs one level check.
pub fn debug(msg: impl FnOnce() -> String) {
    if log_enabled(LogLevel::Debug) {
        eprintln!("[taxorec:debug] {}", msg());
    }
}

/// Where metric events go.
enum MetricsSink {
    Stderr,
    File(Mutex<std::fs::File>),
    Memory(Arc<Mutex<Vec<String>>>),
}

enum SinkState {
    Unresolved,
    Off,
    On(MetricsSink),
}

static SINK: Mutex<SinkState> = Mutex::new(SinkState::Unresolved);

const SINK_UNRESOLVED: u8 = 0;
const SINK_OFF: u8 = 1;
const SINK_ON: u8 = 2;

/// `SINK`'s state as one byte, stored under its lock on every change, so
/// an emitter finds the sink off with one atomic load instead of the
/// process-wide lock (as `taxorec_resilience`'s fault probe does).
static SINK_MODE: AtomicU8 = AtomicU8::new(SINK_UNRESOLVED);

/// Replaces the sink state and its mirror; `state` is the locked `SINK`.
fn set_state(state: &mut SinkState, next: SinkState) {
    let mode = match next {
        SinkState::Unresolved => SINK_UNRESOLVED,
        SinkState::Off => SINK_OFF,
        SinkState::On(_) => SINK_ON,
    };
    *state = next;
    SINK_MODE.store(mode, Ordering::Release);
}

/// True when the sink is known to be off, read without the lock.
fn known_off() -> bool {
    SINK_MODE.load(Ordering::Acquire) == SINK_OFF
}

/// Locks the sink state, recovering from a poisoned lock — a panic in
/// one emitter must never wedge every later metric emission.
fn lock_sink() -> std::sync::MutexGuard<'static, SinkState> {
    SINK.lock().unwrap_or_else(|e| e.into_inner())
}

fn resolve_from_env(state: &mut SinkState) {
    if !matches!(state, SinkState::Unresolved) {
        return;
    }
    let next = match std::env::var("TAXOREC_METRICS") {
        Ok(v)
            if v.eq_ignore_ascii_case("json")
                || v.eq_ignore_ascii_case("jsonl")
                || v.eq_ignore_ascii_case("stderr")
                || v == "1" =>
        {
            SinkState::On(MetricsSink::Stderr)
        }
        Ok(v) if !v.is_empty() && !v.eq_ignore_ascii_case("off") && v != "0" => {
            match OpenOptions::new().create(true).append(true).open(&v) {
                Ok(f) => SinkState::On(MetricsSink::File(Mutex::new(f))),
                Err(e) => {
                    eprintln!("[taxorec:warn] cannot open TAXOREC_METRICS file {v}: {e}");
                    SinkState::Off
                }
            }
        }
        _ => SinkState::Off,
    };
    set_state(state, next);
}

/// True when metric events are being emitted anywhere.
pub fn metrics_enabled() -> bool {
    if known_off() {
        return false;
    }
    let mut state = lock_sink();
    resolve_from_env(&mut state);
    matches!(*state, SinkState::On(_))
}

/// Routes metric events into an in-memory buffer and returns it — the
/// test hook for asserting on emitted JSONL.
pub fn install_memory_sink() -> Arc<Mutex<Vec<String>>> {
    let buf = Arc::new(Mutex::new(Vec::new()));
    set_state(
        &mut lock_sink(),
        SinkState::On(MetricsSink::Memory(Arc::clone(&buf))),
    );
    buf
}

/// Routes metric events to `path` (append), regardless of the environment.
pub fn install_file_sink(path: &str) -> std::io::Result<()> {
    let f = OpenOptions::new().create(true).append(true).open(path)?;
    set_state(
        &mut lock_sink(),
        SinkState::On(MetricsSink::File(Mutex::new(f))),
    );
    Ok(())
}

/// Turns metric emission off, regardless of the environment.
pub fn disable_metrics() {
    set_state(&mut lock_sink(), SinkState::Off);
}

/// Flushes a file-backed metrics sink so buffered tail events reach disk
/// before the process exits (called on graceful serve shutdown and at the
/// end of `fit_controlled`). No-op for stderr/memory/disabled sinks.
pub fn flush() {
    if let SinkState::On(MetricsSink::File(f)) = &*lock_sink() {
        let _ = f.lock().unwrap_or_else(|e| e.into_inner()).flush();
    }
}

/// Milliseconds since the Unix epoch (0 if the clock is unavailable).
pub fn unix_ms() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0)
}

/// Emits one metric event as a JSONL record:
/// `{"ts_ms":…,"kind":…,"name":…,"value":…}`.
pub fn emit_metric(kind: &str, name: &str, value: f64) {
    if known_off() {
        return;
    }
    let mut state = lock_sink();
    resolve_from_env(&mut state);
    if !matches!(&*state, SinkState::On(_)) {
        return;
    }
    let mut line = String::with_capacity(96);
    line.push_str("{\"ts_ms\":");
    line.push_str(&unix_ms().to_string());
    line.push_str(",\"kind\":");
    json::push_str_escaped(&mut line, kind);
    line.push_str(",\"name\":");
    json::push_str_escaped(&mut line, name);
    line.push_str(",\"value\":");
    json::push_f64(&mut line, value);
    line.push('}');
    write_or_disable(&mut state, &line);
}

/// Emits a pre-assembled JSON object as one JSONL record (used for run
/// summaries that do not fit the name/value shape).
pub fn emit_json_line(line: &str) {
    debug_assert!(
        json::parse(line).is_ok(),
        "emit_json_line got invalid JSON: {line}"
    );
    if known_off() {
        return;
    }
    let mut state = lock_sink();
    resolve_from_env(&mut state);
    if matches!(&*state, SinkState::On(_)) {
        write_or_disable(&mut state, line);
    }
}

/// Writes one line to the active sink. A failed write (unwritable path,
/// disk full, closed descriptor) warns **once** and permanently disables
/// emission — metrics are observability, never worth crashing or
/// spamming the training loop for.
fn write_or_disable(state: &mut SinkState, line: &str) {
    let ok = match &*state {
        SinkState::On(sink) => write_line(sink, line),
        _ => return,
    };
    if !ok {
        set_state(state, SinkState::Off);
        eprintln!(
            "[taxorec:warn] metrics sink write failed; disabling metric emission \
             for the rest of the process"
        );
    }
}

fn write_line(sink: &MetricsSink, line: &str) -> bool {
    match sink {
        MetricsSink::Stderr => {
            eprintln!("{line}");
            true
        }
        MetricsSink::File(f) => {
            let mut f = f.lock().unwrap_or_else(|e| e.into_inner());
            writeln!(f, "{line}").is_ok()
        }
        MetricsSink::Memory(buf) => {
            buf.lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(line.to_string());
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_captures_valid_json() {
        let _g = crate::test_lock();
        let buf = install_memory_sink();
        emit_metric("gauge", "test.\"value", 1.5);
        emit_json_line("{\"model\":\"X\",\"recall\":[1,2]}");
        let lines = buf.lock().unwrap().clone();
        disable_metrics();
        assert_eq!(lines.len(), 2);
        for l in &lines {
            assert!(crate::json::parse(l).is_ok(), "{l}");
        }
        assert!(lines[0].contains("\"name\":\"test.\\\"value\""));
    }

    #[test]
    fn disabled_sink_swallows_events() {
        let _g = crate::test_lock();
        disable_metrics();
        // Must not panic or print.
        emit_metric("counter", "x", 1.0);
        assert!(!metrics_enabled());
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn full_disk_disables_sink_without_panicking() {
        let _g = crate::test_lock();
        if !std::path::Path::new("/dev/full").exists() {
            return;
        }
        // /dev/full accepts the open but fails every write with ENOSPC —
        // the exact disk-full scenario. The first emit must warn, disable
        // the sink, and return normally; later emits are no-ops.
        install_file_sink("/dev/full").expect("open /dev/full");
        assert!(metrics_enabled());
        emit_metric("gauge", "test.full_disk", 1.0);
        assert!(!metrics_enabled(), "sink disabled after the failed write");
        emit_metric("gauge", "test.full_disk", 2.0);
        emit_json_line("{\"after\":\"disable\"}");
        disable_metrics();
    }

    #[test]
    fn unwritable_metrics_path_resolves_to_off() {
        let _g = crate::test_lock();
        assert!(install_file_sink("/nonexistent-dir/metrics.jsonl").is_err());
        disable_metrics();
    }
}
