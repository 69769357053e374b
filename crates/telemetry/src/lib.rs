//! # taxorec-telemetry
//!
//! Zero-dependency observability for the TaxoRec workspace: a global
//! metric registry, env-controlled sinks, opt-in trace spans, a flight
//! recorder, and a training-health monitor for the epoch loop.
//!
//! ## Quick tour
//!
//! ```
//! use taxorec_telemetry::{registry, TrainingMonitor};
//!
//! // Counters / gauges / histograms — lock-free after registration.
//! registry::counter("serve.cache.hit").inc(1);
//! registry::histogram("taxo.rebuild.duration").observe(0.25);
//!
//! // Epoch-loop health monitoring: the one record of a fit's epochs.
//! taxorec_telemetry::sink::disable_metrics(); // keep doctest silent
//! let mut monitor = TrainingMonitor::new("taxorec").with_fail_fast(false);
//! monitor.begin_epoch(0);
//! if monitor.observe_batch(0.7, 0.1) {
//!     // apply the parameter update
//! }
//! monitor.end_epoch();
//! assert_eq!(monitor.records().len(), 1);
//! ```
//!
//! ## Environment variables
//!
//! | Variable          | Values                              | Effect |
//! |-------------------|-------------------------------------|--------|
//! | `TAXOREC_LOG`     | `off` (default) `warn` `info` `debug` | human-readable diagnostics on stderr |
//! | `TAXOREC_METRICS` | unset/`off` (default), `json`/`jsonl`/`stderr`/`1`, or a file path | metric events as JSON Lines |
//! | `TAXOREC_FAIL_FAST` | `1`/`true`                        | abort training on the first NaN/Inf batch |
//! | `TAXOREC_TRACE`   | unset/`off` (default) or a file path | export sampled spans as Chrome trace-event JSON |
//! | `TAXOREC_TRACE_SAMPLE` | integer `n` (default 1)        | export every `n`-th trace root |
//! | `TAXOREC_FLIGHT`  | `off`/`0` to disable (default on)   | flight-recorder ring buffer |
//! | `TAXOREC_FLIGHT_DIR` | directory (default temp dir)     | where incident dumps are written |
//!
//! With both variables unset the crate is completely silent — `cargo
//! test -q` output is byte-identical to a build without instrumentation.
//!
//! ## Metric naming
//!
//! Dotted, lowercase, grouped by subsystem: `train.*` (epoch loop),
//! `taxo.*` (taxonomy construction / k-means), `eval.*` (evaluation
//! runner), `serve.*` and `router.*` (serving tier). Durations named
//! `*.duration` are in seconds, `*.ms` and `*_ms` in milliseconds. Every
//! series has a reader — a test, perfbench, a CI step or a row of
//! DESIGN.md §9's operator table — and `tests/series.rs` fails on one
//! that has none.

pub mod flight;
pub mod json;
pub mod monitor;
pub mod prometheus;
pub mod registry;
pub mod sink;
pub mod trace;

pub use monitor::{EpochRecord, RebuildStats, TrainingMonitor};
pub use registry::{counter, gauge, histogram, reset, snapshot, Counter, Gauge, Histogram};
pub use sink::{
    disable_metrics, install_file_sink, install_memory_sink, metrics_enabled, set_log_level,
    LogLevel,
};
pub use trace::TraceContext;

/// The workspace's one reader of `TAXOREC_*` settings: the variable's
/// value, trimmed and parsed as `T`. Unset, empty or unparseable all give
/// `None`, which callers read as "keep the default".
pub fn env<T: std::str::FromStr>(name: &str) -> Option<T> {
    let value = std::env::var(name).ok()?;
    let value = value.trim();
    if value.is_empty() {
        return None;
    }
    value.parse().ok()
}

/// Serializes tests that mutate process-global state (the registry's
/// values via `reset()`, the metrics sink). Lock poisoning is ignored —
/// a panicking test (e.g. `#[should_panic]`) must not wedge the rest.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    #[test]
    fn env_parses_the_trimmed_value_and_reads_the_rest_as_unset() {
        let name = "TELEMETRY_ENV_READER_TEST";
        std::env::remove_var(name);
        assert_eq!(crate::env::<u64>(name), None, "unset");
        for (raw, want) in [(" 42\n", Some(42)), ("", None), ("  ", None), ("4x", None)] {
            std::env::set_var(name, raw);
            assert_eq!(crate::env::<u64>(name), want, "{raw:?}");
        }
        std::env::set_var(name, "  ");
        assert_eq!(crate::env::<String>(name), None, "blank text is unset");
        std::env::set_var(name, " shard-3 ");
        assert_eq!(crate::env::<String>(name).as_deref(), Some("shard-3"));
        std::env::remove_var(name);
    }
}
