//! The `TAXOREC_FAULT` fault-injection harness.
//!
//! ## Spec grammar
//!
//! ```text
//! spec    := entry (',' entry)*
//! entry   := kind '@' site [':' ordinal] ['+']
//! kind    := 'panic' | 'nan' | 'io' | 'stall'
//! site    := dotted identifier, e.g. parallel.job, train.epoch
//! ordinal := 1-based invocation count at which the fault fires (default 1)
//! ```
//!
//! Each *site* keeps a process-wide invocation counter, incremented every
//! time the code path probes it. An entry `panic@parallel.job:17` fires on
//! exactly the 17th probe of `parallel.job`; with a trailing `+`
//! (`io@checkpoint.save:2+`) it fires on every probe from the 17th on.
//! Because the counters are deterministic functions of the program's
//! control flow, a fault spec reproduces the same failure at the same
//! point on every run.
//!
//! ## Sites planted in the workspace
//!
//! | site              | kind(s) honoured | effect                               |
//! |-------------------|------------------|--------------------------------------|
//! | `parallel.job`    | `panic`          | pool job panics (probed per job)     |
//! | `train.epoch`     | `nan`            | every batch loss in the epoch is NaN |
//! | `checkpoint.save` | `io`             | checkpoint write fails               |
//! | `serve.request`   | `panic`          | HTTP worker panics mid-request       |
//! | `serve.batch`     | `panic`, `stall` | scorer batch panics / stalls         |
//! | `serve.spawn`     | `io`             | one server worker fails to spawn     |
//!
//! `stall` puts the probing thread to sleep for
//! `TAXOREC_FAULT_STALL_MS` milliseconds (default 100) — the
//! deterministic way to wedge a pipeline stage and observe backpressure
//! (queue growth, load shedding) without relying on timing races.
//!
//! A kind that a site does not honour is counted and warned about, never
//! silently dropped.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// What kind of failure an armed entry injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The site panics (unwind).
    Panic,
    /// The site poisons its numeric result with NaN.
    Nan,
    /// The site fails with an I/O error.
    Io,
    /// The site sleeps for `TAXOREC_FAULT_STALL_MS` ms (default 100).
    Stall,
}

impl FaultKind {
    /// The spec keyword for this kind.
    pub fn name(self) -> &'static str {
        match self {
            Self::Panic => "panic",
            Self::Nan => "nan",
            Self::Io => "io",
            Self::Stall => "stall",
        }
    }
}

/// One armed fault: `kind@site:ordinal[+]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEntry {
    /// Failure kind to inject.
    pub kind: FaultKind,
    /// Site the entry arms.
    pub site: String,
    /// 1-based probe ordinal at which it fires.
    pub at: u64,
    /// Fire on every probe `>= at` instead of exactly at it.
    pub repeat: bool,
}

/// A parsed `TAXOREC_FAULT` specification.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// The armed entries, in spec order.
    pub entries: Vec<FaultEntry>,
}

/// Why a spec string failed to parse (the offending entry is quoted).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSpecError(pub String);

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid TAXOREC_FAULT spec: {}", self.0)
    }
}

impl std::error::Error for FaultSpecError {}

impl FaultSpec {
    /// Parses a comma-separated spec string. Empty input parses to the
    /// empty (inert) spec.
    pub fn parse(s: &str) -> Result<Self, FaultSpecError> {
        let mut entries = Vec::new();
        for raw in s.split(',') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            let (kind_s, rest) = raw.split_once('@').ok_or_else(|| {
                FaultSpecError(format!("{raw:?} has no '@' (expected kind@site[:n][+])"))
            })?;
            let kind = match kind_s {
                "panic" => FaultKind::Panic,
                "nan" => FaultKind::Nan,
                "io" => FaultKind::Io,
                "stall" => FaultKind::Stall,
                other => {
                    return Err(FaultSpecError(format!(
                        "unknown fault kind {other:?} in {raw:?} (panic|nan|io|stall)"
                    )))
                }
            };
            let (rest, repeat) = match rest.strip_suffix('+') {
                Some(r) => (r, true),
                None => (rest, false),
            };
            let (site, at) = match rest.split_once(':') {
                None => (rest, 1),
                Some((site, n)) => {
                    let at: u64 = n.parse().map_err(|_| {
                        FaultSpecError(format!("ordinal {n:?} in {raw:?} is not an integer"))
                    })?;
                    if at == 0 {
                        return Err(FaultSpecError(format!(
                            "ordinal in {raw:?} is 1-based; 0 never fires"
                        )));
                    }
                    (site, at)
                }
            };
            if site.is_empty()
                || !site
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-')
            {
                return Err(FaultSpecError(format!("bad site name in {raw:?}")));
            }
            entries.push(FaultEntry {
                kind,
                site: site.to_string(),
                at,
                repeat,
            });
        }
        Ok(Self { entries })
    }

    /// True when no entries are armed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

// Fast-path switch: probes return immediately while the harness is off.
const MODE_UNRESOLVED: u8 = 0;
const MODE_OFF: u8 = 1;
const MODE_ON: u8 = 2;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNRESOLVED);

struct Active {
    spec: FaultSpec,
    counts: HashMap<String, u64>,
}

static ACTIVE: Mutex<Option<Active>> = Mutex::new(None);

fn lock_active() -> std::sync::MutexGuard<'static, Option<Active>> {
    // A panic *we* injected may have unwound through this lock; the data
    // is a counter table, always valid.
    ACTIVE.lock().unwrap_or_else(|e| e.into_inner())
}

fn resolve_from_env() {
    let mut g = lock_active();
    if MODE.load(Ordering::Acquire) != MODE_UNRESOLVED {
        return; // raced with another resolver or an explicit install
    }
    let spec = match std::env::var("TAXOREC_FAULT") {
        Ok(raw) if !raw.trim().is_empty() => match FaultSpec::parse(&raw) {
            Ok(s) => s,
            Err(e) => {
                // A typo in the spec must not silently disable the test
                // it was written for.
                panic!("{e}");
            }
        },
        _ => FaultSpec::default(),
    };
    if spec.is_empty() {
        MODE.store(MODE_OFF, Ordering::Release);
    } else {
        *g = Some(Active {
            spec,
            counts: HashMap::new(),
        });
        MODE.store(MODE_ON, Ordering::Release);
    }
}

/// Arms `spec` for this process, replacing the environment-derived one and
/// resetting all site counters (the in-process test hook).
pub fn install(spec: FaultSpec) {
    let mut g = lock_active();
    if spec.is_empty() {
        *g = None;
        MODE.store(MODE_OFF, Ordering::Release);
    } else {
        *g = Some(Active {
            spec,
            counts: HashMap::new(),
        });
        MODE.store(MODE_ON, Ordering::Release);
    }
}

/// Disarms the harness entirely (probes become a single atomic load).
pub fn disable() {
    install(FaultSpec::default());
}

/// Clears counters and re-resolves from `TAXOREC_FAULT` on the next probe.
pub fn reset() {
    let mut g = lock_active();
    *g = None;
    MODE.store(MODE_UNRESOLVED, Ordering::Release);
}

/// Probes `site`: increments its invocation counter and returns the kind
/// of the fault armed for this exact invocation, if any.
///
/// Call sites handle the kinds they can express and pass the result to
/// nothing else; an unexpected kind should be surfaced with
/// [`unsupported`] rather than ignored.
pub fn probe(site: &str) -> Option<FaultKind> {
    match MODE.load(Ordering::Acquire) {
        MODE_OFF => return None,
        MODE_UNRESOLVED => resolve_from_env(),
        _ => {}
    }
    if MODE.load(Ordering::Acquire) != MODE_ON {
        return None;
    }
    let kind = {
        let mut g = lock_active();
        let active = g.as_mut()?;
        let count = active.counts.entry(site.to_string()).or_insert(0);
        *count += 1;
        let n = *count;
        active
            .spec
            .entries
            .iter()
            .find(|e| e.site == site && if e.repeat { n >= e.at } else { n == e.at })
            .map(|e| e.kind)?
    };
    taxorec_telemetry::sink::warn(&format!(
        "fault injection: firing {}@{site} (armed via TAXOREC_FAULT)",
        kind.name()
    ));
    Some(kind)
}

/// Records that `site` fired a kind it cannot express (warned).
pub fn unsupported(site: &str, kind: FaultKind) {
    taxorec_telemetry::sink::warn(&format!(
        "fault injection: site {site} cannot express kind {:?}; ignoring",
        kind.name()
    ));
}

/// Probes `site` and panics when a `panic` fault is armed for this
/// invocation. The panic message is stable (`fault injected: panic@site`)
/// so recovery layers can recognise injected failures in tests.
pub fn inject_panic(site: &str) {
    match probe(site) {
        Some(FaultKind::Panic) => panic!("fault injected: panic@{site}"),
        Some(other) => unsupported(site, other),
        None => {}
    }
}

/// Probes `site`; true when a `nan` fault is armed for this invocation.
pub fn inject_nan(site: &str) -> bool {
    match probe(site) {
        Some(FaultKind::Nan) => true,
        Some(other) => {
            unsupported(site, other);
            false
        }
        None => false,
    }
}

/// The `stall` sleep duration: `TAXOREC_FAULT_STALL_MS` ms, default 100.
pub fn stall_duration() -> std::time::Duration {
    std::time::Duration::from_millis(
        taxorec_telemetry::env("TAXOREC_FAULT_STALL_MS").unwrap_or(100),
    )
}

/// Probes `site` and sleeps for [`stall_duration`] when a `stall` fault
/// is armed for this invocation. Returns true when it stalled.
pub fn inject_stall(site: &str) -> bool {
    match probe(site) {
        Some(FaultKind::Stall) => {
            std::thread::sleep(stall_duration());
            true
        }
        Some(other) => {
            unsupported(site, other);
            false
        }
        None => false,
    }
}

/// Probes `site` once and handles both the kinds a pipeline stage can
/// express: `panic` unwinds, `stall` sleeps, anything else is reported
/// as unsupported. One probe means one counter increment, so ordinals
/// stay deterministic for sites honouring multiple kinds.
pub fn inject_panic_or_stall(site: &str) {
    match probe(site) {
        Some(FaultKind::Panic) => panic!("fault injected: panic@{site}"),
        Some(FaultKind::Stall) => std::thread::sleep(stall_duration()),
        Some(other) => unsupported(site, other),
        None => {}
    }
}

/// Probes `site`; `Some(message)` when an `io` fault is armed for this
/// invocation — the caller turns it into its own I/O error type.
pub fn inject_io(site: &str) -> Option<String> {
    match probe(site) {
        Some(FaultKind::Io) => Some(format!("fault injected: io@{site}")),
        Some(other) => {
            unsupported(site, other);
            None
        }
        None => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that touch the process-global harness.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn parses_the_issue_examples() {
        let s = FaultSpec::parse("panic@parallel.job:17,nan@train.epoch:5,io@checkpoint.save:2")
            .unwrap();
        assert_eq!(s.entries.len(), 3);
        assert_eq!(s.entries[0].kind, FaultKind::Panic);
        assert_eq!(s.entries[0].site, "parallel.job");
        assert_eq!(s.entries[0].at, 17);
        assert!(!s.entries[0].repeat);
        assert_eq!(s.entries[2].kind, FaultKind::Io);
    }

    #[test]
    fn parses_defaults_and_repeat() {
        let s = FaultSpec::parse("panic@a.b, io@c:3+").unwrap();
        assert_eq!(s.entries[0].at, 1);
        assert!(s.entries[1].repeat);
        assert!(FaultSpec::parse("").unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "panic",
            "boom@site",
            "panic@site:zero",
            "panic@site:0",
            "panic@:1",
            "panic@we!rd",
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn fires_on_the_exact_ordinal() {
        let _g = lock();
        install(FaultSpec::parse("nan@t.site:3").unwrap());
        assert!(!inject_nan("t.site"));
        assert!(!inject_nan("t.site"));
        assert!(inject_nan("t.site"), "third probe fires");
        assert!(!inject_nan("t.site"), "one-shot: fourth probe is clean");
        disable();
    }

    #[test]
    fn repeat_fires_from_ordinal_on() {
        let _g = lock();
        install(FaultSpec::parse("io@t.rep:2+").unwrap());
        assert!(inject_io("t.rep").is_none());
        assert!(inject_io("t.rep").is_some());
        assert!(inject_io("t.rep").is_some());
        disable();
    }

    #[test]
    fn sites_count_independently() {
        let _g = lock();
        install(FaultSpec::parse("nan@t.a:2,nan@t.b:1").unwrap());
        assert!(inject_nan("t.b"), "t.b fires on its own first probe");
        assert!(!inject_nan("t.a"));
        assert!(inject_nan("t.a"));
        disable();
    }

    #[test]
    fn inject_panic_panics_with_stable_message() {
        let _g = lock();
        install(FaultSpec::parse("panic@t.p:1").unwrap());
        let err = std::panic::catch_unwind(|| inject_panic("t.p")).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("fault injected: panic@t.p"), "{msg}");
        disable();
    }

    #[test]
    fn stall_parses_and_sleeps_on_its_ordinal() {
        let _g = lock();
        let s = FaultSpec::parse("stall@t.stall:2").unwrap();
        assert_eq!(s.entries[0].kind, FaultKind::Stall);
        install(s);
        let t0 = std::time::Instant::now();
        assert!(!inject_stall("t.stall"), "first probe clean");
        assert!(t0.elapsed() < stall_duration(), "no sleep on a clean probe");
        let t1 = std::time::Instant::now();
        assert!(inject_stall("t.stall"), "second probe stalls");
        assert!(t1.elapsed() >= stall_duration());
        disable();
    }

    #[test]
    fn panic_or_stall_handles_both_kinds_with_one_probe_each() {
        let _g = lock();
        install(FaultSpec::parse("stall@t.ps:1,panic@t.ps:2").unwrap());
        let t0 = std::time::Instant::now();
        inject_panic_or_stall("t.ps");
        assert!(t0.elapsed() >= stall_duration(), "first probe stalls");
        let err = std::panic::catch_unwind(|| inject_panic_or_stall("t.ps")).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("fault injected: panic@t.ps"), "{msg}");
        inject_panic_or_stall("t.ps"); // third probe: clean
        disable();
    }

    #[test]
    fn disabled_probe_is_inert() {
        let _g = lock();
        disable();
        for _ in 0..100 {
            assert!(probe("t.off").is_none());
        }
    }
}
