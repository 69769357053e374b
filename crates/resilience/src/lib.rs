//! # taxorec-resilience
//!
//! The workspace's failure-testing and recovery toolkit:
//!
//! * [`fault`] — a deterministic fault-injection harness driven by the
//!   `TAXOREC_FAULT` environment variable. Production code plants named
//!   *sites* (`parallel.job`, `train.epoch`, `checkpoint.save`, …) on its
//!   failure paths; a spec such as
//!   `panic@parallel.job:17,nan@train.epoch:5,io@checkpoint.save:2`
//!   arms exactly one invocation of each site, so every recovery path in
//!   the workspace is testable and bit-reproducible.
//! * [`retry`] — bounded retry with exponential backoff, used by
//!   checkpoint IO.
//!
//! With `TAXOREC_FAULT` unset the probe fast-path is a single relaxed
//! atomic load — the harness costs nothing in production.
//!
//! Every injected fault and every retry feeds the shared
//! [`taxorec_telemetry`] registry under `resilience.*`.

pub mod fault;
pub mod retry;

pub use fault::{
    disable, inject_io, inject_nan_or_stall, inject_panic, inject_panic_or_stall, install, probe,
    reset, stall_duration, FaultEntry, FaultKind, FaultSpec, FaultSpecError,
};
pub use retry::RetryPolicy;
