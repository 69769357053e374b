//! The repo benchmark (see `README.md`).

pub mod aa;
pub mod fixtures;
pub mod harness;
pub mod http;
pub mod metrics;
pub mod probes;
pub mod procfs;
pub mod stats;
pub mod streams;
pub mod trace;
pub mod workloads;
