//! The four workloads.

pub mod ingest;
pub mod serve;
pub mod train;

use crate::harness::{nproc, Outcome, RunConfig};

/// A workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Offline training only.
    TrainFit,
    /// Serving, every request a cache miss.
    ServeCold,
    /// Serving, every request a cache hit.
    ServeHot,
    /// Reads beside streamed writes on one online server.
    IngestMixed,
}

impl Workload {
    /// All workloads, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::TrainFit,
        Workload::ServeCold,
        Workload::ServeHot,
        Workload::IngestMixed,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainFit => "train_fit",
            Workload::ServeCold => "serve_cold",
            Workload::ServeHot => "serve_hot",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `TAXOREC_THREADS` the workload runs with. The serving workloads
    /// get `nproc`, what an unconfigured process resolves to. `train_fit`
    /// gets 1, the one place where the benchmark departs from the
    /// defaults: at `nproc` every parallel call of an epoch spawns and
    /// joins scoped threads, and on the two-core guest this was defined
    /// on the cost of those cross-CPU wake-ups is a property of the
    /// hypervisor's mood, not of the code — identical fits ran at 12–13
    /// epochs/s for ten minutes and at 15–17 in the ten minutes before,
    /// against 16–18 at one thread throughout. What the pool costs or
    /// buys is the probe `parallel.fit_speedup`; once that is reliably
    /// above 1, `train_fit` should move to `nproc`.
    pub fn pool_threads(self) -> usize {
        match self {
            Workload::TrainFit => 1,
            _ => nproc(),
        }
    }

    /// The load shape, for the run header.
    pub fn load(self, cfg: &RunConfig) -> String {
        match self {
            Workload::TrainFit => "identical fits one after the other, no client".to_string(),
            Workload::ServeCold | Workload::ServeHot => format!(
                "closed loop, {} client threads, one request in flight each, one process",
                cfg.clients()
            ),
            Workload::IngestMixed => "closed loop, 1 reader thread with one request in flight, \
                                      beside 1 writer thread posting on a fixed schedule, one \
                                      process"
                .to_string(),
        }
    }

    /// Runs the workload once. No other thread of the harness is alive
    /// between workloads, and every pool launch re-reads the variable.
    pub fn run(self, cfg: &RunConfig) -> Result<Outcome, String> {
        std::env::set_var("TAXOREC_THREADS", self.pool_threads().to_string());
        match self {
            Workload::ServeCold => serve::run(cfg, serve::Temperature::Cold),
            Workload::ServeHot => serve::run(cfg, serve::Temperature::Hot),
            Workload::TrainFit => train::run(cfg),
            Workload::IngestMixed => ingest::run(cfg),
        }
    }
}
