//! The experiment harness: regenerates every table and figure of the
//! TaxoRec paper on the synthetic dataset analogues.
//!
//! One binary, `taxorec-bench <name>`, with a subcommand per experiment
//! (see `src/bin/taxorec-bench/`): `table1` … `table5`, `fig3`, `fig5`,
//! `fig6`, the §V-B `runtime` table, and the `hotpath` and `retrieval`
//! microbenchmarks. `taxorec-loadgen` drives a running server.
//!
//! Scale, seeds, and epochs are controlled by environment variables so the
//! same subcommands serve quick smoke runs and fuller reproductions:
//!
//! * `TAXOREC_SCALE` — `tiny` | `bench` (default) | `full`
//! * `TAXOREC_SEEDS` — number of seeds per cell (default 3)
//! * `TAXOREC_EPOCHS` — TaxoRec's training epochs (default 60); the
//!   baselines train `max(TAXOREC_EPOCHS, 100)`

use taxorec_baselines::{zoo, TrainOpts};
use taxorec_core::{TaxoRec, TaxoRecConfig};
use taxorec_data::{generate_preset, Dataset, Preset, Recommender, Scale, Split};
use taxorec_eval::{run_cell, CellStats};

/// Harness-wide configuration resolved from the environment.
#[derive(Clone, Debug)]
pub struct BenchProfile {
    /// Dataset scale.
    pub scale: Scale,
    /// Seeds per (model, dataset) cell.
    pub seeds: Vec<u64>,
    /// Training epochs for TaxoRec and its `Hyper+CML` ablations. The
    /// baselines train `epochs.max(100)` ([`BenchProfile::train_opts`]).
    pub epochs: usize,
    /// Total embedding dimensionality `D`.
    pub dim: usize,
    /// Tag-relevant dimensionality `D_t` for the tag-aware models.
    pub dim_tag: usize,
    /// GCN depth `L` for graph models and TaxoRec.
    pub gcn_layers: usize,
}

impl Default for BenchProfile {
    fn default() -> Self {
        Self {
            scale: Scale::Bench,
            seeds: vec![11, 22, 33],
            epochs: 60,
            dim: 32,
            dim_tag: 8,
            gcn_layers: 3,
        }
    }
}

impl BenchProfile {
    /// Reads `TAXOREC_SCALE` / `TAXOREC_SEEDS` / `TAXOREC_EPOCHS`.
    pub fn from_env() -> Self {
        let mut p = Self::default();
        match std::env::var("TAXOREC_SCALE").as_deref() {
            Ok("tiny") => p.scale = Scale::Tiny,
            Ok("full") => p.scale = Scale::Full,
            _ => {}
        }
        if let Some(n) = taxorec_telemetry::env::<usize>("TAXOREC_SEEDS") {
            p.seeds = (0..n.max(1)).map(|i| 11 * (i as u64 + 1)).collect();
        }
        if let Some(n) = taxorec_telemetry::env::<usize>("TAXOREC_EPOCHS") {
            p.epochs = n.max(1);
        }
        p
    }

    /// `(TaxoRec's epochs, every baseline's epochs)`, read from
    /// [`BenchProfile::taxorec_config`] and [`BenchProfile::train_opts`]
    /// so a table header states the budgets its rows trained with.
    pub fn epoch_budgets(&self) -> (usize, usize) {
        (self.taxorec_config(0).epochs, self.train_opts(0).epochs)
    }

    /// Baseline training options derived from this profile. Learning rate
    /// 25 with batch 1024 and batch-mean losses corresponds to a standard
    /// per-sample rate of ≈0.025 — the operating point the baseline grid
    /// search (see EXPERIMENTS.md) selected for the Euclidean models.
    pub fn train_opts(&self, seed: u64) -> TrainOpts {
        TrainOpts {
            dim: self.dim,
            epochs: self.epochs.max(100),
            lr: 25.0,
            batch: 1024,
            seed,
            ..TrainOpts::default()
        }
    }

    /// TaxoRec configuration derived from this profile. The total
    /// dimensionality matches the baselines (`dim_ir + dim_tag = dim`),
    /// mirroring the paper's D=64 / D_t=12 budget. Optimizer settings are
    /// the library defaults, which the validation grid search recorded in
    /// EXPERIMENTS.md selected uniformly across all four datasets.
    pub fn taxorec_config(&self, seed: u64) -> TaxoRecConfig {
        TaxoRecConfig {
            dim_ir: self.dim.saturating_sub(self.dim_tag).max(2),
            dim_tag: self.dim_tag,
            gcn_layers: self.gcn_layers,
            epochs: self.epochs,
            seed,
            ..TaxoRecConfig::default()
        }
    }
}

/// Generates a preset dataset and its standard 60/20/20 split.
pub fn dataset_and_split(preset: Preset, scale: Scale) -> (Dataset, Split) {
    let d = generate_preset(preset, scale);
    let s = Split::standard(&d);
    (d, s)
}

/// Builds any model of the lineup (Table II names plus the Table III
/// ablations `CML+Agg`, `Hyper+CML`, `Hyper+CML+Agg`).
pub fn make_model(name: &str, profile: &BenchProfile, seed: u64) -> Box<dyn Recommender> {
    let opts = profile.train_opts(seed);
    let cfg = profile.taxorec_config(seed);
    match name {
        "Hyper+CML" => Box::new(TaxoRec::new(cfg.ablation_hyper_cml())),
        "Hyper+CML+Agg" => Box::new(TaxoRec::new(cfg.ablation_hyper_cml_agg())),
        _ => zoo::by_name(name, &opts, &cfg, profile.gcn_layers)
            .unwrap_or_else(|| panic!("unknown model {name}")),
    }
}

/// A unit of work for the parallel runner: model × dataset.
#[derive(Clone, Debug)]
pub struct Job {
    /// Model name understood by [`make_model`].
    pub model: String,
    /// Index into the shared dataset list.
    pub dataset_idx: usize,
}

/// Runs every job across the shared [`taxorec_parallel`] pool (the
/// generalized successor of the worker pool that used to live here); each
/// worker constructs and trains its models locally. Results come back in
/// job order. Pool metrics land under the `parallel.*` telemetry names.
pub fn run_jobs(
    jobs: &[Job],
    datasets: &[(Dataset, Split)],
    profile: &BenchProfile,
    ks: &[usize],
) -> Vec<CellStats> {
    taxorec_parallel::par_map("bench.run_jobs", jobs.len(), |i| {
        let job = &jobs[i];
        let (dataset, split) = &datasets[job.dataset_idx];
        run_cell(
            &job.model,
            &|seed| make_model(&job.model, profile, seed),
            dataset,
            split,
            ks,
            &profile.seeds,
        )
    })
}

/// Appends this process's full metric snapshot as one JSON line to
/// `BENCH_telemetry.json` in the working directory, labelled with the
/// producing experiment: `{"bin":…,"generated_unix_ms":…,"telemetry":…}`.
/// Every experiment subcommand calls this on exit so a full reproduction run leaves
/// a machine-readable record of training health and runtime next to its
/// tables.
pub fn write_bench_telemetry(bin: &str) {
    let mut line = String::with_capacity(2048);
    line.push_str("{\"bin\":");
    taxorec_telemetry::json::push_str_escaped(&mut line, bin);
    line.push_str(",\"generated_unix_ms\":");
    line.push_str(&taxorec_telemetry::sink::unix_ms().to_string());
    line.push_str(",\"telemetry\":");
    line.push_str(&taxorec_telemetry::snapshot());
    line.push('}');
    use std::io::Write;
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open("BENCH_telemetry.json")
    {
        Ok(mut f) => {
            let _ = writeln!(f, "{line}");
        }
        Err(e) => eprintln!("[taxorec:warn] cannot write BENCH_telemetry.json: {e}"),
    }
}

/// Wall-clock helper for the runtime claims.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, std::time::Duration) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_profile() -> BenchProfile {
        BenchProfile {
            scale: Scale::Tiny,
            seeds: vec![1],
            epochs: 3,
            dim: 10,
            dim_tag: 4,
            gcn_layers: 2,
        }
    }

    #[test]
    fn make_model_covers_full_lineup() {
        let p = tiny_profile();
        for name in zoo::TABLE2_ORDER {
            let m = make_model(name, &p, 1);
            assert_eq!(m.name(), name);
        }
        for name in ["CML+Agg", "Hyper+CML", "Hyper+CML+Agg"] {
            let m = make_model(name, &p, 1);
            assert_eq!(m.name(), name);
        }
    }

    #[test]
    fn run_jobs_parallel_matches_job_order() {
        let p = tiny_profile();
        let datasets = vec![dataset_and_split(Preset::Ciao, Scale::Tiny)];
        let jobs = vec![
            Job {
                model: "BPRMF".into(),
                dataset_idx: 0,
            },
            Job {
                model: "CML".into(),
                dataset_idx: 0,
            },
        ];
        let results = run_jobs(&jobs, &datasets, &p, &[10]);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].model, "BPRMF");
        assert_eq!(results[1].model, "CML");
        assert!(results.iter().all(|r| r.recall_mean[0].is_finite()));
    }

    #[test]
    fn profile_env_parsing_defaults() {
        let p = BenchProfile::default();
        assert_eq!(p.seeds.len(), 3);
        assert_eq!(p.dim, 32);
        let cfg = p.taxorec_config(7);
        assert_eq!(cfg.dim_ir + cfg.dim_tag, p.dim);
    }
}
