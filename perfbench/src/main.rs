//! `perf` — runs one workload of the repo benchmark and prints its
//! metrics, or (`perf aa`) checks that repeated runs of the same code
//! agree within the benchmark's own bounds. See `README.md`.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use perfbench::aa;
use perfbench::harness::{flag_value, nproc, Outcome, RunConfig, QUICK_SECONDS};
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::probes;
use perfbench::trace::chrome_trace;
use perfbench::workloads::Workload;

const USAGE: &str = "\
perf — the repo benchmark (perfbench/README.md)

USAGE:
  perf --workload W --seed N --seconds S --trace 0|1 [--quick]
  perf aa [--runs N]

  W        train_fit | serve_cold | serve_hot | ingest_mixed
  --seed   drives what the program is asked, never how much work it is
  --trace  0: end-to-end metrics; 1: per-layer metrics, stage table and
           a Chrome trace next to the executable
  --quick  at most 3 s timed: same code paths and checks, numbers NOT
           for comparison
  aa       run every workload N times (default 5, seeds cycling 1..3)
           and compare the spread of every end-to-end metric with its
           bound; exits non-zero when a spread is out of bounds
";

fn main() -> ExitCode {
    let epoch = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::from(2);
    }
    let result = if args[0] == "aa" {
        aa::run(&args[1..])
    } else {
        run_workload(&args, epoch)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("perf: {msg}");
            ExitCode::from(2)
        }
    }
}

fn required<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    flag_value(args, name)?.ok_or_else(|| format!("{name} is required"))
}

/// An unconfigured process: no inherited `TAXOREC_*` knob survives.
/// (`Workload::run` then sets the one knob the benchmark does set, the
/// pool width.)
fn clear_environment() {
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("TAXOREC_") {
            std::env::remove_var(name);
        }
    }
}

/// Commit of the checkout, read from `.git` without running git
/// (`unknown` outside a repository).
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
    }
}

fn simd_level() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "scalar"
}

/// The header line: where and how the numbers were taken.
fn header(workload: Workload, cfg: &RunConfig) -> String {
    format!(
        "{{\"bench\":\"perfbench\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\
         \"trace\":{},\"quick\":{},\"rev\":\"{}\",\"nproc\":{},\"simd\":\"{}\",\"rustc\":\"{}\",\
         \"pool_width\":{},\"load\":\"{}\",\"options\":\"TaxoRecConfig::default(), \
         ServeOptions::default(), \
         IngestOptions::default() + enabled; TAXOREC_* cleared, TAXOREC_THREADS={}\"}}",
        workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        cfg.quick,
        git_rev(),
        nproc(),
        simd_level(),
        env!("PERFBENCH_RUSTC"),
        workload.pool_threads(),
        workload.load(cfg),
        workload.pool_threads(),
    )
}

fn run_workload(args: &[String], epoch: Instant) -> Result<bool, String> {
    let name: String = required(args, "--workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seconds: f64 = required(args, "--seconds")?;
    if seconds.is_nan() || seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    let cfg = RunConfig {
        seed: required(args, "--seed")?,
        seconds,
        trace: match required::<u8>(args, "--trace")? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace {other} is neither 0 nor 1")),
        },
        quick: args.iter().any(|a| a == "--quick"),
        epoch,
    };
    clear_environment();
    println!("{}", header(workload, &cfg));
    if cfg.quick {
        println!("QUICK MODE: {QUICK_SECONDS} s timed — numbers are NOT for comparison");
    }

    let mut outcome = workload.run(&cfg)?;
    for line in &outcome.report {
        println!("{line}");
    }
    let metrics = if cfg.trace {
        let layers = traced_layers(workload, &cfg, &mut outcome)?;
        write_trace(workload, &outcome)?;
        layers
    } else {
        end_to_end_metrics(&outcome)
    };
    for v in &outcome.violations {
        println!("VIOLATION: {v}");
    }
    let correct = outcome.violations.is_empty();
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &metrics)?
    );
    Ok(correct)
}

fn end_to_end_metrics(outcome: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let e = &outcome.end_to_end;
    let values = [
        e.setup_s,
        e.throughput_per_s,
        e.latency_p50_ms,
        e.latency_p90_ms,
        e.cpu_ms_per_op,
        e.peak_rss_mb,
        e.recall_at_10,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _, _), v)| (name, v, unit))
        .collect()
}

/// Every per-layer metric of a traced run. The result line must carry
/// all of them whichever workload is traced, so what the traced workload
/// does not measure itself comes from the direct-call probes and from a
/// quick side pass of the workload the metric's table row names.
fn traced_layers(
    workload: Workload,
    cfg: &RunConfig,
    outcome: &mut Outcome,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let mut layers = probes::run_all()?;
    for other in Workload::ALL.into_iter().filter(|&w| w != workload) {
        let side = other.run(&RunConfig {
            quick: true,
            epoch: Instant::now(),
            ..cfg.clone()
        })?;
        for v in side.violations {
            outcome.violate(format!("{} (quick side pass): {v}", other.name()));
        }
        for &(name, _, _, source) in PER_LAYER {
            if let (true, Some(&v)) = (source == Some(other), side.layers.get(name)) {
                layers.insert(name, v);
            }
        }
    }
    layers.extend(std::mem::take(&mut outcome.layers));
    println!("e2e of the traced run (tracing on, not for comparison):");
    for (name, value, unit) in end_to_end_metrics(outcome) {
        println!("  {name} = {value} {unit}");
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit, ..)| {
            layers
                .get(name)
                .map(|&v| (name, v, unit))
                .ok_or_else(|| format!("per-layer metric {name} was not measured"))
        })
        .collect()
}

/// Writes the Chrome trace next to the executable (inside the build
/// directory, so inside the checkout).
fn write_trace(workload: Workload, outcome: &Outcome) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("executable has no parent directory")?;
    let path = dir.join(format!("trace-{}.json", workload.name()));
    std::fs::write(&path, chrome_trace(&outcome.spans))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("chrome trace: {}", path.display());
    Ok(())
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64, &'static str)],
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{",
        attempted.max(1)
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // `{:?}` of an f64 is the shortest text that round-trips: every
        // digit that was measured, and always a valid JSON number for
        // finite values.
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number: {value}"));
        }
        let _ = write!(
            out,
            "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        );
    }
    out.push_str("}}");
    Ok(out)
}
