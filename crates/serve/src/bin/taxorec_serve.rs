//! `taxorec-serve` — train, inspect, and serve `.taxo` model artifacts.
//!
//! ```text
//! taxorec-serve train-demo <out.taxo> [--preset ciao|amazon-cd|amazon-book|yelp]
//!                                     [--scale tiny|bench|full] [--epochs N]
//! taxorec-serve inspect    <model.taxo>
//! taxorec-serve serve      <model.taxo> [--addr HOST:PORT] [--workers N]
//! ```
//!
//! `serve` binds the address (default `127.0.0.1:7878`; port `0` picks an
//! ephemeral port, printed on startup) and answers `GET /recommend`,
//! `/explain`, `/healthz`, and `/metrics` until stdin reaches EOF, then
//! shuts down gracefully.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use taxorec_core::{FitControl, TaxoRec, TaxoRecConfig};
use taxorec_data::{generate_preset, Preset, Scale, Split};
use taxorec_resilience::RetryPolicy;
use taxorec_serve::{Checkpoint, IndexConfig, RetrievalMode, TrainCheckpoint};

mod cli;
use cli::flag;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("train-demo") => train_demo(&args[1..]),
        Some("inspect") => inspect(&args[1..]),
        Some("serve") => run_server(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("taxorec-serve: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
taxorec-serve — train, inspect, and serve .taxo model artifacts

USAGE:
  taxorec-serve train-demo <out.taxo> [--preset P] [--scale S] [--epochs N]
                           [--checkpoint CK] [--checkpoint-every N] [--resume CK]
                           [--follow] [--index]
      Train TaxoRec on a synthetic dataset and save a serving artifact.
      P: ciao | amazon-cd | amazon-book | yelp   (default ciao)
      S: tiny | bench | full                     (default tiny)
      --index                build a hierarchical retrieval index over the
                             item embeddings and embed it in the artifact
                             (enables `serve --retrieval beam[:B]`)
      --checkpoint CK        write a resumable training checkpoint to CK
      --checkpoint-every N   every N completed epochs (default 1)
      --resume CK            continue bit-identically from CK (missing file
                             = fresh start); config flags must match
      --follow               print a per-epoch progress line with the
                             aggregation/scoring/update stage breakdown

  taxorec-serve inspect <model.taxo>
      Print the artifact's model card (dims, users, items, tags, taxonomy).

  taxorec-serve serve <model.taxo> [--addr HOST:PORT] [--workers N]
                      [--retrieval exact|beam|beam:B] [--shard-id ID] [--ingest]
      Serve the model over HTTP (default 127.0.0.1:7878).
      --workers N            request worker threads (default
                             TAXOREC_SERVE_WORKERS, else 4)
      --retrieval            candidate generation: `exact` (default) scores
                             the whole catalogue; `beam[:B]` routes through
                             the artifact's retrieval index (`beam` alone
                             takes the index's default width)
      --shard-id ID          identity reported in /healthz (\"shard\":{…}),
                             used by taxorec-router fleet aggregation
      --ingest               accept POST /ingest interaction batches and fold
                             them into the model between serving ticks
                             (TAXOREC_INGEST_TICK_MS sets the tick;
                             TAXOREC_INGEST_CHECKPOINT persists each tick)
      Endpoints: /recommend?user=U&k=K  /explain?user=U&item=V
                 POST /ingest  /healthz  /metrics (Prometheus)  /metrics.json
                 /debug/flight  /admin/drain  /admin/reload?path=P
                 (TAXOREC_SERVE_ADMIN=0 disables the admin pair)
      Runs until stdin is closed (Ctrl-D / EOF) or SIGTERM/SIGINT arrives;
      a signal drains gracefully (TAXOREC_SERVE_DRAIN_MS grace, default
      300 ms) so a fronting router can route around this shard first.
      Set TAXOREC_TRACE=<file> to export sampled request traces as Chrome
      trace-event JSON on shutdown.
";

/// Boolean `--flag`s (no value); `positional` must not skip an argument
/// after these.
const BOOL_FLAGS: &[&str] = &["--follow", "--index", "--ingest"];

fn positional<'a>(args: &'a [String], idx: usize, what: &str) -> Result<&'a str, String> {
    let mut seen = 0;
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            // Boolean flags stand alone; value flags consume the next arg.
            i += if BOOL_FLAGS.contains(&args[i].as_str()) {
                1
            } else {
                2
            };
            continue;
        }
        if seen == idx {
            return Ok(&args[i]);
        }
        seen += 1;
        i += 1;
    }
    Err(format!("missing required argument <{what}>\n\n{USAGE}"))
}

fn train_demo(args: &[String]) -> Result<(), String> {
    let out = positional(args, 0, "out.taxo")?;
    let preset = match flag(args, "--preset")?.unwrap_or("ciao") {
        "ciao" => Preset::Ciao,
        "amazon-cd" => Preset::AmazonCd,
        "amazon-book" => Preset::AmazonBook,
        "yelp" => Preset::Yelp,
        other => return Err(format!("unknown preset {other:?}")),
    };
    let scale = match flag(args, "--scale")?.unwrap_or("tiny") {
        "tiny" => Scale::Tiny,
        "bench" => Scale::Bench,
        "full" => Scale::Full,
        other => return Err(format!("unknown scale {other:?}")),
    };
    let dataset = generate_preset(preset, scale);
    let split = Split::standard(&dataset);
    let mut config = TaxoRecConfig::fast_test();
    if let Some(e) = flag(args, "--epochs")? {
        config.epochs = e
            .parse()
            .map_err(|_| format!("--epochs {e:?} is not an integer"))?;
    }
    let ckpt_path = flag(args, "--checkpoint")?.map(str::to_string);
    let ckpt_every: usize = match flag(args, "--checkpoint-every")? {
        None => 1,
        Some(n) => n
            .parse()
            .map_err(|_| format!("--checkpoint-every {n:?} is not an integer"))?,
    };
    let resume_path = flag(args, "--resume")?;

    let mut ctl = FitControl::default();
    if let Some(path) = resume_path {
        if std::path::Path::new(path).exists() {
            let state = TrainCheckpoint::load_file(path)
                .map_err(|e| format!("--resume {path}: {e}"))?
                .state;
            println!(
                "resuming from {path}: epoch {}/{} done, lr_scale {}",
                state.next_epoch, state.config.epochs, state.lr_scale
            );
            if state.config != config {
                return Err(format!(
                    "--resume {path} was trained with a different configuration \
                     (pass the same --epochs and dataset flags)"
                ));
            }
            ctl.resume = Some(state);
        } else {
            println!("--resume {path}: no checkpoint yet, starting fresh");
        }
    }
    if let Some(path) = &ckpt_path {
        let path = path.clone();
        ctl.checkpoint_every = ckpt_every.max(1);
        // Each save gets a small retry budget: a transient IO failure
        // (or an injected io@checkpoint.save fault) costs a retry, not
        // the checkpoint.
        ctl.checkpoint_sink = Some(Box::new(move |state| {
            RetryPolicy::default()
                .run("checkpoint.save", |_| {
                    TrainCheckpoint::new(state.clone()).save(&path)
                })
                .map_err(|e| e.to_string())
        }));
    }
    if args.iter().any(|a| a == "--follow") {
        ctl.on_epoch = Some(Box::new(|r| {
            let total = (r.aggregation_secs + r.scoring_secs + r.update_secs).max(1e-12);
            println!(
                "epoch {:>3}  loss {:.5}  grad {:.4}  {:.2}s \
                 (agg {:.0}% / score {:.0}% / update {:.0}%)",
                r.epoch,
                r.mean_loss,
                r.mean_grad_norm,
                r.duration_secs,
                100.0 * r.aggregation_secs / total,
                100.0 * r.scoring_secs / total,
                100.0 * r.update_secs / total,
            );
        }));
    }
    println!(
        "training TaxoRec on synthetic {} ({} users, {} items, {} tags), {} epochs…",
        dataset.name, dataset.n_users, dataset.n_items, dataset.n_tags, config.epochs
    );
    let mut model = TaxoRec::new(config);
    let report = model.fit_controlled(&dataset, &split, ctl);
    if report.start_epoch > 0 {
        println!(
            "resumed at epoch {}, ran {} more",
            report.start_epoch, report.epochs_run
        );
    }
    if report.rollbacks > 0 {
        println!(
            "recovered from {} diverged epoch(s); final lr_scale {}",
            report.rollbacks, report.final_lr_scale
        );
    }
    if report.checkpoint_failures > 0 {
        println!(
            "warning: {} checkpoint write(s) failed ({} succeeded)",
            report.checkpoint_failures, report.checkpoints_written
        );
    }
    if report.gave_up {
        return Err("training diverged beyond the rollback budget; artifact not saved".into());
    }
    let mut ckpt = Checkpoint::from_model(&model)
        .with_dataset(&dataset)
        .with_seen_items(&split.train);
    if args.iter().any(|a| a == "--index") {
        ckpt = ckpt
            .with_retrieval_index(&IndexConfig::default())
            .map_err(|e| format!("--index: {e}"))?;
        let parts = ckpt.index.as_ref().expect("just built");
        println!(
            "retrieval index: {} nodes, {} leaves, depth {}, default beam {}",
            parts.n_nodes(),
            parts.n_leaves(),
            parts.depth(),
            parts.config.beam
        );
    }
    ckpt.save(out).map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    println!("saved {out} ({bytes} bytes)");
    Ok(())
}

fn inspect(args: &[String]) -> Result<(), String> {
    let path = positional(args, 0, "model.taxo")?;
    let ckpt = Checkpoint::load_file(path).map_err(|e| e.to_string())?;
    let s = &ckpt.state;
    println!("artifact      {path}");
    println!("model         {}", s.name);
    println!("users         {}", s.n_users());
    println!("items         {}", s.n_items());
    println!(
        "tags          {} (channel active: {})",
        s.n_tags(),
        s.tags_active
    );
    println!(
        "dims          interaction {} / tag {} (Lorentz, +1 time-like coord)",
        s.config.dim_ir, s.config.dim_tag
    );
    match &s.taxonomy {
        Some(t) => {
            let depth = t.nodes().iter().map(|n| n.level).max().unwrap_or(0);
            println!("taxonomy      {} nodes, depth {depth}", t.nodes().len());
        }
        None => println!("taxonomy      (none)"),
    }
    println!(
        "serving ctx   {} tag names, {} item tag lists, {} seen-item lists",
        ckpt.tag_names.len(),
        ckpt.item_tags.len(),
        ckpt.seen_items.len()
    );
    match &ckpt.index {
        Some(parts) => println!(
            "retrieval     index: {} nodes, {} leaves, depth {}, default beam {}",
            parts.n_nodes(),
            parts.n_leaves(),
            parts.depth(),
            parts.config.beam
        ),
        None => println!("retrieval     (no index — exhaustive scoring only)"),
    }
    match ckpt.journal_cursor {
        Some(cursor) => println!("journal       cursor {cursor} (streamed generation)"),
        None => println!("journal       (batch artifact — no streamed interactions)"),
    }
    Ok(())
}

fn run_server(args: &[String]) -> Result<(), String> {
    // Arm the SIGTERM/SIGINT latch before the address is announced: an
    // orchestrator may signal the instant it sees the listening line,
    // and the default disposition would be sudden death, not a drain.
    taxorec_serve::signal::install();
    let path = positional(args, 0, "model.taxo")?;
    let addr = flag(args, "--addr")?.unwrap_or("127.0.0.1:7878");
    let retrieval = match flag(args, "--retrieval")? {
        None => RetrievalMode::Exact,
        Some(raw) => RetrievalMode::parse(raw).map_err(|e| format!("--retrieval: {e}"))?,
    };
    let mut opts = taxorec_serve::ServeOptions::from_env();
    if let Some(w) = flag(args, "--workers")? {
        opts.n_workers = w
            .parse()
            .map_err(|_| format!("--workers {w:?} is not an integer"))?;
    }
    if let Some(id) = flag(args, "--shard-id")? {
        opts.shard_id = Some(id.to_string());
    }
    let ingest = args.iter().any(|a| a == "--ingest");
    let base = if ingest {
        Some(taxorec_serve::Checkpoint::load_file(path).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let model = match &base {
        Some(ckpt) => taxorec_serve::ServingModel::new(ckpt.clone()),
        None => taxorec_serve::load(path),
    }
    .and_then(|m| m.with_retrieval(retrieval))
    .map_err(|e| e.to_string())?;
    println!(
        "loaded {path}: model {:?}, {} users, {} items, retrieval {}{}",
        model.name(),
        model.n_users(),
        model.n_items(),
        model.retrieval_mode().label(),
        if ingest { ", ingestion on" } else { "" }
    );
    let n_workers = opts.n_workers;
    let handle = match base {
        Some(ckpt) => taxorec_serve::serve_online(Arc::new(model), ckpt, addr, opts),
        None => taxorec_serve::serve_with(Arc::new(model), addr, opts),
    }
    .map_err(|e| format!("bind {addr}: {e}"))?;
    println!(
        "listening on http://{} ({} workers)",
        handle.local_addr(),
        n_workers
    );
    println!(
        "try: curl 'http://{}/recommend?user=0&k=10'",
        handle.local_addr()
    );
    println!("close stdin (Ctrl-D) or send SIGTERM to shut down");
    taxorec_serve::signal::wait_for_exit();
    if taxorec_serve::signal::triggered() {
        // Signal-driven stop is a *graceful drain*: advertise
        // `draining` on /healthz first, give a fronting router one
        // probe interval to route around this shard, then stop.
        println!("signal received; draining…");
        handle.set_draining();
        std::thread::sleep(drain_grace());
    } else {
        println!("stdin closed; shutting down…");
    }
    handle.shutdown();
    // Drain buffered observability before exiting: the trace export and
    // any file-backed JSONL sink only hit disk here on a short run.
    if let Some(path) = taxorec_telemetry::trace::flush() {
        println!("trace export written to {}", path.display());
    }
    taxorec_telemetry::sink::flush();
    println!("bye");
    Ok(())
}

/// How long a signal-stopped shard advertises `draining` before it
/// actually shuts down (`TAXOREC_SERVE_DRAIN_MS`, default 300 ms —
/// comfortably above the router's default 200 ms probe interval).
fn drain_grace() -> Duration {
    Duration::from_millis(taxorec_telemetry::env("TAXOREC_SERVE_DRAIN_MS").unwrap_or(300))
}
