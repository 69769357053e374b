//! `train_fit`: offline training only. No serving layer runs, so
//! `autodiff`, `core`, `taxonomy` and `geometry` do all the work — at one
//! pool thread, see [`Workload::pool_threads`](super::Workload::pool_threads).
//!
//! `--seed` does not reach the model. Held-out Recall@10 on this dataset
//! rests on 17 users with a hit and moved between 0.0157 and 0.0305 over
//! init seeds 1–6 when this file was written; the benchmark's acceptance
//! check compares runs of *different* seeds, and no quality bound holds
//! a number that moves by half with the seed. So every fit uses
//! `TaxoRecConfig::default()` (seed included) and the run is the same
//! request whatever the seed: identical fits, whose checkpoints must be
//! byte-identical.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use taxorec_core::{FitControl, TaxoRec, TaxoRecConfig};
use taxorec_serve::Checkpoint;
use taxorec_telemetry::EpochRecord;

use crate::fixtures::{train_fixture, FixtureCounts, TrainFixture};
use crate::harness::{phase_length, EndToEnd, Outcome, PhaseMeter, RunConfig};
use crate::procfs::process_cpu_ns;
use crate::stats::{median, quantile, quartiles, sorted};
use crate::trace::{stage_table, SpanLog, ROOT};

/// Epochs per fit in quick mode (the default 60 otherwise).
const QUICK_EPOCHS: usize = 12;
/// Complete fits a run measures at least.
const MIN_FITS: usize = 3;
/// Seconds of `--seconds` per fit: a 60-epoch fit takes about 3.5 s at
/// one thread here.
const SECONDS_PER_FIT: f64 = 3.5;

/// One finished fit.
struct Fit {
    wall_s: f64,
    /// Process CPU seconds the fit took.
    cpu_s: f64,
    epochs: Vec<EpochRecord>,
    rollbacks: usize,
    gave_up: bool,
    checkpoint: Vec<u8>,
}

/// One fit of `epochs` epochs. Every epoch is recorded as spans in
/// `spans` as it is reported (a disabled log drops them).
fn fit(
    cfg: &RunConfig,
    fx: &TrainFixture,
    epochs: usize,
    fit_index: u64,
    spans: &mut SpanLog,
) -> (Fit, TaxoRec) {
    let mut model = TaxoRec::new(TaxoRecConfig {
        epochs,
        ..TaxoRecConfig::default()
    });
    let records = RefCell::new(Vec::with_capacity(epochs));
    let cpu_before = process_cpu_ns();
    let t0 = Instant::now();
    let report = model.fit_controlled(
        &fx.dataset,
        &fx.split,
        FitControl {
            on_epoch: Some(Box::new(|r: &EpochRecord| {
                epoch_spans(cfg, spans, r, (fit_index << 32) | r.epoch as u64);
                records.borrow_mut().push(r.clone());
            })),
            ..FitControl::default()
        },
    );
    let wall_s = t0.elapsed().as_secs_f64();
    let done = Fit {
        wall_s,
        cpu_s: (process_cpu_ns() - cpu_before) as f64 / 1e9,
        epochs: records.into_inner(),
        rollbacks: report.rollbacks,
        gave_up: report.gave_up,
        checkpoint: Checkpoint::from_model(&model).to_bytes(),
    };
    (done, model)
}

/// The spans of the epoch that has just ended: the epoch itself and,
/// laid end to end from its start, its stage totals (an `EpochRecord`
/// carries totals, not instants).
fn epoch_spans(cfg: &RunConfig, spans: &mut SpanLog, r: &EpochRecord, id: u64) {
    let end_ns = cfg.ns(Instant::now());
    let start_ns = end_ns.saturating_sub((r.duration_secs * 1e9) as u64);
    let root = spans.push("train.epoch", start_ns, end_ns, ROOT, id);
    let mut cursor = start_ns;
    for (name, secs) in [
        (
            "taxonomy.rebuild",
            r.rebuild.as_ref().map_or(0.0, |s| s.duration_secs),
        ),
        ("core.aggregation", r.aggregation_secs),
        ("core.scoring", r.scoring_secs),
        ("core.update", r.update_secs),
    ] {
        let next = cursor + (secs * 1e9) as u64;
        spans.push(name, cursor, next, root, id);
        cursor = next;
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let epochs = if cfg.quick {
        QUICK_EPOCHS
    } else {
        TaxoRecConfig::default().epochs
    };
    // Set-up: the dataset, its split and one untimed fit like the timed
    // ones, so every code path and every allocation has run before.
    let fx = train_fixture();
    fit(cfg, &fx, epochs, 0, &mut SpanLog::new(false, 0));
    // A fixed number of whole fits, not as many as fit into the phase:
    // the work (and the memory high-water mark) of a run must not depend
    // on how fast the machine happens to be.
    let n_fits = if cfg.quick {
        2
    } else {
        MIN_FITS.max((phase_length(cfg).as_secs_f64() / SECONDS_PER_FIT) as usize)
    };

    // Each fit is one window; its CPU is read at its two ends.
    let meter = PhaseMeter::start(0, Default::default())?;
    let setup_s = cfg.setup_s(meter.started());
    let mut fits: Vec<Fit> = Vec::with_capacity(n_fits);
    let mut last_model = None;
    // A traced run records spans in the odd fits only; the even fits
    // give the untraced rate for `bench.trace_overhead_share`.
    let mut spans = SpanLog::new(cfg.trace, 0);
    let mut no_spans = SpanLog::new(false, 0);
    for i in 0..n_fits {
        let log = if i % 2 == 1 {
            &mut spans
        } else {
            &mut no_spans
        };
        let (done, model) = fit(cfg, &fx, epochs, i as u64, log);
        fits.push(done);
        last_model = Some(model);
    }
    let usage = meter.stop()?;
    let durations_ms = |f: &Fit| -> Vec<f64> {
        sorted(
            &f.epochs
                .iter()
                .map(|r| r.duration_secs * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let total_epochs: usize = fits.iter().map(|f| f.epochs.len()).sum();
    let failed: usize = fits
        .iter()
        .map(|f| f.rollbacks + f.epochs.iter().filter(|r| r.nan_batches > 0).count())
        .sum();
    let fit_rates: Vec<f64> = fits
        .iter()
        .map(|f| f.epochs.len() as f64 / f.wall_s)
        .collect();
    let last_model = last_model.expect("at least one fit");
    let eval = taxorec_eval::evaluate(&last_model, &fx.split, &[10]);
    let recall = eval.mean_recall(0);
    let users_hit = eval.user_recall(0).iter().filter(|&&r| r > 0.0).count();

    let mut out = Outcome {
        end_to_end: EndToEnd {
            setup_s,
            // Each fit is one window: epochs per second of the median fit.
            throughput_per_s: median(&fit_rates),
            latency_p50_ms: median(
                &fits
                    .iter()
                    .map(|f| quantile(&durations_ms(f), 0.5))
                    .collect::<Vec<_>>(),
            ),
            latency_p90_ms: median(
                &fits
                    .iter()
                    .map(|f| quantile(&durations_ms(f), 0.9))
                    .collect::<Vec<_>>(),
            ),
            cpu_ms_per_op: median(
                &fits
                    .iter()
                    .map(|f| f.cpu_s * 1e3 / f.epochs.len().max(1) as f64)
                    .collect::<Vec<_>>(),
            ),
            peak_rss_mb: usage.peak_rss_mb,
            recall_at_10: recall,
        },
        attempted: total_epochs as u64,
        failed: failed as u64,
        violations: Vec::new(),
        layers: BTreeMap::new(),
        report: vec![
            format!(
                "{} identical fits of {epochs} epochs (one window each), {:.2} s timed; pool \
                 width {}; fixture {}",
                fits.len(),
                usage.wall_s,
                taxorec_parallel::thread_count(),
                FixtureCounts::of_train(&fx).json()
            ),
            format!("fit rates epochs/s: {fit_rates:.3?}"),
            format!(
                "held-out Recall@10 {recall:.6} over {} users, {users_hit} of them with a hit",
                eval.users.len()
            ),
            format!(
                "fit cpu ms/epoch: {:.2?}",
                fits.iter()
                    .map(|f| f.cpu_s * 1e3 / f.epochs.len().max(1) as f64)
                    .collect::<Vec<_>>()
            ),
        ],
        spans: Vec::new(),
    };

    for (i, f) in fits.iter().enumerate() {
        out.check(f.checkpoint == fits[0].checkpoint, || {
            format!("fit {i} ended in a checkpoint that differs from fit 0 (determinism contract)")
        });
        out.check(!f.gave_up && f.epochs.len() == epochs, || {
            format!("fit {i} completed {} of {epochs} epochs", f.epochs.len())
        });
        let losses: Vec<f64> = f.epochs.iter().map(|r| r.mean_loss).collect();
        out.check(losses.iter().all(|l| l.is_finite()), || {
            format!("fit {i} reported a non-finite epoch loss")
        });
        out.check(losses.last() < losses.first(), || {
            format!(
                "fit {i}: loss did not fall ({:?} → {:?})",
                losses.first(),
                losses.last()
            )
        });
    }
    out.check(recall.is_finite() && recall > 0.0, || {
        format!("held-out Recall@10 is {recall}")
    });

    if cfg.trace {
        trace_layers(&mut out, &fits, &fit_rates, spans);
        usage.layers(&mut out.layers);
    }
    Ok(out)
}

/// The stage table of the traced fits and the `core.*` metrics from
/// every fit's epoch records.
fn trace_layers(out: &mut Outcome, fits: &[Fit], fit_rates: &[f64], spans: SpanLog) {
    let (mut total, mut agg, mut score, mut update, mut rebuild) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut rebuilds = Vec::new();
    let mut all_ms = Vec::new();
    for r in fits.iter().flat_map(|f| &f.epochs) {
        total += r.duration_secs;
        agg += r.aggregation_secs;
        score += r.scoring_secs;
        update += r.update_secs;
        all_ms.push(r.duration_secs * 1e3);
        if let Some(stats) = &r.rebuild {
            rebuilds.push(stats.duration_secs * 1e3);
            rebuild += stats.duration_secs;
        }
    }
    let logs = [spans];
    let table = stage_table(&logs);
    out.report.push(table.render("train.epoch"));
    out.check(table.unexplained_share <= 0.10, || {
        format!(
            "stage table leaves {:.3} of the epoch time unexplained",
            table.unexplained_share
        )
    });
    let traced: Vec<f64> = fit_rates.iter().skip(1).step_by(2).copied().collect();
    let untraced: Vec<f64> = fit_rates.iter().step_by(2).copied().collect();
    let l = &mut out.layers;
    l.insert("core.epoch_ms_p50", median(&all_ms));
    l.insert("core.aggregation_share", agg / total);
    l.insert("core.scoring_share", score / total);
    l.insert("core.update_share", update / total);
    l.insert("core.rebuild_ms", median(&rebuilds));
    l.insert(
        "core.epoch_unexplained_share",
        1.0 - (agg + score + update + rebuild) / total,
    );
    l.insert("bench.latency_p99_ms", quantile(&sorted(&all_ms), 0.99));
    l.insert(
        "bench.window_iqr_share",
        quartiles(fit_rates).map_or(0.0, |[q1, _, q3]| (q3 - q1) / median(fit_rates)),
    );
    l.insert(
        "bench.trace_overhead_share",
        1.0 - median(&traced) / median(&untraced),
    );
    out.spans = logs.into();
}
