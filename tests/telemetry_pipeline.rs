//! End-to-end telemetry pipeline: a real (tiny) training + evaluation run
//! must emit valid JSON Lines containing every documented metric name.
//! This is the integration contract behind `TAXOREC_METRICS` (the test
//! bypasses the environment with the in-memory sink so it stays hermetic).

use taxorec::core::{TaxoRec, TaxoRecConfig};
use taxorec::data::{generate_preset, Preset, Recommender, Scale, Split};
use taxorec::eval::run_cell;
use taxorec::telemetry;

#[test]
fn training_run_emits_documented_metrics_as_valid_jsonl() {
    let buf = telemetry::install_memory_sink();
    let d = generate_preset(Preset::Ciao, Scale::Tiny);
    let s = Split::standard(&d);
    let stats = run_cell(
        "TaxoRec",
        &|seed| {
            Box::new(TaxoRec::new(TaxoRecConfig {
                epochs: 3,
                seed,
                ..TaxoRecConfig::fast_test()
            })) as Box<dyn Recommender>
        },
        &d,
        &s,
        &[10],
        &[1],
    );
    telemetry::disable_metrics();
    let lines = buf.lock().unwrap().clone();
    assert!(!lines.is_empty(), "an instrumented run must emit events");
    for l in &lines {
        assert!(telemetry::json::parse(l).is_ok(), "invalid JSONL line: {l}");
    }
    for name in [
        "train.epoch.loss",
        "train.grad_norm",
        "train.boundary_max_norm",
        "train.epoch.duration",
        "taxo.rebuild.duration",
        "taxo.kmeans.iters",
        "eval.fit.duration",
        "eval.eval.duration",
    ] {
        assert!(
            lines
                .iter()
                .any(|l| l.contains(&format!("\"name\":\"{name}\""))),
            "missing metric {name} in emitted JSONL"
        );
    }
    // The per-cell run summary rides along as its own JSONL record.
    assert!(lines.iter().any(|l| l.contains("\"name\":\"eval.cell\"")));
    assert!(stats.fit_secs_mean > 0.0, "fit wall time recorded");
    assert!(stats.eval_secs_mean >= 0.0);
    // The registry snapshot covering the run is itself one valid JSON doc.
    let snap = telemetry::snapshot();
    assert!(telemetry::json::parse(&snap).is_ok(), "{snap}");
    assert!(snap.contains("\"train.epoch.duration\""));
}
