//! End-to-end trace propagation over a live server and the blocking
//! client: every response carries an `x-taxorec-trace` header, and a
//! sampled `/recommend` request exports a Chrome trace-event JSON file
//! whose spans share one trace id and form a single rooted tree
//! (http → queue / cache / score → kernel / respond).
//!
//! The trace exporter is process-global, so the tests serialize on one
//! lock and live in their own integration-test binary (their own
//! process) to stay isolated from the other serve tests.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use taxorec_core::{TaxoRec, TaxoRecConfig};
use taxorec_data::{generate_preset, Preset, Recommender, Scale, Split};
use taxorec_serve::client;
use taxorec_serve::{serve_with, ServeOptions, ServingModel};
use taxorec_telemetry::json::{self, Value};
use taxorec_telemetry::trace;

fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn serving_model() -> ServingModel {
    let dataset = generate_preset(Preset::Ciao, Scale::Tiny);
    let split = Split::standard(&dataset);
    let mut cfg = TaxoRecConfig::fast_test();
    cfg.epochs = 2;
    let mut model = TaxoRec::new(cfg);
    model.fit(&dataset, &split);
    ServingModel::from_model(&model, &dataset, &split).expect("snapshot")
}

#[test]
fn every_response_carries_a_trace_header() {
    let _g = lock();
    trace::disable();
    let handle = serve_with(
        Arc::new(serving_model()),
        "127.0.0.1:0",
        ServeOptions {
            n_workers: 2,
            io_timeout: Duration::from_secs(2),
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let addr = handle.local_addr();

    let mut ids = Vec::new();
    for target in ["/recommend?user=0&k=3", "/healthz", "/nope", "/recommend"] {
        let response = client::get(addr, target).expect("response");
        let id = response
            .header("x-taxorec-trace")
            .unwrap_or_else(|| panic!("no x-taxorec-trace header on {target}:\n{}", response.head));
        assert_eq!(id.len(), 16, "16 hex digits: {id:?}");
        assert!(
            id.chars().all(|c| c.is_ascii_hexdigit()),
            "hex trace id: {id:?}"
        );
        assert_ne!(id, "0000000000000000", "real id even when unsampled");
        ids.push(id.to_string());
    }
    let unique: std::collections::HashSet<&String> = ids.iter().collect();
    assert_eq!(unique.len(), ids.len(), "distinct per request: {ids:?}");

    handle.shutdown();
}

/// One exported trace event, parsed from its JSON line.
struct SpanEvent {
    name: String,
    trace: String,
    span: String,
    parent: String,
}

fn parse_events(text: &str) -> Vec<SpanEvent> {
    let Ok(Value::Arr(events)) = json::parse(text.trim()) else {
        panic!("export is not a JSON array:\n{text}");
    };
    let text_at = |event: &Value, path: &[&str]| {
        let field = path.iter().try_fold(event, |v, key| v.get(key));
        field.and_then(Value::as_str).map(str::to_string)
    };
    events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .map(|e| SpanEvent {
            name: text_at(e, &["name"]).expect("name"),
            trace: text_at(e, &["args", "trace"]).expect("trace"),
            span: text_at(e, &["args", "span"]).expect("span"),
            parent: text_at(e, &["args", "parent"]).expect("parent"),
        })
        .collect()
}

#[test]
fn sampled_recommend_request_exports_one_rooted_span_tree() {
    let _g = lock();
    // Train BEFORE arming the exporter: fit_controlled mints its own
    // trace and would otherwise consume the sampling slot / add spans.
    let model = serving_model();
    let path =
        std::env::temp_dir().join(format!("taxorec-tracing-test-{}.json", std::process::id()));
    trace::install_file_exporter(path.to_str().unwrap());
    trace::set_sample_every(1);

    let handle = serve_with(
        Arc::new(model),
        "127.0.0.1:0",
        ServeOptions {
            n_workers: 1,
            io_timeout: Duration::from_secs(2),
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let addr = handle.local_addr();
    let response = client::get(addr, "/recommend?user=0&k=5").expect("response");
    assert_eq!(response.status, 200, "{}", response.body);
    let header_id = response
        .header("x-taxorec-trace")
        .expect("trace header")
        .to_string();
    handle.shutdown();

    let written = trace::flush().expect("flush");
    let text = std::fs::read_to_string(&written).expect("read export");
    assert!(json::parse(text.trim()).is_ok(), "{text}");
    let events = parse_events(&text);
    trace::disable();
    let _ = std::fs::remove_file(&path);

    // Every span belongs to the one trace the client saw in its header.
    assert!(!events.is_empty(), "no events exported:\n{text}");
    for e in &events {
        assert_eq!(e.trace, header_id, "span {} off-trace", e.name);
    }

    // Exactly one root, and it is the http span.
    let roots: Vec<&SpanEvent> = events
        .iter()
        .filter(|e| e.parent == "0000000000000000")
        .collect();
    assert_eq!(roots.len(), 1, "single root");
    assert_eq!(roots[0].name, "http");

    // Connected: every non-root parent id is some exported span's id.
    let span_ids: std::collections::HashSet<&str> =
        events.iter().map(|e| e.span.as_str()).collect();
    for e in &events {
        if e.parent != "0000000000000000" {
            assert!(
                span_ids.contains(e.parent.as_str()),
                "span {} has dangling parent {}",
                e.name,
                e.parent
            );
        }
    }

    // The stages the issue promises are all present.
    let names: std::collections::HashSet<&str> = events.iter().map(|e| e.name.as_str()).collect();
    for expected in ["http", "queue", "cache", "score", "respond"] {
        assert!(
            names.contains(expected),
            "missing span {expected}: {names:?}"
        );
    }
}
