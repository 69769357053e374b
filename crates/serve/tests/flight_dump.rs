//! Flight-recorder incident capture over a live server: an injected
//! `serve.request` panic produces a 500 for the client *and* a flight
//! dump file on disk, and the ring stays queryable via `/debug/flight`.
//!
//! The recorder (ring, dump throttle) is process-global, so this lives
//! in its own integration-test binary.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use taxorec_core::{TaxoRec, TaxoRecConfig};
use taxorec_data::{generate_preset, Preset, Recommender, Scale, Split};
use taxorec_resilience::{disable, install, FaultSpec};
use taxorec_serve::client::{self, Response};
use taxorec_serve::{serve_with, ServeOptions, ServingModel};
use taxorec_telemetry::flight;

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
fn injected_panic_writes_a_flight_dump_and_debug_flight_stays_up() {
    let _g = lock();
    let dump_dir = std::env::temp_dir().join(format!("taxorec-flight-test-{}", std::process::id()));
    std::fs::create_dir_all(&dump_dir).expect("mkdir");
    flight::set_dump_dir(&dump_dir);

    let handle = serve_with(
        Arc::new(serving_model()),
        "127.0.0.1:0",
        ServeOptions {
            n_workers: 1,
            io_timeout: Duration::from_secs(2),
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let addr = handle.local_addr();

    // Healthy request first, so the ring has pre-incident history.
    let Response { status, body, .. } =
        client::get(addr, "/recommend?user=0&k=3").expect("response");
    assert_eq!(status, 200, "{body}");

    install(FaultSpec::parse("panic@serve.request:1").expect("spec"));
    let Response {
        status,
        body: response,
        ..
    } = client::get(addr, "/recommend?user=1&k=3").expect("response");
    assert_eq!(status, 500, "{response}");
    disable();

    // The dump is written before the 500 goes out, so it exists by now.
    let dumps: Vec<std::path::PathBuf> = std::fs::read_dir(&dump_dir)
        .expect("read dump dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .map(|n| {
                    n.to_string_lossy()
                        .starts_with("flight-serve.request.panic-")
                })
                .unwrap_or(false)
        })
        .collect();
    assert_eq!(dumps.len(), 1, "one dump file: {dumps:?}");
    let text = std::fs::read_to_string(&dumps[0]).expect("read dump");
    assert!(
        taxorec_telemetry::json::parse(text.trim()).is_ok(),
        "{text}"
    );
    assert!(
        text.contains("\"reason\":\"serve.request.panic\""),
        "{text}"
    );
    // The healthy request before the incident is in the captured ring.
    assert!(text.contains("\"kind\":\"serve.request\""), "{text}");
    assert!(text.contains("\"kind\":\"serve.panic\""), "{text}");

    // The live ring stays queryable after the incident.
    let Response {
        status, body: json, ..
    } = client::get(addr, "/debug/flight").expect("response");
    assert_eq!(status, 200, "{json}");
    assert!(
        taxorec_telemetry::json::parse(json.trim()).is_ok(),
        "{json}"
    );
    assert!(json.contains("\"events\":["), "{json}");
    assert!(json.contains("serve.panic"), "{json}");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dump_dir);
}
