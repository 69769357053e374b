//! Streaming-ingestion integration: determinism of the incremental
//! fold at the artifact level, ingest-while-serving, the never-seen-tag
//! graft path, and the keep-alive stale-model regression.
//!
//! Test A mutates the process-global `TAXOREC_THREADS`, so every test
//! here serializes on one lock.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use taxorec_core::{TaxoRec, TaxoRecConfig};
use taxorec_data::{generate_preset, Preset, Recommender, Scale, Split};
use taxorec_serve::client::{self, Response, Timeouts};
use taxorec_serve::{
    fold_batch, serve_online, serve_with, Checkpoint, IndexConfig, IngestInteraction,
    IngestOptions, ServeOptions, ServingModel,
};
use taxorec_telemetry::json;

fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One trained base checkpoint shared by every test (training is the
/// expensive part; each test folds into its own clone).
fn base_checkpoint() -> &'static Checkpoint {
    static BASE: OnceLock<Checkpoint> = OnceLock::new();
    BASE.get_or_init(|| {
        let dataset = generate_preset(Preset::Ciao, Scale::Tiny);
        let split = Split::standard(&dataset);
        let mut cfg = TaxoRecConfig::fast_test();
        cfg.epochs = 2;
        let mut model = TaxoRec::new(cfg);
        model.fit(&dataset, &split);
        Checkpoint::from_model(&model)
            .with_dataset(&dataset)
            .with_seen_items(&split.train)
            .with_retrieval_index(&IndexConfig::default())
            .expect("index build")
    })
}

/// A journal exercising every growth path: known ids, never-seen users
/// and items, known tag names, and a stream of never-seen tag names
/// (enough to cross a small drift limit and force a rebuild).
fn synthetic_journal(base: &Checkpoint, n: usize) -> Vec<IngestInteraction> {
    let users = base.state.n_users() as u32;
    let items = base.state.n_items() as u32;
    (0..n)
        .map(|i| {
            let i32u = i as u32;
            let user = if i % 5 == 3 {
                users + i32u % 4
            } else {
                i32u % users
            };
            let item = if i % 7 == 2 {
                items + i32u % 3
            } else {
                (i32u * 13) % items
            };
            let tags = match i % 4 {
                0 => vec![format!("live-{}", i / 4)],
                1 => base.tag_names.first().cloned().into_iter().collect(),
                _ => vec![],
            };
            IngestInteraction { user, item, tags }
        })
        .collect()
}

fn ingest_opts() -> IngestOptions {
    IngestOptions {
        enabled: true,
        drift_limit: 4,
        ..IngestOptions::default()
    }
}

/// The integer at `path` in a JSON document.
fn u64_at(doc: &str, path: &[&str]) -> Option<u64> {
    let doc = json::parse(doc).ok()?;
    path.iter().try_fold(&doc, |v, key| v.get(key))?.as_u64()
}

/// Restores the previous `TAXOREC_THREADS` value on drop.
struct ThreadsGuard(Option<String>);

impl ThreadsGuard {
    fn set(v: &str) -> Self {
        let prev = std::env::var("TAXOREC_THREADS").ok();
        std::env::set_var("TAXOREC_THREADS", v);
        Self(prev)
    }
}

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        match &self.0 {
            Some(v) => std::env::set_var("TAXOREC_THREADS", v),
            None => std::env::remove_var("TAXOREC_THREADS"),
        }
    }
}

/// ISSUE property: applying N journaled interactions incrementally
/// (chunked, as the updater does per tick) then checkpointing yields a
/// bit-identical artifact to replaying the same journal from the same
/// base in one pass — and the bytes are independent of the worker
/// thread count.
#[test]
fn incremental_fold_is_bit_identical_to_whole_journal_replay() {
    let _g = lock();
    let base = base_checkpoint();
    let journal = synthetic_journal(base, 40);
    let opts = ingest_opts();

    let fold_all = |threads: &str| {
        let _t = ThreadsGuard::set(threads);
        let mut ckpt = base.clone();
        let mut drift = 0u64;
        let report = fold_batch(&mut ckpt, &journal, &opts, &mut drift).expect("fold");
        (ckpt.to_bytes(), report)
    };

    let (whole, report) = fold_all("4");
    // The journal must actually exercise the growth + graft + rebuild
    // machinery, or this property is vacuous.
    assert_eq!(report.applied, journal.len());
    assert_eq!(report.dropped, 0);
    assert!(report.new_users > 0 && report.new_items > 0, "{report:?}");
    assert!(report.attached >= opts.drift_limit as usize, "{report:?}");
    assert!(report.rebuilds >= 1, "{report:?}");
    assert_eq!(report.cursor, journal.len() as u64);

    // Same journal, chunks of 7 (tick-sized batches), drift threaded.
    let mut chunked = base.clone();
    let mut drift = 0u64;
    for chunk in journal.chunks(7) {
        fold_batch(&mut chunked, chunk, &opts, &mut drift).expect("fold chunk");
    }
    assert_eq!(
        whole,
        chunked.to_bytes(),
        "tick batching changed the artifact bytes"
    );

    // Same journal, single worker thread.
    let (single_threaded, _) = fold_all("1");
    assert_eq!(
        whole, single_threaded,
        "thread count changed the artifact bytes"
    );

    // The artifact round-trips with its cursor.
    let reloaded = Checkpoint::from_bytes(&whole).expect("parse folded artifact");
    assert_eq!(reloaded.journal_cursor, Some(journal.len() as u64));
    ServingModel::new(reloaded).expect("folded artifact serves");
}

/// ISSUE: `/ingest` of an interaction referencing a never-seen tag
/// attaches it to the taxonomy without a full rebuild.
#[test]
fn never_seen_tag_attaches_as_a_leaf_without_a_rebuild() {
    let _g = lock();
    let mut ckpt = base_checkpoint().clone();
    let taxo_len = ckpt.state.taxonomy.as_ref().expect("taxonomy").len();
    let n_tags = ckpt.state.n_tags();
    let batch = vec![IngestInteraction {
        user: 0,
        item: 1,
        tags: vec!["never-seen-live-tag".to_string()],
    }];
    let opts = IngestOptions {
        drift_limit: 1000,
        ..ingest_opts()
    };
    let mut drift = 0;
    let report = fold_batch(&mut ckpt, &batch, &opts, &mut drift).expect("fold");
    assert_eq!(report.new_tags, 1);
    assert_eq!(report.attached, 1);
    assert_eq!(report.rebuilds, 0, "a single graft must not rebuild");
    assert_eq!(drift, 1);
    let taxo = ckpt.state.taxonomy.as_ref().unwrap();
    assert_eq!(taxo.len(), taxo_len + 1, "grafted exactly one leaf");
    assert_eq!(ckpt.state.n_tags(), n_tags + 1);
    assert_eq!(
        ckpt.tag_names.last().map(String::as_str),
        Some("never-seen-live-tag")
    );
    // The grafted tag is in the root scope and the artifact still
    // validates end to end.
    assert!(taxo.nodes()[0].tags.contains(&(n_tags as u32)));
    let bytes = ckpt.to_bytes();
    let reloaded = Checkpoint::from_bytes(&bytes).expect("parse");
    ServingModel::new(reloaded).expect("grafted artifact serves");
}

/// ISSUE smoke: ingest-while-serving returns zero non-2xx and the
/// served model's fingerprint advances monotonically.
#[test]
fn ingest_while_serving_smoke() {
    let _g = lock();
    let base = base_checkpoint().clone();
    let model = ServingModel::new(base.clone()).expect("model");
    let n_users = base.state.n_users() as u32;
    let handle = serve_online(
        Arc::new(model),
        base,
        "127.0.0.1:0",
        ServeOptions {
            n_workers: 2,
            ingest: IngestOptions {
                tick: Duration::from_millis(50),
                drift_limit: 4,
                ..ingest_opts()
            },
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let addr = handle.local_addr();

    // Before any ingest: section present, nothing accepted, no cursor.
    let Response {
        status,
        body: health,
        ..
    } = client::get(addr, "/healthz").expect("response");
    assert_eq!(status, 200, "{health}");
    assert!(health.contains("\"ingest\":{"), "{health}");
    assert_eq!(
        u64_at(&health, &["ingest", "accepted"]),
        Some(0),
        "{health}"
    );
    assert!(health.contains("\"cursor\":null"), "{health}");

    // Mixed read + ingest traffic from a few client threads.
    let mut clients = Vec::new();
    for c in 0..3u32 {
        clients.push(std::thread::spawn(move || {
            let mut statuses = Vec::new();
            for i in 0..30u32 {
                if i % 3 == 0 {
                    let body = format!(
                        "{{\"interactions\":[{{\"user\":{},\"item\":{},\"tags\":[\"smoke-{}-{}\"]}}]}}",
                        (c * 7 + i) % n_users,
                        i % 16,
                        c,
                        i
                    );
                    let posted =
                        client::request(addr, "POST", "/ingest", "", &body, Timeouts::default());
                    statuses.push(posted.expect("response").status);
                } else {
                    let target = format!("/recommend?user={}&k=5", (c * 11 + i) % n_users);
                    statuses.push(client::get(addr, &target).expect("response").status);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            statuses
        }));
    }
    let statuses: Vec<u16> = clients
        .into_iter()
        .flat_map(|h| h.join().expect("client"))
        .collect();
    let non_2xx: Vec<u16> = statuses
        .iter()
        .copied()
        .filter(|s| !(200..300).contains(s))
        .collect();
    assert!(non_2xx.is_empty(), "non-2xx during smoke: {non_2xx:?}");

    // The updater catches up: staleness falls to zero, the journal
    // cursor advances, and the served fingerprint is a real artifact.
    let deadline = Instant::now() + Duration::from_secs(10);
    let last: String;
    loop {
        let health = client::get(addr, "/healthz").expect("response").body;
        let accepted = u64_at(&health, &["ingest", "accepted"]).unwrap_or(0);
        let applied = u64_at(&health, &["ingest", "applied"]).unwrap_or(0);
        if accepted > 0 && applied == accepted {
            last = health;
            break;
        }
        assert!(
            Instant::now() < deadline,
            "updater never caught up: {health}"
        );
        std::thread::sleep(Duration::from_millis(40));
    }
    let cursor = u64_at(&last, &["ingest", "cursor"]).expect("cursor reported");
    assert_eq!(
        Some(cursor),
        u64_at(&last, &["ingest", "applied"]),
        "{last}"
    );
    assert!(
        last.contains("\"crc\":"),
        "swapped model has no artifact: {last}"
    );
    handle.shutdown();
}

/// Regression: the request head used to be read in 512-byte chunks and
/// decoded as text together with the body bytes read past it, so a
/// multi-byte character straddling byte 512 of the stream turned a valid
/// `POST /ingest` into a `400`. Only the head is decoded now.
#[test]
fn a_multibyte_tag_straddling_the_first_read_is_accepted_and_folded() {
    let _g = lock();
    let base = base_checkpoint().clone();
    let model = ServingModel::new(base.clone()).expect("model");
    let handle = serve_online(
        Arc::new(model),
        base,
        "127.0.0.1:0",
        ServeOptions {
            n_workers: 1,
            ingest: IngestOptions {
                tick: Duration::from_millis(50),
                ..ingest_opts()
            },
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let addr = handle.local_addr();

    // Pad the tag so its `é` (two bytes) starts at stream byte 511.
    let prefix = r#"{"interactions":[{"user":0,"item":1,"tags":[""#;
    let request = |pad: usize| {
        let body = format!("{prefix}{}é\"]}}]}}", "a".repeat(pad));
        let head = format!(
            "POST /ingest HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        (head.len() + prefix.len() + pad, format!("{head}{body}"))
    };
    let (_, raw) = (0..512)
        .map(request)
        .find(|(at, _)| *at == 511)
        .expect("some padding puts the é at byte 511");
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 202"), "{response}");

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let health = client::get(addr, "/healthz").expect("response").body;
        if u64_at(&health, &["ingest", "applied"]) == Some(1) {
            assert_eq!(u64_at(&health, &["ingest", "cursor"]), Some(1), "{health}");
            break;
        }
        assert!(Instant::now() < deadline, "never folded: {health}");
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown();
}

/// Regression: a never-seen tag name repeated within one interaction's
/// tags list must resolve to a single id — previously the second
/// occurrence was allocated its own id whose row stayed a permanent
/// "tagN" placeholder, grafted into the taxonomy as a phantom leaf.
#[test]
fn repeated_new_tag_name_in_one_interaction_allocates_one_id() {
    let _g = lock();
    let mut ckpt = base_checkpoint().clone();
    let n_tags = ckpt.state.n_tags();
    let taxo_len = ckpt.state.taxonomy.as_ref().expect("taxonomy").len();
    let batch = vec![IngestInteraction {
        user: 0,
        item: 1,
        tags: vec!["dup-live".to_string(), "dup-live".to_string()],
    }];
    let opts = IngestOptions {
        drift_limit: 1000,
        ..ingest_opts()
    };
    let mut drift = 0;
    let report = fold_batch(&mut ckpt, &batch, &opts, &mut drift).expect("fold");
    assert_eq!(report.new_tags, 1, "{report:?}");
    assert_eq!(report.attached, 1, "{report:?}");
    assert_eq!(drift, 1, "one graft, one drift unit");
    assert_eq!(ckpt.state.n_tags(), n_tags + 1);
    assert_eq!(ckpt.tag_names.len(), n_tags + 1, "no placeholder row");
    assert_eq!(ckpt.tag_names.last().map(String::as_str), Some("dup-live"));
    let taxo = ckpt.state.taxonomy.as_ref().unwrap();
    assert_eq!(taxo.len(), taxo_len + 1, "no phantom leaf");
    // item_tags records the tag once, under the single allocated id.
    let fresh: Vec<u32> = ckpt.item_tags[1]
        .iter()
        .copied()
        .filter(|&t| t as usize >= n_tags)
        .collect();
    assert_eq!(fresh, vec![n_tags as u32]);
}

/// Regression (stale model on keep-alive): a connection accepted before
/// an `/admin/reload` must be answered by the model that is current
/// when its request arrives — the worker resolves the slot per request,
/// after the head is read, not at accept/dequeue time.
#[test]
fn connection_open_across_reload_sees_the_new_model() {
    let _g = lock();
    let dir = std::env::temp_dir().join(format!("taxorec-online-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path_a = dir.join("gen-a.taxo");
    let path_b = dir.join("gen-b.taxo");

    let base = base_checkpoint().clone();
    base.save(&path_a).expect("save a");
    // Generation B: the same base plus one folded interaction — a
    // realistic "the updater persisted a newer artifact" successor.
    let mut next = base.clone();
    let mut drift = 0;
    fold_batch(
        &mut next,
        &[IngestInteraction {
            user: 0,
            item: 2,
            tags: vec![],
        }],
        &ingest_opts(),
        &mut drift,
    )
    .expect("fold");
    next.save(&path_b).expect("save b");

    let model = taxorec_serve::load(path_a.to_str().unwrap()).expect("load a");
    let crc_a = model.artifact_info().expect("artifact a").crc;
    let crc_b = Checkpoint::load_file(path_b.to_str().unwrap())
        .expect("load b")
        .artifact
        .expect("artifact b")
        .crc;
    assert_ne!(crc_a, crc_b);

    let handle = serve_with(
        Arc::new(model),
        "127.0.0.1:0",
        ServeOptions {
            n_workers: 2,
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let addr = handle.local_addr();

    // Open a connection and go quiet: a worker dequeues it and blocks
    // reading the head while the reload happens elsewhere.
    let mut held = TcpStream::connect(addr).expect("connect");
    held.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(200));

    let Response { status, body, .. } = client::get(
        addr,
        &format!("/admin/reload?path={}", path_b.to_str().unwrap()),
    )
    .expect("response");
    assert_eq!(status, 200, "{body}");

    // Only now does the held connection send its request. It must see
    // generation B, not the model that was live when it was accepted.
    write!(held, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").expect("late send");
    let mut response = String::new();
    held.read_to_string(&mut response).expect("late read");
    let body = response.split_once("\r\n\r\n").map_or("", |(_, body)| body);
    let crc = u64_at(body, &["shard", "checkpoint", "crc"]).expect("crc in healthz");
    assert_eq!(
        crc, crc_b as u64,
        "held connection was answered by the pre-reload model: {response}"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// One `/ingest` body carrying `batch`.
fn ingest_body(batch: &[IngestInteraction]) -> String {
    let entries: Vec<String> = batch
        .iter()
        .map(|it| {
            let tags: Vec<String> = it.tags.iter().map(|t| format!("\"{t}\"")).collect();
            format!(
                "{{\"user\":{},\"item\":{},\"tags\":[{}]}}",
                it.user,
                it.item,
                tags.join(",")
            )
        })
        .collect();
    format!("{{\"interactions\":[{}]}}", entries.join(","))
}

/// Polls `/healthz` until the served generation's journal cursor is
/// `cursor`, returning that health document.
fn health_at_cursor(addr: std::net::SocketAddr, cursor: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let health = client::get(addr, "/healthz").expect("response").body;
        if u64_at(&health, &["ingest", "cursor"]) == Some(cursor) {
            return health;
        }
        assert!(
            Instant::now() < deadline,
            "never reached cursor {cursor}: {health}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The live CRC: a server ticking every 50 ms through a journal that
/// grows users and items and crosses the drift limit advertises, once
/// drained, exactly the CRC of a whole-journal `fold_batch` replay —
/// and the boot artifact's CRC before its first tick.
#[test]
fn live_crc_equals_the_crc_of_a_whole_journal_replay() {
    let _g = lock();
    let base = Checkpoint::from_bytes(&base_checkpoint().to_bytes()).expect("parse");
    let boot = base.artifact.expect("a loaded checkpoint has an identity");
    let journal = synthetic_journal(&base, 60);
    let opts = IngestOptions {
        tick: Duration::from_millis(50),
        ..ingest_opts()
    };
    let model = ServingModel::new(base.clone()).expect("model");
    let handle = serve_online(
        Arc::new(model),
        base.clone(),
        "127.0.0.1:0",
        ServeOptions {
            n_workers: 2,
            ingest: opts.clone(),
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let addr = handle.local_addr();
    let crc_at = |health: &str| u64_at(health, &["shard", "checkpoint", "crc"]);

    let health = client::get(addr, "/healthz").expect("response").body;
    assert_eq!(crc_at(&health), Some(boot.crc as u64), "{health}");

    // Several bodies, so the journal is folded over several ticks.
    for chunk in journal.chunks(9) {
        let posted = client::request(
            addr,
            "POST",
            "/ingest",
            "",
            &ingest_body(chunk),
            Timeouts::default(),
        )
        .expect("response");
        assert_eq!(posted.status, 202, "{}", posted.body);
        std::thread::sleep(Duration::from_millis(30));
    }
    let health = health_at_cursor(addr, journal.len() as u64);

    let mut replay = base.clone();
    let report = fold_batch(&mut replay, &journal, &opts, &mut 0).expect("replay");
    assert!(report.new_users > 0 && report.new_items > 0, "{report:?}");
    assert!(report.rebuilds >= 1, "{report:?}");
    let bytes = replay.to_bytes();
    let sealed = Checkpoint::from_bytes(&bytes)
        .expect("replay parses")
        .artifact
        .expect("identity");
    assert_eq!(crc_at(&health), Some(sealed.crc as u64), "{health}");
    assert_eq!(
        u64_at(&health, &["shard", "checkpoint", "bytes"]),
        Some(bytes.len() as u64),
        "{health}"
    );
    handle.shutdown();
}

/// A hostile id is dropped by the growth guard (and the reservation
/// never counts it): the cursor still advances past it, the model does
/// not grow, and the server keeps answering.
#[test]
fn a_hostile_user_id_is_dropped_and_the_server_keeps_answering() {
    let _g = lock();
    let base = base_checkpoint().clone();
    let n_users = base.state.n_users() as u64;
    let model = ServingModel::new(base.clone()).expect("model");
    let handle = serve_online(
        Arc::new(model),
        base,
        "127.0.0.1:0",
        ServeOptions {
            n_workers: 2,
            ingest: IngestOptions {
                tick: Duration::from_millis(50),
                ..ingest_opts()
            },
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let addr = handle.local_addr();
    let dropped = taxorec_telemetry::counter("serve.ingest.dropped");
    let dropped_before = dropped.get();

    let body = r#"{"interactions":[{"user":4000000000,"item":0},{"user":1,"item":2}]}"#;
    let posted =
        client::request(addr, "POST", "/ingest", "", body, Timeouts::default()).expect("response");
    assert_eq!(posted.status, 202, "{}", posted.body);
    let health = health_at_cursor(addr, 2);
    assert_eq!(dropped.get(), dropped_before + 1);
    assert_eq!(u64_at(&health, &["users"]), Some(n_users), "{health}");
    let answered = client::get(addr, "/recommend?user=1&k=5").expect("response");
    assert_eq!(answered.status, 200, "{}", answered.body);
    handle.shutdown();
}
