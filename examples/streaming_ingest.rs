//! Streaming ingestion: train a tiny model, serve it with the online
//! updater enabled, stream interaction batches — including never-seen
//! users, items, and tags — into `POST /ingest`, and watch the served
//! model generation advance without a restart.
//!
//! ```text
//! cargo run --release --example streaming_ingest
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use taxorec::core::{TaxoRec, TaxoRecConfig};
use taxorec::data::{generate_preset, Preset, Recommender, Scale, Split};
use taxorec::serve::{client, serve_online, Checkpoint, IngestOptions, ServeOptions, ServingModel};
use taxorec::telemetry::json;

/// The ingest counters off `/healthz` as `name=value` (`-` for a null
/// cursor), and whether the updater has caught up: nothing stale and
/// the served generation stamped with a journal cursor.
fn ingest_card(healthz: &str) -> (String, bool) {
    let health = json::parse(healthz).expect("/healthz answers JSON");
    let field = |name| health.get("ingest")?.get(name)?.as_u64();
    let card = ["accepted", "applied", "staleness", "cursor"]
        .map(|name| {
            format!(
                "{name}={}",
                field(name).map_or("-".into(), |n| n.to_string())
            )
        })
        .join(" ");
    (
        card,
        field("staleness") == Some(0) && field("cursor").is_some(),
    )
}

fn main() {
    // 1. Train a small model and seal it into a checkpoint — the same
    //    artifact `taxorec-serve train-demo` would write to disk.
    let dataset = generate_preset(Preset::Ciao, Scale::Tiny);
    let split = Split::standard(&dataset);
    let mut model = TaxoRec::new(TaxoRecConfig {
        epochs: 10,
        ..TaxoRecConfig::fast_test()
    });
    model.fit(&dataset, &split);
    let base = Checkpoint::from_model(&model)
        .with_dataset(&dataset)
        .with_seen_items(&split.train);
    println!(
        "trained: {} users, {} items, {} tags",
        base.state.n_users(),
        base.state.n_items(),
        base.state.n_tags()
    );

    // 2. Serve with ingestion enabled: `serve_online` keeps the base
    //    checkpoint for the updater thread, which folds journaled
    //    interactions between ticks and swaps fresh generations into
    //    the serving slot (same path as `/admin/reload`).
    let serving = ServingModel::new(base.clone()).expect("serving model");
    let handle = serve_online(
        Arc::new(serving),
        base,
        "127.0.0.1:0",
        ServeOptions {
            ingest: IngestOptions {
                tick: Duration::from_millis(100),
                drift_limit: 8,
                ..IngestOptions::default()
            },
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let addr = handle.local_addr();
    println!("serving on http://{addr} (tick 100ms)");
    let healthz = || client::get(addr, "/healthz").expect("healthz").body;
    println!("before ingest: {}", ingest_card(&healthz()).0);

    // 3. Stream batches. Tag names are resolved by name, so never-seen
    //    tags ("flash-sale", …) are allocated fresh ids, placed via the
    //    Einstein midpoint of their co-occurring items, and grafted
    //    onto the live taxonomy as leaves.
    let n_users = 64u32;
    for batch in 0..6 {
        let mut interactions = Vec::new();
        for j in 0..8 {
            let user = (batch * 17 + j * 5) % (n_users + 8); // some never-seen
            let item = (batch * 13 + j * 3) % 48;
            let tag = if j == 0 {
                format!("\"flash-sale-{batch}\"")
            } else {
                format!("\"live-{}\"", (batch + j) % 4)
            };
            interactions.push(format!(
                "{{\"user\":{user},\"item\":{item},\"tags\":[{tag}]}}"
            ));
        }
        let body = format!("{{\"interactions\":[{}]}}", interactions.join(","));
        let timeouts = client::Timeouts::default();
        let reply = client::request(addr, "POST", "/ingest", "", &body, timeouts).expect("ingest");
        println!("batch {batch}: {} {}", reply.status, reply.body.trim());
        std::thread::sleep(Duration::from_millis(60));
    }

    // 4. Wait for the updater to drain the journal, then inspect the
    //    health card: `applied` catches `accepted`, `staleness` returns
    //    to zero, and `cursor` records how far into the journal the
    //    served generation has folded.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (card, caught_up) = ingest_card(&healthz());
        if caught_up {
            println!("after ingest:  {card}");
            break;
        }
        if Instant::now() > deadline {
            println!("updater did not catch up in time: {card}");
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    // 5. The swapped generation serves immediately — recommendations
    //    for a user that did not exist before the stream started.
    let reply =
        client::get(addr, &format!("/recommend?user={}&k=5", n_users + 2)).expect("recommend");
    println!("never-seen user {}: {}", n_users + 2, reply.body.trim());

    handle.shutdown();
    println!("done");
}
