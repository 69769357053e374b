//! `ingest_mixed`: the same model slot, response cache and retrieval
//! index used for writes beside reads. One closed-loop reader (the
//! operation) runs against `serve_online` in beam mode while one writer
//! posts fixed-size `/ingest` bodies on a fixed schedule: swaps empty the
//! cache, folds grow rows, grafts and drift rebuilds reshape the taxonomy,
//! `append_items` / `from_parts` patch the index under read load.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use taxorec_retrieval::{ItemEmbeddings, TaxoIndex};
use taxorec_serve::{
    fold_batch, serve_online, Checkpoint, IngestOptions, RetrievalMode, ServeOptions, ServingModel,
};

use crate::fixtures::{ingest_checkpoint, FixtureCounts, INGEST_ITEMS, INGEST_USERS};
use crate::harness::{
    get_text, merge_logs, phase_length, recommend_loop, sleep_until, warm_up, window_count,
    window_width, Outcome, PhaseMeter, RunConfig, Scrape, Served,
};
use crate::http::{json_u64, Client};
use crate::stats::median;
use crate::streams::{cold_keys, journal, render_body, write_stream, WritePlan, COLD_K_BASE};
use crate::trace::{SpanLog, ROOT};

/// One `/ingest` body every this long: four per default update tick.
const WRITE_PERIOD: Duration = Duration::from_millis(250);
/// Interactions per body: 2000 a second, about half of the 4096 one tick
/// may fold.
const PER_BODY: usize = 500;
/// Never-seen tag names per body: 12 a second against the default drift
/// limit of 64 is a taxonomy + index rebuild every 5.3 s — three in a
/// 20 s run.
const NEW_TAGS_PER_BODY: usize = 3;
/// Never-seen items per body (each is patched into the index).
const NEW_ITEMS_PER_BODY: usize = 10;
/// Never-seen users per body (each grows the user matrices).
const NEW_USERS_PER_BODY: usize = 10;
/// Untimed reads through the fresh server.
const WARMUP_READS: u32 = 256;
/// How long after the last write the journal may take to drain.
const DRAIN_DEADLINE: Duration = Duration::from_secs(15);
/// `/healthz` polling period of the traced run's visibility probe.
const POLL_PERIOD: Duration = Duration::from_millis(25);
/// Users whose beam ranking is compared with the exact one at the end.
const RECALL_USERS: usize = 200;

/// What `serve_online` runs the updater with: the defaults, enabled.
pub fn ingest_options() -> IngestOptions {
    IngestOptions {
        enabled: true,
        ..IngestOptions::default()
    }
}

/// `bodies` bodies of the workload's shape over a base model.
pub fn write_plan(bodies: usize, base: &FixtureCounts) -> WritePlan {
    WritePlan {
        bodies,
        per_body: PER_BODY,
        new_tags_per_body: NEW_TAGS_PER_BODY,
        new_items_per_body: NEW_ITEMS_PER_BODY,
        new_users_per_body: NEW_USERS_PER_BODY,
        base_users: base.users,
        base_items: base.items,
        base_tags: base.tags,
    }
}

fn set_up() -> Result<Served, String> {
    let ckpt = ingest_checkpoint(INGEST_ITEMS, INGEST_USERS);
    let bytes = ckpt.to_bytes();
    let counts = FixtureCounts::of_checkpoint(&ckpt, bytes.len());
    drop(ckpt);
    let base = Checkpoint::from_bytes(&bytes).map_err(|e| e.to_string())?;
    let model = ServingModel::new(base.clone())
        .and_then(|m| m.with_retrieval(RetrievalMode::Beam(0)))
        .map_err(|e| e.to_string())?;
    let handle = serve_online(
        Arc::new(model),
        base,
        "127.0.0.1:0",
        ServeOptions::default(),
    )
    .map_err(|e| format!("server start: {e}"))?;
    warm_up(
        handle.local_addr(),
        (0..WARMUP_READS).map(|u| (u, COLD_K_BASE - 1)),
    )?;
    Ok(Served {
        handle,
        bytes,
        counts,
    })
}

/// What the writer thread did.
#[derive(Default)]
struct WriterLog {
    posted_bodies: u64,
    refused: u64,
    /// Due instant → acknowledged, per body, ms.
    ack_ms: Vec<f64>,
    /// `(acknowledged at, interactions posted so far)` per body.
    acked: Vec<(Instant, u64)>,
    lateness_ms_max: f64,
    spans: SpanLog,
}

fn writer(
    cfg: &RunConfig,
    addr: SocketAddr,
    bodies: &[String],
    per_body: u64,
    start: Instant,
) -> WriterLog {
    let mut log = WriterLog {
        spans: SpanLog::new(cfg.trace, 100),
        ..WriterLog::default()
    };
    let mut client = Client::new(addr);
    let mut response = Vec::new();
    for (j, body) in bodies.iter().enumerate() {
        let due = start + WRITE_PERIOD * j as u32;
        sleep_until(due);
        let began = Instant::now();
        log.lateness_ms_max = log.lateness_ms_max.max((began - due).as_secs_f64() * 1e3);
        match client.post("/ingest", body, &mut response) {
            Ok(reply) if reply.status == 202 => {
                let done = Instant::now();
                log.posted_bodies += 1;
                log.ack_ms.push((done - due).as_secs_f64() * 1e3);
                log.acked.push((done, log.posted_bodies * per_body));
                log.spans
                    .push("ingest.write", cfg.ns(began), cfg.ns(done), ROOT, j as u64);
            }
            Ok(_) | Err(_) => log.refused += 1,
        }
    }
    log
}

/// `(seen at, journal cursor of the live model, staleness)` readings.
fn poller(addr: SocketAddr, stop: &AtomicBool) -> Vec<(Instant, u64, u64)> {
    let mut seen = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        if let Ok(health) = get_text(addr, "/healthz") {
            seen.push((
                Instant::now(),
                json_u64(&health, "cursor").unwrap_or(0),
                json_u64(&health, "staleness").unwrap_or(0),
            ));
        }
        std::thread::sleep(POLL_PERIOD);
    }
    seen
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let served = set_up()?;
    let addr = served.handle.local_addr();
    let phase = phase_length(cfg);
    let plan = write_plan(
        (phase.as_millis() / WRITE_PERIOD.as_millis()) as usize,
        &served.counts,
    );
    let stream = write_stream(&plan);
    let bodies: Vec<String> = stream.iter().map(|b| render_body(b)).collect();
    let reads = cold_keys(cfg.seed, INGEST_USERS);

    let before = Scrape::take(addr)?;
    let meter = PhaseMeter::start(window_count(cfg), window_width(cfg))?;
    let phase_start = meter.started();
    let setup_s = cfg.setup_s(phase_start);
    let deadline = phase_start + phase;
    let stop_poller = AtomicBool::new(false);
    let (read_log, write_log, polls) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut keys = reads.iter().copied();
            recommend_loop(cfg, addr, 0, &mut keys, phase_start, deadline)
        });
        let writer = scope.spawn(|| writer(cfg, addr, &bodies, PER_BODY as u64, phase_start));
        // Watching visibility costs requests of its own, so only the
        // traced run does it.
        let poller = cfg
            .trace
            .then(|| scope.spawn(|| poller(addr, &stop_poller)));
        let read_log = reader.join().expect("reader thread panicked");
        let write_log = writer.join().expect("writer thread panicked");
        stop_poller.store(true, Ordering::SeqCst);
        let polls = poller.map(|p| p.join().expect("poller thread panicked"));
        (read_log, write_log, polls)
    });
    let usage = meter.stop()?;
    let totals = merge_logs(cfg, vec![read_log]);
    let posted = write_log.posted_bodies * PER_BODY as u64;

    // Drain: the journal must empty and the live model must reach the
    // last posted interaction.
    let drain_start = Instant::now();
    let mut health = get_text(addr, "/healthz")?;
    while (json_u64(&health, "staleness") != Some(0) || json_u64(&health, "cursor") != Some(posted))
        && drain_start.elapsed() < DRAIN_DEADLINE
    {
        std::thread::sleep(Duration::from_millis(20));
        health = get_text(addr, "/healthz")?;
    }
    let drain_ms = drain_start.elapsed().as_secs_f64() * 1e3;
    let after = Scrape::take(addr)?;
    let mut out = Outcome::of_reads(
        setup_s,
        &totals,
        &usage,
        format!(
            "1 reader thread, one request in flight (the operation); 1 writer thread posting {} \
             bodies of {PER_BODY} interactions every {} ms; fixture {}",
            bodies.len(),
            WRITE_PERIOD.as_millis(),
            served.counts.json()
        ),
    );
    out.attempted += bodies.len() as u64;
    out.failed += write_log.refused;
    out.check(totals.failed == 0, || {
        format!("{} reads did not answer 200", totals.failed)
    });
    out.check(write_log.refused == 0, || {
        format!("{} writes did not answer 202", write_log.refused)
    });
    out.check(json_u64(&health, "staleness") == Some(0), || {
        format!("staleness did not reach 0 within {DRAIN_DEADLINE:?}: {health}")
    });
    out.check(json_u64(&health, "cursor") == Some(posted), || {
        format!("/healthz cursor differs from the {posted} interactions posted: {health}")
    });
    let hit_share = after.cache_hit_share(&before);
    out.check(hit_share <= 0.05, || {
        format!("read cache hit share {hit_share:.4} exceeds 0.05")
    });
    let rebuilds = after.delta(&before, "taxorec_serve_ingest_rebuilds_total");
    let expected_rebuilds =
        (plan.bodies * plan.new_tags_per_body) as u64 / ingest_options().drift_limit;
    out.check(rebuilds == expected_rebuilds as f64, || {
        format!("{rebuilds} drift rebuilds, expected {expected_rebuilds}")
    });

    // The live generation must be exactly what one whole-journal replay
    // from the base artifact produces.
    let live_crc = json_u64(&health, "crc");
    drop(served.handle);
    let journal = journal(stream.iter().take(write_log.posted_bodies as usize));
    let mut replayed = Checkpoint::from_bytes(&served.bytes).map_err(|e| e.to_string())?;
    let mut drift = 0;
    fold_batch(&mut replayed, &journal, &ingest_options(), &mut drift)
        .map_err(|e| format!("replay: {e}"))?;
    let replay_bytes = replayed.to_bytes();
    let tail: [u8; 4] = replay_bytes[replay_bytes.len() - 4..]
        .try_into()
        .expect("four CRC bytes");
    let replay_crc = u64::from(u32::from_le_bytes(tail));
    out.check(live_crc == Some(replay_crc), || {
        format!("live artifact CRC {live_crc:?} differs from the journal replay's {replay_crc}")
    });
    out.end_to_end.recall_at_10 = beam_recall(&replayed)?;

    out.report.push(format!(
        "posted {posted} interactions in {} bodies; {} swaps, {rebuilds} drift rebuilds; drained \
         in {drain_ms:.1} ms; live CRC {live_crc:?} = replay CRC {replay_crc}; read cache hit \
         share {hit_share:.4}",
        write_log.posted_bodies,
        after.delta(&before, "taxorec_serve_ingest_swaps_total"),
    ));

    if cfg.trace {
        out.trace_reads(&totals, &before, &after);
        let polls = polls.unwrap_or_default();
        // A write is visible once the live model's cursor covers it.
        let visible_ms: Vec<f64> = write_log
            .acked
            .iter()
            .filter_map(|&(acked, upto)| {
                polls
                    .iter()
                    .find(|&&(at, cursor, _)| at >= acked && cursor >= upto)
                    .map(|&(at, _, _)| (at - acked).as_secs_f64() * 1e3)
            })
            .collect();
        let l = &mut out.layers;
        l.insert("serve.online.write_ack_ms_p50", median(&write_log.ack_ms));
        l.insert("serve.online.visible_ms_p50", median(&visible_ms));
        l.insert(
            "serve.online.swap_count",
            after.delta(&before, "taxorec_serve_ingest_swaps_total"),
        );
        l.insert("serve.online.rebuild_count", rebuilds);
        l.insert(
            "serve.online.staleness_max",
            polls.iter().map(|p| p.2).max().unwrap_or(0) as f64,
        );
        l.insert("serve.online.drain_ms", drain_ms);
        l.insert("bench.writer_lateness_ms_max", write_log.lateness_ms_max);
        usage.layers(&mut out.layers);
        out.spans = totals.spans;
        out.spans.push(write_log.spans);
    }
    Ok(out)
}

/// Mean overlap of the default-beam top-10 with the exact top-10 over
/// the first [`RECALL_USERS`] users of the final generation.
fn beam_recall(ckpt: &Checkpoint) -> Result<f64, String> {
    let state = &ckpt.state;
    let parts = ckpt.index.clone().ok_or("final generation has no index")?;
    let items = ItemEmbeddings {
        v_ir: state.v_ir.data(),
        ambient_ir: state.v_ir.cols(),
        v_tg: Some(state.v_tg.data()),
        ambient_tg: state.v_tg.cols(),
    };
    let index = TaxoIndex::from_parts(parts, &items)?;
    let mut overlap = 0usize;
    for u in 0..RECALL_USERS {
        let tag = Some((
            state.u_tg.row(u),
            state.config.tag_channel_gain * state.alphas[u],
        ));
        let exact = index.search_exact(state.u_ir.row(u), tag, 10, &|_| false);
        let (beam, _) = index.search(state.u_ir.row(u), tag, 0, 10, &|_| false);
        overlap += crate::harness::overlap(&beam, &exact);
    }
    Ok(overlap as f64 / (RECALL_USERS * 10) as f64)
}
