//! Per-layer probes: each crate's public functions called directly from
//! outside, on fixed fixtures, a few seconds in total. They run in every
//! traced run, after the traced workload, and give the per-layer metrics
//! that no workload's trace can see from outside the server.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use taxorec_autodiff::Matrix;
use taxorec_core::incremental::{apply_interactions, IncrementalConfig, Interaction};
use taxorec_core::{FitControl, GraphMatrices, TaxoRec, TaxoRecConfig};
use taxorec_data::{generate, select_top_k, Preset, Scale, SynthConfig};
use taxorec_geometry::batch::{fused_scores_block, BlockCache, TagChannel};
use taxorec_retrieval::{IndexConfig, ItemEmbeddings, TaxoIndex};
use taxorec_serve::router::{route_with, RouterOptions};
use taxorec_serve::{
    fold_batch, parse_ingest_body, serve_with, Checkpoint, LruCache, Ranking, ServeOptions,
    ServingModel,
};
use taxorec_taxonomy::{attach_tag, construct_taxonomy};

use crate::fixtures::{
    construct_config, embeddings, ingest_checkpoint, serve_checkpoint, train_fixture,
    FixtureCounts, INGEST_ITEMS, INGEST_USERS, RETRIEVAL_ITEMS, RETRIEVAL_USERS, SERVE_ITEMS,
    SERVE_USERS,
};
use crate::harness::nproc;
use crate::http::Client;
use crate::stats::median;
use crate::streams::{journal, render_body, write_stream};
use crate::workloads::ingest::{ingest_options, write_plan};

type Layers = BTreeMap<&'static str, f64>;

/// Milliseconds `f` takes, with its result.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = std::hint::black_box(f());
    (r, t0.elapsed().as_secs_f64() * 1e3)
}

/// Median milliseconds of `reps` runs of `f`.
fn median_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    median(&(0..reps).map(|_| timed(&mut f).1).collect::<Vec<_>>())
}

/// Runs every probe.
pub fn run_all() -> Result<Layers, String> {
    let mut l = Layers::new();
    let serve_ckpt = serve_checkpoint(SERVE_ITEMS, SERVE_USERS);
    geometry(&mut l, &serve_ckpt);
    serving(&mut l, serve_ckpt)?;
    training(&mut l);
    let ingest_ckpt = ingest_checkpoint(INGEST_ITEMS, INGEST_USERS);
    taxonomy(&mut l, &ingest_ckpt)?;
    online(&mut l, &ingest_ckpt)?;
    drop(ingest_ckpt);
    retrieval(&mut l)?;
    Ok(l)
}

/// Fused two-channel scoring and cache construction over the serving
/// catalogue. Bytes are computed, not measured: every item row of both
/// channels is read once per anchor.
fn geometry(l: &mut Layers, ckpt: &Checkpoint) {
    let s = &ckpt.state;
    let n = s.n_items();
    l.insert(
        "geometry.blockcache_build_ms",
        median_ms(5, || BlockCache::build(s.v_ir.data(), s.v_ir.cols())),
    );
    let ir = BlockCache::build(s.v_ir.data(), s.v_ir.cols());
    let tg = BlockCache::build(s.v_tg.data(), s.v_tg.cols());
    let mut scores = vec![0.0; n];
    let mut scratch = vec![0.0; n];
    let per_anchor_ms = median(
        &(0..64)
            .map(|u| {
                timed(|| {
                    fused_scores_block(
                        &ir,
                        s.u_ir.row(u),
                        Some(TagChannel {
                            cache: &tg,
                            anchor: s.u_tg.row(u),
                            alpha: s.alphas[u],
                        }),
                        0,
                        n,
                        &mut scratch,
                        &mut scores,
                    );
                    scores[n / 2]
                })
                .1
            })
            .collect::<Vec<_>>(),
    );
    let bytes = (n * (s.v_ir.cols() + s.v_tg.cols()) * 8) as f64;
    l.insert(
        "geometry.fused_scores.ns_per_item",
        per_anchor_ms * 1e6 / n as f64,
    );
    l.insert(
        "geometry.fused_scores.gb_per_s",
        bytes / (per_anchor_ms * 1e-3) / 1e9,
    );
    l.insert(
        "data.top_k_us",
        median_ms(32, || select_top_k(&scores, 10, |_| false)) * 1e3,
    );
}

/// The query engine, its cache, the artifact round trip, and the router
/// hop, all on the serving fixture.
fn serving(l: &mut Layers, ckpt: Checkpoint) -> Result<(), String> {
    let (bytes, to_bytes_ms) = timed(|| ckpt.to_bytes());
    drop(ckpt);
    l.insert("serve.checkpoint.to_bytes_ms", to_bytes_ms);
    l.insert(
        "serve.checkpoint.from_bytes_ms",
        median_ms(3, || {
            Checkpoint::from_bytes(&bytes).map(|c| c.state.n_items())
        }),
    );

    // Artifact bytes → first response over HTTP.
    let load_start = Instant::now();
    let loaded = Checkpoint::from_bytes(&bytes).map_err(|e| e.to_string())?;
    let model = Arc::new(ServingModel::new(loaded).map_err(|e| e.to_string())?);
    let handle = serve_with(Arc::clone(&model), "127.0.0.1:0", ServeOptions::default())
        .map_err(|e| format!("probe server: {e}"))?;
    let mut body = Vec::new();
    let mut client = Client::new(handle.local_addr());
    let first = client.get("/recommend?user=0&k=10", &mut body);
    if !matches!(&first, Ok(r) if r.status == 200) {
        return Err(format!("probe server's first response: {first:?}"));
    }
    l.insert(
        "serve.checkpoint.load_to_first_response_ms",
        load_start.elapsed().as_secs_f64() * 1e3,
    );

    // Direct calls: misses on fresh users, then hits on the same ones.
    let users: Vec<u32> = (100..164).collect();
    let miss: Vec<f64> = users
        .iter()
        .map(|&u| timed(|| model.recommend(u, 10).map(|r| r.len())).1 * 1e3)
        .collect();
    let hit: Vec<f64> = (0..16)
        .flat_map(|_| users.iter())
        .map(|&u| timed(|| model.recommend(u, 10).map(|r| r.len())).1 * 1e3)
        .collect();
    l.insert("serve.model.recommend_miss_us", median(&miss));
    l.insert("serve.model.recommend_hit_us", median(&hit));

    // The response cache alone, at the serving model's capacity.
    const OPS: u32 = 200_000;
    let value: Ranking = Arc::new(vec![(0, 0.0); 10]);
    let mut lru: LruCache<(u32, u64), Ranking> = LruCache::new(4096);
    let (_, put_ms) = timed(|| {
        for i in 0..OPS {
            lru.put((i, 10), Arc::clone(&value));
        }
    });
    let (_, get_ms) = timed(|| {
        let mut found = 0u32;
        for i in 0..OPS {
            found += u32::from(lru.get(&(OPS - 1 - i % 4096, 10)).is_some());
        }
        found
    });
    l.insert("serve.lru.put_ns", put_ms * 1e6 / f64::from(OPS));
    l.insert("serve.lru.get_ns", get_ms * 1e6 / f64::from(OPS));

    // The same cached requests directly and through a one-shard router.
    let router = route_with(
        vec![handle.local_addr()],
        "127.0.0.1:0",
        RouterOptions::default(),
    )
    .map_err(|e| format!("probe router: {e}"))?;
    let mut via = Client::new(router.local_addr());
    // The router routes once its prober has seen the shard healthy.
    let ready_by = Instant::now() + std::time::Duration::from_secs(5);
    while !matches!(via.get("/recommend?user=100&k=10", &mut body), Ok(r) if r.status == 200) {
        if Instant::now() > ready_by {
            return Err("probe router never became ready".into());
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let mut latency_us = |client: &mut Client| -> Result<f64, String> {
        let mut samples = Vec::with_capacity(1024);
        for i in 0..1024u32 {
            let target = format!("/recommend?user={}&k=10", users[i as usize % users.len()]);
            let (reply, ms) = timed(|| client.get(&target, &mut body));
            if !matches!(&reply, Ok(r) if r.status == 200) {
                return Err(format!("router probe request failed: {reply:?}"));
            }
            samples.push(ms * 1e3);
        }
        Ok(median(&samples))
    };
    let direct = latency_us(&mut client)?;
    let routed = latency_us(&mut via)?;
    l.insert("serve.router.hop_us", routed - direct);
    router.shutdown();
    handle.shutdown();
    Ok(())
}

/// The training-side layers: dataset generation, the propagation
/// product, evaluation, and what the worker pool buys a fit.
fn training(l: &mut Layers) {
    l.insert(
        "data.generate_ms",
        median_ms(5, || {
            generate(&SynthConfig::preset(Preset::Yelp, Scale::Bench)).n_items
        }),
    );
    let fx = train_fixture();
    let graph = GraphMatrices::build(&fx.dataset, &fx.split);
    let dense = Matrix::full(
        graph.propagate.cols(),
        TaxoRecConfig::default().dim_ir + 1,
        0.5,
    );
    l.insert(
        "autodiff.csr_matmul_ms",
        median_ms(32, || graph.propagate.matmul(&dense).rows()),
    );

    // A short fit (past the taxonomy warm-up) at one thread and at the
    // machine's width. `TAXOREC_THREADS` is re-read by every pool
    // launch; no other thread of the harness runs during this probe.
    let short_fit = |threads: usize| {
        std::env::set_var("TAXOREC_THREADS", threads.to_string());
        let mut model = TaxoRec::new(TaxoRecConfig {
            epochs: 12,
            ..TaxoRecConfig::default()
        });
        let (_, ms) = timed(|| model.fit_controlled(&fx.dataset, &fx.split, FitControl::default()));
        (model, ms)
    };
    let (_, single_ms) = short_fit(1);
    let (model, wide_ms) = short_fit(nproc());
    l.insert(
        "parallel.pool_width",
        taxorec_parallel::thread_count() as f64,
    );
    l.insert("parallel.fit_speedup", single_ms / wide_ms);
    let (eval, eval_ms) = timed(|| taxorec_eval::evaluate(&model, &fx.split, &[10]));
    l.insert(
        "eval.evaluate_users_per_s",
        eval.users.len() as f64 / (eval_ms * 1e-3),
    );
}

/// Algorithm 1 over the ingest fixture's tags (what a drift rebuild
/// runs) and the placement of never-seen tags.
fn taxonomy(l: &mut Layers, ckpt: &Checkpoint) -> Result<(), String> {
    let s = &ckpt.state;
    let dim = s.config.dim_tag;
    l.insert(
        "taxonomy.construct_ms",
        median_ms(5, || {
            construct_taxonomy(
                s.t_p.data(),
                dim,
                s.n_tags(),
                &ckpt.item_tags,
                &construct_config(&s.config),
            )
            .len()
        }),
    );
    // Never-seen tags placed next to existing ones: row `n + i` is row
    // `i` nudged inward.
    const FRESH: usize = 32;
    let mut taxo = s.taxonomy.clone().ok_or("ingest fixture has no taxonomy")?;
    let mut emb = s.t_p.data().to_vec();
    for i in 0..FRESH {
        let row: Vec<f64> = s.t_p.row(i).iter().map(|x| x * 0.97).collect();
        emb.extend_from_slice(&row);
    }
    let n = s.n_tags() as u32;
    let (attached, ms) = timed(|| {
        (0..FRESH as u32)
            .filter(|&i| attach_tag(&mut taxo, n + i, &emb, dim).is_ok())
            .count()
    });
    if attached != FRESH {
        return Err(format!("attach probe placed {attached} of {FRESH} tags"));
    }
    l.insert("taxonomy.attach_us", ms * 1e3 / FRESH as f64);
    Ok(())
}

/// The ingest path without the server around it: body parsing, the fold,
/// and the incremental step inside the fold.
fn online(l: &mut Layers, base: &Checkpoint) -> Result<(), String> {
    let plan = write_plan(4, &FixtureCounts::of_checkpoint(base, 0));
    let stream = write_stream(&plan);
    let body = render_body(&stream[0]);
    let mut parsed = 0;
    l.insert(
        "serve.online.parse_us_per_body",
        median_ms(16, || {
            parsed = parse_ingest_body(&body).map_or(0, |b| b.len());
        }) * 1e3,
    );
    if parsed != plan.per_body {
        return Err(format!(
            "parse probe read {parsed} of {} interactions",
            plan.per_body
        ));
    }

    let journal = journal(&stream);
    let mut ckpt = base.clone();
    let mut drift = 0;
    let (report, fold_ms) =
        timed(|| fold_batch(&mut ckpt, &journal, &ingest_options(), &mut drift));
    let report = report.map_err(|e| format!("fold probe: {e}"))?;
    if report.applied != journal.len() || report.dropped != 0 {
        return Err(format!("fold probe: {report:?}"));
    }
    l.insert(
        "serve.online.fold_us_per_interaction",
        fold_ms * 1e3 / journal.len() as f64,
    );

    // The incremental RSGD step alone, on interactions that grow nothing.
    let known: Vec<Interaction> = (0..2000u32)
        .map(|i| Interaction {
            user: i * 7 % plan.base_users as u32,
            item: i * 13 % plan.base_items as u32,
            tags: vec![i % plan.base_tags as u32],
        })
        .collect();
    let mut state = base.state.clone();
    let cfg = IncrementalConfig {
        seed: state.config.seed,
        ..IncrementalConfig::default()
    };
    let (applied, apply_ms) = timed(|| apply_interactions(&mut state, 0, &known, &cfg));
    applied.map_err(|e| format!("incremental probe: {e}"))?;
    l.insert(
        "core.incremental.apply_us_per_interaction",
        apply_ms * 1e3 / known.len() as f64,
    );
    Ok(())
}

/// Index build, search, reload and patching on a 100k-item catalogue.
fn retrieval(l: &mut Layers) -> Result<(), String> {
    let emb = embeddings(RETRIEVAL_ITEMS, RETRIEVAL_USERS);
    let taxonomy = taxorec_taxonomy::Taxonomy::from_tag_tree(&emb.tag_tree);
    let items = ItemEmbeddings {
        v_ir: &emb.v_ir,
        ambient_ir: emb.ambient_ir,
        v_tg: Some(&emb.v_tg),
        ambient_tg: emb.ambient_tg,
    };
    let (index, build_ms) = timed(|| {
        TaxoIndex::build(
            &items,
            Some(&taxonomy),
            &emb.item_tags,
            &IndexConfig::default(),
        )
    });
    let index = index?;
    l.insert("retrieval.build_s", build_ms * 1e-3);

    let anchor = |q: usize| {
        (
            &emb.u_ir[q * emb.ambient_ir..(q + 1) * emb.ambient_ir],
            Some((
                &emb.u_tg[q * emb.ambient_tg..(q + 1) * emb.ambient_tg],
                emb.alphas[q],
            )),
        )
    };
    let (mut beam_us, mut exact_us) = (Vec::new(), Vec::new());
    let (mut candidates, mut overlap) = (0usize, 0usize);
    const EXACT_QUERIES: usize = 32;
    for q in 0..RETRIEVAL_USERS {
        let (ir, tag) = anchor(q);
        let ((top, stats), ms) = timed(|| index.search(ir, tag, 0, 10, &|_| false));
        beam_us.push(ms * 1e3);
        candidates += stats.candidates;
        if q < EXACT_QUERIES {
            let (exact, ms) = timed(|| index.search_exact(ir, tag, 10, &|_| false));
            exact_us.push(ms * 1e3);
            overlap += crate::harness::overlap(&top, &exact);
        }
    }
    l.insert("retrieval.search_us_p50", median(&beam_us));
    l.insert("retrieval.search_exact_us_p50", median(&exact_us));
    l.insert(
        "retrieval.candidates_share",
        candidates as f64 / (RETRIEVAL_USERS * RETRIEVAL_ITEMS) as f64,
    );
    l.insert(
        "retrieval.recall_at_10",
        overlap as f64 / (EXACT_QUERIES * 10) as f64,
    );

    let parts = index.parts().clone();
    l.insert(
        "retrieval.from_parts_ms",
        median_ms(3, || {
            TaxoIndex::from_parts(parts.clone(), &items).map(|i| i.n_items())
        }),
    );

    // Patch in items the index has never seen, one per call as the fold
    // does: the catalogue's first rows again, appended as new ones.
    const FRESH: usize = 16;
    let mut v_ir = emb.v_ir.clone();
    let mut v_tg = emb.v_tg.clone();
    v_ir.extend_from_within(..FRESH * emb.ambient_ir);
    v_tg.extend_from_within(..FRESH * emb.ambient_tg);
    let mut patched = parts;
    let (appended, ms) = timed(|| -> Result<usize, String> {
        let mut appended = 0;
        for n in RETRIEVAL_ITEMS + 1..=RETRIEVAL_ITEMS + FRESH {
            appended += patched.append_items(&ItemEmbeddings {
                v_ir: &v_ir[..n * emb.ambient_ir],
                ambient_ir: emb.ambient_ir,
                v_tg: Some(&v_tg[..n * emb.ambient_tg]),
                ambient_tg: emb.ambient_tg,
            })?;
        }
        Ok(appended)
    });
    if appended? != FRESH {
        return Err("append probe did not append every fresh item".into());
    }
    l.insert("retrieval.append_items_us", ms * 1e3 / FRESH as f64);
    Ok(())
}
