//! Benchmark of the hierarchical retrieval index (`taxorec-retrieval`)
//! against the exhaustive scoring path: per-query p50/p99 latency,
//! recall@10/@50 vs. the exact ground truth, mean candidates scored, and
//! batched throughput — per catalogue scale and per thread count.
//!
//! Each scale plants a clustered catalogue with
//! `taxorec_data::generate_embeddings`, converts the planted tag tree
//! into a `Taxonomy` for taxonomy-guided index construction, builds a
//! `TaxoIndex`, and measures with `taxorec_eval::evaluate_retrieval`
//! (which also verifies recall against the exhaustive ranking per
//! query). Results overwrite `BENCH_retrieval.json`.
//!
//! `--assert-floor` exits non-zero when any row has recall@10 < 0.95 or
//! speedup < 5x — the CI regression gate. `--retrieval beam:B`
//! overrides the measured beam width (default: the index's build-time
//! default). Scales come from `TAXOREC_RETRIEVAL_ITEMS` (comma-
//! separated, default `100000,1000000`); each scale runs 128 queries.

use std::time::Instant;

use taxorec_data::{generate_embeddings, EmbedConfig};
use taxorec_eval::{evaluate_retrieval, RetrievalEval};
use taxorec_retrieval::{IndexConfig, ItemEmbeddings, RetrievalMode, TaxoIndex};
use taxorec_taxonomy::Taxonomy;

/// Queries per scale.
const N_QUERIES: usize = 128;
/// Recall cutoffs reported per row.
const KS: [usize; 2] = [10, 50];
/// Queries per parallel batch in the throughput measurement.
const BATCH_CHUNK: usize = 8;
/// CI floor: minimum recall@10 in beam mode.
const FLOOR_RECALL_AT_10: f64 = 0.95;
/// CI floor: minimum exhaustive-to-routed speedup in beam mode.
const FLOOR_SPEEDUP: f64 = 5.0;

fn env_scales() -> Vec<usize> {
    let raw =
        std::env::var("TAXOREC_RETRIEVAL_ITEMS").unwrap_or_else(|_| "100000,1000000".to_string());
    let scales: Vec<usize> = raw
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&n| n > 0)
        .collect();
    if scales.is_empty() {
        vec![100_000]
    } else {
        scales
    }
}

struct Row {
    n_items: usize,
    threads: usize,
    eval: RetrievalEval,
    batch_qps: f64,
}

/// Batched-throughput measurement: all queries fan out over the worker
/// pool in chunks, each worker running routed searches back to back.
fn batch_qps(index: &TaxoIndex, emb: &taxorec_data::SynthEmbeddings, beam: usize) -> f64 {
    let n = emb.alphas.len();
    let n_chunks = n.div_ceil(BATCH_CHUNK);
    let t0 = Instant::now();
    let checks = taxorec_parallel::par_map("bench.retrieval.batch", n_chunks, |c| {
        let lo = c * BATCH_CHUNK;
        let hi = (lo + BATCH_CHUNK).min(n);
        let mut found = 0usize;
        for q in lo..hi {
            let anchor = &emb.u_ir[q * emb.ambient_ir..(q + 1) * emb.ambient_ir];
            let tag = &emb.u_tg[q * emb.ambient_tg..(q + 1) * emb.ambient_tg];
            let (top, _) = index.search(anchor, Some((tag, emb.alphas[q])), beam, 10, &|_| false);
            found += top.len();
        }
        found
    });
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    assert!(
        checks.iter().sum::<usize>() > 0,
        "searches returned results"
    );
    n as f64 / secs
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let assert_floor = args.iter().any(|a| a == "--assert-floor");
    let mode = match args.iter().position(|a| a == "--retrieval") {
        None => RetrievalMode::Beam(0),
        Some(i) => {
            let raw = args.get(i + 1).map(String::as_str).unwrap_or("");
            RetrievalMode::parse(raw).unwrap_or_else(|e| {
                eprintln!("taxorec-bench retrieval: --retrieval: {e}");
                std::process::exit(2);
            })
        }
    };
    let scales = env_scales();
    let mode_label = match mode {
        RetrievalMode::Beam(0) => "beam:default".to_string(),
        m => m.label(),
    };

    let prev_threads = std::env::var("TAXOREC_THREADS").ok();
    let mut rows: Vec<Row> = Vec::new();
    let mut build_secs: Vec<(usize, f64)> = Vec::new();
    for &n_items in &scales {
        let mut config = EmbedConfig::retrieval_bench(n_items);
        config.n_users = N_QUERIES;
        println!("generating {n_items}-item planted catalogue ({N_QUERIES} queries)…");
        let emb = generate_embeddings(&config);
        let taxonomy = Taxonomy::from_tag_tree(&emb.tag_tree);
        let items = ItemEmbeddings {
            v_ir: &emb.v_ir,
            ambient_ir: emb.ambient_ir,
            v_tg: Some(&emb.v_tg),
            ambient_tg: emb.ambient_tg,
        };
        let t0 = Instant::now();
        let index = TaxoIndex::build(
            &items,
            Some(&taxonomy),
            &emb.item_tags,
            &IndexConfig::default(),
        )
        .expect("index build");
        let built = t0.elapsed().as_secs_f64();
        build_secs.push((n_items, built));
        println!(
            "  index: {} nodes, {} leaves, depth {}, built in {built:.1}s",
            index.n_nodes(),
            index.n_leaves(),
            index.depth()
        );

        for &threads in &[1usize, 4] {
            std::env::set_var("TAXOREC_THREADS", threads.to_string());
            let eval = evaluate_retrieval(
                &index,
                &emb.u_ir,
                emb.ambient_ir,
                Some((&emb.u_tg, emb.ambient_tg, &emb.alphas)),
                mode,
                &KS,
            );
            let beam = match mode {
                RetrievalMode::Exact => 0,
                RetrievalMode::Beam(0) => index.default_beam(),
                RetrievalMode::Beam(b) => b,
            };
            let qps = batch_qps(&index, &emb, beam);
            rows.push(Row {
                n_items,
                threads,
                eval,
                batch_qps: qps,
            });
        }
    }
    match prev_threads {
        Some(v) => std::env::set_var("TAXOREC_THREADS", v),
        None => std::env::remove_var("TAXOREC_THREADS"),
    }

    let mut json = String::with_capacity(2048);
    json.push_str("{\"bin\":\"retrieval\",\"generated_unix_ms\":");
    json.push_str(&taxorec_telemetry::sink::unix_ms().to_string());
    json.push_str(&format!(
        ",\"mode\":\"{mode_label}\",\"queries\":{N_QUERIES},\"builds\":["
    ));
    for (i, (n_items, secs)) in build_secs.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"n_items\":{n_items},\"build_secs\":{secs:.2}}}"
        ));
    }
    json.push_str("],\"results\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let e = &row.eval;
        let recall = |k: usize| {
            e.recall_at
                .iter()
                .find(|&&(rk, _)| rk == k)
                .map(|&(_, r)| r)
                .unwrap_or(0.0)
        };
        json.push_str(&format!(
            "{{\"n_items\":{},\"threads\":{},\"recall_at_10\":{:.4},\"recall_at_50\":{:.4},\
             \"exact_p50_ms\":{:.3},\"exact_p99_ms\":{:.3},\"beam_p50_ms\":{:.3},\
             \"beam_p99_ms\":{:.3},\"speedup\":{:.2},\"mean_candidates\":{:.0},\
             \"batch_qps\":{:.0}}}",
            row.n_items,
            row.threads,
            recall(10),
            recall(50),
            e.exact_p50_ms,
            e.exact_p99_ms,
            e.routed_p50_ms,
            e.routed_p99_ms,
            e.speedup,
            e.mean_candidates,
            row.batch_qps,
        ));
    }
    json.push_str("]}");
    if let Err(e) = std::fs::write("BENCH_retrieval.json", format!("{json}\n")) {
        eprintln!("[taxorec:warn] cannot write BENCH_retrieval.json: {e}");
    }

    println!("retrieval benchmark ({mode_label} mode, {N_QUERIES} queries)");
    for row in &rows {
        let e = &row.eval;
        println!(
            "  items={:>8} threads={} recall@10={:.3} recall@50={:.3} \
             exact p50={:.2}ms beam p50={:.2}ms p99={:.2}ms speedup={:.1}x qps={:.0}",
            row.n_items,
            row.threads,
            e.recall_at[0].1,
            e.recall_at[1].1,
            e.exact_p50_ms,
            e.routed_p50_ms,
            e.routed_p99_ms,
            e.speedup,
            row.batch_qps,
        );
    }

    if assert_floor {
        assert!(
            matches!(mode, RetrievalMode::Beam(_)),
            "--assert-floor gates beam mode; got {}",
            mode.label()
        );
        for row in &rows {
            let recall10 = row.eval.recall_at[0].1;
            assert!(
                recall10 >= FLOOR_RECALL_AT_10,
                "recall@10 floor broken at {} items, {} threads: {recall10:.4} < {FLOOR_RECALL_AT_10}",
                row.n_items,
                row.threads
            );
            assert!(
                row.eval.speedup >= FLOOR_SPEEDUP,
                "speedup floor broken at {} items, {} threads: {:.2}x < {FLOOR_SPEEDUP}x",
                row.n_items,
                row.threads,
                row.eval.speedup
            );
        }
        println!(
            "floor assertion passed: recall@10 >= {FLOOR_RECALL_AT_10}, speedup >= {FLOOR_SPEEDUP}x on every row"
        );
    }
}
