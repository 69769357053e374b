//! The benchmark's metric names, units and directions: the tables the
//! result line is printed from. `BENCHMARK.json` is checked against them
//! by a test.

use crate::workloads::Workload;

/// `run_seconds` of `BENCHMARK.json`: how long one run measures.
pub const DEFAULT_SECONDS: f64 = 25.0;

/// `(name, unit, better, bound)` of the seven end-to-end metrics, the
/// same on every workload. `bound` is the relative worsening of the
/// median that counts as a regression. The timing bounds are the largest
/// the benchmark contract allows, because the two-core guest this was
/// defined on computes at two speeds 1.27× apart and changes between them
/// on its own: set medians of unchanged code moved by up to 23 % between
/// two back-to-back A/A sets (`AA.md`, README "End-to-end metrics").
/// Memory follows allocation timing on `ingest_mixed` (quartile distance
/// 0.05–0.08); quality repeats exactly.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_op", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("recall_at_10", "ratio", "higher", 0.02),
];

const TRAIN: Option<Workload> = Some(Workload::TrainFit);
const COLD: Option<Workload> = Some(Workload::ServeCold);
const HOT: Option<Workload> = Some(Workload::ServeHot);
const INGEST: Option<Workload> = Some(Workload::IngestMixed);

/// `(name, unit, better, side)` of the per-layer metrics a traced run
/// prints. The result line must carry every one of them whichever
/// workload is traced; `side` names the workload whose `--quick` side
/// pass supplies a metric that the traced workload does not measure
/// itself. `None`: a direct-call probe (`probes.rs`) or a reading every
/// workload takes of its own run (`proc.*`, `bench.*`).
pub const PER_LAYER: &[(&str, &str, &str, Option<Workload>)] = &[
    ("geometry.fused_scores.ns_per_item", "ns", "lower", None),
    ("geometry.fused_scores.gb_per_s", "GB/s", "higher", None),
    ("geometry.blockcache_build_ms", "ms", "lower", None),
    ("autodiff.csr_matmul_ms", "ms", "lower", None),
    ("core.epoch_ms_p50", "ms", "lower", TRAIN),
    ("core.aggregation_share", "share", "lower", TRAIN),
    ("core.scoring_share", "share", "lower", TRAIN),
    ("core.update_share", "share", "lower", TRAIN),
    ("core.rebuild_ms", "ms", "lower", TRAIN),
    ("core.epoch_unexplained_share", "share", "lower", TRAIN),
    (
        "core.incremental.apply_us_per_interaction",
        "us",
        "lower",
        None,
    ),
    ("taxonomy.construct_ms", "ms", "lower", None),
    ("taxonomy.attach_us", "us", "lower", None),
    ("retrieval.build_s", "s", "lower", None),
    ("retrieval.search_us_p50", "us", "lower", None),
    ("retrieval.candidates_share", "share", "lower", None),
    ("retrieval.search_exact_us_p50", "us", "lower", None),
    ("retrieval.recall_at_10", "ratio", "higher", None),
    ("retrieval.from_parts_ms", "ms", "lower", None),
    ("retrieval.append_items_us", "us", "lower", None),
    ("serve.model.recommend_miss_us", "us", "lower", None),
    ("serve.model.recommend_hit_us", "us", "lower", None),
    ("serve.lru.get_ns", "ns", "lower", None),
    ("serve.lru.put_ns", "ns", "lower", None),
    ("serve.batch.wait_ms_mean", "ms", "lower", COLD),
    ("serve.batch.mean_size", "count", "higher", COLD),
    ("serve.cache.hit_share", "share", "higher", HOT),
    ("serve.http.connect_us", "us", "lower", HOT),
    ("serve.http.ttfb_us", "us", "lower", HOT),
    ("serve.http.read_us", "us", "lower", HOT),
    ("serve.http.unexplained_share", "share", "lower", HOT),
    ("serve.http.reused_share", "share", "higher", HOT),
    ("serve.http.shed_count", "count", "lower", HOT),
    ("serve.router.hop_us", "us", "lower", None),
    ("serve.checkpoint.to_bytes_ms", "ms", "lower", None),
    ("serve.checkpoint.from_bytes_ms", "ms", "lower", None),
    (
        "serve.checkpoint.load_to_first_response_ms",
        "ms",
        "lower",
        None,
    ),
    ("serve.online.parse_us_per_body", "us", "lower", None),
    ("serve.online.fold_us_per_interaction", "us", "lower", None),
    ("serve.online.write_ack_ms_p50", "ms", "lower", INGEST),
    ("serve.online.visible_ms_p50", "ms", "lower", INGEST),
    ("serve.online.swap_count", "count", "higher", INGEST),
    ("serve.online.rebuild_count", "count", "higher", INGEST),
    ("serve.online.staleness_max", "count", "lower", INGEST),
    ("serve.online.drain_ms", "ms", "lower", INGEST),
    ("parallel.pool_width", "count", "higher", None),
    ("parallel.fit_speedup", "ratio", "higher", None),
    ("data.generate_ms", "ms", "lower", None),
    ("data.top_k_us", "us", "lower", None),
    ("eval.evaluate_users_per_s", "1/s", "higher", None),
    ("proc.cpu_user_s", "s", "lower", None),
    ("proc.cpu_sys_s", "s", "lower", None),
    ("proc.ctx_switches_involuntary", "count", "lower", None),
    ("proc.steal_share", "share", "lower", None),
    ("proc.threads_peak", "count", "lower", None),
    ("bench.latency_p99_ms", "ms", "lower", None),
    ("bench.window_iqr_share", "share", "lower", None),
    ("bench.writer_lateness_ms_max", "ms", "lower", INGEST),
    ("bench.trace_overhead_share", "share", "lower", None),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand; this keeps it and the tables
    /// the result line is printed from together.
    #[test]
    fn benchmark_json_lists_exactly_these_tables() {
        let json = include_str!("../../BENCHMARK.json");
        let mut entries = Vec::new();
        for w in Workload::ALL {
            entries.push(format!("{{\"name\": \"{}\", \"why\": \"", w.name()));
        }
        for (name, unit, better, bound) in END_TO_END {
            entries.push(format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \
                 \"bound\": {bound}}}"
            ));
        }
        for (name, unit, better, _) in PER_LAYER {
            entries.push(format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}"
            ));
        }
        for entry in &entries {
            assert_eq!(json.matches(entry.as_str()).count(), 1, "{entry}");
        }
        assert_eq!(json.matches("\"name\":").count(), entries.len());
        assert!(json.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS},")));
    }
}
