//! The runtime claim of **§V-B**: taxonomy construction (Algorithm 1) is
//! O(S) and minor next to GCN training. Per dataset analogue at the
//! profile's scale, prints the construction time under both k-means
//! seedings against one training epoch of TaxoRec and of the graph
//! baselines.
//!
//! TaxoRec trains once for the profile's epochs. Its epoch is the median
//! epoch without a rebuild; its rebuild share is the time its in-fit
//! constructions took over the time of all its epochs. Construction then
//! runs [`REPS`] times on the trained tag embeddings, under the
//! configuration TaxoRec's own rebuilds use. A graph baseline's epoch is
//! a whole one-epoch `fit`, setup included, [`REPS`] times. Every cell is
//! a median of plain `Instant` timings. Kernel-level costs (distances,
//! the autodiff pipeline, spmm) are perfbench's per-layer metrics, not
//! rows here.

use std::hint::black_box;

use taxorec_baselines::{zoo, TrainOpts};
use taxorec_bench::{dataset_and_split, time_it, write_bench_telemetry, BenchProfile};
use taxorec_core::TaxoRec;
use taxorec_data::{Preset, Recommender};
use taxorec_eval::TextTable;
use taxorec_taxonomy::{construct_taxonomy, ConstructConfig, Seeding};

/// Timed runs per construction and baseline cell.
const REPS: usize = 5;
/// The graph baselines whose epoch budget the profile can set to one
/// (HGCF pins a 100-epoch floor in its constructor).
const GRAPH_BASELINES: [&str; 3] = ["NGCF", "LightGCN", "AGCN"];

/// The upper median; NaN for no samples.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs.get(xs.len() / 2).copied().unwrap_or(f64::NAN)
}

/// Median wall time of [`REPS`] runs of `f`, in milliseconds.
fn median_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    median(
        (0..REPS)
            .map(|_| {
                let (out, dt) = time_it(&mut f);
                black_box(out);
                dt.as_secs_f64() * 1e3
            })
            .collect(),
    )
}

pub fn run() {
    let profile = BenchProfile::from_env();
    let seed = profile.seeds[0];
    let cfg = profile.taxorec_config(seed);
    let opts = TrainOpts {
        epochs: 1,
        ..profile.train_opts(seed)
    };
    println!(
        "Sec. V-B — taxonomy construction vs one training epoch (ms), scale {:?}, {} epochs, D = {}, D_t = {}, L = {}\n",
        profile.scale, profile.epochs, profile.dim, profile.dim_tag, profile.gcn_layers
    );
    let mut header = vec!["Dataset", "#Tag", "Construct++", "ConstructUni", "TaxoRec"];
    header.extend(GRAPH_BASELINES);
    header.push("RebuildShare(%)");
    let mut table = TextTable::new(&header);
    for preset in Preset::ALL {
        let (dataset, split) = dataset_and_split(preset, profile.scale);
        let mut model = TaxoRec::new(cfg.clone());
        model.fit(&dataset, &split);
        let records = &model.epoch_records;
        let epoch_ms = median(
            records
                .iter()
                .filter(|r| r.rebuild.is_none())
                .map(|r| r.duration_secs * 1e3)
                .collect(),
        );
        let rebuild_secs: f64 = records
            .iter()
            .filter_map(|r| r.rebuild.as_ref())
            .map(|s| s.duration_secs)
            .sum();
        let epochs_secs: f64 = records.iter().map(|r| r.duration_secs).sum();
        let tags = model.tag_embeddings();
        let construct_ms = |seeding: Seeding| {
            let construct = ConstructConfig {
                k: cfg.taxo_k,
                delta: cfg.taxo_delta,
                min_node_size: cfg.taxo_min_node,
                max_depth: cfg.taxo_max_depth,
                seeding,
                seed: cfg.seed ^ 0x7a70,
                ..ConstructConfig::default()
            };
            median_ms(|| {
                construct_taxonomy(
                    tags.data(),
                    tags.cols(),
                    dataset.n_tags,
                    &dataset.item_tags,
                    &construct,
                )
                .len()
            })
        };
        let mut row = vec![
            dataset.name.clone(),
            dataset.n_tags.to_string(),
            format!("{:.2}", construct_ms(Seeding::PlusPlus)),
            format!("{:.2}", construct_ms(Seeding::Uniform)),
            format!("{epoch_ms:.1}"),
        ];
        for name in GRAPH_BASELINES {
            let ms = median_ms(|| {
                let mut m = zoo::by_name(name, &opts, &cfg, profile.gcn_layers)
                    .unwrap_or_else(|| panic!("unknown model {name}"));
                m.fit(&dataset, &split);
            });
            row.push(format!("{ms:.1}"));
        }
        row.push(format!("{:.2}", 100.0 * rebuild_secs / epochs_secs));
        table.row(row);
    }
    println!("{}", table.render());
    println!(
        "TaxoRec: median epoch without a rebuild; it rebuilds every {} epochs after a {:.0}% warm-up.",
        cfg.taxo_rebuild_every,
        100.0 * cfg.taxo_warmup_frac
    );
    println!("Graph baselines: a whole one-epoch fit, setup included. Medians of {REPS} runs.");
    write_bench_telemetry("runtime");
}
