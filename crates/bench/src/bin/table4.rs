//! Regenerates **Table IV** — the hyperparameter study on the
//! Amazon-Book and Yelp analogues: K ∈ {2,3,4}, δ ∈ {0.25,0.5,0.75},
//! L ∈ {1..4}, m ∈ {0.1..0.4}, λ ∈ {0, 0.01, 0.1, 1.0}.

use taxorec_bench::{dataset_and_split, write_bench_telemetry, BenchProfile};
use taxorec_core::{TaxoRec, TaxoRecConfig};
use taxorec_data::{Preset, Recommender};
use taxorec_eval::{evaluate, TextTable};
use taxorec_parallel::par_map;

struct Setting {
    label: String,
    patch: Box<dyn Fn(&mut TaxoRecConfig) + Send + Sync>,
}

fn settings() -> Vec<Setting> {
    let mut out: Vec<Setting> = Vec::new();
    for k in [2usize, 3, 4] {
        out.push(Setting {
            label: format!("K = {k}"),
            patch: Box::new(move |c| c.taxo_k = k),
        });
    }
    for delta in [0.1, 0.25, 0.5, 0.75] {
        out.push(Setting {
            label: format!("delta = {delta:.2}"),
            patch: Box::new(move |c| c.taxo_delta = delta),
        });
    }
    for l in [1usize, 2, 3, 4] {
        out.push(Setting {
            label: format!("L = {l}"),
            patch: Box::new(move |c| c.gcn_layers = l),
        });
    }
    // The paper sweeps m in {0.1..0.4} on unit-scale distances; our
    // embedding region reaches larger squared distances, so the grid is
    // scaled accordingly (see EXPERIMENTS.md).
    for m in [0.5, 1.0, 2.0, 4.0, 6.0] {
        out.push(Setting {
            label: format!("m = {m:.1}"),
            patch: Box::new(move |c| c.margin = m),
        });
    }
    for lambda in [0.0, 0.01, 0.1, 1.0] {
        out.push(Setting {
            label: format!("lambda = {lambda}"),
            patch: Box::new(move |c| c.lambda = lambda),
        });
    }
    out
}

fn main() {
    let profile = BenchProfile::from_env();
    let ks = [10usize];
    println!(
        "Table IV — hyperparameter study (%), scale {:?}, seed {}, {} epochs\n",
        profile.scale, profile.seeds[0], profile.epochs
    );
    let presets = [Preset::AmazonBook, Preset::Yelp];
    let datasets: Vec<_> = presets
        .iter()
        .map(|&p| dataset_and_split(p, profile.scale))
        .collect();
    let all = settings();
    // Parallel over (setting × dataset) on the shared worker pool.
    let jobs: Vec<(usize, usize)> = (0..all.len())
        .flat_map(|s| (0..presets.len()).map(move |d| (s, d)))
        .collect();
    let results = par_map("table4", jobs.len(), |i| {
        let (si, di) = jobs[i];
        let (dataset, split) = &datasets[di];
        let mut cfg = profile.taxorec_config(profile.seeds[0]);
        (all[si].patch)(&mut cfg);
        let mut model = TaxoRec::new(cfg);
        model.fit(dataset, split);
        let e = evaluate(&model, split, &ks);
        (100.0 * e.mean_recall(0), 100.0 * e.mean_ndcg(0))
    });
    let cell = |si: usize, di: usize| -> (f64, f64) { results[si * presets.len() + di] };
    let mut table = TextTable::new(&[
        "Param.",
        "Recall@10 (Book)",
        "NDCG@10 (Book)",
        "Recall@10 (Yelp)",
        "NDCG@10 (Yelp)",
    ]);
    for (si, s) in all.iter().enumerate() {
        let (rb, nb) = cell(si, 0);
        let (ry, ny) = cell(si, 1);
        table.row(vec![
            s.label.clone(),
            format!("{rb:.2}"),
            format!("{nb:.2}"),
            format!("{ry:.2}"),
            format!("{ny:.2}"),
        ]);
    }
    println!("{}", table.render());
    println!("Paper optima: K=3, delta=0.5, L=3, m in [0.1,0.2], lambda in [0.1,1.0].");
    println!(
        "(delta and m operate on reproduction-scale score/distance ranges; see EXPERIMENTS.md.)"
    );
    write_bench_telemetry("table4");
}
