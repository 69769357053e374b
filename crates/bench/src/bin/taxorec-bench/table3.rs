//! Regenerates **Table III** — the ablation study: CML, CML+Agg,
//! Hyper+CML, Hyper+CML+Agg, TaxoRec on the four dataset analogues.

use taxorec_bench::{dataset_and_split, run_jobs, write_bench_telemetry, BenchProfile, Job};
use taxorec_data::Preset;
use taxorec_eval::TextTable;

const ROWS: [&str; 5] = ["CML", "CML+Agg", "Hyper+CML", "Hyper+CML+Agg", "TaxoRec"];

pub fn run() {
    let profile = BenchProfile::from_env();
    let ks = [10usize, 20];
    let (taxorec_epochs, baseline_epochs) = profile.epoch_budgets();
    println!(
        "Table III — ablation analysis (%), scale {:?}, {} seed(s), \
         Hyper+CML(+Agg) and TaxoRec {taxorec_epochs} epochs, CML(+Agg) {baseline_epochs} epochs\n",
        profile.scale,
        profile.seeds.len(),
    );
    let datasets: Vec<_> = Preset::ALL
        .iter()
        .map(|&p| dataset_and_split(p, profile.scale))
        .collect();
    for (di, preset) in Preset::ALL.iter().enumerate() {
        let jobs: Vec<Job> = ROWS
            .iter()
            .map(|&m| Job {
                model: m.to_string(),
                dataset_idx: di,
            })
            .collect();
        let results = run_jobs(&jobs, &datasets, &profile, &ks);
        let mut table =
            TextTable::new(&["Variant", "Recall@10", "Recall@20", "NDCG@10", "NDCG@20"]);
        for r in &results {
            table.row(vec![
                r.model.clone(),
                r.recall_cell(0),
                r.recall_cell(1),
                r.ndcg_cell(0),
                r.ndcg_cell(1),
            ]);
        }
        println!("=== {} ===", preset.name());
        println!("{}", table.render());
        // The paper's expected ordering within a dataset.
        let r10: Vec<f64> = results.iter().map(|r| r.recall_mean[0]).collect();
        println!(
            "orderings: Agg over CML {}, hyperbolic over Euclidean {}, taxonomy reg over none {}\n",
            check(r10[1] > r10[0] && r10[3] > r10[2]),
            check(r10[2] > r10[0] && r10[3] > r10[1]),
            check(r10[4] > r10[3]),
        );
    }
    write_bench_telemetry("table3");
}

fn check(ok: bool) -> &'static str {
    if ok {
        "OK"
    } else {
        "VIOLATED"
    }
}
