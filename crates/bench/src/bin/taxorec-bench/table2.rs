//! Regenerates **Table II** — overall Recall@10/20 and NDCG@10/20 of all
//! 15 methods on the four dataset analogues, with mean ± std over seeds,
//! best/second markers (`*best*` / `_second_`), and a Wilcoxon
//! signed-rank significance star for TaxoRec vs. the best baseline.

use taxorec_baselines::zoo::TABLE2_ORDER;
use taxorec_bench::{dataset_and_split, run_jobs, write_bench_telemetry, BenchProfile, Job};
use taxorec_data::Preset;
use taxorec_eval::{mark_best, wilcoxon_signed_rank, TextTable};

pub fn run() {
    let profile = BenchProfile::from_env();
    let ks = [10usize, 20];
    let (taxorec_epochs, baseline_epochs) = profile.epoch_budgets();
    println!(
        "Table II — overall performance (%), scale {:?}, {} seed(s), \
         TaxoRec {taxorec_epochs} epochs, baselines {baseline_epochs} epochs\n",
        profile.scale,
        profile.seeds.len(),
    );
    let datasets: Vec<_> = Preset::ALL
        .iter()
        .map(|&p| dataset_and_split(p, profile.scale))
        .collect();
    for (di, preset) in Preset::ALL.iter().enumerate() {
        let jobs: Vec<Job> = TABLE2_ORDER
            .iter()
            .map(|&m| Job {
                model: m.to_string(),
                dataset_idx: di,
            })
            .collect();
        let results = run_jobs(&jobs, &datasets, &profile, &ks);
        // Column-wise best/second markers.
        let mut table = TextTable::new(&["Method", "Recall@10", "Recall@20", "NDCG@10", "NDCG@20"]);
        let mut columns: Vec<Vec<f64>> = vec![Vec::new(); 4];
        let mut cells: Vec<Vec<String>> = vec![Vec::new(); 4];
        for r in &results {
            columns[0].push(r.recall_mean[0]);
            columns[1].push(r.recall_mean[1]);
            columns[2].push(r.ndcg_mean[0]);
            columns[3].push(r.ndcg_mean[1]);
            cells[0].push(r.recall_cell(0));
            cells[1].push(r.recall_cell(1));
            cells[2].push(r.ndcg_cell(0));
            cells[3].push(r.ndcg_cell(1));
        }
        let marked: Vec<Vec<String>> = columns
            .iter()
            .zip(&cells)
            .map(|(v, c)| mark_best(v, c))
            .collect();
        // Wilcoxon: TaxoRec (last row) vs. the best *baseline* per-user
        // Recall@10 of the first seed.
        let taxo = results.last().expect("TaxoRec present");
        let best_baseline = results[..results.len() - 1]
            .iter()
            .max_by(|a, b| a.recall_mean[0].partial_cmp(&b.recall_mean[0]).unwrap())
            .expect("baselines present");
        let w = wilcoxon_signed_rank(
            &taxo.first_eval.user_recall(0),
            &best_baseline.first_eval.user_recall(0),
        );
        let star = if w.significant(0.05) { "*" } else { "" };
        for (i, r) in results.iter().enumerate() {
            let sig = if i == results.len() - 1 { star } else { "" };
            table.row(vec![
                format!("{}{}", r.model, sig),
                marked[0][i].clone(),
                marked[1][i].clone(),
                marked[2][i].clone(),
                marked[3][i].clone(),
            ]);
        }
        println!("=== {} ===", preset.name());
        println!("{}", table.render());
        println!(
            "TaxoRec vs best baseline ({}): Wilcoxon p = {:.4} ({}significant at 5%)\n",
            best_baseline.model,
            w.p_value,
            if w.significant(0.05) { "" } else { "not " }
        );
    }
    write_bench_telemetry("table2");
}
