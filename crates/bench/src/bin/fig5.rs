//! Regenerates **Fig. 5** — Recall@10 of CML, HyperML, and TaxoRec as the
//! total embedding dimensionality `D` varies, on two dataset analogues.
//! The expected shape: all models improve with `D`; the hyperbolic models
//! (HyperML, TaxoRec) stay strong at small `D` while CML degrades.

use taxorec_bench::{dataset_and_split, make_model, write_bench_telemetry, BenchProfile};
use taxorec_data::Preset;
use taxorec_eval::{evaluate, TextTable};
use taxorec_parallel::par_map;

fn main() {
    let profile = BenchProfile::from_env();
    let dims = [16usize, 32, 48, 64];
    let models = ["CML", "HyperML", "TaxoRec"];
    println!(
        "Fig. 5 — Recall@10 (%) vs embedding dimension D, scale {:?}, seed {}\n",
        profile.scale, profile.seeds[0]
    );
    for preset in [Preset::Ciao, Preset::AmazonCd] {
        let (dataset, split) = dataset_and_split(preset, profile.scale);
        let mut table = TextTable::new(&["D", "CML", "HyperML", "TaxoRec"]);
        // Parallel across (dim × model) on the shared worker pool.
        let jobs: Vec<(usize, usize)> = (0..dims.len())
            .flat_map(|d| (0..models.len()).map(move |m| (d, m)))
            .collect();
        let results = par_map("fig5", jobs.len(), |i| {
            let (di, mi) = jobs[i];
            let mut p = profile.clone();
            p.dim = dims[di];
            // TaxoRec reserves a fixed tag budget (paper: 12 of 64).
            p.dim_tag = 8.min(dims[di] / 2);
            let mut model = make_model(models[mi], &p, p.seeds[0]);
            model.fit(&dataset, &split);
            let e = evaluate(model.as_ref(), &split, &[10]);
            100.0 * e.mean_recall(0)
        });
        for (di, &d) in dims.iter().enumerate() {
            let mut row = vec![d.to_string()];
            for mi in 0..models.len() {
                row.push(format!("{:.2}", results[di * models.len() + mi]));
            }
            table.row(row);
        }
        println!("=== {} ===", preset.name());
        println!("{}", table.render());
    }
    write_bench_telemetry("fig5");
}
