//! A miniature Table II: TaxoRec against a few representative baselines
//! on one dataset analogue, trained and evaluated identically.
//!
//! ```text
//! cargo run --release --example baseline_comparison
//! ```

use taxorec::baselines::{zoo, TrainOpts};
use taxorec::core::TaxoRecConfig;
use taxorec::data::{generate_preset, Preset, Scale, Split};
use taxorec::eval::{evaluate, TextTable};

fn main() {
    let dataset = generate_preset(Preset::AmazonCd, Scale::Tiny);
    let split = Split::standard(&dataset);
    println!("{} — {:?}\n", dataset.name, dataset.stats());

    let opts = TrainOpts {
        dim: 24,
        epochs: 40,
        ..TrainOpts::default()
    };
    let cfg = TaxoRecConfig {
        dim_ir: 18,
        dim_tag: 6,
        epochs: 40,
        ..TaxoRecConfig::fast_test()
    };
    let mut table = TextTable::new(&["Method", "Recall@10", "NDCG@10"]);
    for name in ["BPRMF", "CML", "LightGCN", "HGCF", "TaxoRec"] {
        let mut model = zoo::by_name(name, &opts, &cfg, 3).expect("known model");
        model.fit(&dataset, &split);
        let e = evaluate(model.as_ref(), &split, &[10]);
        table.row(vec![
            name.to_string(),
            format!("{:.2}%", 100.0 * e.mean_recall(0)),
            format!("{:.2}%", 100.0 * e.mean_ndcg(0)),
        ]);
    }
    println!("{}", table.render());
    println!(
        "(full 15-method grid: cargo run --release -p taxorec-bench --bin taxorec-bench -- table2)"
    );
}
