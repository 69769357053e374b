//! Regenerates **Table I** — statistics of the four benchmark datasets
//! (synthetic analogues; see DESIGN.md §5).

use taxorec_bench::{write_bench_telemetry, BenchProfile};
use taxorec_data::{generate_preset, Preset};
use taxorec_eval::TextTable;

pub fn run() {
    let profile = BenchProfile::from_env();
    println!(
        "Table I — statistics of the datasets (synthetic analogues, scale {:?})\n",
        profile.scale
    );
    let mut table = TextTable::new(&[
        "Dataset",
        "#User",
        "#Item",
        "#Interaction",
        "Density(%)",
        "#Tag",
        "TagDepth",
    ]);
    for preset in Preset::ALL {
        let d = generate_preset(preset, profile.scale);
        let s = d.stats();
        let depth = d
            .taxonomy_truth
            .as_ref()
            .map(|t| t.max_depth() + 1)
            .unwrap_or(0);
        table.row(vec![
            d.name.clone(),
            s.users.to_string(),
            s.items.to_string(),
            s.interactions.to_string(),
            format!("{:.3}", s.density_pct),
            s.tags.to_string(),
            depth.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("Paper reference (real datasets): Ciao 5,180/8,836/104,905/0.229%/28;");
    println!("Amazon-CD 32,589/20,559/515,562/0.077%/331; Amazon-Book 79,368/62,385/4,614,162/0.094%/510;");
    println!("Yelp 97,462/48,294/2,242,997/0.048%/1138. The analogues preserve the");
    println!(
        "density ordering (Ciao > Book > CD > Yelp) and the tag-count/hierarchy-depth ordering."
    );
    write_bench_telemetry("table1");
}
