//! Regenerates **Fig. 6** — excerpts of the automatically constructed tag
//! taxonomies on the Amazon-Book and Yelp analogues (RQ4), plus the
//! quantitative recovery scores against the planted ground truth that the
//! synthetic substitution makes possible.

use taxorec_bench::{dataset_and_split, write_bench_telemetry, BenchProfile};
use taxorec_core::TaxoRec;
use taxorec_data::{Preset, Recommender};
use taxorec_taxonomy::{
    ancestor_scores, random_coherence_baseline, random_pair_precision, sibling_coherence,
};

pub fn run() {
    let profile = BenchProfile::from_env();
    println!(
        "Fig. 6 — automatically constructed tag taxonomies, scale {:?}\n",
        profile.scale
    );
    for preset in [Preset::AmazonBook, Preset::Yelp] {
        let (dataset, split) = dataset_and_split(preset, profile.scale);
        let mut model = TaxoRec::new(profile.taxorec_config(profile.seeds[0]));
        model.fit(&dataset, &split);
        let taxo = model.taxonomy().expect("taxonomy constructed");
        println!(
            "=== {} (constructed {} nodes, depth {}) ===",
            preset.name(),
            taxo.len(),
            taxo.depth()
        );
        print!("{}", taxo.render(&dataset.tag_names, 5));
        if let Some(truth) = &dataset.taxonomy_truth {
            let s = ancestor_scores(taxo, truth);
            let coh = sibling_coherence(taxo, truth);
            let rnd = random_pair_precision(truth);
            println!(
                "\nrecovery vs planted tree: ancestor P={:.3} R={:.3} F1={:.3} \
                 (random-pairing precision baseline {:.3}); sibling coherence {:.3} \
                 (random-grouping baseline {:.3})",
                s.precision,
                s.recall,
                s.f1,
                rnd,
                coh,
                random_coherence_baseline(truth)
            );
        }
        println!();
    }
    println!("Read: sibling tag sets should be semantically coherent (same top-level");
    println!("theme) and ancestor precision should sit far above the random baseline.");
    write_bench_telemetry("fig6");
}
