//! Regenerates **Table V** — interpretable case studies: for sample users
//! of the Amazon-Book and Yelp analogues, the 4 nearest tags in the
//! learned metric space and the top recommended items (RQ5).

use taxorec_bench::{dataset_and_split, write_bench_telemetry, BenchProfile};
use taxorec_core::TaxoRec;
use taxorec_data::{Preset, Recommender};
use taxorec_eval::top_k_indices;

fn main() {
    let profile = BenchProfile::from_env();
    println!(
        "Table V — tag-based user profiles and recommendations, scale {:?}\n",
        profile.scale
    );
    for preset in [Preset::AmazonBook, Preset::Yelp] {
        let (dataset, split) = dataset_and_split(preset, profile.scale);
        let mut model = TaxoRec::new(profile.taxorec_config(profile.seeds[0]));
        model.fit(&dataset, &split);
        println!("=== {} ===", preset.name());
        // Pick the two users with the highest α (strongest tag affinity)
        // among users that have test items — the paper samples users whose
        // profiles are tag-explainable.
        let mut candidates: Vec<u32> = (0..dataset.n_users as u32)
            .filter(|&u| !split.test[u as usize].is_empty())
            .collect();
        candidates.sort_by(|&a, &b| {
            model.alphas()[b as usize]
                .partial_cmp(&model.alphas()[a as usize])
                .unwrap()
        });
        for &u in candidates.iter().take(2) {
            let tags = model.user_top_tags(u, 4);
            let tag_names: Vec<String> = tags
                .iter()
                .map(|&(t, _)| format!("<{}>", dataset.tag_names[t as usize]))
                .collect();
            let mut scores = model.scores_for_user(u);
            for &v in &split.train[u as usize] {
                scores[v as usize] = f64::NEG_INFINITY;
            }
            let recs = top_k_indices(&scores, 4);
            let rec_desc: Vec<String> = recs
                .iter()
                .map(|&v| {
                    let names: Vec<&str> = dataset.item_tags[v]
                        .iter()
                        .take(2)
                        .map(|&t| dataset.tag_names[t as usize].as_str())
                        .collect();
                    format!("item#{v} [{}]", names.join(", "))
                })
                .collect();
            println!("User{u} (alpha = {:.2})", model.alphas()[u as usize]);
            println!("  Tags : {}", tag_names.join("; "));
            println!("  Items: {}", rec_desc.join("; "));
        }
        println!();
    }
    println!("Read: the nearest tags of a user should be coherent (shared ancestors in");
    println!("the constructed taxonomy) and the recommended items should carry those tags.");
    write_bench_telemetry("table5");
}
