//! End-to-end training-cost benchmarks backing the paper's §V-B runtime
//! discussion: one epoch of TaxoRec (dominated by the GCN propagation)
//! versus one full taxonomy construction (claimed O(S) and minor), plus
//! the graph baselines for scale.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use taxorec_bench::{dataset_and_split, make_model, BenchProfile};
use taxorec_data::{Preset, Scale};
use taxorec_taxonomy::{construct_taxonomy, ConstructConfig};

fn bench_training(c: &mut Criterion) {
    let profile = BenchProfile {
        scale: Scale::Tiny,
        seeds: vec![1],
        epochs: 1,
        dim: 32,
        dim_tag: 8,
        gcn_layers: 3,
    };
    let (dataset, split) = dataset_and_split(Preset::Ciao, Scale::Tiny);

    // Models whose constructors honor the 1-epoch profile (HGCF pins a
    // minimum epoch budget internally and is benchmarked via its own
    // binary instead).
    for name in ["TaxoRec", "Hyper+CML+Agg", "LightGCN", "CML"] {
        c.bench_function(&format!("{name}_fit_1epoch_ciao_tiny"), |b| {
            b.iter(|| {
                let mut m = make_model(name, &profile, 1);
                m.fit(&dataset, &split);
            })
        });
    }

    // Taxonomy construction alone on the same data — the §V-B overhead.
    let dim = profile.dim_tag;
    let mut rng = StdRng::seed_from_u64(2);
    let emb: Vec<f64> = (0..dataset.n_tags * dim)
        .map(|_| (rng.random::<f64>() - 0.5) * 0.6)
        .collect();
    c.bench_function("taxonomy_construction_alone_ciao_tiny", |b| {
        let cfg = ConstructConfig::default();
        b.iter(|| construct_taxonomy(&emb, dim, dataset.n_tags, &dataset.item_tags, &cfg))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(5)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_training
}
criterion_main!(benches);
