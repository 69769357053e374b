//! "Same bits" as a test: the byte length and FNV-1a-64 of artifacts the
//! trainer and the online fold write, and of the rankings and metrics a
//! trained model serves and evaluates to, against a committed table.
//!
//! A change that moves any bit of training or folding — a reordered sum,
//! a different clamp, a kernel that zeroes what it should overwrite —
//! changes a hash here. A change that is *meant* to move bits edits the
//! table and says why; the diff of this file is then the behaviour-change
//! flag.
//!
//! Every case runs at `TAXOREC_THREADS=1` and `4`: the parallel kernels
//! promise the same bits at any pool width. The fused kernels promise the
//! same bits on SSE2, AVX2 and AVX-512, so a mismatch message names the
//! clone this host runs (`Isa::detected`) — a golden that fails on one
//! ISA only is a finding about that promise (or about the host's libm).
//! The goldens run that one clone; the geometry and autodiff unit tests
//! hold every other clone to the baseline's bits.
//!
//! Tests here set the process-global `TAXOREC_THREADS`, so they serialize
//! on one lock.

use std::sync::{Mutex, MutexGuard};

use taxorec_baselines::{zoo, TrainOpts};
use taxorec_core::{TaxoRec, TaxoRecConfig};
use taxorec_data::synth::{generate, SynthConfig};
use taxorec_data::{generate_preset, Preset, Recommender, Scale, Split};
use taxorec_eval::evaluate;
use taxorec_geometry::isa::Isa;
use taxorec_serve::ring::fnv1a;
use taxorec_serve::{
    fold_batch, Checkpoint, IndexConfig, IngestInteraction, IngestOptions, ServingModel,
    SERVE_BLOCK,
};

/// `(case, byte length, FNV-1a-64)`, captured before the kernels they pin
/// were last rewritten.
const GOLDEN: &[(&str, usize, u64)] = &[
    ("fit/ciao", 20_899, 0x0d23_8093_bc1e_f51f),
    ("fit/amazon_cd", 45_709, 0x2e6d_afab_1e66_6021),
    ("fit/amazon_book", 86_046, 0x79db_9b73_7973_c3b6),
    ("fit/yelp", 126_166, 0xb37a_229c_834d_bc0a),
    ("fold/ciao", 28_304, 0xd8e0_bc6c_bf61_07fe),
    ("index/ciao", 25_855, 0x3103_9d72_aad1_69d0),
    ("rank/ciao", 56_640, 0x2786_e2fd_4d11_e5ba),
    ("index/amazon_cd", 51_987, 0xf6db_aa3a_90f9_5106),
    ("index/amazon_book", 95_663, 0x6c12_5bc4_903c_23bf),
    ("index/yelp", 139_368, 0x7130_5fb5_6046_82a3),
    ("rank/amazon_cd", 117_616, 0xbcd2_340a_f068_a584),
    ("rank/amazon_book", 191_376, 0x9dbe_9874_c638_a8e4),
    ("rank/yelp", 288_096, 0xd049_5295_778b_3349),
    ("eval/ciao", 2_016, 0xc3af_903d_0bdb_8eae),
    ("hgcf/ciao", 14_072, 0x766e_ce34_8aab_2033),
    ("hyper_cml/ciao", 14_077, 0xeebe_aa5d_97d8_2698),
    ("table2/bprmf", 27_648, 0x23f3_25d8_7370_a194),
    ("table2/nmf", 27_648, 0x0612_2832_a1de_6ee2),
    ("table2/neumf", 27_648, 0xce86_b3ba_3ff5_5f0a),
    ("table2/cml", 27_648, 0xa178_9922_e79e_2890),
    ("table2/transcf", 27_648, 0x57c8_c587_a4c7_bada),
    ("table2/lrml", 27_648, 0x262e_3405_cce0_32e2),
    ("table2/sml", 27_648, 0x9831_1528_e03c_216e),
    ("table2/hyperml", 27_648, 0x99b1_44bb_6b2c_10d5),
    ("table2/ngcf", 27_648, 0x3eb5_95f6_487c_4cd3),
    ("table2/lightgcn", 27_648, 0x55de_0216_bad6_441d),
    ("table2/hgcf", 27_648, 0xadca_9a6a_baff_cbe6),
    ("table2/cmlf", 27_648, 0x8184_00ee_5e9a_f10b),
    ("table2/amf", 27_648, 0x9d16_131e_4d0c_2858),
    ("table2/agcn", 27_648, 0xfcd9_5d22_4776_8d10),
    ("table3/cml_agg", 27_648, 0x1075_224e_de09_9c69),
];

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Restores the previous `TAXOREC_THREADS` value on drop.
struct ThreadsGuard(Option<String>);

impl ThreadsGuard {
    fn set(v: &str) -> Self {
        let prev = std::env::var("TAXOREC_THREADS").ok();
        std::env::set_var("TAXOREC_THREADS", v);
        Self(prev)
    }
}

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        match &self.0 {
            Some(v) => std::env::set_var("TAXOREC_THREADS", v),
            None => std::env::remove_var("TAXOREC_THREADS"),
        }
    }
}

/// Checks `bytes` against the table row `case`, at thread count `threads`.
fn check(case: &str, threads: &str, bytes: &[u8]) {
    let &(_, len, hash) = GOLDEN
        .iter()
        .find(|(name, _, _)| *name == case)
        .unwrap_or_else(|| panic!("no golden row for {case}"));
    let got = (bytes.len(), fnv1a(bytes));
    assert_eq!(
        got,
        (len, hash),
        "{case} at TAXOREC_THREADS={threads} on {}: got ({}, {:#018x}), table has ({len}, {hash:#018x})",
        Isa::detected().name(),
        got.0,
        got.1,
    );
}

/// A short fit in the shape of `TaxoRecConfig::fast_test()`: a few epochs,
/// one taxonomy rebuild inside the loop and one at the end. The
/// dimensions vary by case so the propagation product runs at widths
/// below, at and between multiples of its 8-column blocks.
fn short_config(dim_ir: usize, dim_tag: usize) -> TaxoRecConfig {
    TaxoRecConfig {
        dim_ir,
        dim_tag,
        epochs: 4,
        taxo_rebuild_every: 2,
        ..TaxoRecConfig::fast_test()
    }
}

fn fit(dataset: &taxorec_data::Dataset, split: &Split, cfg: TaxoRecConfig) -> TaxoRec {
    let mut model = TaxoRec::new(cfg);
    model.fit(dataset, split);
    model
}

/// The two Table III configurations that leave the tag channel off: HGCF
/// (aggregation without tags) and Hyper+CML (no aggregation at all).
#[test]
fn tiny_fit_of_the_tagless_ablations_writes_its_golden_artifact() {
    let _g = lock();
    let dataset = generate_preset(Preset::Ciao, Scale::Tiny);
    let split = Split::standard(&dataset);
    for threads in ["1", "4"] {
        let _t = ThreadsGuard::set(threads);
        for (case, cfg) in [
            ("hgcf/ciao", short_config(12, 4).hgcf()),
            ("hyper_cml/ciao", short_config(12, 4).ablation_hyper_cml()),
        ] {
            let model = fit(&dataset, &split, cfg);
            check(case, threads, &Checkpoint::from_model(&model).to_bytes());
        }
    }
}

/// Beyond Ciao, each fit is also indexed and ranked: the interaction
/// ambients 17, 33 and 44 give the sweep a different tile height each,
/// and ranking in chunks of 7 users forms anchor groups of every size
/// the 32-user blocks of `rank/ciao` never do.
#[test]
fn tiny_fit_of_every_preset_writes_its_golden_artifact() {
    let _g = lock();
    for (name, preset, dim_ir, dim_tag) in [
        ("ciao", Preset::Ciao, 12, 4),
        ("amazon_cd", Preset::AmazonCd, 16, 9),
        ("amazon_book", Preset::AmazonBook, 32, 8),
        ("yelp", Preset::Yelp, 43, 7),
    ] {
        let dataset = generate_preset(preset, Scale::Tiny);
        let split = Split::standard(&dataset);
        for threads in ["1", "4"] {
            let _t = ThreadsGuard::set(threads);
            let model = fit(&dataset, &split, short_config(dim_ir, dim_tag));
            check(
                &format!("fit/{name}"),
                threads,
                &Checkpoint::from_model(&model).to_bytes(),
            );
            if preset == Preset::Ciao {
                continue;
            }
            let ckpt = Checkpoint::from_model(&model)
                .with_dataset(&dataset)
                .with_seen_items(&split.train)
                .with_retrieval_index(&IndexConfig::default())
                .expect("index build");
            check(&format!("index/{name}"), threads, &ckpt.to_bytes());

            let serving = ServingModel::new(ckpt).expect("serving model");
            let users: Vec<u32> = (0..serving.n_users() as u32).collect();
            let mut ranked = Vec::new();
            for k in [10, dataset.n_items] {
                for chunk in users.chunks(7) {
                    let queries: Vec<(u32, usize)> = chunk.iter().map(|&u| (u, k)).collect();
                    for ranking in serving.recommend_many(&queries) {
                        for &(item, score) in ranking.expect("known user").iter() {
                            put(&mut ranked, item);
                            put(&mut ranked, score.to_bits());
                        }
                    }
                }
            }
            check(&format!("rank/{name}"), threads, &ranked);
        }
    }
}

/// Every baseline of Table II, and the Euclidean CML+Agg ablation of
/// Table III, fitted on tiny Ciao: each user's full score row. Batch 256
/// splits each epoch in two, so state carried between mini-batches is
/// covered too.
#[test]
fn tiny_fit_of_every_baseline_scores_its_golden_rows() {
    let _g = lock();
    let dataset = generate_preset(Preset::Ciao, Scale::Tiny);
    let split = Split::standard(&dataset);
    let opts = TrainOpts {
        epochs: 5,
        batch: 256,
        ..TrainOpts::fast_test()
    };
    let cfg = TaxoRecConfig::fast_test();
    for threads in ["1", "4"] {
        let _t = ThreadsGuard::set(threads);
        let models = zoo::TABLE2_ORDER
            .iter()
            .filter(|&&name| name != "TaxoRec")
            .map(|name| (format!("table2/{}", name.to_lowercase()), *name))
            .chain([("table3/cml_agg".to_string(), "CML+Agg")]);
        for (case, name) in models {
            let mut model = zoo::by_name(name, &opts, &cfg, 2).expect("lineup name");
            model.fit(&dataset, &split);
            let mut scores = Vec::new();
            for user in 0..dataset.n_users as u32 {
                for x in model.scores_for_user(user) {
                    put(&mut scores, x.to_bits());
                }
            }
            check(&case, threads, &scores);
        }
    }
}

/// Appends `x`'s little-endian bytes: the hashed encodings below.
fn put(buf: &mut Vec<u8>, x: impl Into<u64>) {
    buf.extend_from_slice(&x.into().to_le_bytes());
}

/// The tiny Ciao fit of `fit/ciao`, seen through every other pool call
/// site: the retrieval index build (`retrieval.build.centroids`), batched
/// serving over more than one `SERVE_BLOCK` (`serve.batch` and
/// `Scorer::rank`) and evaluation (`eval.users`).
#[test]
fn serving_and_evaluating_the_tiny_ciao_fit_write_their_golden_hashes() {
    let _g = lock();
    let dataset = generate_preset(Preset::Ciao, Scale::Tiny);
    let split = Split::standard(&dataset);
    for threads in ["1", "4"] {
        let _t = ThreadsGuard::set(threads);
        let model = fit(&dataset, &split, short_config(12, 4));
        let ckpt = Checkpoint::from_model(&model)
            .with_dataset(&dataset)
            .with_seen_items(&split.train)
            .with_retrieval_index(&IndexConfig::default())
            .expect("index build");
        check("index/ciao", threads, &ckpt.to_bytes());

        let serving = ServingModel::new(ckpt).expect("serving model");
        let users: Vec<u32> = (0..serving.n_users() as u32).collect();
        assert!(users.len() > SERVE_BLOCK, "{} users", users.len());
        let mut ranked = Vec::new();
        for k in [10, dataset.n_items] {
            for ranking in serving.recommend_batch(&users, k) {
                for &(item, score) in ranking.expect("known user").iter() {
                    put(&mut ranked, item);
                    put(&mut ranked, score.to_bits());
                }
            }
        }
        check("rank/ciao", threads, &ranked);

        let eval = evaluate(&model, &split, &[5, 10, 20]);
        let mut metrics = Vec::new();
        for (&user, (recall, ndcg)) in eval.users.iter().zip(eval.recall.iter().zip(&eval.ndcg)) {
            put(&mut metrics, user);
            for &x in recall.iter().chain(ndcg) {
                put(&mut metrics, x.to_bits());
            }
        }
        check("eval/ciao", threads, &metrics);
    }
}

/// A journal over every growth path of the fold: known ids, never-seen
/// users and items, a known tag name, and enough never-seen tag names to
/// cross the drift limit below.
fn journal(base: &Checkpoint, n: usize) -> Vec<IngestInteraction> {
    let users = base.state.n_users() as u32;
    let items = base.state.n_items() as u32;
    (0..n as u32)
        .map(|i| IngestInteraction {
            user: if i % 5 == 3 { users + i % 4 } else { i % users },
            item: if i % 7 == 2 {
                items + i % 3
            } else {
                (i * 13) % items
            },
            tags: match i % 4 {
                0 => vec![format!("live-{}", i / 4)],
                1 => base.tag_names.first().cloned().into_iter().collect(),
                _ => vec![],
            },
        })
        .collect()
}

#[test]
fn folding_a_fixed_journal_writes_its_golden_artifact() {
    let _g = lock();
    let dataset = generate_preset(Preset::Ciao, Scale::Tiny);
    let split = Split::standard(&dataset);
    let opts = IngestOptions {
        enabled: true,
        drift_limit: 4,
        ..IngestOptions::default()
    };
    for threads in ["1", "4"] {
        let _t = ThreadsGuard::set(threads);
        let model = fit(
            &dataset,
            &split,
            TaxoRecConfig {
                epochs: 2,
                ..TaxoRecConfig::fast_test()
            },
        );
        let mut ckpt = Checkpoint::from_model(&model)
            .with_dataset(&dataset)
            .with_seen_items(&split.train)
            .with_retrieval_index(&IndexConfig::default())
            .expect("index build");
        let batch = journal(&ckpt, 40);
        let mut drift = 0;
        let report = fold_batch(&mut ckpt, &batch, &opts, &mut drift).expect("fold");
        assert!(
            report.new_users > 0 && report.new_items > 0 && report.rebuilds >= 1,
            "the journal reaches growth and a drift rebuild: {report:?}"
        );
        check("fold/ciao", threads, &ckpt.to_bytes());
    }
}

/// The benchmark's `train_fit` fit: the default configuration on the
/// bench-scale Yelp fixture. Minutes in a debug build, so ignored there;
/// CI runs it in release with `--include-ignored`.
#[test]
#[ignore = "default-config fit on the bench fixture; run in release"]
fn default_fit_on_the_train_fit_fixture_writes_its_golden_checkpoint() {
    let _g = lock();
    let dataset = generate(&SynthConfig::preset(Preset::Yelp, Scale::Bench));
    let split = Split::standard(&dataset);
    for threads in ["1", "4"] {
        let _t = ThreadsGuard::set(threads);
        let model = fit(&dataset, &split, TaxoRecConfig::default());
        let bytes = Checkpoint::from_model(&model).to_bytes();
        let got = (bytes.len(), fnv1a(&bytes));
        assert_eq!(
            got,
            (767_387, 0x361e_fb3e_6f48_0a93),
            "train_fit fixture at TAXOREC_THREADS={threads} on {}: got ({}, {:#018x})",
            Isa::detected().name(),
            got.0,
            got.1
        );
    }
}
