//! The full baseline lineup, in the paper's Table II row order, plus
//! TaxoRec itself and the Euclidean CML+Agg ablation of Table III — one
//! factory for the experiment harness.

use taxorec_core::{TaxoRec, TaxoRecConfig};
use taxorec_data::Recommender;

use crate::ablation::CmlAgg;
use crate::common::TrainOpts;
use crate::graph::{Hgcf, LightGcn, Ngcf};
use crate::hyper::HyperMl;
use crate::metric::MetricModel;
use crate::mf::{Bprmf, Neumf, Nmf};
use crate::tag::{Agcn, Amf, Cmlf};

/// HyperML's Riemannian steps run at roughly 1/8 of the Euclidean rate
/// with a wider margin (validation-selected; see EXPERIMENTS.md).
fn hyper_opts(opts: &TrainOpts) -> TrainOpts {
    TrainOpts {
        lr: (opts.lr / 8.0).max(0.3),
        margin: 2.0,
        ..opts.clone()
    }
}

/// Euclidean metric-learning models need larger steps than the MF family
/// (mean-normalized hinge gradients are small).
fn metric_opts(opts: &TrainOpts) -> TrainOpts {
    TrainOpts {
        lr: opts.lr.max(0.5),
        ..opts.clone()
    }
}

/// Builds one model by its Table II name, or `"CML+Agg"`.
///
/// `gcn_layers` applies to the graph models. Returns `None` for an
/// unknown name.
pub fn by_name(
    name: &str,
    opts: &TrainOpts,
    taxorec_config: &TaxoRecConfig,
    gcn_layers: usize,
) -> Option<Box<dyn Recommender>> {
    let o = opts.clone();
    Some(match name {
        "BPRMF" => Box::new(Bprmf::new(o)),
        "NMF" => Box::new(Nmf::new(o)),
        "NeuMF" => Box::new(Neumf::new(o)),
        "CML" => Box::new(MetricModel::cml(metric_opts(opts))),
        "TransCF" => Box::new(MetricModel::transcf(metric_opts(opts))),
        "LRML" => Box::new(MetricModel::lrml(metric_opts(opts))),
        "SML" => Box::new(MetricModel::sml(metric_opts(opts))),
        "HyperML" => Box::new(HyperMl::new(hyper_opts(opts))),
        "NGCF" => Box::new(Ngcf::new(o, gcn_layers)),
        "LightGCN" => Box::new(LightGcn::new(o, gcn_layers)),
        "HGCF" => Box::new(Hgcf::new(hyper_opts(opts), gcn_layers)),
        "CMLF" => Box::new(Cmlf::new(metric_opts(opts))),
        "AMF" => Box::new(Amf::new(o)),
        "AGCN" => Box::new(Agcn::new(o, gcn_layers)),
        "CML+Agg" => Box::new(CmlAgg::new(metric_opts(opts), gcn_layers)),
        "TaxoRec" => Box::new(TaxoRec::new(taxorec_config.clone())),
        _ => return None,
    })
}

/// The Table II row order: 14 baselines then TaxoRec.
pub const TABLE2_ORDER: [&str; 15] = [
    "BPRMF", "NMF", "NeuMF", "CML", "TransCF", "LRML", "SML", "HyperML", "NGCF", "LightGCN",
    "HGCF", "CMLF", "AMF", "AGCN", "TaxoRec",
];

#[cfg(test)]
mod tests {
    use super::*;
    use taxorec_data::{generate_preset, Preset, Scale, Split};

    #[test]
    fn every_table2_name_resolves() {
        let opts = TrainOpts::fast_test();
        let cfg = TaxoRecConfig::fast_test();
        for name in TABLE2_ORDER {
            let m = by_name(name, &opts, &cfg, 2).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(m.name(), name);
        }
        assert!(by_name("NotAModel", &opts, &cfg, 2).is_none());
    }

    /// A split without a single training interaction: every model still
    /// ends its fit with a full, finite score row.
    #[test]
    fn every_model_scores_after_a_fit_on_an_empty_training_split() {
        let d = generate_preset(Preset::Ciao, Scale::Tiny);
        let mut s = Split::standard(&d);
        s.train.iter_mut().for_each(Vec::clear);
        let opts = TrainOpts {
            epochs: 2,
            ..TrainOpts::fast_test()
        };
        let cfg = TaxoRecConfig {
            epochs: 2,
            ..TaxoRecConfig::fast_test()
        };
        for name in TABLE2_ORDER.into_iter().chain(["CML+Agg"]) {
            let mut m = by_name(name, &opts, &cfg, 2).expect("lineup name");
            m.fit(&d, &s);
            let scores = m.scores_for_user(0);
            assert_eq!(scores.len(), d.n_items, "{name}");
            assert!(scores.iter().all(|x| x.is_finite()), "{name}");
        }
    }
}
