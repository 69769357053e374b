//! Datasets for TaxoRec: representation, temporal splits, negative
//! sampling, TSV persistence, and the synthetic benchmark generators that
//! stand in for the paper's Ciao / Amazon-CD / Amazon-Book / Yelp datasets
//! (see DESIGN.md §5 for the substitution rationale).

pub mod dataset;
pub mod negative;
pub mod recommender;
pub mod scorer;
pub mod split;
pub mod synth;
pub mod synth_embed;
pub mod truth;
pub mod tsv;

pub use dataset::{Dataset, DatasetStats, Interaction};
pub use negative::NegativeSampler;
pub use recommender::{select_top_k, Recommender, TopKAccumulator, TopKSink};
pub use scorer::{Anchor, ItemEmbeddings, Scorer};
pub use split::Split;
pub use synth::{generate, generate_preset, Preset, Scale, SynthConfig};
pub use synth_embed::{generate_embeddings, EmbedConfig, SynthEmbeddings, EMBED_CHUNK};
pub use truth::TagTree;
