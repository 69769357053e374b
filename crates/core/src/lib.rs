//! The TaxoRec framework (ICDE 2022): joint automated tag-taxonomy
//! construction and recommendation in hyperbolic space.
//!
//! The central type is [`TaxoRec`]; configure it with [`TaxoRecConfig`],
//! train via the [`taxorec_data::Recommender`] trait, then rank items,
//! inspect the constructed taxonomy, or query user–tag distances for
//! interpretability (paper Table V).

pub mod aggregation;
pub mod config;
pub mod export;
pub mod fit_control;
pub mod graph;
pub mod incremental;
pub mod init;
pub mod model;
pub mod optim;

pub use config::TaxoRecConfig;
pub use export::ModelState;
pub use fit_control::{FitControl, FitReport, TrainState, LR_BACKOFF, MAX_ROLLBACKS};
pub use graph::GraphMatrices;
pub use incremental::{apply_interactions, IncrementalConfig, IncrementalReport, Interaction};
pub use model::TaxoRec;
