//! Model checkpointing and online serving for TaxoRec.
//!
//! This crate closes the loop from the paper's offline training to an
//! online recommender: a trained [`taxorec_core::TaxoRec`] — Lorentz
//! user/item/tag embeddings, the constructed tag taxonomy, and the
//! personalized tag weights `α_u` of Eq. 16 — is frozen into a
//! versioned, checksummed `.taxo` artifact, reloaded into an immutable
//! [`ServingModel`], and exposed over a std-only HTTP/1.1 server.
//!
//! Three layers, one guarantee:
//!
//! * [`checkpoint`] — the `.taxo` binary format: `TAXO` magic, format
//!   version, length-framed little-endian payload, CRC-32 trailer.
//!   Loading validates all of it and the model dimensions before any
//!   query runs; see [`CheckpointError`] for the failure taxonomy.
//! * [`model`] — [`ServingModel`]: heap-based partial top-K ranking
//!   with train-item exclusion, an LRU response cache, batched queries
//!   over `taxorec-parallel`, and taxonomy-grounded explanations.
//! * [`http`] — `taxorec-serve`, the `TcpListener`-based front end
//!   (`/recommend`, `/explain`, `/healthz`, `/metrics`), with warm
//!   checkpoint reload through [`ModelSlot`] (`/admin/reload`).
//!
//! Both servers stand on one private net layer (listener, stage queues,
//! worker pools, shedding, drain, the response writer); [`client`] is
//! its public counterpart, the one blocking HTTP client the router, the
//! load generator and the tests share.
//!
//! On top of the single-process server sits the sharded tier
//! (DESIGN.md §16): [`ring`] partitions users across shard workers by
//! consistent hashing, [`router`] is the `taxorec-router` front end
//! (health-aware failover, per-shard circuit [`breaker`]s, hedged
//! requests, aggregated health/metrics), and [`signal`] latches
//! SIGTERM/SIGINT so shards drain gracefully under an orchestrator.
//!
//! The guarantee: scoring replays [`TaxoRec::scores_for_user`]
//! bit-for-bit, and the artifact stores every float via `to_le_bytes`,
//! so a reloaded checkpoint produces **identical** top-K lists to the
//! in-process model it was saved from — not merely close ones. The
//! integration tests assert exact equality for every user.
//!
//! [`TaxoRec::scores_for_user`]: taxorec_data::Recommender::scores_for_user
//!
//! ```no_run
//! use taxorec_core::{TaxoRec, TaxoRecConfig};
//! use taxorec_data::{generate_preset, Preset, Recommender, Scale, Split};
//!
//! let dataset = generate_preset(Preset::Ciao, Scale::Tiny);
//! let split = Split::standard(&dataset);
//! let mut model = TaxoRec::new(TaxoRecConfig::fast_test());
//! model.fit(&dataset, &split);
//!
//! // Freeze to disk…
//! let ckpt = taxorec_serve::Checkpoint::from_model(&model)
//!     .with_dataset(&dataset)
//!     .with_seen_items(&split.train);
//! ckpt.save("model.taxo").unwrap();
//!
//! // …and serve it back, bit-identically.
//! let serving = taxorec_serve::load("model.taxo").unwrap();
//! let top = serving.recommend(0, 10).unwrap();
//! println!("{top:?}");
//! ```

pub mod batch;
pub mod breaker;
pub mod checkpoint;
pub mod client;
pub mod http;
pub mod lru;
pub mod model;
mod net;
pub mod online;
pub mod ring;
pub mod router;
pub mod signal;
mod wire;

pub use batch::{BatchJob, BatchOptions, Batcher};
pub use breaker::Breaker;
pub use checkpoint::{
    load, save, ArtifactInfo, Checkpoint, CheckpointError, TrainCheckpoint, FLAG_JOURNAL_CURSOR,
    FLAG_RETRIEVAL_INDEX, FLAG_TRAIN_STATE, FORMAT_VERSION, MAGIC,
};
pub use http::{serve, serve_online, serve_with, Health, ServeOptions, ServerHandle};
pub use lru::LruCache;
pub use model::{
    Explanation, ModelSlot, Ranking, ServeError, ServingModel, TagAffinity, SERVE_BLOCK,
};
pub use online::{
    fold_batch, parse_ingest_body, FoldReport, IngestInteraction, IngestOptions, Journal,
};
pub use ring::Ring;
pub use router::{route, route_with, RouterHandle, RouterOptions};
pub use taxorec_retrieval::{IndexConfig, RetrievalMode};
pub use wire::crc32;
