//! The `.taxo` checkpoint format: a versioned, magic-tagged,
//! CRC-checksummed binary artifact holding everything needed to serve a
//! trained TaxoRec model.
//!
//! ## Artifact layout (version 1)
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"TAXO"
//! 4       2     format version (u16 LE, currently 1)
//! 6       2     reserved flags (must be 0)
//! 8       8     payload length P (u64 LE)
//! 16      P     payload (sections below, all integers LE)
//! 16+P    4     CRC-32 (IEEE) of the payload (u32 LE)
//! ```
//!
//! Payload sections, in order: model name · training config · tag-channel
//! flag · five embedding matrices (`u_ir`, `v_ir`, `u_tg`, `v_tg`, `T^P`;
//! each `rows, cols, f64×rows·cols`) · personalized tag weights `α_u` ·
//! optional taxonomy tree (node list) · tag names · per-item tag lists ·
//! per-user seen-item lists (train-set exclusion for serving) · optional
//! retrieval index structure (present iff [`FLAG_RETRIEVAL_INDEX`] is set
//! in the header flags — artifacts written without an index are
//! byte-identical to the pre-index format, and old artifacts load with
//! `index = None` and serve through the exhaustive path).
//!
//! Floats are stored bit-exactly (`to_le_bytes`), so a reloaded model
//! scores **bit-identically** to the live one. [`Checkpoint::from_bytes`]
//! validates magic, version, length, checksum, and (through
//! [`ModelState::validate`]) dimension consistency, failing with a precise
//! [`CheckpointError`] on truncated or corrupted files.

use std::path::Path;

use taxorec_autodiff::Matrix;
use taxorec_core::optim::MAX_RADIUS;
use taxorec_core::{ModelState, TaxoRec, TaxoRecConfig, TrainState};
use taxorec_data::Dataset;
use taxorec_retrieval::{IndexConfig, IndexParts, ItemEmbeddings, TaxoIndex};
use taxorec_taxonomy::{Seeding, TaxoNode, Taxonomy};

use crate::model::ServingModel;
use crate::wire::{crc32, Reader, Writer};

/// First four bytes of every `.taxo` artifact.
pub const MAGIC: [u8; 4] = *b"TAXO";
/// The format version this build writes and the newest it can read.
pub const FORMAT_VERSION: u16 = 1;
/// Header flag bit marking a **training checkpoint** (resumable
/// [`TrainState`]) rather than a serving artifact. The two payloads share
/// the container (magic, version, length, CRC) but not the section
/// layout, so the flag keeps either loader from misparsing the other's
/// file with a confusing section-level error.
pub const FLAG_TRAIN_STATE: u16 = 0x1;
/// Header flag bit marking that the payload carries a serialized
/// retrieval index ([`IndexParts`]) after the seen-item section. The
/// index stores tree **structure** only (ranges, centroids, radii); the
/// permuted kernel caches are rebuilt from the model embeddings at load
/// time, so the section stays small and can never disagree with the
/// matrices it routes over.
pub const FLAG_RETRIEVAL_INDEX: u16 = 0x2;
/// Header flag bit marking that the payload ends with a **journal
/// cursor**: the number of streamed interactions already folded into
/// the embeddings by the online-update loop. A restarted ingester
/// resumes replay from this cursor instead of re-applying (or losing)
/// interactions, keeping the incremental path's bit-identical-replay
/// guarantee across restarts. Absent on offline-trained artifacts.
pub const FLAG_JOURNAL_CURSOR: u16 = 0x4;
/// Fixed header size: magic + version + flags + payload length.
const HEADER_LEN: usize = 16;
/// CRC-32 trailer size.
const TRAILER_LEN: usize = 4;

/// Why a checkpoint could not be written or read back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure (open/read/write/rename), with context.
    Io(String),
    /// The file is smaller than the fixed header + trailer.
    TooShort {
        /// Bytes actually present.
        found: usize,
        /// Minimum bytes any valid artifact has.
        minimum: usize,
    },
    /// The first four bytes are not `b"TAXO"` — not a checkpoint at all.
    BadMagic {
        /// The bytes found instead.
        found: [u8; 4],
    },
    /// Written by a newer (or unknown) format revision.
    UnsupportedVersion {
        /// Version tag in the file.
        found: u16,
        /// Newest version this build understands.
        supported: u16,
    },
    /// The header promises more bytes than the file contains.
    Truncated {
        /// Total size the header implies.
        expected: usize,
        /// Actual file size.
        found: usize,
    },
    /// Payload bytes do not hash to the stored CRC-32 (bit rot, partial
    /// overwrite, or tampering).
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u32,
        /// Checksum of the payload as read.
        computed: u32,
    },
    /// The payload decodes inconsistently (bad section lengths, invalid
    /// enum tags, trailing bytes) despite a matching checksum.
    Corrupt(String),
    /// Decoded cleanly but the model fails semantic validation
    /// (dimension mismatches, out-of-range ids, invalid taxonomy links).
    Invalid(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(m) => write!(f, "checkpoint I/O error: {m}"),
            Self::TooShort { found, minimum } => write!(
                f,
                "truncated checkpoint: {found} bytes, but even an empty artifact has {minimum}"
            ),
            Self::BadMagic { found } => write!(
                f,
                "bad magic {found:02x?} (expected {:02x?} — not a .taxo checkpoint)",
                MAGIC
            ),
            Self::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported checkpoint version {found} (this build reads up to {supported})"
            ),
            Self::Truncated { expected, found } => write!(
                f,
                "truncated checkpoint: header declares {expected} bytes, file has {found}"
            ),
            Self::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:08x}, computed {computed:08x} — the payload is corrupted"
            ),
            Self::Corrupt(m) => write!(f, "corrupt checkpoint payload: {m}"),
            Self::Invalid(m) => write!(f, "checkpoint decodes but fails validation: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Wire-level identity of a parsed `.taxo` artifact: the container
/// version, the CRC-32 the loader verified, and the artifact size.
///
/// Surfaced through `/healthz` (`"shard":{"checkpoint":{…}}`) so a
/// fleet operator — or the shard router — can tell *which bytes* every
/// shard is serving: a warm reload is observable as the CRC changing
/// while the shard stays up, and a version/CRC mismatch across shards
/// is a deploy bug caught by a dashboard instead of a ranking diff.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArtifactInfo {
    /// Container format version from the header.
    pub version: u16,
    /// CRC-32 of the payload, as verified at load time.
    pub crc: u32,
    /// Total artifact size in bytes (header + payload + trailer).
    pub bytes: u64,
}

/// A trained model plus the serving-side context (tag names, item tags,
/// seen items) that lives in the dataset rather than the model itself.
///
/// Build one with [`Checkpoint::from_model`], enrich it with
/// [`Checkpoint::with_dataset`] / [`Checkpoint::with_seen_items`], then
/// [`Checkpoint::save`]. [`load`] goes straight to a [`ServingModel`].
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// The exported model snapshot.
    pub state: ModelState,
    /// Tag display names (empty = unknown; `explain` falls back to
    /// `tag<N>` placeholders).
    pub tag_names: Vec<String>,
    /// `item_tags[v]` lists the tags of item `v` (empty = unknown —
    /// `explain` then has no item-level rationale).
    pub item_tags: Vec<Vec<u32>>,
    /// `seen_items[u]` lists items user `u` interacted with in training,
    /// sorted; the query engine excludes them from recommendations.
    /// Empty = no exclusion information.
    pub seen_items: Vec<Vec<u32>>,
    /// Serialized retrieval-index structure for sub-linear candidate
    /// generation ([`FLAG_RETRIEVAL_INDEX`] in the header). `None` =
    /// the artifact serves through the exhaustive path only.
    pub index: Option<IndexParts>,
    /// Wire identity of the artifact this checkpoint was parsed from, or
    /// of the generation the streaming updater sealed ([`Checkpoint::seal`]);
    /// `None` for an in-memory checkpoint that never hit the wire.
    /// Not serialized — recomputed on every load.
    pub artifact: Option<ArtifactInfo>,
    /// Journal position (count of streamed interactions folded in) when
    /// this artifact was produced by the online-update loop
    /// ([`FLAG_JOURNAL_CURSOR`] in the header). `None` = offline
    /// artifact, no streaming history.
    pub journal_cursor: Option<u64>,
}

impl Checkpoint {
    /// Snapshots a trained model without dataset context.
    pub fn from_model(model: &TaxoRec) -> Self {
        Self {
            state: model.export_state(),
            tag_names: Vec::new(),
            item_tags: Vec::new(),
            seen_items: Vec::new(),
            index: None,
            artifact: None,
            journal_cursor: None,
        }
    }

    /// Attaches tag names and per-item tag lists from the dataset so the
    /// serving side can explain recommendations.
    pub fn with_dataset(mut self, dataset: &Dataset) -> Self {
        self.tag_names = dataset.tag_names.clone();
        self.item_tags = dataset.item_tags.clone();
        self
    }

    /// Attaches per-user seen-item lists (normally `&split.train`) for
    /// train-item exclusion at query time. Lists are sorted and deduped.
    pub fn with_seen_items(mut self, seen: &[Vec<u32>]) -> Self {
        self.seen_items = seen
            .iter()
            .map(|items| {
                let mut s = items.clone();
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();
        self
    }

    /// Builds a hierarchical retrieval index over the item embeddings
    /// (taxonomy-guided when the model carries one) and embeds its
    /// structure in the artifact, enabling the beam-search `recommend()`
    /// path after reload. Fails on an empty catalogue or degenerate
    /// embeddings; the checkpoint is unchanged on error.
    pub fn with_retrieval_index(mut self, config: &IndexConfig) -> Result<Self, CheckpointError> {
        let parts = {
            let items = item_embeddings(&self.state);
            let index = TaxoIndex::build(
                &items,
                self.state.taxonomy.as_ref(),
                &self.item_tags,
                config,
            )
            .map_err(|e| CheckpointError::Invalid(format!("retrieval index: {e}")))?;
            index.parts().clone()
        };
        self.index = Some(parts);
        Ok(self)
    }

    /// Serializes to the `.taxo` wire format (header + payload + CRC).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut p = Writer::new();
        let flags = self.write_payload(&mut p);
        seal_container(flags, p.into_bytes())
    }

    /// The wire identity [`Checkpoint::to_bytes`] would produce, taken
    /// without holding the bytes: the payload streams through a
    /// checksum-only writer, so sealing costs no copy of the model.
    pub fn seal(&self) -> ArtifactInfo {
        let mut p = Writer::digest();
        self.write_payload(&mut p);
        let (len, crc) = p.finish_digest();
        ArtifactInfo {
            version: FORMAT_VERSION,
            crc,
            bytes: (HEADER_LEN + TRAILER_LEN) as u64 + len,
        }
    }

    /// Writes the payload; returns the header flags it needs.
    fn write_payload(&self, p: &mut Writer) -> u16 {
        p.put_str(&self.state.name);
        write_config(p, &self.state.config);
        p.put_bool(self.state.tags_active);
        for m in [
            &self.state.u_ir,
            &self.state.v_ir,
            &self.state.u_tg,
            &self.state.v_tg,
            &self.state.t_p,
        ] {
            write_matrix(p, m);
        }
        p.put_f64s(&self.state.alphas);
        match &self.state.taxonomy {
            None => p.put_bool(false),
            Some(taxo) => {
                p.put_bool(true);
                write_taxonomy(p, taxo);
            }
        }
        p.put_usize(self.tag_names.len());
        for name in &self.tag_names {
            p.put_str(name);
        }
        p.put_usize(self.item_tags.len());
        for tags in &self.item_tags {
            p.put_u32s(tags);
        }
        p.put_usize(self.seen_items.len());
        for items in &self.seen_items {
            p.put_u32s(items);
        }
        let mut flags = 0;
        if let Some(parts) = &self.index {
            flags |= FLAG_RETRIEVAL_INDEX;
            write_index(p, parts);
        }
        if let Some(cursor) = self.journal_cursor {
            flags |= FLAG_JOURNAL_CURSOR;
            p.put_u64(cursor);
        }
        flags
    }

    /// Parses and fully validates an artifact.
    ///
    /// # Errors
    /// See [`CheckpointError`] — each failure mode is distinguished.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let Container {
            version,
            flags,
            crc,
            payload,
        } = parse_container(bytes)?;
        if flags & FLAG_TRAIN_STATE != 0 {
            return Err(CheckpointError::Corrupt(
                "this is a training checkpoint (resume state), not a serving artifact — \
                 load it with TrainCheckpoint / --resume"
                    .to_string(),
            ));
        }
        if flags & !(FLAG_RETRIEVAL_INDEX | FLAG_JOURNAL_CURSOR) != 0 {
            return Err(CheckpointError::Corrupt(format!(
                "reserved header flags are nonzero ({flags:#06x})"
            )));
        }

        let mut r = Reader::new(payload);
        let name = r.get_str("model name")?;
        let config = read_config(&mut r)?;
        let tags_active = r.get_bool("tags_active flag")?;
        let u_ir = read_matrix(&mut r, "u_ir")?;
        let v_ir = read_matrix(&mut r, "v_ir")?;
        let u_tg = read_matrix(&mut r, "u_tg")?;
        let v_tg = read_matrix(&mut r, "v_tg")?;
        let t_p = read_matrix(&mut r, "t_p")?;
        let alphas = r.get_f64s("alpha weights")?;
        let taxonomy = if r.get_bool("taxonomy presence flag")? {
            Some(read_taxonomy(&mut r)?)
        } else {
            None
        };
        let n_names = r.get_len(8, "tag name count")?;
        let mut tag_names = Vec::with_capacity(n_names);
        for i in 0..n_names {
            tag_names.push(r.get_str(&format!("tag name {i}"))?);
        }
        let n_item_rows = r.get_len(8, "item tag-list count")?;
        let mut item_tags = Vec::with_capacity(n_item_rows);
        for i in 0..n_item_rows {
            item_tags.push(r.get_u32s(&format!("tags of item {i}"))?);
        }
        let n_seen_rows = r.get_len(8, "seen-item list count")?;
        let mut seen_items = Vec::with_capacity(n_seen_rows);
        for u in 0..n_seen_rows {
            seen_items.push(r.get_u32s(&format!("seen items of user {u}"))?);
        }
        let index = if flags & FLAG_RETRIEVAL_INDEX != 0 {
            Some(read_index(&mut r)?)
        } else {
            None
        };
        let journal_cursor = if flags & FLAG_JOURNAL_CURSOR != 0 {
            Some(r.get_u64("journal cursor")?)
        } else {
            None
        };
        r.expect_end()?;

        let ckpt = Self {
            state: ModelState {
                name,
                config,
                tags_active,
                u_ir,
                v_ir,
                u_tg,
                v_tg,
                t_p,
                alphas,
                taxonomy,
            },
            tag_names,
            item_tags,
            seen_items,
            index,
            artifact: Some(ArtifactInfo {
                version,
                crc,
                bytes: bytes.len() as u64,
            }),
            journal_cursor,
        };
        ckpt.validate()?;
        Ok(ckpt)
    }

    /// Semantic validation of the decoded artifact: model dimension
    /// consistency plus serving-context bounds (seen/tag ids within the
    /// catalogue).
    pub fn validate(&self) -> Result<(), CheckpointError> {
        self.state.validate().map_err(CheckpointError::Invalid)?;
        let n_items = self.state.n_items();
        let n_users = self.state.n_users();
        let n_tags = self.state.n_tags() as u32;
        if !self.tag_names.is_empty() && self.tag_names.len() != n_tags as usize {
            return Err(CheckpointError::Invalid(format!(
                "{} tag names for {n_tags} tag embeddings",
                self.tag_names.len()
            )));
        }
        if !self.item_tags.is_empty() {
            if self.item_tags.len() != n_items {
                return Err(CheckpointError::Invalid(format!(
                    "{} item tag lists for {n_items} items",
                    self.item_tags.len()
                )));
            }
            for (v, tags) in self.item_tags.iter().enumerate() {
                if let Some(&t) = tags.iter().find(|&&t| t >= n_tags) {
                    return Err(CheckpointError::Invalid(format!(
                        "item {v} carries tag {t}, but only {n_tags} tags exist"
                    )));
                }
            }
        }
        if !self.seen_items.is_empty() {
            if self.seen_items.len() != n_users {
                return Err(CheckpointError::Invalid(format!(
                    "{} seen-item lists for {n_users} users",
                    self.seen_items.len()
                )));
            }
            for (u, items) in self.seen_items.iter().enumerate() {
                if let Some(&v) = items.iter().find(|&&v| v as usize >= n_items) {
                    return Err(CheckpointError::Invalid(format!(
                        "user {u} has seen item {v}, but only {n_items} items exist"
                    )));
                }
            }
        }
        if let Some(parts) = &self.index {
            parts
                .validate()
                .map_err(|e| CheckpointError::Invalid(format!("retrieval index: {e}")))?;
            let items = item_embeddings(&self.state);
            if parts.n_items != n_items {
                return Err(CheckpointError::Invalid(format!(
                    "retrieval index covers {} items, model has {n_items}",
                    parts.n_items
                )));
            }
            if parts.ambient_ir != items.ambient_ir || parts.ambient_tg != items.ambient_tg {
                return Err(CheckpointError::Invalid(format!(
                    "retrieval index dimensions ({}, {}) disagree with the model ({}, {})",
                    parts.ambient_ir, parts.ambient_tg, items.ambient_ir, items.ambient_tg
                )));
            }
        }
        Ok(())
    }

    /// Writes the artifact atomically: serialize to `<path>.tmp`, then
    /// rename over `path`, so a crash mid-write never leaves a truncated
    /// artifact under the final name.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let bytes = self.to_bytes();
        write_atomic(path.as_ref(), &bytes)?;
        taxorec_telemetry::counter("serve.checkpoint.saved").inc(1);
        taxorec_telemetry::gauge("serve.checkpoint.bytes").set(bytes.len() as f64);
        Ok(())
    }

    /// Reads and validates an artifact from disk.
    pub fn load_file(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)
            .map_err(|e| CheckpointError::Io(format!("read {}: {e}", path.display())))?;
        let ckpt = Self::from_bytes(&bytes)?;
        taxorec_telemetry::counter("serve.checkpoint.loaded").inc(1);
        Ok(ckpt)
    }
}

/// Saves a bare model snapshot (no dataset context) to `path`.
///
/// For a fully featured serving artifact — tag names for explanations,
/// train-item exclusion — go through [`Checkpoint::from_model`] with
/// [`Checkpoint::with_dataset`] and [`Checkpoint::with_seen_items`].
pub fn save(model: &TaxoRec, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    Checkpoint::from_model(model).save(path)
}

/// Loads an artifact from `path` and builds the online query engine.
pub fn load(path: impl AsRef<Path>) -> Result<ServingModel, CheckpointError> {
    ServingModel::new(Checkpoint::load_file(path)?)
}

/// A resumable mid-training snapshot in the `.taxo` container
/// ([`FLAG_TRAIN_STATE`] set in the header flags).
///
/// Written periodically by `taxorec-serve train-demo --checkpoint-every`
/// and read back by `--resume`; the payload is exactly a
/// [`TrainState`] — raw parameters, RNG words, learning-rate scale, loss
/// history, and the last-rebuild taxonomy — so a resumed run continues
/// **bit-identically** (see `taxorec_core::fit_control`).
#[derive(Clone, Debug)]
pub struct TrainCheckpoint {
    /// The resumable training state.
    pub state: TrainState,
}

impl TrainCheckpoint {
    /// Wraps a captured training state.
    pub fn new(state: TrainState) -> Self {
        Self { state }
    }

    /// Serializes to the `.taxo` wire format with [`FLAG_TRAIN_STATE`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let s = &self.state;
        let mut p = Writer::new();
        write_config(&mut p, &s.config);
        p.put_usize(s.next_epoch);
        for &w in &s.rng_state {
            p.put_u64(w);
        }
        p.put_f64(s.lr_scale);
        p.put_usize(s.rollbacks);
        for m in [&s.u_ir, &s.v_ir, &s.u_tg, &s.t_p] {
            write_matrix(&mut p, m);
        }
        p.put_f64s(&s.loss_history);
        match &s.taxonomy {
            None => p.put_bool(false),
            Some(taxo) => {
                p.put_bool(true);
                write_taxonomy(&mut p, taxo);
            }
        }
        seal_container(FLAG_TRAIN_STATE, p.into_bytes())
    }

    /// Parses and validates a training checkpoint.
    ///
    /// # Errors
    /// See [`CheckpointError`]; a serving artifact (flags without
    /// [`FLAG_TRAIN_STATE`]) is rejected with a pointed message.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let Container { flags, payload, .. } = parse_container(bytes)?;
        if flags & FLAG_TRAIN_STATE == 0 {
            return Err(CheckpointError::Corrupt(
                "this is a serving artifact, not a training checkpoint — \
                 pass it to `serve`/`inspect` instead of --resume"
                    .to_string(),
            ));
        }
        if flags != FLAG_TRAIN_STATE {
            return Err(CheckpointError::Corrupt(format!(
                "unknown header flag bits ({flags:#06x})"
            )));
        }
        let mut r = Reader::new(payload);
        let config = read_config(&mut r)?;
        let next_epoch = r.get_usize("next_epoch")?;
        let mut rng_state = [0u64; 4];
        for (i, w) in rng_state.iter_mut().enumerate() {
            *w = r.get_u64(&format!("rng word {i}"))?;
        }
        let lr_scale = r.get_f64("lr_scale")?;
        let rollbacks = r.get_usize("rollback count")?;
        let u_ir = read_matrix(&mut r, "u_ir")?;
        let v_ir = read_matrix(&mut r, "v_ir")?;
        let u_tg = read_matrix(&mut r, "u_tg")?;
        let t_p = read_matrix(&mut r, "t_p")?;
        let loss_history = r.get_f64s("loss history")?;
        let taxonomy = if r.get_bool("taxonomy presence flag")? {
            Some(read_taxonomy(&mut r)?)
        } else {
            None
        };
        r.expect_end()?;
        let state = TrainState {
            config,
            next_epoch,
            rng_state,
            lr_scale,
            rollbacks,
            u_ir,
            v_ir,
            u_tg,
            t_p,
            loss_history,
            taxonomy,
        };
        state.validate().map_err(CheckpointError::Invalid)?;
        Ok(Self { state })
    }

    /// Writes the checkpoint atomically (tmp + rename), like
    /// [`Checkpoint::save`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let bytes = self.to_bytes();
        write_atomic(path.as_ref(), &bytes)?;
        taxorec_telemetry::counter("resilience.train_checkpoint.saved").inc(1);
        taxorec_telemetry::gauge("resilience.train_checkpoint.bytes").set(bytes.len() as f64);
        Ok(())
    }

    /// Reads and validates a training checkpoint from disk.
    pub fn load_file(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)
            .map_err(|e| CheckpointError::Io(format!("read {}: {e}", path.display())))?;
        let ckpt = Self::from_bytes(&bytes)?;
        taxorec_telemetry::counter("resilience.train_checkpoint.loaded").inc(1);
        Ok(ckpt)
    }
}

/// Wraps `payload` in the shared `.taxo` container: header (magic,
/// version, `flags`, length) + payload + CRC-32 trailer.
fn seal_container(flags: u16, payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let crc = crc32(&payload);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// A validated container: header fields plus the checksummed payload.
struct Container<'a> {
    version: u16,
    flags: u16,
    crc: u32,
    payload: &'a [u8],
}

/// Validates the container framing (magic, version, length, checksum)
/// and returns the header fields plus the checksummed payload slice.
fn parse_container(bytes: &[u8]) -> Result<Container<'_>, CheckpointError> {
    let minimum = HEADER_LEN + TRAILER_LEN;
    if bytes.len() < minimum {
        return Err(CheckpointError::TooShort {
            found: bytes.len(),
            minimum,
        });
    }
    if bytes[0..4] != MAGIC {
        return Err(CheckpointError::BadMagic {
            found: bytes[0..4].try_into().unwrap(),
        });
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
    if version == 0 || version > FORMAT_VERSION {
        return Err(CheckpointError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let flags = u16::from_le_bytes(bytes[6..8].try_into().unwrap());
    let payload_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let expected = (HEADER_LEN as u64)
        .saturating_add(payload_len)
        .saturating_add(TRAILER_LEN as u64);
    let expected = usize::try_from(expected).map_err(|_| CheckpointError::Truncated {
        expected: usize::MAX,
        found: bytes.len(),
    })?;
    if bytes.len() < expected {
        return Err(CheckpointError::Truncated {
            expected,
            found: bytes.len(),
        });
    }
    if bytes.len() > expected {
        return Err(CheckpointError::Corrupt(format!(
            "{} trailing bytes after the checksum",
            bytes.len() - expected
        )));
    }
    let payload = &bytes[HEADER_LEN..expected - TRAILER_LEN];
    let stored = u32::from_le_bytes(bytes[expected - TRAILER_LEN..expected].try_into().unwrap());
    let computed = crc32(payload);
    if stored != computed {
        return Err(CheckpointError::ChecksumMismatch { stored, computed });
    }
    Ok(Container {
        version,
        flags,
        crc: computed,
        payload,
    })
}

/// Atomic write shared by both checkpoint kinds: serialize to
/// `<path>.tmp`, then rename over `path`, so a crash mid-write never
/// leaves a truncated artifact under the final name. Probes the
/// `checkpoint.save` fault site first, so `TAXOREC_FAULT=io@checkpoint.save:2`
/// deterministically fails the second save.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    if let Some(msg) = taxorec_resilience::inject_io("checkpoint.save") {
        return Err(CheckpointError::Io(msg));
    }
    let tmp = path.with_extension("taxo.tmp");
    std::fs::write(&tmp, bytes)
        .map_err(|e| CheckpointError::Io(format!("write {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        CheckpointError::Io(format!(
            "rename {} -> {}: {e}",
            tmp.display(),
            path.display()
        ))
    })
}

fn write_matrix(w: &mut Writer, m: &Matrix) {
    w.put_usize(m.rows());
    w.put_usize(m.cols());
    for &v in m.data() {
        w.put_f64(v);
    }
}

fn read_matrix(r: &mut Reader, what: &str) -> Result<Matrix, CheckpointError> {
    let rows = r.get_usize(&format!("{what} row count"))?;
    let cols = r.get_usize(&format!("{what} column count"))?;
    let n = rows
        .checked_mul(cols)
        .ok_or_else(|| CheckpointError::Corrupt(format!("{what}: {rows}×{cols} overflows")))?;
    if n.checked_mul(8).is_none_or(|b| b > r.remaining()) {
        return Err(CheckpointError::Corrupt(format!(
            "{what}: declared shape {rows}×{cols} exceeds the remaining payload"
        )));
    }
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        data.push(r.get_f64(what)?);
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

/// Writes the training config. Three slots hold what were once options
/// and are now constants of the trainer — `einstein_local`, `max_radius`
/// and `hard_negative_pool` — so the layout is unchanged; [`read_config`]
/// refuses any other value in them.
fn write_config(w: &mut Writer, c: &TaxoRecConfig) {
    w.put_usize(c.dim_ir);
    w.put_usize(c.dim_tag);
    w.put_usize(c.gcn_layers);
    w.put_f64(c.margin);
    w.put_f64(c.lambda);
    w.put_usize(c.taxo_k);
    w.put_f64(c.taxo_delta);
    w.put_usize(c.taxo_rebuild_every);
    w.put_f64(c.taxo_warmup_frac);
    w.put_u8(match c.taxo_seeding {
        Seeding::PlusPlus => 0,
        Seeding::Uniform => 1,
    });
    w.put_usize(c.taxo_max_depth);
    w.put_usize(c.taxo_min_node);
    w.put_bool(c.use_aggregation);
    w.put_bool(c.use_tags);
    w.put_bool(RETIRED_EINSTEIN_LOCAL);
    w.put_f64(c.lr);
    w.put_f64(c.lr_tag_mult);
    w.put_usize(c.epochs);
    w.put_usize(c.negatives);
    w.put_f64(c.tag_channel_gain);
    w.put_bool(c.soft_hinge);
    w.put_bool(true);
    w.put_f64(MAX_RADIUS);
    w.put_usize(RETIRED_HARD_NEGATIVE_POOL);
    w.put_usize(c.batch_size);
    w.put_u64(c.seed);
}

/// The `config.einstein_local` slot: the Einstein midpoint is the only
/// local aggregation.
const RETIRED_EINSTEIN_LOCAL: bool = true;
/// The `config.hard_negative_pool` slot: negatives are drawn uniformly.
const RETIRED_HARD_NEGATIVE_POOL: usize = 0;

/// Refuses a retired config slot that holds anything but the one value
/// this build trains with, naming the field.
fn expect_retired<T: PartialEq + std::fmt::Debug>(
    field: &str,
    found: T,
    only: T,
) -> Result<(), CheckpointError> {
    if found == only {
        Ok(())
    } else {
        Err(CheckpointError::Invalid(format!(
            "{field} is {found:?}, but this build only trains with {only:?}"
        )))
    }
}

fn read_config(r: &mut Reader) -> Result<TaxoRecConfig, CheckpointError> {
    Ok(TaxoRecConfig {
        dim_ir: r.get_usize("config.dim_ir")?,
        dim_tag: r.get_usize("config.dim_tag")?,
        gcn_layers: r.get_usize("config.gcn_layers")?,
        margin: r.get_f64("config.margin")?,
        lambda: r.get_f64("config.lambda")?,
        taxo_k: r.get_usize("config.taxo_k")?,
        taxo_delta: r.get_f64("config.taxo_delta")?,
        taxo_rebuild_every: r.get_usize("config.taxo_rebuild_every")?,
        taxo_warmup_frac: r.get_f64("config.taxo_warmup_frac")?,
        taxo_seeding: match r.get_u8("config.taxo_seeding")? {
            0 => Seeding::PlusPlus,
            1 => Seeding::Uniform,
            v => {
                return Err(CheckpointError::Corrupt(format!(
                    "config.taxo_seeding: unknown variant tag {v}"
                )))
            }
        },
        taxo_max_depth: r.get_usize("config.taxo_max_depth")?,
        taxo_min_node: r.get_usize("config.taxo_min_node")?,
        use_aggregation: r.get_bool("config.use_aggregation")?,
        use_tags: r.get_bool("config.use_tags")?,
        lr: {
            let f = "config.einstein_local";
            expect_retired(f, r.get_bool(f)?, RETIRED_EINSTEIN_LOCAL)?;
            r.get_f64("config.lr")?
        },
        lr_tag_mult: r.get_f64("config.lr_tag_mult")?,
        epochs: r.get_usize("config.epochs")?,
        negatives: r.get_usize("config.negatives")?,
        tag_channel_gain: r.get_f64("config.tag_channel_gain")?,
        soft_hinge: r.get_bool("config.soft_hinge")?,
        batch_size: {
            let f = "config.max_radius";
            let radius = if r.get_bool("config.max_radius presence")? {
                Some(r.get_f64(f)?)
            } else {
                None
            };
            expect_retired(f, radius, Some(MAX_RADIUS))?;
            let f = "config.hard_negative_pool";
            expect_retired(f, r.get_usize(f)?, RETIRED_HARD_NEGATIVE_POOL)?;
            r.get_usize("config.batch_size")?
        },
        seed: r.get_u64("config.seed")?,
    })
}

/// The model's item embeddings as the scorer's and the retrieval
/// index's input ([`taxorec_core::export::item_embeddings`]). Index
/// construction and cache rebuilds at load time all go through this one
/// view, so they can never disagree about dimensions.
pub(crate) fn item_embeddings(state: &ModelState) -> ItemEmbeddings<'_> {
    taxorec_core::export::item_embeddings(state.tags_active, &state.v_ir, &state.v_tg)
}

fn write_index(w: &mut Writer, p: &IndexParts) {
    w.put_usize(p.config.max_leaf);
    w.put_usize(p.config.branch);
    w.put_usize(p.config.beam);
    w.put_usize(p.config.kmeans_iters);
    w.put_u64(p.config.seed);
    w.put_usize(p.n_items);
    w.put_usize(p.ambient_ir);
    w.put_usize(p.ambient_tg);
    w.put_u32s(&p.child_lo);
    w.put_u32s(&p.child_hi);
    w.put_u32s(&p.start);
    w.put_u32s(&p.end);
    w.put_u32s(&p.level);
    w.put_u32s(&p.item_ids);
    w.put_f64s(&p.cent_ir);
    w.put_f64s(&p.cent_tg);
    w.put_f64s(&p.radius_ir);
    w.put_f64s(&p.radius_tg);
}

fn read_index(r: &mut Reader) -> Result<IndexParts, CheckpointError> {
    let config = IndexConfig {
        max_leaf: r.get_usize("index config.max_leaf")?,
        branch: r.get_usize("index config.branch")?,
        beam: r.get_usize("index config.beam")?,
        kmeans_iters: r.get_usize("index config.kmeans_iters")?,
        seed: r.get_u64("index config.seed")?,
    };
    Ok(IndexParts {
        config,
        n_items: r.get_usize("index item count")?,
        ambient_ir: r.get_usize("index ir dimension")?,
        ambient_tg: r.get_usize("index tag dimension")?,
        child_lo: r.get_u32s("index child_lo")?,
        child_hi: r.get_u32s("index child_hi")?,
        start: r.get_u32s("index start")?,
        end: r.get_u32s("index end")?,
        level: r.get_u32s("index level")?,
        item_ids: r.get_u32s("index item permutation")?,
        cent_ir: r.get_f64s("index ir centroids")?,
        cent_tg: r.get_f64s("index tag centroids")?,
        radius_ir: r.get_f64s("index ir radii")?,
        radius_tg: r.get_f64s("index tag radii")?,
    })
}

fn write_taxonomy(w: &mut Writer, taxo: &Taxonomy) {
    let nodes = taxo.nodes();
    w.put_usize(nodes.len());
    for node in nodes {
        w.put_u32s(&node.tags);
        w.put_u32s(&node.retained);
        w.put_f64s(&node.scores);
        w.put_usize(node.children.len());
        for &c in &node.children {
            w.put_usize(c);
        }
        match node.parent {
            None => w.put_bool(false),
            Some(p) => {
                w.put_bool(true);
                w.put_usize(p);
            }
        }
        w.put_usize(node.level);
    }
}

fn read_taxonomy(r: &mut Reader) -> Result<Taxonomy, CheckpointError> {
    let n = r.get_len(1, "taxonomy node count")?;
    let mut nodes = Vec::with_capacity(n);
    for i in 0..n {
        let what = format!("taxonomy node {i}");
        let tags = r.get_u32s(&what)?;
        let retained = r.get_u32s(&what)?;
        let scores = r.get_f64s(&what)?;
        let n_children = r.get_len(8, &what)?;
        let mut children = Vec::with_capacity(n_children);
        for _ in 0..n_children {
            children.push(r.get_usize(&what)?);
        }
        let parent = if r.get_bool(&what)? {
            Some(r.get_usize(&what)?)
        } else {
            None
        };
        let level = r.get_usize(&what)?;
        nodes.push(TaxoNode {
            tags,
            retained,
            scores,
            children,
            parent,
            level,
        });
    }
    Taxonomy::from_nodes(nodes).map_err(CheckpointError::Invalid)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Offsets of the retired slots from the start of the config section:
    /// `einstein_local` follows nine 8-byte fields, the seeding tag, two
    /// 8-byte fields and two flags; the `max_radius` presence byte follows
    /// five 8-byte fields and the hinge flag after it; then its `f64`, then
    /// `hard_negative_pool`.
    const EINSTEIN_LOCAL_AT: usize = 9 * 8 + 1 + 2 * 8 + 2;
    const MAX_RADIUS_AT: usize = EINSTEIN_LOCAL_AT + 1 + 5 * 8 + 1;
    const HARD_NEGATIVE_POOL_AT: usize = MAX_RADIUS_AT + 1 + 8;

    type Decode = fn(&[u8]) -> Result<Vec<u8>, CheckpointError>;

    /// A sealed serving artifact and a sealed training checkpoint of a
    /// two-user, three-item model, each with its decoder (which re-encodes
    /// what it read) and the payload offset of its config section.
    fn sealed_artifacts() -> [(&'static str, Vec<u8>, Decode, usize); 2] {
        let config = TaxoRecConfig::fast_test();
        let cols = config.dim_ir + 1;
        let state = ModelState {
            name: "t".to_string(),
            config: config.clone(),
            tags_active: false,
            u_ir: Matrix::zeros(2, cols),
            v_ir: Matrix::zeros(3, cols),
            u_tg: Matrix::zeros(0, 0),
            v_tg: Matrix::zeros(0, 0),
            t_p: Matrix::zeros(0, 0),
            alphas: vec![0.0; 2],
            taxonomy: None,
        };
        let serving = Checkpoint {
            state,
            tag_names: Vec::new(),
            item_tags: Vec::new(),
            seen_items: Vec::new(),
            index: None,
            artifact: None,
            journal_cursor: None,
        };
        let train = TrainCheckpoint::new(TrainState {
            config,
            next_epoch: 0,
            rng_state: [1, 2, 3, 4],
            lr_scale: 1.0,
            rollbacks: 0,
            u_ir: Matrix::zeros(2, cols),
            v_ir: Matrix::zeros(3, cols),
            u_tg: Matrix::zeros(0, 0),
            t_p: Matrix::zeros(0, 0),
            loss_history: Vec::new(),
            taxonomy: None,
        });
        [
            (
                "serving artifact",
                serving.to_bytes(),
                |b| Checkpoint::from_bytes(b).map(|c| c.to_bytes()),
                8 + serving.state.name.len(),
            ),
            (
                "training checkpoint",
                train.to_bytes(),
                |b| TrainCheckpoint::from_bytes(b).map(|c| c.to_bytes()),
                0,
            ),
        ]
    }

    #[test]
    fn retired_config_slots_are_refused() {
        for (kind, sealed, decode, config_at) in sealed_artifacts() {
            assert_eq!(decode(&sealed).as_ref(), Ok(&sealed), "{kind} round-trips");
            let flags = u16::from_le_bytes([sealed[6], sealed[7]]);
            let payload = &sealed[HEADER_LEN..sealed.len() - TRAILER_LEN];
            let [einstein, radius, pool] =
                [EINSTEIN_LOCAL_AT, MAX_RADIUS_AT, HARD_NEGATIVE_POOL_AT].map(|at| config_at + at);
            assert_eq!(payload[einstein], 1, "{kind}: einstein_local written true");
            assert_eq!(payload[radius], 1, "{kind}: max_radius written present");
            assert_eq!(payload[radius + 1..radius + 9], MAX_RADIUS.to_le_bytes());
            assert_eq!(payload[pool..pool + 8], 0u64.to_le_bytes());

            // Replaces `len` payload bytes at `at` with `with`, then reseals.
            let patched = |at: usize, len: usize, with: &[u8]| {
                let mut p = payload.to_vec();
                p.splice(at..at + len, with.iter().copied());
                seal_container(flags, p)
            };
            for (field, bytes) in [
                (
                    "config.hard_negative_pool",
                    patched(pool, 8, &3u64.to_le_bytes()),
                ),
                ("config.einstein_local", patched(einstein, 1, &[0])),
                ("config.max_radius", patched(radius, 9, &[0])),
                (
                    "config.max_radius",
                    patched(radius + 1, 8, &3.0f64.to_le_bytes()),
                ),
            ] {
                let err = decode(&bytes).expect_err(field).to_string();
                assert!(err.contains(field), "{kind}: {err}");
            }
        }
    }
}
