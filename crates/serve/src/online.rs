//! Streaming ingestion: the bounded interaction journal, the `/ingest`
//! body format, and the incremental-update loop that folds journaled
//! interactions into the serving model between ticks (DESIGN.md §17).
//!
//! ```text
//! POST /ingest ──▶ Journal (bounded) ──▶ updater thread, every tick:
//!                                          drain ≤ batch
//!                                          clone the master (one copy)
//!                                          fold (incremental RSGD,
//!                                                tag attach, index patch)
//!                                          seal (streamed CRC)
//!                                          ServingModel over the clone
//!                                          ModelSlot::swap  ─▶ serving
//! ```
//!
//! The updater keeps the *master* [`Checkpoint`] behind the same `Arc`
//! the served model holds, and no thread mutates a published
//! checkpoint: a tick folds into a fresh clone, which becomes the next
//! master and the next model. Serving threads only ever see immutable
//! [`ServingModel`]s swapped in through the same [`ModelSlot`] path as
//! `/admin/reload`, so failover/chaos guarantees carry over unchanged
//! and every swap starts with a cold response cache (the old model's
//! cached rankings can never leak across model generations).
//!
//! Determinism: the fold is strictly per-interaction (see
//! `taxorec_core::incremental`), tag-name→id allocation is sequential
//! in journal order, taxonomy grafts and drift-triggered rebuilds fire
//! at fixed journal positions, and the retrieval index is patched
//! per-interaction — so replaying the same journal from the same base
//! checkpoint reproduces the artifact byte-for-byte, at any thread
//! count and any tick batching.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use taxorec_core::incremental::{
    apply_interactions, grown_rows, reserve_rows, IncrementalConfig, Interaction, Rows,
};
use taxorec_retrieval::TaxoIndex;
use taxorec_taxonomy::{attach_tag, construct_taxonomy};
use taxorec_telemetry::env;
use taxorec_telemetry::json::{self, Value};

use crate::checkpoint::{item_embeddings, Checkpoint};

/// Tuning of the ingestion path. [`IngestOptions::from_env`] reads
/// `TAXOREC_INGEST`, `TAXOREC_INGEST_TICK_MS` and
/// `TAXOREC_INGEST_CHECKPOINT`; [`Default`] ignores the environment and
/// leaves ingestion **disabled**.
#[derive(Clone, Debug)]
pub struct IngestOptions {
    /// Accept `POST /ingest` and run the updater thread.
    /// Env: `TAXOREC_INGEST=1` (set by `taxorec-serve serve --ingest`).
    pub enabled: bool,
    /// Update-tick interval: how often the journal is drained and the
    /// model rebuilt + swapped. Env: `TAXOREC_INGEST_TICK_MS`.
    pub tick: Duration,
    /// Grafted-tag count that triggers a full Algorithm-1 taxonomy
    /// rebuild (and index rebuild) to reconcile accumulated drift.
    pub drift_limit: u64,
    /// When set, every tick's artifact is persisted here atomically, so
    /// a restart resumes from the last folded state (journal cursor
    /// included). Env: `TAXOREC_INGEST_CHECKPOINT`.
    pub checkpoint_path: Option<std::path::PathBuf>,
}

impl Default for IngestOptions {
    fn default() -> Self {
        Self {
            enabled: false,
            tick: Duration::from_millis(1000),
            drift_limit: 64,
            checkpoint_path: None,
        }
    }
}

impl IngestOptions {
    /// Defaults overridden by the `TAXOREC_INGEST*` variables where set
    /// and parseable.
    pub fn from_env() -> Self {
        let d = Self::default();
        Self {
            enabled: env::<String>("TAXOREC_INGEST").as_deref() == Some("1"),
            tick: env::<u64>("TAXOREC_INGEST_TICK_MS")
                .map_or(d.tick, |ms| Duration::from_millis(ms.max(10))),
            checkpoint_path: env("TAXOREC_INGEST_CHECKPOINT"),
            ..d
        }
    }
}

/// One streamed interaction as posted to `/ingest`: ids for user and
/// item (never-seen ids grow the model), tags by display name
/// (never-seen names are allocated ids and grafted into the taxonomy).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IngestInteraction {
    /// User id.
    pub user: u32,
    /// Item id.
    pub item: u32,
    /// Tag names annotating the interaction.
    pub tags: Vec<String>,
}

/// The bounded interaction journal between `/ingest` and the updater.
///
/// `accepted` / `applied` are *journal cursors*: monotone counts of
/// interactions ever accepted / folded, both starting at the base
/// checkpoint's cursor. `accepted − applied` is the staleness
/// `/healthz` reports. A single updater thread is
/// the only consumer, which makes `applied` safe to use as the fold's
/// base cursor.
pub struct Journal {
    q: Mutex<VecDeque<IngestInteraction>>,
    accepted: AtomicU64,
    applied: AtomicU64,
    cap: usize,
}

impl Journal {
    /// An empty journal with both cursors at `base_cursor` (the cursor
    /// stored in the checkpoint being served, or 0).
    pub fn new(cap: usize, base_cursor: u64) -> Self {
        Self {
            q: Mutex::new(VecDeque::new()),
            accepted: AtomicU64::new(base_cursor),
            applied: AtomicU64::new(base_cursor),
            cap: cap.max(1),
        }
    }

    /// Appends a batch, all-or-nothing. `Err(queued)` when the batch
    /// does not fit (caller answers `503 + Retry-After`).
    pub fn push_batch(&self, batch: Vec<IngestInteraction>) -> Result<usize, usize> {
        let n = batch.len();
        let mut q = self.q.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() + n > self.cap {
            return Err(q.len());
        }
        q.extend(batch);
        drop(q);
        self.accepted.fetch_add(n as u64, Ordering::SeqCst);
        Ok(n)
    }

    /// Removes and returns up to `max` interactions, oldest first.
    pub fn drain(&self, max: usize) -> Vec<IngestInteraction> {
        let mut q = self.q.lock().unwrap_or_else(|e| e.into_inner());
        let n = max.min(q.len());
        q.drain(..n).collect()
    }

    /// Records `n` more interactions as folded into the serving model.
    pub fn mark_applied(&self, n: u64) {
        self.applied.fetch_add(n, Ordering::SeqCst);
    }

    /// Interactions currently queued.
    pub fn len(&self) -> usize {
        self.q.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Always check [`Journal::len`]; a journal is routinely empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Journal capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total interactions ever accepted (cursor units).
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::SeqCst)
    }

    /// Total interactions folded into the serving model (cursor units).
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::SeqCst)
    }

    /// Accepted-but-not-yet-served interaction count.
    pub fn staleness(&self) -> u64 {
        self.accepted().saturating_sub(self.applied())
    }
}

// ---------------------------------------------------------------------
// `POST /ingest` body parsing
// ---------------------------------------------------------------------

/// The id in field `what` of `interactions[i]`.
fn as_id(v: Option<&Value>, i: usize, what: &str) -> Result<u32, String> {
    let v = v.ok_or_else(|| format!("interactions[{i}] missing \"{what}\""))?;
    v.as_u64()
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| format!("{what} must be a non-negative integer id"))
}

/// Parses a `POST /ingest` body:
/// `{"interactions":[{"user":N,"item":N,"tags":["name",…]},…]}`
/// (`tags` optional per interaction; unknown keys ignored).
pub fn parse_ingest_body(body: &str) -> Result<Vec<IngestInteraction>, String> {
    let top = json::parse(body)?;
    let Value::Obj(_) = top else {
        return Err("body must be a JSON object with an \"interactions\" array".into());
    };
    let Some(Value::Arr(raw)) = top.get("interactions") else {
        return Err("missing \"interactions\" array".into());
    };
    let mut out = Vec::with_capacity(raw.len());
    for (i, e) in raw.iter().enumerate() {
        let Value::Obj(_) = e else {
            return Err(format!("interactions[{i}] is not an object"));
        };
        let user = as_id(e.get("user"), i, "user")?;
        let item = as_id(e.get("item"), i, "item")?;
        let tags = match e.get("tags") {
            None | Some(Value::Null) => Vec::new(),
            Some(Value::Arr(ts)) => {
                let mut tags = Vec::with_capacity(ts.len());
                for t in ts {
                    match t {
                        Value::Str(s) if !s.is_empty() => tags.push(s.clone()),
                        _ => {
                            return Err(format!("interactions[{i}].tags must be non-empty strings"))
                        }
                    }
                }
                tags
            }
            Some(_) => return Err(format!("interactions[{i}].tags must be an array")),
        };
        out.push(IngestInteraction { user, item, tags });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// The fold: journal → checkpoint
// ---------------------------------------------------------------------

/// What one [`fold_batch`] call did to the checkpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FoldReport {
    /// Interactions folded (including deterministically skipped ones).
    pub applied: usize,
    /// Interactions skipped by the hostile-id growth guard.
    pub dropped: usize,
    /// User/item/tag rows grown.
    pub new_users: usize,
    /// Item rows grown (also patched into the retrieval index).
    pub new_items: usize,
    /// Tag rows grown (each grafted into the taxonomy).
    pub new_tags: usize,
    /// Tags grafted by placement attachment.
    pub attached: usize,
    /// Full Algorithm-1 taxonomy (+ index) rebuilds triggered by drift.
    pub rebuilds: usize,
    /// Journal cursor after the fold.
    pub cursor: u64,
}

/// One journaled interaction as [`fold_batch`] will apply it.
struct Planned {
    /// Tag names resolved to ids, or why the growth guard drops it.
    step: Result<Interaction, String>,
    /// Names it appends to `tag_names`, in id order: its never-seen
    /// names, then placeholders for gap rows below a grown tag id.
    new_names: Vec<String>,
}

/// Plans folding `batch` into `ckpt` without touching it: resolves tag
/// names to ids in journal order (never-seen names take the next ids)
/// and applies the growth guard per interaction
/// ([`taxorec_core::incremental::grown_rows`]); a dropped interaction
/// allocates no id. Returns the plan and the row counts the fold ends
/// with.
fn plan_batch(
    ckpt: &Checkpoint,
    batch: &[IngestInteraction],
    cfg: &IncrementalConfig,
) -> (Vec<Planned>, Rows) {
    // Name→id index mirroring `ckpt.tag_names` positions (first
    // occurrence wins, matching what a linear scan would resolve).
    // Lookups only, so determinism is untouched — it just replaces the
    // per-tag O(n_tags) scan that made tick latency grow with the
    // catalogue.
    let mut name_index: HashMap<String, u32> = HashMap::with_capacity(ckpt.tag_names.len());
    for (id, name) in ckpt.tag_names.iter().enumerate() {
        name_index.entry(name.clone()).or_insert(id as u32);
    }
    let mut names = ckpt.tag_names.len();
    let mut rows = Rows::of(&ckpt.state);
    let plan = batch
        .iter()
        .map(|raw| {
            // Fresh names enter the index immediately, so a name repeated
            // within one interaction resolves to a single id instead of
            // allocating a phantom placeholder row.
            let mut new_names = Vec::new();
            let mut tags = Vec::with_capacity(raw.tags.len());
            for name in &raw.tags {
                let id = match name_index.get(name.as_str()) {
                    Some(&id) => id,
                    None => {
                        let id = (names + new_names.len()) as u32;
                        name_index.insert(name.clone(), id);
                        new_names.push(name.clone());
                        id
                    }
                };
                tags.push(id);
            }
            let one = Interaction {
                user: raw.user,
                item: raw.item,
                tags,
            };
            match grown_rows(rows, ckpt.state.tags_active, &one, cfg) {
                Ok(grown) => {
                    rows = grown;
                    names += new_names.len();
                    while names < rows.tags {
                        let name = format!("tag{names}");
                        name_index.entry(name.clone()).or_insert(names as u32);
                        new_names.push(name);
                        names += 1;
                    }
                    Planned {
                        step: Ok(one),
                        new_names,
                    }
                }
                Err(e) => {
                    // The model will not grow; the speculative id
                    // allocations must not survive the drop either.
                    for name in &new_names {
                        name_index.remove(name.as_str());
                    }
                    Planned {
                        step: Err(e),
                        new_names: Vec::new(),
                    }
                }
            }
        })
        .collect();
    (plan, rows)
}

/// Folds `batch` into `ckpt` strictly per-interaction, in journal
/// order, starting at the checkpoint's journal cursor:
///
/// 1. tag names resolve to ids (never-seen names are allocated the next
///    id, sequentially — so the id assignment is a function of the
///    journal prefix);
/// 2. one incremental RSGD step
///    ([`taxorec_core::incremental::apply_interactions`]), growing
///    matrices for never-seen ids;
/// 3. serving context (`item_tags`, `seen_items`) is updated;
/// 4. each never-seen tag is **grafted** into the taxonomy by
///    hyperbolic placement ([`taxorec_taxonomy::attach_tag`]),
///    incrementing `drift`;
/// 5. when `drift` reaches [`IngestOptions::drift_limit`], the taxonomy
///    is rebuilt from scratch with Algorithm 1 and the retrieval index
///    with it (reconciliation), and `drift` resets;
/// 6. never-seen items are patched into the retrieval index
///    ([`taxorec_retrieval::IndexParts::append_items`]) without a
///    rebuild.
///
/// An interaction rejected by the growth guard is *skipped
/// deterministically* (the cursor still advances), so a hostile id
/// cannot wedge the stream or desynchronize a replay.
///
/// `drift` is the caller-threaded graft counter (start at 0 for a fresh
/// base checkpoint); threading it across calls is what makes chunked
/// folding bit-identical to one whole-journal fold.
///
/// The matrices' final row counts for the batch are reserved once up
/// front, so growing a row appends in place (capacity only; the bits
/// are those of an unreserved fold).
///
/// On `Err` the checkpoint (and `drift`) may hold a *partially applied*
/// batch whose journal cursor has **not** been advanced — callers must
/// fold into a copy they can discard and restore `drift` before folding
/// anything else, or replay from the persisted cursor will desync.
pub fn fold_batch(
    ckpt: &mut Checkpoint,
    batch: &[IngestInteraction],
    opts: &IngestOptions,
    drift: &mut u64,
) -> Result<FoldReport, String> {
    let mut report = FoldReport {
        cursor: ckpt.journal_cursor.unwrap_or(0),
        ..FoldReport::default()
    };
    if batch.is_empty() {
        return Ok(report);
    }
    let inc_cfg = IncrementalConfig {
        seed: ckpt.state.config.seed,
        ..IncrementalConfig::default()
    };
    // Serving context must stay length-consistent with the growing
    // model (checkpoint validation requires all-or-nothing lists), so
    // materialize placeholders once ingestion starts.
    if ckpt.tag_names.is_empty() && ckpt.state.n_tags() > 0 {
        ckpt.tag_names = (0..ckpt.state.n_tags())
            .map(|t| format!("tag{t}"))
            .collect();
    }
    if ckpt.item_tags.is_empty() {
        ckpt.item_tags = vec![Vec::new(); ckpt.state.n_items()];
    }
    if ckpt.seen_items.is_empty() {
        ckpt.seen_items = vec![Vec::new(); ckpt.state.n_users()];
    }
    // 1. Resolve tag names and apply the growth guard for the whole
    // batch, then reserve its final row counts once: each grown row
    // then appends in place instead of copying its matrix.
    let (plan, rows) = plan_batch(ckpt, batch, &inc_cfg);
    reserve_rows(&mut ckpt.state, rows, &inc_cfg);

    for (raw, planned) in batch.iter().zip(plan) {
        let cursor = report.cursor;
        report.cursor += 1;
        report.applied += 1;
        let one = match planned.step {
            Ok(one) => one,
            Err(e) => {
                report.dropped += 1;
                taxorec_telemetry::counter("serve.ingest.dropped").inc(1);
                taxorec_telemetry::sink::warn(&format!(
                    "ingest: interaction at cursor {cursor} dropped: {e}"
                ));
                continue;
            }
        };

        // 2. Incremental RSGD (grows matrices for never-seen ids; the
        // plan already passed the growth guard).
        let r = apply_interactions(
            &mut ckpt.state,
            cursor,
            std::slice::from_ref(&one),
            &inc_cfg,
        )?;
        report.new_users += r.new_users;
        report.new_items += r.new_items;
        report.new_tags += r.new_tags;

        // 3. Serving context follows the growth. The plan's names land
        // at exactly the ids it resolved (both count up from the same
        // length).
        ckpt.tag_names.extend(planned.new_names);
        ckpt.item_tags.resize(ckpt.state.n_items(), Vec::new());
        ckpt.seen_items.resize(ckpt.state.n_users(), Vec::new());
        let it = &mut ckpt.item_tags[raw.item as usize];
        for &t in &one.tags {
            if let Err(at) = it.binary_search(&t) {
                it.insert(at, t);
            }
        }
        let seen = &mut ckpt.seen_items[raw.user as usize];
        if let Err(at) = seen.binary_search(&raw.item) {
            seen.insert(at, raw.item);
        }

        if !ckpt.state.tags_active {
            continue;
        }
        let dim_tag = ckpt.state.config.dim_tag;

        // 4. Graft never-seen tags (each exactly once, even when the
        // interaction repeats a fresh name); 5. rebuild on accumulated
        // drift. Fresh ids are exactly the rows the model grew by.
        let first_new = ckpt.state.n_tags() - r.new_tags;
        for t in first_new as u32..ckpt.state.n_tags() as u32 {
            if let Some(taxo) = ckpt.state.taxonomy.as_mut() {
                match attach_tag(taxo, t, ckpt.state.t_p.data(), dim_tag) {
                    Ok(_) => {
                        report.attached += 1;
                        *drift += 1;
                        taxorec_telemetry::counter("serve.ingest.attached").inc(1);
                    }
                    Err(e) => {
                        taxorec_telemetry::sink::warn(&format!("ingest: tag {t} not attached: {e}"))
                    }
                }
            }
        }
        let mut rebuilt = false;
        if *drift >= opts.drift_limit && ckpt.state.taxonomy.is_some() {
            let taxo = construct_taxonomy(
                ckpt.state.t_p.data(),
                dim_tag,
                ckpt.state.n_tags(),
                &ckpt.item_tags,
                &ckpt.state.config.construct_config(),
            );
            ckpt.state.taxonomy = Some(taxo);
            *drift = 0;
            rebuilt = true;
            report.rebuilds += 1;
            taxorec_telemetry::counter("serve.ingest.rebuilds").inc(1);
        }

        // 6. Retrieval index: patch new items in; rebuild with the
        // taxonomy when reconciliation fired (node ids churned).
        if let Some(parts) = ckpt.index.as_mut() {
            if rebuilt {
                let mut index_cfg = parts.config;
                // A derived default beam is derived again for the new
                // tree, whose leaf count has moved.
                if parts.beam_is_derived() {
                    index_cfg.beam = 0;
                }
                let items = item_embeddings(&ckpt.state);
                match TaxoIndex::build(
                    &items,
                    ckpt.state.taxonomy.as_ref(),
                    &ckpt.item_tags,
                    &index_cfg,
                ) {
                    Ok(index) => *parts = index.parts().clone(),
                    Err(e) => {
                        // Keep the old (still-valid) tree rather than
                        // dropping sub-linear retrieval entirely.
                        taxorec_telemetry::sink::warn(&format!(
                            "ingest: index rebuild failed, keeping the patched tree: {e}"
                        ));
                        let items = item_embeddings(&ckpt.state);
                        parts.append_items(&items)?;
                    }
                }
            } else if r.new_items > 0 {
                let items = item_embeddings(&ckpt.state);
                parts.append_items(&items)?;
            }
        }
    }
    // Index patch-in for runs without a tag channel (the loop above
    // short-circuits before step 6 when tags are inactive).
    if !ckpt.state.tags_active {
        if let Some(parts) = ckpt.index.as_mut() {
            let items = item_embeddings(&ckpt.state);
            parts.append_items(&items)?;
        }
    }

    ckpt.journal_cursor = Some(report.cursor);
    taxorec_telemetry::counter("serve.ingest.applied")
        .inc((report.applied - report.dropped) as u64);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_ingest_body() {
        let body = r#"{"interactions":[
            {"user":3,"item":7,"tags":["rock","jazz \"live\""]},
            {"item":2,"user":0},
            {"user":1,"item":4,"tags":[],"note":"ignored"}
        ]}"#;
        let got = parse_ingest_body(body).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].user, 3);
        assert_eq!(
            got[0].tags,
            vec!["rock".to_string(), "jazz \"live\"".to_string()]
        );
        assert_eq!(
            got[1],
            IngestInteraction {
                user: 0,
                item: 2,
                tags: vec![]
            }
        );
        assert!(got[2].tags.is_empty());
    }

    #[test]
    fn rejects_malformed_bodies() {
        for bad in [
            "",
            "[]",
            "{\"interactions\":3}",
            "{}",
            "{\"interactions\":[{\"user\":1}]}",
            "{\"interactions\":[{\"user\":-1,\"item\":0}]}",
            "{\"interactions\":[{\"user\":1.5,\"item\":0}]}",
            "{\"interactions\":[{\"user\":1,\"item\":0,\"tags\":[3]}]}",
            "{\"interactions\":[]} trailing",
            "{\"interactions\":[{\"user\":4294967296,\"item\":0}]}",
            "{\"interactions\":[{\"user\":1.,\"item\":0}]}",
            "{\"interactions\":[{\"user\":1.e0,\"item\":0}]}",
        ] {
            assert!(parse_ingest_body(bad).is_err(), "accepted: {bad:?}");
        }
    }

    /// Regression: a body of repeated `[`/`{` must be rejected by the
    /// depth bound, not recurse once per byte — unbounded recursion
    /// overflows the worker stack and aborts the whole process (stack
    /// overflow is not an unwindable panic).
    #[test]
    fn rejects_deeply_nested_bodies_without_recursing() {
        let bombs = [
            "[".repeat(200_000),
            "{\"interactions\":".repeat(100_000),
            format!("{{\"interactions\":[{}", "[".repeat(200_000)),
        ];
        for bomb in &bombs {
            let err = parse_ingest_body(bomb).unwrap_err();
            assert!(err.contains("nesting too deep"), "{err}");
        }
        // Ordinary bodies sit far below the bound.
        let ok = r#"{"interactions":[{"user":1,"item":2,"tags":["a"]}]}"#;
        assert!(parse_ingest_body(ok).is_ok());
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let body = "{\"interactions\":[{\"user\":1,\"item\":2,\"tags\":[\"a\\u00e9\\n\",\"emoji \\ud83d\\ude00\",\"naïve\"]}]}";
        let got = parse_ingest_body(body).unwrap();
        assert_eq!(got[0].tags[0], "aé\n");
        assert_eq!(got[0].tags[1], "emoji 😀");
        assert_eq!(got[0].tags[2], "naïve");
    }

    #[test]
    fn a_dropped_interaction_reserves_no_rows() {
        use taxorec_core::{TaxoRec, TaxoRecConfig};
        use taxorec_data::{generate_preset, Preset, Recommender, Scale, Split};
        let d = generate_preset(Preset::Ciao, Scale::Tiny);
        let s = Split::standard(&d);
        let mut cfg = TaxoRecConfig::fast_test();
        cfg.epochs = 1;
        let mut m = TaxoRec::new(cfg);
        m.fit(&d, &s);
        let mut ckpt = Checkpoint::from_model(&m).with_dataset(&d);
        let (users, items, tags) = (d.n_users as u32, d.n_items as u32, d.n_tags);
        let known = ckpt.tag_names[0].clone();
        let batch = vec![
            IngestInteraction {
                user: users,
                item: 0,
                tags: vec!["fresh-a".into(), known.clone(), "fresh-a".into()],
            },
            IngestInteraction {
                user: 4_000_000_000,
                item: items,
                tags: vec!["fresh-dropped".into()],
            },
            IngestInteraction {
                user: 0,
                item: items + 1,
                tags: vec!["fresh-b".into(), "fresh-a".into()],
            },
        ];
        let opts = IngestOptions::default();
        let (plan, rows) = plan_batch(&ckpt, &batch, &IncrementalConfig::default());
        // The hostile user counts for nothing; its item and tag neither.
        let expected = Rows {
            users: d.n_users + 1,
            items: d.n_items + 2,
            tags: tags + 2,
        };
        assert_eq!(rows, expected);
        assert!(plan[1].step.is_err() && plan[1].new_names.is_empty());
        assert_eq!(plan[0].new_names, ["fresh-a"]);
        assert_eq!(plan[2].new_names, ["fresh-b"]);
        let b = plan[2].step.as_ref().unwrap();
        assert_eq!(b.tags, [tags as u32 + 1, tags as u32], "ids skip the drop");
        let report = fold_batch(&mut ckpt, &batch, &opts, &mut 0).unwrap();
        assert_eq!(report.dropped, 1);
        assert_eq!(Rows::of(&ckpt.state), rows);
        assert_eq!(ckpt.tag_names[tags..], ["fresh-a", "fresh-b"]);
    }

    /// A drift rebuild whose tree grows past 128 leaves widens a beam the
    /// first build derived, and keeps one the first build was given.
    #[test]
    fn a_drift_rebuild_derives_the_beam_again_only_when_the_build_did() {
        use taxorec_core::{TaxoRec, TaxoRecConfig};
        use taxorec_data::{generate_preset, Preset, Recommender, Scale, Split};
        use taxorec_retrieval::{derived_beam, IndexConfig};
        let d = generate_preset(Preset::Ciao, Scale::Tiny);
        let s = Split::standard(&d);
        let mut cfg = TaxoRecConfig::fast_test();
        cfg.epochs = 1;
        let mut m = TaxoRec::new(cfg);
        m.fit(&d, &s);
        // Grow the catalogue past 128 one-item leaves, every item with a
        // fresh tag, so the drift limit fires on the last interaction.
        let fresh = 140usize.saturating_sub(d.n_items).max(8);
        let batch: Vec<IngestInteraction> = (0..fresh)
            .map(|i| IngestInteraction {
                user: (i % d.n_users) as u32,
                item: (d.n_items + i) as u32,
                tags: vec![format!("grown-{i}")],
            })
            .collect();
        let opts = IngestOptions {
            drift_limit: fresh as u64,
            ..IngestOptions::default()
        };
        for (asked, kept) in [(0, None), (5, Some(5))] {
            let config = IndexConfig {
                max_leaf: 1,
                beam: asked,
                ..IndexConfig::default()
            };
            let mut ckpt = Checkpoint::from_model(&m)
                .with_dataset(&d)
                .with_retrieval_index(&config)
                .unwrap();
            let before = ckpt.index.as_ref().unwrap();
            assert!(before.n_leaves() <= 128, "{} leaves", before.n_leaves());
            assert_eq!(before.config.beam, kept.unwrap_or(8));
            let report = fold_batch(&mut ckpt, &batch, &opts, &mut 0).unwrap();
            assert_eq!(report.rebuilds, 1, "{report:?}");
            let after = ckpt.index.as_ref().unwrap();
            assert!(after.n_leaves() > 128, "{} leaves", after.n_leaves());
            let want = kept.unwrap_or(derived_beam(after.n_leaves()));
            assert_eq!(after.config.beam, want, "asked for {asked}");
        }
        assert!(derived_beam(129) > 8);
    }

    #[test]
    fn journal_enforces_capacity_all_or_nothing() {
        let j = Journal::new(3, 10);
        let mk = |n: usize| {
            (0..n)
                .map(|i| IngestInteraction {
                    user: i as u32,
                    item: 0,
                    tags: vec![],
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(j.push_batch(mk(2)), Ok(2));
        assert_eq!(j.push_batch(mk(2)), Err(2), "over capacity: rejected whole");
        assert_eq!(j.len(), 2, "rejected batch left no residue");
        assert_eq!(j.push_batch(mk(1)), Ok(1));
        assert_eq!(j.accepted(), 13);
        assert_eq!(j.staleness(), 3);
        let drained = j.drain(2);
        assert_eq!(drained.len(), 2);
        assert_eq!(j.len(), 1);
        j.mark_applied(2);
        assert_eq!(j.applied(), 12);
        assert_eq!(j.staleness(), 1);
    }

    #[test]
    fn ingest_options_env_round_trip() {
        // Only defaults here (env mutation belongs to integration
        // tests); from_env on a clean env must equal Default except for
        // whatever the ambient environment actually sets.
        let d = IngestOptions::default();
        assert!(!d.enabled);
        assert!(d.tick >= Duration::from_millis(10));
    }
}
