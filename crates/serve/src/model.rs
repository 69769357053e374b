//! The online query engine: an immutable [`ServingModel`] answering
//! top-K recommendation and explanation queries from a checkpoint.
//!
//! Design follows the offline-train / online-serve split of Chamberlain
//! et al.'s "Scalable Hyperbolic Recommender Systems": the hyperbolic
//! embeddings are learned offline, frozen into a compact artifact, and
//! queried online through Lorentz-distance scoring with heap-based
//! partial top-K selection — a full sorted ranking of the catalogue is
//! never materialized.
//!
//! Scoring is **bit-identical** to the live [`TaxoRec`] model: the same
//! `g(u,v) = d²(u_ir, v_ir) + gain·α_u·d²(u_tg, v_tg)` (Eqs. 16–17)
//! evaluated in the same operation order on the same bit-exact floats.
//!
//! A bounded LRU cache keyed on `(user, k)` absorbs repeated queries
//! (hit/miss counters land in `taxorec-telemetry` as `serve.cache.*`);
//! an entry keeps its ranking and, once the HTTP tier asks for it, its
//! rendered `/recommend` body. Batched multi-user queries fan out over
//! `taxorec-parallel`.
//!
//! When the artifact carries a retrieval index
//! ([`Checkpoint::with_retrieval_index`]) the engine can serve
//! [`RetrievalMode::Beam`] queries: a beam search over the index routes
//! each anchor to a handful of clusters and fused-scores only their
//! items — sub-linear in the catalogue, with recall governed by the beam
//! width (beam = all leaves reproduces the exhaustive ranking bit for
//! bit). The mode is fixed at construction ([`ServingModel::with_retrieval`])
//! because the response cache is keyed on `(user, k)` only; the default
//! is [`RetrievalMode::Exact`], which preserves the pre-index behavior
//! exactly.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use taxorec_core::{TaxoRec, TaxoRecConfig};
use taxorec_data::{Anchor, Dataset, Scorer, Split};
use taxorec_geometry::{convert, lorentz};
use taxorec_retrieval::{RetrievalMode, TaxoIndex};
use taxorec_taxonomy::Taxonomy;
use taxorec_telemetry::{held_counter, json::push_f64};

use crate::checkpoint::{item_embeddings, ArtifactInfo, Checkpoint, CheckpointError};
use crate::lru::LruCache;

/// Default bound on the response cache (distinct `(user, k)` entries).
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Users per fused scoring block in [`ServingModel::recommend_many`] —
/// the block size the multi-anchor kernels are tuned for (DESIGN.md
/// §12) and the default `max_batch` of the serving-tier scheduler.
pub const SERVE_BLOCK: usize = 32;

/// A query against an entity the model does not know.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// User id outside `0..n_users`.
    UnknownUser {
        /// The requested user.
        user: u32,
        /// Number of users the model was trained on.
        n_users: usize,
    },
    /// Item id outside `0..n_items`.
    UnknownItem {
        /// The requested item.
        item: u32,
        /// Catalogue size.
        n_items: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownUser { user, n_users } => {
                write!(f, "unknown user {user} (model has {n_users} users)")
            }
            Self::UnknownItem { item, n_items } => {
                write!(f, "unknown item {item} (catalogue has {n_items} items)")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// One tag of an item, ranked by proximity to the user's tag-relevant
/// embedding (the Table V "closest tags" signal).
#[derive(Clone, Debug)]
pub struct TagAffinity {
    /// Tag id.
    pub tag: u32,
    /// Display name (`tag<N>` placeholder when the artifact carried no
    /// names).
    pub name: String,
    /// Lorentz distance from the user's tag-relevant embedding to the
    /// tag lifted onto the hyperboloid — smaller is closer.
    pub distance: f64,
}

/// Why an item was recommended to a user: its score decomposition and the
/// taxonomy neighborhood of the user's closest item tag.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// The queried user.
    pub user: u32,
    /// The queried item.
    pub item: u32,
    /// The model score (higher is better; negated joint distance).
    pub score: f64,
    /// Personalized tag weight `α_u` of this user (Eq. 16).
    pub alpha: f64,
    /// The item's tags ranked by proximity to the user (closest first).
    /// Empty when the artifact carried no item-tag lists or the tag
    /// channel is inactive.
    pub item_tags: Vec<TagAffinity>,
    /// Depth of the taxonomy node where the closest tag resides
    /// (`None` without a taxonomy or item tags).
    pub node_level: Option<usize>,
    /// Display names of the tags retained at that node — the "topic"
    /// the recommendation is rooted in.
    pub node_tags: Vec<String>,
}

/// A shared, immutable recommendation list: `(item, score)` best first.
pub type Ranking = Arc<Vec<(u32, f64)>>;

/// One response-cache entry: the ranking of a `(user, k)` query and, once
/// the serving tier asks for it, its `/recommend` body. The body is
/// rendered at most once per entry: by the scorer that ranked it when the
/// HTTP tier ranked it, on first use when the entry came from the library
/// API. A hit copies it; it never renders again.
pub(crate) struct Answer {
    user: u32,
    k: usize,
    items: Ranking,
    body: OnceLock<Arc<str>>,
}

impl Answer {
    fn new(user: u32, k: usize, items: Ranking) -> Arc<Self> {
        Arc::new(Self {
            user,
            k,
            items,
            body: OnceLock::new(),
        })
    }

    /// The `/recommend` success body, rendered on the first call.
    pub(crate) fn body(&self) -> Arc<str> {
        let body = self
            .body
            .get_or_init(|| recommend_body(self.user, self.k, &self.items).into());
        Arc::clone(body)
    }
}

/// The `/recommend` success body — the one renderer, so a hit and a
/// freshly ranked miss are the same bytes. The capacity holds items
/// whose score prints in up to 27 characters, as a distance-based score
/// does, so the body is written in one allocation; a longer score (`f64`
/// prints without an exponent) only grows the string.
fn recommend_body(user: u32, k: usize, items: &[(u32, f64)]) -> String {
    let mut body = String::with_capacity(66 + items.len() * 56);
    let _ = write!(body, "{{\"user\":{user},\"k\":{k},\"items\":[");
    for (i, &(item, score)) in items.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(body, "{{\"item\":{item},\"score\":");
        push_f64(&mut body, score);
        body.push('}');
    }
    body.push_str("]}");
    body
}

/// Response-cache key for a `(user, k)` query. Total: every distinct
/// `k` maps to a distinct key (`usize` embeds losslessly in `u64`), so
/// two different huge `k` values can never alias one cached `Ranking`.
/// The HTTP layer additionally rejects absurd `k` at parse time; this
/// keeps direct API callers safe too.
fn cache_key(user: u32, k: usize) -> (u32, u64) {
    (user, k as u64)
}

/// An immutable, thread-safe top-K query engine over a trained model.
///
/// The engine shares its [`Checkpoint`] behind an `Arc` and never
/// mutates it: the streaming updater keeps the same `Arc` as its master
/// copy, so a served generation costs one copy of the model, not two.
pub struct ServingModel {
    ckpt: Arc<Checkpoint>,
    /// Sorted, deduplicated copies of the seen-item lists that arrive
    /// unsorted or with duplicates (train-set exclusion binary-searches
    /// them). Empty in the common case; the shared checkpoint keeps its
    /// lists as they are, because its bytes are its identity.
    sorted_seen: BTreeMap<usize, Vec<u32>>,
    /// The fused scorer over the item embeddings. The model is
    /// immutable, so it is built once at construction and never
    /// invalidated (DESIGN.md §12).
    scorer: Scorer,
    /// Retrieval index rebuilt from the artifact's [`IndexParts`]
    /// section (`None` when the artifact carries none).
    ///
    /// [`IndexParts`]: taxorec_retrieval::IndexParts
    index: Option<TaxoIndex>,
    /// How `recommend` generates candidates; fixed at construction.
    retrieval: RetrievalMode,
    cache: Mutex<LruCache<(u32, u64), Arc<Answer>>>,
}

impl ServingModel {
    /// Builds the engine from a validated checkpoint with the default
    /// cache capacity.
    pub fn new(ckpt: Checkpoint) -> Result<Self, CheckpointError> {
        Self::with_cache_capacity(ckpt, DEFAULT_CACHE_CAPACITY)
    }

    /// Builds the engine with an explicit response-cache bound
    /// (`0` disables caching). The checkpoint may be shared: the
    /// streaming updater passes the `Arc` it keeps as its master copy.
    pub fn with_cache_capacity(
        ckpt: impl Into<Arc<Checkpoint>>,
        cache_capacity: usize,
    ) -> Result<Self, CheckpointError> {
        let ckpt = ckpt.into();
        ckpt.validate()?;
        let sorted_seen = ckpt
            .seen_items
            .iter()
            .enumerate()
            .filter(|(_, items)| !items.windows(2).all(|w| w[0] < w[1]))
            .map(|(user, items)| {
                let mut items = items.clone();
                items.sort_unstable();
                items.dedup();
                (user, items)
            })
            .collect();
        let items = item_embeddings(&ckpt.state);
        let scorer = Scorer::build(&items);
        // Rebuild the index's permuted scorer from the model embeddings
        // (the artifact stores structure only).
        let index = ckpt
            .index
            .clone()
            .map(|parts| {
                TaxoIndex::from_parts(parts, &items)
                    .map_err(|e| CheckpointError::Invalid(format!("retrieval index: {e}")))
            })
            .transpose()?;
        // Register the retrieval series up front so `/metrics` shows
        // them (at zero) even before the first beam query.
        taxorec_telemetry::gauge("serve.retrieval.recall_mode").set(0.0);
        taxorec_telemetry::counter("serve.retrieval.candidates");
        Ok(Self {
            ckpt,
            sorted_seen,
            scorer,
            index,
            retrieval: RetrievalMode::Exact,
            cache: Mutex::new(LruCache::new(cache_capacity)),
        })
    }

    /// Selects how `recommend` / `recommend_many` generate candidates.
    /// [`RetrievalMode::Beam`] requires the artifact to carry a
    /// retrieval index; `Beam(0)` takes the index's build-time default
    /// beam width. The choice is fixed for the engine's lifetime — the
    /// response cache is keyed on `(user, k)` only, so entries must all
    /// come from one mode.
    pub fn with_retrieval(mut self, mode: RetrievalMode) -> Result<Self, CheckpointError> {
        if matches!(mode, RetrievalMode::Beam(_)) && self.index.is_none() {
            return Err(CheckpointError::Invalid(
                "beam retrieval requested, but the artifact carries no retrieval index — \
                 rebuild the checkpoint with one (train-demo --index) or serve with \
                 --retrieval exact"
                    .to_string(),
            ));
        }
        // Resolve `Beam(0)` to the index's default width up front so
        // every downstream surface (banner, /healthz, telemetry) shows
        // the width actually in effect, not the `0` sentinel.
        self.retrieval = match (mode, &self.index) {
            (RetrievalMode::Beam(0), Some(index)) => RetrievalMode::Beam(index.default_beam()),
            (m, _) => m,
        };
        // `recall_mode` gauge: 0 = exact, otherwise the effective beam
        // width — so dashboards can tell at a glance whether ranking is
        // exhaustive or approximate.
        taxorec_telemetry::gauge("serve.retrieval.recall_mode")
            .set(self.beam_width().unwrap_or(0) as f64);
        Ok(self)
    }

    /// Convenience for tests and in-process serving: snapshot a trained
    /// model together with its dataset context, skipping the disk round
    /// trip.
    pub fn from_model(
        model: &TaxoRec,
        dataset: &Dataset,
        split: &Split,
    ) -> Result<Self, CheckpointError> {
        Self::new(
            Checkpoint::from_model(model)
                .with_dataset(dataset)
                .with_seen_items(&split.train),
        )
    }

    /// Model display name (e.g. `"TaxoRec"`).
    pub fn name(&self) -> &str {
        &self.ckpt.state.name
    }

    /// Number of users the model can serve.
    pub fn n_users(&self) -> usize {
        self.ckpt.state.n_users()
    }

    /// Catalogue size.
    pub fn n_items(&self) -> usize {
        self.ckpt.state.n_items()
    }

    /// Number of tags with learned embeddings.
    pub fn n_tags(&self) -> usize {
        self.ckpt.state.n_tags()
    }

    /// The training configuration frozen into the artifact.
    pub fn config(&self) -> &TaxoRecConfig {
        &self.ckpt.state.config
    }

    /// The taxonomy constructed at train time, if any.
    pub fn taxonomy(&self) -> Option<&Taxonomy> {
        self.ckpt.state.taxonomy.as_ref()
    }

    /// The active candidate-generation mode.
    pub fn retrieval_mode(&self) -> RetrievalMode {
        self.retrieval
    }

    /// The retrieval index rebuilt from the artifact, if it carried one.
    pub fn retrieval_index(&self) -> Option<&TaxoIndex> {
        self.index.as_ref()
    }

    /// Wire identity (format version, CRC-32, size) of the `.taxo`
    /// artifact this engine serves: the one it was loaded from, or the
    /// streaming updater's seal of its generation; `None` for an engine
    /// built from an in-process model that never crossed the wire.
    pub fn artifact_info(&self) -> Option<ArtifactInfo> {
        self.ckpt.artifact
    }

    /// Journal position folded into this engine (`None` = offline
    /// artifact, no streaming history).
    pub fn journal_cursor(&self) -> Option<u64> {
        self.ckpt.journal_cursor
    }

    /// The checkpoint this engine serves, shared, never mutated.
    pub(crate) fn checkpoint(&self) -> &Arc<Checkpoint> {
        &self.ckpt
    }

    /// User `u`'s seen items, sorted and deduplicated.
    fn seen(&self, u: usize) -> &[u32] {
        match self.sorted_seen.get(&u) {
            Some(items) => items,
            None => self.ckpt.seen_items.get(u).map_or(&[], Vec::as_slice),
        }
    }

    /// Effective beam width: `None` in exact mode, the resolved width
    /// (request or index default) in beam mode.
    fn beam_width(&self) -> Option<usize> {
        match (self.retrieval, &self.index) {
            (RetrievalMode::Beam(b), Some(index)) => {
                Some(if b == 0 { index.default_beam() } else { b })
            }
            _ => None,
        }
    }

    /// The `k` best unseen items for `user`, best first, with scores.
    ///
    /// Items from the user's training history (when the artifact carries
    /// seen-item lists) are excluded. Results are memoized in the LRU
    /// response cache; `serve.cache.hit` / `serve.cache.miss` count the
    /// outcomes. A miss is a [`ServingModel::recommend_many`] batch of
    /// one — there is a single scoring path. The `score` span (with the
    /// fused ranking under `kernel`) is inert unless the ambient request
    /// is sampled.
    pub fn recommend(&self, user: u32, k: usize) -> Result<Ranking, ServeError> {
        if (user as usize) < self.n_users() {
            if let Some(hit) = self.cached(user, k) {
                return Ok(hit);
            }
        }
        let _score_span = taxorec_telemetry::trace::child_span("score");
        self.recommend_many(&[(user, k)])
            .pop()
            .expect("one answer per query")
    }

    /// Probes the response cache for `(user, k)` without scoring,
    /// counting the outcome in `serve.cache.hit` / `serve.cache.miss`.
    /// The serving tier's parser workers use this to answer hot keys
    /// without routing them through the batch scheduler.
    pub fn cached(&self, user: u32, k: usize) -> Option<Ranking> {
        self.cached_answer(user, k)
            .map(|hit| Arc::clone(&hit.items))
    }

    /// [`ServingModel::cached`] with the entry's body: what a parser
    /// worker answers a hit with.
    pub(crate) fn cached_answer(&self, user: u32, k: usize) -> Option<Arc<Answer>> {
        let _cache_span = taxorec_telemetry::trace::child_span("cache");
        match self.probe(cache_key(user, k)) {
            Some(hit) => {
                held_counter!("serve.cache.hit").inc(1);
                Some(hit)
            }
            None => {
                held_counter!("serve.cache.miss").inc(1);
                None
            }
        }
    }

    /// [`ServingModel::cached_answer`] for a thread that answers only
    /// hits (the acceptor's inline path): a hit is counted in
    /// `serve.cache.hit` and spanned `cache`; a miss is left silent for
    /// the worker that serves it, so each miss is counted once.
    pub(crate) fn cached_hit(&self, user: u32, k: usize) -> Option<Arc<Answer>> {
        let probing = Instant::now();
        let hit = self.probe(cache_key(user, k))?;
        held_counter!("serve.cache.hit").inc(1);
        let ctx = taxorec_telemetry::trace::current();
        taxorec_telemetry::trace::emit_span_at("cache", ctx, probing, Instant::now());
        Some(hit)
    }

    /// Silent cache probe (no counters, no span): the batched path
    /// re-probes right before scoring — a concurrent identical request
    /// may have filled the entry while this one waited in the queue —
    /// and that second look must not double-count the miss the HTTP
    /// layer already recorded.
    fn probe(&self, key: (u32, u64)) -> Option<Arc<Answer>> {
        self.cache.lock().unwrap().get(&key).map(Arc::clone)
    }

    /// Answers a heterogeneous batch of `(user, k)` queries in one call —
    /// the one cache-miss path of the engine. Misses are grouped into
    /// user-blocks of [`SERVE_BLOCK`]; each block streams the item panels
    /// **once** for all its users through the fused ranking of
    /// [`Scorer`], which finishes and offers to each query's top-K
    /// selection only the items that can still enter it.
    ///
    /// Result order matches `queries`; each entry fails independently
    /// (an unknown user does not poison the batch), and duplicates and
    /// mixed `k` are fine — every query gets its own accumulator.
    ///
    /// **Batch-shape independent and exact**: per `(user, item)` pair the
    /// kernel runs the scalar loop's arithmetic (DESIGN.md §12), pruning
    /// only withholds items that provably rank below the `k`-th, and the
    /// accumulator is insertion-order independent — so every entry is,
    /// bit for bit, the exhaustive scalar ranking of that `(user, k)`,
    /// whatever else shared its block. The tests check that against a
    /// kernel-free reference.
    pub fn recommend_many(&self, queries: &[(u32, usize)]) -> Vec<Result<Ranking, ServeError>> {
        self.answer_many(queries, false)
            .into_iter()
            .map(|answer| answer.map(|a| Arc::clone(&a.items)))
            .collect()
    }

    /// [`ServingModel::recommend_many`] with each query's cache entry.
    /// With `render` every entry this call ranks gets its `/recommend`
    /// body before it enters the cache, so a later hit only copies it.
    pub(crate) fn answer_many(
        &self,
        queries: &[(u32, usize)],
        render: bool,
    ) -> Vec<Result<Arc<Answer>, ServeError>> {
        let mut out: Vec<Option<Result<Arc<Answer>, ServeError>>> = Vec::new();
        out.resize_with(queries.len(), || None);
        let mut misses: Vec<usize> = Vec::new();
        for (qi, &(user, k)) in queries.iter().enumerate() {
            if user as usize >= self.n_users() {
                out[qi] = Some(Err(ServeError::UnknownUser {
                    user,
                    n_users: self.n_users(),
                }));
            } else if let Some(hit) = self.probe(cache_key(user, k)) {
                out[qi] = Some(Ok(hit));
            } else {
                misses.push(qi);
            }
        }
        for block in misses.chunks(SERVE_BLOCK) {
            for (&qi, ranking) in block.iter().zip(self.score_block(queries, block)) {
                let (user, k) = queries[qi];
                let answer = Answer::new(user, k, Arc::new(ranking));
                if render {
                    answer.body();
                }
                // An evicted entry is freed after the lock is released.
                let _evicted = self
                    .cache
                    .lock()
                    .unwrap()
                    .put(cache_key(user, k), Arc::clone(&answer));
                out[qi] = Some(Ok(answer));
            }
        }
        out.into_iter()
            .map(|o| o.expect("every query answered"))
            .collect()
    }

    /// Ranks one block of known-user cache misses (`block` indexes into
    /// `queries`), each query with its own `k` and seen-item exclusion:
    /// one fused ranking pass over the catalogue in exact mode, batched
    /// routing through [`TaxoIndex::search_block`] in beam mode (each
    /// selected leaf streams once for all queries that chose it).
    fn score_block(&self, queries: &[(u32, usize)], block: &[usize]) -> Vec<Vec<(u32, f64)>> {
        let users: Vec<usize> = block.iter().map(|&qi| queries[qi].0 as usize).collect();
        let anchors: Vec<Anchor<'_>> = users.iter().map(|&u| self.anchor(u)).collect();
        let ks: Vec<usize> = block.iter().map(|&qi| queries[qi].1).collect();
        let seen: Vec<&[u32]> = users.iter().map(|&u| self.seen(u)).collect();
        let exclude = |pos: usize, item: u32| seen[pos].binary_search(&item).is_ok();
        let _kernel_span = taxorec_telemetry::trace::child_span("kernel");
        let (Some(beam), Some(index)) = (self.beam_width(), &self.index) else {
            return self.scorer.rank(&anchors, &ks, exclude);
        };
        // The index is queried at the block's largest `k` and each
        // result truncated to its own: a top-`k` list is a prefix of
        // the top-`k_max` list under the same total order.
        let k_max = ks.iter().copied().max().unwrap_or(0);
        let (mut results, stats) = index.search_block(&anchors, beam, k_max, &exclude);
        let candidates: usize = stats.iter().map(|st| st.candidates).sum();
        taxorec_telemetry::counter("serve.retrieval.candidates").inc(candidates as u64);
        for (ranking, &k) in results.iter_mut().zip(&ks) {
            ranking.truncate(k);
        }
        results
    }

    /// `user`'s side of Eq. 17, matching the scorer's channels.
    fn anchor(&self, user: usize) -> Anchor<'_> {
        let s = &self.ckpt.state;
        let u_tg = self.scorer.has_tag_channel().then_some(&s.u_tg);
        taxorec_core::export::anchor(&s.config, &s.alphas, &s.u_ir, u_tg, user)
    }

    /// Answers many users in one call: blocks of [`SERVE_BLOCK`] users
    /// run through the fused multi-anchor path
    /// ([`ServingModel::recommend_many`]), and multiple blocks fan out
    /// over the `taxorec-parallel` pool. Result order matches `users`;
    /// each entry fails independently — an unknown user yields its own
    /// `Err(`[`ServeError::UnknownUser`]`)` (the error the HTTP layer
    /// maps to `404`) without poisoning the rest of the batch.
    pub fn recommend_batch(&self, users: &[u32], k: usize) -> Vec<Result<Ranking, ServeError>> {
        let queries: Vec<(u32, usize)> = users.iter().map(|&u| (u, k)).collect();
        if queries.len() <= SERVE_BLOCK {
            return self.recommend_many(&queries);
        }
        let blocks: Vec<&[(u32, usize)]> = queries.chunks(SERVE_BLOCK).collect();
        taxorec_parallel::par_map("serve.batch", blocks.len(), |bi| {
            self.recommend_many(blocks[bi])
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Explains why `item` scores the way it does for `user`: the score,
    /// the user's `α_u`, the item's tags ranked by proximity to the
    /// user's tag-relevant embedding, and the taxonomy node the closest
    /// tag resides in.
    pub fn explain(&self, user: u32, item: u32) -> Result<Explanation, ServeError> {
        let u = user as usize;
        let v = item as usize;
        if u >= self.n_users() {
            return Err(ServeError::UnknownUser {
                user,
                n_users: self.n_users(),
            });
        }
        if v >= self.n_items() {
            return Err(ServeError::UnknownItem {
                item,
                n_items: self.n_items(),
            });
        }
        let s = &self.ckpt.state;
        let alpha = s.alphas.get(u).copied().unwrap_or(0.0);
        let score = self.anchor(u).score(item_embeddings(s).row(v));

        let mut item_tags = Vec::new();
        if s.tags_active && s.t_p.rows() > 0 {
            if let Some(tags) = self.ckpt.item_tags.get(v) {
                let dim = s.t_p.cols();
                let mut lift = vec![0.0; dim + 1];
                for &t in tags {
                    convert::poincare_to_lorentz(s.t_p.row(t as usize), &mut lift);
                    item_tags.push(TagAffinity {
                        tag: t,
                        name: self.tag_name(t),
                        distance: lorentz::distance(s.u_tg.row(u), &lift),
                    });
                }
                item_tags.sort_by(|a, b| {
                    a.distance
                        .total_cmp(&b.distance)
                        .then_with(|| a.tag.cmp(&b.tag))
                });
            }
        }

        let (node_level, node_tags) = match (&s.taxonomy, item_tags.first()) {
            (Some(taxo), Some(closest)) => {
                let node_idx = taxo.residence(closest.tag);
                let node = &taxo.nodes()[node_idx];
                (
                    Some(node.level),
                    node.retained.iter().map(|&t| self.tag_name(t)).collect(),
                )
            }
            _ => (None, Vec::new()),
        };

        Ok(Explanation {
            user,
            item,
            score,
            alpha,
            item_tags,
            node_level,
            node_tags,
        })
    }

    /// Current response-cache occupancy (entries, capacity).
    pub fn cache_usage(&self) -> (usize, usize) {
        let c = self.cache.lock().unwrap();
        (c.len(), c.capacity())
    }

    fn tag_name(&self, t: u32) -> String {
        self.ckpt
            .tag_names
            .get(t as usize)
            .cloned()
            .unwrap_or_else(|| format!("tag{t}"))
    }
}

/// A hot-swappable handle to the serving engine — the warm-reload seam.
///
/// Every pipeline stage (parser workers, the batch scorers)
/// resolves the model through its slot at the moment it needs one, so
/// an [`ModelSlot::swap`] takes effect for the *next* request while
/// every in-flight request keeps the `Arc` it already cloned. No lock
/// is held while scoring: `load` clones the `Arc` under a mutex held
/// for a pointer copy, and the old engine is dropped when its last
/// in-flight request finishes. That is what makes a shard checkpoint
/// reload zero-downtime: old and new model serve side by side for the
/// handover instant, and no request ever observes a half-loaded model.
pub struct ModelSlot {
    inner: Mutex<Arc<ServingModel>>,
}

impl ModelSlot {
    /// Wraps the initial engine.
    pub fn new(model: Arc<ServingModel>) -> Self {
        Self {
            inner: Mutex::new(model),
        }
    }

    /// The current engine (cheap: one mutex'd `Arc` clone).
    pub fn load(&self) -> Arc<ServingModel> {
        Arc::clone(&self.inner.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Atomically replaces the engine, returning the previous one.
    /// In-flight requests holding the old `Arc` finish on it.
    pub fn swap(&self, model: Arc<ServingModel>) -> Arc<ServingModel> {
        let mut slot = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::replace(&mut *slot, model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxorec_data::{generate_preset, select_top_k, Preset, Recommender, Scale};

    fn trained() -> (TaxoRec, Dataset, Split) {
        let d = generate_preset(Preset::Ciao, Scale::Tiny);
        let s = Split::standard(&d);
        let mut cfg = taxorec_core::TaxoRecConfig::fast_test();
        cfg.epochs = 6;
        let mut m = TaxoRec::new(cfg);
        m.fit(&d, &s);
        (m, d, s)
    }

    #[test]
    fn recommend_matches_live_model_and_excludes_seen() {
        let (m, d, s) = trained();
        let serving = ServingModel::from_model(&m, &d, &s).unwrap();
        for user in 0..d.n_users as u32 {
            let got = serving.recommend(user, 10).unwrap();
            let scores = m.scores_for_user(user);
            let seen: std::collections::HashSet<u32> =
                s.train[user as usize].iter().copied().collect();
            let expect = select_top_k(&scores, 10, |v| seen.contains(&(v as u32)));
            assert_eq!(*got, expect, "user {user}");
            for &(v, _) in got.iter() {
                assert!(!seen.contains(&v), "user {user} served seen item {v}");
            }
        }
    }

    #[test]
    fn cache_serves_identical_results_and_counts() {
        let (m, d, s) = trained();
        let serving = ServingModel::from_model(&m, &d, &s).unwrap();
        let a = serving.recommend(1, 5).unwrap();
        let b = serving.recommend(1, 5).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second call is a cache hit");
        // Different k is a different cache key.
        let c = serving.recommend(1, 3).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(&a[..3], &c[..]);
        assert!(serving.cache_usage().0 >= 2);
    }

    #[test]
    fn the_body_is_the_rendered_ranking() {
        let items = [
            (7, -1.5),
            (9, 2.0),
            (4_294_967_295, -0.000_123_456_789_012_345_67),
        ];
        let body = recommend_body(3, 2, &items);
        assert_eq!(
            body,
            "{\"user\":3,\"k\":2,\"items\":[{\"item\":7,\"score\":-1.5},\
             {\"item\":9,\"score\":2},\
             {\"item\":4294967295,\"score\":-0.00012345678901234567}]}"
        );
        assert!(body.len() <= body.capacity() && body.capacity() == 66 + 3 * 56);
        assert_eq!(
            recommend_body(0, 0, &[]),
            "{\"user\":0,\"k\":0,\"items\":[]}"
        );
    }

    #[test]
    fn an_entry_is_rendered_once_and_its_hits_share_the_body() {
        let (m, d, s) = trained();
        let serving = ServingModel::from_model(&m, &d, &s).unwrap();
        let ranked = serving.answer_many(&[(1, 5)], true).pop().unwrap().unwrap();
        let rendered = ranked.body.get().expect("rendered before it was cached");
        let hit = serving.cached_answer(1, 5).expect("cached");
        assert!(
            Arc::ptr_eq(rendered, &hit.body()),
            "a hit copies, never renders"
        );
        assert_eq!(**rendered, *recommend_body(1, 5, &ranked.items));

        // An entry the library API filled renders on its first use.
        let ranking = serving.recommend(2, 3).unwrap();
        let entry = serving.cached_answer(2, 3).expect("cached");
        assert!(entry.body.get().is_none(), "recommend renders nothing");
        assert_eq!(*entry.body(), *recommend_body(2, 3, &ranking));

        // Without a cache the reply is rendered once, and nothing is kept.
        let uncached = ServingModel::with_cache_capacity(Arc::clone(serving.checkpoint()), 0);
        let uncached = uncached.unwrap();
        let lone = uncached
            .answer_many(&[(1, 5)], true)
            .pop()
            .unwrap()
            .unwrap();
        assert_eq!(*lone.body(), **rendered);
        assert_eq!(uncached.cache_usage().0, 0);
    }

    #[test]
    fn batch_matches_single_queries() {
        let (m, d, s) = trained();
        let serving = ServingModel::from_model(&m, &d, &s).unwrap();
        let users: Vec<u32> = (0..d.n_users as u32).collect();
        let batch = serving.recommend_batch(&users, 7);
        assert_eq!(batch.len(), users.len());
        for (u, res) in users.iter().zip(&batch) {
            assert_eq!(**res.as_ref().unwrap(), *serving.recommend(*u, 7).unwrap());
        }
    }

    /// The kernel-free reference: the scalar per-item loop of Eq. 17
    /// over the exported state (the `NaiveScorer` of
    /// `tests/parallel_determinism.rs`), ranked by one `select_top_k`
    /// pass. Shares no code with the fused ranking path.
    fn scalar_ranking(m: &TaxoRec, s: &Split, user: u32, k: usize) -> Vec<(u32, f64)> {
        let st = m.export_state();
        let u = user as usize;
        let alpha = st.config.tag_channel_gain * st.alphas[u];
        let scores: Vec<f64> = (0..st.v_ir.rows())
            .map(|v| {
                let mut g = lorentz::distance_sq(st.u_ir.row(u), st.v_ir.row(v));
                if st.tags_active {
                    g += alpha * lorentz::distance_sq(st.u_tg.row(u), st.v_tg.row(v));
                }
                -g
            })
            .collect();
        select_top_k(&scores, k, |v| s.train[u].contains(&(v as u32)))
    }

    #[test]
    fn recommend_many_is_bit_identical_to_the_scalar_exhaustive_ranking() {
        let (m, d, s) = trained();
        let serving = ServingModel::from_model(&m, &d, &s).unwrap();
        // Heterogeneous batch: mixed k, duplicate users (same and
        // different k), k=0, k larger than the catalogue — wider than one
        // SERVE_BLOCK so chunking is exercised too.
        let mut queries: Vec<(u32, usize)> = (0..d.n_users as u32)
            .map(|u| (u, 1 + (u as usize % 13)))
            .collect();
        queries.push((3, 7));
        queries.push((3, 7));
        queries.push((3, 2));
        queries.push((0, 0));
        queries.push((1, d.n_items + 50));
        let got = serving.recommend_many(&queries);
        // A batch of one on a fresh engine (no cross-talk via the shared
        // cache) must give the same answer as any other batch shape.
        let lone = ServingModel::from_model(&m, &d, &s).unwrap();
        assert_eq!(got.len(), queries.len());
        for (&(u, k), res) in queries.iter().zip(&got) {
            let want = scalar_ranking(&m, &s, u, k);
            for have in [res.as_ref().unwrap(), &lone.recommend(u, k).unwrap()] {
                assert_eq!(have.len(), want.len(), "user {u} k {k}");
                for (a, b) in have.iter().zip(want.iter()) {
                    assert_eq!(a.0, b.0, "user {u} k {k}: item mismatch");
                    assert_eq!(
                        a.1.to_bits(),
                        b.1.to_bits(),
                        "user {u} k {k}: score not bit-identical"
                    );
                }
            }
        }
    }

    #[test]
    fn recommend_batch_isolates_unknown_users() {
        let (m, d, s) = trained();
        let serving = ServingModel::from_model(&m, &d, &s).unwrap();
        let n = d.n_users as u32;
        // Valid and unknown users interleaved, with a duplicate unknown.
        let users = [0, n + 1, 2, n + 9, n + 1, 1];
        let batch = serving.recommend_batch(&users, 5);
        assert_eq!(batch.len(), users.len());
        for (i, (&u, res)) in users.iter().zip(&batch).enumerate() {
            if u < n {
                let want = serving.recommend(u, 5).unwrap();
                assert_eq!(**res.as_ref().unwrap(), *want, "entry {i}");
            } else {
                // The exact error the HTTP layer maps to 404 — same
                // variant and fields as the single-request path.
                assert_eq!(
                    *res.as_ref().unwrap_err(),
                    ServeError::UnknownUser {
                        user: u,
                        n_users: d.n_users
                    },
                    "entry {i}"
                );
            }
        }
    }

    #[test]
    fn cache_key_is_total_at_the_u32_boundary() {
        // Regression: the key used to saturate `k` into u32, so every
        // k ≥ u32::MAX collided on one cached Ranking. Distinct k must
        // always produce distinct keys — including across the boundary.
        let boundary = u32::MAX as usize;
        assert_ne!(cache_key(7, boundary), cache_key(7, boundary + 1));
        assert_ne!(cache_key(7, boundary + 1), cache_key(7, boundary + 2));
        assert_eq!(cache_key(7, boundary), cache_key(7, boundary));
        // And the user still participates in the key.
        assert_ne!(cache_key(7, boundary), cache_key(8, boundary));
    }

    #[test]
    fn huge_k_queries_get_distinct_cache_entries() {
        let (m, d, s) = trained();
        let serving = ServingModel::from_model(&m, &d, &s).unwrap();
        // Both k values exceed the catalogue, so both return the full
        // unseen list — but they must occupy separate cache entries
        // (the old saturating key aliased them).
        let k_a = u32::MAX as usize;
        let k_b = k_a + 1;
        let a = serving.recommend(0, k_a).unwrap();
        let b = serving.recommend(0, k_b).unwrap();
        assert_eq!(*a, *b, "same full ranking either way");
        assert!(
            !Arc::ptr_eq(&a, &b),
            "distinct k must not alias one cache entry"
        );
        assert!(serving.cache_usage().0 >= 2);
    }

    #[test]
    fn model_slot_swap_is_atomic_and_old_arcs_survive() {
        let (m, d, s) = trained();
        let slot = ModelSlot::new(Arc::new(ServingModel::from_model(&m, &d, &s).unwrap()));
        let before = slot.load();
        let replacement = Arc::new(ServingModel::from_model(&m, &d, &s).unwrap());
        let old = slot.swap(Arc::clone(&replacement));
        assert!(Arc::ptr_eq(&old, &before), "swap returns the prior engine");
        assert!(Arc::ptr_eq(&slot.load(), &replacement));
        // The old engine still answers — in-flight requests that cloned
        // it before the swap are unaffected by the handover.
        assert_eq!(
            *before.recommend(0, 5).unwrap(),
            *replacement.recommend(0, 5).unwrap()
        );
    }

    #[test]
    fn unsorted_seen_lists_are_sorted_privately_and_the_checkpoint_is_untouched() {
        let (m, d, s) = trained();
        let mut ckpt = Checkpoint::from_model(&m)
            .with_dataset(&d)
            .with_seen_items(&s.train);
        let user = (0..d.n_users)
            .max_by_key(|&u| ckpt.seen_items[u].len())
            .unwrap();
        let list = &mut ckpt.seen_items[user];
        assert!(list.len() >= 2, "need a list that can be out of order");
        list.reverse();
        list.push(list[0]);
        let bytes = ckpt.to_bytes();
        let shared = Arc::new(ckpt);
        let model = ServingModel::with_cache_capacity(Arc::clone(&shared), 16).unwrap();
        assert_eq!(
            model.sorted_seen.len(),
            1,
            "only the unsorted list is copied"
        );
        assert_eq!(shared.to_bytes(), bytes, "shared checkpoint unchanged");
        let sorted = ServingModel::from_model(&m, &d, &s).unwrap();
        let user = user as u32;
        assert_eq!(
            *model.recommend(user, 10).unwrap(),
            *sorted.recommend(user, 10).unwrap()
        );
    }

    #[test]
    fn unknown_ids_are_rejected() {
        let (m, d, s) = trained();
        let serving = ServingModel::from_model(&m, &d, &s).unwrap();
        let n = d.n_users as u32;
        assert_eq!(
            serving.recommend(n + 5, 3).unwrap_err(),
            ServeError::UnknownUser {
                user: n + 5,
                n_users: d.n_users
            }
        );
        assert!(matches!(
            serving.explain(0, d.n_items as u32).unwrap_err(),
            ServeError::UnknownItem { .. }
        ));
    }

    #[test]
    fn explain_ranks_item_tags_and_names_a_taxonomy_node() {
        let (m, d, s) = trained();
        let serving = ServingModel::from_model(&m, &d, &s).unwrap();
        // Find an item with tags.
        let item = (0..d.n_items)
            .find(|&v| !d.item_tags[v].is_empty())
            .expect("synthetic data has tagged items") as u32;
        let ex = serving.explain(2, item).unwrap();
        assert_eq!(ex.item_tags.len(), d.item_tags[item as usize].len());
        for w in ex.item_tags.windows(2) {
            assert!(w[0].distance <= w[1].distance, "closest first");
        }
        assert!(ex.node_level.is_some(), "taxonomy rationale present");
        assert!(ex.score.is_finite());
        // Score matches the live model's score for that pair.
        assert_eq!(ex.score, m.scores_for_user(2)[item as usize]);
    }
}
