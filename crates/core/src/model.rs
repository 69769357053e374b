//! The TaxoRec model: joint tag-taxonomy construction and tag-enhanced
//! hyperbolic metric learning (paper §IV).
//!
//! Training interleaves two processes sharing the tag embeddings `T^P`:
//!
//! 1. every `taxo_rebuild_every` epochs, Algorithm 1 re-constructs the
//!    taxonomy from the current `T^P` (Poincaré model), refreshing the
//!    Eq. 8 regularization plan;
//! 2. every minibatch, the tag-enhanced representations are assembled via
//!    the local/global aggregation (Eqs. 9–15), scored with the
//!    personalized similarity `g(u,v)` (Eqs. 16–17), and all parameters —
//!    `u^ir`, `v^ir`, `u^tg` on the hyperboloid, `T^P` in the ball — are
//!    updated by Riemannian SGD on the joint objective
//!    `L_metric + λ·L_reg` (Eqs. 18–19).

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use taxorec_autodiff::{Channel, Csr, Hinge, Matrix, TagChannel, Tape, Triplets, Var};
use taxorec_data::{Anchor, Dataset, ItemEmbeddings, NegativeSampler, Recommender, Scorer, Split};
use taxorec_geometry::{convert, lorentz};
use taxorec_taxonomy::{construct_taxonomy, RegularizerPlan, Taxonomy};
use taxorec_telemetry::{EpochRecord, RebuildStats, TrainingMonitor};

use crate::aggregation::{global_aggregation, local_tag_aggregation};
use crate::config::TaxoRecConfig;
use crate::export;
use crate::fit_control::{FitControl, FitReport, LR_BACKOFF, MAX_ROLLBACKS};
use crate::graph::GraphMatrices;
use crate::init;
use crate::optim;

/// The trained (or trainable) TaxoRec model. Create with [`TaxoRec::new`],
/// train with [`Recommender::fit`], then rank with
/// [`Recommender::scores_for_user`] or inspect the constructed taxonomy.
pub struct TaxoRec {
    config: TaxoRecConfig,
    name: String,
    // Parameters (populated by fit).
    u_ir: Matrix,
    v_ir: Matrix,
    u_tg: Matrix,
    t_p: Matrix,
    // Constants of the trained instance.
    graph: Option<GraphMatrices>,
    alphas: Vec<f64>,
    // Taxonomy state.
    taxonomy: Option<Taxonomy>,
    reg_center_csr: Option<Arc<Csr>>,
    reg_term_tags: Arc<Vec<usize>>,
    reg_term_rows: Arc<Vec<usize>>,
    // Final (post-aggregation) embeddings for inference.
    final_u_ir: Matrix,
    final_v_ir: Matrix,
    final_u_tg: Matrix,
    final_v_tg: Matrix,
    /// The fused scorer over `final_v_ir`/`final_v_tg`, rebuilt by
    /// [`TaxoRec::finalize`] — their only writer, so it can never observe
    /// stale rows (the invalidation contract of DESIGN.md §12). Empty
    /// until then.
    scorer: Scorer,
    tags_active: bool,
    /// Mean training loss per epoch (observability/testing).
    pub loss_history: Vec<f64>,
    /// Per-epoch health records from the last `fit` (loss, gradient norm,
    /// boundary proximity, skipped batches, rebuild stats).
    pub epoch_records: Vec<EpochRecord>,
}

/// FNV-1a signature of each tag's residence group, identified by the
/// *composition* of the retained set it belongs to (node indices are not
/// stable across rebuilds). Tags absent from the taxonomy keep signature 0.
fn tag_group_signatures(taxo: &Taxonomy, n_tags: usize) -> Vec<u64> {
    let mut sig = vec![0u64; n_tags];
    for node in taxo.nodes() {
        let mut members = node.retained.clone();
        members.sort_unstable();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &t in &members {
            h ^= u64::from(t) + 1;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        for &t in &node.retained {
            if (t as usize) < n_tags {
                sig[t as usize] = h;
            }
        }
    }
    sig
}

fn grad_sq_sum(g: &Matrix) -> f64 {
    g.data().iter().map(|x| x * x).sum()
}

/// One forward pass and the tape it was recorded on. It *owns* the tape:
/// the `Var`s below are only valid until the next [`Tape::reset`], and
/// nobody can reset a tape this struct holds.
struct Forward {
    tape: Tape,
    u_ir_leaf: Var,
    v_ir_leaf: Var,
    u_tg_leaf: Option<Var>,
    t_p_leaf: Option<Var>,
    /// Where the interaction-space user and item rows are: the leaves, or
    /// the stacked output of the global aggregation.
    ir: Channel,
    /// The tag-space rows, when the tag channel is active.
    tg: Option<Channel>,
}

/// Refills `dst` with one triplet batch. A fit keeps one `dst`:
/// [`Tape::reset`] drops the tape's handle on it, which makes it unique
/// again, so each batch is written into the vectors of the last.
fn refill(dst: &mut Arc<Triplets>, users: &[u32], pos: &[u32], neg: &[u32]) {
    let t = Arc::make_mut(dst);
    for (dst, src) in [(&mut t.users, users), (&mut t.pos, pos), (&mut t.neg, neg)] {
        dst.clear();
        dst.extend(src.iter().map(|&x| x as usize));
    }
}

impl TaxoRec {
    /// Creates an untrained model with the given configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(config: TaxoRecConfig) -> Self {
        config.validate().expect("invalid TaxoRec configuration");
        let name = if !config.use_aggregation {
            "Hyper+CML".to_string()
        } else if !config.use_tags {
            "HGCF".to_string()
        } else if config.lambda == 0.0 {
            "Hyper+CML+Agg".to_string()
        } else {
            "TaxoRec".to_string()
        };
        Self {
            config,
            name,
            u_ir: Matrix::zeros(0, 0),
            v_ir: Matrix::zeros(0, 0),
            u_tg: Matrix::zeros(0, 0),
            t_p: Matrix::zeros(0, 0),
            graph: None,
            alphas: Vec::new(),
            taxonomy: None,
            reg_center_csr: None,
            reg_term_tags: Arc::new(Vec::new()),
            reg_term_rows: Arc::new(Vec::new()),
            final_u_ir: Matrix::zeros(0, 0),
            final_v_ir: Matrix::zeros(0, 0),
            final_u_tg: Matrix::zeros(0, 0),
            final_v_tg: Matrix::zeros(0, 0),
            scorer: Scorer::default(),
            tags_active: false,
            loss_history: Vec::new(),
            epoch_records: Vec::new(),
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &TaxoRecConfig {
        &self.config
    }

    /// The most recently constructed taxonomy (available after `fit` when
    /// λ > 0 and the dataset has tags).
    pub fn taxonomy(&self) -> Option<&Taxonomy> {
        self.taxonomy.as_ref()
    }

    /// The learned Poincaré tag embeddings (`n_tags × dim_tag`).
    pub fn tag_embeddings(&self) -> &Matrix {
        &self.t_p
    }

    /// Personalized tag weights `α_u` (Eq. 16), available after `fit`.
    pub fn alphas(&self) -> &[f64] {
        &self.alphas
    }

    /// Lorentz distances from a user's tag-relevant embedding to every
    /// tag (lifted onto the hyperboloid) — the Table V "closest tags"
    /// ranking. Empty when aggregation is disabled or the dataset has no
    /// tags.
    pub fn user_tag_distances(&self, user: u32) -> Vec<f64> {
        if !self.tags_active {
            return Vec::new();
        }
        let urow = self.final_u_tg.row(user as usize);
        let dim = self.t_p.cols();
        let mut lift = vec![0.0; dim + 1];
        (0..self.t_p.rows())
            .map(|t| {
                convert::poincare_to_lorentz(self.t_p.row(t), &mut lift);
                lorentz::distance(urow, &lift)
            })
            .collect()
    }

    /// The `k` nearest tags of a user, by [`TaxoRec::user_tag_distances`].
    pub fn user_top_tags(&self, user: u32, k: usize) -> Vec<(u32, f64)> {
        let d = self.user_tag_distances(user);
        let mut idx: Vec<u32> = (0..d.len() as u32).collect();
        idx.sort_by(|&a, &b| d[a as usize].partial_cmp(&d[b as usize]).unwrap());
        idx.into_iter()
            .take(k)
            .map(|t| (t, d[t as usize]))
            .collect()
    }

    /// Builds the full forward pass on `tape`, reset first: the storage of
    /// whatever it recorded last holds this pass's values.
    fn forward(&self, mut tape: Tape) -> Forward {
        let graph = self.graph.as_ref().expect("fit() before forward()");
        tape.reset();
        let u_ir_leaf = tape.leaf_copy(&self.u_ir);
        let v_ir_leaf = tape.leaf_copy(&self.v_ir);
        let mut f = Forward {
            tape,
            u_ir_leaf,
            v_ir_leaf,
            u_tg_leaf: None,
            t_p_leaf: None,
            ir: Channel::split(u_ir_leaf, v_ir_leaf),
            tg: None,
        };
        if !self.config.use_aggregation {
            return f;
        }
        let layers = self.config.gcn_layers;
        f.ir = global_aggregation(&mut f.tape, u_ir_leaf, v_ir_leaf, graph, layers);
        if !self.tags_active {
            return f;
        }
        let u_tg_leaf = f.tape.leaf_copy(&self.u_tg);
        let t_p_leaf = f.tape.leaf_copy(&self.t_p);
        let v_tg_local = local_tag_aggregation(&mut f.tape, t_p_leaf, graph);
        f.tg = Some(global_aggregation(
            &mut f.tape,
            u_tg_leaf,
            v_tg_local,
            graph,
            layers,
        ));
        f.u_tg_leaf = Some(u_tg_leaf);
        f.t_p_leaf = Some(t_p_leaf);
        f
    }

    /// Builds `g(u, v_p)`, `g(u, v_q)` (Eq. 17) and the joint loss
    /// (Eqs. 18–19) for one triplet batch on the forward tape.
    ///
    /// Returns `(metric_loss, reg_loss)` as *separate* scalars: the tag
    /// embeddings receive the metric gradient scaled by `lr_tag_mult`
    /// (compensating the long aggregation chain) but the regularizer
    /// gradient at the plain rate — the Eq. 8 pull touches `T^P` directly
    /// and needs no compensation.
    ///
    /// The metric loss is one [`Tape::triplet_hinge`] node over both
    /// channels, reading the user and item rows in place.
    fn build_loss(
        &self,
        f: &mut Forward,
        triplets: &mut Arc<Triplets>,
        users: &[u32],
        pos: &[u32],
        neg: &[u32],
    ) -> (Var, Option<Var>) {
        let tape = &mut f.tape;
        refill(triplets, users, pos, neg);
        let tag = f.tg.map(|channel| TagChannel {
            channel,
            gain: self.config.tag_channel_gain,
            alpha: &self.alphas,
        });
        let hinge = if self.config.soft_hinge {
            Hinge::Softplus
        } else {
            Hinge::Relu
        };
        let metric = tape.triplet_hinge(triplets, f.ir, tag, self.config.margin, hinge);

        // Taxonomy-aware regularization (Eq. 8), when a plan exists.
        let mut reg_loss = None;
        if self.config.lambda > 0.0 && !self.reg_term_tags.is_empty() {
            if let (Some(t_p_leaf), Some(csr)) = (f.t_p_leaf, &self.reg_center_csr) {
                let centers = tape.spmm(csr, t_p_leaf);
                let gt = tape.gather_rows(t_p_leaf, Arc::clone(&self.reg_term_tags));
                let gc = tape.gather_rows(centers, Arc::clone(&self.reg_term_rows));
                let dists = tape.poincare_dist(gt, gc);
                let reg = tape.mean_all(dists);
                reg_loss = Some(tape.scale(reg, self.config.lambda));
            }
        }
        (metric, reg_loss)
    }

    /// Reconstructs the taxonomy from the current tag embeddings and
    /// refreshes the Eq. 8 regularization plan. Returns rebuild statistics
    /// (node count, depth, fraction of tags whose group changed, wall time)
    /// for the training monitor.
    fn rebuild_taxonomy(&mut self, dataset: &Dataset) -> RebuildStats {
        let started = std::time::Instant::now();
        let prev_sig = self
            .taxonomy
            .as_ref()
            .map(|t| tag_group_signatures(t, dataset.n_tags));
        // Training's k-means stream is its own, apart from the fold's.
        let mut cfg = self.config.construct_config();
        cfg.seed ^= 0x7a70;
        let taxo = construct_taxonomy(
            self.t_p.data(),
            self.t_p.cols(),
            dataset.n_tags,
            &dataset.item_tags,
            &cfg,
        );
        let moved_frac = match prev_sig {
            Some(prev) => {
                let new_sig = tag_group_signatures(&taxo, dataset.n_tags);
                let moved = prev.iter().zip(&new_sig).filter(|(a, b)| a != b).count();
                moved as f64 / dataset.n_tags.max(1) as f64
            }
            None => 1.0,
        };
        let stats = RebuildStats {
            nodes: taxo.len(),
            depth: taxo.depth(),
            moved_frac,
            duration_secs: started.elapsed().as_secs_f64(),
        };
        self.install_regularizer(taxo, dataset.n_tags);
        stats
    }

    /// Installs `taxo` as the current taxonomy and derives the Eq. 8
    /// regularization plan (CSR center matrix + term index lists) from it.
    /// Shared by [`TaxoRec::rebuild_taxonomy`] and crash-resume, which
    /// must reinstall the plan from a *deserialized* taxonomy — the live
    /// plan derives from `T^P` as of the last rebuild epoch and cannot be
    /// reconstructed from the current embeddings.
    fn install_regularizer(&mut self, taxo: Taxonomy, n_tags: usize) {
        let plan = RegularizerPlan::from_taxonomy(&taxo);
        if plan.n_centers > 0 {
            let triplets: Vec<(usize, usize, f64)> = plan.center_weights.clone();
            let csr = Csr::from_triplets(plan.n_centers, n_tags, &triplets);
            self.reg_center_csr = Some(Arc::new(csr));
            self.reg_term_tags = Arc::new(plan.terms.iter().map(|&(t, _)| t as usize).collect());
            self.reg_term_rows = Arc::new(plan.terms.iter().map(|&(_, r)| r).collect());
        } else {
            self.reg_center_csr = None;
            self.reg_term_tags = Arc::new(Vec::new());
            self.reg_term_rows = Arc::new(Vec::new());
        }
        self.taxonomy = Some(taxo);
    }

    /// Snapshots the resumable training state (see
    /// [`crate::fit_control::TrainState`] for the contract).
    fn capture_train_state(
        &self,
        next_epoch: usize,
        rng: &StdRng,
        lr_scale: f64,
        rollbacks: usize,
    ) -> crate::TrainState {
        crate::TrainState {
            config: self.config.clone(),
            next_epoch,
            rng_state: rng.state(),
            lr_scale,
            rollbacks,
            u_ir: self.u_ir.clone(),
            v_ir: self.v_ir.clone(),
            u_tg: self.u_tg.clone(),
            t_p: self.t_p.clone(),
            loss_history: self.loss_history.clone(),
            taxonomy: self.taxonomy.clone(),
        }
    }

    /// The final item embeddings as the scorer's input.
    fn item_embeddings(&self) -> ItemEmbeddings<'_> {
        export::item_embeddings(self.tags_active, &self.final_v_ir, &self.final_v_tg)
    }

    /// `user`'s side of Eq. 17 over the final embeddings.
    fn anchor(&self, user: u32) -> Anchor<'_> {
        export::anchor(
            &self.config,
            &self.alphas,
            &self.final_u_ir,
            self.scorer.has_tag_channel().then_some(&self.final_u_tg),
            user as usize,
        )
    }

    /// Snapshots everything inference needs — final embeddings, `α_u`,
    /// taxonomy, config — into a [`crate::ModelState`] for checkpointing
    /// (the `taxorec-serve` `.taxo` artifact). Only meaningful after
    /// [`Recommender::fit`].
    pub fn export_state(&self) -> crate::ModelState {
        crate::ModelState {
            name: self.name.clone(),
            config: self.config.clone(),
            tags_active: self.tags_active,
            u_ir: self.final_u_ir.clone(),
            v_ir: self.final_v_ir.clone(),
            u_tg: self.final_u_tg.clone(),
            v_tg: self.final_v_tg.clone(),
            t_p: self.t_p.clone(),
            alphas: self.alphas.clone(),
            taxonomy: self.taxonomy.clone(),
        }
    }

    /// Fault-tolerant [`Recommender::fit`]: the same training loop with
    /// optional crash-resume, periodic checkpointing, and divergence
    /// recovery. `fit` is exactly `fit_controlled` with
    /// [`FitControl::default`].
    ///
    /// * **Resume** (`ctl.resume`): continues bit-identically from a
    ///   [`crate::TrainState`] captured by a previous run with the same
    ///   configuration, dataset, and split.
    /// * **Checkpoints** (`ctl.checkpoint_every` / `ctl.checkpoint_sink`):
    ///   after every N-th completed epoch the resumable state is handed to
    ///   the sink; sink failures are warned and counted, never fatal.
    /// * **Divergence recovery**: a diverged epoch (non-finite mean loss,
    ///   or a majority of batches skipped as non-finite) is rolled back to
    ///   its start-of-epoch snapshot and re-run with the learning rate
    ///   scaled by [`LR_BACKOFF`], up to [`MAX_ROLLBACKS`] times;
    ///   after that training stops at the last healthy parameters.
    ///
    /// Fault injection: each epoch probes the `train.epoch` site once, so
    /// `TAXOREC_FAULT=nan@train.epoch:5` forces epoch 5's loss to NaN and
    /// exercises the rollback path deterministically, and
    /// `stall@train.epoch:1+` sleeps `TAXOREC_FAULT_STALL_MS` in every
    /// epoch, so an external kill lands mid-run.
    ///
    /// # Panics
    /// Panics if a resume state fails validation or does not match the
    /// dataset/config (the same error class as an invalid configuration).
    pub fn fit_controlled(
        &mut self,
        dataset: &Dataset,
        split: &Split,
        mut ctl: FitControl<'_>,
    ) -> FitReport {
        // The run's trace context: the same mechanism as a serve request,
        // so TAXOREC_TRACE renders training epochs and their stage
        // breakdown alongside (or instead of) request traces.
        let fit_ctx = taxorec_telemetry::trace::mint();
        let _fit_trace = taxorec_telemetry::trace::scope(fit_ctx);
        let fit_started = Instant::now();
        let cfg = self.config.clone();
        let mut monitor = TrainingMonitor::new(&self.name);
        self.tags_active = cfg.use_aggregation && cfg.use_tags && dataset.n_tags > 0;
        self.graph = Some(GraphMatrices::build(dataset, split));
        self.alphas = dataset.alpha_weights(&split.train);
        self.epoch_records.clear();

        let mut rng;
        let mut lr_scale = 1.0f64;
        let mut rollbacks = 0usize;
        let start_epoch;
        match ctl.resume.take() {
            Some(state) => {
                state
                    .validate()
                    .unwrap_or_else(|e| panic!("invalid resume state: {e}"));
                assert!(
                    state.config == cfg,
                    "resume state was trained with a different configuration"
                );
                assert!(
                    state.u_ir.rows() == dataset.n_users
                        && state.v_ir.rows() == dataset.n_items
                        && state.t_p.rows() == dataset.n_tags.max(1),
                    "resume state does not match the dataset shape"
                );
                rng = StdRng::from_state(state.rng_state);
                lr_scale = state.lr_scale;
                rollbacks = state.rollbacks;
                start_epoch = state.next_epoch;
                self.u_ir = state.u_ir;
                self.v_ir = state.v_ir;
                self.u_tg = state.u_tg;
                self.t_p = state.t_p;
                self.loss_history = state.loss_history;
                match state.taxonomy {
                    Some(taxo) => self.install_regularizer(taxo, dataset.n_tags),
                    None => self.taxonomy = None,
                }
                taxorec_telemetry::sink::info(&format!(
                    "{}: resuming at epoch {start_epoch}/{} (lr_scale {lr_scale})",
                    self.name, cfg.epochs
                ));
            }
            None => {
                rng = StdRng::seed_from_u64(cfg.seed);
                start_epoch = 0;
                self.u_ir = init::lorentz_matrix(&mut rng, dataset.n_users, cfg.dim_ir, 0.1);
                self.v_ir = init::lorentz_matrix(&mut rng, dataset.n_items, cfg.dim_ir, 0.1);
                self.u_tg = init::lorentz_matrix(&mut rng, dataset.n_users, cfg.dim_tag, 0.1);
                // Tag embeddings start very close to the origin (Nickel &
                // Kiela's Poincaré init) so that gradient-driven
                // co-occurrence structure dominates the random offsets.
                self.t_p =
                    init::poincare_matrix(&mut rng, dataset.n_tags.max(1), cfg.dim_tag, 0.001);
                self.loss_history.clear();
            }
        }
        let mut report = FitReport {
            start_epoch,
            final_lr_scale: lr_scale,
            ..FitReport::default()
        };

        let sampler = NegativeSampler::new(dataset.n_items, split.train.clone());
        let base_pairs = split.train_pairs();
        if base_pairs.is_empty() {
            self.finalize(Tape::new());
            taxorec_telemetry::trace::flush();
            taxorec_telemetry::sink::flush();
            return report;
        }
        let warmup = (cfg.epochs as f64 * cfg.taxo_warmup_frac) as usize;
        // Everything below is storage the fit allocates once and every
        // epoch and batch refills: the triplet assembly buffers and their
        // index-list form, the shuffled pair order, the rollback snapshot,
        // and the tape (every forward value and every gradient) — zero
        // steady-state allocation in the pair loop.
        let mut users: Vec<u32> = Vec::new();
        let mut pos: Vec<u32> = Vec::new();
        let mut neg: Vec<u32> = Vec::new();
        let mut triplets = Arc::new(Triplets::default());
        let mut pairs = Vec::with_capacity(base_pairs.len());
        let mut snap_params: [Matrix; 4] = std::array::from_fn(|_| Matrix::zeros(0, 0));
        let mut tape = Tape::new();
        // A traced fit also accounts each tape op's time (exported when
        // the fit ends); an untraced one pays one branch per node.
        tape.set_timed(fit_ctx.sampled);
        let mut epoch = start_epoch;
        while epoch < cfg.epochs {
            // Start-of-epoch snapshot: the rollback target if this epoch
            // diverges. RNG state included so the re-run replays the same
            // shuffle and negative draws (under the backed-off rate).
            for (snap, live) in snap_params
                .iter_mut()
                .zip([&self.u_ir, &self.v_ir, &self.u_tg, &self.t_p])
            {
                snap.copy_from(live);
            }
            let snap_rng = rng.state();
            let snap_losses = self.loss_history.len();

            let epoch_started = Instant::now();
            // Stage breakdown accumulators: wall time across the epoch's
            // batches split into aggregation (the Eqs. 9–15 forward), loss
            // (the Eqs. 17–19 forward), backward (both gradients, through
            // the loss *and* the aggregation), and update (Riemannian SGD).
            let mut agg_time = Duration::ZERO;
            let mut loss_time = Duration::ZERO;
            let mut backward_time = Duration::ZERO;
            let mut update_time = Duration::ZERO;
            monitor.begin_epoch(epoch);
            if self.tags_active
                && cfg.lambda > 0.0
                && epoch >= warmup.max(1)
                && (epoch - warmup).is_multiple_of(cfg.taxo_rebuild_every.max(1))
            {
                let stats = self.rebuild_taxonomy(dataset);
                monitor.observe_rebuild(stats);
            }
            // Shuffle a fresh copy: the epoch's pair order depends only
            // on the RNG state at its start, never on earlier epochs'
            // in-place permutations — this is what makes a resumed run
            // replay the same order from the restored RNG state.
            pairs.clear();
            pairs.extend_from_slice(&base_pairs);
            pairs.shuffle(&mut rng);
            for chunk in pairs.chunks(cfg.batch_size.max(1)) {
                users.clear();
                pos.clear();
                neg.clear();
                for &(u, v) in chunk {
                    for _ in 0..cfg.negatives.max(1) {
                        users.push(u);
                        pos.push(v);
                        neg.push(sampler.sample(u, &mut rng));
                    }
                }
                let stage_t0 = Instant::now();
                let mut f = self.forward(tape);
                let stage_t1 = Instant::now();
                agg_time += stage_t1 - stage_t0;
                let (metric_loss, reg_loss) =
                    self.build_loss(&mut f, &mut triplets, &users, &pos, &neg);
                let batch_loss = f.tape.value(metric_loss).as_scalar()
                    + reg_loss.map(|r| f.tape.value(r).as_scalar()).unwrap_or(0.0);
                let stage_t2 = Instant::now();
                loss_time += stage_t2 - stage_t1;
                if !batch_loss.is_finite() {
                    // A non-finite loss would poison both the parameters
                    // (through backward) and the epoch mean: skip the
                    // update, counted and warned through the monitor.
                    monitor.observe_batch(batch_loss, 0.0);
                    tape = f.tape;
                    continue;
                }
                let grads = f.tape.backward(metric_loss);
                let reg_grads = reg_loss.map(|reg| f.tape.backward(reg));
                let g_u_ir = grads.wrt(f.u_ir_leaf);
                let g_v_ir = grads.wrt(f.v_ir_leaf);
                let g_u_tg = f.u_tg_leaf.and_then(|leaf| grads.wrt(leaf));
                let g_t_p = f.t_p_leaf.and_then(|leaf| grads.wrt(leaf));
                let g_t_p_reg = f
                    .t_p_leaf
                    .zip(reg_grads.as_ref())
                    .and_then(|(leaf, g)| g.wrt(leaf));
                let grad_norm = [g_u_ir, g_v_ir, g_u_tg, g_t_p, g_t_p_reg]
                    .into_iter()
                    .flatten()
                    .map(grad_sq_sum)
                    .sum::<f64>()
                    .sqrt();
                let stage_t3 = Instant::now();
                backward_time += stage_t3 - stage_t2;
                if monitor.observe_batch(batch_loss, grad_norm) {
                    let lr = cfg.lr * lr_scale;
                    if let Some(g) = g_u_ir {
                        optim::rsgd_lorentz(&mut self.u_ir, g, lr);
                    }
                    if let Some(g) = g_v_ir {
                        optim::rsgd_lorentz(&mut self.v_ir, g, lr);
                    }
                    if let Some(g) = g_u_tg {
                        optim::rsgd_lorentz(&mut self.u_tg, g, lr);
                    }
                    optim::clip_lorentz_radius(&mut self.u_ir, optim::MAX_RADIUS);
                    optim::clip_lorentz_radius(&mut self.v_ir, optim::MAX_RADIUS);
                    if self.tags_active {
                        optim::clip_lorentz_radius(&mut self.u_tg, optim::MAX_RADIUS);
                    }
                    if let Some(g) = g_t_p {
                        optim::rsgd_poincare(&mut self.t_p, g, lr * cfg.lr_tag_mult);
                    }
                    // The Eq. 8 pull acts on T^P directly: plain rate.
                    if let Some(g) = g_t_p_reg {
                        optim::rsgd_poincare(&mut self.t_p, g, lr);
                    }
                    update_time += stage_t3.elapsed();
                }
                // The gradients' storage goes back to the tape, the tape
                // back to the loop: the next batch is written over this one.
                f.tape.recycle(grads);
                if let Some(g) = reg_grads {
                    f.tape.recycle(g);
                }
                tape = f.tape;
            }
            // Boundary proximity: the Poincaré tag embeddings degrade
            // numerically as ‖t‖ → 1, so the max row norm is the early
            // warning for an exploding tag channel.
            let mut max_norm = 0.0f64;
            for r in 0..self.t_p.rows() {
                let sq: f64 = self.t_p.row(r).iter().map(|x| x * x).sum();
                max_norm = max_norm.max(sq.sqrt());
            }
            monitor.observe_boundary(max_norm);
            monitor.observe_stages(
                agg_time.as_secs_f64(),
                loss_time.as_secs_f64(),
                backward_time.as_secs_f64(),
                update_time.as_secs_f64(),
            );
            let epoch_record = monitor.end_epoch().clone();
            // When this run is sampled, lay the epoch out as a span with
            // its four stages as sequential children (per-batch stage
            // slices interleave in reality; the aggregate layout shows
            // where the epoch's time went at a glance).
            if fit_ctx.sampled {
                let epoch_end = Instant::now();
                let epoch_ctx = taxorec_telemetry::trace::emit_span_at(
                    "train.epoch",
                    fit_ctx,
                    epoch_started,
                    epoch_end,
                );
                let mut stage_start = epoch_started;
                for (name, dur) in [
                    ("aggregation", agg_time),
                    ("loss", loss_time),
                    ("backward", backward_time),
                    ("update", update_time),
                ] {
                    let stage_end = (stage_start + dur).min(epoch_end);
                    taxorec_telemetry::trace::emit_span_at(name, epoch_ctx, stage_start, stage_end);
                    stage_start = stage_end;
                }
            }

            let (n_batches, nan_batches) = (epoch_record.n_batches, epoch_record.nan_batches);
            let mut epoch_mean = epoch_record.mean_loss;
            if taxorec_resilience::inject_nan_or_stall("train.epoch") {
                epoch_mean = f64::NAN;
            }
            let total = n_batches + nan_batches;
            let diverged = !epoch_mean.is_finite() || (total > 0 && nan_batches * 2 > total);
            if diverged {
                rollbacks += 1;
                report.rollbacks += 1;
                // A divergence is an incident: capture the recent-event
                // history before the retry overwrites it.
                taxorec_telemetry::flight_event!(
                    "train.rollback",
                    fit_ctx.trace_id,
                    epoch as i64,
                    epoch_mean
                );
                taxorec_telemetry::flight::dump("train.rollback");
                // Restore the start-of-epoch snapshot either way: the
                // parameters after a diverged epoch are not trustworthy.
                for (live, snap) in [
                    &mut self.u_ir,
                    &mut self.v_ir,
                    &mut self.u_tg,
                    &mut self.t_p,
                ]
                .into_iter()
                .zip(&snap_params)
                {
                    live.copy_from(snap);
                }
                rng = StdRng::from_state(snap_rng);
                self.loss_history.truncate(snap_losses);
                if rollbacks > MAX_ROLLBACKS {
                    taxorec_telemetry::sink::warn(&format!(
                        "{}: epoch {epoch} diverged; rollback budget ({MAX_ROLLBACKS}) \
                         exhausted — stopping at the last healthy parameters",
                        self.name
                    ));
                    report.gave_up = true;
                    break;
                }
                lr_scale *= LR_BACKOFF;
                taxorec_telemetry::sink::warn(&format!(
                    "{}: epoch {epoch} diverged (mean {epoch_mean}, {nan_batches}/{total} \
                     non-finite batches); rolled back, retrying with lr_scale {lr_scale}",
                    self.name
                ));
                continue;
            }
            self.loss_history.push(epoch_mean);
            report.epochs_run += 1;
            if let Some(cb) = ctl.on_epoch.as_mut() {
                cb(&epoch_record);
            }
            if ctl.checkpoint_every > 0 && (epoch + 1).is_multiple_of(ctl.checkpoint_every) {
                if let Some(sink) = ctl.checkpoint_sink.as_mut() {
                    let state = self.capture_train_state(epoch + 1, &rng, lr_scale, rollbacks);
                    match sink(&state) {
                        Ok(()) => report.checkpoints_written += 1,
                        Err(e) => {
                            report.checkpoint_failures += 1;
                            taxorec_telemetry::sink::warn(&format!(
                                "{}: checkpoint after epoch {epoch} failed (training \
                                 continues): {e}",
                                self.name
                            ));
                        }
                    }
                }
            }
            epoch += 1;
        }
        // Final taxonomy from the converged embeddings (for RQ4/RQ5
        // outputs), then cache inference embeddings.
        if self.tags_active && cfg.lambda > 0.0 && !report.gave_up {
            self.rebuild_taxonomy(dataset);
        }
        self.epoch_records = monitor.records().to_vec();
        // The last pass over the tape; its storage is freed here, before
        // the report goes out, not held by the model.
        let tape = self.finalize(tape);
        for (op, t) in tape.op_times() {
            taxorec_telemetry::gauge(&format!("train.op.{op}.fwd_ms")).set(t.fwd_ns as f64 / 1e6);
            taxorec_telemetry::gauge(&format!("train.op.{op}.bwd_ms")).set(t.bwd_ns as f64 / 1e6);
        }
        drop(tape);
        report.final_lr_scale = lr_scale;
        // The run's root span, then flush both the trace export and any
        // file-backed JSONL sink so short runs don't lose tail events.
        taxorec_telemetry::trace::emit_root_at("train.fit", fit_ctx, fit_started, Instant::now());
        taxorec_telemetry::trace::flush();
        taxorec_telemetry::sink::flush();
        report
    }

    /// Runs one forward pass on `tape` and caches the final embeddings for
    /// inference, then rebuilds the scorer over them (all three reusing
    /// their allocations). Hands the tape back.
    fn finalize(&mut self, tape: Tape) -> Tape {
        let f = self.forward(tape);
        let (n_users, n_items) = (self.u_ir.rows(), self.v_ir.rows());
        let copy_out = |c: Channel, users: &mut Matrix, items: &mut Matrix| {
            users.copy_rows_from(f.tape.value(c.users), 0..n_users);
            items.copy_rows_from(
                f.tape.value(c.items),
                c.item_offset..c.item_offset + n_items,
            );
        };
        copy_out(f.ir, &mut self.final_u_ir, &mut self.final_v_ir);
        if let Some(tg) = f.tg {
            copy_out(tg, &mut self.final_u_tg, &mut self.final_v_tg);
        }
        // Taken out while the item view borrows `self`.
        let mut scorer = std::mem::take(&mut self.scorer);
        scorer.rebuild(&self.item_embeddings());
        self.scorer = scorer;
        f.tape
    }
}

impl Recommender for TaxoRec {
    fn name(&self) -> &str {
        &self.name
    }

    fn fit(&mut self, dataset: &Dataset, split: &Split) {
        self.fit_controlled(dataset, split, FitControl::default());
    }

    fn scores_for_user(&self, user: u32) -> Vec<f64> {
        let mut out = vec![0.0; self.scorer.n_items()];
        self.scorer.scores(&self.anchor(user), &mut out);
        out
    }

    /// Fused block ranking ([`Scorer::rank`]): exactly the default's
    /// result without materializing a score row.
    fn top_k_block(
        &self,
        users: &[u32],
        k: usize,
        exclude: &dyn Fn(usize, u32) -> bool,
    ) -> Vec<Vec<(u32, f64)>> {
        let anchors: Vec<Anchor<'_>> = users.iter().map(|&u| self.anchor(u)).collect();
        self.scorer.rank(&anchors, &vec![k; users.len()], exclude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxorec_data::{generate_preset, Preset, Scale};

    fn tiny_setup() -> (Dataset, Split) {
        let d = generate_preset(Preset::Ciao, Scale::Tiny);
        let s = Split::standard(&d);
        (d, s)
    }

    #[test]
    fn fit_produces_finite_embeddings_and_decreasing_loss() {
        let (d, s) = tiny_setup();
        let mut cfg = TaxoRecConfig::fast_test();
        cfg.epochs = 10;
        let mut m = TaxoRec::new(cfg);
        m.fit(&d, &s);
        assert!(m.final_u_ir.all_finite());
        assert!(m.final_v_ir.all_finite());
        assert!(m.final_u_tg.all_finite());
        assert!(m.final_v_tg.all_finite());
        let first = m.loss_history[0];
        let last = *m.loss_history.last().unwrap();
        assert!(last < first, "loss should drop: {first} → {last}");
    }

    #[test]
    fn trained_model_ranks_positives_above_random() {
        let (d, s) = tiny_setup();
        let mut m = TaxoRec::new(TaxoRecConfig::fast_test());
        m.fit(&d, &s);
        // Mean score of training positives must exceed the global mean.
        let mut pos_total = 0.0;
        let mut pos_n = 0usize;
        let mut all_total = 0.0;
        let mut all_n = 0usize;
        for (u, items) in s.train.iter().enumerate() {
            if items.is_empty() {
                continue;
            }
            let scores = m.scores_for_user(u as u32);
            for &v in items {
                pos_total += scores[v as usize];
                pos_n += 1;
            }
            all_total += scores.iter().sum::<f64>();
            all_n += scores.len();
        }
        let pos_mean = pos_total / pos_n as f64;
        let all_mean = all_total / all_n as f64;
        assert!(
            pos_mean > all_mean,
            "positives {pos_mean} vs mean {all_mean}"
        );
    }

    #[test]
    fn taxonomy_is_constructed_during_fit() {
        let (d, s) = tiny_setup();
        let mut m = TaxoRec::new(TaxoRecConfig::fast_test());
        m.fit(&d, &s);
        let taxo = m.taxonomy().expect("taxonomy built when λ>0");
        assert!(!taxo.is_empty());
        assert_eq!(taxo.validate(), Ok(()));
    }

    #[test]
    fn ablation_without_aggregation_still_trains() {
        let (d, s) = tiny_setup();
        let mut cfg = TaxoRecConfig::fast_test().ablation_hyper_cml();
        cfg.epochs = 5;
        let mut m = TaxoRec::new(cfg);
        assert_eq!(m.name(), "Hyper+CML");
        m.fit(&d, &s);
        assert!(m.taxonomy().is_none());
        assert_eq!(m.scores_for_user(0).len(), d.n_items);
    }

    #[test]
    fn user_top_tags_returns_sorted_distances() {
        let (d, s) = tiny_setup();
        let mut m = TaxoRec::new(TaxoRecConfig::fast_test());
        m.fit(&d, &s);
        let top = m.user_top_tags(0, 4);
        assert_eq!(top.len(), 4);
        for w in top.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn monitor_records_every_epoch() {
        let (d, s) = tiny_setup();
        let mut cfg = TaxoRecConfig::fast_test();
        cfg.epochs = 3;
        let mut m = TaxoRec::new(cfg);
        m.fit(&d, &s);
        assert_eq!(m.epoch_records.len(), 3);
        for (i, r) in m.epoch_records.iter().enumerate() {
            assert_eq!(r.epoch, i);
            assert!(r.mean_loss.is_finite());
            assert!(r.mean_grad_norm > 0.0, "gradient flowed in epoch {i}");
            assert!(
                r.boundary_max_norm > 0.0 && r.boundary_max_norm < 1.0,
                "tag embeddings stay inside the ball: {}",
                r.boundary_max_norm
            );
            assert!(r.n_batches > 0);
            assert_eq!(r.nan_batches, 0, "healthy run skips nothing");
            assert!(r.duration_secs >= 0.0);
        }
        // loss_history is read off the records: the same means, bit for bit.
        for (h, r) in m.loss_history.iter().zip(&m.epoch_records) {
            assert_eq!(h.to_bits(), r.mean_loss.to_bits(), "epoch {}", r.epoch);
        }
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        use std::cell::RefCell;
        let (d, s) = tiny_setup();
        let mut cfg = TaxoRecConfig::fast_test();
        cfg.epochs = 6;

        // Reference run: straight through, checkpointing every 2 epochs.
        let states: RefCell<Vec<crate::TrainState>> = RefCell::new(Vec::new());
        let mut a = TaxoRec::new(cfg.clone());
        let report = a.fit_controlled(
            &d,
            &s,
            FitControl {
                checkpoint_every: 2,
                checkpoint_sink: Some(Box::new(|st: &crate::TrainState| {
                    states.borrow_mut().push(st.clone());
                    Ok(())
                })),
                ..FitControl::default()
            },
        );
        assert_eq!(report.epochs_run, 6);
        assert_eq!(report.checkpoints_written, 3);
        assert_eq!(report.rollbacks, 0);
        let states = states.into_inner();
        assert_eq!(
            states.iter().map(|s| s.next_epoch).collect::<Vec<_>>(),
            vec![2, 4, 6]
        );

        // Resumed run: fresh model continues from the epoch-4 state.
        let mid = states[1].clone();
        assert_eq!(mid.validate(), Ok(()));
        assert!(mid.taxonomy.is_some(), "rebuild happened before epoch 4");
        let mut b = TaxoRec::new(cfg);
        let report = b.fit_controlled(
            &d,
            &s,
            FitControl {
                resume: Some(mid),
                ..FitControl::default()
            },
        );
        assert_eq!(report.start_epoch, 4);
        assert_eq!(report.epochs_run, 2);

        // Bit-identical parameters and scores.
        let (ta, tb) = (a.tag_embeddings(), b.tag_embeddings());
        assert!(ta
            .data()
            .iter()
            .zip(tb.data())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
        assert_eq!(a.loss_history, b.loss_history);
        for u in [0u32, 3, 7] {
            let (sa, sb) = (a.scores_for_user(u), b.scores_for_user(u));
            assert!(sa.iter().zip(&sb).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }

    #[test]
    fn resume_state_validation_rejects_garbage() {
        let (d, s) = tiny_setup();
        let mut cfg = TaxoRecConfig::fast_test();
        cfg.epochs = 2;
        let states = std::cell::RefCell::new(Vec::new());
        let mut m = TaxoRec::new(cfg.clone());
        m.fit_controlled(
            &d,
            &s,
            FitControl {
                checkpoint_every: 1,
                checkpoint_sink: Some(Box::new(|st: &crate::TrainState| {
                    states.borrow_mut().push(st.clone());
                    Ok(())
                })),
                ..FitControl::default()
            },
        );
        let good = states.into_inner().remove(0);
        let mut bad = good.clone();
        bad.rng_state = [0; 4];
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.lr_scale = f64::NAN;
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.next_epoch = 99;
        assert!(bad.validate().is_err());
        assert_eq!(good.validate(), Ok(()));
    }

    #[test]
    fn failing_checkpoint_sink_does_not_stop_training() {
        let (d, s) = tiny_setup();
        let mut cfg = TaxoRecConfig::fast_test();
        cfg.epochs = 4;
        let mut m = TaxoRec::new(cfg);
        let report = m.fit_controlled(
            &d,
            &s,
            FitControl {
                checkpoint_every: 1,
                checkpoint_sink: Some(Box::new(|_: &crate::TrainState| {
                    Err("disk full".to_string())
                })),
                ..FitControl::default()
            },
        );
        assert_eq!(report.epochs_run, 4, "training ran to completion");
        assert_eq!(report.checkpoints_written, 0);
        assert_eq!(report.checkpoint_failures, 4);
        assert!(m.final_u_ir.all_finite());
    }

    #[test]
    fn skipped_batches_keep_their_scoring_time() {
        // Resume from a state whose user embeddings are NaN: every batch
        // loss is non-finite, every batch is skipped before backward. The
        // loss was still built and read — that time is scoring time, not
        // a hole in the epoch's stage breakdown.
        let (d, s) = tiny_setup();
        let mut cfg = TaxoRecConfig::fast_test();
        cfg.epochs = 2;
        let states = std::cell::RefCell::new(Vec::new());
        TaxoRec::new(cfg.clone()).fit_controlled(
            &d,
            &s,
            FitControl {
                checkpoint_every: 1,
                checkpoint_sink: Some(Box::new(|st: &crate::TrainState| {
                    states.borrow_mut().push(st.clone());
                    Ok(())
                })),
                ..FitControl::default()
            },
        );
        let mut poisoned = states.into_inner().remove(0);
        poisoned.u_ir.data_mut().fill(f64::NAN);
        let mut m = TaxoRec::new(cfg);
        let report = m.fit_controlled(
            &d,
            &s,
            FitControl {
                resume: Some(poisoned),
                ..FitControl::default()
            },
        );
        assert!(report.gave_up, "{report:?}");
        let record = &m.epoch_records[0];
        assert_eq!(record.n_batches, 0);
        assert!(record.nan_batches > 0);
        assert!(record.aggregation_secs > 0.0);
        assert!(
            record.scoring_secs > 0.0,
            "build_loss ran for {} skipped batches",
            record.nan_batches
        );
        assert_eq!(record.update_secs, 0.0, "nothing was updated");
    }

    #[test]
    fn a_timed_training_step_records_the_fused_ops_and_no_row_copies() {
        // The default configuration (two epochs, so the final rebuild
        // installs an Eq. 8 plan), then one batch exactly as the fit loop
        // builds it, on a timed tape.
        let (d, s) = tiny_setup();
        let cfg = TaxoRecConfig {
            epochs: 2,
            ..TaxoRecConfig::default()
        };
        let mut m = TaxoRec::new(cfg);
        m.fit(&d, &s);
        assert!(m.reg_center_csr.is_some(), "the fit left an Eq. 8 plan");
        let sampler = NegativeSampler::new(d.n_items, s.train.clone());
        let mut rng = StdRng::seed_from_u64(5);
        let (mut users, mut pos, mut neg) = (Vec::new(), Vec::new(), Vec::new());
        for (u, v) in s.train_pairs().into_iter().take(50) {
            for _ in 0..m.config.negatives {
                users.push(u);
                pos.push(v);
                neg.push(sampler.sample(u, &mut rng));
            }
        }
        let mut tape = Tape::new();
        tape.set_timed(true);
        let mut f = m.forward(tape);
        let mut triplets = Arc::new(Triplets::default());
        let (metric, reg) = m.build_loss(&mut f, &mut triplets, &users, &pos, &neg);
        let grads = f.tape.backward(metric);
        f.tape.recycle(grads);
        let grads = f.tape.backward(reg.expect("a plan records the Eq. 8 term"));
        f.tape.recycle(grads);

        // Every kind the step records, with its forward and backward
        // node counts over both passes: the four parameter leaves (the tag
        // table reaches both losses), Eqs. 9–11's tag-to-item chain, one
        // aggregation per channel, one hinge, and the Eq. 8 regulariser's
        // chain, whose two gathers are the step's only row copies.
        let times: Vec<_> = f
            .tape
            .op_times()
            .map(|(name, t)| (name, (t.fwd_nodes, t.bwd_nodes)))
            .collect();
        let want = [
            ("leaf", (4, 5)),
            ("scale", (1, 1)),
            ("spmm", (1, 1)),
            ("gather_rows", (2, 2)),
            ("mean_all", (1, 1)),
            ("poincare_dist", (1, 1)),
            ("poincare_to_klein", (1, 1)),
            ("klein_to_poincare", (1, 1)),
            ("poincare_to_lorentz", (1, 1)),
            ("einstein_midpoint", (1, 1)),
            ("global_aggregation", (2, 2)),
            ("triplet_hinge", (1, 1)),
        ];
        assert_eq!(times, want);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let (d, s) = tiny_setup();
        let mut cfg = TaxoRecConfig::fast_test();
        cfg.epochs = 3;
        let mut a = TaxoRec::new(cfg.clone());
        let mut b = TaxoRec::new(cfg);
        a.fit(&d, &s);
        b.fit(&d, &s);
        assert_eq!(a.scores_for_user(5), b.scores_for_user(5));
    }
}
