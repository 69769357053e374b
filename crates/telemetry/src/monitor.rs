//! Training-health monitoring for the epoch loop: per-epoch loss,
//! gradient norm, boundary proximity (max ‖x‖ in the Poincaré ball),
//! NaN/Inf detection with configurable fail-fast, and taxonomy-rebuild
//! statistics. The monitor both keeps an in-memory record (for tests and
//! post-hoc inspection) and feeds the global registry / JSONL sink under
//! the `train.*` metric names.

use std::sync::Arc;
use std::time::Instant;

use crate::registry::{self, Counter, Gauge, Histogram};
use crate::sink::{self, Attr};

/// Statistics of one taxonomy reconstruction (Algorithm 1 invocation).
#[derive(Clone, Debug)]
pub struct RebuildStats {
    /// Nodes in the constructed tree.
    pub nodes: usize,
    /// Tree depth (root = 0).
    pub depth: usize,
    /// Fraction of tags whose residence group changed vs. the previous
    /// taxonomy (1.0 for the first build).
    pub moved_frac: f64,
    /// Wall time of the reconstruction in seconds.
    pub duration_secs: f64,
}

/// Everything recorded about one training epoch.
#[derive(Clone, Debug)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean loss over the epoch's healthy batches.
    pub mean_loss: f64,
    /// Mean per-batch gradient norm (Frobenius, over all parameters).
    pub mean_grad_norm: f64,
    /// Max Poincaré-ball norm across tag embeddings at epoch end
    /// (distance to the ball boundary is `1 − this`).
    pub boundary_max_norm: f64,
    /// Healthy batches this epoch.
    pub n_batches: usize,
    /// Batches skipped because their loss or gradient went NaN/Inf.
    pub nan_batches: usize,
    /// Wall time of the epoch in seconds.
    pub duration_secs: f64,
    /// Seconds spent in neighbour aggregation (forward passes).
    pub aggregation_secs: f64,
    /// Seconds spent in loss scoring and backward passes:
    /// `loss_secs + backward_secs`.
    pub scoring_secs: f64,
    /// Seconds spent building the loss on the aggregated embeddings.
    pub loss_secs: f64,
    /// Seconds spent in backward passes — through the loss *and* the
    /// aggregation, back to the parameters.
    pub backward_secs: f64,
    /// Seconds spent in Riemannian parameter updates.
    pub update_secs: f64,
    /// Taxonomy rebuild this epoch, if one happened.
    pub rebuild: Option<RebuildStats>,
}

/// Epoch-loop instrumentation hook. Create one per `fit`, then per epoch:
/// [`begin_epoch`](Self::begin_epoch) → `observe_batch` for every batch →
/// optional `observe_boundary` / `observe_rebuild` → [`end_epoch`](Self::end_epoch).
#[derive(Debug)]
pub struct TrainingMonitor {
    run: String,
    fail_fast: bool,
    records: Vec<EpochRecord>,
    // Current-epoch accumulators.
    epoch: usize,
    started: Option<Instant>,
    loss_sum: f64,
    grad_norm_sum: f64,
    n_batches: usize,
    nan_batches: usize,
    boundary_max_norm: f64,
    aggregation_secs: f64,
    loss_secs: f64,
    backward_secs: f64,
    update_secs: f64,
    rebuild: Option<RebuildStats>,
    // Cached metric handles (no registry lock on the hot path).
    g_loss: Arc<Gauge>,
    g_grad: Arc<Gauge>,
    g_boundary: Arc<Gauge>,
    h_epoch: Arc<Histogram>,
    h_aggregation: Arc<Histogram>,
    h_scoring: Arc<Histogram>,
    h_loss: Arc<Histogram>,
    h_backward: Arc<Histogram>,
    h_update: Arc<Histogram>,
    c_nan: Arc<Counter>,
    c_epochs: Arc<Counter>,
}

impl TrainingMonitor {
    /// Creates a monitor for the run labelled `run` (model name). Fail-fast
    /// on NaN defaults to the `TAXOREC_FAIL_FAST` environment variable
    /// (`1`/`true` → abort on the first bad batch) and can be overridden
    /// with [`with_fail_fast`](Self::with_fail_fast).
    pub fn new(run: &str) -> Self {
        let fail_fast = matches!(
            std::env::var("TAXOREC_FAIL_FAST").as_deref(),
            Ok("1") | Ok("true") | Ok("TRUE")
        );
        Self {
            run: run.to_string(),
            fail_fast,
            records: Vec::new(),
            epoch: 0,
            started: None,
            loss_sum: 0.0,
            grad_norm_sum: 0.0,
            n_batches: 0,
            nan_batches: 0,
            boundary_max_norm: 0.0,
            aggregation_secs: 0.0,
            loss_secs: 0.0,
            backward_secs: 0.0,
            update_secs: 0.0,
            rebuild: None,
            g_loss: registry::gauge("train.epoch.loss"),
            g_grad: registry::gauge("train.grad_norm"),
            g_boundary: registry::gauge("train.boundary_max_norm"),
            h_epoch: registry::histogram("train.epoch.duration"),
            h_aggregation: registry::histogram("train.stage.aggregation.duration"),
            h_scoring: registry::histogram("train.stage.scoring.duration"),
            h_loss: registry::histogram("train.stage.loss.duration"),
            h_backward: registry::histogram("train.stage.backward.duration"),
            h_update: registry::histogram("train.stage.update.duration"),
            c_nan: registry::counter("train.nan_batches"),
            c_epochs: registry::counter("train.epochs"),
        }
    }

    /// Sets NaN/Inf fail-fast behaviour explicitly.
    pub fn with_fail_fast(mut self, fail_fast: bool) -> Self {
        self.fail_fast = fail_fast;
        self
    }

    /// Whether a non-finite batch aborts training.
    pub fn fail_fast(&self) -> bool {
        self.fail_fast
    }

    /// Starts accumulating epoch `epoch`.
    pub fn begin_epoch(&mut self, epoch: usize) {
        self.epoch = epoch;
        self.started = Some(Instant::now());
        self.loss_sum = 0.0;
        self.grad_norm_sum = 0.0;
        self.n_batches = 0;
        self.nan_batches = 0;
        self.boundary_max_norm = 0.0;
        self.aggregation_secs = 0.0;
        self.loss_secs = 0.0;
        self.backward_secs = 0.0;
        self.update_secs = 0.0;
        self.rebuild = None;
    }

    /// Records one batch. Returns `true` when the batch is healthy; `false`
    /// means the loss or gradient was NaN/Inf — the caller should skip the
    /// parameter update (the batch is counted under `train.nan_batches`
    /// and a warning goes through the sink).
    ///
    /// # Panics
    /// Panics on a non-finite batch when fail-fast is enabled.
    pub fn observe_batch(&mut self, loss: f64, grad_norm: f64) -> bool {
        if !loss.is_finite() || !grad_norm.is_finite() {
            self.nan_batches += 1;
            self.c_nan.inc(1);
            let msg = format!(
                "non-finite batch in run {} epoch {}: loss={loss} grad_norm={grad_norm}",
                self.run, self.epoch
            );
            if self.fail_fast {
                panic!("taxorec fail-fast: {msg}");
            }
            sink::warn(&format!("{msg} — skipping parameter update"));
            return false;
        }
        self.loss_sum += loss;
        self.grad_norm_sum += grad_norm;
        self.n_batches += 1;
        true
    }

    /// Records the boundary proximity of the tag embeddings (max row norm
    /// in the Poincaré ball) for the current epoch.
    pub fn observe_boundary(&mut self, max_norm: f64) {
        self.boundary_max_norm = max_norm;
    }

    /// Records a taxonomy rebuild that happened during the current epoch.
    pub fn observe_rebuild(&mut self, stats: RebuildStats) {
        self.rebuild = Some(stats);
    }

    /// Accumulates the current epoch's stage breakdown (seconds spent in
    /// neighbour aggregation, building the loss, backward passes, and
    /// parameter update). Call once per epoch or repeatedly per batch —
    /// the values add up until `end_epoch` publishes them.
    pub fn observe_stages(
        &mut self,
        aggregation_secs: f64,
        loss_secs: f64,
        backward_secs: f64,
        update_secs: f64,
    ) {
        self.aggregation_secs += aggregation_secs;
        self.loss_secs += loss_secs;
        self.backward_secs += backward_secs;
        self.update_secs += update_secs;
    }

    /// Closes the current epoch: computes means, stores the record, and
    /// publishes `train.*` metrics (one JSONL event per gauge when the
    /// metrics sink is on).
    pub fn end_epoch(&mut self) -> &EpochRecord {
        let duration_secs = self
            .started
            .take()
            .map(|t| t.elapsed().as_secs_f64())
            .unwrap_or(0.0);
        let n = self.n_batches.max(1) as f64;
        let record = EpochRecord {
            epoch: self.epoch,
            mean_loss: self.loss_sum / n,
            mean_grad_norm: self.grad_norm_sum / n,
            boundary_max_norm: self.boundary_max_norm,
            n_batches: self.n_batches,
            nan_batches: self.nan_batches,
            duration_secs,
            aggregation_secs: self.aggregation_secs,
            scoring_secs: self.loss_secs + self.backward_secs,
            loss_secs: self.loss_secs,
            backward_secs: self.backward_secs,
            update_secs: self.update_secs,
            rebuild: self.rebuild.take(),
        };
        self.g_loss.set(record.mean_loss);
        self.g_grad.set(record.mean_grad_norm);
        self.g_boundary.set(record.boundary_max_norm);
        self.h_epoch.observe(duration_secs);
        if record.aggregation_secs + record.scoring_secs + record.update_secs > 0.0 {
            self.h_aggregation.observe(record.aggregation_secs);
            self.h_scoring.observe(record.scoring_secs);
            self.h_loss.observe(record.loss_secs);
            self.h_backward.observe(record.backward_secs);
            self.h_update.observe(record.update_secs);
        }
        self.c_epochs.inc(1);
        if let Some(r) = &record.rebuild {
            sink::emit_metric(
                "event",
                "taxo.rebuild.stats",
                r.duration_secs,
                &[
                    ("nodes", Attr::I(r.nodes as i64)),
                    ("depth", Attr::I(r.depth as i64)),
                    ("moved_frac", Attr::F(r.moved_frac)),
                    ("epoch", Attr::I(record.epoch as i64)),
                ],
            );
        }
        sink::info(&format!(
            "epoch {:>3} [{}] loss {:.5} grad {:.4} boundary {:.4} batches {} ({} skipped) {:.2}s",
            record.epoch,
            self.run,
            record.mean_loss,
            record.mean_grad_norm,
            record.boundary_max_norm,
            record.n_batches,
            record.nan_batches,
            record.duration_secs,
        ));
        self.records.push(record);
        self.records.last().expect("just pushed")
    }

    /// All completed epoch records.
    pub fn records(&self) -> &[EpochRecord] {
        &self.records
    }

    /// The run label this monitor was created with.
    pub fn run(&self) -> &str {
        &self.run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_epochs_accumulate_means() {
        let _g = crate::test_lock();
        crate::sink::disable_metrics();
        let mut m = TrainingMonitor::new("test").with_fail_fast(false);
        m.begin_epoch(0);
        assert!(m.observe_batch(2.0, 1.0));
        assert!(m.observe_batch(4.0, 3.0));
        m.observe_boundary(0.8);
        let r = m.end_epoch().clone();
        assert_eq!(r.epoch, 0);
        assert!((r.mean_loss - 3.0).abs() < 1e-12);
        assert!((r.mean_grad_norm - 2.0).abs() < 1e-12);
        assert_eq!(r.boundary_max_norm, 0.8);
        assert_eq!(r.n_batches, 2);
        assert_eq!(r.nan_batches, 0);
        assert!(r.duration_secs >= 0.0);
    }

    #[test]
    fn nan_batches_are_skipped_and_counted() {
        let _g = crate::test_lock();
        crate::sink::disable_metrics();
        let mut m = TrainingMonitor::new("test").with_fail_fast(false);
        m.begin_epoch(0);
        assert!(m.observe_batch(1.0, 1.0));
        assert!(!m.observe_batch(f64::NAN, 1.0));
        assert!(!m.observe_batch(1.0, f64::INFINITY));
        let r = m.end_epoch().clone();
        assert_eq!(r.n_batches, 1);
        assert_eq!(r.nan_batches, 2);
        // The skipped batches never reached the mean.
        assert!((r.mean_loss - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "fail-fast")]
    fn fail_fast_panics_on_nan() {
        let _g = crate::test_lock();
        crate::sink::disable_metrics();
        let mut m = TrainingMonitor::new("test").with_fail_fast(true);
        m.begin_epoch(0);
        m.observe_batch(f64::NAN, 0.0);
    }

    #[test]
    fn stage_breakdown_accumulates_and_resets_per_epoch() {
        let _g = crate::test_lock();
        crate::sink::disable_metrics();
        let mut m = TrainingMonitor::new("test").with_fail_fast(false);
        m.begin_epoch(0);
        m.observe_batch(1.0, 0.5);
        m.observe_stages(0.2, 0.06, 0.04, 0.05);
        m.observe_stages(0.2, 0.06, 0.04, 0.05);
        let r = m.end_epoch().clone();
        assert!((r.aggregation_secs - 0.4).abs() < 1e-12);
        assert!((r.scoring_secs - 0.2).abs() < 1e-12);
        assert!((r.loss_secs - 0.12).abs() < 1e-12);
        assert!((r.backward_secs - 0.08).abs() < 1e-12);
        assert!((r.update_secs - 0.1).abs() < 1e-12);
        m.begin_epoch(1);
        m.observe_batch(1.0, 0.5);
        let r1 = m.end_epoch().clone();
        assert_eq!(r1.aggregation_secs, 0.0, "stages reset at begin_epoch");
    }

    #[test]
    fn rebuild_stats_attach_to_their_epoch() {
        let _g = crate::test_lock();
        crate::sink::disable_metrics();
        let mut m = TrainingMonitor::new("test").with_fail_fast(false);
        m.begin_epoch(0);
        m.observe_batch(1.0, 0.5);
        m.observe_rebuild(RebuildStats {
            nodes: 7,
            depth: 2,
            moved_frac: 0.25,
            duration_secs: 0.01,
        });
        m.end_epoch();
        m.begin_epoch(1);
        m.observe_batch(0.9, 0.4);
        m.end_epoch();
        let recs = m.records();
        assert_eq!(recs.len(), 2);
        let r0 = recs[0].rebuild.as_ref().expect("epoch 0 rebuilt");
        assert_eq!((r0.nodes, r0.depth), (7, 2));
        assert!(
            recs[1].rebuild.is_none(),
            "rebuild does not leak to epoch 1"
        );
    }
}
