//! Fault-tolerant training control: resumable state, checkpoint cadence,
//! and divergence-recovery policy for [`crate::TaxoRec::fit_controlled`].
//!
//! ## Crash-resume contract
//!
//! A [`TrainState`] captured after epoch `k` contains everything the
//! training loop cannot recompute deterministically from `(dataset,
//! split, config)`:
//!
//! * the **raw** (pre-aggregation) parameters `u^ir`, `v^ir`, `u^tg`,
//!   `T^P` — the post-aggregation embeddings are derived;
//! * the RNG state (xoshiro256++ words) *after* epoch `k` finished, so
//!   the resumed shuffle/negative-sampling stream continues exactly;
//! * the **taxonomy** as of its last rebuild — the Eq. 8 regularization
//!   plan derives from `T^P` at the *rebuild* epoch, not the current one,
//!   so it cannot be reconstructed from the checkpointed `T^P`;
//! * the divergence-recovery knobs (`lr_scale`, rollback count) and the
//!   loss history.
//!
//! Everything else (interaction graph, `α_u` weights, the base training
//! pair list) is rebuilt from the dataset, which makes the state small
//! and the resume **bit-identical**: training to epoch `n`, or training
//! to epoch `k < n`, reloading, and continuing to `n`, produce the same
//! parameters bit for bit.
//!
//! ## Divergence recovery
//!
//! At the end of every epoch the loop checks for divergence (non-finite
//! epoch mean, or a majority of batches skipped as non-finite). A
//! diverged epoch is **rolled back**: parameters, RNG, and loss history
//! are restored to the start-of-epoch snapshot, the effective learning
//! rate is multiplied by [`FitControl::lr_backoff`], and the epoch is
//! re-run. After [`FitControl::max_rollbacks`] rollbacks the loop gives
//! up, restores the last good snapshot, and returns with
//! [`FitReport::gave_up`] set — the model stays usable at its last
//! healthy parameters instead of poisoning downstream consumers.

use std::time::Duration;

use taxorec_autodiff::Matrix;
use taxorec_taxonomy::Taxonomy;

use crate::config::TaxoRecConfig;

/// A resumable snapshot of mid-training state. Produced by the
/// checkpoint sink of [`crate::TaxoRec::fit_controlled`]; feed it back
/// through [`FitControl::resume`] to continue bit-identically.
#[derive(Clone, Debug)]
pub struct TrainState {
    /// Configuration of the run that produced this state. A resume must
    /// use the same configuration (enforced by `fit_controlled`).
    pub config: TaxoRecConfig,
    /// First epoch the resumed loop should run (epochs `0..next_epoch`
    /// are already reflected in the parameters).
    pub next_epoch: usize,
    /// xoshiro256++ state after the last completed epoch.
    pub rng_state: [u64; 4],
    /// Current divergence-recovery learning-rate multiplier (1.0 unless
    /// rollbacks happened).
    pub lr_scale: f64,
    /// Rollbacks consumed so far (counts against
    /// [`FitControl::max_rollbacks`]).
    pub rollbacks: usize,
    /// Raw user embeddings on the hyperboloid (`n_users × (dim_ir+1)`).
    pub u_ir: Matrix,
    /// Raw item embeddings on the hyperboloid.
    pub v_ir: Matrix,
    /// Raw user tag-channel embeddings.
    pub u_tg: Matrix,
    /// Poincaré tag embeddings.
    pub t_p: Matrix,
    /// Mean loss of each completed epoch.
    pub loss_history: Vec<f64>,
    /// The taxonomy as of its most recent rebuild (None before the first
    /// rebuild or when the tag channel is off).
    pub taxonomy: Option<Taxonomy>,
}

impl TrainState {
    /// Structural sanity checks (not dataset-shape checks — those happen
    /// in `fit_controlled` where the dataset is in scope).
    pub fn validate(&self) -> Result<(), String> {
        self.config.validate()?;
        if self.next_epoch > self.config.epochs {
            return Err(format!(
                "next_epoch {} exceeds configured epochs {}",
                self.next_epoch, self.config.epochs
            ));
        }
        if self.rng_state.iter().all(|&w| w == 0) {
            return Err("all-zero RNG state".to_string());
        }
        if !self.lr_scale.is_finite() || self.lr_scale <= 0.0 {
            return Err(format!("invalid lr_scale {}", self.lr_scale));
        }
        if self.loss_history.len() > self.next_epoch {
            return Err(format!(
                "loss history has {} entries but only {} epochs completed",
                self.loss_history.len(),
                self.next_epoch
            ));
        }
        Ok(())
    }
}

/// Knobs for [`crate::TaxoRec::fit_controlled`]. [`Default`] reproduces
/// plain `fit`: no resume, no checkpoints, up to 3 divergence rollbacks
/// with learning-rate halving.
pub struct FitControl<'a> {
    /// Continue from a previous [`TrainState`] instead of initializing.
    pub resume: Option<TrainState>,
    /// Emit a checkpoint every this many completed epochs (0 = never).
    pub checkpoint_every: usize,
    /// Receives each checkpoint. A failing sink is warned and counted
    /// ([`FitReport::checkpoint_failures`]) but never stops training.
    #[allow(clippy::type_complexity)]
    pub checkpoint_sink: Option<Box<dyn FnMut(&TrainState) -> Result<(), String> + 'a>>,
    /// Divergence rollbacks allowed before giving up.
    pub max_rollbacks: usize,
    /// Learning-rate multiplier applied on each rollback.
    pub lr_backoff: f64,
    /// Sleep inserted after every epoch (testing hook: makes mid-run
    /// kills land deterministically between epochs).
    pub epoch_throttle: Duration,
    /// Called after every successfully completed epoch with its record
    /// (loss, grad norm, stage breakdown). Drives progress tails like
    /// `train-demo --follow`; rolled-back epochs are not reported.
    #[allow(clippy::type_complexity)]
    pub on_epoch: Option<Box<dyn FnMut(&taxorec_telemetry::EpochRecord) + 'a>>,
}

impl Default for FitControl<'_> {
    fn default() -> Self {
        Self {
            resume: None,
            checkpoint_every: 0,
            checkpoint_sink: None,
            max_rollbacks: 3,
            lr_backoff: 0.5,
            epoch_throttle: Duration::ZERO,
            on_epoch: None,
        }
    }
}

/// What [`crate::TaxoRec::fit_controlled`] did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FitReport {
    /// Epoch the loop started at (> 0 when resumed).
    pub start_epoch: usize,
    /// Epochs completed successfully during this call (rolled-back
    /// attempts excluded).
    pub epochs_run: usize,
    /// Divergence rollbacks performed during this call.
    pub rollbacks: usize,
    /// Checkpoints handed to the sink that reported success.
    pub checkpoints_written: usize,
    /// Checkpoints the sink rejected (training continued regardless).
    pub checkpoint_failures: usize,
    /// Final learning-rate multiplier (< 1.0 after rollbacks).
    pub final_lr_scale: f64,
    /// True when the rollback budget was exhausted and training stopped
    /// early at the last healthy snapshot.
    pub gave_up: bool,
}
