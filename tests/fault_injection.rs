//! The fault-injection matrix from the resilience issue: every fault
//! site is armed in-process (the programmatic twin of `TAXOREC_FAULT`)
//! and the corresponding recovery path is asserted end to end — a
//! pool-job panic reaches the caller, whose own retry absorbs a one-shot
//! fault, a NaN epoch is rolled back and re-run,
//! a persistent NaN exhausts the rollback budget and degrades
//! gracefully, and a failed checkpoint write is absorbed by the retry
//! policy.
//!
//! The harness is process-global, so every test here serializes on one
//! lock and disarms the spec before releasing it.

use std::panic::catch_unwind;
use std::sync::Mutex;

use taxorec::core::{FitControl, TaxoRec, TaxoRecConfig, MAX_ROLLBACKS};
use taxorec::data::{generate_preset, Preset, Recommender, Scale, Split};
use taxorec::parallel::par_map;
use taxorec::resilience::{disable, install, FaultSpec, RetryPolicy};
use taxorec::serve::TrainCheckpoint;

/// Serializes tests that arm the process-global fault harness.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn arm(spec: &str) {
    install(FaultSpec::parse(spec).expect("valid spec"));
}

fn tiny_setup(epochs: usize) -> (taxorec::data::Dataset, Split, TaxoRecConfig) {
    let dataset = generate_preset(Preset::Ciao, Scale::Tiny);
    let split = Split::standard(&dataset);
    let mut cfg = TaxoRecConfig::fast_test();
    cfg.epochs = epochs;
    (dataset, split, cfg)
}

/// Runs `op` at 1 and then 4 threads, restoring `TAXOREC_THREADS` after.
fn at_1_and_4_threads(op: impl Fn(&str)) {
    let prev = std::env::var("TAXOREC_THREADS").ok();
    for threads in ["1", "4"] {
        std::env::set_var("TAXOREC_THREADS", threads);
        op(threads);
    }
    match prev {
        Some(v) => std::env::set_var("TAXOREC_THREADS", v),
        None => std::env::remove_var("TAXOREC_THREADS"),
    }
}

/// The message a caught panic carried.
fn message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload.downcast::<String>().map(|s| *s).unwrap_or_default()
}

#[test]
fn one_shot_pool_panic_is_absorbed_by_retry() {
    let _g = lock();
    at_1_and_4_threads(|threads| {
        // The third probed job panics. The pool retries nothing: the map
        // fails on the caller's thread with the harness's own message, and
        // the caller's retry re-runs it past the spent one-shot fault.
        arm("panic@parallel.job:3");
        let mut failed = Vec::new();
        let out = RetryPolicy::default().run("fault.map", |_| {
            catch_unwind(|| par_map("fault.map", 16, |i| i * i)).map_err(|p| {
                let msg = message(p);
                failed.push(msg.clone());
                msg
            })
        });
        disable();
        assert_eq!(out, Ok((0..16).map(|i| i * i).collect::<Vec<_>>()));
        assert_eq!(failed.len(), 1, "{threads}: {failed:?}");
        assert!(
            failed[0].contains("fault injected: panic@parallel.job"),
            "{threads}: {failed:?}"
        );
    });
}

#[test]
fn persistent_pool_panic_surfaces_a_pool_error() {
    let _g = lock();
    at_1_and_4_threads(|threads| {
        // Every probed job panics: the map fails on the caller's thread
        // with the harness's message instead of aborting the process.
        arm("panic@parallel.job:1+");
        let out = catch_unwind(|| par_map("fault.persistent", 4, |i| i)).map_err(message);
        disable();
        let msg = out.unwrap_err();
        assert!(
            msg.contains("fault injected: panic@parallel.job"),
            "{threads}: {msg:?}"
        );
        // The pool is healthy again once the fault is disarmed.
        assert_eq!(par_map("fault.after", 4, |i| i + 1), vec![1, 2, 3, 4]);
    });
}

#[test]
fn nan_epoch_rolls_back_and_training_recovers() {
    let _g = lock();
    let (dataset, split, cfg) = tiny_setup(4);
    // Epoch probe #2 (the second epoch's first attempt) reports NaN.
    arm("nan@train.epoch:2");
    let mut model = TaxoRec::new(cfg);
    let report = model.fit_controlled(&dataset, &split, FitControl::default());
    disable();

    assert_eq!(report.rollbacks, 1, "{report:?}");
    assert!(!report.gave_up, "{report:?}");
    assert_eq!(report.epochs_run, 4, "every epoch eventually completed");
    assert_eq!(report.final_lr_scale, 0.5, "one lr backoff applied");
    assert_eq!(model.loss_history.len(), 4);
    assert!(
        model.loss_history.iter().all(|l| l.is_finite()),
        "the rolled-back NaN never reached the history: {:?}",
        model.loss_history
    );
}

#[test]
fn persistent_divergence_exhausts_the_budget_and_gives_up() {
    let _g = lock();
    let (dataset, split, cfg) = tiny_setup(4);
    // Every attempt of the second epoch diverges, forever.
    arm("nan@train.epoch:2+");
    let mut model = TaxoRec::new(cfg.clone());
    let report = model.fit_controlled(&dataset, &split, FitControl::default());
    disable();

    assert!(report.gave_up, "{report:?}");
    assert_eq!(report.rollbacks, MAX_ROLLBACKS + 1, "{report:?}");
    assert_eq!(report.epochs_run, 1, "only the clean first epoch landed");
    // Graceful degradation: the model stops at its last healthy
    // parameters instead of poisoning downstream consumers.
    assert_eq!(model.loss_history.len(), 1);
    assert!(model.loss_history[0].is_finite());
    // "Last healthy parameters" to the bit: four rollbacks restored from
    // the one reused snapshot, so what is left is exactly what a run of
    // that single clean epoch trains (epoch 0 does not depend on how many
    // epochs follow it).
    let mut one_epoch = TaxoRec::new(TaxoRecConfig { epochs: 1, ..cfg });
    one_epoch.fit(&dataset, &split);
    assert_eq!(model.tag_embeddings(), one_epoch.tag_embeddings());
    for user in [0u32, 5, 11] {
        assert_eq!(model.scores_for_user(user), one_epoch.scores_for_user(user));
    }
}

#[test]
fn failed_checkpoint_write_is_absorbed_by_the_retry_policy() {
    let _g = lock();
    let (dataset, split, cfg) = tiny_setup(2);
    let path = std::env::temp_dir().join(format!(
        "taxorec-fault-io-{}.trainstate",
        std::process::id()
    ));
    let path_str = path.to_string_lossy().into_owned();
    // The very first write of the first checkpoint fails; the retry
    // policy's second attempt goes through.
    arm("io@checkpoint.save:1");
    let mut ctl = FitControl {
        checkpoint_every: 1,
        ..FitControl::default()
    };
    let sink_path = path_str.clone();
    ctl.checkpoint_sink = Some(Box::new(move |state| {
        RetryPolicy::default()
            .run("checkpoint.save", |_| {
                TrainCheckpoint::new(state.clone()).save(&sink_path)
            })
            .map_err(|e| e.to_string())
    }));
    let mut model = TaxoRec::new(cfg);
    let report = model.fit_controlled(&dataset, &split, ctl);
    disable();

    assert_eq!(report.checkpoints_written, 2, "{report:?}");
    assert_eq!(report.checkpoint_failures, 0, "{report:?}");
    let loaded = TrainCheckpoint::load_file(&path_str).expect("checkpoint readable");
    assert_eq!(loaded.state.next_epoch, 2);
    std::fs::remove_file(&path).ok();
}
