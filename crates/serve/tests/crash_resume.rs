//! Crash-resume at the process level: a `train-demo` run is SIGKILLed
//! mid-training, resumed from its on-disk `TrainCheckpoint`, and the
//! final `.taxo` artifact is required to be **byte-identical** to the
//! artifact of a run that was never interrupted — the strongest possible
//! statement of the resume contract (same embeddings, same taxonomy,
//! same serialization, bit for bit).
//!
//! Also exercises the `TAXOREC_FAULT` environment path end to end: an
//! armed `io@checkpoint.save` fault is absorbed by the save retry, and a
//! malformed spec fails fast instead of silently disabling the test that
//! depends on it.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_taxorec-serve");
const EPOCHS: &str = "6";

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("taxorec-crash-{}-{name}", std::process::id()))
}

/// A `train-demo` command with a hygienic environment: no inherited
/// fault spec, stall length, or thread override can skew determinism.
fn train_cmd(args: &[&str]) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.arg("train-demo")
        .args(args)
        .env_remove("TAXOREC_FAULT")
        .env_remove("TAXOREC_FAULT_STALL_MS")
        .env_remove("TAXOREC_THREADS")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    cmd
}

fn run_ok(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("spawn taxorec-serve");
    assert!(
        out.status.success(),
        "train-demo failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn sigkilled_training_resumes_to_a_byte_identical_artifact() {
    let out_clean = tmp("clean.taxo");
    let out_resumed = tmp("resumed.taxo");
    let ck = tmp("state.trainstate");

    // Reference: the same training run, never interrupted.
    run_ok(&mut train_cmd(&[
        out_clean.to_str().unwrap(),
        "--epochs",
        EPOCHS,
    ]));
    let clean_bytes = std::fs::read(&out_clean).expect("clean artifact");

    // Interrupted run: every epoch stalls 200 ms so SIGKILL lands
    // mid-training, with a checkpoint after every completed epoch.
    let mut child = train_cmd(&[
        out_resumed.to_str().unwrap(),
        "--epochs",
        EPOCHS,
        "--checkpoint",
        ck.to_str().unwrap(),
        "--checkpoint-every",
        "1",
    ])
    .env("TAXOREC_FAULT", "stall@train.epoch:1+")
    .env("TAXOREC_FAULT_STALL_MS", "200")
    .spawn()
    .expect("spawn throttled train-demo");

    // Kill as soon as the first checkpoint exists (SIGKILL: no unwind,
    // no atexit — the hardest crash the process can take).
    let deadline = Instant::now() + Duration::from_secs(60);
    while !ck.exists() {
        assert!(Instant::now() < deadline, "no checkpoint appeared in 60 s");
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("train-demo exited early with {status}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");

    // Resume from whatever epoch the checkpoint captured and finish.
    let out = run_ok(&mut train_cmd(&[
        out_resumed.to_str().unwrap(),
        "--epochs",
        EPOCHS,
        "--checkpoint",
        ck.to_str().unwrap(),
        "--checkpoint-every",
        "1",
        "--resume",
        ck.to_str().unwrap(),
    ]));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("resuming from"), "{stdout}");

    let resumed_bytes = std::fs::read(&out_resumed).expect("resumed artifact");
    assert_eq!(
        clean_bytes, resumed_bytes,
        "artifact after kill+resume differs from the uninterrupted run"
    );

    for p in [&out_clean, &out_resumed, &ck] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn fault_spec_env_var_is_honoured_and_absorbed_by_the_save_retry() {
    let out = tmp("fault-env.taxo");
    let ck = tmp("fault-env.trainstate");
    // The first checkpoint.save probe fails with an injected IO error;
    // the retry policy's second attempt succeeds, so the run still
    // completes and saves both the checkpoint and the artifact.
    let output = run_ok(
        train_cmd(&[
            out.to_str().unwrap(),
            "--epochs",
            "2",
            "--checkpoint",
            ck.to_str().unwrap(),
        ])
        .env("TAXOREC_FAULT", "io@checkpoint.save:1")
        .env("TAXOREC_LOG", "warn"),
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("fault injection: firing io@checkpoint.save"),
        "{stderr}"
    );
    assert!(out.exists() && ck.exists());
    std::fs::remove_file(&out).ok();
    std::fs::remove_file(&ck).ok();
}

#[test]
fn malformed_fault_spec_fails_fast_instead_of_silently_disarming() {
    let out = tmp("bad-spec.taxo");
    let output = train_cmd(&[out.to_str().unwrap(), "--epochs", "1"])
        .env("TAXOREC_FAULT", "kaboom@nowhere")
        .output()
        .expect("spawn");
    assert!(
        !output.status.success(),
        "a typo'd spec must not pass silently"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("invalid TAXOREC_FAULT spec"), "{stderr}");
    std::fs::remove_file(&out).ok();
}
