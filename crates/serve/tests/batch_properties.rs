//! Property-based tests of the batch assembler: across arbitrary
//! arrival interleavings — request ordering, duplicate user ids, mixed
//! `k`, submitter pauses racing the scorers, generated service times,
//! and every combination of batch size / scorer count — the scheduler
//! never drops, duplicates, or cross-wires a response, and it is work
//! conserving: no request waits while a scorer is idle.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use taxorec_serve::{BatchJob, BatchOptions, Batcher};

/// One synthetic request: a unique submission index (the identity the
/// cross-wiring check keys on — user ids deliberately collide) plus the
/// user/k payload a real `/recommend` would carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Req {
    idx: u32,
    user: u32,
    k: u32,
}

/// The only correct response to `r` — any mismatch is a cross-wire.
fn expected_response(r: Req) -> String {
    format!("i{}-u{}-k{}", r.idx, r.user, r.k)
}

/// What the handler saw of one batch: when it started and finished
/// scoring, and when each of its requests had been enqueued.
struct BatchRecord {
    start: Instant,
    end: Instant,
    enqueued: Vec<Instant>,
}

/// Length of the overlap of `[a0, a1]` and `[b0, b1]`.
fn overlap(a0: Instant, a1: Instant, b0: Instant, b1: Instant) -> Duration {
    a1.min(b1).saturating_duration_since(a0.max(b0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arbitrary_interleavings_never_drop_duplicate_or_cross_wire(
        // Duplicate users and mixed k on purpose: only `idx` is unique.
        payloads in proptest::collection::vec((0u32..6, 0u32..12), 1..48),
        max_batch in 1usize..9,
        n_scorers in 1usize..4,
        // Pauses between submissions (µs), racing the scorers so some
        // runs find them idle and others pile up a backlog.
        pauses in proptest::collection::vec(0u64..800, 1..48),
        // Time the handler holds a scorer per batch (µs), cycled.
        service in proptest::collection::vec(0u64..1500, 1..16),
    ) {
        let completed: Arc<Mutex<Vec<(Req, String)>>> = Arc::new(Mutex::new(Vec::new()));
        let records: Arc<Mutex<Vec<BatchRecord>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&completed);
        let record_sink = Arc::clone(&records);
        let (batcher, _) = Batcher::spawn(
            BatchOptions {
                max_batch,
                // Admission control is deliberately out of scope here
                // (covered by the capacity unit test): every submission
                // must be admitted so "never drops" is meaningful.
                queue_capacity: 4096,
                n_scorers,
            },
            move |jobs: &[BatchJob<Req>]| {
                let start = Instant::now();
                let hold = service[jobs[0].req.idx as usize % service.len()];
                std::thread::sleep(Duration::from_micros(hold));
                record_sink.lock().unwrap().push(BatchRecord {
                    start,
                    end: Instant::now(),
                    enqueued: jobs.iter().map(|j| j.enqueued).collect(),
                });
                jobs.iter().map(|j| expected_response(j.req)).collect()
            },
            |job| format!("fallback-{}", job.req.idx),
            move |req, resp: String| sink.lock().unwrap().push((req, resp)),
        )
        .expect("spawn");

        let submitted: Vec<Req> = payloads
            .iter()
            .enumerate()
            .map(|(i, &(user, k))| Req { idx: i as u32, user, k })
            .collect();
        for (i, r) in submitted.iter().enumerate() {
            batcher.try_submit(*r).expect("queue sized for every submission");
            let pause = pauses[i % pauses.len()];
            if pause > 0 {
                std::thread::sleep(Duration::from_micros(pause));
            }
        }
        // Drains every queued request before joining the scorers.
        batcher.shutdown();

        let got = completed.lock().unwrap();
        // Exactly once: every submission completed, none twice.
        prop_assert_eq!(got.len(), submitted.len());
        let mut seen: Vec<u32> = got.iter().map(|(r, _)| r.idx).collect();
        seen.sort_unstable();
        let all: Vec<u32> = (0..submitted.len() as u32).collect();
        prop_assert_eq!(seen, all);
        // No cross-wiring: each response is the one for its own request,
        // even between requests with identical (user, k) payloads.
        for (req, resp) in got.iter() {
            prop_assert_eq!(resp, &expected_response(*req));
        }
        // Work conservation. While a request waited — from its enqueue
        // to the start of its own batch — every scorer was busy with
        // another batch: the other batches' scoring intervals cover the
        // wait `n_scorers`-fold. A scheduler that sits on a request
        // (a batching delay, a lost wake-up) leaves the wait uncovered.
        // What the handler cannot see of a scorer's time (taking the
        // batch, the fan-out) and scheduling noise go into a CI-safe
        // slack, far above either and nothing like an unbounded wait.
        let slack = Duration::from_secs(1);
        let records = records.lock().unwrap();
        for (b, batch) in records.iter().enumerate() {
            for &enqueued in &batch.enqueued {
                let wait = batch.start.saturating_duration_since(enqueued);
                let covered: Duration = records
                    .iter()
                    .enumerate()
                    .filter(|&(other, _)| other != b)
                    .map(|(_, o)| overlap(o.start, o.end, enqueued, batch.start))
                    .sum();
                prop_assert!(
                    covered + slack * n_scorers as u32 >= wait * n_scorers as u32,
                    "request waited {wait:?} while {n_scorers} scorers were busy for only \
                     {covered:?} of it in total"
                );
                // Hence the bound a client sees: a queued request waits
                // at most the service time of the batches ahead of it.
                let ahead: Duration = records
                    .iter()
                    .enumerate()
                    .filter(|&(other, o)| other != b && o.start <= batch.start && o.end > enqueued)
                    .map(|(_, o)| o.end - o.start)
                    .sum();
                prop_assert!(
                    wait <= ahead + slack,
                    "request waited {wait:?} behind {ahead:?} of scoring"
                );
            }
        }
    }
}
