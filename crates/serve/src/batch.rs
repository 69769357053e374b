//! The work-conserving batching scheduler: a bounded request channel
//! drained by a scorer pool into user-blocks.
//!
//! The hot-path kernels (DESIGN.md §12) amortize their item-side memory
//! traffic over up to 32 users per block, but an HTTP front end produces
//! one request at a time. This module closes the gap **without ever
//! idling a scorer that holds work**: requests enqueue into a bounded
//! channel, and a scorer that finds a request takes it together with
//! whatever else is already queued — up to [`BatchOptions::max_batch`] —
//! and scores at once. A lone request is therefore dispatched the moment
//! a scorer is free; batches form exactly while every scorer is busy,
//! which is when coalescing pays (the backlog shares one pass over the
//! catalogue) and when it costs nothing (the requests were waiting
//! anyway). There is no batching deadline to tune. The production shape
//! follows Chamberlain et al.'s "Scalable Hyperbolic Recommender
//! Systems" offline-train / online-batch-serve split.
//!
//! The scheduler is generic over the request type `R` and the response
//! type `S`; the serving tier instantiates it with parsed `/recommend`
//! requests (carrying their connection) and body/status responses, and
//! the property tests instantiate it with plain values to drive
//! arbitrary arrival interleavings through the assembler.
//!
//! ## Guarantees
//!
//! * **No request is dropped or duplicated** — every submitted request
//!   is completed exactly once, including at shutdown (the queue is
//!   drained, not discarded) and when the batch handler panics (each
//!   request in the doomed batch gets the `fallback` response).
//! * **No cross-wiring** — responses are matched to requests by
//!   position within the batch; the handler contract (`Vec<S>` of
//!   exactly the batch's length, same order) is checked, and a handler
//!   that breaks it fails the whole batch to `fallback` rather than
//!   mis-delivering.
//! * **Work conservation** — no request waits in the queue while a
//!   scorer is idle, and a queued request waits at most the service time
//!   of the batches ahead of it (plus wake-up noise). Or it was never
//!   admitted: [`Batcher::try_submit`] refuses at capacity so the caller
//!   can shed load with `503 + Retry-After` instead of queueing
//!   unboundedly.
//! * **Panic isolation** — a panicking batch fails only its own
//!   requests (`serve.batch.panics`); the scorer thread lives on. The
//!   `serve.batch` fault site makes this deterministically testable
//!   (`panic@serve.batch`, `stall@serve.batch`).
//!
//! ## Telemetry
//!
//! `serve.batch.size` (histogram, requests per formed batch),
//! `serve.batch.wait_ms` (histogram, per-request queue wait),
//! `serve.batch.batches` / `serve.batch.requests` / `serve.batch.shed` /
//! `serve.batch.panics` (counters); `/healthz` reports the queue depth. The handles are resolved once per scheduler, not per
//! batch: a registry lookup is a `String` allocation under the global
//! registry mutex, and most batches hold one request.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use taxorec_telemetry::{Counter, Histogram};

use crate::net::{PoolSpec, Stage};

/// Tuning knobs for the [`Batcher`].
#[derive(Clone, Debug)]
pub struct BatchOptions {
    /// Most requests coalesced into one scoring batch. 32 matches the
    /// fused-kernel block size (DESIGN.md §12).
    pub max_batch: usize,
    /// Requests allowed to wait in the batch queue; beyond this
    /// [`Batcher::try_submit`] refuses and the caller sheds load.
    pub queue_capacity: usize,
    /// Scorer threads draining the queue.
    pub n_scorers: usize,
}

impl Default for BatchOptions {
    fn default() -> Self {
        Self {
            max_batch: 32,
            queue_capacity: 1024,
            n_scorers: 2,
        }
    }
}

/// A request waiting in (or drained from) the batch queue, with the
/// instant it entered — the queue-wait telemetry is measured from
/// `enqueued`.
pub struct BatchJob<R> {
    /// The submitted request.
    pub req: R,
    /// When [`Batcher::try_submit`] accepted it.
    pub enqueued: Instant,
}

/// The scheduler's telemetry handles, resolved once at spawn.
struct BatchMetrics {
    size: Arc<Histogram>,
    wait_ms: Arc<Histogram>,
    batches: Arc<Counter>,
    requests: Arc<Counter>,
    shed: Arc<Counter>,
    panics: Arc<Counter>,
}

impl BatchMetrics {
    fn resolve() -> Self {
        Self {
            size: taxorec_telemetry::histogram("serve.batch.size"),
            wait_ms: taxorec_telemetry::histogram("serve.batch.wait_ms"),
            batches: taxorec_telemetry::counter("serve.batch.batches"),
            requests: taxorec_telemetry::counter("serve.batch.requests"),
            shed: taxorec_telemetry::counter("serve.batch.shed"),
            panics: taxorec_telemetry::counter("serve.batch.panics"),
        }
    }
}

/// The micro-batching scheduler: bounded queue + scorer pool. See the
/// module docs for the guarantees.
pub struct Batcher<R: Send + 'static> {
    stage: Arc<Stage<BatchJob<R>>>,
    opts: BatchOptions,
    metrics: Arc<BatchMetrics>,
}

impl<R: Send + 'static> Batcher<R> {
    /// Spawns the scorer pool.
    ///
    /// * `handler` scores one assembled batch; it must return exactly
    ///   one `S` per job, in batch order.
    /// * `fallback` synthesizes the response for every job of a batch
    ///   whose handler panicked (or broke the length contract).
    /// * `complete` delivers each `(request, response)` pair — exactly
    ///   once per submitted request, from a scorer thread.
    ///
    /// Scorer threads that fail to spawn are skipped; the second element
    /// of the returned pair is the number actually running (callers
    /// surface `< n_scorers` as degraded health). Zero is an error.
    pub fn spawn<S, H, F, C>(
        opts: BatchOptions,
        handler: H,
        fallback: F,
        complete: C,
    ) -> std::io::Result<(Self, usize)>
    where
        S: Send + 'static,
        H: Fn(&[BatchJob<R>]) -> Vec<S> + Send + Sync + 'static,
        F: Fn(&BatchJob<R>) -> S + Send + Sync + 'static,
        C: Fn(R, S) + Send + Sync + 'static,
    {
        let stage = Stage::new(opts.queue_capacity, None);
        let metrics = Arc::new(BatchMetrics::resolve());
        let max_batch = opts.max_batch.max(1);
        let scorer_metrics = Arc::clone(&metrics);
        let spawned = stage.spawn_workers(
            &PoolSpec {
                thread: "taxorec-scorer",
                metric: "serve.scorer",
                fault_site: None,
            },
            opts.n_scorers.max(1),
            move |stage| {
                scorer_loop(
                    stage,
                    max_batch,
                    &scorer_metrics,
                    &handler,
                    &fallback,
                    &complete,
                )
            },
        )?;
        Ok((
            Self {
                stage,
                opts,
                metrics,
            },
            spawned,
        ))
    }

    /// Enqueues a request, or returns it when the queue is at capacity
    /// (or the batcher is shutting down) so the caller can shed load.
    pub fn try_submit(&self, req: R) -> Result<(), R> {
        let job = BatchJob {
            req,
            enqueued: Instant::now(),
        };
        self.stage.push(job).map_err(|job| {
            self.metrics.shed.inc(1);
            job.req
        })
    }

    /// Requests currently waiting (not yet drained into a batch).
    pub fn queue_depth(&self) -> usize {
        self.stage.len()
    }

    /// The configured queue bound.
    pub fn capacity(&self) -> usize {
        self.opts.queue_capacity
    }

    /// The configured options.
    pub fn options(&self) -> &BatchOptions {
        &self.opts
    }

    /// Stops accepting work, drains every queued request through the
    /// scorers, and joins the pool. Idempotent.
    pub fn shutdown(&self) {
        self.stage.shutdown();
    }
}

impl<R: Send + 'static> Drop for Batcher<R> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One scorer: wait for work, take everything queued (up to
/// `max_batch`), score it with panic isolation, fan the responses out.
fn scorer_loop<R, S, H, F, C>(
    stage: &Stage<BatchJob<R>>,
    max_batch: usize,
    metrics: &BatchMetrics,
    handler: &H,
    fallback: &F,
    complete: &C,
) where
    R: Send + 'static,
    S: Send + 'static,
    H: Fn(&[BatchJob<R>]) -> Vec<S>,
    F: Fn(&BatchJob<R>) -> S,
    C: Fn(R, S),
{
    loop {
        // Phase 1: block until there is work (or a drained shutdown),
        // then take the backlog in arrival order. Never wait for a batch
        // to fill: whatever queued up while every scorer was busy is the
        // batch.
        let batch = stage.drain_up_to(max_batch);
        if batch.is_empty() {
            return;
        }
        // Phase 2: score with panic isolation and per-batch telemetry.
        let formed = Instant::now();
        metrics.size.observe(batch.len() as f64);
        metrics.batches.inc(1);
        metrics.requests.inc(batch.len() as u64);
        for j in &batch {
            metrics
                .wait_ms
                .observe(formed.saturating_duration_since(j.enqueued).as_secs_f64() * 1e3);
        }
        let scored = catch_unwind(AssertUnwindSafe(|| {
            // Deterministic failure hook: `panic@serve.batch` dooms this
            // batch (and only it); `stall@serve.batch` wedges the scorer
            // so backpressure and shedding are observable in tests.
            taxorec_resilience::inject_panic_or_stall("serve.batch");
            handler(&batch)
        }));
        // Phase 3: fan out — exactly one completion per request, even
        // when the handler panicked or broke the length contract.
        match scored {
            Ok(responses) if responses.len() == batch.len() => {
                for (job, resp) in batch.into_iter().zip(responses) {
                    complete(job.req, resp);
                }
            }
            outcome => {
                metrics.panics.inc(1);
                taxorec_telemetry::sink::warn(match outcome {
                    Ok(_) => {
                        "batch handler broke the one-response-per-request contract; \
                              failing the batch"
                    }
                    Err(_) => "batch handler panicked; failing only this batch",
                });
                for job in batch {
                    let resp = fallback(&job);
                    complete(job.req, resp);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    fn drain_all(completed: &Mutex<Vec<(u32, String)>>, n: usize) -> Vec<(u32, String)> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            {
                let got = completed.lock().unwrap();
                if got.len() >= n {
                    return got.clone();
                }
            }
            assert!(
                Instant::now() < deadline,
                "timed out waiting for completions"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn every_request_completes_exactly_once_with_its_own_response() {
        let completed = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&completed);
        let (batcher, spawned) = Batcher::spawn(
            BatchOptions {
                max_batch: 4,
                queue_capacity: 1024,
                n_scorers: 2,
            },
            |jobs: &[BatchJob<u32>]| jobs.iter().map(|j| format!("r{}", j.req)).collect(),
            |_job| "fallback".to_string(),
            move |req, resp: String| sink.lock().unwrap().push((req, resp)),
        )
        .expect("spawn");
        assert_eq!(spawned, 2);
        for i in 0..100u32 {
            batcher.try_submit(i).expect("submit");
        }
        let got = drain_all(&completed, 100);
        assert_eq!(got.len(), 100, "no drops, no duplicates");
        let mut seen: Vec<u32> = got.iter().map(|(r, _)| *r).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
        for (req, resp) in &got {
            assert_eq!(resp, &format!("r{req}"), "no cross-wiring");
        }
        batcher.shutdown();
    }

    #[test]
    fn queue_capacity_refuses_instead_of_growing() {
        // No scorers can drain while the handler is stalled on the gate.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let gate_h = Arc::clone(&gate);
        let completed = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&completed);
        let (batcher, _) = Batcher::spawn(
            BatchOptions {
                max_batch: 1,
                queue_capacity: 2,
                n_scorers: 1,
            },
            move |jobs: &[BatchJob<u32>]| {
                let (open, cv) = &*gate_h;
                let mut open = open.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                jobs.iter().map(|j| format!("r{}", j.req)).collect()
            },
            |_job| "fallback".to_string(),
            move |req, resp: String| sink.lock().unwrap().push((req, resp)),
        )
        .expect("spawn");
        // First submit is grabbed by the (now blocked) scorer; the next
        // two fill the queue; the fourth must be refused.
        batcher.try_submit(0).expect("scored");
        let deadline = Instant::now() + Duration::from_secs(5);
        while batcher.queue_depth() != 0 {
            assert!(Instant::now() < deadline, "scorer never took the first job");
            std::thread::sleep(Duration::from_millis(1));
        }
        batcher.try_submit(1).expect("queued");
        batcher.try_submit(2).expect("queued");
        let refused = batcher.try_submit(3);
        assert_eq!(refused, Err(3), "at capacity: shed, don't queue");
        {
            let (open, cv) = &*gate;
            *open.lock().unwrap() = true;
            cv.notify_all();
        }
        let got = drain_all(&completed, 3);
        assert_eq!(got.len(), 3);
        batcher.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        let completed = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&completed);
        let (batcher, _) = Batcher::spawn(
            BatchOptions {
                max_batch: 8,
                queue_capacity: 1024,
                n_scorers: 1,
            },
            |jobs: &[BatchJob<u32>]| jobs.iter().map(|j| format!("r{}", j.req)).collect(),
            |_job| "fallback".to_string(),
            move |req, resp: String| sink.lock().unwrap().push((req, resp)),
        )
        .expect("spawn");
        for i in 0..20u32 {
            batcher.try_submit(i).expect("submit");
        }
        batcher.shutdown();
        let got = completed.lock().unwrap();
        assert_eq!(got.len(), 20, "shutdown drained, not dropped");
    }

    #[test]
    fn lone_request_is_dispatched_without_waiting_for_company() {
        // `max_batch` can never fill and nothing else will arrive: the
        // request must still complete, as a batch of one — nothing in
        // the scheduler waits for company.
        let completed = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&completed);
        let sizes = Arc::new(Mutex::new(Vec::new()));
        let seen_sizes = Arc::clone(&sizes);
        let (batcher, _) = Batcher::spawn(
            BatchOptions {
                max_batch: 32,
                queue_capacity: 16,
                n_scorers: 1,
            },
            move |jobs: &[BatchJob<u32>]| {
                seen_sizes.lock().unwrap().push(jobs.len());
                jobs.iter().map(|j| format!("r{}", j.req)).collect()
            },
            |_job| "fallback".to_string(),
            move |req, resp: String| sink.lock().unwrap().push((req, resp)),
        )
        .expect("spawn");
        batcher.try_submit(7).expect("submit");
        let got = drain_all(&completed, 1);
        assert_eq!(got[0], (7, "r7".to_string()));
        assert_eq!(*sizes.lock().unwrap(), vec![1], "dispatched alone");
        batcher.shutdown();
    }

    #[test]
    fn backlog_behind_a_busy_scorer_is_taken_as_one_batch() {
        // The single scorer is held inside its first batch while three
        // more requests queue up; released, it must take all three in
        // one pass (arrival order), not one at a time.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let gate_h = Arc::clone(&gate);
        let completed = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&completed);
        let batches = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&batches);
        let (batcher, _) = Batcher::spawn(
            BatchOptions {
                max_batch: 8,
                queue_capacity: 16,
                n_scorers: 1,
            },
            move |jobs: &[BatchJob<u32>]| {
                seen.lock()
                    .unwrap()
                    .push(jobs.iter().map(|j| j.req).collect::<Vec<_>>());
                let (open, cv) = &*gate_h;
                let mut open = open.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                jobs.iter().map(|j| format!("r{}", j.req)).collect()
            },
            |_job| "fallback".to_string(),
            move |req, resp: String| sink.lock().unwrap().push((req, resp)),
        )
        .expect("spawn");
        batcher.try_submit(0).expect("submit");
        let deadline = Instant::now() + Duration::from_secs(5);
        while batches.lock().unwrap().is_empty() {
            assert!(Instant::now() < deadline, "scorer never took the first job");
            std::thread::sleep(Duration::from_millis(1));
        }
        for i in 1..4u32 {
            batcher.try_submit(i).expect("queued");
        }
        {
            let (open, cv) = &*gate;
            *open.lock().unwrap() = true;
            cv.notify_all();
        }
        drain_all(&completed, 4);
        assert_eq!(*batches.lock().unwrap(), vec![vec![0], vec![1, 2, 3]]);
        batcher.shutdown();
    }
}
