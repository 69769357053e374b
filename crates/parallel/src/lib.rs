//! # taxorec-parallel
//!
//! A zero-dependency scoped worker pool for the workspace's data-parallel
//! hot loops: k-means assignment, tag scoring, GCN propagation (`spmm`),
//! per-user evaluation, retrieval index builds and batched serving.
//!
//! ## Determinism contract
//!
//! Every entry point returns the same bits for any `TAXOREC_THREADS`
//! (including `1`, the exact sequential path), because
//!
//! * [`par_map`] / [`par_map_chunked`] compute each element independently
//!   and return results in index order — no cross-element arithmetic is
//!   reassociated;
//! * [`par_chunks`] hands each worker a disjoint slice whose position is
//!   fixed by its offset — per-chunk computation order is unchanged.
//!
//! ## Width, nesting and panics
//!
//! `TAXOREC_THREADS` sets the pool width (default `available_parallelism`)
//! and is re-read on every call, so tests can flip it between runs. At
//! width 1, for a single job, and for a `par_*` call made inside a pool
//! worker, the call is a plain loop on the caller's thread.
//!
//! A job that panics fails the call: the panic reaches the caller with its
//! original payload at every width. Nothing is retried (a pure job that
//! panicked would panic again) and no state outlives a call. Every job
//! first probes the `parallel.job` fault site — one atomic load while the
//! harness is disarmed — so `TAXOREC_FAULT=panic@parallel.job:17` makes
//! exactly the 17th job panic.

use std::cell::Cell;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

thread_local! {
    /// True while the current thread is a pool worker: nested `par_*`
    /// calls fall back to the sequential path instead of spawning.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Resolved pool width: `TAXOREC_THREADS` if set (`0` counts as 1),
/// otherwise `std::thread::available_parallelism()`. Re-read on every
/// call.
pub fn thread_count() -> usize {
    if let Some(n) = taxorec_telemetry::env::<usize>("TAXOREC_THREADS") {
        return n.max(1);
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// True when called from inside a pool worker thread.
pub fn in_pool() -> bool {
    IN_POOL.with(|f| f.get())
}

/// The one runner: `f(0) .. f(n - 1)` in jobs of `chunk` indices, in index
/// order. Inline it is a loop that allocates nothing beyond the result;
/// on the pool, workers claim jobs through an atomic cursor and keep
/// `(index, value)` pairs, put back in index order after the join.
fn run<R: Send>(label: &str, n: usize, chunk: usize, f: &(dyn Fn(usize) -> R + Sync)) -> Vec<R> {
    let chunk = chunk.clamp(1, n.max(1));
    let n_jobs = n.div_ceil(chunk);
    // Job `b` is the items `b * chunk ..`.
    let job = |b: usize, emit: &mut dyn FnMut(usize, R)| {
        taxorec_resilience::inject_panic("parallel.job");
        for i in b * chunk..(b * chunk + chunk).min(n) {
            emit(i, f(i));
        }
    };
    let inline = n_jobs <= 1 || in_pool();
    let width = if inline { 1 } else { thread_count() };
    let n_workers = width.min(n_jobs);
    if n_workers <= 1 {
        let mut out = Vec::with_capacity(n);
        for b in 0..n_jobs {
            job(b, &mut |_, r| out.push(r));
        }
        return out;
    }
    let next = AtomicUsize::new(0);
    // The launcher's ambient trace context is re-installed in every
    // worker, so spans opened inside pool jobs parent into the request
    // or training run that fanned the work out (`Copy`, free to carry).
    let trace_ctx = taxorec_telemetry::trace::current();
    let started = Instant::now();
    let joined: Vec<std::thread::Result<Vec<(usize, R)>>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..n_workers)
            .map(|_| {
                scope.spawn(|| {
                    IN_POOL.with(|p| p.set(true));
                    let _trace_scope = taxorec_telemetry::trace::scope(trace_ctx);
                    let mut done = Vec::new();
                    loop {
                        let b = next.fetch_add(1, Ordering::Relaxed);
                        if b >= n_jobs {
                            return done;
                        }
                        job(b, &mut |i, r| done.push((i, r)));
                    }
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join()).collect()
    });
    let wall = started.elapsed().as_secs_f64();
    taxorec_telemetry::sink::debug(|| {
        format!("{label}: {n_jobs} jobs on {n_workers} workers in {wall:.3}s")
    });
    let mut pairs = Vec::with_capacity(n);
    for worker in joined {
        pairs.extend(worker.unwrap_or_else(|payload| resume_unwind(payload)));
    }
    // Each worker's pairs ascend, so this merges `n_workers` sorted runs.
    pairs.sort_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

/// Maps `f` over `0..n` and returns the results in index order.
///
/// Scheduling granularity is one item per pool job; prefer
/// [`par_map_chunked`] when individual items are cheap.
pub fn par_map<T, F>(label: &str, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run(label, n, 1, &f)
}

/// Like [`par_map`], but workers claim contiguous blocks of `chunk` items
/// at a time, amortizing the per-job bookkeeping over cheap items. The
/// chunk size affects scheduling only — each item is still computed
/// independently, so results are bit-identical for any chunking and
/// thread count.
pub fn par_map_chunked<T, F>(label: &str, n: usize, chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run(label, n, chunk, &f)
}

/// Splits `data` into contiguous chunks of `chunk_len` elements (the last
/// one may be shorter) and calls `f(offset, chunk)` for each, in parallel.
/// Chunks are disjoint and their offsets are fixed, so any writes land
/// exactly where the sequential loop would put them. When a job panics,
/// its chunk may be partly written.
pub fn par_chunks<T, F>(label: &str, data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    let n_chunks = data.len().div_ceil(chunk_len);
    // Each job takes the next chunk; its position, not the job index,
    // fixes the offset. The lock is never held while `f` runs.
    let chunks = Mutex::new(data.chunks_mut(chunk_len).enumerate());
    run(label, n_chunks, 1, &|_| {
        let next = chunks
            .lock()
            .expect("no job panics holding the lock")
            .next();
        let (ci, chunk) = next.expect("one chunk per job");
        f(ci * chunk_len, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use taxorec_resilience::{install, FaultSpec, RetryPolicy};

    /// Runs `op` with `TAXOREC_THREADS=v`, serialized with every other
    /// test that sets the variable, and restores it afterwards.
    fn with_threads<R>(v: &str, op: impl FnOnce() -> R) -> R {
        static LOCK: Mutex<()> = Mutex::new(());
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = std::env::var("TAXOREC_THREADS").ok();
        std::env::set_var("TAXOREC_THREADS", v);
        let out = catch_unwind(AssertUnwindSafe(op));
        match prev {
            Some(p) => std::env::set_var("TAXOREC_THREADS", p),
            None => std::env::remove_var("TAXOREC_THREADS"),
        }
        out.unwrap_or_else(|payload| resume_unwind(payload))
    }

    /// `op`'s value, or the message it panicked with.
    fn caught<R>(op: impl FnOnce() -> R) -> Result<R, String> {
        catch_unwind(AssertUnwindSafe(op)).map_err(|p| *p.downcast::<String>().unwrap())
    }

    /// Runs `op` under the default retry policy, a panic failing the
    /// attempt (retry is the caller's to add); also returns the attempts.
    fn retried<R>(op: impl Fn() -> R) -> (Result<R, String>, usize) {
        let mut made = 0;
        let out = RetryPolicy::default().run("test.retry", |_| {
            made += 1;
            caught(&op)
        });
        (out, made)
    }

    #[test]
    fn par_map_preserves_order() {
        let out = par_map("test.map", 100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_chunked_matches_par_map() {
        let a = par_map("test.map", 37, |i| 3 * i + 1);
        let b = par_map_chunked("test.map", 37, 8, |i| 3 * i + 1);
        assert_eq!(a, b);
    }

    #[test]
    fn par_map_empty_and_single() {
        assert!(par_map("test.map", 0, |i| i).is_empty());
        assert_eq!(par_map("test.map", 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn par_chunks_writes_every_offset() {
        let mut data = vec![0usize; 103];
        par_chunks("test.chunks", &mut data, 10, |offset, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = offset + i;
            }
        });
        assert_eq!(data, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_path_is_bit_identical_to_parallel() {
        let work = |i: usize| (i as f64 + 0.5).sin() * (i as f64).cos();
        let seq = with_threads("1", || par_map_chunked("test.det", 500, 16, work));
        let par = with_threads("4", || par_map_chunked("test.det", 500, 16, work));
        assert!(seq
            .iter()
            .zip(&par)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn thread_count_env_override() {
        with_threads("3", || {
            assert_eq!(thread_count(), 3);
            std::env::set_var("TAXOREC_THREADS", "0");
            assert_eq!(thread_count(), 1, "0 clamps to 1");
            std::env::set_var("TAXOREC_THREADS", "garbage");
            assert!(thread_count() >= 1);
        });
    }

    #[test]
    fn nested_pools_fall_back_to_sequential() {
        let out = with_threads("4", || {
            par_map("test.outer", 8, |i| {
                assert!(in_pool() || thread_count() == 1);
                // Nested call must not deadlock or spawn; it runs inline.
                par_map("test.inner", 4, move |j| i * 10 + j)
            })
        });
        for (i, inner) in out.iter().enumerate() {
            assert_eq!(inner, &vec![i * 10, i * 10 + 1, i * 10 + 2, i * 10 + 3]);
        }
    }

    #[test]
    fn injected_job_panic_is_retried_and_the_run_completes() {
        // A site of this test's own, so no test running alongside can draw
        // the fault: its 17th probe panics, failing only the first attempt.
        install(FaultSpec::parse("panic@test.inject:17").unwrap());
        let job = |i: usize| {
            taxorec_resilience::inject_panic("test.inject");
            i * 3
        };
        let (out, made) = with_threads("4", || retried(|| par_map("test.inject", 64, job)));
        taxorec_resilience::disable();
        assert_eq!(out, Ok((0..64).map(|i| i * 3).collect()));
        assert_eq!(made, 2, "the injected panic failed the first attempt");
    }

    #[test]
    fn exhausted_retries_surface_a_pool_error_not_an_abort() {
        // Job 13 dies on every attempt: the caller's retries run out and
        // it gets the job's own message back; the process survives.
        let job = |i: usize| assert!(i != 13, "job {i} always dies");
        let (out, made) =
            with_threads("4", || retried(|| par_map_chunked("test.fail", 40, 3, job)));
        assert_eq!(out.unwrap_err(), "job 13 always dies");
        assert_eq!(made, RetryPolicy::default().max_attempts);
    }

    #[test]
    fn sequential_path_also_isolates_panics() {
        let ran = AtomicUsize::new(0);
        let job = |i: usize| assert!(ran.fetch_add(1, Ordering::Relaxed) != 5, "job {i} died");
        let out = with_threads("1", || caught(|| par_map("test.seqfail", 8, job)));
        assert_eq!(out.unwrap_err(), "job 5 died");
        assert_eq!(ran.into_inner(), 6, "the plain loop stops at the panic");
    }

    #[test]
    fn par_chunks_panic_is_not_retried_but_surfaces_cleanly() {
        let calls = AtomicUsize::new(0);
        let mut data = vec![0usize; 50];
        let msg = with_threads("2", || {
            caught(|| {
                par_chunks("test.chunkfail", &mut data, 10, |offset, chunk| {
                    if offset == 20 {
                        calls.fetch_add(1, Ordering::Relaxed);
                        panic!("in-place job died at {offset}");
                    }
                    chunk.fill(offset);
                })
            })
        });
        assert_eq!(msg.unwrap_err(), "in-place job died at 20");
        assert_eq!(calls.into_inner(), 1, "the failing chunk ran once");
    }
}
