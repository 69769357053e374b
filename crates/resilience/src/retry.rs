//! Bounded retry with exponential backoff and decorrelated jitter.
//!
//! The policy is deliberately tiny: a fixed attempt budget, a geometric
//! backoff schedule, and telemetry. [`RetryPolicy::run`] re-tries a
//! failed checkpoint save and reports under `resilience.retry.*`; the
//! shard router takes only the policy's budget and bounds, and draws its
//! sleeps for re-trying an idempotent read against a recovering shard
//! from its own [`DecorrelatedJitter`] (`router.connect.refused_retry`).
//!
//! [`DecorrelatedJitter`] implements the AWS-architecture-blog
//! "decorrelated jitter" schedule: each sleep is drawn uniformly from
//! `[base, 3 × previous_sleep]`, clamped to the policy's cap. Many
//! clients retrying against one recovering server therefore spread out
//! instead of synchronizing into a thundering herd the way a plain
//! geometric schedule does.

use std::time::Duration;

/// A bounded exponential-backoff retry schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retry).
    pub max_attempts: usize,
    /// Sleep before the first retry.
    pub initial_backoff: Duration,
    /// Backoff multiplier per further retry.
    pub multiplier: u32,
    /// Ceiling on any single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            initial_backoff: Duration::from_millis(1),
            multiplier: 2,
            max_backoff: Duration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// The sleep before retry number `retry` (1-based).
    pub fn backoff_for(&self, retry: usize) -> Duration {
        let factor = self
            .multiplier
            .saturating_pow(retry.saturating_sub(1).min(u32::MAX as usize) as u32);
        self.initial_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }

    /// Runs `op(attempt)` (attempt is 0-based) until it succeeds or the
    /// attempt budget is exhausted, sleeping the backoff schedule between
    /// attempts. Returns the first success or the *last* error.
    ///
    /// Retries are counted under `resilience.retry.attempts`; an
    /// exhausted budget under `resilience.retry.exhausted`.
    pub fn run<T, E, F>(&self, label: &str, mut op: F) -> Result<T, E>
    where
        E: std::fmt::Display,
        F: FnMut(usize) -> Result<T, E>,
    {
        let attempts = self.max_attempts.max(1);
        let mut last_err = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                taxorec_telemetry::counter("resilience.retry.attempts").inc(1);
                std::thread::sleep(self.backoff_for(attempt));
            }
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    taxorec_telemetry::sink::warn(&format!(
                        "{label}: attempt {}/{attempts} failed: {e}",
                        attempt + 1
                    ));
                    last_err = Some(e);
                }
            }
        }
        taxorec_telemetry::counter("resilience.retry.exhausted").inc(1);
        Err(last_err.expect("at least one attempt ran"))
    }
}

/// The decorrelated-jitter backoff schedule: sleep `n+1` is drawn
/// uniformly from `[base, 3 × sleep_n]` and clamped to the policy cap.
///
/// Deterministic given its seed (a splitmix64 generator drives the
/// draws), so tests can assert the exact envelope; production callers
/// seed from a per-request or per-thread value so concurrent schedules
/// decorrelate.
#[derive(Clone, Debug)]
pub struct DecorrelatedJitter {
    base: Duration,
    cap: Duration,
    prev: Duration,
    rng: u64,
}

impl DecorrelatedJitter {
    /// A schedule bounded by `policy.initial_backoff` (floor) and
    /// `policy.max_backoff` (cap), seeded with `seed`.
    pub fn new(policy: RetryPolicy, seed: u64) -> Self {
        let base = policy.initial_backoff;
        Self {
            base,
            cap: policy.max_backoff.max(base),
            prev: base,
            rng: seed,
        }
    }

    /// splitmix64: tiny, seedable, and plenty uniform for spreading
    /// sleeps — this is jitter, not cryptography.
    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// The next sleep: uniform in `[base, 3 × previous]`, clamped to the
    /// cap. Always at least `base`, never above the cap.
    pub fn next_backoff(&mut self) -> Duration {
        let base_ns = self.base.as_nanos() as u64;
        let hi_ns = (self.prev.as_nanos() as u64)
            .saturating_mul(3)
            .min(self.cap.as_nanos() as u64)
            .max(base_ns);
        let span = hi_ns - base_ns;
        let ns = if span == 0 {
            base_ns
        } else {
            base_ns + self.next_u64() % (span + 1)
        };
        self.prev = Duration::from_nanos(ns);
        self.prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn succeeds_without_retry() {
        let p = RetryPolicy::default();
        let mut calls = 0;
        let r: Result<i32, String> = p.run("test", |_| {
            calls += 1;
            Ok(7)
        });
        assert_eq!(r, Ok(7));
        assert_eq!(calls, 1);
    }

    #[test]
    fn retries_until_success() {
        let p = RetryPolicy {
            initial_backoff: Duration::ZERO,
            ..RetryPolicy::default()
        };
        let mut calls = 0;
        let r: Result<i32, String> = p.run("test", |attempt| {
            calls += 1;
            if attempt < 2 {
                Err(format!("boom {attempt}"))
            } else {
                Ok(42)
            }
        });
        assert_eq!(r, Ok(42));
        assert_eq!(calls, 3);
    }

    #[test]
    fn exhausts_and_returns_last_error() {
        let p = RetryPolicy {
            max_attempts: 2,
            initial_backoff: Duration::ZERO,
            ..RetryPolicy::default()
        };
        let r: Result<(), String> = p.run("test", |attempt| Err(format!("err {attempt}")));
        assert_eq!(r, Err("err 1".to_string()));
    }

    #[test]
    fn jitter_stays_inside_the_envelope() {
        let p = RetryPolicy {
            max_attempts: 8,
            initial_backoff: Duration::from_millis(2),
            multiplier: 2,
            max_backoff: Duration::from_millis(50),
        };
        for seed in 0..64u64 {
            let mut j = DecorrelatedJitter::new(p, seed);
            let mut prev = p.initial_backoff;
            for step in 0..32 {
                let s = j.next_backoff();
                assert!(
                    s >= p.initial_backoff,
                    "seed {seed} step {step}: {s:?} under the base floor"
                );
                assert!(
                    s <= p.max_backoff,
                    "seed {seed} step {step}: {s:?} over the cap"
                );
                assert!(
                    s <= (prev * 3).min(p.max_backoff).max(p.initial_backoff),
                    "seed {seed} step {step}: {s:?} exceeds 3× the previous sleep {prev:?}"
                );
                prev = s;
            }
        }
    }

    #[test]
    fn jitter_decorrelates_across_seeds_and_is_deterministic_per_seed() {
        let p = RetryPolicy {
            max_attempts: 8,
            initial_backoff: Duration::from_micros(100),
            multiplier: 2,
            max_backoff: Duration::from_millis(100),
        };
        let draw = |seed: u64| -> Vec<Duration> {
            let mut j = DecorrelatedJitter::new(p, seed);
            (0..8).map(|_| j.next_backoff()).collect()
        };
        // Same seed → same schedule (tests can rely on it).
        assert_eq!(draw(7), draw(7));
        // Different seeds must not produce identical schedules — that is
        // the thundering-herd failure mode this exists to break.
        let distinct: std::collections::HashSet<Vec<Duration>> = (0..16).map(draw).collect();
        assert!(
            distinct.len() > 12,
            "only {} distinct schedules across 16 seeds",
            distinct.len()
        );
    }

    #[test]
    fn backoff_schedule_is_geometric_and_capped() {
        let p = RetryPolicy {
            max_attempts: 10,
            initial_backoff: Duration::from_millis(2),
            multiplier: 2,
            max_backoff: Duration::from_millis(10),
        };
        assert_eq!(p.backoff_for(1), Duration::from_millis(2));
        assert_eq!(p.backoff_for(2), Duration::from_millis(4));
        assert_eq!(p.backoff_for(3), Duration::from_millis(8));
        assert_eq!(p.backoff_for(4), Duration::from_millis(10), "capped");
        assert_eq!(p.backoff_for(100), Duration::from_millis(10));
    }
}
