//! Bounded retry with exponential backoff.
//!
//! The policy is deliberately tiny: a fixed attempt budget and a
//! geometric backoff schedule. [`RetryPolicy::run`] re-tries a failed
//! checkpoint save, warning on each failed attempt.

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
    pub fn run<T, E, F>(&self, label: &str, mut op: F) -> Result<T, E>
    where
        E: std::fmt::Display,
        F: FnMut(usize) -> Result<T, E>,
    {
        let attempts = self.max_attempts.max(1);
        let mut last_err = None;
        for attempt in 0..attempts {
            if attempt > 0 {
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
        Err(last_err.expect("at least one attempt ran"))
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
