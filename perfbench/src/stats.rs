//! Order statistics and the window scheme behind every timing metric.
//!
//! A timed phase is cut into equal windows; throughput and latency
//! percentiles are computed per window and the reported value is the
//! **median over windows**, so interference shorter than half the phase
//! cannot move it. The pooled p99 is kept for information only.

/// Linear-interpolation quantile (`q ∈ [0,1]`) of ascending `sorted`
/// data: position `q·(n−1)` between the two closest ranks. `0.0` for
/// empty input.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// Sorts a copy ascending (NaN-free input assumed; NaN sorts last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// Median of unsorted values (`0.0` when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (method "exclusive") gives them —
/// the rule the benchmark's acceptance check uses. Needs ≥ 2 values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let n = data.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        // `delta` may exceed 4 or go negative once `j` is clamped: the
        // cut point is then extrapolated, as in the Python original.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// One completed operation of a timed phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Completion instant, seconds from the start of the phase.
    pub end_s: f64,
    /// Latency of the operation in milliseconds.
    pub latency_ms: f64,
}

/// Window medians of one timed phase.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowStats {
    /// Median over windows of completions per second.
    pub throughput_per_s: f64,
    /// Median over windows of the per-window latency median.
    pub p50_ms: f64,
    /// Median over windows of the per-window 90th percentile.
    pub p90_ms: f64,
    /// 99th percentile of all samples pooled (informational).
    pub p99_pooled_ms: f64,
    /// Samples that fell inside the phase.
    pub samples: usize,
    /// Windows the phase was cut into.
    pub windows: usize,
    /// Quartile distance of the per-window throughput over its median:
    /// how unsteady the run was inside itself.
    pub window_iqr_share: f64,
    /// Completions per second of each window, in time order.
    pub rates: Vec<f64>,
    /// Latency median of each window that has samples, in time order.
    pub p50s: Vec<f64>,
    /// Latency 90th percentile of each window that has samples.
    pub p90s: Vec<f64>,
}

/// Cuts `[0, phase_s)` into `n_windows` equal windows, assigns each
/// sample to the window its completion falls in (samples completing at
/// or after `phase_s` are dropped), and takes medians over windows.
/// Windows without samples count as zero throughput and are left out of
/// the latency medians.
pub fn window_stats(samples: &[Sample], phase_s: f64, n_windows: usize) -> WindowStats {
    let n_windows = n_windows.max(1);
    let width = phase_s / n_windows as f64;
    let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); n_windows];
    let mut pooled = Vec::with_capacity(samples.len());
    for s in samples {
        if s.end_s < 0.0 || s.end_s >= phase_s {
            continue;
        }
        let w = ((s.end_s / width) as usize).min(n_windows - 1);
        per_window[w].push(s.latency_ms);
        pooled.push(s.latency_ms);
    }
    let mut rates = Vec::with_capacity(n_windows);
    let mut p50s = Vec::new();
    let mut p90s = Vec::new();
    for lat in &per_window {
        rates.push(lat.len() as f64 / width);
        if !lat.is_empty() {
            let s = sorted(lat);
            p50s.push(quantile(&s, 0.5));
            p90s.push(quantile(&s, 0.9));
        }
    }
    let throughput = median(&rates);
    let iqr_share = match quartiles(&rates) {
        Some([q1, _, q3]) if throughput > 0.0 => (q3 - q1) / throughput,
        _ => 0.0,
    };
    WindowStats {
        throughput_per_s: throughput,
        p50_ms: median(&p50s),
        p90_ms: median(&p90s),
        p99_pooled_ms: quantile(&sorted(&pooled), 0.99),
        samples: pooled.len(),
        windows: n_windows,
        window_iqr_share: iqr_share,
        rates,
        p50s,
        p90s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_closest_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        // position 0.9·3 = 2.7 → 3 + 0.7·(4−3)
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn windows_take_the_median_so_one_burst_cannot_move_it() {
        // Three 1 s windows. Windows 0 and 2: four ops of 1 ms each.
        // Window 1 is a burst of interference: one op of 100 ms.
        let mut samples = Vec::new();
        for w in [0.0, 2.0] {
            for i in 0..4 {
                samples.push(Sample {
                    end_s: w + 0.1 + 0.2 * i as f64,
                    latency_ms: 1.0,
                });
            }
        }
        samples.push(Sample {
            end_s: 1.5,
            latency_ms: 100.0,
        });
        // Completes after the phase: dropped.
        samples.push(Sample {
            end_s: 3.0,
            latency_ms: 5.0,
        });
        let st = window_stats(&samples, 3.0, 3);
        assert_eq!(st.samples, 9);
        assert_eq!(st.windows, 3);
        // Rates are [4, 1, 4] per second → median 4.
        assert_eq!(st.throughput_per_s, 4.0);
        // Window medians are [1, 100, 1] → median 1; same for p90.
        assert_eq!(st.p50_ms, 1.0);
        assert_eq!(st.p90_ms, 1.0);
        // Pooled p99 does see the burst: position 0.99·8 = 7.92 between
        // 1 and 100.
        assert!((st.p99_pooled_ms - (1.0 + 0.92 * 99.0)).abs() < 1e-9);
        // quartiles([1,4,4]) = [1, 4, 4] → (4 − 1) / 4.
        assert_eq!(st.window_iqr_share, 0.75);
        assert_eq!(st.rates, [4.0, 1.0, 4.0]);
    }

    #[test]
    fn empty_windows_count_as_zero_rate_and_skip_latency() {
        let samples = [Sample {
            end_s: 0.5,
            latency_ms: 2.0,
        }];
        let st = window_stats(&samples, 4.0, 4);
        // Rates [1, 0, 0, 0] → median 0; latency medians only from the
        // one window that has samples.
        assert_eq!(st.throughput_per_s, 0.0);
        assert_eq!(st.p50_ms, 2.0);
        assert_eq!(st.window_iqr_share, 0.0);
    }
}
