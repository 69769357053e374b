//! The global metric registry: counters, gauges, and fixed-bucket
//! histograms, all updated lock-free through `AtomicU64` (floats stored as
//! bit patterns). Registration takes a short mutex; hot paths hold `Arc`
//! handles (see the [`crate::held_counter!`] macro, which caches one per
//! call site) so steady-state recording never touches the registry lock.

use std::collections::HashMap;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::json;
use crate::sink;

/// Number of histogram buckets (log₁₀ thirds spanning `1e-9 ..= 1e12`).
pub const N_BUCKETS: usize = 64;

/// A monotonically increasing event count.
#[derive(Debug)]
pub struct Counter {
    name: String,
    value: AtomicU64,
}

impl Counter {
    fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n` to the counter.
    pub fn inc(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Metric name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// A last-value-wins float measurement.
#[derive(Debug)]
pub struct Gauge {
    name: String,
    bits: AtomicU64,
}

impl Gauge {
    fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            bits: AtomicU64::new(f64::NAN.to_bits()),
        }
    }

    /// Records `v` (and emits a JSONL event when the metrics sink is on).
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
        sink::emit_metric("gauge", &self.name, v, &[]);
    }

    /// Last recorded value (`NaN` before the first `set`).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Metric name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// A fixed-bucket histogram over positive values (latencies, iteration
/// counts, norms). Buckets are logarithmic: three per decade from `1e-9`
/// up; values `≤ 1e-9` land in the first bucket, values `≥ 1e12` in the
/// last. Tracks count/sum/min/max exactly.
#[derive(Debug)]
pub struct Histogram {
    name: String,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

/// Upper bound (inclusive) of bucket `i`.
pub fn bucket_upper_bound(i: usize) -> f64 {
    10f64.powf((i as f64 + 1.0 - 27.0) / 3.0)
}

/// Bucket index for value `v`.
pub fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v <= 0.0 {
        return 0;
    }
    let idx = (v.log10() * 3.0).floor() + 27.0;
    idx.clamp(0.0, (N_BUCKETS - 1) as f64) as usize
}

impl Histogram {
    fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Records one observation (and emits a JSONL event when the metrics
    /// sink is on). Non-finite observations count into the first bucket
    /// but are excluded from sum/min/max.
    pub fn observe(&self, v: f64) {
        let idx = if v.is_finite() { bucket_index(v) } else { 0 };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        if v.is_finite() {
            atomic_f64_add(&self.sum_bits, v);
            atomic_f64_min(&self.min_bits, v);
            atomic_f64_max(&self.max_bits, v);
        }
        sink::emit_metric("histogram", &self.name, v, &[]);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of finite observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean of finite observations (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            f64::NAN
        } else {
            self.sum() / n as f64
        }
    }

    /// Smallest finite observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        f64::from_bits(self.min_bits.load(Ordering::Relaxed))
    }

    /// Largest finite observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    /// Count in bucket `i`.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`) from the cumulative bucket
    /// counts: the upper bound of the first bucket whose cumulative count
    /// reaches `q · total`, clamped to the exact observed `[min, max]`
    /// range so the log-bucket granularity never reports a value outside
    /// what was actually seen. `NaN` when no finite value was observed.
    pub fn quantile(&self, q: f64) -> f64 {
        let total: u64 = (0..N_BUCKETS).map(|i| self.bucket_count(i)).sum();
        if total == 0 || !self.max().is_finite() {
            return f64::NAN;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for i in 0..N_BUCKETS {
            cum += self.bucket_count(i);
            if cum >= rank {
                return bucket_upper_bound(i).clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Metric name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
        self.min_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits
            .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
    }
}

fn atomic_f64_add(bits: &AtomicU64, v: f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

fn atomic_f64_min(bits: &AtomicU64, v: f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    while v < f64::from_bits(cur) {
        match bits.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

fn atomic_f64_max(bits: &AtomicU64, v: f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    while v > f64::from_bits(cur) {
        match bits.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<HashMap<String, Arc<Counter>>>,
    gauges: Mutex<HashMap<String, Arc<Gauge>>>,
    histograms: Mutex<HashMap<String, Arc<Histogram>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// The metric named `name` in `map`, created by `new` on first use. A
/// name already registered is found by `&str`: only an insert allocates.
fn lookup<T>(map: &Mutex<HashMap<String, Arc<T>>>, name: &str, new: fn(&str) -> T) -> Arc<T> {
    let mut map = map.lock().unwrap();
    if let Some(metric) = map.get(name) {
        return Arc::clone(metric);
    }
    let metric = Arc::new(new(name));
    map.insert(name.to_string(), Arc::clone(&metric));
    metric
}

/// The counter named `name`, created on first use.
pub fn counter(name: &str) -> Arc<Counter> {
    lookup(&registry().counters, name, Counter::new)
}

/// The gauge named `name`, created on first use.
pub fn gauge(name: &str) -> Arc<Gauge> {
    lookup(&registry().gauges, name, Gauge::new)
}

/// The histogram named `name`, created on first use.
pub fn histogram(name: &str) -> Arc<Histogram> {
    lookup(&registry().histograms, name, Histogram::new)
}

/// The counter named `$name`, looked up on the first call at this call
/// site and held in a static after: `held_counter!("serve.cache.hit").inc(1)`
/// costs one atomic load beyond the add. The series registers on first
/// use, exactly as with [`counter`].
#[macro_export]
macro_rules! held_counter {
    ($name:literal) => {{
        static __HELD: ::std::sync::OnceLock<::std::sync::Arc<$crate::registry::Counter>> =
            ::std::sync::OnceLock::new();
        &**__HELD.get_or_init(|| $crate::registry::counter($name))
    }};
}

/// All registered counters, sorted by name (for exposition renderers).
pub fn counters() -> Vec<Arc<Counter>> {
    let map = registry().counters.lock().unwrap();
    let mut v: Vec<Arc<Counter>> = map.values().map(Arc::clone).collect();
    v.sort_by(|a, b| a.name().cmp(b.name()));
    v
}

/// All registered gauges, sorted by name.
pub fn gauges() -> Vec<Arc<Gauge>> {
    let map = registry().gauges.lock().unwrap();
    let mut v: Vec<Arc<Gauge>> = map.values().map(Arc::clone).collect();
    v.sort_by(|a, b| a.name().cmp(b.name()));
    v
}

/// All registered histograms, sorted by name.
pub fn histograms() -> Vec<Arc<Histogram>> {
    let map = registry().histograms.lock().unwrap();
    let mut v: Vec<Arc<Histogram>> = map.values().map(Arc::clone).collect();
    v.sort_by(|a, b| a.name().cmp(b.name()));
    v
}

/// Zeroes every registered metric without invalidating held handles
/// (cached `Arc`s — e.g. the per-call-site span statics — stay live).
pub fn reset() {
    for c in registry().counters.lock().unwrap().values() {
        c.value.store(0, Ordering::Relaxed);
    }
    for g in registry().gauges.lock().unwrap().values() {
        g.bits.store(f64::NAN.to_bits(), Ordering::Relaxed);
    }
    for h in registry().histograms.lock().unwrap().values() {
        h.reset();
    }
}

/// Serializes every registered metric to one JSON object (serde-free):
///
/// ```json
/// {"counters": {..}, "gauges": {..},
///  "histograms": {"name": {"count":..,"sum":..,"min":..,"max":..,"mean":..,
///                          "buckets": [[upper_bound, count], ..]}}}
/// ```
///
/// Histogram buckets list only non-empty buckets as `[upper_bound, count]`
/// pairs. Keys are sorted so snapshots diff cleanly across runs.
pub fn snapshot() -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"counters\":{");
    {
        let map = registry().counters.lock().unwrap();
        let mut names: Vec<&String> = map.keys().collect();
        names.sort();
        for (i, name) in names.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str_escaped(&mut out, name);
            out.push(':');
            let _ = write!(out, "{}", map[*name].get());
        }
    }
    out.push_str("},\"gauges\":{");
    {
        let map = registry().gauges.lock().unwrap();
        let mut names: Vec<&String> = map.keys().collect();
        names.sort();
        for (i, name) in names.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str_escaped(&mut out, name);
            out.push(':');
            json::push_f64(&mut out, map[*name].get());
        }
    }
    out.push_str("},\"histograms\":{");
    {
        let map = registry().histograms.lock().unwrap();
        let mut names: Vec<&String> = map.keys().collect();
        names.sort();
        for (i, name) in names.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let h = &map[*name];
            json::push_str_escaped(&mut out, name);
            out.push_str(":{\"count\":");
            let _ = write!(out, "{}", h.count());
            out.push_str(",\"sum\":");
            json::push_f64(&mut out, h.sum());
            out.push_str(",\"min\":");
            json::push_f64(&mut out, h.min());
            out.push_str(",\"max\":");
            json::push_f64(&mut out, h.max());
            out.push_str(",\"mean\":");
            json::push_f64(&mut out, h.mean());
            out.push_str(",\"buckets\":[");
            let mut first = true;
            for b in 0..N_BUCKETS {
                let c = h.bucket_count(b);
                if c > 0 {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    out.push('[');
                    json::push_f64(&mut out, bucket_upper_bound(b));
                    out.push(',');
                    let _ = write!(out, "{c}");
                    out.push(']');
                }
            }
            out.push_str("]}");
        }
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_monotone_and_covers_scales() {
        for i in 1..N_BUCKETS {
            assert!(bucket_upper_bound(i) > bucket_upper_bound(i - 1));
        }
        // Values land in buckets whose bounds bracket them.
        for v in [1e-9, 1e-6, 3e-4, 0.02, 0.5, 1.0, 7.0, 120.0, 9e4, 1e11] {
            let i = bucket_index(v);
            assert!(
                v <= bucket_upper_bound(i) * (1.0 + 1e-12),
                "v={v} over bound of bucket {i}"
            );
            if i > 0 {
                assert!(
                    v > bucket_upper_bound(i - 1) * (1.0 - 1e-12),
                    "v={v} should be above bucket {}",
                    i - 1
                );
            }
        }
        // Degenerate values are absorbed, not dropped.
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-5.0), 0);
        assert_eq!(bucket_index(1e30), N_BUCKETS - 1);
    }

    #[test]
    fn histogram_tracks_exact_stats() {
        let _g = crate::test_lock();
        crate::sink::disable_metrics();
        let h = Histogram::new("test.h");
        for v in [0.5, 1.5, 2.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 4.0).abs() < 1e-12);
        assert!((h.mean() - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(h.min(), 0.5);
        assert_eq!(h.max(), 2.0);
        let total: u64 = (0..N_BUCKETS).map(|i| h.bucket_count(i)).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn nonfinite_observations_do_not_poison_sum() {
        let _g = crate::test_lock();
        crate::sink::disable_metrics();
        let h = Histogram::new("test.nan");
        h.observe(1.0);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count(), 3);
        assert!(
            (h.sum() - 1.0).abs() < 1e-12,
            "sum stays finite: {}",
            h.sum()
        );
        assert_eq!(h.max(), 1.0);
    }

    #[test]
    fn quantiles_come_from_cumulative_buckets_clamped_to_range() {
        let _g = crate::test_lock();
        crate::sink::disable_metrics();
        let h = Histogram::new("test.quantile");
        assert!(h.quantile(0.5).is_nan(), "empty histogram has no quantile");
        for _ in 0..90 {
            h.observe(0.001);
        }
        for _ in 0..10 {
            h.observe(10.0);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(
            (1e-4..=1e-2).contains(&p50),
            "p50 in the small-value decade: {p50}"
        );
        // p99 falls in the tail bucket but is clamped to the observed max.
        assert!(p99 <= 10.0 + 1e-12 && p99 > 1.0, "p99={p99}");
        assert!(h.quantile(0.0) >= h.min());
        assert!(h.quantile(1.0) <= h.max() + 1e-12);
    }

    #[test]
    fn counter_is_exact_under_contention() {
        // Private Counter::new keeps this off the global registry, so a
        // concurrent reset() in another test cannot perturb the total.
        let c = Arc::new(Counter::new("test.concurrent"));
        const THREADS: usize = 8;
        const INCS: u64 = 10_000;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..INCS {
                        c.inc(1);
                    }
                });
            }
        });
        assert_eq!(c.get(), THREADS as u64 * INCS);
    }

    #[test]
    fn snapshot_is_valid_json() {
        let _g = crate::test_lock();
        crate::sink::disable_metrics();
        counter("test.snapshot.counter").inc(2);
        gauge("test.snapshot.gauge").set(0.75);
        histogram("test.snapshot.hist").observe(0.01);
        let s = snapshot();
        assert!(crate::json::parse(&s).is_ok(), "{s}");
        assert!(s.contains("\"test.snapshot.counter\":"));
        assert!(s.contains("\"test.snapshot.gauge\":"));
        assert!(s.contains("\"test.snapshot.hist\":"));
    }

    #[test]
    fn reset_zeroes_but_keeps_handles_live() {
        let _g = crate::test_lock();
        crate::sink::disable_metrics();
        let c = counter("test.reset.counter");
        let h = histogram("test.reset.hist");
        c.inc(5);
        h.observe(1.0);
        reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        // The same handles keep working post-reset.
        c.inc(1);
        h.observe(2.0);
        assert_eq!(counter("test.reset.counter").get(), 1);
        assert_eq!(histogram("test.reset.hist").count(), 1);
    }
}
