//! What every workload shares: the run configuration and result types,
//! the closed-loop HTTP driver, the phase meter, and scraping of the
//! server's own `/metrics` and `/healthz`.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use taxorec_serve::ServerHandle;

use crate::fixtures::FixtureCounts;
use crate::http::{parse_prometheus, Client, Reply};
use crate::procfs::{process_cpu_ns, ProcSnapshot};
use crate::stats::{median, window_stats, Sample, WindowStats};
use crate::streams::Key;
use crate::trace::{stage_table, SpanLog, ROOT};

/// Windows a timed phase is cut into at least; a phase of more whole
/// seconds than this gets one window per second.
pub const MIN_WINDOWS: usize = 20;
/// Timed seconds of a `--quick` run.
pub const QUICK_SECONDS: f64 = 3.0;
/// Every `SAMPLE_STRIDE`-th response body is kept for the bit-for-bit
/// check, and (in a traced run) every such request is traced.
pub const SAMPLE_STRIDE: u64 = 16;
/// Bodies one client keeps at most, so that the harness's memory does
/// not grow with the speed of what it measures.
pub const SAMPLE_CAP: usize = 1024;

/// One invocation of one workload.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// `--seed`: drives what the program is asked, never how much.
    pub seed: u64,
    /// Length of the timed phase in seconds.
    pub seconds: f64,
    /// Record spans and derive the per-layer metrics.
    pub trace: bool,
    /// `--quick`: same code paths and checks, numbers not for comparison.
    pub quick: bool,
    /// Instant the process (or, for a side pass of a traced run, the
    /// pass) started: the zero of `setup_s` and of span timestamps.
    pub epoch: Instant,
}

impl RunConfig {
    /// Closed-loop client threads: `min(nproc, 4)`.
    pub fn clients(&self) -> usize {
        nproc().min(4)
    }

    /// Nanoseconds from the run's zero to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// `setup_s`: process start to `first_timed`, the instant the timed
    /// phase begins.
    pub fn setup_s(&self, first_timed: Instant) -> f64 {
        first_timed
            .saturating_duration_since(self.epoch)
            .as_secs_f64()
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The seven end-to-end metrics of one run.
#[derive(Clone, Debug)]
pub struct EndToEnd {
    /// Process start to the first timed operation, seconds.
    pub setup_s: f64,
    /// Operations per second (median window).
    pub throughput_per_s: f64,
    /// Median of window medians, ms.
    pub latency_p50_ms: f64,
    /// Median of window p90s, ms.
    pub latency_p90_ms: f64,
    /// Process user+sys CPU per operation, ms (median window).
    pub cpu_ms_per_op: f64,
    /// `VmHWM` after the timed phase, MB.
    pub peak_rss_mb: f64,
    /// Quality of what was produced.
    pub recall_at_10: f64,
}

/// What one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// End-to-end metrics.
    pub end_to_end: EndToEnd,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Failed correctness checks (empty = correct).
    pub violations: Vec<String>,
    /// Per-layer metrics this workload can measure (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines (header details, stage table).
    pub report: Vec<String>,
    /// Spans of the timed phase (traced runs).
    pub spans: Vec<SpanLog>,
}

impl Outcome {
    /// Records a failed correctness check.
    pub fn violate(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
    }

    /// Records a failed correctness check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

/// CPU, memory and scheduler readings around a timed phase, with the
/// process CPU time read again at every window boundary.
pub struct PhaseMeter {
    before: ProcSnapshot,
    started: Instant,
    sampler: std::thread::JoinHandle<Vec<u64>>,
}

/// What a [`PhaseMeter`] measured.
#[derive(Clone, Debug)]
pub struct PhaseUsage {
    /// Wall seconds.
    pub wall_s: f64,
    /// User CPU seconds of the process.
    pub cpu_user_s: f64,
    /// Kernel CPU seconds of the process.
    pub cpu_sys_s: f64,
    /// User + kernel CPU seconds of the process in each window.
    pub cpu_s_windows: Vec<f64>,
    /// Preemptions of the threads alive at the end of the phase.
    pub ctx_switches_involuntary: u64,
    /// Share of machine CPU time the hypervisor took away.
    pub steal_share: f64,
    /// Peak RSS so far, MB.
    pub peak_rss_mb: f64,
    /// Threads alive at the end of the phase.
    pub threads: u64,
}

impl PhaseMeter {
    /// Starts metering a phase of `windows` windows of `width` each. A
    /// sampler thread sleeps from boundary to boundary and reads the
    /// process CPU clock there; it ends with the last window.
    pub fn start(windows: usize, width: Duration) -> Result<Self, String> {
        let before = ProcSnapshot::read()?;
        let started = Instant::now();
        let sampler = std::thread::spawn(move || {
            let mut cpu_ns = vec![process_cpu_ns()];
            for w in 1..=windows {
                sleep_until(started + width * w as u32);
                cpu_ns.push(process_cpu_ns());
            }
            cpu_ns
        });
        Ok(Self {
            before,
            started,
            sampler,
        })
    }

    /// The instant the phase began: the zero of its windows.
    pub fn started(&self) -> Instant {
        self.started
    }

    /// Stops metering (after the last window has ended).
    pub fn stop(self) -> Result<PhaseUsage, String> {
        let wall_s = self.started.elapsed().as_secs_f64();
        let after = ProcSnapshot::read()?;
        let cpu_ns = self.sampler.join().map_err(|_| "CPU sampler panicked")?;
        Ok(PhaseUsage {
            wall_s,
            cpu_user_s: after.user_s_since(&self.before),
            cpu_sys_s: after.sys_s_since(&self.before),
            cpu_s_windows: cpu_ns
                .windows(2)
                .map(|w| (w[1] - w[0]) as f64 / 1e9)
                .collect(),
            ctx_switches_involuntary: after
                .involuntary_switches
                .saturating_sub(self.before.involuntary_switches),
            steal_share: after.steal_share_since(&self.before),
            peak_rss_mb: after.status.vm_hwm_kb as f64 / 1024.0,
            threads: after.stat.threads,
        })
    }
}

impl PhaseUsage {
    /// The `proc.*` per-layer metrics.
    pub fn layers(&self, into: &mut BTreeMap<&'static str, f64>) {
        into.insert("proc.cpu_user_s", self.cpu_user_s);
        into.insert("proc.cpu_sys_s", self.cpu_sys_s);
        into.insert(
            "proc.ctx_switches_involuntary",
            self.ctx_switches_involuntary as f64,
        );
        into.insert("proc.steal_share", self.steal_share);
        into.insert("proc.threads_peak", self.threads as f64);
    }
}

/// A kept response body with the key that produced it.
#[derive(Clone, Debug)]
pub struct SampledBody {
    /// The request.
    pub key: Key,
    /// The response body, verbatim.
    pub body: Vec<u8>,
}

/// What one closed-loop client thread did.
#[derive(Default)]
pub struct ClientLog {
    /// Latency samples of successful operations.
    pub samples: Vec<Sample>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed, were refused, or answered non-200.
    pub failed: u64,
    /// Requests on a fresh connection.
    pub connects: u64,
    /// Requests on a kept connection.
    pub reuses: u64,
    /// Summed connect time, ns.
    pub connect_ns: u64,
    /// Summed request-sent → first-byte time, ns.
    pub ttfb_ns: u64,
    /// Summed first-byte → complete time, ns.
    pub read_ns: u64,
    /// Every [`SAMPLE_STRIDE`]-th body.
    pub sampled: Vec<SampledBody>,
    /// Spans (traced runs).
    pub spans: SpanLog,
}

/// One closed-loop `/recommend` client: one request in flight, next key
/// from `keys`, until `deadline`. Only a `200` yields a latency sample;
/// anything else counts as failed.
pub fn recommend_loop(
    cfg: &RunConfig,
    addr: SocketAddr,
    thread: u32,
    keys: &mut dyn Iterator<Item = Key>,
    phase_start: Instant,
    deadline: Instant,
) -> ClientLog {
    let mut log = ClientLog {
        spans: SpanLog::new(cfg.trace, thread),
        ..ClientLog::default()
    };
    let mut client = Client::new(addr);
    let mut body = Vec::with_capacity(1024);
    while Instant::now() < deadline {
        let Some((user, k)) = keys.next() else {
            break;
        };
        let request_id = (u64::from(thread) << 40) | log.attempted;
        let sampled = log.attempted.is_multiple_of(SAMPLE_STRIDE);
        log.attempted += 1;
        let target = format!("/recommend?user={user}&k={k}");
        match client.get(&target, &mut body) {
            Ok(reply) if reply.status == 200 => {
                let done = Instant::now();
                let start = reply.phases.start.expect("client stamps the start");
                log.samples.push(Sample {
                    end_s: (done - phase_start).as_secs_f64(),
                    latency_ms: (done - start).as_secs_f64() * 1e3,
                });
                log.connect_ns += reply.phases.connect.as_nanos() as u64;
                log.ttfb_ns += reply.phases.ttfb.as_nanos() as u64;
                log.read_ns += reply.phases.read.as_nanos() as u64;
                if sampled {
                    if log.sampled.len() < SAMPLE_CAP {
                        log.sampled.push(SampledBody {
                            key: (user, k),
                            body: body.clone(),
                        });
                    }
                    if traced_window(cfg, done - phase_start) {
                        request_spans(cfg, &mut log.spans, &reply, start, done, request_id);
                    }
                }
            }
            Ok(_) | Err(_) => log.failed += 1,
        }
    }
    log.connects = client.connects;
    log.reuses = client.reuses;
    log
}

/// Whether spans are recorded at `offset` into the timed phase. A traced
/// run records in odd windows only; the even windows run untraced, which
/// gives `bench.trace_overhead_share` from one run, interleaved so that
/// machine drift cancels.
pub fn traced_window(cfg: &RunConfig, offset: Duration) -> bool {
    let width = window_width(cfg).as_secs_f64();
    cfg.trace && (offset.as_secs_f64() / width) as usize % 2 == 1
}

/// `1 − median(traced windows) / median(untraced windows)` of per-window
/// throughput: what recording spans cost.
pub fn trace_overhead_share(rates: &[f64]) -> f64 {
    let pick = |parity: usize| -> Vec<f64> {
        rates
            .iter()
            .enumerate()
            .filter(|(w, _)| w % 2 == parity)
            .map(|(_, &r)| r)
            .collect()
    };
    let untraced = median(&pick(0));
    if untraced <= 0.0 {
        return 0.0;
    }
    1.0 - median(&pick(1)) / untraced
}

/// Spans of one HTTP request as the client saw it: the root covers
/// start → socket closed (`done`), its children the client-visible
/// phases, laid back from `done`.
pub fn request_spans(
    cfg: &RunConfig,
    spans: &mut SpanLog,
    reply: &Reply,
    start: Instant,
    done: Instant,
    request_id: u64,
) {
    let p = &reply.phases;
    let root = spans.push(
        "http.request",
        cfg.ns(start),
        cfg.ns(done),
        ROOT,
        request_id,
    );
    let mut end = done;
    for (name, took) in [
        ("http.close", p.close),
        ("http.read", p.read),
        ("serve.wait_first_byte", p.ttfb),
        ("http.send", p.send),
        ("http.connect", p.connect),
    ] {
        spans.push(name, cfg.ns(end - took), cfg.ns(end), root, request_id);
        end -= took;
    }
}

/// Client logs of one timed phase, merged.
pub struct LoopTotals {
    /// Length of the phase, seconds.
    pub phase_s: f64,
    /// Window statistics over every client's samples.
    pub windows: WindowStats,
    /// Requests sent.
    pub attempted: u64,
    /// Requests failed.
    pub failed: u64,
    /// Share of requests that went out on a kept socket.
    pub reused_share: f64,
    /// Mean connect time per request, µs.
    pub connect_us: f64,
    /// Mean request-sent → first-byte time per request, µs.
    pub ttfb_us: f64,
    /// Mean first-byte → complete time per request, µs.
    pub read_us: f64,
    /// Kept bodies.
    pub sampled: Vec<SampledBody>,
    /// Span logs, one per client.
    pub spans: Vec<SpanLog>,
}

/// Merges the client logs of the timed phase of `cfg`.
pub fn merge_logs(cfg: &RunConfig, logs: Vec<ClientLog>) -> LoopTotals {
    let phase_s = phase_length(cfg).as_secs_f64();
    let mut samples = Vec::new();
    let (mut attempted, mut failed, mut connects, mut reuses) = (0, 0, 0, 0);
    let (mut connect_ns, mut ttfb_ns, mut read_ns) = (0, 0, 0);
    let mut sampled = Vec::new();
    let mut spans = Vec::new();
    for log in logs {
        samples.extend(log.samples);
        attempted += log.attempted;
        failed += log.failed;
        connects += log.connects;
        reuses += log.reuses;
        connect_ns += log.connect_ns;
        ttfb_ns += log.ttfb_ns;
        read_ns += log.read_ns;
        sampled.extend(log.sampled);
        spans.push(log.spans);
    }
    let ok = (attempted - failed).max(1) as f64;
    LoopTotals {
        phase_s,
        windows: window_stats(&samples, phase_s, window_count(cfg)),
        attempted,
        failed,
        reused_share: reuses as f64 / (connects + reuses).max(1) as f64,
        connect_us: connect_ns as f64 / ok / 1e3,
        ttfb_us: ttfb_ns as f64 / ok / 1e3,
        read_us: read_ns as f64 / ok / 1e3,
        sampled,
        spans,
    }
}

/// A running server with what is needed to verify its answers.
pub struct Served {
    /// The server; dropping it drains and joins its threads.
    pub handle: ServerHandle,
    /// The artifact the server's model was loaded from.
    pub bytes: Vec<u8>,
    /// Sizes of the fixture behind it.
    pub counts: FixtureCounts,
}

/// Untimed requests through a freshly started server: connection path,
/// worker pools and scorer scratch buffers are all touched once.
pub fn warm_up(addr: SocketAddr, keys: impl Iterator<Item = Key>) -> Result<(), String> {
    let mut client = Client::new(addr);
    let mut body = Vec::new();
    for (user, k) in keys {
        match client.get(&format!("/recommend?user={user}&k={k}"), &mut body) {
            Ok(reply) if reply.status == 200 => {}
            other => return Err(format!("warm-up request failed: {other:?}")),
        }
    }
    Ok(())
}

impl Outcome {
    /// The outcome of a closed-loop read phase, before any check:
    /// timing and CPU per completed read from the window medians,
    /// quality still to be filled in.
    pub fn of_reads(setup_s: f64, totals: &LoopTotals, usage: &PhaseUsage, load: String) -> Self {
        let w = &totals.windows;
        let width_s = totals.phase_s / w.windows as f64;
        let cpu_ms: Vec<f64> = usage
            .cpu_s_windows
            .iter()
            .zip(&w.rates)
            .filter(|(_, &rate)| rate > 0.0)
            .map(|(cpu_s, rate)| cpu_s * 1e3 / (rate * width_s))
            .collect();
        let phase_cpu_ms = (usage.cpu_user_s + usage.cpu_sys_s) * 1e3
            / (totals.attempted - totals.failed).max(1) as f64;
        Self {
            end_to_end: EndToEnd {
                setup_s,
                throughput_per_s: w.throughput_per_s,
                latency_p50_ms: w.p50_ms,
                latency_p90_ms: w.p90_ms,
                cpu_ms_per_op: median(&cpu_ms),
                peak_rss_mb: usage.peak_rss_mb,
                recall_at_10: 0.0,
            },
            attempted: totals.attempted,
            failed: totals.failed,
            violations: Vec::new(),
            layers: BTreeMap::new(),
            report: vec![
                format!(
                    "closed loop: {load}; {} windows of {width_s:.3} s, {} samples; whole phase \
                     {:.1} 1/s, {phase_cpu_ms:.5} cpu ms/op",
                    w.windows,
                    w.samples,
                    w.samples as f64 / totals.phase_s
                ),
                format!("window rates 1/s: {:?}", w.rates),
                format!("window p50 ms: {:.4?}", w.p50s),
                format!("window p90 ms: {:.4?}", w.p90s),
                format!("window cpu ms/op: {cpu_ms:.4?}"),
            ],
            spans: Vec::new(),
        }
    }

    /// The traced side of a read phase: the stage table with its
    /// unexplained-share check, and the per-layer metrics the client's
    /// phase timers, the spans and the server's own counters give.
    pub fn trace_reads(&mut self, totals: &LoopTotals, before: &Scrape, after: &Scrape) {
        let table = stage_table(&totals.spans);
        self.report.push(table.render("http.request"));
        self.check(table.unexplained_share <= 0.10, || {
            format!(
                "stage table leaves {:.3} of the request latency unexplained",
                table.unexplained_share
            )
        });
        let batch_wait = after.mean(before, "taxorec_serve_batch_wait_ms", "");
        let batch_size = after.mean(before, "taxorec_serve_batch_size", "");
        self.report.push(format!(
            "inside serve.wait_first_byte, by the server's own histograms (means): batch wait \
             {batch_wait:.3} ms, /recommend handler {:.3} ms, batch size {batch_size:.2}",
            after.mean(
                before,
                "taxorec_serve_http_endpoint_duration_ms",
                "{endpoint=\"recommend\"}"
            ),
        ));
        let l = &mut self.layers;
        l.insert("serve.cache.hit_share", after.cache_hit_share(before));
        l.insert("serve.batch.wait_ms_mean", batch_wait);
        l.insert("serve.batch.mean_size", batch_size);
        l.insert("serve.http.connect_us", totals.connect_us);
        l.insert("serve.http.ttfb_us", totals.ttfb_us);
        l.insert("serve.http.read_us", totals.read_us);
        l.insert("serve.http.unexplained_share", table.unexplained_share);
        l.insert("serve.http.reused_share", totals.reused_share);
        l.insert(
            "serve.http.shed_count",
            after.delta(before, "taxorec_serve_http_shed_total")
                + after.delta(before, "taxorec_serve_batch_shed_total"),
        );
        l.insert("bench.latency_p99_ms", totals.windows.p99_pooled_ms);
        l.insert("bench.window_iqr_share", totals.windows.window_iqr_share);
        l.insert(
            "bench.trace_overhead_share",
            trace_overhead_share(&totals.windows.rates),
        );
    }
}

/// One scrape of the server's Prometheus exposition.
pub struct Scrape(HashMap<String, f64>);

impl Scrape {
    /// `GET /metrics` on `addr`.
    pub fn take(addr: SocketAddr) -> Result<Self, String> {
        let text = get_text(addr, "/metrics")?;
        Ok(Self(parse_prometheus(&text)))
    }

    /// Value of `name` (0 when the series does not exist yet).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Growth of `name` since `earlier`.
    pub fn delta(&self, earlier: &Self, name: &str) -> f64 {
        self.get(name) - earlier.get(name)
    }

    /// Mean of the observations the summary `family` (optionally with a
    /// `{label="…"}` set) took since `earlier`; 0 without observations.
    pub fn mean(&self, earlier: &Self, family: &str, labels: &str) -> f64 {
        let count = self.delta(earlier, &format!("{family}_count{labels}"));
        if count > 0.0 {
            self.delta(earlier, &format!("{family}_sum{labels}")) / count
        } else {
            0.0
        }
    }

    /// Share of response-cache probes since `earlier` that hit.
    pub fn cache_hit_share(&self, earlier: &Self) -> f64 {
        let hits = self.delta(earlier, "taxorec_serve_cache_hit_total");
        let misses = self.delta(earlier, "taxorec_serve_cache_miss_total");
        hits / (hits + misses).max(1.0)
    }
}

/// `GET target` expecting a `200`; the body as text.
pub fn get_text(addr: SocketAddr, target: &str) -> Result<String, String> {
    let mut body = Vec::new();
    let reply = Client::new(addr)
        .get(target, &mut body)
        .map_err(|e| format!("GET {target}: {e:?}"))?;
    if reply.status != 200 {
        return Err(format!("GET {target}: status {}", reply.status));
    }
    String::from_utf8(body).map_err(|_| format!("GET {target}: body is not UTF-8"))
}

/// The `/recommend` success body exactly as the server renders it
/// (`crates/serve/src/http.rs`, `recommend_body`): what a sampled
/// response is compared against, byte for byte.
pub fn render_recommend_body(user: u32, k: usize, items: &[(u32, f64)]) -> String {
    let mut body = format!("{{\"user\":{user},\"k\":{k},\"items\":[");
    for (i, &(item, score)) in items.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!("{{\"item\":{item},\"score\":"));
        taxorec_telemetry::json::push_f64(&mut body, score);
        body.push('}');
    }
    body.push_str("]}");
    body
}

/// Item ids of a `/recommend` body, in rank order.
pub fn body_items(body: &[u8]) -> Vec<u32> {
    let text = String::from_utf8_lossy(body);
    text.split("\"item\":")
        .skip(1)
        .filter_map(|rest| {
            let end = rest.find(|c: char| !c.is_ascii_digit())?;
            rest[..end].parse().ok()
        })
        .collect()
}

/// How many items of ranking `a` also appear in ranking `b`.
pub fn overlap(a: &[(u32, f64)], b: &[(u32, f64)]) -> usize {
    a.iter()
        .filter(|(item, _)| b.iter().any(|(other, _)| other == item))
        .count()
}

/// The value of command-line flag `name`, parsed; `None` when absent.
pub fn flag_value<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let raw = args
        .get(i + 1)
        .ok_or_else(|| format!("{name} requires a value"))?;
    raw.parse()
        .map(Some)
        .map_err(|_| format!("{name} {raw:?} is not a valid value"))
}

/// Sleeps until `deadline` (no-op when it has passed).
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// Windows of the timed phase: one per whole second, at least
/// [`MIN_WINDOWS`].
pub fn window_count(cfg: &RunConfig) -> usize {
    MIN_WINDOWS.max(phase_length(cfg).as_secs_f64() as usize)
}

/// Length of one window.
pub fn window_width(cfg: &RunConfig) -> Duration {
    phase_length(cfg) / window_count(cfg) as u32
}

/// Phase length of a run: `--seconds`, or [`QUICK_SECONDS`] when quick.
pub fn phase_length(cfg: &RunConfig) -> Duration {
    Duration::from_secs_f64(if cfg.quick {
        QUICK_SECONDS.min(cfg.seconds)
    } else {
        cfg.seconds
    })
}
