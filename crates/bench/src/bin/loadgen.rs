//! `taxorec-loadgen` — an open-loop load generator for the serving tier.
//!
//! Simulates a population of users hitting `/recommend` at a fixed
//! arrival rate: request `i` is *scheduled* at `start + i/rate`
//! regardless of how fast earlier requests completed, and latency is
//! measured from that scheduled instant — so a saturated server shows
//! its real queueing delay instead of the flattering closed-loop number
//! (no coordinated omission). A pool of client threads executes the
//! schedule; virtual user ids cycle through the simulated population and
//! map onto the model's id space, with `k` varied per user.
//!
//! ```text
//! taxorec-loadgen --model demo.taxo --users 1000 --rate 200 --duration 3
//! taxorec-loadgen --addr 127.0.0.1:7878 --users 10000 --rate 1000 --duration 5
//! taxorec-loadgen --model demo.taxo --sweep --out BENCH_serve.json
//! ```
//!
//! `--model` serves the artifact in-process on an ephemeral port (the
//! one-command CI shape) and annotates the report with server-side batch
//! telemetry; `--addr` targets any running server. `--sweep` runs the
//! standard 1k / 10k / 100k simulated-user populations (arrival rate =
//! population / think time) and writes the combined report. `--assert-floor`
//! exits non-zero when achieved throughput falls below the floor or any
//! response was non-2xx — the CI load-smoke gate.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use taxorec_serve::client;

const USAGE: &str = "\
taxorec-loadgen — open-loop load generator for the TaxoRec serving tier

USAGE:
  taxorec-loadgen (--model M.taxo | --addr HOST:PORT) [OPTIONS]

TARGET (exactly one):
  --model M.taxo     serve the artifact in-process on an ephemeral port
  --addr HOST:PORT   target an already-running taxorec-serve instance

LOAD SHAPE:
  --users N          simulated user population (default 1000); virtual
                     users cycle through the model's real id space
  --rate RPS         open-loop arrival rate (default: users / think)
  --think SECS       per-user think time when --rate is absent (default 10)
  --duration SECS    seconds of scheduled arrivals (default 5)
  --clients C        client threads executing the schedule (default 16)
  --k-max K          k varies per user in 1..=K (default 10)
  --sweep            run the standard 1k/10k/100k-user populations
  --ingest           every 4th arrival POSTs an /ingest interaction batch
                     (mixed with /recommend traffic) — target must run
                     with ingestion on (taxorec-serve serve --ingest);
                     batches reuse a small tag pool plus occasional
                     never-seen \"live-fresh-*\" names to exercise the
                     streaming taxonomy graft path
  --ingest-every N   override the /ingest arrival stride (default 4)
  --ingest-batch B   interactions per /ingest POST (default 8)

REPORT:
  --out FILE         write the JSON report here (default: stdout only;
                     --sweep defaults to BENCH_serve.json)
  --assert-floor R   exit non-zero if achieved rps < R or any non-2xx
  --allow-refused    connection-refused errors are counted (reported in
                     the `refused` field) but do not fail the floor —
                     for failover drills where a shard restarts mid-run
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(ok) => {
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("taxorec-loadgen: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|s| Some(s.as_str()))
            .ok_or_else(|| format!("{name} requires a value")),
    }
}

fn flag_parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name)? {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("{name} {raw:?} is not a valid value")),
    }
}

/// One measured request: scheduled-arrival→response latency and status
/// (0 = transport error, with the failing phase recorded for the error
/// breakdown).
struct Sample {
    latency: Duration,
    status: u16,
    error: Option<&'static str>,
}

/// One completed run at a fixed population/rate.
struct RunReport {
    label: String,
    users: usize,
    target_rate: f64,
    duration_secs: f64,
    clients: usize,
    scheduled: usize,
    completed: usize,
    non_2xx: usize,
    /// Non-2xx responses by status code, e.g. `[(503, 4), (404, 1)]`.
    status_breakdown: Vec<(u16, usize)>,
    transport_errors: usize,
    /// Connection-refused subset of `transport_errors` (the target was
    /// restarting) — exempted from the floor under `--allow-refused`.
    refused: usize,
    achieved_rps: f64,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    max_ms: f64,
    mean_ms: f64,
    /// Server-side batch stats over the run (in-process target only).
    batch: Option<BatchStats>,
}

struct BatchStats {
    batches: u64,
    requests: u64,
    mean_size: f64,
    max_size: f64,
    cache_hits: u64,
    cache_misses: u64,
    http_sheds: u64,
    batch_sheds: u64,
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * q).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// Closes one measured exchange: latency runs from `scheduled` (the
/// open-loop arrival instant) to the full response being read. A
/// transport failure keeps its phase — `refused` is its own bucket, the
/// signature of a target restarting (failover drills), and
/// `--allow-refused` exempts exactly it.
fn sample(scheduled: Instant, result: Result<client::Response, client::Error>) -> Sample {
    Sample {
        latency: scheduled.elapsed(),
        status: result.as_ref().map_or(0, |r| r.status),
        error: result.err().map(|e| e.phase.as_str()),
    }
}

/// Issues one `/recommend` request.
fn one_request(addr: SocketAddr, user: u32, k: usize, scheduled: Instant) -> Sample {
    let target = format!("/recommend?user={user}&k={k}");
    sample(scheduled, client::get(addr, &target))
}

/// Issues one `POST /ingest` batch: `batch` interactions from `user`
/// over a small item window, tagged from a bounded pool with an
/// occasional never-seen `live-fresh-*` name so the streaming graft
/// path (and a later drift rebuild) is actually exercised.
fn one_ingest(addr: SocketAddr, user: u32, seq: usize, batch: usize, scheduled: Instant) -> Sample {
    let mut body = String::with_capacity(64 * batch);
    body.push_str("{\"interactions\":[");
    for j in 0..batch {
        if j > 0 {
            body.push(',');
        }
        let item = (user as usize + j * 7) % 64;
        if (seq + j).is_multiple_of(64) {
            body.push_str(&format!(
                "{{\"user\":{user},\"item\":{item},\"tags\":[\"live-fresh-{seq}-{j}\"]}}"
            ));
        } else {
            let tag = (seq + j) % 24;
            body.push_str(&format!(
                "{{\"user\":{user},\"item\":{item},\"tags\":[\"live-{tag}\"]}}"
            ));
        }
    }
    body.push_str("]}");
    let timeouts = client::Timeouts::default();
    sample(
        scheduled,
        client::request(addr, "POST", "/ingest", "", &body, timeouts),
    )
}

/// Reads `"users":N` off the target's `/healthz` so virtual users map
/// onto real model ids in both target modes.
fn model_users(addr: SocketAddr) -> Result<usize, String> {
    let health = client::get(addr, "/healthz").map_err(|e| format!("healthz {addr}: {e}"))?;
    if health.status != 200 {
        return Err(format!(
            "target not healthy:\n{}\n\n{}",
            health.head, health.body
        ));
    }
    taxorec_serve::router::healthz_users(&health.body)
        .ok_or_else(|| format!("no user count in healthz: {}", health.body))
}

/// The shape of one open-loop run.
#[derive(Clone, Copy)]
struct LoadSpec<'a> {
    label: &'a str,
    /// Simulated user population (virtual ids cycle through it).
    users: usize,
    /// Real model id space virtual users map onto (modulo).
    n_model_users: usize,
    /// Open-loop arrival rate, requests per second.
    rate: f64,
    duration: Duration,
    clients: usize,
    k_max: usize,
    /// When > 0, every `ingest_every`-th arrival POSTs an `/ingest`
    /// batch instead of a `/recommend` query (0 = pure read traffic).
    ingest_every: usize,
    /// Interactions per `/ingest` POST.
    ingest_batch: usize,
}

/// Executes one open-loop run: `clients` threads share the arrival
/// schedule by index (client `c` runs arrivals `i ≡ c mod clients`),
/// each sleeping until its arrival's scheduled instant.
fn run_load(addr: SocketAddr, spec: LoadSpec<'_>) -> RunReport {
    let LoadSpec {
        label,
        users,
        n_model_users,
        rate,
        duration,
        clients,
        k_max,
        ingest_every,
        ingest_batch,
    } = spec;
    let scheduled = (rate * duration.as_secs_f64()).round().max(1.0) as usize;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now() + Duration::from_millis(50);
    let mut handles = Vec::with_capacity(clients);
    for c in 0..clients {
        handles.push(std::thread::spawn(move || {
            let mut samples = Vec::with_capacity(scheduled / clients + 1);
            let mut i = c;
            while i < scheduled {
                let arrive_at = start + interval.mul_f64(i as f64);
                if let Some(wait) = arrive_at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                // Virtual user v cycles the simulated population; the
                // model id and k derive from v so the same virtual user
                // always asks the same query (cacheable, like a real
                // repeat visitor) while the population spreads load.
                let v = i % users;
                let user = (v % n_model_users) as u32;
                let k = 1 + v % k_max;
                if ingest_every > 0 && i % ingest_every == 0 {
                    samples.push(one_ingest(addr, user, i, ingest_batch, arrive_at));
                } else {
                    samples.push(one_request(addr, user, k, arrive_at));
                }
                i += clients;
            }
            samples
        }));
    }
    let samples: Vec<Sample> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let wall = start.elapsed().as_secs_f64().max(1e-9);

    let completed = samples.iter().filter(|s| s.status != 0).count();
    let transport_errors = samples.len() - completed;
    if transport_errors > 0 {
        let mut by_phase: Vec<(&str, usize)> = Vec::new();
        for s in samples.iter().filter(|s| s.status == 0) {
            let phase = s.error.unwrap_or("unknown");
            match by_phase.iter_mut().find(|(p, _)| *p == phase) {
                Some((_, n)) => *n += 1,
                None => by_phase.push((phase, 1)),
            }
        }
        let detail: Vec<String> = by_phase.iter().map(|(p, n)| format!("{p}: {n}")).collect();
        eprintln!("  transport errors by phase: {}", detail.join(", "));
    }
    let refused = samples
        .iter()
        .filter(|s| s.error == Some("refused"))
        .count();
    let non_2xx = samples
        .iter()
        .filter(|s| s.status != 0 && !(200..300).contains(&s.status))
        .count();
    let mut status_breakdown: Vec<(u16, usize)> = Vec::new();
    for s in &samples {
        if s.status != 0 && !(200..300).contains(&s.status) {
            match status_breakdown.iter_mut().find(|(c, _)| *c == s.status) {
                Some((_, n)) => *n += 1,
                None => status_breakdown.push((s.status, 1)),
            }
        }
    }
    status_breakdown.sort_unstable();
    if !status_breakdown.is_empty() {
        let detail: Vec<String> = status_breakdown
            .iter()
            .map(|(c, n)| format!("{c}: {n}"))
            .collect();
        eprintln!("  non-2xx by status: {}", detail.join(", "));
    }
    let mut ms: Vec<f64> = samples
        .iter()
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    ms.sort_by(|a, b| a.total_cmp(b));
    let mean = if ms.is_empty() {
        0.0
    } else {
        ms.iter().sum::<f64>() / ms.len() as f64
    };
    RunReport {
        label: label.to_string(),
        users,
        target_rate: rate,
        duration_secs: duration.as_secs_f64(),
        clients,
        scheduled,
        completed,
        non_2xx,
        status_breakdown,
        transport_errors,
        refused,
        achieved_rps: completed as f64 / wall,
        p50_ms: percentile(&ms, 0.50),
        p90_ms: percentile(&ms, 0.90),
        p99_ms: percentile(&ms, 0.99),
        max_ms: ms.last().copied().unwrap_or(0.0),
        mean_ms: mean,
        batch: None,
    }
}

/// Snapshot of the in-process batch/cache telemetry, for run deltas.
struct TelemetryBase {
    batches: u64,
    requests: u64,
    hits: u64,
    misses: u64,
    http_sheds: u64,
    batch_sheds: u64,
}

fn telemetry_base() -> TelemetryBase {
    TelemetryBase {
        batches: taxorec_telemetry::counter("serve.batch.batches").get(),
        requests: taxorec_telemetry::counter("serve.batch.requests").get(),
        hits: taxorec_telemetry::counter("serve.cache.hit").get(),
        misses: taxorec_telemetry::counter("serve.cache.miss").get(),
        http_sheds: taxorec_telemetry::counter("serve.http.shed").get(),
        batch_sheds: taxorec_telemetry::counter("serve.batch.shed").get(),
    }
}

fn batch_stats(base: &TelemetryBase) -> BatchStats {
    let batches = taxorec_telemetry::counter("serve.batch.batches").get() - base.batches;
    let requests = taxorec_telemetry::counter("serve.batch.requests").get() - base.requests;
    BatchStats {
        batches,
        requests,
        mean_size: if batches == 0 {
            0.0
        } else {
            requests as f64 / batches as f64
        },
        max_size: taxorec_telemetry::histogram("serve.batch.size").max(),
        cache_hits: taxorec_telemetry::counter("serve.cache.hit").get() - base.hits,
        cache_misses: taxorec_telemetry::counter("serve.cache.miss").get() - base.misses,
        http_sheds: taxorec_telemetry::counter("serve.http.shed").get() - base.http_sheds,
        batch_sheds: taxorec_telemetry::counter("serve.batch.shed").get() - base.batch_sheds,
    }
}

fn push_run_json(out: &mut String, r: &RunReport) {
    out.push_str(&format!(
        "{{\"label\":\"{}\",\"simulated_users\":{},\"target_rps\":{:.1},\
         \"duration_secs\":{:.1},\"clients\":{},\"scheduled\":{},\"completed\":{},\
         \"non_2xx\":{},\"status_breakdown\":{{{}}},\"transport_errors\":{},\
         \"refused\":{},\"achieved_rps\":{:.1},\
         \"latency_ms\":{{\"p50\":{:.3},\
         \"p90\":{:.3},\"p99\":{:.3},\"max\":{:.3},\"mean\":{:.3}}}",
        r.label,
        r.users,
        r.target_rate,
        r.duration_secs,
        r.clients,
        r.scheduled,
        r.completed,
        r.non_2xx,
        r.status_breakdown
            .iter()
            .map(|(c, n)| format!("\"{c}\":{n}"))
            .collect::<Vec<_>>()
            .join(","),
        r.transport_errors,
        r.refused,
        r.achieved_rps,
        r.p50_ms,
        r.p90_ms,
        r.p99_ms,
        r.max_ms,
        r.mean_ms,
    ));
    if let Some(b) = &r.batch {
        out.push_str(&format!(
            ",\"batch\":{{\"batches\":{},\"requests\":{},\"mean_size\":{:.2},\
             \"max_size\":{:.0},\"cache_hits\":{},\"cache_misses\":{},\
             \"http_sheds\":{},\"batch_sheds\":{}}}",
            b.batches,
            b.requests,
            b.mean_size,
            b.max_size,
            b.cache_hits,
            b.cache_misses,
            b.http_sheds,
            b.batch_sheds,
        ));
    }
    out.push('}');
}

fn run(args: &[String]) -> Result<bool, String> {
    let model_path = flag(args, "--model")?;
    let addr_arg = flag(args, "--addr")?;
    if model_path.is_some() == addr_arg.is_some() {
        return Err(format!("pass exactly one of --model / --addr\n\n{USAGE}"));
    }
    let users: usize = flag_parse(args, "--users", 1000)?;
    let think: f64 = flag_parse(args, "--think", 10.0)?;
    let duration = Duration::from_secs_f64(flag_parse(args, "--duration", 5.0)?);
    let clients: usize = flag_parse::<usize>(args, "--clients", 16)?.max(1);
    let k_max: usize = flag_parse::<usize>(args, "--k-max", 10)?.max(1);
    let sweep = args.iter().any(|a| a == "--sweep");
    let allow_refused = args.iter().any(|a| a == "--allow-refused");
    let ingest = args.iter().any(|a| a == "--ingest");
    let ingest_every: usize = if ingest {
        flag_parse::<usize>(args, "--ingest-every", 4)?.max(1)
    } else {
        0
    };
    let ingest_batch: usize = flag_parse::<usize>(args, "--ingest-batch", 8)?.max(1);
    let floor: Option<f64> = match flag(args, "--assert-floor")? {
        None => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| format!("--assert-floor {raw:?} is not a number"))?,
        ),
    };

    // Resolve the target. `--model` serves in-process and restarts the
    // server per run so each population starts with a cold response
    // cache (and its registry deltas isolate per-run batch stats);
    // `--addr` reuses one external server for every run.
    let external: Option<SocketAddr> = match addr_arg {
        Some(a) => Some(
            a.parse()
                .map_err(|_| format!("--addr {a:?} is not HOST:PORT"))?,
        ),
        None => None,
    };
    let start_server = || -> Result<Option<taxorec_serve::ServerHandle>, String> {
        match model_path {
            None => Ok(None),
            Some(path) => {
                let model = taxorec_serve::load(path).map_err(|e| format!("load {path}: {e}"))?;
                taxorec_serve::serve_with(
                    Arc::new(model),
                    "127.0.0.1:0",
                    taxorec_serve::ServeOptions::from_env(),
                )
                .map(Some)
                .map_err(|e| format!("bind: {e}"))
            }
        }
    };
    let n_model_users = {
        let probe = start_server()?;
        let addr = probe
            .as_ref()
            .map(|h| h.local_addr())
            .or(external)
            .expect("exactly one target");
        let n = model_users(addr)?;
        if let Some(h) = probe {
            h.shutdown();
        }
        eprintln!("target serves {n} model users");
        n
    };

    // The populations to run: one custom run, or the standard sweep.
    // Arrival rate defaults to population / think-time (each simulated
    // user asks every `think` seconds).
    let populations: Vec<(String, usize, f64)> = if sweep {
        [1_000usize, 10_000, 100_000]
            .into_iter()
            .map(|u| (format!("{}k_users", u / 1000), u, u as f64 / think))
            .collect()
    } else {
        let rate: f64 = flag_parse(args, "--rate", users as f64 / think)?;
        vec![("custom".to_string(), users, rate)]
    };

    let mut reports = Vec::new();
    for (label, pop, rate) in &populations {
        eprintln!(
            "run {label}: {pop} simulated users, {rate:.0} req/s for {:.1}s, {clients} clients",
            duration.as_secs_f64()
        );
        let server = start_server()?;
        let addr = server
            .as_ref()
            .map(|h| h.local_addr())
            .or(external)
            .expect("exactly one target");
        let base = telemetry_base();
        let mut report = run_load(
            addr,
            LoadSpec {
                label,
                users: *pop,
                n_model_users,
                rate: *rate,
                duration,
                clients,
                k_max,
                ingest_every,
                ingest_batch,
            },
        );
        if let Some(h) = server {
            report.batch = Some(batch_stats(&base));
            h.shutdown();
        }
        eprintln!(
            "  {:.0} rps achieved, p50 {:.2} ms, p99 {:.2} ms, {} non-2xx, {} transport errors / {}",
            report.achieved_rps,
            report.p50_ms,
            report.p99_ms,
            report.non_2xx,
            report.transport_errors,
            report.scheduled
        );
        reports.push(report);
    }

    let mut json = String::from("{\"bin\":\"loadgen\",\"generated_unix_ms\":");
    json.push_str(
        &std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0)
            .to_string(),
    );
    json.push_str(&format!(
        ",\"think_secs\":{think:.1},\"k_max\":{k_max},\"runs\":["
    ));
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        push_run_json(&mut json, r);
    }
    json.push_str("]}");
    println!("{json}");
    let out = flag(args, "--out")?
        .map(str::to_string)
        .or_else(|| sweep.then(|| "BENCH_serve.json".to_string()));
    if let Some(path) = out {
        std::fs::write(&path, format!("{json}\n")).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("report written to {path}");
    }

    if let Some(floor) = floor {
        for r in &reports {
            if r.achieved_rps < floor {
                eprintln!(
                    "FLOOR VIOLATION: run {} achieved {:.1} rps < floor {floor}",
                    r.label, r.achieved_rps
                );
                return Ok(false);
            }
            // Under --allow-refused, connection-refused errors are
            // expected collateral of a failover drill (the target was
            // restarting) — reported, but not a floor failure. Every
            // other error class still fails.
            let fatal_transport = if allow_refused {
                r.transport_errors - r.refused
            } else {
                r.transport_errors
            };
            if r.non_2xx > 0 || fatal_transport > 0 {
                eprintln!(
                    "FLOOR VIOLATION: run {} had {} non-2xx responses and {} transport errors \
                     ({} refused{})",
                    r.label,
                    r.non_2xx,
                    r.transport_errors,
                    r.refused,
                    if allow_refused { ", exempted" } else { "" }
                );
                return Ok(false);
            }
            if allow_refused && r.refused > 0 {
                eprintln!(
                    "  run {}: {} connection-refused during failover (allowed)",
                    r.label, r.refused
                );
            }
        }
        eprintln!("floor ok: every run ≥ {floor} rps with zero non-2xx");
    }
    Ok(true)
}
