//! `taxorec-router` — the sharded serving front end (DESIGN.md §16).
//!
//! ```text
//! taxorec-router --shards HOST:PORT,HOST:PORT,… [--addr HOST:PORT] [--workers N]
//! ```
//!
//! Partitions users across the shard fleet by consistent hashing,
//! proxies `/recommend` and `/explain` to the owning shard with
//! health-aware failover (circuit breakers, jittered retries, hedged
//! requests), and aggregates fleet state on `/healthz`, `/metrics`,
//! and `/shards/metrics`. Runs until stdin closes or SIGTERM/SIGINT
//! arrives, then drains gracefully.

use std::net::SocketAddr;
use std::process::ExitCode;

use taxorec_serve::RouterOptions;

mod cli;
use cli::flag;

const USAGE: &str = "\
taxorec-router — consistent-hash router over taxorec-serve shards

USAGE:
  taxorec-router --shards HOST:PORT,HOST:PORT,… [--addr HOST:PORT] [--workers N]
      --shards     comma-separated shard addresses (required); shard i is
                   the i-th entry, matching each worker's --shard-id
      --addr       bind address (default 127.0.0.1:7979; port 0 = ephemeral)
      --workers    front-end worker threads (default 4)

  Endpoints: /recommend?user=U&k=K   proxied to the owning shard, with
                                     failover + hedging; the answering
                                     shard is echoed in x-taxorec-shard
             /explain?user=U&item=V  proxied likewise
             /healthz                aggregate fleet view
             /metrics                router RED metrics (Prometheus)
             /shards/metrics         merged shard expositions, shard=\"i\"

  Tuning (env): TAXOREC_ROUTER_PROBE_MS, the shard health-probe interval
  (default 200 ms).

  Runs until stdin is closed (Ctrl-D / EOF) or SIGTERM/SIGINT arrives.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("taxorec-router: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let shards_raw =
        flag(args, "--shards")?.ok_or_else(|| format!("--shards is required\n\n{USAGE}"))?;
    let shards: Vec<SocketAddr> = shards_raw
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|e| format!("--shards entry {s:?}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    if shards.is_empty() {
        return Err("--shards needs at least one address".into());
    }
    let addr = flag(args, "--addr")?.unwrap_or("127.0.0.1:7979");
    let mut opts = RouterOptions::from_env();
    if let Some(w) = flag(args, "--workers")? {
        opts.n_workers = w
            .parse()
            .map_err(|_| format!("--workers {w:?} is not an integer"))?;
    }
    // Arm the SIGTERM/SIGINT latch before the address is announced: an
    // orchestrator may signal the instant it sees the listening line,
    // and the default disposition would be sudden death, not a drain.
    taxorec_serve::signal::install();
    let handle = taxorec_serve::route_with(shards.clone(), addr, opts)
        .map_err(|e| format!("bind {addr}: {e}"))?;
    println!(
        "routing {} shard(s): {}",
        shards.len(),
        shards
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("listening on http://{}", handle.local_addr());
    println!(
        "try: curl 'http://{}/recommend?user=0&k=10'",
        handle.local_addr()
    );
    println!("close stdin (Ctrl-D) or send SIGTERM to shut down");
    taxorec_serve::signal::wait_for_exit();
    if taxorec_serve::signal::triggered() {
        println!("signal received; draining…");
        handle.set_draining();
    } else {
        println!("stdin closed; shutting down…");
    }
    handle.shutdown();
    taxorec_telemetry::sink::flush();
    println!("bye");
    Ok(())
}
