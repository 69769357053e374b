//! `perf aa`: the benchmark checks itself. Every workload is run several
//! times on the same code; for each end-to-end metric the spread of the
//! runs is put next to the metric's bound. A metric whose own noise does
//! not fit inside its bound cannot gate anything.

use std::fmt::Write as _;
use std::process::Command;

use crate::harness::flag_value;
use crate::http::json_u64;
use crate::metrics::{DEFAULT_SECONDS, END_TO_END};
use crate::stats::{median, quartiles, sorted};
use crate::workloads::Workload;

/// Seeds cycle through `1..=SEEDS`.
const SEEDS: u64 = 3;

/// Value of `"name":{"value":X` in a result line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let tag = format!("\"{name}\":{{\"value\":");
    let rest = &line[line.find(&tag)? + tag.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].parse().ok()
}

/// Spread of one metric over the runs of one workload.
pub struct Spread {
    /// Median of the runs.
    pub median: f64,
    /// First quartile (Python `statistics.quantiles`, n = 4).
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(q3 − q1) / median`.
    pub iqr_share: f64,
    /// `(max − min) / median`.
    pub range_share: f64,
}

/// Spread of `values` (needs at least two).
pub fn spread(values: &[f64]) -> Option<Spread> {
    let [q1, _, q3] = quartiles(values)?;
    let s = sorted(values);
    let m = median(values);
    let rel = |d: f64| if m == 0.0 { 0.0 } else { d / m.abs() };
    Some(Spread {
        median: m,
        q1,
        q3,
        iqr_share: rel(q3 - q1),
        range_share: rel(s[s.len() - 1] - s[0]),
    })
}

/// A quartile distance above the bound, or a range above twice the
/// bound, fails the self-check.
pub fn within_bound(s: &Spread, bound: f64) -> bool {
    s.iqr_share <= bound && s.range_share <= 2.0 * bound
}

/// Runs the self-check; `Ok(true)` when every metric is within bounds.
pub fn run(args: &[String]) -> Result<bool, String> {
    let runs: usize = flag_value(args, "--runs")?.unwrap_or(5);
    let seconds = DEFAULT_SECONDS;
    if runs < 2 {
        return Err("--runs must be at least 2".into());
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_ok = true;
    let mut header_printed = false;
    for workload in Workload::ALL {
        let mut columns: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let (mut attempted, mut failed, mut incorrect) = (0u64, 0u64, 0usize);
        for run in 0..runs {
            let seed = run as u64 % SEEDS + 1;
            let output = Command::new(&exe)
                .args(["--workload", workload.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .output()
                .map_err(|e| format!("cannot run {exe:?}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines = stdout.lines();
            let first = lines.next().unwrap_or("");
            let last = lines.next_back().unwrap_or(first);
            if !header_printed {
                println!("header: `{first}`\n");
                header_printed = true;
            }
            if !last.starts_with("{\"correct\":") {
                return Err(format!(
                    "{} run {run} printed no result (exit {:?}): {}",
                    workload.name(),
                    output.status.code(),
                    String::from_utf8_lossy(&output.stderr)
                ));
            }
            incorrect += usize::from(!last.starts_with("{\"correct\":true"));
            attempted += json_u64(last, "attempted").unwrap_or(0);
            failed += json_u64(last, "failed").unwrap_or(0);
            for (column, &(name, ..)) in columns.iter_mut().zip(END_TO_END) {
                column.push(
                    metric_value(last, name).ok_or_else(|| {
                        format!("{}: no metric {name} in {last}", workload.name())
                    })?,
                );
            }
        }
        let mut table = format!(
            "### {} — {runs} runs, seeds cycling 1..{SEEDS}, {seconds} s; attempted {attempted}, \
             failed {failed}, incorrect runs {incorrect}\n\n\
             | metric | median | q1 | q3 | (q3−q1)/median | range/median | bound | verdict |\n\
             |---|---|---|---|---|---|---|---|\n",
            workload.name(),
        );
        for (column, &(name, unit, _, bound)) in columns.iter().zip(END_TO_END) {
            let s = spread(column).ok_or("too few runs")?;
            let ok = within_bound(&s, bound);
            all_ok &= ok;
            let _ = writeln!(
                table,
                "| `{name}` ({unit}) | {:.5} | {:.5} | {:.5} | {:.4} | {:.4} | {bound} | {} |",
                s.median,
                s.q1,
                s.q3,
                s.iqr_share,
                s.range_share,
                if ok { "ok" } else { "OUT OF BOUNDS" }
            );
        }
        all_ok &= incorrect == 0 && failed == 0;
        println!("{table}");
    }
    println!(
        "verdict: {}",
        if all_ok {
            "every spread is inside its bound, no failed operation, every run correct"
        } else {
            "FAILED — see the rows marked OUT OF BOUNDS (or failed / incorrect counts)"
        }
    );
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_values_are_extracted_by_name() {
        let line = "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\
                    \"setup_s\":{\"value\":1.5,\"unit\":\"s\"},\
                    \"latency_p50_ms\":{\"value\":2.5e-1,\"unit\":\"ms\"}}}";
        assert_eq!(metric_value(line, "setup_s"), Some(1.5));
        assert_eq!(metric_value(line, "latency_p50_ms"), Some(0.25));
        assert_eq!(metric_value(line, "latency_p90_ms"), None);
        assert_eq!(json_u64(line, "attempted"), Some(10));
    }

    #[test]
    fn verdict_uses_quartile_distance_and_twice_the_bound_for_the_range() {
        // quartiles([98, 99, 100, 101, 102]) = [98.5, 100, 101.5].
        let tight = spread(&[100.0, 99.0, 101.0, 98.0, 102.0]).unwrap();
        assert_eq!((tight.q1, tight.median, tight.q3), (98.5, 100.0, 101.5));
        assert!((tight.iqr_share - 0.03).abs() < 1e-12);
        assert!((tight.range_share - 0.04).abs() < 1e-12);
        assert!(within_bound(&tight, 0.03));
        assert!(!within_bound(&tight, 0.029));
        // One outlier in nine: both quartiles are 100, the range is 0.4.
        let mut runs = vec![100.0; 8];
        runs.push(140.0);
        let outlier = spread(&runs).unwrap();
        assert_eq!(outlier.iqr_share, 0.0);
        assert!(!within_bound(&outlier, 0.1));
        assert!(within_bound(&outlier, 0.2));
        assert!(spread(&[1.0]).is_none());
    }
}
