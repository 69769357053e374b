//! Harness-side tracing: spans recorded around the benchmark's own calls
//! into each layer, kept in memory, written out as one Chrome-trace JSON
//! when the run ends, and folded into a stage table whose self times sum
//! to the end-to-end latency.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// No parent: the span is the root of its request.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds from the start of the run.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Stage name (`layer.stage`).
    pub name: &'static str,
    /// Start, ns from run start.
    pub start_ns: u64,
    /// End, ns from run start.
    pub end_ns: u64,
    /// Index of the span that caused this one in the same [`SpanLog`],
    /// or [`ROOT`].
    pub parent: u32,
    /// Identifier shared by every span of one request / epoch / write.
    pub request: u64,
}

/// Spans recorded by one thread. Disabled logs drop everything, so an
/// untraced run pays one branch per span.
#[derive(Debug, Default)]
pub struct SpanLog {
    enabled: bool,
    /// Thread label in the Chrome trace.
    pub thread: u32,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log for thread `thread`; records only when `enabled`.
    pub fn new(enabled: bool, thread: u32) -> Self {
        Self {
            enabled,
            thread,
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its index (for children), or
    /// [`ROOT`] when disabled.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        request: u64,
    ) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// One row of the stage table.
#[derive(Clone, Debug, PartialEq)]
pub struct Stage {
    /// Span name.
    pub name: &'static str,
    /// Spans of this name.
    pub count: u64,
    /// Summed duration, ms.
    pub total_ms: f64,
    /// Summed self time (duration minus the part child spans cover), ms.
    pub self_ms: f64,
}

/// Stage table of a set of span logs.
#[derive(Clone, Debug, PartialEq)]
pub struct StageTable {
    /// Rows in name order; their `self_ms` sum to `end_to_end_ms`.
    pub stages: Vec<Stage>,
    /// Summed duration of every root span, ms.
    pub end_to_end_ms: f64,
    /// Root spans.
    pub roots: u64,
    /// Self time of the root spans — time no child stage explains — over
    /// `end_to_end_ms`.
    pub unexplained_share: f64,
}

/// Folds span logs into a stage table. A span's self time is its
/// duration minus the union of the intervals its direct children cover
/// (clipped to the span), so overlapping or out-of-range children cannot
/// make it negative.
pub fn stage_table(logs: &[SpanLog]) -> StageTable {
    let mut rows: BTreeMap<&'static str, Stage> = BTreeMap::new();
    let (mut end_to_end_ns, mut roots, mut root_self_ns) = (0u64, 0u64, 0u64);
    for log in logs {
        let spans = log.spans();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let Some(list) = children.get_mut(s.parent as usize) {
                list.push((s.start_ns, s.end_ns));
            }
        }
        for (s, kids) in spans.iter().zip(children.iter_mut()) {
            let duration = s.end_ns - s.start_ns;
            let self_ns = duration - covered(kids, s.start_ns, s.end_ns);
            let row = rows.entry(s.name).or_insert(Stage {
                name: s.name,
                count: 0,
                total_ms: 0.0,
                self_ms: 0.0,
            });
            row.count += 1;
            row.total_ms += duration as f64 / 1e6;
            row.self_ms += self_ns as f64 / 1e6;
            if s.parent == ROOT {
                roots += 1;
                end_to_end_ns += duration;
                root_self_ns += self_ns;
            }
        }
    }
    StageTable {
        stages: rows.into_values().collect(),
        end_to_end_ms: end_to_end_ns as f64 / 1e6,
        roots,
        unexplained_share: if end_to_end_ns == 0 {
            0.0
        } else {
            root_self_ns as f64 / end_to_end_ns as f64
        },
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cursor) = (0, lo);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

impl StageTable {
    /// Plain-text rendering, one stage per line.
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "stage table [{title}]: {} roots, end-to-end {:.3} ms total, {:.4} ms mean",
            self.roots,
            self.end_to_end_ms,
            self.end_to_end_ms / self.roots.max(1) as f64
        );
        let _ = writeln!(
            out,
            "  {:<28} {:>9} {:>13} {:>13} {:>8}",
            "stage", "count", "total_ms", "self_ms", "share"
        );
        for s in &self.stages {
            let _ = writeln!(
                out,
                "  {:<28} {:>9} {:>13.3} {:>13.3} {:>8.4}",
                s.name,
                s.count,
                s.total_ms,
                s.self_ms,
                s.self_ms / self.end_to_end_ms.max(f64::MIN_POSITIVE)
            );
        }
        let sum: f64 = self.stages.iter().map(|s| s.self_ms).sum();
        let _ = writeln!(
            out,
            "  self times sum to {sum:.3} ms; unexplained share {:.4}",
            self.unexplained_share
        );
        out
    }
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) of the logs:
/// one complete (`"ph":"X"`) event per span, microsecond timestamps, the
/// request id and parent index under `args`.
pub fn chrome_trace(logs: &[SpanLog]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for log in logs {
        for (i, s) in log.spans().iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ =
                write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"request\":{},\"span\":{},\"parent\":{}}}}}",
                s.name,
                log.thread,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.request,
                i,
                if s.parent == ROOT { -1 } else { i64::from(s.parent) },
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_end_to_end_latency() {
        let mut log = SpanLog::new(true, 0);
        // request 1: 0..100, children connect 0..10, wait 20..90 (with a
        // grandchild 30..50), read 85..95 (overlaps wait by 5).
        let root = log.push("request", 0, 100, ROOT, 1);
        log.push("connect", 0, 10, root, 1);
        let wait = log.push("wait", 20, 90, root, 1);
        log.push("score", 30, 50, wait, 1);
        log.push("read", 85, 95, root, 1);
        // request 2: 200..260, one child past the end (clipped).
        let root2 = log.push("request", 200, 260, ROOT, 2);
        log.push("wait", 210, 300, root2, 2);

        let t = stage_table(&[log]);
        assert_eq!(t.roots, 2);
        assert!((t.end_to_end_ms - 160e-6).abs() < 1e-12);
        let self_sum: f64 = t.stages.iter().map(|s| s.self_ms).sum();
        // request 1: root self = 100 − |[0,10] ∪ [20,95]| = 15; connect
        // 10; wait 70 − 20 = 50; score 20; read 10 → 105 ns. The 5 ns
        // where `wait` and `read` overlap is explained twice, which is
        // the only way the sum can exceed the roots' durations.
        // request 2: root self = 60 − 50 = 10; wait 90 → 100 ns.
        assert!((self_sum - 205e-6).abs() < 1e-12);
        // Unexplained = root self (15 + 10) / (100 + 60).
        assert!((t.unexplained_share - 25.0 / 160.0).abs() < 1e-12);
        let wait_row = t.stages.iter().find(|s| s.name == "wait").unwrap();
        assert_eq!(wait_row.count, 2);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false, 3);
        assert_eq!(log.push("x", 0, 1, ROOT, 0), ROOT);
        assert!(log.spans().is_empty());
        let t = stage_table(&[log]);
        assert_eq!((t.roots, t.unexplained_share), (0, 0.0));
    }

    #[test]
    fn chrome_trace_is_one_event_per_span() {
        let mut log = SpanLog::new(true, 7);
        let root = log.push("request", 1_000, 3_500, ROOT, 9);
        log.push("read", 2_000, 3_000, root, 9);
        let json = chrome_trace(&[log]);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains(
            "\"name\":\"read\",\"ph\":\"X\",\"pid\":1,\"tid\":7,\"ts\":2.000,\"dur\":1.000"
        ));
        assert!(json.contains("\"parent\":-1"));
        assert!(json.contains("\"parent\":0"));
    }
}
