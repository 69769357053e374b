//! `/proc` readers: process CPU time, peak RSS, context switches, thread
//! count, and the machine-wide steal share. Parsers take text so they can
//! be tested against literal samples.

/// `/proc` reports CPU time in `USER_HZ` ticks, which Linux fixes at 100
/// for every architecture this repository builds on.
pub const TICKS_PER_SEC: f64 = 100.0;

/// User + kernel CPU time of all threads of the process so far, in
/// nanoseconds: what `/proc/self/stat` reports in 10 ms ticks, read from
/// the clock behind it. A one-second window of a workload that keeps a
/// third of a core busy is thirty ticks, too coarse for a per-window
/// CPU cost.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    // Linux, 64-bit (the only target the benchmark supports).
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid `struct timespec` for the call to fill; the
    // clock id is a constant the kernel knows.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    t.tv_sec as u64 * 1_000_000_000 + t.tv_nsec as u64
}

/// Fields of `/proc/self/stat` the benchmark uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SelfStat {
    /// User-mode CPU ticks of all threads.
    pub utime_ticks: u64,
    /// Kernel-mode CPU ticks of all threads.
    pub stime_ticks: u64,
    /// Threads alive now.
    pub threads: u64,
}

/// Parses one `/proc/<pid>/stat` line. The command name (field 2) may
/// itself hold spaces and parentheses, so fields are counted from the
/// *last* `)`.
pub fn parse_self_stat(text: &str) -> Option<SelfStat> {
    let rest = &text[text.rfind(')')? + 1..];
    // `rest` starts at field 3 (state).
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(SelfStat {
        utime_ticks: field(14)?,
        stime_ticks: field(15)?,
        threads: field(20)?,
    })
}

/// Fields of `/proc/self/status` the benchmark uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SelfStatus {
    /// Peak resident set size in KiB (`VmHWM`).
    pub vm_hwm_kb: u64,
    /// Context switches forced on this *thread* (preemptions): the
    /// kernel keeps this counter per task, also in `/proc/<pid>/status`.
    pub nonvoluntary_ctxt_switches: u64,
}

/// Parses `/proc/<pid>/status`.
pub fn parse_self_status(text: &str) -> Option<SelfStatus> {
    let value = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|v| v.parse::<u64>().ok())
    };
    Some(SelfStatus {
        vm_hwm_kb: value("VmHWM:")?,
        nonvoluntary_ctxt_switches: value("nonvoluntary_ctxt_switches:")?,
    })
}

/// Machine-wide CPU ticks from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuTotals {
    /// Sum of every column of the aggregate `cpu` line.
    pub total_ticks: u64,
    /// Ticks the hypervisor gave to other guests while this one had
    /// work to run.
    pub steal_ticks: u64,
}

/// Parses the aggregate `cpu` line of `/proc/stat`
/// (`user nice system idle iowait irq softirq steal guest guest_nice`;
/// guest time is already inside user/nice and is not added again).
pub fn parse_proc_stat(text: &str) -> Option<CpuTotals> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let cols: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|c| c.parse::<u64>())
        .collect::<Result<_, _>>()
        .ok()?;
    if cols.len() < 8 {
        return None;
    }
    Some(CpuTotals {
        total_ticks: cols.iter().take(8).sum(),
        steal_ticks: cols[7],
    })
}

/// One reading of everything above, taken at a phase boundary.
#[derive(Clone, Copy, Debug)]
pub struct ProcSnapshot {
    /// `/proc/self/stat`.
    pub stat: SelfStat,
    /// `/proc/self/status`.
    pub status: SelfStatus,
    /// `/proc/stat`.
    pub cpu: CpuTotals,
    /// Preemptions summed over the threads alive now
    /// (`/proc/self/task/*/status`); threads that have exited take their
    /// count with them.
    pub involuntary_switches: u64,
}

fn live_threads_involuntary_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .filter_map(|text| parse_self_status(&text))
        .map(|s| s.nonvoluntary_ctxt_switches)
        .sum()
}

impl ProcSnapshot {
    /// Reads the three files. Errors name the file that could not be
    /// read or parsed (the benchmark is Linux-only).
    pub fn read() -> Result<Self, String> {
        let load = |path: &str| {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
        };
        Ok(Self {
            stat: parse_self_stat(&load("/proc/self/stat")?)
                .ok_or("cannot parse /proc/self/stat")?,
            status: parse_self_status(&load("/proc/self/status")?)
                .ok_or("cannot parse /proc/self/status")?,
            cpu: parse_proc_stat(&load("/proc/stat")?).ok_or("cannot parse /proc/stat")?,
            involuntary_switches: live_threads_involuntary_switches(),
        })
    }

    /// User CPU seconds spent between `earlier` and `self`.
    pub fn user_s_since(&self, earlier: &Self) -> f64 {
        (self.stat.utime_ticks - earlier.stat.utime_ticks) as f64 / TICKS_PER_SEC
    }

    /// Kernel CPU seconds spent between `earlier` and `self`.
    pub fn sys_s_since(&self, earlier: &Self) -> f64 {
        (self.stat.stime_ticks - earlier.stat.stime_ticks) as f64 / TICKS_PER_SEC
    }

    /// Share of all machine CPU ticks between the two readings that were
    /// stolen by the hypervisor.
    pub fn steal_share_since(&self, earlier: &Self) -> f64 {
        let total = self.cpu.total_ticks.saturating_sub(earlier.cpu.total_ticks);
        if total == 0 {
            return 0.0;
        }
        self.cpu.steal_ticks.saturating_sub(earlier.cpu.steal_ticks) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_stat_survives_a_hostile_command_name() {
        let line = "4242 (perf (x) y) S 1 4242 4242 0 -1 4194304 9000 0 0 0 \
                    1234 567 0 0 20 0 9 0 123456 1000000 2500 18446744073709551615 \
                    1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        assert_eq!(
            parse_self_stat(line),
            Some(SelfStat {
                utime_ticks: 1234,
                stime_ticks: 567,
                threads: 9,
            })
        );
        assert_eq!(parse_self_stat("garbage"), None);
        assert_eq!(parse_self_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn self_status_reads_peak_rss_and_preemptions() {
        let text = "Name:\tperf\nVmPeak:\t  900000 kB\nVmHWM:\t   51234 kB\n\
                    VmRSS:\t   40000 kB\nThreads:\t9\n\
                    voluntary_ctxt_switches:\t100\nnonvoluntary_ctxt_switches:\t42\n";
        assert_eq!(
            parse_self_status(text),
            Some(SelfStatus {
                vm_hwm_kb: 51234,
                nonvoluntary_ctxt_switches: 42,
            })
        );
        assert_eq!(parse_self_status("Name:\tperf\n"), None);
    }

    #[test]
    fn proc_stat_sums_the_aggregate_line_and_picks_steal() {
        let text = "cpu  100 5 50 800 10 2 3 30 7 0\n\
                    cpu0 50 2 25 400 5 1 1 15 3 0\n\
                    intr 12345\n";
        assert_eq!(
            parse_proc_stat(text),
            Some(CpuTotals {
                total_ticks: 1000,
                steal_ticks: 30,
            })
        );
        assert_eq!(parse_proc_stat("cpu0 1 2 3\n"), None);
        assert_eq!(parse_proc_stat("cpu  1 2 3\n"), None);
    }

    #[test]
    fn process_cpu_clock_agrees_with_proc_self_stat() {
        let spin_until = std::time::Instant::now() + std::time::Duration::from_millis(60);
        let before = process_cpu_ns();
        while std::time::Instant::now() < spin_until {
            std::hint::black_box(0u64);
        }
        let spent = process_cpu_ns() - before;
        // 60 ms of spinning on one thread, give or take preemption.
        assert!((30_000_000..200_000_000).contains(&spent), "{spent} ns");
        let stat = ProcSnapshot::read().unwrap().stat;
        let ticks_ns = (stat.utime_ticks + stat.stime_ticks) as f64 * 1e9 / TICKS_PER_SEC;
        // Same quantity, tick resolution: within a few ticks of the clock.
        assert!((process_cpu_ns() as f64 - ticks_ns).abs() < 0.1e9);
    }

    #[test]
    fn live_snapshot_reads_this_process() {
        let a = ProcSnapshot::read().expect("linux /proc");
        assert!(a.stat.threads >= 1);
        assert!(a.status.vm_hwm_kb > 0);
        let b = ProcSnapshot::read().expect("linux /proc");
        assert!(b.user_s_since(&a) >= 0.0);
        assert!((0.0..=1.0).contains(&b.steal_share_since(&a)));
    }
}
