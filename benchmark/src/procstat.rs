//! Process accounting from `/proc/self`: CPU time, context switches,
//! threads, peak RSS. Linux only — which is where the benchmark runs.

use std::fs;

/// Kernel clock ticks per second. `sysconf(_SC_CLK_TCK)` needs libc,
/// which the container does not vendor; Linux has fixed USER_HZ at 100
/// on every architecture for decades.
const TICKS_PER_S: f64 = 100.0;

/// A point-in-time reading; subtract two to bracket a region.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcStat {
    /// User CPU seconds, all threads.
    pub user_s: f64,
    /// System CPU seconds, all threads.
    pub sys_s: f64,
    /// Voluntary context switches, summed over live threads.
    pub ctx_vol: u64,
    /// Involuntary context switches, summed over live threads.
    pub ctx_invol: u64,
    /// Live threads.
    pub threads: u64,
    /// Peak resident set (`VmHWM`) in MiB.
    pub peak_rss_mib: f64,
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// `(user, system)` CPU seconds of the whole process so far.
pub fn cpu_seconds() -> (f64, f64) {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the name.
    let mut after = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace();
    let ticks = |v: Option<&str>| v.and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    let user_s = ticks(after.nth(11)) / TICKS_PER_S;
    (user_s, ticks(after.next()) / TICKS_PER_S)
}

impl ProcStat {
    pub fn read() -> Self {
        let (user_s, sys_s) = cpu_seconds();
        let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
        // Context-switch counts are per task: sum the thread group.
        let (mut ctx_vol, mut ctx_invol) = (0, 0);
        if let Ok(tasks) = fs::read_dir("/proc/self/task") {
            for t in tasks.flatten() {
                let s = fs::read_to_string(t.path().join("status")).unwrap_or_default();
                ctx_vol += status_field(&s, "voluntary_ctxt_switches:");
                ctx_invol += status_field(&s, "nonvoluntary_ctxt_switches:");
            }
        }
        Self {
            user_s,
            sys_s,
            ctx_vol,
            ctx_invol,
            threads: status_field(&status, "Threads:"),
            peak_rss_mib: status_field(&status, "VmHWM:") as f64 / 1024.0,
        }
    }

    /// Counters accumulated since `earlier`; gauges (`threads`,
    /// `peak_rss_mib`) keep this reading's value.
    pub fn since(&self, earlier: &ProcStat) -> ProcStat {
        ProcStat {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_vol: self.ctx_vol.saturating_sub(earlier.ctx_vol),
            ctx_invol: self.ctx_invol.saturating_sub(earlier.ctx_invol),
            ..*self
        }
    }
}

/// One line describing the machine, for result files and the README.
pub fn machine_line() -> String {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown cpu".into());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!("nproc {nproc}; {cpu}; Linux {}", kernel.trim())
}
