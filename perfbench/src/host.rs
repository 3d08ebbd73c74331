//! The host descriptor every result carries: cores, write shards, git
//! revision, and the CPU time the hypervisor stole during the run.

use std::process::Command;

/// Cumulative CPU jiffies from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuTimes {
    /// All states summed (user .. steal; guest time is already inside
    /// user and nice).
    pub total: u64,
    /// Time stolen by the hypervisor.
    pub steal: u64,
}

impl CpuTimes {
    /// Read the current counters; zeros where `/proc/stat` is absent.
    pub fn now() -> CpuTimes {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().map(CpuTimes::parse))
            .unwrap_or_default()
    }

    /// Parse an aggregate `cpu` line of `/proc/stat`.
    pub fn parse(line: &str) -> CpuTimes {
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTimes {
            total: fields.iter().sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of CPU time stolen between `self` and `later`.
    pub fn steal_frac_until(&self, later: &CpuTimes) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            0.0
        } else {
            later.steal.saturating_sub(self.steal) as f64 / total as f64
        }
    }
}

/// CPU time this process has used so far, s: every thread, ended ones
/// included, user and system (`CLOCK_PROCESS_CPUTIME_ID`). Time the
/// hypervisor steals from the host does not advance this clock, which is
/// why the benchmark's timings use it (README.md, "Clocks and steady
/// cycles").
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec (64-bit `time_t` and
    // `long`, as on every 64-bit Linux target) for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Available parallelism, 1 if unknown.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The checkout's git revision, or `"unknown"` outside a git work tree.
pub fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_comes_from_the_eighth_field() {
        let a = CpuTimes::parse("cpu  100 0 50 800 10 0 5 35 0 0");
        let b = CpuTimes::parse("cpu  200 0 100 1600 20 0 10 70 0 0");
        assert_eq!(a.total, 1000);
        assert_eq!(a.steal, 35);
        assert!((a.steal_frac_until(&b) - 0.035).abs() < 1e-12);
        assert_eq!(b.steal_frac_until(&a), 0.0);
    }

    #[test]
    fn the_process_clock_counts_work() {
        let t0 = process_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_s() > t0, "{x}");
    }
}
