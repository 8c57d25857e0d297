//! Process counters from `/proc/self`: high-water RSS and CPU time.

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// fixed at 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// High-water resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// User and system CPU seconds used so far by every thread of this process.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    /// User-mode seconds.
    pub user_s: f64,
    /// Kernel-mode seconds.
    pub sys_s: f64,
}

impl CpuTimes {
    /// Reads `utime` and `stime` from `/proc/self/stat`.
    pub fn now() -> Result<CpuTimes, String> {
        let stat = std::fs::read_to_string("/proc/self/stat")
            .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
        // Fields after the parenthesised command name, which may itself
        // contain spaces: state is field 3, utime 14, stime 15.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .map(|t| t / TICKS_PER_S)
                .ok_or_else(|| format!("no field {} in /proc/self/stat", i + 3))
        };
        Ok(CpuTimes {
            user_s: tick(11)?,
            sys_s: tick(12)?,
        })
    }

    /// CPU time spent between `self` and the later reading `end`.
    pub fn until(self, end: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: end.user_s - self.user_s,
            sys_s: end.sys_s - self.sys_s,
        }
    }

    /// The sum of two spans of CPU time.
    pub fn plus(self, other: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s + other.user_s,
            sys_s: self.sys_s + other.sys_s,
        }
    }

    /// CPU time ÷ (wall × threads): 1.0 means every thread busy throughout.
    pub fn utilisation(self, wall_s: f64, threads: usize) -> f64 {
        (self.user_s + self.sys_s) / (wall_s * threads as f64)
    }

    /// System ÷ (user + system).
    pub fn sys_share(self) -> f64 {
        self.sys_s / (self.user_s + self.sys_s)
    }
}
