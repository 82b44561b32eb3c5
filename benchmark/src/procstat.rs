//! Process CPU time and peak memory, read from `/proc/self`.

use std::time::Duration;

/// Kernel clock ticks per second for the `utime`/`stime` fields. Linux
/// fixes `USER_HZ` at 100 on every architecture it reports these in.
const TICKS_PER_SECOND: u64 = 100;

/// CPU time split the way the kernel accounts it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTimes {
    /// Time in user mode.
    pub user: Duration,
    /// Time in kernel mode.
    pub system: Duration,
}

impl CpuTimes {
    /// User plus system.
    pub fn total(&self) -> Duration {
        self.user + self.system
    }

    /// Time consumed since `earlier`.
    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes {
            user: self.user.saturating_sub(earlier.user),
            system: self.system.saturating_sub(earlier.system),
        }
    }
}

/// Parses the contents of `/proc/<pid>/stat` into `utime` and `stime`.
///
/// The second field, `(comm)`, is the executable name verbatim and may
/// itself contain spaces and parentheses, so fields are counted from the
/// *last* `)` — the only position the kernel guarantees.
pub fn parse_stat_cpu(stat: &str) -> Option<CpuTimes> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state); utime and stime are fields
    // 14 and 15 of the full line.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let mut ticks = || -> Option<Duration> {
        let t: u64 = fields.next()?.parse().ok()?;
        Some(Duration::from_millis(t * 1000 / TICKS_PER_SECOND))
    };
    Some(CpuTimes {
        user: ticks()?,
        system: ticks()?,
    })
}

/// User and system CPU time this process (all threads, including ones
/// that already exited) has consumed, or `None` where `/proc` is
/// unavailable.
pub fn process_cpu() -> Option<CpuTimes> {
    parse_stat_cpu(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Parses a `VmHWM:` line out of `/proc/<pid>/status`, in MiB.
pub fn parse_status_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    parse_status_hwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Resets the kernel's peak-RSS watermark to the current RSS, so the next
/// [`peak_rss_mib`] covers only what ran after this call. Returns whether
/// the kernel accepted it (it needs `/proc/self/clear_refs`, Linux ≥ 4.0).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_with_spaces_and_parens() {
        // Field 2 is hostile on purpose: spaces, nested and unbalanced
        // parentheses, digits that look like later fields.
        let stat = "4242 (my (weird) bench) 1 2) R 1 4242 4242 34816 4242 4194304 \
                    1200 0 3 0 731 59 0 0 20 0 3 0 8814 123456789 2048 \
                    18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        let cpu = parse_stat_cpu(stat).unwrap();
        assert_eq!(cpu.user, Duration::from_millis(7_310));
        assert_eq!(cpu.system, Duration::from_millis(590));
        assert_eq!(cpu.total(), Duration::from_millis(7_900));
    }

    #[test]
    fn plain_comm_and_garbage() {
        let stat = "1 (cat) S 0 1 1 0 -1 4194560 100 0 0 0 5 7 0 0 20 0 1 0 3 1 1";
        assert_eq!(
            parse_stat_cpu(stat).map(|c| c.total()),
            Some(Duration::from_millis(120))
        );
        assert_eq!(parse_stat_cpu("no parens here"), None);
        assert_eq!(parse_stat_cpu("1 (short) S 0 1"), None);
    }

    #[test]
    fn hwm_line() {
        let status = "Name:\tbench\nVmPeak:\t  900000 kB\nVmHWM:\t  262144 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_status_hwm_mib(status), Some(256.0));
        assert_eq!(parse_status_hwm_mib("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_when_proc_exists() {
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(process_cpu().is_some());
            assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
        }
    }
}
