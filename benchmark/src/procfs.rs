//! Process-level measurements read from `/proc/self`: the benchmark runs
//! the whole cluster in-process, so these are the cluster's cost.

use std::fs;

/// Kernel `USER_HZ`: the unit of the CPU times in `/proc/self/stat`. It is
/// 100 on every Linux ABI (the value is fixed for userspace regardless of
/// the kernel's internal tick).
const USER_HZ: f64 = 100.0;

/// User + system CPU time of this process (all threads) in milliseconds.
pub fn cpu_ms() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, utime and stime being fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("stat has utime and stime")
    };
    (ticks() + ticks()) * 1000.0 / USER_HZ
}

/// One numeric `Key:  value [unit]` line of `/proc/self/status`.
fn status_field(key: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {key}"))
}

/// Peak resident set size of this process in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM") as f64 / 1024.0
}

pub fn thread_count() -> u64 {
    status_field("Threads")
}

pub fn fd_count() -> u64 {
    fs::read_dir("/proc/self/fd")
        .expect("read /proc/self/fd")
        .count() as u64
}

/// The soft `RLIMIT_NOFILE` of this process (`u64::MAX` for unlimited).
pub fn nofile_soft_limit() -> u64 {
    let limits = fs::read_to_string("/proc/self/limits").expect("read /proc/self/limits");
    let soft = limits
        .lines()
        .find_map(|line| line.strip_prefix("Max open files"))
        .and_then(|rest| rest.split_whitespace().next())
        .expect("/proc/self/limits has Max open files");
    soft.parse().unwrap_or(u64::MAX)
}
