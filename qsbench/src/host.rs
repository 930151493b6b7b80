//! Run metadata and process measurements read from the host: peak RSS,
//! steal time, core count, build profile and git revision.

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Aggregate CPU time counters from `/proc/stat`: (steal, total) ticks.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user, so the total stops at steal.
    let fields: Vec<u64> =
        line.split_whitespace().skip(1).take(8).filter_map(|f| f.parse().ok()).collect();
    if fields.len() < 8 {
        return None;
    }
    Some((fields[7], fields.iter().sum()))
}

/// Share of host CPU time stolen by the hypervisor between two readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The commit checked out in the working directory, read from `.git`
/// directly (no subprocess); "unknown" outside a git checkout.
pub fn git_rev() -> String {
    fn resolve() -> Option<String> {
        let head = std::fs::read_to_string(".git/HEAD").ok()?;
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
            return Some(rev.trim().to_string());
        }
        let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
        packed
            .lines()
            .find(|l| l.ends_with(reference))
            .and_then(|l| l.split_whitespace().next())
            .map(str::to_string)
    }
    resolve().unwrap_or_else(|| "unknown".to_string())
}
