//! Order statistics and process memory readings.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, interpolating linearly
/// between the closest ranks. `None` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if sorted[hi].is_infinite() {
        return Some(sorted[hi]);
    }
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The `q`-quantile of per-request latencies in ms, where a failed request
/// counts as infinitely late: when a failure lands on the quantile, the
/// longest any request could have waited, the whole phase of
/// `wall_seconds`, is reported. 0 for an empty sample.
pub fn latency_ms(samples_ms: &[f64], q: f64, wall_seconds: f64) -> f64 {
    match quantile(samples_ms, q) {
        Some(v) if v.is_infinite() => wall_seconds * 1000.0,
        Some(v) => v,
        None => 0.0,
    }
}

/// The median of `values`, or 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// Resets the kernel's resident-set high-water mark (`VmHWM`) to the
/// current resident size, so `peak_rss_mb` covers only what follows.
pub fn reset_peak_rss() {
    // Writing 5 to clear_refs resets the peak RSS (Linux ≥ 4.0). Where it
    // is unavailable the peak simply covers the whole process.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Hands the allocator's free pages back to the kernel (glibc's
/// `malloc_trim`). Called between sweeps, outside the timed window: memory
/// an earlier sweep freed but glibc kept in one of its per-thread arenas
/// would otherwise count in the next sweep's resident set, by an amount
/// that depends on which arena each short-lived worker thread used.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and only returns unused
        // pages to the kernel; glibc locks each arena while trimming it,
        // so calling it while other threads allocate is allowed.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// The machine's CPU time so far, from the first line of `/proc/stat`, in
/// clock ticks summed over CPUs: all of it, and the part a hypervisor
/// gave to other guests while this one was ready to run (`steal`).
#[derive(Clone, Copy)]
pub struct CpuTicks {
    total: u64,
    steal: u64,
}

impl CpuTicks {
    /// Reads the counters now; zeros where `/proc/stat` is unavailable.
    pub fn now() -> CpuTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .and_then(|line| line.strip_prefix("cpu "))
            .map(|rest| rest.split_whitespace().filter_map(|f| f.parse().ok()).collect())
            .unwrap_or_default();
        CpuTicks { total: fields.iter().sum(), steal: fields.get(7).copied().unwrap_or(0) }
    }

    /// The share of the machine's CPU time stolen since `earlier`.
    pub fn steal_share_since(self, earlier: CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        self.steal.saturating_sub(earlier.steal) as f64 / total.max(1) as f64
    }
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[1.0, f64::INFINITY], 0.9), Some(f64::INFINITY));
    }

    #[test]
    fn steal_share_is_a_fraction() {
        let start = CpuTicks::now();
        let share = CpuTicks::now().steal_share_since(start);
        assert!((0.0..=1.0).contains(&share), "{share}");
    }

    #[test]
    fn peak_rss_reads_after_a_reset() {
        reset_peak_rss();
        assert!(peak_rss_mb() > 0.0);
    }
}
