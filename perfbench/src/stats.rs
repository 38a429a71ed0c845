//! Order statistics and process memory.

/// The median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `p`-th percentile, interpolated between order statistics like the
/// median, if at least ten samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let pos = p * n.saturating_sub(1) as f64 / 100.0;
    let lo = pos.floor() as usize;
    (n > lo + 10).then(|| v[lo] + (v[lo + 1] - v[lo]) * (pos - lo as f64))
}

/// The bounded tail latency: p90 when at least ten samples lie beyond it,
/// else the median, as `(value, percentile)`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    percentile(values, 90.0).map_or((median(values), 50.0), |v| (v, 90.0))
}

/// Resets the kernel's peak-RSS mark to the current RSS (Linux
/// `clear_refs`), so a later [`peak_rss_mb`] covers only what follows.
/// Where the reset is unavailable the peak covers the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory (`VmHWM`) in MiB; 0 where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time the hypervisor gave to other guests so far, summed over this
/// machine's CPUs, in seconds (`/proc/stat` steal ticks at the usual 100 Hz
/// `USER_HZ`); 0 where unavailable. On a shared host it explains runs that
/// are slow for reasons outside the program.
pub fn host_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?.strip_prefix("cpu ")?;
            cpu.split_whitespace().nth(7)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // 100 samples: p90 (position 89.1) has ten beyond it, p99 one.
        let (t90, p) = tail(&v);
        assert!((t90 - 90.1).abs() < 1e-9 && p == 90.0);
        assert_eq!(percentile(&v, 99.0), None);
        // Too few for p90: the median.
        assert_eq!(tail(&v[..15]), (8.0, 50.0));
    }
}
