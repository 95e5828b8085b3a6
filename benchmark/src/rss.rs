//! Resident-memory sampling for `peak_rss_growth_mb`.
//!
//! The kernel's own high-water mark (`VmHWM`) counts set-up, which
//! holds the pre-rendered frames, so the benchmark samples `VmRSS`
//! itself during the measured phase and reports the peak above the
//! level read once set-up finished.

/// Current resident set size of this process in bytes, from
/// `/proc/self/status` (0 where the file is unavailable).
pub fn current_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| parse_vm_rss(&status))
        .unwrap_or(0)
}

/// The `VmRSS:` line of a `/proc/<pid>/status` text, in bytes.
pub fn parse_vm_rss(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kib: u64 = line
        .trim_start_matches("VmRSS:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024)
}

/// Peak resident memory above a baseline, fed with samples.
#[derive(Debug, Clone)]
pub struct RssGrowth {
    baseline: u64,
    peak: u64,
}

impl RssGrowth {
    /// Starts tracking above `baseline` bytes.
    pub fn above(baseline: u64) -> Self {
        RssGrowth {
            baseline,
            peak: baseline,
        }
    }

    /// Starts tracking above the current resident size.
    pub fn from_now() -> Self {
        Self::above(current_rss_bytes())
    }

    pub fn observe(&mut self, rss_bytes: u64) {
        self.peak = self.peak.max(rss_bytes);
    }

    pub fn sample(&mut self) {
        self.observe(current_rss_bytes());
    }

    /// Growth of the peak over the baseline in MB (2^20 bytes); never
    /// negative, since the baseline is itself a sample.
    pub fn growth_mb(&self) -> f64 {
        (self.peak - self.baseline) as f64 / (1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_rss_in_kib() {
        let status = "Name:\tx\nVmHWM:\t  9000 kB\nVmRSS:\t  2048 kB\nThreads:\t3\n";
        assert_eq!(parse_vm_rss(status), Some(2048 * 1024));
        assert_eq!(parse_vm_rss("Name:\tx\n"), None);
    }

    #[test]
    fn growth_is_peak_above_baseline() {
        let mut g = RssGrowth::above(100 << 20);
        g.observe(90 << 20);
        assert_eq!(g.growth_mb(), 0.0);
        g.observe(150 << 20);
        g.observe(120 << 20);
        assert_eq!(g.growth_mb(), 50.0);
    }

    #[test]
    fn live_process_has_resident_memory() {
        let before = current_rss_bytes();
        assert!(before > 0);
        let mut g = RssGrowth::from_now();
        let block = vec![1u8; 64 << 20];
        g.sample();
        assert!(std::hint::black_box(&block).iter().all(|&b| b == 1));
        assert!(g.growth_mb() > 32.0, "touched 64 MB, saw {}", g.growth_mb());
    }
}
