//! Small statistics and helpers the harness reports with: medians,
//! quartiles, the percentile picker, share arithmetic, the `VmHWM`
//! parser and the output digest.

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice — every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points, exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// gives them — the rule the driver judges run-to-run spread by.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (len, n) = (v.len(), 4usize);
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs()
}

/// Nearest rank (1-based) of percentile `pct` in a sample of `count`;
/// the epsilon keeps `99.9 % of 10 000` at 9990 despite binary floats.
fn nearest_rank(count: usize, pct: f64) -> usize {
    ((pct * count as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, count)
}

/// The value at percentile `pct` (nearest rank) of `sorted`.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[nearest_rank(sorted.len(), pct) - 1]
}

/// The highest of `candidates` (ascending percentiles) that still has
/// at least ten samples beyond it in a sample of `count`; `None` when
/// even the lowest does not.
pub fn highest_supported_percentile(count: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .rfind(|&pct| count >= 10 && count - nearest_rank(count, pct) >= 10)
}

/// `1 − Σ parts / whole`: the share of `whole` the listed parts do not
/// account for. Negative when the parts overlap in time (parallel
/// layers) or were measured hotter than they run inside the whole.
pub fn residual_share(whole: f64, parts: &[f64]) -> f64 {
    1.0 - parts.iter().sum::<f64>() / whole
}

/// Peak resident set size in kB from the text of `/proc/self/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb)
}

/// Peak resident set size of this process in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    let kb = parse_vm_hwm_kb(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

/// FNV-1a over byte chunks: the digest of a workload's deterministic
/// outputs. Not cryptographic — it only has to differ when outputs do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Length-delimit so ("ab","c") and ("a","bc") differ.
        self.u64(bytes.len() as u64)
    }

    pub fn u64(mut self, v: u64) -> Self {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn get(self) -> u64 {
        self.0
    }
}

/// Expands the run's `--seed` into per-repetition and per-input seeds
/// (one SplitMix64 draw per stream), so the crates only ever see
/// generated inputs.
pub fn mix(seed: u64, stream: u64) -> u64 {
    ftss_rng::SplitMix64::new(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_repetitions_ignores_one_preempted_repetition() {
        assert_eq!(median(&[100.0, 101.0, 12.0, 99.0, 100.5]), 100.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_picker_wants_ten_samples_beyond() {
        let c = [50.0, 90.0, 99.0, 99.9];
        assert_eq!(highest_supported_percentile(19, &c), None);
        assert_eq!(highest_supported_percentile(20, &c), Some(50.0));
        assert_eq!(highest_supported_percentile(99, &c), Some(50.0));
        assert_eq!(highest_supported_percentile(100, &c), Some(90.0));
        assert_eq!(highest_supported_percentile(1000, &c), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000, &c), Some(99.9));
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 90.0), 90.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn residual_share_is_what_the_parts_leave() {
        assert!((residual_share(10.0, &[2.0, 3.0]) - 0.5).abs() < 1e-12);
        assert!((residual_share(4.0, &[4.0])).abs() < 1e-12);
        assert!(residual_share(4.0, &[3.0, 3.0]) < 0.0);
        assert_eq!(residual_share(4.0, &[]), 1.0);
    }

    #[test]
    fn vm_hwm_parser_reads_the_proc_status_shape() {
        let status = "Name:\tftss\nVmPeak:\t  200 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 9 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(12345));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 9 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn digest_separates_chunk_boundaries_and_seeds_differ() {
        let a = Digest::default().bytes(b"ab").bytes(b"c");
        let b = Digest::default().bytes(b"a").bytes(b"bc");
        assert_ne!(a, b);
        assert_eq!(a, Digest::default().bytes(b"ab").bytes(b"c"));
        assert_ne!(mix(7, 0), mix(7, 1));
        assert_ne!(mix(7, 0), mix(8, 0));
    }
}
