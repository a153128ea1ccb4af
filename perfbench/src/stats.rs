//! Order statistics over samples.
//!
//! Per-run figures use nearest-rank percentiles: every reported value is a
//! sample that was actually measured. Figures over a set of runs (the A/A
//! command) use the quartile rule of Python's
//! `statistics.quantiles(values, n=4)`, so they match the figures other
//! tools compute over the same result lines.

/// A percentile above the median is reported only when at least this many
/// samples lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// `samples` in ascending order. A failed operation is recorded as
/// `f64::INFINITY`, so it sorts last and misses every latency limit.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// The nearest-rank percentile at `per_mille` / 1000 of ascending `sorted`
/// samples: the sample at 1-based rank ⌈p·n⌉.
///
/// `None` when there are no samples, or when a percentile above the median
/// would have fewer than [`MIN_BEYOND`] samples beyond it.
pub fn percentile(sorted: &[f64], per_mille: usize) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || per_mille == 0 || per_mille > 1000 {
        return None;
    }
    let rank = (per_mille * n).div_ceil(1000).max(1);
    if per_mille > 500 && n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Nearest-rank median of ascending `sorted` samples.
pub fn median(sorted: &[f64]) -> Option<f64> {
    percentile(sorted, 500)
}

/// Samples below this many nanoseconds are counted in a flat table.
const DENSE_NS: usize = 1 << 18;

/// Exact counts of integer nanosecond samples. Percentiles follow the same
/// nearest-rank rule as [`percentile`], but memory does not grow with the
/// number of samples, so a run's peak memory does not depend on how many
/// operations the host managed to time.
#[derive(Debug, Clone)]
pub struct Hist {
    dense: Vec<u64>,
    sparse: std::collections::BTreeMap<u64, u64>,
    failed: u64,
    n: u64,
    total_ns: f64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Hist {
        Hist {
            dense: vec![0; DENSE_NS],
            sparse: Default::default(),
            failed: 0,
            n: 0,
            total_ns: 0.0,
        }
    }

    /// Count one sample of `ns` nanoseconds.
    pub fn record(&mut self, ns: u64) {
        match self.dense.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => *self.sparse.entry(ns).or_default() += 1,
        }
        self.n += 1;
        self.total_ns += ns as f64;
    }

    /// Count one failed operation: it misses every limit.
    pub fn record_failed(&mut self) {
        self.failed += 1;
        self.n += 1;
    }

    /// Samples counted, failures included.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// Failed operations counted.
    pub fn failed(&self) -> usize {
        self.failed as usize
    }

    /// True before any sample.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sum of the successful samples, in nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.total_ns
    }

    /// Nearest-rank percentile at `per_mille` / 1000, with the same rule
    /// as [`percentile`]; `f64::INFINITY` when the rank falls on a failure.
    pub fn percentile(&self, per_mille: usize) -> Option<f64> {
        let n = self.len();
        if n == 0 || per_mille == 0 || per_mille > 1000 {
            return None;
        }
        let rank = (per_mille * n).div_ceil(1000).max(1) as u64;
        if per_mille > 500 && (n as u64) - rank < MIN_BEYOND as u64 {
            return None;
        }
        let finite = self
            .dense
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(v, &c)| (v as u64, c))
            .chain(self.sparse.iter().map(|(&v, &c)| (v, c)));
        let mut seen = 0u64;
        for (value, count) in finite {
            seen += count;
            if seen >= rank {
                return Some(value as f64);
            }
        }
        Some(f64::INFINITY)
    }
}

/// Quartiles `[q1, q2, q3]` by the default ("exclusive") method of
/// Python's `statistics.quantiles(values, n=4)`. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values.to_vec());
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    // Python's integer arithmetic, where `delta` may go negative at the
    // clamped ends.
    let (n, m) = (4i64, ld as i64 + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (data[j as usize - 1], data[j as usize]);
        *slot = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    Some(out)
}

/// Python's `statistics.median`: the middle value, or the mean of the two
/// middle values.
pub fn median_of(values: &[f64]) -> Option<f64> {
    let data = sorted(values.to_vec());
    let n = data.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(data[n / 2]),
        _ => Some((data[n / 2 - 1] + data[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_a_measured_sample() {
        let s = ramp(100);
        assert_eq!(median(&s), Some(50.0));
        assert_eq!(percentile(&s, 900), Some(90.0));
        assert_eq!(percentile(&s, 1), Some(1.0));
        assert_eq!(median(&ramp(5)), Some(3.0));
        assert_eq!(median(&ramp(4)), Some(2.0), "lower middle on even counts");
    }

    #[test]
    fn high_percentiles_need_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly ten lie beyond it.
        let s = ramp(1000);
        assert_eq!(percentile(&s, 990), Some(990.0));
        // One sample fewer leaves only nine beyond rank 990.
        assert_eq!(percentile(&ramp(999), 990), None);
        // p95 needs 200 samples; the median needs only one.
        assert_eq!(percentile(&ramp(200), 950), Some(190.0));
        assert_eq!(percentile(&ramp(199), 950), None);
        assert_eq!(median(&ramp(1)), Some(1.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn failures_count_as_missing_every_limit() {
        let mut samples = ramp(20);
        samples.extend([f64::INFINITY; 20]);
        let s = sorted(samples);
        assert_eq!(median(&s), Some(20.0));
        assert_eq!(percentile(&s, 510), Some(f64::INFINITY));
    }

    #[test]
    fn histogram_agrees_with_the_sorted_samples() {
        let mut samples: Vec<u64> = (0..3000u64).map(|i| (i * 7919) % 400_000).collect();
        samples.extend([5_000_000, 5_000_000, 9]);
        let mut h = Hist::new();
        for &s in &samples {
            h.record(s);
        }
        h.record_failed();
        let mut all: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
        all.push(f64::INFINITY);
        let all = sorted(all);
        for per_mille in [1, 250, 500, 900, 990, 996, 997, 1000] {
            assert_eq!(
                h.percentile(per_mille),
                percentile(&all, per_mille),
                "p{per_mille}"
            );
        }
        assert_eq!(h.len(), all.len());
        assert_eq!(h.failed(), 1);
        assert_eq!(h.total_ns(), samples.iter().sum::<u64>() as f64);
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median_of(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
