//! Small statistics helpers used by the analysis layer.
//!
//! The headline consumer is Figure 5 (CDF of content-monitor refetch delays
//! on a log-scaled x axis); `Cdf` computes empirical distribution points and
//! quantiles from raw samples.

/// An empirical cumulative distribution over `f64` samples.
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build a CDF from raw samples. Non-finite samples are rejected.
    ///
    /// # Panics
    /// Panics if any sample is NaN or infinite.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "Cdf samples must be finite"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples compare"));
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x` (0.0 on an empty CDF).
    pub fn fraction_at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|&v| v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (0 <= q <= 1), by the nearest-rank method.
    ///
    /// # Panics
    /// Panics on an empty CDF or if `q` is outside `[0,1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty CDF");
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if q == 0.0 {
            return self.sorted[0];
        }
        let rank = (q * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.saturating_sub(1)]
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// `(x, F(x))` points suitable for plotting, one per sample.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, (i + 1) as f64 / n))
            .collect()
    }

    /// `(x, F(x))` evaluated at `k` log-spaced abscissae spanning the sample
    /// range — the Figure 5 rendering grid (its x axis is log-scaled).
    ///
    /// # Panics
    /// Panics on an empty CDF, if `k < 2`, or if any sample is `<= 0`
    /// (log-spacing needs a positive domain).
    pub fn log_spaced_points(&self, k: usize) -> Vec<(f64, f64)> {
        assert!(!self.sorted.is_empty(), "log_spaced_points of empty CDF");
        assert!(k >= 2, "need at least two grid points");
        let lo = self.sorted[0];
        let hi = self.sorted[self.sorted.len() - 1];
        assert!(lo > 0.0, "log-spaced grid requires positive samples");
        let (llo, lhi) = (lo.ln(), hi.ln());
        (0..k)
            .map(|i| {
                // Pin the endpoints exactly: exp(ln(x)) rounding must not let
                // the last grid point fall below the max sample.
                let x = if i == 0 {
                    lo
                } else if i == k - 1 {
                    hi
                } else {
                    (llo + (lhi - llo) * i as f64 / (k - 1) as f64).exp()
                };
                (x, self.fraction_at(x))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_at_matches_definition() {
        let cdf = Cdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.fraction_at(0.5), 0.0);
        assert_eq!(cdf.fraction_at(1.0), 0.25);
        assert_eq!(cdf.fraction_at(2.5), 0.5);
        assert_eq!(cdf.fraction_at(100.0), 1.0);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let cdf = Cdf::new(vec![10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(cdf.quantile(0.0), 10.0);
        assert_eq!(cdf.quantile(0.5), 30.0);
        assert_eq!(cdf.quantile(1.0), 50.0);
    }

    #[test]
    fn points_are_monotone() {
        let cdf = Cdf::new(vec![3.0, 1.0, 2.0]);
        let pts = cdf.points();
        assert_eq!(pts.len(), 3);
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1));
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn log_spaced_grid_spans_range() {
        let cdf = Cdf::new(vec![1.0, 10.0, 100.0, 1000.0]);
        let pts = cdf.log_spaced_points(4);
        assert!((pts[0].0 - 1.0).abs() < 1e-9);
        assert!((pts[3].0 - 1000.0).abs() < 1e-6);
        assert_eq!(pts[3].1, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        Cdf::new(vec![1.0, f64::NAN]);
    }
}
