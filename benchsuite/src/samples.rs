//! Order statistics of one series of measurements.
//!
//! Every timing the suite prints goes through [`Samples`]: the named value
//! of a metric is the median, and the line beside it carries `n, min, q1,
//! median, q3` so a reader can see how wide the run was without a second
//! tool.

/// A non-empty series of finite measurements, kept sorted.
#[derive(Debug, Clone, PartialEq)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sort `values` into a series. Panics on an empty series or a
    /// non-finite value: both mean the harness itself is broken.
    pub fn new(mut values: Vec<f64>) -> Samples {
        assert!(!values.is_empty(), "a series needs at least one sample");
        assert!(values.iter().all(|v| v.is_finite()), "non-finite sample in {values:?}");
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        self.sorted[self.sorted.len() - 1]
    }

    /// Quantile `p ∈ [0, 1]` by linear interpolation between the two
    /// closest ranks.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile {p} outside [0, 1]");
        let pos = p * (self.sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        self.sorted[lo] + (self.sorted[hi] - self.sorted[lo]) * (pos - lo as f64)
    }

    /// First quartile.
    pub fn q1(&self) -> f64 {
        self.quantile(0.25)
    }

    /// Median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Third quartile.
    pub fn q3(&self) -> f64 {
        self.quantile(0.75)
    }

    /// The highest percentile that still has at least ten samples beyond
    /// it, with its value: `(percentile, value)`. `None` below eleven
    /// samples, where no percentile qualifies.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let n = self.sorted.len();
        let i = n.checked_sub(11)?;
        Some((100.0 * (i + 1) as f64 / n as f64, self.sorted[i]))
    }

    /// `n=… min=… q1=… median=… q3=…`, the line printed beside every timing.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "n={} min={:.6} q1={:.6} median={:.6} q3={:.6}",
            self.n(),
            self.min(),
            self.q1(),
            self.median(),
            self.q3()
        );
        if let Some((pct, v)) = self.tail() {
            s.push_str(&format!(" p{pct:.1}={v:.6}"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_a_small_series() {
        let s = Samples::new(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.n(), s.min(), s.max()), (5, 1.0, 5.0));
        assert_eq!((s.q1(), s.median(), s.q3()), (2.0, 3.0, 4.0));
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let s = Samples::new(vec![10.0, 20.0]);
        assert_eq!(s.median(), 15.0);
        assert_eq!(s.quantile(0.9), 19.0);
        let one = Samples::new(vec![7.0]);
        assert_eq!((one.q1(), one.median(), one.q3()), (7.0, 7.0, 7.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(Samples::new((0..10).map(f64::from).collect()).tail(), None);
        // 11 samples: only the smallest has ten beyond it.
        assert_eq!(Samples::new((0..11).map(f64::from).collect()).tail(), Some((100.0 / 11.0, 0.0)));
        // 200 samples: p95 is the 190th value, ten lie beyond it.
        let (pct, v) = Samples::new((1..=200).map(f64::from).collect()).tail().unwrap();
        assert_eq!((pct, v), (95.0, 190.0));
    }

    #[test]
    fn summary_names_every_statistic() {
        let line = Samples::new(vec![1.0, 2.0, 3.0]).summary();
        for key in ["n=3", "min=", "q1=", "median=", "q3="] {
            assert!(line.contains(key), "{line}");
        }
        assert!(!line.contains(" p"), "no tail percentile below eleven samples: {line}");
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_series_is_a_harness_bug() {
        Samples::new(vec![]);
    }
}
