//! Order statistics for rep samples.

/// Median, quartiles and sample count of one metric's rep samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// The median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Every sample, in the order measured.
    pub samples: Vec<f64>,
}

impl Summary {
    /// Summarises `samples`, which must not be empty.
    pub fn of(samples: Vec<f64>) -> Summary {
        let [q1, median, q3] = quartiles(&samples);
        Summary {
            median,
            q1,
            q3,
            samples,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles by the same method as Python's
/// `statistics.quantiles(data, n=4)` (the default "exclusive" method),
/// so printed quartiles match what other tooling computes from the same
/// samples. One sample gives that sample three times.
pub fn quartiles(data: &[f64]) -> [f64; 3] {
    assert!(!data.is_empty(), "quartiles of no samples");
    let mut d = data.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    if n == 1 {
        return [d[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    out
}

/// The median of `data` (not empty).
pub fn median(data: &[f64]) -> f64 {
    percentile(data, 0.5)
}

/// The `p`-quantile of `data` (not empty) by linear interpolation
/// between closest ranks.
pub fn percentile(data: &[f64], p: f64) -> f64 {
    assert!(!data.is_empty(), "percentile of no samples");
    let mut d = data.to_vec();
    d.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (d.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    d[lo] + (d[hi] - d[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[0.0, 10.0], 0.9), 9.0);
        let s = Summary::of(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.median, 3.0);
        assert!((s.rel_iqr() - (4.5 - 1.5) / 3.0).abs() < 1e-12);
    }
}
