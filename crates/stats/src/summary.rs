//! Streaming summary statistics (Welford's online algorithm).
//!
//! Used by throughput meters and campaign runners that process samples one
//! at a time and should not buffer entire runs just to compute a mean.

/// Running mean/variance/min/max accumulator.
///
/// ```
/// use skyferry_stats::Summary;
/// let mut s = Summary::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean().unwrap() - 5.0).abs() < 1e-12);
/// assert!((s.sample_variance().unwrap() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Summary {
    /// Empty accumulator.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Add one sample.
    ///
    /// # Panics
    /// Panics on NaN (which would silently poison every statistic).
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN pushed into Summary");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.sum += x;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean; `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Smallest sample; `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample; `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Sample variance (divide by n−1); `None` with fewer than two samples.
    pub fn sample_variance(&self) -> Option<f64> {
        (self.n > 1).then(|| self.m2 / (self.n - 1) as f64)
    }

    /// Sample standard deviation; `None` with fewer than two samples.
    pub fn sample_std_dev(&self) -> Option<f64> {
        self.sample_variance().map(f64::sqrt)
    }

    /// Merge another summary into this one (parallel Welford combine).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(xs: impl IntoIterator<Item = f64>) -> Summary {
        let mut s = Summary::new();
        for x in xs {
            s.push(x);
        }
        s
    }

    #[test]
    fn empty_summary_is_all_none() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert!(s.mean().is_none());
        assert!(s.min().is_none());
        assert!(s.max().is_none());
        assert!(s.sample_variance().is_none());
    }

    #[test]
    fn single_sample() {
        let s = summary([5.0]);
        assert_eq!(s.mean(), Some(5.0));
        assert!(s.sample_variance().is_none());
        assert_eq!(s.min(), Some(5.0));
        assert_eq!(s.max(), Some(5.0));
    }

    #[test]
    fn variance_matches_direct_formula() {
        let xs = [1.5, -2.0, 3.25, 0.0, 8.0, -1.0];
        let s = summary(xs.iter().copied());
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean().unwrap() - mean).abs() < 1e-12);
        assert!((s.sample_variance().unwrap() - var).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let (a, b) = xs.split_at(37);
        let mut left = summary(a.iter().copied());
        let right = summary(b.iter().copied());
        left.merge(&right);
        let all = summary(xs.iter().copied());
        assert_eq!(left.count(), all.count());
        assert!((left.mean().unwrap() - all.mean().unwrap()).abs() < 1e-10);
        assert!((left.sample_variance().unwrap() - all.sample_variance().unwrap()).abs() < 1e-10);
        assert_eq!(left.min(), all.min());
        assert_eq!(left.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = summary([1.0, 2.0]);
        s.merge(&Summary::new());
        assert_eq!(s.count(), 2);
        let mut e = Summary::new();
        e.merge(&s);
        assert_eq!(e.count(), 2);
        assert_eq!(e.mean(), s.mean());
    }

    #[test]
    #[should_panic]
    fn nan_rejected() {
        let mut s = Summary::new();
        s.push(f64::NAN);
    }
}
