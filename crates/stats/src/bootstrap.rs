//! Bootstrap confidence intervals.
//!
//! Campaign medians come from modest sample counts (the paper pools a
//! few flights per distance); a percentile bootstrap quantifies how firm
//! those medians are, and the reproduction harness reports it so
//! paper-vs-measured comparisons carry error bars.

use crate::quantile::quantile;

/// A deterministic xorshift64* generator — self-contained so the stats
/// crate stays dependency-free.
#[derive(Debug, Clone)]
struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    fn new(seed: u64) -> Self {
        XorShift64 { state: seed.max(1) }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A percentile-bootstrap confidence interval for a statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// The statistic on the original sample.
    pub point: f64,
    /// Lower CI bound.
    pub lo: f64,
    /// Upper CI bound.
    pub hi: f64,
    /// Confidence level, e.g. 0.95.
    pub level: f64,
}

impl ConfidenceInterval {
    /// `true` if `x` lies inside the interval.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo && x <= self.hi
    }
}

/// Percentile bootstrap CI for the median.
///
/// Returns `None` on an empty sample.
///
/// # Panics
/// Panics if `level` is outside `(0, 1)` or `resamples == 0`.
pub fn median_ci(
    samples: &[f64],
    level: f64,
    resamples: usize,
    seed: u64,
) -> Option<ConfidenceInterval> {
    bootstrap_ci(samples, level, resamples, seed, |xs| {
        quantile(xs, 0.5).expect("non-empty resample")
    })
}

/// Percentile bootstrap CI for an arbitrary statistic.
pub fn bootstrap_ci(
    samples: &[f64],
    level: f64,
    resamples: usize,
    seed: u64,
    statistic: impl Fn(&[f64]) -> f64,
) -> Option<ConfidenceInterval> {
    assert!((0.0..1.0).contains(&level) && level > 0.0, "bad level");
    assert!(resamples > 0, "need at least one resample");
    if samples.is_empty() {
        return None;
    }
    let point = statistic(samples);
    let mut rng = XorShift64::new(seed);
    let mut stats: Vec<f64> = Vec::with_capacity(resamples);
    let mut buf = vec![0.0; samples.len()];
    for _ in 0..resamples {
        for slot in buf.iter_mut() {
            *slot = samples[rng.index(samples.len())];
        }
        stats.push(statistic(&buf));
    }
    let alpha = (1.0 - level) / 2.0;
    let lo = quantile(&stats, alpha).expect("non-empty");
    let hi = quantile(&stats, 1.0 - alpha).expect("non-empty");
    Some(ConfidenceInterval {
        point,
        lo,
        hi,
        level,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn half_width(ci: &ConfidenceInterval) -> f64 {
        (ci.hi - ci.lo) / 2.0
    }

    fn noisy_sample(n: usize, seed: u64) -> Vec<f64> {
        // Deterministic pseudo-noise around 10.0.
        let mut rng = XorShift64::new(seed);
        (0..n)
            .map(|_| 10.0 + (rng.next_u64() % 1000) as f64 / 250.0 - 2.0)
            .collect()
    }

    #[test]
    fn empty_sample_is_none() {
        assert!(median_ci(&[], 0.95, 100, 1).is_none());
    }

    #[test]
    fn interval_brackets_the_point() {
        let xs = noisy_sample(60, 2);
        let ci = median_ci(&xs, 0.95, 500, 3).unwrap();
        assert!(ci.lo <= ci.point && ci.point <= ci.hi);
        assert!(ci.contains(ci.point));
        assert_eq!(ci.level, 0.95);
    }

    #[test]
    fn more_samples_tighter_interval() {
        let small = median_ci(&noisy_sample(15, 4), 0.95, 800, 5).unwrap();
        let large = median_ci(&noisy_sample(600, 4), 0.95, 800, 5).unwrap();
        assert!(
            half_width(&large) < half_width(&small),
            "{} vs {}",
            half_width(&large),
            half_width(&small)
        );
    }

    #[test]
    fn constant_sample_degenerate_interval() {
        let xs = [7.0; 30];
        let ci = median_ci(&xs, 0.95, 200, 6).unwrap();
        assert_eq!(ci.point, 7.0);
        assert_eq!(ci.lo, 7.0);
        assert_eq!(ci.hi, 7.0);
        assert_eq!(half_width(&ci), 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let xs = noisy_sample(40, 7);
        let a = median_ci(&xs, 0.9, 300, 42).unwrap();
        let b = median_ci(&xs, 0.9, 300, 42).unwrap();
        assert_eq!(a, b);
        let c = median_ci(&xs, 0.9, 300, 43).unwrap();
        assert!(a.lo != c.lo || a.hi != c.hi);
    }

    #[test]
    fn custom_statistic_mean() {
        let xs = noisy_sample(200, 8);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let ci = bootstrap_ci(&xs, 0.95, 400, 9, |s| {
            s.iter().sum::<f64>() / s.len() as f64
        })
        .unwrap();
        assert!((ci.point - mean).abs() < 1e-12);
        assert!(ci.contains(mean));
    }

    #[test]
    fn wider_level_wider_interval() {
        let xs = noisy_sample(50, 10);
        let ci90 = median_ci(&xs, 0.90, 600, 11).unwrap();
        let ci99 = median_ci(&xs, 0.99, 600, 11).unwrap();
        assert!(half_width(&ci99) >= half_width(&ci90));
    }
}
