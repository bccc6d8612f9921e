//! Deterministic, splittable random number streams.
//!
//! Every stochastic model component (fading, GPS noise, failure sampling,
//! rate-control sampling…) must draw from its *own* substream so that adding
//! a draw in one component never perturbs another — the classic requirement
//! for variance reduction and reproducible simulation campaigns.
//!
//! [`SeedStream`] derives independent 64-bit seeds from a master seed and a
//! string label using the SplitMix64 finalizer over a simple label hash;
//! [`DetRng`] is a self-contained xoshiro256++ generator with the small set
//! of sampling helpers the models need (uniform, normal, exponential) so
//! that no external random or distribution crate is required.

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
///
/// This is also the seed-derivation primitive of the parallel execution
/// layer (`crate::parallel`): per-task seeds are splitmix64 mixes of the
/// root seed and the task index, so results are independent of how tasks
/// are distributed over threads.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a byte string; used only to turn labels into seed inputs.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Derives independent seeds (and RNGs) from a master seed.
///
/// ```
/// use skyferry_sim::rng::SeedStream;
/// let stream = SeedStream::new(42);
/// let a = stream.derive("fading");
/// let b = stream.derive("gps-noise");
/// assert_ne!(a, b);
/// assert_eq!(a, SeedStream::new(42).derive("fading")); // reproducible
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedStream {
    master: u64,
}

impl SeedStream {
    /// Create a stream rooted at `master`.
    pub fn new(master: u64) -> Self {
        SeedStream { master }
    }

    /// The master seed.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// Derive a 64-bit seed for the component named `label`.
    pub fn derive(&self, label: &str) -> u64 {
        splitmix64(self.master ^ fnv1a(label.as_bytes()))
    }

    /// Derive a seed for the `index`-th replication of component `label`
    /// (e.g. one seed per measurement run in a campaign).
    pub fn derive_indexed(&self, label: &str, index: u64) -> u64 {
        splitmix64(self.derive(label) ^ splitmix64(index.wrapping_add(1)))
    }

    /// Build a [`DetRng`] for the component named `label`.
    pub fn rng(&self, label: &str) -> DetRng {
        DetRng::seed(self.derive(label))
    }

    /// Build a [`DetRng`] for replication `index` of component `label`.
    pub fn rng_indexed(&self, label: &str, index: u64) -> DetRng {
        DetRng::seed(self.derive_indexed(label, index))
    }
}

/// A deterministic RNG with the sampling helpers the skyferry models use.
///
/// The core generator is xoshiro256++ (Blackman & Vigna), seeded by
/// expanding a 64-bit seed through SplitMix64 — the reference seeding
/// procedure. It is fast, has a 2^256 − 1 period, and its output is
/// identical on every platform, which is what campaign determinism rests
/// on.
#[derive(Debug, Clone)]
pub struct DetRng {
    state: [u64; 4],
    /// Cached second output of the Box-Muller transform.
    gauss_spare: Option<f64>,
}

impl DetRng {
    /// Seed from a 64-bit value.
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        let mut state = [0u64; 4];
        for s in &mut state {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *s = splitmix64(sm);
        }
        DetRng {
            state,
            gauss_spare: None,
        }
    }

    /// Next raw 64-bit output (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform sample in `[0, 1)` with full 53-bit mantissa resolution.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi` or either bound is not finite.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo < hi);
        lo + self.uniform() * (hi - lo)
    }

    /// Uniform integer in `[0, n)` (Lemire's unbiased multiply-shift
    /// rejection method).
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        let n = n as u64;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let low = m as u64;
            if low >= n.wrapping_neg() % n {
                return (m >> 64) as usize;
            }
            // Rejected: retry keeps the distribution exactly uniform.
        }
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.uniform() < p
    }

    /// Standard normal sample (Box–Muller, with spare caching).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Draw u1 in (0,1] to keep ln() finite.
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    ///
    /// # Panics
    /// Panics if `std_dev` is negative or not finite.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev.is_finite() && std_dev >= 0.0);
        mean + std_dev * self.standard_normal()
    }

    /// Exponential sample with the given rate `lambda` (mean `1/lambda`).
    ///
    /// # Panics
    /// Panics if `lambda` is not strictly positive and finite.
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(lambda.is_finite() && lambda > 0.0);
        let u = 1.0 - self.uniform(); // in (0, 1]
        -u.ln() / lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_stream_is_reproducible_and_label_sensitive() {
        let s = SeedStream::new(7);
        assert_eq!(s.derive("a"), SeedStream::new(7).derive("a"));
        assert_ne!(s.derive("a"), s.derive("b"));
        assert_ne!(s.derive("a"), SeedStream::new(8).derive("a"));
        assert_ne!(s.derive_indexed("a", 0), s.derive_indexed("a", 1));
    }

    #[test]
    fn det_rng_reproducible() {
        let mut a = DetRng::seed(123);
        let mut b = DetRng::seed(123);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = DetRng::seed(1);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut rng = DetRng::seed(2);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean={mean}");
        assert!((var - 4.0).abs() < 0.15, "var={var}");
    }

    #[test]
    fn exponential_mean_roughly_correct() {
        let mut rng = DetRng::seed(3);
        let lambda = 0.25;
        let n = 50_000;
        let mean = (0..n).map(|_| rng.exponential(lambda)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn chance_clamps_probability() {
        let mut rng = DetRng::seed(5);
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn index_covers_range() {
        let mut rng = DetRng::seed(6);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.index(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn index_is_roughly_uniform() {
        let mut rng = DetRng::seed(7);
        let n = 7usize;
        let draws = 70_000;
        let mut counts = vec![0u32; n];
        for _ in 0..draws {
            counts[rng.index(n)] += 1;
        }
        let expected = draws as f64 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < 0.05 * expected,
                "bucket {i}: {c} vs {expected}"
            );
        }
    }

    #[test]
    fn distinct_seeds_decorrelate() {
        let a: Vec<u64> = {
            let mut r = DetRng::seed(1);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = DetRng::seed(2);
            (0..64).map(|_| r.next_u64()).collect()
        };
        assert!(a.iter().zip(&b).filter(|(x, y)| x == y).count() == 0);
    }
}
