//! The exponential-in-distance failure process.
//!
//! The paper assumes "the failure probability is exponentially
//! distributed with the distance traveled" (Section 2), citing the
//! discounted-reward TSP literature: the probability of still being
//! functional after flying `Δd` metres is `exp(−ρ·Δd)`. This module
//! provides the sampling process that draws a concrete failure distance
//! for a simulated mission; its tests check it against that survival
//! function.

use skyferry_sim::rng::DetRng;
use skyferry_units::Meters;

/// A sampled failure process for one UAV: the total distance it will
/// manage to fly before failing is drawn once, up front, from
/// `Exp(rho)` — memorylessness makes this equivalent to step-wise
/// sampling, but cheaper and exactly reproducible.
#[derive(Debug, Clone)]
pub struct FailureProcess {
    rho_per_m: f64,
    /// Distance at which the UAV fails, metres.
    failure_distance_m: f64,
    /// Odometer: distance travelled so far, metres.
    travelled_m: f64,
}

impl FailureProcess {
    /// Draw a failure distance at rate `rho_per_m` (may be 0 = immortal).
    pub fn sample(rho_per_m: f64, rng: &mut DetRng) -> Self {
        assert!(rho_per_m >= 0.0 && rho_per_m.is_finite());
        let failure_distance_m = if rho_per_m == 0.0 {
            f64::INFINITY
        } else {
            rng.exponential(rho_per_m)
        };
        FailureProcess {
            rho_per_m,
            failure_distance_m,
            travelled_m: 0.0,
        }
    }

    /// The configured failure rate, 1/m.
    pub fn rho_per_m(&self) -> f64 {
        self.rho_per_m
    }

    /// Record `d` of travel; returns `true` if the UAV is still
    /// functional afterwards.
    pub fn travel(&mut self, d: Meters) -> bool {
        assert!(d.get() >= 0.0);
        self.travelled_m += d.get();
        self.is_alive()
    }

    /// `true` while the odometer is below the sampled failure distance.
    pub fn is_alive(&self) -> bool {
        self.travelled_m < self.failure_distance_m
    }

    /// Distance travelled so far.
    pub fn travelled(&self) -> Meters {
        Meters::new(self.travelled_m)
    }

    /// Distance that can still be travelled before failure.
    pub fn remaining(&self) -> Meters {
        Meters::new((self.failure_distance_m - self.travelled_m).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_failure_distance_has_right_mean() {
        let rho = 2.46e-4; // mean 4065 m
        let mut rng = DetRng::seed(1);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| FailureProcess::sample(rho, &mut rng).failure_distance_m)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.0 / rho).abs() / (1.0 / rho) < 0.03, "mean={mean}");
    }

    #[test]
    fn empirical_survival_matches_analytic() {
        let rho = 1.11e-4;
        let d = 3_000.0;
        let mut rng = DetRng::seed(2);
        let n = 20_000;
        let survived = (0..n)
            .filter(|_| {
                let mut p = FailureProcess::sample(rho, &mut rng);
                p.travel(Meters::new(d))
            })
            .count();
        let emp = survived as f64 / n as f64;
        let ana = (-rho * d).exp();
        assert!((emp - ana).abs() < 0.01, "emp={emp} ana={ana}");
    }

    #[test]
    fn odometer_accumulates() {
        let mut rng = DetRng::seed(3);
        let mut p = FailureProcess::sample(1e-4, &mut rng);
        p.travel(Meters::new(100.0));
        p.travel(Meters::new(250.0));
        assert_eq!(p.travelled(), Meters::new(350.0));
        assert!((p.remaining().get() - (p.failure_distance_m - 350.0)).abs() < 1e-9);
    }

    #[test]
    fn zero_rate_is_immortal() {
        let mut rng = DetRng::seed(4);
        let mut p = FailureProcess::sample(0.0, &mut rng);
        assert!(p.travel(Meters::new(1e12)));
        assert!(p.is_alive());
    }

    #[test]
    fn dead_stays_dead() {
        let mut rng = DetRng::seed(5);
        let mut p = FailureProcess::sample(1.0, &mut rng); // mean 1 m
        p.travel(Meters::new(1e6));
        assert!(!p.is_alive());
        assert_eq!(p.remaining(), Meters::ZERO);
        assert!(!p.travel(Meters::ZERO));
    }
}
