//! GPS measurement model.
//!
//! The paper computes inter-UAV distance from GPS fixes (Haversine over
//! reported coordinates). Fixes here are ENU positions, so distance is
//! Euclidean. Consumer GPS error is strongly time-correlated, which we
//! model per axis as a first-order Gauss–Markov process:
//!
//! ```text
//! e(t+dt) = e(t)·exp(-dt/τ) + w,   w ~ N(0, σ²(1 - exp(-2dt/τ)))
//! ```
//!
//! with correlation time `τ` ≈ 30 s and a steady-state σ of ~1.5 m
//! horizontal / 3 m vertical — typical u-blox-class numbers for the era.

use skyferry_geo::vector::Vec3;
use skyferry_sim::rng::DetRng;
use skyferry_sim::time::SimTime;

/// Parameters of the GPS error process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpsConfig {
    /// Steady-state standard deviation of the horizontal error, metres.
    pub sigma_horizontal_m: f64,
    /// Steady-state standard deviation of the vertical error, metres.
    pub sigma_vertical_m: f64,
    /// Correlation time constant, seconds.
    pub tau_s: f64,
    /// Fix rate, Hz (consumer receivers: 4–5 Hz).
    pub rate_hz: f64,
}

impl Default for GpsConfig {
    fn default() -> Self {
        GpsConfig {
            sigma_horizontal_m: 1.5,
            sigma_vertical_m: 3.0,
            tau_s: 30.0,
            rate_hz: 5.0,
        }
    }
}

/// A stateful GPS sensor attached to one UAV.
#[derive(Debug, Clone)]
pub struct GpsSensor {
    config: GpsConfig,
    rng: DetRng,
    error: Vec3,
    last_update: Option<SimTime>,
}

impl GpsSensor {
    /// New sensor with its own RNG substream.
    pub fn new(config: GpsConfig, rng: DetRng) -> Self {
        GpsSensor {
            config,
            rng,
            error: Vec3::ZERO,
            last_update: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GpsConfig {
        &self.config
    }

    /// Produce a position fix for true position `truth` at time `now`.
    /// Consecutive calls must use non-decreasing times.
    pub fn fix(&mut self, now: SimTime, truth: Vec3) -> Vec3 {
        let dt = match self.last_update {
            None => {
                // Initialise the error at steady state.
                self.error = Vec3::new(
                    self.rng.normal(0.0, self.config.sigma_horizontal_m),
                    self.rng.normal(0.0, self.config.sigma_horizontal_m),
                    self.rng.normal(0.0, self.config.sigma_vertical_m),
                );
                self.last_update = Some(now);
                return truth + self.error;
            }
            Some(prev) => {
                assert!(now >= prev, "GPS queried out of order");
                (now - prev).as_secs_f64()
            }
        };
        self.last_update = Some(now);
        if dt > 0.0 {
            let rho = (-dt / self.config.tau_s).exp();
            let innov = (1.0 - rho * rho).sqrt();
            self.error = Vec3::new(
                self.error.x * rho + self.rng.normal(0.0, self.config.sigma_horizontal_m * innov),
                self.error.y * rho + self.rng.normal(0.0, self.config.sigma_horizontal_m * innov),
                self.error.z * rho + self.rng.normal(0.0, self.config.sigma_vertical_m * innov),
            );
        }
        truth + self.error
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyferry_sim::time::SimDuration;

    fn sensor(seed: u64) -> GpsSensor {
        GpsSensor::new(GpsConfig::default(), DetRng::seed(seed))
    }

    #[test]
    fn error_statistics_match_config() {
        let mut s = sensor(1);
        let truth = Vec3::new(100.0, 200.0, 50.0);
        let mut now = SimTime::ZERO;
        // Sample far apart so fixes decorrelate (dt >> tau).
        let mut errs = Vec::new();
        for _ in 0..4_000 {
            now += SimDuration::from_secs(200);
            let fix = s.fix(now, truth);
            errs.push(fix - truth);
        }
        let mean_x = errs.iter().map(|e| e.x).sum::<f64>() / errs.len() as f64;
        let var_x = errs.iter().map(|e| (e.x - mean_x).powi(2)).sum::<f64>() / errs.len() as f64;
        assert!(mean_x.abs() < 0.15, "mean={mean_x}");
        assert!((var_x.sqrt() - 1.5).abs() < 0.15, "std={}", var_x.sqrt());
        let var_z = errs.iter().map(|e| e.z * e.z).sum::<f64>() / errs.len() as f64;
        assert!((var_z.sqrt() - 3.0).abs() < 0.3, "std_z={}", var_z.sqrt());
    }

    #[test]
    fn error_is_time_correlated() {
        let mut s = sensor(2);
        let truth = Vec3::ZERO;
        let mut now = SimTime::ZERO;
        let first = s.fix(now, truth);
        now += SimDuration::from_millis(200);
        let second = s.fix(now, truth);
        // 0.2 s at tau=30 s: error nearly unchanged.
        assert!(first.distance(second) < 1.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = sensor(3);
        let mut b = sensor(3);
        for i in 0..50 {
            let t = SimTime::from_millis(i * 200);
            let p = Vec3::new(i as f64, 0.0, 10.0);
            assert_eq!(a.fix(t, p), b.fix(t, p));
        }
    }

    #[test]
    fn independent_sensors_decorrelated() {
        let mut a = sensor(4);
        let mut b = sensor(5);
        let t = SimTime::ZERO;
        assert_ne!(a.fix(t, Vec3::ZERO), b.fix(t, Vec3::ZERO));
    }

    #[test]
    #[should_panic]
    fn out_of_order_rejected() {
        let mut s = sensor(6);
        s.fix(SimTime::from_secs(10), Vec3::ZERO);
        s.fix(SimTime::from_secs(5), Vec3::ZERO);
    }
}
