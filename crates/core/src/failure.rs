//! Failure / discount models — the `δ(d)` of Eq. (1).
//!
//! The paper assumes a distance-stationary exponential failure law:
//! the probability of surviving the repositioning leg from `d0` down to
//! `d` is `δ(d) = exp(−ρ·(d0 − d))`. The trait keeps the optimizer
//! generic so non-stationary laws (named as future work in Section 7)
//! can be dropped in; [`WeibullFailure`] is one such extension with a
//! distance-dependent hazard.
//!
//! [`WeibullFailure`]: crate::failure::WeibullFailure

use skyferry_units::Meters;

use crate::scenario::ParamError;

/// A survival model over the repositioning leg.
pub trait FailureModel {
    /// Probability of still being operational after moving from
    /// separation `d0_m` to `d_m ≤ d0_m`.
    // lint:allow-line(unit-safety): optimizer hot path, called per candidate distance; raw metres by design
    fn survival(&self, d0_m: f64, d_m: f64) -> f64;

    /// Probability of surviving `leg_m` further metres of flight — the
    /// path-planner form used by `skyferry-traj`, where hazard accrues
    /// per metre actually flown rather than per metre of
    /// straight-corridor closure. Defined as `survival(leg_m, 0.0)`,
    /// which is bit-identical to the corridor form whenever
    /// `leg_m == d0_m − d_m` exactly (`x − 0.0 == x` in IEEE-754) — the
    /// degenerate-equivalence guarantee leans on this.
    // lint:allow-line(unit-safety): planner hot path mirror of `survival`; raw metres by design
    fn survival_over(&self, leg_m: f64) -> f64 {
        self.survival(leg_m, 0.0)
    }
}

/// The paper's exponential law with constant hazard `ρ` per metre.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentialFailure {
    /// Failure rate, 1/m.
    pub rho_per_m: f64,
}

impl ExponentialFailure {
    /// Construct; `rho ≥ 0` (0 = no failures, δ ≡ 1).
    pub fn new(rho_per_m: f64) -> Self {
        let m = ExponentialFailure { rho_per_m };
        m.check().unwrap_or_else(|e| panic!("{e}"));
        m
    }

    /// `Ok` when ρ is finite and ≥ 0, the range in which δ rises with
    /// `d` — a negative ρ would reward flying further.
    pub(crate) fn check(&self) -> Result<(), ParamError> {
        if self.rho_per_m >= 0.0 && self.rho_per_m.is_finite() {
            Ok(())
        } else {
            Err(ParamError::Rho(self.rho_per_m))
        }
    }
}

impl FailureModel for ExponentialFailure {
    fn survival(&self, d0_m: f64, d_m: f64) -> f64 {
        assert!(d_m <= d0_m + 1e-9, "d must not exceed d0");
        (-self.rho_per_m * (d0_m - d_m)).exp()
    }
}

/// A Weibull-hazard extension: hazard grows (k > 1) or shrinks (k < 1)
/// with the distance already flown in the mission, scaled so that
/// `scale_m` is the characteristic failure distance.
///
/// The survival over the leg conditions on having already survived
/// `flown_m` metres of mission: `S(flown+Δ)/S(flown)` with
/// `S(x) = exp(−(x/λ)^k)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeibullFailure {
    /// Characteristic distance λ, metres.
    pub scale_m: f64,
    /// Shape k (> 0). `k = 1` reduces to the exponential law.
    pub shape: f64,
    /// Mission distance already flown when the decision is taken, metres.
    pub flown_m: f64,
}

impl WeibullFailure {
    /// Construct with validation.
    pub fn new(scale: Meters, shape: f64, flown: Meters) -> Self {
        let m = WeibullFailure {
            scale_m: scale.get(),
            shape,
            flown_m: flown.get(),
        };
        m.check().unwrap_or_else(|e| panic!("{e}"));
        m
    }

    /// `Ok` when scale and shape are finite and > 0 and the flown
    /// distance is finite and ≥ 0, the range in which the cumulative
    /// hazard grows with the leg, so δ rises with `d`. Whether the hazard
    /// stays finite also depends on the leg;
    /// [`Scenario::check`](crate::scenario::Scenario::check)
    /// checks that.
    pub(crate) fn check(&self) -> Result<(), ParamError> {
        let positive = |x: f64| x.is_finite() && x > 0.0;
        if positive(self.scale_m)
            && positive(self.shape)
            && self.flown_m.is_finite()
            && self.flown_m >= 0.0
        {
            Ok(())
        } else {
            Err(ParamError::Weibull(self.scale_m, self.shape, self.flown_m))
        }
    }

    pub(crate) fn cumulative_hazard(&self, x_m: f64) -> f64 {
        (x_m / self.scale_m).powf(self.shape)
    }
}

impl FailureModel for WeibullFailure {
    fn survival(&self, d0_m: f64, d_m: f64) -> f64 {
        assert!(d_m <= d0_m + 1e-9, "d must not exceed d0");
        let leg = d0_m - d_m;
        let h0 = self.cumulative_hazard(self.flown_m);
        let h1 = self.cumulative_hazard(self.flown_m + leg);
        (-(h1 - h0)).exp()
    }
}

/// Serialisable selector over the available failure models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailureSpec {
    /// Constant hazard (the paper's model).
    Exponential(ExponentialFailure),
    /// Distance-varying hazard (extension).
    Weibull(WeibullFailure),
}

impl FailureModel for FailureSpec {
    fn survival(&self, d0_m: f64, d_m: f64) -> f64 {
        match self {
            FailureSpec::Exponential(m) => m.survival(d0_m, d_m),
            FailureSpec::Weibull(m) => m.survival(d0_m, d_m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_move_no_risk() {
        let m = ExponentialFailure::new(1e-3);
        assert_eq!(m.survival(100.0, 100.0), 1.0);
    }

    #[test]
    fn paper_example_value() {
        // Airplane baseline: ρ = 1.11e-4, moving from 300 m to 100 m.
        let m = ExponentialFailure::new(1.11e-4);
        let s = m.survival(300.0, 100.0);
        assert!((s - (-1.11e-4f64 * 200.0).exp()).abs() < 1e-12);
        assert!((s - 0.978).abs() < 1e-3);
    }

    #[test]
    fn survival_decreases_with_leg_length() {
        let m = ExponentialFailure::new(2.46e-4);
        let mut prev = 1.0;
        for d in (0..=100).rev().map(|i| i as f64) {
            let s = m.survival(100.0, d);
            assert!(s <= prev);
            prev = s;
        }
    }

    #[test]
    fn zero_rate_is_safe() {
        let m = ExponentialFailure::new(0.0);
        assert_eq!(m.survival(1e6, 0.0), 1.0);
    }

    #[test]
    fn weibull_k1_matches_exponential() {
        let w = WeibullFailure::new(Meters::new(1.0 / 1.11e-4), 1.0, Meters::ZERO);
        let e = ExponentialFailure::new(1.11e-4);
        for &(d0, d) in &[(300.0, 100.0), (100.0, 20.0), (50.0, 50.0)] {
            assert!((w.survival(d0, d) - e.survival(d0, d)).abs() < 1e-12);
        }
    }

    #[test]
    fn weibull_wearout_penalises_late_mission_moves() {
        // k > 1: the same leg is riskier after more mission distance.
        let fresh = WeibullFailure::new(Meters::new(5_000.0), 2.0, Meters::ZERO);
        let tired = WeibullFailure::new(Meters::new(5_000.0), 2.0, Meters::new(4_000.0));
        assert!(tired.survival(100.0, 20.0) < fresh.survival(100.0, 20.0));
    }

    #[test]
    fn survival_over_matches_corridor_form_bitwise() {
        // The traj planner's degenerate case folds a flown path length
        // back into the corridor law; the two spellings must agree to
        // the last bit when the leg lengths agree to the last bit.
        let e = ExponentialFailure::new(2.46e-4);
        let w = WeibullFailure::new(Meters::new(5_000.0), 2.0, Meters::new(300.0));
        for &(d0, d) in &[(300.0, 100.0), (100.0, 20.0), (50.0, 50.0), (77.5, 21.25)] {
            let leg = d0 - d;
            assert_eq!(
                e.survival_over(leg).to_bits(),
                e.survival(d0, d).to_bits(),
                "exponential leg {leg}"
            );
            // Weibull conditions on mission distance, not on the
            // station-relative corridor, so the identity holds there too.
            assert_eq!(
                w.survival_over(leg).to_bits(),
                w.survival(leg, 0.0).to_bits()
            );
        }
    }

    #[test]
    fn spec_dispatch() {
        let spec = FailureSpec::Exponential(ExponentialFailure::new(1e-4));
        assert_eq!(spec.survival(100.0, 50.0), (-1e-4f64 * 50.0).exp());
    }

    #[test]
    #[should_panic]
    fn d_beyond_d0_rejected() {
        let m = ExponentialFailure::new(1e-4);
        let _ = m.survival(50.0, 100.0);
    }
}
