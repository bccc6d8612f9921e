//! Battery endurance bookkeeping.
//!
//! "The period during which UAVs remain in action is limited by battery
//! capacity" (Section 1). The model is deliberately simple — a time-based
//! reservoir at nominal consumption, which is how Table 1 quotes autonomy
//! — with a hover/cruise weighting hook because rotorcraft drain slightly
//! faster in forward flight.

use skyferry_sim::time::SimDuration;
use skyferry_units::{Meters, MetersPerSec, Seconds};

use crate::platform::PlatformSpec;

/// Remaining-endurance tracker for one UAV.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    autonomy_s: f64,
    consumed_s: f64,
    /// Relative drain multiplier while moving (1.0 = same as hover).
    cruise_drain_factor: f64,
}

impl Battery {
    /// A full battery for the given platform. Cruise drain factor is 1.1
    /// for rotorcraft (forward flight costs a bit more than hover) and
    /// 1.0 for fixed-wing (which is always cruising).
    pub fn full(spec: &PlatformSpec) -> Self {
        Battery {
            autonomy_s: spec.battery_autonomy_s,
            consumed_s: 0.0,
            cruise_drain_factor: if spec.can_hover { 1.1 } else { 1.0 },
        }
    }

    /// Consume `dt` of flight; `moving` selects the drain factor.
    pub fn drain(&mut self, dt: SimDuration, moving: bool) {
        assert!(!dt.is_negative());
        let factor = if moving {
            self.cruise_drain_factor
        } else {
            1.0
        };
        self.consumed_s += dt.as_secs_f64() * factor;
    }

    /// Remaining endurance at hover drain (never negative).
    pub fn remaining(&self) -> Seconds {
        Seconds::new((self.autonomy_s - self.consumed_s).max(0.0))
    }

    /// Remaining endurance at hover drain, seconds (raw `f64`
    /// convenience for the report layer).
    // lint:allow-line(unit-safety): report-layer raw convenience; typed twin is `remaining()`
    pub fn remaining_s(&self) -> f64 {
        self.remaining().get()
    }

    /// Remaining fraction in `[0, 1]`.
    pub fn remaining_fraction(&self) -> f64 {
        self.remaining_s() / self.autonomy_s
    }

    /// Distance still flyable at cruise speed `speed`.
    pub fn remaining_range(&self, speed: MetersPerSec) -> Meters {
        assert!(speed.get() >= 0.0);
        speed * (self.remaining() / self.cruise_drain_factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_battery_matches_autonomy() {
        let b = Battery::full(&PlatformSpec::airplane());
        assert_eq!(b.remaining_s(), 1800.0);
        assert_eq!(b.remaining_fraction(), 1.0);
    }

    #[test]
    fn drain_depletes() {
        let mut b = Battery::full(&PlatformSpec::quadrocopter());
        b.drain(SimDuration::from_secs(600), false);
        assert_eq!(b.remaining_s(), 600.0);
        b.drain(SimDuration::from_secs(700), false);
        assert_eq!(b.remaining_s(), 0.0);
    }

    #[test]
    fn cruise_costs_more_for_rotorcraft() {
        let mut hover = Battery::full(&PlatformSpec::quadrocopter());
        let mut cruise = Battery::full(&PlatformSpec::quadrocopter());
        hover.drain(SimDuration::from_secs(100), false);
        cruise.drain(SimDuration::from_secs(100), true);
        assert!(cruise.remaining_s() < hover.remaining_s());
    }

    #[test]
    fn fixed_wing_has_flat_drain() {
        let mut a = Battery::full(&PlatformSpec::airplane());
        let mut b = Battery::full(&PlatformSpec::airplane());
        a.drain(SimDuration::from_secs(100), false);
        b.drain(SimDuration::from_secs(100), true);
        assert_eq!(a.remaining_s(), b.remaining_s());
    }

    #[test]
    fn remaining_range() {
        let b = Battery::full(&PlatformSpec::airplane());
        assert_eq!(
            b.remaining_range(MetersPerSec::new(10.0)),
            Meters::new(18_000.0)
        );
    }
}
