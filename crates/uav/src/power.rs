//! Electrical power draw and energy capacity per platform.
//!
//! The Table 1 batteries are quoted as *autonomy* (30 min airplane,
//! 20 min quadrocopter) because that is what field crews measure; the
//! trajectory planner needs the same reservoir in joules so it can
//! charge flying and transmitting against one budget. This module is
//! the bridge: nominal draws in watts anchored to the [`Battery`](crate::battery::Battery)
//! bookkeeping (the rotorcraft cruise/hover draw ratio *is* the
//! battery's 1.1 cruise drain factor), and conversions between the two
//! views that agree by construction.
//!
//! Draw magnitudes are nominal small-UAV figures: a ~1 kg quadrocopter
//! hovers on roughly 180 W, while an efficient hand-launched airplane
//! (the paper's Swinglet class) cruises on ~15 W; the 802.11n radio
//! chain adds ~2 W while keyed.

use skyferry_units::{Joules, MetersPerSec, Seconds};

use crate::platform::{PlatformKind, PlatformSpec};

/// Nominal electrical draws of one platform, watts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Draw while holding position — hover for rotorcraft, minimum-power
    /// loiter for fixed-wing (which never stops flying), watts.
    pub hold_w: f64,
    /// Draw in forward flight at the Table 1 cruise speed, watts.
    pub cruise_w: f64,
    /// Additional draw of the radio chain while keyed, watts.
    pub radio_tx_w: f64,
}

/// The rotorcraft forward-flight draw multiplier. Must match the
/// cruise drain factor inside [`Battery::full`](crate::battery::Battery::full); the
/// `power_matches_battery_drain_factor` test pins the two together.
const ROTOR_CRUISE_FACTOR: f64 = 1.1;

impl PowerModel {
    /// The nominal power model for a platform.
    pub const fn of(kind: PlatformKind) -> PowerModel {
        match kind {
            PlatformKind::Airplane => PowerModel {
                hold_w: 15.0,
                cruise_w: 15.0,
                radio_tx_w: 2.0,
            },
            PlatformKind::Quadrocopter => PowerModel {
                hold_w: 180.0,
                cruise_w: 180.0 * ROTOR_CRUISE_FACTOR,
                radio_tx_w: 2.0,
            },
        }
    }

    /// Electrical draw (watts) in forward flight at `airspeed`.
    ///
    /// A quadratic blend anchored at the platform's kinematics cruise
    /// speed: `hold` at zero airspeed, `cruise` at cruise airspeed,
    /// growing beyond. Fixed-wing platforms have `hold == cruise`, so
    /// their draw is flat — they are always cruising.
    pub fn flight_power_w(&self, spec: &PlatformSpec, airspeed: MetersPerSec) -> f64 {
        assert!(airspeed.get() >= 0.0, "airspeed must be non-negative");
        let ratio = airspeed.get() / spec.cruise_speed_mps;
        self.hold_w + (self.cruise_w - self.hold_w) * ratio * ratio
    }

    /// Full-battery energy capacity: the hold-rate draw sustained over
    /// the Table 1 autonomy. This is the joule-denominated twin of
    /// [`Battery::full`](crate::battery::Battery::full) — a battery drained at hover for exactly the
    /// autonomy has spent exactly this energy.
    pub fn capacity(&self, spec: &PlatformSpec) -> Joules {
        Joules::from_power_w(self.hold_w, Seconds::new(spec.battery_autonomy_s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::battery::Battery;
    use skyferry_sim::time::SimDuration;

    #[test]
    fn power_matches_battery_drain_factor() {
        // The watts-denominated model and the autonomy-denominated
        // battery must describe the same machine: the cruise/hold draw
        // ratio equals the battery's cruise drain factor.
        for kind in [PlatformKind::Airplane, PlatformKind::Quadrocopter] {
            let spec = PlatformSpec::of(kind);
            let p = PowerModel::of(kind);
            let mut hold = Battery::full(&spec);
            let mut cruise = Battery::full(&spec);
            hold.drain(SimDuration::from_secs(100), false);
            cruise.drain(SimDuration::from_secs(100), true);
            let battery_factor = (spec.battery_autonomy_s - cruise.remaining_s())
                / (spec.battery_autonomy_s - hold.remaining_s());
            assert!(
                (p.cruise_w / p.hold_w - battery_factor).abs() < 1e-12,
                "{kind:?}: power ratio {} vs drain factor {battery_factor}",
                p.cruise_w / p.hold_w
            );
        }
    }

    #[test]
    fn capacity_magnitudes() {
        let quad = PowerModel::of(PlatformKind::Quadrocopter);
        let plane = PowerModel::of(PlatformKind::Airplane);
        assert_eq!(
            quad.capacity(&PlatformSpec::quadrocopter()),
            Joules::new(216_000.0)
        );
        assert_eq!(
            plane.capacity(&PlatformSpec::airplane()),
            Joules::new(27_000.0)
        );
    }

    #[test]
    fn flight_power_blends_hold_to_cruise() {
        let spec = PlatformSpec::quadrocopter();
        let p = PowerModel::of(PlatformKind::Quadrocopter);
        assert_eq!(p.flight_power_w(&spec, MetersPerSec::ZERO), p.hold_w);
        let at_cruise = p.flight_power_w(&spec, MetersPerSec::new(spec.cruise_speed_mps));
        assert!((at_cruise - p.cruise_w).abs() < 1e-12);
        let beyond = p.flight_power_w(&spec, MetersPerSec::new(1.5 * spec.cruise_speed_mps));
        assert!(beyond > p.cruise_w);
    }

    #[test]
    fn fixed_wing_draw_is_flat() {
        let spec = PlatformSpec::airplane();
        let p = PowerModel::of(PlatformKind::Airplane);
        for v in [0.0, 5.0, 10.0, 15.0] {
            assert_eq!(p.flight_power_w(&spec, MetersPerSec::new(v)), p.cruise_w);
        }
    }
}
