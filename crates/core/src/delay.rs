//! Communication delay arithmetic (Section 2.2).
//!
//! `Cdelay(d) = Tship + Ttx` with `Tship = (d0 − d)/v` (repositioning at
//! cruise speed) and `Ttx = Mdata / s(d)` (transmission at the
//! hover-and-transmit rate). The paper restricts itself to the
//! hover-and-transmit strategy after showing move-and-transmit is
//! dominated (Figure 1 / Section 3.2).
//!
//! Both terms are computed with dimensional newtypes: `Tship` is
//! literally `Meters / MetersPerSec` and `Ttx` is `Bytes / BitsPerSec`,
//! so a unit mix-up (metres where seconds belong, Mb/s where bit/s
//! belongs) is a compile error, not a corrupted figure table:
//!
//! ```compile_fail
//! use skyferry_core::delay::CommunicationDelay;
//! use skyferry_core::scenario::Scenario;
//! use skyferry_units::Seconds;
//! let s = Scenario::airplane_baseline();
//! // A duration is not a candidate distance: rejected at compile time.
//! let _ = CommunicationDelay::at(s, Seconds::new(100.0));
//! ```

use skyferry_units::{BitsPerSec, Meters, Seconds};

use crate::scenario::Scenario;
use crate::throughput::ThroughputModel;

/// The components of the communication delay at one candidate distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommunicationDelay {
    /// Candidate transmission distance.
    pub d: Meters,
    /// Time to fly from `d0` to `d`.
    pub ship: Seconds,
    /// Time to transmit the batch at `s(d)`.
    pub tx: Seconds,
}

impl CommunicationDelay {
    /// Evaluate `Cdelay` for `scenario` at distance `d ∈ [d_min, d0]`.
    ///
    /// # Panics
    /// Panics if `d` is outside the feasible interval.
    pub fn at(scenario: Scenario<'_>, d: Meters) -> Self {
        Self::at_rate(scenario, d, scenario.throughput.rate_bps(d))
    }

    /// [`CommunicationDelay::at`] with the link rate `s(d)` already
    /// evaluated — the one statement of `Tship` and `Ttx`.
    pub(crate) fn at_rate(scenario: Scenario<'_>, d: Meters, rate: BitsPerSec) -> Self {
        assert!(
            d.get() >= scenario.d_min_m - 1e-9 && d.get() <= scenario.d0_m + 1e-9,
            "d={} outside [{}, {}]",
            d.get(),
            scenario.d_min_m,
            scenario.d0_m
        );
        let ship = (scenario.d0() - d).max(Meters::ZERO) / scenario.speed();
        let tx = scenario.mdata() / rate;
        CommunicationDelay { d, ship, tx }
    }

    /// Total delay `Tship + Ttx`.
    pub fn total(&self) -> Seconds {
        self.ship + self.tx
    }

    /// Candidate distance as a raw `f64` in metres (report layer).
    // lint:allow-line(unit-safety): report-layer raw accessor; typed twin is the `d` field
    pub fn d_m(&self) -> f64 {
        self.d.get()
    }

    /// Shipping time as a raw `f64` in seconds (report layer).
    // lint:allow-line(unit-safety): report-layer raw accessor; typed twin is the `ship` field
    pub fn ship_s(&self) -> f64 {
        self.ship.get()
    }

    /// Transmission time as a raw `f64` in seconds (report layer).
    // lint:allow-line(unit-safety): report-layer raw accessor; typed twin is the `tx` field
    pub fn tx_s(&self) -> f64 {
        self.tx.get()
    }

    /// Total delay as a raw `f64` in seconds (report layer).
    // lint:allow-line(unit-safety): report-layer raw accessor; typed twin is `total()`
    pub fn total_s(&self) -> f64 {
        self.total().get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(v: f64) -> Meters {
        Meters::new(v)
    }

    #[test]
    fn transmit_immediately_has_no_shipping() {
        let s = Scenario::airplane_baseline();
        let c = CommunicationDelay::at(s, s.d0());
        assert_eq!(c.ship, Seconds::ZERO);
        assert!(c.tx > Seconds::ZERO);
        assert_eq!(c.total(), c.tx);
    }

    #[test]
    fn shipping_time_is_distance_over_speed() {
        let s = Scenario::airplane_baseline();
        let c = CommunicationDelay::at(s, m(100.0));
        assert!((c.ship_s() - 200.0 / 10.0).abs() < 1e-12);
    }

    #[test]
    fn paper_magnitudes_airplane_at_100m() {
        // s(100) = −5.56·log2(100)+49 ≈ 12.06 Mb/s;
        // Ttx = 28 MB·8 / 12.06 Mb/s ≈ 18.6 s; Tship = 20 s.
        let s = Scenario::airplane_baseline();
        let c = CommunicationDelay::at(s, m(100.0));
        assert!((c.tx_s() - 18.6).abs() < 0.2, "tx={}", c.tx_s());
        assert!((c.total_s() - 38.6).abs() < 0.3);
    }

    #[test]
    fn moving_closer_trades_ship_for_tx() {
        let s = Scenario::quadrocopter_baseline();
        let far = CommunicationDelay::at(s, m(90.0));
        let near = CommunicationDelay::at(s, m(40.0));
        assert!(near.ship > far.ship);
        assert!(near.tx < far.tx);
    }

    #[test]
    fn total_is_sum() {
        let s = Scenario::quadrocopter_baseline();
        let c = CommunicationDelay::at(s, m(50.0));
        assert_eq!(c.total(), c.ship + c.tx);
        assert_eq!(c.total_s(), c.ship_s() + c.tx_s());
    }

    #[test]
    #[should_panic]
    fn below_dmin_rejected() {
        let s = Scenario::quadrocopter_baseline();
        let _ = CommunicationDelay::at(s, m(5.0));
    }

    #[test]
    #[should_panic]
    fn beyond_d0_rejected() {
        // "It is never convenient for a UAV to move further away"
        // (footnote 2) — the API forbids it outright.
        let s = Scenario::quadrocopter_baseline();
        let _ = CommunicationDelay::at(s, m(150.0));
    }
}
