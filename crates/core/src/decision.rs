//! An online decision engine for mission planners.
//!
//! The paper assumes "a centralized system (central planner), which …
//! is aware of the positions and trajectories of the UAVs and, thus, of
//! their distances d" (Section 5). [`DecisionEngine`] is the component
//! that planner embeds: give it the live situation (separation, batch
//! size, battery-derived failure rate) and it answers *transmit now* or
//! *move to `dopt` first*, re-evaluating as conditions change.
//!
//! [`DecisionEngine`]: crate::decision::DecisionEngine

use crate::optimizer::{optimize, OptimalTransfer};
use crate::scenario::Scenario;
use crate::throughput::ThroughputSpec;
use skyferry_units::{Bytes, Meters};

/// What the carrier UAV should do right now.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TransferDecision {
    /// Start transmitting from the current position.
    TransmitNow {
        /// Expected transmission time, seconds.
        expected_tx_s: f64,
    },
    /// Fly to `target_d_m` separation, then transmit.
    MoveThenTransmit {
        /// Rendezvous separation to fly to, metres.
        target_d_m: f64,
        /// Expected shipping time, seconds.
        expected_ship_s: f64,
        /// Expected transmission time after arrival, seconds.
        expected_tx_s: f64,
    },
}

/// Tolerance below which repositioning is not worth commanding, metres.
const MOVE_TOLERANCE_M: f64 = 1.0;

/// The planner-side decision component.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionEngine {
    /// Throughput model for the platform pair in play.
    pub throughput: ThroughputSpec,
    /// Minimum allowed separation, metres.
    pub d_min_m: f64,
    /// Cruise speed available for repositioning, m/s.
    pub v_mps: f64,
}

impl DecisionEngine {
    /// Build an engine for a platform's scenario defaults.
    pub fn from_scenario(s: &Scenario) -> Self {
        DecisionEngine {
            throughput: s.throughput.clone(),
            d_min_m: s.d_min_m,
            v_mps: s.v_mps,
        }
    }

    /// Decide for the live situation: current separation `d0`, batch of
    /// `mdata`, failure rate `rho_per_m` (e.g. from remaining
    /// battery range). Returns the decision and the optimum behind it.
    pub fn decide(
        &self,
        d0: Meters,
        mdata: Bytes,
        rho_per_m: f64,
    ) -> (TransferDecision, OptimalTransfer) {
        let scenario = Scenario {
            name: "online".into(),
            d0_m: d0.get().max(self.d_min_m),
            d_min_m: self.d_min_m,
            v_mps: self.v_mps,
            mdata_bytes: mdata.get(),
            throughput: self.throughput.clone(),
            failure: crate::failure::FailureSpec::Exponential(
                crate::failure::ExponentialFailure::new(rho_per_m),
            ),
        };
        let opt = optimize(&scenario);
        let decision = if scenario.d0_m - opt.d_opt < MOVE_TOLERANCE_M {
            TransferDecision::TransmitNow {
                expected_tx_s: opt.tx_s,
            }
        } else {
            TransferDecision::MoveThenTransmit {
                target_d_m: opt.d_opt,
                expected_ship_s: opt.ship_s,
                expected_tx_s: opt.tx_s,
            }
        };
        (decision, opt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn d(m: f64) -> Meters {
        Meters::new(m)
    }

    fn b(v: f64) -> Bytes {
        Bytes::new(v)
    }

    fn engine() -> DecisionEngine {
        DecisionEngine::from_scenario(&Scenario::quadrocopter_baseline())
    }

    #[test]
    fn big_batch_far_encounter_moves_first() {
        let (d, opt) = engine().decide(d(100.0), b(56.2e6), 2.46e-4);
        match d {
            TransferDecision::MoveThenTransmit { target_d_m, .. } => {
                assert!((target_d_m - opt.d_opt).abs() < 1e-9);
                assert!(target_d_m < 99.0);
            }
            other => panic!("expected move-then-transmit, got {other:?}"),
        }
    }

    #[test]
    fn tiny_batch_transmits_now() {
        // 100 kB: shipping time would dwarf the transmission.
        let (d, _) = engine().decide(d(60.0), b(100_000.0), 2.46e-4);
        assert!(matches!(d, TransferDecision::TransmitNow { .. }), "{d:?}");
    }

    #[test]
    fn already_close_transmits_now() {
        let (d, _) = engine().decide(d(20.5), b(56.2e6), 2.46e-4);
        assert!(matches!(d, TransferDecision::TransmitNow { .. }), "{d:?}");
    }

    #[test]
    fn high_risk_transmits_now() {
        let (d, _) = engine().decide(d(100.0), b(56.2e6), 0.5);
        assert!(matches!(d, TransferDecision::TransmitNow { .. }), "{d:?}");
    }

    #[test]
    fn expected_total_consistent_with_optimum() {
        let (d, opt) = engine().decide(d(100.0), b(56.2e6), 2.46e-4);
        let total_s = match d {
            TransferDecision::TransmitNow { expected_tx_s } => expected_tx_s,
            TransferDecision::MoveThenTransmit {
                expected_ship_s,
                expected_tx_s,
                ..
            } => expected_ship_s + expected_tx_s,
        };
        assert!((total_s - opt.cdelay_s()).abs() < 1e-9);
    }

    #[test]
    fn separation_below_dmin_clamped() {
        // A degenerate call (already inside the safety bubble) must not
        // panic; it transmits from where it is.
        let (d, _) = engine().decide(d(10.0), b(1e6), 2.46e-4);
        assert!(matches!(d, TransferDecision::TransmitNow { .. }));
    }
}
