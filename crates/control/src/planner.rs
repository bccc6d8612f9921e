//! The central mission planner.
//!
//! "We assume a centralized system (central planner), which controls the
//! mission and is aware of the positions and trajectories of the UAVs
//! and, thus, of their distances d" (Section 5). The planner ingests
//! telemetry, maintains last-known fleet state, and — when a UAV reports
//! a batch ready for delivery — runs the `skyferry-core` decision engine
//! and emits the corresponding command: `Transmit` in place, or
//! `GotoThenTransmit` at the optimal rendezvous distance along the line
//! towards the receiver.

use std::collections::BTreeMap;

use skyferry_core::decision::{DecisionEngine, TransferDecision};
use skyferry_sim::time::SimTime;
use skyferry_uav::platform::PlatformSpec;
use skyferry_units::{Bytes, Meters};

use crate::message::{Command, Telemetry, UavId};

/// Last-known state of one fleet member.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetEntry {
    /// Latest telemetry.
    pub telemetry: Telemetry,
    /// When it was received.
    pub heard_at: SimTime,
}

/// A batch-delivery order issued by the planner.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedTransfer {
    /// The carrier UAV being commanded.
    pub carrier: UavId,
    /// The command to uplink.
    pub command: Command,
    /// The decision that produced it (for logging/experiments).
    pub decision: TransferDecision,
}

/// Minimum batch size worth a delivery decision, bytes.
const MIN_BATCH_BYTES: u64 = 100_000;

/// The central planner.
#[derive(Debug, Clone)]
pub struct CentralPlanner {
    engine: DecisionEngine,
    platform: PlatformSpec,
    fleet: BTreeMap<UavId, FleetEntry>,
    /// Telemetry older than this is considered stale, seconds.
    pub staleness_limit_s: f64,
}

impl CentralPlanner {
    /// A planner for a homogeneous fleet of `platform` UAVs using the
    /// given decision engine.
    pub fn new(engine: DecisionEngine, platform: PlatformSpec) -> Self {
        CentralPlanner {
            engine,
            platform,
            fleet: BTreeMap::new(),
            staleness_limit_s: 10.0,
        }
    }

    /// Ingest one telemetry report.
    pub fn ingest(&mut self, now: SimTime, telemetry: Telemetry) {
        self.fleet.insert(
            telemetry.uav,
            FleetEntry {
                telemetry,
                heard_at: now,
            },
        );
    }

    /// Last-known entry for a UAV.
    pub fn entry(&self, uav: UavId) -> Option<&FleetEntry> {
        self.fleet.get(&uav)
    }

    /// Planner-side distance between two tracked UAVs, if both are known.
    pub fn distance_between(&self, a: UavId, b: UavId) -> Option<f64> {
        let pa = self.fleet.get(&a)?.telemetry.position;
        let pb = self.fleet.get(&b)?.telemetry.position;
        Some(pa.distance(pb))
    }

    fn is_fresh(&self, now: SimTime, e: &FleetEntry) -> bool {
        now.saturating_since(e.heard_at).as_secs_f64() <= self.staleness_limit_s
    }

    /// Evaluate the fleet and issue a delivery order for `carrier`
    /// towards `receiver`, if the carrier has data and both are fresh.
    ///
    /// The failure rate fed to the decision engine is derived from the
    /// carrier's reported battery: the inverse of the distance still
    /// flyable (the Section 4 derivation applied live).
    pub fn plan_transfer(
        &self,
        now: SimTime,
        carrier: UavId,
        receiver: UavId,
    ) -> Option<PlannedTransfer> {
        let c = self.fleet.get(&carrier)?;
        let r = self.fleet.get(&receiver)?;
        if !self.is_fresh(now, c) || !self.is_fresh(now, r) {
            return None;
        }
        if c.telemetry.data_ready_bytes < MIN_BATCH_BYTES {
            return None;
        }
        let d0 = c.telemetry.position.distance(r.telemetry.position);
        let remaining_range =
            self.platform.range_on_battery().get() * c.telemetry.battery_fraction.clamp(0.01, 1.0);
        let rho = 1.0 / remaining_range;

        let (mut decision, _) = self.engine.decide(
            Meters::new(d0),
            Bytes::new(c.telemetry.data_ready_bytes as f64),
            rho,
        );

        // Feasibility: never command a reposition the battery cannot
        // cover with a 30 % reserve — deliver from where the carrier is
        // rather than strand the data in a dead airframe.
        if let TransferDecision::MoveThenTransmit {
            target_d_m,
            expected_tx_s,
            ..
        } = decision
        {
            let leg = (d0 - target_d_m).max(0.0);
            if leg > remaining_range * 0.7 {
                decision = TransferDecision::TransmitNow { expected_tx_s };
            }
        }

        let command = match decision {
            TransferDecision::TransmitNow { .. } => Command::Transmit { peer: receiver },
            TransferDecision::MoveThenTransmit { target_d_m, .. } => {
                // Rendezvous point: on the carrier→receiver line,
                // `target_d_m` short of the receiver, at the carrier's
                // current altitude.
                let from = c.telemetry.position;
                let to = r.telemetry.position;
                let dir = (to - from).normalized()?;
                let target = to - dir * target_d_m;
                Command::GotoThenTransmit {
                    target: target.with_altitude(from.z),
                    peer: receiver,
                }
            }
        };
        Some(PlannedTransfer {
            carrier,
            command,
            decision,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyferry_core::scenario::Scenario;
    use skyferry_geo::vector::Vec3;

    fn planner() -> CentralPlanner {
        CentralPlanner::new(
            DecisionEngine::from_scenario(Scenario::quadrocopter_baseline()),
            PlatformSpec::quadrocopter(),
        )
    }

    fn telem(id: u16, pos: Vec3, ready: u64) -> Telemetry {
        Telemetry {
            uav: UavId(id),
            position: pos,
            speed_mps: 0.0,
            battery_fraction: 0.75,
            data_ready_bytes: ready,
        }
    }

    #[test]
    fn tracks_fleet_state() {
        let mut p = planner();
        let now = SimTime::ZERO;
        p.ingest(now, telem(1, Vec3::new(0.0, 0.0, 10.0), 0));
        p.ingest(now, telem(2, Vec3::new(100.0, 0.0, 10.0), 0));
        assert_eq!(p.fleet.len(), 2);
        assert_eq!(p.distance_between(UavId(1), UavId(2)), Some(100.0));
        assert!(p.distance_between(UavId(1), UavId(9)).is_none());
    }

    #[test]
    fn big_batch_far_away_gets_goto_then_transmit() {
        let mut p = planner();
        let now = SimTime::from_secs(1);
        p.ingest(now, telem(1, Vec3::new(0.0, 0.0, 10.0), 56_200_000));
        p.ingest(now, telem(2, Vec3::new(100.0, 0.0, 10.0), 0));
        let order = p.plan_transfer(now, UavId(1), UavId(2)).unwrap();
        match order.command {
            Command::GotoThenTransmit { target, peer } => {
                assert_eq!(peer, UavId(2));
                // Rendezvous on the line towards the receiver, short of it.
                assert!(target.x > 0.0 && target.x < 100.0, "target={target:?}");
                assert_eq!(target.z, 10.0);
                // Separation from the receiver ≈ the optimal distance.
                let sep = target
                    .with_altitude(10.0)
                    .distance(Vec3::new(100.0, 0.0, 10.0));
                match order.decision {
                    TransferDecision::MoveThenTransmit { target_d_m, .. } => {
                        assert!((sep - target_d_m).abs() < 1e-6)
                    }
                    other => panic!("decision changed: {other:?}"),
                }
            }
            other => panic!("expected GotoThenTransmit, got {other:?}"),
        }
    }

    #[test]
    fn tiny_batch_transmits_in_place() {
        let mut p = planner();
        let now = SimTime::from_secs(1);
        p.ingest(now, telem(1, Vec3::new(0.0, 0.0, 10.0), 150_000));
        p.ingest(now, telem(2, Vec3::new(60.0, 0.0, 10.0), 0));
        let order = p.plan_transfer(now, UavId(1), UavId(2)).unwrap();
        assert!(matches!(order.command, Command::Transmit { .. }));
    }

    #[test]
    fn no_data_no_order() {
        let mut p = planner();
        let now = SimTime::from_secs(1);
        p.ingest(now, telem(1, Vec3::new(0.0, 0.0, 10.0), 10));
        p.ingest(now, telem(2, Vec3::new(60.0, 0.0, 10.0), 0));
        assert!(p.plan_transfer(now, UavId(1), UavId(2)).is_none());
    }

    #[test]
    fn stale_telemetry_blocks_planning() {
        let mut p = planner();
        p.ingest(
            SimTime::ZERO,
            telem(1, Vec3::new(0.0, 0.0, 10.0), 56_200_000),
        );
        p.ingest(SimTime::ZERO, telem(2, Vec3::new(100.0, 0.0, 10.0), 0));
        let later = SimTime::from_secs(60);
        assert!(p.plan_transfer(later, UavId(1), UavId(2)).is_none());
    }

    #[test]
    fn infeasible_reposition_degrades_to_transmit_in_place() {
        // A carrier whose battery covers only a fraction of the leg gets
        // a Transmit order, not a suicide mission.
        let mut p = planner();
        let now = SimTime::from_secs(1);
        let mut t = telem(1, Vec3::new(0.0, 0.0, 10.0), 56_200_000);
        // range_on_battery = 5400 m; fraction 0.01 → 54 m of range.
        // The carrier meets the relay at 119 m, where the link is nearly
        // dead — the raw optimizer accepts a ~99 m leg with survival
        // ≈ 0.16 because transmitting in place takes ~900 s. The
        // feasibility check must refuse (99 m > 70 % of 54 m).
        t.battery_fraction = 0.01;
        p.ingest(now, t);
        p.ingest(now, telem(2, Vec3::new(119.0, 0.0, 10.0), 0));
        let order = p.plan_transfer(now, UavId(1), UavId(2)).unwrap();
        assert!(
            matches!(order.command, Command::Transmit { .. }),
            "{order:?}"
        );
    }

    #[test]
    fn low_battery_pulls_decision_towards_transmit_now() {
        // Same geometry/batch; a nearly-dead battery (high effective ρ)
        // must not command a longer reposition than a full one.
        let reposition_length = |battery: f64| {
            let mut p = planner();
            let now = SimTime::from_secs(1);
            let mut t = telem(1, Vec3::new(0.0, 0.0, 10.0), 56_200_000);
            t.battery_fraction = battery;
            p.ingest(now, t);
            p.ingest(now, telem(2, Vec3::new(100.0, 0.0, 10.0), 0));
            match p.plan_transfer(now, UavId(1), UavId(2)).unwrap().command {
                Command::GotoThenTransmit { target, .. } => target.x,
                Command::Transmit { .. } => 0.0,
                Command::Goto { .. } => panic!("unexpected bare goto"),
            }
        };
        assert!(reposition_length(0.02) <= reposition_length(1.0));
    }
}
