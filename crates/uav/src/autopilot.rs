//! Waypoint autopilot.
//!
//! Sequencing logic over [`crate::kinematics`]: fly the active flight
//! plan, declare arrival inside each waypoint's acceptance radius, hold
//! position where commanded. Quadrocopters hold by hovering; airplanes
//! hold by loitering on a circle of the platform's minimum turn radius
//! around the waypoint — exactly the paper's "airplanes normally cannot
//! hover and have to circle around a waypoint … with a radius of at least
//! 20 m".

use skyferry_geo::vector::Vec3;
use skyferry_geo::waypoint::FlightPlan;

use crate::kinematics::{UavKinematics, VelocityCommand};
use crate::platform::PlatformKind;

/// What the autopilot is currently doing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AutopilotMode {
    /// No plan; hold the current position (hover or loiter in place).
    Hold,
    /// En route to waypoint `index` of the plan.
    Enroute {
        /// Index into the flight plan.
        index: usize,
    },
    /// Holding at waypoint `index` until `remaining_s` elapses.
    Holding {
        /// Index into the flight plan.
        index: usize,
        /// Seconds of hold left.
        remaining_s: f64,
    },
    /// Plan complete; holding at the final waypoint.
    Done,
}

/// The waypoint-following controller of one UAV.
#[derive(Debug, Clone)]
pub struct Autopilot {
    plan: FlightPlan,
    mode: AutopilotMode,
    /// Accumulated loiter phase for fixed-wing holds, radians.
    loiter_phase: f64,
}

impl Autopilot {
    /// An idle autopilot (holds position).
    pub fn idle() -> Self {
        Autopilot {
            plan: FlightPlan::new(),
            mode: AutopilotMode::Hold,
            loiter_phase: 0.0,
        }
    }

    /// Start flying `plan` from its first waypoint.
    pub fn with_plan(plan: FlightPlan) -> Self {
        let mode = if plan.is_empty() {
            AutopilotMode::Hold
        } else {
            AutopilotMode::Enroute { index: 0 }
        };
        Autopilot {
            plan,
            mode,
            loiter_phase: 0.0,
        }
    }

    /// Replace the plan mid-flight (a new command from the planner).
    pub fn set_plan(&mut self, plan: FlightPlan) {
        self.plan = plan;
        self.mode = if self.plan.is_empty() {
            AutopilotMode::Hold
        } else {
            AutopilotMode::Enroute { index: 0 }
        };
    }

    /// Current mode.
    pub fn mode(&self) -> AutopilotMode {
        self.mode
    }

    /// `true` once the plan has been fully flown.
    pub fn is_done(&self) -> bool {
        matches!(self.mode, AutopilotMode::Done)
    }

    /// Compute the next velocity command and advance sequencing state.
    /// `dt` is the control period in seconds.
    pub fn update(&mut self, kin: &UavKinematics, dt: f64) -> VelocityCommand {
        match self.mode {
            AutopilotMode::Hold | AutopilotMode::Done => self.hold_command(kin, kin.position, dt),
            AutopilotMode::Enroute { index } => {
                let wp = self.plan.waypoints()[index];
                let arrival_radius = match kin.spec.kind {
                    PlatformKind::Quadrocopter => wp.acceptance_radius_m,
                    // A fixed-wing "arrives" once inside its loiter circle.
                    PlatformKind::Airplane => {
                        wp.acceptance_radius_m.max(kin.spec.min_turn_radius_m)
                    }
                };
                if kin.position.distance(wp.position) <= arrival_radius {
                    self.mode = if wp.hold_s > 0.0 {
                        AutopilotMode::Holding {
                            index,
                            remaining_s: wp.hold_s,
                        }
                    } else {
                        self.advance(index)
                    };
                    return self.update(kin, dt);
                }
                let to_target = wp.position - kin.position;
                let speed = wp.speed_mps.unwrap_or(kin.spec.cruise_speed_mps);
                let dir = to_target.normalized().expect("outside arrival radius");
                VelocityCommand {
                    velocity: dir * speed,
                }
            }
            AutopilotMode::Holding { index, remaining_s } => {
                let wp = self.plan.waypoints()[index];
                let left = remaining_s - dt;
                self.mode = if left <= 0.0 {
                    self.advance(index)
                } else {
                    AutopilotMode::Holding {
                        index,
                        remaining_s: left,
                    }
                };
                self.hold_command(kin, wp.position, dt)
            }
        }
    }

    fn advance(&mut self, index: usize) -> AutopilotMode {
        match self.plan.next_index(index) {
            Some(next) => AutopilotMode::Enroute { index: next },
            None => AutopilotMode::Done,
        }
    }

    /// Hold near `center`: hover (rotorcraft) or loiter (fixed-wing).
    fn hold_command(&mut self, kin: &UavKinematics, center: Vec3, dt: f64) -> VelocityCommand {
        match kin.spec.kind {
            PlatformKind::Quadrocopter => {
                // Proportional position hold.
                let error = center - kin.position;
                VelocityCommand {
                    velocity: error * 0.8,
                }
            }
            PlatformKind::Airplane => {
                // Fly a circle of min turn radius around the center: aim
                // at a point ahead on the circle.
                let r = kin.spec.min_turn_radius_m;
                let omega = kin.spec.cruise_speed_mps / r;
                self.loiter_phase += omega * dt;
                let phase = self.loiter_phase;
                let target = center + Vec3::new(r * phase.cos(), r * phase.sin(), 0.0);
                let to_target = (target - kin.position).with_altitude(0.0);
                let dir = to_target.normalized().unwrap_or(Vec3::new(1.0, 0.0, 0.0));
                let vz = (center.z - kin.position.z).clamp(-1.0, 1.0);
                VelocityCommand {
                    velocity: Vec3::new(
                        dir.x * kin.spec.cruise_speed_mps,
                        dir.y * kin.spec.cruise_speed_mps,
                        vz,
                    ),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformSpec;
    use skyferry_geo::waypoint::Waypoint;

    const DT: f64 = 0.1;

    fn fly(kin: &mut UavKinematics, ap: &mut Autopilot, seconds: f64) {
        let steps = (seconds / DT).round() as usize;
        for _ in 0..steps {
            let cmd = ap.update(kin, DT);
            kin.step(cmd, DT);
        }
    }

    #[test]
    fn quad_reaches_single_waypoint() {
        let mut kin = UavKinematics::at(PlatformSpec::quadrocopter(), Vec3::new(0.0, 0.0, 10.0));
        let target = Vec3::new(60.0, 0.0, 10.0);
        let mut ap = Autopilot::with_plan(FlightPlan::once(vec![Waypoint::new(target)]));
        fly(&mut kin, &mut ap, 30.0);
        assert!(ap.is_done());
        assert!(kin.position.distance(target) < 6.0);
    }

    #[test]
    fn quad_travel_time_matches_cruise_speed() {
        let mut kin = UavKinematics::at(PlatformSpec::quadrocopter(), Vec3::new(0.0, 0.0, 10.0));
        let target = Vec3::new(45.0, 0.0, 10.0);
        let mut ap = Autopilot::with_plan(FlightPlan::once(vec![Waypoint::new(target)]));
        let mut t = 0.0;
        while !ap.is_done() && t < 60.0 {
            let cmd = ap.update(&kin, DT);
            kin.step(cmd, DT);
            t += DT;
        }
        // 45 m at 4.5 m/s = 10 s (+ acceleration and acceptance radius).
        assert!((8.0..14.0).contains(&t), "t={t}");
    }

    #[test]
    fn quad_holds_then_continues() {
        let mut kin = UavKinematics::at(PlatformSpec::quadrocopter(), Vec3::new(0.0, 0.0, 10.0));
        let wp1 = Waypoint {
            hold_s: 5.0,
            ..Waypoint::new(Vec3::new(20.0, 0.0, 10.0))
        };
        let wp2 = Waypoint::new(Vec3::new(40.0, 0.0, 10.0));
        let mut ap = Autopilot::with_plan(FlightPlan::once(vec![wp1, wp2]));
        fly(&mut kin, &mut ap, 6.0);
        assert!(
            matches!(ap.mode(), AutopilotMode::Holding { index: 0, .. }),
            "mode={:?}",
            ap.mode()
        );
        fly(&mut kin, &mut ap, 30.0);
        assert!(ap.is_done());
    }

    #[test]
    fn cyclic_plan_never_finishes() {
        let mut kin = UavKinematics::at(PlatformSpec::airplane(), Vec3::new(0.0, 0.0, 80.0));
        let a = Waypoint::new(Vec3::new(0.0, 0.0, 80.0)).with_acceptance_radius(25.0);
        let b = Waypoint::new(Vec3::new(300.0, 0.0, 80.0)).with_acceptance_radius(25.0);
        let mut ap = Autopilot::with_plan(FlightPlan::cycle(vec![a, b]));
        fly(&mut kin, &mut ap, 300.0);
        assert!(!ap.is_done());
    }

    #[test]
    fn airplane_loiters_near_waypoint() {
        let mut kin = UavKinematics::at(PlatformSpec::airplane(), Vec3::new(100.0, 0.0, 80.0));
        let center = Vec3::new(0.0, 0.0, 80.0);
        let mut ap = Autopilot::with_plan(FlightPlan::once(vec![Waypoint::new(center)]));
        fly(&mut kin, &mut ap, 120.0);
        assert!(ap.is_done());
        // Must keep moving (no hover) but stay near the loiter circle.
        assert!(kin.ground_speed().get() > 9.0);
        let dist = kin.position.horizontal_distance(center);
        assert!(dist < 60.0, "dist={dist}");
    }

    #[test]
    fn hold_mode_keeps_quad_in_place() {
        let start = Vec3::new(5.0, 5.0, 10.0);
        let mut kin = UavKinematics::at(PlatformSpec::quadrocopter(), start);
        let mut ap = Autopilot::idle();
        fly(&mut kin, &mut ap, 20.0);
        assert!(kin.position.distance(start) < 1.0);
    }

    #[test]
    fn set_plan_preempts() {
        let mut kin = UavKinematics::at(PlatformSpec::quadrocopter(), Vec3::new(0.0, 0.0, 10.0));
        let mut ap = Autopilot::with_plan(FlightPlan::once(vec![Waypoint::new(Vec3::new(
            100.0, 0.0, 10.0,
        ))]));
        fly(&mut kin, &mut ap, 5.0);
        ap.set_plan(FlightPlan::once(vec![Waypoint::new(Vec3::new(
            0.0, 50.0, 10.0,
        ))]));
        fly(&mut kin, &mut ap, 40.0);
        assert!(ap.is_done());
        assert!(kin.position.distance(Vec3::new(0.0, 50.0, 10.0)) < 6.0);
    }
}
