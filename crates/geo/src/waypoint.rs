//! Waypoints and flight plans.
//!
//! The paper's UAVs "navigate through waypoints" set by a central planner
//! (Section 3). A [`Waypoint`] is a target position with an optional speed
//! and hold time; a [`FlightPlan`] is an ordered sequence of waypoints the
//! `skyferry-uav` autopilot consumes, optionally cycling (the airplanes fly
//! "between two far waypoints" back and forth).

use crate::vector::Vec3;

/// One navigation target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Waypoint {
    /// Target position in the mission ENU frame.
    pub position: Vec3,
    /// Commanded speed towards this waypoint (m/s); `None` = platform
    /// cruise speed.
    pub speed_mps: Option<f64>,
    /// Time to hold (hover/loiter) at the waypoint before proceeding, s.
    pub hold_s: f64,
    /// Arrival is declared within this radius, metres.
    pub acceptance_radius_m: f64,
}

impl Waypoint {
    /// A plain fly-to waypoint with default acceptance radius (5 m).
    pub fn new(position: Vec3) -> Self {
        Waypoint {
            position,
            speed_mps: None,
            hold_s: 0.0,
            acceptance_radius_m: 5.0,
        }
    }

    /// Set the commanded speed.
    pub fn with_speed(mut self, speed_mps: f64) -> Self {
        assert!(speed_mps > 0.0, "speed must be positive");
        self.speed_mps = Some(speed_mps);
        self
    }

    /// Set the acceptance radius.
    pub fn with_acceptance_radius(mut self, r_m: f64) -> Self {
        assert!(r_m > 0.0, "acceptance radius must be positive");
        self.acceptance_radius_m = r_m;
        self
    }
}

/// An ordered sequence of waypoints, optionally cycled.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlightPlan {
    waypoints: Vec<Waypoint>,
    /// When `true`, after the last waypoint the plan restarts at the first
    /// (the paper's airplanes shuttle between two waypoints indefinitely).
    pub cyclic: bool,
}

impl FlightPlan {
    /// An empty, non-cyclic plan.
    pub fn new() -> Self {
        FlightPlan::default()
    }

    /// A plan visiting `waypoints` once, in order.
    pub fn once(waypoints: Vec<Waypoint>) -> Self {
        FlightPlan {
            waypoints,
            cyclic: false,
        }
    }

    /// A plan cycling through `waypoints` forever.
    pub fn cycle(waypoints: Vec<Waypoint>) -> Self {
        FlightPlan {
            waypoints,
            cyclic: true,
        }
    }

    /// Append a waypoint.
    pub fn push(&mut self, wp: Waypoint) {
        self.waypoints.push(wp);
    }

    /// The waypoints in order.
    pub fn waypoints(&self) -> &[Waypoint] {
        &self.waypoints
    }

    /// Number of waypoints.
    pub fn len(&self) -> usize {
        self.waypoints.len()
    }

    /// `true` if the plan has no waypoints.
    pub fn is_empty(&self) -> bool {
        self.waypoints.is_empty()
    }

    /// The waypoint after `index`, honouring cycling. `None` at the end of
    /// a non-cyclic plan or if the plan is empty.
    pub fn next_index(&self, index: usize) -> Option<usize> {
        if self.waypoints.is_empty() {
            return None;
        }
        let next = index + 1;
        if next < self.waypoints.len() {
            Some(next)
        } else if self.cyclic {
            Some(0)
        } else {
            None
        }
    }

    /// Total path length flying the waypoints in order once, metres.
    pub fn path_length_m(&self) -> f64 {
        self.waypoints
            .windows(2)
            .map(|w| w[0].position.distance(w[1].position))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wp(x: f64, y: f64) -> Waypoint {
        Waypoint::new(Vec3::new(x, y, 50.0))
    }

    #[test]
    fn builder_sets_fields() {
        let w = wp(1.0, 2.0).with_speed(8.0).with_acceptance_radius(2.0);
        assert_eq!(w.speed_mps, Some(8.0));
        assert_eq!(w.acceptance_radius_m, 2.0);
    }

    #[test]
    fn once_plan_terminates() {
        let p = FlightPlan::once(vec![wp(0.0, 0.0), wp(100.0, 0.0)]);
        assert_eq!(p.next_index(0), Some(1));
        assert_eq!(p.next_index(1), None);
    }

    #[test]
    fn cyclic_plan_wraps() {
        let p = FlightPlan::cycle(vec![wp(0.0, 0.0), wp(100.0, 0.0)]);
        assert_eq!(p.next_index(1), Some(0));
    }

    #[test]
    fn empty_plan_has_no_next() {
        let p = FlightPlan::new();
        assert!(p.is_empty());
        assert_eq!(p.next_index(0), None);
    }

    #[test]
    fn path_length_sums_segments() {
        let p = FlightPlan::once(vec![wp(0.0, 0.0), wp(300.0, 0.0), wp(300.0, 400.0)]);
        assert!((p.path_length_m() - 700.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn nonpositive_speed_rejected() {
        let _ = wp(0.0, 0.0).with_speed(0.0);
    }
}
