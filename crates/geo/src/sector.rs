//! Sectors of the supervised area and lawnmower scan plans.
//!
//! "We divide the area of interest into sectors of size `Asector`, where
//! one UAV is exclusively responsible to sense and gather data"
//! (Section 2.2). A [`Sector`] is an axis-aligned rectangle in the mission
//! ENU frame; [`Sector::lawnmower_plan`] produces the boustrophedon
//! waypoint sequence that photographs it with a given camera footprint.

use crate::camera::CameraModel;
use crate::vector::Vec3;
use crate::waypoint::{FlightPlan, Waypoint};

/// An axis-aligned rectangular sector of the supervised area.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sector {
    /// South-west (min-x, min-y) corner in the mission ENU frame.
    pub corner: Vec3,
    /// East-west extent, metres.
    pub width_m: f64,
    /// North-south extent, metres.
    pub height_m: f64,
}

impl Sector {
    /// Create a sector; extents must be positive.
    pub fn new(corner: Vec3, width_m: f64, height_m: f64) -> Self {
        assert!(width_m > 0.0 && height_m > 0.0, "sector extents positive");
        Sector {
            corner,
            width_m,
            height_m,
        }
    }

    /// The paper's quadrocopter sector: 100 m × 100 m (`Asector = 0.01 km²`).
    pub fn paper_quadrocopter() -> Self {
        Sector::new(Vec3::ZERO, 100.0, 100.0)
    }

    /// Area in m².
    pub fn area_m2(&self) -> f64 {
        self.width_m * self.height_m
    }

    /// Centre point at the given altitude.
    pub fn center(&self, altitude_m: f64) -> Vec3 {
        self.corner
            + Vec3::new(self.width_m / 2.0, self.height_m / 2.0, 0.0)
            + Vec3::new(0.0, 0.0, altitude_m - self.corner.z)
    }

    /// `true` if the ground projection of `p` lies inside the sector.
    // lint:allow-line(test-only-pub): oracle of tests/geo_properties.rs's sector_grid_partitions and lawnmower_stays_inside_and_covers
    pub fn contains_ground(&self, p: Vec3) -> bool {
        p.x >= self.corner.x
            && p.x <= self.corner.x + self.width_m
            && p.y >= self.corner.y
            && p.y <= self.corner.y + self.height_m
    }

    /// Split the sector into an `nx × ny` grid of equal sub-sectors, row by
    /// row from the south-west — one per UAV in a fleet mission.
    pub fn grid(&self, nx: usize, ny: usize) -> Vec<Sector> {
        assert!(nx > 0 && ny > 0);
        let w = self.width_m / nx as f64;
        let h = self.height_m / ny as f64;
        let mut out = Vec::with_capacity(nx * ny);
        for j in 0..ny {
            for i in 0..nx {
                out.push(Sector::new(
                    self.corner + Vec3::new(i as f64 * w, j as f64 * h, 0.0),
                    w,
                    h,
                ));
            }
        }
        out
    }

    /// Generate a boustrophedon ("lawnmower") scan plan at `altitude_m`
    /// whose track spacing equals the camera footprint height, so adjacent
    /// strips just tile the ground.
    ///
    /// Returns a non-cyclic plan; the number of photograph positions along
    /// each strip is `ceil(width / footprint width)`.
    pub fn lawnmower_plan(&self, camera: &CameraModel, altitude_m: f64) -> FlightPlan {
        let fp = camera.footprint(altitude_m);
        let spacing = fp.height_m;
        let n_strips = (self.height_m / spacing).ceil().max(1.0) as usize;
        let mut plan = FlightPlan::new();
        for s in 0..n_strips {
            let y = self.corner.y + (s as f64 + 0.5) * self.height_m / n_strips as f64;
            let (x0, x1) = if s % 2 == 0 {
                (self.corner.x, self.corner.x + self.width_m)
            } else {
                (self.corner.x + self.width_m, self.corner.x)
            };
            plan.push(Waypoint::new(Vec3::new(x0, y, altitude_m)));
            plan.push(Waypoint::new(Vec3::new(x1, y, altitude_m)));
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sector_areas() {
        assert_eq!(Sector::paper_quadrocopter().area_m2(), 10_000.0);
    }

    #[test]
    fn contains_ground_respects_bounds() {
        let s = Sector::new(Vec3::new(10.0, 10.0, 0.0), 100.0, 50.0);
        assert!(s.contains_ground(Vec3::new(10.0, 10.0, 99.0)));
        assert!(s.contains_ground(Vec3::new(110.0, 60.0, 0.0)));
        assert!(!s.contains_ground(Vec3::new(9.9, 10.0, 0.0)));
        assert!(!s.contains_ground(Vec3::new(50.0, 60.1, 0.0)));
    }

    #[test]
    fn grid_partitions_area() {
        let s = Sector::new(Vec3::ZERO, 500.0, 500.0);
        let cells = s.grid(2, 3);
        assert_eq!(cells.len(), 6);
        let total: f64 = cells.iter().map(|c| c.area_m2()).sum();
        assert!((total - s.area_m2()).abs() < 1e-9);
        // All cells inside the parent.
        for c in &cells {
            assert!(s.contains_ground(c.corner));
        }
    }

    #[test]
    fn center_at_altitude() {
        let s = Sector::new(Vec3::ZERO, 100.0, 100.0);
        let c = s.center(10.0);
        assert_eq!(c, Vec3::new(50.0, 50.0, 10.0));
    }

    #[test]
    fn lawnmower_covers_all_strips() {
        let s = Sector::paper_quadrocopter();
        let cam = CameraModel::paper_default();
        let plan = s.lawnmower_plan(&cam, 10.0);
        // footprint height ≈ 6.2 m → 100/6.2 → 17 strips → 34 waypoints.
        assert!(
            plan.len() >= 30 && plan.len() % 2 == 0,
            "len={}",
            plan.len()
        );
        // All waypoints at scan altitude and inside the sector bounds.
        for wp in plan.waypoints() {
            assert_eq!(wp.position.z, 10.0);
            assert!(s.contains_ground(wp.position));
        }
        // Alternating strip direction (boustrophedon).
        let w = plan.waypoints();
        assert_eq!(w[0].position.x, 0.0);
        assert_eq!(w[1].position.x, 100.0);
        assert_eq!(w[2].position.x, 100.0);
        assert_eq!(w[3].position.x, 0.0);
    }

    #[test]
    fn lawnmower_path_length_scales_with_area() {
        let cam = CameraModel::paper_default();
        let small = Sector::new(Vec3::ZERO, 50.0, 50.0)
            .lawnmower_plan(&cam, 10.0)
            .path_length_m();
        let large = Sector::new(Vec3::ZERO, 100.0, 100.0)
            .lawnmower_plan(&cam, 10.0)
            .path_length_m();
        assert!(large > 3.0 * small, "small={small}, large={large}");
    }
}
