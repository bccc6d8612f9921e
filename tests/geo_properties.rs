//! Randomised property tests of the geometry layer, on a
//! fixed-seed [`DetRng`] loop (256 cases per property, matching the old
//! proptest configuration).

use skyferry::geo::camera::CameraModel;
use skyferry::geo::sector::Sector;
use skyferry::geo::vector::Vec3;
use skyferry::sim::rng::DetRng;

const CASES: usize = 256;

fn rng(salt: u64) -> DetRng {
    DetRng::seed(0x6E0 ^ salt)
}

fn arb_vec3(rng: &mut DetRng) -> Vec3 {
    Vec3::new(
        rng.uniform_range(-2_000.0, 2_000.0),
        rng.uniform_range(-2_000.0, 2_000.0),
        rng.uniform_range(0.0, 300.0),
    )
}

#[test]
fn vector_norm_properties() {
    let mut rng = rng(6);
    for _ in 0..CASES {
        let a = arb_vec3(&mut rng);
        let b = arb_vec3(&mut rng);
        let s = rng.uniform_range(-10.0, 10.0);
        assert!(a.norm() >= 0.0);
        assert!(((a * s).norm() - a.norm() * s.abs()).abs() < 1e-6);
        assert!((a + b).norm() <= a.norm() + b.norm() + 1e-9);
        assert!((a.norm_squared() - a.norm() * a.norm()).abs() < 1e-6);
        // Cross product orthogonality.
        let c = a.cross(b);
        assert!(c.dot(a).abs() < 1e-4 * (1.0 + c.norm() * a.norm()));
        assert!(c.dot(b).abs() < 1e-4 * (1.0 + c.norm() * b.norm()));
    }
}

#[test]
fn camera_mdata_scales() {
    let mut rng = rng(7);
    for _ in 0..CASES {
        let alt = rng.uniform_range(5.0, 150.0);
        let side = rng.uniform_range(50.0, 1_000.0);
        let cam = CameraModel::paper_default();
        let area = side * side;
        let mdata = cam.mdata_bytes(area, alt);
        assert!(mdata > 0.0);
        // Doubling the sector doubles the data.
        assert!((cam.mdata_bytes(2.0 * area, alt) / mdata - 2.0).abs() < 1e-9);
        // Footprint diagonal equals FOV.
        let fp = cam.footprint(alt);
        let diag = (fp.width_m.powi(2) + fp.height_m.powi(2)).sqrt();
        assert!((diag - cam.fov_m(alt)).abs() < 1e-6);
    }
}

#[test]
fn sector_grid_partitions() {
    let mut rng = rng(8);
    for _ in 0..CASES {
        let nx = 1 + rng.index(4);
        let ny = 1 + rng.index(4);
        let side = rng.uniform_range(50.0, 500.0);
        let s = Sector::new(Vec3::ZERO, side, side);
        let cells = s.grid(nx, ny);
        assert_eq!(cells.len(), nx * ny);
        let total: f64 = cells.iter().map(|c| c.area_m2()).sum();
        assert!((total - s.area_m2()).abs() < 1e-6);
        for c in &cells {
            assert!(s.contains_ground(c.corner));
        }
    }
}

#[test]
fn lawnmower_stays_inside_and_covers() {
    let mut rng = rng(9);
    for _ in 0..CASES {
        let side = rng.uniform_range(30.0, 300.0);
        let alt = rng.uniform_range(5.0, 50.0);
        let s = Sector::new(Vec3::ZERO, side, side);
        let cam = CameraModel::paper_default();
        let plan = s.lawnmower_plan(&cam, alt);
        assert!(!plan.is_empty());
        for wp in plan.waypoints() {
            assert!(s.contains_ground(wp.position));
            assert!((wp.position.z - alt).abs() < 1e-9);
        }
        // Track spacing ≤ footprint height guarantees coverage.
        let fp = cam.footprint(alt);
        let strips = plan.len() / 2;
        assert!(side / strips as f64 <= fp.height_m + 1e-9);
    }
}
