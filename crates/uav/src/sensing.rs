//! The camera capture process.
//!
//! While a UAV flies its scan plan, the camera snaps a picture every time
//! the platform has advanced one footprint-width along track, accumulating
//! `Mdata = (Asector / Aimage) · Mimage` bytes over a full sector sweep
//! (Section 2.2). [`CameraProcess`] tracks that accumulation so missions
//! know how much data is waiting to be delivered.

use skyferry_geo::camera::CameraModel;
use skyferry_geo::vector::Vec3;
use skyferry_units::{Bytes, Meters};

/// Accumulates captured image data along a flight path.
#[derive(Debug, Clone)]
pub struct CameraProcess {
    model: CameraModel,
    /// Along-track distance between consecutive pictures, metres.
    trigger_distance_m: f64,
    distance_since_capture_m: f64,
    last_position: Option<Vec3>,
    images_captured: u64,
}

impl CameraProcess {
    /// A camera triggered every footprint-width of along-track travel at
    /// the given scan altitude.
    pub fn new(model: CameraModel, scan_altitude: Meters) -> Self {
        let fp = model.footprint(scan_altitude.get());
        CameraProcess {
            model,
            trigger_distance_m: fp.width_m,
            distance_since_capture_m: 0.0,
            last_position: None,
            images_captured: 0,
        }
    }

    /// The camera model.
    pub fn model(&self) -> &CameraModel {
        &self.model
    }

    /// Observe the UAV at a new position; captures any pictures due.
    /// Returns the number of pictures taken by this movement.
    pub fn observe(&mut self, position: Vec3) -> u64 {
        let moved = match self.last_position {
            Some(prev) => prev.horizontal_distance(position),
            None => {
                // First observation: take the initial picture.
                self.last_position = Some(position);
                self.images_captured += 1;
                return 1;
            }
        };
        self.last_position = Some(position);
        self.distance_since_capture_m += moved;
        let mut taken = 0;
        while self.distance_since_capture_m >= self.trigger_distance_m {
            self.distance_since_capture_m -= self.trigger_distance_m;
            self.images_captured += 1;
            taken += 1;
        }
        taken
    }

    /// Pictures captured so far.
    pub fn images_captured(&self) -> u64 {
        self.images_captured
    }

    /// Image data accumulated so far.
    pub fn data(&self) -> Bytes {
        Bytes::new(self.images_captured as f64 * self.model.image_size_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn camera_at_10m() -> CameraProcess {
        CameraProcess::new(CameraModel::paper_default(), Meters::new(10.0))
    }

    #[test]
    fn first_observation_captures() {
        let mut c = camera_at_10m();
        assert_eq!(c.observe(Vec3::new(0.0, 0.0, 10.0)), 1);
        assert_eq!(c.images_captured(), 1);
    }

    #[test]
    fn captures_every_footprint_width() {
        let mut c = camera_at_10m();
        let w = c.trigger_distance_m; // ≈ 11.1 m at 10 m altitude
        assert!((10.0..13.0).contains(&w), "w={w}");
        c.observe(Vec3::new(0.0, 0.0, 10.0));
        // Fly just past 10 widths in small steps: exactly 10 more
        // pictures (the epsilon absorbs accumulated float rounding).
        let steps = 1_000;
        let mut extra = 0;
        for i in 1..=steps {
            let x = (10.0 * w + 0.01) * i as f64 / steps as f64;
            extra += c.observe(Vec3::new(x, 0.0, 10.0));
        }
        assert_eq!(extra, 10);
        assert_eq!(c.images_captured(), 11);
    }

    #[test]
    fn altitude_never_counts_as_track() {
        let mut c = camera_at_10m();
        c.observe(Vec3::new(0.0, 0.0, 10.0));
        let extra = c.observe(Vec3::new(0.0, 0.0, 100.0));
        assert_eq!(extra, 0);
    }

    #[test]
    fn data_volume_scales_with_images() {
        let mut c = camera_at_10m();
        c.observe(Vec3::new(0.0, 0.0, 10.0));
        let w = c.trigger_distance_m;
        c.observe(Vec3::new(3.0 * w, 0.0, 10.0));
        assert_eq!(c.images_captured(), 4);
        assert!((c.data().get() - 4.0 * 0.39e6).abs() < 1.0);
    }

    #[test]
    fn full_sector_sweep_accumulates_paper_mdata() {
        // A 100 m × 100 m sector at 10 m altitude needs Asector/Aimage
        // ≈ 144 pictures ⇒ Mdata ≈ 56.2 MB (footnote 4). Flying the
        // boustrophedon plan captures a comparable count (grid-rounding
        // makes it approximate).
        use skyferry_geo::sector::Sector;
        let sector = Sector::paper_quadrocopter();
        let plan = sector.lawnmower_plan(&CameraModel::paper_default(), 10.0);
        let mut c = camera_at_10m();
        // Walk the plan in 1 m steps.
        let wps = plan.waypoints();
        for pair in wps.windows(2) {
            let (a, b) = (pair[0].position, pair[1].position);
            let n = a.distance(b).ceil() as usize;
            for i in 0..=n {
                c.observe(a + (b - a) * (i as f64 / n.max(1) as f64));
            }
        }
        let expect = CameraModel::paper_default().images_per_sector(10_000.0, 10.0);
        let got = c.images_captured() as f64;
        assert!(
            (got - expect).abs() / expect < 0.25,
            "got {got}, expected ≈{expect}"
        );
        let mdata_mb = c.data().get() / 1e6;
        assert!((40.0..75.0).contains(&mdata_mb), "Mdata={mdata_mb} MB");
    }
}
