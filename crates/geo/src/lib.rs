//! # skyferry-geo
//!
//! Geometry for aerial communication experiments.
//!
//! The paper needs three geometric ingredients, all implemented here:
//!
//! 1. **Distance from GPS fixes.** "…the distance is calculated applying
//!    the Haversine formula to GPS coordinates" (Section 3.1). The
//!    simulator draws its GPS fixes in a local East-North-Up (ENU) frame
//!    instead of latitude/longitude, so distance is the Euclidean
//!    [`Vec3::distance`] and no Haversine step is needed.
//! 2. **Waypoint navigation.** UAVs "navigate through waypoints"
//!    (Section 3); the [`waypoint`] module defines waypoints and flight
//!    plans the `skyferry-uav` autopilot consumes.
//! 3. **Camera footprint geometry.** Footnotes 1, 3 and 4 derive the data
//!    volume `Mdata` from the camera field of view (FOV), aspect ratio,
//!    altitude and sector area; the [`camera`] module reproduces those
//!    formulas exactly (e.g. FOV = 90 m at 70 m altitude with a 65° lens,
//!    `Aimage = 3432 m²`, `Mdata = 28 MB` for a 500 m × 500 m sector).
//!
//! Coordinates are `f64` metres in a local ENU frame.

#![forbid(unsafe_code)]

pub mod camera;
pub mod sector;
pub mod vector;
pub mod waypoint;

pub use camera::{CameraModel, ImageFootprint};
pub use sector::Sector;
pub use vector::Vec3;
pub use waypoint::{FlightPlan, Waypoint};
