//! # skyferry-traj
//!
//! Joint trajectory–energy optimization: the paper's d\* generalised
//! from a scalar transmit distance to a 2-D waypoint path. The paper's
//! UAV flies the straight encounter corridor and only chooses *where on
//! it* to transmit; this crate lets it also choose *how to get there* —
//! crabbing across a wind field, trading path length (hazard) and
//! flight time (delay, energy) against transmit-session cost — while
//! keeping the unmodified Eq. (2) utility as the objective.
//!
//! * [`grid`] — the distance × battery DP grid: concentric rings ×
//!   azimuth sectors × energy buckets, endpoints pinned bit-exactly;
//! * [`motion`] — the wind-triangle ground speed at fixed airspeed,
//!   with a bit-exact calm-air fast path;
//! * [`energy`] — per-leg energy accounting in typed [`Joules`]:
//!   flight power from the kinematics speed, transmit power from the
//!   phy airtime model plus the hold draw over `Ttx(d)`;
//! * [`planner`] — the DP itself: exact labels merged per battery
//!   bucket, every reached state valued by an Eq. (2) commit, final
//!   refinement through `core::optimizer`'s own search routine so the
//!   calm-air, ample-battery case reproduces the scalar d\*
//!   **bit-for-bit** (`tests/degenerate.rs` pins this across the
//!   policy quick grid);
//! * [`campaign`] — seeded wind-jitter replications on
//!   `sim::parallel`, bit-identical at any thread count;
//! * [`export`] — JSONL path export for `repro --export-traj`.
//!
//! [`Joules`]: skyferry_units::Joules

#![forbid(unsafe_code)]

pub mod campaign;
pub mod energy;
pub mod export;
pub mod grid;
pub mod motion;
pub mod planner;

pub use campaign::{battery_budget, TrajCampaign, TrajOutcome};
pub use energy::EnergyModel;
pub use export::{PathRecord, TrajTrace};
pub use grid::GridSpec;
pub use motion::ground_speed;
pub use planner::{plan, PlannedPath, TrajConfig, TrajSolution};
