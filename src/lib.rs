//! # skyferry
//!
//! A production-quality reproduction of *"Now or Later? — Delaying Data
//! Transfer in Time-Critical Aerial Communication"* (Asadpour, Giustiniano,
//! Hummel, Heimlicher, Egli — CoNEXT 2013).
//!
//! Small unmanned aerial vehicles (UAVs) in search-and-rescue missions must
//! deliver large batches of image data over an unreliable 802.11n aerial
//! channel. Because UAV mobility is *controllable*, a UAV that comes into
//! radio range at distance `d0` can choose to fly closer before
//! transmitting. The paper models this choice as a **delayed gratification**
//! problem: the utility of transmitting at distance `d` is
//!
//! ```text
//! U(d) = exp(-rho * (d0 - d)) / Cdelay(d)
//! Cdelay(d) = (d0 - d) / v  +  Mdata / s(d)
//! ```
//!
//! where `rho` is the failure rate per metre flown, `v` the cruise speed,
//! `Mdata` the batch size and `s(d)` the (empirically fitted) throughput at
//! distance `d`. The optimal rendezvous distance `dopt` maximises `U`.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`sim`] | `skyferry-sim` | deterministic discrete-event engine |
//! | [`stats`] | `skyferry-stats` | quantiles, boxplots, regression fits |
//! | [`geo`] | `skyferry-geo` | geodesy, waypoints, camera geometry |
//! | [`phy`] | `skyferry-phy` | 802.11n PHY, aerial channel models |
//! | [`mac`] | `skyferry-mac` | A-MPDU/block-ACK MAC, rate control |
//! | [`net`] | `skyferry-net` | traffic generation, throughput metering |
//! | [`uav`] | `skyferry-uav` | platforms, autopilot, failure processes |
//! | [`control`] | `skyferry-control` | telemetry channel, central planner |
//! | [`core`] | `skyferry-core` | the delayed-gratification model itself |
//! | [`serve`] | `skyferry-serve` | `skyferryd` decision server + load generator |
//! | [`fleet`] | `skyferry-fleet` | multi-UAV rendezvous planning + shared medium |
//! | [`traj`] | `skyferry-traj` | d* generalised to a 2-D path: wind + battery DP |
//!
//! ## Quickstart
//!
//! ```
//! use skyferry::core::prelude::*;
//!
//! // The paper's quadrocopter baseline scenario (Section 4), with a
//! // moderate 10 MB batch: the optimum is strictly interior — flying
//! // somewhat closer pays off, closing to the 20 m safety minimum
//! // does not.
//! let scenario = Scenario::quadrocopter_baseline().with_mdata_mb(10.0);
//! let outcome = optimize(scenario);
//! assert!(outcome.d_opt > scenario.d_min_m && outcome.d_opt < scenario.d0_m);
//!
//! // The full 56.2 MB baseline batch pulls the rendezvous all the way
//! // to the 20 m constraint.
//! let outcome = optimize(Scenario::quadrocopter_baseline());
//! assert!((outcome.d_opt - 20.0).abs() < 0.5);
//! ```

#![forbid(unsafe_code)]

pub use skyferry_control as control;
pub use skyferry_core as core;
pub use skyferry_fleet as fleet;
pub use skyferry_geo as geo;
pub use skyferry_mac as mac;
pub use skyferry_net as net;
pub use skyferry_phy as phy;
pub use skyferry_serve as serve;
pub use skyferry_sim as sim;
pub use skyferry_stats as stats;
pub use skyferry_trace as trace;
pub use skyferry_traj as traj;
pub use skyferry_uav as uav;
pub use skyferry_units as units;
