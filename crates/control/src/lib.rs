//! # skyferry-control
//!
//! The low-rate control plane of the paper's testbed and the central
//! mission planner that uses it.
//!
//! "A control channel between the ground station and every UAV is
//! maintained, based on XBeePro 802.15.4 operating in the 2.4 GHz
//! frequency band. This channel provides low bandwidth (up to 250 kbps)
//! but long range (up to 1.5 km), and it is reserved for (i) light-weight
//! telemetry data … sent to the central planner … and (ii) new waypoints
//! from the planner to the UAVs." (Section 3.)
//!
//! * [`message`] — the telemetry wire format, with a byte-exact codec
//!   (so channel airtime is computed from real frame sizes), and the
//!   planner's command type;
//! * [`channel`] — the 250 kbit/s / 1.5 km shared channel model;
//! * [`planner`] — the central planner: ingests telemetry, runs the
//!   `skyferry-core` decision engine, and issues rendezvous waypoints;
//! * [`mission`] — the full multi-UAV mission simulator: autopilots,
//!   sensing, telemetry, planning and 802.11n transfers in one
//!   deterministic event loop.

#![forbid(unsafe_code)]

pub mod channel;
pub mod message;
pub mod mission;
pub mod planner;

pub use channel::ControlChannel;
pub use message::{Command, Telemetry, UavId};
pub use mission::{run_mission, MissionConfig, MissionReport};
pub use planner::CentralPlanner;
