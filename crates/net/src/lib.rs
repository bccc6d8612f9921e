//! # skyferry-net
//!
//! Traffic generation, throughput metering and campaign drivers — the
//! simulation equivalent of the paper's iperf-over-UDP measurement rig.
//!
//! * [`meter`] — a throughput meter with 1-second bins, producing the
//!   samples the paper's boxplots (Figures 5 and 7) are drawn from;
//! * [`transfer`] — cumulative delivered-bytes-vs-time tracking for batch
//!   transfers (the curves of Figure 1) including crossover analysis;
//! * [`profile`] — distance/speed profiles over time: static hover,
//!   linear approach, approach-then-hover (the three strategies compared
//!   in Figure 1);
//! * [`campaign`] — end-to-end measurement campaigns: run a link (PHY +
//!   MAC + rate control + host queue) against a profile for a while,
//!   collect meter samples, repeat across seeds; this is what the
//!   reproduction harness calls to regenerate Figures 5–7;
//! * [`relay`] — two-hop store-and-forward ferrying over one shared
//!   channel (the related-work configuration that halves throughput).

#![forbid(unsafe_code)]

pub mod campaign;
pub mod meter;
pub mod profile;
pub mod relay;
pub mod transfer;

pub use campaign::{CampaignConfig, ControllerKind};
pub use meter::ThroughputMeter;
pub use profile::MotionProfile;
pub use relay::{run_relayed_transfer, RelayGeometry, RelayOutcome};
pub use transfer::TransferRecord;
