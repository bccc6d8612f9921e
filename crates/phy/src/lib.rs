//! # skyferry-phy
//!
//! An 802.11n physical-layer abstraction and aerial channel model.
//!
//! The paper's testbed is a Ralink RT3572 USB adapter on a Gumstix: two
//! omni antennas, 5 GHz channel 40, 40 MHz channel bonding, 400 ns short
//! guard interval, MCS 0–15 with STBC (MCS 1–3) and spatial-division
//! multiplexing (MCS 8+). This crate models exactly that device class:
//!
//! * [`mcs`] — the 802.11n modulation-and-coding-scheme table, with data
//!   rates derived from first principles (subcarriers × bits/symbol ×
//!   coding rate / symbol time) rather than hard-coded;
//! * [`channel`] — link budget: TX power, antenna gains, log-distance path
//!   loss, thermal noise floor → mean SNR as a function of distance;
//! * [`fading`] — Rician block fading with a coherence time driven by the
//!   relative speed (Doppler), plus diversity combining for STBC and a
//!   stream-interference model for SDM in low-rank line-of-sight channels;
//! * [`error`] — SNR → BER per modulation (erfc-based), convolutional
//!   coding gain, and packet error rate for a given frame length;
//! * [`airtime`] — PPDU durations (HT-mixed preamble + OFDM symbols);
//! * [`presets`] — calibrated airplane/quadrocopter channel presets whose
//!   simulated median throughput matches the paper's published log-fits.
//!
//! The key empirical facts this layer must reproduce (Section 3 of the
//! paper): aerial 802.11n throughput is far below the indoor ≈176 Mb/s,
//! resembling 802.11g (≈20 Mb/s) at short range; it degrades roughly
//! linearly in `log2(distance)`; moving platforms see large variance; and
//! STBC beats SDM at short-to-mid range while the BPSK-based MCS8 wins at
//! the far edge.

#![forbid(unsafe_code)]

/// PPDU airtime: preamble + OFDM symbol arithmetic.
pub mod airtime;
/// Path loss and link-budget models for the aerial channel.
pub mod channel;
/// Packet error probability vs. SNR per MCS.
pub mod error;
/// Shadowing and small-scale fading processes.
pub mod fading;
/// 802.11n MCS table: rates, widths, guard intervals.
pub mod mcs;
/// Calibrated channel presets for the paper's platforms.
pub mod presets;

pub use channel::{LinkBudget, PathLossModel};
pub use fading::FadingProcess;
pub use mcs::{ChannelWidth, GuardInterval, Mcs, Modulation};
pub use presets::ChannelPreset;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::airtime::{ppdu_duration, SYMBOL_GI_LONG, SYMBOL_GI_SHORT};
    pub use crate::channel::{LinkBudget, PathLossModel};
    pub use crate::error::{ber, coded_per};
    pub use crate::fading::FadingProcess;
    pub use crate::mcs::{ChannelWidth, GuardInterval, Mcs, Modulation};
    pub use crate::presets::ChannelPreset;
}
