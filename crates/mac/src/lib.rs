//! # skyferry-mac
//!
//! An 802.11n MAC layer model: frame sizes, DCF channel access, A-MPDU
//! aggregation with block acknowledgement, and PHY rate control.
//!
//! The paper's radios run with "channel bonding, A-MPDU frame aggregation,
//! and block ACK … The default number of frames for aggregation is 14. If
//! the physical rate is too high, the embedded system may not fill the
//! buffer fast enough, resulting in a lower number of A-MPDU sub-frames."
//! (Section 3). Its central MAC-layer finding is that *auto rate adaptation
//! collapses on the fast-varying aerial channel* while per-distance fixed
//! MCS roughly doubles throughput (Figure 6).
//!
//! Modules:
//!
//! * [`frame`] — the on-air sizes of data MPDUs, A-MPDU delimiters and
//!   compressed block ACKs: the model charges airtime for frame lengths
//!   and never builds the bytes;
//! * [`queue`] — the host-fed transmit queue, modelling the embedded
//!   platform's limited fill rate;
//! * [`dcf`] — 5 GHz OFDM DCF timing (slots, SIFS/DIFS, binary exponential
//!   backoff) and exchange overhead accounting;
//! * [`rate`] — the [`rate::RateController`] trait with [`rate::FixedMcs`]
//!   and a Minstrel-HT-style sampling controller [`rate::MinstrelHt`]
//!   whose EWMA lag reproduces the auto-rate pathology;
//! * [`link`] — the transmit loop: one call = one TXOP (backoff, A-MPDU
//!   and block ACK), returning airtime and delivery counts, ready to be
//!   scheduled by a discrete-event driver.

#![forbid(unsafe_code)]

pub mod dcf;
pub mod frame;
pub mod link;
pub mod queue;
pub mod rate;

pub use dcf::DcfTiming;
pub use link::{LinkConfig, LinkState, TxopOutcome};
pub use queue::TxQueue;
pub use rate::{FixedMcs, MinstrelHt, RateController, TxFeedback};
