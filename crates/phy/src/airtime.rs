//! PPDU airtime computation.
//!
//! An HT-mixed-format 802.11n transmission spends a fixed preamble
//! (legacy short/long training + L-SIG + HT-SIG + HT training fields)
//! followed by payload OFDM symbols. The preamble is sent at a robust base
//! rate and dominates the cost of small frames — which is why A-MPDU
//! aggregation (amortising one preamble over up to 64 subframes; the
//! paper's driver default is 14) matters so much for throughput.

use skyferry_sim::time::SimDuration;
use skyferry_units::Seconds;

use crate::mcs::{ChannelWidth, GuardInterval, Mcs};

/// Long-GI OFDM symbol duration (used by the preamble).
pub const SYMBOL_GI_LONG: Seconds = Seconds::new(4.0e-6);
/// Short-GI OFDM symbol duration.
pub const SYMBOL_GI_SHORT: Seconds = Seconds::new(3.6e-6);

/// Service field bits prepended to the PSDU.
const SERVICE_BITS: f64 = 16.0;
/// Convolutional-code tail bits appended per encoder (BCC, one encoder).
const TAIL_BITS: f64 = 6.0;

/// Duration of the HT-mixed preamble for `nss` spatial streams.
///
/// L-STF (8 µs) + L-LTF (8 µs) + L-SIG (4 µs) + HT-SIG (8 µs) +
/// HT-STF (4 µs) + one HT-LTF per stream (4 µs each).
pub fn ht_mixed_preamble() -> Seconds {
    // nss handled in `ppdu_duration`; this is the nss-independent part.
    Seconds::new(8.0e-6 + 8.0e-6 + 4.0e-6 + 8.0e-6 + 4.0e-6)
}

/// Total duration of one PPDU carrying `psdu_bytes` of MAC payload
/// (a single MPDU or a whole A-MPDU) at the given MCS.
///
/// ```
/// use skyferry_phy::airtime::ppdu_duration;
/// use skyferry_phy::mcs::{ChannelWidth, GuardInterval, Mcs};
/// let d = ppdu_duration(Mcs::new(3), ChannelWidth::Mhz40, GuardInterval::Short, 1500);
/// // 1500 B at 60 Mb/s is 200 µs of payload plus ~36 µs of preamble.
/// let us = d.as_secs_f64() * 1e6;
/// assert!(us > 230.0 && us < 245.0);
/// ```
pub fn ppdu_duration(
    mcs: Mcs,
    width: ChannelWidth,
    gi: GuardInterval,
    psdu_bytes: usize,
) -> SimDuration {
    let n_ltf = mcs.spatial_streams() as f64; // one HT-LTF per stream
    let preamble = ht_mixed_preamble() + Seconds::new(n_ltf * 4.0e-6);
    let bits = SERVICE_BITS + 8.0 * psdu_bytes as f64 + TAIL_BITS;
    let n_symbols = (bits / mcs.data_bits_per_symbol(width)).ceil();
    SimDuration::from_secs_f64((preamble + gi.symbol_duration() * n_symbols).get())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Payload bits over total airtime, as a fraction of the PHY rate:
    /// exposes the aggregation effect.
    fn phy_efficiency(mcs: Mcs, width: ChannelWidth, gi: GuardInterval, psdu_bytes: usize) -> f64 {
        let t = ppdu_duration(mcs, width, gi, psdu_bytes).as_secs_f64();
        (8.0 * psdu_bytes as f64) / t / mcs.data_rate_bps(width, gi).get()
    }

    const W: ChannelWidth = ChannelWidth::Mhz40;
    const G: GuardInterval = GuardInterval::Short;

    #[test]
    fn preamble_grows_with_streams() {
        let one = ppdu_duration(Mcs::new(7), W, G, 0);
        let two = ppdu_duration(Mcs::new(15), W, G, 0);
        // MCS15 carries double bits/symbol but needs one more HT-LTF; with
        // zero payload both send the same single symbol, so the two-stream
        // PPDU is exactly 4 µs longer.
        let diff = (two - one).as_secs_f64();
        assert!((diff - 4.0e-6).abs() < 1e-12, "diff={diff}");
    }

    #[test]
    fn payload_duration_matches_rate() {
        // Large PSDU at MCS3 (60 Mb/s): airtime ≈ preamble + bits/rate.
        let bytes = 65_535;
        let d = ppdu_duration(Mcs::new(3), W, G, bytes).as_secs_f64();
        let expect = 40e-6 + (bytes * 8) as f64 / 60e6;
        assert!((d - expect).abs() < 5e-6, "d={d} expect={expect}");
    }

    #[test]
    fn duration_monotone_in_length() {
        let mut prev = SimDuration::ZERO;
        for len in [0, 100, 500, 1500, 4000, 65_000] {
            let d = ppdu_duration(Mcs::new(5), W, G, len);
            assert!(d >= prev);
            prev = d;
        }
    }

    #[test]
    fn faster_mcs_shorter_airtime() {
        let slow = ppdu_duration(Mcs::new(0), W, G, 1500);
        let fast = ppdu_duration(Mcs::new(7), W, G, 1500);
        assert!(fast < slow);
    }

    #[test]
    fn aggregation_amortises_preamble() {
        let single = phy_efficiency(Mcs::new(7), W, G, 1500);
        let aggregated = phy_efficiency(Mcs::new(7), W, G, 14 * 1500);
        assert!(single < 0.75, "single={single}");
        assert!(aggregated > 0.9, "aggregated={aggregated}");
    }

    #[test]
    fn symbol_quantisation_rounds_up() {
        // One byte still costs a whole symbol beyond the preamble.
        let zero = ppdu_duration(Mcs::new(0), W, G, 0);
        let one = ppdu_duration(Mcs::new(0), W, G, 1);
        assert_eq!(zero, one); // 22 and 30 bits both fit one 54-bit symbol
    }
}
