//! The 802.11n modulation and coding scheme (MCS) table.
//!
//! Rates are computed from first principles:
//!
//! ```text
//! rate = Nss · Nsd · Nbpsc · R / Tsym
//! ```
//!
//! with `Nss` spatial streams, `Nsd` data subcarriers (52 at 20 MHz, 108 at
//! 40 MHz), `Nbpsc` bits per subcarrier per stream, coding rate `R` and
//! symbol duration `Tsym` (4 µs long GI, 3.6 µs short GI). MCS 0–7 are
//! single-stream, MCS 8–15 the two-stream duplicates. The paper's radio
//! (Ralink RT3572, 2 antennas) supports exactly this range, using STBC for
//! single-stream MCS and spatial-division multiplexing (SDM) for MCS ≥ 8.

use skyferry_units::{BitsPerSec, Seconds};

use std::fmt;

/// Channel width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelWidth {
    /// A single 20 MHz channel.
    Mhz20,
    /// Two bonded 20 MHz channels (the paper's configuration).
    Mhz40,
}

impl ChannelWidth {
    /// Number of data subcarriers.
    pub const fn data_subcarriers(self) -> u32 {
        match self {
            ChannelWidth::Mhz20 => 52,
            ChannelWidth::Mhz40 => 108,
        }
    }

    /// Occupied bandwidth in hertz (used for the noise floor).
    pub const fn bandwidth_hz(self) -> f64 {
        match self {
            ChannelWidth::Mhz20 => 20e6,
            ChannelWidth::Mhz40 => 40e6,
        }
    }
}

/// OFDM guard interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GuardInterval {
    /// 800 ns GI, 4 µs symbols.
    Long,
    /// 400 ns GI, 3.6 µs symbols (the paper's configuration).
    Short,
}

impl GuardInterval {
    /// OFDM symbol duration.
    pub const fn symbol_duration(self) -> Seconds {
        match self {
            GuardInterval::Long => crate::airtime::SYMBOL_GI_LONG,
            GuardInterval::Short => crate::airtime::SYMBOL_GI_SHORT,
        }
    }

    /// OFDM symbol duration in seconds (raw `f64` convenience).
    // lint:allow-line(unit-safety): raw convenience; typed twin is `symbol_duration()`
    pub const fn symbol_duration_s(self) -> f64 {
        self.symbol_duration().get()
    }
}

/// Subcarrier modulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// Binary phase-shift keying, 1 bit/subcarrier.
    Bpsk,
    /// Quadrature phase-shift keying, 2 bits/subcarrier.
    Qpsk,
    /// 16-point quadrature amplitude modulation, 4 bits/subcarrier.
    Qam16,
    /// 64-point quadrature amplitude modulation, 6 bits/subcarrier.
    Qam64,
}

impl Modulation {
    /// Coded bits per subcarrier per spatial stream (`Nbpsc`).
    pub const fn bits_per_subcarrier(self) -> u32 {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
        }
    }
}

impl fmt::Display for Modulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Modulation::Bpsk => "BPSK",
            Modulation::Qpsk => "QPSK",
            Modulation::Qam16 => "16-QAM",
            Modulation::Qam64 => "64-QAM",
        };
        f.write_str(s)
    }
}

/// Convolutional coding rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodingRate {
    /// Rate 1/2.
    Half,
    /// Rate 2/3.
    TwoThirds,
    /// Rate 3/4.
    ThreeQuarters,
    /// Rate 5/6.
    FiveSixths,
}

impl CodingRate {
    /// The rate as a fraction.
    pub const fn as_f64(self) -> f64 {
        match self {
            CodingRate::Half => 0.5,
            CodingRate::TwoThirds => 2.0 / 3.0,
            CodingRate::ThreeQuarters => 0.75,
            CodingRate::FiveSixths => 5.0 / 6.0,
        }
    }
}

impl fmt::Display for CodingRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CodingRate::Half => "1/2",
            CodingRate::TwoThirds => "2/3",
            CodingRate::ThreeQuarters => "3/4",
            CodingRate::FiveSixths => "5/6",
        };
        f.write_str(s)
    }
}

/// An 802.11n MCS index (0–15 for up to two spatial streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Mcs(u8);

/// Per-index modulation/coding lookup shared by both stream counts.
const BASE_TABLE: [(Modulation, CodingRate); 8] = [
    (Modulation::Bpsk, CodingRate::Half),           // MCS 0 / 8
    (Modulation::Qpsk, CodingRate::Half),           // MCS 1 / 9
    (Modulation::Qpsk, CodingRate::ThreeQuarters),  // MCS 2 / 10
    (Modulation::Qam16, CodingRate::Half),          // MCS 3 / 11
    (Modulation::Qam16, CodingRate::ThreeQuarters), // MCS 4 / 12
    (Modulation::Qam64, CodingRate::TwoThirds),     // MCS 5 / 13
    (Modulation::Qam64, CodingRate::ThreeQuarters), // MCS 6 / 14
    (Modulation::Qam64, CodingRate::FiveSixths),    // MCS 7 / 15
];

impl Mcs {
    /// Highest supported index (two spatial streams).
    pub const MAX_INDEX: u8 = 15;

    /// Construct from an index.
    ///
    /// # Panics
    /// Panics if `index > 15`.
    pub const fn new(index: u8) -> Self {
        assert!(index <= Self::MAX_INDEX, "MCS index out of range");
        Mcs(index)
    }

    /// The raw index.
    pub const fn index(self) -> u8 {
        self.0
    }

    /// All MCS values 0..=15, ascending.
    pub fn all() -> impl Iterator<Item = Mcs> {
        (0..=Self::MAX_INDEX).map(Mcs)
    }

    /// Number of spatial streams (1 for MCS 0–7, 2 for 8–15).
    pub const fn spatial_streams(self) -> u32 {
        if self.0 < 8 {
            1
        } else {
            2
        }
    }

    /// `true` when this MCS multiplexes two independent streams (SDM).
    pub const fn uses_sdm(self) -> bool {
        self.spatial_streams() > 1
    }

    /// Subcarrier modulation.
    pub const fn modulation(self) -> Modulation {
        BASE_TABLE[(self.0 % 8) as usize].0
    }

    /// Convolutional coding rate.
    pub const fn coding_rate(self) -> CodingRate {
        BASE_TABLE[(self.0 % 8) as usize].1
    }

    /// PHY data rate in bit/s for the given width and guard interval.
    ///
    /// ```
    /// use skyferry_phy::mcs::{ChannelWidth, GuardInterval, Mcs};
    /// // The paper's MCS3 at 40 MHz with short GI is 60 Mb/s.
    /// let r = Mcs::new(3).data_rate_bps(ChannelWidth::Mhz40, GuardInterval::Short);
    /// assert_eq!(r.get().round() as u64, 60_000_000);
    /// ```
    pub fn data_rate_bps(self, width: ChannelWidth, gi: GuardInterval) -> BitsPerSec {
        let nss = self.spatial_streams() as f64;
        let nsd = width.data_subcarriers() as f64;
        let nbpsc = self.modulation().bits_per_subcarrier() as f64;
        let r = self.coding_rate().as_f64();
        BitsPerSec::new(nss * nsd * nbpsc * r / gi.symbol_duration_s())
    }

    /// Data bits carried per OFDM symbol (`Ndbps`).
    pub fn data_bits_per_symbol(self, width: ChannelWidth) -> f64 {
        let nss = self.spatial_streams() as f64;
        let nsd = width.data_subcarriers() as f64;
        let nbpsc = self.modulation().bits_per_subcarrier() as f64;
        nss * nsd * nbpsc * self.coding_rate().as_f64()
    }
}

impl fmt::Display for Mcs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MCS{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W40: ChannelWidth = ChannelWidth::Mhz40;
    const W20: ChannelWidth = ChannelWidth::Mhz20;
    const SGI: GuardInterval = GuardInterval::Short;
    const LGI: GuardInterval = GuardInterval::Long;

    fn rate_mbps(i: u8, w: ChannelWidth, g: GuardInterval) -> f64 {
        Mcs::new(i).data_rate_bps(w, g).get() / 1e6
    }

    #[test]
    fn standard_20mhz_long_gi_rates() {
        // IEEE 802.11n-2009 Table 20-30: 6.5..65 Mb/s for MCS0-7.
        let expect = [6.5, 13.0, 19.5, 26.0, 39.0, 52.0, 58.5, 65.0];
        for (i, &e) in expect.iter().enumerate() {
            assert!(
                (rate_mbps(i as u8, W20, LGI) - e).abs() < 0.01,
                "MCS{i}: {} vs {e}",
                rate_mbps(i as u8, W20, LGI)
            );
        }
    }

    #[test]
    fn standard_40mhz_short_gi_rates() {
        // 15..150 Mb/s for MCS0-7; 30..300 for MCS8-15.
        let expect = [15.0, 30.0, 45.0, 60.0, 90.0, 120.0, 135.0, 150.0];
        for (i, &e) in expect.iter().enumerate() {
            assert!((rate_mbps(i as u8, W40, SGI) - e).abs() < 0.01, "MCS{i}");
            assert!(
                (rate_mbps(i as u8 + 8, W40, SGI) - 2.0 * e).abs() < 0.01,
                "MCS{}",
                i + 8
            );
        }
    }

    #[test]
    fn paper_rates_named_in_section_3() {
        // "PHY rates up to 60 Mb/s" with MCS1, MCS2, MCS3, MCS8:
        assert_eq!(rate_mbps(1, W40, SGI), 30.0);
        assert_eq!(rate_mbps(2, W40, SGI), 45.0);
        assert_eq!(rate_mbps(3, W40, SGI), 60.0);
        assert_eq!(rate_mbps(8, W40, SGI), 30.0);
    }

    #[test]
    fn streams_and_sdm() {
        assert_eq!(Mcs::new(3).spatial_streams(), 1);
        assert_eq!(Mcs::new(8).spatial_streams(), 2);
        assert!(!Mcs::new(3).uses_sdm());
        assert!(Mcs::new(8).uses_sdm());
    }

    #[test]
    fn modulation_mapping_wraps_at_8() {
        assert_eq!(Mcs::new(0).modulation(), Modulation::Bpsk);
        assert_eq!(Mcs::new(8).modulation(), Modulation::Bpsk);
        assert_eq!(Mcs::new(7).modulation(), Modulation::Qam64);
        assert_eq!(Mcs::new(15).modulation(), Modulation::Qam64);
        assert_eq!(Mcs::new(15).coding_rate(), CodingRate::FiveSixths);
    }

    #[test]
    fn rates_monotone_within_stream_group() {
        for group in [0u8..8, 8..16] {
            let mut prev = 0.0;
            for i in group {
                let r = rate_mbps(i, W40, SGI);
                assert!(r > prev, "MCS{i} not increasing");
                prev = r;
            }
        }
    }

    #[test]
    fn short_gi_is_ten_ninths_faster() {
        for mcs in Mcs::all() {
            let ratio = mcs.data_rate_bps(W40, SGI) / mcs.data_rate_bps(W40, LGI);
            assert!((ratio - 10.0 / 9.0).abs() < 1e-12);
        }
    }

    #[test]
    fn all_yields_16() {
        assert_eq!(Mcs::all().count(), 16);
    }

    #[test]
    fn display_format() {
        assert_eq!(Mcs::new(8).to_string(), "MCS8");
        assert_eq!(Modulation::Qam16.to_string(), "16-QAM");
        assert_eq!(CodingRate::FiveSixths.to_string(), "5/6");
    }

    #[test]
    #[should_panic]
    fn out_of_range_rejected() {
        let _ = Mcs::new(16);
    }
}
