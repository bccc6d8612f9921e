//! DCF (distributed coordination function) timing for 5 GHz OFDM PHYs.
//!
//! The two-node ad-hoc links of the paper contend only with themselves,
//! so DCF shows up as per-TXOP dead time: DIFS + random backoff before
//! each A-MPDU, SIFS before the block ACK, and EIFS-like penalties after
//! failures. Constants follow 802.11-2012 clause 18 (OFDM, 5 GHz).

use skyferry_sim::rng::DetRng;
use skyferry_sim::time::SimDuration;

/// DCF timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DcfTiming {
    /// Slot time.
    pub slot: SimDuration,
    /// Short interframe space.
    pub sifs: SimDuration,
    /// Minimum contention window (slots − 1, i.e. CW = 15 → 0..=15).
    pub cw_min: u32,
    /// Maximum contention window.
    pub cw_max: u32,
}

impl Default for DcfTiming {
    fn default() -> Self {
        Self::ofdm_5ghz()
    }
}

impl DcfTiming {
    /// Standard OFDM/5 GHz values: 9 µs slots, 16 µs SIFS, CW 15–1023.
    pub const fn ofdm_5ghz() -> Self {
        DcfTiming {
            slot: SimDuration::from_micros(9),
            sifs: SimDuration::from_micros(16),
            cw_min: 15,
            cw_max: 1023,
        }
    }

    /// DIFS = SIFS + 2 slots.
    pub fn difs(&self) -> SimDuration {
        self.sifs + self.slot * 2
    }

    /// Contention window after `retries` consecutive failures
    /// (binary exponential backoff, capped at `cw_max`).
    pub fn contention_window(&self, retries: u32) -> u32 {
        let grown = ((self.cw_min as u64 + 1) << retries.min(16)) - 1;
        (grown as u32).min(self.cw_max)
    }

    /// Sample a backoff duration for the given retry count.
    pub fn sample_backoff(&self, retries: u32, rng: &mut DetRng) -> SimDuration {
        let cw = self.contention_window(retries);
        let slots = rng.index(cw as usize + 1) as i64;
        self.slot * slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_values() {
        let t = DcfTiming::ofdm_5ghz();
        assert_eq!(t.slot, SimDuration::from_micros(9));
        assert_eq!(t.sifs, SimDuration::from_micros(16));
        assert_eq!(t.difs(), SimDuration::from_micros(34));
    }

    #[test]
    fn contention_window_doubles_then_caps() {
        let t = DcfTiming::ofdm_5ghz();
        assert_eq!(t.contention_window(0), 15);
        assert_eq!(t.contention_window(1), 31);
        assert_eq!(t.contention_window(2), 63);
        assert_eq!(t.contention_window(6), 1023);
        assert_eq!(t.contention_window(20), 1023);
    }

    #[test]
    fn backoff_within_window() {
        let t = DcfTiming::ofdm_5ghz();
        let mut rng = DetRng::seed(9);
        for retries in 0..8 {
            for _ in 0..200 {
                let b = t.sample_backoff(retries, &mut rng);
                let max = t.slot * t.contention_window(retries) as i64;
                assert!(b >= SimDuration::ZERO && b <= max);
            }
        }
    }

    #[test]
    fn empirical_mean_backoff_close_to_analytic() {
        let t = DcfTiming::ofdm_5ghz();
        let mut rng = DetRng::seed(10);
        let n = 20_000;
        let sum: f64 = (0..n)
            .map(|_| t.sample_backoff(0, &mut rng).as_secs_f64())
            .sum();
        let mean_us = sum / n as f64 * 1e6;
        // 7.5 slots × 9 µs = 67.5 µs.
        assert!((mean_us - 67.5).abs() < 2.0, "mean={mean_us}");
    }
}
