//! Link budget: from distance to mean signal-to-noise ratio.
//!
//! The paper assumes line-of-sight aerial links where the Euclidean
//! distance between the nodes determines radio signal quality (Section 5).
//! We model the mean received power with a log-distance path-loss law
//! anchored at free space, and the noise floor from thermal noise plus a
//! receiver noise figure. Fast variation around the mean is handled
//! separately by [`crate::fading`].

use skyferry_units::{Db, Meters};

use crate::mcs::ChannelWidth;

/// Speed of light, m/s.
pub const SPEED_OF_LIGHT_MPS: f64 = 299_792_458.0;

/// Thermal noise power spectral density at 290 K, dBm/Hz.
pub const THERMAL_NOISE_DBM_PER_HZ: f64 = -174.0;

/// Mean path-loss models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PathLossModel {
    /// Free-space (Friis) propagation at `freq_hz`. Exponent 2.
    FreeSpace {
        /// Carrier frequency in hertz.
        freq_hz: f64,
    },
    /// Log-distance: free-space loss up to `ref_distance_m`, then
    /// `10·n·log10(d/d_ref)` beyond it. `n` slightly above 2 captures the
    /// ground reflections and airframe shadowing of low-altitude links.
    LogDistance {
        /// Carrier frequency in hertz (sets the reference loss).
        freq_hz: f64,
        /// Reference distance, metres.
        ref_distance_m: f64,
        /// Path-loss exponent `n` beyond the reference distance.
        exponent: f64,
    },
}

impl PathLossModel {
    /// Free-space path loss at distance `d_m` and frequency `freq_hz`, dB.
    fn friis_db(freq_hz: f64, d_m: f64) -> f64 {
        20.0 * (4.0 * std::f64::consts::PI * d_m * freq_hz / SPEED_OF_LIGHT_MPS).log10()
    }

    /// Mean path loss at distance `d` (clamped below at 1 m, where
    /// near-field effects make the formulas meaningless anyway).
    pub fn loss(&self, d: Meters) -> Db {
        let d = d.get().max(1.0);
        Db::new(match *self {
            PathLossModel::FreeSpace { freq_hz } => Self::friis_db(freq_hz, d),
            PathLossModel::LogDistance {
                freq_hz,
                ref_distance_m,
                exponent,
            } => {
                let d0 = ref_distance_m.max(1.0);
                if d <= d0 {
                    Self::friis_db(freq_hz, d)
                } else {
                    Self::friis_db(freq_hz, d0) + 10.0 * exponent * (d / d0).log10()
                }
            }
        })
    }
}

/// A transmitter/receiver pair's link budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkBudget {
    /// Transmit power, dBm (RT3572-class USB adapters: ~15–17 dBm).
    pub tx_power_dbm: f64,
    /// Sum of TX and RX antenna gains, dBi (small planar omnis: ~2 dBi
    /// total, reduced by airframe shadowing and orientation mismatch).
    pub antenna_gain_dbi: f64,
    /// Receiver noise figure, dB.
    pub noise_figure_db: f64,
    /// Additional fixed implementation loss (cables, matching, EMI from
    /// the UAV electronics), dB.
    pub implementation_loss_db: f64,
    /// Mean path loss model.
    pub path_loss: PathLossModel,
    /// Channel width (sets the noise bandwidth).
    pub width: ChannelWidth,
}

impl LinkBudget {
    /// Noise floor for the configured bandwidth and noise figure (dBm,
    /// carried as [`Db`] — see that type's note on absolute levels).
    pub fn noise_floor_dbm(&self) -> Db {
        Db::new(
            THERMAL_NOISE_DBM_PER_HZ
                + 10.0 * self.width.bandwidth_hz().log10()
                + self.noise_figure_db,
        )
    }

    /// Mean received signal power at distance `d` (dBm, as [`Db`]).
    pub fn rx_power_dbm(&self, d: Meters) -> Db {
        Db::new(self.tx_power_dbm + self.antenna_gain_dbi - self.implementation_loss_db)
            - self.path_loss.loss(d)
    }

    /// Mean SNR at distance `d`.
    pub fn mean_snr(&self, d: Meters) -> Db {
        self.rx_power_dbm(d) - self.noise_floor_dbm()
    }

    /// The distance at which the mean SNR drops to `snr`, found by
    /// bisection over `[1 m, 100 km]`. Returns `None` if the SNR is above
    /// `snr` even at 100 km (or below it at 1 m).
    pub fn range_for_snr(&self, snr: Db) -> Option<Meters> {
        let (mut lo, mut hi) = (1.0_f64, 100_000.0_f64);
        if self.mean_snr(Meters::new(lo)) < snr || self.mean_snr(Meters::new(hi)) > snr {
            return None;
        }
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if self.mean_snr(Meters::new(mid)) > snr {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(Meters::new(0.5 * (lo + hi)))
    }
}

/// Convert dB to a linear power ratio.
// lint:allow-line(unit-safety): dB↔linear conversion primitive; the raw f64 IS the boundary
pub fn db_to_linear(db: f64) -> f64 {
    10.0_f64.powf(db / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FREQ: f64 = 5.2e9; // channel 40

    fn budget() -> LinkBudget {
        LinkBudget {
            tx_power_dbm: 16.0,
            antenna_gain_dbi: 2.0,
            noise_figure_db: 6.0,
            implementation_loss_db: 3.0,
            path_loss: PathLossModel::FreeSpace { freq_hz: FREQ },
            width: ChannelWidth::Mhz40,
        }
    }

    fn m(v: f64) -> Meters {
        Meters::new(v)
    }

    #[test]
    fn friis_known_value() {
        // FSPL at 100 m, 5.2 GHz ≈ 86.8 dB.
        let pl = PathLossModel::FreeSpace { freq_hz: FREQ };
        let l = pl.loss(m(100.0)).get();
        assert!((l - 86.76).abs() < 0.1, "loss={l}");
    }

    #[test]
    fn path_loss_monotone_in_distance() {
        for model in [
            PathLossModel::FreeSpace { freq_hz: FREQ },
            PathLossModel::LogDistance {
                freq_hz: FREQ,
                ref_distance_m: 10.0,
                exponent: 2.4,
            },
        ] {
            let mut prev = f64::NEG_INFINITY;
            for i in 1..60 {
                let d = 10.0 * i as f64;
                let l = model.loss(m(d)).get();
                assert!(l > prev, "{model:?} at {d}");
                prev = l;
            }
        }
    }

    #[test]
    fn log_distance_matches_friis_at_reference() {
        let ld = PathLossModel::LogDistance {
            freq_hz: FREQ,
            ref_distance_m: 10.0,
            exponent: 2.7,
        };
        let fs = PathLossModel::FreeSpace { freq_hz: FREQ };
        assert!((ld.loss(m(10.0)) - fs.loss(m(10.0))).get().abs() < 1e-9);
        // Beyond the reference, the steeper exponent dominates.
        assert!(ld.loss(m(100.0)) > fs.loss(m(100.0)));
    }

    #[test]
    fn noise_floor_40mhz() {
        // -174 + 10log10(40e6) + 6 ≈ -91.98 dBm.
        let nf = budget().noise_floor_dbm().get();
        assert!((nf + 91.98).abs() < 0.05, "nf={nf}");
    }

    #[test]
    fn snr_decreases_with_distance() {
        let b = budget();
        assert!(b.mean_snr(m(20.0)) > b.mean_snr(m(80.0)));
        assert!(b.mean_snr(m(80.0)) > b.mean_snr(m(320.0)));
    }

    #[test]
    fn range_for_snr_inverts_mean_snr() {
        let b = budget();
        let snr_at_100 = b.mean_snr(m(100.0));
        let d = b.range_for_snr(snr_at_100).unwrap().get();
        assert!((d - 100.0).abs() < 0.01, "d={d}");
    }

    #[test]
    fn range_for_snr_out_of_reach_is_none() {
        let b = budget();
        assert!(b.range_for_snr(Db::new(1_000.0)).is_none());
    }

    #[test]
    fn db_to_linear_known_values() {
        for &db in &[-30.0, 0.0, 3.0, 20.0] {
            assert!((10.0 * db_to_linear(db).log10() - db).abs() < 1e-12);
        }
        assert!((db_to_linear(3.0) - 1.995).abs() < 0.01);
    }

    #[test]
    fn sub_metre_distance_clamped() {
        let pl = PathLossModel::FreeSpace { freq_hz: FREQ };
        assert_eq!(pl.loss(m(0.1)), pl.loss(m(1.0)));
    }
}
