//! Calibrated channel presets for the paper's two platforms.
//!
//! The free parameters of the PHY model (TX power, implementation loss,
//! path-loss exponent, Rician K, shadowing, SDM stream separability) are
//! not measured quantities in the paper; they are chosen here so that the
//! *end-to-end simulated* median UDP throughput reproduces the paper's
//! published log-fits:
//!
//! * airplanes (auto rate, in flight):  `s(d) ≈ −5.56·log2(d) + 49` Mb/s,
//! * quadrocopters (auto rate, hover):  `s(d) ≈ −10.5·log2(d) + 73` Mb/s.
//!
//! Physical rationale for the (effective, fitted) parameters:
//!
//! * **Lumped aerial excess loss.** Both platforms carry tiny planar
//!   antennas with no ground plane, mounted on airframes full of motor/ESC
//!   EMI, with polarisation and elevation-pattern mismatch towards the
//!   peer. The measured absolute throughputs imply ≈ 20 dB of excess loss
//!   over a clean link budget; we lump it into `implementation_loss_db`
//!   (plus a small negative antenna gain). The indoor preset drops it,
//!   recovering the ≈ 176 Mb/s the authors saw in the lab.
//! * **Shallow effective exponents.** The fitted *distance* slope of the
//!   medians (−5.56 and −10.5 Mb/s per octave) translates, through the
//!   steep goodput-vs-SNR staircase of 802.11n, into only ≈ 3–5 dB of SNR
//!   per distance octave — below free space. This is consistent with the
//!   elevation-pattern geometry of dipoles at close range (the peer starts
//!   near the overhead null and moves toward the pattern maximum as
//!   distance grows, partly offsetting spreading loss); we encode it as a
//!   fitted log-distance exponent < 2 over the measured window.
//! * **Fading split.** Hovering rotorcraft keep a stable LOS (high K,
//!   small slow shadowing); cruising fixed-wings sweep antenna nulls while
//!   banking (low K, σ ≈ 7 dB shadowing with ~1.5 s time constant) — this
//!   is what spreads the airplane boxplots of Figure 5 from ≈ 0 to tens of
//!   Mb/s while the hovering Figure 7 boxes stay tight.
//! * **Rank-poor SDM.** The aerial LOS channel separates spatial streams
//!   badly (`sdm_sir_db` ≈ 12 dB), so the indoor-capable MCS 8–15 rarely
//!   help in the air and throughput looks "802.11g-like" (Section 3.1).

use skyferry_sim::stable::KeyHasher;
use skyferry_units::{Db, Meters, MetersPerSec};

use crate::channel::{LinkBudget, PathLossModel};
use crate::fading::FadingConfig;
use crate::mcs::{ChannelWidth, GuardInterval};

/// Carrier frequency of 5 GHz channel 40 (the paper's channel), Hz.
pub const CHANNEL_40_FREQ_HZ: f64 = 5.2e9;

/// A complete parameterisation of one radio environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelPreset {
    /// Human-readable name for reports.
    pub name: &'static str,
    /// Link budget (mean SNR vs distance).
    pub budget: LinkBudget,
    /// Small-scale fading description.
    pub fading: FadingConfig,
    /// Channel width used by the campaign.
    pub width: ChannelWidth,
    /// Guard interval used by the campaign.
    pub gi: GuardInterval,
    /// Rate at which the host CPU can source payload into the driver
    /// queue, bit/s. The paper: "If the physical rate is too high, the
    /// embedded system may not fill the buffer fast enough, resulting in a
    /// lower number of A-MPDU sub-frames" — the Gumstix/USB combination
    /// caps practical goodput regardless of PHY rate. Indoor lab hosts are
    /// effectively unlimited.
    pub host_fill_rate_bps: f64,
}

impl ChannelPreset {
    /// Airplane-to-airplane link: 80–100 m altitude, platforms in motion.
    ///
    /// `relative_speed_mps` is the closing speed between the two aircraft
    /// (the paper observed 15–26 m/s between shuttling Swinglets).
    pub fn airplane(relative_speed: MetersPerSec) -> Self {
        let budget = LinkBudget {
            tx_power_dbm: 16.0,
            antenna_gain_dbi: -2.0,
            noise_figure_db: 7.0,
            implementation_loss_db: 19.7,
            path_loss: PathLossModel::LogDistance {
                freq_hz: CHANNEL_40_FREQ_HZ,
                ref_distance_m: 10.0,
                exponent: 1.14,
            },
            width: ChannelWidth::Mhz40,
        };
        ChannelPreset {
            name: "airplane",
            budget,
            fading: FadingConfig {
                k_factor_db: 6.0,
                k_speed_slope_db_per_mps: 0.2,
                k_min_db: 1.5,
                shadowing_sigma_db: 4.0,
                shadowing_speed_slope_db_per_mps: 0.15,
                motion_loss_db_per_mps: 0.0,
                shadowing_coherence_s: 1.5,
                freq_hz: CHANNEL_40_FREQ_HZ,
                relative_speed_mps: relative_speed.get(),
                sdm_sir_db: 12.0,
            },
            width: ChannelWidth::Mhz40,
            gi: GuardInterval::Short,
            host_fill_rate_bps: 48e6,
        }
    }

    /// Quadrocopter-to-quadrocopter link at 10 m altitude.
    ///
    /// `relative_speed_mps = 0` models hover (residual attitude jitter is
    /// applied internally); ≈8 m/s reproduces the paper's approach tests.
    pub fn quadrocopter(relative_speed: MetersPerSec) -> Self {
        let budget = LinkBudget {
            tx_power_dbm: 16.0,
            antenna_gain_dbi: -2.0,
            noise_figure_db: 7.0,
            implementation_loss_db: 24.6,
            path_loss: PathLossModel::LogDistance {
                freq_hz: CHANNEL_40_FREQ_HZ,
                ref_distance_m: 10.0,
                exponent: 1.21,
            },
            width: ChannelWidth::Mhz40,
        };
        ChannelPreset {
            name: "quadrocopter",
            budget,
            fading: FadingConfig {
                k_factor_db: 9.0,
                k_speed_slope_db_per_mps: 0.7,
                k_min_db: 1.0,
                shadowing_sigma_db: 2.5,
                shadowing_speed_slope_db_per_mps: 0.25,
                motion_loss_db_per_mps: 0.7,
                shadowing_coherence_s: 1.0,
                freq_hz: CHANNEL_40_FREQ_HZ,
                relative_speed_mps: relative_speed.get(),
                sdm_sir_db: 12.0,
            },
            width: ChannelWidth::Mhz40,
            gi: GuardInterval::Short,
            host_fill_rate_bps: 48e6,
        }
    }

    /// Indoor lab bench: short range, rich scattering. Sanity anchor for
    /// the ≈176 Mb/s 802.11n figure the authors quote from lab tests.
    // lint:allow-line(test-only-pub): the benign-channel fixture of tests/full_stack.rs::indoor_preset_reaches_80211n_class_rates
    pub fn indoor_lab() -> Self {
        let budget = LinkBudget {
            tx_power_dbm: 16.0,
            antenna_gain_dbi: 2.0,
            noise_figure_db: 7.0,
            implementation_loss_db: 3.0,
            path_loss: PathLossModel::LogDistance {
                freq_hz: CHANNEL_40_FREQ_HZ,
                ref_distance_m: 5.0,
                exponent: 3.0,
            },
            width: ChannelWidth::Mhz40,
        };
        ChannelPreset {
            name: "indoor-lab",
            budget,
            fading: FadingConfig {
                k_factor_db: 6.0,
                k_speed_slope_db_per_mps: 0.0,
                k_min_db: 6.0,
                shadowing_sigma_db: 1.0,
                shadowing_speed_slope_db_per_mps: 0.0,
                motion_loss_db_per_mps: 0.0,
                shadowing_coherence_s: 1.0,
                freq_hz: CHANNEL_40_FREQ_HZ,
                relative_speed_mps: 0.0,
                sdm_sir_db: 28.0,
            },
            width: ChannelWidth::Mhz40,
            gi: GuardInterval::Short,
            host_fill_rate_bps: 400e6,
        }
    }

    /// Mean SNR at distance `d` (convenience passthrough).
    pub fn mean_snr(&self, d: Meters) -> Db {
        self.budget.mean_snr(d)
    }

    /// Fold every model parameter into `h`, so that two presets produce the
    /// same key exactly when they parameterise the same radio environment.
    /// Used by the bench crate's campaign store to memoize simulation
    /// results across experiments.
    pub fn stable_key(&self, h: KeyHasher) -> KeyHasher {
        let b = &self.budget;
        let h = h
            .str(self.name)
            .f64(b.tx_power_dbm)
            .f64(b.antenna_gain_dbi)
            .f64(b.noise_figure_db)
            .f64(b.implementation_loss_db);
        let h = match b.path_loss {
            PathLossModel::FreeSpace { freq_hz } => h.str("free-space").f64(freq_hz),
            PathLossModel::LogDistance {
                freq_hz,
                ref_distance_m,
                exponent,
            } => h
                .str("log-distance")
                .f64(freq_hz)
                .f64(ref_distance_m)
                .f64(exponent),
        };
        let f = &self.fading;
        h.u64(matches!(b.width, ChannelWidth::Mhz40) as u64)
            .u64(matches!(self.width, ChannelWidth::Mhz40) as u64)
            .u64(matches!(self.gi, GuardInterval::Short) as u64)
            .f64(f.k_factor_db)
            .f64(f.k_speed_slope_db_per_mps)
            .f64(f.k_min_db)
            .f64(f.shadowing_sigma_db)
            .f64(f.shadowing_speed_slope_db_per_mps)
            .f64(f.motion_loss_db_per_mps)
            .f64(f.shadowing_coherence_s)
            .f64(f.freq_hz)
            .f64(f.relative_speed_mps)
            .f64(f.sdm_sir_db)
            .f64(self.host_fill_rate_bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn airplane_snr_spans_the_measured_range() {
        let p = ChannelPreset::airplane(MetersPerSec::new(20.0));
        // Mean SNR is marginal (within one shadowing sigma of decodable)
        // at the 320 m range edge — Figure 5 shows a few Mb/s there,
        // carried by shadowing up-states…
        let snr320 = p.mean_snr(Meters::new(320.0)).get();
        assert!(
            snr320 > -p.fading.shadowing_sigma_db && snr320 < 5.0,
            "snr(320)={snr320}"
        );
        // …and comfortable but far below indoor levels up close.
        let snr20 = p.mean_snr(Meters::new(20.0)).get();
        assert!((10.0..30.0).contains(&snr20), "snr(20)={snr20}");
    }

    #[test]
    fn quadrocopter_weaker_than_airplane_at_same_distance() {
        // The 10 m-altitude quadrocopter link loses more to ground
        // proximity and airframe effects than the high-altitude airplanes:
        // its fitted curve hits zero around d = 120 m vs ≈ 450 m.
        let a = ChannelPreset::airplane(MetersPerSec::new(20.0));
        let q = ChannelPreset::quadrocopter(MetersPerSec::new(0.0));
        assert!(q.mean_snr(Meters::new(80.0)) < a.mean_snr(Meters::new(80.0)));
    }

    #[test]
    fn indoor_supports_top_mcs() {
        let lab = ChannelPreset::indoor_lab();
        // At bench distance the SNR must safely carry MCS15 (~28 dB incl.
        // SDM SIR of 28 dB).
        assert!(lab.mean_snr(Meters::new(3.0)).get() > 35.0);
        assert!(lab.fading.sdm_sir_db >= 25.0);
    }

    #[test]
    fn aerial_presets_share_rank_poor_sdm() {
        assert_eq!(
            ChannelPreset::airplane(MetersPerSec::new(15.0))
                .fading
                .sdm_sir_db,
            ChannelPreset::quadrocopter(MetersPerSec::new(0.0))
                .fading
                .sdm_sir_db
        );
    }

    #[test]
    fn stable_key_separates_presets_and_speeds() {
        let k = |p: &ChannelPreset| p.stable_key(KeyHasher::new("preset")).finish();
        let a20 = ChannelPreset::airplane(MetersPerSec::new(20.0));
        assert_eq!(
            k(&a20),
            k(&ChannelPreset::airplane(MetersPerSec::new(20.0)))
        );
        assert_ne!(
            k(&a20),
            k(&ChannelPreset::airplane(MetersPerSec::new(15.0)))
        );
        assert_ne!(
            k(&a20),
            k(&ChannelPreset::quadrocopter(MetersPerSec::new(0.0)))
        );
        assert_ne!(k(&a20), k(&ChannelPreset::indoor_lab()));
    }

    #[test]
    fn hover_vs_moving_coherence() {
        let hover = ChannelPreset::quadrocopter(MetersPerSec::new(0.0));
        let moving = ChannelPreset::quadrocopter(MetersPerSec::new(8.0));
        assert!(hover.fading.coherence_time() > moving.fading.coherence_time());
    }
}
