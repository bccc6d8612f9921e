//! Bit and packet error probabilities.
//!
//! The chain is the standard link-abstraction shortcut used by packet
//! simulators: per-subcarrier SNR → uncoded bit error rate for the MCS's
//! modulation (exact Q-function expressions for BPSK/QPSK, the tight
//! Gray-coding approximation for square QAM) → an *effective coding gain*
//! for the 802.11 K=7 convolutional code at each rate → packet error rate
//! assuming independent coded-bit errors across the frame.
//!
//! The absolute waterfall positions produced this way are within ~1 dB of
//! published 802.11n link curves, which is ample for this reproduction:
//! the strategy model consumes *throughput vs distance medians*, and the
//! presets are calibrated end-to-end against the paper's fits anyway.

use std::sync::LazyLock;

use crate::fading::ChannelState;
use crate::mcs::{CodingRate, Mcs, Modulation};
use skyferry_units::Db;

/// Complementary error function, Abramowitz & Stegun 7.1.26 (|ε| ≤ 1.5e-7).
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    poly * (-x * x).exp()
}

/// The Gaussian tail function `Q(x) = P(N(0,1) > x)`.
pub fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Uncoded bit error rate for `modulation` at per-symbol SNR `snr`
/// (linear `Es/N0`), assuming Gray mapping.
pub fn ber(modulation: Modulation, snr_linear: f64) -> f64 {
    if snr_linear <= 0.0 {
        return 0.5;
    }
    let p = match modulation {
        // BPSK: Pb = Q(sqrt(2 Es/N0)).
        Modulation::Bpsk => q_function((2.0 * snr_linear).sqrt()),
        // QPSK: Pb = Q(sqrt(Es/N0)) (2 bits/symbol).
        Modulation::Qpsk => q_function(snr_linear.sqrt()),
        // Square M-QAM approximation:
        // Pb ≈ 4/log2(M) (1 - 1/sqrt(M)) Q(sqrt(3 Es/N0 / (M-1))).
        // 16-QAM: 4/log2(16) = 1, (1 - 1/sqrt(16)) = 3/4.
        Modulation::Qam16 => q_function((snr_linear / 5.0).sqrt()) * 0.75,
        Modulation::Qam64 => {
            q_function((snr_linear / 21.0).sqrt()) * (4.0 / 6.0) * (1.0 - 1.0 / 8.0)
        }
    };
    p.clamp(0.0, 0.5)
}

/// Effective coding gain (dB) of the 802.11 rate-compatible punctured
/// K = 7 convolutional code with soft Viterbi decoding, at packet-relevant
/// error rates.
pub fn coding_gain_db(rate: CodingRate) -> Db {
    Db::new(match rate {
        CodingRate::Half => 5.5,
        CodingRate::TwoThirds => 4.6,
        CodingRate::ThreeQuarters => 4.2,
        CodingRate::FiveSixths => 3.4,
    })
}

/// The linear power ratio of [`coding_gain_db`]. The four ratios are
/// computed once per process, by the same `Db::ratio`, so a PER
/// evaluation pays no `powf` and sees the same bits.
fn coding_gain(rate: CodingRate) -> f64 {
    // In `CodingRate` declaration order, so `rate as usize` indexes it.
    static GAINS: LazyLock<[f64; 4]> = LazyLock::new(|| {
        [
            CodingRate::Half,
            CodingRate::TwoThirds,
            CodingRate::ThreeQuarters,
            CodingRate::FiveSixths,
        ]
        .map(|rate| coding_gain_db(rate).ratio())
    });
    GAINS[rate as usize]
}

/// Post-decoding residual bit error rate for an MCS at per-symbol SNR
/// `snr_linear`: the uncoded BER evaluated at the coding-gain-boosted SNR.
pub fn coded_ber(mcs: Mcs, snr_linear: f64) -> f64 {
    let boosted = snr_linear * coding_gain(mcs.coding_rate());
    ber(mcs.modulation(), boosted)
}

/// Packet error rate of a `len_bytes`-byte MPDU at per-symbol SNR
/// `snr_linear`, assuming independent residual bit errors.
pub fn coded_per(mcs: Mcs, snr_linear: f64, len_bytes: usize) -> f64 {
    let pb = coded_ber(mcs, snr_linear);
    let bits = (len_bytes * 8) as f64;
    // 1 - (1-p)^n, computed stably for tiny p via ln1p.
    1.0 - ((1.0 - pb).ln() * bits).exp()
}

/// The SNR (or SINR per stream for SDM) the decoder effectively sees for
/// one transmission, combining the mean link SNR, the instantaneous
/// fading state, STBC diversity and SDM self-interference.
///
/// This is the dB-form entry point: it takes the SDM interference floor
/// as presets state it and converts it for SDM MCS only. A link, which
/// evaluates many frames under one floor, converts it once and calls
/// [`effective_snr`].
pub fn effective_snr_linear(
    mcs: Mcs,
    use_stbc: bool,
    mean_snr_linear: f64,
    state: &ChannelState,
    sdm_sir: Db,
) -> f64 {
    // Single-stream MCS never read the floor, so they skip its `powf`.
    let sdm_sir = if mcs.uses_sdm() {
        sdm_sir.ratio()
    } else {
        f64::INFINITY
    };
    effective_snr(mcs, use_stbc, mean_snr_linear, state, sdm_sir)
}

/// [`effective_snr_linear`] with the SDM interference floor `sdm_sir`
/// as a linear power ratio.
///
/// * Single-stream MCS with `use_stbc`: diversity-combined branch gain
///   (Alamouti: diversity order 2, no array gain — branch average).
/// * Single-stream MCS without STBC: a single faded branch.
/// * Two-stream MCS (SDM with MMSE reception): the TX power split across
///   streams (÷2) is offset by the two-chain receive array gain (×2), but
///   each stream sees an inter-stream interference floor of `sdm_sir`
///   (low-rank LOS channels separate streams poorly) and no diversity.
pub fn effective_snr(
    mcs: Mcs,
    use_stbc: bool,
    mean_snr_linear: f64,
    state: &ChannelState,
    sdm_sir: f64,
) -> f64 {
    if mcs.uses_sdm() {
        let per_stream = mean_snr_linear * state.siso_gain();
        1.0 / (1.0 / per_stream.max(1e-12) + 1.0 / sdm_sir)
    } else if use_stbc {
        mean_snr_linear * state.stbc_gain()
    } else {
        mean_snr_linear * state.siso_gain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::db_to_linear;
    use skyferry_sim::time::SimTime;

    fn flat_state() -> ChannelState {
        ChannelState {
            branch_gain: [1.0, 1.0],
            shadowing: 1.0,
            valid_until: SimTime::MAX,
        }
    }

    #[test]
    fn erfc_reference_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157299).abs() < 1e-5);
        assert!((erfc(2.0) - 0.004678).abs() < 1e-5);
        assert!((erfc(-1.0) - 1.842701).abs() < 1e-5);
    }

    #[test]
    fn q_function_reference_values() {
        assert!((q_function(0.0) - 0.5).abs() < 1e-9);
        assert!((q_function(1.0) - 0.158655).abs() < 1e-4);
        assert!((q_function(3.0) - 1.3499e-3).abs() < 1e-5);
    }

    #[test]
    fn bpsk_ber_at_known_snr() {
        // BPSK at Eb/N0 = 10 (10 dB): Pb = Q(sqrt(20)) ≈ 3.87e-6.
        let pb = ber(Modulation::Bpsk, 10.0);
        assert!((pb - 3.87e-6).abs() / 3.87e-6 < 0.05, "pb={pb}");
    }

    #[test]
    fn ber_ordering_by_constellation_density() {
        for &snr_db in &[5.0, 10.0, 15.0, 20.0] {
            let snr = db_to_linear(snr_db);
            let b = ber(Modulation::Bpsk, snr);
            let q = ber(Modulation::Qpsk, snr);
            let q16 = ber(Modulation::Qam16, snr);
            let q64 = ber(Modulation::Qam64, snr);
            assert!(b <= q && q <= q16 && q16 <= q64, "at {snr_db} dB");
        }
    }

    #[test]
    fn ber_monotone_in_snr() {
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
        ] {
            let mut prev = 0.6;
            for i in 0..60 {
                let snr = db_to_linear(-5.0 + i as f64);
                let p = ber(m, snr);
                assert!(p <= prev + 1e-15, "{m:?} at index {i}");
                prev = p;
            }
        }
    }

    #[test]
    fn zero_snr_is_coin_flip() {
        assert_eq!(ber(Modulation::Bpsk, 0.0), 0.5);
        assert_eq!(ber(Modulation::Qam64, -1.0), 0.5);
    }

    #[test]
    fn per_bounds_and_monotonicity_in_length() {
        let snr = db_to_linear(8.0);
        let mcs = Mcs::new(3);
        let short = coded_per(mcs, snr, 100);
        let long = coded_per(mcs, snr, 1500);
        assert!((0.0..=1.0).contains(&short));
        assert!((0.0..=1.0).contains(&long));
        assert!(long >= short);
    }

    #[test]
    fn per_saturates_low_and_high() {
        let mcs = Mcs::new(7);
        assert!(coded_per(mcs, db_to_linear(-10.0), 1500) > 0.999);
        assert!(coded_per(mcs, db_to_linear(40.0), 1500) < 1e-9);
    }

    #[test]
    fn stronger_coding_helps() {
        // MCS1 (QPSK 1/2) must need less SNR than MCS2 (QPSK 3/4).
        let snr = db_to_linear(4.0);
        assert!(coded_per(Mcs::new(1), snr, 1500) < coded_per(Mcs::new(2), snr, 1500));
    }

    #[test]
    fn stbc_beats_siso_in_a_fade() {
        let faded = ChannelState {
            branch_gain: [0.1, 1.2],
            shadowing: 1.0,
            valid_until: SimTime::MAX,
        };
        let mean = db_to_linear(15.0);
        let siso = effective_snr_linear(Mcs::new(3), false, mean, &faded, Db::new(12.0));
        let stbc = effective_snr_linear(Mcs::new(3), true, mean, &faded, Db::new(12.0));
        assert!(stbc > siso);
    }

    #[test]
    fn sdm_capped_by_sir_at_high_snr() {
        let mean = db_to_linear(50.0);
        let eff = effective_snr_linear(Mcs::new(8), false, mean, &flat_state(), Db::new(12.0));
        let cap = db_to_linear(12.0);
        assert!(eff < cap && eff > 0.9 * cap);
    }

    #[test]
    fn link_chain_keeps_the_db_formula_bits() {
        // The link reads the coding gain and the SDM interference floor
        // as linear ratios computed once. Each must be the dB formula's
        // `powf`, bit for bit, at every input the link can produce.
        let ratio = |g: f64| 10f64.powf(g / 10.0);
        let sir_db = 12.0;
        let states = [
            flat_state(),
            ChannelState {
                branch_gain: [0.1, 1.2],
                shadowing: 0.8,
                valid_until: SimTime::MAX,
            },
            ChannelState {
                branch_gain: [2.3, 0.02],
                shadowing: 1.7,
                valid_until: SimTime::MAX,
            },
        ];
        for mcs in Mcs::all() {
            let gain = ratio(coding_gain_db(mcs.coding_rate()).get());
            // A gain one ulp off can leave every PER below unchanged.
            assert_eq!(coding_gain(mcs.coding_rate()).to_bits(), gain.to_bits());
            for stbc in [false, true] {
                for step in 0..=200 {
                    let mean = ratio(-10.0 + 0.25 * f64::from(step));
                    for state in &states {
                        let eff = if mcs.uses_sdm() {
                            let per_stream = mean * state.siso_gain();
                            1.0 / (1.0 / per_stream.max(1e-12) + 1.0 / ratio(sir_db))
                        } else if stbc {
                            mean * state.stbc_gain()
                        } else {
                            mean * state.siso_gain()
                        };
                        let linked = effective_snr(mcs, stbc, mean, state, ratio(sir_db));
                        let db_form = effective_snr_linear(mcs, stbc, mean, state, Db::new(sir_db));
                        assert_eq!(linked.to_bits(), eff.to_bits(), "{mcs} stbc {stbc}");
                        assert_eq!(db_form.to_bits(), eff.to_bits(), "{mcs} stbc {stbc}");
                        // A block ACK, a full subframe and a runt.
                        for len in [32, 1500, 437] {
                            let pb = ber(mcs.modulation(), eff * gain);
                            let want = 1.0 - ((1.0 - pb).ln() * (len * 8) as f64).exp();
                            let got = coded_per(mcs, eff, len);
                            assert_eq!(got.to_bits(), want.to_bits(), "{mcs} at {eff}, {len} B");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sdm_vs_stbc_crossover_with_distance() {
        // The paper's Figure 6: STBC MCS1 wins at mid range, SDM MCS8
        // (same 30 Mb/s PHY rate, more robust BPSK per stream) wins at the
        // far edge. Verify the underlying PER crossover exists.
        let state = flat_state();
        let per = |mcs: Mcs, stbc: bool, snr_db: f64| {
            let eff = effective_snr_linear(mcs, stbc, db_to_linear(snr_db), &state, Db::new(12.0));
            coded_per(mcs, eff, 1500)
        };
        // High SNR (short range): both fine, but push SIR-limited SDM into
        // a regime where it is clearly not *better*.
        assert!(per(Mcs::new(3), true, 25.0) <= per(Mcs::new(11), false, 25.0));
        // Low SNR (long range): MCS8's BPSK streams survive where QPSK
        // STBC of MCS1 needs more SNR; power split costs 3 dB but BPSK
        // buys ~3 dB and coding is equal, fading diversity is gone in a
        // flat state.
        let p8 = per(Mcs::new(8), false, 4.0);
        let p1 = per(Mcs::new(1), false, 4.0);
        assert!(p8 < p1, "p8={p8} p1={p1}");
    }
}
