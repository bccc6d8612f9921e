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
//!
//! A simulated frame needs its PER only to decide whether a uniform draw
//! falls below it, and most draws fall far from it. A [`PerCurve`] holds
//! exact [`coded_per`] values of one (MCS, frame length) on a fixed grid
//! of effective SNRs, which bound the PER at any SNR between two points
//! because the PER is non-increasing in the SNR (DESIGN §3 gives the
//! argument and its error budget). A [`PerBracket`] decides a draw from
//! those bounds and runs the exact chain only when the draw falls
//! between them, so it returns what `DetRng::chance(coded_per(…))`
//! returns from the same single draw.
//!
//! [`PerCurve`]: crate::error::PerCurve
//! [`PerBracket`]: crate::error::PerBracket
//! [`coded_per`]: crate::error::coded_per

use std::collections::BTreeMap;
use std::sync::{Arc, LazyLock, Mutex};

use crate::fading::ChannelState;
use crate::mcs::{CodingRate, Mcs, Modulation};
use skyferry_sim::rng::DetRng;
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

/// The step of a [`PerCurve`]'s grid in the bits of an `f64`: its points
/// are the floats whose low 44 mantissa bits are zero, 256 per octave.
const GRID_SHIFT: u32 = 44;

/// Absolute slack of a [`PerCurve`] bound: 2^-30, 2^8 times the float
/// chain's worst departure of about 2^-38 from a non-increasing PER.
const SLACK: f64 = 1.0 / (1u64 << 30) as f64;

/// Exact [`coded_per`] values of one (MCS, frame length) at grid points
/// `e_i` of linear effective SNR, across the PER's transition: from the
/// last point whose PER is exactly 1 to the first whose PER is exactly 0.
///
/// Since the PER does not increase with the SNR, a PER at an SNR in
/// `[e_i, e_{i+1})` lies between `PER(e_{i+1})` and `PER(e_i)`, up to the
/// float chain's rounding, which a slack of 2^-30 covers. A curve is a pure
/// function of its MCS and length; [`PerCurve::shared`] builds each one
/// once per process.
#[derive(Debug)]
pub struct PerCurve {
    mcs: Mcs,
    len_bytes: usize,
    /// `e_0.to_bits() >> GRID_SHIFT`.
    first: usize,
    /// `coded_per` at `e_0`, `e_1`, …; never empty.
    per: Box<[f64]>,
}

impl PerCurve {
    /// Sample `coded_per(mcs, ·, len_bytes)` on the grid: a scan of one
    /// point per octave, outwards from 1, finds a point whose PER is 1
    /// and one whose PER is 0 (or stops at 2^-64 and 2^64), and the
    /// points between them are kept from the last whose PER is 1 to the
    /// first after it whose PER is 0.
    fn new(mcs: Mcs, len_bytes: usize) -> Self {
        const OCTAVE: u64 = 1 << 52;
        let per_at = |bits: u64| coded_per(mcs, f64::from_bits(bits), len_bytes);
        let (floor, ceil) = ((1023 - 64) * OCTAVE, (1023 + 64) * OCTAVE);
        let mut lo = 1f64.to_bits();
        while lo > floor && per_at(lo) < 1.0 {
            lo -= OCTAVE;
        }
        let mut hi = 1f64.to_bits();
        while hi < ceil && per_at(hi) > 0.0 {
            hi += OCTAVE;
        }
        let start = lo >> GRID_SHIFT;
        let mut first = start;
        let mut per = Vec::new();
        for i in start..=hi >> GRID_SHIFT {
            let p = per_at(i << GRID_SHIFT);
            if p == 1.0 {
                first = i;
                per.clear();
            }
            per.push(p);
            if p == 0.0 {
                break;
            }
        }
        PerCurve {
            mcs,
            len_bytes,
            // A grid index is below 2^19, so the cast keeps every bit.
            first: first as usize,
            per: per.into(),
        }
    }

    /// The process's curve of `(mcs, len_bytes)`, built on first use
    /// and shared by every caller after it.
    pub fn shared(mcs: Mcs, len_bytes: usize) -> Arc<PerCurve> {
        static CURVES: Mutex<BTreeMap<(Mcs, usize), Arc<PerCurve>>> = Mutex::new(BTreeMap::new());
        let mut curves = CURVES.lock().expect("a PER curve build panicked");
        Arc::clone(
            curves
                .entry((mcs, len_bytes))
                .or_insert_with(|| Arc::new(PerCurve::new(mcs, len_bytes))),
        )
    }

    /// An interval `(lo, hi)` that holds `coded_per` at effective SNR
    /// `eff`: within the slack of the PERs at the two points around it,
    /// open-ended past either end of the curve, and the whole line for
    /// an SNR that is not a positive normal float.
    #[inline]
    fn bounds(&self, eff: f64) -> (f64, f64) {
        if !(eff.is_normal() && eff > 0.0) {
            return (f64::NEG_INFINITY, f64::INFINITY);
        }
        // A positive float's grid index is below 2^19: the cast keeps it.
        let cell = (eff.to_bits() >> GRID_SHIFT) as usize;
        let last = self.per.len() - 1;
        if cell < self.first {
            (self.per[0] - SLACK, f64::INFINITY)
        } else if cell - self.first >= last {
            (f64::NEG_INFINITY, self.per[last] + SLACK)
        } else {
            let i = cell - self.first;
            (self.per[i + 1] - SLACK, self.per[i] + SLACK)
        }
    }

    /// The bracket of a `len_bytes`-byte frame at effective SNR `eff`.
    /// A frame shorter than the curve's has a PER no higher than the
    /// curve's at the same SNR, so it keeps the curve's upper bound and
    /// no lower bound.
    ///
    /// # Panics
    /// Panics if the frame is longer than the curve's.
    #[inline]
    pub fn bracket(&self, eff: f64, len_bytes: usize) -> PerBracket {
        assert!(
            len_bytes <= self.len_bytes,
            "a {} B curve cannot bound a {len_bytes} B frame",
            self.len_bytes
        );
        let (lo, hi) = self.bounds(eff);
        PerBracket {
            lo: if len_bytes == self.len_bytes {
                lo
            } else {
                f64::NEG_INFINITY
            },
            hi,
            mcs: self.mcs,
            eff,
            len_bytes,
        }
    }
}

/// An interval that holds one frame's PER, narrowed onto the PER itself
/// once a draw has needed it.
#[derive(Debug, Clone, Copy)]
pub struct PerBracket {
    lo: f64,
    hi: f64,
    mcs: Mcs,
    eff: f64,
    len_bytes: usize,
}

impl PerBracket {
    /// Whether the frame is lost: lost when one `rng.uniform()` draw is
    /// below `coded_per(mcs, eff, len_bytes)` clamped to `[0, 1]`, which
    /// is the draw and the decision of `DetRng::chance` on that PER. The
    /// exact chain runs only when the draw falls inside the bracket, and
    /// at most once per bracket; `exact_runs` counts its runs.
    #[inline]
    pub fn lost(&mut self, rng: &mut DetRng, exact_runs: &mut u64) -> bool {
        let u = rng.uniform();
        if u < self.lo {
            true
        } else if u >= self.hi {
            false
        } else {
            self.lost_exactly(u, exact_runs)
        }
    }

    /// [`PerBracket::lost`] for a draw `u` inside the bracket.
    #[cold]
    fn lost_exactly(&mut self, u: f64, exact_runs: &mut u64) -> bool {
        *exact_runs += 1;
        let per = coded_per(self.mcs, self.eff, self.len_bytes).clamp(0.0, 1.0);
        // `chance` loses no draw to a NaN PER, and none is lost to 0,
        // which also leaves a bracket that decides every later draw.
        let per = if per.is_nan() { 0.0 } else { per };
        self.lo = per;
        self.hi = per;
        u < per
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

    /// The linear SNR of grid point `i` of `curve`.
    fn grid_point(curve: &PerCurve, i: usize) -> f64 {
        f64::from_bits(((curve.first + i) as u64) << GRID_SHIFT)
    }

    /// Assert that the bracket of every `len` in `lens` at `eff` holds
    /// that frame's exact PER.
    fn assert_held(curve: &PerCurve, eff: f64, lens: &[usize]) {
        for &len in lens {
            let b = curve.bracket(eff, len);
            let per = coded_per(curve.mcs, eff, len);
            assert!(
                b.lo <= per && per <= b.hi,
                "{} at {eff:e} ({:#x}), {len} B: {per:e} outside [{:e}, {:e}]",
                curve.mcs,
                eff.to_bits(),
                b.lo,
                b.hi
            );
        }
    }

    #[test]
    fn curve_bounds_hold_the_per() {
        // Block ACKs, two runt lengths and full-size subframes, each on
        // its own curve; the full-size curve also bounds both runts.
        let mut rng = DetRng::seed(0x5eed);
        for mcs in Mcs::all() {
            for len in [32, 437, 1200, 1500] {
                let curve = PerCurve::new(mcs, len);
                let lens: &[usize] = if len == 1500 {
                    &[1500, 1200, 437]
                } else {
                    &[len]
                };
                let n = curve.per.len();
                // Every grid point, and 1–4 ulps to either side of it.
                for i in 0..n {
                    let bits = grid_point(&curve, i).to_bits();
                    for ulps in 0..=4 {
                        assert_held(&curve, f64::from_bits(bits + ulps), lens);
                        assert_held(&curve, f64::from_bits(bits - ulps), lens);
                    }
                }
                // Log-uniform SNRs from two octaves below the curve to
                // two octaves above it.
                let (lo, hi) = (grid_point(&curve, 0) / 4.0, grid_point(&curve, n - 1) * 4.0);
                for _ in 0..100_000 {
                    let eff = lo * (hi / lo).powf(rng.uniform());
                    assert_held(&curve, eff, lens);
                }
            }
        }
    }

    #[test]
    fn curves_span_the_transition_and_are_shared() {
        for mcs in Mcs::all() {
            for len in [32, 1500] {
                let curve = PerCurve::shared(mcs, len);
                assert!(Arc::ptr_eq(&curve, &PerCurve::shared(mcs, len)));
                assert_eq!(curve.per[0], 1.0, "{mcs}, {len} B");
                assert_eq!(curve.per[curve.per.len() - 1], 0.0, "{mcs}, {len} B");
                // 1 and 0 appear once each: at the ends.
                let inner = &curve.per[1..curve.per.len() - 1];
                assert!(inner.iter().all(|&p| 0.0 < p && p < 1.0), "{mcs}, {len} B");
            }
        }
    }

    #[test]
    fn snrs_off_the_grid_take_the_exact_chain() {
        let curve = PerCurve::new(Mcs::new(3), 1500);
        let subnormal = f64::MIN_POSITIVE / 2.0;
        for eff in [
            0.0,
            -0.0,
            -1.0,
            subnormal,
            f64::from_bits(1),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            for len in [1500, 437] {
                let b = curve.bracket(eff, len);
                assert_eq!((b.lo, b.hi), (f64::NEG_INFINITY, f64::INFINITY), "{eff:e}");
                // So every draw runs the chain, once, and decides as
                // `chance` does.
                let (mut a, mut want) = (DetRng::seed(9), DetRng::seed(9));
                let mut b = b;
                let mut runs = 0;
                for _ in 0..4 {
                    let p = coded_per(curve.mcs, eff, len);
                    assert_eq!(b.lost(&mut a, &mut runs), want.chance(p), "{eff:e}");
                }
                assert_eq!(runs, 1);
            }
        }
    }
}
