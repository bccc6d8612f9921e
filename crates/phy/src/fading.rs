//! Rician block fading with mobility-driven coherence time.
//!
//! Aerial UAV-to-UAV links are line-of-sight dominated, so small-scale
//! fading is Rician: a strong direct component of power `K/(K+1)` plus a
//! diffuse component of power `1/(K+1)` (ground reflections, airframe
//! scattering). Two mobility effects matter for the paper's results:
//!
//! 1. **Coherence time.** The channel decorrelates after roughly
//!    `Tc ≈ 0.423 / fd` where `fd = v·f/c` is the maximum Doppler shift at
//!    relative speed `v`. At 5.2 GHz and 20 m/s, `Tc ≈ 1.2 ms` — shorter
//!    than a large A-MPDU, and far shorter than the feedback loop of a
//!    sampling rate-control algorithm. This is the mechanism behind the
//!    paper's finding that auto-rate collapses in flight (Figure 6).
//! 2. **Orientation/attitude loss.** A banking airplane sweeps its antenna
//!    pattern nulls across the link; we fold this into a larger diffuse
//!    component (lower effective K) and an extra slow log-normal shadowing
//!    term for platforms under way.
//!
//! STBC (Alamouti) transmission achieves diversity order 2: the effective
//! post-combining channel power is the *average* of independent branch
//! powers, which shrinks fade depth. SDM splits power across two streams
//! that interfere when the channel matrix is rank-deficient — which a pure
//! LOS channel is — so each stream sees a self-interference floor that
//! caps its SINR (see [`FadingConfig::sdm_sir_db`]).
//!
//! [`FadingConfig::sdm_sir_db`]: crate::fading::FadingConfig::sdm_sir_db

use skyferry_sim::rng::DetRng;
use skyferry_sim::time::{SimDuration, SimTime};

use crate::channel::{db_to_linear, SPEED_OF_LIGHT_MPS};
use skyferry_units::{Db, MetersPerSec};

/// Static description of the small-scale channel around its mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FadingConfig {
    /// Rician K-factor in dB *at rest*. Large = LOS-dominated (calm
    /// hover), small = scattering/attitude-churn. The effective K drops
    /// with speed (see [`FadingConfig::effective_k_db`]): a platform under
    /// way pitches, banks and vibrates, scattering more power off the
    /// direct path.
    pub k_factor_db: f64,
    /// Reduction of the effective K-factor per m/s of relative speed, dB.
    pub k_speed_slope_db_per_mps: f64,
    /// Floor for the effective K-factor, dB.
    pub k_min_db: f64,
    /// Slow shadowing standard deviation *at rest*, dB (orientation
    /// changes, body blockage). Applied as an extra log-normal factor that
    /// resamples every [`FadingConfig::shadowing_coherence_s`] seconds and
    /// widens with speed (see [`FadingConfig::effective_shadowing_db`]).
    pub shadowing_sigma_db: f64,
    /// Extra shadowing standard deviation per m/s of relative speed, dB.
    pub shadowing_speed_slope_db_per_mps: f64,
    /// Mean SNR penalty per m/s of relative speed, dB — the attitude
    /// effect: a platform under way pitches/banks, sweeping its antenna
    /// pattern nulls towards the peer and raising motor EMI. Presets
    /// calibrated *in motion* (the airplane) fold this into their link
    /// budget and set it to zero; hover-calibrated presets (the
    /// quadrocopter) expose it explicitly.
    pub motion_loss_db_per_mps: f64,
    /// Time constant of the shadowing term, seconds. Physically the
    /// banking/heading-change period of the platform (~1 s), much longer
    /// than the small-scale coherence time.
    pub shadowing_coherence_s: f64,
    /// Carrier frequency, Hz (sets the Doppler scale).
    pub freq_hz: f64,
    /// Relative speed between the platforms, m/s. Also used as a *minimum*
    /// residual motion: hovering rotorcraft still jitter at ~0.5 m/s.
    pub relative_speed_mps: f64,
    /// Self-interference ratio (signal-to-interstream-interference) that
    /// each SDM stream experiences, dB. In a high-K LOS channel the two
    /// stream signatures are nearly collinear and this is low (~10-14 dB);
    /// rich indoor scattering would push it to 25 dB+.
    pub sdm_sir_db: f64,
}

impl FadingConfig {
    /// Minimum modelled motion (attitude jitter of a "hovering" platform).
    pub const MIN_SPEED_MPS: f64 = 0.5;

    /// Maximum Doppler shift `fd = v·f/c`, Hz.
    pub fn doppler_hz(&self) -> f64 {
        self.relative_speed_mps.max(Self::MIN_SPEED_MPS) * self.freq_hz / SPEED_OF_LIGHT_MPS
    }

    /// Coherence time `Tc ≈ 0.423/fd` (Clarke's model, 50 % correlation).
    pub fn coherence_time(&self) -> SimDuration {
        SimDuration::from_secs_f64(0.423 / self.doppler_hz())
    }

    /// Effective K-factor at the current relative speed.
    pub fn effective_k_db(&self) -> Db {
        Db::new(
            (self.k_factor_db - self.k_speed_slope_db_per_mps * self.relative_speed_mps)
                .max(self.k_min_db),
        )
    }

    /// Effective shadowing standard deviation at the current speed.
    pub fn effective_shadowing_db(&self) -> Db {
        Db::new(
            self.shadowing_sigma_db
                + self.shadowing_speed_slope_db_per_mps * self.relative_speed_mps,
        )
    }

    /// Mean SNR penalty at the current speed.
    pub fn motion_loss_db(&self) -> Db {
        Db::new(self.motion_loss_db_per_mps * self.relative_speed_mps)
    }
}

/// A sampled channel state, valid for one coherence block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelState {
    /// Linear power gain of one diversity branch (mean 1.0).
    pub branch_gain: [f64; 2],
    /// Linear power factor of the slow shadowing term (mean ≈ 1.0).
    pub shadowing: f64,
    /// When this state expires.
    pub valid_until: SimTime,
}

impl ChannelState {
    /// Effective channel power for a single-stream transmission without
    /// transmit diversity: one branch, shadowed.
    pub fn siso_gain(&self) -> f64 {
        self.branch_gain[0] * self.shadowing
    }

    /// Effective channel power with STBC (Alamouti over two TX antennas):
    /// the average of both branch powers — diversity order 2.
    pub fn stbc_gain(&self) -> f64 {
        0.5 * (self.branch_gain[0] + self.branch_gain[1]) * self.shadowing
    }
}

/// The parts of a resample that depend only on the relative speed:
/// recomputed when the speed changes, not on every resample.
#[derive(Debug, Clone, Copy)]
struct SpeedTerms {
    /// LOS amplitude `nu` of one Rician branch.
    nu: f64,
    /// Per-dimension diffuse amplitude `sigma` of one Rician branch.
    sigma: f64,
    /// How long a sampled state stays valid.
    coherence: SimDuration,
}

impl SpeedTerms {
    fn of(config: &FadingConfig) -> Self {
        let k = config.effective_k_db().ratio();
        // LOS amplitude nu and diffuse sigma chosen so E[power] = 1:
        // nu^2 = K/(K+1), 2*sigma^2 = 1/(K+1).
        SpeedTerms {
            nu: (k / (k + 1.0)).sqrt(),
            sigma: (0.5 / (k + 1.0)).sqrt(),
            coherence: config.coherence_time(),
        }
    }
}

/// A stateful block-fading process.
///
/// Call [`FadingProcess::state_at`] with the current simulation time; the
/// process resamples itself whenever the previous block expired. Sampling
/// is deterministic given the RNG seed and the sequence of query times.
#[derive(Debug, Clone)]
pub struct FadingProcess {
    config: FadingConfig,
    /// Always `SpeedTerms::of(&config)`.
    terms: SpeedTerms,
    rng: DetRng,
    current: Option<ChannelState>,
    shadow_expiry: Option<SimTime>,
    shadowing: f64,
    resamples: u64,
}

impl FadingProcess {
    /// Create a process with the given configuration and RNG.
    pub fn new(config: FadingConfig, rng: DetRng) -> Self {
        assert!(
            config.shadowing_coherence_s > 0.0,
            "shadowing coherence must be positive"
        );
        FadingProcess {
            config,
            terms: SpeedTerms::of(&config),
            rng,
            current: None,
            shadow_expiry: None,
            shadowing: 1.0,
            resamples: 0,
        }
    }

    /// The static configuration.
    pub fn config(&self) -> &FadingConfig {
        &self.config
    }

    /// Update the relative speed (the coherence time adapts from the next
    /// resample on). Used as the UAVs accelerate/decelerate.
    pub fn set_relative_speed(&mut self, v: MetersPerSec) {
        assert!(v.get() >= 0.0 && v.is_finite());
        if v.get().to_bits() != self.config.relative_speed_mps.to_bits() {
            self.config.relative_speed_mps = v.get();
            self.terms = SpeedTerms::of(&self.config);
        }
    }

    /// How many channel states this process has sampled (each draws
    /// four Gaussians).
    pub fn resamples(&self) -> u64 {
        self.resamples
    }

    /// Sample one Rician branch power (mean 1.0).
    fn sample_branch(&mut self) -> f64 {
        let SpeedTerms { nu, sigma, .. } = self.terms;
        let x = self.rng.normal(nu, sigma);
        let y = self.rng.normal(0.0, sigma);
        x * x + y * y
    }

    /// Channel state at time `now`, resampling expired blocks.
    pub fn state_at(&mut self, now: SimTime) -> ChannelState {
        if let Some(s) = self.current {
            if now < s.valid_until {
                return s;
            }
        }
        if self.shadow_expiry.is_none_or(|e| now >= e) {
            let db = self
                .rng
                .normal(0.0, self.config.effective_shadowing_db().get());
            self.shadowing = db_to_linear(db);
            self.shadow_expiry =
                Some(now + SimDuration::from_secs_f64(self.config.shadowing_coherence_s));
        }
        let state = ChannelState {
            branch_gain: [self.sample_branch(), self.sample_branch()],
            shadowing: self.shadowing,
            valid_until: now + self.terms.coherence,
        };
        self.current = Some(state);
        self.resamples += 1;
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(k_db: f64, v: f64) -> FadingConfig {
        FadingConfig {
            k_factor_db: k_db,
            k_speed_slope_db_per_mps: 0.0,
            k_min_db: 0.0,
            shadowing_sigma_db: 2.0,
            shadowing_speed_slope_db_per_mps: 0.0,
            motion_loss_db_per_mps: 0.0,
            shadowing_coherence_s: 1.0,
            freq_hz: 5.2e9,
            relative_speed_mps: v,
            sdm_sir_db: 12.0,
        }
    }

    fn process(k_db: f64, v: f64, seed: u64) -> FadingProcess {
        FadingProcess::new(config(k_db, v), DetRng::seed(seed))
    }

    #[test]
    fn doppler_and_coherence_scale_with_speed() {
        let slow = config(10.0, 1.0);
        let fast = config(10.0, 20.0);
        assert!(fast.doppler_hz() > slow.doppler_hz());
        assert!(fast.coherence_time() < slow.coherence_time());
        // 20 m/s at 5.2 GHz: fd ≈ 347 Hz, Tc ≈ 1.2 ms.
        let tc = fast.coherence_time().as_secs_f64();
        assert!((tc - 1.2e-3).abs() < 0.2e-3, "tc={tc}");
    }

    #[test]
    fn hover_speed_clamped_to_residual_jitter() {
        let hover = config(12.0, 0.0);
        assert!(hover.doppler_hz() > 0.0);
        assert!(hover.coherence_time().as_secs_f64() < 1.0);
    }

    #[test]
    fn branch_power_mean_is_one() {
        let mut p = process(6.0, 5.0, 1);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| p.sample_branch()).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.03, "mean={mean}");
    }

    #[test]
    fn high_k_fades_less() {
        let var = |k_db: f64| {
            let mut p = process(k_db, 5.0, 2);
            let n = 20_000;
            let xs: Vec<f64> = (0..n).map(|_| p.sample_branch()).collect();
            let m = xs.iter().sum::<f64>() / n as f64;
            xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n as f64
        };
        assert!(var(12.0) < var(3.0) * 0.5);
    }

    #[test]
    fn state_is_stable_within_coherence_block() {
        let mut p = process(10.0, 10.0, 3);
        let s0 = p.state_at(SimTime::ZERO);
        let mid = SimTime::from_nanos((s0.valid_until.as_nanos() as f64 * 0.5) as u64);
        let s1 = p.state_at(mid);
        assert_eq!(s0, s1);
        let s2 = p.state_at(s0.valid_until);
        assert_ne!(s0.branch_gain, s2.branch_gain);
    }

    #[test]
    fn stbc_reduces_fade_variance_vs_siso() {
        let mut p = process(3.0, 10.0, 4);
        let mut t = SimTime::ZERO;
        let mut siso = Vec::new();
        let mut stbc = Vec::new();
        for _ in 0..5_000 {
            let s = p.state_at(t);
            siso.push(s.branch_gain[0]);
            stbc.push(0.5 * (s.branch_gain[0] + s.branch_gain[1]));
            t = s.valid_until;
        }
        let var = |xs: &[f64]| {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64
        };
        assert!(var(&stbc) < var(&siso) * 0.7);
    }

    #[test]
    fn speed_change_refreshes_the_speed_terms() {
        // K falls with speed here, so the branch amplitudes move too.
        let cfg = |v: f64| FadingConfig {
            k_speed_slope_db_per_mps: 0.5,
            ..config(6.0, v)
        };
        // Re-speeded before its first sample, a process samples exactly
        // like one built at the new speed.
        for v in [0.0, 3.0, 12.0] {
            let mut moved = FadingProcess::new(cfg(20.0), DetRng::seed(9));
            moved.set_relative_speed(MetersPerSec::new(v));
            let mut built = FadingProcess::new(cfg(v), DetRng::seed(9));
            assert_eq!(moved.state_at(SimTime::ZERO), built.state_at(SimTime::ZERO));
        }
        // Mid-run, each new block lasts the new speed's coherence time.
        let mut p = FadingProcess::new(cfg(0.0), DetRng::seed(9));
        for (i, v) in [0.0, 12.0, 12.0, 3.0, 0.0].into_iter().enumerate() {
            p.set_relative_speed(MetersPerSec::new(v));
            let t = SimTime::from_secs(i as u64);
            assert_eq!(p.state_at(t).valid_until, t + cfg(v).coherence_time());
        }
        assert_eq!(p.resamples(), 5);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = process(8.0, 6.0, 42);
        let mut b = process(8.0, 6.0, 42);
        for i in 0..100 {
            let t = SimTime::from_millis(i * 7);
            assert_eq!(a.state_at(t), b.state_at(t));
        }
    }
}
