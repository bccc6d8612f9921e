//! Shared-medium contention models behind the [`MediumAccess`] trait.
//!
//! With K UAVs sharing one ground station, the now-or-later tradeoff of
//! Eq. (2) changes in two coupled ways:
//!
//! 1. **Slot share.** Each contender only holds the medium a fraction
//!    σ(K) of the time, so the throughput model becomes `σ·s(d)` — the
//!    transmit leg stretches by 1/σ. On its own this pushes d\* *inward*
//!    (a longer transfer is the same as a bigger `Mdata`, and the paper
//!    shows larger batches favour flying closer).
//! 2. **Slot retention.** While a UAV spends `Tship = (d0−d)/v` flying
//!    closer, contenders can claim its access slot: reservations time
//!    out, priority queues reorder, schedulers move on. We model slot
//!    loss as a Poisson process with hazard λ(K) per second of
//!    shipping, so the probability of still holding a slot on arrival
//!    is `exp(−λ·Tship) = exp(−(λ/v)·(d0−d))` — *exactly the form of
//!    the paper's failure discount* `δ(d) = exp(−ρ·(d0−d))`. Contention
//!    therefore composes into the existing exponential law as an
//!    effective rate `ρ' = ρ + λ/v`, and pushes d\* *outward* (the
//!    paper shows d\* grows with ρ): transmit earlier before someone
//!    takes your slot.
//!
//! [`contended`] applies both to a [`Scenario`], returning a scenario
//! the *unmodified* Eq. (2) optimizer solves; which force wins is then
//! an output of the model, not an assumption. Two concrete MACs:
//!
//! * [`CyclicalTdma`] — cyclical TDMA in the style of Lyu et al.
//!   ("Cyclical Multiple Access in UAV-Aided Communications"): the
//!   cycle is divided into K equal slots (σ = 1/K) and a UAV that is
//!   not at its rendezvous when its slot comes around forfeits it, so
//!   the retention hazard carries the full per-contender rate.
//! * [`UdMac`] — a UD-MAC-style delay-tolerant priority scheme: UAVs
//!   with data ready preempt idle slots, so the effective contention is
//!   only the fraction α of contenders actively transferring (σ =
//!   1/(1+α·(K−1))) and reservations are held for late arrivals,
//!   reducing the retention hazard by the same α.

use skyferry_core::failure::{ExponentialFailure, FailureSpec};
use skyferry_core::scenario::Scenario;
use skyferry_core::throughput::ThroughputSpec;
use skyferry_units::Seconds;

/// A medium-access discipline for K contenders on one ground station.
///
/// Implementations must be deterministic pure functions of the
/// contender count: campaigns call these from seeded parallel sweeps
/// and rely on bit-identical replay.
pub trait MediumAccess {
    /// Short label for tables and traces.
    fn name(&self) -> &'static str;

    /// Duration of one full access cycle with `contenders` UAVs.
    fn cycle(&self, contenders: usize) -> Seconds;

    /// Fraction of the medium granted to each of `contenders` UAVs,
    /// in `(0, 1]`. One contender always owns the whole medium.
    fn slot_share(&self, contenders: usize) -> f64;

    /// Rate at which a repositioning UAV loses its access slot, per
    /// second of shipping time (0 for a sole contender).
    fn retention_hazard_per_s(&self, contenders: usize) -> f64;
}

/// Cyclical TDMA: K equal slots per cycle, forfeited when missed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CyclicalTdma {
    /// Duration of one slot.
    pub slot: Seconds,
    /// Slot-loss hazard contributed by each *other* contender, 1/s.
    pub loss_per_contender_per_s: f64,
}

impl CyclicalTdma {
    /// The default schedule used by the fleet experiments: 2 s slots,
    /// and a ~30 s reservation timeout per rival — while a UAV is off
    /// repositioning, each contender claims its slot at rate 1/30 s
    /// (the scheduler reclaims unused cyclical slots after a handful
    /// of missed cycles).
    pub const BASELINE: CyclicalTdma = CyclicalTdma {
        slot: Seconds::new(2.0),
        loss_per_contender_per_s: 0.0333,
    };
}

impl MediumAccess for CyclicalTdma {
    fn name(&self) -> &'static str {
        "tdma"
    }

    fn cycle(&self, contenders: usize) -> Seconds {
        assert!(contenders >= 1, "need at least one contender");
        Seconds::new(self.slot.get() * contenders as f64)
    }

    fn slot_share(&self, contenders: usize) -> f64 {
        assert!(contenders >= 1, "need at least one contender");
        1.0 / contenders as f64
    }

    fn retention_hazard_per_s(&self, contenders: usize) -> f64 {
        assert!(contenders >= 1, "need at least one contender");
        self.loss_per_contender_per_s * (contenders - 1) as f64
    }
}

/// UD-MAC-style delay-tolerant priority access: only the fraction of
/// contenders actively transferring costs medium time, and reserved
/// slots are held for late arrivals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UdMac {
    /// Duration of one priority slot.
    pub slot: Seconds,
    /// Fraction of contenders actively transferring at any time
    /// (duty cycle), in `(0, 1]`.
    pub active_fraction: f64,
    /// Slot-loss hazard contributed by each other *active* contender,
    /// 1/s (same base rate as TDMA; UD-MAC discounts it by the duty
    /// cycle because reservations are delay-tolerant).
    pub loss_per_contender_per_s: f64,
}

impl UdMac {
    /// The default UD-MAC parameters used by the fleet experiments:
    /// 30% duty cycle over 2 s slots, with the same ~30 s base
    /// reservation timeout as TDMA (discounted by the duty cycle, so
    /// delay-tolerant reservations survive ~3× longer).
    pub const BASELINE: UdMac = UdMac {
        slot: Seconds::new(2.0),
        active_fraction: 0.3,
        loss_per_contender_per_s: 0.0333,
    };
}

impl MediumAccess for UdMac {
    fn name(&self) -> &'static str {
        "ud-mac"
    }

    fn cycle(&self, contenders: usize) -> Seconds {
        assert!(contenders >= 1, "need at least one contender");
        let active = 1.0 + self.active_fraction * (contenders - 1) as f64;
        Seconds::new(self.slot.get() * active)
    }

    fn slot_share(&self, contenders: usize) -> f64 {
        assert!(contenders >= 1, "need at least one contender");
        assert!(
            self.active_fraction > 0.0 && self.active_fraction <= 1.0,
            "duty cycle must be in (0, 1]"
        );
        1.0 / (1.0 + self.active_fraction * (contenders - 1) as f64)
    }

    fn retention_hazard_per_s(&self, contenders: usize) -> f64 {
        assert!(contenders >= 1, "need at least one contender");
        self.active_fraction * self.loss_per_contender_per_s * (contenders - 1) as f64
    }
}

/// The scenario one of `contenders` UAVs actually faces on a shared
/// medium: throughput discounted by slot share, and the slot-retention
/// hazard folded into the exponential failure law as `ρ' = ρ + λ/v`.
///
/// The result owns the scaled rate model, and its
/// [`scenario`](Contended::scenario) borrows it: that scenario is solved
/// by the unmodified Eq. (2) optimizer, so every figure, golden CSV,
/// policy table and serving path composes with contention for free.
///
/// # Panics
/// Panics if the scenario does not carry the paper's exponential
/// failure law (the hazard composition is exponential-specific).
pub fn contended<'a>(
    base: Scenario<'a>,
    medium: &dyn MediumAccess,
    contenders: usize,
) -> Contended<'a> {
    let share = medium.slot_share(contenders);
    let hazard = medium.retention_hazard_per_s(contenders);
    let rho = match base.failure {
        FailureSpec::Exponential(e) => e.rho_per_m,
        FailureSpec::Weibull(_) => {
            panic!("shared-medium contention composes with the exponential failure law only")
        }
    };
    Contended {
        base: Scenario {
            failure: FailureSpec::Exponential(ExponentialFailure::new(rho + hazard / base.v_mps)),
            ..base
        },
        throughput: base.throughput.scaled(share),
    }
}

/// What [`contended`] returns: the contended scenario, and the rate
/// model it borrows.
#[derive(Debug, Clone)]
pub struct Contended<'a> {
    /// The base scenario with the contended failure law.
    base: Scenario<'a>,
    /// The base rate model scaled by the slot share.
    throughput: ThroughputSpec,
}

impl Contended<'_> {
    /// The contended Eq. (2) query.
    pub fn scenario(&self) -> Scenario<'_> {
        Scenario {
            throughput: &self.throughput,
            ..self.base
        }
    }

    /// The contended failure rate `ρ' = ρ + λ/v`, 1/m: the law the
    /// contended query solves under.
    pub fn rho_per_m(&self) -> f64 {
        match self.base.failure {
            FailureSpec::Exponential(e) => e.rho_per_m,
            FailureSpec::Weibull(_) => unreachable!("`contended` builds an exponential law"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyferry_core::optimizer::optimize;
    use skyferry_core::throughput::ThroughputModel;
    use skyferry_units::Meters;

    #[test]
    fn sole_contender_changes_nothing() {
        let base = Scenario::quadrocopter_baseline();
        for medium in [
            &CyclicalTdma::BASELINE as &dyn MediumAccess,
            &UdMac::BASELINE as &dyn MediumAccess,
        ] {
            assert_eq!(medium.slot_share(1), 1.0);
            assert_eq!(medium.retention_hazard_per_s(1), 0.0);
            let c = contended(base, medium, 1);
            assert_eq!(optimize(c.scenario()), optimize(base));
        }
    }

    #[test]
    fn tdma_share_is_one_over_k() {
        let m = CyclicalTdma::BASELINE;
        assert_eq!(m.slot_share(4), 0.25);
        assert_eq!(m.cycle(4), Seconds::new(8.0));
        assert_eq!(
            m.retention_hazard_per_s(4),
            m.loss_per_contender_per_s * 3.0
        );
    }

    #[test]
    fn udmac_shares_dominate_tdma() {
        // Delay-tolerant priority access wastes less of the medium: for
        // every K > 1 the UD-MAC share strictly exceeds the TDMA share
        // and its retention hazard is strictly smaller.
        let t = CyclicalTdma::BASELINE;
        let u = UdMac::BASELINE;
        for k in 2..=16 {
            assert!(u.slot_share(k) > t.slot_share(k), "share at K={k}");
            assert!(
                u.retention_hazard_per_s(k) < t.retention_hazard_per_s(k),
                "hazard at K={k}"
            );
        }
    }

    #[test]
    fn contended_scales_rate_and_raises_rho() {
        let base = Scenario::quadrocopter_baseline();
        let c = contended(base, &CyclicalTdma::BASELINE, 4);
        let c = c.scenario();
        let d = Meters::new(40.0);
        let full = base.throughput.rate_bps(d).get();
        assert!((c.throughput.rate_bps(d).get() - full * 0.25).abs() < 1e-9);
        match (base.failure, c.failure) {
            (FailureSpec::Exponential(b), FailureSpec::Exponential(e)) => {
                let hazard = CyclicalTdma::BASELINE.loss_per_contender_per_s * 3.0;
                let expected = b.rho_per_m + hazard / base.v_mps;
                assert!((e.rho_per_m - expected).abs() < 1e-15);
            }
            _ => panic!("expected exponential laws"),
        }
    }

    #[test]
    #[should_panic]
    fn weibull_scenarios_are_rejected() {
        use skyferry_core::failure::WeibullFailure;
        let mut base = Scenario::quadrocopter_baseline();
        base.failure =
            FailureSpec::Weibull(WeibullFailure::new(Meters::new(5_000.0), 2.0, Meters::ZERO));
        let _ = contended(base, &CyclicalTdma::BASELINE, 2);
    }
}
