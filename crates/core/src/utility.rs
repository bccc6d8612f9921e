//! The utility function of Eq. (1):
//! `U(d) = δ(d)·u(d) = exp(−ρ(d0−d)) / Cdelay(d)`.
//!
//! Candidate distances cross this API as [`Meters`], so handing the
//! utility a duration or a data rate by mistake is a compile error:
//!
//! ```compile_fail
//! use skyferry_core::scenario::Scenario;
//! use skyferry_core::utility::utility;
//! use skyferry_units::Seconds;
//! let s = Scenario::quadrocopter_baseline();
//! // Seconds where Meters belong: rejected at compile time.
//! let _ = utility(&s, Seconds::new(50.0));
//! ```
//!
//! [`Meters`]: skyferry_units::Meters

use skyferry_units::{Meters, Seconds};

use crate::delay::CommunicationDelay;
use crate::failure::FailureModel;
use crate::scenario::{Scenario, ScenarioView};
use crate::throughput::ThroughputModel;

/// Evaluate `U(d)` for a scenario at candidate distance `d`.
///
/// # Domain
/// Eq. (1) is only defined on the feasible interval `d ∈ [d_min, d0]` of
/// Eq. (2); outside it the survival factor would describe a leg the UAV
/// never flies and the value would be meaningless. Out-of-range inputs
/// are a caller bug: they are caught by a `debug_assert!` here and, in
/// all build profiles, by the hard domain assert inside
/// [`CommunicationDelay::at_view`] — the function never silently returns
/// a value for an infeasible distance.
///
/// ```
/// use skyferry_core::scenario::Scenario;
/// use skyferry_core::utility::utility;
/// use skyferry_units::Meters;
/// let s = Scenario::quadrocopter_baseline();
/// // Waiting to transmit at 50 m beats transmitting at the range edge.
/// assert!(utility(&s, Meters::new(50.0)) > utility(&s, Meters::new(99.0)));
/// ```
pub fn utility(scenario: &Scenario, d: Meters) -> f64 {
    utility_view(scenario.view(), d)
}

/// [`utility`] on a borrowed [`ScenarioView`] — the allocation-free form
/// the optimizer and sweeps evaluate thousands of times per cell.
///
/// The domain contract of [`utility`] applies unchanged.
pub fn utility_view(scenario: ScenarioView<'_>, d: Meters) -> f64 {
    debug_assert!(
        d.get() >= scenario.d_min_m - 1e-9 && d.get() <= scenario.d0_m + 1e-9,
        "utility evaluated outside the Eq. (2) domain: d={} not in [{}, {}]",
        d.get(),
        scenario.d_min_m,
        scenario.d0_m
    );
    let delay = CommunicationDelay::at_view(scenario, d);
    let survival = scenario.failure.survival(scenario.d0_m, d.get());
    survival / delay.total().get()
}

/// Relative slack on [`utility_bound_view`]: far above the last-ulp
/// wobble of a libm `exp`/`powf`/`log2` that is not exactly monotone,
/// far below any utility gap the optimizer could skip on.
const BOUND_SLACK: f64 = 1e-9;

/// An upper bound on [`utility_view`] over every `d ∈ [d1, d2]` — the
/// block bound that lets the optimizer's grid scan skip blocks that
/// cannot hold the maximum.
///
/// Each factor of Eq. (1) is bounded at one end of the block: δ rises
/// with `d`, so δ ≤ δ(d2); `Tship` falls with `d`, so `Tship ≥
/// Tship(d2)`; and `Ttx ≥ Mdata / s_max` with `s_max` the throughput
/// model's peak rate over the block (an end, or an empirical table's
/// knot inside it). The terms use the same typed operations as
/// [`utility_view`], so before its `1 + 1e-9` slack factor the bound of
/// a block whose peak rate is `s(d2)` is bit-equal to `U(d2)`.
///
/// Sound under the preconditions [`ScenarioView::validate`] asserts
/// (ρ ≥ 0 or a Weibull law with positive scale and shape, `v > 0`,
/// finite parameters); the domain contract of [`utility`] applies to
/// both ends.
pub fn utility_bound_view(scenario: ScenarioView<'_>, d1: Meters, d2: Meters) -> f64 {
    debug_assert!(
        d1 <= d2,
        "block bound needs d1 ≤ d2: {} > {}",
        d1.get(),
        d2.get()
    );
    let ship = (scenario.d0() - d2).max(Meters::ZERO) / scenario.speed();
    let tx = scenario.mdata() / scenario.throughput.peak_rate_bps(d1, d2);
    let survival = scenario.failure.survival(scenario.d0_m, d2.get());
    survival / (ship + tx).get() * (1.0 + BOUND_SLACK)
}

/// Eq. (1) generalised from the straight corridor to an arbitrary flown
/// path — the stage reward of the `skyferry-traj` planner.
///
/// `flown` metres of path and `elapsed` seconds of flight have already
/// been spent getting from the encounter to the current point; the
/// batch is then transmitted at radial distance `d` from the station:
///
/// ```text
/// U_path = survival(flown) / (elapsed + Mdata / s(d))
/// ```
///
/// The survival discount charges hazard per metre *actually flown*
/// (via [`FailureModel::survival_over`]) and the delay charges the
/// *actual* flight time, so a crabbed or wind-assisted path is valued
/// on its own geometry. With a straight zero-wind prefix — `flown`
/// computed as `0.0 + (d0 − d)` and `elapsed` as `0.0 + (d0 − d)/v` —
/// every intermediate float is bit-identical to [`utility_view`]
/// (`0.0 + x == x` and `x − 0.0 == x` hold exactly in IEEE-754), which
/// is the degenerate-equivalence guarantee the traj tests pin.
///
/// The domain contract of [`utility`] applies to `d`; `flown` and
/// `elapsed` must be non-negative.
pub fn path_utility_view(
    scenario: ScenarioView<'_>,
    flown: Meters,
    elapsed: Seconds,
    d: Meters,
) -> f64 {
    debug_assert!(
        flown.get() >= 0.0 && elapsed.get() >= 0.0,
        "path prefix must be non-negative: flown={} elapsed={}",
        flown.get(),
        elapsed.get()
    );
    debug_assert!(
        d.get() >= scenario.d_min_m - 1e-9 && d.get() <= scenario.d0_m + 1e-9,
        "path_utility evaluated outside the Eq. (2) domain: d={} not in [{}, {}]",
        d.get(),
        scenario.d_min_m,
        scenario.d0_m
    );
    let tx = scenario.mdata() / scenario.throughput.rate_bps(d);
    let survival = scenario.failure.survival_over(flown.get());
    survival / (elapsed + tx).get()
}

/// Both factors of Eq. (1) separately, for reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilityBreakdown {
    /// Candidate distance.
    pub d: Meters,
    /// Discount `δ(d)` (survival probability of the leg).
    pub survival: f64,
    /// Instantaneous utility `u(d) = 1/Cdelay(d)`, 1/s.
    pub instantaneous: f64,
    /// The product `U(d)`.
    pub utility: f64,
    /// The delay decomposition behind `u(d)`.
    pub delay: CommunicationDelay,
}

/// Evaluate Eq. (1) with its full decomposition.
///
/// The domain contract of [`utility`] applies unchanged: `d` must lie in
/// `[d_min, d0]`, enforced by `debug_assert!` here and by the hard
/// assert in [`CommunicationDelay::at_view`].
pub fn utility_breakdown(scenario: &Scenario, d: Meters) -> UtilityBreakdown {
    utility_breakdown_view(scenario.view(), d)
}

/// [`utility_breakdown`] on a borrowed [`ScenarioView`].
pub fn utility_breakdown_view(scenario: ScenarioView<'_>, d: Meters) -> UtilityBreakdown {
    debug_assert!(
        d.get() >= scenario.d_min_m - 1e-9 && d.get() <= scenario.d0_m + 1e-9,
        "utility_breakdown evaluated outside the Eq. (2) domain: d={} not in [{}, {}]",
        d.get(),
        scenario.d_min_m,
        scenario.d0_m
    );
    let delay = CommunicationDelay::at_view(scenario, d);
    let survival = scenario.failure.survival(scenario.d0_m, d.get());
    let instantaneous = 1.0 / delay.total().get();
    UtilityBreakdown {
        d,
        survival,
        instantaneous,
        utility: survival * instantaneous,
        delay,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn m(v: f64) -> Meters {
        Meters::new(v)
    }

    #[test]
    fn utility_is_positive_and_bounded() {
        let s = Scenario::airplane_baseline();
        for i in 0..50 {
            let d = 20.0 + i as f64 * (300.0 - 20.0) / 49.0;
            let u = utility(&s, m(d));
            assert!(u > 0.0 && u.is_finite());
            // δ ≤ 1 so U ≤ u = 1/Cdelay ≤ 1/Ttx(d0-free case); loose
            // upper bound: transmission alone takes > 4.5 s here.
            assert!(u < 1.0);
        }
    }

    #[test]
    fn breakdown_consistent() {
        let s = Scenario::quadrocopter_baseline();
        let b = utility_breakdown(&s, m(60.0));
        assert!((b.utility - b.survival * b.instantaneous).abs() < 1e-15);
        assert!((b.instantaneous - 1.0 / b.delay.total_s()).abs() < 1e-15);
        assert_eq!(b.d, m(60.0));
        assert!((b.utility - utility(&s, m(60.0))).abs() < 1e-15);
    }

    #[test]
    fn point_bound_is_the_slacked_utility_bitwise() {
        // On a one-point block the bound takes the same float path as
        // `utility_view`, so only the slack separates them.
        for s in [
            Scenario::airplane_baseline(),
            Scenario::quadrocopter_baseline().with_rho(0.5),
        ] {
            let v = s.view();
            for d in [v.d_min_m, 33.3, v.d0_m] {
                assert_eq!(
                    utility_bound_view(v, m(d), m(d)).to_bits(),
                    (utility_view(v, m(d)) * (1.0 + BOUND_SLACK)).to_bits(),
                    "{} at {d}",
                    s.name
                );
            }
        }
    }

    #[test]
    fn block_bound_covers_an_interior_rate_peak() {
        // The rate peaks at the 50 m knot, inside [40, 60]: a bound built
        // from the block's end rates alone would undercut U(50).
        use crate::throughput::{EmpiricalThroughput, ThroughputSpec};
        let mut s = Scenario::quadrocopter_baseline().with_rho(0.0);
        s.throughput = ThroughputSpec::Empirical(EmpiricalThroughput::new(vec![
            (20.0, 5e6),
            (50.0, 40e6),
            (100.0, 5e6),
        ]));
        let v = s.view();
        assert!(utility_bound_view(v, m(40.0), m(60.0)) >= utility_view(v, m(50.0)));
    }

    #[test]
    fn zero_rho_reduces_to_pure_delay_minimisation() {
        let s = Scenario::airplane_baseline().with_rho(0.0);
        let b = utility_breakdown(&s, m(150.0));
        assert_eq!(b.survival, 1.0);
        assert!((b.utility - b.instantaneous).abs() < 1e-15);
    }

    #[test]
    fn discount_pulls_utility_down_when_moving() {
        // With a huge failure rate, moving at all is bad: U(d0) must beat
        // any significant repositioning.
        let s = Scenario::quadrocopter_baseline().with_rho(0.05);
        assert!(utility(&s, s.d0()) > utility(&s, m(40.0)));
    }

    #[test]
    fn path_utility_with_zero_prefix_is_bitwise_utility() {
        // The degenerate-equivalence anchor: folding a straight
        // zero-wind prefix into the path form reproduces Eq. (1) to the
        // last bit at every candidate distance.
        for s in [
            Scenario::airplane_baseline(),
            Scenario::quadrocopter_baseline().with_mdata_mb(10.0),
        ] {
            let v = s.view();
            for i in 0..200 {
                let d = v.d_min_m + (v.d0_m - v.d_min_m) * i as f64 / 199.0;
                let travel = Meters::new(0.0 + (v.d0_m - d));
                let elapsed = Seconds::new(0.0) + travel / v.speed();
                let flown = Meters::new(0.0) + travel;
                let path = path_utility_view(v, flown, elapsed, m(d));
                assert_eq!(
                    path.to_bits(),
                    utility_view(v, m(d)).to_bits(),
                    "{} at d={d}",
                    s.name
                );
            }
        }
    }

    #[test]
    fn longer_detours_cost_utility() {
        // Same transmit distance, longer flown path and elapsed time:
        // both the hazard discount and the delay must penalise it.
        let s = Scenario::quadrocopter_baseline().with_mdata_mb(10.0);
        let v = s.view();
        let d = m(60.0);
        let direct = path_utility_view(v, m(40.0), Seconds::new(40.0 / v.v_mps), d);
        let detour = path_utility_view(v, m(90.0), Seconds::new(90.0 / v.v_mps), d);
        assert!(detour < direct);
        // A faster path of the same length (tailwind) is worth more.
        let assisted = path_utility_view(v, m(40.0), Seconds::new(25.0 / v.v_mps), d);
        assert!(assisted > direct);
    }

    #[test]
    fn doctest_scenario_holds() {
        let s = Scenario::quadrocopter_baseline();
        assert!(utility(&s, m(50.0)) > utility(&s, m(99.0)));
    }

    #[test]
    #[should_panic]
    fn out_of_domain_panics_below_dmin() {
        // Out-of-range candidates are a caller bug: debug_assert here,
        // hard assert in the delay layer — never a silent bogus value.
        let s = Scenario::quadrocopter_baseline();
        let _ = utility(&s, m(5.0));
    }

    #[test]
    #[should_panic]
    fn out_of_domain_panics_beyond_d0() {
        let s = Scenario::quadrocopter_baseline();
        let _ = utility_breakdown(&s, m(150.0));
    }
}
