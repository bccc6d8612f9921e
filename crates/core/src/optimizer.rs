//! Solving Eq. (2): `max_d U(d)` subject to `d_min ≤ d ≤ d0`.
//!
//! The paper notes that `U(d)` is approximately concave for `ρ ≪ 1` but
//! *not* in general ("this result does not hold for higher ρ and may not
//! hold for other s(d) functions"), so a pure golden-section search can
//! converge to a local optimum. The solver therefore runs a dense grid
//! scan to locate the global basin and then refines the best bracket
//! with golden-section search — robust to multimodality at grid
//! resolution, with ~1e-6 m final precision.
//!
//! # Bound-pruned scan
//!
//! The grid scan's answer is the *first* index of the grid maximum, and
//! everything downstream (the golden-section bracket, the final pick)
//! is a function of that index. [`search_max_points`] finds the same
//! index while skipping most of the grid, and evaluates each grid point
//! it visits once, into a point that both the scan's comparison and the
//! block bounds read:
//!
//! 1. it evaluates the 65 knots (grid points 0, 32, …, 2016 and the last
//!    point, 2047) and takes their maximum as a threshold `T`;
//! 2. it walks the 32-point blocks in order and skips any block whose
//!    caller-supplied bound over its two end knots is strictly below
//!    `max(T, running best)`;
//! 3. in a surviving block it evaluates the three inner sub-block starts
//!    (every 8th point) and does the same for each 8-point sub-block,
//!    bounded over its start and the next start or knot; a surviving
//!    sub-block evaluates its other points.
//!
//! A block's bound spans one grid step more than the block, up to the
//! next knot, which can only loosen it. Knots and starts are evaluated
//! once: the same point is an end of the bounds beside it and a value
//! the scan offers when its sub-block survives.
//!
//! `T` and the running best are values the full scan also computes at
//! grid points, so both are ≤ the grid maximum `M`. A skipped point lies
//! under a bound strictly below `M`, so its value is strictly below `M`
//! and it can be neither the first argmax nor tie with it; the points
//! that are evaluated are visited in grid order with the same strict `>`
//! update. The scan therefore ends on the full scan's `(index, value)`,
//! bit for bit, whenever the bound is sound.
//!
//! [`optimize`] evaluates each point into Eq. (1)'s factors, a
//! [`UtilityPoint`], and bounds a block with
//! [`UtilityPoint::bound_to`]: plain arithmetic on the factors at the
//! two ends, bit-equal to
//! [`utility_bound`](crate::utility::utility_bound) on their
//! distances. Its soundness rests on δ rising with `d` (ρ ≥ 0, or a
//! Weibull law with positive scale and shape) and on `v > 0` —
//! preconditions [`check`](crate::scenario::Scenario::check) states
//! and [`validate`](crate::scenario::Scenario::validate) asserts
//! before every solve, together with the finite hazard and positive
//! transmit time that keep `U` from ever being NaN — and it carries a
//! 1e-9 relative slack so that a last-ulp non-monotonicity in libm's
//! `exp`, `powf` or `log2` cannot make it cut a block that holds the
//! maximum. [`search_max`] is the same scan for an objective and bound
//! on bare distances; a caller without a bound passes
//! `|_, _| f64::INFINITY` and gets the full scan, every grid point
//! evaluated once. `skyferry-traj` does, because its path objective has
//! no such bound.
//!
//! Golden-section refinement is unchanged. The final pick compares the
//! refined point, the grid best, `lo` and `hi` under `Iterator::max_by`'s
//! rule — a later candidate wins a tie — but reuses the scan's values for
//! the grid best and `lo`, so it evaluates the objective twice, not six
//! times.
//!
//! This module contains no `unsafe` code (audited for the determinism
//! pass; the crate is `#![forbid(unsafe_code)]`).
//!
//! [`search_max`]: crate::optimizer::search_max
//! [`search_max_points`]: crate::optimizer::search_max_points
//! [`optimize`]: crate::optimizer::optimize
//! [`UtilityPoint`]: crate::utility::UtilityPoint
//! [`UtilityPoint::bound_to`]: crate::utility::UtilityPoint::bound_to

use skyferry_units::Meters;

use crate::scenario::Scenario;
use crate::utility::{utility, utility_breakdown, UtilityPoint};

/// Number of initial grid points.
pub(crate) const GRID_POINTS: usize = 2048;
/// The last grid point's index.
const LAST: usize = GRID_POINTS - 1;
/// Grid points per block.
const BLOCK: usize = 32;
/// Block ends: every 32nd grid point, then the last one. Their values
/// seed the skip threshold.
const KNOTS: usize = GRID_POINTS / BLOCK + 1;
/// Grid points per sub-block, the skip unit inside a surviving block.
const SUB_BLOCK: usize = 8;
const _: () = assert!(BLOCK == 4 * SUB_BLOCK);
/// Golden-section iterations (interval shrinks by 0.618 each).
const GOLDEN_ITERS: usize = 80;

/// The solved optimum of Eq. (2).
///
/// This is the report/serialisation layer, so fields are raw `f64` in
/// the documented units; the evaluation pipeline behind it (utility,
/// delay, throughput) is fully typed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimalTransfer {
    /// The optimal transmission distance `dopt`, metres.
    pub d_opt: f64,
    /// `U(dopt)`.
    pub utility: f64,
    /// Survival probability of the repositioning leg, `δ(dopt)`.
    pub survival: f64,
    /// Shipping time at the optimum, seconds.
    pub ship_s: f64,
    /// Transmission time at the optimum, seconds.
    pub tx_s: f64,
}

impl OptimalTransfer {
    /// Total communication delay at the optimum, seconds.
    // lint:allow-line(unit-safety): report-layer raw accessor over raw f64 report fields
    pub fn cdelay_s(&self) -> f64 {
        self.ship_s + self.tx_s
    }

    /// `true` when the optimum is to transmit immediately from `d0`:
    /// `d_opt` lies within 1 mm of it. This is the one transmit-now rule
    /// of every report and served answer.
    pub fn transmit_now(&self, d0: Meters) -> bool {
        (d0.get() - self.d_opt).abs() < 1e-3
    }
}

/// Grid point `i` of [`search_max`]'s scan over `[lo, hi]`.
/// [`Scenario::check`] refuses a scenario whose last point lands past `hi`.
pub(crate) fn grid_point(lo: f64, hi: f64, i: usize) -> f64 {
    lo + (hi - lo) * i as f64 / (GRID_POINTS - 1) as f64
}

/// What [`search_max_points`] evaluates at a candidate distance: a value
/// to maximise, plus whatever a block bound reads from the point.
pub trait GridPoint: Copy {
    /// The objective at this point.
    fn value(&self) -> f64;
}

/// A distance and the objective there: the point of [`search_max`].
impl GridPoint for (f64, f64) {
    fn value(&self) -> f64 {
        self.1
    }
}

/// Eq. (1)'s factors; the value is `U(d)`.
impl GridPoint for UtilityPoint {
    fn value(&self) -> f64 {
        self.utility()
    }
}

/// [`search_max_points`] for an objective `f` on raw metres and a bound
/// `bound(d1, d2)` on distances: `f` must never return NaN, and
/// `bound(d1, d2)` must be ≥ `f(d)` at every grid point `d ∈ [d1, d2]`.
/// `skyferry-traj` passes `|_, _| f64::INFINITY`, so the scan evaluates
/// every grid point.
pub fn search_max(
    lo: Meters,
    hi: Meters,
    f: impl Fn(f64) -> f64,
    bound: impl Fn(f64, f64) -> f64,
) -> Meters {
    search_max_points(lo, hi, |d| (d, f(d)), |p1, p2| bound(p1.0, p2.0))
}

/// Maximise an arbitrary objective over `[lo, hi]` with the Eq. (2)
/// solver's strategy: a dense grid scan to locate the global basin,
/// golden-section refinement of the best bracket, then a final
/// comparison against the raw grid best and both interval endpoints.
///
/// `eval` is called on raw metres and returns the evaluated point; its
/// [`value`](GridPoint::value) may be `f64::NEG_INFINITY` for infeasible
/// candidates (the grid scan steps over them). `eval` must be a pure
/// function and its value never NaN. A degenerate interval
/// (`hi − lo < 1e-9`) returns `hi` without evaluating anything.
///
/// `bound(p1, p2)` must be ≥ the value at every grid point between the
/// distances of `p1` and `p2` (NaN counts as no bound); the scan skips
/// the grid blocks whose bound proves they cannot hold the maximum (see
/// the module docs). `|_, _| f64::INFINITY` is always sound and skips
/// nothing, and the scan then evaluates every grid point once.
///
/// Bit-exactness contract: policy tables, golden CSVs and the traj
/// planner's degenerate-equivalence guarantee all observe the exact
/// sequence of float operations here — [`optimize`] and
/// `skyferry-traj` (through [`search_max`]) run this one scan so the
/// scalar d\* and the planner's straight-corridor commit are the *same*
/// computation, not two computations that happen to agree. A sound
/// bound changes which grid points are evaluated, never the result.
pub fn search_max_points<P: GridPoint>(
    lo: Meters,
    hi: Meters,
    eval: impl Fn(f64) -> P,
    bound: impl Fn(P, P) -> f64,
) -> Meters {
    let lo = lo.get();
    let hi = hi.get();
    let at = |i: usize| grid_point(lo, hi, i);
    let f = |d: f64| eval(d).value();
    if hi - lo < 1e-9 {
        // Degenerate interval: the only choice is the upper endpoint.
        return Meters::new(hi);
    }
    // The knots are filled by a plain loop and the starts below by a
    // literal: built with `std::array::from_fn`, or the starts by an
    // indexing iterator, a whole solve measured about 1.4× slower.
    let mut knots = [eval(at(0)); KNOTS];
    for (k, p) in knots.iter_mut().enumerate().skip(1) {
        *p = eval(at((k * BLOCK).min(LAST)));
    }
    // `f64::max` drops NaN, so a NaN knot never raises the threshold.
    let seed = knots
        .iter()
        .fold(f64::NEG_INFINITY, |t, p| t.max(p.value()));
    let mut best = (0usize, f64::NEG_INFINITY);
    let offer = |best: &mut (usize, f64), i: usize, u: f64| {
        if u > best.1 {
            *best = (i, u);
        }
    };
    for (k, block_ends) in knots.windows(2).enumerate() {
        let block = k * BLOCK;
        if bound(block_ends[0], block_ends[1]) < seed.max(best.1) {
            continue;
        }
        // The four sub-blocks' starts, closed by the next knot.
        let starts = [
            block_ends[0],
            eval(at(block + SUB_BLOCK)),
            eval(at(block + 2 * SUB_BLOCK)),
            eval(at(block + 3 * SUB_BLOCK)),
            block_ends[1],
        ];
        for (j, ends) in starts.windows(2).enumerate() {
            let sub = block + j * SUB_BLOCK;
            if bound(ends[0], ends[1]) < seed.max(best.1) {
                continue;
            }
            offer(&mut best, sub, ends[0].value());
            for i in sub + 1..(sub + SUB_BLOCK).min(LAST) {
                offer(&mut best, i, f(at(i)));
            }
            if sub + SUB_BLOCK > LAST {
                // The last sub-block ends on the last knot.
                offer(&mut best, LAST, ends[1].value());
            }
        }
    }
    let (best_i, best_u) = best;

    // Refine inside the bracket around the best grid point.
    let mut a = at(best_i.saturating_sub(1));
    let mut b = at((best_i + 1).min(LAST));
    let inv_phi = (5f64.sqrt() - 1.0) / 2.0;
    let mut c = b - inv_phi * (b - a);
    let mut d = a + inv_phi * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);
    for _ in 0..GOLDEN_ITERS {
        if fc > fd {
            b = d;
            d = c;
            fd = fc;
            c = b - inv_phi * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + inv_phi * (b - a);
            fd = f(d);
        }
    }
    let d_opt = 0.5 * (a + b);
    // Compare against the refined point *and* the raw grid best, and the
    // interval endpoints (the optimum may sit on a constraint).
    // `at(0)` is `lo + 0.0`, which is `lo` itself unless `lo` is −0.0.
    let u_lo = if at(0).to_bits() == lo.to_bits() {
        knots[0].value()
    } else {
        f(lo)
    };
    let candidates = [
        (d_opt, f(d_opt)),
        (at(best_i), best_u),
        (lo, u_lo),
        (hi, f(hi)),
    ];
    let (best, _) = candidates
        .into_iter()
        .max_by(|x, y| x.1.partial_cmp(&y.1).expect("objective is not NaN"))
        .expect("non-empty candidates");
    Meters::new(best)
}

/// Solve Eq. (2) for `scenario`.
pub fn optimize(scenario: Scenario<'_>) -> OptimalTransfer {
    let _span = skyferry_trace::span!(
        "optimize",
        d0_m = scenario.d0_m,
        mdata_bytes = scenario.mdata_bytes
    );
    scenario.validate();
    let best = search_max_points(
        scenario.d_min(),
        scenario.d0(),
        |d| UtilityPoint::at(scenario, Meters::new(d)),
        |lo, hi| lo.bound_to(scenario, &hi),
    )
    .get();

    let bd = utility_breakdown(scenario, Meters::new(best));
    OptimalTransfer {
        d_opt: best,
        utility: bd.utility,
        survival: bd.survival,
        ship_s: bd.delay.ship_s(),
        tx_s: bd.delay.tx_s(),
    }
}

/// Evaluate `U` on a uniform grid over `[d_min, d0]` (for plotting
/// Figure 8 curves).
pub fn utility_curve(scenario: Scenario<'_>, points: usize) -> Vec<(f64, f64)> {
    assert!(points >= 2);
    let lo = scenario.d_min_m;
    let hi = scenario.d0_m;
    (0..points)
        .map(|i| {
            let d = lo + (hi - lo) * i as f64 / (points - 1) as f64;
            (d, utility(scenario, Meters::new(d)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::CommunicationDelay;
    use crate::utility::utility_bound;

    /// Closed-form optimality check for the ρ = 0 case: the optimum
    /// balances marginal transmit-time increase against marginal
    /// shipping-time decrease, `T'tx(d) = 1/v` (interior optima only).
    fn marginal_balance_residual(scenario: Scenario<'_>, d: Meters) -> f64 {
        let eps = 1e-3;
        let t = |d: f64| CommunicationDelay::at(scenario, Meters::new(d)).tx_s();
        let dtx = (t(d.get() + eps) - t(d.get() - eps)) / (2.0 * eps);
        dtx - 1.0 / scenario.v_mps
    }

    #[test]
    fn baseline_optima_pin_at_dmin() {
        // For the paper's large baseline batches (28 / 56.2 MB) the
        // marginal transmit-time saving of closing in exceeds 1/v all the
        // way down, so the optimum sits on the 20 m safety constraint.
        for s in [
            Scenario::airplane_baseline(),
            Scenario::quadrocopter_baseline(),
        ] {
            let o = optimize(s);
            assert!((o.d_opt - s.d_min_m).abs() < 0.5, "{s:?}: dopt={}", o.d_opt);
            assert!(o.utility > 0.0);
        }
    }

    #[test]
    fn moderate_batch_gives_interior_optimum() {
        // A 10 MB quadrocopter batch balances shipping against
        // transmission strictly inside (d_min, d0).
        let s = Scenario::quadrocopter_baseline().with_mdata_mb(10.0);
        let o = optimize(s);
        assert!(
            o.d_opt > s.d_min_m + 5.0 && o.d_opt < s.d0_m - 5.0,
            "dopt={}",
            o.d_opt
        );
    }

    #[test]
    fn optimum_beats_dense_grid() {
        let s = Scenario::airplane_baseline();
        let o = optimize(s);
        for (_, u) in utility_curve(s, 10_000) {
            assert!(o.utility >= u - 1e-12);
        }
    }

    #[test]
    fn zero_rho_satisfies_marginal_balance() {
        // With no failure risk an *interior* optimum solves T'tx = 1/v.
        let s = Scenario::quadrocopter_baseline()
            .with_mdata_mb(10.0)
            .with_rho(0.0);
        let o = optimize(s);
        assert!(o.d_opt > s.d_min_m + 2.0 && o.d_opt < s.d0_m - 2.0);
        let r = marginal_balance_residual(s, Meters::new(o.d_opt));
        assert!(r.abs() < 1e-3, "residual={r}");
    }

    #[test]
    fn dopt_increases_with_rho() {
        // Figure 8: "the optimal distance dopt increases with the failure
        // rate ρ" — risk pushes the UAV to transmit sooner (further out).
        let mut prev = 0.0;
        for rho in [1.11e-4, 1e-3, 2e-3, 5e-3, 1e-2] {
            let s = Scenario::airplane_baseline().with_rho(rho);
            let o = optimize(s);
            assert!(
                o.d_opt >= prev - 1e-6,
                "rho={rho}: dopt={} < prev={prev}",
                o.d_opt
            );
            prev = o.d_opt;
        }
    }

    #[test]
    fn huge_rho_transmits_immediately() {
        let s = Scenario::quadrocopter_baseline().with_rho(1.0);
        let o = optimize(s);
        assert!(o.transmit_now(s.d0()), "dopt={}", o.d_opt);
        assert_eq!(o.ship_s, 0.0);
    }

    #[test]
    fn dopt_invariant_to_d0_until_it_binds() {
        // Section 4: "dopt does not change having smaller d0 … as long as
        // d0 does not reach dopt. Once d0 = dopt, it becomes beneficial
        // to transmit immediately." (Near-invariance: ρ ≪ 1.) Use a
        // moderate batch so the optimum is interior.
        let base = Scenario::quadrocopter_baseline().with_mdata_mb(10.0);
        let d_opt_100 = optimize(base).d_opt;
        assert!(d_opt_100 > 40.0 && d_opt_100 < 95.0, "dopt={d_opt_100}");
        let d_opt_90 = optimize(base.with_d0(90.0)).d_opt;
        assert!(
            (d_opt_100 - d_opt_90).abs() < 3.0,
            "{d_opt_100} vs {d_opt_90}"
        );
        // Once d0 < dopt, the optimum pins to d0 (transmit now).
        let tight = base.with_d0(d_opt_100 - 20.0);
        let o = optimize(tight);
        assert!(o.transmit_now(tight.d0()), "dopt={}", o.d_opt);
    }

    #[test]
    fn transmit_now_holds_strictly_inside_a_millimetre() {
        let solved = |d_opt| OptimalTransfer {
            d_opt,
            utility: 0.0,
            survival: 1.0,
            ship_s: 0.0,
            tx_s: 0.0,
        };
        // |d0 − d_opt| of exactly 1e-3 m is not "now"; one ulp less is,
        // on either side of d0.
        let below = f64::from_bits(1e-3f64.to_bits() - 1);
        assert!(!solved(0.0).transmit_now(Meters::new(1e-3)));
        assert!(solved(0.0).transmit_now(Meters::new(below)));
        assert!(!solved(1e-3).transmit_now(Meters::ZERO));
        assert!(solved(below).transmit_now(Meters::ZERO));
        assert!(solved(300.0 - 0.9e-3).transmit_now(Meters::new(300.0)));
        assert!(!solved(300.0 - 1.1e-3).transmit_now(Meters::new(300.0)));
    }

    /// The bound that skips nothing.
    fn no_bound(_: f64, _: f64) -> f64 {
        f64::INFINITY
    }

    #[test]
    fn search_max_finds_analytic_peak() {
        // −(x − 137)² peaks at 137; no scenario machinery involved.
        let f = |x: f64| -(x - 137.0) * (x - 137.0);
        let best = search_max(Meters::new(20.0), Meters::new(300.0), f, no_bound);
        assert!((best.get() - 137.0).abs() < 1e-6, "best={}", best.get());
        // A sound bound (f is 0 at its peak, so 0 bounds every block) skips
        // blocks without moving the answer.
        let bounded = search_max(Meters::new(20.0), Meters::new(300.0), f, |_, _| 0.0);
        assert_eq!(bounded.get().to_bits(), best.get().to_bits());
    }

    #[test]
    fn search_max_degenerate_interval_skips_evaluation() {
        let best = search_max(
            Meters::new(42.0),
            Meters::new(42.0),
            |_| panic!("degenerate interval must not evaluate the objective"),
            |_, _| panic!("degenerate interval must not evaluate the bound"),
        );
        assert_eq!(best.get(), 42.0);
    }

    #[test]
    fn search_max_steps_over_infeasible_bands() {
        // NEG_INFINITY marks energy-infeasible candidates in the traj
        // planner; the grid scan must step over them and still refine
        // the feasible peak.
        let f = |x: f64| {
            if x < 6.0 {
                f64::NEG_INFINITY
            } else {
                -(x - 7.0).abs()
            }
        };
        let best = search_max(Meters::new(0.0), Meters::new(10.0), f, no_bound);
        assert!((best.get() - 7.0).abs() < 1e-5, "best={}", best.get());
    }

    #[test]
    fn search_max_tie_rule_returns_hi_for_a_constant_objective() {
        // Every candidate of the final pick ties, and `max_by` keeps the
        // last one: `hi`, bit for bit. Cached answers (serving, policy
        // tables) depend on this rule surviving any rewrite of the pick.
        let (lo, hi) = (Meters::new(20.0), Meters::new(137.123_456_789));
        let bounds: [fn(f64, f64) -> f64; 2] = [no_bound, |_, _| 1.0];
        for bound in bounds {
            let best = search_max(lo, hi, |_| 1.0, bound);
            assert_eq!(best.get().to_bits(), hi.get().to_bits());
        }
    }

    #[test]
    fn pruned_scan_evaluates_a_fraction_of_the_grid() {
        use std::cell::Cell;
        let v = Scenario::airplane_baseline().with_mdata_mb(10.0);
        let calls = Cell::new(0u32);
        let f = |d: f64| {
            calls.set(calls.get() + 1);
            utility(v, Meters::new(d))
        };
        let full = search_max(v.d_min(), v.d0(), f, no_bound);
        let full_calls = calls.replace(0);
        let pruned = search_max(v.d_min(), v.d0(), f, |d1, d2| {
            utility_bound(v, Meters::new(d1), Meters::new(d2))
        });
        assert_eq!(pruned.get().to_bits(), full.get().to_bits());
        assert_eq!(full_calls as usize, GRID_POINTS + GOLDEN_ITERS + 4);
        assert!(calls.get() < full_calls / 5, "{} calls", calls.get());
    }

    #[test]
    fn search_max_is_the_optimizer_exactly() {
        // optimize must be a thin wrapper: same routine, same bits —
        // and its bound must not move the answer off the full scan's.
        let s = Scenario::quadrocopter_baseline().with_mdata_mb(10.0);
        let direct = search_max(s.d_min(), s.d0(), |d| utility(s, Meters::new(d)), no_bound);
        assert_eq!(direct.get().to_bits(), optimize(s).d_opt.to_bits());
    }

    #[test]
    fn degenerate_interval() {
        let mut s = Scenario::quadrocopter_baseline();
        s.d0_m = s.d_min_m;
        let o = optimize(s);
        assert_eq!(o.d_opt, s.d_min_m);
        assert_eq!(o.ship_s, 0.0);
    }

    #[test]
    fn curve_has_requested_resolution_and_bounds() {
        let s = Scenario::quadrocopter_baseline();
        let curve = utility_curve(s, 101);
        assert_eq!(curve.len(), 101);
        assert_eq!(curve[0].0, s.d_min_m);
        assert_eq!(curve[100].0, s.d0_m);
        assert!(curve.iter().all(|&(_, u)| u > 0.0));
    }

    #[test]
    fn larger_mdata_moves_optimum_closer() {
        // Figure 9: "having larger Mdata makes it more advantageous for a
        // UAV to move closer … at the cost of reduced U(d)".
        let small = optimize(Scenario::airplane_baseline().with_mdata_mb(5.0));
        let large = optimize(Scenario::airplane_baseline().with_mdata_mb(45.0));
        assert!(large.d_opt < small.d_opt);
        assert!(large.utility < small.utility);
    }

    #[test]
    fn higher_speed_moves_optimum_closer() {
        // Figure 9: "by increasing the speed it is better to move closer
        // and closer for a given Mdata".
        let slow = optimize(Scenario::airplane_baseline().with_speed(5.0));
        let fast = optimize(Scenario::airplane_baseline().with_speed(20.0));
        assert!(fast.d_opt <= slow.d_opt + 1e-6);
    }
}
