//! Randomised tests of the delayed-gratification model invariants,
//! spanning the `skyferry-core` public API through the facade crate.
//!
//! The generators run on a fixed-seed [`DetRng`] loop (128 cases per
//! property, matching the old proptest configuration).

use skyferry::core::failure::{ExponentialFailure, FailureSpec, WeibullFailure};
use skyferry::core::optimizer::{optimize, search_max, utility_curve, OptimalTransfer};
use skyferry::core::request::{DecisionParams, Platform, Quantizer, D_MIN_M};
use skyferry::core::scenario::{ParamError, Scenario};
use skyferry::core::strategy::{evaluate, EvalConfig, Strategy as DeliveryStrategy};
use skyferry::core::throughput::{
    EmpiricalThroughput, LogFitThroughput, ThroughputModel, ThroughputSpec,
};
use skyferry::core::utility::{utility, utility_bound, utility_breakdown, UtilityPoint};
use skyferry::sim::rng::DetRng;
use skyferry_bench::solver_calls::figure9_calls;
use skyferry_units::Meters;

const CASES: usize = 128;

fn rng(salt: u64) -> DetRng {
    DetRng::seed(0x40DE1 ^ salt)
}

/// A randomised but well-formed scenario: the drawn parameters and the
/// drawn rate model, which [`Arb::scenario`] borrows.
struct Arb {
    d0_m: f64,
    v_mps: f64,
    mdata_bytes: f64,
    fit: ThroughputSpec,
    failure: FailureSpec,
}

impl Arb {
    fn scenario(&self) -> Scenario<'_> {
        Scenario {
            d0_m: self.d0_m,
            d_min_m: 20.0,
            v_mps: self.v_mps,
            mdata_bytes: self.mdata_bytes,
            throughput: &self.fit,
            failure: self.failure,
        }
    }
}

fn arb_scenario(rng: &mut DetRng) -> Arb {
    Arb {
        d0_m: 20.0 + rng.uniform_range(20.0, 120.0),
        v_mps: rng.uniform_range(1.0, 25.0),
        mdata_bytes: rng.uniform_range(1.0, 50.0) * 1e6,
        fit: ThroughputSpec::LogFit(LogFitThroughput {
            a_mbps: rng.uniform_range(-15.0, -2.0),
            b_mbps: rng.uniform_range(30.0, 90.0),
        }),
        failure: FailureSpec::Exponential(ExponentialFailure::new(rng.uniform_range(0.0, 0.01))),
    }
}

#[test]
fn optimum_within_constraints() {
    let mut rng = rng(1);
    for _ in 0..CASES {
        let arb = arb_scenario(&mut rng);
        let s = arb.scenario();
        let o = optimize(s);
        assert!(o.d_opt >= s.d_min_m - 1e-9);
        assert!(o.d_opt <= s.d0_m + 1e-9);
        assert!(o.utility > 0.0 && o.utility.is_finite());
        assert!(o.ship_s >= 0.0 && o.tx_s > 0.0);
    }
}

#[test]
fn optimum_dominates_random_feasible_points() {
    let mut rng = rng(2);
    for _ in 0..CASES {
        let arb = arb_scenario(&mut rng);
        let s = arb.scenario();
        let frac = rng.uniform();
        let o = optimize(s);
        let d = s.d_min_m + frac * (s.d0_m - s.d_min_m);
        assert!(o.utility >= utility(s, Meters::new(d)) - 1e-9);
    }
}

#[test]
fn utility_is_survival_over_delay() {
    use skyferry::core::delay::CommunicationDelay;
    use skyferry::core::failure::FailureModel;
    let mut rng = rng(3);
    for _ in 0..CASES {
        let arb = arb_scenario(&mut rng);
        let s = arb.scenario();
        let frac = rng.uniform();
        let d = s.d_min_m + frac * (s.d0_m - s.d_min_m);
        let u = utility(s, Meters::new(d));
        let c = CommunicationDelay::at(s, Meters::new(d));
        let surv = s.failure.survival(s.d0_m, d);
        assert!((u - surv / c.total_s()).abs() < 1e-12);
        assert!(surv <= 1.0 + 1e-12);
        assert!(c.total_s() > 0.0);
    }
}

#[test]
fn utility_curve_is_positive_and_bounded() {
    let mut rng = rng(4);
    for _ in 0..CASES {
        let arb = arb_scenario(&mut rng);
        let s = arb.scenario();
        for (d, u) in utility_curve(s, 64) {
            assert!(u > 0.0 && u.is_finite(), "U({d}) = {u}");
        }
    }
}

#[test]
fn rho_zero_upper_bounds_all_rho() {
    let mut rng = rng(5);
    for _ in 0..CASES {
        let arb = arb_scenario(&mut rng);
        let s = arb.scenario();
        let frac = rng.uniform();
        // Removing risk can only increase utility pointwise.
        let risk_free = s.with_rho(0.0);
        let d = s.d_min_m + frac * (s.d0_m - s.d_min_m);
        assert!(utility(risk_free, Meters::new(d)) >= utility(s, Meters::new(d)) - 1e-12);
    }
}

#[test]
fn dopt_monotone_in_rho() {
    let mut rng = rng(6);
    for _ in 0..CASES {
        let arb = arb_scenario(&mut rng);
        let s = arb.scenario();
        let lo = optimize(s.with_rho(1e-4)).d_opt;
        let hi = optimize(s.with_rho(5e-3)).d_opt;
        assert!(hi >= lo - 1e-6, "dopt fell with rho: {lo} -> {hi}");
    }
}

#[test]
fn throughput_model_positive_and_decreasing() {
    let mut rng = rng(7);
    for _ in 0..CASES {
        let m = LogFitThroughput {
            a_mbps: rng.uniform_range(-15.0, -2.0),
            b_mbps: rng.uniform_range(30.0, 90.0),
        };
        let mut prev = f64::INFINITY;
        for i in 1..=40 {
            let r = m.rate_bps(Meters::new(10.0 * i as f64)).get();
            assert!(r > 0.0);
            assert!(r <= prev + 1e-9);
            prev = r;
        }
    }
}

#[test]
fn strategy_curves_conserve_data() {
    let mut rng = rng(8);
    for _ in 0..CASES {
        let arb = arb_scenario(&mut rng);
        let s = arb.scenario();
        let cfg = EvalConfig::default();
        for strat in [
            DeliveryStrategy::TransmitNow,
            DeliveryStrategy::MoveAndTransmit,
            DeliveryStrategy::Optimal,
        ] {
            let e = evaluate(s, strat, &cfg);
            let total = e.curve.last().unwrap().1;
            assert!((total - s.mdata_bytes).abs() < 1.0, "{}", e.label);
            // Monotone in both axes.
            for w in e.curve.windows(2) {
                assert!(w[1].0 >= w[0].0 - 1e-12);
                assert!(w[1].1 >= w[0].1 - 1e-9);
            }
            assert!(e.survival > 0.0 && e.survival <= 1.0);
            assert!((e.utility - e.survival / e.completion_s).abs() < 1e-12);
        }
    }
}

/// The full-scan reference for the pruning contract: the `search_max`
/// call `optimize` makes, with the bound that skips nothing, and the
/// same breakdown at the answer.
fn full_scan(s: Scenario<'_>) -> OptimalTransfer {
    let d = search_max(
        s.d_min(),
        s.d0(),
        |d| utility(s, Meters::new(d)),
        |_, _| f64::INFINITY,
    );
    let bd = utility_breakdown(s, d);
    OptimalTransfer {
        d_opt: d.get(),
        utility: bd.utility,
        survival: bd.survival,
        ship_s: bd.delay.ship_s(),
        tx_s: bd.delay.tx_s(),
    }
}

/// The bound-pruned solve equals the full scan on all five fields, bit
/// for bit.
fn assert_pruning_exact(s: Scenario<'_>) {
    let bits =
        |o: &OptimalTransfer| [o.d_opt, o.utility, o.survival, o.ship_s, o.tx_s].map(f64::to_bits);
    assert_eq!(bits(&optimize(s)), bits(&full_scan(s)), "{s:?}");
}

/// A Weibull law with shape in 0.5–3 and some mission already flown.
fn arb_weibull(rng: &mut DetRng) -> FailureSpec {
    FailureSpec::Weibull(WeibullFailure::new(
        Meters::new(rng.uniform_range(100.0, 20_000.0)),
        rng.uniform_range(0.5, 3.0),
        Meters::new(rng.uniform_range(1.0, 5_000.0)),
    ))
}

/// An empirical table over 20–150 m whose rate peaks in a spike at an
/// interior knot, flanked within a metre by low-rate knots, so a grid
/// block can hold the peak with low rates at both ends.
fn arb_peaked_table(rng: &mut DetRng) -> ThroughputSpec {
    let n = 4 + rng.index(5);
    let mut points: Vec<(f64, f64)> = (0..n)
        .map(|i| {
            let d = 20.0 + 130.0 * (i as f64 + rng.uniform_range(0.1, 0.9)) / n as f64;
            (d, rng.uniform_range(1e6, 30e6))
        })
        .collect();
    let peak = 1 + rng.index(n - 2);
    points[peak].1 = rng.uniform_range(35e6, 60e6);
    let d = points[peak].0;
    for side in [-1.0, 1.0] {
        points.push((
            d + side * rng.uniform_range(0.2, 1.0),
            rng.uniform_range(1e6, 10e6),
        ));
    }
    ThroughputSpec::Empirical(EmpiricalThroughput::new(points))
}

#[test]
fn pruned_solve_equals_full_scan_on_arb_scenarios() {
    let mut rng = rng(10);
    for _ in 0..CASES {
        assert_pruning_exact(arb_scenario(&mut rng).scenario());
    }
}

#[test]
fn pruned_solve_equals_full_scan_under_fig8_stress() {
    // Figure 8's multimodal regime and beyond: ρ log-uniform up to 1 /m.
    let mut rng = rng(11);
    for _ in 0..CASES {
        let rho = 10f64.powf(rng.uniform_range(-6.0, 0.0));
        assert_pruning_exact(arb_scenario(&mut rng).scenario().with_rho(rho));
    }
    for base in [
        Scenario::airplane_baseline(),
        Scenario::quadrocopter_baseline(),
    ] {
        for rho in [0.0, 1.11e-4, 1e-3, 2e-3, 5e-3, 1e-2, 0.1, 1.0] {
            assert_pruning_exact(base.with_rho(rho));
        }
    }
}

#[test]
fn pruned_solve_equals_full_scan_under_weibull_hazard() {
    let mut rng = rng(12);
    for _ in 0..CASES {
        let mut arb = arb_scenario(&mut rng);
        arb.failure = arb_weibull(&mut rng);
        assert_pruning_exact(arb.scenario());
    }
}

#[test]
fn pruned_solve_equals_full_scan_on_peaked_empirical_tables() {
    let mut rng = rng(13);
    for _ in 0..CASES {
        let mut arb = arb_scenario(&mut rng);
        arb.fit = arb_peaked_table(&mut rng);
        assert_pruning_exact(arb.scenario());
    }
}

/// A scenario of model family `case % 4`: the log fit with a small ρ, a
/// Fig. 8 stress ρ up to 1 /m, a Weibull hazard, or a peaked table.
fn arb_family(rng: &mut DetRng, case: usize) -> Arb {
    let mut arb = arb_scenario(rng);
    match case % 4 {
        1 => {
            let rho = 10f64.powf(rng.uniform_range(-6.0, 0.0));
            arb.failure = FailureSpec::Exponential(ExponentialFailure::new(rho));
        }
        2 => arb.failure = arb_weibull(rng),
        3 => arb.fit = arb_peaked_table(rng),
        _ => {}
    }
    arb
}

/// Grid point `i` of the solver's 2,048-point scan of `s`.
fn solver_grid(s: Scenario<'_>, i: usize) -> Meters {
    Meters::new(s.d_min_m + (s.d0_m - s.d_min_m) * i as f64 / 2047.0)
}

#[test]
fn block_bound_is_sound_on_random_blocks() {
    // The solver's own grid, random blocks of 1–64 points, every model
    // family: the bound is ≥ U at every grid point in the block, also
    // when taken one grid step wider, up to the next block's first point,
    // as the scan takes it.
    let mut rng = rng(14);
    for case in 0..CASES * 4 {
        let arb = arb_family(&mut rng, case);
        let s = arb.scenario();
        let at = |i: usize| solver_grid(s, i);
        let len = 1 + rng.index(64);
        let first = rng.index(2048 - len + 1);
        for last in [first + len - 1, (first + len).min(2047)] {
            let bound = utility_bound(s, at(first), at(last));
            for i in first..first + len {
                let u = utility(s, at(i));
                assert!(
                    bound >= u,
                    "{s:?}: block {first}+{len} to {last}, U({}) = {u} > {bound}",
                    at(i).get()
                );
            }
        }
    }
}

#[test]
fn points_carry_the_utility_and_the_block_bound_bitwise() {
    // Every model family: the scan's evaluated point reads `U` exactly as
    // `utility` does, and its bound between two points is
    // `utility_bound` on their distances.
    let mut rng = rng(18);
    for case in 0..CASES * 4 {
        let arb = arb_family(&mut rng, case);
        let s = arb.scenario();
        let (i, j) = (rng.index(2048), rng.index(2048));
        let (d1, d2) = (solver_grid(s, i.min(j)), solver_grid(s, i.max(j)));
        let (p1, p2) = (UtilityPoint::at(s, d1), UtilityPoint::at(s, d2));
        for (p, d) in [(p1, d1), (p2, d2)] {
            assert_eq!(
                p.utility().to_bits(),
                utility(s, d).to_bits(),
                "{s:?} at {}",
                d.get()
            );
        }
        assert_eq!(
            p1.bound_to(s, &p2).to_bits(),
            utility_bound(s, d1, d2).to_bits(),
            "{s:?} over [{}, {}]",
            d1.get(),
            d2.get()
        );
    }
}

/// `10^x` for `x` uniform in `[lo, hi)`.
fn magnitude(rng: &mut DetRng, lo: f64, hi: f64) -> f64 {
    10f64.powf(rng.uniform_range(lo, hi))
}

#[test]
fn validated_literals_solve_to_numbers() {
    // Positive, finite field literals hundreds of decades outside the
    // paper's ranges. `validate` may reject one, for an overflowing
    // hazard or a vanishing transmit time; one it accepts must solve
    // without reaching the solver's "objective is not NaN" expect, to
    // five fields that are not NaN.
    const VALIDATE_MESSAGES: [&str; 2] = ["Weibull hazard overflows", "Mdata / peak rate"];
    let mut rng = rng(15);
    let (mut solved, mut rejected) = (0, 0);
    for _ in 0..CASES * 8 {
        let mut signed = |lo, hi| {
            let sign = if rng.index(2) == 0 { -1.0 } else { 1.0 };
            sign * magnitude(&mut rng, lo, hi)
        };
        let (a_mbps, b_mbps) = (signed(-300.0, 300.0), signed(-300.0, 300.0));
        let d_min_m = magnitude(&mut rng, -3.0, 3.0);
        let failure = if rng.index(2) == 0 {
            FailureSpec::Exponential(ExponentialFailure {
                rho_per_m: magnitude(&mut rng, -300.0, 300.0),
            })
        } else {
            FailureSpec::Weibull(WeibullFailure {
                scale_m: magnitude(&mut rng, -300.0, 300.0),
                shape: magnitude(&mut rng, -2.0, 2.0),
                flown_m: magnitude(&mut rng, -300.0, 300.0),
            })
        };
        let fit = ThroughputSpec::LogFit(LogFitThroughput { a_mbps, b_mbps });
        let s = Scenario {
            d0_m: d_min_m * (1.0 + magnitude(&mut rng, -6.0, 3.0)),
            d_min_m,
            v_mps: magnitude(&mut rng, -300.0, 300.0),
            mdata_bytes: magnitude(&mut rng, -300.0, 300.0),
            throughput: &fit,
            failure,
        };
        match std::panic::catch_unwind(|| optimize(s)) {
            Ok(o) => {
                solved += 1;
                let fields = [o.d_opt, o.utility, o.survival, o.ship_s, o.tx_s];
                assert!(!fields.iter().any(|x| x.is_nan()), "{s:?}: {o:?}");
            }
            Err(payload) => {
                rejected += 1;
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or_default();
                assert!(
                    VALIDATE_MESSAGES.iter().any(|m| msg.starts_with(m)),
                    "{s:?}: {msg}"
                );
            }
        }
    }
    assert!(
        solved > 0 && rejected > 0,
        "{solved} solved, {rejected} rejected"
    );
}

/// The largest `d0` (at `d_min = 20 m`) whose solver grid stays finite.
const D0_BOUND_M: f64 = 8.782086638311263e304;
/// A `d0` whose last solver grid point rounds one ulp (3.7e-9 m) past it.
const D0_OVERSHOT_M: f64 = 27_416_548.192_768_097;

/// `x` moved by `ulps` units in the last place (`x` positive).
fn ulp_step(x: f64, ulps: i64) -> f64 {
    f64::from_bits((x.to_bits() as i64 + ulps) as u64)
}

/// One request field: raw `f64` bits, a decade sweep, or an edge value.
fn arb_field(rng: &mut DetRng) -> f64 {
    let pool = [
        0.0,
        5e-324,
        1e-323,
        f64::MIN_POSITIVE,
        f64::MAX,
        ulp_step(D0_BOUND_M, -1),
        D0_BOUND_M,
        ulp_step(D0_BOUND_M, 1),
        D0_OVERSHOT_M,
        ulp_step(D_MIN_M, -1),
        D_MIN_M,
        ulp_step(D_MIN_M, 1),
    ];
    match rng.index(3) {
        0 => f64::from_bits(rng.next_u64()),
        1 => magnitude(rng, -324.0, 308.3),
        _ => pool[rng.index(pool.len())],
    }
}

/// Solve `p`, which passed `check`, and require five numbers back.
fn solves_to_numbers(p: DecisionParams) {
    let o = std::panic::catch_unwind(|| p.solve())
        .unwrap_or_else(|_| panic!("{p:?} was accepted, and its solve panicked"));
    let fields = [o.d_opt, o.utility, o.survival, o.ship_s, o.tx_s];
    assert!(!fields.iter().any(|x| x.is_nan()), "{p:?}: {o:?}");
    assert!(
        o.d_opt >= D_MIN_M && o.d_opt <= p.d0_m + 1e-9,
        "{p:?}: {o:?}"
    );
}

#[test]
fn validated_queries_solve_under_both_quantizers() {
    // What `validated()` accepts, the solver answers: no query accepted
    // off the wire may panic a serving shard. A server also checks the
    // query its quantizer snaps, and under the default buckets a huge
    // `v` or ρ snaps to `inf`, so `check` must refuse those snaps.
    let mut rng = rng(16);
    let buckets = Quantizer::default_buckets();
    let (mut accepted, mut rejected, mut snap_refused) = (0, 0, 0);
    for i in 0..24_000 {
        let platform = [Platform::Airplane, Platform::Quadrocopter][i % 2];
        let raw = DecisionParams {
            platform,
            d0_m: arb_field(&mut rng),
            mdata_bytes: arb_field(&mut rng),
            rho_per_m: arb_field(&mut rng),
            v_mps: arb_field(&mut rng),
        };
        let Ok(p) = raw.validated() else {
            rejected += 1;
            continue;
        };
        accepted += 1;
        solves_to_numbers(p);
        let snapped = buckets.snap(&p);
        let overflowed = [
            snapped.d0_m,
            snapped.mdata_bytes,
            snapped.rho_per_m,
            snapped.v_mps,
        ]
        .iter()
        .any(|x| !x.is_finite());
        match snapped.scenario().check() {
            Ok(()) => {
                assert!(!overflowed, "{p:?} snaps to {snapped:?}");
                solves_to_numbers(snapped);
            }
            Err(_) => snap_refused += 1,
        }
    }
    assert!(
        accepted > 8_000 && rejected > 2_000 && snap_refused > 200,
        "{accepted} accepted, {rejected} rejected, {snap_refused} snaps refused"
    );
    // The d0 bound sits exactly where the grid overflows, and the grid
    // clause also refuses a d0 its last point overshoots.
    let at = |d0_m| DecisionParams {
        d0_m,
        ..DecisionParams::baseline(Platform::Airplane)
    };
    assert!(at(D0_BOUND_M).validated().is_ok());
    for d0_m in [ulp_step(D0_BOUND_M, 1), D0_OVERSHOT_M] {
        assert!(matches!(at(d0_m).validated(), Err(ParamError::Grid(..))));
    }
}

/// FNV-1a-64 of every field of [`wire_query_solves`]' answers.
const WIRE_SOLVE_DIGEST: u64 = 0x18ea_131b_c603_0b79;

/// Seeded wire-shaped queries through `validated()` and `solve()`: both
/// platforms, with `d0`, `Mdata`, ρ and `v` each log-uniform over its
/// decades. Returns the FNV-1a-64 of all five fields of every answer.
fn wire_query_solves(queries: usize) -> u64 {
    let mut rng = rng(17);
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for i in 0..queries {
        let p = DecisionParams {
            platform: [Platform::Airplane, Platform::Quadrocopter][i % 2],
            d0_m: magnitude(&mut rng, 1.0, 4.0),
            mdata_bytes: magnitude(&mut rng, 3.0, 9.0),
            rho_per_m: magnitude(&mut rng, -7.0, 0.0),
            v_mps: magnitude(&mut rng, -1.0, 2.5),
        };
        let o = p
            .validated()
            .unwrap_or_else(|e| panic!("{p:?}: {e}"))
            .solve();
        for x in [o.d_opt, o.utility, o.survival, o.ship_s, o.tx_s] {
            // Byte-wise FNV-1a over the bits, low byte first.
            let bits = x.to_bits();
            for k in 0..8 {
                hash = (hash ^ (bits >> (8 * k) & 0xff)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

#[test]
fn wire_query_solves_are_pinned() {
    // Every bit of every field, over far more of the request domain than
    // the 7,560 quick-table cell centres `quick_table_bytes_are_pinned`
    // covers: a solver rewrite must not move a single answer.
    let digest = wire_query_solves(16_000);
    assert_eq!(digest, WIRE_SOLVE_DIGEST, "digest {digest:#018x}");
}

#[test]
fn pruning_cuts_fig9_calls_at_least_fivefold() {
    // A count, not a timing: objective plus bound calls per solve on the
    // Fig. 9 grid, against the 2,136 objective calls of the unpruned
    // solver (2,048-point scan, 82 golden-section steps, 6 final-pick
    // re-evaluations).
    let calls = figure9_calls(true);
    assert!(
        calls.total() <= 2136.0 / 5.0,
        "{calls:?}: {} calls per solve",
        calls.total()
    );
}

#[test]
fn optimal_strategy_never_loses_to_fixed_choices() {
    let mut rng = rng(9);
    for _ in 0..CASES {
        let arb = arb_scenario(&mut rng);
        let s = arb.scenario();
        let frac = rng.uniform();
        let cfg = EvalConfig::default();
        let best = evaluate(s, DeliveryStrategy::Optimal, &cfg);
        let d = s.d_min_m + frac * (s.d0_m - s.d_min_m);
        let other = evaluate(s, DeliveryStrategy::MoveThenTransmit { d_m: d }, &cfg);
        assert!(best.utility >= other.utility - 1e-9);
    }
}
