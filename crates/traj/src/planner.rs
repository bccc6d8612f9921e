//! The distance × battery DP planner.
//!
//! The paper's decision variable is a scalar transmit distance along a
//! straight approach; here it becomes a 2-D waypoint path. Nodes are
//! `(ring, sector)` positions around the station ([`GridSpec`]); the
//! planner relaxes ring-to-ring legs (straight descent or one sector of
//! crab either way) with exact `(flown, elapsed, energy)` labels merged
//! per battery bucket, then values each reached state by committing to
//! a straight radial final approach and transmitting at the best
//! distance on it. The stage reward is the *unmodified* Eq. (2)
//! utility, generalised to path prefixes by
//! [`path_utility`]: hazard per metre actually flown, delay from
//! the actual flight time.
//!
//! ## Degenerate-equivalence guarantee
//!
//! In calm air with ample battery the best path *is* the straight
//! corridor, and the planner must not merely approximate the scalar
//! optimum — it must reproduce `core::optimizer`'s d\* bit-for-bit.
//! Three mechanisms make that structural rather than coincidental:
//!
//! 1. the final commit refinement runs the *same* scan
//!    `optimize` runs, through its distance-closure form
//!    [`search_max`], over the same interval, with an objective whose
//!    float operations are bit-identical to `utility` when the
//!    path prefix is zero (`0.0 + x == x`, `x − 0.0 == x`) — without
//!    `optimize`'s block bound, which only skips grid points that
//!    cannot win;
//! 2. the straight commit-at-encounter strategy is always evaluated,
//!    and the DP winner replaces it only when it is *better by more
//!    than a relative epsilon* — sub-ulp noise from summing ring legs
//!    can never displace the analytically equal straight answer;
//! 3. calm air short-circuits the wind triangle to the exact airspeed
//!    ([`ground_speed`]), so the prefix times divide by the same bits
//!    `utility` divides by.
//!
//! The same comparison also makes the frontier claim structural: the
//! reported optimized path never values below the straight-line d\*.

use skyferry_core::failure::FailureModel;
use skyferry_core::optimizer::search_max;
use skyferry_core::scenario::Scenario;
use skyferry_core::throughput::ThroughputModel;
use skyferry_core::utility::path_utility;
use skyferry_geo::vector::Vec3;
use skyferry_uav::platform::PlatformKind;
use skyferry_uav::wind::WindConfig;
use skyferry_units::{Joules, Meters, MetersPerSec, Seconds};

use crate::energy::EnergyModel;
use crate::grid::GridSpec;
use crate::motion::ground_speed;

/// Relative margin a DP state must clear to displace the incumbent
/// (and the DP winner must clear to displace the straight strategy).
/// Sub-ulp float noise from summing ring legs sits many orders below;
/// genuine wind/energy gains sit many orders above.
const IMPROVEMENT_EPS: f64 = 1e-9;

/// One trajectory planning problem.
#[derive(Debug, Clone)]
pub struct TrajConfig {
    /// Label for reports, traces and RNG substreams.
    pub name: String,
    /// Airframe flying the path (energy model and power draws).
    pub platform: PlatformKind,
    /// The Eq. (2) scenario being generalised (d0, Mdata, ρ, v, s(d)).
    pub scenario: Scenario<'static>,
    /// Wind field; the planner uses the mean vector.
    pub wind: WindConfig,
    /// Battery energy available for the whole flight-and-transmit plan.
    pub budget: Joules,
    /// DP resolution.
    pub grid: GridSpec,
}

impl TrajConfig {
    /// The default planning cell the experiments sweep: a quadrocopter
    /// with a 10 MB batch (interior optimum).
    pub fn baseline(name: &str, wind: WindConfig, budget: Joules) -> Self {
        TrajConfig {
            name: name.to_string(),
            platform: PlatformKind::Quadrocopter,
            scenario: Scenario::quadrocopter_baseline().with_mdata_mb(10.0),
            wind,
            budget,
            grid: GridSpec::baseline(),
        }
    }
}

/// One planned trajectory: waypoints, transmit point, and the exact
/// value/cost accounting behind it.
///
/// `d_tx_m` and `utility` are the report/serialisation layer (raw `f64`
/// like [`skyferry_core::optimizer::OptimalTransfer`]); the energy and
/// time totals are fully typed.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedPath {
    /// Waypoints from the encounter point to the transmit point (ENU,
    /// station at the origin, encounter bearing along +x).
    pub waypoints: Vec<Vec3>,
    /// Radial distance at which the batch is transmitted, metres.
    pub d_tx_m: f64,
    /// The path-generalised Eq. (2) utility of this plan.
    pub utility: f64,
    /// Total path length flown before transmitting.
    pub flown: Meters,
    /// Total flight time before transmitting.
    pub elapsed: Seconds,
    /// Energy charged to flying.
    pub energy_flight: Joules,
    /// Energy charged to the transmit session (hold + radio).
    pub energy_tx: Joules,
    /// Transmit session length `Ttx = Mdata/s(d_tx)`.
    pub tx_session: Seconds,
    /// `false` when no plan fits the battery budget and the reported
    /// plan overruns it (the UAV would transmit from the encounter
    /// point and hope).
    pub feasible: bool,
    /// `true` when the path leaves the straight encounter corridor.
    pub crabbed: bool,
}

/// Both strategies for one config: the paper's straight-line commit and
/// the DP-optimized path. `optimized.utility ≥ straight.utility` by
/// construction.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajSolution {
    /// Commit at the encounter point and fly the straight corridor —
    /// exactly the scalar Eq. (2) decision, energy-gated.
    pub straight: PlannedPath,
    /// The DP-planned path (falls back to `straight` when no path
    /// clears the improvement margin).
    pub optimized: PlannedPath,
}

impl TrajSolution {
    /// Relative utility gain of the optimized path over the straight
    /// strategy (0 when they coincide).
    pub fn gain(&self) -> f64 {
        if self.straight.utility <= 0.0 {
            return 0.0;
        }
        self.optimized.utility / self.straight.utility - 1.0
    }
}

/// An exact label: the cost prefix of one path through the grid.
#[derive(Debug, Clone, Copy)]
struct Label {
    flown_m: f64,
    elapsed_s: f64,
    spent_j: f64,
    from: Option<(usize, i32, usize)>,
}

impl Label {
    const START: Label = Label {
        flown_m: 0.0,
        elapsed_s: 0.0,
        spent_j: 0.0,
        from: None,
    };

    /// Merge preference: fastest prefix first, shortest second.
    /// Seconds of delay outweigh metres of hazard in Eq. (2) by orders
    /// of magnitude (`ρ` is ~1e-4/m while a second is ~5% of a typical
    /// delay), so time leads. In calm air every leg flies at the same
    /// speed, making elapsed monotone in flown — the orderings agree
    /// and the degenerate case is unaffected. Deterministic and exact —
    /// no bucketed quantities.
    fn better_than(&self, other: &Label) -> bool {
        (self.elapsed_s, self.flown_m) < (other.elapsed_s, other.flown_m)
    }
}

/// One evaluated commit decision: transmit at `d_m` after the prefix.
#[derive(Debug, Clone, Copy)]
struct Commit {
    d_m: f64,
    /// Gated value: `NEG_INFINITY` when the budget is exceeded.
    value: f64,
    /// Ungated utility (for honest reporting of infeasible fallbacks).
    utility: f64,
    feasible: bool,
    flown_m: f64,
    elapsed_s: f64,
    flight_j: f64,
    tx_j: f64,
    tx_session_s: f64,
}

/// Everything fixed across one planning run.
struct Problem<'a> {
    scenario: Scenario<'a>,
    energy: EnergyModel,
    airspeed: MetersPerSec,
    wind: Vec3,
    budget: Joules,
    grid: &'a GridSpec,
}

impl Problem<'_> {
    /// Radius of ring `i` on this problem's corridor.
    fn radius(&self, i: usize) -> f64 {
        self.grid
            .ring_radius_m(self.scenario.d_min_m, self.scenario.d0_m, i)
    }

    /// Ground speed on the straight radial approach from `pos` toward
    /// the station, or `None` when the wind overpowers it.
    fn approach_speed(&self, pos: Vec3) -> Option<MetersPerSec> {
        let track = (-pos).normalized()?;
        ground_speed(track, self.wind, self.airspeed)
    }

    /// Evaluate committing from a node at radius `node_r` (prefix
    /// `label`) to transmit at radial distance `d`. `gs` is the
    /// approach ground speed; `None` is only valid when `d == node_r`
    /// (transmit in place, no approach flown).
    fn commit(&self, label: &Label, node_r: f64, gs: Option<MetersPerSec>, d: f64) -> Commit {
        // The zero-prefix straight case must reproduce `utility`
        // bit-for-bit: same max, same typed divisions, prefix folded in
        // with `0.0 + x`.
        let travel = (node_r - d).max(0.0);
        let t = match gs {
            Some(gs) => (Meters::new(travel) / gs).get(),
            None => {
                debug_assert!(travel == 0.0, "in-place commit only");
                0.0
            }
        };
        let flown = label.flown_m + travel;
        let elapsed = label.elapsed_s + t;
        // Search/gate value: bit-identical to `utility` at zero
        // prefix (that is what makes d* come out bit-equal).
        let value = path_utility(
            self.scenario,
            Meters::new(flown),
            Seconds::new(elapsed),
            Meters::new(d),
        );
        let session = self.scenario.mdata() / self.scenario.throughput.rate_bps(Meters::new(d));
        // Reported utility: the breakdown form `survival · (1/total)`,
        // so the calm-air report matches `OptimalTransfer::utility`
        // bit-for-bit too (the two forms differ by an ulp).
        let survival = self.scenario.failure.survival_over(flown);
        let utility = survival * (1.0 / (Seconds::new(elapsed) + session).get());
        let tx_j = self.energy.transmit(self.scenario.mdata(), session);
        let flight_j = label.spent_j + self.energy.flight(self.airspeed, Seconds::new(t)).get();
        let feasible = flight_j + tx_j.get() <= self.budget.get();
        Commit {
            d_m: d,
            value: if feasible { value } else { f64::NEG_INFINITY },
            utility,
            feasible,
            flown_m: flown,
            elapsed_s: elapsed,
            flight_j,
            tx_j: tx_j.get(),
            tx_session_s: session.get(),
        }
    }

    /// Cheap commit score for the DP scan: best over the ring radii at
    /// or inside `node_ring`. Candidates come from one *absolute* grid
    /// shared by every state, so a subinterval's discrete maximum can
    /// never exceed the full interval's except by genuine prefix
    /// differences.
    fn best_ring_commit(&self, label: &Label, node_ring: usize, pos: Vec3) -> Commit {
        let node_r = self.radius(node_ring);
        match self.approach_speed(pos) {
            None => self.commit(label, node_r, None, node_r),
            Some(gs) => {
                let mut best = self.commit(label, node_r, Some(gs), self.radius(0));
                for k in 1..=node_ring {
                    let c = self.commit(label, node_r, Some(gs), self.radius(k));
                    if c.value > best.value {
                        best = c;
                    }
                }
                best
            }
        }
    }

    /// Exact commit: continuous refinement over `[d_min, node_r]` with
    /// the optimizer's own search routine.
    fn refine_commit(&self, label: &Label, node_r: f64, pos: Vec3) -> Commit {
        let Some(gs) = self.approach_speed(pos) else {
            return self.commit(label, node_r, None, node_r);
        };
        // The path objective has no block bound: an infinite bound makes
        // the search scan the full grid.
        let best = search_max(
            Meters::new(self.scenario.d_min_m),
            Meters::new(node_r),
            |d| self.commit(label, node_r, Some(gs), d).value,
            |_, _| f64::INFINITY,
        );
        let c = self.commit(label, node_r, Some(gs), best.get());
        if c.feasible {
            c
        } else {
            // Nothing on the ray is affordable; report transmitting in
            // place, honestly flagged infeasible if even that overruns.
            self.commit(label, node_r, Some(gs), node_r)
        }
    }
}

/// Plan both strategies for a config.
pub fn plan(config: &TrajConfig) -> TrajSolution {
    let (scenario, budget, grid) = (config.scenario, config.budget, &config.grid);
    grid.validate();
    scenario.validate();
    assert!(budget.get() > 0.0, "battery budget must be positive");
    let _span = skyferry_trace::span!(
        "traj_plan",
        d0_m = scenario.d0_m,
        states = grid.states() as f64
    );
    let p = Problem {
        scenario,
        energy: EnergyModel::of(config.platform),
        airspeed: scenario.speed(),
        wind: config.wind.mean_mps,
        budget,
        grid,
    };

    let sectors = grid.sectors as i32;
    let width = 2 * grid.sectors + 1;
    let slot = |j: i32, b: usize| (j + sectors) as usize * grid.levels + b;
    let mut dp: Vec<Vec<Option<Label>>> = vec![vec![None; width * grid.levels]; grid.rings];
    dp[grid.rings - 1][slot(0, 0)] = Some(Label::START);

    // Relax ring-to-ring legs, outermost inward. Straight descent or
    // one sector of crab per ring; labels are exact, merged per
    // battery bucket by (flown, elapsed).
    for i in (1..grid.rings).rev() {
        let r_here = p.radius(i);
        let r_next = p.radius(i - 1);
        let _ring_span = skyferry_trace::span!("traj_dp_ring", ring = i as f64, radius_m = r_here);
        for j in -sectors..=sectors {
            for b in 0..grid.levels {
                let Some(label) = dp[i][slot(j, b)] else {
                    continue;
                };
                for dj in [-1i32, 0, 1] {
                    let nj = j + dj;
                    if nj.abs() > sectors {
                        continue;
                    }
                    let from = grid.node_pos(r_here, j);
                    let to = grid.node_pos(r_next, nj);
                    let leg = to - from;
                    let len = leg.norm();
                    let Some(track) = leg.normalized() else {
                        continue; // coincident nodes (degenerate corridor)
                    };
                    let Some(gs) = ground_speed(track, p.wind, p.airspeed) else {
                        continue; // wind overpowers this leg
                    };
                    let t = (Meters::new(len) / gs).get();
                    let spent = label.spent_j + p.energy.flight(p.airspeed, Seconds::new(t)).get();
                    if spent > budget.get() {
                        continue;
                    }
                    let cand = Label {
                        flown_m: label.flown_m + len,
                        elapsed_s: label.elapsed_s + t,
                        spent_j: spent,
                        from: Some((i, j, b)),
                    };
                    let nb = grid.bucket(Joules::new(spent), budget);
                    let cell = &mut dp[i - 1][slot(nj, nb)];
                    match cell {
                        Some(cur) if !cand.better_than(cur) => {}
                        _ => *cell = Some(cand),
                    }
                }
            }
        }
    }

    // Score every reached state by its best ring-grid commit. The start
    // state is scanned first and an incumbent is only displaced by a
    // relative-epsilon improvement, so ulp noise cannot beat the
    // straight strategy.
    let mut best = (grid.rings - 1, 0i32, 0usize);
    let mut best_value = f64::NEG_INFINITY;
    for i in (0..grid.rings).rev() {
        let r = p.radius(i);
        for j in -sectors..=sectors {
            for b in 0..grid.levels {
                let Some(label) = dp[i][slot(j, b)] else {
                    continue;
                };
                let c = p.best_ring_commit(&label, i, grid.node_pos(r, j));
                if c.value > best_value * (1.0 + IMPROVEMENT_EPS) && c.value > best_value {
                    best = (i, j, b);
                    best_value = c.value;
                }
            }
        }
    }

    // Exact refinement of both the straight strategy and the DP winner;
    // the winner must clear the same margin to displace the straight
    // answer, which keeps the calm-air case bit-equal to the scalar
    // optimizer and makes weak dominance structural.
    let start_pos = grid.node_pos(scenario.d0_m, 0);
    let straight_commit = p.refine_commit(&Label::START, scenario.d0_m, start_pos);
    let straight = render(&p, &dp, slot, (grid.rings - 1, 0, 0), straight_commit);

    let (bi, bj, bb) = best;
    let optimized = if (bi, bj, bb) == (grid.rings - 1, 0, 0) {
        straight.clone()
    } else {
        let label = dp[bi][slot(bj, bb)].expect("winner state is populated");
        let winner_commit = p.refine_commit(&label, p.radius(bi), grid.node_pos(p.radius(bi), bj));
        if winner_commit.value > straight_commit.value * (1.0 + IMPROVEMENT_EPS) {
            render(&p, &dp, slot, (bi, bj, bb), winner_commit)
        } else {
            straight.clone()
        }
    };

    TrajSolution {
        straight,
        optimized,
    }
}

/// Materialise a `PlannedPath` from a DP state and its refined commit.
fn render(
    p: &Problem<'_>,
    dp: &[Vec<Option<Label>>],
    slot: impl Fn(i32, usize) -> usize,
    state: (usize, i32, usize),
    commit: Commit,
) -> PlannedPath {
    // Backtrack the waypoint chain from the encounter to the commit node.
    let mut chain = Vec::new();
    let mut cur = Some(state);
    while let Some((i, j, b)) = cur {
        chain.push((i, j));
        cur = dp[i][slot(j, b)].and_then(|l| l.from);
    }
    chain.reverse();
    let mut waypoints: Vec<Vec3> = chain
        .iter()
        .map(|&(i, j)| p.grid.node_pos(p.radius(i), j))
        .collect();
    // Pin the encounter point to exactly (d0, 0).
    if let Some(first) = waypoints.first_mut() {
        *first = Vec3::new(p.scenario.d0_m, 0.0, 0.0);
    }
    let node_r = p.radius(state.0);
    if commit.d_m < node_r {
        let node = *waypoints.last().expect("chain is non-empty");
        waypoints.push(node * (commit.d_m / node_r));
    }
    let crabbed = waypoints.iter().any(|w| w.y != 0.0);
    PlannedPath {
        waypoints,
        d_tx_m: commit.d_m,
        utility: commit.utility,
        flown: Meters::new(commit.flown_m),
        elapsed: Seconds::new(commit.elapsed_s),
        energy_flight: Joules::new(commit.flight_j),
        energy_tx: Joules::new(commit.tx_j),
        tx_session: Seconds::new(commit.tx_session_s),
        feasible: commit.feasible,
        crabbed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyferry_core::optimizer::optimize;

    /// Total energy drawn by a plan.
    fn total_energy(path: &PlannedPath) -> Joules {
        path.energy_flight + path.energy_tx
    }

    fn ample() -> Joules {
        EnergyModel::of(PlatformKind::Quadrocopter).capacity() * 10.0
    }

    fn quad(mdata_mb: f64) -> TrajConfig {
        TrajConfig {
            name: "test".into(),
            platform: PlatformKind::Quadrocopter,
            scenario: Scenario::quadrocopter_baseline().with_mdata_mb(mdata_mb),
            wind: WindConfig::calm(),
            budget: ample(),
            grid: GridSpec::quick(),
        }
    }

    #[test]
    fn calm_ample_reproduces_scalar_optimum_bitwise() {
        let cfg = quad(10.0);
        let sol = plan(&cfg);
        let scalar = optimize(cfg.scenario);
        assert_eq!(sol.straight.d_tx_m.to_bits(), scalar.d_opt.to_bits());
        assert_eq!(sol.optimized.d_tx_m.to_bits(), scalar.d_opt.to_bits());
        assert_eq!(sol.optimized.utility.to_bits(), scalar.utility.to_bits());
        assert!(!sol.optimized.crabbed);
        assert_eq!(sol.gain(), 0.0);
    }

    #[test]
    fn crosswind_path_weakly_dominates_straight() {
        for speed in [0.0, 1.0, 2.0, 3.0] {
            let mut cfg = quad(10.0);
            cfg.wind = WindConfig::steady(0.0, MetersPerSec::new(speed));
            let sol = plan(&cfg);
            assert!(
                sol.optimized.utility >= sol.straight.utility,
                "wind {speed}: {} < {}",
                sol.optimized.utility,
                sol.straight.utility
            );
            assert!(sol.gain() >= 0.0);
        }
    }

    #[test]
    fn strong_crosswind_makes_crabbing_pay() {
        // 3.5 m/s of crosswind against 4.5 m/s of airspeed: the straight
        // radial track crawls at √(4.5²−3.5²) ≈ 2.8 m/s, while an angled
        // descent rides the wind. The DP must find a strict improvement.
        let mut cfg = quad(10.0);
        cfg.wind = WindConfig::steady(0.0, MetersPerSec::new(3.5));
        let sol = plan(&cfg);
        assert!(sol.gain() > 1e-4, "gain={}", sol.gain());
        assert!(sol.optimized.crabbed);
    }

    #[test]
    fn budget_is_a_feasibility_cliff() {
        // At the Eq. (2) optimum marginal shipping and session time are
        // equalized, and with hold ≈ cruise draw that makes the utility
        // optimum nearly energy-minimal too — so the battery budget acts
        // as a sharp feasibility cliff around E(d*), not a gradual
        // shift. Pin both sides of the cliff for the full 56.2 MB
        // baseline batch (plan energy ≈ 6.5 kJ).
        let full = Scenario::quadrocopter_baseline();
        let at = |budget: f64| {
            let mut cfg = quad(10.0);
            cfg.scenario = full;
            cfg.budget = Joules::new(budget);
            plan(&cfg)
        };
        let above = at(7_000.0);
        assert!(above.straight.feasible && above.optimized.feasible);
        assert!(total_energy(&above.optimized).get() < 7_000.0);
        // The big batch pulls d* to the inner boundary: fly all the
        // way in before transmitting.
        assert!((above.optimized.d_tx_m - 20.0).abs() < 1e-9);
        let below = at(6_000.0);
        assert!(!below.straight.feasible && !below.optimized.feasible);
        // The honest fallback transmits from the encounter point and
        // reports the budget overrun instead of hiding it.
        assert_eq!(below.straight.d_tx_m, full.d0_m);
        assert!(total_energy(&below.optimized).get() > 6_000.0);
    }

    #[test]
    fn impossible_budget_reports_infeasible_plan() {
        let mut cfg = quad(10.0);
        cfg.budget = Joules::new(1.0);
        let sol = plan(&cfg);
        assert!(!sol.straight.feasible);
        assert!(!sol.optimized.feasible);
        // The honest fallback transmits from the encounter point.
        assert_eq!(sol.straight.d_tx_m, cfg.scenario.d0_m);
        assert!(sol.straight.utility > 0.0);
    }

    #[test]
    fn waypoints_start_at_encounter_and_end_at_tx() {
        let mut cfg = quad(10.0);
        cfg.wind = WindConfig::steady(0.0, MetersPerSec::new(3.0));
        let sol = plan(&cfg);
        for path in [&sol.straight, &sol.optimized] {
            let first = path.waypoints.first().unwrap();
            assert_eq!(*first, Vec3::new(cfg.scenario.d0_m, 0.0, 0.0));
            let last = path.waypoints.last().unwrap();
            assert!((last.norm() - path.d_tx_m).abs() < 1e-6);
            assert!(path.flown.get() >= cfg.scenario.d0_m - path.d_tx_m - 1e-9);
            assert!(total_energy(path) <= cfg.budget || !path.feasible);
        }
    }

    #[test]
    fn energy_accounting_is_consistent() {
        let cfg = quad(10.0);
        let sol = plan(&cfg);
        let path = &sol.optimized;
        // Flight energy is draw × time exactly (constant airspeed).
        let e = EnergyModel::of(cfg.platform);
        let expect = e.flight(cfg.scenario.speed(), path.elapsed).get();
        assert!((path.energy_flight.get() - expect).abs() < 1e-6);
        let tx = e.transmit(cfg.scenario.mdata(), path.tx_session);
        assert!((path.energy_tx.get() - tx.get()).abs() < 1e-9);
    }
}
