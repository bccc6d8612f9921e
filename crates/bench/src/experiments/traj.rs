//! Trajectory experiments — d\* generalised from a scalar to a path.
//!
//! The paper's UAV flies the straight encounter corridor and chooses
//! *where on it* to transmit; `skyferry-traj` lets it also choose *how
//! to get there* under a wind field and a battery budget. Four tables:
//!
//! 1. **Energy-budget frontier** — utility versus battery budget for
//!    the straight strategy and the DP path, calm and crosswind side
//!    by side. The optimized path weakly dominates the straight-line
//!    d\* at *every* budget; the budget itself acts as a sharp
//!    feasibility cliff because the Eq. (2) optimum is nearly
//!    energy-minimal when hover ≈ cruise draw.
//! 2. **Wind ablation** — the gain of planning in 2-D versus wind
//!    speed: exactly zero in calm air (the DP reproduces the scalar
//!    optimizer bit-for-bit), growing steeply as crosswind makes the
//!    straight radial track crawl.
//! 3. **Failure-rate ablation** — both strategies shift
//!    transmit-earlier as ρ grows, path planning does not change the
//!    paper's qualitative law.
//! 4. **Battery campaign sweep** — seeded wind-jitter replications
//!    versus budget fraction: feasibility rises with budget, the mean
//!    gain stays non-negative throughout.

use skyferry_core::scenario::Scenario;
use skyferry_stats::table::{Column, Table, Value};
use skyferry_traj::campaign::{battery_budget, crab_fraction, feasible_fraction, mean_gain};
use skyferry_traj::export::TrajTrace;
use skyferry_traj::planner::{plan, TrajConfig, TrajSolution};
use skyferry_traj::{GridSpec, TrajCampaign};
use skyferry_uav::platform::PlatformKind;
use skyferry_uav::wind::WindConfig;
use skyferry_units::{Joules, MetersPerSec};

use super::Experiment;
use crate::report::{ExperimentReport, ReproConfig};
use crate::store::CampaignStore;

/// Crosswind used wherever one representative wind is needed: strong
/// enough that crabbing pays, well inside the 4.5 m/s airspeed.
const CROSSWIND_MPS: f64 = 3.5;

/// Battery budgets swept by the frontier table, joules. The 10 MB
/// corridor plan costs ≈ 3.0 kJ in calm air and ≈ 3.3 kJ in crosswind,
/// so the sweep brackets both cliffs.
const BUDGETS_J: [f64; 7] = [
    2_400.0, 2_700.0, 3_000.0, 3_300.0, 3_600.0, 4_200.0, 6_000.0,
];

/// Wind speeds swept by the ablation, m/s.
const WINDS_MPS: [f64; 9] = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0];

/// Budget fractions swept by the campaign table. The quadrocopter
/// battery holds 216 kJ and the 10 MB plan costs ≈ 3.0–3.5 kJ under
/// jittered crosswind, so the sweep straddles the feasibility cliff.
const FRACTIONS: [f64; 5] = [0.012, 0.0145, 0.0155, 0.016, 0.03];

/// The representative corridor: a quadrocopter with a 10 MB batch
/// (interior optimum at d\* ≈ 69 m on the 100 m encounter).
fn corridor() -> Scenario<'static> {
    Scenario::quadrocopter_baseline().with_mdata_mb(10.0)
}

/// Planner resolution for this run mode.
fn planner_grid(cfg: &ReproConfig) -> GridSpec {
    if cfg.quick {
        GridSpec::quick()
    } else {
        GridSpec::baseline()
    }
}

/// Plan one cell of the sweep space.
fn solve(
    cfg: &ReproConfig,
    scenario: Scenario<'static>,
    wind: WindConfig,
    budget: Joules,
) -> TrajSolution {
    plan(&TrajConfig {
        name: "traj-experiment".into(),
        platform: PlatformKind::Quadrocopter,
        scenario,
        wind,
        budget,
        grid: planner_grid(cfg),
    })
}

fn yes_no(b: bool) -> Value {
    Value::Str(if b { "yes" } else { "no" }.into())
}

fn frontier_table(cfg: &ReproConfig) -> Table {
    let mut t = Table::new(vec![
        Column::text("wind").left(),
        Column::float("budget (kJ)", 2),
        Column::float("dopt line (m)", 2),
        Column::float("U line", 5),
        Column::text("feas line"),
        Column::float("dopt path (m)", 2),
        Column::float("U path", 5),
        Column::text("feas path"),
        Column::float("gain (%)", 2),
    ]);
    for (label, wind) in [
        ("calm", WindConfig::calm()),
        (
            "cross 3.5",
            WindConfig::steady(0.0, MetersPerSec::new(CROSSWIND_MPS)),
        ),
    ] {
        for b in BUDGETS_J {
            let sol = solve(cfg, corridor(), wind, Joules::new(b));
            t.push(vec![
                Value::Str(label.into()),
                Value::Num(b / 1_000.0),
                Value::Num(sol.straight.d_tx_m),
                Value::Num(sol.straight.utility),
                yes_no(sol.straight.feasible),
                Value::Num(sol.optimized.d_tx_m),
                Value::Num(sol.optimized.utility),
                yes_no(sol.optimized.feasible),
                Value::Num(sol.gain() * 100.0),
            ]);
        }
    }
    t
}

fn wind_table(cfg: &ReproConfig) -> Table {
    let corridor = corridor();
    let airspeed = corridor.v_mps;
    let mut t = Table::new(vec![
        Column::float("wind (m/s)", 1),
        Column::float("corridor gs (m/s)", 2),
        Column::float("dopt line (m)", 2),
        Column::float("U line", 5),
        Column::float("dopt path (m)", 2),
        Column::float("U path", 5),
        Column::text("crabbed"),
        Column::float("gain (%)", 2),
    ]);
    let ample = battery_budget(PlatformKind::Quadrocopter, 1.0);
    for w in WINDS_MPS {
        let wind = WindConfig::steady(0.0, MetersPerSec::new(w));
        let sol = solve(cfg, corridor, wind, ample);
        // Ground speed on the straight radial track under pure
        // crosswind: the wind-triangle crab solution.
        let gs = (airspeed * airspeed - w * w).sqrt();
        t.push(vec![
            Value::Num(w),
            Value::Num(gs),
            Value::Num(sol.straight.d_tx_m),
            Value::Num(sol.straight.utility),
            Value::Num(sol.optimized.d_tx_m),
            Value::Num(sol.optimized.utility),
            yes_no(sol.optimized.crabbed),
            Value::Num(sol.gain() * 100.0),
        ]);
    }
    t
}

fn failure_table(cfg: &ReproConfig) -> Table {
    let base = corridor();
    let rho0 = match base.failure {
        skyferry_core::failure::FailureSpec::Exponential(e) => e.rho_per_m,
        _ => unreachable!("baselines are exponential"),
    };
    let mut t = Table::new(vec![
        Column::float("rho multiplier", 1),
        Column::sci("rho (1/m)", 3),
        Column::float("dopt line (m)", 2),
        Column::float("U line", 5),
        Column::float("dopt path (m)", 2),
        Column::float("U path", 5),
        Column::float("gain (%)", 2),
    ]);
    let wind = WindConfig::steady(0.0, MetersPerSec::new(3.0));
    let ample = battery_budget(PlatformKind::Quadrocopter, 1.0);
    for mult in [0.0, 0.5, 1.0, 2.0, 4.0] {
        let rho = rho0 * mult;
        let sol = solve(cfg, base.with_rho(rho), wind, ample);
        t.push(vec![
            Value::Num(mult),
            Value::Num(rho),
            Value::Num(sol.straight.d_tx_m),
            Value::Num(sol.straight.utility),
            Value::Num(sol.optimized.d_tx_m),
            Value::Num(sol.optimized.utility),
            Value::Num(sol.gain() * 100.0),
        ]);
    }
    t
}

fn campaign_table(cfg: &ReproConfig) -> Table {
    let reps = cfg.reps(6);
    let mut t = Table::new(vec![
        Column::float("budget frac", 4),
        Column::float("budget (kJ)", 2),
        Column::float("mean gain (%)", 2),
        Column::float("crab frac", 3),
        Column::float("feasible frac", 3),
    ]);
    for frac in FRACTIONS {
        let budget = battery_budget(PlatformKind::Quadrocopter, frac);
        // Same campaign name for every fraction: the wind draws are then
        // identical across rows, which makes the feasible fraction
        // rigorously monotone in the budget.
        let mut config = TrajConfig::baseline(
            "sweep",
            WindConfig::steady(0.0, MetersPerSec::new(2.5)),
            budget,
        );
        config.scenario = corridor();
        config.grid = planner_grid(cfg);
        let outs = TrajCampaign::new(config).replicate(cfg.seed, reps);
        t.push(vec![
            Value::Num(frac),
            Value::Num(budget.get() / 1_000.0),
            Value::Num(mean_gain(&outs) * 100.0),
            Value::Num(crab_fraction(&outs)),
            Value::Num(feasible_fraction(&outs)),
        ]);
    }
    t
}

/// Render the canonical trajectory path set as JSONL — the artifact
/// behind `repro --export-traj`.
///
/// One crosswind campaign at the 0.016 budget fraction (just above the
/// feasibility cliff), `cfg.reps(4)` replications, two paths per
/// replication (straight and optimized). Fully determined by
/// `cfg.seed`/`cfg.quick`.
pub fn export_paths(cfg: &ReproConfig) -> String {
    let mut config = TrajConfig::baseline(
        "export",
        WindConfig::steady(0.0, MetersPerSec::new(2.5)),
        battery_budget(PlatformKind::Quadrocopter, 0.016),
    );
    config.scenario = corridor();
    config.grid = planner_grid(cfg);
    let outs = TrajCampaign::new(config).replicate(cfg.seed, cfg.reps(4));
    TrajTrace::from_replications(&outs).to_jsonl()
}

/// Regenerate the trajectory experiment family.
pub fn run(cfg: &ReproConfig, _store: &mut CampaignStore) -> ExperimentReport {
    let mut r = ExperimentReport::new("traj", Traj.title());

    let wind = wind_table(cfg);
    if let (Value::Num(calm_gain), Value::Num(top_gain)) = (
        wind.rows()[0][7].clone(),
        wind.rows()[WINDS_MPS.len() - 1][7].clone(),
    ) {
        r.note(format!(
            "planning in 2-D is free insurance: gain is exactly {calm_gain:.1}% in calm \
             air (bit-equal to the scalar optimizer) and {top_gain:.1}% at 4 m/s of \
             crosswind"
        ));
    }
    r.note(
        "the battery budget is a feasibility cliff, not a dial: the Eq. (2) optimum \
         is nearly energy-minimal because hover and cruise draw are close"
            .to_string(),
    );
    r.table("Energy-budget frontier", frontier_table(cfg));
    r.table("Wind ablation", wind);
    r.table("Failure-rate ablation", failure_table(cfg));
    r.table("Battery campaign sweep", campaign_table(cfg));
    r
}

/// Registry entry for the trajectory family.
pub struct Traj;

impl Experiment for Traj {
    fn id(&self) -> &'static str {
        "traj"
    }

    fn title(&self) -> &'static str {
        "Trajectory planning: d* as a path — wind, energy budget, failure rate"
    }

    fn deps(&self) -> &'static [&'static str] {
        &[]
    }

    fn run(&self, cfg: &ReproConfig, store: &mut CampaignStore) -> ExperimentReport {
        run(cfg, store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ReproConfig {
        ReproConfig {
            seed: 0x5AFE_5EED,
            quick: true,
            out_dir: None,
        }
    }

    fn num(v: &Value) -> f64 {
        match v {
            Value::Num(x) => *x,
            _ => panic!("expected numeric cell"),
        }
    }

    #[test]
    fn optimized_path_weakly_dominates_at_every_budget() {
        // The acceptance claim: the frontier shows the optimized path
        // weakly dominating the straight-line d* at every energy
        // budget, in calm air and in wind.
        let t = frontier_table(&quick());
        assert_eq!(t.rows().len(), 2 * BUDGETS_J.len());
        for row in t.rows() {
            let (u_line, u_path) = (num(&row[3]), num(&row[6]));
            assert!(
                u_path >= u_line,
                "path must weakly dominate: {u_path} < {u_line}"
            );
            assert!(num(&row[8]) >= 0.0, "gain must be non-negative");
        }
    }

    #[test]
    fn budget_cliff_shows_in_both_wind_regimes() {
        let t = frontier_table(&quick());
        for half in t.rows().chunks(BUDGETS_J.len()) {
            let first = half.first().expect("rows");
            let last = half.last().expect("rows");
            assert_eq!(first[7], Value::Str("no".into()), "2.4 kJ must not fit");
            assert_eq!(last[7], Value::Str("yes".into()), "6 kJ must fit");
        }
    }

    #[test]
    fn calm_air_gain_is_exactly_zero_and_wind_gain_grows() {
        let t = wind_table(&quick());
        let rows = t.rows();
        // Calm air: bit-equal to the scalar optimizer — the gain is not
        // merely small, it is zero.
        assert_eq!(num(&rows[0][7]), 0.0);
        assert_eq!(rows[0][6], Value::Str("no".into()));
        for row in rows {
            assert!(num(&row[7]) >= 0.0, "gain must never be negative");
        }
        let top = num(&rows[WINDS_MPS.len() - 1][7]);
        assert!(top > 1.0, "4 m/s crosswind must pay >1% ({top}%)");
        assert_eq!(rows[WINDS_MPS.len() - 1][6], Value::Str("yes".into()));
    }

    #[test]
    fn both_strategies_transmit_earlier_as_rho_grows() {
        let t = failure_table(&quick());
        for col in [2usize, 4] {
            let mut prev = f64::NEG_INFINITY;
            for row in t.rows() {
                let d = num(&row[col]);
                assert!(
                    d >= prev - 1e-6,
                    "dopt must be non-decreasing in rho (col {col}): {d} < {prev}"
                );
                prev = d;
            }
        }
    }

    #[test]
    fn campaign_feasibility_rises_with_budget() {
        let t = campaign_table(&quick());
        let rows = t.rows();
        let mut prev = f64::NEG_INFINITY;
        for row in rows {
            assert!(num(&row[2]) >= 0.0, "mean gain must be non-negative");
            let f = num(&row[4]);
            assert!(f >= prev - 1e-12, "feasibility must rise with budget");
            prev = f;
        }
        let last = num(&rows[FRACTIONS.len() - 1][4]);
        assert_eq!(last, 1.0, "the 6.48 kJ budget must always fit");
    }

    #[test]
    fn export_is_seed_deterministic_and_parses() {
        let a = export_paths(&quick());
        let b = export_paths(&quick());
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 2 * quick().reps(4) as usize);
        for line in a.lines() {
            skyferry_stats::json::parse(line).expect("valid JSONL line");
        }
        let other = export_paths(&ReproConfig { seed: 1, ..quick() });
        assert_ne!(a, other, "different seeds must differ");
    }
}
