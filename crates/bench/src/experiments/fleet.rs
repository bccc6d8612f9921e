//! Fleet experiments — many UAVs, shared spectrum, and a real planner.
//!
//! The paper's model is one sender and one receiver; `skyferry-fleet`
//! asks what happens when K UAVs contend for the same ground segment.
//! Four tables:
//!
//! 1. **Fleet size sweep** — d\* and utility versus K ∈ {1,2,4,8,16}
//!    for cyclical TDMA and UD-MAC side by side, at the representative
//!    campaign geometry. The headline claim: *d\* shifts toward
//!    transmit-earlier as the fleet grows* — waiting to fly closer now
//!    also risks the access slot, so the slot-retention hazard
//!    (ρ' = ρ + λ/v) overtakes the slot-share batch inflation and
//!    pushes the optimum outward, until contention forces immediate
//!    transmission at `d0`.
//! 2. **Contention model comparison** — share, cycle, hazard and the
//!    resulting decision for both MACs at a fixed fleet size: UD-MAC's
//!    delay-tolerant priority access retains more throughput *and*
//!    loses fewer slots, so it holds d\* closer to the solo optimum.
//! 3. **Planner ablation** — greedy versus Hungarian assignment over
//!    seeded campaign replications: realized total utility, spread of
//!    station loads, conflicts.
//! 4. **Campaign sweep** — the full stochastic pipeline (placement →
//!    plan → decide → conflicts) versus K.

use skyferry_core::failure::FailureSpec;
use skyferry_core::optimizer::optimize;
use skyferry_core::scenario::Scenario;
use skyferry_fleet::campaign::{FleetCampaign, FleetConfig, MediumSpec};
use skyferry_fleet::medium::{contended, CyclicalTdma, UdMac};
use skyferry_fleet::planner::PlannerKind;
use skyferry_fleet::trace::FleetTrace;
use skyferry_stats::table::{Column, Table, Value};

use super::Experiment;
use crate::report::{ExperimentReport, ReproConfig};
use crate::store::CampaignStore;

/// Fleet sizes swept everywhere.
pub const FLEET_SIZES: [usize; 5] = [1, 2, 4, 8, 16];

/// The representative geometry of the sweep tables: a quadrocopter
/// carrying a 10 MB batch whose link comes up at 200 m (mid operating
/// area). Interior optimum, sensitive to both contention forces.
fn sweep_scenario() -> Scenario<'static> {
    Scenario::quadrocopter_baseline()
        .with_mdata_mb(10.0)
        .with_d0(200.0)
}

/// Both media at their experiment baselines.
fn media() -> [MediumSpec; 2] {
    [
        MediumSpec::Tdma(CyclicalTdma::BASELINE),
        MediumSpec::UdMac(UdMac::BASELINE),
    ]
}

fn fleet_size_table() -> Table {
    let base = sweep_scenario();
    let mut t = Table::new(vec![
        Column::int("K").left(),
        Column::float("share tdma", 4),
        Column::float("share ud-mac", 4),
        Column::sci("rho_eff tdma (1/m)", 3),
        Column::sci("rho_eff ud-mac (1/m)", 3),
        Column::float("dopt tdma (m)", 1),
        Column::float("dopt ud-mac (m)", 1),
        Column::float("U tdma", 4),
        Column::float("U ud-mac", 4),
    ]);
    for &k in &FLEET_SIZES {
        let mut cells = vec![Value::Num(k as f64)];
        let mut shares = Vec::new();
        let mut rhos = Vec::new();
        let mut dopts = Vec::new();
        let mut utils = Vec::new();
        for spec in media() {
            let m = spec.access();
            let c = contended(base, m, k);
            let o = optimize(c.scenario());
            shares.push(m.slot_share(k));
            rhos.push(match c.scenario().failure {
                FailureSpec::Exponential(e) => e.rho_per_m,
                _ => unreachable!("contended scenarios are exponential"),
            });
            dopts.push(o.d_opt);
            utils.push(o.utility);
        }
        cells.extend(shares.into_iter().map(Value::Num));
        cells.extend(rhos.into_iter().map(Value::Num));
        cells.extend(dopts.into_iter().map(Value::Num));
        cells.extend(utils.into_iter().map(Value::Num));
        t.push(cells);
    }
    t
}

fn contention_model_table(k: usize) -> Table {
    let base = sweep_scenario();
    let mut t = Table::new(vec![
        Column::text("medium").left(),
        Column::float("share", 4),
        Column::float("cycle (s)", 1),
        Column::sci("hazard (1/s)", 3),
        Column::sci("rho_eff (1/m)", 3),
        Column::float("dopt (m)", 1),
        Column::float("U", 4),
        Column::float("Cdelay (s)", 1),
        Column::float("ship (s)", 1),
        Column::float("tx (s)", 1),
    ]);
    for spec in media() {
        let m = spec.access();
        let c = contended(base, m, k);
        let o = optimize(c.scenario());
        let rho_eff = match c.scenario().failure {
            FailureSpec::Exponential(e) => e.rho_per_m,
            _ => unreachable!("contended scenarios are exponential"),
        };
        t.push(vec![
            Value::Str(m.name().into()),
            Value::Num(m.slot_share(k)),
            Value::Num(m.cycle(k).get()),
            Value::Num(m.retention_hazard_per_s(k)),
            Value::Num(rho_eff),
            o.d_opt.into(),
            o.utility.into(),
            o.cdelay_s().into(),
            o.ship_s.into(),
            o.tx_s.into(),
        ]);
    }
    t
}

fn planner_ablation_table(cfg: &ReproConfig) -> Table {
    let reps = cfg.reps(6);
    let mut t = Table::new(vec![
        Column::text("planner").left(),
        Column::text("medium").left(),
        Column::float("planned U", 4),
        Column::float("total U", 4),
        Column::float("mean dopt (m)", 1),
        Column::float("max load", 2),
        Column::float("conflicts", 2),
    ]);
    for planner in [PlannerKind::Greedy, PlannerKind::Hungarian] {
        for medium in media() {
            let mut config = FleetConfig::baseline(8, 3, medium);
            config.planner = planner;
            // Name by medium only: the replication RNG label derives
            // from the name, so both planners must share it to be
            // scored on identical fleet layouts.
            config.name = format!("ablation-{}", medium.name());
            let outs = FleetCampaign::new(config).replicate(cfg.seed, reps);
            let n = outs.len() as f64;
            let planned_u: f64 = outs.iter().map(|o| o.planned_utility).sum::<f64>() / n;
            let total_u: f64 = outs.iter().map(|o| o.total_utility).sum::<f64>() / n;
            let mean_d: f64 = outs.iter().map(|o| o.mean_d_opt().get()).sum::<f64>() / n;
            let max_load: f64 = outs
                .iter()
                .map(|o| *o.load.iter().max().expect("stations") as f64)
                .sum::<f64>()
                / n;
            let conflicts: f64 = outs.iter().map(|o| o.conflicts.len() as f64).sum::<f64>() / n;
            t.push(vec![
                Value::Str(planner.name().into()),
                Value::Str(medium.name().into()),
                Value::Num(planned_u),
                Value::Num(total_u),
                Value::Num(mean_d),
                Value::Num(max_load),
                Value::Num(conflicts),
            ]);
        }
    }
    t
}

fn campaign_sweep_table(cfg: &ReproConfig) -> Table {
    let reps = cfg.reps(6);
    let mut t = Table::new(vec![
        Column::int("K").left(),
        Column::text("medium").left(),
        Column::float("mean dopt (m)", 1),
        Column::float("mean U", 4),
        Column::float("transmit-now frac", 3),
        Column::float("conflicts", 2),
    ]);
    for &k in &FLEET_SIZES {
        for medium in media() {
            let config = FleetConfig::baseline(k, 2, medium);
            let outs = FleetCampaign::new(config).replicate(cfg.seed, reps);
            let n = outs.len() as f64;
            let mean_d: f64 = outs.iter().map(|o| o.mean_d_opt().get()).sum::<f64>() / n;
            let mean_u: f64 = outs.iter().map(|o| o.mean_utility()).sum::<f64>() / n;
            let now: f64 = outs.iter().map(|o| o.transmit_now_fraction()).sum::<f64>() / n;
            let conflicts: f64 = outs.iter().map(|o| o.conflicts.len() as f64).sum::<f64>() / n;
            t.push(vec![
                Value::Num(k as f64),
                Value::Str(medium.name().into()),
                Value::Num(mean_d),
                Value::Num(mean_u),
                Value::Num(now),
                Value::Num(conflicts),
            ]);
        }
    }
    t
}

/// Render the canonical fleet request stream as JSONL — the artifact
/// behind `repro --export-fleet-trace` and the input to
/// `skyferry-loadgen --fleet-trace`.
///
/// One K=8, G=3 campaign per medium, `cfg.reps(4)` replications each,
/// concatenated TDMA-then-UD-MAC so the replay exercises both
/// contention mappings. Fully determined by `cfg.seed`/`cfg.quick`.
pub fn export_trace(cfg: &ReproConfig) -> String {
    let mut out = String::new();
    for medium in media() {
        let mut config = FleetConfig::baseline(8, 3, medium);
        config.name = format!("export-{}", medium.name());
        let outs = FleetCampaign::new(config.clone()).replicate(cfg.seed, cfg.reps(4));
        out.push_str(&FleetTrace::from_replications(&config, &outs).to_jsonl());
    }
    out
}

/// Regenerate the fleet experiment family.
pub fn run(cfg: &ReproConfig) -> ExperimentReport {
    let mut r = ExperimentReport::new("fleet", Fleet.title());

    let sizes = fleet_size_table();
    let (first_t, last_t) = (sizes.rows()[0][5].clone(), sizes.rows()[4][5].clone());
    let (first_u, last_u) = (sizes.rows()[0][6].clone(), sizes.rows()[4][6].clone());
    if let (Value::Num(a), Value::Num(b), Value::Num(c), Value::Num(d)) =
        (first_t, last_t, first_u, last_u)
    {
        r.note(format!(
            "dopt shifts transmit-earlier as K grows: tdma {a:.0} m -> {b:.0} m, \
             ud-mac {c:.0} m -> {d:.0} m across K=1..16 (losing your slot \
             outweighs sharing it)"
        ));
    }
    r.note(
        "contention composes with Eq. (2) unchanged: slot share scales s(d), \
         slot-retention hazard adds lambda/v to rho"
            .to_string(),
    );
    r.table("Fleet size sweep", sizes);
    r.table("Contention models at K=8", contention_model_table(8));
    r.table("Planner ablation", planner_ablation_table(cfg));
    r.table("Campaign sweep", campaign_sweep_table(cfg));
    r
}

/// Registry entry for the fleet family.
pub struct Fleet;

impl Experiment for Fleet {
    fn id(&self) -> &'static str {
        "fleet"
    }

    fn title(&self) -> &'static str {
        "Fleet contention: d* vs fleet size, TDMA vs UD-MAC, planner ablation"
    }

    fn deps(&self) -> &'static [&'static str] {
        &[]
    }

    fn run(&self, cfg: &ReproConfig, _store: &mut CampaignStore) -> ExperimentReport {
        run(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(v: &Value) -> f64 {
        match v {
            Value::Num(x) => *x,
            _ => panic!("expected numeric cell"),
        }
    }

    #[test]
    fn dopt_shifts_transmit_earlier_as_fleet_grows() {
        // The acceptance claim: under BOTH contention models the
        // optimum moves outward (transmit earlier) monotonically in K.
        let t = fleet_size_table();
        for col in [5usize, 6] {
            let mut prev = f64::NEG_INFINITY;
            for row in t.rows() {
                let d = num(&row[col]);
                assert!(
                    d >= prev - 1e-6,
                    "dopt must be non-decreasing in K (col {col}): {d} < {prev}"
                );
                prev = d;
            }
            let first = num(&t.rows()[0][col]);
            let last = num(&t.rows()[4][col]);
            assert!(
                last > first + 10.0,
                "K=16 must transmit at least 10 m earlier than K=1 (col {col})"
            );
        }
    }

    #[test]
    fn utility_falls_with_contention() {
        let t = fleet_size_table();
        for col in [7usize, 8] {
            let mut prev = f64::INFINITY;
            for row in t.rows() {
                let u = num(&row[col]);
                assert!(u <= prev + 1e-12, "utility must fall with K (col {col})");
                prev = u;
            }
        }
    }

    #[test]
    fn udmac_dominates_tdma_at_every_k() {
        // Delay-tolerant priority access wastes less medium and loses
        // fewer slots, so it preserves more utility than TDMA.
        let t = fleet_size_table();
        for row in t.rows().iter().skip(1) {
            assert!(num(&row[2]) > num(&row[1]), "ud-mac share > tdma share");
            assert!(num(&row[8]) >= num(&row[7]), "ud-mac U >= tdma U");
        }
    }

    #[test]
    fn hungarian_total_at_least_greedy() {
        let cfg = ReproConfig::quick();
        let t = planner_ablation_table(&cfg);
        // Rows: [greedy×tdma, greedy×ud-mac, hungarian×tdma,
        // hungarian×ud-mac]; compare per medium. Greedy's placement is
        // a feasible point of the Hungarian matching, so the guarantee
        // holds on the planned (marginal) objective — realized totals,
        // re-scored at final loads, may reorder.
        let rows = t.rows();
        for (g, h) in [(0usize, 2usize), (1, 3)] {
            assert!(
                num(&rows[h][2]) >= num(&rows[g][2]) - 1e-9,
                "hungarian must not lose to greedy on planned utility"
            );
        }
    }

    #[test]
    fn export_trace_is_valid_sorted_jsonl() {
        let cfg = ReproConfig::quick();
        let jsonl = export_trace(&cfg);
        // Two media × reps(4)=2 replications × 8 UAVs.
        assert_eq!(jsonl.lines().count(), 32);
        for line in jsonl.lines() {
            let v = skyferry_stats::json::parse(line).expect("valid JSON line");
            for key in ["t", "platform", "d0", "mdata", "rho", "speed"] {
                assert!(v.get(key).is_some(), "missing {key}");
            }
        }
        // Deterministic: same config, same bytes.
        assert_eq!(jsonl, export_trace(&cfg));
    }

    #[test]
    fn report_has_four_tables_and_notes() {
        let r = run(&ReproConfig::quick());
        assert_eq!(r.tables.len(), 4);
        assert!(!r.notes.is_empty());
    }
}
