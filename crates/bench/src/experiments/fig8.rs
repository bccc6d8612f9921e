//! Figure 8 — `U(d)` for various failure rates ρ, both baselines.
//!
//! Left panel: airplane scenario (d0 = 300 m); right panel: quadrocopter
//! scenario (d0 = 100 m). Claims: the optimum distance grows with ρ, the
//! curves are approximately concave for ρ ≪ 1, and the baseline ρ values
//! are the battery-range derivations.

use skyferry_core::scenario::Scenario;
use skyferry_core::sweep::{paper_rhos, rho_sweep, RhoCurve};
use skyferry_stats::table::{Column, Table, Value};

use super::Experiment;
use crate::report::{ExperimentReport, ReproConfig};
use crate::store::CampaignStore;

/// Curve resolution (points over `[d_min, d0]`).
const POINTS: usize = 15;

/// Compute both panels.
pub fn simulate() -> (Vec<RhoCurve>, Vec<RhoCurve>) {
    let air = rho_sweep(Scenario::airplane_baseline(), &paper_rhos::AIRPLANE, POINTS);
    let quad = rho_sweep(
        Scenario::quadrocopter_baseline(),
        &paper_rhos::QUADROCOPTER,
        POINTS,
    );
    (air, quad)
}

fn panel_table(curves: &[RhoCurve]) -> Table {
    let mut columns = vec![Column::int("d (m)").left()];
    columns.extend(
        curves
            .iter()
            .map(|c| Column::float(format!("rho={:.2e}", c.rho_per_m), 4)),
    );
    let mut t = Table::new(columns);
    for i in 0..POINTS {
        let d = curves[0].curve[i].0;
        let mut cells = vec![Value::Num(d)];
        cells.extend(curves.iter().map(|c| Value::Num(c.curve[i].1)));
        t.push(cells);
    }
    t
}

fn maxima_table(curves: &[RhoCurve]) -> Table {
    let mut t = Table::new(vec![
        Column::sci("rho (1/m)", 2).left(),
        Column::float("dopt (m)", 1),
        Column::float("U(dopt)", 4),
        Column::float("Cdelay (s)", 1),
    ]);
    for c in curves {
        t.push(vec![
            Value::Num(c.rho_per_m),
            c.optimum.d_opt.into(),
            c.optimum.utility.into(),
            c.optimum.cdelay_s().into(),
        ]);
    }
    t
}

/// Regenerate Figure 8.
pub fn run(_cfg: &ReproConfig) -> ExperimentReport {
    let (air, quad) = simulate();
    let mut r = ExperimentReport::new("fig8", Fig8.title());

    let air_span = (
        air.first().expect("non-empty").optimum.d_opt,
        air.last().expect("non-empty").optimum.d_opt,
    );
    let quad_span = (
        quad.first().expect("non-empty").optimum.d_opt,
        quad.last().expect("non-empty").optimum.d_opt,
    );
    r.note(format!(
        "airplane dopt grows {:.0} m → {:.0} m across rho (paper: dopt increases with rho)",
        air_span.0, air_span.1
    ));
    r.note(format!(
        "quadrocopter dopt grows {:.0} m → {:.0} m across rho",
        quad_span.0, quad_span.1
    ));
    r.table("Airplane panel U(d)", panel_table(&air));
    r.table("Airplane maxima", maxima_table(&air));
    r.table("Quadrocopter panel U(d)", panel_table(&quad));
    r.table("Quadrocopter maxima", maxima_table(&quad));
    r
}

/// Registry entry for Figure 8.
pub struct Fig8;

impl Experiment for Fig8 {
    fn id(&self) -> &'static str {
        "fig8"
    }

    fn title(&self) -> &'static str {
        "U(d) for various failure rates (both baselines)"
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

    #[test]
    fn dopt_grows_with_rho_in_both_panels() {
        let (air, quad) = simulate();
        for panel in [&air, &quad] {
            for w in panel.windows(2) {
                assert!(
                    w[1].optimum.d_opt >= w[0].optimum.d_opt - 1e-6,
                    "dopt not monotone in rho"
                );
            }
        }
    }

    #[test]
    fn utility_scale_matches_paper_axes() {
        // Figure 8 y-axes top out around 0.025 (airplane) and 0.04 (quad).
        let (air, quad) = simulate();
        let max_air = air
            .iter()
            .flat_map(|c| c.curve.iter().map(|&(_, u)| u))
            .fold(0.0, f64::max);
        let max_quad = quad
            .iter()
            .flat_map(|c| c.curve.iter().map(|&(_, u)| u))
            .fold(0.0, f64::max);
        assert!(
            (0.01..0.05).contains(&max_air),
            "airplane U scale {max_air}"
        );
        assert!((0.02..0.08).contains(&max_quad), "quad U scale {max_quad}");
    }

    #[test]
    fn low_rho_curves_unimodal() {
        // "U(d) can be approximated with a concave function for ρ ≪ 1":
        // at minimum the baseline curves are unimodal (one sign change of
        // the discrete slope).
        let (air, _) = simulate();
        let c = &air[0].curve;
        let mut sign_changes = 0;
        let mut prev_slope: f64 = 0.0;
        for w in c.windows(2) {
            let slope = w[1].1 - w[0].1;
            if prev_slope != 0.0 && slope.signum() != prev_slope.signum() {
                sign_changes += 1;
            }
            if slope != 0.0 {
                prev_slope = slope;
            }
        }
        assert!(sign_changes <= 1, "{sign_changes} slope sign changes");
    }

    #[test]
    fn report_has_four_tables() {
        let r = run(&ReproConfig::quick());
        assert_eq!(r.tables.len(), 4);
    }
}
