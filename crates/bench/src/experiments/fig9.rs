//! Figure 9 — delayed gratification for different data sizes and speeds
//! (airplane scenario).
//!
//! Each `Mdata ∈ {5, 7, 10, 15, 25, 45} MB` draws a curve of
//! `(dopt, U(dopt))` sampled at `v ∈ {3, 5, 10, 15, 20} m/s`. Claims:
//! higher speed moves the optimum closer; larger batches move it closer
//! at the cost of reduced utility; once the 20 m minimum is reached,
//! higher speed *increases* the gratification (seen for 25 and 45 MB
//! above 10–15 m/s).

use skyferry_core::scenario::Scenario;
use skyferry_core::sweep::{gratification_sweep, paper_grid, GratificationPoint};
use skyferry_stats::table::{Column, Table};

use super::Experiment;
use crate::report::{ExperimentReport, ReproConfig};
use crate::store::CampaignStore;

/// Compute the Figure 9 grid.
pub fn simulate() -> Vec<Vec<GratificationPoint>> {
    gratification_sweep(
        Scenario::airplane_baseline(),
        &paper_grid::MDATA_MB,
        &paper_grid::SPEEDS_MPS,
    )
}

/// Regenerate Figure 9.
pub fn run(_cfg: &ReproConfig) -> ExperimentReport {
    let grid = simulate();

    let speed_columns = |decimals: usize| {
        let mut columns = vec![Column::text("Mdata \\ v")];
        columns.extend(
            ["3 m/s", "5 m/s", "10 m/s", "15 m/s", "20 m/s"]
                .iter()
                .map(|h| Column::float(*h, decimals)),
        );
        columns
    };
    let mut dopt = Table::new(speed_columns(1));
    let mut util = Table::new(speed_columns(4));
    for row in &grid {
        let label = format!("{:.0} MB", row[0].mdata_mb);
        let d: Vec<f64> = row.iter().map(|p| p.optimum.d_opt).collect();
        let u: Vec<f64> = row.iter().map(|p| p.optimum.utility).collect();
        dopt.row_f64(&label, &d);
        util.row_f64(&label, &u);
    }

    let mut r = ExperimentReport::new("fig9", Fig9.title());
    let small = &grid[0];
    let large = grid.last().expect("non-empty");
    r.note(format!(
        "at v=10 m/s: dopt({:.0} MB) = {:.0} m vs dopt({:.0} MB) = {:.0} m (larger batches move closer)",
        small[0].mdata_mb,
        small[2].optimum.d_opt,
        large[0].mdata_mb,
        large[2].optimum.d_opt
    ));
    let u45_15 = large[3].optimum.utility;
    let u45_20 = large[4].optimum.utility;
    r.note(format!(
        "45 MB at v≥15 m/s pins at 20 m and U grows with v: U(15)={u45_15:.4} < U(20)={u45_20:.4}"
    ));
    r.table("dopt (m) per Mdata × v", dopt);
    r.table("U(dopt) per Mdata × v", util);
    r
}

/// Registry entry for Figure 9.
pub struct Fig9;

impl Experiment for Fig9 {
    fn id(&self) -> &'static str {
        "fig9"
    }

    fn title(&self) -> &'static str {
        "Delayed gratification for different data sizes and speeds (airplane scenario)"
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
    fn grid_is_6_by_5() {
        let g = simulate();
        assert_eq!(g.len(), 6);
        assert!(g.iter().all(|row| row.len() == 5));
    }

    #[test]
    fn dopt_nonincreasing_in_speed_per_row() {
        for row in simulate() {
            for w in row.windows(2) {
                assert!(
                    w[1].optimum.d_opt <= w[0].optimum.d_opt + 1e-6,
                    "Mdata={} MB: dopt grew with v",
                    row[0].mdata_mb
                );
            }
        }
    }

    #[test]
    fn bigger_batches_closer_and_less_happy() {
        let g = simulate();
        for col in 0..5 {
            for pair in g.windows(2) {
                let (s, l) = (&pair[0][col], &pair[1][col]);
                assert!(l.optimum.d_opt <= s.optimum.d_opt + 1e-6);
                assert!(l.optimum.utility < s.optimum.utility);
            }
        }
    }

    #[test]
    fn saturation_effect_for_45mb() {
        let g = simulate();
        let row45 = g.last().unwrap();
        // Once dopt pins at 20 m (high speeds), utility increases with v.
        let pinned: Vec<_> = row45
            .iter()
            .filter(|p| (p.optimum.d_opt - 20.0).abs() < 0.5)
            .collect();
        assert!(pinned.len() >= 2, "45 MB should pin at d_min for fast v");
        for w in pinned.windows(2) {
            assert!(w[1].optimum.utility > w[0].optimum.utility);
        }
    }

    #[test]
    fn small_batch_at_low_speed_transmits_far_out() {
        let g = simulate();
        let p = &g[0][0]; // 5 MB at 3 m/s
        assert!(
            p.optimum.d_opt > 100.0,
            "5 MB at 3 m/s should stay far out, dopt={}",
            p.optimum.d_opt
        );
    }
}
