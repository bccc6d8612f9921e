//! Figure 6 — best fixed MCS vs auto PHY rate between the airplanes.
//!
//! The paper fixes the PHY rate to MCS1, MCS2, MCS3 and MCS8 and compares
//! the best of them against auto rate at each distance 20–260 m. Claims:
//! the best fixed MCS beats auto rate by "100 % or more" at each
//! distance; STBC rates (MCS1–3) win up to ≈220 m; the SDM rate MCS8
//! takes over at the far edge (240–260 m).
//!
//! The auto-rate column is the same campaign as Figure 5, so with a shared
//! [`CampaignStore`] its 13 cells are served from the Figure 5 sweep.

use skyferry_net::campaign::{CampaignConfig, ControllerKind};
use skyferry_phy::mcs::Mcs;
use skyferry_stats::quantile::median;
use skyferry_stats::table::{Column, Table, Value};

use super::Experiment;
use crate::report::{ExperimentReport, ReproConfig};
use crate::store::CampaignStore;

/// The fixed MCS set the paper evaluates.
pub const FIXED_MCS: [u8; 4] = [1, 2, 3, 8];

/// The measured distances of Figure 6.
pub fn distances() -> Vec<f64> {
    (1..=13).map(|i| 20.0 * i as f64).collect()
}

/// One distance's medians.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Distance, metres.
    pub d_m: f64,
    /// Auto-rate median, Mb/s.
    pub auto_mbps: f64,
    /// Median per fixed MCS, Mb/s (same order as [`FIXED_MCS`]).
    pub fixed_mbps: Vec<f64>,
}

impl Fig6Row {
    /// Index into [`FIXED_MCS`] of the best fixed rate.
    pub fn best_fixed_index(&self) -> usize {
        self.fixed_mbps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("non-empty")
            .0
    }

    /// The best fixed median, Mb/s.
    pub fn best_fixed_mbps(&self) -> f64 {
        self.fixed_mbps[self.best_fixed_index()]
    }
}

/// Run the Figure 6 campaign.
pub fn simulate(cfg: &ReproConfig, store: &mut CampaignStore) -> Vec<Fig6Row> {
    let base = super::fig5::campaign(cfg);
    let reps = cfg.reps(6);
    let distances = distances();
    // One batch over the full (controller × distance) grid: the store
    // fills every missing cell through one flattened parallel pool, and
    // per-cell results do not depend on how tasks are scheduled.
    let mut requests: Vec<(CampaignConfig, f64)> = distances.iter().map(|&d| (base, d)).collect();
    for &m in &FIXED_MCS {
        let c = CampaignConfig {
            controller: ControllerKind::Fixed(Mcs::new(m)),
            ..base
        };
        requests.extend(distances.iter().map(|&d| (c, d)));
    }
    store.ensure(&requests, reps);
    distances
        .iter()
        .map(|&d| {
            let auto = median(&store.samples(&base, d, reps)).expect("non-empty");
            let fixed_mbps = FIXED_MCS
                .iter()
                .map(|&m| {
                    let c = CampaignConfig {
                        controller: ControllerKind::Fixed(Mcs::new(m)),
                        ..base
                    };
                    median(&store.samples(&c, d, reps)).expect("non-empty")
                })
                .collect();
            Fig6Row {
                d_m: d,
                auto_mbps: auto,
                fixed_mbps,
            }
        })
        .collect()
}

/// Regenerate Figure 6.
pub fn run(cfg: &ReproConfig, store: &mut CampaignStore) -> ExperimentReport {
    let rows = simulate(cfg, store);
    let mut t = Table::new(vec![
        Column::int("d (m)").left(),
        Column::float("autorate", 1),
        Column::float("MCS1", 1),
        Column::float("MCS2", 1),
        Column::float("MCS3", 1),
        Column::float("MCS8", 1),
        Column::text("best").right(),
        Column::float("best/auto", 2),
    ]);
    for row in &rows {
        let best = row.best_fixed_mbps();
        let ratio = if row.auto_mbps > 0.1 {
            best / row.auto_mbps
        } else {
            f64::INFINITY
        };
        t.push(vec![
            Value::Num(row.d_m),
            row.auto_mbps.into(),
            row.fixed_mbps[0].into(),
            row.fixed_mbps[1].into(),
            row.fixed_mbps[2].into(),
            row.fixed_mbps[3].into(),
            format!("MCS{}", FIXED_MCS[row.best_fixed_index()]).into(),
            if ratio.is_finite() {
                Value::Num(ratio)
            } else {
                "inf".into()
            },
        ]);
    }

    let mut r = ExperimentReport::new("fig6", Fig6.title());

    // Paper claim 1: best fixed ≥ auto everywhere, typically ≥ 2×.
    let wins = rows
        .iter()
        .filter(|row| row.best_fixed_mbps() >= row.auto_mbps)
        .count();
    let mean_gain: f64 = {
        let gains: Vec<f64> = rows
            .iter()
            .filter(|row| row.auto_mbps > 0.5)
            .map(|row| row.best_fixed_mbps() / row.auto_mbps)
            .collect();
        gains.iter().sum::<f64>() / gains.len().max(1) as f64
    };
    r.note(format!(
        "best fixed MCS beats auto rate at {wins}/{} distances, mean gain {mean_gain:.1}x (paper: '100% or more' → ≥2x)",
        rows.len()
    ));

    // Paper claim 2: STBC single-stream wins near, SDM MCS8 at the edge.
    let far_winner = FIXED_MCS[rows.last().expect("non-empty").best_fixed_index()];
    let near_winner = FIXED_MCS[rows[0].best_fixed_index()];
    r.note(format!(
        "winner at 20 m: MCS{near_winner} (paper: MCS3, an STBC rate); winner at 260 m: MCS{far_winner} (paper: MCS8, the SDM rate)"
    ));
    r.table("Figure 6 medians", t);
    r
}

/// Registry entry for Figure 6.
pub struct Fig6;

impl Experiment for Fig6 {
    fn id(&self) -> &'static str {
        "fig6"
    }

    fn title(&self) -> &'static str {
        "Best fixed MCS vs auto PHY rate between the airplanes (medians, Mb/s)"
    }

    fn deps(&self) -> &'static [&'static str] {
        &[
            "airplane/autorate",
            "airplane/mcs1",
            "airplane/mcs2",
            "airplane/mcs3",
            "airplane/mcs8",
        ]
    }

    fn run(&self, cfg: &ReproConfig, store: &mut CampaignStore) -> ExperimentReport {
        run(cfg, store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simulate_fresh(cfg: &ReproConfig) -> Vec<Fig6Row> {
        simulate(cfg, &mut CampaignStore::new(cfg.quick))
    }

    #[test]
    fn best_fixed_beats_autorate_broadly() {
        let rows = simulate_fresh(&ReproConfig::quick());
        let wins = rows
            .iter()
            .filter(|r| r.best_fixed_mbps() >= r.auto_mbps * 0.95)
            .count();
        assert!(
            wins * 10 >= rows.len() * 8,
            "fixed won only {wins}/{}",
            rows.len()
        );
    }

    #[test]
    fn autorate_leaves_large_gains_at_mid_range() {
        let rows = simulate_fresh(&ReproConfig::quick());
        // Average gain over usable distances must be substantial.
        let gains: Vec<f64> = rows
            .iter()
            .filter(|r| r.auto_mbps > 0.5)
            .map(|r| r.best_fixed_mbps() / r.auto_mbps)
            .collect();
        let mean = gains.iter().sum::<f64>() / gains.len() as f64;
        assert!(mean > 1.3, "mean gain {mean:.2} too small for Figure 6");
    }

    #[test]
    fn single_stream_wins_near_sdm_wins_far() {
        let rows = simulate_fresh(&ReproConfig::quick());
        let near = FIXED_MCS[rows[0].best_fixed_index()];
        assert!(near != 8, "near winner must be an STBC rate, got MCS{near}");
        let far = FIXED_MCS[rows.last().unwrap().best_fixed_index()];
        assert_eq!(far, 8, "far winner must be MCS8");
    }

    #[test]
    fn shares_the_fig5_campaign_cells() {
        // Figure 6's auto-rate column is the Figure 5 sweep: after fig5
        // runs, every auto cell at 20–260 m must be a hit.
        let cfg = ReproConfig::quick();
        let mut store = CampaignStore::new(cfg.quick);
        super::super::fig5::simulate(&cfg, &mut store);
        let miss_before = store.misses();
        let rows = simulate(&cfg, &mut store);
        assert_eq!(rows.len(), 13);
        // The 13 auto cells were already present; only the 4×13 fixed-MCS
        // cells are new.
        assert_eq!(store.misses() - miss_before, 4 * 13);
        assert!(store.hits() >= 13);
    }

    #[test]
    fn report_has_13_rows() {
        let cfg = ReproConfig::quick();
        let r = run(&cfg, &mut CampaignStore::new(cfg.quick));
        let (_, t) = &r.tables[0];
        assert_eq!(t.rows().len(), 13);
    }
}
