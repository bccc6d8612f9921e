//! Figure 5 — throughput vs distance between two airplanes (boxplots).
//!
//! UDP iperf between two flying Swinglets at 20–320 m, auto PHY rate.
//! The paper's reading: median degrades with distance, ≈ 20 Mb/s at
//! short range ("more the one expected of 802.11g") despite 802.11n
//! features, with very large per-distance variability.

use skyferry_net::campaign::{CampaignConfig, ControllerKind};
use skyferry_phy::presets::ChannelPreset;
use skyferry_sim::time::SimDuration;
use skyferry_stats::boxplot::BoxplotSummary;
use skyferry_stats::table::{Column, Table, Value};

use super::Experiment;
use crate::report::{ExperimentReport, ReproConfig};
use crate::store::CampaignStore;
use skyferry_units::MetersPerSec;

/// The airplane campaign's relative speed (mid paper window), m/s.
pub const RELATIVE_SPEED_MPS: f64 = 20.0;

/// The measured distances of Figure 5.
pub fn distances() -> Vec<f64> {
    (1..=16).map(|i| 20.0 * i as f64).collect()
}

/// The airplane iperf campaign shared with `fig6` and `fits`.
pub fn campaign(cfg: &ReproConfig) -> CampaignConfig {
    CampaignConfig {
        preset: ChannelPreset::airplane(MetersPerSec::new(RELATIVE_SPEED_MPS)),
        controller: ControllerKind::Arf,
        duration: SimDuration::from_secs(cfg.secs(20)),
        seed: cfg.seed,
    }
}

/// Run the campaign: per-distance throughput samples.
pub fn simulate(cfg: &ReproConfig, store: &mut CampaignStore) -> Vec<(f64, Vec<f64>)> {
    store.throughput_vs_distance(&campaign(cfg), &distances(), cfg.reps(6))
}

/// Render the boxplot table from campaign samples.
pub fn boxplot_table(rows: &[(f64, Vec<f64>)]) -> Table {
    let mut t = Table::new(vec![
        Column::int("d (m)").left(),
        Column::int("n"),
        Column::float("min", 1),
        Column::float("whisk-", 1),
        Column::float("q1", 1),
        Column::float("median", 1),
        Column::float("q3", 1),
        Column::float("whisk+", 1),
        Column::float("max", 1),
    ]);
    for (d, samples) in rows {
        let b = BoxplotSummary::of(samples).expect("non-empty campaign");
        t.push(vec![
            Value::Num(*d),
            b.n.into(),
            b.min.into(),
            b.whisker_low.into(),
            b.q1.into(),
            b.median.into(),
            b.q3.into(),
            b.whisker_high.into(),
            b.max.into(),
        ]);
    }
    t
}

/// Regenerate Figure 5.
pub fn run(cfg: &ReproConfig, store: &mut CampaignStore) -> ExperimentReport {
    let rows = simulate(cfg, store);
    let mut r = ExperimentReport::new("fig5", Fig5.title());

    let medians: Vec<(f64, f64)> = rows
        .iter()
        .map(|(d, s)| (*d, skyferry_stats::quantile::median(s).expect("non-empty")))
        .collect();
    let near = medians[0].1;
    let far = medians[medians.len() - 1].1;
    r.note(format!(
        "median at 20 m: {near:.1} Mb/s (paper: ≈20–25, '802.11g-like' despite 802.11n)"
    ));
    r.note(format!(
        "median at 320 m: {far:.1} Mb/s (paper: a few Mb/s)"
    ));
    let monotonic_pairs = medians
        .windows(2)
        .filter(|w| w[1].1 <= w[0].1 + 1.0)
        .count();
    r.note(format!(
        "degradation with distance: {monotonic_pairs}/{} adjacent medians non-increasing (±1 Mb/s)",
        medians.len() - 1
    ));
    r.table("Figure 5 boxplots (Mb/s)", boxplot_table(&rows));
    r
}

/// Registry entry for Figure 5.
pub struct Fig5;

impl Experiment for Fig5 {
    fn id(&self) -> &'static str {
        "fig5"
    }

    fn title(&self) -> &'static str {
        "Throughput vs distance between two airplanes (auto rate, boxplots)"
    }

    fn deps(&self) -> &'static [&'static str] {
        &["airplane/autorate"]
    }

    fn run(&self, cfg: &ReproConfig, store: &mut CampaignStore) -> ExperimentReport {
        run(cfg, store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyferry_stats::quantile::median;

    fn simulate_fresh(cfg: &ReproConfig) -> Vec<(f64, Vec<f64>)> {
        simulate(cfg, &mut CampaignStore::new(cfg.quick))
    }

    #[test]
    fn covers_20_to_320() {
        let d = distances();
        assert_eq!(d.len(), 16);
        assert_eq!(d[0], 20.0);
        assert_eq!(d[15], 320.0);
    }

    #[test]
    fn throughput_degrades_with_distance() {
        // Robust to shadowing noise at quick-mode sample counts: compare
        // the mean of the near-half medians against the far half.
        let rows = simulate_fresh(&ReproConfig::quick());
        let medians: Vec<f64> = rows.iter().map(|(_, s)| median(s).unwrap()).collect();
        let near: f64 = medians[..8].iter().sum::<f64>() / 8.0;
        let far: f64 = medians[8..].iter().sum::<f64>() / 8.0;
        assert!(near > 1.5 * far, "near={near:.1} far={far:.1}");
        // And the endpoints respect the trend individually.
        assert!(
            medians[0] > medians[15],
            "m20={} m320={}",
            medians[0],
            medians[15]
        );
    }

    #[test]
    fn short_range_is_80211g_like_not_n_like() {
        // The whole point of Section 3.1: ~20 Mb/s, not ~176 Mb/s.
        let rows = simulate_fresh(&ReproConfig::quick());
        let m20 = median(&rows[0].1).unwrap();
        assert!((12.0..45.0).contains(&m20), "m20={m20}");
    }

    #[test]
    fn airplane_variability_is_large() {
        // Figure 5's boxes/whiskers are wide: at mid distance the spread
        // must be comparable to the median itself.
        let rows = simulate_fresh(&ReproConfig::quick());
        let (d, samples) = &rows[4]; // 100 m
        let b = BoxplotSummary::of(samples).unwrap();
        assert!(
            b.spread() > 0.5 * b.median.max(1.0),
            "at {d} m: spread {:.1} vs median {:.1}",
            b.spread(),
            b.median
        );
    }

    #[test]
    fn report_renders_all_rows() {
        let cfg = ReproConfig::quick();
        let r = run(&cfg, &mut CampaignStore::new(cfg.quick));
        let (_, t) = &r.tables[0];
        assert_eq!(t.rows().len(), 16);
    }
}
