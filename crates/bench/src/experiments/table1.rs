//! Table 1 — "Main features of our flying platforms".

use skyferry_stats::table::{Column, Table, Value};
use skyferry_uav::platform::PlatformSpec;

use super::Experiment;
use crate::report::{ExperimentReport, ReproConfig};
use crate::store::CampaignStore;

/// Regenerate Table 1 from the platform specifications.
pub fn run(_cfg: &ReproConfig) -> ExperimentReport {
    let a = PlatformSpec::airplane();
    let q = PlatformSpec::quadrocopter();

    let yes_no = |b: bool| Value::from(if b { "Yes" } else { "No" });
    let mut t = Table::new(vec![
        Column::text("Feature"),
        Column::text("Airplane"),
        Column::text("Quadrocopter"),
    ]);
    t.push(vec![
        "Hovering".into(),
        yes_no(a.can_hover),
        yes_no(q.can_hover),
    ]);
    t.push(vec![
        "Size".into(),
        format!("Wingspan: {:.0} cm", a.size_m * 100.0).into(),
        format!(
            "Frame: {:.0} cm by {:.0} cm",
            q.size_m * 100.0,
            q.size_m * 100.0
        )
        .into(),
    ]);
    t.push(vec![
        "Weight".into(),
        format!("{:.0} g", a.weight_kg * 1000.0).into(),
        format!("{:.1} kg", q.weight_kg).into(),
    ]);
    t.push(vec![
        "Battery autonomy".into(),
        format!("{:.0} minutes", a.battery_autonomy_s / 60.0).into(),
        format!("{:.0} minutes", q.battery_autonomy_s / 60.0).into(),
    ]);
    t.push(vec![
        "Cruise speed".into(),
        format!("{:.0} m/s", a.cruise_speed_mps).into(),
        format!("{:.1} m/s in auto mode", q.cruise_speed_mps).into(),
    ]);
    t.push(vec![
        "Maximum safe altitude".into(),
        format!("{:.0} m", a.max_altitude_m).into(),
        format!("{:.0} m", q.max_altitude_m).into(),
    ]);

    let mut derived = Table::new(vec![
        Column::text("Derived quantity"),
        Column::text("Airplane"),
        Column::text("Quadrocopter"),
    ]);
    derived.push(vec![
        "Range on battery (km)".into(),
        format!("{:.1}", a.range_on_battery().get() / 1000.0).into(),
        format!("{:.1}", q.range_on_battery().get() / 1000.0).into(),
    ]);
    derived.push(vec![
        "Paper failure rate rho (1/m)".into(),
        format!("{:.2e}", a.paper_failure_rate_per_m).into(),
        format!("{:.2e}", q.paper_failure_rate_per_m).into(),
    ]);

    let mut r = ExperimentReport::new("table1", Table1.title());
    r.table("Table 1", t);
    r.table("Section 4 derivations", derived);
    r.note("rho is the inverse of the distance flyable before battery depletion (Section 4)");
    r
}

/// Registry entry for Table 1.
pub struct Table1;

impl Experiment for Table1 {
    fn id(&self) -> &'static str {
        "table1"
    }

    fn title(&self) -> &'static str {
        "Main features of the flying platforms"
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
    fn reproduces_all_six_rows() {
        let r = run(&ReproConfig::quick());
        let (_, t) = &r.tables[0];
        assert_eq!(t.rows().len(), 6);
        let text = t.render_text();
        for expect in [
            "Wingspan: 80 cm",
            "Frame: 64 cm by 64 cm",
            "500 g",
            "1.7 kg",
            "30 minutes",
            "20 minutes",
            "10 m/s",
            "4.5 m/s in auto mode",
            "300 m",
            "100 m",
        ] {
            assert!(text.contains(expect), "missing {expect:?} in:\n{text}");
        }
    }

    #[test]
    fn derived_rho_present() {
        let r = run(&ReproConfig::quick());
        let text = r.render();
        assert!(
            text.contains("1.11e-4") || text.contains("1.11e-04"),
            "{text}"
        );
        assert!(
            text.contains("2.46e-4") || text.contains("2.46e-04"),
            "{text}"
        );
    }
}
