//! Figure 1 — experimental measurements of transmitted data vs time.
//!
//! "One UAV is originally 80 m away from another hovering UAV. It may
//! either immediately send 20 MB of data (case 'd = 80 m'), or transmit
//! while moving closer ('moving'), or move closer to the hovering UAV and
//! transmit only after reaching the new position (d). Here, waiting to
//! transmit at a distance of d = 60 m outperforms other strategies."
//!
//! The reproduction runs the full PHY/MAC/rate-control stack for the five
//! strategies and reports (a) cumulative megabytes at one-second marks
//! (the plotted curves), (b) completion times, and (c) the crossover data
//! volume between the d = 80 m and d = 60 m strategies (≈ 15 MB in the
//! paper).

use skyferry_net::campaign::{run_transfer, CampaignConfig, ControllerKind};
use skyferry_net::profile::MotionProfile;
use skyferry_net::transfer::TransferRecord;
use skyferry_phy::presets::ChannelPreset;
use skyferry_sim::parallel::par_map_indexed;
use skyferry_sim::time::{SimDuration, SimTime};
use skyferry_stats::table::{Column, Table, Value};

use super::Experiment;
use crate::report::{ExperimentReport, ReproConfig};
use crate::store::CampaignStore;
use skyferry_units::MetersPerSec;

/// Batch size of the experiment, bytes.
pub const MDATA_BYTES: u64 = 20_000_000;
/// Encounter distance, metres.
pub const D0_M: f64 = 80.0;
/// Cruise speed of the approaching quadrocopter, m/s.
pub const APPROACH_SPEED_MPS: f64 = 4.5;
/// Post-arrival stabilization/recovery window of the move-and-transmit
/// strategy, seconds: deceleration + attitude settling + the rate
/// controller recovering from its in-motion statistics. Matches the
/// analytic layer's `EvalConfig::post_motion_recovery_s`.
pub const MOVING_STABILIZATION_S: f64 = 5.0;

/// One strategy's simulated outcome.
#[derive(Debug, Clone)]
pub struct Fig1Strategy {
    /// Legend label ("d=60", "moving", …).
    pub label: String,
    /// Cumulative delivery record of the median replication.
    pub record: TransferRecord,
    /// Completion time, seconds (if completed within the horizon).
    pub completion_s: Option<f64>,
}

/// Run the five Figure 1 strategies and return their records.
///
/// The `strategies × replications` grid is one flat task pool on the
/// deterministic workers: every replication derives its RNG substreams
/// from `(campaign seed, rep)` alone, so output order and content are
/// identical at any thread count. The pool runs replication-major, as
/// the campaign store's does, so the strategies of one replication
/// share its fading normals, and is reassembled strategy-major.
/// Each strategy then reports its
/// *median* replication — the one with the median completion time
/// (unfinished runs sort last) — so the plotted curve is a typical
/// channel realisation rather than whatever replication 0 drew.
pub fn simulate(cfg: &ReproConfig) -> Vec<Fig1Strategy> {
    let campaign = CampaignConfig {
        preset: ChannelPreset::quadrocopter(MetersPerSec::new(0.0)),
        controller: ControllerKind::Arf,
        duration: SimDuration::from_secs(cfg.secs(240)),
        seed: cfg.seed,
    };
    // (label, profile, hold-fire-until-settled) per strategy; the last
    // one is move-and-transmit to the 20 m safety minimum.
    let mut strategies: Vec<(String, MotionProfile, bool)> = [20.0, 40.0, 60.0, 80.0]
        .iter()
        .map(|&d| {
            let (profile, hold) = if (d - D0_M).abs() < 1e-9 {
                (MotionProfile::hover(D0_M), false)
            } else {
                (MotionProfile::approach(D0_M, APPROACH_SPEED_MPS, d), true)
            };
            (format!("d={d:.0}"), profile, hold)
        })
        .collect();
    strategies.push((
        "moving".into(),
        MotionProfile::approach(D0_M, APPROACH_SPEED_MPS, 20.0)
            .with_stabilization(MOVING_STABILIZATION_S),
        false,
    ));
    let reps = cfg.reps(6) as usize;
    let n = strategies.len();
    // Replication-major: task k runs replication k / n, so the
    // strategies that read one replication's fading stream run together.
    let outcomes = par_map_indexed(n * reps, |k| {
        let (label, profile, hold) = &strategies[k % n];
        let rep = (k / n) as u64;
        let res = run_transfer(&campaign, *profile, MDATA_BYTES, *hold, label.clone(), rep);
        Fig1Strategy {
            label: label.clone(),
            completion_s: res.completion.map(|t| t.as_secs_f64()),
            record: res.record,
        }
    });
    (0..n)
        .map(|s| {
            let runs: Vec<&Fig1Strategy> = outcomes.iter().skip(s).step_by(n).collect();
            let mut order: Vec<usize> = (0..runs.len()).collect();
            // Unfinished replications sort after every finished one;
            // ties break on replication index, keeping selection stable.
            order.sort_by(|&a, &b| {
                let key = |i: usize| runs[i].completion_s.unwrap_or(f64::INFINITY);
                key(a).partial_cmp(&key(b)).expect("no NaN").then(a.cmp(&b))
            });
            runs[order[(runs.len() - 1) / 2]].clone()
        })
        .collect()
}

/// Regenerate Figure 1.
pub fn run(cfg: &ReproConfig) -> ExperimentReport {
    let strategies = simulate(cfg);

    // Curve table: MB delivered at 1 s marks up to the slowest completion.
    let horizon = strategies
        .iter()
        .filter_map(|s| s.completion_s)
        .fold(10.0_f64, f64::max)
        .ceil() as u64;
    let mut columns = vec![Column::int("t (s)").left()];
    columns.extend(
        strategies
            .iter()
            .map(|s| Column::float(format!("{} (MB)", s.label), 1)),
    );
    let mut curve = Table::new(columns);
    for t in 0..=horizon.min(120) {
        let mut cells = vec![Value::Int(t as i64)];
        for s in &strategies {
            let mb = s.record.bytes_at(SimTime::from_secs(t)) as f64 / 1e6;
            cells.push(Value::Num(mb));
        }
        curve.push(cells);
    }

    let mut completion = Table::new(vec![
        Column::text("strategy"),
        Column::float("completion (s)", 1),
        Column::float("delivered (MB)", 1),
    ]);
    for s in &strategies {
        completion.push(vec![
            s.label.as_str().into(),
            s.completion_s.map_or_else(|| "dnf".into(), Value::Num),
            Value::Num(s.record.total_bytes() as f64 / 1e6),
        ]);
    }

    let mut r = ExperimentReport::new("fig1", Fig1.title());

    // Crossover between "move to 60 m first" and "transmit at 80 m now".
    let d60 = strategies.iter().find(|s| s.label == "d=60").expect("d=60");
    let d80 = strategies.iter().find(|s| s.label == "d=80").expect("d=80");
    if let Some(cross) = d60.record.crossover_bytes(&d80.record, 500_000) {
        r.note(format!(
            "crossover: moving to 60 m beats transmitting at 80 m for batches > {:.1} MB (paper: ≈15 MB)",
            cross as f64 / 1e6
        ));
    } else {
        r.note("no d=60 vs d=80 crossover within the batch (paper: ≈15 MB)".to_string());
    }

    // Ranking notes.
    let best = strategies
        .iter()
        .filter(|s| s.completion_s.is_some())
        .min_by(|a, b| a.completion_s.partial_cmp(&b.completion_s).expect("finite"));
    if let Some(best) = best {
        r.note(format!(
            "fastest strategy for 20 MB: {} ({:.1} s) — paper: d=60 m",
            best.label,
            best.completion_s.expect("filtered"),
        ));
    }
    let moving = strategies
        .iter()
        .find(|s| s.label == "moving")
        .expect("moving");
    // The paper's dominance claim: hover-and-transmit (at a sensibly
    // chosen distance) beats transmitting on the move. Compare against
    // the repositioning strategies d ≤ 60 m; at our calibrated *median*
    // rates the d = 80 m case is bandwidth-starved and slower than
    // everything (the paper's Figure 1 run enjoyed an unusually good
    // channel at 80 m — see EXPERIMENTS.md).
    let moving_beaten = strategies
        .iter()
        .filter(|s| matches!(s.label.as_str(), "d=20" | "d=40" | "d=60"))
        .all(|s| match (s.completion_s, moving.completion_s) {
            (Some(a), Some(b)) => a <= b,
            (Some(_), None) => true,
            _ => false,
        });
    r.note(format!(
        "move-and-transmit dominated by the repositioning hover strategies: {} (paper: yes)",
        if moving_beaten { "yes" } else { "no" }
    ));

    r.table("Cumulative delivered data (Figure 1 curves)", curve);
    r.table("Completion times", completion);
    r
}

/// Registry entry for Figure 1.
pub struct Fig1;

impl Experiment for Fig1 {
    fn id(&self) -> &'static str {
        "fig1"
    }

    fn title(&self) -> &'static str {
        "Transmitted data vs time for the five delivery strategies (20 MB from 80 m)"
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
    fn all_five_strategies_present() {
        let r = run(&ReproConfig::quick());
        let text = r.render();
        for label in ["d=20", "d=40", "d=60", "d=80", "moving"] {
            assert!(text.contains(label), "missing {label}:\n{text}");
        }
    }

    #[test]
    fn full_batch_delivered_by_hover_strategies() {
        let strategies = simulate(&ReproConfig::quick());
        for s in strategies.iter().filter(|s| s.label.starts_with("d=")) {
            assert!(s.completion_s.is_some(), "{} did not complete", s.label);
            assert_eq!(s.record.total_bytes(), MDATA_BYTES, "{}", s.label);
        }
    }

    #[test]
    fn held_strategies_stay_silent_while_shipping() {
        let strategies = simulate(&ReproConfig::quick());
        let d40 = strategies.iter().find(|s| s.label == "d=40").unwrap();
        let ship = (80.0 - 40.0) / APPROACH_SPEED_MPS;
        let before = d40.record.bytes_at(SimTime::from_secs_f64(ship * 0.95));
        assert_eq!(before, 0, "d=40 transmitted during shipping");
    }

    #[test]
    fn moving_transmits_early_but_loses_to_best_repositioning() {
        let strategies = simulate(&ReproConfig::quick());
        let moving = strategies.iter().find(|s| s.label == "moving").unwrap();
        // moving delivers something almost immediately…
        let early = moving.record.bytes_at(SimTime::from_secs(4));
        assert!(early > 0, "moving strategy should start immediately");
        // …but the paper's qualitative claim holds: hover-and-transmit at
        // a well-chosen distance still completes first. (Our calibrated
        // median channel puts that distance at 40 m rather than the
        // paper's 60 m — see the fig1 findings notes.)
        let m = moving.completion_s.expect("moving completes");
        let best_repositioning = strategies
            .iter()
            .filter(|s| matches!(s.label.as_str(), "d=20" | "d=40" | "d=60"))
            .filter_map(|s| s.completion_s)
            .fold(f64::INFINITY, f64::min);
        assert!(
            best_repositioning <= m * 1.02,
            "best repositioning {best_repositioning:.1}s vs moving {m:.1}s"
        );
        // And transmitting immediately from 80 m is the slowest option.
        let d80 = strategies.iter().find(|s| s.label == "d=80").unwrap();
        let worst = d80.completion_s.expect("d=80 completes");
        assert!(
            worst >= m && worst >= best_repositioning,
            "d=80 should be slowest: {worst:.1}s"
        );
    }
}
