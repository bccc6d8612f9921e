//! Ablation studies over the reproduction's design choices.
//!
//! Not a paper artefact — these tables justify the model pieces by
//! switching them off one at a time:
//!
//! 1. **A-MPDU aggregation size** — why the paper enables aggregation;
//! 2. **STBC vs plain single-stream** — why MCS 1–3 carry STBC;
//! 3. **Host fill rate** — the Gumstix bottleneck's reach;
//! 4. **Rate controllers** — ARF vs Minstrel-HT vs genie-fixed;
//! 5. **Channel harshness** — calibrated aerial fading vs a calm
//!    "genie" channel (what the 802.11n datasheet would promise);
//! 6. **Optimizer grid** — dopt stability vs grid resolution;
//! 7. **Failure law** — exponential vs Weibull wear-out;
//! 8. **Mixed vs pure strategies** — the §7 extension's payoff.
//!
//! The campaign-shaped ablations (host rate, controllers, channel
//! harshness) and the Eq. (2) solutions route through the shared
//! [`CampaignStore`], so any cell or scenario also touched by another
//! experiment is simulated only once per `repro` run.

use skyferry_core::failure::{FailureSpec, WeibullFailure};
use skyferry_core::mixed::{optimize_mixed, MixedConfig};
use skyferry_core::optimizer::optimize;
use skyferry_core::scenario::Scenario;
use skyferry_core::utility::utility;
use skyferry_mac::link::{LinkConfig, LinkState};
use skyferry_mac::queue::TxQueue;

use skyferry_net::campaign::{CampaignConfig, ControllerKind};
use skyferry_phy::mcs::Mcs;
use skyferry_phy::presets::ChannelPreset;
use skyferry_sim::parallel::run_replications;
use skyferry_sim::prelude::*;
use skyferry_stats::quantile::median;
use skyferry_stats::table::{Column, Table, Value};
use skyferry_units::{Meters, MetersPerSec};

use super::Experiment;
use crate::report::{ExperimentReport, ReproConfig};
use crate::store::CampaignStore;

/// Run a saturated link with a custom `LinkConfig` and return goodput.
fn goodput_with(
    config: LinkConfig,
    controller: Box<dyn skyferry_mac::rate::RateController>,
    d_m: f64,
    v_mps: f64,
    secs: f64,
    seed: u64,
) -> f64 {
    let seeds = SeedStream::new(seed);
    let mut link = LinkState::new(config, controller, seeds.rng("fading"), seeds.rng("link"));
    let mut queue = TxQueue::saturated(config.preset.host_fill_rate_bps, 1 << 17);
    let mut now = SimTime::ZERO;
    let horizon = SimTime::from_secs_f64(secs);
    let mut bytes = 0u64;
    while now < horizon {
        let out = link.execute_txop(now, d_m, v_mps, &mut queue);
        bytes += out.delivered_bytes as u64;
        now += out.airtime;
    }
    bytes as f64 * 8.0 / secs / 1e6
}

/// Median goodput over `reps` replications of [`goodput_with`], run on
/// the deterministic pool. Per-replication link seeds derive from
/// `(seed, label, rep)`, so the result is independent of thread count.
// allow: the ablation grid varies each knob independently; bundling them
// into a struct would hide which axis a row sweeps.
#[allow(clippy::too_many_arguments)]
fn goodput_replicated(
    config: LinkConfig,
    controller: ControllerKind,
    d_m: f64,
    v_mps: f64,
    secs: f64,
    seed: u64,
    label: &str,
    reps: u64,
) -> f64 {
    let samples = run_replications(seed, label, reps, |_rep, mut rng| {
        goodput_with(
            config,
            controller.build(&config.preset),
            d_m,
            v_mps,
            secs,
            rng.next_u64(),
        )
    });
    median(&samples).expect("non-empty replication set")
}

/// Ablation 1: aggregation size.
pub fn ampdu_table(cfg: &ReproConfig) -> Table {
    let mut t = Table::new(vec![
        Column::text("max A-MPDU subframes"),
        Column::float("goodput @20 m (Mb/s)", 1),
    ]);
    let preset = ChannelPreset::quadrocopter(MetersPerSec::new(0.0));
    for n in [1usize, 2, 4, 8, 14, 32, 64] {
        let link_cfg = LinkConfig {
            max_ampdu_subframes: n,
            ..LinkConfig::paper_default(preset)
        };
        let g = goodput_replicated(
            link_cfg,
            ControllerKind::Fixed(Mcs::new(2)),
            20.0,
            0.0,
            cfg.secs(10) as f64,
            cfg.seed,
            "ampdu",
            cfg.reps(4),
        );
        t.row_f64(&format!("{n}"), &[g]);
    }
    t
}

/// Ablation 2: STBC on/off across distances.
pub fn stbc_table(cfg: &ReproConfig) -> Table {
    let mut t = Table::new(vec![
        Column::text("d (m)"),
        Column::float("STBC on (Mb/s)", 1),
        Column::float("STBC off (Mb/s)", 1),
    ]);
    let preset = ChannelPreset::airplane(MetersPerSec::new(20.0));
    for d in [60.0, 120.0, 180.0] {
        let mut row = Vec::new();
        for stbc in [true, false] {
            let link_cfg = LinkConfig {
                use_stbc: stbc,
                ..LinkConfig::paper_default(preset)
            };
            row.push(goodput_replicated(
                link_cfg,
                ControllerKind::Fixed(Mcs::new(1)),
                d,
                20.0,
                cfg.secs(12) as f64,
                cfg.seed + 1,
                "stbc",
                cfg.reps(12),
            ));
        }
        t.row_f64(&format!("{d:.0}"), &row);
    }
    t
}

/// Ablation 3: host fill rate (campaign cells via the shared store).
pub fn host_rate_table(cfg: &ReproConfig, store: &mut CampaignStore) -> Table {
    let mut t = Table::new(vec![
        Column::text("host rate (Mb/s)"),
        Column::float("goodput @15 m (Mb/s)", 1),
    ]);
    for rate in [8.0, 16.0, 32.0, 48.0, 100.0, 400.0] {
        let mut preset = ChannelPreset::quadrocopter(MetersPerSec::new(0.0));
        preset.host_fill_rate_bps = rate * 1e6;
        let c = CampaignConfig {
            preset,
            controller: ControllerKind::Arf,
            duration: SimDuration::from_secs(cfg.secs(12)),
            seed: cfg.seed + 2,
        };
        let s = store.samples(&c, 15.0, cfg.reps(4));
        t.row_f64(&format!("{rate:.0}"), &[median(&s).expect("non-empty")]);
    }
    t
}

/// Ablation 4: rate controllers at three distances.
pub fn controller_table(cfg: &ReproConfig, store: &mut CampaignStore) -> Table {
    let mut t = Table::new(vec![
        Column::text("d (m)"),
        Column::float("arf", 1),
        Column::float("minstrel", 1),
        Column::float("best fixed", 1),
    ]);
    let preset = ChannelPreset::airplane(MetersPerSec::new(20.0));
    for d in [40.0, 120.0, 220.0] {
        let mut cells = Vec::new();
        for kind in [ControllerKind::Arf, ControllerKind::MinstrelHt] {
            let c = CampaignConfig {
                preset,
                controller: kind,
                duration: SimDuration::from_secs(cfg.secs(16)),
                seed: cfg.seed + 3,
            };
            let s = store.samples(&c, d, cfg.reps(4));
            cells.push(median(&s).expect("non-empty"));
        }
        let best = [1u8, 2, 8]
            .iter()
            .map(|&m| {
                let c = CampaignConfig {
                    preset,
                    controller: ControllerKind::Fixed(Mcs::new(m)),
                    duration: SimDuration::from_secs(cfg.secs(16)),
                    seed: cfg.seed + 3,
                };
                let s = store.samples(&c, d, cfg.reps(4));
                median(&s).expect("non-empty")
            })
            .fold(0.0f64, f64::max);
        cells.push(best);
        t.row_f64(&format!("{d:.0}"), &cells);
    }
    t
}

/// Ablation 5: calibrated aerial channel vs a calm "genie" channel.
pub fn channel_harshness_table(cfg: &ReproConfig, store: &mut CampaignStore) -> Table {
    let mut t = Table::new(vec![
        Column::text("d (m)"),
        Column::float("calibrated aerial", 1),
        Column::float("calm genie channel", 1),
    ]);
    let aerial = ChannelPreset::airplane(MetersPerSec::new(20.0));
    let mut genie = aerial;
    genie.fading.k_factor_db = 30.0;
    genie.fading.k_min_db = 30.0;
    genie.fading.shadowing_sigma_db = 0.1;
    genie.fading.shadowing_speed_slope_db_per_mps = 0.0;
    genie.fading.k_speed_slope_db_per_mps = 0.0;
    for d in [40.0, 100.0, 200.0] {
        let mut cells = Vec::new();
        for preset in [aerial, genie] {
            let c = CampaignConfig {
                preset,
                controller: ControllerKind::Arf,
                duration: SimDuration::from_secs(cfg.secs(12)),
                seed: cfg.seed + 4,
            };
            let s = store.samples(&c, d, cfg.reps(4));
            cells.push(median(&s).expect("non-empty"));
        }
        t.row_f64(&format!("{d:.0}"), &cells);
    }
    t
}

/// Ablation 6: optimizer grid resolution (via a coarse manual scan).
pub fn optimizer_grid_table() -> Table {
    let mut t = Table::new(vec![
        Column::text("grid points"),
        Column::float("dopt (m)", 1),
        Column::float("U(dopt)", 5),
    ]);
    let s = Scenario::quadrocopter_baseline().with_mdata_mb(10.0);
    for points in [8usize, 32, 128, 1024] {
        // Manual grid at the given resolution.
        let (mut best_d, mut best_u) = (s.d_min_m, f64::NEG_INFINITY);
        for i in 0..points {
            let d = s.d_min_m + (s.d0_m - s.d_min_m) * i as f64 / (points - 1) as f64;
            let u = utility(s, Meters::new(d));
            if u > best_u {
                best_u = u;
                best_d = d;
            }
        }
        t.push(vec![
            format!("{points}").into(),
            Value::Num(best_d),
            Value::Num(best_u),
        ]);
    }
    let refined = optimize(s);
    t.push(vec![
        "2048+golden (default)".into(),
        refined.d_opt.into(),
        refined.utility.into(),
    ]);
    t
}

/// Ablation 7: failure law — exponential vs Weibull wear-out.
pub fn failure_law_table() -> Table {
    let mut t = Table::new(vec![
        Column::text("failure law"),
        Column::float("dopt (m)", 1),
        Column::float("U(dopt)", 5),
    ]);
    let base = Scenario::quadrocopter_baseline().with_mdata_mb(10.0);
    let exp = optimize(base.with_rho(2.0e-3));
    t.push(vec![
        "exponential rho=2e-3".into(),
        exp.d_opt.into(),
        exp.utility.into(),
    ]);
    // Weibull with the same mean failure distance (Γ(1.5)·λ = 1/ρ) but
    // wear-out shape k = 2 and half the mission already flown.
    let lambda = 1.0 / 2.0e-3 / 0.886;
    for flown in [0.0, lambda / 2.0] {
        let mut s = base;
        s.failure = FailureSpec::Weibull(WeibullFailure::new(
            Meters::new(lambda),
            2.0,
            Meters::new(flown),
        ));
        let o = optimize(s);
        t.push(vec![
            format!("weibull k=2, flown {flown:.0} m").into(),
            o.d_opt.into(),
            o.utility.into(),
        ]);
    }
    t
}

/// Ablation 8: the §7 mixed-strategy extension's payoff.
pub fn mixed_strategy_table() -> Table {
    let mut t = Table::new(vec![
        Column::text("Mdata (MB)"),
        Column::float("pure U", 5),
        Column::float("mixed U", 5),
        Column::text("gain").right(),
    ]);
    for mb in [5.0, 15.0, 56.2] {
        let s = Scenario::quadrocopter_baseline().with_mdata_mb(mb);
        let pure = optimize(s);
        let mixed = optimize_mixed(s, &MixedConfig::for_speed(MetersPerSec::new(4.5)));
        t.push(vec![
            format!("{mb:.1}").into(),
            pure.utility.into(),
            mixed.utility.into(),
            format!("{:.3}x", mixed.utility / pure.utility).into(),
        ]);
    }
    t
}

/// Run all ablations.
pub fn run(cfg: &ReproConfig, store: &mut CampaignStore) -> ExperimentReport {
    let mut r = ExperimentReport::new("ablations", Ablations.title());
    r.table("1. A-MPDU aggregation size", ampdu_table(cfg));
    r.table("2. STBC vs plain single stream", stbc_table(cfg));
    r.table(
        "3. Host fill rate (Gumstix bottleneck)",
        host_rate_table(cfg, store),
    );
    r.table("4. Rate controllers", controller_table(cfg, store));
    r.table("5. Channel harshness", channel_harshness_table(cfg, store));
    r.table("6. Optimizer grid resolution", optimizer_grid_table());
    r.table("7. Failure law", failure_law_table());
    r.table("8. Mixed vs pure strategies", mixed_strategy_table());
    r.note("aggregation and the host cap dominate close-range goodput");
    r.note(
        "STBC pays off in the deep-fade regime at range; close in, both \
         branches ride the MCS cap and diversity is rarely exercised",
    );
    r.note("the calm-channel column is what a datasheet promises and the sky takes away");
    r
}

/// Registry entry for the ablation studies.
pub struct Ablations;

impl Experiment for Ablations {
    fn id(&self) -> &'static str {
        "ablations"
    }

    fn title(&self) -> &'static str {
        "Design-choice ablation studies"
    }

    fn deps(&self) -> &'static [&'static str] {
        &[
            "quadrocopter/autorate",
            "airplane/autorate",
            "airplane/minstrel",
            "airplane/mcs1",
            "airplane/mcs2",
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

    fn fresh() -> CampaignStore {
        CampaignStore::new(true)
    }

    fn first_col_values(t: &Table) -> Vec<f64> {
        // Parse the rendered table's second column back out for checks.
        t.render_text()
            .lines()
            .skip(2)
            .filter_map(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<f64>().ok())
            })
            .collect()
    }

    #[test]
    fn aggregation_monotone_gain() {
        let t = ampdu_table(&ReproConfig::quick());
        let g = first_col_values(&t);
        assert_eq!(g.len(), 7);
        assert!(
            g[4] > 1.6 * g[0],
            "14-frame A-MPDU must far outperform no aggregation: {g:?}"
        );
        // Diminishing returns beyond the default.
        assert!(g[6] < 1.5 * g[4], "{g:?}");
    }

    #[test]
    fn stbc_pays_off_in_the_deep_fade_regime() {
        let t = stbc_table(&ReproConfig::quick());
        let text = t.render_text();
        let rows: Vec<Vec<f64>> = text
            .lines()
            .skip(2)
            .map(|l| {
                l.split_whitespace()
                    .filter_map(|v| v.parse().ok())
                    .collect()
            })
            .collect();
        // At 60 m the mean SNR clears the MCS-1 threshold with margin:
        // both branches ride the rate cap and diversity is rarely
        // exercised, so the two columns stay within noise of each other.
        let near = &rows[0];
        assert!(
            near[1] > 0.75 * near[2] && near[2] > 0.55 * near[1],
            "near-range columns should be comparable: {near:?}"
        );
        // At 180 m the link lives in the fade dips: diversity prunes the
        // outages and STBC wins clearly.
        let far = &rows[2];
        assert!(
            far[1] > 1.05 * far[2],
            "STBC should win in the deep-fade regime: {far:?}"
        );
        // And the relative gain grows with distance.
        let gain_near = near[1] / near[2];
        let gain_far = far[1] / far[2];
        assert!(
            gain_far > gain_near,
            "diversity gain should grow with distance: {rows:?}"
        );
    }

    #[test]
    fn host_rate_saturates() {
        let t = host_rate_table(&ReproConfig::quick(), &mut fresh());
        let g = first_col_values(&t);
        // Goodput grows with the host rate then saturates at the radio's
        // own limit.
        assert!(g[1] > g[0], "{g:?}");
        assert!((g[5] - g[4]).abs() < 0.35 * g[4].max(1.0), "{g:?}");
    }

    #[test]
    fn genie_channel_embarrasses_the_sky() {
        let t = channel_harshness_table(&ReproConfig::quick(), &mut fresh());
        let text = t.render_text();
        let rows: Vec<Vec<f64>> = text
            .lines()
            .skip(2)
            .map(|l| {
                l.split_whitespace()
                    .filter_map(|v| v.parse().ok())
                    .collect()
            })
            .collect();
        for r in &rows {
            assert!(r[2] >= r[1] * 0.95, "genie lost at d={}: {r:?}", r[0]);
        }
        // At 40 m both channels saturate near the MCS cap, so the gap is
        // modest; from 100 m out the harsh channel's tax is large (the
        // Section 3.1 story).
        assert!(rows[1][2] > 1.2 * rows[1][1], "{rows:?}");
        assert!(rows[2][2] > 1.2 * rows[2][1], "{rows:?}");
    }

    #[test]
    fn optimizer_grid_converges() {
        let t = optimizer_grid_table();
        let text = t.render_text();
        let dopts: Vec<f64> = text
            .lines()
            .skip(2)
            .filter_map(|l| {
                let cols: Vec<&str> = l.split_whitespace().collect();
                cols[cols.len() - 2].parse().ok()
            })
            .collect();
        let finest = dopts[dopts.len() - 1];
        assert!((dopts[3] - finest).abs() < 1.0, "{dopts:?}");
    }

    #[test]
    fn weibull_wearout_transmits_sooner() {
        let t = failure_law_table();
        let text = t.render_text();
        let dopts: Vec<f64> = text
            .lines()
            .skip(2)
            .filter_map(|l| {
                let cols: Vec<&str> = l.split_whitespace().collect();
                cols[cols.len() - 2].parse().ok()
            })
            .collect();
        // Mid-mission wear-out (row 3) must not command a deeper
        // reposition than the fresh airframe (row 2).
        assert!(dopts[2] >= dopts[1] - 1.0, "{dopts:?}");
    }

    #[test]
    fn mixed_gain_is_at_least_one() {
        let t = mixed_strategy_table();
        let text = t.render_text();
        for line in text.lines().skip(2) {
            let gain: f64 = line
                .split_whitespace()
                .last()
                .unwrap()
                .trim_end_matches('x')
                .parse()
                .unwrap();
            assert!(gain >= 0.999, "mixed lost: {line}");
        }
    }
}
