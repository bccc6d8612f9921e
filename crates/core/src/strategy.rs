//! The strategy space of Figures 1 and 2.
//!
//! Three families compete:
//!
//! * **Transmit now** — hover-and-transmit at the encounter distance
//!   `d0`; only transmission time incurs.
//! * **Move then transmit** — ship the data (fly silently) to `d < d0`,
//!   then hover-and-transmit; shipping and transmission times incur.
//! * **Move and transmit** — transmit continuously while approaching.
//!   The paper measures (Figure 7, centre/right) that motion collapses
//!   throughput, so the in-motion rate is `penalty · s(d(t))`; this is
//!   why the strategy is dominated in Figure 1.
//!
//! [`evaluate`] produces, analytically, the same cumulative
//! delivered-data-vs-time curves the paper measured, plus the scalar
//! utility of Eq. (1) extended with an in-motion term.
//!
//! [`evaluate`]: crate::strategy::evaluate

use skyferry_units::{Bytes, Meters};

use crate::delay::CommunicationDelay;
use crate::failure::FailureModel;
use crate::optimizer::optimize;
use crate::scenario::Scenario;
use crate::throughput::ThroughputModel;

/// How to deliver the batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Hover-and-transmit at the encounter distance `d0`.
    TransmitNow,
    /// Fly to `d_m`, then hover-and-transmit.
    MoveThenTransmit {
        /// Transmission distance, metres.
        d_m: f64,
    },
    /// Transmit while closing to `d_min`, then hover-and-transmit there.
    MoveAndTransmit,
    /// `MoveThenTransmit` at the Eq. (2) optimum.
    Optimal,
}

impl Strategy {
    /// Display label matching the paper's Figure 1 legend.
    pub fn label(&self) -> String {
        match self {
            Strategy::TransmitNow => "d=d0 (now)".into(),
            Strategy::MoveThenTransmit { d_m } => format!("d={d_m:.0}"),
            Strategy::MoveAndTransmit => "moving".into(),
            Strategy::Optimal => "d=dopt".into(),
        }
    }
}

/// Evaluation knobs beyond the scenario itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalConfig {
    /// Multiplier on `s(d)` while the platform is in motion. Figure 7
    /// (centre) shows ≈ 8 m/s motion cutting the quadrocopter rate to a
    /// quarter-to-half of its hover value; 0.25 is the calibrated default.
    pub moving_rate_penalty: f64,
    /// Seconds after stopping during which the rate stays at the motion
    /// penalty: the auto-rate controller arrives at the rendezvous with
    /// statistics poisoned by the in-motion channel and needs several
    /// of its ~100 ms update windows to climb back up the rate ladder.
    /// The hover strategies don't pay this — they start transmission
    /// fresh after settling. This is the second mechanism that makes
    /// move-and-transmit dominated in Figure 1.
    pub post_motion_recovery_s: f64,
    /// Time step for integrating the move-and-transmit curve, seconds.
    pub integration_dt_s: f64,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            moving_rate_penalty: 0.25,
            post_motion_recovery_s: 5.0,
            integration_dt_s: 0.05,
        }
    }
}

/// The outcome of evaluating one strategy on one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyEvaluation {
    /// The evaluated strategy.
    pub strategy: Strategy,
    /// Display label.
    pub label: String,
    /// Total time until the last byte is delivered, seconds.
    pub completion_s: f64,
    /// Survival probability over all distance flown before completion.
    pub survival: f64,
    /// `survival / completion` — Eq. (1) extended to all strategies.
    pub utility: f64,
    /// Cumulative delivered curve: `(time_s, delivered_bytes)` samples.
    pub curve: Vec<(f64, f64)>,
}

impl StrategyEvaluation {
    /// First time at which `volume` has been delivered, if ever.
    pub fn time_to_deliver(&self, volume: Bytes) -> Option<f64> {
        let bytes = volume.get();
        if bytes <= 0.0 {
            return Some(0.0);
        }
        for w in self.curve.windows(2) {
            let (t0, b0) = w[0];
            let (t1, b1) = w[1];
            if b1 >= bytes {
                if b1 - b0 < 1e-12 {
                    return Some(t1);
                }
                return Some(t0 + (t1 - t0) * (bytes - b0) / (b1 - b0));
            }
        }
        None
    }
}

/// Evaluate `strategy` on `scenario`.
pub fn evaluate(
    scenario: Scenario<'_>,
    strategy: Strategy,
    cfg: &EvalConfig,
) -> StrategyEvaluation {
    scenario.validate();
    match strategy {
        Strategy::TransmitNow => eval_hover(scenario, strategy, scenario.d0_m),
        Strategy::MoveThenTransmit { d_m } => eval_hover(scenario, strategy, d_m),
        Strategy::Optimal => {
            let d = optimize(scenario).d_opt;
            eval_hover(scenario, strategy, d)
        }
        Strategy::MoveAndTransmit => eval_moving(scenario, cfg),
    }
}

/// Evaluate every Figure 1 strategy variant at the given hover distances.
pub fn evaluate_panel(
    scenario: Scenario<'_>,
    hover_distances_m: &[f64],
    cfg: &EvalConfig,
) -> Vec<StrategyEvaluation> {
    let mut out: Vec<StrategyEvaluation> = hover_distances_m
        .iter()
        .map(|&d| {
            let strat = if (d - scenario.d0_m).abs() < 1e-9 {
                Strategy::TransmitNow
            } else {
                Strategy::MoveThenTransmit { d_m: d }
            };
            evaluate(scenario, strat, cfg)
        })
        .collect();
    out.push(evaluate(scenario, Strategy::MoveAndTransmit, cfg));
    out
}

fn eval_hover(scenario: Scenario<'_>, strategy: Strategy, d_m: f64) -> StrategyEvaluation {
    let delay = CommunicationDelay::at(scenario, Meters::new(d_m));
    let survival = scenario.failure.survival(scenario.d0_m, d_m);
    let completion = delay.total_s();
    // Curve: nothing until shipping completes, then linear at s(d).
    let curve = vec![
        (0.0, 0.0),
        (delay.ship_s(), 0.0),
        (completion, scenario.mdata_bytes),
    ];
    StrategyEvaluation {
        label: strategy.label(),
        strategy,
        completion_s: completion,
        survival,
        utility: survival / completion,
        curve,
    }
}

fn eval_moving(scenario: Scenario<'_>, cfg: &EvalConfig) -> StrategyEvaluation {
    assert!(cfg.moving_rate_penalty > 0.0 && cfg.moving_rate_penalty <= 1.0);
    assert!(cfg.integration_dt_s > 0.0);
    let mut t = 0.0;
    let mut d = scenario.d0_m;
    let mut delivered = 0.0;
    let mut curve = vec![(0.0, 0.0)];
    // Phase 1: close at cruise speed while transmitting at the penalised
    // rate of the current distance.
    while d > scenario.d_min_m && delivered < scenario.mdata_bytes {
        let dt = cfg
            .integration_dt_s
            .min((d - scenario.d_min_m) / scenario.v_mps);
        let rate = scenario.throughput.rate_bps(Meters::new(d)).get() * cfg.moving_rate_penalty;
        let step_bytes = rate * dt / 8.0;
        let remaining = scenario.mdata_bytes - delivered;
        if step_bytes >= remaining {
            t += remaining * 8.0 / rate;
            delivered = scenario.mdata_bytes;
            curve.push((t, delivered));
            break;
        }
        delivered += step_bytes;
        t += dt;
        d -= scenario.v_mps * dt;
        curve.push((t, delivered));
    }
    // Phase 2: recovery — the poisoned rate controller keeps the link at
    // the penalised rate for a while after stopping.
    if delivered < scenario.mdata_bytes && cfg.post_motion_recovery_s > 0.0 {
        let rate = scenario.throughput.rate_bps(scenario.d_min()).get() * cfg.moving_rate_penalty;
        let capacity = rate * cfg.post_motion_recovery_s / 8.0;
        let remaining = scenario.mdata_bytes - delivered;
        if capacity >= remaining {
            t += remaining * 8.0 / rate;
            delivered = scenario.mdata_bytes;
        } else {
            t += cfg.post_motion_recovery_s;
            delivered += capacity;
        }
        curve.push((t, delivered));
    }
    // Phase 3: hover at d_min for the remainder at the full rate.
    if delivered < scenario.mdata_bytes {
        let rate = scenario.throughput.rate_bps(scenario.d_min()).get();
        t += (scenario.mdata_bytes - delivered) * 8.0 / rate;
        delivered = scenario.mdata_bytes;
        curve.push((t, delivered));
    }
    let final_d = d.max(scenario.d_min_m);
    let survival = scenario.failure.survival(scenario.d0_m, final_d);
    StrategyEvaluation {
        strategy: Strategy::MoveAndTransmit,
        label: Strategy::MoveAndTransmit.label(),
        completion_s: t,
        survival,
        utility: survival / t,
        curve,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyferry_units::Seconds;

    /// Delivered bytes at time `t` (piecewise-linear interpolation).
    fn delivered_at(e: &StrategyEvaluation, t: Seconds) -> f64 {
        let t_s = t.get();
        if e.curve.is_empty() || t_s <= e.curve[0].0 {
            return 0.0;
        }
        for w in e.curve.windows(2) {
            let (t0, b0) = w[0];
            let (t1, b1) = w[1];
            if t_s <= t1 {
                if t1 - t0 < 1e-12 {
                    return b1;
                }
                return b0 + (b1 - b0) * (t_s - t0) / (t1 - t0);
            }
        }
        e.curve.last().expect("non-empty").1
    }

    fn quad() -> Scenario<'static> {
        // The Figure 1 setting: quadrocopters, 20 MB, encounter at 80 m.
        let mut s = Scenario::quadrocopter_baseline();
        s.d0_m = 80.0;
        s.mdata_bytes = 20e6;
        s
    }

    #[test]
    fn transmit_now_has_immediate_rampup() {
        let e = evaluate(quad(), Strategy::TransmitNow, &EvalConfig::default());
        assert!(delivered_at(&e, Seconds::ZERO) == 0.0);
        assert!(
            delivered_at(&e, Seconds::new(1.0)) > 0.0,
            "starts immediately"
        );
        assert!((delivered_at(&e, Seconds::new(e.completion_s)) - 20e6).abs() < 1.0);
    }

    #[test]
    fn move_then_transmit_is_silent_while_shipping() {
        let e = evaluate(
            quad(),
            Strategy::MoveThenTransmit { d_m: 60.0 },
            &EvalConfig::default(),
        );
        let ship = (80.0 - 60.0) / 4.5;
        assert_eq!(delivered_at(&e, Seconds::new(ship * 0.9)), 0.0);
        assert!(delivered_at(&e, Seconds::new(ship + 1.0)) > 0.0);
    }

    #[test]
    fn figure1_crossover_d80_vs_d60() {
        // The paper: "waiting to transmit at a distance of d = 60 m
        // outperforms [d = 80 m] … as long as the total data size … is
        // larger than ≈ 15 MB".
        let s = quad();
        let cfg = EvalConfig::default();
        let now = evaluate(s, Strategy::TransmitNow, &cfg);
        let later = evaluate(s, Strategy::MoveThenTransmit { d_m: 60.0 }, &cfg);
        // Small batches favour transmitting now…
        let small = 5e6;
        assert!(
            now.time_to_deliver(Bytes::new(small)).unwrap()
                < later.time_to_deliver(Bytes::new(small)).unwrap()
        );
        // …large batches favour moving first.
        let large = 20e6;
        assert!(
            later.time_to_deliver(Bytes::new(large)).unwrap()
                < now.time_to_deliver(Bytes::new(large)).unwrap()
        );
        // The crossover volume sits in the paper's ballpark (≈15 MB,
        // analytic model: within a few MB).
        let mut crossover = None;
        for i in 1..200 {
            let v = i as f64 * 0.1e6;
            if v > 20e6 {
                break;
            }
            let t_now = now.time_to_deliver(Bytes::new(v)).unwrap();
            let t_later = later.time_to_deliver(Bytes::new(v)).unwrap();
            if t_later < t_now {
                crossover = Some(v);
                break;
            }
        }
        let c = crossover.expect("strategies must cross") / 1e6;
        assert!((8.0..20.0).contains(&c), "crossover at {c} MB");
    }

    #[test]
    fn moving_is_dominated_for_figure1_batch() {
        // Figure 1: transmitting while moving is outperformed by both
        // hover strategies for the 20 MB batch.
        let s = quad();
        let cfg = EvalConfig::default();
        let moving = evaluate(s, Strategy::MoveAndTransmit, &cfg);
        let d60 = evaluate(s, Strategy::MoveThenTransmit { d_m: 60.0 }, &cfg);
        assert!(moving.completion_s > d60.completion_s);
    }

    #[test]
    fn optimal_strategy_maximises_utility_over_panel() {
        let s = quad();
        let cfg = EvalConfig::default();
        let best = evaluate(s, Strategy::Optimal, &cfg);
        for d in [20.0, 40.0, 60.0, 80.0] {
            let e = evaluate(s, Strategy::MoveThenTransmit { d_m: d }, &cfg);
            assert!(
                best.utility >= e.utility - 1e-12,
                "panel d={d} beats optimal"
            );
        }
    }

    #[test]
    fn panel_contains_all_requested_strategies() {
        let s = quad();
        let panel = evaluate_panel(s, &[20.0, 40.0, 60.0, 80.0], &EvalConfig::default());
        assert_eq!(panel.len(), 5);
        assert_eq!(panel[3].strategy, Strategy::TransmitNow);
        assert_eq!(panel[4].strategy, Strategy::MoveAndTransmit);
    }

    #[test]
    fn curves_are_monotone() {
        let s = quad();
        for e in evaluate_panel(s, &[20.0, 60.0, 80.0], &EvalConfig::default()) {
            for w in e.curve.windows(2) {
                assert!(w[1].0 >= w[0].0, "{}: time goes backward", e.label);
                assert!(w[1].1 >= w[0].1, "{}: bytes go backward", e.label);
            }
            assert!((e.curve.last().unwrap().1 - 20e6).abs() < 1.0);
        }
    }

    #[test]
    fn survival_accounts_for_distance_flown() {
        let s = quad();
        let cfg = EvalConfig::default();
        let now = evaluate(s, Strategy::TransmitNow, &cfg);
        let far = evaluate(s, Strategy::MoveThenTransmit { d_m: 20.0 }, &cfg);
        assert_eq!(now.survival, 1.0);
        assert!(far.survival < 1.0);
    }

    #[test]
    fn time_to_deliver_inverse_of_delivered_at() {
        let s = quad();
        let e = evaluate(
            s,
            Strategy::MoveThenTransmit { d_m: 40.0 },
            &EvalConfig::default(),
        );
        for frac in [0.1, 0.5, 0.9] {
            let bytes = frac * 20e6;
            let t = e.time_to_deliver(Bytes::new(bytes)).unwrap();
            assert!((delivered_at(&e, Seconds::new(t)) - bytes).abs() < 1e3);
        }
    }
}
