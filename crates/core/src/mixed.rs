//! Mixed strategies: the paper's named extension.
//!
//! Section 3.2: "mixed strategies containing 'move and transmit' would
//! require a further dimension (the speed) to empirical-driven throughput
//! estimation, leading to an interesting extension of our model." This
//! module is that extension: the throughput surface becomes
//! `s(d, v) = s(d) · 10^(−k·v/10)` with `k` the motion loss in dB per
//! m/s (measured in Figure 7, right panel), and the strategy space grows
//! to *(rendezvous distance, approach speed, transmit-while-moving?)*.
//!
//! The solver grids over the speed axis and, per speed, reuses the 1-D
//! machinery: for a candidate `(d, v)` with in-motion transmission the
//! delivery during the approach is the integral of the penalised rate
//! along the closing path, and the remainder is sent hovering at `d`.

use skyferry_units::{Meters, MetersPerSec};

use crate::failure::FailureModel;
use crate::scenario::Scenario;
use crate::throughput::ThroughputModel;
use skyferry_sim::parallel::par_map_indexed;

/// The speed dimension of the throughput surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedPenalty {
    /// Rate loss per m/s of platform speed, dB (Figure 7 right panel;
    /// the calibrated quadrocopter value is ≈ 0.7–1.0).
    pub loss_db_per_mps: f64,
}

impl SpeedPenalty {
    /// The calibrated quadrocopter penalty.
    pub fn quadrocopter() -> Self {
        SpeedPenalty {
            loss_db_per_mps: 0.7,
        }
    }

    /// Linear rate factor at speed `v` (1.0 at hover).
    pub fn factor(&self, v: MetersPerSec) -> f64 {
        assert!(v.get() >= 0.0);
        10f64.powf(-self.loss_db_per_mps * v.get() / 10.0)
    }
}

/// Configuration of the mixed-strategy solver.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedConfig {
    /// The speed penalty of the throughput surface.
    pub penalty: SpeedPenalty,
    /// Maximum approach speed (the platform's cruise), m/s.
    pub v_max_mps: f64,
    /// Number of speed grid points in `(0, v_max]`.
    pub speed_grid: usize,
    /// Number of distance grid points in `[d_min, d0]`.
    pub distance_grid: usize,
    /// Integration step along the approach, seconds.
    pub dt_s: f64,
}

impl MixedConfig {
    /// Defaults for a given platform cruise speed.
    pub fn for_speed(v_max: MetersPerSec) -> Self {
        assert!(v_max.get() > 0.0);
        MixedConfig {
            penalty: SpeedPenalty::quadrocopter(),
            v_max_mps: v_max.get(),
            speed_grid: 24,
            distance_grid: 96,
            dt_s: 0.1,
        }
    }
}

/// One evaluated mixed strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixedOutcome {
    /// Rendezvous distance, metres.
    pub d_m: f64,
    /// Approach speed, m/s.
    pub v_mps: f64,
    /// Whether the radio transmits during the approach.
    pub transmit_while_moving: bool,
    /// Bytes delivered before arrival.
    pub in_motion_bytes: f64,
    /// Total completion time, seconds.
    pub completion_s: f64,
    /// Survival of the repositioning leg.
    pub survival: f64,
    /// `survival / completion`.
    pub utility: f64,
}

/// Evaluate one mixed strategy point — what the 2-D solver calls per
/// grid cell.
pub fn evaluate_mixed(
    scenario: Scenario<'_>,
    cfg: &MixedConfig,
    d: Meters,
    v: MetersPerSec,
    transmit_while_moving: bool,
) -> MixedOutcome {
    let (d_m, v_mps) = (d.get(), v.get());
    scenario.validate();
    assert!(d_m >= scenario.d_min_m - 1e-9 && d_m <= scenario.d0_m + 1e-9);
    assert!(v_mps > 0.0 && v_mps <= cfg.v_max_mps + 1e-9);

    let mut t = 0.0;
    let mut delivered = 0.0;
    if transmit_while_moving {
        let factor = cfg.penalty.factor(v);
        let mut d = scenario.d0_m;
        while d > d_m && delivered < scenario.mdata_bytes {
            let dt = cfg.dt_s.min((d - d_m) / v_mps).max(1e-9);
            let rate = scenario.throughput.rate_bps(Meters::new(d)).get() * factor;
            let step = rate * dt / 8.0;
            let remaining = scenario.mdata_bytes - delivered;
            if step >= remaining {
                t += remaining * 8.0 / rate;
                delivered = scenario.mdata_bytes;
                break;
            }
            delivered += step;
            t += dt;
            d -= v_mps * dt;
        }
        if delivered < scenario.mdata_bytes {
            t = (scenario.d0_m - d_m) / v_mps; // exact arrival time
        }
    } else {
        t = (scenario.d0_m - d_m) / v_mps;
    }
    if delivered < scenario.mdata_bytes {
        let rate = scenario.throughput.rate_bps(Meters::new(d_m)).get();
        t += (scenario.mdata_bytes - delivered) * 8.0 / rate;
    }
    let final_d = if delivered >= scenario.mdata_bytes && transmit_while_moving {
        // Completed mid-approach: conservative — survival still accounts
        // for the full leg actually flown up to completion.
        (scenario.d0_m - v_mps * t).max(d_m)
    } else {
        d_m
    };
    let survival = scenario
        .failure
        .survival(scenario.d0_m, final_d.min(scenario.d0_m));
    MixedOutcome {
        d_m,
        v_mps,
        transmit_while_moving,
        in_motion_bytes: delivered.min(scenario.mdata_bytes),
        completion_s: t,
        survival,
        utility: survival / t,
    }
}

/// Solve the 2-D problem: the best `(d, v, transmit?)` triple.
///
/// The speed axis is the parallel dimension: each grid speed scans its
/// `(d, transmit?)` plane independently (same inner order as the old
/// serial triple loop), and the per-speed winners are folded
/// sequentially in speed order with the same strictly-greater test —
/// so the selected triple is bit-identical to the serial solver at any
/// thread count, including when several cells tie on utility.
pub fn optimize_mixed(scenario: Scenario<'_>, cfg: &MixedConfig) -> MixedOutcome {
    scenario.validate();
    assert!(cfg.speed_grid >= 1 && cfg.distance_grid >= 2);
    let per_speed = par_map_indexed(cfg.speed_grid, |i| {
        let v = cfg.v_max_mps * (i + 1) as f64 / cfg.speed_grid as f64;
        let mut best: Option<MixedOutcome> = None;
        for di in 0..cfg.distance_grid {
            let d = scenario.d_min_m
                + (scenario.d0_m - scenario.d_min_m) * di as f64 / (cfg.distance_grid - 1) as f64;
            for tx in [false, true] {
                let o = evaluate_mixed(scenario, cfg, Meters::new(d), MetersPerSec::new(v), tx);
                if best.is_none_or(|b| o.utility > b.utility) {
                    best = Some(o);
                }
            }
        }
        best.expect("non-empty distance grid")
    });
    per_speed
        .into_iter()
        .reduce(|b, o| if o.utility > b.utility { o } else { b })
        .expect("non-empty speed grid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::optimize;

    fn quad_10mb() -> Scenario<'static> {
        Scenario::quadrocopter_baseline().with_mdata_mb(10.0)
    }

    fn cfg() -> MixedConfig {
        MixedConfig::for_speed(MetersPerSec::new(4.5))
    }

    #[test]
    fn penalty_factor_shape() {
        let p = SpeedPenalty {
            loss_db_per_mps: 1.0,
        };
        assert_eq!(p.factor(MetersPerSec::ZERO), 1.0);
        assert!((p.factor(MetersPerSec::new(10.0)) - 0.1).abs() < 1e-12);
        assert!(p.factor(MetersPerSec::new(5.0)) > p.factor(MetersPerSec::new(10.0)));
    }

    #[test]
    fn mixed_never_worse_than_pure_move_then_transmit() {
        // The pure strategy is a point of the mixed space (max speed, no
        // in-motion transmission at the 1-D optimum), so the 2-D optimum
        // must dominate it.
        for s in [quad_10mb(), Scenario::quadrocopter_baseline()] {
            let pure = optimize(s);
            let mixed = optimize_mixed(s, &cfg());
            assert!(
                mixed.utility >= pure.utility * (1.0 - 1e-6),
                "{s:?}: mixed {:.5} < pure {:.5}",
                mixed.utility,
                pure.utility
            );
        }
    }

    #[test]
    fn zero_penalty_makes_in_motion_transmission_free_lunch() {
        let s = quad_10mb();
        let mut c = cfg();
        c.penalty.loss_db_per_mps = 0.0;
        let best = optimize_mixed(s, &c);
        assert!(best.transmit_while_moving, "free in-motion rate unused");
        assert!(best.in_motion_bytes > 0.0);
        // And it strictly beats the silent-approach optimum.
        let pure = optimize(s);
        assert!(best.utility > pure.utility * 1.001);
    }

    #[test]
    fn heavy_penalty_recovers_pure_strategy() {
        let s = quad_10mb();
        let mut c = cfg();
        c.penalty.loss_db_per_mps = 20.0; // in-motion rate ≈ 0
        let best = optimize_mixed(s, &c);
        let pure = optimize(s);
        // Same distance (within grid resolution) and utility.
        assert!(
            (best.d_m - pure.d_opt).abs() < 3.0,
            "mixed d {:.1} vs pure {:.1}",
            best.d_m,
            pure.d_opt
        );
        assert!((best.utility - pure.utility).abs() / pure.utility < 0.01);
        // At a crushing penalty the solver may keep the "transmit" flag
        // (it delivers ~nothing either way); what matters is that the
        // in-motion contribution vanishes.
        assert!(best.in_motion_bytes < 0.01 * s.mdata_bytes);
    }

    #[test]
    fn max_speed_dominates_when_silent() {
        // With no in-motion transmission, arriving sooner is always
        // better: the solver must pick v = v_max.
        let s = quad_10mb();
        let best = optimize_mixed(s, &cfg());
        if !best.transmit_while_moving {
            assert!((best.v_mps - 4.5).abs() < 1e-9);
        }
    }

    #[test]
    fn evaluate_conserves_data_and_time() {
        let s = quad_10mb();
        let (d, v) = (Meters::new(40.0), MetersPerSec::new(4.5));
        let o = evaluate_mixed(s, &cfg(), d, v, true);
        assert!(o.completion_s > 0.0);
        assert!(o.in_motion_bytes <= s.mdata_bytes);
        assert!(o.survival > 0.0 && o.survival <= 1.0);
        // In-motion transmission can only speed things up vs silence at
        // the same (d, v).
        let silent = evaluate_mixed(s, &cfg(), d, v, false);
        assert!(o.completion_s <= silent.completion_s + 1e-9);
    }

    #[test]
    fn moderate_penalty_mixed_gains_are_modest() {
        // With the calibrated 0.7 dB/(m/s) penalty the extension's gain
        // over the paper's pure strategy is real but small — supporting
        // the paper's choice to keep the tractable 1-D model.
        let s = Scenario::quadrocopter_baseline();
        let mixed = optimize_mixed(s, &cfg());
        let pure = optimize(s);
        let gain = mixed.utility / pure.utility;
        assert!((1.0..1.35).contains(&gain), "gain={gain:.3}");
    }
}
