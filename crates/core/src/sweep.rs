//! Parameter studies (Figures 8 and 9).
//!
//! * [`rho_sweep`] — `U(d)` curves and maxima for a list of failure rates
//!   on a baseline scenario (Figure 8);
//! * [`gratification_sweep`] — `(dopt, U(dopt))` across a grid of batch
//!   sizes and speeds (Figure 9: each `Mdata` draws a curve over `v`).
//!
//! [`rho_sweep`]: crate::sweep::rho_sweep
//! [`gratification_sweep`]: crate::sweep::gratification_sweep

use crate::optimizer::{optimize, utility_curve, OptimalTransfer};
use crate::scenario::Scenario;
use skyferry_sim::parallel::{par_map, par_map_grid};

/// One ρ's worth of Figure 8 output.
#[derive(Debug, Clone, PartialEq)]
pub struct RhoCurve {
    /// Failure rate, 1/m.
    pub rho_per_m: f64,
    /// `(d, U(d))` samples over `[d_min, d0]`.
    pub curve: Vec<(f64, f64)>,
    /// The Eq. (2) optimum ("Maximum" markers in Figure 8).
    pub optimum: OptimalTransfer,
}

/// Evaluate Figure 8 for a baseline scenario and a set of failure rates.
///
/// Each ρ is an independent task: every cell is a copy of the base
/// scenario with one field overridden, so no cell clones a throughput
/// model or allocates. Runs on the deterministic thread pool
/// ([`par_map`]); output is identical at any thread count.
pub fn rho_sweep(base: Scenario<'_>, rhos: &[f64], curve_points: usize) -> Vec<RhoCurve> {
    par_map(rhos, |&rho| {
        let s = base.with_rho(rho);
        RhoCurve {
            rho_per_m: rho,
            curve: utility_curve(s, curve_points),
            optimum: optimize(s),
        }
    })
}

/// One (Mdata, v) cell of Figure 9.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GratificationPoint {
    /// Batch size, MB.
    pub mdata_mb: f64,
    /// Cruise speed, m/s.
    pub v_mps: f64,
    /// The optimum for this cell.
    pub optimum: OptimalTransfer,
}

/// Evaluate Figure 9: for every batch size, a curve over speeds.
///
/// The full `|Mdata| × |v|` grid is flattened into one task pool
/// ([`par_map_grid`]) so load balances across cells, and each cell is a
/// two-field override on a copy of the base scenario.
pub fn gratification_sweep(
    base: Scenario<'_>,
    mdata_mb: &[f64],
    speeds_mps: &[f64],
) -> Vec<Vec<GratificationPoint>> {
    par_map_grid(mdata_mb, speeds_mps, |&m, &v| {
        let s = base.with_mdata_mb(m).with_speed(v);
        GratificationPoint {
            mdata_mb: m,
            v_mps: v,
            optimum: optimize(s),
        }
    })
}

/// The paper's Figure 8 rate lists.
pub mod paper_rhos {
    use crate::request::{DecisionParams, Platform};

    /// Airplane panel: the baseline ρ plus the four stress values.
    pub const AIRPLANE: [f64; 5] = [
        DecisionParams::baseline(Platform::Airplane).rho_per_m,
        1e-3,
        2e-3,
        5e-3,
        1e-2,
    ];
    /// Quadrocopter panel: the baseline ρ plus the four stress values.
    pub const QUADROCOPTER: [f64; 5] = [
        DecisionParams::baseline(Platform::Quadrocopter).rho_per_m,
        1e-3,
        2e-3,
        5e-3,
        1e-2,
    ];
}

/// The paper's Figure 9 grids.
pub mod paper_grid {
    /// Batch sizes (MB): the labelled curves.
    pub const MDATA_MB: [f64; 6] = [5.0, 7.0, 10.0, 15.0, 25.0, 45.0];
    /// Speeds (m/s): the labelled sample points.
    pub const SPEEDS_MPS: [f64; 5] = [3.0, 5.0, 10.0, 15.0, 20.0];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rho_sweep_shapes() {
        let out = rho_sweep(Scenario::airplane_baseline(), &paper_rhos::AIRPLANE, 101);
        assert_eq!(out.len(), 5);
        for c in &out {
            assert_eq!(c.curve.len(), 101);
        }
    }

    #[test]
    fn figure8_dopt_monotone_in_rho() {
        for (base, rhos) in [
            (Scenario::airplane_baseline(), paper_rhos::AIRPLANE),
            (Scenario::quadrocopter_baseline(), paper_rhos::QUADROCOPTER),
        ] {
            let out = rho_sweep(base, &rhos, 64);
            for w in out.windows(2) {
                assert!(
                    w[1].optimum.d_opt >= w[0].optimum.d_opt - 1e-6,
                    "{base:?}: dopt not monotone"
                );
            }
        }
    }

    #[test]
    fn figure8_baseline_maxima_pin_at_dmin_and_grow_with_rho() {
        // At the baseline ρ the big batches pull the optimum onto the
        // 20 m constraint; at the stress ρ values the discount pushes it
        // visibly outwards (the moving "Maximum" markers of Figure 8).
        let air = rho_sweep(Scenario::airplane_baseline(), &paper_rhos::AIRPLANE, 64);
        assert!((air[0].optimum.d_opt - 20.0).abs() < 0.5);
        assert!(
            air.last().unwrap().optimum.d_opt > air[0].optimum.d_opt + 20.0,
            "largest rho must push dopt out: {}",
            air.last().unwrap().optimum.d_opt
        );
        let quad = rho_sweep(
            Scenario::quadrocopter_baseline(),
            &paper_rhos::QUADROCOPTER,
            64,
        );
        assert!((quad[0].optimum.d_opt - 20.0).abs() < 0.5);
        assert!(quad.last().unwrap().optimum.d_opt > 25.0);
    }

    #[test]
    fn figure9_grid_dimensions() {
        let out = gratification_sweep(
            Scenario::airplane_baseline(),
            &paper_grid::MDATA_MB,
            &paper_grid::SPEEDS_MPS,
        );
        assert_eq!(out.len(), 6);
        assert!(out.iter().all(|row| row.len() == 5));
    }

    #[test]
    fn figure9_larger_mdata_smaller_dopt_lower_utility() {
        let out = gratification_sweep(
            Scenario::airplane_baseline(),
            &paper_grid::MDATA_MB,
            &[10.0],
        );
        for w in out.windows(2) {
            let (small, large) = (&w[0][0], &w[1][0]);
            assert!(large.optimum.d_opt <= small.optimum.d_opt + 1e-6);
            assert!(large.optimum.utility < small.optimum.utility);
        }
    }

    #[test]
    fn figure9_speed_moves_dopt_closer_per_mdata() {
        let out = gratification_sweep(
            Scenario::airplane_baseline(),
            &[15.0],
            &paper_grid::SPEEDS_MPS,
        );
        let row = &out[0];
        for w in row.windows(2) {
            assert!(
                w[1].optimum.d_opt <= w[0].optimum.d_opt + 1e-6,
                "dopt must not grow with v: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn figure9_dmin_saturation_at_high_speed_and_size() {
        // "Once the minimum distance is reached, higher speeds even
        // increase the gratification" — for 45 MB at high speed the
        // optimum pins at d_min and U grows with v (shipping gets
        // cheaper).
        let out = gratification_sweep(Scenario::airplane_baseline(), &[45.0], &[15.0, 20.0]);
        let row = &out[0];
        assert!((row[0].optimum.d_opt - 20.0).abs() < 1.0, "pinned at dmin");
        assert!((row[1].optimum.d_opt - 20.0).abs() < 1.0);
        assert!(row[1].optimum.utility > row[0].optimum.utility);
    }
}
