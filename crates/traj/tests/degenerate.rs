//! The degenerate-equivalence guarantee, asserted across the policy
//! quick grid: in calm air with ample battery, the trajectory DP must
//! reproduce `core::optimizer`'s scalar d\* **bit-for-bit** in every
//! cell — same transmit distance bits, same utility bits — for both the
//! straight strategy and the reported optimized path.
//!
//! This is the contract that makes the subsystem a *generalisation*
//! rather than a reimplementation: the scalar optimizer is literally
//! the straight-corridor slice of the planner.

use skyferry_core::optimizer::optimize;
use skyferry_core::policy::PolicyGrid;
use skyferry_core::request::{DecisionParams, Platform};
use skyferry_sim::parallel::par_map_indexed;
use skyferry_traj::{plan, EnergyModel, GridSpec, TrajConfig, TrajSolution};
use skyferry_uav::platform::PlatformKind;
use skyferry_uav::wind::WindConfig;

/// Plan the query's corridor in calm air on ten full batteries.
fn calm_ample_plan(params: &DecisionParams, grid: GridSpec) -> TrajSolution {
    let platform = match params.platform {
        Platform::Airplane => PlatformKind::Airplane,
        Platform::Quadrocopter => PlatformKind::Quadrocopter,
    };
    plan(&TrajConfig {
        name: String::new(),
        platform,
        scenario: params.scenario(),
        wind: WindConfig::calm(),
        budget: EnergyModel::of(platform).capacity() * 10.0,
        grid,
    })
}

/// Tiny planner grid: the bit-equality is structural (the straight
/// refinement runs the optimizer's own search over the full interval
/// regardless of DP resolution), so a coarse DP keeps the full-grid
/// sweep fast without weakening the assertion.
fn tiny() -> GridSpec {
    GridSpec {
        rings: 6,
        sectors: 2,
        sector_step_rad: 0.2,
        levels: 2,
    }
}

#[test]
fn calm_ample_equals_scalar_optimizer_across_the_quick_grid() {
    let grid = PolicyGrid::quick();
    let mismatches: Vec<String> = par_map_indexed(grid.cells(), |cell| {
        let params = grid.params_at(cell);
        let scalar = optimize(params.scenario());
        let sol = calm_ample_plan(&params, tiny());
        for (label, path) in [("straight", &sol.straight), ("optimized", &sol.optimized)] {
            if path.d_tx_m.to_bits() != scalar.d_opt.to_bits()
                || path.utility.to_bits() != scalar.utility.to_bits()
            {
                return Some(format!(
                    "cell {cell} ({:?} d0={} mdata={} rho={} v={}): {label} \
                     d_tx={:?} vs scalar d_opt={:?}, utility {:?} vs {:?}",
                    params.platform,
                    params.d0_m,
                    params.mdata_bytes,
                    params.rho_per_m,
                    params.v_mps,
                    path.d_tx_m,
                    scalar.d_opt,
                    path.utility,
                    scalar.utility
                ));
            }
            if path.crabbed {
                return Some(format!("cell {cell}: {label} path crabbed in calm air"));
            }
        }
        None
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(
        mismatches.is_empty(),
        "{} cells diverge from the scalar optimizer; first: {}",
        mismatches.len(),
        mismatches[0]
    );
}

#[test]
fn equality_holds_at_production_dp_resolution() {
    // Spot-check a spread of cells at the real planner resolutions —
    // the tiny grid above is a speed optimisation, not a loophole.
    let grid = PolicyGrid::quick();
    let n = grid.cells();
    for (i, spec) in [GridSpec::baseline(), GridSpec::quick()]
        .into_iter()
        .enumerate()
    {
        for cell in [0, n / 5 + i, 2 * n / 5, 3 * n / 5 + i, n - 1] {
            let params = grid.params_at(cell);
            let scalar = optimize(params.scenario());
            let sol = calm_ample_plan(&params, spec);
            assert_eq!(
                sol.optimized.d_tx_m.to_bits(),
                scalar.d_opt.to_bits(),
                "cell {cell} grid {i}"
            );
            assert_eq!(
                sol.optimized.utility.to_bits(),
                scalar.utility.to_bits(),
                "cell {cell} grid {i}"
            );
        }
    }
}
