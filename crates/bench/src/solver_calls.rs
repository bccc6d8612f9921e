//! Point evaluations and bound calls per Eq. (2) solve, counted from
//! outside the solver: counting closures around the public
//! [`search_max_points`], called the way `optimize` calls it. The
//! solver itself carries no counter.
//!
//! `benches/kernels.rs` records these counts in `BENCH_kernels.json`,
//! and a test holds the Fig. 9 grid's mean to the pruning target.

use std::cell::Cell;

use skyferry_core::optimizer::search_max_points;
use skyferry_core::policy::PolicyGrid;
use skyferry_core::scenario::Scenario;
use skyferry_core::sweep::paper_grid;
use skyferry_core::utility::UtilityPoint;
use skyferry_units::Meters;

/// Mean calls per solve.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveCalls {
    /// Objective evaluations: `UtilityPoint::at`, one `s(d)` and one
    /// `δ(d)` each.
    pub objective: f64,
    /// Block-bound calls: arithmetic on two evaluated points.
    pub bound: f64,
}

impl SolveCalls {
    /// Objective plus bound calls.
    pub fn total(&self) -> f64 {
        self.objective + self.bound
    }
}

/// Solve `s` through `search_max_points` with the Eq. (2) block bound
/// (`pruned`) or with `f64::INFINITY` (the full scan), counting calls;
/// returns `d*` with the objective and bound counts.
fn count_solve(s: Scenario<'_>, pruned: bool) -> (Meters, [u32; 2]) {
    let objective = Cell::new(0u32);
    let bound = Cell::new(0u32);
    let d = search_max_points(
        s.d_min(),
        s.d0(),
        |d| {
            objective.set(objective.get() + 1);
            UtilityPoint::at(s, Meters::new(d))
        },
        |lo, hi| {
            bound.set(bound.get() + 1);
            if pruned {
                lo.bound_to(s, &hi)
            } else {
                f64::INFINITY
            }
        },
    );
    (d, [objective.get(), bound.get()])
}

fn mean_calls<'a>(scenarios: impl Iterator<Item = Scenario<'a>>, pruned: bool) -> SolveCalls {
    let (mut sum, mut n) = ([0u64; 2], 0u64);
    for s in scenarios {
        let (_, [objective, bound]) = count_solve(s, pruned);
        sum[0] += u64::from(objective);
        sum[1] += u64::from(bound);
        n += 1;
    }
    let n = n.max(1) as f64;
    SolveCalls {
        objective: sum[0] as f64 / n,
        bound: sum[1] as f64 / n,
    }
}

/// Mean calls per solve on the Fig. 9 grid: both Section 4 baselines ×
/// `paper_grid` (Mdata × speed), 60 solves.
pub fn figure9_calls(pruned: bool) -> SolveCalls {
    let bases = [
        Scenario::airplane_baseline(),
        Scenario::quadrocopter_baseline(),
    ];
    let scenarios = bases.into_iter().flat_map(|b| {
        paper_grid::MDATA_MB.iter().flat_map(move |&m| {
            paper_grid::SPEEDS_MPS
                .iter()
                .map(move |&v| b.with_mdata_mb(m).with_speed(v))
        })
    });
    mean_calls(scenarios, pruned)
}

/// Mean calls per solve on every cell of the quick policy grid (the
/// cells `repro --quick --compile-policy` solves).
pub fn quick_policy_calls(pruned: bool) -> SolveCalls {
    let grid = PolicyGrid::quick();
    mean_calls(
        (0..grid.cells()).map(|i| grid.params_at(i).scenario()),
        pruned,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyferry_core::optimizer::optimize;

    #[test]
    fn counted_solves_are_the_optimizers_own() {
        // The counts describe `optimize` only if the counted call
        // is the same computation: same d*, bounded or not.
        let s = Scenario::airplane_baseline().with_rho(5e-3);
        let want = optimize(s).d_opt.to_bits();
        for pruned in [true, false] {
            let (d, [objective, bound]) = count_solve(s, pruned);
            assert_eq!(d.get().to_bits(), want, "pruned {pruned}");
            assert!(objective > 0 && bound > 0);
        }
    }
}
