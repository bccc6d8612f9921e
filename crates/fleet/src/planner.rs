//! Centralized rendezvous planning: assign K UAVs to G ground stations.
//!
//! Every candidate (UAV, station) pair is scored with the *contended*
//! utility model: the pair's encounter distance `d0` is the current
//! 3-D separation, the station's medium is discounted for the load it
//! would carry, and the score is the optimum of Eq. (2) on that
//! contended scenario — so each UAV's d\* decision composes with the
//! assignment instead of being bolted on afterwards.
//!
//! Two planners share that scoring:
//!
//! * [`PlannerKind::Greedy`] — UAVs pick in index order, each taking
//!   the station that maximizes its own utility given the loads
//!   committed so far. O(K·G) scorings; the obvious baseline.
//! * [`PlannerKind::Hungarian`] — a Hungarian-style optimal matching
//!   over a K × (G·K) marginal-utility matrix, where column copy `c`
//!   of station `g` is "be the (c+1)-th contender at g". Copies with
//!   more contenders score lower, so the matching fills copies in
//!   order and the sum it maximizes is the standard marginal
//!   approximation of total fleet utility.
//!
//! Both return an [`Assignment`] whose per-UAV utilities are
//! *re-scored* under the final realized station loads, so the two
//! planners are compared on the same footing.

use skyferry_core::optimizer::{optimize, OptimalTransfer};
use skyferry_core::scenario::Scenario;
use skyferry_geo::vector::Vec3;
use skyferry_units::Meters;

use crate::medium::{contended, MediumAccess};
use crate::spatial::GridIndex;

/// Which assignment algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerKind {
    /// Sequential utility-maximizing baseline.
    Greedy,
    /// Hungarian-style optimal matching on marginal utilities.
    Hungarian,
}

impl PlannerKind {
    /// Short label for tables.
    pub fn name(self) -> &'static str {
        match self {
            PlannerKind::Greedy => "greedy",
            PlannerKind::Hungarian => "hungarian",
        }
    }
}

/// The planner's output: who goes where, and what each UAV's contended
/// Eq. (2) decision looks like under the realized loads.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// `station_of[i]` = station index assigned to UAV `i`.
    pub station_of: Vec<usize>,
    /// `load[g]` = number of UAVs assigned to station `g`.
    pub load: Vec<usize>,
    /// Per-UAV optimum under the realized load of its station
    /// (parallel to `station_of`).
    pub transfers: Vec<OptimalTransfer>,
    /// Sum of realized per-UAV utilities.
    pub total_utility: f64,
    /// The marginal objective the planner maximized: the sum of each
    /// UAV's utility scored at the contender count in effect when it
    /// was placed (greedy: the load at pick time; Hungarian: the slot
    /// copy it matched). Greedy is a feasible point of the Hungarian
    /// matching, so the Hungarian planned total always dominates —
    /// *realized* totals may reorder, because contention is a
    /// congestion externality every later placement re-prices.
    pub planned_utility: f64,
}

impl Assignment {
    /// Mean realized transmit distance across the fleet.
    pub fn mean_d_opt(&self) -> Meters {
        let n = self.transfers.len().max(1) as f64;
        Meters::new(self.transfers.iter().map(|t| t.d_opt).sum::<f64>() / n)
    }

    /// Mean realized utility across the fleet.
    pub fn mean_utility(&self) -> f64 {
        let n = self.transfers.len().max(1) as f64;
        self.total_utility / n
    }
}

/// The contended Eq. (2) optimum for one (UAV, station) pair with the
/// given contender count at the station.
fn pair_optimum(
    base: Scenario<'_>,
    medium: &dyn MediumAccess,
    uav: Vec3,
    station: Vec3,
    contenders: usize,
) -> OptimalTransfer {
    let d0 = uav.distance(station).max(base.d_min_m);
    optimize(contended(base.with_d0(d0), medium, contenders).scenario())
}

/// Assign every UAV to a station and solve each UAV's contended
/// decision problem.
///
/// `base` supplies the platform's throughput/failure/speed/`Mdata`
/// parameters; each pair's `d0` is the current 3-D separation (clamped
/// to `d_min`). Stations are pre-filtered through a [`GridIndex`]
/// range query of radius `reach` around each UAV; a UAV with no
/// station in reach falls back to its nearest station.
///
/// # Panics
/// Panics when there are no UAVs or no stations.
pub fn plan(
    kind: PlannerKind,
    base: Scenario<'_>,
    uavs: &[Vec3],
    stations: &[Vec3],
    medium: &dyn MediumAccess,
    reach: Meters,
) -> Assignment {
    assert!(!uavs.is_empty(), "need at least one UAV");
    assert!(!stations.is_empty(), "need at least one station");
    let index = GridIndex::build(stations, Meters::new(reach.get().max(1.0) / 2.0));
    // Deterministic candidate lists: range query (sorted), nearest as
    // the fallback so every UAV always has at least one option.
    let candidates: Vec<Vec<usize>> = uavs
        .iter()
        .map(|&u| {
            let near = index.within(u, reach);
            if near.is_empty() {
                vec![index.nearest(u, usize::MAX).expect("non-empty stations")]
            } else {
                near
            }
        })
        .collect();

    let (station_of, planned_utility) = match kind {
        PlannerKind::Greedy => greedy(base, uavs, stations, medium, &candidates),
        PlannerKind::Hungarian => hungarian_plan(base, uavs, stations, medium, &candidates),
    };

    // Re-score every UAV under the realized loads so planners are
    // compared on actual, not marginal, utility.
    let mut load = vec![0usize; stations.len()];
    for &g in &station_of {
        load[g] += 1;
    }
    let transfers: Vec<OptimalTransfer> = station_of
        .iter()
        .enumerate()
        .map(|(i, &g)| pair_optimum(base, medium, uavs[i], stations[g], load[g]))
        .collect();
    let total_utility = transfers.iter().map(|t| t.utility).sum();
    Assignment {
        station_of,
        load,
        transfers,
        total_utility,
        planned_utility,
    }
}

fn greedy(
    base: Scenario<'_>,
    uavs: &[Vec3],
    stations: &[Vec3],
    medium: &dyn MediumAccess,
    candidates: &[Vec<usize>],
) -> (Vec<usize>, f64) {
    let mut load = vec![0usize; stations.len()];
    let mut station_of = Vec::with_capacity(uavs.len());
    let mut planned = 0.0f64;
    for (i, &u) in uavs.iter().enumerate() {
        let mut best: Option<(f64, usize)> = None;
        for &g in &candidates[i] {
            let util = pair_optimum(base, medium, u, stations[g], load[g] + 1).utility;
            let better = match best {
                None => true,
                Some((bu, bg)) => util > bu || (util == bu && g < bg),
            };
            if better {
                best = Some((util, g));
            }
        }
        let (util, g) = best.expect("at least one candidate station");
        load[g] += 1;
        planned += util;
        station_of.push(g);
    }
    (station_of, planned)
}

fn hungarian_plan(
    base: Scenario<'_>,
    uavs: &[Vec3],
    stations: &[Vec3],
    medium: &dyn MediumAccess,
    candidates: &[Vec<usize>],
) -> (Vec<usize>, f64) {
    let k = uavs.len();
    let g_n = stations.len();
    // Column (g, c) = "be the (c+1)-th contender at station g".
    let cols = g_n * k;
    // Costs are negated utilities, shifted to non-negative; pairs not
    // in a UAV's candidate list get a prohibitive cost so the matching
    // respects the spatial pre-filter.
    const FORBIDDEN: f64 = 1e18;
    let mut cost = vec![vec![FORBIDDEN; cols]; k];
    let mut max_util = 0.0f64;
    let mut utils = vec![vec![0.0f64; cols]; k];
    for (i, &u) in uavs.iter().enumerate() {
        for &g in &candidates[i] {
            for c in 0..k {
                let util = pair_optimum(base, medium, u, stations[g], c + 1).utility;
                utils[i][g * k + c] = util;
                max_util = max_util.max(util);
            }
        }
    }
    for (i, row) in cost.iter_mut().enumerate() {
        for &g in &candidates[i] {
            for c in 0..k {
                row[g * k + c] = max_util - utils[i][g * k + c];
            }
        }
    }
    let matched = hungarian(&cost);
    let planned = matched
        .iter()
        .enumerate()
        .map(|(i, &col)| utils[i][col])
        .sum();
    (matched.iter().map(|&col| col / k).collect(), planned)
}

/// The O(n²·m) Hungarian algorithm with row/column potentials, for a
/// rectangular cost matrix with `rows ≤ cols`. Returns the matched
/// column of each row, minimizing total cost.
fn hungarian(cost: &[Vec<f64>]) -> Vec<usize> {
    let n = cost.len();
    let m = cost[0].len();
    assert!(n <= m, "need at least as many columns as rows");
    // 1-based potentials/matching, the classic formulation.
    let mut u = vec![0.0f64; n + 1];
    let mut v = vec![0.0f64; m + 1];
    let mut p = vec![0usize; m + 1]; // row matched to column j (0 = free)
    let mut way = vec![0usize; m + 1];
    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![f64::INFINITY; m + 1];
        let mut used = vec![false; m + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = f64::INFINITY;
            let mut j1 = 0usize;
            for j in 1..=m {
                if used[j] {
                    continue;
                }
                let cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=m {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }
    let mut matched = vec![0usize; n];
    for j in 1..=m {
        if p[j] > 0 {
            matched[p[j] - 1] = j - 1;
        }
    }
    matched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::CyclicalTdma;

    fn base() -> Scenario<'static> {
        Scenario::quadrocopter_baseline().with_mdata_mb(10.0)
    }

    fn reach() -> Meters {
        Meters::new(5_000.0)
    }

    #[test]
    fn hungarian_solves_a_known_matrix() {
        // Classic 3x3 instance: optimum is 5+3+4=12 on the diagonal-ish
        // matching (0→1, 1→0, 2→2).
        let cost = vec![
            vec![8.0, 5.0, 9.0],
            vec![3.0, 9.0, 7.0],
            vec![10.0, 6.0, 4.0],
        ];
        let m = hungarian(&cost);
        let total: f64 = m.iter().enumerate().map(|(i, &j)| cost[i][j]).sum();
        assert_eq!(m, vec![1, 0, 2]);
        assert!((total - 12.0).abs() < 1e-12);
    }

    #[test]
    fn hungarian_handles_rectangular_matrices() {
        let cost = vec![vec![5.0, 1.0, 3.0, 9.0], vec![2.0, 4.0, 6.0, 0.5]];
        let m = hungarian(&cost);
        assert_eq!(m, vec![1, 3]);
    }

    #[test]
    fn both_planners_spread_load_across_equal_stations() {
        // Two UAVs equidistant from two stations: sharing one station
        // halves throughput and adds hazard, so any utility-aware
        // planner puts one UAV on each.
        let uavs = vec![Vec3::new(0.0, 60.0, 0.0), Vec3::new(0.0, -60.0, 0.0)];
        let stations = vec![Vec3::new(80.0, 0.0, 0.0), Vec3::new(-80.0, 0.0, 0.0)];
        for kind in [PlannerKind::Greedy, PlannerKind::Hungarian] {
            let a = plan(
                kind,
                base(),
                &uavs,
                &stations,
                &CyclicalTdma::BASELINE,
                reach(),
            );
            assert_eq!(a.load, vec![1, 1], "{} must spread load", kind.name());
            assert_eq!(a.transfers.len(), 2);
            assert!(a.total_utility > 0.0);
        }
    }

    #[test]
    fn hungarian_total_never_below_greedy() {
        // A contended hotspot: three UAVs near one station, one remote
        // station. The optimal matching's realized total must be at
        // least the greedy baseline's (it optimizes what greedy
        // approximates).
        let uavs = vec![
            Vec3::new(10.0, 30.0, 0.0),
            Vec3::new(-20.0, 40.0, 0.0),
            Vec3::new(15.0, -35.0, 0.0),
        ];
        let stations = vec![Vec3::new(0.0, 0.0, 0.0), Vec3::new(600.0, 0.0, 0.0)];
        let medium = CyclicalTdma::BASELINE;
        let g = plan(
            PlannerKind::Greedy,
            base(),
            &uavs,
            &stations,
            &medium,
            reach(),
        );
        let h = plan(
            PlannerKind::Hungarian,
            base(),
            &uavs,
            &stations,
            &medium,
            reach(),
        );
        // Greedy's placement is a feasible point of the Hungarian
        // matching, so on the planned (marginal) objective the optimal
        // matching always dominates.
        assert!(
            h.planned_utility >= g.planned_utility - 1e-9,
            "hungarian planned {} < greedy planned {}",
            h.planned_utility,
            g.planned_utility
        );
    }

    #[test]
    fn assignment_reports_realized_loads() {
        let uavs = vec![Vec3::new(0.0, 50.0, 0.0), Vec3::new(0.0, 55.0, 0.0)];
        let stations = vec![Vec3::new(0.0, 0.0, 0.0)];
        let a = plan(
            PlannerKind::Greedy,
            base(),
            &uavs,
            &stations,
            &CyclicalTdma::BASELINE,
            reach(),
        );
        assert_eq!(a.station_of, vec![0, 0]);
        assert_eq!(a.load, vec![2]);
        let m = a.mean_d_opt().get();
        assert!(m > 0.0 && m.is_finite());
    }
}
