//! Deterministic fleet campaigns: place, plan, decide, replicate.
//!
//! One campaign cell seeds a fleet layout (K UAVs and G ground
//! stations in a square operating area), runs the rendezvous planner,
//! solves each UAV's contended Eq. (2) decision, counts safety
//! conflicts through the spatial index, and stamps a bursty
//! data-ready/arrival process for trace export. Replications ride on
//! `sim::parallel::run_replications`, so results are bit-identical at
//! any thread count — the property `tests/fleet_determinism.rs` pins.

use skyferry_core::optimizer::OptimalTransfer;
use skyferry_core::scenario::Scenario;
use skyferry_geo::vector::Vec3;
use skyferry_sim::parallel::run_replications;
use skyferry_sim::rng::DetRng;
use skyferry_uav::platform::{PlatformKind, PlatformSpec};
use skyferry_units::Meters;

use crate::medium::{contended, CyclicalTdma, MediumAccess, UdMac};
use crate::planner::{plan, Assignment, PlannerKind};
use crate::spatial::GridIndex;

/// Serialisable medium selector (plain data, like `ThroughputSpec`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MediumSpec {
    /// Cyclical TDMA slots.
    Tdma(CyclicalTdma),
    /// UD-MAC-style delay-tolerant priority access.
    UdMac(UdMac),
}

impl MediumSpec {
    /// The trait object this spec selects.
    pub fn access(&self) -> &dyn MediumAccess {
        match self {
            MediumSpec::Tdma(m) => m,
            MediumSpec::UdMac(m) => m,
        }
    }

    /// Short label for tables.
    pub fn name(&self) -> &'static str {
        self.access().name()
    }
}

/// One fleet scenario family: everything but the seed.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Label for reports and traces.
    pub name: String,
    /// Fleet size K.
    pub uavs: usize,
    /// Ground stations G.
    pub stations: usize,
    /// Airframe flying the mission.
    pub platform: PlatformKind,
    /// Side of the square operating area, metres.
    pub area_m: f64,
    /// Batch size per UAV, MB.
    pub mdata_mb: f64,
    /// Assignment algorithm.
    pub planner: PlannerKind,
    /// Shared-medium model.
    pub medium: MediumSpec,
    /// UAVs whose data becomes ready together (bursty waves).
    pub wave: usize,
    /// Gap between wave starts, seconds.
    pub wave_gap_s: f64,
}

impl FleetConfig {
    /// The default fleet cell used by the experiments: quadrocopters
    /// with a 10 MB batch (interior optimum) in a 300 m square, waves
    /// of 4 every 60 s.
    pub fn baseline(uavs: usize, stations: usize, medium: MediumSpec) -> Self {
        FleetConfig {
            name: format!("fleet-k{uavs}-g{stations}"),
            uavs,
            stations,
            platform: PlatformKind::Quadrocopter,
            area_m: 300.0,
            mdata_mb: 10.0,
            planner: PlannerKind::Greedy,
            medium,
            wave: 4,
            wave_gap_s: 60.0,
        }
    }

    /// The single-UAV scenario template this fleet contends over.
    pub fn base_scenario(&self) -> Scenario<'static> {
        let s = match self.platform {
            PlatformKind::Airplane => Scenario::airplane_baseline(),
            PlatformKind::Quadrocopter => Scenario::quadrocopter_baseline(),
        };
        s.with_mdata_mb(self.mdata_mb)
    }
}

/// One UAV's planned rendezvous and solved decision.
#[derive(Debug, Clone, PartialEq)]
pub struct UavDecision {
    /// UAV index within the fleet.
    pub uav: usize,
    /// Assigned ground station.
    pub station: usize,
    /// Contenders sharing that station (including this UAV).
    pub contenders: usize,
    /// Encounter distance (3-D separation at planning time), metres.
    pub d0_m: f64,
    /// Effective contended failure rate ρ' = ρ + λ/v, 1/m.
    pub rho_eff_per_m: f64,
    /// The contended Eq. (2) optimum.
    pub transfer: OptimalTransfer,
    /// When this UAV's batch becomes ready, seconds from campaign start.
    pub ready_s: f64,
    /// When its decision request arrives at the ground segment (ready
    /// plus the shipping leg down to d\*), seconds from campaign start.
    pub arrival_s: f64,
}

/// One replication's full outcome.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Per-UAV decisions, in UAV index order.
    pub decisions: Vec<UavDecision>,
    /// Safety conflicts (pairs closer than the collision margin).
    pub conflicts: Vec<(usize, usize)>,
    /// Realized station loads.
    pub load: Vec<usize>,
    /// Sum of realized utilities.
    pub total_utility: f64,
    /// The marginal objective the planner maximized (see
    /// `planner::Assignment::planned_utility`).
    pub planned_utility: f64,
}

impl FleetOutcome {
    /// Mean realized transmit distance across the fleet.
    pub fn mean_d_opt(&self) -> Meters {
        let n = self.decisions.len().max(1) as f64;
        Meters::new(self.decisions.iter().map(|d| d.transfer.d_opt).sum::<f64>() / n)
    }

    /// Mean realized utility across the fleet.
    pub fn mean_utility(&self) -> f64 {
        self.total_utility / self.decisions.len().max(1) as f64
    }

    /// Fraction of the fleet transmitting immediately at `d0`
    /// (within the optimizer's transmit-now tolerance).
    pub fn transmit_now_fraction(&self) -> f64 {
        let now = self
            .decisions
            .iter()
            .filter(|d| d.transfer.transmit_now(Meters::new(d.d0_m)))
            .count();
        now as f64 / self.decisions.len().max(1) as f64
    }
}

/// A seeded, replicable fleet campaign.
#[derive(Debug, Clone)]
pub struct FleetCampaign {
    /// The scenario family.
    pub config: FleetConfig,
}

impl FleetCampaign {
    /// Wrap a config.
    pub fn new(config: FleetConfig) -> Self {
        assert!(config.uavs >= 1, "need at least one UAV");
        assert!(config.stations >= 1, "need at least one station");
        assert!(config.area_m > 0.0, "operating area must be positive");
        assert!(config.wave >= 1, "waves must hold at least one UAV");
        FleetCampaign { config }
    }

    /// Run one replication from a derived RNG (the `run_replications`
    /// calling convention).
    pub fn run_with(&self, mut rng: DetRng) -> FleetOutcome {
        let cfg = &self.config;
        let spec = PlatformSpec::of(cfg.platform);
        let base = cfg.base_scenario();

        // Stations on the ground, UAVs airborne over the area. The
        // altitude band keeps d0 ≥ d_min even directly overhead.
        let side = cfg.area_m;
        let stations: Vec<Vec3> = (0..cfg.stations)
            .map(|_| {
                Vec3::new(
                    rng.uniform_range(0.0, side),
                    rng.uniform_range(0.0, side),
                    0.0,
                )
            })
            .collect();
        let alt_lo = base.d_min_m.max(0.3 * spec.max_altitude_m);
        let alt_hi = spec.max_altitude_m;
        let uavs: Vec<Vec3> = (0..cfg.uavs)
            .map(|_| {
                Vec3::new(
                    rng.uniform_range(0.0, side),
                    rng.uniform_range(0.0, side),
                    rng.uniform_range(alt_lo, alt_hi),
                )
            })
            .collect();

        let medium = cfg.medium.access();
        let assignment: Assignment = plan(
            cfg.planner,
            base,
            &uavs,
            &stations,
            medium,
            Meters::new(4.0 * side),
        );

        // Bursty data-ready process: waves of `wave` UAVs, each wave
        // `wave_gap_s` apart, with small in-wave jitter plus an
        // exponential straggler tail.
        let mut decisions = Vec::with_capacity(cfg.uavs);
        for (i, pos) in uavs.iter().enumerate() {
            let g = assignment.station_of[i];
            let contenders = assignment.load[g];
            let transfer = assignment.transfers[i];
            let d0 = pos.distance(stations[g]).max(base.d_min_m);
            let wave_start = (i / cfg.wave) as f64 * cfg.wave_gap_s;
            let jitter = rng.uniform_range(0.0, 2.0);
            let straggle = rng.exponential(1.0);
            let ready_s = wave_start + jitter + straggle;
            let ship_s = (d0 - transfer.d_opt).max(0.0) / base.v_mps;
            decisions.push(UavDecision {
                uav: i,
                station: g,
                contenders,
                d0_m: d0,
                rho_eff_per_m: contended(base, medium, contenders).rho_per_m(),
                transfer,
                ready_s,
                arrival_s: ready_s + ship_s,
            });
        }

        let index = GridIndex::build(&uavs, Meters::new(2.0 * base.d_min_m));
        let conflicts = index.conflict_pairs(Meters::new(base.d_min_m));

        FleetOutcome {
            decisions,
            conflicts,
            load: assignment.load,
            total_utility: assignment.total_utility,
            planned_utility: assignment.planned_utility,
        }
    }

    /// Run `reps` replications in parallel, bit-identical at any thread
    /// count. The RNG substream for replication `r` is derived from
    /// `(seed, "fleet/<name>", r)`.
    pub fn replicate(&self, seed: u64, reps: u64) -> Vec<FleetOutcome> {
        let label = format!("fleet/{}", self.config.name);
        run_replications(seed, &label, reps, |_rep, rng| self.run_with(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyferry_sim::rng::SeedStream;

    fn campaign(k: usize) -> FleetCampaign {
        FleetCampaign::new(FleetConfig::baseline(
            k,
            2,
            MediumSpec::Tdma(CyclicalTdma::BASELINE),
        ))
    }

    #[test]
    fn outcome_is_fully_populated() {
        let out = campaign(6).run_with(SeedStream::new(7).rng("t"));
        assert_eq!(out.decisions.len(), 6);
        assert_eq!(out.load.iter().sum::<usize>(), 6);
        for d in &out.decisions {
            assert!(d.d0_m >= 20.0);
            assert!(d.transfer.d_opt >= 20.0 - 1e-9 && d.transfer.d_opt <= d.d0_m + 1e-9);
            assert!(d.contenders >= 1 && d.contenders <= 6);
            assert!(d.arrival_s >= d.ready_s);
            assert!(d.rho_eff_per_m > 0.0);
        }
        let m = out.mean_d_opt().get();
        assert!(m > 0.0 && m.is_finite());
        let f = out.transmit_now_fraction();
        assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn same_seed_same_outcome() {
        let c = campaign(5);
        let a = c.replicate(0x5AFE, 3);
        let b = c.replicate(0x5AFE, 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.decisions, y.decisions);
            assert_eq!(x.conflicts, y.conflicts);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let c = campaign(5);
        let a = &c.replicate(1, 1)[0];
        let b = &c.replicate(2, 1)[0];
        assert_ne!(a.decisions, b.decisions);
    }

    #[test]
    fn contenders_match_station_loads() {
        let out = campaign(8).run_with(SeedStream::new(11).rng("t"));
        for d in &out.decisions {
            assert_eq!(d.contenders, out.load[d.station]);
        }
    }
}
