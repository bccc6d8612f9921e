//! Deterministic trajectory campaigns: jitter the wind, plan, replicate.
//!
//! The planner itself is deterministic; what a campaign replicates is
//! *wind uncertainty* — each replication draws a realised mean wind
//! around the configured one (component jitter at the gust sigma) and
//! plans both strategies against it. Replications ride on
//! `sim::parallel::run_replications`, so results are bit-identical at
//! any thread count — the property `tests/traj_determinism.rs` pins.

use skyferry_geo::vector::Vec3;
use skyferry_sim::parallel::run_replications;
use skyferry_sim::rng::DetRng;
use skyferry_uav::platform::PlatformKind;
use skyferry_uav::wind::WindConfig;
use skyferry_units::Joules;

use crate::energy::EnergyModel;
use crate::planner::{plan, TrajConfig, TrajSolution};

/// Battery budget as a fraction of the platform's full capacity.
pub fn battery_budget(platform: PlatformKind, fraction: f64) -> Joules {
    assert!(
        fraction > 0.0 && fraction <= 1.0,
        "budget fraction must be in (0, 1], got {fraction}"
    );
    EnergyModel::of(platform).capacity() * fraction
}

/// One replication's outcome: the wind that was realised and the plans
/// made against it.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajOutcome {
    /// Realised mean wind vector for this replication.
    pub wind_mps: Vec3,
    /// Both strategies planned against that wind.
    pub solution: TrajSolution,
}

impl TrajOutcome {
    /// Relative utility gain of the optimized path.
    pub fn gain(&self) -> f64 {
        self.solution.gain()
    }
}

/// A seeded, replicable trajectory campaign.
#[derive(Debug, Clone)]
pub struct TrajCampaign {
    /// The planning cell being replicated.
    pub config: TrajConfig,
}

impl TrajCampaign {
    /// Wrap a config.
    pub fn new(config: TrajConfig) -> Self {
        config.grid.validate();
        assert!(config.budget.get() > 0.0, "budget must be positive");
        TrajCampaign { config }
    }

    /// Run one replication from a derived RNG (the `run_replications`
    /// calling convention): realise a wind, plan against it.
    pub fn run_with(&self, mut rng: DetRng) -> TrajOutcome {
        let cfg = &self.config;
        let sigma = cfg.wind.gust_sigma_mps;
        let wind_mps =
            cfg.wind.mean_mps + Vec3::new(rng.normal(0.0, sigma), rng.normal(0.0, sigma), 0.0);
        // The planner never reads the label, so the copy takes none.
        let solution = plan(&TrajConfig {
            name: String::new(),
            wind: WindConfig {
                mean_mps: wind_mps,
                ..cfg.wind
            },
            ..*cfg
        });
        TrajOutcome { wind_mps, solution }
    }

    /// Run `reps` replications in parallel, bit-identical at any thread
    /// count. The RNG substream for replication `r` is derived from
    /// `(seed, "traj/<name>", r)`.
    pub fn replicate(&self, seed: u64, reps: u64) -> Vec<TrajOutcome> {
        let label = format!("traj/{}", self.config.name);
        run_replications(seed, &label, reps, |_rep, rng| self.run_with(rng))
    }
}

/// Mean relative gain across a campaign's outcomes.
pub fn mean_gain(outcomes: &[TrajOutcome]) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    outcomes.iter().map(TrajOutcome::gain).sum::<f64>() / outcomes.len() as f64
}

/// Fraction of outcomes whose optimized path leaves the corridor.
pub fn crab_fraction(outcomes: &[TrajOutcome]) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    let crabbed = outcomes
        .iter()
        .filter(|o| o.solution.optimized.crabbed)
        .count();
    crabbed as f64 / outcomes.len() as f64
}

/// Fraction of outcomes whose optimized plan fits the budget.
pub fn feasible_fraction(outcomes: &[TrajOutcome]) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    let ok = outcomes
        .iter()
        .filter(|o| o.solution.optimized.feasible)
        .count();
    ok as f64 / outcomes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyferry_units::MetersPerSec;

    fn campaign(wind_speed: f64) -> TrajCampaign {
        let mut cfg = TrajConfig::baseline(
            "campaign-test",
            WindConfig::steady(90.0, MetersPerSec::new(wind_speed)),
            battery_budget(PlatformKind::Quadrocopter, 0.05),
        );
        cfg.grid = crate::grid::GridSpec::quick();
        TrajCampaign::new(cfg)
    }

    #[test]
    fn same_seed_same_outcome() {
        let c = campaign(2.0);
        let a = c.replicate(0x5AFE, 3);
        let b = c.replicate(0x5AFE, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let c = campaign(2.0);
        let a = &c.replicate(1, 1)[0];
        let b = &c.replicate(2, 1)[0];
        assert_ne!(a.wind_mps, b.wind_mps);
    }

    #[test]
    fn outcomes_weakly_dominate_per_replication() {
        let c = campaign(2.5);
        for o in c.replicate(0x17AA, 4) {
            assert!(o.gain() >= 0.0);
            assert!(o.solution.optimized.utility >= o.solution.straight.utility);
        }
    }

    #[test]
    fn summary_stats_are_bounded() {
        let c = campaign(2.0);
        let outs = c.replicate(0xBEEF, 4);
        assert!(mean_gain(&outs) >= 0.0);
        let cf = crab_fraction(&outs);
        assert!((0.0..=1.0).contains(&cf));
        let ff = feasible_fraction(&outs);
        assert!((0.0..=1.0).contains(&ff));
    }
}
