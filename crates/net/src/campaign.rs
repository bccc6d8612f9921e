//! End-to-end measurement campaigns.
//!
//! One campaign = one radio environment + one rate-control policy + one
//! motion profile, run for a while under either saturated traffic (the
//! paper's iperf measurements, Figures 5–7) or a finite batch transfer
//! (the Figure 1 strategy comparison). Campaigns run inside the
//! deterministic event engine; replications differ only by seed.

use skyferry_mac::link::{LinkConfig, LinkState};
use skyferry_mac::queue::TxQueue;
use skyferry_mac::rate::{Arf, FixedMcs, MinstrelHt, RateController};
use skyferry_phy::mcs::Mcs;
use skyferry_phy::presets::ChannelPreset;
use skyferry_sim::parallel::par_map_indexed;
use skyferry_sim::prelude::*;
use skyferry_sim::stable::KeyHasher;

use crate::meter::ThroughputMeter;
use crate::profile::MotionProfile;
use crate::transfer::TransferRecord;

/// Which rate-control policy a campaign uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControllerKind {
    /// One fixed MCS for the whole run.
    Fixed(Mcs),
    /// ARF-style stepping auto rate (vendor-firmware-like; the paper's
    /// "auto PHY rate" behaves like this class).
    Arf,
    /// Minstrel-HT-style statistical auto rate.
    MinstrelHt,
}

impl ControllerKind {
    /// Instantiate the controller for a given preset.
    pub fn build(&self, preset: &ChannelPreset) -> Box<dyn RateController> {
        match *self {
            ControllerKind::Fixed(mcs) => Box::new(FixedMcs(mcs)),
            ControllerKind::Arf => Box::new(Arf::new()),
            ControllerKind::MinstrelHt => Box::new(MinstrelHt::new(preset.width, preset.gi)),
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match *self {
            ControllerKind::Fixed(mcs) => format!("{mcs}").to_lowercase(),
            ControllerKind::Arf => "autorate".into(),
            ControllerKind::MinstrelHt => "minstrel".into(),
        }
    }

    /// Fold the policy identity into `h` (variant tag plus the fixed MCS
    /// index where applicable).
    pub fn stable_key(&self, h: KeyHasher) -> KeyHasher {
        match *self {
            ControllerKind::Fixed(mcs) => h.str("fixed").u64(mcs.index() as u64),
            ControllerKind::Arf => h.str("arf"),
            ControllerKind::MinstrelHt => h.str("minstrel-ht"),
        }
    }
}

/// A stable identity for a [`CampaignConfig`]: two configs share a key
/// exactly when they would simulate the same thing (preset, controller,
/// duration and seed all folded in). The bench crate's campaign store uses
/// this as its memoization key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CampaignKey(pub u64);

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Radio environment.
    pub preset: ChannelPreset,
    /// Rate-control policy.
    pub controller: ControllerKind,
    /// Measurement duration (per replication).
    pub duration: SimDuration,
    /// Master seed; replications derive substreams from it.
    pub seed: u64,
}

impl CampaignConfig {
    /// The stable memoization key of this campaign (see [`CampaignKey`]).
    pub fn stable_key(&self) -> CampaignKey {
        let h = KeyHasher::new("campaign");
        let h = self.preset.stable_key(h);
        let h = self.controller.stable_key(h);
        CampaignKey(h.i64(self.duration.as_nanos()).u64(self.seed).finish())
    }

    /// Build the MAC link for replication `rep`.
    fn build_link(&self, rep: u64) -> LinkState {
        let seeds = SeedStream::new(self.seed);
        LinkState::new(
            LinkConfig::paper_default(self.preset),
            self.controller.build(&self.preset),
            seeds.rng_indexed("fading", rep),
            seeds.rng_indexed("link", rep),
        )
    }
}

/// The single event type of a link campaign: "run the next TXOP".
#[derive(Debug)]
struct NextTxop;

/// Run one saturated-traffic replication; returns per-second Mb/s samples.
pub fn measure_throughput(cfg: &CampaignConfig, profile: MotionProfile, rep: u64) -> Vec<f64> {
    let mut link = cfg.build_link(rep);
    let mut queue = TxQueue::saturated(cfg.preset.host_fill_rate_bps, 1 << 17);
    let mut meter = ThroughputMeter::one_second();

    let mut sim: Simulation<NextTxop> = Simulation::new();
    sim.schedule_at(SimTime::ZERO, NextTxop);
    let horizon = SimTime::ZERO + cfg.duration;
    // The channel never sees less motion than the platform's own airborne
    // speed: airplanes shuttle/circle even while "at distance d", so the
    // preset's relative speed is a floor under the profile's closing speed.
    let floor_v = cfg.preset.fading.relative_speed_mps;
    sim.run_until(horizon, |ctx, NextTxop| {
        let now = ctx.now();
        let d = profile.distance_at(now);
        let v = profile.speed_at(now).max(floor_v);
        let out = link.execute_txop(now, d, v, &mut queue);
        if out.delivered_bytes > 0 {
            meter.record(now + out.airtime, out.delivered_bytes);
        }
        ctx.schedule_in(out.airtime, NextTxop);
    });
    meter.finish(horizon);
    meter.samples_mbps().to_vec()
}

/// Pool the samples of `reps` replications.
///
/// Replications run on the deterministic thread pool
/// ([`par_map_indexed`]): each replication's RNG substreams are derived
/// from `(cfg.seed, rep)` alone and results are concatenated in
/// replication order, so the pooled sample vector is bit-identical at
/// any thread count.
pub fn measure_throughput_replicated(
    cfg: &CampaignConfig,
    profile: MotionProfile,
    reps: u64,
) -> Vec<f64> {
    let per_rep = par_map_indexed(reps as usize, |rep| {
        measure_throughput(cfg, profile, rep as u64)
    });
    let mut all = Vec::with_capacity(per_rep.iter().map(Vec::len).sum());
    for samples in per_rep {
        all.extend(samples);
    }
    all
}

/// Throughput-vs-distance campaign: for each distance, pool `reps`
/// hover replications and return `(distance, samples)` rows. This is the
/// raw material of the paper's Figures 5 and 7 boxplots.
///
/// The `|distances| × reps` grid is flattened into one task pool
/// ([`par_map_indexed`]) so a handful of distances with many
/// replications each still load-balances across every worker. The pool
/// runs replication-major: every distance of one replication reads that
/// replication's fading stream, and readers that run together share its
/// normals (see `skyferry_sim::rng::NormalStream`).
/// Determinism is unaffected: every `(distance, replication)` pair
/// derives its RNG substreams from the campaign seed alone and rows are
/// reassembled in distance order, so the result is bit-identical to a
/// sequential run at any thread count.
pub fn throughput_vs_distance(
    cfg: &CampaignConfig,
    distances_m: &[f64],
    reps: u64,
) -> Vec<(f64, Vec<f64>)> {
    let n = distances_m.len();
    let per_rep = par_map_indexed(n * reps as usize, |k| {
        measure_throughput(
            cfg,
            MotionProfile::hover(distances_m[k % n]),
            (k / n) as u64,
        )
    });
    let mut rows = Vec::with_capacity(n);
    for (i, &d) in distances_m.iter().enumerate() {
        let mut samples = Vec::new();
        for rep_samples in per_rep.iter().skip(i).step_by(n) {
            samples.extend_from_slice(rep_samples);
        }
        rows.push((d, samples));
    }
    rows
}

/// Outcome of a finite batch transfer run.
#[derive(Debug, Clone)]
pub struct TransferOutcome {
    /// The cumulative delivery curve (time axis starts when the strategy
    /// starts *moving*, i.e. shipping time is included).
    pub record: TransferRecord,
    /// When the last byte arrived; `None` if the horizon cut it off.
    pub completion: Option<SimTime>,
}

/// Run a finite transfer of `mdata_bytes` along `profile`.
///
/// With `hold_fire_until_settled`, transmission starts only once the
/// profile reaches its final distance — the paper's "move and transmit
/// only after reaching the new position" strategy. Otherwise the sender
/// transmits from t = 0 ("transmit immediately" / "move and transmit").
pub fn run_transfer(
    cfg: &CampaignConfig,
    profile: MotionProfile,
    mdata_bytes: u64,
    hold_fire_until_settled: bool,
    label: impl Into<String>,
    rep: u64,
) -> TransferOutcome {
    let mut link = cfg.build_link(rep);
    let mut queue = TxQueue::finite(mdata_bytes, cfg.preset.host_fill_rate_bps, 1 << 17);
    let mut record = TransferRecord::new(label);
    let mut completion = None;

    let start = if hold_fire_until_settled {
        profile.settling_time()
    } else {
        SimTime::ZERO
    };
    let horizon = SimTime::ZERO + cfg.duration;

    let floor_v = cfg.preset.fading.relative_speed_mps;
    let mut sim: Simulation<NextTxop> = Simulation::new();
    sim.schedule_at(start, NextTxop);
    sim.run_until(horizon, |ctx, NextTxop| {
        let now = ctx.now();
        let d = profile.distance_at(now);
        let v = profile.speed_at(now).max(floor_v);
        let out = link.execute_txop(now, d, v, &mut queue);
        if out.delivered_bytes > 0 {
            record.deliver(now + out.airtime, out.delivered_bytes as u64);
        }
        if record.total_bytes() >= mdata_bytes {
            completion = Some(now + out.airtime);
            ctx.stop();
        } else {
            ctx.schedule_in(out.airtime, NextTxop);
        }
    });
    TransferOutcome { record, completion }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyferry_stats::quantile::median;
    use skyferry_units::MetersPerSec;

    fn quad_cfg(controller: ControllerKind, secs: i64) -> CampaignConfig {
        CampaignConfig {
            preset: ChannelPreset::quadrocopter(MetersPerSec::new(0.0)),
            controller,
            duration: SimDuration::from_secs(secs),
            seed: 0xC0FFEE,
        }
    }

    #[test]
    fn hover_samples_have_expected_count() {
        let cfg = quad_cfg(ControllerKind::Fixed(Mcs::new(1)), 5);
        let s = measure_throughput(&cfg, MotionProfile::hover(40.0), 0);
        assert_eq!(s.len(), 5);
        assert!(s.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn replication_pools_samples() {
        let cfg = quad_cfg(ControllerKind::Fixed(Mcs::new(1)), 3);
        let s = measure_throughput_replicated(&cfg, MotionProfile::hover(40.0), 4);
        assert_eq!(s.len(), 12);
    }

    #[test]
    fn replications_differ_but_are_reproducible() {
        let cfg = quad_cfg(ControllerKind::MinstrelHt, 3);
        let a0 = measure_throughput(&cfg, MotionProfile::hover(60.0), 0);
        let a1 = measure_throughput(&cfg, MotionProfile::hover(60.0), 1);
        let b0 = measure_throughput(&cfg, MotionProfile::hover(60.0), 0);
        assert_eq!(a0, b0, "same seed+rep must reproduce");
        assert_ne!(a0, a1, "different reps must differ");
    }

    #[test]
    fn parallel_campaign_matches_sequential() {
        let cfg = quad_cfg(ControllerKind::Arf, 4);
        let distances = [20.0, 40.0, 60.0, 80.0];
        let parallel = throughput_vs_distance(&cfg, &distances, 2);
        let sequential: Vec<(f64, Vec<f64>)> = distances
            .iter()
            .map(|&d| {
                (
                    d,
                    measure_throughput_replicated(&cfg, MotionProfile::hover(d), 2),
                )
            })
            .collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn stable_key_tracks_every_campaign_parameter() {
        let base = quad_cfg(ControllerKind::Arf, 5);
        assert_eq!(
            base.stable_key(),
            quad_cfg(ControllerKind::Arf, 5).stable_key()
        );
        assert_ne!(
            base.stable_key(),
            quad_cfg(ControllerKind::Arf, 6).stable_key()
        );
        assert_ne!(
            base.stable_key(),
            quad_cfg(ControllerKind::MinstrelHt, 5).stable_key()
        );
        assert_ne!(
            base.stable_key(),
            quad_cfg(ControllerKind::Fixed(Mcs::new(1)), 5).stable_key()
        );
        assert_ne!(
            quad_cfg(ControllerKind::Fixed(Mcs::new(1)), 5).stable_key(),
            quad_cfg(ControllerKind::Fixed(Mcs::new(2)), 5).stable_key()
        );
        let mut other_seed = base;
        other_seed.seed ^= 1;
        assert_ne!(base.stable_key(), other_seed.stable_key());
        let mut other_preset = base;
        other_preset.preset = ChannelPreset::airplane(MetersPerSec::new(20.0));
        assert_ne!(base.stable_key(), other_preset.stable_key());
    }

    #[test]
    fn throughput_declines_with_distance() {
        let cfg = quad_cfg(ControllerKind::Arf, 8);
        let rows = throughput_vs_distance(&cfg, &[20.0, 80.0], 3);
        let near = median(&rows[0].1).unwrap();
        let far = median(&rows[1].1).unwrap();
        assert!(near > far, "near={near} far={far}");
    }

    #[test]
    fn transfer_completes_and_conserves() {
        let cfg = quad_cfg(ControllerKind::Fixed(Mcs::new(1)), 120);
        let out = run_transfer(
            &cfg,
            MotionProfile::hover(40.0),
            2_000_000,
            false,
            "d=40",
            0,
        );
        assert_eq!(out.record.total_bytes(), 2_000_000);
        assert!(out.completion.is_some());
    }

    #[test]
    fn hold_fire_delays_first_delivery() {
        let cfg = quad_cfg(ControllerKind::Fixed(Mcs::new(1)), 120);
        let profile = MotionProfile::approach(80.0, 4.5, 40.0);
        let held = run_transfer(&cfg, profile, 1_000_000, true, "held", 0);
        let eager = run_transfer(&cfg, profile, 1_000_000, false, "eager", 0);
        let first_held = held.record.points()[1].0;
        let first_eager = eager.record.points()[1].0;
        assert!(first_held >= profile.settling_time());
        assert!(first_eager < first_held);
    }

    #[test]
    fn horizon_cuts_incomplete_transfer() {
        let cfg = quad_cfg(ControllerKind::Fixed(Mcs::new(0)), 1);
        let out = run_transfer(
            &cfg,
            MotionProfile::hover(90.0),
            500_000_000,
            false,
            "big",
            0,
        );
        assert!(out.completion.is_none());
        assert!(out.record.total_bytes() < 500_000_000);
    }
}
