//! Shared campaign results across experiments.
//!
//! Several experiments re-derive the same iperf campaigns: `fig6`'s
//! auto-rate column is the same airplane campaign as `fig5`, `fits`
//! re-runs the `fig5` and `fig7` sweeps to fit them, and the `fig7` speed
//! sweep revisits the hover campaign at 60 m. The [`CampaignStore`] is a
//! deterministic memo that makes each such cell execute exactly once per
//! `repro` invocation.
//!
//! A *cell* is the pooled per-second throughput samples of `reps` hover
//! replications of one campaign at one distance — exactly what
//! [`measure_throughput_replicated`] returns for a hover profile. The memo
//! key is `(campaign id, campaign stable key, distance, reps, quick)`;
//! the campaign id is derived from the config (preset name + controller
//! label), never caller-supplied, so two experiments that request the
//! same physics always share. Missing cells of a batch are filled through
//! one flattened parallel grid, and every replication's RNG substreams
//! are derived from `(campaign seed, rep)` alone, so a memoized cell is
//! bit-identical to a direct [`measure_throughput_replicated`] call at
//! any thread count and any insertion order.
//!
//! The grid runs replication-major, as
//! [`throughput_vs_distance`] does: cells of one seed read the same
//! fading stream per replication, so when a replication's cells run
//! together their fading processes compute its normals once (see
//! [`NormalStream`]).
//!
//! [`measure_throughput_replicated`]: skyferry_net::campaign::measure_throughput_replicated
//! [`throughput_vs_distance`]: skyferry_net::campaign::throughput_vs_distance
//! [`NormalStream`]: skyferry_sim::rng::NormalStream

use std::collections::BTreeMap;

use skyferry_mac::link::LinkWork;
use skyferry_net::campaign::{measure_throughput, CampaignConfig, CampaignKey};
use skyferry_net::profile::MotionProfile;
use skyferry_sim::parallel::par_map_indexed;
use skyferry_stats::json::Json;
use skyferry_trace as trace;
use skyferry_trace::clock::monotonic_ns;

/// The derived, human-readable id of a campaign: preset name plus
/// rate-control label, e.g. `airplane/autorate` or `quadrocopter/mcs1`.
pub fn campaign_id(cfg: &CampaignConfig) -> String {
    format!("{}/{}", cfg.preset.name, cfg.controller.label())
}

/// Memo key of one iperf cell.
type CellKey = (String, CampaignKey, u64, u64, bool);

/// One memoized cell plus the wall-clock its fill cost (for the
/// "time saved" report on later hits).
#[derive(Debug, Clone)]
struct Cell {
    samples: Vec<f64>,
    cost_s: f64,
}

/// Deterministic memo of campaign results shared by all experiments in
/// one `repro` run.
#[derive(Debug)]
pub struct CampaignStore {
    quick: bool,
    cells: BTreeMap<CellKey, Cell>,
    hits: u64,
    misses: u64,
    saved_s: f64,
    fill_s: f64,
    /// Process link-work totals when the store was created.
    work_start: LinkWork,
}

impl CampaignStore {
    /// An empty store; `quick` is folded into every cell key so quick and
    /// full runs can never share results.
    pub fn new(quick: bool) -> Self {
        CampaignStore {
            quick,
            cells: BTreeMap::new(),
            hits: 0,
            misses: 0,
            saved_s: 0.0,
            fill_s: 0.0,
            work_start: LinkWork::totals(),
        }
    }

    fn key(&self, cfg: &CampaignConfig, d: f64, reps: u64) -> CellKey {
        (
            campaign_id(cfg),
            cfg.stable_key(),
            d.to_bits(),
            reps,
            self.quick,
        )
    }

    /// Ensure every `(campaign, hover distance)` cell exists, counting a
    /// hit (and crediting its recorded cost as time saved) per distinct
    /// cell already present and a miss per distinct cell filled. All
    /// misses of the batch run as one flattened, replication-major
    /// `cells × reps` parallel grid, exactly the task shape of
    /// [`skyferry_net::campaign::throughput_vs_distance`].
    pub fn ensure(&mut self, requests: &[(CampaignConfig, f64)], reps: u64) {
        let mut missing: Vec<(CampaignConfig, f64)> = Vec::new();
        let mut missing_keys: Vec<CellKey> = Vec::new();
        for (cfg, d) in requests {
            let k = self.key(cfg, *d, reps);
            if let Some(cell) = self.cells.get(&k) {
                self.hits += 1;
                self.saved_s += cell.cost_s;
                trace::event!("cell-hit", campaign = campaign_id(cfg), d_m = *d);
            } else if missing_keys.contains(&k) {
                // Requested twice in one batch: only one fill, one miss.
            } else {
                self.misses += 1;
                trace::event!("cell-miss", campaign = campaign_id(cfg), d_m = *d);
                missing_keys.push(k);
                missing.push((*cfg, *d));
            }
        }
        if missing.is_empty() {
            return;
        }
        let _span = trace::span!("store-fill", cells = missing.len(), reps = reps);
        let cells = missing.len();
        let t0 = monotonic_ns();
        // Replication-major: task k runs replication k / cells, so the
        // cells that read one replication's fading stream run together.
        let per_rep = par_map_indexed(cells * reps as usize, |k| {
            let (cfg, d) = &missing[k % cells];
            measure_throughput(cfg, MotionProfile::hover(*d), (k / cells) as u64)
        });
        let elapsed = monotonic_ns().saturating_sub(t0) as f64 / 1e9;
        self.fill_s += elapsed;
        // Attribute the batch cost evenly; cells of one batch share a
        // duration, so this is a fair per-cell estimate.
        let cost_s = elapsed / cells as f64;
        for (i, key) in missing_keys.into_iter().enumerate() {
            let mut samples = Vec::new();
            for rep_samples in per_rep.iter().skip(i).step_by(cells) {
                samples.extend_from_slice(rep_samples);
            }
            self.cells.insert(key, Cell { samples, cost_s });
        }
    }

    /// Pooled hover samples of one cell (bit-identical to
    /// `measure_throughput_replicated(cfg, MotionProfile::hover(d), reps)`).
    pub fn samples(&mut self, cfg: &CampaignConfig, d: f64, reps: u64) -> Vec<f64> {
        self.ensure(&[(*cfg, d)], reps);
        self.cells[&self.key(cfg, d, reps)].samples.clone()
    }

    /// The throughput-vs-distance sweep of Figures 5 and 7, memoized per
    /// distance cell.
    pub fn throughput_vs_distance(
        &mut self,
        cfg: &CampaignConfig,
        distances_m: &[f64],
        reps: u64,
    ) -> Vec<(f64, Vec<f64>)> {
        let requests: Vec<(CampaignConfig, f64)> = distances_m.iter().map(|&d| (*cfg, d)).collect();
        self.ensure(&requests, reps);
        distances_m
            .iter()
            .map(|&d| (d, self.cells[&self.key(cfg, d, reps)].samples.clone()))
            .collect()
    }

    /// Distinct campaign cells served from the memo.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Distinct campaign cells simulated.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Wall-clock spent filling cells, seconds.
    pub fn fill_secs(&self) -> f64 {
        self.fill_s
    }

    /// The work of every link this process dropped since the store was
    /// created: in `repro`, every experiment of the run, through the
    /// store or not. These are counts, not timings: they repeat exactly
    /// at any `--threads` setting.
    pub fn simulated(&self) -> LinkWork {
        LinkWork::totals().since(self.work_start)
    }

    /// The same footer as [`summary`](CampaignStore::summary), as a
    /// machine-readable document for `repro --json`.
    pub fn summary_json(&self) -> Json {
        let work = self.simulated();
        let count = |n: u64| Json::Int(n as i64);
        Json::obj([
            (
                "campaign_store",
                Json::obj([
                    ("hits", Json::Int(self.hits as i64)),
                    ("misses", Json::Int(self.misses as i64)),
                    ("reused_s", Json::Fixed(self.saved_s, 3)),
                    ("fill_s", Json::Fixed(self.fill_s, 3)),
                ]),
            ),
            (
                "simulation",
                Json::obj([
                    ("txops", count(work.txops)),
                    ("subframes", count(work.subframes)),
                    ("per_evals", count(work.per_evals)),
                    ("per_memo_hits", count(work.per_memo_hits)),
                    ("per_exact", count(work.per_exact)),
                    ("resamples", count(work.resamples)),
                ]),
            ),
        ])
    }

    /// Two-line stats summary for the `repro` footer: the campaign memo,
    /// then the simulated link work.
    pub fn summary(&self) -> String {
        let work = self.simulated();
        format!(
            "campaign store: {} hits / {} misses, ~{:.2} s of simulation reused \
             ({:.2} s spent filling)\n\
             simulated: {} TXOPs, {} subframes, {} fading resamples; \
             PER chain: {} evaluations, {} memo hits",
            self.hits,
            self.misses,
            self.saved_s,
            self.fill_s,
            work.txops,
            work.subframes,
            work.resamples,
            work.per_evals,
            work.per_memo_hits,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyferry_net::campaign::{measure_throughput_replicated, ControllerKind};
    use skyferry_phy::presets::ChannelPreset;
    use skyferry_sim::parallel::set_max_threads;
    use skyferry_sim::time::SimDuration;
    use skyferry_units::MetersPerSec;

    fn quad(seed: u64) -> CampaignConfig {
        CampaignConfig {
            preset: ChannelPreset::quadrocopter(MetersPerSec::new(0.0)),
            controller: ControllerKind::Arf,
            duration: SimDuration::from_secs(3),
            seed,
        }
    }

    #[test]
    fn cell_matches_direct_campaign_call() {
        let cfg = quad(7);
        let mut store = CampaignStore::new(true);
        let via_store = store.samples(&cfg, 40.0, 3);
        let direct = measure_throughput_replicated(&cfg, MotionProfile::hover(40.0), 3);
        assert_eq!(via_store, direct);
        assert_eq!((store.hits(), store.misses()), (0, 1));
    }

    #[test]
    fn second_request_hits_and_is_bit_identical() {
        let cfg = quad(7);
        let mut store = CampaignStore::new(true);
        let first = store.samples(&cfg, 40.0, 2);
        let second = store.samples(&cfg, 40.0, 2);
        assert_eq!(first, second);
        assert_eq!((store.hits(), store.misses()), (1, 1));
        assert!(store.saved_s > 0.0);
    }

    #[test]
    fn result_is_independent_of_insertion_order_and_threads() {
        let cfg = quad(11);
        let distances = [20.0, 40.0, 60.0];
        // Forward fill, 1 thread.
        set_max_threads(1);
        let mut fwd = CampaignStore::new(true);
        let a = fwd.throughput_vs_distance(&cfg, &distances, 2);
        // Reverse per-cell fill, 2 threads.
        set_max_threads(2);
        let mut rev = CampaignStore::new(true);
        for &d in distances.iter().rev() {
            rev.samples(&cfg, d, 2);
        }
        let b = rev.throughput_vs_distance(&cfg, &distances, 2);
        set_max_threads(0);
        assert_eq!(a, b);
        assert_eq!((rev.hits(), rev.misses()), (3, 3));
    }

    #[test]
    fn distinct_parameters_never_share_cells() {
        let mut store = CampaignStore::new(true);
        let a = store.samples(&quad(7), 40.0, 2);
        let b = store.samples(&quad(8), 40.0, 2);
        assert_eq!(store.misses(), 2);
        assert_eq!(store.hits(), 0);
        assert_ne!(a, b);
        // Same campaign, different reps: a different cell.
        store.samples(&quad(7), 40.0, 3);
        assert_eq!(store.misses(), 3);
    }

    #[test]
    fn quick_flag_partitions_the_memo() {
        let cfg = quad(7);
        let quick_store = CampaignStore::new(true);
        let full_store = CampaignStore::new(false);
        // Identical physics, but the two stores must key the cells apart.
        assert_ne!(
            quick_store.key(&cfg, 40.0, 2),
            full_store.key(&cfg, 40.0, 2)
        );
    }

    #[test]
    fn summary_json_reports_the_counters() {
        let cfg = quad(7);
        let mut store = CampaignStore::new(true);
        store.samples(&cfg, 40.0, 2);
        store.samples(&cfg, 40.0, 2);
        let doc = store.summary_json();
        let cells = doc.get("campaign_store").expect("campaign_store block");
        assert_eq!(cells.get("hits").and_then(Json::as_i64), Some(1));
        assert_eq!(cells.get("misses").and_then(Json::as_i64), Some(1));
        assert!(
            cells
                .get("reused_s")
                .and_then(Json::as_f64)
                .expect("reused")
                > 0.0
        );
        // The footer renders as a single line of valid JSON.
        let line = doc.render();
        assert!(!line.contains('\n'));
        assert!(skyferry_stats::json::parse(&line).is_ok());
    }
}
