//! `repro-full`: every experiment of the registry, pass after pass, each
//! pass on a fresh `CampaignStore` — what `repro --verify` does for a
//! researcher.

use std::hint::black_box;
use std::path::{Path, PathBuf};

use skyferry_bench::experiments::REGISTRY;
use skyferry_bench::report::{ExperimentReport, ReproConfig};
use skyferry_bench::store::CampaignStore;
use skyferry_bench::verify::verify_report;
use skyferry_mac::link::{LinkConfig, LinkState};
use skyferry_mac::queue::TxQueue;
use skyferry_mac::rate::FixedMcs;
use skyferry_net::campaign::{measure_throughput, CampaignConfig, ControllerKind};
use skyferry_net::profile::MotionProfile;
use skyferry_phy::channel::db_to_linear;
use skyferry_phy::error::{coded_per, effective_snr_linear};
use skyferry_phy::fading::FadingProcess;
use skyferry_phy::mcs::Mcs;
use skyferry_phy::presets::ChannelPreset;
use skyferry_sim::parallel::set_max_threads;
use skyferry_sim::rng::{DetRng, SeedStream};
use skyferry_sim::stable::KeyHasher;
use skyferry_sim::time::{SimDuration, SimTime};
use skyferry_trace as trace;
use skyferry_trace::clock::monotonic_ns;
use skyferry_trace::summary::summarize;
use skyferry_units::{Db, Meters, MetersPerSec};

use crate::layer::{per_op, pool_and_solver, traced};
use crate::metrics::{median, metric, p99_or_max, since_s, Metric};
use crate::{Outcome, Workload};

/// `sim::parallel` workers: one per vCPU of the 2-vCPU VM the baseline was
/// measured on, fixed so that a bigger machine runs the same workload.
pub const WORKERS: usize = 2;

/// Experiments reported on their own; the rest are summed as `other`.
const EXPERIMENT_METRICS: [(&str, &str); 7] = [
    ("fig5", "bench.experiment.fig5_s"),
    ("fig6", "bench.experiment.fig6_s"),
    ("fig7", "bench.experiment.fig7_s"),
    ("ablations", "bench.experiment.ablations_s"),
    ("extensions", "bench.experiment.extensions_s"),
    ("fleet", "bench.experiment.fleet_s"),
    ("traj", "bench.experiment.traj_s"),
];

/// The workload's state between passes.
pub struct ReproFull {
    cfg: ReproConfig,
    /// Golden CSVs to verify against (only at the seed they were
    /// generated with).
    goldens: Option<PathBuf>,
    /// At other seeds: the table digest every pass must reproduce.
    digest: Option<u64>,
}

/// One timed pass.
struct Pass {
    wall_s: f64,
    failed: bool,
    /// Wall time of each experiment, in registry order.
    exp_s: Vec<f64>,
    /// Per experiment: wall time minus the campaign fills it triggered.
    self_s: Vec<(&'static str, f64)>,
    fill_s: f64,
    hits: u64,
    misses: u64,
}

/// Stable digest of every table a pass regenerated.
fn digest(reports: &[ExperimentReport]) -> u64 {
    let mut h = KeyHasher::new("repro-full");
    for r in reports {
        for (name, table) in &r.tables {
            h = h.str(r.id).str(name).str(&table.render_csv());
        }
    }
    h.finish()
}

/// Set up: one untimed quick-mode pass (`repro --quick`, its gate
/// included), which runs every experiment's code once at a third of a
/// full pass's cost. The first timed pass fixes the digest the others
/// must reproduce.
pub fn setup(seed: u64, smoke: bool, root: &Path) -> Result<ReproFull, String> {
    set_max_threads(WORKERS);
    let workload = |quick: bool| -> Result<ReproFull, String> {
        let goldens = (seed == ReproConfig::default().seed)
            .then(|| root.join(if quick { "results/quick" } else { "results" }));
        if let Some(dir) = &goldens {
            if !dir.is_dir() {
                return Err(format!("golden directory {} is missing", dir.display()));
            }
        }
        Ok(ReproFull {
            cfg: ReproConfig {
                seed,
                quick,
                out_dir: None,
            },
            goldens,
            digest: None,
        })
    };
    if workload(true)?.pass().failed {
        return Err("repro-full: the warm-up pass failed its correctness gate".into());
    }
    workload(smoke)
}

impl ReproFull {
    fn pass(&mut self) -> Pass {
        let mut store = CampaignStore::new(self.cfg.quick);
        let mut reports = Vec::with_capacity(REGISTRY.len());
        let mut exp_s = Vec::with_capacity(REGISTRY.len());
        let mut self_s = Vec::with_capacity(REGISTRY.len());
        let t0 = monotonic_ns();
        for e in REGISTRY {
            let _span = trace::span!("bench-experiment", id = e.id());
            let t = monotonic_ns();
            let fill0 = store.fill_secs();
            reports.push(e.run(&self.cfg, &mut store));
            let wall = since_s(t);
            exp_s.push(wall);
            self_s.push((e.id(), wall - (store.fill_secs() - fill0)));
        }
        let wall_s = since_s(t0);
        Pass {
            wall_s,
            failed: !self.gate(&reports),
            exp_s,
            self_s,
            fill_s: store.fill_secs(),
            hits: store.hits(),
            misses: store.misses(),
        }
    }

    /// At the golden seed: zero mismatches against the goldens. At any
    /// other seed: the same table digest as the first pass.
    fn gate(&mut self, reports: &[ExperimentReport]) -> bool {
        if let Some(dir) = &self.goldens {
            let mismatches: Vec<_> = reports.iter().flat_map(|r| verify_report(r, dir)).collect();
            for m in mismatches.iter().take(5) {
                eprintln!("repro-full: golden mismatch: {m}");
            }
            return mismatches.is_empty();
        }
        let d = digest(reports);
        match self.digest {
            None => {
                let mode = if self.cfg.quick { "quick" } else { "full" };
                eprintln!(
                    "repro-full: seed {} {mode} table digest {d:#018x}",
                    self.cfg.seed
                );
                self.digest = Some(d);
                true
            }
            Some(first) => {
                if first != d {
                    eprintln!("repro-full: table digest {d:#018x} differs from {first:#018x}");
                }
                first == d
            }
        }
    }

    /// Passes until `secs` have elapsed (at least one).
    fn passes(&mut self, secs: f64) -> Vec<Pass> {
        let t0 = monotonic_ns();
        let mut out = vec![self.pass()];
        while since_s(t0) < secs {
            out.push(self.pass());
        }
        out
    }
}

/// The run's time per pass: the sum over experiments of `reduce` over
/// each one's times across the passes.
fn pass_s(passes: &[Pass], reduce: fn(&[f64]) -> f64) -> f64 {
    (0..REGISTRY.len())
        .map(|i| reduce(&passes.iter().map(|p| p.exp_s[i]).collect::<Vec<_>>()))
        .sum()
}

/// The least of `xs` (0 for an empty sample). Every pass repeats the
/// same work, and a shared host only ever slows an experiment down, so
/// its fastest time is the one least disturbed by the host.
fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

fn failures(passes: &[Pass]) -> u64 {
    passes.iter().filter(|p| p.failed).count() as u64
}

impl Workload for ReproFull {
    fn end_to_end(&mut self, secs: f64) -> Result<Outcome, String> {
        let passes = self.passes(secs);
        let (n, pass) = (passes.len(), pass_s(&passes, fastest));
        Ok(Outcome {
            attempted: n as u64,
            failed: failures(&passes),
            metrics: vec![metric("ops_per_s", 1.0 / pass, "1/s", n)],
        })
    }

    fn per_layer(&mut self, secs: f64) -> Result<Outcome, String> {
        let mut metrics = probes();
        let plain = self.passes(secs / 2.0);
        let plain_walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
        metrics.extend([
            metric("p50_us", pass_s(&plain, median) * 1e6, "us", plain.len()),
            metric("p99_us", p99_or_max(&plain_walls) * 1e6, "us", plain.len()),
        ]);
        let mut passes = Vec::new();
        let mut stats = Vec::new();
        let t0 = monotonic_ns();
        while passes.is_empty() || since_s(t0) < secs / 2.0 {
            let (pass, records) = traced(trace::TraceConfig::default(), || self.pass());
            stats.push(summarize(&records));
            passes.push(pass);
        }
        let n = passes.len();
        let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        let wall = pass_s(&passes, median);

        for (id, name) in EXPERIMENT_METRICS {
            let v = per_pass(&|p| {
                p.self_s
                    .iter()
                    .filter(|(e, _)| *e == id)
                    .map(|(_, s)| s)
                    .sum()
            });
            metrics.push(metric(name, v, "s", n));
        }
        let other = per_pass(&|p| {
            p.self_s
                .iter()
                .filter(|(e, _)| EXPERIMENT_METRICS.iter().all(|(id, _)| id != e))
                .map(|(_, s)| s)
                .sum()
        });
        metrics.push(metric("bench.experiment.other_s", other, "s", n));
        let hits = per_pass(&|p| p.hits as f64);
        let misses = per_pass(&|p| p.misses as f64);
        metrics.extend([
            metric("bench.store.fill_s", per_pass(&|p| p.fill_s), "s", n),
            metric("bench.store.hits", hits, "count", n),
            metric("bench.store.misses", misses, "count", n),
            metric(
                "bench.store.hit_ratio",
                hits / (hits + misses).max(1.0),
                "ratio",
                n,
            ),
        ]);

        // Trace-derived: medians over passes of each pass's aggregate.
        metrics.extend(pool_and_solver(&stats, wall, WORKERS));
        metrics.extend([
            metric(
                "traj.plan_s",
                per_op(&stats, "traj_plan", |s| s.total_ns as f64 / 1e9),
                "s",
                n,
            ),
            metric(
                "traj.dp_ring_us.p50",
                per_op(&stats, "traj_dp_ring", |s| s.p50_ns / 1e3),
                "us",
                n,
            ),
            metric("trace.overhead", wall / pass_s(&plain, median), "ratio", n),
        ]);
        Ok(Outcome {
            attempted: (plain.len() + n) as u64,
            failed: failures(&plain) + failures(&passes),
            metrics,
        })
    }
}

/// Median per-call time, ns, over `blocks` blocks of `iters` calls.
fn probe(blocks: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..blocks)
        .map(|_| {
            let t = monotonic_ns();
            for _ in 0..iters {
                f();
            }
            monotonic_ns().saturating_sub(t) as f64 / iters as f64
        })
        .collect();
    median(&per_call)
}

/// Unit-cost probes of the layers below `store-fill`, which carry no
/// spans: direct calls with `benches/kernels.rs`'s inputs. They are
/// labelled probes, not attributions of the pass's time.
fn probes() -> Vec<Metric> {
    const BLOCKS: usize = 7;
    let preset = ChannelPreset::airplane(MetersPerSec::new(20.0));
    let snr = db_to_linear(preset.mean_snr(Meters::new(100.0)).get());
    let mut fading = FadingProcess::new(preset.fading, DetRng::seed(1));
    let mut t = SimTime::ZERO;
    let chain_ns = probe(BLOCKS, 2000, || {
        t += SimDuration::from_micros(500);
        let state = fading.state_at(t);
        let eff = effective_snr_linear(Mcs::new(3), true, snr, &state, Db::new(12.0));
        black_box(coded_per(Mcs::new(3), eff, 1500));
    });
    let state_ns = probe(BLOCKS, 2000, || {
        t += SimDuration::from_micros(500);
        black_box(fading.state_at(t));
    });

    let seeds = SeedStream::new(5);
    let mut link = LinkState::new(
        LinkConfig::paper_default(ChannelPreset::quadrocopter(MetersPerSec::new(0.0))),
        Box::new(FixedMcs(Mcs::new(1))),
        seeds.rng("fading"),
        seeds.rng("link"),
    );
    let mut queue = TxQueue::saturated(1e9, 1 << 20);
    let mut now = SimTime::ZERO;
    let txop_ns = probe(BLOCKS, 200, || {
        let out = link.execute_txop(now, 40.0, 0.0, &mut queue);
        now += out.airtime;
        black_box(out.delivered);
    });

    let campaign = CampaignConfig {
        preset,
        controller: ControllerKind::Arf,
        duration: SimDuration::from_secs(1),
        seed: 3,
    };
    let mut rep = 0;
    let second_ns = probe(BLOCKS, 1, || {
        rep += 1;
        black_box(measure_throughput(
            &campaign,
            MotionProfile::hover(100.0),
            rep,
        ));
    });

    vec![
        metric("phy.error_chain_ns", chain_ns, "ns", BLOCKS),
        metric("phy.fading_state_ns", state_ns, "ns", BLOCKS),
        metric("mac.txop_us", txop_ns / 1e3, "us", BLOCKS),
        metric("net.sim_second_us", second_ns / 1e3, "us", BLOCKS),
    ]
}
