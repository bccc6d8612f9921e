//! `policy-build`: `PolicyTable::build` over a fixed-size grid, build
//! after build — the Eq. (2) solver on `sim::parallel` with no
//! simulation and no network.

use skyferry_core::policy::{Axis, PolicyGrid, PolicyTable};
use skyferry_sim::parallel::set_max_threads;
use skyferry_sim::rng::SeedStream;
use skyferry_trace as trace;
use skyferry_trace::clock::monotonic_ns;
use skyferry_trace::summary::{summarize, Summary};

use crate::layer::{pool_and_solver, traced};
use crate::metrics::{median, metric, p99_or_max, since_s};
use crate::repro::WORKERS;
use crate::{Outcome, Workload};

/// Cells per build re-solved through `params_at(i).solve()`.
const CHECKED_CELLS: usize = 256;

/// Bucket counts per axis (d0, Mdata, ρ, v): 2 × 29 × 15 × 10 × 6 =
/// 52,200 cells, about 1.3 s per build on two workers.
const FULL_AXES: [u32; 4] = [29, 15, 10, 6];
/// The `--smoke` grid: 2 × 6 × 4 × 3 × 3 = 432 cells.
const SMOKE_AXES: [u32; 4] = [6, 4, 3, 3];

/// The workload's state between builds.
pub struct PolicyBuild {
    seed: u64,
    axes: [u32; 4],
    builds: u64,
}

/// One timed build and its gate.
struct Build {
    cells: usize,
    build_s: f64,
    failed: bool,
    encode_ms: f64,
    decode_ms: f64,
}

/// The grid of build `build`: d0 from 20 m in 10 m buckets, Mdata from
/// 4 MB in 4 MB, ρ from 5e-5 /m in 5e-5, v from 2 m/s in 2 m/s — with
/// every step stretched by a seed- and build-derived factor in
/// [1, 1 + 1/64), which moves every bucket centre by less than one step,
/// so no cell of one build is solved again by the next.
pub fn grid(seed: u64, build: u64, axes: [u32; 4]) -> PolicyGrid {
    let f = 1.0
        + SeedStream::new(seed)
            .rng_indexed("policy-offset", build)
            .uniform()
            / 64.0;
    let [d0, mdata, rho, speed] = axes;
    PolicyGrid::new(
        Axis {
            step: 10.0 * f,
            lo_idx: 2,
            n: d0,
        },
        Axis {
            step: 4.0 * f,
            lo_idx: 1,
            n: mdata,
        },
        Axis {
            step: 5e-5 * f,
            lo_idx: 1,
            n: rho,
        },
        Axis {
            step: 2.0 * f,
            lo_idx: 1,
            n: speed,
        },
    )
    .expect("benchmark grid satisfies the request domain")
}

/// Set up: one untimed build of the quick grid.
pub fn setup(seed: u64, smoke: bool) -> PolicyBuild {
    set_max_threads(WORKERS);
    std::hint::black_box(PolicyTable::build(PolicyGrid::quick(), seed));
    PolicyBuild {
        seed,
        axes: if smoke { SMOKE_AXES } else { FULL_AXES },
        builds: 0,
    }
}

impl PolicyBuild {
    fn build(&mut self) -> (PolicyTable, f64) {
        let g = grid(self.seed, self.builds, self.axes);
        self.builds += 1;
        let _span = trace::span!("bench-build", cells = g.cells());
        let t = monotonic_ns();
        let table = PolicyTable::build(g, self.seed);
        (table, since_s(t))
    }

    /// [`CHECKED_CELLS`] seeded cells re-solved bit-equal, plus a
    /// `to_bytes`/`from_bytes` round trip.
    fn gate(&self, table: &PolicyTable, build_s: f64) -> Build {
        let mut rng = SeedStream::new(self.seed).rng_indexed("policy-check", self.builds);
        let mut failed = false;
        for _ in 0..CHECKED_CELLS {
            let cell = rng.index(table.len());
            let exact = table.grid.params_at(cell).solve();
            let got = table.value(cell);
            let bits = |o: &skyferry_core::optimizer::OptimalTransfer| {
                [o.d_opt, o.utility, o.survival, o.ship_s, o.tx_s].map(f64::to_bits)
            };
            if bits(&exact) != bits(got) {
                eprintln!("policy-build: cell {cell} differs from its exact solve");
                failed = true;
            }
        }
        let t = monotonic_ns();
        let bytes = table.to_bytes();
        let encode_ms = since_s(t) * 1e3;
        let t = monotonic_ns();
        let back = PolicyTable::from_bytes(&bytes);
        let decode_ms = since_s(t) * 1e3;
        if back.as_ref() != Ok(table) {
            eprintln!("policy-build: the table does not survive to_bytes/from_bytes");
            failed = true;
        }
        Build {
            cells: table.len(),
            build_s,
            failed,
            encode_ms,
            decode_ms,
        }
    }

    /// Builds until `secs` have elapsed (at least one); `traced` records
    /// each build's spans and returns their summaries.
    fn builds(&mut self, secs: f64, traced_builds: bool) -> (Vec<Build>, Vec<Summary>) {
        let t0 = monotonic_ns();
        let mut out = Vec::new();
        let mut summaries = Vec::new();
        while out.is_empty() || since_s(t0) < secs {
            let (table, build_s) = if traced_builds {
                let (built, records) = traced(trace::TraceConfig::default(), || self.build());
                summaries.push(summarize(&records));
                built
            } else {
                self.build()
            };
            out.push(self.gate(&table, build_s));
        }
        (out, summaries)
    }
}

fn failures(builds: &[Build]) -> u64 {
    builds.iter().filter(|b| b.failed).count() as u64
}

impl Workload for PolicyBuild {
    fn end_to_end(&mut self, secs: f64) -> Result<Outcome, String> {
        let (builds, _) = self.builds(secs, false);
        let n = builds.len();
        let rates: Vec<f64> = builds.iter().map(|b| b.cells as f64 / b.build_s).collect();
        Ok(Outcome {
            attempted: n as u64,
            failed: failures(&builds),
            metrics: vec![metric("ops_per_s", median(&rates), "1/s", n)],
        })
    }

    fn per_layer(&mut self, secs: f64) -> Result<Outcome, String> {
        let (plain, _) = self.builds(secs / 2.0, false);
        let (builds, stats) = self.builds(secs / 2.0, true);
        let n = builds.len();
        let of = |f: &dyn Fn(&Build) -> f64| median(&builds.iter().map(f).collect::<Vec<_>>());
        let wall = of(&|b| b.build_s);
        let plain_walls: Vec<f64> = plain.iter().map(|b| b.build_s).collect();
        let plain_wall = median(&plain_walls);
        let mut metrics = pool_and_solver(&stats, wall, WORKERS);
        metrics.extend([
            metric("p50_us", plain_wall * 1e6, "us", plain.len()),
            metric("p99_us", p99_or_max(&plain_walls) * 1e6, "us", plain.len()),
            metric("core.policy.build_s", wall, "s", n),
            metric("core.policy.encode_ms", of(&|b| b.encode_ms), "ms", n),
            metric("core.policy.decode_ms", of(&|b| b.decode_ms), "ms", n),
            metric("trace.overhead", wall / plain_wall, "ratio", n),
        ]);
        Ok(Outcome {
            attempted: (plain.len() + n) as u64,
            failed: failures(&plain) + failures(&builds),
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_are_seeded_and_never_repeat_a_cell() {
        let a = grid(11, 0, FULL_AXES);
        assert_eq!(a.cells(), 52_200);
        assert_eq!(a, grid(11, 0, FULL_AXES), "same seed, same grid");
        assert_ne!(a, grid(12, 0, FULL_AXES), "other seed, other grid");
        let b = grid(11, 1, FULL_AXES);
        assert_ne!(a, b, "the next build moves");
        for g in [a, b] {
            // Every bucket centre moved by less than one step from the
            // unstretched grid's.
            for (axis, step) in [(g.d0, 10.0), (g.mdata, 4.0), (g.rho, 5e-5), (g.speed, 2.0)] {
                let drift = axis.hi_value() - (axis.lo_idx + axis.n as i64 - 1) as f64 * step;
                assert!(drift >= 0.0 && drift < step, "drift {drift} of step {step}");
            }
        }
        for cell in [0, 777, a.cells() - 1] {
            assert_ne!(a.params_at(cell), b.params_at(cell), "cell {cell} repeats");
        }
    }
}
