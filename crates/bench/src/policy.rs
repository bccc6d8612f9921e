//! Offline compilation and verification of the serving policy table.
//!
//! `repro --compile-policy FILE` sweeps the full quantized decision grid
//! ([`PolicyGrid::full`], or [`PolicyGrid::quick`] with `--quick`)
//! through the exact Eq. (2) optimizer on the deterministic worker pool
//! and writes the versioned, checksummed artifact `skyferryd --policy`
//! serves, plus a human-readable `.manifest.txt` next to it.
//!
//! `repro --verify-policy FILE` is the independent auditor: it reloads
//! the artifact (exercising magic/version/checksum validation), re-solves
//! a seed-stable sample of cells with the exact optimizer and demands
//! *bitwise* agreement — the table claims to be the compiled identity of
//! the optimizer, so any drift, however small, is a failure — and then
//! probes multilinear interpolation at jittered off-centre points,
//! requiring the relative utility loss against the exact solve to stay
//! under [`INTERP_LOSS_BOUND`].

use std::path::{Path, PathBuf};

use skyferry_core::policy::{PolicyError, PolicyGrid, PolicyTable};
use skyferry_core::request::DecisionParams;
use skyferry_core::scenario::BYTES_PER_MB;
use skyferry_sim::rng::SeedStream;
use skyferry_trace::clock::monotonic_ns;

/// Exact-solve sample size for tables larger than this many cells
/// (smaller tables are verified exhaustively).
pub const VERIFY_SAMPLE: usize = 2048;

/// Off-centre interpolation probes per verification run.
pub const INTERP_PROBES: usize = 256;

/// Maximum allowed relative utility loss of an interpolated decision
/// against the exact solve at the same (off-centre) parameters. Sized to
/// the coarse [`PolicyGrid::quick`] CI grid (20 m d0 buckets, where the
/// worst probes lose ~17%); the production [`PolicyGrid::full`] grid's
/// 4–8× finer buckets come in far under it.
pub const INTERP_LOSS_BOUND: f64 = 0.25;

/// What `--compile-policy` produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileSummary {
    /// Cells solved.
    pub cells: usize,
    /// Artifact size in bytes (header + cells + checksum).
    pub bytes: usize,
    /// Build + write wall-clock, seconds.
    pub wall_s: f64,
    /// Where the manifest landed.
    pub manifest_path: PathBuf,
}

/// Why `--verify-policy` rejected a table.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyVerifyError {
    /// The artifact failed to load (the typed decode error).
    Load(PolicyError),
    /// A sampled cell's stored optimum differs from the exact solve.
    CellMismatch {
        /// Flat cell index that disagreed.
        cell: usize,
        /// Which `OptimalTransfer` field differed.
        field: &'static str,
        /// Exact-optimizer value.
        expected: f64,
        /// Value stored in the table.
        got: f64,
    },
    /// An interpolation probe lost more utility than the bound allows.
    InterpLoss {
        /// Cell whose neighbourhood was probed.
        cell: usize,
        /// Observed relative utility loss.
        loss: f64,
        /// The bound it violated ([`INTERP_LOSS_BOUND`]).
        bound: f64,
    },
}

impl std::fmt::Display for PolicyVerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyVerifyError::Load(e) => write!(f, "cannot load policy table: {e}"),
            PolicyVerifyError::CellMismatch {
                cell,
                field,
                expected,
                got,
            } => write!(
                f,
                "cell {cell}: {field} disagrees with the exact optimizer \
                 (exact {expected:?}, table {got:?})"
            ),
            PolicyVerifyError::InterpLoss { cell, loss, bound } => write!(
                f,
                "interpolation near cell {cell} loses {loss:.4} relative \
                 utility (bound {bound})"
            ),
        }
    }
}

impl std::error::Error for PolicyVerifyError {}

/// What `--verify-policy` measured on a table that passed.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifySummary {
    /// Cells in the table.
    pub cells: usize,
    /// Cells re-solved exactly (all of them for small tables).
    pub sampled: usize,
    /// Off-centre interpolation probes evaluated.
    pub interp_probes: usize,
    /// Worst relative utility loss observed across the probes.
    pub max_interp_loss: f64,
}

/// Build the policy table over the quick or full grid and write the
/// artifact plus its manifest (`<out stem>.manifest.txt`).
pub fn compile_policy(out: &Path, quick: bool, seed: u64) -> Result<CompileSummary, PolicyError> {
    let grid = if quick {
        PolicyGrid::quick()
    } else {
        PolicyGrid::full()
    };
    let t0 = monotonic_ns();
    let table = PolicyTable::build(grid, seed);
    // Encoded once, for the file, the manifest and the summary.
    let bytes = table.to_bytes();
    let io = |e: std::io::Error| PolicyError::Io(e.to_string());
    std::fs::write(out, &bytes).map_err(io)?;
    let manifest_path = out.with_extension("manifest.txt");
    std::fs::write(&manifest_path, table.manifest(&bytes)).map_err(io)?;
    Ok(CompileSummary {
        cells: table.len(),
        bytes: bytes.len(),
        wall_s: monotonic_ns().saturating_sub(t0) as f64 / 1e9,
        manifest_path,
    })
}

/// Jitter one cell-centre parameter set off-centre: each axis moves by a
/// uniform fraction of (just under) half a bucket, clamped to the grid,
/// so the point stays inside the same bucket and in range.
fn jitter_params(
    grid: &PolicyGrid,
    cell: usize,
    rng: &mut skyferry_sim::rng::DetRng,
) -> DecisionParams {
    let (platform, [d0, m, r, s]) = grid.request_of(cell);
    let wiggle = |rng: &mut skyferry_sim::rng::DetRng, x: f64, a: &skyferry_core::policy::Axis| {
        (x + rng.uniform_range(-0.49, 0.49) * a.step).clamp(a.lo_value(), a.hi_value())
    };
    DecisionParams {
        platform,
        d0_m: wiggle(rng, d0, &grid.d0),
        mdata_bytes: wiggle(rng, m, &grid.mdata) * BYTES_PER_MB,
        rho_per_m: wiggle(rng, r, &grid.rho).max(0.0),
        v_mps: wiggle(rng, s, &grid.speed),
    }
}

/// Load `path` and audit it: exact bitwise agreement on a seed-stable
/// cell sample, then interpolation loss on off-centre probes.
pub fn verify_policy(path: &Path) -> Result<VerifySummary, PolicyVerifyError> {
    let table = PolicyTable::load_file(path).map_err(PolicyVerifyError::Load)?;
    let grid = table.grid;
    let cells = table.len();
    let stream = SeedStream::new(table.seed);

    let sample: Vec<usize> = if cells <= VERIFY_SAMPLE {
        (0..cells).collect()
    } else {
        let mut rng = stream.rng("policy-verify-cells");
        (0..VERIFY_SAMPLE).map(|_| rng.index(cells)).collect()
    };
    for &cell in &sample {
        let exact = grid.params_at(cell).solve();
        let got = table.value(cell);
        for (field, e, g) in [
            ("d_opt", exact.d_opt, got.d_opt),
            ("utility", exact.utility, got.utility),
            ("survival", exact.survival, got.survival),
            ("ship_s", exact.ship_s, got.ship_s),
            ("tx_s", exact.tx_s, got.tx_s),
        ] {
            if e.to_bits() != g.to_bits() {
                return Err(PolicyVerifyError::CellMismatch {
                    cell,
                    field,
                    expected: e,
                    got: g,
                });
            }
        }
    }

    let mut rng = stream.rng("policy-verify-interp");
    let mut max_interp_loss = 0.0f64;
    for _ in 0..INTERP_PROBES {
        let cell = rng.index(cells);
        let p = jitter_params(&grid, cell, &mut rng);
        let interp = match table.interpolate(&p) {
            Some(i) => i,
            // Clamping keeps probes in range; a `None` here would mean
            // the grid disagrees with itself, which the cell sample
            // above would already have caught.
            None => continue,
        };
        let exact = p.solve();
        let loss = (exact.utility - interp.utility).abs() / exact.utility.max(f64::MIN_POSITIVE);
        max_interp_loss = max_interp_loss.max(loss);
        if loss > INTERP_LOSS_BOUND {
            return Err(PolicyVerifyError::InterpLoss {
                cell,
                loss,
                bound: INTERP_LOSS_BOUND,
            });
        }
    }

    Ok(VerifySummary {
        cells,
        sampled: sample.len(),
        interp_probes: INTERP_PROBES,
        max_interp_loss,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyferry_core::policy::Axis;

    #[test]
    fn compile_then_verify_round_trips() {
        let dir = std::env::temp_dir().join("skyferry-policy-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let out = dir.join("quick.bin");
        let summary = compile_policy(&out, true, 0x5AFE).expect("compile");
        assert_eq!(summary.cells, PolicyGrid::quick().cells());
        assert!(summary.bytes > 128);
        assert!(summary.manifest_path.exists());
        let manifest = std::fs::read_to_string(&summary.manifest_path).expect("manifest");
        assert!(manifest.contains("format version 1"));

        let v = verify_policy(&out).expect("table is its own optimizer");
        assert_eq!(v.cells, summary.cells);
        assert_eq!(v.sampled, VERIFY_SAMPLE.min(v.cells));
        assert_eq!(v.interp_probes, INTERP_PROBES);
        assert!(v.max_interp_loss <= INTERP_LOSS_BOUND);
        std::fs::remove_file(&out).ok();
        std::fs::remove_file(&summary.manifest_path).ok();
    }

    #[test]
    fn verify_rejects_a_doctored_cell() {
        let dir = std::env::temp_dir().join("skyferry-policy-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let out = dir.join("doctored.bin");
        // 270 cells, under VERIFY_SAMPLE, so every cell (including the
        // doctored one) is re-solved.
        let grid = PolicyGrid::new(
            Axis::from_range(20.0, 20.0, 100.0),
            Axis::from_range(10.0, 10.0, 30.0),
            Axis::from_range(1e-4, 0.0, 2e-4),
            Axis::from_range(2.0, 2.0, 6.0),
        )
        .expect("valid grid");
        let table = PolicyTable::build(grid, 7);
        // Re-encode with one cell's utility nudged: checksum is honest,
        // so decode succeeds — only the exact re-solve can catch it.
        let mut cells: Vec<_> = (0..table.len()).map(|i| *table.value(i)).collect();
        cells[42].utility += 1e-9;
        let doctored = PolicyTable::from_cells(grid, 7, cells).expect("same grid");
        std::fs::write(&out, doctored.to_bytes()).expect("write");
        match verify_policy(&out) {
            Err(PolicyVerifyError::CellMismatch {
                cell: 42, field, ..
            }) => {
                assert_eq!(field, "utility");
            }
            other => panic!("doctored cell must be caught, got {other:?}"),
        }
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn verify_surfaces_decode_errors() {
        let dir = std::env::temp_dir().join("skyferry-policy-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let out = dir.join("garbage.bin");
        std::fs::write(&out, b"not a policy table at all").expect("write");
        assert!(matches!(
            verify_policy(&out),
            Err(PolicyVerifyError::Load(_))
        ));
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn jitter_stays_in_range_and_deterministic() {
        let grid = PolicyGrid::quick();
        let stream = SeedStream::new(9);
        let mut a = stream.rng("jitter");
        let mut b = stream.rng("jitter");
        for _ in 0..200 {
            let cell = a.index(grid.cells());
            let cell_b = b.index(grid.cells());
            assert_eq!(cell, cell_b);
            let p = jitter_params(&grid, cell, &mut a);
            let q = jitter_params(&grid, cell_b, &mut b);
            assert_eq!(p.d0_m.to_bits(), q.d0_m.to_bits(), "deterministic");
            assert!(grid.cell_of(&p).is_some(), "jittered probe stays on-grid");
        }
    }
}
