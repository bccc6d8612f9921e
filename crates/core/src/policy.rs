//! Compiled decision policy: a dense, versioned, checksummed table of
//! Eq. (2) optima over the quantized request grid.
//!
//! The paper's contribution is a *decision function* — transmit now or
//! ferry closer, as a function of `(platform, d0, Mdata, ρ, v)` — and in
//! production that function should cost an array index, not an optimizer
//! run. This module compiles the function: a [`PolicyGrid`] names every
//! bucket of the serving [`Quantizer`], [`PolicyTable::build`] sweeps the
//! grid through the exact optimizer on `sim::parallel` workers, and the
//! result serialises to a self-verifying binary artifact that `skyferryd
//! --policy` can load once and serve lock-free.
//!
//! # Bit-identity with the quantized cache
//!
//! The grid axes and the [`Quantizer`]'s `snap` share one quantization
//! rule, `request::bucket_of` and `request::bucket_centre`: bucket `k` of
//! an axis has the centre `snap` gives every value in bucket `k`, so the
//! parameters solved at build time are bitwise equal to the parameters a
//! quantized-cache server would solve at request time. A table lookup
//! therefore returns the *identical* `OptimalTransfer` — not an
//! approximation of it — for every in-range request.
//!
//! # Artifact format (version 1)
//!
//! Little-endian throughout, all raw byte codec confined to the private
//! `codec` submodule (enforced by the `raw-endian-bytes` lint rule):
//!
//! ```text
//! offset  size  field
//!      0     8  magic "SKYFPOL1"
//!      8     4  version  (u32, currently 1)
//!     12     4  flags    (u32, reserved, 0)
//!     16     8  build seed (u64)
//!     24    96  four axes × (step f64, lo_idx i64, n u64)
//!    120     8  cell count (u64) = 2 × n_d0 × n_mdata × n_rho × n_speed
//!    128   40c  cells: c × (d_opt, utility, survival, ship_s, tx_s) f64
//!  128+40c    8  FNV-1a-64 checksum over all preceding bytes
//! ```
//!
//! Decoding validates magic, version, checksum, the file size the cell
//! count implies, and header consistency — in that order — before
//! trusting any length field, so corrupted or version-mismatched tables
//! are rejected with a typed [`PolicyError`] and never a panic or an
//! over-allocation.
//!
//! [`PolicyGrid`]: crate::policy::PolicyGrid
//! [`Quantizer`]: crate::request::Quantizer
//! [`PolicyTable::build`]: crate::policy::PolicyTable::build
//! [`PolicyError`]: crate::policy::PolicyError

use crate::optimizer::OptimalTransfer;
use crate::request::{bucket_centre, bucket_of, DecisionParams, Platform, Quantizer, D_MIN_M};
use crate::scenario::BYTES_PER_MB;
use skyferry_sim::parallel::par_map_indexed;
use skyferry_trace as trace;

/// Artifact magic bytes: "SKYFPOL1".
pub const MAGIC: [u8; 8] = *b"SKYFPOL1";
/// Current artifact format version.
pub const FORMAT_VERSION: u32 = 1;
/// Header length in bytes (everything before the cell payload).
pub const HEADER_LEN: usize = 128;
/// Bytes per cell: five `f64` fields of [`OptimalTransfer`].
pub const CELL_LEN: usize = 40;
/// Refuse to build or load tables above this many cells (~640 MB),
/// a guard against a corrupted header demanding an absurd allocation.
pub const MAX_CELLS: usize = 16 << 20;

/// Why a policy artifact could not be built, decoded or written.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyError {
    /// Filesystem failure (message carries the `std::io::Error` text).
    Io(String),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The file is shorter than its header or declared payload.
    Truncated {
        /// Bytes required by the header.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The trailing checksum does not match the file contents.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed over the contents.
        computed: u64,
    },
    /// A header field is out of its valid domain.
    BadHeader(String),
    /// The declared cell count disagrees with the axes' product.
    WrongCellCount {
        /// Product of the axis sizes (times two platforms).
        expected: u64,
        /// Count declared in the header.
        declared: u64,
    },
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyError::Io(msg) => write!(f, "policy i/o error: {msg}"),
            PolicyError::BadMagic => write!(f, "not a skyferry policy table (bad magic)"),
            PolicyError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported policy format version {found} (expected {FORMAT_VERSION})"
                )
            }
            PolicyError::Truncated { needed, got } => {
                write!(f, "policy table truncated: need {needed} bytes, got {got}")
            }
            PolicyError::ChecksumMismatch { stored, computed } => write!(
                f,
                "policy table checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            PolicyError::BadHeader(msg) => write!(f, "bad policy header: {msg}"),
            PolicyError::WrongCellCount { expected, declared } => write!(
                f,
                "policy cell count mismatch: axes imply {expected}, header declares {declared}"
            ),
        }
    }
}

impl std::error::Error for PolicyError {}

/// One quantized axis of the policy grid: the contiguous bucket indices
/// `lo_idx .. lo_idx + n` of a [`Quantizer`] dimension with width `step`.
///
/// Bucket `lo_idx + i` is centred where the quantizer's snap puts every
/// value in it — both go through `request::bucket_centre` — which is
/// what makes table lookups bit-equal to snapped-parameter solves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Axis {
    /// Bucket width in the dimension's wire unit (m, MB, /m, m/s).
    pub step: f64,
    /// Index of the lowest bucket (`round(lo_value / step)`).
    pub lo_idx: i64,
    /// Number of buckets covered.
    pub n: u32,
}

impl Axis {
    /// Axis covering the buckets whose centres span `[lo_value,
    /// hi_value]` at width `step` (both endpoints snapped to the grid).
    pub fn from_range(step: f64, lo_value: f64, hi_value: f64) -> Axis {
        let lo_idx = bucket_of(lo_value, step) as i64;
        let hi_idx = bucket_of(hi_value, step) as i64;
        let n = (hi_idx - lo_idx).max(0) as u32 + 1;
        Axis { step, lo_idx, n }
    }

    /// Bucket index of `x` on this axis, or `None` when `x` is not
    /// finite or its bucket lies outside the covered range. Uses the
    /// quantizer's own rounding, so an axis and a [`Quantizer`] dimension
    /// with equal steps agree on every boundary value.
    pub fn index_of(&self, x: f64) -> Option<usize> {
        if !x.is_finite() {
            return None;
        }
        let k = bucket_of(x, self.step);
        if !k.is_finite() || k < self.lo_idx as f64 || k > (self.lo_idx + self.n as i64 - 1) as f64
        {
            return None;
        }
        Some((k as i64 - self.lo_idx) as usize)
    }

    /// Centre value of local bucket `i`: `(lo_idx + i) as f64 * step`.
    pub fn value_at(&self, i: usize) -> f64 {
        bucket_centre((self.lo_idx + i as i64) as f64, self.step)
    }

    /// Centre value of the lowest bucket.
    pub fn lo_value(&self) -> f64 {
        self.value_at(0)
    }

    /// Centre value of the highest bucket.
    pub fn hi_value(&self) -> f64 {
        self.value_at(self.n as usize - 1)
    }

    /// Continuous coordinate of `x` in local bucket units, clamped to
    /// the axis (`0.0 ..= n-1`); the interpolation abscissa.
    pub fn coord(&self, x: f64) -> f64 {
        let t = x / self.step - self.lo_idx as f64;
        t.clamp(0.0, (self.n - 1) as f64)
    }
}

/// The full quantized request grid: one [`Axis`] per parameter, crossed
/// with the two platforms. Axis values are in *wire units* (`d0` m,
/// `Mdata` MB, ρ /m, `v` m/s), matching both the protocol fields and the
/// [`Quantizer`] steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyGrid {
    /// Separation `d0` axis, metres.
    pub d0: Axis,
    /// Payload `Mdata` axis, MB.
    pub mdata: Axis,
    /// Failure rate ρ axis, 1/m.
    pub rho: Axis,
    /// Speed `v` axis, m/s.
    pub speed: Axis,
}

/// Number of platforms crossed with the parameter axes.
const NUM_PLATFORMS: usize = 2;
/// Cells solved per `sim::parallel` task by [`PolicyTable::build`].
const BUILD_RUN: usize = 64;

impl PolicyGrid {
    /// Validate and assemble a grid. Every axis step must be finite and
    /// positive, the total cell count must stay under [`MAX_CELLS`], and
    /// every cell must pass
    /// [`ScenarioView::check`](crate::scenario::ScenarioView::check), so
    /// the table's bucket centres are queries the solver can answer.
    ///
    /// `check`'s grid clause depends on `d0` alone and its other clauses
    /// are monotone in each axis, so checking every `d0` bucket at each
    /// platform's lowest and highest corner of the other three axes
    /// covers every cell.
    pub fn new(d0: Axis, mdata: Axis, rho: Axis, speed: Axis) -> Result<PolicyGrid, PolicyError> {
        for (name, a) in [("d0", d0), ("mdata", mdata), ("rho", rho), ("speed", speed)] {
            if !a.step.is_finite() || a.step <= 0.0 {
                return Err(PolicyError::BadHeader(format!(
                    "{name} axis step must be finite and > 0 (got {})",
                    a.step
                )));
            }
            if a.n == 0 {
                return Err(PolicyError::BadHeader(format!(
                    "{name} axis has no buckets"
                )));
            }
        }
        let cells = [
            d0.n as usize,
            mdata.n as usize,
            rho.n as usize,
            speed.n as usize,
        ]
        .iter()
        .try_fold(NUM_PLATFORMS, |acc, &n| acc.checked_mul(n))
        .filter(|&c| c <= MAX_CELLS);
        if cells.is_none() {
            return Err(PolicyError::BadHeader(format!(
                "grid too large: exceeds {MAX_CELLS} cells"
            )));
        }
        let grid = PolicyGrid {
            d0,
            mdata,
            rho,
            speed,
        };
        let top = |a: Axis| a.n as usize - 1;
        let corners = [[0, 0, 0], [top(mdata), top(rho), top(speed)]];
        for platform in [Platform::Airplane, Platform::Quadrocopter] {
            for i_d in 0..d0.n as usize {
                for [i_m, i_r, i_s] in corners {
                    let cell = grid.flat(platform, [i_d, i_m, i_r, i_s]);
                    if let Err(e) = grid.params_at(cell).view().check() {
                        return Err(PolicyError::BadHeader(format!(
                            "cell {cell} is outside the request domain: {e}"
                        )));
                    }
                }
            }
        }
        Ok(grid)
    }

    /// The production grid over the serving quantizer's default buckets
    /// ([`Quantizer::default_buckets`]): `d0` 20–300 m / 5 m, `Mdata`
    /// 1–60 MB / 1 MB, ρ 0–5e-4 /m / 5e-5, `v` 0.5–12 m/s / 0.5 —
    /// covering the loadgen mix and both Section 4 baselines with room
    /// to spare. 1.8 M cells, ~72 MB on disk.
    pub fn full() -> PolicyGrid {
        PolicyGrid {
            d0: Axis::from_range(5.0, 20.0, 300.0),
            mdata: Axis::from_range(1.0, 1.0, 60.0),
            rho: Axis::from_range(5e-5, 0.0, 5e-4),
            speed: Axis::from_range(0.5, 0.5, 12.0),
        }
    }

    /// A coarse grid for CI and tests: same parameter ranges as
    /// [`PolicyGrid::full`] at 4–8× wider buckets. 7.6 k cells, ~300 KB,
    /// builds in under a second on one core.
    pub fn quick() -> PolicyGrid {
        PolicyGrid {
            d0: Axis::from_range(20.0, 20.0, 300.0),
            mdata: Axis::from_range(8.0, 8.0, 56.0),
            rho: Axis::from_range(1e-4, 0.0, 5e-4),
            speed: Axis::from_range(2.0, 2.0, 12.0),
        }
    }

    /// The quantizer whose buckets this grid's axes reproduce.
    pub fn quantizer(&self) -> Quantizer {
        Quantizer {
            d0_step_m: Some(self.d0.step),
            mdata_step_mb: Some(self.mdata.step),
            rho_step_per_m: Some(self.rho.step),
            speed_step_mps: Some(self.speed.step),
        }
    }

    /// Total cell count: two platforms × the four axes.
    pub fn cells(&self) -> usize {
        NUM_PLATFORMS
            * self.d0.n as usize
            * self.mdata.n as usize
            * self.rho.n as usize
            * self.speed.n as usize
    }

    /// Flat cell index of validated params, or `None` when any
    /// dimension's bucket falls outside the grid (the serving fallback
    /// trigger). Layout is row-major `(platform, d0, mdata, rho,
    /// speed)`.
    pub fn cell_of(&self, p: &DecisionParams) -> Option<usize> {
        Some(self.flat(
            p.platform,
            [
                self.d0.index_of(p.d0_m)?,
                self.mdata.index_of(p.mdata_bytes / BYTES_PER_MB)?,
                self.rho.index_of(p.rho_per_m)?,
                self.speed.index_of(p.v_mps)?,
            ],
        ))
    }

    /// Row-major flat index of per-axis local bucket indices
    /// `[d0, mdata, rho, speed]` on `platform`'s half of the grid.
    fn flat(&self, platform: Platform, [i_d, i_m, i_r, i_s]: [usize; 4]) -> usize {
        (((platform.index() * self.d0.n as usize + i_d) * self.mdata.n as usize + i_m)
            * self.rho.n as usize
            + i_r)
            * self.speed.n as usize
            + i_s
    }

    /// The bucket-centre parameters of flat cell index `cell` — the
    /// exact values the quantizer's snap would produce for any request
    /// in the cell.
    pub fn params_at(&self, cell: usize) -> DecisionParams {
        let (platform, [d0, m, r, s]) = self.request_of(cell);
        DecisionParams {
            platform,
            d0_m: d0,
            // `m * BYTES_PER_MB` is the identical expression snap uses
            // (`mdata_mb * BYTES_PER_MB`), preserving bit-equality.
            mdata_bytes: m * BYTES_PER_MB,
            rho_per_m: r,
            v_mps: s,
        }
    }

    /// The wire-format request values of flat cell index `cell`:
    /// `(platform, [d0_m, mdata_mb, rho_per_m, v_mps])`. Rendering these
    /// (shortest-round-trip) and re-parsing yields parameters bit-equal
    /// to [`PolicyGrid::params_at`], which is what lets the load
    /// generator emit grid-aligned workloads.
    pub fn request_of(&self, cell: usize) -> (Platform, [f64; 4]) {
        let n_s = self.speed.n as usize;
        let n_r = self.rho.n as usize;
        let n_m = self.mdata.n as usize;
        let n_d = self.d0.n as usize;
        let i_s = cell % n_s;
        let rest = cell / n_s;
        let i_r = rest % n_r;
        let rest = rest / n_r;
        let i_m = rest % n_m;
        let rest = rest / n_m;
        let i_d = rest % n_d;
        let plat = rest / n_d;
        let platform = if plat == 0 {
            Platform::Airplane
        } else {
            Platform::Quadrocopter
        };
        (
            platform,
            [
                self.d0.value_at(i_d),
                self.mdata.value_at(i_m),
                self.rho.value_at(i_r),
                self.speed.value_at(i_s),
            ],
        )
    }
}

/// A compiled policy table: the grid, the build seed, and one solved
/// [`OptimalTransfer`] per cell.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyTable {
    /// The grid the cells were solved over.
    pub grid: PolicyGrid,
    /// Seed recorded at build time (stamped into the artifact so a
    /// verifier can reproduce the sweep).
    pub seed: u64,
    cells: Vec<OptimalTransfer>,
}

impl PolicyTable {
    /// Sweep every cell of `grid` through the exact optimizer on
    /// `sim::parallel` workers. Deterministic: the optimizer is a pure
    /// function of the cell parameters, so the table bytes are identical
    /// at any worker count.
    pub fn build(grid: PolicyGrid, seed: u64) -> PolicyTable {
        let n = grid.cells();
        let _span = trace::span!("policy-build", cells = n, seed = seed);
        // One task per run of cells: each task fills one small vector, so
        // no worker buffers a table-sized share that grows by doubling
        // (a ~3 µs solve lets one worker race far ahead of the other).
        let runs = par_map_indexed(n.div_ceil(BUILD_RUN), |r| {
            (r * BUILD_RUN..n.min((r + 1) * BUILD_RUN))
                .map(|i| grid.params_at(i).solve())
                .collect::<Vec<_>>()
        });
        PolicyTable {
            grid,
            seed,
            cells: runs.concat(),
        }
    }

    /// Assemble a table from already-solved cells (the decode path and
    /// tests). Fails when the cell count disagrees with the grid.
    pub fn from_cells(
        grid: PolicyGrid,
        seed: u64,
        cells: Vec<OptimalTransfer>,
    ) -> Result<PolicyTable, PolicyError> {
        if cells.len() != grid.cells() {
            return Err(PolicyError::WrongCellCount {
                expected: grid.cells() as u64,
                declared: cells.len() as u64,
            });
        }
        Ok(PolicyTable { grid, seed, cells })
    }

    /// The solved optimum of flat cell index `cell`.
    pub fn value(&self, cell: usize) -> &OptimalTransfer {
        &self.cells[cell]
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when the table holds no cells (never, for a valid grid).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// O(1) lookup: the table value of the request's cell, or `None`
    /// out of range. The returned optimum is bitwise identical to
    /// `grid.params_at(cell).solve()` — the compiled equivalent of the
    /// quantized-cache serving path.
    // lint:allow-line(test-only-pub): the cell oracle of tests/policy_roundtrip.rs::bucket_edge_requests_resolve_to_quantizer_buckets
    pub fn lookup(&self, p: &DecisionParams) -> Option<&OptimalTransfer> {
        self.grid.cell_of(p).map(|c| &self.cells[c])
    }

    /// Multilinear interpolation over the 16 surrounding cell centres
    /// (4 axes × 2 corners), or `None` when the request is out of range.
    /// The result's `d_opt` is clamped to the request's feasible
    /// interval `[d_min, d0]`; interpolated utilities stay within the
    /// quantizer's established loss bound (asserted by `repro
    /// --verify-policy`).
    pub fn interpolate(&self, p: &DecisionParams) -> Option<OptimalTransfer> {
        // Same in-range criterion as `lookup`, so the serving fallback
        // behaves identically in both modes.
        self.grid.cell_of(p)?;
        let g = &self.grid;
        // Per-axis: floor index, ceil index and fractional weight.
        let leg = |a: &Axis, x: f64| -> (usize, usize, f64) {
            let t = a.coord(x);
            let i0 = t.floor() as usize;
            let i1 = (i0 + 1).min(a.n as usize - 1);
            (i0, i1, t - i0 as f64)
        };
        let (d0a, d0b, fd) = leg(&g.d0, p.d0_m);
        let (ma, mb, fm) = leg(&g.mdata, p.mdata_bytes / BYTES_PER_MB);
        let (ra, rb, fr) = leg(&g.rho, p.rho_per_m);
        let (sa, sb, fs) = leg(&g.speed, p.v_mps);
        let mut acc = [0.0f64; 5];
        for (i_d, wd) in [(d0a, 1.0 - fd), (d0b, fd)] {
            for (i_m, wm) in [(ma, 1.0 - fm), (mb, fm)] {
                for (i_r, wr) in [(ra, 1.0 - fr), (rb, fr)] {
                    for (i_s, ws) in [(sa, 1.0 - fs), (sb, fs)] {
                        let w = wd * wm * wr * ws;
                        if w == 0.0 {
                            continue;
                        }
                        let c = &self.cells[g.flat(p.platform, [i_d, i_m, i_r, i_s])];
                        acc[0] += w * c.d_opt;
                        acc[1] += w * c.utility;
                        acc[2] += w * c.survival;
                        acc[3] += w * c.ship_s;
                        acc[4] += w * c.tx_s;
                    }
                }
            }
        }
        Some(OptimalTransfer {
            d_opt: acc[0].clamp(D_MIN_M, p.d0_m.max(D_MIN_M)),
            utility: acc[1],
            survival: acc[2],
            ship_s: acc[3].max(0.0),
            tx_s: acc[4].max(0.0),
        })
    }

    /// Serialise to the version-1 artifact bytes (header, cells,
    /// trailing FNV-1a checksum).
    pub fn to_bytes(&self) -> Vec<u8> {
        codec::encode(self)
    }

    /// Decode artifact bytes, validating magic, version, checksum and
    /// header consistency before trusting any length.
    pub fn from_bytes(bytes: &[u8]) -> Result<PolicyTable, PolicyError> {
        codec::decode(bytes)
    }

    /// Write the artifact to `path`.
    pub fn write_file(&self, path: &std::path::Path) -> Result<(), PolicyError> {
        std::fs::write(path, self.to_bytes()).map_err(|e| PolicyError::Io(e.to_string()))
    }

    /// Load and validate an artifact from `path`.
    pub fn load_file(path: &std::path::Path) -> Result<PolicyTable, PolicyError> {
        let bytes = std::fs::read(path).map_err(|e| PolicyError::Io(e.to_string()))?;
        Self::from_bytes(&bytes)
    }

    /// Human-readable manifest: format, grid, seed, size and checksum —
    /// written alongside the artifact by `repro --compile-policy`.
    pub fn manifest(&self) -> String {
        let bytes = self.to_bytes();
        let checksum = codec::fnv1a(&bytes[..bytes.len() - 8]);
        let axis = |name: &str, a: &Axis, unit: &str| {
            format!(
                "{name:8} {lo} ..= {hi} {unit} step {step} ({n} buckets)\n",
                lo = a.lo_value(),
                hi = a.hi_value(),
                step = a.step,
                n = a.n,
            )
        };
        let mut s = String::new();
        s.push_str(&format!(
            "skyferry compiled policy, format version {FORMAT_VERSION}\n"
        ));
        s.push_str(&format!("seed     {:#018x}\n", self.seed));
        s.push_str(&format!(
            "cells    {} ({} platforms)\n",
            self.len(),
            NUM_PLATFORMS
        ));
        s.push_str(&format!("bytes    {}\n", bytes.len()));
        s.push_str(&format!("checksum {checksum:#018x} (fnv1a-64)\n"));
        s.push_str(&axis("d0", &self.grid.d0, "m"));
        s.push_str(&axis("mdata", &self.grid.mdata, "MB"));
        s.push_str(&axis("rho", &self.grid.rho, "/m"));
        s.push_str(&axis("speed", &self.grid.speed, "m/s"));
        s
    }
}

/// The one sanctioned home of raw little-endian (de)serialisation for
/// the policy artifact (see the `raw-endian-bytes` lint rule).
mod codec {
    use super::*;

    /// FNV-1a 64-bit offset basis.
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    /// FNV-1a 64-bit prime.
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    /// FNV-1a-64 over `bytes` — tiny, dependency-free, and plenty to
    /// catch bit rot and truncation in a build artifact.
    pub(super) fn fnv1a(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(FNV_OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
    }

    fn put_f64(out: &mut Vec<u8>, x: f64) {
        out.extend_from_slice(&x.to_le_bytes());
    }

    fn put_u64(out: &mut Vec<u8>, x: u64) {
        out.extend_from_slice(&x.to_le_bytes());
    }

    struct Reader<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        fn take(&mut self, n: usize) -> Result<&'a [u8], PolicyError> {
            if self.pos + n > self.bytes.len() {
                return Err(PolicyError::Truncated {
                    needed: self.pos + n,
                    got: self.bytes.len(),
                });
            }
            let s = &self.bytes[self.pos..self.pos + n];
            self.pos += n;
            Ok(s)
        }

        fn u32(&mut self) -> Result<u32, PolicyError> {
            let b = self.take(4)?;
            Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        }

        fn u64(&mut self) -> Result<u64, PolicyError> {
            let b = self.take(8)?;
            Ok(u64::from_le_bytes([
                b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
            ]))
        }

        fn i64(&mut self) -> Result<i64, PolicyError> {
            Ok(self.u64()? as i64)
        }

        fn f64(&mut self) -> Result<f64, PolicyError> {
            Ok(f64::from_bits(self.u64()?))
        }
    }

    pub(super) fn encode(t: &PolicyTable) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + t.len() * CELL_LEN + 8);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // flags, reserved
        put_u64(&mut out, t.seed);
        for a in [&t.grid.d0, &t.grid.mdata, &t.grid.rho, &t.grid.speed] {
            put_f64(&mut out, a.step);
            put_u64(&mut out, a.lo_idx as u64);
            put_u64(&mut out, a.n as u64);
        }
        put_u64(&mut out, t.len() as u64);
        debug_assert_eq!(out.len(), HEADER_LEN);
        for c in &t.cells {
            put_f64(&mut out, c.d_opt);
            put_f64(&mut out, c.utility);
            put_f64(&mut out, c.survival);
            put_f64(&mut out, c.ship_s);
            put_f64(&mut out, c.tx_s);
        }
        let checksum = fnv1a(&out);
        put_u64(&mut out, checksum);
        out
    }

    pub(super) fn decode(bytes: &[u8]) -> Result<PolicyTable, PolicyError> {
        if bytes.len() < HEADER_LEN + 8 {
            return Err(PolicyError::Truncated {
                needed: HEADER_LEN + 8,
                got: bytes.len(),
            });
        }
        if bytes[..8] != MAGIC {
            return Err(PolicyError::BadMagic);
        }
        let mut r = Reader { bytes, pos: 8 };
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(PolicyError::UnsupportedVersion { found: version });
        }
        // Checksum before trusting any length or count field.
        let body = &bytes[..bytes.len() - 8];
        let stored = u64::from_le_bytes(
            bytes[bytes.len() - 8..]
                .try_into()
                .expect("slice is exactly 8 bytes"),
        );
        let computed = fnv1a(body);
        if stored != computed {
            return Err(PolicyError::ChecksumMismatch { stored, computed });
        }
        let _flags = r.u32()?;
        let seed = r.u64()?;
        let mut axes = [Axis {
            step: 0.0,
            lo_idx: 0,
            n: 0,
        }; 4];
        for a in &mut axes {
            let step = r.f64()?;
            let lo_idx = r.i64()?;
            let n = r.u64()?;
            if n > u32::MAX as u64 {
                return Err(PolicyError::BadHeader(format!(
                    "axis bucket count {n} out of range"
                )));
            }
            *a = Axis {
                step,
                lo_idx,
                n: n as u32,
            };
        }
        let declared = r.u64()?;
        // Match the file's size before `PolicyGrid::new`, whose domain
        // check costs time in proportion to the declared `d0` buckets.
        let needed = usize::try_from(declared)
            .ok()
            .and_then(|c| c.checked_mul(CELL_LEN))
            .and_then(|c| c.checked_add(HEADER_LEN + 8));
        if needed != Some(bytes.len()) {
            return Err(PolicyError::Truncated {
                needed: needed.unwrap_or(usize::MAX),
                got: bytes.len(),
            });
        }
        let grid = PolicyGrid::new(axes[0], axes[1], axes[2], axes[3])?;
        let expected = grid.cells() as u64;
        if declared != expected {
            return Err(PolicyError::WrongCellCount { expected, declared });
        }
        let mut cells = Vec::with_capacity(declared as usize);
        for _ in 0..declared {
            cells.push(OptimalTransfer {
                d_opt: r.f64()?,
                utility: r.f64()?,
                survival: r.f64()?,
                ship_s: r.f64()?,
                tx_s: r.f64()?,
            });
        }
        PolicyTable::from_cells(grid, seed, cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> PolicyGrid {
        PolicyGrid::new(
            Axis::from_range(20.0, 20.0, 100.0), // 5 buckets
            Axis::from_range(10.0, 10.0, 30.0),  // 3
            Axis::from_range(1e-4, 0.0, 2e-4),   // 3
            Axis::from_range(2.0, 2.0, 6.0),     // 3
        )
        .expect("valid grid")
    }

    #[test]
    fn axis_indexing_round_trips_and_bounds() {
        let a = Axis::from_range(5.0, 20.0, 300.0);
        assert_eq!(a.lo_idx, 4);
        assert_eq!(a.n, 57);
        assert_eq!(a.lo_value(), 20.0);
        assert_eq!(a.hi_value(), 300.0);
        for i in 0..a.n as usize {
            assert_eq!(a.index_of(a.value_at(i)), Some(i), "centre of bucket {i}");
        }
        assert_eq!(a.index_of(17.0), None, "below range");
        assert_eq!(a.index_of(303.0), None, "above range");
        assert_eq!(a.index_of(f64::NAN), None);
        assert_eq!(a.index_of(f64::INFINITY), None);
    }

    #[test]
    fn axis_agrees_with_quantizer_on_bucket_edges() {
        // Values exactly on a bucket boundary must land in the bucket
        // whose centre the Quantizer's snap() picks.
        let a = Axis::from_range(5.0, 20.0, 300.0);
        let q = Quantizer::default_buckets();
        for x in [22.5, 27.5, 97.5, 102.5, 297.5] {
            let mut p = DecisionParams::baseline(Platform::Airplane);
            p.d0_m = x;
            let centre = a.value_at(a.index_of(x).expect("in range"));
            assert_eq!(
                centre.to_bits(),
                q.snap(&p).d0_m.to_bits(),
                "boundary value {x}"
            );
        }
    }

    #[test]
    fn grid_cell_round_trips_and_snap_parity() {
        let g = tiny_grid();
        let q = g.quantizer();
        for cell in 0..g.cells() {
            let p = g.params_at(cell);
            assert_eq!(g.cell_of(&p), Some(cell), "cell {cell} round trip");
            // Cell-centre params are fixed points of the quantizer.
            let snapped = q.snap(&p);
            assert_eq!(snapped.d0_m.to_bits(), p.d0_m.to_bits());
            assert_eq!(snapped.mdata_bytes.to_bits(), p.mdata_bytes.to_bits());
            assert_eq!(snapped.rho_per_m.to_bits(), p.rho_per_m.to_bits());
            assert_eq!(snapped.v_mps.to_bits(), p.v_mps.to_bits());
        }
    }

    #[test]
    fn snapped_requests_hit_the_same_cell_as_raw() {
        let g = tiny_grid();
        let q = g.quantizer();
        let p = DecisionParams {
            platform: Platform::Quadrocopter,
            d0_m: 58.0, // → bucket 60
            mdata_bytes: 22.4e6,
            rho_per_m: 1.4e-4,
            v_mps: 4.9,
        };
        let snapped = q.snap(&p);
        assert_eq!(g.cell_of(&p), g.cell_of(&snapped));
        let cell = g.cell_of(&p).expect("in range");
        let centre = g.params_at(cell);
        assert_eq!(centre.d0_m.to_bits(), snapped.d0_m.to_bits());
        assert_eq!(centre.mdata_bytes.to_bits(), snapped.mdata_bytes.to_bits());
    }

    #[test]
    fn out_of_range_requests_have_no_cell() {
        let g = tiny_grid();
        let mut p = DecisionParams::baseline(Platform::Quadrocopter);
        p.d0_m = 1000.0;
        assert_eq!(g.cell_of(&p), None);
        p = DecisionParams::baseline(Platform::Quadrocopter);
        p.rho_per_m = 0.9;
        assert_eq!(g.cell_of(&p), None);
    }

    #[test]
    fn build_matches_exact_solves_bitwise() {
        let g = tiny_grid();
        let t = PolicyTable::build(g, 42);
        assert_eq!(t.len(), g.cells());
        for cell in [0, 7, g.cells() / 2, g.cells() - 1] {
            let exact = g.params_at(cell).solve();
            assert_eq!(*t.value(cell), exact, "cell {cell}");
        }
        // Lookup of a non-centre request returns the centre's solve.
        let mut p = g.params_at(17);
        p.d0_m += 3.0; // stays in the 20 m bucket
        let looked = t.lookup(&p).expect("in range");
        assert_eq!(*looked, g.params_at(17).solve());
    }

    #[test]
    fn serialization_round_trips_bitwise() {
        let t = PolicyTable::build(tiny_grid(), 0x5AFE);
        let bytes = t.to_bytes();
        assert_eq!(bytes.len(), HEADER_LEN + t.len() * CELL_LEN + 8);
        let back = PolicyTable::from_bytes(&bytes).expect("round trip");
        assert_eq!(back, t);
        assert_eq!(back.seed, 0x5AFE);
        for cell in 0..t.len() {
            assert_eq!(back.value(cell), t.value(cell));
        }
    }

    #[test]
    fn corrupted_and_mismatched_tables_are_rejected() {
        let t = PolicyTable::build(tiny_grid(), 1);
        let good = t.to_bytes();

        let mut bad = good.clone();
        bad[HEADER_LEN + 3] ^= 0x40; // flip a payload bit
        assert!(matches!(
            PolicyTable::from_bytes(&bad),
            Err(PolicyError::ChecksumMismatch { .. })
        ));

        let mut wrong_magic = good.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            PolicyTable::from_bytes(&wrong_magic),
            Err(PolicyError::BadMagic)
        ));

        // Bump the version and fix the checksum up: still rejected,
        // and *before* the checksum check.
        let mut future = good.clone();
        future[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            PolicyTable::from_bytes(&future),
            Err(PolicyError::UnsupportedVersion { found: 99 })
        ));

        // Mid-payload truncation: the trailing 8 bytes now read cell
        // data, so the checksum catches it before any length check.
        let truncated = &good[..good.len() - 20];
        assert!(matches!(
            PolicyTable::from_bytes(truncated),
            Err(PolicyError::ChecksumMismatch { .. })
        ));

        assert!(matches!(
            PolicyTable::from_bytes(&good[..40]),
            Err(PolicyError::Truncated { .. })
        ));

        // A checksum-valid header whose grid `PolicyGrid::new` refuses, with
        // no cells behind it: the size check comes first, so a crafted
        // header never reaches the grid's per-bucket domain check.
        let mut crafted = good[..HEADER_LEN].to_vec();
        crafted[40..48].copy_from_slice(&8_000_000u64.to_le_bytes());
        let cells = 2 * 8_000_000 * 3 * 3 * 3u64;
        crafted[120..128].copy_from_slice(&cells.to_le_bytes());
        let checksum = codec::fnv1a(&crafted);
        crafted.extend_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            PolicyTable::from_bytes(&crafted),
            Err(PolicyError::Truncated { .. })
        ));
    }

    #[test]
    fn invalid_grids_are_rejected_with_typed_errors() {
        let bad_step = Axis {
            step: 0.0,
            lo_idx: 1,
            n: 3,
        };
        let ok = Axis::from_range(2.0, 2.0, 6.0);
        assert!(matches!(
            PolicyGrid::new(bad_step, ok, ok, ok),
            Err(PolicyError::BadHeader(_))
        ));
        // d0 below the safety bubble.
        let low_d0 = Axis::from_range(5.0, 5.0, 50.0);
        assert!(matches!(
            PolicyGrid::new(low_d0, ok, ok, ok),
            Err(PolicyError::BadHeader(_))
        ));
        // d0 buckets past the solver's grid: 1e305 m overflows it.
        let far_d0 = Axis {
            step: 1e304,
            lo_idx: 1,
            n: 10,
        };
        assert!(matches!(
            PolicyGrid::new(far_d0, ok, ok, ok),
            Err(PolicyError::BadHeader(_))
        ));
        // Both end d0 buckets solve, but the middle one, 27416548.192768097
        // m, overshoots the solver's grid.
        let mid_d0 = Axis {
            step: 13708274.096384048,
            lo_idx: 1,
            n: 3,
        };
        assert!(matches!(
            PolicyGrid::new(mid_d0, ok, ok, ok),
            Err(PolicyError::BadHeader(_))
        ));
        // Oversized grid.
        let huge = Axis {
            step: 1.0,
            lo_idx: 1,
            n: 10_000,
        };
        assert!(matches!(
            PolicyGrid::new(
                Axis::from_range(5.0, 20.0, 300.0),
                huge,
                Axis {
                    step: 1.0,
                    lo_idx: 0,
                    n: 10_000
                },
                huge
            ),
            Err(PolicyError::BadHeader(_))
        ));
    }

    #[test]
    fn interpolation_matches_lookup_at_cell_centres() {
        let g = tiny_grid();
        let t = PolicyTable::build(g, 7);
        for cell in [0, 5, g.cells() - 1] {
            let p = g.params_at(cell);
            let li = t.lookup(&p).expect("in range");
            let ip = t.interpolate(&p).expect("in range");
            assert_eq!(ip.d_opt.to_bits(), li.d_opt.to_bits(), "cell {cell}");
            assert_eq!(ip.utility.to_bits(), li.utility.to_bits());
        }
        // Out of range → None in both modes.
        let mut p = g.params_at(0);
        p.d0_m = 1e5;
        assert!(t.lookup(&p).is_none());
        assert!(t.interpolate(&p).is_none());
    }

    #[test]
    fn interpolated_dopt_stays_feasible() {
        let g = tiny_grid();
        let t = PolicyTable::build(g, 7);
        let mut p = g.params_at(4);
        p.d0_m = 21.0; // near the bubble edge, within bucket 20
        let ip = t.interpolate(&p).expect("in range");
        assert!(ip.d_opt >= D_MIN_M);
        assert!(ip.d_opt <= p.d0_m.max(D_MIN_M) + 1e-12);
    }

    #[test]
    fn quick_and_full_grids_are_valid_and_quantizer_aligned() {
        for g in [PolicyGrid::quick(), PolicyGrid::full()] {
            let v = PolicyGrid::new(g.d0, g.mdata, g.rho, g.speed).expect("valid");
            assert_eq!(v, g);
            assert!(g.cells() > 0);
        }
        // The full grid reproduces the default serving buckets.
        let q = PolicyGrid::full().quantizer();
        assert_eq!(q, Quantizer::default_buckets());
        // Both baselines are in range of the full grid.
        for plat in [Platform::Airplane, Platform::Quadrocopter] {
            let q = Quantizer::default_buckets();
            let p = q.snap(&DecisionParams::baseline(plat));
            assert!(
                PolicyGrid::full().cell_of(&p).is_some(),
                "{plat:?} baseline in range"
            );
        }
    }

    #[test]
    fn manifest_names_the_format_and_grid() {
        let t = PolicyTable::build(tiny_grid(), 3);
        let m = t.manifest();
        assert!(m.contains("format version 1"));
        assert!(m.contains("cells"));
        assert!(m.contains("fnv1a-64"));
        assert!(m.contains("d0"));
    }
}
