//! Per-request decision parameters: the serving layer's view of Eq. (2).
//!
//! The batch harness hands the optimizer whole [`Scenario`] values, but a
//! decision *server* answers thousands of small queries per second, each
//! carrying just the live numbers `(d0, Mdata, ρ, v)` plus a platform
//! selector. [`DecisionParams`] is that request shape, with three
//! properties the serving layer needs:
//!
//! * **cache-friendly** — [`DecisionParams::solve`] evaluates through a
//!   borrowed [`ScenarioView`] over the platform's `'static` throughput
//!   model, so a request allocates nothing and two requests with equal
//!   parameters are byte-equal keys;
//! * **quantizable** — [`Quantizer`] snaps parameters onto a configurable
//!   bucket grid so near-identical queries share one cached solution
//!   ([`Quantizer::exact`] turns that off for tests);
//! * **typed rejection** — [`DecisionParams::validated`] returns
//!   [`ScenarioView::check`](crate::scenario::ScenarioView::check)'s
//!   [`ParamError`](crate::scenario::ParamError) instead of panicking,
//!   because requests arrive from an untrusted socket and a malformed one
//!   must produce an error *response*, never a worker panic.
//!
//! [`Scenario`]: crate::scenario::Scenario
//! [`DecisionParams`]: crate::request::DecisionParams
//! [`DecisionParams::solve`]: crate::request::DecisionParams::solve
//! [`DecisionParams::validated`]: crate::request::DecisionParams::validated
//! [`ScenarioView`]: crate::scenario::ScenarioView
//! [`Quantizer`]: crate::request::Quantizer
//! [`Quantizer::exact`]: crate::request::Quantizer::exact

use crate::failure::{ExponentialFailure, FailureSpec};
use crate::optimizer::{optimize_view, OptimalTransfer};
use crate::scenario::{ParamError, ScenarioView, BYTES_PER_MB};
use crate::throughput::{LogFitThroughput, ThroughputSpec};

/// The two measured platforms of the paper (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Platform {
    /// Fixed-wing airplane (Section 4 baseline: `d0 = 300 m`,
    /// `v = 10 m/s`, `Mdata = 28 MB`, `ρ = 1.11e-4 /m`).
    Airplane,
    /// Quadrocopter (Section 4 baseline: `d0 = 100 m`, `v = 4.5 m/s`,
    /// `Mdata = 56.2 MB`, `ρ = 2.46e-4 /m`).
    Quadrocopter,
}

/// The airplane's fitted throughput model as plain static data.
static AIRPLANE_THROUGHPUT: ThroughputSpec = ThroughputSpec::LogFit(LogFitThroughput::AIRPLANE);
/// The quadrocopter's fitted throughput model as plain static data.
static QUADROCOPTER_THROUGHPUT: ThroughputSpec =
    ThroughputSpec::LogFit(LogFitThroughput::QUADROCOPTER);

/// Minimum separation (collision safety), metres — shared by both
/// platforms (Section 4: "20 m to avoid physical collisions").
pub const D_MIN_M: f64 = 20.0;

impl Platform {
    /// Stable lowercase identifier (`airplane` / `quadrocopter`), the
    /// value carried by the wire protocol.
    pub fn id(&self) -> &'static str {
        match self {
            Platform::Airplane => "airplane",
            Platform::Quadrocopter => "quadrocopter",
        }
    }

    /// Dense index (`0` airplane, `1` quadrocopter): the platform word of
    /// a cache key and the leading coordinate of a policy-table cell.
    pub(crate) fn index(&self) -> usize {
        match self {
            Platform::Airplane => 0,
            Platform::Quadrocopter => 1,
        }
    }

    /// Parse a platform identifier (the inverse of [`Platform::id`]).
    pub fn from_id(s: &str) -> Option<Platform> {
        match s {
            "airplane" => Some(Platform::Airplane),
            "quadrocopter" => Some(Platform::Quadrocopter),
            _ => None,
        }
    }

    /// The platform's fitted throughput model, borrowed for `'static`
    /// so request evaluation never clones a model.
    pub fn throughput(&self) -> &'static ThroughputSpec {
        match self {
            Platform::Airplane => &AIRPLANE_THROUGHPUT,
            Platform::Quadrocopter => &QUADROCOPTER_THROUGHPUT,
        }
    }

    /// The paper's Section 4 baseline parameters as request defaults:
    /// `(d0_m, mdata_bytes, rho_per_m, v_mps)`.
    pub fn baseline(&self) -> (f64, f64, f64, f64) {
        match self {
            Platform::Airplane => (300.0, 28.0 * BYTES_PER_MB, 1.11e-4, 10.0),
            Platform::Quadrocopter => (100.0, 56.2 * BYTES_PER_MB, 2.46e-4, 4.5),
        }
    }
}

/// One decision query: which platform, and the live numbers of Eq. (2).
///
/// `d0_m` is clamped to at least [`D_MIN_M`] by [`validated`]; a UAV
/// already inside the safety bubble simply transmits from where it is
/// (mirroring [`DecisionEngine::decide`]).
///
/// [`validated`]: DecisionParams::validated
/// [`DecisionEngine::decide`]: crate::decision::DecisionEngine::decide
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionParams {
    /// Platform whose throughput model applies.
    pub platform: Platform,
    /// Current separation `d0`, metres.
    pub d0_m: f64,
    /// Batch size `Mdata`, bytes.
    pub mdata_bytes: f64,
    /// Failure rate ρ, 1/m.
    pub rho_per_m: f64,
    /// Repositioning cruise speed `v`, m/s.
    pub v_mps: f64,
}

impl DecisionParams {
    /// The platform's Section 4 baseline query.
    pub fn baseline(platform: Platform) -> DecisionParams {
        let (d0_m, mdata_bytes, rho_per_m, v_mps) = platform.baseline();
        DecisionParams {
            platform,
            d0_m,
            mdata_bytes,
            rho_per_m,
            v_mps,
        }
    }

    /// Clamp a finite `d0` up to [`D_MIN_M`], then return the query or
    /// [`ScenarioView::check`]'s typed rejection. This is how untrusted
    /// input enters: [`solve`] of an accepted query cannot panic.
    /// (Clamping only a finite `d0` keeps NaN and −∞ from becoming 20 m.)
    ///
    /// [`solve`]: DecisionParams::solve
    pub fn validated(mut self) -> Result<DecisionParams, ParamError> {
        if self.d0_m.is_finite() {
            self.d0_m = self.d0_m.max(D_MIN_M);
        }
        self.view().check()?;
        Ok(self)
    }

    /// A borrowed evaluation view over the platform's static throughput
    /// model — the zero-allocation path into the optimizer.
    pub fn view(&self) -> ScenarioView<'static> {
        ScenarioView {
            d0_m: self.d0_m,
            d_min_m: D_MIN_M,
            v_mps: self.v_mps,
            mdata_bytes: self.mdata_bytes,
            throughput: self.platform.throughput(),
            // A literal, not the asserting `ExponentialFailure::new`:
            // `check` reports a bad ρ as a typed error.
            failure: FailureSpec::Exponential(ExponentialFailure {
                rho_per_m: self.rho_per_m,
            }),
        }
    }

    /// Solve Eq. (2) for this query. It panics, naming the field, when
    /// the query fails [`ScenarioView::check`]; [`validated`] is the
    /// non-panicking gate for untrusted input.
    ///
    /// [`validated`]: DecisionParams::validated
    pub fn solve(&self) -> OptimalTransfer {
        optimize_view(self.view())
    }

    /// The platform index plus the raw bits of the four fields: two
    /// queries have equal bits exactly when [`solve`] is handed
    /// bit-equal parameters.
    ///
    /// [`solve`]: DecisionParams::solve
    pub fn bits(&self) -> [u64; 5] {
        [
            self.platform.index() as u64,
            self.d0_m.to_bits(),
            self.mdata_bytes.to_bits(),
            self.rho_per_m.to_bits(),
            self.v_mps.to_bits(),
        ]
    }
}

/// The bucket of `x` at width `step`: `round(x / step)`, halves away from
/// zero. With [`bucket_centre`] this is the one quantization rule —
/// [`Quantizer::snap`] and the compiled policy grid's axes both call it.
pub(crate) fn bucket_of(x: f64, step: f64) -> f64 {
    (x / step).round()
}

/// The centre `k * step` of bucket `k` at width `step`.
pub(crate) fn bucket_centre(k: f64, step: f64) -> f64 {
    k * step
}

/// Bucket widths that map near-identical queries onto one cache key.
///
/// A quantized query is snapped to the *centre* of its bucket
/// (`round(x / step) * step`), so the cached solution is a pure function
/// of the bucket and the served `d_star` is at most half a bucket's
/// model distortion away from the exact solution. `exact()` disables
/// snapping entirely: the key is the parameter bits, and a cached
/// response is bit-identical to a fresh solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    /// Bucket width for `d0`, metres (`None` = exact).
    pub d0_step_m: Option<f64>,
    /// Bucket width for `Mdata`, MB (`None` = exact).
    pub mdata_step_mb: Option<f64>,
    /// Bucket width for ρ, 1/m (`None` = exact).
    pub rho_step_per_m: Option<f64>,
    /// Bucket width for `v`, m/s (`None` = exact).
    pub speed_step_mps: Option<f64>,
}

impl Quantizer {
    /// Exactness mode: keys are raw parameter bits, no snapping.
    pub const fn exact() -> Quantizer {
        Quantizer {
            d0_step_m: None,
            mdata_step_mb: None,
            rho_step_per_m: None,
            speed_step_mps: None,
        }
    }

    /// Default serving buckets: 5 m distance, 1 MB payload, 5e-5 /m
    /// failure rate, 0.5 m/s speed — coarse enough that a loitering
    /// UAV's jittering telemetry maps to one key, fine enough that the
    /// served `d_star` stays within a few metres of exact (see the
    /// bounded-loss tests in `skyferry-serve`).
    pub const fn default_buckets() -> Quantizer {
        Quantizer {
            d0_step_m: Some(5.0),
            mdata_step_mb: Some(1.0),
            rho_step_per_m: Some(5e-5),
            speed_step_mps: Some(0.5),
        }
    }

    /// `true` when no dimension is quantized.
    pub fn is_exact(&self) -> bool {
        self.d0_step_m.is_none()
            && self.mdata_step_mb.is_none()
            && self.rho_step_per_m.is_none()
            && self.speed_step_mps.is_none()
    }

    /// Snap validated params onto this grid: bucket centres, with the
    /// floors `d0 ≥ d_min`, `Mdata > 0`, `v > 0` and `ρ ≥ 0` re-applied.
    /// The snap can still leave the domain — a huge `v` or ρ overflows to
    /// `inf`, a huge `d0` can round past the solver's grid — so a server
    /// runs [`ScenarioView::check`] on the snapped query too.
    pub fn snap(&self, p: &DecisionParams) -> DecisionParams {
        fn snap1(x: f64, step: Option<f64>) -> f64 {
            match step {
                Some(s) if s > 0.0 => bucket_centre(bucket_of(x, s), s),
                _ => x,
            }
        }
        let mdata_mb = snap1(p.mdata_bytes / BYTES_PER_MB, self.mdata_step_mb);
        DecisionParams {
            platform: p.platform,
            d0_m: snap1(p.d0_m, self.d0_step_m).max(D_MIN_M),
            // A payload snapped to the zero bucket still must transmit
            // *something*; floor at half a bucket (or the raw value).
            mdata_bytes: if mdata_mb > 0.0 {
                mdata_mb * BYTES_PER_MB
            } else {
                p.mdata_bytes
            },
            rho_per_m: snap1(p.rho_per_m, self.rho_step_per_m).max(0.0),
            v_mps: {
                let v = snap1(p.v_mps, self.speed_step_mps);
                if v > 0.0 {
                    v
                } else {
                    p.v_mps
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::optimize;
    use crate::scenario::Scenario;

    #[test]
    fn platform_ids_round_trip() {
        for p in [Platform::Airplane, Platform::Quadrocopter] {
            assert_eq!(Platform::from_id(p.id()), Some(p));
        }
        assert_eq!(Platform::from_id("balloon"), None);
    }

    #[test]
    fn baseline_params_match_scenarios() {
        let a = DecisionParams::baseline(Platform::Airplane).solve();
        let b = optimize(&Scenario::airplane_baseline());
        assert_eq!(a, b, "airplane");
        let a = DecisionParams::baseline(Platform::Quadrocopter).solve();
        let b = optimize(&Scenario::quadrocopter_baseline());
        assert_eq!(a, b, "quadrocopter");
    }

    #[test]
    fn solve_matches_owned_scenario_path() {
        let p = DecisionParams {
            platform: Platform::Quadrocopter,
            d0_m: 90.0,
            mdata_bytes: 10e6,
            rho_per_m: 1e-3,
            v_mps: 6.0,
        };
        let s = Scenario::quadrocopter_baseline()
            .with_d0(90.0)
            .with_mdata_mb(10.0)
            .with_rho(1e-3)
            .with_speed(6.0);
        assert_eq!(p.solve(), optimize(&s));
    }

    #[test]
    fn validated_rejects_bad_fields_without_panicking() {
        let base = DecisionParams::baseline(Platform::Airplane);
        let bad = |f: fn(&mut DecisionParams)| {
            let mut p = base;
            f(&mut p);
            p.validated()
        };
        assert!(matches!(bad(|p| p.d0_m = f64::NAN), Err(ParamError::D0(d)) if d.is_nan()));
        assert_eq!(bad(|p| p.mdata_bytes = 0.0), Err(ParamError::Mdata(0.0)));
        assert_eq!(bad(|p| p.v_mps = -1.0), Err(ParamError::Speed(-1.0)));
        assert_eq!(bad(|p| p.rho_per_m = -0.1), Err(ParamError::Rho(-0.1)));
        assert_eq!(
            bad(|p| p.v_mps = f64::INFINITY),
            Err(ParamError::Speed(f64::INFINITY))
        );
    }

    #[test]
    fn validated_clamps_d0_into_safety_bubble() {
        let mut p = DecisionParams::baseline(Platform::Quadrocopter);
        p.d0_m = 3.0;
        let v = p.validated().expect("clamped, not rejected");
        assert_eq!(v.d0_m, D_MIN_M);
        let o = v.solve();
        assert_eq!(o.d_opt, D_MIN_M);
        assert_eq!(o.ship_s, 0.0);
    }

    #[test]
    fn exact_quantizer_keys_on_bits() {
        let q = Quantizer::exact();
        assert!(q.is_exact());
        let a = DecisionParams::baseline(Platform::Airplane);
        assert_eq!(q.snap(&a), a, "exact mode never alters params");
        let mut b = a;
        b.d0_m += 1e-9;
        assert_ne!(
            q.snap(&a).bits(),
            q.snap(&b).bits(),
            "any bit difference is a new key"
        );
        assert_eq!(q.snap(&a).bits(), q.snap(&a.clone()).bits());
    }

    #[test]
    fn buckets_share_keys_and_snap_to_centres() {
        let q = Quantizer::default_buckets();
        assert!(!q.is_exact());
        let mut a = DecisionParams::baseline(Platform::Airplane);
        let mut b = a;
        a.d0_m = 299.0;
        b.d0_m = 301.0; // same 5 m bucket as 299 → centre 300
        assert_eq!(q.snap(&a).bits(), q.snap(&b).bits());
        assert_eq!(q.snap(&a).d0_m, 300.0);
        assert_eq!(q.snap(&b).d0_m, 300.0);
        b.d0_m = 303.0; // next bucket
        assert_ne!(q.snap(&a).bits(), q.snap(&b).bits());
        // Platforms never share keys even with equal numbers.
        let mut c = a;
        c.platform = Platform::Quadrocopter;
        assert_ne!(q.snap(&a).bits(), q.snap(&c).bits());
    }

    fn snap_bits(q: &Quantizer, p: &DecisionParams) -> [u64; 4] {
        let s = q.snap(p);
        [s.d0_m, s.mdata_bytes, s.rho_per_m, s.v_mps].map(f64::to_bits)
    }

    #[test]
    fn equal_keys_mean_bit_equal_snapped_params() {
        // The cache serves one solve per key, so two queries may share a
        // key only if the solver would see the same snapped parameters.
        // Values that round to the zero bucket of Mdata (< 0.5 MB) or v
        // (< 0.25 m/s) keep their raw value in `snap`; adjacent Mdata
        // byte counts can share one MB quotient in exact mode; and d0,
        // Mdata and ρ far past 2^63 buckets still snap to distinct values.
        let base = DecisionParams::baseline(Platform::Quadrocopter);
        let mut mdata = vec![0.2e6, 0.4e6, 0.49e6, 0.6e6, 1.4e6, 10e6, 1e30, 2e30];
        let mut x: f64 = 2.05e6;
        while x / BYTES_PER_MB != f64::from_bits(x.to_bits() + 1) / BYTES_PER_MB {
            x = f64::from_bits(x.to_bits() + 1);
        }
        mdata.extend([x, f64::from_bits(x.to_bits() + 1)]);
        let mut params = Vec::new();
        for &m in &mdata {
            for v in [0.1, 0.2, 0.24, 0.3, 4.5] {
                for d0 in [21.0, 99.0, 101.0, 1e20, 2e20] {
                    for rho in [0.0, 1e-5, 2.46e-4, 1e20, 2e20] {
                        let p = DecisionParams {
                            mdata_bytes: m,
                            v_mps: v,
                            d0_m: d0,
                            rho_per_m: rho,
                            ..base
                        };
                        params.push(p.validated().expect("valid"));
                    }
                }
            }
        }
        for q in [Quantizer::default_buckets(), Quantizer::exact()] {
            for a in &params {
                for b in &params {
                    if q.snap(a).bits() == q.snap(b).bits() {
                        assert_eq!(snap_bits(&q, a), snap_bits(&q, b), "{q:?}: {a:?} vs {b:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn snapping_respects_domain_floors() {
        let q = Quantizer::default_buckets();
        let p = DecisionParams {
            platform: Platform::Quadrocopter,
            d0_m: 21.0, // bucket centre would be 20 → clamped fine
            mdata_bytes: 0.2e6,
            rho_per_m: 1e-5, // snaps to 0 bucket → floored at 0
            v_mps: 0.2,      // snaps to 0 → falls back to raw
        };
        let s = q.snap(&p.validated().expect("valid"));
        assert!(s.d0_m >= D_MIN_M);
        assert!(s.mdata_bytes > 0.0, "payload floor");
        assert!(s.rho_per_m >= 0.0);
        assert!(s.v_mps > 0.0, "speed floor");
        // The snapped params remain solvable.
        let _ = s.solve();
    }
}
