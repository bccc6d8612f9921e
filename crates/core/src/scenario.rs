//! The full parameter set of one delayed-gratification decision.
//!
//! Section 4 defines two baseline scenarios, reproduced here verbatim:
//!
//! * **Airplane**: `Mdata = 28 MB` (footnote 3: 0.25 km² sector scanned
//!   at 70 m altitude), `v = 10 m/s`, `ρ = 1.11e-4 /m`, `d0 = 300 m`;
//! * **Quadrocopter**: `Mdata = 56.2 MB` (footnote 4: 0.01 km² sector at
//!   10 m altitude), `v = 4.5 m/s`, `ρ = 2.46e-4 /m`, `d0 = 100 m`;
//!
//! both with the fitted throughput model of their platform and a minimum
//! separation of 20 m "to avoid physical collisions".

use skyferry_sim::stable::KeyHasher;
use skyferry_units::{Bytes, Meters, MetersPerSec, Seconds};

use crate::failure::{ExponentialFailure, FailureSpec};
use crate::optimizer::{grid_point, optimize, OptimalTransfer, GRID_POINTS};
use crate::throughput::{LogFitThroughput, ThroughputModel, ThroughputSpec};

/// Bytes per megabyte (decimal, as the paper uses).
pub const BYTES_PER_MB: f64 = 1e6;

/// Why a view is outside the Eq. (2) domain ([`ScenarioView::check`]).
/// The serving layer answers each with a `bad-request`; the payloads are
/// the offending values, in the units their messages name.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamError {
    /// `d_min` is not positive.
    DMin(f64),
    /// `d0` is not finite, or lies below `d_min`.
    D0(f64),
    /// `v` is not finite and positive.
    Speed(f64),
    /// `Mdata` (bytes) is not finite and positive.
    Mdata(f64),
    /// A log-fit coefficient `(a, b)` is not finite.
    LogFit(f64, f64),
    /// ρ is negative or not finite.
    Rho(f64),
    /// A Weibull law `(scale m, shape, flown m)` is out of range.
    Weibull(f64, f64, f64),
    /// The Weibull hazard overflows: `(distance flown m, scale m, shape)`.
    Hazard(f64, f64, f64),
    /// `Mdata / s_max` is not a positive time: `(Mdata B, s_max bit/s)`.
    TransmitTime(f64, f64),
    /// The solver's grid ends past `d0`: `(d0, last grid point)`.
    Grid(f64, f64),
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ParamError::DMin(_) => write!(f, "d_min must be positive"),
            ParamError::D0(d0) => write!(f, "d0 must be finite and ≥ d_min (got {d0})"),
            ParamError::Speed(v) => write!(f, "v must be finite and positive (Eq. 2; got {v})"),
            ParamError::Mdata(m) => {
                write!(f, "Mdata must be finite and positive (Eq. 2; got {m})")
            }
            ParamError::LogFit(a, b) => {
                write!(f, "log-fit coefficients must be finite (a = {a}, b = {b})")
            }
            ParamError::Rho(rho) => write!(f, "invalid failure rate {rho}"),
            ParamError::Weibull(scale, shape, flown) => write!(
                f,
                "invalid Weibull law: scale {scale} m, shape {shape}, flown {flown} m"
            ),
            ParamError::Hazard(x, scale, shape) => write!(
                f,
                "Weibull hazard overflows at {x} m flown: scale {scale} m, shape {shape}"
            ),
            ParamError::TransmitTime(m, s) => write!(
                f,
                "Mdata / peak rate must be a positive time (Mdata {m} B, peak rate {s} bit/s)"
            ),
            ParamError::Grid(d0, end) => write!(
                f,
                "d0 must keep the solver's grid inside [d_min, d0] (got {d0}; last grid point {end})"
            ),
        }
    }
}

impl std::error::Error for ParamError {}

/// One decision instance: who, where, how much, how risky.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Label for reports.
    pub name: String,
    /// Distance at which the link came up and data is ready, metres.
    pub d0_m: f64,
    /// Minimum allowed separation (collision safety), metres.
    pub d_min_m: f64,
    /// Cruise speed used for repositioning, m/s.
    pub v_mps: f64,
    /// Batch size to deliver, bytes.
    pub mdata_bytes: f64,
    /// Throughput-vs-distance model.
    pub throughput: ThroughputSpec,
    /// Failure / discount model.
    pub failure: FailureSpec,
}

impl Scenario {
    /// The paper's airplane baseline scenario (Section 4).
    pub fn airplane_baseline() -> Self {
        Scenario {
            name: "airplane-baseline".into(),
            d0_m: 300.0,
            d_min_m: 20.0,
            v_mps: 10.0,
            mdata_bytes: 28.0 * BYTES_PER_MB,
            throughput: ThroughputSpec::LogFit(LogFitThroughput::AIRPLANE),
            failure: FailureSpec::Exponential(ExponentialFailure::new(1.11e-4)),
        }
    }

    /// The paper's quadrocopter baseline scenario (Section 4).
    pub fn quadrocopter_baseline() -> Self {
        Scenario {
            name: "quadrocopter-baseline".into(),
            d0_m: 100.0,
            d_min_m: 20.0,
            v_mps: 4.5,
            mdata_bytes: 56.2 * BYTES_PER_MB,
            throughput: ThroughputSpec::LogFit(LogFitThroughput::QUADROCOPTER),
            failure: FailureSpec::Exponential(ExponentialFailure::new(2.46e-4)),
        }
    }

    /// Copy with a different failure rate ρ (Figure 8 sweeps this).
    pub fn with_rho(mut self, rho_per_m: f64) -> Self {
        self.failure = FailureSpec::Exponential(ExponentialFailure::new(rho_per_m));
        self
    }

    /// Copy with a different batch size in MB (Figure 9 sweeps this).
    // lint:allow-line(unit-safety): figure-sweep axis; MB is the paper's native grid unit
    pub fn with_mdata_mb(mut self, mdata_mb: f64) -> Self {
        assert!(mdata_mb > 0.0);
        self.mdata_bytes = mdata_mb * BYTES_PER_MB;
        self
    }

    /// Copy with a different cruise speed (Figure 9 sweeps this).
    // lint:allow-line(unit-safety): figure-sweep axis; raw m/s is the sweep grid's native form
    pub fn with_speed(mut self, v_mps: f64) -> Self {
        assert!(v_mps > 0.0);
        self.v_mps = v_mps;
        self
    }

    /// Copy with a different initial separation.
    // lint:allow-line(unit-safety): figure-sweep axis; raw metres is the sweep grid's native form
    pub fn with_d0(mut self, d0_m: f64) -> Self {
        assert!(d0_m >= self.d_min_m);
        self.d0_m = d0_m;
        self
    }

    /// Validate the constraint set of Eq. (2) (see [`ScenarioView::validate`]).
    pub fn validate(&self) {
        self.view().validate();
    }

    /// Solve Eq. (2) for this scenario (convenience wrapper around
    /// [`optimize`]).
    pub fn optimize(&self) -> OptimalTransfer {
        optimize(self)
    }

    /// The encounter separation `d0` as a typed distance.
    pub fn d0(&self) -> Meters {
        Meters::new(self.d0_m)
    }

    /// The minimum separation `d_min` as a typed distance.
    pub fn d_min(&self) -> Meters {
        Meters::new(self.d_min_m)
    }

    /// The cruise speed `v` as a typed speed.
    pub fn speed(&self) -> MetersPerSec {
        MetersPerSec::new(self.v_mps)
    }

    /// The batch size `Mdata` as a typed data quantity.
    pub fn mdata(&self) -> Bytes {
        Bytes::new(self.mdata_bytes)
    }

    /// Fold every parameter that influences [`optimize`] into `h`: two
    /// scenarios produce the same key exactly when Eq. (2) has the same
    /// inputs (the `name` label is deliberately excluded). The bench
    /// crate's campaign store uses this to memoize optimizer solutions
    /// across experiments.
    pub fn stable_key(&self, h: KeyHasher) -> KeyHasher {
        let h = h
            .f64(self.d0_m)
            .f64(self.d_min_m)
            .f64(self.v_mps)
            .f64(self.mdata_bytes);
        let h = match &self.throughput {
            ThroughputSpec::LogFit(m) => h.str("log-fit").f64(m.a_mbps).f64(m.b_mbps),
            ThroughputSpec::Empirical(m) => {
                let mut h = h.str("empirical").u64(m.points().len() as u64);
                for &(d, r) in m.points() {
                    h = h.f64(d).f64(r);
                }
                h
            }
        };
        match &self.failure {
            FailureSpec::Exponential(m) => h.str("exponential").f64(m.rho_per_m),
            FailureSpec::Weibull(m) => h.str("weibull").f64(m.scale_m).f64(m.shape).f64(m.flown_m),
        }
    }

    /// A borrowed, `Copy` evaluation view of this scenario. All model
    /// evaluation (utility, optimizer, sweeps) runs on views, so a
    /// parameter sweep overrides one field per grid cell without cloning
    /// the name string or an empirical throughput table.
    pub fn view(&self) -> ScenarioView<'_> {
        ScenarioView {
            d0_m: self.d0_m,
            d_min_m: self.d_min_m,
            v_mps: self.v_mps,
            mdata_bytes: self.mdata_bytes,
            throughput: &self.throughput,
            failure: self.failure,
        }
    }
}

/// A cheap (`Copy`) evaluation view of a [`Scenario`]: the numeric
/// parameters by value, the throughput model by reference, the failure
/// spec by value (it is two floats). This is what sweeps hand to the
/// optimizer thousands of times — building one costs nothing, and the
/// `with_*` overrides below replace a field without touching the base.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioView<'a> {
    /// Distance at which the link came up and data is ready, metres.
    pub d0_m: f64,
    /// Minimum allowed separation (collision safety), metres.
    pub d_min_m: f64,
    /// Cruise speed used for repositioning, m/s.
    pub v_mps: f64,
    /// Batch size to deliver, bytes.
    pub mdata_bytes: f64,
    /// Throughput-vs-distance model (borrowed from the base scenario).
    pub throughput: &'a ThroughputSpec,
    /// Failure / discount model.
    pub failure: FailureSpec,
}

impl<'a> ScenarioView<'a> {
    /// The encounter separation `d0` as a typed distance.
    pub fn d0(&self) -> Meters {
        Meters::new(self.d0_m)
    }

    /// The minimum separation `d_min` as a typed distance.
    pub fn d_min(&self) -> Meters {
        Meters::new(self.d_min_m)
    }

    /// The cruise speed `v` as a typed speed.
    pub fn speed(&self) -> MetersPerSec {
        MetersPerSec::new(self.v_mps)
    }

    /// The batch size `Mdata` as a typed data quantity.
    pub fn mdata(&self) -> Bytes {
        Bytes::new(self.mdata_bytes)
    }

    /// Override the failure rate ρ (Figure 8 sweeps this).
    pub fn with_rho(mut self, rho_per_m: f64) -> Self {
        self.failure = FailureSpec::Exponential(ExponentialFailure::new(rho_per_m));
        self
    }

    /// Override the batch size in MB (Figure 9 sweeps this).
    // lint:allow-line(unit-safety): figure-sweep axis; MB is the paper's native grid unit
    pub fn with_mdata_mb(mut self, mdata_mb: f64) -> Self {
        assert!(mdata_mb > 0.0);
        self.mdata_bytes = mdata_mb * BYTES_PER_MB;
        self
    }

    /// Override the cruise speed (Figure 9 sweeps this).
    // lint:allow-line(unit-safety): figure-sweep axis; raw m/s is the sweep grid's native form
    pub fn with_speed(mut self, v_mps: f64) -> Self {
        assert!(v_mps > 0.0);
        self.v_mps = v_mps;
        self
    }

    /// Override the initial separation.
    // lint:allow-line(unit-safety): figure-sweep axis; raw metres is the sweep grid's native form
    pub fn with_d0(mut self, d0_m: f64) -> Self {
        assert!(d0_m >= self.d_min_m);
        self.d0_m = d0_m;
        self
    }

    /// The Eq. (2) domain, stated once: `Ok` exactly when
    /// [`optimize_view`](crate::optimizer::optimize_view) can solve this
    /// view. The fields are public, so a literal can bypass every
    /// constructor check; this catches it and names the field.
    ///
    /// It covers the constraint set (`0 < d_min ≤ d0`), finite `d0`, `v`
    /// and `Mdata` with `v, Mdata > 0`, a log fit's finite coefficients
    /// and an in-range failure law — the preconditions of the optimizer's
    /// block bound. It keeps `U = δ / Cdelay` a number on `[d_min, d0]`:
    /// the Weibull hazard is finite over the longest leg, so δ is, and
    /// `Cdelay ≥ Mdata / s_max > 0`, so `U` is never `0 / 0`. Last, the
    /// solver's grid over `[d_min, d0]` must end inside it (within the
    /// 1e-9 m slack of the candidate asserts). At `d_min = 20 m` that
    /// bounds `d0` at 8.782086638311263e304 m, above which the grid
    /// overflows to `inf`, and refuses the rare `d0` above 2^24 m whose
    /// last grid point rounds an ulp past it.
    pub fn check(&self) -> Result<(), ParamError> {
        let ensure = |ok: bool, e| if ok { Ok(()) } else { Err(e) };
        let finite_positive = |x: f64| x.is_finite() && x > 0.0;
        ensure(self.d_min_m > 0.0, ParamError::DMin(self.d_min_m))?;
        ensure(
            self.d0_m.is_finite() && self.d0_m >= self.d_min_m,
            ParamError::D0(self.d0_m),
        )?;
        ensure(finite_positive(self.v_mps), ParamError::Speed(self.v_mps))?;
        ensure(
            finite_positive(self.mdata_bytes),
            ParamError::Mdata(self.mdata_bytes),
        )?;
        if let ThroughputSpec::LogFit(m) = self.throughput {
            ensure(
                m.a_mbps.is_finite() && m.b_mbps.is_finite(),
                ParamError::LogFit(m.a_mbps, m.b_mbps),
            )?;
        }
        match self.failure {
            FailureSpec::Exponential(m) => m.check()?,
            FailureSpec::Weibull(m) => {
                m.check()?;
                // The hazard rises with the leg, so the longest leg
                // covers every shorter one.
                let x_m = m.flown_m + (self.d0_m - self.d_min_m);
                ensure(
                    m.cumulative_hazard(x_m).is_finite(),
                    ParamError::Hazard(x_m, m.scale_m, m.shape),
                )?;
            }
        }
        let ends = self
            .throughput
            .rate_bps(self.d_min())
            .max(self.throughput.rate_bps(self.d0()));
        let s_max = self.throughput.peak_rate_bps(self.d_min(), self.d0(), ends);
        ensure(
            self.mdata() / s_max > Seconds::ZERO,
            ParamError::TransmitTime(self.mdata_bytes, s_max.get()),
        )?;
        let end = grid_point(self.d_min_m, self.d0_m, GRID_POINTS - 1);
        ensure(end <= self.d0_m + 1e-9, ParamError::Grid(self.d0_m, end))
    }

    /// Panic with [`check`](ScenarioView::check)'s message unless this
    /// view is in the Eq. (2) domain.
    pub fn validate(&self) {
        self.check().unwrap_or_else(|e| panic!("{e}"));
    }

    /// Solve Eq. (2) for this view.
    pub fn optimize(&self) -> OptimalTransfer {
        crate::optimizer::optimize_view(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::throughput::ThroughputModel;

    #[test]
    fn baselines_match_paper_parameters() {
        let a = Scenario::airplane_baseline();
        assert_eq!(a.d0_m, 300.0);
        assert_eq!(a.v_mps, 10.0);
        assert_eq!(a.mdata_bytes, 28e6);
        assert_eq!(a.d_min_m, 20.0);

        let q = Scenario::quadrocopter_baseline();
        assert_eq!(q.d0_m, 100.0);
        assert_eq!(q.v_mps, 4.5);
        assert_eq!(q.mdata_bytes, 56.2e6);
    }

    #[test]
    fn baseline_throughput_models_attached() {
        let a = Scenario::airplane_baseline();
        assert!((a.throughput.rate_bps(Meters::new(20.0)).mbps() - 24.97).abs() < 0.05);
        let q = Scenario::quadrocopter_baseline();
        assert!((q.throughput.rate_bps(Meters::new(20.0)).mbps() - 27.63).abs() < 0.05);
    }

    #[test]
    fn builders_apply() {
        let s = Scenario::airplane_baseline()
            .with_rho(1e-3)
            .with_mdata_mb(10.0)
            .with_speed(15.0)
            .with_d0(250.0);
        assert_eq!(s.mdata_bytes, 10e6);
        assert_eq!(s.v_mps, 15.0);
        assert_eq!(s.d0_m, 250.0);
        match s.failure {
            FailureSpec::Exponential(e) => assert_eq!(e.rho_per_m, 1e-3),
            _ => panic!("expected exponential"),
        }
    }

    #[test]
    fn validate_accepts_baselines() {
        Scenario::airplane_baseline().validate();
        Scenario::quadrocopter_baseline().validate();
    }

    #[test]
    #[should_panic]
    fn validate_rejects_d0_below_dmin() {
        let mut s = Scenario::airplane_baseline();
        s.d0_m = 5.0;
        s.validate();
    }

    #[test]
    #[should_panic(expected = "invalid failure rate -0.001")]
    fn negative_rho_literal_is_rejected_before_solving() {
        // The literal bypasses `ExponentialFailure::new`; with ρ < 0, δ
        // falls with d and the optimizer's block bound would be unsound.
        let mut s = Scenario::airplane_baseline();
        s.failure = FailureSpec::Exponential(ExponentialFailure { rho_per_m: -1e-3 });
        let _ = s.optimize();
    }

    #[test]
    #[should_panic(expected = "d0 must be finite")]
    fn infinite_d0_is_rejected() {
        let mut s = Scenario::airplane_baseline();
        s.d0_m = f64::INFINITY;
        let _ = s.view().optimize();
    }

    #[test]
    #[should_panic(expected = "v must be finite")]
    fn infinite_speed_is_rejected() {
        let mut s = Scenario::airplane_baseline();
        s.v_mps = f64::INFINITY;
        let _ = s.optimize();
    }

    #[test]
    #[should_panic(expected = "Mdata must be finite")]
    fn nan_mdata_is_rejected() {
        let mut s = Scenario::quadrocopter_baseline();
        s.mdata_bytes = f64::NAN;
        let _ = s.optimize();
    }

    #[test]
    #[should_panic(expected = "invalid failure rate")]
    fn infinite_rho_literal_is_rejected() {
        let mut s = Scenario::quadrocopter_baseline();
        s.failure = FailureSpec::Exponential(ExponentialFailure {
            rho_per_m: f64::INFINITY,
        });
        let _ = s.optimize();
    }

    #[test]
    fn weibull_literals_out_of_range_are_rejected() {
        use crate::failure::WeibullFailure;
        let ok = WeibullFailure::new(Meters::new(5_000.0), 2.0, Meters::ZERO);
        for bad in [
            WeibullFailure { shape: 0.0, ..ok },
            WeibullFailure {
                shape: f64::NAN,
                ..ok
            },
            WeibullFailure {
                scale_m: -1.0,
                ..ok
            },
            WeibullFailure {
                scale_m: f64::INFINITY,
                ..ok
            },
            WeibullFailure {
                flown_m: -1.0,
                ..ok
            },
            WeibullFailure {
                flown_m: f64::INFINITY,
                ..ok
            },
        ] {
            let mut s = Scenario::quadrocopter_baseline();
            s.failure = FailureSpec::Weibull(bad);
            let err = std::panic::catch_unwind(|| s.optimize())
                .expect_err("an out-of-range Weibull law must not solve");
            let msg = err.downcast_ref::<String>().expect("formatted message");
            assert!(msg.starts_with("invalid Weibull law"), "{bad:?}: {msg}");
        }
    }

    #[test]
    #[should_panic(expected = "log-fit coefficients must be finite")]
    fn non_finite_log_fit_is_rejected() {
        let mut s = Scenario::airplane_baseline();
        s.throughput = ThroughputSpec::LogFit(LogFitThroughput {
            a_mbps: f64::NAN,
            b_mbps: 49.0,
        });
        let _ = s.optimize();
    }

    #[test]
    #[should_panic(expected = "Weibull hazard overflows")]
    fn overflowing_weibull_hazard_is_rejected() {
        // Every field is in range, but (x / 1e-300)² overflows, so δ would
        // be exp(−(∞ − ∞)) = NaN at every candidate.
        use crate::failure::WeibullFailure;
        let mut s = Scenario::quadrocopter_baseline();
        s.failure = FailureSpec::Weibull(WeibullFailure::new(
            Meters::new(1e-300),
            2.0,
            Meters::new(1.0),
        ));
        let _ = s.optimize();
    }

    #[test]
    #[should_panic(expected = "Mdata / peak rate must be a positive time")]
    fn vanishing_transmit_time_is_rejected() {
        // The fit overflows to s = ∞, so Ttx = 0. An ulp below d0, Tship
        // underflows to 0 and so does δ, and the golden-section steps
        // there would evaluate U = 0 / 0 = NaN.
        let mut s = Scenario::airplane_baseline().with_rho(1e300);
        (s.d_min_m, s.d0_m, s.v_mps) = (0.5, 1.0, f64::MAX);
        s.throughput = ThroughputSpec::LogFit(LogFitThroughput {
            a_mbps: 0.0,
            b_mbps: 1e308,
        });
        let _ = s.optimize();
    }

    #[test]
    fn stable_key_ignores_name_but_sees_parameters() {
        let k = |s: &Scenario| s.stable_key(KeyHasher::new("scenario")).finish();
        let a = Scenario::airplane_baseline();
        let mut renamed = a.clone();
        renamed.name = "alias".into();
        assert_eq!(k(&a), k(&renamed));
        assert_ne!(k(&a), k(&a.clone().with_mdata_mb(5.0)));
        assert_ne!(k(&a), k(&a.clone().with_rho(2e-4)));
        assert_ne!(k(&a), k(&Scenario::quadrocopter_baseline()));
    }

    #[test]
    fn view_is_copy_and_matches_owner() {
        let s = Scenario::airplane_baseline();
        let v = s.view();
        let w = v; // Copy — no clone of the name or throughput table
        assert_eq!(w.d0_m, s.d0_m);
        assert_eq!(w.mdata_bytes, s.mdata_bytes);
        assert_eq!(
            w.throughput.rate_bps(Meters::new(40.0)),
            s.throughput.rate_bps(Meters::new(40.0))
        );
    }

    #[test]
    fn view_overrides_do_not_touch_base() {
        let s = Scenario::airplane_baseline();
        let v = s.view().with_rho(5e-3).with_speed(20.0).with_mdata_mb(7.0);
        assert_eq!(s.v_mps, 10.0);
        assert_eq!(v.v_mps, 20.0);
        assert_eq!(v.mdata_bytes, 7e6);
        match v.failure {
            FailureSpec::Exponential(e) => assert_eq!(e.rho_per_m, 5e-3),
            _ => panic!("expected exponential"),
        }
        // The builder path and the view path describe the same scenario.
        let owned = s.clone().with_rho(5e-3).with_speed(20.0).with_mdata_mb(7.0);
        assert_eq!(crate::optimizer::optimize(&owned), v.optimize());
    }
}
