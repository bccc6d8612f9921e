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
//! separation of 20 m "to avoid physical collisions". The numbers live
//! in [`DecisionParams::baseline`], the serving layer's default query,
//! and [`Scenario::airplane_baseline`] and
//! [`Scenario::quadrocopter_baseline`] are that query's scenario.
//!
//! [`DecisionParams::baseline`]: crate::request::DecisionParams::baseline
//! [`Scenario::airplane_baseline`]: crate::scenario::Scenario::airplane_baseline
//! [`Scenario::quadrocopter_baseline`]: crate::scenario::Scenario::quadrocopter_baseline

use skyferry_units::{Bytes, Meters, MetersPerSec, Seconds};

use crate::failure::{ExponentialFailure, FailureSpec};
use crate::optimizer::{grid_point, GRID_POINTS};
use crate::request::{DecisionParams, Platform};
use crate::throughput::{ThroughputModel, ThroughputSpec};

/// Bytes per megabyte (decimal, as the paper uses).
pub const BYTES_PER_MB: f64 = 1e6;

/// Why a scenario is outside the Eq. (2) domain ([`Scenario::check`]).
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

/// One Eq. (2) query: the numeric parameters by value, the throughput
/// model `s(d)` by reference and the failure law by value (it is two
/// floats), so a scenario is `Copy`. Sweeps hand it to the optimizer
/// thousands of times: the `with_*` overrides replace one field of a
/// copy and never clone a model, and a rate model built at run time
/// (an empirical table, a contention-scaled fit) is owned by the
/// caller and borrowed here.
#[derive(Debug, Clone, Copy)]
pub struct Scenario<'a> {
    /// Distance at which the link came up and data is ready, metres.
    pub d0_m: f64,
    /// Minimum allowed separation (collision safety), metres.
    pub d_min_m: f64,
    /// Cruise speed used for repositioning, m/s.
    pub v_mps: f64,
    /// Batch size to deliver, bytes.
    pub mdata_bytes: f64,
    /// Throughput-vs-distance model.
    pub throughput: &'a ThroughputSpec,
    /// Failure / discount model.
    pub failure: FailureSpec,
}

impl Scenario<'static> {
    /// The paper's airplane baseline scenario (Section 4).
    pub fn airplane_baseline() -> Self {
        DecisionParams::baseline(Platform::Airplane).scenario()
    }

    /// The paper's quadrocopter baseline scenario (Section 4).
    pub fn quadrocopter_baseline() -> Self {
        DecisionParams::baseline(Platform::Quadrocopter).scenario()
    }
}

impl Scenario<'_> {
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
    /// [`optimize`](crate::optimizer::optimize) can solve this
    /// scenario. The fields are public, so a literal can bypass every
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

    /// Panic with [`check`](Scenario::check)'s message unless this
    /// scenario is in the Eq. (2) domain.
    pub fn validate(&self) {
        self.check().unwrap_or_else(|e| panic!("{e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::optimize;
    use crate::throughput::LogFitThroughput;

    #[test]
    fn baselines_match_paper_parameters() {
        let a = Scenario::airplane_baseline();
        assert_eq!(a.d0_m, 300.0);
        assert_eq!(a.v_mps, 10.0);
        assert_eq!(a.mdata_bytes, 28e6);
        assert_eq!(a.d_min_m, 20.0);
        assert_eq!(
            a.failure,
            FailureSpec::Exponential(ExponentialFailure::new(1.11e-4))
        );

        let q = Scenario::quadrocopter_baseline();
        assert_eq!(q.d0_m, 100.0);
        assert_eq!(q.v_mps, 4.5);
        assert_eq!(q.mdata_bytes, 56.2e6);
        assert_eq!(q.d_min_m, 20.0);
        assert_eq!(
            q.failure,
            FailureSpec::Exponential(ExponentialFailure::new(2.46e-4))
        );
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
    fn overrides_leave_the_base_untouched() {
        let base = Scenario::airplane_baseline();
        let copy = base; // Copy: no clone of the throughput model
        let v = copy.with_rho(5e-3).with_speed(20.0).with_mdata_mb(7.0);
        assert_eq!(base.v_mps, 10.0);
        assert_eq!(v.v_mps, 20.0);
        assert_eq!(v.mdata_bytes, 7e6);
        assert!(std::ptr::eq(v.throughput, base.throughput));
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
        let _ = optimize(s);
    }

    #[test]
    #[should_panic(expected = "d0 must be finite")]
    fn infinite_d0_is_rejected() {
        let mut s = Scenario::airplane_baseline();
        s.d0_m = f64::INFINITY;
        let _ = optimize(s);
    }

    #[test]
    #[should_panic(expected = "v must be finite")]
    fn infinite_speed_is_rejected() {
        let mut s = Scenario::airplane_baseline();
        s.v_mps = f64::INFINITY;
        let _ = optimize(s);
    }

    #[test]
    #[should_panic(expected = "Mdata must be finite")]
    fn nan_mdata_is_rejected() {
        let mut s = Scenario::quadrocopter_baseline();
        s.mdata_bytes = f64::NAN;
        let _ = optimize(s);
    }

    #[test]
    #[should_panic(expected = "invalid failure rate")]
    fn infinite_rho_literal_is_rejected() {
        let mut s = Scenario::quadrocopter_baseline();
        s.failure = FailureSpec::Exponential(ExponentialFailure {
            rho_per_m: f64::INFINITY,
        });
        let _ = optimize(s);
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
            let err = std::panic::catch_unwind(|| optimize(s))
                .expect_err("an out-of-range Weibull law must not solve");
            let msg = err.downcast_ref::<String>().expect("formatted message");
            assert!(msg.starts_with("invalid Weibull law"), "{bad:?}: {msg}");
        }
    }

    #[test]
    #[should_panic(expected = "log-fit coefficients must be finite")]
    fn non_finite_log_fit_is_rejected() {
        let fit = ThroughputSpec::LogFit(LogFitThroughput {
            a_mbps: f64::NAN,
            b_mbps: 49.0,
        });
        let mut s = Scenario::airplane_baseline();
        s.throughput = &fit;
        let _ = optimize(s);
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
        let _ = optimize(s);
    }

    #[test]
    #[should_panic(expected = "Mdata / peak rate must be a positive time")]
    fn vanishing_transmit_time_is_rejected() {
        // The fit overflows to s = ∞, so Ttx = 0. An ulp below d0, Tship
        // underflows to 0 and so does δ, and the golden-section steps
        // there would evaluate U = 0 / 0 = NaN.
        let fit = ThroughputSpec::LogFit(LogFitThroughput {
            a_mbps: 0.0,
            b_mbps: 1e308,
        });
        let mut s = Scenario::airplane_baseline().with_rho(1e300);
        (s.d_min_m, s.d0_m, s.v_mps) = (0.5, 1.0, f64::MAX);
        s.throughput = &fit;
        let _ = optimize(s);
    }
}
