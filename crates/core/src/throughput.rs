//! Throughput-vs-distance models `s(d)`.
//!
//! Section 4 of the paper fits a logarithmic function to the empirical
//! median throughput (auto PHY rate):
//!
//! * airplanes:     `s(d) = 10⁶ · (−5.56·log2(d) + 49)` b/s (R² = 0.90)
//! * quadrocopters: `s(d) = 10⁶ · (−10.5·log2(d) + 73)` b/s (R² = 0.96)
//!
//! [`LogFitThroughput`] is exactly that family; [`EmpiricalThroughput`]
//! interpolates a measured `(distance, rate)` table, so a campaign run in
//! `skyferry-net` can be plugged straight into the optimizer.
//!
//! Distances and rates cross this API as [`Meters`] and [`BitsPerSec`]
//! newtypes: feeding a Mb/s value where bit/s is expected — the classic
//! way to corrupt a figure table silently — no longer compiles:
//!
//! ```compile_fail
//! use skyferry_core::throughput::{LogFitThroughput, ThroughputModel};
//! use skyferry_units::Seconds;
//! // A duration is not a distance: rejected at compile time.
//! let _ = LogFitThroughput::AIRPLANE.rate_bps(Seconds::new(20.0));
//! ```
//!
//! [`LogFitThroughput`]: crate::throughput::LogFitThroughput
//! [`EmpiricalThroughput`]: crate::throughput::EmpiricalThroughput
//! [`Meters`]: skyferry_units::Meters
//! [`BitsPerSec`]: skyferry_units::BitsPerSec

use skyferry_units::{BitsPerSec, Meters};

/// Anything that maps a separation to an achievable rate.
pub trait ThroughputModel {
    /// Expected application-layer throughput at distance `d`.
    /// Must be strictly positive for all valid distances.
    fn rate_bps(&self, d: Meters) -> BitsPerSec;
}

/// Floor applied so that rates never reach zero (which would make the
/// communication delay infinite and the utility undefined rather than
/// just terrible).
pub const MIN_RATE_BPS: BitsPerSec = BitsPerSec::new(1e3);

/// The paper's logarithmic fit `s(d) = 1e6 · (a·log2(d) + b)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogFitThroughput {
    /// Coefficient of `log2(d)` in Mb/s (negative: rate falls with d).
    pub a_mbps: f64,
    /// Intercept in Mb/s.
    pub b_mbps: f64,
}

impl LogFitThroughput {
    /// The paper's airplane fit (R² = 0.90).
    pub const AIRPLANE: LogFitThroughput = LogFitThroughput {
        a_mbps: -5.56,
        b_mbps: 49.0,
    };

    /// The paper's quadrocopter fit (R² = 0.96).
    pub const QUADROCOPTER: LogFitThroughput = LogFitThroughput {
        a_mbps: -10.5,
        b_mbps: 73.0,
    };

    /// The fit with every rate scaled by `share ∈ (0, 1]` — the
    /// throughput one contender sees on a shared medium. Scaling is
    /// linear in the fit coefficients, so the result is still a log fit
    /// (and the distance where it reaches zero rate is unchanged).
    pub fn scaled(&self, share: f64) -> Self {
        assert!(
            share > 0.0 && share <= 1.0 && share.is_finite(),
            "share must be in (0, 1], got {share}"
        );
        LogFitThroughput {
            a_mbps: self.a_mbps * share,
            b_mbps: self.b_mbps * share,
        }
    }
}

impl ThroughputModel for LogFitThroughput {
    fn rate_bps(&self, d: Meters) -> BitsPerSec {
        assert!(d.get() > 0.0, "distance must be positive");
        BitsPerSec::from_mbps(self.a_mbps * d.get().log2() + self.b_mbps).max(MIN_RATE_BPS)
    }
}

/// Piecewise-linear interpolation over a measured `(d, rate)` table.
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalThroughput {
    /// `(distance_m, rate_bps)` points, strictly ascending in distance.
    /// Kept as raw `f64` pairs: this is the serialisation/table layer,
    /// and the typed API wraps it at the [`ThroughputModel`] boundary.
    points: Vec<(f64, f64)>,
}

impl EmpiricalThroughput {
    /// Build from measured `(distance_m, rate_bps)` points (any order);
    /// rates floored at [`MIN_RATE_BPS`].
    ///
    /// # Panics
    /// Panics on fewer than two points, non-finite values, non-positive
    /// distances, or duplicate distances.
    pub fn new(mut points: Vec<(f64, f64)>) -> Self {
        assert!(points.len() >= 2, "need at least two points");
        assert!(
            points
                .iter()
                .all(|&(d, r)| d.is_finite() && r.is_finite() && d > 0.0),
            "invalid empirical point"
        );
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        assert!(
            points.windows(2).all(|w| w[0].0 < w[1].0),
            "duplicate distances"
        );
        for p in &mut points {
            p.1 = p.1.max(MIN_RATE_BPS.get());
        }
        EmpiricalThroughput { points }
    }

    /// The interpolation table, `(distance_m, rate_bps)`.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// The table with every rate scaled by `share ∈ (0, 1]` (rates are
    /// re-floored at [`MIN_RATE_BPS`] by the constructor).
    pub fn scaled(&self, share: f64) -> Self {
        assert!(
            share > 0.0 && share <= 1.0 && share.is_finite(),
            "share must be in (0, 1], got {share}"
        );
        Self::new(self.points.iter().map(|&(d, r)| (d, r * share)).collect())
    }

    /// Build a model from a measurement campaign: one `(distance,
    /// samples)` row per measured distance (the output shape of
    /// `skyferry-net`'s `throughput_vs_distance`), using each row's
    /// median in Mb/s.
    ///
    /// # Panics
    /// Panics if any row has no samples (see [`EmpiricalThroughput::new`]
    /// for the other input requirements).
    pub fn from_campaign_mbps(rows: &[(f64, Vec<f64>)]) -> Self {
        let points: Vec<(f64, f64)> = rows
            .iter()
            .map(|(d, samples)| {
                let med =
                    skyferry_stats::quantile::median(samples).expect("non-empty campaign row");
                (*d, BitsPerSec::from_mbps(med).get())
            })
            .collect();
        Self::new(points)
    }
}

impl ThroughputModel for EmpiricalThroughput {
    fn rate_bps(&self, d: Meters) -> BitsPerSec {
        let d_m = d.get();
        assert!(d_m > 0.0);
        let pts = &self.points;
        if d_m <= pts[0].0 {
            return BitsPerSec::new(pts[0].1);
        }
        if d_m >= pts[pts.len() - 1].0 {
            return BitsPerSec::new(pts[pts.len() - 1].1);
        }
        let i = pts.partition_point(|&(d, _)| d < d_m);
        let (d0, r0) = pts[i - 1];
        let (d1, r1) = pts[i];
        let t = (d_m - d0) / (d1 - d0);
        BitsPerSec::new(r0 + t * (r1 - r0)).max(MIN_RATE_BPS)
    }
}

/// A throughput model selector that is plain data (serialisable, no
/// trait objects) — the form scenarios carry around.
#[derive(Debug, Clone, PartialEq)]
pub enum ThroughputSpec {
    /// Logarithmic fit.
    LogFit(LogFitThroughput),
    /// Empirical interpolation table.
    Empirical(EmpiricalThroughput),
}

impl ThroughputSpec {
    /// The model with every rate scaled by `share ∈ (0, 1]` — how a
    /// shared-medium contention model (`skyferry-fleet`) discounts the
    /// link before the optimizer sees it.
    pub fn scaled(&self, share: f64) -> Self {
        match self {
            ThroughputSpec::LogFit(m) => ThroughputSpec::LogFit(m.scaled(share)),
            ThroughputSpec::Empirical(m) => ThroughputSpec::Empirical(m.scaled(share)),
        }
    }

    /// The highest [`rate_bps`](ThroughputModel::rate_bps) over `[lo, hi]`,
    /// given `ends`, the larger of the rates at `lo` and `hi`.
    ///
    /// A log fit is monotone in `d` for either sign of `a`, and so is its
    /// [`MIN_RATE_BPS`] floor, so the peak sits at an end. An empirical
    /// table is linear between knots and flat outside them, so the peak
    /// is an end or a knot inside the interval.
    pub(crate) fn peak_rate_bps(&self, lo: Meters, hi: Meters, ends: BitsPerSec) -> BitsPerSec {
        match self {
            ThroughputSpec::LogFit(_) => ends,
            ThroughputSpec::Empirical(m) => {
                let pts = m.points();
                let end = pts.partition_point(|&(d, _)| d < hi.get());
                let start = pts.partition_point(|&(d, _)| d <= lo.get()).min(end);
                pts[start..end]
                    .iter()
                    .fold(ends, |peak, &(_, r)| peak.max(BitsPerSec::new(r)))
            }
        }
    }
}

impl ThroughputModel for ThroughputSpec {
    fn rate_bps(&self, d: Meters) -> BitsPerSec {
        match self {
            ThroughputSpec::LogFit(m) => m.rate_bps(d),
            ThroughputSpec::Empirical(m) => m.rate_bps(d),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance at which a fit reaches zero rate (validity horizon).
    fn zero_crossing(fit: &LogFitThroughput) -> Meters {
        assert!(fit.a_mbps < 0.0, "fit must be decreasing");
        Meters::new(2.0_f64.powf(-fit.b_mbps / fit.a_mbps))
    }

    fn m(v: f64) -> Meters {
        Meters::new(v)
    }

    #[test]
    fn paper_fit_values() {
        // s(20) for the airplane fit: −5.56·log2(20)+49 = 24.97 Mb/s.
        let r = LogFitThroughput::AIRPLANE.rate_bps(m(20.0)).mbps();
        assert!((r - 24.97).abs() < 0.05, "r={r}");
        // s(80) for the quadrocopter fit: −10.5·log2(80)+73 = 6.62 Mb/s.
        let r = LogFitThroughput::QUADROCOPTER.rate_bps(m(80.0)).mbps();
        assert!((r - 6.62).abs() < 0.05, "r={r}");
    }

    #[test]
    fn fit_monotone_decreasing() {
        let model = LogFitThroughput::AIRPLANE;
        let mut prev = BitsPerSec::new(f64::INFINITY);
        for i in 1..40 {
            let r = model.rate_bps(m(10.0 * i as f64));
            assert!(r <= prev);
            prev = r;
        }
    }

    #[test]
    fn fit_floors_at_min_rate() {
        let model = LogFitThroughput::QUADROCOPTER;
        assert_eq!(model.rate_bps(m(10_000.0)), MIN_RATE_BPS);
    }

    #[test]
    fn zero_crossings() {
        // Airplane fit crosses zero at 2^(49/5.56) ≈ 450 m;
        // quadrocopter at 2^(73/10.5) ≈ 124 m.
        let a = zero_crossing(&LogFitThroughput::AIRPLANE).get();
        assert!((a - 450.0).abs() < 10.0, "a={a}");
        let q = zero_crossing(&LogFitThroughput::QUADROCOPTER).get();
        assert!((q - 124.0).abs() < 5.0, "q={q}");
    }

    #[test]
    fn empirical_interpolates_and_clamps() {
        let model = EmpiricalThroughput::new(vec![(20.0, 30e6), (40.0, 20e6), (80.0, 8e6)]);
        assert_eq!(model.rate_bps(m(20.0)), BitsPerSec::new(30e6));
        assert_eq!(model.rate_bps(m(30.0)), BitsPerSec::new(25e6));
        assert_eq!(model.rate_bps(m(60.0)), BitsPerSec::new(14e6));
        // Outside the table: clamp to the edge values.
        assert_eq!(model.rate_bps(m(5.0)), BitsPerSec::new(30e6));
        assert_eq!(model.rate_bps(m(500.0)), BitsPerSec::new(8e6));
    }

    #[test]
    fn from_campaign_uses_medians() {
        let rows = vec![
            (20.0, vec![25.0, 30.0, 35.0]),
            (40.0, vec![10.0, 20.0, 30.0]),
        ];
        let model = EmpiricalThroughput::from_campaign_mbps(&rows);
        assert_eq!(model.rate_bps(m(20.0)), BitsPerSec::from_mbps(30.0));
        assert_eq!(model.rate_bps(m(40.0)), BitsPerSec::from_mbps(20.0));
    }

    #[test]
    fn empirical_sorts_input() {
        let model = EmpiricalThroughput::new(vec![(80.0, 8e6), (20.0, 30e6)]);
        assert_eq!(model.points()[0].0, 20.0);
    }

    #[test]
    fn empirical_floors_rates() {
        let model = EmpiricalThroughput::new(vec![(20.0, 1e6), (200.0, 0.0)]);
        assert_eq!(model.rate_bps(m(200.0)), MIN_RATE_BPS);
    }

    #[test]
    #[should_panic]
    fn empirical_rejects_duplicates() {
        let _ = EmpiricalThroughput::new(vec![(20.0, 1e6), (20.0, 2e6)]);
    }

    #[test]
    fn scaled_halves_every_rate() {
        let full = LogFitThroughput::QUADROCOPTER;
        let half = full.scaled(0.5);
        for d in [20.0, 40.0, 80.0] {
            assert!(
                (half.rate_bps(m(d)).get() - full.rate_bps(m(d)).get() * 0.5).abs() < 1e-9,
                "share must scale the rate linearly at d={d}"
            );
        }
        // Scaling preserves the validity horizon of the fit.
        assert_eq!(zero_crossing(&half), zero_crossing(&full));

        let emp = EmpiricalThroughput::new(vec![(20.0, 30e6), (80.0, 8e6)]);
        let emp_half = emp.scaled(0.5);
        assert_eq!(emp_half.rate_bps(m(20.0)), BitsPerSec::new(15e6));

        let spec = ThroughputSpec::LogFit(full).scaled(1.0);
        assert_eq!(spec.rate_bps(m(40.0)), full.rate_bps(m(40.0)));
    }

    #[test]
    #[should_panic]
    fn scaled_rejects_zero_share() {
        let _ = LogFitThroughput::AIRPLANE.scaled(0.0);
    }

    /// `peak_rate_bps` over `[lo, hi]` with the end rates evaluated.
    fn peak(model: &ThroughputSpec, lo: f64, hi: f64) -> BitsPerSec {
        let ends = model.rate_bps(m(lo)).max(model.rate_bps(m(hi)));
        model.peak_rate_bps(m(lo), m(hi), ends)
    }

    #[test]
    fn peak_rate_takes_ends_and_interior_knots() {
        // Log fits peak at an end for either sign of `a`.
        let falling = ThroughputSpec::LogFit(LogFitThroughput::AIRPLANE);
        assert_eq!(peak(&falling, 30.0, 90.0), falling.rate_bps(m(30.0)));
        let rising = ThroughputSpec::LogFit(LogFitThroughput {
            a_mbps: 3.0,
            b_mbps: 1.0,
        });
        assert_eq!(peak(&rising, 30.0, 90.0), rising.rate_bps(m(90.0)));
        // Tables also peak at a knot strictly inside the interval, and
        // only there.
        let table = ThroughputSpec::Empirical(EmpiricalThroughput::new(vec![
            (20.0, 10e6),
            (40.0, 30e6),
            (60.0, 5e6),
            (80.0, 50e6),
        ]));
        let peak = |lo: f64, hi: f64| peak(&table, lo, hi).get();
        assert_eq!(peak(30.0, 50.0), 30e6);
        assert_eq!(peak(40.0, 40.0), 30e6);
        assert_eq!(peak(45.0, 75.0), 38.75e6, "s(75) beats the 5 Mb/s knot");
        assert_eq!(peak(10.0, 200.0), 50e6);
    }

    #[test]
    fn spec_dispatches() {
        let spec = ThroughputSpec::LogFit(LogFitThroughput::AIRPLANE);
        assert_eq!(
            spec.rate_bps(m(50.0)),
            LogFitThroughput::AIRPLANE.rate_bps(m(50.0))
        );
    }
}
