//! # skyferry-units
//!
//! Zero-cost dimensional newtypes for the quantities the delayed-
//! gratification model juggles: metres, seconds, speeds, data rates,
//! batch sizes, decibels and energies. Every type wraps a single `f64`
//! (`#[repr(transparent)]`), so the optimised code is bit-identical to
//! bare floats — but a `Mdata/s(d)` pipeline that feeds a Mb/s value
//! where bit/s is expected now fails to *compile* instead of silently
//! corrupting a figure table.
//!
//! ## Dimensional arithmetic
//!
//! The cross-unit `Mul`/`Div` impls encode exactly the identities the
//! model of Eq. (1)–(2) needs:
//!
//! * [`Meters`] ÷ [`MetersPerSec`] = [`Seconds`] — shipping time
//!   `Tship = (d0 − d)/v`;
//! * [`Bytes`] ÷ [`BitsPerSec`] = [`Seconds`] — transmission time
//!   `Ttx = Mdata/s(d)` (the ×8 bytes→bits conversion lives *here*, in
//!   one audited place);
//! * [`MetersPerSec`] × [`Seconds`] = [`Meters`] and
//!   [`Meters`] ÷ [`Seconds`] = [`MetersPerSec`];
//! * [`BitsPerSec`] × [`Seconds`] = [`Bytes`].
//!
//! Same-unit addition/subtraction, scaling by a dimensionless `f64`, and
//! same-unit division (yielding a dimensionless ratio) are provided for
//! every type.
//!
//! Mixing units is a compile error:
//!
//! ```compile_fail
//! use skyferry_units::{Meters, Seconds};
//! // metres + seconds has no meaning — rejected at compile time.
//! let _ = Meters::new(1.0) + Seconds::new(1.0);
//! ```
//!
//! ```compile_fail
//! use skyferry_units::{Bytes, MetersPerSec};
//! // Ttx needs a data *rate*; dividing by a speed is rejected.
//! let _ = Bytes::new(28e6) / MetersPerSec::new(10.0);
//! ```

#![forbid(unsafe_code)]

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

macro_rules! unit {
    ($(#[$meta:meta])* $name:ident, $symbol:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        #[repr(transparent)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero value of this unit.
            pub const ZERO: $name = $name(0.0);

            /// Wrap a raw `f64` expressed in this unit's base scale.
            #[inline]
            pub const fn new(value: f64) -> Self {
                $name(value)
            }

            /// The raw `f64` value in this unit's base scale.
            #[inline]
            pub const fn get(self) -> f64 {
                self.0
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                $name(self.0.abs())
            }

            /// The smaller of two values (NaN-propagating like `f64::min`
            /// is NaN-*ignoring*; this matches `f64::min`).
            #[inline]
            pub fn min(self, other: Self) -> Self {
                $name(self.0.min(other.0))
            }

            /// The larger of two values (semantics of `f64::max`).
            #[inline]
            pub fn max(self, other: Self) -> Self {
                $name(self.0.max(other.0))
            }

            /// Clamp into `[lo, hi]`.
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                $name(self.0.clamp(lo.0, hi.0))
            }

            /// `true` when the wrapped value is finite.
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl Neg for $name {
            type Output = $name;
            #[inline]
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            #[inline]
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Same-unit division yields a dimensionless ratio.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }

        impl MulAssign<f64> for $name {
            #[inline]
            fn mul_assign(&mut self, rhs: f64) {
                self.0 *= rhs;
            }
        }

        impl DivAssign<f64> for $name {
            #[inline]
            fn div_assign(&mut self, rhs: f64) {
                self.0 /= rhs;
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                // Respect an explicit precision (`{:.2}`), default to the
                // shortest roundtrip representation.
                match f.precision() {
                    Some(p) => write!(f, "{:.*} {}", p, self.0, $symbol),
                    None => write!(f, "{} {}", self.0, $symbol),
                }
            }
        }
    };
}

unit!(
    /// A distance in metres.
    Meters,
    "m"
);

unit!(
    /// A duration in seconds.
    Seconds,
    "s"
);

unit!(
    /// A speed in metres per second.
    MetersPerSec,
    "m/s"
);

unit!(
    /// A data rate in bits per second.
    BitsPerSec,
    "bit/s"
);

unit!(
    /// A data quantity in bytes (decimal multiples, as the paper uses).
    Bytes,
    "B"
);

unit!(
    /// A logarithmic power quantity or ratio in decibels. Used for both
    /// absolute levels (dBm — decibels relative to a milliwatt) and
    /// relative gains/losses (dB); adding a dB gain to a dBm level is a
    /// dBm level, which is why one type covers both.
    Db,
    "dB"
);

unit!(
    /// An energy in joules.
    Joules,
    "J"
);

// ---------------------------------------------------------------------------
// Cross-dimension arithmetic: exactly the identities the model needs.
// ---------------------------------------------------------------------------

impl Div<MetersPerSec> for Meters {
    type Output = Seconds;
    /// `Tship = distance / speed`.
    #[inline]
    fn div(self, rhs: MetersPerSec) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

impl Div<Seconds> for Meters {
    type Output = MetersPerSec;
    /// Mean speed over a leg.
    #[inline]
    fn div(self, rhs: Seconds) -> MetersPerSec {
        MetersPerSec(self.0 / rhs.0)
    }
}

impl Mul<Seconds> for MetersPerSec {
    type Output = Meters;
    /// Distance covered at a constant speed.
    #[inline]
    fn mul(self, rhs: Seconds) -> Meters {
        Meters(self.0 * rhs.0)
    }
}

impl Mul<MetersPerSec> for Seconds {
    type Output = Meters;
    /// Distance covered at a constant speed (commuted form).
    #[inline]
    fn mul(self, rhs: MetersPerSec) -> Meters {
        Meters(self.0 * rhs.0)
    }
}

/// Bits per byte. The single audited home of the ×8 conversion that the
/// bare-`f64` pipeline repeated at every call site.
pub const BITS_PER_BYTE: f64 = 8.0;

impl Div<BitsPerSec> for Bytes {
    type Output = Seconds;
    /// `Ttx = Mdata / s(d)` — bytes over a bit rate, converting to bits
    /// exactly once, here.
    #[inline]
    fn div(self, rhs: BitsPerSec) -> Seconds {
        Seconds(self.0 * BITS_PER_BYTE / rhs.0)
    }
}

impl Mul<Seconds> for BitsPerSec {
    type Output = Bytes;
    /// Data volume delivered at a constant rate.
    #[inline]
    fn mul(self, rhs: Seconds) -> Bytes {
        Bytes(self.0 * rhs.0 / BITS_PER_BYTE)
    }
}

impl Mul<BitsPerSec> for Seconds {
    type Output = Bytes;
    /// Data volume delivered at a constant rate (commuted form).
    #[inline]
    fn mul(self, rhs: BitsPerSec) -> Bytes {
        Bytes(self.0 * rhs.0 / BITS_PER_BYTE)
    }
}

// ---------------------------------------------------------------------------
// Unit-specific constructors and conversions.
// ---------------------------------------------------------------------------

impl Seconds {
    /// From milliseconds.
    #[inline]
    pub const fn from_millis(ms: f64) -> Self {
        Seconds(ms * 1e-3)
    }

    /// From microseconds.
    #[inline]
    pub const fn from_micros(us: f64) -> Self {
        Seconds(us * 1e-6)
    }
}

impl BitsPerSec {
    /// From megabits per second (decimal, as the paper's fits are quoted).
    #[inline]
    pub const fn from_mbps(mbps: f64) -> Self {
        BitsPerSec(mbps * 1e6)
    }

    /// As megabits per second.
    #[inline]
    pub const fn mbps(self) -> f64 {
        self.0 / 1e6
    }
}

impl Bytes {
    /// The quantity in bits.
    #[inline]
    pub const fn bits(self) -> f64 {
        self.0 * BITS_PER_BYTE
    }
}

impl Db {
    /// The linear power ratio this decibel value represents.
    #[inline]
    pub fn ratio(self) -> f64 {
        10.0_f64.powf(self.0 / 10.0)
    }
}

impl Joules {
    /// Energy delivered by a constant electrical draw of `watts` over a
    /// duration — the per-leg accounting primitive of the trajectory
    /// planner (`E = P·t`).
    #[inline]
    pub fn from_power_w(watts: f64, over: Seconds) -> Joules {
        Joules(watts * over.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_unit_arithmetic() {
        let a = Meters::new(300.0);
        let b = Meters::new(40.0);
        assert_eq!((a - b).get(), 260.0);
        assert_eq!((a + b).get(), 340.0);
        assert_eq!((-b).get(), -40.0);
        assert_eq!((a * 2.0).get(), 600.0);
        assert_eq!((2.0 * a).get(), 600.0);
        assert_eq!((a / 2.0).get(), 150.0);
        assert_eq!(a / b, 7.5); // dimensionless ratio
    }

    #[test]
    fn assign_ops_and_sum() {
        let mut t = Seconds::new(1.0);
        t += Seconds::new(2.0);
        t -= Seconds::new(0.5);
        t *= 4.0;
        t /= 2.0;
        assert_eq!(t.get(), 5.0);
        let total: Seconds = [1.0, 2.0, 3.0].iter().map(|&s| Seconds::new(s)).sum();
        assert_eq!(total.get(), 6.0);
    }

    #[test]
    fn shipping_time_identity() {
        // Tship = (d0 − d)/v: the airplane baseline at d = 100 m.
        let t = (Meters::new(300.0) - Meters::new(100.0)) / MetersPerSec::new(10.0);
        assert_eq!(t, Seconds::new(20.0));
    }

    #[test]
    fn transmission_time_identity() {
        // Ttx = Mdata/s(d): 28 MB at 12 Mb/s is 28e6·8/12e6 ≈ 18.67 s.
        let t = Bytes::new(28e6) / BitsPerSec::from_mbps(12.0);
        assert!((t.get() - 28e6 * 8.0 / 12e6).abs() < 1e-12);
    }

    #[test]
    fn speed_distance_roundtrip() {
        let v = Meters::new(90.0) / Seconds::new(20.0);
        assert_eq!(v, MetersPerSec::new(4.5));
        assert_eq!(v * Seconds::new(20.0), Meters::new(90.0));
        assert_eq!(Seconds::new(20.0) * v, Meters::new(90.0));
    }

    #[test]
    fn rate_volume_roundtrip() {
        let delivered = BitsPerSec::from_mbps(12.0) * Seconds::new(10.0);
        assert_eq!(delivered, Bytes::new(15e6));
        assert_eq!(Seconds::new(10.0) * BitsPerSec::from_mbps(12.0), delivered);
    }

    #[test]
    fn byte_conversions() {
        assert_eq!(Bytes::new(56.2e6).bits(), 56.2e6 * 8.0);
    }

    #[test]
    fn rate_conversions() {
        let r = BitsPerSec::from_mbps(24.97);
        assert!((r.get() - 24.97e6).abs() < 1e-9);
        assert!((r.mbps() - 24.97).abs() < 1e-12);
    }

    #[test]
    fn db_ratio_roundtrip() {
        for &db in &[-30.0, 0.0, 3.0, 20.0] {
            assert!((10.0 * Db::new(db).ratio().log10() - db).abs() < 1e-12);
        }
        assert!((Db::new(3.0).ratio() - 1.995).abs() < 0.01);
        // Gains add in log domain.
        assert_eq!(Db::new(16.0) + Db::new(2.0) - Db::new(3.0), Db::new(15.0));
    }

    #[test]
    fn joules_from_power() {
        // E = P·t.
        let e = Joules::from_power_w(180.0, Seconds::new(1200.0));
        assert_eq!(e, Joules::new(216_000.0));
    }

    #[test]
    fn ordering_and_helpers() {
        let a = Seconds::new(-2.0);
        assert_eq!(a.abs(), Seconds::new(2.0));
        assert!(Seconds::new(1.0) < Seconds::new(2.0));
        assert_eq!(Seconds::new(1.0).max(Seconds::new(2.0)), Seconds::new(2.0));
        assert_eq!(Seconds::new(1.0).min(Seconds::new(2.0)), Seconds::new(1.0));
        assert_eq!(
            Seconds::new(5.0).clamp(Seconds::ZERO, Seconds::new(3.0)),
            Seconds::new(3.0)
        );
        assert!(Seconds::new(1.0).is_finite());
        assert!(!Seconds::new(f64::INFINITY).is_finite());
        assert_eq!(Seconds::default(), Seconds::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Meters::new(20.0)), "20 m");
        assert_eq!(format!("{:.2}", Seconds::new(1.234)), "1.23 s");
        assert_eq!(format!("{}", BitsPerSec::from_mbps(1.0)), "1000000 bit/s");
        assert_eq!(format!("{:.1}", Db::new(-91.98)), "-92.0 dB");
    }

    #[test]
    fn unit_constructors() {
        assert_eq!(Seconds::from_millis(250.0), Seconds::new(0.25));
        assert_eq!(Seconds::from_micros(4.0), Seconds::new(4.0e-6));
    }

    #[test]
    fn zero_cost_layout() {
        // The newtypes must stay transparent wrappers — same size and
        // alignment as f64 — so hot paths pay nothing for the safety.
        assert_eq!(std::mem::size_of::<Meters>(), std::mem::size_of::<f64>());
        assert_eq!(std::mem::align_of::<Db>(), std::mem::align_of::<f64>());
    }
}
