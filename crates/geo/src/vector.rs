//! 3-D vectors in a local East-North-Up (ENU) frame, in metres.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 3-D vector / position in metres. `x` = east, `y` = north, `z` = up.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// East component (m).
    pub x: f64,
    /// North component (m).
    pub y: f64,
    /// Up component (m) — altitude when used as a position.
    pub z: f64,
}

impl Vec3 {
    /// The origin / zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Construct from components.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Euclidean length.
    pub fn norm(self) -> f64 {
        (self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Squared length (avoids the sqrt when only comparing).
    pub fn norm_squared(self) -> f64 {
        self.x * self.x + self.y * self.y + self.z * self.z
    }

    /// Euclidean distance to another point.
    pub fn distance(self, other: Vec3) -> f64 {
        (self - other).norm()
    }

    /// Horizontal (ground-plane) distance to another point.
    pub fn horizontal_distance(self, other: Vec3) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Dot product.
    pub fn dot(self, other: Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product.
    pub fn cross(self, other: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * other.z - self.z * other.y,
            y: self.z * other.x - self.x * other.z,
            z: self.x * other.y - self.y * other.x,
        }
    }

    /// Unit vector in the same direction; `None` for (near-)zero vectors.
    pub fn normalized(self) -> Option<Vec3> {
        let n = self.norm();
        if n < 1e-12 {
            None
        } else {
            Some(self / n)
        }
    }

    /// Copy with a different altitude.
    pub fn with_altitude(self, z: f64) -> Vec3 {
        Vec3 { z, ..self }
    }

    /// Heading of the horizontal component, radians clockwise from north
    /// (aviation convention). `None` when the vector has no horizontal part.
    pub fn heading_rad(self) -> Option<f64> {
        if self.x.abs() < 1e-12 && self.y.abs() < 1e-12 {
            None
        } else {
            // atan2(east, north): 0 = north, pi/2 = east.
            Some(self.x.atan2(self.y).rem_euclid(2.0 * std::f64::consts::PI))
        }
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}
impl AddAssign for Vec3 {
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}
impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}
impl SubAssign for Vec3 {
    fn sub_assign(&mut self, o: Vec3) {
        *self = *self - o;
    }
}
impl Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}
impl Div<f64> for Vec3 {
    type Output = Vec3;
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}
impl Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn norm_and_distance() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.norm_squared(), 25.0);
        assert_eq!(Vec3::ZERO.distance(v), 5.0);
    }

    #[test]
    fn horizontal_distance_ignores_altitude() {
        let a = Vec3::new(0.0, 0.0, 80.0);
        let b = Vec3::new(30.0, 40.0, 100.0);
        assert_eq!(a.horizontal_distance(b), 50.0);
        assert!((a.distance(b) - (2500.0f64 + 400.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn dot_and_cross() {
        let e = Vec3::new(1.0, 0.0, 0.0);
        let n = Vec3::new(0.0, 1.0, 0.0);
        assert_eq!(e.dot(n), 0.0);
        assert_eq!(e.cross(n), Vec3::new(0.0, 0.0, 1.0));
    }

    #[test]
    fn normalized_unit_and_zero() {
        let v = Vec3::new(0.0, 0.0, 2.0);
        assert_eq!(v.normalized(), Some(Vec3::new(0.0, 0.0, 1.0)));
        assert_eq!(Vec3::ZERO.normalized(), None);
    }

    #[test]
    fn heading_aviation_convention() {
        assert!((Vec3::new(0.0, 1.0, 0.0).heading_rad().unwrap() - 0.0).abs() < 1e-12);
        assert!((Vec3::new(1.0, 0.0, 0.0).heading_rad().unwrap() - FRAC_PI_2).abs() < 1e-12);
        assert!((Vec3::new(0.0, -1.0, 5.0).heading_rad().unwrap() - PI).abs() < 1e-12);
        assert!((Vec3::new(-1.0, 0.0, 0.0).heading_rad().unwrap() - 3.0 * FRAC_PI_2).abs() < 1e-12);
        assert_eq!(Vec3::new(0.0, 0.0, 3.0).heading_rad(), None);
    }

    #[test]
    fn operator_identities() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(v + Vec3::ZERO, v);
        assert_eq!(v - v, Vec3::ZERO);
        assert_eq!(v * 2.0 / 2.0, v);
        assert_eq!(-(-v), v);
        let mut w = v;
        w += v;
        assert_eq!(w, v * 2.0);
        w -= v;
        assert_eq!(w, v);
    }
}
