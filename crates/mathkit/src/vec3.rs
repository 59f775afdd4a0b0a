//! Three-dimensional vectors over `f64`.
//!
//! [`Vec3`] is the workhorse type of the testbed: positions, velocities,
//! accelerations, angular rates, forces, and torques are all `Vec3`s. The
//! convention throughout the workspace is **NED** (north-east-down) for world
//! frames and **FRD** (forward-right-down) for body frames.

use std::fmt;
use std::iter::Sum;
use std::ops::{
    Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign,
};

/// A 3-D vector of `f64` components.
///
/// # Example
///
/// ```
/// use imufit_math::Vec3;
///
/// let a = Vec3::new(1.0, 2.0, 3.0);
/// let b = Vec3::new(4.0, 5.0, 6.0);
/// assert_eq!(a.dot(b), 32.0);
/// assert_eq!(a.cross(b), Vec3::new(-3.0, 6.0, -3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X (north / forward) component.
    pub x: f64,
    /// Y (east / right) component.
    pub y: f64,
    /// Z (down) component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit vector along x.
    pub const X: Vec3 = Vec3 {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit vector along y.
    pub const Y: Vec3 = Vec3 {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };
    /// Unit vector along z.
    pub const Z: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };

    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Creates a vector with all components equal to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Vec3::new(v, v, v)
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Vec3) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product (right-handed).
    #[inline]
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm (cheaper than [`Vec3::norm`]).
    #[inline]
    pub fn norm_squared(self) -> f64 {
        self.dot(self)
    }

    /// Norm of the horizontal (x, y) components only. Useful for ground
    /// speed and horizontal deviation metrics.
    #[inline]
    pub fn norm_xy(self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Returns the unit vector pointing in the same direction, or `None` if
    /// the norm is smaller than `1e-12`.
    pub fn try_normalize(self) -> Option<Vec3> {
        let n = self.norm();
        if n < 1e-12 {
            None
        } else {
            Some(self / n)
        }
    }

    /// Returns the unit vector in the same direction, or [`Vec3::ZERO`] for a
    /// (near-)zero vector.
    #[cfg(test)]
    pub fn normalize_or_zero(self) -> Vec3 {
        self.try_normalize().unwrap_or(Vec3::ZERO)
    }

    /// Component-wise absolute value.
    #[inline]
    pub fn abs(self) -> Vec3 {
        Vec3::new(self.x.abs(), self.y.abs(), self.z.abs())
    }

    /// Component-wise clamp into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` (propagated from `f64::clamp`).
    #[inline]
    pub fn clamp(self, lo: f64, hi: f64) -> Vec3 {
        Vec3::new(
            self.x.clamp(lo, hi),
            self.y.clamp(lo, hi),
            self.z.clamp(lo, hi),
        )
    }

    /// Limits the norm of the vector to `max`, preserving direction.
    pub fn clamp_norm(self, max: f64) -> Vec3 {
        debug_assert!(max >= 0.0, "clamp_norm called with negative max");
        let n = self.norm();
        if n > max && n > 0.0 {
            self * (max / n)
        } else {
            self
        }
    }

    /// Largest component magnitude (infinity norm).
    #[inline]
    pub fn max_abs(self) -> f64 {
        self.x.abs().max(self.y.abs()).max(self.z.abs())
    }

    /// Linear interpolation: `self` at `t = 0`, `rhs` at `t = 1`.
    #[inline]
    pub fn lerp(self, rhs: Vec3, t: f64) -> Vec3 {
        self + (rhs - self) * t
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(self, rhs: Vec3) -> f64 {
        (self - rhs).norm()
    }

    /// Horizontal (x, y plane) distance to another point.
    #[inline]
    pub fn distance_xy(self, rhs: Vec3) -> f64 {
        (self - rhs).norm_xy()
    }

    /// True if every component is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// Returns the components as an array `[x, y, z]`.
    #[inline]
    pub fn to_array(self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }

    /// Creates a vector from an array `[x, y, z]`.
    #[inline]
    pub fn from_array(a: [f64; 3]) -> Vec3 {
        Vec3::new(a[0], a[1], a[2])
    }

    /// Applies `f` to every component.
    #[inline]
    pub fn map(self, mut f: impl FnMut(f64) -> f64) -> Vec3 {
        Vec3::new(f(self.x), f(self.y), f(self.z))
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4}, {:.4})", self.x, self.y, self.z)
    }
}

impl From<[f64; 3]> for Vec3 {
    fn from(a: [f64; 3]) -> Self {
        Vec3::from_array(a)
    }
}

impl From<Vec3> for [f64; 3] {
    fn from(v: Vec3) -> Self {
        v.to_array()
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;

    /// # Panics
    ///
    /// Panics if `i > 2`.
    fn index(&self, i: usize) -> &f64 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl IndexMut<usize> for Vec3 {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl MulAssign<f64> for Vec3 {
    #[inline]
    fn mul_assign(&mut self, s: f64) {
        *self = *self * s;
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl DivAssign<f64> for Vec3 {
    #[inline]
    fn div_assign(&mut self, s: f64) {
        *self = *self / s;
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Sum for Vec3 {
    fn sum<I: Iterator<Item = Vec3>>(iter: I) -> Vec3 {
        iter.fold(Vec3::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_constants() {
        assert_eq!(Vec3::default(), Vec3::ZERO);
        assert_eq!(Vec3::splat(2.0), Vec3::new(2.0, 2.0, 2.0));
        assert_eq!(Vec3::X + Vec3::Y + Vec3::Z, Vec3::splat(1.0));
    }

    #[test]
    fn dot_and_cross() {
        let a = Vec3::new(1.0, 0.0, 0.0);
        let b = Vec3::new(0.0, 1.0, 0.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), Vec3::new(0.0, 0.0, 1.0));
        // Anti-commutativity.
        assert_eq!(b.cross(a), Vec3::new(0.0, 0.0, -1.0));
    }

    #[test]
    fn norms() {
        let v = Vec3::new(3.0, 4.0, 12.0);
        assert_eq!(v.norm(), 13.0);
        assert_eq!(v.norm_squared(), 169.0);
        assert_eq!(v.norm_xy(), 5.0);
        assert_eq!(v.max_abs(), 12.0);
    }

    #[test]
    fn normalize() {
        let v = Vec3::new(0.0, 3.0, 4.0);
        let n = v.try_normalize().unwrap();
        assert!((n.norm() - 1.0).abs() < 1e-15);
        assert!(Vec3::ZERO.try_normalize().is_none());
        assert_eq!(Vec3::ZERO.normalize_or_zero(), Vec3::ZERO);
    }

    #[test]
    fn clamp_norm_preserves_direction() {
        let v = Vec3::new(6.0, 8.0, 0.0); // norm 10
        let c = v.clamp_norm(5.0);
        assert!((c.norm() - 5.0).abs() < 1e-12);
        assert!((c.normalize_or_zero() - v.normalize_or_zero()).norm() < 1e-12);
        // Vectors below the limit are unchanged.
        assert_eq!(v.clamp_norm(20.0), v);
        assert_eq!(Vec3::ZERO.clamp_norm(1.0), Vec3::ZERO);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::splat(3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec3::new(0.5, 1.0, 1.5));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));

        let mut c = a;
        c += b;
        c -= a;
        c *= 2.0;
        c /= 2.0;
        assert_eq!(c, b);
    }

    #[test]
    fn interpolation_and_distance() {
        let a = Vec3::ZERO;
        let b = Vec3::new(10.0, 0.0, 0.0);
        assert_eq!(a.lerp(b, 0.5), Vec3::new(5.0, 0.0, 0.0));
        assert_eq!(a.distance(b), 10.0);
        assert_eq!(a.distance_xy(Vec3::new(3.0, 4.0, 100.0)), 5.0);
    }

    #[test]
    fn indexing() {
        let mut v = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(v[0], 1.0);
        v[2] = 9.0;
        assert_eq!(v.z, 9.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_out_of_range_panics() {
        let _ = Vec3::ZERO[3];
    }

    #[test]
    fn finite_checks() {
        assert!(Vec3::new(1.0, 2.0, 3.0).is_finite());
        assert!(!Vec3::new(f64::NAN, 0.0, 0.0).is_finite());
        assert!(!Vec3::new(0.0, f64::INFINITY, 0.0).is_finite());
    }

    #[test]
    fn array_round_trip() {
        let v = Vec3::new(1.0, -2.0, 3.5);
        let a: [f64; 3] = v.into();
        assert_eq!(Vec3::from(a), v);
    }

    #[test]
    fn sum_of_vectors() {
        let total: Vec3 = (0..4).map(|i| Vec3::splat(i as f64)).sum();
        assert_eq!(total, Vec3::splat(6.0));
    }

    #[test]
    fn map_applies_per_component() {
        let v = Vec3::new(-1.0, 2.0, -3.0).map(f64::abs);
        assert_eq!(v, Vec3::new(1.0, 2.0, 3.0));
    }
}
