//! 3x3 matrices, primarily rotation matrices and inertia tensors.

use std::ops::{Add, Mul, Neg, Sub};

use crate::vec3::Vec3;

/// A dense, row-major 3x3 matrix of `f64`.
///
/// # Example
///
/// ```
/// use imufit_math::{Mat3, Vec3};
///
/// let m = Mat3::from_diagonal(Vec3::new(1.0, 2.0, 3.0));
/// assert_eq!(m * Vec3::new(1.0, 1.0, 1.0), Vec3::new(1.0, 2.0, 3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    /// Rows of the matrix.
    pub rows: [[f64; 3]; 3],
}

impl Default for Mat3 {
    fn default() -> Self {
        Mat3::IDENTITY
    }
}

impl Mat3 {
    /// The zero matrix.
    pub const ZERO: Mat3 = Mat3 {
        rows: [[0.0; 3]; 3],
    };

    /// The identity matrix.
    pub const IDENTITY: Mat3 = Mat3 {
        rows: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    };

    /// Builds a matrix from three rows.
    pub const fn from_rows(r0: [f64; 3], r1: [f64; 3], r2: [f64; 3]) -> Mat3 {
        Mat3 { rows: [r0, r1, r2] }
    }

    /// Builds a diagonal matrix.
    pub const fn from_diagonal(d: Vec3) -> Mat3 {
        Mat3 {
            rows: [[d.x, 0.0, 0.0], [0.0, d.y, 0.0], [0.0, 0.0, d.z]],
        }
    }

    /// The skew-symmetric cross-product matrix of `v`, i.e. the matrix `S`
    /// such that `S * w == v.cross(w)` for every `w`.
    pub fn skew(v: Vec3) -> Mat3 {
        Mat3::from_rows([0.0, -v.z, v.y], [v.z, 0.0, -v.x], [-v.y, v.x, 0.0])
    }

    /// Element access: row `r`, column `c`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        self.rows[r][c]
    }

    /// Returns row `r` as a vector.
    pub fn row(&self, r: usize) -> Vec3 {
        Vec3::from_array(self.rows[r])
    }

    /// Returns column `c` as a vector.
    pub fn col(&self, c: usize) -> Vec3 {
        Vec3::new(self.rows[0][c], self.rows[1][c], self.rows[2][c])
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Mat3 {
        let m = &self.rows;
        Mat3::from_rows(
            [m[0][0], m[1][0], m[2][0]],
            [m[0][1], m[1][1], m[2][1]],
            [m[0][2], m[1][2], m[2][2]],
        )
    }

    /// Matrix determinant.
    pub fn determinant(&self) -> f64 {
        let m = &self.rows;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    /// Sum of the diagonal elements.
    pub fn trace(&self) -> f64 {
        self.rows[0][0] + self.rows[1][1] + self.rows[2][2]
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f64) -> Mat3 {
        let mut out = *self;
        for r in 0..3 {
            for c in 0..3 {
                out.rows[r][c] *= s;
            }
        }
        out
    }
}

impl Mul<Vec3> for Mat3 {
    type Output = Vec3;
    fn mul(self, v: Vec3) -> Vec3 {
        Vec3::new(self.row(0).dot(v), self.row(1).dot(v), self.row(2).dot(v))
    }
}

impl Mul for Mat3 {
    type Output = Mat3;
    fn mul(self, rhs: Mat3) -> Mat3 {
        let mut out = Mat3::ZERO;
        for r in 0..3 {
            for c in 0..3 {
                out.rows[r][c] = self.row(r).dot(rhs.col(c));
            }
        }
        out
    }
}

impl Add for Mat3 {
    type Output = Mat3;
    fn add(self, rhs: Mat3) -> Mat3 {
        let mut out = Mat3::ZERO;
        for r in 0..3 {
            for c in 0..3 {
                out.rows[r][c] = self.rows[r][c] + rhs.rows[r][c];
            }
        }
        out
    }
}

impl Sub for Mat3 {
    type Output = Mat3;
    fn sub(self, rhs: Mat3) -> Mat3 {
        let mut out = Mat3::ZERO;
        for r in 0..3 {
            for c in 0..3 {
                out.rows[r][c] = self.rows[r][c] - rhs.rows[r][c];
            }
        }
        out
    }
}

impl Neg for Mat3 {
    type Output = Mat3;
    fn neg(self) -> Mat3 {
        self.scale(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_neutral() {
        let v = Vec3::new(1.0, -2.0, 3.0);
        assert_eq!(Mat3::IDENTITY * v, v);
        let m = Mat3::from_rows([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]);
        assert_eq!(Mat3::IDENTITY * m, m);
        assert_eq!(m * Mat3::IDENTITY, m);
    }

    #[test]
    fn skew_matches_cross_product() {
        let v = Vec3::new(0.3, -1.2, 2.5);
        let w = Vec3::new(-0.7, 0.4, 1.1);
        let s = Mat3::skew(v);
        assert!((s * w - v.cross(w)).norm() < 1e-14);
        // Skew matrices are anti-symmetric.
        assert_eq!(s.transpose(), -s);
    }

    #[test]
    fn transpose_involution() {
        let m = Mat3::from_rows([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().at(0, 1), 4.0);
    }

    #[test]
    fn determinant_of_diagonal() {
        let m = Mat3::from_diagonal(Vec3::new(2.0, 3.0, 4.0));
        assert_eq!(m.determinant(), 24.0);
        assert_eq!(m.trace(), 9.0);
    }

    #[test]
    fn arithmetic() {
        let a = Mat3::from_diagonal(Vec3::splat(1.0));
        let b = Mat3::from_diagonal(Vec3::splat(2.0));
        assert_eq!(a + b, Mat3::from_diagonal(Vec3::splat(3.0)));
        assert_eq!(b - a, a);
        assert_eq!(a.scale(5.0), Mat3::from_diagonal(Vec3::splat(5.0)));
    }

    #[test]
    fn rows_and_cols() {
        let m = Mat3::from_rows([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]);
        assert_eq!(m.row(1), Vec3::new(4.0, 5.0, 6.0));
        assert_eq!(m.col(2), Vec3::new(3.0, 6.0, 9.0));
    }
}
