//! Stack-allocated dense matrices with const-generic dimensions.
//!
//! [`SMatrix`] holds the 15x15 covariance of the error-state EKF in
//! `imufit-estimator`. It is deliberately small: row-major `[[f64; C]; R]`
//! storage, no allocation, and only what the filter and its consistency
//! tests need (construction, row access, transpose, symmetrization and
//! Cholesky factorization). The filter applies its sparse Jacobian to the
//! rows itself, so there is no general matrix product.

use std::ops::{Index, IndexMut};

/// A dense `R x C` matrix of `f64` stored row-major on the stack.
///
/// # Example
///
/// ```
/// use imufit_math::SMatrix;
///
/// let a = SMatrix::<2, 2>::from_rows([[1.0, 2.0], [4.0, 5.0]]);
/// let s = a.symmetrize();
/// assert_eq!(s[(0, 1)], 3.0);
/// assert_eq!(s, s.transpose());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SMatrix<const R: usize, const C: usize> {
    data: [[f64; C]; R],
}

impl<const R: usize, const C: usize> SMatrix<R, C> {
    /// The all-zeros matrix.
    pub const fn zeros() -> Self {
        SMatrix {
            data: [[0.0; C]; R],
        }
    }

    /// Builds a matrix from rows.
    pub const fn from_rows(rows: [[f64; C]; R]) -> Self {
        SMatrix { data: rows }
    }

    /// The rows.
    pub const fn rows(&self) -> &[[f64; C]; R] {
        &self.data
    }

    /// The rows, for writing in place.
    pub fn rows_mut(&mut self) -> &mut [[f64; C]; R] {
        &mut self.data
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros();
        for r in 0..R {
            for c in 0..C {
                m.data[r][c] = f(r, c);
            }
        }
        m
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> SMatrix<C, R> {
        SMatrix::<C, R>::from_fn(|r, c| self.data[c][r])
    }
}

impl<const N: usize> SMatrix<N, N> {
    /// A diagonal matrix with the given diagonal entries.
    pub fn from_diagonal(diag: [f64; N]) -> Self {
        Self::from_fn(|r, c| if r == c { diag[r] } else { 0.0 })
    }

    /// Returns `(self + self^T) / 2`, forcing exact symmetry. Used to keep
    /// EKF covariances symmetric in the face of floating-point drift.
    ///
    /// Works in place on the upper triangle; every element, the diagonal
    /// included, is `0.5 * (a + b)` of the two mirrored inputs.
    pub fn symmetrize(mut self) -> Self {
        for r in 0..N {
            for c in r..N {
                let v = 0.5 * (self.data[r][c] + self.data[c][r]);
                self.data[r][c] = v;
                self.data[c][r] = v;
            }
        }
        self
    }

    /// The diagonal as an array.
    pub fn diagonal(&self) -> [f64; N] {
        let mut d = [0.0; N];
        for (i, di) in d.iter_mut().enumerate() {
            *di = self.data[i][i];
        }
        d
    }

    /// Cholesky factorization `self = L * L^T` for a symmetric
    /// positive-definite matrix. Returns the lower-triangular factor `L`, or
    /// `None` if the matrix is not positive definite.
    pub fn cholesky(&self) -> Option<Self> {
        let mut l = Self::zeros();
        for i in 0..N {
            for j in 0..=i {
                let mut sum = self.data[i][j];
                for k in 0..j {
                    sum -= l.data[i][k] * l.data[j][k];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return None;
                    }
                    l.data[i][j] = sum.sqrt();
                } else {
                    l.data[i][j] = sum / l.data[j][j];
                }
            }
        }
        Some(l)
    }
}

impl<const R: usize, const C: usize> Index<(usize, usize)> for SMatrix<R, C> {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r][c]
    }
}

impl<const R: usize, const C: usize> IndexMut<(usize, usize)> for SMatrix<R, C> {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r][c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_round_trip() {
        let a = SMatrix::<3, 5>::from_fn(|r, c| (r * 10 + c) as f64);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(4, 2)], a[(2, 4)]);
        assert_eq!(a.rows()[2][4], 24.0);
        assert_eq!(SMatrix::from_rows(*a.rows()), a);
    }

    #[test]
    fn symmetrize_forces_symmetry() {
        let m = SMatrix::<3, 3>::from_rows([[1.0, 2.0, 3.0], [0.0, 5.0, 6.0], [1.0, 0.0, 9.0]]);
        let s = m.symmetrize();
        assert_eq!(s, s.transpose());
        assert_eq!(s.diagonal(), m.diagonal());
        assert_eq!(s[(0, 2)], 2.0);
        // Matches the out-of-place definition element for element.
        let reference = SMatrix::<3, 3>::from_fn(|r, c| 0.5 * (m[(r, c)] + m[(c, r)]));
        assert_eq!(s, reference);
    }

    #[test]
    fn cholesky_of_spd() {
        // A = L0 * L0^T with a known L0; every step of the factorization is
        // exact in binary floating point.
        let l0 = SMatrix::<3, 3>::from_rows([[2.0, 0.0, 0.0], [1.0, 3.0, 0.0], [0.5, -1.0, 1.5]]);
        let a = SMatrix::<3, 3>::from_rows([[4.0, 2.0, 1.0], [2.0, 10.0, -2.5], [1.0, -2.5, 3.5]]);
        assert_eq!(a.cholesky(), Some(l0));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let m = SMatrix::<2, 2>::from_rows([[1.0, 2.0], [2.0, 1.0]]); // eigenvalues 3, -1
        assert!(m.cholesky().is_none());
    }

    #[test]
    fn diagonal_constructor() {
        let d = SMatrix::<3, 3>::from_diagonal([1.0, 2.0, 3.0]);
        assert_eq!(d.diagonal(), [1.0, 2.0, 3.0]);
        assert_eq!(d[(0, 1)], 0.0);
    }
}
