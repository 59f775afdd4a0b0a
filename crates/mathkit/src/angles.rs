//! Angle wrapping and unit-conversion helpers.

use std::f64::consts::{PI, TAU};

/// Wraps an angle in radians into the half-open interval `(-pi, pi]`.
///
/// # Example
///
/// ```
/// use imufit_math::wrap_pi;
/// use std::f64::consts::PI;
///
/// assert!((wrap_pi(3.0 * PI) - PI).abs() < 1e-12);
/// assert!((wrap_pi(-3.0 * PI) - PI).abs() < 1e-12);
/// ```
pub fn wrap_pi(angle: f64) -> f64 {
    if !angle.is_finite() {
        return angle;
    }
    let mut a = angle % TAU;
    if a <= -PI {
        a += TAU;
    } else if a > PI {
        a -= TAU;
    }
    a
}

/// Wraps an angle in radians into `[0, 2*pi)`.
pub fn wrap_two_pi(angle: f64) -> f64 {
    if !angle.is_finite() {
        return angle;
    }
    let a = angle % TAU;
    if a < 0.0 {
        a + TAU
    } else {
        a
    }
}

/// Smallest signed difference `a - b` between two angles, in `(-pi, pi]`.
pub fn angle_diff(a: f64, b: f64) -> f64 {
    wrap_pi(a - b)
}

/// Degrees to radians.
#[cfg(test)]
#[inline]
pub fn deg_to_rad(deg: f64) -> f64 {
    deg.to_radians()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_pi_basic() {
        assert_eq!(wrap_pi(0.0), 0.0);
        assert!((wrap_pi(PI + 0.1) - (-PI + 0.1)).abs() < 1e-12);
        assert!((wrap_pi(-PI - 0.1) - (PI - 0.1)).abs() < 1e-12);
        // PI maps to PI (half-open at -PI).
        assert!((wrap_pi(PI) - PI).abs() < 1e-12);
    }

    #[test]
    fn wrap_pi_many_turns() {
        for k in -5..=5 {
            let a = 0.3 + (k as f64) * TAU;
            assert!((wrap_pi(a) - 0.3).abs() < 1e-9, "k={k}");
        }
    }

    #[test]
    fn wrap_two_pi_basic() {
        assert!((wrap_two_pi(-0.1) - (TAU - 0.1)).abs() < 1e-12);
        assert!((wrap_two_pi(TAU + 0.2) - 0.2).abs() < 1e-12);
        assert_eq!(wrap_two_pi(0.0), 0.0);
    }

    #[test]
    fn diff_crosses_seam() {
        // 179 deg and -179 deg are 2 degrees apart, not 358.
        let a = deg_to_rad(179.0);
        let b = deg_to_rad(-179.0);
        assert!((angle_diff(a, b) - deg_to_rad(-2.0)).abs() < 1e-12);
        assert!((angle_diff(b, a) - deg_to_rad(2.0)).abs() < 1e-12);
    }

    #[test]
    fn non_finite_passthrough() {
        assert!(wrap_pi(f64::NAN).is_nan());
        assert!(wrap_two_pi(f64::INFINITY).is_infinite());
    }

    #[test]
    fn conversions() {
        assert!((deg_to_rad(180.0) - PI).abs() < 1e-15);
    }
}
