//! Unit quaternions for attitude representation.
//!
//! Convention: `Quat` rotates vectors **from the body frame to the world
//! frame** (Hamilton convention, scalar-first `w, x, y, z`). Euler angles are
//! aerospace ZYX: yaw about world-Z (down), then pitch about Y, then roll
//! about X.

use std::ops::Mul;

use crate::mat3::Mat3;
use crate::vec3::Vec3;

/// A quaternion; when used as an attitude it should be kept (approximately)
/// unit-norm via [`Quat::normalize`].
///
/// # Example
///
/// ```
/// use imufit_math::{Quat, Vec3};
///
/// let roll_90 = Quat::from_euler(std::f64::consts::FRAC_PI_2, 0.0, 0.0);
/// let v = roll_90.rotate(Vec3::new(0.0, 1.0, 0.0));
/// // Rolling 90 degrees maps body-Y onto world-Z (down).
/// assert!((v - Vec3::new(0.0, 0.0, 1.0)).norm() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quat {
    /// Scalar part.
    pub w: f64,
    /// Vector part, x component.
    pub x: f64,
    /// Vector part, y component.
    pub y: f64,
    /// Vector part, z component.
    pub z: f64,
}

impl Default for Quat {
    fn default() -> Self {
        Quat::IDENTITY
    }
}

impl Quat {
    /// The identity rotation.
    pub const IDENTITY: Quat = Quat {
        w: 1.0,
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a quaternion from scalar-first components. The result is not
    /// normalized; call [`Quat::normalize`] if a unit quaternion is required.
    pub const fn new(w: f64, x: f64, y: f64, z: f64) -> Quat {
        Quat { w, x, y, z }
    }

    /// Rotation of `angle` radians about the (not necessarily unit) `axis`.
    ///
    /// Returns the identity if `axis` is (near-)zero.
    pub fn from_axis_angle(axis: Vec3, angle: f64) -> Quat {
        match axis.try_normalize() {
            Some(u) => {
                let half = angle * 0.5;
                let s = half.sin();
                Quat::new(half.cos(), u.x * s, u.y * s, u.z * s)
            }
            None => Quat::IDENTITY,
        }
    }

    /// Builds an attitude from aerospace ZYX Euler angles (radians).
    pub fn from_euler(roll: f64, pitch: f64, yaw: f64) -> Quat {
        let (sr, cr) = (roll * 0.5).sin_cos();
        let (sp, cp) = (pitch * 0.5).sin_cos();
        let (sy, cy) = (yaw * 0.5).sin_cos();
        Quat::new(
            cr * cp * cy + sr * sp * sy,
            sr * cp * cy - cr * sp * sy,
            cr * sp * cy + sr * cp * sy,
            cr * cp * sy - sr * sp * cy,
        )
    }

    /// Pure yaw rotation (about world down axis).
    pub fn from_yaw(yaw: f64) -> Quat {
        Quat::from_euler(0.0, 0.0, yaw)
    }

    /// Extracts ZYX Euler angles `(roll, pitch, yaw)` in radians.
    ///
    /// Pitch is clamped to `[-pi/2, pi/2]`; at the gimbal-lock singularity the
    /// decomposition puts the full rotation into yaw.
    pub fn to_euler(self) -> (f64, f64, f64) {
        let q = self;
        let sinr_cosp = 2.0 * (q.w * q.x + q.y * q.z);
        let cosr_cosp = 1.0 - 2.0 * (q.x * q.x + q.y * q.y);
        let roll = sinr_cosp.atan2(cosr_cosp);

        let sinp = (2.0 * (q.w * q.y - q.z * q.x)).clamp(-1.0, 1.0);
        let pitch = sinp.asin();

        let siny_cosp = 2.0 * (q.w * q.z + q.x * q.y);
        let cosy_cosp = 1.0 - 2.0 * (q.y * q.y + q.z * q.z);
        let yaw = siny_cosp.atan2(cosy_cosp);

        (roll, pitch, yaw)
    }

    /// Quaternion norm.
    pub fn norm(self) -> f64 {
        (self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Returns the normalized (unit) quaternion, or the identity if the norm
    /// is degenerate (zero or non-finite).
    pub fn normalize(self) -> Quat {
        let n = self.norm();
        if n < 1e-12 || !n.is_finite() {
            return Quat::IDENTITY;
        }
        Quat::new(self.w / n, self.x / n, self.y / n, self.z / n)
    }

    /// The conjugate; for unit quaternions this is the inverse rotation.
    pub fn conjugate(self) -> Quat {
        Quat::new(self.w, -self.x, -self.y, -self.z)
    }

    /// Rotates a vector from the body frame into the world frame.
    pub fn rotate(self, v: Vec3) -> Vec3 {
        // v' = v + 2 * qv x (qv x v + w * v)
        let qv = Vec3::new(self.x, self.y, self.z);
        let t = qv.cross(v) * 2.0;
        v + t * self.w + qv.cross(t)
    }

    /// Rotates a vector from the world frame into the body frame.
    pub fn rotate_inverse(self, v: Vec3) -> Vec3 {
        self.conjugate().rotate(v)
    }

    /// Builds a quaternion from a rotation matrix (body → world) using
    /// Shepperd's method. The input must be a proper rotation matrix; the
    /// result is normalized.
    pub fn from_rotation_matrix(m: &Mat3) -> Quat {
        let t = m.trace();
        let q = if t > 0.0 {
            let s = (t + 1.0).sqrt() * 2.0;
            Quat::new(
                0.25 * s,
                (m.at(2, 1) - m.at(1, 2)) / s,
                (m.at(0, 2) - m.at(2, 0)) / s,
                (m.at(1, 0) - m.at(0, 1)) / s,
            )
        } else if m.at(0, 0) > m.at(1, 1) && m.at(0, 0) > m.at(2, 2) {
            let s = (1.0 + m.at(0, 0) - m.at(1, 1) - m.at(2, 2)).sqrt() * 2.0;
            Quat::new(
                (m.at(2, 1) - m.at(1, 2)) / s,
                0.25 * s,
                (m.at(0, 1) + m.at(1, 0)) / s,
                (m.at(0, 2) + m.at(2, 0)) / s,
            )
        } else if m.at(1, 1) > m.at(2, 2) {
            let s = (1.0 + m.at(1, 1) - m.at(0, 0) - m.at(2, 2)).sqrt() * 2.0;
            Quat::new(
                (m.at(0, 2) - m.at(2, 0)) / s,
                (m.at(0, 1) + m.at(1, 0)) / s,
                0.25 * s,
                (m.at(1, 2) + m.at(2, 1)) / s,
            )
        } else {
            let s = (1.0 + m.at(2, 2) - m.at(0, 0) - m.at(1, 1)).sqrt() * 2.0;
            Quat::new(
                (m.at(1, 0) - m.at(0, 1)) / s,
                (m.at(0, 2) + m.at(2, 0)) / s,
                (m.at(1, 2) + m.at(2, 1)) / s,
                0.25 * s,
            )
        };
        q.normalize()
    }

    /// The equivalent rotation matrix (body → world).
    pub fn to_rotation_matrix(self) -> Mat3 {
        let Quat { w, x, y, z } = self;
        Mat3::from_rows(
            [
                1.0 - 2.0 * (y * y + z * z),
                2.0 * (x * y - w * z),
                2.0 * (x * z + w * y),
            ],
            [
                2.0 * (x * y + w * z),
                1.0 - 2.0 * (x * x + z * z),
                2.0 * (y * z - w * x),
            ],
            [
                2.0 * (x * z - w * y),
                2.0 * (y * z + w * x),
                1.0 - 2.0 * (x * x + y * y),
            ],
        )
    }

    /// Integrates the attitude by body angular rate `omega` (rad/s) over `dt`
    /// seconds, returning a normalized quaternion.
    ///
    /// Uses the exact exponential map of the constant-rate assumption, which
    /// is stable for the large rates produced by saturated gyro faults.
    pub fn integrate(self, omega: Vec3, dt: f64) -> Quat {
        let dq = Quat::from_axis_angle(omega, omega.norm() * dt);
        (self * dq).normalize()
    }

    /// The rotation angle in radians (always in `[0, pi]`) of the relative
    /// rotation between `self` and `other`.
    #[cfg(test)]
    pub fn angle_to(self, other: Quat) -> f64 {
        let d = self.conjugate() * other;
        let w = d.w.abs().clamp(0.0, 1.0);
        2.0 * w.acos()
    }

    /// Tilt angle: the angle between the body down axis and the world down
    /// axis, in radians. Zero when level regardless of yaw.
    pub fn tilt_angle(self) -> f64 {
        let body_down_in_world = self.rotate(Vec3::Z);
        body_down_in_world.dot(Vec3::Z).clamp(-1.0, 1.0).acos()
    }

    /// True if every component is finite.
    pub fn is_finite(self) -> bool {
        self.w.is_finite() && self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Mul for Quat {
    type Output = Quat;
    /// Hamilton product; `(a * b).rotate(v) == a.rotate(b.rotate(v))`.
    fn mul(self, r: Quat) -> Quat {
        Quat::new(
            self.w * r.w - self.x * r.x - self.y * r.y - self.z * r.z,
            self.w * r.x + self.x * r.w + self.y * r.z - self.z * r.y,
            self.w * r.y - self.x * r.z + self.y * r.w + self.z * r.x,
            self.w * r.z + self.x * r.y - self.y * r.x + self.z * r.w,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

    fn assert_vec_close(a: Vec3, b: Vec3, tol: f64) {
        assert!((a - b).norm() < tol, "{a} != {b}");
    }

    #[test]
    fn identity_rotation_is_noop() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert_vec_close(Quat::IDENTITY.rotate(v), v, 1e-15);
    }

    #[test]
    fn yaw_rotates_x_to_y() {
        let q = Quat::from_yaw(FRAC_PI_2);
        assert_vec_close(q.rotate(Vec3::X), Vec3::Y, 1e-12);
    }

    #[test]
    fn euler_round_trip() {
        let cases = [
            (0.1, -0.2, 0.3),
            (-1.0, 0.5, 2.9),
            (0.0, 0.0, -3.0),
            (1.2, -1.0, 0.0),
        ];
        for (roll, pitch, yaw) in cases {
            let q = Quat::from_euler(roll, pitch, yaw);
            let (r, p, y) = q.to_euler();
            assert!((r - roll).abs() < 1e-10, "roll {roll}");
            assert!((p - pitch).abs() < 1e-10, "pitch {pitch}");
            assert!((y - yaw).abs() < 1e-10, "yaw {yaw}");
        }
    }

    #[test]
    fn product_composes_rotations() {
        let a = Quat::from_euler(0.3, -0.1, 0.7);
        let b = Quat::from_euler(-0.2, 0.5, -1.1);
        let v = Vec3::new(0.2, -0.9, 0.4);
        assert_vec_close((a * b).rotate(v), a.rotate(b.rotate(v)), 1e-12);
    }

    #[test]
    fn conjugate_inverts() {
        let q = Quat::from_euler(0.4, 0.2, -0.9);
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert_vec_close(q.rotate_inverse(q.rotate(v)), v, 1e-12);
    }

    #[test]
    fn rotation_matrix_agrees_with_rotate() {
        let q = Quat::from_euler(0.7, -0.4, 1.9);
        let v = Vec3::new(-0.3, 1.5, 0.8);
        assert_vec_close(q.to_rotation_matrix() * v, q.rotate(v), 1e-12);
        // Rotation matrices are orthonormal with determinant +1.
        let m = q.to_rotation_matrix();
        assert!((m.determinant() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn axis_angle_zero_axis_is_identity() {
        assert_eq!(Quat::from_axis_angle(Vec3::ZERO, 1.0), Quat::IDENTITY);
    }

    #[test]
    fn integrate_constant_rate() {
        // Integrating a yaw rate of pi/2 rad/s for 1 s in 1000 steps should
        // produce a quarter turn.
        let mut q = Quat::IDENTITY;
        let omega = Vec3::new(0.0, 0.0, FRAC_PI_2);
        for _ in 0..1000 {
            q = q.integrate(omega, 1.0e-3);
        }
        assert_vec_close(q.rotate(Vec3::X), Vec3::Y, 1e-9);
        assert!((q.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tilt_angle_cases() {
        assert!(Quat::IDENTITY.tilt_angle() < 1e-12);
        // Yaw does not tilt.
        assert!(Quat::from_yaw(1.0).tilt_angle() < 1e-12);
        let q = Quat::from_euler(FRAC_PI_4, 0.0, 0.0);
        assert!((q.tilt_angle() - FRAC_PI_4).abs() < 1e-12);
        let upside_down = Quat::from_euler(PI, 0.0, 0.0);
        assert!((upside_down.tilt_angle() - PI).abs() < 1e-9);
    }

    #[test]
    fn angle_between_quaternions() {
        let a = Quat::from_yaw(0.2);
        let b = Quat::from_yaw(0.9);
        assert!((a.angle_to(b) - 0.7).abs() < 1e-12);
        assert!(a.angle_to(a) < 1e-9);
    }

    #[test]
    fn rotation_matrix_round_trip() {
        let cases = [
            Quat::from_euler(0.3, -0.2, 1.1),
            Quat::from_euler(3.0, 0.1, -2.9), // near-PI roll exercises the branches
            Quat::from_euler(0.0, 1.5, 0.0),
            Quat::from_euler(-2.8, -1.2, 0.4),
            Quat::IDENTITY,
        ];
        for q in cases {
            let back = Quat::from_rotation_matrix(&q.to_rotation_matrix());
            // q and -q are the same rotation; compare via relative angle.
            assert!(q.angle_to(back) < 1e-9, "round trip failed for {q:?}");
        }
    }

    #[test]
    fn normalize_handles_degenerate() {
        assert_eq!(Quat::new(0.0, 0.0, 0.0, 0.0).normalize(), Quat::IDENTITY);
        assert_eq!(
            Quat::new(f64::NAN, 0.0, 0.0, 0.0).normalize(),
            Quat::IDENTITY
        );
        let q = Quat::new(2.0, 0.0, 0.0, 0.0).normalize();
        assert!((q.norm() - 1.0).abs() < 1e-15);
    }
}
