//! Rigid-body state and its time derivative.

use imufit_math::{Quat, Vec3};

/// Full kinematic state of the rigid body.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RigidBodyState {
    /// Position in the world NED frame, meters. `z` is negative above ground.
    pub position: Vec3,
    /// Velocity in the world NED frame, m/s.
    pub velocity: Vec3,
    /// Attitude quaternion rotating body-frame vectors into the world frame.
    pub attitude: Quat,
    /// Angular rate in the body frame, rad/s.
    pub angular_rate: Vec3,
}

impl Default for RigidBodyState {
    fn default() -> Self {
        RigidBodyState {
            position: Vec3::ZERO,
            velocity: Vec3::ZERO,
            attitude: Quat::IDENTITY,
            angular_rate: Vec3::ZERO,
        }
    }
}

impl RigidBodyState {
    /// A state at rest on the ground at the given NED position.
    pub fn at_rest(position: Vec3) -> Self {
        RigidBodyState {
            position,
            ..Default::default()
        }
    }

    /// Altitude above ground in meters (positive up).
    pub fn altitude(&self) -> f64 {
        -self.position.z
    }

    /// Tilt angle from level, radians.
    pub fn tilt(&self) -> f64 {
        self.attitude.tilt_angle()
    }

    /// True if all components are finite (used to abort diverged runs).
    pub fn is_finite(&self) -> bool {
        self.position.is_finite()
            && self.velocity.is_finite()
            && self.attitude.is_finite()
            && self.angular_rate.is_finite()
    }

    /// Applies a derivative scaled by `dt` (single Euler step), used as the
    /// building block of the RK4 integrator. The attitude is advanced by the
    /// exact exponential map and re-normalized.
    pub fn advanced(&self, d: &StateDerivative, dt: f64) -> RigidBodyState {
        RigidBodyState {
            position: self.position + d.velocity * dt,
            velocity: self.velocity + d.acceleration * dt,
            attitude: self.attitude.integrate(d.body_rate_for_attitude, dt),
            angular_rate: self.angular_rate + d.angular_acceleration * dt,
        }
    }
}

/// Time derivative of a [`RigidBodyState`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StateDerivative {
    /// d(position)/dt — the world-frame velocity.
    pub velocity: Vec3,
    /// d(velocity)/dt — world-frame acceleration, m/s^2.
    pub acceleration: Vec3,
    /// Body angular rate used to advance the attitude quaternion, rad/s.
    pub body_rate_for_attitude: Vec3,
    /// d(angular rate)/dt — body angular acceleration, rad/s^2.
    pub angular_acceleration: Vec3,
}

impl StateDerivative {
    /// Weighted combination of four derivatives (the RK4 reduction
    /// `(k1 + 2 k2 + 2 k3 + k4) / 6`).
    pub fn rk4_blend(k1: &Self, k2: &Self, k3: &Self, k4: &Self) -> Self {
        let w = 1.0 / 6.0;
        StateDerivative {
            velocity: (k1.velocity + k2.velocity * 2.0 + k3.velocity * 2.0 + k4.velocity) * w,
            acceleration: (k1.acceleration
                + k2.acceleration * 2.0
                + k3.acceleration * 2.0
                + k4.acceleration)
                * w,
            body_rate_for_attitude: (k1.body_rate_for_attitude
                + k2.body_rate_for_attitude * 2.0
                + k3.body_rate_for_attitude * 2.0
                + k4.body_rate_for_attitude)
                * w,
            angular_acceleration: (k1.angular_acceleration
                + k2.angular_acceleration * 2.0
                + k3.angular_acceleration * 2.0
                + k4.angular_acceleration)
                * w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_rest_defaults() {
        let s = RigidBodyState::at_rest(Vec3::new(1.0, 2.0, 0.0));
        assert_eq!(s.velocity, Vec3::ZERO);
        assert_eq!(s.attitude, Quat::IDENTITY);
        assert_eq!(s.altitude(), 0.0);
        assert!(s.is_finite());
    }

    #[test]
    fn altitude_sign_convention() {
        let s = RigidBodyState::at_rest(Vec3::new(0.0, 0.0, -15.0));
        assert_eq!(s.altitude(), 15.0);
    }

    #[test]
    fn advanced_integrates_position() {
        let s = RigidBodyState::default();
        let d = StateDerivative {
            velocity: Vec3::new(2.0, 0.0, 0.0),
            ..Default::default()
        };
        let s2 = s.advanced(&d, 0.5);
        assert_eq!(s2.position, Vec3::new(1.0, 0.0, 0.0));
    }

    #[test]
    fn advanced_keeps_quaternion_normalized() {
        let s = RigidBodyState::default();
        let d = StateDerivative {
            body_rate_for_attitude: Vec3::new(10.0, -4.0, 3.0),
            ..Default::default()
        };
        let mut cur = s;
        for _ in 0..1000 {
            cur = cur.advanced(&d, 0.004);
        }
        assert!((cur.attitude.norm() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rk4_blend_of_identical_derivatives() {
        let k = StateDerivative {
            velocity: Vec3::new(1.0, 2.0, 3.0),
            acceleration: Vec3::new(-1.0, 0.5, 0.0),
            body_rate_for_attitude: Vec3::new(0.1, 0.2, 0.3),
            angular_acceleration: Vec3::splat(2.0),
        };
        let blended = StateDerivative::rk4_blend(&k, &k, &k, &k);
        assert!((blended.velocity - k.velocity).norm() < 1e-15);
        assert!((blended.acceleration - k.acceleration).norm() < 1e-15);
        assert!((blended.angular_acceleration - k.angular_acceleration).norm() < 1e-15);
    }

    #[test]
    fn non_finite_detection() {
        let s = RigidBodyState {
            velocity: Vec3::new(f64::NAN, 0.0, 0.0),
            ..Default::default()
        };
        assert!(!s.is_finite());
    }

    #[test]
    fn tilt_is_the_angle_from_level() {
        let s = RigidBodyState {
            attitude: Quat::from_euler(0.3, 0.0, 0.0),
            ..Default::default()
        };
        assert!((s.tilt() - 0.3).abs() < 1e-12);
    }
}
