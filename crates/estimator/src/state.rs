//! The navigation (nominal) state estimated by the filter.

use imufit_math::{Quat, Vec3};

/// The nominal navigation state: what the flight controller consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NavState {
    /// Estimated position in the local NED frame, meters.
    pub position: Vec3,
    /// Estimated velocity in the local NED frame, m/s.
    pub velocity: Vec3,
    /// Estimated attitude (body → world).
    pub attitude: Quat,
    /// Estimated gyroscope bias, rad/s.
    pub gyro_bias: Vec3,
    /// Estimated accelerometer bias, m/s^2.
    pub accel_bias: Vec3,
}

impl Default for NavState {
    fn default() -> Self {
        NavState {
            position: Vec3::ZERO,
            velocity: Vec3::ZERO,
            attitude: Quat::IDENTITY,
            gyro_bias: Vec3::ZERO,
            accel_bias: Vec3::ZERO,
        }
    }
}

impl NavState {
    /// Estimated altitude above the local origin, meters (positive up).
    pub fn altitude(&self) -> f64 {
        -self.position.z
    }

    /// Estimated yaw angle, radians.
    pub fn yaw(&self) -> f64 {
        self.attitude.to_euler().2
    }

    /// True if every component is finite.
    pub fn is_finite(&self) -> bool {
        self.position.is_finite()
            && self.velocity.is_finite()
            && self.attitude.is_finite()
            && self.gyro_bias.is_finite()
            && self.accel_bias.is_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_origin_level() {
        let s = NavState::default();
        assert_eq!(s.position, Vec3::ZERO);
        assert_eq!(s.attitude, Quat::IDENTITY);
        assert_eq!(s.altitude(), 0.0);
        assert_eq!(s.yaw(), 0.0);
        assert!(s.is_finite());
    }

    #[test]
    fn altitude_sign() {
        let mut s = NavState::default();
        s.position.z = -12.0;
        assert_eq!(s.altitude(), 12.0);
    }

    #[test]
    fn finiteness() {
        let mut s = NavState::default();
        s.gyro_bias.x = f64::INFINITY;
        assert!(!s.is_finite());
    }
}
