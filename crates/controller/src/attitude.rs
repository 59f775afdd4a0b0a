//! Attitude (quaternion) P controller: attitude setpoint → body rate
//! setpoint, PX4-style with reduced yaw priority.

use imufit_math::{Quat, Vec3};

/// Attitude controller parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttitudeParams {
    /// Proportional gain on roll/pitch attitude error, 1/s.
    pub kp_rp: f64,
    /// Proportional gain on yaw attitude error, 1/s.
    pub kp_yaw: f64,
    /// Maximum commanded roll/pitch rate, rad/s (PX4 default 220 deg/s).
    pub max_rate_rp: f64,
    /// Maximum commanded yaw rate, rad/s.
    pub max_rate_yaw: f64,
}

impl Default for AttitudeParams {
    fn default() -> Self {
        AttitudeParams {
            kp_rp: 6.0,
            kp_yaw: 3.0,
            max_rate_rp: 220.0_f64.to_radians(),
            max_rate_yaw: 90.0_f64.to_radians(),
        }
    }
}

/// Quaternion attitude controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttitudeController {
    params: AttitudeParams,
}

impl AttitudeController {
    /// Creates a controller.
    pub fn new(params: AttitudeParams) -> Self {
        AttitudeController { params }
    }

    /// Computes the body-rate setpoint that steers `attitude` toward
    /// `setpoint`.
    pub fn update(&self, attitude: Quat, setpoint: Quat) -> Vec3 {
        // Error quaternion in the body frame: q_err = q^-1 * q_sp.
        let mut e = attitude.conjugate() * setpoint;
        // Take the short way around.
        if e.w < 0.0 {
            e = Quat::new(-e.w, -e.x, -e.y, -e.z);
        }
        // Small-angle axis extraction: rate ~ 2 * kp * vec(q_err).
        let p = self.params;
        let rate = Vec3::new(
            2.0 * p.kp_rp * e.x,
            2.0 * p.kp_rp * e.y,
            2.0 * p.kp_yaw * e.z,
        );
        Vec3::new(
            rate.x.clamp(-p.max_rate_rp, p.max_rate_rp),
            rate.y.clamp(-p.max_rate_rp, p.max_rate_rp),
            rate.z.clamp(-p.max_rate_yaw, p.max_rate_yaw),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_4;

    fn ctl() -> AttitudeController {
        AttitudeController::new(AttitudeParams::default())
    }

    #[test]
    fn no_error_no_rate() {
        let q = Quat::from_euler(0.2, -0.1, 1.0);
        assert!(ctl().update(q, q).norm() < 1e-12);
    }

    #[test]
    fn roll_error_commands_roll_rate() {
        let rate = ctl().update(Quat::IDENTITY, Quat::from_euler(0.2, 0.0, 0.0));
        assert!(rate.x > 0.1, "expected positive roll rate, got {rate}");
        assert!(rate.y.abs() < 1e-9 && rate.z.abs() < 1e-6);
    }

    #[test]
    fn yaw_error_commands_yaw_rate() {
        let rate = ctl().update(Quat::IDENTITY, Quat::from_yaw(FRAC_PI_4));
        assert!(rate.z > 0.1);
        assert!(rate.x.abs() < 1e-9);
    }

    #[test]
    fn rates_are_limited() {
        let p = AttitudeParams::default();
        // A full flip demand saturates the rate command.
        let rate = ctl().update(Quat::IDENTITY, Quat::from_euler(3.0, 0.0, 0.0));
        assert!(rate.x <= p.max_rate_rp + 1e-12);
    }

    #[test]
    fn takes_the_short_way() {
        // 350 degrees yaw error should command a negative (short-way) rate.
        let rate = ctl().update(Quat::IDENTITY, Quat::from_yaw(350.0_f64.to_radians()));
        assert!(rate.z < 0.0, "should rotate -10 deg, got {}", rate.z);
    }

    #[test]
    fn opposite_error_sign_flips_rate() {
        let up = ctl().update(Quat::IDENTITY, Quat::from_euler(0.0, 0.3, 0.0));
        let down = ctl().update(Quat::IDENTITY, Quat::from_euler(0.0, -0.3, 0.0));
        assert!((up.y + down.y).abs() < 1e-9);
    }
}
