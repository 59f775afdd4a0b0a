//! Body-rate PID controller: rate setpoint → normalized torque demands.
//!
//! This is the innermost loop and the one that consumes the (possibly
//! fault-corrupted) gyroscope directly — which is why gyro faults are so
//! immediately destabilizing.

use imufit_math::Vec3;

use crate::pid::{Pid, PidConfig};

/// Rate controller parameters (normalized torque per rad/s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateParams {
    /// Roll/pitch PID configuration.
    pub rp: PidConfig,
    /// Yaw PID configuration.
    pub yaw: PidConfig,
}

impl Default for RateParams {
    fn default() -> Self {
        RateParams {
            rp: PidConfig {
                kp: 0.12,
                ki: 0.05,
                kd: 0.0025,
                output_limit: 0.6,
                integral_limit: 0.1,
            },
            yaw: PidConfig {
                kp: 0.1,
                ki: 0.05,
                kd: 0.0,
                output_limit: 0.3,
                integral_limit: 0.1,
            },
        }
    }
}

/// Normalized torque demand per axis (roll, pitch, yaw).
#[derive(Debug, Clone, PartialEq)]
pub struct RateController {
    roll: Pid,
    pitch: Pid,
    yaw: Pid,
}

impl RateController {
    /// Creates a controller.
    pub fn new(params: RateParams) -> Self {
        RateController {
            roll: Pid::new(params.rp),
            pitch: Pid::new(params.rp),
            yaw: Pid::new(params.yaw),
        }
    }

    /// Computes normalized torque commands from the rate setpoint and the
    /// *measured* body rate (straight from the gyro, like PX4).
    pub fn update(&mut self, setpoint: Vec3, measured: Vec3, dt: f64) -> Vec3 {
        Vec3::new(
            self.roll.update(setpoint.x, measured.x, dt),
            self.pitch.update(setpoint.y, measured.y, dt),
            self.yaw.update(setpoint.z, measured.z, dt),
        )
    }

    /// Resets integrators (mode transitions, landing).
    pub fn reset(&mut self) {
        self.roll.reset();
        self.pitch.reset();
        self.yaw.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_error_zero_torque() {
        let mut c = RateController::new(RateParams::default());
        let out = c.update(Vec3::ZERO, Vec3::ZERO, 0.004);
        assert!(out.norm() < 1e-12);
    }

    #[test]
    fn positive_rate_error_positive_torque() {
        let mut c = RateController::new(RateParams::default());
        let out = c.update(Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO, 0.004);
        assert!(out.x > 0.05);
    }

    #[test]
    fn torque_is_limited() {
        let mut c = RateController::new(RateParams::default());
        let out = c.update(Vec3::splat(100.0), Vec3::splat(-100.0), 0.004);
        assert!(out.x <= 0.6 && out.y <= 0.6 && out.z <= 0.3);
    }

    #[test]
    fn saturated_gyro_produces_bounded_but_extreme_command() {
        // A Min-fault gyro reads -2000 deg/s: the controller slams to its
        // output limit — this is the mechanism behind the paper's
        // "Gyro Min causes immediate crash" finding.
        let mut c = RateController::new(RateParams::default());
        let fault = Vec3::splat(-(2000.0_f64.to_radians()));
        let out = c.update(Vec3::ZERO, fault, 0.004);
        assert!(
            (out.x - 0.6).abs() < 1e-12,
            "expected saturated torque, got {out}"
        );
    }

    #[test]
    fn non_finite_gyro_yields_zero() {
        let mut c = RateController::new(RateParams::default());
        let out = c.update(Vec3::ZERO, Vec3::new(f64::NAN, 0.0, 0.0), 0.004);
        assert_eq!(out.x, 0.0);
    }
}
