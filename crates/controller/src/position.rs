//! Outer-loop position and velocity control: position setpoint → velocity
//! setpoint → acceleration setpoint → (attitude setpoint, collective
//! throttle).

use imufit_math::{Mat3, Quat, Vec3, GRAVITY};

use crate::pid::{Pid3, PidConfig};

/// Position/velocity loop parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PositionParams {
    /// Proportional gain position → velocity, 1/s.
    pub kp_pos: f64,
    /// Velocity PID (horizontal and vertical share gains).
    pub vel: PidConfig,
    /// Maximum horizontal speed, m/s (overridden per mission by the cruise
    /// speed).
    pub max_speed_xy: f64,
    /// Maximum climb rate, m/s.
    pub max_climb: f64,
    /// Maximum descent rate, m/s.
    pub max_descent: f64,
    /// Maximum tilt angle, radians.
    pub max_tilt: f64,
    /// Vehicle mass, kg (for thrust mapping).
    pub mass: f64,
    /// Maximum total thrust of all rotors, Newtons.
    pub max_thrust: f64,
}

impl PositionParams {
    /// Parameters for a vehicle of the given mass and total thrust.
    pub fn for_vehicle(mass: f64, max_thrust: f64) -> Self {
        PositionParams {
            kp_pos: 0.95,
            vel: PidConfig {
                kp: 2.4,
                ki: 0.4,
                kd: 0.0,
                output_limit: 0.85 * GRAVITY,
                integral_limit: 1.5,
            },
            max_speed_xy: 12.0,
            max_climb: 2.0,
            max_descent: 1.2,
            max_tilt: 35.0_f64.to_radians(),
            mass,
            max_thrust,
        }
    }
}

/// Output of the position cascade.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PositionOutput {
    /// Desired attitude.
    pub attitude_sp: Quat,
    /// Collective throttle in `[0, 1]`.
    pub collective: f64,
}

/// The position + velocity controller.
#[derive(Debug, Clone, PartialEq)]
pub struct PositionController {
    params: PositionParams,
    vel_pid: Pid3,
}

impl PositionController {
    /// Creates a controller.
    pub fn new(params: PositionParams) -> Self {
        PositionController {
            params,
            vel_pid: Pid3::new(params.vel),
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &PositionParams {
        &self.params
    }

    /// Computes the velocity setpoint for a position setpoint (P law with
    /// axis-wise speed limits).
    pub fn velocity_setpoint(&self, position: Vec3, position_sp: Vec3, speed_limit: f64) -> Vec3 {
        let err = position_sp - position;
        let p = &self.params;
        // Horizontal: P with norm clamp.
        let v_xy = Vec3::new(err.x, err.y, 0.0) * p.kp_pos;
        let v_xy = v_xy.clamp_norm(speed_limit.min(p.max_speed_xy));
        // Vertical: P with asymmetric clamp (z is down: negative = climb).
        let v_z = (err.z * p.kp_pos).clamp(-p.max_climb, p.max_descent);
        Vec3::new(v_xy.x, v_xy.y, v_z)
    }

    /// Runs the velocity loop: velocity setpoint → attitude + collective.
    pub fn update(
        &mut self,
        velocity: Vec3,
        velocity_sp: Vec3,
        yaw_sp: f64,
        dt: f64,
    ) -> PositionOutput {
        let p = self.params;
        let mut accel_sp = self.vel_pid.update(velocity_sp, velocity, dt);
        // Authority shaping: horizontal acceleration is held to 0.5 g, and
        // the vertical axis is asymmetric — climbing at up to 0.5 g but
        // descending by cutting thrust toward idle (down to 0.85 g of
        // downward acceleration), like PX4's minimum-throttle behaviour
        // when the estimator reports a runaway climb.
        let xy = Vec3::new(accel_sp.x, accel_sp.y, 0.0).clamp_norm(0.5 * GRAVITY);
        accel_sp = Vec3::new(xy.x, xy.y, accel_sp.z.clamp(-0.5 * GRAVITY, 0.85 * GRAVITY));

        // Desired specific thrust: cancel gravity plus the acceleration
        // demand. In NED gravity is +z, so hover needs t = (0, 0, -g).
        let mut thrust_vec = accel_sp - Vec3::new(0.0, 0.0, GRAVITY);
        // Never command upward-pointing body z (negative thrust).
        if thrust_vec.z > -1.0 {
            thrust_vec.z = -1.0;
        }

        // Tilt limit: cap the horizontal component relative to vertical.
        let max_xy = thrust_vec.z.abs() * p.max_tilt.tan();
        let xy = Vec3::new(thrust_vec.x, thrust_vec.y, 0.0).clamp_norm(max_xy);
        thrust_vec = Vec3::new(xy.x, xy.y, thrust_vec.z);

        let attitude_sp = attitude_from_thrust(thrust_vec, yaw_sp);

        // Thrust magnitude → collective throttle (thrust is quadratic in
        // normalized rotor speed).
        let thrust_n = (p.mass * thrust_vec.norm()).min(p.max_thrust);
        let collective = (thrust_n / p.max_thrust).sqrt().clamp(0.0, 1.0);

        PositionOutput {
            attitude_sp,
            collective,
        }
    }

    /// Resets the velocity integrators.
    pub fn reset(&mut self) {
        self.vel_pid.reset();
    }
}

/// Builds the attitude whose body `-z` axis points along `thrust_vec` with
/// the given yaw. Falls back to yaw-only attitude for degenerate thrust.
pub fn attitude_from_thrust(thrust_vec: Vec3, yaw_sp: f64) -> Quat {
    let body_z = match (-thrust_vec).try_normalize() {
        Some(z) => z,
        None => return Quat::from_yaw(yaw_sp),
    };
    // Desired heading direction in the horizontal plane.
    let x_c = Vec3::new(yaw_sp.cos(), yaw_sp.sin(), 0.0);
    let y_b = match body_z.cross(x_c).try_normalize() {
        Some(y) => y,
        // Thrust parallel to heading (pathological); pick any orthogonal.
        None => Vec3::Y,
    };
    let x_b = y_b.cross(body_z);
    let rot = Mat3::from_rows(
        [x_b.x, y_b.x, body_z.x],
        [x_b.y, y_b.y, body_z.y],
        [x_b.z, y_b.z, body_z.z],
    );
    Quat::from_rotation_matrix(&rot)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl() -> PositionController {
        PositionController::new(PositionParams::for_vehicle(1.5, 36.0))
    }

    #[test]
    fn velocity_setpoint_points_at_target() {
        let c = ctl();
        let v = c.velocity_setpoint(Vec3::ZERO, Vec3::new(100.0, 0.0, 0.0), 5.0);
        assert!(v.x > 0.0 && v.y.abs() < 1e-12);
        assert!((v.norm_xy() - 5.0).abs() < 1e-9, "clamped to cruise speed");
    }

    #[test]
    fn velocity_setpoint_respects_climb_limits() {
        let c = ctl();
        // Target far below (descend) and far above (climb).
        let down = c.velocity_setpoint(Vec3::new(0.0, 0.0, -50.0), Vec3::ZERO, 5.0);
        assert!((down.z - 1.2).abs() < 1e-9, "descent limited: {}", down.z);
        let up = c.velocity_setpoint(Vec3::ZERO, Vec3::new(0.0, 0.0, -50.0), 5.0);
        assert!((up.z + 2.0).abs() < 1e-9, "climb limited: {}", up.z);
    }

    #[test]
    fn hover_output_is_level_with_hover_throttle() {
        let mut c = ctl();
        let out = c.update(Vec3::ZERO, Vec3::ZERO, 0.0, 0.02);
        assert!(out.attitude_sp.tilt_angle() < 0.01);
        // Hover: thrust = m g = 14.7 N of 36 N -> collective = sqrt(0.409).
        let expected = (1.5 * GRAVITY / 36.0_f64).sqrt();
        assert!(
            (out.collective - expected).abs() < 0.02,
            "collective {}",
            out.collective
        );
    }

    #[test]
    fn forward_velocity_demand_pitches_nose_down() {
        let mut c = ctl();
        let out = c.update(Vec3::ZERO, Vec3::new(5.0, 0.0, 0.0), 0.0, 0.02);
        let (_, pitch, _) = out.attitude_sp.to_euler();
        // Forward acceleration requires pitching nose down (negative pitch).
        assert!(pitch < -0.05, "pitch {pitch}");
    }

    #[test]
    fn tilt_is_limited() {
        let mut c = ctl();
        let out = c.update(Vec3::ZERO, Vec3::new(100.0, 100.0, 0.0), 0.0, 0.02);
        assert!(out.attitude_sp.tilt_angle() <= 35.5_f64.to_radians());
    }

    #[test]
    fn yaw_setpoint_is_honored() {
        let mut c = ctl();
        let out = c.update(Vec3::ZERO, Vec3::ZERO, 1.2, 0.02);
        let (_, _, yaw) = out.attitude_sp.to_euler();
        assert!((yaw - 1.2).abs() < 1e-6);
    }

    #[test]
    fn attitude_from_thrust_degenerate_falls_back() {
        let q = attitude_from_thrust(Vec3::ZERO, 0.7);
        let (_, _, yaw) = q.to_euler();
        assert!((yaw - 0.7).abs() < 1e-9);
    }

    #[test]
    fn collective_never_exceeds_one() {
        let mut c = ctl();
        let out = c.update(
            Vec3::new(0.0, 0.0, 50.0),
            Vec3::new(0.0, 0.0, -50.0),
            0.0,
            0.02,
        );
        assert!(out.collective <= 1.0 && out.collective >= 0.0);
    }
}
