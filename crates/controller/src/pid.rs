//! A PID controller with output limiting, integrator anti-windup and a
//! filtered derivative term.

use imufit_math::filter::Derivative;

/// PID gains and limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PidConfig {
    /// Proportional gain.
    pub kp: f64,
    /// Integral gain.
    pub ki: f64,
    /// Derivative gain (applied to the *measurement*, not the error, to
    /// avoid derivative kick on setpoint steps).
    pub kd: f64,
    /// Symmetric output limit.
    pub output_limit: f64,
    /// Symmetric limit on the integrator contribution.
    pub integral_limit: f64,
}

impl PidConfig {
    /// A proportional-only configuration.
    pub fn p(kp: f64, output_limit: f64) -> Self {
        PidConfig {
            kp,
            ki: 0.0,
            kd: 0.0,
            output_limit,
            integral_limit: 0.0,
        }
    }
}

/// A single-axis PID controller.
#[derive(Debug, Clone, PartialEq)]
pub struct Pid {
    config: PidConfig,
    integral: f64,
    derivative: Derivative,
}

impl Pid {
    /// Creates a controller with zeroed state.
    pub fn new(config: PidConfig) -> Self {
        Pid {
            config,
            integral: 0.0,
            derivative: Derivative::new(30.0),
        }
    }

    /// Runs one update with the given setpoint and measurement over `dt`
    /// seconds, returning the limited output.
    ///
    /// Non-finite inputs return 0 and freeze the internal state — a fault
    /// upstream must not poison the controller permanently.
    pub fn update(&mut self, setpoint: f64, measurement: f64, dt: f64) -> f64 {
        if !setpoint.is_finite() || !measurement.is_finite() || dt <= 0.0 {
            return 0.0;
        }
        let error = setpoint - measurement;
        let lim = self.config.output_limit;

        // Integrate with clamping anti-windup.
        if self.config.ki > 0.0 {
            self.integral += error * dt * self.config.ki;
            let il = self.config.integral_limit;
            self.integral = self.integral.clamp(-il, il);
        }

        // Derivative on measurement (negated) to avoid setpoint kick.
        let d = -self.derivative.update(measurement, dt);

        let out = self.config.kp * error + self.integral + self.config.kd * d;
        out.clamp(-lim, lim)
    }

    /// Resets integrator and derivative state.
    pub fn reset(&mut self) {
        self.integral = 0.0;
        self.derivative.reset();
    }

    /// The current integrator contribution.
    pub fn integral(&self) -> f64 {
        self.integral
    }
}

/// Three independent PID controllers (one per axis).
#[derive(Debug, Clone, PartialEq)]
pub struct Pid3 {
    axes: [Pid; 3],
}

impl Pid3 {
    /// Creates three identical controllers.
    pub fn new(config: PidConfig) -> Self {
        Pid3 {
            axes: [Pid::new(config), Pid::new(config), Pid::new(config)],
        }
    }

    /// Updates all three axes.
    pub fn update(
        &mut self,
        setpoint: imufit_math::Vec3,
        measurement: imufit_math::Vec3,
        dt: f64,
    ) -> imufit_math::Vec3 {
        imufit_math::Vec3::new(
            self.axes[0].update(setpoint.x, measurement.x, dt),
            self.axes[1].update(setpoint.y, measurement.y, dt),
            self.axes[2].update(setpoint.z, measurement.z, dt),
        )
    }

    /// Resets all axes.
    pub fn reset(&mut self) {
        for axis in &mut self.axes {
            axis.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imufit_math::Vec3;

    #[test]
    fn proportional_action() {
        let mut pid = Pid::new(PidConfig::p(2.0, 100.0));
        assert_eq!(pid.update(5.0, 3.0, 0.01), 4.0);
        assert_eq!(pid.update(0.0, 1.0, 0.01), -2.0);
    }

    #[test]
    fn output_is_limited() {
        let mut pid = Pid::new(PidConfig::p(10.0, 1.0));
        assert_eq!(pid.update(100.0, 0.0, 0.01), 1.0);
        assert_eq!(pid.update(-100.0, 0.0, 0.01), -1.0);
    }

    #[test]
    fn integrator_removes_steady_state_error() {
        let cfg = PidConfig {
            kp: 1.0,
            ki: 2.0,
            kd: 0.0,
            output_limit: 10.0,
            integral_limit: 5.0,
        };
        let mut pid = Pid::new(cfg);
        // Simulate a plant where output directly cancels a disturbance of 3.
        let mut y = 0.0;
        for _ in 0..5000 {
            let u = pid.update(1.0, y, 0.004);
            y += (u - 3.0 - (y - 1.0) * 0.0) * 0.004; // crude first-order plant with bias
            y = y.clamp(-10.0, 10.0);
        }
        assert!((y - 1.0).abs() < 0.05, "steady state y = {y}");
        assert!(pid.integral() > 1.0, "integrator should carry the bias");
    }

    #[test]
    fn integrator_is_clamped() {
        let cfg = PidConfig {
            kp: 0.0,
            ki: 10.0,
            kd: 0.0,
            output_limit: 100.0,
            integral_limit: 2.0,
        };
        let mut pid = Pid::new(cfg);
        for _ in 0..10_000 {
            let _ = pid.update(1.0, 0.0, 0.01);
        }
        assert!(pid.integral() <= 2.0);
    }

    #[test]
    fn non_finite_inputs_yield_zero() {
        let mut pid = Pid::new(PidConfig::p(1.0, 10.0));
        assert_eq!(pid.update(f64::NAN, 0.0, 0.01), 0.0);
        assert_eq!(pid.update(0.0, f64::INFINITY, 0.01), 0.0);
        assert_eq!(pid.update(1.0, 0.0, 0.0), 0.0);
        // State not poisoned: next valid update works.
        assert_eq!(pid.update(2.0, 1.0, 0.01), 1.0);
    }

    #[test]
    fn reset_clears_integrator() {
        let cfg = PidConfig {
            kp: 0.0,
            ki: 1.0,
            kd: 0.0,
            output_limit: 10.0,
            integral_limit: 5.0,
        };
        let mut pid = Pid::new(cfg);
        for _ in 0..100 {
            let _ = pid.update(1.0, 0.0, 0.01);
        }
        assert!(pid.integral() > 0.0);
        pid.reset();
        assert_eq!(pid.integral(), 0.0);
    }

    #[test]
    fn derivative_damps_fast_measurement_changes() {
        let cfg = PidConfig {
            kp: 0.0,
            ki: 0.0,
            kd: 1.0,
            output_limit: 100.0,
            integral_limit: 0.0,
        };
        let mut pid = Pid::new(cfg);
        let _ = pid.update(0.0, 0.0, 0.01);
        // Measurement rising -> derivative on measurement is positive ->
        // output contribution negative (damping).
        let out = pid.update(0.0, 1.0, 0.01);
        assert!(out < 0.0, "expected damping, got {out}");
    }

    #[test]
    fn pid3_updates_axes_independently() {
        let mut pid3 = Pid3::new(PidConfig::p(1.0, 10.0));
        let out = pid3.update(Vec3::new(1.0, 2.0, 3.0), Vec3::ZERO, 0.01);
        assert_eq!(out, Vec3::new(1.0, 2.0, 3.0));
        pid3.reset();
    }
}
