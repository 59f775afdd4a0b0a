//! Rotor model: quad-X geometry, first-order spin dynamics, thrust and drag
//! torque.

use imufit_math::Vec3;

/// Spin direction of a rotor as seen from above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpinDirection {
    /// Clockwise (produces counter-clockwise reaction torque, +z in FRD).
    Clockwise,
    /// Counter-clockwise.
    CounterClockwise,
}

impl SpinDirection {
    /// Sign of the reaction torque about the body z (down) axis.
    pub fn torque_sign(self) -> f64 {
        match self {
            // A CW-spinning prop exerts a CCW reaction torque on the frame:
            // negative yaw rate contribution in FRD (z down).
            SpinDirection::Clockwise => -1.0,
            SpinDirection::CounterClockwise => 1.0,
        }
    }
}

/// Static description of one rotor position in the airframe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RotorGeometry {
    /// Rotor hub position in the body FRD frame, meters.
    pub position: Vec3,
    /// Spin direction.
    pub direction: SpinDirection,
}

/// The standard quad-X layout used by PX4's default airframes.
///
/// Rotor indices follow the PX4 convention:
/// 0 = front-right (CCW), 1 = back-left (CCW), 2 = front-left (CW),
/// 3 = back-right (CW).
#[derive(Debug, Clone, PartialEq)]
pub struct RotorLayout {
    rotors: Vec<RotorGeometry>,
}

impl RotorLayout {
    /// Creates the quad-X layout with the given arm length (hub-to-hub
    /// distance from the center, meters).
    ///
    /// # Panics
    ///
    /// Panics if `arm_length` is not positive.
    pub fn quad_x(arm_length: f64) -> Self {
        assert!(arm_length > 0.0, "arm length must be positive");
        let a = arm_length / f64::sqrt(2.0);
        RotorLayout {
            rotors: vec![
                RotorGeometry {
                    position: Vec3::new(a, a, 0.0),
                    direction: SpinDirection::CounterClockwise,
                },
                RotorGeometry {
                    position: Vec3::new(-a, -a, 0.0),
                    direction: SpinDirection::CounterClockwise,
                },
                RotorGeometry {
                    position: Vec3::new(a, -a, 0.0),
                    direction: SpinDirection::Clockwise,
                },
                RotorGeometry {
                    position: Vec3::new(-a, a, 0.0),
                    direction: SpinDirection::Clockwise,
                },
            ],
        }
    }

    /// Number of rotors (always 4 for quad-X).
    pub fn count(&self) -> usize {
        self.rotors.len()
    }

    /// Geometry of rotor `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn rotor(&self, i: usize) -> RotorGeometry {
        self.rotors[i]
    }

    /// Iterates over the rotor geometries.
    pub fn iter(&self) -> impl Iterator<Item = &RotorGeometry> {
        self.rotors.iter()
    }
}

/// Dynamic state of a single rotor: normalized speed with a first-order lag.
///
/// Throttle commands are normalized to `[0, 1]`; thrust is quadratic in the
/// normalized speed, `T = max_thrust * speed^2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rotor {
    speed: f64,
    /// Spin-up/down time constant, seconds.
    time_constant: f64,
    /// Thrust at full speed, Newtons.
    max_thrust: f64,
    /// Reaction torque at full speed, Newton-meters.
    max_torque: f64,
}

impl Rotor {
    /// Creates a stopped rotor.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive.
    pub fn new(time_constant: f64, max_thrust: f64, max_torque: f64) -> Self {
        assert!(time_constant > 0.0, "time constant must be positive");
        assert!(max_thrust > 0.0, "max thrust must be positive");
        assert!(max_torque > 0.0, "max torque must be positive");
        Rotor {
            speed: 0.0,
            time_constant,
            max_thrust,
            max_torque,
        }
    }

    /// Advances the rotor speed toward the commanded throttle (clamped to
    /// `[0, 1]`; non-finite commands are treated as zero).
    pub fn step(&mut self, throttle: f64, dt: f64) {
        let cmd = if throttle.is_finite() {
            throttle.clamp(0.0, 1.0)
        } else {
            0.0
        };
        let alpha = (dt / self.time_constant).clamp(0.0, 1.0);
        self.speed += alpha * (cmd - self.speed);
    }

    /// Normalized rotor speed in `[0, 1]`.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Forces the rotor speed (used to start simulations mid-hover).
    #[cfg(test)]
    pub fn set_speed(&mut self, speed: f64) {
        self.speed = speed.clamp(0.0, 1.0);
    }

    /// Current thrust along the body `-z` axis, Newtons.
    pub fn thrust(&self) -> f64 {
        self.max_thrust * self.speed * self.speed
    }

    /// Current reaction-torque magnitude about body z, Newton-meters.
    pub fn torque(&self) -> f64 {
        self.max_torque * self.speed * self.speed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quad_x_geometry() {
        let layout = RotorLayout::quad_x(0.25);
        assert_eq!(layout.count(), 4);
        // All rotors at the same distance from center.
        for r in layout.iter() {
            assert!((r.position.norm() - 0.25).abs() < 1e-12);
        }
        // Two CW and two CCW.
        let ccw = layout
            .iter()
            .filter(|r| r.direction == SpinDirection::CounterClockwise)
            .count();
        assert_eq!(ccw, 2);
        // Diagonal pairs share spin direction (0 & 1 CCW, 2 & 3 CW).
        assert_eq!(layout.rotor(0).direction, layout.rotor(1).direction);
        assert_eq!(layout.rotor(2).direction, layout.rotor(3).direction);
        // Yaw torque cancels when all rotors spin equally.
        let total: f64 = layout.iter().map(|r| r.direction.torque_sign()).sum();
        assert_eq!(total, 0.0);
    }

    #[test]
    #[should_panic(expected = "arm length must be positive")]
    fn quad_x_rejects_bad_arm() {
        let _ = RotorLayout::quad_x(0.0);
    }

    #[test]
    fn rotor_spins_up_to_command() {
        let mut r = Rotor::new(0.05, 8.0, 0.1);
        for _ in 0..500 {
            r.step(0.7, 0.004);
        }
        assert!((r.speed() - 0.7).abs() < 1e-6);
        assert!((r.thrust() - 8.0 * 0.49).abs() < 1e-4);
    }

    #[test]
    fn rotor_lag_delays_response() {
        let mut r = Rotor::new(0.1, 8.0, 0.1);
        r.step(1.0, 0.004);
        // After a single 4 ms step with a 100 ms time constant the rotor is
        // far from full speed.
        assert!(r.speed() < 0.1);
    }

    #[test]
    fn rotor_clamps_command() {
        let mut r = Rotor::new(0.01, 8.0, 0.1);
        for _ in 0..1000 {
            r.step(5.0, 0.004);
        }
        assert!(r.speed() <= 1.0);
        for _ in 0..1000 {
            r.step(-3.0, 0.004);
        }
        assert!(r.speed() >= 0.0);
    }

    #[test]
    fn rotor_ignores_non_finite_command() {
        let mut r = Rotor::new(0.05, 8.0, 0.1);
        r.set_speed(0.5);
        r.step(f64::NAN, 0.004);
        assert!(r.speed().is_finite());
        assert!(r.speed() < 0.5); // decays toward 0
    }

    #[test]
    fn thrust_is_quadratic() {
        let mut r = Rotor::new(0.05, 10.0, 0.2);
        r.set_speed(0.5);
        assert!((r.thrust() - 2.5).abs() < 1e-12);
        assert!((r.torque() - 0.05).abs() < 1e-12);
    }
}
