//! The assembled quadrotor: parameters, force/torque model, RK4 stepping.

use imufit_math::{Mat3, Vec3, GRAVITY};

use crate::ground::GroundModel;
use crate::rotor::{Rotor, RotorLayout};
use crate::state::{RigidBodyState, StateDerivative};

/// Physical parameters of a quadrotor airframe.
#[derive(Debug, Clone, PartialEq)]
pub struct QuadrotorParams {
    /// Total mass including payload, kg.
    pub mass: f64,
    /// Diagonal of the body inertia tensor, kg·m^2.
    pub inertia_diag: Vec3,
    /// Center-to-hub arm length, meters.
    pub arm_length: f64,
    /// Rotor spin-up/down time constant, seconds.
    pub rotor_time_constant: f64,
    /// Maximum thrust of a single rotor, Newtons.
    pub rotor_max_thrust: f64,
    /// Maximum reaction torque of a single rotor, Newton-meters.
    pub rotor_max_torque: f64,
    /// Linear aerodynamic drag coefficient, N·s/m (rotor-induced drag).
    pub linear_drag: f64,
    /// Quadratic aerodynamic drag coefficient, N·s^2/m^2.
    pub quadratic_drag: f64,
    /// Quadratic rotational damping, N·m·s^2/rad^2.
    pub angular_drag: f64,
    /// Linear rotational damping from rotor inflow, N·m·s/rad. This is the
    /// dominant passive damping of a hovering multirotor and what keeps an
    /// open-loop (gyro-blind) vehicle from tumbling instantly.
    pub angular_damping: f64,
    /// Overall tip-to-tip dimension of the drone (wingspan equivalent),
    /// meters. Used by the bubble model's `D_o` term.
    pub dimension: f64,
}

impl QuadrotorParams {
    /// A 1.5 kg, 0.5 m class airframe comparable to the PX4 default
    /// simulation vehicle, with a thrust-to-weight ratio of about 2.4.
    pub fn default_airframe() -> Self {
        QuadrotorParams {
            mass: 1.5,
            inertia_diag: Vec3::new(0.029, 0.029, 0.055),
            arm_length: 0.25,
            rotor_time_constant: 0.05,
            rotor_max_thrust: 9.0,
            rotor_max_torque: 0.14,
            linear_drag: 0.35,
            quadratic_drag: 0.025,
            angular_drag: 0.002,
            angular_damping: 0.02,
            dimension: 0.55,
        }
    }

    /// Returns a copy with mass scaled by `payload_kg` added, with inertia
    /// scaled proportionally. Used to express the fleet's payload diversity.
    pub fn with_payload(mut self, payload_kg: f64) -> Self {
        assert!(payload_kg >= 0.0, "payload cannot be negative");
        let scale = (self.mass + payload_kg) / self.mass;
        self.mass += payload_kg;
        self.inertia_diag *= scale;
        self
    }

    /// The per-rotor throttle (normalized speed) that exactly cancels
    /// gravity.
    pub fn hover_throttle(&self) -> f64 {
        (self.mass * GRAVITY / (4.0 * self.rotor_max_thrust)).sqrt()
    }

    /// The body inertia tensor.
    pub fn inertia(&self) -> Mat3 {
        Mat3::from_diagonal(self.inertia_diag)
    }
}

/// A simulated quadrotor: parameters, rotor states, ground model, and the
/// rigid-body state, advanced with RK4.
#[derive(Debug, Clone, PartialEq)]
pub struct Quadrotor {
    params: QuadrotorParams,
    layout: RotorLayout,
    rotors: [Rotor; 4],
    ground: GroundModel,
    state: RigidBodyState,
    /// World-frame acceleration (excluding gravity is NOT applied here; this
    /// is the true kinematic acceleration d(velocity)/dt) from the last step.
    last_acceleration: Vec3,
    /// Body angular acceleration from the last step.
    last_angular_acceleration: Vec3,
}

impl Quadrotor {
    /// Creates a quadrotor at rest at the NED origin.
    pub fn new(params: QuadrotorParams) -> Self {
        Self::with_state(params, RigidBodyState::default())
    }

    /// Creates a quadrotor with an explicit initial state.
    pub fn with_state(params: QuadrotorParams, state: RigidBodyState) -> Self {
        let rotor = Rotor::new(
            params.rotor_time_constant,
            params.rotor_max_thrust,
            params.rotor_max_torque,
        );
        let layout = RotorLayout::quad_x(params.arm_length);
        Quadrotor {
            params,
            layout,
            rotors: [rotor; 4],
            ground: GroundModel::default(),
            state,
            last_acceleration: Vec3::ZERO,
            last_angular_acceleration: Vec3::ZERO,
        }
    }

    /// The airframe parameters.
    pub fn params(&self) -> &QuadrotorParams {
        &self.params
    }

    /// The current rigid-body state.
    pub fn state(&self) -> &RigidBodyState {
        &self.state
    }

    /// World-frame kinematic acceleration from the most recent step, m/s^2.
    pub fn last_acceleration(&self) -> Vec3 {
        self.last_acceleration
    }

    /// Body-frame specific force (what an ideal accelerometer measures):
    /// `R^T * (a - g)`, m/s^2.
    pub fn specific_force_body(&self) -> Vec3 {
        let gravity = Vec3::new(0.0, 0.0, GRAVITY);
        self.state
            .attitude
            .rotate_inverse(self.last_acceleration - gravity)
    }

    /// True body angular rate (what an ideal gyroscope measures), rad/s.
    pub fn angular_rate_body(&self) -> Vec3 {
        self.state.angular_rate
    }

    /// Advances the simulation by `dt` seconds in calm air.
    pub fn step(&mut self, throttles: [f64; 4], dt: f64) {
        self.step_with_wind(throttles, Vec3::ZERO, dt);
    }

    /// Advances the simulation by `dt` seconds with the given world-frame
    /// wind vector.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `dt` is not positive.
    pub fn step_with_wind(&mut self, throttles: [f64; 4], wind: Vec3, dt: f64) {
        debug_assert!(dt > 0.0, "dt must be positive");
        // Rotor lag is integrated first-order at the step boundary; rotor
        // forces are then held constant through the RK4 substeps (the rotor
        // time constant is an order of magnitude above dt, so the error is
        // negligible and the derivative function stays pure).
        for (rotor, &cmd) in self.rotors.iter_mut().zip(throttles.iter()) {
            rotor.step(cmd, dt);
        }

        // The rotors' thrust and torque sums are the same for all four
        // substeps, so they are formed once.
        let total_thrust: f64 = self.rotors.iter().map(Rotor::thrust).sum();
        let mut rotor_torque = Vec3::ZERO;
        for (rotor, geom) in self.rotors.iter().zip(self.layout.iter()) {
            let thrust_body = Vec3::new(0.0, 0.0, -rotor.thrust());
            rotor_torque += geom.position.cross(thrust_body);
            rotor_torque += Vec3::new(0.0, 0.0, geom.direction.torque_sign() * rotor.torque());
        }
        let rotors = (total_thrust, rotor_torque);

        let s = self.state;
        let k1 = self.derivative(&s, wind, rotors);
        let k2 = self.derivative(&s.advanced(&k1, dt * 0.5), wind, rotors);
        let k3 = self.derivative(&s.advanced(&k2, dt * 0.5), wind, rotors);
        let k4 = self.derivative(&s.advanced(&k3, dt), wind, rotors);
        let blend = StateDerivative::rk4_blend(&k1, &k2, &k3, &k4);

        self.state = s.advanced(&blend, dt);
        self.last_acceleration = blend.acceleration;
        self.last_angular_acceleration = blend.angular_acceleration;

        // Safety net: if a fault-driven control cascade produced non-finite
        // numbers, freeze the vehicle where it was; the supervisor in
        // imufit-uav treats this as a crash.
        if !self.state.is_finite() {
            self.state = s;
            self.state.velocity = Vec3::ZERO;
            self.state.angular_rate = Vec3::ZERO;
        }
    }

    /// The force/torque model: computes the state derivative for an
    /// arbitrary state, holding the rotors' `(total thrust, body torque)`
    /// fixed.
    fn derivative(
        &self,
        s: &RigidBodyState,
        wind: Vec3,
        (total_thrust, rotor_torque): (f64, Vec3),
    ) -> StateDerivative {
        let p = &self.params;

        // --- Forces (world frame) ---
        let thrust_world = s.attitude.rotate(Vec3::new(0.0, 0.0, -total_thrust));
        let gravity = Vec3::new(0.0, 0.0, p.mass * GRAVITY);
        let air_rel = s.velocity - wind;
        let drag = -air_rel * p.linear_drag - air_rel * (p.quadratic_drag * air_rel.norm());
        let contact = self.ground.contact_force(s.position, s.velocity, p.mass);
        let force = thrust_world + gravity + drag + contact;

        // --- Torques (body frame) ---
        let mut torque = rotor_torque;
        // Rotational damping: linear rotor-inflow term plus quadratic drag.
        torque -= s.angular_rate * p.angular_damping;
        torque -= s.angular_rate * (p.angular_drag * s.angular_rate.norm());
        // Ground contact also damps rotation strongly (the frame rests on
        // its legs): model as stiff viscous damping when touching.
        if self.ground.in_contact(s.position) {
            torque -= s.angular_rate * 0.2;
            // Legs resist tilting: restoring torque proportional to tilt.
            let tilt_axis = s.attitude.rotate(Vec3::Z).cross(Vec3::Z);
            torque += s.attitude.rotate_inverse(tilt_axis) * 2.0;
        }

        // Euler's equation: I w_dot = tau - w x (I w).
        let inertia = p.inertia();
        let coriolis = s.angular_rate.cross(inertia * s.angular_rate);
        let angular_acceleration = Vec3::new(
            (torque.x - coriolis.x) / p.inertia_diag.x,
            (torque.y - coriolis.y) / p.inertia_diag.y,
            (torque.z - coriolis.z) / p.inertia_diag.z,
        );

        StateDerivative {
            velocity: s.velocity,
            acceleration: force / p.mass,
            body_rate_for_attitude: s.angular_rate,
            angular_acceleration,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imufit_math::Quat;

    fn hover_quad() -> Quadrotor {
        let params = QuadrotorParams::default_airframe();
        let state = RigidBodyState {
            position: Vec3::new(0.0, 0.0, -10.0),
            ..Default::default()
        };
        let mut q = Quadrotor::with_state(params, state);
        let hover = q.params().hover_throttle();
        // Pre-spin rotors so there is no spin-up transient.
        for r in q.rotors.iter_mut() {
            r.set_speed(hover);
        }
        q
    }

    #[test]
    fn hover_throttle_cancels_gravity() {
        let mut q = hover_quad();
        let hover = q.params().hover_throttle();
        for _ in 0..2500 {
            q.step([hover; 4], 0.004);
        }
        // 10 s of hover: should not drift more than a few centimeters.
        assert!(
            (q.state().position - Vec3::new(0.0, 0.0, -10.0)).norm() < 0.1,
            "drifted to {}",
            q.state().position
        );
        assert!(q.state().velocity.norm() < 0.01);
    }

    #[test]
    fn full_throttle_climbs() {
        let mut q = hover_quad();
        for _ in 0..250 {
            q.step([1.0; 4], 0.004);
        }
        assert!(q.state().velocity.z < -2.0, "should climb (negative z vel)");
    }

    #[test]
    fn zero_throttle_falls() {
        let mut q = hover_quad();
        for _ in 0..250 {
            q.step([0.0; 4], 0.004);
        }
        assert!(q.state().velocity.z > 2.0, "should fall");
    }

    #[test]
    fn differential_thrust_rolls() {
        let mut q = hover_quad();
        let h = q.params().hover_throttle();
        // Right rotors (0 front-right, 3 back-right) slower, left faster:
        // positive roll (right side dips).
        for _ in 0..50 {
            q.step([h - 0.05, h + 0.05, h + 0.05, h - 0.05], 0.004);
        }
        let (roll, _, _) = q.state().attitude.to_euler();
        assert!(roll > 0.01, "expected positive roll, got {roll}");
    }

    #[test]
    fn yaw_from_reaction_torque() {
        let mut q = hover_quad();
        let h = q.params().hover_throttle();
        // Speed up CCW rotors (0, 1), slow CW rotors (2, 3): net positive
        // reaction torque about z -> yaw rate builds.
        for _ in 0..250 {
            q.step([h + 0.05, h + 0.05, h - 0.05, h - 0.05], 0.004);
        }
        assert!(
            q.state().angular_rate.z > 0.05,
            "expected positive yaw rate, got {}",
            q.state().angular_rate.z
        );
    }

    #[test]
    fn specific_force_at_hover_is_minus_g_z() {
        let mut q = hover_quad();
        let h = q.params().hover_throttle();
        for _ in 0..500 {
            q.step([h; 4], 0.004);
        }
        let f = q.specific_force_body();
        assert!((f.z + GRAVITY).abs() < 0.2, "specific force z = {}", f.z);
        assert!(f.norm_xy() < 0.1);
    }

    #[test]
    fn free_fall_specific_force_is_zero() {
        let params = QuadrotorParams::default_airframe();
        let state = RigidBodyState {
            position: Vec3::new(0.0, 0.0, -500.0),
            ..Default::default()
        };
        let mut q = Quadrotor::with_state(params, state);
        q.step([0.0; 4], 0.004);
        // Drag is tiny at low speed; specific force should be near zero.
        assert!(q.specific_force_body().norm() < 0.1);
    }

    #[test]
    fn drag_limits_terminal_speed() {
        let params = QuadrotorParams::default_airframe();
        let state = RigidBodyState {
            position: Vec3::new(0.0, 0.0, -10.0),
            velocity: Vec3::new(50.0, 0.0, 0.0),
            ..Default::default()
        };
        let mut q = Quadrotor::with_state(params, state);
        let v0 = q.state().velocity.norm_xy();
        for _ in 0..250 {
            q.step([0.0; 4], 0.004);
        }
        assert!(q.state().velocity.norm_xy() < v0, "drag should decelerate");
    }

    #[test]
    fn wind_pushes_the_vehicle() {
        let mut q = hover_quad();
        let h = q.params().hover_throttle();
        for _ in 0..500 {
            q.step_with_wind([h; 4], Vec3::new(5.0, 0.0, 0.0), 0.004);
        }
        assert!(q.state().velocity.x > 0.1, "wind should push north");
    }

    #[test]
    fn rests_on_ground_without_thrust() {
        let params = QuadrotorParams::default_airframe();
        let mut q = Quadrotor::with_state(params, RigidBodyState::at_rest(Vec3::ZERO));
        for _ in 0..2500 {
            q.step([0.0; 4], 0.004);
        }
        assert!(
            q.state().altitude().abs() < 0.05,
            "should rest at ground level"
        );
        assert!(q.state().velocity.norm() < 0.05);
    }

    #[test]
    fn ground_restores_level_attitude() {
        let params = QuadrotorParams::default_airframe();
        let mut state = RigidBodyState::at_rest(Vec3::ZERO);
        state.attitude = Quat::from_euler(0.3, 0.0, 0.0);
        let mut q = Quadrotor::with_state(params, state);
        for _ in 0..5000 {
            q.step([0.0; 4], 0.004);
        }
        assert!(
            q.state().tilt() < 0.1,
            "legs should level the frame, tilt = {}",
            q.state().tilt()
        );
    }

    #[test]
    fn survives_non_finite_commands() {
        let mut q = hover_quad();
        for _ in 0..100 {
            q.step([f64::NAN, f64::INFINITY, -1.0, 2.0], 0.004);
        }
        assert!(q.state().is_finite());
    }

    #[test]
    fn payload_changes_hover_throttle() {
        let base = QuadrotorParams::default_airframe();
        let heavy = base.clone().with_payload(0.5);
        assert!(heavy.hover_throttle() > base.hover_throttle());
    }

    #[test]
    #[should_panic(expected = "payload cannot be negative")]
    fn negative_payload_panics() {
        let _ = QuadrotorParams::default_airframe().with_payload(-1.0);
    }

    #[test]
    fn rk4_is_deterministic() {
        let mut a = hover_quad();
        let mut b = hover_quad();
        let h = a.params().hover_throttle();
        for i in 0..100 {
            let t = [h + 0.01 * ((i % 3) as f64 - 1.0); 4];
            a.step(t, 0.004);
            b.step(t, 0.004);
        }
        assert_eq!(a.state(), b.state());
    }
}
