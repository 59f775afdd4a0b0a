//! The flight controller: a PX4-like cascaded control stack with a mission
//! mode machine and sensor-failure failsafe.
//!
//! Control cascade (rates as configured for the testbed):
//!
//! ```text
//! position (50 Hz) -> velocity (50 Hz) -> attitude (250 Hz) -> rate (250 Hz) -> mixer
//! ```
//!
//! The outer loops consume the EKF's [`NavState`]; the innermost rate loop
//! consumes the raw (possibly fault-corrupted) gyro sample directly, exactly
//! like PX4 — which is why gyroscope faults destabilize the vehicle faster
//! than accelerometer faults in the paper's results.
//!
//! # Example
//!
//! ```
//! use imufit_controller::{ControllerParams, FlightController, FlightPlan, Waypoint};
//! use imufit_estimator::NavState;
//! use imufit_sensors::ImuSample;
//! use imufit_math::Vec3;
//!
//! let plan = FlightPlan::new(Vec3::ZERO, 18.0, vec![Waypoint::at(100.0, 0.0, 18.0)], 5.0);
//! let mut fc = FlightController::new(ControllerParams::default_airframe(), plan);
//! let nav = NavState::default();
//! let imu = ImuSample { accel: Vec3::new(0.0, 0.0, -9.8), gyro: Vec3::ZERO, time: 0.0 };
//! let out = fc.update(0.0, 0.004, &nav, &imu, false);
//! assert!(out.throttles.iter().all(|t| (0.0..=1.0).contains(t)));
//! ```

pub mod attitude;
pub mod failsafe;
pub mod mitigation;
pub mod mixer;
pub mod pid;
pub mod plan;
pub mod position;
pub mod rate;

use serde::{Deserialize, Serialize};

pub use attitude::{AttitudeController, AttitudeParams};
pub use failsafe::{FailsafeParams, FailsafePhase, FailsafeReason, FailureDetector};
pub use mitigation::{
    CascadeTransition, DegradedMode, MitigationLevel, RecoveryCascade, RedundancyStatus,
};
pub use mixer::{ActuatorDemand, Mixer};
pub use pid::{Pid, Pid3, PidConfig};
pub use plan::{FlightPlan, Waypoint};
pub use position::{PositionController, PositionOutput, PositionParams};
pub use rate::{RateController, RateParams};

use imufit_estimator::NavState;
use imufit_math::Vec3;
use imufit_sensors::ImuSample;

/// Full controller configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControllerParams {
    /// Outer-loop parameters.
    pub position: PositionParams,
    /// Attitude loop parameters.
    pub attitude: AttitudeParams,
    /// Rate loop parameters.
    pub rate: RateParams,
    /// Failure detection / failsafe parameters.
    pub failsafe: FailsafeParams,
    /// The position loop runs once every this many base ticks (250 Hz base,
    /// 5 => 50 Hz).
    pub position_decimation: u32,
    /// Maximum yaw-setpoint slew rate, rad/s. Heading changes are ramped at
    /// this rate so commanded yaw rates stay plausible (instant 180-degree
    /// setpoint steps would trip the gyro plausibility check).
    pub yaw_slew_rate: f64,
    /// Horizontal speed used during takeoff and landing, m/s.
    pub vertical_phase_speed: f64,
}

impl ControllerParams {
    /// Parameters matched to `imufit_dynamics::QuadrotorParams::default_airframe`
    /// (1.5 kg, 36 N total thrust).
    pub fn default_airframe() -> Self {
        Self::for_vehicle(1.5, 36.0)
    }

    /// Parameters for a vehicle of the given mass and total thrust; the
    /// accel plausibility bound scales with thrust-to-weight.
    pub fn for_vehicle(mass: f64, max_thrust: f64) -> Self {
        // "Vehicle specifications" drive the accel bound: the airframe
        // cannot exceed thrust/mass plus gravity; the 2.5 margin leaves
        // room for transients and sensor noise.
        let failsafe = FailsafeParams {
            accel_max: 2.5 * (max_thrust / mass + imufit_math::GRAVITY),
            ..Default::default()
        };
        ControllerParams {
            position: PositionParams::for_vehicle(mass, max_thrust),
            attitude: AttitudeParams::default(),
            rate: RateParams::default(),
            failsafe,
            position_decimation: 5,
            yaw_slew_rate: 45.0_f64.to_radians(),
            vertical_phase_speed: 2.0,
        }
    }
}

/// The flight mode state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlightMode {
    /// On the ground, motors off, waiting to arm.
    PreFlight,
    /// Climbing to the mission altitude above home.
    Takeoff,
    /// Flying the waypoint sequence; the payload is the current waypoint
    /// index.
    Mission(usize),
    /// Descending at the final waypoint.
    Land,
    /// Failsafe: descending at the position captured when failsafe latched.
    FailsafeLand,
    /// Landed and disarmed after a completed mission.
    Completed,
}

/// One control tick's output.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControlOutput {
    /// Normalized rotor throttles.
    pub throttles: [f64; 4],
    /// True when the failsafe isolation logic wants the redundant IMU bank
    /// to switch its primary instance.
    pub rotate_imu: bool,
}

/// The assembled flight controller.
#[derive(Debug, Clone)]
pub struct FlightController {
    params: ControllerParams,
    plan: FlightPlan,
    mode: FlightMode,
    position_ctl: PositionController,
    attitude_ctl: AttitudeController,
    rate_ctl: RateController,
    mixer: Mixer,
    detector: FailureDetector,
    tick: u64,
    latest_position_out: PositionOutput,
    rate_setpoint: Vec3,
    /// Rate-loop torque from the previous tick; held verbatim when the gyro
    /// stream dies (exactly-zero samples), like a driver-level dropout where
    /// downstream consumers keep the last actuator trim instead of chasing a
    /// dead signal.
    held_torque: Vec3,
    yaw_setpoint: f64,
    yaw_target: f64,
    yaw_initialized: bool,
    failsafe_capture: Vec3,
    landed_since: Option<f64>,
    disarmed: bool,
    cascade: RecoveryCascade,
}

impl FlightController {
    /// Creates a controller for a plan; the vehicle arms and takes off on
    /// the first update.
    pub fn new(params: ControllerParams, plan: FlightPlan) -> Self {
        let first_wp = plan.waypoints[0].position;
        let to_first = first_wp - plan.home;
        let initial_yaw = if to_first.norm_xy() > 1.0 {
            to_first.y.atan2(to_first.x)
        } else {
            0.0
        };
        FlightController {
            position_ctl: PositionController::new(params.position),
            attitude_ctl: AttitudeController::new(params.attitude),
            rate_ctl: RateController::new(params.rate),
            mixer: Mixer::new(),
            detector: FailureDetector::new(params.failsafe),
            params,
            plan,
            mode: FlightMode::PreFlight,
            tick: 0,
            latest_position_out: PositionOutput {
                attitude_sp: imufit_math::Quat::IDENTITY,
                collective: 0.0,
            },
            rate_setpoint: Vec3::ZERO,
            held_torque: Vec3::ZERO,
            yaw_setpoint: 0.0,
            yaw_target: initial_yaw,
            yaw_initialized: false,
            failsafe_capture: Vec3::ZERO,
            landed_since: None,
            disarmed: false,
            cascade: RecoveryCascade::new(),
        }
    }

    /// The current flight mode.
    pub fn mode(&self) -> FlightMode {
        self.mode
    }

    /// The flight plan being executed.
    pub fn plan(&self) -> &FlightPlan {
        &self.plan
    }

    /// The failsafe state machine phase.
    pub fn failsafe_phase(&self) -> FailsafePhase {
        self.detector.phase()
    }

    /// True once failsafe has latched.
    pub fn failsafe_active(&self) -> bool {
        self.detector.failsafe_active()
    }

    /// The latched failsafe reason, if any.
    pub fn failsafe_reason(&self) -> Option<FailsafeReason> {
        self.detector.active_reason()
    }

    /// True when the vehicle has landed and disarmed after completing the
    /// full mission (the paper's "mission completed" criterion: neither
    /// crashed nor failsafe enabled).
    pub fn mission_completed(&self) -> bool {
        self.mode == FlightMode::Completed && !self.failsafe_active()
    }

    /// True when motors are commanded off after landing.
    pub fn is_disarmed(&self) -> bool {
        self.disarmed
    }

    /// The recovery cascade (current mitigation level, degraded mode).
    pub fn cascade(&self) -> &RecoveryCascade {
        &self.cascade
    }

    /// The current mitigation level.
    pub fn mitigation_level(&self) -> MitigationLevel {
        self.cascade.level()
    }

    /// Drains the cascade's recorded transitions (for the flight log).
    pub fn take_cascade_transitions(&mut self) -> Vec<CascadeTransition> {
        self.cascade.take_transitions()
    }

    /// Latches failsafe on behalf of an external detection system and
    /// switches to the failsafe-landing mode at the current estimated
    /// position.
    pub fn trigger_external_failsafe(&mut self, t: f64, nav: &NavState) {
        if !self.detector.failsafe_active()
            && !matches!(self.mode, FlightMode::PreFlight | FlightMode::Completed)
        {
            self.detector.trigger_external(t);
            self.failsafe_capture = nav.position;
            self.mode = FlightMode::FailsafeLand;
            self.position_ctl.reset();
        }
    }

    /// Runs one 250 Hz control tick.
    ///
    /// * `t` — flight time, s.
    /// * `nav` — the EKF estimate.
    /// * `imu` — the (possibly corrupted) IMU sample for rate feedback and
    ///   plausibility checks.
    /// * `estimator_rejecting` — EKF innovation-rejection flag.
    pub fn update(
        &mut self,
        t: f64,
        dt: f64,
        nav: &NavState,
        imu: &ImuSample,
        estimator_rejecting: bool,
    ) -> ControlOutput {
        self.update_with_redundancy(
            t,
            dt,
            nav,
            imu,
            estimator_rejecting,
            RedundancyStatus::default(),
        )
    }

    /// [`FlightController::update`] plus the redundancy layer's health
    /// report, which drives the graceful-degradation cascade: an excluded
    /// or substituted instance registers as a mitigation level, and a
    /// channel that stays implausible after redundancy acted drops the
    /// rate loop into its degraded fallback.
    pub fn update_with_redundancy(
        &mut self,
        t: f64,
        dt: f64,
        nav: &NavState,
        imu: &ImuSample,
        estimator_rejecting: bool,
        mut redundancy: RedundancyStatus,
    ) -> ControlOutput {
        self.tick += 1;

        if self.disarmed {
            return ControlOutput {
                throttles: [0.0; 4],
                rotate_imu: false,
            };
        }

        // --- Failure detection (airborne modes only) ---
        let mut rotate_imu = false;
        if !matches!(self.mode, FlightMode::PreFlight | FlightMode::Completed) {
            let was_active = self.detector.failsafe_active();
            self.detector.update_with_tilt(
                t,
                imu,
                self.rate_setpoint,
                estimator_rejecting,
                nav.attitude.tilt_angle(),
            );
            rotate_imu = self.detector.take_rotate_request();
            if !was_active && self.detector.failsafe_active() {
                self.failsafe_capture = nav.position;
                self.mode = FlightMode::FailsafeLand;
                self.position_ctl.reset();
            }
        }

        // --- Recovery cascade bookkeeping ---
        redundancy.switched |= rotate_imu;
        let isolating_reason = match self.detector.phase() {
            FailsafePhase::Isolating { reason, .. } => Some(reason),
            _ => None,
        };
        self.cascade.update(
            t,
            &redundancy,
            isolating_reason,
            self.detector.failsafe_active(),
        );

        // --- Mode transitions ---
        self.advance_mode(t, nav);

        // --- Yaw setpoint slew ---
        if !self.yaw_initialized {
            self.yaw_setpoint = nav.yaw();
            self.yaw_initialized = true;
        }
        let max_step = self.params.yaw_slew_rate * dt;
        let err = imufit_math::angles::angle_diff(self.yaw_target, self.yaw_setpoint);
        self.yaw_setpoint =
            imufit_math::wrap_pi(self.yaw_setpoint + err.clamp(-max_step, max_step));

        if self.disarmed {
            return ControlOutput {
                throttles: [0.0; 4],
                rotate_imu,
            };
        }

        // --- Outer loop (decimated) ---
        if self.tick % self.params.position_decimation as u64 == 1
            || self.params.position_decimation == 1
        {
            let (position_sp, speed) = self.position_setpoint(nav);
            let outer_dt = dt * self.params.position_decimation as f64;
            let vel_sp = self
                .position_ctl
                .velocity_setpoint(nav.position, position_sp, speed);
            self.latest_position_out =
                self.position_ctl
                    .update(nav.velocity, vel_sp, self.yaw_setpoint, outer_dt);
        }

        // --- Attitude loop ---
        self.rate_setpoint = self
            .attitude_ctl
            .update(nav.attitude, self.latest_position_out.attitude_sp);

        // --- Rate loop: raw gyro feedback ---
        // Dead-gyro dropout: a living gyro never reads exactly zero on all
        // axes; when it does, hold the previous torque (trim) rather than
        // spinning the vehicle up against a dead signal. The accel-only
        // degraded fallback distrusts the gyro the same way.
        let gyro_untrusted = self.cascade.degraded_mode() == DegradedMode::AccelOnly;
        let torque = if imu.gyro.norm() < 1e-12 || gyro_untrusted {
            self.held_torque
        } else {
            self.rate_ctl.update(self.rate_setpoint, imu.gyro, dt)
        };
        self.held_torque = torque;

        let throttles = self.mixer.mix(&ActuatorDemand {
            collective: self.latest_position_out.collective,
            roll: torque.x,
            pitch: torque.y,
            yaw: torque.z,
        });

        ControlOutput {
            throttles,
            rotate_imu,
        }
    }

    /// Mode machine transitions driven by the estimated state.
    fn advance_mode(&mut self, t: f64, nav: &NavState) {
        match self.mode {
            FlightMode::PreFlight => {
                // Auto-arm and take off on the first tick.
                self.mode = FlightMode::Takeoff;
            }
            FlightMode::Takeoff => {
                if nav.altitude() >= self.plan.takeoff_altitude - 1.0 {
                    self.mode = FlightMode::Mission(0);
                }
            }
            FlightMode::Mission(i) => {
                let wp = self.plan.waypoints[i].position;
                // Update the yaw setpoint toward the waypoint while far away.
                let to_wp = wp - nav.position;
                if to_wp.norm_xy() > 5.0 {
                    self.yaw_target = to_wp.y.atan2(to_wp.x);
                }
                if nav.position.distance_xy(wp) < self.plan.acceptance_radius {
                    if i + 1 < self.plan.waypoints.len() {
                        self.mode = FlightMode::Mission(i + 1);
                    } else {
                        self.mode = FlightMode::Land;
                    }
                }
            }
            FlightMode::Land | FlightMode::FailsafeLand => {
                // Land detection on the *estimated* state, like PX4's land
                // detector: low altitude, low speed, sustained.
                let looks_landed = nav.altitude() < 0.3 && nav.velocity.norm() < 0.3;
                if looks_landed {
                    if self.landed_since.is_none() {
                        self.landed_since = Some(t);
                    }
                } else {
                    self.landed_since = None;
                }
                if matches!(self.landed_since, Some(s) if t - s > 1.0) {
                    self.disarmed = true;
                    if self.mode == FlightMode::Land {
                        self.mode = FlightMode::Completed;
                    }
                }
            }
            FlightMode::Completed => {}
        }
    }

    /// The active position setpoint and speed limit for the current mode.
    fn position_setpoint(&self, _nav: &NavState) -> (Vec3, f64) {
        match self.mode {
            FlightMode::PreFlight | FlightMode::Completed => (self.plan.home, 0.1),
            FlightMode::Takeoff => (
                Vec3::new(
                    self.plan.home.x,
                    self.plan.home.y,
                    -self.plan.takeoff_altitude,
                ),
                self.params.vertical_phase_speed,
            ),
            FlightMode::Mission(i) => (self.plan.waypoints[i].position, self.plan.cruise_speed),
            FlightMode::Land => {
                let wp = self.plan.waypoints.last().expect("plan non-empty").position;
                // Setpoint below the ground keeps the descent-rate limit
                // engaged all the way down.
                (Vec3::new(wp.x, wp.y, 2.0), self.params.vertical_phase_speed)
            }
            FlightMode::FailsafeLand => (
                Vec3::new(self.failsafe_capture.x, self.failsafe_capture.y, 2.0),
                self.params.vertical_phase_speed,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imufit_math::Quat;

    fn plan() -> FlightPlan {
        FlightPlan::new(Vec3::ZERO, 18.0, vec![Waypoint::at(200.0, 0.0, 18.0)], 5.0)
    }

    fn hover_nav(alt: f64) -> NavState {
        NavState {
            position: Vec3::new(0.0, 0.0, -alt),
            velocity: Vec3::ZERO,
            attitude: Quat::IDENTITY,
            gyro_bias: Vec3::ZERO,
            accel_bias: Vec3::ZERO,
        }
    }

    fn clean_imu(t: f64) -> ImuSample {
        ImuSample {
            accel: Vec3::new(0.0, 0.0, -9.8),
            gyro: Vec3::ZERO,
            time: t,
        }
    }

    #[test]
    fn arms_and_enters_takeoff() {
        let mut fc = FlightController::new(ControllerParams::default_airframe(), plan());
        assert_eq!(fc.mode(), FlightMode::PreFlight);
        fc.update(0.0, 0.004, &hover_nav(0.0), &clean_imu(0.0), false);
        assert_eq!(fc.mode(), FlightMode::Takeoff);
    }

    #[test]
    fn takeoff_commands_climb() {
        let mut fc = FlightController::new(ControllerParams::default_airframe(), plan());
        let out = fc.update(0.0, 0.004, &hover_nav(0.0), &clean_imu(0.0), false);
        // Collective above hover: the vehicle wants to climb.
        let hover_collective = (1.5 * imufit_math::GRAVITY / 36.0_f64).sqrt();
        let avg: f64 = out.throttles.iter().sum::<f64>() / 4.0;
        assert!(
            avg > hover_collective,
            "collective {avg} vs hover {hover_collective}"
        );
    }

    #[test]
    fn transitions_to_mission_at_altitude() {
        let mut fc = FlightController::new(ControllerParams::default_airframe(), plan());
        fc.update(0.0, 0.004, &hover_nav(0.0), &clean_imu(0.0), false);
        fc.update(0.004, 0.004, &hover_nav(17.5), &clean_imu(0.004), false);
        assert_eq!(fc.mode(), FlightMode::Mission(0));
    }

    #[test]
    fn mission_pitches_toward_waypoint() {
        let mut fc = FlightController::new(ControllerParams::default_airframe(), plan());
        let mut t = 0.0;
        fc.update(t, 0.004, &hover_nav(0.0), &clean_imu(t), false);
        t += 0.004;
        // Enter mission and run a few outer-loop cycles.
        for _ in 0..20 {
            fc.update(t, 0.004, &hover_nav(18.0), &clean_imu(t), false);
            t += 0.004;
        }
        assert_eq!(fc.mode(), FlightMode::Mission(0));
        // The attitude setpoint should pitch the nose down (negative pitch)
        // to accelerate north.
        let (_, pitch, _) = fc.latest_position_out.attitude_sp.to_euler();
        assert!(pitch < -0.02, "pitch {pitch}");
    }

    #[test]
    fn waypoint_acceptance_advances_to_land() {
        let mut fc = FlightController::new(ControllerParams::default_airframe(), plan());
        let mut t = 0.0;
        fc.update(t, 0.004, &hover_nav(0.0), &clean_imu(t), false);
        t += 0.004;
        fc.update(t, 0.004, &hover_nav(18.0), &clean_imu(t), false);
        t += 0.004;
        // Teleport next to the waypoint.
        let near = NavState {
            position: Vec3::new(199.5, 0.0, -18.0),
            ..hover_nav(18.0)
        };
        fc.update(t, 0.004, &near, &clean_imu(t), false);
        assert_eq!(fc.mode(), FlightMode::Land);
    }

    #[test]
    fn landing_disarms_and_completes() {
        let mut fc = FlightController::new(ControllerParams::default_airframe(), plan());
        let mut t = 0.0;
        fc.update(t, 0.004, &hover_nav(0.0), &clean_imu(t), false);
        t += 0.004;
        fc.update(t, 0.004, &hover_nav(18.0), &clean_imu(t), false);
        t += 0.004;
        let near = NavState {
            position: Vec3::new(199.9, 0.0, -18.0),
            ..hover_nav(18.0)
        };
        fc.update(t, 0.004, &near, &clean_imu(t), false);
        // Now "on the ground" at the waypoint for > 1 s.
        let grounded = NavState {
            position: Vec3::new(200.0, 0.0, -0.1),
            ..hover_nav(0.0)
        };
        for _ in 0..300 {
            t += 0.004;
            fc.update(t, 0.004, &grounded, &clean_imu(t), false);
        }
        assert!(fc.is_disarmed());
        assert_eq!(fc.mode(), FlightMode::Completed);
        assert!(fc.mission_completed());
        // Disarmed output is motors-off.
        let out = fc.update(t + 0.004, 0.004, &grounded, &clean_imu(t), false);
        assert_eq!(out.throttles, [0.0; 4]);
    }

    #[test]
    fn gyro_fault_drives_failsafe_land() {
        let mut fc = FlightController::new(ControllerParams::default_airframe(), plan());
        let mut t = 0.0;
        // Get airborne.
        fc.update(t, 0.004, &hover_nav(0.0), &clean_imu(t), false);
        for _ in 0..100 {
            t += 0.004;
            fc.update(t, 0.004, &hover_nav(18.0), &clean_imu(t), false);
        }
        // Saturated gyro for 4 s.
        let bad = |t: f64| ImuSample {
            accel: Vec3::new(0.0, 0.0, -9.8),
            gyro: Vec3::splat(-34.9),
            time: t,
        };
        let mut any_rotate = false;
        for _ in 0..1000 {
            t += 0.004;
            let out = fc.update(t, 0.004, &hover_nav(18.0), &bad(t), false);
            any_rotate |= out.rotate_imu;
        }
        assert!(fc.failsafe_active(), "failsafe should have latched");
        assert_eq!(fc.mode(), FlightMode::FailsafeLand);
        assert_eq!(fc.failsafe_reason(), Some(FailsafeReason::GyroImplausible));
        assert!(
            any_rotate,
            "isolation should have requested IMU switchovers"
        );
        assert!(!fc.mission_completed());
    }

    #[test]
    fn failsafe_land_descends_at_capture_point() {
        let mut fc = FlightController::new(ControllerParams::default_airframe(), plan());
        let mut t = 0.0;
        fc.update(t, 0.004, &hover_nav(0.0), &clean_imu(t), false);
        let cruise = NavState {
            position: Vec3::new(80.0, 5.0, -18.0),
            ..hover_nav(18.0)
        };
        for _ in 0..100 {
            t += 0.004;
            fc.update(t, 0.004, &cruise, &clean_imu(t), false);
        }
        let bad = |t: f64| ImuSample {
            accel: Vec3::new(0.0, 0.0, -9.8),
            gyro: Vec3::splat(-34.9),
            time: t,
        };
        for _ in 0..1000 {
            t += 0.004;
            fc.update(t, 0.004, &cruise, &bad(t), false);
        }
        assert_eq!(fc.mode(), FlightMode::FailsafeLand);
        // Setpoint should hold the capture point horizontally.
        let (sp, _) = fc.position_setpoint(&cruise);
        assert!((sp.x - 80.0).abs() < 1e-9 && (sp.y - 5.0).abs() < 1e-9);
        assert!(sp.z > 0.0, "descend setpoint below ground");
    }

    #[test]
    fn dead_gyro_holds_previous_torque() {
        let mut fc = FlightController::new(ControllerParams::default_airframe(), plan());
        let mut t = 0.0;
        fc.update(t, 0.004, &hover_nav(0.0), &clean_imu(t), false);
        // Build up some live torque with a rate disturbance.
        let live = ImuSample {
            accel: Vec3::new(0.0, 0.0, -9.8),
            gyro: Vec3::new(0.4, 0.0, 0.0),
            time: 0.0,
        };
        let mut live_out = [0.0; 4];
        for _ in 0..50 {
            t += 0.004;
            live_out = fc
                .update(t, 0.004, &hover_nav(18.0), &live, false)
                .throttles;
        }
        // Now the gyro dies: outputs should freeze at the held trim even
        // though the attitude setpoint keeps evolving.
        let dead = ImuSample {
            accel: Vec3::new(0.0, 0.0, -9.8),
            gyro: Vec3::ZERO,
            time: 0.0,
        };
        t += 0.004;
        let first_dead = fc
            .update(t, 0.004, &hover_nav(18.0), &dead, false)
            .throttles;
        // Differential part persists: the roll asymmetry of the live torque
        // remains in the dead output.
        let live_roll = (live_out[1] + live_out[2]) - (live_out[0] + live_out[3]);
        let dead_roll = (first_dead[1] + first_dead[2]) - (first_dead[0] + first_dead[3]);
        assert!(
            (live_roll - dead_roll).abs() < 0.05,
            "dropout should hold trim: live {live_roll:.3} vs dead {dead_roll:.3}"
        );
    }

    #[test]
    fn throttles_always_valid() {
        let mut fc = FlightController::new(ControllerParams::default_airframe(), plan());
        let mut t = 0.0;
        let crazy_nav = NavState {
            position: Vec3::new(1e6, -1e6, 500.0),
            velocity: Vec3::splat(1e3),
            attitude: Quat::from_euler(3.0, 1.5, -2.0),
            gyro_bias: Vec3::ZERO,
            accel_bias: Vec3::ZERO,
        };
        let bad = ImuSample {
            accel: Vec3::splat(f64::NAN),
            gyro: Vec3::splat(f64::INFINITY),
            time: 0.0,
        };
        for _ in 0..500 {
            t += 0.004;
            let out = fc.update(t, 0.004, &crazy_nav, &bad, false);
            for v in out.throttles {
                assert!(v.is_finite() && (0.0..=1.0).contains(&v));
            }
        }
    }
}
