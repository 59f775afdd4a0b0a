//! A fixed-gain complementary filter backend.
//!
//! The lightweight alternative to the EKF: strapdown integration of the IMU
//! plus constant-gain blending of GNSS, barometer, compass, and an
//! accelerometer tilt correction. No covariance, no innovation gating, no
//! bias estimation — roughly the classic Mahony/complementary architecture
//! hobby autopilots flew before EKFs were affordable.
//!
//! Its purpose here is architectural (prove the [`crate::Estimator`] seam
//! carries a genuinely different backend) and scientific (a baseline
//! with *no* innovation gating, so fault campaigns can quantify how much of
//! the EKF's resilience comes from gating and resets).

use imufit_math::{wrap_pi, Quat, Vec3, GRAVITY};
use imufit_sensors::{BaroSample, GpsSample, ImuSample};

use crate::health::EstimatorHealth;
use crate::state::NavState;

/// Complementary-filter gains and plausibility thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComplementaryParams {
    /// Position blend per GPS fix (dimensionless, 0..1).
    pub pos_gain: f64,
    /// Velocity blend per GPS fix (dimensionless, 0..1).
    pub vel_gain: f64,
    /// Height blend per barometer sample (dimensionless, 0..1).
    pub baro_gain: f64,
    /// Yaw blend per compass sample (dimensionless, 0..1).
    pub yaw_gain: f64,
    /// Tilt correction per IMU sample when the accelerometer is trusted
    /// (dimensionless, 0..1; applied at the physics rate).
    pub tilt_gain: f64,
    /// The accelerometer is only trusted for tilt when its magnitude is
    /// within this fraction of gravity (quasi-static flight).
    pub tilt_trust_band: f64,
    /// Horizontal position innovation, meters, that maps to a health test
    /// ratio of 1.0.
    pub pos_gate_m: f64,
    /// Velocity innovation, m/s, that maps to a health test ratio of 1.0.
    pub vel_gate_mps: f64,
    /// Height innovation, meters, that maps to a health test ratio of 1.0.
    pub hgt_gate_m: f64,
    /// GPS position innovation, meters, beyond which the filter snaps the
    /// kinematic states to the fix (its only reset mechanism).
    pub snap_threshold_m: f64,
    /// "Bad accelerometer" threshold, m/s^2 (same role as the EKF's: a
    /// specific force below this is impossible outside free fall, so the
    /// prediction substitutes the hover assumption).
    pub bad_accel_threshold: f64,
}

impl Default for ComplementaryParams {
    fn default() -> Self {
        ComplementaryParams {
            pos_gain: 0.25,
            vel_gain: 0.35,
            baro_gain: 0.06,
            yaw_gain: 0.2,
            tilt_gain: 0.005,
            tilt_trust_band: 0.15,
            pos_gate_m: 10.0,
            vel_gate_mps: 5.0,
            hgt_gate_m: 5.0,
            snap_threshold_m: 50.0,
            bad_accel_threshold: 1.0,
        }
    }
}

/// Blend of each new GPS-differenced acceleration into the motion
/// acceleration estimate (dimensionless, 0..1): differencing 5 Hz fixes
/// with 0.12 m/s velocity noise gives ~0.85 m/s^2 of noise per fix, which
/// this smooths over a few fixes.
const MOTION_ACCEL_BLEND: f64 = 0.5;

/// The fixed-gain complementary filter (see module docs).
#[derive(Debug, Clone)]
pub struct ComplementaryFilter {
    params: ComplementaryParams,
    nominal: NavState,
    health: EstimatorHealth,
    initialized: bool,
    distance_traveled: f64,
    last_position: Vec3,
    /// Velocity of the previous GPS fix, for differencing.
    last_gps_velocity: Option<Vec3>,
    /// World-frame acceleration of the vehicle, differenced from GPS
    /// velocity. The tilt correction subtracts it from the specific force
    /// it expects: a multirotor's specific force points along its thrust
    /// axis whatever its tilt, so comparing it against gravity alone pulls
    /// the estimate level whenever the vehicle accelerates.
    motion_accel: Vec3,
}

impl Default for ComplementaryFilter {
    fn default() -> Self {
        Self::new(ComplementaryParams::default())
    }
}

impl ComplementaryFilter {
    /// Creates an uninitialized filter.
    pub fn new(params: ComplementaryParams) -> Self {
        ComplementaryFilter {
            params,
            nominal: NavState::default(),
            health: EstimatorHealth::default(),
            initialized: false,
            distance_traveled: 0.0,
            last_position: Vec3::ZERO,
            last_gps_velocity: None,
            motion_accel: Vec3::ZERO,
        }
    }

    /// The filter's tuning.
    pub fn params(&self) -> &ComplementaryParams {
        &self.params
    }

    /// Resets the filter to a known position/velocity/yaw, clearing the
    /// travelled distance and health counters.
    pub fn initialize(&mut self, position: Vec3, velocity: Vec3, yaw: f64) {
        self.nominal = NavState {
            position,
            velocity,
            attitude: Quat::from_yaw(yaw),
            gyro_bias: Vec3::ZERO,
            accel_bias: Vec3::ZERO,
        };
        self.health = EstimatorHealth::default();
        self.initialized = true;
        self.distance_traveled = 0.0;
        self.last_position = position;
        self.last_gps_velocity = None;
        self.motion_accel = Vec3::ZERO;
    }

    /// True once [`ComplementaryFilter::initialize`] has been called.
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// Strapdown propagation with one IMU sample over `dt` seconds, plus
    /// the accelerometer tilt correction.
    pub fn predict(&mut self, imu: &ImuSample, dt: f64) {
        debug_assert!(dt > 0.0, "dt must be positive");
        if !self.initialized {
            return;
        }
        if !imu.accel.is_finite() || !imu.gyro.is_finite() {
            return;
        }
        let p = self.params;

        // Strapdown propagation, identical mechanics to the EKF's nominal
        // path (including the bad-accel hover fallback) — what differs is
        // everything around it: no covariance, no gating, no bias states.
        let accel_body = if imu.accel.norm() < p.bad_accel_threshold {
            self.nominal
                .attitude
                .rotate_inverse(Vec3::new(0.0, 0.0, -GRAVITY))
        } else {
            imu.accel
        };
        let rot = self.nominal.attitude.to_rotation_matrix();
        let accel_world = rot * accel_body + Vec3::new(0.0, 0.0, GRAVITY);
        self.nominal.velocity += accel_world * dt;
        self.nominal.position += self.nominal.velocity * dt;
        self.nominal.attitude = self.nominal.attitude.integrate(imu.gyro, dt);

        // Accelerometer tilt correction: the specific force is the motion
        // acceleration minus gravity, so its measured direction corrects
        // roll/pitch drift (the "complementary" half of the filter).
        let norm = imu.accel.norm();
        let reference = self.motion_accel - Vec3::new(0.0, 0.0, GRAVITY);
        let reference_norm = reference.norm();
        if (norm - reference_norm).abs() < p.tilt_trust_band * GRAVITY
            && norm > 0.0
            && reference_norm > 0.0
        {
            let measured = imu.accel * (1.0 / norm);
            let expected = self
                .nominal
                .attitude
                .rotate_inverse(reference * (1.0 / reference_norm));
            let err = measured.cross(expected);
            let angle = err.norm() * p.tilt_gain;
            if angle > 0.0 {
                self.nominal.attitude =
                    (self.nominal.attitude * Quat::from_axis_angle(err, angle)).normalize();
            }
        }

        self.distance_traveled += (self.nominal.position - self.last_position).norm();
        self.last_position = self.nominal.position;
        self.health.time_since_aiding += dt;
    }

    /// Blends a GNSS fix into position and velocity (or snaps to it).
    pub fn fuse_gps(&mut self, gps: &GpsSample) {
        if !self.initialized {
            return;
        }
        if !gps.position.is_finite() || !gps.velocity.is_finite() {
            return;
        }
        let p = self.params;
        let since_fix = self.health.time_since_aiding;
        if let Some(previous) = self.last_gps_velocity {
            if since_fix > 0.0 {
                let accel = (gps.velocity - previous) * (1.0 / since_fix);
                self.motion_accel += (accel - self.motion_accel) * MOTION_ACCEL_BLEND;
            }
        }
        self.last_gps_velocity = Some(gps.velocity);
        let pos_innov = gps.position - self.nominal.position;
        let vel_innov = gps.velocity - self.nominal.velocity;

        let horiz = Vec3::new(pos_innov.x, pos_innov.y, 0.0).norm();
        self.health.pos_test_ratio = (horiz / p.pos_gate_m).powi(2);
        self.health.vel_test_ratio = (vel_innov.norm() / p.vel_gate_mps).powi(2);

        if pos_innov.norm() > p.snap_threshold_m {
            // The filter has no covariance to reason with; a wildly
            // diverged estimate is simply snapped back to the fix.
            self.nominal.position = gps.position;
            self.nominal.velocity = gps.velocity;
            self.last_position = gps.position;
            self.health.reset_count += 1;
        } else {
            self.nominal.position += pos_innov * p.pos_gain;
            self.nominal.velocity += vel_innov * p.vel_gain;
            self.last_position = self.nominal.position;
        }
        self.health.time_since_aiding = 0.0;
    }

    /// Blends a barometric height into the vertical position.
    pub fn fuse_baro(&mut self, baro: &BaroSample) {
        if !self.initialized || !baro.altitude.is_finite() {
            return;
        }
        let p = self.params;
        let innovation = -baro.altitude - self.nominal.position.z;
        self.health.hgt_test_ratio = (innovation.abs() / p.hgt_gate_m).powi(2);
        self.nominal.position.z += innovation * p.baro_gain;
        self.last_position.z = self.nominal.position.z;
    }

    /// Blends a compass yaw measurement, radians, into the heading.
    pub fn fuse_yaw(&mut self, measured_yaw: f64) {
        if !self.initialized || !measured_yaw.is_finite() {
            return;
        }
        let err = wrap_pi(measured_yaw - self.nominal.yaw());
        let correction = err * self.params.yaw_gain;
        self.nominal.attitude = (self.nominal.attitude
            * Quat::from_axis_angle(Vec3::new(0.0, 0.0, 1.0), correction))
        .normalize();
    }

    /// The current nominal state estimate.
    pub fn state(&self) -> &NavState {
        &self.nominal
    }

    /// Innovation test ratios against the fixed gates.
    pub fn health(&self) -> EstimatorHealth {
        self.health
    }

    /// Total distance flown along the estimated position, meters.
    pub fn distance_traveled(&self) -> f64 {
        self.distance_traveled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn level_imu(t: f64) -> ImuSample {
        ImuSample {
            accel: Vec3::new(0.0, 0.0, -GRAVITY),
            gyro: Vec3::ZERO,
            time: t,
        }
    }

    fn gps_at(p: Vec3, v: Vec3) -> GpsSample {
        GpsSample {
            position: p,
            velocity: v,
            horizontal_accuracy: 1.2,
            vertical_accuracy: 1.8,
        }
    }

    #[test]
    fn uninitialized_filter_ignores_inputs() {
        let mut cf = ComplementaryFilter::default();
        cf.predict(&level_imu(0.0), 0.004);
        cf.fuse_gps(&gps_at(Vec3::splat(100.0), Vec3::ZERO));
        assert_eq!(cf.state().position, Vec3::ZERO);
        assert!(!cf.is_initialized());
    }

    #[test]
    fn stationary_state_stays_put() {
        let mut cf = ComplementaryFilter::default();
        cf.initialize(Vec3::ZERO, Vec3::ZERO, 0.0);
        for i in 0..2500 {
            cf.predict(&level_imu(i as f64 * 0.004), 0.004);
        }
        assert!(cf.state().velocity.norm() < 0.01);
        assert!(cf.state().position.norm() < 0.05);
    }

    #[test]
    fn gps_blend_converges_to_fix() {
        let mut cf = ComplementaryFilter::default();
        cf.initialize(Vec3::ZERO, Vec3::ZERO, 0.0);
        let truth = Vec3::new(3.0, -2.0, -1.0);
        for i in 0..1500 {
            cf.predict(&level_imu(i as f64 * 0.004), 0.004);
            if i % 50 == 0 {
                cf.fuse_gps(&gps_at(truth, Vec3::ZERO));
            }
        }
        assert!(
            (cf.state().position - truth).norm() < 0.5,
            "estimate {} vs {}",
            cf.state().position,
            truth
        );
    }

    #[test]
    fn baro_blend_corrects_height() {
        let mut cf = ComplementaryFilter::default();
        cf.initialize(Vec3::ZERO, Vec3::ZERO, 0.0);
        for i in 0..2500 {
            cf.predict(&level_imu(i as f64 * 0.004), 0.004);
            if i % 10 == 0 {
                cf.fuse_baro(&BaroSample {
                    altitude: 10.0,
                    pressure_pa: 101_000.0,
                });
            }
        }
        assert!(
            (cf.state().altitude() - 10.0).abs() < 0.5,
            "alt {}",
            cf.state().altitude()
        );
    }

    #[test]
    fn yaw_blend_corrects_heading() {
        let mut cf = ComplementaryFilter::default();
        cf.initialize(Vec3::ZERO, Vec3::ZERO, 0.0);
        for i in 0..1000 {
            cf.predict(&level_imu(i as f64 * 0.004), 0.004);
            if i % 25 == 0 {
                cf.fuse_yaw(0.5);
            }
        }
        assert!(
            (cf.state().yaw() - 0.5).abs() < 0.05,
            "yaw {}",
            cf.state().yaw()
        );
    }

    #[test]
    fn tilt_correction_levels_the_attitude() {
        let mut cf = ComplementaryFilter::default();
        cf.initialize(Vec3::ZERO, Vec3::ZERO, 0.0);
        // Start with a 5-degree roll error; the accelerometer (measuring
        // true level) must pull the attitude back.
        cf.nominal.attitude = Quat::from_euler(0.087, 0.0, 0.0);
        for i in 0..5000 {
            cf.predict(&level_imu(i as f64 * 0.004), 0.004);
            if i % 50 == 0 {
                // Hold velocity/position with GPS so drift doesn't compound.
                cf.fuse_gps(&gps_at(Vec3::ZERO, Vec3::ZERO));
            }
        }
        let (roll, pitch, _) = cf.state().attitude.to_euler();
        assert!(
            roll.abs() < 0.02 && pitch.abs() < 0.02,
            "roll {roll} pitch {pitch}"
        );
    }

    #[test]
    fn tilt_correction_holds_the_tilt_of_an_accelerating_vehicle() {
        // A vehicle pitched 0.3 rad accelerates horizontally at constant
        // altitude: its specific force points along the thrust axis, so
        // the accelerometer alone reads "level". With the GPS-differenced
        // acceleration the correction must keep the true tilt.
        let attitude = Quat::from_euler(0.0, 0.3, 0.0);
        let thrust_dir = attitude.rotate(Vec3::new(0.0, 0.0, -1.0));
        let thrust = GRAVITY / -thrust_dir.z;
        let accel = Vec3::new(0.0, 0.0, GRAVITY) + thrust_dir * thrust;
        assert!(accel.z.abs() < 1e-9 && accel.norm() > 2.0);
        let imu = |t: f64| ImuSample {
            accel: Vec3::new(0.0, 0.0, -thrust),
            gyro: Vec3::ZERO,
            time: t,
        };

        let mut cf = ComplementaryFilter::default();
        cf.initialize(Vec3::ZERO, Vec3::ZERO, 0.0);
        cf.nominal.attitude = attitude;
        for i in 0..5000 {
            let t = i as f64 * 0.004;
            if i % 50 == 0 {
                cf.fuse_gps(&gps_at(accel * (0.5 * t * t), accel * t));
            }
            cf.predict(&imu(t), 0.004);
        }
        let tilt = cf.state().attitude.tilt_angle();
        assert!((tilt - 0.3).abs() < 0.03, "tilt {tilt}");
    }

    #[test]
    fn wild_divergence_snaps_to_gps() {
        let mut cf = ComplementaryFilter::default();
        cf.initialize(Vec3::ZERO, Vec3::ZERO, 0.0);
        let far = Vec3::new(500.0, 0.0, 0.0);
        cf.fuse_gps(&gps_at(far, Vec3::ZERO));
        assert_eq!(cf.state().position, far);
        assert_eq!(cf.health().reset_count, 1);
    }

    #[test]
    fn survives_saturated_imu_stream() {
        let mut cf = ComplementaryFilter::default();
        cf.initialize(Vec3::ZERO, Vec3::ZERO, 0.0);
        let bad = ImuSample {
            accel: Vec3::splat(16.0 * GRAVITY),
            gyro: Vec3::splat(34.9),
            time: 0.0,
        };
        for i in 0..7500 {
            cf.predict(
                &ImuSample {
                    time: i as f64 * 0.004,
                    ..bad
                },
                0.004,
            );
            if i % 50 == 0 {
                cf.fuse_gps(&gps_at(Vec3::ZERO, Vec3::ZERO));
            }
        }
        assert!(cf.state().is_finite());
    }

    #[test]
    fn non_finite_inputs_are_dropped() {
        let mut cf = ComplementaryFilter::default();
        cf.initialize(Vec3::ZERO, Vec3::ZERO, 0.0);
        cf.predict(
            &ImuSample {
                accel: Vec3::new(f64::NAN, 0.0, 0.0),
                gyro: Vec3::ZERO,
                time: 0.0,
            },
            0.004,
        );
        cf.fuse_baro(&BaroSample {
            altitude: f64::NAN,
            pressure_pa: 0.0,
        });
        cf.fuse_yaw(f64::NAN);
        assert!(cf.state().is_finite());
        assert_eq!(cf.state().position, Vec3::ZERO);
    }
}
