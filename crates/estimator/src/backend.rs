//! The estimator seam.
//!
//! `FlightSimulator` drives its navigation filter through [`Estimator`], a
//! closed set of backends chosen per scenario: the 15-state EKF
//! ([`crate::Ekf`]) is the paper's reproduction backend, and the
//! fixed-gain [`crate::ComplementaryFilter`] proves the seam is real. Each
//! call dispatches by `match`, and the enum is an owned value, so a
//! simulator holding one can be cloned.
//!
//! ```text
//!                 ┌────────────────────────┐
//!  ImuSample ───▶ │       Estimator        │ ───▶ NavState (controller)
//!  GpsSample ───▶ │  predict / fuse_gps /  │ ───▶ EstimatorHealth (detect)
//!  BaroSample ──▶ │  fuse_baro / fuse_yaw  │ ───▶ distance_traveled (CSV)
//!  yaw (mag) ───▶ └────────────────────────┘
//!           ▲                 ▲
//!        Ekf (15-state)   ComplementaryFilter (fixed-gain)
//! ```
//!
//! The contract mirrors the paper's sensor architecture: the IMU is the
//! *process input* (so IMU faults corrupt every backend directly), while
//! GNSS, barometer and compass are *measurements* a backend may gate,
//! blend, or reset on as it sees fit.

use imufit_math::Vec3;
use imufit_sensors::{BaroSample, GpsSample, ImuSample};

use crate::complementary::ComplementaryFilter;
use crate::ekf::Ekf;
use crate::health::EstimatorHealth;
use crate::state::NavState;

/// A navigation filter the closed loop can fly on.
///
/// One estimator lives inline in each vehicle, so the EKF variant's size
/// costs nothing a box would save, and a box would add a pointer chase to
/// every call on the tick.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Estimator {
    /// The paper's 15-state error-state EKF.
    Ekf(Ekf),
    /// The fixed-gain complementary filter.
    Complementary(ComplementaryFilter),
}

impl Estimator {
    /// Resets the filter to a known position/velocity/yaw (pre-takeoff
    /// alignment). Clears all accumulated state, including
    /// [`Estimator::distance_traveled`] and health counters, so a recycled
    /// vehicle starts its next run from scratch.
    pub fn initialize(&mut self, position: Vec3, velocity: Vec3, yaw: f64) {
        match self {
            Estimator::Ekf(f) => f.initialize(position, velocity, yaw),
            Estimator::Complementary(f) => f.initialize(position, velocity, yaw),
        }
    }

    /// True once [`Estimator::initialize`] has been called.
    pub fn is_initialized(&self) -> bool {
        match self {
            Estimator::Ekf(f) => f.is_initialized(),
            Estimator::Complementary(f) => f.is_initialized(),
        }
    }

    /// Propagates the state with one IMU sample over `dt` seconds.
    pub fn predict(&mut self, imu: &ImuSample, dt: f64) {
        match self {
            Estimator::Ekf(f) => f.predict(imu, dt),
            Estimator::Complementary(f) => f.predict(imu, dt),
        }
    }

    /// Incorporates a GNSS position/velocity fix.
    pub fn fuse_gps(&mut self, gps: &GpsSample) {
        match self {
            Estimator::Ekf(f) => f.fuse_gps(gps),
            Estimator::Complementary(f) => f.fuse_gps(gps),
        }
    }

    /// Incorporates a barometric height measurement.
    pub fn fuse_baro(&mut self, baro: &BaroSample) {
        match self {
            Estimator::Ekf(f) => f.fuse_baro(baro),
            Estimator::Complementary(f) => f.fuse_baro(baro),
        }
    }

    /// Incorporates a compass yaw measurement, radians.
    pub fn fuse_yaw(&mut self, measured_yaw: f64) {
        match self {
            Estimator::Ekf(f) => f.fuse_yaw(measured_yaw),
            Estimator::Complementary(f) => f.fuse_yaw(measured_yaw),
        }
    }

    /// Injects a velocity error directly into the state estimate,
    /// modelling a single-event upset in estimator memory. The
    /// complementary filter carries no correctable velocity state and
    /// ignores it.
    pub fn perturb_velocity(&mut self, dv: Vec3) {
        if let Estimator::Ekf(f) = self {
            f.perturb_velocity(dv);
        }
    }

    /// The current nominal state estimate.
    pub fn state(&self) -> &NavState {
        match self {
            Estimator::Ekf(f) => f.state(),
            Estimator::Complementary(f) => f.state(),
        }
    }

    /// Innovation-consistency health flags for the failure detector.
    pub fn health(&self) -> EstimatorHealth {
        match self {
            Estimator::Ekf(f) => f.health(),
            Estimator::Complementary(f) => f.health(),
        }
    }

    /// Total distance flown according to the *estimated* position, meters
    /// (the paper's "Distance Traveled" metric is defined on EKF output).
    pub fn distance_traveled(&self) -> f64 {
        match self {
            Estimator::Ekf(f) => f.distance_traveled(),
            Estimator::Complementary(f) => f.distance_traveled(),
        }
    }

    /// Short backend identifier for telemetry and scenario documents.
    pub fn label(&self) -> &'static str {
        match self {
            Estimator::Ekf(_) => "ekf",
            Estimator::Complementary(_) => "complementary",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EkfParams;
    use imufit_math::GRAVITY;

    /// Both backends must be drivable through the same [`Estimator`].
    #[test]
    fn backends_are_object_safe_and_interchangeable() {
        let backends = [
            Estimator::Ekf(Ekf::new(EkfParams::default())),
            Estimator::Complementary(ComplementaryFilter::default()),
        ];
        for mut est in backends {
            assert!(!est.is_initialized());
            est.initialize(Vec3::ZERO, Vec3::ZERO, 0.0);
            assert!(est.is_initialized());
            for i in 0..500 {
                let imu = ImuSample {
                    accel: Vec3::new(0.0, 0.0, -GRAVITY),
                    gyro: Vec3::ZERO,
                    time: i as f64 * 0.004,
                };
                est.predict(&imu, 0.004);
            }
            assert!(est.state().is_finite(), "{}", est.label());
            assert!(
                est.state().velocity.norm() < 0.05,
                "{} drifted: {}",
                est.label(),
                est.state().velocity
            );
        }
    }

    /// `initialize` must clear accumulated distance (reset contract).
    #[test]
    fn initialize_clears_distance() {
        let mut est = Estimator::Complementary(ComplementaryFilter::default());
        est.initialize(Vec3::ZERO, Vec3::ZERO, 0.0);
        for i in 0..250 {
            let imu = ImuSample {
                accel: Vec3::new(1.0, 0.0, -GRAVITY),
                gyro: Vec3::ZERO,
                time: i as f64 * 0.004,
            };
            est.predict(&imu, 0.004);
        }
        assert!(est.distance_traveled() > 0.0);
        est.initialize(Vec3::ZERO, Vec3::ZERO, 0.0);
        assert_eq!(est.distance_traveled(), 0.0);
    }
}
