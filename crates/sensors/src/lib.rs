//! Sensor models for the `imufit` testbed.
//!
//! Replaces the PX4/Gazebo sensor pipeline with explicit, seedable models:
//!
//! * [`Accelerometer`] and [`Gyroscope`] — MEMS-style models with white
//!   noise, bias random walk, and full-scale saturation. Their ranges define
//!   the `Min`/`Max`/`Random` fault magnitudes used by the paper's fault
//!   model.
//! * [`Imu`] — an accelerometer + gyroscope pair producing [`ImuSample`]s.
//! * [`RedundantImu`] — several IMU instances (PX4 ships three); the paper
//!   assumes faults affect *all* redundant instances, which the fault
//!   injector honors by corrupting the merged output.
//! * [`Barometer`] and [`Gps`] — the aiding sensors fused by the EKF.
//!
//! # Example
//!
//! ```
//! use imufit_sensors::{Imu, ImuSpec};
//! use imufit_math::{rng::Pcg, Vec3};
//!
//! let mut imu = Imu::new(ImuSpec::default(), &mut Pcg::seed_from(1));
//! let mut rng = Pcg::seed_from(2);
//! // A stationary, level vehicle measures -g on the z axis.
//! let sample = imu.sample(Vec3::new(0.0, 0.0, -9.80665), Vec3::ZERO, 0.004, &mut rng);
//! assert!((sample.accel.z + 9.80665).abs() < 0.5);
//! assert!(sample.gyro.norm() < 0.1);
//! ```

pub mod accel;
pub mod baro;
pub mod gps;
pub mod gyro;
pub mod imu;
pub mod mag;
pub mod voter;

pub use accel::Accelerometer;
pub use baro::{BaroSample, BaroSpec, Barometer};
pub use gps::{Gps, GpsSample, GpsSpec};
pub use gyro::Gyroscope;
pub use imu::{
    consensus, consensus_deviation, healthiest_instance, Imu, ImuSample, ImuSpec, RedundantImu,
};
pub use mag::{yaw_from_mag, MagSample, MagSpec, Magnetometer};
pub use voter::{ImuVoter, InstanceHealth, VoterConfig, VoterReport};

/// Isothermal barometric formula: static pressure (Pascal) at `alt_msl`
/// meters above sea level. Kept in this crate so the sensor layer does not
/// depend on the dynamics crate.
pub fn baro_pressure(alt_msl: f64) -> f64 {
    101_325.0 * (-alt_msl / 8_434.0).exp()
}

#[cfg(test)]
mod tests {
    #[test]
    fn baro_pressure_sea_level() {
        assert!((super::baro_pressure(0.0) - 101_325.0).abs() < 1e-9);
        assert!(super::baro_pressure(100.0) < 101_325.0);
    }
}
