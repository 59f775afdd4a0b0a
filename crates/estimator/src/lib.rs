//! 15-state error-state extended Kalman filter (EKF).
//!
//! This crate replaces PX4's EKF2 in the paper's testbed. It estimates
//! position, velocity, attitude, gyro bias and accelerometer bias by
//! integrating IMU samples as the process input and fusing GNSS and
//! barometer measurements with sequential scalar updates, innovation gating,
//! and PX4-style timeout resets.
//!
//! Because the IMU is the *process input* (not a measurement), IMU faults
//! cannot be gated out — they corrupt the prediction directly. This is the
//! architectural reason the paper finds IMU faults so much more damaging
//! than the GPS faults of the authors' earlier studies, and this crate
//! reproduces that behaviour.
//!
//! # Example
//!
//! ```
//! use imufit_estimator::{Ekf, EkfParams};
//! use imufit_sensors::ImuSample;
//! use imufit_math::Vec3;
//!
//! let mut ekf = Ekf::new(EkfParams::default());
//! ekf.initialize(Vec3::ZERO, Vec3::ZERO, 0.0);
//! // A stationary vehicle: accel measures -g, gyro measures 0.
//! for i in 0..250 {
//!     let imu = ImuSample {
//!         accel: Vec3::new(0.0, 0.0, -9.80665),
//!         gyro: Vec3::ZERO,
//!         time: i as f64 * 0.004,
//!     };
//!     ekf.predict(&imu, 0.004);
//! }
//! assert!(ekf.state().velocity.norm() < 0.01);
//! ```

pub mod backend;
pub mod complementary;
pub mod ekf;
pub mod health;
pub mod monitor;
pub mod state;

pub use backend::Estimator;
pub use complementary::{ComplementaryFilter, ComplementaryParams};
pub use ekf::{Ekf, EkfParams};
pub use health::EstimatorHealth;
pub use monitor::{DegradationMonitors, InnovationMonitor, MonitorParams, MonitorStage};
pub use state::NavState;
