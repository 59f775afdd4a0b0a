//! Math primitives for the `imufit` UAV fault-injection testbed.
//!
//! This crate provides the numerical foundation shared by every other crate in
//! the workspace:
//!
//! * [`Vec3`] / [`Mat3`] / [`Quat`] — 3-D kinematics types used by the rigid
//!   body simulator, the sensors, and the flight controller.
//! * [`SMatrix`] — a stack-allocated, const-generic dense matrix holding the
//!   15-state error-state EKF's covariance.
//! * [`geo`] — WGS-84 geodesy: converting between geodetic coordinates and a
//!   local north-east-down (NED) tangent frame.
//! * [`stats`] — descriptive statistics used by the campaign aggregator.
//! * [`rng`] — deterministic seed-stream derivation so that a campaign of
//!   hundreds of experiments is reproducible regardless of thread scheduling.
//! * [`filter`] — small digital filters (low-pass, derivative) used by the
//!   sensor models and the controller.
//! * [`frame`] — the CRC-framed, bounds-checked byte codec every persisted
//!   and wire format is built on.
//!
//! # Example
//!
//! ```
//! use imufit_math::{Quat, Vec3};
//!
//! // Rotate the body x-axis by a 90 degree yaw.
//! let q = Quat::from_yaw(std::f64::consts::FRAC_PI_2);
//! let v = q.rotate(Vec3::new(1.0, 0.0, 0.0));
//! assert!((v - Vec3::new(0.0, 1.0, 0.0)).norm() < 1e-12);
//! ```

pub mod angles;
pub mod filter;
pub mod frame;
pub mod geo;
pub mod mat3;
pub mod matrix;
pub mod quat;
pub mod rng;
pub mod stats;
pub mod vec3;

pub use angles::{wrap_pi, wrap_two_pi};
pub use geo::{GeoPoint, LocalFrame};
pub use mat3::Mat3;
pub use matrix::SMatrix;
pub use quat::Quat;
pub use vec3::Vec3;

/// Standard gravity in m/s^2, used consistently across dynamics, sensors and
/// the estimator.
pub const GRAVITY: f64 = 9.80665;
