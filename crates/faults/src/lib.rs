//! The IMU fault model of the paper (Table I) and its fault injector.
//!
//! The paper identifies 14 real-world IMU fault causes — from aging sensors
//! to acoustic attacks — and shows that each can be *represented* by one of
//! seven injection primitives applied to the sensor output stream:
//!
//! | Primitive | Sensor output during the injection window |
//! |---|---|
//! | [`FaultKind::FixedValue`] | a random-but-constant in-range value |
//! | [`FaultKind::Zeros`]      | all axes read zero |
//! | [`FaultKind::Freeze`]     | the last pre-injection sample, held |
//! | [`FaultKind::Random`]     | fresh uniform in-range values every tick |
//! | [`FaultKind::Min`]        | negative full-scale saturation |
//! | [`FaultKind::Max`]        | positive full-scale saturation |
//! | [`FaultKind::Noise`]      | truth plus bounded random perturbation |
//!
//! Faults target the [`FaultTarget::Accelerometer`], the
//! [`FaultTarget::Gyrometer`], or the whole [`FaultTarget::Imu`], over an
//! [`InjectionWindow`] in flight time. The paper's campaign uses windows of
//! 2, 5, 10 and 30 seconds starting 90 s after takeoff.
//!
//! Beyond the IMU, the [`attack`] module extends the fault surface to the
//! aiding sensors the EKF fuses — GPS spoof ramps, barometric drift,
//! soft-iron magnetometer bias rotation — plus single-tick estimator-state
//! glitches, each a first-class [`FaultTarget`] driven by the same window
//! and scope machinery.
//!
//! # Example
//!
//! ```
//! use imufit_faults::{FaultInjector, FaultKind, FaultSpec, FaultTarget, InjectionWindow};
//! use imufit_sensors::{ImuSample, ImuSpec};
//! use imufit_math::{rng::Pcg, Vec3};
//!
//! let spec = ImuSpec::default();
//! let mut injector = FaultInjector::new(
//!     spec,
//!     vec![FaultSpec::new(
//!         FaultKind::Zeros,
//!         FaultTarget::Gyrometer,
//!         InjectionWindow::new(90.0, 5.0),
//!     )],
//! );
//! let mut rng = Pcg::seed_from(1);
//! let clean = ImuSample { accel: Vec3::new(0.0, 0.0, -9.8), gyro: Vec3::new(0.1, 0.0, 0.0), time: 92.0 };
//! let faulty = injector.apply(clean, &mut rng);
//! assert_eq!(faulty.gyro, Vec3::ZERO);      // gyro zeroed
//! assert_eq!(faulty.accel, clean.accel);    // accel untouched
//! ```

pub mod attack;
pub mod catalog;
pub mod injector;
pub mod kind;
pub mod scope;
pub mod target;
pub mod window;

pub use attack::{AttackInjector, AttackKind, AttackSpec, RealWorldAttack, ATTACK_CATALOG};
pub use catalog::{RealWorldFault, TABLE_I};
pub use injector::{FaultInjector, FaultSpec};
pub use kind::FaultKind;
pub use scope::FaultScope;
pub use target::FaultTarget;
pub use window::InjectionWindow;
