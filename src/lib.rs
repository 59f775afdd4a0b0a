//! `imufit` — an IMU fault-injection testbed for studying UAV resilience.
//!
//! This is the facade crate of the workspace: it re-exports every subsystem
//! under one roof so applications can depend on a single crate. The
//! workspace reproduces, in pure Rust, the testbed and experiments of
//! *"A Comprehensive Study on Drones Resilience in the Presence of Inertial
//! Measurement Unit Faults"* (Khan, Ivaki, Madeira — DSN 2024).
//!
//! # Layers
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`math`] | `imufit-math` | vectors, quaternions, matrices, geodesy, RNG |
//! | [`dynamics`] | `imufit-dynamics` | 6-DOF quadrotor physics (Gazebo stand-in) |
//! | [`sensors`] | `imufit-sensors` | IMU/baro/GPS models with redundancy |
//! | [`faults`] | `imufit-faults` | the paper's fault model + injector |
//! | [`estimator`] | `imufit-estimator` | 15-state error-state EKF (EKF2 stand-in) |
//! | [`controller`] | `imufit-controller` | cascaded flight controller + failsafe |
//! | [`telemetry`] | `imufit-telemetry` | brokers, wire codec, tracker, recorder |
//! | [`missions`] | `imufit-missions` | the 10-mission Valencia scenario |
//! | [`bubble`] | `imufit-bubble` | 2-layer bubble metric (Eqs. 1–3) |
//! | [`uav`] | `imufit-uav` | the closed-loop single-flight simulator |
//! | [`core`] | `imufit-core` | campaign engine, tables, figures, reports |
//! | [`detect`] | `imufit-detect` | online fault detectors + evaluation harness |
//! | [`scenario`] | `imufit-scenario` | one-document run descriptions + presets |
//! | [`trace`] | `imufit-trace` | black-box flight tracing + `.ifbb` post-mortems |
//! | [`fleet`] | `imufit-fleet` | distributed campaigns: one worker pool, its workers + checkpoints |
//! | [`serve`] | `imufit-serve` | campaign-as-a-service: multi-tenant HTTP + result cache |
//!
//! # Quickstart
//!
//! ```no_run
//! use imufit::prelude::*;
//!
//! // Fly the first study mission with a 10-second gyro freeze at t = 90 s.
//! let mission = &all_missions()[0];
//! let fault = FaultSpec::new(
//!     FaultKind::Freeze,
//!     FaultTarget::Gyrometer,
//!     InjectionWindow::campaign(10.0),
//! );
//! let sim = FlightSimulator::new(mission, vec![fault], SimConfig::default_for(mission, 1));
//! let result = sim.run();
//! println!("{}: {:.1} s, {} inner violations",
//!          result.outcome.label(), result.duration, result.violations.inner);
//! ```

pub use imufit_bubble as bubble;
pub use imufit_controller as controller;
pub use imufit_core as core;
pub use imufit_detect as detect;
pub use imufit_dynamics as dynamics;
pub use imufit_estimator as estimator;
pub use imufit_faults as faults;
pub use imufit_fleet as fleet;
pub use imufit_math as math;
pub use imufit_missions as missions;
pub use imufit_scenario as scenario;
pub use imufit_sensors as sensors;
pub use imufit_serve as serve;
pub use imufit_telemetry as telemetry;
pub use imufit_trace as trace;
pub use imufit_uav as uav;

/// The most common imports in one place.
pub mod prelude {
    pub use imufit_core::{Campaign, CampaignConfig, CampaignResults};
    pub use imufit_faults::{FaultInjector, FaultKind, FaultSpec, FaultTarget, InjectionWindow};
    pub use imufit_math::{Quat, Vec3};
    pub use imufit_missions::{all_missions, Mission};
    pub use imufit_scenario::{EstimatorBackend, ScenarioSpec};
    pub use imufit_trace::{BlackBox, TraceSettings, TraceTrigger};
    pub use imufit_uav::{FlightOutcome, FlightResult, FlightSimulator, FlightSummary, SimConfig};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_line_up() {
        // Compile-time smoke check that the prelude names resolve.
        use crate::prelude::*;
        let missions = all_missions();
        assert_eq!(missions.len(), 10);
        let _ = FaultSpec::new(
            FaultKind::Zeros,
            FaultTarget::Imu,
            InjectionWindow::new(90.0, 2.0),
        );
        let _ = Vec3::ZERO;
    }
}
