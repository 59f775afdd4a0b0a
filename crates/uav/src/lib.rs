//! The closed-loop simulated UAV.
//!
//! Wires every substrate together into a single-flight simulator, the
//! equivalent of one Gazebo + PX4 vehicle instance in the paper's testbed:
//!
//! ```text
//!               wind                          injector (fault model)
//!                |                                 |
//!  quadrotor dynamics --> redundant IMU --> corrupted sample --+--> EKF --+
//!        ^                 baro / GPS / compass --------------->|         |
//!        |                                                      v         v
//!        +------------- mixer <-- rate <-- attitude <-- position controller
//! ```
//!
//! [`FlightSimulator::run`] executes one mission (optionally with scheduled
//! faults) to completion and returns a [`FlightResult`] with the paper's
//! metrics: outcome (completed / crashed / failsafe), flight duration,
//! EKF-estimated distance, bubble violations, and the recorded track.
//!
//! # Example
//!
//! ```no_run
//! use imufit_uav::{FlightSimulator, SimConfig};
//! use imufit_missions::all_missions;
//!
//! let mission = &all_missions()[0];
//! let sim = FlightSimulator::new(mission, Vec::new(), SimConfig::default_for(mission, 42));
//! let result = sim.run();
//! assert!(result.outcome.is_completed());
//! ```

pub mod config;
pub mod mitigation;
pub mod outcome;
pub mod sim;

pub use config::SimConfig;
pub use mitigation::MitigationStage;
pub use outcome::{FlightOutcome, FlightResult, FlightSummary};
pub use sim::FlightSimulator;
