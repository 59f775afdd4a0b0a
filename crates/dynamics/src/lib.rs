//! 6-DOF quadrotor rigid-body dynamics.
//!
//! This crate is the physics substrate that replaces Gazebo in the paper's
//! testbed. It simulates a quad-X multirotor as a rigid body driven by four
//! rotors with first-order spin-up dynamics, aerodynamic drag, a stochastic
//! wind field, and a spring–damper ground contact model, integrated with a
//! fourth-order Runge–Kutta scheme.
//!
//! Frames: world is **NED** (north-east-down, ground at `z = 0`, altitudes
//! negative), body is **FRD** (forward-right-down). Rotors thrust along the
//! body `-z` axis.
//!
//! # Example
//!
//! ```
//! use imufit_dynamics::{Quadrotor, QuadrotorParams};
//!
//! let mut quad = Quadrotor::new(QuadrotorParams::default_airframe());
//! // Hover throttle on all four rotors; the vehicle should stay put.
//! let hover = quad.params().hover_throttle();
//! for _ in 0..250 {
//!     quad.step([hover; 4], 0.004);
//! }
//! assert!(quad.state().velocity.norm() < 0.5);
//! ```

pub mod environment;
pub mod ground;
pub mod quadrotor;
pub mod rotor;
pub mod state;

pub use environment::{Environment, WindModel};
pub use quadrotor::{Quadrotor, QuadrotorParams};
pub use rotor::{Rotor, RotorLayout};
pub use state::{RigidBodyState, StateDerivative};
