//! Tracking and telemetry substrate.
//!
//! The paper's testbed (Fig. 1) includes "a tracking system comprising a
//! tracker, core brokers, and edge brokers" that samples every drone's
//! position for U-space evaluation. This crate provides that substrate.
//! The simulator uses only the recorder; the codec, brokers and tracker
//! remain for the benchmark's tick replica (DESIGN §9):
//!
//! * [`wire`] — a compact MAVLink-style binary codec for telemetry messages
//!   (built on [`bytes`]).
//! * [`broker`] — an in-process publish/subscribe message broker
//!   (crossbeam channels behind a topic map), with edge brokers that
//!   forward into a core broker like the paper's two-tier deployment.
//! * [`tracker`] — subscribes to position messages and maintains per-drone
//!   tracks at the 1 Hz tracking cadence used by the bubble metrics.
//! * [`recorder`] — the 1 Hz track recorder with CSV export behind the
//!   figures and the conflict analysis.

pub mod broker;
pub mod recorder;
pub mod tracker;
pub mod wire;

pub use broker::{Broker, Subscription};
pub use recorder::{FlightRecorder, TrackPoint};
pub use tracker::{Track, Tracker};
pub use wire::{decode, encode, Message, WireError};
