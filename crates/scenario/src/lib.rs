//! Declarative scenario layer for the IMU-fault testbed.
//!
//! One [`ScenarioSpec`] document fully describes a run — simulation rates,
//! redundancy, wind, estimator and mitigation backends, fault selection,
//! and campaign axes — and round-trips losslessly through TOML and JSON.
//! Named presets ([`ScenarioSpec::preset`]) cover the paper's reproduction
//! (`paper-default`), a fast smoke campaign (`quick`), and the two ablations
//! (`redundancy-ablation`, `mitigation-on`).
//!
//! This crate is a pure description layer: it depends only on the math and
//! fault vocabularies, never on the vehicle or campaign engines.
//! `SimConfig::from_scenario` (`imufit-uav`) and
//! `CampaignConfig::from_scenario` (`imufit-core`) turn a validated spec
//! into running parts.
//!
//! The serialization is hand-rolled in [`doc`] (the workspace has no
//! serialization framework), using shortest-round-trip float formatting so
//! a spec → text → spec cycle is bit-exact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod doc;
pub mod spec;
pub mod submission;

pub use doc::{DocError, Value};
pub use spec::{
    AttackSettings, CampaignSettings, EstimatorBackend, FaultSettings, FleetSettings,
    FlightSettings, MitigationSettings, ObsSettings, ScenarioError, ScenarioSpec, WindSettings,
    PRESET_NAMES,
};
pub use submission::{SubmissionError, SubmissionRequest, MAX_PRIORITY, MAX_TENANT_LEN};
