//! Assembling vehicles from scenario documents.
//!
//! [`VehicleBuilder`] is the seam between the declarative layer
//! (`imufit-scenario`) and the running pipeline ([`FlightSimulator`]): it
//! validates a spec or config, realizes it against a mission, and builds a
//! vehicle.

use std::fmt;

use imufit_faults::{AttackSpec, FaultSpec};
use imufit_missions::Mission;
use imufit_scenario::{ScenarioError, ScenarioSpec};

use crate::config::SimConfig;
use crate::sim::FlightSimulator;

/// Why a vehicle could not be assembled.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// The scenario document itself is invalid.
    Scenario(ScenarioError),
    /// The realized simulator configuration is unusable.
    Config(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Scenario(e) => write!(f, "invalid scenario: {e}"),
            BuildError::Config(msg) => write!(f, "invalid simulator config: {msg}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<ScenarioError> for BuildError {
    fn from(e: ScenarioError) -> Self {
        BuildError::Scenario(e)
    }
}

/// Builds one vehicle for one mission.
#[derive(Debug, Clone)]
pub struct VehicleBuilder<'m> {
    mission: &'m Mission,
    config: SimConfig,
    faults: Vec<FaultSpec>,
    attacks: Vec<AttackSpec>,
}

impl<'m> VehicleBuilder<'m> {
    /// Starts from an explicit simulator configuration.
    pub fn new(mission: &'m Mission, config: SimConfig) -> Self {
        VehicleBuilder {
            mission,
            config,
            faults: Vec::new(),
            attacks: Vec::new(),
        }
    }

    /// Starts from a scenario document: validates the spec and realizes it
    /// against the mission (watchdog scaling) and the per-experiment seed.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Scenario`] when the spec fails validation.
    pub fn from_scenario(
        spec: &ScenarioSpec,
        mission: &'m Mission,
        seed: u64,
    ) -> Result<Self, BuildError> {
        spec.validate()?;
        Ok(Self::new(
            mission,
            SimConfig::from_scenario(spec, mission, seed),
        ))
    }

    /// Schedules faults for the flight (empty = gold run).
    pub fn with_faults(mut self, faults: Vec<FaultSpec>) -> Self {
        self.faults = faults;
        self
    }

    /// Schedules aiding-sensor attacks for the flight (empty = none).
    pub fn with_attacks(mut self, attacks: Vec<AttackSpec>) -> Self {
        self.attacks = attacks;
        self
    }

    /// The configuration the builder will realize.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Checks the invariants [`FlightSimulator`] relies on. The scenario
    /// validator enforces the same rules at the document level; this guard
    /// also covers hand-rolled [`SimConfig`]s that never saw a document.
    fn validate(config: &SimConfig) -> Result<(), BuildError> {
        let rates = [
            ("physics_rate", config.physics_rate),
            ("gps_rate", config.gps_rate),
            ("baro_rate", config.baro_rate),
            ("compass_rate", config.compass_rate),
            ("tracking_rate", config.tracking_rate),
        ];
        for (name, rate) in rates {
            if !(rate.is_finite() && rate > 0.0) {
                return Err(BuildError::Config(format!(
                    "{name} must be positive and finite, got {rate}"
                )));
            }
        }
        if config.imu_redundancy == 0 {
            return Err(BuildError::Config(
                "imu_redundancy must be at least 1".to_string(),
            ));
        }
        if !(config.max_sim_time.is_finite() && config.max_sim_time > 0.0) {
            return Err(BuildError::Config(format!(
                "max_sim_time must be positive and finite, got {}",
                config.max_sim_time
            )));
        }
        if !(config.mitigation_persist.is_finite() && config.mitigation_persist >= 0.0) {
            return Err(BuildError::Config(format!(
                "mitigation_persist must be non-negative, got {}",
                config.mitigation_persist
            )));
        }
        Ok(())
    }

    /// Builds the vehicle.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Config`] when the configuration violates a
    /// simulator invariant (zero/non-finite rates, redundancy 0, …).
    pub fn build(self) -> Result<FlightSimulator, BuildError> {
        Self::validate(&self.config)?;
        let mut sim = FlightSimulator::new(self.mission, self.faults, self.config);
        sim.set_attacks(self.attacks);
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imufit_missions::all_missions;
    use imufit_scenario::EstimatorBackend;

    #[test]
    fn builds_from_paper_default_scenario() {
        let spec = ScenarioSpec::paper_default();
        let missions = all_missions();
        let sim = VehicleBuilder::from_scenario(&spec, &missions[0], 42)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(sim.estimator().label(), "ekf");
        assert_eq!(sim.config().imu_redundancy, 3);
    }

    #[test]
    fn scenario_selects_the_backend() {
        let mut spec = ScenarioSpec::paper_default();
        spec.flight.estimator = EstimatorBackend::Complementary;
        let missions = all_missions();
        let sim = VehicleBuilder::from_scenario(&spec, &missions[0], 42)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(sim.estimator().label(), "complementary");
    }

    #[test]
    fn rejects_invalid_scenarios() {
        let missions = all_missions();
        let mut spec = ScenarioSpec::paper_default();
        spec.flight.imu_redundancy = 0;
        assert!(matches!(
            VehicleBuilder::from_scenario(&spec, &missions[0], 1),
            Err(BuildError::Scenario(_))
        ));

        let mut spec = ScenarioSpec::paper_default();
        spec.flight.physics_rate = 0.0;
        assert!(VehicleBuilder::from_scenario(&spec, &missions[0], 1).is_err());
    }

    #[test]
    fn rejects_invalid_hand_rolled_configs() {
        let missions = all_missions();
        let mission = &missions[0];

        let mut config = SimConfig::default_for(mission, 1);
        config.gps_rate = 0.0;
        assert!(matches!(
            VehicleBuilder::new(mission, config).build(),
            Err(BuildError::Config(_))
        ));

        let mut config = SimConfig::default_for(mission, 1);
        config.imu_redundancy = 0;
        assert!(VehicleBuilder::new(mission, config).build().is_err());

        let mut config = SimConfig::default_for(mission, 1);
        config.max_sim_time = f64::NAN;
        assert!(VehicleBuilder::new(mission, config).build().is_err());

        let mut config = SimConfig::default_for(mission, 2);
        config.physics_rate = f64::INFINITY;
        assert!(VehicleBuilder::new(mission, config).build().is_err());
    }
}
