//! Per-flight simulator configuration.

use imufit_dynamics::WindModel;
use imufit_missions::Mission;
use imufit_scenario::{
    AttackSettings, EstimatorBackend, FaultSettings, FlightSettings, ScenarioSpec,
};
use imufit_trace::TraceSettings;

/// Simulation configuration for one flight.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Physics and control base rate, Hz.
    pub physics_rate: f64,
    /// GNSS fix rate, Hz.
    pub gps_rate: f64,
    /// Barometer sample rate, Hz.
    pub baro_rate: f64,
    /// Compass (yaw aiding) rate, Hz.
    pub compass_rate: f64,
    /// Tracking/bubble cadence, Hz (the paper uses 1 Hz).
    pub tracking_rate: f64,
    /// Number of redundant IMU instances (PX4-class autopilots carry 3).
    pub imu_redundancy: usize,
    /// Watchdog limit, simulated seconds.
    pub max_sim_time: f64,
    /// Wind model.
    pub wind: WindModel,
    /// Risk factor `R` for the outer bubble (>= 1; the paper uses 1).
    pub risk_factor: f64,
    /// The paper's assumption: injected faults corrupt *all* redundant IMU
    /// instances (true, the default). Set to `false` to retarget any
    /// all-scope fault at hardware instance 0 only
    /// ([`imufit_faults::FaultScope::Instance`]) so the consensus voter can
    /// exclude it — the redundancy ablation of DESIGN.md. Faults that
    /// already carry an instance scope are used as-is either way.
    pub faults_affect_all_redundant: bool,
    /// Fast-detection mitigation (off by default, matching the paper's
    /// setup): runs the `imufit-detect` ensemble on the consumed IMU stream
    /// and latches failsafe as soon as an alarm persists for
    /// [`SimConfig::mitigation_persist`] — the "quick detection and
    /// tolerance techniques" the paper's discussion calls for.
    pub fast_detection: bool,
    /// Continuous alarm time before the mitigation triggers failsafe, s.
    pub mitigation_persist: f64,
    /// Per-sensor innovation-consistency monitors with graceful degradation
    /// (reject → drop-sensor → dead-reckon → failsafe). Off by default so
    /// the paper-default campaign stays bit-identical to the golden
    /// results; the `attack-sweep` scenario turns them on.
    pub innovation_monitors: bool,
    /// Which navigation filter flies the vehicle (EKF for the paper's
    /// reproduction; the complementary filter is the gating-free baseline).
    pub estimator: EstimatorBackend,
    /// Black-box tracing (disarmed by default; the collector never feeds
    /// back into simulation state, so results are identical either way).
    pub trace: TraceSettings,
    /// Master seed for every stochastic model in this flight.
    pub seed: u64,
}

impl SimConfig {
    /// The paper's configuration for a mission: the `paper-default`
    /// scenario realized against it.
    pub fn default_for(mission: &Mission, seed: u64) -> Self {
        Self::from_scenario(&ScenarioSpec::paper_default(), mission, seed)
    }

    /// A configuration realized from a scenario document: the flight
    /// settings, fault scope, innovation monitors and trace settings all
    /// come from the spec; the mission scales the watchdog and the seed
    /// stays external (it is a campaign axis, derived per experiment).
    pub fn from_scenario(spec: &ScenarioSpec, mission: &Mission, seed: u64) -> Self {
        Self::from_settings(
            &spec.flight,
            &spec.faults,
            &spec.attacks,
            &spec.trace,
            mission,
            seed,
        )
    }

    /// The one realization of scenario settings against a mission and a
    /// seed, for callers (like the campaign engine) that carry the
    /// sections separately from a spec. It copies every setting as given:
    /// an unusable value (redundancy 0, a zero rate) is left for
    /// [`SimConfig::validate`] to reject.
    pub fn from_settings(
        flight: &FlightSettings,
        faults: &FaultSettings,
        attacks: &AttackSettings,
        trace: &TraceSettings,
        mission: &Mission,
        seed: u64,
    ) -> Self {
        let mut wind = WindModel::calm();
        wind.mean = imufit_math::Vec3::new(
            flight.wind.mean_north,
            flight.wind.mean_east,
            flight.wind.mean_down,
        );
        wind.gust_std = flight.wind.gust_std;
        wind.gust_tau = flight.wind.gust_tau;
        SimConfig {
            physics_rate: flight.physics_rate,
            gps_rate: flight.gps_rate,
            baro_rate: flight.baro_rate,
            compass_rate: flight.compass_rate,
            tracking_rate: flight.tracking_rate,
            imu_redundancy: flight.imu_redundancy,
            max_sim_time: flight.watchdog_factor * mission.plan().nominal_duration()
                + flight.watchdog_margin_s,
            wind,
            risk_factor: flight.risk_factor,
            faults_affect_all_redundant: faults.affect_all_redundant,
            fast_detection: flight.mitigation.fast_detection,
            mitigation_persist: flight.mitigation.persist_s,
            innovation_monitors: attacks.monitors,
            estimator: flight.estimator,
            trace: trace.clone(),
            seed,
        }
    }

    /// Checks the invariants [`FlightSimulator`](crate::FlightSimulator)
    /// relies on. The scenario validator enforces the same rules at the
    /// document level; this guard also covers hand-rolled [`SimConfig`]s
    /// that never saw a document.
    ///
    /// # Errors
    ///
    /// Describes the first violation: a zero or non-finite rate,
    /// redundancy 0, a non-positive watchdog or a negative persist window.
    pub fn validate(&self) -> Result<(), String> {
        let rates = [
            ("physics_rate", self.physics_rate),
            ("gps_rate", self.gps_rate),
            ("baro_rate", self.baro_rate),
            ("compass_rate", self.compass_rate),
            ("tracking_rate", self.tracking_rate),
        ];
        for (name, rate) in rates {
            if !(rate.is_finite() && rate > 0.0) {
                return Err(format!("{name} must be positive and finite, got {rate}"));
            }
        }
        if self.imu_redundancy == 0 {
            return Err("imu_redundancy must be at least 1".to_string());
        }
        if !(self.max_sim_time.is_finite() && self.max_sim_time > 0.0) {
            return Err(format!(
                "max_sim_time must be positive and finite, got {}",
                self.max_sim_time
            ));
        }
        if !(self.mitigation_persist.is_finite() && self.mitigation_persist >= 0.0) {
            return Err(format!(
                "mitigation_persist must be non-negative, got {}",
                self.mitigation_persist
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imufit_missions::all_missions;

    #[test]
    fn ablation_presets_flip_their_switch() {
        let mission = &all_missions()[0];
        let ablation = ScenarioSpec::preset("redundancy-ablation").unwrap();
        assert!(!SimConfig::from_scenario(&ablation, mission, 1).faults_affect_all_redundant);
        let mitigated = ScenarioSpec::preset("mitigation-on").unwrap();
        assert!(SimConfig::from_scenario(&mitigated, mission, 1).fast_detection);
        let sweep = ScenarioSpec::preset("attack-sweep").unwrap();
        assert!(SimConfig::from_scenario(&sweep, mission, 1).innovation_monitors);
        assert!(!SimConfig::default_for(mission, 1).innovation_monitors);
    }

    #[test]
    fn validate_rejects_invalid_hand_rolled_configs() {
        let missions = all_missions();
        let mission = &missions[0];
        assert_eq!(SimConfig::default_for(mission, 1).validate(), Ok(()));

        let mut config = SimConfig::default_for(mission, 1);
        config.gps_rate = 0.0;
        assert!(config.validate().is_err());

        let mut config = SimConfig::default_for(mission, 1);
        config.imu_redundancy = 0;
        assert!(config.validate().is_err());

        let mut config = SimConfig::default_for(mission, 1);
        config.max_sim_time = f64::NAN;
        assert!(config.validate().is_err());

        let mut config = SimConfig::default_for(mission, 2);
        config.physics_rate = f64::INFINITY;
        assert!(config.validate().is_err());

        let mut config = SimConfig::default_for(mission, 2);
        config.mitigation_persist = -0.1;
        assert!(config.validate().is_err());
    }
}
