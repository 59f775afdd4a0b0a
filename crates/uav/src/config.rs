//! Per-flight simulator configuration.

use imufit_dynamics::WindModel;
use imufit_missions::Mission;
use imufit_scenario::{EstimatorBackend, FlightSettings, ScenarioSpec};
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
    /// A configuration matched to a mission: the watchdog scales with the
    /// mission's nominal duration.
    pub fn default_for(mission: &Mission, seed: u64) -> Self {
        SimConfig {
            physics_rate: 250.0,
            gps_rate: 5.0,
            baro_rate: 25.0,
            compass_rate: 10.0,
            tracking_rate: 1.0,
            imu_redundancy: 3,
            max_sim_time: 2.5 * mission.plan().nominal_duration() + 60.0,
            wind: WindModel::calm(),
            risk_factor: 1.0,
            faults_affect_all_redundant: true,
            fast_detection: false,
            mitigation_persist: 0.25,
            innovation_monitors: false,
            estimator: EstimatorBackend::Ekf,
            trace: TraceSettings::default(),
            seed,
        }
    }

    /// A configuration realized from a scenario document: the flight
    /// settings, mitigation, wind, estimator backend and trace settings all
    /// come from the spec; the mission scales the watchdog and the seed
    /// stays external (it is a campaign axis, derived per experiment).
    pub fn from_scenario(spec: &ScenarioSpec, mission: &Mission, seed: u64) -> Self {
        let mut config = Self::from_flight(
            &spec.flight,
            spec.faults.affect_all_redundant,
            mission,
            seed,
        );
        config.trace = spec.trace.clone();
        config.innovation_monitors = spec.attacks.monitors;
        config
    }

    /// A configuration realized from flight settings alone, for callers
    /// (like the campaign engine) that carry the fault-selection settings
    /// separately from the spec.
    pub fn from_flight(
        f: &FlightSettings,
        faults_affect_all_redundant: bool,
        mission: &Mission,
        seed: u64,
    ) -> Self {
        let mut wind = WindModel::calm();
        wind.mean = imufit_math::Vec3::new(f.wind.mean_north, f.wind.mean_east, f.wind.mean_down);
        wind.gust_std = f.wind.gust_std;
        wind.gust_tau = f.wind.gust_tau;
        SimConfig {
            physics_rate: f.physics_rate,
            gps_rate: f.gps_rate,
            baro_rate: f.baro_rate,
            compass_rate: f.compass_rate,
            tracking_rate: f.tracking_rate,
            imu_redundancy: f.imu_redundancy,
            max_sim_time: f.watchdog_factor * mission.plan().nominal_duration()
                + f.watchdog_margin_s,
            wind,
            risk_factor: f.risk_factor,
            faults_affect_all_redundant,
            fast_detection: f.mitigation.fast_detection,
            mitigation_persist: f.mitigation.persist_s,
            innovation_monitors: false,
            estimator: f.estimator,
            trace: TraceSettings::default(),
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imufit_missions::all_missions;

    /// The scenario path must realize the paper-default preset to exactly
    /// the hand-rolled defaults — this is what keeps the refactored
    /// pipeline bit-for-bit on the reproduction.
    #[test]
    fn paper_default_scenario_matches_default_for() {
        let spec = ScenarioSpec::paper_default();
        for mission in &all_missions()[..3] {
            let a = SimConfig::default_for(mission, 42);
            let b = SimConfig::from_scenario(&spec, mission, 42);
            assert_eq!(a.physics_rate, b.physics_rate);
            assert_eq!(a.gps_rate, b.gps_rate);
            assert_eq!(a.baro_rate, b.baro_rate);
            assert_eq!(a.compass_rate, b.compass_rate);
            assert_eq!(a.tracking_rate, b.tracking_rate);
            assert_eq!(a.imu_redundancy, b.imu_redundancy);
            assert_eq!(a.max_sim_time, b.max_sim_time);
            assert_eq!(a.wind.mean, b.wind.mean);
            assert_eq!(a.wind.gust_std, b.wind.gust_std);
            assert_eq!(a.wind.gust_tau, b.wind.gust_tau);
            assert_eq!(a.risk_factor, b.risk_factor);
            assert_eq!(a.faults_affect_all_redundant, b.faults_affect_all_redundant);
            assert_eq!(a.fast_detection, b.fast_detection);
            assert_eq!(a.mitigation_persist, b.mitigation_persist);
            assert_eq!(a.innovation_monitors, b.innovation_monitors);
            assert_eq!(a.estimator, b.estimator);
            assert_eq!(a.seed, b.seed);
        }
    }

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
}
