//! Integration tests for the scenario layer: one document drives the whole
//! pipeline — vehicle assembly, estimator backend selection, campaign
//! construction — and survives the round trip through both text formats.

use imufit::prelude::*;
use imufit::scenario::{EstimatorBackend as Backend, ScenarioError, ScenarioSpec, PRESET_NAMES};

#[test]
fn every_preset_round_trips_through_toml_and_json() {
    for name in PRESET_NAMES {
        let spec = ScenarioSpec::preset(name).expect("all preset names resolve");
        spec.validate().expect("presets are valid");

        let toml = spec.to_toml();
        let from_toml = ScenarioSpec::from_toml(&toml).expect("presets parse back from TOML");
        assert_eq!(spec, from_toml, "TOML round trip changed preset '{name}'");

        let json = spec.to_json();
        let from_json = ScenarioSpec::from_json(&json).expect("presets parse back from JSON");
        assert_eq!(spec, from_json, "JSON round trip changed preset '{name}'");

        // Format sniffing picks the right parser for both.
        assert_eq!(spec, ScenarioSpec::from_str_auto(&toml).unwrap());
        assert_eq!(spec, ScenarioSpec::from_str_auto(&json).unwrap());
    }
}

#[test]
fn scenario_file_drives_a_flight_end_to_end() {
    // Write a scenario to disk, load it back, assemble a vehicle, fly it:
    // the full `reproduce --scenario` path minus the binary.
    let mut spec = ScenarioSpec::paper_default();
    spec.name = "integration".to_string();
    spec.flight.estimator = Backend::Complementary;

    let dir = std::env::temp_dir().join("imufit_scenario_pipeline_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("integration.toml");
    std::fs::write(&path, spec.to_toml()).unwrap();

    let loaded = ScenarioSpec::from_file(&path).expect("written scenario loads back");
    assert_eq!(loaded, spec);

    let missions = all_missions();
    loaded.validate().expect("valid scenario");
    let config = SimConfig::from_scenario(&loaded, &missions[0], 7);
    config.validate().expect("valid vehicle");
    let mut sim = FlightSimulator::new(&missions[0], Vec::new(), config);
    assert_eq!(sim.estimator().label(), "complementary");
    let summary = sim.run_summary();
    assert!(
        summary.outcome.is_completed(),
        "complementary-filter gold run failed: {:?}",
        summary.outcome
    );
    assert!(summary.distance_true > 100.0);
}

#[test]
fn backend_selection_is_purely_declarative() {
    // The same code, two spec values, two different estimators in the loop.
    let missions = all_missions();
    for (backend, label) in [
        (Backend::Ekf, "ekf"),
        (Backend::Complementary, "complementary"),
    ] {
        let mut spec = ScenarioSpec::paper_default();
        spec.flight.estimator = backend;
        let config = SimConfig::from_scenario(&spec, &missions[0], 1);
        assert_eq!(config.estimator, backend);
        let sim = FlightSimulator::new(&missions[0], Vec::new(), config);
        assert_eq!(sim.estimator().label(), label);
    }
}

#[test]
fn invalid_scenarios_are_rejected_before_flight() {
    let missions = all_missions();

    // Each bad setting is caught by the document validator and, on the
    // realized configuration, by the simulator's own guard.
    let mut zero_rate = ScenarioSpec::paper_default();
    zero_rate.flight.physics_rate = 0.0;
    assert!(matches!(
        zero_rate.validate(),
        Err(ScenarioError::BadNumber { .. })
    ));
    assert!(SimConfig::from_scenario(&zero_rate, &missions[0], 1)
        .validate()
        .is_err());

    let mut no_redundancy = ScenarioSpec::paper_default();
    no_redundancy.flight.imu_redundancy = 0;
    assert_eq!(no_redundancy.validate(), Err(ScenarioError::ZeroRedundancy));
    assert!(SimConfig::from_scenario(&no_redundancy, &missions[0], 1)
        .validate()
        .is_err());

    let mut no_missions = ScenarioSpec::paper_default();
    no_missions.campaign.missions = 0;
    assert!(no_missions.validate().is_err());
}

#[test]
fn unknown_keys_in_documents_are_errors() {
    let mut toml = ScenarioSpec::paper_default().to_toml();
    toml.push_str("\n[sim]\nwarp_drive = 9000.0\n");
    assert!(
        ScenarioSpec::from_toml(&toml).is_err(),
        "a typoed key must not be silently ignored"
    );
}
