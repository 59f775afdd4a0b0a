//! A `FlightSimulator` is a plain owned value: a flight cloned at the
//! campaign's injection time (t = 90 s) flies on to the same result and
//! the same black box as a flight that was never cloned. Every paper
//! fault starts at that time, so this is the primitive that lets faulted
//! runs share their fault-free prefix.

use imufit::missions::DroneSpec;
use imufit::prelude::*;

/// Flies `sim` to the end; returns its result and its sealed black box.
fn finish(mut sim: FlightSimulator) -> (FlightResult, Option<Vec<u8>>) {
    let summary = sim.run_summary();
    let black_box = sim.take_black_box("fork");
    (summary.with_recorder(sim.recorder().clone()), black_box)
}

fn campaign_fault(kind: FaultKind, target: FaultTarget, duration: f64) -> Vec<FaultSpec> {
    vec![FaultSpec::new(
        kind,
        target,
        InjectionWindow::campaign(duration),
    )]
}

/// Flies `faults` under `config` once uncloned, and once as a clone taken
/// at the injection time, and checks the two end the same way. The
/// original keeps flying before the clone does, so a clone that shared
/// any state with it would drift. Returns the flight's result.
fn assert_fork_flies_on(
    mission: &Mission,
    faults: Vec<FaultSpec>,
    mut config: SimConfig,
) -> FlightResult {
    config.trace.enabled = true;
    let reference = finish(FlightSimulator::new(
        mission,
        faults.clone(),
        config.clone(),
    ));
    assert!(reference.1.is_some(), "a traced flight seals a box");
    assert!(
        reference.0.duration > InjectionWindow::CAMPAIGN_START + 1.0,
        "the flight must outlive the fork: {:?} at {:.1} s",
        reference.0.outcome,
        reference.0.duration
    );

    let mut original = FlightSimulator::new(mission, faults, config);
    while original.time() < InjectionWindow::CAMPAIGN_START {
        original.step();
    }
    let fork = original.clone();
    assert_eq!(finish(original), reference, "the original after the fork");
    assert_eq!(finish(fork), reference, "the fork");
    reference.0
}

#[test]
fn cloned_ekf_flight_with_an_imu_fault_flies_on_identically() {
    let mission = &all_missions()[0];
    assert_fork_flies_on(
        mission,
        campaign_fault(FaultKind::Freeze, FaultTarget::Imu, 10.0),
        SimConfig::default_for(mission, 3),
    );
}

#[test]
fn cloned_complementary_flight_flies_on_identically() {
    let mission = &all_missions()[0];
    let mut config = SimConfig::default_for(mission, 5);
    config.estimator = EstimatorBackend::Complementary;
    assert_fork_flies_on(
        mission,
        campaign_fault(FaultKind::Noise, FaultTarget::Accelerometer, 2.0),
        config,
    );
}

/// Fast detection and an armed black box: the detection ensemble and the
/// trace ring are cloned mid-state, and the fault's trigger freezes a
/// pre-window recorded before the fork. The ensemble alarms during the
/// study missions' takeoff, so this flight climbs a light test airframe
/// onto a 500 m route instead.
#[test]
fn cloned_fast_detection_flight_keeps_its_ensemble_and_ring() {
    let mission = Mission {
        drone: DroneSpec {
            id: 98,
            name: "fork".into(),
            cruise_speed_kmh: 12.0,
            payload_kg: 0.2,
            dimension_m: 0.6,
            safety_distance_m: 2.0,
        },
        home: Vec3::ZERO,
        waypoints: vec![Vec3::new(500.0, 0.0, -imufit::missions::CRUISE_ALTITUDE)],
        direction: "S-N".into(),
    };
    let mut config = SimConfig::default_for(&mission, 41);
    config.fast_detection = true;
    let result = assert_fork_flies_on(
        &mission,
        campaign_fault(FaultKind::Max, FaultTarget::Gyrometer, 30.0),
        config,
    );
    assert_eq!(
        result.outcome.label(),
        "failsafe",
        "fast detection must catch the fault after the fork: {:?}",
        result.outcome
    );
}
