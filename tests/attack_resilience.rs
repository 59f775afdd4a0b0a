//! Integration tests for the beyond-IMU attack surface: scheduled sensor
//! attacks flown end-to-end, with and without the innovation-consistency
//! monitors, pinning the graceful-degradation story — a GPS spoof ramp
//! must walk reject → drop → dead-reckon → failsafe instead of silently
//! dragging the vehicle into a bubble violation.

use imufit::controller::FailsafeReason;
use imufit::faults::{AttackKind, AttackSpec, InjectionWindow};
use imufit::prelude::*;
use imufit::trace::{BlackBox, TraceEvent, TraceEventKind};
use imufit_math::Vec3;
use imufit_missions::{DroneSpec, CRUISE_ALTITUDE};

fn mission() -> Mission {
    Mission {
        drone: DroneSpec {
            id: 61,
            name: "attack-it".into(),
            cruise_speed_kmh: 12.0,
            payload_kg: 0.2,
            dimension_m: 0.6,
            safety_distance_m: 2.0,
        },
        home: Vec3::new(-100.0, 40.0, 0.0),
        waypoints: vec![Vec3::new(120.0, 40.0, -CRUISE_ALTITUDE)],
        direction: "S-N".into(),
    }
}

/// Flies `sim` with its black box armed and returns the summary and the
/// box's events (none when the flight recorded nothing).
fn fly_traced(mut sim: FlightSimulator) -> (FlightSummary, Vec<TraceEvent>) {
    let summary = sim.run_summary();
    let events = sim
        .take_black_box("attack")
        .map(|bytes| BlackBox::decode(&bytes).expect("box decodes").events)
        .unwrap_or_default();
    (summary, events)
}

fn attack_run(kind: AttackKind, monitors: bool, seed: u64) -> (FlightSummary, Vec<TraceEvent>) {
    let m = mission();
    let mut config = SimConfig::default_for(&m, seed);
    config.innovation_monitors = monitors;
    config.trace.enabled = true;
    let mut sim = FlightSimulator::new(&m, Vec::new(), config);
    sim.set_attacks(vec![AttackSpec::new(
        kind,
        InjectionWindow::new(40.0, 30.0),
    )]);
    fly_traced(sim)
}

/// Degradation-ladder stages the black box recorded for one sensor
/// (param packs `sensor.id() << 8 | stage.code()`; GPS id is 3).
fn gps_stages(events: &[TraceEvent]) -> Vec<u32> {
    events
        .iter()
        .filter(|e| e.kind == TraceEventKind::SensorDegradation && (e.param >> 8) == 3)
        .map(|e| e.param & 0xff)
        .collect()
}

#[test]
fn gps_spoof_ramp_with_monitors_walks_the_ladder_to_failsafe() {
    let (r, events) = attack_run(AttackKind::GpsSpoofRamp, true, 7);

    // The ladder ends in a deliberate, detected failsafe — not a geofence
    // crash from silently trusting the spoofed fixes.
    assert!(
        matches!(
            r.outcome,
            FlightOutcome::Failsafe {
                reason: FailsafeReason::ExternalDetection,
                ..
            }
        ),
        "expected external-detection failsafe, got {:?}",
        r.outcome
    );
    // The run classifies as a deliberate failsafe, never as a crash —
    // the bubble tracker may tally proximity while the spoof drags the
    // vehicle, but the ladder ends the flight before impact.
    assert!(!r.outcome.is_crash(), "spoof run crashed: {:?}", r.outcome);

    // The black box carries the attack edge and the ordered GPS ladder.
    assert!(
        events
            .iter()
            .any(|e| e.kind == TraceEventKind::AttackActivated),
        "missing attack-activated edge"
    );
    assert_eq!(
        gps_stages(&events),
        vec![1, 2],
        "GPS must walk Rejecting (1) then Dropped (2), in order"
    );

    // Detection is causal: suspicion starts only after the spoof does.
    let attack_t = events
        .iter()
        .find(|e| e.kind == TraceEventKind::AttackActivated)
        .map(|e| e.time)
        .unwrap();
    let first_degradation = events
        .iter()
        .find(|e| e.kind == TraceEventKind::SensorDegradation)
        .map(|e| e.time)
        .unwrap();
    assert!(
        first_degradation >= attack_t,
        "degradation at {first_degradation:.2}s precedes the attack at {attack_t:.2}s"
    );
}

#[test]
fn monitors_stay_quiet_on_a_clean_flight() {
    let m = mission();
    let mut config = SimConfig::default_for(&m, 11);
    config.innovation_monitors = true;
    config.trace.enabled = true;
    let sim = FlightSimulator::new(&m, Vec::new(), config);
    // No box at all, or one without a degradation edge.
    let (r, events) = fly_traced(sim);
    assert!(r.outcome.is_completed(), "clean flight: {:?}", r.outcome);
    assert!(
        events
            .iter()
            .all(|e| e.kind != TraceEventKind::SensorDegradation),
        "false-positive degradation on a nominal flight"
    );
}

#[test]
fn every_attack_kind_reaches_a_terminal_classification() {
    for kind in AttackKind::all() {
        for monitors in [false, true] {
            let (r, _) = attack_run(kind, monitors, 31);
            let label = r.outcome.label();
            assert!(
                ["completed", "crash", "failsafe", "timeout"].contains(&label),
                "{kind} (monitors={monitors}): unclassified outcome {label}"
            );
        }
    }
}

#[test]
fn never_activated_attack_leaves_the_flight_bit_identical() {
    let m = mission();
    let base = FlightSimulator::new(&m, Vec::new(), SimConfig::default_for(&m, 5)).run();
    // Window far past the watchdog: scheduled but never activated, so the
    // attack RNG stream is never consumed and nothing may differ.
    let ghost = AttackSpec::new(AttackKind::GpsSpoofRamp, InjectionWindow::new(1.0e9, 10.0));
    let mut attacked = FlightSimulator::new(&m, Vec::new(), SimConfig::default_for(&m, 5));
    attacked.set_attacks(vec![ghost]);
    let attacked = attacked.run();
    assert_eq!(base.outcome.label(), attacked.outcome.label());
    assert_eq!(base.duration, attacked.duration);
    assert_eq!(base.distance_true, attacked.distance_true);
    assert_eq!(base.distance_est, attacked.distance_est);
    assert_eq!(base.ekf_resets, attacked.ekf_resets);
}
