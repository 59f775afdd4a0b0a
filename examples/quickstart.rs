//! Quickstart: fly one mission clean, then the same mission with a fault,
//! and compare what happens.
//!
//! Vehicles are realized from the `paper-default` scenario preset — the
//! single document that describes the paper's whole setup — through
//! [`SimConfig::from_scenario`].
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use imufit::prelude::*;

fn main() {
    let spec = ScenarioSpec::paper_default();
    spec.validate()
        .expect("paper-default is always a valid scenario");
    let missions = all_missions();
    let mission = &missions[0]; // 5 km/h courier, straight N-S route
    let config = SimConfig::from_scenario(&spec, mission, 42);

    // --- Gold run ---
    let gold = FlightSimulator::new(mission, Vec::new(), config.clone()).run();
    println!(
        "gold run:  {:9} | {:6.1} s | {:.2} km | {} inner / {} outer violations",
        gold.outcome.label(),
        gold.duration,
        gold.distance_est / 1000.0,
        gold.violations.inner,
        gold.violations.outer
    );

    // --- Same mission with a 10 s gyroscope freeze at t = 90 s ---
    let fault = FaultSpec::new(
        FaultKind::Freeze,
        FaultTarget::Gyrometer,
        InjectionWindow::new(90.0, 10.0),
    );
    let faulty = FlightSimulator::new(mission, vec![fault], config).run();
    println!(
        "gyro freeze: {:7} | {:6.1} s | {:.2} km | {} inner / {} outer violations",
        faulty.outcome.label(),
        faulty.duration,
        faulty.distance_est / 1000.0,
        faulty.violations.inner,
        faulty.violations.outer
    );

    assert!(
        gold.outcome.is_completed(),
        "the gold run should always complete"
    );
}
