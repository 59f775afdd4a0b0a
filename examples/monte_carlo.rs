//! Monte-Carlo generalization check: does the flight stack behave the same
//! on *generated* missions as on the ten hand-built study missions?
//!
//! Generates a random fleet within the study envelope, flies gold runs, and
//! repeats one fault experiment across the generated fleet.
//!
//! ```text
//! cargo run --release --example monte_carlo [seed]
//! ```

use imufit::missions::generator::generate_fleet;
use imufit::prelude::*;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(31337);
    let fleet = generate_fleet(10, seed);
    println!("generated fleet (seed {seed}):");
    for m in &fleet {
        println!(
            "  {:<6} {:>4.0} km/h  {:>6.0} m route  {}  turns: {}",
            m.drone.name,
            m.drone.cruise_speed_kmh,
            m.route_length(),
            m.direction,
            m.waypoints.len() - 1
        );
    }

    let spec = ScenarioSpec::paper_default();
    spec.validate()
        .expect("paper-default is always a valid scenario");

    // Gold runs across the generated fleet.
    let mut gold_done = 0;
    for m in &fleet {
        let config = SimConfig::from_scenario(&spec, m, seed ^ 0xABCD);
        let r = FlightSimulator::new(m, Vec::new(), config).run_summary();
        if r.outcome.is_completed() {
            gold_done += 1;
        } else {
            println!("  gold run FAILED on {}: {:?}", m.drone.name, r.outcome);
        }
    }
    println!("\ngold runs completed: {gold_done}/{}", fleet.len());

    // One fault experiment repeated across the generated fleet: Gyro Noise
    // for 10 s at the usual 90 s mark.
    let mut faulty_done = 0;
    for m in &fleet {
        let fault = FaultSpec::new(
            FaultKind::Noise,
            FaultTarget::Gyrometer,
            InjectionWindow::new(90.0, 10.0),
        );
        let config = SimConfig::from_scenario(&spec, m, seed ^ 0xBEEF);
        let r = FlightSimulator::new(m, vec![fault], config).run_summary();
        if r.outcome.is_completed() {
            faulty_done += 1;
        }
    }
    println!(
        "Gyro Noise 10 s completed: {faulty_done}/{} (study missions: ~0-20%)",
        fleet.len()
    );
    assert!(
        faulty_done <= gold_done,
        "faults must not outperform gold runs"
    );
}
