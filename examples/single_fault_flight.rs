//! Deep-dive into a single fault scenario: fly the fastest drone with a
//! 30-second accelerometer "Fixed value" fault (the paper's Figure 3 setup)
//! and print a second-by-second account of what the estimator and the
//! vehicle actually did.
//!
//! ```text
//! cargo run --release --example single_fault_flight
//! ```

use imufit::prelude::*;

fn main() {
    let missions = all_missions();
    let mission = &missions[9]; // the 25 km/h "express" drone of Figure 3

    let fault = FaultSpec::new(
        FaultKind::FixedValue,
        FaultTarget::Accelerometer,
        InjectionWindow::new(150.0, 30.0), // mid-leg on this mission's timeline
    );
    println!(
        "mission: {} ({} km/h), fault: {} for {:.0} s at t = {:.0} s",
        mission.drone.name,
        mission.drone.cruise_speed_kmh,
        fault.label(),
        fault.window.duration,
        fault.window.start
    );

    let config = SimConfig::from_scenario(&ScenarioSpec::paper_default(), mission, 3);
    let result = FlightSimulator::new(mission, vec![fault], config).run();

    println!("\n time |   true position (N, E, alt) | est-true err | fault | failsafe");
    println!("------+-----------------------------+--------------+-------+---------");
    for p in result.recorder.points().iter().step_by(10) {
        let err = (p.est_position - p.true_position).norm();
        println!(
            "{:5.0} | ({:8.1}, {:8.1}, {:5.1}) | {:10.2} m | {:^5} | {}",
            p.time,
            p.true_position.x,
            p.true_position.y,
            -p.true_position.z,
            err,
            if p.fault_active { "YES" } else { "" },
            if p.failsafe { "ACTIVE" } else { "" }
        );
    }

    println!(
        "\noutcome: {} after {:.1} s ({} inner / {} outer bubble violations, {} EKF resets)",
        result.outcome.label(),
        result.duration,
        result.violations.inner,
        result.violations.outer,
        result.ekf_resets
    );
    println!(
        "paper expectation for this scenario (Fig. 3): the drone leaves its trajectory and crashes"
    );
}
