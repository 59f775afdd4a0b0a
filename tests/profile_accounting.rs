//! The tick-stage profiler's seams must tile the real pipeline: with
//! every tick sampled, the per-stage self-times have to account for ≥95%
//! of the measured tick wall-clock (anything less means a pipeline stage
//! runs outside the marked seams).
#![cfg(feature = "obs")]

use imufit_missions::all_missions;
use imufit_obs::profile;
use imufit_uav::{FlightSimulator, SimConfig};

/// One test body so the profiler's global accumulators are never shared
/// between concurrently running tests.
#[test]
fn stage_seams_account_for_the_tick() {
    let missions = all_missions();
    let mission = &missions[0];

    let mut sim = FlightSimulator::new(mission, Vec::new(), SimConfig::default_for(mission, 9));
    profile::reset();
    profile::set_enabled(true);
    profile::set_sample_period(1);
    for _ in 0..2000 {
        sim.step();
    }
    assert_eq!(profile::sampled_ticks(), 2000, "every tick must be sampled");
    let fraction = profile::accounted_fraction();
    assert!(
        fraction >= 0.95,
        "stage seams account for {:.1}% of the tick; want >= 95%",
        fraction * 100.0
    );
    // Every pipeline stage actually did work on a 2000-tick window.
    let report = profile::report();
    for (name, nanos) in &report {
        assert!(*nanos > 0, "stage {name} recorded no self-time: {report:?}");
    }
    // The percentage table is internally consistent: stage shares of the
    // measured tick time sum to the accounted fraction.
    let total = profile::sampled_tick_nanos() as f64;
    let summed: f64 = report.iter().map(|(_, n)| *n as f64 / total).sum();
    assert!(
        (summed - fraction).abs() < 1e-9,
        "per-stage percentages must sum to the accounted fraction"
    );
    let folded = profile::folded();
    for name in ["estimator", "dynamics", "controller"] {
        assert!(folded.contains(&format!("tick;{name} ")), "{folded}");
    }
    assert!(profile::render_table().contains("% accounted"));

    profile::set_sample_period(profile::DEFAULT_SAMPLE_PERIOD);
    profile::set_enabled(true);
}
