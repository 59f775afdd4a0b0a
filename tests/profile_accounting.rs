//! The tick-stage profiler's seams must tile the real pipeline: with
//! every tick sampled, the per-stage self-times have to account for ≥95%
//! of the measured tick wall-clock (anything less means a pipeline stage
//! runs outside the marked seams). The registry histograms the profiler
//! feeds (`sim_tick_seconds`, `sim_stage_<stage>_seconds`) must hold
//! exactly what it reports.
#![cfg(feature = "obs")]

use imufit_missions::all_missions;
use imufit_obs::profile;
use imufit_uav::{FlightSimulator, SimConfig};

/// The registry histogram the profiler feeds for `name`.
fn hist(name: &str) -> imufit_obs::Histogram {
    imufit_obs::histogram(name, imufit_obs::buckets::LATENCY_S)
}

/// One test body so the profiler's global accumulators are never shared
/// between concurrently running tests. The accumulators are never reset,
/// so every assertion is on the difference across the 2000 ticks.
#[test]
fn stage_seams_account_for_the_tick() {
    let missions = all_missions();
    let mission = &missions[0];

    let mut sim = FlightSimulator::new(mission, Vec::new(), SimConfig::default_for(mission, 9));
    let stage_hists: Vec<_> = profile::STAGE_NAMES
        .iter()
        .map(|name| hist(&format!("sim_stage_{name}_seconds")))
        .collect();
    let tick_hist = hist("sim_tick_seconds");
    let hist_sums_before: Vec<f64> = stage_hists.iter().map(|h| h.sum()).collect();
    let tick_count_before = tick_hist.count();
    let report_before = profile::report();
    let ticks_before = profile::sampled_ticks();
    let tick_nanos_before = profile::sampled_tick_nanos();

    profile::set_sample_period(1);
    for _ in 0..2000 {
        sim.step();
    }
    profile::set_sample_period(profile::DEFAULT_SAMPLE_PERIOD);

    assert_eq!(
        profile::sampled_ticks() - ticks_before,
        2000,
        "every tick must be sampled"
    );
    assert_eq!(
        tick_hist.count() - tick_count_before,
        2000,
        "sim_tick_seconds observes every sampled tick"
    );
    let report: Vec<(&str, u64)> = profile::report()
        .into_iter()
        .zip(&report_before)
        .map(|((name, after), (_, before))| (name, after - before))
        .collect();
    // The stage histograms are the profiler's store: their sums are the
    // report, to the nanosecond the report rounds to.
    for (((name, nanos), hist), before) in report.iter().zip(&stage_hists).zip(&hist_sums_before) {
        let hist_nanos = (hist.sum() - before) * 1e9;
        assert!(
            (hist_nanos - *nanos as f64).abs() <= 1.0,
            "sim_stage_{name}_seconds holds {hist_nanos} ns, report says {nanos} ns"
        );
    }
    // Every pipeline stage actually did work on a 2000-tick window.
    for (name, nanos) in &report {
        assert!(*nanos > 0, "stage {name} recorded no self-time: {report:?}");
    }
    let total = (profile::sampled_tick_nanos() - tick_nanos_before) as f64;
    let fraction = report.iter().map(|(_, n)| *n as f64).sum::<f64>() / total;
    assert!(
        fraction >= 0.95,
        "stage seams account for {:.1}% of the tick; want >= 95%",
        fraction * 100.0
    );
    let folded = profile::folded();
    for name in ["estimator", "dynamics", "controller"] {
        assert!(folded.contains(&format!("tick;{name} ")), "{folded}");
    }
    assert!(profile::render_table().contains("% accounted"));
}
