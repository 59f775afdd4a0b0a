//! The metric runtime kill-switch is the tick-stage profiler's only
//! switch. This check lives in its own test binary because throwing the
//! switch silences every metric in the process, which would race any
//! test counting observations beside it.
#![cfg(feature = "enabled")]

use imufit_obs::profile::{self, Stage};

#[test]
fn disabled_profiler_is_inert() {
    let before = profile::sampled_ticks();
    imufit_obs::set_runtime_enabled(false);
    profile::set_sample_period(1);
    for _ in 0..10 {
        let mut guard = profile::tick_begin();
        guard.stage(Stage::Voter);
    }
    assert_eq!(profile::sampled_ticks(), before);
    imufit_obs::set_runtime_enabled(true);
    profile::set_sample_period(profile::DEFAULT_SAMPLE_PERIOD);
}
