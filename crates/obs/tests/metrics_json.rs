//! Pins the exact bytes of `export::json()` (the `campaign_metrics.json`
//! a campaign writes) for a fixed registry state: label escaping, name and
//! label ordering, non-finite gauges, and the interpolated quantiles of
//! empty, single-bucket and overflowing histograms. It lives in its own
//! test binary so no other test registers metrics beside it.

use imufit_obs::{counter, counter_labeled, gauge, histogram};

static BOUNDS: &[f64] = &[0.001, 0.01, 0.1, 1.0];

#[test]
fn campaign_metrics_json_bytes_are_pinned() {
    counter("pin_runs_total").add(129);
    counter_labeled("pin_faults_total", "kind", "freeze").add(3);
    counter_labeled("pin_faults_total", "kind", "a\"b\\c\nd\te\u{1}").inc();
    gauge("pin_workers").set(2.5);
    gauge("pin_nan").set(f64::NAN);
    gauge("pin_neg").set(-0.125);
    let h = histogram("pin_run_seconds", BOUNDS);
    for v in [0.0005, 0.002, 0.004, 0.05, 0.3, 7.0] {
        h.observe(v);
    }
    histogram("pin_empty_seconds", BOUNDS);
    histogram("pin_one_seconds", BOUNDS).observe(0.02);

    let expected = if cfg!(feature = "enabled") {
        r#"{
"counters": [
{"name":"pin_faults_total","labels":{"kind":"a\"b\\c\nd\te\u0001"},"value":1},
{"name":"pin_faults_total","labels":{"kind":"freeze"},"value":3},
{"name":"pin_runs_total","labels":{},"value":129}
],
"gauges": [
{"name":"pin_nan","labels":{},"value":null},
{"name":"pin_neg","labels":{},"value":-0.125},
{"name":"pin_workers","labels":{},"value":2.5}
],
"histograms": [
{"name":"pin_empty_seconds","labels":{},"count":0,"sum":0,"p50":null,"p95":null,"p99":null},
{"name":"pin_one_seconds","labels":{},"count":1,"sum":0.02,"p50":0.05500000000000001,"p95":0.0955,"p99":0.09910000000000001},
{"name":"pin_run_seconds","labels":{},"count":6,"sum":7.3565,"p50":0.010000000000000002,"p95":1,"p99":1}
]
}
"#
    } else {
        // An obs-off build registers nothing and writes the empty document.
        "{\n\"counters\": [\n\n],\n\"gauges\": [\n\n],\n\"histograms\": [\n\n]\n}\n"
    };
    assert_eq!(imufit_obs::export::json(), expected);
}
