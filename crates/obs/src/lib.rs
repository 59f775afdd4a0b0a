//! `imufit-obs`: the testbed's own observability layer.
//!
//! The campaign runner is an observation instrument — it measures bubble
//! violations and mission outcomes across an 850-run matrix — and this
//! crate gives the instrument itself structured visibility: where the time
//! goes (the sampled tick-stage histograms fed by [`profile`], spans over
//! whole runs and phases), what happened (counters for injected faults,
//! voter exclusions, cascade transitions, detector trips, caught panics), and
//! how the campaign is progressing (live runs-done / ETA / worker
//! utilisation reporting).
//!
//! # Design constraints
//!
//! * **Zero registry dependencies.** Only the workspace's vendored
//!   `parking_lot` stand-in is used; everything else is std.
//! * **Non-interference.** Metrics are strictly write-only from the
//!   simulation's point of view: nothing in this crate is ever read back
//!   into simulation state, and no RNG stream is touched. A campaign run
//!   with the `enabled` feature off (or the runtime kill-switch thrown via
//!   [`set_runtime_enabled`]) produces byte-identical `campaign_results.csv`
//!   output to an instrumented run.
//! * **Near-zero overhead when disabled.** Without the `enabled` feature,
//!   [`runtime_enabled`] is a compile-time `false`: nothing registers, so
//!   every handle is detached and never exported, and every record call
//!   returns at that constant check.
//!
//! # Model
//!
//! A global sharded [registry](mod@crate) maps `(name, labels)` to one of
//! three metric kinds:
//!
//! * **Counters** — monotone `u64` ([`counter`], [`counter_labeled`]).
//! * **Gauges** — last-written `f64` ([`gauge`]).
//! * **Histograms** — fixed-bucket latency/duration distributions with
//!   quantile estimation ([`histogram`], [`buckets`]).
//!
//! Registration returns a cheap cloneable handle backed by atomics; hot
//! paths register once and then update lock-free. Spans are histograms
//! plus a thread-local span stack:
//!
//! ```
//! let timer = imufit_obs::timer("report_render"); // histogram report_render_seconds
//! {
//!     let _guard = timer.enter();
//!     // ... measured section ...
//! } // guard drop records the elapsed wall-clock time
//! let _g = imufit_obs::span!("one_off_section"); // ad-hoc (name looked up per call)
//! ```
//!
//! The span stack unwinds correctly across `catch_unwind`, so a panicking
//! campaign run cannot corrupt nesting for the worker that caught it.
//!
//! [`export::prometheus`] renders the whole registry as Prometheus text
//! exposition and [`export::json`] as a JSON document with p50/p95/p99
//! per histogram — the `reproduce` binary writes the latter as
//! `campaign_metrics.json`.
//!
//! # Live plane
//!
//! Beyond end-of-run files, the crate carries a live observability plane:
//!
//! * [`snapshot`] — owned registry snapshots with a versioned CRC-framed
//!   codec and exact merge semantics (raw histogram buckets), the unit of
//!   fleet-wide aggregation;
//! * [`http`] — a hand-rolled zero-dependency HTTP/1.1 server exposing
//!   `/metrics` (Prometheus text), `/status` (JSON progress) and
//!   `/healthz`;
//! * [`status`] — the global campaign/worker status board behind
//!   `/status`;
//! * [`timeseries`] — a bounded-ring snapshot recorder flushed to a
//!   CRC-framed `.ifms` file, decoded by `triage metrics`;
//! * [`plane`] — server + recorder assembled for the binaries;
//! * [`spans`] — the CRC-framed `.ifsp` execution span journal giving
//!   every campaign work unit an `enqueued → dispatched → executed →
//!   merged` trace, decoded by `triage spans`;
//! * [`profile`] — the one tick-stage clock: a counting-sampled profiler
//!   attributing self-time to the tick's stage seams and feeding the
//!   `sim_tick_seconds` and `sim_stage_<stage>_seconds` histograms;
//! * [`alerts`] — declarative SLO rules (`[obs.alerts]`) with
//!   firing/resolved state behind `/alerts`.
//!
//! These modules are pure codecs and servers; only [`snapshot::capture`]
//! touches the registry, which stays empty without the `enabled` feature.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};

pub mod alerts;
pub mod http;
pub mod log;
pub mod plane;
pub mod profile;
pub mod progress;
pub mod snapshot;
pub mod spans;
pub mod status;
pub mod timeseries;

mod export_impl;
mod metrics;
mod span;

pub use metrics::{counter, counter_labeled, gauge, histogram, Counter, Gauge, Histogram};
pub use span::{span_depth, span_enter, span_path, timer, timer_with, SpanGuard, Timer};

pub mod export {
    //! Registry export: Prometheus text exposition and JSON.
    pub use crate::export_impl::{json, parse_prometheus, prometheus, Sample};
}

/// Fixed bucket boundary sets for [`histogram`] registration.
pub mod buckets {
    /// Log-spaced latency buckets, 1 µs .. 10 s: the sim tick and its
    /// stages land at the low end.
    pub const LATENCY_S: &[f64] = &[
        1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2,
        2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    ];

    /// Coarser buckets for whole-experiment wall-clock durations,
    /// 10 ms .. 500 s.
    pub const RUN_S: &[f64] = &[
        0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    ];
}

/// Runtime kill-switch (metrics only; the log shim is unaffected). Defaults
/// to on. With it off every counter increment, gauge store, histogram
/// observation and span record becomes a no-op while all handles stay
/// valid — used by tests to demonstrate that instrumentation does not feed
/// back into simulation results.
static RUNTIME_ENABLED: AtomicBool = AtomicBool::new(true);

/// Throws (or resets) the runtime kill-switch. See [`RUNTIME_ENABLED`].
pub fn set_runtime_enabled(on: bool) {
    RUNTIME_ENABLED.store(on, Ordering::Relaxed);
}

/// True when metric recording is active (feature `enabled` and the runtime
/// kill-switch not thrown).
pub fn runtime_enabled() -> bool {
    cfg!(feature = "enabled") && RUNTIME_ENABLED.load(Ordering::Relaxed)
}

/// Opens an ad-hoc span: shorthand for [`span_enter`]. The returned guard
/// records wall-clock time into the histogram `<name>_seconds` when
/// dropped. Hot paths should prefer a cached [`timer`] handle.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span_enter($name)
    };
}

#[cfg(all(test, not(feature = "enabled")))]
mod tests {
    /// Without `enabled`, handles never register or record, and both
    /// exports are the empty documents an obs-off build has always
    /// written.
    #[test]
    fn a_build_without_enabled_records_and_exports_nothing() {
        let counter = crate::counter_labeled("obs_test_off_total", "kind", "a");
        counter.add(3);
        crate::counter("obs_test_off_plain_total").inc();
        let gauge = crate::gauge("obs_test_off_gauge");
        gauge.set(2.5);
        let hist = crate::histogram("obs_test_off_hist", crate::buckets::LATENCY_S);
        hist.observe(1e-3);
        let timer = crate::timer("obs_test_off_timer");
        {
            let _outer = timer.enter();
            let _inner = crate::span!("obs_test_off_span");
            assert_eq!(crate::span_depth(), 0);
            assert!(crate::span_path().is_empty());
        }
        assert!(!crate::runtime_enabled());
        assert_eq!(counter.get(), 0);
        assert_eq!(gauge.get(), 0.0);
        assert_eq!(
            (hist.count(), hist.sum(), hist.quantile(0.5)),
            (0, 0.0, None)
        );
        assert_eq!(timer.histogram().count(), 0);

        assert!(crate::snapshot::capture().is_empty());
        assert_eq!(crate::export::prometheus(), "");
        assert_eq!(
            crate::export::json(),
            "{\n\"counters\": [\n\n],\n\"gauges\": [\n\n],\n\"histograms\": [\n\n]\n}\n"
        );
    }
}
