//! Structured spans: wall-clock timing of a section into a histogram.
//!
//! A span records its elapsed time into a histogram (`<name>_seconds`)
//! when its guard drops, so early returns and `catch_unwind` alike still
//! record it.

use std::time::Instant;

use crate::metrics::{histogram, Histogram};
use crate::runtime_enabled;

/// A reusable span handle: registers the histogram once so hot paths pay
/// only two `Instant::now` calls and three atomic adds per span.
#[derive(Debug, Clone)]
pub struct Timer {
    hist: Histogram,
}

impl Timer {
    /// Opens a span; the returned guard records on drop.
    pub fn enter(&self) -> SpanGuard {
        SpanGuard {
            active: runtime_enabled().then(|| (Instant::now(), self.hist.clone())),
        }
    }

    /// The backing histogram (`<name>_seconds`).
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }
}

/// Creates a [`Timer`] named `name` backed by the histogram
/// `<name>_seconds` with [`crate::buckets::LATENCY_S`] bounds.
pub fn timer(name: &'static str) -> Timer {
    timer_with(name, crate::buckets::LATENCY_S)
}

/// Creates a [`Timer`] with explicit bucket bounds (e.g.
/// [`crate::buckets::RUN_S`] for whole-run durations).
pub fn timer_with(name: &'static str, bounds: &'static [f64]) -> Timer {
    Timer {
        hist: histogram(&format!("{name}_seconds"), bounds),
    }
}

/// An open span; records its elapsed wall-clock time when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    /// `None` when the runtime kill-switch was thrown at open time.
    active: Option<(Instant, Histogram)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((start, hist)) = self.active.take() {
            hist.observe(start.elapsed().as_secs_f64());
        }
    }
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn spans_nest_and_record() {
        let outer = timer("obs_test_span_outer");
        let inner = timer("obs_test_span_inner");
        let (outer_before, inner_before) = (outer.histogram().count(), inner.histogram().count());
        {
            let _a = outer.enter();
            {
                let _b = inner.enter();
            }
            assert_eq!(inner.histogram().count(), inner_before + 1);
            assert_eq!(outer.histogram().count(), outer_before);
        }
        assert_eq!(outer.histogram().count(), outer_before + 1);
    }

    #[test]
    fn spans_record_across_catch_unwind() {
        let t = timer("obs_test_span_unwind");
        let recorded_before = t.histogram().count();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _a = t.enter();
            panic!("simulated diverging experiment");
        }));
        assert!(result.is_err());
        // The guard dropped during unwind and still recorded the span.
        assert_eq!(t.histogram().count(), recorded_before + 1);
    }
}
