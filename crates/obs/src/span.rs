//! Structured spans: wall-clock timing plus a thread-local span stack.
//!
//! A span is a histogram (`<name>_seconds`) plus an entry on the current
//! thread's span stack while it is open. Guards pop the stack on drop, so
//! nesting survives early returns and `catch_unwind` alike: unwinding runs
//! the drops in reverse open order and the stack is left exactly as it was
//! at the `catch_unwind` boundary.

use std::cell::RefCell;
use std::time::Instant;

use crate::metrics::{histogram, Histogram};
use crate::runtime_enabled;

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Number of spans currently open on this thread.
pub fn span_depth() -> usize {
    SPAN_STACK.with(|s| s.borrow().len())
}

/// The names of the spans currently open on this thread, outermost first.
pub fn span_path() -> Vec<&'static str> {
    SPAN_STACK.with(|s| s.borrow().clone())
}

/// A reusable span handle: registers the histogram once so hot paths pay
/// only two `Instant::now` calls and three atomic adds per span.
#[derive(Debug, Clone)]
pub struct Timer {
    name: &'static str,
    hist: Histogram,
}

impl Timer {
    /// Opens a span; the returned guard records on drop.
    pub fn enter(&self) -> SpanGuard {
        SpanGuard::open(self.name, self.hist.clone())
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
        name,
        hist: histogram(&format!("{name}_seconds"), bounds),
    }
}

/// Opens an ad-hoc span (the [`crate::span!`] macro): resolves the
/// histogram through the registry on every call.
pub fn span_enter(name: &'static str) -> SpanGuard {
    timer(name).enter()
}

/// An open span; records its elapsed wall-clock time and pops the span
/// stack when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    /// `None` when the runtime kill-switch was thrown at open time.
    active: Option<(Instant, Histogram, usize)>,
}

impl SpanGuard {
    fn open(name: &'static str, hist: Histogram) -> Self {
        if !runtime_enabled() {
            return SpanGuard { active: None };
        }
        let depth = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            stack.push(name);
            stack.len() - 1
        });
        SpanGuard {
            active: Some((Instant::now(), hist, depth)),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((start, hist, depth)) = self.active.take() {
            // Truncate rather than pop: tolerates guards dropped out of
            // order (e.g. held across a mem::swap) without misattributing
            // the remaining stack.
            SPAN_STACK.with(|s| s.borrow_mut().truncate(depth));
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
        let before = outer.histogram().count();
        {
            let _a = outer.enter();
            assert_eq!(span_depth(), 1);
            {
                let _b = span_enter("obs_test_span_inner");
                assert_eq!(span_depth(), 2);
                assert_eq!(
                    span_path(),
                    vec!["obs_test_span_outer", "obs_test_span_inner"]
                );
            }
            assert_eq!(span_depth(), 1);
        }
        assert_eq!(span_depth(), 0);
        assert_eq!(outer.histogram().count(), before + 1);
    }

    #[test]
    fn span_stack_unwinds_across_catch_unwind() {
        let t = timer("obs_test_span_unwind");
        let recorded_before = t.histogram().count();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _a = t.enter();
            let _b = span_enter("obs_test_span_unwind_inner");
            assert_eq!(span_depth(), 2);
            panic!("simulated diverging experiment");
        }));
        assert!(result.is_err());
        // Both guards dropped during unwind: the stack is clean and both
        // spans were still recorded.
        assert_eq!(span_depth(), 0);
        assert_eq!(t.histogram().count(), recorded_before + 1);
    }
}
