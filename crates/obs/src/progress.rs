//! Live campaign progress: runs done / total, ETA, worker utilisation.
//!
//! The reporter owns the *only* piece of cross-worker progress state — a
//! single `AtomicUsize` holding the last reported count — and decides with
//! one `fetch_update` which worker crosses a reporting step, so exactly one
//! line is printed per step regardless of scheduling. Workers share the
//! campaign's own done-counter (also a single `fetch_add`-driven atomic);
//! there is no per-worker mutable progress state anywhere.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Prints `label 120/850 (14%) | elapsed 12s | eta 73s | workers 7.4/8 busy`
/// lines through the log shim at ~2% steps.
#[derive(Debug)]
pub struct ProgressReporter {
    label: &'static str,
    total: usize,
    workers: usize,
    step: usize,
    start: Instant,
    last_reported: AtomicUsize,
}

impl ProgressReporter {
    /// A reporter for `total` items executed by `workers` threads.
    pub fn new(label: &'static str, total: usize, workers: usize) -> Self {
        ProgressReporter {
            label,
            total,
            workers: workers.max(1),
            step: (total / 50).max(1),
            start: Instant::now(),
            last_reported: AtomicUsize::new(0),
        }
    }

    /// Records that `done` items have finished; `busy_seconds` is the
    /// cumulative wall-clock time workers spent inside items (e.g. the sum
    /// of the per-run duration histogram) and feeds the utilisation figure.
    /// Thread-safe; prints at most one line per reporting step.
    pub fn record(&self, done: usize, busy_seconds: f64) {
        let crossed = self
            .last_reported
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |prev| {
                ((done == self.total && done != prev) || done >= prev + self.step).then_some(done)
            })
            .is_ok();
        if !crossed {
            return;
        }
        let elapsed = self.start.elapsed().as_secs_f64();
        let pct = 100.0 * done as f64 / self.total.max(1) as f64;
        let eta = if done > 0 {
            elapsed / done as f64 * (self.total - done) as f64
        } else {
            0.0
        };
        let busy_workers = if elapsed > 0.0 {
            (busy_seconds / elapsed).min(self.workers as f64)
        } else {
            0.0
        };
        crate::info!(
            "{} {done}/{} ({pct:.0}%) | elapsed {elapsed:.0}s | eta {eta:.0}s | workers {busy_workers:.1}/{} busy",
            self.label,
            self.total,
            self.workers
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_once_per_step_under_contention() {
        // 100 items, step 2: `record` succeeds at most once per distinct
        // crossing even when every count is offered from many threads.
        let reporter = ProgressReporter::new("test", 100, 4);
        let mut crossings = 0;
        for done in 1..=100 {
            let before = reporter.last_reported.load(Ordering::Acquire);
            reporter.record(done, 0.0);
            if reporter.last_reported.load(Ordering::Acquire) != before {
                crossings += 1;
            }
            // Replaying the same count must never report again.
            let replay = reporter.last_reported.load(Ordering::Acquire);
            reporter.record(done, 0.0);
            assert_eq!(reporter.last_reported.load(Ordering::Acquire), replay);
        }
        assert!(crossings <= 51, "{crossings} crossings for 50 steps");
        assert_eq!(reporter.last_reported.load(Ordering::Acquire), 100);
    }
}
