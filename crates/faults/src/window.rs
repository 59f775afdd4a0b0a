//! Injection windows: when a fault is active.

/// A half-open time window `[start, start + duration)` in seconds of flight
/// time during which a fault is active.
///
/// The paper's campaign starts every window at the 90-second mark after
/// takeoff and uses durations of 2, 5, 10 and 30 seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectionWindow {
    /// Activation time, seconds since takeoff.
    pub start: f64,
    /// Duration, seconds.
    pub duration: f64,
}

impl InjectionWindow {
    /// The paper's four campaign durations, in seconds.
    pub const CAMPAIGN_DURATIONS: [f64; 4] = [2.0, 5.0, 10.0, 30.0];

    /// The paper's injection start time: 90 s after takeoff.
    pub const CAMPAIGN_START: f64 = 90.0;

    /// Creates a window. A zero-duration window is legal and never active:
    /// `contains` is false for every `t` and `is_past` is immediately true
    /// at `start` — it degenerates to "no injection".
    ///
    /// # Panics
    ///
    /// Panics if `start` is negative or `duration` is negative.
    pub fn new(start: f64, duration: f64) -> Self {
        assert!(start >= 0.0, "window start must be non-negative");
        assert!(duration >= 0.0, "window duration must be non-negative");
        InjectionWindow { start, duration }
    }

    /// True if the window can never activate (`duration == 0`).
    pub fn is_empty(&self) -> bool {
        self.duration == 0.0
    }

    /// The paper's campaign window for a given duration: starts at 90 s.
    pub fn campaign(duration: f64) -> Self {
        InjectionWindow::new(Self::CAMPAIGN_START, duration)
    }

    /// End of the window, seconds.
    pub fn end(&self) -> f64 {
        self.start + self.duration
    }

    /// True if the fault is active at time `t`.
    pub fn contains(&self, t: f64) -> bool {
        t >= self.start && t < self.end()
    }

    /// True if the window is entirely in the past at time `t`.
    pub fn is_past(&self, t: f64) -> bool {
        t >= self.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_open_semantics() {
        let w = InjectionWindow::new(90.0, 5.0);
        assert!(!w.contains(89.999));
        assert!(w.contains(90.0));
        assert!(w.contains(94.999));
        assert!(!w.contains(95.0));
        assert_eq!(w.end(), 95.0);
    }

    #[test]
    fn past_detection() {
        let w = InjectionWindow::new(10.0, 2.0);
        assert!(!w.is_past(11.0));
        assert!(w.is_past(12.0));
    }

    #[test]
    fn campaign_constants_match_paper() {
        assert_eq!(InjectionWindow::CAMPAIGN_DURATIONS, [2.0, 5.0, 10.0, 30.0]);
        let w = InjectionWindow::campaign(30.0);
        assert_eq!(w.start, 90.0);
        assert_eq!(w.end(), 120.0);
    }

    #[test]
    fn zero_duration_is_an_empty_window() {
        let w = InjectionWindow::new(90.0, 0.0);
        assert!(w.is_empty());
        assert!(!w.contains(90.0));
        assert!(!w.contains(89.999));
        assert!(w.is_past(90.0));
        assert!(!w.is_past(89.999));
    }

    #[test]
    #[should_panic(expected = "duration must be non-negative")]
    fn negative_duration_panics() {
        let _ = InjectionWindow::new(0.0, -1.0);
    }

    #[test]
    #[should_panic(expected = "start must be non-negative")]
    fn negative_start_panics() {
        let _ = InjectionWindow::new(-1.0, 1.0);
    }
}
