//! Per-flight bubble evaluation: counts inner and outer violations at each
//! tracking instant.

use imufit_math::Vec3;

use crate::route::Route;
use crate::{anticipated_distance, outer_radius, InnerBubbleSpec};

/// The violation tallies of one flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ViolationCounts {
    /// Tracking instants where the deviation exceeded the inner bubble.
    pub inner: u32,
    /// Tracking instants where the deviation exceeded the outer bubble.
    pub outer: u32,
}

/// What the tracker saw at one tracking instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BubbleObservation {
    /// Deviation from the assigned route, meters.
    pub deviation: f64,
    /// Inner bubble radius, meters (static).
    pub inner_radius: f64,
    /// Outer bubble radius at this instant, meters (dynamic).
    pub outer_radius: f64,
    /// True if the inner bubble was violated.
    pub inner_violated: bool,
    /// True if the outer bubble was violated.
    pub outer_violated: bool,
}

/// Evaluates the 2-layer bubble along a flight at the tracking cadence.
#[derive(Debug, Clone, PartialEq)]
pub struct BubbleTracker {
    route: Route,
    inner_radius: f64,
    risk: f64,
    counts: ViolationCounts,
    prev_position: Option<Vec3>,
    prev_airspeed: Option<f64>,
    /// `D(t_{n-1})`: distance covered over the previous tracking interval.
    prev_distance: f64,
}

impl BubbleTracker {
    /// Creates a tracker for a route, an inner-bubble spec, and a risk
    /// factor (the paper uses `risk = 1.0`).
    pub fn new(route: Route, inner: InnerBubbleSpec, risk: f64) -> Self {
        BubbleTracker {
            route,
            inner_radius: inner.radius(),
            risk,
            counts: ViolationCounts::default(),
            prev_position: None,
            prev_airspeed: None,
            prev_distance: 0.0,
        }
    }

    /// The static inner radius, meters.
    pub fn inner_radius(&self) -> f64 {
        self.inner_radius
    }

    /// The tallies so far.
    pub fn counts(&self) -> ViolationCounts {
        self.counts
    }

    /// Processes one tracking instant: the drone's current (true) position
    /// and airspeed. Returns what was observed.
    pub fn observe(&mut self, position: Vec3, airspeed: f64) -> BubbleObservation {
        // Equation 2 needs the distance covered in the last interval and the
        // airspeed ratio.
        let anticipated = match self.prev_airspeed {
            Some(prev_speed) => anticipated_distance(self.prev_distance, airspeed, prev_speed),
            None => 0.0,
        };
        let outer = outer_radius(self.risk, self.inner_radius, anticipated);

        let deviation = self.route.distance_to(position);
        let inner_violated = deviation > self.inner_radius;
        let outer_violated = deviation > outer;
        if inner_violated {
            self.counts.inner += 1;
        }
        if outer_violated {
            self.counts.outer += 1;
        }

        // Roll the tracking state forward.
        if let Some(prev) = self.prev_position {
            self.prev_distance = position.distance(prev);
        }
        self.prev_position = Some(position);
        self.prev_airspeed = Some(airspeed);

        BubbleObservation {
            deviation,
            inner_radius: self.inner_radius,
            outer_radius: outer,
            inner_violated,
            outer_violated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> InnerBubbleSpec {
        InnerBubbleSpec {
            dimension: 0.6,
            safety_distance: 2.0,
            max_tracking_distance: 3.5,
        }
    }

    fn straight_route() -> Route {
        Route::new(vec![
            Vec3::new(0.0, 0.0, -18.0),
            Vec3::new(1000.0, 0.0, -18.0),
        ])
    }

    #[test]
    fn on_route_flight_has_no_violations() {
        let mut bt = BubbleTracker::new(straight_route(), spec(), 1.0);
        for i in 0..300 {
            let pos = Vec3::new(i as f64 * 3.3, 0.3, -18.0);
            let obs = bt.observe(pos, 3.3);
            assert!(!obs.inner_violated && !obs.outer_violated, "at {i}");
        }
        assert_eq!(bt.counts(), ViolationCounts { inner: 0, outer: 0 });
    }

    #[test]
    fn deviation_beyond_inner_is_counted() {
        let mut bt = BubbleTracker::new(straight_route(), spec(), 1.0);
        // inner radius = 0.6 + 3.5 = 4.1.
        assert!((bt.inner_radius() - 4.1).abs() < 1e-12);
        let obs = bt.observe(Vec3::new(100.0, 10.0, -18.0), 3.3);
        assert!(obs.inner_violated);
        assert_eq!(bt.counts().inner, 1);
    }

    #[test]
    fn outer_bubble_grows_when_accelerating() {
        let mut bt = BubbleTracker::new(straight_route(), spec(), 1.0);
        // Establish a moving baseline: two instants 3.3 m apart at 3.3 m/s.
        bt.observe(Vec3::new(0.0, 0.0, -18.0), 3.3);
        bt.observe(Vec3::new(3.3, 0.0, -18.0), 3.3);
        // Now the drone doubles its airspeed: anticipated distance = 6.6,
        // so outer = inner * 6.6.
        let obs = bt.observe(Vec3::new(9.9, 0.0, -18.0), 6.6);
        assert!(
            (obs.outer_radius - bt.inner_radius() * 6.6).abs() < 1e-9,
            "outer {}",
            obs.outer_radius
        );
    }

    #[test]
    fn outer_never_below_inner() {
        let mut bt = BubbleTracker::new(straight_route(), spec(), 1.0);
        for i in 0..50 {
            // Hovering: distance covered ~ 0 -> anticipated < 1 -> floor.
            let obs = bt.observe(Vec3::new(0.0, 0.0, -18.0), 0.01 * i as f64);
            assert!(obs.outer_radius >= obs.inner_radius - 1e-12);
        }
    }

    #[test]
    fn outer_violations_subset_of_inner() {
        let mut bt = BubbleTracker::new(straight_route(), spec(), 1.0);
        // Wild trajectory.
        for i in 0..100 {
            let off = if i % 3 == 0 { 50.0 } else { 2.0 };
            bt.observe(Vec3::new(i as f64 * 3.0, off, -18.0), 3.3);
        }
        let c = bt.counts();
        assert!(c.inner >= c.outer, "inner {} outer {}", c.inner, c.outer);
        assert!(c.inner > 0 && c.outer > 0);
    }

    #[test]
    fn risk_factor_widens_outer_bubble() {
        let mut low = BubbleTracker::new(straight_route(), spec(), 1.0);
        let mut high = BubbleTracker::new(straight_route(), spec(), 3.0);
        low.observe(Vec3::new(0.0, 0.0, -18.0), 3.0);
        high.observe(Vec3::new(0.0, 0.0, -18.0), 3.0);
        let o_low = low.observe(Vec3::new(3.0, 0.0, -18.0), 3.0);
        let o_high = high.observe(Vec3::new(3.0, 0.0, -18.0), 3.0);
        assert!(o_high.outer_radius > o_low.outer_radius);
    }

    #[test]
    fn altitude_deviation_counts() {
        let mut bt = BubbleTracker::new(straight_route(), spec(), 1.0);
        // Drone plummeting below route altitude by 10 m.
        let obs = bt.observe(Vec3::new(100.0, 0.0, -8.0), 3.3);
        assert!(obs.inner_violated);
    }
}
