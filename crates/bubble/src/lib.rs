//! The two-layered virtual *bubble* proposed by the paper (§III-D, Fig. 2):
//! a **static inner alert bubble** and a **dynamic outer safety bubble** that
//! serve as the separation-minima metric for U-space.
//!
//! * Equation 1 — inner bubble: `Bubble_inner = D_o + max(D_s, D_m)` where
//!   `D_o` is the drone dimension, `D_s` the manufacturer safety distance,
//!   and `D_m` the maximum distance covered between two tracking instances.
//! * Equation 2 — anticipated distance:
//!   `D(t_n) = D(t_{n-1}) * S_a(t_n) / S_a(t_{n-1})`.
//! * Equation 3 — outer bubble:
//!   `Bubble_outer(t) = R * (Bubble_inner * max(1, D(t_n)))` with the risk
//!   factor `R >= 1` (the paper uses `R = 1`).
//!
//! A *violation* is counted at a tracking instant when the drone's deviation
//! from its assigned route exceeds the bubble radius.

pub mod route;
pub mod tracker;

pub use route::Route;
pub use tracker::{BubbleObservation, BubbleTracker, ViolationCounts};

/// Inner-bubble inputs (Equation 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InnerBubbleSpec {
    /// `D_o`: drone dimension (wingspan equivalent), meters.
    pub dimension: f64,
    /// `D_s`: manufacturer-recommended safety distance, meters.
    pub safety_distance: f64,
    /// `D_m`: maximum distance the drone covers between two tracking
    /// instances at top speed, meters.
    pub max_tracking_distance: f64,
}

impl InnerBubbleSpec {
    /// Evaluates Equation 1.
    ///
    /// # Panics
    ///
    /// Panics if any input is negative or non-finite.
    pub fn radius(&self) -> f64 {
        assert!(
            self.dimension >= 0.0 && self.dimension.is_finite(),
            "invalid dimension"
        );
        assert!(
            self.safety_distance >= 0.0 && self.safety_distance.is_finite(),
            "invalid safety distance"
        );
        assert!(
            self.max_tracking_distance >= 0.0 && self.max_tracking_distance.is_finite(),
            "invalid tracking distance"
        );
        self.dimension + self.safety_distance.max(self.max_tracking_distance)
    }
}

/// Evaluates Equation 2: the anticipated distance to be covered at `t_n`.
///
/// Degenerate airspeeds (zero/non-finite previous speed) hold the previous
/// anticipated distance, matching how the tracker would treat a missing
/// speed report.
pub fn anticipated_distance(prev_distance: f64, airspeed: f64, prev_airspeed: f64) -> f64 {
    if !airspeed.is_finite() || !prev_airspeed.is_finite() || prev_airspeed.abs() < 1e-6 {
        return prev_distance;
    }
    prev_distance * airspeed / prev_airspeed
}

/// Evaluates Equation 3: the outer bubble radius.
///
/// # Panics
///
/// Panics if `risk < 1.0` (the paper requires `R >= 1`).
pub fn outer_radius(risk: f64, inner_radius: f64, anticipated: f64) -> f64 {
    assert!(risk >= 1.0, "risk factor must be >= 1, got {risk}");
    risk * inner_radius * anticipated.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inner_bubble_uses_larger_of_ds_dm() {
        // Slow drone: safety distance dominates.
        let slow = InnerBubbleSpec {
            dimension: 0.55,
            safety_distance: 1.5,
            max_tracking_distance: 5.0 / 3.6,
        };
        assert!((slow.radius() - (0.55 + 1.5)).abs() < 1e-12);
        // Fast drone: tracking distance dominates.
        let fast = InnerBubbleSpec {
            dimension: 0.8,
            safety_distance: 3.0,
            max_tracking_distance: 25.0 / 3.6,
        };
        assert!((fast.radius() - (0.8 + 25.0 / 3.6)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid dimension")]
    fn negative_dimension_panics() {
        let _ = InnerBubbleSpec {
            dimension: -1.0,
            safety_distance: 1.0,
            max_tracking_distance: 1.0,
        }
        .radius();
    }

    #[test]
    fn anticipated_distance_scales_with_airspeed() {
        // Speeding up doubles the anticipated distance.
        assert!((anticipated_distance(3.0, 10.0, 5.0) - 6.0).abs() < 1e-12);
        // Slowing down shrinks it.
        assert!((anticipated_distance(3.0, 2.5, 5.0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn anticipated_distance_degenerate_speeds() {
        assert_eq!(anticipated_distance(3.0, 5.0, 0.0), 3.0);
        assert_eq!(anticipated_distance(3.0, f64::NAN, 5.0), 3.0);
        assert_eq!(anticipated_distance(3.0, 5.0, f64::INFINITY), 3.0);
    }

    #[test]
    fn outer_radius_floor_is_inner_radius() {
        // max(1, D) guarantees the outer bubble never shrinks below the
        // inner bubble (with R = 1).
        assert_eq!(outer_radius(1.0, 2.0, 0.3), 2.0);
        assert_eq!(outer_radius(1.0, 2.0, 2.5), 5.0);
    }

    #[test]
    fn risk_scales_outer_radius() {
        assert_eq!(outer_radius(2.0, 2.0, 1.0), 4.0);
        // A mid-fleet inner bubble at cruise.
        assert!(
            outer_radius(2.0, 4.5, 3.4) > outer_radius(1.0, 4.5, 3.4),
            "risk factor must widen the bubble"
        );
    }

    #[test]
    fn slower_tracking_cadence_widens_the_inner_bubble() {
        // The 25 km/h drone: once D_m dominates D_s, the radius grows with
        // the tracking interval (2 Hz against 0.2 Hz).
        let at_interval = |interval: f64| {
            InnerBubbleSpec {
                dimension: 0.8,
                safety_distance: 3.0,
                max_tracking_distance: (25.0 / 3.6) * interval,
            }
            .radius()
        };
        assert!(at_interval(5.0) > at_interval(0.5));
    }

    #[test]
    #[should_panic(expected = "risk factor must be >= 1")]
    fn risk_below_one_panics() {
        let _ = outer_radius(0.5, 2.0, 1.0);
    }
}
