//! Flight plans: the waypoint sequences a mission executes.

use imufit_math::Vec3;

/// A single waypoint in the local NED frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Waypoint {
    /// Position in NED, meters (z is negative above ground).
    pub position: Vec3,
}

impl Waypoint {
    /// Creates a waypoint at a NED position.
    pub const fn new(position: Vec3) -> Self {
        Waypoint { position }
    }

    /// Creates a waypoint from north/east coordinates and altitude above
    /// ground (positive up).
    pub fn at(north: f64, east: f64, altitude: f64) -> Self {
        Waypoint {
            position: Vec3::new(north, east, -altitude),
        }
    }

    /// Altitude above ground, meters.
    pub fn altitude(&self) -> f64 {
        -self.position.z
    }
}

/// A complete flight plan: takeoff, a waypoint sequence flown at
/// `cruise_speed`, and a landing at the final waypoint.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightPlan {
    /// Home position on the ground (NED, z = 0 plane).
    pub home: Vec3,
    /// Altitude to climb to before starting the mission, meters.
    pub takeoff_altitude: f64,
    /// The waypoints to visit in order. The vehicle lands after the last.
    pub waypoints: Vec<Waypoint>,
    /// Horizontal cruise speed, m/s.
    pub cruise_speed: f64,
    /// Horizontal distance at which a waypoint counts as reached, meters.
    pub acceptance_radius: f64,
}

impl FlightPlan {
    /// Creates a plan.
    ///
    /// # Panics
    ///
    /// Panics if the waypoint list is empty, the cruise speed is not
    /// positive, or the takeoff altitude is not positive.
    pub fn new(
        home: Vec3,
        takeoff_altitude: f64,
        waypoints: Vec<Waypoint>,
        cruise_speed: f64,
    ) -> Self {
        assert!(
            !waypoints.is_empty(),
            "flight plan needs at least one waypoint"
        );
        assert!(cruise_speed > 0.0, "cruise speed must be positive");
        assert!(takeoff_altitude > 0.0, "takeoff altitude must be positive");
        FlightPlan {
            home,
            takeoff_altitude,
            waypoints,
            cruise_speed,
            acceptance_radius: 2.0,
        }
    }

    /// Total horizontal path length: home → wp0 → ... → wpN, meters.
    pub fn path_length(&self) -> f64 {
        let mut total = 0.0;
        let mut prev = self.home;
        for wp in &self.waypoints {
            total += wp.position.distance_xy(prev);
            prev = wp.position;
        }
        total
    }

    /// Rough expected mission duration: path at cruise speed plus climb and
    /// descent at 1.5 m/s plus per-waypoint slowdown overhead. Used by
    /// mission design and by watchdog timeouts.
    pub fn nominal_duration(&self) -> f64 {
        let vertical = self.takeoff_altitude / 1.5
            + self.waypoints.last().map(Waypoint::altitude).unwrap_or(0.0) / 1.0;
        self.path_length() / self.cruise_speed + vertical + 5.0 * self.waypoints.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waypoint_altitude_convention() {
        let wp = Waypoint::at(100.0, 50.0, 18.0);
        assert_eq!(wp.position, Vec3::new(100.0, 50.0, -18.0));
        assert_eq!(wp.altitude(), 18.0);
    }

    #[test]
    fn path_length_sums_legs() {
        let plan = FlightPlan::new(
            Vec3::ZERO,
            18.0,
            vec![
                Waypoint::at(300.0, 0.0, 18.0),
                Waypoint::at(300.0, 400.0, 18.0),
            ],
            5.0,
        );
        assert!((plan.path_length() - 700.0).abs() < 1e-9);
    }

    #[test]
    fn nominal_duration_is_plausible() {
        let plan = FlightPlan::new(Vec3::ZERO, 18.0, vec![Waypoint::at(1000.0, 0.0, 18.0)], 5.0);
        let d = plan.nominal_duration();
        assert!(d > 200.0 && d < 300.0, "duration {d}");
    }

    #[test]
    #[should_panic(expected = "at least one waypoint")]
    fn empty_plan_panics() {
        let _ = FlightPlan::new(Vec3::ZERO, 18.0, vec![], 5.0);
    }

    #[test]
    #[should_panic(expected = "cruise speed must be positive")]
    fn zero_speed_panics() {
        let _ = FlightPlan::new(Vec3::ZERO, 18.0, vec![Waypoint::at(1.0, 0.0, 18.0)], 0.0);
    }
}
