//! The study scenario: a Valencia-like high-density urban U-space zone with
//! ten delivery missions.
//!
//! The paper's experiments use 10 missions "framed in an area of high-density
//! controlled air traffic in the urban center of Valencia, Spain", spanning
//! 25 km² with a 60 ft altitude ceiling. The fleet mixes speeds — 2 drones
//! at 5 km/h, 1 at 10 km/h, 3 at 12 km/h, 3 at 14 km/h, and 1 at 25 km/h —
//! with mixed N–S / E–W directions and four missions containing turning
//! points.
//!
//! This crate reproduces that scenario synthetically: a 5 km × 5 km local
//! NED area anchored at Valencia's coordinates, the same fleet mix, the same
//! direction diversity, and mission lengths scaled so a nominal (gold) run
//! lasts on the order of the paper's 491-second average.
//!
//! # Example
//!
//! ```
//! use imufit_missions::{all_missions, FLEET_SIZE};
//!
//! let missions = all_missions();
//! assert_eq!(missions.len(), FLEET_SIZE);
//! let turning = missions.iter().filter(|m| m.has_turns()).count();
//! assert_eq!(turning, 4);
//! ```

pub mod generator;

use imufit_controller::{FlightPlan, Waypoint};
use imufit_math::{GeoPoint, Vec3};

/// Number of missions in the study.
pub const FLEET_SIZE: usize = 10;

/// Mission cruise altitude, meters (the 60 ft ceiling minus margin).
pub const CRUISE_ALTITUDE: f64 = 18.0;

/// The geodetic anchor of the study area (Valencia urban center).
pub const AREA_ORIGIN: GeoPoint = GeoPoint::new(39.4699, -0.3763, 0.0);

/// Half-extent of the study area, meters (5 km x 5 km = 25 km²).
pub const AREA_HALF_EXTENT: f64 = 2500.0;

/// Static description of one drone in the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct DroneSpec {
    /// Stable identifier (0-based).
    pub id: u32,
    /// Human-readable name.
    pub name: String,
    /// Cruise speed, km/h (the paper quotes fleet speeds in km/h).
    pub cruise_speed_kmh: f64,
    /// Payload mass added to the base airframe, kg.
    pub payload_kg: f64,
    /// Tip-to-tip drone dimension `D_o` used by the inner bubble, meters.
    pub dimension_m: f64,
    /// Manufacturer-recommended safety distance `D_s`, meters.
    pub safety_distance_m: f64,
}

impl DroneSpec {
    /// Cruise speed in m/s.
    pub fn cruise_speed(&self) -> f64 {
        self.cruise_speed_kmh / 3.6
    }

    /// Maximum distance covered between two tracking instances (`D_m` in the
    /// inner-bubble formula), given the tracking interval in seconds.
    pub fn max_tracking_distance(&self, tracking_interval: f64) -> f64 {
        self.cruise_speed() * tracking_interval
    }
}

/// One mission: a drone spec plus its route.
#[derive(Debug, Clone, PartialEq)]
pub struct Mission {
    /// The drone flying this mission.
    pub drone: DroneSpec,
    /// Launch point in local NED (on the ground, z = 0).
    pub home: Vec3,
    /// Waypoints in local NED at cruise altitude.
    pub waypoints: Vec<Vec3>,
    /// Cardinal description, e.g. "N-S".
    pub direction: String,
}

impl Mission {
    /// True if the route contains intermediate turning points.
    pub fn has_turns(&self) -> bool {
        self.waypoints.len() > 1
    }

    /// Total horizontal route length including the leg from home, meters.
    pub fn route_length(&self) -> f64 {
        let mut total = 0.0;
        let mut prev = self.home;
        for wp in &self.waypoints {
            total += wp.distance_xy(prev);
            prev = *wp;
        }
        total
    }

    /// Builds the executable flight plan for this mission.
    pub fn plan(&self) -> FlightPlan {
        FlightPlan::new(
            self.home,
            CRUISE_ALTITUDE,
            self.waypoints.iter().map(|&p| Waypoint::new(p)).collect(),
            self.drone.cruise_speed(),
        )
    }
}

/// Helper: a waypoint at cruise altitude.
fn wp(north: f64, east: f64) -> Vec3 {
    Vec3::new(north, east, -CRUISE_ALTITUDE)
}

/// Builds the ten study missions.
///
/// Route lengths are matched to each drone's speed so every nominal flight
/// lasts roughly the same wall-clock time (the paper's gold-run mean is
/// 491 s); see DESIGN.md for the documented deviation in mean distance.
pub fn all_missions() -> Vec<Mission> {
    let spec = |id: u32, name: &str, speed: f64, payload: f64, dim: f64, safety: f64| DroneSpec {
        id,
        name: name.to_string(),
        cruise_speed_kmh: speed,
        payload_kg: payload,
        dimension_m: dim,
        safety_distance_m: safety,
    };

    vec![
        // --- 2 drones at 5 km/h ---
        Mission {
            drone: spec(0, "courier-a", 5.0, 0.10, 0.55, 1.5),
            home: Vec3::new(300.0, -1200.0, 0.0),
            waypoints: vec![wp(-320.0, -1200.0)],
            direction: "N-S".to_string(),
        },
        Mission {
            drone: spec(1, "courier-b", 5.0, 0.15, 0.55, 1.5),
            // E-W with one turning point.
            waypoints: vec![wp(-800.0, 280.0), wp(-680.0, 0.0)],
            home: Vec3::new(-800.0, 600.0, 0.0),
            direction: "E-W".to_string(),
        },
        // --- 1 drone at 10 km/h ---
        Mission {
            drone: spec(2, "inspector", 10.0, 0.20, 0.60, 2.0),
            home: Vec3::new(-1500.0, 900.0, 0.0),
            waypoints: vec![wp(-260.0, 900.0)],
            direction: "S-N".to_string(),
        },
        // --- 3 drones at 12 km/h ---
        Mission {
            drone: spec(3, "parcel-a", 12.0, 0.25, 0.60, 2.0),
            home: Vec3::new(700.0, -2000.0, 0.0),
            waypoints: vec![wp(700.0, -520.0)],
            direction: "W-E".to_string(),
        },
        Mission {
            drone: spec(4, "parcel-b", 12.0, 0.30, 0.60, 2.0),
            // N-S with a turning point reached ~98 s into the flight, so
            // the 90 s injection window covers the turn (the paper notes
            // some injections land on turning points).
            home: Vec3::new(1900.0, 400.0, 0.0),
            waypoints: vec![wp(1630.0, 500.0), wp(480.0, 420.0)],
            direction: "N-S".to_string(),
        },
        Mission {
            drone: spec(5, "parcel-c", 12.0, 0.25, 0.60, 2.0),
            home: Vec3::new(-400.0, 1800.0, 0.0),
            waypoints: vec![wp(-400.0, 320.0)],
            direction: "E-W".to_string(),
        },
        // --- 3 drones at 14 km/h ---
        Mission {
            drone: spec(6, "medkit-a", 14.0, 0.40, 0.65, 2.5),
            // S-N with two turning points; the first is reached ~89 s in,
            // right at the injection window.
            home: Vec3::new(-2200.0, -700.0, 0.0),
            waypoints: vec![wp(-1910.0, -620.0), wp(-900.0, -750.0), wp(-480.0, -620.0)],
            direction: "S-N".to_string(),
        },
        Mission {
            drone: spec(7, "medkit-b", 14.0, 0.35, 0.65, 2.5),
            home: Vec3::new(1500.0, -900.0, 0.0),
            waypoints: vec![wp(1500.0, 830.0)],
            direction: "W-E".to_string(),
        },
        Mission {
            drone: spec(8, "medkit-c", 14.0, 0.40, 0.65, 2.5),
            home: Vec3::new(2100.0, 1500.0, 0.0),
            waypoints: vec![wp(370.0, 1500.0)],
            direction: "N-S".to_string(),
        },
        // --- 1 drone at 25 km/h (the "fastest drone" of Fig. 3) ---
        Mission {
            drone: spec(9, "express", 25.0, 0.50, 0.80, 3.0),
            // Long diagonal with turning points; the first is reached
            // ~98 s in, inside the injection window.
            home: Vec3::new(-2100.0, -1800.0, 0.0),
            waypoints: vec![wp(-1620.0, -1440.0), wp(-400.0, -500.0), wp(500.0, 300.0)],
            direction: "S-N".to_string(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_size_and_speed_mix() {
        let missions = all_missions();
        assert_eq!(missions.len(), FLEET_SIZE);
        let count_speed = |s: f64| {
            missions
                .iter()
                .filter(|m| m.drone.cruise_speed_kmh == s)
                .count()
        };
        assert_eq!(count_speed(5.0), 2);
        assert_eq!(count_speed(10.0), 1);
        assert_eq!(count_speed(12.0), 3);
        assert_eq!(count_speed(14.0), 3);
        assert_eq!(count_speed(25.0), 1);
    }

    #[test]
    fn four_missions_have_turning_points() {
        let turning = all_missions().iter().filter(|m| m.has_turns()).count();
        assert_eq!(turning, 4);
    }

    #[test]
    fn direction_diversity() {
        let missions = all_missions();
        for dir in ["N-S", "S-N", "E-W", "W-E"] {
            assert!(
                missions.iter().any(|m| m.direction == dir),
                "missing direction {dir}"
            );
        }
    }

    #[test]
    fn all_routes_inside_study_area() {
        for m in all_missions() {
            for p in std::iter::once(m.home).chain(m.waypoints.iter().copied()) {
                assert!(
                    p.x.abs() <= AREA_HALF_EXTENT && p.y.abs() <= AREA_HALF_EXTENT,
                    "mission {} leaves the area at {p}",
                    m.drone.name
                );
            }
        }
    }

    #[test]
    fn waypoints_respect_altitude_ceiling() {
        // 60 ft = 18.29 m.
        for m in all_missions() {
            for p in &m.waypoints {
                assert!(-p.z <= 18.3, "altitude ceiling violated: {}", -p.z);
            }
        }
    }

    #[test]
    fn nominal_durations_cluster_near_the_gold_mean() {
        // Route length / speed + vertical overhead should be in the same
        // ballpark for every mission (the paper's gold mean is 491 s).
        for m in all_missions() {
            let t = m.plan().nominal_duration();
            assert!(
                (350.0..650.0).contains(&t),
                "mission {} nominal duration {t:.0}s out of band",
                m.drone.name
            );
        }
    }

    #[test]
    fn ids_are_unique_and_dense() {
        let mut ids: Vec<u32> = all_missions().iter().map(|m| m.drone.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..FLEET_SIZE as u32).collect::<Vec<_>>());
    }

    #[test]
    fn plan_round_trip() {
        let m = &all_missions()[9];
        let plan = m.plan();
        assert_eq!(plan.waypoints.len(), m.waypoints.len());
        assert!((plan.cruise_speed - 25.0 / 3.6).abs() < 1e-12);
        assert_eq!(plan.home, m.home);
    }

    #[test]
    fn tracking_distance_scales_with_speed() {
        let missions = all_missions();
        let slow = &missions[0].drone;
        let fast = &missions[9].drone;
        assert!(fast.max_tracking_distance(1.0) > slow.max_tracking_distance(1.0));
        assert!((fast.max_tracking_distance(1.0) - 25.0 / 3.6).abs() < 1e-12);
    }
}
