//! Seeded random mission generation for Monte-Carlo studies beyond the ten
//! fixed study missions.
//!
//! Generated missions follow the same envelope as the paper's scenario:
//! inside the 5 km × 5 km area, at the 60 ft ceiling, with cruise speeds
//! drawn from the study's fleet distribution, route lengths matched to the
//! speed so every nominal flight lasts roughly the gold-run mean, and an
//! optional turning point placed so the 90 s injection window can cover it.

use imufit_math::rng::Pcg;
use imufit_math::Vec3;

use crate::{DroneSpec, Mission, AREA_HALF_EXTENT, CRUISE_ALTITUDE};

/// The study's fleet speed distribution, km/h (2×5, 1×10, 3×12, 3×14,
/// 1×25).
pub const SPEED_POOL: [f64; 10] = [5.0, 5.0, 10.0, 12.0, 12.0, 12.0, 14.0, 14.0, 14.0, 25.0];

/// Nominal time-on-route the generator targets, seconds (the paper's gold
/// mean is 491 s including climb/descent).
pub const TARGET_ROUTE_SECONDS: f64 = 445.0;

/// Margin kept from the area boundary, meters.
const BOUNDARY_MARGIN: f64 = 150.0;

/// Generates one mission with the given id.
///
/// Roughly 40 % of generated missions have a turning point, placed so the
/// first leg ends 80–110 s into the flight (inside the campaign's injection
/// window).
pub fn generate_mission(id: u32, rng: &mut Pcg) -> Mission {
    let speed_kmh = SPEED_POOL[(rng.next_u64() % SPEED_POOL.len() as u64) as usize];
    let speed = speed_kmh / 3.6;
    let route_length = speed * TARGET_ROUTE_SECONDS;

    // Keep the whole route inside the area: pick a home such that a straight
    // route of the target length fits in some direction.
    let limit = AREA_HALF_EXTENT - BOUNDARY_MARGIN;
    let home = Vec3::new(
        rng.uniform_range(-limit, limit),
        rng.uniform_range(-limit, limit),
        0.0,
    );
    // Try headings until the endpoint stays inside the area.
    let mut heading = rng.uniform_range(-std::f64::consts::PI, std::f64::consts::PI);
    let mut end = route_end(home, heading, route_length);
    for _ in 0..32 {
        if end.x.abs() <= limit && end.y.abs() <= limit {
            break;
        }
        heading = rng.uniform_range(-std::f64::consts::PI, std::f64::consts::PI);
        end = route_end(home, heading, route_length);
    }
    // Worst case: shrink the route toward the center.
    if end.x.abs() > limit || end.y.abs() > limit {
        end = Vec3::new(
            end.x.clamp(-limit, limit),
            end.y.clamp(-limit, limit),
            end.z,
        );
    }

    let mut waypoints = Vec::new();
    let with_turn = rng.uniform() < 0.4;
    if with_turn {
        // First leg ends 80-110 s in (inside the injection window), with a
        // modest heading change.
        let leg_seconds = rng.uniform_range(80.0, 110.0);
        let leg = (speed * leg_seconds).min(route_length * 0.6);
        let turn = route_end(home, heading, leg);
        waypoints.push(Vec3::new(turn.x, turn.y, -CRUISE_ALTITUDE));
    }
    waypoints.push(Vec3::new(end.x, end.y, -CRUISE_ALTITUDE));

    let direction = cardinal(heading);
    Mission {
        drone: DroneSpec {
            id,
            name: format!("mc-{id}"),
            cruise_speed_kmh: speed_kmh,
            payload_kg: rng.uniform_range(0.05, 0.5),
            dimension_m: rng.uniform_range(0.5, 0.85),
            safety_distance_m: rng.uniform_range(1.5, 3.0),
        },
        home,
        waypoints,
        direction,
    }
}

/// Generates a fleet of `count` missions, deterministically under `seed`.
pub fn generate_fleet(count: usize, seed: u64) -> Vec<Mission> {
    let mut rng = Pcg::seed_from(seed);
    (0..count)
        .map(|i| generate_mission(i as u32, &mut rng))
        .collect()
}

fn route_end(home: Vec3, heading: f64, length: f64) -> Vec3 {
    Vec3::new(
        home.x + length * heading.cos(),
        home.y + length * heading.sin(),
        0.0,
    )
}

fn cardinal(heading: f64) -> String {
    let deg = heading.to_degrees();
    match deg {
        d if (-45.0..45.0).contains(&d) => "S-N",
        d if (45.0..135.0).contains(&d) => "W-E",
        d if !(-135.0..135.0).contains(&d) => "N-S",
        _ => "E-W",
    }
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_is_deterministic() {
        let a = generate_fleet(10, 99);
        let b = generate_fleet(10, 99);
        assert_eq!(a, b);
        let c = generate_fleet(10, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn missions_stay_inside_the_area() {
        for m in generate_fleet(50, 7) {
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
    fn speeds_come_from_the_study_pool() {
        for m in generate_fleet(50, 8) {
            assert!(
                SPEED_POOL.contains(&m.drone.cruise_speed_kmh),
                "unexpected speed {}",
                m.drone.cruise_speed_kmh
            );
        }
    }

    #[test]
    fn nominal_durations_are_in_band() {
        // Straight missions hit the target closely; turning and
        // boundary-clamped ones may be shorter. Nothing absurd either way.
        for m in generate_fleet(50, 9) {
            let t = m.plan().nominal_duration();
            assert!(
                (100.0..900.0).contains(&t),
                "mission {} nominal duration {t:.0}s",
                m.drone.name
            );
        }
    }

    #[test]
    fn some_missions_turn_inside_the_injection_window() {
        let fleet = generate_fleet(60, 10);
        let turning = fleet.iter().filter(|m| m.has_turns()).count();
        assert!(
            turning >= 10,
            "expected ~40% turning missions, got {turning}/60"
        );
        // Turning missions have plausible first-leg timing.
        for m in fleet.iter().filter(|m| m.has_turns()) {
            let leg = m.waypoints[0].distance_xy(m.home);
            let t = leg / m.drone.cruise_speed();
            assert!(t <= 115.0, "first leg of {} takes {t:.0}s", m.drone.name);
        }
    }

    #[test]
    fn altitudes_match_the_ceiling() {
        for m in generate_fleet(20, 11) {
            for wp in &m.waypoints {
                assert!((-wp.z - CRUISE_ALTITUDE).abs() < 1e-9);
            }
        }
    }
}
