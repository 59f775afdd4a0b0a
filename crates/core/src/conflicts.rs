//! Multi-drone U-space conflict analysis.
//!
//! The bubble's purpose in U-space is *separation* between aircraft (the
//! paper: "adherence to separation minima ... is the primary risk metric",
//! and its earlier study measured the conflict rate of the same scenario).
//! This module flies the whole fleet concurrently — all ten missions sharing
//! the airspace slice — and evaluates pairwise separation at every tracking
//! instant:
//!
//! * a **conflict** when two drones' *inner* bubbles overlap,
//! * an **alert** when their *outer* bubbles overlap,
//! * the minimum pairwise separation as the headline number.
//!
//! Injecting a fault into one fleet member shows how a single faulty drone
//! erodes the separation of everyone around it.

use imufit_bubble::{anticipated_distance, outer_radius, InnerBubbleSpec};
use imufit_faults::FaultSpec;
use imufit_missions::Mission;
use imufit_telemetry::TrackPoint;
use imufit_uav::{FlightResult, FlightSimulator, SimConfig};

/// One drone's contribution to the shared airspace picture.
#[derive(Debug, Clone)]
pub struct FleetMember {
    /// Drone id.
    pub drone_id: u32,
    /// Static inner bubble radius, meters.
    pub inner_radius: f64,
    /// The flight outcome and track.
    pub result: FlightResult,
}

/// Pairwise separation statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairStats {
    /// The two drone ids.
    pub pair: (u32, u32),
    /// Minimum separation observed, meters.
    pub min_separation: f64,
    /// Tracking instants with inner-bubble overlap.
    pub conflicts: u32,
    /// Tracking instants with outer-bubble overlap.
    pub alerts: u32,
}

/// The fleet-level separation report.
#[derive(Debug, Clone)]
pub struct ConflictReport {
    /// Per-pair statistics (only pairs that were simultaneously airborne).
    pub pairs: Vec<PairStats>,
    /// Total conflicts across all pairs and instants.
    pub total_conflicts: u32,
    /// Total alerts across all pairs and instants.
    pub total_alerts: u32,
    /// The smallest separation seen anywhere, meters.
    pub min_separation: f64,
    /// The pair that came closest.
    pub closest_pair: Option<(u32, u32)>,
}

/// Flies every mission concurrently (same wall-clock zero) and returns the
/// fleet members. `fault_on` optionally injects a fault into one mission
/// (by index into `missions`).
pub fn fly_fleet(
    missions: &[Mission],
    fault_on: Option<(usize, FaultSpec)>,
    seed: u64,
) -> Vec<FleetMember> {
    missions
        .iter()
        .enumerate()
        .map(|(i, mission)| {
            let faults = match &fault_on {
                Some((idx, spec)) if *idx == i => vec![*spec],
                _ => Vec::new(),
            };
            let config =
                SimConfig::default_for(mission, seed.wrapping_add(mission.drone.id as u64));
            let result = FlightSimulator::new(mission, faults, config).run();
            let inner = InnerBubbleSpec {
                dimension: mission.drone.dimension_m,
                safety_distance: mission.drone.safety_distance_m,
                max_tracking_distance: mission.drone.max_tracking_distance(1.0),
            };
            FleetMember {
                drone_id: mission.drone.id,
                inner_radius: inner.radius(),
                result,
            }
        })
        .collect()
}

/// The dynamic outer radius of a track at instant `k`, recomputed from the
/// recorded airspeeds with the paper's Equations 2–3 (risk = 1).
fn outer_radius_at(points: &[TrackPoint], inner: f64, k: usize) -> f64 {
    if k == 0 {
        return outer_radius(1.0, inner, 0.0);
    }
    let prev_distance = points[k]
        .true_position
        .distance(points[k - 1].true_position);
    let anticipated = if k >= 2 {
        anticipated_distance(prev_distance, points[k].airspeed, points[k - 1].airspeed)
    } else {
        prev_distance
    };
    outer_radius(1.0, inner, anticipated)
}

/// Evaluates pairwise separation for a fleet flight.
pub fn analyze(members: &[FleetMember]) -> ConflictReport {
    let mut pairs = Vec::new();
    let mut total_conflicts = 0;
    let mut total_alerts = 0;
    let mut min_separation = f64::INFINITY;
    let mut closest_pair = None;

    for i in 0..members.len() {
        for j in (i + 1)..members.len() {
            let a = &members[i];
            let b = &members[j];
            let pa = a.result.recorder.points();
            let pb = b.result.recorder.points();
            let horizon = pa.len().min(pb.len());
            if horizon == 0 {
                continue;
            }
            let mut stats = PairStats {
                pair: (a.drone_id, b.drone_id),
                min_separation: f64::INFINITY,
                conflicts: 0,
                alerts: 0,
            };
            for k in 0..horizon {
                let separation = pa[k].true_position.distance(pb[k].true_position);
                stats.min_separation = stats.min_separation.min(separation);
                if separation < a.inner_radius + b.inner_radius {
                    stats.conflicts += 1;
                }
                let outer_a = outer_radius_at(pa, a.inner_radius, k);
                let outer_b = outer_radius_at(pb, b.inner_radius, k);
                if separation < outer_a + outer_b {
                    stats.alerts += 1;
                }
            }
            total_conflicts += stats.conflicts;
            total_alerts += stats.alerts;
            if stats.min_separation < min_separation {
                min_separation = stats.min_separation;
                closest_pair = Some(stats.pair);
            }
            pairs.push(stats);
        }
    }

    ConflictReport {
        pairs,
        total_conflicts,
        total_alerts,
        min_separation,
        closest_pair,
    }
}

impl ConflictReport {
    /// Renders a short markdown summary.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "pairs evaluated: {} | conflicts: {} | alerts: {} | min separation: {:.1} m{}\n",
            self.pairs.len(),
            self.total_conflicts,
            self.total_alerts,
            if self.min_separation.is_finite() {
                self.min_separation
            } else {
                0.0
            },
            self.closest_pair
                .map(|(a, b)| format!(" (drones {a} & {b})"))
                .unwrap_or_default()
        ));
        let mut sorted: Vec<&PairStats> = self.pairs.iter().collect();
        sorted.sort_by(|a, b| a.min_separation.total_cmp(&b.min_separation));
        for p in sorted.iter().take(5) {
            s.push_str(&format!(
                "  drones {:>2} & {:>2}: min sep {:>8.1} m, {} conflicts, {} alerts\n",
                p.pair.0, p.pair.1, p.min_separation, p.conflicts, p.alerts
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imufit_math::Vec3;
    use imufit_telemetry::FlightRecorder;
    use imufit_uav::FlightOutcome;

    fn member(id: u32, xs: &[f64]) -> FleetMember {
        let mut recorder = FlightRecorder::new(1.0);
        for (k, &x) in xs.iter().enumerate() {
            recorder.offer(TrackPoint {
                time: k as f64,
                true_position: Vec3::new(x, id as f64 * 0.0, -18.0),
                est_position: Vec3::new(x, 0.0, -18.0),
                true_velocity: Vec3::new(1.0, 0.0, 0.0),
                airspeed: 1.0,
                fault_active: false,
                failsafe: false,
            });
        }
        FleetMember {
            drone_id: id,
            inner_radius: 3.0,
            result: FlightResult {
                outcome: FlightOutcome::Completed,
                duration: xs.len() as f64,
                distance_est: 0.0,
                distance_true: 0.0,
                violations: imufit_bubble::ViolationCounts::default(),
                ekf_resets: 0,
                recorder,
            },
        }
    }

    #[test]
    fn far_apart_drones_have_no_conflicts() {
        let a = member(0, &[0.0, 1.0, 2.0]);
        let b = member(1, &[1000.0, 1001.0, 1002.0]);
        let report = analyze(&[a, b]);
        assert_eq!(report.total_conflicts, 0);
        assert_eq!(report.total_alerts, 0);
        // Both drones advance in lockstep, so the gap stays constant.
        assert!((report.min_separation - 1000.0).abs() < 1e-9);
        assert_eq!(report.closest_pair, Some((0, 1)));
    }

    #[test]
    fn converging_drones_trigger_conflicts() {
        // Drone 1 drives straight at drone 0's position.
        let a = member(0, &[0.0, 0.0, 0.0, 0.0]);
        let b = member(1, &[20.0, 10.0, 4.0, 1.0]);
        let report = analyze(&[a, b]);
        // Separation 4 < 3 + 3 at instant 2, and 1 < 6 at instant 3.
        assert!(report.total_conflicts >= 2, "report {report:?}");
        assert!(report.total_alerts >= report.total_conflicts);
        assert!((report.min_separation - 1.0).abs() < 1e-9);
    }

    #[test]
    fn alerts_fire_before_conflicts() {
        // Fast approach: the dynamic outer bubble grows with the distance
        // covered per instant, alerting earlier than the inner bubble.
        let a = member(0, &[0.0; 6]);
        let b = member(1, &[100.0, 80.0, 60.0, 40.0, 20.0, 10.0]);
        let report = analyze(&[a, b]);
        assert!(report.total_alerts > report.total_conflicts);
    }

    #[test]
    fn unequal_track_lengths_use_common_horizon() {
        let a = member(0, &[0.0, 1.0]);
        let b = member(1, &[5.0, 5.0, 5.0, 5.0, 5.0]);
        let report = analyze(&[a, b]);
        assert_eq!(report.pairs.len(), 1);
        // Only the first two instants are compared.
        assert!((report.min_separation - 4.0).abs() < 1e-9);
    }

    #[test]
    fn empty_fleet_is_empty_report() {
        let report = analyze(&[]);
        assert!(report.pairs.is_empty());
        assert_eq!(report.total_alerts, 0);
        assert!(report.closest_pair.is_none());
    }

    #[test]
    fn render_lists_closest_pairs() {
        let a = member(0, &[0.0, 1.0, 2.0]);
        let b = member(1, &[50.0, 40.0, 30.0]);
        let c = member(2, &[500.0, 500.0, 500.0]);
        let report = analyze(&[a, b, c]);
        let text = report.render();
        assert!(text.contains("pairs evaluated: 3"));
        assert!(text.contains("drones  0 &  1"));
    }
}
