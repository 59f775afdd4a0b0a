//! The fast-detection mitigation stage.
//!
//! Extracted from the simulator loop: watches the consumed (possibly
//! corrupted) IMU stream with the `imufit-detect` ensemble and decides when
//! a persistent alarm should pull the failsafe handle — the "quick
//! detection and tolerance techniques" the paper's discussion calls for.
//! The same ensemble times the persisted alarm's rising edge for the black
//! box, so detection latency is measurable on mitigation-off flights too.
//! With neither use armed (the paper's configuration) it is a no-op that
//! holds no state.

use imufit_detect::{Detector, EnsembleDetector};
use imufit_sensors::ImuSample;

/// Detection-and-response stage between estimation and control.
#[derive(Debug, Clone)]
pub struct MitigationStage {
    detector: Option<EnsembleDetector>,
    /// A persisted alarm asks for the failsafe (fast detection is on).
    fast_detection: bool,
    /// Rising edges of the persisted alarm are reported.
    edges: bool,
    alarm_since: Option<f64>,
    /// The current alarm has persisted; its edge is reported only once.
    persisted: bool,
    /// Set by the observation on which the persisted alarm rose: how long
    /// the alarm had been up.
    edge: Option<f64>,
    persist: f64,
}

impl MitigationStage {
    /// Creates the stage; `enabled = false` yields the paper's
    /// mitigation-free configuration.
    pub fn new(enabled: bool, persist: f64) -> Self {
        Self::with_edges(enabled, false, persist)
    }

    /// Creates the stage with alarm edges for the black box. The ensemble
    /// runs when either `fast_detection` or `edges` is set; only
    /// `fast_detection` ever asks for the failsafe.
    pub fn with_edges(fast_detection: bool, edges: bool, persist: f64) -> Self {
        MitigationStage {
            detector: (fast_detection || edges).then(EnsembleDetector::flight),
            fast_detection,
            edges,
            alarm_since: None,
            persisted: false,
            edge: None,
            persist,
        }
    }

    /// Feeds one consumed IMU sample; returns true when the failsafe should
    /// latch (fast detection is on and the alarm has persisted while
    /// airborne).
    pub fn observe(&mut self, imu: &ImuSample, dt: f64, time: f64, airborne: bool) -> bool {
        self.edge = None;
        let Some(detector) = self.detector.as_mut() else {
            return false;
        };
        if !(detector.observe(imu, dt) && airborne) {
            self.alarm_since = None;
            self.persisted = false;
            return false;
        }
        let since = *self.alarm_since.get_or_insert(time);
        if time - since >= self.persist {
            if !self.persisted && self.edges {
                self.edge = Some(time - since);
            }
            self.persisted = true;
            self.fast_detection
        } else {
            false
        }
    }

    /// How long the alarm had been up, when the last [`observe`] saw the
    /// persisted alarm rise and edges are armed; `None` otherwise.
    ///
    /// [`observe`]: MitigationStage::observe
    pub(crate) fn rising_edge(&self) -> Option<f64> {
        self.edge
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imufit_math::rng::Pcg;
    use imufit_math::Vec3;

    /// Realistic clean IMU data: a perfectly constant stream would trip the
    /// ensemble's stuck-value member, so quiet samples carry sensor noise.
    fn quiet(t: f64, rng: &mut Pcg) -> ImuSample {
        ImuSample {
            accel: Vec3::new(
                rng.normal_with(0.0, 0.05),
                rng.normal_with(0.0, 0.05),
                -imufit_math::GRAVITY + rng.normal_with(0.0, 0.05),
            ),
            gyro: Vec3::new(
                rng.normal_with(0.0, 0.002),
                rng.normal_with(0.0, 0.002),
                rng.normal_with(0.0, 0.002),
            ),
            time: t,
        }
    }

    fn saturated(t: f64) -> ImuSample {
        ImuSample {
            accel: Vec3::splat(16.0 * imufit_math::GRAVITY),
            gyro: Vec3::splat(34.9),
            time: t,
        }
    }

    #[test]
    fn disabled_stage_never_triggers() {
        let mut stage = MitigationStage::new(false, 0.25);
        for i in 0..1000 {
            assert!(!stage.observe(&saturated(i as f64 * 0.004), 0.004, i as f64 * 0.004, true));
        }
    }

    #[test]
    fn persistent_alarm_triggers_after_persist_window() {
        let mut stage = MitigationStage::new(true, 0.25);
        // Settle the detector on clean data first.
        let mut rng = Pcg::seed_from(7);
        let mut t = 0.0;
        for _ in 0..2500 {
            assert!(!stage.observe(&quiet(t, &mut rng), 0.004, t, true));
            t += 0.004;
        }
        // Saturated garbage: must trigger, but not before `persist` elapses.
        let onset = t;
        let mut triggered_at = None;
        for _ in 0..2500 {
            if stage.observe(&saturated(t), 0.004, t, true) {
                triggered_at = Some(t);
                break;
            }
            t += 0.004;
        }
        let at = triggered_at.expect("saturated stream must trip the ensemble");
        assert!(at - onset >= 0.25, "triggered after {:.3}s", at - onset);
        assert!(at - onset < 2.0, "took too long: {:.3}s", at - onset);
    }

    /// One ensemble serves both uses: a stage armed only for edges reports
    /// its first edge on the tick where a fast-detection stage first asks
    /// for the failsafe, and itself never asks.
    #[test]
    fn edge_only_stage_reports_the_fast_detection_tick() {
        let mut fast = MitigationStage::new(true, 0.25);
        let mut edges = MitigationStage::with_edges(false, true, 0.25);
        let mut rng = Pcg::seed_from(7);
        let mut t = 0.0;
        for _ in 0..2500 {
            let sample = quiet(t, &mut rng);
            assert!(!fast.observe(&sample, 0.004, t, true));
            assert!(!edges.observe(&sample, 0.004, t, true));
            assert_eq!(edges.rising_edge(), None);
            t += 0.004;
        }
        let mut first_trigger = None;
        let mut reported = Vec::new();
        for _ in 0..2500 {
            let sample = saturated(t);
            if fast.observe(&sample, 0.004, t, true) && first_trigger.is_none() {
                first_trigger = Some(t);
            }
            assert!(!edges.observe(&sample, 0.004, t, true));
            if let Some(persisted) = edges.rising_edge() {
                assert!(persisted >= 0.25, "edge after {persisted:.3}s");
                reported.push(t);
            }
            t += 0.004;
        }
        let at = first_trigger.expect("saturated stream must trip the ensemble");
        assert_eq!(reported, vec![at], "exactly one edge, on the trigger tick");
        // The fast-detection stage keeps no edge of its own to report.
        assert_eq!(fast.rising_edge(), None);
    }

    #[test]
    fn grounded_vehicle_never_triggers() {
        let mut stage = MitigationStage::new(true, 0.25);
        let mut t = 0.0;
        for _ in 0..5000 {
            assert!(!stage.observe(&saturated(t), 0.004, t, false));
            t += 0.004;
        }
    }
}
