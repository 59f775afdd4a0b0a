//! Flight outcomes and per-flight results.

use imufit_bubble::ViolationCounts;
use imufit_controller::FailsafeReason;
use imufit_telemetry::FlightRecorder;

/// How a flight ended. Classification follows the paper: a mission is
/// *completed* when it "nor crashed neither failsafe is enabled"; failed
/// missions split into crashes and failsafe activations. If failsafe latched
/// before an eventual ground impact, the flight counts as a failsafe
/// activation (the flight controller gave up before physics did).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlightOutcome {
    /// Landed, disarmed, all waypoints visited, no failsafe.
    Completed,
    /// Ground impact (or divergence) without a prior failsafe activation.
    Crashed {
        /// Impact time, seconds.
        time: f64,
    },
    /// Failsafe latched (possibly followed by a hard landing).
    Failsafe {
        /// Activation time, seconds.
        time: f64,
        /// Why.
        reason: FailsafeReason,
    },
    /// The watchdog expired: the vehicle neither finished nor crashed
    /// (e.g. drifting with a corrupted estimator). Counted as a failsafe-
    /// style failure in the tables, per DESIGN.md.
    Timeout,
    /// The simulation itself failed (a panic caught by the campaign
    /// runner). Counted as a failed — but neither crash nor failsafe —
    /// run, so one bad experiment cannot kill a whole campaign.
    Aborted,
}

impl FlightOutcome {
    /// True for [`FlightOutcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, FlightOutcome::Completed)
    }

    /// True for a crash.
    pub fn is_crash(&self) -> bool {
        matches!(self, FlightOutcome::Crashed { .. })
    }

    /// True when failsafe latched (including timeouts, which the tables
    /// count on the failsafe side).
    pub fn is_failsafe(&self) -> bool {
        matches!(
            self,
            FlightOutcome::Failsafe { .. } | FlightOutcome::Timeout
        )
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            FlightOutcome::Completed => "completed",
            FlightOutcome::Crashed { .. } => "crash",
            FlightOutcome::Failsafe { .. } => "failsafe",
            FlightOutcome::Timeout => "timeout",
            FlightOutcome::Aborted => "aborted",
        }
    }
}

/// The scalar metrics of one flight — everything the campaign tables need,
/// without the recorded track. `Copy`, so campaign workers can pull it out
/// of a recycled vehicle and keep flying the same allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightSummary {
    /// How the flight ended.
    pub outcome: FlightOutcome,
    /// Flight duration, seconds: takeoff to disarm, or to the crash.
    pub duration: f64,
    /// Distance traveled according to the estimator, meters (the paper's
    /// distance metric).
    pub distance_est: f64,
    /// Ground-truth distance traveled, meters.
    pub distance_true: f64,
    /// Bubble violation tallies.
    pub violations: ViolationCounts,
    /// Number of estimator kinematic resets during the flight.
    pub ekf_resets: u32,
}

/// Everything measured from one flight.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightResult {
    /// How the flight ended.
    pub outcome: FlightOutcome,
    /// Flight duration, seconds: takeoff to disarm, or to the crash.
    pub duration: f64,
    /// Distance traveled according to the EKF estimate, meters (the paper's
    /// distance metric).
    pub distance_est: f64,
    /// Ground-truth distance traveled, meters.
    pub distance_true: f64,
    /// Bubble violation tallies.
    pub violations: ViolationCounts,
    /// Number of EKF kinematic resets during the flight.
    pub ekf_resets: u32,
    /// The recorded track (1 Hz tracking cadence).
    pub recorder: FlightRecorder,
}

impl FlightSummary {
    /// Attaches a recorded track, upgrading the summary to a full
    /// [`FlightResult`].
    pub fn with_recorder(self, recorder: FlightRecorder) -> FlightResult {
        FlightResult {
            outcome: self.outcome,
            duration: self.duration,
            distance_est: self.distance_est,
            distance_true: self.distance_true,
            violations: self.violations,
            ekf_resets: self.ekf_resets,
            recorder,
        }
    }
}

impl From<&FlightResult> for FlightSummary {
    fn from(r: &FlightResult) -> Self {
        FlightSummary {
            outcome: r.outcome,
            duration: r.duration,
            distance_est: r.distance_est,
            distance_true: r.distance_true,
            violations: r.violations,
            ekf_resets: r.ekf_resets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_helpers() {
        assert!(FlightOutcome::Completed.is_completed());
        assert!(FlightOutcome::Crashed { time: 1.0 }.is_crash());
        assert!(FlightOutcome::Failsafe {
            time: 2.0,
            reason: FailsafeReason::GyroImplausible
        }
        .is_failsafe());
        assert!(FlightOutcome::Timeout.is_failsafe());
        assert!(!FlightOutcome::Timeout.is_crash());
        assert!(!FlightOutcome::Timeout.is_completed());
        assert!(!FlightOutcome::Aborted.is_completed());
        assert!(!FlightOutcome::Aborted.is_crash());
        assert!(!FlightOutcome::Aborted.is_failsafe());
    }

    #[test]
    fn labels() {
        assert_eq!(FlightOutcome::Completed.label(), "completed");
        assert_eq!(FlightOutcome::Crashed { time: 0.0 }.label(), "crash");
        assert_eq!(FlightOutcome::Timeout.label(), "timeout");
    }
}
