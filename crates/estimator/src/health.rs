//! Filter health reporting consumed by the failure detector.

/// Innovation-consistency health of the estimator.
///
/// Test ratios are normalized innovation squares divided by the gate
/// threshold: a value above 1.0 means the measurement was rejected. The
/// failure detector in `imufit-controller` combines these with raw-sensor
/// plausibility checks to decide when to isolate a sensor and when to
/// trigger failsafe.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EstimatorHealth {
    /// Largest recent GPS horizontal-position innovation test ratio.
    pub pos_test_ratio: f64,
    /// Largest recent GPS velocity innovation test ratio.
    pub vel_test_ratio: f64,
    /// Largest recent barometer height innovation test ratio.
    pub hgt_test_ratio: f64,
    /// Most recent compass yaw innovation test ratio. Feeds the
    /// innovation-consistency monitors only; deliberately excluded from
    /// [`EstimatorHealth::any_rejecting`] and
    /// [`EstimatorHealth::worst_ratio`] so the legacy failsafe path is
    /// untouched by the magnetometer channel.
    pub yaw_test_ratio: f64,
    /// Number of state resets performed after persistent rejection.
    pub reset_count: u32,
    /// Seconds since the last *accepted* horizontal position or velocity
    /// aiding update. Grows when gating rejects everything.
    pub time_since_aiding: f64,
}

impl EstimatorHealth {
    /// True if any aiding channel is currently failing its innovation gate.
    pub fn any_rejecting(&self) -> bool {
        self.pos_test_ratio > 1.0 || self.vel_test_ratio > 1.0 || self.hgt_test_ratio > 1.0
    }

    /// Worst test ratio across channels.
    pub fn worst_ratio(&self) -> f64 {
        self.pos_test_ratio
            .max(self.vel_test_ratio)
            .max(self.hgt_test_ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_healthy() {
        let h = EstimatorHealth::default();
        assert!(!h.any_rejecting());
        assert_eq!(h.worst_ratio(), 0.0);
    }

    #[test]
    fn rejection_detection() {
        let h = EstimatorHealth {
            vel_test_ratio: 1.5,
            ..Default::default()
        };
        assert!(h.any_rejecting());
        assert_eq!(h.worst_ratio(), 1.5);
    }
}
