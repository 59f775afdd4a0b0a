//! Trace configuration: which anomalies freeze a capture window, and how
//! big the ring and the windows are. Always compiled (scenario documents
//! carry a `[trace]` section whether or not the collector is built in).

use std::fmt;

/// The anomalies that freeze a pre/post window out of the ring into the
/// black box.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceTrigger {
    /// The detection ensemble's persisted alarm rose.
    DetectorEdge,
    /// The consensus voter excluded an IMU instance.
    VoterExclusion,
    /// The inner or outer bubble was violated.
    BubbleViolation,
    /// The failsafe latched.
    Failsafe,
    /// The simulation panicked (captured by the campaign worker).
    Panic,
    /// An innovation monitor moved an aiding sensor down the degradation
    /// ladder.
    SensorDegradation,
}

impl TraceTrigger {
    /// Every trigger, in wire-code order. New triggers append — codes are
    /// baked into persisted black boxes.
    pub const ALL: [TraceTrigger; 6] = [
        TraceTrigger::DetectorEdge,
        TraceTrigger::VoterExclusion,
        TraceTrigger::BubbleViolation,
        TraceTrigger::Failsafe,
        TraceTrigger::Panic,
        TraceTrigger::SensorDegradation,
    ];

    /// The identifier used in scenario documents and `--trace-triggers`.
    pub fn label(self) -> &'static str {
        match self {
            TraceTrigger::DetectorEdge => "detector-edge",
            TraceTrigger::VoterExclusion => "voter-exclusion",
            TraceTrigger::BubbleViolation => "bubble-violation",
            TraceTrigger::Failsafe => "failsafe",
            TraceTrigger::Panic => "panic",
            TraceTrigger::SensorDegradation => "sensor-degradation",
        }
    }

    /// Parses a document identifier (see [`TraceTrigger::label`]).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|t| t.label() == s)
    }

    /// Stable wire code.
    pub fn code(self) -> u8 {
        Self::ALL
            .iter()
            .position(|t| *t == self)
            .expect("trigger is in ALL") as u8
    }

    /// Decodes a wire code.
    pub fn from_code(code: u8) -> Option<Self> {
        Self::ALL.get(code as usize).copied()
    }
}

impl fmt::Display for TraceTrigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Black-box tracing configuration for one flight.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSettings {
    /// Arm the collector (off by default: tracing is opt-in per run).
    pub enabled: bool,
    /// The anomalies that freeze a capture window (default: all of them).
    pub triggers: Vec<TraceTrigger>,
    /// Records kept *before* a trigger, pulled from the ring.
    pub pre_window: usize,
    /// Records kept *after* a trigger.
    pub post_window: usize,
    /// Ring capacity, records; bounds memory and the largest pre-window.
    pub ring_capacity: usize,
}

impl Default for TraceSettings {
    /// Disarmed; when armed, ~1 s pre and ~1 s post at the paper's 250 Hz.
    fn default() -> Self {
        TraceSettings {
            enabled: false,
            triggers: TraceTrigger::ALL.to_vec(),
            pre_window: 256,
            post_window: 256,
            ring_capacity: 1024,
        }
    }
}

impl TraceSettings {
    /// Checks the invariants the collector relies on.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.ring_capacity == 0 {
            return Err("trace.ring_capacity must be at least 1".to_string());
        }
        if self.pre_window > self.ring_capacity {
            return Err(format!(
                "trace.pre_window ({}) cannot exceed trace.ring_capacity ({})",
                self.pre_window, self.ring_capacity
            ));
        }
        Ok(())
    }

    /// True when `trigger` freezes a capture window under these settings.
    pub fn triggers_on(&self, trigger: TraceTrigger) -> bool {
        self.triggers.contains(&trigger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_labels_round_trip() {
        for t in TraceTrigger::ALL {
            assert_eq!(TraceTrigger::parse(t.label()), Some(t));
            assert_eq!(TraceTrigger::from_code(t.code()), Some(t));
        }
        assert_eq!(TraceTrigger::parse("no-such-trigger"), None);
        assert_eq!(TraceTrigger::from_code(200), None);
    }

    #[test]
    fn default_settings_validate_and_are_disarmed() {
        let s = TraceSettings::default();
        assert!(!s.enabled);
        assert!(s.validate().is_ok());
        for t in TraceTrigger::ALL {
            assert!(s.triggers_on(t));
        }
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut s = TraceSettings {
            ring_capacity: 0,
            ..Default::default()
        };
        assert!(s.validate().is_err());
        s.ring_capacity = 8;
        s.pre_window = 9;
        assert!(s.validate().unwrap_err().contains("pre_window"));
    }
}
