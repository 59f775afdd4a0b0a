//! The causally-linked event stream.
//!
//! Events are edges, not levels: one event per transition. Each carries the
//! id of the event that (transitively) caused it, so a post-mortem can walk
//! from a run outcome back to the fault activation that started the chain.

/// What happened at an event instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A fault injection window opened.
    FaultActivated,
    /// A fault injection window closed.
    FaultCleared,
    /// The detection ensemble's persisted alarm rose.
    DetectorEdge,
    /// The consensus voter excluded an instance (param: instance index).
    VoterExclusion,
    /// The consensus voter reinstated an instance (param: instance index).
    VoterReinstatement,
    /// The primary IMU was switched (param: new primary index).
    PrimarySwitch,
    /// The recovery cascade moved stage (param: new stage code).
    CascadeTransition,
    /// A bubble radius was violated (param: 0 inner, 1 outer).
    BubbleViolation,
    /// The failsafe latched.
    FailsafeActivated,
    /// The run finished; `detail` holds the outcome label.
    RunOutcome,
    /// The simulation panicked; captured by the campaign worker.
    PanicCaptured,
    /// A sensor-attack window opened; `detail` holds the attack label.
    AttackActivated,
    /// A sensor-attack window closed.
    AttackCleared,
    /// An innovation monitor moved an aiding sensor down (or back up) the
    /// degradation ladder (param: packed sensor/stage code; `detail` names
    /// both).
    SensorDegradation,
}

impl TraceEventKind {
    /// Every kind, in wire-code order. New kinds append — codes are baked
    /// into persisted black boxes.
    pub const ALL: [TraceEventKind; 14] = [
        TraceEventKind::FaultActivated,
        TraceEventKind::FaultCleared,
        TraceEventKind::DetectorEdge,
        TraceEventKind::VoterExclusion,
        TraceEventKind::VoterReinstatement,
        TraceEventKind::PrimarySwitch,
        TraceEventKind::CascadeTransition,
        TraceEventKind::BubbleViolation,
        TraceEventKind::FailsafeActivated,
        TraceEventKind::RunOutcome,
        TraceEventKind::PanicCaptured,
        TraceEventKind::AttackActivated,
        TraceEventKind::AttackCleared,
        TraceEventKind::SensorDegradation,
    ];

    /// Stable wire code.
    pub fn code(self) -> u8 {
        Self::ALL
            .iter()
            .position(|k| *k == self)
            .expect("kind is in ALL") as u8
    }

    /// Decodes a wire code.
    pub fn from_code(code: u8) -> Option<Self> {
        Self::ALL.get(code as usize).copied()
    }

    /// Human-readable name used in `triage` timelines.
    pub fn label(self) -> &'static str {
        match self {
            TraceEventKind::FaultActivated => "fault activated",
            TraceEventKind::FaultCleared => "fault cleared",
            TraceEventKind::DetectorEdge => "detector rising edge",
            TraceEventKind::VoterExclusion => "voter exclusion",
            TraceEventKind::VoterReinstatement => "voter reinstatement",
            TraceEventKind::PrimarySwitch => "primary switch",
            TraceEventKind::CascadeTransition => "cascade transition",
            TraceEventKind::BubbleViolation => "bubble violation",
            TraceEventKind::FailsafeActivated => "failsafe activated",
            TraceEventKind::RunOutcome => "run outcome",
            TraceEventKind::PanicCaptured => "panic captured",
            TraceEventKind::AttackActivated => "attack activated",
            TraceEventKind::AttackCleared => "attack cleared",
            TraceEventKind::SensorDegradation => "sensor degradation",
        }
    }
}

/// One edge in the flight's causal history.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Monotonic id, unique within a run.
    pub id: u32,
    /// The id of the event that (transitively) triggered this one.
    pub caused_by: Option<u32>,
    /// Physics tick at which the edge fired.
    pub tick: u64,
    /// Simulated time of the edge, s.
    pub time: f64,
    /// What happened.
    pub kind: TraceEventKind,
    /// Kind-specific payload (instance index, stage code, 0/1, ...).
    pub param: u32,
    /// Free-text context (fault label, outcome label, transition detail).
    pub detail: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes_round_trip() {
        for k in TraceEventKind::ALL {
            assert_eq!(TraceEventKind::from_code(k.code()), Some(k));
            assert!(!k.label().is_empty());
        }
        assert_eq!(TraceEventKind::from_code(250), None);
    }
}
