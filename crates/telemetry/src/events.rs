//! Discrete flight events: the annotations a post-flight log review needs
//! to reconstruct *why* a flight ended the way it did.
//!
//! The paper's analysis works backwards from PX4 logs to failsafe causes;
//! this module makes that explicit: fault windows, voter exclusions,
//! primary switchovers, mitigation-level changes, and failsafe activation
//! are recorded as timestamped [`FlightEvent`]s alongside the 1 Hz track.

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEventKind {
    /// A fault injection window opened.
    FaultInjected,
    /// A fault injection window closed.
    FaultCleared,
    /// The voter excluded IMU instance `param` from the merged stream.
    InstanceExcluded,
    /// The voter reinstated IMU instance `param`.
    InstanceReinstated,
    /// The primary IMU instance switched to `param` (isolation rotation or
    /// voter substitution).
    PrimarySwitch,
    /// The recovery cascade escalated to a higher mitigation level.
    MitigationEscalated,
    /// The recovery cascade stepped back down.
    MitigationRecovered,
    /// Failsafe latched.
    FailsafeActivated,
    /// A sensor-attack window opened (GPS spoof, baro drift, ...).
    AttackInjected,
    /// A sensor-attack window closed.
    AttackCleared,
    /// An innovation monitor moved an aiding sensor along the degradation
    /// ladder; `detail` names the sensor and stage.
    SensorDegradation,
}

impl FlightEventKind {
    /// Stable wire code.
    pub fn code(self) -> u8 {
        match self {
            FlightEventKind::FaultInjected => 0,
            FlightEventKind::FaultCleared => 1,
            FlightEventKind::InstanceExcluded => 2,
            FlightEventKind::InstanceReinstated => 3,
            FlightEventKind::PrimarySwitch => 4,
            FlightEventKind::MitigationEscalated => 5,
            FlightEventKind::MitigationRecovered => 6,
            FlightEventKind::FailsafeActivated => 7,
            FlightEventKind::AttackInjected => 8,
            FlightEventKind::AttackCleared => 9,
            FlightEventKind::SensorDegradation => 10,
        }
    }

    /// Inverse of [`FlightEventKind::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => FlightEventKind::FaultInjected,
            1 => FlightEventKind::FaultCleared,
            2 => FlightEventKind::InstanceExcluded,
            3 => FlightEventKind::InstanceReinstated,
            4 => FlightEventKind::PrimarySwitch,
            5 => FlightEventKind::MitigationEscalated,
            6 => FlightEventKind::MitigationRecovered,
            7 => FlightEventKind::FailsafeActivated,
            8 => FlightEventKind::AttackInjected,
            9 => FlightEventKind::AttackCleared,
            10 => FlightEventKind::SensorDegradation,
            _ => return None,
        })
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            FlightEventKind::FaultInjected => "fault injected",
            FlightEventKind::FaultCleared => "fault cleared",
            FlightEventKind::InstanceExcluded => "instance excluded",
            FlightEventKind::InstanceReinstated => "instance reinstated",
            FlightEventKind::PrimarySwitch => "primary switch",
            FlightEventKind::MitigationEscalated => "mitigation escalated",
            FlightEventKind::MitigationRecovered => "mitigation recovered",
            FlightEventKind::FailsafeActivated => "failsafe activated",
            FlightEventKind::AttackInjected => "attack injected",
            FlightEventKind::AttackCleared => "attack cleared",
            FlightEventKind::SensorDegradation => "sensor degradation",
        }
    }
}

/// One timestamped event.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Flight time, seconds.
    pub time: f64,
    /// What happened.
    pub kind: FlightEventKind,
    /// Kind-specific parameter (e.g. the instance index); 0 when unused.
    pub param: u32,
    /// Free-form description, e.g. the mitigation level names.
    pub detail: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for kind in [
            FlightEventKind::FaultInjected,
            FlightEventKind::FaultCleared,
            FlightEventKind::InstanceExcluded,
            FlightEventKind::InstanceReinstated,
            FlightEventKind::PrimarySwitch,
            FlightEventKind::MitigationEscalated,
            FlightEventKind::MitigationRecovered,
            FlightEventKind::FailsafeActivated,
            FlightEventKind::AttackInjected,
            FlightEventKind::AttackCleared,
            FlightEventKind::SensorDegradation,
        ] {
            assert_eq!(FlightEventKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(FlightEventKind::from_code(200), None);
        assert_eq!(
            FlightEventKind::FailsafeActivated.label(),
            "failsafe activated"
        );
    }
}
