//! The graceful-degradation recovery cascade.
//!
//! The paper's platform knows exactly two mitigation levels: redundant-
//! sensor switchover during isolation, then failsafe. This module inserts
//! the intermediate rungs its discussion section argues for, ordered from
//! least to most intrusive:
//!
//! 1. [`MitigationLevel::PrimarySwitch`] — the primary instance was
//!    swapped (failsafe isolation rotation, or the voter substituting an
//!    excluded primary).
//! 2. [`MitigationLevel::OutlierExclusion`] — the consensus voter is
//!    actively excluding one or more instances from the merged stream.
//! 3. [`MitigationLevel::DegradedFallback`] — redundancy already acted and
//!    a channel is *still* implausible: the controller flies on the
//!    surviving channel (gyro-only / accel-only attitude).
//! 4. [`MitigationLevel::Failsafe`] — land now; terminal, latched.
//!
//! The cascade is a pure decision/bookkeeping layer: the caller feeds it a
//! [`RedundancyStatus`] each tick and reads back the level plus any
//! [`CascadeTransition`]s to log. Escalation is immediate; de-escalation
//! (the graceful part) requires a sustained dwell at the lower level so a
//! flapping sensor cannot spam transitions.

use crate::failsafe::FailsafeReason;

/// The rungs of the recovery cascade, least to most intrusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MitigationLevel {
    /// Everything healthy.
    Nominal,
    /// The primary IMU instance has been switched.
    PrimarySwitch,
    /// The voter is excluding at least one instance from the merge.
    OutlierExclusion,
    /// Flying on a single surviving channel.
    DegradedFallback,
    /// Failsafe landing; latched.
    Failsafe,
}

impl MitigationLevel {
    /// Every level, least to most intrusive (wire-code order).
    pub const ALL: [MitigationLevel; 5] = [
        MitigationLevel::Nominal,
        MitigationLevel::PrimarySwitch,
        MitigationLevel::OutlierExclusion,
        MitigationLevel::DegradedFallback,
        MitigationLevel::Failsafe,
    ];

    /// Human-readable label for logs and tables.
    pub fn label(self) -> &'static str {
        match self {
            MitigationLevel::Nominal => "nominal",
            MitigationLevel::PrimarySwitch => "primary switch",
            MitigationLevel::OutlierExclusion => "outlier exclusion",
            MitigationLevel::DegradedFallback => "degraded fallback",
            MitigationLevel::Failsafe => "failsafe",
        }
    }

    /// Stable wire code (the black-box trace stores the cascade stage as
    /// one byte).
    pub fn code(self) -> u8 {
        Self::ALL
            .iter()
            .position(|l| *l == self)
            .expect("level is in ALL") as u8
    }

    /// Decodes a wire code.
    pub fn from_code(code: u8) -> Option<Self> {
        Self::ALL.get(code as usize).copied()
    }
}

/// Which attitude source survives in the degraded fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedMode {
    /// Not degraded.
    None,
    /// Accelerometer untrusted: attitude propagated from the gyro alone.
    GyroOnly,
    /// Gyro untrusted: level attitude from the accelerometer; the rate
    /// loop holds its last trim instead of chasing the bad gyro.
    AccelOnly,
}

/// What the redundancy layer (voter + bank) reports this tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedundancyStatus {
    /// Number of IMU instances on the vehicle.
    pub instances: usize,
    /// Instances currently excluded by the voter.
    pub excluded: usize,
    /// The configured primary is currently excluded (the voter substituted
    /// another instance).
    pub primary_excluded: bool,
    /// A primary switch happened this tick (isolation rotation or a manual
    /// switchover).
    pub switched: bool,
}

impl Default for RedundancyStatus {
    /// A single-IMU vehicle with no voter: the paper's effective model.
    fn default() -> Self {
        RedundancyStatus {
            instances: 1,
            excluded: 0,
            primary_excluded: false,
            switched: false,
        }
    }
}

/// One recorded level change. The cause is kept as plain data; the text
/// describing it is built by [`CascadeTransition::detail`] only when a
/// reader asks for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascadeTransition {
    /// Flight time of the transition, s.
    pub time: f64,
    /// The level before.
    pub from: MitigationLevel,
    /// The level after.
    pub to: MitigationLevel,
    /// The surviving channel an escalation to the degraded fallback picked.
    pub degraded: DegradedMode,
    /// Instances the voter was excluding at the transition.
    pub excluded: usize,
    /// A de-escalation after the dwell, not an escalation.
    pub recovered: bool,
}

impl CascadeTransition {
    /// Short cause description, e.g. "voter excluding 1 instance(s)".
    pub fn detail(&self) -> String {
        if self.recovered {
            return "recovered".to_string();
        }
        match self.to {
            MitigationLevel::Failsafe => "failsafe latched".to_string(),
            MitigationLevel::DegradedFallback => match self.degraded {
                DegradedMode::AccelOnly => "gyro untrusted: accel-only attitude".to_string(),
                DegradedMode::GyroOnly => "accel untrusted: gyro-only attitude".to_string(),
                DegradedMode::None => "degraded".to_string(),
            },
            MitigationLevel::OutlierExclusion => {
                format!("voter excluding {} instance(s)", self.excluded)
            }
            MitigationLevel::PrimarySwitch => "primary instance switched".to_string(),
            MitigationLevel::Nominal => String::new(),
        }
    }
}

/// Seconds a lower level must be warranted before the cascade steps down.
const DEESCALATION_DWELL: f64 = 1.0;

/// The cascade state machine. See the module docs for the rung order.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryCascade {
    level: MitigationLevel,
    degraded: DegradedMode,
    /// A switch was seen at some point (sticky while not Nominal, so the
    /// one-tick `switched` pulse keeps the level up until recovery).
    switch_latched: bool,
    below_since: Option<f64>,
    transitions: Vec<CascadeTransition>,
}

impl Default for RecoveryCascade {
    fn default() -> Self {
        Self::new()
    }
}

impl RecoveryCascade {
    /// A cascade at the nominal level.
    pub fn new() -> Self {
        RecoveryCascade {
            level: MitigationLevel::Nominal,
            degraded: DegradedMode::None,
            switch_latched: false,
            below_since: None,
            transitions: Vec::new(),
        }
    }

    /// The current level.
    pub fn level(&self) -> MitigationLevel {
        self.level
    }

    /// The current degraded-channel mode ([`DegradedMode::None`] unless the
    /// cascade sits at [`MitigationLevel::DegradedFallback`]).
    pub fn degraded_mode(&self) -> DegradedMode {
        self.degraded
    }

    /// Drains the recorded transitions (for the black box).
    pub fn take_transitions(&mut self) -> Vec<CascadeTransition> {
        std::mem::take(&mut self.transitions)
    }

    /// Recorded transitions without draining them.
    pub fn transitions(&self) -> &[CascadeTransition] {
        &self.transitions
    }

    /// Advances the cascade one tick.
    ///
    /// * `status` — what the voter/bank report.
    /// * `isolating_reason` — the failure detector's suspicion while it is
    ///   in the isolating phase (None when nominal or already latched).
    /// * `failsafe_active` — the detector latched failsafe.
    pub fn update(
        &mut self,
        t: f64,
        status: &RedundancyStatus,
        isolating_reason: Option<FailsafeReason>,
        failsafe_active: bool,
    ) -> MitigationLevel {
        if status.switched {
            self.switch_latched = true;
        }

        // Degraded fallback engages only when the voter has demonstrably
        // identified a liar (an exclusion) and a channel is *still*
        // implausible — i.e. the cheap rung failed. Isolation rotations do
        // NOT count: they also fire in the paper's all-instances regime,
        // where the fallback must stay out of the way so the baseline is
        // reproduced unchanged. Single-channel suspicion picks which
        // channel survives.
        let redundancy_acted = status.excluded > 0;
        let degraded_target = match isolating_reason {
            Some(FailsafeReason::GyroImplausible) if redundancy_acted => DegradedMode::AccelOnly,
            Some(FailsafeReason::AccelImplausible) if redundancy_acted => DegradedMode::GyroOnly,
            _ => DegradedMode::None,
        };

        let target = if failsafe_active {
            MitigationLevel::Failsafe
        } else if degraded_target != DegradedMode::None {
            MitigationLevel::DegradedFallback
        } else if status.excluded > 0 {
            MitigationLevel::OutlierExclusion
        } else if self.switch_latched || status.primary_excluded {
            MitigationLevel::PrimarySwitch
        } else {
            MitigationLevel::Nominal
        };

        if target > self.level {
            // Escalation is immediate.
            self.record(t, target, degraded_target, status.excluded, false);
            self.below_since = None;
            if target == MitigationLevel::DegradedFallback {
                self.degraded = degraded_target;
            }
        } else if target < self.level {
            // Failsafe is terminal; everything else de-escalates after a
            // dwell so one clean tick cannot flap the level.
            if self.level != MitigationLevel::Failsafe {
                let since = *self.below_since.get_or_insert(t);
                if t - since >= DEESCALATION_DWELL {
                    self.record(t, target, degraded_target, status.excluded, true);
                    self.below_since = None;
                    if target < MitigationLevel::DegradedFallback {
                        self.degraded = DegradedMode::None;
                    }
                    if target == MitigationLevel::Nominal {
                        self.switch_latched = false;
                    }
                }
            }
        } else {
            self.below_since = None;
            if target == MitigationLevel::DegradedFallback && degraded_target != DegradedMode::None
            {
                self.degraded = degraded_target;
            }
        }

        self.level
    }

    fn record(
        &mut self,
        t: f64,
        to: MitigationLevel,
        degraded: DegradedMode,
        excluded: usize,
        recovered: bool,
    ) {
        // Level changes are rare edge events; count them per destination
        // stage so the campaign metrics show how often each rung engaged.
        imufit_obs::counter_labeled("cascade_transitions_total", "stage", to.label()).inc();
        self.transitions.push(CascadeTransition {
            time: t,
            from: self.level,
            to,
            degraded,
            excluded,
            recovered,
        });
        self.level = to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status(instances: usize, excluded: usize) -> RedundancyStatus {
        RedundancyStatus {
            instances,
            excluded,
            primary_excluded: false,
            switched: false,
        }
    }

    #[test]
    fn stays_nominal_when_healthy() {
        let mut c = RecoveryCascade::new();
        for i in 0..100 {
            let t = i as f64 * 0.004;
            assert_eq!(
                c.update(t, &status(3, 0), None, false),
                MitigationLevel::Nominal
            );
        }
        assert!(c.transitions().is_empty());
    }

    #[test]
    fn exclusion_escalates_and_recovers_after_dwell() {
        let mut c = RecoveryCascade::new();
        c.update(0.0, &status(3, 1), None, false);
        assert_eq!(c.level(), MitigationLevel::OutlierExclusion);
        // Recovery: the voter reinstated the instance; the level steps down
        // only after the dwell.
        c.update(0.1, &status(3, 0), None, false);
        assert_eq!(c.level(), MitigationLevel::OutlierExclusion);
        c.update(0.1 + DEESCALATION_DWELL, &status(3, 0), None, false);
        assert_eq!(c.level(), MitigationLevel::Nominal);
        assert_eq!(c.transitions().len(), 2);
        assert_eq!(c.transitions()[1].detail(), "recovered");
    }

    #[test]
    fn switch_pulse_holds_primary_switch_level() {
        let mut c = RecoveryCascade::new();
        let mut s = status(3, 0);
        s.switched = true;
        c.update(0.0, &s, None, false);
        assert_eq!(c.level(), MitigationLevel::PrimarySwitch);
        // The pulse is gone next tick but the level holds (switch latched).
        c.update(0.004, &status(3, 0), None, false);
        assert_eq!(c.level(), MitigationLevel::PrimarySwitch);
    }

    #[test]
    fn degraded_fallback_requires_prior_redundancy_action() {
        let mut c = RecoveryCascade::new();
        // Gyro implausible but redundancy never acted: no fallback (this is
        // the paper's all-instances regime; the cascade must not alter it).
        c.update(
            0.0,
            &status(3, 0),
            Some(FailsafeReason::GyroImplausible),
            false,
        );
        assert_ne!(c.level(), MitigationLevel::DegradedFallback);
        // With an exclusion in place the same suspicion degrades.
        c.update(
            0.1,
            &status(3, 1),
            Some(FailsafeReason::GyroImplausible),
            false,
        );
        assert_eq!(c.level(), MitigationLevel::DegradedFallback);
        assert_eq!(c.degraded_mode(), DegradedMode::AccelOnly);
    }

    #[test]
    fn accel_suspicion_degrades_to_gyro_only() {
        let mut c = RecoveryCascade::new();
        c.update(
            0.0,
            &status(3, 1),
            Some(FailsafeReason::AccelImplausible),
            false,
        );
        assert_eq!(c.level(), MitigationLevel::DegradedFallback);
        assert_eq!(c.degraded_mode(), DegradedMode::GyroOnly);
    }

    #[test]
    fn isolation_rotations_alone_never_degrade() {
        // The paper's all-instances regime: rotations happen, nothing is
        // excluded, the channel stays implausible. The cascade must sit at
        // PrimarySwitch and leave the control law alone.
        let mut c = RecoveryCascade::new();
        let mut s = status(3, 0);
        s.switched = true;
        c.update(0.0, &s, Some(FailsafeReason::GyroImplausible), false);
        for i in 1..500 {
            let t = i as f64 * 0.004;
            c.update(
                t,
                &status(3, 0),
                Some(FailsafeReason::GyroImplausible),
                false,
            );
        }
        assert_eq!(c.level(), MitigationLevel::PrimarySwitch);
        assert_eq!(c.degraded_mode(), DegradedMode::None);
    }

    #[test]
    fn failsafe_is_terminal() {
        let mut c = RecoveryCascade::new();
        c.update(0.0, &status(3, 0), None, true);
        assert_eq!(c.level(), MitigationLevel::Failsafe);
        // Nothing un-latches it, no matter how clean the inputs.
        for i in 1..1000 {
            let t = i as f64 * 0.004;
            c.update(t, &status(3, 0), None, true);
        }
        c.update(10.0, &status(3, 0), None, false);
        c.update(20.0, &status(3, 0), None, false);
        assert_eq!(c.level(), MitigationLevel::Failsafe);
        assert_eq!(c.transitions().len(), 1);
    }

    #[test]
    fn levels_are_ordered() {
        assert!(MitigationLevel::Nominal < MitigationLevel::PrimarySwitch);
        assert!(MitigationLevel::PrimarySwitch < MitigationLevel::OutlierExclusion);
        assert!(MitigationLevel::OutlierExclusion < MitigationLevel::DegradedFallback);
        assert!(MitigationLevel::DegradedFallback < MitigationLevel::Failsafe);
    }

    #[test]
    fn level_codes_round_trip() {
        for level in MitigationLevel::ALL {
            assert_eq!(MitigationLevel::from_code(level.code()), Some(level));
        }
        assert_eq!(MitigationLevel::from_code(5), None);
    }

    #[test]
    fn transitions_drain() {
        let mut c = RecoveryCascade::new();
        c.update(0.0, &status(3, 1), None, false);
        let drained = c.take_transitions();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].from, MitigationLevel::Nominal);
        assert_eq!(drained[0].to, MitigationLevel::OutlierExclusion);
        assert!(c.transitions().is_empty());
    }

    #[test]
    fn flapping_does_not_spam_transitions() {
        let mut c = RecoveryCascade::new();
        // Alternate excluded/clean every tick for 2 s: the level must ratchet
        // up once and stay (de-escalation dwell never completes).
        for i in 0..500 {
            let t = i as f64 * 0.004;
            let s = status(3, usize::from(i % 2 == 0));
            c.update(t, &s, None, false);
        }
        assert_eq!(c.level(), MitigationLevel::OutlierExclusion);
        assert_eq!(c.transitions().len(), 1);
    }
}
