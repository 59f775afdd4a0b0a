//! Which component a fault corrupts.
//!
//! The paper's campaign targets the inertial sensors only; the extended
//! fault surface adds the aiding sensors (GPS, barometer, magnetometer)
//! and a transient estimator-state glitch target, so false-data-injection
//! attacks on any sensor stream are expressible.

use std::fmt;

/// The component targeted by a fault.
///
/// The first three are the paper's IMU suite (every Table I primitive runs
/// against each); the rest are the beyond-IMU fault surface driven by the
/// attack catalog ([`crate::attack::AttackKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultTarget {
    /// Only the accelerometer output is corrupted.
    Accelerometer,
    /// Only the gyroscope output is corrupted.
    Gyrometer,
    /// Both outputs are corrupted simultaneously.
    Imu,
    /// The GNSS receiver's position/velocity fixes are corrupted.
    Gps,
    /// The barometric altitude stream is corrupted.
    Barometer,
    /// The magnetometer's body-frame field vector is corrupted.
    Magnetometer,
    /// The navigation filter's state itself is transiently corrupted (a
    /// single-event upset, not a sensor-stream fault).
    EstimatorState,
}

impl FaultTarget {
    /// Every fault target, in stable id order. Iterate this (never a
    /// hand-written subset) wherever all targets must be covered — codecs,
    /// label parsing, exhaustiveness tests — so adding a target cannot
    /// silently miss a call site.
    pub fn all() -> [FaultTarget; 7] {
        [
            FaultTarget::Accelerometer,
            FaultTarget::Gyrometer,
            FaultTarget::Imu,
            FaultTarget::Gps,
            FaultTarget::Barometer,
            FaultTarget::Magnetometer,
            FaultTarget::EstimatorState,
        ]
    }

    /// The paper's three IMU targets, in the paper's order: the grid the
    /// 850-run campaign (and its tables) iterates. Deliberately *not* the
    /// full target list — the beyond-IMU targets ride the attack axis, not
    /// the Table I fault matrix.
    pub fn imu_suite() -> [FaultTarget; 3] {
        [
            FaultTarget::Accelerometer,
            FaultTarget::Gyrometer,
            FaultTarget::Imu,
        ]
    }

    /// True for the targets the Table I injector (IMU bank corruption)
    /// handles.
    #[cfg(test)]
    pub(crate) fn is_imu_component(self) -> bool {
        match self {
            FaultTarget::Accelerometer | FaultTarget::Gyrometer | FaultTarget::Imu => true,
            FaultTarget::Gps
            | FaultTarget::Barometer
            | FaultTarget::Magnetometer
            | FaultTarget::EstimatorState => false,
        }
    }

    /// True if this target corrupts the accelerometer stream.
    pub fn affects_accel(self) -> bool {
        match self {
            FaultTarget::Accelerometer | FaultTarget::Imu => true,
            FaultTarget::Gyrometer
            | FaultTarget::Gps
            | FaultTarget::Barometer
            | FaultTarget::Magnetometer
            | FaultTarget::EstimatorState => false,
        }
    }

    /// True if this target corrupts the gyroscope stream.
    pub fn affects_gyro(self) -> bool {
        match self {
            FaultTarget::Gyrometer | FaultTarget::Imu => true,
            FaultTarget::Accelerometer
            | FaultTarget::Gps
            | FaultTarget::Barometer
            | FaultTarget::Magnetometer
            | FaultTarget::EstimatorState => false,
        }
    }

    /// The short label used in the paper's tables ("Acc", "Gyro", "IMU")
    /// and the attack axis ("GPS", "Baro", "Mag", "EstState").
    pub fn label(self) -> &'static str {
        match self {
            FaultTarget::Accelerometer => "Acc",
            FaultTarget::Gyrometer => "Gyro",
            FaultTarget::Imu => "IMU",
            FaultTarget::Gps => "GPS",
            FaultTarget::Barometer => "Baro",
            FaultTarget::Magnetometer => "Mag",
            FaultTarget::EstimatorState => "EstState",
        }
    }

    /// A stable small integer id for RNG stream derivation and wire codecs.
    /// Ids 0-2 are frozen (they are baked into every derived experiment
    /// seed of the reproduction); new targets append.
    pub fn id(self) -> u64 {
        match self {
            FaultTarget::Accelerometer => 0,
            FaultTarget::Gyrometer => 1,
            FaultTarget::Imu => 2,
            FaultTarget::Gps => 3,
            FaultTarget::Barometer => 4,
            FaultTarget::Magnetometer => 5,
            FaultTarget::EstimatorState => 6,
        }
    }
}

impl fmt::Display for FaultTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_coverage() {
        assert!(FaultTarget::Accelerometer.affects_accel());
        assert!(!FaultTarget::Accelerometer.affects_gyro());
        assert!(!FaultTarget::Gyrometer.affects_accel());
        assert!(FaultTarget::Gyrometer.affects_gyro());
        assert!(FaultTarget::Imu.affects_accel());
        assert!(FaultTarget::Imu.affects_gyro());
        // Beyond-IMU targets never touch the inertial streams.
        for t in [
            FaultTarget::Gps,
            FaultTarget::Barometer,
            FaultTarget::Magnetometer,
            FaultTarget::EstimatorState,
        ] {
            assert!(!t.affects_accel() && !t.affects_gyro(), "{t}");
        }
    }

    #[test]
    fn labels() {
        assert_eq!(FaultTarget::Accelerometer.to_string(), "Acc");
        assert_eq!(FaultTarget::Gyrometer.to_string(), "Gyro");
        assert_eq!(FaultTarget::Imu.to_string(), "IMU");
        assert_eq!(FaultTarget::Gps.to_string(), "GPS");
        assert_eq!(FaultTarget::Barometer.to_string(), "Baro");
        assert_eq!(FaultTarget::Magnetometer.to_string(), "Mag");
        assert_eq!(FaultTarget::EstimatorState.to_string(), "EstState");
    }

    #[test]
    fn ids_and_labels_are_distinct() {
        let mut ids: Vec<u64> = FaultTarget::all().iter().map(|t| t.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), FaultTarget::all().len());
        let mut labels: Vec<&str> = FaultTarget::all().iter().map(|t| t.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), FaultTarget::all().len());
    }

    /// The frozen contract behind every derived experiment seed and the
    /// fleet wire format: the paper trio keeps ids 0..=2, appended targets
    /// never reuse them.
    #[test]
    fn paper_trio_ids_are_frozen() {
        assert_eq!(FaultTarget::Accelerometer.id(), 0);
        assert_eq!(FaultTarget::Gyrometer.id(), 1);
        assert_eq!(FaultTarget::Imu.id(), 2);
        assert_eq!(FaultTarget::imu_suite().map(|t| t.id()), [0, 1, 2]);
    }

    /// `imu_suite` is exactly the `is_imu_component` subset of `all`, in
    /// order — the guard that keeps the two views from drifting apart.
    #[test]
    fn imu_suite_is_the_imu_component_subset() {
        let filtered: Vec<FaultTarget> = FaultTarget::all()
            .into_iter()
            .filter(|t| t.is_imu_component())
            .collect();
        assert_eq!(filtered, FaultTarget::imu_suite().to_vec());
    }
}
