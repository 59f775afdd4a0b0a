//! The seven injection primitives of the fault model.

use std::fmt;

/// One of the seven faulty-output primitives identified in the paper
/// (Section III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultKind {
    /// A random constant value, drawn once when the fault activates and held
    /// for the whole window. Represents false-data injection, hardware
    /// trojans and OS-level attacks.
    FixedValue,
    /// The sensor reports zeros — "no updates". Represents damaged or
    /// physically isolated sensors.
    Zeros,
    /// The sensor repeats the last value from the moment the injection
    /// started. Represents constant-output / update-lag faults.
    Freeze,
    /// A fresh random in-range value every sample. Represents instability
    /// (radiation, temperature) and acoustic attacks.
    Random,
    /// Negative full-scale saturation (the minimum representable value).
    Min,
    /// Positive full-scale saturation.
    Max,
    /// A bounded random perturbation added to the true value — "not so
    /// drastic". Represents bias errors and gyro/accelerometer drift.
    Noise,
}

impl FaultKind {
    /// All seven primitives, in the order used by the paper's tables.
    pub const ALL: [FaultKind; 7] = [
        FaultKind::FixedValue,
        FaultKind::Zeros,
        FaultKind::Freeze,
        FaultKind::Random,
        FaultKind::Min,
        FaultKind::Max,
        FaultKind::Noise,
    ];

    /// The short label used in the paper's tables ("Fixed Value", "Zeros",
    /// ...).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::FixedValue => "Fixed Value",
            FaultKind::Zeros => "Zeros",
            FaultKind::Freeze => "Freeze",
            FaultKind::Random => "Random",
            FaultKind::Min => "Min",
            FaultKind::Max => "Max",
            FaultKind::Noise => "Noise",
        }
    }

    /// A stable small integer id, used for deterministic RNG stream
    /// derivation.
    pub fn id(self) -> u64 {
        match self {
            FaultKind::FixedValue => 0,
            FaultKind::Zeros => 1,
            FaultKind::Freeze => 2,
            FaultKind::Random => 3,
            FaultKind::Min => 4,
            FaultKind::Max => 5,
            FaultKind::Noise => 6,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_seven_distinct_kinds() {
        let mut ids: Vec<u64> = FaultKind::ALL.iter().map(|k| k.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 7);
    }

    #[test]
    fn labels_match_paper_terms() {
        assert_eq!(FaultKind::FixedValue.to_string(), "Fixed Value");
        assert_eq!(FaultKind::Zeros.to_string(), "Zeros");
        assert_eq!(FaultKind::Freeze.to_string(), "Freeze");
        assert_eq!(FaultKind::Random.to_string(), "Random");
        assert_eq!(FaultKind::Min.to_string(), "Min");
        assert_eq!(FaultKind::Max.to_string(), "Max");
        assert_eq!(FaultKind::Noise.to_string(), "Noise");
    }

    #[test]
    fn ids_are_stable() {
        // These ids feed seed derivation; changing them silently would break
        // reproducibility of recorded campaigns.
        assert_eq!(FaultKind::FixedValue.id(), 0);
        assert_eq!(FaultKind::Noise.id(), 6);
    }
}
