//! Which redundant IMU *instances* a fault corrupts.
//!
//! The paper's injection tool corrupts PX4's merged sensor topics, which is
//! equivalent to corrupting **every** redundant instance at once —
//! [`FaultScope::All`] reproduces that assumption. [`FaultScope::Instance`]
//! relaxes it: only one physical instance misbehaves, which is the regime
//! where redundancy voting and primary rotation can actually recover the
//! vehicle.

use std::fmt;

/// The set of redundant IMU instances a fault corrupts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultScope {
    /// Every redundant instance is corrupted identically (the paper's
    /// assumption; also what corrupting the merged stream models).
    #[default]
    All,
    /// Only instance `k` (0-based) is corrupted. If `k` is outside the
    /// vehicle's instance count the fault never touches anything.
    Instance(usize),
}

impl FaultScope {
    /// True if the fault corrupts instance `index` of a bank.
    pub fn affects(self, index: usize) -> bool {
        match self {
            FaultScope::All => true,
            FaultScope::Instance(k) => k == index,
        }
    }

    /// True for [`FaultScope::All`].
    pub fn is_all(self) -> bool {
        matches!(self, FaultScope::All)
    }

    /// A stable small integer id for RNG stream derivation: `All` is 0,
    /// `Instance(k)` is `k + 1`.
    pub fn id(self) -> u64 {
        match self {
            FaultScope::All => 0,
            FaultScope::Instance(k) => k as u64 + 1,
        }
    }
}

impl fmt::Display for FaultScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultScope::All => f.write_str("all"),
            FaultScope::Instance(k) => write!(f, "imu{k}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_affects_every_index() {
        for i in 0..5 {
            assert!(FaultScope::All.affects(i));
        }
        assert!(FaultScope::All.is_all());
    }

    #[test]
    fn instance_affects_only_itself() {
        let s = FaultScope::Instance(1);
        assert!(!s.affects(0));
        assert!(s.affects(1));
        assert!(!s.affects(2));
        assert!(!s.is_all());
    }

    #[test]
    fn ids_are_distinct() {
        assert_ne!(FaultScope::All.id(), FaultScope::Instance(0).id());
        assert_ne!(FaultScope::Instance(0).id(), FaultScope::Instance(1).id());
    }

    #[test]
    fn displays() {
        assert_eq!(FaultScope::All.to_string(), "all");
        assert_eq!(FaultScope::Instance(2).to_string(), "imu2");
        assert_eq!(FaultScope::default(), FaultScope::All);
    }
}
