//! Experiment specifications and per-experiment records.

use imufit_faults::{AttackKind, AttackSpec, FaultKind, FaultSpec, FaultTarget, InjectionWindow};
use imufit_math::rng::derive_seed;
use imufit_uav::FlightOutcome;

/// Seed-derivation namespace for attack cells: distinct from gold runs
/// (`u64::MAX`) and from fault cells (small [`FaultKind`] ids), so the
/// attack axis never collides with — or perturbs — the paper matrix.
const ATTACK_SEED_TAG: u64 = u64::MAX - 1;

/// One cell of the experiment matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentSpec {
    /// Index into the mission list.
    pub mission_index: usize,
    /// The fault to inject, or `None` for a gold run.
    pub fault: Option<FaultSpec>,
    /// The sensor attack to inject (the beyond-IMU axis), or `None`.
    pub attack: Option<AttackSpec>,
}

impl ExperimentSpec {
    /// A gold (fault-free) run of a mission.
    pub fn gold(mission_index: usize) -> Self {
        ExperimentSpec {
            mission_index,
            fault: None,
            attack: None,
        }
    }

    /// A faulty run.
    pub fn faulty(
        mission_index: usize,
        kind: FaultKind,
        target: FaultTarget,
        window: InjectionWindow,
    ) -> Self {
        ExperimentSpec {
            mission_index,
            fault: Some(FaultSpec::new(kind, target, window)),
            attack: None,
        }
    }

    /// A sensor-attack run.
    pub fn attacked(mission_index: usize, attack: AttackSpec) -> Self {
        ExperimentSpec {
            mission_index,
            fault: None,
            attack: Some(attack),
        }
    }

    /// The label the paper's tables use ("Gold Run", "Acc Zeros", ...);
    /// attack cells use the catalog label ("GPS gps-spoof-ramp").
    pub fn label(&self) -> String {
        match (&self.fault, &self.attack) {
            (Some(f), _) => f.label(),
            (None, Some(a)) => a.label(),
            (None, None) => "Gold Run".to_string(),
        }
    }

    /// Derives a deterministic per-experiment seed from a campaign master
    /// seed: every experiment has its own independent random stream, so the
    /// campaign is reproducible under any execution order. Gold and fault
    /// cells derive exactly as they always have; attack cells live in their
    /// own namespace (`ATTACK_SEED_TAG`).
    pub fn derive_seed(&self, master: u64) -> u64 {
        match (&self.fault, &self.attack) {
            (Some(f), _) => derive_seed(
                master,
                &[
                    self.mission_index as u64,
                    f.kind.id(),
                    f.target.id(),
                    // Durations are campaign constants; millisecond
                    // quantization keeps the id integral and stable.
                    (f.window.duration * 1000.0) as u64,
                ],
            ),
            (None, Some(a)) => derive_seed(
                master,
                &[
                    self.mission_index as u64,
                    ATTACK_SEED_TAG,
                    a.kind.id(),
                    (a.window.duration * 1000.0) as u64,
                ],
            ),
            (None, None) => derive_seed(master, &[self.mission_index as u64, u64::MAX, 0, 0]),
        }
    }
}

/// Everything recorded about one executed experiment — one row of raw data
/// behind the paper's tables.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// The experiment that was run.
    pub spec: ExperimentSpec,
    /// Mission/drone id.
    pub drone_id: u32,
    /// How the flight ended.
    pub outcome: FlightOutcome,
    /// Flight duration, seconds.
    pub flight_duration: f64,
    /// EKF-estimated distance, meters.
    pub distance_est: f64,
    /// True distance, meters.
    pub distance_true: f64,
    /// Inner bubble violations.
    pub inner_violations: u32,
    /// Outer bubble violations.
    pub outer_violations: u32,
    /// EKF kinematic resets.
    pub ekf_resets: u32,
}

impl ExperimentRecord {
    /// True if the mission completed (the paper's success criterion).
    pub fn completed(&self) -> bool {
        self.outcome.is_completed()
    }

    /// The injection duration (fault or attack), or `None` for gold runs.
    pub fn injection_duration(&self) -> Option<f64> {
        self.spec
            .fault
            .map(|f| f.window.duration)
            .or(self.spec.attack.map(|a| a.window.duration))
    }

    /// The targeted component, or `None` for gold runs.
    pub fn target(&self) -> Option<imufit_faults::FaultTarget> {
        self.spec
            .fault
            .map(|f| f.target)
            .or(self.spec.attack.map(|a| a.target()))
    }

    /// One CSV row (see [`csv_header`]). Gold and fault rows format exactly
    /// as they always have; attack rows put the attacked sensor in the
    /// target column and the catalog label in the fault column.
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{:.2},{:.4},{:.4},{},{},{}",
            self.drone_id,
            self.target()
                .map(|t| t.label().to_string())
                .unwrap_or_else(|| "-".into()),
            self.spec
                .fault
                .map(|f| f.kind.label().to_string())
                .or(self.spec.attack.map(|a| a.kind.label().to_string()))
                .unwrap_or_else(|| "gold".into()),
            self.injection_duration()
                .map(|d| format!("{d}"))
                .unwrap_or_else(|| "-".into()),
            self.outcome.label(),
            self.flight_duration,
            self.distance_est / 1000.0,
            self.distance_true / 1000.0,
            self.inner_violations,
            self.outer_violations,
            self.ekf_resets,
        )
    }
}

/// CSV header matching [`ExperimentRecord::to_csv_row`].
pub fn csv_header() -> &'static str {
    "drone,target,fault,duration_s,outcome,flight_s,dist_est_km,dist_true_km,inner_viol,outer_viol,ekf_resets"
}

/// Builds the full experiment matrix: gold runs first, then every
/// (kind, target, duration, mission) combination over the paper's IMU
/// suite. The beyond-IMU targets ride the attack axis
/// ([`attack_matrix`]), keeping this grid — and the 850-case paper
/// campaign it produces — untouched by the extended fault surface.
pub fn experiment_matrix(
    mission_count: usize,
    durations: &[f64],
    injection_start: f64,
) -> Vec<ExperimentSpec> {
    let mut specs = Vec::with_capacity(mission_count * (1 + 21 * durations.len()));
    for m in 0..mission_count {
        specs.push(ExperimentSpec::gold(m));
    }
    for &duration in durations {
        let window = InjectionWindow::new(injection_start, duration);
        for target in FaultTarget::imu_suite() {
            for kind in FaultKind::ALL {
                for m in 0..mission_count {
                    specs.push(ExperimentSpec::faulty(m, kind, target, window));
                }
            }
        }
    }
    specs
}

/// Builds the attack axis: every (kind, duration, mission) combination of
/// the selected catalog entries. Empty `kinds` (the default everywhere)
/// yields an empty axis, so paper-default campaigns are unchanged cell for
/// cell.
pub fn attack_matrix(
    mission_count: usize,
    kinds: &[AttackKind],
    durations: &[f64],
    injection_start: f64,
    intensity_scale: f64,
) -> Vec<ExperimentSpec> {
    let mut specs = Vec::with_capacity(mission_count * kinds.len() * durations.len());
    for &duration in durations {
        let window = InjectionWindow::new(injection_start, duration);
        for &kind in kinds {
            let attack = AttackSpec::new(kind, window)
                .with_intensity(kind.default_intensity() * intensity_scale);
            for m in 0..mission_count {
                specs.push(ExperimentSpec::attacked(m, attack));
            }
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_matrix_is_850_cases() {
        let specs = experiment_matrix(10, &[2.0, 5.0, 10.0, 30.0], 90.0);
        assert_eq!(specs.len(), 850);
        let gold = specs.iter().filter(|s| s.fault.is_none()).count();
        assert_eq!(gold, 10);
        // 21 experiments per duration per mission.
        let thirty: Vec<_> = specs
            .iter()
            .filter(|s| s.fault.map(|f| f.window.duration) == Some(30.0))
            .collect();
        assert_eq!(thirty.len(), 210);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(ExperimentSpec::gold(0).label(), "Gold Run");
        let s = ExperimentSpec::faulty(
            3,
            FaultKind::Freeze,
            FaultTarget::Imu,
            InjectionWindow::new(90.0, 5.0),
        );
        assert_eq!(s.label(), "IMU Freeze");
    }

    #[test]
    fn seeds_are_unique_across_matrix() {
        let specs = experiment_matrix(10, &[2.0, 5.0, 10.0, 30.0], 90.0);
        let mut seeds: Vec<u64> = specs.iter().map(|s| s.derive_seed(42)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 850, "seed collision in the matrix");
    }

    #[test]
    fn attack_matrix_shape_and_labels() {
        let specs = attack_matrix(3, &AttackKind::all(), &[10.0, 30.0], 90.0, 1.0);
        assert_eq!(specs.len(), 3 * 4 * 2);
        assert!(specs
            .iter()
            .all(|s| s.fault.is_none() && s.attack.is_some()));
        let spoof = specs
            .iter()
            .find(|s| s.attack.unwrap().kind == AttackKind::GpsSpoofRamp)
            .unwrap();
        assert_eq!(spoof.label(), "GPS gps-spoof-ramp");
        // Empty selection = empty axis: the paper-default campaign shape.
        assert!(attack_matrix(10, &[], &[30.0], 90.0, 1.0).is_empty());
    }

    #[test]
    fn attack_seeds_never_collide_with_the_paper_matrix() {
        let mut specs = experiment_matrix(10, &[2.0, 5.0, 10.0, 30.0], 90.0);
        specs.extend(attack_matrix(
            10,
            &AttackKind::all(),
            &[2.0, 5.0, 10.0, 30.0],
            90.0,
            1.0,
        ));
        let mut seeds: Vec<u64> = specs.iter().map(|s| s.derive_seed(2024)).collect();
        let total = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), total, "attack axis collided with a fault cell");
    }

    #[test]
    fn attack_row_csv_shape() {
        let spec = ExperimentSpec::attacked(
            0,
            AttackSpec::new(AttackKind::BaroDrift, InjectionWindow::new(90.0, 30.0)),
        );
        let rec = ExperimentRecord {
            spec,
            drone_id: 3,
            outcome: FlightOutcome::Completed,
            flight_duration: 200.0,
            distance_est: 1000.0,
            distance_true: 990.0,
            inner_violations: 1,
            outer_violations: 0,
            ekf_resets: 0,
        };
        let row = rec.to_csv_row();
        assert_eq!(row.split(',').count(), csv_header().split(',').count());
        assert!(row.contains("Baro"));
        assert!(row.contains("baro-drift"));
        assert!(row.contains(",30,"));
    }

    #[test]
    fn seeds_are_stable() {
        let s = ExperimentSpec::gold(5);
        assert_eq!(s.derive_seed(7), s.derive_seed(7));
        assert_ne!(s.derive_seed(7), s.derive_seed(8));
    }

    #[test]
    fn csv_row_shape() {
        let rec = ExperimentRecord {
            spec: ExperimentSpec::gold(0),
            drone_id: 0,
            outcome: FlightOutcome::Completed,
            flight_duration: 100.0,
            distance_est: 1234.0,
            distance_true: 1200.0,
            inner_violations: 0,
            outer_violations: 0,
            ekf_resets: 0,
        };
        let row = rec.to_csv_row();
        assert_eq!(row.split(',').count(), csv_header().split(',').count());
        assert!(row.contains("gold"));
    }
}
