//! Aggregation of raw experiment records into the paper's Tables II–IV.

use imufit_faults::FaultTarget;
use imufit_math::stats::mean;

use crate::experiment::ExperimentRecord;

/// One aggregated metrics row (Tables II and III share this shape).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    /// Row label ("Gold Run", "2 seconds", "Acc Zeros", ...).
    pub label: String,
    /// Average inner bubble violations.
    pub inner_violations: f64,
    /// Average outer bubble violations.
    pub outer_violations: f64,
    /// Percentage of missions completed.
    pub completed_pct: f64,
    /// Average flight duration, seconds.
    pub duration_s: f64,
    /// Average EKF distance, kilometers.
    pub distance_km: f64,
    /// Number of experiments aggregated.
    pub n: usize,
}

impl MetricRow {
    fn from_group(label: &str, records: &[&ExperimentRecord]) -> MetricRow {
        let f = |sel: fn(&ExperimentRecord) -> f64| {
            mean(&records.iter().map(|r| sel(r)).collect::<Vec<_>>())
        };
        MetricRow {
            label: label.to_string(),
            inner_violations: f(|r| r.inner_violations as f64),
            outer_violations: f(|r| r.outer_violations as f64),
            completed_pct: 100.0 * records.iter().filter(|r| r.completed()).count() as f64
                / records.len().max(1) as f64,
            duration_s: f(|r| r.flight_duration),
            distance_km: f(|r| r.distance_est / 1000.0),
            n: records.len(),
        }
    }

    fn render_line(&self) -> String {
        format!(
            "| {:<16} | {:>10.2} | {:>10.2} | {:>9.2}% | {:>9.2} | {:>9.2} |",
            self.label,
            self.inner_violations,
            self.outer_violations,
            self.completed_pct,
            self.duration_s,
            self.distance_km
        )
    }
}

fn table_header() -> String {
    let mut s = String::new();
    s.push_str(
        "| Injection        | Inner V(#) | Outer V(#) | Compl.(%)  | Dur.(sec) | Dist.(km) |\n",
    );
    s.push_str(
        "|------------------|------------|------------|------------|-----------|-----------|\n",
    );
    s
}

/// Table II: average summary of all missions for all faults, grouped by
/// injection duration.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// The gold-run reference row.
    pub gold: MetricRow,
    /// One row per injection duration, sorted by completion % descending
    /// (the paper's sort order).
    pub rows: Vec<MetricRow>,
}

impl Table2 {
    /// Aggregates records into Table II. Attack-axis records (beyond-IMU)
    /// are excluded: the paper's tables summarize the Table I fault matrix
    /// only, whatever else the campaign flew.
    pub fn from_records(records: &[ExperimentRecord]) -> Table2 {
        let paper: Vec<&ExperimentRecord> =
            records.iter().filter(|r| r.spec.attack.is_none()).collect();
        let gold_records: Vec<&ExperimentRecord> = paper
            .iter()
            .copied()
            .filter(|r| r.spec.fault.is_none())
            .collect();
        let gold = MetricRow::from_group("Gold Run", &gold_records);

        let mut durations: Vec<f64> = paper
            .iter()
            .filter_map(|r| r.injection_duration())
            .collect();
        durations.sort_by(f64::total_cmp);
        durations.dedup();

        let mut rows: Vec<MetricRow> = durations
            .iter()
            .map(|&d| {
                let group: Vec<&ExperimentRecord> = paper
                    .iter()
                    .copied()
                    .filter(|r| r.injection_duration() == Some(d))
                    .collect();
                MetricRow::from_group(&format!("{d:.0} seconds"), &group)
            })
            .collect();
        rows.sort_by(|a, b| b.completed_pct.total_cmp(&a.completed_pct));
        Table2 { gold, rows }
    }

    /// Renders the table as markdown.
    pub fn render(&self) -> String {
        let mut s = table_header();
        s.push_str(&self.gold.render_line());
        s.push('\n');
        for row in &self.rows {
            s.push_str(&row.render_line());
            s.push('\n');
        }
        s
    }
}

/// Table III: average summary grouped by fault type, component blocks in
/// Acc → Gyro → IMU order, each block sorted by completion % descending.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3 {
    /// The gold-run reference row.
    pub gold: MetricRow,
    /// Fault rows (21 in the full campaign).
    pub rows: Vec<MetricRow>,
}

impl Table3 {
    /// Aggregates records into Table III (attack-axis records excluded;
    /// see [`Table2::from_records`]).
    pub fn from_records(records: &[ExperimentRecord]) -> Table3 {
        let gold_records: Vec<&ExperimentRecord> = records
            .iter()
            .filter(|r| r.spec.fault.is_none() && r.spec.attack.is_none())
            .collect();
        let gold = MetricRow::from_group("Gold Run", &gold_records);

        let mut rows = Vec::new();
        for target in FaultTarget::imu_suite() {
            let mut block: Vec<MetricRow> = imufit_faults::FaultKind::ALL
                .iter()
                .filter_map(|&kind| {
                    let group: Vec<&ExperimentRecord> = records
                        .iter()
                        .filter(|r| {
                            r.spec.fault.map(|f| (f.target, f.kind)) == Some((target, kind))
                        })
                        .collect();
                    if group.is_empty() {
                        None
                    } else {
                        Some(MetricRow::from_group(
                            &format!("{} {}", target.label(), kind.label()),
                            &group,
                        ))
                    }
                })
                .collect();
            block.sort_by(|a, b| b.completed_pct.total_cmp(&a.completed_pct));
            rows.extend(block);
        }
        Table3 { gold, rows }
    }

    /// Looks up a row by its label (e.g. "Gyro Min").
    pub fn row(&self, label: &str) -> Option<&MetricRow> {
        self.rows.iter().find(|r| r.label == label)
    }

    /// Renders the table as markdown.
    pub fn render(&self) -> String {
        let mut s = table_header();
        s.push_str(&self.gold.render_line());
        s.push('\n');
        for row in &self.rows {
            s.push_str(&row.render_line());
            s.push('\n');
        }
        s
    }
}

/// One row of Table IV.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureRow {
    /// Row label.
    pub label: String,
    /// Percentage of missions that failed.
    pub failed_pct: f64,
    /// Of the failures, the percentage that crashed.
    pub crash_pct: f64,
    /// Of the failures, the percentage where failsafe activated.
    pub failsafe_pct: f64,
    /// Number of experiments aggregated.
    pub n: usize,
}

impl FailureRow {
    fn from_group(label: &str, records: &[&ExperimentRecord]) -> FailureRow {
        let failed: Vec<&&ExperimentRecord> = records.iter().filter(|r| !r.completed()).collect();
        let crashes = failed.iter().filter(|r| r.outcome.is_crash()).count();
        let failsafes = failed.iter().filter(|r| r.outcome.is_failsafe()).count();
        let nf = failed.len().max(1);
        FailureRow {
            label: label.to_string(),
            failed_pct: 100.0 * failed.len() as f64 / records.len().max(1) as f64,
            crash_pct: 100.0 * crashes as f64 / nf as f64,
            failsafe_pct: 100.0 * failsafes as f64 / nf as f64,
            n: records.len(),
        }
    }

    fn render_line(&self) -> String {
        format!(
            "| {:<12} | {:>9.2}% | {:>8.1}% | {:>11.1}% |",
            self.label, self.failed_pct, self.crash_pct, self.failsafe_pct
        )
    }
}

/// Table IV: mission failure analysis by injection duration and by targeted
/// component.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4 {
    /// The gold reference row (0% failures).
    pub gold: FailureRow,
    /// One row per injection duration (ascending).
    pub by_duration: Vec<FailureRow>,
    /// One row per component (Acc, Gyro, IMU).
    pub by_component: Vec<FailureRow>,
}

impl Table4 {
    /// Aggregates records into Table IV (attack-axis records excluded;
    /// see [`Table2::from_records`]).
    pub fn from_records(records: &[ExperimentRecord]) -> Table4 {
        let paper: Vec<&ExperimentRecord> =
            records.iter().filter(|r| r.spec.attack.is_none()).collect();
        let gold_records: Vec<&ExperimentRecord> = paper
            .iter()
            .copied()
            .filter(|r| r.spec.fault.is_none())
            .collect();
        let gold = FailureRow::from_group("Gold Run", &gold_records);

        let mut durations: Vec<f64> = paper
            .iter()
            .filter_map(|r| r.injection_duration())
            .collect();
        durations.sort_by(f64::total_cmp);
        durations.dedup();
        let by_duration = durations
            .iter()
            .map(|&d| {
                let group: Vec<&ExperimentRecord> = paper
                    .iter()
                    .copied()
                    .filter(|r| r.injection_duration() == Some(d))
                    .collect();
                FailureRow::from_group(&format!("{d:.0} seconds"), &group)
            })
            .collect();

        let by_component = FaultTarget::imu_suite()
            .iter()
            .map(|&t| {
                let group: Vec<&ExperimentRecord> = paper
                    .iter()
                    .copied()
                    .filter(|r| r.target() == Some(t))
                    .collect();
                FailureRow::from_group(t.label(), &group)
            })
            .collect();

        Table4 {
            gold,
            by_duration,
            by_component,
        }
    }

    /// Looks up a row by label across both sections.
    pub fn row(&self, label: &str) -> Option<&FailureRow> {
        self.by_duration
            .iter()
            .chain(self.by_component.iter())
            .find(|r| r.label == label)
    }

    /// Renders the table as markdown.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("| Injection    | Failed (%) | Crash (%) | Failsafe (%) |\n");
        s.push_str("|--------------|------------|-----------|--------------|\n");
        s.push_str(&self.gold.render_line());
        s.push('\n');
        for row in self.by_duration.iter().chain(self.by_component.iter()) {
            s.push_str(&row.render_line());
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentSpec;
    use imufit_controller::FailsafeReason;
    use imufit_faults::{FaultKind, InjectionWindow};
    use imufit_uav::FlightOutcome;

    fn record(
        fault: Option<(FaultKind, FaultTarget, f64)>,
        outcome: FlightOutcome,
        inner: u32,
    ) -> ExperimentRecord {
        let spec = match fault {
            None => ExperimentSpec::gold(0),
            Some((k, t, d)) => ExperimentSpec::faulty(0, k, t, InjectionWindow::new(90.0, d)),
        };
        ExperimentRecord {
            spec,
            drone_id: 0,
            outcome,
            flight_duration: 100.0,
            distance_est: 1000.0,
            distance_true: 1000.0,
            inner_violations: inner,
            outer_violations: inner / 2,
            ekf_resets: 0,
        }
    }

    fn synthetic_records() -> Vec<ExperimentRecord> {
        vec![
            record(None, FlightOutcome::Completed, 0),
            record(
                Some((FaultKind::Zeros, FaultTarget::Accelerometer, 2.0)),
                FlightOutcome::Completed,
                4,
            ),
            record(
                Some((FaultKind::Zeros, FaultTarget::Accelerometer, 30.0)),
                FlightOutcome::Crashed { time: 95.0 },
                10,
            ),
            record(
                Some((FaultKind::Min, FaultTarget::Gyrometer, 2.0)),
                FlightOutcome::Crashed { time: 92.0 },
                2,
            ),
            record(
                Some((FaultKind::Min, FaultTarget::Gyrometer, 30.0)),
                FlightOutcome::Failsafe {
                    time: 93.0,
                    reason: FailsafeReason::GyroImplausible,
                },
                6,
            ),
        ]
    }

    #[test]
    fn table2_groups_by_duration() {
        let t2 = Table2::from_records(&synthetic_records());
        assert_eq!(t2.gold.completed_pct, 100.0);
        assert_eq!(t2.rows.len(), 2);
        // 2 s row: 1 of 2 completed; 30 s row: 0 of 2.
        let two = t2.rows.iter().find(|r| r.label == "2 seconds").unwrap();
        assert_eq!(two.completed_pct, 50.0);
        assert_eq!(two.n, 2);
        let thirty = t2.rows.iter().find(|r| r.label == "30 seconds").unwrap();
        assert_eq!(thirty.completed_pct, 0.0);
        // Sorted descending by completion.
        assert!(t2.rows[0].completed_pct >= t2.rows[1].completed_pct);
    }

    #[test]
    fn table3_groups_by_fault() {
        let t3 = Table3::from_records(&synthetic_records());
        let acc = t3.row("Acc Zeros").unwrap();
        assert_eq!(acc.n, 2);
        assert_eq!(acc.completed_pct, 50.0);
        assert_eq!(acc.inner_violations, 7.0);
        let gyro = t3.row("Gyro Min").unwrap();
        assert_eq!(gyro.completed_pct, 0.0);
        // Acc block renders before Gyro block.
        let rendered = t3.render();
        let acc_pos = rendered.find("Acc Zeros").unwrap();
        let gyro_pos = rendered.find("Gyro Min").unwrap();
        assert!(acc_pos < gyro_pos);
    }

    #[test]
    fn table4_failure_splits() {
        let t4 = Table4::from_records(&synthetic_records());
        assert_eq!(t4.gold.failed_pct, 0.0);
        let thirty = t4.row("30 seconds").unwrap();
        assert_eq!(thirty.failed_pct, 100.0);
        assert_eq!(thirty.crash_pct, 50.0);
        assert_eq!(thirty.failsafe_pct, 50.0);
        let gyro = t4.row("Gyro").unwrap();
        assert_eq!(gyro.failed_pct, 100.0);
        let acc = t4.row("Acc").unwrap();
        assert_eq!(acc.failed_pct, 50.0);
        assert_eq!(acc.crash_pct, 100.0);
    }

    #[test]
    fn renders_are_aligned_tables() {
        let records = synthetic_records();
        for render in [
            Table2::from_records(&records).render(),
            Table3::from_records(&records).render(),
            Table4::from_records(&records).render(),
        ] {
            let widths: Vec<usize> = render.lines().map(|l| l.chars().count()).collect();
            assert!(
                widths.windows(2).all(|w| w[0] == w[1]),
                "ragged table:\n{render}"
            );
        }
    }

    #[test]
    fn empty_gold_group_is_zeroes() {
        let records = vec![record(
            Some((FaultKind::Max, FaultTarget::Imu, 5.0)),
            FlightOutcome::Timeout,
            1,
        )];
        let t2 = Table2::from_records(&records);
        assert_eq!(t2.gold.n, 0);
        assert_eq!(t2.gold.completed_pct, 0.0);
        // Timeout counts as failsafe-side failure.
        let t4 = Table4::from_records(&records);
        assert_eq!(t4.row("5 seconds").unwrap().failsafe_pct, 100.0);
    }
}
