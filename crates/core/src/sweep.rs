//! Parameter sweeps beyond the paper's fixed campaign grid.
//!
//! The paper calls out the 0–2 s injection-duration range as worth
//! exploring further ("80% of the missions failed when the faults were
//! injected only for 2 seconds ... should be further explored"). This
//! module sweeps it on top of the campaign engine.

use imufit_faults::InjectionWindow;
use imufit_missions::Mission;

use crate::campaign::{Campaign, CampaignConfig};
use crate::experiment::ExperimentRecord;
use crate::tables::Table2;

/// One sweep point: the campaign's Table II row at a single swept value.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The swept injection duration, seconds.
    pub value: f64,
    /// Percentage of missions completed at this value.
    pub completed_pct: f64,
    /// Average inner bubble violations.
    pub inner_violations: f64,
    /// Number of experiments behind the point.
    pub n: usize,
}

/// Sweeps the injection *duration* over `durations`, running the full
/// 21-fault grid on the given missions at each value.
pub fn duration_sweep(missions: &[Mission], durations: &[f64], seed: u64) -> Vec<SweepPoint> {
    durations
        .iter()
        .map(|&duration| {
            let config = CampaignConfig {
                seed,
                durations: vec![duration],
                injection_start: InjectionWindow::CAMPAIGN_START,
                missions: missions.to_vec(),
                ..CampaignConfig::default()
            };
            let results = Campaign::new(config).run();
            let faulty: Vec<ExperimentRecord> = results
                .records()
                .iter()
                .filter(|r| r.spec.fault.is_some())
                .cloned()
                .collect();
            let table = Table2::from_records(&faulty);
            let row = &table.rows[0];
            SweepPoint {
                value: duration,
                completed_pct: row.completed_pct,
                inner_violations: row.inner_violations,
                n: row.n,
            }
        })
        .collect()
}

/// Renders sweep points as an aligned table.
pub fn render_sweep(label: &str, points: &[SweepPoint]) -> String {
    let mut s = format!("| {label:>12} | completed | inner violations | n |\n");
    s.push_str("|--------------|-----------|------------------|---|\n");
    for p in points {
        s.push_str(&format!(
            "| {:>10.1} s | {:>8.1}% | {:>16.2} | {} |\n",
            p.value, p.completed_pct, p.inner_violations, p.n
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use imufit_missions::all_missions;

    #[test]
    fn duration_sweep_single_point() {
        // One mission, one duration: a real (but small) sweep.
        let missions: Vec<Mission> = all_missions().into_iter().take(1).collect();
        let points = duration_sweep(&missions, &[2.0], 55);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].n, 21);
        assert!((0.0..=100.0).contains(&points[0].completed_pct));
    }

    #[test]
    fn render_is_aligned() {
        let points = vec![
            SweepPoint {
                value: 0.5,
                completed_pct: 90.0,
                inner_violations: 1.2,
                n: 21,
            },
            SweepPoint {
                value: 30.0,
                completed_pct: 10.0,
                inner_violations: 24.0,
                n: 21,
            },
        ];
        let text = render_sweep("duration", &points);
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains("90.0%"));
    }
}
