//! The redundancy axis: the fault matrix rerun across IMU instance counts
//! and fault scopes.
//!
//! The paper's threat model (§IV-C) assumes an injected fault corrupts
//! **every** redundant IMU instance — the merged topic is corrupted no
//! matter how many sensors the vehicle carries. This module quantifies what
//! that assumption costs: the faulty subset of the campaign matrix is rerun
//! at instance counts {1, 2, 3} crossed with two fault scopes,
//!
//! * **all instances** — the paper's regime ([`imufit_faults::FaultScope::All`]),
//! * **single instance** — the same fault confined to hardware instance 0,
//!   leaving the consensus voter a majority to out-vote it.
//!
//! Each (count, scope) cell reports missions completed and bubble
//! violations. Scoped variants share the base experiment's derived seed, so
//! every cell is a paired comparison under identical environments, and the
//! (3 instances, all-instances) cell reproduces the main campaign's faulty
//! records exactly.

use imufit_faults::FaultScope;
use imufit_math::stats::mean;

use crate::campaign::{Campaign, CampaignConfig, CampaignResults};
use crate::experiment::ExperimentSpec;

/// The instance counts the sweep visits by default (the paper's platform
/// flies 3).
pub const INSTANCE_COUNTS: [usize; 3] = [1, 2, 3];

/// One cell of the redundancy grid.
#[derive(Debug, Clone, PartialEq)]
pub struct RedundancyCell {
    /// Redundant IMU instances flown.
    pub instances: usize,
    /// True when the fault was confined to instance 0; false for the
    /// paper's all-instances regime.
    pub single_instance: bool,
    /// Missions completed in this cell.
    pub completed: usize,
    /// Experiments in this cell.
    pub n: usize,
    /// Average inner bubble violations.
    pub inner_violations: f64,
    /// Average outer bubble violations.
    pub outer_violations: f64,
}

impl RedundancyCell {
    /// Completion percentage.
    pub fn completed_pct(&self) -> f64 {
        100.0 * self.completed as f64 / self.n.max(1) as f64
    }

    /// The scope label used in tables.
    pub fn scope_label(&self) -> &'static str {
        if self.single_instance {
            "single instance"
        } else {
            "all instances"
        }
    }
}

/// The finished redundancy sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RedundancySweep {
    /// One cell per (instance count, scope), in sweep order.
    pub cells: Vec<RedundancyCell>,
}

impl RedundancySweep {
    /// Looks up a cell.
    pub fn cell(&self, instances: usize, single_instance: bool) -> Option<&RedundancyCell> {
        self.cells
            .iter()
            .find(|c| c.instances == instances && c.single_instance == single_instance)
    }

    /// Renders the grid as an aligned markdown table.
    pub fn render(&self) -> String {
        let mut s =
            String::from("| IMUs | Fault scope     | Compl.(%)  | Inner V(#) | Outer V(#) |\n");
        s.push_str("|------|-----------------|------------|------------|------------|\n");
        for c in &self.cells {
            s.push_str(&format!(
                "| {:>4} | {:<15} | {:>9.2}% | {:>10.2} | {:>10.2} |\n",
                c.instances,
                c.scope_label(),
                c.completed_pct(),
                c.inner_violations,
                c.outer_violations,
            ));
        }
        s
    }
}

/// The faulty subset of the campaign matrix with every fault re-scoped.
fn scoped_specs(config: &CampaignConfig, scope: FaultScope) -> Vec<ExperimentSpec> {
    config
        .matrix()
        .into_iter()
        .filter(|s| s.fault.is_some())
        .map(|mut s| {
            s.fault = s.fault.map(|f| f.with_scope(scope));
            s
        })
        .collect()
}

fn cell_from_results(
    instances: usize,
    single_instance: bool,
    results: &CampaignResults,
) -> RedundancyCell {
    let records = results.records();
    RedundancyCell {
        instances,
        single_instance,
        completed: records.iter().filter(|r| r.completed()).count(),
        n: records.len(),
        inner_violations: mean(
            &records
                .iter()
                .map(|r| r.inner_violations as f64)
                .collect::<Vec<_>>(),
        ),
        outer_violations: mean(
            &records
                .iter()
                .map(|r| r.outer_violations as f64)
                .collect::<Vec<_>>(),
        ),
    }
}

/// Runs the faulty matrix of `base` at every instance count in `counts`
/// crossed with both fault scopes. `progress` (if given) receives
/// `(done, total)` across the whole sweep.
///
/// The experiment seeds ignore both axes, so cells differ **only** in
/// instance count and scope: with the base redundancy (3) and the
/// all-instances scope the records match the main campaign's faulty subset
/// exactly.
pub fn redundancy_sweep(
    base: &CampaignConfig,
    counts: &[usize],
    progress: Option<&(dyn Fn(usize, usize) + Sync)>,
) -> RedundancySweep {
    let per_cell = scoped_specs(base, FaultScope::All).len();
    let total = per_cell * counts.len() * 2;
    let mut done_before = 0;
    let mut cells = Vec::with_capacity(counts.len() * 2);
    for &instances in counts {
        for single_instance in [false, true] {
            let scope = if single_instance {
                FaultScope::Instance(0)
            } else {
                FaultScope::All
            };
            let mut config = base.clone();
            config.imu_redundancy = instances.max(1);
            let specs = scoped_specs(&config, scope);
            let offset = done_before;
            let cell_progress =
                progress.map(|cb| move |done: usize, _cell_total: usize| cb(offset + done, total));
            let campaign = Campaign::new(config);
            let results = match &cell_progress {
                Some(cb) => campaign.run_specs_with_progress(&specs, Some(cb)),
                None => campaign.run_specs_with_progress(&specs, None),
            };
            cells.push(cell_from_results(instances, single_instance, &results));
            done_before += per_cell;
        }
    }
    RedundancySweep { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One mission, one duration, counts {1, 3}: 4 cells x 21 faults. Runs
    /// the real simulator — expensive, but this is the axis's acceptance
    /// test: redundancy only helps when the fault spares a majority.
    #[test]
    fn redundancy_helps_only_single_instance_faults() {
        let base = CampaignConfig::scaled(1, vec![10.0], 99);
        let sweep = redundancy_sweep(&base, &[1, 3], None);
        assert_eq!(sweep.cells.len(), 4);
        for c in &sweep.cells {
            assert_eq!(c.n, 21);
        }

        let solo_all = sweep.cell(1, false).expect("cell (1, all)");
        let solo_single = sweep.cell(1, true).expect("cell (1, single)");
        let triple_all = sweep.cell(3, false).expect("cell (3, all)");
        let triple_single = sweep.cell(3, true).expect("cell (3, single)");

        // With one IMU the scopes are the same experiment: identical cells.
        assert_eq!(solo_all.completed, solo_single.completed);

        // The paper's regime: more instances buy nothing when every one is
        // corrupted.
        assert!(triple_all.completed <= solo_all.completed + 1);

        // The voter's regime: a majority out-votes the liar and most
        // otherwise-fatal faults become survivable.
        assert!(
            triple_single.completed > triple_all.completed,
            "single-instance faults should complete more missions \
             ({} vs {})",
            triple_single.completed,
            triple_all.completed
        );
    }

    #[test]
    fn all_scope_cell_matches_main_campaign() {
        // Seeds ignore the sweep axes, so the (base redundancy, all) cell
        // must reproduce the campaign's faulty records bit-for-bit.
        let base = CampaignConfig::scaled(1, vec![2.0], 77);
        let campaign = Campaign::new(base.clone()).run();
        let faulty: Vec<_> = campaign
            .records()
            .iter()
            .filter(|r| r.spec.fault.is_some())
            .collect();
        let sweep = redundancy_sweep(&base, &[base.imu_redundancy], None);
        let cell = sweep.cell(base.imu_redundancy, false).expect("all cell");
        assert_eq!(cell.n, faulty.len());
        assert_eq!(
            cell.completed,
            faulty.iter().filter(|r| r.completed()).count()
        );
        assert_eq!(
            cell.inner_violations,
            mean(
                &faulty
                    .iter()
                    .map(|r| r.inner_violations as f64)
                    .collect::<Vec<_>>()
            )
        );
    }

    #[test]
    fn render_is_aligned() {
        let sweep = RedundancySweep {
            cells: vec![
                RedundancyCell {
                    instances: 1,
                    single_instance: false,
                    completed: 3,
                    n: 21,
                    inner_violations: 10.0,
                    outer_violations: 2.5,
                },
                RedundancyCell {
                    instances: 3,
                    single_instance: true,
                    completed: 19,
                    n: 21,
                    inner_violations: 0.4,
                    outer_violations: 0.0,
                },
            ],
        };
        let text = sweep.render();
        let widths: Vec<usize> = text.lines().map(|l| l.chars().count()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "ragged:\n{text}");
        assert!(text.contains("single instance"));
        assert!(sweep.cell(2, false).is_none());
    }
}
