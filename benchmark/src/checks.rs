//! Output checks: every workload's CSV is held against the campaign matrix,
//! against the other workloads, and against flights re-run in-process.

use imufit::core::{Campaign, CampaignConfig, ExperimentSpec};
use imufit::math::rng::Pcg;

/// The committed golden rows: mission 0 of the quick campaign at seed 2024.
const GOLDEN: &str = include_str!("../../tests/golden/campaign_small.csv");

/// Pass/fail bookkeeping for one workload: operations attempted, failures,
/// and what went wrong.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted: CSV rows, requests and checks.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
}

impl Tally {
    /// Records one check.
    pub fn check(&mut self, name: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(format!("{name}: {e}"));
        }
    }

    /// Records a failure that has already been counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }

    /// Adds `n` attempted operations of which `failed` failed.
    pub fn count(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }
}

fn rows(csv: &str) -> impl Iterator<Item = &str> {
    csv.lines().skip(1)
}

/// The identifying columns of a row: drone, target, fault, duration.
fn cell_of(row: &str) -> String {
    row.splitn(5, ',').take(4).collect::<Vec<_>>().join(",")
}

/// Checks that `csv` holds exactly the cells of `config`'s matrix, in
/// matrix order, and returns how many rows are `aborted`.
pub fn matrix_rows(csv: &str, config: &CampaignConfig) -> Result<u64, String> {
    let header = imufit::core::experiment::csv_header();
    if csv.lines().next() != Some(header) {
        return Err("missing or wrong CSV header".to_string());
    }
    let matrix = config.matrix();
    let got: Vec<&str> = rows(csv).collect();
    if got.len() != matrix.len() {
        return Err(format!("{} rows, expected {}", got.len(), matrix.len()));
    }
    for (row, spec) in got.iter().zip(&matrix) {
        let expected = cell_of(&Campaign::aborted_record_for(config, *spec).to_csv_row());
        if cell_of(row) != expected {
            return Err(format!("row '{row}' where cell '{expected}' belongs"));
        }
    }
    Ok(got
        .iter()
        .filter(|r| r.split(',').nth(4) == Some("aborted"))
        .count() as u64)
}

/// Checks that every row of `part` appears verbatim in `whole`.
pub fn rows_within(part: &str, whole: &str) -> Result<(), String> {
    let whole: std::collections::HashSet<&str> = rows(whole).collect();
    match rows(part).find(|r| !whole.contains(r)) {
        Some(row) => Err(format!("row '{row}' is missing")),
        None => Ok(()),
    }
}

/// Checks two CSVs for byte identity.
pub fn identical(a: &str, b: &str) -> Result<(), String> {
    if a == b {
        return Ok(());
    }
    let at = a
        .lines()
        .zip(b.lines())
        .position(|(x, y)| x != y)
        .unwrap_or(a.lines().count().min(b.lines().count()));
    Err(format!("CSVs differ from line {}", at + 1))
}

fn gold_rows(csv: &str) -> Vec<&str> {
    rows(csv)
        .filter(|r| r.split(',').nth(2) == Some("gold"))
        .collect()
}

/// Checks that two campaigns flew identical gold runs.
pub fn same_gold_rows(a: &str, b: &str) -> Result<(), String> {
    let (a, b) = (gold_rows(a), gold_rows(b));
    if a.is_empty() || a != b {
        return Err(format!("gold rows differ: {a:?} vs {b:?}"));
    }
    Ok(())
}

/// At seed 2024 the mission-0 rows of the quick campaign are the golden
/// file's rows, as a set; a smoke campaign's rows are a subset of them.
pub fn golden_rows(quick_csv: &str, smoke: bool) -> Result<(), String> {
    let drone = imufit::missions::all_missions()[0].drone.id.to_string();
    let mission0: std::collections::BTreeSet<&str> = rows(quick_csv)
        .filter(|r| r.split(',').next() == Some(drone.as_str()))
        .collect();
    let golden: std::collections::BTreeSet<&str> = rows(GOLDEN).collect();
    let ok = if smoke {
        mission0.is_subset(&golden)
    } else {
        mission0 == golden
    };
    match ok {
        true => Ok(()),
        false => Err(format!(
            "mission-0 rows differ from the golden file: {:?}",
            mission0.symmetric_difference(&golden).collect::<Vec<_>>()
        )),
    }
}

/// Checks that every row of a campaign flown at seed 2024 on mission 0
/// is the golden file's row for its cell.
pub fn golden_within(csv: &str) -> Result<(), String> {
    rows_within(csv, GOLDEN)
}

/// Re-flies `picks` cells of `csv` (row indices into `config`'s matrix)
/// in-process under `reference` and checks each row matches. `reference`
/// may be a different campaign holding the same cells: a row depends only
/// on its cell, the seed and the flight settings.
pub fn reflown(
    csv: &str,
    config: &CampaignConfig,
    reference: &CampaignConfig,
    picks: &[usize],
) -> Result<(), String> {
    let matrix = config.matrix();
    let lines: Vec<&str> = rows(csv).collect();
    for &i in picks {
        let spec: ExperimentSpec = matrix[i];
        let row = Campaign::run_experiment_isolated(reference, spec).to_csv_row();
        if lines.get(i) != Some(&row.as_str()) {
            return Err(format!(
                "row {} is '{}', an in-process flight gives '{row}'",
                i + 1,
                lines.get(i).unwrap_or(&"")
            ));
        }
    }
    Ok(())
}

/// `k` distinct seed-chosen row indices below `n`.
pub fn picks(seed: u64, tag: u64, n: usize, k: usize) -> Vec<usize> {
    let mut rng = Pcg::seed_from(seed).derive(&[tag]);
    let mut out = Vec::new();
    while out.len() < k.min(n) {
        let i = ((rng.uniform() * n as f64) as usize).min(n - 1);
        if !out.contains(&i) {
            out.push(i);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_set_checks() {
        let a = "h\nr1\nr2\n";
        let b = "h\nr2\nr3\nr1\n";
        assert!(rows_within(a, b).is_ok());
        assert!(rows_within(b, a).is_err());
        assert!(identical(a, a).is_ok());
        assert!(identical(a, b).is_err());
        assert!(golden_rows(GOLDEN, false).is_ok());
        assert!(golden_rows(GOLDEN, true).is_ok());
        assert!(golden_within(GOLDEN).is_ok());
        assert!(golden_within("h\n0,-,gold,-,completed,1\n").is_err());
        let gold = "h\n0,-,gold,-,completed,1\n0,Acc,Zeros,2,crash,1\n";
        assert!(same_gold_rows(gold, gold).is_ok());
        assert!(same_gold_rows(gold, "h\n").is_err());
    }

    #[test]
    fn picks_are_distinct_and_in_range() {
        let p = picks(7, 1, 10, 4);
        assert!(p.iter().all(|&i| i < 10));
        let mut distinct = p.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 4);
        assert_eq!(p, picks(7, 1, 10, 4));
        assert_eq!(picks(7, 1, 2, 5).len(), 2);
    }
}
