//! End-to-end acceptance of the black-box path: a small campaign with IMU
//! Freeze faults, traced to disk, must yield triage timelines whose causal
//! chains read in order — fault activation, detector rising edge, cascade
//! transition, run outcome — with every `caused by #` link pointing back
//! to an earlier event, and a finite fault-to-detection latency.
//!
//! Which links a single flight shows depends on its noise: a frozen IMU
//! can crash the vehicle before the cascade escalates. So the campaign
//! flies three missions at the paper's four durations, every faulty box
//! is checked for the links it has, and at least one must show them all.

use imufit::core::{Campaign, CampaignConfig};
use imufit::faults::{FaultKind, FaultTarget};
use imufit::trace::triage::{
    match_gold, render_diff, render_latency_table, render_timeline, Latencies, RunTrace,
};
use imufit::trace::BlackBox;

fn load_runs(dir: &std::path::Path) -> Vec<RunTrace> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("trace dir exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "ifbb"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let label = p.file_name().unwrap().to_string_lossy().into_owned();
            let bb = BlackBox::decode(&std::fs::read(&p).unwrap())
                .unwrap_or_else(|e| panic!("{} does not decode: {e}", p.display()));
            RunTrace::new(label, bb)
        })
        .collect()
}

/// One rendered timeline event line: its id, label and causal parent.
struct Line<'a> {
    id: u32,
    label: &'a str,
    caused_by: Option<u32>,
}

/// Parses the `t=…s  #ID label[: detail][  (caused by #C)]` event lines of
/// a rendered timeline, in print order.
fn event_lines(text: &str) -> Vec<Line<'_>> {
    text.lines()
        .filter_map(|line| {
            let rest = line.trim_start().strip_prefix("t=")?;
            let rest = &rest[rest.find('#')? + 1..];
            let (id, rest) = rest.split_once(' ')?;
            let rest = rest.trim_start();
            let (body, caused_by) = match rest.rsplit_once("  (caused by #") {
                Some((body, c)) => (body, Some(c.trim_end_matches(')').parse().ok()?)),
                None => (rest, None),
            };
            let label = body.split_once(": ").map_or(body, |(l, _)| l);
            Some(Line {
                id: id.parse().ok()?,
                label,
                caused_by,
            })
        })
        .collect()
}

/// Checks the causal chain of one faulty run's timeline and returns whether
/// it has every link (fault, detection, cascade transition, outcome).
fn check_chain(text: &str) -> bool {
    let lines = event_lines(text);
    let pos = |id: u32| lines.iter().position(|l| l.id == id);
    // Causes print before their effects.
    for (i, line) in lines.iter().enumerate() {
        if let Some(c) = line.caused_by {
            let at = pos(c).unwrap_or_else(|| panic!("#{} names missing #{c}:\n{text}", line.id));
            assert!(
                at < i,
                "#{} printed before its cause #{c}:\n{text}",
                line.id
            );
        }
    }
    let first_after =
        |start: usize, label: &str| (start..lines.len()).find(|&i| lines[i].label == label);
    let fault = first_after(0, "fault activated")
        .unwrap_or_else(|| panic!("no fault activation in:\n{text}"));
    let outcome = first_after(fault, "run outcome")
        .unwrap_or_else(|| panic!("no run outcome after the fault in:\n{text}"));
    assert_eq!(
        outcome,
        lines.len() - 1,
        "the outcome closes the run:\n{text}"
    );
    let outcome_cause = lines[outcome]
        .caused_by
        .and_then(pos)
        .unwrap_or_else(|| panic!("the outcome names no cause:\n{text}"));
    assert!(
        outcome_cause >= fault,
        "the outcome predates the fault:\n{text}"
    );

    // Detection: the first detector edge after the fault links to it.
    let Some(detect) = first_after(fault, "detector rising edge") else {
        return false;
    };
    assert_eq!(
        lines[detect].caused_by,
        Some(lines[fault].id),
        "the detector edge must link to the fault:\n{text}"
    );
    // Mitigation: the first cascade transition after the detection links
    // to a detection at or after it.
    let Some(cascade) = first_after(detect, "cascade transition") else {
        return false;
    };
    let cause = lines[cascade]
        .caused_by
        .and_then(pos)
        .unwrap_or_else(|| panic!("the cascade transition names no cause:\n{text}"));
    assert!(
        (detect..cascade).contains(&cause),
        "the cascade transition must link to a detection:\n{text}"
    );
    assert!(
        outcome > cascade,
        "the outcome follows the cascade:\n{text}"
    );
    true
}

#[test]
fn freeze_fault_timeline_reads_in_causal_order() {
    let dir = std::env::temp_dir().join(format!("imufit-triage-timeline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // IMU Freeze only, at paper defaults: the detection ensemble, armed by
    // the detector-edge trigger, timestamps the detection and the cascade
    // escalates on estimator rejection, so
    // the whole chain can land in the trace without the fast-detection
    // mitigation.
    let mut config = CampaignConfig::scaled(3, vec![2.0, 10.0, 30.0, 60.0], 2024);
    config.faults.kinds = vec![FaultKind::Freeze];
    config.faults.targets = vec![FaultTarget::Imu];
    config.trace.enabled = true;
    config.trace_dir = Some(dir.clone());
    Campaign::new(config).run();

    let runs = load_runs(&dir);
    let faulty: Vec<&RunTrace> = runs.iter().filter(|r| !r.meta.is_gold()).collect();
    assert_eq!(faulty.len(), 12, "every freeze run left a black box");
    let mut complete = Vec::new();
    for run in &faulty {
        if check_chain(&render_timeline(run)) {
            complete.push(*run);
        }
    }
    let full = *complete
        .first()
        .expect("at least one run shows fault, detection, cascade and outcome");

    let text = render_timeline(full);
    assert!(
        text.contains("segment ["),
        "a trigger must freeze records:\n{text}"
    );

    // Finite fault-to-detection latency, and a latency table row for the
    // run's campaign cell.
    let lat = Latencies::from_events(&full.bb.events);
    let f2d = lat.fault_to_detection().expect("detection after the fault");
    assert!((0.0..60.0).contains(&f2d), "implausible latency {f2d}");
    let table = render_latency_table(&runs);
    assert!(
        table.contains(&full.meta.cell()),
        "latency table missing the cell:\n{table}"
    );

    // The gold run's box exists (outcome event only) and diffs cleanly.
    let gold = match_gold(full, &runs).expect("gold black box for the mission");
    let diff = render_diff(full, gold);
    assert!(diff.contains("outcome:"), "diff renders outcomes:\n{diff}");

    let _ = std::fs::remove_dir_all(&dir);
}
