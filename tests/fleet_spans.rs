//! End-to-end test for the fleet execution span journal: a traced 2-worker
//! campaign with a forced mid-campaign requeue must leave a decodable
//! `.ifsp` accounting every unit from enqueue to merge, including the
//! requeue edge, and `triage spans` must render it. The pool forwards the
//! trace directory to its workers, so the same run leaves one decodable
//! black box per matrix run.
//!
//! Drives the real `fleet` binary over localhost TCP (via
//! `CARGO_BIN_EXE_fleet`), with the worker-side
//! `IMUFIT_FLEET_FLAKY_UNIT` hook dropping one connection on the first
//! assignment of unit 1 so the coordinator walks its disconnect-requeue
//! path.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use imufit::core::CampaignConfig;
use imufit::scenario::ScenarioSpec;
use imufit::trace::BlackBox;
use imufit_obs::spans::{unit_timelines, SpanKind, SpanLog};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("imufit-spans-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Small campaign (1 mission x 2 durations) so the run finishes fast but
/// still spreads units across both workers.
fn write_scenario(dir: &Path) -> (PathBuf, ScenarioSpec) {
    let mut spec = ScenarioSpec::paper_default();
    spec.campaign.missions = 1;
    spec.campaign.durations = vec![2.0, 30.0];
    spec.fleet.lease_timeout_s = 5.0;
    spec.validate().expect("test scenario is valid");
    let path = dir.join("scenario.toml");
    std::fs::write(&path, spec.to_toml()).unwrap();
    (path, spec)
}

#[test]
fn fleet_campaign_journals_every_unit_including_a_forced_requeue() {
    let dir = fresh_dir("requeue");
    let (scenario, spec) = write_scenario(&dir);
    let boxes = dir.join("boxes");

    let mut child = Command::new(env!("CARGO_BIN_EXE_fleet"))
        .arg("run")
        .arg("--scenario")
        .arg(&scenario)
        .arg("--workers")
        .arg("2")
        .arg("--out")
        .arg(&dir)
        .arg("--trace-dir")
        .arg(&boxes)
        // Worker processes inherit this and drop the connection on the
        // first assignment of unit 1, once.
        .env("IMUFIT_FLEET_FLAKY_UNIT", "1")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if start.elapsed() > Duration::from_secs(300) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("fleet run did not finish within 300 s");
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(status.success(), "fleet run failed: {status}");

    let span_path = dir.join("campaign_spans.ifsp");
    let bytes = std::fs::read(&span_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", span_path.display()));
    let log = SpanLog::decode(&bytes).expect("span journal decodes");
    assert!(
        !log.tail.is_torn(),
        "journal of a clean shutdown must not be torn"
    );
    assert!(log.total_units > 0);

    // Every unit must have walked enqueue -> dispatch -> execute -> merge.
    let timelines = unit_timelines(&log);
    assert_eq!(timelines.len() as u32, log.total_units);
    for t in &timelines {
        assert!(t.enqueued_ms.is_some(), "unit {} never enqueued", t.unit);
        assert!(
            t.dispatched_ms.is_some(),
            "unit {} never dispatched",
            t.unit
        );
        assert!(t.executed_ms.is_some(), "unit {} never executed", t.unit);
        assert!(t.merged_ms.is_some(), "unit {} never merged", t.unit);
        assert!(!t.label.is_empty(), "unit {} has no cell label", t.unit);
        assert!(t.ticks > 0, "unit {} reported zero ticks", t.unit);
    }

    // The flaky hook must have produced exactly the forced requeue chain:
    // a requeue edge on unit 1 plus a second enqueue/dispatch, and the
    // redelivery must carry a fresh span id.
    let requeues: Vec<_> = log
        .events
        .iter()
        .filter(|e| e.kind == SpanKind::Requeued)
        .collect();
    assert!(
        requeues.iter().any(|e| e.unit == 1),
        "no requeue edge journaled for the flaky unit; requeues: {requeues:?}"
    );
    let unit1_spans: Vec<u64> = log
        .events
        .iter()
        .filter(|e| e.unit == 1 && e.kind == SpanKind::Dispatched)
        .map(|e| e.span)
        .collect();
    assert!(
        unit1_spans.len() >= 2,
        "flaky unit was dispatched only {} time(s)",
        unit1_spans.len()
    );
    assert_ne!(
        unit1_spans.first(),
        unit1_spans.last(),
        "redelivery must stamp a fresh span id"
    );

    // Every matrix run left one black box, written by whichever worker
    // flew it into the directory the pool forwarded in `Welcome`.
    let runs = CampaignConfig::from_scenario(&spec).matrix().len();
    let box_paths: Vec<PathBuf> = std::fs::read_dir(&boxes)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", boxes.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "ifbb"))
        .collect();
    assert_eq!(box_paths.len(), runs, "one black box per matrix run");
    for path in &box_paths {
        let bytes = std::fs::read(path).unwrap();
        BlackBox::decode(&bytes).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }

    // `triage spans` renders the journal: waterfall plus critical path.
    let out = Command::new(env!("CARGO_BIN_EXE_triage"))
        .arg("spans")
        .arg(&span_path)
        .output()
        .unwrap();
    assert!(out.status.success(), "triage spans failed: {}", out.status);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("waterfall"), "no waterfall in:\n{text}");
    assert!(
        text.contains("critical path"),
        "no critical path in:\n{text}"
    );
    assert!(
        text.contains("requeue"),
        "no requeue accounting in:\n{text}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
