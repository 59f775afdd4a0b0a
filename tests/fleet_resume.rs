//! End-to-end tests for the fleet layer: a distributed campaign's merged
//! CSV is byte-identical to the single-process campaign's — including
//! after SIGKILLing a worker mid-flight, and after SIGKILLing the whole
//! coordinator and resuming from the checkpoint journal.
//!
//! These tests drive the real `fleet` binary over localhost TCP (via
//! `CARGO_BIN_EXE_fleet`), so they cover the protocol, lease recovery,
//! and journal replay exactly as a user would hit them.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use imufit::core::{Campaign, CampaignConfig};
use imufit::scenario::ScenarioSpec;

/// The shared test scenario: small enough to finish in seconds, large
/// enough (43 units) to be mid-flight when we start killing processes.
fn test_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::paper_default();
    spec.campaign.missions = 1;
    spec.campaign.durations = vec![2.0, 30.0];
    // Short lease so an expiry-driven requeue would also surface quickly.
    spec.fleet.lease_timeout_s = 5.0;
    spec.validate().expect("test scenario is valid");
    spec
}

/// The single-process reference CSV for [`test_spec`].
fn reference_csv(spec: &ScenarioSpec) -> String {
    Campaign::new(CampaignConfig::from_scenario(spec))
        .run()
        .to_csv()
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("imufit-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_scenario(dir: &Path, spec: &ScenarioSpec) -> PathBuf {
    let path = dir.join("scenario.toml");
    std::fs::write(&path, spec.to_toml()).unwrap();
    path
}

fn fleet_cmd(scenario: &Path, out: &Path, extra: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fleet"));
    cmd.arg("run")
        .arg("--scenario")
        .arg(scenario)
        .arg("--workers")
        .arg("2")
        .arg("--out")
        .arg(out)
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    cmd
}

/// Polls until the checkpoint journal holds at least `bytes` bytes, so a
/// kill lands mid-campaign rather than before or after it.
fn wait_for_checkpoint(out: &Path, bytes: u64, deadline: Duration) -> bool {
    let ckpt = out.join("fleet.ckpt");
    let start = Instant::now();
    while start.elapsed() < deadline {
        if std::fs::metadata(&ckpt).map(|m| m.len()).unwrap_or(0) >= bytes {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

fn wait_with_timeout(child: &mut Child, deadline: Duration) -> std::process::ExitStatus {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        if start.elapsed() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("fleet process did not finish within {deadline:?}");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn fleet_campaign_is_byte_identical_to_single_process() {
    let spec = test_spec();
    let dir = fresh_dir("equiv");
    let scenario = write_scenario(&dir, &spec);

    let mut child = fleet_cmd(&scenario, &dir, &[]).spawn().unwrap();
    let status = wait_with_timeout(&mut child, Duration::from_secs(300));
    assert!(status.success(), "fleet run failed: {status}");

    let fleet_csv = std::fs::read_to_string(dir.join("campaign_results.csv")).unwrap();
    assert_eq!(
        fleet_csv,
        reference_csv(&spec),
        "fleet CSV differs from the single-process campaign"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_sigkill_mid_campaign_still_merges_identically() {
    let spec = test_spec();
    let dir = fresh_dir("worker-kill");
    let scenario = write_scenario(&dir, &spec);

    // Coordinator without self-spawned workers, so this test owns the
    // worker processes and can kill one.
    let mut coord = fleet_cmd(&scenario, &dir, &["--no-spawn"])
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    // The coordinator prints its address only with --no-spawn; scrape it.
    let addr = {
        use std::io::BufRead as _;
        let stdout = coord.stdout.take().unwrap();
        let mut lines = std::io::BufReader::new(stdout).lines();
        loop {
            let line = lines.next().expect("coordinator exited early").unwrap();
            if let Some(addr) = line.trim().strip_prefix("fleet: connect workers to ") {
                break addr.to_string();
            }
        }
    };

    let spawn_worker = |id: usize| {
        Command::new(env!("CARGO_BIN_EXE_fleet"))
            .args(["worker", "--connect", &addr, "--id", &id.to_string()])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap()
    };
    let mut victim = spawn_worker(0);
    let mut survivor = spawn_worker(1);

    // SIGKILL one worker once real progress is journaled; its leased
    // units must be detected via the broken connection and re-queued.
    assert!(
        wait_for_checkpoint(&dir, 500, Duration::from_secs(240)),
        "campaign never journaled progress"
    );
    victim.kill().unwrap();
    let _ = victim.wait();

    let status = wait_with_timeout(&mut coord, Duration::from_secs(300));
    assert!(status.success(), "coordinator failed: {status}");
    // The coordinator tells every connected worker `Done` before it exits,
    // so the survivor finishes on its own, cleanly.
    let status = wait_with_timeout(&mut survivor, Duration::from_secs(30));
    assert!(status.success(), "surviving worker failed: {status}");

    let fleet_csv = std::fs::read_to_string(dir.join("campaign_results.csv")).unwrap();
    assert_eq!(
        fleet_csv,
        reference_csv(&spec),
        "fleet CSV with a killed worker differs from the single-process campaign"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coordinator_sigkill_then_resume_is_byte_identical() {
    let spec = test_spec();
    let dir = fresh_dir("resume");
    let scenario = write_scenario(&dir, &spec);

    // First attempt: SIGKILL the whole coordinator mid-campaign (its
    // workers lose the connection and exit once their reconnect budget
    // runs out — the resumed coordinator binds a fresh port).
    let mut first = fleet_cmd(&scenario, &dir, &[]).spawn().unwrap();
    assert!(
        wait_for_checkpoint(&dir, 500, Duration::from_secs(240)),
        "campaign never journaled progress"
    );
    first.kill().unwrap();
    let _ = first.wait();

    let ckpt_len_after_kill = std::fs::metadata(dir.join("fleet.ckpt")).unwrap().len();
    assert!(ckpt_len_after_kill > 0, "journal vanished after kill");

    // Second attempt resumes from the journal and completes the matrix.
    let mut second = fleet_cmd(&scenario, &dir, &["--resume"]).spawn().unwrap();
    let status = wait_with_timeout(&mut second, Duration::from_secs(300));
    assert!(status.success(), "resumed fleet run failed: {status}");

    let fleet_csv = std::fs::read_to_string(dir.join("campaign_results.csv")).unwrap();
    assert_eq!(
        fleet_csv,
        reference_csv(&spec),
        "resumed fleet CSV differs from the single-process campaign"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--resume` against a journal from a different campaign must be a typed
/// rejection (exit 1 with a fingerprint message), not a merge of foreign
/// records.
#[test]
fn resume_rejects_foreign_checkpoint() {
    let spec = test_spec();
    let dir = fresh_dir("foreign");
    let scenario = write_scenario(&dir, &spec);

    // Journal a different campaign (different seed) into the same dir.
    let mut other = spec.clone();
    other.campaign.seed = spec.campaign.seed + 1;
    let other_scenario = dir.join("other.toml");
    std::fs::write(&other_scenario, other.to_toml()).unwrap();
    let mut seed_run = fleet_cmd(&other_scenario, &dir, &[]).spawn().unwrap();
    let status = wait_with_timeout(&mut seed_run, Duration::from_secs(300));
    assert!(status.success());

    let out = fleet_cmd(&scenario, &dir, &["--resume"]).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "foreign checkpoint must be rejected"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
