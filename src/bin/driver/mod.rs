//! Plumbing shared by the `reproduce` and `fleet` binaries: scenario
//! loading, the fleet worker-count rule, SLO alert rules, the live
//! observability plane, and the one entry point both use to run a
//! distributed campaign.

use std::path::{Path, PathBuf};
use std::process::Child;

use imufit_core::CampaignResults;
use imufit_fleet::{CampaignSession, PoolConfig, WorkerPool};
use imufit_obs::info;
use imufit_obs::plane::Plane;
use imufit_scenario::{ScenarioSpec, PRESET_NAMES};

/// Prints `error: {msg}` and exits 1: a runtime failure, not bad usage.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// Resolves `--scenario`: a preset name first, a document path otherwise.
///
/// # Errors
///
/// Says why the document did not load and lists the presets.
pub fn load_scenario(name_or_path: &str) -> Result<ScenarioSpec, String> {
    if let Some(spec) = ScenarioSpec::preset(name_or_path) {
        return Ok(spec);
    }
    ScenarioSpec::from_file(Path::new(name_or_path)).map_err(|e| {
        format!(
            "cannot load scenario '{name_or_path}': {e} (presets: {})",
            PRESET_NAMES.join(", ")
        )
    })
}

/// The worker-process count: `[fleet] workers`, with 0 meaning one per
/// CPU clamped to the number of runs (same rule as `campaign.threads`).
pub fn fleet_workers(spec: &ScenarioSpec, runs: usize) -> usize {
    if spec.fleet.workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, runs.max(1))
    } else {
        spec.fleet.workers
    }
}

/// Installs the scenario's SLO alert rules (including any `--alert`
/// additions) into the global alert board. Call it before the plane
/// starts so the first recorder sample already evaluates them.
///
/// # Errors
///
/// Names the first rule that does not parse.
pub fn install_alert_rules(spec: &ScenarioSpec) -> Result<(), String> {
    if spec.obs.alerts.is_empty() {
        return Ok(());
    }
    let rules = spec
        .obs
        .alerts
        .iter()
        .map(|r| {
            imufit_obs::alerts::parse_rule(r)
                .map_err(|e| format!("invalid obs.alerts rule '{r}': {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    info!("alerting on {} SLO rule(s)", rules.len());
    imufit_obs::alerts::board().install(rules);
    Ok(())
}

/// Starts the live observability plane when the scenario asks for it;
/// an unrequested plane is inert. `aggregate` adds a fleet's per-worker
/// snapshots to the `/metrics` scrape.
pub fn start_plane(
    spec: &ScenarioSpec,
    aggregate: Option<std::sync::Arc<imufit_obs::snapshot::Aggregate>>,
) -> Plane {
    if !spec.obs.serve {
        return Plane::off();
    }
    match Plane::start(
        &spec.obs.addr,
        std::time::Duration::from_secs_f64(spec.obs.sample_interval_s),
        spec.obs.series_capacity,
        aggregate,
    ) {
        Ok(plane) => {
            if let Some(addr) = plane.addr() {
                info!("serving /metrics, /status, /healthz, /alerts on http://{addr}");
            }
            plane
        }
        Err(e) => fail(format_args!(
            "cannot start metrics server on {}: {e}",
            spec.obs.addr
        )),
    }
}

/// Flushes the plane's recorded series to `OUT/campaign_metrics.ifms`.
pub fn finish_plane(plane: Plane, out: &Path) {
    match plane.finish(&out.join("campaign_metrics.ifms")) {
        Ok(Some(path)) => info!("wrote {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("warning: cannot write metrics series: {e}"),
    }
}

/// A distributed campaign's workers and live plane after its last merge.
/// Dropping it waits until every connected worker has been told `Done` and
/// every spawned worker has exited, then flushes the plane's series.
pub struct Fleet {
    pool: WorkerPool,
    children: Vec<Child>,
    plane: Plane,
    out: PathBuf,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.pool.shutdown();
        for child in &mut self.children {
            let _ = child.wait();
        }
        finish_plane(std::mem::replace(&mut self.plane, Plane::off()), &self.out);
    }
}

/// Runs `spec`'s campaign on a one-campaign [`WorkerPool`], journaling to
/// `out/fleet.ckpt` (replaying it first with `resume`). With
/// `worker_subcommand`, spawns `workers` copies of this executable running
/// it; without, prints `fleet: connect workers to ADDR` for external ones.
/// Returns the merged results as soon as the last unit merged, with the
/// [`Fleet`] to drop once they are written.
pub fn run_fleet(
    spec: &ScenarioSpec,
    trace_dir: Option<PathBuf>,
    out: &Path,
    resume: bool,
    workers: usize,
    worker_subcommand: Option<&str>,
    progress: &dyn Fn(usize, usize),
) -> (CampaignResults, Fleet) {
    let session = CampaignSession::create(
        spec.clone(),
        trace_dir.clone(),
        &out.join("fleet.ckpt"),
        resume,
    )
    .unwrap_or_else(|e| fail(format_args!("cannot start fleet coordinator: {e}")));
    // The pool serves only this session; its result store stays empty.
    let pool = WorkerPool::start(PoolConfig {
        lease_timeout_s: spec.fleet.lease_timeout_s,
        trace_dir,
        ..PoolConfig::new(out.to_path_buf())
    })
    .unwrap_or_else(|e| fail(format_args!("cannot start fleet coordinator: {e}")));
    info!(
        "fleet: {} units, {} workers, listening on {} ({} replayed from checkpoint)",
        session.total(),
        workers,
        pool.addr(),
        session.resumed()
    );
    // The plane scrapes merged per-worker snapshots via the pool's
    // aggregate, so one /metrics endpoint covers the whole fleet.
    let plane = start_plane(spec, Some(pool.aggregate()));
    let children = match worker_subcommand {
        // A journal that is already complete needs no workers.
        Some(_) if session.finished() => Vec::new(),
        Some(subcommand) => {
            let exe = std::env::current_exe()
                .unwrap_or_else(|e| fail(format_args!("cannot locate own executable: {e}")));
            let cmd = [exe.display().to_string(), subcommand.to_string()];
            imufit_fleet::spawn_local_workers(&cmd, pool.addr(), workers)
                .unwrap_or_else(|e| fail(e))
        }
        None => {
            println!("fleet: connect workers to {}", pool.addr());
            Vec::new()
        }
    };
    let results = pool
        .run(session, progress)
        .unwrap_or_else(|e| fail(format_args!("fleet coordinator failed: {e}")));
    let fleet = Fleet {
        pool,
        children,
        plane,
        out: out.to_path_buf(),
    };
    (results, fleet)
}
