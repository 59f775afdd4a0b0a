//! Plumbing shared by the `reproduce` and `fleet` binaries: the flags
//! both take and the scenario they layer onto, the fleet worker-count
//! rule, SLO alert rules, the live observability plane, and the one entry
//! point both use to run a distributed campaign.

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

/// A usage-error reporter: prints the message and the binary's usage and
/// exits 2.
pub type Die = fn(&str) -> !;

/// A flag's value, dying when it is missing.
pub fn flag_value(flag: &str, value: Option<String>, die: Die) -> String {
    value.unwrap_or_else(|| die(&format!("missing value for {flag}")))
}

/// Parses a flag's value, dying with a usable message on anything
/// missing or unparsable (`--seed abc` must not silently become 2024).
pub fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<String>, die: Die) -> T {
    let v = flag_value(flag, value, die);
    v.parse()
        .unwrap_or_else(|_| die(&format!("cannot parse {flag} value '{v}'")))
}

/// The flags `reproduce` and `fleet run` share: a scenario and the
/// overrides layered on top of it.
pub struct Overrides {
    /// Scenario document path or preset name.
    pub scenario: Option<String>,
    /// Explicit `--seed`, overriding the scenario's campaign seed.
    pub seed: Option<u64>,
    /// Explicit `--missions`, overriding the scenario's mission count.
    pub missions: Option<usize>,
    /// Output directory.
    pub out: String,
    /// Scaled smoke campaign: the `quick` preset's mission cap and
    /// durations.
    pub quick: bool,
    /// Black-box output directory; enables tracing.
    pub trace_dir: Option<String>,
    /// Live observability plane listen address (`--serve-metrics`).
    pub serve_metrics: Option<String>,
    /// Extra SLO alert rules (`--alert`, repeatable), merged with the
    /// scenario's `[obs] alerts` list.
    pub alerts: Vec<String>,
}

impl Default for Overrides {
    fn default() -> Self {
        Overrides {
            scenario: None,
            seed: None,
            missions: None,
            out: ".".to_string(),
            quick: false,
            trace_dir: None,
            serve_metrics: None,
            alerts: Vec::new(),
        }
    }
}

impl Overrides {
    /// Takes `flag`, with its value from `rest`, when it is a shared flag;
    /// returns `false` for any other argument.
    pub fn take(&mut self, flag: &str, rest: &mut impl Iterator<Item = String>, die: Die) -> bool {
        match flag {
            "--scenario" => self.scenario = Some(flag_value(flag, rest.next(), die)),
            "--seed" => self.seed = Some(parse_value(flag, rest.next(), die)),
            "--missions" => self.missions = Some(parse_value(flag, rest.next(), die)),
            "--out" => self.out = flag_value(flag, rest.next(), die),
            "--quick" => self.quick = true,
            "--trace-dir" => self.trace_dir = Some(flag_value(flag, rest.next(), die)),
            "--serve-metrics" => self.serve_metrics = Some(flag_value(flag, rest.next(), die)),
            "--alert" => {
                let rule = flag_value(flag, rest.next(), die);
                if let Err(e) = imufit_obs::alerts::parse_rule(&rule) {
                    die(&format!("invalid --alert rule '{rule}': {e}"));
                }
                self.alerts.push(rule);
            }
            _ => return false,
        }
        true
    }

    /// The run's scenario: `--scenario` (paper-default without it) with
    /// the shared overrides layered on, then `more`, the binary's own.
    /// Dies on a scenario that does not load or validate, and on a live
    /// metrics plane requested from a build without the `obs` feature.
    pub fn scenario(&self, die: Die, more: impl FnOnce(&mut ScenarioSpec)) -> ScenarioSpec {
        let mut spec = match &self.scenario {
            Some(s) => load_scenario(s).unwrap_or_else(|e| die(&e)),
            None => ScenarioSpec::paper_default(),
        };
        if let Some(seed) = self.seed {
            spec.campaign.seed = seed;
        }
        if let Some(missions) = self.missions {
            spec.campaign.missions = missions;
        }
        if self.quick {
            let quick = ScenarioSpec::preset("quick").expect("the quick preset exists");
            spec.campaign.missions = spec.campaign.missions.min(quick.campaign.missions);
            spec.campaign.durations = quick.campaign.durations;
        }
        if self.trace_dir.is_some() {
            spec.trace.enabled = true;
        }
        if let Some(addr) = &self.serve_metrics {
            spec.obs.serve = true;
            spec.obs.addr = addr.clone();
        }
        // `--alert` rules stack on top of the scenario's own list, so a
        // document's standing SLOs and a one-off CLI rule coexist (and both
        // round-trip through `--dump-scenario`).
        spec.obs.alerts.extend(self.alerts.iter().cloned());
        more(&mut spec);
        // Without the `obs` feature every metric hook is a no-op, so a
        // requested plane would silently serve nothing. Refuse instead.
        if spec.obs.serve && !cfg!(feature = "obs") {
            die("--serve-metrics (or [obs] serve = true) requires the 'obs' feature; rebuild without --no-default-features");
        }
        if let Err(e) = spec.validate() {
            die(&format!("invalid scenario: {e}"));
        }
        spec
    }

    /// Where an armed scenario writes its black boxes: `--trace-dir`, or
    /// `OUT/traces` when the document alone (`[trace] enabled = true`)
    /// armed it. `None` when tracing is off.
    pub fn trace_dir(&self, spec: &ScenarioSpec) -> Option<PathBuf> {
        spec.trace.enabled.then(|| {
            self.trace_dir
                .as_deref()
                .map(PathBuf::from)
                .unwrap_or_else(|| Path::new(&self.out).join("traces"))
        })
    }
}

/// Resolves `--scenario`: a preset name first, a document path otherwise.
///
/// # Errors
///
/// Says why the document did not load and lists the presets.
fn load_scenario(name_or_path: &str) -> Result<ScenarioSpec, String> {
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
