//! Full reproduction driver: runs the paper's 850-case campaign plus the
//! three trajectory figures and writes EXPERIMENTS.md, the raw CSV, the
//! figure tracks, and the testbed's own observability snapshot
//! (`campaign_metrics.json`; Prometheus text with `--metrics`).
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin reproduce \
//!     [-- --seed N --missions M --out DIR --quick --metrics --no-metrics \
//!         --scenario FILE|PRESET --dump-scenario --serve-metrics ADDR]
//! ```
//!
//! `--quick` runs a scaled campaign (3 missions, durations 2 s and 30 s)
//! for a fast smoke reproduction. `--scenario` loads a scenario document
//! (TOML or JSON) or a named preset (`paper-default`, `quick`,
//! `redundancy-ablation`, `mitigation-on`) describing the whole run;
//! `--dump-scenario` prints the active scenario as TOML and exits, so
//! `reproduce --dump-scenario > s.toml && reproduce --scenario s.toml`
//! round-trips. `--metrics` additionally writes the metric registry as
//! Prometheus text (`campaign_metrics.prom`); `--no-metrics` suppresses
//! the JSON snapshot. `--alert RULE` (repeatable) installs SLO rules —
//! `<selector> <op> <threshold>` lines like `lease_expiries_total > 0` —
//! evaluated live on `/alerts` and at every recorder sample, merged with
//! the scenario's `[obs] alerts` list. After an in-process campaign the
//! tick-stage profile lands in `campaign_profile.folded` (folded-stack
//! lines, flamegraph-ready). Building with `--no-default-features`
//! compiles the whole observability layer to no-ops — the resulting
//! `campaign_results.csv` is byte-identical, which CI checks.

use std::io::Write as _;

use imufit_core::{conflicts, figures, redundancy, report, sweep, Campaign, CampaignConfig};
use imufit_detect::{evaluate, EnsembleDetector, LabeledStream};
use imufit_faults::{FaultKind, FaultSpec, FaultTarget, InjectionWindow};
use imufit_missions::all_missions;
use imufit_obs::info;
use imufit_scenario::{ScenarioSpec, PRESET_NAMES};
use imufit_uav::{FlightSimulator, SimConfig};

const USAGE: &str = "usage: reproduce [--seed N] [--missions M] [--out DIR] [--quick]
                 [--scenario FILE|PRESET] [--dump-scenario]
                 [--trace-dir DIR] [--trace-window PRE:POST]
                 [--trace-triggers A,B,...] [--fleet-workers N]
                 [--serve-metrics ADDR] [--alert RULE] [--no-extras]
                 [--metrics] [--no-metrics]

  --seed N            campaign master seed (default 2024)
  --missions M        fly only the first M study missions (default 10)
  --out DIR           output directory (default .)
  --quick             scaled smoke campaign: 3 missions, durations 2 s / 30 s
  --scenario X        scenario document (TOML/JSON path) or preset name:
                      paper-default, quick, redundancy-ablation,
                      mitigation-on, attack-sweep
  --dump-scenario     print the active scenario as TOML and exit
  --trace-dir DIR     enable black-box tracing; write one .ifbb per run that
                      trips a trigger into DIR (read them with `triage`)
  --trace-window P:Q  capture P records before and Q after each trigger
                      (default 256:256)
  --trace-triggers L  comma-separated trigger list: detector-edge,
                      voter-exclusion, bubble-violation, failsafe,
                      sensor-degradation, panic (default: all)
  --fleet-workers N   run the campaign across N worker processes over
                      localhost TCP (see the `fleet` binary); 0 = one per
                      CPU, clamped to the number of runs. The merged CSV
                      is byte-identical to the single-process campaign
  --serve-metrics A   serve live /metrics, /status, /healthz, and /alerts over
                      HTTP on address A (e.g. 127.0.0.1:9469) while the campaign runs,
                      and record a metric time-series to
                      OUT/campaign_metrics.ifms (read it with `triage metrics`)
  --alert RULE        install an SLO alert rule ('<selector> <op> <threshold>',
                      e.g. 'lease_expiries_total > 0'); repeatable, merged
                      with the scenario's [obs] alerts list and evaluated on
                      /alerts and at every recorder sample
  --no-extras         skip the beyond-the-paper sections
  --metrics           also write Prometheus text exposition
  --no-metrics        suppress the campaign_metrics.json snapshot";

/// Prints an argument error plus usage to stderr and exits non-zero.
fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

struct Args {
    /// Explicit `--seed`, overriding the scenario's campaign seed.
    seed: Option<u64>,
    /// Explicit `--missions`, overriding the scenario's mission count.
    missions: Option<usize>,
    out: String,
    quick: bool,
    extras: bool,
    /// Write Prometheus text exposition next to the JSON snapshot.
    prometheus: bool,
    /// Write the `campaign_metrics.json` snapshot (on by default).
    metrics_json: bool,
    /// Scenario document path or preset name.
    scenario: Option<String>,
    /// Print the active scenario as TOML and exit.
    dump_scenario: bool,
    /// Black-box output directory; enables tracing.
    trace_dir: Option<String>,
    /// Pre/post trigger capture windows, records.
    trace_window: Option<(usize, usize)>,
    /// Trigger selection.
    trace_triggers: Option<Vec<imufit_trace::TraceTrigger>>,
    /// Distribute the campaign over N worker processes (0 = auto).
    fleet_workers: Option<usize>,
    /// Live observability plane listen address (`--serve-metrics`).
    serve_metrics: Option<String>,
    /// Extra SLO alert rules (`--alert`, repeatable), merged with the
    /// scenario's `[obs] alerts` list.
    alerts: Vec<String>,
}

/// Parses `--trace-window PRE:POST`, dying on anything malformed.
fn parse_trace_window(value: Option<String>) -> (usize, usize) {
    let Some(v) = value else {
        die("missing value for --trace-window");
    };
    let Some((pre, post)) = v.split_once(':') else {
        die(&format!(
            "cannot parse --trace-window value '{v}' (expected PRE:POST)"
        ));
    };
    match (pre.parse(), post.parse()) {
        (Ok(pre), Ok(post)) => (pre, post),
        _ => die(&format!(
            "cannot parse --trace-window value '{v}' (expected PRE:POST)"
        )),
    }
}

/// Parses `--trace-triggers a,b,c`, dying on unknown trigger names.
fn parse_trace_triggers(value: Option<String>) -> Vec<imufit_trace::TraceTrigger> {
    let Some(v) = value else {
        die("missing value for --trace-triggers");
    };
    v.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|t| {
            imufit_trace::TraceTrigger::parse(t).unwrap_or_else(|| {
                die(&format!(
                    "unknown trigger '{t}' (valid: detector-edge, voter-exclusion, \
                     bubble-violation, failsafe, panic)"
                ))
            })
        })
        .collect()
}

/// Parses a flag's value, dying with a usable message on anything
/// missing or unparsable (`--seed abc` must not silently become 2024).
fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let Some(v) = value else {
        die(&format!("missing value for {flag}"));
    };
    v.parse()
        .unwrap_or_else(|_| die(&format!("cannot parse {flag} value '{v}'")))
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: None,
        missions: None,
        out: ".".to_string(),
        quick: false,
        extras: true,
        prometheus: false,
        metrics_json: true,
        scenario: None,
        dump_scenario: false,
        trace_dir: None,
        trace_window: None,
        trace_triggers: None,
        fleet_workers: None,
        serve_metrics: None,
        alerts: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace-dir" => {
                args.trace_dir = Some(
                    it.next()
                        .unwrap_or_else(|| die("missing value for --trace-dir")),
                )
            }
            "--trace-window" => args.trace_window = Some(parse_trace_window(it.next())),
            "--trace-triggers" => args.trace_triggers = Some(parse_trace_triggers(it.next())),
            "--fleet-workers" => {
                args.fleet_workers = Some(parse_value("--fleet-workers", it.next()))
            }
            "--batch" => die("--batch was removed: campaigns always run the scalar tick pipeline"),
            "--serve-metrics" => {
                args.serve_metrics = Some(
                    it.next()
                        .unwrap_or_else(|| die("missing value for --serve-metrics")),
                )
            }
            "--alert" => {
                let rule = it
                    .next()
                    .unwrap_or_else(|| die("missing value for --alert"));
                if let Err(e) = imufit_obs::alerts::parse_rule(&rule) {
                    die(&format!("invalid --alert rule '{rule}': {e}"));
                }
                args.alerts.push(rule);
            }
            "--seed" => args.seed = Some(parse_value("--seed", it.next())),
            "--missions" => args.missions = Some(parse_value("--missions", it.next())),
            "--out" => args.out = it.next().unwrap_or_else(|| die("missing value for --out")),
            "--scenario" => {
                args.scenario = Some(
                    it.next()
                        .unwrap_or_else(|| die("missing value for --scenario")),
                )
            }
            "--dump-scenario" => args.dump_scenario = true,
            "--quick" => args.quick = true,
            "--no-extras" => args.extras = false,
            "--metrics" => args.prometheus = true,
            "--no-metrics" => args.metrics_json = false,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => die(&format!("unknown argument: {other}")),
        }
    }
    args
}

/// Resolves `--scenario`: a preset name first, a document path otherwise.
fn load_scenario(name_or_path: &str) -> ScenarioSpec {
    if let Some(spec) = ScenarioSpec::preset(name_or_path) {
        return spec;
    }
    ScenarioSpec::from_file(std::path::Path::new(name_or_path)).unwrap_or_else(|e| {
        die(&format!(
            "cannot load scenario '{name_or_path}': {e} (presets: {})",
            PRESET_NAMES.join(", ")
        ))
    })
}

/// Collects the beyond-the-paper sections (duration sweep, fleet
/// separation, redundancy ablation).
fn collect_extras(seed: u64) -> report::ExtraSections {
    let missions = all_missions();

    info!("extras: sub-2-second duration sweep...");
    let sweep_missions: Vec<_> = missions.iter().take(3).cloned().collect();
    let points = sweep::duration_sweep(&sweep_missions, &[0.5, 1.0, 2.0], seed);
    let duration_sweep = Some(sweep::render_sweep("duration", &points));

    info!("extras: fleet separation analysis...");
    let clean = conflicts::analyze(&conflicts::fly_fleet(&missions, None, seed));
    let fault = FaultSpec::new(
        FaultKind::Freeze,
        FaultTarget::Accelerometer,
        InjectionWindow::new(90.0, 30.0),
    );
    let faulty = conflicts::analyze(&conflicts::fly_fleet(&missions, Some((9, fault)), seed));

    info!("extras: redundancy sweep (instances x fault scope)...");
    let red_base = CampaignConfig {
        seed,
        durations: vec![10.0],
        missions: missions.iter().take(3).cloned().collect(),
        ..Default::default()
    };
    let rows = redundancy::redundancy_sweep(&red_base, &redundancy::INSTANCE_COUNTS, None).render();

    info!("extras: detection-latency matrix...");
    let mut ensemble = EnsembleDetector::full();
    let mut detection = format!(
        "{:<12} | {:>10} | {:>12}
",
        "fault", "latency", "false alarms"
    );
    for kind in FaultKind::ALL {
        let stream = LabeledStream::hover(
            kind,
            FaultTarget::Imu,
            InjectionWindow::new(10.0, 10.0),
            25.0,
            seed.wrapping_add(kind.id()),
        );
        let r = evaluate(&mut ensemble, &stream);
        detection.push_str(&format!(
            "{:<12} | {:>10} | {:>12}
",
            kind.label(),
            r.latency
                .map(|l| format!("{:.0} ms", l * 1000.0))
                .unwrap_or_else(|| "miss".into()),
            r.false_alarms
        ));
    }

    info!("extras: fast-detection mitigation study...");
    let mut mitigation = String::from(
        "| fault | default outcome | with fast detection |
|---|---|---|
",
    );
    for (kind, target) in [
        (FaultKind::Max, FaultTarget::Gyrometer),
        (FaultKind::Min, FaultTarget::Imu),
        (FaultKind::Random, FaultTarget::Gyrometer),
    ] {
        let mission = &missions[0];
        let f = FaultSpec::new(kind, target, InjectionWindow::new(90.0, 30.0));
        let base =
            FlightSimulator::new(mission, vec![f], SimConfig::default_for(mission, seed)).run();
        let mut config = SimConfig::default_for(mission, seed);
        config.fast_detection = true;
        let fast = FlightSimulator::new(mission, vec![f], config).run();
        mitigation.push_str(&format!(
            "| {} {} | {} | {} |
",
            target.label(),
            kind.label(),
            base.outcome.label(),
            fast.outcome.label()
        ));
    }

    report::ExtraSections {
        duration_sweep,
        conflicts_clean: Some(clean.render()),
        conflicts_faulty: Some(faulty.render()),
        redundancy: Some(rows),
        detection: Some(detection),
        mitigation: Some(mitigation),
    }
}

/// Hidden self-worker mode backing `--fleet-workers`: the coordinator
/// re-execs this binary as `reproduce --fleet-worker --connect ADDR
/// --id N`, which serves fleet work units until the campaign completes.
fn run_fleet_worker(rest: &[String]) -> ! {
    let mut connect: Option<&str> = None;
    let mut id: u32 = 0;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--connect" => connect = it.next().map(String::as_str),
            "--id" => {
                id = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("cannot parse --id value"))
            }
            other => die(&format!("unknown fleet-worker argument: {other}")),
        }
    }
    let addr: std::net::SocketAddr = connect
        .unwrap_or_else(|| die("fleet worker requires --connect ADDR"))
        .parse()
        .unwrap_or_else(|_| die("cannot parse --connect address"));
    match imufit_fleet::run_worker(addr, id) {
        Ok(imufit_fleet::WorkerExit::CampaignComplete) => std::process::exit(0),
        Ok(imufit_fleet::WorkerExit::CoordinatorLost) => std::process::exit(1),
        Err(e) => {
            eprintln!("fleet worker {id}: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs the campaign through the fleet coordinator with `workers`
/// self-spawned worker processes, journaling to `out/fleet.ckpt`.
fn run_fleet_campaign(
    spec: &ScenarioSpec,
    trace_dir: Option<std::path::PathBuf>,
    out: &std::path::Path,
    workers: usize,
    progress: &(dyn Fn(usize, usize) + Sync),
) -> imufit_core::CampaignResults {
    std::fs::create_dir_all(out)
        .unwrap_or_else(|e| panic!("cannot create output dir {}: {e}", out.display()));
    let mut fleet_config = imufit_fleet::CoordinatorConfig::new(spec.clone(), out);
    fleet_config.trace_dir = trace_dir;
    let coordinator = imufit_fleet::Coordinator::bind(fleet_config).unwrap_or_else(|e| {
        eprintln!("error: cannot start fleet coordinator: {e}");
        std::process::exit(1);
    });
    // The plane scrapes merged per-worker snapshots via the coordinator's
    // aggregate, so one /metrics endpoint covers the whole fleet.
    let plane = start_plane(spec, Some(coordinator.aggregate()));
    let exe =
        std::env::current_exe().unwrap_or_else(|e| panic!("cannot locate own executable: {e}"));
    let cmd = vec![exe.display().to_string(), "--fleet-worker".to_string()];
    let mut children = imufit_fleet::spawn_local_workers(&cmd, coordinator.addr(), workers)
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
    let results = coordinator.serve(Some(progress)).unwrap_or_else(|e| {
        eprintln!("error: fleet coordinator failed: {e}");
        std::process::exit(1);
    });
    for child in &mut children {
        let _ = child.wait();
    }
    finish_plane(plane, out);
    results
}

/// Starts the live observability plane when the scenario asks for it;
/// an unrequested plane is inert.
fn start_plane(
    spec: &ScenarioSpec,
    aggregate: Option<std::sync::Arc<imufit_obs::snapshot::Aggregate>>,
) -> imufit_obs::plane::Plane {
    if !spec.obs.serve {
        return imufit_obs::plane::Plane::off();
    }
    match imufit_obs::plane::Plane::start(
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
        Err(e) => {
            eprintln!(
                "error: cannot start metrics server on {}: {e}",
                spec.obs.addr
            );
            std::process::exit(1);
        }
    }
}

/// Installs the scenario's SLO alert rules (including any `--alert`
/// additions) into the global alert board. The rules were already
/// syntax-checked at scenario load / flag parse, so a failure here is a
/// programming error, not user input.
fn install_alert_rules(spec: &ScenarioSpec) {
    if spec.obs.alerts.is_empty() {
        return;
    }
    let rules: Vec<_> = spec
        .obs
        .alerts
        .iter()
        .map(|r| {
            imufit_obs::alerts::parse_rule(r)
                .unwrap_or_else(|e| die(&format!("invalid obs.alerts rule '{r}': {e}")))
        })
        .collect();
    info!("alerting on {} SLO rule(s)", rules.len());
    imufit_obs::alerts::board().install(rules);
}

/// Flushes the plane's recorded series to `OUT/campaign_metrics.ifms`.
fn finish_plane(plane: imufit_obs::plane::Plane, out: &std::path::Path) {
    match plane.finish(&out.join("campaign_metrics.ifms")) {
        Ok(Some(path)) => info!("wrote {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("warning: cannot write metrics series: {e}"),
    }
}

fn main() {
    imufit_obs::log::init();
    // The hidden worker mode must short-circuit before normal parsing:
    // its flags are not part of the public interface.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--fleet-worker") {
        run_fleet_worker(&raw[1..]);
    }
    let args = parse_args();

    // One scenario document describes the whole run; the remaining CLI
    // flags are overrides layered on top of it.
    let mut spec = match &args.scenario {
        Some(s) => load_scenario(s),
        None => ScenarioSpec::paper_default(),
    };
    if let Some(seed) = args.seed {
        spec.campaign.seed = seed;
    }
    if let Some(missions) = args.missions {
        spec.campaign.missions = missions;
    }
    if args.quick {
        spec.campaign.missions = spec.campaign.missions.min(3);
        spec.campaign.durations = vec![2.0, 30.0];
    }
    if let Some(n) = args.fleet_workers {
        spec.fleet.workers = n;
    }
    if let Some(addr) = &args.serve_metrics {
        spec.obs.serve = true;
        spec.obs.addr = addr.clone();
    }
    // `--alert` rules stack on top of the scenario's own list, so a
    // document's standing SLOs and a one-off CLI rule coexist (and both
    // round-trip through `--dump-scenario`).
    spec.obs.alerts.extend(args.alerts.iter().cloned());
    // Serving live metrics requires the observability layer; with
    // `--no-default-features` every hook is a no-op, so a requested
    // plane would silently serve nothing. Refuse instead.
    if spec.obs.serve && !cfg!(feature = "obs") {
        die("--serve-metrics (or [obs] serve = true) requires the 'obs' feature; rebuild without --no-default-features");
    }
    // Trace overrides: `--trace-dir` arms the collector, the window and
    // trigger flags tune it; a window deeper than the ring grows the ring.
    if args.trace_dir.is_some() {
        spec.trace.enabled = true;
    }
    if let Some((pre, post)) = args.trace_window {
        spec.trace.pre_window = pre;
        spec.trace.post_window = post;
        spec.trace.ring_capacity = spec.trace.ring_capacity.max(pre.max(1));
    }
    if let Some(triggers) = &args.trace_triggers {
        spec.trace.triggers = triggers.clone();
    }
    if let Err(e) = spec.validate() {
        die(&format!("invalid scenario: {e}"));
    }
    if args.dump_scenario {
        print!("{}", spec.to_toml());
        return;
    }
    install_alert_rules(&spec);
    let seed = spec.campaign.seed;
    let mut config = CampaignConfig::from_scenario(&spec);
    if spec.trace.enabled {
        // An armed scenario without an explicit directory still writes its
        // boxes, under the output directory, so `[trace] enabled = true` in
        // a document is enough to get traces.
        config.trace_dir = Some(
            args.trace_dir
                .as_deref()
                .map(std::path::PathBuf::from)
                .unwrap_or_else(|| std::path::Path::new(&args.out).join("traces")),
        );
    }

    let total = config.matrix().len();
    // With `--fleet-workers` the unit of parallelism is a worker process
    // (scenario `[fleet] workers`, 0 = auto); otherwise it is an
    // in-process thread (`campaign.threads`, same auto rule).
    let fleet_procs = args.fleet_workers.map(|_| {
        if spec.fleet.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .clamp(1, total.max(1))
        } else {
            spec.fleet.workers
        }
    });
    let workers = fleet_procs.unwrap_or_else(|| config.effective_workers(total));
    info!(
        "campaign: {} experiments across {} missions (seed {}, {} {})",
        total,
        config.missions.len(),
        seed,
        workers,
        if fleet_procs.is_some() {
            "fleet workers"
        } else {
            "workers"
        }
    );

    // Live progress: runs done / total, ETA, and worker utilisation (the
    // share of elapsed wall-clock the workers spent inside experiments,
    // read from the per-run duration histogram). One atomic in the
    // reporter decides which worker prints each ~2% step.
    let reporter = imufit_obs::progress::ProgressReporter::new("campaign", total, workers);
    let run_hist = imufit_obs::timer_with("campaign_run", imufit_obs::buckets::RUN_S);
    let progress = move |done: usize, _total: usize| {
        reporter.record(done, run_hist.histogram().sum());
        imufit_obs::status::board().set_progress(done as u64);
    };
    let started = std::time::Instant::now();
    let results = if let Some(procs) = fleet_procs {
        run_fleet_campaign(
            &spec,
            config.trace_dir.clone(),
            std::path::Path::new(&args.out),
            procs,
            &progress,
        )
    } else {
        imufit_obs::status::board().begin_campaign(&spec.name, total as u64, 0);
        let out_dir = std::path::Path::new(&args.out);
        std::fs::create_dir_all(out_dir)
            .unwrap_or_else(|e| panic!("cannot create output dir {}: {e}", out_dir.display()));
        let plane = start_plane(&spec, None);
        let r = Campaign::new(config).run_with_progress(Some(&progress));
        finish_plane(plane, out_dir);
        r
    };
    info!(
        "campaign finished in {:.0} s wall-clock; faulty completion {:.1}%",
        started.elapsed().as_secs_f64(),
        results.faulty_completion_pct()
    );
    // The tick-stage profile covers the campaign only (written before the
    // figure runs tick more). Fleet campaigns execute in worker processes,
    // so the coordinator has no samples and writes nothing.
    if imufit_obs::profile::sampled_ticks() > 0 {
        write_file(
            &std::path::Path::new(&args.out).join("campaign_profile.folded"),
            &imufit_obs::profile::folded(),
        );
        info!(
            "tick-stage profile ({} sampled ticks):\n{}",
            imufit_obs::profile::sampled_ticks(),
            imufit_obs::profile::render_table()
        );
    }

    info!("running figure scenarios...");
    let figure_results = figures::run_all(seed);

    let extras = if args.extras && !args.quick {
        collect_extras(seed)
    } else {
        report::ExtraSections::default()
    };

    let md = report::render_experiments_md_with_extras(&results, &figure_results, &extras);
    let out = std::path::Path::new(&args.out);
    std::fs::create_dir_all(out)
        .unwrap_or_else(|e| panic!("cannot create output dir {}: {e}", out.display()));
    write_file(&out.join("EXPERIMENTS.md"), &md);
    write_file(&out.join("campaign_results.csv"), &results.to_csv());
    for f in &figure_results {
        let name = f.scenario.name.to_lowercase().replace(' ', "_");
        write_file(&out.join(format!("{name}_track.csv")), &f.track_csv);
        write_file(&out.join(format!("{name}.svg")), &f.svg);
    }
    if args.metrics_json {
        write_file(
            &out.join("campaign_metrics.json"),
            &imufit_obs::export::json(),
        );
    }
    if args.prometheus {
        write_file(
            &out.join("campaign_metrics.prom"),
            &imufit_obs::export::prometheus(),
        );
    }
    println!("{md}");
}

fn write_file(path: &std::path::Path, contents: &str) {
    let mut f = std::fs::File::create(path)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
    f.write_all(contents.as_bytes())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    info!("wrote {}", path.display());
}
