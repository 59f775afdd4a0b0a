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

mod driver;

use std::io::Write as _;

use imufit_core::{conflicts, figures, redundancy, report, sweep, Campaign, CampaignConfig};
use imufit_detect::{evaluate, EnsembleDetector, LabeledStream};
use imufit_faults::{FaultKind, FaultSpec, FaultTarget, InjectionWindow};
use imufit_missions::all_missions;
use imufit_obs::info;
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
    /// The flags `fleet run` shares.
    shared: driver::Overrides,
    extras: bool,
    /// Write Prometheus text exposition next to the JSON snapshot.
    prometheus: bool,
    /// Write the `campaign_metrics.json` snapshot (on by default).
    metrics_json: bool,
    /// Print the active scenario as TOML and exit.
    dump_scenario: bool,
    /// Pre/post trigger capture windows, records.
    trace_window: Option<(usize, usize)>,
    /// Trigger selection.
    trace_triggers: Option<Vec<imufit_trace::TraceTrigger>>,
    /// Distribute the campaign over N worker processes (0 = auto).
    fleet_workers: Option<usize>,
}

/// Parses `--trace-window PRE:POST`, dying on anything malformed.
fn parse_trace_window(value: Option<String>) -> (usize, usize) {
    let v = driver::flag_value("--trace-window", value, die);
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
    let v = driver::flag_value("--trace-triggers", value, die);
    v.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|t| {
            imufit_trace::TraceTrigger::parse(t).unwrap_or_else(|| {
                let valid: Vec<&str> = imufit_trace::TraceTrigger::ALL
                    .iter()
                    .map(|t| t.label())
                    .collect();
                die(&format!(
                    "unknown trigger '{t}' (valid: {})",
                    valid.join(", ")
                ))
            })
        })
        .collect()
}

fn parse_args() -> Args {
    let mut args = Args {
        shared: driver::Overrides::default(),
        extras: true,
        prometheus: false,
        metrics_json: true,
        dump_scenario: false,
        trace_window: None,
        trace_triggers: None,
        fleet_workers: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if args.shared.take(&a, &mut it, die) {
            continue;
        }
        match a.as_str() {
            "--trace-window" => args.trace_window = Some(parse_trace_window(it.next())),
            "--trace-triggers" => args.trace_triggers = Some(parse_trace_triggers(it.next())),
            "--fleet-workers" => {
                args.fleet_workers = Some(driver::parse_value("--fleet-workers", it.next(), die))
            }
            "--batch" => die("--batch was removed: campaigns always run the scalar tick pipeline"),
            "--dump-scenario" => args.dump_scenario = true,
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
        InjectionWindow::campaign(30.0),
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
        let f = FaultSpec::new(kind, target, InjectionWindow::campaign(30.0));
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

fn main() {
    imufit_obs::log::init();
    // The hidden worker mode must short-circuit before normal parsing:
    // its flags are not part of the public interface.
    let mut raw = std::env::args().skip(1).peekable();
    if raw.next_if(|a| a == "--fleet-worker").is_some() {
        std::process::exit(imufit_fleet::worker_main(raw, USAGE));
    }
    let args = parse_args();

    // One scenario document describes the whole run; the remaining CLI
    // flags are overrides layered on top of it.
    let spec = args.shared.scenario(die, |spec| {
        if let Some(n) = args.fleet_workers {
            spec.fleet.workers = n;
        }
        // The window and trigger flags tune the collector; a window deeper
        // than the ring grows the ring.
        if let Some((pre, post)) = args.trace_window {
            spec.trace.pre_window = pre;
            spec.trace.post_window = post;
            spec.trace.ring_capacity = spec.trace.ring_capacity.max(pre.max(1));
        }
        if let Some(triggers) = &args.trace_triggers {
            spec.trace.triggers = triggers.clone();
        }
    });
    if args.dump_scenario {
        print!("{}", spec.to_toml());
        return;
    }
    driver::install_alert_rules(&spec).unwrap_or_else(|e| die(&e));
    let seed = spec.campaign.seed;
    let mut config = CampaignConfig::from_scenario(&spec);
    // An armed scenario without an explicit directory still writes its
    // boxes, under the output directory, so `[trace] enabled = true` in a
    // document is enough to get traces.
    config.trace_dir = args.shared.trace_dir(&spec);

    let total = config.matrix().len();
    // With `--fleet-workers` the unit of parallelism is a worker process
    // (scenario `[fleet] workers`, 0 = auto); otherwise it is an
    // in-process thread (`campaign.threads`, same auto rule).
    let fleet_procs = args
        .fleet_workers
        .map(|_| driver::fleet_workers(&spec, total));
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
    let out_dir = std::path::Path::new(&args.shared.out);
    std::fs::create_dir_all(out_dir)
        .unwrap_or_else(|e| panic!("cannot create output dir {}: {e}", out_dir.display()));
    let results = if let Some(procs) = fleet_procs {
        // Dropping the returned fleet right away waits for the workers and
        // flushes the plane.
        let trace_dir = config.trace_dir.clone();
        let worker = Some("--fleet-worker");
        driver::run_fleet(&spec, trace_dir, out_dir, false, procs, worker, &progress).0
    } else {
        imufit_obs::status::board().begin_campaign(&spec.name, total as u64, 0);
        let plane = driver::start_plane(&spec, None);
        let r = Campaign::new(config).run_with_progress(Some(&progress));
        driver::finish_plane(plane, out_dir);
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
            &std::path::Path::new(&args.shared.out).join("campaign_profile.folded"),
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

    let extras = if args.extras && !args.shared.quick {
        collect_extras(seed)
    } else {
        report::ExtraSections::default()
    };

    let md = report::render_experiments_md_with_extras(&results, &figure_results, &extras);
    let out = std::path::Path::new(&args.shared.out);
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
