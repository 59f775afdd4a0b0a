//! Distributed campaign driver: coordinator + worker processes over
//! localhost TCP, producing a `campaign_results.csv` byte-identical to
//! the single-process `reproduce` campaign.
//!
//! Usage:
//!
//! ```text
//! fleet run [--scenario FILE|PRESET] [--workers N] [--out DIR]
//!           [--seed N] [--missions M] [--quick] [--trace-dir DIR]
//!           [--resume] [--no-spawn] [--serve-metrics ADDR]
//! fleet worker --connect ADDR [--id N]
//! ```
//!
//! `run` shards the campaign, journals completed units to
//! `OUT/fleet.ckpt`, and (unless `--no-spawn`) launches N copies of
//! itself as workers. A killed run picks up where it left off with
//! `--resume`: journaled units replay, only outstanding ones rerun, and
//! the merged CSV is still byte-identical.

mod driver;

use std::path::PathBuf;

use imufit_obs::info;

const USAGE: &str = "usage: fleet run [--scenario FILE|PRESET] [--workers N] [--out DIR]
                 [--seed N] [--missions M] [--quick] [--trace-dir DIR]
                 [--resume] [--no-spawn] [--metrics] [--serve-metrics ADDR]
                 [--alert RULE]
       fleet worker --connect ADDR [--id N]

  run                 coordinate a distributed campaign
    --scenario X      scenario document (TOML/JSON path) or preset name:
                      paper-default, quick, redundancy-ablation, mitigation-on
    --workers N       worker processes (default: scenario [fleet] workers;
                      0 = one per CPU, clamped to the number of runs)
    --out DIR         output directory (default .)
    --seed N          campaign master seed override
    --missions M      fly only the first M study missions
    --quick           scaled smoke campaign: 3 missions, durations 2 s / 30 s
    --trace-dir DIR   enable black-box tracing into DIR (same layout as
                      `reproduce --trace-dir`)
    --resume          replay OUT/fleet.ckpt and run only outstanding units
    --no-spawn        don't spawn local workers; wait for external
                      `fleet worker --connect` processes
    --metrics         write campaign_metrics.json next to the CSV
    --serve-metrics A serve live /metrics, /status, /healthz, and /alerts on
                      address A (merged across workers, labeled worker=\"N\")
                      and record a metric time-series to
                      OUT/campaign_metrics.ifms
    --alert RULE      install an SLO alert rule ('<selector> <op> <threshold>',
                      e.g. 'lease_expiries_total > 0'); repeatable, merged
                      with the scenario's [obs] alerts list
  worker              serve one worker process
    --connect ADDR    coordinator address (host:port)
    --id N            worker id reported to the coordinator (default 0)";

/// Prints an argument error plus usage to stderr and exits 2.
fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

struct RunArgs {
    /// The flags `reproduce` shares.
    shared: driver::Overrides,
    workers: Option<usize>,
    resume: bool,
    spawn: bool,
    metrics: bool,
}

fn parse_run_args(mut it: std::env::Args) -> RunArgs {
    let mut args = RunArgs {
        shared: driver::Overrides::default(),
        workers: None,
        resume: false,
        spawn: true,
        metrics: false,
    };
    while let Some(a) = it.next() {
        if args.shared.take(&a, &mut it, die) {
            continue;
        }
        match a.as_str() {
            "--workers" => args.workers = Some(driver::parse_value("--workers", it.next(), die)),
            "--resume" => args.resume = true,
            "--no-spawn" => args.spawn = false,
            "--metrics" => args.metrics = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => die(&format!("unknown argument: {other}")),
        }
    }
    args
}

fn run_coordinator(args: RunArgs) {
    let spec = args.shared.scenario(die, |spec| {
        if let Some(workers) = args.workers {
            spec.fleet.workers = workers;
        }
    });
    // SLO rules (scenario [obs] alerts plus --alert flags) go live before
    // the plane starts so the first recorder sample already evaluates them.
    driver::install_alert_rules(&spec).unwrap_or_else(|e| die(&e));

    let out = PathBuf::from(&args.shared.out);
    std::fs::create_dir_all(&out)
        .unwrap_or_else(|e| die(&format!("cannot create output dir {}: {e}", out.display())));
    let trace_dir = args.shared.trace_dir(&spec);
    let total = imufit_core::CampaignConfig::from_scenario(&spec)
        .matrix()
        .len();
    let workers = driver::fleet_workers(&spec, total);

    let reporter = imufit_obs::progress::ProgressReporter::new("fleet", total, workers);
    let progress = move |done: usize, _total: usize| {
        reporter.record(done, 0.0);
    };
    let started = std::time::Instant::now();
    let (results, _workers) = driver::run_fleet(
        &spec,
        trace_dir,
        &out,
        args.resume,
        workers,
        args.spawn.then_some("worker"),
        &progress,
    );
    info!(
        "fleet campaign finished in {:.0} s wall-clock; faulty completion {:.1}%",
        started.elapsed().as_secs_f64(),
        results.faulty_completion_pct()
    );

    let csv_path = out.join("campaign_results.csv");
    std::fs::write(&csv_path, results.to_csv())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", csv_path.display()));
    info!("wrote {}", csv_path.display());
    if args.metrics {
        let metrics_path = out.join("campaign_metrics.json");
        std::fs::write(&metrics_path, imufit_obs::export::json())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", metrics_path.display()));
        info!("wrote {}", metrics_path.display());
    }
}

fn main() {
    imufit_obs::log::init();
    let mut it = std::env::args();
    let _ = it.next();
    match it.next().as_deref() {
        Some("run") => run_coordinator(parse_run_args(it)),
        Some("worker") => std::process::exit(imufit_fleet::worker_main(it, USAGE)),
        Some("--help") | Some("-h") => println!("{USAGE}"),
        Some(other) => die(&format!("unknown subcommand: {other}")),
        None => die("expected a subcommand: run | worker"),
    }
}
