//! The end-to-end workloads. Every round launches the real `reproduce`,
//! `fleet` or `serve` binary, times it from outside with tracing off, and
//! keeps its outputs for the checks.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use imufit::core::CampaignConfig;
use imufit::math::rng::Pcg;
use imufit::scenario::ScenarioSpec;

use crate::checks::{self, Tally};
use crate::http::{self, status_workers};
use crate::loadgen::{self, HitStats, Schedule, Target};
use crate::procs::{wait_all, Proc, RssWatch};
use crate::report::Metric;
use crate::scenarios::{self, parallelism, Workload};
use crate::stats::{percentile, tail_percentile};

/// Longest a process may take to print the line that makes it usable.
const LAUNCH_TIMEOUT: Duration = Duration::from_secs(30);

/// A workload's measurements must end within this, so a run ends inside
/// the three minutes it is allowed.
const RUN_BUDGET: Duration = Duration::from_secs(160);

/// Extra setups per run besides each round's own (none at `--smoke`):
/// launch, wait until ready, stop; see [`setup_probes`]. `reproduce` and `fleet` are ready
/// within milliseconds; `serve` once the workers' first heartbeat reports
/// them, about 2 s in.
const SETUP_PROBES: usize = 30;
const SERVE_SETUP_PROBES: usize = 1;

/// How many extra setups to measure.
fn probes(ctx: &Ctx, n: usize) -> usize {
    if ctx.smoke {
        0
    } else {
        n
    }
}

/// Cache-hit pairs per `serve-mix` round.
const HIT_PAIRS: usize = 1200;
const SMOKE_HIT_PAIRS: usize = 30;

/// How often the cold client polls a campaign's status.
const COLD_POLL: Duration = Duration::from_millis(20);

/// The binaries under test.
pub struct Bins {
    /// The in-process campaign binary.
    pub reproduce: PathBuf,
    /// The distributed campaign binary.
    pub fleet: PathBuf,
    /// The campaign service.
    pub serve: PathBuf,
}

impl Bins {
    /// Finds `reproduce`, `fleet` and `serve` next to this executable.
    pub fn locate() -> Result<Bins, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
        let dir = exe.parent().unwrap_or(Path::new(".")).to_path_buf();
        let missing: Vec<&str> = ["reproduce", "fleet", "serve"]
            .into_iter()
            .filter(|name| !dir.join(name).is_file())
            .collect();
        if !missing.is_empty() {
            return Err(format!(
                "{} not found next to {}; build the workspace binaries into the same \
                 target directory first:\n  CARGO_TARGET_DIR={} cargo build --release --bins",
                missing.join(", "),
                exe.display(),
                dir.parent().unwrap_or(&dir).display()
            ));
        }
        Ok(Bins {
            reproduce: dir.join("reproduce"),
            fleet: dir.join("fleet"),
            serve: dir.join("serve"),
        })
    }
}

/// What every measurement shares.
pub struct Ctx {
    /// The binaries under test.
    pub bins: Bins,
    /// The benchmark seed every input derives from.
    pub seed: u64,
    /// Shrink every workload for a quick check.
    pub smoke: bool,
    /// Where rounds write their outputs.
    pub out: PathBuf,
}

/// What one workload measured.
pub struct Measured {
    /// The workload.
    pub workload: Workload,
    /// Launch-to-ready time of every setup, s.
    pub setup_s: Vec<f64>,
    /// Campaign wall times, s: launch until exit with the CSV written, or
    /// for `serve-mix` the cold stream's first submit until its last CSV is
    /// in hand.
    pub wall_s: Vec<f64>,
    /// Each cold campaign's submit until its CSV is in hand, s (`serve-mix`
    /// only).
    pub cold_rtt_s: Vec<f64>,
    /// Runs per second of each campaign wall.
    pub runs_per_s: Vec<f64>,
    /// Simulated flight seconds per second of each campaign's run phase:
    /// throughput per unit of work, whatever flights the seed produced.
    pub sim_speed: Vec<f64>,
    /// Peak `VmHWM` of the workload's main process per round, MB.
    pub peak_rss_mb: Vec<f64>,
    /// Peak `VmHWM` of its worker processes per round, MB.
    pub workers_rss_mb: Vec<f64>,
    /// Worker exit after the coordinator's, per `fleet-traced` round, s.
    pub tail_s: Vec<f64>,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Round 0's CSV (the benchmark seed's); none for `serve-mix`.
    pub csvs: Vec<String>,
    /// The cache-hit stream (`serve-mix` only).
    pub hits: Option<HitStats>,
}

impl Measured {
    /// The end-to-end metrics every workload reports.
    pub fn end_to_end(&self) -> Vec<Metric> {
        vec![
            Metric::median("setup_s", &self.setup_s, "s"),
            Metric::median("wall_s", &self.wall_s, "s"),
            Metric::median("sim_speed", &self.sim_speed, "s/s"),
            Metric::median("peak_rss_mb", &self.peak_rss_mb, "MB"),
        ]
    }

    /// The error rate and, for `serve-mix`, the service latencies.
    pub fn extras(&self) -> Vec<Metric> {
        let attempted = self.tally.attempted.max(1);
        let mut out = vec![
            Metric::median("runs_per_s", &self.runs_per_s, "1/s"),
            Metric::new(
                "error_rate",
                self.tally.failed as f64 / attempted as f64,
                "ratio",
                attempted as usize,
            ),
        ];
        if !self.workers_rss_mb.is_empty() {
            out.push(Metric::median(
                "workers_peak_rss_mb",
                &self.workers_rss_mb,
                "MB",
            ));
        }
        if !self.tail_s.is_empty() {
            out.push(Metric::median("shutdown_tail_s", &self.tail_s, "s"));
        }
        if let Some(hits) = &self.hits {
            out.push(Metric::median("cold_rtt_s_p50", &self.cold_rtt_s, "s"));
            out.push(Metric::median("hit_rtt_ms_p50", &hits.rtt_ms, "ms"));
            if let Some(p) = tail_percentile(hits.rtt_ms.len()) {
                let name = format!("hit_rtt_ms_p{p}");
                let value = percentile(&hits.rtt_ms, p);
                out.push(Metric::new(&name, value, "ms", hits.rtt_ms.len()));
            }
            let late = percentile(&hits.late_ms, 99.0);
            out.push(Metric::new(
                "hit_late_ms_p99",
                late,
                "ms",
                hits.late_ms.len(),
            ));
        }
        out
    }
}

/// Runs `round(0)`, then `round(1)`, ... up to `rounds` rounds, while one
/// more round of the same length still ends inside `window` and before
/// `deadline`.
fn repeat(
    rounds: usize,
    window: Duration,
    deadline: Instant,
    mut round: impl FnMut(usize) -> Result<Duration, String>,
) -> Result<(), String> {
    let start = Instant::now();
    for k in 0..rounds {
        let took = round(k)?;
        let next_end = Instant::now() + took;
        if next_end > start + window || next_end > deadline {
            break;
        }
    }
    Ok(())
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

fn write_scenario(dir: &Path, spec: &ScenarioSpec) -> Result<String, String> {
    let path = dir.join(format!("scenario-{}.toml", spec.campaign.seed));
    std::fs::write(&path, spec.to_toml()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn read_csv(dir: &Path) -> Result<String, String> {
    let path = dir.join("campaign_results.csv");
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Measures one workload: setups, then rounds for `window` (at least
/// one), with every round's outputs checked against the campaign matrix.
pub fn measure(ctx: &Ctx, workload: Workload, window: Duration) -> Measured {
    let mut m = Measured {
        workload,
        setup_s: Vec::new(),
        wall_s: Vec::new(),
        cold_rtt_s: Vec::new(),
        runs_per_s: Vec::new(),
        sim_speed: Vec::new(),
        peak_rss_mb: Vec::new(),
        workers_rss_mb: Vec::new(),
        tail_s: Vec::new(),
        tally: Tally::default(),
        csvs: Vec::new(),
        hits: None,
    };
    let dir = ctx.out.join(workload.name());
    let deadline = Instant::now() + RUN_BUDGET;
    let result = fresh_dir(&dir).and_then(|()| match workload {
        Workload::CampaignQuick | Workload::AttackSweep => {
            batch(ctx, &dir, &mut m, window, deadline)
        }
        Workload::FleetTraced => fleet(ctx, &dir, &mut m, window, deadline),
        Workload::ServeMix => serve(ctx, &dir, &mut m, window, deadline),
    });
    if let Err(e) = result {
        m.tally.check("workload", Err(e));
    }
    m
}

/// One campaign's measurements.
pub struct Round {
    /// Launch until ready, s.
    pub setup_s: f64,
    /// Launch until the main process exited with its CSV written, s.
    pub wall_s: f64,
    /// Launch until every run was in, s.
    pub campaign_s: f64,
    /// The campaign's CSV.
    pub csv: String,
    /// Peak RSS of the main process, MB.
    pub main_rss_mb: f64,
    /// Peak RSS of the worker processes, MB (0 without workers).
    pub workers_rss_mb: f64,
    /// Worker exit after the main process's, s (fleet only).
    pub tail_s: Option<f64>,
}

/// Simulated flight seconds in a campaign CSV.
fn flight_seconds(csv: &str) -> f64 {
    csv.lines()
        .skip(1)
        .filter_map(|row| row.split(',').nth(5)?.parse::<f64>().ok())
        .sum()
}

impl Measured {
    /// Records round `k` and checks its CSV against the matrix (an aborted
    /// row is a failed operation). Round 0, flown at the benchmark seed
    /// itself, keeps its CSV for the checks against other campaigns.
    fn add(&mut self, k: usize, round: Round, config: &CampaignConfig) {
        let runs = config.matrix().len();
        self.setup_s.push(round.setup_s);
        self.wall_s.push(round.wall_s);
        self.runs_per_s.push(runs as f64 / round.wall_s);
        self.sim_speed
            .push(flight_seconds(&round.csv) / round.campaign_s);
        self.peak_rss_mb.push(round.main_rss_mb);
        if round.workers_rss_mb > 0.0 {
            self.workers_rss_mb.push(round.workers_rss_mb);
        }
        self.tail_s.extend(round.tail_s);
        match checks::matrix_rows(&round.csv, config) {
            Ok(aborted) => self.tally.count(runs as u64, aborted),
            Err(e) => self.tally.check("campaign matrix", Err(e)),
        }
        if k == 0 {
            self.csvs = vec![round.csv];
        }
    }
}

/// `campaign-quick` and `attack-sweep`: one `reproduce` per round.
fn batch(
    ctx: &Ctx,
    dir: &Path,
    m: &mut Measured,
    window: Duration,
    deadline: Instant,
) -> Result<(), String> {
    let workload = m.workload;
    let scenario = |k: usize| {
        let seed = scenarios::round_seed(ctx.seed, k);
        match workload {
            Workload::AttackSweep => scenarios::attack_sweep(seed, ctx.smoke),
            _ => scenarios::campaign_quick(seed, ctx.smoke),
        }
    };
    let out = dir.join("out");
    let args = |spec: &ScenarioSpec, out: &Path| -> Result<Vec<String>, String> {
        Ok(vec![
            "--scenario".into(),
            write_scenario(dir, spec)?,
            "--no-extras".into(),
            "--out".into(),
            out.display().to_string(),
        ])
    };
    let launch = |args: &[String]| -> Result<(Proc, Instant, f64), String> {
        let t0 = Instant::now();
        let mut p = Proc::spawn(&ctx.bins.reproduce, args, false)?;
        let ready = p.wait_line("] campaign: ", (t0 + LAUNCH_TIMEOUT).min(deadline))?;
        Ok((p, t0, (ready.at - t0).as_secs_f64()))
    };
    let probe_args = args(&scenario(0), &dir.join("probe"))?;
    let probe = |m: &mut Measured| {
        m.tally.attempted += 1;
        match launch(&probe_args) {
            Ok((_, _, setup)) => m.setup_s.push(setup),
            Err(e) => m.tally.fail(e),
        }
    };
    setup_probes(ctx, m, probe, |m| {
        repeat(usize::MAX, window, deadline, |k| {
            m.tally.attempted += 1;
            let spec = scenario(k);
            let (mut p, t0, setup_s) = launch(&args(&spec, &out)?)?;
            // Logged once every run is in, before the three figure flights.
            let campaign = p.wait_line("running figure scenarios", deadline)?;
            let mut rss = RssWatch::default();
            let exits = wait_all(&mut [&mut p], &mut rss, deadline)?;
            p.expect_success()?;
            let round = Round {
                setup_s,
                wall_s: (exits[0] - t0).as_secs_f64(),
                campaign_s: (campaign.at - t0).as_secs_f64(),
                csv: read_csv(&out)?,
                main_rss_mb: rss.main_mb(),
                workers_rss_mb: 0.0,
                tail_s: None,
            };
            m.add(k, round, &CampaignConfig::from_scenario(&spec));
            Ok(exits[0] - t0)
        })
    })
}

/// Measures half the extra setups with `probe`, then the rounds, then the
/// other half: a launch takes about a millisecond, and how long varies by
/// a quarter over seconds with the host, so two points in time steady the
/// run's median.
fn setup_probes(
    ctx: &Ctx,
    m: &mut Measured,
    probe: impl Fn(&mut Measured),
    rounds: impl FnOnce(&mut Measured) -> Result<(), String>,
) -> Result<(), String> {
    let half = probes(ctx, SETUP_PROBES) / 2;
    (0..half).for_each(|_| probe(m));
    rounds(m)?;
    (0..half).for_each(|_| probe(m));
    Ok(())
}

/// A running `fleet run` or `serve` with its worker processes, which the
/// benchmark starts itself (`--no-spawn`) so it can reap every one.
struct Service {
    main: Proc,
    workers: Vec<Proc>,
    http: SocketAddr,
    started: Instant,
    setup_s: f64,
}

impl Service {
    /// Starts `program args`, reads the worker and HTTP addresses it
    /// prints, starts the workers, and polls `ready` until it holds.
    fn start(
        program: &Path,
        args: &[String],
        http_needle: &str,
        ready: &dyn Fn(SocketAddr) -> Result<bool, String>,
        deadline: Instant,
    ) -> Result<Service, String> {
        let started = Instant::now();
        let deadline = (started + LAUNCH_TIMEOUT).min(deadline);
        let mut main = Proc::spawn(program, args, true)?;
        let lines = main.wait_lines(&["connect workers to ", http_needle], deadline)?;
        let addr = |text: &str, after: &str| -> Result<SocketAddr, String> {
            text.split(after)
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|a| a.parse().ok())
                .ok_or_else(|| format!("no address in '{text}'"))
        };
        let connect = addr(&lines[0].text, "connect workers to ")?.to_string();
        let http = addr(&lines[1].text, "http://")?;
        let workers = (0..parallelism())
            .map(|id| {
                let args =
                    ["worker", "--connect", &connect, "--id", &id.to_string()].map(String::from);
                Proc::spawn(program, &args, false)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut service = Service {
            main,
            workers,
            http,
            started,
            setup_s: 0.0,
        };
        while !ready(http)? {
            if Instant::now() > deadline {
                return Err(format!("{} never became ready", program.display()));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        service.setup_s = started.elapsed().as_secs_f64();
        Ok(service)
    }

    fn procs(&mut self) -> Vec<&mut Proc> {
        std::iter::once(&mut self.main)
            .chain(self.workers.iter_mut())
            .collect()
    }
}

fn fleet_args(toml: &str, out: &Path) -> Vec<String> {
    [
        "run",
        "--scenario",
        toml,
        "--workers",
        &parallelism().to_string(),
        "--out",
        &out.display().to_string(),
        "--trace-dir",
        &out.join("boxes").display().to_string(),
        "--serve-metrics",
        "127.0.0.1:0",
        "--no-spawn",
    ]
    .map(String::from)
    .to_vec()
}

/// A fleet is ready once every worker has been handed a unit, as its span
/// journal records. (`/status` lists a worker only after its first
/// heartbeat, 2 s in, which a short campaign may not live to see.)
fn fleet_ready(out: &Path) -> Result<bool, String> {
    let Ok(bytes) = std::fs::read(out.join("campaign_spans.ifsp")) else {
        return Ok(false);
    };
    let log = imufit_obs::spans::SpanLog::decode(&bytes)
        .map_err(|e| format!("campaign_spans.ifsp: {e}"))?;
    let mut workers: Vec<u32> = log
        .events
        .iter()
        .filter(|e| e.kind == imufit_obs::spans::SpanKind::Dispatched)
        .map(|e| e.worker)
        .collect();
    workers.sort_unstable();
    workers.dedup();
    Ok(workers.len() >= parallelism())
}

fn start_fleet(bins: &Bins, toml: &str, out: &Path, deadline: Instant) -> Result<Service, String> {
    fresh_dir(out)?;
    let ready = |_: SocketAddr| fleet_ready(out);
    Service::start(
        &bins.fleet,
        &fleet_args(toml, out),
        "alerts on http://",
        &ready,
        deadline,
    )
}

/// A `serve` is ready once `/status` lists every worker.
fn start_serve(bins: &Bins, store: &Path, deadline: Instant) -> Result<Service, String> {
    let ready = |http: SocketAddr| Ok(status_workers(http)? >= parallelism());
    Service::start(
        &bins.serve,
        &serve_args(store),
        "campaign service on http://",
        &ready,
        deadline,
    )
}

/// Runs a `fleet run` to completion. The coordinator writes its CSV and
/// exits as soon as the last run merged; its workers follow once their
/// heartbeat thread wakes, which is the round's shutdown tail.
pub fn fleet_once(bins: &Bins, toml: &str, out: &Path, deadline: Instant) -> Result<Round, String> {
    let mut service = start_fleet(bins, toml, out, deadline)?;
    let mut rss = RssWatch::default();
    let exits = wait_all(&mut service.procs(), &mut rss, deadline)?;
    for p in service.procs() {
        p.expect_success()?;
    }
    let wall_s = (exits[0] - service.started).as_secs_f64();
    let last = exits.iter().max().copied().unwrap_or(exits[0]);
    Ok(Round {
        setup_s: service.setup_s,
        wall_s,
        campaign_s: wall_s,
        csv: read_csv(out)?,
        main_rss_mb: rss.main_mb(),
        workers_rss_mb: rss.workers_mb(),
        tail_s: Some((last - exits[0]).as_secs_f64()),
    })
}

/// `fleet-traced`: a coordinator and two worker processes per round.
fn fleet(
    ctx: &Ctx,
    dir: &Path,
    m: &mut Measured,
    window: Duration,
    deadline: Instant,
) -> Result<(), String> {
    // The campaign-quick document: the two CSVs must match byte for byte.
    let scenario =
        |k: usize| scenarios::campaign_quick(scenarios::round_seed(ctx.seed, k), ctx.smoke);
    let out = dir.join("out");
    let probe_toml = write_scenario(dir, &scenario(0))?;
    let probe = |m: &mut Measured| {
        m.tally.attempted += 1;
        match start_fleet(&ctx.bins, &probe_toml, &dir.join("probe"), deadline) {
            Ok(service) => m.setup_s.push(service.setup_s),
            Err(e) => m.tally.fail(e),
        }
    };
    setup_probes(ctx, m, probe, |m| {
        repeat(usize::MAX, window, deadline, |k| {
            m.tally.attempted += 1;
            let spec = scenario(k);
            let config = CampaignConfig::from_scenario(&spec);
            let round = fleet_once(&ctx.bins, &write_scenario(dir, &spec)?, &out, deadline)?;
            let took = Duration::from_secs_f64(round.wall_s);
            m.tally
                .check("fleet outputs", fleet_outputs(&out, config.matrix().len()));
            m.add(k, round, &config);
            Ok(took)
        })
    })
}

/// Every persisted format a traced fleet run writes decodes, and each
/// accounts for every run.
fn fleet_outputs(out: &Path, runs: usize) -> Result<(), String> {
    let read = |name: &str| std::fs::read(out.join(name)).map_err(|e| format!("{name}: {e}"));
    let ckpt = imufit::fleet::Checkpoint::decode(&read("fleet.ckpt")?)
        .map_err(|e| format!("fleet.ckpt: {e}"))?;
    if ckpt.entries.len() != runs {
        return Err(format!(
            "fleet.ckpt holds {} of {runs} runs",
            ckpt.entries.len()
        ));
    }
    let spans = imufit_obs::spans::SpanLog::decode(&read("campaign_spans.ifsp")?)
        .map_err(|e| format!("campaign_spans.ifsp: {e}"))?;
    let merged = spans
        .events
        .iter()
        .filter(|e| e.kind == imufit_obs::spans::SpanKind::Merged)
        .count();
    if merged != runs {
        return Err(format!(
            "campaign_spans.ifsp merged {merged} of {runs} runs"
        ));
    }
    if read("campaign_metrics.ifms")?.is_empty() {
        return Err("campaign_metrics.ifms is empty".to_string());
    }
    let boxes: Vec<PathBuf> = std::fs::read_dir(out.join("boxes"))
        .map_err(|e| format!("boxes: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ifbb"))
        .collect();
    if boxes.len() != runs {
        return Err(format!("{} black boxes for {runs} runs", boxes.len()));
    }
    for path in boxes {
        let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        imufit::trace::BlackBox::decode(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

fn serve_args(store: &Path) -> Vec<String> {
    [
        "--addr",
        "127.0.0.1:0",
        "--store",
        &store.display().to_string(),
        "--workers",
        &parallelism().to_string(),
        "--no-spawn",
    ]
    .map(String::from)
    .to_vec()
}

/// Sends one request, counting it; a non-2xx reply is a failure.
fn call(
    tally: &mut Tally,
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<String, String> {
    tally.attempted += 1;
    match http::request(addr, method, path, body) {
        Ok((code, reply)) if (200..300).contains(&code) => Ok(reply),
        Ok((code, reply)) => {
            tally.failed += 1;
            Err(format!("{method} {path} answered {code}: {reply}"))
        }
        Err(e) => {
            tally.failed += 1;
            Err(e)
        }
    }
}

/// One cold campaign, closed loop: submit, poll its status every 20 ms,
/// fetch the CSV.
fn cold_campaign(
    tally: &mut Tally,
    addr: SocketAddr,
    body: &str,
    deadline: Instant,
) -> Result<String, String> {
    let reply = call(tally, addr, "POST", "/campaigns?tenant=cold", body)?;
    if !reply.contains("\"cached\": false") {
        return Err(format!("a first submission was served from cache: {reply}"));
    }
    let id = loadgen::campaign_id(&reply).ok_or_else(|| format!("no campaign id in {reply}"))?;
    loop {
        std::thread::sleep(COLD_POLL);
        let status = call(tally, addr, "GET", &format!("/campaigns/{id}"), "")?;
        if status.contains("\"state\": \"complete\"") {
            break;
        }
        if Instant::now() > deadline {
            return Err(format!("cold campaign {id} did not complete in time"));
        }
    }
    call(tally, addr, "GET", &format!("/campaigns/{id}/results"), "")
}

/// One pass of the cold stream: the seven cold campaigns of one cycle.
struct ColdCycle {
    /// The campaigns, in the order they were sent.
    specs: Vec<ScenarioSpec>,
    /// Each campaign's submit until its CSV was in hand, s.
    rtts: Vec<f64>,
    /// Each campaign's CSV.
    csvs: Vec<String>,
    /// The first submit until the last CSV was in hand, s.
    wall_s: f64,
}

/// `serve-mix`: one `serve` with two workers, a closed-loop cold stream of
/// campaigns and, from the first completion on, the open-loop hit stream.
/// The cold stream moves on to the next cycle while `window` lasts.
fn serve(
    ctx: &Ctx,
    dir: &Path,
    m: &mut Measured,
    window: Duration,
    deadline: Instant,
) -> Result<(), String> {
    let begun = Instant::now();
    for i in 0..probes(ctx, SERVE_SETUP_PROBES) {
        m.tally.attempted += 1;
        let store = dir.join(format!("probe-{i}"));
        match start_serve(&ctx.bins, &store, deadline) {
            Ok(service) => m.setup_s.push(service.setup_s),
            Err(e) => m.tally.fail(e),
        }
    }
    m.tally.attempted += 1;
    let mut service = start_serve(&ctx.bins, &dir.join("store"), deadline)?;
    m.setup_s.push(service.setup_s);
    let addr = service.http;
    let completed: Mutex<Vec<Arc<Target>>> = Mutex::new(Vec::new());
    let (first_tx, first_rx) = channel::<()>();
    let mut rss = RssWatch::default();
    let pairs = if ctx.smoke {
        SMOKE_HIT_PAIRS
    } else {
        HIT_PAIRS
    };
    let mut rng = Pcg::seed_from(ctx.seed).derive(&[4]);
    let (cold_tally, cycles, cold_result, hits) = std::thread::scope(|s| {
        let cold_client = s.spawn(|| {
            let mut tally = Tally::default();
            let mut cycles = Vec::new();
            let window = window.saturating_sub(begun.elapsed());
            let cycles_max = scenarios::cold_cycles(ctx.smoke);
            let result = repeat(cycles_max, window, deadline, |k| {
                let start = Instant::now();
                let mut cycle = ColdCycle {
                    specs: scenarios::serve_cold(ctx.seed, k, ctx.smoke),
                    rtts: Vec::new(),
                    csvs: Vec::new(),
                    wall_s: 0.0,
                };
                for spec in &cycle.specs {
                    let body = spec.to_toml();
                    let t0 = Instant::now();
                    let csv = cold_campaign(&mut tally, addr, &body, deadline)?;
                    cycle.rtts.push(t0.elapsed().as_secs_f64());
                    completed
                        .lock()
                        .expect("no thread panics holding the target list")
                        .push(Arc::new(Target {
                            body: scenarios::reordered(&body),
                            csv: csv.clone(),
                        }));
                    let _ = first_tx.send(());
                    cycle.csvs.push(csv);
                }
                let took = start.elapsed();
                cycle.wall_s = took.as_secs_f64();
                cycles.push(cycle);
                Ok(took)
            });
            drop(first_tx);
            (tally, cycles, result)
        });
        let left = deadline.saturating_duration_since(Instant::now());
        let hits = first_rx.recv_timeout(left).ok().map(|()| {
            let procs: Vec<&Proc> = std::iter::once(&service.main)
                .chain(&service.workers)
                .collect();
            loadgen::hit_stream(
                addr,
                pairs,
                Schedule {
                    rate: loadgen::HIT_RATE,
                },
                &mut rng,
                &|| {
                    completed
                        .lock()
                        .expect("no thread panics holding the target list")
                        .clone()
                },
                &mut || rss.sample(&procs),
            )
        });
        let (tally, cycles, result) = cold_client.join().expect("the cold client does not panic");
        (tally, cycles, result, hits)
    });
    rss.sample(&service.procs().iter().map(|p| &**p).collect::<Vec<_>>());
    for p in service.procs() {
        p.stop();
    }
    m.tally.count(cold_tally.attempted, cold_tally.failed);
    m.tally.errors.extend(cold_tally.errors);
    m.tally.check("cold stream", cold_result);
    m.peak_rss_mb.push(rss.main_mb());
    m.workers_rss_mb.push(rss.workers_mb());
    // Each cycle as a whole, which flies every fault twice whatever the
    // seed: the median of single campaigns would jump between the seed's
    // short and long ones.
    for cycle in &cycles {
        let mut runs = 0;
        for (spec, csv) in cycle.specs.iter().zip(&cycle.csvs) {
            let config = CampaignConfig::from_scenario(spec);
            runs += config.matrix().len();
            match checks::matrix_rows(csv, &config) {
                Ok(aborted) => m.tally.count(config.matrix().len() as u64, aborted),
                Err(e) => m.tally.check("cold campaign matrix", Err(e)),
            }
            m.tally
                .check("cold rows are golden rows", checks::golden_within(csv));
        }
        let flown: f64 = cycle.csvs.iter().map(|csv| flight_seconds(csv)).sum();
        m.wall_s.push(cycle.wall_s);
        m.runs_per_s.push(runs as f64 / cycle.wall_s);
        m.sim_speed.push(flown / cycle.wall_s);
        m.cold_rtt_s.extend(&cycle.rtts);
    }
    match hits {
        Some(hits) => {
            m.tally.count(hits.requests, hits.failed);
            m.tally.errors.extend(hits.first_error.clone());
            if hits.rtt_ms.len() + (hits.failed as usize) < pairs {
                m.tally
                    .check("hit stream", Err("not every pair was sent".to_string()));
            }
            m.hits = Some(hits);
        }
        None => m
            .tally
            .check("hit stream", Err("no cold campaign completed".to_string())),
    }
    Ok(())
}

/// The checks a single workload can make on its own, re-flying a few
/// seed-chosen runs in-process (`run` compares whole workloads instead).
pub fn self_checks(ctx: &Ctx, m: &mut Measured) {
    let quick = CampaignConfig::from_scenario(&scenarios::campaign_quick(ctx.seed, ctx.smoke));
    let Some(csv) = m.csvs.last().cloned() else {
        return;
    };
    match m.workload {
        Workload::CampaignQuick | Workload::FleetTraced => {
            let picks = checks::picks(ctx.seed, 10, quick.matrix().len(), 2);
            m.tally.check(
                "re-flown rows",
                checks::reflown(&csv, &quick, &quick, &picks),
            );
            if ctx.seed == 2024 {
                m.tally
                    .check("golden rows", checks::golden_rows(&csv, ctx.smoke));
            }
        }
        Workload::AttackSweep => {
            let sweep =
                CampaignConfig::from_scenario(&scenarios::attack_sweep(ctx.seed, ctx.smoke));
            let gold = checks::picks(ctx.seed, 11, sweep.missions.len(), 1);
            let gold_check = checks::reflown(&csv, &sweep, &quick, &gold);
            m.tally.check("gold rows match campaign-quick", gold_check);
            let attack = checks::picks(ctx.seed, 12, sweep.matrix().len(), 1);
            m.tally.check(
                "re-flown rows",
                checks::reflown(&csv, &sweep, &sweep, &attack),
            );
        }
        // Every cold row was held against the golden file as it came in.
        Workload::ServeMix => {}
    }
}

/// The checks across workloads `run` makes once all four ran.
pub fn cross_checks(ctx: &Ctx, all: &[Measured]) -> Tally {
    let mut tally = Tally::default();
    let csv = |w: Workload| {
        all.iter()
            .find(|m| m.workload == w)
            .map(|m| m.csvs.clone())
            .unwrap_or_default()
    };
    let (quick, sweep, fleet) = (
        csv(Workload::CampaignQuick),
        csv(Workload::AttackSweep),
        csv(Workload::FleetTraced),
    );
    let Some(quick) = quick.first() else {
        tally.check("campaign-quick CSV", Err("missing".to_string()));
        return tally;
    };
    if let Some(fleet) = fleet.first() {
        tally.check(
            "fleet-traced CSV is campaign-quick's",
            checks::identical(quick, fleet),
        );
    }
    if let Some(sweep) = sweep.first() {
        tally.check(
            "attack-sweep gold rows are campaign-quick's",
            checks::same_gold_rows(quick, sweep),
        );
    }
    if ctx.seed == 2024 {
        tally.check("golden rows", checks::golden_rows(quick, ctx.smoke));
    }
    tally
}
