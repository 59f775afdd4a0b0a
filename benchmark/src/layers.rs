//! The traced run: per-layer numbers from in-process calls into each
//! layer's public functions, on a sample of the workload's runs.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use imufit::core::report::{render_experiments_md_with_extras, ExtraSections};
use imufit::core::{Campaign, CampaignResults, ExperimentRecord};
use imufit::fleet::{encode_msg, CampaignSession, ExecReport, FleetMsg, ResultsOutcome};
use imufit::math::rng::Pcg;
use imufit::serve::{CampaignService, ServiceConfig};
use imufit_obs::http::{ObsServer, Request, DEFAULT_MAX_BODY_BYTES};
use imufit_obs::spans::{unit_timelines, SpanEvent, SpanKind, SpanLog};

use crate::checks::{self, Tally};
use crate::loadgen::{self, Schedule, Target};
use crate::replica::{Replica, Span, Stage, Tracer};
use crate::report::Metric;
use crate::scenarios::{self, parallelism, Sample, Workload};
use crate::stats::{median, percentile};
use crate::workloads::{fleet_once, Ctx};

/// Every per-layer metric, in report order, with its unit.
pub const LAYER_METRICS: [(&str, &str); 50] = [
    ("estimator.predict_ns", "ns"),
    ("estimator.fuse_gps_ns", "ns"),
    ("estimator.fuse_baro_ns", "ns"),
    ("estimator.fuse_yaw_ns", "ns"),
    ("estimator.monitor_ns", "ns"),
    ("estimator.tick_share", "ratio"),
    ("estimator.gps_fusions_per_run", "count"),
    ("sensors.imu_sample_ns", "ns"),
    ("sensors.vote_ns", "ns"),
    ("sensors.aiding_sample_ns", "ns"),
    ("sensors.tick_share", "ratio"),
    ("faults.apply_bank_ns", "ns"),
    ("faults.attack_ns", "ns"),
    ("faults.tick_share", "ratio"),
    ("controller.update_ns", "ns"),
    ("controller.mitigation_ns", "ns"),
    ("controller.tick_share", "ratio"),
    ("dynamics.step_ns", "ns"),
    ("dynamics.wind_ns", "ns"),
    ("dynamics.tick_share", "ratio"),
    ("bubble.observe_ns", "ns"),
    ("telemetry.publish_ns", "ns"),
    ("uav.tick_ns", "ns"),
    ("uav.replica_agreement", "count"),
    ("core.run_ms_p50", "ms"),
    ("core.scaling_efficiency", "ratio"),
    ("core.figures_s", "s"),
    ("core.to_csv_ms", "ms"),
    ("core.report_ms", "ms"),
    ("obs.timer_ns_1t", "ns"),
    ("obs.timer_ns_2t", "ns"),
    ("obs.snapshot_encode_us", "us"),
    ("obs.span_frame_ns", "ns"),
    ("trace.tick_overhead_ratio", "ratio"),
    ("trace.box_encode_us", "us"),
    ("trace.box_decode_us", "us"),
    ("trace.box_kib_per_run", "KiB"),
    ("fleet.dispatch_unit_ns", "ns"),
    ("fleet.merge_row_ns", "ns"),
    ("fleet.bytes_per_unit", "B"),
    ("fleet.queue_wait_ms_p50", "ms"),
    ("fleet.dispatch_gap_ms_mean", "ms"),
    ("fleet.shutdown_tail_s", "s"),
    ("scenario.parse_us", "us"),
    ("scenario.dump_us", "us"),
    ("serve.submit_hit_us", "us"),
    ("serve.results_us", "us"),
    ("serve.accept_wait_ms", "ms"),
    ("loadgen.late_ms_p99", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// Calls timed per obs timer measurement.
const TIMER_OPS: u32 = 1_000_000;
/// Repetitions of the small codec and handler timings.
const REPEATS: u32 = 200;
/// Open-loop cache-hit pairs against the in-process service.
const HIT_PAIRS: usize = 240;
const SMOKE_HIT_PAIRS: usize = 30;

/// What a traced run measured.
pub struct Traced {
    /// Every per-layer metric, in [`LAYER_METRICS`] order.
    pub metrics: Vec<Metric>,
    /// Checks: replica agreement and the agreement of every path that
    /// flies the sample twice.
    pub tally: Tally,
    /// The kept spans of the replica pass.
    pub spans: Vec<Span>,
    /// Runs in the sample.
    pub sample_runs: usize,
}

/// Values in [`LAYER_METRICS`] order as they are measured.
struct Values(Vec<(&'static str, f64, usize)>);

impl Values {
    fn put(&mut self, name: &'static str, value: f64, n: usize) {
        self.0.push((name, value, n));
    }
}

/// Mean seconds per call of `f` over `n` calls.
fn mean_s(n: u32, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..n {
        f();
    }
    t.elapsed().as_secs_f64() / f64::from(n)
}

/// Runs the traced measurement of `workload`.
pub fn trace(ctx: &Ctx, workload: Workload) -> Traced {
    let sample = scenarios::trace_sample(workload, ctx.seed, ctx.smoke);
    let mut traced = Traced {
        metrics: Vec::new(),
        tally: Tally::default(),
        spans: Vec::new(),
        sample_runs: sample.specs.len(),
    };
    let mut values = Values(Vec::new());
    let dir = ctx.out.join(format!("trace-{}", workload.name()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))
        .and_then(|()| measure(ctx, workload, &sample, &dir, &mut values, &mut traced));
    if let Err(e) = result {
        traced.tally.check("traced run", Err(e));
    }
    for (name, unit) in LAYER_METRICS {
        match values.0.iter().find(|(n, _, _)| *n == name) {
            Some(&(_, value, n)) => traced.metrics.push(Metric::new(name, value, unit, n)),
            None => traced.metrics.push(Metric::new(name, f64::NAN, unit, 0)),
        }
    }
    traced
}

/// The real simulator over the sample, one thread, timed per run.
struct RealPass {
    records: Vec<ExperimentRecord>,
    run_ms: Vec<f64>,
    seconds: f64,
    ticks: u64,
}

fn real_pass(sample: &Sample) -> RealPass {
    let stamps = Mutex::new(Vec::new());
    let start = Instant::now();
    let stamp = |_: usize, _: usize| {
        stamps
            .lock()
            .expect("no thread panics holding the stamps")
            .push(Instant::now())
    };
    let results =
        Campaign::new(sample.config.clone()).run_specs_with_progress(&sample.specs, Some(&stamp));
    let seconds = start.elapsed().as_secs_f64();
    let mut last = start;
    let run_ms = stamps
        .into_inner()
        .expect("no thread panics holding the stamps")
        .into_iter()
        .map(|t| {
            let ms = (t - last).as_secs_f64() * 1e3;
            last = t;
            ms
        })
        .collect();
    let records = results.records().to_vec();
    let rate = sample.config.flight.physics_rate;
    let ticks = records
        .iter()
        .map(|r| (r.flight_duration * rate).round() as u64)
        .sum();
    RealPass {
        records,
        run_ms,
        seconds,
        ticks,
    }
}

/// The replica over the sample, with a span at every stage seam.
fn replica_pass(sample: &Sample) -> (Vec<ExperimentRecord>, Tracer) {
    let mut tracer = Tracer::new();
    let records = sample
        .specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            tracer.set_run(i as u32);
            let flown = Replica::new(&sample.config, spec).ok().and_then(|replica| {
                catch_unwind(AssertUnwindSafe(|| {
                    replica.fly(&sample.config, *spec, &mut tracer)
                }))
                .ok()
            });
            flown.unwrap_or_else(|| Campaign::aborted_record_for(&sample.config, *spec))
        })
        .collect();
    (records, tracer)
}

fn measure(
    ctx: &Ctx,
    workload: Workload,
    sample: &Sample,
    dir: &Path,
    v: &mut Values,
    traced: &mut Traced,
) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(160);
    let n = sample.specs.len();
    let tally = &mut traced.tally;

    // The tick layers: the real simulator and the replica fly the sample
    // side by side on two cores.
    let (real, (replica, tracer)) = if parallelism() > 1 {
        std::thread::scope(|s| {
            let real = s.spawn(|| real_pass(sample));
            let replica = replica_pass(sample);
            (real.join().expect("the real pass does not panic"), replica)
        })
    } else {
        (real_pass(sample), replica_pass(sample))
    };
    let agree = real
        .records
        .iter()
        .zip(&replica)
        .filter(|(a, b)| a == b)
        .count();
    tally.check(
        "replica agreement",
        (agree == n)
            .then_some(())
            .ok_or(format!("{agree} of {n} replica flights match")),
    );
    tick_layers(v, &tracer, n);
    let real_tick_ns = real.seconds * 1e9 / real.ticks as f64;
    v.put("uav.tick_ns", real_tick_ns, real.ticks as usize);
    v.put("uav.replica_agreement", agree as f64, n);
    v.put(
        "bench.trace_overhead_ratio",
        tracer.tick_ns as f64 / tracer.ticks as f64 / real_tick_ns,
        tracer.ticks as usize,
    );
    traced.spans = tracer.spans;

    // Core: thread scaling, figures, CSV and report rendering.
    v.put("core.run_ms_p50", median(&real.run_ms), n);
    let mut threaded = sample.config.clone();
    threaded.threads = parallelism();
    let t = Instant::now();
    let again = Campaign::new(threaded).run_specs_with_progress(&sample.specs, None);
    let scaled = t.elapsed().as_secs_f64();
    let same = (again.records() == real.records.as_slice()).then_some(());
    tally.check(
        "thread counts agree",
        same.ok_or("records differ across thread counts".to_string()),
    );
    v.put(
        "core.scaling_efficiency",
        real.seconds / (parallelism() as f64 * scaled),
        n,
    );
    let t = Instant::now();
    let figures = if ctx.smoke {
        let first = &imufit::core::figures::scenarios()[0];
        vec![imufit::core::figures::run_scenario(first, ctx.seed)]
    } else {
        imufit::core::figures::run_all(ctx.seed)
    };
    v.put("core.figures_s", t.elapsed().as_secs_f64(), figures.len());
    let results = CampaignResults::from_records(real.records.clone());
    let csv_s = mean_s(REPEATS, || {
        black_box(results.to_csv());
    });
    v.put("core.to_csv_ms", csv_s * 1e3, REPEATS as usize);
    let report_s = mean_s(10, || {
        black_box(render_experiments_md_with_extras(
            &results,
            &figures,
            &ExtraSections::default(),
        ));
    });
    v.put("core.report_ms", report_s * 1e3, 10);

    black_box_tracing(workload, ctx.smoke, sample, dir, v, tally)?;
    obs_layer(v);
    fleet_in_process(sample, dir, &real.records, v)?;

    // The fleet journal of a real two-process run of the sample.
    let toml = dir.join("sample.toml");
    std::fs::write(&toml, sample.scenario.to_toml())
        .map_err(|e| format!("{}: {e}", toml.display()))?;
    let out = dir.join("fleet");
    let round = fleet_once(&ctx.bins, &toml.display().to_string(), &out, deadline)?;
    let ended_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    tally.check(
        "fleet rows",
        checks::rows_within(&results.to_csv(), &round.csv),
    );
    let log = SpanLog::read(&out.join("campaign_spans.ifsp"))
        .map_err(|e| format!("campaign_spans.ifsp: {e}"))?;
    fleet_journal(&log, ended_ms, v);

    scenario_layer(workload, ctx, v);
    serve_layer(ctx, dir, deadline, v, tally)
}

/// Per-stage means and shares from the replica's counters.
fn tick_layers(v: &mut Values, tracer: &Tracer, runs: usize) {
    let ticks = tracer.ticks.max(1) as f64;
    let ns = |s: Stage| tracer.ns[s as usize] as f64;
    let calls = |s: Stage| tracer.calls[s as usize] as usize;
    let per_tick = |s: Stage| ns(s) / ticks;
    let per_call = |s: Stage| ns(s) / calls(s).max(1) as f64;
    let share = |stages: &[Stage]| {
        stages.iter().map(|&s| ns(s)).sum::<f64>() / tracer.tick_ns.max(1) as f64
    };
    let t = tracer.ticks as usize;
    use Stage::*;
    v.put("estimator.predict_ns", per_tick(Predict), t);
    v.put("estimator.fuse_gps_ns", per_call(FuseGps), calls(FuseGps));
    v.put(
        "estimator.fuse_baro_ns",
        per_call(FuseBaro),
        calls(FuseBaro),
    );
    v.put("estimator.fuse_yaw_ns", per_call(FuseYaw), calls(FuseYaw));
    // Per aiding sample: the fusion gate plus the ladder update.
    v.put(
        "estimator.monitor_ns",
        ns(Monitor) / calls(AidingSample).max(1) as f64,
        calls(AidingSample),
    );
    v.put(
        "estimator.tick_share",
        share(&[Predict, FuseGps, FuseBaro, FuseYaw, Monitor]),
        t,
    );
    v.put(
        "estimator.gps_fusions_per_run",
        calls(FuseGps) as f64 / runs.max(1) as f64,
        runs,
    );
    v.put("sensors.imu_sample_ns", per_tick(ImuSample), t);
    v.put("sensors.vote_ns", per_tick(Vote), t);
    v.put(
        "sensors.aiding_sample_ns",
        per_call(AidingSample),
        calls(AidingSample),
    );
    v.put(
        "sensors.tick_share",
        share(&[ImuSample, Vote, AidingSample]),
        t,
    );
    v.put("faults.apply_bank_ns", per_tick(ApplyBank), t);
    v.put("faults.attack_ns", per_tick(Attack), t);
    v.put("faults.tick_share", share(&[ApplyBank, Attack]), t);
    v.put("controller.update_ns", per_tick(Update), t);
    v.put("controller.mitigation_ns", per_tick(Mitigation), t);
    v.put("controller.tick_share", share(&[Update, Mitigation]), t);
    v.put("dynamics.step_ns", per_tick(Step), t);
    v.put("dynamics.wind_ns", per_tick(Wind), t);
    v.put("dynamics.tick_share", share(&[Step, Wind]), t);
    v.put("bubble.observe_ns", per_call(Bubble), calls(Bubble));
    v.put(
        "telemetry.publish_ns",
        per_call(Telemetry),
        calls(Telemetry),
    );
}

/// Black-box tracing: the first runs of the sample (all five for
/// `fleet-traced`, one at `--smoke`) flown with the collector off and on,
/// then the boxes they sealed decoded and re-encoded.
fn black_box_tracing(
    workload: Workload,
    smoke: bool,
    sample: &Sample,
    dir: &Path,
    v: &mut Values,
    tally: &mut Tally,
) -> Result<(), String> {
    let k = match (workload, smoke) {
        (_, true) => 1,
        (Workload::FleetTraced, false) => sample.specs.len(),
        _ => sample.specs.len().min(3),
    };
    let boxes = dir.join("boxes");
    std::fs::create_dir_all(&boxes).map_err(|e| format!("{}: {e}", boxes.display()))?;
    let mut armed = sample.config.clone();
    armed.trace.enabled = true;
    armed.trace_dir = Some(boxes.clone());
    let (mut off, mut on) = (0.0, 0.0);
    for spec in &sample.specs[..k] {
        let t = Instant::now();
        let plain = Campaign::run_experiment_isolated(&sample.config, *spec);
        off += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let traced = Campaign::run_experiment_isolated(&armed, *spec);
        on += t.elapsed().as_secs_f64();
        tally.check(
            "tracing leaves records alone",
            (plain == traced)
                .then_some(())
                .ok_or("records differ".to_string()),
        );
    }
    v.put("trace.tick_overhead_ratio", on / off, k);
    let (mut encode, mut decode, mut bytes, mut count) = (0.0, 0.0, 0usize, 0usize);
    for entry in std::fs::read_dir(&boxes).map_err(|e| e.to_string())? {
        let data =
            std::fs::read(entry.map_err(|e| e.to_string())?.path()).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let bb = imufit::trace::BlackBox::decode(&data).map_err(|e| format!("black box: {e}"))?;
        decode += t.elapsed().as_secs_f64();
        let t = Instant::now();
        black_box(bb.encode());
        encode += t.elapsed().as_secs_f64();
        bytes += data.len();
        count += 1;
    }
    let per_box = |s: f64| s * 1e6 / count.max(1) as f64;
    v.put("trace.box_encode_us", per_box(encode), count);
    v.put("trace.box_decode_us", per_box(decode), count);
    v.put("trace.box_kib_per_run", bytes as f64 / 1024.0 / k as f64, k);
    Ok(())
}

/// The metric registry: a named timer on one and two threads, snapshot
/// encoding, and span-journal framing.
fn obs_layer(v: &mut Values) {
    let timer = imufit_obs::timer("bench_layer_timer");
    let one = mean_s(TIMER_OPS, || drop(black_box(timer.enter())));
    v.put("obs.timer_ns_1t", one * 1e9, TIMER_OPS as usize);
    let two = std::thread::scope(|s| {
        let threads: Vec<_> = (0..parallelism())
            .map(|_| {
                s.spawn(|| {
                    let timer = imufit_obs::timer("bench_layer_timer");
                    mean_s(TIMER_OPS, || drop(black_box(timer.enter())))
                })
            })
            .collect();
        let per_op: Vec<f64> = threads
            .into_iter()
            .map(|h| h.join().expect("timer thread"))
            .collect();
        per_op.iter().sum::<f64>() / per_op.len() as f64
    });
    v.put(
        "obs.timer_ns_2t",
        two * 1e9,
        TIMER_OPS as usize * parallelism(),
    );
    let snapshot = imufit_obs::snapshot::capture();
    let encode = mean_s(REPEATS, || {
        black_box(snapshot.encode());
    });
    v.put("obs.snapshot_encode_us", encode * 1e6, REPEATS as usize);
    let event = SpanEvent {
        ticks: 117_500,
        exec_nanos: 600_000_000,
        stages: imufit_obs::profile::STAGE_NAMES
            .iter()
            .map(|s| (s.to_string(), 1_000_000))
            .collect(),
        ..SpanEvent::new(7, SpanKind::Executed)
    };
    let frame = mean_s(REPEATS * 100, || {
        black_box(event.encode_frame());
    });
    v.put("obs.span_frame_ns", frame * 1e9, REPEATS as usize * 100);
}

/// The coordinator's scheduling state in-process: dispatch every unit of
/// the sample's campaign, then merge the real records into it.
fn fleet_in_process(
    sample: &Sample,
    dir: &Path,
    records: &[ExperimentRecord],
    v: &mut Values,
) -> Result<(), String> {
    let ckpt = dir.join("session").join("fleet.ckpt");
    let mut session = CampaignSession::create(sample.scenario.clone(), None, &ckpt, false)
        .map_err(|e| e.to_string())?;
    let t = Instant::now();
    let dispatches: Vec<_> = std::iter::from_fn(|| session.next_unit(0)).collect();
    let dispatch = t.elapsed().as_secs_f64();
    let exec = ExecReport {
        ticks: 117_500,
        exec_nanos: 600_000_000,
        stages: imufit_obs::profile::STAGE_NAMES
            .iter()
            .map(|s| (s.to_string(), 1_000_000))
            .collect(),
    };
    let t = Instant::now();
    for (d, record) in dispatches.iter().zip(records) {
        session.handle_result(d.unit, record.clone(), d.span, exec.clone(), 0);
    }
    let merge = t.elapsed().as_secs_f64();
    let merged = dispatches.len().min(records.len());
    let bytes: usize = dispatches
        .iter()
        .zip(records)
        .map(|(d, record)| {
            let assign = FleetMsg::Assign {
                unit: d.unit,
                spec: d.spec,
                campaign_fp: d.campaign_fp,
                span: d.span,
                campaign: 0,
                spec_toml: None,
            };
            let result = FleetMsg::Result {
                unit: d.unit,
                record: record.clone(),
                span: d.span,
                exec: exec.clone(),
                campaign: 0,
            };
            encode_msg(&assign).len() + encode_msg(&result).len()
        })
        .sum();
    v.put(
        "fleet.dispatch_unit_ns",
        dispatch * 1e9 / dispatches.len().max(1) as f64,
        dispatches.len(),
    );
    v.put(
        "fleet.merge_row_ns",
        merge * 1e9 / merged.max(1) as f64,
        merged,
    );
    v.put(
        "fleet.bytes_per_unit",
        bytes as f64 / merged.max(1) as f64,
        merged,
    );
    Ok(())
}

/// Queue waits, the time a unit spends on a worker around its flight
/// (dispatch, result and merge), and the tail from the last merge until
/// every process exited.
fn fleet_journal(log: &SpanLog, ended_unix_ms: u64, v: &mut Values) {
    let timelines = unit_timelines(log);
    let queue: Vec<f64> = timelines
        .iter()
        .filter_map(|t| t.queue_ms())
        .map(|ms| ms as f64)
        .collect();
    v.put("fleet.queue_wait_ms_p50", median(&queue), queue.len());
    // Per worker: first dispatch to last merge, less the flights' own
    // time, over its units. The journal stamps whole milliseconds and one
    // unit's gap is well under one, so gaps between stamps read 0; the
    // flights are timed in nanoseconds.
    let mut workers: std::collections::BTreeMap<u32, (u64, u64, u64)> = Default::default();
    let mut units = 0;
    for t in &timelines {
        let (Some(dispatched), Some(merged)) = (t.dispatched_ms, t.merged_ms) else {
            continue;
        };
        let w = workers.entry(t.worker).or_insert((dispatched, merged, 0));
        w.0 = w.0.min(dispatched);
        w.1 = w.1.max(merged);
        w.2 += t.exec_nanos;
        units += 1;
    }
    let idle_ms: f64 = workers
        .values()
        .map(|&(first, last, flying_ns)| last.saturating_sub(first) as f64 - flying_ns as f64 / 1e6)
        .sum();
    v.put(
        "fleet.dispatch_gap_ms_mean",
        idle_ms.max(0.0) / units.max(1) as f64,
        units,
    );
    let last_merge = timelines
        .iter()
        .filter_map(|t| t.merged_ms)
        .max()
        .unwrap_or(0);
    let tail_ms = ended_unix_ms.saturating_sub(log.started_unix_ms + last_merge);
    v.put("fleet.shutdown_tail_s", tail_ms as f64 / 1e3, 1);
}

/// Parsing and dumping the workload's scenario document.
fn scenario_layer(workload: Workload, ctx: &Ctx, v: &mut Values) {
    let spec = match workload {
        Workload::CampaignQuick | Workload::FleetTraced => {
            scenarios::campaign_quick(ctx.seed, ctx.smoke)
        }
        Workload::AttackSweep => scenarios::attack_sweep(ctx.seed, ctx.smoke),
        Workload::ServeMix => scenarios::serve_cold(ctx.seed, 0, ctx.smoke).remove(0),
    };
    let toml = spec.to_toml();
    let parse = mean_s(REPEATS, || {
        black_box(imufit::scenario::ScenarioSpec::from_toml(&toml).ok());
    });
    let dump = mean_s(REPEATS, || {
        black_box(spec.to_toml());
    });
    v.put("scenario.parse_us", parse * 1e6, REPEATS as usize);
    v.put("scenario.dump_us", dump * 1e6, REPEATS as usize);
}

/// The campaign service in-process: one cold campaign flown by two
/// in-process workers, the hit path's route handlers timed directly, then
/// the same routes over HTTP on an open-loop schedule. Half a pair's
/// round trip minus the handler time is what a request waits to be
/// accepted.
fn serve_layer(
    ctx: &Ctx,
    dir: &Path,
    deadline: Instant,
    v: &mut Values,
    tally: &mut Tally,
) -> Result<(), String> {
    let body = scenarios::serve_cold(ctx.seed, 0, ctx.smoke)
        .remove(0)
        .to_toml();
    let service = CampaignService::start(ServiceConfig::new(dir.join("serve-store")))
        .map_err(|e| e.to_string())?;
    let workers: Vec<_> = (0..parallelism())
        .map(|id| {
            let addr = service.worker_addr();
            std::thread::spawn(move || imufit::fleet::run_worker(addr, id as u32))
        })
        .collect();
    let handler = imufit::serve::handler(service.clone());
    let request = |method: &str, path: &str, query: &str, body: &str| Request {
        method: method.to_string(),
        path: path.to_string(),
        query: query.to_string(),
        body: body.as_bytes().to_vec(),
    };
    let result = (|| {
        let reply = handler(&request("POST", "/campaigns", "tenant=bench", &body))
            .ok_or("the service does not route POST /campaigns")?;
        let id =
            loadgen::campaign_id(&reply.body).ok_or(format!("no campaign id in {}", reply.body))?;
        let csv = loop {
            if let ResultsOutcome::Csv(csv) = service.results(id as u32) {
                break csv;
            }
            if Instant::now() > deadline {
                return Err("the in-process campaign did not complete".to_string());
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let hit = request(
            "POST",
            "/campaigns",
            "tenant=bench",
            &scenarios::reordered(&body),
        );
        let submit = mean_s(REPEATS, || {
            black_box(handler(&hit));
        });
        let fetch = request("GET", &format!("/campaigns/{id}/results"), "", "");
        let results = mean_s(REPEATS, || {
            black_box(handler(&fetch));
        });
        v.put("serve.submit_hit_us", submit * 1e6, REPEATS as usize);
        v.put("serve.results_us", results * 1e6, REPEATS as usize);

        let server = ObsServer::serve_with(
            "127.0.0.1:0",
            Some(service.aggregate()),
            Some(handler.clone()),
            DEFAULT_MAX_BODY_BYTES,
        )
        .map_err(|e| format!("cannot bind the in-process server: {e}"))?;
        let target = Arc::new(Target {
            body: scenarios::reordered(&body),
            csv,
        });
        let pairs = if ctx.smoke {
            SMOKE_HIT_PAIRS
        } else {
            HIT_PAIRS
        };
        let stats = loadgen::hit_stream(
            server.addr(),
            pairs,
            Schedule {
                rate: loadgen::HIT_RATE,
            },
            &mut Pcg::seed_from(ctx.seed).derive(&[5]),
            &|| vec![Arc::clone(&target)],
            &mut || {},
        );
        server.shutdown();
        tally.count(stats.requests, stats.failed);
        tally.errors.extend(stats.first_error);
        let handler_ms = (submit + results) / 2.0 * 1e3;
        v.put(
            "serve.accept_wait_ms",
            median(&stats.rtt_ms) / 2.0 - handler_ms,
            stats.rtt_ms.len(),
        );
        v.put(
            "loadgen.late_ms_p99",
            percentile(&stats.late_ms, 99.0),
            stats.late_ms.len(),
        );
        Ok(())
    })();
    service.shutdown();
    for worker in workers {
        let _ = worker.join();
    }
    result
}
