//! `imufit-benchmark`: end-to-end and per-layer measurements of the imufit
//! campaign binaries.
//!
//! ```text
//! imufit-benchmark run   [--seed S] [--out DIR] [--smoke] [--workload W]
//! imufit-benchmark trace [--seed S] [--out DIR] [--smoke] [--workload W]
//! imufit-benchmark compare SET_A SET_B
//! imufit-benchmark --workload W --seed S --seconds N --trace 0|1 [--out DIR] [--smoke]
//! ```
//!
//! `run` measures the four workloads once each with tracing off, checks
//! their outputs against each other and writes `DIR/results.json`.
//! `trace` is the separate traced run that gives per-layer numbers and
//! writes `DIR/spans.jsonl`. `compare` holds two sets of `run` results
//! against the bounds in `BENCHMARK.json`. The last form measures one
//! workload for N seconds (or traces it) and prints one JSON result line.

mod checks;
mod http;
mod layers;
mod loadgen;
mod procs;
mod replica;
mod report;
mod scenarios;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::Duration;

use imufit::scenario::doc::Value;

use report::{print_metrics, result_line, Metric};
use scenarios::Workload;
use workloads::{Bins, Ctx, Measured};

const USAGE: &str = "usage: imufit-benchmark run   [--seed S] [--out DIR] [--smoke] [--workload W]
       imufit-benchmark trace [--seed S] [--out DIR] [--smoke] [--workload W]
       imufit-benchmark compare SET_A SET_B
       imufit-benchmark --workload W --seed S --seconds N --trace 0|1 [--out DIR] [--smoke]

  workloads: campaign-quick, attack-sweep, fleet-traced, serve-mix
  --seed S      input seed (default 2024)
  --out DIR     output directory (default .bench_build/out)
  --smoke       shrink every workload: 1 mission, 1 duration, 2 kinds";

/// Parsed command-line options.
struct Options {
    command: String,
    seed: u64,
    out: PathBuf,
    smoke: bool,
    workload: Option<Workload>,
    seconds: Option<u64>,
    trace: Option<bool>,
    sets: Vec<PathBuf>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        command: String::new(),
        seed: 2024,
        out: PathBuf::from(".bench_build/out"),
        smoke: false,
        workload: None,
        seconds: None,
        trace: None,
        sets: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or(format!("missing value for {flag}"))
        };
        match arg.as_str() {
            "--seed" => {
                o.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an integer")?
            }
            "--out" => o.out = PathBuf::from(value("--out")?),
            "--smoke" => o.smoke = true,
            "--workload" => {
                let name = value("--workload")?;
                o.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seconds" => {
                o.seconds = Some(
                    value("--seconds")?
                        .parse()
                        .map_err(|_| "--seconds takes an integer")?,
                )
            }
            "--trace" => {
                o.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                })
            }
            "run" | "trace" | "compare" if o.command.is_empty() => o.command = arg.clone(),
            other if o.command == "compare" && !other.starts_with("--") => {
                o.sets.push(PathBuf::from(other))
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(o)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse(&args) {
        Ok(options) => match execute(options) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                2
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn execute(o: Options) -> Result<i32, String> {
    if o.command == "compare" {
        let [a, b] = o.sets.as_slice() else {
            return Err(format!("compare takes two result directories\n{USAGE}"));
        };
        return Ok(if report::compare(Path::new("BENCHMARK.json"), a, b)? {
            0
        } else {
            1
        });
    }
    let ctx = Ctx {
        bins: Bins::locate()?,
        seed: o.seed,
        smoke: o.smoke,
        out: o.out.clone(),
    };
    let workloads: Vec<Workload> = match o.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    match (o.command.as_str(), o.workload, o.seconds, o.trace) {
        ("run", ..) => run(&ctx, &workloads),
        ("trace", ..) => {
            let failed: u64 = trace(&ctx, &workloads)?
                .iter()
                .map(|t| t.tally.failed)
                .sum();
            Ok(if failed == 0 { 0 } else { 1 })
        }
        ("", Some(w), Some(seconds), Some(false)) => Ok(measure_one(&ctx, w, seconds)),
        ("", Some(w), Some(_), Some(true)) => trace_one(&ctx, w),
        _ => Err(format!("nothing to do\n{USAGE}")),
    }
}

fn report_failures(name: &str, errors: &[String]) {
    for e in errors {
        eprintln!("{name}: FAILED {e}");
    }
}

/// `run`: every workload once, then the checks across workloads.
fn run(ctx: &Ctx, workloads: &[Workload]) -> Result<i32, String> {
    let mut all: Vec<Measured> = Vec::new();
    let mut doc = Value::table();
    for &w in workloads {
        let m = workloads::measure(ctx, w, Duration::ZERO);
        let mut metrics = m.end_to_end();
        metrics.extend(m.extras());
        print_metrics(w.name(), &metrics);
        report_failures(w.name(), &m.tally.errors);
        let mut entry = Value::table();
        entry.set("metrics", report::metrics_value(&metrics));
        entry.set("attempted", Value::Int(m.tally.attempted));
        entry.set("failed", Value::Int(m.tally.failed));
        doc.set(w.name(), entry);
        all.push(m);
    }
    let cross = workloads::cross_checks(ctx, &all);
    println!(
        "checks across workloads: {} of {} passed",
        cross.attempted - cross.failed,
        cross.attempted
    );
    report_failures("checks", &cross.errors);
    let failed = all.iter().map(|m| m.tally.failed).sum::<u64>() + cross.failed;
    let mut root = Value::table();
    root.set("seed", Value::Int(ctx.seed));
    root.set("smoke", Value::Bool(ctx.smoke));
    root.set("correct", Value::Bool(failed == 0));
    root.set("workloads", doc);
    write(
        &ctx.out.join("results.json"),
        &imufit::scenario::doc::to_json(&root),
    )?;
    println!(
        "{}",
        if failed == 0 {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(if failed == 0 { 0 } else { 1 })
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The spans of a traced run, one JSON object per line, with self time.
fn spans_jsonl(workload: Workload, spans: &[replica::Span]) -> String {
    let self_ns = replica::self_ns(spans);
    spans
        .iter()
        .map(|s| {
            format!(
                "{{\"workload\": \"{}\", \"run\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}\n",
                workload.name(),
                s.run,
                s.id,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns,
                self_ns.get(&s.id).copied().unwrap_or(0)
            )
        })
        .collect()
}

/// `trace`: the per-layer measurements of `workloads`, printed and filed
/// in `trace.json` and `spans.jsonl`.
fn trace(ctx: &Ctx, workloads: &[Workload]) -> Result<Vec<layers::Traced>, String> {
    let mut spans = String::new();
    let mut doc = Value::table();
    let mut all = Vec::new();
    for &w in workloads {
        let t = layers::trace(ctx, w);
        print_metrics(
            &format!("{} (sample of {} runs)", w.name(), t.sample_runs),
            &t.metrics,
        );
        report_failures(w.name(), &t.tally.errors);
        spans.push_str(&spans_jsonl(w, &t.spans));
        let mut entry = Value::table();
        entry.set("metrics", report::metrics_value(&t.metrics));
        entry.set("sample_runs", Value::Int(t.sample_runs as u64));
        doc.set(w.name(), entry);
        all.push(t);
    }
    let mut root = Value::table();
    root.set("seed", Value::Int(ctx.seed));
    root.set("workloads", doc);
    write(
        &ctx.out.join("trace.json"),
        &imufit::scenario::doc::to_json(&root),
    )?;
    write(&ctx.out.join("spans.jsonl"), &spans)?;
    Ok(all)
}

/// Measures one workload for `seconds` and prints the result line.
fn measure_one(ctx: &Ctx, workload: Workload, seconds: u64) -> i32 {
    let mut m = workloads::measure(ctx, workload, Duration::from_secs(seconds));
    workloads::self_checks(ctx, &mut m);
    let metrics = m.end_to_end();
    let mut shown = metrics.clone();
    shown.extend(m.extras());
    print_metrics(workload.name(), &shown);
    report_failures(workload.name(), &m.tally.errors);
    finish(&metrics, m.tally.attempted, m.tally.failed)
}

/// Traces one workload and prints the result line.
fn trace_one(ctx: &Ctx, workload: Workload) -> Result<i32, String> {
    let t = trace(ctx, &[workload])?.remove(0);
    Ok(finish(&t.metrics, t.tally.attempted, t.tally.failed))
}

/// Prints the result line; a run is correct when nothing failed and every
/// metric was measured.
fn finish(metrics: &[Metric], attempted: u64, failed: u64) -> i32 {
    let correct = failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    println!("{}", result_line(correct, attempted, failed, metrics));
    if correct {
        0
    } else {
        1
    }
}
