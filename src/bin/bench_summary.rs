//! Aggregates bench estimates into a single `BENCH_campaign.json`.
//!
//! The vendored criterion stub appends one JSON line per finished bench
//! (`{"name":"...","median_ns":...,"samples":N}`) to the file named by the
//! `IMUFIT_BENCH_ESTIMATES` environment variable. This binary reads that
//! JSONL file and writes a deterministic summary object mapping each bench
//! name to its median nanoseconds per iteration (the **last** estimate for
//! a name wins, so re-runs supersede stale lines).
//!
//! Usage:
//!
//! ```text
//! IMUFIT_BENCH_ESTIMATES=bench_estimates.jsonl \
//!     cargo bench -p imufit-bench --bench components
//! cargo run --bin bench_summary -- bench_estimates.jsonl BENCH_campaign.json
//! cargo run --bin bench_summary -- --gate OLD.json bench_estimates.jsonl NEW.json
//! cargo run --bin bench_summary -- --gate OLD.json --hard ...
//! ```
//!
//! `--gate OLD.json` additionally compares the fresh medians against a
//! previously committed summary and prints a `::warning::` line (the
//! GitHub Actions annotation format) for every gated bench that regressed
//! by more than 10%. The gate is soft by default: regressions warn, they
//! never fail the build, because CI runners have noisy clocks. `--hard`
//! turns every would-be warning into a nonzero exit (code 3) for callers
//! that want the gate to actually gate.

use std::io::Write as _;

use imufit_obs::{escape_json, info, warn};

/// Benches held to the soft perf-regression gate. Kept short and stable:
/// the closed-loop step is the product's hot path, the trace-off tick
/// guards the observability layer's zero-cost claim, the whole-run
/// experiment guards campaign throughput end to end, and the obs-on tick
/// guards what observing the tick costs.
const GATED_BENCHES: [&str; 4] = [
    "sim/closed_loop_step",
    "trace/tick_off",
    "campaign/run_experiment",
    "sim/tick_obs_on",
];

/// Regression threshold for the soft gate.
const GATE_TOLERANCE: f64 = 0.10;

/// The obs layer's tick overhead budget: the tick with obs on (the stage
/// profiler sampling 1 tick in 64) may cost at most 2% more than the same
/// tick with the metric runtime kill-switch thrown.
const OBS_OVERHEAD_BUDGET: f64 = 1.02;

fn main() {
    imufit_obs::log::init();
    let mut raw_args: Vec<String> = std::env::args().skip(1).collect();
    let hard = raw_args.iter().any(|a| a == "--hard");
    raw_args.retain(|a| a != "--hard");
    let mut gate: Option<String> = None;
    if raw_args.first().map(String::as_str) == Some("--gate") {
        if raw_args.len() < 2 {
            warn!("--gate requires a baseline summary path");
            std::process::exit(2);
        }
        gate = Some(raw_args.remove(1));
        raw_args.remove(0);
    }
    let mut args = raw_args.into_iter();
    let input = args
        .next()
        .or_else(|| std::env::var("IMUFIT_BENCH_ESTIMATES").ok())
        .unwrap_or_else(|| "bench_estimates.jsonl".to_string());
    let output = args
        .next()
        .unwrap_or_else(|| "BENCH_campaign.json".to_string());

    let raw = match std::fs::read_to_string(&input) {
        Ok(s) => s,
        Err(e) => {
            warn!("cannot read estimates file {input}: {e}");
            std::process::exit(1);
        }
    };
    let estimates = aggregate(&raw);
    if estimates.is_empty() {
        warn!("no bench estimates found in {input}");
        std::process::exit(1);
    }
    let json = render(&estimates);
    let mut f =
        std::fs::File::create(&output).unwrap_or_else(|e| panic!("cannot create {output}: {e}"));
    f.write_all(json.as_bytes())
        .unwrap_or_else(|e| panic!("cannot write {output}: {e}"));
    info!("wrote {} ({} benches)", output, estimates.len());

    if let Some(baseline_path) = gate {
        match std::fs::read_to_string(&baseline_path) {
            Ok(baseline) => {
                let regressions = check_gate(&parse_summary(&baseline), &estimates);
                if hard && regressions > 0 {
                    warn!("perf gate: {regressions} regression(s) and --hard is set; failing");
                    std::process::exit(3);
                }
            }
            Err(e) => warn!("perf gate: cannot read baseline {baseline_path}: {e} (skipping)"),
        }
    }
}

/// Parses a committed `BENCH_campaign.json` back into (name, median_ns)
/// pairs. Reuses the line-oriented extractors: the renderer emits one
/// bench per line.
fn parse_summary(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(colon) = line.find("\": {") else {
            continue;
        };
        let Some(name) = line.strip_prefix('"').map(|s| s[..colon - 1].to_string()) else {
            continue;
        };
        if let Some(median_ns) = extract_number(line, "median_ns") {
            out.push((name, median_ns));
        }
    }
    out
}

/// Compares fresh medians against the committed baseline for the gated
/// benches, printing GitHub annotation warnings for >10% regressions.
/// Returns the regression count; `main` only exits non-zero on it under
/// `--hard`.
fn check_gate(baseline: &[(String, f64)], fresh: &[(String, f64)]) -> usize {
    let mut regressions = 0;
    for name in GATED_BENCHES {
        let old = baseline.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        let new = fresh.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        match (old, new) {
            (Some(old), Some(new)) if old > 0.0 => {
                let ratio = new / old;
                if ratio > 1.0 + GATE_TOLERANCE {
                    regressions += 1;
                    println!(
                        "::warning::perf gate: {name} regressed {:.1}% \
                         ({old:.1} ns -> {new:.1} ns)",
                        (ratio - 1.0) * 100.0
                    );
                } else {
                    info!(
                        "perf gate: {name} ok ({old:.1} ns -> {new:.1} ns, {:+.1}%)",
                        (ratio - 1.0) * 100.0
                    );
                }
            }
            _ => warn!("perf gate: {name} missing from baseline or fresh run (skipping)"),
        }
    }
    regressions + check_obs_overhead(fresh)
}

/// The obs-overhead gate rides the fresh run alone: obs-on vs obs-off
/// medians of the same warmed tick must stay within
/// [`OBS_OVERHEAD_BUDGET`]. Returns 1 on breach, counting toward the
/// `--hard` exit like any other regression.
fn check_obs_overhead(fresh: &[(String, f64)]) -> usize {
    let get = |name: &str| fresh.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    match (get("sim/tick_obs_off"), get("sim/tick_obs_on")) {
        (Some(off), Some(on)) if off > 0.0 => {
            let ratio = on / off;
            if ratio > OBS_OVERHEAD_BUDGET {
                println!(
                    "::warning::perf gate: obs overhead {:.2}% exceeds the \
                     {:.0}% budget ({off:.1} ns -> {on:.1} ns)",
                    (ratio - 1.0) * 100.0,
                    (OBS_OVERHEAD_BUDGET - 1.0) * 100.0
                );
                return 1;
            }
            info!(
                "perf gate: obs overhead ok ({off:.1} ns -> {on:.1} ns, {:+.2}%)",
                (ratio - 1.0) * 100.0
            );
            0
        }
        _ => {
            warn!("perf gate: obs overhead pair missing from fresh run (skipping)");
            0
        }
    }
}

/// Parses the JSONL estimates and reduces them to sorted (name, median_ns)
/// pairs; the last line for a given name wins.
fn aggregate(raw: &str) -> Vec<(String, f64)> {
    let mut by_name: Vec<(String, f64)> = Vec::new();
    for line in raw.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Some((name, median_ns)) = parse_line(line) else {
            continue;
        };
        match by_name.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = median_ns,
            None => by_name.push((name, median_ns)),
        }
    }
    by_name.sort_by(|a, b| a.0.cmp(&b.0));
    by_name
}

/// Extracts `name` and `median_ns` from one estimate line. Tolerates
/// arbitrary extra fields; returns `None` on malformed input.
fn parse_line(line: &str) -> Option<(String, f64)> {
    let name = extract_string(line, "name")?;
    let median_ns = extract_number(line, "median_ns")?;
    median_ns.is_finite().then_some((name, median_ns))
}

/// Reads the JSON string value of `key`, handling `\"` and `\\` escapes.
fn extract_string(line: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\":\"");
    let start = line.find(&marker)? + marker.len();
    let mut out = String::new();
    let mut chars = line[start..].chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                c => out.push(c),
            },
            c => out.push(c),
        }
    }
}

/// Reads the JSON number value of `key`.
fn extract_number(line: &str, key: &str) -> Option<f64> {
    let marker = format!("\"{key}\":");
    let start = line.find(&marker)? + marker.len();
    let rest = line[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Metrics computed from the raw medians rather than measured directly:
/// whole-campaign throughput (`campaign/runs_per_sec`, per core — one
/// worker flying back-to-back runs) and the obs layer's tick overhead
/// ratio.
/// Emitted in their own `derived` section so the gate's median-based
/// parser ignores them.
fn derived(estimates: &[(String, f64)]) -> Vec<(String, f64)> {
    let get = |name: &str| estimates.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    let mut out = Vec::new();
    if let Some(ns) = get("campaign/run_experiment") {
        if ns > 0.0 {
            out.push(("campaign/runs_per_sec".to_string(), 1e9 / ns));
        }
    }
    if let (Some(off), Some(on)) = (get("sim/tick_obs_off"), get("sim/tick_obs_on")) {
        if off > 0.0 {
            out.push(("sim/obs_overhead_ratio".to_string(), on / off));
        }
    }
    out
}

/// Renders the summary object with escaped names, sorted by name.
fn render(estimates: &[(String, f64)]) -> String {
    let mut out = String::from("{\n  \"benches\": {\n");
    for (i, (name, median_ns)) in estimates.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{\"median_ns\": {:.1}}}{}\n",
            escape_json(name),
            median_ns,
            if i + 1 < estimates.len() { "," } else { "" }
        ));
    }
    let derived = derived(estimates);
    if derived.is_empty() {
        out.push_str("  }\n}\n");
        return out;
    }
    out.push_str("  },\n  \"derived\": {\n");
    for (i, (name, value)) in derived.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {:.3}{}\n",
            escape_json(name),
            value,
            if i + 1 < derived.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_sorts_and_last_wins() {
        let raw = "\
{\"name\":\"z/one\",\"median_ns\":100.0,\"samples\":11}
{\"name\":\"a/two\",\"median_ns\":50.0,\"samples\":11}
{\"name\":\"z/one\",\"median_ns\":120.0,\"samples\":11}
";
        let got = aggregate(raw);
        assert_eq!(
            got,
            vec![("a/two".to_string(), 50.0), ("z/one".to_string(), 120.0)]
        );
    }

    #[test]
    fn aggregate_skips_malformed_lines() {
        let raw =
            "not json\n{\"name\":\"ok\",\"median_ns\":1.5,\"samples\":3}\n{\"name\":\"bad\"}\n";
        assert_eq!(aggregate(raw), vec![("ok".to_string(), 1.5)]);
    }

    #[test]
    fn parse_line_unescapes_name() {
        let (name, ns) =
            parse_line("{\"name\":\"a\\\"b\\\\c\",\"median_ns\":2e3,\"samples\":1}").unwrap();
        assert_eq!(name, "a\"b\\c");
        assert_eq!(ns, 2000.0);
    }

    #[test]
    fn summary_parses_back_for_the_gate() {
        let estimates = vec![
            ("sim/closed_loop_step".to_string(), 4321.0),
            ("trace/tick_off".to_string(), 123.5),
        ];
        let json = render(&estimates);
        assert_eq!(parse_summary(&json), estimates);
    }

    #[test]
    fn derived_metrics_fold_into_the_summary() {
        let estimates = vec![
            ("campaign/run_experiment".to_string(), 2_000_000.0),
            ("sim/closed_loop_step".to_string(), 4_800.0),
        ];
        let json = render(&estimates);
        // 1e9 / 2ms = 500 runs/sec/core.
        assert!(
            json.contains("\"campaign/runs_per_sec\": 500.000"),
            "{json}"
        );
        // The gate's parser must only see the measured medians.
        assert_eq!(parse_summary(&json), estimates);
    }

    #[test]
    fn obs_overhead_ratio_is_derived_from_the_tick_pair() {
        let estimates = vec![
            ("sim/tick_obs_off".to_string(), 10_000.0),
            ("sim/tick_obs_on".to_string(), 10_100.0),
        ];
        let json = render(&estimates);
        assert!(json.contains("\"sim/obs_overhead_ratio\": 1.010"), "{json}");
        assert_eq!(parse_summary(&json), estimates);
    }

    /// `--hard` exits non-zero exactly when this count is non-zero: a
    /// regression past the 10% tolerance on a gated bench counts, and so
    /// does an obs overhead budget breach.
    #[test]
    fn gate_counts_regressions_for_hard_mode() {
        // The gate's verdict lines go straight to stderr, past the test
        // harness's output capture, and would interleave with the
        // harness's own `test ... ok` lines for the tests running beside
        // this one. Only the returned count is under test here.
        imufit_obs::log::set_level(imufit_obs::log::Level::Error);
        let baseline = vec![
            ("sim/closed_loop_step".to_string(), 1000.0),
            ("trace/tick_off".to_string(), 100.0),
        ];
        let mut fresh = baseline.clone();
        assert_eq!(check_gate(&baseline, &fresh), 0);
        // Within tolerance: +5% is noise, not a regression.
        fresh[1].1 = 105.0;
        assert_eq!(check_gate(&baseline, &fresh), 0);
        // A clear regression on one gated bench.
        fresh[0].1 = 1200.0;
        assert_eq!(check_gate(&baseline, &fresh), 1);
        // An obs-overhead budget breach counts too.
        fresh.push(("sim/tick_obs_off".to_string(), 10_000.0));
        fresh.push(("sim/tick_obs_on".to_string(), 10_500.0));
        assert_eq!(check_gate(&baseline, &fresh), 2);
    }

    #[test]
    fn render_roundtrips_through_parse() {
        let estimates = vec![("ekf/predict".to_string(), 321.5)];
        let json = render(&estimates);
        assert!(json.contains("\"ekf/predict\": {\"median_ns\": 321.5}"));
        assert!(json.starts_with('{') && json.ends_with("}\n"));
    }
}
