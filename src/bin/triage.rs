//! Post-mortem triage over imufit black-box flight traces.
//!
//! Reads `.ifbb` files (or directories of them) produced by a campaign run
//! with tracing enabled (`reproduce --trace-dir DIR`) and prints, per run,
//! the causal event timeline — fault activation, detector rising edge,
//! voter exclusions, cascade transitions, outcome, each chained to the
//! event that caused it — followed by a fault-to-detection /
//! detection-to-mitigation latency table grouped by campaign cell.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin triage -- [--diff] PATH [PATH ...]
//! cargo run --release --bin triage -- metrics SERIES.ifms [SERIES.ifms ...]
//! cargo run --release --bin triage -- spans SPANS.ifsp [SPANS.ifsp ...]
//! ```
//!
//! The `metrics` subcommand reads the metric time-series a campaign
//! records with `--serve-metrics` (`campaign_metrics.ifms`) and renders
//! per-sample throughput, lease expiries, and tick-latency quantiles.
//!
//! The `spans` subcommand reads a fleet campaign's execution span journal
//! (`campaign_spans.ifsp`) and renders the unit lifecycle accounting, a
//! dispatch/execute waterfall, per-cell latency tables, and the critical
//! path of the slowest units.
//!
//! Exit status: 0 when every input decoded, 1 when any file was unreadable
//! or corrupt (the survivors are still analyzed), 2 on usage errors.

use std::path::{Path, PathBuf};

use imufit_trace::triage::{
    match_gold, render_diff, render_latency_table, render_timeline, RunTrace,
};
use imufit_trace::BlackBox;

const USAGE: &str = "usage: triage [--diff] PATH [PATH ...]
       triage metrics SERIES.ifms [SERIES.ifms ...]
       triage spans SPANS.ifsp [SPANS.ifsp ...]

Reads imufit black-box flight traces (.ifbb files, or directories scanned
for them) and prints per-run causal timelines plus per-cell
fault-to-detection / detection-to-mitigation latency tables.

`triage metrics` instead reads metric time-series files recorded by
`reproduce`/`fleet` with `--serve-metrics` and renders run throughput,
lease expiries, and tick-latency quantiles over the campaign's lifetime.

`triage spans` reads a fleet campaign's execution span journal
(campaign_spans.ifsp) and renders unit lifecycle accounting, a
dispatch/execute waterfall, per-cell queue/execute/merge latency, and the
critical path of the slowest units.

  --diff      also diff each faulty run against its mission's gold run
  --help, -h  this text";

/// Builds one `triage metrics` report, mapping the decode failures a
/// campaign actually leaves behind (empty file from a plane that never
/// sampled, torn tail from a killed process) to messages that say so.
fn metrics_report(path: &Path) -> Result<String, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read: {e}"))?;
    if bytes.is_empty() {
        return Err("empty .ifms file: the recorder wrote no samples \
                    (campaign too short, or plane never started?)"
            .to_string());
    }
    match imufit_obs::timeseries::TimeSeries::decode(&bytes) {
        Ok(series) => Ok(imufit_obs::timeseries::render_rates(&series)),
        Err(imufit_obs::snapshot::SnapshotError::Truncated) => {
            Err("torn .ifms file: truncated mid-frame (writer killed mid-flush?)".to_string())
        }
        Err(e) => Err(e.to_string()),
    }
}

/// Builds one `triage spans` report from a `.ifsp` journal.
fn spans_report(path: &Path) -> Result<String, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read: {e}"))?;
    if bytes.is_empty() {
        return Err("empty .ifsp file: the coordinator journaled no spans".to_string());
    }
    match imufit_obs::spans::SpanLog::decode(&bytes) {
        Ok(log) => Ok(imufit_obs::spans::render_report(&log)),
        Err(e) => Err(e.to_string()),
    }
}

/// Shared driver for the report subcommands: one report per input path,
/// failures go to stderr, survivors still print.
fn run_reports(kind: &str, paths: &[PathBuf], report: fn(&Path) -> Result<String, String>) -> ! {
    if paths.is_empty() {
        die(&format!("triage {kind}: no input files"));
    }
    let mut failures = 0usize;
    for path in paths {
        match report(path) {
            Ok(text) => {
                println!("=== {} ===", path.display());
                println!("{text}");
            }
            Err(e) => {
                eprintln!("triage: {}: {e}", path.display());
                failures += 1;
            }
        }
    }
    std::process::exit(if failures > 0 { 1 } else { 0 });
}

/// Prints an argument error plus usage to stderr and exits 2.
fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// Expands arguments into a sorted list of `.ifbb` files.
fn collect_files(paths: &[PathBuf]) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for path in paths {
        if path.is_dir() {
            let mut found: Vec<PathBuf> = std::fs::read_dir(path)
                .map(|entries| {
                    entries
                        .filter_map(Result::ok)
                        .map(|e| e.path())
                        .filter(|p| p.extension().is_some_and(|ext| ext == "ifbb"))
                        .collect()
                })
                .unwrap_or_default();
            found.sort();
            files.extend(found);
        } else {
            files.push(path.clone());
        }
    }
    files
}

fn main() {
    // The metrics subcommand short-circuits before flat-flag parsing: its
    // inputs are .ifms series, not black boxes.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("metrics") {
        let paths: Vec<PathBuf> = raw[1..].iter().map(PathBuf::from).collect();
        run_reports("metrics", &paths, metrics_report);
    }
    if raw.first().map(String::as_str) == Some("spans") {
        let paths: Vec<PathBuf> = raw[1..].iter().map(PathBuf::from).collect();
        run_reports("spans", &paths, spans_report);
    }
    let mut diff = false;
    let mut paths: Vec<PathBuf> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--diff" => diff = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other if other.starts_with('-') => die(&format!("unknown argument: {other}")),
            other => paths.push(PathBuf::from(other)),
        }
    }
    if paths.is_empty() {
        die("no input paths");
    }

    let files = collect_files(&paths);
    if files.is_empty() {
        eprintln!("triage: no .ifbb files under the given paths");
        std::process::exit(1);
    }

    let mut runs: Vec<RunTrace> = Vec::new();
    let mut failures = 0usize;
    for file in &files {
        let label = file
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| file.display().to_string());
        let bytes = match std::fs::read(file) {
            Ok(bytes) => bytes,
            Err(e) => {
                eprintln!("triage: cannot read {}: {e}", file.display());
                failures += 1;
                continue;
            }
        };
        match BlackBox::decode(&bytes) {
            Ok(bb) => runs.push(RunTrace::new(label, bb)),
            Err(e) => {
                eprintln!("triage: {}: {e}", file.display());
                failures += 1;
            }
        }
    }
    if runs.is_empty() {
        eprintln!("triage: no decodable black boxes");
        std::process::exit(1);
    }

    for run in &runs {
        println!("{}", render_timeline(run));
    }
    println!("{}", render_latency_table(&runs));

    if diff {
        for run in &runs {
            if run.meta.is_gold() {
                continue;
            }
            match match_gold(run, &runs) {
                Some(gold) => println!("{}", render_diff(run, gold)),
                None => println!("--- diff: {}: no matching gold run loaded\n", run.label),
            }
        }
    }

    if failures > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imufit_obs::snapshot::Snapshot;
    use imufit_obs::spans::{SpanEvent, SpanKind, SpanLog, Tail};
    use imufit_obs::timeseries::TimeSeries;

    fn temp_file(name: &str, bytes: &[u8]) -> PathBuf {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn metrics_report_names_the_empty_file_case() {
        let path = temp_file("triage_test_empty.ifms", b"");
        let err = metrics_report(&path).unwrap_err();
        assert!(err.contains("empty .ifms"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn metrics_report_names_the_torn_tail_case() {
        let series = TimeSeries {
            started_unix_ms: 1,
            frames: vec![(0, Snapshot::default()), (1000, Snapshot::default())],
        };
        let bytes = series.encode();
        // Cut inside the final frame, as a SIGKILL mid-flush would.
        let path = temp_file("triage_test_torn.ifms", &bytes[..bytes.len() - 3]);
        let err = metrics_report(&path).unwrap_err();
        assert!(err.contains("torn .ifms"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn metrics_report_renders_a_valid_series() {
        let series = TimeSeries {
            started_unix_ms: 1,
            frames: vec![(0, Snapshot::default())],
        };
        let path = temp_file("triage_test_ok.ifms", &series.encode());
        let text = metrics_report(&path).unwrap();
        assert!(text.contains("1 samples"), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn spans_report_renders_and_rejects() {
        let log = SpanLog {
            campaign: 7,
            total_units: 1,
            started_unix_ms: 1,
            events: vec![
                SpanEvent {
                    detail: "cell".into(),
                    ..SpanEvent::new(0, SpanKind::Enqueued)
                },
                SpanEvent {
                    t_offset_ms: 2,
                    worker: 0,
                    span: 1,
                    ..SpanEvent::new(0, SpanKind::Dispatched)
                },
                SpanEvent {
                    t_offset_ms: 9,
                    worker: 0,
                    span: 1,
                    ..SpanEvent::new(0, SpanKind::Merged)
                },
            ],
            tail: Tail::Clean,
        };
        let path = temp_file("triage_test_spans.ifsp", &log.encode());
        let text = spans_report(&path).unwrap();
        assert!(text.contains("waterfall"), "{text}");
        assert!(text.contains("critical path"), "{text}");
        let _ = std::fs::remove_file(&path);

        let empty = temp_file("triage_test_spans_empty.ifsp", b"");
        let err = spans_report(&empty).unwrap_err();
        assert!(err.contains("empty .ifsp"), "{err}");
        let _ = std::fs::remove_file(&empty);

        let garbage = temp_file("triage_test_spans_garbage.ifsp", b"not a journal at all");
        assert!(spans_report(&garbage).is_err());
        let _ = std::fs::remove_file(&garbage);
    }
}
