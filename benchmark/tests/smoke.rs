//! The benchmark end to end at `--smoke` size: every metric `BENCHMARK.json`
//! declares is printed, and every output check passes.
//!
//! The workspace binaries must sit next to the benchmark executable, so
//! build both into one target directory first:
//!
//! ```text
//! CARGO_TARGET_DIR=.bench_build cargo build --release --bins
//! CARGO_TARGET_DIR=.bench_build cargo test --release --manifest-path benchmark/Cargo.toml
//! ```

use std::path::Path;
use std::process::Command;

use imufit::scenario::doc::{parse_json, Value};

/// The `name` of every entry in one of `BENCHMARK.json`'s metric lists.
fn declared(bench: &Value, list: &str) -> Vec<String> {
    let Some(Value::Arr(items)) = bench.get(list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    items
        .iter()
        .map(|item| match item.get("name") {
            Some(Value::Str(name)) => name.clone(),
            _ => panic!("a {list} entry has no name"),
        })
        .collect()
}

/// Runs the benchmark and returns its stdout, failing with its stderr.
fn benchmark(root: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_imufit-benchmark"))
        .args(args)
        .current_dir(root)
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "imufit-benchmark {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// Whether `stdout` has a metric line for `name`.
fn printed(stdout: &str, name: &str) -> usize {
    stdout
        .lines()
        .filter(|l| l.split_whitespace().next() == Some(name))
        .count()
}

#[test]
fn smoke_run_prints_every_declared_metric_and_passes_its_checks() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the repository root");
    let bench = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let bench = parse_json(&bench).expect("BENCHMARK.json is JSON");
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let out = out.display().to_string();

    let run = benchmark(root, &["run", "--smoke", "--out", &out]);
    assert!(run.contains("all checks passed"), "{run}");
    for name in declared(&bench, "end_to_end") {
        assert_eq!(
            printed(&run, &name),
            4,
            "{name} is not printed for every workload:\n{run}"
        );
    }

    let trace = benchmark(
        root,
        &[
            "trace",
            "--smoke",
            "--workload",
            "campaign-quick",
            "--out",
            &out,
        ],
    );
    for name in declared(&bench, "per_layer") {
        assert_eq!(printed(&trace, &name), 1, "{name} is not printed:\n{trace}");
    }
    let _ = std::fs::remove_dir_all(&out);
}
