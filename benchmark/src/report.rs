//! Metric values and how the benchmark prints and files them.

use imufit::scenario::doc::{self, Value};

use crate::stats::{median, quartiles, regressed, Better};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The name `BENCHMARK.json` uses.
    pub name: String,
    /// The value; NaN when nothing was measured.
    pub value: f64,
    /// The unit.
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub n: usize,
}

impl Metric {
    /// A metric from one value.
    pub fn new(name: &str, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            n,
        }
    }

    /// The median of `samples`.
    pub fn median(name: &str, samples: &[f64], unit: &'static str) -> Metric {
        Metric::new(name, median(samples), unit, samples.len())
    }
}

/// Prints one workload's metrics as aligned `name value unit (n=..)` lines.
pub fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<34} {:>14.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.n
        );
    }
}

/// A JSON number; a value that was never measured is `null`.
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// The benchmark's final stdout line: one compact JSON object.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The document form of a metric list, for `results.json`.
pub fn metrics_value(metrics: &[Metric]) -> Value {
    let mut table = Value::table();
    for m in metrics {
        let mut entry = Value::table();
        if m.value.is_finite() {
            entry.set("value", Value::Float(m.value));
        }
        entry.set("unit", Value::Str(m.unit.to_string()));
        entry.set("n", Value::Int(m.n as u64));
        table.set(&m.name, entry);
    }
    table
}

/// One end-to-end metric declared in `BENCHMARK.json`.
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Improvement direction.
    pub better: Better,
    /// Allowed worsening, as a share of the baseline median.
    pub bound: f64,
}

/// Reads the end-to-end metrics declared in a `BENCHMARK.json`.
pub fn declared(path: &std::path::Path) -> Result<Vec<Declared>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let root = doc::parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Value::Arr(items)) = root.get("end_to_end") else {
        return Err(format!("{}: no end_to_end list", path.display()));
    };
    items
        .iter()
        .map(|item| {
            let name = match item.get("name") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err("an end_to_end entry has no name".to_string()),
            };
            let better = match item.get("better") {
                Some(Value::Str(s)) => Better::parse(s),
                _ => None,
            }
            .ok_or_else(|| format!("{name}: bad 'better'"))?;
            let bound = match item.get("bound") {
                Some(Value::Float(x)) => *x,
                Some(Value::Int(n)) => *n as f64,
                _ => return Err(format!("{name}: bad 'bound'")),
            };
            Ok(Declared {
                name,
                better,
                bound,
            })
        })
        .collect()
}

/// `metric -> workload -> values` from every `results.json` under `dir`.
fn collect(dir: &std::path::Path) -> Result<Vec<(String, String, Vec<f64>)>, String> {
    let mut out: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).map_err(|e| format!("{}: {e}", d.display()))? {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.file_name().is_some_and(|n| n == "results.json") {
                files.push(path);
            }
        }
    }
    for file in files {
        let text = std::fs::read_to_string(&file).map_err(|e| e.to_string())?;
        let root = doc::parse_json(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        for (workload, entry) in root.get("workloads").map(Value::entries).unwrap_or(&[]) {
            for (metric, v) in entry.get("metrics").map(Value::entries).unwrap_or(&[]) {
                let Some(Value::Float(x)) = v.get("value") else {
                    continue;
                };
                match out
                    .iter_mut()
                    .find(|(m, w, _)| m == metric && w == workload)
                {
                    Some((_, _, values)) => values.push(*x),
                    None => out.push((metric.clone(), workload.clone(), vec![*x])),
                }
            }
        }
    }
    Ok(out)
}

/// Compares two sets of `run` results metric by metric: prints each set's
/// median and quartiles, and fails when the second set's median is worse
/// than the first's by more than the declared bound.
pub fn compare(
    bench: &std::path::Path,
    a: &std::path::Path,
    b: &std::path::Path,
) -> Result<bool, String> {
    let declared = declared(bench)?;
    let (set_a, set_b) = (collect(a)?, collect(b)?);
    let mut ok = true;
    println!(
        "{:<14} {:<12} {:>34} {:>34}  verdict",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)"
    );
    for d in &declared {
        for (metric, workload, va) in set_a.iter().filter(|(m, _, _)| *m == d.name) {
            let Some((_, _, vb)) = set_b.iter().find(|(m, w, _)| m == metric && w == workload)
            else {
                continue;
            };
            let show = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{:.4} [{:.4}, {:.4}] ({})", median(v), q1, q3, v.len())
            };
            let worse = regressed(median(va), median(vb), d.better, d.bound);
            ok &= !worse;
            println!(
                "{:<14} {:<12} {:>34} {:>34}  {}",
                workload,
                metric,
                show(va),
                show(vb),
                if worse {
                    "WORSE than bound"
                } else {
                    "within bound"
                }
            );
        }
    }
    Ok(ok)
}
