//! Registry export: Prometheus text exposition format and JSON.
//!
//! Output is deterministic (metrics sorted by name, then labels) so the
//! files diff cleanly between campaign runs.

use std::fmt::Write as _;

/// Renders the whole registry in the Prometheus text exposition format.
///
/// Rendering goes through [`crate::snapshot`] so a local export, a scrape
/// of the embedded server and a merged fleet-wide scrape all use one
/// renderer — label values are escaped on every series kind, and
/// histogram `_bucket`/`_sum`/`_count` lines carry the metric's own
/// labels merged with `le` (a labeled histogram renders as distinct,
/// valid series rather than colliding unlabeled ones).
pub fn prometheus() -> String {
    crate::snapshot::capture().to_prometheus()
}

/// One parsed exposition sample (see [`parse_prometheus`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric (or series) name, e.g. `sim_tick_seconds_bucket`.
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

/// Parses Prometheus text exposition back into samples (comments and
/// `# TYPE` lines are skipped). Supports exactly the subset
/// [`prometheus`] emits, including label escaping — used by the
/// round-trip tests and handy for ad-hoc tooling.
pub fn parse_prometheus(text: &str) -> Vec<Sample> {
    let mut samples = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = match parse_line(line) {
            Some(parsed) => parsed,
            None => continue,
        };
        samples.push(Sample {
            name: series.0,
            labels: series.1,
            value,
        });
    }
    samples
}

#[allow(clippy::type_complexity)]
fn parse_line(line: &str) -> Option<((String, Vec<(String, String)>), f64)> {
    let (series, value) = match line.find('{') {
        Some(brace) => {
            let close = line.rfind('}')?;
            let name = line[..brace].to_string();
            let labels = parse_labels(&line[brace + 1..close])?;
            ((name, labels), line[close + 1..].trim())
        }
        None => {
            let mut parts = line.splitn(2, ' ');
            let name = parts.next()?.to_string();
            ((name, Vec::new()), parts.next()?.trim())
        }
    };
    Some((series, value.parse().ok()?))
}

fn parse_labels(body: &str) -> Option<Vec<(String, String)>> {
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    while chars.peek().is_some() {
        let key: String = chars.by_ref().take_while(|c| *c != '=').collect();
        if chars.next() != Some('"') {
            return None;
        }
        let mut value = String::new();
        loop {
            match chars.next()? {
                '\\' => match chars.next()? {
                    'n' => value.push('\n'),
                    escaped => value.push(escaped),
                },
                '"' => break,
                c => value.push(c),
            }
        }
        labels.push((key.trim().to_string(), value));
        if chars.peek() == Some(&',') {
            chars.next();
        }
    }
    Some(labels)
}

/// Escapes a string for embedding in a JSON string literal: quotes,
/// backslashes and every control character.
pub fn escape_json(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            other => out.push(other),
        }
    }
    out
}

/// Renders the whole registry as a JSON document:
///
/// ```json
/// {
///   "counters":   [{"name":..., "labels":{...}, "value":N}, ...],
///   "gauges":     [{"name":..., "labels":{...}, "value":X}, ...],
///   "histograms": [{"name":..., "count":N, "sum":X,
///                   "p50":X, "p95":X, "p99":X}, ...]
/// }
/// ```
///
/// The `reproduce` binary writes this as `campaign_metrics.json`. Like
/// [`prometheus`], it renders a [`crate::snapshot::capture`].
pub fn json() -> String {
    crate::snapshot::capture().to_json()
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;
    use crate::{counter_labeled, gauge, histogram};

    #[test]
    fn prometheus_round_trips_label_escaping() {
        let awkward = "a\"b\\c\nd,e=f";
        let c = counter_labeled("obs_test_export_escape_total", "kind", awkward);
        c.add(7);
        let text = prometheus();
        let sample = parse_prometheus(&text)
            .into_iter()
            .find(|s| s.name == "obs_test_export_escape_total")
            .expect("exported sample present");
        assert_eq!(
            sample.labels,
            vec![("kind".to_string(), awkward.to_string())]
        );
        assert!(sample.value >= 7.0);
    }

    #[test]
    fn prometheus_histogram_series_are_cumulative() {
        let h = histogram("obs_test_export_hist_seconds", crate::buckets::LATENCY_S);
        h.observe(2e-6);
        h.observe(2e-3);
        let text = prometheus();
        let samples = parse_prometheus(&text);
        let buckets: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.name == "obs_test_export_hist_seconds_bucket")
            .collect();
        assert!(!buckets.is_empty());
        // Cumulative counts never decrease and the +Inf bucket equals count.
        let mut last = 0.0;
        for b in &buckets {
            assert!(b.value >= last, "non-monotone bucket series");
            last = b.value;
        }
        let count = samples
            .iter()
            .find(|s| s.name == "obs_test_export_hist_seconds_count")
            .unwrap()
            .value;
        assert_eq!(last, count);
    }

    #[test]
    fn json_is_well_formed_enough() {
        gauge("obs_test_export_gauge").set(2.5);
        let h = histogram("obs_test_export_json_hist", crate::buckets::RUN_S);
        h.observe(0.3);
        let doc = json();
        assert!(doc.contains("\"counters\""));
        assert!(doc.contains("\"obs_test_export_gauge\""));
        assert!(doc.contains("\"obs_test_export_json_hist\""));
        // Balanced braces/brackets as a cheap structural check.
        assert_eq!(
            doc.matches('{').count(),
            doc.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }
}
