//! Declarative SLO alert rules over live metric snapshots: the engine
//! behind the `/alerts` endpoint and the `[obs.alerts]` scenario section.
//!
//! A rule is one line of the form `<selector> <op> <threshold>`:
//!
//! ```text
//! fleet_lease_expiries_total > 0
//! tick_p99_us > 10
//! worker_busy_fraction < 0.5
//! ```
//!
//! Selectors resolve against a (fleet-merged) [`Snapshot`]:
//!
//! * a plain metric name — counter total (summed across labels) or gauge
//!   value;
//! * `<base>_p<Q>_<unit>` with unit `us`/`ms`/`s` — the `p<Q>` quantile of
//!   histogram `<base>_seconds` (falling back to `sim_<base>_seconds`, so
//!   `tick_p99_us` reads the sim tick histogram), scaled to the unit;
//! * `worker_busy_fraction` — derived: Σ per-worker busy-ms over
//!   `workers × elapsed-ms`, the fleet's utilisation.
//!
//! Operators: `>`, `>=`, `<`, `<=`, `==`, `!=`.
//!
//! Rules carry firing/resolved state: `pending` until the selector first
//! yields data, `ok`/`firing` while data flows, `resolved` after a firing
//! rule's condition clears. Transitions are logged through the leveled
//! stderr shim (`warn` on firing, `info` on resolve). Evaluation happens
//! on every `/alerts` scrape and on every recorder sample, reads only
//! snapshot copies, and — like the whole obs layer — can never perturb
//! simulation output.

use std::fmt;
use std::sync::OnceLock;
use std::time::Instant;

use parking_lot::Mutex;

use crate::escape_json;
use crate::snapshot::{Snapshot, SnapshotValue};

/// Comparison operator of a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertOp {
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl AlertOp {
    fn apply(self, value: f64, threshold: f64) -> bool {
        match self {
            AlertOp::Gt => value > threshold,
            AlertOp::Ge => value >= threshold,
            AlertOp::Lt => value < threshold,
            AlertOp::Le => value <= threshold,
            AlertOp::Eq => value == threshold,
            AlertOp::Ne => value != threshold,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            AlertOp::Gt => ">",
            AlertOp::Ge => ">=",
            AlertOp::Lt => "<",
            AlertOp::Le => "<=",
            AlertOp::Eq => "==",
            AlertOp::Ne => "!=",
        }
    }
}

/// One parsed SLO rule.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Metric selector (left-hand side).
    pub selector: String,
    /// Comparison operator.
    pub op: AlertOp,
    /// Threshold (right-hand side).
    pub threshold: f64,
}

impl fmt::Display for AlertRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {}",
            self.selector,
            self.op.symbol(),
            self.threshold
        )
    }
}

/// Parses one rule line. Returns a human-readable error for the scenario
/// layer to surface (`invalid [obs.alerts] rule ...`).
pub fn parse_rule(text: &str) -> Result<AlertRule, String> {
    let tokens: Vec<&str> = text.split_whitespace().collect();
    if tokens.len() != 3 {
        return Err(format!(
            "expected '<metric> <op> <threshold>', got '{text}'"
        ));
    }
    let selector = tokens[0];
    if selector.is_empty()
        || !selector
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_')
    {
        return Err(format!("invalid metric selector '{selector}'"));
    }
    let op = match tokens[1] {
        ">" => AlertOp::Gt,
        ">=" => AlertOp::Ge,
        "<" => AlertOp::Lt,
        "<=" => AlertOp::Le,
        "==" => AlertOp::Eq,
        "!=" => AlertOp::Ne,
        other => return Err(format!("unknown operator '{other}'")),
    };
    let threshold: f64 = tokens[2]
        .parse()
        .map_err(|_| format!("cannot parse threshold '{}'", tokens[2]))?;
    if !threshold.is_finite() {
        return Err(format!("threshold '{}' is not finite", tokens[2]));
    }
    Ok(AlertRule {
        selector: selector.to_string(),
        op,
        threshold,
    })
}

/// Lifecycle state of one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Selector has not yielded data yet.
    Pending,
    /// Data present, condition false, never fired.
    Ok,
    /// Condition currently true.
    Firing,
    /// Fired earlier, condition now false.
    Resolved,
}

impl AlertState {
    /// Lowercase label used in the JSON documents.
    pub fn label(self) -> &'static str {
        match self {
            AlertState::Pending => "pending",
            AlertState::Ok => "ok",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }
}

#[derive(Debug, Clone)]
struct RuleSlot {
    rule: AlertRule,
    state: AlertState,
    /// Latest evaluated value, when data was available.
    value: Option<f64>,
    /// Seconds (since board install) the rule entered its current
    /// firing/resolved state.
    since_s: Option<f64>,
}

#[derive(Debug, Default)]
struct BoardInner {
    slots: Vec<RuleSlot>,
}

/// The process-wide alert rule set with firing/resolved state.
#[derive(Debug)]
pub struct AlertBoard {
    inner: Mutex<BoardInner>,
    started: Instant,
}

impl Default for AlertBoard {
    fn default() -> Self {
        AlertBoard {
            inner: Mutex::default(),
            started: Instant::now(),
        }
    }
}

/// The global alert board (installed by the plane, read by the server).
pub fn board() -> &'static AlertBoard {
    static BOARD: OnceLock<AlertBoard> = OnceLock::new();
    BOARD.get_or_init(AlertBoard::default)
}

impl AlertBoard {
    /// Replaces the rule set, resetting all state.
    pub fn install(&self, rules: Vec<AlertRule>) {
        let mut inner = self.inner.lock();
        inner.slots = rules
            .into_iter()
            .map(|rule| RuleSlot {
                rule,
                state: AlertState::Pending,
                value: None,
                since_s: None,
            })
            .collect();
    }

    /// Number of rules currently firing.
    pub fn firing_count(&self) -> usize {
        self.inner
            .lock()
            .slots
            .iter()
            .filter(|s| s.state == AlertState::Firing)
            .count()
    }

    /// Evaluates every rule against `snap`, updating firing/resolved
    /// state and logging transitions.
    pub fn evaluate(&self, snap: &Snapshot) {
        let elapsed_s = self.started.elapsed().as_secs_f64();
        let mut inner = self.inner.lock();
        for slot in &mut inner.slots {
            let value = resolve_selector(snap, &slot.rule.selector, elapsed_s);
            slot.value = value;
            let Some(value) = value else {
                // No data: pending rules stay pending, firing rules hold
                // (a vanished metric is not a resolution).
                continue;
            };
            let breached = slot.rule.op.apply(value, slot.rule.threshold);
            let next = match (slot.state, breached) {
                (_, true) => AlertState::Firing,
                (AlertState::Firing | AlertState::Resolved, false) => AlertState::Resolved,
                (_, false) => AlertState::Ok,
            };
            if next != slot.state {
                match (slot.state, next) {
                    (_, AlertState::Firing) => {
                        slot.since_s = Some(elapsed_s);
                        crate::warn!("alert firing: {} (value {value:.3})", slot.rule);
                    }
                    (AlertState::Firing, AlertState::Resolved) => {
                        slot.since_s = Some(elapsed_s);
                        crate::info!("alert resolved: {} (value {value:.3})", slot.rule);
                    }
                    _ => {}
                }
                slot.state = next;
            }
        }
    }

    /// Renders the full `/alerts` JSON document.
    pub fn render_json(&self) -> String {
        let inner = self.inner.lock();
        let firing = inner
            .slots
            .iter()
            .filter(|s| s.state == AlertState::Firing)
            .count();
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"firing\": {firing},\n"));
        out.push_str("  \"rules\": [");
        let mut first = true;
        for slot in &inner.slots {
            if !first {
                out.push(',');
            }
            first = false;
            let value = slot
                .value
                .map(|v| format!("{v:.6}"))
                .unwrap_or_else(|| "null".into());
            let since = slot
                .since_s
                .map(|s| format!("{s:.1}"))
                .unwrap_or_else(|| "null".into());
            out.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"state\": \"{}\", \"value\": {value}, \
                 \"threshold\": {}, \"since_s\": {since}}}",
                escape_json(&slot.rule.to_string()),
                slot.state.label(),
                slot.rule.threshold
            ));
        }
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Renders the compact fragment embedded in `/status`:
    /// `{"firing": N, "rules": [{"rule": ..., "state": ...}, ...]}`.
    pub fn render_summary(&self) -> String {
        let inner = self.inner.lock();
        let firing = inner
            .slots
            .iter()
            .filter(|s| s.state == AlertState::Firing)
            .count();
        let mut out = format!("{{\"firing\": {firing}, \"rules\": [");
        for (i, slot) in inner.slots.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"rule\": \"{}\", \"state\": \"{}\"}}",
                escape_json(&slot.rule.to_string()),
                slot.state.label()
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Resolves a selector against a snapshot. `None` means no data (yet).
fn resolve_selector(snap: &Snapshot, selector: &str, elapsed_s: f64) -> Option<f64> {
    if selector == "worker_busy_fraction" {
        return worker_busy_fraction(snap, elapsed_s);
    }
    if let Some((base, q, scale)) = parse_quantile_selector(selector) {
        for name in [format!("{base}_seconds"), format!("sim_{base}_seconds")] {
            if let Some(v) = snap.histogram_quantile(&name, q) {
                return Some(v * scale);
            }
        }
        return None;
    }
    // Plain metric: gauge wins on exact match, else counter total summed
    // across label sets.
    let mut counter_total: Option<f64> = None;
    for m in &snap.metrics {
        if m.name != selector {
            continue;
        }
        match &m.value {
            SnapshotValue::Gauge(bits) => return Some(f64::from_bits(*bits)),
            SnapshotValue::Counter(v) => {
                *counter_total.get_or_insert(0.0) += *v as f64;
            }
            SnapshotValue::Histogram { .. } => {}
        }
    }
    counter_total
}

/// Splits `<base>_p<Q>_<unit>` into `(base, quantile, to-unit scale)`.
fn parse_quantile_selector(selector: &str) -> Option<(&str, f64, f64)> {
    let (rest, scale) = if let Some(rest) = selector.strip_suffix("_us") {
        (rest, 1e6)
    } else if let Some(rest) = selector.strip_suffix("_ms") {
        (rest, 1e3)
    } else if let Some(rest) = selector.strip_suffix("_s") {
        (rest, 1.0)
    } else {
        return None;
    };
    let p_at = rest.rfind("_p")?;
    let digits = &rest[p_at + 2..];
    if digits.is_empty() || !digits.chars().all(|c| c.is_ascii_digit()) {
        return None;
    }
    let q: f64 = digits.parse::<u32>().ok()? as f64 / 100.0;
    if !(0.0..=1.0).contains(&q) {
        return None;
    }
    Some((&rest[..p_at], q, scale))
}

/// Fleet utilisation: Σ `fleet_worker_busy_ms` across workers over
/// `workers × elapsed-ms`. Worker count prefers the live
/// `campaign_workers` gauge, falling back to the number of distinct
/// per-worker busy counters.
fn worker_busy_fraction(snap: &Snapshot, elapsed_s: f64) -> Option<f64> {
    let mut busy_ms = 0.0f64;
    let mut busy_series = 0usize;
    let mut workers_gauge = 0.0f64;
    for m in &snap.metrics {
        match (&m.name[..], &m.value) {
            ("fleet_worker_busy_ms", SnapshotValue::Counter(v)) => {
                busy_ms += *v as f64;
                busy_series += 1;
            }
            ("campaign_workers", SnapshotValue::Gauge(bits)) => {
                workers_gauge = f64::from_bits(*bits);
            }
            _ => {}
        }
    }
    if busy_series == 0 {
        return None;
    }
    let workers = if workers_gauge > 0.0 {
        workers_gauge
    } else {
        busy_series as f64
    };
    let denom = workers * elapsed_s * 1000.0;
    if denom <= 0.0 {
        return None;
    }
    Some(busy_ms / denom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotMetric;

    fn snap(metrics: Vec<SnapshotMetric>) -> Snapshot {
        Snapshot { metrics }
    }

    fn counter(name: &str, v: u64) -> SnapshotMetric {
        SnapshotMetric {
            name: name.into(),
            labels: vec![],
            value: SnapshotValue::Counter(v),
        }
    }

    #[test]
    fn rules_parse_and_reject() {
        let r = parse_rule("fleet_lease_expiries_total > 0").unwrap();
        assert_eq!(r.selector, "fleet_lease_expiries_total");
        assert_eq!(r.op, AlertOp::Gt);
        assert_eq!(r.threshold, 0.0);
        assert_eq!(r.to_string(), "fleet_lease_expiries_total > 0");

        assert!(parse_rule("tick_p99_us >= 10.5").is_ok());
        assert!(parse_rule("worker_busy_fraction < 0.5").is_ok());
        assert!(parse_rule("").is_err());
        assert!(parse_rule("a >").is_err());
        assert!(parse_rule("a ~ 1").is_err());
        assert!(parse_rule("a > banana").is_err());
        assert!(parse_rule("a > inf").is_err());
        assert!(parse_rule("bad name > 1 extra").is_err());
        assert!(parse_rule("semi;colon > 1").is_err());
    }

    #[test]
    fn firing_and_resolving_transitions() {
        let b = AlertBoard::default();
        b.install(vec![parse_rule("boom_total > 2").unwrap()]);

        // No data: pending.
        b.evaluate(&snap(vec![]));
        assert!(b.render_json().contains("\"state\": \"pending\""));

        // Data below threshold: ok.
        b.evaluate(&snap(vec![counter("boom_total", 1)]));
        assert!(b.render_json().contains("\"state\": \"ok\""));
        assert_eq!(b.firing_count(), 0);

        // Breach: firing.
        b.evaluate(&snap(vec![counter("boom_total", 5)]));
        assert_eq!(b.firing_count(), 1);
        let json = b.render_json();
        assert!(json.contains("\"state\": \"firing\""), "{json}");
        assert!(json.contains("\"firing\": 1"), "{json}");

        // Clears: resolved (not ok — the fire is history).
        b.evaluate(&snap(vec![counter("boom_total", 1)]));
        assert_eq!(b.firing_count(), 0);
        assert!(b.render_json().contains("\"state\": \"resolved\""));

        let summary = b.render_summary();
        assert!(summary.contains("\"firing\": 0"), "{summary}");
        assert!(summary.contains("\"state\": \"resolved\""), "{summary}");
    }

    #[test]
    fn quantile_selector_reads_sim_histograms() {
        let snap = snap(vec![SnapshotMetric {
            name: "sim_tick_seconds".into(),
            labels: vec![],
            value: SnapshotValue::Histogram {
                bounds: vec![1e-6, 1e-5, 1e-4],
                counts: vec![0, 100, 0, 0],
                sum_bits: 0,
            },
        }]);
        // tick_p99_us resolves through the sim_ fallback and lands inside
        // the (1us, 10us] bucket, scaled to microseconds.
        let v = resolve_selector(&snap, "tick_p99_us", 1.0).unwrap();
        assert!(v > 1.0 && v <= 10.0, "{v}");
        assert!(resolve_selector(&snap, "tick_p999_us", 1.0).is_none());
        assert!(resolve_selector(&snap, "nothere_p99_us", 1.0).is_none());
    }

    #[test]
    fn busy_fraction_derives_from_worker_counters() {
        let mut m = vec![
            SnapshotMetric {
                name: "fleet_worker_busy_ms".into(),
                labels: vec![("worker".into(), "0".into())],
                value: SnapshotValue::Counter(500),
            },
            SnapshotMetric {
                name: "fleet_worker_busy_ms".into(),
                labels: vec![("worker".into(), "1".into())],
                value: SnapshotValue::Counter(300),
            },
        ];
        // Two workers, 1s elapsed: (500+300)/(2*1000) = 0.4.
        let v = resolve_selector(&snap(m.clone()), "worker_busy_fraction", 1.0).unwrap();
        assert!((v - 0.4).abs() < 1e-9, "{v}");
        // The campaign_workers gauge overrides the series count.
        m.push(SnapshotMetric {
            name: "campaign_workers".into(),
            labels: vec![],
            value: SnapshotValue::Gauge(4.0f64.to_bits()),
        });
        let v = resolve_selector(&snap(m), "worker_busy_fraction", 1.0).unwrap();
        assert!((v - 0.2).abs() < 1e-9, "{v}");
        assert!(resolve_selector(&snap(vec![]), "worker_busy_fraction", 1.0).is_none());
    }

    #[test]
    fn labeled_counters_sum_and_gauges_read_directly() {
        let s = snap(vec![
            SnapshotMetric {
                name: "hits_total".into(),
                labels: vec![("worker".into(), "0".into())],
                value: SnapshotValue::Counter(2),
            },
            SnapshotMetric {
                name: "hits_total".into(),
                labels: vec![("worker".into(), "1".into())],
                value: SnapshotValue::Counter(3),
            },
            SnapshotMetric {
                name: "level".into(),
                labels: vec![],
                value: SnapshotValue::Gauge(7.5f64.to_bits()),
            },
        ]);
        assert_eq!(resolve_selector(&s, "hits_total", 1.0), Some(5.0));
        assert_eq!(resolve_selector(&s, "level", 1.0), Some(7.5));
        assert_eq!(resolve_selector(&s, "absent", 1.0), None);
    }
}
