//! Point-in-time registry snapshots: the unit of fleet-wide aggregation.
//!
//! A [`Snapshot`] is an owned, order-stable copy of the metric registry —
//! counters as raw `u64`, gauges as `f64` bits, histograms as their raw
//! per-bucket counts (including the `+Inf` overflow slot) plus the sum.
//! Keeping raw bucket counts instead of pre-computed quantiles is what
//! makes fleet aggregation exact: merging two snapshots adds buckets
//! element-wise, so a percentile computed over the merged histogram equals
//! the percentile over the union of the original observations' buckets.
//!
//! Snapshots travel over the wire (piggybacked on fleet heartbeat frames)
//! and into the `.ifms` time-series file, so the codec is versioned and
//! checksummed with the shared framing codec ([`imufit_math::frame`]):
//! `[magic][version][payload][crc16, big-endian]`, with the checksum
//! validated before the version byte is interpreted so corruption is never
//! misreported as version skew (DESIGN.md §19 lists every format's
//! framing).
//!
//! This module is compiled unconditionally — only [`capture`] touches the
//! registry, and without the `enabled` feature it returns an empty
//! snapshot. Decoders never panic on attacker-shaped input: every failure
//! is a typed [`SnapshotError`].

use std::collections::BTreeMap;
use std::fmt;

use imufit_math::frame::{crc16, Cursor, FrameError, Put};
use parking_lot::Mutex;

use crate::escape_json;

/// Magic byte opening every encoded snapshot.
pub const SNAPSHOT_MAGIC: u8 = 0xF5;

/// Current snapshot wire version.
pub const SNAPSHOT_VERSION: u8 = 1;

/// Hard cap on encoded snapshot size (also the cap the fleet heartbeat
/// enforces transitively through its own payload limit).
pub const MAX_SNAPSHOT_BYTES: usize = 1 << 20;

/// Longest accepted metric name / label string on decode.
const MAX_STR: usize = 1 << 12;

/// Most metrics accepted in one snapshot on decode.
const MAX_METRICS: usize = 1 << 16;

/// Most histogram buckets accepted on decode.
const MAX_BUCKETS: usize = 1 << 10;

/// Decode failure for snapshot and `.ifms` payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Fewer bytes than the layout requires.
    Truncated,
    /// First byte is not [`SNAPSHOT_MAGIC`] (or `IFMS` for series files).
    BadMagic,
    /// Checksum valid but the version byte is unknown.
    UnknownVersion(u8),
    /// Frame checksum mismatch.
    BadChecksum,
    /// Structurally invalid payload (length caps, label counts, ...).
    Malformed(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "bad snapshot magic"),
            SnapshotError::UnknownVersion(v) => write!(f, "unknown snapshot version {v}"),
            SnapshotError::BadChecksum => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<FrameError> for SnapshotError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Truncated => SnapshotError::Truncated,
            FrameError::BadChecksum => SnapshotError::BadChecksum,
            FrameError::Malformed(what) => SnapshotError::Malformed(what),
        }
    }
}

/// The value of one snapshotted metric.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotValue {
    /// Monotone counter value.
    Counter(u64),
    /// Gauge value as raw `f64` bits (bit-exact round-trips).
    Gauge(u64),
    /// Histogram: per-bucket counts (one per bound plus the `+Inf`
    /// overflow slot, so `counts.len() == bounds.len() + 1`) and the sum
    /// of observations as raw `f64` bits.
    Histogram {
        bounds: Vec<f64>,
        counts: Vec<u64>,
        sum_bits: u64,
    },
}

/// One metric in a snapshot: name, sorted label pairs, value.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotMetric {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: SnapshotValue,
}

impl SnapshotMetric {
    fn sort_key(&self) -> (&str, &[(String, String)]) {
        (&self.name, &self.labels)
    }
}

/// An owned point-in-time copy of the metric registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Metrics sorted by `(name, labels)`.
    pub metrics: Vec<SnapshotMetric>,
}

/// Captures the current global registry (empty without the `enabled`
/// feature, where nothing registers).
pub fn capture() -> Snapshot {
    use crate::metrics::{Entry, Registry};
    use std::sync::atomic::Ordering;

    let mut metrics = Vec::new();
    for (key, entry) in Registry::global().snapshot() {
        let value = match entry {
            Entry::Counter(cell) => SnapshotValue::Counter(cell.load(Ordering::Relaxed)),
            Entry::Gauge(cell) => SnapshotValue::Gauge(cell.load(Ordering::Relaxed)),
            Entry::Histogram(core) => SnapshotValue::Histogram {
                bounds: core.bounds.to_vec(),
                counts: core
                    .counts
                    .iter()
                    .map(|c| c.load(Ordering::Relaxed))
                    .collect(),
                sum_bits: core.sum().to_bits(),
            },
        };
        metrics.push(SnapshotMetric {
            name: key.name,
            labels: key.labels,
            value,
        });
    }
    // Registry::snapshot already sorts; keep the invariant explicit.
    let mut snap = Snapshot { metrics };
    snap.sort();
    snap
}

impl Snapshot {
    fn sort(&mut self) {
        self.metrics.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    }

    /// True when nothing was captured (registry empty or feature off).
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Returns a copy with `(key, value)` added to every metric's label
    /// set (replacing any existing value for `key`). The coordinator uses
    /// this to stamp `worker="N"` onto incoming worker snapshots.
    pub fn with_label(&self, key: &str, value: &str) -> Snapshot {
        let mut out = self.clone();
        for metric in &mut out.metrics {
            metric.labels.retain(|(k, _)| k != key);
            metric.labels.push((key.to_string(), value.to_string()));
            metric.labels.sort();
        }
        out.sort();
        out
    }

    /// Merges `other` into `self`:
    ///
    /// * counters with matching `(name, labels)` add;
    /// * gauges take `other`'s value (last write wins — associative);
    /// * histograms with matching bounds add bucket counts element-wise
    ///   and sum their sums; mismatched bounds keep `self`'s series
    ///   untouched (first registration wins, like the registry itself);
    /// * metrics only present in `other` are appended.
    pub fn merge(&mut self, other: &Snapshot) {
        for theirs in &other.metrics {
            match self
                .metrics
                .iter_mut()
                .find(|m| m.sort_key() == theirs.sort_key())
            {
                None => self.metrics.push(theirs.clone()),
                Some(ours) => match (&mut ours.value, &theirs.value) {
                    (SnapshotValue::Counter(a), SnapshotValue::Counter(b)) => {
                        *a = a.saturating_add(*b);
                    }
                    (SnapshotValue::Gauge(a), SnapshotValue::Gauge(b)) => *a = *b,
                    (
                        SnapshotValue::Histogram {
                            bounds: ba,
                            counts: ca,
                            sum_bits: sa,
                        },
                        SnapshotValue::Histogram {
                            bounds: bb,
                            counts: cb,
                            sum_bits: sb,
                        },
                    ) if ba == bb && ca.len() == cb.len() => {
                        for (a, b) in ca.iter_mut().zip(cb) {
                            *a = a.saturating_add(*b);
                        }
                        *sa = (f64::from_bits(*sa) + f64::from_bits(*sb)).to_bits();
                    }
                    // Kind or bounds mismatch: first registration wins.
                    _ => {}
                },
            }
        }
        self.sort();
    }

    /// Sum of every counter named `name` across all label sets (used by
    /// `triage metrics` to fold per-worker series back together).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|m| m.name == name)
            .map(|m| match m.value {
                SnapshotValue::Counter(v) => v,
                _ => 0,
            })
            .sum()
    }

    /// Merged quantile over every histogram named `name` (all label sets
    /// with the same bounds). `None` while empty or absent.
    pub fn histogram_quantile(&self, name: &str, q: f64) -> Option<f64> {
        let mut merged: Option<(Vec<f64>, Vec<u64>)> = None;
        for m in self.metrics.iter().filter(|m| m.name == name) {
            if let SnapshotValue::Histogram { bounds, counts, .. } = &m.value {
                match &mut merged {
                    None => merged = Some((bounds.clone(), counts.clone())),
                    Some((mb, mc)) if mb == bounds && mc.len() == counts.len() => {
                        for (a, b) in mc.iter_mut().zip(counts) {
                            *a = a.saturating_add(*b);
                        }
                    }
                    Some(_) => {}
                }
            }
        }
        let (bounds, counts) = merged?;
        bucket_quantile(&bounds, &counts, q)
    }

    /// Encodes as `[magic][version][payload][crc16]`; the checksum covers
    /// the version byte and payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = vec![SNAPSHOT_MAGIC, SNAPSHOT_VERSION];
        buf.put_u32(self.metrics.len() as u32);
        for metric in &self.metrics {
            put_str(&mut buf, &metric.name);
            buf.put_u16(metric.labels.len() as u16);
            for (k, v) in &metric.labels {
                put_str(&mut buf, k);
                put_str(&mut buf, v);
            }
            match &metric.value {
                SnapshotValue::Counter(v) => {
                    buf.put_u8(0);
                    buf.put_u64(*v);
                }
                SnapshotValue::Gauge(bits) => {
                    buf.put_u8(1);
                    buf.put_u64(*bits);
                }
                SnapshotValue::Histogram {
                    bounds,
                    counts,
                    sum_bits,
                } => {
                    buf.put_u8(2);
                    buf.put_u16(bounds.len() as u16);
                    for b in bounds {
                        buf.put_f64(*b);
                    }
                    for c in counts {
                        buf.put_u64(*c);
                    }
                    buf.put_u64(*sum_bits);
                }
            }
        }
        let crc = crc16(&buf[1..]);
        buf.extend_from_slice(&crc.to_be_bytes());
        buf
    }

    /// Decodes an encoded snapshot. Never panics: malformed, truncated,
    /// corrupted and version-skewed inputs all map to typed errors. The
    /// checksum is validated before the version byte is interpreted.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        if bytes.len() > MAX_SNAPSHOT_BYTES {
            return Err(SnapshotError::Malformed("snapshot oversized"));
        }
        if bytes.is_empty() {
            return Err(SnapshotError::Truncated);
        }
        if bytes[0] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < 4 {
            return Err(SnapshotError::Truncated);
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 2);
        let stated = u16::from_be_bytes([crc_bytes[0], crc_bytes[1]]);
        if crc16(&body[1..]) != stated {
            return Err(SnapshotError::BadChecksum);
        }
        let version = body[1];
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnknownVersion(version));
        }
        let mut r = Cursor::new(&body[2..]);
        let count = r.u32()? as usize;
        if count > MAX_METRICS {
            return Err(SnapshotError::Malformed("metric count oversized"));
        }
        let mut metrics = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let name = get_str(&mut r)?;
            let label_count = r.u16()? as usize;
            if label_count > 64 {
                return Err(SnapshotError::Malformed("label count oversized"));
            }
            let mut labels = Vec::with_capacity(label_count);
            for _ in 0..label_count {
                labels.push((get_str(&mut r)?, get_str(&mut r)?));
            }
            let kind = r.u8()?;
            let value = match kind {
                0 => SnapshotValue::Counter(r.u64()?),
                1 => SnapshotValue::Gauge(r.u64()?),
                2 => {
                    let bucket_count = r.u16()? as usize;
                    if bucket_count > MAX_BUCKETS {
                        return Err(SnapshotError::Malformed("bucket count oversized"));
                    }
                    let mut bounds = Vec::with_capacity(bucket_count);
                    for _ in 0..bucket_count {
                        bounds.push(r.f64()?);
                    }
                    let mut counts = Vec::with_capacity(bucket_count + 1);
                    for _ in 0..=bucket_count {
                        counts.push(r.u64()?);
                    }
                    SnapshotValue::Histogram {
                        bounds,
                        counts,
                        sum_bits: r.u64()?,
                    }
                }
                _ => return Err(SnapshotError::Malformed("unknown metric kind")),
            };
            metrics.push(SnapshotMetric {
                name,
                labels,
                value,
            });
        }
        r.finish("trailing bytes")?;
        Ok(Snapshot { metrics })
    }

    /// Renders as Prometheus text exposition (v0.0.4). One `# TYPE` line
    /// per metric name; label values are escaped (backslash, double-quote,
    /// newline); histogram series carry the metric's own labels merged
    /// with `le`, cumulative bucket counts ending at the explicit `+Inf`
    /// bucket, plus `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_typed: Option<&str> = None;
        for metric in &self.metrics {
            let kind = match metric.value {
                SnapshotValue::Counter(_) => "counter",
                SnapshotValue::Gauge(_) => "gauge",
                SnapshotValue::Histogram { .. } => "histogram",
            };
            if last_typed != Some(metric.name.as_str()) {
                out.push_str(&format!("# TYPE {} {kind}\n", metric.name));
                last_typed = Some(metric.name.as_str());
            }
            match &metric.value {
                SnapshotValue::Counter(v) => {
                    out.push_str(&format!(
                        "{}{} {v}\n",
                        metric.name,
                        render_labels(&metric.labels)
                    ));
                }
                SnapshotValue::Gauge(bits) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        metric.name,
                        render_labels(&metric.labels),
                        f64::from_bits(*bits)
                    ));
                }
                SnapshotValue::Histogram {
                    bounds,
                    counts,
                    sum_bits,
                } => {
                    let mut cumulative = 0u64;
                    for (i, count) in counts.iter().enumerate() {
                        cumulative += count;
                        let le = if i < bounds.len() {
                            format!("{}", bounds[i])
                        } else {
                            "+Inf".to_string()
                        };
                        out.push_str(&format!(
                            "{}_bucket{} {cumulative}\n",
                            metric.name,
                            render_labels_with(&metric.labels, "le", &le)
                        ));
                    }
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        metric.name,
                        render_labels(&metric.labels),
                        f64::from_bits(*sum_bits)
                    ));
                    out.push_str(&format!(
                        "{}_count{} {cumulative}\n",
                        metric.name,
                        render_labels(&metric.labels)
                    ));
                }
            }
        }
        out
    }

    /// Renders the snapshot as the JSON document [`crate::export::json`]
    /// documents: counters, gauges and histograms (count, sum and
    /// interpolated p50/p95/p99) in snapshot order, non-finite values as
    /// `null`.
    pub fn to_json(&self) -> String {
        fn number(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        }
        let (mut counters, mut gauges, mut histograms) = (Vec::new(), Vec::new(), Vec::new());
        for metric in &self.metrics {
            let labels: Vec<String> = metric
                .labels
                .iter()
                .map(|(k, v)| format!("\"{}\":\"{}\"", escape_json(k), escape_json(v)))
                .collect();
            let head = format!(
                "{{\"name\":\"{}\",\"labels\":{{{}}}",
                escape_json(&metric.name),
                labels.join(",")
            );
            match &metric.value {
                SnapshotValue::Counter(v) => counters.push(format!("{head},\"value\":{v}}}")),
                SnapshotValue::Gauge(bits) => gauges.push(format!(
                    "{head},\"value\":{}}}",
                    number(f64::from_bits(*bits))
                )),
                SnapshotValue::Histogram {
                    bounds,
                    counts,
                    sum_bits,
                } => {
                    let quantile =
                        |q| bucket_quantile(bounds, counts, q).map_or("null".into(), number);
                    histograms.push(format!(
                        "{head},\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                        counts.iter().sum::<u64>(),
                        number(f64::from_bits(*sum_bits)),
                        quantile(0.50),
                        quantile(0.95),
                        quantile(0.99),
                    ));
                }
            }
        }
        format!(
            "{{\n\"counters\": [\n{}\n],\n\"gauges\": [\n{}\n],\n\"histograms\": [\n{}\n]\n}}\n",
            counters.join(",\n"),
            gauges.join(",\n"),
            histograms.join(",\n")
        )
    }
}

/// Escapes a label value for Prometheus text exposition.
pub(crate) fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

fn render_labels_with(labels: &[(String, String)], extra_key: &str, extra_value: &str) -> String {
    let mut all: Vec<(String, String)> = labels.to_vec();
    all.push((extra_key.to_string(), extra_value.to_string()));
    all.sort();
    render_labels(&all)
}

/// Quantile by linear interpolation inside the bucket holding the rank,
/// Prometheus-style; `None` when empty, and ranks landing in the overflow
/// bucket clamp to the largest bound. The live [`crate::Histogram`] and
/// every export use this one estimator.
pub fn bucket_quantile(bounds: &[f64], counts: &[u64], q: f64) -> Option<f64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut cumulative = 0u64;
    for (i, in_bucket) in counts.iter().copied().enumerate() {
        if in_bucket == 0 {
            continue;
        }
        if (cumulative + in_bucket) as f64 >= rank {
            if i >= bounds.len() {
                return Some(*bounds.last().unwrap_or(&0.0));
            }
            let lower = if i == 0 { 0.0 } else { bounds[i - 1] };
            let upper = bounds[i];
            let into = ((rank - cumulative as f64) / in_bucket as f64).clamp(0.0, 1.0);
            return Some(lower + (upper - lower) * into);
        }
        cumulative += in_bucket;
    }
    Some(*bounds.last().unwrap_or(&0.0))
}

/// Per-worker snapshot store on the coordinator: the latest snapshot from
/// each worker, merged on demand into one fleet-wide view.
#[derive(Debug, Default)]
pub struct Aggregate {
    slots: Mutex<BTreeMap<String, Snapshot>>,
}

impl Aggregate {
    pub fn new() -> Self {
        Aggregate::default()
    }

    /// Stores the latest snapshot for `worker_key` (replaces the previous
    /// one — snapshots are cumulative, not deltas).
    pub fn store(&self, worker_key: &str, snapshot: Snapshot) {
        self.slots.lock().insert(worker_key.to_string(), snapshot);
    }

    /// Merges the latest snapshot of every worker, in key order (the fold
    /// order is deterministic, and merge is associative over counters and
    /// histogram buckets).
    pub fn merged(&self) -> Snapshot {
        let slots = self.slots.lock();
        let mut out = Snapshot::default();
        for snap in slots.values() {
            out.merge(snap);
        }
        out
    }
}

/// Appends a `u16`-length-prefixed string (shared with the `.ifsp` codec;
/// longer strings are cut at 64 KiB).
pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    let bytes = &s.as_bytes()[..s.len().min(u16::MAX as usize)];
    buf.put_u16(bytes.len() as u16);
    buf.extend_from_slice(bytes);
}

/// Reads a string written by [`put_str`], capped at 4 KiB.
pub(crate) fn get_str(r: &mut Cursor) -> Result<String, SnapshotError> {
    let len = r.u16()? as usize;
    if len > MAX_STR {
        return Err(SnapshotError::Malformed("string oversized"));
    }
    Ok(r.str(len)?.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            metrics: vec![
                SnapshotMetric {
                    name: "campaign_runs_total".into(),
                    labels: vec![],
                    value: SnapshotValue::Counter(42),
                },
                SnapshotMetric {
                    name: "campaign_workers".into(),
                    labels: vec![],
                    value: SnapshotValue::Gauge(3.0f64.to_bits()),
                },
                SnapshotMetric {
                    name: "sim_tick_seconds".into(),
                    labels: vec![("worker".into(), "1".into())],
                    value: SnapshotValue::Histogram {
                        bounds: vec![0.001, 0.01, 0.1],
                        counts: vec![5, 3, 1, 2],
                        sum_bits: 0.25f64.to_bits(),
                    },
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let snap = sample();
        assert_eq!(Snapshot::decode(&snap.encode()).unwrap(), snap);
    }

    #[test]
    fn merge_adds_counters_and_buckets() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.counter_total("campaign_runs_total"), 84);
        match &a
            .metrics
            .iter()
            .find(|m| m.name == "sim_tick_seconds")
            .unwrap()
            .value
        {
            SnapshotValue::Histogram { counts, .. } => {
                assert_eq!(counts, &vec![10, 6, 2, 4]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn with_label_stamps_every_series() {
        let stamped = sample().with_label("worker", "7");
        for m in &stamped.metrics {
            assert!(m.labels.iter().any(|(k, v)| k == "worker" && v == "7"));
        }
        // The pre-existing worker="1" label is replaced, not duplicated.
        let hist = stamped
            .metrics
            .iter()
            .find(|m| m.name == "sim_tick_seconds")
            .unwrap();
        assert_eq!(hist.labels.len(), 1);
    }

    #[test]
    fn prometheus_escapes_labels_and_emits_inf_bucket() {
        let snap = Snapshot {
            metrics: vec![
                SnapshotMetric {
                    name: "weird".into(),
                    labels: vec![("kind".into(), "a\"b\\c\nd".into())],
                    value: SnapshotValue::Counter(1),
                },
                SnapshotMetric {
                    name: "lat_seconds".into(),
                    labels: vec![("worker".into(), "2".into())],
                    value: SnapshotValue::Histogram {
                        bounds: vec![0.5],
                        counts: vec![3, 4],
                        sum_bits: 5.0f64.to_bits(),
                    },
                },
            ],
        };
        let text = snap.to_prometheus();
        assert!(text.contains("weird{kind=\"a\\\"b\\\\c\\nd\"} 1"));
        // Histogram series keep their own labels merged with `le`.
        assert!(text.contains("lat_seconds_bucket{le=\"0.5\",worker=\"2\"} 3"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\",worker=\"2\"} 7"));
        assert!(text.contains("lat_seconds_sum{worker=\"2\"} 5"));
        assert!(text.contains("lat_seconds_count{worker=\"2\"} 7"));
    }

    #[test]
    fn aggregate_merges_per_worker_snapshots() {
        let agg = Aggregate::new();
        agg.store("1", sample().with_label("worker", "1"));
        agg.store("2", sample().with_label("worker", "2"));
        // Re-storing replaces, never double-counts.
        agg.store("1", sample().with_label("worker", "1"));
        let merged = agg.merged();
        assert_eq!(merged.counter_total("campaign_runs_total"), 84);
        let text = merged.to_prometheus();
        assert!(text.contains("worker=\"1\""));
        assert!(text.contains("worker=\"2\""));
    }
}
