//! Run-level execution spans: the `.ifsp` campaign span journal.
//!
//! Every campaign work unit carries a trace context — the campaign
//! fingerprint, the unit index, and a span id stamped by the coordinator
//! at dispatch and propagated to the worker inside the fleet `Assign`
//! frame (protocol v4). As the unit moves through the scheduler the
//! coordinator appends one event per lifecycle edge to an append-only
//! CRC-framed `.ifsp` journal:
//!
//! ```text
//! enqueued → dispatched → lease-renewed* → executed(ticks, stage-times) → merged
//!                     ↘ requeued (lease expiry / worker death / abort) ↗
//! ```
//!
//! The file is a checksummed header followed by shared-codec frames
//! ([`imufit_math::frame`], `u32` length; DESIGN.md §19), decoded with
//! typed errors and never a panic. Because the journal is append-only (the
//! writer survives `kill -9` like the fleet checkpoint), the decoder
//! treats a *torn tail* — a final frame cut mid-write — as a clean stop,
//! reporting it via [`SpanLog::tail`] rather than discarding the valid
//! prefix. A checksum mismatch anywhere is still a hard
//! [`SnapshotError::BadChecksum`].
//!
//! ```text
//! [b"IFSP"] [version u8] [campaign u64] [total_units u32]
//!           [started_unix_ms u64] [header crc16]
//! frame  := [len u32] [event bytes] [crc16 over len+event]
//! event  := [unit u32] [kind u8] [t_offset_ms u64] [worker u32] [span u64]
//!           [ticks u64] [exec_nanos u64]
//!           [n_stages u8] n × ([name str] [self_nanos u64]) [detail str]
//! ```
//!
//! This module is a pure codec plus a file writer; it compiles
//! unconditionally and records nothing about simulation state, so span
//! journaling can never perturb `campaign_results.csv`.

use std::fmt;
use std::io::Write as _;
use std::path::Path;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use imufit_math::frame::{crc16, put_frame, Cursor, FrameError, LenWidth, Put};
use parking_lot::Mutex;

pub use imufit_math::frame::Tail;

use crate::snapshot::{get_str, put_str, SnapshotError};

/// Magic bytes opening a `.ifsp` file.
pub const SPAN_MAGIC: &[u8; 4] = b"IFSP";

/// Current `.ifsp` format version.
pub const SPAN_VERSION: u8 = 1;

/// Sentinel worker id for events that happen before any worker is
/// involved (enqueue) or after the worker is gone (lease-expiry requeue).
pub const NO_WORKER: u32 = u32::MAX;

/// Largest accepted event frame on decode; events are small (a handful of
/// stage names), so anything bigger is corruption.
pub const MAX_EVENT_BYTES: usize = 1 << 16;

/// Most per-stage samples accepted in one executed event.
const MAX_STAGES: usize = 64;

/// One lifecycle edge of a work unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Unit entered the pending queue (coordinator bind or requeue).
    Enqueued,
    /// Unit assigned to a worker; a fresh span id was stamped.
    Dispatched,
    /// Worker heartbeat extended the unit's lease.
    LeaseRenewed,
    /// Worker finished flying the unit (ticks + per-stage self-times as
    /// reported back through the `Result` frame).
    Executed,
    /// Result merged into the campaign matrix (idempotent winner only).
    Merged,
    /// Unit went back to the queue: lease expiry, worker death, or the
    /// retry cap (see the event's `detail`).
    Requeued,
}

impl SpanKind {
    fn code(self) -> u8 {
        match self {
            SpanKind::Enqueued => 1,
            SpanKind::Dispatched => 2,
            SpanKind::LeaseRenewed => 3,
            SpanKind::Executed => 4,
            SpanKind::Merged => 5,
            SpanKind::Requeued => 6,
        }
    }

    fn from_code(code: u8) -> Result<SpanKind, SnapshotError> {
        Ok(match code {
            1 => SpanKind::Enqueued,
            2 => SpanKind::Dispatched,
            3 => SpanKind::LeaseRenewed,
            4 => SpanKind::Executed,
            5 => SpanKind::Merged,
            6 => SpanKind::Requeued,
            _ => return Err(SnapshotError::Malformed("unknown span kind")),
        })
    }

    /// Short lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Enqueued => "enqueued",
            SpanKind::Dispatched => "dispatched",
            SpanKind::LeaseRenewed => "lease-renewed",
            SpanKind::Executed => "executed",
            SpanKind::Merged => "merged",
            SpanKind::Requeued => "requeued",
        }
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One journaled event. Fields that only apply to some kinds (ticks,
/// stage times, detail) are zero/empty elsewhere — the wire layout is
/// uniform so the decoder has one shape to check.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Work-unit index inside the campaign matrix shard.
    pub unit: u32,
    /// Lifecycle edge.
    pub kind: SpanKind,
    /// Milliseconds since the journal was opened.
    pub t_offset_ms: u64,
    /// Worker that owns the edge, or [`NO_WORKER`].
    pub worker: u32,
    /// Span id stamped at dispatch (0 before the first dispatch). A
    /// requeued unit gets a *new* span id on redelivery, so retry chains
    /// stay distinguishable.
    pub span: u64,
    /// Simulator ticks flown (executed events).
    pub ticks: u64,
    /// Wall-clock execution nanoseconds on the worker (executed events).
    pub exec_nanos: u64,
    /// Per-stage sampled self-time in nanoseconds (executed events); the
    /// worker's tick-stage profiler delta over this unit's window.
    pub stages: Vec<(String, u64)>,
    /// Cell label (enqueued events) or requeue reason (requeued events).
    pub detail: String,
}

impl SpanEvent {
    /// A minimal event of `kind` for `unit`; callers fill the rest.
    pub fn new(unit: u32, kind: SpanKind) -> SpanEvent {
        SpanEvent {
            unit,
            kind,
            t_offset_ms: 0,
            worker: NO_WORKER,
            span: 0,
            ticks: 0,
            exec_nanos: 0,
            stages: Vec::new(),
            detail: String::new(),
        }
    }

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        buf.put_u32(self.unit);
        buf.put_u8(self.kind.code());
        buf.put_u64(self.t_offset_ms);
        buf.put_u32(self.worker);
        buf.put_u64(self.span);
        buf.put_u64(self.ticks);
        buf.put_u64(self.exec_nanos);
        buf.put_u8(self.stages.len().min(MAX_STAGES) as u8);
        for (name, nanos) in self.stages.iter().take(MAX_STAGES) {
            put_str(buf, name);
            buf.put_u64(*nanos);
        }
        put_str(buf, &self.detail);
    }

    fn decode_payload(mut r: Cursor) -> Result<SpanEvent, SnapshotError> {
        let unit = r.u32()?;
        let kind = SpanKind::from_code(r.u8()?)?;
        let t_offset_ms = r.u64()?;
        let worker = r.u32()?;
        let span = r.u64()?;
        let ticks = r.u64()?;
        let exec_nanos = r.u64()?;
        let n_stages = r.u8()? as usize;
        if n_stages > MAX_STAGES {
            return Err(SnapshotError::Malformed("too many stages"));
        }
        let mut stages = Vec::with_capacity(n_stages);
        for _ in 0..n_stages {
            let name = get_str(&mut r)?;
            let nanos = r.u64()?;
            stages.push((name, nanos));
        }
        let detail = get_str(&mut r)?;
        r.finish("trailing event bytes")?;
        Ok(SpanEvent {
            unit,
            kind,
            t_offset_ms,
            worker,
            span,
            ticks,
            exec_nanos,
            stages,
            detail,
        })
    }

    /// Encodes the event as one journal frame: `[len u32][payload][crc16]`
    /// with the checksum covering the length prefix and the payload.
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut frame = Vec::new();
        put_frame(&mut frame, LenWidth::U32, |p| self.encode_payload(p));
        frame
    }
}

/// A decoded `.ifsp` journal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanLog {
    /// Campaign fingerprint (scenario + seed + unit count).
    pub campaign: u64,
    /// Work units in the campaign shard.
    pub total_units: u32,
    /// Wall-clock journal open time (unix milliseconds).
    pub started_unix_ms: u64,
    /// Events in append order.
    pub events: Vec<SpanEvent>,
    /// [`Tail::Torn`] when the file ended inside a frame (a killed
    /// coordinator); the events before the tear are intact and returned.
    pub tail: Tail,
}

/// Fixed header length: magic + version + campaign + units + start + crc.
const HEADER_LEN: usize = 4 + 1 + 8 + 4 + 8 + 2;

fn encode_header(campaign: u64, total_units: u32, started_unix_ms: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN);
    buf.extend_from_slice(SPAN_MAGIC);
    buf.put_u8(SPAN_VERSION);
    buf.put_u64(campaign);
    buf.put_u32(total_units);
    buf.put_u64(started_unix_ms);
    let crc = crc16(&buf[4..]);
    buf.put_u16(crc);
    buf
}

impl SpanLog {
    /// Encodes the whole log (header + every event frame). The inverse of
    /// [`SpanLog::decode`] for non-torn logs.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = encode_header(self.campaign, self.total_units, self.started_unix_ms);
        for event in &self.events {
            put_frame(&mut buf, LenWidth::U32, |p| event.encode_payload(p));
        }
        buf
    }

    /// Decodes a `.ifsp` byte stream; typed errors, never panics. A
    /// truncated final frame is reported as [`Tail::Torn`] instead of
    /// failing — the journal is append-only and a killed coordinator
    /// legitimately leaves a partial last frame — while any checksum or
    /// structure violation in a complete frame is a hard error. The header
    /// checksum is validated before the version byte is interpreted, so
    /// corruption is never misreported as version skew.
    pub fn decode(bytes: &[u8]) -> Result<SpanLog, SnapshotError> {
        let mut r = Cursor::new(bytes);
        if r.bytes(4)? != SPAN_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u8()?;
        let campaign = r.u64()?;
        let total_units = r.u32()?;
        let started_unix_ms = r.u64()?;
        r.check_crc(4)?;
        if version != SPAN_VERSION {
            return Err(SnapshotError::UnknownVersion(version));
        }

        let mut events = Vec::new();
        let mut tail = Tail::Clean;
        while !r.is_empty() {
            let start = r.position();
            match r.frame(LenWidth::U32, MAX_EVENT_BYTES) {
                Ok(payload) => events.push(SpanEvent::decode_payload(payload)?),
                Err(FrameError::Truncated) => {
                    tail = Tail::Torn { clean_len: start };
                    break;
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(SpanLog {
            campaign,
            total_units,
            started_unix_ms,
            events,
            tail,
        })
    }

    /// Reads and decodes a `.ifsp` file.
    pub fn read(path: &Path) -> Result<SpanLog, SnapshotError> {
        let bytes = std::fs::read(path).map_err(|_| SnapshotError::Truncated)?;
        SpanLog::decode(&bytes)
    }
}

/// Append-only `.ifsp` writer, shared by the coordinator's accept loop.
/// Each [`SpanJournal::record`] stamps the event's time offset and writes
/// one flushed frame, so the journal stays decodable (up to a torn tail)
/// after `kill -9` — same contract as the fleet checkpoint journal.
#[derive(Debug)]
pub struct SpanJournal {
    file: Mutex<std::fs::File>,
    started: Instant,
}

impl SpanJournal {
    /// Creates (truncating) the journal and writes its header.
    pub fn create(path: &Path, campaign: u64, total_units: u32) -> std::io::Result<SpanJournal> {
        let started_unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let mut file = std::fs::File::create(path)?;
        file.write_all(&encode_header(campaign, total_units, started_unix_ms))?;
        file.flush()?;
        Ok(SpanJournal {
            file: Mutex::new(file),
            started: Instant::now(),
        })
    }

    /// Stamps `event.t_offset_ms` and appends one frame. I/O errors are
    /// returned, not panicked — the campaign outlives a full disk.
    pub fn record(&self, mut event: SpanEvent) -> std::io::Result<()> {
        event.t_offset_ms = self.started.elapsed().as_millis() as u64;
        let frame = event.encode_frame();
        let mut file = self.file.lock();
        file.write_all(&frame)?;
        file.flush()
    }
}

/// Per-unit lifecycle rebuilt from a [`SpanLog`]: the analysis form behind
/// `triage spans`.
#[derive(Debug, Clone, Default)]
pub struct UnitTimeline {
    /// Work-unit index.
    pub unit: u32,
    /// Cell label from the enqueue event.
    pub label: String,
    /// First enqueue offset (ms).
    pub enqueued_ms: Option<u64>,
    /// Last dispatch offset (ms) and worker.
    pub dispatched_ms: Option<u64>,
    /// Dispatching worker of the winning attempt.
    pub worker: u32,
    /// Executed event offset (ms).
    pub executed_ms: Option<u64>,
    /// Merge offset (ms).
    pub merged_ms: Option<u64>,
    /// Ticks flown by the winning attempt.
    pub ticks: u64,
    /// Worker-side execution wall time (ns).
    pub exec_nanos: u64,
    /// Requeue edges: `(offset_ms, reason)`.
    pub requeues: Vec<(u64, String)>,
    /// Lease renewals observed.
    pub lease_renewals: u32,
}

impl UnitTimeline {
    /// Queue wait of the winning attempt: dispatch − enqueue, ms.
    pub fn queue_ms(&self) -> Option<u64> {
        Some(self.dispatched_ms?.saturating_sub(self.enqueued_ms?))
    }

    /// Execution span: executed − dispatch, ms.
    pub fn execute_ms(&self) -> Option<u64> {
        Some(self.executed_ms?.saturating_sub(self.dispatched_ms?))
    }

    /// Merge span: merged − executed, ms.
    pub fn merge_ms(&self) -> Option<u64> {
        Some(self.merged_ms?.saturating_sub(self.executed_ms?))
    }

    /// End-to-end latency: merged − enqueued, ms.
    pub fn total_ms(&self) -> Option<u64> {
        Some(self.merged_ms?.saturating_sub(self.enqueued_ms?))
    }
}

/// Folds a log into per-unit timelines (indexed by unit, sorted). Later
/// dispatch attempts overwrite earlier ones, so each timeline describes
/// the attempt that actually merged, with requeues listed as edges.
pub fn unit_timelines(log: &SpanLog) -> Vec<UnitTimeline> {
    let mut by_unit: std::collections::BTreeMap<u32, UnitTimeline> =
        std::collections::BTreeMap::new();
    for ev in &log.events {
        let t = by_unit.entry(ev.unit).or_insert_with(|| UnitTimeline {
            unit: ev.unit,
            ..UnitTimeline::default()
        });
        match ev.kind {
            SpanKind::Enqueued => {
                if t.enqueued_ms.is_none() {
                    t.enqueued_ms = Some(ev.t_offset_ms);
                }
                if !ev.detail.is_empty() {
                    t.label = ev.detail.clone();
                }
            }
            SpanKind::Dispatched => {
                t.dispatched_ms = Some(ev.t_offset_ms);
                t.worker = ev.worker;
                // A redispatch resets the downstream edges.
                t.executed_ms = None;
                t.merged_ms = None;
            }
            SpanKind::LeaseRenewed => t.lease_renewals += 1,
            SpanKind::Executed => {
                t.executed_ms = Some(ev.t_offset_ms);
                t.ticks = ev.ticks;
                t.exec_nanos = ev.exec_nanos;
            }
            SpanKind::Merged => t.merged_ms = Some(ev.t_offset_ms),
            SpanKind::Requeued => t.requeues.push((ev.t_offset_ms, ev.detail.clone())),
        }
    }
    by_unit.into_values().collect()
}

/// Width of the waterfall lane in characters.
const WATERFALL_COLS: usize = 56;

/// Renders the full `triage spans` report: accounting summary, per-unit
/// waterfall, per-cell latency table, and the critical path of the
/// slowest units. Pure function of the decoded log so it is testable
/// without a campaign.
pub fn render_report(log: &SpanLog) -> String {
    let timelines = unit_timelines(log);
    let mut out = String::new();
    out.push_str(&format!(
        "campaign {:016x}: {} units, {} span events{}\n",
        log.campaign,
        log.total_units,
        log.events.len(),
        if log.tail.is_torn() {
            " (torn tail)"
        } else {
            ""
        }
    ));

    // Lifecycle accounting: every unit should close enqueued → merged.
    let mut counts = [0u32; 6];
    for ev in &log.events {
        counts[ev.kind.code() as usize - 1] += 1;
    }
    let requeues: usize = timelines.iter().map(|t| t.requeues.len()).sum();
    let merged = timelines.iter().filter(|t| t.merged_ms.is_some()).count();
    out.push_str(&format!(
        "  enqueued {} dispatched {} lease-renewed {} executed {} merged {} requeued {}\n",
        counts[0], counts[1], counts[2], counts[3], counts[4], counts[5]
    ));
    out.push_str(&format!(
        "  {merged}/{} units merged, {requeues} requeue edge(s)\n",
        log.total_units
    ));
    let unaccounted: Vec<u32> = (0..log.total_units)
        .filter(|u| {
            !timelines
                .iter()
                .any(|t| t.unit == *u && t.merged_ms.is_some())
        })
        .collect();
    if !unaccounted.is_empty() {
        out.push_str(&format!("  NOT MERGED: units {unaccounted:?}\n"));
    }

    // Waterfall: one lane per unit over the campaign's observed window.
    let end = timelines
        .iter()
        .filter_map(|t| t.merged_ms.or(t.executed_ms).or(t.dispatched_ms))
        .max()
        .unwrap_or(0)
        .max(1);
    out.push_str(&format!(
        "\nwaterfall ({} ms total; . queued, = executing, # merge):\n",
        end
    ));
    let scale = |ms: u64| -> usize { ((ms as f64 / end as f64) * WATERFALL_COLS as f64) as usize };
    for t in &timelines {
        let (Some(enq), Some(disp)) = (t.enqueued_ms, t.dispatched_ms) else {
            out.push_str(&format!("  unit {:>4} [never dispatched]\n", t.unit));
            continue;
        };
        let exec_end = t.executed_ms.unwrap_or(disp);
        let merge_end = t.merged_ms.unwrap_or(exec_end);
        let mut lane = vec![b' '; WATERFALL_COLS + 1];
        for slot in lane
            .iter_mut()
            .take(scale(disp).min(WATERFALL_COLS))
            .skip(scale(enq))
        {
            *slot = b'.';
        }
        for slot in lane
            .iter_mut()
            .take(scale(exec_end).min(WATERFALL_COLS))
            .skip(scale(disp))
        {
            *slot = b'=';
        }
        lane[scale(merge_end).min(WATERFALL_COLS)] = b'#';
        let worker = if t.worker == NO_WORKER {
            "-".to_string()
        } else {
            format!("w{}", t.worker)
        };
        out.push_str(&format!(
            "  unit {:>4} {:>3} |{}| {:>6} ms{}\n",
            t.unit,
            worker,
            String::from_utf8_lossy(&lane),
            t.total_ms().unwrap_or(0),
            if t.requeues.is_empty() {
                String::new()
            } else {
                format!("  ({} requeue)", t.requeues.len())
            }
        ));
    }

    // Per-cell latency table, grouped by the enqueue event's cell label.
    let mut cells: std::collections::BTreeMap<&str, Vec<&UnitTimeline>> =
        std::collections::BTreeMap::new();
    for t in &timelines {
        cells.entry(t.label.as_str()).or_default().push(t);
    }
    out.push_str(&format!(
        "\nper-cell latency (ms):\n  {:<32} {:>5} {:>5} {:>5} {:>5} {:>6} {:>6}\n",
        "cell", "units", "queue", "exec", "merge", "total", "max"
    ));
    for (label, units) in &cells {
        let mean = |f: &dyn Fn(&UnitTimeline) -> Option<u64>| -> f64 {
            let vals: Vec<u64> = units.iter().filter_map(|t| f(t)).collect();
            if vals.is_empty() {
                return 0.0;
            }
            vals.iter().sum::<u64>() as f64 / vals.len() as f64
        };
        let max_total = units.iter().filter_map(|t| t.total_ms()).max().unwrap_or(0);
        let label = if label.is_empty() {
            "(unlabeled)"
        } else {
            label
        };
        out.push_str(&format!(
            "  {:<32} {:>5} {:>5.0} {:>5.0} {:>5.0} {:>6.0} {:>6}\n",
            label,
            units.len(),
            mean(&|t| t.queue_ms()),
            mean(&|t| t.execute_ms()),
            mean(&|t| t.merge_ms()),
            mean(&|t| t.total_ms()),
            max_total
        ));
    }

    // Critical path: the slowest-to-merge units bound the campaign's
    // wall-clock; break each into its lifecycle edges.
    let mut slowest: Vec<&UnitTimeline> = timelines
        .iter()
        .filter(|t| t.total_ms().is_some())
        .collect();
    slowest.sort_by_key(|t| std::cmp::Reverse(t.total_ms().unwrap_or(0)));
    out.push_str("\ncritical path (slowest units):\n");
    for t in slowest.iter().take(5) {
        out.push_str(&format!(
            "  unit {:>4} {:<32} total {} ms = queue {} + execute {} + merge {} \
             ({} tick(s), {:.1} ms on worker {})\n",
            t.unit,
            if t.label.is_empty() {
                "(unlabeled)"
            } else {
                &t.label
            },
            t.total_ms().unwrap_or(0),
            t.queue_ms().unwrap_or(0),
            t.execute_ms().unwrap_or(0),
            t.merge_ms().unwrap_or(0),
            t.ticks,
            t.exec_nanos as f64 / 1e6,
            t.worker
        ));
        for (ms, reason) in &t.requeues {
            out.push_str(&format!("            requeued at {ms} ms: {reason}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> SpanLog {
        SpanLog {
            campaign: 0xDEAD_BEEF_CAFE_F00D,
            total_units: 3,
            started_unix_ms: 1_700_000_000_000,
            events: vec![
                SpanEvent {
                    detail: "m0 gyro Freeze 30s".into(),
                    ..SpanEvent::new(0, SpanKind::Enqueued)
                },
                SpanEvent {
                    t_offset_ms: 5,
                    worker: 1,
                    span: 7,
                    ..SpanEvent::new(0, SpanKind::Dispatched)
                },
                SpanEvent {
                    t_offset_ms: 90,
                    worker: 1,
                    span: 7,
                    ticks: 45_000,
                    exec_nanos: 81_000_000,
                    stages: vec![
                        ("estimator".into(), 40_000_000),
                        ("dynamics".into(), 20_000_000),
                    ],
                    ..SpanEvent::new(0, SpanKind::Executed)
                },
                SpanEvent {
                    t_offset_ms: 91,
                    worker: 1,
                    span: 7,
                    ..SpanEvent::new(0, SpanKind::Merged)
                },
                SpanEvent {
                    t_offset_ms: 40,
                    detail: "lease expired".into(),
                    ..SpanEvent::new(1, SpanKind::Requeued)
                },
            ],
            tail: Tail::Clean,
        }
    }

    #[test]
    fn log_round_trips() {
        let log = sample_log();
        assert_eq!(SpanLog::decode(&log.encode()).unwrap(), log);
    }

    #[test]
    fn torn_tail_keeps_the_valid_prefix() {
        let log = sample_log();
        let bytes = log.encode();
        // Cut inside the last frame: everything before it survives, and
        // the tail says where the intact journal ends.
        let decoded = SpanLog::decode(&bytes[..bytes.len() - 3]).unwrap();
        assert_eq!(decoded.events, log.events[..log.events.len() - 1]);
        let Tail::Torn { clean_len } = decoded.tail else {
            panic!("expected a torn tail")
        };
        assert_eq!(decoded.encode(), bytes[..clean_len]);
    }

    #[test]
    fn journal_writes_a_decodable_file() {
        let path = std::env::temp_dir().join("imufit_spans_unit_test.ifsp");
        let journal = SpanJournal::create(&path, 42, 2).unwrap();
        journal
            .record(SpanEvent {
                detail: "cell".into(),
                ..SpanEvent::new(0, SpanKind::Enqueued)
            })
            .unwrap();
        journal
            .record(SpanEvent {
                worker: 0,
                span: 1,
                ..SpanEvent::new(0, SpanKind::Dispatched)
            })
            .unwrap();
        let log = SpanLog::read(&path).unwrap();
        assert_eq!(log.campaign, 42);
        assert_eq!(log.total_units, 2);
        assert_eq!(log.tail, Tail::Clean);
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.events[0].kind, SpanKind::Enqueued);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn report_renders_waterfall_cells_and_critical_path() {
        let report = render_report(&sample_log());
        // Accounting header.
        assert!(report.contains("3 units, 5 span events"), "{report}");
        assert!(
            report.contains("1/3 units merged, 1 requeue edge(s)"),
            "{report}"
        );
        assert!(report.contains("NOT MERGED: units [1, 2]"), "{report}");
        // Waterfall lanes.
        assert!(report.contains("waterfall"), "{report}");
        assert!(report.contains("unit    0  w1 |"), "{report}");
        assert!(report.contains("[never dispatched]"), "{report}");
        // Per-cell latency table keyed by the enqueue label.
        assert!(report.contains("per-cell latency"), "{report}");
        assert!(report.contains("m0 gyro Freeze 30s"), "{report}");
        // Critical path breaks the slowest unit into its edges.
        assert!(report.contains("critical path"), "{report}");
        assert!(
            report.contains("total 91 ms = queue 5 + execute 85 + merge 1"),
            "{report}"
        );
    }

    #[test]
    fn timelines_fold_requeues_and_edges() {
        let timelines = unit_timelines(&sample_log());
        assert_eq!(timelines.len(), 2);
        let u0 = &timelines[0];
        assert_eq!(u0.label, "m0 gyro Freeze 30s");
        assert_eq!(u0.queue_ms(), Some(5));
        assert_eq!(u0.execute_ms(), Some(85));
        assert_eq!(u0.merge_ms(), Some(1));
        assert_eq!(u0.total_ms(), Some(91));
        assert_eq!(u0.ticks, 45_000);
        let u1 = &timelines[1];
        assert_eq!(u1.requeues.len(), 1);
        assert_eq!(u1.requeues[0].1, "lease expired");
    }
}
