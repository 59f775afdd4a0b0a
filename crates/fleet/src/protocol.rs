//! The fleet wire protocol: length-prefixed, CRC-framed, versioned
//! messages between a worker pool and its worker processes.
//!
//! Frame layout (little-endian), following the `telemetry::wire` and
//! `trace::wire` conventions:
//!
//! ```text
//! [0xF1][version: u8][msg_id: u8][len: u32][payload: len bytes][crc: u16]
//! ```
//!
//! The CRC is CCITT-16 over everything from `version` through the payload,
//! so a corrupted header or payload is caught before the message is
//! interpreted. Reads go through the shared bounds-checked [`Cursor`]
//! (DESIGN.md §19). Decoding never panics: truncation, bad magic, unknown
//! versions/ids, and checksum mismatches all surface as typed
//! [`FleetError`]s.

use std::io::{Read, Write};

use imufit_math::frame::{crc16, Cursor, FrameError, Put};

use imufit_controller::FailsafeReason;
use imufit_core::{ExperimentRecord, ExperimentSpec};
use imufit_faults::{
    AttackKind, AttackSpec, FaultKind, FaultScope, FaultSpec, FaultTarget, InjectionWindow,
};
use imufit_uav::FlightOutcome;

/// Frame start marker (distinct from telemetry's `0xFD` and trace's
/// `IFBB` so a stray cross-protocol byte stream is rejected immediately).
pub const MAGIC: u8 = 0xF1;

/// Current protocol version. A pool and its workers must agree exactly;
/// version skew is a typed error, not silent misinterpretation. Version 2
/// added the attack field to the experiment-spec codec; version 3 added
/// the optional metric-snapshot payload piggybacked on heartbeats;
/// version 4 added the run-span trace context on `Assign` and the
/// execution report (ticks, wall time, per-stage self-time) on `Result`.
/// Version 5 added multi-campaign tags: `Welcome` may omit its scenario
/// (pool mode), `Assign` carries the campaign id plus — on a worker's
/// first unit from that campaign — the campaign's scenario inline, and
/// `Result` echoes the campaign id so unit indices stay campaign-local.
/// Version 6 dropped the `Welcome` scenario: every campaign's scenario
/// travels inline with its first `Assign` on a connection.
pub const PROTOCOL_VERSION: u8 = 6;

/// Upper bound on per-stage entries in an execution report (mirrors the
/// span journal's stage cap).
pub const MAX_EXEC_STAGES: usize = 64;

/// Upper bound on a frame payload. The largest legitimate message is an
/// `Assign` carrying a scenario document (a few KiB); anything claiming
/// more than this is corruption, not data.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// Errors produced by the fleet codec and transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The buffer or stream ends before a complete frame.
    Truncated,
    /// The first byte is not [`MAGIC`].
    BadMagic,
    /// The frame's protocol version is not [`PROTOCOL_VERSION`].
    UnknownVersion(u8),
    /// The checksum does not match the frame contents.
    BadChecksum,
    /// Unknown message id.
    UnknownMessage(u8),
    /// A structurally invalid payload (bad UTF-8, unknown enum code,
    /// trailing bytes, oversized length, ...).
    Malformed(&'static str),
    /// A transport-level IO failure (connect, read, write).
    Io(String),
    /// A checkpoint journal does not belong to the campaign being resumed.
    CheckpointMismatch {
        /// What the journal was recorded for.
        expected: String,
        /// What the resuming campaign looks like.
        found: String,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Truncated => write!(f, "truncated fleet frame"),
            FleetError::BadMagic => write!(f, "bad fleet frame magic"),
            FleetError::UnknownVersion(v) => write!(f, "unknown fleet protocol version {v}"),
            FleetError::BadChecksum => write!(f, "fleet frame checksum mismatch"),
            FleetError::UnknownMessage(id) => write!(f, "unknown fleet message id {id}"),
            FleetError::Malformed(what) => write!(f, "malformed fleet frame: {what}"),
            FleetError::Io(e) => write!(f, "fleet transport: {e}"),
            FleetError::CheckpointMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different campaign (journal: {expected}; resuming: {found})"
            ),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> Self {
        FleetError::Io(e.to_string())
    }
}

impl From<FrameError> for FleetError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Truncated => FleetError::Truncated,
            FrameError::BadChecksum => FleetError::BadChecksum,
            FrameError::Malformed(what) => FleetError::Malformed(what),
        }
    }
}

/// Per-unit execution report a worker attaches to its `Result`: the raw
/// material for the pool's `executed` span event.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecReport {
    /// Simulation ticks the unit consumed.
    pub ticks: u64,
    /// Wall-clock nanoseconds the worker spent executing the unit.
    pub exec_nanos: u64,
    /// Per-stage self-time attribution `(stage name, nanoseconds)` from
    /// the tick profiler; empty when instrumentation is compiled out.
    pub stages: Vec<(String, u64)>,
}

/// Messages exchanged between a worker pool and its workers.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetMsg {
    /// Worker → pool: first message on a fresh connection.
    Hello {
        /// The worker's self-assigned id (stable across reconnects).
        worker_id: u32,
    },
    /// Pool → worker: handshake reply. Campaigns arrive later,
    /// each one's scenario inline with its first `Assign`.
    Welcome {
        /// Black-box output directory, if tracing is armed.
        trace_dir: Option<String>,
        /// Lease timeout the pool enforces, seconds (workers pace
        /// their heartbeats off it).
        lease_timeout_s: f64,
    },
    /// Worker → pool: give me a unit.
    Request,
    /// Pool → worker: fly this unit.
    Assign {
        /// Matrix index of the unit within its campaign (the merge key).
        unit: u32,
        /// The experiment to run.
        spec: ExperimentSpec,
        /// Trace context: the campaign fingerprint this dispatch belongs
        /// to (FNV-1a over the scenario + matrix, the same value the
        /// checkpoint journal carries).
        campaign_fp: u64,
        /// Trace context: the span id of this dispatch. Fresh per
        /// delivery, so a redelivered unit's retry chain stays
        /// distinguishable in the span journal.
        span: u64,
        /// Pool campaign id this unit belongs to.
        campaign: u32,
        /// The campaign's scenario document (TOML, the same
        /// unknown-/missing-key-rejecting codec as `--scenario`), sent
        /// once per connection the first time this campaign assigns a
        /// unit to the worker; the worker caches it by campaign id.
        spec_toml: Option<String>,
    },
    /// Pool → worker: nothing became available while the pool held the
    /// `Request` for one heartbeat period, but campaigns may still bring
    /// work (leased units may yet be re-queued) — re-request at once.
    NoWork,
    /// Pool → worker: no more work will come (the campaign is complete or
    /// the pool is shutting down); disconnect.
    Done,
    /// Worker → pool: a finished unit's record.
    Result {
        /// Matrix index of the unit within its campaign.
        unit: u32,
        /// The measured record, bit-exact (floats travel as raw bits).
        record: ExperimentRecord,
        /// The span id echoed from the `Assign` that triggered this run.
        span: u64,
        /// Execution report for the span journal.
        exec: ExecReport,
        /// The campaign id echoed from the `Assign`.
        campaign: u32,
    },
    /// Worker → pool: still alive, extend my leases. Optionally
    /// carries the worker's encoded metric-registry snapshot
    /// (`imufit_obs::snapshot` wire format, its own inner CRC frame) so
    /// the pool can serve a merged fleet-wide `/metrics` view.
    Heartbeat {
        /// Encoded snapshot, absent when the worker has nothing to report
        /// (e.g. instrumentation compiled out).
        snapshot: Option<Vec<u8>>,
    },
}

impl FleetMsg {
    /// The message id on the wire.
    pub fn id(&self) -> u8 {
        match self {
            FleetMsg::Hello { .. } => 1,
            FleetMsg::Welcome { .. } => 2,
            FleetMsg::Request => 3,
            FleetMsg::Assign { .. } => 4,
            FleetMsg::NoWork => 5,
            FleetMsg::Done => 6,
            FleetMsg::Result { .. } => 7,
            FleetMsg::Heartbeat { .. } => 8,
        }
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn get_str(r: &mut Cursor) -> Result<String, FleetError> {
    let len = r.u32()? as usize;
    if len > MAX_PAYLOAD {
        return Err(FleetError::Malformed("oversized string"));
    }
    Ok(r.str(len)?.to_string())
}

/// Optional string: a presence flag, then the string when present.
fn put_opt_str(buf: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => buf.put_u8(0),
        Some(s) => {
            buf.put_u8(1);
            put_str(buf, s);
        }
    }
}

fn get_opt_str(r: &mut Cursor) -> Result<Option<String>, FleetError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(get_str(r)?)),
        _ => Err(FleetError::Malformed("bad optional-string presence flag")),
    }
}

// --- Experiment spec / record codecs -------------------------------------

fn put_exec(buf: &mut Vec<u8>, exec: &ExecReport) {
    buf.put_u64(exec.ticks);
    buf.put_u64(exec.exec_nanos);
    let n = exec.stages.len().min(MAX_EXEC_STAGES);
    buf.put_u8(n as u8);
    for (name, nanos) in exec.stages.iter().take(n) {
        put_str(buf, name);
        buf.put_u64(*nanos);
    }
}

fn get_exec(r: &mut Cursor) -> Result<ExecReport, FleetError> {
    let ticks = r.u64()?;
    let exec_nanos = r.u64()?;
    let n = r.u8()? as usize;
    if n > MAX_EXEC_STAGES {
        return Err(FleetError::Malformed("too many exec stages"));
    }
    let mut stages = Vec::with_capacity(n);
    for _ in 0..n {
        let name = get_str(r)?;
        if name.len() > 256 {
            return Err(FleetError::Malformed("oversized stage name"));
        }
        stages.push((name, r.u64()?));
    }
    Ok(ExecReport {
        ticks,
        exec_nanos,
        stages,
    })
}

fn put_spec(buf: &mut Vec<u8>, spec: &ExperimentSpec) {
    buf.put_u32(spec.mission_index as u32);
    match &spec.fault {
        None => buf.put_u8(0),
        Some(f) => {
            buf.put_u8(1);
            buf.put_u8(f.kind.id() as u8);
            buf.put_u8(f.target.id() as u8);
            buf.put_f64(f.window.start);
            buf.put_f64(f.window.duration);
        }
    }
    match &spec.attack {
        None => buf.put_u8(0),
        Some(a) => {
            buf.put_u8(1);
            buf.put_u8(a.kind.id() as u8);
            // Scope travels as its stable id: 0 = all, k + 1 = instance k.
            buf.put_u8(a.scope.id() as u8);
            buf.put_f64(a.window.start);
            buf.put_f64(a.window.duration);
            buf.put_f64(a.intensity);
        }
    }
}

fn get_window(r: &mut Cursor) -> Result<InjectionWindow, FleetError> {
    let start = r.f64()?;
    let duration = r.f64()?;
    if !(start.is_finite() && start >= 0.0 && duration.is_finite() && duration >= 0.0) {
        return Err(FleetError::Malformed("negative or non-finite window"));
    }
    Ok(InjectionWindow::new(start, duration))
}

fn get_spec(r: &mut Cursor) -> Result<ExperimentSpec, FleetError> {
    let mission_index = r.u32()? as usize;
    let fault = match r.u8()? {
        0 => None,
        1 => {
            let kind_id = r.u8()? as u64;
            let target_id = r.u8()? as u64;
            let kind = FaultKind::ALL
                .into_iter()
                .find(|k| k.id() == kind_id)
                .ok_or(FleetError::Malformed("unknown fault kind id"))?;
            let target = FaultTarget::all()
                .into_iter()
                .find(|t| t.id() == target_id)
                .ok_or(FleetError::Malformed("unknown fault target id"))?;
            Some(FaultSpec::new(kind, target, get_window(r)?))
        }
        _ => return Err(FleetError::Malformed("bad fault presence flag")),
    };
    let attack = match r.u8()? {
        0 => None,
        1 => {
            let kind_id = r.u8()? as u64;
            let scope_id = r.u8()?;
            let kind = AttackKind::all()
                .into_iter()
                .find(|k| k.id() == kind_id)
                .ok_or(FleetError::Malformed("unknown attack kind id"))?;
            let scope = match scope_id {
                0 => FaultScope::All,
                k => FaultScope::Instance(k as usize - 1),
            };
            let window = get_window(r)?;
            let intensity = r.f64()?;
            if !intensity.is_finite() {
                return Err(FleetError::Malformed("non-finite attack intensity"));
            }
            Some(
                AttackSpec::new(kind, window)
                    .with_scope(scope)
                    .with_intensity(intensity),
            )
        }
        _ => return Err(FleetError::Malformed("bad attack presence flag")),
    };
    Ok(ExperimentSpec {
        mission_index,
        fault,
        attack,
    })
}

fn reason_code(reason: FailsafeReason) -> u8 {
    match reason {
        FailsafeReason::GyroImplausible => 0,
        FailsafeReason::AccelImplausible => 1,
        FailsafeReason::InnovationRejection => 2,
        FailsafeReason::ImuDead => 3,
        FailsafeReason::AttitudeFailure => 4,
        FailsafeReason::ExternalDetection => 5,
    }
}

fn reason_from_code(code: u8) -> Result<FailsafeReason, FleetError> {
    Ok(match code {
        0 => FailsafeReason::GyroImplausible,
        1 => FailsafeReason::AccelImplausible,
        2 => FailsafeReason::InnovationRejection,
        3 => FailsafeReason::ImuDead,
        4 => FailsafeReason::AttitudeFailure,
        5 => FailsafeReason::ExternalDetection,
        _ => return Err(FleetError::Malformed("unknown failsafe reason code")),
    })
}

fn put_outcome(buf: &mut Vec<u8>, outcome: &FlightOutcome) {
    match outcome {
        FlightOutcome::Completed => {
            buf.put_u8(0);
            buf.put_f64(0.0);
            buf.put_u8(0);
        }
        FlightOutcome::Crashed { time } => {
            buf.put_u8(1);
            buf.put_f64(*time);
            buf.put_u8(0);
        }
        FlightOutcome::Failsafe { time, reason } => {
            buf.put_u8(2);
            buf.put_f64(*time);
            buf.put_u8(reason_code(*reason));
        }
        FlightOutcome::Timeout => {
            buf.put_u8(3);
            buf.put_f64(0.0);
            buf.put_u8(0);
        }
        FlightOutcome::Aborted => {
            buf.put_u8(4);
            buf.put_f64(0.0);
            buf.put_u8(0);
        }
    }
}

fn get_outcome(r: &mut Cursor) -> Result<FlightOutcome, FleetError> {
    let code = r.u8()?;
    let time = r.f64()?;
    let reason = r.u8()?;
    Ok(match code {
        0 => FlightOutcome::Completed,
        1 => FlightOutcome::Crashed { time },
        2 => FlightOutcome::Failsafe {
            time,
            reason: reason_from_code(reason)?,
        },
        3 => FlightOutcome::Timeout,
        4 => FlightOutcome::Aborted,
        _ => return Err(FleetError::Malformed("unknown outcome code")),
    })
}

/// Appends one record to `buf` (shared by `Result` frames and the
/// checkpoint journal so both carry identical bit-exact payloads).
pub(crate) fn put_record(buf: &mut Vec<u8>, record: &ExperimentRecord) {
    put_spec(buf, &record.spec);
    buf.put_u32(record.drone_id);
    put_outcome(buf, &record.outcome);
    buf.put_f64(record.flight_duration);
    buf.put_f64(record.distance_est);
    buf.put_f64(record.distance_true);
    buf.put_u32(record.inner_violations);
    buf.put_u32(record.outer_violations);
    buf.put_u32(record.ekf_resets);
}

/// Reads one record (see [`put_record`]).
pub(crate) fn get_record(r: &mut Cursor) -> Result<ExperimentRecord, FleetError> {
    Ok(ExperimentRecord {
        spec: get_spec(r)?,
        drone_id: r.u32()?,
        outcome: get_outcome(r)?,
        flight_duration: r.f64()?,
        distance_est: r.f64()?,
        distance_true: r.f64()?,
        inner_violations: r.u32()?,
        outer_violations: r.u32()?,
        ekf_resets: r.u32()?,
    })
}

// --- Message framing ------------------------------------------------------

/// Encodes a message into one framed byte buffer.
pub fn encode_msg(msg: &FleetMsg) -> Vec<u8> {
    let mut frame = Vec::with_capacity(128);
    frame.put_u8(MAGIC);
    frame.put_u8(PROTOCOL_VERSION);
    frame.put_u8(msg.id());
    frame.put_u32(0);
    match msg {
        FleetMsg::Hello { worker_id } => frame.put_u32(*worker_id),
        FleetMsg::Welcome {
            trace_dir,
            lease_timeout_s,
        } => {
            put_opt_str(&mut frame, trace_dir.as_deref());
            frame.put_f64(*lease_timeout_s);
        }
        FleetMsg::Request | FleetMsg::NoWork | FleetMsg::Done => {}
        FleetMsg::Heartbeat { snapshot } => match snapshot {
            None => frame.put_u8(0),
            Some(bytes) => {
                frame.put_u8(1);
                frame.put_u32(bytes.len() as u32);
                frame.extend_from_slice(bytes);
            }
        },
        FleetMsg::Assign {
            unit,
            spec,
            campaign_fp,
            span,
            campaign,
            spec_toml,
        } => {
            frame.put_u32(*unit);
            put_spec(&mut frame, spec);
            frame.put_u64(*campaign_fp);
            frame.put_u64(*span);
            frame.put_u32(*campaign);
            put_opt_str(&mut frame, spec_toml.as_deref());
        }
        FleetMsg::Result {
            unit,
            record,
            span,
            exec,
            campaign,
        } => {
            frame.put_u32(*unit);
            put_record(&mut frame, record);
            frame.put_u64(*span);
            put_exec(&mut frame, exec);
            frame.put_u32(*campaign);
        }
    }

    let len = (frame.len() - 7) as u32;
    frame[3..7].copy_from_slice(&len.to_le_bytes());
    let crc = crc16(&frame[1..]);
    frame.put_u16(crc);
    frame
}

fn decode_payload(msg_id: u8, mut r: Cursor) -> Result<FleetMsg, FleetError> {
    let msg = match msg_id {
        1 => FleetMsg::Hello {
            worker_id: r.u32()?,
        },
        2 => FleetMsg::Welcome {
            trace_dir: get_opt_str(&mut r)?,
            lease_timeout_s: r.f64()?,
        },
        3 => FleetMsg::Request,
        4 => FleetMsg::Assign {
            unit: r.u32()?,
            spec: get_spec(&mut r)?,
            campaign_fp: r.u64()?,
            span: r.u64()?,
            campaign: r.u32()?,
            spec_toml: get_opt_str(&mut r)?,
        },
        5 => FleetMsg::NoWork,
        6 => FleetMsg::Done,
        7 => FleetMsg::Result {
            unit: r.u32()?,
            record: get_record(&mut r)?,
            span: r.u64()?,
            exec: get_exec(&mut r)?,
            campaign: r.u32()?,
        },
        8 => {
            let snapshot = match r.u8()? {
                0 => None,
                1 => {
                    let len = r.u32()? as usize;
                    if len > MAX_PAYLOAD {
                        return Err(FleetError::Malformed("oversized heartbeat snapshot"));
                    }
                    Some(r.bytes(len)?.to_vec())
                }
                _ => return Err(FleetError::Malformed("bad snapshot presence flag")),
            };
            FleetMsg::Heartbeat { snapshot }
        }
        other => return Err(FleetError::UnknownMessage(other)),
    };
    r.finish("trailing bytes in fleet frame")?;
    Ok(msg)
}

/// Decodes one framed message from a byte slice.
///
/// # Errors
///
/// Returns a typed [`FleetError`] for truncated, corrupted, or unknown
/// frames; never panics, whatever the input.
pub fn decode_msg(data: &[u8]) -> Result<FleetMsg, FleetError> {
    let mut r = Cursor::new(data);
    if r.u8()? != MAGIC {
        return Err(FleetError::BadMagic);
    }
    let version = r.u8()?;
    let msg_id = r.u8()?;
    let len = r.u32()? as usize;
    if len > MAX_PAYLOAD {
        return Err(FleetError::Malformed("oversized payload length"));
    }
    let payload = Cursor::new(r.bytes(len)?);
    r.check_crc(1)?;
    // Version is checked after the CRC: a flipped version byte reads as
    // corruption, a genuinely different (intact) version as skew.
    if version != PROTOCOL_VERSION {
        return Err(FleetError::UnknownVersion(version));
    }
    decode_payload(msg_id, payload)
}

/// Writes one framed message to a stream.
///
/// # Errors
///
/// Returns [`FleetError::Io`] on transport failure.
pub fn write_msg(stream: &mut impl Write, msg: &FleetMsg) -> Result<usize, FleetError> {
    let frame = encode_msg(msg);
    stream.write_all(&frame)?;
    stream.flush()?;
    Ok(frame.len())
}

/// Reads one framed message from a stream; `(message, frame length)`.
///
/// # Errors
///
/// Returns [`FleetError::Truncated`] when the peer closes mid-frame (a
/// clean close before any header byte also reads as truncation) and the
/// usual typed errors for corruption.
pub fn read_msg(stream: &mut impl Read) -> Result<(FleetMsg, usize), FleetError> {
    let mut head = [0u8; 7];
    read_exact_or_truncated(stream, &mut head)?;
    if head[0] != MAGIC {
        return Err(FleetError::BadMagic);
    }
    let len = u32::from_le_bytes([head[3], head[4], head[5], head[6]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(FleetError::Malformed("oversized payload length"));
    }
    let mut rest = vec![0u8; len + 2];
    read_exact_or_truncated(stream, &mut rest)?;
    let mut frame = Vec::with_capacity(9 + len);
    frame.extend_from_slice(&head);
    frame.extend_from_slice(&rest);
    decode_msg(&frame).map(|msg| (msg, frame.len()))
}

fn read_exact_or_truncated(stream: &mut impl Read, buf: &mut [u8]) -> Result<(), FleetError> {
    stream.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            FleetError::Truncated
        } else {
            FleetError::Io(e.to_string())
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_record() -> ExperimentRecord {
        ExperimentRecord {
            spec: ExperimentSpec::faulty(
                3,
                FaultKind::Freeze,
                FaultTarget::Imu,
                InjectionWindow::new(90.0, 30.0),
            ),
            drone_id: 7,
            outcome: FlightOutcome::Failsafe {
                time: 97.25,
                reason: FailsafeReason::InnovationRejection,
            },
            flight_duration: 132.5,
            distance_est: 1234.567,
            distance_true: 1200.001,
            inner_violations: 2,
            outer_violations: 1,
            ekf_resets: 3,
        }
    }

    fn round_trip(msg: FleetMsg) {
        let bytes = encode_msg(&msg);
        assert_eq!(decode_msg(&bytes).unwrap(), msg);
        // The stream reader agrees with the slice decoder.
        let mut cursor = std::io::Cursor::new(bytes.clone());
        let (read, n) = read_msg(&mut cursor).unwrap();
        assert_eq!(read, msg);
        assert_eq!(n, bytes.len());
    }

    #[test]
    fn all_messages_round_trip() {
        round_trip(FleetMsg::Hello { worker_id: 42 });
        round_trip(FleetMsg::Welcome {
            trace_dir: Some("out/traces".to_string()),
            lease_timeout_s: 12.5,
        });
        round_trip(FleetMsg::Welcome {
            trace_dir: None,
            lease_timeout_s: 30.0,
        });
        round_trip(FleetMsg::Request);
        round_trip(FleetMsg::Assign {
            unit: 17,
            spec: ExperimentSpec::gold(4),
            campaign_fp: 0xDEAD_BEEF_CAFE_F00D,
            span: 1,
            campaign: 0,
            spec_toml: None,
        });
        // A pool dispatch carrying the campaign scenario inline.
        round_trip(FleetMsg::Assign {
            unit: 18,
            spec: sample_record().spec,
            campaign_fp: 0,
            span: u64::MAX,
            campaign: 3,
            spec_toml: Some("name = \"quick\"\n[campaign]\nseed = 9".to_string()),
        });
        // Attack cells: kind, scope, window, and intensity all survive.
        round_trip(FleetMsg::Assign {
            unit: 19,
            spec: ExperimentSpec::attacked(
                2,
                AttackSpec::new(AttackKind::GpsSpoofRamp, InjectionWindow::new(90.0, 30.0))
                    .with_scope(FaultScope::Instance(0))
                    .with_intensity(0.75),
            ),
            campaign_fp: 7,
            span: 7,
            campaign: 1,
            spec_toml: None,
        });
        for kind in AttackKind::all() {
            round_trip(FleetMsg::Assign {
                unit: 20 + kind.id() as u32,
                spec: ExperimentSpec::attacked(
                    0,
                    AttackSpec::new(kind, InjectionWindow::new(90.0, 10.0)),
                ),
                campaign_fp: 1,
                span: kind.id(),
                campaign: 0,
                spec_toml: None,
            });
        }
        round_trip(FleetMsg::NoWork);
        round_trip(FleetMsg::Done);
        round_trip(FleetMsg::Result {
            unit: 844,
            record: sample_record(),
            span: 99,
            exec: ExecReport::default(),
            campaign: 0,
        });
        round_trip(FleetMsg::Result {
            unit: 845,
            record: sample_record(),
            span: 100,
            exec: ExecReport {
                ticks: 132_500,
                exec_nanos: 987_654_321,
                stages: vec![
                    ("sensors".to_string(), 1_000),
                    ("estimator".to_string(), 5_000),
                    ("dynamics".to_string(), 3_000),
                ],
            },
            campaign: 7,
        });
        round_trip(FleetMsg::Heartbeat { snapshot: None });
        round_trip(FleetMsg::Heartbeat {
            snapshot: Some(vec![0xF5, 1, 2, 3, 4]),
        });
    }

    #[test]
    fn record_floats_are_bit_exact() {
        let mut record = sample_record();
        record.flight_duration = f64::from_bits(0x400921FB54442D18); // pi
        record.distance_est = -0.0;
        let msg = FleetMsg::Result {
            unit: 0,
            record,
            span: 0,
            exec: ExecReport::default(),
            campaign: 0,
        };
        let back = decode_msg(&encode_msg(&msg)).unwrap();
        let FleetMsg::Result { record: r, .. } = back else {
            panic!("wrong message")
        };
        assert_eq!(r.flight_duration.to_bits(), 0x400921FB54442D18);
        assert_eq!(r.distance_est.to_bits(), (-0.0_f64).to_bits());
    }

    #[test]
    fn exec_report_stage_list_is_capped_on_encode() {
        let exec = ExecReport {
            ticks: 1,
            exec_nanos: 2,
            stages: (0..100).map(|i| (format!("s{i}"), i)).collect(),
        };
        let msg = FleetMsg::Result {
            unit: 0,
            record: sample_record(),
            span: 1,
            exec,
            campaign: 0,
        };
        let FleetMsg::Result { exec, .. } = decode_msg(&encode_msg(&msg)).unwrap() else {
            panic!("wrong message")
        };
        assert_eq!(exec.stages.len(), MAX_EXEC_STAGES);
    }

    #[test]
    fn stream_reader_reports_clean_close_as_truncation() {
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert_eq!(read_msg(&mut empty).unwrap_err(), FleetError::Truncated);
    }

    #[test]
    fn errors_display() {
        assert_eq!(FleetError::Truncated.to_string(), "truncated fleet frame");
        assert!(FleetError::UnknownVersion(3).to_string().contains("3"));
        assert!(FleetError::CheckpointMismatch {
            expected: "a".into(),
            found: "b".into()
        }
        .to_string()
        .contains("different campaign"));
    }
}
