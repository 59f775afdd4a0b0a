//! The `.ifbb` ("IMU-fault black box") wire format.
//!
//! The format follows the `telemetry::wire` conventions — little-endian,
//! length-prefixed frames, CCITT-16 checksums — but versions the container
//! so future record layouts can coexist on disk.
//!
//! Container layout:
//!
//! ```text
//! [b"IFBB"][version: u8][drone_id: u32][meta_len: u16][metadata: utf8]
//! [seg_count: u32]
//!   per segment: [trigger: u8][trigger_event_id: u32][rec_count: u32][record frames...]
//! [event_count: u32][event frames...]
//! ```
//!
//! Every record and event is one shared-codec frame
//! ([`imufit_math::frame`], `u16` length; see the format table in DESIGN.md §19). Decoding
//! never panics: each read is bounds-checked and corruption surfaces as a
//! typed [`TraceError`].

use imufit_math::frame::{put_frame, Cursor, FrameError, LenWidth, Put};

use crate::event::{TraceEvent, TraceEventKind};
use crate::record::{ImuInstanceTrace, TraceRecord};
use crate::settings::TraceTrigger;

/// File magic: the first four bytes of every `.ifbb` file.
pub const IFBB_MAGIC: [u8; 4] = *b"IFBB";

/// Current container version.
pub const IFBB_VERSION: u8 = 1;

/// `caused_by` sentinel on the wire: no causing event.
const NO_CAUSE: u32 = u32::MAX;

/// Longest event `detail` string preserved on the wire, bytes.
const MAX_DETAIL: usize = 250;

/// Errors produced when decoding a black box.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The buffer ends before the structure it promises.
    Truncated,
    /// The file does not start with [`IFBB_MAGIC`].
    BadMagic,
    /// The container version is newer than this decoder.
    UnknownVersion(u8),
    /// A frame checksum does not match its contents.
    BadChecksum,
    /// An event frame carries an unknown kind code.
    UnknownEventKind(u8),
    /// A segment header carries an unknown trigger code.
    UnknownTrigger(u8),
    /// A structurally invalid frame (bad UTF-8, trailing bytes, ...).
    Malformed(&'static str),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Truncated => write!(f, "truncated black box"),
            TraceError::BadMagic => write!(f, "bad black-box magic"),
            TraceError::UnknownVersion(v) => write!(f, "unknown black-box version {v}"),
            TraceError::BadChecksum => write!(f, "frame checksum mismatch"),
            TraceError::UnknownEventKind(k) => write!(f, "unknown event kind {k}"),
            TraceError::UnknownTrigger(t) => write!(f, "unknown trigger code {t}"),
            TraceError::Malformed(what) => write!(f, "malformed black box: {what}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<FrameError> for TraceError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Truncated => TraceError::Truncated,
            FrameError::BadChecksum => TraceError::BadChecksum,
            FrameError::Malformed(what) => TraceError::Malformed(what),
        }
    }
}

/// One frozen capture window.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSegment {
    /// The anomaly that froze this window.
    pub trigger: TraceTrigger,
    /// The id of the [`TraceEvent`] that fired the trigger.
    pub trigger_event_id: u32,
    /// The pre/post window, oldest record first.
    pub records: Vec<TraceRecord>,
}

/// One run's complete black box: capture segments plus the full event
/// stream (events are cheap and always kept, even outside windows).
#[derive(Debug, Clone, PartialEq)]
pub struct BlackBox {
    /// Vehicle identifier (the campaign's drone id).
    pub drone_id: u32,
    /// Free-text run metadata (`k=v` pairs; see the campaign writer).
    pub metadata: String,
    /// Frozen capture windows, in trigger order.
    pub segments: Vec<TraceSegment>,
    /// The run's whole causal event stream, in emission order.
    pub events: Vec<TraceEvent>,
}

/// Record and event frames never legitimately exceed this many payload
/// bytes (the `u16` length prefix's own limit).
const MAX_FRAME: usize = u16::MAX as usize;

fn put_f32x3(buf: &mut Vec<u8>, v: [f32; 3]) {
    for x in v {
        buf.put_f32(x);
    }
}

fn get_f32x3(r: &mut Cursor) -> Result<[f32; 3], FrameError> {
    Ok([r.f32()?, r.f32()?, r.f32()?])
}

/// Appends one record frame to `out`.
fn encode_record(out: &mut Vec<u8>, rec: &TraceRecord) {
    let count = rec.instances.len().min(u8::MAX as usize);
    put_frame(out, LenWidth::U16, |p| {
        p.put_u64(rec.tick);
        p.put_f64(rec.time);
        p.put_f32(rec.pos_ratio);
        p.put_f32(rec.vel_ratio);
        p.put_f32(rec.hgt_ratio);
        p.put_u8(rec.cascade_stage);
        p.put_u8(rec.flags);
        p.put_u8(rec.primary);
        p.put_u8(rec.excluded_mask);
        p.put_f32(rec.deviation);
        p.put_f32(rec.inner_radius);
        p.put_f32(rec.outer_radius);
        p.put_u8(count as u8);
        for inst in rec.instances.iter().take(count) {
            put_f32x3(p, inst.gyro);
            put_f32x3(p, inst.accel);
            put_f32x3(p, inst.injected_gyro);
            put_f32x3(p, inst.injected_accel);
        }
    });
}

/// Reads one record frame.
fn decode_record(r: &mut Cursor) -> Result<TraceRecord, FrameError> {
    let mut p = r.frame(LenWidth::U16, MAX_FRAME)?;
    let tick = p.u64()?;
    let time = p.f64()?;
    let pos_ratio = p.f32()?;
    let vel_ratio = p.f32()?;
    let hgt_ratio = p.f32()?;
    let cascade_stage = p.u8()?;
    let flags = p.u8()?;
    let primary = p.u8()?;
    let excluded_mask = p.u8()?;
    let deviation = p.f32()?;
    let inner_radius = p.f32()?;
    let outer_radius = p.f32()?;
    let count = p.u8()? as usize;
    let mut instances = Vec::with_capacity(count);
    for _ in 0..count {
        instances.push(ImuInstanceTrace {
            gyro: get_f32x3(&mut p)?,
            accel: get_f32x3(&mut p)?,
            injected_gyro: get_f32x3(&mut p)?,
            injected_accel: get_f32x3(&mut p)?,
        });
    }
    p.finish("trailing bytes in record frame")?;
    Ok(TraceRecord {
        tick,
        time,
        pos_ratio,
        vel_ratio,
        hgt_ratio,
        cascade_stage,
        flags,
        primary,
        excluded_mask,
        deviation,
        inner_radius,
        outer_radius,
        instances,
    })
}

/// Appends one event frame to `out`. The detail string is truncated to
/// [`MAX_DETAIL`] bytes (on a char boundary).
fn encode_event(out: &mut Vec<u8>, ev: &TraceEvent) {
    let mut detail = ev.detail.as_str();
    if detail.len() > MAX_DETAIL {
        let mut cut = MAX_DETAIL;
        while !detail.is_char_boundary(cut) {
            cut -= 1;
        }
        detail = &detail[..cut];
    }
    put_frame(out, LenWidth::U16, |p| {
        p.put_u32(ev.id);
        p.put_u32(ev.caused_by.unwrap_or(NO_CAUSE));
        p.put_u64(ev.tick);
        p.put_f64(ev.time);
        p.put_u8(ev.kind.code());
        p.put_u32(ev.param);
        p.put_u16(detail.len() as u16);
        p.extend_from_slice(detail.as_bytes());
    });
}

/// Reads one event frame.
fn decode_event(r: &mut Cursor) -> Result<TraceEvent, TraceError> {
    let mut p = r.frame(LenWidth::U16, MAX_FRAME)?;
    let id = p.u32()?;
    let caused_by = match p.u32()? {
        NO_CAUSE => None,
        c => Some(c),
    };
    let tick = p.u64()?;
    let time = p.f64()?;
    let kind_code = p.u8()?;
    let kind =
        TraceEventKind::from_code(kind_code).ok_or(TraceError::UnknownEventKind(kind_code))?;
    let param = p.u32()?;
    let detail_len = p.u16()? as usize;
    let detail = p.str(detail_len)?.to_string();
    p.finish("trailing bytes in event frame")?;
    Ok(TraceEvent {
        id,
        caused_by,
        tick,
        time,
        kind,
        param,
        detail,
    })
}

impl BlackBox {
    /// Serializes the black box into a standalone `.ifbb` byte buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(&IFBB_MAGIC);
        out.put_u8(IFBB_VERSION);
        out.put_u32(self.drone_id);
        let meta = &self.metadata.as_bytes()[..self.metadata.len().min(u16::MAX as usize)];
        out.put_u16(meta.len() as u16);
        out.extend_from_slice(meta);
        out.put_u32(self.segments.len() as u32);
        for seg in &self.segments {
            out.put_u8(seg.trigger.code());
            out.put_u32(seg.trigger_event_id);
            out.put_u32(seg.records.len() as u32);
            for rec in &seg.records {
                encode_record(&mut out, rec);
            }
        }
        out.put_u32(self.events.len() as u32);
        for ev in &self.events {
            encode_event(&mut out, ev);
        }
        out
    }

    /// Parses a `.ifbb` byte buffer.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] describing the first structural problem;
    /// decoding never panics, whatever the input.
    pub fn decode(data: &[u8]) -> Result<Self, TraceError> {
        let mut r = Cursor::new(data);
        if r.bytes(4)? != IFBB_MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = r.u8()?;
        if version != IFBB_VERSION {
            return Err(TraceError::UnknownVersion(version));
        }
        let drone_id = r.u32()?;
        let meta_len = r.u16()? as usize;
        let metadata = r.str(meta_len)?.to_string();
        let seg_count = r.u32()? as usize;
        let mut segments = Vec::with_capacity(seg_count.min(1024));
        for _ in 0..seg_count {
            let trigger_code = r.u8()?;
            let trigger = TraceTrigger::from_code(trigger_code)
                .ok_or(TraceError::UnknownTrigger(trigger_code))?;
            let trigger_event_id = r.u32()?;
            let rec_count = r.u32()? as usize;
            let mut records = Vec::with_capacity(rec_count.min(4096));
            for _ in 0..rec_count {
                records.push(decode_record(&mut r)?);
            }
            segments.push(TraceSegment {
                trigger,
                trigger_event_id,
                records,
            });
        }
        let event_count = r.u32()? as usize;
        let mut events = Vec::with_capacity(event_count.min(4096));
        for _ in 0..event_count {
            events.push(decode_event(&mut r)?);
        }
        r.finish("trailing bytes after black box")?;
        Ok(BlackBox {
            drone_id,
            metadata,
            segments,
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> TraceRecord {
        TraceRecord {
            tick: 12345,
            time: 49.38,
            pos_ratio: 0.42,
            vel_ratio: 1.7,
            hgt_ratio: 0.05,
            cascade_stage: 2,
            flags: 0b0101,
            primary: 1,
            excluded_mask: 0b0001,
            deviation: 3.5,
            inner_radius: 25.0,
            outer_radius: 50.0,
            instances: vec![
                ImuInstanceTrace {
                    gyro: [0.01, -0.02, 0.03],
                    accel: [0.1, 0.2, -9.8],
                    injected_gyro: [0.5, 0.0, 0.0],
                    injected_accel: [0.0; 3],
                },
                ImuInstanceTrace::default(),
            ],
        }
    }

    fn sample_event() -> TraceEvent {
        TraceEvent {
            id: 3,
            caused_by: Some(1),
            tick: 12345,
            time: 49.38,
            kind: TraceEventKind::CascadeTransition,
            param: 4,
            detail: "OutlierExclusion -> Failsafe".to_string(),
        }
    }

    fn sample_box() -> BlackBox {
        BlackBox {
            drone_id: 7,
            metadata: "mission=0 kind=freeze seed=2024".to_string(),
            segments: vec![TraceSegment {
                trigger: TraceTrigger::DetectorEdge,
                trigger_event_id: 2,
                records: vec![sample_record(), TraceRecord::default()],
            }],
            events: vec![sample_event()],
        }
    }

    #[test]
    fn record_frame_round_trips() {
        let rec = sample_record();
        let mut buf = Vec::new();
        encode_record(&mut buf, &rec);
        let mut r = Cursor::new(&buf);
        assert_eq!(decode_record(&mut r).unwrap(), rec);
        assert!(r.is_empty());
    }

    #[test]
    fn event_frame_round_trips() {
        let ev = sample_event();
        let mut buf = Vec::new();
        encode_event(&mut buf, &ev);
        assert_eq!(decode_event(&mut Cursor::new(&buf)).unwrap(), ev);
    }

    #[test]
    fn long_event_details_are_truncated_not_lost() {
        let ev = TraceEvent {
            detail: "x".repeat(1000),
            ..sample_event()
        };
        let mut buf = Vec::new();
        encode_event(&mut buf, &ev);
        let back = decode_event(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(back.detail.len(), MAX_DETAIL);
    }

    #[test]
    fn black_box_round_trips() {
        let bb = sample_box();
        assert_eq!(BlackBox::decode(&bb.encode()).unwrap(), bb);
    }

    #[test]
    fn empty_black_box_round_trips() {
        let bb = BlackBox {
            drone_id: 0,
            metadata: String::new(),
            segments: Vec::new(),
            events: Vec::new(),
        };
        assert_eq!(BlackBox::decode(&bb.encode()).unwrap(), bb);
    }

    #[test]
    fn trace_error_displays() {
        assert_eq!(TraceError::Truncated.to_string(), "truncated black box");
        assert_eq!(
            TraceError::UnknownVersion(3).to_string(),
            "unknown black-box version 3"
        );
        assert!(TraceError::Malformed("x").to_string().contains("x"));
    }
}
