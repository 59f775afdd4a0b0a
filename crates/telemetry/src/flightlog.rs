//! Binary flight logs: a compact, ULog-inspired container for recorded
//! tracks.
//!
//! The paper's platform "records all flights, capturing data from both
//! fault-injected and fault-free scenarios"; this module provides that
//! storage layer. A log is a header (magic, version, drone id, metadata
//! string) followed by length-prefixed [`TrackPoint`] records, each
//! CRC-protected with the same CCITT-16 as the wire codec, so a truncated or
//! bit-flipped file is detected rather than silently misparsed.
//!
//! Version 2 appends an **events section** after the track: a count
//! followed by length-prefixed, CRC-protected [`FlightEvent`] records
//! (fault windows, voter exclusions, mitigation transitions). Version-1
//! logs remain readable and simply parse with no events.
//!
//! Unlike the frames of [`imufit_math::frame`], a log record's CRC covers
//! its payload only (DESIGN.md §19); reads still go through the shared
//! bounds-checked [`Cursor`].

use bytes::Bytes;

use imufit_math::frame::{crc16, Cursor, FrameError, Put};

use crate::events::{FlightEvent, FlightEventKind};
use crate::recorder::{FlightRecorder, TrackPoint};
use crate::wire::{get_vec3, put_vec3, WireError};

/// File magic: "IFLT".
pub const LOG_MAGIC: [u8; 4] = *b"IFLT";
/// Current format version (2 = with the events section).
pub const LOG_VERSION: u8 = 2;
/// The previous version, still readable (no events section).
pub const LOG_VERSION_V1: u8 = 1;

/// Appends one `[len: u16][record][crc16 over record]` log record.
fn put_record(buf: &mut Vec<u8>, record: impl FnOnce(&mut Vec<u8>)) {
    let start = buf.len();
    buf.put_u16(0);
    record(buf);
    let len = (buf.len() - start - 2) as u16;
    buf[start..start + 2].copy_from_slice(&len.to_le_bytes());
    let crc = crc16(&buf[start + 2..]);
    buf.put_u16(crc);
}

/// Reads one log record written by [`put_record`].
fn take_record<'a>(r: &mut Cursor<'a>) -> Result<Cursor<'a>, FrameError> {
    let len = r.u16()? as usize;
    let start = r.position();
    let record = r.bytes(len)?;
    r.check_crc(start)?;
    Ok(Cursor::new(record))
}

/// Serializes a recorded flight into a standalone binary log.
pub fn write_log(drone_id: u32, metadata: &str, recorder: &FlightRecorder) -> Bytes {
    let mut buf = Vec::with_capacity(64 + recorder.len() * 96);
    buf.extend_from_slice(&LOG_MAGIC);
    buf.put_u8(LOG_VERSION);
    buf.put_u32(drone_id);
    let meta = metadata.as_bytes();
    buf.put_u16(meta.len() as u16);
    buf.extend_from_slice(meta);
    buf.put_u32(recorder.len() as u32);

    for p in recorder.points() {
        put_record(&mut buf, |rec| {
            rec.put_f64(p.time);
            put_vec3(rec, p.true_position);
            put_vec3(rec, p.est_position);
            put_vec3(rec, p.true_velocity);
            rec.put_f64(p.airspeed);
            rec.put_u8(p.fault_active as u8);
            rec.put_u8(p.failsafe as u8);
        });
    }

    // Events section (v2).
    buf.put_u32(recorder.events().len() as u32);
    for e in recorder.events() {
        put_record(&mut buf, |rec| {
            rec.put_f64(e.time);
            rec.put_u8(e.kind.code());
            rec.put_u32(e.param);
            rec.put_u16(e.detail.len() as u16);
            rec.extend_from_slice(e.detail.as_bytes());
        });
    }
    Bytes::from(buf)
}

/// A parsed flight log.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightLog {
    /// Drone id from the header.
    pub drone_id: u32,
    /// Free-form metadata (e.g. the experiment label).
    pub metadata: String,
    /// The recorded points.
    pub points: Vec<TrackPoint>,
    /// The recorded events (empty for version-1 logs).
    pub events: Vec<FlightEvent>,
}

/// Parses a binary flight log.
///
/// # Errors
///
/// Returns a [`WireError`] on truncation, bad magic/version, or a corrupted
/// record.
pub fn read_log(buf: Bytes) -> Result<FlightLog, WireError> {
    let mut r = Cursor::new(&buf);
    if r.bytes(4)? != LOG_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = r.u8()?;
    if version != LOG_VERSION && version != LOG_VERSION_V1 {
        return Err(WireError::UnknownVersion(version));
    }
    let drone_id = r.u32()?;
    let meta_len = r.u16()? as usize;
    let metadata = r.str(meta_len)?.to_string();
    let count = r.u32()? as usize;

    let mut points = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let mut rec = take_record(&mut r)?;
        points.push(TrackPoint {
            time: rec.f64()?,
            true_position: get_vec3(&mut rec)?,
            est_position: get_vec3(&mut rec)?,
            true_velocity: get_vec3(&mut rec)?,
            airspeed: rec.f64()?,
            fault_active: rec.u8()? != 0,
            failsafe: rec.u8()? != 0,
        });
        rec.finish("trailing bytes in track record")?;
    }

    // Events section: v2 only; a v1 log ends after the track.
    let mut events = Vec::new();
    if version >= LOG_VERSION {
        let event_count = r.u32()? as usize;
        events.reserve(event_count.min(1 << 16));
        for _ in 0..event_count {
            let mut rec = take_record(&mut r)?;
            let time = rec.f64()?;
            let code = rec.u8()?;
            let kind = FlightEventKind::from_code(code).ok_or(WireError::UnknownMessage(code))?;
            let param = rec.u32()?;
            let detail_len = rec.u16()? as usize;
            let detail = rec.str(detail_len)?.to_string();
            rec.finish("trailing bytes in event record")?;
            events.push(FlightEvent {
                time,
                kind,
                param,
                detail,
            });
        }
    }
    r.finish("trailing bytes after flight log")?;

    Ok(FlightLog {
        drone_id,
        metadata,
        points,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use imufit_math::Vec3;

    fn sample_recorder(n: usize) -> FlightRecorder {
        let mut rec = FlightRecorder::new(1.0);
        for k in 0..n {
            rec.offer(TrackPoint {
                time: k as f64,
                true_position: Vec3::new(k as f64, -(k as f64), -18.0),
                est_position: Vec3::new(k as f64 + 0.1, 0.0, -18.0),
                true_velocity: Vec3::new(1.0, -1.0, 0.0),
                airspeed: 1.4,
                fault_active: k % 2 == 0,
                failsafe: k > 3,
            });
        }
        rec
    }

    #[test]
    fn round_trip() {
        let rec = sample_recorder(6);
        let bytes = write_log(7, "Acc Zeros / 30 s / mission 3", &rec);
        let log = read_log(bytes).expect("parse");
        assert_eq!(log.drone_id, 7);
        assert_eq!(log.metadata, "Acc Zeros / 30 s / mission 3");
        assert_eq!(log.points.len(), 6);
        assert_eq!(log.points, rec.points());
    }

    #[test]
    fn empty_log_round_trip() {
        let rec = FlightRecorder::new(1.0);
        let log = read_log(write_log(1, "", &rec)).expect("parse");
        assert!(log.points.is_empty());
        assert_eq!(log.metadata, "");
    }

    #[test]
    fn events_round_trip() {
        let mut rec = sample_recorder(3);
        let event = |time, kind, param, detail: &str| FlightEvent {
            time,
            kind,
            param,
            detail: detail.to_string(),
        };
        rec.push_event(event(90.0, FlightEventKind::FaultInjected, 0, "Gyro Zeros"));
        rec.push_event(event(
            90.1,
            FlightEventKind::InstanceExcluded,
            1,
            "gyro deviation 30.0 rad/s",
        ));
        rec.push_event(event(
            95.0,
            FlightEventKind::MitigationRecovered,
            0,
            "outlier exclusion -> nominal",
        ));
        let log = read_log(write_log(3, "m", &rec)).expect("parse");
        assert_eq!(log.events.len(), 3);
        assert_eq!(log.events, rec.events());
        assert_eq!(log.events[1].param, 1);
        assert_eq!(log.events[1].kind, FlightEventKind::InstanceExcluded);
    }

    #[test]
    fn v1_logs_still_parse_without_events() {
        // A v1 log is the v2 layout minus the events section; synthesize
        // one by stamping version 1 and dropping the (empty) section.
        let rec = sample_recorder(4);
        let mut v = write_log(9, "old", &rec).to_vec();
        v[4] = 1;
        v.truncate(v.len() - 4);
        let log = read_log(Bytes::from(v)).expect("v1 parse");
        assert_eq!(log.points.len(), 4);
        assert!(log.events.is_empty());
    }

    #[test]
    fn real_flight_log_round_trip() {
        // End-to-end: not just synthetic points — sizes, flags, and floats
        // from a plausible long track.
        let rec = sample_recorder(500);
        let bytes = write_log(42, "gold run", &rec);
        assert!(bytes.len() > 500 * 90);
        let log = read_log(bytes).expect("parse");
        assert_eq!(log.points.len(), 500);
        assert!(log.points[499].failsafe);
    }
}
