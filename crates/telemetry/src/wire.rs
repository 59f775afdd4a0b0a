//! A compact binary wire format for telemetry messages.
//!
//! Frame layout (little-endian):
//!
//! ```text
//! [0xFD][len: u16][msg_id: u8][payload: len bytes][crc: u16]
//! ```
//!
//! The CRC is CCITT-16 over everything from `len` through the payload —
//! the same accumulate-over-header-and-payload structure MAVLink v2 uses.
//! Reads go through the shared bounds-checked [`Cursor`] (DESIGN.md §19),
//! so no input — including a valid checksum over a payload too short for
//! its message id — can panic the decoder.

use bytes::Bytes;

use imufit_math::frame::{crc16, Cursor, FrameError, Put};
use imufit_math::Vec3;

/// Frame start marker.
pub const MAGIC: u8 = 0xFD;

/// Telemetry messages exchanged between vehicles and the tracker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Message {
    /// Periodic position report (the tracker's input).
    Position {
        /// Vehicle identifier.
        drone_id: u32,
        /// Flight time, seconds.
        time: f64,
        /// Estimated NED position, meters.
        position: Vec3,
        /// Estimated NED velocity, m/s.
        velocity: Vec3,
    },
    /// Vehicle status change.
    Status {
        /// Vehicle identifier.
        drone_id: u32,
        /// Flight time, seconds.
        time: f64,
        /// Flight-mode discriminant.
        mode: u8,
        /// Failsafe latched flag.
        failsafe: bool,
    },
}

impl Message {
    /// The message id on the wire.
    pub fn id(&self) -> u8 {
        match self {
            Message::Position { .. } => 1,
            Message::Status { .. } => 2,
        }
    }
}

/// Errors produced by [`decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than a complete frame.
    Truncated,
    /// The first byte is not [`MAGIC`].
    BadMagic,
    /// The checksum does not match.
    BadChecksum,
    /// Unknown message id.
    UnknownMessage(u8),
    /// Unknown format version.
    UnknownVersion(u8),
    /// Structurally invalid bytes (bad UTF-8, trailing bytes, ...).
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadChecksum => write!(f, "checksum mismatch"),
            WireError::UnknownMessage(id) => write!(f, "unknown message id {id}"),
            WireError::UnknownVersion(v) => write!(f, "unknown format version {v}"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Truncated => WireError::Truncated,
            FrameError::BadChecksum => WireError::BadChecksum,
            FrameError::Malformed(what) => WireError::Malformed(what),
        }
    }
}

pub(crate) fn put_vec3(buf: &mut Vec<u8>, v: Vec3) {
    buf.put_f64(v.x);
    buf.put_f64(v.y);
    buf.put_f64(v.z);
}

pub(crate) fn get_vec3(r: &mut Cursor) -> Result<Vec3, FrameError> {
    Ok(Vec3::new(r.f64()?, r.f64()?, r.f64()?))
}

/// Encodes a message into a framed byte buffer.
pub fn encode(msg: &Message) -> Bytes {
    let mut frame = Vec::with_capacity(66);
    frame.put_u8(MAGIC);
    frame.put_u16(0);
    frame.put_u8(msg.id());
    match *msg {
        Message::Position {
            drone_id,
            time,
            position,
            velocity,
        } => {
            frame.put_u32(drone_id);
            frame.put_f64(time);
            put_vec3(&mut frame, position);
            put_vec3(&mut frame, velocity);
        }
        Message::Status {
            drone_id,
            time,
            mode,
            failsafe,
        } => {
            frame.put_u32(drone_id);
            frame.put_f64(time);
            frame.put_u8(mode);
            frame.put_u8(failsafe as u8);
        }
    }
    let len = (frame.len() - 4) as u16;
    frame[1..3].copy_from_slice(&len.to_le_bytes());
    let crc = crc16(&frame[1..]);
    frame.put_u16(crc);
    Bytes::from(frame)
}

/// Decodes one framed message; bytes after the frame are ignored.
///
/// # Errors
///
/// Returns a [`WireError`] for truncated, corrupted, or unknown frames.
pub fn decode(buf: Bytes) -> Result<Message, WireError> {
    let mut r = Cursor::new(&buf);
    if r.u8()? != MAGIC {
        return Err(WireError::BadMagic);
    }
    let len = r.u16()? as usize;
    let msg_id = r.u8()?;
    let mut payload = Cursor::new(r.bytes(len)?);
    r.check_crc(1)?;
    let p = &mut payload;
    match msg_id {
        1 => Ok(Message::Position {
            drone_id: p.u32()?,
            time: p.f64()?,
            position: get_vec3(p)?,
            velocity: get_vec3(p)?,
        }),
        2 => Ok(Message::Status {
            drone_id: p.u32()?,
            time: p.f64()?,
            mode: p.u8()?,
            failsafe: p.u8()? != 0,
        }),
        other => Err(WireError::UnknownMessage(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_position() -> Message {
        Message::Position {
            drone_id: 7,
            time: 123.456,
            position: Vec3::new(100.0, -50.0, -18.0),
            velocity: Vec3::new(3.0, 0.5, -0.1),
        }
    }

    #[test]
    fn position_round_trip() {
        let msg = sample_position();
        let decoded = decode(encode(&msg)).expect("decode");
        assert_eq!(decoded, msg);
    }

    #[test]
    fn status_round_trip() {
        let msg = Message::Status {
            drone_id: 3,
            time: 9.5,
            mode: 2,
            failsafe: true,
        };
        assert_eq!(decode(encode(&msg)).unwrap(), msg);
    }

    /// A valid checksum over a payload too short for its message id is a
    /// truncation, not a panic inside the payload reads.
    #[test]
    fn short_payload_with_valid_crc_is_truncated() {
        for id in [1, 2] {
            let mut v = vec![MAGIC, 2, 0, id, 0xAA, 0xBB];
            let crc = crc16(&v[1..]);
            v.extend_from_slice(&crc.to_le_bytes());
            assert_eq!(decode(Bytes::from(v)), Err(WireError::Truncated), "id {id}");
        }
    }

    #[test]
    fn wire_error_displays() {
        assert_eq!(WireError::Truncated.to_string(), "truncated frame");
        assert_eq!(
            WireError::UnknownMessage(9).to_string(),
            "unknown message id 9"
        );
    }
}
