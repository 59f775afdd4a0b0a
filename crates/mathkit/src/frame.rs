//! The framing codec shared by every persisted and wire format.
//!
//! Black boxes, checkpoint and span journals, metric snapshots, flight
//! logs, and the fleet and telemetry protocols all protect their bytes the
//! same way: little-endian fields, CCITT-16 checksums, and (for the
//! record-oriented formats) length-prefixed frames
//!
//! ```text
//! [len: u16 | u32][payload: len bytes][crc16 over len + payload, LE]
//! ```
//!
//! This module is the one place untrusted bytes are parsed. [`Cursor`] is
//! a bounds-checked reader whose every read returns a [`FrameError`]
//! instead of panicking, [`Cursor::frame`] reads one frame and tells a
//! torn tail ([`FrameError::Truncated`]) apart from corruption, and
//! [`put_frame`] writes one. Each format keeps only its own header,
//! payload layout and public error type (`From<FrameError>`).

/// CCITT-16 (polynomial 0x1021, init 0xFFFF, no reflection).
pub fn crc16(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &b in data {
        crc ^= (b as u16) << 8;
        for _ in 0..8 {
            if crc & 0x8000 != 0 {
                crc = (crc << 1) ^ 0x1021;
            } else {
                crc <<= 1;
            }
        }
    }
    crc
}

/// Why a read failed. Formats convert this into their own error enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The bytes end before the value or frame they promise. At the end
    /// of an append-only journal this is a torn tail, not corruption.
    Truncated,
    /// A complete frame whose checksum does not match its contents.
    BadChecksum,
    /// Structurally invalid bytes: a length over the caller's cap,
    /// invalid UTF-8, or trailing bytes.
    Malformed(&'static str),
}

/// Width of a frame's length prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LenWidth {
    /// `u16` lengths (`.ifbb` records and events).
    U16,
    /// `u32` lengths (`.ifsp` events, `fleet.ckpt` entries).
    U32,
}

impl LenWidth {
    fn bytes(self) -> usize {
        match self {
            LenWidth::U16 => 2,
            LenWidth::U32 => 4,
        }
    }
}

/// How an append-only journal ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tail {
    /// Every byte belonged to a whole frame.
    #[default]
    Clean,
    /// The file ended inside a frame (a writer killed mid-append); the
    /// first `clean_len` bytes are the intact journal.
    Torn {
        /// Byte length of the intact prefix.
        clean_len: usize,
    },
}

impl Tail {
    /// The intact byte length of a journal of `total` bytes.
    pub fn clean_len(self, total: usize) -> usize {
        match self {
            Tail::Clean => total,
            Tail::Torn { clean_len } => clean_len,
        }
    }

    /// True when the journal ended inside a frame.
    pub fn is_torn(self) -> bool {
        matches!(self, Tail::Torn { .. })
    }
}

/// Bounds-checked little-endian reader over a byte slice. Every read
/// returns `Result` and never panics; a failed read leaves the cursor
/// where it was.
#[derive(Debug, Clone, Copy)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// Offset of the next unread byte.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// True when every byte has been read.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Fails with `Malformed(what)` unless every byte has been read.
    pub fn finish(&self, what: &'static str) -> Result<(), FrameError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(FrameError::Malformed(what))
        }
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Truncated);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        let mut out = [0; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.bytes(1)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, FrameError> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `f32`, bit-exact (NaN payloads, negative zero).
    pub fn f32(&mut self) -> Result<f32, FrameError> {
        self.u32().map(f32::from_bits)
    }

    /// A little-endian `f64`, bit-exact (NaN payloads, negative zero).
    pub fn f64(&mut self) -> Result<f64, FrameError> {
        self.u64().map(f64::from_bits)
    }

    /// The next `len` bytes as UTF-8.
    pub fn str(&mut self, len: usize) -> Result<&'a str, FrameError> {
        let mut r = *self;
        let s = std::str::from_utf8(r.bytes(len)?)
            .map_err(|_| FrameError::Malformed("string is not UTF-8"))?;
        *self = r;
        Ok(s)
    }

    /// Reads a little-endian CCITT-16 and checks it against every byte
    /// from offset `from` up to the checksum.
    pub fn check_crc(&mut self, from: usize) -> Result<(), FrameError> {
        let covered = &self.bytes[from.min(self.pos)..self.pos];
        let mut r = *self;
        if r.u16()? != crc16(covered) {
            return Err(FrameError::BadChecksum);
        }
        *self = r;
        Ok(())
    }

    /// Reads one `[len][payload][crc16 over len + payload]` frame and
    /// returns a cursor over its checked payload. A stated length above
    /// `cap` is rejected before anything is read past it. Errors are
    /// [`FrameError::Truncated`] when the bytes end inside the frame (a
    /// torn tail), [`FrameError::BadChecksum`] for a complete frame that
    /// fails its checksum, and `Malformed` for an oversized length.
    pub fn frame(&mut self, width: LenWidth, cap: usize) -> Result<Cursor<'a>, FrameError> {
        let mut r = *self;
        let len = match width {
            LenWidth::U16 => r.u16()? as usize,
            LenWidth::U32 => r.u32()? as usize,
        };
        if len > cap {
            return Err(FrameError::Malformed("frame length over cap"));
        }
        let payload = r.bytes(len)?;
        r.check_crc(self.pos)?;
        *self = r;
        Ok(Cursor::new(payload))
    }
}

/// Appends one `[len][payload][crc16 over len + payload]` frame to `out`;
/// `payload` writes the payload bytes in place, so framing allocates
/// nothing of its own.
///
/// # Panics
///
/// Panics if a [`LenWidth::U16`] payload exceeds `u16::MAX` bytes; callers
/// cap what they frame, and a silently wrapped length would corrupt the
/// stream.
pub fn put_frame(out: &mut Vec<u8>, width: LenWidth, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    let w = width.bytes();
    out.extend_from_slice(&[0; 4][..w]);
    payload(out);
    let len = out.len() - start - w;
    assert!(
        width == LenWidth::U32 || len <= u16::MAX as usize,
        "frame payload of {len} bytes overflows a u16 length"
    );
    out[start..start + w].copy_from_slice(&(len as u32).to_le_bytes()[..w]);
    let crc = crc16(&out[start..]);
    out.put_u16(crc);
}

/// Little-endian appends (floats as raw bits): the writing half of
/// [`Cursor`].
pub trait Put {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a `u16`.
    fn put_u16(&mut self, v: u16);
    /// Appends a `u32`.
    fn put_u32(&mut self, v: u32);
    /// Appends a `u64`.
    fn put_u64(&mut self, v: u64);
    /// Appends an `f32`.
    fn put_f32(&mut self, v: f32);
    /// Appends an `f64`.
    fn put_f64(&mut self, v: f64);
}

impl Put for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_f32(&mut self, v: f32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_f64(&mut self, v: f64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc16_matches_the_ccitt_false_check_value() {
        assert_eq!(crc16(b"123456789"), 0x29B1);
        assert_eq!(crc16(&[]), 0xFFFF);
        assert_ne!(crc16(&[1, 2, 3]), crc16(&[3, 2, 1]));
        assert_ne!(crc16(&[0, 0]), crc16(&[0]));
    }

    #[test]
    fn cursor_reads_what_put_wrote() {
        let mut buf = Vec::new();
        buf.put_u8(7);
        buf.put_u16(0xBEEF);
        buf.put_u32(0xDEAD_BEEF);
        buf.put_u64(u64::MAX - 1);
        buf.put_f32(-0.0);
        buf.put_f64(f64::from_bits(0x7FF8_0000_0000_0001));
        buf.extend_from_slice("héllo".as_bytes());
        let mut r = Cursor::new(&buf);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), 0x7FF8_0000_0000_0001);
        assert_eq!(r.str(6), Ok("héllo"));
        assert_eq!(r.finish("trailing"), Ok(()));
        assert_eq!(r.u8(), Err(FrameError::Truncated));
    }

    #[test]
    fn failed_reads_leave_the_cursor_in_place() {
        let bytes = [1, 2, 3, 0xFF, 0xFE];
        let mut r = Cursor::new(&bytes);
        assert_eq!(r.u64(), Err(FrameError::Truncated));
        assert_eq!(r.position(), 0);
        r.bytes(3).unwrap();
        assert_eq!(r.str(2), Err(FrameError::Malformed("string is not UTF-8")));
        assert_eq!(r.position(), 3);
        assert_eq!(r.finish("trailing"), Err(FrameError::Malformed("trailing")));
    }

    #[test]
    fn frames_round_trip_at_both_widths() {
        for width in [LenWidth::U16, LenWidth::U32] {
            let mut out = vec![0xAA];
            put_frame(&mut out, width, |p| p.extend_from_slice(b"payload"));
            put_frame(&mut out, width, |_| {});
            let mut r = Cursor::new(&out);
            r.u8().unwrap();
            let mut p = r.frame(width, 64).unwrap();
            assert_eq!(p.bytes(7), Ok(&b"payload"[..]));
            assert!(r.frame(width, 64).unwrap().is_empty());
            assert!(r.is_empty());
        }
    }

    #[test]
    fn frame_layout_is_len_payload_crc_over_both() {
        let mut out = Vec::new();
        put_frame(&mut out, LenWidth::U16, |p| p.extend_from_slice(&[9, 8]));
        let crc = crc16(&[2, 0, 9, 8]).to_le_bytes();
        assert_eq!(out, [2, 0, 9, 8, crc[0], crc[1]]);
    }

    #[test]
    fn frame_errors_separate_torn_from_corrupt() {
        let mut out = Vec::new();
        put_frame(&mut out, LenWidth::U32, |p| p.extend_from_slice(&[1; 10]));
        for cut in 0..out.len() {
            let mut r = Cursor::new(&out[..cut]);
            assert_eq!(
                r.frame(LenWidth::U32, 64).unwrap_err(),
                FrameError::Truncated
            );
            assert_eq!(r.position(), 0);
        }
        for at in 0..out.len() {
            let mut flipped = out.clone();
            flipped[at] ^= 0x01;
            let err = Cursor::new(&flipped).frame(LenWidth::U32, 64).unwrap_err();
            // A flipped length may overshoot (torn) or pass the cap
            // (malformed); a flip anywhere else fails the checksum.
            if at >= 4 {
                assert_eq!(err, FrameError::BadChecksum, "flip at {at}");
            }
        }
        assert_eq!(
            Cursor::new(&out).frame(LenWidth::U32, 9).unwrap_err(),
            FrameError::Malformed("frame length over cap")
        );
    }

    #[test]
    fn tail_reports_the_clean_length() {
        assert_eq!(Tail::Clean.clean_len(40), 40);
        assert_eq!(Tail::Torn { clean_len: 27 }.clean_len(40), 27);
        assert!(Tail::Torn { clean_len: 0 }.is_torn());
        assert!(!Tail::default().is_torn());
    }
}
