//! Byte compatibility and hostile input for every decoder of persisted or
//! untrusted bytes. Each table row names a decoder, a valid sample (a
//! committed fixture from `tests/fixtures/codecs/`, written by the
//! encoders as they stood before the framing codec was shared), how to
//! re-encode what it decoded, and the errors each attack may produce.
//!
//! Every sample must decode and re-encode byte-identical, so a codec change
//! that moves a single byte on disk or on the wire fails here. Every attack
//! then runs against every row: truncation at every offset, single-byte
//! flips, garbage, oversized length fields, version skew where the format
//! has a version, and crafted inputs (torn journals, frames whose checksum
//! holds over a bad payload). A decoder passes when it never panics, fails
//! only with the variants its row allows, and — whenever it accepts
//! damaged bytes — decodes exactly the intact prefix it reports. The
//! HTTP request reader, which has no frames to re-encode, gets the attacks
//! that apply to text in a section of its own at the end.

use std::io::Cursor as IoCursor;
use std::iter::once;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use bytes::Bytes;
use imufit::fleet::protocol::{MAGIC as FLEET_MAGIC, PROTOCOL_VERSION};
use imufit::fleet::{decode_msg, encode_msg, read_msg, Checkpoint, CheckpointWriter};
use imufit::math::frame::crc16;
use imufit::telemetry::wire::MAGIC as TELEMETRY_MAGIC;
use imufit::telemetry::{decode, encode};
use imufit::trace::BlackBox;
use imufit_obs::http::{read_request, Request, RequestError};
use imufit_obs::snapshot::Snapshot;
use imufit_obs::spans::SpanLog;
use imufit_obs::timeseries::TimeSeries;

/// Decodes, then re-encodes what was decoded, paired with how many input
/// bytes the decoder reports as intact (all of them for whole-buffer
/// formats, the frame for stream readers, the clean prefix for journals).
/// Errors are rendered with `Debug` so rows can name what they expect.
type Decode = fn(&[u8]) -> Result<(Vec<u8>, usize), String>;

/// What a row's decoder must produce for one input: the intact length it
/// decodes, or the `Debug` rendering of its error.
type Expect = Result<usize, &'static str>;

/// How much of an input a decoder reads.
#[derive(Clone, Copy, PartialEq)]
enum Accepts {
    /// The whole input, or an error.
    Exact,
    /// One leading frame; later bytes are left for the next read.
    Frame,
    /// An append-only journal: a torn last frame is dropped and the
    /// intact prefix before it decodes.
    Journal,
}

/// Where a format keeps its version byte and, if a checksum covers that
/// byte, how to re-seal it, so skew is tested on an otherwise intact input.
struct Version {
    at: usize,
    reseal: Option<fn(&mut [u8])>,
    expect: &'static str,
}

struct Codec {
    name: String,
    sample: Vec<u8>,
    decode: Decode,
    accepts: Accepts,
    /// Leading magic bytes: damaging any of them is `BadMagic`.
    magic: usize,
    /// Lengths at which a prefix of `sample` is itself a whole encoding
    /// (journal frame boundaries); always ends with `sample.len()`.
    boundaries: Vec<usize>,
    /// Error variants any other cut may give.
    cut_errors: &'static [&'static str],
    /// Error variants a flip past the magic may give.
    flip_errors: &'static [&'static str],
    /// Whether a flip may still decode: the format has bytes outside every
    /// checksum (header fields), or its reader salvages a journal prefix.
    flip_may_decode: bool,
    /// Bytes under a checksum that hold no length, count or magic: a flip
    /// in them must be `BadChecksum`.
    sealed: Vec<Range<usize>>,
    /// Length fields in `sample`: `(offset, width in bytes)`, and what the
    /// decoder makes of an all-ones value there.
    lengths: Vec<(usize, usize, Expect)>,
    version: Option<Version>,
    /// Inputs built beside the sample, each with what it must produce.
    crafted: Vec<(Vec<u8>, Expect)>,
}

fn fixture(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/codecs")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn err(e: impl std::fmt::Debug) -> String {
    format!("{e:?}")
}

/// The variant name of a rendered error (`Malformed("…")` -> `Malformed`).
fn variant(e: &str) -> &str {
    e.split('(').next().unwrap_or(e)
}

/// The payload and checksum of the `[len][payload][crc16]` frame at `at`
/// whose little-endian length field is `width` bytes wide.
fn frame_body(bytes: &[u8], at: usize, width: usize) -> Range<usize> {
    let mut len = [0; 4];
    len[..width].copy_from_slice(&bytes[at..at + width]);
    let start = at + width;
    start..start + u32::from_le_bytes(len) as usize + 2
}

/// Bodies of the consecutive `[len u32][payload][crc16]` frames from
/// `start` to the end of `bytes`.
fn frame_bodies(bytes: &[u8], start: usize) -> Vec<Range<usize>> {
    let mut bodies = Vec::new();
    let mut at = start;
    while at < bytes.len() {
        let body = frame_body(bytes, at, 4);
        at = body.end;
        bodies.push(body);
    }
    bodies
}

/// Bodies of a `[count u32]` followed by that many frames with
/// `width`-byte lengths, and where the last one ends.
fn counted_frames(bytes: &[u8], at: usize, width: usize) -> (Vec<Range<usize>>, usize) {
    let count = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let mut bodies = Vec::new();
    let mut end = at + 4;
    for _ in 0..count {
        let body = frame_body(bytes, end, width);
        end = body.end;
        bodies.push(body);
    }
    (bodies, end)
}

/// `.ifbb`: after the header, segments of `[trigger u8][event id u32]`
/// plus counted record frames, then counted event frames.
fn black_box_sealed(bytes: &[u8], meta: usize) -> Vec<Range<usize>> {
    let segments = u32::from_le_bytes(bytes[11 + meta..15 + meta].try_into().unwrap());
    let mut sealed = Vec::new();
    let mut at = 15 + meta;
    for _ in 0..segments {
        let (records, end) = counted_frames(bytes, at + 5, 2);
        sealed.extend(records);
        at = end;
    }
    sealed.extend(counted_frames(bytes, at, 2).0);
    sealed
}

/// `.ifms` frames are `[offset u64][len u32][payload][crc16]`, the CRC over
/// all of it: the offset and the body are sealed.
fn series_sealed(bytes: &[u8]) -> Vec<Range<usize>> {
    let mut sealed = Vec::new();
    let mut at = 4 + 1 + 8 + 4;
    while at < bytes.len() {
        let body = frame_body(bytes, at + 8, 4);
        sealed.push(at..at + 8);
        at = body.end;
        sealed.push(body);
    }
    sealed
}

// --- decoders under test --------------------------------------------------

/// A whole-buffer decode: the re-encoding must reproduce all of `input`.
fn whole(bytes: Vec<u8>, input: &[u8]) -> (Vec<u8>, usize) {
    (bytes, input.len())
}

fn black_box(b: &[u8]) -> Result<(Vec<u8>, usize), String> {
    BlackBox::decode(b)
        .map(|bb| whole(bb.encode(), b))
        .map_err(err)
}

fn snapshot(b: &[u8]) -> Result<(Vec<u8>, usize), String> {
    Snapshot::decode(b)
        .map(|s| whole(s.encode(), b))
        .map_err(err)
}

fn metric_series(b: &[u8]) -> Result<(Vec<u8>, usize), String> {
    TimeSeries::decode(b)
        .map(|s| whole(s.encode(), b))
        .map_err(err)
}

fn span_journal(b: &[u8]) -> Result<(Vec<u8>, usize), String> {
    SpanLog::decode(b)
        .map(|l| (l.encode(), l.tail.clean_len(b.len())))
        .map_err(err)
}

/// Re-encodes through the public journal writer (tests run in parallel,
/// so every call gets its own file).
fn rewrite_checkpoint(ck: &Checkpoint) -> Vec<u8> {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "imufit-codec-props-{}-{}.ckpt",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    let mut w = CheckpointWriter::create(&path, &ck.fingerprint).unwrap();
    for entry in &ck.entries {
        w.record(entry).unwrap();
    }
    drop(w);
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
}

fn checkpoint_strict(b: &[u8]) -> Result<(Vec<u8>, usize), String> {
    Checkpoint::decode(b)
        .map(|ck| whole(rewrite_checkpoint(&ck), b))
        .map_err(err)
}

/// The resume reader, holding the fixture's fingerprint as the expected
/// campaign; the intact length is the one the session truncates the file
/// to before appending.
fn checkpoint_resume(b: &[u8]) -> Result<(Vec<u8>, usize), String> {
    static FINGERPRINT: OnceLock<imufit::fleet::CampaignFingerprint> = OnceLock::new();
    let fp = FINGERPRINT.get_or_init(|| {
        Checkpoint::decode(&fixture("fleet.ckpt"))
            .unwrap()
            .fingerprint
    });
    Checkpoint::load_for_resume(b, fp)
        .map(|(ck, tail)| (rewrite_checkpoint(&ck), tail.clean_len(b.len())))
        .map_err(err)
}

fn fleet_frame(b: &[u8]) -> Result<(Vec<u8>, usize), String> {
    decode_msg(b)
        .map(|m| {
            let bytes = encode_msg(&m);
            let n = bytes.len();
            (bytes, n)
        })
        .map_err(err)
}

fn fleet_stream(b: &[u8]) -> Result<(Vec<u8>, usize), String> {
    read_msg(&mut IoCursor::new(b))
        .map(|(m, n)| (encode_msg(&m), n))
        .map_err(err)
}

fn telemetry(b: &[u8]) -> Result<(Vec<u8>, usize), String> {
    decode(Bytes::from(b.to_vec()))
        .map(|m| {
            let bytes = encode(&m).to_vec();
            let n = bytes.len();
            (bytes, n)
        })
        .map_err(err)
}

// --- reseal helpers for version skew ---------------------------------------

/// Trailing little-endian CRC over everything after the magic byte.
fn reseal_tail_le(b: &mut [u8]) {
    let n = b.len();
    let crc = crc16(&b[1..n - 2]);
    b[n - 2..].copy_from_slice(&crc.to_le_bytes());
}

/// Trailing big-endian CRC over everything after the magic byte.
fn reseal_tail_be(b: &mut [u8]) {
    let n = b.len();
    let crc = crc16(&b[1..n - 2]);
    b[n - 2..].copy_from_slice(&crc.to_be_bytes());
}

/// The `.ifsp` header CRC over bytes 4..25, stored at 25..27.
fn reseal_span_header(b: &mut [u8]) {
    let crc = crc16(&b[4..25]);
    b[25..27].copy_from_slice(&crc.to_le_bytes());
}

/// A version byte no checksum covers.
fn bare_version(at: usize, expect: &'static str) -> Option<Version> {
    Some(Version {
        at,
        reseal: None,
        expect,
    })
}

/// A version byte under a checksum that `reseal` recomputes.
fn sealed_version(at: usize, reseal: fn(&mut [u8]), expect: &'static str) -> Option<Version> {
    Some(Version {
        at,
        reseal: Some(reseal),
        expect,
    })
}

/// `[magic][header][payload][crc over header + payload]` with a
/// little-endian CRC: the layout shared by telemetry and fleet frames.
fn sealed(mut frame: Vec<u8>) -> Vec<u8> {
    let crc = crc16(&frame[1..]);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame
}

fn codecs() -> Vec<Codec> {
    let bb = fixture("box.ifbb");
    let meta = u16::from_le_bytes([bb[9], bb[10]]) as usize;
    let snap = fixture("snapshot.bin");
    let series = fixture("metrics.ifms");
    let skew = "UnknownVersion(238)";
    let over_cap = "Malformed(\"frame length over cap\")";

    // The journals: `.ifsp` is a 27-byte checksummed header then frames;
    // `fleet.ckpt` is magic + version then a header frame and one frame
    // per entry. Each torn fixture is its clean journal plus half a frame.
    let spans = fixture("spans.ifsp");
    let span_frames = frame_bodies(&spans, 27);
    let span_ends: Vec<usize> = once(27).chain(span_frames.iter().map(|f| f.end)).collect();
    let ckpt = fixture("fleet.ckpt");
    let ckpt_frames = frame_bodies(&ckpt, 5);
    let ckpt_ends: Vec<usize> = ckpt_frames.iter().map(|f| f.end).collect();
    let first_entry = ckpt_ends[0];

    let bb_sealed = black_box_sealed(&bb, meta);

    let mut rows = vec![
        Codec {
            name: ".ifbb".into(),
            boundaries: vec![bb.len()],
            lengths: vec![
                (9, 2, Err("Truncated")),
                (11 + meta, 4, Err("BadChecksum")),
                (20 + meta, 4, Err("BadChecksum")),
                (24 + meta, 2, Err("Truncated")),
            ],
            sample: bb,
            decode: black_box,
            accepts: Accepts::Exact,
            magic: 4,
            cut_errors: &["Truncated"],
            flip_errors: &[
                "BadChecksum",
                "Malformed",
                "Truncated",
                "UnknownTrigger",
                "UnknownVersion",
            ],
            flip_may_decode: true,
            sealed: bb_sealed,
            version: bare_version(4, skew),
            crafted: vec![],
        },
        Codec {
            name: "snapshot".into(),
            boundaries: vec![snap.len()],
            sealed: once(1..snap.len()).collect(),
            sample: snap,
            decode: snapshot,
            accepts: Accepts::Exact,
            magic: 1,
            // The CRC is the last two bytes, so a cut usually reads a
            // payload pair as the checksum.
            cut_errors: &["Truncated", "BadChecksum"],
            flip_errors: &["BadChecksum"],
            flip_may_decode: false,
            lengths: vec![(2, 4, Err("BadChecksum")), (6, 2, Err("BadChecksum"))],
            version: sealed_version(1, reseal_tail_be, skew),
            crafted: vec![],
        },
        Codec {
            name: ".ifms".into(),
            boundaries: vec![series.len()],
            sealed: series_sealed(&series),
            sample: series,
            decode: metric_series,
            accepts: Accepts::Exact,
            magic: 4,
            cut_errors: &["Truncated"],
            flip_errors: &["BadChecksum", "Malformed", "Truncated", "UnknownVersion"],
            flip_may_decode: true,
            lengths: vec![
                (13, 4, Err("Malformed(\"frame count oversized\")")),
                (25, 4, Err("Malformed(\"frame oversized\")")),
            ],
            version: bare_version(4, skew),
            crafted: vec![],
        },
        Codec {
            name: ".ifsp".into(),
            decode: span_journal,
            accepts: Accepts::Journal,
            magic: 4,
            boundaries: span_ends,
            cut_errors: &["Truncated"],
            // A flipped length past the end of file reads as a torn tail.
            flip_errors: &["BadChecksum", "Malformed"],
            flip_may_decode: true,
            sealed: once(4..27).chain(span_frames).collect(),
            lengths: vec![(27, 4, Err(over_cap))],
            version: sealed_version(4, reseal_span_header, skew),
            crafted: vec![(fixture("spans_torn.ifsp"), Ok(spans.len()))],
            sample: spans,
        },
        Codec {
            name: "fleet.ckpt (strict)".into(),
            sample: ckpt.clone(),
            decode: checkpoint_strict,
            accepts: Accepts::Exact,
            magic: 4,
            boundaries: ckpt_ends.clone(),
            cut_errors: &["Truncated"],
            flip_errors: &["BadChecksum", "Malformed", "Truncated", "UnknownVersion"],
            flip_may_decode: false,
            sealed: ckpt_frames.clone(),
            lengths: vec![(5, 4, Err(over_cap)), (first_entry, 4, Err(over_cap))],
            version: bare_version(4, skew),
            crafted: vec![(fixture("fleet_torn.ckpt"), Err("Truncated"))],
        },
        Codec {
            name: "fleet.ckpt (resume)".into(),
            decode: checkpoint_resume,
            accepts: Accepts::Journal,
            magic: 4,
            boundaries: ckpt_ends,
            cut_errors: &["Truncated"],
            // The first undecodable entry of any kind ends the clean prefix.
            flip_errors: &["BadChecksum", "Malformed", "Truncated", "UnknownVersion"],
            flip_may_decode: true,
            sealed: vec![ckpt_frames[0].clone()],
            lengths: vec![(5, 4, Err(over_cap)), (first_entry, 4, Ok(first_entry))],
            version: bare_version(4, skew),
            crafted: vec![(fixture("fleet_torn.ckpt"), Ok(ckpt.len()))],
            sample: ckpt,
        },
    ];

    // A valid checksum over a payload too short for its message id (or an
    // unknown id) must come back typed, not panic inside the payload reads.
    let short_position = sealed(vec![TELEMETRY_MAGIC, 2, 0, 1, 0xAA, 0xBB]);
    let short_status = sealed(vec![TELEMETRY_MAGIC, 2, 0, 2, 0xAA, 0xBB]);
    let unknown_id = sealed(vec![TELEMETRY_MAGIC, 0, 0, 99]);
    for name in ["telemetry_position.bin", "telemetry_status.bin"] {
        let sample = fixture(name);
        rows.push(Codec {
            name: name.into(),
            boundaries: vec![sample.len()],
            sealed: once(3..sample.len()).collect(),
            sample,
            decode: telemetry,
            accepts: Accepts::Frame,
            magic: 1,
            cut_errors: &["Truncated"],
            flip_errors: &["BadChecksum", "Truncated"],
            flip_may_decode: false,
            lengths: vec![(1, 2, Err("Truncated"))],
            version: None,
            crafted: vec![
                (short_position.clone(), Err("Truncated")),
                (short_status.clone(), Err("Truncated")),
                (unknown_id.clone(), Err("UnknownMessage(99)")),
            ],
        });
    }

    // One row per fleet message id, through both the slice decoder and
    // the stream reader.
    let frames = fixture("fleet_frames.bin");
    let short_result = sealed(vec![
        FLEET_MAGIC,
        PROTOCOL_VERSION,
        7,
        2,
        0,
        0,
        0,
        0xAA,
        0xBB,
    ]);
    let unknown_id = sealed(vec![FLEET_MAGIC, PROTOCOL_VERSION, 99, 0, 0, 0, 0]);
    let mut stream = IoCursor::new(&frames[..]);
    let mut offset = 0;
    let mut ids = Vec::new();
    while offset < frames.len() {
        let (msg, n) = read_msg(&mut stream).unwrap();
        let frame = frames[offset..offset + n].to_vec();
        offset += n;
        ids.push(msg.id());
        for (kind, decode) in [("frame", fleet_frame as Decode), ("stream", fleet_stream)] {
            rows.push(Codec {
                name: format!("fleet {kind} id {}", msg.id()),
                sample: frame.clone(),
                decode,
                accepts: Accepts::Frame,
                magic: 1,
                boundaries: vec![n],
                cut_errors: &["Truncated"],
                flip_errors: &["BadChecksum", "Malformed", "Truncated"],
                flip_may_decode: false,
                sealed: vec![1..3, 7..n],
                lengths: vec![(3, 4, Err("Malformed(\"oversized payload length\")"))],
                version: sealed_version(1, reseal_tail_le, skew),
                crafted: vec![
                    (short_result.clone(), Err("Truncated")),
                    (unknown_id.clone(), Err("UnknownMessage(99)")),
                ],
            });
        }
    }
    assert_eq!(ids, (1..=8).collect::<Vec<u8>>(), "one fleet frame per id");
    rows
}

/// Runs one decode, failing loudly on a panic or on an accepted input the
/// decoder did not reproduce faithfully; returns the intact length.
fn check(row: &Codec, attack: &str, input: &[u8]) -> Result<usize, String> {
    let out = catch_unwind(AssertUnwindSafe(|| (row.decode)(input)))
        .unwrap_or_else(|_| panic!("{}: decoder panicked on {attack}", row.name));
    let (re, clean) = out?;
    assert!(
        clean <= input.len() && re == input[..clean],
        "{}: {attack} decoded to something other than its intact prefix",
        row.name
    );
    Ok(clean)
}

fn assert_variant(row: &Codec, attack: &str, got: &Result<usize, String>, allowed: &[&str]) {
    match got {
        Err(e) if allowed.contains(&variant(e)) => {}
        _ => panic!(
            "{}: {attack} gave {got:?}, expected one of {allowed:?}",
            row.name
        ),
    }
}

#[test]
fn every_sample_decodes_and_re_encodes_byte_identical() {
    for row in codecs() {
        assert_eq!(
            check(&row, "the intact sample", &row.sample),
            Ok(row.sample.len()),
            "{}",
            row.name
        );
        assert_eq!(
            row.boundaries.last(),
            Some(&row.sample.len()),
            "{}",
            row.name
        );
        assert!(
            !row.sealed.is_empty() && row.sealed.iter().all(|r| r.end <= row.sample.len()),
            "{}: sealed ranges outside the sample",
            row.name
        );
    }
}

#[test]
fn truncation_at_every_offset_is_typed() {
    for row in codecs() {
        for cut in 0..row.sample.len() {
            let attack = format!("a cut at {cut}");
            let got = check(&row, &attack, &row.sample[..cut]);
            // A cut on a journal frame boundary is a shorter valid
            // journal; a journal reader also keeps that prefix when the
            // cut lands inside the next frame.
            match row.boundaries.iter().rev().find(|&&b| b <= cut) {
                Some(&b) if b == cut || row.accepts == Accepts::Journal => {
                    assert_eq!(got, Ok(b), "{}: {attack}", row.name)
                }
                _ => assert_variant(&row, &attack, &got, row.cut_errors),
            }
        }
    }
}

#[test]
fn single_byte_flips_are_typed_or_faithful() {
    for row in codecs() {
        for at in 0..row.sample.len() {
            for mask in [0x01, 0x80, 0xFF] {
                let mut v = row.sample.clone();
                v[at] ^= mask;
                let attack = format!("a flip of {mask:#04x} at {at}");
                let got = check(&row, &attack, &v);
                if at < row.magic {
                    assert_variant(&row, &attack, &got, &["BadMagic"]);
                } else if row.sealed.iter().any(|r| r.contains(&at)) {
                    assert_variant(&row, &attack, &got, &["BadChecksum"]);
                } else if got.is_err() || !row.flip_may_decode {
                    assert_variant(&row, &attack, &got, row.flip_errors);
                }
            }
        }
    }
}

#[test]
fn garbage_is_typed() {
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut junk = |n: usize| -> Vec<u8> {
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect()
    };
    for row in codecs() {
        for n in [0, 1, 2, 3, 7, 16, 64, 300] {
            let noise = junk(n);
            let _ = check(&row, &format!("{n} bytes of garbage"), &noise);
            for keep in [1, 4, 5, row.sample.len() / 2, row.sample.len()] {
                let spliced = [&row.sample[..keep], &noise[..]].concat();
                let attack = format!("{keep} sample bytes + {n} junk");
                let got = check(&row, &attack, &spliced);
                if keep == row.sample.len() && row.accepts == Accepts::Frame {
                    assert_eq!(got, Ok(keep), "{}: {attack}", row.name);
                }
                // `Exact` rows claim the whole input, so `check` already
                // refuses an accepted splice that the re-encoding lacks.
            }
        }
    }
}

#[test]
fn oversized_lengths_are_rejected() {
    for row in codecs() {
        for &(at, width, expect) in &row.lengths {
            let mut v = row.sample.clone();
            v[at..at + width].fill(0xFF);
            let attack = format!("an oversized length at {at}");
            assert_eq!(
                check(&row, &attack, &v),
                expect.map_err(str::to_string),
                "{}: {attack}",
                row.name
            );
        }
    }
}

#[test]
fn version_skew_is_named_only_past_a_valid_checksum() {
    for row in codecs() {
        let Some(version) = &row.version else {
            continue;
        };
        let mut v = row.sample.clone();
        v[version.at] = 238;
        if let Some(reseal) = version.reseal {
            // Without a fresh checksum the changed byte is corruption.
            assert_eq!(
                check(&row, "an unsealed version change", &v),
                Err("BadChecksum".to_string()),
                "{}",
                row.name
            );
            reseal(&mut v);
        }
        assert_eq!(
            check(&row, "version skew", &v),
            Err(version.expect.to_string()),
            "{}",
            row.name
        );
    }
}

#[test]
fn crafted_inputs_are_typed_or_salvaged() {
    for row in codecs() {
        for (input, expect) in &row.crafted {
            assert_eq!(
                check(&row, "a crafted input", input),
                expect.map_err(str::to_string),
                "{}",
                row.name
            );
        }
    }
}

// --- HTTP requests ----------------------------------------------------------
//
// The HTTP request reader has no magic, checksum or version, so it has no
// row in the table above. The attacks that apply to text run against it
// here: truncation at every offset, single-byte flips, oversized and
// malformed `Content-Length`, a header flood, and non-UTF-8 bytes. Each
// must give a typed `RequestError`, never a panic.

const HTTP_SAMPLE: &[u8] =
    b"POST /campaigns?tenant=alice HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world";

const HTTP_BODY_CAP: usize = 1024;

fn http_from(mut reader: impl std::io::Read) -> Result<Request, RequestError> {
    catch_unwind(AssertUnwindSafe(|| {
        read_request(&mut reader, HTTP_BODY_CAP)
    }))
    .unwrap_or_else(|_| panic!("http: the request reader panicked"))
}

fn http(bytes: &[u8]) -> Result<Request, RequestError> {
    http_from(IoCursor::new(bytes))
}

/// The sample with its `Content-Length` value replaced by `value`.
fn http_with_length(value: &str) -> Vec<u8> {
    let text = std::str::from_utf8(HTTP_SAMPLE).unwrap();
    text.replace("Content-Length: 11", &format!("Content-Length: {value}"))
        .into_bytes()
}

/// A connection that stops delivering bytes: every read times out.
struct Stalled;

impl std::io::Read for Stalled {
    fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
        Err(std::io::ErrorKind::TimedOut.into())
    }
}

#[test]
fn http_sample_reads_whole() {
    let request = http(HTTP_SAMPLE).expect("the sample is a valid request");
    assert_eq!(request.method, "POST");
    assert_eq!(request.path, "/campaigns");
    assert_eq!(request.query, "tenant=alice");
    assert_eq!(request.body, b"hello world");
    // Bytes past the declared body belong to no request.
    let pipelined = [HTTP_SAMPLE, b"GET / HTTP/1.1\r\n\r\n"].concat();
    assert_eq!(http(&pipelined).unwrap().body, b"hello world");
}

#[test]
fn http_truncation_at_every_offset_is_typed() {
    for cut in 0..HTTP_SAMPLE.len() {
        assert_eq!(
            http(&HTTP_SAMPLE[..cut]).err(),
            Some(RequestError::Truncated),
            "a cut at {cut}"
        );
        let stalled = std::io::Read::chain(&HTTP_SAMPLE[..cut], Stalled);
        assert_eq!(
            http_from(stalled).err(),
            Some(RequestError::TimedOut),
            "a stall at {cut}"
        );
    }
}

#[test]
fn http_single_byte_flips_are_typed() {
    for at in 0..HTTP_SAMPLE.len() {
        for mask in [0x01, 0x80, 0xFF] {
            let mut v = HTTP_SAMPLE.to_vec();
            v[at] ^= mask;
            // A flip may still leave a valid request; reaching here at all
            // means the reader returned rather than panicked.
            let _ = http(&v);
        }
    }
}

#[test]
fn http_oversized_content_length_is_refused_before_the_body() {
    for value in ["1025", "4294967296", "99999999999999999999999999"] {
        assert_eq!(
            http(&http_with_length(value)).err(),
            Some(RequestError::BodyTooLarge),
            "Content-Length: {value}"
        );
    }
    // At the cap the length is accepted, and the short body is truncation.
    assert_eq!(
        http(&http_with_length("1024")).err(),
        Some(RequestError::Truncated)
    );
}

#[test]
fn http_malformed_content_length_is_typed() {
    for value in ["", "abc", "-1", "+5", "1 1", "0x10", "11, 11"] {
        assert_eq!(
            http(&http_with_length(value)).err(),
            Some(RequestError::BadContentLength),
            "Content-Length: {value:?}"
        );
    }
    // A second Content-Length is refused even when the two agree.
    let text = std::str::from_utf8(HTTP_SAMPLE).unwrap();
    let doubled = text.replace("Host: x\r\n", "Host: x\r\ncontent-length: 11\r\n");
    assert_eq!(
        http(doubled.as_bytes()).err(),
        Some(RequestError::BadContentLength)
    );
}

#[test]
fn http_header_flood_is_typed() {
    let flood = [
        &b"GET / HTTP/1.1\r\n"[..],
        &b"X-Flood: y\r\n".repeat(1000),
        b"\r\n",
    ]
    .concat();
    assert_eq!(http(&flood).err(), Some(RequestError::HeadTooLarge));
    // A head that never ends is cut off after the cap, not read forever.
    assert_eq!(
        http_from(std::io::repeat(b'a')).err(),
        Some(RequestError::HeadTooLarge)
    );
}

#[test]
fn http_non_utf8_and_garbage_heads_are_typed() {
    for bad in [b"\xFF".as_slice(), b"\xC3\x28", b"\xE2\x82"] {
        let in_path = [b"GET /a".as_slice(), bad, b" HTTP/1.1\r\n\r\n"].concat();
        assert_eq!(http(&in_path).err(), Some(RequestError::NotUtf8), "{bad:?}");
        let in_header = [b"GET / HTTP/1.1\r\nX: ".as_slice(), bad, b"\r\n\r\n"].concat();
        assert_eq!(
            http(&in_header).err(),
            Some(RequestError::NotUtf8),
            "{bad:?}"
        );
    }
    // The body is bytes, not text: non-UTF-8 there is the handler's call.
    let body = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xFF\xFE";
    assert_eq!(http(body).unwrap().body, b"\xFF\xFE");
    for garbage in [&b"\r\n\r\n"[..], b"GET\r\n\r\n", b"  \r\n\r\n"] {
        assert_eq!(
            http(garbage).err(),
            Some(RequestError::Malformed),
            "{garbage:?}"
        );
    }
}
