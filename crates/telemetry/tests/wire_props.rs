//! Property tests for the telemetry wire codec: arbitrary messages
//! survive encode→decode bit-for-bit, alone or followed by other bytes.
//! Hostile input (truncation, flipped bytes, garbage, short payloads) is
//! covered for every decoder at once by the workspace's
//! `tests/codec_props.rs`.

use proptest::prelude::*;

use bytes::Bytes;
use imufit_math::Vec3;
use imufit_telemetry::wire::{decode, encode, Message};

/// A message with every field derived (deterministically) from a handful
/// of generated scalars, so both variants and the full payload surface
/// are exercised — the same idiom as the trace wire property tests.
fn build_message(status: bool, drone_id: u32, time: f64, x: f64, flags: u8) -> Message {
    if status {
        Message::Status {
            drone_id,
            time,
            mode: flags % 7,
            failsafe: flags & 1 != 0,
        }
    } else {
        Message::Position {
            drone_id,
            time,
            position: Vec3::new(x, -x * 2.0, x * 0.5 - 18.0),
            velocity: Vec3::new(x * 0.1, x * -0.01, f64::from(flags) * 0.25),
        }
    }
}

fn any_variant() -> impl Strategy<Value = bool> {
    prop::sample::select(vec![false, true])
}

proptest! {
    /// message → frame → message is the identity, floats bit-exact.
    #[test]
    fn message_round_trip(
        status in any_variant(),
        drone_id in 0_u32..u32::MAX,
        time in -1.0e6_f64..1.0e6,
        x in -1.0e5_f64..1.0e5,
        flags in 0_u8..u8::MAX,
    ) {
        let msg = build_message(status, drone_id, time, x, flags);
        prop_assert_eq!(decode(encode(&msg)).unwrap(), msg);
    }

    /// Concatenated frames: the decoder consumes exactly one message and
    /// trailing bytes do not corrupt it.
    #[test]
    fn leading_frame_decodes_amid_trailing_bytes(
        status in any_variant(),
        drone_id in 0_u32..1000,
        time in 0.0_f64..1.0e4,
        extra in 0_usize..8,
    ) {
        let msg = build_message(status, drone_id, time, 1.25, 5);
        let mut v = encode(&msg).to_vec();
        v.extend(std::iter::repeat_n(0xAB, extra));
        prop_assert_eq!(decode(Bytes::from(v)).unwrap(), msg);
    }
}
