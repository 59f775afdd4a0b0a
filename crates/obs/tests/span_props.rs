//! Property tests for the `.ifsp` execution-span wire format: arbitrary
//! journals survive encode→decode bit-for-bit, and a partial trailing
//! frame (the append-only journal's `kill -9` contract) keeps every whole
//! event and reports where the intact journal ends. Hostile input
//! (truncation at every offset, flipped bytes, garbage, oversized lengths,
//! version skew) is covered for every decoder at once by the workspace's
//! `tests/codec_props.rs`.

use proptest::prelude::*;

use imufit_obs::spans::{SpanEvent, SpanKind, SpanLog, Tail};

const KINDS: [SpanKind; 6] = [
    SpanKind::Enqueued,
    SpanKind::Dispatched,
    SpanKind::LeaseRenewed,
    SpanKind::Executed,
    SpanKind::Merged,
    SpanKind::Requeued,
];

/// One event with its shape derived deterministically from generated
/// scalars: every kind, with and without stage tables and detail strings
/// (including non-ASCII).
fn build_event(idx: usize, seed: u64, stages: usize) -> SpanEvent {
    let mut ev = SpanEvent::new(
        seed.wrapping_mul(idx as u64 + 1) as u32,
        KINDS[(seed as usize + idx) % KINDS.len()],
    );
    ev.t_offset_ms = seed.rotate_left(idx as u32);
    ev.worker = (seed >> 32) as u32 ^ idx as u32;
    ev.span = seed.wrapping_add(idx as u64);
    ev.ticks = seed % 100_000;
    ev.exec_nanos = seed.wrapping_mul(997);
    if idx.is_multiple_of(2) {
        ev.stages = (0..stages)
            .map(|s| (format!("stage_{s}"), seed.rotate_right(s as u32)))
            .collect();
    }
    if idx.is_multiple_of(3) {
        ev.detail = format!("m{idx} gyro Freeze 30s — seed {seed}");
    }
    ev
}

fn build_log(seed: u64, events: usize, stages: usize) -> SpanLog {
    SpanLog {
        campaign: seed,
        total_units: (events as u32).max(1),
        started_unix_ms: seed ^ 0xABCD,
        events: (0..events).map(|i| build_event(i, seed, stages)).collect(),
        tail: Tail::Clean,
    }
}

proptest! {
    /// journal → bytes → journal is the identity for arbitrary logs.
    #[test]
    fn round_trip(
        seed in 0_u64..u64::MAX,
        events in 0_usize..12,
        stages in 0_usize..9,
    ) {
        let log = build_log(seed, events, stages);
        prop_assert_eq!(SpanLog::decode(&log.encode()).unwrap(), log);
    }

    /// Appending a partial frame — the literal torn-tail case — keeps
    /// every complete event and marks the tail torn at the clean length.
    #[test]
    fn partial_trailing_frame_sets_torn_and_keeps_the_prefix(
        seed in 0_u64..1_000_000,
        keep in 1_usize..20,
    ) {
        let log = build_log(seed, 4, 2);
        let mut bytes = log.encode();
        let clean_len = bytes.len();
        let tail = build_event(99, seed, 1).encode_frame();
        bytes.extend_from_slice(&tail[..keep.min(tail.len() - 1)]);
        let decoded = SpanLog::decode(&bytes).unwrap();
        prop_assert_eq!(decoded.tail, Tail::Torn { clean_len });
        prop_assert_eq!(decoded.events, log.events);
    }
}
