//! Property tests for the `.ifbb` wire format: arbitrary records, events,
//! and whole black boxes survive encode→decode bit-for-bit. Hostile input
//! (truncation, flipped bytes, garbage, version skew) is covered for every
//! decoder at once by the workspace's `tests/codec_props.rs`.

use proptest::prelude::*;

use imufit_trace::{
    BlackBox, ImuInstanceTrace, TraceEvent, TraceEventKind, TraceRecord, TraceSegment, TraceTrigger,
};

fn any_kind() -> impl Strategy<Value = TraceEventKind> {
    prop::sample::select(TraceEventKind::ALL.to_vec())
}

fn any_trigger() -> impl Strategy<Value = TraceTrigger> {
    prop::sample::select(TraceTrigger::ALL.to_vec())
}

/// A record with every channel derived (deterministically) from a handful
/// of generated scalars, so the full payload surface is exercised.
fn build_record(tick: u64, time: f64, ratio: f64, flags: u8, instances: usize) -> TraceRecord {
    let r = ratio as f32;
    TraceRecord {
        tick,
        time,
        pos_ratio: r,
        vel_ratio: r * 2.0,
        hgt_ratio: r * 0.5,
        cascade_stage: flags % 5,
        flags: flags & 0x0F,
        primary: flags % 3,
        excluded_mask: flags.rotate_left(3),
        deviation: r * 10.0 - 1.0,
        inner_radius: 25.0 + r,
        outer_radius: 50.0 + r,
        instances: (0..instances)
            .map(|i| {
                let b = i as f32 + r;
                ImuInstanceTrace {
                    gyro: [b, -b, b * 0.5],
                    accel: [b * 2.0, b * 3.0, -9.8 + b],
                    injected_gyro: [b * 0.1, 0.0, 0.0],
                    injected_accel: [0.0, b * 0.2, 0.0],
                }
            })
            .collect(),
    }
}

fn build_event(id: u32, caused_by: Option<u32>, time: f64, kind: TraceEventKind) -> TraceEvent {
    TraceEvent {
        id,
        caused_by,
        tick: (time.abs() * 250.0) as u64,
        time,
        kind,
        param: id.wrapping_mul(31),
        detail: format!("detail for event {id} ({})", kind.label()),
    }
}

/// A black box holding just `records` in one segment and `events`.
fn boxed(records: Vec<TraceRecord>, events: Vec<TraceEvent>) -> BlackBox {
    BlackBox {
        drone_id: 1,
        metadata: String::new(),
        segments: vec![TraceSegment {
            trigger: TraceTrigger::Failsafe,
            trigger_event_id: 0,
            records,
        }],
        events,
    }
}

proptest! {
    /// record → frame → record is the identity for arbitrary channels.
    #[test]
    fn record_round_trip(
        tick in 0_u64..u64::MAX,
        time in -1.0_f64..10_000.0,
        ratio in 0.0_f64..100.0,
        flags in 0_u8..u8::MAX,
        instances in 0_usize..6,
    ) {
        let bb = boxed(vec![build_record(tick, time, ratio, flags, instances)], Vec::new());
        prop_assert_eq!(BlackBox::decode(&bb.encode()).unwrap(), bb);
    }

    /// event → frame → event is the identity for arbitrary values.
    #[test]
    fn event_round_trip(
        id in 0_u32..u32::MAX,
        cause in 0_u32..u32::MAX,
        has_cause in prop::sample::select(vec![false, true]),
        time in 0.0_f64..10_000.0,
        kind in any_kind(),
    ) {
        // u32::MAX is the wire sentinel for "no cause", so keep generated
        // causes below it.
        let caused_by = has_cause.then_some(cause.min(u32::MAX - 1));
        let bb = boxed(Vec::new(), vec![build_event(id, caused_by, time, kind)]);
        prop_assert_eq!(BlackBox::decode(&bb.encode()).unwrap(), bb);
    }

    /// Whole black boxes round-trip, segments and all.
    #[test]
    fn black_box_round_trip(
        drone_id in 0_u32..u32::MAX,
        seed in 0_u64..1_000_000,
        segments in 0_usize..4,
        records in 0_usize..8,
        events in 0_usize..8,
        trigger in any_trigger(),
        kind in any_kind(),
    ) {
        let bb = BlackBox {
            drone_id,
            metadata: format!("mission=0 drone={drone_id} seed={seed} kind=freeze"),
            segments: (0..segments)
                .map(|s| TraceSegment {
                    trigger,
                    trigger_event_id: s as u32,
                    records: (0..records)
                        .map(|r| build_record(
                            (s * 100 + r) as u64,
                            r as f64 * 0.004,
                            seed as f64 % 7.0,
                            (seed % 256) as u8,
                            r % 4,
                        ))
                        .collect(),
                })
                .collect(),
            events: (0..events)
                .map(|e| build_event(
                    e as u32,
                    (e > 0).then(|| e as u32 - 1),
                    e as f64,
                    kind,
                ))
                .collect(),
        };
        prop_assert_eq!(BlackBox::decode(&bb.encode()).unwrap(), bb);
    }
}
