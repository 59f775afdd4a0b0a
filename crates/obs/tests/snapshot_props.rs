//! Property tests for the metric-snapshot wire format: arbitrary
//! registries survive encode→decode bit-for-bit, and histogram-bucket
//! merging is associative (the fleet coordinator may fold worker snapshots
//! in any grouping). Hostile input (truncation, flipped bytes, garbage,
//! version skew) is covered for every decoder at once by the workspace's
//! `tests/codec_props.rs`.

use proptest::prelude::*;

use imufit_obs::snapshot::{Snapshot, SnapshotMetric, SnapshotValue};

/// One metric with its shape derived deterministically from a handful of
/// generated scalars, covering all three kinds and labeled/unlabeled.
fn build_metric(idx: usize, kind: u8, value: u64, labeled: bool, buckets: usize) -> SnapshotMetric {
    let labels = if labeled {
        vec![("worker".to_string(), format!("{}", idx % 7))]
    } else {
        Vec::new()
    };
    let value = match kind % 3 {
        0 => SnapshotValue::Counter(value),
        1 => SnapshotValue::Gauge((value as f64 * 0.5).to_bits()),
        _ => SnapshotValue::Histogram {
            bounds: (0..buckets).map(|b| (b + 1) as f64 * 0.001).collect(),
            counts: (0..=buckets)
                .map(|b| value.rotate_left(b as u32) % 97)
                .collect(),
            sum_bits: (value as f64 * 1e-6).to_bits(),
        },
    };
    SnapshotMetric {
        name: format!("metric_{idx}_total"),
        labels,
        value,
    }
}

fn build_snapshot(seed: u64, metrics: usize, buckets: usize) -> Snapshot {
    Snapshot {
        metrics: (0..metrics)
            .map(|i| {
                build_metric(
                    i,
                    (seed >> (i % 8)) as u8,
                    seed.wrapping_mul(i as u64 + 1),
                    i % 2 == 0,
                    buckets,
                )
            })
            .collect(),
    }
}

/// The histogram bucket counts of `snap`'s metric named `name`, summed
/// across label sets.
fn bucket_counts(snap: &Snapshot, name: &str) -> Vec<u64> {
    let mut total: Vec<u64> = Vec::new();
    for m in &snap.metrics {
        if m.name != name {
            continue;
        }
        if let SnapshotValue::Histogram { counts, .. } = &m.value {
            if total.is_empty() {
                total = vec![0; counts.len()];
            }
            for (t, c) in total.iter_mut().zip(counts) {
                *t += c;
            }
        }
    }
    total
}

proptest! {
    /// snapshot → frame → snapshot is the identity for arbitrary
    /// registries.
    #[test]
    fn round_trip(
        seed in 0_u64..u64::MAX,
        metrics in 0_usize..12,
        buckets in 1_usize..8,
    ) {
        let snap = build_snapshot(seed, metrics, buckets);
        prop_assert_eq!(Snapshot::decode(&snap.encode()).unwrap(), snap);
    }

    /// Merging is associative on histogram bucket counts: however the
    /// coordinator groups worker snapshots, the fleet-wide distribution is
    /// the same. (Sum fields are f64 and deliberately not asserted —
    /// quantiles come from the integer buckets.)
    #[test]
    fn merge_is_associative_on_buckets(
        sa in 0_u64..1_000_000,
        sb in 0_u64..1_000_000,
        sc in 0_u64..1_000_000,
    ) {
        // Identical shape (names, kinds, bounds), different counts: the
        // fleet case, where every worker reports the same registry
        // layout. Kind-mismatched merges are first-wins and deliberately
        // out of scope here.
        let build = |seed: u64| Snapshot {
            metrics: (0..6)
                .map(|i| {
                    build_metric(i, i as u8, seed.wrapping_mul(i as u64 + 1), i % 2 == 0, 4)
                })
                .collect(),
        };
        let a = build(sa);
        let b = build(sb);
        let c = build(sc);

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);

        for m in &a.metrics {
            if matches!(m.value, SnapshotValue::Histogram { .. }) {
                prop_assert_eq!(
                    bucket_counts(&left, &m.name),
                    bucket_counts(&right, &m.name),
                    "metric {}", &m.name
                );
            }
        }
        // Counters are saturating sums, associative outright.
        for m in &a.metrics {
            if matches!(m.value, SnapshotValue::Counter(_)) {
                prop_assert_eq!(
                    left.counter_total(&m.name),
                    right.counter_total(&m.name),
                    "metric {}", &m.name
                );
            }
        }
    }
}
