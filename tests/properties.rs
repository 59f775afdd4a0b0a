//! Cross-crate property-based tests (proptest) on the testbed's invariants.

use proptest::prelude::*;

use imufit::controller::{ActuatorDemand, Mixer};
use imufit::estimator::{Ekf, EkfParams};
use imufit::faults::{
    AttackInjector, AttackKind, AttackSpec, FaultInjector, FaultKind, FaultScope, FaultSpec,
    FaultTarget, InjectionWindow,
};
use imufit::math::rng::Pcg;
use imufit::math::{wrap_pi, GeoPoint, LocalFrame, Quat, Vec3};
use imufit::sensors::{BaroSample, GpsSample, ImuSample, ImuSpec, MagSample};

fn any_vec3(range: f64) -> impl Strategy<Value = Vec3> {
    (-range..range, -range..range, -range..range).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn any_kind() -> impl Strategy<Value = FaultKind> {
    prop::sample::select(FaultKind::ALL.to_vec())
}

fn any_target() -> impl Strategy<Value = FaultTarget> {
    prop::sample::select(FaultTarget::all().to_vec())
}

proptest! {
    /// The injector never emits values beyond the sensor's physical range,
    /// for any fault, any target, any time, any input.
    #[test]
    fn injector_output_always_in_range(
        kind in any_kind(),
        target in any_target(),
        start in 0.0_f64..100.0,
        duration in 0.1_f64..60.0,
        accel in any_vec3(200.0),
        gyro in any_vec3(40.0),
        t in 0.0_f64..200.0,
        seed in 0u64..1000,
    ) {
        let spec = ImuSpec::default();
        let mut injector = FaultInjector::new(
            spec,
            vec![FaultSpec::new(kind, target, InjectionWindow::new(start, duration))],
        );
        let mut rng = Pcg::seed_from(seed);
        // Clamp the clean input like the real sensor would.
        let clean = ImuSample {
            accel: accel.clamp(-spec.accel_range(), spec.accel_range()),
            gyro: gyro.clamp(-spec.gyro_range(), spec.gyro_range()),
            time: t,
        };
        let out = injector.apply(clean, &mut rng);
        prop_assert!(out.accel.max_abs() <= spec.accel_range() + 1e-9);
        prop_assert!(out.gyro.max_abs() <= spec.gyro_range() + 1e-9);
        prop_assert!(out.accel.is_finite() && out.gyro.is_finite());
    }

    /// Outside the window the injector is exactly the identity.
    #[test]
    fn injector_is_identity_outside_window(
        kind in any_kind(),
        target in any_target(),
        accel in any_vec3(100.0),
        gyro in any_vec3(30.0),
        seed in 0u64..1000,
    ) {
        let spec = ImuSpec::default();
        let mut injector = FaultInjector::new(
            spec,
            vec![FaultSpec::new(kind, target, InjectionWindow::new(50.0, 10.0))],
        );
        let mut rng = Pcg::seed_from(seed);
        for t in [0.0, 10.0, 49.99, 60.0, 100.0] {
            let clean = ImuSample { accel, gyro, time: t };
            let out = injector.apply(clean, &mut rng);
            prop_assert_eq!(out, clean, "corrupted outside window at t={}", t);
        }
    }

    /// Before its window opens a fault draws nothing: the fault stream
    /// stays equal to an untouched copy, so every fault scheduled at the
    /// campaign's injection time leaves the same fault-free prefix.
    #[test]
    fn pending_fault_is_drawless(
        kind in any_kind(),
        target in any_target(),
        instances in 1usize..4,
        duration in 0.1_f64..60.0,
        seed in 0u64..1000,
    ) {
        let mut injector = FaultInjector::new(
            ImuSpec::default(),
            vec![FaultSpec::new(kind, target, InjectionWindow::campaign(duration))],
        );
        let mut rng = Pcg::seed_from(seed);
        let untouched = rng.clone();
        let mut t = 0.0;
        while t < InjectionWindow::CAMPAIGN_START {
            let clean = ImuSample { accel: Vec3::new(0.1, 0.0, -9.8), gyro: Vec3::ZERO, time: t };
            let mut bank = vec![clean; instances];
            injector.apply_bank(&mut bank, &mut rng);
            prop_assert!(bank.iter().all(|s| *s == clean), "corrupted at t={}", t);
            t += 0.25;
        }
        prop_assert_eq!(rng, untouched);
    }

    /// The mixer's outputs are valid throttles for arbitrary demands.
    #[test]
    fn mixer_outputs_valid_for_any_demand(
        collective in -2.0_f64..3.0,
        roll in -3.0_f64..3.0,
        pitch in -3.0_f64..3.0,
        yaw in -3.0_f64..3.0,
    ) {
        let mixer = Mixer::new();
        let out = mixer.mix(&ActuatorDemand { collective, roll, pitch, yaw });
        for v in out {
            prop_assert!((0.0..=1.0).contains(&v) && v.is_finite());
        }
    }

    /// The EKF stays finite under arbitrary bounded IMU input streams.
    #[test]
    fn ekf_never_goes_non_finite(
        accel in any_vec3(160.0),
        gyro in any_vec3(35.0),
        steps in 1usize..500,
    ) {
        let mut ekf = Ekf::new(EkfParams::default());
        ekf.initialize(Vec3::ZERO, Vec3::ZERO, 0.0);
        for i in 0..steps {
            let imu = ImuSample { accel, gyro, time: i as f64 * 0.004 };
            ekf.predict(&imu, 0.004);
        }
        prop_assert!(ekf.state().is_finite());
        prop_assert!(ekf.covariance_diagonal().iter().all(|v| v.is_finite() && *v > 0.0));
    }

    /// Quaternion attitude round trip: Euler -> quat -> Euler.
    #[test]
    fn quaternion_euler_round_trip(
        roll in -3.0_f64..3.0,
        pitch in -1.4_f64..1.4,
        yaw in -3.0_f64..3.0,
    ) {
        let q = Quat::from_euler(roll, pitch, yaw);
        let (r, p, y) = q.to_euler();
        prop_assert!((wrap_pi(r - roll)).abs() < 1e-9);
        prop_assert!((p - pitch).abs() < 1e-9);
        prop_assert!((wrap_pi(y - yaw)).abs() < 1e-9);
        prop_assert!((q.norm() - 1.0).abs() < 1e-12);
    }

    /// Rotation preserves vector length.
    #[test]
    fn rotation_preserves_norm(
        roll in -3.0_f64..3.0,
        pitch in -1.5_f64..1.5,
        yaw in -3.0_f64..3.0,
        v in any_vec3(100.0),
    ) {
        let q = Quat::from_euler(roll, pitch, yaw);
        prop_assert!((q.rotate(v).norm() - v.norm()).abs() < 1e-9);
    }

    /// Geodesy round trip over the whole study area.
    #[test]
    fn geodesy_round_trip(
        north in -3000.0_f64..3000.0,
        east in -3000.0_f64..3000.0,
        down in -100.0_f64..10.0,
    ) {
        let frame = LocalFrame::new(GeoPoint::new(39.4699, -0.3763, 0.0));
        let ned = Vec3::new(north, east, down);
        let back = frame.to_ned(frame.to_geo(ned));
        prop_assert!((back - ned).norm() < 1e-6);
    }

    /// The bubble's outer radius never shrinks below the inner radius.
    #[test]
    fn outer_bubble_floor(
        inner in 0.1_f64..50.0,
        anticipated in -10.0_f64..100.0,
        risk in 1.0_f64..5.0,
    ) {
        let outer = imufit::bubble::outer_radius(risk, inner, anticipated);
        prop_assert!(outer >= inner * risk - 1e-12);
        prop_assert!(outer >= inner - 1e-12);
    }

    /// Wire codec round trip for arbitrary position messages.
    #[test]
    fn wire_round_trip(
        id in 0u32..1000,
        t in 0.0_f64..10_000.0,
        pos in any_vec3(5000.0),
        vel in any_vec3(50.0),
    ) {
        let msg = imufit::telemetry::Message::Position {
            drone_id: id,
            time: t,
            position: pos,
            velocity: vel,
        };
        let decoded = imufit::telemetry::decode(imufit::telemetry::encode(&msg)).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    /// The consensus of identical samples is that sample, and voting always
    /// returns a valid index.
    #[test]
    fn consensus_properties(
        accel in any_vec3(150.0),
        gyro in any_vec3(30.0),
        outlier_axis in 0usize..3,
        count in 1usize..6,
    ) {
        use imufit::sensors::{consensus, ImuSample, ImuVoter, VoterConfig};
        let base = ImuSample { accel, gyro, time: 1.0 };
        let mut samples = vec![base; count];
        let c = consensus(&samples);
        prop_assert_eq!(c.accel, accel);
        prop_assert_eq!(c.gyro, gyro);
        // Poison the primary; with >= 3 instances the consensus is immune
        // and the vote substitutes another instance for the gross outlier.
        let mut voter = ImuVoter::new(VoterConfig::default(), count);
        if count >= 3 {
            samples[0].gyro[outlier_axis] += 1000.0;
            let c2 = consensus(&samples);
            prop_assert_eq!(c2.gyro, gyro);
            prop_assert_ne!(voter.vote(&samples, 0).selected, 0);
        }
        let selected = voter.vote(&samples, 0).selected;
        prop_assert!(selected < samples.len());
    }

    /// Merging running statistics equals computing them in one pass.
    #[test]
    fn running_stats_merge(
        xs in prop::collection::vec(-1000.0_f64..1000.0, 0..100),
        split in 0usize..100,
    ) {
        use imufit::math::stats::RunningStats;
        let split = split.min(xs.len());
        let mut all = RunningStats::new();
        for &x in &xs { all.push(x); }
        let mut left = RunningStats::new();
        let mut right = RunningStats::new();
        for &x in &xs[..split] { left.push(x); }
        for &x in &xs[split..] { right.push(x); }
        left.merge(&right);
        prop_assert_eq!(left.count(), all.count());
        prop_assert!((left.mean() - all.mean()).abs() < 1e-9);
        prop_assert!((left.variance() - all.variance()).abs() < 1e-6);
    }

    /// A zero-duration window is an empty interval: the injector never
    /// fires, at any time, for any fault.
    #[test]
    fn zero_duration_window_never_fires(
        kind in any_kind(),
        target in any_target(),
        start in 0.0_f64..120.0,
        accel in any_vec3(100.0),
        gyro in any_vec3(30.0),
        t in 0.0_f64..200.0,
        seed in 0u64..1000,
    ) {
        let spec = ImuSpec::default();
        let mut injector = FaultInjector::new(
            spec,
            vec![FaultSpec::new(kind, target, InjectionWindow::new(start, 0.0))],
        );
        let mut rng = Pcg::seed_from(seed);
        let clean = ImuSample { accel, gyro, time: t };
        prop_assert_eq!(injector.apply(clean, &mut rng), clean);
        prop_assert!(!injector.any_active(t));
    }

    /// Two back-to-back Zeros windows behave like one continuous fault:
    /// zeroed across the junction, identity before and after.
    #[test]
    fn back_to_back_windows_cover_the_junction(
        target in any_target(),
        d1 in 0.1_f64..20.0,
        d2 in 0.1_f64..20.0,
        accel in any_vec3(100.0),
        gyro in any_vec3(30.0),
        seed in 0u64..1000,
    ) {
        let spec = ImuSpec::default();
        let start = 10.0;
        let mut injector = FaultInjector::new(
            spec,
            vec![
                FaultSpec::new(FaultKind::Zeros, target, InjectionWindow::new(start, d1)),
                FaultSpec::new(FaultKind::Zeros, target, InjectionWindow::new(start + d1, d2)),
            ],
        );
        let mut rng = Pcg::seed_from(seed);
        // Monotonic sample times: before, inside both windows (including
        // the exact junction instant), and after.
        for t in [start - 0.5, start, start + d1, start + d1 + d2 - 1e-6, start + d1 + d2 + 0.5] {
            let clean = ImuSample { accel, gyro, time: t };
            let out = injector.apply(clean, &mut rng);
            let in_window = t >= start && t < start + d1 + d2;
            prop_assert_eq!(injector.any_active(t), in_window);
            if in_window {
                let zeroed = match target {
                    FaultTarget::Accelerometer => out.accel == Vec3::ZERO,
                    FaultTarget::Gyrometer => out.gyro == Vec3::ZERO,
                    FaultTarget::Imu => out.accel == Vec3::ZERO && out.gyro == Vec3::ZERO,
                    // Beyond-IMU targets never touch the inertial stream:
                    // the Table I injector passes their samples through.
                    FaultTarget::Gps
                    | FaultTarget::Barometer
                    | FaultTarget::Magnetometer
                    | FaultTarget::EstimatorState => out == clean,
                };
                prop_assert!(zeroed, "not zeroed at t={}", t);
            } else {
                prop_assert_eq!(out, clean, "corrupted outside both windows at t={}", t);
            }
        }
    }

    /// Overlapping faults on the same target never escape the sensor range,
    /// stay finite, and are identity outside the union of their windows.
    #[test]
    fn overlapping_faults_stay_in_range(
        k1 in any_kind(),
        k2 in any_kind(),
        target in any_target(),
        overlap in 0.1_f64..5.0,
        accel in any_vec3(200.0),
        gyro in any_vec3(40.0),
        seed in 0u64..1000,
    ) {
        let spec = ImuSpec::default();
        let mut injector = FaultInjector::new(
            spec,
            vec![
                FaultSpec::new(k1, target, InjectionWindow::new(10.0, 5.0 + overlap)),
                FaultSpec::new(k2, target, InjectionWindow::new(15.0, 5.0)),
            ],
        );
        let mut rng = Pcg::seed_from(seed);
        let clamped = ImuSample {
            accel: accel.clamp(-spec.accel_range(), spec.accel_range()),
            gyro: gyro.clamp(-spec.gyro_range(), spec.gyro_range()),
            time: 0.0,
        };
        for t in [5.0, 12.0, 15.0 + overlap / 2.0, 18.0, 25.0] {
            let clean = ImuSample { time: t, ..clamped };
            let out = injector.apply(clean, &mut rng);
            prop_assert!(out.accel.max_abs() <= spec.accel_range() + 1e-9);
            prop_assert!(out.gyro.max_abs() <= spec.gyro_range() + 1e-9);
            prop_assert!(out.accel.is_finite() && out.gyro.is_finite());
            if !(10.0..20.0).contains(&t) {
                prop_assert_eq!(out, clean);
            }
        }
    }

    /// An `Instance(k)` scope with `k` beyond the bank is inert: every
    /// instance passes through untouched.
    #[test]
    fn out_of_range_instance_scope_is_inert(
        kind in any_kind(),
        target in any_target(),
        count in 1usize..4,
        extra in 0usize..4,
        accel in any_vec3(100.0),
        gyro in any_vec3(30.0),
        t in 30.0_f64..40.0,
        seed in 0u64..1000,
    ) {
        let spec = ImuSpec::default();
        let mut injector = FaultInjector::new(
            spec,
            vec![FaultSpec::instance(
                kind,
                target,
                InjectionWindow::new(30.0, 10.0),
                count + extra,
            )],
        );
        let mut rng = Pcg::seed_from(seed);
        let clean: Vec<ImuSample> = (0..count)
            .map(|i| ImuSample {
                accel: accel + Vec3::new(i as f64 * 0.01, 0.0, 0.0),
                gyro,
                time: t,
            })
            .collect();
        let mut bank = clean.clone();
        injector.apply_bank(&mut bank, &mut rng);
        prop_assert_eq!(bank, clean);
    }

    /// Derived experiment seeds never collide for distinct cells
    /// (pairwise check on random pairs).
    #[test]
    fn experiment_seeds_distinct(
        m1 in 0usize..10, m2 in 0usize..10,
        k1 in 0usize..7, k2 in 0usize..7,
        t1 in 0usize..7, t2 in 0usize..7,
        d1 in 0usize..4, d2 in 0usize..4,
        master in 0u64..10_000,
    ) {
        use imufit::core::ExperimentSpec;
        let durations = [2.0, 5.0, 10.0, 30.0];
        let s1 = ExperimentSpec::faulty(
            m1,
            FaultKind::ALL[k1],
            FaultTarget::all()[t1],
            InjectionWindow::new(90.0, durations[d1]),
        );
        let s2 = ExperimentSpec::faulty(
            m2,
            FaultKind::ALL[k2],
            FaultTarget::all()[t2],
            InjectionWindow::new(90.0, durations[d2]),
        );
        if (m1, k1, t1, d1) != (m2, k2, t2, d2) {
            prop_assert_ne!(s1.derive_seed(master), s2.derive_seed(master));
        } else {
            prop_assert_eq!(s1.derive_seed(master), s2.derive_seed(master));
        }
    }
}

fn any_attack_kind() -> impl Strategy<Value = AttackKind> {
    prop::sample::select(AttackKind::all().to_vec())
}

/// A representative trio of aiding-sensor samples at time `t`.
fn aiding_samples(pos: Vec3, field: Vec3) -> (GpsSample, BaroSample, MagSample) {
    (
        GpsSample {
            position: pos,
            velocity: Vec3::new(2.0, -0.5, 0.1),
            horizontal_accuracy: 1.2,
            vertical_accuracy: 1.8,
        },
        BaroSample {
            altitude: -pos.z,
            pressure_pa: 101_000.0,
        },
        MagSample { field },
    )
}

proptest! {
    /// An attack corrupts nothing outside its window, and inside the
    /// window it corrupts only its own sensor: a GPS spoof never touches
    /// baro or mag samples, and vice versa.
    #[test]
    fn attack_corruption_is_confined_to_window_and_sensor(
        kind in any_attack_kind(),
        start in 10.0_f64..100.0,
        duration in 0.5_f64..60.0,
        pos in any_vec3(200.0),
        field in any_vec3(0.5),
        seed in 0u64..1000,
    ) {
        let mut inj = AttackInjector::new(vec![AttackSpec::new(
            kind,
            InjectionWindow::new(start, duration),
        )]);
        let mut rng = Pcg::seed_from(seed);
        let end = start + duration;
        for t in [0.0, start - 0.01, start, start + duration / 2.0, end, end + 50.0] {
            inj.advance(t, &mut rng);
            let (clean_gps, clean_baro, clean_mag) = aiding_samples(pos, field);
            let (mut gps, mut baro, mut mag) = (clean_gps, clean_baro, clean_mag);
            inj.apply_gps(&mut gps, t);
            inj.apply_baro(&mut baro, t);
            inj.apply_mag(&mut mag, t);
            let kick = inj.take_state_glitch(t);
            let inside = (start..end).contains(&t);
            if !inside {
                prop_assert_eq!(gps, clean_gps, "gps corrupted outside window at t={}", t);
                prop_assert_eq!(baro, clean_baro, "baro corrupted outside window at t={}", t);
                prop_assert_eq!(mag, clean_mag, "mag corrupted outside window at t={}", t);
                prop_assert_eq!(kick, None, "state glitch fired outside window at t={}", t);
            } else {
                // Cross-sensor confinement: only the targeted stream moves.
                if kind != AttackKind::GpsSpoofRamp {
                    prop_assert_eq!(gps, clean_gps);
                }
                if kind != AttackKind::BaroDrift {
                    prop_assert_eq!(baro, clean_baro);
                }
                if kind != AttackKind::MagBiasRotation {
                    prop_assert_eq!(mag, clean_mag);
                }
                if kind != AttackKind::StateGlitch {
                    prop_assert_eq!(kick, None);
                }
            }
        }
    }

    /// Before its window an attack is pure passthrough: samples come back
    /// bit-identical and the attack RNG stream is never consumed.
    #[test]
    fn pending_attack_is_drawless_and_identity(
        kind in any_attack_kind(),
        pos in any_vec3(200.0),
        field in any_vec3(0.5),
        seed in 0u64..1000,
    ) {
        let mut inj = AttackInjector::new(vec![AttackSpec::new(
            kind,
            InjectionWindow::new(1_000.0, 10.0),
        )]);
        let mut rng = Pcg::seed_from(seed);
        let mut reference = Pcg::seed_from(seed);
        for i in 0..200 {
            let t = i as f64 * 0.5;
            inj.advance(t, &mut rng);
            let (clean_gps, clean_baro, clean_mag) = aiding_samples(pos, field);
            let (mut gps, mut baro, mut mag) = (clean_gps, clean_baro, clean_mag);
            inj.apply_gps(&mut gps, t);
            inj.apply_baro(&mut baro, t);
            inj.apply_mag(&mut mag, t);
            prop_assert_eq!(gps, clean_gps);
            prop_assert_eq!(baro, clean_baro);
            prop_assert_eq!(mag, clean_mag);
            prop_assert_eq!(inj.take_state_glitch(t), None);
        }
        prop_assert_eq!(rng.uniform(), reference.uniform(), "attack stream was consumed");
    }

    /// An attack scoped to a sensor instance the vehicle doesn't fly
    /// (the testbed flies instance 0 of each aiding sensor) never corrupts
    /// anything, even inside its window.
    #[test]
    fn out_of_scope_attack_never_corrupts(
        kind in any_attack_kind(),
        instance in 1usize..8,
        t in 0.0_f64..200.0,
        pos in any_vec3(200.0),
        field in any_vec3(0.5),
        seed in 0u64..1000,
    ) {
        let spec = AttackSpec::new(kind, InjectionWindow::new(0.0, 500.0))
            .with_scope(FaultScope::Instance(instance));
        let mut inj = AttackInjector::new(vec![spec]);
        let mut rng = Pcg::seed_from(seed);
        inj.advance(t, &mut rng);
        let (clean_gps, clean_baro, clean_mag) = aiding_samples(pos, field);
        let (mut gps, mut baro, mut mag) = (clean_gps, clean_baro, clean_mag);
        inj.apply_gps(&mut gps, t);
        inj.apply_baro(&mut baro, t);
        inj.apply_mag(&mut mag, t);
        prop_assert_eq!(gps, clean_gps);
        prop_assert_eq!(baro, clean_baro);
        prop_assert_eq!(mag, clean_mag);
        prop_assert_eq!(inj.take_state_glitch(t), None);
    }
}
