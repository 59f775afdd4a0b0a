//! Micro-benchmarks of every hot kernel in the closed-loop simulator.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use imufit_controller::{ControllerParams, FlightController, FlightPlan, Waypoint};
use imufit_dynamics::{Quadrotor, QuadrotorParams};
use imufit_estimator::{Ekf, EkfParams};
use imufit_faults::{FaultInjector, FaultKind, FaultSpec, FaultTarget, InjectionWindow};
use imufit_math::rng::Pcg;
use imufit_math::Vec3;
use imufit_missions::all_missions;
use imufit_sensors::{GpsSample, ImuSample, ImuSpec, RedundantImu};
use imufit_uav::{FlightSimulator, SimConfig};

fn bench_dynamics_step(c: &mut Criterion) {
    let mut quad = Quadrotor::new(QuadrotorParams::default_airframe());
    let hover = quad.params().hover_throttle();
    c.bench_function("dynamics/rk4_step", |b| {
        b.iter(|| {
            quad.step(black_box([hover; 4]), 0.004);
            black_box(quad.state().position)
        })
    });
}

fn bench_ekf(c: &mut Criterion) {
    // Time the filter in flight: 250 Hz predicts with one GPS fix per 50 of
    // them, the simulator's rate ratio, so the predict row carries one fix
    // amortized over 50 predicts. Unaided, the largest variance pins at the
    // 1e9 clamp after ~30k predicts and every later predict times the
    // clamp's rebuild path instead.
    let imu = ImuSample {
        accel: Vec3::new(0.01, -0.02, -9.80665),
        gyro: Vec3::new(0.001, 0.002, -0.001),
        time: 0.0,
    };
    let gps = GpsSample {
        position: Vec3::ZERO,
        velocity: Vec3::ZERO,
        horizontal_accuracy: 1.2,
        vertical_accuracy: 1.8,
    };
    let mut ekf = Ekf::new(EkfParams::default());
    ekf.initialize(Vec3::ZERO, Vec3::ZERO, 0.0);
    let mut predicts = 0u32;
    let mut fly = |ekf: &mut Ekf| {
        ekf.predict(black_box(&imu), 0.004);
        predicts += 1;
        if predicts.is_multiple_of(50) {
            ekf.fuse_gps(&gps);
        }
    };
    let assert_in_flight = |ekf: &Ekf| {
        let worst = ekf.covariance_diagonal().into_iter().fold(0.0, f64::max);
        assert!(worst < 1e9, "EKF variance {worst} reached the clamp");
    };
    for _ in 0..5_000 {
        fly(&mut ekf);
    }
    assert_in_flight(&ekf);
    c.bench_function("ekf/predict", |b| {
        b.iter(|| {
            fly(&mut ekf);
            black_box(ekf.state().position)
        })
    });
    assert_in_flight(&ekf);
    // Every fix starts from the same in-flight state; back-to-back fixes
    // with no predicts between them would shrink the covariance instead.
    let in_flight = ekf.clone();
    c.bench_function("ekf/fuse_gps", |b| {
        b.iter(|| {
            ekf.clone_from(&in_flight);
            ekf.fuse_gps(black_box(&gps));
            black_box(ekf.health().pos_test_ratio)
        })
    });
}

fn bench_sampler(c: &mut Criterion) {
    // One Gaussian draw, and the IMU bank the simulator samples every tick:
    // three instances, 36 draws for white noise and bias random walks.
    let mut rng = Pcg::seed_from(1);
    c.bench_function("rng/normal", |b| b.iter(|| black_box(rng.normal())));
    let mut bank = RedundantImu::new(ImuSpec::default(), 3, &mut Pcg::seed_from(2));
    let mut noise = Pcg::seed_from(3);
    let hover_force = Vec3::new(0.0, 0.0, -9.80665);
    c.bench_function("sensors/imu_bank_sample", |b| {
        b.iter(|| black_box(bank.sample_all(black_box(hover_force), Vec3::ZERO, 0.004, &mut noise)))
    });
}

fn bench_injector(c: &mut Criterion) {
    let spec = ImuSpec::default();
    let mut injector = FaultInjector::new(
        spec,
        vec![FaultSpec::new(
            FaultKind::Random,
            FaultTarget::Imu,
            InjectionWindow::new(0.0, 1e9),
        )],
    );
    let mut rng = Pcg::seed_from(1);
    let clean = ImuSample {
        accel: Vec3::new(0.0, 0.0, -9.8),
        gyro: Vec3::ZERO,
        time: 1.0,
    };
    c.bench_function("injector/apply_active", |b| {
        b.iter(|| black_box(injector.apply(black_box(clean), &mut rng)))
    });
    let mut passthrough = FaultInjector::passthrough(spec);
    c.bench_function("injector/apply_passthrough", |b| {
        b.iter(|| black_box(passthrough.apply(black_box(clean), &mut rng)))
    });
}

fn bench_controller(c: &mut Criterion) {
    let plan = FlightPlan::new(Vec3::ZERO, 18.0, vec![Waypoint::at(500.0, 0.0, 18.0)], 5.0);
    let mut fc = FlightController::new(ControllerParams::default_airframe(), plan);
    let nav = imufit_estimator::NavState::default();
    let imu = ImuSample {
        accel: Vec3::new(0.0, 0.0, -9.8),
        gyro: Vec3::ZERO,
        time: 0.0,
    };
    let mut t = 0.0;
    c.bench_function("controller/update", |b| {
        b.iter(|| {
            t += 0.004;
            black_box(fc.update(t, 0.004, black_box(&nav), black_box(&imu), false))
        })
    });
}

/// Steps a vehicle once more after its row has been timed. `step`
/// returns at once after touchdown, so a row whose iterations outlast the
/// flight would time no-ops; this makes that fail loudly instead.
fn assert_still_flying(sim: &mut FlightSimulator, row: &str) {
    let before = sim.time();
    sim.step();
    assert!(
        sim.time() > before,
        "{row}: the flight ended at t = {before} s before the row finished timing"
    );
}

fn bench_sim_step(c: &mut Criterion) {
    let missions = all_missions();
    let mission = &missions[0];
    let mut sim = FlightSimulator::new(mission, Vec::new(), SimConfig::default_for(mission, 1));
    // Get airborne so the step exercises the full pipeline.
    for _ in 0..5000 {
        sim.step();
    }
    c.bench_function("sim/closed_loop_step", |b| {
        b.iter(|| {
            sim.step();
            black_box(sim.time())
        })
    });
    assert_still_flying(&mut sim, "sim/closed_loop_step");
}

/// The whole obs layer's tick cost: two identically warmed vehicles fly
/// the same ticks, one with the metric runtime kill-switch thrown
/// (`sim/tick_obs_off`) and one with obs on, the tick-stage profiler
/// sampling at its default 1-in-64 period (`sim/tick_obs_on`). The ratio
/// of the two medians is the obs overhead `bench_summary --gate` holds
/// under 2%.
fn bench_obs_tick(c: &mut Criterion) {
    let missions = all_missions();
    let mission = &missions[0];
    for (name, obs_on) in [("sim/tick_obs_off", false), ("sim/tick_obs_on", true)] {
        let mut sim = FlightSimulator::new(mission, Vec::new(), SimConfig::default_for(mission, 1));
        for _ in 0..5000 {
            sim.step();
        }
        imufit_obs::set_runtime_enabled(obs_on);
        // A bench build without `imufit-obs/enabled` would time an obs-off
        // tick on both sides of the pair.
        assert_eq!(imufit_obs::runtime_enabled(), obs_on, "{name}");
        c.bench_function(name, |b| {
            b.iter(|| {
                sim.step();
                black_box(sim.time())
            })
        });
        assert_still_flying(&mut sim, name);
    }
}

/// The coordinator's span-journal write path minus the filesystem: frame
/// one Executed event (the largest kind — it carries the stage table) as
/// it would be appended to `campaign_spans.ifsp`.
fn bench_span_record(c: &mut Criterion) {
    use imufit_obs::spans::{SpanEvent, SpanKind};

    let mut event = SpanEvent::new(42, SpanKind::Executed);
    event.t_offset_ms = 12_345;
    event.worker = 3;
    event.span = 7;
    event.ticks = 45_062;
    event.exec_nanos = 81_000_000;
    event.stages = vec![
        ("estimator".to_string(), 40_000_000),
        ("dynamics".to_string(), 20_000_000),
        ("controller".to_string(), 12_000_000),
        ("sensors".to_string(), 6_000_000),
    ];
    c.bench_function("obs/span_record", |b| {
        b.iter(|| black_box(event.encode_frame()).len())
    });
}

/// Whole-run throughput: one short fault-to-crash experiment per
/// iteration through the campaign's isolated harness
/// (`campaign/runs_per_sec` in BENCH_campaign.json is derived from it).
fn bench_campaign_run(c: &mut Criterion) {
    use imufit_core::{Campaign, CampaignConfig};

    let mut config = CampaignConfig::scaled(1, vec![2.0], 7);
    config.faults.kinds = vec![FaultKind::Max];
    config.faults.targets = vec![FaultTarget::Gyrometer];
    let spec = config.matrix()[1];
    assert!(spec.fault.is_some(), "run must exercise the fault path");
    c.bench_function("campaign/run_experiment", |b| {
        b.iter(|| black_box(Campaign::run_experiment_isolated(&config, black_box(spec))))
    });
}

fn bench_trace(c: &mut Criterion) {
    let missions = all_missions();
    let mission = &missions[0];

    // Tick cost with the collector compiled in but disarmed — the default
    // campaign path, and the baseline the ring overhead is judged against.
    let mut off = FlightSimulator::new(mission, Vec::new(), SimConfig::default_for(mission, 1));
    for _ in 0..5000 {
        off.step();
    }
    c.bench_function("trace/tick_off", |b| {
        b.iter(|| {
            off.step();
            black_box(off.time())
        })
    });
    assert_still_flying(&mut off, "trace/tick_off");

    // Ring armed with no triggers: pure full-rate record capture, no
    // segment freezes and no detection ensemble — the floor of armed
    // tracing, below what `--trace-dir` arms.
    let mut config = SimConfig::default_for(mission, 1);
    config.trace.enabled = true;
    config.trace.triggers = Vec::new();
    let mut ring = FlightSimulator::new(mission, Vec::new(), config);
    for _ in 0..5000 {
        ring.step();
    }
    c.bench_function("trace/tick_ring", |b| {
        b.iter(|| {
            ring.step();
            black_box(ring.time())
        })
    });
    assert_still_flying(&mut ring, "trace/tick_ring");

    // Armed with the default triggers, as `--trace-dir` arms it: the ring
    // plus the detection ensemble the detector-edge trigger runs every
    // tick. `trace/tick_armed` minus `trace/tick_ring` is the ensemble.
    let mut config = SimConfig::default_for(mission, 1);
    config.trace.enabled = true;
    let mut armed = FlightSimulator::new(mission, Vec::new(), config);
    for _ in 0..5000 {
        armed.step();
    }
    c.bench_function("trace/tick_armed", |b| {
        b.iter(|| {
            armed.step();
            black_box(armed.time())
        })
    });
    assert_still_flying(&mut armed, "trace/tick_armed");

    // Sealing a trigger's frozen window into `.ifbb` bytes: one 512-record
    // segment (the default pre+post window) plus its event chain.
    let record = imufit_trace::TraceRecord {
        tick: 22_500,
        time: 90.0,
        pos_ratio: 0.4,
        vel_ratio: 0.2,
        hgt_ratio: 0.1,
        cascade_stage: 1,
        flags: imufit_trace::record::FLAG_AIRBORNE | imufit_trace::record::FLAG_FAULT_ACTIVE,
        primary: 0,
        excluded_mask: 0,
        deviation: 1.5,
        inner_radius: 2.0,
        outer_radius: 50.0,
        instances: (0..3)
            .map(|i| imufit_trace::ImuInstanceTrace {
                gyro: [0.01 * i as f32, -0.02, 0.003],
                accel: [0.1, -0.2, -9.8],
                injected_gyro: [0.0; 3],
                injected_accel: [0.0; 3],
            })
            .collect(),
    };
    let bb = imufit_trace::BlackBox {
        drone_id: 0,
        metadata: "mission=0 drone=0 target=IMU kind=Freeze duration=30 seed=2024 outcome=crash"
            .to_string(),
        segments: vec![imufit_trace::TraceSegment {
            trigger: imufit_trace::TraceTrigger::DetectorEdge,
            trigger_event_id: 1,
            records: vec![record; 512],
        }],
        events: (0..6)
            .map(|i| imufit_trace::TraceEvent {
                id: i,
                caused_by: i.checked_sub(1),
                tick: 22_500 + u64::from(i) * 70,
                time: 90.0 + f64::from(i) * 0.28,
                kind: imufit_trace::TraceEventKind::ALL
                    [i as usize % imufit_trace::TraceEventKind::ALL.len()],
                param: 0,
                detail: "detection ensemble alarm persisted 0.25 s".to_string(),
            })
            .collect(),
    };
    c.bench_function("trace/dump_trigger", |b| {
        b.iter(|| black_box(bb.encode()).len())
    });
}

fn bench_fleet(c: &mut Criterion) {
    use imufit_core::{ExperimentRecord, ExperimentSpec};
    use imufit_fleet::{checkpoint, decode_msg, encode_msg, FleetMsg};
    use imufit_uav::FlightOutcome;

    let spec = ExperimentSpec {
        mission_index: 3,
        fault: Some(FaultSpec::new(
            FaultKind::Freeze,
            FaultTarget::Gyrometer,
            InjectionWindow::new(90.0, 10.0),
        )),
        attack: None,
    };
    // The coordinator's per-unit send path: frame an Assign, then decode
    // it as the worker would.
    c.bench_function("fleet/dispatch_unit", |b| {
        b.iter(|| {
            let frame = encode_msg(&FleetMsg::Assign {
                unit: 42,
                spec,
                campaign_fp: 0xABCD_EF01_2345_6789,
                span: 7,
                campaign: 0,
                spec_toml: None,
            });
            black_box(decode_msg(black_box(&frame)).unwrap())
        })
    });

    // The coordinator's per-result receive path: decode a Result frame,
    // journal the entry, and merge the record into its matrix slot.
    let record = ExperimentRecord {
        spec,
        drone_id: 4,
        outcome: FlightOutcome::Completed,
        flight_duration: 180.25,
        distance_est: 1234.5,
        distance_true: 1230.0,
        inner_violations: 2,
        outer_violations: 0,
        ekf_resets: 1,
    };
    let frame = encode_msg(&FleetMsg::Result {
        unit: 42,
        record,
        span: 7,
        campaign: 0,
        exec: imufit_fleet::ExecReport {
            ticks: 45_062,
            exec_nanos: 81_000_000,
            stages: vec![
                ("estimator".to_string(), 40_000_000),
                ("dynamics".to_string(), 20_000_000),
            ],
        },
    });
    let mut slots: Vec<Option<ExperimentRecord>> = vec![None; 64];
    c.bench_function("fleet/merge_row", |b| {
        b.iter(|| {
            let msg = decode_msg(black_box(&frame)).unwrap();
            if let FleetMsg::Result { unit, record, .. } = msg {
                let entry = checkpoint::CheckpointEntry { unit, record };
                black_box(checkpoint::encode_entry(&entry).len());
                slots[unit as usize] = Some(entry.record);
            }
            black_box(slots[42].is_some())
        })
    });
}

fn bench_wire(c: &mut Criterion) {
    let msg = imufit_telemetry::Message::Position {
        drone_id: 7,
        time: 123.0,
        position: Vec3::new(10.0, 20.0, -18.0),
        velocity: Vec3::new(1.0, 2.0, 0.0),
    };
    c.bench_function("wire/encode", |b| {
        b.iter(|| black_box(imufit_telemetry::encode(black_box(&msg))))
    });
    let bytes = imufit_telemetry::encode(&msg);
    c.bench_function("wire/decode", |b| {
        b.iter(|| black_box(imufit_telemetry::decode(black_box(bytes.clone())).unwrap()))
    });
}

criterion_group!(
    benches,
    bench_dynamics_step,
    bench_ekf,
    bench_sampler,
    bench_injector,
    bench_controller,
    bench_sim_step,
    bench_obs_tick,
    bench_span_record,
    bench_campaign_run,
    bench_trace,
    bench_fleet,
    bench_wire
);
criterion_main!(benches);
