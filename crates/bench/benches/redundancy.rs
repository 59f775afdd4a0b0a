//! Ablation of the paper's §IV-C assumption that injected faults affect
//! **all** redundant IMU instances: when only one instance is faulty, a
//! PX4-style consistency-voting monitor masks the fault by switching the
//! primary — quantifying the value of sensor redundancy that the paper's
//! threat model deliberately takes away.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use imufit_bench::banner;
use imufit_faults::{FaultKind, FaultSpec, FaultTarget, InjectionWindow};
use imufit_missions::all_missions;
use imufit_sensors::{consensus, ImuSample, ImuVoter, VoterConfig};
use imufit_uav::{FlightSimulator, SimConfig};

fn completion(kind: FaultKind, target: FaultTarget, all_redundant: bool) -> (usize, usize) {
    let missions = all_missions();
    let mut done = 0;
    let mut n = 0;
    for mission in missions.iter().take(3) {
        let fault = FaultSpec::new(kind, target, InjectionWindow::new(90.0, 10.0));
        let mut config = SimConfig::default_for(mission, 4040 + mission.drone.id as u64);
        config.faults_affect_all_redundant = all_redundant;
        let result = FlightSimulator::new(mission, vec![fault], config).run();
        n += 1;
        if result.outcome.is_completed() {
            done += 1;
        }
    }
    (done, n)
}

fn redundancy(c: &mut Criterion) {
    banner("Redundancy ablation: 10 s faults, all-instances vs primary-only");
    println!(
        "{:<18} | {:>16} | {:>16}",
        "fault", "all instances", "primary only"
    );
    let cases = [
        (FaultKind::Min, FaultTarget::Imu),
        (FaultKind::Random, FaultTarget::Gyrometer),
        (FaultKind::Max, FaultTarget::Accelerometer),
        (FaultKind::Freeze, FaultTarget::Imu),
    ];
    let mut masked_total = 0;
    let mut unmasked_total = 0;
    for (kind, target) in cases {
        let (all_done, n) = completion(kind, target, true);
        let (masked_done, _) = completion(kind, target, false);
        unmasked_total += all_done;
        masked_total += masked_done;
        println!(
            "{:<18} | {:>10}/{} done | {:>10}/{} done",
            format!("{} {}", target.label(), kind.label()),
            all_done,
            n,
            masked_done,
            n
        );
    }
    assert!(
        masked_total > unmasked_total,
        "redundancy voting should rescue missions: masked {masked_total} vs all-instances {unmasked_total}"
    );

    // Voting kernel benchmarks.
    let samples = vec![
        ImuSample {
            accel: imufit_math::Vec3::new(0.0, 0.0, -9.8),
            gyro: imufit_math::Vec3::new(0.01, 0.0, 0.0),
            time: 1.0,
        },
        ImuSample {
            accel: imufit_math::Vec3::splat(150.0),
            gyro: imufit_math::Vec3::splat(30.0),
            time: 1.0,
        },
        ImuSample {
            accel: imufit_math::Vec3::new(0.01, 0.0, -9.79),
            gyro: imufit_math::Vec3::new(0.0, 0.01, 0.0),
            time: 1.0,
        },
    ];
    c.bench_function("redundancy/consensus", |b| {
        b.iter(|| black_box(consensus(black_box(&samples))))
    });
    // The outlier is excluded on the first vote; later votes time the
    // steady state with a substitute standing in for the primary.
    let mut voter = ImuVoter::new(VoterConfig::default(), samples.len());
    c.bench_function("redundancy/vote", |b| {
        b.iter(|| black_box(voter.vote(black_box(&samples), 1).selected))
    });
}

criterion_group!(benches, redundancy);
criterion_main!(benches);
