//! The inertial measurement unit: accelerometer + gyroscope, with redundant
//! instances.

use serde::{Deserialize, Serialize};

use imufit_math::rng::Pcg;
use imufit_math::Vec3;

use crate::accel::{AccelSpec, Accelerometer};
use crate::gyro::{GyroSpec, Gyroscope};

/// One IMU reading: the pair of vectors the flight stack consumes each tick.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImuSample {
    /// Body-frame specific force, m/s^2.
    pub accel: Vec3,
    /// Body-frame angular rate, rad/s.
    pub gyro: Vec3,
    /// Sample timestamp, seconds since boot.
    pub time: f64,
}

impl ImuSample {
    /// An all-zero sample at time zero (useful as an initial "no data yet"
    /// placeholder in tests).
    pub fn zero() -> Self {
        ImuSample {
            accel: Vec3::ZERO,
            gyro: Vec3::ZERO,
            time: 0.0,
        }
    }
}

/// Combined accelerometer + gyroscope specification.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ImuSpec {
    /// Accelerometer specification.
    pub accel: AccelSpec,
    /// Gyroscope specification.
    pub gyro: GyroSpec,
}

impl ImuSpec {
    /// Full-scale accelerometer range, m/s^2.
    pub fn accel_range(&self) -> f64 {
        self.accel.range
    }

    /// Full-scale gyroscope range, rad/s.
    pub fn gyro_range(&self) -> f64 {
        self.gyro.range
    }
}

/// One IMU instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Imu {
    spec: ImuSpec,
    accel: Accelerometer,
    gyro: Gyroscope,
    time: f64,
}

impl Imu {
    /// Creates an IMU instance, drawing turn-on biases from `rng`.
    pub fn new(spec: ImuSpec, rng: &mut Pcg) -> Self {
        Imu {
            spec,
            accel: Accelerometer::new(spec.accel, rng),
            gyro: Gyroscope::new(spec.gyro, rng),
            time: 0.0,
        }
    }

    /// The combined specification.
    pub fn spec(&self) -> &ImuSpec {
        &self.spec
    }

    /// Samples the IMU given the true body-frame specific force and angular
    /// rate, advancing internal time by `dt`.
    pub fn sample(
        &mut self,
        true_specific_force: Vec3,
        true_rate: Vec3,
        dt: f64,
        rng: &mut Pcg,
    ) -> ImuSample {
        self.time += dt;
        ImuSample {
            accel: self.accel.sample(true_specific_force, dt, rng),
            gyro: self.gyro.sample(true_rate, dt, rng),
            time: self.time,
        }
    }
}

/// A bank of redundant IMU instances (PX4-class autopilots carry three).
///
/// The merged output is the sample of the currently selected primary
/// instance. The failsafe logic in `imufit-controller` may switch the primary
/// when the health monitor isolates a sensor; per the paper's assumption,
/// injected faults corrupt the *merged* output, so switching cannot mask an
/// injected fault — but it does help with natural per-instance bias outliers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RedundantImu {
    instances: Vec<Imu>,
    primary: usize,
}

impl RedundantImu {
    /// Creates `count` instances with independent turn-on biases.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn new(spec: ImuSpec, count: usize, rng: &mut Pcg) -> Self {
        assert!(count > 0, "need at least one IMU instance");
        RedundantImu {
            instances: (0..count).map(|_| Imu::new(spec, rng)).collect(),
            primary: 0,
        }
    }

    /// Number of instances.
    pub fn count(&self) -> usize {
        self.instances.len()
    }

    /// Index of the currently selected primary instance.
    pub fn primary(&self) -> usize {
        self.primary
    }

    /// Selects a different primary instance. Returns `true` if the index was
    /// valid and the switch happened.
    pub fn switch_primary(&mut self, index: usize) -> bool {
        if index < self.instances.len() {
            self.primary = index;
            true
        } else {
            false
        }
    }

    /// Advances to the next instance (wrapping). Returns the new primary
    /// index. This is what the failsafe isolation step calls.
    pub fn rotate_primary(&mut self) -> usize {
        self.primary = (self.primary + 1) % self.instances.len();
        self.primary
    }

    /// Samples every instance and returns all samples; element
    /// [`RedundantImu::primary`] is the one the flight stack consumes.
    pub fn sample_all(
        &mut self,
        true_specific_force: Vec3,
        true_rate: Vec3,
        dt: f64,
        rng: &mut Pcg,
    ) -> Vec<ImuSample> {
        self.instances
            .iter_mut()
            .map(|imu| imu.sample(true_specific_force, true_rate, dt, rng))
            .collect()
    }

    /// Convenience: samples all instances and returns only the primary's
    /// sample.
    pub fn sample_primary(
        &mut self,
        true_specific_force: Vec3,
        true_rate: Vec3,
        dt: f64,
        rng: &mut Pcg,
    ) -> ImuSample {
        self.sample_all(true_specific_force, true_rate, dt, rng)[self.primary]
    }

    /// The shared specification.
    pub fn spec(&self) -> &ImuSpec {
        self.instances[0].spec()
    }
}

/// Per-axis median across instance samples: the consensus reading a voting
/// monitor compares each instance against.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn consensus(samples: &[ImuSample]) -> ImuSample {
    assert!(!samples.is_empty(), "consensus of zero samples");
    let median_axis = |extract: &dyn Fn(&ImuSample) -> f64| -> f64 {
        let mut v: Vec<f64> = samples.iter().map(extract).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        v[v.len() / 2]
    };
    ImuSample {
        accel: Vec3::new(
            median_axis(&|s| s.accel.x),
            median_axis(&|s| s.accel.y),
            median_axis(&|s| s.accel.z),
        ),
        gyro: Vec3::new(
            median_axis(&|s| s.gyro.x),
            median_axis(&|s| s.gyro.y),
            median_axis(&|s| s.gyro.z),
        ),
        time: samples[0].time,
    }
}

/// How far instance `index` deviates from the consensus:
/// `(gyro deviation rad/s, accel deviation m/s^2)`.
pub fn consensus_deviation(samples: &[ImuSample], index: usize) -> (f64, f64) {
    let c = consensus(samples);
    let s = &samples[index];
    ((s.gyro - c.gyro).norm(), (s.accel - c.accel).norm())
}

/// The instance closest to the consensus (the healthiest candidate for a
/// primary switchover).
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn healthiest_instance(samples: &[ImuSample]) -> usize {
    assert!(!samples.is_empty(), "no samples to vote on");
    let c = consensus(samples);
    let score = |s: &ImuSample| (s.gyro - c.gyro).norm() + 0.1 * (s.accel - c.accel).norm();
    samples
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| score(a).partial_cmp(&score(b)).expect("finite scores"))
        .map(|(i, _)| i)
        .expect("non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use imufit_math::GRAVITY;

    #[test]
    fn imu_sample_carries_time() {
        let mut rng = Pcg::seed_from(1);
        let mut imu = Imu::new(ImuSpec::default(), &mut rng);
        let mut noise = Pcg::seed_from(2);
        let s1 = imu.sample(Vec3::ZERO, Vec3::ZERO, 0.004, &mut noise);
        let s2 = imu.sample(Vec3::ZERO, Vec3::ZERO, 0.004, &mut noise);
        assert!((s1.time - 0.004).abs() < 1e-12);
        assert!((s2.time - 0.008).abs() < 1e-12);
    }

    #[test]
    fn stationary_level_reading() {
        let mut rng = Pcg::seed_from(3);
        let mut imu = Imu::new(ImuSpec::default(), &mut rng);
        let mut noise = Pcg::seed_from(4);
        let truth_f = Vec3::new(0.0, 0.0, -GRAVITY);
        let n = 500;
        let mut mean = Vec3::ZERO;
        for _ in 0..n {
            mean += imu.sample(truth_f, Vec3::ZERO, 0.004, &mut noise).accel;
        }
        mean /= n as f64;
        assert!((mean - truth_f).norm() < 0.5);
    }

    #[test]
    fn redundant_bank_has_independent_instances() {
        let mut rng = Pcg::seed_from(5);
        let mut bank = RedundantImu::new(ImuSpec::default(), 3, &mut rng);
        assert_eq!(bank.count(), 3);
        let mut noise = Pcg::seed_from(6);
        let samples = bank.sample_all(Vec3::ZERO, Vec3::ZERO, 0.004, &mut noise);
        assert_eq!(samples.len(), 3);
        // Distinct turn-on biases + noise: samples differ.
        assert_ne!(samples[0].accel, samples[1].accel);
        assert_ne!(samples[1].accel, samples[2].accel);
    }

    #[test]
    fn primary_switching() {
        let mut rng = Pcg::seed_from(7);
        let mut bank = RedundantImu::new(ImuSpec::default(), 3, &mut rng);
        assert_eq!(bank.primary(), 0);
        assert_eq!(bank.rotate_primary(), 1);
        assert_eq!(bank.rotate_primary(), 2);
        assert_eq!(bank.rotate_primary(), 0);
        assert!(bank.switch_primary(2));
        assert_eq!(bank.primary(), 2);
        assert!(!bank.switch_primary(7));
        assert_eq!(bank.primary(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one IMU")]
    fn zero_instances_panics() {
        let mut rng = Pcg::seed_from(8);
        let _ = RedundantImu::new(ImuSpec::default(), 0, &mut rng);
    }

    #[test]
    fn consensus_is_median_per_axis() {
        let mk = |gx: f64, az: f64| ImuSample {
            accel: Vec3::new(0.0, 0.0, az),
            gyro: Vec3::new(gx, 0.0, 0.0),
            time: 1.0,
        };
        let samples = [mk(0.1, -9.8), mk(100.0, 50.0), mk(0.2, -9.7)];
        let c = consensus(&samples);
        assert_eq!(c.gyro.x, 0.2);
        assert_eq!(c.accel.z, -9.7);
        assert_eq!(c.time, 1.0);
    }

    #[test]
    fn deviation_flags_the_outlier() {
        let mk = |gx: f64| ImuSample {
            accel: Vec3::new(0.0, 0.0, -9.8),
            gyro: Vec3::new(gx, 0.0, 0.0),
            time: 0.0,
        };
        let samples = [mk(0.1), mk(35.0), mk(0.12)];
        let (g0, _) = consensus_deviation(&samples, 0);
        let (g1, _) = consensus_deviation(&samples, 1);
        assert!(g0 < 0.1);
        assert!(g1 > 30.0);
        assert_ne!(healthiest_instance(&samples), 1);
    }

    #[test]
    fn healthiest_with_accel_outlier() {
        let mk = |az: f64| ImuSample {
            accel: Vec3::new(0.0, 0.0, az),
            gyro: Vec3::ZERO,
            time: 0.0,
        };
        let samples = [mk(150.0), mk(-9.8), mk(-9.75)];
        assert_ne!(healthiest_instance(&samples), 0);
    }

    #[test]
    #[should_panic(expected = "consensus of zero samples")]
    fn consensus_empty_panics() {
        let _ = consensus(&[]);
    }

    #[test]
    fn sample_primary_matches_selected_instance() {
        let mut rng = Pcg::seed_from(9);
        let mut bank_a = RedundantImu::new(ImuSpec::default(), 3, &mut rng);
        let mut rng2 = Pcg::seed_from(9);
        let mut bank_b = RedundantImu::new(ImuSpec::default(), 3, &mut rng2);
        bank_b.switch_primary(1);
        let mut na = Pcg::seed_from(10);
        let mut nb = Pcg::seed_from(10);
        let all = bank_a.sample_all(Vec3::ZERO, Vec3::ZERO, 0.004, &mut na);
        let primary = bank_b.sample_primary(Vec3::ZERO, Vec3::ZERO, 0.004, &mut nb);
        assert_eq!(primary, all[1]);
    }
}
