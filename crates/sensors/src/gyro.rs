//! MEMS gyroscope model.

use imufit_math::rng::Pcg;
use imufit_math::Vec3;

/// Gyroscope noise/bias/range specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GyroSpec {
    /// Full-scale range, rad/s (symmetric).
    pub range: f64,
    /// White-noise standard deviation per sample, rad/s.
    pub noise_std: f64,
    /// Bias random-walk intensity, (rad/s)/sqrt(s).
    pub bias_walk: f64,
    /// Standard deviation of the turn-on bias, rad/s.
    pub turn_on_bias_std: f64,
}

impl Default for GyroSpec {
    /// A ±2000 deg/s consumer MEMS gyroscope.
    fn default() -> Self {
        GyroSpec {
            range: 2000.0_f64.to_radians(),
            noise_std: 0.002,
            bias_walk: 2e-5,
            turn_on_bias_std: 0.005,
        }
    }
}

/// A simulated gyroscope instance with its own turn-on bias and bias random
/// walk.
#[derive(Debug, Clone, PartialEq)]
pub struct Gyroscope {
    spec: GyroSpec,
    bias: Vec3,
}

impl Gyroscope {
    /// Creates an instance, drawing its turn-on bias from `rng`.
    pub fn new(spec: GyroSpec, rng: &mut Pcg) -> Self {
        let b = spec.turn_on_bias_std;
        Gyroscope {
            spec,
            bias: Vec3::new(
                rng.normal_with(0.0, b),
                rng.normal_with(0.0, b),
                rng.normal_with(0.0, b),
            ),
        }
    }

    /// The sensor specification.
    pub fn spec(&self) -> &GyroSpec {
        &self.spec
    }

    /// The current bias vector.
    pub fn bias(&self) -> Vec3 {
        self.bias
    }

    /// Measures the body angular rate, advancing the bias walk by `dt`.
    pub fn sample(&mut self, true_rate: Vec3, dt: f64, rng: &mut Pcg) -> Vec3 {
        let walk = self.spec.bias_walk * dt.sqrt();
        self.bias += Vec3::new(
            rng.normal_with(0.0, walk),
            rng.normal_with(0.0, walk),
            rng.normal_with(0.0, walk),
        );
        let noisy = true_rate
            + self.bias
            + Vec3::new(
                rng.normal_with(0.0, self.spec.noise_std),
                rng.normal_with(0.0, self.spec.noise_std),
                rng.normal_with(0.0, self.spec.noise_std),
            );
        noisy.clamp(-self.spec.range, self.spec.range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make() -> (Gyroscope, Pcg) {
        let mut seed_rng = Pcg::seed_from(20);
        let gyro = Gyroscope::new(GyroSpec::default(), &mut seed_rng);
        (gyro, Pcg::seed_from(21))
    }

    #[test]
    fn stationary_measurement_is_small() {
        let (mut g, mut rng) = make();
        let n = 1000;
        let mean: Vec3 = (0..n)
            .map(|_| g.sample(Vec3::ZERO, 0.004, &mut rng))
            .sum::<Vec3>()
            / n as f64;
        assert!(mean.norm() < 0.05, "mean {}", mean.norm());
    }

    #[test]
    fn range_is_2000_dps() {
        let spec = GyroSpec::default();
        assert!((spec.range.to_degrees() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn saturates_at_range() {
        let (mut g, mut rng) = make();
        let s = g.sample(Vec3::splat(1e4), 0.004, &mut rng);
        assert!(s.max_abs() <= g.spec().range + 1e-12);
    }

    #[test]
    fn tracks_true_rate() {
        let (mut g, mut rng) = make();
        let truth = Vec3::new(1.0, -2.0, 0.5);
        let n = 1000;
        let mean: Vec3 = (0..n)
            .map(|_| g.sample(truth, 0.004, &mut rng))
            .sum::<Vec3>()
            / n as f64;
        assert!((mean - truth).norm() < 0.05);
    }

    #[test]
    fn distinct_turn_on_biases() {
        let mut rng = Pcg::seed_from(3);
        let a = Gyroscope::new(GyroSpec::default(), &mut rng);
        let b = Gyroscope::new(GyroSpec::default(), &mut rng);
        assert_ne!(a.bias(), b.bias());
    }

    #[test]
    fn gyro_bias_much_smaller_than_accel_bias() {
        // Sanity check on the spec defaults: gyro turn-on bias (rad/s) is
        // tighter than accel bias (m/s^2) in relative full-scale terms.
        let g = GyroSpec::default();
        let rel = g.turn_on_bias_std / g.range;
        assert!(rel < 0.001);
    }
}
