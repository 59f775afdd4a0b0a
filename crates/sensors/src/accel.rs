//! MEMS accelerometer model.

use imufit_math::rng::Pcg;
use imufit_math::{Vec3, GRAVITY};

/// Accelerometer noise/bias/range specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelSpec {
    /// Full-scale range, m/s^2 (symmetric: measurements clamp to ±range).
    pub range: f64,
    /// White-noise standard deviation per sample, m/s^2.
    pub noise_std: f64,
    /// Bias random-walk intensity, (m/s^2)/sqrt(s).
    pub bias_walk: f64,
    /// Standard deviation of the turn-on bias, m/s^2.
    pub turn_on_bias_std: f64,
}

impl Default for AccelSpec {
    /// A ±16 g consumer MEMS accelerometer, comparable to the ICM-20689
    /// family used on Pixhawk-class autopilots.
    fn default() -> Self {
        AccelSpec {
            range: 16.0 * GRAVITY,
            noise_std: 0.05,
            bias_walk: 0.003,
            turn_on_bias_std: 0.08,
        }
    }
}

/// A simulated accelerometer instance with its own turn-on bias and bias
/// random walk.
#[derive(Debug, Clone, PartialEq)]
pub struct Accelerometer {
    spec: AccelSpec,
    bias: Vec3,
}

impl Accelerometer {
    /// Creates an instance, drawing its turn-on bias from `rng`.
    pub fn new(spec: AccelSpec, rng: &mut Pcg) -> Self {
        let b = spec.turn_on_bias_std;
        Accelerometer {
            spec,
            bias: Vec3::new(
                rng.normal_with(0.0, b),
                rng.normal_with(0.0, b),
                rng.normal_with(0.0, b),
            ),
        }
    }

    /// The sensor specification.
    pub fn spec(&self) -> &AccelSpec {
        &self.spec
    }

    /// The current bias vector (exposed for estimator-convergence tests).
    pub fn bias(&self) -> Vec3 {
        self.bias
    }

    /// Measures the body-frame specific force `true_specific_force`,
    /// advancing the bias random walk by `dt` seconds.
    pub fn sample(&mut self, true_specific_force: Vec3, dt: f64, rng: &mut Pcg) -> Vec3 {
        let walk = self.spec.bias_walk * dt.sqrt();
        self.bias += Vec3::new(
            rng.normal_with(0.0, walk),
            rng.normal_with(0.0, walk),
            rng.normal_with(0.0, walk),
        );
        let noisy = true_specific_force
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

    fn make() -> (Accelerometer, Pcg) {
        let mut seed_rng = Pcg::seed_from(10);
        let acc = Accelerometer::new(AccelSpec::default(), &mut seed_rng);
        (acc, Pcg::seed_from(11))
    }

    #[test]
    fn stationary_measurement_is_near_truth() {
        let (mut acc, mut rng) = make();
        let truth = Vec3::new(0.0, 0.0, -GRAVITY);
        let n = 1000;
        let mean: Vec3 = (0..n)
            .map(|_| acc.sample(truth, 0.004, &mut rng))
            .sum::<Vec3>()
            / n as f64;
        // Mean is truth + bias; bias is small.
        assert!(
            (mean - truth).norm() < 0.5,
            "mean error {}",
            (mean - truth).norm()
        );
    }

    #[test]
    fn saturates_at_range() {
        let (mut acc, mut rng) = make();
        let huge = Vec3::splat(1e6);
        let s = acc.sample(huge, 0.004, &mut rng);
        let range = acc.spec().range;
        assert!(s.x <= range && s.y <= range && s.z <= range);
        let s2 = acc.sample(-huge, 0.004, &mut rng);
        assert!(s2.x >= -range && s2.y >= -range && s2.z >= -range);
    }

    #[test]
    fn noise_has_expected_scale() {
        let (mut acc, mut rng) = make();
        let bias = acc.bias();
        let truth = Vec3::ZERO;
        let samples: Vec<f64> = (0..5000)
            .map(|_| (acc.sample(truth, 1e-6, &mut rng) - bias).x)
            .collect();
        let std = imufit_math::stats::std_dev(&samples);
        let expected = acc.spec().noise_std;
        assert!(
            (std - expected).abs() < 0.3 * expected,
            "std {std} vs expected {expected}"
        );
    }

    #[test]
    fn bias_random_walk_moves() {
        let (mut acc, mut rng) = make();
        let b0 = acc.bias();
        for _ in 0..100_000 {
            let _ = acc.sample(Vec3::ZERO, 0.004, &mut rng);
        }
        assert!((acc.bias() - b0).norm() > 1e-4, "bias should drift");
    }

    #[test]
    fn instances_get_distinct_turn_on_bias() {
        let mut rng = Pcg::seed_from(7);
        let a = Accelerometer::new(AccelSpec::default(), &mut rng);
        let b = Accelerometer::new(AccelSpec::default(), &mut rng);
        assert_ne!(a.bias(), b.bias());
    }

    #[test]
    fn deterministic_given_seeds() {
        let (mut a, mut ra) = make();
        let (mut b, mut rb) = make();
        for _ in 0..100 {
            assert_eq!(
                a.sample(Vec3::new(1.0, 2.0, 3.0), 0.004, &mut ra),
                b.sample(Vec3::new(1.0, 2.0, 3.0), 0.004, &mut rb)
            );
        }
    }
}
