//! GNSS receiver model.

use imufit_math::rng::Pcg;
use imufit_math::Vec3;

/// A GNSS fix in the local NED frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpsSample {
    /// Position in the local NED frame, meters.
    pub position: Vec3,
    /// Velocity in the local NED frame, m/s.
    pub velocity: Vec3,
    /// 1-sigma horizontal position accuracy reported by the receiver,
    /// meters.
    pub horizontal_accuracy: f64,
    /// 1-sigma vertical position accuracy, meters.
    pub vertical_accuracy: f64,
}

/// GNSS receiver specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpsSpec {
    /// Horizontal position noise standard deviation, meters.
    pub horizontal_noise_std: f64,
    /// Vertical position noise standard deviation, meters.
    pub vertical_noise_std: f64,
    /// Velocity noise standard deviation, m/s.
    pub velocity_noise_std: f64,
    /// Correlation time of the slowly-varying position error, seconds.
    pub error_tau: f64,
}

impl Default for GpsSpec {
    /// An RTK-free consumer GNSS: ~1.2 m horizontal, ~1.8 m vertical.
    fn default() -> Self {
        GpsSpec {
            horizontal_noise_std: 1.2,
            vertical_noise_std: 1.8,
            velocity_noise_std: 0.12,
            error_tau: 30.0,
        }
    }
}

impl GpsSpec {
    /// Checks the invariants the receiver model relies on, in the style of
    /// `SimConfig::validate`'s rate checks.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation:
    /// non-finite or negative noise stds, or a non-positive `error_tau`
    /// (the OU decay would blow up).
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("horizontal_noise_std", self.horizontal_noise_std),
            ("vertical_noise_std", self.vertical_noise_std),
            ("velocity_noise_std", self.velocity_noise_std),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!(
                    "GpsSpec.{name} must be finite and non-negative, got {v}"
                ));
            }
        }
        if !(self.error_tau.is_finite() && self.error_tau > 0.0) {
            return Err(format!(
                "GpsSpec.error_tau must be positive and finite, got {}",
                self.error_tau
            ));
        }
        Ok(())
    }
}

/// A simulated GNSS receiver with correlated (random-walk-like) position
/// error plus white noise.
#[derive(Debug, Clone, PartialEq)]
pub struct Gps {
    spec: GpsSpec,
    correlated_error: Vec3,
}

impl Gps {
    /// Creates a receiver with zero initial correlated error.
    pub fn new(spec: GpsSpec) -> Self {
        Gps {
            spec,
            correlated_error: Vec3::ZERO,
        }
    }

    /// [`Gps::new`] behind [`GpsSpec::validate`]: rejects specs the model
    /// cannot run on instead of producing NaN fixes later.
    ///
    /// # Errors
    ///
    /// Returns the validation message for an unusable spec.
    pub fn try_new(spec: GpsSpec) -> Result<Self, String> {
        spec.validate()?;
        Ok(Self::new(spec))
    }

    /// Produces a fix for the true state, advancing the correlated error by
    /// `dt` (the GPS sampling interval, typically 0.2 s at 5 Hz).
    pub fn sample(
        &mut self,
        true_position: Vec3,
        true_velocity: Vec3,
        dt: f64,
        rng: &mut Pcg,
    ) -> GpsSample {
        // OU process for the correlated error; stationary std is ~40% of the
        // white-noise std so total error matches the spec roughly.
        let decay = (-dt / self.spec.error_tau).exp();
        let h_diff = 0.4 * self.spec.horizontal_noise_std * (1.0 - decay * decay).sqrt();
        let v_diff = 0.4 * self.spec.vertical_noise_std * (1.0 - decay * decay).sqrt();
        self.correlated_error = Vec3::new(
            self.correlated_error.x * decay + rng.normal_with(0.0, h_diff),
            self.correlated_error.y * decay + rng.normal_with(0.0, h_diff),
            self.correlated_error.z * decay + rng.normal_with(0.0, v_diff),
        );
        let white = Vec3::new(
            rng.normal_with(0.0, 0.6 * self.spec.horizontal_noise_std),
            rng.normal_with(0.0, 0.6 * self.spec.horizontal_noise_std),
            rng.normal_with(0.0, 0.6 * self.spec.vertical_noise_std),
        );
        let vel_noise = Vec3::new(
            rng.normal_with(0.0, self.spec.velocity_noise_std),
            rng.normal_with(0.0, self.spec.velocity_noise_std),
            rng.normal_with(0.0, self.spec.velocity_noise_std),
        );
        GpsSample {
            position: true_position + self.correlated_error + white,
            velocity: true_velocity + vel_noise,
            horizontal_accuracy: self.spec.horizontal_noise_std,
            vertical_accuracy: self.spec.vertical_noise_std,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validation_rejects_nonsense() {
        assert!(GpsSpec::default().validate().is_ok());
        let bad = GpsSpec {
            horizontal_noise_std: -1.0,
            ..Default::default()
        };
        assert!(bad.validate().unwrap_err().contains("horizontal_noise_std"));
        let bad = GpsSpec {
            velocity_noise_std: f64::NAN,
            ..Default::default()
        };
        assert!(Gps::try_new(bad).is_err());
        let bad = GpsSpec {
            error_tau: 0.0,
            ..Default::default()
        };
        assert!(bad.validate().unwrap_err().contains("error_tau"));
        assert!(Gps::try_new(GpsSpec::default()).is_ok());
    }

    #[test]
    fn fix_is_near_truth() {
        let mut gps = Gps::new(GpsSpec::default());
        let mut rng = Pcg::seed_from(9);
        let truth_p = Vec3::new(100.0, -50.0, -18.0);
        let truth_v = Vec3::new(3.0, 1.0, 0.0);
        let n = 500;
        let mut sum_p = Vec3::ZERO;
        let mut sum_v = Vec3::ZERO;
        for _ in 0..n {
            let s = gps.sample(truth_p, truth_v, 0.2, &mut rng);
            sum_p += s.position;
            sum_v += s.velocity;
        }
        let mean_p = sum_p / n as f64;
        let mean_v = sum_v / n as f64;
        assert!(
            (mean_p - truth_p).norm() < 1.0,
            "pos bias {}",
            (mean_p - truth_p).norm()
        );
        assert!((mean_v - truth_v).norm() < 0.05);
    }

    #[test]
    fn error_is_bounded() {
        let mut gps = Gps::new(GpsSpec::default());
        let mut rng = Pcg::seed_from(10);
        for _ in 0..5000 {
            let s = gps.sample(Vec3::ZERO, Vec3::ZERO, 0.2, &mut rng);
            assert!(s.position.norm() < 15.0, "outlier {}", s.position);
        }
    }

    #[test]
    fn consecutive_fixes_are_correlated() {
        let mut gps = Gps::new(GpsSpec::default());
        let mut rng = Pcg::seed_from(11);
        // Warm up the correlated error.
        for _ in 0..200 {
            let _ = gps.sample(Vec3::ZERO, Vec3::ZERO, 0.2, &mut rng);
        }
        // Average over pairs: the lag-1 covariance of the error should be
        // clearly positive thanks to the OU component.
        let mut prev = gps.sample(Vec3::ZERO, Vec3::ZERO, 0.2, &mut rng).position.x;
        let mut cov = 0.0;
        let n = 5000;
        for _ in 0..n {
            let cur = gps.sample(Vec3::ZERO, Vec3::ZERO, 0.2, &mut rng).position.x;
            cov += prev * cur;
            prev = cur;
        }
        cov /= n as f64;
        assert!(cov > 0.01, "lag-1 covariance {cov}");
    }

    #[test]
    fn reported_accuracy_matches_spec() {
        let mut gps = Gps::new(GpsSpec::default());
        let mut rng = Pcg::seed_from(12);
        let s = gps.sample(Vec3::ZERO, Vec3::ZERO, 0.2, &mut rng);
        assert_eq!(
            s.horizontal_accuracy,
            GpsSpec::default().horizontal_noise_std
        );
        assert_eq!(s.vertical_accuracy, GpsSpec::default().vertical_noise_std);
    }
}
