//! Three-axis magnetometer model.
//!
//! The paper's fault model excludes the magnetometer ("for this study, we do
//! not consider the magnetometer"), but PX4-class autopilots rely on one for
//! yaw, so the substrate models it faithfully: a local geomagnetic field
//! vector rotated into the body frame with hard-iron bias and noise, plus
//! the tilt-compensated yaw extraction the flight stack performs.

use imufit_math::rng::Pcg;
use imufit_math::{Quat, Vec3};

/// A magnetometer reading: the geomagnetic field in the body frame,
/// normalized units (Gauss-like).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MagSample {
    /// Body-frame field vector.
    pub field: Vec3,
}

/// Magnetometer specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MagSpec {
    /// Magnetic declination (true north minus magnetic north), radians.
    /// Valencia, Spain is about +0.7 degrees (2024).
    pub declination: f64,
    /// Magnetic inclination (dip angle, positive down), radians. Iberia is
    /// around +55 degrees.
    pub inclination: f64,
    /// Total field strength, Gauss.
    pub strength: f64,
    /// Per-axis white noise, Gauss.
    pub noise_std: f64,
    /// Standard deviation of the (calibration-residual) hard-iron bias,
    /// Gauss.
    pub hard_iron_std: f64,
}

impl Default for MagSpec {
    fn default() -> Self {
        MagSpec {
            declination: 0.7_f64.to_radians(),
            inclination: 55.0_f64.to_radians(),
            strength: 0.45,
            noise_std: 0.004,
            hard_iron_std: 0.01,
        }
    }
}

impl MagSpec {
    /// Checks the invariants the magnetometer model relies on.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation:
    /// non-finite or negative noise stds, a non-positive field strength
    /// (yaw extraction needs a field), or non-finite angles.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("noise_std", self.noise_std),
            ("hard_iron_std", self.hard_iron_std),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!(
                    "MagSpec.{name} must be finite and non-negative, got {v}"
                ));
            }
        }
        if !(self.strength.is_finite() && self.strength > 0.0) {
            return Err(format!(
                "MagSpec.strength must be positive and finite, got {}",
                self.strength
            ));
        }
        for (name, v) in [
            ("declination", self.declination),
            ("inclination", self.inclination),
        ] {
            if !v.is_finite() {
                return Err(format!("MagSpec.{name} must be finite, got {v}"));
            }
        }
        Ok(())
    }
}

/// A simulated magnetometer with a fixed hard-iron residual.
#[derive(Debug, Clone, PartialEq)]
pub struct Magnetometer {
    spec: MagSpec,
    /// The local field in the NED frame (derived from the spec).
    field_ned: Vec3,
    hard_iron: Vec3,
}

impl Magnetometer {
    /// Creates an instance, drawing its hard-iron residual from `rng`.
    pub fn new(spec: MagSpec, rng: &mut Pcg) -> Self {
        // Field in NED: horizontal component points to magnetic north
        // (declination east of true north), vertical follows inclination.
        let h = spec.strength * spec.inclination.cos();
        let field_ned = Vec3::new(
            h * spec.declination.cos(),
            h * spec.declination.sin(),
            spec.strength * spec.inclination.sin(),
        );
        let b = spec.hard_iron_std;
        Magnetometer {
            spec,
            field_ned,
            hard_iron: Vec3::new(
                rng.normal_with(0.0, b),
                rng.normal_with(0.0, b),
                rng.normal_with(0.0, b),
            ),
        }
    }

    /// [`Magnetometer::new`] behind [`MagSpec::validate`]. Draws from `rng`
    /// only on success, so a rejected spec leaves the stream untouched.
    ///
    /// # Errors
    ///
    /// Returns the validation message for an unusable spec.
    pub fn try_new(spec: MagSpec, rng: &mut Pcg) -> Result<Self, String> {
        spec.validate()?;
        Ok(Self::new(spec, rng))
    }

    /// The sensor specification.
    pub fn spec(&self) -> &MagSpec {
        &self.spec
    }

    /// The modeled NED field vector.
    pub fn field_ned(&self) -> Vec3 {
        self.field_ned
    }

    /// Measures the field for a vehicle with the given true attitude.
    pub fn sample(&self, attitude: Quat, rng: &mut Pcg) -> MagSample {
        let body = attitude.rotate_inverse(self.field_ned);
        MagSample {
            field: body
                + self.hard_iron
                + Vec3::new(
                    rng.normal_with(0.0, self.spec.noise_std),
                    rng.normal_with(0.0, self.spec.noise_std),
                    rng.normal_with(0.0, self.spec.noise_std),
                ),
        }
    }
}

/// Tilt-compensated yaw extraction: rotates the body-frame field by the
/// estimated roll and pitch, then takes the horizontal heading and corrects
/// for declination. This is what flight stacks feed their yaw fusion.
///
/// Returns the estimated true-north yaw in radians.
pub fn yaw_from_mag(sample: &MagSample, roll: f64, pitch: f64, declination: f64) -> f64 {
    // De-rotate roll and pitch (a zero-yaw body->world rotation), leaving
    // only the yaw rotation between the leveled frame and NED.
    let tilt = Quat::from_euler(roll, pitch, 0.0);
    let leveled = tilt.rotate(sample.field);
    // In the leveled frame: B_x = h cos(yaw - D), B_y = -h sin(yaw - D),
    // so yaw = atan2(-B_y, B_x) + D.
    imufit_math::wrap_pi((-leveled.y).atan2(leveled.x) + declination)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_mag() -> Magnetometer {
        let spec = MagSpec {
            noise_std: 0.0,
            hard_iron_std: 0.0,
            ..Default::default()
        };
        Magnetometer::new(spec, &mut Pcg::seed_from(1))
    }

    #[test]
    fn spec_validation_rejects_nonsense() {
        assert!(MagSpec::default().validate().is_ok());
        let bad = MagSpec {
            noise_std: -1.0,
            ..Default::default()
        };
        assert!(bad.validate().unwrap_err().contains("noise_std"));
        let bad = MagSpec {
            strength: 0.0,
            ..Default::default()
        };
        assert!(bad.validate().unwrap_err().contains("strength"));
        let bad = MagSpec {
            inclination: f64::NAN,
            ..Default::default()
        };
        let mut rng = Pcg::seed_from(9);
        let before = rng.clone();
        assert!(Magnetometer::try_new(bad, &mut rng).is_err());
        // A rejected spec must not consume from the stream.
        assert_eq!(rng, before);
        assert!(Magnetometer::try_new(MagSpec::default(), &mut rng).is_ok());
    }

    #[test]
    fn field_strength_matches_spec() {
        let mag = quiet_mag();
        assert!((mag.field_ned().norm() - 0.45).abs() < 1e-12);
        // Inclination: the down component is positive in the northern
        // hemisphere.
        assert!(mag.field_ned().z > 0.0);
    }

    #[test]
    fn level_yaw_extraction_round_trip() {
        let mag = quiet_mag();
        let mut rng = Pcg::seed_from(2);
        for yaw_true in [-3.0, -1.2, 0.0, 0.4, 1.7, 3.0_f64] {
            let attitude = Quat::from_yaw(yaw_true);
            let sample = mag.sample(attitude, &mut rng);
            let yaw = yaw_from_mag(&sample, 0.0, 0.0, mag.spec().declination);
            assert!(
                (imufit_math::wrap_pi(yaw - yaw_true)).abs() < 1e-9,
                "yaw {yaw_true} -> {yaw}"
            );
        }
    }

    #[test]
    fn tilted_yaw_extraction_with_compensation() {
        let mag = quiet_mag();
        let mut rng = Pcg::seed_from(3);
        let (roll, pitch, yaw_true) = (0.25, -0.15, 1.1);
        let attitude = Quat::from_euler(roll, pitch, yaw_true);
        let sample = mag.sample(attitude, &mut rng);
        let yaw = yaw_from_mag(&sample, roll, pitch, mag.spec().declination);
        assert!(
            (imufit_math::wrap_pi(yaw - yaw_true)).abs() < 1e-9,
            "tilt-compensated yaw {yaw} vs {yaw_true}"
        );
    }

    #[test]
    fn wrong_tilt_compensation_degrades_yaw() {
        // Using a wrong roll estimate (as happens during gyro faults) biases
        // the extracted yaw — the model captures this coupling.
        let mag = quiet_mag();
        let mut rng = Pcg::seed_from(4);
        let attitude = Quat::from_euler(0.4, 0.0, 0.9);
        let sample = mag.sample(attitude, &mut rng);
        let good = yaw_from_mag(&sample, 0.4, 0.0, mag.spec().declination);
        let bad = yaw_from_mag(&sample, -0.4, 0.0, mag.spec().declination);
        assert!((good - 0.9).abs() < 1e-9);
        assert!(
            (bad - 0.9).abs() > 0.05,
            "wrong tilt should bias yaw, got {bad}"
        );
    }

    #[test]
    fn noise_and_hard_iron_are_bounded() {
        let mag = Magnetometer::new(MagSpec::default(), &mut Pcg::seed_from(5));
        let mut rng = Pcg::seed_from(6);
        let attitude = Quat::from_yaw(0.3);
        let mut worst: f64 = 0.0;
        for _ in 0..2000 {
            let s = mag.sample(attitude, &mut rng);
            let yaw = yaw_from_mag(&s, 0.0, 0.0, mag.spec().declination);
            worst = worst.max((imufit_math::wrap_pi(yaw - 0.3)).abs());
        }
        // Hard iron + noise stay within ~10 degrees of heading error (the
        // horizontal field is only ~0.26 Gauss at Iberian inclination, so a
        // 2-3 sigma hard-iron residual costs several degrees).
        assert!(worst < 0.18, "worst yaw error {worst}");
    }
}
