//! Barometric altimeter model.

use imufit_math::rng::Pcg;

/// A barometer reading already converted to altitude.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaroSample {
    /// Pressure altitude above the local-frame origin, meters (positive up).
    pub altitude: f64,
    /// Raw static pressure, Pascal.
    pub pressure_pa: f64,
}

/// Barometer specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaroSpec {
    /// Altitude white-noise standard deviation, meters.
    pub noise_std: f64,
    /// Slow pressure-drift standard deviation per sqrt(s), meters.
    pub drift_walk: f64,
}

impl Default for BaroSpec {
    fn default() -> Self {
        BaroSpec {
            noise_std: 0.15,
            drift_walk: 0.002,
        }
    }
}

impl BaroSpec {
    /// Checks the invariants the barometer model relies on.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation
    /// (non-finite or negative noise/drift stds).
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("noise_std", self.noise_std),
            ("drift_walk", self.drift_walk),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!(
                    "BaroSpec.{name} must be finite and non-negative, got {v}"
                ));
            }
        }
        Ok(())
    }
}

/// A simulated barometer referenced to the local-frame origin altitude.
#[derive(Debug, Clone, PartialEq)]
pub struct Barometer {
    spec: BaroSpec,
    /// Mean sea-level altitude of the local origin, meters.
    origin_msl: f64,
    drift: f64,
}

impl Barometer {
    /// Creates a barometer for a local frame whose origin sits at
    /// `origin_msl` meters above sea level.
    pub fn new(spec: BaroSpec, origin_msl: f64) -> Self {
        Barometer {
            spec,
            origin_msl,
            drift: 0.0,
        }
    }

    /// [`Barometer::new`] behind [`BaroSpec::validate`].
    ///
    /// # Errors
    ///
    /// Returns the validation message for an unusable spec, or for a
    /// non-finite `origin_msl`.
    pub fn try_new(spec: BaroSpec, origin_msl: f64) -> Result<Self, String> {
        spec.validate()?;
        if !origin_msl.is_finite() {
            return Err(format!(
                "Barometer origin_msl must be finite, got {origin_msl}"
            ));
        }
        Ok(Self::new(spec, origin_msl))
    }

    /// Measures altitude above the origin for a vehicle at `altitude_agl`
    /// meters above the origin.
    pub fn sample(&mut self, altitude_agl: f64, dt: f64, rng: &mut Pcg) -> BaroSample {
        self.drift += rng.normal_with(0.0, self.spec.drift_walk * dt.sqrt());
        let measured_alt = altitude_agl + self.drift + rng.normal_with(0.0, self.spec.noise_std);
        BaroSample {
            altitude: measured_alt,
            pressure_pa: crate::baro_pressure(self.origin_msl + measured_alt),
        }
    }

    /// The accumulated drift (for tests).
    pub fn drift(&self) -> f64 {
        self.drift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validation_rejects_nonsense() {
        assert!(BaroSpec::default().validate().is_ok());
        let bad = BaroSpec {
            noise_std: f64::INFINITY,
            ..Default::default()
        };
        assert!(bad.validate().unwrap_err().contains("noise_std"));
        let bad = BaroSpec {
            drift_walk: -0.1,
            ..Default::default()
        };
        assert!(Barometer::try_new(bad, 0.0).is_err());
        assert!(Barometer::try_new(BaroSpec::default(), f64::NAN).is_err());
        assert!(Barometer::try_new(BaroSpec::default(), 16.0).is_ok());
    }

    #[test]
    fn unbiased_at_startup() {
        let mut b = Barometer::new(BaroSpec::default(), 16.0);
        let mut rng = Pcg::seed_from(5);
        let n = 2000;
        let mean: f64 = (0..n)
            .map(|_| b.sample(10.0, 0.04, &mut rng).altitude)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean altitude {mean}");
    }

    #[test]
    fn pressure_consistent_with_altitude() {
        let mut b = Barometer::new(
            BaroSpec {
                noise_std: 0.0,
                drift_walk: 0.0,
            },
            0.0,
        );
        let mut rng = Pcg::seed_from(6);
        let s = b.sample(100.0, 0.04, &mut rng);
        assert!(s.pressure_pa < crate::baro_pressure(0.0));
        assert!((s.altitude - 100.0).abs() < 1e-9);
    }

    #[test]
    fn drift_accumulates_slowly() {
        let mut b = Barometer::new(BaroSpec::default(), 0.0);
        let mut rng = Pcg::seed_from(7);
        for _ in 0..10_000 {
            let _ = b.sample(0.0, 0.04, &mut rng);
        }
        // 400 s of drift should stay under a meter.
        assert!(b.drift().abs() < 1.0, "drift {}", b.drift());
        assert!(b.drift().abs() > 0.0);
    }
}
