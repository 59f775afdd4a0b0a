//! Environmental models: wind and atmosphere.

use imufit_math::rng::Pcg;
use imufit_math::Vec3;

/// Sea-level standard air density, kg/m^3.
pub const AIR_DENSITY_SEA_LEVEL: f64 = 1.225;
/// Sea-level standard pressure, Pascal.
pub const PRESSURE_SEA_LEVEL: f64 = 101_325.0;
/// Standard temperature lapse model scale height used for the barometric
/// formula, meters.
pub const SCALE_HEIGHT: f64 = 8_434.0;

/// Converts altitude above sea level (meters) to static pressure (Pascal)
/// with the isothermal barometric formula — adequate for the <60 ft
/// altitudes in the study.
pub fn pressure_at_altitude(alt_m: f64) -> f64 {
    PRESSURE_SEA_LEVEL * (-alt_m / SCALE_HEIGHT).exp()
}

/// A stochastic wind model: constant mean wind plus an Ornstein–Uhlenbeck
/// gust process per axis.
#[derive(Debug, Clone)]
pub struct WindModel {
    /// Mean wind vector in the world NED frame, m/s.
    pub mean: Vec3,
    /// Standard deviation of the gust process, m/s.
    pub gust_std: f64,
    /// Gust correlation time, seconds.
    pub gust_tau: f64,
    gust: Vec3,
}

impl WindModel {
    /// Calm air: no mean wind, no gusts.
    pub fn calm() -> Self {
        WindModel {
            mean: Vec3::ZERO,
            gust_std: 0.0,
            gust_tau: 1.0,
            gust: Vec3::ZERO,
        }
    }

    /// A light urban breeze (the study's default environment keeps `R = 1`,
    /// i.e. benign conditions).
    #[cfg(test)]
    pub fn light_breeze(mean: Vec3) -> Self {
        WindModel {
            mean,
            gust_std: 0.4,
            gust_tau: 3.0,
            gust: Vec3::ZERO,
        }
    }

    /// Advances the gust process and returns the current wind vector.
    pub fn step(&mut self, dt: f64, rng: &mut Pcg) -> Vec3 {
        if self.gust_std > 0.0 {
            // Exact OU discretization.
            let decay = (-dt / self.gust_tau).exp();
            let diffusion = self.gust_std * (1.0 - decay * decay).sqrt();
            self.gust = Vec3::new(
                self.gust.x * decay + diffusion * rng.normal(),
                self.gust.y * decay + diffusion * rng.normal(),
                (self.gust.z * decay + diffusion * rng.normal()) * 0.3, // weaker vertical gusts
            );
        }
        self.mean + self.gust
    }

    /// The current wind vector without advancing the process.
    pub fn current(&self) -> Vec3 {
        self.mean + self.gust
    }
}

/// The complete environment: wind plus atmosphere constants.
#[derive(Debug, Clone)]
pub struct Environment {
    /// Wind model.
    pub wind: WindModel,
    /// Air density, kg/m^3.
    pub air_density: f64,
    /// Geodetic altitude of the local-frame origin above sea level, meters.
    /// Used by the barometer model.
    pub origin_altitude_msl: f64,
}

impl Default for Environment {
    fn default() -> Self {
        Environment {
            wind: WindModel::calm(),
            air_density: AIR_DENSITY_SEA_LEVEL,
            origin_altitude_msl: 16.0, // Valencia city average
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pressure_decreases_with_altitude() {
        assert!(pressure_at_altitude(100.0) < pressure_at_altitude(0.0));
        assert!((pressure_at_altitude(0.0) - PRESSURE_SEA_LEVEL).abs() < 1e-9);
    }

    #[test]
    fn calm_wind_is_zero() {
        let mut w = WindModel::calm();
        let mut rng = Pcg::seed_from(1);
        for _ in 0..100 {
            assert_eq!(w.step(0.004, &mut rng), Vec3::ZERO);
        }
    }

    #[test]
    fn gusts_stay_bounded_and_vary() {
        let mut w = WindModel::light_breeze(Vec3::new(2.0, 0.0, 0.0));
        let mut rng = Pcg::seed_from(2);
        let mut max_dev: f64 = 0.0;
        let mut any_change = false;
        let mut prev = w.step(0.01, &mut rng);
        for _ in 0..10_000 {
            let cur = w.step(0.01, &mut rng);
            if (cur - prev).norm() > 1e-9 {
                any_change = true;
            }
            max_dev = max_dev.max((cur - w.mean).norm());
            prev = cur;
        }
        assert!(any_change, "gusts should fluctuate");
        // OU with sigma 0.4 stays within ~6 sigma over 10k steps.
        assert!(max_dev < 6.0 * 0.4 * 2.0, "max deviation {max_dev}");
    }

    #[test]
    fn gust_process_is_deterministic_per_seed() {
        let mut w1 = WindModel::light_breeze(Vec3::ZERO);
        let mut w2 = WindModel::light_breeze(Vec3::ZERO);
        let mut r1 = Pcg::seed_from(42);
        let mut r2 = Pcg::seed_from(42);
        for _ in 0..100 {
            assert_eq!(w1.step(0.004, &mut r1), w2.step(0.004, &mut r2));
        }
    }

    #[test]
    fn environment_defaults() {
        let env = Environment::default();
        assert_eq!(env.air_density, AIR_DENSITY_SEA_LEVEL);
        assert_eq!(env.wind.current(), Vec3::ZERO);
    }
}
