//! Small digital filters used by the sensor models and the controller.

use crate::vec3::Vec3;

/// First-order low-pass filter (exponential smoothing) parameterized by its
/// cutoff frequency.
///
/// # Example
///
/// ```
/// use imufit_math::filter::LowPass;
///
/// let mut lp = LowPass::new(5.0); // 5 Hz cutoff
/// let mut y = 0.0;
/// for _ in 0..1000 {
///     y = lp.update(1.0, 0.004); // 250 Hz input
/// }
/// assert!((y - 1.0).abs() < 1e-3); // converges to the DC value
/// ```
#[derive(Debug, Clone, Copy)]
pub struct LowPass {
    cutoff_hz: f64,
    state: Option<f64>,
    /// The last `dt` seen and its smoothing factor: `alpha` is a pure
    /// function of the cutoff and `dt`, and a fixed-rate caller passes the
    /// same `dt` every call, so the two divisions run once. Not filter
    /// state, so equality ignores it.
    alpha_dt: f64,
    alpha: f64,
}

impl PartialEq for LowPass {
    fn eq(&self, other: &Self) -> bool {
        self.cutoff_hz == other.cutoff_hz && self.state == other.state
    }
}

impl LowPass {
    /// Creates a filter with the given cutoff frequency in Hz.
    ///
    /// # Panics
    ///
    /// Panics if `cutoff_hz` is not positive and finite.
    pub fn new(cutoff_hz: f64) -> Self {
        assert!(
            cutoff_hz > 0.0 && cutoff_hz.is_finite(),
            "cutoff must be positive, got {cutoff_hz}"
        );
        LowPass {
            cutoff_hz,
            state: None,
            alpha_dt: 0.0,
            alpha: Self::alpha(cutoff_hz, 0.0),
        }
    }

    /// Feeds a sample taken `dt` seconds after the previous one and returns
    /// the filtered value. The first sample initializes the filter.
    pub fn update(&mut self, x: f64, dt: f64) -> f64 {
        // Bitwise, so `-0.0` and NaN payloads get their own factor too.
        if dt.to_bits() != self.alpha_dt.to_bits() {
            self.alpha_dt = dt;
            self.alpha = Self::alpha(self.cutoff_hz, dt);
        }
        let y = match self.state {
            None => x,
            Some(prev) => prev + self.alpha * (x - prev),
        };
        self.state = Some(y);
        y
    }

    /// The current filter output, or `None` before the first sample.
    pub fn value(&self) -> Option<f64> {
        self.state
    }

    /// Resets the filter to the uninitialized state.
    pub fn reset(&mut self) {
        self.state = None;
    }

    fn alpha(cutoff_hz: f64, dt: f64) -> f64 {
        let rc = 1.0 / (std::f64::consts::TAU * cutoff_hz);
        (dt / (rc + dt)).clamp(0.0, 1.0)
    }
}

/// Three-axis first-order low-pass filter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LowPass3 {
    x: LowPass,
    y: LowPass,
    z: LowPass,
}

impl LowPass3 {
    /// Creates a filter with the given cutoff frequency in Hz applied to all
    /// three axes.
    ///
    /// # Panics
    ///
    /// Panics if `cutoff_hz` is not positive and finite.
    pub fn new(cutoff_hz: f64) -> Self {
        LowPass3 {
            x: LowPass::new(cutoff_hz),
            y: LowPass::new(cutoff_hz),
            z: LowPass::new(cutoff_hz),
        }
    }

    /// Feeds a vector sample and returns the filtered vector.
    pub fn update(&mut self, v: Vec3, dt: f64) -> Vec3 {
        Vec3::new(
            self.x.update(v.x, dt),
            self.y.update(v.y, dt),
            self.z.update(v.z, dt),
        )
    }

    /// Resets all three axes.
    pub fn reset(&mut self) {
        self.x.reset();
        self.y.reset();
        self.z.reset();
    }
}

/// Filtered numeric differentiator: low-passes the finite difference of its
/// input. Used for PID derivative terms so that saturated sensor faults do
/// not produce unbounded derivative kicks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Derivative {
    lp: LowPass,
    prev: Option<f64>,
}

impl Derivative {
    /// Creates a differentiator whose output is low-passed at `cutoff_hz`.
    ///
    /// # Panics
    ///
    /// Panics if `cutoff_hz` is not positive and finite.
    pub fn new(cutoff_hz: f64) -> Self {
        Derivative {
            lp: LowPass::new(cutoff_hz),
            prev: None,
        }
    }

    /// Feeds a sample and returns the filtered derivative (0.0 for the first
    /// sample).
    pub fn update(&mut self, x: f64, dt: f64) -> f64 {
        let raw = match self.prev {
            Some(prev) if dt > 0.0 => (x - prev) / dt,
            _ => 0.0,
        };
        self.prev = Some(x);
        self.lp.update(raw, dt)
    }

    /// Resets the differentiator.
    pub fn reset(&mut self) {
        self.lp.reset();
        self.prev = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowpass_converges_to_dc() {
        let mut lp = LowPass::new(10.0);
        let mut y = 0.0;
        for _ in 0..2000 {
            y = lp.update(5.0, 0.004);
        }
        assert!((y - 5.0).abs() < 1e-6);
    }

    #[test]
    fn lowpass_first_sample_initializes() {
        let mut lp = LowPass::new(1.0);
        assert_eq!(lp.value(), None);
        assert_eq!(lp.update(3.0, 0.01), 3.0);
        assert_eq!(lp.value(), Some(3.0));
    }

    #[test]
    fn lowpass_attenuates_fast_changes() {
        let mut lp = LowPass::new(1.0); // 1 Hz cutoff
        lp.update(0.0, 0.004);
        // A single-sample spike at 250 Hz should be strongly attenuated.
        let y = lp.update(100.0, 0.004);
        assert!(y < 5.0, "spike leaked through: {y}");
    }

    #[test]
    fn lowpass_reset() {
        let mut lp = LowPass::new(2.0);
        lp.update(10.0, 0.01);
        lp.reset();
        assert_eq!(lp.value(), None);
        assert_eq!(lp.update(1.0, 0.01), 1.0);
    }

    #[test]
    fn lowpass_cached_factor_matches_the_recomputed_one() {
        // Bit for bit against the uncached recurrence, over a `dt` that
        // repeats, changes, flips the sign of zero, and comes back.
        let cutoff = 8.0;
        let mut lp = LowPass::new(cutoff);
        let mut prev: Option<f64> = None;
        let dts = [
            0.004, 0.004, 0.01, 0.004, 0.0, -0.0, 0.0, 1e-9, 0.004, 0.004,
        ];
        for (k, dt) in dts.into_iter().enumerate() {
            let x = (k as f64).sin() * 3.0;
            let alpha = LowPass::alpha(cutoff, dt);
            let want = prev.map_or(x, |p| p + alpha * (x - p));
            assert_eq!(lp.update(x, dt).to_bits(), want.to_bits(), "step {k}");
            prev = Some(want);
        }
        assert_eq!(lp, {
            let mut fresh = LowPass::new(cutoff);
            fresh.update(prev.unwrap(), 0.5);
            fresh
        });
    }

    #[test]
    #[should_panic(expected = "cutoff must be positive")]
    fn lowpass_rejects_zero_cutoff() {
        let _ = LowPass::new(0.0);
    }

    #[test]
    fn lowpass3_filters_each_axis() {
        let mut lp = LowPass3::new(10.0);
        let mut v = Vec3::ZERO;
        for _ in 0..2000 {
            v = lp.update(Vec3::new(1.0, -2.0, 3.0), 0.004);
        }
        assert!((v - Vec3::new(1.0, -2.0, 3.0)).norm() < 1e-5);
    }

    #[test]
    fn derivative_of_ramp() {
        let mut d = Derivative::new(30.0);
        let dt = 0.004;
        let mut y = 0.0;
        for i in 0..1000 {
            let x = 2.0 * i as f64 * dt; // slope 2
            y = d.update(x, dt);
        }
        assert!((y - 2.0).abs() < 1e-3, "slope estimate {y}");
    }

    #[test]
    fn derivative_first_sample_is_zero() {
        let mut d = Derivative::new(10.0);
        assert_eq!(d.update(42.0, 0.01), 0.0);
    }

    #[test]
    fn derivative_reset() {
        let mut d = Derivative::new(10.0);
        d.update(1.0, 0.01);
        d.update(2.0, 0.01);
        d.reset();
        assert_eq!(d.update(100.0, 0.01), 0.0);
    }
}
