//! The online detector implementations.

use std::collections::VecDeque;

use imufit_math::filter::LowPass;
use imufit_math::Vec3;
use imufit_sensors::ImuSample;

/// An online fault detector over an IMU stream. Detectors are fed every
/// sample in order; `observe` returns `true` while the detector considers
/// the stream faulty.
pub trait Detector {
    /// Processes one sample taken `dt` seconds after the previous one.
    fn observe(&mut self, sample: &ImuSample, dt: f64) -> bool;

    /// Resets all internal state.
    fn reset(&mut self);

    /// A short name for reports.
    fn name(&self) -> &'static str;
}

/// Plausibility-bound detector: smoothed magnitudes beyond what flight can
/// produce (the commander's own first line of defence).
#[derive(Debug, Clone)]
pub struct ThresholdDetector {
    gyro_limit: f64,
    accel_limit: f64,
    gyro_filter: LowPass,
    accel_filter: LowPass,
}

/// A non-positive (or non-finite) detector limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidLimit {
    /// Which limit was rejected.
    pub name: &'static str,
    /// The rejected value.
    pub value: f64,
}

impl std::fmt::Display for InvalidLimit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} limit must be positive and finite, got {}",
            self.name, self.value
        )
    }
}

impl std::error::Error for InvalidLimit {}

impl ThresholdDetector {
    /// Creates a detector with magnitude limits (rad/s, m/s^2).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidLimit`] when a limit is not positive and finite — a
    /// zero or negative bound would alarm on every sample, which is never
    /// what a configuration meant.
    pub fn new(gyro_limit: f64, accel_limit: f64) -> Result<Self, InvalidLimit> {
        for (name, value) in [("gyro", gyro_limit), ("accel", accel_limit)] {
            if !(value > 0.0 && value.is_finite()) {
                return Err(InvalidLimit { name, value });
            }
        }
        Ok(ThresholdDetector {
            gyro_limit,
            accel_limit,
            gyro_filter: LowPass::new(8.0),
            accel_filter: LowPass::new(8.0),
        })
    }

    /// PX4-flavored defaults: 60 deg/s beyond commanded (assumed hover) and
    /// 45 m/s^2.
    pub fn px4_defaults() -> Self {
        ThresholdDetector::new(60.0_f64.to_radians(), 45.0).expect("defaults are positive")
    }
}

impl Detector for ThresholdDetector {
    fn observe(&mut self, sample: &ImuSample, dt: f64) -> bool {
        if !sample.gyro.is_finite() || !sample.accel.is_finite() {
            return true;
        }
        let g = self.gyro_filter.update(sample.gyro.norm().min(1e9), dt);
        let a = self.accel_filter.update(sample.accel.norm().min(1e9), dt);
        g > self.gyro_limit || a > self.accel_limit
    }

    fn reset(&mut self) {
        self.gyro_filter.reset();
        self.accel_filter.reset();
    }

    fn name(&self) -> &'static str {
        "threshold"
    }
}

/// Stuck-stream detector: real MEMS output never repeats exactly; `window`
/// consecutive identical samples (or exact zeros) raise the alarm.
#[derive(Debug, Clone)]
pub struct StuckDetector {
    window: u32,
    last: Option<(Vec3, Vec3)>,
    run: u32,
}

impl StuckDetector {
    /// Creates a detector requiring `window` consecutive identical samples.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: u32) -> Self {
        assert!(window > 0, "window must be positive");
        StuckDetector {
            window,
            last: None,
            run: 0,
        }
    }
}

impl Detector for StuckDetector {
    fn observe(&mut self, sample: &ImuSample, _dt: f64) -> bool {
        let cur = (sample.accel, sample.gyro);
        match self.last {
            Some(prev) if prev == cur => self.run += 1,
            _ => self.run = 0,
        }
        self.last = Some(cur);
        self.run >= self.window
    }

    fn reset(&mut self) {
        self.last = None;
        self.run = 0;
    }

    fn name(&self) -> &'static str {
        "stuck"
    }
}

/// Windowed-variance detector: alarms when short-term variance explodes
/// (injected noise/random) or collapses to zero (dead channel) relative to
/// calibration bounds.
#[derive(Debug, Clone)]
pub struct VarianceDetector {
    window: usize,
    /// Variance above this (gyro, rad^2/s^2) alarms.
    gyro_var_max: f64,
    /// Variance above this (accel, m^2/s^4) alarms.
    accel_var_max: f64,
    gyro_buf: VecDeque<f64>,
    accel_buf: VecDeque<f64>,
}

impl VarianceDetector {
    /// Creates a detector with a sample window and variance ceilings.
    ///
    /// # Panics
    ///
    /// Panics if `window < 4`.
    pub fn new(window: usize, gyro_var_max: f64, accel_var_max: f64) -> Self {
        assert!(window >= 4, "variance needs at least 4 samples");
        VarianceDetector {
            window,
            gyro_var_max,
            accel_var_max,
            gyro_buf: VecDeque::with_capacity(window),
            accel_buf: VecDeque::with_capacity(window),
        }
    }

    /// Defaults calibrated to the sensor models of `imufit-sensors` at
    /// 250 Hz: an order of magnitude above clean-flight variance.
    pub fn calibrated() -> Self {
        VarianceDetector::new(64, 0.5, 60.0)
    }

    fn push(buf: &mut VecDeque<f64>, window: usize, v: f64) {
        if buf.len() == window {
            buf.pop_front();
        }
        buf.push_back(v);
    }

    fn variance(buf: &VecDeque<f64>) -> f64 {
        let n = buf.len() as f64;
        if n < 2.0 {
            return 0.0;
        }
        let mean = buf.iter().sum::<f64>() / n;
        buf.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n
    }
}

impl Detector for VarianceDetector {
    fn observe(&mut self, sample: &ImuSample, _dt: f64) -> bool {
        Self::push(&mut self.gyro_buf, self.window, sample.gyro.x);
        Self::push(&mut self.accel_buf, self.window, sample.accel.x);
        if self.gyro_buf.len() < self.window {
            return false;
        }
        Self::variance(&self.gyro_buf) > self.gyro_var_max
            || Self::variance(&self.accel_buf) > self.accel_var_max
    }

    fn reset(&mut self) {
        self.gyro_buf.clear();
        self.accel_buf.clear();
    }

    fn name(&self) -> &'static str {
        "variance"
    }
}

/// Two-sided CUSUM mean-shift detector on the gyro-x and accel-z channels:
/// catches slow bias/drift-style corruption that stays inside plausibility
/// bounds.
#[derive(Debug, Clone)]
pub struct CusumDetector {
    /// Allowance (slack) per sample, in channel units.
    slack: f64,
    /// Decision threshold on the cumulative sum.
    threshold: f64,
    /// Reference-mean adaptation rate (EWMA alpha) while not alarmed.
    adapt: f64,
    state: [CusumChannel; 2],
}

#[derive(Debug, Clone, Copy, Default)]
struct CusumChannel {
    mean: f64,
    initialized: bool,
    pos: f64,
    neg: f64,
}

impl CusumDetector {
    /// Creates a detector.
    ///
    /// # Panics
    ///
    /// Panics if `slack` or `threshold` is not positive.
    pub fn new(slack: f64, threshold: f64) -> Self {
        assert!(
            slack > 0.0 && threshold > 0.0,
            "CUSUM parameters must be positive"
        );
        CusumDetector {
            slack,
            threshold,
            adapt: 0.001,
            state: [CusumChannel::default(); 2],
        }
    }

    /// Defaults calibrated to the sensor noise of `imufit-sensors`.
    pub fn calibrated() -> Self {
        CusumDetector::new(0.02, 2.5)
    }

    fn update_channel(ch: &mut CusumChannel, value: f64, slack: f64, adapt: f64) -> (f64, f64) {
        if !ch.initialized {
            ch.mean = value;
            ch.initialized = true;
        }
        let dev = value - ch.mean;
        ch.pos = (ch.pos + dev - slack).max(0.0);
        ch.neg = (ch.neg - dev - slack).max(0.0);
        // Slowly track the healthy mean so trim changes do not alarm.
        ch.mean += adapt * dev;
        (ch.pos, ch.neg)
    }
}

impl Detector for CusumDetector {
    fn observe(&mut self, sample: &ImuSample, _dt: f64) -> bool {
        let (gp, gn) =
            Self::update_channel(&mut self.state[0], sample.gyro.x, self.slack, self.adapt);
        let (ap, an) = Self::update_channel(
            &mut self.state[1],
            sample.accel.z * 0.1, // scale accel into gyro-comparable units
            self.slack,
            self.adapt,
        );
        gp > self.threshold || gn > self.threshold || ap > self.threshold || an > self.threshold
    }

    fn reset(&mut self) {
        self.state = [CusumChannel::default(); 2];
    }

    fn name(&self) -> &'static str {
        "cusum"
    }
}

/// OR-combination of the detector family. The members are evaluated in a
/// fixed order: threshold, stuck, variance, then CUSUM when present.
#[derive(Debug, Clone)]
pub struct EnsembleDetector {
    threshold: ThresholdDetector,
    stuck: StuckDetector,
    variance: VarianceDetector,
    /// Absent from the in-flight subset ([`EnsembleDetector::flight`]).
    cusum: Option<CusumDetector>,
    /// Per-member alarm state from the previous observation, in member
    /// order, for rising-edge trip counting
    /// (`detector_trips_total{detector=...}`).
    was_alarming: [bool; 4],
}

impl EnsembleDetector {
    /// All four calibrated detectors. Suited to quasi-static streams
    /// (hover, offline log analysis); the CUSUM member will false-alarm on
    /// sustained maneuvers — use [`EnsembleDetector::flight`] in the loop.
    pub fn full() -> Self {
        EnsembleDetector {
            cusum: Some(CusumDetector::calibrated()),
            ..EnsembleDetector::flight()
        }
    }

    /// The maneuver-robust subset for in-flight use: threshold + stuck +
    /// variance. CUSUM is excluded because legitimate accelerations are
    /// sustained mean shifts by definition.
    pub fn flight() -> Self {
        EnsembleDetector {
            threshold: ThresholdDetector::px4_defaults(),
            stuck: StuckDetector::new(8),
            variance: VarianceDetector::calibrated(),
            cusum: None,
            was_alarming: [false; 4],
        }
    }
}

/// Feeds one member and counts its alarm's rising edge only, so
/// per-member trips stay countable events rather than per-tick noise.
fn observe_member(d: &mut impl Detector, was: &mut bool, sample: &ImuSample, dt: f64) -> bool {
    let alarm = d.observe(sample, dt);
    if alarm && !*was {
        imufit_obs::counter_labeled("detector_trips_total", "detector", d.name()).inc();
    }
    *was = alarm;
    alarm
}

impl Detector for EnsembleDetector {
    fn observe(&mut self, sample: &ImuSample, dt: f64) -> bool {
        // Evaluate every member (no short-circuit) so their state advances.
        let [threshold, stuck, variance, cusum] = &mut self.was_alarming;
        let mut alarmed = observe_member(&mut self.threshold, threshold, sample, dt);
        alarmed |= observe_member(&mut self.stuck, stuck, sample, dt);
        alarmed |= observe_member(&mut self.variance, variance, sample, dt);
        if let Some(d) = self.cusum.as_mut() {
            alarmed |= observe_member(d, cusum, sample, dt);
        }
        alarmed
    }

    fn reset(&mut self) {
        self.threshold.reset();
        self.stuck.reset();
        self.variance.reset();
        if let Some(d) = self.cusum.as_mut() {
            d.reset();
        }
        self.was_alarming = [false; 4];
    }

    fn name(&self) -> &'static str {
        "ensemble"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imufit_math::rng::Pcg;

    fn clean(t: f64, rng: &mut Pcg) -> ImuSample {
        ImuSample {
            accel: Vec3::new(
                rng.normal_with(0.0, 0.05),
                rng.normal_with(0.0, 0.05),
                -9.80665 + rng.normal_with(0.0, 0.05),
            ),
            gyro: Vec3::new(
                rng.normal_with(0.0, 0.002),
                rng.normal_with(0.0, 0.002),
                rng.normal_with(0.0, 0.002),
            ),
            time: t,
        }
    }

    fn run_clean(det: &mut dyn Detector, seconds: f64) -> bool {
        let mut rng = Pcg::seed_from(1);
        let mut alarmed = false;
        let mut t = 0.0;
        while t < seconds {
            t += 0.004;
            alarmed |= det.observe(&clean(t, &mut rng), 0.004);
        }
        alarmed
    }

    #[test]
    fn no_false_alarms_on_clean_hover() {
        assert!(!run_clean(&mut ThresholdDetector::px4_defaults(), 30.0));
        assert!(!run_clean(&mut StuckDetector::new(8), 30.0));
        assert!(!run_clean(&mut VarianceDetector::calibrated(), 30.0));
        assert!(!run_clean(&mut CusumDetector::calibrated(), 30.0));
        assert!(!run_clean(&mut EnsembleDetector::full(), 30.0));
    }

    #[test]
    fn threshold_catches_saturation() {
        let mut det = ThresholdDetector::px4_defaults();
        let bad = ImuSample {
            accel: Vec3::splat(150.0),
            gyro: Vec3::ZERO,
            time: 0.0,
        };
        let mut alarmed = false;
        for _ in 0..100 {
            alarmed |= det.observe(&bad, 0.004);
        }
        assert!(alarmed);
    }

    #[test]
    fn threshold_catches_non_finite() {
        let mut det = ThresholdDetector::px4_defaults();
        let bad = ImuSample {
            accel: Vec3::new(f64::NAN, 0.0, 0.0),
            gyro: Vec3::ZERO,
            time: 0.0,
        };
        assert!(det.observe(&bad, 0.004));
    }

    #[test]
    fn stuck_catches_freeze_and_resets() {
        let mut det = StuckDetector::new(4);
        let frozen = ImuSample {
            accel: Vec3::new(0.1, 0.2, -9.8),
            gyro: Vec3::new(0.01, 0.0, 0.0),
            time: 0.0,
        };
        let mut first_alarm = None;
        for k in 0..10 {
            if det.observe(&frozen, 0.004) && first_alarm.is_none() {
                first_alarm = Some(k);
            }
        }
        assert_eq!(first_alarm, Some(4));
        det.reset();
        assert!(!det.observe(&frozen, 0.004));
    }

    #[test]
    fn variance_catches_noise_injection() {
        let mut det = VarianceDetector::calibrated();
        let mut rng = Pcg::seed_from(2);
        // Warm up clean, then inject white gyro noise of 1 rad/s.
        let mut t = 0.0;
        for _ in 0..500 {
            t += 0.004;
            assert!(!det.observe(&clean(t, &mut rng), 0.004));
        }
        let mut alarmed = false;
        for _ in 0..200 {
            t += 0.004;
            let mut s = clean(t, &mut rng);
            s.gyro.x += rng.uniform_range(-2.0, 2.0);
            alarmed |= det.observe(&s, 0.004);
        }
        assert!(alarmed, "variance explosion missed");
    }

    #[test]
    fn cusum_catches_slow_bias() {
        let mut det = CusumDetector::calibrated();
        let mut rng = Pcg::seed_from(3);
        let mut t = 0.0;
        for _ in 0..1000 {
            t += 0.004;
            assert!(
                !det.observe(&clean(t, &mut rng), 0.004),
                "false alarm in warmup"
            );
        }
        // A 0.15 rad/s gyro bias appears: inside plausibility bounds, but a
        // clear mean shift.
        let mut first = None;
        for k in 0..2000 {
            t += 0.004;
            let mut s = clean(t, &mut rng);
            s.gyro.x += 0.15;
            if det.observe(&s, 0.004) && first.is_none() {
                first = Some(k);
            }
        }
        let k = first.expect("bias missed");
        assert!(k < 500, "CUSUM too slow: {k} samples");
    }

    #[test]
    fn ensemble_reports_on_any_member() {
        let mut det = EnsembleDetector::full();
        let frozen = ImuSample {
            accel: Vec3::new(0.1, 0.0, -9.8),
            gyro: Vec3::new(0.01, 0.0, 0.0),
            time: 0.0,
        };
        let mut alarmed = false;
        for _ in 0..20 {
            alarmed |= det.observe(&frozen, 0.004);
        }
        assert!(alarmed, "the stuck member should fire");
        assert_eq!(det.name(), "ensemble");
    }

    #[test]
    fn threshold_rejects_bad_limits() {
        assert!(ThresholdDetector::new(1.0, 45.0).is_ok());
        let err = ThresholdDetector::new(0.0, 45.0).expect_err("zero gyro limit");
        assert_eq!(err.name, "gyro");
        assert!(err.to_string().contains("positive"));
        assert!(ThresholdDetector::new(1.0, -3.0).is_err());
        assert!(ThresholdDetector::new(f64::NAN, 45.0).is_err());
        assert!(ThresholdDetector::new(1.0, f64::INFINITY).is_err());
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn stuck_zero_window_panics() {
        let _ = StuckDetector::new(0);
    }

    #[test]
    #[should_panic(expected = "at least 4 samples")]
    fn variance_small_window_panics() {
        let _ = VarianceDetector::new(2, 1.0, 1.0);
    }
}
