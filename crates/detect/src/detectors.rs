//! The online detector implementations.

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
///
/// Each channel keeps the last `window` values in a fixed ring and their
/// exact extremes. On most ticks the extremes alone prove that the
/// window's computed variance cannot exceed the ceiling; otherwise the
/// channel runs the exact two-pass variance over the ring, oldest to
/// newest. Either way the decision is the two-pass one.
#[derive(Debug, Clone)]
pub struct VarianceDetector {
    window: usize,
    /// Samples held, up to `window`.
    len: usize,
    /// The ring slot the next sample overwrites: once the ring is full,
    /// the oldest sample.
    head: usize,
    /// `(n + 16) * EPSILON` for the window length `n`: the relative slack
    /// of the variance bound.
    slack: f64,
    /// Gyro x: variance above its ceiling (rad^2/s^2) alarms.
    gyro: VarianceChannel,
    /// Accel x: variance above its ceiling (m^2/s^4) alarms.
    accel: VarianceChannel,
}

/// One watched channel: the ring of its last `window` values and their
/// extremes, kept in O(1) amortized per sample. A full window ending at
/// slot `s` is the current pass's slots `0..=s` plus the previous pass's
/// slots `s + 1..`; the first part's extremes are running values, the
/// second's are suffix extremes taken once per pass.
#[derive(Debug, Clone)]
struct VarianceChannel {
    ceiling: f64,
    /// `ceiling`, capped where the bound's overflow argument needs it.
    fast_ceiling: f64,
    ring: Box<[f64]>,
    /// Min and max of `ring[j..]` for each slot `j`, taken when the
    /// ring's last slot was last written.
    suffix: Box<[(f64, f64)]>,
    /// Min and max of the slots written since slot 0 last was.
    pass: (f64, f64),
}

/// Pairwise extremes. A NaN on the right is skipped and one on the left
/// is kept; see [`VarianceChannel::cannot_alarm`] for why both are safe.
fn widen((lo, hi): (f64, f64), (l, h): (f64, f64)) -> (f64, f64) {
    (if l < lo { l } else { lo }, if h > hi { h } else { hi })
}

impl VarianceChannel {
    fn new(window: usize, ceiling: f64) -> Self {
        VarianceChannel {
            ceiling,
            fast_ceiling: ceiling.min(f64::MAX / (16.0 * window as f64)),
            ring: vec![0.0; window].into_boxed_slice(),
            suffix: vec![(0.0, 0.0); window].into_boxed_slice(),
            pass: (0.0, 0.0),
        }
    }

    /// Writes `v` into `slot`.
    fn push(&mut self, slot: usize, v: f64) {
        self.ring[slot] = v;
        self.pass = if slot == 0 {
            (v, v)
        } else {
            widen(self.pass, (v, v))
        };
        if slot + 1 == self.ring.len() {
            let mut acc = (f64::INFINITY, f64::NEG_INFINITY);
            for (x, suffix) in self.ring.iter().zip(self.suffix.iter_mut()).rev() {
                acc = widen(acc, (*x, *x));
                *suffix = acc;
            }
        }
    }

    /// True when the full ring, newest value at `newest`, has a computed
    /// two-pass variance that provably does not exceed the ceiling.
    ///
    /// For `n` finite values in `[lo, hi]` with `A = max(|lo|, |hi|)`,
    /// unit roundoff `u = 2^-53` and `g_k = k u / (1 - k u)`:
    /// - the computed mean `m` is `sum(x_i (1 + t_i)) / n` with
    ///   `|t_i| <= g_n`, so `|m - mu| <= g_n A` (`mu` the exact mean);
    /// - each computed square is at most `(x_i - m)^2 (1 + u)^3`, the sum
    ///   of `n` non-negative terms at most `(1 + g_{n-1})` times the exact
    ///   sum, and the division adds one more `(1 + u)`, so the computed
    ///   variance is at most `(1 + g_{n+3}) sum((x_i - m)^2) / n`;
    /// - `sum((x_i - m)^2) / n = sum((x_i - mu)^2) / n + (mu - m)^2`, and
    ///   Popoviciu's inequality bounds the first term by `(hi - lo)^2 / 4`.
    ///
    /// Hence `var <= (1 + g_{n+3}) ((hi - lo)^2 / 4 + (g_n A)^2)`. With
    /// `slack = (n + 16) EPSILON = 2 (n + 16) u`, the bound below exceeds
    /// that after its own roundings (`hi - lo` and the five operations
    /// forming it, about `7 u` more). Underflow adds at most `2^-1075` per
    /// product or quotient, far below the `MIN_POSITIVE` term. A bound
    /// under `fast_ceiling <= MAX / 16n` keeps every intermediate of the
    /// exact pass finite, so it cannot overflow to an alarm either.
    ///
    /// A window holding a NaN or an infinity has a NaN computed variance,
    /// which never alarms. Its extremes are then either non-finite, so the
    /// bound is not below the ceiling and the exact pass runs, or finite
    /// because a NaN was skipped, and "cannot alarm" is true.
    fn cannot_alarm(&self, newest: usize, slack: f64) -> bool {
        let (lo, hi) = match self.suffix.get(newest + 1) {
            Some(&older) => widen(self.pass, older),
            None => self.pass,
        };
        let range = hi - lo;
        let scale = slack * (-lo).max(hi);
        let bound = 0.25 * range * range * (1.0 + slack) + scale * scale + f64::MIN_POSITIVE;
        bound < self.fast_ceiling
    }

    /// The two-pass variance of the full ring, summed oldest (the slot
    /// after `newest`) to newest.
    fn variance(&self, newest: usize) -> f64 {
        let n = self.ring.len() as f64;
        let (newer, older) = self.ring.split_at(newest + 1);
        let mean = older.iter().chain(newer).sum::<f64>() / n;
        older
            .iter()
            .chain(newer)
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / n
    }

    fn alarms(&self, newest: usize, slack: f64) -> bool {
        !self.cannot_alarm(newest, slack) && self.variance(newest) > self.ceiling
    }
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
            len: 0,
            head: 0,
            slack: (window as f64 + 16.0) * f64::EPSILON,
            gyro: VarianceChannel::new(window, gyro_var_max),
            accel: VarianceChannel::new(window, accel_var_max),
        }
    }

    /// Defaults calibrated to the sensor models of `imufit-sensors` at
    /// 250 Hz: an order of magnitude above clean-flight variance.
    pub fn calibrated() -> Self {
        VarianceDetector::new(64, 0.5, 60.0)
    }
}

impl Detector for VarianceDetector {
    fn observe(&mut self, sample: &ImuSample, _dt: f64) -> bool {
        let slot = self.head;
        self.gyro.push(slot, sample.gyro.x);
        self.accel.push(slot, sample.accel.x);
        self.head = if slot + 1 == self.window { 0 } else { slot + 1 };
        if self.len < self.window {
            self.len += 1;
            if self.len < self.window {
                return false;
            }
        }
        self.gyro.alarms(slot, self.slack) || self.accel.alarms(slot, self.slack)
    }

    fn reset(&mut self) {
        // The rings and their extremes are rewritten before they are read
        // again: no window is judged until every slot has been refilled.
        self.len = 0;
        self.head = 0;
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
    use std::collections::VecDeque;

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

    /// The reference `VarianceDetector`: two `VecDeque` windows and the
    /// two-pass variance on every full window. The ring-and-bound detector
    /// must decide exactly as this one does.
    #[derive(Debug, Clone)]
    struct TwoPassVariance {
        window: usize,
        gyro_var_max: f64,
        accel_var_max: f64,
        gyro_buf: VecDeque<f64>,
        accel_buf: VecDeque<f64>,
    }

    impl TwoPassVariance {
        fn new(window: usize, gyro_var_max: f64, accel_var_max: f64) -> Self {
            TwoPassVariance {
                window,
                gyro_var_max,
                accel_var_max,
                gyro_buf: VecDeque::with_capacity(window),
                accel_buf: VecDeque::with_capacity(window),
            }
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

    impl Detector for TwoPassVariance {
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

    fn channels(gyro_x: f64, accel_x: f64) -> ImuSample {
        ImuSample {
            accel: Vec3::new(accel_x, 0.0, -9.8),
            gyro: Vec3::new(gyro_x, 0.0, 0.0),
            time: 0.0,
        }
    }

    /// Feeds `stream` to a fresh fast detector and a fresh oracle and
    /// asserts equal decisions on every sample. Returns how many full
    /// windows did not alarm and how many did.
    fn assert_agrees(window: usize, ceilings: (f64, f64), stream: &[(f64, f64)]) -> [usize; 2] {
        let mut fast = VarianceDetector::new(window, ceilings.0, ceilings.1);
        let mut oracle = TwoPassVariance::new(window, ceilings.0, ceilings.1);
        let mut counts = [0; 2];
        for (k, &(g, a)) in stream.iter().enumerate() {
            let sample = channels(g, a);
            let decided = fast.observe(&sample, 0.004);
            assert_eq!(
                decided,
                oracle.observe(&sample, 0.004),
                "sample {k}: gyro {g:e}, accel {a:e}"
            );
            if k + 1 >= window {
                counts[usize::from(decided)] += 1;
            }
        }
        counts
    }

    #[test]
    fn fast_variance_matches_the_two_pass_oracle_on_random_windows() {
        // Segments of random length with a log-uniform spread around each
        // ceiling's scale and a random offset, so windows straddle the
        // ceilings, mix regimes, and carry means far from zero.
        let mut rng = Pcg::seed_from(27);
        let (gyro_max, accel_max) = (0.5, 60.0);
        let mut fast = VarianceDetector::new(64, gyro_max, accel_max);
        let mut oracle = TwoPassVariance::new(64, gyro_max, accel_max);
        let (mut windows, mut alarms, mut bounded) = (0u64, 0u64, 0u64);
        while windows < 1_000_000 {
            let len = 1 + (rng.next_u64() % 300) as usize;
            let spread =
                |rng: &mut Pcg, max: f64| max.sqrt() * 10f64.powf(rng.uniform_range(-2.0, 0.7));
            let (gs, as_) = (spread(&mut rng, gyro_max), spread(&mut rng, accel_max));
            let (go, ao) = (
                rng.uniform_range(-1.0, 1.0) * 10f64.powf(rng.uniform_range(-3.0, 4.0)),
                rng.uniform_range(-1.0, 1.0) * 10f64.powf(rng.uniform_range(-3.0, 4.0)),
            );
            for _ in 0..len {
                let sample = channels(
                    go + rng.normal_with(0.0, gs),
                    ao + rng.uniform_range(-as_, as_) * 1.7,
                );
                let decided = fast.observe(&sample, 0.004);
                assert_eq!(decided, oracle.observe(&sample, 0.004), "window {windows}");
                if oracle.gyro_buf.len() == 64 {
                    windows += 1;
                    alarms += u64::from(decided);
                    bounded += u64::from({
                        let newest = (fast.head + 63) % 64;
                        fast.gyro.cannot_alarm(newest, fast.slack)
                            && fast.accel.cannot_alarm(newest, fast.slack)
                    });
                }
            }
            if rng.next_u64().is_multiple_of(500) {
                fast.reset();
                oracle.reset();
            }
        }
        assert!(alarms > windows / 10, "{alarms} of {windows} alarmed");
        assert!(
            windows - alarms > windows / 10,
            "{alarms} of {windows} alarmed"
        );
        assert!(
            bounded > windows / 10,
            "the bound decided {bounded} of {windows}"
        );
    }

    #[test]
    fn fast_variance_matches_the_oracle_within_ulps_of_each_ceiling() {
        // Windows whose computed variance `v` is known, against ceilings
        // from 8 ulps below `v` to 8 above. Half are Popoviciu's extremal
        // two-point windows (variance = range^2 / 4), where rounding alone
        // decides whether the computed variance lands above the bound's
        // leading term.
        let mut rng = Pcg::seed_from(28);
        let mut counts = [0; 2];
        for base in 0..400 {
            let offset = [0.0, 1.0, -37.5, 1e4][base % 4];
            let scale = 10f64.powf(rng.uniform_range(-2.0, 1.5));
            let window: VecDeque<f64> = (0..64)
                .map(|k| {
                    let x = if base % 2 == 0 {
                        if k % 2 == 0 {
                            -1.0
                        } else {
                            1.0
                        }
                    } else {
                        rng.normal()
                    };
                    offset + x * scale
                })
                .collect();
            let v = TwoPassVariance::variance(&window);
            assert!(v > 0.0 && v.is_finite());
            for ulps in -8i64..=8 {
                let ceiling = f64::from_bits((v.to_bits() as i64 + ulps) as u64);
                let on_gyro: Vec<(f64, f64)> = window.iter().map(|&x| (x, 0.0)).collect();
                let on_accel: Vec<(f64, f64)> = window.iter().map(|&x| (0.0, x)).collect();
                for (ceilings, stream) in [((ceiling, 1.0), on_gyro), ((1.0, ceiling), on_accel)] {
                    let c = assert_agrees(64, ceilings, &stream);
                    for (total, add) in counts.iter_mut().zip(c) {
                        *total += add;
                    }
                }
            }
        }
        // Both sides of the ceilings were reached.
        assert!(counts[0] > 1000 && counts[1] > 1000, "{counts:?}");
    }

    #[test]
    fn fast_variance_matches_the_oracle_on_lone_spikes_at_every_ring_slot() {
        // One spike every 97 samples in a quiet stream: the spike alone
        // lifts a window over its ceiling, and over the run it lands on
        // every ring slot, so extremes that lose it at any slot show.
        let mut rng = Pcg::seed_from(29);
        for window in [64, 13] {
            let stream: Vec<(f64, f64)> = (0..97 * 70)
                .map(|k| {
                    let spike = if k % 97 == 50 { 1.0 } else { 0.0 };
                    (
                        rng.normal_with(0.0, 0.01) + spike * 8.0,
                        rng.normal_with(0.0, 0.1) - spike * 80.0,
                    )
                })
                .collect();
            let [quiet, alarmed] = assert_agrees(window, (0.5, 60.0), &stream);
            assert!(
                quiet > 0 && alarmed >= 69 * window,
                "{quiet} quiet, {alarmed} alarmed"
            );
        }
    }

    #[test]
    fn fast_variance_matches_the_oracle_on_constant_and_non_finite_windows() {
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e307,
            -1e307,
            f64::MAX,
            f64::MIN_POSITIVE,
            0.0,
            -0.0,
        ];
        for &ceilings in &[
            (0.5, 60.0),
            (0.0, 0.0),
            (f64::NAN, f64::INFINITY),
            (-1.0, f64::MAX),
        ] {
            // Constant windows, at zero and far from it.
            for c in [0.0, 3.0, -1e12, 1e300] {
                assert_agrees(16, ceilings, &vec![(c, c); 200]);
            }
            // A special value entering and leaving a quiet window, alone,
            // in runs, and against its opposite; a window of 13 leaves a
            // partial last block of extremes.
            for &special in &specials {
                for run in [1, 5, 20] {
                    let mut stream: Vec<(f64, f64)> =
                        (0..40).map(|k| (0.01 * k as f64, 0.1 * k as f64)).collect();
                    stream.extend(std::iter::repeat_n((special, -special), run));
                    stream.extend((0..40).map(|k| (0.02 * k as f64, -0.3 * k as f64)));
                    stream.extend(std::iter::repeat_n((special, special), run));
                    stream.extend(std::iter::repeat_n((-special, 1.0), run));
                    stream.extend(vec![(0.25, 2.0); 40]);
                    assert_agrees(16, ceilings, &stream);
                    assert_agrees(13, ceilings, &stream);
                }
            }
        }
    }
}
