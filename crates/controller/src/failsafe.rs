//! Sensor failure detection, isolation, and failsafe activation.
//!
//! Models the PX4 commander behaviour the paper describes in §IV-C:
//!
//! 1. **Detection** — a sensor is suspected when its output is implausible:
//!    the gyro deviates from the commanded rate by more than the configurable
//!    threshold (default **60 deg/s**, the PX4 default the paper cites), the
//!    accelerometer exceeds what the airframe can physically produce, or the
//!    estimator rejects aiding measurements for a sustained period.
//! 2. **Isolation** — the failsafe module "initially attempts isolation by
//!    deactivating the primary sensor and activating redundant sensors".
//!    Each switch is requested through [`FailureDetector::take_rotate_request`].
//!    Because the paper assumes faults affect all redundant instances,
//!    switching never clears an injected fault.
//! 3. **Failsafe** — if suspicion persists through isolation, failsafe
//!    activates no earlier than **1900 ms** after detection (the minimum the
//!    paper measured). If the sensor recovers for a sustained window during
//!    isolation, the sequence is cancelled and the mission continues.

use imufit_math::filter::LowPass;
use imufit_math::Vec3;
use imufit_sensors::ImuSample;

/// Why failsafe was (or is being) activated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailsafeReason {
    /// Gyro rate deviated implausibly from the commanded rate.
    GyroImplausible,
    /// Accelerometer reported more specific force than the airframe can
    /// produce.
    AccelImplausible,
    /// The estimator rejected aiding measurements for a sustained period.
    InnovationRejection,
    /// Both the accelerometer and the gyroscope report exactly zero: the
    /// whole IMU is dead. There is no attitude source left, so failsafe
    /// latches at the minimum latency without waiting for isolation.
    ImuDead,
    /// The attitude failure detector tripped (tilt beyond the limit for the
    /// configured persistence). Only possible when
    /// [`FailsafeParams::attitude_fd_enabled`] is set.
    AttitudeFailure,
    /// An external detection system (e.g. the `imufit-detect` ensemble)
    /// requested failsafe directly.
    ExternalDetection,
}

impl FailsafeReason {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            FailsafeReason::GyroImplausible => "gyro implausible",
            FailsafeReason::AccelImplausible => "accel implausible",
            FailsafeReason::InnovationRejection => "innovation rejection",
            FailsafeReason::ImuDead => "imu dead",
            FailsafeReason::AttitudeFailure => "attitude failure",
            FailsafeReason::ExternalDetection => "external detection",
        }
    }
}

/// Detector/failsafe tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailsafeParams {
    /// Gyro implausibility threshold, rad/s. PX4 default cited by the
    /// paper: 60 deg/s.
    pub gyro_rate_threshold: f64,
    /// Continuous violation time before the gyro is suspected, s.
    pub gyro_persist: f64,
    /// Accelerometer plausibility bound, m/s^2. Vehicle-specific: a bit
    /// above thrust-to-weight times g (the paper notes accel thresholds "are
    /// not defined [as constants], relying instead on ... vehicle
    /// specifications").
    pub accel_max: f64,
    /// Continuous violation time before the accelerometer is suspected, s.
    pub accel_persist: f64,
    /// Continuous estimator rejection before suspicion, s.
    pub innovation_persist: f64,
    /// Number of redundant-sensor switchover attempts during isolation.
    pub isolation_attempts: u32,
    /// Wait between switchover attempts, s.
    pub isolation_wait: f64,
    /// Minimum time from detection to failsafe activation, s (the paper
    /// measured >= 1900 ms).
    pub min_failsafe_latency: f64,
    /// Clean (no raw violation) time during isolation that cancels the
    /// failsafe sequence, s.
    pub recovery_window: f64,
    /// Attitude failure detector (PX4's FD_FAIL_P/R): when enabled, an
    /// estimated tilt beyond [`FailsafeParams::attitude_limit`] sustained
    /// for [`FailsafeParams::attitude_persist`] latches failsafe directly.
    /// Disabled by default, matching PX4's `CBRK_FLIGHTTERM` circuit
    /// breaker — the paper kept default settings.
    pub attitude_fd_enabled: bool,
    /// Tilt limit for the attitude failure detector, radians.
    pub attitude_limit: f64,
    /// Persistence for the attitude failure detector, s.
    pub attitude_persist: f64,
}

impl Default for FailsafeParams {
    fn default() -> Self {
        FailsafeParams {
            gyro_rate_threshold: 60.0_f64.to_radians(),
            gyro_persist: 0.25,
            accel_max: 40.0,
            accel_persist: 0.25,
            innovation_persist: 2.5,
            isolation_attempts: 3,
            isolation_wait: 0.8,
            min_failsafe_latency: 1.9,
            recovery_window: 0.75,
            attitude_fd_enabled: false,
            attitude_limit: 60.0_f64.to_radians(),
            attitude_persist: 0.3,
        }
    }
}

/// The current phase of the failure-handling state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailsafePhase {
    /// No suspicion.
    Nominal,
    /// A sensor is suspected; redundant-sensor isolation in progress.
    Isolating {
        /// Detection time, s.
        since: f64,
        /// The suspected cause.
        reason: FailsafeReason,
    },
    /// Failsafe is active (latched).
    Active {
        /// Activation time, s.
        since: f64,
        /// The cause.
        reason: FailsafeReason,
    },
}

/// The failure detector + failsafe sequencer.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureDetector {
    params: FailsafeParams,
    phase: FailsafePhase,
    gyro_bad_since: Option<f64>,
    accel_bad_since: Option<f64>,
    innovation_bad_since: Option<f64>,
    imu_dead_since: Option<f64>,
    attitude_bad_since: Option<f64>,
    clean_since: Option<f64>,
    attempts_done: u32,
    next_rotate_at: f64,
    rotate_request: bool,
    /// Low-passed gyro excess magnitude: the detection signal the commander
    /// compares against the threshold (rate data is filtered in PX4 too, so
    /// zero-mean noise does not dodge detection by dipping below the
    /// threshold for single samples).
    gyro_excess_filter: LowPass,
    /// Low-passed accelerometer magnitude, same rationale.
    accel_norm_filter: LowPass,
    last_update_time: Option<f64>,
}

impl FailureDetector {
    /// Creates a detector in the nominal phase.
    pub fn new(params: FailsafeParams) -> Self {
        FailureDetector {
            params,
            phase: FailsafePhase::Nominal,
            gyro_bad_since: None,
            accel_bad_since: None,
            innovation_bad_since: None,
            imu_dead_since: None,
            attitude_bad_since: None,
            clean_since: None,
            attempts_done: 0,
            next_rotate_at: 0.0,
            rotate_request: false,
            gyro_excess_filter: LowPass::new(8.0),
            accel_norm_filter: LowPass::new(8.0),
            last_update_time: None,
        }
    }

    /// The current phase.
    pub fn phase(&self) -> FailsafePhase {
        self.phase
    }

    /// True once failsafe has latched.
    pub fn failsafe_active(&self) -> bool {
        matches!(self.phase, FailsafePhase::Active { .. })
    }

    /// The latched failsafe reason, if active.
    pub fn active_reason(&self) -> Option<FailsafeReason> {
        match self.phase {
            FailsafePhase::Active { reason, .. } => Some(reason),
            _ => None,
        }
    }

    /// Consumes a pending redundant-IMU switchover request (the caller
    /// rotates the primary instance when this returns true).
    pub fn take_rotate_request(&mut self) -> bool {
        std::mem::take(&mut self.rotate_request)
    }

    /// Latches failsafe immediately on behalf of an external detection
    /// system. No-op if failsafe is already active.
    pub fn trigger_external(&mut self, t: f64) {
        if !self.failsafe_active() {
            self.phase = FailsafePhase::Active {
                since: t,
                reason: FailsafeReason::ExternalDetection,
            };
        }
    }

    /// Runs the detector for one control tick at time `t`.
    ///
    /// * `imu` — the (possibly corrupted) sample the flight stack consumed.
    /// * `rate_setpoint` — the commanded body rate from the attitude loop.
    /// * `estimator_rejecting` — whether the EKF is currently rejecting
    ///   aiding measurements.
    pub fn update(
        &mut self,
        t: f64,
        imu: &ImuSample,
        rate_setpoint: Vec3,
        estimator_rejecting: bool,
    ) -> FailsafePhase {
        self.update_with_tilt(t, imu, rate_setpoint, estimator_rejecting, 0.0)
    }

    /// [`FailureDetector::update`] plus the estimated tilt for the optional
    /// attitude failure detector.
    pub fn update_with_tilt(
        &mut self,
        t: f64,
        imu: &ImuSample,
        rate_setpoint: Vec3,
        estimator_rejecting: bool,
        estimated_tilt: f64,
    ) -> FailsafePhase {
        // --- Raw plausibility conditions (instantaneous) ---
        // The gyro check thresholds the *measured* rate (the paper: "the
        // default failsafe detection threshold is set at 60 deg/s"), with
        // allowance for the commanded rate so aggressive maneuvers do not
        // false-positive. Zero/frozen gyro readings are plausible by design.
        let dt = match self.last_update_time {
            Some(prev) if t > prev => t - prev,
            _ => 0.004,
        };
        self.last_update_time = Some(t);
        // Vector tracking error: legitimate maneuvers cancel (the gyro
        // follows the setpoint) while fault-injected content adds to it
        // regardless of what is being commanded.
        let excess = if imu.gyro.is_finite() {
            (imu.gyro - rate_setpoint).norm()
        } else {
            f64::MAX
        };
        let smoothed = self.gyro_excess_filter.update(excess.min(1e6), dt);
        let gyro_bad = !imu.gyro.is_finite() || smoothed > self.params.gyro_rate_threshold;
        let accel_norm = if imu.accel.is_finite() {
            imu.accel.norm().min(1e6)
        } else {
            1e6
        };
        let smoothed_accel = self.accel_norm_filter.update(accel_norm, dt);
        let accel_bad = !imu.accel.is_finite() || smoothed_accel > self.params.accel_max;
        let innovation_bad = estimator_rejecting;
        // A living MEMS sensor never reports exactly zero on every axis
        // (noise guarantees it); both channels at exact zero means the IMU
        // is gone entirely.
        let imu_dead = imu.gyro.norm() < 1e-12 && imu.accel.norm() < 1e-12;
        let attitude_bad =
            self.params.attitude_fd_enabled && estimated_tilt > self.params.attitude_limit;

        track(&mut self.gyro_bad_since, gyro_bad, t);
        track(&mut self.accel_bad_since, accel_bad, t);
        track(&mut self.innovation_bad_since, innovation_bad, t);
        track(&mut self.imu_dead_since, imu_dead, t);
        track(&mut self.attitude_bad_since, attitude_bad, t);

        // The attitude FD is a direct latch: beyond-limits attitude for the
        // persistence window terminates regardless of phase.
        if self.persisted(self.attitude_bad_since, self.params.attitude_persist, t)
            && !self.failsafe_active()
        {
            self.phase = FailsafePhase::Active {
                since: t,
                reason: FailsafeReason::AttitudeFailure,
            };
            return self.phase;
        }

        let any_raw_bad = gyro_bad || accel_bad || innovation_bad || imu_dead;

        // --- Persistence-gated suspicion ---
        let suspicion = self
            .persisted(self.imu_dead_since, 0.1, t)
            .then_some(FailsafeReason::ImuDead)
            .or_else(|| {
                self.persisted(self.gyro_bad_since, self.params.gyro_persist, t)
                    .then_some(FailsafeReason::GyroImplausible)
            })
            .or_else(|| {
                self.persisted(self.accel_bad_since, self.params.accel_persist, t)
                    .then_some(FailsafeReason::AccelImplausible)
            })
            .or_else(|| {
                self.persisted(self.innovation_bad_since, self.params.innovation_persist, t)
                    .then_some(FailsafeReason::InnovationRejection)
            });

        match self.phase {
            FailsafePhase::Nominal => {
                if let Some(reason) = suspicion {
                    self.phase = FailsafePhase::Isolating { since: t, reason };
                    self.clean_since = None;
                    self.attempts_done = 0;
                    self.next_rotate_at = t + self.params.isolation_wait;
                }
            }
            FailsafePhase::Isolating { since, reason } => {
                // Recovery cancels the sequence.
                track(&mut self.clean_since, !any_raw_bad, t);
                if self.persisted(self.clean_since, self.params.recovery_window, t) {
                    self.phase = FailsafePhase::Nominal;
                    self.clean_since = None;
                    return self.phase;
                }
                // Redundant-sensor switchover attempts.
                if self.attempts_done < self.params.isolation_attempts && t >= self.next_rotate_at {
                    self.rotate_request = true;
                    self.attempts_done += 1;
                    self.next_rotate_at = t + self.params.isolation_wait;
                }
                // Latch failsafe only after the full isolation sequence has
                // run its course (and never before the minimum latency the
                // paper measured). Violent faults usually crash the vehicle
                // before this point — which is exactly the crash-dominant
                // short-injection behaviour of the paper's Table IV.
                let min_ok = t - since >= self.params.min_failsafe_latency;
                let isolation_exhausted = self.attempts_done >= self.params.isolation_attempts
                    && t >= self.next_rotate_at;
                // A fully dead IMU has nothing left to isolate: failsafe
                // latches right at the minimum latency.
                let dead_imu = reason == FailsafeReason::ImuDead;
                if min_ok && (isolation_exhausted || dead_imu) {
                    self.phase = FailsafePhase::Active { since: t, reason };
                }
            }
            FailsafePhase::Active { .. } => {}
        }
        self.phase
    }

    fn persisted(&self, since: Option<f64>, window: f64, t: f64) -> bool {
        matches!(since, Some(s) if t - s >= window)
    }
}

/// Updates an "active since" tracker.
fn track(since: &mut Option<f64>, active: bool, t: f64) {
    if active {
        since.get_or_insert(t);
    } else {
        *since = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_imu(t: f64) -> ImuSample {
        ImuSample {
            accel: Vec3::new(0.0, 0.0, -9.8),
            gyro: Vec3::ZERO,
            time: t,
        }
    }

    fn bad_gyro(t: f64) -> ImuSample {
        ImuSample {
            accel: Vec3::new(0.0, 0.0, -9.8),
            gyro: Vec3::new(5.0, 0.0, 0.0),
            time: t,
        }
    }

    fn run(det: &mut FailureDetector, from: f64, to: f64, sample: fn(f64) -> ImuSample) -> f64 {
        let dt = 0.004;
        let mut t = from;
        while t < to {
            det.update(t, &sample(t), Vec3::ZERO, false);
            t += dt;
        }
        t
    }

    /// Steps a fresh detector every 4 ms up to `horizon` and returns when
    /// failsafe latched, if it did. `update` runs one update at time `t`.
    fn latch_time(
        params: FailsafeParams,
        horizon: f64,
        mut update: impl FnMut(&mut FailureDetector, f64) -> FailsafePhase,
    ) -> Option<f64> {
        let mut det = FailureDetector::new(params);
        let mut t = 0.0;
        while t < horizon {
            t += 0.004;
            if let FailsafePhase::Active { since, .. } = update(&mut det, t) {
                return Some(since);
            }
            det.take_rotate_request();
        }
        None
    }

    #[test]
    fn nominal_flight_never_triggers() {
        let mut det = FailureDetector::new(FailsafeParams::default());
        run(&mut det, 0.0, 30.0, clean_imu);
        assert_eq!(det.phase(), FailsafePhase::Nominal);
        assert!(!det.failsafe_active());
    }

    #[test]
    fn aggressive_commanded_rates_do_not_trigger() {
        // Measured rate tracks a large setpoint: |meas - sp| stays small.
        let mut det = FailureDetector::new(FailsafeParams::default());
        let sp = Vec3::new(3.0, 0.0, 0.0); // 172 deg/s commanded
        for i in 0..2500 {
            let t = i as f64 * 0.004;
            let imu = ImuSample {
                accel: Vec3::new(0.0, 0.0, -9.8),
                gyro: sp * 0.95,
                time: t,
            };
            det.update(t, &imu, sp, false);
        }
        assert_eq!(det.phase(), FailsafePhase::Nominal);
    }

    #[test]
    fn persistent_gyro_fault_reaches_failsafe_after_isolation() {
        let mut det = FailureDetector::new(FailsafeParams::default());
        run(&mut det, 0.0, 1.0, clean_imu);
        run(&mut det, 1.0, 7.0, bad_gyro);
        match det.phase() {
            FailsafePhase::Active { since, reason } => {
                assert_eq!(reason, FailsafeReason::GyroImplausible);
                // Detection at ~1.25 s (persist); a moderate fault latches
                // only after the full isolation sequence (3 x 0.8 s + final
                // wait), which also satisfies the 1.9 s minimum.
                assert!(since >= 1.25 + 1.9 - 0.05, "activated too early: {since}");
                assert!(
                    since >= 1.25 + 3.2 - 0.1,
                    "moderate fault should wait out isolation: {since}"
                );
            }
            other => panic!("expected Active, got {other:?}"),
        }
    }

    #[test]
    fn saturated_fault_also_waits_for_isolation() {
        let mut det = FailureDetector::new(FailsafeParams::default());
        let saturated = |t: f64| ImuSample {
            accel: Vec3::new(0.0, 0.0, -9.8),
            gyro: Vec3::splat(-(2000.0_f64.to_radians())),
            time: t,
        };
        run(&mut det, 0.0, 1.0, clean_imu);
        let dt = 0.004;
        let mut t = 1.0;
        while t < 6.0 {
            det.update(t, &saturated(t), Vec3::ZERO, false);
            t += dt;
        }
        match det.phase() {
            FailsafePhase::Active { since, .. } => {
                // Detection slightly after ~1.25 s (the smoothed signal has
                // to charge); isolation adds >= 3.2 s before the latch.
                assert!(
                    since >= 1.25 + 3.2 - 0.1,
                    "latched before isolation: {since}"
                );
            }
            other => panic!("expected Active, got {other:?}"),
        }
    }

    #[test]
    fn short_glitch_recovers_without_failsafe() {
        let mut det = FailureDetector::new(FailsafeParams::default());
        run(&mut det, 0.0, 1.0, clean_imu);
        // 0.5 s of bad gyro: enough to enter isolation (persist 0.25)...
        run(&mut det, 1.0, 1.5, bad_gyro);
        assert!(matches!(det.phase(), FailsafePhase::Isolating { .. }));
        // ...then clean data for 1 s cancels it.
        run(&mut det, 1.5, 2.6, clean_imu);
        assert_eq!(det.phase(), FailsafePhase::Nominal);
        assert!(!det.failsafe_active());
    }

    #[test]
    fn isolation_requests_redundant_switchovers() {
        let mut det = FailureDetector::new(FailsafeParams::default());
        run(&mut det, 0.0, 0.5, clean_imu);
        let mut rotations = 0;
        let dt = 0.004;
        let mut t = 0.5;
        while t < 4.5 {
            det.update(t, &bad_gyro(t), Vec3::ZERO, false);
            if det.take_rotate_request() {
                rotations += 1;
            }
            t += dt;
        }
        assert_eq!(rotations, FailsafeParams::default().isolation_attempts);
    }

    #[test]
    fn accel_implausibility_detected() {
        let mut det = FailureDetector::new(FailsafeParams::default());
        let huge = |t: f64| ImuSample {
            accel: Vec3::splat(150.0),
            gyro: Vec3::ZERO,
            time: t,
        };
        run(&mut det, 0.0, 0.5, clean_imu);
        let dt = 0.004;
        let mut t = 0.5;
        while t < 4.0 {
            det.update(t, &huge(t), Vec3::ZERO, false);
            t += dt;
        }
        assert_eq!(det.active_reason(), Some(FailsafeReason::AccelImplausible));
    }

    #[test]
    fn innovation_rejection_detected_slowly() {
        let mut det = FailureDetector::new(FailsafeParams::default());
        let dt = 0.004;
        let mut t = 0.0;
        // 2 s of rejection: below the 2.5 s persistence -> still nominal.
        while t < 2.0 {
            det.update(t, &clean_imu(t), Vec3::ZERO, true);
            t += dt;
        }
        assert_eq!(det.phase(), FailsafePhase::Nominal);
        // Keep rejecting past the persistence window.
        while t < 3.0 {
            det.update(t, &clean_imu(t), Vec3::ZERO, true);
            t += dt;
        }
        assert!(matches!(
            det.phase(),
            FailsafePhase::Isolating {
                reason: FailsafeReason::InnovationRejection,
                ..
            }
        ));
    }

    #[test]
    fn failsafe_latches() {
        let mut det = FailureDetector::new(FailsafeParams::default());
        run(&mut det, 0.0, 5.0, bad_gyro);
        assert!(det.failsafe_active());
        // Clean data afterwards does not unlatch.
        run(&mut det, 5.0, 10.0, clean_imu);
        assert!(det.failsafe_active());
    }

    #[test]
    fn zero_gyro_is_plausible_when_hovering() {
        // Gyro Zeros while commanded rates are small: NOT implausible --
        // this is why the paper finds "Zeros were better handled ... in
        // comparison with the Min and Max values".
        let mut det = FailureDetector::new(FailsafeParams::default());
        let zeros = |t: f64| ImuSample {
            accel: Vec3::new(0.0, 0.0, -9.8),
            gyro: Vec3::ZERO,
            time: t,
        };
        run(&mut det, 0.0, 10.0, zeros);
        assert_eq!(det.phase(), FailsafePhase::Nominal);
    }

    #[test]
    fn dead_imu_latches_at_min_latency_without_isolation() {
        let mut det = FailureDetector::new(FailsafeParams::default());
        run(&mut det, 0.0, 1.0, clean_imu);
        let dead = |t: f64| ImuSample {
            accel: Vec3::ZERO,
            gyro: Vec3::ZERO,
            time: t,
        };
        let dt = 0.004;
        let mut t = 1.0;
        while t < 3.5 {
            det.update(t, &dead(t), Vec3::ZERO, false);
            t += dt;
        }
        match det.phase() {
            FailsafePhase::Active { since, reason } => {
                assert_eq!(reason, FailsafeReason::ImuDead);
                // Suspicion at ~1.1 s (0.1 s persist), latch at the 1.9 s
                // minimum — well before the 3.2 s isolation sequence.
                assert!(since < 1.1 + 2.0, "dead-IMU latch too slow: {since}");
                assert!(since >= 1.1 + 1.9 - 0.05, "min latency violated: {since}");
            }
            other => panic!("expected Active(ImuDead), got {other:?}"),
        }
    }

    #[test]
    fn dead_gyro_alone_is_not_imu_dead() {
        // Gyro zeros with a living accelerometer: the dead-IMU path must not
        // fire (this is the dropout the rate loop rides through).
        let mut det = FailureDetector::new(FailsafeParams::default());
        let gyro_only = |t: f64| ImuSample {
            accel: Vec3::new(0.0, 0.0, -9.8),
            gyro: Vec3::ZERO,
            time: t,
        };
        run(&mut det, 0.0, 5.0, gyro_only);
        assert_ne!(det.active_reason(), Some(FailsafeReason::ImuDead));
    }

    #[test]
    fn attitude_fd_disabled_by_default() {
        let mut det = FailureDetector::new(FailsafeParams::default());
        let dt = 0.004;
        let mut t = 0.0;
        while t < 5.0 {
            t += dt;
            det.update_with_tilt(t, &clean_imu(t), Vec3::ZERO, false, 1.5);
        }
        assert!(
            !det.failsafe_active(),
            "FD must be behind the circuit breaker"
        );
    }

    #[test]
    fn attitude_fd_latches_when_enabled() {
        let params = FailsafeParams {
            attitude_fd_enabled: true,
            ..Default::default()
        };
        let mut det = FailureDetector::new(params);
        let dt = 0.004;
        let mut t = 0.0;
        // Healthy tilt first.
        while t < 1.0 {
            t += dt;
            det.update_with_tilt(t, &clean_imu(t), Vec3::ZERO, false, 0.2);
        }
        assert!(!det.failsafe_active());
        // Tilt beyond 60 degrees for > 0.3 s.
        while t < 1.5 {
            t += dt;
            det.update_with_tilt(t, &clean_imu(t), Vec3::ZERO, false, 1.3);
        }
        assert_eq!(det.active_reason(), Some(FailsafeReason::AttitudeFailure));
    }

    #[test]
    fn attitude_fd_requires_persistence() {
        let params = FailsafeParams {
            attitude_fd_enabled: true,
            ..Default::default()
        };
        let mut det = FailureDetector::new(params);
        let dt = 0.004;
        let mut t = 0.0;
        // Alternate: brief tilt spikes below the persistence window.
        while t < 3.0 {
            t += dt;
            let tilt = if ((t * 10.0) as u64).is_multiple_of(4) {
                1.3
            } else {
                0.1
            };
            det.update_with_tilt(t, &clean_imu(t), Vec3::ZERO, false, tilt);
        }
        assert!(!det.failsafe_active());
    }

    #[test]
    fn attitude_fd_catches_a_tumble_the_rate_check_misses() {
        // Tilt ramps at 0.6 rad/s and the gyro tracks the commanded rate:
        // a healthy sensor on an unhealthy vehicle. With the FD on, the 60
        // degree limit (reached at ~1.75 s) latches within ~0.3 s; the
        // rate-based path alone never sees this tumble.
        let tumble = |params: FailsafeParams| {
            let rate = Vec3::new(0.6, 0.0, 0.0);
            latch_time(params, 10.0, |det, t| {
                let imu = ImuSample {
                    accel: Vec3::new(0.0, 0.0, -9.8),
                    gyro: rate,
                    time: t,
                };
                let tilt = (rate.x * t).min(std::f64::consts::PI);
                det.update_with_tilt(t, &imu, rate, false, tilt)
            })
        };
        let on = tumble(FailsafeParams {
            attitude_fd_enabled: true,
            ..Default::default()
        });
        assert!(on.is_some(), "FD should catch a sustained tumble");
        assert!(
            tumble(FailsafeParams::default()).is_none(),
            "the default config must not terminate on attitude"
        );
    }

    #[test]
    fn stricter_gyro_threshold_latches_what_a_looser_one_misses() {
        // A persistent 90 deg/s gyro fault around the 60 deg/s default.
        let fault = Vec3::new(90.0_f64.to_radians(), 0.0, 0.0);
        let with_threshold = |deg: f64| {
            let params = FailsafeParams {
                gyro_rate_threshold: deg.to_radians(),
                ..Default::default()
            };
            latch_time(params, 20.0, |det, t| {
                let imu = ImuSample {
                    accel: Vec3::new(0.0, 0.0, -9.8),
                    gyro: fault,
                    time: t,
                };
                det.update(t, &imu, Vec3::ZERO, false)
            })
        };
        assert!(
            with_threshold(30.0).is_some(),
            "strict threshold must detect a 90 deg/s fault"
        );
        assert!(
            with_threshold(120.0).is_none(),
            "loose threshold must miss a 90 deg/s fault"
        );
    }

    #[test]
    fn non_finite_sample_counts_as_bad() {
        let mut det = FailureDetector::new(FailsafeParams::default());
        let nan = |t: f64| ImuSample {
            accel: Vec3::new(f64::NAN, 0.0, 0.0),
            gyro: Vec3::ZERO,
            time: t,
        };
        run(&mut det, 0.0, 4.0, nan);
        assert!(det.failsafe_active());
    }
}
