//! Evaluation harness: scores detectors on labeled faulty streams.
//!
//! A [`LabeledStream`] is an IMU sample sequence with a known fault window
//! (generated through the same sensor models and fault injector the
//! campaign uses). [`evaluate`] replays it through a detector and reports
//! detection, latency, and false alarms.

use imufit_faults::{FaultInjector, FaultKind, FaultSpec, FaultTarget, InjectionWindow};
use imufit_math::rng::Pcg;
use imufit_math::Vec3;
use imufit_sensors::{Imu, ImuSample, ImuSpec};

use crate::detectors::Detector;

/// A labeled IMU stream: samples plus the ground-truth fault window.
#[derive(Debug, Clone)]
pub struct LabeledStream {
    /// The samples, in order, at a fixed rate.
    pub samples: Vec<ImuSample>,
    /// Sample interval, seconds.
    pub dt: f64,
    /// The fault window (ground truth).
    pub window: InjectionWindow,
    /// The injected fault label (e.g. "Gyro Freeze").
    pub label: String,
}

impl LabeledStream {
    /// Generates a hover stream of `seconds` at 250 Hz with one injected
    /// fault, using the standard sensor models.
    pub fn hover(
        kind: FaultKind,
        target: FaultTarget,
        window: InjectionWindow,
        seconds: f64,
        seed: u64,
    ) -> Self {
        let dt = 1.0 / 250.0;
        let spec = ImuSpec::default();
        let mut init_rng = Pcg::seed_from(seed);
        let mut imu = Imu::new(spec, &mut init_rng);
        let mut noise_rng = Pcg::seed_from(seed.wrapping_add(1));
        let mut fault_rng = Pcg::seed_from(seed.wrapping_add(2));
        let mut injector = FaultInjector::new(spec, vec![FaultSpec::new(kind, target, window)]);

        let truth_force = Vec3::new(0.0, 0.0, -imufit_math::GRAVITY);
        let truth_rate = Vec3::ZERO;
        let n = (seconds / dt).round() as usize;
        let samples = (0..n)
            .map(|_| {
                let clean = imu.sample(truth_force, truth_rate, dt, &mut noise_rng);
                injector.apply(clean, &mut fault_rng)
            })
            .collect();
        LabeledStream {
            samples,
            dt,
            window,
            label: format!("{} {}", target.label(), kind.label()),
        }
    }
}

/// The outcome of replaying one stream through one detector.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionReport {
    /// Stream label.
    pub stream: String,
    /// Detector name.
    pub detector: String,
    /// True if the detector alarmed at (or after) the fault onset.
    pub detected: bool,
    /// Seconds from fault onset to the first in-window (or later) alarm.
    pub latency: Option<f64>,
    /// Alarms raised strictly before the fault onset (false positives).
    pub false_alarms: u32,
}

/// Replays a labeled stream through a detector.
pub fn evaluate(detector: &mut dyn Detector, stream: &LabeledStream) -> DetectionReport {
    detector.reset();
    let mut false_alarms = 0;
    let mut latency = None;
    let mut previous_alarm = false;
    for (k, sample) in stream.samples.iter().enumerate() {
        let t = k as f64 * stream.dt;
        let alarm = detector.observe(sample, stream.dt);
        if alarm && t < stream.window.start {
            // Count alarm onsets, not alarm-high samples.
            if !previous_alarm {
                false_alarms += 1;
            }
        }
        if alarm && t >= stream.window.start && latency.is_none() {
            latency = Some(t - stream.window.start);
        }
        previous_alarm = alarm;
    }
    DetectionReport {
        stream: stream.label.clone(),
        detector: detector.name().to_string(),
        detected: latency.is_some(),
        latency,
        false_alarms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detectors::{EnsembleDetector, StuckDetector, ThresholdDetector};

    #[test]
    fn labeled_stream_shape() {
        let s = LabeledStream::hover(
            FaultKind::Freeze,
            FaultTarget::Imu,
            InjectionWindow::new(5.0, 5.0),
            15.0,
            1,
        );
        assert_eq!(s.samples.len(), 3750);
        assert_eq!(s.label, "IMU Freeze");
        // Faulted region repeats the frozen sample exactly.
        let k_in = (6.0 / s.dt) as usize;
        assert_eq!(s.samples[k_in].accel, s.samples[k_in + 1].accel);
        // Clean region varies.
        assert_ne!(s.samples[10].accel, s.samples[11].accel);
    }

    #[test]
    fn stuck_detector_scores_freeze_fast() {
        let stream = LabeledStream::hover(
            FaultKind::Freeze,
            FaultTarget::Imu,
            InjectionWindow::new(10.0, 10.0),
            25.0,
            2,
        );
        let mut det = StuckDetector::new(8);
        let report = evaluate(&mut det, &stream);
        assert!(report.detected, "{report:?}");
        assert!(
            report.latency.unwrap() < 0.2,
            "latency {:?}",
            report.latency
        );
        assert_eq!(report.false_alarms, 0);
    }

    #[test]
    fn threshold_misses_freeze_but_catches_max() {
        let freeze = LabeledStream::hover(
            FaultKind::Freeze,
            FaultTarget::Imu,
            InjectionWindow::new(10.0, 10.0),
            25.0,
            3,
        );
        let max = LabeledStream::hover(
            FaultKind::Max,
            FaultTarget::Imu,
            InjectionWindow::new(10.0, 10.0),
            25.0,
            3,
        );
        let mut det = ThresholdDetector::px4_defaults();
        assert!(
            !evaluate(&mut det, &freeze).detected,
            "freeze looks plausible to thresholds"
        );
        let report = evaluate(&mut det, &max);
        assert!(report.detected);
        assert!(report.latency.unwrap() < 0.5);
    }

    #[test]
    fn ensemble_detects_every_primitive_on_imu() {
        let mut det = EnsembleDetector::full();
        // Two stream families: seeds `4 + id` and the detection-latency
        // matrix's `2024 + id`.
        for base_seed in [4, 2024] {
            for kind in FaultKind::ALL {
                let stream = LabeledStream::hover(
                    kind,
                    FaultTarget::Imu,
                    InjectionWindow::new(10.0, 10.0),
                    25.0,
                    base_seed + kind.id(),
                );
                let r = evaluate(&mut det, &stream);
                // Noise on the *gyro channel* is large; Zeros/Freeze are
                // stuck; Min/Max/Random/Fixed are out of bounds or stuck.
                // Everything must be caught with zero false alarms.
                assert!(r.detected, "{} missed", r.stream);
                assert_eq!(r.false_alarms, 0, "{} false-alarmed", r.stream);
            }
        }
    }

    #[test]
    fn detection_latency_is_ordered_by_severity() {
        // Saturation should be caught faster than a freeze (which needs the
        // stuck window to fill).
        let mut det = EnsembleDetector::full();
        let max = evaluate(
            &mut det,
            &LabeledStream::hover(
                FaultKind::Max,
                FaultTarget::Gyrometer,
                InjectionWindow::new(10.0, 10.0),
                25.0,
                5,
            ),
        );
        assert!(max.detected);
        assert!(
            max.latency.unwrap() <= 0.25,
            "saturation latency {:?}",
            max.latency
        );
    }
}
