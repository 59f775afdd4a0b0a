//! Per-sensor innovation-consistency monitors and the graceful-degradation
//! ladder.
//!
//! The EKF's innovation gate is a per-measurement defense: one bad fix is
//! rejected and forgotten. A *slow* attack — a GPS spoof ramp walking the
//! position off at centimetres per second — keeps every individual
//! innovation inside the gate while steadily biasing the state. These
//! monitors close that gap by watching the *windowed mean* of the
//! normalized innovation test ratios: a nominal sensor hovers around
//! `1/gate_sigma²` (≈ 0.04 at the default 5-sigma gate), so a sustained
//! mean several times that is a consistency violation even though no single
//! measurement was rejected.
//!
//! Each aiding sensor (GPS, barometer, magnetometer) gets its own monitor
//! and walks its own ladder:
//!
//! ```text
//! Nominal ──mean > reject_threshold──▶ Rejecting ──mean > drop_threshold──▶ Dropped
//!    ▲                                     │                                  │
//!    └────────mean recovers────────────────┘                            (latched)
//! ```
//!
//! * **Rejecting** — the sensor is suspect; fusion continues (the EKF's own
//!   gate still filters) but the transition is reported so the black box
//!   records when suspicion began.
//! * **Dropped** — consistency is gone; the simulator stops fusing the
//!   sensor entirely. Dropping GPS means dead-reckoning on inertial + baro;
//!   if that persists past [`MonitorParams::failsafe_after_s`] the vehicle
//!   triggers failsafe rather than drift indefinitely on an unaided
//!   solution. Dropped latches: a spoofer that backs off should not regain
//!   the filter's trust mid-flight.
//!
//! Monitors are opt-in (`SimConfig::innovation_monitors`), keeping the
//! paper-default campaign bit-identical to the seeded golden results.

/// Per-observation ceiling on a ratio's contribution to the windowed mean.
/// One enormous innovation — a spoof-clear snap-back, a single wild fix —
/// must not teleport the mean past both thresholds in a single step: the
/// ladder walks its stages in order, which the black box and triage
/// timeline rely on. Sustained evidence still saturates the mean at this
/// cap, far above any drop threshold.
const RATIO_CAP: f64 = 2.0;

/// Tuning for one innovation-consistency monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorParams {
    /// Sliding-window length, in fused measurements.
    pub window: usize,
    /// Windowed-mean test-ratio above which the sensor is suspect.
    pub reject_threshold: f64,
    /// Windowed-mean test-ratio above which the sensor is dropped.
    pub drop_threshold: f64,
    /// Seconds of GPS-dropped dead-reckoning tolerated before failsafe.
    pub failsafe_after_s: f64,
}

impl Default for MonitorParams {
    /// A nominal sensor's expected ratio is `1/gate_sigma²` ≈ 0.04; the
    /// reject threshold sits ~4x above that and the drop threshold ~9x,
    /// far outside noise but well below the 1.0 a hard gate failure needs.
    fn default() -> Self {
        MonitorParams {
            window: 20,
            reject_threshold: 0.15,
            drop_threshold: 0.35,
            failsafe_after_s: 5.0,
        }
    }
}

/// Where a sensor sits on the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MonitorStage {
    /// Innovations are consistent; fuse normally.
    Nominal,
    /// Sustained inconsistency; fusion continues under suspicion.
    Rejecting,
    /// Consistency lost; the sensor is excluded from fusion (latched).
    Dropped,
}

impl MonitorStage {
    /// Stable code packed into trace-event params (and black boxes).
    pub fn code(self) -> u32 {
        match self {
            MonitorStage::Nominal => 0,
            MonitorStage::Rejecting => 1,
            MonitorStage::Dropped => 2,
        }
    }

    /// Human-readable name used in black-box events and triage timelines.
    pub fn label(self) -> &'static str {
        match self {
            MonitorStage::Nominal => "nominal",
            MonitorStage::Rejecting => "rejecting",
            MonitorStage::Dropped => "dropped",
        }
    }
}

/// A sliding-window consistency check over one sensor's test ratios.
#[derive(Debug, Clone)]
pub struct InnovationMonitor {
    params: MonitorParams,
    /// Fixed ring of the last `params.window` observed ratios.
    ratios: Vec<f64>,
    next: usize,
    filled: usize,
    stage: MonitorStage,
}

impl InnovationMonitor {
    /// A fresh monitor at [`MonitorStage::Nominal`].
    pub fn new(params: MonitorParams) -> Self {
        InnovationMonitor {
            ratios: vec![0.0; params.window.max(1)],
            params,
            next: 0,
            filled: 0,
            stage: MonitorStage::Nominal,
        }
    }

    /// Records one innovation test ratio and walks the ladder. Returns the
    /// new stage when this observation caused a transition, `None`
    /// otherwise — callers emit exactly one event per edge.
    pub fn observe(&mut self, ratio: f64) -> Option<MonitorStage> {
        // A non-finite ratio is a hard fusion failure; treat it as the
        // worst representable evidence rather than poisoning the mean.
        let ratio = if ratio.is_finite() { ratio } else { RATIO_CAP };
        let ratio = ratio.min(RATIO_CAP);
        self.ratios[self.next] = ratio;
        self.next = (self.next + 1) % self.ratios.len();
        self.filled = (self.filled + 1).min(self.ratios.len());

        // Judge only full windows: a couple of startup transients must not
        // drop a sensor before the mean is meaningful.
        if self.filled < self.ratios.len() {
            return None;
        }
        let mean = self.ratios.iter().sum::<f64>() / self.ratios.len() as f64;

        let next_stage = match self.stage {
            // Dropped is latched — no path back.
            MonitorStage::Dropped => MonitorStage::Dropped,
            _ if mean > self.params.drop_threshold => MonitorStage::Dropped,
            _ if mean > self.params.reject_threshold => MonitorStage::Rejecting,
            MonitorStage::Rejecting => MonitorStage::Nominal,
            MonitorStage::Nominal => MonitorStage::Nominal,
        };
        if next_stage == self.stage {
            return None;
        }
        self.stage = next_stage;
        Some(next_stage)
    }

    /// The sensor's current ladder stage.
    pub fn stage(&self) -> MonitorStage {
        self.stage
    }

    /// The tuning this monitor was built with.
    pub fn params(&self) -> MonitorParams {
        self.params
    }

    /// True while the simulator should keep fusing this sensor.
    pub fn allows_fusion(&self) -> bool {
        self.stage != MonitorStage::Dropped
    }

    /// The current windowed mean (0.0 until the window fills).
    pub fn windowed_mean(&self) -> f64 {
        if self.filled < self.ratios.len() {
            return 0.0;
        }
        self.ratios.iter().sum::<f64>() / self.ratios.len() as f64
    }
}

/// The per-sensor monitor bank one vehicle carries.
#[derive(Debug, Clone)]
pub struct DegradationMonitors {
    /// GPS position/velocity consistency (worst axis per fix).
    pub gps: InnovationMonitor,
    /// Barometer height consistency.
    pub baro: InnovationMonitor,
    /// Magnetometer yaw consistency.
    pub mag: InnovationMonitor,
}

impl DegradationMonitors {
    /// Three fresh monitors sharing one parameter set.
    pub fn new(params: MonitorParams) -> Self {
        DegradationMonitors {
            gps: InnovationMonitor::new(params),
            baro: InnovationMonitor::new(params),
            mag: InnovationMonitor::new(params),
        }
    }

    /// True when GPS is dropped and the vehicle is dead-reckoning on
    /// inertial (+ whatever other aiding survives).
    pub fn dead_reckoning(&self) -> bool {
        !self.gps.allows_fusion()
    }
}

impl Default for DegradationMonitors {
    fn default() -> Self {
        DegradationMonitors::new(MonitorParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> MonitorParams {
        MonitorParams::default()
    }

    #[test]
    fn nominal_ratios_never_transition() {
        let mut m = InnovationMonitor::new(params());
        // E[ratio] for a healthy 5-sigma-gated channel is ~0.04.
        for _ in 0..500 {
            assert_eq!(m.observe(0.04), None);
        }
        assert_eq!(m.stage(), MonitorStage::Nominal);
        assert!(m.allows_fusion());
    }

    #[test]
    fn sustained_inconsistency_walks_the_ladder_in_order() {
        let mut m = InnovationMonitor::new(params());
        let mut edges = Vec::new();
        // A spoof ramp: ratios grow slowly but stay under the 1.0 gate.
        for i in 0..200 {
            let ratio = 0.004 * i as f64;
            if let Some(stage) = m.observe(ratio) {
                edges.push(stage);
            }
        }
        assert_eq!(edges, vec![MonitorStage::Rejecting, MonitorStage::Dropped]);
        assert!(!m.allows_fusion());
    }

    #[test]
    fn dropped_is_latched() {
        let mut m = InnovationMonitor::new(params());
        for _ in 0..100 {
            m.observe(0.9);
        }
        assert_eq!(m.stage(), MonitorStage::Dropped);
        // The attacker backs off; trust is not restored.
        for _ in 0..500 {
            assert_eq!(m.observe(0.0), None);
        }
        assert_eq!(m.stage(), MonitorStage::Dropped);
    }

    #[test]
    fn rejecting_recovers_to_nominal() {
        let p = params();
        let mut m = InnovationMonitor::new(p);
        // Push the mean between reject and drop thresholds.
        for _ in 0..p.window {
            m.observe(0.2);
        }
        assert_eq!(m.stage(), MonitorStage::Rejecting);
        assert!(m.allows_fusion());
        let mut edges = Vec::new();
        for _ in 0..p.window {
            if let Some(stage) = m.observe(0.01) {
                edges.push(stage);
            }
        }
        assert_eq!(edges, vec![MonitorStage::Nominal]);
    }

    #[test]
    fn startup_transients_inside_one_window_are_forgiven() {
        let mut m = InnovationMonitor::new(params());
        // Huge ratios, but fewer than a full window: no judgment yet.
        for _ in 0..params().window - 1 {
            assert_eq!(m.observe(50.0), None);
        }
        assert_eq!(m.stage(), MonitorStage::Nominal);
    }

    #[test]
    fn non_finite_ratios_count_as_hard_failures() {
        let mut m = InnovationMonitor::new(params());
        for _ in 0..params().window {
            m.observe(f64::INFINITY);
        }
        assert_eq!(m.stage(), MonitorStage::Dropped);
    }

    #[test]
    fn single_outlier_cannot_skip_rejecting() {
        let p = params();
        let mut m = InnovationMonitor::new(p);
        for _ in 0..p.window {
            m.observe(0.04);
        }
        // A step inconsistency with absurd ratios (a spoof-clear snap-back)
        // still walks the ladder one stage at a time.
        let mut edges = Vec::new();
        for _ in 0..p.window {
            if let Some(stage) = m.observe(1.0e6) {
                edges.push(stage);
            }
        }
        assert_eq!(edges, vec![MonitorStage::Rejecting, MonitorStage::Dropped]);
    }

    #[test]
    fn gps_drop_means_dead_reckoning() {
        let mut bank = DegradationMonitors::default();
        assert!(!bank.dead_reckoning());
        for _ in 0..100 {
            bank.gps.observe(0.9);
        }
        assert!(bank.dead_reckoning());
        // Baro and mag ladders are independent.
        assert!(bank.baro.allows_fusion());
        assert!(bank.mag.allows_fusion());
    }

    #[test]
    fn stage_codes_and_labels_are_stable() {
        assert_eq!(MonitorStage::Nominal.code(), 0);
        assert_eq!(MonitorStage::Rejecting.code(), 1);
        assert_eq!(MonitorStage::Dropped.code(), 2);
        assert_eq!(MonitorStage::Dropped.label(), "dropped");
    }
}
