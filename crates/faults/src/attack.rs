//! The sensor-attack catalog: false-data injection beyond the IMU.
//!
//! Table I covers hardware-style corruption of the inertial streams; this
//! module covers the *adversarial* fault surface on the aiding sensors the
//! EKF fuses (MIXED-SENSE-style false-data injection) plus transient
//! corruption of the navigation state itself (Glitch-in-the-Sky-style
//! single-event upsets):
//!
//! | Attack | Stream during the window |
//! |---|---|
//! | [`AttackKind::GpsSpoofRamp`] | position/velocity walk off truth at a slow, innovation-gate-evading ramp |
//! | [`AttackKind::BaroDrift`] | reported altitude (and pressure) drift away at a constant rate |
//! | [`AttackKind::MagBiasRotation`] | a soft-iron bias vector rotates through the body-frame field |
//! | [`AttackKind::StateGlitch`] | the estimator's velocity state takes a single-tick kick |
//!
//! Every attack is confined to an [`InjectionWindow`] and a [`FaultScope`]
//! (sensor instance selection; the testbed flies one receiver of each kind,
//! instance 0), and draws its random parameters exactly once, at window
//! activation, from the dedicated per-run attack RNG stream — outside the
//! window every sample passes through bit-identical.

use imufit_math::rng::Pcg;
use imufit_math::Vec3;
use imufit_sensors::{BaroSample, GpsSample, MagSample};

use crate::scope::FaultScope;
use crate::target::FaultTarget;
use crate::window::InjectionWindow;

/// Pressure scale height of the isothermal barometric formula the sensor
/// model uses (meters): spoofed altitudes keep their pressure channel
/// physically consistent through this.
const PRESSURE_SCALE_HEIGHT: f64 = 8_434.0;

/// Body-frame rotation rate of the soft-iron bias vector, rad/s: slow
/// enough that the yaw aid degrades smoothly instead of stepping.
const MAG_ROTATION_RATE: f64 = 0.25;

/// One entry of the attack catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AttackKind {
    /// GNSS spoofing: reported position walks off truth at a constant
    /// horizontal rate (m/s of intensity) in a random direction, with the
    /// velocity channel biased consistently so the walk-off stays inside
    /// the EKF's innovation gates.
    GpsSpoofRamp,
    /// Barometric pressure drift: reported altitude ramps away from truth
    /// at `intensity` m/s in a random vertical direction.
    BaroDrift,
    /// Soft-iron bias rotation: a bias vector of `intensity` Gauss rotates
    /// about the body z axis through the measured field, sweeping the
    /// extracted yaw.
    MagBiasRotation,
    /// A single-tick glitch in the navigation filter's velocity state of
    /// `intensity` m/s in a random direction (a memory upset, not a sensor
    /// fault).
    StateGlitch,
}

impl AttackKind {
    /// Every attack kind, in stable id order.
    pub fn all() -> [AttackKind; 4] {
        [
            AttackKind::GpsSpoofRamp,
            AttackKind::BaroDrift,
            AttackKind::MagBiasRotation,
            AttackKind::StateGlitch,
        ]
    }

    /// The sensor (or state) this attack corrupts.
    pub fn target(self) -> FaultTarget {
        match self {
            AttackKind::GpsSpoofRamp => FaultTarget::Gps,
            AttackKind::BaroDrift => FaultTarget::Barometer,
            AttackKind::MagBiasRotation => FaultTarget::Magnetometer,
            AttackKind::StateGlitch => FaultTarget::EstimatorState,
        }
    }

    /// Scenario/CSV label.
    pub fn label(self) -> &'static str {
        match self {
            AttackKind::GpsSpoofRamp => "gps-spoof-ramp",
            AttackKind::BaroDrift => "baro-drift",
            AttackKind::MagBiasRotation => "mag-bias-rotation",
            AttackKind::StateGlitch => "state-glitch",
        }
    }

    /// Parses a scenario label back into a kind.
    pub fn parse(label: &str) -> Option<AttackKind> {
        AttackKind::all().into_iter().find(|k| k.label() == label)
    }

    /// A stable small integer id for RNG stream derivation and wire codecs.
    pub fn id(self) -> u64 {
        match self {
            AttackKind::GpsSpoofRamp => 1,
            AttackKind::BaroDrift => 2,
            AttackKind::MagBiasRotation => 3,
            AttackKind::StateGlitch => 4,
        }
    }

    /// The default intensity (unit depends on the kind; see the variant
    /// docs): chosen so each attack meaningfully degrades navigation within
    /// a 30 s window while staying inside the EKF's innovation gates.
    pub fn default_intensity(self) -> f64 {
        match self {
            AttackKind::GpsSpoofRamp => 1.0,     // m/s walk-off
            AttackKind::BaroDrift => 0.6,        // m/s altitude drift
            AttackKind::MagBiasRotation => 0.18, // Gauss soft-iron magnitude
            AttackKind::StateGlitch => 2.5,      // m/s velocity kick
        }
    }
}

impl std::fmt::Display for AttackKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One scheduled attack: a kind, its activation window, the instance scope
/// and an intensity scalar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackSpec {
    /// What is injected.
    pub kind: AttackKind,
    /// When it is active.
    pub window: InjectionWindow,
    /// Which sensor instance it corrupts (the testbed flies one receiver of
    /// each kind, instance 0; an out-of-range instance scope never touches
    /// anything — same semantics as the IMU injector).
    pub scope: FaultScope,
    /// Kind-specific magnitude; see [`AttackKind::default_intensity`].
    pub intensity: f64,
}

impl AttackSpec {
    /// An attack with the kind's default intensity, corrupting all
    /// instances of its sensor.
    pub fn new(kind: AttackKind, window: InjectionWindow) -> Self {
        AttackSpec {
            kind,
            window,
            scope: FaultScope::All,
            intensity: kind.default_intensity(),
        }
    }

    /// The same attack with a different intensity.
    pub fn with_intensity(mut self, intensity: f64) -> Self {
        self.intensity = intensity;
        self
    }

    /// The same attack with an explicit instance scope.
    pub fn with_scope(mut self, scope: FaultScope) -> Self {
        self.scope = scope;
        self
    }

    /// The targeted component.
    pub fn target(self) -> FaultTarget {
        self.kind.target()
    }

    /// Event/timeline label, e.g. `"GPS gps-spoof-ramp"`.
    pub fn label(self) -> String {
        format!("{} {}", self.target().label(), self.kind.label())
    }
}

/// Parameters drawn once, at window activation.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DrawnParams {
    /// Horizontal walk-off direction (GPS) — unit vector, zero z.
    gps_dir: Vec3,
    /// Drift direction for the baro ramp: +1 (up) or -1 (down).
    baro_sign: f64,
    /// Initial soft-iron bias vector, body frame.
    mag_bias: Vec3,
    /// The single-tick velocity kick.
    glitch_kick: Vec3,
    /// Set until the glitch has been delivered (exactly once).
    glitch_armed: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Pending,
    Active(DrawnParams),
    Expired,
}

#[derive(Debug, Clone, PartialEq)]
struct ScheduledAttack {
    spec: AttackSpec,
    phase: Phase,
}

/// Applies scheduled attacks to aiding-sensor samples at each sensor's own
/// sample rate.
///
/// Call [`AttackInjector::advance`] once per physics tick (it performs the
/// activation draws and expiry), then the `apply_*` methods on whichever
/// sensor samples this tick produced. With no scheduled attacks (or outside
/// every window) all of them are exact no-ops: no RNG draws, samples
/// returned bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackInjector {
    attacks: Vec<ScheduledAttack>,
}

impl AttackInjector {
    /// Creates an injector for the given schedule.
    pub fn new(attacks: Vec<AttackSpec>) -> Self {
        AttackInjector {
            attacks: attacks
                .into_iter()
                .map(|spec| ScheduledAttack {
                    spec,
                    phase: Phase::Pending,
                })
                .collect(),
        }
    }

    /// An injector with no scheduled attacks.
    pub fn passthrough() -> Self {
        AttackInjector::new(Vec::new())
    }

    /// The scheduled attack specs.
    pub fn specs(&self) -> Vec<AttackSpec> {
        self.attacks.iter().map(|a| a.spec).collect()
    }

    /// True when no attacks are scheduled at all.
    pub fn is_empty(&self) -> bool {
        self.attacks.is_empty()
    }

    /// True if any attack window contains `t`.
    pub fn any_active(&self, t: f64) -> bool {
        self.attacks.iter().any(|a| a.spec.window.contains(t))
    }

    /// Advances window phases: activation draws parameters from `rng`
    /// (exactly once per attack), expiry freezes them. Deterministic given
    /// the schedule and the stream — and a pure no-op on the stream while
    /// no window edge is crossed.
    pub fn advance(&mut self, t: f64, rng: &mut Pcg) {
        for attack in &mut self.attacks {
            match attack.phase {
                Phase::Pending if attack.spec.window.contains(t) => {
                    attack.phase = Phase::Active(Self::draw(attack.spec, rng));
                    imufit_obs::counter_labeled(
                        "attacks_injected_total",
                        "kind",
                        attack.spec.kind.label(),
                    )
                    .inc();
                }
                Phase::Active(_) if attack.spec.window.is_past(t) => {
                    attack.phase = Phase::Expired;
                }
                _ => {}
            }
        }
    }

    /// Activation draws. Every kind draws its own fixed number of values so
    /// schedules stay deterministic regardless of which sensors sample when.
    fn draw(spec: AttackSpec, rng: &mut Pcg) -> DrawnParams {
        let mut params = DrawnParams {
            gps_dir: Vec3::ZERO,
            baro_sign: 1.0,
            mag_bias: Vec3::ZERO,
            glitch_kick: Vec3::ZERO,
            glitch_armed: false,
        };
        match spec.kind {
            AttackKind::GpsSpoofRamp => {
                let angle = rng.uniform_range(-std::f64::consts::PI, std::f64::consts::PI);
                params.gps_dir = Vec3::new(angle.cos(), angle.sin(), 0.0);
            }
            AttackKind::BaroDrift => {
                params.baro_sign = if rng.uniform() < 0.5 { -1.0 } else { 1.0 };
            }
            AttackKind::MagBiasRotation => {
                let v = Vec3::new(rng.normal(), rng.normal(), rng.normal());
                let norm = v.norm();
                params.mag_bias = if norm > 1e-12 {
                    v * (spec.intensity / norm)
                } else {
                    Vec3::new(spec.intensity, 0.0, 0.0)
                };
            }
            AttackKind::StateGlitch => {
                let v = Vec3::new(rng.normal(), rng.normal(), rng.normal());
                let norm = v.norm();
                params.glitch_kick = if norm > 1e-12 {
                    v * (spec.intensity / norm)
                } else {
                    Vec3::new(spec.intensity, 0.0, 0.0)
                };
                params.glitch_armed = true;
            }
        }
        params
    }

    /// Corrupts a GNSS fix in place (instance `0`): the reported position
    /// walks off truth along the drawn direction at `intensity` m/s of
    /// window-elapsed time, with the velocity channel biased consistently.
    pub fn apply_gps(&self, fix: &mut GpsSample, t: f64) {
        for attack in &self.attacks {
            let Phase::Active(params) = attack.phase else {
                continue;
            };
            if attack.spec.kind != AttackKind::GpsSpoofRamp
                || !attack.spec.window.contains(t)
                || !attack.spec.scope.affects(0)
            {
                continue;
            }
            let elapsed = t - attack.spec.window.start;
            fix.position += params.gps_dir * (attack.spec.intensity * elapsed);
            fix.velocity += params.gps_dir * attack.spec.intensity;
        }
    }

    /// Corrupts a barometer sample in place (instance `0`): altitude ramps
    /// at `intensity` m/s, and the pressure channel is rescaled so the pair
    /// stays consistent with the isothermal formula.
    pub fn apply_baro(&self, sample: &mut BaroSample, t: f64) {
        for attack in &self.attacks {
            let Phase::Active(params) = attack.phase else {
                continue;
            };
            if attack.spec.kind != AttackKind::BaroDrift
                || !attack.spec.window.contains(t)
                || !attack.spec.scope.affects(0)
            {
                continue;
            }
            let elapsed = t - attack.spec.window.start;
            let delta = params.baro_sign * attack.spec.intensity * elapsed;
            sample.altitude += delta;
            sample.pressure_pa *= (-delta / PRESSURE_SCALE_HEIGHT).exp();
        }
    }

    /// Corrupts a magnetometer sample in place (instance `0`): the drawn
    /// soft-iron bias vector, rotated about body z by the window-elapsed
    /// angle, is added to the measured field.
    pub fn apply_mag(&self, sample: &mut MagSample, t: f64) {
        for attack in &self.attacks {
            let Phase::Active(params) = attack.phase else {
                continue;
            };
            if attack.spec.kind != AttackKind::MagBiasRotation
                || !attack.spec.window.contains(t)
                || !attack.spec.scope.affects(0)
            {
                continue;
            }
            let theta = MAG_ROTATION_RATE * (t - attack.spec.window.start);
            let (s, c) = theta.sin_cos();
            let b = params.mag_bias;
            sample.field += Vec3::new(c * b.x - s * b.y, s * b.x + c * b.y, b.z);
        }
    }

    /// Consumes the pending single-tick state glitch, if one activates at
    /// `t`: returns the velocity kick to add to the estimator state. Each
    /// scheduled glitch fires exactly once.
    pub fn take_state_glitch(&mut self, t: f64) -> Option<Vec3> {
        for attack in &mut self.attacks {
            let Phase::Active(ref mut params) = attack.phase else {
                continue;
            };
            if attack.spec.kind == AttackKind::StateGlitch
                && params.glitch_armed
                && attack.spec.window.contains(t)
                && attack.spec.scope.affects(0)
            {
                params.glitch_armed = false;
                return Some(params.glitch_kick);
            }
        }
        None
    }
}

/// A catalog row tying a real-world sensor attack from the literature to
/// the primitive that represents it — the beyond-IMU companion of
/// [`crate::catalog::TABLE_I`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RealWorldAttack {
    /// Attack family, as named in the literature.
    pub name: &'static str,
    /// Where it has been demonstrated.
    pub demonstrated_by: &'static str,
    /// The injection primitive representing it.
    pub primitive: AttackKind,
}

/// The attack catalog: the documented sensor-attack families each
/// [`AttackKind`] primitive represents.
pub const ATTACK_CATALOG: [RealWorldAttack; 6] = [
    RealWorldAttack {
        name: "GNSS spoofing (slow drag-off)",
        demonstrated_by: "MIXED-SENSE-style false-data injection; civil GPS spoofers",
        primitive: AttackKind::GpsSpoofRamp,
    },
    RealWorldAttack {
        name: "GNSS meaconing / replay",
        demonstrated_by: "record-and-replay front ends",
        primitive: AttackKind::GpsSpoofRamp,
    },
    RealWorldAttack {
        name: "Barometer port tampering / pressure injection",
        demonstrated_by: "static-port blockage and chamber attacks",
        primitive: AttackKind::BaroDrift,
    },
    RealWorldAttack {
        name: "Barometer icing drift",
        demonstrated_by: "environmental static-system failures",
        primitive: AttackKind::BaroDrift,
    },
    RealWorldAttack {
        name: "Magnetic interference sweep",
        demonstrated_by: "electromagnet payload / hard-soft-iron manipulation",
        primitive: AttackKind::MagBiasRotation,
    },
    RealWorldAttack {
        name: "Single-event upset in navigation memory",
        demonstrated_by: "Glitch-in-the-Sky-style fault injection",
        primitive: AttackKind::StateGlitch,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    fn gps_fix(t: f64) -> GpsSample {
        let _ = t;
        GpsSample {
            position: Vec3::new(10.0, -4.0, -30.0),
            velocity: Vec3::new(2.0, 0.5, 0.0),
            horizontal_accuracy: 1.2,
            vertical_accuracy: 1.8,
        }
    }

    fn baro_sample() -> BaroSample {
        BaroSample {
            altitude: 30.0,
            pressure_pa: imufit_sensors::baro_pressure(46.0),
        }
    }

    fn mag_sample() -> MagSample {
        MagSample {
            field: Vec3::new(0.25, 0.05, 0.36),
        }
    }

    fn spoof(start: f64, dur: f64) -> AttackInjector {
        AttackInjector::new(vec![AttackSpec::new(
            AttackKind::GpsSpoofRamp,
            InjectionWindow::new(start, dur),
        )])
    }

    #[test]
    fn catalog_covers_every_kind() {
        for kind in AttackKind::all() {
            assert!(
                ATTACK_CATALOG.iter().any(|row| row.primitive == kind),
                "no catalog row for {kind}"
            );
        }
    }

    #[test]
    fn labels_round_trip() {
        for kind in AttackKind::all() {
            assert_eq!(AttackKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(AttackKind::parse("nonsense"), None);
    }

    #[test]
    fn ids_are_distinct_and_targets_beyond_imu() {
        let mut ids: Vec<u64> = AttackKind::all().iter().map(|k| k.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
        for kind in AttackKind::all() {
            assert!(!kind.target().is_imu_component(), "{kind}");
        }
    }

    #[test]
    fn outside_window_samples_pass_bit_identical() {
        let mut inj = spoof(90.0, 10.0);
        let mut rng = Pcg::seed_from(1);
        for t in [0.0, 50.0, 89.99, 100.0, 101.0] {
            inj.advance(t, &mut rng);
            let clean = gps_fix(t);
            let mut fix = clean;
            inj.apply_gps(&mut fix, t);
            if !(90.0..100.0).contains(&t) {
                assert_eq!(fix, clean, "t={t}");
            }
        }
    }

    #[test]
    fn inactive_injector_never_draws_rng() {
        let mut inj = AttackInjector::passthrough();
        let mut rng = Pcg::seed_from(7);
        let mut reference = Pcg::seed_from(7);
        for i in 0..100 {
            inj.advance(i as f64, &mut rng);
            let mut fix = gps_fix(i as f64);
            inj.apply_gps(&mut fix, i as f64);
        }
        assert_eq!(rng.uniform(), reference.uniform(), "stream was consumed");
    }

    #[test]
    fn spoof_ramp_grows_linearly_and_is_horizontal() {
        let mut inj = spoof(90.0, 30.0);
        let mut rng = Pcg::seed_from(3);
        inj.advance(95.0, &mut rng);
        let clean = gps_fix(95.0);
        let mut at5 = clean;
        inj.apply_gps(&mut at5, 95.0);
        let mut at20 = clean;
        inj.apply_gps(&mut at20, 110.0);
        let off5 = at5.position - clean.position;
        let off20 = at20.position - clean.position;
        assert!(
            (off5.norm() - 5.0).abs() < 1e-9,
            "5 s offset {}",
            off5.norm()
        );
        assert!((off20.norm() - 20.0).abs() < 1e-9);
        assert_eq!(off5.z, 0.0, "spoof walk-off is horizontal");
        // Velocity biased along the same direction at the ramp rate.
        let dv = at5.velocity - clean.velocity;
        assert!((dv.norm() - 1.0).abs() < 1e-9);
        assert!(dv.dot(off5) > 0.0);
    }

    #[test]
    fn spoof_is_deterministic_given_seed() {
        let run = |seed| {
            let mut inj = spoof(90.0, 30.0);
            let mut rng = Pcg::seed_from(seed);
            inj.advance(90.0, &mut rng);
            let mut fix = gps_fix(100.0);
            inj.apply_gps(&mut fix, 100.0);
            fix
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).position, run(6).position);
    }

    #[test]
    fn baro_drift_keeps_pressure_consistent() {
        let mut inj = AttackInjector::new(vec![AttackSpec::new(
            AttackKind::BaroDrift,
            InjectionWindow::new(10.0, 20.0),
        )]);
        let mut rng = Pcg::seed_from(11);
        inj.advance(10.0, &mut rng);
        let clean = baro_sample();
        let mut s = clean;
        inj.apply_baro(&mut s, 20.0);
        let delta = s.altitude - clean.altitude;
        assert!(
            (delta.abs() - 6.0).abs() < 1e-9,
            "10 s at 0.6 m/s, got {delta}"
        );
        // The pressure channel moved the way the isothermal formula says.
        let expected = clean.pressure_pa * (-delta / 8_434.0).exp();
        assert!((s.pressure_pa - expected).abs() < 1e-9);
    }

    #[test]
    fn mag_bias_rotates_through_the_window() {
        let mut inj = AttackInjector::new(vec![AttackSpec::new(
            AttackKind::MagBiasRotation,
            InjectionWindow::new(0.0, 30.0),
        )]);
        let mut rng = Pcg::seed_from(2);
        inj.advance(0.0, &mut rng);
        let clean = mag_sample();
        let mut a = clean;
        inj.apply_mag(&mut a, 1.0);
        let mut b = clean;
        inj.apply_mag(&mut b, 9.0);
        let da = a.field - clean.field;
        let db = b.field - clean.field;
        // Bias magnitude is constant (a rotation), direction moves.
        assert!((da.norm() - 0.18).abs() < 1e-9);
        assert!((db.norm() - 0.18).abs() < 1e-9);
        assert!((da - db).norm() > 1e-3, "bias should rotate over time");
        assert_eq!(da.z, db.z, "rotation is about body z");
    }

    #[test]
    fn state_glitch_fires_exactly_once() {
        let mut inj = AttackInjector::new(vec![AttackSpec::new(
            AttackKind::StateGlitch,
            InjectionWindow::new(5.0, 10.0),
        )]);
        let mut rng = Pcg::seed_from(9);
        inj.advance(4.0, &mut rng);
        assert_eq!(inj.take_state_glitch(4.0), None, "before the window");
        inj.advance(5.0, &mut rng);
        let kick = inj
            .take_state_glitch(5.0)
            .expect("glitch fires at activation");
        assert!((kick.norm() - 2.5).abs() < 1e-9);
        assert_eq!(inj.take_state_glitch(5.004), None, "single-tick only");
        inj.advance(20.0, &mut rng);
        assert_eq!(inj.take_state_glitch(20.0), None);
    }

    #[test]
    fn out_of_range_instance_scope_never_corrupts() {
        let spec = AttackSpec::new(AttackKind::GpsSpoofRamp, InjectionWindow::new(0.0, 50.0))
            .with_scope(FaultScope::Instance(1));
        let mut inj = AttackInjector::new(vec![spec]);
        let mut rng = Pcg::seed_from(4);
        inj.advance(10.0, &mut rng);
        let clean = gps_fix(10.0);
        let mut fix = clean;
        inj.apply_gps(&mut fix, 10.0);
        assert_eq!(fix, clean);
    }

    #[test]
    fn intensity_override_scales_the_ramp() {
        let spec = AttackSpec::new(AttackKind::GpsSpoofRamp, InjectionWindow::new(0.0, 100.0))
            .with_intensity(0.25);
        let mut inj = AttackInjector::new(vec![spec]);
        let mut rng = Pcg::seed_from(8);
        inj.advance(0.0, &mut rng);
        let clean = gps_fix(8.0);
        let mut fix = clean;
        inj.apply_gps(&mut fix, 8.0);
        assert!(((fix.position - clean.position).norm() - 2.0).abs() < 1e-9);
    }
}
