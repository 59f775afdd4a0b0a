//! The fault injector: corrupts IMU samples per the fault model.
//!
//! The injector sits between the (redundant) IMU and the flight stack,
//! exactly where the paper's injection tool corrupts PX4's sensor topics.
//! Two injection points are supported:
//!
//! - [`FaultInjector::apply_bank`] corrupts the **per-instance** samples
//!   *before* they are merged, honoring each fault's [`FaultScope`]. This
//!   is what the simulator uses: an `Instance(k)`-scoped fault corrupts
//!   only instance `k`, leaving the other instances for the voter to fall
//!   back on.
//! - [`FaultInjector::apply`] corrupts a single (merged) sample — the
//!   paper's original all-instances assumption, kept for compatibility
//!   with tooling that drives one logical stream. It behaves exactly like
//!   `apply_bank` on a one-instance bank.
//!
//! Corruption draws (activation constants, per-tick random/noise vectors)
//! happen **once per fault per tick** and are shared by every affected
//! instance, so the RNG stream consumed by a fault is independent of the
//! instance count — `All`-scope results are comparable across redundancy
//! levels.

use imufit_math::rng::Pcg;
use imufit_math::Vec3;
use imufit_sensors::{ImuSample, ImuSpec};

use crate::kind::FaultKind;
use crate::scope::FaultScope;
use crate::target::FaultTarget;
use crate::window::InjectionWindow;

/// Fraction of the accelerometer full-scale range used as the amplitude of
/// the `Noise` primitive ("a not so drastic random value added/subtracted to
/// the current value"). The accelerometer fraction is larger than the gyro
/// fraction because the flight stack's sensitivity differs by orders of
/// magnitude between the two channels: a given fraction of gyro full scale
/// (2000 deg/s) disturbs rate control far more than the same fraction of
/// accel full scale disturbs velocity estimation.
pub const ACCEL_NOISE_FRACTION: f64 = 0.45;

/// Fraction of the gyro full-scale range used by the `Noise` primitive.
pub const GYRO_NOISE_FRACTION: f64 = 0.08;

/// A fully-specified fault to inject: what, where, when, and which
/// instances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// The injection primitive.
    pub kind: FaultKind,
    /// The targeted component.
    pub target: FaultTarget,
    /// The activation window.
    pub window: InjectionWindow,
    /// Which redundant instances are corrupted (default: all of them, the
    /// paper's assumption).
    pub scope: FaultScope,
}

impl FaultSpec {
    /// Creates a fault specification corrupting **all** redundant
    /// instances (the paper's assumption).
    pub fn new(kind: FaultKind, target: FaultTarget, window: InjectionWindow) -> Self {
        FaultSpec {
            kind,
            target,
            window,
            scope: FaultScope::All,
        }
    }

    /// Creates a fault specification corrupting only instance `k`.
    pub fn instance(
        kind: FaultKind,
        target: FaultTarget,
        window: InjectionWindow,
        k: usize,
    ) -> Self {
        FaultSpec::new(kind, target, window).with_scope(FaultScope::Instance(k))
    }

    /// Returns the spec with the given instance scope.
    pub fn with_scope(mut self, scope: FaultScope) -> Self {
        self.scope = scope;
        self
    }

    /// The experiment label used in the paper's tables, e.g. "Acc Zeros".
    /// Instance-scoped faults append the instance, e.g. "Acc Zeros @imu1".
    pub fn label(&self) -> String {
        match self.scope {
            FaultScope::All => format!("{} {}", self.target, self.kind),
            FaultScope::Instance(_) => {
                format!("{} {} @{}", self.target, self.kind, self.scope)
            }
        }
    }
}

/// Per-fault runtime state.
#[derive(Debug, Clone, PartialEq)]
enum Phase {
    /// Window not reached yet.
    Pending,
    /// Currently corrupting samples.
    Active {
        /// Per-instance samples captured at activation (for `Freeze`).
        frozen: Vec<ImuSample>,
        /// Constant values drawn at activation (for `FixedValue`), shared
        /// by every affected instance.
        fixed_accel: Vec3,
        fixed_gyro: Vec3,
    },
    /// Window elapsed.
    Expired,
}

#[derive(Debug, Clone, PartialEq)]
struct ScheduledFault {
    spec: FaultSpec,
    phase: Phase,
}

/// How one channel is corrupted this tick (drawn once, applied to every
/// affected instance).
enum ChannelEffect {
    /// Replace the channel with this value.
    Replace(Vec3),
    /// Replace the channel with the instance's frozen value.
    Freeze,
    /// Add this offset to the instance's own value.
    Offset(Vec3),
}

impl ChannelEffect {
    /// Draws the effect for one channel; RNG use is identical to the
    /// pre-instance-scope injector (per tick per fault, not per instance).
    fn draw(kind: FaultKind, fixed: Vec3, range: f64, noise_fraction: f64, rng: &mut Pcg) -> Self {
        match kind {
            FaultKind::FixedValue => ChannelEffect::Replace(fixed),
            FaultKind::Zeros => ChannelEffect::Replace(Vec3::ZERO),
            FaultKind::Freeze => ChannelEffect::Freeze,
            FaultKind::Random => ChannelEffect::Replace(Vec3::new(
                rng.uniform_range(-range, range),
                rng.uniform_range(-range, range),
                rng.uniform_range(-range, range),
            )),
            FaultKind::Min => ChannelEffect::Replace(Vec3::splat(-range)),
            FaultKind::Max => ChannelEffect::Replace(Vec3::splat(range)),
            FaultKind::Noise => {
                let amp = noise_fraction * range;
                ChannelEffect::Offset(Vec3::new(
                    rng.uniform_range(-amp, amp),
                    rng.uniform_range(-amp, amp),
                    rng.uniform_range(-amp, amp),
                ))
            }
        }
    }

    /// Applies the effect to one instance's channel value.
    fn apply(&self, value: Vec3, frozen: Vec3, range: f64) -> Vec3 {
        let raw = match self {
            ChannelEffect::Replace(v) => *v,
            ChannelEffect::Freeze => frozen,
            ChannelEffect::Offset(o) => value + *o,
        };
        // The physical sensor interface cannot report beyond full scale.
        raw.clamp(-range, range)
    }
}

/// Corrupts a stream of [`ImuSample`]s according to a list of scheduled
/// faults.
///
/// Feed every per-instance sample bank through
/// [`FaultInjector::apply_bank`] (or a merged stream through
/// [`FaultInjector::apply`]); outside all windows the samples pass through
/// untouched. See the crate-level example.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    imu_spec: ImuSpec,
    faults: Vec<ScheduledFault>,
    last_clean: Vec<ImuSample>,
    /// This tick's clean samples; swapped with `last_clean` at the end of
    /// [`FaultInjector::apply_bank`] so neither buffer reallocates. Scratch,
    /// so equality ignores it.
    clean: Vec<ImuSample>,
}

impl PartialEq for FaultInjector {
    fn eq(&self, other: &Self) -> bool {
        self.imu_spec == other.imu_spec
            && self.faults == other.faults
            && self.last_clean == other.last_clean
    }
}

impl FaultInjector {
    /// Creates an injector for sensors with the given specification (the
    /// spec supplies the full-scale ranges used by `Min`/`Max`/`Random`).
    pub fn new(imu_spec: ImuSpec, faults: Vec<FaultSpec>) -> Self {
        FaultInjector {
            imu_spec,
            faults: faults
                .into_iter()
                .map(|spec| ScheduledFault {
                    spec,
                    phase: Phase::Pending,
                })
                .collect(),
            last_clean: Vec::new(),
            clean: Vec::new(),
        }
    }

    /// An injector that never corrupts anything (gold runs).
    pub fn passthrough(imu_spec: ImuSpec) -> Self {
        FaultInjector::new(imu_spec, Vec::new())
    }

    /// The scheduled fault specifications.
    pub fn specs(&self) -> Vec<FaultSpec> {
        self.faults.iter().map(|f| f.spec).collect()
    }

    /// True if any fault window is active at time `t`.
    pub fn any_active(&self, t: f64) -> bool {
        self.faults.iter().any(|f| f.spec.window.contains(t))
    }

    /// Processes one *merged* sample: returns the (possibly corrupted)
    /// sample the flight stack should see. `sample.time` drives window
    /// activation.
    ///
    /// This models the paper's merged-topic injection point and therefore
    /// treats the stream as a single-instance bank: `All`- and
    /// `Instance(0)`-scoped faults corrupt it, `Instance(k >= 1)` faults
    /// are inert.
    pub fn apply(&mut self, sample: ImuSample, rng: &mut Pcg) -> ImuSample {
        let mut bank = [sample];
        self.apply_bank(&mut bank, rng);
        bank[0]
    }

    /// Processes one bank of per-instance samples **in place**, before any
    /// merge: each fault corrupts exactly the instances its
    /// [`FaultScope`] selects. `samples[0].time` drives window activation.
    ///
    /// An `Instance(k)` fault with `k >= samples.len()` never corrupts
    /// anything (it names a sensor the vehicle does not carry).
    pub fn apply_bank(&mut self, samples: &mut [ImuSample], rng: &mut Pcg) {
        let Some(first) = samples.first() else {
            return;
        };
        let t = first.time;
        self.clean.clear();
        self.clean.extend_from_slice(samples);
        let clean = &self.clean;
        let accel_range = self.imu_spec.accel_range();
        let gyro_range = self.imu_spec.gyro_range();

        for fault in &mut self.faults {
            let w = fault.spec.window;
            // Phase transitions.
            match fault.phase {
                Phase::Pending if w.contains(t) => {
                    // One activation per scheduled fault per run; counted by
                    // primitive so the campaign metrics break injections
                    // down per kind.
                    imufit_obs::counter_labeled(
                        "faults_injected_total",
                        "kind",
                        fault.spec.kind.label(),
                    )
                    .inc();
                    // Capture activation state. `Freeze` holds the last
                    // *clean* sample per instance ("same previous value from
                    // the point the injection started"); if the fault starts
                    // on the very first sample, freeze that one.
                    let frozen: Vec<ImuSample> = clean
                        .iter()
                        .enumerate()
                        .map(|(i, s)| self.last_clean.get(i).copied().unwrap_or(*s))
                        .collect();
                    let fixed_accel = Vec3::new(
                        rng.uniform_range(-accel_range, accel_range),
                        rng.uniform_range(-accel_range, accel_range),
                        rng.uniform_range(-accel_range, accel_range),
                    );
                    let fixed_gyro = Vec3::new(
                        rng.uniform_range(-gyro_range, gyro_range),
                        rng.uniform_range(-gyro_range, gyro_range),
                        rng.uniform_range(-gyro_range, gyro_range),
                    );
                    fault.phase = Phase::Active {
                        frozen,
                        fixed_accel,
                        fixed_gyro,
                    };
                }
                Phase::Active { .. } if w.is_past(t) => {
                    fault.phase = Phase::Expired;
                }
                _ => {}
            }

            if let Phase::Active {
                frozen,
                fixed_accel,
                fixed_gyro,
            } = &fault.phase
            {
                let target = fault.spec.target;
                let scope = fault.spec.scope;
                // One draw per channel per tick, shared across instances.
                let accel_effect = target.affects_accel().then(|| {
                    ChannelEffect::draw(
                        fault.spec.kind,
                        *fixed_accel,
                        accel_range,
                        ACCEL_NOISE_FRACTION,
                        rng,
                    )
                });
                let gyro_effect = target.affects_gyro().then(|| {
                    ChannelEffect::draw(
                        fault.spec.kind,
                        *fixed_gyro,
                        gyro_range,
                        GYRO_NOISE_FRACTION,
                        rng,
                    )
                });

                for (i, out) in samples.iter_mut().enumerate() {
                    if !scope.affects(i) {
                        continue;
                    }
                    let frozen_i = frozen.get(i).copied().unwrap_or(clean[i]);
                    if let Some(effect) = &accel_effect {
                        out.accel = effect.apply(out.accel, frozen_i.accel, accel_range);
                    }
                    if let Some(effect) = &gyro_effect {
                        out.gyro = effect.apply(out.gyro, frozen_i.gyro, gyro_range);
                    }
                }
            }
        }

        // Record the clean (pre-corruption) samples for future Freeze
        // activations.
        std::mem::swap(&mut self.last_clean, &mut self.clean);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean(t: f64) -> ImuSample {
        ImuSample {
            accel: Vec3::new(0.1, -0.2, -9.8),
            gyro: Vec3::new(0.01, 0.02, -0.03),
            time: t,
        }
    }

    fn injector(kind: FaultKind, target: FaultTarget) -> FaultInjector {
        FaultInjector::new(
            ImuSpec::default(),
            vec![FaultSpec::new(
                kind,
                target,
                InjectionWindow::new(10.0, 5.0),
            )],
        )
    }

    #[test]
    fn passthrough_outside_window() {
        let mut inj = injector(FaultKind::Zeros, FaultTarget::Imu);
        let mut rng = Pcg::seed_from(1);
        let before = inj.apply(clean(5.0), &mut rng);
        assert_eq!(before, clean(5.0));
        // Drive through the window...
        for t in [10.0, 12.0, 14.9] {
            let s = inj.apply(clean(t), &mut rng);
            assert_eq!(s.accel, Vec3::ZERO);
        }
        // ...and verify recovery afterwards.
        let after = inj.apply(clean(15.0), &mut rng);
        assert_eq!(after, clean(15.0));
    }

    #[test]
    fn gold_injector_never_corrupts() {
        let mut inj = FaultInjector::passthrough(ImuSpec::default());
        let mut rng = Pcg::seed_from(2);
        for i in 0..1000 {
            let t = i as f64 * 0.004;
            assert_eq!(inj.apply(clean(t), &mut rng), clean(t));
        }
        assert!(!inj.any_active(90.0));
    }

    #[test]
    fn zeros_only_hits_target() {
        let mut inj = injector(FaultKind::Zeros, FaultTarget::Accelerometer);
        let mut rng = Pcg::seed_from(3);
        let s = inj.apply(clean(12.0), &mut rng);
        assert_eq!(s.accel, Vec3::ZERO);
        assert_eq!(s.gyro, clean(12.0).gyro);

        let mut inj = injector(FaultKind::Zeros, FaultTarget::Gyrometer);
        let s = inj.apply(clean(12.0), &mut rng);
        assert_eq!(s.gyro, Vec3::ZERO);
        assert_eq!(s.accel, clean(12.0).accel);
    }

    #[test]
    fn freeze_holds_last_clean_sample() {
        let mut inj = injector(FaultKind::Freeze, FaultTarget::Imu);
        let mut rng = Pcg::seed_from(4);
        // Last clean sample before the window.
        let pre = ImuSample {
            accel: Vec3::new(1.0, 2.0, 3.0),
            gyro: Vec3::new(0.5, 0.6, 0.7),
            time: 9.996,
        };
        let _ = inj.apply(pre, &mut rng);
        // Every in-window sample repeats the pre-window values.
        for t in [10.0, 11.0, 13.0] {
            let s = inj.apply(clean(t), &mut rng);
            assert_eq!(s.accel, pre.accel);
            assert_eq!(s.gyro, pre.gyro);
        }
    }

    #[test]
    fn freeze_on_first_sample_freezes_it() {
        let mut inj = injector(FaultKind::Freeze, FaultTarget::Imu);
        let mut rng = Pcg::seed_from(5);
        let first = clean(10.0);
        let s = inj.apply(first, &mut rng);
        assert_eq!(s.accel, first.accel);
    }

    #[test]
    fn fixed_value_is_constant_and_in_range() {
        let mut inj = injector(FaultKind::FixedValue, FaultTarget::Imu);
        let mut rng = Pcg::seed_from(6);
        let s1 = inj.apply(clean(10.0), &mut rng);
        let s2 = inj.apply(clean(11.0), &mut rng);
        let s3 = inj.apply(clean(14.0), &mut rng);
        assert_eq!(s1.accel, s2.accel);
        assert_eq!(s2.accel, s3.accel);
        assert_eq!(s1.gyro, s3.gyro);
        let spec = ImuSpec::default();
        assert!(s1.accel.max_abs() <= spec.accel_range());
        assert!(s1.gyro.max_abs() <= spec.gyro_range());
        // And it is not the clean value.
        assert_ne!(s1.accel, clean(10.0).accel);
    }

    #[test]
    fn random_changes_every_tick_and_stays_in_range() {
        let mut inj = injector(FaultKind::Random, FaultTarget::Imu);
        let mut rng = Pcg::seed_from(7);
        let spec = ImuSpec::default();
        let mut prev = inj.apply(clean(10.0), &mut rng);
        for i in 1..100 {
            let s = inj.apply(clean(10.0 + i as f64 * 0.004), &mut rng);
            assert_ne!(s.accel, prev.accel);
            assert!(s.accel.max_abs() <= spec.accel_range());
            assert!(s.gyro.max_abs() <= spec.gyro_range());
            prev = s;
        }
    }

    #[test]
    fn min_max_saturate() {
        let spec = ImuSpec::default();
        let mut inj = injector(FaultKind::Min, FaultTarget::Imu);
        let mut rng = Pcg::seed_from(8);
        let s = inj.apply(clean(10.0), &mut rng);
        assert_eq!(s.accel, Vec3::splat(-spec.accel_range()));
        assert_eq!(s.gyro, Vec3::splat(-spec.gyro_range()));

        let mut inj = injector(FaultKind::Max, FaultTarget::Imu);
        let s = inj.apply(clean(10.0), &mut rng);
        assert_eq!(s.accel, Vec3::splat(spec.accel_range()));
        assert_eq!(s.gyro, Vec3::splat(spec.gyro_range()));
    }

    #[test]
    fn noise_is_bounded_perturbation() {
        let mut inj = injector(FaultKind::Noise, FaultTarget::Accelerometer);
        let mut rng = Pcg::seed_from(9);
        let spec = ImuSpec::default();
        let amp = ACCEL_NOISE_FRACTION * spec.accel_range();
        for i in 0..200 {
            let c = clean(10.0 + i as f64 * 0.01);
            let s = inj.apply(c, &mut rng);
            let dev = (s.accel - c.accel).max_abs();
            assert!(dev <= amp + 1e-12, "noise exceeded bound: {dev}");
            assert_eq!(s.gyro, c.gyro);
        }
    }

    #[test]
    fn multiple_faults_compose() {
        let spec = ImuSpec::default();
        let mut inj = FaultInjector::new(
            spec,
            vec![
                FaultSpec::new(
                    FaultKind::Zeros,
                    FaultTarget::Accelerometer,
                    InjectionWindow::new(10.0, 5.0),
                ),
                FaultSpec::new(
                    FaultKind::Max,
                    FaultTarget::Gyrometer,
                    InjectionWindow::new(12.0, 5.0),
                ),
            ],
        );
        let mut rng = Pcg::seed_from(10);
        // Only the first fault active.
        let s = inj.apply(clean(11.0), &mut rng);
        assert_eq!(s.accel, Vec3::ZERO);
        assert_eq!(s.gyro, clean(11.0).gyro);
        // Both active.
        let s = inj.apply(clean(13.0), &mut rng);
        assert_eq!(s.accel, Vec3::ZERO);
        assert_eq!(s.gyro, Vec3::splat(spec.gyro_range()));
        // Only the second.
        let s = inj.apply(clean(16.0), &mut rng);
        assert_eq!(s.accel, clean(16.0).accel);
        assert_eq!(s.gyro, Vec3::splat(spec.gyro_range()));
    }

    #[test]
    fn any_active_tracks_windows() {
        let inj = injector(FaultKind::Zeros, FaultTarget::Imu);
        assert!(!inj.any_active(9.9));
        assert!(inj.any_active(10.0));
        assert!(inj.any_active(14.9));
        assert!(!inj.any_active(15.0));
    }

    #[test]
    fn label_formats_like_the_paper() {
        let spec = FaultSpec::new(
            FaultKind::Zeros,
            FaultTarget::Accelerometer,
            InjectionWindow::new(90.0, 2.0),
        );
        assert_eq!(spec.label(), "Acc Zeros");
        let spec = FaultSpec::new(
            FaultKind::FixedValue,
            FaultTarget::Imu,
            InjectionWindow::new(90.0, 2.0),
        );
        assert_eq!(spec.label(), "IMU Fixed Value");
    }

    #[test]
    fn instance_label_names_the_instance() {
        let spec = FaultSpec::instance(
            FaultKind::Zeros,
            FaultTarget::Gyrometer,
            InjectionWindow::new(90.0, 2.0),
            1,
        );
        assert_eq!(spec.label(), "Gyro Zeros @imu1");
        assert_eq!(spec.scope, FaultScope::Instance(1));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = injector(FaultKind::Random, FaultTarget::Imu);
        let mut b = injector(FaultKind::Random, FaultTarget::Imu);
        let mut ra = Pcg::seed_from(11);
        let mut rb = Pcg::seed_from(11);
        for i in 0..50 {
            let t = 10.0 + i as f64 * 0.004;
            assert_eq!(a.apply(clean(t), &mut ra), b.apply(clean(t), &mut rb));
        }
    }

    fn bank(t: f64, n: usize) -> Vec<ImuSample> {
        (0..n)
            .map(|i| ImuSample {
                accel: Vec3::new(0.1 + i as f64 * 1e-3, -0.2, -9.8),
                gyro: Vec3::new(0.01, 0.02 - i as f64 * 1e-4, -0.03),
                time: t,
            })
            .collect()
    }

    #[test]
    fn instance_scope_corrupts_only_its_instance() {
        let mut inj = FaultInjector::new(
            ImuSpec::default(),
            vec![FaultSpec::instance(
                FaultKind::Zeros,
                FaultTarget::Imu,
                InjectionWindow::new(10.0, 5.0),
                1,
            )],
        );
        let mut rng = Pcg::seed_from(12);
        let mut samples = bank(12.0, 3);
        let pristine = samples.clone();
        inj.apply_bank(&mut samples, &mut rng);
        assert_eq!(samples[0], pristine[0]);
        assert_eq!(samples[1].accel, Vec3::ZERO);
        assert_eq!(samples[1].gyro, Vec3::ZERO);
        assert_eq!(samples[2], pristine[2]);
    }

    #[test]
    fn out_of_range_instance_is_inert() {
        let mut inj = FaultInjector::new(
            ImuSpec::default(),
            vec![FaultSpec::instance(
                FaultKind::Max,
                FaultTarget::Imu,
                InjectionWindow::new(10.0, 5.0),
                7,
            )],
        );
        let mut rng = Pcg::seed_from(13);
        let mut samples = bank(12.0, 3);
        let pristine = samples.clone();
        inj.apply_bank(&mut samples, &mut rng);
        assert_eq!(samples, pristine);
    }

    #[test]
    fn all_scope_corrupts_every_instance_identically() {
        let mut inj = FaultInjector::new(
            ImuSpec::default(),
            vec![FaultSpec::new(
                FaultKind::Random,
                FaultTarget::Imu,
                InjectionWindow::new(10.0, 5.0),
            )],
        );
        let mut rng = Pcg::seed_from(14);
        let mut samples = bank(12.0, 3);
        inj.apply_bank(&mut samples, &mut rng);
        assert_eq!(samples[0].accel, samples[1].accel);
        assert_eq!(samples[1].accel, samples[2].accel);
        assert_eq!(samples[0].gyro, samples[2].gyro);
    }

    #[test]
    fn bank_freeze_holds_per_instance_values() {
        let mut inj = FaultInjector::new(
            ImuSpec::default(),
            vec![FaultSpec::new(
                FaultKind::Freeze,
                FaultTarget::Imu,
                InjectionWindow::new(10.0, 5.0),
            )],
        );
        let mut rng = Pcg::seed_from(15);
        // Pre-window bank with distinct per-instance values.
        let mut pre = bank(9.9, 3);
        let pre_copy = pre.clone();
        inj.apply_bank(&mut pre, &mut rng);
        // In the window every instance holds its *own* last clean sample.
        let mut s = bank(12.0, 3);
        inj.apply_bank(&mut s, &mut rng);
        for i in 0..3 {
            assert_eq!(s[i].accel, pre_copy[i].accel);
            assert_eq!(s[i].gyro, pre_copy[i].gyro);
        }
    }

    #[test]
    fn merged_apply_matches_single_instance_bank() {
        let mut a = injector(FaultKind::Random, FaultTarget::Imu);
        let mut b = injector(FaultKind::Random, FaultTarget::Imu);
        let mut ra = Pcg::seed_from(16);
        let mut rb = Pcg::seed_from(16);
        for i in 0..50 {
            let t = 9.0 + i as f64 * 0.1;
            let merged = a.apply(clean(t), &mut ra);
            let mut bank1 = [clean(t)];
            b.apply_bank(&mut bank1, &mut rb);
            assert_eq!(merged, bank1[0]);
        }
    }

    #[test]
    fn empty_bank_is_a_no_op() {
        let mut inj = injector(FaultKind::Zeros, FaultTarget::Imu);
        let mut rng = Pcg::seed_from(17);
        inj.apply_bank(&mut [], &mut rng);
        assert!(inj.specs().len() == 1);
    }
}
