//! The single-flight simulator: the pipeline that wires the stages together.
//!
//! The per-tick pipeline (order is load-bearing for bit-reproducibility):
//! wind → IMU bank sample → fault injection → consensus vote → estimator
//! predict/fuse ([`Estimator`]) → mitigation stage → controller → physics
//! → tracking/bubble → end conditions.
//!
//! [`FlightSimulator`] is a plain owned value: cloning one mid-flight gives
//! a vehicle that flies on exactly as the original would, black box
//! included.

use imufit_bubble::{BubbleTracker, InnerBubbleSpec, Route};
use imufit_controller::{ControllerParams, FlightController, RedundancyStatus};
use imufit_dynamics::{Quadrotor, QuadrotorParams, WindModel};
use imufit_estimator::{ComplementaryFilter, DegradationMonitors, Ekf, EkfParams, Estimator};
use imufit_faults::{
    AttackInjector, AttackSpec, FaultInjector, FaultScope, FaultSpec, FaultTarget, InjectionWindow,
};
use imufit_math::rng::Pcg;
use imufit_math::Vec3;
use imufit_missions::Mission;
use imufit_scenario::EstimatorBackend;
use imufit_sensors::{
    yaw_from_mag, Barometer, Gps, ImuSample, ImuSpec, ImuVoter, Magnetometer, RedundantImu,
    VoterConfig,
};
use imufit_telemetry::{FlightRecorder, TrackPoint};
use imufit_trace::record::{
    FLAG_AIRBORNE, FLAG_FAILSAFE, FLAG_FAULT_ACTIVE, FLAG_PRIMARY_EXCLUDED, NO_BUBBLE,
};
use imufit_trace::{
    ImuInstanceTrace, TraceCollector, TraceEventKind, TraceRecord, TraceStats, TraceTrigger,
};

use crate::config::SimConfig;
use crate::mitigation::MitigationStage;
use crate::outcome::{FlightOutcome, FlightResult, FlightSummary};

/// Barometer spec re-export kept private; defaults are used.
use imufit_sensors::baro::BaroSpec;
use imufit_sensors::gps::GpsSpec;
use imufit_sensors::mag::MagSpec;

/// Crash classification thresholds (ground truth).
const CRASH_VERTICAL_SPEED: f64 = 2.0; // m/s at contact
const CRASH_HORIZONTAL_SPEED: f64 = 2.5; // m/s at contact
const CRASH_TILT: f64 = 0.8; // rad (~45 deg) at contact
const FLYAWAY_RANGE: f64 = 4_500.0; // m beyond which range safety gives up
const FLYAWAY_ALTITUDE: f64 = 150.0; // m ceiling bust

/// Narrows a vector to the black box's f32 channel triple.
fn vec3_f32(v: Vec3) -> [f32; 3] {
    [v.x as f32, v.y as f32, v.z as f32]
}

/// Labels of the specs whose window is open at `time` (`active`) or
/// already past it, joined for an event detail.
fn window_labels<S>(
    specs: &[S],
    time: f64,
    active: bool,
    window_and_label: impl Fn(&S) -> (InjectionWindow, String),
) -> String {
    specs
        .iter()
        .map(window_and_label)
        .filter(|(window, _)| {
            if active {
                window.contains(time)
            } else {
                window.is_past(time)
            }
        })
        .map(|(_, label)| label)
        .collect::<Vec<_>>()
        .join(", ")
}

/// Instantiates the estimator backend a config names.
fn build_estimator(backend: EstimatorBackend) -> Estimator {
    match backend {
        EstimatorBackend::Ekf => Estimator::Ekf(Ekf::new(EkfParams::default())),
        EstimatorBackend::Complementary => Estimator::Complementary(ComplementaryFilter::default()),
    }
}

/// One vehicle flying one mission, end to end.
#[derive(Clone)]
pub struct FlightSimulator {
    config: SimConfig,
    dt: f64,
    time: f64,
    tick: u64,

    quad: Quadrotor,
    imu_bank: RedundantImu,
    voter: ImuVoter,
    baro: Barometer,
    gps: Gps,
    mag: Magnetometer,
    injector: FaultInjector,
    /// Aiding-sensor attack schedule (GPS spoof, baro drift, ...); a
    /// passthrough when the flight carries no attacks.
    attack_injector: AttackInjector,
    estimator: Estimator,
    controller: FlightController,
    wind: WindModel,

    bubble: BubbleTracker,
    recorder: FlightRecorder,
    drone_id: u32,

    // Independent RNG streams so component noise is reproducible regardless
    // of the order other components consume randomness.
    rng_imu: Pcg,
    rng_gps: Pcg,
    rng_baro: Pcg,
    rng_compass: Pcg,
    rng_wind: Pcg,
    rng_fault: Pcg,
    rng_attack: Pcg,

    /// Per-sensor innovation-consistency monitors; `None` unless
    /// [`SimConfig::innovation_monitors`] is set (the paper default keeps
    /// them off, which keeps the golden campaign bit-identical).
    monitors: Option<DegradationMonitors>,
    /// When GPS fusion was dropped, for the dead-reckon failsafe timer.
    dead_reckon_since: Option<f64>,
    attack_was_active: bool,

    airborne: bool,
    distance_true: f64,
    last_true_position: Vec3,
    outcome: Option<FlightOutcome>,
    mitigation: MitigationStage,
    fault_was_active: bool,
    failsafe_was_active: bool,

    // Black-box tracing. The collector is strictly write-only (no RNG, no
    // feedback into flight state); with the `trace` feature off it is
    // never armed and every `if tracing` block below is dead code.
    tracer: TraceCollector,
    last_bubble: (f64, f64, f64),
    bubble_inner_was: bool,
    bubble_outer_was: bool,
    /// Scratch buffers recycled across ticks so steady-state tracing does
    /// not allocate: the pristine pre-injection samples and the instance
    /// vector reclaimed from whatever record the ring last evicted.
    trace_clean: Vec<ImuSample>,
    trace_pool: Vec<ImuInstanceTrace>,
    /// This tick's per-instance IMU samples, refilled in place every tick.
    imu_samples: Vec<ImuSample>,
}

impl FlightSimulator {
    /// Builds a simulator for a mission with the given scheduled faults
    /// (empty for a gold run). Every noise stream and sensor bank is
    /// derived from `config.seed`, so equal inputs fly equal flights.
    pub fn new(mission: &Mission, faults: Vec<FaultSpec>, config: SimConfig) -> Self {
        let master = Pcg::seed_from(config.seed);
        let mut rng_init = master.derive(&[0]);

        // The redundancy ablation: retarget all-scope faults at hardware
        // instance 0 so only one instance lies and the voter can act.
        let faults: Vec<FaultSpec> = if config.faults_affect_all_redundant {
            faults
        } else {
            faults
                .into_iter()
                .map(|f| {
                    if f.scope.is_all() {
                        f.with_scope(FaultScope::Instance(0))
                    } else {
                        f
                    }
                })
                .collect()
        };

        let quad_params =
            QuadrotorParams::default_airframe().with_payload(mission.drone.payload_kg);
        let controller_params =
            ControllerParams::for_vehicle(quad_params.mass, 4.0 * quad_params.rotor_max_thrust);
        let imu_spec = ImuSpec::default();
        let instance_count = config.imu_redundancy.max(1);

        let mut estimator = build_estimator(config.estimator);
        estimator.initialize(mission.home, Vec3::ZERO, 0.0);

        // Assigned route for the bubble: climb at home, cruise legs, descend
        // at the final waypoint.
        let mut route_points = vec![
            mission.home,
            Vec3::new(
                mission.home.x,
                mission.home.y,
                -imufit_missions::CRUISE_ALTITUDE,
            ),
        ];
        route_points.extend(mission.waypoints.iter().copied());
        if let Some(last) = mission.waypoints.last() {
            route_points.push(Vec3::new(last.x, last.y, 0.0));
        }

        let tracer = TraceCollector::new(&config.trace);
        // The detection ensemble runs for fast detection, or to time alarm
        // edges for the black box when the detector-edge trigger is armed.
        // Without either it is not built, so armed tracing without that
        // trigger costs only the ring.
        let mitigation = MitigationStage::with_edges(
            config.fast_detection,
            tracer.is_armed() && config.trace.triggers_on(TraceTrigger::DetectorEdge),
            config.mitigation_persist,
        );

        FlightSimulator {
            dt: 1.0 / config.physics_rate,
            time: 0.0,
            tick: 0,
            quad: Quadrotor::with_state(
                quad_params,
                imufit_dynamics::RigidBodyState::at_rest(mission.home),
            ),
            // The bank draws from `rng_init` before the magnetometer does.
            imu_bank: RedundantImu::new(imu_spec, instance_count, &mut rng_init),
            voter: ImuVoter::new(VoterConfig::default(), instance_count),
            baro: Barometer::try_new(BaroSpec::default(), 16.0)
                .expect("default baro spec is valid"),
            gps: Gps::try_new(GpsSpec::default()).expect("default GPS spec is valid"),
            mag: Magnetometer::try_new(MagSpec::default(), &mut rng_init)
                .expect("default mag spec is valid"),
            injector: FaultInjector::new(imu_spec, faults),
            // Attack schedules are per-experiment, like faults;
            // `set_attacks` arms them.
            attack_injector: AttackInjector::passthrough(),
            estimator,
            controller: FlightController::new(controller_params, mission.plan()),
            wind: config.wind.clone(),
            bubble: BubbleTracker::new(
                Route::new(route_points),
                InnerBubbleSpec {
                    dimension: mission.drone.dimension_m,
                    safety_distance: mission.drone.safety_distance_m,
                    max_tracking_distance: mission
                        .drone
                        .max_tracking_distance(1.0 / config.tracking_rate),
                },
                config.risk_factor,
            ),
            recorder: FlightRecorder::new(1.0 / config.tracking_rate),
            drone_id: mission.drone.id,
            rng_imu: master.derive(&[1]),
            rng_gps: master.derive(&[2]),
            rng_baro: master.derive(&[3]),
            rng_compass: master.derive(&[4]),
            rng_wind: master.derive(&[5]),
            rng_fault: master.derive(&[6]),
            // Stream [7] feeds attack-parameter draws. Deriving it is pure
            // (the other streams are untouched), and with no attacks
            // scheduled it is never consumed — both properties the golden
            // campaign relies on.
            rng_attack: master.derive(&[7]),
            monitors: config
                .innovation_monitors
                .then(DegradationMonitors::default),
            dead_reckon_since: None,
            attack_was_active: false,
            airborne: false,
            distance_true: 0.0,
            last_true_position: mission.home,
            outcome: None,
            mitigation,
            fault_was_active: false,
            failsafe_was_active: false,
            tracer,
            last_bubble: (NO_BUBBLE as f64, NO_BUBBLE as f64, NO_BUBBLE as f64),
            bubble_inner_was: false,
            bubble_outer_was: false,
            trace_clean: Vec::new(),
            trace_pool: Vec::new(),
            imu_samples: Vec::new(),
            config,
        }
    }

    /// Current simulated time, seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The active configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Schedules aiding-sensor attacks for this flight (empty = none).
    /// Call after construction; the attack RNG stream is derived from the
    /// seed when the vehicle is built and parameters are drawn only at
    /// window activation, so the moment of scheduling cannot perturb
    /// reproducibility.
    pub fn set_attacks(&mut self, attacks: Vec<AttackSpec>) {
        self.attack_injector = AttackInjector::new(attacks);
    }

    /// The scheduled aiding-sensor attacks.
    pub fn attacks(&self) -> Vec<AttackSpec> {
        self.attack_injector.specs()
    }

    /// The flight controller (for inspection in tests).
    pub fn controller(&self) -> &FlightController {
        &self.controller
    }

    /// The estimator backend flying the vehicle.
    pub fn estimator(&self) -> &Estimator {
        &self.estimator
    }

    /// The vehicle ground truth (for inspection in tests).
    pub fn vehicle(&self) -> &Quadrotor {
        &self.quad
    }

    /// The 1 Hz track recorded so far.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Black-box collector counters (all zero when tracing is disabled).
    pub fn trace_stats(&self) -> TraceStats {
        self.tracer.stats()
    }

    /// Seals and serializes the flight's black box, if tracing captured
    /// anything. Disarms the collector.
    pub fn take_black_box(&mut self, metadata: &str) -> Option<Vec<u8>> {
        self.tracer.take_black_box(self.drone_id, metadata)
    }

    /// Black-box extraction for a flight that panicked mid-step: stamps a
    /// panic event (which freezes the pre-window) before sealing, so the
    /// last full-rate records before the abort survive.
    pub fn panic_black_box(&mut self, metadata: &str) -> Option<Vec<u8>> {
        self.tracer.note_panic(self.tick, self.time);
        self.tracer.take_black_box(self.drone_id, metadata)
    }

    /// Runs the flight to completion and returns the result.
    pub fn run(mut self) -> FlightResult {
        self.run_summary().with_recorder(self.recorder)
    }

    /// Runs the flight to completion and returns the scalar metrics,
    /// leaving the vehicle (and its track) in place so it can be
    /// inspected.
    pub fn run_summary(&mut self) -> FlightSummary {
        let outcome = loop {
            match self.outcome {
                Some(outcome) => break outcome,
                None => self.step(),
            }
        };
        self.tracer.finalize(outcome.label(), self.tick, self.time);
        FlightSummary {
            outcome,
            duration: self.time,
            distance_est: self.estimator.distance_traveled(),
            distance_true: self.distance_true,
            violations: self.bubble.counts(),
            ekf_resets: self.estimator.health().reset_count,
        }
    }

    /// Advances the simulation by one physics tick.
    pub fn step(&mut self) {
        if self.outcome.is_some() {
            return;
        }
        // Statistical stage profiler: on sampled ticks each `stage` call
        // below closes the previous seam with a single clock read; the
        // guard's drop attributes the tail to Bookkeeping.
        let mut prof = imufit_obs::profile::tick_begin();
        let dt = self.dt;
        self.tick += 1;
        self.time += dt;
        // With the `trace` feature off (or tracing disabled) this is a
        // compile-time `false` and every trace block below is dead code.
        let tracing = self.tracer.is_armed();

        // --- Environment ---
        let wind = self.wind.step(dt, &mut self.rng_wind);

        // --- Sensors: per-instance injection before the merge ---
        // Every instance is sampled, the injector corrupts exactly the
        // instances each fault's scope selects, and the consensus voter
        // picks the merged sample the flight stack consumes. Under the
        // paper's all-instances assumption every instance carries the same
        // corruption, the voter sees perfect agreement, and the merged
        // stream is identical to corrupting the primary directly.
        prof.stage(imufit_obs::profile::Stage::Sensors);
        let true_force = self.quad.specific_force_body();
        let true_rate = self.quad.angular_rate_body();
        self.imu_bank.sample_into(
            true_force,
            true_rate,
            dt,
            &mut self.rng_imu,
            &mut self.imu_samples,
        );
        // The pristine bank is kept only while tracing so the black box can
        // carry the per-instance injected deltas alongside the readings.
        if tracing {
            self.trace_clean.clear();
            self.trace_clean.extend_from_slice(&self.imu_samples);
        }
        prof.stage(imufit_obs::profile::Stage::Faults);
        self.injector
            .apply_bank(&mut self.imu_samples, &mut self.rng_fault);
        // Fault window edges are reported right after injection, so within
        // a tick the activation precedes any detection or mitigation event
        // it causes.
        let fault_active = self.injector.any_active(self.time);
        if fault_active != self.fault_was_active {
            let kind = if fault_active {
                TraceEventKind::FaultActivated
            } else {
                TraceEventKind::FaultCleared
            };
            self.emit(kind, self.time, 0, |sim| {
                window_labels(&sim.injector.specs(), sim.time, fault_active, |f| {
                    (f.window, f.label())
                })
            });
            self.fault_was_active = fault_active;
        }
        // --- Sensor attacks: window phases advance once per tick ---
        // Activation draws attack parameters from the dedicated stream;
        // with nothing scheduled this whole block is an exact no-op.
        self.attack_injector
            .advance(self.time, &mut self.rng_attack);
        let attack_active = self.attack_injector.any_active(self.time);
        if attack_active != self.attack_was_active {
            let kind = if attack_active {
                TraceEventKind::AttackActivated
            } else {
                TraceEventKind::AttackCleared
            };
            self.emit(kind, self.time, 0, |sim| {
                let specs = sim.attack_injector.specs();
                window_labels(&specs, sim.time, attack_active, |a| (a.window, a.label()))
            });
            self.attack_was_active = attack_active;
        }

        prof.stage(imufit_obs::profile::Stage::Voter);
        let primary = self.imu_bank.primary();
        let report = self.voter.vote(&self.imu_samples, primary);
        let corrupted = report.merged;

        // Voter bookkeeping: log exclusions/reinstatements and move the
        // bank's primary off an excluded instance.
        for &i in &report.newly_excluded {
            let health = &report.health[i];
            self.emit(TraceEventKind::VoterExclusion, self.time, i as u32, |_| {
                format!(
                    "imu{i}: consensus deviation gyro {:.2} rad/s, accel {:.2} m/s^2",
                    health.gyro_deviation, health.accel_deviation
                )
            });
        }
        for &i in &report.newly_reinstated {
            self.emit(
                TraceEventKind::VoterReinstatement,
                self.time,
                i as u32,
                |_| format!("imu{i} rejoined consensus"),
            );
        }
        let mut switched = false;
        if report.primary_excluded && report.selected != primary {
            self.imu_bank.switch_primary(report.selected);
            switched = true;
            let selected = report.selected;
            self.emit(
                TraceEventKind::PrimarySwitch,
                self.time,
                selected as u32,
                |_| format!("voter: primary imu{primary} excluded, imu{selected} selected"),
            );
        }
        let redundancy = RedundancyStatus {
            instances: self.imu_bank.count(),
            excluded: report.health.iter().filter(|h| h.excluded).count(),
            primary_excluded: report.primary_excluded,
            switched,
        };

        // --- Estimation ---
        prof.stage(imufit_obs::profile::Stage::Estimator);
        self.estimator.predict(&corrupted, dt);
        if self.every(self.config.gps_rate) {
            let mut fix = self.gps.sample(
                self.quad.state().position,
                self.quad.state().velocity,
                1.0 / self.config.gps_rate,
                &mut self.rng_gps,
            );
            self.attack_injector.apply_gps(&mut fix, self.time);
            if self.monitors.as_ref().is_none_or(|m| m.gps.allows_fusion()) {
                self.estimator.fuse_gps(&fix);
                let health = self.estimator.health();
                self.observe_monitor(
                    FaultTarget::Gps,
                    health.pos_test_ratio.max(health.vel_test_ratio),
                );
            }
        }
        if self.every(self.config.baro_rate) {
            let mut sample = self.baro.sample(
                self.quad.state().altitude(),
                1.0 / self.config.baro_rate,
                &mut self.rng_baro,
            );
            self.attack_injector.apply_baro(&mut sample, self.time);
            if self
                .monitors
                .as_ref()
                .is_none_or(|m| m.baro.allows_fusion())
            {
                self.estimator.fuse_baro(&sample);
                let ratio = self.estimator.health().hgt_test_ratio;
                self.observe_monitor(FaultTarget::Barometer, ratio);
            }
        }
        if self.every(self.config.compass_rate) {
            // A real magnetometer pipeline: sample the body-frame field from
            // the true attitude, then tilt-compensate with the *estimated*
            // roll/pitch (so attitude-estimate errors degrade the yaw aid,
            // exactly as on a real autopilot).
            let mut sample = self
                .mag
                .sample(self.quad.state().attitude, &mut self.rng_compass);
            self.attack_injector.apply_mag(&mut sample, self.time);
            if self.monitors.as_ref().is_none_or(|m| m.mag.allows_fusion()) {
                let (est_roll, est_pitch, _) = self.estimator.state().attitude.to_euler();
                let yaw = yaw_from_mag(&sample, est_roll, est_pitch, self.mag.spec().declination);
                self.estimator.fuse_yaw(yaw);
                let ratio = self.estimator.health().yaw_test_ratio;
                self.observe_monitor(FaultTarget::Magnetometer, ratio);
            }
        }
        // A single-tick estimator-state upset: the velocity estimate takes
        // the drawn kick with no covariance inflation — the filter keeps
        // trusting a state it should not, until GPS innovations surface it.
        if let Some(kick) = self.attack_injector.take_state_glitch(self.time) {
            self.estimator.perturb_velocity(kick);
        }

        // --- Control ---
        prof.stage(imufit_obs::profile::Stage::Controller);
        let rejecting = self.estimator.health().any_rejecting();
        let nav = *self.estimator.state();

        // The detection ensemble watches the consumed stream: with fast
        // detection on it pulls the failsafe handle early, and with the
        // detector-edge trigger armed the black box gets the persisted
        // alarm's rising edge, so detection latency is traced even on
        // paper-default runs where mitigation is off.
        if self
            .mitigation
            .observe(&corrupted, dt, self.time, self.airborne)
        {
            self.controller.trigger_external_failsafe(self.time, &nav);
        }
        if let Some(persisted) = self.mitigation.rising_edge() {
            self.tracer.event(
                TraceEventKind::DetectorEdge,
                self.tick,
                self.time,
                0,
                format!("detection ensemble alarm persisted {persisted:.2} s"),
            );
        }

        // Bottom rung of the degradation ladder: a dropped GPS leaves the
        // vehicle dead-reckoning on inertial + whatever aiding survives.
        // Tolerate that briefly, then hand the flight to the failsafe
        // rather than drift indefinitely on an unaided solution.
        if self.monitors.as_ref().is_some_and(|m| m.dead_reckoning()) {
            let since = *self.dead_reckon_since.get_or_insert(self.time);
            if self.airborne && self.time - since >= self.monitor_params().failsafe_after_s {
                self.controller.trigger_external_failsafe(self.time, &nav);
            }
        } else {
            self.dead_reckon_since = None;
        }

        let out = self
            .controller
            .update_with_redundancy(self.time, dt, &nav, &corrupted, rejecting, redundancy);
        if out.rotate_imu {
            self.imu_bank.rotate_primary();
            let primary = self.imu_bank.primary() as u32;
            self.emit(TraceEventKind::PrimarySwitch, self.time, primary, |_| {
                "failsafe isolation rotation".to_string()
            });
        }
        for tr in self.controller.take_cascade_transitions() {
            let stage = tr.to.code() as u32;
            self.emit(TraceEventKind::CascadeTransition, tr.time, stage, |_| {
                format!("{} -> {}: {}", tr.from.label(), tr.to.label(), tr.detail())
            });
        }

        // Edge-detect the failsafe latch so the black box carries an
        // explicit marker, not just per-record flags.
        let failsafe_active = self.controller.failsafe_active();
        if failsafe_active && !self.failsafe_was_active {
            self.emit(TraceEventKind::FailsafeActivated, self.time, 0, |_| {
                "descend-and-land latched".to_string()
            });
            self.failsafe_was_active = true;
        }

        // --- Physics ---
        prof.stage(imufit_obs::profile::Stage::Dynamics);
        self.quad.step_with_wind(out.throttles, wind, dt);
        let s = *self.quad.state();
        self.distance_true += s.position.distance(self.last_true_position);
        self.last_true_position = s.position;

        if !self.airborne && s.altitude() > 1.5 {
            self.airborne = true;
        }
        prof.stage(imufit_obs::profile::Stage::Bookkeeping);

        // --- Tracking and bubble ---
        if self.every(self.config.tracking_rate) && self.airborne {
            let obs = self.bubble.observe(s.position, s.velocity.norm());
            self.last_bubble = (obs.deviation, obs.inner_radius, obs.outer_radius);
            if tracing {
                if obs.inner_violated && !self.bubble_inner_was {
                    self.tracer.event(
                        TraceEventKind::BubbleViolation,
                        self.tick,
                        self.time,
                        0,
                        format!(
                            "inner bubble: deviation {:.1} m > radius {:.1} m",
                            obs.deviation, obs.inner_radius
                        ),
                    );
                }
                if obs.outer_violated && !self.bubble_outer_was {
                    self.tracer.event(
                        TraceEventKind::BubbleViolation,
                        self.tick,
                        self.time,
                        1,
                        format!(
                            "outer bubble: deviation {:.1} m > radius {:.1} m",
                            obs.deviation, obs.outer_radius
                        ),
                    );
                }
            }
            self.bubble_inner_was = obs.inner_violated;
            self.bubble_outer_was = obs.outer_violated;
            self.recorder.offer(TrackPoint {
                time: self.time,
                true_position: s.position,
                est_position: nav.position,
                true_velocity: s.velocity,
                airspeed: s.velocity.norm(),
                fault_active,
                failsafe: failsafe_active,
            });
        }

        // --- Full-rate black-box record ---
        if tracing {
            let health = self.estimator.health();
            let mut flags = 0u8;
            if fault_active {
                flags |= FLAG_FAULT_ACTIVE;
            }
            if failsafe_active {
                flags |= FLAG_FAILSAFE;
            }
            if self.airborne {
                flags |= FLAG_AIRBORNE;
            }
            if report.primary_excluded {
                flags |= FLAG_PRIMARY_EXCLUDED;
            }
            let mut excluded_mask = 0u8;
            for (i, h) in report.health.iter().take(8).enumerate() {
                if h.excluded {
                    excluded_mask |= 1 << i;
                }
            }
            let mut instances = std::mem::take(&mut self.trace_pool);
            instances.clear();
            let clean = &self.trace_clean;
            let samples = &self.imu_samples;
            instances.extend(samples.iter().take(u8::MAX as usize).enumerate().map(
                |(i, sample)| {
                    let (dg, da) = match clean.get(i) {
                        Some(clean) => (sample.gyro - clean.gyro, sample.accel - clean.accel),
                        None => (Vec3::ZERO, Vec3::ZERO),
                    };
                    ImuInstanceTrace {
                        gyro: vec3_f32(sample.gyro),
                        accel: vec3_f32(sample.accel),
                        injected_gyro: vec3_f32(dg),
                        injected_accel: vec3_f32(da),
                    }
                },
            ));
            let evicted = self.tracer.record(TraceRecord {
                tick: self.tick,
                time: self.time,
                pos_ratio: health.pos_test_ratio as f32,
                vel_ratio: health.vel_test_ratio as f32,
                hgt_ratio: health.hgt_test_ratio as f32,
                cascade_stage: self.controller.mitigation_level().code(),
                flags,
                primary: self.imu_bank.primary() as u8,
                excluded_mask,
                deviation: self.last_bubble.0 as f32,
                inner_radius: self.last_bubble.1 as f32,
                outer_radius: self.last_bubble.2 as f32,
                instances,
            });
            if let Some(old) = evicted {
                self.trace_pool = old.instances;
            }
        }

        self.evaluate_end_conditions(&s);
    }

    /// Records one flight transition in the black box. `detail` runs only
    /// while the box is armed, so an untraced flight builds no strings at
    /// its edges.
    fn emit(
        &mut self,
        kind: TraceEventKind,
        time: f64,
        param: u32,
        detail: impl FnOnce(&Self) -> String,
    ) {
        if self.tracer.is_armed() {
            let detail = detail(self);
            self.tracer.event(kind, self.tick, time, param, detail);
        }
    }

    /// The monitor tuning in force (the default set when monitors are off,
    /// so timer comparisons stay well-defined).
    fn monitor_params(&self) -> imufit_estimator::MonitorParams {
        self.monitors
            .as_ref()
            .map(|m| m.gps.params())
            .unwrap_or_default()
    }

    /// Feeds one innovation test ratio to `sensor`'s monitor and emits the
    /// degradation edge — black box and obs counter — when the ladder
    /// moves. A no-op when monitors are disabled.
    fn observe_monitor(&mut self, sensor: FaultTarget, ratio: f64) {
        let Some(monitors) = self.monitors.as_mut() else {
            return;
        };
        let monitor = match sensor {
            FaultTarget::Gps => &mut monitors.gps,
            FaultTarget::Barometer => &mut monitors.baro,
            FaultTarget::Magnetometer => &mut monitors.mag,
            FaultTarget::Accelerometer
            | FaultTarget::Gyrometer
            | FaultTarget::Imu
            | FaultTarget::EstimatorState => return,
        };
        let Some(stage) = monitor.observe(ratio) else {
            return;
        };
        let mean = monitor.windowed_mean();
        imufit_obs::counter_labeled("sensor_degradations_total", "sensor", sensor.label()).inc();
        let param = (sensor.id() as u32) << 8 | stage.code();
        self.emit(TraceEventKind::SensorDegradation, self.time, param, |_| {
            format!(
                "{}: {} (windowed mean ratio {:.3})",
                sensor.label(),
                stage.label(),
                mean
            )
        });
    }

    /// Ticks a sub-rate scheduler: true when an event at `rate` Hz is due.
    fn every(&self, rate: f64) -> bool {
        let period = (self.config.physics_rate / rate).round() as u64;
        period <= 1 || self.tick.is_multiple_of(period)
    }

    /// Crash / completion / timeout classification on ground truth.
    fn evaluate_end_conditions(&mut self, s: &imufit_dynamics::RigidBodyState) {
        // Watchdog.
        if self.time >= self.config.max_sim_time {
            self.outcome = Some(FlightOutcome::Timeout);
            return;
        }

        // Divergence / flyaway: range safety would terminate the flight.
        let out_of_bounds = s.position.norm_xy() > FLYAWAY_RANGE || s.altitude() > FLYAWAY_ALTITUDE;
        if !s.is_finite() || out_of_bounds {
            self.outcome = Some(self.failure_outcome());
            return;
        }

        // Ground contact while airborne. Classification follows the flight
        // controller's state: if failsafe latched before the impact the run
        // counts as a failsafe activation (the paper's Table IV splits
        // failures by whether the failsafe was enabled), otherwise a hard
        // impact is a crash.
        if self.airborne && s.altitude() < 0.15 {
            let hard = s.velocity.z > CRASH_VERTICAL_SPEED
                || s.velocity.norm_xy() > CRASH_HORIZONTAL_SPEED
                || s.tilt() > CRASH_TILT;
            if hard {
                self.outcome = Some(self.failure_outcome());
                return;
            }
            // Gentle contact: legitimate landing or an unscheduled soft
            // touchdown; wait for the controller to disarm (below).
        }

        // Disarm: the flight controller believes the flight is over.
        if self.controller.is_disarmed() {
            if s.altitude() > 2.0 {
                // Land-detector false positive mid-air: the vehicle will
                // fall from here.
                self.outcome = Some(self.failure_outcome());
            } else if self.controller.mission_completed() {
                self.outcome = Some(FlightOutcome::Completed);
            } else {
                self.outcome = Some(self.failure_outcome());
            }
        }
    }

    /// A failure is a failsafe activation if failsafe latched first,
    /// otherwise a crash.
    fn failure_outcome(&self) -> FlightOutcome {
        match self.controller.failsafe_reason() {
            Some(reason) => FlightOutcome::Failsafe {
                time: self.time,
                reason,
            },
            None => FlightOutcome::Crashed { time: self.time },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imufit_faults::{FaultKind, FaultTarget, InjectionWindow};
    use imufit_missions::{all_missions, DroneSpec, CRUISE_ALTITUDE};

    /// A short mission so closed-loop tests stay fast: ~200 m at 12 km/h.
    fn short_mission() -> Mission {
        Mission {
            drone: DroneSpec {
                id: 99,
                name: "test".into(),
                cruise_speed_kmh: 12.0,
                payload_kg: 0.2,
                dimension_m: 0.6,
                safety_distance_m: 2.0,
            },
            home: Vec3::ZERO,
            waypoints: vec![Vec3::new(200.0, 0.0, -CRUISE_ALTITUDE)],
            direction: "S-N".into(),
        }
    }

    fn fault_at(kind: FaultKind, target: FaultTarget, start: f64, dur: f64) -> Vec<FaultSpec> {
        vec![FaultSpec::new(
            kind,
            target,
            InjectionWindow::new(start, dur),
        )]
    }

    /// Flies `faults` with the black box armed and returns the summary and
    /// the box's events: none in builds without the `trace` feature, where
    /// the collector never arms.
    fn fly_traced(
        m: &Mission,
        faults: Vec<FaultSpec>,
        mut config: SimConfig,
    ) -> (FlightSummary, Vec<imufit_trace::TraceEvent>) {
        config.trace.enabled = true;
        let mut sim = FlightSimulator::new(m, faults, config);
        let summary = sim.run_summary();
        let bytes = sim.take_black_box("m");
        assert_eq!(bytes.is_some(), cfg!(feature = "trace"));
        let events = bytes
            .map(|b| {
                imufit_trace::BlackBox::decode(&b)
                    .expect("box decodes")
                    .events
            })
            .unwrap_or_default();
        (summary, events)
    }

    #[test]
    fn gold_run_completes() {
        let m = short_mission();
        let sim = FlightSimulator::new(&m, Vec::new(), SimConfig::default_for(&m, 7));
        let r = sim.run();
        assert!(
            r.outcome.is_completed(),
            "gold run should complete, got {:?} after {:.1}s",
            r.outcome,
            r.duration
        );
        assert_eq!(
            r.violations.inner, 0,
            "gold run must not violate the inner bubble"
        );
        assert_eq!(r.violations.outer, 0);
        assert!(r.distance_true > 190.0, "distance {}", r.distance_true);
        // Duration plausible for 200 m at 3.33 m/s plus climb/descent.
        assert!(
            r.duration > 60.0 && r.duration < 220.0,
            "duration {}",
            r.duration
        );
        // Recorder sampled at ~1 Hz.
        assert!(r.recorder.len() as f64 > r.duration * 0.7);
    }

    #[test]
    fn gold_run_is_deterministic() {
        let m = short_mission();
        let a = FlightSimulator::new(&m, Vec::new(), SimConfig::default_for(&m, 5)).run();
        let b = FlightSimulator::new(&m, Vec::new(), SimConfig::default_for(&m, 5)).run();
        assert_eq!(a.duration, b.duration);
        assert_eq!(a.distance_est, b.distance_est);
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn different_seeds_differ_slightly() {
        let m = short_mission();
        let a = FlightSimulator::new(&m, Vec::new(), SimConfig::default_for(&m, 1)).run();
        let b = FlightSimulator::new(&m, Vec::new(), SimConfig::default_for(&m, 2)).run();
        assert!(a.outcome.is_completed() && b.outcome.is_completed());
        assert_ne!(a.distance_est, b.distance_est);
    }

    /// The complementary-filter backend, selected purely via config, flies
    /// gold runs to completion (the pluggability smoke test), whatever the
    /// seed: forty seeds cover the touchdown, where a tilt estimate pulled
    /// level by the vehicle's own acceleration used to crash a few.
    #[test]
    fn complementary_backend_completes_gold_run() {
        let m = short_mission();
        for seed in 1..=40 {
            let mut config = SimConfig::default_for(&m, seed);
            config.estimator = imufit_scenario::EstimatorBackend::Complementary;
            let sim = FlightSimulator::new(&m, Vec::new(), config);
            assert_eq!(sim.estimator().label(), "complementary");
            let r = sim.run();
            assert!(
                r.outcome.is_completed(),
                "seed {seed}: complementary gold run failed: {:?} after {:.1}s",
                r.outcome,
                r.duration
            );
            assert_eq!(
                r.violations.outer, 0,
                "seed {seed}: outer bubble must stay clean"
            );
        }
    }

    /// Swapping backends must change the flight (they are genuinely
    /// different filters), while the EKF path stays the paper's.
    #[test]
    fn backends_produce_different_flights() {
        let m = short_mission();
        let ekf = FlightSimulator::new(&m, Vec::new(), SimConfig::default_for(&m, 7)).run();
        let mut config = SimConfig::default_for(&m, 7);
        config.estimator = imufit_scenario::EstimatorBackend::Complementary;
        let comp = FlightSimulator::new(&m, Vec::new(), config).run();
        assert_ne!(ekf.distance_est, comp.distance_est);
    }

    #[test]
    fn gyro_min_fault_destroys_the_flight() {
        let m = short_mission();
        let faults = fault_at(FaultKind::Min, FaultTarget::Gyrometer, 30.0, 10.0);
        let r = FlightSimulator::new(&m, faults, SimConfig::default_for(&m, 11)).run();
        assert!(
            !r.outcome.is_completed(),
            "gyro min must fail, got {:?}",
            r.outcome
        );
        // It should end quickly after injection.
        assert!(r.duration < 60.0, "ended at {:.1}s", r.duration);
    }

    #[test]
    fn imu_random_fault_fails_fast() {
        let m = short_mission();
        let faults = fault_at(FaultKind::Random, FaultTarget::Imu, 30.0, 30.0);
        let r = FlightSimulator::new(&m, faults, SimConfig::default_for(&m, 13)).run();
        assert!(!r.outcome.is_completed());
    }

    #[test]
    fn short_acc_noise_fault_is_survivable() {
        let m = short_mission();
        let faults = fault_at(FaultKind::Noise, FaultTarget::Accelerometer, 30.0, 2.0);
        let r = FlightSimulator::new(&m, faults, SimConfig::default_for(&m, 17)).run();
        assert!(
            r.outcome.is_completed(),
            "2s acc noise should be survivable, got {:?}",
            r.outcome
        );
    }

    #[test]
    fn fault_runs_accumulate_bubble_violations() {
        // Saturated accel for 10 s: the EKF velocity runs away and the true
        // trajectory deviates from the route (or the flight fails outright).
        let m = short_mission();
        let faults = fault_at(FaultKind::Max, FaultTarget::Accelerometer, 30.0, 10.0);
        let r = FlightSimulator::new(&m, faults, SimConfig::default_for(&m, 19)).run();
        assert!(
            r.violations.inner > 0 || !r.outcome.is_completed(),
            "expected deviation or failure, got {:?} with {:?}",
            r.outcome,
            r.violations
        );
    }

    #[test]
    fn redundancy_masks_single_instance_faults() {
        // The paper assumes faults hit all redundant instances; when only
        // the primary instance is faulty, the consistency monitor switches
        // away and an otherwise-fatal fault becomes survivable.
        let m = short_mission();
        let faults = fault_at(FaultKind::Min, FaultTarget::Imu, 30.0, 10.0);
        let mut config = SimConfig::default_for(&m, 37);
        config.faults_affect_all_redundant = false;
        let masked = FlightSimulator::new(&m, faults.clone(), config).run();
        assert!(
            masked.outcome.is_completed(),
            "voting should mask a single-instance IMU Min fault, got {:?}",
            masked.outcome
        );

        // Same fault across all instances remains fatal.
        let all = FlightSimulator::new(&m, faults, SimConfig::default_for(&m, 37)).run();
        assert!(!all.outcome.is_completed());
    }

    #[test]
    fn instance_scoped_fault_is_isolated_and_logged() {
        // Acceptance: with 3 IMUs and an otherwise-fatal Min fault confined
        // to instance 0, the voter excludes the liar, the primary switches,
        // the mission completes with a clean outer bubble, and the black
        // box carries the isolation events.
        let m = short_mission();
        let faults = vec![FaultSpec::instance(
            FaultKind::Min,
            FaultTarget::Imu,
            InjectionWindow::new(30.0, 10.0),
            0,
        )];
        let (r, events) = fly_traced(&m, faults, SimConfig::default_for(&m, 29));
        assert!(
            r.outcome.is_completed(),
            "cascade should isolate the faulty instance, got {:?}",
            r.outcome
        );
        assert_eq!(r.violations.outer, 0, "outer bubble must stay clean");
        if cfg!(feature = "trace") {
            let kinds: Vec<TraceEventKind> = events.iter().map(|e| e.kind).collect();
            assert!(kinds.contains(&TraceEventKind::FaultActivated));
            assert!(kinds.contains(&TraceEventKind::VoterExclusion));
            assert!(kinds.contains(&TraceEventKind::PrimarySwitch));
            assert!(kinds.contains(&TraceEventKind::FaultCleared));
            assert!(
                kinds.contains(&TraceEventKind::VoterReinstatement),
                "instance 0 should rejoin consensus after the window closes"
            );
            // The cascade leaves nominal (stage 0) upward: an escalation.
            let first_stage = events
                .iter()
                .find(|e| e.kind == TraceEventKind::CascadeTransition)
                .map(|e| e.param);
            assert!(
                first_stage.is_some_and(|stage| stage > 0),
                "no escalation: {first_stage:?}"
            );
            // The exclusion must name instance 0.
            let excluded: Vec<u32> = events
                .iter()
                .filter(|e| e.kind == TraceEventKind::VoterExclusion)
                .map(|e| e.param)
                .collect();
            assert!(excluded.contains(&0), "excluded instances: {excluded:?}");
        }
    }

    #[test]
    fn all_scope_fault_sees_no_exclusions() {
        // The paper's regime: every redundant instance carries the same
        // corruption, so the voter sees perfect agreement and redundancy
        // buys nothing — the fault stays fatal and no instance is excluded.
        let m = short_mission();
        let faults = fault_at(FaultKind::Min, FaultTarget::Imu, 30.0, 10.0);
        let (a, events) = fly_traced(&m, faults.clone(), SimConfig::default_for(&m, 31));
        let b = FlightSimulator::new(&m, faults, SimConfig::default_for(&m, 31)).run();
        assert!(!a.outcome.is_completed());
        assert_eq!(
            a.duration, b.duration,
            "all-scope runs must be deterministic"
        );
        assert_eq!(a.violations, b.violations);
        assert!(
            !events
                .iter()
                .any(|e| e.kind == TraceEventKind::VoterExclusion),
            "identical corruption must not trip the voter"
        );
        if cfg!(feature = "trace") {
            assert!(events
                .iter()
                .any(|e| e.kind == TraceEventKind::FaultActivated));
        }
    }

    #[test]
    fn single_imu_disables_voting() {
        // With no redundancy the voter can never exclude; an instance-scoped
        // fault on the only IMU behaves like the paper's merged injection.
        let m = short_mission();
        let faults = vec![FaultSpec::instance(
            FaultKind::Min,
            FaultTarget::Imu,
            InjectionWindow::new(30.0, 10.0),
            0,
        )];
        let mut config = SimConfig::default_for(&m, 47);
        config.imu_redundancy = 1;
        let (r, events) = fly_traced(&m, faults, config);
        assert!(!r.outcome.is_completed());
        assert!(!events
            .iter()
            .any(|e| e.kind == TraceEventKind::VoterExclusion));
    }

    #[test]
    fn fast_detection_converts_crashes_into_failsafes() {
        // Gyro Max tumbles the vehicle within ~2 s by default; with the
        // detect-ensemble mitigation the failsafe latches within ~0.3 s of
        // onset, before control is lost.
        let m = short_mission();
        let faults = fault_at(FaultKind::Max, FaultTarget::Gyrometer, 30.0, 30.0);

        let default_run =
            FlightSimulator::new(&m, faults.clone(), SimConfig::default_for(&m, 41)).run();
        assert!(!default_run.outcome.is_completed());

        let mut config = SimConfig::default_for(&m, 41);
        config.fast_detection = true;
        let mitigated = FlightSimulator::new(&m, faults, config).run();
        assert!(
            mitigated.outcome.is_failsafe(),
            "mitigation should produce a failsafe activation, got {:?}",
            mitigated.outcome
        );
    }

    #[test]
    fn fast_detection_does_not_break_gold_runs() {
        let m = short_mission();
        let mut config = SimConfig::default_for(&m, 43);
        config.fast_detection = true;
        let r = FlightSimulator::new(&m, Vec::new(), config).run();
        assert!(
            r.outcome.is_completed(),
            "mitigation must not false-positive on a clean flight: {:?}",
            r.outcome
        );
    }

    #[test]
    fn full_mission_zero_gold_runs() {
        // The real mission 0 (shortest real route) must complete too.
        let m = &all_missions()[0];
        let r = FlightSimulator::new(m, Vec::new(), SimConfig::default_for(m, 23)).run();
        assert!(
            r.outcome.is_completed(),
            "mission 0 gold run failed: {:?} at {:.0}s",
            r.outcome,
            r.duration
        );
        assert_eq!(r.violations.inner, 0);
    }

    /// Tracing never feeds back into flight state: the same seeded fault
    /// run produces identical scalar results and an identical track with
    /// the black box on or off, also when one detection ensemble both
    /// times edges for the box and pulls the fast-detection failsafe.
    #[test]
    fn tracing_does_not_change_the_flight() {
        let m = short_mission();
        let faults = fault_at(FaultKind::Freeze, FaultTarget::Imu, 30.0, 30.0);
        for fast_detection in [false, true] {
            let mut config = SimConfig::default_for(&m, 17);
            config.fast_detection = fast_detection;
            let plain = FlightSimulator::new(&m, faults.clone(), config.clone()).run();

            config.trace.enabled = true;
            let mut traced = FlightSimulator::new(&m, faults.clone(), config);
            let summary = traced.run_summary();

            assert_eq!(plain.outcome, summary.outcome);
            assert_eq!(plain.duration, summary.duration);
            assert_eq!(plain.distance_est, summary.distance_est);
            assert_eq!(plain.distance_true, summary.distance_true);
            assert_eq!(plain.violations, summary.violations);
            assert_eq!(plain.ekf_resets, summary.ekf_resets);
            assert_eq!(&plain.recorder, traced.recorder(), "fast={fast_detection}");
        }
    }

    /// Each traced flight's black box carries the transitions that flight
    /// must produce, each with its detail text.
    #[cfg(feature = "trace")]
    #[test]
    fn traced_flights_box_their_transitions() {
        use imufit_faults::AttackKind;

        let m = short_mission();
        let instance_fault = vec![FaultSpec::instance(
            FaultKind::Min,
            FaultTarget::Imu,
            InjectionWindow::new(30.0, 10.0),
            0,
        )];
        let mut fast = SimConfig::default_for(&m, 41);
        fast.fast_detection = true;
        let mut monitored = SimConfig::default_for(&m, 7);
        monitored.innovation_monitors = true;
        let spoof = vec![AttackSpec::new(
            AttackKind::GpsSpoofRamp,
            InjectionWindow::new(40.0, 30.0),
        )];
        let flights = [
            (
                instance_fault,
                Vec::new(),
                SimConfig::default_for(&m, 29),
                vec![
                    TraceEventKind::VoterExclusion,
                    TraceEventKind::PrimarySwitch,
                    TraceEventKind::CascadeTransition,
                ],
            ),
            (
                fault_at(FaultKind::Max, FaultTarget::Gyrometer, 30.0, 30.0),
                Vec::new(),
                fast,
                vec![
                    TraceEventKind::DetectorEdge,
                    TraceEventKind::FailsafeActivated,
                ],
            ),
            (
                Vec::new(),
                spoof,
                monitored,
                vec![
                    TraceEventKind::AttackActivated,
                    TraceEventKind::SensorDegradation,
                ],
            ),
        ];
        for (faults, attacks, mut config, expected) in flights {
            config.trace.enabled = true;
            let mut sim = FlightSimulator::new(&m, faults, config);
            sim.set_attacks(attacks);
            let _ = sim.run_summary();
            let bytes = sim.take_black_box("m").expect("traced flight seals a box");
            let events = imufit_trace::BlackBox::decode(&bytes)
                .expect("box decodes")
                .events;
            for kind in &expected {
                assert!(events.iter().any(|e| e.kind == *kind), "no {kind:?}");
            }
            assert!(
                events.iter().all(|e| !e.detail.is_empty()),
                "an event without detail: {events:?}"
            );
        }
    }

    /// With the `trace` feature on, a traced fault run seals a decodable
    /// black box whose causal chain starts at the fault activation; with it
    /// off, the collector never arms and stays silent.
    #[test]
    fn traced_fault_run_yields_a_black_box() {
        let m = short_mission();
        let faults = fault_at(FaultKind::Freeze, FaultTarget::Imu, 30.0, 30.0);
        let mut config = SimConfig::default_for(&m, 17);
        config.trace.enabled = true;
        let mut sim = FlightSimulator::new(&m, faults, config);
        let _ = sim.run_summary();

        if cfg!(feature = "trace") {
            let stats = sim.trace_stats();
            assert!(stats.records_captured > 0, "stats {stats:?}");
            assert!(stats.events >= 2, "stats {stats:?}");
            let bytes = sim
                .take_black_box("mission=99 kind=freeze")
                .expect("armed fault run must capture a black box");
            let bb = imufit_trace::BlackBox::decode(&bytes).expect("sealed box must decode");
            assert_eq!(bb.metadata, "mission=99 kind=freeze");
            assert!(!bb.segments.is_empty(), "trigger should freeze a segment");
            assert!(bb.segments.iter().all(|s| !s.records.is_empty()));
            assert_eq!(
                bb.events[0].kind,
                imufit_trace::TraceEventKind::FaultActivated
            );
            let outcome = bb.events.last().unwrap();
            assert_eq!(outcome.kind, imufit_trace::TraceEventKind::RunOutcome);
            assert!(outcome.caused_by.is_some(), "outcome must chain to a cause");
        } else {
            assert_eq!(sim.trace_stats(), imufit_trace::TraceStats::default());
            assert!(sim.take_black_box("m").is_none());
        }
    }
}
