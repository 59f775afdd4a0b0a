//! A replica of `FlightSimulator::step` assembled from the stage crates'
//! public calls, with a span at every stage seam. It flies the simulator's
//! exact flight: the trace run compares every replica record with the real
//! one, so the per-layer times describe the code the campaigns run.

use std::time::Instant;

use imufit::bubble::{BubbleTracker, InnerBubbleSpec, Route};
use imufit::controller::{ControllerParams, FlightController, RedundancyStatus};
use imufit::core::{Campaign, CampaignConfig, ExperimentRecord, ExperimentSpec};
use imufit::dynamics::{Quadrotor, QuadrotorParams, RigidBodyState, WindModel};
use imufit::estimator::{DegradationMonitors, Ekf, EkfParams};
use imufit::faults::{AttackInjector, FaultInjector, FaultScope, FaultSpec, FaultTarget};
use imufit::math::rng::Pcg;
use imufit::math::Vec3;
use imufit::scenario::EstimatorBackend;
use imufit::sensors::{
    yaw_from_mag, BaroSpec, Barometer, Gps, GpsSpec, ImuSpec, ImuVoter, MagSpec, Magnetometer,
    RedundantImu, VoterConfig,
};
use imufit::telemetry::broker::BrokerBridge;
use imufit::telemetry::tracker::POSITION_TOPIC;
use imufit::telemetry::{encode, Broker, FlightRecorder, Message, TrackPoint, Tracker};
use imufit::uav::{FlightOutcome, FlightSummary, MitigationStage, SimConfig};

/// The stage seams of one tick, in pipeline order. Each names the layer
/// metric its span feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `WindModel::step`.
    Wind,
    /// `RedundantImu::sample_all`.
    ImuSample,
    /// `FaultInjector::apply_bank`.
    ApplyBank,
    /// The attack injector: window advance, aiding corruption, state glitch.
    Attack,
    /// `ImuVoter::vote` and the primary switch.
    Vote,
    /// `Ekf::predict`.
    Predict,
    /// GPS, barometer and magnetometer sampling.
    AidingSample,
    /// The innovation monitors: fusion gate and ladder update.
    Monitor,
    /// `Ekf::fuse_gps`.
    FuseGps,
    /// `Ekf::fuse_baro`.
    FuseBaro,
    /// Tilt-compensated yaw and `Ekf::fuse_yaw`.
    FuseYaw,
    /// Fast-detection mitigation and the dead-reckon failsafe rung.
    Mitigation,
    /// `FlightController::update_with_redundancy`.
    Update,
    /// `Quadrotor::step_with_wind` and the truth bookkeeping.
    Step,
    /// `BubbleTracker::observe`.
    Bubble,
    /// Flight log and position telemetry.
    Telemetry,
    /// End-of-flight classification.
    Bookkeeping,
}

/// Number of [`Stage`]s.
pub const STAGES: usize = 17;

impl Stage {
    /// The span name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Wind => "dynamics.wind",
            Stage::ImuSample => "sensors.imu_sample",
            Stage::ApplyBank => "faults.apply_bank",
            Stage::Attack => "faults.attack",
            Stage::Vote => "sensors.vote",
            Stage::Predict => "estimator.predict",
            Stage::AidingSample => "sensors.aiding_sample",
            Stage::Monitor => "estimator.monitor",
            Stage::FuseGps => "estimator.fuse_gps",
            Stage::FuseBaro => "estimator.fuse_baro",
            Stage::FuseYaw => "estimator.fuse_yaw",
            Stage::Mitigation => "controller.mitigation",
            Stage::Update => "controller.update",
            Stage::Step => "dynamics.step",
            Stage::Bubble => "bubble.observe",
            Stage::Telemetry => "telemetry.publish",
            Stage::Bookkeeping => "uav.bookkeeping",
        }
    }
}

/// A kept span: name, start and end (ns since the trace began), the span
/// that contains it (0 for a tick) and the run it belongs to.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id.
    pub id: u64,
    /// The containing span, 0 at the top.
    pub parent: u64,
    /// Index of the run in the sample.
    pub run: u32,
    /// Span name.
    pub name: &'static str,
    /// Start, ns since the trace began.
    pub start_ns: u64,
    /// End, ns since the trace began.
    pub end_ns: u64,
}

/// One tick in this many keeps its full spans; every tick feeds the
/// per-stage counters.
const KEEP_EVERY: u64 = 64;

/// Per-stage counters over every tick, plus the full spans of sampled
/// ticks. Stages tile the tick: each seam closes the open stage and opens
/// the next with a single clock read.
pub struct Tracer {
    epoch: Instant,
    /// Nanoseconds spent in each stage.
    pub ns: [u64; STAGES],
    /// Spans opened per stage.
    pub calls: [u64; STAGES],
    /// Ticks traced.
    pub ticks: u64,
    /// Nanoseconds spent in ticks.
    pub tick_ns: u64,
    /// Kept spans.
    pub spans: Vec<Span>,
    open: Option<(Stage, Instant)>,
    tick_start: Instant,
    tick_id: u64,
    next_id: u64,
    run: u32,
}

impl Tracer {
    /// A tracer whose span times count from now.
    pub fn new() -> Tracer {
        let now = Instant::now();
        Tracer {
            epoch: now,
            ns: [0; STAGES],
            calls: [0; STAGES],
            ticks: 0,
            tick_ns: 0,
            spans: Vec::new(),
            open: None,
            tick_start: now,
            tick_id: 0,
            next_id: 1,
            run: 0,
        }
    }

    /// Spans from now on belong to run `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn offset(&self, t: Instant) -> u64 {
        (t - self.epoch).as_nanos() as u64
    }

    fn keep(&mut self, parent: u64, name: &'static str, start: Instant, end: Instant) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let span = Span {
            id,
            parent,
            run: self.run,
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
        };
        self.spans.push(span);
        id
    }

    fn close(&mut self, now: Instant) {
        if let Some((stage, start)) = self.open.take() {
            self.ns[stage as usize] += (now - start).as_nanos() as u64;
            if self.tick_id != 0 {
                self.keep(self.tick_id, stage.name(), start, now);
            }
        }
    }

    fn begin_tick(&mut self, first: Stage) {
        let now = Instant::now();
        self.tick_start = now;
        self.tick_id = if self.ticks.is_multiple_of(KEEP_EVERY) {
            let id = self.next_id;
            self.next_id += 1;
            id
        } else {
            0
        };
        self.open = Some((first, now));
        self.calls[first as usize] += 1;
    }

    fn mark(&mut self, stage: Stage) {
        let now = Instant::now();
        self.close(now);
        self.open = Some((stage, now));
        self.calls[stage as usize] += 1;
    }

    fn end_tick(&mut self) {
        let now = Instant::now();
        self.close(now);
        self.tick_ns += (now - self.tick_start).as_nanos() as u64;
        self.ticks += 1;
        if self.tick_id != 0 {
            // The tick span was numbered when it opened, so its children
            // could name it as their parent.
            self.spans.push(Span {
                id: self.tick_id,
                parent: 0,
                run: self.run,
                name: "uav.tick",
                start_ns: self.offset(self.tick_start),
                end_ns: self.offset(now),
            });
        }
    }
}

/// Each span's self time: its duration minus the time its children cover.
pub fn self_ns(spans: &[Span]) -> std::collections::HashMap<u64, u64> {
    let mut child_ns: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    spans
        .iter()
        .map(|s| {
            let own = s.end_ns - s.start_ns;
            (
                s.id,
                own.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0)),
            )
        })
        .collect()
}

// Crash classification thresholds, the simulator's own values.
const CRASH_VERTICAL_SPEED: f64 = 2.0;
const CRASH_HORIZONTAL_SPEED: f64 = 2.5;
const CRASH_TILT: f64 = 0.8;
const FLYAWAY_RANGE: f64 = 4_500.0;
const FLYAWAY_ALTITUDE: f64 = 150.0;

/// The simulator's end-of-flight classification on ground truth.
fn classify_end(
    s: &RigidBodyState,
    time: f64,
    max_sim_time: f64,
    airborne: bool,
    controller: &FlightController,
) -> Option<FlightOutcome> {
    let failure = || match controller.failsafe_reason() {
        Some(reason) => FlightOutcome::Failsafe { time, reason },
        None => FlightOutcome::Crashed { time },
    };
    if time >= max_sim_time {
        return Some(FlightOutcome::Timeout);
    }
    if !s.is_finite() || s.position.norm_xy() > FLYAWAY_RANGE || s.altitude() > FLYAWAY_ALTITUDE {
        return Some(failure());
    }
    if airborne && s.altitude() < 0.15 {
        let hard = s.velocity.z > CRASH_VERTICAL_SPEED
            || s.velocity.norm_xy() > CRASH_HORIZONTAL_SPEED
            || s.tilt() > CRASH_TILT;
        if hard {
            return Some(failure());
        }
    }
    if controller.is_disarmed() {
        if s.altitude() > 2.0 {
            return Some(failure());
        } else if controller.mission_completed() {
            return Some(FlightOutcome::Completed);
        }
        return Some(failure());
    }
    None
}

/// One vehicle, built the way `FlightSimulator::reset` builds it.
pub struct Replica {
    cfg: SimConfig,
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
    attacks: AttackInjector,
    ekf: Ekf,
    controller: FlightController,
    wind: WindModel,
    bubble: BubbleTracker,
    recorder: FlightRecorder,
    edge: Broker,
    _core: Broker,
    bridge: BrokerBridge,
    tracker: Tracker,
    drone_id: u32,
    rng_imu: Pcg,
    rng_gps: Pcg,
    rng_baro: Pcg,
    rng_compass: Pcg,
    rng_wind: Pcg,
    rng_fault: Pcg,
    rng_attack: Pcg,
    monitors: Option<DegradationMonitors>,
    dead_reckon_since: Option<f64>,
    mitigation: MitigationStage,
    airborne: bool,
    distance_true: f64,
    last_true_position: Vec3,
    outcome: Option<FlightOutcome>,
}

impl Replica {
    /// The vehicle for one run of `config`, seeded as the campaign seeds it.
    pub fn new(config: &CampaignConfig, spec: &ExperimentSpec) -> Result<Replica, String> {
        let mission = config
            .missions
            .get(spec.mission_index)
            .ok_or_else(|| format!("no mission {}", spec.mission_index))?;
        let cfg = config.sim_config(mission, spec.derive_seed(config.seed));
        if cfg.estimator != EstimatorBackend::Ekf {
            return Err("the replica flies the EKF backend only".to_string());
        }
        let faults: Vec<FaultSpec> = spec
            .fault
            .into_iter()
            .map(|f| {
                if !cfg.faults_affect_all_redundant && f.scope.is_all() {
                    f.with_scope(FaultScope::Instance(0))
                } else {
                    f
                }
            })
            .collect();
        let master = Pcg::seed_from(cfg.seed);
        let mut rng_init = master.derive(&[0]);
        let quad_params =
            QuadrotorParams::default_airframe().with_payload(mission.drone.payload_kg);
        let controller_params =
            ControllerParams::for_vehicle(quad_params.mass, 4.0 * quad_params.rotor_max_thrust);
        let quad = Quadrotor::with_state(quad_params, RigidBodyState::at_rest(mission.home));
        let imu_spec = ImuSpec::default();
        let instances = cfg.imu_redundancy.max(1);
        let imu_bank = RedundantImu::new(imu_spec, instances, &mut rng_init);
        let voter = ImuVoter::new(VoterConfig::default(), instances);
        let baro = Barometer::try_new(BaroSpec::default(), 16.0)?;
        let gps = Gps::try_new(GpsSpec::default())?;
        let mag = Magnetometer::try_new(MagSpec::default(), &mut rng_init)?;
        let mut ekf = Ekf::new(EkfParams::default());
        ekf.initialize(mission.home, Vec3::ZERO, 0.0);
        let controller = FlightController::new(controller_params, mission.plan());

        let mut route = vec![
            mission.home,
            Vec3::new(
                mission.home.x,
                mission.home.y,
                -imufit::missions::CRUISE_ALTITUDE,
            ),
        ];
        route.extend(mission.waypoints.iter().copied());
        if let Some(last) = mission.waypoints.last() {
            route.push(Vec3::new(last.x, last.y, 0.0));
        }
        let bubble = BubbleTracker::new(
            Route::new(route),
            InnerBubbleSpec {
                dimension: mission.drone.dimension_m,
                safety_distance: mission.drone.safety_distance_m,
                max_tracking_distance: mission.drone.max_tracking_distance(1.0 / cfg.tracking_rate),
            },
            cfg.risk_factor,
        );
        let edge = Broker::new();
        let core = Broker::new();
        let bridge = edge.bridge(&core, POSITION_TOPIC);
        let tracker = Tracker::attach(&core);
        Ok(Replica {
            dt: 1.0 / cfg.physics_rate,
            time: 0.0,
            tick: 0,
            quad,
            imu_bank,
            voter,
            baro,
            gps,
            mag,
            injector: FaultInjector::new(imu_spec, faults),
            attacks: AttackInjector::new(spec.attack.into_iter().collect()),
            ekf,
            controller,
            wind: cfg.wind.clone(),
            bubble,
            recorder: FlightRecorder::new(1.0 / cfg.tracking_rate),
            edge,
            _core: core,
            bridge,
            tracker,
            drone_id: mission.drone.id,
            rng_imu: master.derive(&[1]),
            rng_gps: master.derive(&[2]),
            rng_baro: master.derive(&[3]),
            rng_compass: master.derive(&[4]),
            rng_wind: master.derive(&[5]),
            rng_fault: master.derive(&[6]),
            rng_attack: master.derive(&[7]),
            monitors: cfg.innovation_monitors.then(DegradationMonitors::default),
            dead_reckon_since: None,
            mitigation: MitigationStage::new(cfg.fast_detection, cfg.mitigation_persist),
            airborne: false,
            distance_true: 0.0,
            last_true_position: mission.home,
            outcome: None,
            cfg,
        })
    }

    /// Flies to the end and returns the campaign record of the flight.
    pub fn fly(
        mut self,
        config: &CampaignConfig,
        spec: ExperimentSpec,
        tracer: &mut Tracer,
    ) -> ExperimentRecord {
        while self.outcome.is_none() {
            self.step(tracer);
        }
        let summary = FlightSummary {
            outcome: self.outcome.unwrap_or(FlightOutcome::Aborted),
            duration: self.time,
            distance_est: self.ekf.distance_traveled(),
            distance_true: self.distance_true,
            violations: self.bubble.counts(),
            ekf_resets: self.ekf.health().reset_count,
        };
        Campaign::record_from_summary(config, spec, &summary)
    }

    fn due(&self, rate: f64) -> bool {
        let period = (self.cfg.physics_rate / rate).round() as u64;
        period <= 1 || self.tick.is_multiple_of(period)
    }

    fn observe_monitor(&mut self, sensor: FaultTarget, ratio: f64) {
        let Some(m) = self.monitors.as_mut() else {
            return;
        };
        let monitor = match sensor {
            FaultTarget::Gps => &mut m.gps,
            FaultTarget::Barometer => &mut m.baro,
            FaultTarget::Magnetometer => &mut m.mag,
            _ => return,
        };
        monitor.observe(ratio);
    }

    fn step(&mut self, t: &mut Tracer) {
        t.begin_tick(Stage::Wind);
        let dt = self.dt;
        self.tick += 1;
        self.time += dt;
        let wind = self.wind.step(dt, &mut self.rng_wind);

        t.mark(Stage::ImuSample);
        let force = self.quad.specific_force_body();
        let rate = self.quad.angular_rate_body();
        let mut samples = self.imu_bank.sample_all(force, rate, dt, &mut self.rng_imu);

        t.mark(Stage::ApplyBank);
        self.injector.apply_bank(&mut samples, &mut self.rng_fault);

        t.mark(Stage::Attack);
        self.attacks.advance(self.time, &mut self.rng_attack);

        t.mark(Stage::Vote);
        let primary = self.imu_bank.primary();
        let report = self.voter.vote(&samples, primary);
        let imu = report.merged;
        let switched = report.primary_excluded && report.selected != primary;
        if switched {
            self.imu_bank.switch_primary(report.selected);
        }
        let redundancy = RedundancyStatus {
            instances: self.imu_bank.count(),
            excluded: report.health.iter().filter(|h| h.excluded).count(),
            primary_excluded: report.primary_excluded,
            switched,
        };

        t.mark(Stage::Predict);
        self.ekf.predict(&imu, dt);
        let truth = *self.quad.state();
        if self.due(self.cfg.gps_rate) {
            t.mark(Stage::AidingSample);
            let period = 1.0 / self.cfg.gps_rate;
            let mut fix =
                self.gps
                    .sample(truth.position, truth.velocity, period, &mut self.rng_gps);
            t.mark(Stage::Attack);
            self.attacks.apply_gps(&mut fix, self.time);
            t.mark(Stage::Monitor);
            if self.monitors.as_ref().is_none_or(|m| m.gps.allows_fusion()) {
                t.mark(Stage::FuseGps);
                self.ekf.fuse_gps(&fix);
                let health = self.ekf.health();
                t.mark(Stage::Monitor);
                self.observe_monitor(
                    FaultTarget::Gps,
                    health.pos_test_ratio.max(health.vel_test_ratio),
                );
            }
        }
        if self.due(self.cfg.baro_rate) {
            t.mark(Stage::AidingSample);
            let period = 1.0 / self.cfg.baro_rate;
            let mut sample = self
                .baro
                .sample(truth.altitude(), period, &mut self.rng_baro);
            t.mark(Stage::Attack);
            self.attacks.apply_baro(&mut sample, self.time);
            t.mark(Stage::Monitor);
            if self
                .monitors
                .as_ref()
                .is_none_or(|m| m.baro.allows_fusion())
            {
                t.mark(Stage::FuseBaro);
                self.ekf.fuse_baro(&sample);
                let ratio = self.ekf.health().hgt_test_ratio;
                t.mark(Stage::Monitor);
                self.observe_monitor(FaultTarget::Barometer, ratio);
            }
        }
        if self.due(self.cfg.compass_rate) {
            t.mark(Stage::AidingSample);
            let mut sample = self.mag.sample(truth.attitude, &mut self.rng_compass);
            t.mark(Stage::Attack);
            self.attacks.apply_mag(&mut sample, self.time);
            t.mark(Stage::Monitor);
            if self.monitors.as_ref().is_none_or(|m| m.mag.allows_fusion()) {
                t.mark(Stage::FuseYaw);
                let (roll, pitch, _) = self.ekf.state().attitude.to_euler();
                let yaw = yaw_from_mag(&sample, roll, pitch, self.mag.spec().declination);
                self.ekf.fuse_yaw(yaw);
                let ratio = self.ekf.health().yaw_test_ratio;
                t.mark(Stage::Monitor);
                self.observe_monitor(FaultTarget::Magnetometer, ratio);
            }
        }
        t.mark(Stage::Attack);
        if let Some(kick) = self.attacks.take_state_glitch(self.time) {
            self.ekf.perturb_velocity(kick);
        }

        t.mark(Stage::Mitigation);
        let rejecting = self.ekf.health().any_rejecting();
        let nav = *self.ekf.state();
        if self.mitigation.observe(&imu, dt, self.time, self.airborne) {
            self.controller.trigger_external_failsafe(self.time, &nav);
        }
        if let Some(m) = self.monitors.as_ref().filter(|m| m.dead_reckoning()) {
            let failsafe_after = m.gps.params().failsafe_after_s;
            let since = *self.dead_reckon_since.get_or_insert(self.time);
            if self.airborne && self.time - since >= failsafe_after {
                self.controller.trigger_external_failsafe(self.time, &nav);
            }
        } else {
            self.dead_reckon_since = None;
        }

        t.mark(Stage::Update);
        let out = self
            .controller
            .update_with_redundancy(self.time, dt, &nav, &imu, rejecting, redundancy);
        if out.rotate_imu {
            self.imu_bank.rotate_primary();
        }
        self.controller.take_cascade_transitions();

        t.mark(Stage::Step);
        self.quad.step_with_wind(out.throttles, wind, dt);
        let s = *self.quad.state();
        self.distance_true += s.position.distance(self.last_true_position);
        self.last_true_position = s.position;
        if !self.airborne && s.altitude() > 1.5 {
            self.airborne = true;
        }

        if self.due(self.cfg.tracking_rate) && self.airborne {
            t.mark(Stage::Bubble);
            self.bubble.observe(s.position, s.velocity.norm());
            t.mark(Stage::Telemetry);
            self.recorder.offer(TrackPoint {
                time: self.time,
                true_position: s.position,
                est_position: nav.position,
                true_velocity: s.velocity,
                airspeed: s.velocity.norm(),
                fault_active: self.injector.any_active(self.time),
                failsafe: self.controller.failsafe_active(),
            });
            let msg = Message::Position {
                drone_id: self.drone_id,
                time: self.time,
                position: nav.position,
                velocity: nav.velocity,
            };
            self.edge.publish(POSITION_TOPIC, encode(&msg));
            self.bridge.pump();
            self.tracker.pump();
        }

        t.mark(Stage::Bookkeeping);
        self.outcome = classify_end(
            &s,
            self.time,
            self.cfg.max_sim_time,
            self.airborne,
            &self.controller,
        );
        t.end_tick();
    }
}
