//! The scenario document: one declarative description of a full run.
//!
//! A [`ScenarioSpec`] carries everything the testbed needs to reproduce a
//! run — simulation rates, redundancy, wind, estimator and mitigation
//! backends, fault selection, and the campaign axes — in one place, instead
//! of smearing it across `SimConfig`, `CampaignConfig`, and per-example
//! boilerplate. Specs round-trip through TOML and JSON (see [`crate::doc`])
//! and ship with named presets:
//!
//! | preset | meaning |
//! |---|---|
//! | `paper-default` | the paper's 850-case campaign, bit-for-bit |
//! | `quick` | 3 missions × {2 s, 30 s} smoke campaign |
//! | `redundancy-ablation` | faults confined to IMU instance 0 |
//! | `mitigation-on` | fast-detection mitigation enabled |
//! | `attack-sweep` | the beyond-IMU attack catalog with innovation monitors on |

use std::fmt;

use imufit_faults::{AttackKind, FaultKind, FaultTarget, InjectionWindow};
use imufit_trace::{TraceSettings, TraceTrigger};

use crate::doc::{self, DocError, Value};

/// Which attitude/navigation estimator flies the vehicle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EstimatorBackend {
    /// The 15-state error-state EKF (the paper's EKF2 stand-in).
    #[default]
    Ekf,
    /// A fixed-gain complementary filter: no covariance, no gating — the
    /// lightweight backend that proves the pipeline is pluggable.
    Complementary,
}

impl EstimatorBackend {
    /// The identifier used in scenario documents.
    pub fn label(self) -> &'static str {
        match self {
            EstimatorBackend::Ekf => "ekf",
            EstimatorBackend::Complementary => "complementary",
        }
    }

    /// Parses a document identifier.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "ekf" => Some(EstimatorBackend::Ekf),
            "complementary" => Some(EstimatorBackend::Complementary),
            _ => None,
        }
    }
}

impl fmt::Display for EstimatorBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Mean wind plus gust process — the scenario's mirror of the dynamics
/// crate's `WindModel`, kept as plain numbers so this crate stays a pure
/// description layer.
#[derive(Debug, Clone, PartialEq)]
pub struct WindSettings {
    /// Mean wind, world NED, m/s.
    pub mean_north: f64,
    /// Mean wind, world NED, m/s.
    pub mean_east: f64,
    /// Mean wind, world NED, m/s.
    pub mean_down: f64,
    /// Gust (Ornstein–Uhlenbeck) standard deviation, m/s.
    pub gust_std: f64,
    /// Gust correlation time, s.
    pub gust_tau: f64,
}

impl Default for WindSettings {
    /// Calm air, matching `WindModel::calm()`.
    fn default() -> Self {
        WindSettings {
            mean_north: 0.0,
            mean_east: 0.0,
            mean_down: 0.0,
            gust_std: 0.0,
            gust_tau: 1.0,
        }
    }
}

/// Fast-detection mitigation settings (the paper flies with this off).
#[derive(Debug, Clone, PartialEq)]
pub struct MitigationSettings {
    /// Run the detect ensemble on the consumed IMU stream and latch
    /// failsafe on a persistent alarm.
    pub fast_detection: bool,
    /// Continuous alarm time before failsafe latches, s.
    pub persist_s: f64,
}

impl Default for MitigationSettings {
    fn default() -> Self {
        MitigationSettings {
            fast_detection: false,
            persist_s: 0.25,
        }
    }
}

/// Fault selection: which slice of the paper's 7 × 3 fault grid a campaign
/// built from this scenario injects, and how faults map onto redundant
/// IMU instances.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSettings {
    /// The paper's threat model: every redundant instance carries the same
    /// corruption. `false` confines all-scope faults to hardware instance 0
    /// (the redundancy ablation).
    pub affect_all_redundant: bool,
    /// Fault kinds to inject; empty means all seven.
    pub kinds: Vec<FaultKind>,
    /// Fault targets to inject; empty means all three.
    pub targets: Vec<FaultTarget>,
}

impl Default for FaultSettings {
    fn default() -> Self {
        FaultSettings {
            affect_all_redundant: true,
            kinds: Vec::new(),
            targets: Vec::new(),
        }
    }
}

impl FaultSettings {
    /// True when `kind` is selected by this scenario.
    pub fn selects_kind(&self, kind: FaultKind) -> bool {
        self.kinds.is_empty() || self.kinds.contains(&kind)
    }

    /// True when `target` is selected by this scenario.
    pub fn selects_target(&self, target: FaultTarget) -> bool {
        self.targets.is_empty() || self.targets.contains(&target)
    }
}

/// The beyond-IMU attack axis: which catalog entries a campaign built from
/// this scenario injects, and whether the EKF's innovation-consistency
/// monitors (the graceful-degradation defense) fly with them.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackSettings {
    /// Attack kinds to inject; empty means no attack axis at all (the
    /// paper-default shape).
    pub kinds: Vec<AttackKind>,
    /// Attack window start, s after takeoff.
    pub start_s: f64,
    /// Attack window durations, s.
    pub durations: Vec<f64>,
    /// Multiplier on each kind's default intensity.
    pub intensity_scale: f64,
    /// Arm the per-sensor innovation monitors and the degradation ladder.
    pub monitors: bool,
}

impl Default for AttackSettings {
    fn default() -> Self {
        AttackSettings {
            kinds: Vec::new(),
            start_s: InjectionWindow::CAMPAIGN_START,
            durations: vec![30.0],
            intensity_scale: 1.0,
            monitors: false,
        }
    }
}

/// Everything one vehicle needs: rates, redundancy, environment, and the
/// estimator / mitigation backends. The mission and seed stay external —
/// they are the campaign's axes, not the vehicle's shape.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightSettings {
    /// Physics and control base rate, Hz.
    pub physics_rate: f64,
    /// GNSS fix rate, Hz.
    pub gps_rate: f64,
    /// Barometer sample rate, Hz.
    pub baro_rate: f64,
    /// Compass (yaw aiding) rate, Hz.
    pub compass_rate: f64,
    /// Tracking/bubble cadence, Hz (the paper uses 1 Hz).
    pub tracking_rate: f64,
    /// Redundant IMU instances (PX4-class autopilots carry 3).
    pub imu_redundancy: usize,
    /// Risk factor `R` for the outer bubble (the paper uses 1).
    pub risk_factor: f64,
    /// Watchdog: `max_sim_time = factor * nominal_duration + margin`.
    pub watchdog_factor: f64,
    /// Watchdog margin, s.
    pub watchdog_margin_s: f64,
    /// Estimator backend.
    pub estimator: EstimatorBackend,
    /// Fast-detection mitigation.
    pub mitigation: MitigationSettings,
    /// Wind environment.
    pub wind: WindSettings,
}

impl Default for FlightSettings {
    /// The paper's flight configuration: the one statement of its rates,
    /// redundancy and watchdog (`SimConfig::default_for` realizes it).
    fn default() -> Self {
        FlightSettings {
            physics_rate: 250.0,
            gps_rate: 5.0,
            baro_rate: 25.0,
            compass_rate: 10.0,
            tracking_rate: 1.0,
            imu_redundancy: 3,
            risk_factor: 1.0,
            watchdog_factor: 2.5,
            watchdog_margin_s: 60.0,
            estimator: EstimatorBackend::Ekf,
            mitigation: MitigationSettings::default(),
            wind: WindSettings::default(),
        }
    }
}

/// Live observability-plane settings: whether a campaign run embeds the
/// HTTP `/metrics`/`/status` server and how the time-series recorder
/// samples. Results are identical whether the plane is on or off — this
/// section only controls the side channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsSettings {
    /// Serve `/metrics`, `/status`, and `/healthz` during the run.
    pub serve: bool,
    /// Listen address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Time-series recorder sampling interval, s.
    pub sample_interval_s: f64,
    /// Ring capacity of the recorder: the newest N samples survive to
    /// the flushed `.ifms` file.
    pub series_capacity: usize,
    /// Declarative SLO alert rules, one `<selector> <op> <threshold>`
    /// line each (e.g. `fleet_lease_expiries_total > 0`). Parsed and
    /// typo-checked at load time; evaluated live by the `/alerts`
    /// endpoint and the recorder sampler.
    pub alerts: Vec<String>,
}

impl Default for ObsSettings {
    fn default() -> Self {
        ObsSettings {
            serve: false,
            addr: "127.0.0.1:0".to_string(),
            sample_interval_s: 1.0,
            series_capacity: 600,
            alerts: Vec::new(),
        }
    }
}

/// Distributed-campaign settings: how a fleet coordinator shards this
/// scenario across worker processes. Ignored by the single-process runner;
/// the `imufit-fleet` crate reads them when `--fleet-workers`/`fleet run`
/// is in play.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSettings {
    /// Worker processes; 0 = one per available core, clamped to the run
    /// count like `campaign.threads`.
    pub workers: usize,
    /// Seconds a dispatched work unit may go without a result or heartbeat
    /// before its lease expires and the unit is re-queued.
    pub lease_timeout_s: f64,
    /// How many times a unit is re-dispatched after lease expiry or worker
    /// loss before it is stamped `aborted` (the panic path's outcome).
    pub retry_cap: usize,
}

impl Default for FleetSettings {
    fn default() -> Self {
        FleetSettings {
            workers: 0,
            lease_timeout_s: 30.0,
            retry_cap: 3,
        }
    }
}

/// The campaign axes: seed, mission slice, injection windows, parallelism.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSettings {
    /// Master seed; every experiment derives an independent stream.
    pub seed: u64,
    /// How many of the ten study missions to fly.
    pub missions: usize,
    /// Injection durations, s (the paper: 2, 5, 10, 30).
    pub durations: Vec<f64>,
    /// Injection start, s after takeoff (the paper: 90).
    pub injection_start: f64,
    /// Worker threads; 0 = one per available core.
    pub threads: usize,
}

impl Default for CampaignSettings {
    fn default() -> Self {
        CampaignSettings {
            seed: 2024,
            missions: 10,
            durations: InjectionWindow::CAMPAIGN_DURATIONS.to_vec(),
            injection_start: InjectionWindow::CAMPAIGN_START,
            threads: 0,
        }
    }
}

/// One config document describing a full run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioSpec {
    /// Scenario name (the preset name, or whatever the file says).
    pub name: String,
    /// Per-vehicle settings.
    pub flight: FlightSettings,
    /// Fault selection and scoping.
    pub faults: FaultSettings,
    /// Beyond-IMU attack axis (empty by default).
    pub attacks: AttackSettings,
    /// Campaign axes.
    pub campaign: CampaignSettings,
    /// Distributed-campaign sharding (used by the fleet runner only).
    pub fleet: FleetSettings,
    /// Black-box tracing (off by default; results are identical either way).
    pub trace: TraceSettings,
    /// Live observability plane (off by default; results are identical
    /// either way).
    pub obs: ObsSettings,
}

/// Why a scenario cannot be used to build vehicles or campaigns.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A rate, factor, or duration that must be positive and finite is not.
    BadNumber {
        /// Dotted field path, e.g. `sim.physics_rate`.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// IMU redundancy of zero: the vehicle needs at least one instance.
    ZeroRedundancy,
    /// Mission slice outside 1..=10.
    BadMissionCount(usize),
    /// A sub-rate above the physics rate cannot be scheduled.
    RateAbovePhysics {
        /// Dotted field path of the sub-rate.
        field: &'static str,
    },
    /// The `[trace]` section violates a collector invariant.
    Trace(String),
    /// The document parsed but does not describe a scenario.
    Document(DocError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::BadNumber { field, value } => {
                write!(f, "{field} must be positive and finite, got {value}")
            }
            ScenarioError::ZeroRedundancy => {
                write!(f, "sim.imu_redundancy must be at least 1")
            }
            ScenarioError::BadMissionCount(n) => {
                write!(f, "campaign.missions must be in 1..=10, got {n}")
            }
            ScenarioError::RateAbovePhysics { field } => {
                write!(f, "{field} cannot exceed sim.physics_rate")
            }
            ScenarioError::Trace(msg) => write!(f, "{msg}"),
            ScenarioError::Document(e) => write!(f, "scenario document: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<DocError> for ScenarioError {
    fn from(e: DocError) -> Self {
        ScenarioError::Document(e)
    }
}

/// The names [`ScenarioSpec::preset`] accepts.
pub const PRESET_NAMES: [&str; 5] = [
    "paper-default",
    "quick",
    "redundancy-ablation",
    "mitigation-on",
    "attack-sweep",
];

impl ScenarioSpec {
    /// The paper's full 850-case reproduction scenario.
    pub fn paper_default() -> Self {
        ScenarioSpec {
            name: "paper-default".to_string(),
            flight: FlightSettings::default(),
            faults: FaultSettings::default(),
            attacks: AttackSettings::default(),
            campaign: CampaignSettings::default(),
            fleet: FleetSettings::default(),
            trace: TraceSettings::default(),
            obs: ObsSettings::default(),
        }
    }

    /// A named preset, or `None` for an unknown name (see [`PRESET_NAMES`]).
    pub fn preset(name: &str) -> Option<Self> {
        let mut spec = ScenarioSpec::paper_default();
        spec.name = name.to_string();
        match name {
            "paper-default" => {}
            "quick" => {
                spec.campaign.missions = 3;
                spec.campaign.durations = vec![2.0, 30.0];
            }
            "redundancy-ablation" => {
                spec.faults.affect_all_redundant = false;
            }
            "mitigation-on" => {
                spec.flight.mitigation.fast_detection = true;
            }
            "attack-sweep" => {
                // Gold baselines plus the full catalog, monitors armed; the
                // Table I fault grid stays home (no fault durations).
                spec.campaign.missions = 3;
                spec.campaign.durations = Vec::new();
                spec.attacks.kinds = AttackKind::all().to_vec();
                spec.attacks.durations = vec![10.0, 30.0];
                spec.attacks.monitors = true;
            }
            _ => return None,
        }
        Some(spec)
    }

    /// Checks every invariant the simulator and campaign rely on.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let positive: [(&'static str, f64); 8] = [
            ("sim.physics_rate", self.flight.physics_rate),
            ("sim.gps_rate", self.flight.gps_rate),
            ("sim.baro_rate", self.flight.baro_rate),
            ("sim.compass_rate", self.flight.compass_rate),
            ("sim.tracking_rate", self.flight.tracking_rate),
            ("sim.watchdog_factor", self.flight.watchdog_factor),
            ("sim.risk_factor", self.flight.risk_factor),
            ("wind.gust_tau", self.flight.wind.gust_tau),
        ];
        for (field, value) in positive {
            if !(value.is_finite() && value > 0.0) {
                return Err(ScenarioError::BadNumber { field, value });
            }
        }
        let non_negative = [
            ("sim.watchdog_margin_s", self.flight.watchdog_margin_s),
            ("mitigation.persist_s", self.flight.mitigation.persist_s),
            ("wind.gust_std", self.flight.wind.gust_std),
            ("campaign.injection_start", self.campaign.injection_start),
        ];
        for (field, value) in non_negative {
            if !(value.is_finite() && value >= 0.0) {
                return Err(ScenarioError::BadNumber { field, value });
            }
        }
        for (field, value) in [
            ("wind.mean_north", self.flight.wind.mean_north),
            ("wind.mean_east", self.flight.wind.mean_east),
            ("wind.mean_down", self.flight.wind.mean_down),
        ] {
            if !value.is_finite() {
                return Err(ScenarioError::BadNumber { field, value });
            }
        }
        if self.flight.imu_redundancy == 0 {
            return Err(ScenarioError::ZeroRedundancy);
        }
        for (field, rate) in [
            ("sim.gps_rate", self.flight.gps_rate),
            ("sim.baro_rate", self.flight.baro_rate),
            ("sim.compass_rate", self.flight.compass_rate),
            ("sim.tracking_rate", self.flight.tracking_rate),
        ] {
            if rate > self.flight.physics_rate {
                return Err(ScenarioError::RateAbovePhysics { field });
            }
        }
        if !(1..=10).contains(&self.campaign.missions) {
            return Err(ScenarioError::BadMissionCount(self.campaign.missions));
        }
        if !(self.fleet.lease_timeout_s.is_finite() && self.fleet.lease_timeout_s > 0.0) {
            return Err(ScenarioError::BadNumber {
                field: "fleet.lease_timeout_s",
                value: self.fleet.lease_timeout_s,
            });
        }
        for &d in &self.campaign.durations {
            if !(d.is_finite() && d > 0.0) {
                return Err(ScenarioError::BadNumber {
                    field: "campaign.durations",
                    value: d,
                });
            }
        }
        if !(self.attacks.start_s.is_finite() && self.attacks.start_s >= 0.0) {
            return Err(ScenarioError::BadNumber {
                field: "attacks.start_s",
                value: self.attacks.start_s,
            });
        }
        if !(self.attacks.intensity_scale.is_finite() && self.attacks.intensity_scale > 0.0) {
            return Err(ScenarioError::BadNumber {
                field: "attacks.intensity_scale",
                value: self.attacks.intensity_scale,
            });
        }
        for &d in &self.attacks.durations {
            if !(d.is_finite() && d > 0.0) {
                return Err(ScenarioError::BadNumber {
                    field: "attacks.durations",
                    value: d,
                });
            }
        }
        if !(self.obs.sample_interval_s.is_finite() && self.obs.sample_interval_s > 0.0) {
            return Err(ScenarioError::BadNumber {
                field: "obs.sample_interval_s",
                value: self.obs.sample_interval_s,
            });
        }
        if self.obs.series_capacity == 0 {
            return Err(ScenarioError::BadNumber {
                field: "obs.series_capacity",
                value: 0.0,
            });
        }
        self.trace.validate().map_err(ScenarioError::Trace)?;
        Ok(())
    }

    // --- Document mapping ------------------------------------------------

    /// The spec as a document tree (shared by both formats).
    pub fn to_value(&self) -> Value {
        let mut sim = Value::table();
        sim.set("physics_rate", Value::Float(self.flight.physics_rate));
        sim.set("gps_rate", Value::Float(self.flight.gps_rate));
        sim.set("baro_rate", Value::Float(self.flight.baro_rate));
        sim.set("compass_rate", Value::Float(self.flight.compass_rate));
        sim.set("tracking_rate", Value::Float(self.flight.tracking_rate));
        sim.set(
            "imu_redundancy",
            Value::Int(self.flight.imu_redundancy as u64),
        );
        sim.set("risk_factor", Value::Float(self.flight.risk_factor));
        sim.set("watchdog_factor", Value::Float(self.flight.watchdog_factor));
        sim.set(
            "watchdog_margin_s",
            Value::Float(self.flight.watchdog_margin_s),
        );

        let mut estimator = Value::table();
        estimator.set("backend", Value::Str(self.flight.estimator.label().into()));

        let mut mitigation = Value::table();
        mitigation.set(
            "fast_detection",
            Value::Bool(self.flight.mitigation.fast_detection),
        );
        mitigation.set("persist_s", Value::Float(self.flight.mitigation.persist_s));

        let mut wind = Value::table();
        wind.set("mean_north", Value::Float(self.flight.wind.mean_north));
        wind.set("mean_east", Value::Float(self.flight.wind.mean_east));
        wind.set("mean_down", Value::Float(self.flight.wind.mean_down));
        wind.set("gust_std", Value::Float(self.flight.wind.gust_std));
        wind.set("gust_tau", Value::Float(self.flight.wind.gust_tau));

        let mut faults = Value::table();
        faults.set(
            "affect_all_redundant",
            Value::Bool(self.faults.affect_all_redundant),
        );
        faults.set(
            "kinds",
            Value::Arr(
                self.faults
                    .kinds
                    .iter()
                    .map(|k| Value::Str(k.label().into()))
                    .collect(),
            ),
        );
        faults.set(
            "targets",
            Value::Arr(
                self.faults
                    .targets
                    .iter()
                    .map(|t| Value::Str(t.label().into()))
                    .collect(),
            ),
        );

        let mut attacks = Value::table();
        attacks.set(
            "kinds",
            Value::Arr(
                self.attacks
                    .kinds
                    .iter()
                    .map(|k| Value::Str(k.label().into()))
                    .collect(),
            ),
        );
        attacks.set("start_s", Value::Float(self.attacks.start_s));
        attacks.set(
            "durations",
            Value::Arr(
                self.attacks
                    .durations
                    .iter()
                    .map(|&d| Value::Float(d))
                    .collect(),
            ),
        );
        attacks.set(
            "intensity_scale",
            Value::Float(self.attacks.intensity_scale),
        );
        attacks.set("monitors", Value::Bool(self.attacks.monitors));

        let mut campaign = Value::table();
        campaign.set("seed", Value::Int(self.campaign.seed));
        campaign.set("missions", Value::Int(self.campaign.missions as u64));
        campaign.set(
            "durations",
            Value::Arr(
                self.campaign
                    .durations
                    .iter()
                    .map(|&d| Value::Float(d))
                    .collect(),
            ),
        );
        campaign.set(
            "injection_start",
            Value::Float(self.campaign.injection_start),
        );
        campaign.set("threads", Value::Int(self.campaign.threads as u64));

        let mut fleet = Value::table();
        fleet.set("workers", Value::Int(self.fleet.workers as u64));
        fleet.set("lease_timeout_s", Value::Float(self.fleet.lease_timeout_s));
        fleet.set("retry_cap", Value::Int(self.fleet.retry_cap as u64));

        let mut trace = Value::table();
        trace.set("enabled", Value::Bool(self.trace.enabled));
        trace.set(
            "triggers",
            Value::Arr(
                self.trace
                    .triggers
                    .iter()
                    .map(|t| Value::Str(t.label().into()))
                    .collect(),
            ),
        );
        trace.set("pre_window", Value::Int(self.trace.pre_window as u64));
        trace.set("post_window", Value::Int(self.trace.post_window as u64));
        trace.set("ring_capacity", Value::Int(self.trace.ring_capacity as u64));

        let mut obs = Value::table();
        obs.set("serve", Value::Bool(self.obs.serve));
        obs.set("addr", Value::Str(self.obs.addr.clone()));
        obs.set(
            "sample_interval_s",
            Value::Float(self.obs.sample_interval_s),
        );
        obs.set(
            "series_capacity",
            Value::Int(self.obs.series_capacity as u64),
        );
        obs.set(
            "alerts",
            Value::Arr(
                self.obs
                    .alerts
                    .iter()
                    .map(|rule| Value::Str(rule.clone()))
                    .collect(),
            ),
        );

        let mut root = Value::table();
        root.set("name", Value::Str(self.name.clone()));
        root.set("sim", sim);
        root.set("estimator", estimator);
        root.set("mitigation", mitigation);
        root.set("wind", wind);
        root.set("faults", faults);
        root.set("attacks", attacks);
        root.set("campaign", campaign);
        root.set("fleet", fleet);
        root.set("trace", trace);
        root.set("obs", obs);
        root
    }

    /// Rebuilds a spec from a document tree, rejecting unknown keys and
    /// wrong shapes (typos must not silently fall back to defaults).
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError::Document`] describing the first bad field.
    pub fn from_value(root: &Value) -> Result<Self, ScenarioError> {
        let known_sections = [
            "sim",
            "estimator",
            "mitigation",
            "wind",
            "faults",
            "attacks",
            "campaign",
            "fleet",
            "trace",
            "obs",
        ];
        for (key, _) in root.entries() {
            if key != "name" && !known_sections.contains(&key.as_str()) {
                return Err(DocError::new(format!("unknown section or key '{key}'")).into());
            }
        }

        let mut spec = ScenarioSpec {
            name: get_str(root, "name")?,
            ..ScenarioSpec::paper_default()
        };

        let sim = section(root, "sim")?;
        expect_keys(
            sim,
            "sim",
            &[
                "physics_rate",
                "gps_rate",
                "baro_rate",
                "compass_rate",
                "tracking_rate",
                "imu_redundancy",
                "risk_factor",
                "watchdog_factor",
                "watchdog_margin_s",
            ],
        )?;
        spec.flight.physics_rate = get_f64(sim, "sim", "physics_rate")?;
        spec.flight.gps_rate = get_f64(sim, "sim", "gps_rate")?;
        spec.flight.baro_rate = get_f64(sim, "sim", "baro_rate")?;
        spec.flight.compass_rate = get_f64(sim, "sim", "compass_rate")?;
        spec.flight.tracking_rate = get_f64(sim, "sim", "tracking_rate")?;
        spec.flight.imu_redundancy = get_usize(sim, "sim", "imu_redundancy")?;
        spec.flight.risk_factor = get_f64(sim, "sim", "risk_factor")?;
        spec.flight.watchdog_factor = get_f64(sim, "sim", "watchdog_factor")?;
        spec.flight.watchdog_margin_s = get_f64(sim, "sim", "watchdog_margin_s")?;

        let estimator = section(root, "estimator")?;
        expect_keys(estimator, "estimator", &["backend"])?;
        let backend = get_str(estimator, "backend").map_err(|_| {
            ScenarioError::Document(DocError::new("estimator.backend must be a string"))
        })?;
        spec.flight.estimator = EstimatorBackend::parse(&backend).ok_or_else(|| {
            ScenarioError::Document(DocError::new(format!(
                "estimator.backend must be one of 'ekf', 'complementary', got '{backend}'"
            )))
        })?;

        let mitigation = section(root, "mitigation")?;
        expect_keys(mitigation, "mitigation", &["fast_detection", "persist_s"])?;
        spec.flight.mitigation.fast_detection =
            get_bool(mitigation, "mitigation", "fast_detection")?;
        spec.flight.mitigation.persist_s = get_f64(mitigation, "mitigation", "persist_s")?;

        let wind = section(root, "wind")?;
        expect_keys(
            wind,
            "wind",
            &[
                "mean_north",
                "mean_east",
                "mean_down",
                "gust_std",
                "gust_tau",
            ],
        )?;
        spec.flight.wind.mean_north = get_f64(wind, "wind", "mean_north")?;
        spec.flight.wind.mean_east = get_f64(wind, "wind", "mean_east")?;
        spec.flight.wind.mean_down = get_f64(wind, "wind", "mean_down")?;
        spec.flight.wind.gust_std = get_f64(wind, "wind", "gust_std")?;
        spec.flight.wind.gust_tau = get_f64(wind, "wind", "gust_tau")?;

        let faults = section(root, "faults")?;
        expect_keys(
            faults,
            "faults",
            &["affect_all_redundant", "kinds", "targets"],
        )?;
        spec.faults.affect_all_redundant = get_bool(faults, "faults", "affect_all_redundant")?;
        spec.faults.kinds = get_strings(faults, "faults", "kinds")?
            .iter()
            .map(|label| {
                FaultKind::ALL
                    .into_iter()
                    .find(|k| k.label() == label)
                    .ok_or_else(|| {
                        ScenarioError::Document(DocError::new(format!(
                            "faults.kinds: unknown fault kind '{label}'"
                        )))
                    })
            })
            .collect::<Result<_, _>>()?;
        spec.faults.targets = get_strings(faults, "faults", "targets")?
            .iter()
            .map(|label| {
                FaultTarget::all()
                    .into_iter()
                    .find(|t| t.label() == label)
                    .ok_or_else(|| {
                        ScenarioError::Document(DocError::new(format!(
                            "faults.targets: unknown fault target '{label}'"
                        )))
                    })
            })
            .collect::<Result<_, _>>()?;

        // Optional for compatibility with pre-attack documents: an absent
        // section means "no attack axis", but a present one is held to the
        // same strict unknown-/missing-key rules as every other section.
        match root.get("attacks") {
            None => {}
            Some(attacks @ Value::Table(_)) => {
                expect_keys(
                    attacks,
                    "attacks",
                    &[
                        "kinds",
                        "start_s",
                        "durations",
                        "intensity_scale",
                        "monitors",
                    ],
                )?;
                spec.attacks.kinds = get_strings(attacks, "attacks", "kinds")?
                    .iter()
                    .map(|label| {
                        AttackKind::parse(label).ok_or_else(|| {
                            ScenarioError::Document(DocError::new(format!(
                                "attacks.kinds: unknown attack kind '{label}'"
                            )))
                        })
                    })
                    .collect::<Result<_, _>>()?;
                spec.attacks.start_s = get_f64(attacks, "attacks", "start_s")?;
                spec.attacks.durations = get_f64s(attacks, "attacks", "durations")?;
                spec.attacks.intensity_scale = get_f64(attacks, "attacks", "intensity_scale")?;
                spec.attacks.monitors = get_bool(attacks, "attacks", "monitors")?;
            }
            Some(_) => {
                return Err(DocError::new("'attacks' must be a section/object").into());
            }
        }

        let campaign = section(root, "campaign")?;
        // Files written for the removed lockstep pipeline name its knob; say
        // so instead of a bare unknown-key error. Every batch size flew the
        // same records, so deleting the key loses nothing.
        if campaign.get("batch").is_some() {
            return Err(DocError::new(
                "'campaign.batch' was removed (campaigns run one tick pipeline and \
                 records never depended on it); delete the key",
            )
            .into());
        }
        expect_keys(
            campaign,
            "campaign",
            &[
                "seed",
                "missions",
                "durations",
                "injection_start",
                "threads",
            ],
        )?;
        spec.campaign.seed = get_u64(campaign, "campaign", "seed")?;
        spec.campaign.missions = get_usize(campaign, "campaign", "missions")?;
        spec.campaign.durations = get_f64s(campaign, "campaign", "durations")?;
        spec.campaign.injection_start = get_f64(campaign, "campaign", "injection_start")?;
        spec.campaign.threads = get_usize(campaign, "campaign", "threads")?;

        let fleet = section(root, "fleet")?;
        expect_keys(fleet, "fleet", &["workers", "lease_timeout_s", "retry_cap"])?;
        spec.fleet.workers = get_usize(fleet, "fleet", "workers")?;
        spec.fleet.lease_timeout_s = get_f64(fleet, "fleet", "lease_timeout_s")?;
        spec.fleet.retry_cap = get_usize(fleet, "fleet", "retry_cap")?;

        let trace = section(root, "trace")?;
        expect_keys(
            trace,
            "trace",
            &[
                "enabled",
                "triggers",
                "pre_window",
                "post_window",
                "ring_capacity",
            ],
        )?;
        spec.trace.enabled = get_bool(trace, "trace", "enabled")?;
        spec.trace.triggers = get_strings(trace, "trace", "triggers")?
            .iter()
            .map(|label| {
                TraceTrigger::parse(label).ok_or_else(|| {
                    ScenarioError::Document(DocError::new(format!(
                        "trace.triggers: unknown trigger '{label}'"
                    )))
                })
            })
            .collect::<Result<_, _>>()?;
        spec.trace.pre_window = get_usize(trace, "trace", "pre_window")?;
        spec.trace.post_window = get_usize(trace, "trace", "post_window")?;
        spec.trace.ring_capacity = get_usize(trace, "trace", "ring_capacity")?;

        // Optional for compatibility with pre-observability documents: an
        // absent section means "plane off", but a present one is held to
        // the same strict key rules as every other section.
        match root.get("obs") {
            None => {}
            Some(obs @ Value::Table(_)) => {
                expect_keys_with_optional(
                    obs,
                    "obs",
                    &["serve", "addr", "sample_interval_s", "series_capacity"],
                    &["alerts"],
                )?;
                spec.obs.serve = get_bool(obs, "obs", "serve")?;
                spec.obs.addr = get_str(obs, "addr").map_err(|_| {
                    ScenarioError::Document(DocError::new("obs.addr must be a string"))
                })?;
                spec.obs.sample_interval_s = get_f64(obs, "obs", "sample_interval_s")?;
                spec.obs.series_capacity = get_usize(obs, "obs", "series_capacity")?;
                if obs.get("alerts").is_some() {
                    let rules = get_strings(obs, "obs", "alerts")?;
                    for rule in &rules {
                        imufit_obs::alerts::parse_rule(rule).map_err(|e| {
                            ScenarioError::Document(DocError::new(format!(
                                "invalid obs.alerts rule: {e}"
                            )))
                        })?;
                    }
                    spec.obs.alerts = rules;
                }
            }
            Some(_) => {
                return Err(DocError::new("'obs' must be a section/object").into());
            }
        }

        Ok(spec)
    }

    /// Serializes the spec as TOML (the preset-file format).
    pub fn to_toml(&self) -> String {
        doc::to_toml(&self.to_value())
    }

    /// Serializes the spec as JSON.
    pub fn to_json(&self) -> String {
        doc::to_json(&self.to_value())
    }

    /// Parses a TOML scenario document.
    ///
    /// # Errors
    ///
    /// Returns the first syntax or shape error.
    pub fn from_toml(text: &str) -> Result<Self, ScenarioError> {
        Self::from_value(&doc::parse_toml(text)?)
    }

    /// Parses a JSON scenario document.
    ///
    /// # Errors
    ///
    /// Returns the first syntax or shape error.
    pub fn from_json(text: &str) -> Result<Self, ScenarioError> {
        Self::from_value(&doc::parse_json(text)?)
    }

    /// Parses a scenario document, sniffing the format: a document whose
    /// first non-whitespace byte is `{` is JSON, anything else TOML.
    ///
    /// # Errors
    ///
    /// Returns the first syntax or shape error.
    pub fn from_str_auto(text: &str) -> Result<Self, ScenarioError> {
        if text.trim_start().starts_with('{') {
            Self::from_json(text)
        } else {
            Self::from_toml(text)
        }
    }

    /// Reads and parses a scenario file (format sniffed, see
    /// [`ScenarioSpec::from_str_auto`]).
    ///
    /// # Errors
    ///
    /// Returns an IO failure as a document error, or the first parse error.
    pub fn from_file(path: &std::path::Path) -> Result<Self, ScenarioError> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            ScenarioError::Document(DocError::new(format!("{}: {e}", path.display())))
        })?;
        Self::from_str_auto(&text)
    }
}

// --- Field extraction helpers -------------------------------------------

fn section<'a>(root: &'a Value, name: &str) -> Result<&'a Value, ScenarioError> {
    match root.get(name) {
        Some(v @ Value::Table(_)) => Ok(v),
        Some(_) => Err(DocError::new(format!("'{name}' must be a section/object")).into()),
        None => Err(DocError::new(format!("missing section '{name}'")).into()),
    }
}

fn expect_keys(table: &Value, section: &str, known: &[&str]) -> Result<(), ScenarioError> {
    expect_keys_with_optional(table, section, known, &[])
}

/// [`expect_keys`] with a second list of keys that may be absent — used for
/// fields added after scenario files were already in the wild, so old
/// documents keep strict-parsing while new keys stay typo-checked.
fn expect_keys_with_optional(
    table: &Value,
    section: &str,
    known: &[&str],
    optional: &[&str],
) -> Result<(), ScenarioError> {
    for (key, _) in table.entries() {
        if !known.contains(&key.as_str()) && !optional.contains(&key.as_str()) {
            return Err(DocError::new(format!("unknown key '{section}.{key}'")).into());
        }
    }
    for key in known {
        if table.get(key).is_none() {
            return Err(DocError::new(format!("missing key '{section}.{key}'")).into());
        }
    }
    Ok(())
}

fn get_str(table: &Value, key: &str) -> Result<String, ScenarioError> {
    match table.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(_) => Err(DocError::new(format!("'{key}' must be a string")).into()),
        None => Err(DocError::new(format!("missing key '{key}'")).into()),
    }
}

fn get_f64(table: &Value, section: &str, key: &str) -> Result<f64, ScenarioError> {
    match table.get(key) {
        Some(Value::Float(x)) => Ok(*x),
        Some(Value::Int(n)) => Ok(*n as f64),
        _ => Err(DocError::new(format!("'{section}.{key}' must be a number")).into()),
    }
}

fn get_u64(table: &Value, section: &str, key: &str) -> Result<u64, ScenarioError> {
    match table.get(key) {
        Some(Value::Int(n)) => Ok(*n),
        _ => Err(DocError::new(format!("'{section}.{key}' must be an unsigned integer")).into()),
    }
}

fn get_usize(table: &Value, section: &str, key: &str) -> Result<usize, ScenarioError> {
    let n = get_u64(table, section, key)?;
    usize::try_from(n).map_err(|_| {
        DocError::new(format!("'{section}.{key}' is too large for this platform")).into()
    })
}

fn get_bool(table: &Value, section: &str, key: &str) -> Result<bool, ScenarioError> {
    match table.get(key) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(DocError::new(format!("'{section}.{key}' must be a boolean")).into()),
    }
}

fn get_f64s(table: &Value, section: &str, key: &str) -> Result<Vec<f64>, ScenarioError> {
    match table.get(key) {
        Some(Value::Arr(items)) => items
            .iter()
            .map(|v| match v {
                Value::Float(x) => Ok(*x),
                Value::Int(n) => Ok(*n as f64),
                _ => Err(
                    DocError::new(format!("'{section}.{key}' must contain only numbers")).into(),
                ),
            })
            .collect(),
        _ => Err(DocError::new(format!("'{section}.{key}' must be an array")).into()),
    }
}

fn get_strings(table: &Value, section: &str, key: &str) -> Result<Vec<String>, ScenarioError> {
    match table.get(key) {
        Some(Value::Arr(items)) => items
            .iter()
            .map(|v| match v {
                Value::Str(s) => Ok(s.clone()),
                _ => Err(
                    DocError::new(format!("'{section}.{key}' must contain only strings")).into(),
                ),
            })
            .collect(),
        _ => Err(DocError::new(format!("'{section}.{key}' must be an array")).into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_exist_and_validate() {
        for name in PRESET_NAMES {
            let spec = ScenarioSpec::preset(name).expect(name);
            assert_eq!(spec.name, name);
            spec.validate().expect(name);
        }
        assert!(ScenarioSpec::preset("no-such-preset").is_none());
    }

    #[test]
    fn paper_default_matches_the_paper() {
        let spec = ScenarioSpec::paper_default();
        assert_eq!(spec.campaign.missions, 10);
        assert_eq!(spec.campaign.durations, vec![2.0, 5.0, 10.0, 30.0]);
        assert_eq!(spec.campaign.injection_start, 90.0);
        assert_eq!(spec.flight.imu_redundancy, 3);
        assert_eq!(spec.flight.estimator, EstimatorBackend::Ekf);
        assert!(!spec.flight.mitigation.fast_detection);
        assert!(spec.faults.affect_all_redundant);
    }

    #[test]
    fn toml_round_trip_is_identity() {
        for name in PRESET_NAMES {
            let spec = ScenarioSpec::preset(name).unwrap();
            let text = spec.to_toml();
            assert_eq!(ScenarioSpec::from_toml(&text).unwrap(), spec, "{text}");
        }
    }

    #[test]
    fn json_round_trip_is_identity() {
        for name in PRESET_NAMES {
            let spec = ScenarioSpec::preset(name).unwrap();
            let text = spec.to_json();
            assert_eq!(ScenarioSpec::from_json(&text).unwrap(), spec, "{text}");
        }
    }

    #[test]
    fn auto_sniffs_both_formats() {
        let spec = ScenarioSpec::preset("quick").unwrap();
        assert_eq!(ScenarioSpec::from_str_auto(&spec.to_toml()).unwrap(), spec);
        assert_eq!(ScenarioSpec::from_str_auto(&spec.to_json()).unwrap(), spec);
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let mut doc = ScenarioSpec::paper_default().to_value();
        doc.set("surprise", Value::Bool(true));
        assert!(matches!(
            ScenarioSpec::from_value(&doc),
            Err(ScenarioError::Document(_))
        ));

        let text = ScenarioSpec::paper_default()
            .to_toml()
            .replace("physics_rate", "physics_rte");
        assert!(ScenarioSpec::from_toml(&text).is_err());
    }

    #[test]
    fn missing_keys_are_rejected() {
        let text = ScenarioSpec::paper_default()
            .to_toml()
            .lines()
            .filter(|l| !l.starts_with("seed"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(ScenarioSpec::from_toml(&text).is_err());
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut spec = ScenarioSpec::paper_default();
        spec.flight.physics_rate = 0.0;
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::BadNumber {
                field: "sim.physics_rate",
                ..
            })
        ));

        let mut spec = ScenarioSpec::paper_default();
        spec.flight.imu_redundancy = 0;
        assert_eq!(spec.validate(), Err(ScenarioError::ZeroRedundancy));

        let mut spec = ScenarioSpec::paper_default();
        spec.campaign.missions = 0;
        assert_eq!(spec.validate(), Err(ScenarioError::BadMissionCount(0)));
        spec.campaign.missions = 11;
        assert_eq!(spec.validate(), Err(ScenarioError::BadMissionCount(11)));

        let mut spec = ScenarioSpec::paper_default();
        spec.flight.gps_rate = 1000.0;
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::RateAbovePhysics { .. })
        ));

        let mut spec = ScenarioSpec::paper_default();
        spec.campaign.durations = vec![2.0, -1.0];
        assert!(spec.validate().is_err());
    }

    #[test]
    fn removed_batch_key_is_rejected_by_name() {
        let toml = ScenarioSpec::paper_default()
            .to_toml()
            .replace("threads = 0", "threads = 0\nbatch = 4");
        let err = ScenarioSpec::from_toml(&toml).unwrap_err().to_string();
        assert!(err.contains("'campaign.batch' was removed"), "{err}");
    }

    #[test]
    fn fault_selection_filters() {
        let mut spec = ScenarioSpec::paper_default();
        assert!(spec.faults.selects_kind(FaultKind::Min));
        assert!(spec.faults.selects_target(FaultTarget::Imu));
        spec.faults.kinds = vec![FaultKind::Min, FaultKind::Max];
        spec.faults.targets = vec![FaultTarget::Gyrometer];
        assert!(spec.faults.selects_kind(FaultKind::Min));
        assert!(!spec.faults.selects_kind(FaultKind::Noise));
        assert!(!spec.faults.selects_target(FaultTarget::Imu));

        let text = spec.to_toml();
        let back = ScenarioSpec::from_toml(&text).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn fleet_section_round_trips_and_validates() {
        let mut spec = ScenarioSpec::paper_default();
        spec.fleet.workers = 4;
        spec.fleet.lease_timeout_s = 7.5;
        spec.fleet.retry_cap = 1;
        assert!(spec.validate().is_ok());
        assert_eq!(ScenarioSpec::from_toml(&spec.to_toml()).unwrap(), spec);
        assert_eq!(ScenarioSpec::from_json(&spec.to_json()).unwrap(), spec);

        spec.fleet.lease_timeout_s = 0.0;
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::BadNumber {
                field: "fleet.lease_timeout_s",
                ..
            })
        ));

        // Typos in the fleet section must be rejected like any other.
        let text = ScenarioSpec::paper_default()
            .to_toml()
            .replace("retry_cap", "retry_cp");
        assert!(ScenarioSpec::from_toml(&text).is_err());
    }

    #[test]
    fn attack_section_round_trips_and_validates() {
        let spec = ScenarioSpec::preset("attack-sweep").unwrap();
        assert_eq!(spec.attacks.kinds, AttackKind::all().to_vec());
        assert!(spec.attacks.monitors);
        assert!(spec.campaign.durations.is_empty(), "fault grid stays home");
        assert_eq!(ScenarioSpec::from_toml(&spec.to_toml()).unwrap(), spec);
        assert_eq!(ScenarioSpec::from_json(&spec.to_json()).unwrap(), spec);

        let mut bad = spec.clone();
        bad.attacks.intensity_scale = 0.0;
        assert!(matches!(
            bad.validate(),
            Err(ScenarioError::BadNumber {
                field: "attacks.intensity_scale",
                ..
            })
        ));
        let mut bad = spec.clone();
        bad.attacks.durations = vec![-3.0];
        assert!(bad.validate().is_err());

        // Unknown attack kinds and typo'd keys are rejected like any other.
        let text = spec.to_toml().replace("gps-spoof-ramp", "gps-spoof-rmp");
        let err = ScenarioSpec::from_toml(&text).unwrap_err();
        assert!(err.to_string().contains("gps-spoof-rmp"), "{err}");
        let text = spec.to_toml().replace("intensity_scale", "intensity_scle");
        assert!(ScenarioSpec::from_toml(&text).is_err());
    }

    #[test]
    fn documents_without_an_attacks_section_still_parse() {
        // Pre-attack scenario files must keep working: strip the section.
        let spec = ScenarioSpec::paper_default();
        let mut kept = Vec::new();
        let mut in_attacks = false;
        for line in spec.to_toml().lines().map(str::to_string) {
            if line.trim() == "[attacks]" {
                in_attacks = true;
            } else if line.trim_start().starts_with('[') {
                in_attacks = false;
            }
            if !in_attacks {
                kept.push(line);
            }
        }
        let text = kept.join("\n");
        assert!(!text.contains("[attacks]"), "{text}");
        let back = ScenarioSpec::from_toml(&text).unwrap();
        assert_eq!(back, spec, "absent section means the default (no axis)");
    }

    #[test]
    fn obs_section_round_trips_and_validates() {
        let mut spec = ScenarioSpec::paper_default();
        spec.obs.serve = true;
        spec.obs.addr = "127.0.0.1:9469".to_string();
        spec.obs.sample_interval_s = 0.5;
        spec.obs.series_capacity = 120;
        assert!(spec.validate().is_ok());
        assert_eq!(ScenarioSpec::from_toml(&spec.to_toml()).unwrap(), spec);
        assert_eq!(ScenarioSpec::from_json(&spec.to_json()).unwrap(), spec);

        let mut bad = spec.clone();
        bad.obs.sample_interval_s = 0.0;
        assert!(matches!(
            bad.validate(),
            Err(ScenarioError::BadNumber {
                field: "obs.sample_interval_s",
                ..
            })
        ));
        let mut bad = spec.clone();
        bad.obs.series_capacity = 0;
        assert!(matches!(
            bad.validate(),
            Err(ScenarioError::BadNumber {
                field: "obs.series_capacity",
                ..
            })
        ));

        // Typos in the obs section are rejected like any other.
        let text = spec
            .to_toml()
            .replace("sample_interval_s", "sample_intervl_s");
        assert!(ScenarioSpec::from_toml(&text).is_err());
    }

    #[test]
    fn obs_alert_rules_round_trip_and_malformed_rules_are_rejected() {
        let mut spec = ScenarioSpec::paper_default();
        spec.obs.serve = true;
        spec.obs.alerts = vec![
            "fleet_lease_expiries_total > 0".to_string(),
            "tick_p99_us > 10".to_string(),
            "worker_busy_fraction < 0.5".to_string(),
        ];
        assert!(spec.validate().is_ok());
        assert_eq!(ScenarioSpec::from_toml(&spec.to_toml()).unwrap(), spec);
        assert_eq!(ScenarioSpec::from_json(&spec.to_json()).unwrap(), spec);

        // A malformed rule line fails the load, naming the grammar.
        let text = spec
            .to_toml()
            .replace("fleet_lease_expiries_total > 0", "fleet_lease ~~ what");
        let err = ScenarioSpec::from_toml(&text).unwrap_err();
        assert!(
            err.to_string().contains("obs.alerts"),
            "error should name the section: {err}"
        );

        // Documents predating the key still parse (alerts default empty).
        let mut kept: Vec<String> = Vec::new();
        for line in spec.to_toml().lines() {
            if !line.trim_start().starts_with("alerts") {
                kept.push(line.to_string());
            }
        }
        let back = ScenarioSpec::from_toml(&kept.join("\n")).unwrap();
        assert!(back.obs.alerts.is_empty());
    }

    #[test]
    fn documents_without_an_obs_section_still_parse() {
        let spec = ScenarioSpec::paper_default();
        let mut kept = Vec::new();
        let mut in_obs = false;
        for line in spec.to_toml().lines().map(str::to_string) {
            if line.trim() == "[obs]" {
                in_obs = true;
            } else if line.trim_start().starts_with('[') {
                in_obs = false;
            }
            if !in_obs {
                kept.push(line);
            }
        }
        let text = kept.join("\n");
        assert!(!text.contains("[obs]"), "{text}");
        let back = ScenarioSpec::from_toml(&text).unwrap();
        assert_eq!(back, spec, "absent section means the default (plane off)");
    }

    #[test]
    fn trace_section_round_trips() {
        let mut spec = ScenarioSpec::paper_default();
        spec.trace.enabled = true;
        spec.trace.triggers = vec![TraceTrigger::DetectorEdge, TraceTrigger::Failsafe];
        spec.trace.pre_window = 100;
        spec.trace.post_window = 50;
        spec.trace.ring_capacity = 512;
        assert!(spec.validate().is_ok());
        assert_eq!(ScenarioSpec::from_toml(&spec.to_toml()).unwrap(), spec);
        assert_eq!(ScenarioSpec::from_json(&spec.to_json()).unwrap(), spec);
    }

    #[test]
    fn trace_validation_and_unknown_triggers_are_rejected() {
        let mut spec = ScenarioSpec::paper_default();
        spec.trace.ring_capacity = 0;
        assert!(matches!(spec.validate(), Err(ScenarioError::Trace(_))));

        let text = ScenarioSpec::paper_default()
            .to_toml()
            .replace("detector-edge", "detector-hedge");
        let err = ScenarioSpec::from_toml(&text).unwrap_err();
        assert!(err.to_string().contains("detector-hedge"), "{err}");
    }

    #[test]
    fn error_messages_name_the_field() {
        let text = ScenarioSpec::paper_default()
            .to_toml()
            .replace("backend = \"ekf\"", "backend = \"kalman\"");
        let err = ScenarioSpec::from_toml(&text).unwrap_err();
        assert!(err.to_string().contains("kalman"), "{err}");
    }
}
