//! Campaign execution: runs the experiment matrix, in parallel when cores
//! allow, with bit-reproducible results regardless of scheduling.
//!
//! Every run is isolated with [`std::panic::catch_unwind`]: a panicking
//! experiment is recorded as an [`FlightOutcome::Aborted`] run instead of
//! tearing down the whole 850-run campaign.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use imufit_missions::{all_missions, Mission};
use imufit_scenario::{AttackSettings, FaultSettings, FlightSettings, ScenarioSpec};
use imufit_trace::TraceSettings;
use imufit_uav::{FlightOutcome, FlightSimulator, FlightSummary, SimConfig};

use crate::experiment::{
    attack_matrix, csv_header, experiment_matrix, ExperimentRecord, ExperimentSpec,
};

/// Errors produced when an experiment cannot be run at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// The spec names a mission index outside the configuration.
    UnknownMission {
        /// The requested mission index.
        index: usize,
        /// How many missions the configuration holds.
        missions: usize,
    },
    /// The campaign's flight settings realize to an unusable simulator
    /// configuration (zero rates, redundancy 0, ...).
    InvalidConfig(
        /// [`SimConfig::validate`]'s rejection message.
        String,
    ),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::UnknownMission { index, missions } => {
                write!(
                    f,
                    "mission index {index} out of range ({missions} missions)"
                )
            }
            CampaignError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; every experiment derives an independent stream from it.
    pub seed: u64,
    /// Injection durations, seconds (the paper: 2, 5, 10, 30).
    pub durations: Vec<f64>,
    /// Injection start, seconds after takeoff (the paper: 90).
    pub injection_start: f64,
    /// Missions to fly (defaults to the ten study missions).
    pub missions: Vec<Mission>,
    /// Worker threads; 0 = one per available core.
    pub threads: usize,
    /// Per-vehicle flight settings (rates, wind, estimator backend, IMU
    /// redundancy, mitigation). A run whose settings realize to an
    /// unusable simulator configuration (redundancy 0, a zero rate) is
    /// aborted, not repaired.
    pub flight: FlightSettings,
    /// Fault selection: which kinds/targets of the full matrix to fly, and
    /// whether faults hit all redundant IMU instances.
    pub faults: FaultSettings,
    /// Sensor-attack axis: which catalog attacks to fly against each
    /// mission, and whether the innovation monitors defend. Empty kinds
    /// (the default) add no cells, keeping paper-default campaigns
    /// unchanged cell for cell.
    pub attacks: AttackSettings,
    /// Black-box tracing per run (disabled by default; tracing never feeds
    /// back into flight state, so results are identical either way).
    pub trace: TraceSettings,
    /// Where sealed `.ifbb` black boxes land, one per run that captured
    /// anything. `None` discards boxes even when tracing is enabled.
    pub trace_dir: Option<PathBuf>,
}

impl Default for CampaignConfig {
    /// The paper's 850-run campaign: the `paper-default` scenario.
    fn default() -> Self {
        CampaignConfig::from_scenario(&ScenarioSpec::paper_default())
    }
}

impl CampaignConfig {
    /// A scaled-down configuration for tests and benches: the first
    /// `missions` missions and the given durations.
    pub fn scaled(missions: usize, durations: Vec<f64>, seed: u64) -> Self {
        let all = all_missions();
        CampaignConfig {
            seed,
            durations,
            missions: all.into_iter().take(missions).collect(),
            ..CampaignConfig::default()
        }
    }

    /// A campaign realized from a scenario document: every knob — axes,
    /// flight settings, fault selection — comes from the spec.
    pub fn from_scenario(spec: &ScenarioSpec) -> Self {
        CampaignConfig {
            seed: spec.campaign.seed,
            durations: spec.campaign.durations.clone(),
            injection_start: spec.campaign.injection_start,
            missions: all_missions()
                .into_iter()
                .take(spec.campaign.missions.max(1))
                .collect(),
            threads: spec.campaign.threads,
            flight: spec.flight.clone(),
            faults: spec.faults.clone(),
            attacks: spec.attacks.clone(),
            trace: spec.trace.clone(),
            trace_dir: None,
        }
    }

    /// The worker count this configuration actually spawns for `runs`
    /// experiments: an explicit `threads` is honored as given; `threads ==
    /// 0` ("one per available core") is clamped to the run count so tiny
    /// campaigns stop spawning idle workers. Never zero.
    pub fn effective_workers(&self, runs: usize) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .clamp(1, runs.max(1))
        } else {
            self.threads.max(1)
        }
    }

    /// The experiment matrix for this configuration: the full grid, narrowed
    /// by the fault selection (empty selection = everything; gold runs are
    /// always kept).
    pub fn matrix(&self) -> Vec<ExperimentSpec> {
        let mut specs: Vec<ExperimentSpec> =
            experiment_matrix(self.missions.len(), &self.durations, self.injection_start)
                .into_iter()
                .filter(|spec| match &spec.fault {
                    None => true,
                    Some(f) => {
                        self.faults.selects_kind(f.kind) && self.faults.selects_target(f.target)
                    }
                })
                .collect();
        // The attack axis rides behind the paper grid so existing cell
        // indices (and the golden CSV) are untouched.
        specs.extend(attack_matrix(
            self.missions.len(),
            &self.attacks.kinds,
            &self.attacks.durations,
            self.attacks.start_s,
            self.attacks.intensity_scale,
        ));
        specs
    }

    /// The per-flight simulator configuration for one mission of this
    /// campaign ([`SimConfig::from_settings`] over the campaign's sections).
    pub fn sim_config(&self, mission: &Mission, seed: u64) -> SimConfig {
        SimConfig::from_settings(
            &self.flight,
            &self.faults,
            &self.attacks,
            &self.trace,
            mission,
            seed,
        )
    }
}

/// The collected records of a finished campaign.
#[derive(Debug, Clone)]
pub struct CampaignResults {
    records: Vec<ExperimentRecord>,
}

impl CampaignResults {
    /// Creates results from records (used by deserialization paths).
    pub fn from_records(records: Vec<ExperimentRecord>) -> Self {
        CampaignResults { records }
    }

    /// The raw records.
    pub fn records(&self) -> &[ExperimentRecord] {
        &self.records
    }

    /// Serializes all records as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(csv_header());
        out.push('\n');
        for r in &self.records {
            out.push_str(&r.to_csv_row());
            out.push('\n');
        }
        out
    }

    /// Overall completion percentage across faulty runs.
    pub fn faulty_completion_pct(&self) -> f64 {
        let faulty: Vec<_> = self
            .records
            .iter()
            .filter(|r| r.spec.fault.is_some())
            .collect();
        if faulty.is_empty() {
            return 0.0;
        }
        100.0 * faulty.iter().filter(|r| r.completed()).count() as f64 / faulty.len() as f64
    }
}

/// Campaign runner.
#[derive(Debug)]
pub struct Campaign {
    config: CampaignConfig,
}

impl Campaign {
    /// Creates a campaign.
    pub fn new(config: CampaignConfig) -> Self {
        Campaign { config }
    }

    /// The configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Builds the vehicle one experiment flies, from the spec's mission and
    /// its derived seed.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::UnknownMission`] for an out-of-range mission
    /// index and [`CampaignError::InvalidConfig`] when the campaign's flight
    /// settings realize to an unusable simulator configuration.
    fn build_vehicle(
        config: &CampaignConfig,
        spec: ExperimentSpec,
    ) -> Result<FlightSimulator, CampaignError> {
        let mission =
            config
                .missions
                .get(spec.mission_index)
                .ok_or(CampaignError::UnknownMission {
                    index: spec.mission_index,
                    missions: config.missions.len(),
                })?;
        let sim_config = config.sim_config(mission, spec.derive_seed(config.seed));
        sim_config
            .validate()
            .map_err(CampaignError::InvalidConfig)?;
        let faults = spec.fault.map(|f| vec![f]).unwrap_or_default();
        let mut vehicle = FlightSimulator::new(mission, faults, sim_config);
        vehicle.set_attacks(spec.attack.map(|a| vec![a]).unwrap_or_default());
        Ok(vehicle)
    }

    /// Assembles the CSV record for one finished experiment from its
    /// flight summary — the back half of
    /// [`Campaign::run_experiment_isolated`], public for callers that fly
    /// the vehicle themselves. An aborted summary collapses to the same
    /// zeroed record a panicking run produces.
    pub fn record_from_summary(
        config: &CampaignConfig,
        spec: ExperimentSpec,
        summary: &FlightSummary,
    ) -> ExperimentRecord {
        if matches!(summary.outcome, FlightOutcome::Aborted) {
            return Self::aborted_record(config, spec);
        }
        let drone_id = config
            .missions
            .get(spec.mission_index)
            .map(|m| m.drone.id)
            .unwrap_or(u32::MAX);
        ExperimentRecord {
            spec,
            drone_id,
            outcome: summary.outcome,
            flight_duration: summary.duration,
            distance_est: summary.distance_est,
            distance_true: summary.distance_true,
            inner_violations: summary.violations.inner,
            outer_violations: summary.violations.outer,
            ekf_resets: summary.ekf_resets,
        }
    }

    /// Runs one experiment with panic isolation: a panicking simulation
    /// (or a bad spec or configuration) yields an
    /// [`FlightOutcome::Aborted`] record rather than unwinding into the
    /// caller. It is the one way a campaign, a fleet worker or a bench
    /// flies one run.
    ///
    /// Every run is counted and wall-clock timed
    /// (`campaign_runs_total`, `campaign_run_seconds`); caught panics and
    /// aborted outcomes get their own counters. All of it is write-only
    /// observability — record contents never depend on it.
    pub fn run_experiment_isolated(
        config: &CampaignConfig,
        spec: ExperimentSpec,
    ) -> ExperimentRecord {
        imufit_obs::counter("campaign_runs_total").inc();
        let run_span = imufit_obs::timer_with("campaign_run", imufit_obs::buckets::RUN_S).enter();
        // The vehicle lives outside the unwind boundary so a panicking
        // flight still has a black box to salvage.
        let mut vehicle = None;
        let record = match catch_unwind(AssertUnwindSafe(|| {
            let vehicle = vehicle.insert(Self::build_vehicle(config, spec)?);
            Ok::<_, CampaignError>(Self::record_from_summary(
                config,
                spec,
                &vehicle.run_summary(),
            ))
        })) {
            Ok(Ok(record)) => {
                Self::persist_black_box(config, &spec, &mut vehicle, record.outcome.label(), false);
                record
            }
            Ok(Err(_)) => Self::aborted_record(config, spec),
            Err(_) => {
                imufit_obs::counter("campaign_panics_caught_total").inc();
                // Salvage the black box of the panicked vehicle — the panic
                // marker freezes the last pre-window of records, which is
                // exactly what a post-mortem wants. The salvage itself is
                // unwind-isolated: a second panic must not escape the
                // worker.
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    Self::persist_black_box(config, &spec, &mut vehicle, "aborted", true);
                }));
                Self::aborted_record(config, spec)
            }
        };
        drop(run_span);
        if matches!(record.outcome, FlightOutcome::Aborted) {
            imufit_obs::counter("campaign_runs_aborted_total").inc();
        }
        record
    }

    /// Seals the run's black box (if tracing captured anything) and writes
    /// it under the campaign's trace directory. Strictly write-only: record
    /// contents never depend on this, and IO failures only bump a counter.
    fn persist_black_box(
        config: &CampaignConfig,
        spec: &ExperimentSpec,
        vehicle: &mut Option<FlightSimulator>,
        outcome_label: &str,
        panicked: bool,
    ) {
        let Some(dir) = config.trace_dir.as_deref() else {
            return;
        };
        let Some(vehicle) = vehicle.as_mut() else {
            return;
        };
        let stats = vehicle.trace_stats();
        let metadata = Self::trace_metadata(config, spec, outcome_label);
        let bytes = if panicked {
            vehicle.panic_black_box(&metadata)
        } else {
            vehicle.take_black_box(&metadata)
        };
        let Some(bytes) = bytes else {
            return;
        };
        imufit_obs::counter("trace_records_captured_total").add(stats.records_captured);
        imufit_obs::counter("trace_records_dropped_total").add(stats.records_dropped);
        let path = dir.join(format!("{}.ifbb", Self::trace_file_stem(spec)));
        match std::fs::write(&path, &bytes) {
            Ok(()) => {
                imufit_obs::counter("trace_blackboxes_written_total").inc();
                imufit_obs::counter("trace_bytes_written_total").add(bytes.len() as u64);
            }
            Err(_) => {
                imufit_obs::counter("trace_write_errors_total").inc();
            }
        }
    }

    /// The black box metadata line: whitespace-separated `key=value` pairs
    /// the triage tool parses back into campaign cells.
    fn trace_metadata(
        config: &CampaignConfig,
        spec: &ExperimentSpec,
        outcome_label: &str,
    ) -> String {
        let drone_id = config
            .missions
            .get(spec.mission_index)
            .map(|m| m.drone.id)
            .unwrap_or(u32::MAX);
        if let Some(a) = &spec.attack {
            return format!(
                "mission={} drone={} target={} kind={} duration={} seed={} outcome={}",
                spec.mission_index,
                drone_id,
                a.target().label(),
                a.kind.label(),
                a.window.duration,
                config.seed,
                outcome_label
            );
        }
        match &spec.fault {
            None => format!(
                "mission={} drone={} kind=gold seed={} outcome={}",
                spec.mission_index, drone_id, config.seed, outcome_label
            ),
            Some(f) => format!(
                "mission={} drone={} target={} kind={} duration={} seed={} outcome={}",
                spec.mission_index,
                drone_id,
                f.target.label(),
                f.kind.label(),
                f.window.duration,
                config.seed,
                outcome_label
            ),
        }
    }

    /// A filesystem-safe, matrix-unique stem for one experiment's box.
    fn trace_file_stem(spec: &ExperimentSpec) -> String {
        let raw = match (&spec.fault, &spec.attack) {
            (None, Some(a)) => format!(
                "m{}_{}_{}_{}s",
                spec.mission_index,
                a.target().label(),
                a.kind.label(),
                a.window.duration
            ),
            (Some(f), _) => format!(
                "m{}_{}_{}_{}s",
                spec.mission_index,
                f.target.label(),
                f.kind.label(),
                f.window.duration
            ),
            (None, None) => format!("m{}_gold", spec.mission_index),
        };
        raw.chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '_' || c == '.' {
                    c.to_ascii_lowercase()
                } else {
                    '-'
                }
            })
            .collect()
    }

    /// The record used for experiments that failed to execute.
    fn aborted_record(config: &CampaignConfig, spec: ExperimentSpec) -> ExperimentRecord {
        let drone_id = config
            .missions
            .get(spec.mission_index)
            .map(|m| m.drone.id)
            .unwrap_or(u32::MAX);
        ExperimentRecord {
            spec,
            drone_id,
            outcome: FlightOutcome::Aborted,
            flight_duration: 0.0,
            distance_est: 0.0,
            distance_true: 0.0,
            inner_violations: 0,
            outer_violations: 0,
            ekf_resets: 0,
        }
    }

    /// The record an experiment that could not execute collapses to —
    /// public so distributed front-ends (the fleet coordinator) stamp
    /// retry-capped units exactly like an in-process panic.
    pub fn aborted_record_for(config: &CampaignConfig, spec: ExperimentSpec) -> ExperimentRecord {
        Self::aborted_record(config, spec)
    }

    /// Runs the whole matrix and returns the records in matrix order.
    /// `progress` (if given) is called after each finished experiment with
    /// `(done, total)`.
    pub fn run_with_progress(
        &self,
        progress: Option<&(dyn Fn(usize, usize) + Sync)>,
    ) -> CampaignResults {
        self.run_specs_with_progress(&self.config.matrix(), progress)
    }

    /// Runs an arbitrary list of experiments (e.g. a re-scoped subset of
    /// the matrix) with the campaign's worker pool and panic isolation,
    /// returning records in input order.
    pub fn run_specs_with_progress(
        &self,
        specs: &[ExperimentSpec],
        progress: Option<&(dyn Fn(usize, usize) + Sync)>,
    ) -> CampaignResults {
        let total = specs.len();
        let workers = self.config.effective_workers(total);

        imufit_obs::gauge("campaign_workers").set(workers as f64);
        imufit_obs::gauge("campaign_experiments_total").set(total as f64);
        // Reset the fleet gauges at (in-process) campaign start so
        // back-to-back campaigns in one process — bench-lib, examples —
        // don't report the previous distributed run's stale values.
        imufit_obs::gauge("fleet_units_total").set(0.0);
        imufit_obs::gauge("fleet_units_resumed").set(0.0);
        // Pre-register the campaign's headline counters so the exported
        // snapshot always carries them, even when a run produces no aborts,
        // panics, or voter activity.
        imufit_obs::counter("campaign_runs_total");
        imufit_obs::counter("campaign_runs_aborted_total");
        imufit_obs::counter("campaign_panics_caught_total");
        imufit_obs::counter("voter_exclusions_total");
        imufit_obs::counter("voter_reinstatements_total");
        if self.config.trace_dir.is_some() {
            imufit_obs::counter("trace_records_captured_total");
            imufit_obs::counter("trace_records_dropped_total");
            imufit_obs::counter("trace_blackboxes_written_total");
            imufit_obs::counter("trace_bytes_written_total");
            imufit_obs::counter("trace_write_errors_total");
        }

        // A missing trace directory costs black boxes, not the campaign:
        // per-file write errors are already non-fatal, so a failed mkdir
        // degrades the same way (counted, flights unaffected).
        if let Some(dir) = self.config.trace_dir.as_deref() {
            if std::fs::create_dir_all(dir).is_err() {
                imufit_obs::counter("trace_write_errors_total").inc();
            }
        }

        // The only cross-worker progress state: one work-stealing cursor and
        // one done-counter, both advanced by a single `fetch_add`. The
        // progress callback (and the reproduce binary's reporter built on
        // it) observes `done`; no worker keeps mutable progress state of
        // its own.
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let records: Mutex<Vec<Option<ExperimentRecord>>> = Mutex::new(vec![None; total]);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        // Panic isolation: one diverging experiment becomes
                        // an aborted record, not a dead campaign.
                        let record = Self::run_experiment_isolated(&self.config, specs[i]);
                        records.lock().unwrap_or_else(|e| e.into_inner())[i] = Some(record);
                        let d = done.fetch_add(1, Ordering::Relaxed) + 1;
                        if let Some(cb) = progress {
                            cb(d, total);
                        }
                    }
                });
            }
        });

        let records = records
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .into_iter()
            .enumerate()
            // Workers never unwind past catch_unwind, so every slot is
            // filled; the fallback keeps even an impossible gap non-fatal.
            .map(|(i, r)| r.unwrap_or_else(|| Self::aborted_record(&self.config, specs[i])))
            .collect();
        CampaignResults { records }
    }

    /// Runs the whole matrix.
    pub fn run(&self) -> CampaignResults {
        self.run_with_progress(None)
    }
}

// `ExperimentRecord` contains no interior mutability; cloning a None-filled
// vec requires Clone on the Option.
#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal-but-real campaign: 1 mission, 1 duration -> 1 gold + 21
    /// faulty runs. Runs the actual simulator, so this is the single most
    /// expensive unit test in the workspace.
    #[test]
    fn tiny_campaign_runs_and_is_reproducible() {
        let config = CampaignConfig::scaled(1, vec![2.0], 77);
        let results = Campaign::new(config.clone()).run();
        assert_eq!(results.records().len(), 22);
        // Gold run completed cleanly.
        let gold = &results.records()[0];
        assert!(gold.spec.fault.is_none());
        assert!(gold.completed(), "gold run failed: {:?}", gold.outcome);
        assert_eq!(gold.inner_violations, 0);

        // Reproducibility: a second run with the same seed is identical.
        let again = Campaign::new(config).run();
        for (a, b) in results.records().iter().zip(again.records()) {
            assert_eq!(a.outcome.label(), b.outcome.label());
            assert_eq!(a.flight_duration, b.flight_duration);
            assert_eq!(a.inner_violations, b.inner_violations);
        }
    }

    #[test]
    fn auto_workers_clamp_to_run_count() {
        let mut config = CampaignConfig::scaled(1, vec![], 1);
        config.threads = 0;
        // 1-run campaign: however many cores the host has, one worker.
        assert_eq!(config.effective_workers(1), 1);
        // Zero runs still yields a (single) worker, never zero.
        assert_eq!(config.effective_workers(0), 1);
        // An explicit thread count is honored even when it exceeds runs.
        config.threads = 7;
        assert_eq!(config.effective_workers(1), 7);
        // The auto path never exceeds available cores.
        config.threads = 0;
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(config.effective_workers(10_000), cores.min(10_000));
    }

    #[test]
    fn csv_export_shape() {
        let config = CampaignConfig::scaled(1, vec![], 3);
        let results = Campaign::new(config).run();
        let csv = results.to_csv();
        // 1 gold run + header.
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.starts_with("drone,"));
    }

    #[test]
    fn matrix_counts() {
        let config = CampaignConfig::default();
        assert_eq!(config.matrix().len(), 850);
        let scaled = CampaignConfig::scaled(2, vec![2.0, 30.0], 1);
        assert_eq!(scaled.matrix().len(), 2 + 2 * 21 * 2);
    }

    /// The paper's campaign, realized: 10 missions x 21 faults x 4
    /// durations from t = 90 s plus gold runs at seed 2024, each flown at
    /// 250 Hz by a 3-IMU EKF vehicle in calm air.
    #[test]
    fn paper_configuration_is_pinned_to_the_papers_numbers() {
        let config = CampaignConfig::default();
        assert_eq!(config.seed, 2024);
        assert_eq!(config.durations, vec![2.0, 5.0, 10.0, 30.0]);
        assert_eq!(config.injection_start, 90.0);
        assert_eq!(config.missions.len(), 10);
        assert_eq!(config.matrix().len(), 850);

        for mission in &config.missions[..3] {
            let sim = config.sim_config(mission, 42);
            assert_eq!(
                [
                    sim.physics_rate,
                    sim.gps_rate,
                    sim.baro_rate,
                    sim.compass_rate,
                    sim.tracking_rate
                ],
                [250.0, 5.0, 25.0, 10.0, 1.0]
            );
            assert_eq!(sim.imu_redundancy, 3);
            assert_eq!(
                sim.max_sim_time,
                2.5 * mission.plan().nominal_duration() + 60.0
            );
            assert_eq!(sim.mitigation_persist, 0.25);
            assert!(!sim.fast_detection);
            assert_eq!(sim.wind.mean, imufit_math::Vec3::ZERO);
            assert_eq!(sim.wind.gust_std, 0.0);
            assert_eq!(sim.risk_factor, 1.0);
            assert!(sim.faults_affect_all_redundant);
            assert!(!sim.innovation_monitors);
            assert_eq!(sim.estimator, imufit_scenario::EstimatorBackend::Ekf);
            assert!(!sim.trace.enabled);
            assert_eq!(sim.seed, 42);
            assert_eq!(sim.validate(), Ok(()));
            // The stand-alone default is the same realization.
            assert_eq!(
                SimConfig::default_for(mission, 42).max_sim_time,
                sim.max_sim_time
            );
        }
    }

    /// Redundancy 0 is an error on the campaign path too: the run is
    /// aborted instead of flying a silently repaired 1-IMU vehicle.
    #[test]
    fn zero_imu_redundancy_aborts_the_run() {
        let mut config = CampaignConfig::scaled(1, vec![], 5);
        config.flight.imu_redundancy = 0;
        let spec = config.matrix()[0];
        let record = Campaign::run_experiment_isolated(&config, spec);
        assert_eq!(record.outcome, FlightOutcome::Aborted);
        assert_eq!(record.flight_duration, 0.0);
        assert!(matches!(
            Campaign::build_vehicle(&config, spec),
            Err(CampaignError::InvalidConfig(_))
        ));
    }

    #[test]
    fn fault_selection_narrows_the_matrix() {
        use imufit_faults::{FaultKind, FaultTarget};
        let mut config = CampaignConfig::default();
        config.faults.targets = vec![FaultTarget::Gyrometer];
        let gyro_only = config.matrix();
        // Gold runs survive; faulty runs are gyro-targeted only.
        assert!(gyro_only.iter().any(|s| s.fault.is_none()));
        assert!(gyro_only
            .iter()
            .filter_map(|s| s.fault)
            .all(|f| f.target == FaultTarget::Gyrometer));
        assert!(gyro_only.len() < 850);

        config.faults.kinds = vec![FaultKind::Zeros];
        let narrow = config.matrix();
        assert!(narrow
            .iter()
            .filter_map(|s| s.fault)
            .all(|f| f.kind == FaultKind::Zeros && f.target == FaultTarget::Gyrometer));
        // 10 missions x 4 durations x 1 kind x 1 target + 10 gold runs.
        assert_eq!(narrow.len(), 10 * 4 + 10);
    }

    /// Tracing a campaign changes nothing about its results, and leaves
    /// decodable `.ifbb` black boxes in the trace directory for runs that
    /// tripped a trigger.
    #[test]
    fn traced_campaign_is_inert_and_writes_black_boxes() {
        use imufit_faults::{FaultKind, FaultTarget};

        let narrow = |seed| {
            let mut config = CampaignConfig::scaled(1, vec![30.0], seed);
            config.faults.kinds = vec![FaultKind::Freeze];
            config.faults.targets = vec![FaultTarget::Imu];
            config
        };
        let plain = Campaign::new(narrow(77)).run();

        let dir = std::env::temp_dir().join(format!("imufit-trace-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = narrow(77);
        config.trace.enabled = true;
        config.trace_dir = Some(dir.clone());
        let traced = Campaign::new(config).run();

        // Byte-identical results with the collector armed.
        assert_eq!(plain.to_csv(), traced.to_csv());

        let bytes = std::fs::read(dir.join("m0_imu_freeze_30s.ifbb"))
            .expect("faulty run must leave a black box");
        let bb = imufit_trace::BlackBox::decode(&bytes).expect("box must decode");
        assert!(bb.metadata.contains("kind=Freeze"));
        assert!(!bb.events.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
