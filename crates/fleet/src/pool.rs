//! The worker pool: the one server of the fleet protocol.
//!
//! A [`WorkerPool`] accepts worker connections on an ephemeral localhost
//! port and serves [`CampaignSession`]s over them. It runs in two ways:
//!
//! - **One campaign** (`fleet run`, `reproduce --fleet-workers`):
//!   [`WorkerPool::run`] takes a session the caller built in its output
//!   directory (checkpoint, `--resume` replay, span journal), blocks until
//!   the last unit merged, and returns the merged results. Every later
//!   worker request is answered with `Done`.
//! - **Many campaigns** (the campaign service): [`WorkerPool::submit`]
//!   turns each scenario into a session, and units from all live sessions
//!   interleave over the same connections under weighted fair-share
//!   scheduling (stride scheduling: each dispatch advances a session's
//!   virtual time by `1/priority`, and the session with the smallest
//!   virtual time dispatches next).
//!
//! Leases, heartbeats and requeues behave the same either way. Nothing
//! polls on a timer: the accept thread blocks in `accept`, a sweeper
//! thread expires leases, and a worker `Request` that finds no work waits
//! on the pool's condition variable — woken by a submission, a merged
//! result, a sweep, a disconnect or a stop — for at most one heartbeat
//! period before the pool answers `NoWork`. Submitted
//! campaigns land in an on-disk result store keyed by the campaign
//! fingerprint (FNV-1a over the canonical scenario dump, plus seed and
//! unit count). A resubmission whose fingerprint already has a stored CSV
//! is served from cache without dispatching a single unit — and because
//! the fingerprint hashes the canonical *re-dump* of the parsed scenario,
//! semantically-identical submissions with different key order or
//! whitespace hit the same cache entry.

use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use imufit_core::CampaignResults;
use imufit_obs::snapshot::{Aggregate, Snapshot};
use imufit_scenario::{FleetSettings, ScenarioSpec};

use crate::checkpoint::CampaignFingerprint;
use crate::protocol::{read_msg, write_msg, FleetError, FleetMsg};
use crate::session::CampaignSession;
use crate::worker::heartbeat_period;

/// File that marks a store entry complete; its presence IS the cache hit.
const RESULTS_FILE: &str = "campaign_results.csv";

/// Tuning for a [`WorkerPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Result-store root; each campaign gets a fingerprint-named
    /// subdirectory holding its scenario, checkpoint, spans, and CSV.
    pub store_dir: PathBuf,
    /// Lease timeout announced to pool workers (drives their heartbeat
    /// cadence). Per-campaign lease expiry still follows each scenario's
    /// own `[fleet]` section.
    pub lease_timeout_s: f64,
    /// Max incomplete campaigns a tenant may have queued/running at once
    /// (`0` = unlimited). Breach refuses the submission.
    pub max_queued_per_tenant: usize,
    /// Max work units a tenant may have out on lease at once (`0` =
    /// unlimited). Breach pauses the tenant's dispatches, not the
    /// submission.
    pub max_inflight_units_per_tenant: usize,
    /// Black-box output directory announced to workers in `Welcome`, if
    /// tracing is armed.
    pub trace_dir: Option<PathBuf>,
}

impl PoolConfig {
    /// A pool storing results under `store_dir`, with the fleet's default
    /// lease timeout, no tenant quotas and no tracing.
    pub fn new(store_dir: PathBuf) -> Self {
        PoolConfig {
            store_dir,
            lease_timeout_s: FleetSettings::default().lease_timeout_s,
            max_queued_per_tenant: 0,
            max_inflight_units_per_tenant: 0,
            trace_dir: None,
        }
    }
}

/// Pre-registers the fleet counters so exports always carry them, and
/// resets the stale worker-count gauge.
fn register_fleet_metrics() {
    // Back-to-back campaigns in one process must not report the
    // previous campaign's worker count while this one spins up.
    imufit_obs::gauge("campaign_workers").set(0.0);
    imufit_obs::counter("fleet_units_dispatched_total");
    imufit_obs::counter("fleet_units_completed_total");
    imufit_obs::counter("fleet_units_requeued_total");
    imufit_obs::counter("fleet_units_aborted_total");
    imufit_obs::counter("fleet_unit_retries_total");
    imufit_obs::counter("fleet_lease_expiries_total");
    imufit_obs::counter("fleet_bytes_sent_total");
    imufit_obs::counter("fleet_bytes_received_total");
    imufit_obs::counter("fleet_worker_disconnects_total");
    imufit_obs::counter("fleet_snapshots_received_total");
    imufit_obs::counter("fleet_snapshot_decode_errors_total");
}

/// Where a campaign is in its service lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignState {
    /// Accepted; units are queued or in flight.
    Running,
    /// Every unit merged; the CSV is in the store.
    Complete,
}

/// A point-in-time view of one campaign, for the status endpoint.
#[derive(Debug, Clone)]
pub struct CampaignStatus {
    /// Pool-assigned campaign id (`Assign`/`Result` tag).
    pub campaign: u32,
    /// Submitting tenant.
    pub tenant: String,
    /// Fair-share weight (higher = more dispatch slots).
    pub priority: u32,
    /// Lifecycle state.
    pub state: CampaignState,
    /// Served from the fingerprint cache (no units dispatched).
    pub cached: bool,
    /// Total work units in the sharded matrix.
    pub units_total: u32,
    /// Units with a merged record.
    pub units_done: u32,
    /// Units handed to workers (counts redeliveries; 0 for a cache hit).
    pub dispatched: u64,
    /// The campaign fingerprint (cache key).
    pub fingerprint: CampaignFingerprint,
}

/// What a submission produced.
#[derive(Debug, Clone)]
pub enum SubmitOutcome {
    /// Queued for execution, coalesced onto an identical in-flight
    /// campaign, or served from cache — see the status' `cached` flag.
    Accepted(CampaignStatus),
    /// The tenant is at its queued-campaign quota.
    QuotaExceeded {
        /// Incomplete campaigns the tenant already has.
        active: usize,
        /// The configured cap.
        limit: usize,
    },
}

/// What a results fetch produced.
#[derive(Debug, Clone)]
pub enum ResultsOutcome {
    /// No such campaign id.
    NotFound,
    /// Still running — poll the status endpoint.
    NotReady,
    /// The merged CSV, byte-identical to the single-process campaign's.
    Csv(String),
}

/// One live campaign's scheduling entry.
struct ActiveCampaign {
    session: CampaignSession,
    tenant: String,
    priority: u32,
    /// Stride-scheduling virtual time; smallest dispatches next.
    vtime: f64,
    /// The [`WorkerPool::run`] caller waiting on this campaign; `None` for
    /// a submitted one, whose CSV goes to the store.
    caller: Option<Sender<Merged>>,
}

/// What a [`WorkerPool::run`] caller hears from the connection threads.
enum Merged {
    /// One more unit merged; the campaign's merged count so far.
    Unit(usize),
    /// The last unit merged.
    All(CampaignResults),
}

/// Bookkeeping that outlives the session (status after completion).
struct CampaignMeta {
    tenant: String,
    priority: u32,
    state: CampaignState,
    cached: bool,
    fingerprint: CampaignFingerprint,
    units_total: u32,
    units_done: u32,
    dispatched: u64,
    dir: PathBuf,
}

struct PoolState {
    next_campaign: u32,
    active: HashMap<u32, ActiveCampaign>,
    meta: HashMap<u32, CampaignMeta>,
    /// Campaign id per dispatch, in dispatch order — the fair-share
    /// audit trail the scheduler tests assert on.
    dispatch_log: Vec<u32>,
    /// Cumulative units merged across all campaigns (status board).
    total_done: u64,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Notified, under the `state` lock, by every change that can end a
    /// wait on it: a submission or admitted session, a merged result, a
    /// lease sweep, a disconnect, and stop. Waiting `Request`s and the
    /// sweeper wait on it.
    wake: Condvar,
    /// Set at shutdown, or when a [`WorkerPool::run`] campaign finished:
    /// every later request gets `Done` and the pool's threads drain.
    stop: AtomicBool,
    config: PoolConfig,
    aggregate: Arc<Aggregate>,
    lease_timeout: Duration,
}

/// The persistent pool: accepts worker connections on an ephemeral
/// localhost port and serves every submitted campaign over them.
pub struct WorkerPool {
    shared: Arc<Shared>,
    addr: SocketAddr,
    /// The accept and sweeper threads, until shutdown joins them.
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl WorkerPool {
    /// Starts a pool: creates the result store, binds `127.0.0.1:0`, and
    /// spawns the accept and lease-sweeper threads.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Io`] if the store directory or listener
    /// cannot be created.
    pub fn start(config: PoolConfig) -> Result<WorkerPool, FleetError> {
        std::fs::create_dir_all(&config.store_dir)?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;

        register_fleet_metrics();
        imufit_obs::counter("pool_campaigns_submitted_total");
        imufit_obs::counter("pool_cache_hits_total");
        imufit_obs::counter("pool_campaigns_completed_total");
        imufit_obs::gauge("pool_campaigns_active").set(0.0);
        imufit_obs::status::board().begin_campaign("pool", 0, 0);

        let lease_timeout = Duration::from_secs_f64(config.lease_timeout_s.max(0.001));
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                next_campaign: 1,
                active: HashMap::new(),
                meta: HashMap::new(),
                dispatch_log: Vec::new(),
                total_done: 0,
            }),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
            config,
            aggregate: Arc::new(Aggregate::new()),
            lease_timeout,
        });

        let sweep_shared = Arc::clone(&shared);
        let sweeper = std::thread::Builder::new()
            .name("pool-sweep".into())
            .spawn(move || sweep_loop(&sweep_shared))
            .map_err(|e| FleetError::Io(format!("spawning pool sweeper: {e}")))?;
        // From here on a failed spawn drops `pool`, which stops and joins
        // the sweeper.
        let pool = WorkerPool {
            shared,
            addr,
            threads: Mutex::new(vec![sweeper]),
        };
        let accept_shared = Arc::clone(&pool.shared);
        let accept = std::thread::Builder::new()
            .name("pool-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(|e| FleetError::Io(format!("spawning pool accept loop: {e}")))?;
        pool.threads
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(accept);
        Ok(pool)
    }

    /// The address pool workers connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The per-worker snapshot store, for the `/metrics` scrape.
    pub fn aggregate(&self) -> Arc<Aggregate> {
        Arc::clone(&self.shared.aggregate)
    }

    /// Submits a validated scenario for `tenant` at `priority` (≥ 1;
    /// higher = more dispatch slots). Returns a cache hit without
    /// touching the queue when the fingerprint's CSV is already stored,
    /// coalesces onto an identical in-flight campaign, and refuses over
    /// the tenant's queued-campaign quota.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError`] only for store IO failures; quota breaches
    /// are a [`SubmitOutcome::QuotaExceeded`], not an error.
    pub fn submit(
        &self,
        spec: ScenarioSpec,
        tenant: &str,
        priority: u32,
    ) -> Result<SubmitOutcome, FleetError> {
        let priority = priority.max(1);
        let units = {
            let config = imufit_core::CampaignConfig::from_scenario(&spec);
            config.matrix().len()
        };
        let fingerprint = CampaignFingerprint::of(&spec, units);
        let dir = self.shared.config.store_dir.join(format!(
            "{:016x}-{:016x}-{}",
            fingerprint.spec_hash, fingerprint.seed, fingerprint.units
        ));

        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        imufit_obs::counter("pool_campaigns_submitted_total").inc();

        // Fingerprint cache: a stored CSV answers the submission outright.
        if dir.join(RESULTS_FILE).is_file() {
            imufit_obs::counter("pool_cache_hits_total").inc();
            let campaign = state.next_campaign;
            state.next_campaign += 1;
            let meta = CampaignMeta {
                tenant: tenant.to_string(),
                priority,
                state: CampaignState::Complete,
                cached: true,
                fingerprint,
                units_total: units as u32,
                units_done: units as u32,
                dispatched: 0,
                dir,
            };
            let status = status_of(campaign, &meta);
            state.meta.insert(campaign, meta);
            return Ok(SubmitOutcome::Accepted(status));
        }

        // An identical campaign already in flight: coalesce instead of
        // racing two sessions over one store directory.
        if let Some((&id, meta)) = state
            .meta
            .iter()
            .find(|(_, m)| m.state == CampaignState::Running && m.fingerprint == fingerprint)
        {
            return Ok(SubmitOutcome::Accepted(status_of(id, meta)));
        }

        let limit = self.shared.config.max_queued_per_tenant;
        if limit > 0 {
            let active = state
                .meta
                .values()
                .filter(|m| m.state == CampaignState::Running && m.tenant == tenant)
                .count();
            if active >= limit {
                return Ok(SubmitOutcome::QuotaExceeded { active, limit });
            }
        }

        std::fs::create_dir_all(&dir)?;
        std::fs::write(dir.join("scenario.toml"), spec.to_toml())?;
        let session = CampaignSession::create(spec, None, &dir.join("fleet.ckpt"), false)?;

        let campaign = admit(&mut state, session, tenant, priority, None);
        self.shared.wake.notify_all();
        let meta = CampaignMeta {
            tenant: tenant.to_string(),
            priority,
            state: CampaignState::Running,
            cached: false,
            fingerprint,
            units_total: units as u32,
            units_done: 0,
            dispatched: 0,
            dir,
        };
        let status = status_of(campaign, &meta);
        state.meta.insert(campaign, meta);
        imufit_obs::gauge("pool_campaigns_active").set(state.active.len() as f64);
        imufit_obs::status::board().grow_campaign(units as u64);
        Ok(SubmitOutcome::Accepted(status))
    }

    /// Runs one campaign the caller built and returns its merged results,
    /// in matrix order, as soon as the last unit merged. The session's
    /// checkpoint, `--resume` replay and span journal live wherever the
    /// caller created them; the result store is not involved. `progress`
    /// is called on this thread with `(done, total)` after each merge,
    /// and once per journal-replayed unit up front. At the last merge the
    /// pool stops: every later worker request is answered with `Done`,
    /// and dropping the pool waits until each connected worker has heard
    /// it.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Io`] if the campaign can no longer finish.
    pub fn run(
        &self,
        session: CampaignSession,
        progress: &dyn Fn(usize, usize),
    ) -> Result<CampaignResults, FleetError> {
        let (total, resumed) = (session.total(), session.resumed());
        imufit_obs::gauge("fleet_units_total").set(total as f64);
        imufit_obs::gauge("fleet_units_resumed").set(resumed as f64);
        imufit_obs::status::board().begin_campaign(
            &session.spec().name,
            total as u64,
            resumed as u64,
        );
        for done in 1..=resumed {
            progress(done, total);
        }
        let (tx, rx) = channel();
        {
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            state.total_done += resumed as u64;
            admit(&mut state, session, "", 1, Some(tx));
            // A journal that was already complete finishes here.
            finalize_finished(&self.shared, &mut state);
            self.shared.wake.notify_all();
        }
        for merged in rx {
            match merged {
                Merged::Unit(done) => progress(done, total),
                Merged::All(results) => return Ok(results),
            }
        }
        Err(FleetError::Io(
            "campaign dropped before its last merge".into(),
        ))
    }

    /// A point-in-time view of one campaign, or `None` for an unknown id.
    pub fn status(&self, campaign: u32) -> Option<CampaignStatus> {
        let state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.meta.get(&campaign).map(|m| status_of(campaign, m))
    }

    /// The merged CSV for a completed campaign.
    pub fn results(&self, campaign: u32) -> ResultsOutcome {
        let dir = {
            let state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            match state.meta.get(&campaign) {
                None => return ResultsOutcome::NotFound,
                Some(m) if m.state != CampaignState::Complete => return ResultsOutcome::NotReady,
                Some(m) => m.dir.clone(),
            }
        };
        match std::fs::read_to_string(dir.join(RESULTS_FILE)) {
            Ok(csv) => ResultsOutcome::Csv(csv),
            Err(_) => ResultsOutcome::NotReady,
        }
    }

    /// Campaign id per dispatch, in dispatch order — the scheduler tests'
    /// fair-share audit trail.
    pub fn dispatch_order(&self) -> Vec<u32> {
        let state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.dispatch_log.clone()
    }

    /// Stops the pool: connected workers get `Done` on their next request
    /// (one waiting for work gets it at once), and this returns once each
    /// of them has heard it (or gone away) and the accept and sweeper
    /// threads have exited. Incomplete campaigns keep their checkpoints in
    /// the store.
    pub fn shutdown(&self) {
        {
            let _state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.stop.store(true, Ordering::SeqCst);
            self.shared.wake.notify_all();
        }
        let threads = std::mem::take(&mut *self.threads.lock().unwrap_or_else(|e| e.into_inner()));
        if threads.is_empty() {
            return;
        }
        // The accept thread blocks until a connection arrives: make one.
        // Should that fail, the threads are left to the process's exit
        // rather than joined forever.
        if TcpStream::connect(self.addr).is_err() {
            return;
        }
        for thread in threads {
            let _ = thread.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn status_of(campaign: u32, meta: &CampaignMeta) -> CampaignStatus {
    CampaignStatus {
        campaign,
        tenant: meta.tenant.clone(),
        priority: meta.priority,
        state: meta.state,
        cached: meta.cached,
        units_total: meta.units_total,
        units_done: meta.units_done,
        dispatched: meta.dispatched,
        fingerprint: meta.fingerprint,
    }
}

/// Queues `session` under a fresh campaign id. A new arrival starts at the
/// smallest live virtual time so it neither owes backlog nor preempts
/// everyone.
fn admit(
    state: &mut PoolState,
    session: CampaignSession,
    tenant: &str,
    priority: u32,
    caller: Option<Sender<Merged>>,
) -> u32 {
    let campaign = state.next_campaign;
    state.next_campaign += 1;
    let vtime = state
        .active
        .values()
        .map(|c| c.vtime)
        .fold(f64::INFINITY, f64::min);
    let vtime = if vtime.is_finite() { vtime } else { 0.0 };
    state.active.insert(
        campaign,
        ActiveCampaign {
            session,
            tenant: tenant.to_string(),
            priority,
            vtime,
            caller,
        },
    );
    campaign
}

/// Picks the next dispatch under weighted fair-share: among sessions with
/// queued units (and tenants under their in-flight cap), the smallest
/// virtual time wins, ties to the lowest campaign id.
fn next_dispatch(
    state: &mut PoolState,
    config: &PoolConfig,
    worker_id: u32,
) -> Option<(u32, crate::session::Dispatch, String)> {
    let cap = config.max_inflight_units_per_tenant;
    let inflight: HashMap<String, usize> = if cap > 0 {
        let mut by_tenant: HashMap<String, usize> = HashMap::new();
        for c in state.active.values() {
            *by_tenant.entry(c.tenant.clone()).or_default() += c.session.in_flight();
        }
        by_tenant
    } else {
        HashMap::new()
    };

    let mut best: Option<(u32, f64)> = None;
    for (&id, c) in &state.active {
        if c.session.queued() == 0 {
            continue;
        }
        if cap > 0 && inflight.get(&c.tenant).copied().unwrap_or(0) >= cap {
            continue;
        }
        let better = match best {
            None => true,
            Some((bid, bv)) => c.vtime < bv || (c.vtime == bv && id < bid),
        };
        if better {
            best = Some((id, c.vtime));
        }
    }
    let (id, _) = best?;
    let entry = state.active.get_mut(&id)?;
    let dispatch = entry.session.next_unit(worker_id)?;
    entry.vtime += 1.0 / f64::from(entry.priority.max(1));
    let canonical = entry.session.canonical_toml().to_string();
    state.dispatch_log.push(id);
    if let Some(meta) = state.meta.get_mut(&id) {
        meta.dispatched += 1;
    }
    Some((id, dispatch, canonical))
}

/// Moves every finished session out of the active set. A
/// [`WorkerPool::run`] caller gets its results, and the pool stops handing
/// out work; a submitted campaign's CSV goes into the store (tmp + rename,
/// so the results file only ever appears complete — its presence is the
/// cache marker).
fn finalize_finished(shared: &Shared, state: &mut PoolState) {
    let finished: Vec<u32> = state
        .active
        .iter()
        .filter(|(_, c)| c.session.finished())
        .map(|(&id, _)| id)
        .collect();
    for id in finished {
        let Some(entry) = state.active.remove(&id) else {
            continue;
        };
        let results = entry.session.into_results();
        if let Some(caller) = entry.caller {
            // The caller holds the `state` lock and notifies `wake`.
            shared.stop.store(true, Ordering::SeqCst);
            let _ = caller.send(Merged::All(results));
            continue;
        }
        if let Some(meta) = state.meta.get_mut(&id) {
            let tmp = meta.dir.join("campaign_results.csv.tmp");
            let wrote = std::fs::write(&tmp, results.to_csv())
                .and_then(|()| std::fs::rename(&tmp, meta.dir.join(RESULTS_FILE)));
            if wrote.is_err() {
                imufit_obs::counter("pool_store_write_errors_total").inc();
            }
            meta.state = CampaignState::Complete;
            meta.units_done = meta.units_total;
        }
        imufit_obs::counter("pool_campaigns_completed_total").inc();
    }
    imufit_obs::gauge("pool_campaigns_active").set(state.active.len() as f64);
}

/// Accepts worker connections until the pool stops, then waits for every
/// connection thread to end, so no worker is left without its `Done`.
/// [`WorkerPool::shutdown`] connects once to wake the blocking `accept`.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else {
            break;
        };
        let shared = Arc::clone(&shared);
        connections.retain(|c| !c.is_finished());
        connections.extend(
            std::thread::Builder::new()
                .name("pool-conn".into())
                .spawn(move || handle_connection(stream, shared))
                .ok(),
        );
    }
    for connection in connections {
        let _ = connection.join();
    }
}

/// Expires lapsed leases every quarter of the lease timeout until the pool
/// stops, waiting on the pool's condition variable between sweeps so a
/// stop ends it at once.
fn sweep_loop(shared: &Shared) {
    let every = (shared.lease_timeout / 4).max(Duration::from_millis(25));
    let mut due = Instant::now() + every;
    let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
    while !shared.stop.load(Ordering::SeqCst) {
        let left = due.saturating_duration_since(Instant::now());
        if !left.is_zero() {
            state = shared
                .wake
                .wait_timeout(state, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
            continue;
        }
        let now = Instant::now();
        due = now + every;
        for c in state.active.values_mut() {
            c.session.sweep_expired(now);
        }
        // A sweep can finish a campaign by aborting its last unit.
        finalize_finished(shared, &mut state);
        shared.wake.notify_all();
    }
}

/// Answers a worker's `Request`: the next unit under fair share, or, when
/// none is queued, the first one that becomes so within one heartbeat
/// period; then `NoWork`. The wait is capped at a beat so heartbeats queued
/// behind the request are still read within one. `Done` once the pool
/// stops.
fn long_poll(shared: &Shared, worker_id: u32, sent_specs: &mut HashSet<u32>) -> FleetMsg {
    let until = Instant::now() + heartbeat_period(shared.lease_timeout);
    let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        // Read under the lock that the last merge sets it under, so no
        // request after that merge is told `NoWork`.
        if shared.stop.load(Ordering::SeqCst) {
            return FleetMsg::Done;
        }
        if let Some((campaign, d, canonical)) = next_dispatch(&mut state, &shared.config, worker_id)
        {
            return FleetMsg::Assign {
                unit: d.unit,
                spec: d.spec,
                campaign_fp: d.campaign_fp,
                span: d.span,
                campaign,
                spec_toml: sent_specs.insert(campaign).then_some(canonical),
            };
        }
        let left = until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return FleetMsg::NoWork;
        }
        state = shared
            .wake
            .wait_timeout(state, left)
            .unwrap_or_else(|e| e.into_inner())
            .0;
    }
}

/// One worker connection: handshake, then a request/assign/result loop
/// until the pool stops or the worker goes away. Campaign scenarios ship
/// inline with the first `Assign` of each campaign on this connection.
/// Any protocol or transport error drops the connection and requeues its
/// leases.
fn handle_connection(mut stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.lease_timeout));
    let mut worker_id = u32::MAX;
    // Campaigns whose scenario this connection has already received.
    let mut sent_specs: HashSet<u32> = HashSet::new();
    let disconnect = loop {
        let msg = match read_msg(&mut stream) {
            Ok((msg, n)) => {
                imufit_obs::counter("fleet_bytes_received_total").add(n as u64);
                msg
            }
            Err(_) => break true,
        };
        let reply = match msg {
            FleetMsg::Hello { worker_id: id } => {
                worker_id = id;
                // Listed from the handshake on, not from its first beat.
                sight_worker(&shared, worker_id, false);
                Some(FleetMsg::Welcome {
                    trace_dir: shared
                        .config
                        .trace_dir
                        .as_ref()
                        .map(|p| p.display().to_string()),
                    lease_timeout_s: shared.config.lease_timeout_s,
                })
            }
            FleetMsg::Heartbeat { snapshot } => {
                sight_worker(&shared, worker_id, true);
                if let Some(bytes) = snapshot {
                    match Snapshot::decode(&bytes) {
                        Ok(snap) => {
                            imufit_obs::counter("fleet_snapshots_received_total").inc();
                            shared.aggregate.store(
                                &worker_id.to_string(),
                                snap.with_label("worker", &worker_id.to_string()),
                            );
                        }
                        Err(_) => {
                            imufit_obs::counter("fleet_snapshot_decode_errors_total").inc();
                        }
                    }
                }
                None
            }
            FleetMsg::Request => match long_poll(&shared, worker_id, &mut sent_specs) {
                FleetMsg::Done => {
                    let _ = write_msg(&mut stream, &FleetMsg::Done);
                    break false;
                }
                reply => Some(reply),
            },
            FleetMsg::Result {
                unit,
                record,
                span,
                exec,
                campaign,
            } => {
                let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
                let newly_done = state.active.get_mut(&campaign).and_then(|entry| {
                    if !entry
                        .session
                        .handle_result(unit, record, span, exec, worker_id)
                    {
                        return None;
                    }
                    let done = entry.session.done();
                    if let Some(caller) = &entry.caller {
                        let _ = caller.send(Merged::Unit(done));
                    }
                    Some(done as u32)
                });
                if let Some(done) = newly_done {
                    if let Some(meta) = state.meta.get_mut(&campaign) {
                        meta.units_done = done;
                    }
                    state.total_done += 1;
                    imufit_obs::status::board().set_progress(state.total_done);
                }
                finalize_finished(&shared, &mut state);
                shared.wake.notify_all();
                None
            }
            // Workers never send these.
            FleetMsg::Welcome { .. }
            | FleetMsg::Assign { .. }
            | FleetMsg::NoWork
            | FleetMsg::Done => break true,
        };
        if let Some(reply) = reply {
            match write_msg(&mut stream, &reply) {
                Ok(n) => imufit_obs::counter("fleet_bytes_sent_total").add(n as u64),
                Err(_) => break true,
            }
        }
    };
    if disconnect {
        imufit_obs::counter("fleet_worker_disconnects_total").inc();
    }
    let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
    for c in state.active.values_mut() {
        c.session.release_worker(worker_id);
    }
    shared.wake.notify_all();
}

/// Puts `worker_id` on the status board with the leases it holds (renewed
/// first when `renew`), the units it has finished and its busy time.
fn sight_worker(shared: &Shared, worker_id: u32, renew: bool) {
    let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
    let (mut held, mut units_done, mut busy_ms) = (0u64, 0u64, 0u64);
    for c in state.active.values_mut() {
        if renew {
            held += c.session.renew_leases(worker_id);
        }
        let (done, busy) = c.session.worker_stats(worker_id);
        units_done += done;
        busy_ms += busy;
    }
    imufit_obs::status::board().worker_seen(worker_id, held, units_done, busy_ms);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec(seed: u64) -> ScenarioSpec {
        let mut spec = ScenarioSpec::preset("quick").expect("quick preset");
        spec.campaign.seed = seed;
        spec
    }

    fn fresh_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "imufit-pool-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Higher-priority sessions win proportionally more dispatch slots
    /// under stride scheduling.
    #[test]
    fn fair_share_prefers_higher_priority() {
        let store = fresh_store("fair");
        let pool = WorkerPool::start(PoolConfig::new(store.clone())).unwrap();
        let SubmitOutcome::Accepted(a) = pool.submit(quick_spec(1), "alice", 1).unwrap() else {
            panic!("submit a refused");
        };
        let SubmitOutcome::Accepted(b) = pool.submit(quick_spec(2), "bob", 3).unwrap() else {
            panic!("submit b refused");
        };
        let mut state = pool.shared.state.lock().unwrap();
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for _ in 0..12 {
            let (id, _, _) = next_dispatch(&mut state, &pool.shared.config, 1).expect("work");
            *counts.entry(id).or_default() += 1;
        }
        drop(state);
        let a_units = counts.get(&a.campaign).copied().unwrap_or(0);
        let b_units = counts.get(&b.campaign).copied().unwrap_or(0);
        assert_eq!(a_units + b_units, 12);
        assert!(a_units >= 1, "low priority still progresses");
        assert!(
            b_units > a_units,
            "priority 3 outdispatches priority 1 ({b_units} vs {a_units})"
        );
        drop(pool);
        let _ = std::fs::remove_dir_all(&store);
    }

    /// The queued-campaign quota refuses a tenant's overflow submission
    /// while leaving other tenants untouched.
    #[test]
    fn queued_quota_refuses_overflow() {
        let store = fresh_store("quota");
        let mut config = PoolConfig::new(store.clone());
        config.max_queued_per_tenant = 1;
        let pool = WorkerPool::start(config).unwrap();
        assert!(matches!(
            pool.submit(quick_spec(1), "alice", 1).unwrap(),
            SubmitOutcome::Accepted(_)
        ));
        assert!(matches!(
            pool.submit(quick_spec(2), "alice", 1).unwrap(),
            SubmitOutcome::QuotaExceeded {
                active: 1,
                limit: 1
            }
        ));
        assert!(matches!(
            pool.submit(quick_spec(3), "bob", 1).unwrap(),
            SubmitOutcome::Accepted(_)
        ));
        drop(pool);
        let _ = std::fs::remove_dir_all(&store);
    }

    /// A caller-built session runs to completion on the pool, which
    /// announces its trace directory in `Welcome`; a request after the last
    /// merge is told `Done`, not `NoWork`, and the worker exits cleanly.
    #[test]
    fn run_serves_one_session_then_answers_done() {
        let store = fresh_store("run");
        let mut spec = ScenarioSpec::paper_default();
        spec.campaign.missions = 1;
        spec.campaign.durations = vec![2.0];
        let session =
            CampaignSession::create(spec, None, &store.join("fleet.ckpt"), false).unwrap();
        let total = session.total();
        let boxes = store.join("boxes");
        let pool = WorkerPool::start(PoolConfig {
            trace_dir: Some(boxes.clone()),
            ..PoolConfig::new(store.clone())
        })
        .unwrap();

        // A client that joins before the campaign ends but never asks for
        // work until after it.
        let mut late = TcpStream::connect(pool.addr()).unwrap();
        write_msg(&mut late, &FleetMsg::Hello { worker_id: 9 }).unwrap();
        let (welcome, _) = read_msg(&mut late).unwrap();
        assert_eq!(
            welcome,
            FleetMsg::Welcome {
                trace_dir: Some(boxes.display().to_string()),
                lease_timeout_s: 30.0,
            }
        );

        let addr = pool.addr();
        let worker = std::thread::spawn(move || crate::worker::run_worker(addr, 1));
        let seen = Mutex::new(Vec::new());
        let results = pool
            .run(session, &|done, of| seen.lock().unwrap().push((done, of)))
            .unwrap();
        assert_eq!(results.records().len(), total);
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), total);
        assert_eq!(seen.last(), Some(&(total, total)));

        write_msg(&mut late, &FleetMsg::Request).unwrap();
        assert_eq!(read_msg(&mut late).unwrap().0, FleetMsg::Done);
        drop(pool);
        assert_eq!(
            worker.join().unwrap(),
            Ok(crate::worker::WorkerExit::CampaignComplete)
        );
        let _ = std::fs::remove_dir_all(&store);
    }

    /// A worker is on the status board from its handshake on: the pool
    /// lists it before it answers `Hello`, with no heartbeat sent.
    #[test]
    fn hello_lists_the_worker_before_any_heartbeat() {
        let store = fresh_store("hello");
        let pool = WorkerPool::start(PoolConfig::new(store.clone())).unwrap();
        let id = 4242;
        // Starting a pool clears the process-wide board, and other tests
        // start pools concurrently, so one handshake may lose its entry to
        // them; a few fresh handshakes cannot all lose it.
        let listed = (0..5).any(|_| {
            let mut client = TcpStream::connect(pool.addr()).unwrap();
            write_msg(&mut client, &FleetMsg::Hello { worker_id: id }).unwrap();
            let (welcome, _) = read_msg(&mut client).unwrap();
            assert!(matches!(welcome, FleetMsg::Welcome { .. }));
            imufit_obs::status::board()
                .render_json()
                .contains(&format!("\"id\": {id},"))
        });
        assert_eq!(listed, imufit_obs::runtime_enabled());
        drop(pool);
        let _ = std::fs::remove_dir_all(&store);
    }

    /// Connects a pool client, completes the handshake, and sends one
    /// `Request`, which finds the pool idle.
    fn parked_request(pool: &WorkerPool) -> TcpStream {
        let mut client = TcpStream::connect(pool.addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write_msg(&mut client, &FleetMsg::Hello { worker_id: 7 }).unwrap();
        assert!(matches!(
            read_msg(&mut client).unwrap().0,
            FleetMsg::Welcome { .. }
        ));
        write_msg(&mut client, &FleetMsg::Request).unwrap();
        // Give the request time to reach the pool and wait there; if it
        // has not, it finds the work below without waiting at all.
        std::thread::sleep(Duration::from_millis(50));
        client
    }

    /// A `Request` parked on an idle pool is answered with the first unit
    /// of a later submission, without a second `Request`.
    #[test]
    fn parked_request_is_assigned_on_submit() {
        let store = fresh_store("park");
        let pool = WorkerPool::start(PoolConfig::new(store.clone())).unwrap();
        let mut client = parked_request(&pool);
        assert!(matches!(
            pool.submit(quick_spec(11), "alice", 1).unwrap(),
            SubmitOutcome::Accepted(_)
        ));
        let submitted = Instant::now();
        let (reply, _) = read_msg(&mut client).unwrap();
        let took = submitted.elapsed();
        assert!(
            matches!(reply, FleetMsg::Assign { unit: 0, .. }),
            "got {reply:?}"
        );
        assert!(
            took < Duration::from_millis(20),
            "assigned {took:?} after submit"
        );
        drop(client);
        drop(pool);
        let _ = std::fs::remove_dir_all(&store);
    }

    /// Shutdown answers a parked `Request` with `Done` at once, not after
    /// its wait runs out.
    #[test]
    fn shutdown_answers_a_parked_request_done() {
        let store = fresh_store("park-stop");
        let pool = WorkerPool::start(PoolConfig::new(store.clone())).unwrap();
        let mut client = parked_request(&pool);
        let asked = Instant::now();
        let (reply, took) = std::thread::scope(|scope| {
            scope.spawn(|| pool.shutdown());
            let (reply, _) = read_msg(&mut client).unwrap();
            (reply, asked.elapsed())
        });
        assert_eq!(reply, FleetMsg::Done);
        assert!(took < Duration::from_millis(500), "Done took {took:?}");
        drop(pool);
        let _ = std::fs::remove_dir_all(&store);
    }

    /// An identical submission while the original is still running
    /// coalesces onto the same campaign id instead of double-running.
    #[test]
    fn identical_inflight_submissions_coalesce() {
        let store = fresh_store("coalesce");
        let pool = WorkerPool::start(PoolConfig::new(store.clone())).unwrap();
        let SubmitOutcome::Accepted(first) = pool.submit(quick_spec(5), "alice", 1).unwrap() else {
            panic!("first refused");
        };
        let SubmitOutcome::Accepted(second) = pool.submit(quick_spec(5), "bob", 2).unwrap() else {
            panic!("second refused");
        };
        assert_eq!(first.campaign, second.campaign);
        assert!(!second.cached);
        drop(pool);
        let _ = std::fs::remove_dir_all(&store);
    }
}
