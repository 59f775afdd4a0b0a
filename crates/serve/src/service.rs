//! The campaign service core: a [`WorkerPool`] plus service-level
//! policy (body caps, tenant quotas) and the submission entry point.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;

use imufit_fleet::pool::{CampaignStatus, PoolConfig, ResultsOutcome, SubmitOutcome, WorkerPool};
use imufit_fleet::FleetError;
use imufit_obs::snapshot::Aggregate;
use imufit_scenario::SubmissionRequest;

/// Service tuning; everything hostile input can push against is bounded
/// here.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Request-body cap for submissions; breach is a 413.
    pub max_body_bytes: usize,
    /// The worker pool behind the service: result-store root, lease
    /// timeout and the per-tenant quotas (a queued-campaign breach is a
    /// 429; an in-flight breach pauses dispatch, not submission).
    pub pool: PoolConfig,
}

impl ServiceConfig {
    /// Service defaults: 1 MiB bodies, 4 queued campaigns per tenant, no
    /// in-flight cap, and the fleet's default lease timeout.
    pub fn new(store_dir: PathBuf) -> Self {
        ServiceConfig {
            max_body_bytes: imufit_obs::http::DEFAULT_MAX_BODY_BYTES,
            pool: PoolConfig {
                max_queued_per_tenant: 4,
                ..PoolConfig::new(store_dir)
            },
        }
    }
}

/// The running service: owns the worker pool and answers the HTTP
/// layer's submissions, status polls, and results fetches.
pub struct CampaignService {
    pool: WorkerPool,
    config: ServiceConfig,
}

impl CampaignService {
    /// Starts the service's worker pool (workers connect to
    /// [`CampaignService::worker_addr`]).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Io`] if the store or listener cannot be
    /// created.
    pub fn start(config: ServiceConfig) -> Result<Arc<CampaignService>, FleetError> {
        let pool = WorkerPool::start(config.pool.clone())?;
        Ok(Arc::new(CampaignService { pool, config }))
    }

    /// The address pool workers connect to (the fleet protocol side, not
    /// HTTP).
    pub fn worker_addr(&self) -> SocketAddr {
        self.pool.addr()
    }

    /// The service configuration (the HTTP layer reads the body cap).
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The pool's per-worker snapshot store for the `/metrics` scrape.
    pub fn aggregate(&self) -> Arc<Aggregate> {
        self.pool.aggregate()
    }

    /// Submits a parsed request to the pool.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError`] only for store IO failures; quota breaches
    /// come back as [`SubmitOutcome::QuotaExceeded`].
    pub fn submit(&self, request: SubmissionRequest) -> Result<SubmitOutcome, FleetError> {
        self.pool
            .submit(request.spec, &request.tenant, request.priority)
    }

    /// One campaign's live status.
    pub fn status(&self, campaign: u32) -> Option<CampaignStatus> {
        self.pool.status(campaign)
    }

    /// One campaign's merged CSV (when complete).
    pub fn results(&self, campaign: u32) -> ResultsOutcome {
        self.pool.results(campaign)
    }

    /// The pool's dispatch audit trail: the campaign id of every unit
    /// handed to a worker, in dispatch order.
    pub fn dispatch_order(&self) -> Vec<u32> {
        self.pool.dispatch_order()
    }

    /// Stops the pool: connected workers get `Done` and drain.
    pub fn shutdown(&self) {
        self.pool.shutdown();
    }
}
