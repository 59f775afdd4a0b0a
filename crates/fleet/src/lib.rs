//! Distributed campaign orchestration for the IMU fault-injection
//! testbed.
//!
//! A [`WorkerPool`] shards campaigns into run-level work units and serves
//! them over localhost TCP to N **worker processes**, mirroring the
//! paper's broker topology (tracker / core / edge) at campaign scale: the
//! coordinator process running the pool plays the tracker, workers are
//! edge executors, and the framed protocol is the core broker fabric
//! between them. The pool is the only server of the protocol: `fleet run`
//! and `reproduce --fleet-workers` hand it one [`CampaignSession`] built
//! in their output directory ([`WorkerPool::run`]); the campaign service
//! submits many ([`WorkerPool::submit`]).
//!
//! Design invariants:
//!
//! - **Byte-identical merges.** Records travel with their floats as raw
//!   IEEE-754 bits and are merged back by unit index (= matrix order),
//!   so the fleet's `campaign_results.csv` is byte-for-byte the
//!   single-process campaign's output, whatever the worker count or
//!   scheduling history.
//! - **Typed failure.** Every frame decode — protocol messages and
//!   checkpoint journal entries alike — returns a [`FleetError`]
//!   variant on truncation, corruption, or version skew; nothing
//!   panics on hostile bytes.
//! - **Lease-based robustness.** Dispatched units carry a lease that
//!   worker heartbeats extend; a dead or stalled worker's units are
//!   re-queued, with a per-unit retry cap before the unit is stamped
//!   [`Aborted`](imufit_uav::FlightOutcome::Aborted) like an
//!   in-process panic.
//! - **Resumable checkpoints.** Completed units are journaled to an
//!   append-only, CRC-framed `fleet.ckpt` (fsync per entry) keyed by a
//!   campaign fingerprint; `--resume` replays the journal — tolerating
//!   the torn tail a SIGKILL leaves — and only outstanding units rerun.

pub mod checkpoint;
pub mod pool;
pub mod protocol;
pub mod session;
pub mod worker;

pub use checkpoint::{CampaignFingerprint, Checkpoint, CheckpointEntry, CheckpointWriter};
pub use pool::{
    CampaignState, CampaignStatus, PoolConfig, ResultsOutcome, SubmitOutcome, WorkerPool,
};
pub use protocol::{decode_msg, encode_msg, read_msg, write_msg, ExecReport, FleetError, FleetMsg};
pub use session::CampaignSession;
pub use worker::{run_worker, spawn_local_workers, worker_main, WorkerExit, MAX_CONNECT_ATTEMPTS};
