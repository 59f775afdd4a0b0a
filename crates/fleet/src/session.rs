//! One campaign's scheduling state, which a [`WorkerPool`] serves over its
//! worker connections.
//!
//! A [`CampaignSession`] owns the sharded spec matrix, the pending queue,
//! leases, retries, the checkpoint journal, the span journal, and the
//! merged results. The pool keeps a map of live sessions keyed by
//! campaign id: one caller-built session for `fleet run`, or many
//! submitted ones for the campaign service. Either way a session's merged
//! [`CampaignResults`] is byte-identical to the single-process
//! campaign's, whatever the dispatch interleaving.
//!
//! [`WorkerPool`]: crate::pool::WorkerPool

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use imufit_core::{Campaign, CampaignConfig, CampaignResults, ExperimentRecord, ExperimentSpec};
use imufit_obs::spans::{SpanEvent, SpanJournal, SpanKind, NO_WORKER};
use imufit_scenario::ScenarioSpec;

use crate::checkpoint::{CampaignFingerprint, Checkpoint, CheckpointEntry, CheckpointWriter};
use crate::protocol::{ExecReport, FleetError};

/// One dispatched unit's lease.
#[derive(Debug)]
struct Lease {
    worker_id: u32,
    deadline: Instant,
    /// Span id stamped at dispatch, carried through requeue events so a
    /// lost attempt's trace chain stays attributable.
    span: u64,
}

/// A dispatchable unit handed out by [`CampaignSession::next_unit`].
#[derive(Debug, Clone)]
pub struct Dispatch {
    /// Matrix index of the unit within its campaign.
    pub unit: u32,
    /// The realized experiment cell.
    pub spec: ExperimentSpec,
    /// Trace span id minted for this dispatch attempt.
    pub span: u64,
    /// Campaign fingerprint hash for the `Assign` trace context.
    pub campaign_fp: u64,
}

/// Scheduling state for one campaign: sharded units, leases, retries,
/// journals, and merged results. All methods expect external locking
/// (the owner holds it in a `Mutex`).
pub struct CampaignSession {
    spec: ScenarioSpec,
    campaign_config: CampaignConfig,
    /// Canonical scenario dump (`spec.to_toml()`); the fingerprint input
    /// and the document shipped inline to pool workers.
    canonical_toml: String,
    fingerprint: CampaignFingerprint,
    specs: Vec<ExperimentSpec>,
    pending: VecDeque<u32>,
    leases: HashMap<u32, Lease>,
    /// Re-dispatch count per unit (only units that lost a lease appear).
    retries: HashMap<u32, u32>,
    results: Vec<Option<ExperimentRecord>>,
    done: usize,
    journal: CheckpointWriter,
    /// Wall-clock busy time accumulated per worker, for utilisation.
    busy: HashMap<u32, Duration>,
    assigned_at: HashMap<u32, Instant>,
    /// Units completed per worker, for the live status board.
    done_by: HashMap<u32, u64>,
    /// The `.ifsp` execution span journal (absent only when its file
    /// could not be created; the campaign itself never depends on it).
    spans: Option<SpanJournal>,
    lease_timeout: Duration,
    retry_cap: usize,
    resumed: usize,
    /// Monotone span-id source; each dispatch (including redeliveries)
    /// draws a fresh id. Plain because every caller holds the session
    /// lock.
    next_span: u64,
}

impl CampaignSession {
    /// Creates a session: shards the campaign, loads (or creates) the
    /// checkpoint journal at `checkpoint`, and arms the span journal next
    /// to it.
    ///
    /// # Errors
    ///
    /// Returns a typed [`FleetError`] for an unreadable or foreign journal
    /// on `resume`, or an IO failure creating files.
    pub fn create(
        spec: ScenarioSpec,
        trace_dir: Option<PathBuf>,
        checkpoint: &Path,
        resume: bool,
    ) -> Result<Self, FleetError> {
        let mut campaign_config = CampaignConfig::from_scenario(&spec);
        campaign_config.trace_dir = trace_dir;
        let specs = campaign_config.matrix();
        let total = specs.len();
        let canonical_toml = spec.to_toml();
        let fingerprint = CampaignFingerprint::of(&spec, total);

        let mut results: Vec<Option<ExperimentRecord>> = vec![None; total];
        let mut done = 0;
        let journal = if resume {
            let bytes = std::fs::read(checkpoint)?;
            let (ck, tail) = Checkpoint::load_for_resume(&bytes, &fingerprint)?;
            if tail.is_torn() {
                imufit_obs::counter("fleet_checkpoint_torn_tails_total").inc();
            }
            for entry in &ck.entries {
                let unit = entry.unit as usize;
                if unit < total && results[unit].is_none() {
                    results[unit] = Some(entry.record.clone());
                    done += 1;
                }
            }
            CheckpointWriter::append(checkpoint, tail.clean_len(bytes.len()) as u64)?
        } else {
            if let Some(dir) = checkpoint.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            CheckpointWriter::create(checkpoint, &fingerprint)?
        };

        let pending: VecDeque<u32> = (0..total as u32)
            .filter(|&u| results[u as usize].is_none())
            .collect();

        // The `.ifsp` execution span journal rides next to the checkpoint.
        // Creation failure degrades to an untraced campaign, never a dead
        // one.
        let span_path = checkpoint.with_file_name("campaign_spans.ifsp");
        let spans = match SpanJournal::create(&span_path, fingerprint.spec_hash, total as u32) {
            Ok(journal) => {
                for &unit in &pending {
                    let event = SpanEvent {
                        detail: specs[unit as usize].label(),
                        ..SpanEvent::new(unit, SpanKind::Enqueued)
                    };
                    if journal.record(event).is_err() {
                        imufit_obs::counter("fleet_span_write_errors_total").inc();
                    }
                }
                Some(journal)
            }
            Err(_) => {
                imufit_obs::counter("fleet_span_write_errors_total").inc();
                None
            }
        };

        let lease_timeout = Duration::from_secs_f64(spec.fleet.lease_timeout_s.max(0.001));
        let retry_cap = spec.fleet.retry_cap;
        Ok(CampaignSession {
            spec,
            campaign_config,
            canonical_toml,
            fingerprint,
            specs,
            pending,
            leases: HashMap::new(),
            retries: HashMap::new(),
            results,
            done,
            journal,
            busy: HashMap::new(),
            assigned_at: HashMap::new(),
            done_by: HashMap::new(),
            spans,
            lease_timeout,
            retry_cap,
            resumed: done,
            next_span: 1,
        })
    }

    /// The scenario this session realizes.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The canonical scenario dump workers parse (also the fingerprint
    /// input).
    pub fn canonical_toml(&self) -> &str {
        &self.canonical_toml
    }

    /// Total work units in the sharded matrix.
    pub fn total(&self) -> usize {
        self.results.len()
    }

    /// Units with a merged record so far.
    pub fn done(&self) -> usize {
        self.done
    }

    /// Units replayed from the journal at creation (resume only).
    pub fn resumed(&self) -> usize {
        self.resumed
    }

    /// Units currently out on a lease.
    pub fn in_flight(&self) -> usize {
        self.leases.len()
    }

    /// Units waiting in the queue.
    pub fn queued(&self) -> usize {
        self.pending.len()
    }

    /// Whether every unit has a merged record.
    pub fn finished(&self) -> bool {
        self.done >= self.results.len()
    }

    /// `(units_done, busy_ms)` for one worker, for the status board.
    pub fn worker_stats(&self, worker_id: u32) -> (u64, u64) {
        let done = self.done_by.get(&worker_id).copied().unwrap_or(0);
        let busy = self
            .busy
            .get(&worker_id)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        (done, busy)
    }

    /// Appends one event to the span journal, if armed. A write failure
    /// is counted, not fatal — execution tracing must never take down a
    /// campaign.
    fn span_event(&self, event: SpanEvent) {
        if let Some(journal) = &self.spans {
            if journal.record(event).is_err() {
                imufit_obs::counter("fleet_span_write_errors_total").inc();
            }
        }
    }

    /// Leases the next pending unit to `worker_id`, or `None` when the
    /// queue is empty (the campaign may still be in flight).
    pub fn next_unit(&mut self, worker_id: u32) -> Option<Dispatch> {
        let unit = self.pending.pop_front()?;
        let span = self.next_span;
        self.next_span += 1;
        self.leases.insert(
            unit,
            Lease {
                worker_id,
                deadline: Instant::now() + self.lease_timeout,
                span,
            },
        );
        self.assigned_at.insert(unit, Instant::now());
        imufit_obs::counter("fleet_units_dispatched_total").inc();
        imufit_obs::counter_labeled(
            "fleet_worker_units_dispatched",
            "worker",
            &worker_id.to_string(),
        )
        .inc();
        self.span_event(SpanEvent {
            worker: worker_id,
            span,
            ..SpanEvent::new(unit, SpanKind::Dispatched)
        });
        Some(Dispatch {
            unit,
            spec: self.specs[unit as usize],
            span,
            campaign_fp: self.fingerprint.spec_hash,
        })
    }

    /// Merges one worker result. Returns `true` when the unit was newly
    /// completed (duplicates from re-dispatch return `false`).
    pub fn handle_result(
        &mut self,
        unit: u32,
        record: ExperimentRecord,
        span: u64,
        exec: ExecReport,
        worker_id: u32,
    ) -> bool {
        if (unit as usize) >= self.results.len() {
            return false;
        }
        self.leases.remove(&unit);
        if let Some(at) = self.assigned_at.remove(&unit) {
            *self.busy.entry(worker_id).or_default() += at.elapsed();
        }
        if self.results[unit as usize].is_none() {
            self.span_event(SpanEvent {
                worker: worker_id,
                span,
                ticks: exec.ticks,
                exec_nanos: exec.exec_nanos,
                stages: exec.stages,
                ..SpanEvent::new(unit, SpanKind::Executed)
            });
        }
        let was_done = self.done;
        self.complete(unit, record, span, worker_id);
        if self.done > was_done {
            *self.done_by.entry(worker_id).or_default() += 1;
            true
        } else {
            false
        }
    }

    /// Stores a unit's record (idempotently — a re-dispatched unit can
    /// legitimately complete twice; the first result wins so the journal
    /// and CSV never disagree) and journals first-time completions.
    fn complete(&mut self, unit: u32, record: ExperimentRecord, span: u64, worker: u32) {
        let slot = &mut self.results[unit as usize];
        if slot.is_some() {
            return;
        }
        // Journal before acknowledging: a kill after this line reruns
        // nothing, a kill before it reruns the unit. Journal IO failure
        // degrades to a non-resumable campaign, not a lost record.
        if self
            .journal
            .record(&CheckpointEntry {
                unit,
                record: record.clone(),
            })
            .is_err()
        {
            imufit_obs::counter("fleet_checkpoint_write_errors_total").inc();
        }
        *slot = Some(record);
        self.done += 1;
        imufit_obs::counter("fleet_units_completed_total").inc();
        self.span_event(SpanEvent {
            worker,
            span,
            ..SpanEvent::new(unit, SpanKind::Merged)
        });
    }

    /// Returns a unit to the queue after a lost lease (worker death or
    /// timeout); units past the retry cap are stamped aborted like the
    /// panic path. `span` is the lost dispatch's span id and `reason`
    /// lands in the journal's requeue edge.
    fn requeue(&mut self, unit: u32, span: u64, reason: &str) {
        if self.results[unit as usize].is_some() {
            return;
        }
        let tries = self.retries.entry(unit).or_insert(0);
        *tries += 1;
        imufit_obs::counter("fleet_unit_retries_total").inc();
        if *tries as usize > self.retry_cap {
            imufit_obs::counter("fleet_units_aborted_total").inc();
            let record =
                Campaign::aborted_record_for(&self.campaign_config, self.specs[unit as usize]);
            self.complete(unit, record, span, NO_WORKER);
        } else {
            self.pending.push_back(unit);
            imufit_obs::counter("fleet_units_requeued_total").inc();
            self.span_event(SpanEvent {
                span,
                detail: reason.to_string(),
                ..SpanEvent::new(unit, SpanKind::Requeued)
            });
        }
    }

    /// Renews every lease held by `worker_id` (heartbeat). Returns the
    /// number of leases held.
    pub fn renew_leases(&mut self, worker_id: u32) -> u64 {
        let deadline = Instant::now() + self.lease_timeout;
        let mut held = 0u64;
        let mut renewed: Vec<(u32, u64)> = Vec::new();
        for (&unit, lease) in self.leases.iter_mut() {
            if lease.worker_id == worker_id {
                lease.deadline = deadline;
                held += 1;
                renewed.push((unit, lease.span));
            }
        }
        for (unit, span) in renewed {
            self.span_event(SpanEvent {
                worker: worker_id,
                span,
                ..SpanEvent::new(unit, SpanKind::LeaseRenewed)
            });
        }
        held
    }

    /// Drops every lease held by `worker_id`, requeueing the units.
    pub fn release_worker(&mut self, worker_id: u32) {
        let units: Vec<(u32, u64)> = self
            .leases
            .iter()
            .filter(|(_, l)| l.worker_id == worker_id)
            .map(|(&u, l)| (u, l.span))
            .collect();
        for (unit, span) in units {
            self.leases.remove(&unit);
            self.assigned_at.remove(&unit);
            self.requeue(unit, span, "worker disconnected");
        }
    }

    /// Requeues every unit whose lease deadline has passed `now`.
    pub fn sweep_expired(&mut self, now: Instant) {
        let expired: Vec<(u32, u64)> = self
            .leases
            .iter()
            .filter(|(_, l)| l.deadline <= now)
            .map(|(&u, l)| (u, l.span))
            .collect();
        for (unit, span) in expired {
            self.leases.remove(&unit);
            self.assigned_at.remove(&unit);
            imufit_obs::counter("fleet_lease_expiries_total").inc();
            self.requeue(unit, span, "lease expired");
        }
    }

    /// Consumes the session, emitting per-worker utilisation counters and
    /// returning merged results in matrix order. Units that never got a
    /// record (shutdown mid-campaign) are stamped aborted.
    pub fn into_results(self) -> CampaignResults {
        for (worker, busy) in &self.busy {
            imufit_obs::counter_labeled("fleet_worker_busy_ms", "worker", &worker.to_string())
                .add(busy.as_millis() as u64);
        }
        let config = self.campaign_config;
        let specs = self.specs;
        let records = self
            .results
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|| Campaign::aborted_record_for(&config, specs[i])))
            .collect();
        CampaignResults::from_records(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imufit_uav::FlightOutcome;

    fn test_session(tag: &str) -> (CampaignSession, std::path::PathBuf) {
        let mut spec = ScenarioSpec::paper_default();
        spec.campaign.missions = 1;
        spec.campaign.durations = vec![2.0];
        let path = std::env::temp_dir().join(format!(
            "imufit-fleet-session-{tag}-{}.ckpt",
            std::process::id()
        ));
        let session = CampaignSession::create(spec, None, &path, false).unwrap();
        (session, path)
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(path.with_file_name("campaign_spans.ifsp"));
    }

    /// An expired lease re-queues its unit until the retry cap, after
    /// which the unit is stamped aborted — the campaign always finishes.
    #[test]
    fn requeue_honors_retry_cap_then_aborts() {
        let (mut session, path) = test_session("cap");
        session.retry_cap = 2;
        let unit = 0_u32;
        let before = session.pending.len();

        // The same unit loses its lease `cap` times: re-queued each time.
        for round in 1..=2 {
            session.pending.retain(|&u| u != unit);
            session.requeue(unit, 1, "lease expired");
            assert_eq!(session.pending.len(), before, "round {round} requeues");
            assert!(session.results[unit as usize].is_none());
        }
        // One more lost lease crosses the cap: aborted, not requeued.
        session.pending.retain(|&u| u != unit);
        session.requeue(unit, 1, "lease expired");
        assert_eq!(session.pending.len(), before - 1);
        let record = session.results[unit as usize].as_ref().expect("stamped");
        assert_eq!(record.outcome, FlightOutcome::Aborted);
        assert_eq!(session.done, 1);
        cleanup(&path);
    }

    /// A worker's death releases every lease it held in one sweep.
    #[test]
    fn release_worker_requeues_all_of_its_leases() {
        let (mut session, path) = test_session("release");
        let deadline = Instant::now() + Duration::from_secs(60);
        for unit in [0_u32, 1, 2] {
            session.pending.retain(|&u| u != unit);
            session.leases.insert(
                unit,
                Lease {
                    worker_id: 7,
                    deadline,
                    span: 1,
                },
            );
        }
        session.leases.insert(
            3,
            Lease {
                worker_id: 8,
                deadline,
                span: 2,
            },
        );
        session.pending.retain(|&u| u != 3);

        session.release_worker(7);
        assert!(
            session.leases.keys().all(|&u| u == 3),
            "worker 8 keeps lease"
        );
        for unit in [0_u32, 1, 2] {
            assert!(session.pending.contains(&unit), "unit {unit} requeued");
        }
        assert!(!session.pending.contains(&3));
        cleanup(&path);
    }

    /// A re-dispatched unit that completes twice keeps the first record:
    /// the journal and the merged CSV can never disagree.
    #[test]
    fn duplicate_completion_is_idempotent() {
        let (mut session, path) = test_session("dup");
        let first = Campaign::aborted_record_for(&session.campaign_config, session.specs[0]);
        let mut second = first.clone();
        second.flight_duration = 99.0;
        session.complete(0, first.clone(), 1, 7);
        session.complete(0, second, 2, 8);
        assert_eq!(session.done, 1);
        assert_eq!(session.results[0].as_ref().unwrap(), &first);
        cleanup(&path);
    }

    /// `next_unit` leases in matrix order and `handle_result` merges and
    /// reports first-time completion exactly once.
    #[test]
    fn dispatch_and_result_round_trip() {
        let (mut session, path) = test_session("dispatch");
        let d = session.next_unit(3).expect("unit available");
        assert_eq!(d.unit, 0);
        assert_eq!(session.in_flight(), 1);
        let record = Campaign::aborted_record_for(&session.campaign_config, d.spec);
        assert!(session.handle_result(d.unit, record.clone(), d.span, ExecReport::default(), 3));
        assert!(!session.handle_result(d.unit, record, d.span, ExecReport::default(), 3));
        assert_eq!(session.in_flight(), 0);
        assert_eq!(session.done(), 1);
        cleanup(&path);
    }
}
