//! The fleet worker: connects to a [`WorkerPool`](crate::pool::WorkerPool),
//! pulls work units, runs each experiment with the same panic-isolated
//! harness as the single-process campaign, and streams records back.
//!
//! Workers are stateless: the trace directory and lease timeout arrive in
//! the pool's `Welcome`, and each campaign's scenario inline with its
//! first `Assign`. A worker that loses its connection reconnects with
//! exponential backoff plus jitter, up to a capped attempt budget, so a
//! coordinator restart (e.g. a `--resume` after a crash) picks the fleet
//! back up without respawning processes.

use std::collections::HashMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use imufit_core::{Campaign, CampaignConfig};
use imufit_math::rng::Pcg;
use imufit_obs::profile;
use imufit_scenario::ScenarioSpec;

use crate::protocol::{encode_msg, read_msg, write_msg, ExecReport, FleetError, FleetMsg};

/// Reconnect attempts before a worker gives up on the coordinator.
pub const MAX_CONNECT_ATTEMPTS: u32 = 8;

/// Base delay for the reconnect backoff schedule (doubles per attempt).
const BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Longest single backoff sleep.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// The heartbeat period under a lease timeout: a third of it, so two
/// beats can go missing before a lease lapses, capped at 2 s so metric
/// snapshots (piggybacked on every beat) reach the coordinator early even
/// under long leases. The pool holds a `Request` that finds no work for at
/// most this long.
pub(crate) fn heartbeat_period(lease_timeout: Duration) -> Duration {
    (lease_timeout / 3)
        .min(Duration::from_secs(2))
        .max(Duration::from_millis(10))
}

/// How a worker session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerExit {
    /// The pool said `Done`: no more work will come.
    CampaignComplete,
    /// The coordinator became unreachable and the reconnect budget ran
    /// out. The coordinator's lease sweep re-queues anything we held.
    CoordinatorLost,
}

/// Connects to `addr` with exponential backoff + jitter, seeded
/// per-worker so two workers restarting together don't thundering-herd.
fn connect_with_backoff(addr: SocketAddr, worker_id: u32) -> Result<TcpStream, FleetError> {
    let mut rng = Pcg::seed_from(0x1F1E_E700u64 ^ u64::from(worker_id));
    let mut delay = BACKOFF_BASE;
    for attempt in 0..MAX_CONNECT_ATTEMPTS {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                return Ok(stream);
            }
            Err(e) => {
                if attempt + 1 == MAX_CONNECT_ATTEMPTS {
                    return Err(FleetError::Io(format!(
                        "worker {worker_id}: coordinator unreachable after \
                         {MAX_CONNECT_ATTEMPTS} attempts: {e}"
                    )));
                }
                let jitter = rng.uniform_range(0.0, delay.as_secs_f64() * 0.5);
                std::thread::sleep(delay + Duration::from_secs_f64(jitter));
                delay = (delay * 2).min(BACKOFF_CAP);
            }
        }
    }
    unreachable!("loop returns on the final attempt")
}

/// Execution accounting for one assigned unit: wall-clock plus the tick
/// profiler's per-stage self-time delta over the unit's window. The
/// profiler samples ticks, so stage deltas are a statistical attribution,
/// not an exact split — which is all the span journal's profiler columns
/// claim to be.
struct ExecWindow {
    started: Instant,
    stage_base: [u64; profile::STAGE_COUNT],
}

impl ExecWindow {
    fn open() -> ExecWindow {
        ExecWindow {
            started: Instant::now(),
            stage_base: profile::stage_nanos(),
        }
    }

    fn close(&self, ticks: u64) -> ExecReport {
        let now = profile::stage_nanos();
        let stages = profile::STAGE_NAMES
            .iter()
            .zip(now.iter().zip(self.stage_base.iter()))
            .filter_map(|(name, (a, b))| {
                let delta = a.saturating_sub(*b);
                (delta > 0).then(|| (name.to_string(), delta))
            })
            .collect();
        ExecReport {
            ticks,
            exec_nanos: self.started.elapsed().as_nanos() as u64,
            stages,
        }
    }
}

/// Simulator ticks a finished unit consumed (flight seconds × physics
/// rate).
fn ticks_for(config: &CampaignConfig, flight_duration: f64) -> u64 {
    (flight_duration * config.flight.physics_rate)
        .round()
        .max(0.0) as u64
}

/// Test/CI hook: with `IMUFIT_FLEET_FLAKY_UNIT=<idx>` set, the first
/// assignment of unit `<idx>` to this worker process drops the connection
/// once, forcing the coordinator down its disconnect-requeue path. The
/// record stream stays untouched (the unit reruns after reconnect), so
/// `campaign_results.csv` is unaffected.
fn flaky_unit_should_drop(unit: u32) -> bool {
    static TARGET: OnceLock<Option<u32>> = OnceLock::new();
    static TRIPPED: AtomicBool = AtomicBool::new(false);
    let target = *TARGET.get_or_init(|| {
        std::env::var("IMUFIT_FLEET_FLAKY_UNIT")
            .ok()
            .and_then(|v| v.parse().ok())
    });
    target == Some(unit) && !TRIPPED.swap(true, Ordering::SeqCst)
}

/// Reads the handshake reply: the lease timeout and the black-box
/// directory every campaign on this connection traces into.
fn read_welcome(msg: &FleetMsg) -> Result<(Duration, Option<PathBuf>), FleetError> {
    let FleetMsg::Welcome {
        trace_dir,
        lease_timeout_s,
    } = msg
    else {
        return Err(FleetError::Malformed("expected Welcome after Hello"));
    };
    let trace_dir = trace_dir.as_ref().map(PathBuf::from);
    if let Some(dir) = &trace_dir {
        let _ = std::fs::create_dir_all(dir);
    }
    Ok((
        Duration::from_secs_f64(lease_timeout_s.max(0.001)),
        trace_dir,
    ))
}

/// Runs a worker against the coordinator at `addr` until the campaign
/// completes or the coordinator stays unreachable past the reconnect
/// budget.
///
/// # Errors
///
/// Returns a typed [`FleetError`] only for handshake-level problems (an
/// invalid scenario, a protocol breach); transport drops are retried
/// internally and surface as [`WorkerExit::CoordinatorLost`].
pub fn run_worker(addr: SocketAddr, worker_id: u32) -> Result<WorkerExit, FleetError> {
    loop {
        let stream = match connect_with_backoff(addr, worker_id) {
            Ok(s) => s,
            Err(_) => return Ok(WorkerExit::CoordinatorLost),
        };
        match serve_session(stream, worker_id) {
            Ok(exit) => return Ok(exit),
            Err(FleetError::Io(_)) | Err(FleetError::Truncated) => {
                // Transport drop mid-session: leases lapse server-side;
                // reconnect and pull fresh work.
                continue;
            }
            Err(e) => return Err(e),
        }
    }
}

/// The worker subcommand every fleet-capable binary exposes: parses
/// `--connect ADDR [--id N]` from `args` and runs [`run_worker`]. Returns
/// the process exit code: 0 once the pool said `Done` (or for `--help`),
/// 1 when the coordinator was lost or the session failed, and 2 for
/// malformed arguments, which are reported with `usage`.
pub fn worker_main(args: impl IntoIterator<Item = String>, usage: &str) -> i32 {
    let malformed = |msg: &str| {
        eprintln!("error: {msg}\n{usage}");
        2
    };
    let mut it = args.into_iter();
    let mut connect = None;
    let mut id = 0u32;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--connect" => match it.next() {
                Some(addr) => connect = Some(addr),
                None => return malformed("missing value for --connect"),
            },
            "--id" => match it.next().map(|v| v.parse()) {
                Some(Ok(n)) => id = n,
                _ => return malformed("cannot parse --id value"),
            },
            "--help" | "-h" => {
                println!("{usage}");
                return 0;
            }
            other => return malformed(&format!("unknown argument: {other}")),
        }
    }
    let Some(connect) = connect else {
        return malformed("worker requires --connect ADDR");
    };
    let Ok(addr) = connect.parse() else {
        return malformed(&format!("cannot parse --connect address '{connect}'"));
    };
    match run_worker(addr, id) {
        Ok(WorkerExit::CampaignComplete) => 0,
        Ok(WorkerExit::CoordinatorLost) => {
            eprintln!("worker {id}: coordinator lost; exiting");
            1
        }
        Err(e) => {
            eprintln!("worker {id}: {e}");
            1
        }
    }
}

/// One connected session: handshake, then request/run/report until
/// `Done` or a transport error.
fn serve_session(mut stream: TcpStream, worker_id: u32) -> Result<WorkerExit, FleetError> {
    write_msg(&mut stream, &FleetMsg::Hello { worker_id })?;
    let (welcome, _) = read_msg(&mut stream)?;
    let (lease_timeout, trace_dir) = read_welcome(&welcome)?;

    // Heartbeats ride a cloned handle so a long experiment doesn't let
    // the lease lapse. The writer mutex keeps heartbeat frames from
    // interleaving with result frames. The wait between beats parks, so
    // the session's end wakes the thread instead of waiting out a beat.
    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    let stop = Arc::new(AtomicBool::new(false));
    let beat = {
        let writer = Arc::clone(&writer);
        let stop = Arc::clone(&stop);
        let every = heartbeat_period(lease_timeout);
        std::thread::spawn(move || loop {
            let due = Instant::now() + every;
            loop {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let left = due.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                std::thread::park_timeout(left);
            }
            // Re-captured per beat: the coordinator keeps only the
            // latest snapshot, so each beat carries cumulative state.
            let snap = imufit_obs::snapshot::capture();
            let snapshot = if snap.is_empty() {
                None
            } else {
                Some(snap.encode())
            };
            let frame = encode_msg(&FleetMsg::Heartbeat { snapshot });
            let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
            if w.write_all(&frame).is_err() {
                return;
            }
        })
    };

    let result = work_loop(trace_dir, &mut stream, &writer);

    stop.store(true, Ordering::SeqCst);
    beat.thread().unpark();
    let _ = stream.shutdown(std::net::Shutdown::Both);
    let _ = beat.join();
    result
}

/// The work loop: request, fly, report, one run at a time, until the
/// pool says `Done`. Each `Assign` carries a campaign id, the first
/// assignment from a campaign brings its scenario inline, and results echo
/// the id so unit indices stay campaign-local.
fn work_loop(
    trace_dir: Option<PathBuf>,
    stream: &mut TcpStream,
    writer: &Arc<Mutex<TcpStream>>,
) -> Result<WorkerExit, FleetError> {
    // Campaign id -> its rebuilt config; the pool resends a scenario only
    // on the first assignment to this connection, so the cache is load-
    // bearing, not an optimisation.
    let mut contexts: HashMap<u32, CampaignConfig> = HashMap::new();
    // Vehicle slot recycled across units, exactly like the in-process
    // worker threads in `Campaign::run_specs_with_progress`. Recycling is
    // safe across campaigns too: `build_into` rebuilds the vehicle from the
    // unit's own mission/seed every run, so records can never depend on
    // which campaign flew the slot last.
    let mut vehicle = None;
    loop {
        {
            let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
            write_msg(&mut *w, &FleetMsg::Request)?;
        }
        match read_msg(stream)? {
            (
                FleetMsg::Assign {
                    unit,
                    spec,
                    span,
                    campaign,
                    spec_toml,
                    ..
                },
                _,
            ) => {
                if let Some(toml) = spec_toml {
                    let scenario = ScenarioSpec::from_toml(&toml)
                        .map_err(|e| FleetError::Io(format!("pool sent invalid scenario: {e}")))?;
                    let mut config = CampaignConfig::from_scenario(&scenario);
                    config.trace_dir = trace_dir.clone();
                    contexts.insert(campaign, config);
                }
                let config = contexts
                    .get(&campaign)
                    .ok_or(FleetError::Malformed("assign for unknown campaign"))?;
                if flaky_unit_should_drop(unit) {
                    return Err(FleetError::Io("flaky-unit test hook tripped".into()));
                }
                let window = ExecWindow::open();
                let record = Campaign::run_experiment_isolated_into(config, spec, &mut vehicle);
                let exec = window.close(ticks_for(config, record.flight_duration));
                let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
                write_msg(
                    &mut *w,
                    &FleetMsg::Result {
                        unit,
                        record,
                        span,
                        exec,
                        campaign,
                    },
                )?;
            }
            // The pool already held this request for a heartbeat period
            // with nothing to hand out (other workers hold the remaining
            // leases, or it is idle between campaigns): ask again.
            (FleetMsg::NoWork, _) => {}
            (FleetMsg::Done, _) => return Ok(WorkerExit::CampaignComplete),
            _ => return Err(FleetError::Malformed("unexpected message in work loop")),
        }
    }
}

/// Spawns `count` local worker processes running `worker_cmd` (argv,
/// element 0 is the program) against `addr`. Used by both the `fleet`
/// binary and `reproduce --fleet-workers`.
///
/// # Errors
///
/// Returns [`FleetError::Io`] if any spawn fails; already-spawned
/// children are left running (the caller's campaign still completes and
/// they exit when it does).
pub fn spawn_local_workers(
    worker_cmd: &[String],
    addr: SocketAddr,
    count: usize,
) -> Result<Vec<std::process::Child>, FleetError> {
    let mut children = Vec::with_capacity(count);
    for id in 0..count {
        let child = std::process::Command::new(&worker_cmd[0])
            .args(&worker_cmd[1..])
            .arg("--connect")
            .arg(addr.to_string())
            .arg("--id")
            .arg(id.to_string())
            .spawn()
            .map_err(|e| FleetError::Io(format!("spawning worker {id}: {e}")))?;
        children.push(child);
    }
    Ok(children)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    /// A worker told `Done` returns at once at the default 30 s lease: its
    /// heartbeat thread, parked for a 2 s beat, wakes to end the session.
    #[test]
    fn session_ends_promptly_after_done() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let pool = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            assert_eq!(
                read_msg(&mut conn).unwrap().0,
                FleetMsg::Hello { worker_id: 3 }
            );
            let welcome = FleetMsg::Welcome {
                trace_dir: None,
                lease_timeout_s: 30.0,
            };
            write_msg(&mut conn, &welcome).unwrap();
            assert_eq!(read_msg(&mut conn).unwrap().0, FleetMsg::Request);
            write_msg(&mut conn, &FleetMsg::Done).unwrap();
            let done_at = Instant::now();
            // Hold the connection open until the worker hangs up.
            let _ = read_msg(&mut conn);
            done_at
        });
        assert_eq!(run_worker(addr, 3), Ok(WorkerExit::CampaignComplete));
        let returned_at = Instant::now();
        let done_at = pool.join().unwrap();
        let tail = returned_at.saturating_duration_since(done_at);
        assert!(
            tail < Duration::from_secs(1),
            "returned {tail:?} after Done"
        );
    }

    /// Malformed worker arguments exit 2 before any connection attempt.
    #[test]
    fn malformed_arguments_exit_2() {
        for bad in [
            &[][..],
            &["--connect"],
            &["--connect", "not-an-address"],
            &["--connect", "127.0.0.1:1", "--id", "x"],
            &["--bogus"],
        ] {
            assert_eq!(worker_main(args(bad), "usage"), 2, "{bad:?}");
        }
        assert_eq!(worker_main(args(&["--help"]), "usage"), 0);
    }
}
