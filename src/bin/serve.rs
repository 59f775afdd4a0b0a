//! Campaign-as-a-service driver: a long-running multi-tenant campaign
//! service over HTTP/JSON, backed by the persistent fleet worker pool
//! and a fingerprint-keyed result store.
//!
//! Usage:
//!
//! ```text
//! serve [--addr A] [--store DIR] [--workers N] [--no-spawn]
//!       [--max-body BYTES] [--max-queued N] [--max-inflight N]
//!       [--lease-timeout S]
//! serve worker --connect ADDR [--id N]
//! ```
//!
//! Tenants submit scenario documents (TOML or JSON) with
//! `POST /campaigns?tenant=NAME[&priority=P]`, poll
//! `GET /campaigns/{id}`, and fetch the merged CSV — byte-identical to a
//! single-process run — from `GET /campaigns/{id}/results`. Identical
//! resubmissions are served from the on-disk result store without
//! dispatching a single unit. The obs built-ins (`/metrics`, `/status`,
//! `/healthz`) ride the same listener.

use std::path::PathBuf;

use imufit_obs::info;
use imufit_serve::{handler, CampaignService, ServiceConfig};

const USAGE: &str = "usage: serve [--addr A] [--store DIR] [--workers N] [--no-spawn]
             [--max-body BYTES] [--max-queued N] [--max-inflight N]
             [--lease-timeout S]
       serve worker --connect ADDR [--id N]

  --addr A          HTTP bind address (default 127.0.0.1:9470; port 0 for
                    ephemeral). Serves POST /campaigns,
                    GET /campaigns/{id}, GET /campaigns/{id}/results plus
                    the obs built-ins /metrics, /status, /healthz
  --store DIR       result-store root (default ./serve-store); completed
                    campaigns persist here keyed by fingerprint and
                    identical resubmissions are served from cache
  --workers N       pool worker processes (default 0 = one per CPU)
  --no-spawn        don't spawn local workers; attach external
                    `serve worker --connect` processes instead
  --max-body BYTES  request-body cap, breach is a 413 (default 1 MiB)
  --max-queued N    max incomplete campaigns per tenant, breach is a 429
                    (default 4; 0 = unlimited)
  --max-inflight N  max leased units per tenant at once; breach pauses
                    dispatch, not submission (default 0 = unlimited)
  --lease-timeout S seconds before an unacknowledged unit is requeued
                    (default 30)
  worker            serve one pool worker process
    --connect ADDR  pool worker address printed at service start
    --id N          worker id reported to the pool (default 0)";

/// Prints an argument error plus usage to stderr and exits 2.
fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// Parses a flag's value, dying on anything missing or unparsable.
fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let Some(v) = value else {
        die(&format!("missing value for {flag}"));
    };
    v.parse()
        .unwrap_or_else(|_| die(&format!("cannot parse {flag} value '{v}'")))
}

struct ServeArgs {
    addr: String,
    workers: usize,
    spawn: bool,
    /// `ServiceConfig::new`'s defaults with the service flags applied.
    service: ServiceConfig,
}

fn parse_serve_args(mut it: impl Iterator<Item = String>) -> ServeArgs {
    let mut args = ServeArgs {
        addr: "127.0.0.1:9470".to_string(),
        workers: 0,
        spawn: true,
        service: ServiceConfig::new(PathBuf::from("serve-store")),
    };
    let pool = &mut args.service.pool;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => args.addr = it.next().unwrap_or_else(|| die("missing value for --addr")),
            "--store" => {
                pool.store_dir = it
                    .next()
                    .unwrap_or_else(|| die("missing value for --store"))
                    .into()
            }
            "--workers" => args.workers = parse_value("--workers", it.next()),
            "--no-spawn" => args.spawn = false,
            "--max-body" => args.service.max_body_bytes = parse_value("--max-body", it.next()),
            "--max-queued" => pool.max_queued_per_tenant = parse_value("--max-queued", it.next()),
            "--max-inflight" => {
                pool.max_inflight_units_per_tenant = parse_value("--max-inflight", it.next())
            }
            "--lease-timeout" => pool.lease_timeout_s = parse_value("--lease-timeout", it.next()),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => die(&format!("unknown argument: {other}")),
        }
    }
    if pool.lease_timeout_s <= 0.0 {
        die("--lease-timeout must be positive");
    }
    args
}

fn run_service(args: ServeArgs) {
    let store = args.service.pool.store_dir.clone();
    let max_body = args.service.max_body_bytes;

    let service = CampaignService::start(args.service).unwrap_or_else(|e| {
        eprintln!("error: cannot start campaign service: {e}");
        std::process::exit(1);
    });

    let workers = if args.workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        args.workers
    };
    let mut _children = Vec::new();
    if args.spawn {
        let exe = std::env::current_exe()
            .unwrap_or_else(|e| die(&format!("cannot locate own executable: {e}")));
        let cmd = vec![exe.display().to_string(), "worker".to_string()];
        _children = imufit_fleet::spawn_local_workers(&cmd, service.worker_addr(), workers)
            .unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            });
    } else {
        println!("serve: connect workers to {}", service.worker_addr());
    }

    let server = imufit_obs::http::ObsServer::serve_with(
        &args.addr,
        Some(service.aggregate()),
        Some(handler(service.clone())),
        max_body,
    )
    .unwrap_or_else(|e| {
        eprintln!("error: cannot bind {}: {e}", args.addr);
        std::process::exit(1);
    });
    info!(
        "campaign service on http://{} ({} workers, store {})",
        server.addr(),
        workers,
        store.display()
    );
    info!(
        "submit: curl -X POST --data-binary @scenario.toml 'http://{}/campaigns?tenant=NAME'",
        server.addr()
    );

    // Long-running service: park until killed. Workers, the pool accept
    // loop, and the HTTP server all run on their own threads.
    loop {
        std::thread::park();
    }
}

fn main() {
    imufit_obs::log::init();
    let mut it = std::env::args();
    let _ = it.next();
    // Peek for the hidden worker subcommand; everything else is flags.
    match it.next() {
        Some(first) if first == "worker" => {
            std::process::exit(imufit_fleet::worker_main(it, USAGE))
        }
        Some(first) => run_service(parse_serve_args(std::iter::once(first).chain(it))),
        None => run_service(parse_serve_args(std::iter::empty())),
    }
}
