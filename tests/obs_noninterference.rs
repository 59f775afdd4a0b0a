//! Guards the observability layer's core contract: metrics and spans must
//! never feed back into simulation state, RNG draws, or scheduling, so a
//! campaign produces byte-identical results with observability on or off.
//!
//! The in-process check flips the runtime kill-switch
//! ([`imufit_obs::set_runtime_enabled`]) between two identical runs; CI
//! additionally rebuilds with `--no-default-features` (compile-time off)
//! and compares the CSVs across binaries.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use imufit_core::{Campaign, CampaignConfig};
use imufit_obs::snapshot::SnapshotValue;

/// Both tests flip the global runtime kill-switch; they must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn campaign_csv_identical_with_obs_on_and_off() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let config = || CampaignConfig::scaled(1, vec![2.0], 77);

    imufit_obs::set_runtime_enabled(false);
    let csv_off = Campaign::new(config()).run().to_csv();

    imufit_obs::set_runtime_enabled(true);
    let csv_on = Campaign::new(config()).run().to_csv();

    assert_eq!(
        csv_off, csv_on,
        "campaign_results.csv must be byte-identical with observability on/off"
    );

    // With the obs feature compiled in, the second (enabled) run must have
    // populated the registry with the campaign's headline series.
    if cfg!(feature = "obs") {
        let json = imufit_obs::export::json();
        for name in [
            "campaign_runs_total",
            "campaign_run_seconds",
            "sim_tick_seconds",
            "sim_stage_estimator_seconds",
            "sim_stage_faults_seconds",
            "faults_injected_total",
        ] {
            assert!(json.contains(name), "metrics JSON missing {name}: {json}");
        }
        let prom = imufit_obs::export::prometheus();
        assert!(
            prom.contains("campaign_runs_total"),
            "prometheus export missing campaign_runs_total"
        );
    }
}

/// One blocking HTTP/1.1 GET against the embedded server.
fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to obs server");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("read response");
    body
}

/// The stronger form of the contract: the whole live plane — HTTP server,
/// concurrent scrapes, the time-series recorder, the tick-stage profiler
/// at its most invasive setting (every tick sampled), live SLO alert
/// evaluation, and a span journal being appended to — all running
/// *during* the golden campaign must not move a single byte of the CSV.
#[test]
fn campaign_csv_identical_with_live_metrics_plane() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    imufit_obs::set_runtime_enabled(true);
    // A stale gauge from a "previous campaign" in the same process: the
    // campaign start must reset it rather than let it leak into scrapes.
    imufit_obs::gauge("fleet_units_total").set(999.0);

    // Profiler at sample period 1: every tick pays the full stage-seam
    // clock cost, the worst interference case.
    let sampled_before = imufit_obs::profile::sampled_ticks();
    imufit_obs::profile::set_sample_period(1);

    // SLO rules: one that fires as soon as the campaign runs anything,
    // one that can never fire. Both are evaluated on every /alerts scrape
    // and every recorder sample while the campaign ticks.
    imufit_obs::alerts::board().install(vec![
        imufit_obs::alerts::parse_rule("campaign_runs_total >= 0").unwrap(),
        imufit_obs::alerts::parse_rule("faults_injected_total > 1000000000").unwrap(),
    ]);

    let plane = imufit_obs::plane::Plane::start("127.0.0.1:0", Duration::from_millis(40), 64, None)
        .expect("bind live plane on an ephemeral port");
    let addr = plane.addr().expect("live plane has an address");

    // A span journal receiving appends mid-campaign, as the fleet
    // coordinator's does.
    let span_path = std::env::temp_dir().join("imufit_noninterference.ifsp");
    let journal =
        imufit_obs::spans::SpanJournal::create(&span_path, 0xC0FFEE, 4).expect("create journal");

    // Scrape continuously while the campaign runs, keeping the responses
    // observed strictly mid-run.
    let stop = Arc::new(AtomicBool::new(false));
    let seen = Arc::new(Mutex::new(Vec::<String>::new()));
    let alerts_seen = Arc::new(Mutex::new(Vec::<String>::new()));
    let scraper = {
        let stop = Arc::clone(&stop);
        let seen = Arc::clone(&seen);
        let alerts_seen = Arc::clone(&alerts_seen);
        std::thread::spawn(move || {
            let mut unit = 0u32;
            while !stop.load(Ordering::SeqCst) {
                let metrics = http_get(addr, "/metrics");
                assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
                let status = http_get(addr, "/status");
                assert!(status.starts_with("HTTP/1.1 200"), "{status}");
                let alerts = http_get(addr, "/alerts");
                assert!(alerts.starts_with("HTTP/1.1 200"), "{alerts}");
                journal
                    .record(imufit_obs::spans::SpanEvent::new(
                        unit % 4,
                        imufit_obs::spans::SpanKind::Dispatched,
                    ))
                    .expect("journal append");
                unit += 1;
                seen.lock().unwrap().push(metrics);
                alerts_seen.lock().unwrap().push(alerts);
                std::thread::sleep(Duration::from_millis(25));
            }
        })
    };

    let results = Campaign::new(CampaignConfig::scaled(1, vec![2.0, 30.0], 2024)).run();
    stop.store(true, Ordering::SeqCst);
    scraper.join().expect("scraper thread");
    imufit_obs::profile::set_sample_period(imufit_obs::profile::DEFAULT_SAMPLE_PERIOD);

    let golden = include_str!("golden/campaign_small.csv");
    assert_eq!(
        results.to_csv(),
        golden,
        "campaign CSV must stay byte-identical with the live plane scraping mid-run"
    );

    let scrapes = seen.lock().unwrap();
    assert!(!scrapes.is_empty(), "at least one mid-run scrape");

    // The journal appended mid-run decodes cleanly afterwards.
    let log = imufit_obs::spans::SpanLog::read(&span_path).expect("span journal decodes");
    assert!(!log.tail.is_torn());
    assert_eq!(log.campaign, 0xC0FFEE);
    assert_eq!(log.events.len(), scrapes.len());
    let _ = std::fs::remove_file(&span_path);

    if cfg!(feature = "obs") {
        // The profiler sampled the campaign's ticks and its stage shares
        // account for what it measured.
        assert!(
            imufit_obs::profile::sampled_ticks() > sampled_before,
            "profiler sampled no ticks"
        );
        assert!(
            imufit_obs::profile::accounted_fraction() >= 0.9,
            "stage seams account for only {:.1}% of the tick",
            imufit_obs::profile::accounted_fraction() * 100.0
        );
        // The always-true SLO rule fired in the final mid-run scrape; the
        // impossible one did not.
        let alerts = alerts_seen.lock().unwrap();
        let last = alerts.last().unwrap();
        assert!(
            last.contains("\"state\": \"firing\""),
            "always-true rule not firing: {last}"
        );
        assert!(
            imufit_obs::alerts::board().firing_count() == 1,
            "exactly the always-true rule should fire"
        );
    }
    // Leave no rules behind for other tests in this binary.
    imufit_obs::alerts::board().install(Vec::new());

    if cfg!(feature = "obs") {
        assert!(
            scrapes.last().unwrap().contains("campaign_runs_total"),
            "mid-run scrape missing campaign metrics: {}",
            scrapes.last().unwrap()
        );
        // The stale fleet gauge was zeroed at campaign start, not served.
        let snap = imufit_obs::snapshot::capture();
        let gauge = snap
            .metrics
            .iter()
            .find(|m| m.name == "fleet_units_total")
            .expect("fleet_units_total registered");
        match gauge.value {
            SnapshotValue::Gauge(bits) => assert_eq!(
                f64::from_bits(bits),
                0.0,
                "stale fleet_units_total must be reset at campaign start"
            ),
            ref other => panic!("fleet_units_total is not a gauge: {other:?}"),
        }
    }

    // The recorder flushed a decodable series covering the run.
    let out = std::env::temp_dir().join("imufit_noninterference.ifms");
    let written = plane.finish(&out).expect("flush series");
    assert_eq!(written.as_deref(), Some(out.as_path()));
    let series = imufit_obs::timeseries::TimeSeries::read(&out).expect("series decodes");
    assert!(!series.frames.is_empty(), "series has samples");
    let _ = std::fs::remove_file(&out);
}
