//! The service's HTTP routes, mounted as an [`imufit_obs::http::Handler`]
//! in front of the obs server's built-in endpoints.
//!
//! | Method | Path                       | Purpose                                  |
//! |--------|----------------------------|------------------------------------------|
//! | POST   | `/campaigns`               | Submit a scenario (`?tenant=&priority=`) |
//! | GET    | `/campaigns/{id}`          | Status/progress JSON                     |
//! | GET    | `/campaigns/{id}/results`  | Merged CSV (byte-identical)              |
//!
//! Every endpoint records a latency histogram (`serve_submit_seconds`,
//! `serve_status_seconds`, `serve_results_seconds`) plus request and
//! rejection counters, so one `/metrics` scrape tells the heavy-traffic
//! story. All error bodies are JSON with a single `error` key; scenario
//! parse failures carry the strict parser's message verbatim.

use std::sync::Arc;

use imufit_fleet::pool::{CampaignState, CampaignStatus, ResultsOutcome, SubmitOutcome};
use imufit_obs::escape_json;
use imufit_obs::http::{Handler, Request, Response};
use imufit_scenario::{SubmissionError, SubmissionRequest};

use crate::service::CampaignService;

/// Builds the route handler for a running service. Returns `None` for
/// paths outside `/campaigns`, letting the obs built-ins answer.
pub fn handler(service: Arc<CampaignService>) -> Handler {
    Arc::new(move |request: &Request| route(&service, request))
}

fn route(service: &CampaignService, request: &Request) -> Option<Response> {
    if request.path == "/campaigns" {
        if request.method != "POST" {
            return Some(error_response(405, "submit campaigns with POST"));
        }
        let _timer = imufit_obs::timer("serve_submit").enter();
        imufit_obs::counter_labeled("serve_requests_total", "endpoint", "submit").inc();
        return Some(submit(service, request));
    }
    let rest = request.path.strip_prefix("/campaigns/")?;
    if let Some(id_part) = rest.strip_suffix("/results") {
        let _timer = imufit_obs::timer("serve_results").enter();
        imufit_obs::counter_labeled("serve_requests_total", "endpoint", "results").inc();
        if request.method != "GET" {
            return Some(error_response(405, "fetch results with GET"));
        }
        return Some(results(service, id_part));
    }
    let _timer = imufit_obs::timer("serve_status").enter();
    imufit_obs::counter_labeled("serve_requests_total", "endpoint", "status").inc();
    if request.method != "GET" {
        return Some(error_response(405, "poll status with GET"));
    }
    Some(status(service, rest))
}

fn submit(service: &CampaignService, request: &Request) -> Response {
    let Ok(body) = std::str::from_utf8(&request.body) else {
        imufit_obs::counter_labeled("serve_rejections_total", "reason", "encoding").inc();
        return error_response(400, "request body is not valid UTF-8");
    };
    let submission = match SubmissionRequest::parse(&request.query, body) {
        Ok(submission) => submission,
        Err(e) => {
            let reason = match &e {
                SubmissionError::BadScenario(_) => "scenario",
                _ => "request",
            };
            imufit_obs::counter_labeled("serve_rejections_total", "reason", reason).inc();
            return error_response(400, &e.to_string());
        }
    };
    match service.submit(submission) {
        Ok(SubmitOutcome::Accepted(status)) => {
            if status.cached {
                imufit_obs::counter("serve_cache_hits_total").inc();
            }
            Response::json(201, status_json(&status))
        }
        Ok(SubmitOutcome::QuotaExceeded { active, limit }) => {
            imufit_obs::counter_labeled("serve_rejections_total", "reason", "quota").inc();
            error_response(
                429,
                &format!("tenant has {active} incomplete campaigns (limit {limit})"),
            )
        }
        Err(e) => {
            imufit_obs::counter_labeled("serve_rejections_total", "reason", "internal").inc();
            error_response(500, &e.to_string())
        }
    }
}

fn status(service: &CampaignService, id_part: &str) -> Response {
    let Some(id) = parse_id(id_part) else {
        return error_response(404, "no such campaign");
    };
    match service.status(id) {
        Some(status) => Response::json(200, status_json(&status)),
        None => error_response(404, "no such campaign"),
    }
}

fn results(service: &CampaignService, id_part: &str) -> Response {
    let Some(id) = parse_id(id_part) else {
        return error_response(404, "no such campaign");
    };
    match service.results(id) {
        ResultsOutcome::NotFound => error_response(404, "no such campaign"),
        ResultsOutcome::NotReady => error_response(409, "campaign still running"),
        ResultsOutcome::Csv(csv) => Response {
            code: 200,
            content_type: "text/csv".to_string(),
            body: csv,
        },
    }
}

/// Campaign ids appear in URLs as `{id}` or `c{id}` (the submission
/// response's `id` field uses the latter).
fn parse_id(part: &str) -> Option<u32> {
    part.strip_prefix('c').unwrap_or(part).parse().ok()
}

fn error_response(code: u16, message: &str) -> Response {
    Response::json(
        code,
        format!("{{\"error\": \"{}\"}}\n", escape_json(message)),
    )
}

/// Renders one campaign's status as JSON (hand-rolled, like every other
/// codec in the workspace).
pub fn status_json(status: &CampaignStatus) -> String {
    let state = match status.state {
        CampaignState::Running => "running",
        CampaignState::Complete => "complete",
    };
    format!(
        "{{\n  \"id\": \"c{}\",\n  \"campaign\": {},\n  \"tenant\": \"{}\",\n  \
         \"priority\": {},\n  \"state\": \"{}\",\n  \"cached\": {},\n  \
         \"units_total\": {},\n  \"units_done\": {},\n  \"dispatched\": {},\n  \
         \"fingerprint\": \"{:016x}\"\n}}\n",
        status.campaign,
        status.campaign,
        escape_json(&status.tenant),
        status.priority,
        state,
        status.cached,
        status.units_total,
        status.units_done,
        status.dispatched,
        status.fingerprint.spec_hash,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use imufit_scenario::ScenarioSpec;

    fn test_service(tag: &str, tweak: impl FnOnce(&mut ServiceConfig)) -> Arc<CampaignService> {
        let store = std::env::temp_dir().join(format!(
            "imufit-serve-http-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let _ = std::fs::remove_dir_all(&store);
        let mut config = ServiceConfig::new(store);
        tweak(&mut config);
        CampaignService::start(config).unwrap()
    }

    fn post(service: &Arc<CampaignService>, query: &str, body: &str) -> Response {
        let request = Request {
            method: "POST".to_string(),
            path: "/campaigns".to_string(),
            query: query.to_string(),
            body: body.as_bytes().to_vec(),
        };
        route(service, &request).expect("handled")
    }

    fn get(service: &Arc<CampaignService>, path: &str) -> Option<Response> {
        let request = Request {
            method: "GET".to_string(),
            path: path.to_string(),
            query: String::new(),
            body: Vec::new(),
        };
        route(service, &request)
    }

    fn quick_toml(seed: u64) -> String {
        let mut spec = ScenarioSpec::preset("quick").unwrap();
        spec.campaign.seed = seed;
        spec.to_toml()
    }

    /// A malformed scenario is a 400 whose JSON body carries the strict
    /// parser's message — never a panic.
    #[test]
    fn malformed_scenario_is_400_with_parser_message() {
        let service = test_service("parse", |_| {});
        let response = post(&service, "tenant=alice", "definitely not toml = [");
        assert_eq!(response.code, 400);
        assert!(response.body.contains("\"error\""));
        assert!(response.body.contains("invalid scenario"));

        // Valid TOML, but an unknown key: the strict parser's complaint
        // reaches the client verbatim.
        let mut body = quick_toml(1);
        body.push_str("\n[extra]\nkey = 1\n");
        let response = post(&service, "tenant=alice", &body);
        assert_eq!(response.code, 400);
        assert!(response.body.contains("extra"), "body: {}", response.body);
        service.shutdown();
    }

    /// A parser message that echoes control characters from the
    /// submission still makes a 400 body that is valid JSON.
    #[test]
    fn control_characters_in_keys_stay_valid_json() {
        let service = test_service("control", |_| {});
        for (body, key) in [
            ("se\ted = 1\n", "se\ted"),
            ("[camp\u{1}aign]\nseed = 1\n", "camp\u{1}aign"),
        ] {
            let response = post(&service, "tenant=alice", body);
            assert_eq!(response.code, 400);
            // JSON strings carry no raw control characters.
            assert!(
                !response.body.trim_end().chars().any(char::is_control),
                "raw control character in {:?}",
                response.body
            );
            let doc = imufit_scenario::doc::parse_json(&response.body)
                .unwrap_or_else(|e| panic!("body {:?} is not JSON: {e}", response.body));
            let Some(imufit_scenario::Value::Str(message)) = doc.get("error") else {
                panic!("no error message in {:?}", response.body);
            };
            assert!(message.contains(key), "message: {message:?}");
        }
        service.shutdown();
    }

    /// Submissions without a tenant, or with hostile tenant ids, are 400.
    #[test]
    fn bad_tenant_is_400() {
        let service = test_service("tenant", |_| {});
        assert_eq!(post(&service, "", &quick_toml(1)).code, 400);
        assert_eq!(post(&service, "tenant=a/b", &quick_toml(1)).code, 400);
        service.shutdown();
    }

    /// The tenant queued-campaign quota maps to 429.
    #[test]
    fn quota_breach_is_429() {
        let service = test_service("quota", |c| c.pool.max_queued_per_tenant = 1);
        assert_eq!(post(&service, "tenant=alice", &quick_toml(1)).code, 201);
        let response = post(&service, "tenant=alice", &quick_toml(2));
        assert_eq!(response.code, 429);
        assert!(response.body.contains("limit 1"));
        // Another tenant is unaffected.
        assert_eq!(post(&service, "tenant=bob", &quick_toml(3)).code, 201);
        service.shutdown();
    }

    /// Status and results answer 404/409/405 correctly and ids
    /// round-trip in both `{id}` and `c{id}` forms.
    #[test]
    fn status_and_results_lifecycle() {
        let service = test_service("lifecycle", |_| {});
        let response = post(&service, "tenant=alice&priority=2", &quick_toml(1));
        assert_eq!(response.code, 201);
        assert!(response.body.contains("\"state\": \"running\""));
        assert!(response.body.contains("\"cached\": false"));
        let id: u32 = response
            .body
            .lines()
            .find_map(|l| l.trim().strip_prefix("\"campaign\": "))
            .and_then(|v| v.trim_end_matches(',').parse().ok())
            .expect("campaign id in response");

        for path in [format!("/campaigns/{id}"), format!("/campaigns/c{id}")] {
            let response = get(&service, &path).expect("handled");
            assert_eq!(response.code, 200);
            assert!(response.body.contains("\"tenant\": \"alice\""));
            assert!(response.body.contains("\"priority\": 2"));
        }
        // No workers are attached, so results are not ready.
        let response = get(&service, &format!("/campaigns/{id}/results")).expect("handled");
        assert_eq!(response.code, 409);

        assert_eq!(get(&service, "/campaigns/999").unwrap().code, 404);
        assert_eq!(get(&service, "/campaigns/999/results").unwrap().code, 404);
        assert_eq!(get(&service, "/campaigns/bogus").unwrap().code, 404);

        // Wrong methods.
        let request = Request {
            method: "GET".to_string(),
            path: "/campaigns".to_string(),
            query: String::new(),
            body: Vec::new(),
        };
        assert_eq!(route(&service, &request).unwrap().code, 405);
        let request = Request {
            method: "POST".to_string(),
            path: format!("/campaigns/{id}"),
            query: String::new(),
            body: Vec::new(),
        };
        assert_eq!(route(&service, &request).unwrap().code, 405);

        // Paths outside /campaigns fall through to the obs built-ins.
        assert!(get(&service, "/metrics").is_none());
        service.shutdown();
    }

    /// An identical resubmission after completion is served from cache.
    /// (Completion is simulated by writing the store marker directly; the
    /// end-to-end path is covered by the workspace integration test.)
    #[test]
    fn cache_hit_after_store_marker() {
        let service = test_service("cache", |_| {});
        let response = post(&service, "tenant=alice", &quick_toml(7));
        assert_eq!(response.code, 201);
        let fingerprint = response
            .body
            .lines()
            .find_map(|l| l.trim().strip_prefix("\"fingerprint\": \""))
            .map(|v| v.trim_end_matches('"').to_string())
            .expect("fingerprint in response");

        // Stamp the store entry complete.
        let store = &service.config().pool.store_dir;
        let dir = std::fs::read_dir(store)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(&fingerprint))
            })
            .expect("store entry created at submission");
        std::fs::write(dir.join("campaign_results.csv"), "csv-placeholder\n").unwrap();

        // Same scenario, different tenant, reordered irrelevant — cache.
        let response = post(&service, "tenant=bob", &quick_toml(7));
        assert_eq!(response.code, 201);
        assert!(response.body.contains("\"cached\": true"));
        assert!(response.body.contains("\"dispatched\": 0"));
        assert!(response.body.contains("\"state\": \"complete\""));
        service.shutdown();
    }
}
