//! The open-loop cache-hit stream: request pairs sent on a fixed schedule
//! whatever the service does, each timed from when it was due.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use imufit::math::rng::Pcg;

use crate::http::Exchange;

/// The hit stream's fixed rate, pairs per second.
pub const HIT_RATE: f64 = 60.0;

/// A fixed-rate schedule: pair `i` is due `i / rate` seconds after start.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Pairs per second.
    pub rate: f64,
}

impl Schedule {
    /// When pair `i` is due, relative to the schedule start.
    pub fn due(&self, i: usize) -> Duration {
        Duration::from_secs_f64(i as f64 / self.rate)
    }

    /// How late pair `i` went out when sent `sent` after the start, ms.
    pub fn late_ms(&self, i: usize, sent: Duration) -> f64 {
        sent.saturating_sub(self.due(i)).as_secs_f64() * 1e3
    }
}

/// A completed campaign the stream can resubmit: an equivalent reordered
/// document and the CSV every hit must return byte for byte.
pub struct Target {
    /// The reordered scenario document.
    pub body: String,
    /// The cold campaign's CSV.
    pub csv: String,
}

/// What the stream measured.
#[derive(Debug, Default)]
pub struct HitStats {
    /// Pair round trips from due time to CSV in hand, ms.
    pub rtt_ms: Vec<f64>,
    /// How late each pair was sent, ms.
    pub late_ms: Vec<f64>,
    /// Requests sent.
    pub requests: u64,
    /// Pairs that failed: a transport error, a non-2xx reply, a miss, or a
    /// CSV that differs from the cold original.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_error: Option<String>,
}

impl HitStats {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }
}

enum Phase {
    Submit,
    Fetch,
}

struct Pair {
    due: Instant,
    target: Arc<Target>,
    phase: Phase,
    exchange: Exchange,
}

/// A pair not answered within this long counts as failed.
const PAIR_TIMEOUT: Duration = Duration::from_secs(10);

/// The campaign id in a submission reply.
pub fn campaign_id(body: &str) -> Option<u64> {
    match imufit::scenario::doc::parse_json(body)
        .ok()?
        .get("campaign")
    {
        Some(imufit::scenario::doc::Value::Int(id)) => Some(*id),
        _ => None,
    }
}

/// Sends `pairs` pairs at `schedule` from one thread: each pair POSTs a
/// seed-chosen target document, expects a cache hit, then GETs the CSV.
/// `targets` returns the campaigns completed so far (never empty);
/// `between` runs on every loop turn (peak-RSS sampling).
pub fn hit_stream(
    addr: SocketAddr,
    pairs: usize,
    schedule: Schedule,
    rng: &mut Pcg,
    targets: &dyn Fn() -> Vec<Arc<Target>>,
    between: &mut dyn FnMut(),
) -> HitStats {
    let mut stats = HitStats::default();
    let start = Instant::now();
    let mut next = 0;
    let mut inflight: Vec<Pair> = Vec::new();
    while next < pairs || !inflight.is_empty() {
        let now = Instant::now();
        while next < pairs && start + schedule.due(next) <= now {
            stats.late_ms.push(schedule.late_ms(next, now - start));
            let choices = targets();
            let index = ((rng.uniform() * choices.len() as f64) as usize).min(choices.len() - 1);
            let target = Arc::clone(&choices[index]);
            stats.requests += 1;
            match Exchange::start(addr, "POST", "/campaigns?tenant=hits", &target.body) {
                Ok(exchange) => inflight.push(Pair {
                    due: start + schedule.due(next),
                    target,
                    phase: Phase::Submit,
                    exchange,
                }),
                Err(e) => stats.fail(e),
            }
            next += 1;
        }
        let mut i = 0;
        while i < inflight.len() {
            let pair = &mut inflight[i];
            let done = match pair.exchange.poll() {
                Ok(None) if pair.due.elapsed() > PAIR_TIMEOUT => {
                    stats.fail("a hit pair timed out".to_string());
                    true
                }
                Ok(None) => false,
                Err(e) => {
                    stats.fail(e);
                    true
                }
                Ok(Some((code, body))) => match pair.phase {
                    Phase::Submit => match campaign_id(&body) {
                        Some(id) if code == 201 && body.contains("\"cached\": true") => {
                            stats.requests += 1;
                            let path = format!("/campaigns/{id}/results");
                            match Exchange::start(addr, "GET", &path, "") {
                                Ok(exchange) => {
                                    pair.exchange = exchange;
                                    pair.phase = Phase::Fetch;
                                    false
                                }
                                Err(e) => {
                                    stats.fail(e);
                                    true
                                }
                            }
                        }
                        _ => {
                            stats.fail(format!(
                                "a resubmission was not a cache hit ({code}): {body}"
                            ));
                            true
                        }
                    },
                    Phase::Fetch => {
                        if code == 200 && body == pair.target.csv {
                            stats.rtt_ms.push(pair.due.elapsed().as_secs_f64() * 1e3);
                        } else {
                            stats
                                .fail(format!("a hit CSV differs from its cold original ({code})"));
                        }
                        true
                    }
                },
            };
            if done {
                inflight.swap_remove(i);
            } else {
                i += 1;
            }
        }
        between();
        std::thread::sleep(Duration::from_micros(200));
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_lateness_is_measured_from_the_due_time() {
        let s = Schedule { rate: 60.0 };
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(60), Duration::from_secs(1));
        // On time or early is zero lateness; a stall makes every later
        // pair late by what is left of it.
        assert_eq!(s.late_ms(0, Duration::ZERO), 0.0);
        assert_eq!(s.late_ms(3, Duration::from_millis(20)), 0.0);
        assert!((s.late_ms(3, Duration::from_millis(60)) - 10.0).abs() < 1e-9);
        assert!((s.late_ms(4, Duration::from_millis(60)) - 0.0).abs() < 1e-9);
        assert!((s.late_ms(6, Duration::from_millis(150)) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn submission_replies_carry_the_campaign_id() {
        let reply = "{\n  \"id\": \"c7\",\n  \"campaign\": 7,\n  \"cached\": true\n}\n";
        assert_eq!(campaign_id(reply), Some(7));
        assert_eq!(campaign_id("{\"error\": \"no\"}"), None);
    }
}
